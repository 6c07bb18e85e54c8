//! Scalable k-partition ADS construction: one bottom-1 PrunedDijkstra pass
//! per bucket, with only the bucket's members acting as sources (paper,
//! Section 3: "we perform a separate bottom-1 ADS computation for each of
//! the k buckets, with the ADS of nodes not in the bucket initialized
//! to ∅").

use adsketch_graph::{Graph, NodeId};
use adsketch_util::RankHasher;

use crate::builder::pruned_dijkstra::run_core;
use crate::builder::{shard_slots, Bottom1Pass, BuildStats};
use crate::error::CoreError;
use crate::kpartition::{KPartRecord, KPartitionAds};

/// Builds the forward k-partition ADS of every node, with aggregate work
/// counters over the k passes (an empty bucket runs none). The passes are
/// spread over `threads` threads (`0` = all cores, `1` = inline);
/// sketches and counters are the same at every thread count.
pub fn build_with_stats(
    g: &Graph,
    k: usize,
    hasher: &RankHasher,
    threads: usize,
) -> Result<(Vec<KPartitionAds>, BuildStats), CoreError> {
    assert!(k >= 1);
    let n = g.num_nodes();
    let ranks: Vec<f64> = (0..n as u64).map(|v| hasher.rank(v)).collect();
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in 0..n as NodeId {
        buckets[hasher.bucket(v as u64, k)].push(v);
    }
    let mut passes: Vec<Bottom1Pass> = vec![Ok((Vec::new(), BuildStats::default())); k];
    shard_slots(
        &mut passes,
        threads,
        || (),
        |(), b, out| {
            let sources = &buckets[b];
            if !sources.is_empty() {
                *out = run_core(g, 1, &ranks, Some(sources))
                    .map(|(arena, s)| (arena.into_per_node(), s));
            }
        },
    );
    let mut records: Vec<Vec<KPartRecord>> = vec![Vec::new(); n];
    let mut stats = BuildStats::default();
    for (b, pass) in passes.into_iter().enumerate() {
        let (per_node, s) = pass?;
        stats.merge(s);
        for (v, entries) in per_node.into_iter().enumerate() {
            records[v].extend(entries.into_iter().map(|e| KPartRecord {
                node: e.node,
                dist: e.dist,
                rank: e.rank,
                bucket: b as u32,
            }));
        }
    }
    let sets = records
        .into_iter()
        .map(|mut rs| {
            rs.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist).then(a.node.cmp(&b.node)));
            KPartitionAds::from_records(k, rs)
        })
        .collect();
    Ok((sets, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_graph::generators;

    fn build(g: &Graph, k: usize, hasher: &RankHasher) -> Vec<KPartitionAds> {
        build_with_stats(g, k, hasher, 1).unwrap().0
    }

    /// Sketches and counters do not depend on the thread count, and the
    /// counters are those of the sequential loop this one replaced.
    #[test]
    fn threads_change_neither_sketches_nor_stats() {
        let g = generators::gnp_directed(60, 0.06, 7);
        let h = RankHasher::new(8);
        let (seq, s) = build_with_stats(&g, 6, &h, 1).unwrap();
        assert_eq!(seq, crate::reference::build_kpartition(&g, 6, &h));
        assert_eq!(
            (
                s.relaxations,
                s.insertions,
                s.heap_pushes,
                s.pruned_at_relax
            ),
            (434, 434, 434, 123)
        );
        for threads in [2, 4, 0] {
            let par = build_with_stats(&g, 6, &h, threads).unwrap();
            assert_eq!(par, (seq.clone(), s), "threads {threads}");
        }
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..4u64 {
            let g = generators::gnp_directed(60, 0.06, seed);
            let hasher = RankHasher::new(seed + 1000);
            let fast = build(&g, 4, &hasher);
            let slow = crate::reference::build_kpartition(&g, 4, &hasher);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn weighted_graphs_supported() {
        let g = generators::random_weighted_digraph(40, 3, 0.25, 2.25, 9);
        let hasher = RankHasher::new(1100);
        let fast = build(&g, 4, &hasher);
        let slow = crate::reference::build_kpartition(&g, 4, &hasher);
        assert_eq!(fast, slow);
    }

    #[test]
    fn sketch_size_near_lemma_2_2() {
        use adsketch_util::harmonic::expected_kpartition_ads_size;
        let n = 300;
        let g = generators::barabasi_albert(n, 3, 3);
        let k = 8;
        let mut total = 0usize;
        let runs = 15;
        for seed in 0..runs {
            let sets = build(&g, k, &RankHasher::new(seed));
            total += sets.iter().map(|s| s.len()).sum::<usize>();
        }
        let mean = total as f64 / (runs as f64 * n as f64);
        let expect = expected_kpartition_ads_size(n as u64, k);
        // k·H_{n/k} is an approximation (buckets are multinomial, not
        // exactly n/k); allow generous slack.
        assert!(
            (mean - expect).abs() / expect < 0.25,
            "mean {mean} vs Lemma 2.2 ≈ {expect}"
        );
    }
}
