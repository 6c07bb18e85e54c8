//! Scalable k-mins ADS construction: k independent bottom-1
//! PrunedDijkstra passes, one per permutation (paper, Section 3:
//! "a k-mins ADS set can be computed by performing k separate computations
//! of bottom-1 ADS sets").

use adsketch_graph::Graph;
use adsketch_util::RankHasher;

use crate::builder::pruned_dijkstra::run_core;
use crate::builder::{shard_slots, Bottom1Pass, BuildStats};
use crate::error::CoreError;
use crate::kmins::{KMinsAds, KMinsRecord};

/// Builds the forward k-mins ADS of every node, with aggregate work
/// counters over the k passes. The passes are spread over `threads`
/// threads (`0` = all cores, `1` = inline); sketches and counters are the
/// same at every thread count.
pub fn build_with_stats(
    g: &Graph,
    k: usize,
    hasher: &RankHasher,
    threads: usize,
) -> Result<(Vec<KMinsAds>, BuildStats), CoreError> {
    assert!(k >= 1);
    let n = g.num_nodes();
    let mut passes: Vec<Bottom1Pass> = vec![Ok((Vec::new(), BuildStats::default())); k];
    shard_slots(
        &mut passes,
        threads,
        // One rank buffer per thread, refilled per permutation.
        || vec![0.0f64; n],
        |ranks, h, out| {
            for (v, r) in ranks.iter_mut().enumerate() {
                *r = hasher.perm_rank(v as u64, h as u32);
            }
            *out = run_core(g, 1, ranks, None).map(|(arena, s)| (arena.into_per_node(), s));
        },
    );
    let mut records: Vec<Vec<KMinsRecord>> = vec![Vec::new(); n];
    let mut stats = BuildStats::default();
    for (h, pass) in passes.into_iter().enumerate() {
        let (per_node, s) = pass?;
        stats.merge(s);
        for (v, entries) in per_node.into_iter().enumerate() {
            records[v].extend(entries.into_iter().map(|e| KMinsRecord {
                node: e.node,
                dist: e.dist,
                rank: e.rank,
                perm: h as u32,
            }));
        }
    }
    let sets = records
        .into_iter()
        .map(|mut rs| {
            rs.sort_unstable_by(|a, b| {
                a.dist
                    .total_cmp(&b.dist)
                    .then(a.node.cmp(&b.node))
                    .then(a.perm.cmp(&b.perm))
            });
            KMinsAds::from_records(k, rs)
        })
        .collect();
    Ok((sets, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_graph::generators;

    fn build(g: &Graph, k: usize, hasher: &RankHasher) -> Vec<KMinsAds> {
        build_with_stats(g, k, hasher, 1).unwrap().0
    }

    /// Sketches and counters do not depend on the thread count, and the
    /// counters are those of the sequential loop this one replaced.
    #[test]
    fn threads_change_neither_sketches_nor_stats() {
        let g = generators::gnp_directed(60, 0.06, 5);
        let h = RankHasher::new(6);
        let (seq, s) = build_with_stats(&g, 5, &h, 1).unwrap();
        assert_eq!(seq, crate::reference::build_kmins(&g, 5, &h));
        assert_eq!(
            (
                s.relaxations,
                s.insertions,
                s.heap_pushes,
                s.pruned_at_relax
            ),
            (987, 987, 987, 741)
        );
        for threads in [2, 4, 0] {
            let par = build_with_stats(&g, 5, &h, threads).unwrap();
            assert_eq!(par, (seq.clone(), s), "threads {threads}");
        }
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..4u64 {
            let g = generators::gnp_directed(50, 0.07, seed);
            let hasher = RankHasher::new(seed + 800);
            let fast = build(&g, 3, &hasher);
            let slow = crate::reference::build_kmins(&g, 3, &hasher);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn weighted_graphs_supported() {
        let g = generators::random_weighted_digraph(40, 3, 0.25, 2.25, 5);
        let hasher = RankHasher::new(900);
        let fast = build(&g, 2, &hasher);
        let slow = crate::reference::build_kmins(&g, 2, &hasher);
        assert_eq!(fast, slow);
    }

    #[test]
    fn hip_estimates_track_truth_on_graph() {
        use adsketch_util::stats::ErrorStats;
        let g = generators::barabasi_albert(200, 3, 7);
        let truth = adsketch_graph::bfs::reachable_count(&g, 0) as f64;
        let mut err = ErrorStats::new(truth);
        for seed in 0..60 {
            let hasher = RankHasher::new(seed);
            let sets = build(&g, 8, &hasher);
            err.push(sets[0].hip_weights().row().reachable_estimate());
        }
        assert!(
            err.relative_bias().abs() < 0.15,
            "bias {}",
            err.relative_bias()
        );
    }
}
