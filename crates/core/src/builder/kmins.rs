//! Scalable k-mins ADS construction: k independent bottom-1
//! PrunedDijkstra passes, one per permutation (paper, Section 3:
//! "a k-mins ADS set can be computed by performing k separate computations
//! of bottom-1 ADS sets").

use adsketch_graph::Graph;
use adsketch_util::RankHasher;

use crate::builder::pruned_dijkstra::run_core;
use crate::builder::BuildStats;
use crate::error::CoreError;
use crate::kmins::{KMinsAds, KMinsRecord};

/// Builds the forward k-mins ADS of every node.
pub fn build(g: &Graph, k: usize, hasher: &RankHasher) -> Result<Vec<KMinsAds>, CoreError> {
    build_with_stats(g, k, hasher).map(|(s, _)| s)
}

/// Like [`build`] with aggregate work counters over the k passes.
pub fn build_with_stats(
    g: &Graph,
    k: usize,
    hasher: &RankHasher,
) -> Result<(Vec<KMinsAds>, BuildStats), CoreError> {
    assert!(k >= 1);
    let n = g.num_nodes();
    let mut records: Vec<Vec<KMinsRecord>> = vec![Vec::new(); n];
    let mut stats = BuildStats::default();
    for h in 0..k as u32 {
        let ranks: Vec<f64> = (0..n as u64).map(|v| hasher.perm_rank(v, h)).collect();
        let (arena, s) = run_core(g, 1, &ranks, None, false)?;
        stats.relaxations += s.relaxations;
        stats.insertions += s.insertions;
        stats.heap_pushes += s.heap_pushes;
        stats.pruned_at_relax += s.pruned_at_relax;
        for (v, entries) in arena.into_per_node().into_iter().enumerate() {
            records[v].extend(entries.into_iter().map(|e| KMinsRecord {
                node: e.node,
                dist: e.dist,
                rank: e.rank,
                perm: h,
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

    #[test]
    fn matches_brute_force() {
        for seed in 0..4u64 {
            let g = generators::gnp_directed(50, 0.07, seed);
            let hasher = RankHasher::new(seed + 800);
            let fast = build(&g, 3, &hasher).unwrap();
            let slow = crate::reference::build_kmins(&g, 3, &hasher);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn weighted_graphs_supported() {
        let g = generators::random_weighted_digraph(40, 3, 0.25, 2.25, 5);
        let hasher = RankHasher::new(900);
        let fast = build(&g, 2, &hasher).unwrap();
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
            let sets = build(&g, 8, &hasher).unwrap();
            err.push(sets[0].hip_weights().reachable_estimate());
        }
        assert!(
            err.relative_bias().abs() < 0.15,
            "bias {}",
            err.relative_bias()
        );
    }
}
