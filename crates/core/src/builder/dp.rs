//! Dynamic-programming ADS construction for unweighted graphs
//! (paper, Section 3; the ANF/HyperANF computation pattern).
//!
//! Iteration `d` relaxes exactly the edges whose source sketch changed in
//! iteration `d−1`, so entries are inserted in increasing distance and are
//! never retracted. Within an iteration, candidates are applied in
//! ascending node id, matching the canonical `(dist, id)` order. So DP is
//! the retraction-free case of the `LiveSketch` kernel LocalUpdates runs
//! on: every admitted candidate lands at the end of its sketch.

use adsketch_graph::{Graph, NodeId};

use crate::ads_set::AdsSet;
use crate::builder::{validate_ranks, BuildStats, LiveSketch};
use crate::error::CoreError;

/// Builds the forward bottom-k ADS set of an unweighted graph, with work
/// counters (`rounds` = eccentricity bound actually reached). `k` must
/// lie in `1..=65535`.
pub fn build_with_stats(
    g: &Graph,
    k: usize,
    ranks: &[f64],
) -> Result<(AdsSet, BuildStats), CoreError> {
    if g.is_weighted() {
        return Err(CoreError::RequiresUnweighted);
    }
    let n = g.num_nodes();
    validate_ranks(ranks, n)?;
    if !(1..=LiveSketch::MAX_K).contains(&k) {
        return Err(CoreError::InvalidK { k });
    }
    let gt = g.transpose();
    let mut sketches = vec![LiveSketch::default(); n];
    let mut stats = BuildStats::default();

    // Distance 0: every node samples itself.
    let mut frontier: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
    for v in 0..n as NodeId {
        sketches[v as usize].insert(k, v, 0.0, ranks[v as usize], 0.0);
        stats.insertions += 1;
        frontier[v as usize].push((v, ranks[v as usize]));
    }

    let mut dist = 0.0f64;
    loop {
        dist += 1.0;
        // Collect candidates: an entry inserted at u last round propagates
        // to u's out-neighbors in the transpose (= in-neighbors in g).
        let mut candidates: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        let mut any = false;
        for u in 0..n as NodeId {
            if frontier[u as usize].is_empty() {
                continue;
            }
            for &y in gt.neighbors(u) {
                stats.relaxations += frontier[u as usize].len() as u64;
                candidates[y as usize].extend_from_slice(&frontier[u as usize]);
                any = true;
            }
        }
        if !any {
            break;
        }
        stats.rounds += 1;
        // Apply candidates in ascending node id (canonical order within the
        // distance level), deduplicated.
        let mut new_frontier: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        let mut inserted_any = false;
        for v in 0..n {
            let cs = &mut candidates[v];
            if cs.is_empty() {
                continue;
            }
            cs.sort_unstable_by_key(|&(node, _)| node);
            cs.dedup_by_key(|&mut (node, _)| node);
            for &(node, rank) in cs.iter() {
                let (inserted, removed) = sketches[v].insert(k, node, dist, rank, 0.0);
                debug_assert_eq!(removed, 0, "DP never retracts");
                if inserted {
                    stats.insertions += 1;
                    new_frontier[v].push((node, rank));
                    inserted_any = true;
                }
            }
        }
        if !inserted_any {
            break;
        }
        frontier = new_frontier;
    }

    Ok((LiveSketch::store(k, &sketches, ranks), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_ranks;
    use adsketch_graph::generators;

    #[test]
    fn rejects_weighted_graphs() {
        let g = Graph::directed_weighted(2, &[(0, 1, 2.0)]).unwrap();
        assert_eq!(
            build_with_stats(&g, 2, &[0.1, 0.2]).unwrap_err(),
            CoreError::RequiresUnweighted
        );
    }

    #[test]
    fn accepts_all_unit_weights_and_matches_pruned_dijkstra() {
        // All-1.0 weights build the unweighted graph; one 0.5 arc keeps
        // the weights and is refused.
        let g = generators::gnp_directed(80, 0.05, 3);
        let mut arcs: Vec<(NodeId, NodeId, f64)> = g.all_arcs().collect();
        let ones = Graph::directed_weighted(80, &arcs).unwrap();
        assert!(!ones.is_weighted());
        let ranks = uniform_ranks(80, 403);
        let dp = build_with_stats(&ones, 3, &ranks).unwrap().0;
        let pd = crate::builder::pruned_dijkstra::build_with_stats(&ones, 3, &ranks)
            .unwrap()
            .0;
        assert_eq!(dp, pd);
        assert_eq!(dp, build_with_stats(&g, 3, &ranks).unwrap().0);
        arcs[0].2 = 0.5;
        let half = Graph::directed_weighted(80, &arcs).unwrap();
        assert_eq!(
            build_with_stats(&half, 3, &ranks).unwrap_err(),
            CoreError::RequiresUnweighted
        );
    }

    #[test]
    fn matches_pruned_dijkstra_on_random_digraphs() {
        for seed in 0..6u64 {
            let g = generators::gnp_directed(80, 0.05, seed);
            let ranks = uniform_ranks(80, seed + 400);
            let dp = build_with_stats(&g, 3, &ranks).unwrap().0;
            let pd = crate::builder::pruned_dijkstra::build_with_stats(&g, 3, &ranks)
                .unwrap()
                .0;
            assert_eq!(dp, pd, "seed {seed}");
        }
    }

    #[test]
    fn matches_brute_force_on_undirected() {
        for seed in 0..4u64 {
            let g = generators::gnp(60, 0.07, seed + 17);
            let ranks = uniform_ranks(60, seed + 500);
            let dp = build_with_stats(&g, 2, &ranks).unwrap().0;
            let brute = crate::reference::build_bottomk(&g, 2, &ranks);
            assert_eq!(dp, brute, "seed {seed}");
        }
    }

    #[test]
    fn rounds_bounded_by_diameter() {
        let g = Graph::undirected(20, &generators::path_edges(20)).unwrap();
        let ranks = uniform_ranks(20, 3);
        let (_, stats) = build_with_stats(&g, 2, &ranks).unwrap();
        assert!(
            stats.rounds <= 19,
            "rounds {} must be at most the diameter",
            stats.rounds
        );
    }

    #[test]
    fn star_graph_with_ties() {
        let g = Graph::undirected(30, &generators::star_edges(30)).unwrap();
        let ranks = uniform_ranks(30, 9);
        let dp = build_with_stats(&g, 3, &ranks).unwrap().0;
        let brute = crate::reference::build_bottomk(&g, 3, &ranks);
        assert_eq!(dp, brute);
    }

    #[test]
    fn rejects_k_outside_the_live_sketch_range() {
        let g = generators::gnp(5, 0.5, 1);
        let ranks = uniform_ranks(5, 1);
        for k in [0, 65536] {
            assert_eq!(
                build_with_stats(&g, k, &ranks).map(|(s, _)| s),
                Err(CoreError::InvalidK { k })
            );
        }
    }

    /// The counters are the algorithm's, not the sketch layout's: these
    /// are the values DP reported on the array-of-entries sketch it ran on
    /// before moving onto `LiveSketch`.
    #[test]
    fn dp_stats_are_pinned_on_fixed_graphs() {
        let cases = [
            (generators::barabasi_albert(400, 3, 31), (55638, 9353, 6)),
            (generators::gnp_directed(300, 0.02, 32), (18068, 5875, 10)),
        ];
        for (g, pinned) in cases {
            let ranks = uniform_ranks(g.num_nodes(), 33);
            let (set, s) = build_with_stats(&g, 4, &ranks).unwrap();
            assert_eq!(set, crate::reference::build_bottomk(&g, 4, &ranks));
            assert_eq!((s.relaxations, s.insertions, s.rounds), pinned);
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = Graph::directed(0, &[]).unwrap();
        let set = build_with_stats(&g, 2, &[]).unwrap().0;
        assert_eq!(set.num_nodes(), 0);

        let g1 = Graph::directed(1, &[]).unwrap();
        let set1 = build_with_stats(&g1, 2, &[0.4]).unwrap().0;
        assert_eq!(set1.row(0).len(), 1);
    }
}
