//! Breadth-first search for unweighted (hop-count) distances.
//!
//! [`bfs_distances`] and [`reachable_count`] are plain BFS. The pruned
//! level-synchronous BFS is [`crate::Search`]'s loop on graphs without
//! stored weights: on them it settles the same nodes at the same
//! distances in the same order as the heap Dijkstra, without the heap.

use std::collections::VecDeque;

use crate::csr::{Graph, NodeId};
use crate::search::{FrontierVisitor, Visit};

/// Sentinel for "unreachable" in [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// Hop distances from `src` to every node; [`UNREACHABLE`] if no path.
///
/// Edge weights, if present, are ignored — use
/// [`crate::dijkstra::dijkstra_distances`] for weighted distances.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &u in g.neighbors(v) {
            if dist[u as usize] == UNREACHABLE {
                dist[u as usize] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Reusable state of the pruned BFS; see [`crate::dijkstra::DijkstraScratch`]
/// for why amortizing the per-source `O(n)` initialization matters.
#[derive(Debug, Clone, Default)]
pub(crate) struct BfsScratch {
    seen: Vec<u32>,
    epoch: u32,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl BfsScratch {
    fn prepare(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        self.frontier.clear();
        self.next.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
    }
}

/// The pruned level-synchronous BFS behind [`crate::Search`] on graphs
/// without stored weights: calls `vis.visit(node, depth)` exactly once
/// per reached node, levels in increasing depth and each level in
/// ascending node id, and offers every newly discovered node to
/// [`FrontierVisitor::admit`] (its depth widened to `f64`, the unit-weight
/// distance Dijkstra would produce) before it enters the next level.
///
/// [`Visit::Prune`] skips relaxing the node's out-arcs (nodes reachable
/// only through pruned nodes are discovered later via longer surviving
/// paths, or never), [`Visit::Stop`] aborts the search. On a unit-weight
/// graph the trace is *identical* to
/// [`crate::dijkstra::dijkstra_visit_filtered_scratch`]'s under the same
/// verdicts: that search settles each hop level in ascending id too, and
/// the monotone-filter contract on the trait lets a rejected node be
/// marked seen and never reconsidered, since BFS discovers each node at
/// its minimal depth. Edge weights, if present, are ignored.
pub(crate) fn bfs_visit_filtered_scratch<V: FrontierVisitor>(
    g: &Graph,
    src: NodeId,
    scratch: &mut BfsScratch,
    vis: &mut V,
) {
    debug_assert!((src as usize) < g.num_nodes());
    scratch.prepare(g.num_nodes());
    let e = scratch.epoch;
    scratch.seen[src as usize] = e;
    scratch.frontier.push(src);
    let mut depth = 0u32;
    while !scratch.frontier.is_empty() {
        // Canonical within-level order: ascending id, matching how the
        // Dijkstra heap pops distance ties.
        scratch.frontier.sort_unstable();
        let next_depth = (depth + 1) as f64;
        for i in 0..scratch.frontier.len() {
            let v = scratch.frontier[i];
            match vis.visit(v, depth as f64) {
                Visit::Stop => return,
                Visit::Prune => continue,
                Visit::Continue => {}
            }
            for &u in g.neighbors(v) {
                if scratch.seen[u as usize] != e {
                    scratch.seen[u as usize] = e;
                    if vis.admit(u, next_depth) {
                        scratch.next.push(u);
                    }
                }
            }
        }
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        scratch.next.clear();
        depth += 1;
    }
}

/// Number of nodes reachable from `src` (including `src`).
pub fn reachable_count(g: &Graph, src: NodeId) -> usize {
    bfs_distances(g, src)
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::Settle;

    fn path5() -> Graph {
        Graph::directed(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn distances_on_path() {
        let d = bfs_distances(&path5(), 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unreachable_marked() {
        let d = bfs_distances(&path5(), 2);
        assert_eq!(d[0], UNREACHABLE);
        assert_eq!(d[1], UNREACHABLE);
        assert_eq!(&d[2..], &[0, 1, 2]);
    }

    #[test]
    fn reachable_counts() {
        assert_eq!(reachable_count(&path5(), 0), 5);
        assert_eq!(reachable_count(&path5(), 3), 2);
    }

    #[test]
    fn bfs_ignores_weights() {
        let g = Graph::directed_weighted(3, &[(0, 1, 100.0), (1, 2, 100.0)]).unwrap();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2]);
    }

    #[test]
    fn cycle_distances() {
        let g = Graph::directed(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(bfs_distances(&g, 1), vec![3, 0, 1, 2]);
    }

    #[test]
    fn visit_prune_cuts_subtree_but_not_siblings() {
        // Path 0→1→2 plus branch 0→3: pruning at 1 keeps 2 unvisited but
        // still reaches 3 (mirrors the Dijkstra loop's prune tests).
        let g = Graph::directed(4, &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let mut visited = Vec::new();
        let mut vis = Settle(|v, d: f64| {
            visited.push((v, d as u32));
            if v == 1 {
                Visit::Prune
            } else {
                Visit::Continue
            }
        });
        bfs_visit_filtered_scratch(&g, 0, &mut BfsScratch::default(), &mut vis);
        assert_eq!(visited, vec![(0, 0), (1, 1), (3, 1)]);
    }

    #[test]
    fn visit_stop_aborts() {
        let g = path5();
        let mut count = 0;
        let mut vis = Settle(|_, _| {
            count += 1;
            Visit::Stop
        });
        bfs_visit_filtered_scratch(&g, 0, &mut BfsScratch::default(), &mut vis);
        assert_eq!(count, 1);
    }

    #[test]
    fn visit_reaches_pruned_shadow_via_longer_path() {
        // 0→1→3 and 0→2→…→3 where 1 is pruned: 3 must still be visited,
        // at the depth of the surviving (longer) path — exactly what the
        // pruned Dijkstra does.
        let g = Graph::directed(5, &[(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)]).unwrap();
        let mut visited = Vec::new();
        let mut vis = Settle(|v, d: f64| {
            visited.push((v, d as u32));
            if v == 1 {
                Visit::Prune
            } else {
                Visit::Continue
            }
        });
        bfs_visit_filtered_scratch(&g, 0, &mut BfsScratch::default(), &mut vis);
        assert_eq!(visited, vec![(0, 0), (1, 1), (2, 1), (4, 2), (3, 3)]);
    }

    #[test]
    fn visit_sequence_matches_pruned_dijkstra() {
        // On unit-weight graphs the two searches must produce identical
        // (node, distance) visit sequences under identical prune verdicts —
        // the guarantee the sketch builders' BFS fast path relies on.
        use crate::dijkstra::{dijkstra_visit_filtered_scratch, DijkstraScratch};
        use crate::generators;
        for seed in 0..6u64 {
            let g = generators::gnp_directed(80, 0.05, seed);
            for src in [0u32, 7, 41] {
                // Prune every third visited node — arbitrary but identical
                // for both searches since verdicts depend on (v, count).
                let mut d_seq = Vec::new();
                let mut i = 0usize;
                let mut vis = Settle(|v, d| {
                    d_seq.push((v, d));
                    i += 1;
                    if i.is_multiple_of(3) {
                        Visit::Prune
                    } else {
                        Visit::Continue
                    }
                });
                dijkstra_visit_filtered_scratch(&g, src, &mut DijkstraScratch::default(), &mut vis);
                let mut b_seq = Vec::new();
                let mut j = 0usize;
                let mut vis = Settle(|v, d| {
                    b_seq.push((v, d));
                    j += 1;
                    if j.is_multiple_of(3) {
                        Visit::Prune
                    } else {
                        Visit::Continue
                    }
                });
                bfs_visit_filtered_scratch(&g, src, &mut BfsScratch::default(), &mut vis);
                assert_eq!(d_seq, b_seq, "seed {seed}, src {src}");
            }
        }
    }

    #[test]
    fn filtered_visit_matches_filtered_dijkstra() {
        // With identical monotone threshold filters, the filtered BFS and
        // the filtered Dijkstra must produce identical admit/visit traces
        // on unit-weight graphs — the guarantee the relax-pruned builder's
        // fast path relies on.
        use crate::dijkstra::{dijkstra_visit_filtered_scratch, DijkstraScratch};
        use crate::generators;
        use adsketch_util::rng::{Rng64, SplitMix64};

        struct Trace<'a> {
            cap: &'a [f64],
            log: Vec<(char, NodeId, f64)>,
        }
        impl FrontierVisitor for Trace<'_> {
            fn admit(&mut self, v: NodeId, d: f64) -> bool {
                let ok = d <= self.cap[v as usize];
                self.log.push((if ok { 'a' } else { 'r' }, v, d));
                ok
            }
            fn visit(&mut self, v: NodeId, d: f64) -> Visit {
                self.log.push(('v', v, d));
                if d <= self.cap[v as usize] {
                    Visit::Continue
                } else {
                    Visit::Prune
                }
            }
        }

        for seed in 0..5u64 {
            let g = generators::gnp_directed(70, 0.06, seed);
            let mut rng = SplitMix64::new(seed + 40);
            let cap: Vec<f64> = (0..70).map(|_| (rng.range_usize(4)) as f64).collect();
            for src in [0u32, 13, 55] {
                let mut bt = Trace {
                    cap: &cap,
                    log: Vec::new(),
                };
                bfs_visit_filtered_scratch(&g, src, &mut BfsScratch::default(), &mut bt);
                let mut dt = Trace {
                    cap: &cap,
                    log: Vec::new(),
                };
                dijkstra_visit_filtered_scratch(&g, src, &mut DijkstraScratch::default(), &mut dt);
                assert_eq!(bt.log, dt.log, "seed {seed}, src {src}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_sources() {
        let g = path5();
        let mut scratch = BfsScratch::default();
        bfs_visit_filtered_scratch(&g, 0, &mut scratch, &mut Settle(|_, _| Visit::Stop));
        for src in 0..5u32 {
            let mut fresh = Vec::new();
            let mut vis = Settle(|v, d| {
                fresh.push((v, d));
                Visit::Continue
            });
            bfs_visit_filtered_scratch(&g, src, &mut BfsScratch::default(), &mut vis);
            let mut reused = Vec::new();
            let mut vis = Settle(|v, d| {
                reused.push((v, d));
                Visit::Continue
            });
            bfs_visit_filtered_scratch(&g, src, &mut scratch, &mut vis);
            assert_eq!(fresh, reused, "src {src}");
        }
    }
}
