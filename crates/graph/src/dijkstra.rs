//! Dijkstra's single-source shortest paths.
//!
//! [`dijkstra_distances`] and [`dijkstra_order_canonical`] give exact
//! distances (through plain BFS when the graph stores no weights). The
//! pruned Dijkstra loop is [`crate::Search`]'s on weighted graphs: it
//! calls the visitor once per settled node and offers every tentative
//! candidate to [`FrontierVisitor::admit`] before it pays a heap push. The
//! frontier is a flat 4-ary heap over monotone-packed keys (the private
//! `heap::FlatHeap`), popping in the canonical `(distance, node id)` order.

use crate::csr::{Graph, NodeId};
use crate::heap::FlatHeap;
use crate::search::{FrontierVisitor, Visit};

/// Reusable state of the pruned Dijkstra.
///
/// Algorithms that run one search per node (PrunedDijkstra, brute-force
/// sketch builders) would otherwise pay an `O(n)` allocation + memset per
/// source; the scratch amortizes that to a single allocation with
/// epoch-stamped visited/settled marks, so starting a new search is `O(1)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct DijkstraScratch {
    dist: Vec<f64>,
    seen: Vec<u32>,
    done: Vec<u32>,
    epoch: u32,
    heap: FlatHeap,
}

impl DijkstraScratch {
    fn prepare(&mut self, n: usize) {
        if self.seen.len() < n {
            self.dist.resize(n, 0.0);
            self.seen.resize(n, 0);
            self.done.resize(n, 0);
        }
        self.heap.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wraparound (once per 2^32 searches): reset and restart.
            self.seen.fill(0);
            self.done.fill(0);
            self.epoch = 1;
        }
    }
}

/// The pruned Dijkstra behind [`crate::Search`] on weighted graphs: calls
/// `vis.visit(node, dist)` exactly once per settled node, in
/// non-decreasing distance order with ties popped in ascending id, and
/// offers every tentative frontier candidate to
/// [`FrontierVisitor::admit`] first; only admitted candidates pay a heap
/// push. Weights are non-negative (guaranteed by [`Graph`] construction).
///
/// When a node's tentative distance improves, `admit` is consulted again
/// with the shorter distance (an earlier rejection never hides a shorter
/// path found later).
pub(crate) fn dijkstra_visit_filtered_scratch<V: FrontierVisitor>(
    g: &Graph,
    src: NodeId,
    scratch: &mut DijkstraScratch,
    vis: &mut V,
) {
    let n = g.num_nodes();
    debug_assert!((src as usize) < n);
    scratch.prepare(n);
    let e = scratch.epoch;
    scratch.dist[src as usize] = 0.0;
    scratch.seen[src as usize] = e;
    scratch.heap.push(0.0, src);
    while let Some((d, v)) = scratch.heap.pop() {
        if scratch.done[v as usize] == e {
            continue;
        }
        scratch.done[v as usize] = e;
        match vis.visit(v, d) {
            Visit::Stop => return,
            Visit::Prune => continue,
            Visit::Continue => {}
        }
        for (u, w) in g.arcs(v) {
            let nd = d + w;
            if scratch.seen[u as usize] != e || nd < scratch.dist[u as usize] {
                // Record the improved tentative distance even when the
                // candidate is rejected below: the rejection only tightens
                // with distance, so an equal-or-longer rediscovery can be
                // cut by the cheap `dist` compare alone.
                scratch.seen[u as usize] = e;
                scratch.dist[u as usize] = nd;
                if vis.admit(u, nd) {
                    scratch.heap.push(nd, u);
                }
            }
        }
    }
}

/// Shortest-path distances from `src`; `f64::INFINITY` marks unreachable
/// nodes. Uses BFS when the graph stores no weights.
pub fn dijkstra_distances(g: &Graph, src: NodeId) -> Vec<f64> {
    if !g.is_weighted() {
        return crate::bfs::bfs_distances(g, src)
            .into_iter()
            .map(|d| {
                if d == crate::bfs::UNREACHABLE {
                    f64::INFINITY
                } else {
                    d as f64
                }
            })
            .collect();
    }
    let mut out = Distances(vec![f64::INFINITY; g.num_nodes()]);
    dijkstra_visit_filtered_scratch(g, src, &mut DijkstraScratch::default(), &mut out);
    out.0
}

/// The unpruned search of [`dijkstra_distances`]: admits every candidate
/// and records every settled distance.
struct Distances(Vec<f64>);

impl FrontierVisitor for Distances {
    fn admit(&mut self, _node: NodeId, _dist: f64) -> bool {
        true
    }
    fn visit(&mut self, node: NodeId, dist: f64) -> Visit {
        self.0[node as usize] = dist;
        Visit::Continue
    }
}

/// Reachable nodes from `src` sorted by the canonical `(distance, id)`
/// order, paired with their distance.
pub fn dijkstra_order_canonical(g: &Graph, src: NodeId) -> Vec<(NodeId, f64)> {
    let dist = dijkstra_distances(g, src);
    let mut order: Vec<(NodeId, f64)> = dist
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_finite())
        .map(|(v, &d)| (v as NodeId, d))
        .collect();
    order.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::tests::Settle;

    fn weighted_diamond() -> Graph {
        // 0→1 (1), 0→2 (4), 1→2 (2), 1→3 (6), 2→3 (3)
        Graph::directed_weighted(
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 4.0),
                (1, 2, 2.0),
                (1, 3, 6.0),
                (2, 3, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shortest_distances() {
        let d = dijkstra_distances(&weighted_diamond(), 0);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Graph::directed_weighted(3, &[(0, 1, 1.0)]).unwrap();
        let d = dijkstra_distances(&g, 0);
        assert_eq!(d[1], 1.0);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn visitor_sees_nondecreasing_distances() {
        let mut last = -1.0;
        let mut vis = Settle(|_, d| {
            assert!(d >= last);
            last = d;
            Visit::Continue
        });
        dijkstra_visit_filtered_scratch(
            &weighted_diamond(),
            0,
            &mut DijkstraScratch::default(),
            &mut vis,
        );
        assert_eq!(last, 6.0);
    }

    #[test]
    fn visitor_called_once_per_node() {
        let mut seen = vec![0usize; 4];
        let mut vis = Settle(|v, _| {
            seen[v as usize] += 1;
            Visit::Continue
        });
        dijkstra_visit_filtered_scratch(
            &weighted_diamond(),
            0,
            &mut DijkstraScratch::default(),
            &mut vis,
        );
        assert_eq!(seen, vec![1, 1, 1, 1]);
    }

    #[test]
    fn prune_cuts_subtree() {
        // Path 0→1→2; pruning at 1 must keep 2 unvisited.
        let g = Graph::directed_weighted(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mut visited = Vec::new();
        let mut vis = Settle(|v, _| {
            visited.push(v);
            if v == 1 {
                Visit::Prune
            } else {
                Visit::Continue
            }
        });
        dijkstra_visit_filtered_scratch(&g, 0, &mut DijkstraScratch::default(), &mut vis);
        assert_eq!(visited, vec![0, 1]);
    }

    #[test]
    fn prune_does_not_stop_other_branches() {
        // 0→1 (1), 0→2 (2): pruning at 1 must still reach 2.
        let g = Graph::directed_weighted(3, &[(0, 1, 1.0), (0, 2, 2.0)]).unwrap();
        let mut visited = Vec::new();
        let mut vis = Settle(|v, _| {
            visited.push(v);
            if v == 1 {
                Visit::Prune
            } else {
                Visit::Continue
            }
        });
        dijkstra_visit_filtered_scratch(&g, 0, &mut DijkstraScratch::default(), &mut vis);
        assert_eq!(visited, vec![0, 1, 2]);
    }

    #[test]
    fn stop_aborts() {
        let mut count = 0;
        let mut vis = Settle(|_, _| {
            count += 1;
            Visit::Stop
        });
        dijkstra_visit_filtered_scratch(
            &weighted_diamond(),
            0,
            &mut DijkstraScratch::default(),
            &mut vis,
        );
        assert_eq!(count, 1);
    }

    #[test]
    fn unweighted_falls_back_to_bfs() {
        let g = Graph::directed(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(dijkstra_distances(&g, 0), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn canonical_order_ties_by_id() {
        // Two equal-length routes: nodes 1 and 2 both at distance 1.
        let g = Graph::directed_weighted(3, &[(0, 2, 1.0), (0, 1, 1.0)]).unwrap();
        let order = dijkstra_order_canonical(&g, 0);
        assert_eq!(order, vec![(0, 0.0), (1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // The same scratch across many sources (and a Stop mid-search that
        // leaves the heap dirty) must not leak state between searches.
        let g = weighted_diamond();
        let mut scratch = DijkstraScratch::default();
        dijkstra_visit_filtered_scratch(&g, 0, &mut scratch, &mut Settle(|_, _| Visit::Stop));
        for src in 0..4u32 {
            let mut fresh = Vec::new();
            let mut vis = Settle(|v, d| {
                fresh.push((v, d));
                Visit::Continue
            });
            dijkstra_visit_filtered_scratch(&g, src, &mut DijkstraScratch::default(), &mut vis);
            let mut reused = Vec::new();
            let mut vis = Settle(|v, d| {
                reused.push((v, d));
                Visit::Continue
            });
            dijkstra_visit_filtered_scratch(&g, src, &mut scratch, &mut vis);
            assert_eq!(fresh, reused, "src {src}");
        }
    }

    /// Threshold filter used by the frontier tests: admits only candidates
    /// at distance ≤ the per-node cap, logging every decision.
    struct CapFilter<'a> {
        cap: &'a [f64],
        admitted: Vec<(NodeId, f64)>,
        rejected: Vec<(NodeId, f64)>,
        visited: Vec<(NodeId, f64)>,
    }

    impl FrontierVisitor for CapFilter<'_> {
        fn admit(&mut self, node: NodeId, dist: f64) -> bool {
            if dist <= self.cap[node as usize] {
                self.admitted.push((node, dist));
                true
            } else {
                self.rejected.push((node, dist));
                false
            }
        }
        fn visit(&mut self, node: NodeId, dist: f64) -> Visit {
            self.visited.push((node, dist));
            // Monotone-safe counterpart of the filter: pruning exactly where
            // the filter would have rejected.
            if dist <= self.cap[node as usize] {
                Visit::Continue
            } else {
                Visit::Prune
            }
        }
    }

    #[test]
    fn filter_keeps_candidates_out_of_the_frontier() {
        // Path 0→1→2→3 with unit weights; cap cuts at distance 1: node 2
        // (distance 2) must never be pushed nor visited.
        let g = Graph::directed_weighted(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let cap = vec![f64::INFINITY, 1.0, 1.0, 1.0];
        let mut f = CapFilter {
            cap: &cap,
            admitted: Vec::new(),
            rejected: Vec::new(),
            visited: Vec::new(),
        };
        dijkstra_visit_filtered_scratch(&g, 0, &mut DijkstraScratch::default(), &mut f);
        assert_eq!(f.visited, vec![(0, 0.0), (1, 1.0)]);
        assert_eq!(f.admitted, vec![(1, 1.0)]);
        assert_eq!(f.rejected, vec![(2, 2.0)]);
    }

    #[test]
    fn filter_is_reconsulted_on_distance_improvement() {
        // 0→1 (5) is rejected by node 1's cap of 2, but the longer route
        // 0→2→1 improves the tentative distance to 2 and must be admitted.
        let g = Graph::directed_weighted(3, &[(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let cap = vec![f64::INFINITY, 2.0, f64::INFINITY];
        let mut f = CapFilter {
            cap: &cap,
            admitted: Vec::new(),
            rejected: Vec::new(),
            visited: Vec::new(),
        };
        dijkstra_visit_filtered_scratch(&g, 0, &mut DijkstraScratch::default(), &mut f);
        assert_eq!(f.rejected, vec![(1, 5.0)]);
        assert_eq!(f.admitted, vec![(2, 1.0), (1, 2.0)]);
        assert_eq!(f.visited, vec![(0, 0.0), (2, 1.0), (1, 2.0)]);
    }

    #[test]
    fn filtered_settles_match_unfiltered_accepts() {
        // Against a monotone threshold filter, the filtered search must
        // settle exactly the nodes the unfiltered search settles with a
        // non-Prune verdict, in the same order with the same distances.
        use adsketch_util::rng::{Rng64, SplitMix64};
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(seed * 77 + 1);
            let n = 50usize;
            let mut arcs = Vec::new();
            for u in 0..n as NodeId {
                for _ in 0..3 {
                    let v = rng.range_usize(n) as NodeId;
                    arcs.push((u, v, rng.unit_f64() * 4.0));
                }
            }
            let g = Graph::directed_weighted(n, &arcs).unwrap();
            let cap: Vec<f64> = (0..n).map(|_| rng.unit_f64() * 6.0).collect();
            let mut unfiltered = Vec::new();
            let mut vis = Settle(|v, d| {
                if d <= cap[v as usize] {
                    unfiltered.push((v, d));
                    Visit::Continue
                } else {
                    Visit::Prune
                }
            });
            dijkstra_visit_filtered_scratch(&g, 0, &mut DijkstraScratch::default(), &mut vis);
            let mut f = CapFilter {
                cap: &cap,
                admitted: Vec::new(),
                rejected: Vec::new(),
                visited: Vec::new(),
            };
            dijkstra_visit_filtered_scratch(&g, 0, &mut DijkstraScratch::default(), &mut f);
            // The source settles unconditionally in the filtered run; all
            // other settles must be exactly the unfiltered accepts.
            let accepted: Vec<(NodeId, f64)> = f
                .visited
                .iter()
                .copied()
                .filter(|&(v, d)| d <= cap[v as usize])
                .collect();
            assert_eq!(accepted, unfiltered, "seed {seed}");
        }
    }

    #[test]
    fn matches_bellman_ford_on_random_graph() {
        use adsketch_util::rng::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(42);
        let n = 60usize;
        let mut arcs = Vec::new();
        for u in 0..n as NodeId {
            for _ in 0..4 {
                let v = rng.range_usize(n) as NodeId;
                let w = rng.unit_f64() * 10.0;
                arcs.push((u, v, w));
            }
        }
        let g = Graph::directed_weighted(n, &arcs).unwrap();
        let d = dijkstra_distances(&g, 0);
        // Bellman–Ford reference.
        let mut bf = vec![f64::INFINITY; n];
        bf[0] = 0.0;
        for _ in 0..n {
            let mut changed = false;
            for &(u, v, w) in &arcs {
                if bf[u as usize] + w < bf[v as usize] - 1e-15 {
                    bf[v as usize] = bf[u as usize] + w;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for v in 0..n {
            if bf[v].is_finite() {
                assert!(
                    (d[v] - bf[v]).abs() < 1e-9,
                    "node {v}: {} vs {}",
                    d[v],
                    bf[v]
                );
            } else {
                assert!(d[v].is_infinite());
            }
        }
    }
}
