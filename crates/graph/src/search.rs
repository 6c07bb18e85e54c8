//! The pruned single-source search of PrunedDijkstra (paper, Algorithm 1).
//!
//! [`Search`] is the one public entry point: it runs one source's search
//! through a [`FrontierVisitor`], whose `admit` hook filters candidates
//! before they enter the frontier and whose `visit` hook is called once
//! per settled node. On a graph without stored weights
//! ([`Graph::is_weighted`] is false, so every arc costs 1) the search is a
//! level-synchronous BFS; on any other graph it is Dijkstra over a flat
//! 4-ary heap. Both settle nodes in the canonical `(distance, id)` order,
//! so on a unit-weight graph they produce the same trace and the BFS only
//! saves the heap.

use crate::bfs::{bfs_visit_filtered_scratch, BfsScratch};
use crate::csr::{Graph, NodeId};
use crate::dijkstra::{dijkstra_visit_filtered_scratch, DijkstraScratch};

/// Visitor verdict for a settled node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Relax the node's out-arcs and continue.
    Continue,
    /// Do not relax out of this node (PrunedDijkstra's prune), but keep
    /// processing the rest of the frontier.
    Prune,
    /// Abort the whole search.
    Stop,
}

/// Combined relax-time filter and settle-time visitor of a [`Search`].
///
/// `admit` is consulted *before* a tentative candidate enters the frontier
/// (a heap push, or a next-level enqueue in the BFS); returning `false`
/// suppresses the push entirely. `visit` is the classic settle hook, called
/// once per node that reached the frontier and was popped.
///
/// # Output-equivalence contract
///
/// A filtered search produces the same settle sequence as the unfiltered
/// one *minus* nodes that would only ever have been visited to return
/// [`Visit::Prune`], provided the filter is **monotone-safe**: if
/// `admit(v, d)` returns `false`, then `visit(v, d')` would return
/// [`Visit::Prune`] for every `d' ≥ d` — and the filter keeps rejecting
/// `(v, d'' ≥ d)` for the rest of the search. Threshold-style filters
/// whose thresholds only tighten over time satisfy this by construction.
/// (On distance improvement the search re-consults `admit` with the
/// smaller tentative distance, so rejecting a longer path never hides a
/// shorter one.)
pub trait FrontierVisitor {
    /// Relax-time admission test for a tentative frontier candidate.
    fn admit(&mut self, node: NodeId, dist: f64) -> bool;
    /// Settle-time visit, in non-decreasing distance order (ties in
    /// ascending id); the verdict steers the search.
    fn visit(&mut self, node: NodeId, dist: f64) -> Visit;
}

/// Reusable state of the pruned search, for loops that run one search per
/// source over the same graph: starting a search is `O(1)`, not an
/// `O(n)` reset.
#[derive(Debug, Clone)]
pub struct Search(Frontier);

#[derive(Debug, Clone)]
enum Frontier {
    Bfs(BfsScratch),
    Heap(DijkstraScratch),
}

impl Search {
    /// The search for `g`: BFS iff `g` stores no weights, else Dijkstra.
    pub fn for_graph(g: &Graph) -> Self {
        Self(if g.is_weighted() {
            Frontier::Heap(DijkstraScratch::default())
        } else {
            Frontier::Bfs(BfsScratch::default())
        })
    }

    /// Runs the search from `src` over `g` (the graph this search was
    /// made for). The source seeds the frontier without an `admit` call;
    /// BFS depths reach the visitor as `f64`, the same values Dijkstra
    /// would sum.
    pub fn run<V: FrontierVisitor>(&mut self, g: &Graph, src: NodeId, vis: &mut V) {
        match &mut self.0 {
            Frontier::Bfs(s) => {
                debug_assert!(!g.is_weighted(), "BFS over a weighted graph");
                bfs_visit_filtered_scratch(g, src, s, vis)
            }
            Frontier::Heap(s) => dijkstra_visit_filtered_scratch(g, src, s, vis),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A settle closure as a visitor that admits every candidate: the
    /// unfiltered search the loops' tests drive.
    pub(crate) struct Settle<F>(pub F);

    impl<F: FnMut(NodeId, f64) -> Visit> FrontierVisitor for Settle<F> {
        fn admit(&mut self, _node: NodeId, _dist: f64) -> bool {
            true
        }
        fn visit(&mut self, node: NodeId, dist: f64) -> Visit {
            (self.0)(node, dist)
        }
    }

    fn trace(g: &Graph, src: NodeId) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        Search::for_graph(g).run(
            g,
            src,
            &mut Settle(|v, d| {
                out.push((v, d));
                Visit::Continue
            }),
        );
        out
    }

    #[test]
    fn picks_bfs_exactly_when_no_weights_are_stored() {
        let unit = Graph::directed_weighted(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert!(matches!(Search::for_graph(&unit).0, Frontier::Bfs(_)));
        for w in [0.0, 0.5] {
            let g = Graph::directed_weighted(3, &[(0, 1, 1.0), (1, 2, w)]).unwrap();
            assert!(matches!(Search::for_graph(&g).0, Frontier::Heap(_)));
            assert_eq!(trace(&g, 0), vec![(0, 0.0), (1, 1.0), (2, 1.0 + w)]);
        }
        assert_eq!(trace(&unit, 0), vec![(0, 0.0), (1, 1.0), (2, 2.0)]);
    }
}
