//! Compressed-sparse-row graph representation.
//!
//! Nodes are dense `u32` ids `0..n`. Arcs are stored in CSR form: a single
//! offsets array plus a targets array, and a parallel weights array only
//! when some arc weighs something other than `1.0`. Undirected graphs are
//! stored as symmetric arc pairs, so all traversal code handles one
//! representation.

use crate::error::GraphError;

/// Node identifier: dense `0..n`.
pub type NodeId = u32;

/// A finite directed graph in CSR form, optionally edge-weighted.
///
/// # Examples
///
/// ```
/// use adsketch_graph::Graph;
///
/// // A directed triangle 0→1→2→0.
/// let g = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_arcs(), 3);
/// assert_eq!(g.neighbors(0), &[1]);
/// assert!(!g.is_weighted());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    /// `None` iff every arc costs exactly 1, however the graph was built.
    weights: Option<Vec<f64>>,
}

impl Graph {
    /// Builds a directed, unweighted graph from arcs `(u, v)`.
    pub fn directed(n: usize, arcs: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        Self::build(n, arcs.iter().map(|&(u, v)| (u, v, 1.0)))
    }

    /// Builds a directed, weighted graph from arcs `(u, v, w)`; weights must
    /// be finite and non-negative. If every weight is `1.0` the graph is
    /// the unweighted one ([`Graph::is_weighted`] is false).
    pub fn directed_weighted(n: usize, arcs: &[(NodeId, NodeId, f64)]) -> Result<Self, GraphError> {
        Self::build(n, arcs.iter().copied())
    }

    /// Builds an undirected, unweighted graph: each edge `(u, v)` becomes
    /// the arc pair `u→v, v→u` (self-loops become a single arc).
    pub fn undirected(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let arcs = symmetrize(edges.iter().map(|&(u, v)| (u, v, 1.0)));
        Self::build(n, arcs.into_iter())
    }

    /// Builds an undirected, weighted graph (symmetric arc weights).
    pub fn undirected_weighted(
        n: usize,
        edges: &[(NodeId, NodeId, f64)],
    ) -> Result<Self, GraphError> {
        let arcs = symmetrize(edges.iter().copied());
        Self::build(n, arcs.into_iter())
    }

    fn build(
        n: usize,
        arcs: impl Iterator<Item = (NodeId, NodeId, f64)>,
    ) -> Result<Self, GraphError> {
        let mut triples: Vec<(NodeId, NodeId, f64)> = Vec::with_capacity(arcs.size_hint().0);
        for (u, v, w) in arcs {
            if u as usize >= n {
                return Err(GraphError::InvalidNode {
                    node: u as u64,
                    num_nodes: n,
                });
            }
            if v as usize >= n {
                return Err(GraphError::InvalidNode {
                    node: v as u64,
                    num_nodes: n,
                });
            }
            if !(w.is_finite() && w >= 0.0) {
                return Err(GraphError::InvalidWeight { weight: w });
            }
            // `-0.0` passes the check above; store it as `+0.0`, so every
            // stored weight's bit pattern orders like its value.
            let w = if w == 0.0 { 0.0 } else { w };
            triples.push((u, v, w));
        }
        // Canonical adjacency order: sort by (src, dst, weight). The weight
        // participates so parallel arcs with different weights land in a
        // deterministic order regardless of input order; `transpose` sorts
        // by the same key.
        triples.sort_unstable_by_key(|a| (a.0, a.1, a.2.to_bits()));
        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &triples {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = triples.iter().map(|t| t.1).collect();
        let weights = triples
            .iter()
            .any(|t| t.2 != 1.0)
            .then(|| triples.iter().map(|t| t.2).collect());
        Ok(Self {
            offsets,
            targets,
            weights,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (an undirected edge counts twice).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Whether per-arc weights are stored: true iff some arc weighs
    /// something other than `1.0`. Otherwise hop counts are shortest-path
    /// distances, and [`crate::Search`] runs a level-synchronous BFS
    /// instead of Dijkstra.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbors of `v` in ascending id order.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Out-arcs of `v` as `(target, weight)`; the weight is `1.0` for
    /// unweighted graphs.
    #[inline]
    pub fn arcs(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        let ws = self.weights.as_deref();
        self.targets[lo..hi]
            .iter()
            .enumerate()
            .map(move |(i, &t)| (t, ws.map_or(1.0, |w| w[lo + i])))
    }

    /// All arcs `(u, v, w)` of the graph in canonical order.
    pub fn all_arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| self.arcs(u).map(move |(v, w)| (u, v, w)))
    }

    /// The transpose graph (every arc reversed). Weights are preserved.
    ///
    /// Forward all-distances sketches of every node are computed by running
    /// searches on the transpose (paper, Algorithm 1).
    pub fn transpose(&self) -> Self {
        let n = self.num_nodes();
        let mut offsets = vec![0usize; n + 1];
        for &t in &self.targets {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; self.targets.len()];
        let mut weights = self.weights.as_ref().map(|_| vec![0.0; self.targets.len()]);
        for u in 0..n as NodeId {
            for (v, w) in self.arcs(u) {
                let slot = cursor[v as usize];
                cursor[v as usize] += 1;
                targets[slot] = u;
                if let Some(ws) = weights.as_mut() {
                    ws[slot] = w;
                }
            }
        }
        // Targets within each source may be unsorted after bucketing;
        // restore canonical order (stable w.r.t. weights).
        let mut g = Self {
            offsets,
            targets,
            weights,
        };
        g.sort_adjacency();
        g
    }

    fn sort_adjacency(&mut self) {
        let n = self.num_nodes();
        for u in 0..n {
            let lo = self.offsets[u];
            let hi = self.offsets[u + 1];
            if let Some(ws) = self.weights.as_mut() {
                let mut pairs: Vec<(NodeId, f64)> = self.targets[lo..hi]
                    .iter()
                    .copied()
                    .zip(ws[lo..hi].iter().copied())
                    .collect();
                pairs.sort_unstable_by_key(|a| (a.0, a.1.to_bits()));
                for (i, (t, w)) in pairs.into_iter().enumerate() {
                    self.targets[lo + i] = t;
                    ws[lo + i] = w;
                }
            } else {
                self.targets[lo..hi].sort_unstable();
            }
        }
    }
}

fn symmetrize(edges: impl Iterator<Item = (NodeId, NodeId, f64)>) -> Vec<(NodeId, NodeId, f64)> {
    let mut arcs = Vec::with_capacity(edges.size_hint().0 * 2);
    for (u, v, w) in edges {
        arcs.push((u, v, w));
        if u != v {
            arcs.push((v, u, w));
        }
    }
    arcs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_basics() {
        let g = Graph::directed(4, &[(0, 1), (0, 2), (1, 3), (3, 0)]).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[] as &[NodeId]);
        assert_eq!(g.out_degree(1), 1);
    }

    #[test]
    fn adjacency_is_sorted_regardless_of_input_order() {
        let g = Graph::directed(3, &[(0, 2), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn undirected_doubles_arcs() {
        let g = Graph::undirected(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loop_is_single_arc_in_undirected() {
        let g = Graph::undirected(2, &[(0, 0), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.num_arcs(), 3);
    }

    #[test]
    fn weighted_arcs_kept() {
        let g = Graph::directed_weighted(2, &[(0, 1, 2.5)]).unwrap();
        assert!(g.is_weighted());
        let arcs: Vec<_> = g.arcs(0).collect();
        assert_eq!(arcs, vec![(1, 2.5)]);
    }

    #[test]
    fn unweighted_arcs_report_unit_weight() {
        let g = Graph::directed(2, &[(0, 1)]).unwrap();
        let arcs: Vec<_> = g.arcs(0).collect();
        assert_eq!(arcs, vec![(1, 1.0)]);
    }

    #[test]
    fn invalid_node_rejected() {
        assert!(matches!(
            Graph::directed(2, &[(0, 5)]),
            Err(GraphError::InvalidNode { node: 5, .. })
        ));
        assert!(matches!(
            Graph::directed(2, &[(7, 0)]),
            Err(GraphError::InvalidNode { node: 7, .. })
        ));
    }

    #[test]
    fn invalid_weight_rejected() {
        assert!(matches!(
            Graph::directed_weighted(2, &[(0, 1, f64::NAN)]),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            Graph::directed_weighted(2, &[(0, 1, -3.0)]),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn transpose_reverses_arcs() {
        let g = Graph::directed(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let t = g.transpose();
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(0), &[] as &[NodeId]);
        assert_eq!(t.transpose(), g, "double transpose is identity");
    }

    #[test]
    fn transpose_preserves_weights() {
        let g = Graph::directed_weighted(3, &[(0, 1, 2.0), (2, 1, 5.0)]).unwrap();
        let t = g.transpose();
        let arcs: Vec<_> = t.arcs(1).collect();
        assert_eq!(arcs, vec![(0, 2.0), (2, 5.0)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::directed(0, &[]).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_arcs(), 0);
        let t = g.transpose();
        assert_eq!(t.num_nodes(), 0);
    }

    #[test]
    fn all_arcs_roundtrip() {
        let arcs = vec![(0, 1, 1.5), (1, 2, 0.5), (2, 0, 3.0)];
        let g = Graph::directed_weighted(3, &arcs).unwrap();
        let got: Vec<_> = g.all_arcs().collect();
        assert_eq!(got, arcs);
    }

    #[test]
    fn unit_weight_detection() {
        // Unweighted graphs are unit-weight by definition.
        assert!(!Graph::directed(2, &[(0, 1)]).unwrap().is_weighted());
        // Weighted graphs with all-1 weights store no weights.
        let ones = Graph::directed_weighted(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert!(!ones.is_weighted());
        // Any other weight (including 0) keeps them.
        let zero = Graph::directed_weighted(3, &[(0, 1, 1.0), (1, 2, 0.0)]).unwrap();
        assert!(zero.is_weighted());
        let frac = Graph::directed_weighted(2, &[(0, 1, 0.5)]).unwrap();
        assert!(frac.is_weighted());
        // Arc-less graphs are trivially unit-weight.
        assert!(!Graph::directed_weighted(2, &[]).unwrap().is_weighted());
    }

    #[test]
    fn unit_weight_survives_transpose() {
        let g = Graph::directed_weighted(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert!(!g.transpose().is_weighted());
        let w = Graph::directed_weighted(3, &[(0, 1, 2.0)]).unwrap();
        assert!(w.transpose().is_weighted());
    }

    #[test]
    fn all_unit_weights_build_the_unweighted_graph() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)];
        let ones: Vec<_> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        let directed = Graph::directed(4, &edges).unwrap();
        let undirected = Graph::undirected(4, &edges).unwrap();
        assert_eq!(Graph::directed_weighted(4, &ones).unwrap(), directed);
        assert_eq!(Graph::undirected_weighted(4, &ones).unwrap(), undirected);
        assert_eq!(
            Graph::directed_weighted(4, &ones).unwrap().transpose(),
            directed.transpose()
        );
        assert_eq!(
            Graph::undirected_weighted(4, &ones).unwrap().transpose(),
            undirected.transpose()
        );
        assert!(!directed.transpose().is_weighted());
    }

    #[test]
    fn parallel_arcs_are_kept() {
        // Multigraph support: duplicates allowed (shortest-path code just
        // sees both).
        let g = Graph::directed(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    fn parallel_weighted_arcs_sort_deterministically() {
        // Regression: parallel arcs with differing weights must come out in
        // the same (ascending-weight) order no matter the input order —
        // `Graph` equality, iteration order and the transpose all depend on
        // it.
        let fwd = Graph::directed_weighted(3, &[(0, 1, 2.0), (0, 1, 0.5), (0, 1, 1.0)]).unwrap();
        let rev = Graph::directed_weighted(3, &[(0, 1, 1.0), (0, 1, 2.0), (0, 1, 0.5)]).unwrap();
        assert_eq!(fwd, rev);
        let ws: Vec<f64> = fwd.arcs(0).map(|(_, w)| w).collect();
        assert_eq!(ws, vec![0.5, 1.0, 2.0]);
        // The transpose sorts adjacency the same way, so it is
        // input-order-independent too (and still the identity under double
        // transpose).
        assert_eq!(fwd.transpose(), rev.transpose());
        assert_eq!(fwd.transpose().transpose(), fwd);
    }

    #[test]
    fn negative_zero_weight_keeps_one_arc_order_through_transpose() {
        // `-0.0` is a valid weight; `build` and `transpose` must still put
        // parallel arcs in the same order, so a double transpose is the
        // identity and `-0.0` builds the same graph as `+0.0`.
        let g = Graph::directed_weighted(2, &[(0, 1, -0.0), (0, 1, 0.5)]).unwrap();
        assert_eq!(g.transpose().transpose(), g);
        let bits: Vec<u64> = g.arcs(0).map(|(_, w)| w.to_bits()).collect();
        assert_eq!(bits, vec![0.0f64.to_bits(), 0.5f64.to_bits()]);
        let pos = Graph::directed_weighted(2, &[(0, 1, 0.5), (0, 1, 0.0)]).unwrap();
        assert_eq!(g, pos);
        let und = Graph::undirected_weighted(2, &[(0, 1, 0.5), (1, 0, -0.0)]).unwrap();
        assert_eq!(und.transpose(), und);
    }
}
