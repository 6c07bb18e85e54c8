//! Random and structured graph generators for experiments and tests.
//!
//! All generators are deterministic given a seed. Random models return edge
//! lists so callers can choose directed/undirected interpretation and attach
//! weights with [`assign_uniform_weights`].

use adsketch_util::rng::{Rng64, SplitMix64, Xoshiro256pp};

use crate::csr::{Graph, NodeId};

/// Erdős–Rényi G(n, p) edge list over unordered pairs (no self-loops).
///
/// Uses geometric skipping so the cost is proportional to the number of
/// edges generated, not to n².
pub fn gnp_edges(n: usize, p: f64, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    let mut edges = Vec::new();
    if n < 2 || p == 0.0 {
        return edges;
    }
    let mut rng = Xoshiro256pp::new(seed);
    let total_pairs = n as u64 * (n as u64 - 1) / 2;
    let mut idx: u64 = 0;
    loop {
        let skip = if p >= 1.0 { 0 } else { rng.geometric(p) };
        idx = match idx.checked_add(skip) {
            Some(i) => i,
            None => break,
        };
        if idx >= total_pairs {
            break;
        }
        edges.push(pair_from_index(idx, n));
        idx += 1;
    }
    edges
}

/// Maps a linear index in `[0, n(n-1)/2)` to the unordered pair it encodes
/// (row-major over the strict upper triangle).
fn pair_from_index(idx: u64, n: usize) -> (NodeId, NodeId) {
    // Find row u such that the index falls into u's strip of (n-1-u) pairs.
    // Solve quadratically, then correct for rounding.
    let nf = n as f64;
    let i = idx as f64;
    let mut u = (nf - 0.5 - (((nf - 0.5) * (nf - 0.5)) - 2.0 * i).max(0.0).sqrt()).floor() as u64;
    // Strip start of row u: S(u) = u*n - u(u+1)/2
    let strip_start = |u: u64| u * n as u64 - u * (u + 1) / 2;
    while u > 0 && strip_start(u) > idx {
        u -= 1;
    }
    while strip_start(u + 1) <= idx {
        u += 1;
    }
    let v = u + 1 + (idx - strip_start(u));
    (u as NodeId, v as NodeId)
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m0 = m` nodes, then each new node attaches `m` edges to existing nodes
/// with probability proportional to degree (repeat-endpoint draws are
/// deduplicated). Produces a connected, heavy-tailed-degree graph — the
/// stand-in for the paper's social-network workloads.
pub fn barabasi_albert_edges(n: usize, m: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(m >= 1, "attachment degree must be at least 1");
    assert!(n > m, "need more nodes than the initial clique size");
    let mut rng = Xoshiro256pp::new(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * m);
    // Repeated-endpoint list: sampling a uniform element is degree-biased.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    for u in 0..m as NodeId {
        for v in (u + 1)..m as NodeId {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut targets = Vec::with_capacity(m);
    for v in m as NodeId..n as NodeId {
        targets.clear();
        while targets.len() < m {
            let t = endpoints[rng.range_usize(endpoints.len())];
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((t, v));
            endpoints.push(t);
            endpoints.push(v);
        }
    }
    edges
}

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
/// side, each edge rewired with probability `beta`.
pub fn watts_strogatz_edges(n: usize, k: usize, beta: f64, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(k >= 1 && 2 * k < n, "need 1 ≤ k and 2k < n");
    assert!((0.0..=1.0).contains(&beta));
    let mut rng = Xoshiro256pp::new(seed);
    let mut present = std::collections::HashSet::new();
    let norm = |a: NodeId, b: NodeId| if a < b { (a, b) } else { (b, a) };
    for u in 0..n {
        for j in 1..=k {
            present.insert(norm(u as NodeId, ((u + j) % n) as NodeId));
        }
    }
    let originals: Vec<(NodeId, NodeId)> = present.iter().copied().collect();
    for (u, v) in originals {
        if rng.bernoulli(beta) {
            // Rewire the far endpoint to a uniform non-neighbor.
            for _ in 0..32 {
                let w = rng.range_usize(n) as NodeId;
                let cand = norm(u, w);
                if w != u && !present.contains(&cand) {
                    present.remove(&norm(u, v));
                    present.insert(cand);
                    break;
                }
            }
        }
    }
    let mut edges: Vec<_> = present.into_iter().collect();
    edges.sort_unstable();
    edges
}

/// Path `0 − 1 − … − (n−1)`.
pub fn path_edges(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n.saturating_sub(1))
        .map(|i| (i as NodeId, i as NodeId + 1))
        .collect()
}

/// Star with center 0 and n−1 leaves.
pub fn star_edges(n: usize) -> Vec<(NodeId, NodeId)> {
    (1..n).map(|i| (0, i as NodeId)).collect()
}

/// rows × cols 4-neighbor grid; node id is `r * cols + c`.
pub fn grid_edges(rows: usize, cols: usize) -> Vec<(NodeId, NodeId)> {
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut e = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                e.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                e.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    e
}

/// Number of quantization steps for random edge weights.
const WEIGHT_STEPS: usize = 256;

/// Attaches i.i.d. weights `lo + i·(hi−lo)/256`, `i ~ U{0…255}`, to an
/// edge list.
///
/// Weights are *quantized* on purpose: with dyadic `lo`/`hi` (e.g. 0.5,
/// 2.0) every weight — and therefore every shortest-path length — is an
/// exact dyadic rational, so path sums are identical regardless of
/// summation order. The ADS builders rely on exact distance comparisons
/// for their canonical ordering; continuous weights would make forward and
/// transpose traversals disagree in the last ulp.
pub fn assign_uniform_weights(
    edges: &[(NodeId, NodeId)],
    lo: f64,
    hi: f64,
    seed: u64,
) -> Vec<(NodeId, NodeId, f64)> {
    assert!(lo >= 0.0 && hi > lo, "need 0 ≤ lo < hi");
    let mut rng = SplitMix64::new(seed);
    let step = (hi - lo) / WEIGHT_STEPS as f64;
    edges
        .iter()
        .map(|&(u, v)| (u, v, lo + step * rng.range_usize(WEIGHT_STEPS) as f64))
        .collect()
}

/// Convenience: an undirected Barabási–Albert graph.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    Graph::undirected(n, &barabasi_albert_edges(n, m, seed)).expect("generator produces valid ids")
}

/// Convenience: an undirected G(n,p) graph.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    Graph::undirected(n, &gnp_edges(n, p, seed)).expect("generator produces valid ids")
}

/// Convenience: a directed G(n,p) graph — each generated unordered pair
/// yields one arc with a random orientation.
pub fn gnp_directed(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    let arcs: Vec<(NodeId, NodeId)> = gnp_edges(n, p, seed)
        .into_iter()
        .map(|(u, v)| if rng.bernoulli(0.5) { (u, v) } else { (v, u) })
        .collect();
    Graph::directed(n, &arcs).expect("generator produces valid ids")
}

/// Convenience: a random weighted directed graph with out-degree ≈ `deg`
/// and quantized `U[lo, hi)` weights (see [`assign_uniform_weights`] for
/// why weights are quantized) — the workhorse for builder-equivalence
/// tests.
pub fn random_weighted_digraph(n: usize, deg: usize, lo: f64, hi: f64, seed: u64) -> Graph {
    let mut rng = Xoshiro256pp::new(seed);
    let step = (hi - lo) / WEIGHT_STEPS as f64;
    let mut arcs = Vec::with_capacity(n * deg);
    for u in 0..n as NodeId {
        for _ in 0..deg {
            let v = rng.range_usize(n) as NodeId;
            if v != u {
                arcs.push((u, v, lo + step * rng.range_usize(WEIGHT_STEPS) as f64));
            }
        }
    }
    Graph::directed_weighted(n, &arcs).expect("generator produces valid ids")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_from_index_bijective() {
        let n = 9;
        let total = n * (n - 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total as u64 {
            let (u, v) = pair_from_index(idx, n);
            assert!(u < v && (v as usize) < n, "idx {idx} → ({u},{v})");
            assert!(seen.insert((u, v)), "duplicate pair ({u},{v})");
        }
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 400;
        let p = 0.05;
        let edges = gnp_edges(n, p, 7);
        let expect = p * (n * (n - 1) / 2) as f64;
        let dev = (edges.len() as f64 - expect).abs() / expect;
        assert!(dev < 0.1, "got {} edges, expected ≈{expect}", edges.len());
        for &(u, v) in &edges {
            assert!(u < v && (v as usize) < n);
        }
    }

    #[test]
    fn gnp_extremes() {
        assert!(gnp_edges(50, 0.0, 1).is_empty());
        let full = gnp_edges(10, 1.0, 1);
        assert_eq!(full.len(), 45);
    }

    #[test]
    fn ba_degree_sum_and_connectivity() {
        let n = 500;
        let m = 3;
        let edges = barabasi_albert_edges(n, m, 11);
        // Clique edges + m per added node.
        assert_eq!(edges.len(), m * (m - 1) / 2 + (n - m) * m);
        let g = Graph::undirected(n, &edges).unwrap();
        assert_eq!(
            crate::bfs::reachable_count(&g, 0),
            n,
            "BA graph must be connected"
        );
        // Heavy tail: max degree far above m.
        let max_deg = (0..n as NodeId).map(|v| g.out_degree(v)).max().unwrap();
        assert!(max_deg > 4 * m, "max degree {max_deg}");
    }

    #[test]
    fn ws_is_connectedish_and_right_size() {
        let n = 200;
        let k = 3;
        let edges = watts_strogatz_edges(n, k, 0.1, 5);
        assert_eq!(edges.len(), n * k, "rewiring preserves edge count");
        let g = Graph::undirected(n, &edges).unwrap();
        assert_eq!(crate::bfs::reachable_count(&g, 0), n);
    }

    #[test]
    fn structured_graphs() {
        assert_eq!(path_edges(4), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(star_edges(4), vec![(0, 1), (0, 2), (0, 3)]);
        let grid = grid_edges(2, 3);
        assert_eq!(grid.len(), 3 + 4); // 3 vertical + 4 horizontal
    }

    #[test]
    fn grid_distances_are_manhattan() {
        let g = Graph::undirected(9, &grid_edges(3, 3)).unwrap();
        let d = crate::bfs::bfs_distances(&g, 0);
        assert_eq!(d[8], 4); // corner to corner on 3×3
        assert_eq!(d[4], 2); // center
    }

    #[test]
    fn weights_in_range_and_deterministic() {
        let e = path_edges(100);
        let w1 = assign_uniform_weights(&e, 1.0, 5.0, 9);
        let w2 = assign_uniform_weights(&e, 1.0, 5.0, 9);
        assert_eq!(w1, w2);
        for &(_, _, w) in &w1 {
            assert!((1.0..5.0).contains(&w));
        }
    }

    #[test]
    fn generators_are_seed_deterministic() {
        assert_eq!(gnp_edges(100, 0.1, 4), gnp_edges(100, 0.1, 4));
        assert_ne!(gnp_edges(100, 0.1, 4), gnp_edges(100, 0.1, 5));
        assert_eq!(
            barabasi_albert_edges(100, 2, 4),
            barabasi_albert_edges(100, 2, 4)
        );
    }

    #[test]
    fn random_weighted_digraph_valid() {
        let g = random_weighted_digraph(50, 4, 1.0, 2.0, 13);
        assert!(g.is_weighted());
        assert!(g.num_arcs() <= 200);
        for (_, _, w) in g.all_arcs() {
            assert!((1.0..2.0).contains(&w));
        }
    }
}
