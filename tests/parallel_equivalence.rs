//! Equivalence suite for the wave-parallel PrunedDijkstra, the unweighted
//! BFS fast path and the relax-time frontier pruning: every configuration
//! must be *bitwise identical* (`assert_eq!` on the whole `AdsSet`) to the
//! brute-force oracle, across thread counts {1, 2, 4, 0 = all cores} and
//! across graph regimes (directed, weighted, zero-weight ties,
//! disconnected). On every graph family the work counters must also obey
//! their relations to that oracle — pruning earlier can only remove
//! work. Graph seeds mirror the unit tests in
//! `crates/core/src/builder/pruned_dijkstra.rs`.

use adsketch::core::builder::{pruned_dijkstra, BuildStats};
use adsketch::core::{reference, uniform_ranks, AdsSet};
use adsketch::graph::{generators, Graph};
use adsketch::util::rng::{Rng64, SplitMix64};

const THREADS: [usize; 4] = [1, 2, 4, 0];

/// Nodes the textbook Algorithm 1 (pop-time pruning only) settles, read
/// off the oracle: the search from `u` expands exactly the nodes whose
/// finished sketch holds `u`, so it settles `u` plus their in-neighbours,
/// each once.
fn textbook_settles(g: &Graph, oracle: &AdsSet) -> u64 {
    let n = g.num_nodes();
    let gt = g.transpose();
    let mut holders: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in 0..n as u32 {
        for &x in oracle.row(v).nodes {
            holders[x as usize].push(v);
        }
    }
    let mut seen_by = vec![u32::MAX; n];
    let mut settles = 0;
    for u in 0..n as u32 {
        seen_by[u as usize] = u;
        settles += 1;
        for &v in &holders[u as usize] {
            for &y in gt.neighbors(v) {
                if seen_by[y as usize] != u {
                    seen_by[y as usize] = u;
                    settles += 1;
                }
            }
        }
    }
    settles
}

/// Asserts sequential == oracle, parallel == sequential for every thread
/// count, and the work gates of the relax-time filter, each stated
/// against the oracle. Returns the sequential counters and the textbook
/// settle count they were held against.
fn assert_all_equivalent(g: &Graph, k: usize, ranks: &[f64], label: &str) -> (BuildStats, u64) {
    let (seq, stats) = pruned_dijkstra::build_with_stats(g, k, ranks).unwrap();
    let oracle = reference::build_bottomk(g, k, ranks);
    assert_eq!(seq, oracle, "{label}: sequential vs reference");
    // Rank-monotone inserts are never retracted: the filter removes only
    // visits that would have ended in a prune.
    assert_eq!(
        stats.insertions,
        oracle.num_entries() as u64,
        "{label}: every insertion is a final entry"
    );
    // The filter is exact on the sequential path: whatever it lets into
    // the frontier is inserted when popped, source seeds excepted.
    assert!(
        stats.relaxations - stats.insertions <= g.num_nodes() as u64,
        "{label}: settled {} vs inserted {}",
        stats.relaxations,
        stats.insertions
    );
    // Relax-time pruning may only remove settled nodes, never add any.
    let textbook = textbook_settles(g, &oracle);
    assert!(
        stats.relaxations <= textbook,
        "{label}: relax pruning increased relaxations ({} vs textbook {textbook})",
        stats.relaxations
    );
    if !g.is_weighted() {
        // The level-synchronous BFS settles everything it enqueues, and
        // every node the textbook search would settle is either enqueued
        // or relax-pruned, once.
        assert_eq!(stats.relaxations, stats.heap_pushes, "{label}");
        assert_eq!(
            stats.heap_pushes + stats.pruned_at_relax,
            textbook,
            "{label}: frontier decisions vs textbook settles"
        );
    }
    for threads in THREADS {
        let (par, par_stats) =
            pruned_dijkstra::build_parallel_with_stats(g, k, ranks, threads).unwrap();
        assert_eq!(par, seq, "{label}: parallel ({threads} threads)");
        assert_eq!(
            par_stats.insertions, stats.insertions,
            "{label}: the merge replays the sequential inserts ({threads} threads)"
        );
    }
    (stats, textbook)
}

#[test]
fn directed_unweighted_graphs() {
    // BFS fast path (unit weights) + wave merge, directed reachability.
    for seed in 0..5u64 {
        let g = generators::gnp_directed(60, 0.08, seed);
        let ranks = uniform_ranks(60, seed + 100);
        assert_all_equivalent(&g, 3, &ranks, &format!("gnp_directed seed {seed}"));
    }
}

#[test]
fn weighted_digraphs() {
    // Heap path end to end (weights disqualify the BFS dispatch).
    for seed in 0..5u64 {
        let g = generators::random_weighted_digraph(50, 4, 0.5, 3.0, seed);
        assert!(g.is_weighted());
        let ranks = uniform_ranks(50, seed + 200);
        assert_all_equivalent(&g, 4, &ranks, &format!("weighted seed {seed}"));
    }
}

#[test]
fn undirected_distance_ties() {
    // Unweighted undirected graphs are full of equal distances; the
    // canonical (dist, id) tie order must survive the wave merge.
    for seed in 0..5u64 {
        let g = generators::gnp(70, 0.06, seed + 9);
        let ranks = uniform_ranks(70, seed + 300);
        assert_all_equivalent(&g, 2, &ranks, &format!("gnp ties seed {seed}"));
    }
}

#[test]
fn zero_weight_tie_digraphs() {
    // Zero-weight arcs put many nodes at identical distances (including 0
    // from each other) — the hardest tie-breaking regime, and weighted, so
    // it must not take the BFS fast path.
    for seed in 0..4u64 {
        let mut rng = SplitMix64::new(seed);
        let n = 40usize;
        let mut arcs = Vec::new();
        for u in 0..n as u32 {
            for _ in 0..3 {
                let v = rng.range_usize(n) as u32;
                if v != u {
                    let w = if rng.bernoulli(0.5) { 0.0 } else { 1.0 };
                    arcs.push((u, v, w));
                }
            }
        }
        let g = Graph::directed_weighted(n, &arcs).unwrap();
        assert!(g.is_weighted());
        let ranks = uniform_ranks(n, seed + 900);
        assert_all_equivalent(&g, 3, &ranks, &format!("zero-weight seed {seed}"));
    }
}

#[test]
fn disconnected_components() {
    // Two disjoint triangles plus isolated nodes; waves must not leak
    // entries across components at any thread count.
    let g = Graph::undirected(8, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
    let ranks = uniform_ranks(8, 4);
    assert_all_equivalent(&g, 8, &ranks, "disconnected");
    let (set, _) = pruned_dijkstra::build_parallel_with_stats(&g, 8, &ranks, 4).unwrap();
    for v in 0..3u32 {
        assert!(set.row(v).nodes.iter().all(|&x| x < 3));
    }
    for v in 6..8u32 {
        assert_eq!(set.row(v).len(), 1, "isolated node samples only itself");
    }
}

#[test]
fn unit_weight_but_weighted_representation() {
    // All-1.0 weights build the unweighted graph, so they take the BFS
    // fast path and still agree.
    let edges: Vec<(u32, u32, f64)> = generators::gnp_edges(50, 0.08, 77)
        .into_iter()
        .map(|(u, v)| (u, v, 1.0))
        .collect();
    let g = Graph::undirected_weighted(50, &edges).unwrap();
    assert!(!g.is_weighted());
    let ranks = uniform_ranks(50, 78);
    assert_all_equivalent(&g, 3, &ranks, "unit-weight weighted");
}

#[test]
fn ads_set_facade_parallel_matches_build() {
    let g = generators::barabasi_albert(300, 3, 15);
    let seq = AdsSet::build(&g, 8, 99);
    for threads in THREADS {
        assert_eq!(AdsSet::build_parallel(&g, 8, 99, threads), seq);
    }
}

#[test]
fn bfs_fast_path_relaxes_no_more_than_dijkstra() {
    // BuildStats gate: on unweighted graphs the relax-filtered BFS fast
    // path must settle strictly fewer nodes than the textbook pop-time
    // pruned Dijkstra, whose settle count the oracle determines; the
    // counter identities themselves are asserted per family above.
    let g = generators::barabasi_albert(500, 3, 7);
    let ranks = uniform_ranks(500, 8);
    let (bfs, textbook) = assert_all_equivalent(&g, 4, &ranks, "barabasi_albert");
    assert!(bfs.pruned_at_relax > 0, "relax filter never fired");
    assert!(bfs.relaxations < textbook);
}
