//! Property-based tests (proptest) over the core data structures and
//! estimator invariants.

use proptest::prelude::*;

use adsketch::core::builder::{local_updates, pruned_dijkstra};
use adsketch::core::{reference, size_est, uniform_ranks, AdsSet, DynamicAds};
use adsketch::graph::{Graph, NodeId};
use adsketch::minhash::BottomKSketch;
use adsketch::stream::MorrisCounter;
use adsketch::util::ranks::BaseB;
use adsketch::util::{RankHasher, Rng64, SplitMix64};

/// Strategy: a small directed graph as (n, arcs).
fn small_digraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..24).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..80);
        (Just(n), arcs)
    })
}

/// Strategy: a small *weighted* directed graph whose weight palette
/// (index-encoded) deliberately mixes zero weights (distance-0 ties),
/// unit weights, and two generic values; low arc counts leave nodes
/// disconnected, self-loops and parallel arcs are allowed.
fn small_weighted_digraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId, usize)>)> {
    (2usize..20).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n as NodeId, 0..n as NodeId, 0usize..4), 0..60);
        (Just(n), arcs)
    })
}

const WEIGHT_PALETTE: [f64; 4] = [0.0, 1.0, 0.5, 2.5];

proptest! {
    /// Every ADS built from any canonical order over any rank assignment
    /// satisfies its structural invariants, and its HIP weights are ≥ 1
    /// and non-decreasing with distance.
    #[test]
    fn ads_invariants_hold_for_any_order(
        seed in 0u64..10_000,
        n in 1usize..300,
        k in 1usize..10,
    ) {
        let h = RankHasher::new(seed);
        let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
        let order: Vec<(NodeId, f64)> =
            (0..n).map(|i| (i as NodeId, (i / 3) as f64)).collect(); // with ties
        let ads = reference::bottomk_from_order(k, &order, &ranks);
        prop_assert_eq!(ads.validate(), Ok(()));
        prop_assert!(ads.len() <= n);
        prop_assert!(ads.len() >= k.min(n));
        let hip = reference::hip_weights(k, ads.entries().iter().copied());
        let mut last = 0.0;
        for &w in hip.row().weights {
            prop_assert!(w >= 1.0 - 1e-12);
            prop_assert!(w >= last - 1e-12, "weights must not decrease");
            last = w;
        }
    }

    /// The HIP estimate of the full prefix is ≥ the sketch size (each of
    /// the sampled nodes contributes ≥ 1) and exact when n ≤ k.
    #[test]
    fn hip_estimate_bounds(seed in 0u64..10_000, n in 1usize..200, k in 1usize..12) {
        let h = RankHasher::new(seed);
        let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let ads = reference::bottomk_from_order(k, &order, &ranks);
        let est = reference::hip_weights(k, ads.entries().iter().copied())
            .row()
            .reachable_estimate();
        prop_assert!(est >= ads.len() as f64 - 1e-9);
        if n <= k {
            prop_assert!((est - n as f64).abs() < 1e-9, "exact for n ≤ k");
        }
    }

    /// PrunedDijkstra equals the brute force on arbitrary digraphs
    /// (unweighted, arbitrary topology including self-loops and parallel
    /// arcs).
    #[test]
    fn pruned_dijkstra_equals_brute_force((n, arcs) in small_digraph(), seed in 0u64..1_000, k in 1usize..5) {
        let g = Graph::directed(n, &arcs).unwrap();
        let ranks = uniform_ranks(n, seed);
        let (fast, _) = pruned_dijkstra::build_with_stats(&g, k, &ranks).unwrap();
        let slow = reference::build_bottomk(&g, k, &ranks);
        prop_assert_eq!(fast, slow);
    }

    /// The relax-time-pruned search core is bitwise identical to the
    /// brute-force baseline — sequentially and wave-parallel at threads
    /// {1, 2, 4, 0} — on weighted digraphs mixing zero-weight ties, unit
    /// weights, parallel arcs, self-loops and disconnected nodes, and
    /// inserts exactly the baseline's entries.
    #[test]
    fn relax_pruned_core_equals_baseline(
        (n, warcs) in small_weighted_digraph(),
        seed in 0u64..1_000,
        k in 1usize..5,
    ) {
        let arcs: Vec<(NodeId, NodeId, f64)> = warcs
            .iter()
            .map(|&(u, v, w)| (u, v, WEIGHT_PALETTE[w]))
            .collect();
        let g = Graph::directed_weighted(n, &arcs).unwrap();
        let ranks = uniform_ranks(n, seed);
        let base = reference::build_bottomk(&g, k, &ranks);
        let (relax, relax_stats) = pruned_dijkstra::build_with_stats(&g, k, &ranks).unwrap();
        prop_assert_eq!(&relax, &base);
        prop_assert_eq!(relax_stats.insertions, base.num_entries() as u64);
        prop_assert!(relax_stats.relaxations - relax_stats.insertions <= n as u64);
        for threads in [1usize, 2, 4, 0] {
            let (par, par_stats) =
                pruned_dijkstra::build_parallel_with_stats(&g, k, &ranks, threads).unwrap();
            prop_assert_eq!(&par, &base, "threads {}", threads);
            prop_assert_eq!(par_stats.insertions, relax_stats.insertions);
        }
    }

    /// Incremental maintenance is order-insensitive and bitwise exact:
    /// a [`DynamicAds`] fed the same arc multiset in ANY insertion order
    /// — zero-weight ties, self-loops, parallel arcs and all — finishes
    /// bitwise identical to a from-scratch batch build of the final
    /// graph. This is the dynamic-graph tentpole invariant.
    #[test]
    fn dynamic_insertions_equal_batch_build_in_any_order(
        (n, warcs) in small_weighted_digraph(),
        seed in 0u64..1_000,
        shuffle in 0u64..1_000,
        k in 1usize..5,
    ) {
        let mut arcs: Vec<(NodeId, NodeId, f64)> = warcs
            .iter()
            .map(|&(u, v, w)| (u, v, WEIGHT_PALETTE[w]))
            .collect();
        let g = Graph::directed_weighted(n, &arcs).unwrap();
        let batch = AdsSet::build(&g, k, seed);
        // Fisher–Yates with a deterministic stream: every `shuffle`
        // value exercises a different insertion order.
        let mut rng = SplitMix64::new(shuffle);
        for i in (1..arcs.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            arcs.swap(i, j);
        }
        let mut dynamic = DynamicAds::new(n, k, seed);
        for &(u, v, w) in &arcs {
            dynamic.insert_edge(u, v, w).unwrap();
        }
        prop_assert_eq!(dynamic.snapshot(), batch);
    }

    /// LocalUpdates reaches the same fixpoint on arbitrary digraphs.
    #[test]
    fn local_updates_equals_brute_force((n, arcs) in small_digraph(), seed in 0u64..1_000) {
        let g = Graph::directed(n, &arcs).unwrap();
        let ranks = uniform_ranks(n, seed);
        let (fast, _) = local_updates::build_with_stats(&g, 2, &ranks, 0.0).unwrap();
        let slow = reference::build_bottomk(&g, 2, &ranks);
        prop_assert_eq!(fast, slow);
    }

    /// Bottom-k sketch merge is exactly the sketch of the union, for any
    /// two element sets.
    #[test]
    fn bottomk_merge_is_union(
        xs in prop::collection::hash_set(0u64..5_000, 0..200),
        ys in prop::collection::hash_set(0u64..5_000, 0..200),
        seed in 0u64..1_000,
        k in 1usize..16,
    ) {
        let h = RankHasher::new(seed);
        let mut a = BottomKSketch::new(k);
        let mut b = BottomKSketch::new(k);
        let mut u = BottomKSketch::new(k);
        for &x in &xs { a.insert(&h, x); u.insert(&h, x); }
        for &y in &ys { b.insert(&h, y); u.insert(&h, y); }
        a.merge(&b);
        prop_assert_eq!(a, u);
    }

    /// Insertion order never matters for a bottom-k sketch.
    #[test]
    fn bottomk_insertion_order_irrelevant(
        mut xs in prop::collection::vec(0u64..1_000, 1..100),
        seed in 0u64..1_000,
    ) {
        let h = RankHasher::new(seed);
        let mut fwd = BottomKSketch::new(5);
        for &x in &xs { fwd.insert(&h, x); }
        xs.reverse();
        let mut rev = BottomKSketch::new(5);
        for &x in &xs { rev.insert(&h, x); }
        prop_assert_eq!(fwd, rev);
    }

    /// Base-b discretization: `r/b < r' ≤ r` and levels round-trip.
    #[test]
    fn base_b_bracket(r in 1e-12f64..1.0, b in 1.01f64..4.0) {
        let base = BaseB::new(b);
        let d = base.discretize(r);
        prop_assert!(d <= r * (1.0 + 1e-9));
        prop_assert!(d > r / b * (1.0 - 1e-9));
        prop_assert_eq!(base.level(d), base.level(r));
    }

    /// The size estimator is monotone in s and anchored at E_k = k.
    #[test]
    fn size_estimator_monotone(k in 1usize..64, s in 0usize..200) {
        let e1 = size_est::size_estimator(s, k);
        let e2 = size_est::size_estimator(s + 1, k);
        prop_assert!(e2 > e1 - 1e-12);
        prop_assert!((size_est::size_estimator(k, k) - k as f64).abs() < 1e-9);
    }

    /// Morris counters never go negative and exponents are monotone under
    /// adds.
    #[test]
    fn morris_monotone(adds in prop::collection::vec(0.0f64..50.0, 0..50), seed in 0u64..1_000) {
        let mut c = MorrisCounter::new(1.3, seed);
        let mut last_x = 0;
        for a in adds {
            c.add(a);
            prop_assert!(c.exponent() >= last_x);
            last_x = c.exponent();
            prop_assert!(c.estimate() >= 0.0);
        }
    }

    /// MinHash extraction from an ADS at distance d equals the sketch of
    /// the distance-d prefix built directly.
    #[test]
    fn ads_minhash_extraction_consistent(
        seed in 0u64..5_000,
        n in 1usize..150,
        k in 1usize..8,
        cut in 0usize..150,
    ) {
        let cut = cut.min(n);
        let h = RankHasher::new(seed);
        let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let ads = reference::bottomk_from_order(k, &order, &ranks);
        let set = reference::from_sketches(k, vec![ads]);
        let extracted = set.row(0).minhash_at(cut as f64);
        let mut direct = BottomKSketch::new(k);
        for e in 0..=cut.min(n - 1) as u64 {
            direct.insert_ranked(ranks[e as usize], e);
        }
        prop_assert_eq!(extracted, direct);
    }
}
