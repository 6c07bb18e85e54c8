//! Freeze → serialize → deserialize round trips must be lossless: every
//! estimator answers **bitwise identically** from the restored
//! [`FrozenAdsSet`] and from the heap-backed [`AdsSet`] it was frozen
//! from, across directed / weighted / disconnected graphs; corrupted or
//! truncated buffers must be rejected.

use proptest::prelude::*;

use adsketch::core::{
    basic, centrality, similarity, size_est, AdsSet, AdsView, FrozenAdsSet, LoadOptions,
    QueryEngine,
};
use adsketch::graph::{generators, Graph, NodeId};

/// Asserts that every estimator of the suite returns bitwise-identical
/// answers from `ads` and `frozen` for every node (and a pair sample).
fn assert_estimators_bitwise_equal(ads: &AdsSet, frozen: &FrozenAdsSet) {
    assert_eq!(frozen.k(), ads.k());
    assert_eq!(frozen.num_nodes(), ads.num_nodes());
    assert_eq!(frozen.num_entries(), ads.total_entries());
    let n = ads.num_nodes() as NodeId;
    for v in 0..n {
        let hip = ads.hip(v);
        // HIP estimators.
        assert_eq!(frozen.hip_weights_of(v), hip, "node {v}: HIP weights");
        assert_eq!(frozen.hip_reachable(v), hip.reachable_estimate());
        for d in [0.0, 0.5, 1.0, 2.0, 4.0, f64::INFINITY] {
            assert_eq!(frozen.hip_cardinality_at(v, d), hip.cardinality_at(d));
            // Basic (MinHash-extraction) estimator; defined for k > 1.
            if ads.k() > 1 {
                assert_eq!(
                    basic::cardinality_at_in(frozen, v, d),
                    basic::cardinality_at(ads.sketch(v), d)
                );
            }
            // Size-only estimator.
            assert_eq!(
                size_est::cardinality_at_in(frozen, v, d),
                size_est::cardinality_at(ads.sketch(v), d)
            );
        }
        // Neighborhood function and centralities.
        assert_eq!(
            frozen.neighborhood_function_of(v),
            hip.neighborhood_function()
        );
        assert_eq!(
            centrality::harmonic_in(frozen, v),
            centrality::harmonic(&hip)
        );
        assert_eq!(
            centrality::sum_of_distances_in(frozen, v),
            centrality::sum_of_distances(&hip)
        );
        // HIP similarity against a fixed partner.
        let u = (v + 1) % n.max(1);
        assert_eq!(
            similarity::neighborhood_jaccard_in(frozen, v, u, 2.0),
            similarity::neighborhood_jaccard(ads.sketch(v), ads.sketch(u), 2.0)
        );
    }
    // Whole-graph distance distribution.
    assert_eq!(
        frozen.distance_distribution_estimate(),
        ads.distance_distribution_estimate()
    );
}

fn roundtrip(ads: &AdsSet) -> FrozenAdsSet {
    let frozen = ads.freeze();
    let bytes = frozen.to_bytes();
    let restored = FrozenAdsSet::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(restored, frozen, "from_bytes(to_bytes(_)) must be identity");
    restored
}

/// Strategy: a small directed graph as (n, arcs).
fn small_digraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..40).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..120);
        (Just(n), arcs)
    })
}

proptest! {
    /// Random graph → build → freeze → to_bytes → from_bytes: every
    /// estimator answer is bitwise equal to the in-memory AdsSet answer.
    #[test]
    fn random_graph_roundtrip_bitwise(
        (n, arcs) in small_digraph(),
        seed in 0u64..1_000,
        k in 1usize..6,
    ) {
        let g = Graph::directed(n, &arcs).unwrap();
        let ads = AdsSet::build(&g, k, seed);
        let restored = roundtrip(&ads);
        assert_estimators_bitwise_equal(&ads, &restored);
    }

    /// Corrupting any single byte of a serialized store, or truncating it
    /// anywhere, must make from_bytes fail — never silently misread.
    #[test]
    fn corrupted_or_truncated_buffers_rejected(
        seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
    ) {
        let g = generators::gnp_directed(30, 0.1, seed);
        let bytes = AdsSet::build(&g, 3, seed).freeze().to_bytes();
        // Truncation at an arbitrary prefix length.
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(
            FrozenAdsSet::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must be rejected",
            bytes.len()
        );
        // Single-bit corruption anywhere (header or payload).
        let mut corrupted = bytes.clone();
        let at = ((corrupted.len() as f64 * flip_frac) as usize).min(corrupted.len() - 1);
        corrupted[at] ^= 0x10;
        prop_assert!(
            FrozenAdsSet::from_bytes(&corrupted).is_err(),
            "bit flip at byte {at} must be rejected"
        );
    }
}

#[test]
fn directed_weighted_disconnected_roundtrips() {
    let k = 4;
    // Directed unweighted.
    let directed = generators::gnp_directed(120, 0.04, 3);
    // Weighted digraph (real-valued distances, Dijkstra path).
    let weighted = generators::random_weighted_digraph(80, 4, 0.5, 2.5, 7);
    // Disconnected: two G(n,p) islands plus isolated nodes.
    let mut arcs = generators::gnp(40, 0.1, 5)
        .all_arcs()
        .map(|(u, v, _)| (u, v))
        .collect::<Vec<_>>();
    arcs.extend(
        generators::gnp(40, 0.1, 6)
            .all_arcs()
            .map(|(u, v, _)| (u + 40, v + 40)),
    );
    let disconnected = Graph::directed(100, &arcs).unwrap(); // nodes 80..100 isolated
    for (name, g) in [
        ("directed", &directed),
        ("weighted", &weighted),
        ("disconnected", &disconnected),
    ] {
        let ads = AdsSet::build(g, k, 11);
        let restored = roundtrip(&ads);
        assert_estimators_bitwise_equal(&ads, &restored);
        // The batch engine answers from the restored store must match the
        // per-node heap path too, for every thread count.
        let per_node: Vec<f64> = (0..g.num_nodes() as NodeId)
            .map(|v| centrality::harmonic(&ads.hip(v)))
            .collect();
        for threads in [1usize, 3, 0] {
            assert_eq!(
                QueryEngine::with_threads(&restored, threads).harmonic_all(),
                per_node,
                "{name}: batch harmonic, threads = {threads}"
            );
        }
    }
}

#[test]
fn save_load_file_roundtrip() {
    let g = generators::barabasi_albert(150, 3, 9);
    let ads = AdsSet::build(&g, 8, 4);
    let frozen = ads.freeze();
    let path = std::env::temp_dir().join("adsketch_test_frozen_roundtrip.ads");
    frozen.save(&path).expect("save");
    let loaded = FrozenAdsSet::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, frozen);
    assert_estimators_bitwise_equal(&ads, &loaded);
}

#[test]
fn load_missing_file_is_io_error() {
    let err = FrozenAdsSet::load("/nonexistent/adsketch.ads").unwrap_err();
    assert!(err.to_string().contains("i/o error"), "{err}");
}

#[test]
fn mapped_v1_store_copies_no_column_for_either_parity_of_the_u32_prefix() {
    // The u32 columns hold n + 1 + E words. When they came first, an odd
    // count left the three f64 columns 8-misaligned in the mapping and
    // they were copied out (24 of every 28 bytes resident). Wide-first
    // column order aligns every column for both parities.
    let lone = Graph::directed(3, &[]).unwrap(); // E = 3: one self entry per node
    let arc = Graph::directed(3, &[(0, 1)]).unwrap(); // E = 4: ADS(0) gains node 1
    let parities: Vec<usize> = [&lone, &arc]
        .iter()
        .map(|g| {
            let ads = AdsSet::build(g, 2, 7);
            let frozen = ads.freeze();
            let parity = (frozen.num_nodes() + 1 + frozen.num_entries()) % 2;
            let path = std::env::temp_dir()
                .join(format!("adsketch_test_frozen_mapped_parity_{parity}.ads"));
            frozen.save(&path).expect("save");
            let buffered = FrozenAdsSet::load(&path).expect("buffered load");
            for opts in [LoadOptions::mapped(), LoadOptions::trusted()] {
                let mapped = FrozenAdsSet::load_with(&path, opts).expect("mapped load");
                if cfg!(all(
                    target_os = "linux",
                    target_pointer_width = "64",
                    target_endian = "little"
                )) {
                    assert!(mapped.is_mapped(), "parity {parity}, {opts:?}");
                    assert_eq!(
                        mapped.resident_bytes(),
                        std::mem::size_of::<FrozenAdsSet>(),
                        "parity {parity}, {opts:?}: a column was copied out of the mapping"
                    );
                }
                assert_eq!(mapped, buffered, "parity {parity}, {opts:?}");
                assert_estimators_bitwise_equal(&ads, &mapped);
            }
            std::fs::remove_file(&path).ok();
            parity
        })
        .collect();
    assert_ne!(
        parities[0], parities[1],
        "the two graphs must cover both parities"
    );
}
