//! The estimator battery the store round-trip suites share: every
//! estimator, per row and through the batch engine, answers from a view
//! bitwise identically to the oracle over the rows of the [`AdsSet`] it
//! came from. The oracle weights each row with the heap scan
//! (`reference::hip_weights`) and extracts MinHash sketches by inserting
//! every entry within `d`.

#![allow(dead_code)]

use adsketch::core::reference::{self, BottomKAds};
use adsketch::core::view::distance_distribution_estimate;
use adsketch::core::{basic, centrality, similarity, size_est, AdsSet, AdsView, QueryEngine, Row};
use adsketch::graph::NodeId;
use adsketch::minhash::{similarity as mh, BottomKSketch};

/// The query distances. `−1` selects no entry, so every HIP sum at it is
/// empty and must be `+0.0`.
pub const DS: [f64; 7] = [-1.0, 0.0, 0.5, 1.0, 2.0, 4.0, f64::INFINITY];

/// Asserts `got` is `want`, bit for bit (so `−0.0 ≠ +0.0`).
#[track_caller]
pub fn assert_bits(got: f64, want: f64, what: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:?} vs {want:?}");
}

#[track_caller]
fn assert_curve_bits(got: &[(f64, f64)], want: &[(f64, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: curve length");
    for (g, w) in got.iter().zip(want) {
        assert_bits(g.0, w.0, what);
        assert_bits(g.1, w.1, what);
    }
}

/// The bottom-k MinHash sketch of `N_d(v)`: every entry of the oracle
/// row within `d`, inserted.
fn minhash_oracle(row: Row<'_>, d: f64) -> BottomKSketch {
    let mut mh = BottomKSketch::new(row.k);
    for e in row.entries().filter(|e| e.dist <= d) {
        mh.insert_ranked(e.rank, e.node as u64);
    }
    mh
}

/// Asserts every estimator answers from `view` bitwise identically to the
/// oracle over `ads`'s rows, for every node (and a pair per node), and
/// that every empty sum is `+0.0`.
pub fn assert_estimators_match_oracle<V: AdsView + Sync>(view: &V, ads: &AdsSet) {
    assert_eq!(view.k(), ads.k());
    assert_eq!(view.num_nodes(), ads.num_nodes());
    assert_eq!(view.total_entries(), ads.num_entries());
    let k = ads.k();
    let n = ads.num_nodes() as NodeId;
    let nodes: Vec<NodeId> = (0..n).collect();
    let engine = QueryEngine::with_threads(view, 2);
    let (reachable, harmonic) = (engine.reachable_all(), engine.harmonic_all());
    let curves = engine.neighborhood_function_batch(&nodes);
    let cards: Vec<Vec<f64>> = DS
        .iter()
        .map(|&d| engine.cardinality_batch(&nodes.iter().map(|&v| (v, d)).collect::<Vec<_>>()))
        .collect();
    for v in 0..n {
        let sketch = ads.row(v);
        let weights = reference::hip_weights(k, sketch.entries());
        let (row, want) = (view.row(v), weights.row());
        let hip = row.hip();
        let at = |what: &str| format!("node {v}: {what}");
        assert!(row.entries().eq(sketch.entries()), "{}", at("entries"));
        assert_eq!(hip.len(), want.len(), "{}", at("row length"));
        for (&g, &w) in hip.weights.iter().zip(want.weights) {
            assert_bits(g, w, &at("HIP weight"));
        }
        // HIP estimators, per row and batched.
        let reach = want.reachable_estimate();
        assert_bits(hip.reachable_estimate(), reach, &at("reachable"));
        assert_bits(reachable[v as usize], reach, &at("reachable_all"));
        assert_bits(hip.cardinality_at(-1.0), 0.0, &at("empty cardinality sum"));
        for (i, &d) in DS.iter().enumerate() {
            let card = want.cardinality_at(d);
            assert_bits(
                hip.cardinality_at(d),
                card,
                &at(&format!("cardinality at {d}")),
            );
            assert_bits(cards[i][v as usize], card, &at(&format!("batch at {d}")));
            // Basic (MinHash-extraction) estimator; defined for k > 1.
            if k > 1 {
                let basic = minhash_oracle(sketch, d).estimate();
                assert_bits(basic::cardinality_at(row, d), basic, &at("basic"));
            }
            let within = sketch.entries().filter(|e| e.dist <= d).count();
            let size = size_est::size_estimator(within, k);
            assert_bits(size_est::cardinality_at(row, d), size, &at("size-only"));
        }
        // Neighborhood function and centralities.
        let nf = want.neighborhood_function();
        assert_curve_bits(&hip.neighborhood_function(), &nf, &at("curve"));
        assert_curve_bits(&curves[v as usize], &nf, &at("batched curve"));
        let h = centrality::harmonic(want);
        assert_bits(centrality::harmonic(hip), h, &at("harmonic"));
        assert_bits(harmonic[v as usize], h, &at("harmonic_all"));
        let sod = centrality::sum_of_distances(want);
        assert_bits(
            centrality::sum_of_distances(hip),
            sod,
            &at("sum of distances"),
        );
        if row.is_empty() {
            for x in [reach, h, sod] {
                assert_bits(x, 0.0, &at("empty-row sum"));
            }
        }
        // Similarity against a fixed partner, on another shard of a
        // sharded store in general.
        let u = (v + 1) % n.max(1);
        let j = mh::jaccard(
            &minhash_oracle(sketch, 2.0),
            &minhash_oracle(ads.row(u), 2.0),
        );
        let got = similarity::neighborhood_jaccard(row, view.row(u), 2.0);
        assert_bits(got, j, &at("jaccard"));
        assert_bits(
            engine.jaccard_batch(&[(v, u)], 2.0)[0],
            j,
            &at("jaccard batch"),
        );
    }
    assert_curve_bits(
        &distance_distribution_estimate(view),
        &distance_distribution_estimate(ads),
        "distance distribution",
    );
}

/// `ads` with rows 1, 4, 7, … emptied: a store whose empty rows sit
/// among built ones.
pub fn with_empty_rows(ads: &AdsSet) -> AdsSet {
    let rows = (0..ads.num_nodes() as NodeId)
        .map(|v| {
            let entries = ads.row(v).entries().filter(|_| v % 3 != 1).collect();
            BottomKAds::from_entries(ads.k(), entries)
        })
        .collect();
    reference::from_sketches(ads.k(), rows)
}
