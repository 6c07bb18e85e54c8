//! The paper's claims, asserted against exact ground truth.
//!
//! The bins under `crates/bench` print measured errors next to the
//! paper's closed forms; these tests assert them. Sketches of
//! Barabási–Albert graphs at k = 16 go through the files an analyst
//! keeps — v1, then v2, then a verified load, so the weights under test
//! are the ones a v2 load derives — and are compared with
//! `graph::exact`.
//!
//! One graph holds `R` disjoint Barabási–Albert components, each from
//! its own seed. Ranks are drawn independently per node, so the
//! components' sketches are independent draws: one *run* is one
//! component. The nodes of one component share its ranks, and their
//! errors rise and fall together, so a run counts once however many
//! nodes it has. Every tolerance below is a sampling error over `R`
//! runs, derived next to its assert and never tuned to the data.

use adsketch::core::{AdsSet, FrozenAdsSet, StoreFormat};
use adsketch::graph::{exact, generators, Graph, NodeId};
use adsketch::util::stats::cv_hip;

const K: usize = 16;
/// Independent runs: components.
const R: usize = 150;
/// Nodes per component.
const C: usize = 200;
/// Barabási–Albert attachment degree.
const M: usize = 3;

/// `R` disjoint BA(`C`, `M`) components, component `j` from seed `j`.
fn components() -> Graph {
    let edges: Vec<(NodeId, NodeId)> = (0..R)
        .flat_map(|j| {
            let base = (j * C) as NodeId;
            generators::barabasi_albert_edges(C, M, 0x9a9e_2014 + j as u64)
                .into_iter()
                .map(move |(u, v)| (base + u, base + v))
        })
        .collect();
    Graph::undirected(R * C, &edges).expect("valid ids")
}

/// The sketches of [`components`], built, written as v1, re-encoded as
/// v2 and loaded back verified: every weight is one a v2 load derived.
fn through_the_files(g: &Graph) -> FrozenAdsSet {
    let built = AdsSet::build(g, K, 0x5eed_2014);
    let v1 = FrozenAdsSet::from_bytes(&built.to_bytes()).expect("v1 loads");
    let v2 = v1.to_bytes_format(StoreFormat::V2);
    assert_eq!(&v2[40..44], &[0, 0, 0, 2], "v2 derives its weights");
    let loaded = FrozenAdsSet::from_bytes(&v2).expect("verified v2 load");
    assert_eq!(loaded.format_version(), 2);
    assert_eq!(loaded, built, "v1 → v2 → load is bitwise lossless");
    loaded
}

/// `H_n`, the n-th harmonic number.
fn harmonic(n: usize) -> f64 {
    (1..=n).map(|i| 1.0 / i as f64).sum()
}

#[test]
fn bottom_k_ads_sizes_and_hip_reachability_error_match_the_paper() {
    let g = components();
    let store = through_the_files(&g);

    // Exact truth: a BA graph is connected, so every node of a component
    // reaches exactly its component.
    let truth: Vec<u64> = (0..R)
        .map(|j| exact::neighborhood_function(&g, (j * C) as NodeId).reachable())
        .collect();
    assert!(truth.iter().all(|&t| t == C as u64), "{truth:?}");

    // Lemma 2.2: a bottom-k ADS over n reachable nodes holds on average
    // Σ_i min(1, k/i) = k + k(H_n − H_k) entries. Entry i > k is in
    // with probability k/i, independently of the others (its rank's
    // place among the first i is uniform and independent of theirs), so
    // one sketch's size has variance Σ_{i>k} (k/i)(1 − k/i). Counting
    // one draw per run, the mean over R runs is within 3 standard errors
    // of the expectation but for a 0.3% chance.
    let expected = K as f64 + K as f64 * (harmonic(C) - harmonic(K));
    let var: f64 = (K + 1..=C)
        .map(|i| K as f64 / i as f64 * (1.0 - K as f64 / i as f64))
        .sum();
    let mean = store.num_entries() as f64 / (R * C) as f64;
    let tol = 3.0 * (var / R as f64).sqrt();
    assert!(
        (mean - expected).abs() <= tol,
        "mean ADS size {mean:.3}, Lemma 2.2 expects {expected:.3} ± {tol:.3}"
    );

    let errors: Vec<f64> = (0..(R * C) as NodeId)
        .map(|v| store.hip(v).reachable_estimate() / truth[v as usize / C] as f64 - 1.0)
        .collect();

    // Theorem 5.1: the HIP estimate of a reachability count has CV at
    // most 1/√(2(k−1)). An NRMSE over R independent runs is off its
    // expectation by about 1/√(2R) of itself (the relative standard
    // error of a root mean square of R normal errors; averaging over a
    // run's nodes only lowers it), so the measured NRMSE stays below the
    // bound times 1 + 3/√(2R) but for a 0.3% chance.
    let nrmse = (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt();
    let slack = 1.0 + 3.0 / (2.0 * R as f64).sqrt();
    assert!(
        nrmse <= cv_hip(K) * slack,
        "HIP reachability NRMSE {nrmse:.4} over {R} runs exceeds cv_hip({K}) = {:.4} × {slack:.3}",
        cv_hip(K)
    );

    // Section 5: every adjusted weight has expectation 1, so the HIP
    // estimate is unbiased. A run's mean relative error has standard
    // deviation at most the CV bound, so the mean over R runs is within
    // 3·cv_hip(k)/√R of 0 but for a 0.3% chance. (A τ one rank too low
    // inflates every weight past the k-th entry by ≈ (k−1)/(k−2): a
    // bias this catches and the NRMSE bound does not at this size.)
    let bias = errors.iter().sum::<f64>() / errors.len() as f64;
    let tol = 3.0 * cv_hip(K) / (R as f64).sqrt();
    assert!(
        bias.abs() <= tol,
        "HIP reachability mean relative error {bias:+.4} over {R} runs exceeds ±{tol:.4}"
    );
}
