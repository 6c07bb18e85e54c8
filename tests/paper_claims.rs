//! The paper's claims, asserted against exact ground truth.
//!
//! The bins under `crates/bench` print measured errors next to the
//! paper's closed forms; these tests assert them. Sketches of
//! Barabási–Albert graphs at k = 16 go through the files an analyst
//! keeps — v1, then v2, then a verified load, so the weights under test
//! are the ones a v2 load derives — and are compared with
//! `graph::exact`. The bottom-k claims also run on a graph read from a
//! committed edge-list file, the way an analyst's graph arrives.
//!
//! One graph holds `R` disjoint Barabási–Albert components, each from
//! its own seed. Ranks are drawn independently per node, so the
//! components' sketches are independent draws: one *run* is one
//! component. The nodes of one component share its ranks, and their
//! errors rise and fall together, so a run counts once however many
//! nodes it has. Every tolerance below is a sampling error over `R`
//! runs, derived next to its assert and never tuned to the data.
//!
//! The stream half (Figures 2 and 3, Sections 5.4, 5.6, 7 and 8) calls
//! the run loops the paper bins print, `adsketch_bench::experiments`,
//! with seeds of its own: an ADS's estimators see only the ranks of the
//! nodes in distance order, so a run is one stream of distinct elements,
//! each from its own fixed seed, and the truth is the count streamed so
//! far.

use std::sync::OnceLock;

use adsketch::core::builder::{kmins, kpartition, pruned_dijkstra, BuildStats};
use adsketch::core::centrality::{self, DecayKernel};
use adsketch::core::kmins::KMinsAds;
use adsketch::core::kpartition::KPartitionAds;
use adsketch::core::{uniform_ranks, FrozenAdsSet, StoreFormat};
use adsketch::graph::{exact, generators, io, Graph, NodeId};
use adsketch::util::harmonic::{expected_kpartition_ads_size, harmonic};
use adsketch::util::ranks::BaseB;
use adsketch::util::stats::{cv_basic, cv_hip};
use adsketch::util::RankHasher;
use adsketch_bench::experiments;

const K: usize = 16;
/// Independent runs: components.
const R: usize = 150;
/// Nodes per component.
const C: usize = 200;
/// Barabási–Albert attachment degree.
const M: usize = 3;

/// The edges of `r` disjoint BA(`c`, `m`) components, component `j`
/// from seed `seed + j` on nodes `j·c .. (j+1)·c`.
fn ba_component_edges(r: usize, c: usize, m: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    (0..r)
        .flat_map(|j| {
            let base = (j * c) as NodeId;
            generators::barabasi_albert_edges(c, m, seed + j as u64)
                .into_iter()
                .map(move |(u, v)| (base + u, base + v))
        })
        .collect()
}

/// `R` disjoint BA(`C`, `M`) components, component `j` from seed `j`.
fn components() -> Graph {
    Graph::undirected(R * C, &ba_component_edges(R, C, M, 0x9a9e_2014)).expect("valid ids")
}

/// The sketches of `g`, built (`AdsSet::build`'s ranks, with
/// the build's counters), written as v1, re-encoded as v2 and loaded back
/// verified: every weight is one a v2 load derived.
fn through_the_files(g: &Graph) -> (FrozenAdsSet, BuildStats) {
    let ranks = uniform_ranks(g.num_nodes(), 0x5eed_2014);
    let (built, stats) = pruned_dijkstra::build_with_stats(g, K, &ranks).expect("valid ranks");
    let v1 = FrozenAdsSet::from_bytes(&built.to_bytes()).expect("v1 loads");
    let v2 = v1.to_bytes_format(StoreFormat::V2);
    assert_eq!(&v2[40..44], &[0, 0, 0, 2], "v2 derives its weights");
    let loaded = FrozenAdsSet::from_bytes(&v2).expect("verified v2 load");
    assert_eq!(loaded.format_version(), 2);
    assert_eq!(loaded, built, "v1 → v2 → load is bitwise lossless");
    (loaded, stats)
}

/// [`components`] and its sketches and build counters
/// [`through_the_files`], made once for every test that reads them.
fn sketched() -> &'static (Graph, FrozenAdsSet, BuildStats) {
    static SKETCHED: OnceLock<(Graph, FrozenAdsSet, BuildStats)> = OnceLock::new();
    SKETCHED.get_or_init(|| {
        let g = components();
        let (store, stats) = through_the_files(&g);
        (g, store, stats)
    })
}

/// The arcs a PrunedDijkstra build scanned: every frontier decision but
/// the source seeds, each an arc out of a node that took an entry.
fn arc_scans(stats: &BuildStats, sources: usize) -> u64 {
    stats.heap_pushes - sources as u64 + stats.pruned_at_relax
}

/// `Σ_v |ADS(v)|·outdeg_Gᵀ(v)` over nodes `lo..hi`, given each node's
/// sketch size: an insertion at `v` scans `v`'s arcs in the transpose
/// once, so a build scans at most this many arcs.
fn scan_bound(gt: &Graph, nodes: std::ops::Range<usize>, len: impl Fn(NodeId) -> usize) -> u64 {
    nodes
        .map(|v| (len(v as NodeId) * gt.out_degree(v as NodeId)) as u64)
        .sum()
}

/// `H⁽²⁾_n = Σ_{i ≤ n} 1/i²`.
fn harmonic2(n: usize) -> f64 {
    (1..=n).map(|i| 1.0 / (i * i) as f64).sum()
}

#[test]
fn k_mins_and_k_partition_ads_sizes_match_lemma_2_2() {
    let g = components();
    let hasher = RankHasher::new(0x5eed_2014);
    let (c, k, runs) = (C as f64, K as f64, R as f64);

    // Lemma 2.2, k-mins: k independent bottom-1 ADSs over the same n
    // reachable nodes. Entry i of one is in with probability 1/i,
    // independently of the others, so a sketch holds k·H_n entries on
    // average, with variance k(H_n − H⁽²⁾_n). Counting one draw per run,
    // as the bottom-k assert does, the mean over R runs is within 3
    // standard errors of the expectation but for a 0.3% chance.
    let (sketches, stats) = kmins::build_with_stats(&g, K, &hasher, 0).expect("k-mins build");
    // Section 3's cost, exactly: each of the k passes seeds every node.
    let bound = scan_bound(&g.transpose(), 0..R * C, |v| sketches[v as usize].len());
    assert!(
        arc_scans(&stats, K * R * C) <= bound,
        "k-mins scans {stats:?} > {bound}"
    );
    let mean = sketches.iter().map(KMinsAds::len).sum::<usize>() as f64 / (R * C) as f64;
    let expected = k * harmonic(C as u64);
    let tol = 3.0 * (k * (harmonic(C as u64) - harmonic2(C)) / runs).sqrt();
    assert!(
        (mean - expected).abs() <= tol,
        "mean k-mins ADS size {mean:.3}, Lemma 2.2 expects {expected:.3} ± {tol:.3}"
    );

    // Lemma 2.2, k-partition: each node falls in one of k buckets, and
    // bucket j holds a bottom-1 ADS over its B_j reachable nodes, where
    // B_j ~ Binomial(n, 1/k). Given the buckets, bucket j holds H_{B_j}
    // entries on average with variance H_{B_j} − H⁽²⁾_{B_j}, so a sketch
    // holds k·E[H_B] on average (not k·H_{n/k}, which is 1% higher here),
    // and `util::harmonic` says so.
    // Its variance is E[Σ_j (H_{B_j} − H⁽²⁾_{B_j})] + Var(Σ_j H_{B_j}).
    // Multinomial counts are negatively associated and H is increasing,
    // so no two buckets' H_{B_j} covary positively, and the variance is
    // at most k·(E[H_B − H⁽²⁾_B] + Var H_B). Three standard errors of
    // that, one draw per run.
    let p = 1.0 / k;
    let (mut pmf, mut h, mut h2) = ((1.0 - p).powi(C as i32), 0.0, 0.0);
    let (mut e_h, mut e_h2, mut e_hh) = (0.0, 0.0, 0.0);
    for b in 0..=C {
        if b > 0 {
            pmf *= (c - (b - 1) as f64) / b as f64 * p / (1.0 - p);
            h += 1.0 / b as f64;
            h2 += 1.0 / (b * b) as f64;
        }
        e_h += pmf * h;
        e_h2 += pmf * h2;
        e_hh += pmf * h * h;
    }
    let (sketches, stats) =
        kpartition::build_with_stats(&g, K, &hasher, 0).expect("k-partition build");
    // Each node seeds one search, in its own bucket's pass.
    let bound = scan_bound(&g.transpose(), 0..R * C, |v| sketches[v as usize].len());
    assert!(
        arc_scans(&stats, R * C) <= bound,
        "k-partition scans {stats:?} > {bound}"
    );
    let mean = sketches.iter().map(KPartitionAds::len).sum::<usize>() as f64 / (R * C) as f64;
    let expected = k * e_h;
    let util = expected_kpartition_ads_size(C as u64, K);
    assert!(
        (util - expected).abs() <= 1e-12 * expected,
        "util::harmonic expects {util} entries, k·E[H_B] = {expected}"
    );
    let var = k * (e_h - e_h2 + e_hh - e_h * e_h);
    let tol = 3.0 * (var / runs).sqrt();
    assert!(
        (mean - expected).abs() <= tol,
        "mean k-partition ADS size {mean:.3}, Lemma 2.2 expects {expected:.3} ± {tol:.3}"
    );
}

#[test]
fn bottom_k_ads_sizes_and_hip_reachability_error_match_the_paper() {
    let (g, store, _) = sketched();
    assert_bottom_k_claims(g, store, R, C);
}

/// Runs in the edge-list fixture: components.
const FILE_R: usize = 120;
/// Nodes per component in the edge-list fixture.
const FILE_C: usize = 40;
/// Barabási–Albert attachment degree in the edge-list fixture.
const FILE_M: usize = 2;
/// Component `j` of the edge-list fixture is generated from this + `j`.
const FILE_SEED: u64 = 0xf11e_2014;

/// The bottom-k claims on a graph that enters through the front door: an
/// edge-list file read with `graph::io`, as an analyst's graph would.
/// The committed file holds `FILE_R` disjoint BA(`FILE_C`, `FILE_M`)
/// components, one line per undirected edge; it is rewritten only when
/// `ADSKETCH_REGEN_FIXTURES` is set, like the golden store fixtures.
#[test]
fn bottom_k_claims_hold_on_an_edge_list_read_from_a_file() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/ba_components_r120_c40_m2.txt");
    if std::env::var("ADSKETCH_REGEN_FIXTURES").is_ok() {
        use std::fmt::Write;
        let mut text = format!(
            "# {FILE_R} disjoint Barabasi-Albert components, {FILE_C} nodes each, attachment degree {FILE_M}.\n\
             # Component j: generators::barabasi_albert_edges({FILE_C}, {FILE_M}, {FILE_SEED:#x} + j) on nodes j*{FILE_C} .. (j+1)*{FILE_C}.\n\
             % One undirected edge `u v` per line; rewritten by tests/paper_claims.rs under ADSKETCH_REGEN_FIXTURES.\n\n"
        );
        for (u, v) in ba_component_edges(FILE_R, FILE_C, FILE_M, FILE_SEED) {
            writeln!(text, "{u} {v}").unwrap();
        }
        std::fs::write(&path, text).unwrap();
    }
    let file = std::fs::File::open(&path).expect("committed edge-list fixture");
    let g = io::read_edge_list(std::io::BufReader::new(file))
        .expect("fixture parses")
        .into_undirected()
        .expect("fixture ids are valid");
    assert_eq!(g.num_nodes(), FILE_R * FILE_C);
    let (store, _) = through_the_files(&g);
    assert_bottom_k_claims(&g, &store, FILE_R, FILE_C);
}

/// Lemma 2.2's mean bottom-k ADS size, the HIP reachability NRMSE bound
/// (Theorem 5.1) and the HIP bias, on `r` disjoint components of `c`
/// nodes each (component `j` on nodes `j·c .. (j+1)·c`), one run per
/// component.
fn assert_bottom_k_claims(g: &Graph, store: &FrozenAdsSet, r: usize, c: usize) {
    // Exact truth: a BA graph is connected, so every node of a component
    // reaches exactly its component.
    let truth: Vec<u64> = (0..r)
        .map(|j| exact::neighborhood_function(g, (j * c) as NodeId).reachable())
        .collect();
    assert!(truth.iter().all(|&t| t == c as u64), "{truth:?}");

    // Lemma 2.2: a bottom-k ADS over n reachable nodes holds on average
    // Σ_i min(1, k/i) = k + k(H_n − H_k) entries. Entry i > k is in
    // with probability k/i, independently of the others (its rank's
    // place among the first i is uniform and independent of theirs), so
    // one sketch's size has variance Σ_{i>k} (k/i)(1 − k/i). Counting
    // one draw per run, the mean over r runs is within 3 standard errors
    // of the expectation but for a 0.3% chance.
    let expected = K as f64 + K as f64 * (harmonic(c as u64) - harmonic(K as u64));
    let var: f64 = (K + 1..=c)
        .map(|i| K as f64 / i as f64 * (1.0 - K as f64 / i as f64))
        .sum();
    let mean = store.num_entries() as f64 / (r * c) as f64;
    let tol = 3.0 * (var / r as f64).sqrt();
    assert!(
        (mean - expected).abs() <= tol,
        "mean ADS size {mean:.3}, Lemma 2.2 expects {expected:.3} ± {tol:.3}"
    );

    let errors: Vec<f64> = (0..(r * c) as NodeId)
        .map(|v| store.hip(v).reachable_estimate() / truth[v as usize / c] as f64 - 1.0)
        .collect();

    // Theorem 5.1: the HIP estimate of a reachability count has CV at
    // most 1/√(2(k−1)). An NRMSE over r independent runs is off its
    // expectation by about 1/√(2r) of itself (the relative standard
    // error of a root mean square of r normal errors; averaging over a
    // run's nodes only lowers it), so the measured NRMSE stays below the
    // bound times 1 + 3/√(2r) but for a 0.3% chance.
    let nrmse = (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt();
    let slack = 1.0 + 3.0 / (2.0 * r as f64).sqrt();
    assert!(
        nrmse <= cv_hip(K) * slack,
        "HIP reachability NRMSE {nrmse:.4} over {r} runs exceeds cv_hip({K}) = {:.4} × {slack:.3}",
        cv_hip(K)
    );

    // Section 5: every adjusted weight has expectation 1, so the HIP
    // estimate is unbiased. A run's mean relative error has standard
    // deviation at most the CV bound, so the mean over r runs is within
    // 3·cv_hip(k)/√r of 0 but for a 0.3% chance. (A τ one rank too low
    // inflates every weight past the k-th entry by ≈ (k−1)/(k−2): a
    // bias this catches and the NRMSE bound does not at this size.)
    let bias = errors.iter().sum::<f64>() / errors.len() as f64;
    let tol = 3.0 * cv_hip(K) / (r as f64).sqrt();
    assert!(
        bias.abs() <= tol,
        "HIP reachability mean relative error {bias:+.4} over {r} runs exceeds ±{tol:.4}"
    );
}

#[test]
fn closeness_centrality_cv_matches_corollary_5_2() {
    let (g, store, _) = sketched();
    // One probe per run: each component's last-arrived node, a leaf
    // whose distance order spans the whole component.
    let probes: Vec<NodeId> = (0..R).map(|j| (j * C + C - 1) as NodeId).collect();
    let exact_of = |kernel: DecayKernel, beta: &dyn Fn(NodeId) -> f64| -> Vec<f64> {
        probes
            .iter()
            .map(|&v| exact::centrality_exact(g, v, |d| kernel.eval(d), beta))
            .collect()
    };

    // Corollary 5.2: for a non-increasing kernel α, the HIP estimate of
    // C_α(v) = Σ_j α(d_vj) has CV at most 1/√(2(k−1)). As for Theorem
    // 5.1, the NRMSE over R runs stays below the bound times 1 + 3 of
    // its sampling errors (measured from the runs) but for a 0.3% chance.
    for kernel in [
        DecayKernel::Harmonic,
        DecayKernel::Exponential { base: 2.0 },
    ] {
        let truth = exact_of(kernel, &|_| 1.0);
        let ratios: Vec<f64> = probes
            .iter()
            .zip(&truth)
            .map(|(&v, t)| centrality::decay(store.hip(v), kernel) / t)
            .collect();
        let (got, rse) = nrmse(&ratios, 1.0);
        assert!(
            got <= cv_hip(K) * (1.0 + 3.0 * rse),
            "{kernel:?} closeness NRMSE {got:.4} over {R} runs exceeds 1/√(2(k−1)) = {:.4} \
             × (1 + 3·{rse:.4})",
            cv_hip(K)
        );
    }

    // A β filter chosen after sketching: half the nodes, by a hash the
    // ranks never saw. HIP weights are uncorrelated, and the weight of
    // the i-th entry in distance order has variance at most (i−k)/(k−1),
    // so with g = α·β the estimate of C_{α,β}(v) = Σ_j g_j has variance
    // at most Σ_i g_i²(i−k)/(k−1). The corollary's C²/(2(k−1)) bounds
    // that sum when g is non-increasing along the order, which a filter
    // breaks; keeping a share ρ of the nodes regardless of distance lifts
    // the CV by about 1/√ρ, past the corollary's bound. What holds for
    // any β in [0, 1]: past α(0) = 0 the harmonic kernel is
    // non-increasing, so g_i²(i−k) ≤ g_i·Σ_{1<j<i} α_j, and CV(v) ≤
    // √(C_α(v)/((k−1)·C_{α,β}(v))). Each run's error over its own bound
    // has an RMS at most 1, within 3 sampling errors but for a 0.3%
    // chance, and the mean relative error is within 3 standard errors
    // of 0.
    let keep = RankHasher::new(0xb37a_f11e);
    let beta = |v: NodeId| if keep.rank(v as u64) < 0.5 { 1.0 } else { 0.0 };
    let kernel = DecayKernel::Harmonic;
    let all = exact_of(kernel, &|_| 1.0);
    let kept = exact_of(kernel, &beta);
    let errors: Vec<f64> = probes
        .iter()
        .zip(&kept)
        .map(|(&v, t)| centrality::decay_filtered(store.hip(v), kernel, beta) / t - 1.0)
        .collect();
    let normalized: Vec<f64> = errors
        .iter()
        .zip(all.iter().zip(&kept))
        .map(|(e, (a, b))| 1.0 + e / (a / ((K - 1) as f64 * b)).sqrt())
        .collect();
    let (got, rse) = nrmse(&normalized, 1.0);
    assert!(
        got <= 1.0 + 3.0 * rse,
        "β-filtered closeness: RMS of error over √(C_α/((k−1)·C_{{α,β}})) is {got:.4} over {R} \
         runs, above 1 + 3·{rse:.4}"
    );
    let mean = errors.iter().sum::<f64>() / R as f64;
    let sd = (errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (R - 1) as f64).sqrt();
    let tol = 3.0 * sd / (R as f64).sqrt();
    assert!(
        mean.abs() <= tol,
        "β-filtered closeness mean relative error {mean:+.4} over {R} runs exceeds ±{tol:.4}"
    );
}

#[test]
fn pruned_dijkstra_arc_scans_meet_the_section_3_cost_bound() {
    let (g, store, stats) = sketched();
    let gt = g.transpose();
    let (k, runs) = (K as f64, R as f64);

    // Exact, per build: every arc scan is an insertion's, so the scans
    // never exceed Σ_v |ADS(v)|·outdeg_Gᵀ(v).
    let len = |v: NodeId| store.row(v).len();
    let scans = arc_scans(stats, R * C);
    let bound = scan_bound(&gt, 0..R * C, len);
    assert!(
        scans <= bound,
        "{scans} arc scans > Σ|ADS(v)|·deg(v) = {bound}"
    );

    // Lemma 2.2 holds at every node of a component, so run j's sum has
    // expectation m_j·k(1 + H_C − H_k), m_j its arcs: Lemma 2.2 weighted
    // by degree. The mean deviation over the R runs is within 3 standard
    // errors (measured from the runs) of 0 but for a 0.3% chance.
    let per_node = k * (1.0 + harmonic(C as u64) - harmonic(K as u64));
    let dev: Vec<f64> = (0..R)
        .map(|j| {
            let nodes = j * C..(j + 1) * C;
            let arcs: usize = nodes.clone().map(|v| gt.out_degree(v as NodeId)).sum();
            scan_bound(&gt, nodes, len) as f64 - arcs as f64 * per_node
        })
        .collect();
    let mean = dev.iter().sum::<f64>() / runs;
    let sd = (dev.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (runs - 1.0)).sqrt();
    let tol = 3.0 * sd / runs.sqrt();
    assert!(
        mean.abs() <= tol,
        "Σ|ADS(v)|·deg(v) per run is off m·k(1 + H_C − H_k) by {mean:+.1}, beyond ±{tol:.1}"
    );

    // So the build scans O(k·m·ln n) arcs: H_C − H_k ≤ ln(C/k) puts the
    // expectation at c·k·m·ln C with c = (1 + ln(C/k))/ln C = 0.665 here.
    // This build reads Σ|ADS(v)|·deg(v) ÷ (k·m·ln C) = 0.658 and arc
    // scans ÷ (k·m·ln C) = 0.194: most arcs a BFS level scans lead to
    // nodes it has already seen, which cost no frontier decision.
}

/// The NRMSE of `estimates` of `truth` over independent runs, and its
/// relative sampling error: the standard error of the mean squared
/// relative error over the runs, halved for the square root
/// (δ√x / √x = δx / 2x). For normal errors that is ≈ 1/√(2R); an
/// estimator with heavier tails gets the wider error its runs show.
fn nrmse(estimates: &[f64], truth: f64) -> (f64, f64) {
    let sq: Vec<f64> = estimates
        .iter()
        .map(|e| (e / truth - 1.0).powi(2))
        .collect();
    let runs = sq.len() as f64;
    let mse = sq.iter().sum::<f64>() / runs;
    let var = sq.iter().map(|s| (s - mse).powi(2)).sum::<f64>() / (runs - 1.0);
    (mse.sqrt(), (var / runs).sqrt() / (2.0 * mse))
}

#[test]
fn bottom_k_hip_and_basic_nrmse_match_figure_2() {
    // The k = 10 panel of Figure 2, at a cardinality far past k.
    const K: usize = 10;
    const N: u64 = 2000;
    const RUNS: u64 = 1000;
    let [_, _, basic, hip, _] =
        experiments::fig2(K, N, &[N], (0..RUNS).map(|run| 0xf162_0000 + run));

    // Theorem 5.1: the bottom-k HIP estimate has CV at most
    // 1/√(2(k−1)). The measured NRMSE stays below the bound times
    // 1 + 3 sampling errors but for a 0.3% chance.
    let (got, rse) = nrmse(&hip[0], N as f64);
    assert!(
        got <= cv_hip(K) * (1.0 + 3.0 * rse),
        "bottom-k HIP NRMSE {got:.4} over {RUNS} runs exceeds 1/√(2(k−1)) = {:.4} × (1 + 3·{rse:.4})",
        cv_hip(K)
    );

    // Section 4.2: the basic estimator (k−1)/τ_k has CV 1/√(k−2) as
    // n → ∞; at n its CV is that times √(1 − (k−1)/n), 0.2% lower here.
    // The measured NRMSE is within 3 sampling errors of the limit but
    // for a 0.3% chance.
    let (got, rse) = nrmse(&basic[0], N as f64);
    assert!(
        (got / cv_basic(K) - 1.0).abs() <= 3.0 * rse,
        "bottom-k basic NRMSE {got:.4} over {RUNS} runs is not 1/√(k−2) = {:.4} ± 3·{rse:.4}",
        cv_basic(K)
    );
}

#[test]
fn permutation_beats_hip_at_the_end_of_its_domain() {
    // Section 5.4: the permutation estimator knows the domain size n.
    // Early in a stream that buys nothing over HIP; once the stream has
    // covered much of its domain it knows far more. Each run is sampled
    // at s = 0.05·n, 0.4·n and n.
    const K: usize = 10;
    const N: u64 = 1000;
    const RUNS: u64 = 1000;
    const CHECKPOINTS: [u64; 3] = [N / 20, 2 * N / 5, N];
    let [_, _, _, hip, perm] =
        experiments::fig2(K, N, &CHECKPOINTS, (0..RUNS).map(|run| 0x5e54_0000 + run));
    for (c, &s) in CHECKPOINTS.iter().enumerate() {
        let (hip, hip_rse) = nrmse(&hip[c], s as f64);
        let (perm, perm_rse) = nrmse(&perm[c], s as f64);
        if c == 0 {
            // At 0.05·n the two are alike. The ratio of the two NRMSEs
            // has relative sampling error at most the two errors in
            // quadrature (the runs are shared, and a positive
            // correlation only narrows it), so it is within 3 of them
            // of 1 but for a 0.3% chance.
            let tol = 3.0 * (perm_rse.powi(2) + hip_rse.powi(2)).sqrt();
            assert!(
                (perm / hip - 1.0).abs() <= tol,
                "at s = {s} of a {N}-element domain, permutation NRMSE {perm:.4} is not \
                 HIP's {hip:.4} within ± {tol:.4}"
            );
        } else {
            // From 0.4·n on, the permutation NRMSE is below HIP's with
            // both sampling errors against it: each is off by at most 3
            // of its own sampling errors but for a 0.3% chance.
            assert!(
                perm * (1.0 + 3.0 * perm_rse) <= hip * (1.0 - 3.0 * hip_rse),
                "permutation NRMSE {perm:.4} (± 3·{perm_rse:.4}) is not below HIP's {hip:.4} \
                 (± 3·{hip_rse:.4}) at s = {s} of a {N}-element domain"
            );
        }
    }
}

#[test]
fn base_b_hip_nrmse_matches_section_5_6() {
    // Section 5.6: HIP over ranks rounded to powers of b has CV
    // ≈ √((1+b)/(4(k−1))), the full-rank bound inflated by √((1+b)/2).
    const K: usize = 16;
    const N: u64 = 5000;
    const RUNS: u64 = 1000;
    for b in [2.0, std::f64::consts::SQRT_2] {
        let base = BaseB::new(b);
        let estimates = experiments::base_b(K, base, N, (0..RUNS).map(|run| 0xba5e_0000 + run));
        // Within 3 sampling errors of the analysis but for a 0.3% chance.
        let (got, rse) = nrmse(&estimates, N as f64);
        let want = ((1.0 + b) / (4.0 * (K - 1) as f64)).sqrt();
        assert!(
            (got / want - 1.0).abs() <= 3.0 * rse,
            "base-{b} HIP NRMSE {got:.4} over {RUNS} runs is not √((1+b)/(4(k−1))) = {want:.4} \
             ± 3·{rse:.4}"
        );
    }
}

#[test]
fn hip_on_the_hll_sketch_beats_hll_as_in_figure_3() {
    // Section 6 and Figure 3: HIP over the HyperLogLog sketch
    // (k-partition, base-2 levels) has CV ≈ √((1+b)/(4(k−1))) with
    // b = 2, below what the HLL estimator reads off the same registers.
    const K: usize = 16;
    const N: u64 = 5000;
    const RUNS: u64 = 1000;
    let [_, hll, hip] = experiments::fig3(K, N, &[N], (0..RUNS).map(|run| 0xf163_0000 + run));
    let (hip, hip_rse) = nrmse(&hip[0], N as f64);
    let (hll, hll_rse) = nrmse(&hll[0], N as f64);

    // Within 3 sampling errors of the analysis but for a 0.3% chance.
    let want = (3.0 / (4.0 * (K - 1) as f64)).sqrt();
    assert!(
        (hip / want - 1.0).abs() <= 3.0 * hip_rse,
        "HIP-on-HLL NRMSE {hip:.4} over {RUNS} runs is not √(3/(4(k−1))) = {want:.4} \
         ± 3·{hip_rse:.4}"
    );

    // Below the HLL estimator's NRMSE on the same sketches with both
    // sampling errors against HIP: each NRMSE is off by at most 3 of its
    // own sampling errors but for a 0.3% chance.
    assert!(
        hip * (1.0 + 3.0 * hip_rse) <= hll * (1.0 - 3.0 * hll_rse),
        "HIP-on-HLL NRMSE {hip:.4} (± 3·{hip_rse:.4}) is not below HLL's {hll:.4} \
         (± 3·{hll_rse:.4}) at n = {N}"
    );
}

#[test]
fn morris_counter_nrmse_matches_section_7() {
    // Section 7, after Flajolet: a Morris counter of base b has CV
    // ≈ √((b−1)/2). Each add of Δ below one step s = (b−1)·b^x adds
    // variance Δ(s − Δ) to the estimate, ≈ (b−1)n²/2 over a stream of
    // total n, less ΣΔ² ≈ 5n for the experiment's increments 1…7. At
    // n = 10⁴ that deficit is at most 6.4% of the variance (b = 1 + 2⁻⁶),
    // 3.2% of the NRMSE, inside one of the sampling errors below.
    const N: u64 = 10_000;
    const RUNS: u64 = 1000;
    for j in 0..=6 {
        let b = 1.0 + 1.0 / (1u64 << j) as f64;
        let estimates: Vec<f64> = experiments::morris(b, N, (0..RUNS).map(|run| 0x5ec7_0000 + run))
            .iter()
            .map(|c| c.estimate())
            .collect();
        // Within 3 sampling errors of the analysis but for a 0.3% chance.
        let (got, rse) = nrmse(&estimates, N as f64);
        let want = ((b - 1.0) / 2.0).sqrt();
        assert!(
            (got / want - 1.0).abs() <= 3.0 * rse,
            "base-{b} Morris NRMSE {got:.4} over {RUNS} runs is not √((b−1)/2) = {want:.4} \
             ± 3·{rse:.4}"
        );
    }
}

#[test]
fn size_only_estimator_is_unbiased_and_weakest_as_in_section_8() {
    // Section 8: the estimator that reads only the ADS size s,
    // k(1 + 1/k)^{s−k+1} − 1, is unbiased, but it uses less of the
    // sketch than the basic estimator, which uses less than HIP.
    const K: usize = 16;
    const N: usize = 1000;
    const RUNS: u64 = 1000;
    let [size, basic, hip] =
        experiments::size_estimator(K, N, (0..RUNS).map(|run| 0x5e08_0000 + run));

    // The mean relative error is within 3 standard errors of 0 but for a
    // 0.3% chance.
    let rel: Vec<f64> = size.iter().map(|e| e / N as f64 - 1.0).collect();
    let runs = RUNS as f64;
    let bias = rel.iter().sum::<f64>() / runs;
    let se = (rel.iter().map(|r| (r - bias).powi(2)).sum::<f64>() / (runs - 1.0) / runs).sqrt();
    assert!(
        bias.abs() <= 3.0 * se,
        "size-only mean relative error {bias:+.4} over {RUNS} runs exceeds ± 3·{se:.4}"
    );

    // Each NRMSE is above the next with both sampling errors against the
    // inequality: each is off by at most 3 of its own sampling errors but
    // for a 0.3% chance.
    let (size, size_rse) = nrmse(&size, N as f64);
    let (basic, basic_rse) = nrmse(&basic, N as f64);
    let (hip, hip_rse) = nrmse(&hip, N as f64);
    assert!(
        size * (1.0 - 3.0 * size_rse) >= basic * (1.0 + 3.0 * basic_rse),
        "size-only NRMSE {size:.4} (± 3·{size_rse:.4}) is not above basic {basic:.4} \
         (± 3·{basic_rse:.4}) at n = {N}"
    );
    assert!(
        basic * (1.0 - 3.0 * basic_rse) >= hip * (1.0 + 3.0 * hip_rse),
        "basic NRMSE {basic:.4} (± 3·{basic_rse:.4}) is not above HIP {hip:.4} \
         (± 3·{hip_rse:.4}) at n = {N}"
    );
}
