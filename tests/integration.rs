//! Cross-crate integration tests: graph substrate → ADS builders → HIP
//! estimators → exact baselines, plus the graph/stream equivalence the
//! paper's Section 3.1 rests on.

use adsketch::core::builder::{dp, local_updates, pruned_dijkstra};
use adsketch::core::{basic, centrality, reference, size_est, uniform_ranks, AdsSet};
use adsketch::graph::{exact, generators, Graph, NodeId};
use adsketch::stream::streaming_ads::FirstOccurrenceAds;
use adsketch::util::stats::{cv_basic, cv_hip, ErrorStats};
use adsketch::util::RankHasher;

/// Asserts that every entry's rank is its node's rank, bit for bit: an
/// entry samples a node, so the store's rank table is the builder's
/// `ranks`.
#[track_caller]
fn assert_entry_ranks_are_node_ranks(set: &AdsSet, ranks: &[f64], what: &str) {
    for v in 0..set.num_nodes() as NodeId {
        let row = set.row(v);
        for (i, &node) in row.nodes.iter().enumerate() {
            assert_eq!(
                row.rank(i).to_bits(),
                ranks[node as usize].to_bits(),
                "{what}: row {v}, entry {i} (node {node})"
            );
        }
    }
}

/// All three scalable builders and the brute force agree bitwise on an
/// unweighted digraph; the two weighted-capable ones agree on a weighted
/// one. On both, every builder's entry ranks are its input's node ranks.
#[test]
fn all_builders_agree_end_to_end() {
    let k = 4;
    // Unweighted directed.
    let g = generators::gnp_directed(120, 0.04, 99);
    let ranks = uniform_ranks(g.num_nodes(), 1);
    let brute = reference::build_bottomk(&g, k, &ranks);
    let built = [
        (
            "pruned dijkstra",
            pruned_dijkstra::build_with_stats(&g, k, &ranks),
        ),
        ("dp", dp::build_with_stats(&g, k, &ranks)),
        (
            "local updates",
            local_updates::build_with_stats(&g, k, &ranks, 0.0),
        ),
    ];
    assert_entry_ranks_are_node_ranks(&brute, &ranks, "brute force");
    for (what, set) in built {
        let (set, _) = set.unwrap();
        assert_eq!(set, brute, "{what}");
        assert_entry_ranks_are_node_ranks(&set, &ranks, what);
    }
    // Weighted directed.
    let gw = generators::random_weighted_digraph(90, 4, 0.5, 4.5, 5);
    let ranks_w = uniform_ranks(gw.num_nodes(), 2);
    let brute_w = reference::build_bottomk(&gw, k, &ranks_w);
    let built_w = [
        (
            "pruned dijkstra",
            pruned_dijkstra::build_with_stats(&gw, k, &ranks_w),
        ),
        (
            "local updates",
            local_updates::build_with_stats(&gw, k, &ranks_w, 0.0),
        ),
    ];
    assert_entry_ranks_are_node_ranks(&brute_w, &ranks_w, "weighted brute force");
    for (what, set) in built_w {
        let (set, _) = set.unwrap();
        assert_eq!(set, brute_w, "weighted {what}");
        assert_entry_ranks_are_node_ranks(&set, &ranks_w, what);
    }
}

/// A path digraph's ADS equals the first-occurrence streaming ADS over the
/// same elements in arrival order (Section 3.1: streams are ADSs over
/// elapsed time).
#[test]
fn graph_and_stream_ads_coincide_on_a_path() {
    let n = 400usize;
    let k = 8;
    let seed = 31;
    // Path 0→1→…→n−1: ADS(0) samples node j at distance j.
    let arcs: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let g = Graph::directed(n, &arcs).unwrap();
    let ads = AdsSet::build(&g, k, seed); // uses RankHasher(seed) ranks
    let graph_entries: Vec<_> = ads.row(0).entries().collect();

    let mut stream = FirstOccurrenceAds::new(k, seed);
    for e in 0..n as u64 {
        stream.observe(e, e as f64);
        stream.observe(e / 3, e as f64); // duplicates must be harmless
    }
    let stream_entries = stream.entries();

    assert_eq!(graph_entries.len(), stream_entries.len());
    for (gent, sent) in graph_entries.iter().zip(stream_entries) {
        assert_eq!(gent.node as u64, sent.element);
        assert_eq!(gent.dist, sent.time);
        assert_eq!(gent.rank, sent.rank);
    }
    // And the HIP weights agree too.
    let hip = reference::hip_weights(k, ads.row(0).entries());
    for (w, sent) in hip.row().weights.iter().zip(stream_entries) {
        assert!((w - sent.weight).abs() < 1e-12);
    }
}

/// HIP beats basic beats size-only, and all are unbiased, measured on one
/// fixed graph over many sketch seeds.
#[test]
fn estimator_hierarchy_on_a_graph() {
    let g = generators::barabasi_albert(600, 3, 77);
    let k = 8;
    let truth = adsketch::graph::bfs::reachable_count(&g, 0) as f64;
    let mut hip = ErrorStats::new(truth);
    let mut bas = ErrorStats::new(truth);
    let mut siz = ErrorStats::new(truth);
    for seed in 0..400 {
        let ads = AdsSet::build(&g, k, seed);
        hip.push(ads.hip(0).reachable_estimate());
        bas.push(basic::reachable(ads.row(0)));
        siz.push(size_est::cardinality_at(ads.row(0), f64::INFINITY));
    }
    for (name, e) in [("hip", &hip), ("basic", &bas), ("size", &siz)] {
        let z = e.relative_bias() / e.bias_std_error();
        assert!(z.abs() < 4.5, "{name} bias z = {z}");
    }
    assert!(
        hip.nrmse() < bas.nrmse(),
        "HIP {} vs basic {}",
        hip.nrmse(),
        bas.nrmse()
    );
    assert!(
        bas.nrmse() < siz.nrmse(),
        "basic {} vs size {}",
        bas.nrmse(),
        siz.nrmse()
    );
    // And both match their theory curves loosely.
    assert!((hip.nrmse() - cv_hip(k)).abs() / cv_hip(k) < 0.35);
    assert!((bas.nrmse() - cv_basic(k)).abs() / cv_basic(k) < 0.35);
}

/// Neighborhood-function estimates are unbiased at every distance of a
/// weighted graph.
#[test]
fn neighborhood_function_unbiased_on_weighted_graph() {
    let g = generators::random_weighted_digraph(150, 5, 0.5, 2.5, 3);
    let nf = exact::neighborhood_function(&g, 7);
    // Probe three distances spanning the range.
    let dmax = *nf.distances.last().unwrap();
    for frac in [0.25, 0.5, 1.0] {
        let d = dmax * frac;
        let truth = nf.cardinality_at(d) as f64;
        let mut err = ErrorStats::new(truth);
        for seed in 0..300 {
            let ads = AdsSet::build(&g, 8, seed + 1000);
            err.push(ads.hip(7).cardinality_at(d));
        }
        if err.bias_std_error() == 0.0 {
            // Zero variance ⇒ the estimator was exact (n_d ≤ k).
            assert_eq!(err.relative_bias(), 0.0, "d = {d}");
        } else {
            let z = err.relative_bias() / err.bias_std_error();
            assert!(z.abs() < 4.5, "d = {d}: bias z = {z}");
        }
    }
}

/// The k-mins and k-partition flavors estimate the same truth from the
/// same graph.
#[test]
fn flavors_agree_on_reachability_truth() {
    let g = generators::gnp(200, 0.03, 8);
    let truth = adsketch::graph::bfs::reachable_count(&g, 0) as f64;
    let k = 8;
    let mut kmins = ErrorStats::new(truth);
    let mut kpart = ErrorStats::new(truth);
    for seed in 0..250u64 {
        let h = RankHasher::new(seed);
        let km = adsketch::core::builder::kmins::build_with_stats(&g, k, &h, 1)
            .unwrap()
            .0;
        kmins.push(km[0].hip_weights().row().reachable_estimate());
        let kp = adsketch::core::builder::kpartition::build_with_stats(&g, k, &h, 1)
            .unwrap()
            .0;
        kpart.push(kp[0].hip_weights().row().reachable_estimate());
    }
    for (name, e) in [("kmins", &kmins), ("kpartition", &kpart)] {
        let z = e.relative_bias() / e.bias_std_error();
        assert!(z.abs() < 4.5, "{name} bias z = {z}");
    }
}

/// Harmonic centrality ranking from sketches correlates strongly with the
/// exact ranking (Spearman on a medium graph).
#[test]
fn centrality_ranking_correlates_with_exact() {
    let n = 300;
    let g = generators::barabasi_albert(n, 3, 5);
    let ads = AdsSet::build(&g, 32, 9);
    let est: Vec<f64> = (0..n as u32)
        .map(|v| centrality::harmonic(ads.hip(v)))
        .collect();
    let exact: Vec<f64> = (0..n as u32)
        .map(|v| exact::harmonic_centrality(&g, v))
        .collect();
    let rho = spearman(&est, &exact);
    assert!(rho > 0.85, "Spearman correlation {rho}");
}

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
        let mut r = vec![0.0; v.len()];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let (ra, rb) = (rank(a), rank(b));
    let n = a.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..a.len() {
        num += (ra[i] - mean) * (rb[i] - mean);
        da += (ra[i] - mean).powi(2);
        db += (rb[i] - mean).powi(2);
    }
    num / (da * db).sqrt()
}

/// Edge-list I/O round-trips through ADS construction deterministically.
#[test]
fn io_roundtrip_preserves_sketches() {
    let g = generators::gnp_directed(80, 0.06, 12);
    let mut buf = Vec::new();
    adsketch::graph::io::write_edge_list(&g, &mut buf).unwrap();
    let g2 = adsketch::graph::io::read_edge_list(buf.as_slice())
        .unwrap()
        .into_directed()
        .unwrap();
    // Note: isolated trailing nodes would be dropped by max-id inference;
    // this generator's graphs are dense enough that ids survive.
    assert_eq!(g.num_nodes(), g2.num_nodes());
    let a = AdsSet::build(&g, 4, 3);
    let b = AdsSet::build(&g2, 4, 3);
    assert_eq!(a, b);
}

/// Weighted-node sketches (Section 9) estimate β-weighted neighborhoods
/// on a real graph.
#[test]
fn weighted_node_sketches_on_graph() {
    use adsketch::core::weighted;
    let g = generators::gnp(150, 0.05, 21);
    let betas: Vec<f64> = (0..150).map(|i| 1.0 + (i % 7) as f64).collect();
    let truth: f64 = {
        // Total β over the reachable set of node 0.
        let reach = adsketch::graph::dijkstra::dijkstra_distances(&g, 0);
        reach
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .map(|(v, _)| betas[v])
            .sum()
    };
    let mut err = ErrorStats::new(truth);
    for seed in 0..400 {
        let ranks = weighted::exponential_ranks(&betas, seed);
        let (ads, _) = pruned_dijkstra::build_with_stats(&g, 8, &ranks).unwrap();
        err.push(weighted::neighborhood_weight_at(
            ads.row(0),
            &betas,
            f64::INFINITY,
        ));
    }
    let z = err.relative_bias() / err.bias_std_error();
    assert!(z.abs() < 4.5, "weighted bias z = {z}");
}
