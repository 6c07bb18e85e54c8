//! Golden digest of every estimator's output on fixed seeds.
//!
//! Hashes the `to_bits()` of every HIP, basic, size-only, naive-`Q_g`,
//! centrality, neighborhood-function and similarity answer over two
//! graphs (Barabási–Albert unit-weight and a weighted digraph), two
//! sketch sizes and the distance grid `{0, 1, 2, 3, ∞}`, through both the
//! per-row estimators and the batch [`QueryEngine`]. A change to any
//! floating-point operation sequence moves the digest; a refactor of the
//! estimator surface must leave it where it is.

use adsketch::core::centrality::{self, DecayKernel};
use adsketch::core::view::distance_distribution_estimate;
use adsketch::core::{basic, similarity, size_est, AdsSet, QueryEngine};
use adsketch::graph::{generators, Graph, NodeId};
use adsketch::util::rng::mix64;

/// The digest of [`digest_all`]. Recompute only for a deliberate change
/// to an estimator's arithmetic.
const GOLDEN: u64 = 0x0e29_1388_097e_1f50;

const DS: [f64; 5] = [0.0, 1.0, 2.0, 3.0, f64::INFINITY];

const KERNELS: [DecayKernel; 6] = [
    DecayKernel::Threshold(1.0),
    DecayKernel::Threshold(2.5),
    DecayKernel::Exponential { base: 2.0 },
    DecayKernel::Exponential { base: 1.5 },
    DecayKernel::Harmonic,
    DecayKernel::Constant,
];

struct Digest(u64);

impl Digest {
    fn word(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn all(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.f(x));
    }

    fn curve(&mut self, c: &[(f64, f64)]) {
        self.word(c.len() as u64);
        for &(a, b) in c {
            self.f(a);
            self.f(b);
        }
    }
}

fn odd(u: NodeId) -> f64 {
    if u % 2 == 1 {
        1.0
    } else {
        0.0
    }
}

fn digest_set(h: &mut Digest, ads: &AdsSet) {
    let n = ads.num_nodes() as NodeId;
    let all: Vec<NodeId> = (0..n).collect();

    let engine = QueryEngine::with_threads(ads, 1);
    for kernel in KERNELS {
        h.all(&engine.decay_all(kernel));
    }
    h.all(&engine.harmonic_all());
    h.all(&engine.sum_of_distances_all());
    h.all(&engine.reachable_all());
    h.all(&engine.qg_all(|u, d| odd(u) * d));
    for d in DS {
        let queries: Vec<(NodeId, f64)> = all.iter().map(|&v| (v, d)).collect();
        h.all(&engine.cardinality_batch(&queries));
    }
    for nf in engine.neighborhood_function_batch(&all) {
        h.curve(&nf);
    }

    for v in 0..n {
        let hip = ads.hip(v);
        h.f(centrality::harmonic(hip));
        h.f(centrality::sum_of_distances(hip));
        h.f(centrality::exponential(hip, 2.0));
        for kernel in KERNELS {
            h.f(centrality::decay(hip, kernel));
            h.f(centrality::decay_filtered(hip, kernel, odd));
        }
        for d in DS {
            h.f(hip.cardinality_at(d));
        }
        h.f(hip.reachable_estimate());
        h.f(hip.qg(|u, d| (u % 3) as f64 + d));
        h.f(hip.centrality(|d| 1.0 / (1.0 + d), odd));
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            h.f(hip.distance_quantile(q).unwrap_or(f64::NAN));
        }
        h.curve(&hip.compress_distances());
        h.curve(&hip.neighborhood_function());

        let row = ads.row(v);
        for d in DS {
            h.f(basic::cardinality_at(row, d));
            h.f(size_est::cardinality_at(row, d));
        }
        h.f(basic::reachable(row));
        h.f(basic::naive_qg(
            row,
            |_, d| if d <= 2.0 { 1.0 } else { 0.0 },
        ));
        h.f(basic::naive_qg(row, |_, d| d));
        h.f(basic::naive_qg(row, |u, _| (u % 3) as f64));
    }

    let pairs: Vec<(NodeId, NodeId)> = (0..n).map(|u| (u, (u * 7 + 3) % n)).collect();
    for d in DS {
        h.all(&engine.jaccard_batch(&pairs, d));
        for &(u, v) in &pairs {
            let (a, b) = (ads.row(u), ads.row(v));
            h.f(similarity::neighborhood_jaccard(a, b, d));
            h.f(similarity::neighborhood_union(a, b, d));
            h.f(similarity::neighborhood_intersection(a, b, d));
        }
    }
    h.curve(&similarity::closeness_profile(
        ads.row(0),
        ads.row(n / 2),
        &DS,
    ));
    h.curve(&distance_distribution_estimate(ads));
}

fn digest_all() -> u64 {
    let graphs: [Graph; 2] = [
        generators::barabasi_albert(300, 3, 17),
        generators::random_weighted_digraph(250, 4, 0.5, 2.5, 23),
    ];
    let mut h = Digest(0x5eed_d1ce_57ed);
    for g in &graphs {
        for (k, seed) in [(4usize, 5u64), (16, 6)] {
            h.word(k as u64);
            digest_set(&mut h, &AdsSet::build(g, k, seed));
        }
    }
    h.0
}

#[test]
fn estimator_digest_is_golden() {
    let got = digest_all();
    assert_eq!(
        got, GOLDEN,
        "estimator digest {got:#018x} moved from the golden {GOLDEN:#018x}"
    );
}
