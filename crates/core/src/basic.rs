//! Basic (pre-HIP) estimators applied to an ADS (paper, Section 4), plus
//! the naive `Q_g` estimator HIP is compared against.
//!
//! Each estimator comes in two forms: per-sketch (on a borrowed
//! [`BottomKAds`], the reference form) and `_in` (generic over any
//! [`AdsView`] — a store, addressed by node id). The two are bitwise
//! identical.

use adsketch_graph::NodeId;

use crate::bottomk::BottomKAds;
use crate::view::AdsView;

/// The basic neighborhood-cardinality estimate at distance `d`: extract
/// the bottom-k MinHash sketch of `N_d(v)` from the ADS and apply the
/// conditional inverse-probability estimator `(k−1)/τ_k`
/// (unbiased, CV ≤ `1/sqrt(k−2)`; the unique UMVUE for that sketch).
pub fn cardinality_at(ads: &BottomKAds, d: f64) -> f64 {
    ads.minhash_at(d).estimate()
}

/// The basic estimate of the number of reachable nodes.
pub fn reachable(ads: &BottomKAds) -> f64 {
    cardinality_at(ads, f64::INFINITY)
}

/// [`cardinality_at`] for node `v` of any [`AdsView`] back end.
pub fn cardinality_at_in<V: AdsView + ?Sized>(view: &V, v: NodeId, d: f64) -> f64 {
    view.minhash_at(v, d).estimate()
}

/// [`reachable`] for node `v` of any [`AdsView`] back end.
pub fn reachable_in<V: AdsView + ?Sized>(view: &V, v: NodeId) -> f64 {
    cardinality_at_in(view, v, f64::INFINITY)
}

/// The naive `Q_g` estimator the paper's Section 5.1 compares HIP against:
/// treat the k lowest-ranked reachable nodes as a uniform sample, average
/// `g` over them, and scale by the basic reachability estimate.
///
/// Its variance is ≈ `(n/k)·Σ g²` when `g` concentrates on close nodes —
/// up to a factor `n/k` worse than HIP (reproduced by the `tbl_qg_gap`
/// experiment).
pub fn naive_qg<F>(ads: &BottomKAds, mut g: F) -> f64
where
    F: FnMut(NodeId, f64) -> f64,
{
    let sketch = ads.minhash_at(f64::INFINITY);
    if sketch.is_empty() {
        return 0.0;
    }
    // The sampled nodes with their distances (k lowest-ranked entries).
    let sampled: Vec<(NodeId, f64)> = {
        let mut entries: Vec<&crate::entry::AdsEntry> = ads.entries().iter().collect();
        entries.sort_unstable_by(|a, b| a.rank.total_cmp(&b.rank).then(a.node.cmp(&b.node)));
        entries
            .iter()
            .take(ads.k())
            .map(|e| (e.node, e.dist))
            .collect()
    };
    let n_hat = sketch.estimate();
    let mean_g: f64 = sampled.iter().map(|&(v, d)| g(v, d)).sum::<f64>() / sampled.len() as f64;
    n_hat * mean_g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bottomk_from_order;
    use adsketch_util::stats::ErrorStats;
    use adsketch_util::RankHasher;

    fn order(n: usize) -> Vec<(NodeId, f64)> {
        (0..n).map(|i| (i as NodeId, i as f64)).collect()
    }

    #[test]
    fn basic_is_exact_below_k() {
        let h = RankHasher::new(1);
        let ranks: Vec<f64> = (0..10u64).map(|v| h.rank(v)).collect();
        let ads = bottomk_from_order(16, &order(10), &ranks);
        assert_eq!(reachable(&ads), 10.0);
        assert_eq!(cardinality_at(&ads, 4.0), 5.0);
    }

    #[test]
    fn basic_unbiased_at_scale() {
        let n = 500;
        let k = 8;
        let mut err = ErrorStats::new(n as f64);
        for seed in 0..3000u64 {
            let h = RankHasher::new(seed);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = bottomk_from_order(k, &order(n), &ranks);
            err.push(reachable(&ads));
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "z = {z}");
    }

    #[test]
    fn hip_variance_beats_basic_by_factor_two() {
        // The headline claim (Theorem 5.1): HIP halves the variance.
        let n = 2000;
        let k = 16;
        let mut basic_err = ErrorStats::new(n as f64);
        let mut hip_err = ErrorStats::new(n as f64);
        for seed in 0..2500u64 {
            let h = RankHasher::new(seed + 40_000);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = bottomk_from_order(k, &order(n), &ranks);
            basic_err.push(reachable(&ads));
            hip_err.push(ads.hip_weights().reachable_estimate());
        }
        let var_ratio = (basic_err.nrmse() / hip_err.nrmse()).powi(2);
        assert!(
            (var_ratio - 2.0).abs() < 0.5,
            "variance ratio {var_ratio} should be ≈ 2"
        );
    }

    #[test]
    fn naive_qg_unbiased_but_noisier_for_concentrated_g() {
        // g concentrated on the closest 5% of nodes.
        let n = 1000usize;
        let k = 16;
        let cutoff = (n / 20) as f64;
        let truth = n as f64 / 20.0;
        let mut naive_err = ErrorStats::new(truth);
        let mut hip_err = ErrorStats::new(truth);
        for seed in 0..1200u64 {
            let h = RankHasher::new(seed + 90_000);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = bottomk_from_order(k, &order(n), &ranks);
            let g = |_: NodeId, d: f64| if d < cutoff { 1.0 } else { 0.0 };
            naive_err.push(naive_qg(&ads, g));
            hip_err.push(ads.hip_weights().qg(g));
        }
        // Both unbiased…
        let z = naive_err.relative_bias() / naive_err.bias_std_error();
        assert!(z.abs() < 4.5, "naive bias z = {z}");
        // …but HIP is far more accurate on close-concentrated g.
        assert!(
            hip_err.nrmse() * 2.0 < naive_err.nrmse(),
            "HIP {} vs naive {}",
            hip_err.nrmse(),
            naive_err.nrmse()
        );
    }

    #[test]
    fn naive_qg_empty() {
        let ads = BottomKAds::empty(4);
        assert_eq!(naive_qg(&ads, |_, _| 1.0), 0.0);
    }
}
