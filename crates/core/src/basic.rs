//! Basic (pre-HIP) estimators applied to an ADS (paper, Section 4), plus
//! the naive `Q_g` estimator HIP is compared against.

use adsketch_graph::NodeId;

use crate::view::Row;

/// The basic neighborhood-cardinality estimate at distance `d`: extract
/// the bottom-k MinHash sketch of `N_d(v)` from the ADS and apply the
/// conditional inverse-probability estimator `(k−1)/τ_k`
/// (unbiased, CV ≤ `1/sqrt(k−2)`; the unique UMVUE for that sketch).
pub fn cardinality_at(row: Row<'_>, d: f64) -> f64 {
    row.minhash_at(d).estimate()
}

/// The basic estimate of the number of reachable nodes.
pub fn reachable(row: Row<'_>) -> f64 {
    cardinality_at(row, f64::INFINITY)
}

/// The naive `Q_g` estimator the paper's Section 5.1 compares HIP against:
/// treat the k lowest-ranked reachable nodes as a uniform sample, average
/// `g` over them, and scale by the basic reachability estimate.
///
/// Its variance is ≈ `(n/k)·Σ g²` when `g` concentrates on close nodes —
/// up to a factor `n/k` worse than HIP (reproduced by the `tbl_qg_gap`
/// experiment).
pub fn naive_qg<F>(row: Row<'_>, mut g: F) -> f64
where
    F: FnMut(NodeId, f64) -> f64,
{
    if row.is_empty() {
        return 0.0;
    }
    // The sampled nodes: the row's k lowest-ranked entries.
    let mut by_rank: Vec<usize> = (0..row.len()).collect();
    by_rank.sort_unstable_by(|&a, &b| {
        row.rank(a)
            .total_cmp(&row.rank(b))
            .then(row.nodes[a].cmp(&row.nodes[b]))
    });
    by_rank.truncate(row.k);
    let n_hat = reachable(row);
    let sum_g = by_rank
        .iter()
        .fold(0.0, |acc, &i| acc + g(row.nodes[i], row.dists[i]));
    n_hat * (sum_g / by_rank.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ads_set::AdsSet;
    use crate::reference::{bottomk_from_order, from_sketches, BottomKAds};
    use adsketch_util::stats::ErrorStats;
    use adsketch_util::RankHasher;

    /// The one-row store of the ADS of a path `0, 1, …, n−1` at unit
    /// spacing under `RankHasher::new(seed)`'s ranks.
    fn path_row(k: usize, n: usize, seed: u64) -> AdsSet {
        let h = RankHasher::new(seed);
        let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        from_sketches(k, vec![bottomk_from_order(k, &order, &ranks)])
    }

    #[test]
    fn basic_is_exact_below_k() {
        let set = path_row(16, 10, 1);
        assert_eq!(reachable(set.row(0)), 10.0);
        assert_eq!(cardinality_at(set.row(0), 4.0), 5.0);
    }

    #[test]
    fn basic_unbiased_at_scale() {
        let n = 500;
        let mut err = ErrorStats::new(n as f64);
        for seed in 0..3000u64 {
            err.push(reachable(path_row(8, n, seed).row(0)));
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "z = {z}");
    }

    #[test]
    fn hip_variance_beats_basic_by_factor_two() {
        // The headline claim (Theorem 5.1): HIP halves the variance.
        let n = 2000;
        let mut basic_err = ErrorStats::new(n as f64);
        let mut hip_err = ErrorStats::new(n as f64);
        for seed in 0..2500u64 {
            let set = path_row(16, n, seed + 40_000);
            basic_err.push(reachable(set.row(0)));
            hip_err.push(set.hip(0).reachable_estimate());
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
        let cutoff = (n / 20) as f64;
        let truth = n as f64 / 20.0;
        let mut naive_err = ErrorStats::new(truth);
        let mut hip_err = ErrorStats::new(truth);
        for seed in 0..1200u64 {
            let set = path_row(16, n, seed + 90_000);
            let g = |_: NodeId, d: f64| if d < cutoff { 1.0 } else { 0.0 };
            naive_err.push(naive_qg(set.row(0), g));
            hip_err.push(set.hip(0).qg(g));
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
        let set = from_sketches(4, vec![BottomKAds::from_entries(4, Vec::new())]);
        assert_eq!(naive_qg(set.row(0), |_, _| 1.0), 0.0);
    }
}
