//! The ADS-size-only cardinality estimator (paper, Section 8, Lemma 8.1).
//!
//! The number of ADS entries within distance `d` is itself informative:
//! the unique unbiased estimator of `|N_d(v)|` based *solely* on that count
//! `s` is
//!
//! ```text
//! E_s = s                       for s ≤ k
//! E_s = k(1 + 1/k)^(s−k+1) − 1  for s > k
//! ```
//!
//! It is weaker than HIP (which also uses ranks and distances) but applies
//! when only update *counts* are observable — e.g. watching a black-box
//! approximate counter being modified.

use crate::view::Row;

/// The Lemma 8.1 estimator `E_s` for a bottom-k ADS prefix of size `s`.
pub fn size_estimator(s: usize, k: usize) -> f64 {
    assert!(k >= 1);
    if s <= k {
        s as f64
    } else {
        k as f64 * (1.0 + 1.0 / k as f64).powi((s - k + 1) as i32) - 1.0
    }
}

/// Applies the size estimator to the prefix of `row` within distance `d`.
pub fn cardinality_at(row: Row<'_>, d: f64) -> f64 {
    size_estimator(row.size_at(d), row.k)
}

/// For k = 1 the estimator is simply `2^s − 1`… no: the paper notes it "is
/// simply `2^s`" for the count of *updates*; with our convention `E_s =
/// (1+1)^{s−1+1} − 1 = 2^s − 1`, which is the unbiased form for counting
/// the source node too. This helper documents the k = 1 special case used
/// in tests.
pub fn size_estimator_k1(s: usize) -> f64 {
    size_estimator(s, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bottomk_from_order;
    use adsketch_graph::NodeId;
    use adsketch_util::stats::ErrorStats;
    use adsketch_util::RankHasher;

    #[test]
    fn small_sizes_are_identity() {
        for k in [1usize, 4, 16] {
            for s in 0..=k {
                assert_eq!(size_estimator(s, k), s as f64, "s={s}, k={k}");
            }
        }
    }

    #[test]
    fn recurrence_boundary_continuous() {
        // At s = k the closed form also gives k: k(1+1/k)^1 − 1 = k.
        for k in [1usize, 3, 8] {
            let closed = k as f64 * (1.0 + 1.0 / k as f64) - 1.0;
            assert!((closed - k as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn first_step_matches_lemma() {
        // E_{k+1} = (k+1)²/k − 1 (derived explicitly in the paper).
        for k in [2usize, 5, 10] {
            let expect = ((k + 1) * (k + 1)) as f64 / k as f64 - 1.0;
            assert!((size_estimator(k + 1, k) - expect).abs() < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn grows_exponentially() {
        let k = 8;
        let e1 = size_estimator(30, k);
        let e2 = size_estimator(31, k);
        assert!((e2 + 1.0) / (e1 + 1.0) - (1.0 + 1.0 / k as f64) < 1e-9);
    }

    /// The estimator must be unbiased over the randomness of the ranks:
    /// E[E_S] = n where S = |ADS prefix| for a neighborhood of size n.
    #[test]
    fn unbiased_over_ads_randomness() {
        let n = 200usize;
        let k = 4;
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let mut err = ErrorStats::new(n as f64);
        for seed in 0..6000u64 {
            let h = RankHasher::new(seed);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = bottomk_from_order(k, &order, &ranks);
            err.push(size_estimator(ads.len(), k));
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "size-estimator bias z = {z}");
    }

    #[test]
    fn weaker_than_hip() {
        let n = 500usize;
        let k = 8;
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let mut size_err = ErrorStats::new(n as f64);
        let mut hip_err = ErrorStats::new(n as f64);
        for seed in 0..1200u64 {
            let h = RankHasher::new(seed + 7_777);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = bottomk_from_order(k, &order, &ranks);
            size_err.push(size_estimator(ads.len(), k));
            let hip = crate::reference::hip_weights(k, ads.entries().iter().copied());
            hip_err.push(hip.row().reachable_estimate());
        }
        assert!(
            hip_err.nrmse() < size_err.nrmse(),
            "HIP {} must beat size-only {}",
            hip_err.nrmse(),
            size_err.nrmse()
        );
    }

    #[test]
    fn k1_special_case() {
        assert_eq!(size_estimator_k1(0), 0.0);
        assert_eq!(size_estimator_k1(1), 1.0);
        assert_eq!(size_estimator_k1(3), 7.0); // 2³ − 1
    }

    #[test]
    fn cardinality_at_uses_prefix() {
        let h = RankHasher::new(12);
        let n = 100usize;
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
        let set = crate::reference::from_sketches(4, vec![bottomk_from_order(4, &order, &ranks)]);
        let full = cardinality_at(set.row(0), f64::INFINITY);
        let half = cardinality_at(set.row(0), (n / 2) as f64);
        assert!(full >= half);
    }
}
