//! Non-uniform node weights (paper, Section 9).
//!
//! To estimate weighted statistics `Σ_{d_vj ≤ d} β(j)` with the same CV
//! guarantees as the uniform case, the sketches are built over
//! *exponential* ranks `r(j) ~ Exp(β(j))` — equivalent to
//! `−ln(1−u)/β(j)` for the node's uniform hash `u`. Higher-weight nodes
//! then get stochastically smaller ranks and proportionally higher
//! inclusion probabilities. The same ADS definition, builders and
//! algorithms apply verbatim; only the HIP probability changes: with
//! threshold `τ` (the k-th smallest exponential rank among closer nodes),
//! node `j`'s conditional inclusion probability is
//! `p_j = P(Exp(β_j) < τ) = 1 − exp(−β_j·τ)`.

use adsketch_util::topk::KSmallest;
use adsketch_util::RankHasher;

use crate::hip::{HipItem, HipWeights};
use crate::view::Row;

/// Exponential ranks for weighted nodes: `r(v) = −ln(1−u_v)/β_v`.
///
/// Weights must be strictly positive (a zero-weight node would never be
/// sampled; filter such nodes out instead).
pub fn exponential_ranks(betas: &[f64], seed: u64) -> Vec<f64> {
    let h = RankHasher::new(seed);
    betas
        .iter()
        .enumerate()
        .map(|(v, &b)| {
            assert!(
                b > 0.0,
                "node weight must be positive, got {b} for node {v}"
            );
            h.exp_rank(v as u64, b)
        })
        .collect()
}

/// HIP presence weights for an ADS row built over exponential ranks: item `j`
/// carries `1/p_j` with `p_j = 1 − exp(−β_j·τ_j)`, an unbiased estimate of
/// the indicator "j is reachable within its distance". Weighted statistics
/// follow via [`crate::HipRow::qg`] on its [`HipWeights::row`] — e.g.
/// `qg(|v, _| beta[v])` estimates the total β-weight of the reachable
/// set.
pub fn weighted_hip(row: Row<'_>, betas: &[f64]) -> HipWeights {
    let mut ks = KSmallest::new(row.k);
    let items = row
        .entries()
        .map(|e| {
            let tau = ks.threshold_rank_or(f64::INFINITY);
            let beta = betas[e.node as usize];
            let p = if tau.is_infinite() {
                1.0
            } else {
                -(-beta * tau).exp_m1() // 1 − e^{−βτ}, numerically stable
            };
            let entered = ks.offer(e.rank, e.node as u64);
            debug_assert!(entered);
            HipItem {
                node: e.node,
                dist: e.dist,
                weight: 1.0 / p,
            }
        })
        .collect();
    HipWeights::from_sorted_items(items)
}

/// HIP estimate of the weighted neighborhood `Σ_{d_vj ≤ d} β(j)` from an
/// ADS row built over exponential ranks.
pub fn neighborhood_weight_at(row: Row<'_>, betas: &[f64], d: f64) -> f64 {
    weighted_hip(row, betas)
        .row()
        .qg(|v, dist| if dist <= d { betas[v as usize] } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{bottomk_from_order, from_sketches};
    use crate::AdsSet;
    use adsketch_graph::NodeId;
    use adsketch_util::stats::ErrorStats;

    /// The one-row store of the ADS over nodes `0..n` at distances
    /// `0..n`: its row 0 is the sketch under test.
    fn one_row(k: usize, n: usize, ranks: &[f64]) -> AdsSet {
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        from_sketches(k, vec![bottomk_from_order(k, &order, ranks)])
    }

    #[test]
    fn ranks_validate_weights() {
        let result = std::panic::catch_unwind(|| exponential_ranks(&[1.0, 0.0], 1));
        assert!(result.is_err());
    }

    #[test]
    fn heavier_nodes_sampled_more_often() {
        let n = 200usize;
        let k = 4;
        let mut betas = vec![1.0; n];
        betas[100] = 50.0; // one heavy node mid-stream
        let mut heavy = 0;
        let mut light = 0;
        let runs = 2000;
        for seed in 0..runs {
            let ranks = exponential_ranks(&betas, seed);
            let ads = one_row(k, n, &ranks);
            heavy += ads.row(0).nodes.contains(&100) as u32;
            light += ads.row(0).nodes.contains(&101) as u32;
        }
        assert!(
            heavy > light * 5,
            "heavy node sampled {heavy}, light neighbor {light}"
        );
    }

    #[test]
    fn weighted_neighborhood_estimate_unbiased() {
        let n = 300usize;
        let k = 8;
        // Power-law-ish weights.
        let betas: Vec<f64> = (0..n).map(|i| 1.0 + 50.0 / (1 + i % 17) as f64).collect();
        let truth: f64 = betas.iter().sum();
        let mut err = ErrorStats::new(truth);
        for seed in 0..2000u64 {
            let ranks = exponential_ranks(&betas, seed + 11);
            let ads = one_row(k, n, &ranks);
            err.push(neighborhood_weight_at(ads.row(0), &betas, f64::INFINITY));
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "weighted HIP bias z = {z}");
        // CV bound 1/sqrt(2(k−1)) ≈ 0.27 (allow slack for the heavy tail).
        assert!(err.nrmse() < 0.4, "NRMSE {}", err.nrmse());
    }

    #[test]
    fn uniform_weights_agree_with_unweighted_hip_rates() {
        // β ≡ 1: the exponential-rank HIP cardinality estimator must be
        // unbiased for plain cardinalities too.
        let n = 250usize;
        let k = 6;
        let betas = vec![1.0; n];
        let mut err = ErrorStats::new(n as f64);
        for seed in 0..2000u64 {
            let ranks = exponential_ranks(&betas, seed + 77);
            let ads = one_row(k, n, &ranks);
            err.push(weighted_hip(ads.row(0), &betas).row().reachable_estimate());
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "z = {z}");
    }

    #[test]
    fn prefix_weights_respect_distance() {
        let n = 100usize;
        let betas = vec![2.0; n];
        let ranks = exponential_ranks(&betas, 5);
        let ads = one_row(4, n, &ranks);
        let half = neighborhood_weight_at(ads.row(0), &betas, 49.0);
        let full = neighborhood_weight_at(ads.row(0), &betas, f64::INFINITY);
        assert!(half <= full);
        assert!(full > 0.0);
    }

    #[test]
    fn first_k_nodes_have_unit_presence_weight() {
        let n = 50usize;
        let betas: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let ranks = exponential_ranks(&betas, 9);
        let ads = one_row(4, n, &ranks);
        let hip = weighted_hip(ads.row(0), &betas);
        for &w in &hip.row().weights[..4] {
            assert_eq!(w, 1.0, "first k nodes are certain inclusions");
        }
    }
}
