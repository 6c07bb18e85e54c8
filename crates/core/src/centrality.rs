//! Distance-decay closeness centralities over HIP weights
//! (paper, equations (2)/(3) and Corollary 5.2).
//!
//! All of these are instances of `C_{α,β}(v) = Σ_j α(d_vj) β(j)` with a
//! non-increasing kernel `α` and an arbitrary non-negative node filter `β`
//! — estimated unbiasedly from `ADS(v)` with CV ≤ `1/sqrt(2(k−1))`
//! (uniform β; see [`crate::weighted`] for β-aware sketches with the same
//! guarantee for non-uniform β).
//!
//! Each takes a node's [`HipRow`] (a store's `hip(v)` or an owned
//! [`crate::HipWeights`]'s `row()`); batch evaluation over all nodes
//! lives in [`crate::engine::QueryEngine`].

use adsketch_graph::NodeId;

use crate::hip::HipRow;

/// Standard decay kernels from the paper's introduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayKernel {
    /// `α(x) = 1` for `x ≤ d`, else 0 — neighborhood cardinality.
    Threshold(f64),
    /// `α(x) = base^(−x)` — exponential attenuation (Dangalchev's residual
    /// closeness uses base 2).
    Exponential {
        /// The attenuation base (> 1).
        base: f64,
    },
    /// `α(x) = 1/x` for `x > 0`, `α(0) = 0` — harmonic centrality
    /// (Opsahl; Boldi–Vigna's axiomatically favored centrality).
    Harmonic,
    /// `α(x) ≡ 1` — count of reachable nodes.
    Constant,
}

impl DecayKernel {
    /// Evaluates the kernel.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        match *self {
            DecayKernel::Threshold(d) => {
                if x <= d {
                    1.0
                } else {
                    0.0
                }
            }
            DecayKernel::Exponential { base } => base.powf(-x),
            DecayKernel::Harmonic => {
                if x > 0.0 {
                    1.0 / x
                } else {
                    0.0
                }
            }
            DecayKernel::Constant => 1.0,
        }
    }
}

/// HIP estimate of harmonic centrality `Σ_{j≠v} 1/d_vj`.
pub fn harmonic(hip: HipRow<'_>) -> f64 {
    decay(hip, DecayKernel::Harmonic)
}

/// HIP estimate of the sum of distances `Σ_j d_vj` — the inverse of classic
/// (Bavelas) closeness centrality. Note `g(d) = d` is *increasing*, so the
/// Corollary 5.2 CV bound does not apply; Corollary 5.3 bounds the variance
/// instead (estimation is still unbiased).
pub fn sum_of_distances(hip: HipRow<'_>) -> f64 {
    hip.qg(|_, d| d)
}

/// HIP estimate of exponentially attenuated centrality `Σ_j base^(−d_vj)`.
pub fn exponential(hip: HipRow<'_>, base: f64) -> f64 {
    assert!(base > 1.0, "attenuation base must exceed 1");
    decay(hip, DecayKernel::Exponential { base })
}

/// HIP estimate of `C_α(v) = Σ_j α(d_vj)` for any kernel.
pub fn decay(hip: HipRow<'_>, kernel: DecayKernel) -> f64 {
    hip.qg(|_, d| kernel.eval(d))
}

/// HIP estimate of the filtered centrality `C_{α,β}(v)`; the filter `β`
/// can be supplied at query time, long after the sketches were built —
/// the flexibility the paper highlights for social-network analytics.
pub fn decay_filtered<B>(hip: HipRow<'_>, kernel: DecayKernel, mut beta: B) -> f64
where
    B: FnMut(NodeId) -> f64,
{
    hip.qg(|v, d| kernel.eval(d) * beta(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ads_set::AdsSet;
    use adsketch_graph::exact;
    use adsketch_graph::generators;
    use adsketch_util::stats::RunningStat;

    #[test]
    fn kernel_shapes() {
        assert_eq!(DecayKernel::Threshold(2.0).eval(2.0), 1.0);
        assert_eq!(DecayKernel::Threshold(2.0).eval(2.1), 0.0);
        assert_eq!(DecayKernel::Exponential { base: 2.0 }.eval(3.0), 0.125);
        assert_eq!(DecayKernel::Harmonic.eval(2.0), 0.5);
        assert_eq!(DecayKernel::Harmonic.eval(0.0), 0.0);
        assert_eq!(DecayKernel::Constant.eval(9.0), 1.0);
    }

    #[test]
    fn harmonic_estimate_tracks_exact() {
        let g = generators::barabasi_albert(250, 3, 5);
        let truth = exact::harmonic_centrality(&g, 0);
        let mut stat = RunningStat::new();
        for seed in 0..60 {
            let ads = AdsSet::build(&g, 16, seed);
            stat.push(harmonic(ads.hip(0)));
        }
        let rel = (stat.mean() - truth).abs() / truth;
        assert!(rel < 0.1, "mean {} vs exact {truth}", stat.mean());
        // CV should be in the ballpark of the bound 1/sqrt(2·15) ≈ 0.18.
        assert!(stat.cv() < 0.25, "cv {}", stat.cv());
    }

    #[test]
    fn sum_of_distances_tracks_exact() {
        let g = generators::gnp(200, 0.04, 9);
        let truth = exact::sum_of_distances(&g, 5);
        let mut stat = RunningStat::new();
        for seed in 0..60 {
            let ads = AdsSet::build(&g, 16, seed + 100);
            stat.push(sum_of_distances(ads.hip(5)));
        }
        let rel = (stat.mean() - truth).abs() / truth;
        assert!(rel < 0.1, "mean {} vs exact {truth}", stat.mean());
    }

    #[test]
    fn exponential_decay_tracks_exact() {
        let g = generators::gnp(150, 0.05, 3);
        let truth = exact::centrality_exact(&g, 2, |d| 2.0f64.powf(-d), |_| 1.0);
        let mut stat = RunningStat::new();
        for seed in 0..80 {
            let ads = AdsSet::build(&g, 16, seed + 500);
            stat.push(exponential(ads.hip(2), 2.0));
        }
        let rel = (stat.mean() - truth).abs() / truth;
        assert!(rel < 0.1, "mean {} vs exact {truth}", stat.mean());
    }

    #[test]
    fn beta_filter_applied_after_sketching() {
        // β keeps only odd nodes; sketches know nothing about β.
        let g = generators::gnp(180, 0.05, 13);
        let kernel = DecayKernel::Threshold(2.0);
        let truth = exact::centrality_exact(
            &g,
            1,
            |d| kernel.eval(d),
            |v| if v % 2 == 1 { 1.0 } else { 0.0 },
        );
        let mut stat = RunningStat::new();
        for seed in 0..80 {
            let ads = AdsSet::build(&g, 16, seed + 900);
            stat.push(decay_filtered(ads.hip(1), kernel, |v| {
                if v % 2 == 1 {
                    1.0
                } else {
                    0.0
                }
            }));
        }
        let rel = (stat.mean() - truth).abs() / truth;
        assert!(rel < 0.12, "mean {} vs exact {truth}", stat.mean());
    }

    #[test]
    #[should_panic(expected = "base must exceed 1")]
    fn exponential_rejects_bad_base() {
        let _ = exponential(crate::HipWeights::from_sorted_items(Vec::new()).row(), 1.0);
    }
}
