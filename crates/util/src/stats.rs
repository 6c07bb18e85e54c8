//! Estimation-quality statistics.
//!
//! The paper evaluates estimators by their Coefficient of Variation
//! (CV = sd/mean), Normalized Root Mean Square Error (NRMSE — equal to the
//! CV for unbiased estimators), and Mean Relative Error (MRE). This module
//! provides numerically stable accumulators for those metrics plus the
//! closed-form reference values quoted in the paper's figures.

/// Welford online mean/variance accumulator.
///
/// # Examples
///
/// ```
/// use adsketch_util::RunningStat;
///
/// let mut s = RunningStat::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12); // sample variance
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStat {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStat {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation sd/|mean| (0 if mean is 0).
    #[inline]
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// combination).
    pub fn merge(&mut self, other: &RunningStat) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        *self = Self { n, mean, m2 };
    }
}

/// Accumulates estimate-vs-truth pairs for a *fixed* true value and reports
/// the paper's error metrics.
///
/// NRMSE = `sqrt(E[(n − n̂)²]) / n`, MRE = `E[|n − n̂|] / n`,
/// relative bias = `(E[n̂] − n) / n`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ErrorStats {
    n: u64,
    sum_err: f64,
    sum_sq_err: f64,
    sum_abs_err: f64,
    truth: f64,
}

impl ErrorStats {
    /// An accumulator for estimates of the true value `truth`.
    pub fn new(truth: f64) -> Self {
        Self {
            truth,
            ..Self::default()
        }
    }

    /// Records one estimate.
    #[inline]
    pub fn push(&mut self, estimate: f64) {
        let err = estimate - self.truth;
        self.n += 1;
        self.sum_err += err;
        self.sum_sq_err += err * err;
        self.sum_abs_err += err.abs();
    }

    /// Number of recorded estimates.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The fixed true value.
    #[inline]
    pub fn truth(&self) -> f64 {
        self.truth
    }

    /// Normalized root mean square error.
    #[inline]
    pub fn nrmse(&self) -> f64 {
        if self.n == 0 || self.truth == 0.0 {
            0.0
        } else {
            (self.sum_sq_err / self.n as f64).sqrt() / self.truth
        }
    }

    /// Mean relative error.
    #[inline]
    pub fn mre(&self) -> f64 {
        if self.n == 0 || self.truth == 0.0 {
            0.0
        } else {
            self.sum_abs_err / self.n as f64 / self.truth
        }
    }

    /// Relative bias `(mean estimate − truth)/truth`.
    #[inline]
    pub fn relative_bias(&self) -> f64 {
        if self.n == 0 || self.truth == 0.0 {
            0.0
        } else {
            self.sum_err / self.n as f64 / self.truth
        }
    }

    /// Standard error of the relative bias — used by unbiasedness tests to
    /// convert bias into a z-score.
    pub fn bias_std_error(&self) -> f64 {
        if self.n < 2 || self.truth == 0.0 {
            return 0.0;
        }
        let mean_err = self.sum_err / self.n as f64;
        let var = (self.sum_sq_err / self.n as f64 - mean_err * mean_err).max(0.0);
        (var / self.n as f64).sqrt() / self.truth
    }

    /// Merges another accumulator (must share the same truth).
    pub fn merge(&mut self, other: &ErrorStats) {
        assert_eq!(self.truth, other.truth, "merging mismatched truths");
        self.n += other.n;
        self.sum_err += other.sum_err;
        self.sum_sq_err += other.sum_sq_err;
        self.sum_abs_err += other.sum_abs_err;
    }
}

/// Natural-log gamma via the Lanczos approximation (g = 7, n = 9), accurate
/// to ~1e-13 for positive arguments; used by the closed-form MRE formulas.
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires positive argument, got {x}");
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Exact CV of the basic k-mins estimator: `1/sqrt(k-2)` (Section 4.1).
/// Also an upper bound on the basic bottom-k estimator's CV (Lemma 4.3).
pub fn cv_basic(k: usize) -> f64 {
    assert!(k > 2, "basic-estimator CV is finite only for k > 2");
    1.0 / ((k - 2) as f64).sqrt()
}

/// First-order upper bound on the bottom-k HIP estimator CV:
/// `1/sqrt(2(k-1))` (Theorem 5.1).
pub fn cv_hip(k: usize) -> f64 {
    assert!(k > 1, "HIP CV bound requires k > 1");
    1.0 / (2.0 * (k - 1) as f64).sqrt()
}

/// Asymptotic lower bound on any unbiased ADS cardinality estimator CV:
/// `1/sqrt(2k)` (Theorem 5.2).
pub fn cv_lower_bound(k: usize) -> f64 {
    assert!(k > 0);
    1.0 / (2.0 * k as f64).sqrt()
}

/// Exact MRE of the basic k-mins estimator,
/// `2(k-1)^{k-2} / ((k-2)! · e^{k-1})` (Section 4.1), evaluated in log-space
/// so it does not overflow for large k.
pub fn mre_basic_exact(k: usize) -> f64 {
    assert!(k > 2);
    let kf = (k - 1) as f64;
    // ln MRE = ln 2 + (k-2) ln(k-1) − ln((k-2)!) − (k-1)
    let ln_mre = (2.0f64).ln() + (k as f64 - 2.0) * kf.ln() - ln_gamma(k as f64 - 1.0) - kf;
    ln_mre.exp()
}

/// First-order approximation of the basic estimator MRE:
/// `sqrt(2/(π(k-2)))` (Section 4.1).
pub fn mre_basic_approx(k: usize) -> f64 {
    assert!(k > 2);
    (2.0 / (std::f64::consts::PI * (k - 2) as f64)).sqrt()
}

/// Reference MRE for the HIP estimator plotted in Figure 2:
/// `sqrt(1/(π(k-1)))`.
pub fn mre_hip_approx(k: usize) -> f64 {
    assert!(k > 1);
    (1.0 / (std::f64::consts::PI * (k - 1) as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stat_basics() {
        let mut s = RunningStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.push(2.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.variance(), 0.0);
        s.push(4.0);
        assert_eq!(s.mean(), 3.0);
        assert!((s.variance() - 2.0).abs() < 1e-12);
        assert!((s.cv() - 2.0f64.sqrt() / 3.0).abs() < 1e-12);
    }

    #[test]
    fn running_stat_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStat::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = RunningStat::new();
        let mut right = RunningStat::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn running_stat_merge_with_empty() {
        let mut a = RunningStat::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&RunningStat::new());
        assert_eq!(a, before);
        let mut e = RunningStat::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn error_stats_metrics() {
        let mut e = ErrorStats::new(10.0);
        e.push(8.0); // err -2
        e.push(12.0); // err +2
        assert_eq!(e.relative_bias(), 0.0);
        assert!((e.nrmse() - 0.2).abs() < 1e-12);
        assert!((e.mre() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn error_stats_bias() {
        let mut e = ErrorStats::new(100.0);
        for _ in 0..10 {
            e.push(110.0);
        }
        assert!((e.relative_bias() - 0.1).abs() < 1e-12);
        assert!((e.nrmse() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn error_stats_merge() {
        let mut a = ErrorStats::new(5.0);
        a.push(4.0);
        let mut b = ErrorStats::new(5.0);
        b.push(6.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.relative_bias(), 0.0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..n).map(|i| i as f64).product();
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-9,
                "ln_gamma({n})"
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(π)
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn cv_reference_values() {
        assert!((cv_basic(6) - 0.5).abs() < 1e-12);
        assert!((cv_hip(3) - 0.5).abs() < 1e-12);
        assert!((cv_lower_bound(2) - 0.5).abs() < 1e-12);
        // HIP beats basic by ~sqrt(2) for large k.
        let ratio = cv_basic(100) / cv_hip(100);
        assert!((ratio - 2f64.sqrt()).abs() < 0.03, "ratio {ratio}");
    }

    #[test]
    fn mre_exact_close_to_approx_for_large_k() {
        for &k in &[10usize, 50, 200] {
            let exact = mre_basic_exact(k);
            let approx = mre_basic_approx(k);
            // The closed form approaches the first-order approximation from
            // below as k grows (Stirling); the gap is ~7% at k=10.
            assert!(exact < approx, "k={k}: exact {exact} ≥ approx {approx}");
            let rel = (approx - exact) / approx;
            let tol = 0.8 / (k as f64).sqrt();
            assert!(
                rel < tol,
                "k={k}: exact {exact}, approx {approx}, rel {rel}"
            );
        }
    }

    #[test]
    fn mre_hip_below_basic() {
        for &k in &[5usize, 10, 50] {
            assert!(mre_hip_approx(k) < mre_basic_approx(k));
        }
    }
}
