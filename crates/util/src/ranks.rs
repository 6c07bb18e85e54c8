//! Base-b rank discretization (paper Sections 4.4 and 5.6).
//!
//! Full-precision ranks `r ~ U[0,1)` are effectively element identifiers.
//! For cardinality-style queries the paper rounds ranks *down* to powers of
//! a base `b > 1`:
//!
//! ```text
//! r' = b^{-h},   h = ⌈ -log_b r ⌉
//! ```
//!
//! so only the small integer `h` (the *level*) needs to be stored — roughly
//! `log2 log_b n` bits. The cost is extra estimator variance: HIP variance
//! inflates by a factor ≈ `(1+b)/2` (Section 5.6), giving
//! CV ≈ `sqrt((1+b)/(4(k-1)))`. HyperLogLog is the special case `b = 2`
//! with 5-bit saturating levels.

/// A rank-rounding base `b > 1`.
///
/// # Examples
///
/// ```
/// use adsketch_util::BaseB;
///
/// let b2 = BaseB::new(2.0);
/// assert_eq!(b2.level(0.3), 2);               // 2^-2 = 0.25 ≤ 0.3 < 0.5
/// assert_eq!(b2.discretize(0.3), 0.25);
/// assert!(b2.discretize(0.3) <= 0.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseB {
    b: f64,
    ln_b: f64,
}

/// Levels are capped so `b^-level` stays a normal positive double.
const MAX_LEVEL: u32 = 1 << 20;

impl BaseB {
    /// Creates a base; panics if `b ≤ 1` (no rounding would occur).
    pub fn new(b: f64) -> Self {
        assert!(b > 1.0, "discretization base must exceed 1, got {b}");
        Self { b, ln_b: b.ln() }
    }

    /// The base value `b`.
    #[inline]
    pub fn base(&self) -> f64 {
        self.b
    }

    /// The level `h = ⌈ -log_b r ⌉` of a rank `r ∈ (0,1)`; the rounded rank
    /// is `b^-h ≤ r`. A rank of exactly `0` maps to the level cap.
    #[inline]
    pub fn level(&self, r: f64) -> u32 {
        debug_assert!((0.0..1.0).contains(&r), "rank out of range: {r}");
        if r <= 0.0 {
            return MAX_LEVEL;
        }
        // Guard against float noise pushing an exact power of 1/b (whose
        // level should be h) up to h+1: nudge by one ulp-scale epsilon
        // before taking the ceiling.
        let h = (-r.ln() / self.ln_b - 1e-9).ceil();
        if h < 1.0 {
            // r very close to 1 can give h = 0 (e.g. r = 0.999..): the paper's
            // rounding maps such ranks to b^0 = 1? No: h = ⌈-log_b r⌉ ≥ 0 and
            // h = 0 only when r = 1, which U[0,1) excludes; guard for float
            // round-off by clamping to level 1 ⇒ r' = 1/b < 1.
            1
        } else if h >= MAX_LEVEL as f64 {
            MAX_LEVEL
        } else {
            h as u32
        }
    }

    /// The rank value `b^-level` a level represents.
    #[inline]
    pub fn value(&self, level: u32) -> f64 {
        self.b.powi(-(level.min(MAX_LEVEL) as i32))
    }

    /// Rounds a rank down to the nearest power of `1/b`: `b^{-level(r)}`.
    #[inline]
    pub fn discretize(&self, r: f64) -> f64 {
        self.value(self.level(r))
    }

    /// Expected multiplicative variance inflation of HIP estimates under
    /// base-b rounding: `(1+b)/2` (Section 5.6 back-of-the-envelope, shown
    /// there to match simulation).
    #[inline]
    pub fn variance_inflation(&self) -> f64 {
        (1.0 + self.b) / 2.0
    }

    /// First-order CV of the base-b bottom-k HIP estimator:
    /// `sqrt((1+b)/(4(k-1)))` (Section 5.6).
    #[inline]
    pub fn hip_cv(&self, k: usize) -> f64 {
        assert!(k > 1);
        ((1.0 + self.b) / (4.0 * (k - 1) as f64)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn base_must_exceed_one() {
        let _ = BaseB::new(1.0);
    }

    #[test]
    fn level_value_roundtrip() {
        let b = BaseB::new(2.0);
        for h in 1..40u32 {
            assert_eq!(b.level(b.value(h)), h, "level(value({h}))");
        }
    }

    #[test]
    fn discretize_never_exceeds_rank() {
        let b = BaseB::new(1.3);
        let mut r = 0.9999;
        while r > 1e-12 {
            let d = b.discretize(r);
            assert!(d <= r + 1e-15, "discretize({r}) = {d} > r");
            assert!(d >= r / b.base() - 1e-15, "discretize({r}) = {d} too small");
            r *= 0.63;
        }
    }

    #[test]
    fn base2_matches_hll_convention() {
        // HLL stores ⌈-log2 r⌉; spot-check boundary behaviour.
        let b = BaseB::new(2.0);
        assert_eq!(b.level(0.5), 1); // -log2(0.5) = 1, ceil = 1
        assert_eq!(b.level(0.5000001), 1);
        assert_eq!(b.level(0.4999999), 2);
        assert_eq!(b.level(0.25), 2);
    }

    #[test]
    fn zero_rank_maps_to_cap() {
        let b = BaseB::new(2.0);
        assert_eq!(b.level(0.0), MAX_LEVEL);
        assert!(b.value(MAX_LEVEL) >= 0.0);
    }

    #[test]
    fn near_one_rank_clamps_to_level_one() {
        let b = BaseB::new(2.0);
        let r = 0.999_999_999_999;
        assert_eq!(b.level(r), 1);
        assert!(b.discretize(r) <= r);
    }

    #[test]
    fn expected_rounding_ratio_matches_half_one_plus_b() {
        // E[r / discretize(r)] over uniform ranks ≈ (1+b)/2 (Section 5.6).
        use crate::rng::{Rng64, Xoshiro256pp};
        for &base in &[2.0, 1.5, 1.1] {
            let b = BaseB::new(base);
            let mut rng = Xoshiro256pp::new(8);
            let n = 200_000;
            let mean: f64 = (0..n)
                .map(|_| {
                    let r = rng.open_unit_f64();
                    r / b.discretize(r)
                })
                .sum::<f64>()
                / n as f64;
            let expect = b.variance_inflation();
            assert!(
                (mean - expect).abs() / expect < 0.02,
                "base {base}: mean ratio {mean}, expect {expect}"
            );
        }
    }

    #[test]
    fn hip_cv_formula() {
        let b = BaseB::new(2.0);
        let cv = b.hip_cv(16);
        assert!((cv - (3.0f64 / 60.0).sqrt()).abs() < 1e-12);
    }
}
