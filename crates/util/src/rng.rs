//! Seedable pseudo-random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — tiny, fast, passes BigCrush on its 64-bit output;
//!   used for seeding and for cheap per-call randomness.
//! * [`Xoshiro256pp`] — the workhorse generator for simulations
//!   (long period 2^256−1, excellent statistical quality).
//!
//! Both implement [`Rng64`], which also supplies the derived draws the
//! library needs (unit-interval doubles, exponentials, bounded integers,
//! shuffles). Implementing these in-repo (rather than depending on `rand`)
//! keeps every simulation in the workspace reproducible from a single `u64`
//! seed, independent of external crate version bumps.

/// Multiplicative constant of the SplitMix64 finalizer.
const SM64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A 64-bit pseudo-random generator.
///
/// All derived draws (`unit_f64`, `exp`, `range_usize`, …) are provided
/// methods so every implementor samples identically from the same bit
/// stream.
pub trait Rng64 {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    ///
    /// The value `1.0` is never returned, and `0.0` occurs with probability
    /// `2^-53` — matching the paper's `r(j) ~ U[0,1]` ranks for which
    /// `P(r = 1) = 0`.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        // Take the top 53 bits; multiply by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from the *open* interval `(0, 1)`.
    ///
    /// Useful where a later `ln` must not see zero.
    #[inline]
    fn open_unit_f64(&mut self) -> f64 {
        loop {
            let u = self.unit_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// An exponentially distributed draw with rate `lambda`.
    ///
    /// Ranks with parameter `β(j)` (Section 9 of the paper) are sampled this
    /// way: `Exp(β)` via inverse CDF `-ln(1-U)/β`.
    #[inline]
    fn exp(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0, "exponential rate must be positive");
        -(-self.unit_f64()).ln_1p() / lambda
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method; unbiased.
    #[inline]
    fn range_usize(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "range bound must be positive");
        let bound = bound as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as usize;
            }
            // Rejection zone: accept unless low < 2^64 mod bound.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// A uniform integer in `[0, bound)` for `u64` bounds.
    #[inline]
    fn range_u64(&mut self, bound: u64) -> u64 {
        self.range_usize(bound as usize) as u64
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffle of `slice`, in place.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// A random permutation of `0..n` (0-based permutation ranks).
    fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        self.shuffle(&mut p);
        p
    }

    /// Samples from a geometric distribution: the number of failures before
    /// the first success of a Bernoulli(`p`) sequence. Used for skip-based
    /// G(n,p) generation.
    #[inline]
    fn geometric(&mut self, p: f64) -> u64 {
        debug_assert!(p > 0.0 && p <= 1.0);
        if p >= 1.0 {
            return 0;
        }
        let u = self.open_unit_f64();
        (u.ln() / (-p).ln_1p()).floor() as u64
    }
}

/// SplitMix64: a tiny splittable generator (Steele, Lea, Flood 2014).
///
/// The stream is `mix(seed + γ·n)` for increasing `n`; `mix` is the
/// avalanche finalizer also used by [`crate::hashing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; distinct seeds give independent
    /// streams for practical purposes.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

/// The SplitMix64 avalanche finalizer: a high-quality 64→64 bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SM64_GAMMA);
        mix64(self.state)
    }
}

/// Xoshiro256++ (Blackman & Vigna 2019): fast, 2^256−1 period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the four state words from a SplitMix64 stream, as recommended
    /// by the generator's authors (avoids the all-zero state).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }
}

impl Rng64 for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn xoshiro_known_seed_changes_state() {
        let mut x = Xoshiro256pp::new(7);
        let first = x.next_u64();
        let second = x.next_u64();
        assert_ne!(first, second);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = Xoshiro256pp::new(3);
        for _ in 0..10_000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn unit_f64_mean_is_half() {
        let mut r = Xoshiro256pp::new(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn exp_mean_matches_rate() {
        let mut r = Xoshiro256pp::new(5);
        let lambda = 3.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / lambda).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn range_usize_covers_and_bounds() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.range_usize(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_usize_is_uniform() {
        let mut r = Xoshiro256pp::new(17);
        let mut counts = [0usize; 7];
        let n = 140_000;
        for _ in 0..n {
            counts[r.range_usize(7)] += 1;
        }
        let expected = n as f64 / 7.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i}: count {c}, expected {expected}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(123);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn permutation_uniformity_smoke() {
        // Position of element 0 should be uniform across 0..5.
        let mut counts = [0usize; 5];
        for seed in 0..5_000u64 {
            let mut r = SplitMix64::new(seed);
            let p = r.permutation(5);
            let pos = p.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 1000.0).abs() < 150.0, "counts = {counts:?}");
        }
    }

    #[test]
    fn geometric_mean_matches() {
        let mut r = Xoshiro256pp::new(29);
        let p = 0.25;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.geometric(p) as f64).sum::<f64>() / n as f64;
        let expect = (1.0 - p) / p;
        assert!(
            (mean - expect).abs() < 0.1,
            "mean = {mean}, expect = {expect}"
        );
    }
}
