//! k-mins MinHash sketch: the minimum rank in each of k independent
//! permutations (paper, Section 2; Cohen 1997, Flajolet–Martin style).

use adsketch_util::hashing::RankHasher;

use crate::estimators::kmins_cardinality;

/// A k-mins sketch of a set of `u64` elements.
///
/// # Examples
///
/// ```
/// use adsketch_minhash::KMinsSketch;
/// use adsketch_util::RankHasher;
///
/// let h = RankHasher::new(7);
/// let mut s = KMinsSketch::new(16);
/// for e in 0..1000u64 {
///     s.insert(&h, e);
/// }
/// let est = s.estimate();
/// assert!((est - 1000.0).abs() / 1000.0 < 0.8, "est = {est}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KMinsSketch {
    mins: Vec<f64>,
}

impl KMinsSketch {
    /// An empty sketch with `k` permutations (`k ≥ 2` so the estimator is
    /// defined).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "k-mins sketch needs k ≥ 2, got {k}");
        Self { mins: vec![1.0; k] }
    }

    /// Wraps pre-computed per-permutation minima (ADS extraction path).
    pub fn from_mins(mins: Vec<f64>) -> Self {
        assert!(mins.len() >= 2, "k-mins sketch needs k ≥ 2");
        assert!(
            mins.iter().all(|m| (0.0..=1.0).contains(m)),
            "minima must lie in [0,1]"
        );
        Self { mins }
    }

    /// The number of permutations k.
    #[inline]
    pub fn k(&self) -> usize {
        self.mins.len()
    }

    /// The per-permutation minimum ranks (1.0 for still-empty permutations).
    #[inline]
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Inserts an element; duplicate insertions are no-ops by construction
    /// (the same element always hashes to the same ranks).
    ///
    /// Returns `true` if any permutation minimum decreased.
    pub fn insert(&mut self, hasher: &RankHasher, element: u64) -> bool {
        let mut updated = false;
        for (i, m) in self.mins.iter_mut().enumerate() {
            let r = hasher.perm_rank(element, i as u32);
            if r < *m {
                *m = r;
                updated = true;
            }
        }
        updated
    }

    /// Merges another sketch of a (possibly overlapping) set built with the
    /// same hasher: element-wise minimum. The result is exactly the sketch
    /// of the union.
    pub fn merge(&mut self, other: &KMinsSketch) {
        assert_eq!(self.k(), other.k(), "cannot merge sketches of different k");
        for (m, &o) in self.mins.iter_mut().zip(&other.mins) {
            if o < *m {
                *m = o;
            }
        }
    }

    /// The basic cardinality estimate (unbiased; CV = `1/sqrt(k−2)`).
    pub fn estimate(&self) -> f64 {
        kmins_cardinality(&self.mins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "k ≥ 2")]
    fn k_must_be_at_least_two() {
        let _ = KMinsSketch::new(1);
    }

    #[test]
    fn empty_estimates_zero() {
        let s = KMinsSketch::new(4);
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn duplicates_are_noops() {
        let h = RankHasher::new(1);
        let mut s = KMinsSketch::new(8);
        s.insert(&h, 42);
        let snapshot = s.clone();
        assert!(!s.insert(&h, 42), "re-inserting must not update");
        assert_eq!(s, snapshot);
    }

    #[test]
    fn merge_equals_union() {
        let h = RankHasher::new(5);
        let mut a = KMinsSketch::new(8);
        let mut b = KMinsSketch::new(8);
        let mut ab = KMinsSketch::new(8);
        for e in 0..100 {
            a.insert(&h, e);
            ab.insert(&h, e);
        }
        for e in 50..200 {
            b.insert(&h, e);
            ab.insert(&h, e);
        }
        a.merge(&b);
        assert_eq!(a, ab);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn merge_rejects_mismatched_k() {
        let mut a = KMinsSketch::new(4);
        let b = KMinsSketch::new(8);
        a.merge(&b);
    }

    #[test]
    fn estimate_tracks_cardinality_growth() {
        let h = RankHasher::new(3);
        let mut s = KMinsSketch::new(64);
        let mut last = 0.0;
        for e in 0..10_000u64 {
            s.insert(&h, e);
            if e == 99 || e == 999 || e == 9999 {
                let est = s.estimate();
                assert!(est > last, "estimate should grow: {est} after {last}");
                let truth = (e + 1) as f64;
                assert!((est - truth).abs() / truth < 0.5, "est {est} truth {truth}");
                last = est;
            }
        }
    }
}
