//! Bounded "k smallest values" maintenance.
//!
//! Bottom-k sketches and HIP estimation both need the same primitive: scan a
//! stream of `(rank, id)` pairs and know, at every step, the current k-th
//! smallest rank (the *inclusion threshold* `τ`). [`KSmallest`] maintains the
//! k smallest items in a max-heap keyed by `(rank, id)`, giving O(log k)
//! insertion and O(1) threshold queries.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(rank, id)` pair ordered lexicographically with `f64::total_cmp`.
///
/// Ties on rank are broken by id so the order is total even if two elements
/// hash to the same rank (relevant for discretized ranks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedItem {
    /// The rank value (any finite float; smaller = "earlier in permutation").
    pub rank: f64,
    /// The element identifier.
    pub id: u64,
}

impl Eq for RankedItem {}

impl PartialOrd for RankedItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank
            .total_cmp(&other.rank)
            .then(self.id.cmp(&other.id))
    }
}

/// Maintains the k smallest [`RankedItem`]s seen so far.
///
/// # Examples
///
/// ```
/// use adsketch_util::KSmallest;
///
/// let mut ks = KSmallest::new(2);
/// assert_eq!(ks.threshold(), None); // fewer than k items: threshold is sup
/// ks.offer(0.9, 1);
/// ks.offer(0.5, 2);
/// ks.offer(0.7, 3); // evicts 0.9
/// assert_eq!(ks.threshold().unwrap().rank, 0.7);
/// assert!(!ks.would_enter(0.8, 4));
/// assert!(ks.would_enter(0.1, 5));
/// ```
#[derive(Debug, Clone)]
pub struct KSmallest {
    k: usize,
    heap: BinaryHeap<RankedItem>, // max-heap: peek() is the k-th smallest
}

impl KSmallest {
    /// Creates an empty structure retaining the `k` smallest items.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The retention parameter k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of retained items (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no items have been offered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current k-th smallest item, or `None` while fewer than k items
    /// are retained (the paper's convention: the threshold is then the
    /// supremum of the rank domain).
    #[inline]
    pub fn threshold(&self) -> Option<RankedItem> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().copied()
        }
    }

    /// The threshold as a plain rank value, with `sup` standing in for the
    /// under-filled case.
    #[inline]
    pub fn threshold_rank_or(&self, sup: f64) -> f64 {
        self.threshold().map_or(sup, |t| t.rank)
    }

    /// Whether `(rank, id)` would be retained if offered now (i.e. is
    /// strictly below the threshold in the `(rank, id)` total order).
    #[inline]
    pub fn would_enter(&self, rank: f64, id: u64) -> bool {
        match self.threshold() {
            None => true,
            Some(t) => RankedItem { rank, id } < t,
        }
    }

    /// Offers an item; returns `true` if it was retained (and possibly
    /// evicted the previous k-th smallest).
    ///
    /// The caller is responsible for not offering the same id twice —
    /// bottom-k set semantics (distinct elements) are enforced one level up
    /// where a membership structure is available.
    #[inline]
    pub fn offer(&mut self, rank: f64, id: u64) -> bool {
        let item = RankedItem { rank, id };
        if self.heap.len() < self.k {
            self.heap.push(item);
            return true;
        }
        // Replacing the root in place costs one sift-down.
        let mut top = self.heap.peek_mut().expect("non-empty at capacity");
        if item < *top {
            *top = item;
            true
        } else {
            false
        }
    }

    /// The retained items in ascending `(rank, id)` order.
    pub fn sorted_items(&self) -> Vec<RankedItem> {
        let mut v: Vec<RankedItem> = self.heap.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KSmallest::new(0);
    }

    #[test]
    fn keeps_exactly_k_smallest() {
        let mut ks = KSmallest::new(3);
        for (i, r) in [0.9, 0.1, 0.5, 0.3, 0.7, 0.2].iter().enumerate() {
            ks.offer(*r, i as u64);
        }
        let items: Vec<f64> = ks.sorted_items().iter().map(|i| i.rank).collect();
        assert_eq!(items, vec![0.1, 0.2, 0.3]);
        assert_eq!(ks.threshold().unwrap().rank, 0.3);
    }

    #[test]
    fn threshold_none_until_full() {
        let mut ks = KSmallest::new(2);
        assert!(ks.threshold().is_none());
        ks.offer(0.4, 0);
        assert!(ks.threshold().is_none());
        ks.offer(0.6, 1);
        assert_eq!(ks.threshold().unwrap().rank, 0.6);
        assert_eq!(ks.threshold_rank_or(1.0), 0.6);
    }

    #[test]
    fn threshold_rank_or_returns_sup_when_underfilled() {
        let ks = KSmallest::new(5);
        assert_eq!(ks.threshold_rank_or(1.0), 1.0);
    }

    #[test]
    fn would_enter_matches_offer() {
        let mut ks = KSmallest::new(2);
        ks.offer(0.2, 0);
        ks.offer(0.4, 1);
        assert!(ks.would_enter(0.3, 2));
        assert!(!ks.would_enter(0.5, 3));
        // Exact tie on rank: id breaks the tie.
        assert!(ks.would_enter(0.4, 0)); // (0.4, 0) < (0.4, 1)
        assert!(!ks.would_enter(0.4, 2)); // (0.4, 2) > (0.4, 1)
    }

    #[test]
    fn offer_reports_retention() {
        let mut ks = KSmallest::new(1);
        assert!(ks.offer(0.5, 0));
        assert!(!ks.offer(0.9, 1));
        assert!(ks.offer(0.1, 2));
        assert_eq!(ks.len(), 1);
        assert_eq!(ks.sorted_items()[0].id, 2);
    }

    #[test]
    fn matches_naive_on_random_stream() {
        use crate::rng::{Rng64, SplitMix64};
        let mut rng = SplitMix64::new(77);
        for k in [1usize, 2, 5, 16] {
            let mut ks = KSmallest::new(k);
            let mut all: Vec<RankedItem> = Vec::new();
            for id in 0..500u64 {
                let r = rng.unit_f64();
                ks.offer(r, id);
                all.push(RankedItem { rank: r, id });
            }
            all.sort_unstable();
            all.truncate(k);
            assert_eq!(ks.sorted_items(), all, "k = {k}");
        }
    }

    #[test]
    fn clear_resets() {
        let mut ks = KSmallest::new(2);
        ks.offer(0.1, 0);
        ks.offer(0.2, 1);
        ks.clear();
        assert!(ks.is_empty());
        assert!(ks.threshold().is_none());
    }
}
