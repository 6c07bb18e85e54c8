//! The bottom-k all-distances sketch (paper, Section 2, equation (4)).
//!
//! `ADS(v)` contains node `j` iff `r(j) < kth_r(Φ_<j(v))` — j's rank is
//! among the k smallest of the nodes strictly closer to `v` (canonical
//! `(dist, id)` order). Equivalently it is the union over all `d` of the
//! bottom-k MinHash sketches of the neighborhoods `N_d(v)`.

use adsketch_graph::NodeId;
use adsketch_util::topk::KSmallest;

use crate::entry::AdsEntry;
use crate::hip::{HipItem, HipWeights};

/// A bottom-k ADS of one node: entries in canonical `(dist, node)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct BottomKAds {
    k: usize,
    entries: Vec<AdsEntry>,
}

impl BottomKAds {
    /// Wraps entries that are already in canonical order and satisfy the
    /// bottom-k ADS inclusion invariant. Validates in debug builds; use
    /// [`BottomKAds::validate`] to check explicitly.
    pub fn from_entries(k: usize, entries: Vec<AdsEntry>) -> Self {
        assert!(k >= 1);
        let ads = Self { k, entries };
        debug_assert_eq!(ads.validate(), Ok(()));
        ads
    }

    /// An empty sketch (used as a starting point by builders).
    pub fn empty(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            k,
            entries: Vec::new(),
        }
    }

    /// The sketch parameter k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the sketch has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in canonical `(dist, node)` order.
    #[inline]
    pub fn entries(&self) -> &[AdsEntry] {
        &self.entries
    }

    /// The entry for `node`, if sampled. A linear scan: an ADS holds
    /// ~`k ln n` entries and no serving path looks nodes up.
    pub fn get(&self, node: NodeId) -> Option<&AdsEntry> {
        self.entries.iter().find(|e| e.node == node)
    }

    /// Computes the HIP adjusted weights (paper, Section 5.1, Lemma 5.1):
    /// scanning entries by increasing distance, entry `j`'s HIP probability
    /// is `τ_vj = kth smallest rank among closer entries` (1 while fewer
    /// than k are closer) and its adjusted weight is `1/τ_vj`.
    ///
    /// Ranks must lie in `[0, 1]` (uniform); weighted sketches use
    /// [`crate::weighted::weighted_hip`] instead.
    ///
    /// The threshold scan is `O(len · log k)` through a heap and runs on
    /// **every call**: this is the reference the store's precomputed
    /// weight column ([`crate::AdsSet::hip`]) is tested against.
    pub fn hip_weights(&self) -> HipWeights {
        let mut items = Vec::with_capacity(self.entries.len());
        self.hip_scan(|it| items.push(it));
        HipWeights::from_sorted_items(items)
    }

    /// Streams the HIP items of this sketch in canonical order without
    /// materializing a [`HipWeights`] — the allocation-free core of
    /// [`BottomKAds::hip_weights`].
    ///
    /// The threshold is tracked in a `KSmallest` heap. No build calls
    /// this: the store computes the same weights in its own heap-free
    /// pass as it takes over a builder's columns, and this scan is the
    /// reference that pass is tested against bit for bit.
    pub fn hip_scan(&self, mut f: impl FnMut(HipItem)) {
        let mut ks = KSmallest::new(self.k);
        for e in &self.entries {
            debug_assert!(
                (0.0..=1.0).contains(&e.rank),
                "uniform HIP requires ranks in [0,1]; got {}",
                e.rank
            );
            let tau = ks.threshold_rank_or(1.0);
            let entered = ks.offer(e.rank, e.node as u64);
            debug_assert!(entered, "every ADS entry is a prefix bottom-k member");
            f(HipItem {
                node: e.node,
                dist: e.dist,
                weight: 1.0 / tau,
            });
        }
    }

    /// Checks the structural invariants: canonical strict ordering, finite
    /// non-negative ranks and distances, and the bottom-k inclusion rule
    /// (each entry's rank is below the k-th smallest among closer entries).
    pub fn validate(&self) -> Result<(), String> {
        let mut ks = KSmallest::new(self.k);
        let mut prev: Option<&AdsEntry> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if !(e.dist.is_finite() && e.dist >= 0.0) {
                return Err(format!("entry {i}: invalid distance {}", e.dist));
            }
            if !(e.rank.is_finite() && e.rank >= 0.0) {
                return Err(format!("entry {i}: invalid rank {}", e.rank));
            }
            if let Some(p) = prev {
                if p.cmp_canonical(e) != std::cmp::Ordering::Less {
                    return Err(format!(
                        "entries {i}−1 and {i} out of canonical order: ({}, {}) vs ({}, {})",
                        p.dist, p.node, e.dist, e.node
                    ));
                }
            }
            if !ks.would_enter(e.rank, e.node as u64) {
                return Err(format!(
                    "entry {i} (node {}) violates the bottom-k inclusion rule",
                    e.node
                ));
            }
            ks.offer(e.rank, e.node as u64);
            prev = Some(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bypasses the `from_entries` debug validation for invariant-violation
    /// tests.
    fn raw(k: usize, entries: Vec<AdsEntry>) -> BottomKAds {
        BottomKAds { k, entries }
    }

    /// ADS built by hand for k = 1 over the paper's Example 2.1 scenario:
    /// nodes sorted by distance from `a` with ranks chosen so the inclusion
    /// pattern matches the example (see `reference` tests for the full
    /// reconstruction).
    fn example_ads() -> BottomKAds {
        BottomKAds::from_entries(
            1,
            vec![
                AdsEntry::new(0, 0.0, 0.5),
                AdsEntry::new(2, 9.0, 0.4),
                AdsEntry::new(3, 18.0, 0.2),
                AdsEntry::new(7, 26.0, 0.1),
            ],
        )
    }

    #[test]
    fn get_and_len() {
        let ads = example_ads();
        assert_eq!(ads.len(), 4);
        assert_eq!(ads.get(3).unwrap().dist, 18.0);
        assert!(ads.get(5).is_none());
    }

    #[test]
    fn hip_weights_bottom1() {
        // k = 1: τ of each entry is the minimum rank among closer entries.
        let ads = example_ads();
        let hip = ads.hip_weights();
        let w = hip.row().weights;
        assert_eq!(w[0], 1.0); // first node: τ = 1
        assert!((w[1] - 1.0 / 0.5).abs() < 1e-12);
        assert!((w[2] - 1.0 / 0.4).abs() < 1e-12);
        assert!((w[3] - 1.0 / 0.2).abs() < 1e-12);
    }

    #[test]
    fn hip_weights_first_k_are_one() {
        let ads = BottomKAds::from_entries(
            3,
            vec![
                AdsEntry::new(0, 0.0, 0.9),
                AdsEntry::new(1, 1.0, 0.8),
                AdsEntry::new(2, 2.0, 0.7),
                AdsEntry::new(3, 3.0, 0.1),
            ],
        );
        let hip = ads.hip_weights();
        let w = hip.row().weights;
        assert_eq!(&w[..3], &[1.0, 1.0, 1.0]);
        assert!((w[3] - 1.0 / 0.9).abs() < 1e-12); // τ = 3rd smallest of {.9,.8,.7}
    }

    #[test]
    fn hip_weights_nondecreasing_in_distance() {
        // Paper, Section 5.1: adjusted weights increase with distance.
        let ads = BottomKAds::from_entries(
            2,
            vec![
                AdsEntry::new(0, 0.0, 0.6),
                AdsEntry::new(1, 1.0, 0.5),
                AdsEntry::new(2, 2.0, 0.3),
                AdsEntry::new(3, 3.0, 0.2),
                AdsEntry::new(4, 4.0, 0.1),
            ],
        );
        let hip = ads.hip_weights();
        let w = hip.row().weights;
        for pair in w.windows(2) {
            assert!(pair[1] >= pair[0], "weights must not decrease: {w:?}");
        }
    }

    #[test]
    fn validate_rejects_out_of_order() {
        let ads = raw(
            1,
            vec![AdsEntry::new(0, 1.0, 0.1), AdsEntry::new(1, 0.5, 0.05)],
        );
        assert!(ads.validate().unwrap_err().contains("canonical order"));
    }

    #[test]
    fn validate_rejects_inclusion_violation() {
        // Second entry's rank (0.8) is not below the min of closer ranks
        // (0.5) for k = 1.
        let ads = raw(
            1,
            vec![AdsEntry::new(0, 0.0, 0.5), AdsEntry::new(1, 1.0, 0.8)],
        );
        assert!(ads.validate().unwrap_err().contains("inclusion"));
    }

    #[test]
    fn validate_rejects_bad_values() {
        let ads = raw(1, vec![AdsEntry::new(0, f64::NAN, 0.5)]);
        assert!(ads.validate().is_err());
        let ads = raw(1, vec![AdsEntry::new(0, 0.0, f64::INFINITY)]);
        assert!(ads.validate().is_err());
    }

    #[test]
    fn get_resolves_every_node_and_rejects_strangers() {
        // Lookup is by node id on a sketch whose canonical order is not
        // node-id order.
        let ads = BottomKAds::from_entries(
            2,
            vec![
                AdsEntry::new(9, 0.0, 0.5),
                AdsEntry::new(1, 1.0, 0.4),
                AdsEntry::new(7, 2.0, 0.2),
                AdsEntry::new(3, 3.0, 0.1),
            ],
        );
        for e in ads.entries() {
            let found = ads.get(e.node).expect("sampled node must resolve");
            assert_eq!(found.node, e.node);
            assert_eq!(found.dist, e.dist);
        }
        for missing in [0u32, 2, 4, 8, 100] {
            assert!(ads.get(missing).is_none(), "node {missing}");
        }
    }

    #[test]
    fn empty_ads() {
        let ads = BottomKAds::empty(4);
        assert!(ads.is_empty());
        assert_eq!(ads.validate(), Ok(()));
        assert!(ads.hip_weights().row().is_empty());
    }
}
