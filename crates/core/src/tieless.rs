//! The tie-breaking-free ADS of Appendix A.
//!
//! With few distinct distances (e.g. unweighted small-world graphs), the
//! canonical tie-broken ADS can keep many entries per distance level. The
//! modified definition stores node `u` iff `r(u)` is among the k smallest
//! ranks of the *closed* neighborhood `N_{≤d_vu}(v)` — at most k entries
//! per distinct distance. HIP probabilities change accordingly: a stored
//! node is *sampled* (carries weight) only if its rank is strictly below
//! the k-th smallest of the closed set `T_d`; the node attaining `T_d` is
//! stored but weight-less, which is exactly what makes `T_d` recoverable
//! from the sketch. The resulting estimator has CV ≤ `1/sqrt(k−2)` (one
//! degree weaker than canonical HIP, one stored-but-unsampled node per
//! threshold).
//!
//! A [`TielessAds`] is built from one node's canonical closeness order
//! ([`TielessAds::from_order`]); the graph builders produce only the
//! canonical tie-broken ADS of Algorithm 1.

use adsketch_graph::NodeId;
use adsketch_util::topk::KSmallest;

use crate::entry::AdsEntry;
use crate::hip::{HipItem, HipWeights};

/// A tieless bottom-k ADS: per distinct distance, the (at most k) nodes
/// ranked among the k smallest of the closed prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct TielessAds {
    k: usize,
    entries: Vec<AdsEntry>,
}

impl TielessAds {
    /// Builds from the canonical closeness order: `order` lists every
    /// node within reach as `(node, dist)`, sorted by `(dist, node)`.
    pub fn from_order(k: usize, order: &[(NodeId, f64)], ranks: &[f64]) -> Self {
        assert!(k >= 1);
        let mut ks = KSmallest::new(k);
        let mut entries = Vec::new();
        let mut i = 0;
        while i < order.len() {
            // The whole distance level enters the candidate pool first.
            let mut j = i;
            while j < order.len() && order[j].1 == order[i].1 {
                ks.offer(ranks[order[j].0 as usize], order[j].0 as u64);
                j += 1;
            }
            // Stored = level members that survive in the closed top-k.
            let top: std::collections::HashSet<u64> =
                ks.sorted_items().iter().map(|it| it.id).collect();
            for &(node, dist) in &order[i..j] {
                if top.contains(&(node as u64)) {
                    entries.push(AdsEntry::new(node, dist, ranks[node as usize]));
                }
            }
            i = j;
        }
        Self { k, entries }
    }

    /// The sketch parameter k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entries in canonical order.
    #[inline]
    pub fn entries(&self) -> &[AdsEntry] {
        &self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// HIP adjusted weights under the modified probabilities: per distance
    /// level, the threshold is the k-th smallest stored rank within the
    /// closed prefix (`1` while fewer than k); stored nodes strictly below
    /// it get weight `1/T`, the threshold-attaining node gets none.
    pub fn hip_weights(&self) -> HipWeights {
        let mut ks = KSmallest::new(self.k);
        let mut items: Vec<HipItem> = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            let mut j = i;
            while j < self.entries.len() && self.entries[j].dist == self.entries[i].dist {
                ks.offer(self.entries[j].rank, self.entries[j].node as u64);
                j += 1;
            }
            let t = ks.threshold_rank_or(1.0);
            for e in &self.entries[i..j] {
                if e.rank < t {
                    items.push(HipItem {
                        node: e.node,
                        dist: e.dist,
                        weight: 1.0 / t,
                    });
                }
            }
            i = j;
        }
        HipWeights::from_sorted_items(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_util::stats::ErrorStats;
    use adsketch_util::RankHasher;

    /// A "star stream": one node at distance 0, all others at distance 1 —
    /// the worst case for the canonical ADS under ties.
    fn star_order(n: usize) -> Vec<(NodeId, f64)> {
        (0..n)
            .map(|i| (i as NodeId, if i == 0 { 0.0 } else { 1.0 }))
            .collect()
    }

    fn uniform_order(n: usize) -> Vec<(NodeId, f64)> {
        (0..n).map(|i| (i as NodeId, i as f64)).collect()
    }

    #[test]
    fn at_most_k_entries_per_level() {
        let n = 200usize;
        let k = 4;
        let h = RankHasher::new(1);
        let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
        let ads = TielessAds::from_order(k, &star_order(n), &ranks);
        let level1 = ads.entries().iter().filter(|e| e.dist == 1.0).count();
        assert!(level1 <= k, "level-1 entries {level1}");
        assert!(ads.len() <= k + 1);
    }

    #[test]
    fn with_unique_distances_stores_canonical_members_plus_threshold() {
        // Under unique distances, the closed-set rule stores the canonical
        // ADS members (strictly below the k-th) plus threshold attainers.
        let n = 300usize;
        let k = 3;
        let h = RankHasher::new(2);
        let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
        let tieless = TielessAds::from_order(k, &uniform_order(n), &ranks);
        let canonical = crate::reference::bottomk_from_order(k, &uniform_order(n), &ranks);
        let canon_nodes: std::collections::HashSet<NodeId> =
            canonical.entries().iter().map(|e| e.node).collect();
        for e in canonical.entries() {
            assert!(
                tieless.entries().iter().any(|t| t.node == e.node),
                "canonical member {} missing from tieless sketch",
                e.node
            );
        }
        // Tieless may store a few extra (threshold-attaining) nodes.
        let extra = tieless
            .entries()
            .iter()
            .filter(|t| !canon_nodes.contains(&t.node))
            .count();
        assert!(extra <= tieless.len());
    }

    #[test]
    fn hip_unbiased_on_tied_levels() {
        // Stream with 20 levels of 25 tied nodes each.
        let n = 500usize;
        let k = 6;
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, (i / 25) as f64)).collect();
        let mut err = ErrorStats::new(n as f64);
        for seed in 0..4000u64 {
            let h = RankHasher::new(seed);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = TielessAds::from_order(k, &order, &ranks);
            err.push(ads.hip_weights().row().reachable_estimate());
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "tieless HIP bias z = {z}");
        // CV ≤ 1/sqrt(k−2) = 0.5.
        assert!(err.nrmse() < 0.55, "NRMSE {}", err.nrmse());
    }

    #[test]
    fn hip_unbiased_on_star() {
        let n = 120usize;
        let k = 4;
        let mut err = ErrorStats::new(n as f64);
        for seed in 0..6000u64 {
            let h = RankHasher::new(seed + 1234);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = TielessAds::from_order(k, &star_order(n), &ranks);
            err.push(ads.hip_weights().row().reachable_estimate());
        }
        let z = err.relative_bias() / err.bias_std_error();
        assert!(z.abs() < 4.0, "star HIP bias z = {z}");
    }

    #[test]
    fn threshold_attainer_is_stored_but_unsampled() {
        // Three nodes, one level, k = 2: ranks 0.1, 0.2, 0.3 — nodes with
        // ranks .1/.2 are the top-2 (stored); threshold T = 0.2; only the
        // rank-.1 node is sampled (strictly below T).
        let order: Vec<(NodeId, f64)> = vec![(0, 1.0), (1, 1.0), (2, 1.0)];
        let ranks = [0.1, 0.2, 0.3];
        let ads = TielessAds::from_order(2, &order, &ranks);
        let stored: Vec<NodeId> = ads.entries().iter().map(|e| e.node).collect();
        assert_eq!(stored, vec![0, 1]);
        let hip = ads.hip_weights();
        assert_eq!(hip.row().len(), 1);
        assert_eq!(hip.row().nodes[0], 0);
        assert!((hip.row().weights[0] - 5.0).abs() < 1e-12); // 1/0.2
    }
}
