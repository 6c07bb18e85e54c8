//! The mutable per-node sketch of the insert regimes that offer entries
//! out of rank order: [`LiveSketch`], columnar, on which DP, the
//! LocalUpdates builder and `DynamicAds` all run. (The rank-monotone
//! PrunedDijkstra regime has its own flat layout, `PartialAdsArena`.)
//!
//! DP is the retraction-free special case: it offers candidates in
//! canonical order, so the insert slot is always the end, the successor
//! pass below is empty, and a node already held is held closer and so
//! rejects the candidate.
//!
//! # The live sketch
//!
//! `nodes`, `dists` and `ranks` are parallel columns in canonical
//! `(dist, node)` order. A fourth column carries the inclusion rule:
//! `lower[i]` is the number of earlier entries whose `(rank, node)` key is
//! smaller than entry `i`'s, so entry `i` obeys the bottom-k rule iff
//! `lower[i] < k` — and every held entry does.
//!
//! **Admission** is a binary search for the candidate's slot `pos`, one
//! branch-free count of smaller keys over `ranks[..pos]` (the test and the
//! new entry's `lower` at once; with `ε > 0` the test counts on to the
//! `(1+ε)·dist` horizon), and one scan of `nodes` for a copy of the node.
//!
//! **Retraction is one pass over the successors.** The new entry adds one
//! to `lower[j]` of every successor with a larger key; a successor that
//! reaches `k` is dropped. Each decision needs only the entry's own
//! count: an entry `j` dropped here has `k` smaller-keyed predecessors,
//! which also precede, and are smaller than, any later entry keyed above
//! `j` — so that entry reaches `k` without counting `j` and is dropped
//! too. No survivor ever counted a dropped entry, its `lower` stays
//! exact, and the sketch equals agl's `purify_sketch` over everything
//! admitted so far ([`crate::reference::purify`], differential-tested
//! below). The pass runs back to front only so that a removal shifts no
//! slot still to be visited.
//!
//! **A superseded farther copy always loses.** A copy of the candidate's
//! node held at a larger distance sits at a slot `i ≥ pos`. Its prefix
//! contains the candidate's, so with `ε = 0` the candidate is always
//! admitted, and the copy goes. Successors past `i` counted this key
//! once before and once after, so the pass stops at `i`. Replacing a copy
//! is a distance improvement, not a retraction, and is not counted as one.

use adsketch_graph::NodeId;

use crate::entry::key_cmp;
use crate::frozen::FrozenAdsSet;

/// `(r, n) < (rank, node)` without a branch.
#[inline(always)]
fn key_lt(r: f64, n: NodeId, rank: f64, node: NodeId) -> bool {
    (r < rank) | ((r == rank) & (n < node))
}

/// A bottom-k ADS that admits entries in any order and retracts the ones
/// they displace (see the [module docs](self) for the layout).
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveSketch {
    nodes: Vec<NodeId>,
    dists: Vec<f64>,
    ranks: Vec<f64>,
    lower: Vec<u16>,
}

impl LiveSketch {
    /// The largest `k` the `lower` column can count to.
    pub const MAX_K: usize = u16::MAX as usize;

    /// The held `(node, dist)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.nodes.iter().copied().zip(self.dists.iter().copied())
    }

    /// Entries in `range` whose key is below `(rank, node)`.
    #[inline]
    fn count_lower(&self, range: std::ops::Range<usize>, rank: f64, node: NodeId) -> usize {
        self.ranks[range.clone()]
            .iter()
            .zip(&self.nodes[range])
            .map(|(&r, &n)| key_lt(r, n, rank, node) as usize)
            .sum()
    }

    fn remove(&mut self, i: usize) {
        self.nodes.remove(i);
        self.dists.remove(i);
        self.ranks.remove(i);
        self.lower.remove(i);
    }

    /// General LocalUpdates insert with retraction, `1 ≤ k ≤ MAX_K`.
    /// `epsilon > 0` applies the `(1+ε)`-approximate admission rule
    /// (paper, Section 3): the candidate must beat the k-th smallest key
    /// among entries within distance `dist·(1+ε)`, which suppresses
    /// insertions a slightly closer entry would displace anyway. A
    /// rejected candidate changes nothing.
    ///
    /// Returns `(inserted, removed)` — the number of retracted entries,
    /// for overhead accounting.
    pub fn insert(
        &mut self,
        k: usize,
        node: NodeId,
        dist: f64,
        rank: f64,
        epsilon: f64,
    ) -> (bool, usize) {
        let len = self.nodes.len();
        let (mut pos, mut hi) = (0, len);
        while pos < hi {
            let mid = pos + (hi - pos) / 2;
            if key_cmp((self.dists[mid], self.nodes[mid]), (dist, node)).is_lt() {
                pos = mid + 1;
            } else {
                hi = mid;
            }
        }
        let lower = self.count_lower(0..pos, rank, node);
        let mut blockers = lower;
        if epsilon > 0.0 {
            let horizon = self.dists.partition_point(|&d| d <= dist * (1.0 + epsilon));
            blockers += self.count_lower(pos..horizon, rank, node);
        }
        if blockers >= k {
            return (false, 0);
        }
        // A copy of this node: the closer one wins.
        let old = self.nodes.iter().position(|&n| n == node);
        if old.is_some_and(|i| self.dists[i] <= dist) {
            return (false, 0);
        }
        if let Some(i) = old {
            self.remove(i);
        }
        self.nodes.insert(pos, node);
        self.dists.insert(pos, dist);
        self.ranks.insert(pos, rank);
        self.lower.insert(pos, lower as u16);
        let stop = old.unwrap_or(len) + 1;
        let mut removed = 0;
        for j in (pos + 1..stop).rev() {
            self.lower[j] += key_lt(rank, node, self.ranks[j], self.nodes[j]) as u16;
            if self.lower[j] as usize >= k {
                self.remove(j);
                removed += 1;
            }
        }
        (true, removed)
    }

    /// Every node's held entries, row `v` from `sketches[v]`, as the
    /// columnar store over the builder's per-node `rank_of`: the node and
    /// distance columns are concatenated as they are, and each held
    /// entry's rank is its node's.
    pub fn store(k: usize, sketches: &[LiveSketch], rank_of: &[f64]) -> FrozenAdsSet {
        let total = sketches.iter().map(|s| s.nodes.len()).sum();
        let mut offsets = Vec::with_capacity(sketches.len() + 1);
        let (mut nodes, mut dists) = (Vec::with_capacity(total), Vec::with_capacity(total));
        offsets.push(0);
        for s in sketches {
            debug_assert!(
                s.nodes
                    .iter()
                    .zip(&s.ranks)
                    .all(|(&node, r)| r.to_bits() == rank_of[node as usize].to_bits()),
                "an entry's rank is its node's rank"
            );
            nodes.extend_from_slice(&s.nodes);
            dists.extend_from_slice(&s.dists);
            offsets.push(u32::try_from(nodes.len()).expect("at most 2^32 − 1 entries"));
        }
        FrozenAdsSet::from_columns(k, offsets, nodes, dists, rank_of.to_vec())
    }

    /// The held entries as an immutable sketch.
    #[cfg(test)]
    pub fn to_ads(&self, k: usize) -> crate::reference::BottomKAds {
        let entries = (0..self.nodes.len())
            .map(|i| crate::entry::AdsEntry::new(self.nodes[i], self.dists[i], self.ranks[i]))
            .collect();
        crate::reference::BottomKAds::from_entries(k, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes_of(s: &LiveSketch) -> Vec<NodeId> {
        s.iter().map(|(node, _)| node).collect()
    }

    #[test]
    fn live_insert_replaces_longer_distance() {
        let mut s = LiveSketch::default();
        assert_eq!(s.insert(2, 4, 5.0, 0.2, 0.0), (true, 0));
        // Shorter path to the same node: replaces.
        assert_eq!(s.insert(2, 4, 2.0, 0.2, 0.0), (true, 0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(4, 2.0)]);
        // Longer or equal path: ignored.
        assert_eq!(s.insert(2, 4, 9.0, 0.2, 0.0), (false, 0));
        assert_eq!(s.insert(2, 4, 2.0, 0.2, 0.0), (false, 0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(4, 2.0)]);
    }

    #[test]
    fn live_insert_retracts_displaced_entries() {
        let mut s = LiveSketch::default();
        // k = 1: farther, higher-rank entries get displaced by a closer,
        // lower-rank arrival.
        s.insert(1, 1, 1.0, 0.5, 0.0);
        s.insert(1, 2, 2.0, 0.3, 0.0);
        assert_eq!(nodes_of(&s), vec![1, 2]);
        // Node 3 at distance 0.5 with rank 0.1 invalidates both.
        assert_eq!(s.insert(1, 3, 0.5, 0.1, 0.0), (true, 2));
        assert_eq!(nodes_of(&s), vec![3]);
    }

    #[test]
    fn live_insert_partial_retraction() {
        let mut s = LiveSketch::default();
        // k = 1, decreasing ranks: all three stay.
        s.insert(1, 1, 1.0, 0.5, 0.0);
        s.insert(1, 2, 2.0, 0.3, 0.0);
        s.insert(1, 3, 3.0, 0.1, 0.0);
        // Insert rank 0.2 at distance 1.5: displaces node 2 (rank .3) but
        // not node 3 (rank .1).
        assert_eq!(s.insert(1, 4, 1.5, 0.2, 0.0), (true, 1));
        assert_eq!(nodes_of(&s), vec![1, 4, 3]);
    }

    #[test]
    fn epsilon_suppresses_marginal_inserts() {
        let mut s = LiveSketch::default();
        // k = 1. Entry at distance 10 with rank 0.1.
        s.insert(1, 1, 10.0, 0.1, 0.0);
        // Candidate at distance 9.8 with rank 0.5: exactly admissible
        // (closer than 10), but within the (1+ε) horizon of the stronger
        // entry for ε = 0.1 ⇒ suppressed.
        let (ins, _) = s.insert(1, 2, 9.8, 0.5, 0.1);
        assert!(!ins, "ε-rule should suppress the marginal insert");
        // With ε = 0 it is admitted.
        let (ins, _) = s.insert(1, 2, 9.8, 0.5, 0.0);
        assert!(ins);
    }

    /// The differential gate of the live kernel: after **every** offer of
    /// a random sequence the columns equal `purify` over what was
    /// admitted (for ε = 0: over everything offered), the return value
    /// equals the admission rule applied literally to that oracle, and
    /// `lower` equals its definition.
    #[test]
    fn live_insert_matches_the_purify_oracle_after_every_offer() {
        use crate::reference::purify;
        use adsketch_util::{Rng64, SplitMix64};
        const UNIVERSE: usize = 48;
        for k in [1usize, 2, 16] {
            for eps in [0.0, 0.25] {
                let mut rng = SplitMix64::new(1000 * k as u64 + (eps > 0.0) as u64);
                // A few exact rank ties, so the node id decides some keys.
                let ranks: Vec<f64> = (0..UNIVERSE)
                    .map(|_| rng.range_usize(40) as f64 / 40.0)
                    .collect();
                let mut live = LiveSketch::default();
                let mut offers: Vec<(NodeId, f64)> = Vec::new();
                for step in 0..800 {
                    // A coarse distance grid: exact ties between nodes, and
                    // re-offers of a held node at a shorter, equal or
                    // longer distance.
                    let node = rng.range_usize(UNIVERSE) as NodeId;
                    let dist = 0.5 * rng.range_usize(32) as f64;
                    let key = (ranks[node as usize], node);
                    let held = purify(k, &offers, &ranks);
                    let copy = held
                        .entries()
                        .iter()
                        .find(|e| e.node == node)
                        .map(|e| e.dist);
                    let blockers = held
                        .entries()
                        .iter()
                        .filter(|e| {
                            let near = if eps > 0.0 {
                                e.dist <= dist * (1.0 + eps)
                            } else {
                                e.cmp_key(dist, node).is_lt()
                            };
                            near && (e.rank, e.node) < key
                        })
                        .count();
                    let admit = blockers < k && copy.is_none_or(|d| dist < d);

                    let (inserted, removed) = live.insert(k, node, dist, key.0, eps);
                    let at = format!("k {k} ε {eps} step {step}: offer ({node}, {dist})");
                    assert_eq!(inserted, admit, "{at}");
                    if admit || eps == 0.0 {
                        offers.push((node, dist));
                    }
                    let want = purify(k, &offers, &ranks);
                    assert_eq!(live.to_ads(k), want, "{at}");
                    let replaced = (admit && copy.is_some()) as usize;
                    let expect_removed = (held.len() + admit as usize) - replaced - want.len();
                    assert_eq!(removed, expect_removed, "{at}");
                    for i in 0..live.nodes.len() {
                        let lower = (0..i)
                            .filter(|&j| {
                                (live.ranks[j], live.nodes[j]) < (live.ranks[i], live.nodes[i])
                            })
                            .count();
                        assert_eq!(live.lower[i] as usize, lower, "{at}: lower[{i}]");
                    }
                }
                assert!(live.nodes.len() > k, "k {k} ε {eps}: sequence too tame");
            }
        }
    }

    #[test]
    fn live_sketch_converts_to_a_valid_ads() {
        let mut s = LiveSketch::default();
        s.insert(2, 0, 0.0, 0.9, 0.0);
        s.insert(2, 1, 1.0, 0.7, 0.0);
        s.insert(2, 2, 2.0, 0.8, 0.0);
        let ads = s.to_ads(2);
        assert_eq!(ads.len(), 3);
        assert!(ads.validate().is_ok());
    }
}
