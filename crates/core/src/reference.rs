//! Brute-force, order-based ADS construction, and the heap oracle the
//! store is validated against.
//!
//! The ADS of a node depends only on the sequence of `(node, distance)`
//! pairs in canonical closeness order and on the random ranks (paper,
//! Section 5.5 uses this fact to run graph-free simulations). These
//! builders take that order explicitly — computed exactly via Dijkstra for
//! graphs, or synthesized for stream simulations — and apply the inclusion
//! definitions literally. They are the correctness oracle for the scalable
//! builders in [`crate::builder`], and the paper experiments build their
//! synthesized orders with them.
//!
//! [`BottomKAds`] is the bottom-k sketch they produce, and
//! [`hip_weights`] the one heap scan that weighs it: the reference the
//! store's heap-free weight column is tested against bit for bit. No
//! serving path uses either.

use adsketch_graph::dijkstra::dijkstra_order_canonical;
use adsketch_graph::{Graph, NodeId};
use adsketch_util::topk::KSmallest;
use adsketch_util::RankHasher;

use crate::ads_set::AdsSet;
use crate::entry::{key_cmp, AdsEntry};
use crate::hip::{HipItem, HipWeights};
use crate::kmins::{KMinsAds, KMinsRecord};
use crate::kpartition::{KPartRecord, KPartitionAds};

/// A bottom-k ADS of one node (paper, Section 2, equation (4)): entries
/// in canonical `(dist, node)` order, node `j` present iff its rank is
/// among the k smallest of the nodes strictly closer to the source.
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

/// The HIP adjusted weights of a bottom-k ADS's entries, given in
/// canonical order (paper, Section 5.1, Lemma 5.1): entry `j`'s HIP
/// probability is `τ_vj`, the k-th smallest rank among closer entries (1
/// while fewer than k are closer), and its adjusted weight is `1/τ_vj`.
///
/// Ranks must lie in `[0, 1]` (uniform); weighted sketches use
/// [`crate::weighted::weighted_hip`] instead. Weigh a store row with
/// `hip_weights(row.k, row.entries())`, an oracle sketch with
/// `hip_weights(ads.k(), ads.entries().iter().copied())`.
///
/// The threshold is tracked in a `KSmallest` heap, `O(len · log k)` on
/// every call. No build runs this: the store computes the same weights
/// in its own heap-free pass as it takes over a builder's columns, and
/// this scan is the reference that pass is tested against bit for bit.
pub fn hip_weights(k: usize, entries: impl IntoIterator<Item = AdsEntry>) -> HipWeights {
    let mut ks = KSmallest::new(k);
    let items = entries
        .into_iter()
        .map(|e| {
            debug_assert!(
                (0.0..=1.0).contains(&e.rank),
                "uniform HIP requires ranks in [0,1]; got {}",
                e.rank
            );
            let tau = ks.threshold_rank_or(1.0);
            let entered = ks.offer(e.rank, e.node as u64);
            debug_assert!(entered, "every ADS entry is a prefix bottom-k member");
            HipItem {
                node: e.node,
                dist: e.dist,
                weight: 1.0 / tau,
            }
        })
        .collect();
    HipWeights::from_sorted_items(items)
}

/// The store of pre-built sketches (one per node, each in canonical
/// order): how the oracle's sketches become a set. The store's rank table
/// is read off the entries: a node no row samples gets rank 1.0, and
/// empty rows are appended until every sampled id names a row.
///
/// # Panics
///
/// If the sketches mix values of k, or one node is sampled with two
/// different ranks (an entry's rank is its node's rank).
pub fn from_sketches(k: usize, sketches: Vec<BottomKAds>) -> AdsSet {
    assert!(sketches.iter().all(|s| s.k == k), "mixed k in ADS set");
    let mut rank_of: Vec<Option<f64>> = vec![None; sketches.len()];
    for e in sketches.iter().flat_map(|s| &s.entries) {
        let v = e.node as usize;
        if v >= rank_of.len() {
            rank_of.resize(v + 1, None);
        }
        let held = *rank_of[v].get_or_insert(e.rank);
        assert!(
            held.to_bits() == e.rank.to_bits(),
            "node {v} sampled with two ranks ({held} and {})",
            e.rank
        );
    }
    let rank_of: Vec<f64> = rank_of.into_iter().map(|r| r.unwrap_or(1.0)).collect();
    store_over(k, &sketches, &rank_of)
}

/// The store of `sketches`, row `v` from `sketches[v]` (empty past their
/// end), over the per-node ranks `rank_of`.
fn store_over(k: usize, sketches: &[BottomKAds], rank_of: &[f64]) -> AdsSet {
    let total = sketches.iter().map(BottomKAds::len).sum();
    let mut offsets = Vec::with_capacity(rank_of.len() + 1);
    let (mut nodes, mut dists) = (Vec::with_capacity(total), Vec::with_capacity(total));
    offsets.push(0);
    for s in sketches {
        for e in &s.entries {
            nodes.push(e.node);
            dists.push(e.dist);
        }
        offsets.push(u32::try_from(nodes.len()).expect("at most 2^32 − 1 entries"));
    }
    offsets.resize(rank_of.len() + 1, nodes.len() as u32);
    AdsSet::from_columns(k, offsets, nodes, dists, rank_of.to_vec())
}

fn assert_canonical_order(order: &[(NodeId, f64)]) {
    debug_assert!(
        order
            .windows(2)
            .all(|w| key_cmp((w[0].1, w[0].0), (w[1].1, w[1].0)).is_lt()),
        "order must be sorted by (dist, node)"
    );
}

/// Builds the bottom-k ADS from nodes listed in canonical `(dist, node)`
/// order with their ranks: node `j` is included iff its `(rank, id)` pair is
/// below the k-th smallest among the nodes before it (definition (4)).
pub fn bottomk_from_order(k: usize, order: &[(NodeId, f64)], ranks: &[f64]) -> BottomKAds {
    assert!(k >= 1);
    assert_canonical_order(order);
    let mut ks = KSmallest::new(k);
    let mut entries = Vec::new();
    for &(node, dist) in order {
        let r = ranks[node as usize];
        if ks.would_enter(r, node as u64) {
            entries.push(AdsEntry::new(node, dist, r));
            ks.offer(r, node as u64);
        }
    }
    BottomKAds::from_entries(k, entries)
}

/// agl's `purify_sketch`, the whole bottom-k rule over a flat offer list:
/// reduce the offered `(node, dist)` multiset to each node's minimum
/// distance, sort canonically, and keep an entry iff its `(rank, id)`
/// beats the running k-th smallest. The oracle the live local-update
/// sketch is differential-tested against after every insert.
pub fn purify(k: usize, offers: &[(NodeId, f64)], ranks: &[f64]) -> BottomKAds {
    let mut order = offers.to_vec();
    order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    order.dedup_by_key(|o| o.0);
    order.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    bottomk_from_order(k, &order, ranks)
}

/// Builds the k-mins ADS (k independent bottom-1 ADSs over the
/// permutations of `hasher`) from a canonical order.
pub fn kmins_from_order(k: usize, order: &[(NodeId, f64)], hasher: &RankHasher) -> KMinsAds {
    assert!(k >= 1);
    assert_canonical_order(order);
    let mut minima = vec![1.0f64; k];
    let mut records = Vec::new();
    for &(node, dist) in order {
        for (h, m) in minima.iter_mut().enumerate() {
            let r = hasher.perm_rank(node as u64, h as u32);
            if r < *m {
                records.push(KMinsRecord {
                    node,
                    dist,
                    rank: r,
                    perm: h as u32,
                });
                *m = r;
            }
        }
    }
    KMinsAds::from_records(k, records)
}

/// Builds the k-partition ADS (bucket-wise bottom-1) from a canonical
/// order; buckets and ranks come from `hasher`.
pub fn kpartition_from_order(
    k: usize,
    order: &[(NodeId, f64)],
    hasher: &RankHasher,
) -> KPartitionAds {
    assert!(k >= 1);
    assert_canonical_order(order);
    let mut minima = vec![1.0f64; k];
    let mut records = Vec::new();
    for &(node, dist) in order {
        let b = hasher.bucket(node as u64, k);
        let r = hasher.rank(node as u64);
        if r < minima[b] {
            records.push(KPartRecord {
                node,
                dist,
                rank: r,
                bucket: b as u32,
            });
            minima[b] = r;
        }
    }
    KPartitionAds::from_records(k, records)
}

/// Brute-force forward bottom-k ADS set for a graph: one exact Dijkstra per
/// node, over the rank table `ranks`. O(n·m log n) — the validation
/// oracle for the scalable builders.
pub fn build_bottomk(g: &Graph, k: usize, ranks: &[f64]) -> AdsSet {
    assert_eq!(ranks.len(), g.num_nodes());
    let sketches: Vec<BottomKAds> = (0..g.num_nodes() as NodeId)
        .map(|v| {
            let order = dijkstra_order_canonical(g, v);
            bottomk_from_order(k, &order, ranks)
        })
        .collect();
    store_over(k, &sketches, ranks)
}

/// Brute-force forward k-mins ADS set.
pub fn build_kmins(g: &Graph, k: usize, hasher: &RankHasher) -> Vec<KMinsAds> {
    (0..g.num_nodes() as NodeId)
        .map(|v| kmins_from_order(k, &dijkstra_order_canonical(g, v), hasher))
        .collect()
}

/// Brute-force forward k-partition ADS set.
pub fn build_kpartition(g: &Graph, k: usize, hasher: &RankHasher) -> Vec<KPartitionAds> {
    (0..g.num_nodes() as NodeId)
        .map(|v| kpartition_from_order(k, &dijkstra_order_canonical(g, v), hasher))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 2.1. The figure's rank table is garbled in the
    /// text dump, but the example's stated inclusions pin the rank order
    /// down uniquely over the value set {0.1,…,0.8}:
    /// a=0.5, b=0.7, c=0.4, d=0.2, e=0.6, f=0.3, g=0.8, h=0.1.
    const EX_RANKS: [f64; 8] = [0.5, 0.7, 0.4, 0.2, 0.6, 0.3, 0.8, 0.1];
    // Node ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7.

    fn forward_order_from_a() -> Vec<(NodeId, f64)> {
        // "The order is a,b,c,d,e,f,g,h with respective distances
        //  (0, 8, 9, 18, 19, 20, 21, 26)."
        vec![
            (0, 0.0),
            (1, 8.0),
            (2, 9.0),
            (3, 18.0),
            (4, 19.0),
            (5, 20.0),
            (6, 21.0),
            (7, 26.0),
        ]
    }

    fn backward_order_from_b() -> Vec<(NodeId, f64)> {
        // "b,a,g,c,h,d,e,f with respective reverse distances
        //  (0, 8, 18, 30, 31, 39, 40, 41)."
        vec![
            (1, 0.0),
            (0, 8.0),
            (6, 18.0),
            (2, 30.0),
            (7, 31.0),
            (3, 39.0),
            (4, 40.0),
            (5, 41.0),
        ]
    }

    #[test]
    fn example_2_1_forward_ads_of_a() {
        let ads = bottomk_from_order(1, &forward_order_from_a(), &EX_RANKS);
        let got: Vec<(f64, NodeId)> = ads.entries().iter().map(|e| (e.dist, e.node)).collect();
        // ADS(a) = {(0,a), (9,c), (18,d), (26,h)}
        assert_eq!(got, vec![(0.0, 0), (9.0, 2), (18.0, 3), (26.0, 7)]);
    }

    #[test]
    fn example_2_1_backward_ads_of_b() {
        let ads = bottomk_from_order(1, &backward_order_from_b(), &EX_RANKS);
        let got: Vec<(f64, NodeId)> = ads.entries().iter().map(|e| (e.dist, e.node)).collect();
        // ←ADS(b) = {(0,b), (8,a), (30,c), (31,h)}
        assert_eq!(got, vec![(0.0, 1), (8.0, 0), (30.0, 2), (31.0, 7)]);
    }

    #[test]
    fn example_2_1_bottom_2_extends_bottom_1() {
        let ads2 = bottomk_from_order(2, &forward_order_from_a(), &EX_RANKS);
        let got: Vec<(f64, NodeId)> = ads2.entries().iter().map(|e| (e.dist, e.node)).collect();
        // "The bottom-2 forward ADS of a … also includes {(8,b), (20,f)}."
        assert_eq!(
            got,
            vec![
                (0.0, 0),
                (8.0, 1),
                (9.0, 2),
                (18.0, 3),
                (20.0, 5),
                (26.0, 7)
            ]
        );
    }

    #[test]
    fn bottomk_inclusion_probability_matches_k_over_i() {
        // Lemma 2.2's core fact: the i-th node in distance order enters the
        // bottom-k ADS with probability min(1, k/i).
        let k = 3;
        let n = 40usize;
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let mut counts = vec![0u32; n];
        let runs = 20_000;
        for seed in 0..runs {
            let h = RankHasher::new(seed);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = bottomk_from_order(k, &order, &ranks);
            for e in ads.entries() {
                counts[e.node as usize] += 1;
            }
        }
        for i in [1usize, 2, 3, 5, 10, 20, 40] {
            let p_hat = counts[i - 1] as f64 / runs as f64;
            let p = (k as f64 / i as f64).min(1.0);
            assert!(
                (p_hat - p).abs() < 0.02,
                "node {i}: empirical {p_hat}, theory {p}"
            );
        }
    }

    #[test]
    fn ads_size_matches_lemma_2_2() {
        use adsketch_util::harmonic::expected_bottomk_ads_size;
        let k = 4;
        let n = 500usize;
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let mut total = 0usize;
        let runs = 600;
        for seed in 0..runs {
            let h = RankHasher::new(seed + 50_000);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            total += bottomk_from_order(k, &order, &ranks).len();
        }
        let mean = total as f64 / runs as f64;
        let expect = expected_bottomk_ads_size(n as u64, k);
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean size {mean}, Lemma 2.2 gives {expect}"
        );
    }

    #[test]
    fn kmins_ads_is_k_bottom1_ads() {
        // Each permutation's records must form a bottom-1 ADS: strictly
        // decreasing ranks in canonical order.
        let n = 200usize;
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let h = RankHasher::new(9);
        let ads = kmins_from_order(4, &order, &h);
        for perm in 0..4u32 {
            let ranks: Vec<f64> = ads
                .records()
                .iter()
                .filter(|r| r.perm == perm)
                .map(|r| r.rank)
                .collect();
            assert!(!ranks.is_empty());
            for w in ranks.windows(2) {
                assert!(w[1] < w[0], "perm {perm}: prefix minima must decrease");
            }
        }
    }

    #[test]
    fn kpartition_records_unique_per_node() {
        let n = 300usize;
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        let h = RankHasher::new(10);
        let ads = kpartition_from_order(8, &order, &h);
        let mut seen = std::collections::HashSet::new();
        for r in ads.records() {
            assert!(seen.insert(r.node), "node {} sampled twice", r.node);
            assert_eq!(h.bucket(r.node as u64, 8) as u32, r.bucket);
        }
        // Bucket-wise prefix minima must decrease.
        for b in 0..8u32 {
            let ranks: Vec<f64> = ads
                .records()
                .iter()
                .filter(|r| r.bucket == b)
                .map(|r| r.rank)
                .collect();
            for w in ranks.windows(2) {
                assert!(w[1] < w[0], "bucket {b}: prefix minima must decrease");
            }
        }
    }

    #[test]
    fn graph_brute_force_small_cycle() {
        let g = Graph::directed(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let ranks = crate::uniform_ranks(4, 3);
        let set = build_bottomk(&g, 2, &ranks);
        for v in 0..4 {
            let row = set.row(v);
            let ads = BottomKAds::from_entries(2, row.entries().collect());
            assert!(ads.validate().is_ok());
            // k = 2 over a 4-cycle: at least 2 entries, at most 4.
            assert!(ads.len() >= 2 && ads.len() <= 4);
            // Self entry always present at distance 0.
            assert_eq!((row.nodes[0], row.dists[0]), (v, 0.0));
        }
    }

    /// Bypasses the `from_entries` debug validation for invariant-violation
    /// tests.
    fn raw(k: usize, entries: Vec<AdsEntry>) -> BottomKAds {
        BottomKAds { k, entries }
    }

    /// The heap scan's weights over a sketch's entries.
    fn weights_of(ads: &BottomKAds) -> Vec<f64> {
        hip_weights(ads.k(), ads.entries().iter().copied())
            .row()
            .weights
            .to_vec()
    }

    #[test]
    fn hip_weights_bottom1() {
        // k = 1 over Example 2.1's ADS(a): τ of each entry is the minimum
        // rank among closer entries.
        let ads = bottomk_from_order(1, &forward_order_from_a(), &EX_RANKS);
        let w = weights_of(&ads);
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
        let w = weights_of(&ads);
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
        let w = weights_of(&ads);
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
    fn empty_ads() {
        let ads = BottomKAds::from_entries(4, Vec::new());
        assert!(ads.is_empty());
        assert_eq!(ads.validate(), Ok(()));
        assert!(weights_of(&ads).is_empty());
    }

    #[test]
    #[should_panic(expected = "mixed k")]
    fn from_sketches_rejects_mixed_k() {
        let a = BottomKAds::from_entries(2, Vec::new());
        let b = BottomKAds::from_entries(3, Vec::new());
        let _ = from_sketches(2, vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "two ranks")]
    fn from_sketches_rejects_a_node_sampled_with_two_ranks() {
        let a = BottomKAds::from_entries(2, vec![AdsEntry::new(1, 0.0, 0.5)]);
        let b = BottomKAds::from_entries(2, vec![AdsEntry::new(1, 0.0, 0.25)]);
        let _ = from_sketches(2, vec![a, b]);
    }

    /// One row over node ids past the row count: empty rows are appended
    /// until every id names a row, and unsampled nodes rank 1.0.
    #[test]
    fn from_sketches_pads_rows_to_the_largest_sampled_id() {
        let row = BottomKAds::from_entries(
            1,
            vec![AdsEntry::new(0, 0.0, 0.5), AdsEntry::new(3, 1.0, 0.25)],
        );
        let set = from_sketches(1, vec![row.clone()]);
        assert_eq!(set.num_nodes(), 4);
        assert!(set.row(0).entries().eq(row.entries().iter().copied()));
        assert!((1..4).all(|v| set.row(v).is_empty()));
        let ranks: Vec<f64> = (0..4).map(|v| set.rank_of()[v]).collect();
        assert_eq!(ranks, [0.5, 1.0, 1.0, 0.25]);
    }

    /// The oracle's sketches go in and come back out row for row, and the
    /// weight column equals the heap reference bit for bit.
    #[test]
    fn from_sketches_roundtrips_rows_and_matches_the_heap_weights() {
        let g = adsketch_graph::generators::gnp_directed(80, 0.06, 4);
        let ranks = crate::uniform_ranks(80, 21);
        let sketches: Vec<BottomKAds> = (0..80)
            .map(|v| bottomk_from_order(3, &dijkstra_order_canonical(&g, v), &ranks))
            .collect();
        let set = from_sketches(3, sketches.clone());
        for (v, s) in sketches.iter().enumerate() {
            let row = set.row(v as NodeId);
            assert!(row.entries().eq(s.entries().iter().copied()), "node {v}");
            assert_eq!(row.hip(), hip_weights(3, row.entries()).row(), "node {v}");
        }
    }
}
