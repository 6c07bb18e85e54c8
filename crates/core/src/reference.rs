//! Brute-force, order-based ADS construction.
//!
//! The ADS of a node depends only on the sequence of `(node, distance)`
//! pairs in canonical closeness order and on the random ranks (paper,
//! Section 5.5 uses this fact to run graph-free simulations). These
//! builders take that order explicitly — computed exactly via Dijkstra for
//! graphs, or synthesized for stream simulations — and apply the inclusion
//! definitions literally. They are the correctness oracle for the scalable
//! builders in [`crate::builder`], and the only builders needed by the
//! simulation harness.

use adsketch_graph::dijkstra::dijkstra_order_canonical;
use adsketch_graph::{Graph, NodeId};
use adsketch_util::topk::KSmallest;
use adsketch_util::RankHasher;

use crate::ads_set::AdsSet;
use crate::bottomk::BottomKAds;
use crate::entry::AdsEntry;
use crate::kmins::{KMinsAds, KMinsRecord};
use crate::kpartition::{KPartRecord, KPartitionAds};

fn assert_canonical_order(order: &[(NodeId, f64)]) {
    debug_assert!(
        order.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)
            || (w[0].1.total_cmp(&w[1].1).then(w[0].0.cmp(&w[1].0)) == std::cmp::Ordering::Less)),
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
/// node. O(n·m log n) — the validation oracle for the scalable builders.
pub fn build_bottomk(g: &Graph, k: usize, ranks: &[f64]) -> AdsSet {
    assert_eq!(ranks.len(), g.num_nodes());
    let sketches = (0..g.num_nodes() as NodeId)
        .map(|v| {
            let order = dijkstra_order_canonical(g, v);
            bottomk_from_order(k, &order, ranks)
        })
        .collect();
    AdsSet::from_sketches(k, sketches)
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
            let ads = set.sketch(v);
            assert!(ads.validate().is_ok());
            // k = 2 over a 4-cycle: at least 2 entries, at most 4.
            assert!(ads.len() >= 2 && ads.len() <= 4);
            // Self entry always present at distance 0.
            assert_eq!(ads.entries()[0].node, v);
            assert_eq!(ads.entries()[0].dist, 0.0);
        }
    }
}
