//! The common read-side interface over ADS collections.
//!
//! [`AdsView`] abstracts "one canonical bottom-k ADS per node": it lends
//! node `v`'s [`Row`], the borrowed slices of its entry columns in
//! canonical `(dist, node)` order. Every estimator is written once, on a
//! row — MinHash extraction, the basic, size-only and naive-`Q_g`
//! estimators on [`Row`], the HIP estimators on its [`HipRow`] half (see
//! [`crate::hip`]) — so it runs unchanged against the columnar store
//! ([`crate::frozen::FrozenAdsSet`], which every builder returns) and
//! against the serving tier's stores that route each node to one of
//! several of them. All lend the same rows, so estimator answers are
//! **bitwise identical** across them; `tests/frozen_roundtrip.rs` checks
//! them against the heap reference [`crate::reference::hip_weights`].
//!
//! The store keeps its entries struct-of-arrays, and a row is three
//! slices of those columns, the store's per-node rank table and `k`: an
//! entry samples a node, so its rank is that node's rank, read through
//! [`Row::rank`]. Lending a row is zero-copy and
//! allocation-free, which is what the batch
//! [`crate::engine::QueryEngine`] runs on. The store has one in-memory
//! layout whichever file format it was read from — the **compressed**
//! (format v2) encoding is decoded once, at load, into the same
//! full-width columns — and the decoded values are bit-identical to
//! v1's, so the bitwise-identity guarantee above holds across formats
//! too.

use std::fmt;

use adsketch_graph::NodeId;
use adsketch_minhash::BottomKSketch;

use crate::entry::AdsEntry;
use crate::hip::HipRow;

/// One node's ADS, borrowed from a store: the sketch parameter, the
/// entry columns' slices, each in canonical `(dist, node)` order, and the
/// store's rank table, which [`Row::rank`] reads.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    /// The sketch parameter k.
    pub k: usize,
    /// The sampled nodes.
    pub nodes: &'a [NodeId],
    /// Their distances from the row's source.
    pub dists: &'a [f64],
    /// Their HIP adjusted weights `1/τ`.
    pub weights: &'a [f64],
    /// The store's random rank of every node, indexed by node id. Every
    /// load checks each sampled id against it.
    pub(crate) rank_of: &'a [f64],
}

impl PartialEq for Row<'_> {
    /// Entry-wise equality (ranks through [`Row::rank`]), whichever
    /// table lends the ranks.
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.nodes == other.nodes
            && self.dists == other.dists
            && self.weights == other.weights
            && (0..self.len()).all(|i| self.rank(i) == other.rank(i))
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ranks: Vec<f64> = (0..self.len()).map(|i| self.rank(i)).collect();
        f.debug_struct("Row")
            .field("k", &self.k)
            .field("nodes", &self.nodes)
            .field("dists", &self.dists)
            .field("ranks", &ranks)
            .field("weights", &self.weights)
            .finish()
    }
}

impl<'a> Row<'a> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the row has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The HIP half of the row: nodes, distances and adjusted weights.
    #[inline]
    pub fn hip(&self) -> HipRow<'a> {
        HipRow {
            nodes: self.nodes,
            dists: self.dists,
            weights: self.weights,
        }
    }

    /// The random rank of entry `i`: the rank of the node it samples.
    #[inline]
    pub fn rank(&self, i: usize) -> f64 {
        self.rank_of[self.nodes[i] as usize]
    }

    /// The entries in canonical order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = AdsEntry> + 'a {
        let rank_of = self.rank_of;
        self.nodes
            .iter()
            .zip(self.dists)
            .map(move |(&node, &dist)| AdsEntry::new(node, dist, rank_of[node as usize]))
    }

    /// Number of entries within distance `d`: the canonical prefix
    /// length, input of the size-only estimator ([`crate::size_est`]).
    #[inline]
    pub fn size_at(&self, d: f64) -> usize {
        self.dists.partition_point(|&x| x <= d)
    }

    /// Extracts the bottom-k MinHash sketch of the neighborhood `N_d(v)`:
    /// the k smallest-ranked entries with distance ≤ `d` (paper, Section
    /// 2: "an ADS contains a MinHash sketch of `N_d(v)` for any `d`").
    pub fn minhash_at(&self, d: f64) -> BottomKSketch {
        let cut = self.size_at(d);
        let mut sketch = BottomKSketch::new(self.k);
        for &node in &self.nodes[..cut] {
            sketch.insert_ranked(self.rank_of[node as usize], node as u64);
        }
        sketch
    }
}

/// Read-only access to a per-graph collection of canonical bottom-k ADSs.
///
/// Implementors lend each node's [`Row`]; the provided methods derive
/// from it and are not overridden.
pub trait AdsView {
    /// The sketch parameter k.
    fn k(&self) -> usize;

    /// Number of nodes covered (sketches are indexed `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// `ADS(v)`'s row, in canonical `(dist, node)` order.
    fn row(&self, v: NodeId) -> Row<'_>;

    /// Visits the entries of `ADS(v)` in canonical `(dist, node)` order.
    fn for_each_entry(&self, v: NodeId, f: impl FnMut(AdsEntry)) {
        self.row(v).entries().for_each(f)
    }

    /// Total number of stored entries across all nodes.
    fn total_entries(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.row(v).len())
            .sum()
    }
}

/// Estimated distance distribution of the whole graph: sums every node's
/// HIP neighborhood function, excluding each node itself — the
/// ANF/HyperANF quantity, estimated sketch-side. Returns
/// `(distance, estimated #ordered pairs within distance)` pairs, read
/// from the rows' weight slices.
pub fn distance_distribution_estimate<V: AdsView + ?Sized>(view: &V) -> Vec<(f64, f64)> {
    let mut events: Vec<(f64, f64)> = Vec::new();
    for v in 0..view.num_nodes() as NodeId {
        let hip = view.row(v).hip();
        events.extend(
            hip.items()
                .filter(|it| it.dist > 0.0)
                .map(|it| (it.dist, it.weight)),
        );
    }
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut acc = 0.0;
    for (d, w) in events {
        acc += w;
        match out.last_mut() {
            Some(last) if last.0 == d => last.1 = acc,
            _ => out.push((d, acc)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ads_set::AdsSet;
    use crate::reference::{from_sketches, hip_weights, BottomKAds};
    use adsketch_graph::generators;

    #[test]
    fn row_matches_the_heap_reference() {
        let g = generators::gnp_directed(120, 0.05, 3);
        let ads = AdsSet::build(&g, 4, 9);
        for v in [0u32, 7, 50, 119] {
            let row = ads.row(v);
            assert_eq!(row.k, ads.k());
            assert_eq!(row.hip(), hip_weights(row.k, row.entries()).row());
            for d in [-1.0, 0.0, 1.0, 2.5, f64::INFINITY] {
                let within: Vec<AdsEntry> = row.entries().filter(|e| e.dist <= d).collect();
                assert_eq!(row.size_at(d), within.len());
                let mut mh = BottomKSketch::new(row.k);
                for e in &within {
                    mh.insert_ranked(e.rank, e.node as u64);
                }
                assert_eq!(row.minhash_at(d), mh);
            }
        }
    }

    /// One row lent by a store built from hand-made sketches.
    fn single_row_set(k: usize, entries: Vec<AdsEntry>) -> AdsSet {
        from_sketches(k, vec![BottomKAds::from_entries(k, entries)])
    }

    #[test]
    fn size_at_counts_prefix() {
        let set = single_row_set(
            1,
            vec![
                AdsEntry::new(0, 0.0, 0.5),
                AdsEntry::new(2, 9.0, 0.4),
                AdsEntry::new(3, 18.0, 0.2),
                AdsEntry::new(7, 26.0, 0.1),
            ],
        );
        let row = set.row(0);
        assert_eq!(row.size_at(-1.0), 0);
        assert_eq!(row.size_at(0.0), 1);
        assert_eq!(row.size_at(9.0), 2);
        assert_eq!(row.size_at(17.9), 2);
        assert_eq!(row.size_at(100.0), 4);
    }

    #[test]
    fn minhash_at_keeps_k_smallest_ranks() {
        let set = single_row_set(
            2,
            vec![
                AdsEntry::new(0, 0.0, 0.5),
                AdsEntry::new(1, 1.0, 0.7),
                AdsEntry::new(2, 2.0, 0.4),
                AdsEntry::new(3, 3.0, 0.2),
            ],
        );
        let ranks = |s: BottomKSketch| s.items().iter().map(|i| i.rank).collect::<Vec<f64>>();
        let row = set.row(0);
        assert_eq!(ranks(row.minhash_at(2.0)), vec![0.4, 0.5]);
        assert_eq!(ranks(row.minhash_at(f64::INFINITY)), vec![0.2, 0.4]);
        assert_eq!(row.minhash_at(-1.0).len(), 0);
    }
}
