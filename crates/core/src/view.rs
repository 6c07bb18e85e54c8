//! The common read-side interface over ADS collections.
//!
//! [`AdsView`] abstracts "one canonical bottom-k ADS per node" so that
//! every estimator — HIP cardinalities, basic (MinHash-extraction)
//! estimates, centralities, similarities, the size-only estimator — runs
//! unchanged against the columnar store ([`crate::frozen::FrozenAdsSet`],
//! which every builder returns) and against the serving tier's stores
//! that route each node to one of several of them. All expose the same
//! entries in the same canonical `(dist, node)` order and the same
//! floating-point operation sequence, so estimator answers are **bitwise
//! identical** across them, and to the per-sketch forms over the heap
//! reference [`crate::BottomKAds`] (asserted by
//! `tests/frozen_roundtrip.rs`).
//!
//! The trait is callback-based (`for_each_entry` / `for_each_hip`)
//! rather than slice-based: the store keeps its entries struct-of-arrays,
//! so handing out `&[AdsEntry]` would force a materialization. Callbacks
//! stream entries with zero allocation, which is what the batch
//! [`crate::engine::QueryEngine`] runs on. The store has one in-memory
//! layout whichever file format it was read from — the **compressed**
//! (format v2) encoding is decoded once, at load, into the same
//! full-width columns — and the decoded values are bit-identical to
//! v1's, so the bitwise-identity guarantee above holds across formats
//! too.

use adsketch_graph::NodeId;
use adsketch_minhash::BottomKSketch;

use crate::entry::AdsEntry;
use crate::hip::{HipItem, HipWeights};

/// Read-only access to a per-graph collection of canonical bottom-k ADSs.
///
/// Implementors guarantee that for every node the entries (and HIP items)
/// are visited in canonical `(dist, node)` order — the order all
/// estimators' floating-point accumulations are defined over.
pub trait AdsView {
    /// The sketch parameter k.
    fn k(&self) -> usize;

    /// Number of nodes covered (sketches are indexed `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// Number of entries in `ADS(v)`.
    fn entry_count(&self, v: NodeId) -> usize;

    /// Visits the entries of `ADS(v)` in canonical `(dist, node)` order.
    fn for_each_entry(&self, v: NodeId, f: impl FnMut(AdsEntry));

    /// Visits the HIP items of `ADS(v)` in canonical order, replaying
    /// the store's precomputed adjusted weights.
    fn for_each_hip(&self, v: NodeId, f: impl FnMut(HipItem));

    /// Number of entries of `ADS(v)` within distance `d` (the canonical
    /// prefix length — input of the size-only estimator).
    fn size_at(&self, v: NodeId, d: f64) -> usize;

    /// Total number of stored entries across all nodes.
    fn total_entries(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.entry_count(v))
            .sum()
    }

    /// Extracts the bottom-k MinHash sketch of `N_d(v)` — same result as
    /// [`crate::bottomk::BottomKAds::minhash_at`].
    fn minhash_at(&self, v: NodeId, d: f64) -> BottomKSketch {
        let mut sketch = BottomKSketch::new(self.k());
        self.for_each_entry(v, |e| {
            if e.dist <= d {
                sketch.insert_ranked(e.rank, e.node as u64);
            }
        });
        sketch
    }

    /// Materializes the HIP adjusted weights of `ADS(v)` (with prefix
    /// sums). Allocates; batch paths should prefer the allocation-free
    /// [`AdsView::hip_qg`] / [`AdsView::hip_cardinality_at`].
    fn hip_weights_of(&self, v: NodeId) -> HipWeights {
        let mut items = Vec::with_capacity(self.entry_count(v));
        self.for_each_hip(v, |it| items.push(it));
        HipWeights::from_sorted_items(items)
    }

    /// HIP estimate of `|N_d(v)|`: the sum of adjusted weights within
    /// distance `d`, accumulated in canonical order (bitwise equal to
    /// [`HipWeights::cardinality_at`]).
    fn hip_cardinality_at(&self, v: NodeId, d: f64) -> f64 {
        let mut acc = 0.0;
        self.for_each_hip(v, |it| {
            if it.dist <= d {
                acc += it.weight;
            }
        });
        acc
    }

    /// HIP estimate of the number of nodes reachable from `v`.
    fn hip_reachable(&self, v: NodeId) -> f64 {
        let mut acc = 0.0;
        self.for_each_hip(v, |it| acc += it.weight);
        acc
    }

    /// HIP estimate of `Q_g(v) = Σ_j g(j, d_vj)` (paper equation (5)),
    /// evaluated without materializing a [`HipWeights`].
    fn hip_qg<F>(&self, v: NodeId, mut g: F) -> f64
    where
        F: FnMut(NodeId, f64) -> f64,
    {
        let mut acc = 0.0;
        self.for_each_hip(v, |it| acc += it.weight * g(it.node, it.dist));
        acc
    }

    /// The estimated cumulative neighborhood function of `v` — bitwise
    /// equal to [`HipWeights::neighborhood_function`].
    fn neighborhood_function_of(&self, v: NodeId) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut acc = 0.0;
        self.for_each_hip(v, |it| {
            acc += it.weight;
            match out.last_mut() {
                Some(last) if last.0 == it.dist => last.1 = acc,
                _ => out.push((it.dist, acc)),
            }
        });
        out
    }
}

/// Estimated distance distribution of the whole graph: sums every node's
/// HIP neighborhood function, excluding each node itself — the
/// ANF/HyperANF quantity, estimated sketch-side. Returns
/// `(distance, estimated #ordered pairs within distance)` pairs.
///
/// Streams HIP items through [`AdsView::for_each_hip`], so no
/// `HipWeights` is allocated per node and a store reads its precomputed
/// weights straight out of its columns.
pub fn distance_distribution_estimate<V: AdsView + ?Sized>(view: &V) -> Vec<(f64, f64)> {
    let mut events: Vec<(f64, f64)> = Vec::new();
    for v in 0..view.num_nodes() as NodeId {
        view.for_each_hip(v, |it| {
            if it.dist > 0.0 {
                events.push((it.dist, it.weight));
            }
        });
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
    use adsketch_graph::generators;

    #[test]
    fn view_defaults_match_sketch_level_queries() {
        let g = generators::gnp_directed(120, 0.05, 3);
        let ads = AdsSet::build(&g, 4, 9);
        for v in [0u32, 7, 50, 119] {
            let sketch = ads.sketch(v);
            let hip = sketch.hip_weights();
            assert_eq!(AdsView::hip_weights_of(&ads, v), hip);
            assert_eq!(ads.hip_reachable(v), hip.reachable_estimate());
            for d in [0.0, 1.0, 2.5, f64::INFINITY] {
                assert_eq!(ads.hip_cardinality_at(v, d), hip.cardinality_at(d));
                assert_eq!(AdsView::minhash_at(&ads, v, d), sketch.minhash_at(d));
                assert_eq!(AdsView::size_at(&ads, v, d), sketch.size_at(d));
            }
            assert_eq!(ads.neighborhood_function_of(v), hip.neighborhood_function());
            assert_eq!(ads.hip_qg(v, |_, d| d), hip.qg(|_, d| d));
        }
    }

    #[test]
    fn distance_distribution_generic_matches_method() {
        let g = generators::gnp(100, 0.05, 11);
        let ads = AdsSet::build(&g, 8, 2);
        assert_eq!(
            distance_distribution_estimate(&ads),
            ads.distance_distribution_estimate()
        );
    }
}
