//! A per-graph collection of bottom-k all-distances sketches.

use adsketch_graph::{Graph, NodeId};

use crate::bottomk::BottomKAds;
use crate::entry::AdsEntry;
use crate::frozen::FrozenAdsSet;
use crate::hip::{HipItem, HipWeights};
use crate::uniform_ranks;
use crate::view::AdsView;

/// Forward bottom-k ADSs for every node of a graph.
///
/// Obtained from one of the builders in [`crate::builder`] (or the brute
/// force in [`crate::reference`]). `sketches[v]` samples the nodes
/// *reachable from* `v` with their forward distances.
#[derive(Debug, Clone, PartialEq)]
pub struct AdsSet {
    k: usize,
    sketches: Vec<BottomKAds>,
}

impl AdsSet {
    /// Builds the ADS set with PrunedDijkstra (the general-purpose
    /// algorithm: weighted or unweighted graphs) using deterministic
    /// uniform ranks derived from `seed`.
    ///
    /// # Panics
    ///
    /// If `k == 0` (the `Result`-returning
    /// [`crate::builder::pruned_dijkstra::build`] reports it as
    /// [`crate::error::CoreError::InvalidK`] instead). Construction cannot otherwise
    /// fail for a valid [`Graph`].
    pub fn build(g: &Graph, k: usize, seed: u64) -> Self {
        let ranks = uniform_ranks(g.num_nodes(), seed);
        crate::builder::pruned_dijkstra::build(g, k, &ranks)
            .expect("uniform ranks are always valid; k must be at least 1")
    }

    /// Like [`AdsSet::build`], fanning the PrunedDijkstra searches out over
    /// `threads` threads (`0` ⇒ all cores). The result is bitwise identical
    /// to [`AdsSet::build`] with the same `seed` for every thread count —
    /// see [`crate::builder::pruned_dijkstra::build_parallel`].
    ///
    /// # Panics
    ///
    /// If `k == 0`, like [`AdsSet::build`].
    pub fn build_parallel(g: &Graph, k: usize, seed: u64, threads: usize) -> Self {
        let ranks = uniform_ranks(g.num_nodes(), seed);
        crate::builder::pruned_dijkstra::build_parallel(g, k, &ranks, threads)
            .expect("uniform ranks are always valid; k must be at least 1")
    }

    /// Wraps pre-built sketches (one per node).
    pub fn from_sketches(k: usize, sketches: Vec<BottomKAds>) -> Self {
        assert!(sketches.iter().all(|s| s.k() == k), "mixed k in ADS set");
        Self { k, sketches }
    }

    /// The sketch parameter k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.sketches.len()
    }

    /// The ADS of node `v`.
    #[inline]
    pub fn sketch(&self, v: NodeId) -> &BottomKAds {
        &self.sketches[v as usize]
    }

    /// All sketches, indexed by node.
    #[inline]
    pub fn sketches(&self) -> &[BottomKAds] {
        &self.sketches
    }

    /// HIP adjusted weights for node `v` (see [`crate::hip`]).
    ///
    /// **Recomputes** the Lemma 5.1 threshold scan and allocates a fresh
    /// [`HipWeights`] on every call — fine for ad-hoc queries, wasteful in
    /// a serving loop. For repeated or batched querying, [`AdsSet::freeze`]
    /// the set once: the frozen store carries every entry's adjusted
    /// weight precomputed, and [`crate::engine::QueryEngine`] batches over
    /// it without any per-query allocation.
    pub fn hip(&self, v: NodeId) -> HipWeights {
        self.sketches[v as usize].hip_weights()
    }

    /// Freezes this set into the immutable columnar query form
    /// ([`FrozenAdsSet`]): CSR-flattened entries plus precomputed HIP
    /// adjusted weights, ready for single-buffer checksummed
    /// serialization ([`FrozenAdsSet::to_bytes`]) and batch serving
    /// ([`crate::engine::QueryEngine`]). All estimator answers from the
    /// frozen store are bitwise identical to this set's.
    pub fn freeze(&self) -> FrozenAdsSet {
        FrozenAdsSet::from_ads_set(self)
    }

    /// Approximate resident heap size of this set in bytes (sketch
    /// headers and entry vectors, by capacity). Compare with
    /// [`FrozenAdsSet::resident_bytes`] and
    /// [`FrozenAdsSet::serialized_len`] for the columnar/on-disk costs.
    pub fn approx_heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.sketches.capacity() * std::mem::size_of::<BottomKAds>()
            + self
                .sketches
                .iter()
                .map(|s| s.heap_bytes_excluding_self())
                .sum::<usize>()
    }

    /// Total number of stored entries across all nodes.
    pub fn total_entries(&self) -> usize {
        self.sketches.iter().map(|s| s.len()).sum()
    }

    /// Mean entries per node — Lemma 2.2 predicts
    /// `k(1 + ln n − ln k)` on a strongly-connected graph.
    pub fn mean_entries(&self) -> f64 {
        if self.sketches.is_empty() {
            0.0
        } else {
            self.total_entries() as f64 / self.sketches.len() as f64
        }
    }

    /// Estimated distance distribution of the whole graph: sums every
    /// node's HIP neighborhood function, excluding each node itself —
    /// the ANF/HyperANF quantity, estimated sketch-side. Returns
    /// `(distance, estimated #ordered pairs within distance)` pairs.
    ///
    /// Routed through the [`AdsView`] streaming path, so no per-node
    /// `HipWeights` is allocated.
    pub fn distance_distribution_estimate(&self) -> Vec<(f64, f64)> {
        crate::view::distance_distribution_estimate(self)
    }

    /// Validates every sketch's structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        for (v, s) in self.sketches.iter().enumerate() {
            s.validate().map_err(|e| format!("node {v}: {e}"))?;
        }
        Ok(())
    }
}

impl AdsView for AdsSet {
    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        self.sketches.len()
    }

    #[inline]
    fn entry_count(&self, v: NodeId) -> usize {
        self.sketches[v as usize].len()
    }

    fn for_each_entry(&self, v: NodeId, mut f: impl FnMut(AdsEntry)) {
        for e in self.sketches[v as usize].entries() {
            f(*e);
        }
    }

    fn for_each_hip(&self, v: NodeId, f: impl FnMut(HipItem)) {
        self.sketches[v as usize].hip_scan(f);
    }

    fn size_at(&self, v: NodeId, d: f64) -> usize {
        self.sketches[v as usize].size_at(d)
    }

    fn minhash_at(&self, v: NodeId, d: f64) -> adsketch_minhash::BottomKSketch {
        self.sketches[v as usize].minhash_at(d)
    }

    fn hip_weights_of(&self, v: NodeId) -> HipWeights {
        self.sketches[v as usize].hip_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_graph::generators;

    #[test]
    fn build_and_query_roundtrip() {
        let g = generators::gnp(120, 0.05, 3);
        let ads = AdsSet::build(&g, 4, 9);
        assert_eq!(ads.k(), 4);
        assert_eq!(ads.num_nodes(), 120);
        assert!(ads.validate().is_ok());
        assert!(ads.total_entries() >= 120, "every node samples itself");
        let hip = ads.hip(0);
        assert!(hip.reachable_estimate() >= 1.0);
    }

    #[test]
    fn mean_entries_tracks_lemma_2_2() {
        use adsketch_util::harmonic::expected_bottomk_ads_size;
        let n = 400;
        let g = generators::barabasi_albert(n, 3, 5);
        let k = 4;
        // Average over seeds to tame variance.
        let mut total = 0.0;
        let runs = 20;
        for seed in 0..runs {
            total += AdsSet::build(&g, k, seed).mean_entries();
        }
        let mean = total / runs as f64;
        let expect = expected_bottomk_ads_size(n as u64, k);
        assert!(
            (mean - expect).abs() / expect < 0.1,
            "mean {mean} vs Lemma 2.2 {expect}"
        );
    }

    #[test]
    fn distance_distribution_estimate_close_to_exact() {
        let g = generators::gnp(150, 0.04, 11);
        let exact = adsketch_graph::exact::distance_distribution(&g);
        let mut est_final = 0.0;
        let runs = 15;
        for seed in 0..runs {
            let ads = AdsSet::build(&g, 8, seed);
            let dd = ads.distance_distribution_estimate();
            est_final += dd.last().map_or(0.0, |&(_, c)| c);
        }
        est_final /= runs as f64;
        let truth = exact.connected_pairs() as f64;
        assert!(
            (est_final - truth).abs() / truth < 0.1,
            "estimated pairs {est_final}, exact {truth}"
        );
    }

    #[test]
    #[should_panic(expected = "mixed k")]
    fn from_sketches_rejects_mixed_k() {
        let a = BottomKAds::empty(2);
        let b = BottomKAds::empty(3);
        let _ = AdsSet::from_sketches(2, vec![a, b]);
    }
}
