//! The per-graph collection of bottom-k all-distances sketches, and the
//! seeded entry points that build it.
//!
//! There is one collection: the columnar [`FrozenAdsSet`]. Every builder
//! in [`crate::builder`] (and the brute force in [`crate::reference`])
//! returns it, with the HIP adjusted weights computed as it takes over
//! the builder's columns, so a build is ready to query, save or shard.
//! [`AdsSet`] names the same type for code that reads better as "the ADS
//! set of a graph".

use adsketch_graph::{Graph, NodeId};

use crate::frozen::FrozenAdsSet;
use crate::hip::HipRow;
use crate::uniform_ranks;

/// Forward bottom-k ADSs for every node of a graph: the columnar store.
/// Row `v` samples the nodes *reachable from* `v` with their forward
/// distances.
pub type AdsSet = FrozenAdsSet;

impl FrozenAdsSet {
    /// Builds the ADS set with PrunedDijkstra (the general-purpose
    /// algorithm: weighted or unweighted graphs) using deterministic
    /// uniform ranks derived from `seed`.
    ///
    /// # Panics
    ///
    /// If `k == 0` (the `Result`-returning
    /// [`crate::builder::pruned_dijkstra::build_with_stats`] reports it as
    /// [`crate::error::CoreError::InvalidK`] instead). Construction cannot otherwise
    /// fail for a valid [`Graph`].
    pub fn build(g: &Graph, k: usize, seed: u64) -> Self {
        let ranks = uniform_ranks(g.num_nodes(), seed);
        crate::builder::pruned_dijkstra::build_with_stats(g, k, &ranks)
            .expect("uniform ranks are always valid; k must be at least 1")
            .0
    }

    /// Like [`AdsSet::build`], fanning the PrunedDijkstra searches out over
    /// `threads` threads (`0` ⇒ all cores). The result is bitwise identical
    /// to [`AdsSet::build`] with the same `seed` for every thread count —
    /// see [`crate::builder::pruned_dijkstra::build_parallel_with_stats`].
    ///
    /// # Panics
    ///
    /// If `k == 0`, like [`AdsSet::build`].
    pub fn build_parallel(g: &Graph, k: usize, seed: u64, threads: usize) -> Self {
        let ranks = uniform_ranks(g.num_nodes(), seed);
        crate::builder::pruned_dijkstra::build_parallel_with_stats(g, k, &ranks, threads)
            .expect("uniform ranks are always valid; k must be at least 1")
            .0
    }

    /// A copy of this set. Kept for callers written against the build →
    /// freeze → save pipeline: a build already is the store.
    pub fn freeze(&self) -> FrozenAdsSet {
        self.clone()
    }

    /// The HIP half of row `v` (see [`crate::hip`]): zero-copy slices of
    /// the stored node, distance and weight columns.
    #[inline]
    pub fn hip(&self, v: NodeId) -> HipRow<'_> {
        self.row(v).hip()
    }

    /// Total number of stored entries across all nodes (the same count as
    /// [`FrozenAdsSet::num_entries`]).
    pub fn total_entries(&self) -> usize {
        self.num_entries()
    }

    /// Mean entries per node — Lemma 2.2 predicts
    /// `k(1 + ln n − ln k)` on a strongly-connected graph.
    pub fn mean_entries(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_entries() as f64 / self.num_nodes() as f64
        }
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
        for v in 0..120 {
            let entries = ads.row(v).entries().collect();
            let sketch = crate::reference::BottomKAds::from_entries(4, entries);
            assert_eq!(sketch.validate(), Ok(()), "node {v}");
        }
        assert!(ads.num_entries() >= 120, "every node samples itself");
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
            let dd = crate::view::distance_distribution_estimate(&ads);
            est_final += dd.last().map_or(0.0, |&(_, c)| c);
        }
        est_final /= runs as f64;
        let truth = exact.connected_pairs() as f64;
        assert!(
            (est_final - truth).abs() / truth < 0.1,
            "estimated pairs {est_final}, exact {truth}"
        );
    }
}
