//! The ingest pipeline: journal + live sketches + stream counters.
//!
//! An [`Ingestor`] owns one [`EdgeLog`] and one
//! [`adsketch_core::DynamicAds`] and keeps them in lockstep: every
//! accepted edge is applied to the sketches and journaled, in that
//! order, so the log is always a replayable prefix of the applied
//! stream (see the crate docs for the crash-safety argument). Because
//! incremental maintenance is exact — the sketches after `m` insertions
//! are bitwise the batch build of those `m` edges — replaying the log
//! into a fresh `DynamicAds` reproduces the live sketches bit for bit.
//!
//! Alongside the graph sketches, the ingestor feeds the edge stream's
//! endpoints into the stream tier's distinct counters
//! ([`FirstOccurrenceAds`], [`RecencyAds`]) with the edge sequence
//! number as the timestamp, so freezer stats can report (estimated) how
//! many distinct nodes the stream has ever touched and how many it
//! touched recently — at `O(k)` memory, without scanning the graph.

use std::path::Path;

use adsketch_core::{AdsSet, DynamicAds};
use adsketch_stream::streaming_ads::{FirstOccurrenceAds, RecencyAds};

use crate::log::{EdgeLog, EdgeLogEntry};
use crate::IngestError;

/// Seed domain separators so the stream counters draw ranks independent
/// of the graph sketches'.
const TOUCHED_SEED_TAG: u64 = 0x746f_7563_6865_6421; // "touched!"
const RECENT_SEED_TAG: u64 = 0x7265_6365_6e74_6c79; // "recently"

/// Point-in-time counters over the ingested stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestStats {
    /// Edges applied to the live sketches (= edges journaled).
    pub edges: u64,
    /// Estimated distinct nodes ever touched by any edge endpoint.
    pub distinct_endpoints: f64,
    /// Estimated distinct nodes touched by the last `window` edges (the
    /// window the stats were asked with).
    pub recent_endpoints: f64,
}

/// The ingest pipeline: edge journal + incremental ADS + stream
/// counters, opened from (and recovered by) the log directory.
#[derive(Debug)]
pub struct Ingestor {
    log: EdgeLog,
    ads: DynamicAds,
    touched: FirstOccurrenceAds,
    recent: RecencyAds,
}

impl Ingestor {
    /// Opens the ingest pipeline over the edge log in `dir`, replaying
    /// any recovered history into a fresh `n`-node, parameter-`k`
    /// incremental sketch set. Deterministic: the same log, `n`, `k`,
    /// and `seed` always rebuild bitwise-identical sketches.
    pub fn open(
        dir: impl AsRef<Path>,
        n: usize,
        k: usize,
        seed: u64,
        segment_cap: u64,
    ) -> Result<Self, IngestError> {
        let (log, replayed) = EdgeLog::open(dir, segment_cap)?;
        let mut ingestor = Ingestor {
            log,
            ads: DynamicAds::new(n, k, seed),
            touched: FirstOccurrenceAds::new(k, seed ^ TOUCHED_SEED_TAG),
            recent: RecencyAds::new(k, seed ^ RECENT_SEED_TAG),
        };
        for EdgeLogEntry { seq, u, v, w } in replayed {
            ingestor.ads.insert_edge(u, v, w)?;
            ingestor.observe_endpoints(u, v, seq);
        }
        Ok(ingestor)
    }

    fn observe_endpoints(&mut self, u: u32, v: u32, seq: u64) {
        let t = seq as f64;
        self.touched.observe(u64::from(u), t);
        self.touched.observe(u64::from(v), t);
        self.recent.observe(u64::from(u), t);
        self.recent.observe(u64::from(v), t);
    }

    /// Applies one edge to the live sketches, journals it, and feeds the
    /// stream counters. Returns the edge's sequence number. A rejected
    /// edge (endpoint out of range, bad weight) changes nothing and is
    /// **not** journaled.
    pub fn ingest(&mut self, u: u32, v: u32, w: f64) -> Result<u64, IngestError> {
        self.ads.insert_edge(u, v, w)?;
        let seq = self.log.append(u, v, w)?;
        self.observe_endpoints(u, v, seq);
        Ok(seq)
    }

    /// Flushes the journal's buffered records to the OS.
    pub fn flush(&mut self) -> Result<(), IngestError> {
        self.log.flush()
    }

    /// Edges applied so far (and journaled — the two never diverge by
    /// more than the in-flight call).
    pub fn edges(&self) -> u64 {
        self.ads.edges_applied()
    }

    /// The live incremental sketch set.
    pub fn ads(&self) -> &DynamicAds {
        &self.ads
    }

    /// The underlying journal (segment count, directory, …).
    pub fn log(&self) -> &EdgeLog {
        &self.log
    }

    /// The live sketches as the columnar store, ready to shard — bitwise
    /// the batch build of every edge ingested so far.
    pub fn snapshot(&self) -> AdsSet {
        self.ads.snapshot()
    }

    /// Stream counters at this instant; `window` is the number of most
    /// recent edges the recency estimate covers.
    pub fn stats(&self, window: u64) -> IngestStats {
        let edges = self.edges();
        let t_min = edges.saturating_sub(window) as f64;
        IngestStats {
            edges,
            distinct_endpoints: self.touched.distinct(),
            recent_endpoints: self.recent.distinct_since(t_min),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_core::CoreError;
    use adsketch_graph::{generators, Graph};
    use std::path::PathBuf;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("adsketch_ingest_pipe_{tag}_{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn sample_edges(n: u32, m: usize, seed: u64) -> Vec<(u32, u32, f64)> {
        let g = generators::random_weighted_digraph(n as usize, 3, 0.5, 2.5, seed);
        let mut edges = Vec::new();
        for u in 0..g.num_nodes() as u32 {
            for (v, w) in g.arcs(u) {
                edges.push((u, v, w));
            }
        }
        edges.truncate(m);
        edges
    }

    #[test]
    fn ingest_matches_batch_build_bitwise() {
        let s = Scratch::new("batch");
        let edges = sample_edges(50, 160, 11);
        let mut ing = Ingestor::open(&s.0, 50, 4, 77, 64).unwrap();
        for &(u, v, w) in &edges {
            ing.ingest(u, v, w).unwrap();
        }
        let oracle = AdsSet::build(&Graph::directed_weighted(50, &edges).unwrap(), 4, 77);
        assert_eq!(ing.snapshot(), oracle);
    }

    #[test]
    fn reopen_replays_to_identical_sketches_and_counters() {
        let s = Scratch::new("reopen");
        let edges = sample_edges(40, 120, 5);
        let mut ing = Ingestor::open(&s.0, 40, 4, 9, 32).unwrap();
        for &(u, v, w) in &edges {
            ing.ingest(u, v, w).unwrap();
        }
        ing.flush().unwrap();
        let live = ing.snapshot();
        let live_stats = ing.stats(50);
        drop(ing);
        let recovered = Ingestor::open(&s.0, 40, 4, 9, 32).unwrap();
        assert_eq!(recovered.edges(), edges.len() as u64);
        assert_eq!(recovered.snapshot(), live);
        assert_eq!(recovered.stats(50), live_stats);
    }

    #[test]
    fn rejected_edges_are_not_journaled() {
        let s = Scratch::new("reject");
        let mut ing = Ingestor::open(&s.0, 10, 4, 1, 32).unwrap();
        ing.ingest(0, 1, 1.0).unwrap();
        match ing.ingest(0, 99, 1.0) {
            Err(IngestError::Core(CoreError::NodeOutOfRange { .. })) => {}
            other => panic!("expected NodeOutOfRange, got {other:?}"),
        }
        match ing.ingest(1, 2, f64::NAN) {
            Err(IngestError::Core(CoreError::InvalidWeight { .. })) => {}
            other => panic!("expected InvalidWeight, got {other:?}"),
        }
        ing.flush().unwrap();
        drop(ing);
        let recovered = Ingestor::open(&s.0, 10, 4, 1, 32).unwrap();
        assert_eq!(recovered.edges(), 1);
    }

    #[test]
    fn stream_counters_track_the_stream_not_the_graph() {
        let s = Scratch::new("counters");
        let mut ing = Ingestor::open(&s.0, 100, 16, 3, 1024).unwrap();
        // 30 edges over nodes 0..10, then 10 edges over nodes 90..100.
        for i in 0..30u32 {
            ing.ingest(i % 10, (i + 1) % 10, 1.0).unwrap();
        }
        for i in 0..10u32 {
            ing.ingest(90 + (i % 5), 95 + (i % 5), 1.0).unwrap();
        }
        let stats = ing.stats(10);
        assert_eq!(stats.edges, 40);
        // ~20 distinct endpoints ever; only the 90.. band recently.
        assert!(stats.distinct_endpoints > 10.0);
        assert!(stats.recent_endpoints <= stats.distinct_endpoints);
        assert!(stats.recent_endpoints > 0.0);
    }
}
