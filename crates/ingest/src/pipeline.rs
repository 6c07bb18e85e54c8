//! The ingest pipeline: journal + live sketches.
//!
//! An [`Ingestor`] owns one [`EdgeLog`] and one
//! [`adsketch_core::DynamicAds`] and keeps them in lockstep: every
//! accepted edge is applied to the sketches and journaled, in that
//! order, so the log is always a replayable prefix of the applied
//! stream (see the crate docs for the crash-safety argument). Because
//! incremental maintenance is exact — the sketches after `m` insertions
//! are bitwise the batch build of those `m` edges — replaying the log
//! into a fresh `DynamicAds` reproduces the live sketches bit for bit.
//! The log and the sketches are the whole ingest state: nothing else is
//! derived from the stream.

use std::path::Path;

use adsketch_core::{uniform_ranks, AdsSet, DynamicAds};

use crate::log::{EdgeLog, EdgeLogEntry};
use crate::IngestError;

/// The ingest pipeline: edge journal + incremental ADS, opened from
/// (and recovered by) the log directory.
#[derive(Debug)]
pub struct Ingestor {
    log: EdgeLog,
    ads: DynamicAds,
}

impl Ingestor {
    /// Opens the ingest pipeline over the edge log in `dir`, replaying
    /// any recovered history into a fresh `n`-node, parameter-`k`
    /// incremental sketch set. Deterministic: the same log, `n`, `k`,
    /// and `seed` always rebuild bitwise-identical sketches. A `k`
    /// outside `1..=65535` is an [`IngestError::Core`]
    /// ([`adsketch_core::CoreError::InvalidK`]); a `segment_cap` of 0 is
    /// an [`IngestError::Io`] of kind `InvalidInput`.
    pub fn open(
        dir: impl AsRef<Path>,
        n: usize,
        k: usize,
        seed: u64,
        segment_cap: u64,
    ) -> Result<Self, IngestError> {
        let mut ads = DynamicAds::with_ranks(k, uniform_ranks(n, seed))?;
        let (log, replayed) = EdgeLog::open(dir, segment_cap)?;
        for EdgeLogEntry { u, v, w, .. } in replayed {
            ads.insert_edge(u, v, w)?;
        }
        Ok(Ingestor { log, ads })
    }

    /// Applies one edge to the live sketches and journals it. Returns
    /// the edge's sequence number. A rejected edge (endpoint out of
    /// range, bad weight) changes nothing and is **not** journaled.
    pub fn ingest(&mut self, u: u32, v: u32, w: f64) -> Result<u64, IngestError> {
        self.ads.insert_edge(u, v, w)?;
        self.log.append(u, v, w)
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
    fn reopen_replays_to_identical_sketches() {
        let s = Scratch::new("reopen");
        let edges = sample_edges(40, 120, 5);
        let mut ing = Ingestor::open(&s.0, 40, 4, 9, 32).unwrap();
        for &(u, v, w) in &edges {
            ing.ingest(u, v, w).unwrap();
        }
        ing.flush().unwrap();
        let live = ing.snapshot();
        drop(ing);
        let recovered = Ingestor::open(&s.0, 40, 4, 9, 32).unwrap();
        assert_eq!(recovered.edges(), edges.len() as u64);
        assert_eq!(recovered.snapshot(), live);
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
    fn k_outside_the_u16_range_is_a_typed_error() {
        for k in [0, 65_536] {
            let s = Scratch::new(&format!("k{k}"));
            match Ingestor::open(&s.0, 10, k, 1, 32) {
                Err(IngestError::Core(CoreError::InvalidK { k: got })) if got == k => {}
                other => panic!("k = {k}: expected InvalidK, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn zero_segment_cap_is_rejected_at_open() {
        let s = Scratch::new("zero_cap");
        match Ingestor::open(&s.0, 10, 4, 1, 0) {
            Err(IngestError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
                assert!(e.to_string().contains("segment capacity"), "{e}");
            }
            other => panic!("expected InvalidInput, got {:?}", other.map(|_| ())),
        }
    }
}
