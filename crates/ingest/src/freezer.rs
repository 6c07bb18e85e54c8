//! The generational freezer: live sketches → numbered frozen stores.
//!
//! A [`Freezer`] snapshots an [`Ingestor`]'s live sketches into numbered
//! generation directories (`gen-0001/`, `gen-0002/`, …) under one root.
//! Each generation is an ordinary sharded frozen store —
//! [`adsketch_core::freeze_sharded_format`] output, loadable by every
//! existing loader — plus nothing else: generations are immutable once
//! published and independently verifiable via their manifests. A
//! `CURRENT` file at the root names the latest published generation and
//! is flipped by write-to-temp + rename, so while the OS survives,
//! readers either see the previous generation or the complete new one,
//! never a torn pointer. Nothing is fsynced, so after an OS crash or
//! power loss the pointer or the files it names can fail their load
//! with a typed error (see the crate docs, "Crash safety").
//!
//! The ingestor is locked only long enough to **snapshot** the live
//! sketches — their columns concatenated into the store, HIP weights
//! computed on the way — and read its edge count; the expensive part —
//! sharding, encoding, writing, checksumming — runs outside the lock,
//! so ingest continues while a freeze is in flight. A caller that wants
//! periodic generations runs [`Freezer::freeze`] on a thread of its own
//! and chains a hot-swap (`adsketch_serve::GenerationStore::swap`) onto
//! each [`FrozenGeneration`] it returns.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use adsketch_core::{freeze_sharded_format, ShardManifest, StoreFormat};

use crate::pipeline::Ingestor;
use crate::IngestError;

/// The root-level pointer file naming the latest published generation.
pub const CURRENT_FILE: &str = "CURRENT";

/// Directory name of generation `generation` under the freezer root.
pub fn generation_dir_name(generation: u64) -> String {
    format!("gen-{generation:04}")
}

/// Reads the root's `CURRENT` pointer: the latest published generation
/// number and its store directory, or `None` when nothing has been
/// published yet.
pub fn current_generation(root: impl AsRef<Path>) -> Result<Option<(u64, PathBuf)>, IngestError> {
    let root = root.as_ref();
    let raw = match std::fs::read_to_string(root.join(CURRENT_FILE)) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let name = raw.trim();
    let generation = name
        .strip_prefix("gen-")
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| IngestError::TornLog {
            path: root.join(CURRENT_FILE),
            detail: format!("unparseable CURRENT pointer {name:?}"),
        })?;
    Ok(Some((generation, root.join(name))))
}

/// One published generation: where it lives and what went into it.
#[derive(Debug, Clone)]
pub struct FrozenGeneration {
    /// The generation number (1-based, strictly increasing).
    pub generation: u64,
    /// The sharded store directory holding this generation.
    pub dir: PathBuf,
    /// The store's shard manifest (digests pin the exact bytes).
    pub manifest: ShardManifest,
    /// Edges the snapshot covers (the log prefix it equals).
    pub edges: u64,
    /// Wall-clock spent freezing (snapshot + encode + write).
    pub freeze_seconds: f64,
}

/// Snapshots an ingestor into numbered generation directories.
#[derive(Debug)]
pub struct Freezer {
    root: PathBuf,
    shards: usize,
    format: StoreFormat,
    next_gen: u64,
}

impl Freezer {
    /// Creates a freezer publishing into `root` (created if missing),
    /// `shards` shards per generation in `format`. Resumes numbering
    /// after an existing `CURRENT` pointer, so a restarted process never
    /// reuses a published generation number. A `shards` of 0 is an
    /// [`IngestError::Io`] of kind `InvalidInput`.
    pub fn new(
        root: impl AsRef<Path>,
        shards: usize,
        format: StoreFormat,
    ) -> Result<Self, IngestError> {
        if shards == 0 {
            return Err(IngestError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "shard count must be ≥ 1",
            )));
        }
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let next_gen = match current_generation(&root)? {
            Some((generation, _)) => generation + 1,
            None => 1,
        };
        Ok(Freezer {
            root,
            shards,
            format,
            next_gen,
        })
    }

    /// Snapshots `ingestor` (brief lock), freezes the snapshot into the
    /// next generation directory (no lock held), and atomically flips
    /// `CURRENT` to it.
    pub fn freeze(&mut self, ingestor: &Mutex<Ingestor>) -> Result<FrozenGeneration, IngestError> {
        let started = Instant::now();
        let (snapshot, edges) = {
            let mut ing = ingestor.lock().expect("ingestor lock");
            ing.flush()?; // the journal covers everything the snapshot holds
            (ing.snapshot(), ing.edges())
        };
        let generation = self.next_gen;
        let dir = self.root.join(generation_dir_name(generation));
        // A crash may have left a partial directory under this number
        // (CURRENT was never flipped to it): clear and rewrite.
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let manifest = freeze_sharded_format(&snapshot, self.shards, &dir, self.format)?;
        // The rename is atomic for a process crash. Neither the shard
        // files nor the temp file is fsynced first, so after an OS crash
        // or power loss CURRENT may name files that never reached the
        // disk (their checksums fail the load) or be empty (unparseable).
        let tmp = self.root.join(format!(".CURRENT.tmp.{generation}"));
        std::fs::write(&tmp, format!("{}\n", generation_dir_name(generation)))?;
        std::fs::rename(&tmp, self.root.join(CURRENT_FILE))?;
        self.next_gen += 1;
        Ok(FrozenGeneration {
            generation,
            dir,
            manifest,
            edges,
            freeze_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_core::frozen::{shard_file_name, SHARD_MANIFEST_FILE};
    use adsketch_core::{AdsSet, FrozenAdsSet, QueryEngine, ShardManifest};
    use adsketch_graph::Graph;
    use std::sync::mpsc::sync_channel;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("adsketch_ingest_frz_{tag}_{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    /// Loads a generation directory shard by shard and answers harmonic
    /// centrality for all nodes — the oracle comparison the serve tier
    /// makes over the wire, minus the wire. Shards keep global node ids.
    fn harmonic_of_generation(dir: &Path, n: usize) -> Vec<f64> {
        let manifest = ShardManifest::load(dir.join(SHARD_MANIFEST_FILE)).unwrap();
        let mut out = vec![0.0; n];
        for (i, rec) in manifest.records().iter().enumerate() {
            let shard = FrozenAdsSet::load(dir.join(shard_file_name(i))).unwrap();
            let engine = QueryEngine::new(&shard);
            let nodes: Vec<u32> = (rec.start as u32..rec.end as u32).collect();
            for (v, x) in nodes.iter().zip(engine.harmonic_batch(&nodes)) {
                out[*v as usize] = x;
            }
        }
        out
    }

    #[test]
    fn generations_advance_and_current_points_at_latest() {
        let s = Scratch::new("advance");
        let ingestor = Mutex::new(Ingestor::open(s.0.join("log"), 30, 4, 5, 64).unwrap());
        let mut freezer = Freezer::new(s.0.join("store"), 2, StoreFormat::V1).unwrap();
        for i in 0..20u32 {
            ingestor
                .lock()
                .unwrap()
                .ingest(i % 30, (i + 1) % 30, 1.0)
                .unwrap();
        }
        let g1 = freezer.freeze(&ingestor).unwrap();
        assert_eq!(g1.generation, 1);
        assert_eq!(g1.edges, 20);
        for i in 0..10u32 {
            ingestor
                .lock()
                .unwrap()
                .ingest((i + 5) % 30, (i + 9) % 30, 2.0)
                .unwrap();
        }
        let g2 = freezer.freeze(&ingestor).unwrap();
        assert_eq!(g2.generation, 2);
        assert_eq!(g2.edges, 30);
        let (current, dir) = current_generation(s.0.join("store")).unwrap().unwrap();
        assert_eq!(current, 2);
        assert_eq!(dir, g2.dir);
        // Both generations remain loadable; the latest matches the live
        // snapshot bitwise.
        let live = ingestor.lock().unwrap().snapshot();
        let oracle = QueryEngine::new(&live.freeze()).harmonic_all();
        assert_eq!(harmonic_of_generation(&g2.dir, 30), oracle);
        assert_eq!(
            harmonic_of_generation(&g1.dir, 30).len(),
            30 // gen 1 predates the last 10 edges but still serves
        );
    }

    #[test]
    fn zero_shards_is_rejected_at_construction() {
        let s = Scratch::new("zero_shards");
        match Freezer::new(s.0.join("store"), 0, StoreFormat::V1) {
            Err(IngestError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
                assert!(e.to_string().contains("shard count"), "{e}");
            }
            other => panic!("expected InvalidInput, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn damaged_current_pointer_is_a_typed_error() {
        let s = Scratch::new("damaged_current");
        std::fs::create_dir_all(&s.0).unwrap();
        for raw in ["", "gen-x\n"] {
            std::fs::write(s.0.join(CURRENT_FILE), raw).unwrap();
            assert!(
                matches!(current_generation(&s.0), Err(IngestError::TornLog { .. })),
                "CURRENT = {raw:?}"
            );
            assert!(
                matches!(
                    Freezer::new(&s.0, 1, StoreFormat::V1),
                    Err(IngestError::TornLog { .. })
                ),
                "CURRENT = {raw:?}"
            );
        }
    }

    #[test]
    fn freezer_numbering_resumes_after_restart() {
        let s = Scratch::new("resume");
        let ingestor = Mutex::new(Ingestor::open(s.0.join("log"), 10, 4, 5, 64).unwrap());
        let mut freezer = Freezer::new(s.0.join("store"), 1, StoreFormat::V2).unwrap();
        ingestor.lock().unwrap().ingest(0, 1, 1.0).unwrap();
        assert_eq!(freezer.freeze(&ingestor).unwrap().generation, 1);
        drop(freezer);
        let mut freezer = Freezer::new(s.0.join("store"), 1, StoreFormat::V2).unwrap();
        ingestor.lock().unwrap().ingest(1, 2, 1.0).unwrap();
        assert_eq!(freezer.freeze(&ingestor).unwrap().generation, 2);
    }

    #[test]
    fn crash_recovery_replays_the_log_into_the_next_generation() {
        let s = Scratch::new("crash");
        let edges: Vec<(u32, u32, f64)> = (0..25u32)
            .map(|i| (i % 20, (i * 3 + 1) % 20, 1.5))
            .collect();
        {
            let ingestor = Mutex::new(Ingestor::open(s.0.join("log"), 20, 4, 7, 8).unwrap());
            let mut freezer = Freezer::new(s.0.join("store"), 2, StoreFormat::V1).unwrap();
            for &(u, v, w) in &edges[..10] {
                ingestor.lock().unwrap().ingest(u, v, w).unwrap();
            }
            freezer.freeze(&ingestor).unwrap();
            for &(u, v, w) in &edges[10..] {
                ingestor.lock().unwrap().ingest(u, v, w).unwrap();
            }
            ingestor.lock().unwrap().flush().unwrap();
            // "Crash": drop everything without freezing the tail.
        }
        // Restart: replay the journal, freeze, and the new generation
        // equals the batch build of the *entire* edge stream.
        let ingestor = Mutex::new(Ingestor::open(s.0.join("log"), 20, 4, 7, 8).unwrap());
        assert_eq!(ingestor.lock().unwrap().edges(), 25);
        let mut freezer = Freezer::new(s.0.join("store"), 2, StoreFormat::V1).unwrap();
        let g2 = freezer.freeze(&ingestor).unwrap();
        assert_eq!(g2.generation, 2);
        let oracle = AdsSet::build(&Graph::directed_weighted(20, &edges).unwrap(), 4, 7);
        let expect = QueryEngine::new(&oracle.freeze()).harmonic_all();
        assert_eq!(harmonic_of_generation(&g2.dir, 20), expect);
    }

    #[test]
    fn concurrent_freezes_publish_while_ingest_continues() {
        let s = Scratch::new("concurrent");
        let ingestor = Mutex::new(Ingestor::open(s.0.join("log"), 40, 4, 3, 256).unwrap());
        let mut freezer = Freezer::new(s.0.join("store"), 2, StoreFormat::V1).unwrap();
        // Rendezvous channel: each generation the ingesting side receives
        // was frozen while it kept ingesting; hanging up stops the loop.
        let (tx, rx) = sync_channel(0);
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| loop {
                let generation = freezer.freeze(&ingestor).unwrap().generation;
                if tx.send(generation).is_err() {
                    break;
                }
            });
            for i in 0..400u32 {
                ingestor
                    .lock()
                    .unwrap()
                    .ingest(i % 40, (i + 1) % 40, 1.0)
                    .unwrap();
                if i % 50 == 49 {
                    seen.push(rx.recv().unwrap());
                }
            }
            drop(rx);
        });
        // Catch-up freeze so the final generation covers the whole stream.
        seen.push(freezer.freeze(&ingestor).unwrap().generation);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "monotone: {seen:?}");
        let (current, dir) = current_generation(s.0.join("store")).unwrap().unwrap();
        assert_eq!(current, *seen.last().unwrap());
        let live = ingestor.lock().unwrap().snapshot();
        let oracle = QueryEngine::new(&live.freeze()).harmonic_all();
        assert_eq!(harmonic_of_generation(&dir, 40), oracle);
    }
}
