//! Dynamic-graph ingest: the edge-stream log, incremental ADS
//! maintenance, and the generational freezer.
//!
//! The serving tiers below this crate are built around **immutable**
//! frozen stores. This crate is where mutation lives: edges arrive as a
//! stream, are journaled to an append-only [`EdgeLog`], and are applied
//! one at a time to a [`adsketch_core::DynamicAds`] whose sketches stay
//! **bitwise identical** to a from-scratch batch build after every
//! single insertion (the workspace's standing invariant, extended to
//! dynamic graphs). The log and the sketches are the whole ingest state.
//! A [`Freezer`] snapshots the live sketches into numbered frozen
//! *generations* — ordinary sharded store directories any loader can
//! open — while ingest continues (the caller runs [`Freezer::freeze`] on
//! a thread of its own), and a serving process hot-swaps to each new
//! generation with `adsketch_serve::GenerationStore`.
//!
//! | module | contents |
//! |---|---|
//! | [`log`] | [`EdgeLog`]: segmented append-only edge journal (magic `ADSKELG1`), chained FNV-1a checksums, torn-tail crash recovery |
//! | [`pipeline`] | [`Ingestor`]: log + [`adsketch_core::DynamicAds`], replay-on-open |
//! | [`freezer`] | [`Freezer`]: numbered `gen-NNNN/` sharded stores, atomic `CURRENT` pointer, snapshot under a brief lock and write outside it |
//!
//! # Crash safety
//!
//! What follows holds for a **process** crash, where the OS keeps every
//! byte already written. Edges are applied to the in-memory sketches
//! first and journaled immediately after, so the log is always a
//! *prefix* of what was applied: a crash loses at most the unflushed
//! suffix, never invents edges, and [`Ingestor::open`] rebuilds exactly
//! the logged prefix by replay (incremental maintenance is deterministic,
//! so the rebuilt sketches are bitwise the ones that were live). The last
//! log segment may be torn mid-record by a crash; recovery keeps its
//! longest valid checksummed prefix and truncates the rest (a segment
//! cut inside its header, right after a rotation, gets the header
//! written again). Frozen
//! generations are immutable once written and `CURRENT` is flipped by
//! rename, so a crash mid-freeze leaves at worst an orphaned partial
//! directory the next freeze overwrites — never a half-published
//! generation.
//!
//! Nothing is ever fsynced: not the log, not the shard files, not
//! `CURRENT`'s temp file before the rename. After an OS crash or power
//! loss, bytes the process had written may be lost or damaged. The
//! checksums make damage a typed error, never a silent one: a damaged
//! interior log segment fails [`EdgeLog::open`], and a published
//! generation whose files did not reach the disk fails its load. Damage
//! on the last log segment is indistinguishable from a torn tail and is
//! truncated with it, so recovery may replay fewer edges than were
//! flushed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod freezer;
pub mod log;
pub mod pipeline;

pub use freezer::{current_generation, Freezer, FrozenGeneration};
pub use log::{EdgeLog, EdgeLogEntry};
pub use pipeline::Ingestor;

/// Everything that can go wrong in the ingest tier.
#[derive(Debug)]
pub enum IngestError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A sketch-maintenance failure (bad edge, bad parameters).
    Core(adsketch_core::CoreError),
    /// A freeze failure from the frozen-store writer.
    Frozen(adsketch_core::FrozenError),
    /// A log segment file does not start with the `ADSKELG1` magic.
    BadMagic {
        /// The offending segment file.
        path: std::path::PathBuf,
    },
    /// A log segment carries a version this build cannot replay.
    BadVersion {
        /// The offending segment file.
        path: std::path::PathBuf,
        /// The version the segment header claims.
        version: u32,
    },
    /// Damaged ingest state on disk: a log segment other than the last
    /// is truncated or fails its chained checksum — torn tails are only
    /// survivable on the final segment (a crash interrupts at most one
    /// append) — or the freezer root's `CURRENT` pointer is empty or
    /// does not parse as `gen-<number>`.
    TornLog {
        /// The offending segment or `CURRENT` file.
        path: std::path::PathBuf,
        /// What the reader found.
        detail: String,
    },
    /// Segment base sequence numbers don't chain contiguously — a
    /// segment file is missing or replayed out of order.
    SeqGap {
        /// The sequence number the next segment should start at.
        expected: u64,
        /// The base sequence its header actually claims.
        found: u64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest I/O error: {e}"),
            IngestError::Core(e) => write!(f, "sketch maintenance error: {e}"),
            IngestError::Frozen(e) => write!(f, "freeze error: {e}"),
            IngestError::BadMagic { path } => {
                write!(
                    f,
                    "{} is not an edge-log segment (bad magic)",
                    path.display()
                )
            }
            IngestError::BadVersion { path, version } => write!(
                f,
                "{} has unsupported edge-log version {version}",
                path.display()
            ),
            IngestError::TornLog { path, detail } => {
                write!(f, "damaged ingest state at {}: {detail}", path.display())
            }
            IngestError::SeqGap { expected, found } => write!(
                f,
                "edge-log segment gap: expected base sequence {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Core(e) => Some(e),
            IngestError::Frozen(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<adsketch_core::CoreError> for IngestError {
    fn from(e: adsketch_core::CoreError) -> Self {
        IngestError::Core(e)
    }
}

impl From<adsketch_core::FrozenError> for IngestError {
    fn from(e: adsketch_core::FrozenError) -> Self {
        IngestError::Frozen(e)
    }
}
