//! The serving error type.

use std::fmt;

use adsketch_core::FrozenError;

/// Errors surfaced by the sharded store loader, the wire protocol codec,
/// and the client/server endpoints.
#[derive(Debug)]
pub enum ServeError {
    /// An underlying socket or filesystem error.
    Io(std::io::Error),
    /// A shard file or the manifest failed `adsketch-core`'s format
    /// validation (bad magic/version, truncation, checksum mismatch,
    /// structural corruption).
    Frozen(FrozenError),
    /// The shard set is inconsistent with its manifest (missing shard
    /// file, pinned-checksum mismatch, parameter disagreement, rows
    /// populated outside the declared range, …).
    Store(String),
    /// The peer violated the wire protocol (bad handshake, oversized or
    /// malformed frame, unknown message type).
    Protocol(String),
    /// The server answered with an error frame.
    Remote {
        /// Machine-readable error code (see [`crate::proto`] for the
        /// assigned codes).
        code: u16,
        /// Human-readable description from the server.
        message: String,
    },
    /// A shard backend could not be reached (or kept failing) within the
    /// router's deadline and retry budget.
    Backend {
        /// The shard index whose backend failed.
        shard: usize,
        /// What went wrong on the last attempt.
        message: String,
    },
    /// Every replica of a shard had its circuit open, so the request
    /// failed fast without dialing anyone (the router's health prober
    /// owns re-establishing contact).
    ShardUnavailable {
        /// The shard whose whole replica set is down.
        shard: usize,
        /// How many replicas the router is configured with for it.
        replicas: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Frozen(e) => write!(f, "frozen-store error: {e}"),
            ServeError::Store(msg) => write!(f, "sharded-store error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "wire-protocol error: {msg}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ServeError::Backend { shard, message } => {
                write!(f, "backend for shard {shard} failed: {message}")
            }
            ServeError::ShardUnavailable { shard, replicas } => {
                write!(
                    f,
                    "all {replicas} replica(s) of shard {shard} are unavailable \
                     (circuits open)"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Frozen(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<FrozenError> for ServeError {
    fn from(e: FrozenError) -> Self {
        ServeError::Frozen(e)
    }
}
