//! Backend mode for the distributed tier: one process, one shard.
//!
//! A [`BackendStore`] loads the `ADSKSHD1` manifest plus exactly one of
//! the shard files it describes — with every integrity check the full
//! [`crate::ShardedStore`] loader runs on that shard (format validation,
//! pinned header checksum, parameter agreement, range emptiness). Serving it
//! through the generic [`crate::Server`] gives a **backend**: a process
//! that speaks the ordinary `ADSKWIR1` protocol but only owns its
//! manifest record's node range, answering
//! [`crate::proto::ERR_SHARD_RANGE`] for any in-graph node it does not
//! hold. A fleet of backends (one per shard) behind a
//! [`crate::router::Router`] serves the whole store horizontally.
//!
//! Because the shard file is a full-width `FrozenAdsSet` whose rows
//! inside the owned range are byte-for-byte the rows of the unsharded
//! store, every estimator a backend evaluates over an owned node is
//! bitwise identical to the single-process answer — the router's merge
//! guarantee reduces to routing each node to its owner.

use std::path::Path;
use std::sync::Arc;

use adsketch_core::frozen::SHARD_MANIFEST_FILE;
use adsketch_core::{AdsView, FrozenAdsSet, Row, ShardManifest};
use adsketch_graph::NodeId;

use crate::error::ServeError;
use crate::proto::{Request, Response};
use crate::server::{answer, RequestStore, Server};
use crate::store::load_shard;

/// One shard of a sharded store, resident in one backend process.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendStore {
    manifest: ShardManifest,
    index: usize,
    shard: FrozenAdsSet,
}

impl BackendStore {
    /// Loads shard `index` (and the manifest) from a directory written by
    /// [`adsketch_core::freeze_sharded`], verifying the shard exactly as
    /// [`crate::ShardedStore::load`] would — columns mapped in place
    /// where the platform supports it.
    pub fn load(dir: impl AsRef<Path>, index: usize) -> Result<Self, ServeError> {
        let dir = dir.as_ref();
        let manifest = ShardManifest::load(dir.join(SHARD_MANIFEST_FILE))?;
        if index >= manifest.num_shards() {
            return Err(ServeError::Store(format!(
                "shard index {index} out of range: the manifest describes {} shards",
                manifest.num_shards()
            )));
        }
        let shard = load_shard(dir, &manifest, index)?;
        Ok(Self {
            manifest,
            index,
            shard,
        })
    }

    /// The validated manifest this shard was loaded against.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Binds a backend server over this store (a thin convenience over
    /// [`Server::bind`]).
    pub fn into_server(
        self,
        addr: impl std::net::ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<Server<BackendStore>> {
        Server::bind(addr, Arc::new(self), workers)
    }
}

impl AdsView for BackendStore {
    #[inline]
    fn k(&self) -> usize {
        self.shard.k()
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        // Shard files are full-width; nodes outside the owned range have
        // empty rows and are fenced off by `owned_range`.
        self.shard.num_nodes()
    }

    #[inline]
    fn row(&self, v: NodeId) -> Row<'_> {
        self.shard.row(v)
    }
}

impl RequestStore for BackendStore {
    fn owned_range(&self) -> std::ops::Range<u64> {
        let rec = self.manifest.records()[self.index];
        rec.start..rec.end
    }

    fn answer_request(&self, req: &Request) -> Response {
        answer(self, req)
    }
}
