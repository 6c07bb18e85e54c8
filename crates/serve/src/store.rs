//! The sharded frozen store: manifest-driven multi-file loading and
//! node-id routing behind the [`AdsView`] trait.
//!
//! A sharded store is a directory written by
//! [`adsketch_core::freeze_sharded`] (or
//! [`adsketch_core::freeze_sharded_format`]): `S` `FrozenAdsSet` files —
//! full-width v1 or compressed v2, and a directory may mix both — where
//! shard `i` populates only the node range its manifest record declares,
//! plus the checksummed `ADSKSHD1` manifest. [`ShardedStore::load`]
//! reads the manifest, then brings all shards up in **parallel** (one
//! thread per shard via the builders' `shard_slots` helper), mapping
//! each shard where the platform supports it (`mmap`; a v1 shard's
//! columns stay views of the mapping and replicas share the kernel page
//! cache; a v2 shard is decoded out of the mapping into owned
//! full-width columns, so both answer from the same layout) and
//! verifying for each shard. A v2 decode itself runs one chunk of blocks
//! per core, so a multi-shard v2 load nests one decode per core inside
//! one thread per shard: correct, but not tuned, and no benchmark
//! workload serves a multi-shard v2 store. For each shard the load
//! verifies:
//!
//! * the store-level format checks (magic, version, checksum, structure —
//!   [`adsketch_core::FrozenAdsSet::load_with_digest`]), one
//!   word-at-a-time walk of the file against its own header checksum,
//! * that the checksum just verified is the one the manifest pins for
//!   the shard (it covers every other byte of the file, so a shard file
//!   from a different freeze or in a different format is rejected even
//!   though it is a valid store on its own — without a second walk),
//! * parameter agreement (`k`, `n`, per-shard entry counts), and
//! * that rows *outside* the shard's declared range are empty.
//!
//! The manifest itself rejects overlapping or gapped node-range tables,
//! so after a successful load every node id has exactly one owning shard
//! and [`ShardedStore`] can implement [`AdsView`] by lending each node's
//! row from that shard. Because every row is byte-for-byte the
//! row of the unsharded store, **every estimator and every
//! [`QueryEngine`] batch answers bitwise identically to the unsharded
//! `FrozenAdsSet`** — the property the serving tier's end-to-end
//! guarantee is built on.

use std::path::{Path, PathBuf};

use adsketch_core::frozen::{shard_file_name, SHARD_MANIFEST_FILE};
use adsketch_core::{
    shard_slots, AdsView, FrozenAdsSet, LoadOptions, QueryEngine, Row, ShardManifest,
};
use adsketch_graph::NodeId;

use crate::error::ServeError;

/// A loaded sharded store: the validated manifest plus one resident
/// [`FrozenAdsSet`] per shard, with per-node routing by the manifest's
/// node-range table.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedStore {
    manifest: ShardManifest,
    shards: Vec<FrozenAdsSet>,
}

impl ShardedStore {
    /// Loads a sharded store from a directory written by
    /// [`adsketch_core::freeze_sharded`], mapping every shard's columns
    /// in place (zero-copy where the platform supports it) in parallel
    /// and verifying every integrity property listed in the
    /// [module docs](self).
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, ServeError> {
        let dir = dir.as_ref();
        let manifest = ShardManifest::load(dir.join(SHARD_MANIFEST_FILE))?;
        let mut slots: Vec<Option<Result<FrozenAdsSet, ServeError>>> =
            (0..manifest.num_shards()).map(|_| None).collect();
        shard_slots(
            &mut slots,
            0,
            || (),
            |(), i, slot| *slot = Some(load_shard(dir, &manifest, i)),
        );
        let mut shards = Vec::with_capacity(manifest.num_shards());
        for slot in slots {
            shards.push(slot.expect("every slot filled")?);
        }
        Ok(Self { manifest, shards })
    }

    /// The validated manifest this store was loaded against.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning node `v` (the unique shard whose manifest range
    /// contains `v`). Callers must pass `v < num_nodes`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.manifest.shard_of(v as u64)
    }

    /// Direct access to shard `i`'s resident store.
    pub fn shard(&self, i: usize) -> &FrozenAdsSet {
        &self.shards[i]
    }

    #[inline]
    fn owner(&self, v: NodeId) -> &FrozenAdsSet {
        &self.shards[self.shard_of(v)]
    }

    /// A batch query engine over this store (`threads = 0` ⇒ all cores).
    /// Answers are bitwise identical to an engine over the unsharded
    /// [`FrozenAdsSet`].
    pub fn engine(&self, threads: usize) -> QueryEngine<'_, ShardedStore> {
        QueryEngine::with_threads(self, threads)
    }

    /// Total resident memory of all shards in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.resident_bytes()).sum()
    }
}

/// Brings one shard off disk, mapped and verified, checking its digest
/// and cross-shard consistency against the manifest. Shared with the
/// distributed tier's [`crate::backend::BackendStore`], which loads
/// exactly one shard this way.
pub(crate) fn load_shard(
    dir: &Path,
    manifest: &ShardManifest,
    i: usize,
) -> Result<FrozenAdsSet, ServeError> {
    let rec = manifest.records()[i];
    let path: PathBuf = dir.join(shard_file_name(i));
    // Trailing bytes are rejected by the store loader itself, so nothing
    // appended to a shard file can hide behind its header checksum.
    let (shard, digest) =
        FrozenAdsSet::load_with_digest(&path, LoadOptions::mapped()).map_err(|e| match e {
            adsketch_core::FrozenError::Io(ref io) if io.kind() == std::io::ErrorKind::NotFound => {
                ServeError::Store(format!("shard {i} missing: {}", path.display()))
            }
            e => ServeError::from(e),
        })?;
    let digest = digest.expect("verified loads return the checksum they verified");
    if digest != rec.digest {
        // The checksum pins the exact bytes, including the store-format
        // version — re-encoding a shard in another format (say v1 → v2)
        // without re-freezing the manifest lands here, so name the
        // format we actually read to make that case self-explanatory.
        return Err(ServeError::Store(format!(
            "shard {i}: file digest {digest:#018x} (a format-v{} store) does not match the \
             manifest's {:#018x} (corrupt file, a shard from a different freeze, or a shard \
             re-encoded in a different format version than the manifest was computed over)",
            shard.format_version(),
            rec.digest
        )));
    }
    if shard.k() != manifest.k() {
        return Err(ServeError::Store(format!(
            "shard {i}: k = {} disagrees with the manifest's {}",
            shard.k(),
            manifest.k()
        )));
    }
    if shard.num_nodes() != manifest.num_nodes() {
        return Err(ServeError::Store(format!(
            "shard {i}: covers {} rows, manifest says {} (shards are full-width)",
            shard.num_nodes(),
            manifest.num_nodes()
        )));
    }
    if shard.num_entries() as u64 != rec.entries {
        return Err(ServeError::Store(format!(
            "shard {i}: holds {} entries, manifest records {}",
            shard.num_entries(),
            rec.entries
        )));
    }
    // Rows outside the declared range must be empty, or routing by the
    // manifest table would silently drop them. The shard's CSR offsets
    // are already validated monotone, so this collapses to two prefix
    // checks: no entries before `start`, all entries before `end`.
    if shard.entry_offset(rec.start as usize) != 0
        || shard.entry_offset(rec.end as usize) != shard.num_entries()
    {
        return Err(ServeError::Store(format!(
            "shard {i}: rows are populated outside the declared range {}..{}",
            rec.start, rec.end
        )));
    }
    Ok(shard)
}

impl AdsView for ShardedStore {
    #[inline]
    fn k(&self) -> usize {
        self.manifest.k()
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        self.manifest.num_nodes()
    }

    #[inline]
    fn row(&self, v: NodeId) -> Row<'_> {
        self.owner(v).row(v)
    }
}
