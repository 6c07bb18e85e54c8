//! Sharded freeze → load round trips must be lossless: every estimator
//! answers from the loaded [`ShardedStore`] **bitwise identically**
//! (`to_bits`) to the oracle over the rows of the [`AdsSet`] it was
//! written from (see `tests/oracle`), for every shard count, across
//! directed / weighted / disconnected graphs and empty rows; corrupted,
//! truncated, swapped, or structurally invalid manifests and shard files
//! must be rejected — mirroring `tests/frozen_roundtrip.rs` for the
//! multi-file store.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use adsketch::core::frozen::{shard_file_name, Xxh64, SHARD_MANIFEST_FILE};
use adsketch::core::{
    centrality, freeze_sharded, freeze_sharded_format, reference, AdsSet, FrozenAdsSet,
    FrozenError, QueryEngine, ShardManifest, StoreFormat,
};
use adsketch::graph::{generators, Graph, NodeId};
use adsketch::serve::{ServeError, ShardedStore};

mod oracle;
use oracle::{assert_estimators_match_oracle, with_empty_rows};

/// A scratch directory under the target-adjacent temp dir, wiped on
/// creation and on drop.
struct ShardDir(PathBuf);

impl ShardDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("adsketch_test_sharded_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ShardDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Freezes `ads` into `shards` shard files and loads them back.
fn roundtrip(ads: &AdsSet, shards: usize, tag: &str) -> (ShardDir, ShardedStore) {
    let dir = ShardDir::new(tag);
    let manifest = freeze_sharded(ads, shards, dir.path()).expect("freeze_sharded");
    assert_eq!(manifest.num_shards(), shards);
    let store = ShardedStore::load(dir.path()).expect("load sharded store");
    assert_eq!(store.manifest(), &manifest);
    (dir, store)
}

/// Empty rows and `d < 0` make every HIP sum empty: the sharded store
/// answers `+0.0` for each, per row and batched, like the oracle.
#[test]
fn empty_rows_and_negative_distances_answer_positive_zero_across_shards() {
    let ads = with_empty_rows(&AdsSet::build(&generators::gnp_directed(30, 0.1, 2), 3, 4));
    for shards in [1usize, 3] {
        let (_dir, store) = roundtrip(&ads, shards, &format!("empty_rows_{shards}"));
        assert_estimators_match_oracle(&store, &ads);
    }
}

/// Strategy: a small directed graph as (n, arcs).
fn small_digraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..40).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..120);
        (Just(n), arcs)
    })
}

proptest! {
    /// Random graph → build → freeze_sharded → load: every estimator
    /// (and the batch engine) answers bitwise equal to the in-memory
    /// AdsSet, for every shard count.
    #[test]
    fn random_graph_sharded_roundtrip_bitwise(
        (n, arcs) in small_digraph(),
        seed in 0u64..1_000,
        k in 1usize..6,
        shards in 1usize..5,
    ) {
        let g = Graph::directed(n, &arcs).unwrap();
        let ads = AdsSet::build(&g, k, seed);
        let (_dir, store) = roundtrip(&ads, shards, "prop");
        assert_estimators_match_oracle(&store, &ads);
        let frozen = ads.freeze();
        prop_assert_eq!(
            store.engine(2).harmonic_all(),
            QueryEngine::new(&frozen).harmonic_all()
        );
    }
}

#[test]
fn directed_weighted_disconnected_across_shard_counts() {
    let k = 4;
    let directed = generators::gnp_directed(120, 0.04, 3);
    let weighted = generators::random_weighted_digraph(80, 4, 0.5, 2.5, 7);
    let mut arcs = generators::gnp(40, 0.1, 5)
        .all_arcs()
        .map(|(u, v, _)| (u, v))
        .collect::<Vec<_>>();
    arcs.extend(
        generators::gnp(40, 0.1, 6)
            .all_arcs()
            .map(|(u, v, _)| (u + 40, v + 40)),
    );
    let disconnected = Graph::directed(100, &arcs).unwrap(); // nodes 80..100 isolated
    for (name, g) in [
        ("directed", &directed),
        ("weighted", &weighted),
        ("disconnected", &disconnected),
    ] {
        let ads = AdsSet::build(g, k, 11);
        let frozen = ads.freeze();
        let per_node: Vec<f64> = (0..g.num_nodes() as NodeId)
            .map(|v| {
                centrality::harmonic(reference::hip_weights(ads.k(), ads.row(v).entries()).row())
            })
            .collect();
        for shards in [1usize, 2, 4] {
            let (_dir, store) = roundtrip(&ads, shards, &format!("{name}_{shards}"));
            assert_estimators_match_oracle(&store, &ads);
            // Batch engine over the sharded store, across thread counts.
            for threads in [1usize, 3, 0] {
                assert_eq!(
                    store.engine(threads).harmonic_all(),
                    per_node,
                    "{name}: sharded batch harmonic, shards = {shards}, threads = {threads}"
                );
            }
            assert_eq!(
                store.engine(0).cardinality_batch(&[(0, 2.0), (5, 1.0)]),
                QueryEngine::new(&frozen).cardinality_batch(&[(0, 2.0), (5, 1.0)]),
                "{name}: sharded cardinality, shards = {shards}"
            );
        }
    }
}

#[test]
fn more_shards_than_nodes_still_roundtrips() {
    let g = generators::gnp_directed(5, 0.4, 9);
    let ads = AdsSet::build(&g, 2, 1);
    let (_dir, store) = roundtrip(&ads, 9, "overshard");
    assert_estimators_match_oracle(&store, &ads);
}

// ---------------------------------------------------------------------
// Corruption rejection
// ---------------------------------------------------------------------

fn sample_dir(tag: &str) -> (ShardDir, AdsSet) {
    let g = generators::gnp_directed(60, 0.07, 21);
    let ads = AdsSet::build(&g, 3, 5);
    let dir = ShardDir::new(tag);
    freeze_sharded(&ads, 3, dir.path()).expect("freeze_sharded");
    (dir, ads)
}

fn manifest_path(dir: &ShardDir) -> PathBuf {
    dir.path().join(SHARD_MANIFEST_FILE)
}

/// Recomputes and patches a manifest buffer's header checksum so tests
/// can tamper with *semantic* fields and still present a
/// checksum-consistent manifest — proving the structural validation
/// itself rejects the corruption, not just the checksum.
fn resign_manifest(bytes: &mut [u8]) {
    let mut h = Xxh64::new();
    h.update(&bytes[..32]);
    h.update(&[0u8; 8]);
    h.update(&bytes[40..]);
    let digest = h.digest();
    bytes[32..40].copy_from_slice(&digest.to_le_bytes());
}

#[test]
fn rejects_manifest_bad_magic_truncation_and_bit_flip() {
    let (dir, _ads) = sample_dir("manifest_corrupt");
    let path = manifest_path(&dir);
    let good = std::fs::read(&path).unwrap();

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        ShardedStore::load(dir.path()),
        Err(ServeError::Frozen(_))
    ));

    // Truncation at a few prefix lengths.
    for cut in [0, 10, 43, good.len() - 1] {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(
            ShardedStore::load(dir.path()).is_err(),
            "manifest truncated to {cut} bytes must be rejected"
        );
    }

    // A bit flip anywhere in the manifest is caught by its checksum.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    std::fs::write(&path, &flipped).unwrap();
    assert!(ShardedStore::load(dir.path()).is_err());

    // Restore: the pristine directory must load again (the harness
    // itself isn't what's failing).
    std::fs::write(&path, &good).unwrap();
    assert!(ShardedStore::load(dir.path()).is_ok());
}

#[test]
fn rejects_overlapping_shard_ranges_with_valid_checksum() {
    let (dir, _ads) = sample_dir("manifest_overlap");
    let path = manifest_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    // Record 1 starts at offset 44 + 32; widen record 0's end into it so
    // ranges overlap, then re-sign so only structural validation can
    // object.
    let rec0_end = 44 + 8;
    let end = u64::from_le_bytes(bytes[rec0_end..rec0_end + 8].try_into().unwrap());
    bytes[rec0_end..rec0_end + 8].copy_from_slice(&(end + 1).to_le_bytes());
    resign_manifest(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let err = ShardedStore::load(dir.path()).unwrap_err();
    assert!(
        err.to_string().contains("overlapping") || err.to_string().contains("continue"),
        "unexpected error: {err}"
    );
}

#[test]
fn rejects_shard_entry_sum_mismatch_with_valid_checksum() {
    let (dir, _ads) = sample_dir("manifest_entrysum");
    let path = manifest_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let rec0_entries = 44 + 16;
    let entries = u64::from_le_bytes(bytes[rec0_entries..rec0_entries + 8].try_into().unwrap());
    bytes[rec0_entries..rec0_entries + 8].copy_from_slice(&(entries + 1).to_le_bytes());
    resign_manifest(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    assert!(ShardedStore::load(dir.path()).is_err());
}

/// Entry counts of `u64::MAX` and `1` (and `0` for the third shard),
/// re-signed: their sum overflows, which must be a typed error and not
/// an arithmetic panic.
#[test]
fn rejects_shard_entry_counts_whose_sum_overflows_with_valid_checksum() {
    let (dir, _ads) = sample_dir("manifest_entry_overflow");
    let mut bytes = std::fs::read(manifest_path(&dir)).unwrap();
    for (shard, entries) in [(0, u64::MAX), (1, 1), (2, 0)] {
        let at = 44 + shard * 32 + 16;
        bytes[at..at + 8].copy_from_slice(&entries.to_le_bytes());
    }
    resign_manifest(&mut bytes);
    let err = ShardManifest::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, FrozenError::Corrupt(_)), "{err:?}");
    assert!(err.to_string().contains("overflow"), "{err}");
}

#[test]
fn rejects_missing_corrupt_swapped_and_padded_shard_files() {
    let (dir, _ads) = sample_dir("shard_files");
    let shard0 = dir.path().join(shard_file_name(0));
    let shard1 = dir.path().join(shard_file_name(1));
    let good0 = std::fs::read(&shard0).unwrap();
    let good1 = std::fs::read(&shard1).unwrap();

    // Missing shard file.
    std::fs::remove_file(&shard0).unwrap();
    let err = ShardedStore::load(dir.path()).unwrap_err();
    assert!(err.to_string().contains("missing"), "unexpected: {err}");
    std::fs::write(&shard0, &good0).unwrap();

    // Bit flip inside a shard payload: caught by the store checksum (and
    // the manifest digest).
    let mut bad = good0.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&shard0, &bad).unwrap();
    assert!(ShardedStore::load(dir.path()).is_err());
    std::fs::write(&shard0, &good0).unwrap();

    // Swapped shard files: each is a perfectly valid store on its own,
    // so only the manifest's whole-file digest can catch it.
    std::fs::write(&shard0, &good1).unwrap();
    std::fs::write(&shard1, &good0).unwrap();
    let err = ShardedStore::load(dir.path()).unwrap_err();
    assert!(err.to_string().contains("digest"), "unexpected: {err}");
    std::fs::write(&shard0, &good0).unwrap();
    std::fs::write(&shard1, &good1).unwrap();

    // Trailing bytes appended to a shard file leave the readable prefix
    // intact — rejected either by the store loader's exact-length check
    // (mapped path) or by the whole-file digest (streaming path).
    let mut padded = good0.clone();
    padded.extend_from_slice(b"JUNK");
    std::fs::write(&shard0, &padded).unwrap();
    let err = ShardedStore::load(dir.path()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("digest") || msg.contains("trailing"),
        "unexpected: {err}"
    );
    std::fs::write(&shard0, &good0).unwrap();

    // Pristine again ⇒ loads.
    assert!(ShardedStore::load(dir.path()).is_ok());
}

#[test]
fn v2_sharded_freeze_roundtrips_bitwise() {
    // The whole battery again, but with the shards frozen in the
    // compressed v2 format: the manifest format is unchanged, its
    // digests simply pin the v2 bytes.
    let g = generators::gnp_directed(90, 0.06, 13);
    let ads = AdsSet::build(&g, 4, 11);
    let dir = ShardDir::new("v2_freeze");
    let manifest = freeze_sharded_format(&ads, 3, dir.path(), StoreFormat::V2).expect("freeze v2");
    let store = ShardedStore::load(dir.path()).expect("load v2 sharded store");
    assert_eq!(store.manifest(), &manifest);
    for i in 0..store.num_shards() {
        assert_eq!(store.shard(i).format_version(), 2);
    }
    assert_estimators_match_oracle(&store, &ads);
    let frozen = ads.freeze();
    assert_eq!(
        store.engine(2).harmonic_all(),
        QueryEngine::new(&frozen).harmonic_all()
    );
}

#[test]
fn rejects_v2_shard_under_a_manifest_digested_over_v1_bytes() {
    // Re-encoding one shard file in the v2 format without re-freezing
    // the manifest leaves a perfectly valid store on disk whose bytes
    // the manifest never signed. Only the whole-file digest can object —
    // and its error must say which format it actually read.
    let (dir, _ads) = sample_dir("format_swap");
    let shard0 = dir.path().join(shard_file_name(0));
    let shard = FrozenAdsSet::load(&shard0).expect("shard 0 loads standalone");
    assert_eq!(shard.format_version(), 1);
    std::fs::write(&shard0, shard.to_bytes_format(StoreFormat::V2))
        .expect("re-encode shard 0 as v2");
    // The swapped file is a valid v2 store by itself…
    assert_eq!(
        FrozenAdsSet::load(&shard0)
            .expect("valid v2")
            .format_version(),
        2
    );
    // …but the manifest's digest was computed over the v1 bytes.
    let err = ShardedStore::load(dir.path()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("digest") && msg.contains("format-v2") && msg.contains("format version"),
        "digest error must name the re-encoded format: {err}"
    );
}

#[test]
fn manifest_survives_its_own_byte_roundtrip() {
    let (dir, _ads) = sample_dir("manifest_rt");
    let manifest = ShardManifest::load(manifest_path(&dir)).unwrap();
    assert_eq!(
        ShardManifest::from_bytes(&manifest.to_bytes()).unwrap(),
        manifest
    );
}

#[test]
fn version_1_manifest_is_an_unsupported_version() {
    // Manifest version 1 pinned whole-file FNV-1a digests; its records
    // mean something else now, so even a well-signed one is refused.
    let (dir, _ads) = sample_dir("manifest_v1");
    let mut bytes = std::fs::read(manifest_path(&dir)).unwrap();
    assert_eq!(bytes[8..12], 2u32.to_le_bytes());
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    resign_manifest(&mut bytes);
    assert!(matches!(
        ShardManifest::from_bytes(&bytes),
        Err(adsketch::core::FrozenError::UnsupportedVersion(1))
    ));
}
