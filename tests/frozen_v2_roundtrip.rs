//! Compressed (format v2) store round trips must be bitwise lossless:
//! freeze → v2 encode → decode must reproduce every stored bit, and
//! every estimator must answer from the decoded v2 store **bitwise
//! identically** (`to_bits`) to the oracle over the rows of the
//! [`AdsSet`] it came from (see `tests/oracle`) — across directed /
//! weighted / zero-weight-tie / disconnected graphs and empty rows. Targeted
//! corruption of the compressed columns (truncated varint, overlong
//! varint, wrong escape-column length, bad version byte) must surface as
//! clean typed errors — mirroring `tests/frozen_roundtrip.rs` for the
//! v1 format. Golden fixture files committed under `tests/fixtures/`
//! pin both formats' byte images so future writer changes cannot
//! silently break old stores.

use std::path::PathBuf;

use proptest::prelude::*;

use adsketch::core::frozen::Xxh64;
use adsketch::core::reference::{self, BottomKAds};
use adsketch::core::{
    centrality, AdsEntry, AdsSet, FrozenAdsSet, FrozenError, LoadOptions, QueryEngine, StoreFormat,
};
use adsketch::graph::{generators, Graph, NodeId};

mod oracle;
use oracle::{assert_estimators_match_oracle, with_empty_rows};

/// freeze → v2 encode → decode, asserting the round trip is the
/// identity: the decoded store compares bitwise equal to the original,
/// re-encodes to the identical v2 bytes, and writes the identical v1
/// bytes the full-width store would.
fn roundtrip_v2(ads: &AdsSet) -> FrozenAdsSet {
    let frozen = ads.freeze();
    let v2 = frozen.to_bytes_format(StoreFormat::V2);
    let restored = FrozenAdsSet::from_bytes(&v2).expect("v2 decodes");
    assert_eq!(restored.format_version(), 2);
    assert_eq!(restored, frozen, "v2 round trip must be bitwise identity");
    assert_eq!(
        restored.to_bytes_format(StoreFormat::V2),
        v2,
        "re-encoding the decoded store must be deterministic"
    );
    assert_eq!(
        restored.to_bytes(),
        frozen.to_bytes(),
        "a v2 store must write the exact v1 byte image back"
    );
    restored
}

/// Empty rows and `d < 0` make every HIP sum empty: the decoded v2
/// store answers `+0.0` for each, per row and batched, like the oracle.
#[test]
fn empty_rows_and_negative_distances_answer_positive_zero_from_v2() {
    let ads = with_empty_rows(&AdsSet::build(&generators::gnp_directed(30, 0.1, 2), 3, 4));
    assert_estimators_match_oracle(&roundtrip_v2(&ads), &ads);
}

/// Strategy: a small directed graph as (n, arcs).
fn small_digraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..40).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..120);
        (Just(n), arcs)
    })
}

proptest! {
    /// Random graph → build → freeze → v2 encode → decode: every
    /// estimator answer is bitwise equal to the in-memory AdsSet answer.
    #[test]
    fn random_graph_v2_roundtrip_bitwise(
        (n, arcs) in small_digraph(),
        seed in 0u64..1_000,
        k in 1usize..6,
    ) {
        let g = Graph::directed(n, &arcs).unwrap();
        let ads = AdsSet::build(&g, k, seed);
        let restored = roundtrip_v2(&ads);
        assert_estimators_match_oracle(&restored, &ads);
    }

    /// Corrupting any single byte of a v2 store, or truncating it
    /// anywhere, must make from_bytes fail — never silently misread.
    #[test]
    fn corrupted_or_truncated_v2_buffers_rejected(
        seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
    ) {
        let g = generators::gnp_directed(30, 0.1, seed);
        let bytes = AdsSet::build(&g, 3, seed)
            .freeze()
            .to_bytes_format(StoreFormat::V2);
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(
            FrozenAdsSet::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must be rejected",
            bytes.len()
        );
        let mut corrupted = bytes.clone();
        let at = ((corrupted.len() as f64 * flip_frac) as usize).min(corrupted.len() - 1);
        corrupted[at] ^= 0x10;
        prop_assert!(
            FrozenAdsSet::from_bytes(&corrupted).is_err(),
            "bit flip at byte {at} must be rejected"
        );
    }
}

#[test]
fn directed_weighted_ties_disconnected_v2_roundtrips() {
    let k = 4;
    // Directed unweighted.
    let directed = generators::gnp_directed(120, 0.04, 3);
    // Weighted digraph: real-valued distances exercise the raw-dist
    // escape (too many distinct values for a win from dictionaries to
    // matter, every bit preserved regardless).
    let weighted = generators::random_weighted_digraph(80, 4, 0.5, 2.5, 7);
    // Zero-weight ties: a weighted digraph where many arcs cost 0, so
    // whole clusters sit at bit-identical distances — the canonical
    // (dist, node) tie-break produces long same-distance runs, the best
    // and most delicate case for the delta-coded node column.
    let mut tie_arcs: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for v in 0..60u32 {
        tie_arcs.push((v, (v + 1) % 60, if v % 3 == 0 { 1.0 } else { 0.0 }));
        tie_arcs.push((v, (v * 7 + 2) % 60, 0.0));
    }
    let ties = Graph::directed_weighted(60, &tie_arcs).unwrap();
    // Disconnected: two G(n,p) islands plus isolated nodes.
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
        ("zero_weight_ties", &ties),
        ("disconnected", &disconnected),
    ] {
        let ads = AdsSet::build(g, k, 11);
        let restored = roundtrip_v2(&ads);
        assert_estimators_match_oracle(&restored, &ads);
        // The batch engine on the v2 store must match the per-node heap
        // path bitwise, for every thread count.
        let per_node: Vec<f64> = (0..g.num_nodes() as NodeId)
            .map(|v| {
                centrality::harmonic(reference::hip_weights(ads.k(), ads.row(v).entries()).row())
            })
            .collect();
        for threads in [1usize, 3, 0] {
            assert_eq!(
                QueryEngine::with_threads(&restored, threads).harmonic_all(),
                per_node,
                "{name}: v2 batch harmonic, threads = {threads}"
            );
        }
    }
}

#[test]
fn v2_save_load_file_roundtrip_all_load_options() {
    let g = generators::barabasi_albert(150, 3, 9);
    let ads = AdsSet::build(&g, 8, 4);
    let frozen = ads.freeze();
    let path = std::env::temp_dir().join("adsketch_test_frozen_v2_roundtrip.ads");
    std::fs::write(&path, frozen.to_bytes_format(StoreFormat::V2)).expect("save v2");
    for opts in [
        LoadOptions::default(),
        LoadOptions::mapped(),
        LoadOptions::trusted(),
    ] {
        let loaded = FrozenAdsSet::load_with(&path, opts).expect("load v2");
        assert_eq!(loaded.format_version(), 2);
        assert_eq!(loaded, frozen);
        assert_estimators_match_oracle(&loaded, &ads);
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Distance-column tags
// ---------------------------------------------------------------------

/// Freezes 8200 synthetic rows of 16 entries (131 200 entries), row `v`
/// sampling nodes `v + j` at distances `base(v) + j`, encodes them as v2
/// and asserts the distance tag (header byte 41) and a bitwise round
/// trip. Node `x` ranks `(2¹⁴ − x) / 2¹⁴`, so ranks fall along each row,
/// every entry is an ADS entry and the weights are a real freeze's τ
/// chain. `checksum` pins the whole image.
fn assert_dist_tag_roundtrips(base: fn(usize) -> f64, tag: u8, checksum: u64) {
    const ROWS: usize = 8200;
    const LEN: usize = 16;
    let k = 4;
    let sketches = (0..ROWS)
        .map(|v| {
            let entries = (0..LEN)
                .map(|j| {
                    let node = (v + j) as NodeId;
                    let rank = ((1 << 14) - node) as f64 / (1 << 14) as f64;
                    AdsEntry::new(node, base(v) + j as f64, rank)
                })
                .collect();
            BottomKAds::from_entries(k, entries)
        })
        .collect();
    let frozen = reference::from_sketches(k, sketches);
    let v2 = frozen.to_bytes_format(StoreFormat::V2);
    assert_eq!(v2[41], tag, "dist-column tag");
    assert_eq!(image_checksum(&v2), checksum, "v2 image changed");
    let restored = FrozenAdsSet::from_bytes(&v2).expect("v2 decodes");
    assert_eq!(restored, frozen, "v2 round trip must be bitwise identity");
    assert_eq!(restored.to_bytes_format(StoreFormat::V2), v2);
}

#[test]
fn few_distances_select_the_dict16_tag() {
    // Every row shares the distances 0..16.
    assert_dist_tag_roundtrips(|_| 0.0, 0, 0x1e339f232eac3b4d);
}

#[test]
fn more_than_2_16_repeated_distances_select_the_dict32_tag() {
    // Row pairs share their distances: 65 600 distinct values, each
    // twice, so more than 2¹⁶ codes and at most one per two entries.
    assert_dist_tag_roundtrips(|v| (v / 2 * 16) as f64, 1, 0xfa3abca4c79b96c9);
}

#[test]
fn all_distinct_distances_select_the_raw_tag() {
    // 131 200 distinct values: a dictionary would outgrow raw bits.
    assert_dist_tag_roundtrips(|v| (v * 16) as f64, 2, 0xf739a64fd0cc9cb6);
}

// ---------------------------------------------------------------------
// Targeted corruption of the compressed columns
// ---------------------------------------------------------------------

/// Byte-level v2 container geometry, parsed from a valid buffer so tests
/// can corrupt precisely one compressed column and re-sign the checksum.
struct V2Layout {
    /// Tag bytes `[node, dist, rank table, weight]` (header bytes 40..44).
    tags: [u8; 4],
    /// Absolute offset of the first block's span inside the file.
    block0: usize,
    /// Byte length of the first block's span.
    block0_len: usize,
    /// Absolute offset of the block-offset table (the blob length's u64
    /// follows it).
    block_table: usize,
}

fn parse_v2_layout(bytes: &[u8]) -> V2Layout {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    assert_eq!(u32_at(8), 2, "fixture must be a v2 store");
    let n = u64_at(16);
    let tags: [u8; 4] = bytes[40..44].try_into().unwrap();
    let rows_per_block = u32_at(44);
    let rank_bytes = if tags[2] == 0 { 7 } else { 8 };
    let dict_at = 48 + (n + 1) * 4 + n * rank_bytes;
    let dict_len = u32_at(dict_at);
    let blocks_at = dict_at + 4 + dict_len * 8;
    let num_blocks = n.div_ceil(rows_per_block);
    let blob_at = blocks_at + (num_blocks + 1) * 8 + 8;
    let b0 = u64_at(blocks_at);
    let b1 = u64_at(blocks_at + 8);
    V2Layout {
        tags,
        block0: blob_at + b0,
        block0_len: b1 - b0,
        block_table: blocks_at,
    }
}

/// The start and length (within the file) of block 0's node section —
/// the second of the three per-block column sections.
fn node_section(bytes: &[u8], lay: &V2Layout) -> (usize, usize) {
    let span = lay.block0;
    let len = |i: usize| {
        u32::from_le_bytes(bytes[span + i * 4..span + i * 4 + 4].try_into().unwrap()) as usize
    };
    let (l0, l1, l2) = (len(0), len(1), len(2));
    assert_eq!(12 + l0 + l1 + l2, lay.block0_len, "sections tile");
    (span + 12 + l0, l1)
}

/// Recomputes and patches a store buffer's header checksum, so tests can
/// tamper with payload bytes and prove the *column validators* reject
/// the result (not just the checksum).
fn resign_store(bytes: &mut [u8]) {
    let mut h = Xxh64::new();
    h.update(&bytes[..32]);
    h.update(&[0u8; 8]);
    h.update(&bytes[40..]);
    let digest = h.digest();
    bytes[32..40].copy_from_slice(&digest.to_le_bytes());
}

/// A v2 buffer whose encoder picked every compressed representation:
/// delta-coded nodes, dict16 distances, a 7-byte rank table, derived
/// weights.
fn fully_compressed_sample() -> Vec<u8> {
    let g = generators::gnp_directed(60, 0.08, 21);
    let bytes = AdsSet::build(&g, 3, 5)
        .freeze()
        .to_bytes_format(StoreFormat::V2);
    let lay = parse_v2_layout(&bytes);
    // The corruption below targets specific column encodings; fail
    // loudly if the encoder's tag choices ever change out from under it.
    assert_eq!(
        lay.tags,
        [0, 0, 0, 2],
        "sample must use delta nodes / dict16 dists / fixed7 rank table / derived weights"
    );
    bytes
}

#[test]
fn truncated_varint_in_node_column_is_a_clean_typed_error() {
    let mut bytes = fully_compressed_sample();
    let lay = parse_v2_layout(&bytes);
    let (at, len) = node_section(&bytes, &lay);
    assert!(len >= 1, "block 0 must have a nonempty node section");
    // Setting the continuation bit on the section's final byte makes the
    // last varint run off the end of the column.
    bytes[at + len - 1] |= 0x80;
    resign_store(&mut bytes);
    let err = FrozenAdsSet::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, FrozenError::Corrupt(_)), "{err:?}");
    assert!(err.to_string().contains("truncated varint"), "{err}");
}

#[test]
fn overlong_varint_in_node_column_is_a_clean_typed_error() {
    let mut bytes = fully_compressed_sample();
    let lay = parse_v2_layout(&bytes);
    let (at, len) = node_section(&bytes, &lay);
    assert!(len >= 2, "need two bytes to splice an overlong form");
    // The section opens with a single-byte varint (node ids < 60): fuse
    // it with the next byte into `[x|0x80, 0x00]` — a redundant
    // continuation, the canonical-form violation decoders must reject.
    assert!(bytes[at] & 0x80 == 0, "first varint must be single-byte");
    bytes[at] |= 0x80;
    bytes[at + 1] = 0x00;
    resign_store(&mut bytes);
    let err = FrozenAdsSet::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, FrozenError::Corrupt(_)), "{err:?}");
    assert!(err.to_string().contains("overlong"), "{err}");
}

#[test]
fn wrong_escape_column_length_is_a_clean_typed_error() {
    let mut bytes = fully_compressed_sample();
    let lay = parse_v2_layout(&bytes);
    // Move 2 bytes from the dist section's declared length into the
    // node section's: the three lengths still tile the block span
    // exactly, but the fixed-width dist column no longer matches its
    // tag's 2-bytes-per-entry shape.
    let span = lay.block0;
    let dist_len = u32::from_le_bytes(bytes[span..span + 4].try_into().unwrap());
    assert!(dist_len >= 2, "block 0 must hold at least one distance");
    bytes[span..span + 4].copy_from_slice(&(dist_len - 2).to_le_bytes());
    let node_len = u32::from_le_bytes(bytes[span + 4..span + 8].try_into().unwrap());
    bytes[span + 4..span + 8].copy_from_slice(&(node_len + 2).to_le_bytes());
    resign_store(&mut bytes);
    let err = FrozenAdsSet::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, FrozenError::Corrupt(_)), "{err:?}");
    assert!(
        err.to_string().contains("wrong escape-column length"),
        "{err}"
    );
}

#[test]
fn wrong_version_byte_is_a_clean_typed_error() {
    let mut bytes = fully_compressed_sample();
    bytes[8] = 3;
    resign_store(&mut bytes);
    match FrozenAdsSet::from_bytes(&bytes) {
        Err(FrozenError::UnsupportedVersion(3)) => {}
        other => panic!("expected UnsupportedVersion(3), got {other:?}"),
    }
    // Version 0 likewise.
    bytes[8] = 0;
    resign_store(&mut bytes);
    assert!(matches!(
        FrozenAdsSet::from_bytes(&bytes),
        Err(FrozenError::UnsupportedVersion(0))
    ));
}

#[test]
fn unknown_column_tag_is_a_clean_typed_error() {
    let mut bytes = fully_compressed_sample();
    bytes[40] = 9; // node-column tag
    resign_store(&mut bytes);
    let err = FrozenAdsSet::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, FrozenError::Corrupt(_)), "{err:?}");
    assert!(err.to_string().contains("tag"), "{err}");
}

/// Derived weights store no bytes: a block whose weight section holds
/// one, with every length, offset and the checksum consistent, is a
/// typed error at every load level.
#[test]
fn a_weight_byte_under_derived_weights_is_a_typed_error_at_every_load_level() {
    let mut bytes = fully_compressed_sample();
    let lay = parse_v2_layout(&bytes);
    assert_eq!(
        lay.block0 + lay.block0_len,
        bytes.len(),
        "one block, last in the file"
    );
    let weight_len = lay.block0 + 8;
    bytes[weight_len..weight_len + 4].copy_from_slice(&1u32.to_le_bytes());
    // Block 1's offset (the end of block 0) and the blob length grow by
    // the one byte appended.
    for at in [lay.block_table + 8, lay.block_table + 16] {
        let grown = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) + 1;
        bytes[at..at + 8].copy_from_slice(&grown.to_le_bytes());
    }
    bytes.push(0);
    resign_store(&mut bytes);
    let check = |res: Result<FrozenAdsSet, FrozenError>, how: &str| {
        let err = res.expect_err(how);
        assert!(matches!(err, FrozenError::Corrupt(_)), "{how}: {err:?}");
        assert!(
            err.to_string()
                .ends_with("block 0: weight section is 1 bytes under the derived-weight tag, which stores none"),
            "{how}: {err}"
        );
    };
    check(FrozenAdsSet::from_bytes(&bytes), "from_bytes");
    let path = std::env::temp_dir().join("adsketch_test_frozen_v2_weight_byte.ads");
    std::fs::write(&path, &bytes).unwrap();
    for opts in [
        LoadOptions::default(),
        LoadOptions::mapped(),
        LoadOptions::trusted(),
    ] {
        check(FrozenAdsSet::load_with(&path, opts), &format!("{opts:?}"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn forged_entry_count_is_a_clean_typed_error_at_every_load_level() {
    let mut bytes = fully_compressed_sample();
    // Claim u32::MAX entries — in the header and, consistently, in the
    // last CSR offset, so the offset invariants hold — over a blob of a
    // few hundred bytes. The decoder reserves its columns by that count;
    // it must reject the file first, trusted or not.
    let n = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    bytes[24..32].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
    bytes[48 + n * 4..48 + n * 4 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    resign_store(&mut bytes);
    let check = |res: Result<FrozenAdsSet, FrozenError>, how: &str| {
        let err = res.expect_err(how);
        assert!(matches!(err, FrozenError::Corrupt(_)), "{how}: {err:?}");
        assert!(
            err.to_string().contains("entries cannot fit"),
            "{how}: {err}"
        );
    };
    check(FrozenAdsSet::from_bytes(&bytes), "from_bytes");
    let path = std::env::temp_dir().join("adsketch_test_frozen_v2_forged_entries.ads");
    std::fs::write(&path, &bytes).unwrap();
    for opts in [
        LoadOptions::default(),
        LoadOptions::mapped(),
        LoadOptions::trusted(),
    ] {
        check(FrozenAdsSet::load_with(&path, opts), &format!("{opts:?}"));
    }
    std::fs::remove_file(&path).ok();
}

/// A node id forged past the rank table and re-signed, in the v1 and the
/// v2 golden image: every load level rejects it as a typed error — the
/// trusted loads too, which index the table by node id — and none
/// panics.
#[test]
fn forged_node_id_past_the_rank_table_is_a_typed_error_at_every_load_level() {
    // v1: the last entry's node id becomes n.
    let mut v1 = std::fs::read(fixture_path("golden_ba30_k3.v1.ads")).unwrap();
    let (n, at) = {
        let img = V1Image::new(&v1);
        (img.n, img.node(img.entries - 1))
    };
    v1[at..at + 4].copy_from_slice(&(n as u32).to_le_bytes());
    // v2: block 0's first node varint heads a distance run, so it is an
    // absolute id; it becomes 127.
    let mut v2 = std::fs::read(fixture_path("golden_ba30_k3.v2.ads")).unwrap();
    let (at, _) = node_section(&v2, &parse_v2_layout(&v2));
    assert!(n < 127 && v2[at] & 0x80 == 0, "a one-byte varint below n");
    v2[at] = 127;
    for (name, mut bytes) in [("v1", v1), ("v2", v2)] {
        resign_store(&mut bytes);
        let check = |res: Result<FrozenAdsSet, FrozenError>, how: &str| {
            let err = res.expect_err(how);
            assert!(
                matches!(err, FrozenError::Corrupt(_)),
                "{name}, {how}: {err:?}"
            );
            assert!(
                err.to_string().contains("out of range"),
                "{name}, {how}: {err}"
            );
        };
        check(FrozenAdsSet::from_bytes(&bytes), "from_bytes");
        let path = std::env::temp_dir().join(format!("adsketch_test_forged_node.{name}.ads"));
        std::fs::write(&path, &bytes).unwrap();
        for opts in [
            LoadOptions::default(),
            LoadOptions::mapped(),
            LoadOptions::trusted(),
        ] {
            check(FrozenAdsSet::load_with(&path, opts), &format!("{opts:?}"));
        }
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------
// Golden fixtures: committed byte images of both formats
// ---------------------------------------------------------------------

/// The fixture store: tiny, deterministic, and fully exercising the
/// compressed columns (delta nodes, dict16 dists, derived weights) and
/// the fixed7 rank table.
fn golden_store() -> (AdsSet, FrozenAdsSet) {
    let g = generators::barabasi_albert(30, 2, 42);
    let ads = AdsSet::build(&g, 3, 9);
    let frozen = ads.freeze();
    (ads, frozen)
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Format-compat gate: today's writer must reproduce the committed v1
/// and v2 fixture files byte-for-byte, and today's reader must decode
/// both back to the identical store. A failure here means an on-disk
/// format change slipped in without a version bump — regenerate with
/// `ADSKETCH_REGEN_FIXTURES=1 cargo test golden_fixture` only for a
/// deliberate, versioned format change.
#[test]
fn golden_fixture_files_encode_and_decode_byte_for_byte() {
    let (ads, frozen) = golden_store();
    let v1 = frozen.to_bytes();
    let v2 = frozen.to_bytes_format(StoreFormat::V2);
    let (p1, p2) = (
        fixture_path("golden_ba30_k3.v1.ads"),
        fixture_path("golden_ba30_k3.v2.ads"),
    );
    if std::env::var("ADSKETCH_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(p1.parent().unwrap()).unwrap();
        std::fs::write(&p1, &v1).unwrap();
        std::fs::write(&p2, &v2).unwrap();
    }
    let g1 = std::fs::read(&p1).expect("committed v1 fixture");
    let g2 = std::fs::read(&p2).expect("committed v2 fixture");
    assert_eq!(g1, v1, "v1 writer diverged from the committed fixture");
    assert_eq!(g2, v2, "v2 writer diverged from the committed fixture");
    let s1 = FrozenAdsSet::from_bytes(&g1).expect("v1 fixture decodes");
    let s2 = FrozenAdsSet::from_bytes(&g2).expect("v2 fixture decodes");
    assert_eq!(s1.format_version(), 1);
    assert_eq!(s2.format_version(), 2);
    assert_eq!(s1, frozen);
    assert_eq!(s2, frozen);
    // Cross-format transcodes reproduce the other fixture exactly.
    assert_eq!(s1.to_bytes_format(StoreFormat::V2), g2);
    assert_eq!(s2.to_bytes(), g1);
    // And the decoded fixtures answer estimators like the build output.
    assert_estimators_match_oracle(&s1, &ads);
    assert_estimators_match_oracle(&s2, &ads);
}

/// First slice of "parsers are total": every single-bit corruption of a
/// committed image is a typed error from the buffered parser and from a
/// verified mapped load — never a panic, never a store.
fn assert_every_single_bit_flip_is_a_typed_error(name: &str) {
    use std::io::{Seek, SeekFrom, Write};
    let good = std::fs::read(fixture_path(name)).expect("committed fixture");
    let path = std::env::temp_dir().join(format!("adsketch_test_bitflip_{name}"));
    std::fs::write(&path, &good).unwrap();
    // One open handle patches single bytes in place: rewriting the whole
    // file per bit would be most of the test's run time.
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let mut patch = |at: usize, byte: u8| {
        file.seek(SeekFrom::Start(at as u64)).unwrap();
        file.write_all(&[byte]).unwrap();
    };
    let mut bytes = good.clone();
    for bit in 0..good.len() * 8 {
        let at = bit / 8;
        bytes[at] ^= 1 << (bit % 8);
        if let Ok(store) = FrozenAdsSet::from_bytes(&bytes) {
            panic!("{name}: bit {bit} flipped, from_bytes gave {store:?}");
        }
        patch(at, bytes[at]);
        if let Ok(store) = FrozenAdsSet::load_with(&path, LoadOptions::mapped()) {
            panic!("{name}: bit {bit} flipped, mapped load gave {store:?}");
        }
        bytes[at] = good[at];
        patch(at, good[at]);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_single_bit_flip_of_the_v1_golden_fixture_is_a_typed_error() {
    assert_every_single_bit_flip_is_a_typed_error("golden_ba30_k3.v1.ads");
}

#[test]
fn every_single_bit_flip_of_the_v2_golden_fixture_is_a_typed_error() {
    assert_every_single_bit_flip_is_a_typed_error("golden_ba30_k3.v2.ads");
}

/// The fixtures of container generations 1 (`ADSKFRZ1`, FNV-1a
/// checksums, u32 columns first) and 2 (`ADSKFRZ2`, a per-entry rank
/// column), kept to pin how an older build's files fail: typed, at every
/// load level, before any byte of the body is trusted.
#[test]
fn generation_1_stores_are_rejected_as_written_by_an_older_build() {
    for name in [
        "legacy_gen1.v1.ads",
        "legacy_gen1.v2.ads",
        "legacy_gen2.v1.ads",
        "legacy_gen2.v2.ads",
    ] {
        let path = fixture_path(name);
        let check = |res: Result<FrozenAdsSet, FrozenError>, how: &str| {
            let err = res.expect_err(how);
            assert!(
                matches!(err, FrozenError::LegacyGeneration),
                "{name}, {how}: {err:?}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains("older build") && msg.contains("re-freeze"),
                "{name}, {how}: {msg}"
            );
        };
        check(
            FrozenAdsSet::from_bytes(&std::fs::read(&path).unwrap()),
            "from_bytes",
        );
        for opts in [
            LoadOptions::default(),
            LoadOptions::mapped(),
            LoadOptions::trusted(),
        ] {
            check(FrozenAdsSet::load_with(&path, opts), &format!("{opts:?}"));
        }
    }
    // The bump to generation 2 moved nothing in the v2 body: the two
    // legacy fixtures differ in the magic's generation digit and the 8
    // checksum bytes only.
    let old = std::fs::read(fixture_path("legacy_gen1.v2.ads")).unwrap();
    let new = std::fs::read(fixture_path("legacy_gen2.v2.ads")).unwrap();
    assert_eq!(old.len(), new.len());
    let differing: Vec<usize> = (0..old.len()).filter(|&i| old[i] != new[i]).collect();
    assert!(
        differing.contains(&7) && differing.iter().all(|&i| i == 7 || (32..40).contains(&i)),
        "v2 images differ at {differing:?}"
    );
}

/// The golden v2 image of the build before weights were derived: the
/// same store with a varint τ back-reference per weight (weight tag 0).
/// Every load level rejects it as an older build's file, typed, and
/// names the tag.
#[test]
fn tau_back_reference_stores_are_rejected_as_written_by_an_older_build() {
    let path = fixture_path("legacy_tauref.v2.ads");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!((&bytes[..8], bytes[8], bytes[43]), (&b"ADSKFRZ3"[..], 2, 0));
    let check = |res: Result<FrozenAdsSet, FrozenError>, how: &str| {
        let err = res.expect_err(how);
        assert!(
            matches!(err, FrozenError::LegacyGeneration),
            "{how}: {err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("older build")
                && msg.contains("weight tag 0")
                && msg.contains("re-freeze"),
            "{how}: {msg}"
        );
    };
    check(FrozenAdsSet::from_bytes(&bytes), "from_bytes");
    for opts in [
        LoadOptions::default(),
        LoadOptions::mapped(),
        LoadOptions::trusted(),
    ] {
        check(FrozenAdsSet::load_with(&path, opts), &format!("{opts:?}"));
    }
}

// ---------------------------------------------------------------------
// Multi-block byte pins
// ---------------------------------------------------------------------

/// The header checksum (bytes 32..40) of a store image. It covers every
/// other byte, so pinning it pins the whole image.
fn image_checksum(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[32..40].try_into().unwrap())
}

/// The golden fixture holds 30 rows, a single block. These stores span
/// many blocks, so their checksums pin the block-offset table and every
/// later block's sections too.
#[test]
fn multi_block_v2_images_are_pinned() {
    let ba = AdsSet::build(&generators::barabasi_albert(3000, 3, 17), 16, 5).freeze();
    let weighted = AdsSet::build(
        &generators::random_weighted_digraph(2000, 4, 1.0, 10.0, 23),
        8,
        6,
    )
    .freeze();
    for (name, frozen, pinned) in [
        ("ba3000_k16", &ba, 0x653b9901c539ec3f),
        ("weighted2000_k8", &weighted, 0x60ba4eb246cb96d4),
    ] {
        let v2 = frozen.to_bytes_format(StoreFormat::V2);
        assert_eq!(
            image_checksum(&v2),
            pinned,
            "{name}: v2 image changed (tags {:?})",
            &v2[40..44]
        );
        assert_eq!(&FrozenAdsSet::from_bytes(&v2).expect("v2 decodes"), frozen);
    }
}

// ---------------------------------------------------------------------
// Column escapes planted in the last block
// ---------------------------------------------------------------------

/// A valid v1 image of 300 rows (five v2 blocks of 64 rows) whose v2
/// encoding picks every compressed tag.
fn escape_base() -> Vec<u8> {
    let frozen = AdsSet::build(&generators::barabasi_albert(300, 3, 31), 4, 8).freeze();
    assert_eq!(
        &frozen.to_bytes_format(StoreFormat::V2)[40..44],
        &[0, 0, 0, 2]
    );
    frozen.to_bytes()
}

/// Byte offsets into a v1 image: `dist(i)` and `weight(i)` are entry
/// `i` of the two f64 entry columns, `rank(x)` node `x`'s slot in the
/// rank table, `node(i)` entry `i`'s node id, and `row(v)` the entry
/// span of row `v`.
struct V1Image<'a> {
    bytes: &'a [u8],
    n: usize,
    entries: usize,
}

impl<'a> V1Image<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(bytes[8], 1, "a v1 image");
        let (n, entries) = (u64_at(16) as usize, u64_at(24) as usize);
        Self { bytes, n, entries }
    }
    fn dist(&self, i: usize) -> usize {
        40 + i * 8
    }
    fn weight(&self, i: usize) -> usize {
        40 + (self.entries + i) * 8
    }
    fn rank(&self, x: usize) -> usize {
        40 + (2 * self.entries + x) * 8
    }
    fn offset(&self, v: usize) -> usize {
        40 + (2 * self.entries + self.n) * 8 + v * 4
    }
    fn node(&self, i: usize) -> usize {
        self.offset(self.n + 1) + i * 4
    }
    fn row(&self, v: usize) -> std::ops::Range<usize> {
        let at = |v: usize| {
            let o = self.offset(v);
            u32::from_le_bytes(self.bytes[o..o + 4].try_into().unwrap()) as usize
        };
        at(v)..at(v + 1)
    }
    fn f64(&self, at: usize) -> f64 {
        f64::from_bits(u64::from_le_bytes(
            self.bytes[at..at + 8].try_into().unwrap(),
        ))
    }
}

/// Re-signs the patched v1 image, encodes the store it holds as v2 and
/// asserts the tag bytes, the image checksum and a bitwise round trip
/// through `load`.
fn assert_escape(
    mut v1: Vec<u8>,
    tags: [u8; 4],
    pinned: u64,
    load: impl Fn(&[u8]) -> FrozenAdsSet,
) {
    resign_store(&mut v1);
    let store = load(&v1);
    let v2 = store.to_bytes_format(StoreFormat::V2);
    assert_eq!(&v2[40..44], &tags, "tag bytes");
    assert_eq!(image_checksum(&v2), pinned, "v2 image changed");
    let restored = load(&v2);
    assert_eq!(restored.format_version(), 2);
    assert_eq!(restored, store, "v2 round trip must be bitwise identity");
    assert_eq!(restored.to_bytes(), v1);
}

fn verified_load(bytes: &[u8]) -> FrozenAdsSet {
    FrozenAdsSet::from_bytes(bytes).expect("valid image")
}

#[test]
fn one_nodes_rank_off_the_grid_escapes_the_rank_table() {
    let mut v1 = escape_base();
    let img = V1Image::new(&v1);
    // A node whose rank is no entry's τ (no weight is its reciprocal) and
    // below 1/2, where floats are finer than the 2⁻⁵³ grid: one ulp up
    // takes it off the grid but keeps its order against every other
    // rank, so every weight still derives and only the rank table can
    // change encoding.
    let x = (0..img.n)
        .find(|&x| {
            let r = img.f64(img.rank(x));
            let w = (1.0 / r).to_bits();
            r < 0.5 && (0..img.entries).all(|i| img.f64(img.weight(i)).to_bits() != w)
        })
        .expect("a node whose rank is no τ");
    let at = img.rank(x);
    let off_grid = img.f64(at).next_up();
    v1[at..at + 8].copy_from_slice(&off_grid.to_bits().to_le_bytes());
    assert_escape(v1, [0, 0, 1, 2], 0x64f2680174c83eb1, verified_load);
}

#[test]
fn one_weight_no_earlier_rank_explains_in_the_last_block_escapes_the_weight_column() {
    let mut v1 = escape_base();
    let img = V1Image::new(&v1);
    // Every rank is at most 1, so no `1 / rank` is 0.5.
    let at = img.weight(img.row(img.n - 1).end - 1);
    v1[at..at + 8].copy_from_slice(&0.5f64.to_bits().to_le_bytes());
    assert_escape(v1, [0, 0, 0, 1], 0x70302b9469417f99, verified_load);
}

#[test]
fn one_non_increasing_node_run_in_the_last_block_escapes_the_node_column() {
    let mut v1 = escape_base();
    let img = V1Image::new(&v1);
    // Two neighbours at one distance in a row of the last block: swapping
    // their ids breaks the canonical order, which a verified load would
    // reject, so this store only loads trusted.
    let last_block = (img.n - 1) / 64 * 64;
    let i = (last_block..img.n)
        .rev()
        .flat_map(|v| img.row(v).skip(1).rev())
        .find(|&i| img.f64(img.dist(i)).to_bits() == img.f64(img.dist(i - 1)).to_bits())
        .expect("a distance run of two in the last block");
    let (a, b) = (img.node(i - 1), img.node(i));
    let (x, y) = (v1[a..a + 4].to_vec(), v1[b..b + 4].to_vec());
    v1[a..a + 4].copy_from_slice(&y);
    v1[b..b + 4].copy_from_slice(&x);
    // One file per format: the v1 store stays mapped while the v2 image
    // is written and loaded.
    let path = |version: u8| {
        std::env::temp_dir().join(format!(
            "adsketch_test_frozen_v2_node_escape.v{version}.ads"
        ))
    };
    let trusted_load = |bytes: &[u8]| {
        std::fs::write(path(bytes[8]), bytes).unwrap();
        FrozenAdsSet::load_with(path(bytes[8]), LoadOptions::trusted()).expect("trusted load")
    };
    assert_escape(v1, [1, 0, 0, 2], 0xe36f51efd853952e, trusted_load);
    for version in [1, 2] {
        std::fs::remove_file(path(version)).ok();
    }
}
