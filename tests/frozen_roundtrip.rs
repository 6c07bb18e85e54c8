//! Build → serialize → deserialize round trips must be lossless: every
//! estimator answers from the restored [`FrozenAdsSet`] **bitwise
//! identically** (`to_bits`) to the oracle over the built [`AdsSet`]'s
//! rows (weighted by `reference::hip_weights`; see `tests/oracle`), across directed / weighted / disconnected graphs and
//! empty rows; corrupted or truncated buffers must be rejected,
//! identically by every load path.

use std::path::PathBuf;

use proptest::prelude::*;

use adsketch::core::frozen::Xxh64;
use adsketch::core::frozen::SHARD_MANIFEST_FILE;
use adsketch::core::{
    centrality, freeze_sharded, reference, AdsSet, FrozenAdsSet, FrozenError, LoadOptions,
    QueryEngine, ShardManifest,
};
use adsketch::graph::{generators, Graph, NodeId};
use adsketch::util::{Rng64, SplitMix64};

mod oracle;
use oracle::{assert_estimators_match_oracle, with_empty_rows};

fn roundtrip(ads: &AdsSet) -> FrozenAdsSet {
    let frozen = ads.freeze();
    let bytes = frozen.to_bytes();
    let restored = FrozenAdsSet::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(restored, frozen, "from_bytes(to_bytes(_)) must be identity");
    restored
}

/// Empty rows and `d < 0` make every HIP sum empty: the restored store
/// answers `+0.0` for each, per row and batched, like the oracle.
#[test]
fn empty_rows_and_negative_distances_answer_positive_zero() {
    let ads = with_empty_rows(&AdsSet::build(&generators::gnp_directed(30, 0.1, 2), 3, 4));
    assert_estimators_match_oracle(&roundtrip(&ads), &ads);
}

/// Strategy: a small directed graph as (n, arcs).
fn small_digraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..40).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..120);
        (Just(n), arcs)
    })
}

proptest! {
    /// Random graph → build → freeze → to_bytes → from_bytes: every
    /// estimator answer is bitwise equal to the in-memory AdsSet answer.
    #[test]
    fn random_graph_roundtrip_bitwise(
        (n, arcs) in small_digraph(),
        seed in 0u64..1_000,
        k in 1usize..6,
    ) {
        let g = Graph::directed(n, &arcs).unwrap();
        let ads = AdsSet::build(&g, k, seed);
        let restored = roundtrip(&ads);
        assert_estimators_match_oracle(&restored, &ads);
    }

    /// Corrupting any single byte of a serialized store, or truncating it
    /// anywhere, must make from_bytes fail — never silently misread.
    #[test]
    fn corrupted_or_truncated_buffers_rejected(
        seed in 0u64..1_000,
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
    ) {
        let g = generators::gnp_directed(30, 0.1, seed);
        let bytes = AdsSet::build(&g, 3, seed).freeze().to_bytes();
        // Truncation at an arbitrary prefix length.
        let cut = ((bytes.len() as f64 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(
            FrozenAdsSet::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must be rejected",
            bytes.len()
        );
        // Single-bit corruption anywhere (header or payload).
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
fn directed_weighted_disconnected_roundtrips() {
    let k = 4;
    // Directed unweighted.
    let directed = generators::gnp_directed(120, 0.04, 3);
    // Weighted digraph (real-valued distances, Dijkstra path).
    let weighted = generators::random_weighted_digraph(80, 4, 0.5, 2.5, 7);
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
        ("disconnected", &disconnected),
    ] {
        let ads = AdsSet::build(g, k, 11);
        let restored = roundtrip(&ads);
        assert_estimators_match_oracle(&restored, &ads);
        // The batch engine answers from the restored store must match the
        // per-node heap path too, for every thread count.
        let per_node: Vec<f64> = (0..g.num_nodes() as NodeId)
            .map(|v| {
                centrality::harmonic(reference::hip_weights(ads.k(), ads.row(v).entries()).row())
            })
            .collect();
        for threads in [1usize, 3, 0] {
            assert_eq!(
                QueryEngine::with_threads(&restored, threads).harmonic_all(),
                per_node,
                "{name}: batch harmonic, threads = {threads}"
            );
        }
    }
}

#[test]
fn save_load_file_roundtrip() {
    let g = generators::barabasi_albert(150, 3, 9);
    let ads = AdsSet::build(&g, 8, 4);
    let frozen = ads.freeze();
    let path = std::env::temp_dir().join("adsketch_test_frozen_roundtrip.ads");
    frozen.save(&path).expect("save");
    let loaded = FrozenAdsSet::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, frozen);
    assert_estimators_match_oracle(&loaded, &ads);
}

#[test]
fn load_missing_file_is_io_error() {
    let err = FrozenAdsSet::load("/nonexistent/adsketch.ads").unwrap_err();
    assert!(err.to_string().contains("i/o error"), "{err}");
}

#[test]
fn mapped_v1_store_copies_no_column_for_either_parity_of_the_u32_prefix() {
    // The u32 columns hold n + 1 + E words. When they came first, an odd
    // count left the three f64 columns 8-misaligned in the mapping and
    // they were copied out (24 of every 28 bytes resident). Wide-first
    // column order aligns every column for both parities.
    let lone = Graph::directed(3, &[]).unwrap(); // E = 3: one self entry per node
    let arc = Graph::directed(3, &[(0, 1)]).unwrap(); // E = 4: ADS(0) gains node 1
    let parities: Vec<usize> = [&lone, &arc]
        .iter()
        .map(|g| {
            let ads = AdsSet::build(g, 2, 7);
            let frozen = ads.freeze();
            let parity = (frozen.num_nodes() + 1 + frozen.num_entries()) % 2;
            let path = std::env::temp_dir()
                .join(format!("adsketch_test_frozen_mapped_parity_{parity}.ads"));
            frozen.save(&path).expect("save");
            let buffered = FrozenAdsSet::load(&path).expect("buffered load");
            for opts in [LoadOptions::mapped(), LoadOptions::trusted()] {
                let mapped = FrozenAdsSet::load_with(&path, opts).expect("mapped load");
                if cfg!(all(
                    target_os = "linux",
                    target_pointer_width = "64",
                    target_endian = "little"
                )) {
                    assert!(mapped.is_mapped(), "parity {parity}, {opts:?}");
                    assert_eq!(
                        mapped.resident_bytes(),
                        std::mem::size_of::<FrozenAdsSet>(),
                        "parity {parity}, {opts:?}: a column was copied out of the mapping"
                    );
                }
                assert_eq!(mapped, buffered, "parity {parity}, {opts:?}");
                assert_estimators_match_oracle(&mapped, &ads);
            }
            std::fs::remove_file(&path).ok();
            parity
        })
        .collect();
    assert_ne!(
        parities[0], parities[1],
        "the two graphs must cover both parities"
    );
}

/// One deterministic hostile variant of `good`. Cases cycle through four
/// kinds: truncate at a random length, splice a random range of the
/// file over another spot, extend with random bytes, flip 2–8 random
/// bits. Every other cycle re-signs the header checksum afterwards, so
/// the damage reaches the length, offset and structure checks behind it.
fn mutate(good: &[u8], case: usize, rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = good.to_vec();
    match case % 4 {
        0 => bytes.truncate(rng.range_usize(good.len())),
        1 => {
            let len = 1 + rng.range_usize(64.min(good.len()));
            let from = rng.range_usize(good.len() - len + 1);
            let to = rng.range_usize(good.len() - len + 1);
            bytes[to..to + len].copy_from_slice(&good[from..from + len]);
        }
        2 => bytes.extend((0..1 + rng.range_usize(64)).map(|_| rng.next_u64() as u8)),
        _ => {
            for _ in 0..2 + rng.range_usize(7) {
                let bit = rng.range_usize(good.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
    if (case / 4) % 2 == 1 && bytes.len() >= 40 {
        let mut h = Xxh64::new();
        h.update(&bytes[..32]);
        h.update(&[0u8; 8]);
        h.update(&bytes[40..]);
        let digest = h.digest();
        bytes[32..40].copy_from_slice(&digest.to_le_bytes());
    }
    bytes
}

/// Runs one load, turning a panic into a test failure that names it.
fn no_panic<T>(what: &str, load: impl FnOnce() -> T) -> T {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(load))
        .unwrap_or_else(|_| panic!("{what} panicked"))
}

/// Hostile inputs: for a few hundred mutations of each committed golden
/// image, `from_bytes`, the buffered load and the verified mapped load
/// give the same verdict — the same store or the same error variant —
/// and nothing panics. A store the trusted load accepts (it skips the
/// checksum and the order scan) must still answer a full sweep, and a
/// rank-table gather for every entry.
#[test]
fn all_load_paths_agree_on_mutated_golden_fixtures() {
    for name in ["golden_ba30_k3.v1.ads", "golden_ba30_k3.v2.ads"] {
        let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let good = std::fs::read(fixture.join(name)).expect("committed fixture");
        let path = std::env::temp_dir().join(format!("adsketch_test_mutation_{name}"));
        let mut rng = SplitMix64::new(0x5EED_0000 ^ good.len() as u64);
        for case in 0..400 {
            let bytes = mutate(&good, case, &mut rng);
            std::fs::write(&path, &bytes).unwrap();
            let what = |how: &str| format!("{name}, case {case} ({} bytes), {how}", bytes.len());
            let verdicts: Vec<Result<FrozenAdsSet, FrozenError>> = vec![
                no_panic(&what("from_bytes"), || FrozenAdsSet::from_bytes(&bytes)),
                no_panic(&what("buffered"), || FrozenAdsSet::load(&path)),
                no_panic(&what("mapped"), || {
                    FrozenAdsSet::load_with(&path, LoadOptions::mapped())
                }),
            ];
            let kind = |r: &Result<FrozenAdsSet, FrozenError>| {
                r.as_ref().map(|_| ()).map_err(std::mem::discriminant)
            };
            for (how, r) in ["buffered", "mapped"].iter().zip(&verdicts[1..]) {
                assert_eq!(
                    kind(r),
                    kind(&verdicts[0]),
                    "{}: {r:?} vs from_bytes {:?}",
                    what(how),
                    verdicts[0]
                );
                if let (Ok(a), Ok(b)) = (r, &verdicts[0]) {
                    assert_eq!(a, b, "{}", what(how));
                }
            }
            let trusted = no_panic(&what("trusted"), || {
                FrozenAdsSet::load_with(&path, LoadOptions::trusted())
            });
            if let Ok(store) = trusted {
                no_panic(&what("trusted sweep"), || {
                    QueryEngine::new(&store).harmonic_all();
                    let n = store.num_nodes() as NodeId;
                    (0..n)
                        .map(|v| store.row(v).minhash_at(f64::INFINITY).len())
                        .sum::<usize>()
                });
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Hostile inputs, manifest slice: the same mutations of a sharded
/// store's manifest either fail to parse, as a typed error, or parse to
/// a manifest that writes back exactly the mutated bytes. Nothing
/// panics.
#[test]
fn mutated_shard_manifests_are_typed_errors_or_exact_roundtrips() {
    let ads = AdsSet::build(&generators::gnp_directed(60, 0.07, 21), 3, 5);
    let dir = std::env::temp_dir().join("adsketch_test_mutation_manifest");
    std::fs::remove_dir_all(&dir).ok();
    freeze_sharded(&ads, 4, &dir).expect("freeze_sharded");
    let good = std::fs::read(dir.join(SHARD_MANIFEST_FILE)).expect("manifest");
    std::fs::remove_dir_all(&dir).ok();
    let mut rng = SplitMix64::new(0x5EED_0000 ^ good.len() as u64);
    for case in 0..400 {
        let bytes = mutate(&good, case, &mut rng);
        let what = format!("case {case} ({} bytes)", bytes.len());
        let parsed = no_panic(&what, || ShardManifest::from_bytes(&bytes));
        if let Ok(manifest) = parsed {
            assert_eq!(
                manifest.to_bytes(),
                bytes,
                "{what}: parsed, but not exactly"
            );
        }
    }
}
