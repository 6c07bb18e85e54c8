//! The immutable, columnar ADS store and its on-disk format.
//!
//! [`FrozenAdsSet`] is the one collection of ADSs: every builder returns
//! it ([`crate::AdsSet`] is an alias), every file loads into it, and the
//! paper's use cases (neighborhood cardinalities, closeness centralities,
//! similarities over massive graphs) serve from it — directly or batched
//! through [`crate::engine::QueryEngine`] — with zero per-query
//! allocation. Its layout is struct-of-arrays CSR with the HIP adjusted
//! weights precomputed inline.
//!
//! A builder hands its finished `nodes / dists` columns over whole,
//! with the per-node rank table it ran on: an entry samples a node, so
//! its rank is that node's (paper, Section 2), and the store keeps one
//! `rank_of: [f64; n]` table instead of a rank per entry. It adds the
//! weight column in one pass per row, writing `1/τ` with τ the k-th
//! smallest rank `rank_of[node]` before the entry (Lemma 5.1), read off
//! the branchless sorted-slot kernel `hip::tau_scan` (no heap).
//! [`crate::reference::hip_weights`] computes the same weights through a
//! heap and stays as the reference they are tested against. A v2 file
//! stores no weights: every v2 load derives them with the same kernel.
//!
//! # On-disk format (version 1)
//!
//! [`FrozenAdsSet::to_bytes`] serializes to one contiguous little-endian
//! buffer: a 40-byte header followed by the four column arrays and the
//! rank table, widest elements first and without padding — 20 bytes per
//! entry and 12 per node:
//!
//! ```text
//! offset  size          field
//! 0       8             magic  = b"ADSKFRZ3" (container generation 3)
//! 8       4             format version (u32, = 1: the body layout id)
//! 12      4             k (u32)
//! 16      8             n = number of nodes (u64)
//! 24      8             E = total number of entries (u64)
//! 32      8             XXH64 (seed 0; see `Xxh64`) of every other byte of
//!                       the buffer (header with this field zeroed + payload)
//! 40      E*8           dists    (f64 bits)
//! ...     E*8           weights  (f64 bits, HIP adjusted weights)
//! ...     n*8           rank_of  (f64 bits; rank_of[x] is node x's rank)
//! ...     (n+1)*4       offsets  (u32; offsets[v]..offsets[v+1] is ADS(v))
//! ...     E*4           nodes    (u32 node ids)
//! ```
//!
//! The header is 8-aligned and every `f64` column is a multiple of 8
//! bytes, so in a (page-aligned) mapping each column starts naturally
//! aligned for its element type whatever `n` and `E` are: a mapped v1
//! store views all five arrays in place and copies none.
//!
//! Distances, weights and ranks round-trip through `f64::to_bits`, so
//! deserialization is lossless. [`FrozenAdsSet::from_bytes`] rejects a
//! wrong magic, an unknown version, a truncated or oversized buffer, a
//! checksum mismatch, and structurally corrupt payloads (non-monotone
//! offsets, out-of-range node ids, entries out of canonical order).
//! Every load, trusted ones included, checks that each node id indexes
//! the rank table.
//! [`FrozenAdsSet::save`] streams this format column by column without
//! materializing the whole buffer. Every load parses one complete image
//! slice, whatever holds it: `from_bytes` the caller's buffer, the
//! buffered [`FrozenAdsSet::load`] the file read whole, a mapped load
//! the mapping itself.
//!
//! The trailing digit of the magic is the **container generation**: it
//! changes when the header, checksum or column set change for both
//! body layouts at once. Generation 3 moved the ranks from a per-entry
//! column into the per-node table, in both layouts. Files of generation
//! 1 (`ADSKFRZ1`: FNV-1a checksums, `u32` columns first) and generation
//! 2 (`ADSKFRZ2`: a per-entry rank column, 28 bytes per v1 entry) are
//! rejected with [`FrozenError::LegacyGeneration`] by every load path —
//! there is no legacy reader; re-freeze to upgrade.
//!
//! # On-disk format (version 2, compressed)
//!
//! [`FrozenAdsSet::to_bytes_format`] with [`StoreFormat::V2`] writes the
//! opt-in compressed format (v1 stays the default and every reader
//! accepts both, dispatching on the header's version field). The header
//! shares its first 40 bytes with v1 — same magic, same checksum
//! convention — followed by four encoding tags and the block
//! granularity:
//!
//! ```text
//! offset  size          field
//! 0       8             magic  = b"ADSKFRZ3"
//! 8       4             format version (u32, = 2)
//! 12      4             k (u32)
//! 16      8             n = number of nodes (u64)
//! 24      8             E = total number of entries (u64)
//! 32      8             XXH64 checksum (as in v1: this field zeroed)
//! 40      1             node-column tag   (0 delta+varint, 1 raw u32)
//! 41      1             dist-column tag   (0 dict u16, 1 dict u32, 2 raw f64 bits)
//! 42      1             rank-table tag    (0 fixed 7-byte m·2⁻⁵³, 1 raw f64 bits)
//! 43      1             weight-column tag (2 derived: no bytes, 1 raw f64 bits;
//!                       0, τ back-references, is an older build's)
//! 44      4             R = rows per block (u32)
//! 48      (n+1)*4       offsets  (u32, identical to the v1 column)
//! ...     n*7 or n*8    rank_of  (per the rank-table tag)
//! ...     4             D = distance-dictionary size (u32)
//! ...     D*8           distance dictionary (distinct f64 bits, ascending)
//! ...     (B+1)*8       block byte offsets into the blob (u64),
//!                       B = ⌈n / R⌉ blocks of R rows each
//! ...     8             blob length (u64)
//! ...     blob          per-block payloads, back to back
//! ```
//!
//! Each block's payload is column-major: a 12-byte header of three u32
//! section lengths, then the `[dists][nodes][weights]` sections for that
//! block's entries. Under the derived weight tag the weight section is
//! empty: the decoder rebuilds each row's weights from its node ids and
//! the rank table, as a freeze computes them. A `1` (or for dists `2`)
//! tag byte marks a whole column *escaped* to raw full-width values. A
//! weight tag of `0` (the per-entry τ back-references an older build
//! wrote) is [`FrozenError::LegacyGeneration`]. The rank table's tag
//! comes from one scan of the table; the encoder picks the other tags by
//! **verifying bit-exact reconstruction of every entry**, so v1 ↔ v2
//! round trips are bitwise lossless for any store and every estimator
//! answers bit-identically on either format. Version 2 exists
//! on disk only: every load of a v2 file decodes it once, whole (one
//! chunk of blocks per core), into the same full-width columns a
//! freeze or a v1 load produces (see `frozen/v2.rs`), so once loaded
//! the two formats cost the same memory and answer at the same speed.
//! The larger-than-RAM path is a mapped
//! **v1** store: page-cache backed and zero-decode. A version this build
//! does not know is [`FrozenError::UnsupportedVersion`].
//!
//! # Sharded stores (manifest format version 2)
//!
//! [`freeze_sharded`] partitions the node range `0..n` into `S` contiguous
//! sub-ranges (balanced by entry count) and writes one store per shard
//! (version 1 by default; [`freeze_sharded_format`] opts the whole fleet
//! into v2) — each shard file covers all `n` rows but only its own range
//! is populated, so every shard is independently loadable by
//! [`FrozenAdsSet::load`] and valid against the structural checks of its
//! format. Next to the shards it writes a checksummed manifest
//! ([`SHARD_MANIFEST_FILE`], magic `ADSKSHD1`):
//!
//! ```text
//! offset  size          field
//! 0       8             magic  = b"ADSKSHD1"
//! 8       4             format version (u32, = 2)
//! 12      4             k (u32)
//! 16      8             n = number of nodes (u64)
//! 24      8             E = total number of entries (u64)
//! 32      8             XXH64 checksum (as in the store header)
//! 40      4             S = shard count (u32)
//! 44      S*32          per-shard records: start (u64), end (u64),
//!                       entries (u64), the shard file's own header
//!                       checksum (u64)
//! ```
//!
//! Shard `i` covers nodes `start..end` and lives in
//! [`shard_file_name`]`(i)` next to the manifest.
//! [`ShardManifest::from_bytes`] rejects bad magic/version, truncation,
//! trailing bytes, checksum mismatches, and structurally invalid shard
//! tables (overlapping ranges, gaps, ranges not covering exactly `0..n`,
//! entry counts that don't sum to `E`). A shard's header checksum covers
//! every other byte of its file, so pinning that one value pins the file:
//! the serving-side loader (`adsketch-serve`'s `ShardedStore`) verifies
//! each shard against its own header in one walk and compares the
//! verified value with the record. (Manifest version 1 pinned a second,
//! whole-file FNV-1a digest instead and is rejected as
//! [`FrozenError::UnsupportedVersion`]`(1)`.)

use std::fmt;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use adsketch_graph::NodeId;

use crate::hip::tau_scan;
use crate::view::{AdsView, Row};

#[allow(unsafe_code)] // the workspace's single unsafe module; see its docs
mod mmap;
mod v2;
mod varint;
mod xxh64;

use mmap::MapRegion;
pub use xxh64::Xxh64;

/// Magic bytes identifying a serialized frozen ADS store. The last byte
/// is the container generation (header, checksum function, v1 column
/// order); the header's version field selects the body layout within it.
pub const FROZEN_MAGIC: [u8; 8] = *b"ADSKFRZ3";
/// The default on-disk format version ([`StoreFormat::V1`], full-width
/// columns). Writers opt into the compressed version 2 via
/// [`StoreFormat::V2`]; readers accept both.
pub const FROZEN_FORMAT_VERSION: u32 = 1;
/// The compressed on-disk format version (see the module docs).
pub const FROZEN_FORMAT_VERSION_V2: u32 = 2;

/// Which on-disk format a store is written in. Readers never need this:
/// every load path dispatches on the header's version field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreFormat {
    /// Version 1: full-width columns (u32 node, f64 dist/weight), 20
    /// bytes per entry, plus the 8-byte-per-node rank table. The default;
    /// fastest to write, and the only format whose mapped loads are
    /// zero-decode (and so can exceed RAM).
    #[default]
    V1,
    /// Version 2: compressed block-columnar encoding (delta+varint node
    /// ids, dictionary distances, a 7-byte rank per node, and no weight
    /// bytes: every load derives the HIP weights from the rows and the
    /// rank table — each column with a bit-exact raw escape). About 5×
    /// smaller than v1 on unit-weight graphs (≈ 3.7 B per entry); every
    /// load decodes it once into the full-width in-memory columns.
    /// Bitwise-lossless: a v1 ↔ v2 round trip reproduces every stored
    /// bit.
    V2,
}

impl StoreFormat {
    /// The on-disk version number this format writes.
    pub fn version(self) -> u32 {
        match self {
            StoreFormat::V1 => FROZEN_FORMAT_VERSION,
            StoreFormat::V2 => FROZEN_FORMAT_VERSION_V2,
        }
    }
}

const HEADER_LEN: usize = 40;
const CHECKSUM_OFFSET: usize = 32;

/// One CSR column: either owned on the heap or a typed view into the
/// store's mapped file region (byte offset + element count; the region
/// itself lives on the enclosing [`FrozenAdsSet`]).
#[derive(Debug)]
enum Col<T> {
    Owned(Vec<T>),
    Mapped { off: usize, count: usize },
}

/// Column element types of a v1 image: viewed in place out of a mapped
/// region, or decoded little-endian out of any other byte slice.
trait ColElem: Copy {
    /// A checked, aligned view (see [`MapRegion::u32_slice`]).
    fn view(region: &MapRegion, off: usize, count: usize) -> Option<&[Self]>;
    /// One element from its `size_of::<Self>()` little-endian bytes.
    fn from_le(bytes: &[u8]) -> Self;
}

impl ColElem for u32 {
    #[inline]
    fn view(region: &MapRegion, off: usize, count: usize) -> Option<&[u32]> {
        region.u32_slice(off, count)
    }

    #[inline]
    fn from_le(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(bytes.try_into().expect("4-byte chunks"))
    }
}

impl ColElem for f64 {
    #[inline]
    fn view(region: &MapRegion, off: usize, count: usize) -> Option<&[f64]> {
        region.f64_slice(off, count)
    }

    #[inline]
    fn from_le(bytes: &[u8]) -> f64 {
        f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8-byte chunks")))
    }
}

impl<T: ColElem> Col<T> {
    /// The column at byte range `at` of a length-checked v1 image `buf`:
    /// a view when `region` maps `buf`, else decoded into an owned vector.
    fn from_image(buf: &[u8], region: Option<&MapRegion>, at: std::ops::Range<usize>) -> Self {
        let size = std::mem::size_of::<T>();
        match region {
            Some(region) => {
                let (off, count) = (at.start, at.len() / size);
                // Page-aligned base, 8-aligned header, f64 columns first:
                // every column is aligned by construction; assert it
                // rather than trust it.
                assert!(
                    T::view(region, off, count).is_some(),
                    "columns must be in bounds and aligned in a length-checked mapping"
                );
                Col::Mapped { off, count }
            }
            None => Col::Owned(buf[at].chunks_exact(size).map(T::from_le).collect()),
        }
    }

    /// The column contents, whichever backing holds them.
    #[inline]
    fn slice<'a>(&'a self, region: Option<&'a MapRegion>) -> &'a [T] {
        match self {
            Col::Owned(v) => v,
            Col::Mapped { off, count } => T::view(
                region.expect("mapped column requires a region"),
                *off,
                *count,
            )
            .expect("column checked at load"),
        }
    }
}

/// A complete store image handed to the one parser
/// (`FrozenAdsSet::from_image`), and so the backing of a v1 store's
/// columns.
enum Image<'a> {
    /// Borrowed bytes: the columns are decoded into owned vectors.
    Bytes(&'a [u8]),
    /// A mapped file: the columns stay views of it.
    Mapped(MapRegion),
}

/// An immutable, struct-of-arrays ADS set: what every builder returns.
///
/// CSR-style layout: node `v`'s entries occupy the index range
/// `offsets[v]..offsets[v+1]` of the three parallel entry columns. The
/// `weights` column holds the HIP adjusted weights (Lemma 5.1),
/// computed once when the builder hands over its columns — queries never
/// rerun the bottom-k threshold scan. An entry samples a node, so its
/// rank is that node's: one `n`-entry table `rank_of` holds them.
///
/// Columns are either owned heap `Vec`s (a build, `from_bytes`, the
/// buffered loaders, every load of a v2 file) or zero-copy views into a
/// memory-mapped v1 store file ([`FrozenAdsSet::load_with`] with
/// [`LoadOptions::map`]); every query path is backing-agnostic and
/// bitwise identical across the two.
#[derive(Debug)]
pub struct FrozenAdsSet {
    k: u32,
    /// The header version the store was read from (1 for a fresh
    /// build). Informational: the in-memory layout is the same.
    version: u32,
    /// Backs any `Col::Mapped` column; `None` for fully-owned stores.
    region: Option<MapRegion>,
    /// `n + 1` prefix offsets into the entry columns.
    offsets: Col<u32>,
    /// Sampled node ids, per node in canonical `(dist, node)` order.
    nodes: Col<NodeId>,
    /// Distances from each sketch's source.
    dists: Col<f64>,
    /// Precomputed HIP adjusted weights `1/τ`.
    weights: Col<f64>,
    /// Every node's random rank, indexed by node id (`n` elements).
    rank_of: Col<f64>,
}

impl Clone for FrozenAdsSet {
    /// Deep copy: a clone always owns its backing (cloning a mapped
    /// store copies the bytes out, dropping the dependence on the
    /// mapping).
    fn clone(&self) -> Self {
        Self {
            version: self.version,
            ..Self::from_owned_cols(
                self.k,
                self.offsets().to_vec(),
                self.nodes().to_vec(),
                self.dists().to_vec(),
                self.weights().to_vec(),
                self.rank_of().to_vec(),
            )
        }
    }
}

impl PartialEq for FrozenAdsSet {
    /// Logical equality over `k`, the offsets, the entry columns and the
    /// rank table (floats compared bitwise) — a mapped store and its
    /// owned copy compare equal, and so do a v1 store and its v2
    /// re-encoding.
    fn eq(&self, other: &Self) -> bool {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        self.k == other.k
            && self.offsets() == other.offsets()
            && self.nodes() == other.nodes()
            && bits_eq(self.dists(), other.dists())
            && bits_eq(self.weights(), other.weights())
            && bits_eq(self.rank_of(), other.rank_of())
    }
}

/// Errors surfaced by [`FrozenAdsSet::from_bytes`] / [`FrozenAdsSet::load`].
#[derive(Debug)]
pub enum FrozenError {
    /// The buffer does not start with [`FROZEN_MAGIC`].
    BadMagic,
    /// The file was written by an older build this one has no reader
    /// for: a store of an earlier container generation (`ADSKFRZ1` or
    /// `ADSKFRZ2`), or a version-2 store whose weights are τ
    /// back-references (weight tag 0; this build derives them).
    LegacyGeneration,
    /// The format version is not one this build understands.
    UnsupportedVersion(u32),
    /// The buffer is shorter than its header claims.
    Truncated {
        /// Bytes the header-derived layout requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The stored checksum does not match the buffer contents.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the buffer.
        computed: u64,
    },
    /// The payload is structurally invalid (details in the message).
    Corrupt(String),
    /// An underlying filesystem error (from [`FrozenAdsSet::load`]).
    Io(std::io::Error),
}

impl fmt::Display for FrozenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrozenError::BadMagic => write!(f, "not a frozen ADS store (bad magic)"),
            FrozenError::LegacyGeneration => write!(
                f,
                "frozen ADS store written by an older build (container generation 1 \
                 or 2, magic ADSKFRZ1 or ADSKFRZ2, or a version-2 body storing its \
                 weights as τ back-references, weight tag 0); this build reads \
                 generation 3 with derived version-2 weights only — re-freeze the \
                 sketches to upgrade"
            ),
            FrozenError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported frozen-store format version {v} (this build reads \
                     {FROZEN_FORMAT_VERSION} and {FROZEN_FORMAT_VERSION_V2})"
                )
            }
            FrozenError::Truncated { expected, actual } => {
                write!(f, "buffer truncated: need {expected} bytes, have {actual}")
            }
            FrozenError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: header records {stored:#018x}, buffer hashes to \
                     {computed:#018x}"
                )
            }
            FrozenError::Corrupt(msg) => write!(f, "corrupt frozen store: {msg}"),
            FrozenError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrozenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrozenError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrozenError {
    fn from(e: std::io::Error) -> Self {
        FrozenError::Io(e)
    }
}

/// Checksum of a complete serialized buffer, treating the 8 checksum bytes
/// themselves as zero.
fn buffer_checksum(buf: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(&buf[..CHECKSUM_OFFSET]);
    h.update(&[0u8; 8]);
    h.update(&buf[CHECKSUM_OFFSET + 8..]);
    h.digest()
}

/// Verifies a complete serialized buffer (store image or manifest)
/// against the checksum its header records, in one walk.
fn verify_image(buf: &[u8], stored: u64) -> Result<(), FrozenError> {
    let computed = buffer_checksum(buf);
    if computed != stored {
        return Err(FrozenError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// How [`FrozenAdsSet::load_with`] brings a store off disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOptions {
    /// Verify the header checksum and the full structural invariants
    /// (default **on**). Turning this off is the warm-restart fast path
    /// for files this process (or a trusted peer) already verified:
    /// header sanity, exact length, the offset-table invariants and the
    /// node-id range (every id indexes the rank table) are still
    /// enforced, but the checksum walk and the canonical-order scan are
    /// skipped. What that buys, measured on an 80 MB mapped v1 store
    /// (4.0M entries, `adsbench` `offline_unit`, 2-vCPU host): a
    /// verified load takes ≈ 34 ms — the word-at-a-time XXH64 walk, the
    /// order scan and the first touch of every page — against ≈ 3 ms
    /// unverified, which touches the offset table and the 16 MB node
    /// column only.
    ///
    /// Both formats check every node id against the rank table at every
    /// level. A v2 file is decoded whole either way, and its block
    /// decoder checks every block as it goes, so an unverified v2 load
    /// still rejects, as typed errors, what a v1 load cannot see without
    /// the checksum: section lengths that do not tile a block, escape
    /// columns of the wrong length, a weight byte under derived weights,
    /// out-of-range dictionary codes and rank mantissas, and
    /// non-canonical or truncated varints. What it skips is the checksum and the block decoder's
    /// check of each decoded row's canonical `(dist, node)` order, so bit
    /// rot that still decodes yields a store with wrong values.
    pub verify: bool,
    /// Map the file with `mmap` instead of reading it whole into a
    /// buffer (default **off**, matching [`FrozenAdsSet::load`]). A v1
    /// store keeps all five columns as zero-copy views of the mapping
    /// (little-endian 64-bit Linux), and replicas mapping the same file
    /// share its pages through the kernel page cache; a v2 store is
    /// decoded straight out of the mapping, which is then dropped.
    /// Elsewhere (and whenever the syscall declines) the loader silently
    /// reads the file whole instead. Both backings run the same parser,
    /// so the option is a pure fast path.
    pub map: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            verify: true,
            map: false,
        }
    }
}

impl LoadOptions {
    /// Verified, zero-copy: the serving tier's cold-start default.
    pub fn mapped() -> Self {
        Self {
            verify: true,
            map: true,
        }
    }

    /// Unverified, zero-copy: the warm-replica-restart fast path for
    /// stores that were already verified when first deployed.
    pub fn trusted() -> Self {
        Self {
            verify: false,
            map: true,
        }
    }
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("bounds checked"))
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("bounds checked"))
}

/// The untrusted fields common to both store-header versions, after the
/// O(1) sanity checks every load runs first.
struct ParsedHeader {
    version: u32,
    k: u32,
    n: u64,
    entries: u64,
    stored_checksum: u64,
    /// Exact serialized length a **v1** header implies (u128:
    /// untrusted). For v2 the total length depends on body fields the
    /// header does not carry; `v2::decode` derives it section by section.
    expected_len: u128,
}

/// Validates magic/version/counts of the 40 common store-header bytes.
fn parse_store_header(header: &[u8; HEADER_LEN]) -> Result<ParsedHeader, FrozenError> {
    if header[..8] != FROZEN_MAGIC {
        return Err(if matches!(&header[..8], b"ADSKFRZ1" | b"ADSKFRZ2") {
            FrozenError::LegacyGeneration
        } else {
            FrozenError::BadMagic
        });
    }
    let version = read_u32(header, 8);
    if version != FROZEN_FORMAT_VERSION && version != FROZEN_FORMAT_VERSION_V2 {
        return Err(FrozenError::UnsupportedVersion(version));
    }
    let k = read_u32(header, 12);
    let n = read_u64(header, 16);
    let entries = read_u64(header, 24);
    let stored_checksum = read_u64(header, CHECKSUM_OFFSET);
    if k == 0 {
        return Err(FrozenError::Corrupt("k must be ≥ 1".into()));
    }
    if n > u32::MAX as u64 || entries > u32::MAX as u64 {
        return Err(FrozenError::Corrupt(format!(
            "node/entry counts exceed the u32 CSR limit (n = {n}, entries = {entries})"
        )));
    }
    // All arithmetic in u128: header fields are untrusted.
    let expected_len =
        HEADER_LEN as u128 + (n as u128 + 1) * 4 + n as u128 * 8 + entries as u128 * (4 + 2 * 8);
    Ok(ParsedHeader {
        version,
        k,
        n,
        entries,
        stored_checksum,
        expected_len,
    })
}

/// The O(n) offset invariants every query's slicing relies on: monotone
/// offsets starting at 0 and spanning exactly `entries` stored entries.
/// Enforced even by trust-the-file loads ([`LoadOptions::verify`] off)
/// so no column access can panic on an inverted or out-of-bounds range.
fn validate_offsets(offsets: &[u32], entries: usize) -> Result<(), FrozenError> {
    if offsets[0] != 0 {
        return Err(FrozenError::Corrupt("offsets[0] must be 0".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(FrozenError::Corrupt(
            "offsets must be non-decreasing".into(),
        ));
    }
    if *offsets.last().expect("n+1 offsets") as usize != entries {
        return Err(FrozenError::Corrupt(
            "last offset must equal the entry count".into(),
        ));
    }
    Ok(())
}

/// Every sampled node id is below `n`, so the rank-table gather
/// `rank_of[node]` is total. Every v1 load runs it, trusted ones too (v2
/// blocks check each id as they decode it).
fn validate_node_ids(nodes: &[NodeId], n: usize) -> Result<(), FrozenError> {
    match nodes.iter().copied().max() {
        Some(max) if max as usize >= n => Err(FrozenError::Corrupt(format!(
            "sampled node id {max} out of range for {n} nodes"
        ))),
        _ => Ok(()),
    }
}

/// Row `v`'s entries (`dists`, `nodes`) are in strictly increasing
/// canonical `(dist, node)` order. Verified v1 loads scan every row with
/// it; verified v2 loads check each block's rows as they decode it.
fn check_row_order(v: usize, dists: &[f64], nodes: &[NodeId]) -> Result<(), FrozenError> {
    let in_order = dists
        .windows(2)
        .zip(nodes.windows(2))
        .all(|(d, nd)| d[0].total_cmp(&d[1]).then(nd[0].cmp(&nd[1])) == std::cmp::Ordering::Less);
    if in_order {
        Ok(())
    } else {
        Err(FrozenError::Corrupt(format!(
            "node {v}: entries out of canonical (dist, node) order"
        )))
    }
}

/// Bytes of one column encoded, hashed and written per `write` call by
/// the v1 writer: large enough that a 100 MB shard is a few hundred
/// syscalls, small enough to stay cache-resident between the three.
const ENCODE_CHUNK_BYTES: usize = 256 * 1024;

/// Streams `rows` in the version-1 on-disk format into the empty sink `w`
/// and returns the header checksum it stored. One pass: each column is
/// encoded once into a reused chunk that is hashed and written straight
/// through, then the checksum field is patched in place — the serialized
/// image is never materialized here.
fn write_v1<W: Write + Seek>(k: u32, rows: v2::RowsSource<'_>, w: &mut W) -> std::io::Result<u64> {
    /// Little-endian-encodes `col` chunk by chunk into `hash` and `w`.
    fn emit<T: Copy, const N: usize>(
        col: &[T],
        to_le: impl Fn(T) -> [u8; N],
        chunk: &mut [u8],
        hash: &mut Xxh64,
        w: &mut impl Write,
    ) -> std::io::Result<()> {
        for part in col.chunks(chunk.len() / N) {
            let bytes = &mut chunk[..part.len() * N];
            for (dst, &x) in bytes.chunks_exact_mut(N).zip(part) {
                dst.copy_from_slice(&to_le(x));
            }
            hash.update(bytes);
            w.write_all(bytes)?;
        }
        Ok(())
    }
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&FROZEN_MAGIC);
    header[8..12].copy_from_slice(&FROZEN_FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&k.to_le_bytes());
    header[16..24].copy_from_slice(&(rows.offsets.len() as u64 - 1).to_le_bytes());
    header[24..32].copy_from_slice(&(rows.nodes.len() as u64).to_le_bytes());
    let mut hash = Xxh64::new();
    hash.update(&header);
    w.write_all(&header)?;
    let mut chunk = vec![0u8; ENCODE_CHUNK_BYTES];
    for col in [rows.dists, rows.weights, rows.rank_of] {
        emit(col, |x| x.to_bits().to_le_bytes(), &mut chunk, &mut hash, w)?;
    }
    for col in [rows.offsets, rows.nodes] {
        emit(col, u32::to_le_bytes, &mut chunk, &mut hash, w)?;
    }
    let checksum = hash.digest();
    w.seek(SeekFrom::Start(CHECKSUM_OFFSET as u64))?;
    w.write_all(&checksum.to_le_bytes())?;
    Ok(checksum)
}

/// Writes `rows` to a new file in the given format (v1 streams, v2 is
/// encoded whole first, so a panicking encoder leaves no file behind)
/// and returns the header checksum written — the value a shard manifest
/// pins.
fn write_file(
    k: u32,
    rows: v2::RowsSource<'_>,
    path: &Path,
    format: StoreFormat,
) -> std::io::Result<u64> {
    // Unbuffered: both formats hand the file large writes.
    match format {
        StoreFormat::V1 => write_v1(k, rows, &mut std::fs::File::create(path)?),
        StoreFormat::V2 => {
            let image = v2::encode(k, rows, 0);
            std::fs::write(path, &image)?;
            Ok(read_u64(&image, CHECKSUM_OFFSET))
        }
    }
}

impl FrozenAdsSet {
    /// Assembles a fully-owned store from its columns.
    fn from_owned_cols(
        k: u32,
        offsets: Vec<u32>,
        nodes: Vec<NodeId>,
        dists: Vec<f64>,
        weights: Vec<f64>,
        rank_of: Vec<f64>,
    ) -> Self {
        Self {
            k,
            version: FROZEN_FORMAT_VERSION,
            region: None,
            offsets: Col::Owned(offsets),
            nodes: Col::Owned(nodes),
            dists: Col::Owned(dists),
            weights: Col::Owned(weights),
            rank_of: Col::Owned(rank_of),
        }
    }

    /// Takes over a builder's entry columns — `offsets[v]..offsets[v+1]`
    /// is row `v`, each row in canonical `(dist, node)` order — with the
    /// per-node rank table the builder ran on, and adds the HIP adjusted
    /// weight of every entry: one pass per row of the kernel every v2
    /// load runs too, `1/τ` with τ the k-th smallest rank `rank_of[node]`
    /// before the entry (1 while fewer than k precede it). This is the
    /// uniform-rank weight of Lemma 5.1; a set
    /// built over non-uniform ranks takes its estimates from
    /// [`crate::weighted::weighted_hip`] instead.
    pub(crate) fn from_columns(
        k: usize,
        offsets: Vec<u32>,
        nodes: Vec<NodeId>,
        dists: Vec<f64>,
        rank_of: Vec<f64>,
    ) -> Self {
        assert_eq!(offsets.len(), rank_of.len() + 1, "one rank per node");
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(
            *offsets.last().expect("n + 1 offsets") as usize,
            nodes.len()
        );
        debug_assert_eq!(dists.len(), nodes.len());
        let mut weights = vec![0.0; nodes.len()];
        tau_scan(k, &offsets, &nodes, &rank_of, |i, rank, tau| {
            // An exact rank tie with τ keeps the held slot (the oracle's
            // heap breaks it by node id); τ is the same.
            debug_assert!(
                tau.is_none_or(|t| rank <= t),
                "every ADS entry is a prefix bottom-k member"
            );
            weights[i] = 1.0 / tau.unwrap_or(1.0);
        });
        Self::from_owned_cols(k as u32, offsets, nodes, dists, weights, rank_of)
    }

    /// All five columns, borrowed: the writers' input.
    fn columns(&self) -> v2::RowsSource<'_> {
        v2::RowsSource {
            offsets: self.offsets(),
            nodes: self.nodes(),
            dists: self.dists(),
            weights: self.weights(),
            rank_of: self.rank_of(),
        }
    }

    /// The CSR prefix-offset column (`n + 1` elements).
    #[inline]
    fn offsets(&self) -> &[u32] {
        self.offsets.slice(self.region.as_ref())
    }

    /// The sampled-node-id column (`E` elements).
    #[inline]
    fn nodes(&self) -> &[NodeId] {
        self.nodes.slice(self.region.as_ref())
    }

    /// The distance column (`E` elements).
    #[inline]
    fn dists(&self) -> &[f64] {
        self.dists.slice(self.region.as_ref())
    }

    /// The HIP adjusted-weight column (`E` elements).
    #[inline]
    fn weights(&self) -> &[f64] {
        self.weights.slice(self.region.as_ref())
    }

    /// The per-node rank table (`n` elements).
    #[inline]
    pub(crate) fn rank_of(&self) -> &[f64] {
        self.rank_of.slice(self.region.as_ref())
    }

    /// Row `v`: `ADS(v)`'s slice of each entry column, and the rank
    /// table. This is the single access point every query goes through,
    /// whatever file the store was read from.
    #[inline]
    pub fn row(&self, v: NodeId) -> Row<'_> {
        let r = self.entry_range(v);
        Row {
            k: self.k as usize,
            nodes: &self.nodes()[r.clone()],
            dists: &self.dists()[r.clone()],
            weights: &self.weights()[r],
            rank_of: self.rank_of(),
        }
    }

    /// The header version this store was read from: `1` for a fresh
    /// build or a v1 file, `2` for a v2 file. The in-memory layout
    /// does not depend on it.
    pub fn format_version(&self) -> u32 {
        self.version
    }

    /// True when the store's columns view a memory-mapped file instead
    /// of owned heap memory (see [`LoadOptions::map`]).
    pub fn is_mapped(&self) -> bool {
        self.region.is_some()
    }

    /// The sketch parameter k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Number of nodes covered.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets().len() - 1
    }

    /// Total number of stored entries.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.nodes().len()
    }

    /// Number of entries stored before node `v`'s range (the CSR prefix
    /// offset). `v` may equal [`FrozenAdsSet::num_nodes`], giving the
    /// total entry count. Offsets are validated monotone on load, so
    /// "rows `lo..hi` hold every entry" collapses to
    /// `entry_offset(lo) == 0 && entry_offset(hi) == num_entries()` —
    /// the O(1) check sharded-store loaders use.
    #[inline]
    pub fn entry_offset(&self, v: usize) -> usize {
        self.offsets()[v] as usize
    }

    #[inline]
    fn entry_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let offsets = self.offsets();
        offsets[v as usize] as usize..offsets[v as usize + 1] as usize
    }

    /// Resident *heap* memory of the store in bytes (struct + owned
    /// columns). Mapped columns count as zero: their pages are
    /// file-backed, shared with every other process mapping the same
    /// store, and reclaimable by the kernel at any time.
    pub fn resident_bytes(&self) -> usize {
        fn owned<T>(col: &Col<T>) -> usize {
            match col {
                Col::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
                Col::Mapped { .. } => 0,
            }
        }
        std::mem::size_of::<Self>()
            + owned(&self.offsets)
            + owned(&self.nodes)
            + owned(&self.dists)
            + owned(&self.weights)
            + owned(&self.rank_of)
    }

    /// Exact length of [`FrozenAdsSet::to_bytes`]'s (always version-1)
    /// output in bytes. v2 output lengths depend on the data; measure
    /// [`FrozenAdsSet::to_bytes_format`]'s result instead.
    pub fn serialized_len(&self) -> usize {
        HEADER_LEN + self.offsets().len() * 4 + self.num_nodes() * 8 + self.num_entries() * 20
    }

    /// Serializes to the version-1 on-disk format (one contiguous
    /// little-endian buffer; see the module docs for the layout). Always
    /// v1 whatever file the store was read from — the compatibility
    /// baseline; use [`FrozenAdsSet::to_bytes_format`] to opt into v2.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = std::io::Cursor::new(Vec::with_capacity(self.serialized_len()));
        write_v1(self.k, self.columns(), &mut w).expect("Vec<u8> writes are infallible");
        let buf = w.into_inner();
        debug_assert_eq!(buf.len(), self.serialized_len());
        buf
    }

    /// Serializes to the requested [`StoreFormat`]. Both outputs decode
    /// to stores that compare equal to `self` (bitwise on every float),
    /// so the choice only trades bytes against encode time.
    pub fn to_bytes_format(&self, format: StoreFormat) -> Vec<u8> {
        match format {
            StoreFormat::V1 => self.to_bytes(),
            StoreFormat::V2 => v2::encode(self.k, self.columns(), 0),
        }
    }

    /// Parses one complete store image: the single parser behind
    /// [`FrozenAdsSet::from_bytes`] and every [`FrozenAdsSet::load_with`]
    /// level. It runs the header checks, then hands a v2 image to its
    /// decoder. For v1 it checks the exact length (truncation, trailing
    /// bytes), the checksum under `verify`, and the offset invariants and
    /// node-id range, or under `verify` the full structural scan. Only the backing of a v1
    /// store's columns depends on `image`: views of a mapping, or owned
    /// vectors decoded out of borrowed bytes.
    ///
    /// Also returns the checksum the header records (verified against
    /// every other byte iff `verify`).
    fn from_image(image: Image<'_>, verify: bool) -> Result<(Self, u64), FrozenError> {
        let (buf, region) = match &image {
            Image::Bytes(buf) => (*buf, None),
            Image::Mapped(region) => (region.bytes(), Some(region)),
        };
        if buf.len() < HEADER_LEN {
            return Err(FrozenError::Truncated {
                expected: HEADER_LEN as u64,
                actual: buf.len() as u64,
            });
        }
        let header: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("length checked");
        let parsed = parse_store_header(&header)?;
        if parsed.version == FROZEN_FORMAT_VERSION_V2 {
            let store = Self::from_v2_image(buf, &parsed, verify)?;
            return Ok((store, parsed.stored_checksum));
        }
        if (buf.len() as u128) < parsed.expected_len {
            return Err(FrozenError::Truncated {
                expected: parsed.expected_len as u64,
                actual: buf.len() as u64,
            });
        }
        if buf.len() as u128 > parsed.expected_len {
            return Err(FrozenError::Corrupt(format!(
                "{} trailing bytes after the payload",
                buf.len() as u128 - parsed.expected_len
            )));
        }
        if verify {
            verify_image(buf, parsed.stored_checksum)?;
        }

        // The five columns back to back, widest elements first.
        let (n, entries) = (parsed.n as usize, parsed.entries as usize);
        let mut at = HEADER_LEN;
        let mut next = |bytes: usize| {
            at += bytes;
            at - bytes..at
        };
        let (dists, weights, rank_of) = (next(entries * 8), next(entries * 8), next(n * 8));
        let (offsets, nodes) = (next((n + 1) * 4), next(entries * 4));
        let store = Self {
            k: parsed.k,
            version: FROZEN_FORMAT_VERSION,
            offsets: Col::from_image(buf, region, offsets),
            nodes: Col::from_image(buf, region, nodes),
            dists: Col::from_image(buf, region, dists),
            weights: Col::from_image(buf, region, weights),
            rank_of: Col::from_image(buf, region, rank_of),
            region: match image {
                Image::Bytes(_) => None,
                Image::Mapped(region) => Some(region),
            },
        };
        if verify {
            store.validate_structure()?;
        } else {
            validate_offsets(store.offsets(), store.num_entries())?;
            validate_node_ids(store.nodes(), n)?;
        }
        Ok((store, parsed.stored_checksum))
    }
    /// Builds a store from a complete v2 image (`parsed` is its header):
    /// the one end of every v2 load path.
    fn from_v2_image(
        image: &[u8],
        parsed: &ParsedHeader,
        verify: bool,
    ) -> Result<Self, FrozenError> {
        let cols = v2::decode(image, parsed, verify, 0)?;
        Ok(Self {
            version: FROZEN_FORMAT_VERSION_V2,
            ..Self::from_owned_cols(
                parsed.k,
                cols.offsets,
                cols.nodes,
                cols.dists,
                cols.weights,
                cols.rank_of,
            )
        })
    }

    /// Deserializes a buffer produced by [`FrozenAdsSet::to_bytes`] or
    /// [`FrozenAdsSet::to_bytes_format`], validating magic, version,
    /// length, checksum, and the structural payload invariants, and
    /// rejecting trailing bytes. Lossless: the result compares equal to
    /// the store that was serialized.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, FrozenError> {
        Ok(Self::from_image(Image::Bytes(buf), true)?.0)
    }

    /// Structural invariants the CSR columns must satisfy for every query
    /// to be well-defined: monotone offsets spanning exactly the entry
    /// columns, in-range node ids, canonical per-node entry order.
    fn validate_structure(&self) -> Result<(), FrozenError> {
        validate_offsets(self.offsets(), self.num_entries())?;
        let n = self.num_nodes();
        validate_node_ids(self.nodes(), n)?;
        let (nodes, dists) = (self.nodes(), self.dists());
        for v in 0..n {
            let r = self.entry_range(v as NodeId);
            check_row_order(v, &dists[r.clone()], &nodes[r])?;
        }
        Ok(())
    }

    /// Streams the store to a file in the version-1 format (no
    /// intermediate whole-file buffer).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_file(self.k, self.columns(), path.as_ref(), StoreFormat::V1).map(drop)
    }

    /// Reads a store file whole and parses it like
    /// [`FrozenAdsSet::from_bytes`]. Equivalent to
    /// [`FrozenAdsSet::load_with`] with [`LoadOptions::default`]: fully
    /// verified, owned (copying) columns.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, FrozenError> {
        Self::load_with(path, LoadOptions::default())
    }

    /// Loads a store with explicit [`LoadOptions`]: optionally mapping
    /// the file (zero-copy, kernel-page-cache-shared columns for a v1
    /// store) and optionally skipping checksum + full structural
    /// verification for warm restarts of already-trusted files. Mapped
    /// or read whole, the image goes through the one parser
    /// [`FrozenAdsSet::from_bytes`] uses.
    ///
    /// All of [`FrozenAdsSet::load`]'s rejections apply whenever
    /// `opts.verify` is on, regardless of backing; with `verify` off,
    /// header sanity, exact file length, the offset-table invariants and
    /// the node-id range are still enforced (queries can never slice or
    /// index out of bounds), but bit rot in the entry columns goes
    /// undetected by design.
    pub fn load_with(path: impl AsRef<Path>, opts: LoadOptions) -> Result<Self, FrozenError> {
        Ok(Self::load_with_digest(path, opts)?.0)
    }

    /// [`FrozenAdsSet::load_with`], additionally returning the file's
    /// header checksum — which covers every other byte of the file — when
    /// `opts.verify` is on and the file was just verified against it
    /// (`None` otherwise). Sharded-store loaders compare it with the
    /// value the manifest pins for the shard, so one walk both verifies
    /// the file and identifies it.
    pub fn load_with_digest(
        path: impl AsRef<Path>,
        opts: LoadOptions,
    ) -> Result<(Self, Option<u64>), FrozenError> {
        let path = path.as_ref();
        let region = if opts.map {
            mmap::map_readonly(&std::fs::File::open(path)?)?
        } else {
            None
        };
        let (store, checksum) = match region {
            Some(region) => Self::from_image(Image::Mapped(region), opts.verify)?,
            // Read whole: no mmap requested, unsupported platform, an
            // empty file, or the map syscall declined.
            None => Self::from_image(Image::Bytes(&std::fs::read(path)?), opts.verify)?,
        };
        Ok((store, opts.verify.then_some(checksum)))
    }
}

impl AdsView for FrozenAdsSet {
    #[inline]
    fn k(&self) -> usize {
        self.k as usize
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        FrozenAdsSet::num_nodes(self)
    }

    #[inline]
    fn row(&self, v: NodeId) -> Row<'_> {
        FrozenAdsSet::row(self, v)
    }
}

/// Magic bytes identifying a serialized shard manifest.
pub const SHARD_MAGIC: [u8; 8] = *b"ADSKSHD1";
/// The shard-manifest format version this build writes and reads.
pub const SHARD_FORMAT_VERSION: u32 = 2;
/// The manifest's file name inside a sharded-store directory.
pub const SHARD_MANIFEST_FILE: &str = "manifest.adsm";

const MANIFEST_HEADER_LEN: usize = 44;
const SHARD_RECORD_LEN: usize = 32;

/// The file name of shard `i` inside a sharded-store directory.
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:05}.ads")
}

/// One shard's row in the manifest's node-range table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// First node id the shard covers (inclusive).
    pub start: u64,
    /// One past the last node id the shard covers (exclusive).
    pub end: u64,
    /// Number of ADS entries stored in the shard.
    pub entries: u64,
    /// The checksum in the shard file's own header, **as written**. It
    /// covers every other byte of the file, so it pins the exact bytes,
    /// including the store-format version. A shard file re-encoded in a
    /// different format (say, the v2 encoding of a shard the manifest
    /// recorded as v1) carries a different checksum and is rejected by
    /// digest-checking loaders, even though both encodings decode to
    /// identical entries.
    pub digest: u64,
}

/// The checksummed manifest of a sharded frozen store: global parameters
/// plus the contiguous node-range table (see the module docs for the
/// on-disk layout). Written by [`freeze_sharded`] /
/// [`freeze_sharded_format`]; consumed by the `adsketch-serve` loader.
///
/// # Store-format versions a manifest may reference
///
/// The manifest carries no per-shard format field: shard files are
/// self-describing (their own headers carry the version), and loaders
/// accept any version the [`FrozenAdsSet`] readers accept — v1 and v2
/// shards, even mixed within one directory. What binds a manifest to
/// specific formats is the digest column: each [`ShardRecord::digest`]
/// is the checksum of one concrete byte image, so swapping a referenced
/// shard file for its re-encoding in another version (without
/// re-freezing) is detected and rejected exactly like any other
/// byte-level mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    k: u32,
    n: u64,
    entries: u64,
    records: Vec<ShardRecord>,
}

impl ShardManifest {
    /// The sketch parameter k all shards were frozen with.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Number of nodes the sharded store covers.
    pub fn num_nodes(&self) -> usize {
        self.n as usize
    }

    /// Total number of entries across all shards.
    pub fn total_entries(&self) -> u64 {
        self.entries
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.records.len()
    }

    /// The node-range table, in shard order.
    pub fn records(&self) -> &[ShardRecord] {
        &self.records
    }

    /// The shard owning node `v` — the unique shard whose `start..end`
    /// range contains it. Callers must pass `v < num_nodes`. This is the
    /// routing primitive shared by every consumer of the manifest: the
    /// serving tier's all-shards store, per-shard backend processes, and
    /// the scatter/gather router all partition by this exact function, so
    /// a node can never be claimed by two tiers at once.
    #[inline]
    pub fn shard_of(&self, v: u64) -> usize {
        debug_assert!(v < self.n);
        // Last shard whose range start is ≤ v. Empty shards share their
        // start with the following shard and sort before it, so the
        // search lands on the owning (populated-range) shard.
        self.records.partition_point(|r| r.start <= v) - 1
    }

    /// Serializes the manifest (header + records, checksum patched in).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(MANIFEST_HEADER_LEN + self.records.len() * SHARD_RECORD_LEN);
        buf.extend_from_slice(&SHARD_MAGIC);
        buf.extend_from_slice(&SHARD_FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.k.to_le_bytes());
        buf.extend_from_slice(&self.n.to_le_bytes());
        buf.extend_from_slice(&self.entries.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]); // checksum, patched below
        buf.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for r in &self.records {
            buf.extend_from_slice(&r.start.to_le_bytes());
            buf.extend_from_slice(&r.end.to_le_bytes());
            buf.extend_from_slice(&r.entries.to_le_bytes());
            buf.extend_from_slice(&r.digest.to_le_bytes());
        }
        let checksum = buffer_checksum(&buf);
        buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Deserializes and validates a manifest: magic, version, length,
    /// checksum, and the structural invariants of the shard table
    /// (contiguous non-overlapping coverage of exactly `0..n`, entry
    /// counts summing to the recorded total).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, FrozenError> {
        if buf.len() < MANIFEST_HEADER_LEN {
            return Err(FrozenError::Truncated {
                expected: MANIFEST_HEADER_LEN as u64,
                actual: buf.len() as u64,
            });
        }
        if buf[..8] != SHARD_MAGIC {
            return Err(FrozenError::BadMagic);
        }
        let version = read_u32(buf, 8);
        if version != SHARD_FORMAT_VERSION {
            return Err(FrozenError::UnsupportedVersion(version));
        }
        let k = read_u32(buf, 12);
        let n = read_u64(buf, 16);
        let entries = read_u64(buf, 24);
        let stored_checksum = read_u64(buf, CHECKSUM_OFFSET);
        let shard_count = read_u32(buf, 40);
        let expected = MANIFEST_HEADER_LEN as u128 + shard_count as u128 * SHARD_RECORD_LEN as u128;
        if (buf.len() as u128) < expected {
            return Err(FrozenError::Truncated {
                expected: expected as u64,
                actual: buf.len() as u64,
            });
        }
        if buf.len() as u128 != expected {
            return Err(FrozenError::Corrupt(format!(
                "{} trailing bytes after the shard table",
                buf.len() as u128 - expected
            )));
        }
        verify_image(buf, stored_checksum)?;
        let mut records = Vec::with_capacity(shard_count as usize);
        let mut at = MANIFEST_HEADER_LEN;
        for _ in 0..shard_count {
            records.push(ShardRecord {
                start: read_u64(buf, at),
                end: read_u64(buf, at + 8),
                entries: read_u64(buf, at + 16),
                digest: read_u64(buf, at + 24),
            });
            at += SHARD_RECORD_LEN;
        }
        let manifest = Self {
            k,
            n,
            entries,
            records,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// The structural invariants every loadable manifest satisfies.
    fn validate(&self) -> Result<(), FrozenError> {
        if self.k == 0 {
            return Err(FrozenError::Corrupt("k must be ≥ 1".into()));
        }
        if self.n > u32::MAX as u64 {
            return Err(FrozenError::Corrupt(format!(
                "node count exceeds the u32 CSR limit (n = {})",
                self.n
            )));
        }
        if self.records.is_empty() {
            return Err(FrozenError::Corrupt("manifest lists no shards".into()));
        }
        let mut cursor = 0u64;
        for (i, r) in self.records.iter().enumerate() {
            if r.start != cursor {
                return Err(FrozenError::Corrupt(format!(
                    "shard {i}: range {}..{} does not continue at node {cursor} \
                     (overlapping or gapped shard table)",
                    r.start, r.end
                )));
            }
            if r.end < r.start {
                return Err(FrozenError::Corrupt(format!(
                    "shard {i}: inverted range {}..{}",
                    r.start, r.end
                )));
            }
            cursor = r.end;
        }
        if cursor != self.n {
            return Err(FrozenError::Corrupt(format!(
                "shard table covers 0..{cursor} but the store has {} nodes",
                self.n
            )));
        }
        // Checked: the counts are untrusted, and the checksum is no MAC.
        let sum = self
            .records
            .iter()
            .try_fold(0u64, |sum, r| sum.checked_add(r.entries))
            .ok_or_else(|| FrozenError::Corrupt("shard entry counts overflow u64".into()))?;
        if sum != self.entries {
            return Err(FrozenError::Corrupt(format!(
                "shard entry counts sum to {sum}, manifest records {}",
                self.entries
            )));
        }
        Ok(())
    }

    /// Writes the manifest to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads and validates a manifest written by [`ShardManifest::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, FrozenError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// Contiguous node-range cut points for `shards` shards, balanced by
/// entry count (each node weighted by `entries + 1` so empty sketches
/// still spread). Returns `shards + 1` monotone cut points from `0` to
/// `n`; trailing shards may be empty when `shards > n`.
fn shard_cuts(ads: &FrozenAdsSet, shards: usize) -> Vec<usize> {
    let n = ads.num_nodes();
    // Entries plus rows before node `v`.
    let weight = |v: usize| ads.entry_offset(v) as u64 + v as u64;
    let total = weight(n);
    let mut cuts = Vec::with_capacity(shards + 1);
    cuts.push(0);
    let mut v = 0usize;
    for i in 0..shards {
        let target = total * (i as u64 + 1) / shards as u64;
        while v < n && weight(v) < target {
            v += 1;
        }
        if i + 1 == shards {
            v = n;
        }
        cuts.push(v);
    }
    cuts
}

/// Partitions `ads` into `shards` contiguous node ranges and writes one
/// full-width version-1 store per shard plus the checksummed
/// [`ShardManifest`] into `dir` (created if missing). Every shard file is
/// independently loadable by [`FrozenAdsSet::load`]; serving loaders
/// route node `v` to the shard whose manifest range contains it, and
/// answers are bitwise identical to the unsharded store (the per-node
/// entries are byte-for-byte the same). Equivalent to
/// [`freeze_sharded_format`] with [`StoreFormat::V1`].
///
/// # Panics
///
/// If `shards` is 0.
pub fn freeze_sharded(
    ads: &FrozenAdsSet,
    shards: usize,
    dir: impl AsRef<Path>,
) -> Result<ShardManifest, FrozenError> {
    freeze_sharded_format(ads, shards, dir, StoreFormat::V1)
}

/// [`freeze_sharded`] with an explicit per-shard [`StoreFormat`].
///
/// Shard `i` covers all `n` rows, so it is a valid store with the usual
/// in-range node-id invariant, but only its rows `lo..hi` hold entries:
/// its offsets are rebased to that range and its entry columns are the
/// range's slices of `ads`, written without a copy. Every shard carries
/// the whole rank table, since its rows may sample any node.
///
/// Every shard of one freeze is written in the same format, and the
/// manifest's per-shard digests are the header checksums of the bytes
/// actually written — so a manifest pins each shard file's exact bytes *and
/// therefore its format version*. Replacing a shard file with a
/// re-encoding of the same data in the other format fails the serving
/// loader's digest check by construction (see [`ShardRecord::digest`]);
/// mixing formats requires re-freezing, never file swapping.
///
/// # Panics
///
/// If `shards` is 0.
pub fn freeze_sharded_format(
    ads: &FrozenAdsSet,
    shards: usize,
    dir: impl AsRef<Path>,
    format: StoreFormat,
) -> Result<ShardManifest, FrozenError> {
    assert!(shards >= 1, "shard count must be ≥ 1");
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let cuts = shard_cuts(ads, shards);
    let all = ads.columns();
    let mut records = Vec::with_capacity(shards);
    for i in 0..shards {
        let (lo, hi) = (cuts[i], cuts[i + 1]);
        let (start, end) = (all.offsets[lo], all.offsets[hi]);
        let offsets: Vec<u32> = all
            .offsets
            .iter()
            .map(|&o| o.clamp(start, end) - start)
            .collect();
        let span = start as usize..end as usize;
        let rows = v2::RowsSource {
            offsets: &offsets,
            nodes: &all.nodes[span.clone()],
            dists: &all.dists[span.clone()],
            weights: &all.weights[span.clone()],
            rank_of: all.rank_of,
        };
        let digest = write_file(ads.k, rows, &dir.join(shard_file_name(i)), format)?;
        records.push(ShardRecord {
            start: lo as u64,
            end: hi as u64,
            entries: span.len() as u64,
            digest,
        });
    }
    let manifest = ShardManifest {
        k: ads.k,
        n: ads.num_nodes() as u64,
        entries: ads.num_entries() as u64,
        records,
    };
    manifest.save(dir.join(SHARD_MANIFEST_FILE))?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::BottomKAds;
    use crate::AdsSet;
    use adsketch_graph::generators;

    fn sample_set() -> AdsSet {
        let g = generators::gnp_directed(90, 0.05, 7);
        AdsSet::build(&g, 4, 3)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn freeze_is_an_owned_copy() {
        let path = std::env::temp_dir().join("adsketch_frozen_freeze_copy.ads");
        sample_set().save(&path).unwrap();
        let mapped = FrozenAdsSet::load_with(&path, LoadOptions::mapped()).unwrap();
        std::fs::remove_file(&path).ok();
        let copy = mapped.freeze();
        assert_eq!(copy, mapped);
        assert!(!copy.is_mapped());
    }

    #[test]
    fn frozen_hip_matches_heap_bitwise() {
        let frozen = sample_set();
        for v in 0..frozen.num_nodes() as NodeId {
            // The heap reference over the same row.
            let hip = crate::reference::hip_weights(frozen.k(), frozen.row(v).entries());
            assert_eq!(frozen.hip(v), hip.row());
            assert_eq!(bits(frozen.hip(v).weights), bits(hip.row().weights));
            for d in [0.0, 1.0, 2.0, 5.0, f64::INFINITY] {
                assert_eq!(
                    frozen.hip(v).cardinality_at(d).to_bits(),
                    hip.row().cardinality_at(d).to_bits()
                );
            }
        }
    }

    #[test]
    fn bytes_roundtrip_is_lossless() {
        let frozen = sample_set();
        let restored = FrozenAdsSet::from_bytes(&frozen.to_bytes()).unwrap();
        assert_eq!(restored, frozen);
    }

    #[test]
    fn serialized_len_is_exact() {
        let frozen = sample_set();
        assert_eq!(frozen.to_bytes().len(), frozen.serialized_len());
        // The streaming writer returns the checksum it patched in.
        let mut w = std::io::Cursor::new(Vec::new());
        let checksum = write_v1(frozen.k, frozen.columns(), &mut w).unwrap();
        let buf = w.into_inner();
        assert_eq!(buf, frozen.to_bytes());
        assert_eq!(checksum, read_u64(&buf, CHECKSUM_OFFSET));
    }

    #[test]
    fn empty_set_roundtrips() {
        let frozen = crate::reference::from_sketches(2, vec![]);
        assert_eq!(frozen.num_nodes(), 0);
        let restored = FrozenAdsSet::from_bytes(&frozen.to_bytes()).unwrap();
        assert_eq!(restored, frozen);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = sample_set().to_bytes();
        buf[0] ^= 0xff;
        assert!(matches!(
            FrozenAdsSet::from_bytes(&buf),
            Err(FrozenError::BadMagic)
        ));
    }

    #[test]
    fn rejects_unknown_version() {
        let mut buf = sample_set().to_bytes();
        buf[8] = 99;
        assert!(matches!(
            FrozenAdsSet::from_bytes(&buf),
            Err(FrozenError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let buf = sample_set().to_bytes();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 3, buf.len() - 1] {
            assert!(
                FrozenAdsSet::from_bytes(&buf[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = sample_set().to_bytes();
        buf.push(0);
        assert!(matches!(
            FrozenAdsSet::from_bytes(&buf),
            Err(FrozenError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_payload_bit_flip_via_checksum() {
        let mut buf = sample_set().to_bytes();
        let mid = HEADER_LEN + (buf.len() - HEADER_LEN) / 2;
        buf[mid] ^= 0x01;
        assert!(matches!(
            FrozenAdsSet::from_bytes(&buf),
            Err(FrozenError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_header_field_tamper_via_checksum() {
        // Flipping k alone (checksummed header field) must not produce a
        // silently different store.
        let mut buf = sample_set().to_bytes();
        buf[12] ^= 0x01;
        assert!(FrozenAdsSet::from_bytes(&buf).is_err());
    }

    #[test]
    fn freeze_sharded_writes_loadable_shards() {
        let ads = sample_set();
        let dir = std::env::temp_dir().join("adsketch_core_freeze_sharded");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = freeze_sharded(&ads, 3, &dir).unwrap();
        assert_eq!(manifest.num_shards(), 3);
        assert_eq!(manifest.num_nodes(), ads.num_nodes());
        assert_eq!(manifest.total_entries(), ads.num_entries() as u64);
        for (i, rec) in manifest.records().iter().enumerate() {
            // Every shard is an independently loadable, full-width v1 store…
            let shard = FrozenAdsSet::load(dir.join(shard_file_name(i))).unwrap();
            assert_eq!(shard.k(), ads.k());
            assert_eq!(shard.num_nodes(), ads.num_nodes());
            assert_eq!(shard.num_entries() as u64, rec.entries);
            // …whose in-range rows equal the unsharded store's rows
            // (entries and precomputed HIP weights alike)…
            for v in rec.start as NodeId..rec.end as NodeId {
                assert_eq!(shard.row(v), ads.row(v));
            }
            // …and whose out-of-range rows are empty.
            for v in 0..ads.num_nodes() as NodeId {
                if (v as u64) < rec.start || (v as u64) >= rec.end {
                    assert!(shard.row(v).is_empty(), "shard {i}, node {v}");
                }
            }
        }
        let reloaded = ShardManifest::load(dir.join(SHARD_MANIFEST_FILE)).unwrap();
        assert_eq!(reloaded, manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A shard file is written from slices of the store's columns and the
    /// whole rank table. Its bytes must equal the image of a store built
    /// from the same rows, with every other row empty, over the same
    /// table, in both formats.
    #[test]
    fn shard_files_equal_the_images_of_their_row_range_stores() {
        let ads = sample_set();
        for format in [StoreFormat::V1, StoreFormat::V2] {
            let dir = std::env::temp_dir().join(format!("adsketch_frozen_slices_{format:?}"));
            std::fs::remove_dir_all(&dir).ok();
            let manifest = freeze_sharded_format(&ads, 3, &dir, format).unwrap();
            for (i, rec) in manifest.records().iter().enumerate() {
                let rows = (0..ads.num_nodes() as NodeId)
                    .map(|v| {
                        let kept = (rec.start..rec.end).contains(&(v as u64));
                        let entries = ads.row(v).entries().filter(|_| kept).collect();
                        BottomKAds::from_entries(ads.k(), entries)
                    })
                    .collect();
                let rows = crate::reference::from_sketches(ads.k(), rows);
                let range_store = FrozenAdsSet::from_columns(
                    ads.k(),
                    rows.offsets().to_vec(),
                    rows.nodes().to_vec(),
                    rows.dists().to_vec(),
                    ads.rank_of().to_vec(),
                );
                let written = std::fs::read(dir.join(shard_file_name(i))).unwrap();
                assert_eq!(
                    written,
                    range_store.to_bytes_format(format),
                    "{format:?} shard {i}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn shard_cuts_cover_everything_for_any_shard_count() {
        let ads = sample_set();
        for shards in [1, 2, 3, 7, 200] {
            let cuts = shard_cuts(&ads, shards);
            assert_eq!(cuts.len(), shards + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(*cuts.last().unwrap(), ads.num_nodes());
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn manifest_roundtrips_and_rejects_overlap() {
        let rec = |start, end, entries| ShardRecord {
            start,
            end,
            entries,
            digest: 0x1234,
        };
        let good = ShardManifest {
            k: 4,
            n: 10,
            entries: 30,
            records: vec![rec(0, 6, 20), rec(6, 10, 10)],
        };
        let restored = ShardManifest::from_bytes(&good.to_bytes()).unwrap();
        assert_eq!(restored, good);
        // Overlap (or a gap) in the range table must be rejected even
        // with a valid checksum.
        for records in [
            vec![rec(0, 7, 20), rec(6, 10, 10)], // overlap
            vec![rec(0, 5, 20), rec(6, 10, 10)], // gap
            vec![rec(0, 6, 20), rec(6, 9, 10)],  // short coverage
            vec![rec(0, 6, 20), rec(6, 10, 11)], // entry sum mismatch
        ] {
            let bad = ShardManifest {
                records,
                ..good.clone()
            };
            assert!(matches!(
                ShardManifest::from_bytes(&bad.to_bytes()),
                Err(FrozenError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn manifest_shard_of_routes_every_node_once() {
        let rec = |start, end, entries| ShardRecord {
            start,
            end,
            entries,
            digest: 0,
        };
        // Shard 1 is empty (5..5): it shares its start with shard 2 and
        // must never claim a node.
        let manifest = ShardManifest {
            k: 2,
            n: 10,
            entries: 12,
            records: vec![rec(0, 5, 6), rec(5, 5, 0), rec(5, 8, 4), rec(8, 10, 2)],
        };
        for v in 0..10u64 {
            let s = manifest.shard_of(v);
            let r = manifest.records()[s];
            assert!(r.start <= v && v < r.end, "node {v} routed to shard {s}");
        }
        assert_eq!(manifest.shard_of(5), 2);
    }

    #[test]
    fn manifest_rejects_bad_magic_truncation_and_bit_flips() {
        let manifest = ShardManifest {
            k: 2,
            n: 5,
            entries: 9,
            records: vec![ShardRecord {
                start: 0,
                end: 5,
                entries: 9,
                digest: 7,
            }],
        };
        let bytes = manifest.to_bytes();
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ShardManifest::from_bytes(&bad),
            Err(FrozenError::BadMagic)
        ));
        for cut in [0, 7, MANIFEST_HEADER_LEN - 1, bytes.len() - 1] {
            assert!(ShardManifest::from_bytes(&bytes[..cut]).is_err());
        }
        for at in [12, 20, 40, bytes.len() - 3] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x04;
            assert!(
                ShardManifest::from_bytes(&flipped).is_err(),
                "bit flip at byte {at} must be rejected"
            );
        }
    }

    /// Writes `frozen` to a unique temp file and returns the path.
    fn save_temp(frozen: &FrozenAdsSet, tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("adsketch_frozen_{tag}.ads"));
        frozen.save(&path).unwrap();
        path
    }

    #[test]
    fn mapped_load_is_bitwise_identical() {
        let frozen = sample_set();
        let path = save_temp(&frozen, "mapped_roundtrip");
        for opts in [LoadOptions::mapped(), LoadOptions::trusted()] {
            let loaded = FrozenAdsSet::load_with(&path, opts).unwrap();
            // On little-endian 64-bit Linux the columns must actually be
            // zero-copy.
            if cfg!(all(
                target_os = "linux",
                target_pointer_width = "64",
                target_endian = "little"
            )) {
                assert!(loaded.is_mapped(), "expected a mapped store under {opts:?}");
            }
            assert_eq!(loaded, frozen);
            // Clones of a mapped store own their columns.
            let clone = loaded.clone();
            assert!(!clone.is_mapped());
            assert_eq!(clone, frozen);
            // Serialization is backing-agnostic.
            assert_eq!(loaded.to_bytes(), frozen.to_bytes());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_rejects_corruption_like_buffered() {
        let frozen = sample_set();
        let good = frozen.to_bytes();
        let path = std::env::temp_dir().join("adsketch_frozen_mapped_corrupt.ads");
        let check = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let mapped = FrozenAdsSet::load_with(&path, LoadOptions::mapped());
            let buffered = FrozenAdsSet::load(&path);
            assert!(mapped.is_err(), "mapped load must reject {what}");
            assert!(buffered.is_err(), "buffered load must reject {what}");
        };
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        check(&bad, "bad magic");
        let mut bad = good.clone();
        bad[HEADER_LEN + (good.len() - HEADER_LEN) / 2] ^= 0x01;
        check(&bad, "payload bit flip");
        check(&good[..good.len() - 1], "truncation");
        let mut bad = good.clone();
        bad.push(0);
        check(&bad, "trailing bytes");
        // The trusted loader still rejects length/offset-table damage
        // (only checksum + canonical-order checks are waived).
        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(FrozenAdsSet::load_with(&path, LoadOptions::trusted()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_with_digest_returns_the_pinned_header_checksum() {
        // One value identifies a shard file three ways: the 8 bytes at
        // header offset 32, the manifest record, and what a verified
        // load hands back — for either format, mapped or buffered.
        let ads = sample_set();
        for format in [StoreFormat::V1, StoreFormat::V2] {
            let dir = std::env::temp_dir().join(format!("adsketch_frozen_digest_{format:?}"));
            std::fs::remove_dir_all(&dir).ok();
            let manifest = freeze_sharded_format(&ads, 2, &dir, format).unwrap();
            for (i, rec) in manifest.records().iter().enumerate() {
                let path = dir.join(shard_file_name(i));
                let stored = read_u64(&std::fs::read(&path).unwrap(), CHECKSUM_OFFSET);
                assert_eq!(rec.digest, stored, "{format:?} shard {i}: manifest record");
                for opts in [LoadOptions::mapped(), LoadOptions::default()] {
                    let (_, digest) = FrozenAdsSet::load_with_digest(&path, opts).unwrap();
                    assert_eq!(digest, Some(stored), "{format:?} shard {i} under {opts:?}");
                }
                let (_, digest) =
                    FrozenAdsSet::load_with_digest(&path, LoadOptions::trusted()).unwrap();
                assert_eq!(digest, None, "trusted loads verified nothing");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn error_messages_render() {
        let e = FrozenError::Truncated {
            expected: 100,
            actual: 7,
        };
        assert!(e.to_string().contains("100"));
        assert!(FrozenError::BadMagic.to_string().contains("magic"));
    }

    #[test]
    fn v2_roundtrip_is_bitwise_lossless() {
        let frozen = sample_set();
        let v2_bytes = frozen.to_bytes_format(StoreFormat::V2);
        assert!(
            v2_bytes.len() * 2 < frozen.to_bytes().len(),
            "v2 should be at least 2x smaller on a unit-weight graph \
             ({} vs {} bytes)",
            v2_bytes.len(),
            frozen.to_bytes().len()
        );
        let decoded = FrozenAdsSet::from_bytes(&v2_bytes).unwrap();
        assert_eq!(decoded.format_version(), 2);
        assert_eq!(decoded, frozen);
        // v2 → v1 reproduces the original v1 image byte for byte.
        assert_eq!(decoded.to_bytes(), frozen.to_bytes());
        // Re-encoding the decoded store is deterministic.
        assert_eq!(decoded.to_bytes_format(StoreFormat::V2), v2_bytes);
    }

    #[test]
    fn v2_estimates_match_v1_bitwise() {
        let frozen = sample_set();
        let v2 = FrozenAdsSet::from_bytes(&frozen.to_bytes_format(StoreFormat::V2)).unwrap();
        for v in 0..frozen.num_nodes() as NodeId {
            let (a, b) = (frozen.hip(v), v2.hip(v));
            assert_eq!(
                a.reachable_estimate().to_bits(),
                b.reachable_estimate().to_bits()
            );
            assert_eq!(
                a.cardinality_at(2.0).to_bits(),
                b.cardinality_at(2.0).to_bits()
            );
            assert_eq!(frozen.row(v).size_at(1.0), v2.row(v).size_at(1.0));
        }
    }

    #[test]
    fn v2_loaded_store_serves_the_same_column_slices() {
        let frozen = sample_set();
        let v2 = FrozenAdsSet::from_bytes(&frozen.to_bytes_format(StoreFormat::V2)).unwrap();
        for v in 0..frozen.num_nodes() as NodeId {
            let (a, b) = (frozen.row(v), v2.row(v));
            assert_eq!(a.nodes, b.nodes);
            for (x, y) in [
                (a.dists, b.dists),
                (a.weights, b.weights),
                (a.rank_of, b.rank_of),
            ] {
                assert_eq!(bits(x), bits(y));
            }
        }
    }

    #[test]
    fn v2_clone_preserves_everything() {
        let frozen = sample_set();
        let v2 = FrozenAdsSet::from_bytes(&frozen.to_bytes_format(StoreFormat::V2)).unwrap();
        let cloned = v2.clone();
        assert_eq!(
            cloned.format_version(),
            2,
            "clones keep the header version they were read from"
        );
        assert_eq!(cloned.resident_bytes(), frozen.resident_bytes());
        assert_eq!(cloned, frozen);
    }

    #[test]
    fn v2_mapped_and_buffered_loads_are_identical() {
        let frozen = sample_set();
        let path = std::env::temp_dir().join("adsketch_frozen_v2_mapped.ads");
        std::fs::write(&path, frozen.to_bytes_format(StoreFormat::V2)).unwrap();
        for opts in [
            LoadOptions::default(),
            LoadOptions::mapped(),
            LoadOptions::trusted(),
        ] {
            let loaded = FrozenAdsSet::load_with(&path, opts).unwrap();
            assert_eq!(loaded.format_version(), 2, "under {opts:?}");
            assert_eq!(loaded, frozen, "under {opts:?}");
            assert_eq!(loaded.to_bytes(), frozen.to_bytes(), "under {opts:?}");
            // Every v2 load decodes into the owned full-width columns a
            // freeze produces: nothing stays mapped, nothing is smaller.
            assert!(!loaded.is_mapped(), "under {opts:?}");
            assert_eq!(
                loaded.resident_bytes(),
                frozen.resident_bytes(),
                "under {opts:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_rejects_corruption_like_v1() {
        let frozen = sample_set();
        let good = frozen.to_bytes_format(StoreFormat::V2);
        // Truncation mid-body.
        assert!(FrozenAdsSet::from_bytes(&good[..good.len() / 2]).is_err());
        // Bit flip in the blob → checksum mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            FrozenAdsSet::from_bytes(&bad),
            Err(FrozenError::ChecksumMismatch { .. })
        ));
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(FrozenAdsSet::from_bytes(&long).is_err());
        // Unknown future version is still rejected with the typed error.
        let mut vnext = good;
        vnext[8] = 3;
        assert!(matches!(
            FrozenAdsSet::from_bytes(&vnext),
            Err(FrozenError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn v2_sharded_freeze_is_loadable_and_digest_pinned() {
        let dir = std::env::temp_dir().join("adsketch_frozen_v2_shards");
        std::fs::remove_dir_all(&dir).ok();
        let whole = sample_set();
        let manifest = freeze_sharded_format(&whole, 3, &dir, StoreFormat::V2).unwrap();
        for (i, rec) in manifest.records().iter().enumerate() {
            let path = dir.join(shard_file_name(i));
            let (shard, digest) =
                FrozenAdsSet::load_with_digest(&path, LoadOptions::default()).unwrap();
            assert_eq!(shard.format_version(), 2);
            assert_eq!(digest, Some(rec.digest), "digests cover the v2 bytes");
            for v in rec.start..rec.end {
                let v = v as NodeId;
                assert_eq!(
                    whole.hip(v).reachable_estimate().to_bits(),
                    shard.hip(v).reachable_estimate().to_bits()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
