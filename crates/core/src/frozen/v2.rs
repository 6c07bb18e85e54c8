//! The compressed (version 2) frozen-store representation.
//!
//! Version 1 stores every entry full-width (28 B: u32 node, f64 dist,
//! f64 rank, f64 HIP weight). The entries are heavily redundant, and all
//! of the redundancy can be removed *without changing a single stored
//! bit* (the workspace-wide bitwise-identity gate):
//!
//! * **Distances** repeat: a unit-weight graph has a handful of distinct
//!   hop counts, so the distinct `f64` bit patterns go into a sorted
//!   dictionary and each entry stores a small fixed-width code
//!   (u16/u32). The dictionary holds exact bit patterns, so decoding is
//!   exact by construction; if the distinct set is too large for a
//!   dictionary to pay off, the column *escapes* to raw 8-byte bits.
//! * **Ranks** produced by the unweighted sampler are exactly `m·2⁻⁵³`
//!   with `m < 2⁵³` (53 explicit hash bits), so `m` in 7 fixed bytes
//!   reproduces the f64 bit-for-bit. The encoder verifies that property
//!   for every entry and escapes the whole column to raw bits when any
//!   entry fails (e.g. weighted-sampler `−ln(u)/w` ranks).
//! * **HIP weights** are `1/τ` where `τ` is either `1.0` or the rank of
//!   an *earlier entry of the same row* (Lemma 5.1's threshold). Each
//!   weight stores a varint back-reference to that entry (`0` ⇒ weight
//!   exactly `1.0`) and is rebuilt at decode time by the identical
//!   division — verified bit-for-bit per entry at encode time, raw-bits
//!   escape otherwise.
//! * **Node ids** within one distance level are strictly increasing
//!   (canonical `(dist, node)` order), so runs delta+varint-compress;
//!   run boundaries are recovered from the already-decoded distance
//!   codes. Escape: raw 4-byte ids.
//!
//! Whether each column is compressed or escaped is a whole-column
//! decision recorded in four header tag bytes; the encoder chooses by
//! *verifying reconstruction* of every entry, never by value heuristics,
//! so a v1 ↔ v2 round trip is bitwise lossless for any store.
//!
//! # Block layout and the query path
//!
//! Entries are grouped into blocks of [`DEFAULT_ROWS_PER_BLOCK`] rows
//! (the row count is recorded in the header). Each block encodes its
//! entries column-major — four sections `[dists][ranks][weights][nodes]`
//! behind a 16-byte section-length header — so decoding runs four tight
//! homogeneous loops instead of a per-entry interleaved parse. A
//! `(block offset)` table in the store addresses blocks independently:
//! queries decode **lazily, per block, on first touch**, into a
//! per-thread scratch cache ([`SCRATCH_BUDGET_BYTES`]), never
//! materializing the full store. Mapped (`mmap`) v2 stores therefore
//! touch only the pages of the blocks they serve. One exception favours
//! resident servers: a **buffered** store whose whole decoded form fits
//! the scratch budget *thaws* on first touch into a single shared
//! contiguous column set — exactly the full-width (v1) memory layout,
//! served with one atomic load per row access — so batch sweeps run at
//! v1 speed. Mapped stores never thaw; lazy per-block decode is their
//! contract.
//!
//! The full on-disk layout table lives in the [`super`] module docs next
//! to the v1 table.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};

use adsketch_graph::NodeId;

use super::mmap::MapRegion;
use super::varint;
use super::{read_exact_or_truncated, FrozenError, COL_CAPACITY_HINT};

/// Serialized v2 header length: the 40 common bytes plus four column
/// tags and the u32 rows-per-block.
pub(super) const V2_HEADER_LEN: usize = 48;

/// Rows per block the encoder writes (readers honour whatever the
/// header records). 64 rows ≈ a few thousand entries at practical k —
/// large enough to amortize decode setup, small enough that a single
/// cold point query stays microseconds.
pub(super) const DEFAULT_ROWS_PER_BLOCK: u32 = 64;

/// Upper bound accepted for the header's rows-per-block (an untrusted
/// field; a huge value would make single-row queries decode the world).
const MAX_ROWS_PER_BLOCK: u32 = 1 << 20;

/// Per-thread decoded-block scratch budget: 64 MiB. Blocks decoded on
/// first touch are retained up to this many bytes per thread (then the
/// scratch is flushed wholesale), so sweeps re-decode each block at
/// most once per pass and point-query working sets stay resident. Also
/// the size up to which a buffered store thaws whole (module docs).
pub(super) const SCRATCH_BUDGET_BYTES: usize = 64 << 20;

/// `2⁵³` and its exact reciprocal — the unweighted sampler's rank
/// quantum (see `adsketch-util`'s `u64_to_unit_f64`).
const RANK_SCALE: f64 = (1u64 << 53) as f64;
const RANK_INV_SCALE: f64 = 1.0 / RANK_SCALE;

/// How the node-id column is encoded (header byte 40).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum NodeTag {
    /// Varints: absolute id at each distance-run start, `node − prev − 1`
    /// within a run.
    Delta = 0,
    /// Raw little-endian u32 per entry.
    Raw = 1,
}

/// How the distance column is encoded (header byte 41).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DistTag {
    /// u16 codes into the distance dictionary.
    Dict16 = 0,
    /// u32 codes into the distance dictionary.
    Dict32 = 1,
    /// Raw f64 bits per entry (escape: dictionary would not pay off).
    Raw = 2,
}

/// How the rank column is encoded (header byte 42).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RankTag {
    /// 7-byte little-endian `m` with `rank = m·2⁻⁵³` exactly.
    Fixed7 = 0,
    /// Raw f64 bits per entry (escape: some rank is not an `m·2⁻⁵³`).
    Raw = 1,
}

/// How the HIP-weight column is encoded (header byte 43).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum WeightTag {
    /// Varint back-reference: `0` ⇒ weight exactly `1.0`; `c > 0` ⇒
    /// weight rebuilt as `1.0 / rank[i − c]` of the same row.
    TauRef = 0,
    /// Raw f64 bits per entry (escape: some weight is not reproducible).
    Raw = 1,
}

/// The four per-column encoding decisions of one v2 store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Tags {
    pub node: NodeTag,
    pub dist: DistTag,
    pub rank: RankTag,
    pub weight: WeightTag,
}

impl Tags {
    fn to_bytes(self) -> [u8; 4] {
        [
            self.node as u8,
            self.dist as u8,
            self.rank as u8,
            self.weight as u8,
        ]
    }

    fn from_bytes(b: [u8; 4]) -> Result<Self, FrozenError> {
        let node = match b[0] {
            0 => NodeTag::Delta,
            1 => NodeTag::Raw,
            t => return Err(FrozenError::Corrupt(format!("unknown node-column tag {t}"))),
        };
        let dist = match b[1] {
            0 => DistTag::Dict16,
            1 => DistTag::Dict32,
            2 => DistTag::Raw,
            t => return Err(FrozenError::Corrupt(format!("unknown dist-column tag {t}"))),
        };
        let rank = match b[2] {
            0 => RankTag::Fixed7,
            1 => RankTag::Raw,
            t => return Err(FrozenError::Corrupt(format!("unknown rank-column tag {t}"))),
        };
        let weight = match b[3] {
            0 => WeightTag::TauRef,
            1 => WeightTag::Raw,
            t => {
                return Err(FrozenError::Corrupt(format!(
                    "unknown weight-column tag {t}"
                )))
            }
        };
        Ok(Self {
            node,
            dist,
            rank,
            weight,
        })
    }
}

/// The compressed payload backing: owned bytes (buffered loads, encode)
/// or a range of the store's mapped file region.
#[derive(Debug)]
pub(super) enum Blob {
    Owned(Vec<u8>),
    Mapped { off: usize, len: usize },
}

impl Blob {
    #[inline]
    fn bytes<'a>(&'a self, region: Option<&'a MapRegion>) -> &'a [u8] {
        match self {
            Blob::Owned(v) => v,
            Blob::Mapped { off, len } => {
                &region.expect("mapped blob requires a region").bytes()[*off..*off + *len]
            }
        }
    }
}

/// Monotonically increasing id distinguishing live v2 stores in the
/// per-thread scratch cache. Never reused, so a dropped store's stale
/// cached blocks can never alias a new store's.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// The in-memory form of a version-2 store's compressed payload. The
/// enclosing `FrozenAdsSet` keeps the CSR entry-offset column (shared
/// with v1) and the mapped region; everything v2-specific lives here.
#[derive(Debug)]
pub(super) struct V2Repr {
    pub tags: Tags,
    pub rows_per_block: u32,
    /// Sorted distinct distance bit patterns (empty under `DistTag::Raw`).
    pub dict: Vec<f64>,
    /// `num_blocks + 1` blob-relative byte offsets; block `b`'s encoding
    /// is `blob[block_offsets[b]..block_offsets[b+1]]`. Validated
    /// monotone and in-bounds at every load level, so block slicing is
    /// infallible.
    pub block_offsets: Vec<u64>,
    pub blob: Blob,
    store_id: u64,
    /// Whole-store contiguous decode, filled once on first touch when
    /// the store is buffered (not mapped) and its decoded size fits the
    /// scratch budget — the full-width (v1) memory layout, shared by
    /// every thread, served with one atomic load per row access.
    thawed: std::sync::OnceLock<DecodedBlock>,
}

impl V2Repr {
    fn new(
        tags: Tags,
        rows_per_block: u32,
        dict: Vec<f64>,
        block_offsets: Vec<u64>,
        blob: Blob,
    ) -> Self {
        Self {
            tags,
            rows_per_block,
            dict,
            block_offsets,
            blob,
            store_id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            thawed: std::sync::OnceLock::new(),
        }
    }

    /// Deep copy with owned blob bytes (used by `FrozenAdsSet::clone`
    /// to drop any dependence on a mapped region). Gets a fresh store
    /// id: scratch caches are keyed per store instance.
    pub fn to_owned_copy(&self, region: Option<&MapRegion>) -> Self {
        Self::new(
            self.tags,
            self.rows_per_block,
            self.dict.clone(),
            self.block_offsets.clone(),
            Blob::Owned(self.blob.bytes(region).to_vec()),
        )
    }

    /// Actual resident heap bytes of the compressed representation
    /// (mapped blobs count zero — their pages are file-backed). A
    /// thawed whole-store decode counts in full.
    pub fn resident_bytes(&self) -> usize {
        let blob = match &self.blob {
            Blob::Owned(v) => v.capacity(),
            Blob::Mapped { .. } => 0,
        };
        self.dict.capacity() * 8
            + self.block_offsets.capacity() * 8
            + blob
            + self.thawed.get().map_or(0, DecodedBlock::byte_size)
    }

    /// The thawed full-width columns, if this store has thawed. Lets the
    /// dispatch in `frozen.rs` serve thawed rows through the exact same
    /// slicing code as a wide (v1) store — one atomic load is the only
    /// difference.
    #[inline]
    pub fn thawed_cols(&self) -> Option<ColSlices<'_>> {
        self.thawed
            .get()
            .map(|b| (&b.nodes[..], &b.dists[..], &b.ranks[..], &b.weights[..]))
    }
}

/// The four full-width column slices `(nodes, dists, ranks, weights)`.
pub(super) type ColSlices<'a> = (&'a [u32], &'a [f64], &'a [f64], &'a [f64]);

/// Borrowed row-major view of fully decoded columns — the encoder's
/// input and the decode-verification baseline.
#[derive(Clone, Copy)]
pub(super) struct RowsSource<'a> {
    pub offsets: &'a [u32],
    pub nodes: &'a [u32],
    pub dists: &'a [f64],
    pub ranks: &'a [f64],
    pub weights: &'a [f64],
}

/// One decoded row, borrowed from a decoded block (or a wide store's
/// columns — the dispatch in `frozen.rs` hands out both through this).
#[derive(Clone, Copy)]
pub(crate) struct RowSlices<'a> {
    pub nodes: &'a [u32],
    pub dists: &'a [f64],
    pub ranks: &'a [f64],
    pub weights: &'a [f64],
}

/// Everything needed to resolve and decode a v2 store's rows: the repr,
/// the (possibly mapped) region, and the CSR entry offsets.
#[derive(Clone, Copy)]
pub(super) struct V2Ctx<'a> {
    pub repr: &'a V2Repr,
    pub region: Option<&'a MapRegion>,
    pub offsets: &'a [u32],
}

/// One decoded block of rows, struct-of-arrays, reused across decodes.
#[derive(Debug, Default)]
pub(super) struct DecodedBlock {
    base_row: usize,
    base_entry: usize,
    nodes: Vec<u32>,
    dists: Vec<f64>,
    ranks: Vec<f64>,
    weights: Vec<f64>,
}

impl DecodedBlock {
    fn byte_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.nodes.capacity() * 4
            + (self.dists.capacity() + self.ranks.capacity() + self.weights.capacity()) * 8
    }
}

/// The per-thread decoded-block scratch: blocks decode on first touch
/// and stay resident until the byte budget trips, when the scratch is
/// flushed wholesale (sweeps then re-decode each block exactly once per
/// pass). Keyed by `(store id, block)`, and store ids are never reused,
/// so stale entries cannot alias a newer store.
#[derive(Default)]
struct BlockCache {
    blocks: HashMap<(u64, u32), std::rc::Rc<DecodedBlock>>,
    /// One-entry memo of the most recently touched block. Sequential
    /// sweeps hit the same block `rows_per_block` times in a row, so
    /// this turns the per-row cost into a tuple compare + `Rc` clone
    /// and leaves the hash lookup to once per block.
    last: Option<((u64, u32), std::rc::Rc<DecodedBlock>)>,
    bytes: usize,
}

thread_local! {
    static BLOCK_CACHE: RefCell<BlockCache> = RefCell::new(BlockCache::default());
}

impl<'a> V2Ctx<'a> {
    #[inline]
    fn blob_bytes(&self) -> &'a [u8] {
        self.repr.blob.bytes(self.region)
    }

    #[inline]
    fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Decodes (or fetches from the per-thread scratch) the block owning
    /// row `v` and calls `f` with that row's column slices.
    ///
    /// Re-entrant: the scratch borrow is released before `f` runs, so
    /// the callback may itself query v2 stores (nested `with_row`); in
    /// the unlikely event the scratch is still borrowed (a caller panic
    /// mid-update), the row decodes into a fresh local block instead —
    /// slower, never wrong.
    #[inline]
    pub fn with_row<T>(&self, v: NodeId, f: impl FnOnce(RowSlices<'_>) -> T) -> T {
        // Buffered stores that fit the budget thaw once into a shared
        // contiguous column set — v1's exact memory layout, one atomic
        // load per row access from then on. The hot path is deliberately
        // tiny so it inlines into the estimator loops just like v1's
        // direct column slicing; everything else lives in the cold half.
        if let Some(full) = self.repr.thawed.get() {
            return f(self.row_of(full, v));
        }
        self.with_row_cold(v, f)
    }

    /// The pre-thaw / mapped-store half of [`V2Ctx::with_row`]: decides
    /// whether to thaw a buffered store, otherwise serves the row from
    /// the per-thread block scratch. Mapped stores always land here —
    /// their contract is lazy per-block decode, touching only the file
    /// pages a query actually needs.
    #[inline(never)]
    fn with_row_cold<T>(&self, v: NodeId, f: impl FnOnce(RowSlices<'_>) -> T) -> T {
        if self.region.is_none() && self.decoded_store_bytes() <= SCRATCH_BUDGET_BYTES {
            let full = self.repr.thawed.get_or_init(|| self.decode_full());
            return f(self.row_of(full, v));
        }
        let block = (v as usize / self.repr.rows_per_block as usize) as u32;
        let key = (self.repr.store_id, block);
        let cached = BLOCK_CACHE.with(|cell| {
            let mut cache = cell.try_borrow_mut().ok()?;
            if let Some((k, blk)) = &cache.last {
                if *k == key {
                    return Some(blk.clone());
                }
            }
            let rc = if let Some(blk) = cache.blocks.get(&key) {
                blk.clone()
            } else {
                let mut decoded = DecodedBlock::default();
                self.decode_block_into(block as usize, &mut decoded);
                if cache.bytes + decoded.byte_size() > SCRATCH_BUDGET_BYTES {
                    cache.blocks.clear();
                    cache.bytes = 0;
                }
                cache.bytes += decoded.byte_size();
                let rc = std::rc::Rc::new(decoded);
                cache.blocks.insert(key, rc.clone());
                rc
            };
            cache.last = Some((key, rc.clone()));
            Some(rc)
        });
        match cached {
            Some(blk) => f(self.row_of(&blk, v)),
            None => {
                let mut decoded = DecodedBlock::default();
                self.decode_block_into(block as usize, &mut decoded);
                f(self.row_of(&decoded, v))
            }
        }
    }

    /// Bytes one contiguous decode of the whole store occupies.
    #[inline]
    fn decoded_store_bytes(&self) -> usize {
        let entries = self.offsets.last().copied().unwrap_or(0) as usize;
        std::mem::size_of::<DecodedBlock>() + entries * 28
    }

    /// Decodes every block into one contiguous column set (the v1
    /// memory layout), so full-store sweeps read three unbroken streams
    /// instead of hopping between per-block allocations.
    fn decode_full(&self) -> DecodedBlock {
        let entries = self.offsets.last().copied().unwrap_or(0) as usize;
        let mut full = DecodedBlock {
            base_row: 0,
            base_entry: 0,
            nodes: Vec::with_capacity(entries),
            dists: Vec::with_capacity(entries),
            ranks: Vec::with_capacity(entries),
            weights: Vec::with_capacity(entries),
        };
        let mut tmp = DecodedBlock::default();
        for b in 0..self.repr.block_offsets.len().saturating_sub(1) {
            self.decode_block_into(b, &mut tmp);
            full.nodes.extend_from_slice(&tmp.nodes);
            full.dists.extend_from_slice(&tmp.dists);
            full.ranks.extend_from_slice(&tmp.ranks);
            full.weights.extend_from_slice(&tmp.weights);
        }
        full
    }

    /// Slices row `v` out of its decoded block.
    #[inline]
    fn row_of<'b>(&self, blk: &'b DecodedBlock, v: NodeId) -> RowSlices<'b> {
        debug_assert!(
            v as usize >= blk.base_row
                && self.offsets[v as usize + 1] as usize - blk.base_entry <= blk.nodes.len()
        );
        let lo = self.offsets[v as usize] as usize - blk.base_entry;
        let hi = self.offsets[v as usize + 1] as usize - blk.base_entry;
        RowSlices {
            nodes: &blk.nodes[lo..hi],
            dists: &blk.dists[lo..hi],
            ranks: &blk.ranks[lo..hi],
            weights: &blk.weights[lo..hi],
        }
    }

    /// Visits every row in order with one reused local block (cold full
    /// scans: serialization, thaw, equality — not the query path, which
    /// goes through the cached [`V2Ctx::with_row`]).
    pub fn for_each_row_decoded(&self, mut f: impl FnMut(usize, RowSlices<'_>)) {
        let n = self.num_rows();
        let rpb = self.repr.rows_per_block as usize;
        let mut blk = DecodedBlock::default();
        for b in 0..self.repr.block_offsets.len().saturating_sub(1) {
            self.decode_block_into(b, &mut blk);
            for v in b * rpb..((b + 1) * rpb).min(n) {
                f(v, self.row_of(&blk, v as NodeId));
            }
        }
    }

    /// The rows and entry span block `b` covers.
    fn block_extent(&self, b: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let rpb = self.repr.rows_per_block as usize;
        let lo = (b * rpb).min(self.num_rows());
        let hi = ((b + 1) * rpb).min(self.num_rows());
        (lo..hi, self.offsets[lo] as usize..self.offsets[hi] as usize)
    }

    /// Decodes block `b` into `out`. **Infallible by construction**: the
    /// unverified-load contract (like v1's) is that structural damage in
    /// trusted files yields garbage *values*, never panics or
    /// out-of-bounds access, so every read below is bounds-clamped and
    /// shortfalls zero-fill. Verified loads ran [`V2Ctx::validate`]
    /// first, after which none of the fallback branches are reachable.
    pub fn decode_block_into(&self, b: usize, out: &mut DecodedBlock) {
        let (rows, entries) = self.block_extent(b);
        let count = entries.len();
        out.base_row = rows.start;
        out.base_entry = entries.start;
        out.nodes.clear();
        out.dists.clear();
        out.ranks.clear();
        out.weights.clear();
        out.nodes.resize(count, 0);
        out.dists.resize(count, 0.0);
        out.ranks.resize(count, 0.0);
        out.weights.resize(count, 1.0);

        let blob = self.blob_bytes();
        // Block offsets were validated monotone and ≤ blob len at load.
        let span =
            &blob[self.repr.block_offsets[b] as usize..self.repr.block_offsets[b + 1] as usize];
        let Some(sections) = split_sections(span) else {
            return; // short/garbled block header: all-zero fill
        };
        let [sec_d, sec_r, sec_w, sec_n] = sections;

        // Distances first (node-run recovery depends on them).
        match self.repr.tags.dist {
            DistTag::Dict16 => {
                for (i, c) in sec_d.chunks_exact(2).take(count).enumerate() {
                    let code = u16::from_le_bytes([c[0], c[1]]) as usize;
                    out.dists[i] = self.repr.dict.get(code).copied().unwrap_or(0.0);
                }
            }
            DistTag::Dict32 => {
                for (i, c) in sec_d.chunks_exact(4).take(count).enumerate() {
                    let code = u32::from_le_bytes(c.try_into().expect("4-byte chunk")) as usize;
                    out.dists[i] = self.repr.dict.get(code).copied().unwrap_or(0.0);
                }
            }
            DistTag::Raw => {
                for (i, c) in sec_d.chunks_exact(8).take(count).enumerate() {
                    out.dists[i] =
                        f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
                }
            }
        }

        match self.repr.tags.rank {
            RankTag::Fixed7 => {
                for (i, c) in sec_r.chunks_exact(7).take(count).enumerate() {
                    let mut m = [0u8; 8];
                    m[..7].copy_from_slice(c);
                    out.ranks[i] = u64::from_le_bytes(m) as f64 * RANK_INV_SCALE;
                }
            }
            RankTag::Raw => {
                for (i, c) in sec_r.chunks_exact(8).take(count).enumerate() {
                    out.ranks[i] =
                        f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
                }
            }
        }

        match self.repr.tags.weight {
            WeightTag::TauRef => {
                let mut at = 0usize;
                'rows: for v in rows.clone() {
                    let row_lo = self.offsets[v] as usize - entries.start;
                    let row_hi = self.offsets[v + 1] as usize - entries.start;
                    for i in row_lo..row_hi {
                        let Ok((code, used)) = varint::decode(&sec_w[at.min(sec_w.len())..]) else {
                            break 'rows; // rest keeps the 1.0 fill
                        };
                        at += used;
                        let back = code as usize;
                        if back > 0 && back <= i - row_lo {
                            out.weights[i] = 1.0 / out.ranks[i - back];
                        } // code 0 (or out-of-row garbage): keep 1.0
                    }
                }
            }
            WeightTag::Raw => {
                for (i, c) in sec_w.chunks_exact(8).take(count).enumerate() {
                    out.weights[i] =
                        f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
                }
            }
        }

        match self.repr.tags.node {
            NodeTag::Delta => {
                let mut at = 0usize;
                'rows: for v in rows {
                    let row_lo = self.offsets[v] as usize - entries.start;
                    let row_hi = self.offsets[v + 1] as usize - entries.start;
                    for i in row_lo..row_hi {
                        let Ok((x, used)) = varint::decode(&sec_n[at.min(sec_n.len())..]) else {
                            break 'rows;
                        };
                        at += used;
                        let same_run =
                            i > row_lo && out.dists[i].to_bits() == out.dists[i - 1].to_bits();
                        out.nodes[i] = if same_run {
                            (out.nodes[i - 1] as u64)
                                .saturating_add(1)
                                .saturating_add(x)
                                .min(u32::MAX as u64) as u32
                        } else {
                            x.min(u32::MAX as u64) as u32
                        };
                    }
                }
            }
            NodeTag::Raw => {
                for (i, c) in sec_n.chunks_exact(4).take(count).enumerate() {
                    out.nodes[i] = u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
                }
            }
        }
    }

    /// Full structural validation of the compressed payload — the v2
    /// counterpart of the v1 canonical-order scan, run by every verified
    /// load. Checks, per block: the section lengths tile the block span
    /// exactly; every section parses to exactly its length with
    /// canonical varints; dictionary codes, rank magnitudes, weight
    /// back-references and node ids are in range; and the decoded rows
    /// are in strict canonical `(dist, node)` order. After this passes,
    /// none of [`V2Ctx::decode_block_into`]'s fallback branches are
    /// reachable.
    pub fn validate(&self) -> Result<(), FrozenError> {
        let n = self.num_rows();
        let num_blocks = self.repr.block_offsets.len() - 1;
        let mut blk = DecodedBlock::default();
        for b in 0..num_blocks {
            let (rows, entries) = self.block_extent(b);
            let count = entries.len();
            let span = &self.blob_bytes()
                [self.repr.block_offsets[b] as usize..self.repr.block_offsets[b + 1] as usize];
            let corrupt = |what: String| FrozenError::Corrupt(format!("block {b}: {what}"));
            let Some([sec_d, sec_r, sec_w, sec_n]) = split_sections(span) else {
                return Err(corrupt(format!(
                    "section lengths do not tile the {}-byte block span",
                    span.len()
                )));
            };

            let fixed = |sec: &[u8], width: usize, name: &str| -> Result<(), FrozenError> {
                if sec.len() != count * width {
                    return Err(corrupt(format!(
                        "{name} section is {} bytes, expected {} ({count} entries × {width}; \
                         wrong escape-column length for the header's tag)",
                        sec.len(),
                        count * width
                    )));
                }
                Ok(())
            };

            match self.repr.tags.dist {
                DistTag::Dict16 => {
                    fixed(sec_d, 2, "dist")?;
                    for c in sec_d.chunks_exact(2) {
                        let code = u16::from_le_bytes([c[0], c[1]]) as usize;
                        if code >= self.repr.dict.len() {
                            return Err(corrupt(format!("dist code {code} out of dictionary")));
                        }
                    }
                }
                DistTag::Dict32 => {
                    fixed(sec_d, 4, "dist")?;
                    for c in sec_d.chunks_exact(4) {
                        let code = u32::from_le_bytes(c.try_into().expect("4-byte")) as usize;
                        if code >= self.repr.dict.len() {
                            return Err(corrupt(format!("dist code {code} out of dictionary")));
                        }
                    }
                }
                DistTag::Raw => fixed(sec_d, 8, "dist")?,
            }
            match self.repr.tags.rank {
                RankTag::Fixed7 => {
                    fixed(sec_r, 7, "rank")?;
                    for c in sec_r.chunks_exact(7) {
                        let mut m = [0u8; 8];
                        m[..7].copy_from_slice(c);
                        if u64::from_le_bytes(m) > 1u64 << 53 {
                            return Err(corrupt("rank mantissa exceeds 2^53".into()));
                        }
                    }
                }
                RankTag::Raw => fixed(sec_r, 8, "rank")?,
            }

            match self.repr.tags.weight {
                WeightTag::TauRef => {
                    walk_varints(sec_w, "weight", self.offsets, rows.clone(), b, |i, code| {
                        if code as usize > i {
                            Err(format!(
                                "weight back-reference {code} reaches before entry 0"
                            ))
                        } else {
                            Ok(())
                        }
                    })?
                }
                WeightTag::Raw => fixed(sec_w, 8, "weight")?,
            }
            match self.repr.tags.node {
                NodeTag::Delta => {
                    walk_varints(sec_n, "node", self.offsets, rows.clone(), b, |_, _| Ok(()))?
                }
                NodeTag::Raw => fixed(sec_n, 4, "node")?,
            }

            // Decode the (now structurally sound) block and check the
            // row invariants every query relies on.
            self.decode_block_into(b, &mut blk);
            for v in rows {
                let row = self.row_of(&blk, v as NodeId);
                if row.nodes.iter().any(|&nd| nd as usize >= n) {
                    return Err(FrozenError::Corrupt(format!(
                        "node {v}: sampled node id out of range"
                    )));
                }
                let in_order = row
                    .dists
                    .windows(2)
                    .zip(row.nodes.windows(2))
                    .all(|(d, nd)| {
                        d[0].total_cmp(&d[1]).then(nd[0].cmp(&nd[1])) == std::cmp::Ordering::Less
                    });
                if !in_order {
                    return Err(FrozenError::Corrupt(format!(
                        "node {v}: entries out of canonical (dist, node) order"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Strict walk of one varint section during validation: every varint
/// must be canonical, every row's entries must be present, and the
/// stream must consume the section exactly. `per` sees each decoded
/// value with its within-row index and may veto it with a message.
fn walk_varints(
    sec: &[u8],
    name: &str,
    offsets: &[u32],
    rows: std::ops::Range<usize>,
    block: usize,
    mut per: impl FnMut(usize, u64) -> Result<(), String>,
) -> Result<(), FrozenError> {
    let corrupt = |what: String| FrozenError::Corrupt(format!("block {block}: {what}"));
    let mut at = 0usize;
    for v in rows {
        let row_len = (offsets[v + 1] - offsets[v]) as usize;
        for i in 0..row_len {
            let (x, used) = varint::decode(&sec[at..])
                .map_err(|e| corrupt(format!("row {v} {name} column: {e}")))?;
            at += used;
            per(i, x).map_err(|m| corrupt(format!("row {v}: {m}")))?;
        }
    }
    if at != sec.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the {name} varint stream",
            sec.len() - at
        )));
    }
    Ok(())
}

/// Splits a block span into its four sections behind the 16-byte
/// length header; `None` unless the lengths tile the span exactly.
fn split_sections(span: &[u8]) -> Option<[&[u8]; 4]> {
    if span.len() < 16 {
        return None;
    }
    let len = |i: usize| u32::from_le_bytes(span[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
    let (l0, l1, l2, l3) = (len(0), len(1), len(2), len(3));
    let total = l0.checked_add(l1)?.checked_add(l2)?.checked_add(l3)?;
    if total != span.len() - 16 {
        return None;
    }
    let body = &span[16..];
    let (s0, rest) = body.split_at(l0);
    let (s1, rest) = rest.split_at(l1);
    let (s2, s3) = rest.split_at(l2);
    Some([s0, s1, s2, s3])
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Serializes `rows` to the complete v2 byte image (header, checksum
/// patched in). Escape tags are chosen by verifying bit-exact
/// reconstruction of every entry; as final insurance the whole buffer
/// is decoded back and compared bitwise before being returned.
pub(super) fn encode(k: u32, rows: RowsSource<'_>) -> Vec<u8> {
    let n = rows.offsets.len() - 1;
    let entries = rows.nodes.len();

    // Distance dictionary: sorted distinct bit patterns, exact by
    // construction. Escape only when codes + dictionary would outgrow
    // raw bits (many distinct values, e.g. real-weighted graphs).
    let mut dict: Vec<f64> = rows.dists.to_vec();
    dict.sort_unstable_by(|a, b| a.total_cmp(b));
    dict.dedup_by_key(|x| x.to_bits());
    let dist_tag = if dict.len() <= 1 << 16 {
        DistTag::Dict16
    } else if dict.len() <= entries / 2 {
        DistTag::Dict32
    } else {
        dict = Vec::new();
        DistTag::Raw
    };
    let code_of: HashMap<u64, u32> = dict
        .iter()
        .enumerate()
        .map(|(i, x)| (x.to_bits(), i as u32))
        .collect();

    // Ranks: 7-byte m·2⁻⁵³ if every entry reproduces bit-for-bit.
    let rank_tag = if rows.ranks.iter().all(|&r| rank_to_m(r).is_some()) {
        RankTag::Fixed7
    } else {
        RankTag::Raw
    };

    // Weights: per-entry back-reference to the τ-source entry, verified
    // by recomputing the identical `1.0 / rank` division.
    let weight_refs = compute_weight_refs(k, rows);
    let weight_tag = if weight_refs.is_some() {
        WeightTag::TauRef
    } else {
        WeightTag::Raw
    };

    // Nodes: delta within distance runs requires the strict canonical
    // increase; any violation (only possible for stores that skipped
    // the canonical-order validation) escapes to raw ids.
    let node_tag = if (0..n).all(|v| {
        let r = rows.offsets[v] as usize..rows.offsets[v + 1] as usize;
        r.clone().skip(1).all(|i| {
            rows.dists[i].to_bits() != rows.dists[i - 1].to_bits()
                || rows.nodes[i] > rows.nodes[i - 1]
        })
    }) {
        NodeTag::Delta
    } else {
        NodeTag::Raw
    };

    let tags = Tags {
        node: node_tag,
        dist: dist_tag,
        rank: rank_tag,
        weight: weight_tag,
    };

    // Emit blocks.
    let rpb = DEFAULT_ROWS_PER_BLOCK as usize;
    let num_blocks = n.div_ceil(rpb);
    let mut blob: Vec<u8> = Vec::new();
    let mut block_offsets: Vec<u64> = Vec::with_capacity(num_blocks + 1);
    block_offsets.push(0);
    let (mut sec_d, mut sec_r, mut sec_w, mut sec_n) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for b in 0..num_blocks {
        let (lo, hi) = (b * rpb, ((b + 1) * rpb).min(n));
        let span = rows.offsets[lo] as usize..rows.offsets[hi] as usize;
        sec_d.clear();
        sec_r.clear();
        sec_w.clear();
        sec_n.clear();

        for i in span.clone() {
            match tags.dist {
                DistTag::Dict16 => sec_d
                    .extend_from_slice(&(code_of[&rows.dists[i].to_bits()] as u16).to_le_bytes()),
                DistTag::Dict32 => {
                    sec_d.extend_from_slice(&code_of[&rows.dists[i].to_bits()].to_le_bytes())
                }
                DistTag::Raw => sec_d.extend_from_slice(&rows.dists[i].to_bits().to_le_bytes()),
            }
            match tags.rank {
                RankTag::Fixed7 => {
                    let m = rank_to_m(rows.ranks[i]).expect("verified above");
                    sec_r.extend_from_slice(&m.to_le_bytes()[..7]);
                }
                RankTag::Raw => sec_r.extend_from_slice(&rows.ranks[i].to_bits().to_le_bytes()),
            }
            match tags.weight {
                WeightTag::TauRef => {
                    let refs = weight_refs.as_ref().expect("verified above");
                    varint::encode(refs[i] as u64, &mut sec_w);
                }
                WeightTag::Raw => sec_w.extend_from_slice(&rows.weights[i].to_bits().to_le_bytes()),
            }
        }
        for v in lo..hi {
            let r = rows.offsets[v] as usize..rows.offsets[v + 1] as usize;
            for i in r.clone() {
                match tags.node {
                    NodeTag::Delta => {
                        let same_run =
                            i > r.start && rows.dists[i].to_bits() == rows.dists[i - 1].to_bits();
                        let x = if same_run {
                            (rows.nodes[i] - rows.nodes[i - 1] - 1) as u64
                        } else {
                            rows.nodes[i] as u64
                        };
                        varint::encode(x, &mut sec_n);
                    }
                    NodeTag::Raw => sec_n.extend_from_slice(&rows.nodes[i].to_le_bytes()),
                }
            }
        }

        for sec in [&sec_d, &sec_r, &sec_w, &sec_n] {
            assert!(
                sec.len() <= u32::MAX as usize,
                "block section exceeds 4 GiB"
            );
            blob.extend_from_slice(&(sec.len() as u32).to_le_bytes());
        }
        for sec in [&sec_d, &sec_r, &sec_w, &sec_n] {
            blob.extend_from_slice(sec);
        }
        block_offsets.push(blob.len() as u64);
    }

    // Assemble the buffer (see the layout table in the module docs of
    // `frozen.rs`): header, entry offsets, dictionary, block offsets,
    // blob — then patch the checksum over the whole image.
    let mut buf = Vec::with_capacity(
        V2_HEADER_LEN + (n + 1) * 4 + 4 + dict.len() * 8 + (num_blocks + 1) * 8 + 8 + blob.len(),
    );
    buf.extend_from_slice(&super::FROZEN_MAGIC);
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&k.to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(entries as u64).to_le_bytes());
    buf.extend_from_slice(&[0u8; 8]); // checksum, patched below
    buf.extend_from_slice(&tags.to_bytes());
    buf.extend_from_slice(&DEFAULT_ROWS_PER_BLOCK.to_le_bytes());
    for &o in rows.offsets {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    buf.extend_from_slice(&(dict.len() as u32).to_le_bytes());
    for &x in &dict {
        buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for &o in &block_offsets {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    buf.extend_from_slice(&(blob.len() as u64).to_le_bytes());
    buf.extend_from_slice(&blob);
    let checksum = super::buffer_checksum(&buf);
    buf[super::CHECKSUM_OFFSET..super::CHECKSUM_OFFSET + 8]
        .copy_from_slice(&checksum.to_le_bytes());

    // Final insurance: decode everything back and require bit equality.
    let repr = V2Repr::new(
        tags,
        DEFAULT_ROWS_PER_BLOCK,
        dict,
        block_offsets,
        Blob::Owned(blob),
    );
    let ctx = V2Ctx {
        repr: &repr,
        region: None,
        offsets: rows.offsets,
    };
    ctx.for_each_row_decoded(|v, row| {
        let span = rows.offsets[v] as usize..rows.offsets[v + 1] as usize;
        let ok = row.nodes == &rows.nodes[span.clone()]
            && bits_eq(row.dists, &rows.dists[span.clone()])
            && bits_eq(row.ranks, &rows.ranks[span.clone()])
            && bits_eq(row.weights, &rows.weights[span.clone()]);
        assert!(
            ok,
            "v2 encoder self-verification failed at row {v} — this is a bug"
        );
    });
    buf
}

#[inline]
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The integer `m` with `rank = m·2⁻⁵³` **bit-for-bit**, if one exists.
fn rank_to_m(rank: f64) -> Option<u64> {
    if !(0.0..=1.0).contains(&rank) {
        return None;
    }
    let m = (rank * RANK_SCALE) as u64;
    if m <= 1u64 << 53 && (m as f64 * RANK_INV_SCALE).to_bits() == rank.to_bits() {
        Some(m)
    } else {
        None
    }
}

/// Per-entry τ back-references (`0` ⇒ weight exactly 1.0; `c` ⇒ weight
/// is `1.0 / rank[i − c]`), or `None` if any entry is not reproducible
/// bit-for-bit. Tracks the k smallest ranks seen so far in each row —
/// the Lemma 5.1 threshold — so the expected reference is O(log k) away,
/// with a linear scan fallback for exact-tie corner cases.
fn compute_weight_refs(k: u32, rows: RowsSource<'_>) -> Option<Vec<u32>> {
    let n = rows.offsets.len() - 1;
    let k = (k as usize).max(1);
    let mut refs = vec![0u32; rows.weights.len()];
    let mut smallest: Vec<(f64, u32)> = Vec::new(); // (rank, index in row), ascending
    for v in 0..n {
        let lo = rows.offsets[v] as usize;
        let hi = rows.offsets[v + 1] as usize;
        smallest.clear();
        for (slot, i) in refs[lo..hi].iter_mut().zip(lo..hi) {
            let w = rows.weights[i];
            let row_i = (i - lo) as u32;
            let code = if w.to_bits() == 1.0f64.to_bits() {
                0
            } else {
                // Expected τ source: the current k-th smallest rank.
                // (`smallest` is truncated to k entries, so `last()` is
                // exactly the threshold when k of them exist.)
                let candidate = smallest
                    .last()
                    .filter(|_| smallest.len() == k)
                    .filter(|&&(r, _)| (1.0 / r).to_bits() == w.to_bits())
                    .map(|&(_, j)| row_i - j);
                candidate.or_else(|| {
                    // Exact rank ties (or non-HIP weights): any earlier
                    // entry whose rank reproduces the bits will do.
                    (lo..i)
                        .rev()
                        .find(|&j| (1.0 / rows.ranks[j]).to_bits() == w.to_bits())
                        .map(|j| row_i - (j - lo) as u32)
                })?
            };
            *slot = code;
            let rank = rows.ranks[i];
            if smallest.len() < k || smallest.last().is_some_and(|&(r, _)| rank < r) {
                let pos = smallest.partition_point(|&(r, _)| r.total_cmp(&rank).is_lt());
                smallest.insert(pos, (rank, row_i));
                smallest.truncate(k);
            }
        }
    }
    Some(refs)
}

// ---------------------------------------------------------------------
// Parsing (buffered / mapped)
// ---------------------------------------------------------------------

/// Everything `frozen.rs` needs to assemble a v2 `FrozenAdsSet` from a
/// parse: the repr plus the owned entry-offset column (buffered loads)
/// or its mapped location.
pub(super) struct ParsedV2 {
    pub repr: V2Repr,
    pub offsets: super::Col<u32>,
}

/// Reads the 8 v2-specific header bytes (tags + rows-per-block) that
/// follow the 40 common bytes.
fn parse_extra(extra: &[u8; 8]) -> Result<(Tags, u32), FrozenError> {
    let tags = Tags::from_bytes([extra[0], extra[1], extra[2], extra[3]])?;
    let rpb = u32::from_le_bytes(extra[4..8].try_into().expect("4 bytes"));
    if rpb == 0 || rpb > MAX_ROWS_PER_BLOCK {
        return Err(FrozenError::Corrupt(format!(
            "rows-per-block {rpb} out of the accepted range 1..={MAX_ROWS_PER_BLOCK}"
        )));
    }
    Ok((tags, rpb))
}

/// Shared sanity for the parsed block-offset table: monotone, starting
/// at zero, ending exactly at the blob length. Runs at **every** load
/// level (including trusted) so block slicing is infallible afterwards.
fn check_block_offsets(block_offsets: &[u64], blob_len: u64) -> Result<(), FrozenError> {
    if block_offsets.first() != Some(&0) {
        return Err(FrozenError::Corrupt("block offsets must start at 0".into()));
    }
    if block_offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(FrozenError::Corrupt(
            "block offsets must be non-decreasing".into(),
        ));
    }
    if *block_offsets.last().expect("non-empty") != blob_len {
        return Err(FrozenError::Corrupt(
            "last block offset must equal the blob length".into(),
        ));
    }
    Ok(())
}

/// The byte-taker closure threaded through [`read_body`]'s section
/// readers: fills the buffer from the stream, advances the consumed
/// count, and hashes what it read.
type TakeFn<'a> = dyn FnMut(&mut [u8], &mut u64) -> Result<(), FrozenError> + 'a;

/// Streams a v2 body off `r` (the buffered loader). The caller has
/// consumed and hashed the 40 common header bytes; this consumes
/// exactly the rest of one store and hashes it into `hash` when given.
pub(super) fn read_body<R: Read>(
    r: &mut R,
    n: usize,
    entries: usize,
    mut hash: Option<&mut super::Fnv1a64>,
) -> Result<ParsedV2, FrozenError> {
    let mut consumed = super::HEADER_LEN as u64;
    // Running lower bound of the store's total length, refined as each
    // section's size becomes known (for Truncated error reporting).
    let need = |more: u64, consumed: &u64| consumed + more;

    let mut take = |buf: &mut [u8], consumed: &mut u64| -> Result<(), FrozenError> {
        let expected = need(buf.len() as u64, consumed);
        read_exact_or_truncated(r, buf, expected, *consumed)?;
        *consumed += buf.len() as u64;
        if let Some(h) = hash.as_deref_mut() {
            h.update(buf);
        }
        Ok(())
    };

    let mut extra = [0u8; 8];
    take(&mut extra, &mut consumed)?;
    let (tags, rpb) = parse_extra(&extra)?;
    let num_blocks = n.div_ceil(rpb as usize);

    let read_bytes =
        |total: usize, take: &mut TakeFn<'_>, consumed: &mut u64| -> Result<Vec<u8>, FrozenError> {
            let mut out = Vec::with_capacity(total.min(COL_CAPACITY_HINT * 8));
            let mut chunk = [0u8; 8192];
            let mut remaining = total;
            while remaining > 0 {
                let step = remaining.min(chunk.len());
                take(&mut chunk[..step], consumed)?;
                out.extend_from_slice(&chunk[..step]);
                remaining -= step;
            }
            Ok(out)
        };

    let offsets_bytes = read_bytes((n + 1) * 4, &mut take, &mut consumed)?;
    let offsets: Vec<u32> = offsets_bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte")))
        .collect();

    let mut d_buf = [0u8; 4];
    take(&mut d_buf, &mut consumed)?;
    let d = u32::from_le_bytes(d_buf) as usize;
    if d > entries.max(1) {
        return Err(FrozenError::Corrupt(format!(
            "distance dictionary of {d} values exceeds the entry count {entries}"
        )));
    }
    let dict_bytes = read_bytes(d * 8, &mut take, &mut consumed)?;
    let dict: Vec<f64> = dict_bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte"))))
        .collect();

    let bo_bytes = read_bytes((num_blocks + 1) * 8, &mut take, &mut consumed)?;
    let block_offsets: Vec<u64> = bo_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte")))
        .collect();

    let mut blob_len_buf = [0u8; 8];
    take(&mut blob_len_buf, &mut consumed)?;
    let blob_len = u64::from_le_bytes(blob_len_buf);
    check_block_offsets(&block_offsets, blob_len)?;
    if blob_len > usize::MAX as u64 {
        return Err(FrozenError::Corrupt("blob length overflows usize".into()));
    }
    let blob = read_bytes(blob_len as usize, &mut take, &mut consumed)?;

    Ok(ParsedV2 {
        repr: V2Repr::new(tags, rpb, dict, block_offsets, Blob::Owned(blob)),
        offsets: super::Col::Owned(offsets),
    })
}

/// Parses a v2 store out of a complete mapped byte image (`buf` is the
/// whole file). Metadata (dictionary, block offsets) is decoded into
/// small owned vectors; the entry-offset column and the blob stay
/// zero-copy views into the mapping. Checks exact file length; the
/// caller handles checksum and structural verification.
pub(super) fn parse_mapped(
    region: &MapRegion,
    n: usize,
    entries: usize,
) -> Result<ParsedV2, FrozenError> {
    let buf = region.bytes();
    let whole = buf.len() as u64;
    let mut at = super::HEADER_LEN;
    let need = |more: usize, at: usize| -> Result<(), FrozenError> {
        if at.checked_add(more).is_none_or(|end| end > buf.len()) {
            Err(FrozenError::Truncated {
                expected: (at as u64).saturating_add(more as u64),
                actual: whole,
            })
        } else {
            Ok(())
        }
    };

    need(8, at)?;
    let extra: [u8; 8] = buf[at..at + 8].try_into().expect("8 bytes");
    let (tags, rpb) = parse_extra(&extra)?;
    at += 8;
    let num_blocks = n.div_ceil(rpb as usize);

    need((n + 1) * 4, at)?;
    let off_offsets = at;
    at += (n + 1) * 4;

    need(4, at)?;
    let d = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
    at += 4;
    if d > entries.max(1) {
        return Err(FrozenError::Corrupt(format!(
            "distance dictionary of {d} values exceeds the entry count {entries}"
        )));
    }
    need(d * 8, at)?;
    let dict: Vec<f64> = buf[at..at + d * 8]
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte"))))
        .collect();
    at += d * 8;

    need((num_blocks + 1) * 8, at)?;
    let block_offsets: Vec<u64> = buf[at..at + (num_blocks + 1) * 8]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte")))
        .collect();
    at += (num_blocks + 1) * 8;

    need(8, at)?;
    let blob_len = u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
    at += 8;
    check_block_offsets(&block_offsets, blob_len)?;
    if blob_len > (buf.len() - at) as u64 {
        return Err(FrozenError::Truncated {
            expected: at as u64 + blob_len,
            actual: whole,
        });
    }
    let blob_off = at;
    at += blob_len as usize;
    if at != buf.len() {
        return Err(FrozenError::Corrupt(format!(
            "{} trailing bytes after the payload",
            buf.len() - at
        )));
    }

    // The u32 entry-offset column sits at byte 48 of a page-aligned
    // mapping — always 4-aligned; assert rather than trust.
    assert!(
        region.u32_slice(off_offsets, n + 1).is_some(),
        "u32 offsets must be in bounds and aligned in a length-checked mapping"
    );
    Ok(ParsedV2 {
        repr: V2Repr::new(
            tags,
            rpb,
            dict,
            block_offsets,
            Blob::Mapped {
                off: blob_off,
                len: blob_len as usize,
            },
        ),
        offsets: super::Col::Mapped {
            off: off_offsets,
            count: n + 1,
        },
    })
}
