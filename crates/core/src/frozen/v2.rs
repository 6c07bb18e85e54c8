//! The compressed (version 2) frozen-store representation.
//!
//! Version 1 stores every entry full-width (20 B: u32 node, f64 dist,
//! f64 HIP weight) next to an 8-byte-per-node rank table. The entries
//! are heavily redundant, and all of the redundancy can be removed
//! *without changing a single stored bit* (the workspace-wide
//! bitwise-identity gate):
//!
//! * **Distances** repeat: a unit-weight graph has a handful of distinct
//!   hop counts, so the distinct `f64` bit patterns go into a sorted
//!   dictionary and each entry stores a small fixed-width code
//!   (u16/u32). The dictionary holds exact bit patterns, so decoding is
//!   exact by construction; if the distinct set is too large for a
//!   dictionary to pay off, the column *escapes* to raw 8-byte bits.
//! * **Node ids** within one distance level are strictly increasing
//!   (canonical `(dist, node)` order), so runs delta+varint-compress;
//!   run boundaries are recovered from the already-decoded distance
//!   codes. Escape: raw 4-byte ids.
//! * **HIP weights** are not stored. Each is `1/τ`, τ the k-th smallest
//!   rank of the entries before it in its row (Lemma 5.1), so the row's
//!   node ids and the rank table determine every weight, and the decoder
//!   rebuilds them with the freeze's own kernel, [`tau_scan`]. The
//!   encoder checks the rebuilt weights bit for bit against the store's
//!   and escapes the column to raw bits if any differs (only a store
//!   whose weights no freeze wrote, such as a forged v1 file, does).
//! * **Ranks** live in one per-node table. The unweighted sampler's are
//!   exactly `m·2⁻⁵³` (`m ≤ 2⁵³`), so 7 bytes of `m` reproduce each one
//!   bit-for-bit; one scan of the table picks that, or raw bits when a
//!   rank is off the grid (e.g. weighted-sampler `−ln(u)/w` ranks).
//!
//! Whether each column is compressed or escaped is a whole-column
//! decision recorded in four header tag bytes; the encoder chooses by
//! *verifying reconstruction* of every entry, never by value heuristics,
//! so a v1 ↔ v2 round trip is bitwise lossless for any store.
//!
//! # Block layout, one pass each way, one chunk per core
//!
//! Entries are grouped into blocks of [`DEFAULT_ROWS_PER_BLOCK`] rows
//! (the row count is recorded in the header). Each block encodes its
//! entries column-major — three sections `[dists][nodes][weights]`, in
//! decode order, behind a 12-byte section-length header; the weight
//! section is empty unless the column escaped — so decoding runs tight
//! loops instead of a per-entry interleaved parse.
//!
//! Version 2 is a **file codec**, not a way to hold a store: this module
//! is the pair [`encode`] (columns → bytes) and [`decode`] (bytes →
//! columns). Each makes one pass over the blocks, which are independent,
//! in one contiguous chunk per core:
//!
//! * [`encode`] assumes the derived weights and the compressed node
//!   tag. Each chunk writes its blocks into its own buffer and decodes
//!   every block back, its weights rebuilt, and compares it bitwise with
//!   its source while the block is still in cache. An entry a tag does
//!   not reproduce, in any chunk, restarts the encoder with that one
//!   column escaped, so the bytes do not depend on the chunking.
//! * Every load path of a v2 file — `from_bytes`, buffered, mapped,
//!   trusted — runs [`decode`] once over the whole image and ends in
//!   the same full-width columns a freeze or a v1 load produces, so
//!   queries never see the compressed form. Each chunk rebuilds the
//!   weights of the blocks it decodes. Its one block decoder, the
//!   one the encoder's self-check runs too, checks each block as it
//!   decodes it, at every load level: a malformed block — a node id
//!   past the rank table included — is a typed error even in a trusted
//!   load, and a verified load checks canonical row order there too.
//!
//! The full on-disk layout table lives in the [`super`] module docs next
//! to the v1 table.

use std::ops::Range;

use super::varint;
use super::{FrozenError, ParsedHeader, HEADER_LEN};
use crate::builder::{shard_slots, thread_count};
use crate::hip::tau_scan;

/// Serialized v2 header length: the 40 common bytes plus four column
/// tags and the u32 rows-per-block.
pub(super) const V2_HEADER_LEN: usize = 48;

/// Rows per block the encoder writes (readers honour whatever the
/// header records). 64 rows ≈ a few thousand entries at practical k —
/// large enough to amortize decode setup, small enough that one decoded
/// block stays cache-resident.
pub(super) const DEFAULT_ROWS_PER_BLOCK: u32 = 64;

/// Upper bound accepted for the header's rows-per-block (an untrusted
/// field; keeps `block × rows` arithmetic far from overflow).
const MAX_ROWS_PER_BLOCK: u32 = 1 << 20;

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

/// How the per-node rank table is encoded (header byte 42).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RankTag {
    /// 7-byte little-endian `m` per node with `rank = m·2⁻⁵³` exactly.
    Fixed7 = 0,
    /// Raw f64 bits per node (escape: some rank is not an `m·2⁻⁵³`).
    Raw = 1,
}

/// How the HIP-weight column is encoded (header byte 43). Tag 0, a varint
/// τ back-reference per entry, is an older build's and a
/// [`FrozenError::LegacyGeneration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum WeightTag {
    /// Raw f64 bits per entry (escape: some weight is not reproducible).
    Raw = 1,
    /// No bytes: every weight is rebuilt from the row and the rank table.
    Derived = 2,
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
        let bad = |what: &str, t: u8| Err(FrozenError::Corrupt(format!("unknown {what} tag {t}")));
        Ok(Self {
            node: match b[0] {
                0 => NodeTag::Delta,
                1 => NodeTag::Raw,
                t => return bad("node-column", t),
            },
            dist: match b[1] {
                0 => DistTag::Dict16,
                1 => DistTag::Dict32,
                2 => DistTag::Raw,
                t => return bad("dist-column", t),
            },
            rank: match b[2] {
                0 => RankTag::Fixed7,
                1 => RankTag::Raw,
                t => return bad("rank-table", t),
            },
            weight: match b[3] {
                0 => return Err(FrozenError::LegacyGeneration),
                1 => WeightTag::Raw,
                2 => WeightTag::Derived,
                t => return bad("weight-column", t),
            },
        })
    }
}

/// Borrowed full-width columns and the rank table — the encoder's input.
#[derive(Clone, Copy)]
pub(super) struct RowsSource<'a> {
    pub offsets: &'a [u32],
    pub nodes: &'a [u32],
    pub dists: &'a [f64],
    pub weights: &'a [f64],
    pub rank_of: &'a [f64],
}

/// Owned full-width columns and the rank table — what [`decode`] returns.
#[derive(Clone, Default)]
pub(super) struct Columns {
    pub offsets: Vec<u32>,
    pub nodes: Vec<u32>,
    pub dists: Vec<f64>,
    pub weights: Vec<f64>,
    pub rank_of: Vec<f64>,
}

/// Consecutive entries of the `(nodes, dists, weights)` columns,
/// borrowed mutably: what a block decodes into.
type EntriesMut<'a> = (&'a mut [u32], &'a mut [f64], &'a mut [f64]);

/// Splits the first `len` entries off the front of `rest`.
fn split_front<'a>(rest: &mut EntriesMut<'a>, len: usize) -> EntriesMut<'a> {
    let (nodes, dists, weights) = std::mem::take(rest);
    let (n, d, w) = (
        nodes.split_at_mut(len),
        dists.split_at_mut(len),
        weights.split_at_mut(len),
    );
    *rest = (n.1, d.1, w.1);
    (n.0, d.0, w.0)
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// The body of one v2 image, sliced: the small metadata tables decoded
/// into owned vectors, the compressed blob borrowed from the image.
struct Body<'a> {
    tags: Tags,
    rows_per_block: usize,
    /// The CSR entry offsets (`n + 1` values, the v1 column).
    offsets: Vec<u32>,
    /// The per-node rank table (`n` values).
    rank_of: Vec<f64>,
    /// Sorted distinct distance bit patterns (empty under `DistTag::Raw`).
    dict: Vec<f64>,
    /// `num_blocks + 1` blob-relative byte offsets; block `b`'s encoding
    /// is `blob[block_offsets[b]..block_offsets[b+1]]`. Checked monotone
    /// and in-bounds at every load level, so block slicing is infallible.
    block_offsets: Vec<u64>,
    blob: &'a [u8],
}

/// Splits the next `len` bytes off `rest`. `len` derives from untrusted
/// header fields, so it is compared with what the image really holds
/// before anything is sliced or allocated.
fn take<'a>(rest: &mut &'a [u8], len: u64, whole: u64) -> Result<&'a [u8], FrozenError> {
    if len > rest.len() as u64 {
        return Err(FrozenError::Truncated {
            expected: (whole - rest.len() as u64).saturating_add(len),
            actual: whole,
        });
    }
    let (head, tail) = rest.split_at(len as usize);
    *rest = tail;
    Ok(head)
}

impl<'a> Body<'a> {
    /// Slices a complete v2 image (`buf` is the whole file, its 40
    /// common header bytes already parsed into `n` and `entries`) and
    /// runs every check that does not need the blocks decoded: exact
    /// length, the rank table's mantissas, the block-offset table, and
    /// the entry count against the blob length. Runs at **every** load
    /// level.
    fn parse(buf: &'a [u8], n: usize, entries: usize) -> Result<Self, FrozenError> {
        let whole = buf.len() as u64;
        let mut rest = &buf[HEADER_LEN..];
        // n, D and the block count fit a u32, so the u64 products below
        // cannot overflow.
        let extra = take(&mut rest, 8, whole)?.try_into().expect("8 bytes");
        let (tags, rpb) = parse_extra(extra)?;
        let num_blocks = n.div_ceil(rpb as usize) as u64;

        let offsets = take(&mut rest, (n as u64 + 1) * 4, whole)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte")))
            .collect();

        let rank_of = match tags.rank {
            RankTag::Fixed7 => {
                let mut rank_of = Vec::with_capacity(n);
                for c in take(&mut rest, n as u64 * 7, whole)?.chunks_exact(7) {
                    let m = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], 0]);
                    if m > 1 << 53 {
                        return Err(FrozenError::Corrupt("rank mantissa exceeds 2^53".into()));
                    }
                    rank_of.push(m as f64 * RANK_INV_SCALE);
                }
                rank_of
            }
            RankTag::Raw => raw_f64s(take(&mut rest, n as u64 * 8, whole)?),
        };

        let d = take(&mut rest, 4, whole)?.try_into().expect("4 bytes");
        let d = u32::from_le_bytes(d) as u64;
        if d > entries.max(1) as u64 {
            return Err(FrozenError::Corrupt(format!(
                "distance dictionary of {d} values exceeds the entry count {entries}"
            )));
        }
        let dict = raw_f64s(take(&mut rest, d * 8, whole)?);

        let block_offsets: Vec<u64> = take(&mut rest, (num_blocks + 1) * 8, whole)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte")))
            .collect();

        let blob_len = take(&mut rest, 8, whole)?.try_into().expect("8 bytes");
        let blob_len = u64::from_le_bytes(blob_len);
        check_block_offsets(&block_offsets, blob_len)?;
        let blob = take(&mut rest, blob_len, whole)?;
        if !rest.is_empty() {
            return Err(FrozenError::Corrupt(format!(
                "{} trailing bytes after the payload",
                rest.len()
            )));
        }
        // `decode` allocates its columns by `entries`: bound that by the
        // bytes actually present before it does. No entry takes fewer
        // than 3 blob bytes: a 2-byte distance code and a 1-byte node
        // varint.
        if entries as u64 * 3 > blob_len {
            return Err(FrozenError::Corrupt(format!(
                "{entries} entries cannot fit a {blob_len}-byte blob (at least 3 bytes each)"
            )));
        }
        Ok(Self {
            tags,
            rows_per_block: rpb as usize,
            offsets,
            rank_of,
            dict,
            block_offsets,
            blob,
        })
    }

    /// The encoded bytes of block `b`.
    fn block_span(&self, b: usize) -> &'a [u8] {
        &self.blob[self.block_offsets[b] as usize..self.block_offsets[b + 1] as usize]
    }
}

/// The rows block `b` covers, for `rows_per_block` rows per block over
/// `n` rows.
fn block_rows(b: usize, rows_per_block: usize, n: usize) -> Range<usize> {
    (b * rows_per_block).min(n)..((b + 1) * rows_per_block).min(n)
}

/// The entries the blocks `blocks` of a store with CSR `offsets` cover.
fn block_entries(blocks: &Range<usize>, rows_per_block: usize, offsets: &[u32]) -> Range<usize> {
    let row = |b: usize| (b * rows_per_block).min(offsets.len() - 1);
    offsets[row(blocks.start)] as usize..offsets[row(blocks.end)] as usize
}

/// What decoding any block of one image takes besides its bytes: the
/// column tags, the distance dictionary, the CSR offsets, which say
/// where each row starts, and the `k` and rank table the weights derive
/// from.
#[derive(Clone, Copy)]
struct Codec<'a> {
    tags: Tags,
    k: usize,
    dict: &'a [f64],
    offsets: &'a [u32],
    rank_of: &'a [f64],
}

impl Codec<'_> {
    /// Decodes block `b` (the rows `rows`, encoded as `span`) into
    /// `out`, exactly the block's entries.
    /// The one block decoder: every v2 load level and the encoder's
    /// self-check run it. It checks as it decodes and fails on the first
    /// fault: the section lengths tile the span; each fixed-width section
    /// holds one value per entry and a derived weight column none;
    /// dictionary codes are in range; varints are canonical and the node
    /// section ends with its last row; every node id is below `n` before
    /// the weights gather its rank; with `check_order`, every row's
    /// canonical `(dist, node)` order.
    fn decode_block(
        &self,
        b: usize,
        rows: Range<usize>,
        span: &[u8],
        out: EntriesMut<'_>,
        check_order: bool,
    ) -> Result<(), FrozenError> {
        let base = self.offsets[rows.start] as usize;
        let count = self.offsets[rows.end] as usize - base;
        let (nodes, dists, weights) = out;
        debug_assert!(nodes.len() == count && dists.len() == count && weights.len() == count);
        let n = self.rank_of.len();
        let corrupt = |what: String| FrozenError::Corrupt(format!("block {b}: {what}"));
        let Some([sec_d, sec_n, sec_w]) = split_sections(span) else {
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
        let code_at = |code: usize| {
            self.dict
                .get(code)
                .copied()
                .ok_or_else(|| corrupt(format!("dist code {code} out of dictionary")))
        };
        let node_id = |id: u64| {
            (id < n as u64)
                .then_some(id as u32)
                .ok_or_else(|| corrupt(format!("node id {id} out of range for {n} nodes")))
        };
        let row_span =
            |v: usize| self.offsets[v] as usize - base..self.offsets[v + 1] as usize - base;

        // Distances first: node runs are recovered from them.
        match self.tags.dist {
            DistTag::Dict16 => {
                fixed(sec_d, 2, "dist")?;
                for (d, c) in dists.iter_mut().zip(sec_d.chunks_exact(2)) {
                    *d = code_at(u16::from_le_bytes([c[0], c[1]]) as usize)?;
                }
            }
            DistTag::Dict32 => {
                fixed(sec_d, 4, "dist")?;
                for (d, c) in dists.iter_mut().zip(sec_d.chunks_exact(4)) {
                    *d = code_at(u32::from_le_bytes(c.try_into().expect("4-byte")) as usize)?;
                }
            }
            DistTag::Raw => {
                fixed(sec_d, 8, "dist")?;
                read_raw_f64(sec_d, dists);
            }
        }

        // Nodes next: the weights gather their ranks.
        match self.tags.node {
            NodeTag::Delta => {
                let mut at = 0;
                for v in rows.clone() {
                    let row = row_span(v);
                    let (nodes, dists) = (&mut nodes[row.clone()], &dists[row]);
                    // One past the previous id, where a distance run
                    // continues (kept in a register, not re-read).
                    let mut next = 0u64;
                    for i in 0..nodes.len() {
                        let x = varint::read(sec_n, &mut at)
                            .map_err(|e| corrupt(format!("row {v} node column: {e}")))?;
                        let id = if i > 0 && dists[i].to_bits() == dists[i - 1].to_bits() {
                            next.saturating_add(x)
                        } else {
                            x
                        };
                        nodes[i] = node_id(id)?;
                        next = id + 1;
                    }
                }
                if at < sec_n.len() {
                    return Err(corrupt(format!(
                        "{} trailing bytes after the node varint stream",
                        sec_n.len() - at
                    )));
                }
            }
            NodeTag::Raw => {
                fixed(sec_n, 4, "node")?;
                for (x, c) in nodes.iter_mut().zip(sec_n.chunks_exact(4)) {
                    *x = node_id(u32::from_le_bytes(c.try_into().expect("4-byte")) as u64)?;
                }
            }
        }

        match self.tags.weight {
            WeightTag::Derived => {
                if !sec_w.is_empty() {
                    return Err(corrupt(format!(
                        "weight section is {} bytes under the derived-weight tag, which stores none",
                        sec_w.len()
                    )));
                }
                let offsets = &self.offsets[rows.start..=rows.end];
                tau_scan(self.k, offsets, nodes, self.rank_of, |i, _, tau| {
                    weights[i] = 1.0 / tau.unwrap_or(1.0)
                });
            }
            WeightTag::Raw => {
                fixed(sec_w, 8, "weight")?;
                read_raw_f64(sec_w, weights);
            }
        }
        if check_order {
            for v in rows {
                let row = row_span(v);
                super::check_row_order(v, &dists[row.clone()], &nodes[row])?;
            }
        }
        Ok(())
    }
}

/// Copies little-endian f64 bit patterns out of `sec` into `out`.
fn read_raw_f64(sec: &[u8], out: &mut [f64]) {
    for (x, c) in out.iter_mut().zip(sec.chunks_exact(8)) {
        *x = f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte")));
    }
}

/// The little-endian f64 bit patterns `bytes` holds, collected.
fn raw_f64s(bytes: &[u8]) -> Vec<f64> {
    let mut out = vec![0.0; bytes.len() / 8];
    read_raw_f64(bytes, &mut out);
    out
}

/// Decodes a complete v2 image (`buf` is the whole file, `header` its
/// parsed first 40 bytes) into full-width columns — the inverse of
/// [`encode`], and the single end of every v2 load path.
///
/// Every load level runs the same checks: exact length, the
/// block-offset table, the CSR offset invariants, the entry-count bound
/// and everything the block decoder checks, so a malformed block is an
/// error, never a store. `verify` adds the header checksum (one
/// word-at-a-time walk of the image) and the block decoder's row-order
/// check, so a verified result needs no further scan. The blocks are
/// decoded in one chunk per thread (`0`: per core), and a fault is the
/// lowest-numbered faulty block's.
pub(super) fn decode(
    buf: &[u8],
    header: &ParsedHeader,
    verify: bool,
    threads: usize,
) -> Result<Columns, FrozenError> {
    let entries = header.entries as usize;
    let body = Body::parse(buf, header.n as usize, entries)?;
    if verify {
        super::verify_image(buf, header.stored_checksum)?;
    }
    super::validate_offsets(&body.offsets, entries)?;
    // Zeroed allocations: fresh pages, each written once by its block.
    let mut cols = Columns {
        nodes: vec![0; entries],
        dists: vec![0.0; entries],
        weights: vec![0.0; entries],
        ..Columns::default()
    };
    let codec = Codec {
        tags: body.tags,
        k: header.k as usize,
        dict: &body.dict,
        offsets: &body.offsets,
        rank_of: &body.rank_of,
    };
    let (n, rpb) = (body.offsets.len() - 1, body.rows_per_block);
    let entries_of = |blocks: &Range<usize>| block_entries(blocks, rpb, &body.offsets).len();
    // One slot per chunk: its blocks, their entries, its first fault.
    let mut rest: EntriesMut = (&mut cols.nodes, &mut cols.dists, &mut cols.weights);
    let mut chunks: Vec<_> = chunk_blocks(&body.offsets, rpb, thread_count(threads))
        .into_iter()
        .map(|blocks| (split_front(&mut rest, entries_of(&blocks)), blocks, Ok(())))
        .collect();
    let threads = chunks.len();
    shard_slots(
        &mut chunks,
        threads,
        || (),
        |_, _, (out, blocks, res)| {
            *res = blocks.clone().try_for_each(|b| {
                let block = split_front(out, entries_of(&(b..b + 1)));
                let rows = block_rows(b, rpb, n);
                codec.decode_block(b, rows, body.block_span(b), block, verify)
            });
        },
    );
    chunks.into_iter().try_for_each(|(_, _, res)| res)?;
    cols.offsets = body.offsets;
    cols.rank_of = body.rank_of;
    Ok(cols)
}

/// Cuts the blocks of a store with CSR `offsets` into at most `threads`
/// contiguous chunks of about equal entry counts: a block joins the
/// chunk its first entry's share of all entries falls in. Empty stores
/// have no blocks and no chunks.
fn chunk_blocks(offsets: &[u32], rows_per_block: usize, threads: usize) -> Vec<Range<usize>> {
    let n = offsets.len() - 1;
    let entries = (offsets[n] as u64).max(1);
    let share = |b: usize| offsets[b * rows_per_block] as u64 * threads.max(1) as u64 / entries;
    let blocks: Vec<usize> = (0..n.div_ceil(rows_per_block)).collect();
    blocks
        .chunk_by(|&a, &b| share(a) == share(b))
        .map(|c| c[0]..c[c.len() - 1] + 1)
        .collect()
}

/// Splits a block span into its three sections behind the 12-byte
/// length header; `None` unless the lengths tile the span exactly.
fn split_sections(span: &[u8]) -> Option<[&[u8]; 3]> {
    if span.len() < 12 {
        return None;
    }
    let len = |i: usize| u32::from_le_bytes(span[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
    let (l0, l1, l2) = (len(0), len(1), len(2));
    if l0.checked_add(l1)?.checked_add(l2)? != span.len() - 12 {
        return None;
    }
    let (s0, rest) = span[12..].split_at(l0);
    let (s1, s2) = rest.split_at(l1);
    Some([s0, s1, s2])
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// A column some entry does not reproduce in its compressed encoding
/// (for the weights: the weights rebuilt from the rows differ).
enum Escape {
    Weight,
    Node,
}

/// Serializes `rows` to the complete v2 byte image (header, checksum
/// patched in). The rank table's tag comes from one scan of the table.
/// The encoder is optimistic about the rest: it starts from the
/// derived weight and compressed node tags and encodes the blocks in one chunk
/// per thread (`0`: per core). If an entry does not reproduce
/// bit-for-bit under its column's tag, it starts over with that column
/// escaped to raw bits, so the tags are those a verification of every
/// entry picks, whatever the chunking. Each block is decoded back and
/// compared bitwise with its source as soon as it is written, while it
/// is still in cache.
pub(super) fn encode(k: u32, rows: RowsSource<'_>, threads: usize) -> Vec<u8> {
    let entries = rows.nodes.len();
    // Distance dictionary: sorted distinct bit patterns, exact by
    // construction. Escape only when codes + dictionary would outgrow
    // raw bits (many distinct values, e.g. real-weighted graphs).
    let mut dict = distance_dictionary(rows.dists);
    let dist = if dict.len() <= 1 << 16 {
        DistTag::Dict16
    } else if dict.len() <= entries / 2 {
        DistTag::Dict32
    } else {
        dict = Vec::new();
        DistTag::Raw
    };
    let on_grid = rows.rank_of.iter().all(|&r| rank_to_m(r).is_some());
    let mut tags = Tags {
        node: NodeTag::Delta,
        dist,
        rank: if on_grid {
            RankTag::Fixed7
        } else {
            RankTag::Raw
        },
        weight: WeightTag::Derived,
    };
    let mut buf = Vec::new();
    loop {
        match encode_with(k, rows, tags, &dict, threads, &mut buf) {
            Ok(()) => return buf,
            Err(escaped) => tags = escaped,
        }
    }
}

/// One attempt of [`encode`] under fixed `tags`, into `buf` (cleared
/// first). See the layout table in the module docs of `frozen.rs`:
/// header, entry offsets, rank table, dictionary, block offsets, blob
/// length, blob. Fails with `tags` with every column some chunk found
/// unreproducible escaped.
fn encode_with(
    k: u32,
    rows: RowsSource<'_>,
    tags: Tags,
    dict: &[f64],
    threads: usize,
    buf: &mut Vec<u8>,
) -> Result<(), Tags> {
    let n = rows.offsets.len() - 1;
    let entries = rows.nodes.len();
    let rpb = DEFAULT_ROWS_PER_BLOCK as usize;
    let num_blocks = n.div_ceil(rpb);
    buf.clear();
    buf.reserve(V2_HEADER_LEN + n * 12 + dict.len() * 8 + num_blocks * 24 + entries * 8);
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
    match tags.rank {
        RankTag::Fixed7 => rows.rank_of.iter().for_each(|&r| {
            let m = rank_to_m(r).expect("the table scan picked Fixed7");
            buf.extend_from_slice(&m.to_le_bytes()[..7]);
        }),
        RankTag::Raw => put_raw_f64(rows.rank_of, buf),
    }
    buf.extend_from_slice(&(dict.len() as u32).to_le_bytes());
    for &x in dict {
        buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    // The block-offset table and the blob length, filled in below.
    let table = buf.len();
    buf.resize(table + (num_blocks + 2) * 8, 0);
    let blob = buf.len();

    let codec = Codec {
        tags,
        k: k as usize,
        dict,
        offsets: rows.offsets,
        rank_of: rows.rank_of,
    };
    // One slot per chunk: its blocks, their bytes (the first chunk's
    // behind the header tables), and the first escape it hits.
    let mut chunks: Vec<_> = chunk_blocks(rows.offsets, rpb, thread_count(threads))
        .into_iter()
        .map(|blocks| (blocks, Vec::new(), None))
        .collect();
    if let Some((_, first, _)) = chunks.first_mut() {
        *first = std::mem::take(buf);
    }
    let threads = chunks.len();
    shard_slots(
        &mut chunks,
        threads,
        || (),
        |_, _, (blocks, out, escape)| {
            *escape = encode_chunk(&codec, rows, blocks.clone(), out).err();
        },
    );
    let mut escaped = tags;
    for (_, _, escape) in &chunks {
        match escape {
            Some(Escape::Weight) => escaped.weight = WeightTag::Raw,
            Some(Escape::Node) => escaped.node = NodeTag::Raw,
            None => {}
        }
    }
    if escaped != tags {
        return Err(escaped);
    }
    let mut chunks = chunks.into_iter().map(|(_, bytes, _)| bytes);
    if let Some(first) = chunks.next() {
        *buf = first;
    }
    chunks.for_each(|bytes| buf.extend_from_slice(&bytes));
    // Each block opens with its three section lengths.
    let mut end = blob;
    for b in 1..=num_blocks {
        let len =
            |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        end += 12 + len(end) + len(end + 4) + len(end + 8);
        let at = table + b * 8;
        buf[at..at + 8].copy_from_slice(&((end - blob) as u64).to_le_bytes());
    }
    let blob_len = ((buf.len() - blob) as u64).to_le_bytes();
    buf[blob - 8..blob].copy_from_slice(&blob_len);
    let checksum = super::buffer_checksum(buf);
    buf[super::CHECKSUM_OFFSET..super::CHECKSUM_OFFSET + 8]
        .copy_from_slice(&checksum.to_le_bytes());
    Ok(())
}

/// Appends the blocks `blocks` of `rows` to `out`, each encoded under
/// `cx.tags` and self-checked: weights the block decoder does not rebuild
/// bit for bit escape their column.
fn encode_chunk(
    cx: &Codec<'_>,
    rows: RowsSource<'_>,
    blocks: Range<usize>,
    out: &mut Vec<u8>,
) -> Result<(), Escape> {
    let n = rows.offsets.len() - 1;
    let rpb = DEFAULT_ROWS_PER_BLOCK as usize;
    out.reserve(block_entries(&blocks, rpb, rows.offsets).len() * 8);
    let mut check = Columns::default();
    for b in blocks {
        let block = block_rows(b, rpb, n);
        let span = block_entries(&(b..b + 1), rpb, rows.offsets);
        let start = out.len();
        encode_block(cx, rows, block.clone(), out)?;

        // Self-check, through the decoder every load runs. Row order is
        // not checked: a trusted out-of-order store must still encode.
        check.nodes.resize(span.len(), 0);
        check.dists.resize(span.len(), 0.0);
        check.weights.resize(span.len(), 0.0);
        let into = (
            &mut check.nodes[..],
            &mut check.dists[..],
            &mut check.weights[..],
        );
        let decoded = cx.decode_block(b, block, &out[start..], into, false);
        assert!(
            decoded.is_ok()
                && check.nodes == rows.nodes[span.clone()]
                && bits_eq(&check.dists, &rows.dists[span.clone()]),
            "v2 encoder self-verification failed in block {b} ({decoded:?}) — this is a bug"
        );
        if !bits_eq(&check.weights, &rows.weights[span]) {
            return Err(Escape::Weight);
        }
    }
    Ok(())
}

/// Appends the rows `block` of `src` to `out` as one block: the 12-byte
/// section-length header, then the dist, node and weight sections under
/// `cx.tags` (a derived weight section is empty). Fails on the first
/// node run the delta tag does not reproduce.
fn encode_block(
    cx: &Codec<'_>,
    src: RowsSource<'_>,
    block: Range<usize>,
    out: &mut Vec<u8>,
) -> Result<(), Escape> {
    let span = src.offsets[block.start] as usize..src.offsets[block.end] as usize;
    let head = out.len();
    out.extend_from_slice(&[0u8; 12]);
    let mut mark = out.len();
    let mut end_section = |out: &mut Vec<u8>, s: usize| {
        let len = out.len() - mark;
        assert!(len <= u32::MAX as usize, "block section exceeds 4 GiB");
        out[head + s * 4..head + s * 4 + 4].copy_from_slice(&(len as u32).to_le_bytes());
        mark = out.len();
    };
    let row_span = |v: usize| src.offsets[v] as usize..src.offsets[v + 1] as usize;

    let dists = &src.dists[span.clone()];
    match cx.tags.dist {
        DistTag::Raw => put_raw_f64(dists, out),
        dict16_or_32 => {
            // The code of the current run of equal bits, found by a
            // search of the sorted dictionary at each run head.
            let mut code = 0u32;
            for (i, d) in dists.iter().enumerate() {
                if i == 0 || d.to_bits() != dists[i - 1].to_bits() {
                    code = cx
                        .dict
                        .binary_search_by(|x| x.total_cmp(d))
                        .expect("the dictionary holds every distance")
                        as u32;
                }
                if dict16_or_32 == DistTag::Dict16 {
                    out.extend_from_slice(&(code as u16).to_le_bytes());
                } else {
                    out.extend_from_slice(&code.to_le_bytes());
                }
            }
        }
    }
    end_section(out, 0);

    match cx.tags.node {
        NodeTag::Delta => {
            // Strictly increasing ids within a distance run; anything
            // else (only a store that skipped the canonical-order check
            // holds it) escapes the column.
            for v in block.clone() {
                let row = row_span(v);
                for i in row.clone() {
                    let same_run =
                        i > row.start && src.dists[i].to_bits() == src.dists[i - 1].to_bits();
                    let x = if !same_run {
                        src.nodes[i]
                    } else if src.nodes[i] > src.nodes[i - 1] {
                        src.nodes[i] - src.nodes[i - 1] - 1
                    } else {
                        return Err(Escape::Node);
                    };
                    varint::encode(x as u64, out);
                }
            }
        }
        NodeTag::Raw => {
            for &x in &src.nodes[span.clone()] {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    end_section(out, 1);

    match cx.tags.weight {
        WeightTag::Derived => {}
        WeightTag::Raw => put_raw_f64(&src.weights[span], out),
    }
    end_section(out, 2);
    Ok(())
}

/// Appends the little-endian bit patterns of `xs` to `out`.
fn put_raw_f64(xs: &[f64], out: &mut Vec<u8>) {
    for &x in xs {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// The sorted distinct bit patterns of `dists`. Only the head of each
/// run of equal bits is collected: every value heads some run, so the
/// heads cover them all, in whatever order the runs come, and a store
/// with a handful of distances per row sorts a few values per row
/// instead of every entry.
fn distance_dictionary(dists: &[f64]) -> Vec<f64> {
    let mut dict: Vec<f64> = dists
        .chunk_by(|a, b| a.to_bits() == b.to_bits())
        .map(|run| run[0])
        .collect();
    dict.sort_unstable_by(|a, b| a.total_cmp(b));
    dict.dedup_by_key(|x| x.to_bits());
    dict
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
    // In range, `rank · 2⁵³` is exact and at most 2⁵³, so `m` fits an
    // i64, whose float conversions are single instructions.
    let m = (rank * RANK_SCALE) as i64;
    if (m as f64 * RANK_INV_SCALE).to_bits() == rank.to_bits() {
        Some(m as u64)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

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

/// Sanity for the parsed block-offset table: monotone, starting
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::{buffer_checksum, parse_store_header, FrozenAdsSet, CHECKSUM_OFFSET};
    use crate::AdsSet;
    use adsketch_graph::generators;
    use adsketch_util::rng::{Rng64, SplitMix64};

    /// A store's columns, copied out so a test can plant faults in them.
    fn owned(store: &FrozenAdsSet) -> Columns {
        let c = store.columns();
        Columns {
            offsets: c.offsets.to_vec(),
            nodes: c.nodes.to_vec(),
            dists: c.dists.to_vec(),
            weights: c.weights.to_vec(),
            rank_of: c.rank_of.to_vec(),
        }
    }

    fn source(c: &Columns) -> RowsSource<'_> {
        RowsSource {
            offsets: &c.offsets,
            nodes: &c.nodes,
            dists: &c.dists,
            weights: &c.weights,
            rank_of: &c.rank_of,
        }
    }

    /// The two stores `multi_block_v2_images_are_pinned` pins (47 and 32
    /// blocks), with their `k`.
    fn ba3000() -> (u32, Columns) {
        let store = AdsSet::build(&generators::barabasi_albert(3000, 3, 17), 16, 5).freeze();
        (16, owned(&store))
    }

    fn weighted2000() -> (u32, Columns) {
        let g = generators::random_weighted_digraph(2000, 4, 1.0, 10.0, 23);
        (8, owned(&AdsSet::build(&g, 8, 6).freeze()))
    }

    fn decode_image(image: &[u8], verify: bool, threads: usize) -> Result<Columns, FrozenError> {
        let header = parse_store_header(image[..HEADER_LEN].try_into().unwrap())?;
        decode(image, &header, verify, threads)
    }

    fn assert_same_columns(a: &Columns, b: &Columns, what: &str) {
        assert_eq!(a.offsets, b.offsets, "{what}: offsets");
        assert_eq!(a.nodes, b.nodes, "{what}: nodes");
        assert!(bits_eq(&a.dists, &b.dists), "{what}: dists");
        assert!(bits_eq(&a.weights, &b.weights), "{what}: weights");
        assert!(bits_eq(&a.rank_of, &b.rank_of), "{what}: rank table");
    }

    /// The first entry of a row in `rows` whose distance equals the
    /// previous entry's: swapping the two ids breaks canonical order.
    fn distance_tie(c: &Columns, rows: Range<usize>) -> (usize, usize) {
        rows.flat_map(|v| {
            (c.offsets[v] as usize + 1..c.offsets[v + 1] as usize).map(move |i| (v, i))
        })
        .find(|&(_, i)| c.dists[i].to_bits() == c.dists[i - 1].to_bits())
        .expect("a distance tie")
    }

    /// The rows of block `b` at the default block size.
    fn rows_of(c: &Columns, b: usize) -> Range<usize> {
        block_rows(b, DEFAULT_ROWS_PER_BLOCK as usize, c.offsets.len() - 1)
    }

    /// Sets the first distance code of block `b` of a `Dict16` image past
    /// any dictionary and re-signs the image.
    fn plant_bad_dist_code(image: &mut [u8], b: usize) {
        let header = parse_store_header(image[..HEADER_LEN].try_into().unwrap()).unwrap();
        let body = Body::parse(image, header.n as usize, header.entries as usize).unwrap();
        assert_eq!(body.tags.dist, DistTag::Dict16);
        let at = image.len() - body.blob.len() + body.block_offsets[b] as usize + 12;
        image[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let checksum = buffer_checksum(image);
        image[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Every store encodes to the same bytes and decodes to the same
    /// columns whatever the thread count: one that splits 47 blocks
    /// unevenly, one with more threads than blocks, and an empty store.
    #[test]
    fn images_and_columns_do_not_depend_on_the_thread_count() {
        let golden = AdsSet::build(&generators::barabasi_albert(30, 2, 42), 3, 9).freeze();
        let empty = Columns {
            offsets: vec![0],
            ..Columns::default()
        };
        let (ba_k, ba) = ba3000();
        let (w_k, weighted) = weighted2000();
        let stores = [
            ("ba3000_k16", ba_k, ba, 47),
            ("weighted2000_k8", w_k, weighted, 32),
            ("golden", 3, owned(&golden), 1),
            ("empty", 4, empty, 0),
        ];
        for (name, k, cols, blocks) in stores {
            let one = encode(k, source(&cols), 1);
            assert_eq!(encode(k, source(&cols), 0), one, "{name}: every core");
            for threads in 1..=4 {
                let chunks = chunk_blocks(&cols.offsets, DEFAULT_ROWS_PER_BLOCK as usize, threads);
                assert_eq!(
                    chunks.len(),
                    threads.min(blocks),
                    "{name}: {threads} chunks"
                );
                let what = format!("{name}, {threads} threads");
                assert!(
                    encode(k, source(&cols), threads) == one,
                    "{what}: image changed"
                );
                for verify in [true, false] {
                    let back = decode_image(&one, verify, threads).expect("decodes");
                    assert_same_columns(&back, &cols, &what);
                }
            }
        }
    }

    /// An escape restarts the whole encode, whichever chunk finds it: a
    /// weight no rank explains and a broken node run, each planted in
    /// the first or the last block, give the same tags and the same
    /// bytes at every thread count.
    #[test]
    fn escapes_in_the_first_or_last_block_give_the_same_tags_at_every_thread_count() {
        let (k, base) = ba3000();
        let last = (base.offsets.len() - 1).div_ceil(DEFAULT_ROWS_PER_BLOCK as usize) - 1;
        // (block of a weight no rank explains, block of a broken node
        // run, the tags they must give)
        let cases = [
            (0, None, [0, 0, 0, 1]),
            (last, None, [0, 0, 0, 1]),
            (last, Some(0), [1, 0, 0, 1]),
            (0, Some(last), [1, 0, 0, 1]),
        ];
        for (weight_in, node_run_in, tags) in cases {
            let what = format!("weight in block {weight_in}, node run in {node_run_in:?}");
            let mut cols = base.clone();
            // Every rank is at most 1, so no 1/rank is 0.5.
            let i = cols.offsets[rows_of(&cols, weight_in).start] as usize;
            cols.weights[i] = 0.5;
            if let Some(b) = node_run_in {
                let (_, i) = distance_tie(&cols, rows_of(&cols, b));
                cols.nodes.swap(i - 1, i);
            }
            let one = encode(k, source(&cols), 1);
            assert_eq!(&one[40..44], &tags, "{what}: tags");
            for threads in 2..=4 {
                let image = encode(k, source(&cols), threads);
                assert_eq!(&image[40..44], &tags, "{what}, {threads} threads: tags");
                assert!(image == one, "{what}, {threads} threads: image changed");
                let back = decode_image(&image, false, threads).expect("a trusted decode");
                assert_same_columns(&back, &cols, &what);
            }
        }
    }

    /// The order check folded into the block decoder gives a verified
    /// decode the verdict a verified v1 load gives, at every thread
    /// count; a trusted decode still accepts the store.
    #[test]
    fn a_row_out_of_order_fails_a_verified_decode_as_it_fails_a_v1_load() {
        let (k, mut cols) = ba3000();
        let (v, i) = distance_tie(&cols, rows_of(&cols, 20));
        cols.nodes.swap(i - 1, i);
        let want = format!("node {v}: entries out of canonical (dist, node) order");
        let image = encode(k, source(&cols), 1);
        for threads in 1..=4 {
            match decode_image(&image, true, threads) {
                Err(FrozenError::Corrupt(msg)) => assert_eq!(msg, want, "{threads} threads"),
                other => panic!("{threads} threads: {:?}", other.map(|_| ())),
            }
            let trusted = decode_image(&image, false, threads).expect("a trusted decode");
            assert_same_columns(&trusted, &cols, "trusted");
        }
        let verdict = |bytes: &[u8]| {
            FrozenAdsSet::from_bytes(bytes)
                .map(drop)
                .unwrap_err()
                .to_string()
        };
        let v1 = FrozenAdsSet::from_owned_cols(
            k,
            cols.offsets,
            cols.nodes,
            cols.dists,
            cols.weights,
            cols.rank_of,
        )
        .to_bytes();
        assert_eq!(verdict(&image), verdict(&v1));
        assert!(verdict(&image).ends_with(&want));
    }

    /// With faults in two blocks that different chunks decode, every
    /// thread count reports the lower block's, whichever kind of fault
    /// comes first.
    #[test]
    fn faults_in_two_chunks_report_the_lower_blocks_at_every_thread_count() {
        let (k, base) = ba3000();
        let (lo, hi) = (1, 45);
        for threads in 2..=4 {
            let chunks = chunk_blocks(&base.offsets, DEFAULT_ROWS_PER_BLOCK as usize, threads);
            let chunk_of = |b: usize| chunks.iter().position(|c| c.contains(&b));
            assert_ne!(chunk_of(lo), chunk_of(hi), "{threads} threads");
        }
        for (order_in, code_in) in [(lo, hi), (hi, lo)] {
            let mut cols = base.clone();
            let (v, i) = distance_tie(&cols, rows_of(&cols, order_in));
            cols.nodes.swap(i - 1, i);
            let mut image = encode(k, source(&cols), 1);
            plant_bad_dist_code(&mut image, code_in);
            let order = format!("node {v}: entries out of canonical (dist, node) order");
            let code = format!("block {code_in}: dist code 65535 out of dictionary");
            for threads in 1..=4 {
                let msg = |verify: bool| match decode_image(&image, verify, threads) {
                    Err(FrozenError::Corrupt(msg)) => msg,
                    other => panic!("{threads} threads: {:?}", other.map(|_| ())),
                };
                // A trusted decode checks no order: only the code fault.
                assert_eq!(msg(false), code, "trusted, {threads} threads");
                let first = if order_in < code_in { &order } else { &code };
                assert_eq!(&msg(true), first, "verified, {threads} threads");
            }
        }
    }

    /// `decode` sizes its columns by the header's entry count, so
    /// `Body::parse` first bounds it by the blob at 3 bytes per entry (a
    /// 2-byte distance code and a 1-byte node varint): one entry more
    /// than that is `Corrupt` at every load level, before any column is
    /// allocated.
    #[test]
    fn an_undersized_blob_is_corrupt_before_the_columns_are_allocated() {
        let (k, cols) = ba3000();
        let mut image = encode(k, source(&cols), 1);
        let n = cols.offsets.len() - 1;
        let blob = Body::parse(&image, n, cols.nodes.len())
            .expect("parses")
            .blob
            .len();
        let fits = blob / 3;
        assert!(Body::parse(&image, n, fits).is_ok(), "{fits} entries fit");
        let want = format!(
            "{} entries cannot fit a {blob}-byte blob (at least 3 bytes each)",
            fits + 1
        );
        match Body::parse(&image, n, fits + 1).err() {
            Some(FrozenError::Corrupt(msg)) => assert_eq!(msg, want),
            other => panic!("{other:?}"),
        }
        image[24..32].copy_from_slice(&(fits as u64 + 1).to_le_bytes());
        for verify in [true, false] {
            match decode_image(&image, verify, 1).err() {
                Some(FrozenError::Corrupt(msg)) => assert_eq!(msg, want, "verify {verify}"),
                other => panic!("verify {verify}: {other:?}"),
            }
        }
    }

    /// Rows whose distances go up and down (as in a store that skipped
    /// the canonical-order check), with repeats inside and across rows:
    /// the run heads give the same dictionary as sorting every distance,
    /// and so does the dictionary the encoder writes.
    #[test]
    fn run_head_dictionary_matches_sort_all_dedup() {
        let pool = [3.0, 0.0, -0.0, 1.0, 2.5, f64::INFINITY, 0.125, 1e300];
        let mut rng = SplitMix64::new(41);
        let mut offsets = vec![0u32];
        let mut dists: Vec<f64> = Vec::new();
        for _ in 0..40 {
            for _ in 0..rng.range_usize(12) {
                let d = match rng.range_usize(4) {
                    0 => rng.unit_f64(),
                    _ => pool[rng.range_usize(pool.len())],
                };
                dists.extend(std::iter::repeat_n(d, 1 + rng.range_usize(3)));
            }
            offsets.push(dists.len() as u32);
        }
        assert!(
            dists.windows(2).any(|w| w[0] > w[1]),
            "rows must be non-monotone"
        );
        let mut expected = dists.clone();
        expected.sort_unstable_by(|a, b| a.total_cmp(b));
        expected.dedup_by_key(|x| x.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&distance_dictionary(&dists)), bits(&expected));

        let zeros = vec![0u32; dists.len()];
        let fzeros = vec![0.0f64; dists.len()];
        let rank_of = vec![0.0f64; offsets.len() - 1];
        let rows = RowsSource {
            offsets: &offsets,
            nodes: &zeros,
            dists: &dists,
            weights: &fzeros,
            rank_of: &rank_of,
        };
        let image = encode(4, rows, 0);
        let body = Body::parse(&image, offsets.len() - 1, dists.len()).expect("parses");
        assert_eq!(body.tags.dist, DistTag::Dict16);
        assert_eq!(bits(&body.dict), bits(&expected));
    }
}
