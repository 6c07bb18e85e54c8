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
//! # Block layout and the load path
//!
//! Entries are grouped into blocks of [`DEFAULT_ROWS_PER_BLOCK`] rows
//! (the row count is recorded in the header). Each block encodes its
//! entries column-major — four sections `[dists][ranks][weights][nodes]`
//! behind a 16-byte section-length header — so decoding runs four tight
//! homogeneous loops instead of a per-entry interleaved parse.
//!
//! Version 2 is a **file codec**, not a way to hold a store: this module
//! is the pair [`encode`] (columns → bytes) and [`decode`] (bytes →
//! columns). Every load path of a v2 file — `from_bytes`, buffered,
//! mapped, trusted — runs [`decode`] once over the whole image and ends
//! in the same full-width columns a freeze or a v1 load produces, so
//! queries never see the compressed form. A verified load checks each
//! block's sections and decodes it in the same pass.
//!
//! The full on-disk layout table lives in the [`super`] module docs next
//! to the v1 table.

use std::collections::HashMap;

use super::varint;
use super::{FrozenError, ParsedHeader, HEADER_LEN};
use crate::hip::TauScan;

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

/// Borrowed full-width columns — the encoder's input.
#[derive(Clone, Copy)]
pub(super) struct RowsSource<'a> {
    pub offsets: &'a [u32],
    pub nodes: &'a [u32],
    pub dists: &'a [f64],
    pub ranks: &'a [f64],
    pub weights: &'a [f64],
}

/// Owned full-width columns — what [`decode`] returns.
#[derive(Default)]
pub(super) struct Columns {
    pub offsets: Vec<u32>,
    pub nodes: Vec<u32>,
    pub dists: Vec<f64>,
    pub ranks: Vec<f64>,
    pub weights: Vec<f64>,
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
    /// length, the block-offset table, and the entry count against the
    /// blob length. Runs at **every** load level.
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

        let d = take(&mut rest, 4, whole)?.try_into().expect("4 bytes");
        let d = u32::from_le_bytes(d) as u64;
        if d > entries.max(1) as u64 {
            return Err(FrozenError::Corrupt(format!(
                "distance dictionary of {d} values exceeds the entry count {entries}"
            )));
        }
        let dict = take(&mut rest, d * 8, whole)?
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte"))))
            .collect();

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
        // `decode` reserves its columns by `entries`: bound that by the
        // bytes actually present before it does. No entry takes fewer
        // than 11 blob bytes: a 2-byte distance code, a 7-byte rank, a
        // 1-byte weight varint and a 1-byte node varint.
        if entries as u64 * 11 > blob_len {
            return Err(FrozenError::Corrupt(format!(
                "{entries} entries cannot fit a {blob_len}-byte blob (at least 11 bytes each)"
            )));
        }
        Ok(Self {
            tags,
            rows_per_block: rpb as usize,
            offsets,
            dict,
            block_offsets,
            blob,
        })
    }

    #[inline]
    fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The rows and entry span block `b` covers.
    fn block_extent(&self, b: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let lo = (b * self.rows_per_block).min(self.num_rows());
        let hi = ((b + 1) * self.rows_per_block).min(self.num_rows());
        (lo..hi, self.offsets[lo] as usize..self.offsets[hi] as usize)
    }

    /// The encoded bytes of block `b`.
    fn block_span(&self, b: usize) -> &'a [u8] {
        &self.blob[self.block_offsets[b] as usize..self.block_offsets[b + 1] as usize]
    }

    /// Decodes block `b` onto the end of `out`'s four entry columns.
    /// **Infallible by construction**: the unverified-load contract
    /// (like v1's) is that structural damage in trusted files yields
    /// garbage *values*, never panics or out-of-bounds access, so every
    /// read below is bounds-clamped and shortfalls zero-fill. Verified
    /// loads ran [`Body::check_block`] first, after which none of the
    /// fallback branches are reachable.
    fn decode_block(&self, b: usize, out: &mut Columns) {
        let (rows, entries) = self.block_extent(b);
        let count = entries.len();
        let base = out.nodes.len();
        out.nodes.resize(base + count, 0);
        out.dists.resize(base + count, 0.0);
        out.ranks.resize(base + count, 0.0);
        out.weights.resize(base + count, 1.0);
        let nodes = &mut out.nodes[base..];
        let dists = &mut out.dists[base..];
        let ranks = &mut out.ranks[base..];
        let weights = &mut out.weights[base..];

        let Some(sections) = split_sections(self.block_span(b)) else {
            return; // short/garbled block header: all-zero fill
        };
        let [sec_d, sec_r, sec_w, sec_n] = sections;

        // Distances first (node-run recovery depends on them).
        match self.tags.dist {
            DistTag::Dict16 => {
                for (i, c) in sec_d.chunks_exact(2).take(count).enumerate() {
                    let code = u16::from_le_bytes([c[0], c[1]]) as usize;
                    dists[i] = self.dict.get(code).copied().unwrap_or(0.0);
                }
            }
            DistTag::Dict32 => {
                for (i, c) in sec_d.chunks_exact(4).take(count).enumerate() {
                    let code = u32::from_le_bytes(c.try_into().expect("4-byte chunk")) as usize;
                    dists[i] = self.dict.get(code).copied().unwrap_or(0.0);
                }
            }
            DistTag::Raw => {
                for (i, c) in sec_d.chunks_exact(8).take(count).enumerate() {
                    dists[i] =
                        f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
                }
            }
        }

        match self.tags.rank {
            RankTag::Fixed7 => {
                for (i, c) in sec_r.chunks_exact(7).take(count).enumerate() {
                    let mut m = [0u8; 8];
                    m[..7].copy_from_slice(c);
                    ranks[i] = u64::from_le_bytes(m) as f64 * RANK_INV_SCALE;
                }
            }
            RankTag::Raw => {
                for (i, c) in sec_r.chunks_exact(8).take(count).enumerate() {
                    ranks[i] =
                        f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
                }
            }
        }

        match self.tags.weight {
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
                            weights[i] = 1.0 / ranks[i - back];
                        } // code 0 (or out-of-row garbage): keep 1.0
                    }
                }
            }
            WeightTag::Raw => {
                for (i, c) in sec_w.chunks_exact(8).take(count).enumerate() {
                    weights[i] =
                        f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
                }
            }
        }

        match self.tags.node {
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
                        let same_run = i > row_lo && dists[i].to_bits() == dists[i - 1].to_bits();
                        nodes[i] = if same_run {
                            (nodes[i - 1] as u64)
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
                    nodes[i] = u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
                }
            }
        }
    }

    /// Structural validation of block `b`'s compressed payload, run by
    /// every verified load before the block is decoded: the section
    /// lengths tile the block span exactly; every section parses to
    /// exactly its length with canonical varints; dictionary codes, rank
    /// magnitudes and weight back-references are in range. After this
    /// passes, none of [`Body::decode_block`]'s fallback branches are
    /// reachable. (Node-id range and canonical `(dist, node)` row order
    /// are checked on the decoded columns, by the scan v1 loads run.)
    fn check_block(&self, b: usize) -> Result<(), FrozenError> {
        let (rows, entries) = self.block_extent(b);
        let count = entries.len();
        let span = self.block_span(b);
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

        match self.tags.dist {
            DistTag::Dict16 => {
                fixed(sec_d, 2, "dist")?;
                for c in sec_d.chunks_exact(2) {
                    let code = u16::from_le_bytes([c[0], c[1]]) as usize;
                    if code >= self.dict.len() {
                        return Err(corrupt(format!("dist code {code} out of dictionary")));
                    }
                }
            }
            DistTag::Dict32 => {
                fixed(sec_d, 4, "dist")?;
                for c in sec_d.chunks_exact(4) {
                    let code = u32::from_le_bytes(c.try_into().expect("4-byte")) as usize;
                    if code >= self.dict.len() {
                        return Err(corrupt(format!("dist code {code} out of dictionary")));
                    }
                }
            }
            DistTag::Raw => fixed(sec_d, 8, "dist")?,
        }
        match self.tags.rank {
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

        match self.tags.weight {
            WeightTag::TauRef => walk_varints(
                sec_w,
                "weight",
                &self.offsets,
                rows.clone(),
                b,
                |i, code| {
                    if code as usize > i {
                        Err(format!(
                            "weight back-reference {code} reaches before entry 0"
                        ))
                    } else {
                        Ok(())
                    }
                },
            )?,
            WeightTag::Raw => fixed(sec_w, 8, "weight")?,
        }
        match self.tags.node {
            NodeTag::Delta => walk_varints(sec_n, "node", &self.offsets, rows, b, |_, _| Ok(()))?,
            NodeTag::Raw => fixed(sec_n, 4, "node")?,
        }
        Ok(())
    }
}

/// Decodes a complete v2 image (`buf` is the whole file, `header` its
/// parsed first 40 bytes) into full-width columns — the inverse of
/// [`encode`], and the single end of every v2 load path.
///
/// Always enforced: exact length, the block-offset table, the CSR
/// offset invariants and the entry-count bound, so the result can be
/// sliced by its offsets without panicking whatever the blob holds.
/// `verify` adds the header checksum (one word-at-a-time walk of the
/// image) and the per-block structural validation; the caller still
/// owes a verified store the row-order scan shared with v1.
pub(super) fn decode(
    buf: &[u8],
    header: &ParsedHeader,
    verify: bool,
) -> Result<Columns, FrozenError> {
    let entries = header.entries as usize;
    let body = Body::parse(buf, header.n as usize, entries)?;
    if verify {
        super::verify_image(buf, header.stored_checksum)?;
    }
    super::validate_offsets(&body.offsets, entries)?;
    let mut cols = Columns {
        offsets: Vec::new(),
        nodes: Vec::with_capacity(entries),
        dists: Vec::with_capacity(entries),
        ranks: Vec::with_capacity(entries),
        weights: Vec::with_capacity(entries),
    };
    for b in 0..body.block_offsets.len() - 1 {
        if verify {
            body.check_block(b)?;
        }
        body.decode_block(b, &mut cols);
    }
    cols.offsets = body.offsets;
    Ok(cols)
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
    let mut dict = distance_dictionary(rows.dists);
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

        // The dictionary code of the current distance run, looked up at
        // each run head (equal bits share one code).
        let mut code = 0u32;
        for i in span.clone() {
            let bits = rows.dists[i].to_bits();
            if tags.dist != DistTag::Raw && (i == span.start || bits != rows.dists[i - 1].to_bits())
            {
                code = code_of[&bits];
            }
            match tags.dist {
                DistTag::Dict16 => sec_d.extend_from_slice(&(code as u16).to_le_bytes()),
                DistTag::Dict32 => sec_d.extend_from_slice(&code.to_le_bytes()),
                DistTag::Raw => sec_d.extend_from_slice(&bits.to_le_bytes()),
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

    // Final insurance: parse the image back and require bit equality,
    // through the parser and block decoder `decode` runs — one block at a
    // time into a reused scratch, so the check stays cache-resident
    // instead of materializing (and page-faulting) a second store.
    let body = Body::parse(&buf, n, entries).expect("just-written image parses");
    assert!(body.offsets == rows.offsets, "v2 encoder lost the offsets");
    let mut blk = Columns::default();
    for b in 0..num_blocks {
        blk.nodes.clear();
        blk.dists.clear();
        blk.ranks.clear();
        blk.weights.clear();
        body.decode_block(b, &mut blk);
        let span = body.block_extent(b).1;
        assert!(
            blk.nodes == rows.nodes[span.clone()]
                && bits_eq(&blk.dists, &rows.dists[span.clone()])
                && bits_eq(&blk.ranks, &rows.ranks[span.clone()])
                && bits_eq(&blk.weights, &rows.weights[span]),
            "v2 encoder self-verification failed in block {b} — this is a bug"
        );
    }
    buf
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
    let m = (rank * RANK_SCALE) as u64;
    if m <= 1u64 << 53 && (m as f64 * RANK_INV_SCALE).to_bits() == rank.to_bits() {
        Some(m)
    } else {
        None
    }
}

/// Per-entry τ back-references (`0` ⇒ weight exactly 1.0; `c` ⇒ weight
/// is `1.0 / rank[i − c]`), or `None` if any entry is not reproducible
/// bit-for-bit. The expected reference is the Lemma 5.1 threshold of the
/// row's [`TauScan`], with a linear scan fallback for exact-tie corner
/// cases and non-HIP weights.
fn compute_weight_refs(k: u32, rows: RowsSource<'_>) -> Option<Vec<u32>> {
    let n = rows.offsets.len() - 1;
    let mut refs = vec![0u32; rows.weights.len()];
    let mut scan = TauScan::new((k as usize).max(1));
    for v in 0..n {
        let lo = rows.offsets[v] as usize;
        let hi = rows.offsets[v + 1] as usize;
        scan.reset();
        for (slot, i) in refs[lo..hi].iter_mut().zip(lo..hi) {
            let w = rows.weights[i];
            let row_i = (i - lo) as u32;
            let code = if w.to_bits() == 1.0f64.to_bits() {
                0
            } else {
                let candidate = scan
                    .threshold()
                    .filter(|&(r, _)| (1.0 / r).to_bits() == w.to_bits())
                    .map(|(_, j)| row_i - j);
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
            scan.offer(rows.ranks[i], row_i);
        }
    }
    Some(refs)
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
    use adsketch_util::rng::{Rng64, SplitMix64};

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
        let rows = RowsSource {
            offsets: &offsets,
            nodes: &zeros,
            dists: &dists,
            ranks: &fzeros,
            weights: &fzeros,
        };
        let image = encode(4, rows);
        let body = Body::parse(&image, offsets.len() - 1, dists.len()).expect("parses");
        assert_eq!(body.tags.dist, DistTag::Dict16);
        assert_eq!(bits(&body.dict), bits(&expected));
    }
}
