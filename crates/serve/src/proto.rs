//! Wire protocol version 1: little-endian, length-prefixed binary frames
//! over any byte stream.
//!
//! # Handshake
//!
//! Immediately after connecting, the client sends 12 bytes — the magic
//! [`WIRE_MAGIC`] (`b"ADSKWIR1"`) followed by its protocol version
//! (`u32`). The server answers with 5 bytes: a status byte (`1` accept,
//! `0` reject) followed by the server's protocol version (`u32`), and on
//! reject closes the connection. Nothing else is exchanged until the
//! handshake completes, so version negotiation can evolve without
//! guessing at frame boundaries.
//!
//! # Frames
//!
//! Every subsequent message, in both directions, is one frame:
//!
//! ```text
//! u32  body length (≤ MAX_FRAME_LEN)
//! u8   message type
//! ...  type-specific payload
//! ```
//!
//! Request types (client → server), each carrying a batch:
//!
//! | type | payload |
//! |---|---|
//! | `0x01` Harmonic | `u32 count`, then `count × u32` node ids |
//! | `0x02` Decay | `u8` kernel tag, `u64` kernel parameter bits, `u32 count`, then `count × u32` node ids |
//! | `0x03` Cardinality | `u32 count`, then `count × (u32 node, u64 distance bits)` |
//! | `0x04` NeighborhoodFunction | `u32 count`, then `count × u32` node ids |
//! | `0x05` Jaccard | `u64 distance bits`, `u32 count`, then `count × (u32 u, u32 v)` |
//! | `0x06` SketchPrefix | `u64 distance bits`, `u32 count`, then `count × u32` node ids |
//! | `0x07` Health | empty — a liveness/ownership ping |
//! | `0x08` GenInfo | empty — asks which frozen generation is being served |
//!
//! Response types (server → client):
//!
//! | type | payload |
//! |---|---|
//! | `0x81` Floats | `u32 count`, then `count × u64` — `f64::to_bits` of each answer, so transport is lossless and served answers stay **bitwise identical** to the local engine |
//! | `0x82` Curves | `u32 count`, then per curve `u32 len` + `len × (u64 dist bits, u64 value bits)` |
//! | `0x83` Sketches | `u32 count`, then per node `u32 len` + `len × (u64 rank bits, u32 node id)` |
//! | `0x85` Health | `u64 range start`, `u64 range end` — the node range this server owns |
//! | `0x86` GenInfo | `u64 generation` — the frozen generation currently served (`0` for a store that never swaps) |
//! | `0xEE` Error | `u16 code`, `u32 message length`, then the UTF-8 message |
//!
//! `SketchPrefix` is the distributed tier's join primitive: it returns,
//! per queried node `v`, the `(rank, node)` sequence of `ADS(v)`'s
//! entries within the query distance, in canonical `(dist, node)` order —
//! exactly the insertion sequence `Row::minhash_at` feeds a bottom-k
//! MinHash sketch. A router answering a Jaccard batch with a
//! *cross-shard* pair fetches each endpoint's prefix from its owning
//! backend, replays the insertions, and runs the same estimator the
//! local engine runs — so even answers that need two shards' data stay
//! bitwise identical.
//!
//! Response type `0x84` and error code `7` are retired and never reused:
//! every batch is answered whole or refused with one error frame, and
//! decoders reject `0x84` like any unknown type.
//!
//! Kernel tags encode [`DecayKernel`]: `0` Threshold (parameter = `d`),
//! `1` Exponential (parameter = `base`), `2` Harmonic, `3` Constant
//! (parameter bits are zero for the parameterless kernels).
//!
//! Requests are answered in order, one response frame per request frame,
//! so clients may pipeline any number of requests before reading.

use std::io::{Read, Write};

use adsketch_core::centrality::DecayKernel;
use adsketch_graph::NodeId;

use crate::error::ServeError;

/// Magic bytes opening the client handshake.
pub const WIRE_MAGIC: [u8; 8] = *b"ADSKWIR1";
/// The wire protocol version this build speaks.
pub const WIRE_VERSION: u32 = 1;
/// Upper bound on a frame body's length (64 MiB): reject runaway or
/// garbage length prefixes before allocating.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// Error code: unknown message type or undecodable payload.
pub const ERR_MALFORMED: u16 = 2;
/// Error code: a node id in the request is out of range for the store.
pub const ERR_NODE_RANGE: u16 = 3;
/// Error code: the batch's answer would not fit in one frame — split the
/// request into smaller batches.
pub const ERR_RESPONSE_TOO_LARGE: u16 = 4;
/// Error code: the node is inside `0..n` but this backend does not own
/// its shard range — the request was routed to the wrong backend.
pub const ERR_SHARD_RANGE: u16 = 5;
/// Error code: a shard backend required by the request could not be
/// reached (or kept failing) within the router's deadline and retry
/// budget. The whole request gets this error frame, never a partial
/// merge.
pub const ERR_BACKEND: u16 = 6;

/// Wire bytes per neighborhood-function curve point in a `Curves` answer:
/// `u64` distance bits and `u64` value bits.
pub(crate) const CURVE_POINT_BYTES: u64 = 16;
/// Wire bytes per sketch-prefix entry in a `Sketches` answer: `u64` rank
/// bits and a `u32` node id.
pub(crate) const SKETCH_ENTRY_BYTES: u64 = 12;

/// The body length of a row answer (`Curves`, `Sketches`) as a running
/// total, `5 + Σ(4 + b·len)`: a type byte and the row count, then per row
/// a length word and `b` bytes per entry.
pub(crate) struct RowsFrame {
    entry_bytes: u64,
    bytes: u64,
}

impl RowsFrame {
    /// An answer with no rows yet, at `entry_bytes` per entry.
    pub(crate) fn new(entry_bytes: u64) -> Self {
        Self {
            entry_bytes,
            bytes: 5,
        }
    }

    /// Adds a row of `len` entries; `false` once the body outgrows
    /// [`MAX_FRAME_LEN`].
    pub(crate) fn push(&mut self, len: usize) -> bool {
        self.bytes += 4 + self.entry_bytes * len as u64;
        self.bytes <= MAX_FRAME_LEN as u64
    }
}

const TYPE_HARMONIC: u8 = 0x01;
const TYPE_DECAY: u8 = 0x02;
const TYPE_CARDINALITY: u8 = 0x03;
const TYPE_NEIGHBORHOOD: u8 = 0x04;
const TYPE_JACCARD: u8 = 0x05;
const TYPE_SKETCH_PREFIX: u8 = 0x06;
const TYPE_HEALTH: u8 = 0x07;
const TYPE_GEN_INFO: u8 = 0x08;
const TYPE_FLOATS: u8 = 0x81;
const TYPE_CURVES: u8 = 0x82;
const TYPE_SKETCHES: u8 = 0x83;
const TYPE_HEALTH_REPLY: u8 = 0x85;
const TYPE_GEN_INFO_REPLY: u8 = 0x86;
const TYPE_ERROR: u8 = 0xEE;

/// One client request: a batch of queries of a single kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Harmonic centrality of each node.
    Harmonic {
        /// Queried node ids.
        nodes: Vec<NodeId>,
    },
    /// Distance-decay centrality of each node under `kernel`.
    Decay {
        /// The decay kernel applied to each distance.
        kernel: DecayKernel,
        /// Queried node ids.
        nodes: Vec<NodeId>,
    },
    /// HIP neighborhood-cardinality estimate `|N_d(v)|` per query.
    Cardinality {
        /// `(node, query distance)` pairs.
        queries: Vec<(NodeId, f64)>,
    },
    /// The cumulative neighborhood function of each node.
    NeighborhoodFunction {
        /// Queried node ids.
        nodes: Vec<NodeId>,
    },
    /// Estimated Jaccard similarity of `N_d(u)` and `N_d(v)` per pair.
    Jaccard {
        /// The query distance shared by all pairs.
        d: f64,
        /// Queried node pairs.
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// The `(rank, node)` MinHash insertion sequence of each node's
    /// distance-≤ `d` sketch prefix (the cross-shard join primitive; see
    /// the module docs).
    SketchPrefix {
        /// The query distance bounding each prefix.
        d: f64,
        /// Queried node ids.
        nodes: Vec<NodeId>,
    },
    /// A liveness/ownership ping. Servers answer [`Response::Health`]
    /// with the node range they own without touching any sketch data, so
    /// the router's health prober can verify a replica is alive *and*
    /// serving the shard it is configured for at negligible cost.
    Health,
    /// Asks which frozen generation the server currently answers from.
    /// A store that never swaps reports generation `0`; a hot-swapping
    /// [`crate::GenerationStore`] reports the generation it has pinned.
    /// Like [`Request::Health`] this touches no sketch data.
    GenInfo,
}

/// One server response (answers frame `i` pairs with request frame `i`).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One `f64` answer per query of the request batch.
    Floats(Vec<f64>),
    /// One `(distance, value)` step curve per queried node.
    Curves(Vec<Vec<(f64, f64)>>),
    /// One `(rank, node)` MinHash insertion sequence per queried node, in
    /// canonical order (answers a [`Request::SketchPrefix`]).
    Sketches(Vec<Vec<(f64, NodeId)>>),
    /// Answers [`Request::Health`]: the `[start, end)` node range this
    /// server owns (a backend reports its shard record; a router reports
    /// the full keyspace).
    Health {
        /// First owned node id.
        start: u64,
        /// One past the last owned node id.
        end: u64,
    },
    /// Answers [`Request::GenInfo`]: the frozen generation being served.
    GenInfo {
        /// The serving generation (`0` when the store never swaps).
        generation: u64,
    },
    /// The request could not be served; the connection stays usable.
    Error {
        /// Machine-readable code (`ERR_*`).
        code: u16,
        /// Human-readable description.
        message: String,
    },
}

pub(crate) fn kernel_to_wire(k: DecayKernel) -> (u8, u64) {
    match k {
        DecayKernel::Threshold(d) => (0, d.to_bits()),
        DecayKernel::Exponential { base } => (1, base.to_bits()),
        DecayKernel::Harmonic => (2, 0),
        DecayKernel::Constant => (3, 0),
    }
}

/// The inverse of [`kernel_to_wire`]. A parameterless kernel must carry
/// zero bits, so every accepted body re-encodes to itself.
pub(crate) fn kernel_from_wire(tag: u8, bits: u64) -> Result<DecayKernel, ServeError> {
    Ok(match tag {
        0 => DecayKernel::Threshold(f64::from_bits(bits)),
        1 => DecayKernel::Exponential {
            base: f64::from_bits(bits),
        },
        2 | 3 if bits != 0 => {
            return Err(ServeError::Protocol(format!(
                "decay-kernel tag {tag} takes no parameter, got bits {bits:#x}"
            )))
        }
        2 => DecayKernel::Harmonic,
        3 => DecayKernel::Constant,
        _ => {
            return Err(ServeError::Protocol(format!(
                "unknown decay-kernel tag {tag}"
            )))
        }
    })
}

/// A bounds-checked little-endian decoder over one frame body.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if self.0.len() < n {
            return Err(ServeError::Protocol(format!(
                "frame body too short: wanted {n} more bytes, have {}",
                self.0.len()
            )));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2B")))
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `count` declared inside a frame body can never describe more
    /// elements than the body has bytes for — reject before allocating.
    /// (Widened arithmetic: the count is untrusted and `count *
    /// elem_bytes` must not wrap on 32-bit targets.)
    fn count(&mut self, elem_bytes: usize) -> Result<usize, ServeError> {
        let count = self.u32()? as usize;
        if count as u64 * elem_bytes as u64 > self.0.len() as u64 {
            return Err(ServeError::Protocol(format!(
                "count {count} exceeds the frame body ({} bytes left)",
                self.0.len()
            )));
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), ServeError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes in frame body",
                self.0.len()
            )))
        }
    }
}

impl Request {
    /// Encodes the request as one frame body (type byte + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Harmonic { nodes } => {
                out.push(TYPE_HARMONIC);
                push_nodes(&mut out, nodes);
            }
            Request::Decay { kernel, nodes } => {
                out.push(TYPE_DECAY);
                let (tag, bits) = kernel_to_wire(*kernel);
                out.push(tag);
                out.extend_from_slice(&bits.to_le_bytes());
                push_nodes(&mut out, nodes);
            }
            Request::Cardinality { queries } => {
                out.push(TYPE_CARDINALITY);
                out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
                for &(v, d) in queries {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&d.to_bits().to_le_bytes());
                }
            }
            Request::NeighborhoodFunction { nodes } => {
                out.push(TYPE_NEIGHBORHOOD);
                push_nodes(&mut out, nodes);
            }
            Request::Jaccard { d, pairs } => {
                out.push(TYPE_JACCARD);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
                out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for &(u, v) in pairs {
                    out.extend_from_slice(&u.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Request::SketchPrefix { d, nodes } => {
                out.push(TYPE_SKETCH_PREFIX);
                out.extend_from_slice(&d.to_bits().to_le_bytes());
                push_nodes(&mut out, nodes);
            }
            Request::Health => out.push(TYPE_HEALTH),
            Request::GenInfo => out.push(TYPE_GEN_INFO),
        }
        out
    }

    /// Decodes one frame body into a request, rejecting unknown types,
    /// short bodies, oversized counts, and trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor(body);
        let req = match c.u8()? {
            TYPE_HARMONIC => Request::Harmonic {
                nodes: take_nodes(&mut c)?,
            },
            TYPE_DECAY => {
                let tag = c.u8()?;
                let bits = c.u64()?;
                Request::Decay {
                    kernel: kernel_from_wire(tag, bits)?,
                    nodes: take_nodes(&mut c)?,
                }
            }
            TYPE_CARDINALITY => {
                let count = c.count(12)?;
                let mut queries = Vec::with_capacity(count);
                for _ in 0..count {
                    let v = c.u32()?;
                    queries.push((v, c.f64()?));
                }
                Request::Cardinality { queries }
            }
            TYPE_NEIGHBORHOOD => Request::NeighborhoodFunction {
                nodes: take_nodes(&mut c)?,
            },
            TYPE_JACCARD => {
                let d = c.f64()?;
                let count = c.count(8)?;
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let u = c.u32()?;
                    pairs.push((u, c.u32()?));
                }
                Request::Jaccard { d, pairs }
            }
            TYPE_SKETCH_PREFIX => {
                let d = c.f64()?;
                Request::SketchPrefix {
                    d,
                    nodes: take_nodes(&mut c)?,
                }
            }
            TYPE_HEALTH => Request::Health,
            TYPE_GEN_INFO => Request::GenInfo,
            t => {
                return Err(ServeError::Protocol(format!(
                    "unknown request type {t:#04x}"
                )))
            }
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as one frame body (type byte + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Floats(xs) => {
                out.push(TYPE_FLOATS);
                out.extend_from_slice(&(xs.len() as u32).to_le_bytes());
                for &x in xs {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            Response::Curves(curves) => {
                out.push(TYPE_CURVES);
                out.extend_from_slice(&(curves.len() as u32).to_le_bytes());
                for curve in curves {
                    out.extend_from_slice(&(curve.len() as u32).to_le_bytes());
                    for &(d, v) in curve {
                        out.extend_from_slice(&d.to_bits().to_le_bytes());
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
            Response::Sketches(seqs) => {
                out.push(TYPE_SKETCHES);
                out.extend_from_slice(&(seqs.len() as u32).to_le_bytes());
                for seq in seqs {
                    out.extend_from_slice(&(seq.len() as u32).to_le_bytes());
                    for &(rank, node) in seq {
                        out.extend_from_slice(&rank.to_bits().to_le_bytes());
                        out.extend_from_slice(&node.to_le_bytes());
                    }
                }
            }
            Response::Health { start, end } => {
                out.push(TYPE_HEALTH_REPLY);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&end.to_le_bytes());
            }
            Response::GenInfo { generation } => {
                out.push(TYPE_GEN_INFO_REPLY);
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Response::Error { code, message } => {
                out.push(TYPE_ERROR);
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Decodes one frame body into a response.
    pub fn decode(body: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor(body);
        let resp = match c.u8()? {
            TYPE_FLOATS => {
                let count = c.count(8)?;
                let mut xs = Vec::with_capacity(count);
                for _ in 0..count {
                    xs.push(c.f64()?);
                }
                Response::Floats(xs)
            }
            TYPE_CURVES => {
                let count = c.count(4)?;
                let mut curves = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = c.count(16)?;
                    let mut curve = Vec::with_capacity(len);
                    for _ in 0..len {
                        let d = c.f64()?;
                        curve.push((d, c.f64()?));
                    }
                    curves.push(curve);
                }
                Response::Curves(curves)
            }
            TYPE_SKETCHES => {
                let count = c.count(4)?;
                let mut seqs = Vec::with_capacity(count);
                for _ in 0..count {
                    let len = c.count(12)?;
                    let mut seq = Vec::with_capacity(len);
                    for _ in 0..len {
                        let rank = c.f64()?;
                        seq.push((rank, c.u32()?));
                    }
                    seqs.push(seq);
                }
                Response::Sketches(seqs)
            }
            TYPE_HEALTH_REPLY => {
                let start = c.u64()?;
                Response::Health {
                    start,
                    end: c.u64()?,
                }
            }
            TYPE_GEN_INFO_REPLY => Response::GenInfo {
                generation: c.u64()?,
            },
            TYPE_ERROR => {
                let code = c.u16()?;
                let len = c.count(1)?;
                let message = String::from_utf8(c.take(len)?.to_vec())
                    .map_err(|_| ServeError::Protocol("error message is not valid UTF-8".into()))?;
                Response::Error { code, message }
            }
            t => {
                return Err(ServeError::Protocol(format!(
                    "unknown response type {t:#04x}"
                )))
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

fn push_nodes(out: &mut Vec<u8>, nodes: &[NodeId]) {
    out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    for &v in nodes {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn take_nodes(c: &mut Cursor<'_>) -> Result<Vec<NodeId>, ServeError> {
    let count = c.count(4)?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(c.u32()?);
    }
    Ok(nodes)
}

/// Writes one frame (`u32` length prefix + body) to `w`.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), ServeError> {
    if body.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(ServeError::Protocol(format!(
            "frame body of {} bytes exceeds MAX_FRAME_LEN",
            body.len()
        )));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    Ok(())
}

/// Reads one frame body from `r`. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed the connection between frames).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ServeError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(ServeError::Protocol(
                    "connection closed mid frame header".into(),
                ))
            }
            Ok(m) => filled += m,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "frame length {len} exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            ServeError::Protocol("connection closed mid frame body".into())
        }
        _ => ServeError::Io(e),
    })?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_util::rng::{Rng64, SplitMix64};

    fn roundtrip_request(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let body = resp.encode();
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn rows_frame_counts_what_the_encoder_writes() {
        let curves = vec![vec![(1.0, 2.0), (2.0, 3.5)], vec![], vec![(0.5, 1.0)]];
        let sketches = vec![vec![(0.25, 3), (0.5, 1)], vec![], vec![(1.0, 7)]];
        let cases = [
            (
                CURVE_POINT_BYTES,
                curves.iter().map(Vec::len).collect::<Vec<_>>(),
                Response::Curves(curves.clone()),
            ),
            (
                SKETCH_ENTRY_BYTES,
                sketches.iter().map(Vec::len).collect(),
                Response::Sketches(sketches.clone()),
            ),
            (CURVE_POINT_BYTES, vec![], Response::Curves(vec![])),
        ];
        for (entry_bytes, lens, resp) in cases {
            let mut frame = RowsFrame::new(entry_bytes);
            assert!(lens.iter().all(|&len| frame.push(len)));
            assert_eq!(frame.bytes, resp.encode().len() as u64, "{resp:?}");
        }
        // Past the frame limit the running total says so.
        let mut frame = RowsFrame::new(CURVE_POINT_BYTES);
        assert!(!frame.push(MAX_FRAME_LEN as usize / 16));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Harmonic {
            nodes: vec![0, 7, u32::MAX - 1],
        });
        roundtrip_request(Request::Decay {
            kernel: DecayKernel::Exponential { base: 2.5 },
            nodes: vec![3, 1, 4],
        });
        roundtrip_request(Request::Decay {
            kernel: DecayKernel::Threshold(4.25),
            nodes: vec![],
        });
        roundtrip_request(Request::Cardinality {
            queries: vec![(0, 0.0), (9, f64::INFINITY), (2, 1.5)],
        });
        roundtrip_request(Request::NeighborhoodFunction { nodes: vec![5] });
        roundtrip_request(Request::Jaccard {
            d: 3.0,
            pairs: vec![(0, 1), (2, 3)],
        });
        roundtrip_request(Request::SketchPrefix {
            d: f64::INFINITY,
            nodes: vec![0, 42],
        });
        roundtrip_request(Request::Health);
        roundtrip_request(Request::GenInfo);
    }

    #[test]
    fn responses_roundtrip_bitwise() {
        // NaN payloads survive because transport is f64::to_bits.
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let resp = Response::Floats(vec![0.0, -0.0, 1.5, nan, f64::INFINITY]);
        let body = resp.encode();
        match Response::decode(&body).unwrap() {
            Response::Floats(xs) => {
                assert_eq!(xs.len(), 5);
                assert_eq!(xs[1].to_bits(), (-0.0f64).to_bits());
                assert_eq!(xs[3].to_bits(), nan.to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        roundtrip_response(Response::Curves(vec![vec![(1.0, 2.0), (2.0, 3.5)], vec![]]));
        roundtrip_response(Response::Sketches(vec![
            vec![(0.25, 3), (0.5, 1)],
            vec![],
            vec![(1.0, 7)],
        ]));
        roundtrip_response(Response::Error {
            code: ERR_NODE_RANGE,
            message: "node 99 out of range".into(),
        });
        roundtrip_response(Response::Health {
            start: 7,
            end: u64::MAX,
        });
        roundtrip_response(Response::GenInfo { generation: 0 });
        roundtrip_response(Response::GenInfo {
            generation: u64::MAX,
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x77]).is_err());
        // Truncated body.
        let mut body = Request::Harmonic {
            nodes: vec![1, 2, 3],
        }
        .encode();
        body.pop();
        assert!(Request::decode(&body).is_err());
        // Trailing bytes.
        let mut body = Request::Harmonic { nodes: vec![1] }.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        // A count larger than the body can hold must not allocate/pass.
        let mut huge = vec![TYPE_HARMONIC];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&huge).is_err());
        assert!(Response::decode(&[0x00]).is_err());
        // Health requests carry no payload; trailing bytes are rejected.
        assert!(Request::decode(&[TYPE_HEALTH, 0]).is_err());
        // Same for GenInfo, and its reply needs its full u64.
        assert!(Request::decode(&[TYPE_GEN_INFO, 0]).is_err());
        assert!(Response::decode(&[TYPE_GEN_INFO_REPLY, 1, 2, 3]).is_err());
        // The retired type 0x84, with a body its old decoder accepted
        // (one value slot), is an unknown type like any other.
        let mut retired = vec![0x84];
        retired.extend_from_slice(&1u32.to_le_bytes());
        retired.push(0);
        retired.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert!(matches!(
            Response::decode(&retired),
            Err(ServeError::Protocol(_))
        ));
    }

    /// One mutation of `good`, chosen by `case`: a truncation, a run of
    /// its own bytes copied elsewhere, appended noise, or a few bit flips.
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
        bytes
    }

    /// Heap bytes a `Vec` holds.
    fn held<T>(v: &Vec<T>) -> usize {
        v.capacity() * std::mem::size_of::<T>()
    }

    /// Heap bytes a decoded request or response holds. Every count is
    /// checked against the bytes left before a `Vec` is sized by it, and
    /// no element is more than 6× its wire size, so a decoded body never
    /// holds more than 6 bytes per body byte.
    fn request_heap(r: &Request) -> usize {
        match r {
            Request::Harmonic { nodes }
            | Request::Decay { nodes, .. }
            | Request::NeighborhoodFunction { nodes }
            | Request::SketchPrefix { nodes, .. } => held(nodes),
            Request::Cardinality { queries } => held(queries),
            Request::Jaccard { pairs, .. } => held(pairs),
            Request::Health | Request::GenInfo => 0,
        }
    }

    fn response_heap(r: &Response) -> usize {
        match r {
            Response::Floats(xs) => held(xs),
            Response::Curves(cs) => held(cs) + cs.iter().map(held).sum::<usize>(),
            Response::Sketches(ss) => held(ss) + ss.iter().map(held).sum::<usize>(),
            Response::Error { message, .. } => message.capacity(),
            Response::Health { .. } | Response::GenInfo { .. } => 0,
        }
    }

    /// Hostile inputs, wire slice: 400 mutations each of valid request
    /// and response bodies either fail to decode, as a typed error, or
    /// decode to a value that encodes back to exactly the mutated body,
    /// within the body's allocation bound. Nothing panics.
    #[test]
    fn mutated_bodies_are_typed_errors_or_exact_roundtrips() {
        let requests = [
            Request::Harmonic {
                nodes: vec![0, 7, 1 << 20, u32::MAX - 1],
            },
            Request::Decay {
                kernel: DecayKernel::Exponential { base: 2.5 },
                nodes: vec![3, 1, 4],
            },
            Request::Decay {
                kernel: DecayKernel::Harmonic,
                nodes: vec![5],
            },
            Request::Cardinality {
                queries: vec![(0, 0.0), (9, f64::INFINITY), (2, 1.5)],
            },
            Request::NeighborhoodFunction { nodes: vec![5, 6] },
            Request::Jaccard {
                d: 3.0,
                pairs: vec![(0, 1), (2, 3)],
            },
            Request::SketchPrefix {
                d: f64::INFINITY,
                nodes: vec![0, 42],
            },
            Request::Health,
            Request::GenInfo,
        ];
        let responses = [
            Response::Floats(vec![0.0, -0.0, 1.5, f64::NAN]),
            Response::Curves(vec![vec![(1.0, 2.0), (2.0, 3.5)], vec![]]),
            Response::Sketches(vec![vec![(0.25, 3), (0.5, 1)], vec![], vec![(1.0, 7)]]),
            Response::Health { start: 7, end: 9 },
            Response::GenInfo { generation: 3 },
            Response::Error {
                code: ERR_NODE_RANGE,
                message: "node 99 out of range".into(),
            },
        ];
        let requests: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        let responses: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
        let no_panic = |what: &str, f: &dyn Fn() -> Option<(Vec<u8>, usize)>| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .unwrap_or_else(|_| panic!("{what} panicked"))
        };
        type Decoder = dyn Fn(&[u8]) -> Option<(Vec<u8>, usize)>;
        let request: &Decoder = &|b| {
            Request::decode(b)
                .ok()
                .map(|r| (r.encode(), request_heap(&r)))
        };
        let response: &Decoder = &|b| {
            Response::decode(b)
                .ok()
                .map(|r| (r.encode(), response_heap(&r)))
        };
        for (kind, goods, decode) in [
            ("request", &requests, request),
            ("response", &responses, response),
        ] {
            let mut rng = SplitMix64::new(0x5EED_0000 ^ goods.len() as u64);
            for case in 0..400 {
                let bytes = mutate(&goods[case % goods.len()], case, &mut rng);
                let what = format!("{kind} case {case} ({} bytes)", bytes.len());
                if let Some((encoded, heap)) = no_panic(&what, &|| decode(&bytes)) {
                    assert_eq!(encoded, bytes, "{what}: decoded, but not exactly");
                    assert!(heap <= 6 * bytes.len(), "{what}: {heap} heap bytes");
                }
            }
        }
    }

    /// Two bodies that used to decode to a value that encodes
    /// differently: parameter bits on a parameterless kernel, which the
    /// mutation test finds, and an error message that is not UTF-8, the
    /// same fault, which its 400 cases happen to miss.
    #[test]
    fn non_canonical_bodies_are_rejected() {
        let mut body = Request::Decay {
            kernel: DecayKernel::Constant,
            nodes: vec![1],
        }
        .encode();
        body[2] = 1;
        assert!(Request::decode(&body).is_err());
        let mut body = Response::Error {
            code: 1,
            message: "ab".into(),
        }
        .encode();
        *body.last_mut().unwrap() = 0xff;
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
        // Oversized length prefix is rejected before allocation.
        let bad = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(read_frame(&mut &bad[..]).is_err());
        // EOF mid-header.
        assert!(read_frame(&mut &[0u8, 1][..]).is_err());
    }
}
