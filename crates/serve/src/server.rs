//! The concurrent query server: `TcpListener` + a fixed worker pool.
//!
//! [`Server::run`] spawns its fixed thread pool with the same
//! `shard_slots` helper every parallel builder and the batch engine use:
//! `workers + 1` slots, one per pool thread — slot 0 runs the accept
//! loop, slots 1..=workers each run a connection worker draining a shared
//! queue. Each worker owns one connection at a time and answers its
//! request frames **in order** (clients may pipeline arbitrarily many
//! requests before reading), evaluating every batch through the same
//! [`QueryEngine`] code path local callers use, over the sharded store —
//! so served answers are bitwise identical to local ones by
//! construction.
//!
//! The pool machinery is shared: [`Server`] plugs an estimator-evaluating
//! handler into the crate-internal `serve_pool`, the distributed tier's
//! [`crate::router::Router`] plugs in a scatter/gather handler, and both
//! get identical handshake, pipelining, framing, and shutdown behavior.
//!
//! # Backend mode
//!
//! A [`Server`] is generic over its store via [`RequestStore`]. The
//! default [`ShardedStore`] owns every node; a
//! [`crate::backend::BackendStore`] owns one manifest shard range and
//! answers [`ERR_SHARD_RANGE`] for in-graph nodes routed to the wrong
//! process — so a misconfigured router fails loudly instead of serving
//! empty-row garbage.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] flips a shared flag and nudges the
//! listener awake. The accept loop stops taking connections; workers
//! notice the flag at their next frame boundary (connection sockets run
//! a short read timeout as a poll interval), finish the request in
//! flight, and exit. A frame is *committed* once any byte of it has
//! arrived, bytes the worker has already buffered included: the worker
//! keeps reading it (within a bounded drain budget) and answers it
//! before exiting, so an accepted pipeline never loses a response to
//! shutdown. [`Server::run`] returns once the pool drains.
//!
//! Frames are read with the clients' own [`crate::proto::read_frame`].
//! A frame it cannot read (say, an oversized length prefix) earns one
//! [`ERR_MALFORMED`] frame and the connection closes; an undecodable
//! body earns the same error and the connection stays open.

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use adsketch_core::{shard_slots, thread_count, AdsView, QueryEngine};
use adsketch_graph::NodeId;

use crate::error::ServeError;
use crate::proto::{
    read_frame, write_frame, Request, Response, RowsFrame, CURVE_POINT_BYTES, ERR_MALFORMED,
    ERR_NODE_RANGE, ERR_RESPONSE_TOO_LARGE, ERR_SHARD_RANGE, MAX_FRAME_LEN, SKETCH_ENTRY_BYTES,
    WIRE_MAGIC, WIRE_VERSION,
};
use crate::store::ShardedStore;

/// How often a blocked worker re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How many poll intervals a worker will wait out, after shutdown, for
/// the rest of a request whose first bytes already arrived (bounds the
/// drain at ~5 s per read against a stalled client).
const DRAIN_POLL_BUDGET: u32 = 100;

/// How long a connection keeps answering *new* requests after shutdown
/// is observed. Requests a peer pipelined before the stop flag flipped
/// deserve their answers (they were accepted), and TCP offers no marker
/// for "written before stop" — so the drain is bounded by wall clock
/// instead. Without this cap a peer that never stops writing (a router
/// under continuous client load) would postpone worker exit forever.
const STOP_DRAIN_WINDOW: Duration = Duration::from_secs(1);

/// A store a [`Server`] can answer queries over: it answers each
/// request frame and declares which node range this process owns.
///
/// The row stores ([`ShardedStore`], [`crate::BackendStore`], one
/// in-memory `FrozenAdsSet`) answer through the crate's [`AdsView`]
/// evaluator, each over its own rows. [`crate::GenerationStore`] is no
/// [`AdsView`]: it pins one snapshot per frame and hands the frame to
/// that snapshot's store, so no answer mixes two generations.
pub trait RequestStore: Send + Sync {
    /// The contiguous node range `start..end` this process holds rows
    /// for. Nodes inside `0..num_nodes` but outside this range earn an
    /// [`ERR_SHARD_RANGE`] error frame: a backend owning one manifest
    /// shard rejects the nodes it does not hold instead of silently
    /// evaluating them over empty rows.
    fn owned_range(&self) -> std::ops::Range<u64>;

    /// The frozen generation this store currently serves, reported by
    /// [`Request::GenInfo`]. A plain store loaded once never changes —
    /// generation `0`. A hot-swapping [`crate::GenerationStore`] reports
    /// the generation of the snapshot it has pinned.
    fn generation(&self) -> u64 {
        0
    }

    /// Answers one request batch.
    fn answer_request(&self, req: &Request) -> Response;
}

impl RequestStore for ShardedStore {
    /// A sharded store owns every node: the single-process topology.
    fn owned_range(&self) -> std::ops::Range<u64> {
        0..self.num_nodes() as u64
    }

    fn answer_request(&self, req: &Request) -> Response {
        answer(self, req)
    }
}

// One in-memory store can serve directly too: the dynamic-graph tier
// swaps live snapshots into a [`crate::GenerationStore`] without writing
// them to disk first, and tests compare served answers against it.
impl RequestStore for adsketch_core::FrozenAdsSet {
    fn owned_range(&self) -> std::ops::Range<u64> {
        0..self.num_nodes() as u64
    }

    fn answer_request(&self, req: &Request) -> Response {
        answer(self, req)
    }
}

/// A bound query server over a [`RequestStore`].
pub struct Server<S: RequestStore = ShardedStore> {
    listener: TcpListener,
    store: Arc<S>,
    workers: usize,
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
}

/// A condvar-backed shutdown signal. Worker threads poll the stop flag on
/// their short read timeouts, but long-sleeping auxiliary threads (the
/// router's health prober waits out a whole `probe_interval` between
/// rounds) must not inherit that poll cadence — they park on
/// [`Wake::wait_timeout`] and [`ServerHandle::shutdown`] interrupts the
/// sleep immediately via [`Wake::notify`].
#[derive(Debug, Default)]
pub(crate) struct Wake {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl Wake {
    /// Marks the signal stopped and wakes every parked waiter.
    pub(crate) fn notify(&self) {
        *self.stopped.lock().expect("wake lock") = true;
        self.cv.notify_all();
    }

    /// Sleeps `timeout` or until [`Wake::notify`], whichever comes first
    /// (a spurious wakeup sleeps on); returns whether the signal has
    /// stopped. The predicate lives under the mutex, so a notify can
    /// never slip between the check and the park.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> bool {
        let stopped = self.stopped.lock().expect("wake lock");
        let (stopped, _) = self
            .cv
            .wait_timeout_while(stopped, timeout, |stopped| !*stopped)
            .expect("wake wait");
        *stopped
    }
}

/// A cloneable handle that can stop a running [`Server`] (or
/// [`crate::router::Router`]) from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
}

impl ServerHandle {
    pub(crate) fn new(addr: SocketAddr, stop: Arc<AtomicBool>, wake: Arc<Wake>) -> Self {
        Self { addr, stop, wake }
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown: stop accepting, let workers finish
    /// the requests in flight, then return from [`Server::run`].
    /// Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify();
        // Nudge the accept loop awake; any error just means it already
        // stopped listening.
        let _ = TcpStream::connect(self.addr);
    }
}

impl<S: RequestStore> Server<S> {
    /// Binds a server to `addr` (use port 0 for an ephemeral port) with a
    /// fixed pool of `workers` connection threads (`0` ⇒ all cores).
    /// Call [`Server::run`] to start serving.
    pub fn bind(addr: impl ToSocketAddrs, store: Arc<S>, workers: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            store,
            workers: thread_count(workers).max(1),
            stop: Arc::new(AtomicBool::new(false)),
            wake: Arc::new(Wake::default()),
        })
    }

    /// The address the listener is bound to (the OS-assigned port when
    /// bound to port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread. Take it
    /// before calling [`Server::run`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle::new(
            self.listener
                .local_addr()
                .expect("bound listener has an address"),
            Arc::clone(&self.stop),
            Arc::clone(&self.wake),
        )
    }

    /// Serves until [`ServerHandle::shutdown`]. Blocks the calling
    /// thread; the fixed pool (acceptor + workers) runs scoped inside.
    /// Returns the number of connections served.
    pub fn run(self) -> std::io::Result<u64> {
        let Server {
            listener,
            store,
            workers,
            stop,
            wake: _,
        } = self;
        let served = serve_pool(&listener, workers, &stop, &|_worker| {
            let store = Arc::clone(&store);
            move |req: &Request| store.answer_request(req)
        });
        Ok(served)
    }
}

/// The shared serving pool: `workers + 1` slots — slot 0 accepts, the
/// rest each build one handler via `make_handler(worker_index)` and serve
/// connections off a shared queue through it. Returns the number of
/// connections served. Used by both [`Server`] (estimator handler) and
/// [`crate::router::Router`] (scatter/gather handler).
pub(crate) fn serve_pool<M, H>(
    listener: &TcpListener,
    workers: usize,
    stop: &AtomicBool,
    make_handler: &M,
) -> u64
where
    M: Fn(usize) -> H + Sync,
    H: FnMut(&Request) -> Response,
{
    let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
    let rx = Mutex::new(rx);
    // Each slot records how many connections its thread handled.
    let mut served = vec![0u64; workers + 1];
    shard_slots(
        &mut served,
        workers + 1,
        || (),
        |(), i, slot| {
            if i == 0 {
                // The acceptor only exits once the stop flag is set (or
                // every worker is gone), and workers poll that same flag
                // on their receive timeout — so the pool always drains.
                accept_loop(listener, &tx, stop);
            } else {
                let mut handler = make_handler(i - 1);
                *slot = worker_loop(&rx, stop, &mut handler);
            }
        },
    );
    served.iter().sum()
}

/// Accepts connections until the stop flag flips, handing each off to
/// the worker queue.
fn accept_loop(listener: &TcpListener, tx: &Sender<TcpStream>, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                if tx.send(stream).is_err() {
                    break;
                }
            }
            // Transient accept errors (peer reset mid-handshake etc.)
            // must not kill the server.
            Err(_) => continue,
        }
    }
}

/// Serves connections off the shared queue until the queue closes or the
/// stop flag flips. Returns the number of connections handled.
fn worker_loop<H: FnMut(&Request) -> Response>(
    rx: &Mutex<Receiver<TcpStream>>,
    stop: &AtomicBool,
    handler: &mut H,
) -> u64 {
    let mut served = 0u64;
    loop {
        let conn = {
            let guard = rx.lock().expect("queue lock");
            guard.recv_timeout(POLL_INTERVAL)
        };
        match conn {
            Ok(stream) => {
                served += 1;
                // A broken connection only ends that connection.
                let _ = serve_connection(stream, stop, handler);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return served;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return served,
        }
    }
}

/// A connection's read half as the server sees it: each blocking read
/// waits in [`POLL_INTERVAL`] slices (the socket's read timeout) and
/// checks the stop flag between them. Before shutdown it waits as long
/// as the peer takes. After shutdown, a read at a frame boundary is a
/// clean end of stream, and a frame that has started gets at most
/// [`DRAIN_POLL_BUDGET`] more polls.
struct Polled<'a> {
    stream: TcpStream,
    stop: &'a AtomicBool,
    /// No byte of the next frame has arrived yet (a read of `n > 0`
    /// bytes clears it).
    boundary: bool,
    /// Polls waited out after shutdown within the current frame.
    drain_polls: u32,
}

impl Read for Polled<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            let e = match self.stream.read(buf) {
                Ok(n) => {
                    self.boundary &= n == 0;
                    return Ok(n);
                }
                Err(e) => e,
            };
            match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut => {}
                ErrorKind::Interrupted => continue,
                _ => return Err(e),
            }
            // A poll interval passed without a byte.
            if !self.stop.load(Ordering::SeqCst) {
                continue;
            }
            if self.boundary {
                return Ok(0);
            }
            self.drain_polls += 1;
            if self.drain_polls >= DRAIN_POLL_BUDGET {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "shutdown drain budget exhausted mid frame",
                ));
            }
        }
    }
}

/// Handshake + request/response loop for one connection, answering each
/// decoded request through `handler`.
fn serve_connection<H: FnMut(&Request) -> Response>(
    stream: TcpStream,
    stop: &AtomicBool,
    handler: &mut H,
) -> Result<(), ServeError> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(Polled {
        stream,
        stop,
        boundary: true,
        drain_polls: 0,
    });

    // Handshake: 8-byte magic + u32 client version. End of stream here
    // (the peer hung up, or shutdown came first) is a clean close.
    let mut hello = [0u8; 12];
    if reader.read_exact(&mut hello).is_err() {
        return Ok(());
    }
    let version = u32::from_le_bytes(hello[8..12].try_into().expect("4B"));
    let accepted = hello[..8] == WIRE_MAGIC && version == WIRE_VERSION;
    writer.write_all(&[accepted as u8])?;
    writer.write_all(&WIRE_VERSION.to_le_bytes())?;
    writer.flush()?;
    if !accepted {
        return Err(ServeError::Protocol(format!(
            "handshake rejected (magic {:02x?}, version {version})",
            &hello[..8]
        )));
    }

    // Request frames, answered in order until EOF or shutdown. A frame
    // with any byte arrived (bytes already buffered count) is committed:
    // it gets its answer even if shutdown lands mid-read. After
    // shutdown, already pipelined requests keep draining for
    // [`STOP_DRAIN_WINDOW`]; then the connection closes even if the peer
    // is still writing.
    let mut stop_seen: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            let seen = *stop_seen.get_or_insert_with(Instant::now);
            if seen.elapsed() >= STOP_DRAIN_WINDOW {
                return Ok(());
            }
        }
        let boundary = reader.buffer().is_empty();
        let polled = reader.get_mut();
        polled.boundary = boundary;
        polled.drain_polls = 0;
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(()),
            // A broken frame leaves nothing to resynchronise on: say so
            // once and hang up.
            Err(e) => {
                let frame = Response::Error {
                    code: ERR_MALFORMED,
                    message: e.to_string(),
                };
                write_frame(&mut writer, &frame.encode())?;
                writer.flush()?;
                return Err(e);
            }
        };
        let response = match Request::decode(&body) {
            Ok(req) => handler(&req),
            Err(e) => Response::Error {
                code: ERR_MALFORMED,
                message: e.to_string(),
            },
        };
        // A legal request can still have an answer too big for one frame
        // (e.g. a huge neighborhood-function batch); answer with an error
        // frame instead of killing the connection.
        let mut encoded = response.encode();
        if encoded.len() as u64 > MAX_FRAME_LEN as u64 {
            encoded = Response::Error {
                code: ERR_RESPONSE_TOO_LARGE,
                message: format!(
                    "response of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit; \
                     split the batch",
                    encoded.len()
                ),
            }
            .encode();
        }
        write_frame(&mut writer, &encoded)?;
        writer.flush()?;
    }
}

/// Largest float batch whose response frame (type byte + count +
/// `count × 8` answer bits) still fits in [`MAX_FRAME_LEN`] — checked
/// *before* any estimator work, so an oversized-but-legal request costs
/// nothing but an error frame.
const MAX_FLOAT_BATCH: usize = (MAX_FRAME_LEN as usize - 5) / 8;

fn batch_too_large(count: usize) -> Option<Response> {
    (count > MAX_FLOAT_BATCH).then(|| Response::Error {
        code: ERR_RESPONSE_TOO_LARGE,
        message: format!(
            "batch of {count} answers cannot fit one response frame (max \
             {MAX_FLOAT_BATCH}); split the batch"
        ),
    })
}

/// The error frame for the first node outside `0..n` (or outside
/// `owned`, for a backend holding one shard).
fn check_nodes(
    nodes: impl IntoIterator<Item = NodeId>,
    n: u64,
    owned: &std::ops::Range<u64>,
) -> Option<Response> {
    let v = nodes
        .into_iter()
        .find(|&v| v as u64 >= n || !owned.contains(&(v as u64)))?;
    let (code, message) = if v as u64 >= n {
        (
            ERR_NODE_RANGE,
            format!("node {v} out of range (store covers {n} nodes)"),
        )
    } else {
        let (start, end) = (owned.start, owned.end);
        let message = format!("node {v} is outside this backend's shard range {start}..{end}");
        (ERR_SHARD_RANGE, message)
    };
    Some(Response::Error { code, message })
}

/// Admission: the error frame a request earns before any estimator work,
/// or `None` to answer it. The first node outside `0..n` or `owned`, in
/// wire order, wins; then a float batch whose answers cannot fit one
/// frame. The server checks against its owned range, the router against
/// the whole keyspace, so an invalid batch earns the same frame from
/// either.
pub(crate) fn reject(req: &Request, n: u64, owned: &std::ops::Range<u64>) -> Option<Response> {
    let (bad, floats) = match req {
        Request::Harmonic { nodes } | Request::Decay { nodes, .. } => (
            check_nodes(nodes.iter().copied(), n, owned),
            Some(nodes.len()),
        ),
        Request::NeighborhoodFunction { nodes } | Request::SketchPrefix { nodes, .. } => {
            (check_nodes(nodes.iter().copied(), n, owned), None)
        }
        Request::Cardinality { queries } => (
            check_nodes(queries.iter().map(|q| q.0), n, owned),
            Some(queries.len()),
        ),
        Request::Jaccard { pairs, .. } => (
            check_nodes(pairs.iter().flat_map(|&(u, v)| [u, v]), n, owned),
            Some(pairs.len()),
        ),
        Request::Health | Request::GenInfo => (None, None),
    };
    bad.or_else(|| batch_too_large(floats?))
}

/// Evaluates one request batch over the store. All estimator work runs
/// through [`QueryEngine`] — the exact code path local callers use — on
/// this worker's thread (cross-request parallelism comes from the pool).
/// Response size is bounded *before or during* evaluation: float batches
/// are rejected up front when too long, and curve/sketch batches stop
/// evaluating the moment their running encoded size would overflow a
/// frame — a legal request can never force an unbounded allocation.
pub(crate) fn answer<S: AdsView + RequestStore>(store: &S, req: &Request) -> Response {
    let owned = store.owned_range();
    if let Some(err) = reject(req, store.num_nodes() as u64, &owned) {
        return err;
    }
    let engine = QueryEngine::with_threads(store, 1);
    match req {
        Request::Harmonic { nodes } => Response::Floats(engine.harmonic_batch(nodes)),
        Request::Decay { kernel, nodes } => Response::Floats(engine.decay_batch(*kernel, nodes)),
        Request::Cardinality { queries } => Response::Floats(engine.cardinality_batch(queries)),
        Request::NeighborhoodFunction { nodes } => neighborhood_function_bounded(store, nodes),
        Request::Jaccard { d, pairs } => Response::Floats(engine.jaccard_batch(pairs, *d)),
        Request::SketchPrefix { d, nodes } => sketch_prefix_bounded(store, *d, nodes),
        // Liveness + ownership ping: no sketch data touched, so a prober
        // can hammer this cheaply.
        Request::Health => Response::Health {
            start: owned.start,
            end: owned.end,
        },
        // Equally cheap: which frozen generation this store answers from.
        Request::GenInfo => Response::GenInfo {
            generation: store.generation(),
        },
    }
}

/// The canonical overflow error for a neighborhood-function batch —
/// shared with the router so merged curve batches fail identically.
pub(crate) fn nf_too_large(batch: usize) -> Response {
    Response::Error {
        code: ERR_RESPONSE_TOO_LARGE,
        message: format!(
            "neighborhood-function batch of {batch} nodes overflows one response \
             frame; split the batch"
        ),
    }
}

/// Evaluates a neighborhood-function batch with a running encoded-size
/// bound: per-node curves are computed exactly as
/// [`QueryEngine::neighborhood_function_batch`] does (same
/// [`adsketch_core::HipRow::neighborhood_function`] call, in request
/// order, so the answers are bitwise identical), but evaluation aborts
/// with an error frame the moment the response could no longer fit one
/// frame.
fn neighborhood_function_bounded<S: AdsView>(store: &S, nodes: &[NodeId]) -> Response {
    let mut frame = RowsFrame::new(CURVE_POINT_BYTES);
    let mut curves = Vec::with_capacity(nodes.len().min(1 << 16));
    for &v in nodes {
        let curve = store.row(v).hip().neighborhood_function();
        if !frame.push(curve.len()) {
            return nf_too_large(nodes.len());
        }
        curves.push(curve);
    }
    Response::Curves(curves)
}

/// The canonical overflow error for a sketch-prefix batch — shared with
/// the router.
pub(crate) fn sketches_too_large(batch: usize) -> Response {
    Response::Error {
        code: ERR_RESPONSE_TOO_LARGE,
        message: format!(
            "sketch-prefix batch of {batch} nodes overflows one response frame; \
             split the batch"
        ),
    }
}

/// Evaluates a sketch-prefix batch with a running encoded-size bound.
/// Each sequence is exactly the `(rank, node)` insertion stream
/// [`adsketch_core::Row::minhash_at`] feeds a bottom-k sketch for the
/// same `(v, d)` — the property the router's cross-shard Jaccard replay
/// relies on.
fn sketch_prefix_bounded<S: AdsView>(store: &S, d: f64, nodes: &[NodeId]) -> Response {
    let mut frame = RowsFrame::new(SKETCH_ENTRY_BYTES);
    let mut seqs = Vec::with_capacity(nodes.len().min(1 << 16));
    for &v in nodes {
        let row = store.row(v);
        let cut = row.size_at(d);
        let seq: Vec<(f64, NodeId)> = (0..cut).map(|i| (row.rank(i), row.nodes[i])).collect();
        if !frame.push(seq.len()) {
            return sketches_too_large(nodes.len());
        }
        seqs.push(seq);
    }
    Response::Sketches(seqs)
}
