//! The blocking query client: batched requests, optional pipelining.
//!
//! [`Client::connect`] performs the version handshake; the typed helpers
//! ([`Client::harmonic`], [`Client::cardinality`], …) each send one
//! request frame and block on its response. [`Client::pipeline`] sends a
//! whole slice of requests before reading any response — the server
//! answers in order, so deep pipelines amortize the round trip without
//! any client-side bookkeeping.
//!
//! Answers arrive as `f64::to_bits` payloads, so everything a helper
//! returns is bitwise identical to the same batch evaluated locally with
//! [`adsketch_core::QueryEngine`] on the unsharded store.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use adsketch_core::centrality::DecayKernel;
use adsketch_graph::NodeId;

use crate::error::ServeError;
use crate::proto::{read_frame, write_frame, Request, Response, WIRE_MAGIC, WIRE_VERSION};

/// A reader that gives up once `deadline` passes (`None`: never). The
/// socket's read timeout is the client's bound, so a read that starts
/// before the deadline ends within one more bound: a message read
/// through it fails within twice the bound however the peer spaces its
/// bytes, and the read path makes no syscall beyond its reads.
struct DeadlineRead<'a> {
    reader: &'a mut BufReader<TcpStream>,
    deadline: Option<Instant>,
}

impl<'a> DeadlineRead<'a> {
    /// A deadline one bound (`bound_ns`, `0` for none) from now.
    fn new(reader: &'a mut BufReader<TcpStream>, bound_ns: &AtomicU64) -> Self {
        let ns = bound_ns.load(Ordering::Relaxed);
        let deadline = (ns > 0).then(|| Instant::now() + Duration::from_nanos(ns));
        Self { reader, deadline }
    }

    /// Reads and decodes one response frame.
    fn response(mut self) -> Result<Response, ServeError> {
        decode_response(read_frame(&mut self)?)
    }
}

impl Read for DeadlineRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let timed_out =
            || std::io::Error::new(std::io::ErrorKind::TimedOut, "response deadline exceeded");
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(timed_out());
        }
        self.reader.read(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock => timed_out(),
            _ => e,
        })
    }
}

/// Decodes one response frame body; `None` (end of stream before any
/// byte of a frame) means the server hung up on the request.
fn decode_response(body: Option<Vec<u8>>) -> Result<Response, ServeError> {
    let body = body.ok_or_else(|| {
        ServeError::Protocol("server closed the connection before responding".into())
    })?;
    Response::decode(&body)
}

/// A blocking connection to an `adsketch-serve` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// A third handle onto the same socket, used to unwedge a pipeline
    /// whose reader failed while the writer is still blocked.
    stream: TcpStream,
    /// The bound on reading one response frame, in nanoseconds (`0`:
    /// none). The socket's read timeout always equals it.
    read_timeout_ns: AtomicU64,
}

impl Client {
    /// Connects and performs the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        Self::handshake(stream, None)
    }

    /// Like [`Client::connect`], but bounds the TCP connect **and the
    /// whole handshake reply** by `timeout` — a backend that is down
    /// fails fast instead of waiting out the OS default (which can be
    /// minutes), and a backend that accepts the connection but never
    /// answers the handshake, or drips it, cannot hang the caller either
    /// (it gives up within twice `timeout`, as
    /// [`Client::set_read_timeout`] describes). The handshake bound is
    /// cleared before returning; use [`Client::set_read_timeout`] to
    /// bound subsequent responses.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Self, ServeError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        let client = Self::handshake(stream, Some(timeout))?;
        client.set_read_timeout(None)?;
        Ok(client)
    }

    fn handshake(stream: TcpStream, timeout: Option<Duration>) -> Result<Self, ServeError> {
        stream.set_nodelay(true)?;
        let mut client = Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream.try_clone()?),
            stream,
            read_timeout_ns: AtomicU64::new(0),
        };
        client.set_read_timeout(timeout)?;
        client.writer.write_all(&WIRE_MAGIC)?;
        client.writer.write_all(&WIRE_VERSION.to_le_bytes())?;
        client.writer.flush()?;
        let mut reply = [0u8; 5];
        let mut rx = DeadlineRead::new(&mut client.reader, &client.read_timeout_ns);
        rx.read_exact(&mut reply).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ServeError::Protocol("server closed during handshake".into())
            } else {
                ServeError::Io(e)
            }
        })?;
        let server_version = u32::from_le_bytes(reply[1..5].try_into().expect("4B"));
        if reply[0] != 1 {
            return Err(ServeError::Protocol(format!(
                "server rejected the handshake (it speaks protocol version {server_version}, \
                 we speak {WIRE_VERSION})"
            )));
        }
        Ok(client)
    }

    /// Bounds every subsequent response: a response frame that has not
    /// arrived whole `timeout` after its read began fails, however the
    /// server spaces its bytes. The last read may still wait out one
    /// more `timeout`, so a call gives up within twice `timeout` at
    /// worst (once `timeout` for a server that sends nothing). `None`
    /// removes the bound. A response that times out surfaces as
    /// [`ServeError::Io`] with kind `TimedOut`, and leaves the
    /// connection unusable.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_read_timeout(timeout)?;
        let ns = timeout.map_or(0, |t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX));
        self.read_timeout_ns.store(ns, Ordering::Relaxed);
        Ok(())
    }

    /// Sends one request and blocks on its response frame.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        self.send(req)?;
        self.recv()
    }

    /// Writes and flushes one request frame without reading anything —
    /// half of the scatter/gather split the router uses to pipeline over
    /// many backends from one thread.
    pub(crate) fn send(&mut self, req: &Request) -> Result<(), ServeError> {
        write_frame(&mut self.writer, &req.encode())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next response frame within the read bound (the gather
    /// half). Any `Err`, a timeout included, leaves the connection
    /// unusable.
    pub(crate) fn recv(&mut self) -> Result<Response, ServeError> {
        DeadlineRead::new(&mut self.reader, &self.read_timeout_ns).response()
    }

    /// Pipelines a whole slice of requests: a scoped writer thread
    /// streams every frame while the calling thread reads responses, so
    /// arbitrarily deep pipelines can never deadlock on full socket
    /// buffers (the reader always drains while the writer fills).
    /// Responses come back index-aligned with `reqs` — the server
    /// answers strictly in order. The read bound applies to each
    /// response frame.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        let Self {
            reader,
            writer,
            stream,
            read_timeout_ns,
        } = self;
        std::thread::scope(|s| {
            let sender = s.spawn(|| -> Result<(), ServeError> {
                for req in reqs {
                    write_frame(writer, &req.encode())?;
                }
                writer.flush()?;
                Ok(())
            });
            let mut responses = Vec::with_capacity(reqs.len());
            let mut read_err = None;
            for _ in 0..reqs.len() {
                match DeadlineRead::new(reader, read_timeout_ns).response() {
                    Ok(resp) => responses.push(resp),
                    Err(e) => {
                        read_err = Some(e);
                        break;
                    }
                }
            }
            if read_err.is_some() {
                // The connection is unusable; unblock the writer thread
                // if it is wedged on a full send buffer.
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            let write_result = sender.join().expect("pipeline writer thread");
            match read_err {
                Some(e) => Err(e),
                None => {
                    write_result?;
                    Ok(responses)
                }
            }
        })
    }

    fn floats(&mut self, req: &Request) -> Result<Vec<f64>, ServeError> {
        match self.request(req)? {
            Response::Floats(xs) => Ok(xs),
            Response::Error { code, message } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected a Floats response, got {other:?}"
            ))),
        }
    }

    /// Harmonic centrality of each node in `nodes`.
    pub fn harmonic(&mut self, nodes: &[NodeId]) -> Result<Vec<f64>, ServeError> {
        self.floats(&Request::Harmonic {
            nodes: nodes.to_vec(),
        })
    }

    /// Distance-decay centrality of each node under `kernel`.
    pub fn decay(&mut self, kernel: DecayKernel, nodes: &[NodeId]) -> Result<Vec<f64>, ServeError> {
        self.floats(&Request::Decay {
            kernel,
            nodes: nodes.to_vec(),
        })
    }

    /// HIP neighborhood-cardinality estimate per `(node, distance)`
    /// query.
    pub fn cardinality(&mut self, queries: &[(NodeId, f64)]) -> Result<Vec<f64>, ServeError> {
        self.floats(&Request::Cardinality {
            queries: queries.to_vec(),
        })
    }

    /// The cumulative neighborhood function of each node.
    pub fn neighborhood_function(
        &mut self,
        nodes: &[NodeId],
    ) -> Result<Vec<Vec<(f64, f64)>>, ServeError> {
        match self.request(&Request::NeighborhoodFunction {
            nodes: nodes.to_vec(),
        })? {
            Response::Curves(curves) => Ok(curves),
            Response::Error { code, message } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected a Curves response, got {other:?}"
            ))),
        }
    }

    /// Estimated Jaccard similarity of `N_d(u)` and `N_d(v)` per pair.
    pub fn jaccard(&mut self, d: f64, pairs: &[(NodeId, NodeId)]) -> Result<Vec<f64>, ServeError> {
        self.floats(&Request::Jaccard {
            d,
            pairs: pairs.to_vec(),
        })
    }

    /// Pings the server's `0x07 Health` frame; returns the `[start, end)`
    /// node range the server owns.
    pub fn health(&mut self) -> Result<(u64, u64), ServeError> {
        match self.request(&Request::Health)? {
            Response::Health { start, end } => Ok((start, end)),
            Response::Error { code, message } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected a Health response, got {other:?}"
            ))),
        }
    }

    /// Asks which frozen generation the server currently answers from
    /// (`0` for a store that never swaps). A churn drill polls this to
    /// detect a [`crate::GenerationStore`] hot-swap landing.
    pub fn gen_info(&mut self) -> Result<u64, ServeError> {
        match self.request(&Request::GenInfo)? {
            Response::GenInfo { generation } => Ok(generation),
            Response::Error { code, message } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected a GenInfo response, got {other:?}"
            ))),
        }
    }

    /// The `(rank, node)` MinHash insertion sequence of each node's
    /// distance-≤ `d` sketch prefix (see [`Request::SketchPrefix`]).
    pub fn sketch_prefixes(
        &mut self,
        d: f64,
        nodes: &[NodeId],
    ) -> Result<Vec<Vec<(f64, NodeId)>>, ServeError> {
        match self.request(&Request::SketchPrefix {
            d,
            nodes: nodes.to_vec(),
        })? {
            Response::Sketches(seqs) => Ok(seqs),
            Response::Error { code, message } => Err(ServeError::Remote { code, message }),
            other => Err(ServeError::Protocol(format!(
                "expected a Sketches response, got {other:?}"
            ))),
        }
    }
}
