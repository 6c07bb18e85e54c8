//! The three things a load loop can talk to: a wire client, a wire client
//! that also brackets each request with the serving generation, and a
//! `QueryEngine` in process.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use adsketch::core::{AdsView, QueryEngine};
use adsketch::graph::NodeId;
use adsketch::serve::{Client, Response};

use crate::loadgen::{Answered, Answerer};
use crate::workload::{Batch, BatchKind};

/// A response slower than this is a failed operation, not a slow one.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One blocking connection to a `Server` or `Router`.
pub struct Wire {
    client: Client,
    distances: [f64; 5],
}

impl Wire {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr, distances: [f64; 5]) -> Result<Self, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("set read timeout: {e}"))?;
        Ok(Self { client, distances })
    }

    /// The serving generation the peer reports.
    pub fn generation(&mut self) -> Result<u64, String> {
        self.client.gen_info().map_err(|e| format!("gen info: {e}"))
    }

    /// The connection itself, for request types the traffic does not carry.
    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }
}

impl Answerer for Wire {
    const SPAN: &'static str = "serve.client.request";

    fn answer(&mut self, batch: &Batch) -> Result<Answered, String> {
        let request = batch.request(&self.distances);
        let sent = Instant::now();
        let response = self.client.request(&request);
        let done = Instant::now();
        match response {
            Ok(Response::Floats(floats)) => Ok(Answered {
                floats,
                gens: (0, 0),
                sent,
                done,
            }),
            Ok(other) => Err(format!("unexpected response frame: {other:?}")),
            Err(e) => Err(format!("request: {e}")),
        }
    }
}

/// A [`Wire`] against a hot-swapping server: reads the serving
/// generation before the request's send slot and again after its answer,
/// so the answer can be checked against the generations it could legally
/// come from. Both reads are off the timed path.
pub struct GenWire {
    wire: Wire,
    before: u64,
    newest: u64,
}

impl GenWire {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr, distances: [f64; 5]) -> Result<Self, String> {
        Ok(Self {
            wire: Wire::connect(addr, distances)?,
            before: 0,
            newest: 0,
        })
    }
}

impl Answerer for GenWire {
    const SPAN: &'static str = "serve.client.request";

    fn prepare(&mut self) -> Result<(), String> {
        self.before = self.wire.generation()?;
        if self.before < self.newest {
            return Err(format!(
                "serving generation went back from {} to {}",
                self.newest, self.before
            ));
        }
        Ok(())
    }

    fn answer(&mut self, batch: &Batch) -> Result<Answered, String> {
        let mut answered = self.wire.answer(batch)?;
        self.newest = self.wire.generation()?;
        answered.gens = (self.before, self.newest);
        Ok(answered)
    }
}

/// A one-thread `QueryEngine` called in process: the analyst's path, and
/// rung 0 of the ladder.
pub struct InProcess<'a, V: AdsView + Sync> {
    engine: QueryEngine<'a, V>,
    distances: [f64; 5],
}

impl<'a, V: AdsView + Sync> InProcess<'a, V> {
    /// An engine over `view`.
    pub fn new(view: &'a V, distances: [f64; 5]) -> Self {
        Self {
            engine: QueryEngine::with_threads(view, 1),
            distances,
        }
    }
}

impl<V: AdsView + Sync> Answerer for InProcess<'_, V> {
    const SPAN: &'static str = "core.engine.batch";

    fn answer(&mut self, batch: &Batch) -> Result<Answered, String> {
        let sent = Instant::now();
        let floats = match batch.kind {
            BatchKind::Harmonic => self.engine.harmonic_batch(&batch.nodes),
            BatchKind::Cardinality(d_idx) => {
                let queries: Vec<(NodeId, f64)> = batch
                    .nodes
                    .iter()
                    .map(|&v| (v, self.distances[d_idx]))
                    .collect();
                self.engine.cardinality_batch(&queries)
            }
        };
        Ok(Answered {
            floats,
            gens: (0, 0),
            sent,
            done: Instant::now(),
        })
    }
}
