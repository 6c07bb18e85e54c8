//! The stateless scatter/gather router of the distributed tier.
//!
//! A [`Router`] binds the ordinary `ADSKWIR1` listener — clients cannot
//! tell it from a single-process [`crate::Server`] — but holds **no
//! sketch data**. It keeps only the `ADSKSHD1` manifest's node-range
//! table plus a **replica set** of backend addresses per shard. Each
//! worker thread owns a lazily-connected [`crate::Client`] per endpoint.
//!
//! # One request path
//!
//! An incoming batch passes the single-process server's own admission
//! check, over the whole keyspace. Every batch kind then takes the same
//! steps:
//!
//! 1. **Cache hits.** For the float kinds (harmonic, decay, cardinality,
//!    Jaccard), items the answer cache holds go straight into their
//!    output slots; only the misses go on.
//! 2. **Partition.** The misses are grouped by owning shard, each group
//!    in request order.
//! 3. **Scatter.** Each shard gets one leg of the same kind and
//!    parameters over its own items, also when one shard owns them all.
//!    All legs are sent before any answer is read, and since no shard
//!    gets two, no backend connection ever carries more than one frame
//!    in flight.
//! 4. **Merge.** One merge for every kind: each leg's answers land at
//!    their request indices, in the slots that already hold the cache
//!    hits, and the first failed leg fails the whole request. Curves and
//!    sketch prefixes must also fit one frame.
//! 5. **Cache fill.** Served float answers go into the cache. A failed
//!    batch adds nothing.
//!
//! A Jaccard pair whose endpoints live on different shards has no single
//! owner. A batch whose misses hold such a pair takes its own cold step
//! in place of steps 2–3: one `SketchPrefix` leg to each shard that owns
//! an endpoint, then every missed pair computed at the router from the
//! replayed prefixes, merged as one more part.
//!
//! # Merge guarantee
//!
//! Every merged answer is **bitwise identical** to the single-process
//! engine on the unsharded store:
//!
//! * Per-node requests (harmonic, decay, cardinality, neighborhood
//!   function, sketch prefix) are answered entirely by each node's
//!   owning shard, whose replicas hold byte-for-byte the unsharded rows —
//!   merging is pure index placement, no arithmetic. Because replicas of
//!   a shard are interchangeable *bitwise*, the router is free to spread
//!   legs across them or fail a leg over — neither of which can change a
//!   single answer bit.
//! * A Jaccard batch whose pairs each sit on one shard goes to those
//!   shards like a per-node batch. A batch with a **cross-shard** pair is
//!   answered whole by fetching each endpoint's `(rank, node)` sketch
//!   prefix from its owner and replaying the insertions into the same
//!   bottom-k sketch [`Row::minhash_at`] builds locally. The paper's
//!   sketches are coordinated (every node's sketch draws on one rank per
//!   node), so the similarity, computed by the same `adsketch_minhash`
//!   routine the local engine calls on identical sketches, is the same
//!   bits whichever shards the endpoints live on.
//!
//! [`Row::minhash_at`]: adsketch_core::Row::minhash_at
//!
//! # Replica sets, failover, and health
//!
//! `Router::bind` takes one *list* of addresses per shard. Legs
//! round-robin across a shard's healthy replicas. Each attempt of a leg
//! reads one whole answer frame; a failed attempt fails the endpoint and
//! sends the leg to the next replica in line, and a leg to a shard of
//! `R` replicas makes at most 2 × `R` attempts, whether it is one of
//! many, carries a batch one shard owns, or re-fetches sketch prefixes.
//! An attempt answered with [`ERR_SHARD_RANGE`] fails over the same way:
//! the router sends a shard only the nodes the manifest assigns it, so
//! that replica serves another shard, and it is fenced on the spot.
//!
//! A shared circuit breaker (the crate-internal `health` module) tracks
//! every endpoint, and [`RouterConfig::probe_interval`] is its one clock.
//! A failed attempt cools its endpoint for one interval (workers prefer
//! other replicas meanwhile), and three consecutive failures open its
//! circuit, after which no worker dials it. Only the background prober
//! closes a circuit: once per interval it opens one fresh connection to
//! every endpoint and pipelines `Health` then `GenInfo`. A `Health`
//! answer with the manifest's range closes the circuit; one with another
//! range fences the endpoint; no answer changes nothing. A dead endpoint
//! therefore sees one dial per interval once it is open, a healed one
//! rejoins at the next sweep, and a mis-wired one stays fenced. A
//! request that finds **every** replica of a needed shard open fails
//! fast — no connect timeouts on the hot path.
//!
//! # Failure semantics
//!
//! Backends are contacted with a bounded connect timeout, every response
//! frame is read whole within one read deadline (a replica that stalls
//! or drips its answer costs one deadline, plus at most the read under
//! way when it passes), and each leg gets at most 2 × `R` attempts
//! across its shard's `R` replicas. Every batch is answered whole or
//! refused whole: if a required shard stays unreachable, the request is
//! answered with one [`ERR_BACKEND`] error frame — never a hang, never a
//! partially merged answer — and the client's connection stays usable.
//! A batch the answer cache holds whole needs no backend, so it is still
//! answered while a shard is down.
//!
//! # Serving generation
//!
//! The same sweep tracks the fleet's **serving generation**: the minimum
//! `GenInfo` generation over the endpoints whose `Health` answer carried
//! their manifest range in that sweep, so a fenced endpoint never votes.
//! The router answers `GenInfo` from this number and tags every
//! answer-cache key with it, so a [`crate::GenerationStore`] hot-swap
//! behind the fleet retires the router's cached bits *by key
//! construction*: the serving generation advances only once every
//! answering endpoint reports the new generation, and generations only
//! move forward (a replica rejoins the fleet at the current or a newer
//! generation, never an older one), so a cached entry's bits always came
//! from the generation its key names. Static frozen fleets never swap
//! and report generation `0` forever, but still pay one fresh-connection
//! sweep per endpoint per `probe_interval`. A backend whose workers are
//! all held by router connections cannot answer the sweep until one
//! frees, because each connection holds a worker; until then its
//! exchange times out and changes nothing, so give each backend at least
//! one worker more than the router has.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adsketch_core::{thread_count, ShardManifest};
use adsketch_graph::NodeId;
use adsketch_minhash::{similarity, BottomKSketch};

use crate::cache::{AnswerCache, CacheKey, CacheStatsHandle};
use crate::client::Client;
use crate::error::ServeError;
use crate::health::{HealthTracker, Tier};
use crate::proto::{
    kernel_to_wire, Request, Response, RowsFrame, CURVE_POINT_BYTES, ERR_BACKEND,
    ERR_RESPONSE_TOO_LARGE, ERR_SHARD_RANGE, SKETCH_ENTRY_BYTES,
};
use crate::server::{nf_too_large, reject, serve_pool, sketches_too_large, ServerHandle, Wake};

/// Passes a leg makes over its shard's replica set: a leg to a shard of
/// `R` replicas makes at most `LEG_PASSES × R` attempts.
const LEG_PASSES: usize = 2;

/// Deadlines and replica-set policy for the router's backend
/// connections.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bound on each TCP connect (and handshake read) to a backend
    /// replica. Default **1 s**.
    pub connect_timeout: Duration,
    /// Deadline for one replica to deliver one whole response frame
    /// (per leg, and per prober ping); the read under way when it passes
    /// may finish first, within one more deadline. Default **2 s**.
    pub read_timeout: Duration,
    /// The circuit breaker's one clock. The prober sweeps every
    /// endpoint once per interval, a failed attempt cools its endpoint
    /// for one interval, and an endpoint whose circuit opened is dialed
    /// only by the sweep. So the interval is the cooldown, the dial rate
    /// on a dead endpoint (one per interval) and the re-adoption latency
    /// of a healed one (the next sweep). Shutdown does not wait it out:
    /// the prober is condvar-nudged. Default **100 ms**.
    pub probe_interval: Duration,
    /// Byte budget for the router's **answer cache**: a sharded LRU over
    /// per-node float answers (harmonic, decay, cardinality, Jaccard)
    /// keyed by `(request kind, parameter bits, node)`. The frozen store
    /// is immutable per generation, so cached answers never need
    /// invalidation, and because they are stored as `f64::to_bits` a hit
    /// replays the *exact* bits the backend served — a batch's hits go
    /// straight into the merge's output slots and only its misses are
    /// scattered, preserving bitwise identity verbatim. `0` disables the
    /// cache (the default: fault-injection and failover tests rely on
    /// every query reaching a backend).
    pub cache_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_millis(100),
            cache_bytes: 0,
        }
    }
}

/// A bound scatter/gather router over a fleet of shard replica sets.
pub struct Router {
    listener: TcpListener,
    manifest: Arc<ShardManifest>,
    replicas: Arc<Vec<Vec<SocketAddr>>>,
    workers: usize,
    config: RouterConfig,
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
    health: Arc<HealthTracker>,
    cache: Option<Arc<AnswerCache>>,
    /// The fleet-wide serving generation (see the module docs): advanced
    /// by the prober, read by workers for `GenInfo` answers and cache
    /// keys.
    serving_gen: Arc<AtomicU64>,
}

impl Router {
    /// Binds a router to `addr` with one replica set per manifest shard
    /// (every address in `replicas[i]` must serve shard `i`) and a fixed
    /// pool of `workers` connection threads (`0` ⇒ all cores). A replica
    /// set must not be empty; a single-address set reproduces the
    /// unreplicated topology exactly. `connect_timeout`, `read_timeout`
    /// and `probe_interval` must be positive: std refuses a zero socket
    /// timeout, and a zero interval would spin the prober.
    pub fn bind(
        addr: impl ToSocketAddrs,
        manifest: ShardManifest,
        replicas: Vec<Vec<SocketAddr>>,
        workers: usize,
        config: RouterConfig,
    ) -> Result<Self, ServeError> {
        if replicas.len() != manifest.num_shards() {
            return Err(ServeError::Store(format!(
                "router needs one replica set per shard: the manifest describes {} shards, \
                 got {} replica sets",
                manifest.num_shards(),
                replicas.len()
            )));
        }
        if let Some(shard) = replicas.iter().position(Vec::is_empty) {
            return Err(ServeError::Store(format!(
                "shard {shard} has an empty replica set; every shard needs at least one backend"
            )));
        }
        for (field, value) in [
            ("connect_timeout", config.connect_timeout),
            ("read_timeout", config.read_timeout),
            ("probe_interval", config.probe_interval),
        ] {
            if value.is_zero() {
                return Err(ServeError::Store(format!(
                    "RouterConfig::{field} must be positive, got zero"
                )));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let sizes: Vec<usize> = replicas.iter().map(Vec::len).collect();
        let health = HealthTracker::new(&sizes, config.probe_interval);
        let cache = AnswerCache::new(config.cache_bytes);
        Ok(Self {
            listener,
            manifest: Arc::new(manifest),
            replicas: Arc::new(replicas),
            workers: thread_count(workers).max(1),
            config,
            stop: Arc::new(AtomicBool::new(false)),
            wake: Arc::new(Wake::default()),
            health: Arc::new(health),
            cache,
            serving_gen: Arc::new(AtomicU64::new(0)),
        })
    }

    /// A handle onto the answer cache's hit/miss counters, or `None`
    /// when [`RouterConfig::cache_bytes`] is zero. Take it before
    /// [`Router::run`] (which consumes the router); it stays valid for
    /// the router's whole life and after shutdown.
    pub fn cache_stats(&self) -> Option<CacheStatsHandle> {
        self.cache.as_ref().map(|inner| CacheStatsHandle {
            inner: Arc::clone(inner),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this router from another thread (same
    /// graceful-shutdown contract as [`crate::Server`], plus a prompt
    /// condvar nudge for the health prober).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle::new(
            self.listener
                .local_addr()
                .expect("bound listener has an address"),
            Arc::clone(&self.stop),
            Arc::clone(&self.wake),
        )
    }

    /// Routes until [`ServerHandle::shutdown`]. Blocks the calling
    /// thread; returns the number of client connections served.
    pub fn run(self) -> std::io::Result<u64> {
        let Router {
            listener,
            manifest,
            replicas,
            workers,
            config,
            stop,
            wake,
            health,
            cache,
            serving_gen,
        } = self;
        let served = std::thread::scope(|scope| {
            let prober = scope.spawn(|| {
                prober_loop(
                    &manifest,
                    &replicas,
                    &config,
                    &health,
                    &serving_gen,
                    &stop,
                    &wake,
                )
            });
            let served = serve_pool(&listener, workers, &stop, &|_worker| {
                let mut fleet = Fleet::new(
                    Arc::clone(&manifest),
                    Arc::clone(&replicas),
                    config.clone(),
                    Arc::clone(&health),
                    cache.clone(),
                    Arc::clone(&serving_gen),
                );
                move |req: &Request| fleet.route(req)
            });
            // The pool has drained; make sure the prober exits even when
            // run() ends without a ServerHandle::shutdown call.
            stop.store(true, Ordering::SeqCst);
            wake.notify();
            prober.join().expect("prober thread");
            served
        });
        Ok(served)
    }
}

/// The background prober: wakes every `probe_interval` (or instantly on
/// shutdown, via the condvar) and sweeps every endpoint with [`probe`].
/// An endpoint that reports its manifest range is closed, and its
/// generation votes on the fleet's serving generation; one that reports
/// another range is fenced; one that does not answer is left as it is.
/// The serving generation advances to the minimum vote (`fetch_max`, so
/// it never regresses).
fn prober_loop(
    manifest: &ShardManifest,
    replicas: &[Vec<SocketAddr>],
    config: &RouterConfig,
    health: &HealthTracker,
    serving_gen: &AtomicU64,
    stop: &AtomicBool,
    wake: &Wake,
) {
    while !wake.wait_timeout(config.probe_interval) && !stop.load(Ordering::SeqCst) {
        let mut fleet_min: Option<u64> = None;
        for (shard, (reps, record)) in replicas.iter().zip(manifest.records()).enumerate() {
            for (rep, addr) in reps.iter().enumerate() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let Some((range, generation)) = probe(addr, config) else {
                    continue;
                };
                if range != (record.start, record.end) {
                    health.fence(shard, rep);
                    continue;
                }
                health.close(shard, rep);
                if let Some(g) = generation {
                    fleet_min = Some(fleet_min.map_or(g, |m| m.min(g)));
                }
            }
        }
        if let Some(g) = fleet_min {
            serving_gen.fetch_max(g, Ordering::SeqCst);
        }
    }
}

/// One endpoint's sweep exchange: a fresh connection carrying `Health`
/// then `GenInfo`, pipelined, bounded like a leg (the connect by
/// `connect_timeout`, each reply frame by `read_timeout`). The range the
/// `Health` answer reports and the generation, if that reply came too;
/// `None` when no `Health` answer came.
fn probe(addr: &SocketAddr, config: &RouterConfig) -> Option<((u64, u64), Option<u64>)> {
    let mut client = Client::connect_timeout(addr, config.connect_timeout).ok()?;
    client.set_read_timeout(Some(config.read_timeout)).ok()?;
    client.send(&Request::Health).ok()?;
    client.send(&Request::GenInfo).ok()?;
    let Ok(Response::Health { start, end }) = client.recv() else {
        return None;
    };
    let generation = match client.recv() {
        Ok(Response::GenInfo { generation }) => Some(generation),
        _ => None,
    };
    Some(((start, end), generation))
}

/// One sub-request of a scatter: the target shard plus the request to
/// send it. A scatter holds at most one leg per shard.
type Leg = (usize, Request);

/// The request indices one shard answers, in request order.
type Part = (usize, Vec<usize>);

/// A worker thread's view of the backend fleet: one lazily (re)connected
/// client per `(shard, replica)` endpoint. A scatter sends one leg per
/// shard, so no connection ever has more than one frame in flight.
struct Fleet {
    manifest: Arc<ShardManifest>,
    addrs: Arc<Vec<Vec<SocketAddr>>>,
    config: RouterConfig,
    health: Arc<HealthTracker>,
    conns: Vec<Vec<Option<Client>>>,
    /// Round-robin cursor per shard.
    rr: Vec<usize>,
    /// The router-wide answer cache (shared across workers); `None`
    /// when [`RouterConfig::cache_bytes`] is zero.
    cache: Option<Arc<AnswerCache>>,
    /// The prober-maintained fleet serving generation — read for
    /// `GenInfo` answers and to tag answer-cache keys.
    serving_gen: Arc<AtomicU64>,
}

impl Fleet {
    fn new(
        manifest: Arc<ShardManifest>,
        addrs: Arc<Vec<Vec<SocketAddr>>>,
        config: RouterConfig,
        health: Arc<HealthTracker>,
        cache: Option<Arc<AnswerCache>>,
        serving_gen: Arc<AtomicU64>,
    ) -> Self {
        let sizes: Vec<usize> = addrs.iter().map(Vec::len).collect();
        Self {
            manifest,
            addrs,
            config,
            health,
            cache,
            serving_gen,
            conns: sizes
                .iter()
                .map(|&r| (0..r).map(|_| None).collect())
                .collect(),
            rr: vec![0; sizes.len()],
        }
    }

    /// Records a failure with the circuit breaker and retires the
    /// connection (its request/response pairing can no longer be
    /// trusted).
    fn fail(&mut self, shard: usize, rep: usize) {
        self.health.record_failure(shard, rep);
        self.conns[shard][rep] = None;
    }

    /// Round-robin choice of the replica to carry the next leg to
    /// `shard`: available endpoints (circuit closed, no cooldown) first;
    /// failing that, a cooling endpoint (so a shard whose only replica
    /// just hiccuped is still dialed on demand — instant recovery);
    /// `None` when every circuit is open.
    fn pick(&mut self, shard: usize) -> Option<usize> {
        let reps = self.addrs[shard].len();
        let start = self.rr[shard];
        self.rr[shard] = (start + 1) % reps;
        let mut cooling = None;
        for i in 0..reps {
            let rep = (start + i) % reps;
            match self.health.tier(shard, rep) {
                Tier::Available => return Some(rep),
                Tier::Cooling if cooling.is_none() => cooling = Some(rep),
                _ => {}
            }
        }
        cooling
    }

    /// Sends one attempt of a leg to the replica [`Fleet::pick`] gives
    /// next, dialing it if needed, and returns that replica. A failed
    /// send fails the endpoint. `None` when every circuit is open. A
    /// fresh connection reads every response frame whole within
    /// [`RouterConfig::read_timeout`].
    fn attempt(&mut self, shard: usize, req: &Request) -> Option<Result<usize, ServeError>> {
        let rep = self.pick(shard)?;
        let conn = &mut self.conns[shard][rep];
        let res = match conn {
            Some(client) => client.send(req),
            None => Client::connect_timeout(&self.addrs[shard][rep], self.config.connect_timeout)
                .and_then(|client| {
                    client.set_read_timeout(Some(self.config.read_timeout))?;
                    conn.insert(client).send(req)
                }),
        };
        if res.is_err() {
            self.fail(shard, rep);
        }
        Some(res.map(|()| rep))
    }

    /// The attempt loop of one leg, whose first attempt the scatter sent:
    /// read one whole response frame; on a failure, fail the endpoint (or
    /// fence it, on an [`ERR_SHARD_RANGE`] answer) and send to the replica
    /// [`Fleet::pick`] gives next, until
    /// [`LEG_PASSES`] × `R` attempts are spent. A leg that finds every
    /// circuit open is [`ServeError::ShardUnavailable`], with no dial; any
    /// other failed leg is [`ServeError::Backend`] with the last error.
    fn gather(
        &mut self,
        shard: usize,
        req: &Request,
        mut first: Option<Result<usize, ServeError>>,
    ) -> Result<Response, ServeError> {
        let mut last: Option<ServeError> = None;
        for _ in 0..LEG_PASSES * self.addrs[shard].len() {
            let Some(sent) = first.take().or_else(|| self.attempt(shard, req)) else {
                break;
            };
            let res = sent.and_then(|rep| {
                let conn = self.conns[shard][rep].as_mut();
                match conn.expect("a sent attempt holds its connection").recv() {
                    // This replica serves another shard: fence it.
                    Ok(Response::Error {
                        code: ERR_SHARD_RANGE,
                        message,
                    }) => {
                        self.health.fence(shard, rep);
                        self.conns[shard][rep] = None;
                        Err(ServeError::Remote {
                            code: ERR_SHARD_RANGE,
                            message,
                        })
                    }
                    Ok(resp) => {
                        self.health.record_success(shard, rep);
                        Ok(resp)
                    }
                    Err(e) => {
                        self.fail(shard, rep);
                        Err(e)
                    }
                }
            });
            match res {
                Ok(resp) => return Ok(resp),
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) => ServeError::Backend {
                shard,
                message: e.to_string(),
            },
            None => ServeError::ShardUnavailable {
                shard,
                replicas: self.addrs[shard].len(),
            },
        })
    }

    /// Scatter/gather over one leg per shard: sends the first attempt of
    /// every leg before reading any response, then runs each leg's
    /// attempt loop in leg order. With one leg per shard no connection
    /// carries two frames.
    fn scatter(&mut self, legs: &[Leg]) -> Vec<Result<Response, ServeError>> {
        debug_assert!(
            legs.windows(2).all(|w| w[0].0 < w[1].0),
            "one leg per shard, shards ascending"
        );
        let sent: Vec<Option<Result<usize, ServeError>>> = legs
            .iter()
            .map(|(shard, req)| self.attempt(*shard, req))
            .collect();
        legs.iter()
            .zip(sent)
            .map(|((shard, req), sent)| self.gather(*shard, req, sent))
            .collect()
    }

    /// Groups the item indices `idxs` by owning shard: shards ascending,
    /// each index list in `idxs` order. `None` when a Jaccard pair's
    /// endpoints live on different shards: such a pair has no owner.
    fn partition(&self, req: &Request, idxs: &[usize]) -> Option<Vec<Part>> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.addrs.len()];
        for &i in idxs {
            let (u, v) = endpoints(req, i);
            let shard = self.manifest.shard_of(u as u64);
            if self.manifest.shard_of(v as u64) != shard {
                return None;
            }
            by_shard[shard].push(i);
        }
        Some(
            by_shard
                .into_iter()
                .enumerate()
                .filter(|(_, idxs)| !idxs.is_empty())
                .collect(),
        )
    }

    /// Answers one client request. Infallible at this level: every
    /// failure becomes a typed error frame.
    fn route(&mut self, req: &Request) -> Response {
        match self.try_route(req) {
            Ok(resp) => resp,
            Err(e) => {
                let (shard, message) = match e {
                    ServeError::Backend { shard, message } => (Some(shard), message),
                    ServeError::ShardUnavailable { shard, replicas } => (
                        Some(shard),
                        format!("all {replicas} replica(s) unreachable (circuits open)"),
                    ),
                    other => (None, other.to_string()),
                };
                Response::Error {
                    code: ERR_BACKEND,
                    message: match shard {
                        Some(s) => format!("backend for shard {s} unavailable: {message}"),
                        None => format!("backend fleet failure: {message}"),
                    },
                }
            }
        }
    }

    fn try_route(&mut self, req: &Request) -> Result<Response, ServeError> {
        let n = self.manifest.num_nodes() as u64;
        // The single-process server's admission check over the whole
        // keyspace: invalid batches earn byte-identical error frames
        // without touching any backend.
        if let Some(err) = reject(req, n, &(0..n)) {
            return Ok(err);
        }
        match req {
            // The router owns (routes for) the whole keyspace.
            Request::Health => Ok(Response::Health { start: 0, end: n }),
            // Answered locally from the prober's fleet-wide view: the
            // generation every polled endpoint has reached (module docs).
            Request::GenInfo => Ok(Response::GenInfo {
                generation: self.serving_gen.load(Ordering::SeqCst),
            }),
            _ => self.route_items(req),
        }
    }

    /// The answer cache plus one key per item, or `None` when the cache
    /// is off or the batch kind is structured (curves and sketch
    /// prefixes are never cached).
    fn cache_keys(&self, req: &Request) -> Option<(Arc<AnswerCache>, Vec<CacheKey>)> {
        let cache = self.cache.as_ref()?;
        let gen = self.serving_gen.load(Ordering::SeqCst);
        let keys = match req {
            Request::Harmonic { nodes } => {
                nodes.iter().map(|&v| CacheKey::harmonic(gen, v)).collect()
            }
            Request::Decay { kernel, nodes } => {
                let (tag, bits) = kernel_to_wire(*kernel);
                nodes
                    .iter()
                    .map(|&v| CacheKey::decay(gen, tag, bits, v))
                    .collect()
            }
            Request::Cardinality { queries } => queries
                .iter()
                .map(|&(v, d)| CacheKey::cardinality(gen, v, d))
                .collect(),
            // Pairs are cached exactly as queried: `(u, v)` and `(v, u)`
            // are distinct keys.
            Request::Jaccard { d, pairs } => pairs
                .iter()
                .map(|&(u, v)| CacheKey::jaccard(gen, *d, u, v))
                .collect(),
            Request::NeighborhoodFunction { .. }
            | Request::SketchPrefix { .. }
            | Request::Health
            | Request::GenInfo => return None,
        };
        Some((Arc::clone(cache), keys))
    }

    /// The one request path (module docs). Curves and sketch prefixes are
    /// never cached, so every item of theirs misses.
    fn route_items(&mut self, req: &Request) -> Result<Response, ServeError> {
        let cached = self.cache_keys(req);
        let slots: Vec<Option<f64>> = match &cached {
            Some((cache, keys)) => keys
                .iter()
                .map(|k| cache.get(k).map(f64::from_bits))
                .collect(),
            None => vec![None; item_count(req)],
        };
        let count = slots.len();
        let miss: Vec<usize> = (0..count).filter(|&i| slots[i].is_none()).collect();
        let (parts, results) = match self.partition(req, &miss) {
            Some(parts) => {
                let legs: Vec<Leg> = parts
                    .iter()
                    .map(|(shard, idxs)| (*shard, select(req, idxs)))
                    .collect();
                (parts, self.scatter(&legs))
            }
            // A cross-shard pair: the prefix step answers every miss as
            // one part. Its shard number is never read, since the step
            // reports its own failures.
            None => {
                let res = self.route_jaccard_cross(req, &miss);
                (vec![(0, miss)], vec![res])
            }
        };
        match req {
            Request::NeighborhoodFunction { .. } => merge_rows(
                count,
                &parts,
                results,
                CURVE_POINT_BYTES,
                nf_too_large,
                |resp| match resp {
                    Response::Curves(cs) => Ok(cs),
                    other => Err(other),
                },
                Response::Curves,
            ),
            Request::SketchPrefix { .. } => merge_rows(
                count,
                &parts,
                results,
                SKETCH_ENTRY_BYTES,
                sketches_too_large,
                |resp| match resp {
                    Response::Sketches(ss) => Ok(ss),
                    other => Err(other),
                },
                Response::Sketches,
            ),
            _ => {
                let xs = merge(slots, &parts, results, |resp| match resp {
                    Response::Floats(xs) => Ok(xs),
                    other => Err(other),
                })?;
                if let Some((cache, keys)) = cached {
                    for &i in parts.iter().flat_map(|(_, idxs)| idxs) {
                        cache.insert(keys[i], xs[i].to_bits());
                    }
                }
                Ok(Response::Floats(xs))
            }
        }
    }

    /// The cold step for the pairs at `miss` of a Jaccard batch holding a
    /// cross-shard pair: every one is answered from sketch prefixes. One
    /// `SketchPrefix` leg per shard fetches the prefixes of the endpoints
    /// it owns, and the router replays them (see the module docs for why
    /// this stays bitwise identical). The first failed leg fails the
    /// request.
    fn route_jaccard_cross(
        &mut self,
        req: &Request,
        miss: &[usize],
    ) -> Result<Response, ServeError> {
        let Request::Jaccard { d, pairs } = req else {
            unreachable!("only Jaccard pairs cross shards");
        };
        let d = *d;
        let pairs: Vec<(NodeId, NodeId)> = miss.iter().map(|&i| pairs[i]).collect();
        // Deduplicated prefix nodes needed per shard.
        let mut need: Vec<Vec<NodeId>> = vec![Vec::new(); self.addrs.len()];
        let mut seen: HashSet<NodeId> = HashSet::new();
        for v in pairs.iter().flat_map(|&(u, v)| [u, v]) {
            if seen.insert(v) {
                need[self.manifest.shard_of(v as u64)].push(v);
            }
        }
        let legs: Vec<Leg> = need
            .into_iter()
            .enumerate()
            .filter(|(_, nodes)| !nodes.is_empty())
            .map(|(shard, nodes)| (shard, Request::SketchPrefix { d, nodes }))
            .collect();
        let results = self.scatter(&legs);
        let k = self.manifest.k();
        let mut sketches: HashMap<NodeId, BottomKSketch> = HashMap::new();
        for ((shard, leg), res) in legs.iter().zip(results) {
            let Request::SketchPrefix { nodes, .. } = leg else {
                unreachable!("prefix legs only");
            };
            let seqs = match res? {
                Response::Sketches(ss) if ss.len() == nodes.len() => ss,
                // The one-shot prefix fetch overflowed a frame; split it
                // until it fits.
                Response::Error {
                    code: ERR_RESPONSE_TOO_LARGE,
                    ..
                } => self.fetch_prefixes_split(*shard, d, nodes)?,
                other => return Err(unexpected(*shard, other)),
            };
            for (&v, seq) in nodes.iter().zip(seqs) {
                sketches.insert(v, replay(k, &seq));
            }
        }
        Ok(Response::Floats(
            pairs
                .iter()
                .map(|(u, v)| similarity::jaccard(&sketches[u], &sketches[v]))
                .collect(),
        ))
    }

    /// Fetches sketch prefixes as a one-leg scatter, with recursive
    /// halving when a batch's response cannot fit one frame.
    fn fetch_prefixes_split(
        &mut self,
        shard: usize,
        d: f64,
        nodes: &[NodeId],
    ) -> Result<Vec<Vec<(f64, NodeId)>>, ServeError> {
        let leg = (
            shard,
            Request::SketchPrefix {
                d,
                nodes: nodes.to_vec(),
            },
        );
        let resp = self
            .scatter(std::slice::from_ref(&leg))
            .pop()
            .expect("one result per leg")?;
        match resp {
            Response::Sketches(ss) if ss.len() == nodes.len() => Ok(ss),
            Response::Error { code, .. } if code == ERR_RESPONSE_TOO_LARGE && nodes.len() > 1 => {
                let (a, b) = nodes.split_at(nodes.len() / 2);
                let mut out = self.fetch_prefixes_split(shard, d, a)?;
                out.extend(self.fetch_prefixes_split(shard, d, b)?);
                Ok(out)
            }
            other => Err(unexpected(shard, other)),
        }
    }
}

/// How many items (queries) a batch carries; control frames carry none.
fn item_count(req: &Request) -> usize {
    match req {
        Request::Harmonic { nodes }
        | Request::Decay { nodes, .. }
        | Request::NeighborhoodFunction { nodes }
        | Request::SketchPrefix { nodes, .. } => nodes.len(),
        Request::Cardinality { queries } => queries.len(),
        Request::Jaccard { pairs, .. } => pairs.len(),
        Request::Health | Request::GenInfo => 0,
    }
}

/// The nodes item `i` reads, whose shard owns it: the queried node
/// (twice) for the per-node kinds, both endpoints of a Jaccard pair.
fn endpoints(req: &Request, i: usize) -> (NodeId, NodeId) {
    match req {
        Request::Harmonic { nodes }
        | Request::Decay { nodes, .. }
        | Request::NeighborhoodFunction { nodes }
        | Request::SketchPrefix { nodes, .. } => (nodes[i], nodes[i]),
        Request::Cardinality { queries } => (queries[i].0, queries[i].0),
        Request::Jaccard { pairs, .. } => pairs[i],
        Request::Health | Request::GenInfo => unreachable!("control frames carry no items"),
    }
}

/// The same request kind and parameters over the chosen items, in
/// `idxs` order: how a batch's misses are cut into per-shard legs.
fn select(req: &Request, idxs: &[usize]) -> Request {
    fn pick<T: Copy>(items: &[T], idxs: &[usize]) -> Vec<T> {
        idxs.iter().map(|&i| items[i]).collect()
    }
    match req {
        Request::Harmonic { nodes } => Request::Harmonic {
            nodes: pick(nodes, idxs),
        },
        Request::Decay { kernel, nodes } => Request::Decay {
            kernel: *kernel,
            nodes: pick(nodes, idxs),
        },
        Request::Cardinality { queries } => Request::Cardinality {
            queries: pick(queries, idxs),
        },
        Request::NeighborhoodFunction { nodes } => Request::NeighborhoodFunction {
            nodes: pick(nodes, idxs),
        },
        Request::Jaccard { d, pairs } => Request::Jaccard {
            d: *d,
            pairs: pick(pairs, idxs),
        },
        Request::SketchPrefix { d, nodes } => Request::SketchPrefix {
            d: *d,
            nodes: pick(nodes, idxs),
        },
        Request::Health | Request::GenInfo => req.clone(),
    }
}

/// The one merge: each part's answers land at their request indices, in
/// `slots` that already hold the batch's cache hits. Strict: the first
/// failed leg fails the request, and so does a leg whose answer `unpack`
/// refuses (an error frame where data was due, a wrong variant) or whose
/// count is off.
fn merge<T>(
    mut slots: Vec<Option<T>>,
    parts: &[Part],
    results: Vec<Result<Response, ServeError>>,
    unpack: fn(Response) -> Result<Vec<T>, Response>,
) -> Result<Vec<T>, ServeError> {
    for ((shard, idxs), res) in parts.iter().zip(results) {
        let leg = unpack(res?).map_err(|other| unexpected(*shard, other))?;
        if leg.len() != idxs.len() {
            return Err(ServeError::Backend {
                shard: *shard,
                message: format!("answered {} items for a leg of {}", leg.len(), idxs.len()),
            });
        }
        for (&i, x) in idxs.iter().zip(leg) {
            debug_assert!(slots[i].is_none(), "slot {i} written twice");
            slots[i] = Some(x);
        }
    }
    Ok(slots
        .into_iter()
        .map(|x| x.expect("every slot a cache hit or written by its leg"))
        .collect())
}

/// [`merge`] for the row kinds (curves, sketch prefixes), bounded by one
/// frame: a leg or a merged batch that overflows one frame, at
/// `entry_bytes` per row entry on the wire, answers with the `too_large`
/// frame the single-process server sends for the whole batch. `wrap`
/// packs the merged rows.
fn merge_rows<T>(
    count: usize,
    parts: &[Part],
    results: Vec<Result<Response, ServeError>>,
    entry_bytes: u64,
    too_large: fn(usize) -> Response,
    unpack: fn(Response) -> Result<Vec<Vec<T>>, Response>,
    wrap: fn(Vec<Vec<T>>) -> Response,
) -> Result<Response, ServeError> {
    // A leg too big for one frame means the merged batch is too.
    let leg_too_large = |res: &Result<Response, ServeError>| {
        matches!(
            res,
            Ok(Response::Error {
                code: ERR_RESPONSE_TOO_LARGE,
                ..
            })
        )
    };
    if results.iter().any(leg_too_large) {
        return Ok(too_large(count));
    }
    let merged = merge((0..count).map(|_| None).collect(), parts, results, unpack)?;
    // The merged frame obeys the bound each backend enforced on its leg.
    let mut frame = RowsFrame::new(entry_bytes);
    if !merged.iter().all(|row| frame.push(row.len())) {
        return Ok(too_large(count));
    }
    Ok(wrap(merged))
}

/// Rebuilds the bottom-k MinHash sketch from a served `(rank, node)`
/// insertion sequence — the same insertions, in the same order, as the
/// local `minhash_at`.
fn replay(k: usize, seq: &[(f64, NodeId)]) -> BottomKSketch {
    let mut sketch = BottomKSketch::new(k);
    for &(rank, node) in seq {
        sketch.insert_ranked(rank, node as u64);
    }
    sketch
}

/// A response the merge cannot use (an error frame where data was due,
/// a mismatched count, a wrong variant) — fail the whole request with a
/// typed backend error rather than guess.
fn unexpected(shard: usize, resp: Response) -> ServeError {
    let message = match resp {
        Response::Error { code, message } => format!("answered error frame {code}: {message}"),
        other => format!("answered an unexpected response: {other:?}"),
    };
    ServeError::Backend { shard, message }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::thread::JoinHandle;
    use std::time::Instant;

    use super::*;
    use crate::proto::{write_frame, WIRE_VERSION};

    /// Gap between the bytes a dripping endpoint sends: far inside any
    /// read timeout below, so only a whole-frame deadline can fire.
    const DRIP: Duration = Duration::from_millis(80);

    /// A one-connection endpoint that accepts the handshake, reads the
    /// sweep's two requests and answers `replies` one byte per [`DRIP`].
    fn dripping_endpoint(replies: Vec<Response>) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let join = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let mut frames = Vec::new();
            for reply in &replies {
                write_frame(&mut frames, &reply.encode()).expect("encode");
            }
            let mut accept = [1u8; 5];
            accept[1..].copy_from_slice(&WIRE_VERSION.to_le_bytes());
            // The handshake, then two empty-bodied request frames.
            let mut buf = [0u8; 12 + 2 * 5];
            let _ = conn.read_exact(&mut buf[..12]);
            let _ = conn.write_all(&accept);
            let _ = conn.read_exact(&mut buf[12..]);
            for byte in frames {
                std::thread::sleep(DRIP);
                if conn.write_all(&[byte]).is_err() {
                    return;
                }
            }
        });
        (addr, join)
    }

    #[test]
    fn probe_reads_give_up_on_a_dripping_endpoint_within_one_read_timeout() {
        let config = RouterConfig {
            read_timeout: Duration::from_millis(250),
            ..RouterConfig::default()
        };
        // A 21-byte Health frame and a 13-byte GenInfo frame take 1.7 s
        // and 1.0 s to drip, though no single read waits longer than
        // 80 ms.
        let replies = vec![
            Response::Health { start: 0, end: 10 },
            Response::GenInfo { generation: 3 },
        ];
        let (addr, join) = dripping_endpoint(replies.clone());
        let t0 = Instant::now();
        assert_eq!(probe(&addr, &config), None);
        assert!(t0.elapsed() < 2 * config.read_timeout, "{:?}", t0.elapsed());
        join.join().expect("drip thread");

        // Control: given time for each whole frame, the same endpoint
        // answers both.
        let (addr, join) = dripping_endpoint(replies);
        assert_eq!(
            probe(&addr, &RouterConfig::default()),
            Some(((0, 10), Some(3)))
        );
        join.join().expect("drip thread");
    }

    /// Binds a router over a two-shard store of a small graph with
    /// `config`; `tag` names the store's directory.
    fn bind_with(tag: &str, config: RouterConfig) -> Result<Router, ServeError> {
        let g = adsketch_graph::generators::barabasi_albert(40, 2, 1);
        let ads = adsketch_core::AdsSet::build(&g, 4, 2);
        let dir =
            std::env::temp_dir().join(format!("adsketch_router_{tag}_{}", std::process::id()));
        let manifest = adsketch_core::freeze_sharded(&ads, 2, &dir).expect("freeze");
        std::fs::remove_dir_all(&dir).ok();
        let backend: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        Router::bind("127.0.0.1:0", manifest, vec![vec![backend]; 2], 1, config)
    }

    #[test]
    fn bind_rejects_a_zero_connect_timeout() {
        let config = RouterConfig {
            connect_timeout: Duration::ZERO,
            ..RouterConfig::default()
        };
        let bound = bind_with("zero_connect", config);
        assert!(matches!(bound, Err(ServeError::Store(_))));
    }

    #[test]
    fn bind_rejects_a_zero_read_timeout() {
        let config = RouterConfig {
            read_timeout: Duration::ZERO,
            ..RouterConfig::default()
        };
        let bound = bind_with("zero_read", config);
        assert!(matches!(bound, Err(ServeError::Store(_))));
    }

    #[test]
    fn bind_rejects_a_zero_probe_interval() {
        let config = RouterConfig {
            probe_interval: Duration::ZERO,
            ..RouterConfig::default()
        };
        let bound = bind_with("zero_probe", config);
        assert!(matches!(bound, Err(ServeError::Store(_))));
    }
}
