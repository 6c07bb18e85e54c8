//! Shared harness for the distributed-tier integration tests: scratch
//! dirs, backend/router spawning over replica sets, the mode-switchable
//! flaky proxy, and the bitwise request-battery assertion.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adsketch::core::centrality::DecayKernel;
use adsketch::core::frozen::SHARD_MANIFEST_FILE;
use adsketch::core::{freeze_sharded, AdsSet, AdsView, FrozenAdsSet, QueryEngine, ShardManifest};
use adsketch::graph::NodeId;
use adsketch::serve::proto::{ERR_BACKEND, WIRE_VERSION};
use adsketch::serve::{
    BackendStore, CacheStatsHandle, Client, Router, RouterConfig, ServeError, ServerHandle,
};

/// Tight deadlines and a 25 ms probe interval, so fault scenarios
/// resolve in test time under the breaker production runs: a failed
/// attempt cools its endpoint for one interval, three in a row open its
/// circuit, and the next sweep re-adopts a healed replica. A shard's
/// only replica is dialed again as soon as it heals: a cooling endpoint
/// is still its leg's fallback, and one leg's two attempts on it do not
/// open it.
pub fn fast_config() -> RouterConfig {
    RouterConfig {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(400),
        probe_interval: Duration::from_millis(25),
        cache_bytes: 0,
    }
}

/// [`fast_config`] with the answer cache on. Answers must stay bitwise
/// identical to the cold path.
pub fn fast_path_config() -> RouterConfig {
    RouterConfig {
        cache_bytes: 1 << 20,
        ..fast_config()
    }
}

/// A temp dir that wipes itself on drop.
pub struct Scratch(pub std::path::PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("adsketch_test_router_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An ephemeral-port address nothing listens on (bound once, then
/// dropped, so connects are refused immediately).
pub fn dead_port() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .expect("reserve port")
        .local_addr()
        .expect("addr")
}

pub fn assert_backend_error(err: ServeError) -> String {
    match err {
        ServeError::Remote { code, message } => {
            assert_eq!(code, ERR_BACKEND, "wrong error code: {message}");
            message
        }
        other => panic!("expected a typed ERR_BACKEND frame, got {other}"),
    }
}

/// Loads shard `shard` from `dir` and serves it on `addr` (`port 0` for
/// ephemeral; a replica restarting on its old address retries briefly —
/// rebinding a just-released port can race the old socket's teardown).
pub fn spawn_backend_at(
    dir: &std::path::Path,
    shard: usize,
    addr: SocketAddr,
    workers: usize,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<u64>>,
) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let store = BackendStore::load(dir, shard).expect("load backend shard");
        match store.into_server(addr, workers) {
            Ok(server) => {
                let addr = server.local_addr().expect("backend addr");
                let handle = server.handle();
                let join = std::thread::spawn(move || server.run());
                return (addr, handle, join);
            }
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "rebind backend shard {shard} at {addr}: {e}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

pub fn spawn_backend(
    dir: &std::path::Path,
    shard: usize,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<u64>>,
) {
    spawn_backend_at(dir, shard, "127.0.0.1:0".parse().expect("loopback"), 1)
}

/// Binds a router over explicit replica sets and runs it on a thread.
pub fn spawn_router(
    dir: &std::path::Path,
    replicas: Vec<Vec<SocketAddr>>,
    workers: usize,
    config: RouterConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<u64>>,
) {
    let (addr, handle, join, _) = spawn_router_with_stats(dir, replicas, workers, config);
    (addr, handle, join)
}

/// [`spawn_router`], also returning the answer-cache counters handle
/// (`None` unless the config enables the cache).
pub fn spawn_router_with_stats(
    dir: &std::path::Path,
    replicas: Vec<Vec<SocketAddr>>,
    workers: usize,
    config: RouterConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<u64>>,
    Option<CacheStatsHandle>,
) {
    let manifest = ShardManifest::load(dir.join(SHARD_MANIFEST_FILE)).expect("manifest");
    let router =
        Router::bind("127.0.0.1:0", manifest, replicas, workers, config).expect("bind router");
    let addr = router.local_addr().expect("router addr");
    let handle = router.handle();
    let stats = router.cache_stats();
    let join = std::thread::spawn(move || router.run());
    (addr, handle, join, stats)
}

/// One backend replica of a [`ReplicaFleet`]; `join` is `None` while the
/// replica is killed.
pub struct ReplicaSlot {
    pub addr: SocketAddr,
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<u64>>>,
}

/// A full distributed-tier fixture: `shards × replicas` in-process
/// backends plus a router, with per-replica kill/restart. Each backend
/// has one worker more than the router, so the router's standing
/// connections never starve the prober's sweep. Tears the whole fleet
/// down and wipes the scratch dir on drop.
pub struct ReplicaFleet {
    /// The router's client-facing address.
    pub addr: SocketAddr,
    /// `slots[shard][rep]` — every replica of a shard serves that shard.
    pub slots: Vec<Vec<ReplicaSlot>>,
    /// Router answer-cache counters (`None` when the cache is off).
    pub cache_stats: Option<CacheStatsHandle>,
    router_handle: ServerHandle,
    router_join: Option<std::thread::JoinHandle<std::io::Result<u64>>>,
    workers: usize,
    scratch: Scratch,
}

impl ReplicaFleet {
    /// Freezes `ads` into `shards` shards and spawns `replicas` backend
    /// servers per shard behind a router configured with `config`.
    pub fn spawn(
        ads: &AdsSet,
        shards: usize,
        replicas: usize,
        workers: usize,
        tag: &str,
        config: RouterConfig,
    ) -> Self {
        let scratch = Scratch::new(tag);
        freeze_sharded(ads, shards, &scratch.0).expect("freeze_sharded");
        let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
        let mut slots = Vec::with_capacity(shards);
        for shard in 0..shards {
            let mut reps = Vec::with_capacity(replicas);
            for _ in 0..replicas {
                let (addr, handle, join) = spawn_backend_at(&scratch.0, shard, any, workers + 1);
                reps.push(ReplicaSlot {
                    addr,
                    handle,
                    join: Some(join),
                });
            }
            slots.push(reps);
        }
        let addrs = slots
            .iter()
            .map(|reps| reps.iter().map(|s| s.addr).collect())
            .collect();
        let (addr, router_handle, router_join, cache_stats) =
            spawn_router_with_stats(&scratch.0, addrs, workers, config);
        Self {
            addr,
            slots,
            cache_stats,
            router_handle,
            router_join: Some(router_join),
            workers,
            scratch,
        }
    }

    /// Shuts one replica down and waits for its server thread to exit —
    /// after this returns, its port refuses connects.
    pub fn kill(&mut self, shard: usize, rep: usize) {
        let slot = &mut self.slots[shard][rep];
        slot.handle.shutdown();
        slot.join
            .take()
            .expect("replica already killed")
            .join()
            .expect("backend thread")
            .expect("backend run");
    }

    /// Restarts a killed replica on its original address (fresh store
    /// load, same port — exactly a crashed process coming back).
    pub fn restart(&mut self, shard: usize, rep: usize) {
        let addr = self.slots[shard][rep].addr;
        assert!(
            self.slots[shard][rep].join.is_none(),
            "replica {shard}/{rep} is still running"
        );
        let (got, handle, join) = spawn_backend_at(&self.scratch.0, shard, addr, self.workers + 1);
        assert_eq!(got, addr, "restarted replica must keep its address");
        self.slots[shard][rep] = ReplicaSlot {
            addr,
            handle,
            join: Some(join),
        };
    }

    /// A clone of the router's shutdown handle.
    pub fn router_handle(&self) -> ServerHandle {
        self.router_handle.clone()
    }

    /// Stops the router and returns how long shutdown took end to end
    /// (handle call through thread join).
    pub fn shutdown_router_timed(&mut self) -> Duration {
        let t0 = Instant::now();
        self.router_handle.shutdown();
        self.router_join
            .take()
            .expect("router already stopped")
            .join()
            .expect("router thread")
            .expect("router run");
        t0.elapsed()
    }
}

impl Drop for ReplicaFleet {
    fn drop(&mut self) {
        self.router_handle.shutdown();
        if let Some(j) = self.router_join.take() {
            let _ = j.join();
        }
        for reps in &mut self.slots {
            for slot in reps {
                slot.handle.shutdown();
                if let Some(j) = slot.join.take() {
                    let _ = j.join();
                }
            }
        }
    }
}

/// Fires every request type at the router and asserts each response is
/// bitwise equal to the local engine on the unsharded store.
pub fn assert_routed_equals_local(client: &mut Client, ads: &AdsSet, frozen: &FrozenAdsSet) {
    let local = QueryEngine::new(frozen);
    let n = ads.num_nodes() as NodeId;
    let nodes: Vec<NodeId> = (0..n).collect();
    let rev: Vec<NodeId> = (0..n).rev().collect();

    assert_eq!(
        client.harmonic(&nodes).expect("harmonic"),
        local.harmonic_batch(&nodes)
    );
    // A shuffled batch must come back in request order, not shard order.
    assert_eq!(
        client.harmonic(&rev).expect("harmonic rev"),
        local.harmonic_batch(&rev)
    );
    for kernel in [
        DecayKernel::Harmonic,
        DecayKernel::Constant,
        DecayKernel::Threshold(2.0),
        DecayKernel::Exponential { base: 2.0 },
    ] {
        assert_eq!(
            client.decay(kernel, &nodes).expect("decay"),
            local.decay_batch(kernel, &nodes),
            "kernel {kernel:?}"
        );
    }
    let queries: Vec<(NodeId, f64)> = nodes
        .iter()
        .map(|&v| (v, (v % 5) as f64))
        .chain([(0, f64::INFINITY), (n - 1, 0.0)])
        .collect();
    assert_eq!(
        client.cardinality(&queries).expect("cardinality"),
        local.cardinality_batch(&queries)
    );
    assert_eq!(
        client.neighborhood_function(&nodes).expect("nf"),
        local.neighborhood_function_batch(&nodes)
    );
    // Neighbor pairs (mostly same-shard, boundary pairs cross-shard)
    // plus antipodal pairs (mostly cross-shard) — both merge paths.
    let mut pairs: Vec<(NodeId, NodeId)> = nodes.iter().map(|&v| (v, (v + 1) % n)).collect();
    pairs.extend(nodes.iter().map(|&v| (v, (v + n / 2) % n)));
    assert_eq!(
        client.jaccard(2.0, &pairs).expect("jaccard"),
        local.jaccard_batch(&pairs, 2.0)
    );
    // Sketch prefixes must be the exact (rank, node) insertion sequence
    // the local view streams.
    let d = 2.0;
    let served = client.sketch_prefixes(d, &nodes).expect("sketch prefixes");
    for (&v, seq) in nodes.iter().zip(&served) {
        let mut want: Vec<(f64, NodeId)> = Vec::new();
        frozen.for_each_entry(v, |e| {
            if e.dist <= d {
                want.push((e.rank, e.node));
            }
        });
        assert_eq!(seq, &want, "sketch prefix of node {v}");
    }
}

/// What the flaky proxy does with new connections.
pub const HEALTHY: u8 = 0;
/// Close immediately, before the handshake.
pub const REFUSE: u8 = 1;
/// Answer the handshake with a reject status.
pub const REJECT_HANDSHAKE: u8 = 2;
/// Accept the handshake, then answer with an insane length prefix.
pub const GARBAGE: u8 = 3;
/// Accept the handshake, then answer a truncated frame and close.
pub const TRUNCATE: u8 = 4;
/// Accept the handshake, swallow requests, never answer.
pub const STALL: u8 = 5;
/// Accept the TCP connection, then never read or write a byte — the
/// connection looks alive but the handshake reply never comes.
pub const BLACKHOLE: u8 = 6;

/// Relay to the backend like [`HEALTHY`], but after the handshake reply
/// forward the backend's replies one byte per [`DRIP_INTERVAL`]: every
/// single read is quick, only a whole frame is slow.
pub const DRIP: u8 = 7;
/// The gap between two bytes in [`DRIP`] mode.
pub const DRIP_INTERVAL: Duration = Duration::from_millis(20);

/// A TCP proxy in front of a real backend whose failure mode can be
/// switched at runtime. Switching also severs standing connections —
/// mid-frame, if a frame is in flight — so the router notices
/// immediately; this is how "the backend died and came back" is
/// simulated on one stable address without racing TIME_WAIT. In
/// [`HEALTHY`] and [`DRIP`] mode it notes each relayed connection's first
/// request type, which tells the prober's sweeps (`Health` first) from
/// router workers' dials.
pub struct FlakyProxy {
    pub addr: SocketAddr,
    mode: Arc<AtomicU8>,
    stop: Arc<AtomicBool>,
    live: Arc<Mutex<Vec<TcpStream>>>,
    firsts: Arc<Mutex<Vec<u8>>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl FlakyProxy {
    pub fn spawn(upstream: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let mode = Arc::new(AtomicU8::new(HEALTHY));
        let stop = Arc::new(AtomicBool::new(false));
        let live: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let firsts: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let join = {
            let (mode, stop, live, firsts) = (
                Arc::clone(&mode),
                Arc::clone(&stop),
                Arc::clone(&live),
                Arc::clone(&firsts),
            );
            std::thread::spawn(move || proxy_loop(listener, upstream, &mode, &stop, &live, &firsts))
        };
        Self {
            addr,
            mode,
            stop,
            live,
            firsts,
            join: Some(join),
        }
    }

    /// How many relayed connections opened with a request of type
    /// `ty` (the first byte of `Request::encode`) and how many with
    /// any other type.
    pub fn first_requests(&self, ty: u8) -> (usize, usize) {
        let firsts = self.firsts.lock().expect("first requests");
        let hits = firsts.iter().filter(|&&t| t == ty).count();
        (hits, firsts.len() - hits)
    }

    pub fn set_mode(&self, mode: u8) {
        self.mode.store(mode, Ordering::SeqCst);
        for conn in self.live.lock().expect("live list").drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for FlakyProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.set_mode(REFUSE);
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn handshake_accept(conn: &mut TcpStream) -> bool {
    let mut hello = [0u8; 12];
    if conn.read_exact(&mut hello).is_err() {
        return false;
    }
    let mut accept = [1u8; 5];
    accept[1..5].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    conn.write_all(&accept).is_ok()
}

/// [`DRIP`]'s backend-to-client half: the 5-byte handshake reply in one
/// write, then one byte per [`DRIP_INTERVAL`] until either side closes.
fn drip(up: &mut TcpStream, client: &mut TcpStream) {
    let mut reply = [0u8; 5];
    if up.read_exact(&mut reply).is_err() || client.write_all(&reply).is_err() {
        return;
    }
    let mut byte = [0u8; 1];
    while up.read_exact(&mut byte).is_ok() {
        std::thread::sleep(DRIP_INTERVAL);
        if client.write_all(&byte).is_err() {
            return;
        }
    }
}

/// Copies the client's bytes upstream like `std::io::copy`, noting the
/// type byte of the first request frame (after the 12-byte hello and the
/// 4-byte length) in `firsts`.
fn relay_requests(client: &mut TcpStream, up: &mut TcpStream, firsts: &Mutex<Vec<u8>>) {
    const FIRST_TYPE_AT: usize = 16;
    let mut buf = [0u8; 4096];
    let mut seen = 0usize;
    loop {
        let n = match client.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if seen <= FIRST_TYPE_AT && seen + n > FIRST_TYPE_AT {
            let ty = buf[FIRST_TYPE_AT - seen];
            firsts.lock().expect("first requests").push(ty);
        }
        seen += n;
        if up.write_all(&buf[..n]).is_err() {
            return;
        }
    }
}

fn proxy_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    mode: &AtomicU8,
    stop: &AtomicBool,
    live: &Mutex<Vec<TcpStream>>,
    firsts: &Arc<Mutex<Vec<u8>>>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut client) = conn else { continue };
        if let Ok(clone) = client.try_clone() {
            live.lock().expect("live list").push(clone);
        }
        match mode.load(Ordering::SeqCst) {
            m @ (HEALTHY | DRIP) => {
                let Ok(up) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(std::net::Shutdown::Both);
                    continue;
                };
                if let Ok(clone) = up.try_clone() {
                    live.lock().expect("live list").push(clone);
                }
                let (Ok(mut c2), Ok(mut u2)) = (client.try_clone(), up.try_clone()) else {
                    continue;
                };
                let firsts = Arc::clone(firsts);
                std::thread::spawn(move || {
                    let mut client = client;
                    let mut up = up;
                    relay_requests(&mut client, &mut up, &firsts);
                    let _ = up.shutdown(std::net::Shutdown::Both);
                });
                std::thread::spawn(move || {
                    if m == DRIP {
                        let _ = c2.set_nodelay(true);
                        drip(&mut u2, &mut c2);
                    } else {
                        let _ = std::io::copy(&mut u2, &mut c2);
                    }
                    let _ = c2.shutdown(std::net::Shutdown::Both);
                });
            }
            REFUSE => {
                // A plain drop would leave the socket half-open through
                // the clone in `live`; sever it for real.
                let _ = client.shutdown(std::net::Shutdown::Both);
            }
            BLACKHOLE => {
                // Deliberately half-open: the clone in `live` keeps the
                // socket established, and nobody ever answers the
                // handshake. The router's handshake deadline must fire.
                drop(client);
            }
            REJECT_HANDSHAKE => {
                let mut hello = [0u8; 12];
                let _ = client.read_exact(&mut hello);
                let mut reject = [0u8; 5];
                reject[1..5].copy_from_slice(&WIRE_VERSION.to_le_bytes());
                let _ = client.write_all(&reject);
            }
            GARBAGE => {
                if handshake_accept(&mut client) {
                    let mut buf = [0u8; 4096];
                    let _ = client.read(&mut buf);
                    // A length prefix far beyond MAX_FRAME_LEN.
                    let _ = client.write_all(&u32::MAX.to_le_bytes());
                }
            }
            TRUNCATE => {
                if handshake_accept(&mut client) {
                    let mut buf = [0u8; 4096];
                    let _ = client.read(&mut buf);
                    // Declare a 100-byte frame, deliver 10, hang up.
                    let _ = client.write_all(&100u32.to_le_bytes());
                    let _ = client.write_all(&[0u8; 10]);
                }
            }
            _ => {
                if handshake_accept(&mut client) {
                    let mut buf = [0u8; 4096];
                    while !stop.load(Ordering::SeqCst) {
                        match client.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                    }
                }
            }
        }
    }
}
