//! Fault-injection harness for the distributed tier: dead ports, killed
//! backends, and a mock backend serving corrupt frames. In every
//! scenario the router must answer with a **typed error frame** within
//! its deadline — never a panic, never a hang, never a silently partial
//! merge — and must recover on the next request once the backend is
//! healthy again. A replica that drips its answers one byte at a time
//! must cost one read deadline per frame, then fail over. One test pins
//! the circuit breaker's other promise: a backend that *stays* dead sees
//! three dials to open its circuit and then one per probe interval, not
//! one connect attempt per incoming request. The last pins the attempt
//! budget: every leg makes at most 2 × R attempts.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adsketch::core::frozen::SHARD_MANIFEST_FILE;
use adsketch::core::{freeze_sharded, AdsSet, QueryEngine, ShardManifest};
use adsketch::graph::{generators, NodeId};
use adsketch::serve::proto::WIRE_VERSION;
use adsketch::serve::{Client, RouterConfig, ServeError};

use common::{
    assert_backend_error, dead_port, fast_config, spawn_backend, spawn_backend_at, spawn_router,
    FlakyProxy, Scratch, BLACKHOLE, DRIP, DRIP_INTERVAL, GARBAGE, HEALTHY, REFUSE,
    REJECT_HANDSHAKE, STALL, TRUNCATE,
};

/// Generous wall-clock ceiling: deadlines + retries + CI slack. The
/// point is "bounded", not "fast".
const DEADLINE: Duration = Duration::from_secs(5);

#[test]
fn dead_backend_port_yields_typed_error_and_live_shards_still_serve() {
    let g = generators::gnp(40, 0.1, 3);
    let ads = AdsSet::build(&g, 2, 1);
    let frozen = ads.freeze();
    let scratch = Scratch::new("faults_dead_port");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");
    let manifest = ShardManifest::load(scratch.0.join(SHARD_MANIFEST_FILE)).expect("manifest");
    let shard0_end = manifest.records()[0].end as NodeId;

    let (b0_addr, b0_handle, b0_join) = spawn_backend(&scratch.0, 0);
    let (addr, r_handle, r_join) = spawn_router(
        &scratch.0,
        vec![vec![b0_addr], vec![dead_port()]],
        1,
        fast_config(),
    );

    let mut client = Client::connect(addr).expect("connect router");
    // A batch spanning the dead shard fails whole, typed, and bounded.
    let all: Vec<NodeId> = (0..40).collect();
    let t0 = Instant::now();
    let err = client.harmonic(&all).unwrap_err();
    assert!(t0.elapsed() < DEADLINE, "took {:?}", t0.elapsed());
    assert_backend_error(err);
    // The client connection survived, and a batch owned entirely by the
    // live shard still answers bitwise identically.
    let owned: Vec<NodeId> = (0..shard0_end).collect();
    assert_eq!(
        client.harmonic(&owned).expect("live shard serves"),
        QueryEngine::new(&frozen).harmonic_batch(&owned)
    );

    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    b0_handle.shutdown();
    b0_join
        .join()
        .expect("backend thread")
        .expect("backend run");
}

#[test]
fn killing_a_backend_mid_stream_fails_whole_requests_without_partial_answers() {
    let g = generators::gnp(40, 0.12, 7);
    let ads = AdsSet::build(&g, 3, 2);
    let frozen = ads.freeze();
    let scratch = Scratch::new("faults_kill");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");
    let manifest = ShardManifest::load(scratch.0.join(SHARD_MANIFEST_FILE)).expect("manifest");
    let shard0_end = manifest.records()[0].end as NodeId;

    let (b0_addr, b0_handle, b0_join) = spawn_backend(&scratch.0, 0);
    let (b1_addr, b1_handle, b1_join) = spawn_backend(&scratch.0, 1);
    let (addr, r_handle, r_join) = spawn_router(
        &scratch.0,
        vec![vec![b0_addr], vec![b1_addr]],
        1,
        fast_config(),
    );

    let mut client = Client::connect(addr).expect("connect router");
    let all: Vec<NodeId> = (0..40).collect();
    // Healthy first: establishes the router worker's standing backend
    // connections and proves the fleet works.
    assert_eq!(
        client.harmonic(&all).expect("healthy fleet"),
        QueryEngine::new(&frozen).harmonic_batch(&all)
    );

    // Kill backend 1 for good. The router's standing connection to it is
    // now dead and its port refuses connects.
    b1_handle.shutdown();
    b1_join
        .join()
        .expect("backend thread")
        .expect("backend run");

    let t0 = Instant::now();
    let err = client.harmonic(&all).unwrap_err();
    assert!(t0.elapsed() < DEADLINE, "took {:?}", t0.elapsed());
    let message = assert_backend_error(err);
    assert!(message.contains("shard 1"), "{message}");

    // No partial merges: every spanning request keeps failing whole,
    // while shard-0-only batches keep answering bitwise identically.
    assert_backend_error(client.harmonic(&all).unwrap_err());
    let owned: Vec<NodeId> = (0..shard0_end).collect();
    assert_eq!(
        client.harmonic(&owned).expect("live shard serves"),
        QueryEngine::new(&frozen).harmonic_batch(&owned)
    );

    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    b0_handle.shutdown();
    b0_join
        .join()
        .expect("backend thread")
        .expect("backend run");
}

#[test]
fn corrupt_backend_frames_yield_typed_errors_then_clean_recovery() {
    let g = generators::gnp(40, 0.12, 9);
    let ads = AdsSet::build(&g, 3, 4);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let scratch = Scratch::new("faults_proxy");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");

    let (b0_addr, b0_handle, b0_join) = spawn_backend(&scratch.0, 0);
    let (b1_addr, b1_handle, b1_join) = spawn_backend(&scratch.0, 1);
    // Shard 1 sits behind the flaky proxy; the router only knows the
    // proxy's address.
    let proxy = FlakyProxy::spawn(b1_addr);
    let (addr, r_handle, r_join) = spawn_router(
        &scratch.0,
        vec![vec![b0_addr], vec![proxy.addr]],
        1,
        fast_config(),
    );

    let mut client = Client::connect(addr).expect("connect router");
    let all: Vec<NodeId> = (0..40).collect();
    let baseline = local.harmonic_batch(&all);
    assert_eq!(client.harmonic(&all).expect("healthy"), baseline);

    for (name, mode) in [
        ("refuse", REFUSE),
        ("blackhole", BLACKHOLE),
        ("reject-handshake", REJECT_HANDSHAKE),
        ("garbage", GARBAGE),
        ("truncate", TRUNCATE),
        ("stall", STALL),
    ] {
        proxy.set_mode(mode);
        let t0 = Instant::now();
        let err = client.harmonic(&all).unwrap_err();
        assert!(t0.elapsed() < DEADLINE, "{name}: took {:?}", t0.elapsed());
        let message = assert_backend_error(err);
        assert!(message.contains("shard 1"), "{name}: {message}");

        // Back to healthy: the very next request must succeed, bitwise
        // identical — the router reconnects, no poisoned state.
        proxy.set_mode(HEALTHY);
        assert_eq!(
            client.harmonic(&all).expect("recovered"),
            baseline,
            "{name}: recovery"
        );
    }

    // Cross-shard jaccard recovers too (prefix-fetch path).
    let pairs: Vec<(NodeId, NodeId)> = (0..20).map(|v| (v, v + 20)).collect();
    assert_eq!(
        client.jaccard(2.0, &pairs).expect("cross-shard jaccard"),
        local.jaccard_batch(&pairs, 2.0)
    );

    drop(proxy);
    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    b0_handle.shutdown();
    b0_join
        .join()
        .expect("backend thread")
        .expect("backend run");
    b1_handle.shutdown();
    b1_join
        .join()
        .expect("backend thread")
        .expect("backend run");
}

#[test]
fn a_dripping_replica_costs_one_read_timeout_per_frame_then_fails_over() {
    let g = generators::gnp(50, 0.1, 17);
    let ads = AdsSet::build(&g, 3, 9);
    let frozen = ads.freeze();
    let scratch = Scratch::new("faults_drip");
    freeze_sharded(&ads, 1, &scratch.0).expect("freeze_sharded");

    let (b0a_addr, b0a_handle, b0a_join) = spawn_backend(&scratch.0, 0);
    let (b0b_addr, b0b_handle, b0b_join) = spawn_backend(&scratch.0, 0);
    // Replica 0 answers, but one byte per 20 ms: no single read comes
    // near the 400 ms read timeout, while a whole 50-node harmonic
    // frame (409 bytes) takes ≈ 8 s.
    let proxy = FlakyProxy::spawn(b0a_addr);
    proxy.set_mode(DRIP);
    let config = fast_config();
    let read_timeout = config.read_timeout;
    assert!(DRIP_INTERVAL * 4 < read_timeout);
    let (addr, r_handle, r_join) =
        spawn_router(&scratch.0, vec![vec![proxy.addr, b0b_addr]], 1, config);

    let mut client = Client::connect(addr).expect("connect router");
    let nodes: Vec<NodeId> = (0..50).collect();
    // The first leg goes to replica 0 (round-robin starts there), pays
    // one deadline for the whole frame and fails over to replica 1.
    let t0 = Instant::now();
    let served = client.harmonic(&nodes).expect("failed-over answer");
    let took = t0.elapsed();
    assert_eq!(served, QueryEngine::new(&frozen).harmonic_batch(&nodes));
    assert!(
        took >= read_timeout,
        "the leg never went through the dripping replica: {took:?}"
    );
    assert!(
        took < 2 * read_timeout,
        "the read deadline did not cover the whole frame: {took:?}"
    );

    drop(proxy);
    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    for (h, j) in [(b0a_handle, b0a_join), (b0b_handle, b0b_join)] {
        h.shutdown();
        j.join().expect("backend thread").expect("backend run");
    }
}

/// The client's own read bound covers a whole response frame, as the
/// router's leg deadline does: a server that drips its answer cannot
/// hold a client for frame length × the timeout.
#[test]
fn client_read_timeout_bounds_a_dripped_response_frame() {
    let g = generators::gnp(80, 0.1, 5);
    let ads = AdsSet::build(&g, 2, 1);
    let scratch = Scratch::new("faults_client_drip");
    freeze_sharded(&ads, 1, &scratch.0).expect("freeze_sharded");
    let (b_addr, b_handle, b_join) = spawn_backend(&scratch.0, 0);
    let proxy = FlakyProxy::spawn(b_addr);
    proxy.set_mode(DRIP);
    let timeout = Duration::from_millis(400);
    assert!(DRIP_INTERVAL * 4 < timeout);
    let mut client = Client::connect(proxy.addr).expect("connect through the proxy");
    client
        .set_read_timeout(Some(timeout))
        .expect("read timeout");
    // A 64-node answer is 521 bytes on the wire: ≈ 10 s at one byte per
    // DRIP_INTERVAL, though no single read waits longer than 20 ms.
    let nodes: Vec<NodeId> = (0..64).collect();
    let t0 = Instant::now();
    let err = client.harmonic(&nodes).unwrap_err();
    let took = t0.elapsed();
    assert!(
        took < 2 * timeout,
        "the read bound did not cover the whole frame: {took:?}"
    );
    assert!(
        matches!(&err, ServeError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut),
        "{err}"
    );

    drop(client);
    drop(proxy);
    b_handle.shutdown();
    b_join.join().expect("backend thread").expect("backend run");
}

/// `Client::connect_timeout` bounds the whole handshake reply, not each
/// read of it.
#[test]
fn connect_timeout_bounds_a_dripped_handshake_reply() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let timeout = Duration::from_millis(250);
    // Five bytes 150 ms apart: each read is quick, the reply takes
    // 750 ms, three times the timeout.
    let gap = Duration::from_millis(150);
    let join = std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let mut hello = [0u8; 12];
        if conn.read_exact(&mut hello).is_err() {
            return;
        }
        let mut accept = [1u8; 5];
        accept[1..].copy_from_slice(&WIRE_VERSION.to_le_bytes());
        for byte in accept {
            std::thread::sleep(gap);
            if conn.write_all(&[byte]).is_err() {
                return;
            }
        }
    });
    let t0 = Instant::now();
    let res = Client::connect_timeout(&addr, timeout);
    let took = t0.elapsed();
    assert!(res.is_err(), "a dripped handshake must time out");
    assert!(took < 2 * timeout, "handshake bound exceeded: {took:?}");
    join.join().expect("drip thread");
}

/// A listener that counts every accepted connection and hangs up — a
/// permanently dead backend whose dial pressure is observable.
fn counting_refuser() -> (SocketAddr, Arc<AtomicUsize>, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind counter");
    let addr = listener.local_addr().expect("addr");
    let count = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    {
        let (count, stop) = (Arc::clone(&count), Arc::clone(&stop));
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                count.fetch_add(1, Ordering::SeqCst);
                drop(conn);
            }
        });
    }
    (addr, count, stop)
}

#[test]
fn dead_backend_sees_a_bounded_dial_rate_not_per_request_hammering() {
    let g = generators::gnp(40, 0.1, 5);
    let ads = AdsSet::build(&g, 2, 3);
    let scratch = Scratch::new("faults_dial_rate");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");

    // One router worker, two backend workers: the router's standing
    // connection holds one, so the sweep never waits for a slot.
    let any = "127.0.0.1:0".parse().expect("loopback");
    let (b0_addr, b0_handle, b0_join) = spawn_backend_at(&scratch.0, 0, any, 2);
    let (dead_addr, dials, counter_stop) = counting_refuser();
    // The production breaker on the test clock.
    let config = fast_config();
    let interval = config.probe_interval;
    let (addr, r_handle, r_join) =
        spawn_router(&scratch.0, vec![vec![b0_addr], vec![dead_addr]], 1, config);

    // Hammer the router with requests needing the dead shard for a fixed
    // window. Every request must fail typed; the dial count must track
    // the probe interval, not the request rate.
    let mut client = Client::connect(addr).expect("connect router");
    let all: Vec<NodeId> = (0..40).collect();
    let before = dials.load(Ordering::SeqCst);
    let t0 = Instant::now();
    let mut failed = 0usize;
    while t0.elapsed() < Duration::from_secs(1) || failed < 1000 {
        assert_backend_error(client.harmonic(&all).unwrap_err());
        failed += 1;
    }
    let window = t0.elapsed();
    let dialed = dials.load(Ordering::SeqCst) - before;
    assert!(dialed >= 3, "{dialed} dials cannot have opened the circuit");
    // Three worker dials open the circuit, then only the sweep dials it:
    // once per interval, plus one sweep at the window's edge.
    let sweeps = window.as_nanos().div_ceil(interval.as_nanos()) as usize;
    assert!(
        dialed <= 3 + sweeps + 1,
        "dead backend hammered: {dialed} dials for {failed} requests in {window:?}"
    );

    counter_stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(dead_addr);
    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    b0_handle.shutdown();
    b0_join
        .join()
        .expect("backend thread")
        .expect("backend run");
}

/// Every leg spends one budget of 2 × R attempts, whether it is one leg
/// of a scatter or carries a batch one shard owns: a dead two-replica
/// shard is dialed 2 + 2 times by one request either way. Each scenario
/// gets a fresh router, so both start from closed circuits.
#[test]
fn every_leg_spends_one_attempt_budget_on_a_dead_replica_set() {
    let g = generators::gnp(40, 0.1, 5);
    let ads = AdsSet::build(&g, 2, 3);
    let scratch = Scratch::new("faults_leg_budget");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");
    let manifest = ShardManifest::load(scratch.0.join(SHARD_MANIFEST_FILE)).expect("manifest");
    assert_eq!(manifest.shard_of(39), 1, "node 39 lives on shard 1");

    let (b0_addr, b0_handle, b0_join) = spawn_backend(&scratch.0, 0);
    // A scattered batch (shard 0's leg answers, shard 1's fails) and a
    // batch shard 1 owns whole (a one-leg scatter).
    let scattered: Vec<NodeId> = (0..40).collect();
    for (name, nodes) in [
        ("a scattered leg", scattered),
        ("a one-shard batch", vec![39]),
    ] {
        let (dead_a, dials_a, stop_a) = counting_refuser();
        let (dead_b, dials_b, stop_b) = counting_refuser();
        // The sweep dials every endpoint each interval; at a 30 s
        // interval none falls inside this test.
        let config = RouterConfig {
            probe_interval: Duration::from_secs(30),
            ..fast_config()
        };
        let (addr, r_handle, r_join) = spawn_router(
            &scratch.0,
            vec![vec![b0_addr], vec![dead_a, dead_b]],
            1,
            config,
        );
        let mut client = Client::connect(addr).expect("connect router");
        assert_backend_error(client.harmonic(&nodes).unwrap_err());
        let dials = (
            dials_a.load(Ordering::SeqCst),
            dials_b.load(Ordering::SeqCst),
        );
        assert_eq!(dials, (2, 2), "{name}");

        r_handle.shutdown();
        r_join.join().expect("router thread").expect("router run");
        for (stop, dead) in [(stop_a, dead_a), (stop_b, dead_b)] {
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(dead);
        }
    }
    b0_handle.shutdown();
    b0_join
        .join()
        .expect("backend thread")
        .expect("backend run");
}
