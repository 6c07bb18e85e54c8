//! Replica-aware routing: the router must survive the death of any
//! minority of a shard's replica set with **zero client-visible
//! errors** and bitwise-identical answers — across fleet shapes, worker
//! counts, kills mid-pipeline, a stalled replica and a replica wired to
//! the wrong shard. A shard whose whole replica set is down fails every
//! batch that needs it, whole.

mod common;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use adsketch::core::{freeze_sharded, AdsSet, FrozenAdsSet, QueryEngine};
use adsketch::graph::{generators, NodeId};
use adsketch::serve::{Client, Request, RouterConfig};

use common::{
    assert_backend_error, assert_routed_equals_local, dead_port, fast_config, spawn_backend,
    spawn_backend_at, spawn_router, spawn_router_with_stats, FlakyProxy, ReplicaFleet, Scratch,
    STALL, TRUNCATE,
};

#[test]
fn replicated_fleets_answer_bitwise_identically() {
    let g = generators::gnp_directed(80, 0.06, 21);
    let ads = AdsSet::build(&g, 4, 11);
    let frozen = ads.freeze();
    for (shards, replicas) in [(1usize, 3usize), (4, 2)] {
        for workers in [1usize, 2] {
            let guard = ReplicaFleet::spawn(
                &ads,
                shards,
                replicas,
                workers,
                &format!("rep_eq_{shards}x{replicas}_{workers}"),
                RouterConfig::default(),
            );
            let mut client = Client::connect(guard.addr).expect("connect");
            assert_routed_equals_local(&mut client, &ads, &frozen);
        }
    }
}

/// A background client that hammers the router at `addr` with rotating
/// harmonic and Jaccard batches until `stop` is raised, asserting every
/// answer bitwise against the local engine, and returns how many
/// requests it issued. Any client-visible error panics the thread, and
/// the hard 10 s read timeout turns a hang into one.
fn spawn_hammer(
    addr: SocketAddr,
    frozen: Arc<FrozenAdsSet>,
    stop: Arc<AtomicBool>,
    salt: u32,
) -> std::thread::JoinHandle<u32> {
    std::thread::spawn(move || {
        let local = QueryEngine::new(&*frozen);
        let n = frozen.num_nodes() as NodeId;
        let mut client = Client::connect(addr).expect("background connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut issued = 0u32;
        while !stop.load(Ordering::SeqCst) {
            let shift = issued.wrapping_mul(7) + salt;
            if issued.is_multiple_of(2) {
                let nodes: Vec<NodeId> = (0..n).map(|v| (v + shift) % n).collect();
                assert_eq!(
                    client
                        .harmonic(&nodes)
                        .expect("harmonic under replica kills"),
                    local.harmonic_batch(&nodes)
                );
            } else {
                let pairs: Vec<(NodeId, NodeId)> =
                    (0..n).map(|v| (v, (v + 1 + shift) % n)).collect();
                assert_eq!(
                    client
                        .jaccard(2.0, &pairs)
                        .expect("jaccard under replica kills"),
                    local.jaccard_batch(&pairs, 2.0)
                );
            }
            issued += 1;
        }
        issued
    })
}

#[test]
fn killing_each_replica_in_turn_is_invisible_to_clients() {
    let g = generators::gnp_directed(60, 0.08, 5);
    let ads = AdsSet::build(&g, 3, 7);
    let frozen = Arc::new(ads.freeze());
    let local = QueryEngine::new(&*frozen);
    let nodes: Vec<NodeId> = (0..60).collect();
    let pairs: Vec<(NodeId, NodeId)> = nodes.iter().map(|&v| (v, (v + 30) % 60)).collect();
    let harmonic = local.harmonic_batch(&nodes);
    let jaccard = local.jaccard_batch(&pairs, 2.0);

    // The production breaker, on a 100 ms clock: a killed replica's
    // circuit opens after three failed attempts, and the sweep after its
    // restart closes it again. A restarted replica is given two probe
    // intervals before the next kill, so a shard never has every replica
    // dead or open, and no client may see an error.
    let config = RouterConfig {
        probe_interval: Duration::from_millis(100),
        ..fast_config()
    };
    let readopt = 2 * config.probe_interval;
    for (shards, replicas) in [(1usize, 3usize), (2, 2)] {
        // Four workers: a connection holds a router worker for its
        // lifetime, and three clients are connected throughout. Each
        // backend gets five, one for the prober's sweep.
        let mut guard = ReplicaFleet::spawn(
            &ads,
            shards,
            replicas,
            4,
            &format!("rep_kill_{shards}x{replicas}"),
            config.clone(),
        );
        // Two clients hammer the router for the whole kill → query →
        // restart cycle, not only between its steps: replicas die with
        // legs in flight.
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..2)
            .map(|salt| spawn_hammer(guard.addr, Arc::clone(&frozen), Arc::clone(&stop), salt))
            .collect();
        let mut client = Client::connect(guard.addr).expect("connect");
        assert_eq!(client.harmonic(&nodes).expect("healthy"), harmonic);
        for shard in 0..shards {
            for rep in 0..replicas {
                // Kill one replica — its standing router connections die
                // and its port refuses — then query through the hole.
                guard.kill(shard, rep);
                for _ in 0..3 {
                    assert_eq!(
                        client
                            .harmonic(&nodes)
                            .expect("harmonic with a dead replica"),
                        harmonic,
                        "shard {shard} rep {rep} down"
                    );
                }
                assert_eq!(
                    client
                        .jaccard(2.0, &pairs)
                        .expect("jaccard with a dead replica"),
                    jaccard,
                    "shard {shard} rep {rep} down"
                );
                guard.restart(shard, rep);
                // The restarted replica rejoins transparently; the next
                // answers stay bitwise identical whether or not the
                // router has re-adopted it yet.
                assert_eq!(client.harmonic(&nodes).expect("after restart"), harmonic);
                // Within two probe intervals a sweep has re-adopted it.
                std::thread::sleep(readopt);
            }
        }
        stop.store(true, Ordering::SeqCst);
        for hammer in hammers {
            let issued = hammer.join().expect("a background client failed");
            assert!(issued > 0, "a background client never ran");
        }
    }
}

#[test]
fn mid_pipeline_replica_loss_never_breaks_response_pairing() {
    let g = generators::barabasi_albert(80, 3, 9);
    let ads = AdsSet::build(&g, 3, 3);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let scratch = Scratch::new("rep_midpipe");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");

    // Shard 0's first replica sits behind the flaky proxy; its second
    // replica and shard 1 are direct backends.
    let (b0a_addr, b0a_handle, b0a_join) = spawn_backend(&scratch.0, 0);
    let (b0b_addr, b0b_handle, b0b_join) = spawn_backend(&scratch.0, 0);
    let (b1_addr, b1_handle, b1_join) = spawn_backend(&scratch.0, 1);
    let proxy = FlakyProxy::spawn(b0a_addr);
    let config = fast_config();
    let (addr, r_handle, r_join) = spawn_router(
        &scratch.0,
        vec![vec![proxy.addr, b0b_addr], vec![b1_addr]],
        2,
        config,
    );

    let reqs: Vec<Request> = (0..40u32)
        .map(|i| Request::Harmonic {
            nodes: (0..80).map(|v| (v + i) % 80).collect(),
        })
        .collect();
    let mut client = Client::connect(addr).expect("connect");
    // Warm the pipeline once, then sever the proxied replica MID-FRAME
    // while a deep pipeline is in flight (TRUNCATE also corrupts any
    // frame a fresh dial gets). Every response must still arrive, in
    // order, bitwise identical — the failover may not cross-pair frames.
    assert!(client.pipeline(&reqs[..4]).is_ok());
    let responses = std::thread::scope(|s| {
        let proxy = &proxy;
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            proxy.set_mode(TRUNCATE);
        });
        client
            .pipeline(&reqs)
            .expect("pipeline survives replica loss")
    });
    for (req, resp) in reqs.iter().zip(&responses) {
        let Request::Harmonic { nodes } = req else {
            unreachable!()
        };
        assert_eq!(
            resp,
            &adsketch::serve::Response::Floats(local.harmonic_batch(nodes)),
            "response pairing broke after mid-pipeline replica loss"
        );
    }

    drop(proxy);
    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    for (h, j) in [
        (b0a_handle, b0a_join),
        (b0b_handle, b0b_join),
        (b1_handle, b1_join),
    ] {
        h.shutdown();
        j.join().expect("backend thread").expect("backend run");
    }
}

#[test]
fn a_stalled_replica_costs_one_read_timeout_then_fails_over() {
    let g = generators::gnp(50, 0.1, 13);
    let ads = AdsSet::build(&g, 3, 5);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let scratch = Scratch::new("rep_stall");
    freeze_sharded(&ads, 1, &scratch.0).expect("freeze_sharded");

    let (b0a_addr, b0a_handle, b0a_join) = spawn_backend(&scratch.0, 0);
    let (b0b_addr, b0b_handle, b0b_join) = spawn_backend(&scratch.0, 0);
    // Replica 0 accepts the handshake and then never answers anything —
    // a hard straggler. Its failed attempt cools it for one probe
    // interval, longer than this drill, and its silence to the sweep
    // changes nothing.
    let proxy = FlakyProxy::spawn(b0a_addr);
    proxy.set_mode(STALL);
    let config = RouterConfig {
        read_timeout: Duration::from_millis(400),
        probe_interval: Duration::from_secs(2),
        ..fast_config()
    };
    let (addr, r_handle, r_join) =
        spawn_router(&scratch.0, vec![vec![proxy.addr, b0b_addr]], 1, config);

    let mut client = Client::connect(addr).expect("connect");
    let nodes: Vec<NodeId> = (0..50).collect();
    let baseline = local.harmonic_batch(&nodes);
    let t0 = Instant::now();
    for _ in 0..3 {
        assert_eq!(
            client.harmonic(&nodes).expect("failed-over answer"),
            baseline,
            "failed-over answers must stay bitwise identical"
        );
    }
    // The first request's leg waits out one 400 ms deadline on the
    // straggler and fails over; from then on its cooldown keeps the
    // straggler out of rotation, since the live replica is available.
    assert!(
        t0.elapsed() < Duration::from_millis(1200),
        "the stalled replica cost more than one deadline: {:?}",
        t0.elapsed()
    );

    drop(proxy);
    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    for (h, j) in [(b0a_handle, b0a_join), (b0b_handle, b0b_join)] {
        h.shutdown();
        j.join().expect("backend thread").expect("backend run");
    }
}

/// Kills shard 1 of a two-shard fleet with the answer cache on, after
/// only the even nodes and the cross-shard pair `(0, 39)` were warmed.
/// Every batch is then answered whole or refused whole: a batch the
/// cache holds whole still answers bitwise, one uncached item on the
/// dead shard earns one `ERR_BACKEND` frame for the whole batch (its
/// live-shard items included) and leaves the cache as it was, and the
/// live shard alone still answers and fills the cache.
#[test]
fn a_dead_shard_fails_whole_batches_and_the_cache_answers_whole_ones() {
    let g = generators::gnp(40, 0.1, 17);
    let ads = AdsSet::build(&g, 2, 9);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let scratch = Scratch::new("rep_dead_shard_cache");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");
    let manifest = adsketch::core::ShardManifest::load(
        scratch.0.join(adsketch::core::frozen::SHARD_MANIFEST_FILE),
    )
    .expect("manifest");
    let shard0_end = manifest.records()[0].end as NodeId;
    assert!((2..38).contains(&shard0_end), "split at {shard0_end}");

    let (b0_addr, b0_handle, b0_join) = spawn_backend(&scratch.0, 0);
    let (b1_addr, b1_handle, b1_join) = spawn_backend(&scratch.0, 1);
    let mut config = fast_config();
    config.cache_bytes = 1 << 20;
    let (addr, r_handle, r_join, stats) =
        spawn_router_with_stats(&scratch.0, vec![vec![b0_addr], vec![b1_addr]], 1, config);
    let stats = stats.expect("cache on");

    let mut client = Client::connect(addr).expect("connect");
    let evens: Vec<NodeId> = (0..40).step_by(2).collect();
    let cross = [(0, 39)];
    // Healthy: warm the even nodes of both shards and one cross pair.
    assert_eq!(
        client.harmonic(&evens).expect("healthy harmonic"),
        local.harmonic_batch(&evens)
    );
    assert_eq!(
        client.jaccard(2.0, &cross).expect("healthy jaccard"),
        local.jaccard_batch(&cross, 2.0)
    );
    let warmed = stats.resident_entries();
    assert_eq!(warmed, evens.len() + cross.len());

    b1_handle.shutdown();
    b1_join
        .join()
        .expect("backend thread")
        .expect("backend run");

    for round in 0..3 {
        // Batches the cache holds whole need no backend: bitwise, per
        // node and as a cross-shard pair.
        assert_eq!(
            client.harmonic(&evens).expect("cached harmonic"),
            local.harmonic_batch(&evens),
            "round {round}"
        );
        assert_eq!(
            client.jaccard(2.0, &cross).expect("cached jaccard"),
            local.jaccard_batch(&cross, 2.0),
            "round {round}"
        );
        // One uncached item on the dead shard fails the whole batch,
        // the live shard's uncached items included, and caches nothing.
        let mut one_dead = evens.clone();
        one_dead.push(39);
        one_dead.extend((1..shard0_end).step_by(2));
        let message = assert_backend_error(client.harmonic(&one_dead).unwrap_err());
        assert!(message.contains("shard 1"), "round {round}: {message}");
        // The same for a batch the dead shard owns alone (a one-leg
        // scatter) and for an uncached pair that crosses to it.
        assert_backend_error(client.harmonic(&[38, 39]).unwrap_err());
        assert_backend_error(client.jaccard(2.0, &[(0, 1), (1, 38)]).unwrap_err());
        // Curves are never cached, so they fail whole too.
        assert_backend_error(client.neighborhood_function(&evens).unwrap_err());
        assert_eq!(stats.resident_entries(), warmed, "round {round}");
    }

    // An uncached batch on the live shard alone is answered bitwise,
    // then cached: the repeat adds no entry and misses nothing.
    let live_odds: Vec<NodeId> = (1..shard0_end).step_by(2).collect();
    let live_pairs = [(0, 1), (1, 2)];
    assert_eq!(
        client.harmonic(&live_odds).expect("live shard serves"),
        local.harmonic_batch(&live_odds)
    );
    assert_eq!(
        client.jaccard(2.0, &live_pairs).expect("live jaccard"),
        local.jaccard_batch(&live_pairs, 2.0)
    );
    let filled = warmed + live_odds.len() + live_pairs.len();
    assert_eq!(stats.resident_entries(), filled);
    let misses = stats.misses();
    assert_eq!(
        client.harmonic(&live_odds).expect("cached live shard"),
        local.harmonic_batch(&live_odds)
    );
    assert_eq!(stats.misses(), misses);
    assert_eq!(stats.resident_entries(), filled);

    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    b0_handle.shutdown();
    b0_join
        .join()
        .expect("backend thread")
        .expect("backend run");
}

/// Shard 1's replica set holds a shard-0 backend by mistake. Its first
/// leg answers `ERR_SHARD_RANGE`, which fails over to the live replica
/// and fences the endpoint at once; the sweep's `Health` keeps it
/// fenced, since it reports shard 0's range. No request fails, and after
/// the first sweep no worker dials the endpoint again.
#[test]
fn a_mis_wired_replica_is_fenced_and_never_fails_a_request() {
    let g = generators::gnp(40, 0.1, 29);
    let ads = AdsSet::build(&g, 3, 13);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let scratch = Scratch::new("rep_miswired");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");

    // One router worker, two backend workers: the router's standing
    // connection holds one, so the sweep never waits for a slot.
    let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let (b0_addr, b0_handle, b0_join) = spawn_backend_at(&scratch.0, 0, any, 2);
    let (b1_addr, b1_handle, b1_join) = spawn_backend_at(&scratch.0, 1, any, 2);
    let (wrong_addr, wrong_handle, wrong_join) = spawn_backend_at(&scratch.0, 0, any, 2);
    let proxy = FlakyProxy::spawn(wrong_addr);
    // A 200 ms clock, so the first requests run before the first sweep.
    let config = RouterConfig {
        probe_interval: Duration::from_millis(200),
        ..fast_config()
    };
    let (addr, r_handle, r_join) = spawn_router(
        &scratch.0,
        vec![vec![b0_addr], vec![b1_addr, proxy.addr]],
        1,
        config,
    );
    let health = Request::Health.encode()[0];

    let mut client = Client::connect(addr).expect("connect");
    let nodes: Vec<NodeId> = (0..40).collect();
    let pairs: Vec<(NodeId, NodeId)> = nodes.iter().map(|&v| (v, 39 - v)).collect();
    let (harmonic, jaccard) = (
        local.harmonic_batch(&nodes),
        local.jaccard_batch(&pairs, 2.0),
    );
    let window = Duration::from_millis(1200);
    let t0 = Instant::now();
    let mut after_two_sweeps = None;
    let mut served = 0u32;
    while t0.elapsed() < window {
        let (sweeps, dials) = proxy.first_requests(health);
        if sweeps >= 2 && after_two_sweeps.is_none() {
            after_two_sweeps = Some(dials);
        }
        assert_eq!(client.harmonic(&nodes).expect("harmonic"), harmonic);
        assert_eq!(client.jaccard(2.0, &pairs).expect("jaccard"), jaccard);
        served += 2;
    }
    let (sweeps, dials) = proxy.first_requests(health);
    assert!(served >= 10, "only {served} requests in {window:?}");
    assert!(dials >= 1, "no worker ever dialed the mis-wired replica");
    let fenced = after_two_sweeps.expect("two sweeps within the window");
    assert_eq!(
        dials, fenced,
        "workers dialed a fenced endpoint ({sweeps} sweeps, {served} requests)"
    );

    drop(proxy);
    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    for (h, j) in [
        (b0_handle, b0_join),
        (b1_handle, b1_join),
        (wrong_handle, wrong_join),
    ] {
        h.shutdown();
        j.join().expect("backend thread").expect("backend run");
    }
}

#[test]
fn router_shutdown_is_prompt_despite_a_slow_probe_interval() {
    let g = generators::gnp(30, 0.1, 23);
    let ads = AdsSet::build(&g, 2, 2);
    // A glacial probe interval: without the condvar nudge, shutdown
    // would stall until the prober's next tick.
    let mut config = fast_config();
    config.probe_interval = Duration::from_secs(30);
    let mut guard = ReplicaFleet::spawn(&ads, 1, 2, 1, "rep_shutdown", config);
    let mut client = Client::connect(guard.addr).expect("connect");
    let nodes: Vec<NodeId> = (0..30).collect();

    // Fail a replica so shutdown happens with the breaker engaged: its
    // endpoint cools for the whole 30 s interval.
    guard.kill(0, 0);
    for _ in 0..3 {
        client.harmonic(&nodes).expect("replica 1 serves");
    }
    drop(client);
    let took = guard.shutdown_router_timed();
    assert!(
        took < Duration::from_secs(3),
        "router shutdown waited out the probe interval: {took:?}"
    );
}

proptest! {
    /// Random tiny graph, random fleet shape, one replica of every
    /// shard dead: round-robin + failover never reorders the
    /// request-order merge — answers stay bitwise identical to the
    /// local engine.
    #[test]
    fn failover_and_round_robin_never_reorder_the_merge(
        n in 2usize..20,
        seed in 0u64..500,
        k in 1usize..4,
        shards in 1usize..4,
        dead_rep in 0usize..2,
    ) {
        let g = generators::gnp_directed(n, 0.15, seed);
        let ads = AdsSet::build(&g, k, seed);
        let frozen = ads.freeze();
        let local = QueryEngine::new(&frozen);
        let scratch = Scratch::new("rep_prop");
        freeze_sharded(&ads, shards, &scratch.0).expect("freeze_sharded");
        let mut replicas = Vec::with_capacity(shards);
        let mut cleanup = Vec::new();
        for shard in 0..shards {
            let (live, handle, join) = spawn_backend(&scratch.0, shard);
            cleanup.push((handle, join));
            // One live replica, one dead port — which slot is dead
            // varies, so both round-robin positions get exercised.
            let mut reps = vec![live, dead_port()];
            reps.swap(0, dead_rep);
            replicas.push(reps);
        }
        let (addr, r_handle, r_join) = spawn_router(&scratch.0, replicas, 2, fast_config());

        let mut client = Client::connect(addr).expect("connect");
        let nodes: Vec<NodeId> = (0..n as NodeId).collect();
        let rev: Vec<NodeId> = nodes.iter().rev().copied().collect();
        prop_assert_eq!(
            client.harmonic(&rev).expect("harmonic"),
            local.harmonic_batch(&rev)
        );
        let pairs: Vec<(NodeId, NodeId)> = nodes
            .iter()
            .map(|&v| (v, (v + n as NodeId / 2) % n as NodeId))
            .collect();
        prop_assert_eq!(
            client.jaccard(1.5, &pairs).expect("jaccard"),
            local.jaccard_batch(&pairs, 1.5)
        );

        r_handle.shutdown();
        r_join.join().expect("router thread").expect("router run");
        for (h, j) in cleanup {
            h.shutdown();
            j.join().expect("backend thread").expect("backend run");
        }
    }
}
