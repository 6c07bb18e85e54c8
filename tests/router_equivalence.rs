//! The distributed tier's end-to-end guarantee: every answer a
//! [`Router`] merges over a fleet of per-shard backends is **bitwise
//! identical** to the local [`QueryEngine`] on the unsharded frozen
//! store — across fleet sizes {1, 2, 4}, worker counts, pipelined and
//! concurrent clients, and every request type of the protocol
//! (mirroring `tests/serve_equivalence.rs` for the single-process tier).

mod common;

use proptest::prelude::*;

use adsketch::core::centrality::DecayKernel;
use std::sync::{Arc, Mutex};

use adsketch::core::frozen::SHARD_MANIFEST_FILE;
use adsketch::core::{freeze_sharded, AdsSet, QueryEngine, ShardManifest};
use adsketch::graph::{generators, NodeId};
use adsketch::serve::{
    BackendStore, Client, Request, RequestStore, Response, RouterConfig, ServeError, Server,
};

use common::{assert_routed_equals_local, fast_path_config, spawn_router, ReplicaFleet, Scratch};

/// Freezes `ads` into `shards` backend processes (in-process servers,
/// one [`adsketch::serve::BackendStore`] each, one replica per shard)
/// plus a router in front. The guard tears the whole fleet down and
/// wipes the scratch dir on drop.
fn spawn_fleet(ads: &AdsSet, shards: usize, workers: usize, tag: &str) -> ReplicaFleet {
    ReplicaFleet::spawn(
        ads,
        shards,
        1,
        workers,
        &format!("eqv_{tag}"),
        RouterConfig::default(),
    )
}

#[test]
fn routed_answers_bitwise_identical_across_fleets_and_workers() {
    let g = generators::gnp_directed(80, 0.06, 17);
    let ads = AdsSet::build(&g, 4, 9);
    let frozen = ads.freeze();
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2] {
            let guard = spawn_fleet(&ads, shards, workers, &format!("eq_{shards}_{workers}"));
            let mut client = Client::connect(guard.addr).expect("connect");
            assert_routed_equals_local(&mut client, &ads, &frozen);
        }
    }
}

#[test]
fn weighted_and_disconnected_graphs_route_identically() {
    let weighted = generators::random_weighted_digraph(60, 3, 0.5, 2.5, 7);
    let mut arcs = generators::gnp(30, 0.12, 5)
        .all_arcs()
        .map(|(u, v, _)| (u, v))
        .collect::<Vec<_>>();
    arcs.extend(
        generators::gnp(30, 0.12, 6)
            .all_arcs()
            .map(|(u, v, _)| (u + 30, v + 30)),
    );
    let disconnected = adsketch::graph::Graph::directed(70, &arcs).unwrap();
    for (name, g) in [("weighted", &weighted), ("disconnected", &disconnected)] {
        let ads = AdsSet::build(g, 3, 2);
        let frozen = ads.freeze();
        let guard = spawn_fleet(&ads, 2, 2, &format!("kinds_{name}"));
        let mut client = Client::connect(guard.addr).expect("connect");
        assert_routed_equals_local(&mut client, &ads, &frozen);
    }
}

#[test]
fn pipelined_and_concurrent_clients_get_ordered_identical_answers() {
    let g = generators::barabasi_albert(120, 3, 4);
    let ads = AdsSet::build(&g, 4, 6);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let guard = spawn_fleet(&ads, 4, 2, "pipeline");

    // Deep pipeline on one router connection, mixing request types whose
    // scatter fan-out differs — responses must align with request order.
    let reqs: Vec<Request> = (0..40u32)
        .map(|i| {
            if i % 3 == 0 {
                Request::Jaccard {
                    d: 2.0,
                    pairs: vec![(i, (i + 61) % 120), ((i + 1) % 120, (i + 2) % 120)],
                }
            } else {
                Request::Harmonic {
                    nodes: vec![i, (i + 7) % 120, (i * 3) % 120],
                }
            }
        })
        .collect();
    let mut client = Client::connect(guard.addr).expect("connect");
    let responses = client.pipeline(&reqs).expect("pipeline");
    for (req, resp) in reqs.iter().zip(&responses) {
        let want = match req {
            Request::Harmonic { nodes } => local.harmonic_batch(nodes),
            Request::Jaccard { d, pairs } => local.jaccard_batch(pairs, *d),
            _ => unreachable!(),
        };
        assert_eq!(resp, &Response::Floats(want));
    }

    // Many concurrent connections served by a smaller worker pool.
    std::thread::scope(|s| {
        for c in 0..6u32 {
            let addr = guard.addr;
            let local = &local;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let nodes: Vec<NodeId> = (0..120).filter(|v| v % (c + 2) == 0).collect();
                for _ in 0..10 {
                    assert_eq!(
                        client.harmonic(&nodes).expect("harmonic"),
                        local.harmonic_batch(&nodes)
                    );
                }
            });
        }
    });
}

/// A backend that records the type byte of every batch it answers.
struct Recording {
    store: BackendStore,
    seen: Mutex<Vec<u8>>,
}

impl RequestStore for Recording {
    fn owned_range(&self) -> std::ops::Range<u64> {
        self.store.owned_range()
    }

    fn answer_request(&self, req: &Request) -> Response {
        // The prober's pings are not batches.
        if !matches!(req, Request::Health | Request::GenInfo) {
            self.seen.lock().expect("seen lock").push(req.encode()[0]);
        }
        self.store.answer_request(req)
    }
}

/// A Jaccard batch with a cross-shard pair is answered whole from sketch
/// prefixes: each shard owning an endpoint gets exactly one
/// `SketchPrefix` leg, same-shard pairs included. A batch whose pairs
/// each sit on one shard goes out as one Jaccard leg per shard.
#[test]
fn a_cross_shard_jaccard_batch_sends_one_prefix_leg_per_shard() {
    const JACCARD: u8 = 0x05;
    const SKETCH_PREFIX: u8 = 0x06;
    let g = generators::gnp(40, 0.1, 21);
    let ads = AdsSet::build(&g, 3, 4);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let scratch = Scratch::new("eqv_jaccard_legs");
    freeze_sharded(&ads, 2, &scratch.0).expect("freeze_sharded");
    let manifest = ShardManifest::load(scratch.0.join(SHARD_MANIFEST_FILE)).expect("manifest");
    let split = manifest.records()[0].end as NodeId;
    let backends: Vec<_> = (0..2)
        .map(|shard| {
            let store = Arc::new(Recording {
                store: BackendStore::load(&scratch.0, shard).expect("load shard"),
                seen: Mutex::new(Vec::new()),
            });
            let server = Server::bind("127.0.0.1:0", Arc::clone(&store), 1).expect("bind");
            let addr = server.local_addr().expect("addr");
            let handle = server.handle();
            (
                store,
                addr,
                handle,
                std::thread::spawn(move || server.run()),
            )
        })
        .collect();
    let replicas = backends.iter().map(|b| vec![b.1]).collect();
    let (addr, r_handle, r_join) = spawn_router(&scratch.0, replicas, 1, RouterConfig::default());
    let mut client = Client::connect(addr).expect("connect router");
    let take_seen = |shard: usize| -> Vec<u8> {
        std::mem::take(&mut *backends[shard].0.seen.lock().expect("seen lock"))
    };

    // Same-shard pairs on both shards, plus one cross-shard pair.
    let pairs = [(0, 1), (split, split + 1), (2, split + 2), (3, 3)];
    assert_eq!(
        client.jaccard(2.0, &pairs).expect("jaccard"),
        local.jaccard_batch(&pairs, 2.0)
    );
    assert_eq!(take_seen(0), [SKETCH_PREFIX]);
    assert_eq!(take_seen(1), [SKETCH_PREFIX]);

    // No pair crosses: one Jaccard leg per shard.
    let pairs = [(0, 1), (split, split + 1), (3, 3)];
    assert_eq!(
        client.jaccard(2.0, &pairs).expect("jaccard"),
        local.jaccard_batch(&pairs, 2.0)
    );
    assert_eq!(take_seen(0), [JACCARD]);
    assert_eq!(take_seen(1), [JACCARD]);

    drop(client);
    r_handle.shutdown();
    r_join.join().expect("router thread").expect("router run");
    for (_, _, handle, join) in backends {
        handle.shutdown();
        join.join().expect("backend thread").expect("backend run");
    }
}

#[test]
fn router_error_frames_match_the_single_process_server() {
    let g = generators::gnp(30, 0.1, 3);
    let ads = AdsSet::build(&g, 2, 1);
    let frozen = ads.freeze();
    let guard = spawn_fleet(&ads, 2, 1, "errors");
    let mut client = Client::connect(guard.addr).expect("connect");
    // Out-of-range nodes are rejected by the router itself, with the
    // byte-identical message the single-process server produces.
    let err = client.harmonic(&[0, 29, 30]).unwrap_err();
    match err {
        ServeError::Remote { code, message } => {
            assert_eq!(code, adsketch::serve::proto::ERR_NODE_RANGE);
            assert_eq!(message, "node 30 out of range (store covers 30 nodes)");
        }
        other => panic!("expected a Remote error, got {other}"),
    }
    let err = client.jaccard(1.0, &[(0, 99)]).unwrap_err();
    assert!(matches!(err, ServeError::Remote { .. }));
    // The connection survives error frames.
    assert_eq!(
        client.harmonic(&[0, 1]).expect("still usable"),
        QueryEngine::new(&frozen).harmonic_batch(&[0, 1])
    );
}

#[test]
fn backends_reject_nodes_outside_their_shard_range() {
    let g = generators::gnp(40, 0.1, 5);
    let ads = AdsSet::build(&g, 3, 8);
    let guard = spawn_fleet(&ads, 2, 1, "shard_range");
    // Talk to shard 0's backend directly: a node owned by shard 1 is
    // in-graph but not resident here — it must earn ERR_SHARD_RANGE, not
    // a silent empty-row answer.
    let mut direct = Client::connect(guard.slots[0][0].addr).expect("connect backend");
    let err = direct.harmonic(&[39]).unwrap_err();
    match err {
        ServeError::Remote { code, message } => {
            assert_eq!(code, adsketch::serve::proto::ERR_SHARD_RANGE);
            assert!(message.contains("39"), "{message}");
        }
        other => panic!("expected a Remote error, got {other}"),
    }
    // Owned nodes still answer, and the connection survived the error.
    assert_eq!(direct.harmonic(&[0]).expect("owned node").len(), 1);
}

#[test]
fn router_shutdown_never_drops_an_accepted_pipelines_response() {
    let g = generators::gnp(40, 0.12, 11);
    let ads = AdsSet::build(&g, 3, 5);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let guard = spawn_fleet(&ads, 2, 2, "shutdown_order");

    // Pipeline a burst of requests, then shut the router down while they
    // are (potentially) still in flight. Every request written before
    // shutdown was accepted — each must still get its answer.
    let reqs: Vec<Request> = (0..25u32)
        .map(|i| Request::Harmonic {
            nodes: (0..40).map(|v| (v + i) % 40).collect(),
        })
        .collect();
    let mut client = Client::connect(guard.addr).expect("connect");
    let router_handle = guard.router_handle();
    let responses = std::thread::scope(|s| {
        let h = s.spawn(move || {
            // Let the pipeline start flowing, then pull the plug.
            std::thread::sleep(std::time::Duration::from_millis(5));
            router_handle.shutdown();
        });
        let responses = client
            .pipeline(&reqs)
            .expect("pipelined responses survive shutdown");
        h.join().expect("shutdown thread");
        responses
    });
    assert_eq!(responses.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&responses) {
        let Request::Harmonic { nodes } = req else {
            unreachable!()
        };
        assert_eq!(resp, &Response::Floats(local.harmonic_batch(nodes)));
    }
}

#[test]
fn fast_path_full_battery_identical_cold_and_hot() {
    let g = generators::gnp_directed(80, 0.06, 23);
    let ads = AdsSet::build(&g, 4, 3);
    let frozen = ads.freeze();
    let guard = ReplicaFleet::spawn(&ads, 2, 1, 2, "eqv_fastpath", fast_path_config());
    let mut client = Client::connect(guard.addr).expect("connect");
    // Cold pass populates the cache, hot pass replays from it — both
    // must be bitwise identical to the local engine.
    assert_routed_equals_local(&mut client, &ads, &frozen);
    assert_routed_equals_local(&mut client, &ads, &frozen);
    let stats = guard.cache_stats.as_ref().expect("cache enabled");
    assert!(stats.hits() > 0, "second battery pass must hit the cache");
    assert!(stats.misses() > 0, "first battery pass must miss the cache");
    assert!(stats.resident_entries() <= stats.capacity_entries());
}

#[test]
fn partial_cache_hits_merge_with_cross_shard_jaccard_misses() {
    let g = generators::gnp_directed(80, 0.06, 23);
    let ads = AdsSet::build(&g, 4, 3);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let guard = ReplicaFleet::spawn(&ads, 2, 1, 2, "eqv_partial_hits", fast_path_config());
    let stats = guard.cache_stats.as_ref().expect("cache enabled");
    let range = |shard: usize| {
        let mut backend = Client::connect(guard.slots[shard][0].addr).expect("connect backend");
        let (start, end) = backend.health().expect("backend health");
        (start as NodeId, end as NodeId)
    };
    let ((s0, e0), (s1, e1)) = (range(0), range(1));
    assert!(e0 - s0 >= 8 && e1 - s1 >= 8, "both shards hold 8 nodes");
    let d = 2.0;
    let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let mut client = Client::connect(guard.addr).expect("connect");

    // Warm three pairs that each sit on one shard.
    let warm = [(s0, s0 + 1), (s1 + 2, s1 + 3), (s0 + 4, s0 + 5)];
    client.jaccard(d, &warm).expect("warm-up batch");
    // One batch mixing the warmed pairs with four uncached pairs that
    // cross shards: the hits fill their slots, the misses go through the
    // prefix step, and one merge answers them all.
    let cross = [
        (s0 + 6, s1),
        (s1 + 7, s0 + 2),
        (s0 + 3, s1 + 5),
        (s1 + 6, s0 + 7),
    ];
    let batch = [
        cross[0], warm[0], cross[1], cross[2], warm[1], warm[2], cross[3],
    ];
    let want = bits(local.jaccard_batch(&batch, d));
    let (hits, misses, resident) = (stats.hits(), stats.misses(), stats.resident_entries());
    assert_eq!(bits(client.jaccard(d, &batch).expect("mixed batch")), want);
    assert_eq!(stats.hits() - hits, warm.len() as u64);
    assert_eq!(stats.misses() - misses, cross.len() as u64);
    assert_eq!(stats.resident_entries() - resident, cross.len());

    // The repeat is all hits and adds nothing.
    let (hits, misses, resident) = (stats.hits(), stats.misses(), stats.resident_entries());
    assert_eq!(
        bits(client.jaccard(d, &batch).expect("repeated batch")),
        want
    );
    assert_eq!(stats.hits() - hits, batch.len() as u64);
    assert_eq!(stats.misses(), misses);
    assert_eq!(stats.resident_entries(), resident);
}

#[test]
fn cache_evicts_instead_of_growing_past_its_budget() {
    let g = generators::barabasi_albert(300, 2, 13);
    let ads = AdsSet::build(&g, 3, 5);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    // 4 KiB of cache = 64 accounted entries; the workload inserts far
    // more distinct answers than that across three cached kinds.
    let config = RouterConfig {
        cache_bytes: 4096,
        ..RouterConfig::default()
    };
    let guard = ReplicaFleet::spawn(&ads, 2, 1, 2, "eqv_cache_bound", config);
    let stats = guard.cache_stats.as_ref().expect("cache enabled");
    let budget_entries = 4096 / 64;
    assert_eq!(stats.capacity_entries(), budget_entries);
    let mut client = Client::connect(guard.addr).expect("connect");
    let nodes: Vec<NodeId> = (0..300).collect();
    let queries: Vec<(NodeId, f64)> = nodes.iter().map(|&v| (v, 2.0)).collect();
    for _ in 0..3 {
        assert_eq!(
            client.harmonic(&nodes).expect("harmonic"),
            local.harmonic_batch(&nodes)
        );
        assert_eq!(
            client.cardinality(&queries).expect("cardinality"),
            local.cardinality_batch(&queries)
        );
    }
    // Filling far past the byte budget evicts; residency never grows
    // beyond the configured capacity.
    assert!(
        stats.resident_entries() <= stats.capacity_entries(),
        "resident {} > capacity {}",
        stats.resident_entries(),
        stats.capacity_entries()
    );
    // `resident_bytes` reports actual allocation (slab arrays + map
    // tables), not the per-entry budgeting estimate: it must be real
    // (nonzero once entries are resident) and bounded by construction —
    // the configured budget plus allocator rounding, never
    // workload-proportional.
    assert!(stats.resident_bytes() > 0);
    assert!(
        stats.resident_bytes() <= 4 * 4096,
        "allocated {} bytes for a 4096-byte budget",
        stats.resident_bytes()
    );
    assert!(stats.misses() > budget_entries as u64);
}

proptest! {
    /// Random tiny graph, random fleet size: routed mixed batches are
    /// bitwise identical to the local engine.
    #[test]
    fn random_graphs_route_bitwise_identically(
        n in 2usize..24,
        seed in 0u64..500,
        k in 1usize..5,
        shards in 1usize..5,
    ) {
        let g = generators::gnp_directed(n, 0.15, seed);
        let ads = AdsSet::build(&g, k, seed);
        let frozen = ads.freeze();
        let local = QueryEngine::new(&frozen);
        let guard = spawn_fleet(&ads, shards, 2, "prop");
        let mut client = Client::connect(guard.addr).expect("connect");
        let nodes: Vec<NodeId> = (0..n as NodeId).collect();
        prop_assert_eq!(
            client.harmonic(&nodes).expect("harmonic"),
            local.harmonic_batch(&nodes)
        );
        let pairs: Vec<(NodeId, NodeId)> = nodes
            .iter()
            .map(|&v| (v, (v + n as NodeId / 2) % n as NodeId))
            .collect();
        prop_assert_eq!(
            client.jaccard(1.5, &pairs).expect("jaccard"),
            local.jaccard_batch(&pairs, 1.5)
        );
    }
}

proptest! {
    /// With the answer cache on, concurrent clients interleaving hot
    /// (repeated), cold (fresh), and simultaneous identical batches
    /// still get answers bitwise identical to the local engine — the
    /// cache may change timing, never bits.
    #[test]
    fn interleaved_hot_cold_batches_route_identically(
        n in 8u32..40,
        seed in 0u64..500,
        shards in 1usize..4,
    ) {
        let g = generators::gnp_directed(n as usize, 0.12, seed);
        let ads = AdsSet::build(&g, 3, seed);
        let frozen = ads.freeze();
        let local = QueryEngine::new(&frozen);
        let guard =
            ReplicaFleet::spawn(&ads, shards, 1, 2, "eqv_fastprop", fast_path_config());
        // Identical across clients, fired simultaneously: workers peel
        // and fill the same cache keys concurrently.
        let shared: Vec<NodeId> = (0..n).collect();
        std::thread::scope(|s| {
            for c in 0..3u32 {
                let addr = guard.addr;
                let local = &local;
                let shared = &shared;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for round in 0..3u32 {
                        assert_eq!(
                            client.harmonic(shared).expect("harmonic"),
                            local.harmonic_batch(shared)
                        );
                        // A per-client batch: cold on the first send of
                        // the pair, hot (cache-served) on the second.
                        let mine: Vec<NodeId> = (0..n)
                            .filter(|v| (v.wrapping_mul(7) + c + round) % 3 == 0)
                            .collect();
                        if mine.is_empty() {
                            continue;
                        }
                        let kernel = DecayKernel::Exponential { base: 2.0 };
                        for _ in 0..2 {
                            assert_eq!(
                                client.decay(kernel, &mine).expect("decay"),
                                local.decay_batch(kernel, &mine)
                            );
                        }
                        let q: Vec<(NodeId, f64)> =
                            mine.iter().map(|&v| (v, f64::from(round))).collect();
                        assert_eq!(
                            client.cardinality(&q).expect("cardinality"),
                            local.cardinality_batch(&q)
                        );
                    }
                });
            }
        });
        let stats = guard.cache_stats.as_ref().expect("cache enabled");
        prop_assert!(stats.hits() > 0, "repeated batches must hit the cache");
    }
}
