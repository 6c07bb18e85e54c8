//! Dynamic-graph end-to-end gates: edges stream through the ingest tier
//! ([`adsketch::ingest`]), the freezer publishes numbered generations,
//! and a live server is hot-swapped between them **mid-traffic**. The
//! invariant under test is the tentpole one: incrementally maintained
//! sketches answer **bitwise identically** to a from-scratch rebuild of
//! the same edge prefix — for every estimator of the protocol, before
//! and after each swap, with no client-visible disruption.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adsketch::core::{freeze_sharded, AdsSet, QueryEngine, StoreFormat};
use adsketch::graph::{generators, Graph, NodeId};
use adsketch::ingest::{current_generation, Freezer, Ingestor};
use adsketch::serve::{Client, GenerationStore, Request, Response, Server, ShardedStore};

use common::{
    assert_routed_equals_local, fast_config, fast_path_config, spawn_backend_at, spawn_router,
    spawn_router_with_stats, Scratch,
};

/// One rank seed everywhere: the ingestor's incremental sketches and the
/// from-scratch oracles must hash identically for bitwise comparison.
const SEED: u64 = 21;

/// A deterministic weighted edge stream (CSR order of a fixed graph).
fn edge_stream(n: usize) -> Vec<(NodeId, NodeId, f64)> {
    let g = generators::random_weighted_digraph(n, 4, 0.5, 2.5, 11);
    let mut edges = Vec::with_capacity(g.num_arcs());
    for u in 0..n as NodeId {
        for (v, w) in g.arcs(u) {
            edges.push((u, v, w));
        }
    }
    edges
}

/// The from-scratch oracle for an edge prefix: what a cold batch build
/// of exactly those edges answers.
fn oracle(n: usize, k: usize, prefix: &[(NodeId, NodeId, f64)]) -> AdsSet {
    let g = Graph::directed_weighted(n, prefix).expect("prefix graph");
    AdsSet::build(&g, k, SEED)
}

fn ingest(ingestor: &Mutex<Ingestor>, edges: &[(NodeId, NodeId, f64)]) {
    let mut ing = ingestor.lock().expect("ingestor lock");
    for &(u, v, w) in edges {
        ing.ingest(u, v, w).expect("ingest edge");
    }
    ing.flush().expect("flush edge log");
}

/// The tentpole gate end to end: stream edges in three tranches, freeze
/// each into a generation, hot-swap a live server twice while a
/// background client hammers it, and after every swap run the full
/// request battery (harmonic, decay kernels, cardinality, neighborhood
/// function, jaccard, sketch prefixes) against the from-scratch oracle
/// of that generation's edge prefix — all bitwise.
#[test]
fn hot_swapped_generations_answer_bitwise_like_fresh_builds() {
    let (n, k) = (100usize, 6usize);
    let edges = edge_stream(n);
    let m = edges.len();
    let cuts = [m / 3, 2 * m / 3, m];
    let scratch = Scratch::new("dyn_swap");
    let ingestor = Arc::new(Mutex::new(
        Ingestor::open(scratch.0.join("log"), n, k, SEED, 1 << 14).expect("open ingestor"),
    ));
    let mut freezer = Freezer::new(scratch.0.join("store"), 2, StoreFormat::V2).expect("freezer");

    ingest(&ingestor, &edges[..cuts[0]]);
    let gen1 = freezer.freeze(ingestor.as_ref()).expect("freeze gen 1");
    let store = Arc::new(GenerationStore::new(
        ShardedStore::load(&gen1.dir).expect("load gen 1"),
        gen1.generation,
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&store), 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // Background traffic across both swaps: any error fails the test.
    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("load client");
            let nodes: Vec<NodeId> = (0..n as NodeId).collect();
            let mut frames = 0u64;
            while !stop.load(Ordering::SeqCst) {
                client.harmonic(&nodes).expect("load harmonic");
                frames += 1;
            }
            frames
        })
    };

    let mut client = Client::connect(addr).expect("connect");
    for (i, &cut) in cuts.iter().enumerate() {
        let generation = (i + 1) as u64;
        if i > 0 {
            ingest(&ingestor, &edges[cuts[i - 1]..cut]);
            let frozen = freezer.freeze(ingestor.as_ref()).expect("freeze");
            assert_eq!(frozen.generation, generation);
            let next = ShardedStore::load(&frozen.dir).expect("load generation");
            assert_eq!(store.swap(next, generation), generation - 1);
        }
        assert_eq!(client.gen_info().expect("gen info"), generation);
        let ads = oracle(n, k, &edges[..cut]);
        assert_routed_equals_local(&mut client, &ads, &ads.freeze());
    }

    // The live incremental state itself equals the full-graph oracle.
    assert_eq!(
        ingestor.lock().expect("ingestor lock").snapshot(),
        oracle(n, k, &edges)
    );

    stop.store(true, Ordering::SeqCst);
    assert!(load.join().expect("load thread") > 0, "no load ran");
    handle.shutdown();
    join.join().expect("server thread").expect("server run");
}

/// A swap landing inside an in-flight pipelined batch: every frame must
/// be answered entirely by one generation (the per-frame pin), the
/// generation sequence observed on one connection must be monotone, and
/// after the batch the connection serves the new generation.
#[test]
fn swap_during_pipelined_batch_keeps_frames_single_generation() {
    let (n, k) = (80usize, 5usize);
    let edges = edge_stream(n);
    let cut = edges.len() / 2;
    let scratch = Scratch::new("dyn_pipeline");
    let ingestor = Arc::new(Mutex::new(
        Ingestor::open(scratch.0.join("log"), n, k, SEED, 1 << 14).expect("open ingestor"),
    ));
    let mut freezer = Freezer::new(scratch.0.join("store"), 1, StoreFormat::V1).expect("freezer");

    ingest(&ingestor, &edges[..cut]);
    let gen1 = freezer.freeze(ingestor.as_ref()).expect("freeze gen 1");
    ingest(&ingestor, &edges[cut..]);
    let gen2 = freezer.freeze(ingestor.as_ref()).expect("freeze gen 2");

    let store = Arc::new(GenerationStore::new(
        ShardedStore::load(&gen1.dir).expect("load gen 1"),
        1,
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&store), 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let nodes: Vec<NodeId> = (0..n as NodeId).collect();
    let by_gen = [
        QueryEngine::new(&oracle(n, k, &edges[..cut]).freeze()).harmonic_batch(&nodes),
        QueryEngine::new(&oracle(n, k, &edges).freeze()).harmonic_batch(&nodes),
    ];

    // GenInfo frames bracket every harmonic frame, all in one pipelined
    // batch, while another thread swaps generations mid-flight.
    let frames = 200usize;
    let mut reqs = vec![Request::GenInfo];
    for _ in 0..frames {
        reqs.push(Request::Harmonic {
            nodes: nodes.clone(),
        });
        reqs.push(Request::GenInfo);
    }
    let swapper = {
        let store = Arc::clone(&store);
        let dir = gen2.dir.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            let next = ShardedStore::load(&dir).expect("load gen 2");
            assert_eq!(store.swap(next, 2), 1);
        })
    };
    let mut client = Client::connect(addr).expect("connect");
    let resps = client.pipeline(&reqs).expect("pipelined batch");
    swapper.join().expect("swapper thread");

    let gen_of = |resp: &Response| match resp {
        Response::GenInfo { generation } => *generation,
        other => panic!("expected GenInfo, got {other:?}"),
    };
    let mut last = gen_of(&resps[0]);
    for f in 0..frames {
        let g_before = gen_of(&resps[2 * f]);
        let g_after = gen_of(&resps[2 * f + 2]);
        assert!(g_before <= g_after, "generation regressed mid-pipeline");
        assert!(last <= g_before);
        last = g_after;
        let Response::Floats(got) = &resps[2 * f + 1] else {
            panic!("expected Floats, got {:?}", resps[2 * f + 1]);
        };
        // The whole frame must match ONE generation in its bracket —
        // a half-old, half-new answer fails both candidates.
        assert!(
            (g_before..=g_after).any(|g| got == &by_gen[g as usize - 1]),
            "frame {f} matches no single generation in {g_before}..={g_after}"
        );
    }
    // The swap happened and the connection now serves generation 2.
    assert_eq!(client.gen_info().expect("gen info"), 2);
    assert_eq!(client.harmonic(&nodes).expect("harmonic"), by_gen[1]);

    handle.shutdown();
    join.join().expect("server thread").expect("server run");
}

/// A router with its answer cache enabled in front of a hot-swapping
/// backend: once the router's serving generation advances, cached
/// old-generation bits must never be replayed (the generation is part of
/// the cache key).
#[test]
fn router_answer_cache_never_replays_old_generation_bits() {
    let (n, k) = (80usize, 5usize);
    let edges = edge_stream(n);
    let cut = edges.len() / 2;
    let scratch = Scratch::new("dyn_cache");
    let ingestor = Arc::new(Mutex::new(
        Ingestor::open(scratch.0.join("log"), n, k, SEED, 1 << 14).expect("open ingestor"),
    ));
    let mut freezer = Freezer::new(scratch.0.join("store"), 1, StoreFormat::V1).expect("freezer");

    ingest(&ingestor, &edges[..cut]);
    let gen1 = freezer.freeze(ingestor.as_ref()).expect("freeze gen 1");
    ingest(&ingestor, &edges[cut..]);
    let gen2 = freezer.freeze(ingestor.as_ref()).expect("freeze gen 2");

    let e1 = QueryEngine::new(&ShardedStore::load(&gen1.dir).expect("load 1")).harmonic_all();
    let e2 = QueryEngine::new(&ShardedStore::load(&gen2.dir).expect("load 2")).harmonic_all();
    assert_ne!(e1, e2, "the two generations must answer differently");

    // One hot-swappable backend behind a cache-enabled router. The
    // router's prober polls GenInfo and advances its serving generation.
    let store = Arc::new(GenerationStore::new(
        ShardedStore::load(&gen1.dir).expect("load gen 1"),
        1,
    ));
    let backend = Server::bind("127.0.0.1:0", Arc::clone(&store), 2).expect("bind backend");
    let backend_addr = backend.local_addr().expect("backend addr");
    let backend_handle = backend.handle();
    let backend_join = std::thread::spawn(move || backend.run());
    let (addr, router_handle, router_join, stats) =
        spawn_router_with_stats(&gen1.dir, vec![vec![backend_addr]], 2, fast_path_config());
    let stats = stats.expect("cache enabled");

    let mut client = Client::connect(addr).expect("connect");
    let nodes: Vec<NodeId> = (0..n as NodeId).collect();
    assert_eq!(client.harmonic(&nodes).expect("cold"), e1);
    assert_eq!(client.harmonic(&nodes).expect("warm"), e1);
    assert!(stats.hits() > 0, "the warm repeat must hit the cache");

    let next = ShardedStore::load(&gen2.dir).expect("load gen 2");
    assert_eq!(store.swap(next, 2), 1);
    // Wait for the prober to observe generation 2 (the router answers
    // GenInfo locally from its serving generation).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if client.gen_info().expect("router gen info") == 2 {
            break;
        }
        assert!(Instant::now() < deadline, "router never observed the swap");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Same query, new generation: the cached generation-1 bits must NOT
    // come back — the answer is generation 2's, bit for bit.
    assert_eq!(client.harmonic(&nodes).expect("post-swap"), e2);
    assert_eq!(client.harmonic(&nodes).expect("post-swap warm"), e2);

    router_handle.shutdown();
    router_join
        .join()
        .expect("router thread")
        .expect("router run");
    backend_handle.shutdown();
    backend_join
        .join()
        .expect("backend thread")
        .expect("backend run");
}

/// A 1-shard fleet holds a hot-swapping backend and, by mistake, a static
/// backend of another shard layout (it serves half the nodes and reports
/// generation 0). The sweep fences the mis-wired endpoint, so only the
/// hot-swapping backend votes on the serving generation, which reaches
/// the swapped-in generation 2.
#[test]
fn a_fenced_endpoint_does_not_vote_on_the_serving_generation() {
    let (n, k) = (80usize, 5usize);
    let edges = edge_stream(n);
    let cut = edges.len() / 2;
    let scratch = Scratch::new("dyn_fenced_vote");
    let ingestor = Mutex::new(
        Ingestor::open(scratch.0.join("log"), n, k, SEED, 1 << 14).expect("open ingestor"),
    );
    let mut freezer = Freezer::new(scratch.0.join("store"), 1, StoreFormat::V1).expect("freezer");
    ingest(&ingestor, &edges[..cut]);
    let gen1 = freezer.freeze(&ingestor).expect("freeze gen 1");
    ingest(&ingestor, &edges[cut..]);
    let gen2 = freezer.freeze(&ingestor).expect("freeze gen 2");
    let e2 = QueryEngine::new(&ShardedStore::load(&gen2.dir).expect("load 2")).harmonic_all();

    let store = Arc::new(GenerationStore::new(
        ShardedStore::load(&gen1.dir).expect("load gen 1"),
        1,
    ));
    let backend = Server::bind("127.0.0.1:0", Arc::clone(&store), 2).expect("bind backend");
    let backend_addr = backend.local_addr().expect("backend addr");
    let backend_handle = backend.handle();
    let backend_join = std::thread::spawn(move || backend.run());
    // Shard 0 of a two-shard layout of generation 1: nodes 0..n/2 only.
    let halves = scratch.0.join("halves");
    freeze_sharded(&oracle(n, k, &edges[..cut]), 2, &halves).expect("freeze_sharded");
    let (wrong_addr, wrong_handle, wrong_join) =
        spawn_backend_at(&halves, 0, "127.0.0.1:0".parse().expect("loopback"), 2);
    let (addr, router_handle, router_join) = spawn_router(
        &gen1.dir,
        vec![vec![backend_addr, wrong_addr]],
        1,
        fast_config(),
    );

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        store.swap(ShardedStore::load(&gen2.dir).expect("load 2"), 2),
        1
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if client.gen_info().expect("router gen info") == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the serving generation never reached 2"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The sweep that counted generation 2 fenced the mis-wired replica:
    // every batch is generation 2's, bit for bit.
    let nodes: Vec<NodeId> = (0..n as NodeId).collect();
    for _ in 0..4 {
        assert_eq!(client.harmonic(&nodes).expect("post-swap"), e2);
        assert_eq!(
            client.harmonic(&nodes[..n / 4]).expect("shard-0 half"),
            e2[..n / 4]
        );
    }

    router_handle.shutdown();
    router_join
        .join()
        .expect("router thread")
        .expect("router run");
    for (h, j) in [(backend_handle, backend_join), (wrong_handle, wrong_join)] {
        h.shutdown();
        j.join().expect("backend thread").expect("backend run");
    }
}

/// A crash after freezing generation 1 but before freezing the edges
/// ingested since (plus a torn partial directory for the never-published
/// generation 2): reopening replays the journal and the next freeze
/// publishes exactly the from-scratch state of the full stream.
#[test]
fn freezer_crash_recovery_replays_the_edge_log() {
    let (n, k) = (90usize, 5usize);
    let edges = edge_stream(n);
    let cut = edges.len() / 2;
    let scratch = Scratch::new("dyn_crash");
    let log_dir = scratch.0.join("log");
    let store_root = scratch.0.join("store");

    {
        let ingestor =
            Mutex::new(Ingestor::open(&log_dir, n, k, SEED, 1 << 14).expect("open ingestor"));
        let mut freezer = Freezer::new(&store_root, 2, StoreFormat::V2).expect("freezer");
        ingest(&ingestor, &edges[..cut]);
        freezer.freeze(&ingestor).expect("freeze gen 1");
        ingest(&ingestor, &edges[cut..]);
        // Crash: everything is journaled, nothing else is frozen.
    }
    // A partial generation-2 directory the dying freezer left behind.
    let partial = store_root.join("gen-0002");
    std::fs::create_dir_all(&partial).expect("partial dir");
    std::fs::write(partial.join("shard-00000.ads"), b"torn").expect("partial shard");

    let ingestor = Mutex::new(Ingestor::open(&log_dir, n, k, SEED, 1 << 14).expect("reopen"));
    let mut freezer = Freezer::new(&store_root, 2, StoreFormat::V2).expect("freezer resumes");
    let frozen = freezer.freeze(&ingestor).expect("freeze gen 2");
    assert_eq!(frozen.generation, 2, "numbering resumes after CURRENT");
    assert_eq!(frozen.edges, edges.len() as u64);

    let (current, dir) = current_generation(&store_root)
        .expect("read CURRENT")
        .expect("published");
    assert_eq!((current, dir.as_path()), (2, frozen.dir.as_path()));
    // The recovered generation answers exactly like a cold rebuild.
    let full = oracle(n, k, &edges);
    assert_eq!(ingestor.lock().expect("lock").snapshot(), full);
    assert_eq!(
        QueryEngine::new(&ShardedStore::load(&dir).expect("load")).harmonic_all(),
        QueryEngine::new(&full.freeze()).harmonic_all()
    );
}
