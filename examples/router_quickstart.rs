//! The distributed serving topology end to end: build →
//! `freeze_sharded` → a **replica set** of backend processes per shard
//! (each loads only its own shard) → a stateless router in front →
//! batch-query the router — verifying every
//! merged answer is bitwise identical to the local [`QueryEngine`] on
//! the unsharded store, including cross-shard Jaccard pairs — then kill
//! one replica and query straight through the hole.
//!
//! ```text
//! cargo run --release --example router_quickstart
//! ```
//!
//! The "processes" here are in-process threads so the example is
//! self-contained; in a real deployment each [`BackendStore`] server
//! and the router run as separate OS processes on separate hosts (see
//! README, "Serving at scale").

use adsketch::core::frozen::SHARD_MANIFEST_FILE;
use adsketch::core::{freeze_sharded, AdsSet, AdsView, QueryEngine, ShardManifest};
use adsketch::graph::{generators, NodeId};
use adsketch::serve::{BackendStore, Client, RequestStore, Router, RouterConfig};

/// CI runs every example with `ADSKETCH_EXAMPLE_TINY=1` (see ci.yml).
fn tiny() -> bool {
    std::env::var_os("ADSKETCH_EXAMPLE_TINY").is_some()
}

fn main() {
    let n = if tiny() { 300 } else { 10_000 };
    let shards = 3;
    let g = generators::barabasi_albert(n, 4, 7);
    let k = 16;

    // Build once, write one file per shard plus the manifest.
    let ads = AdsSet::build_parallel(&g, k, 42, 0);
    let dir = std::env::temp_dir().join("adsketch_router_quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    freeze_sharded(&ads, shards, &dir).expect("freeze_sharded");

    // A replica set per shard: every replica of shard i loads ONLY that
    // shard file and serves its manifest node range on its own port.
    let replicas = 2;
    let mut backend_addrs: Vec<Vec<std::net::SocketAddr>> = vec![Vec::new(); shards];
    let mut backend_handles = Vec::with_capacity(shards * replicas);
    let mut backend_threads = Vec::with_capacity(shards * replicas);
    for (i, shard_addrs) in backend_addrs.iter_mut().enumerate() {
        for r in 0..replicas {
            let store = BackendStore::load(&dir, i).expect("load backend shard");
            if r == 0 {
                println!(
                    "shard {i}: nodes {:?} ({} entries resident per replica)",
                    store.owned_range(),
                    store.total_entries()
                );
            }
            let server = store.into_server("127.0.0.1:0", 2).expect("bind backend");
            shard_addrs.push(server.local_addr().expect("backend addr"));
            backend_handles.push(server.handle());
            backend_threads.push(std::thread::spawn(move || server.run()));
        }
    }

    // A stateless router in front: it holds no sketch data, only the
    // manifest's node-range table and the replica addresses.
    let manifest = ShardManifest::load(dir.join(SHARD_MANIFEST_FILE)).expect("manifest");
    let router = Router::bind(
        "127.0.0.1:0",
        manifest,
        backend_addrs.clone(),
        2,
        RouterConfig::default(),
    )
    .expect("bind router");
    let addr = router.local_addr().expect("router addr");
    let handle = router.handle();
    let router_thread = std::thread::spawn(move || router.run());
    println!("\nrouter at {addr} over {shards} shards x {replicas} replicas: {backend_addrs:?}");

    // Clients talk to the router exactly as they would to a
    // single-process server — same protocol, same answers.
    let mut client = Client::connect(addr).expect("connect router");
    let nodes: Vec<NodeId> = (0..n as NodeId).collect();
    let harmonic = client.harmonic(&nodes).expect("harmonic batch");
    let within3: Vec<(NodeId, f64)> = nodes.iter().map(|&v| (v, 3.0)).collect();
    let cardinality = client.cardinality(&within3).expect("cardinality batch");
    // Antipodal pairs land on different shards: the router fetches each
    // endpoint's sketch prefix from its owner and merges.
    let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId / 2)
        .map(|v| (v, v + n as NodeId / 2))
        .collect();
    let jaccard = client.jaccard(3.0, &pairs).expect("jaccard batch");

    // Every merged answer matches the local engine on the *unsharded*
    // store bit for bit.
    let local = QueryEngine::new(&ads);
    assert_eq!(harmonic, local.harmonic_batch(&nodes));
    assert_eq!(cardinality, local.cardinality_batch(&within3));
    assert_eq!(jaccard, local.jaccard_batch(&pairs, 3.0));
    println!(
        "routed {} harmonic + {} cardinality + {} cross-shard jaccard answers — \
         all bitwise identical to the local engine",
        harmonic.len(),
        cardinality.len(),
        jaccard.len()
    );

    // Kill shard 0's first replica and query straight through the hole:
    // the router fails the legs over to the surviving replica, and the
    // answers do not change by a single bit.
    backend_handles.remove(0).shutdown();
    backend_threads
        .remove(0)
        .join()
        .expect("backend thread")
        .expect("backend run");
    let after_loss = client
        .harmonic(&nodes)
        .expect("harmonic after replica loss");
    assert_eq!(after_loss, local.harmonic_batch(&nodes));
    println!("killed one replica of shard 0 — answers unchanged, no client-visible error");

    // Shutdown ordering: router first (it drains in-flight client
    // work), then the backends.
    drop(client);
    handle.shutdown();
    router_thread
        .join()
        .expect("router thread")
        .expect("router run");
    for h in backend_handles {
        h.shutdown();
    }
    for t in backend_threads {
        t.join().expect("backend thread").expect("backend run");
    }
    std::fs::remove_dir_all(&dir).ok();
}
