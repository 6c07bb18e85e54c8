//! The full serving lifecycle: build → `freeze_sharded` → load the
//! sharded store → serve over TCP → batch-query from a client —
//! verifying every served answer is bitwise identical to the local
//! [`QueryEngine`] on the unsharded store.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use std::sync::Arc;

use adsketch::core::centrality::DecayKernel;
use adsketch::core::{freeze_sharded, AdsSet, QueryEngine};
use adsketch::graph::{generators, NodeId};
use adsketch::serve::{Client, Server, ShardedStore};

/// CI runs every example with `ADSKETCH_EXAMPLE_TINY=1` (see ci.yml).
fn tiny() -> bool {
    std::env::var_os("ADSKETCH_EXAMPLE_TINY").is_some()
}

fn main() {
    let n = if tiny() { 300 } else { 10_000 };
    let shards = 4;
    let g = generators::barabasi_albert(n, 4, 7);
    let k = 16;

    // Build once, then write a sharded store: S full-width v1
    // shard files plus the checksummed ADSKSHD1 manifest.
    let ads = AdsSet::build_parallel(&g, k, 42, 0);
    let dir = std::env::temp_dir().join("adsketch_serve_quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = freeze_sharded(&ads, shards, &dir).expect("freeze_sharded");
    println!(
        "froze {} sketches ({} entries) into {} shards:",
        manifest.num_nodes(),
        manifest.total_entries(),
        manifest.num_shards()
    );
    for (i, rec) in manifest.records().iter().enumerate() {
        println!(
            "  shard {i}: nodes {:>6}..{:<6} {:>8} entries  digest {:#018x}",
            rec.start, rec.end, rec.entries, rec.digest
        );
    }

    // Load (all shards stream in parallel, digests verified) and serve.
    let store = Arc::new(ShardedStore::load(&dir).expect("load sharded store"));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&store), 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());
    println!("\nserving {n} nodes from {addr} ({shards} shards, 2 workers)");

    // A client batch-queries over the wire.
    let mut client = Client::connect(addr).expect("connect");
    let nodes: Vec<NodeId> = (0..n as NodeId).collect();
    let harmonic = client.harmonic(&nodes).expect("harmonic batch");
    let within3: Vec<(NodeId, f64)> = nodes.iter().map(|&v| (v, 3.0)).collect();
    let cardinality = client.cardinality(&within3).expect("cardinality batch");
    let decayed = client
        .decay(
            DecayKernel::Exponential { base: 2.0 },
            &nodes[..nodes.len() / 2],
        )
        .expect("decay batch");

    // Every served answer matches the local engine on the *unsharded*
    // store bit for bit.
    let local = QueryEngine::new(&ads);
    assert_eq!(harmonic, local.harmonic_batch(&nodes));
    assert_eq!(cardinality, local.cardinality_batch(&within3));
    assert_eq!(
        decayed,
        local.decay_batch(
            DecayKernel::Exponential { base: 2.0 },
            &nodes[..nodes.len() / 2]
        )
    );
    println!(
        "served {} harmonic + {} cardinality + {} decay answers — all bitwise \
         identical to the local engine",
        harmonic.len(),
        cardinality.len(),
        decayed.len()
    );

    let mut top: Vec<(NodeId, f64)> = harmonic
        .iter()
        .copied()
        .enumerate()
        .map(|(v, c)| (v as NodeId, c))
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 nodes by served harmonic centrality:");
    for &(v, c) in top.iter().take(5) {
        println!("  node {v:>6}: {c:>10.1}");
    }

    drop(client);
    handle.shutdown();
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}
