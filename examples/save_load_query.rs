//! The build → save → load → batch-query lifecycle: sketch a graph once,
//! persist the store, and serve centrality / cardinality / similarity
//! batches from the reloaded bytes — verifying every answer is bitwise
//! identical to the heap reference computed from the in-memory rows.
//!
//! ```text
//! cargo run --release --example save_load_query
//! ```

use adsketch::core::{centrality, reference, AdsSet, FrozenAdsSet, QueryEngine};
use adsketch::graph::{generators, NodeId};

/// CI runs every example with `ADSKETCH_EXAMPLE_TINY=1` (see ci.yml).
fn tiny() -> bool {
    std::env::var_os("ADSKETCH_EXAMPLE_TINY").is_some()
}

fn main() {
    let n = if tiny() { 300 } else { 10_000 };
    let g = generators::barabasi_albert(n, 4, 7);
    let k = 16;

    // Build once (the expensive graph-traversal phase) into the columnar
    // query form, HIP weights precomputed…
    let frozen = AdsSet::build_parallel(&g, k, 42, 0);
    println!(
        "built {} sketches: {} entries, {} B resident ({} B on disk)",
        frozen.num_nodes(),
        frozen.num_entries(),
        frozen.resident_bytes(),
        frozen.serialized_len()
    );

    // …persist, then reload as a service would at startup.
    let path = std::env::temp_dir().join("adsketch_save_load_query.ads");
    frozen.save(&path).expect("write frozen store");
    let loaded = FrozenAdsSet::load(&path).expect("read frozen store");
    assert_eq!(loaded, frozen, "the on-disk round trip is lossless");
    println!(
        "saved + reloaded {} bytes from {}",
        frozen.serialized_len(),
        path.display()
    );

    // Batch queries, sharded across all cores, zero graph access.
    let engine = QueryEngine::new(&loaded);
    let harmonic = engine.harmonic_all();
    let queries: Vec<(NodeId, f64)> = (0..n as NodeId).map(|v| (v, 3.0)).collect();
    let within3 = engine.cardinality_batch(&queries);
    let pairs: Vec<(NodeId, NodeId)> = (0..(n as NodeId) / 2).map(|i| (i, i + 1)).collect();
    let jaccard = engine.jaccard_batch(&pairs, 2.0);

    // Every answer matches the heap reference bit for bit.
    for v in 0..n as NodeId {
        let weights = reference::hip_weights(frozen.k(), frozen.row(v).entries());
        let hip = weights.row();
        assert_eq!(harmonic[v as usize], centrality::harmonic(hip));
        assert_eq!(within3[v as usize], hip.cardinality_at(3.0));
    }
    println!(
        "served {} harmonic + {} cardinality + {} similarity queries from the loaded store",
        harmonic.len(),
        within3.len(),
        jaccard.len()
    );

    let mut top: Vec<(NodeId, f64)> = harmonic
        .iter()
        .copied()
        .enumerate()
        .map(|(v, c)| (v as NodeId, c))
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 nodes by estimated harmonic centrality:");
    for &(v, c) in top.iter().take(5) {
        println!("  node {v:>6}: {c:>10.1}");
    }

    std::fs::remove_file(&path).ok();
}
