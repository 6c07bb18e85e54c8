//! Quickstart: build all-distances sketches for a graph, run HIP queries,
//! and compare against exact answers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use adsketch::core::{centrality, AdsSet};
use adsketch::graph::{exact, generators};

/// CI runs every example with `ADSKETCH_EXAMPLE_TINY=1` (see ci.yml).
fn tiny() -> bool {
    std::env::var_os("ADSKETCH_EXAMPLE_TINY").is_some()
}

fn main() {
    // A scale-free "social" graph: 2 000 nodes, preferential attachment.
    let n = if tiny() { 300 } else { 2_000 };
    let g = generators::barabasi_albert(n, 4, 7);
    println!(
        "graph: {} nodes, {} edges (Barabási–Albert m=4)",
        g.num_nodes(),
        g.num_arcs() / 2
    );

    // One pass builds the sketches for *all* nodes (k controls accuracy:
    // HIP neighborhood-cardinality CV ≈ 1/sqrt(2(k−1)) ≈ 0.18 for k = 16).
    let k = 16;
    let ads = AdsSet::build(&g, k, 42);
    println!(
        "built bottom-{k} ADS set: {} entries total, {:.1} per node (Lemma 2.2 predicts ≈ {:.1})",
        ads.num_entries(),
        ads.mean_entries(),
        adsketch::util::harmonic::expected_bottomk_ads_size(n as u64, k)
    );

    // Neighborhood cardinalities of node 0 at a few distances, vs exact.
    let hip = ads.hip(0);
    let nf_exact = exact::neighborhood_function(&g, 0);
    println!("\nneighborhood sizes of node 0 (estimate vs exact):");
    println!("{:>6} {:>12} {:>8}", "dist", "HIP est", "exact");
    for d in [1.0, 2.0, 3.0, 4.0] {
        println!(
            "{:>6} {:>12.1} {:>8}",
            d,
            hip.cardinality_at(d),
            nf_exact.cardinality_at(d)
        );
    }

    // Harmonic centrality of a few nodes, vs exact.
    println!("\nharmonic centrality (estimate vs exact):");
    println!("{:>6} {:>12} {:>10}", "node", "HIP est", "exact");
    for v in [0u32, 10, 100, n as u32 - 1] {
        println!(
            "{:>6} {:>12.1} {:>10.1}",
            v,
            centrality::harmonic(ads.hip(v)),
            exact::harmonic_centrality(&g, v)
        );
    }

    // A general Q_g statistic: total edge-distance mass within 2 hops,
    // filtered to even-id nodes — β chosen *after* the sketches exist.
    let q = ads.hip(0).centrality(
        |d| if d <= 2.0 { 1.0 } else { 0.0 },
        |v| if v % 2 == 0 { 1.0 } else { 0.0 },
    );
    let q_exact = exact::centrality_exact(
        &g,
        0,
        |d| if d <= 2.0 { 1.0 } else { 0.0 },
        |v| if v % 2 == 0 { 1.0 } else { 0.0 },
    );
    println!("\neven-id nodes within 2 hops of node 0: est {q:.1}, exact {q_exact}");
}
