//! Weighted-graph workload: a synthetic road network (grid with
//! travel-time weights and diagonal shortcuts). Demonstrates ADSs over
//! real-valued distances: reachability-within-budget queries, per-node
//! effective radius (distance quantiles), and facility scoring.
//!
//! ```text
//! cargo run --release --example road_network
//! ```

use adsketch::core::builder::pruned_dijkstra;
use adsketch::core::{uniform_ranks, AdsSet};
use adsketch::graph::{exact, generators, Graph, NodeId};
use adsketch::util::rng::{Rng64, SplitMix64};

/// CI runs every example with `ADSKETCH_EXAMPLE_TINY=1` (see ci.yml).
fn tiny() -> bool {
    std::env::var_os("ADSKETCH_EXAMPLE_TINY").is_some()
}

fn main() {
    // 60×60 grid of intersections; edge weight = travel minutes
    // (quantized uniform 1..4), plus a few hundred random shortcuts
    // ("highways") with faster effective speed.
    let (rows, cols) = if tiny() {
        (14usize, 14usize)
    } else {
        (60usize, 60usize)
    };
    let n = rows * cols;
    let mut edges = generators::grid_edges(rows, cols);
    let mut rng = SplitMix64::new(404);
    for _ in 0..if tiny() { 40 } else { 400 } {
        let a = rng.range_usize(n) as NodeId;
        let b = rng.range_usize(n) as NodeId;
        if a != b {
            edges.push((a, b));
        }
    }
    let n_grid_edges = 2 * rows * cols - rows - cols;
    let mut weighted = generators::assign_uniform_weights(&edges[..n_grid_edges], 1.0, 4.0, 5);
    // Highways: weight 2..6 regardless of span — big shortcuts.
    weighted.extend(generators::assign_uniform_weights(
        &edges[n_grid_edges..],
        2.0,
        6.0,
        6,
    ));
    let g = Graph::undirected_weighted(n, &weighted).expect("valid edges");
    println!(
        "road network: {} intersections, {} road segments (incl. {} highways)",
        g.num_nodes(),
        g.num_arcs() / 2,
        edges.len() - n_grid_edges
    );

    let k = 32;
    let t0 = std::time::Instant::now();
    let ranks = uniform_ranks(n, 11);
    let (ads, _): (AdsSet, _) =
        pruned_dijkstra::build_with_stats(&g, k, &ranks).expect("valid ranks");
    println!("sketched every intersection in {:.2?}", t0.elapsed());

    // "How many intersections are reachable within a T-minute drive?"
    let depot = ((rows / 2) * cols + cols / 2) as NodeId; // city center
    let nf = exact::neighborhood_function(&g, depot);
    println!("\nreachable intersections from the center depot (node {depot}):");
    println!("{:>9} {:>10} {:>8}", "budget", "HIP est", "exact");
    let hip = ads.hip(depot);
    for t in [10.0, 20.0, 40.0, 80.0] {
        println!(
            "{:>6} min {:>10.0} {:>8}",
            t,
            hip.cardinality_at(t),
            nf.cardinality_at(t)
        );
    }

    // Effective radius (median travel time) across sample intersections.
    println!("\nmedian travel time to the reachable set (distance quantile q=0.5):");
    for v in [0u32, depot, (n - 1) as u32] {
        let est = ads.hip(v).distance_quantile(0.5).unwrap_or(f64::NAN);
        let exact = exact_median(&g, v);
        println!("  node {v:>5}: est {est:>6.1} min, exact {exact:>6.1} min");
    }

    // Facility scoring: rank candidate depots by estimated 30-minute
    // coverage; verify the top pick against exact coverage.
    let candidates: Vec<NodeId> = (0..20).map(|_| rng.range_usize(n) as NodeId).collect();
    let mut scored: Vec<(NodeId, f64)> = candidates
        .iter()
        .map(|&v| (v, ads.hip(v).cardinality_at(30.0)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nbest of 20 random depot candidates by 30-minute coverage:");
    for &(v, score) in scored.iter().take(3) {
        let exact = exact::neighborhood_function(&g, v).cardinality_at(30.0);
        println!("  node {v:>5}: est {score:>7.0}, exact {exact}");
    }
}

fn exact_median(g: &Graph, v: NodeId) -> f64 {
    let mut d: Vec<f64> = adsketch::graph::dijkstra::dijkstra_distances(g, v)
        .into_iter()
        .filter(|d| d.is_finite())
        .collect();
    d.sort_unstable_by(f64::total_cmp);
    d[d.len() / 2]
}
