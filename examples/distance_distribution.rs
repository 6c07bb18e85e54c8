//! ANF/HyperANF-style analysis: estimate the distance distribution and
//! effective diameter of a graph from its ADS set, without all-pairs
//! shortest paths.
//!
//! ```text
//! cargo run --release --example distance_distribution
//! ```

use adsketch::core::view::distance_distribution_estimate;
use adsketch::core::AdsSet;
use adsketch::graph::{exact, generators};

/// CI runs every example with `ADSKETCH_EXAMPLE_TINY=1` (see ci.yml).
fn tiny() -> bool {
    std::env::var_os("ADSKETCH_EXAMPLE_TINY").is_some()
}

fn main() {
    // A small-world graph: ring lattice + rewiring (Watts–Strogatz).
    let n = if tiny() { 400 } else { 3_000 };
    let edges = generators::watts_strogatz_edges(n, 4, 0.05, 11);
    let g = adsketch::graph::Graph::undirected(n, &edges).expect("valid edges");
    println!(
        "small-world graph: {} nodes, {} edges",
        g.num_nodes(),
        g.num_arcs() / 2
    );

    // Sketch-based distance distribution (one ADS build).
    let t0 = std::time::Instant::now();
    let ads = AdsSet::build(&g, 16, 3);
    let dd_est = distance_distribution_estimate(&ads);
    let est_time = t0.elapsed();

    // Exact distance distribution (n BFS traversals) for comparison.
    let t1 = std::time::Instant::now();
    let dd_exact = exact::distance_distribution(&g);
    let exact_time = t1.elapsed();

    println!("\nestimated via ADS in {est_time:.2?}; exact all-pairs in {exact_time:.2?}");

    let total_est = dd_est.last().map_or(0.0, |&(_, c)| c);
    let total_exact = dd_exact.connected_pairs() as f64;
    println!(
        "connected ordered pairs: est {total_est:.0}, exact {total_exact} ({:+.2}%)",
        (total_est - total_exact) / total_exact * 100.0
    );

    println!("\ncumulative pairs within distance d:");
    println!(
        "{:>5} {:>14} {:>14} {:>8}",
        "d", "estimate", "exact", "err%"
    );
    for &(d, est) in &dd_est {
        let exact = lookup(&dd_exact, d);
        if (d as u64).is_multiple_of(2) || d <= 6.0 {
            println!(
                "{:>5} {:>14.0} {:>14} {:>8.2}",
                d,
                est,
                exact,
                (est - exact as f64) / exact as f64 * 100.0
            );
        }
    }

    // Effective diameter (90th percentile distance).
    let eff_exact = dd_exact.effective_diameter(0.9);
    let eff_est = effective_diameter_from(&dd_est, 0.9);
    println!("\neffective diameter (q = 0.9): est {eff_est}, exact {eff_exact}");
}

fn lookup(dd: &exact::DistanceDistribution, d: f64) -> u64 {
    match dd.distances.binary_search_by(|x| x.total_cmp(&d)) {
        Ok(i) => dd.pairs[i],
        Err(0) => 0,
        Err(i) => dd.pairs[i - 1],
    }
}

fn effective_diameter_from(dd: &[(f64, f64)], q: f64) -> f64 {
    let total = dd.last().map_or(0.0, |&(_, c)| c);
    for &(d, c) in dd {
        if c >= q * total {
            return d;
        }
    }
    dd.last().map_or(0.0, |&(d, _)| d)
}
