//! Social-network centrality at scale: rank users of a synthetic social
//! graph by HIP-estimated harmonic centrality, then answer *filtered*
//! centrality queries ("centrality counting only premium users") from the
//! same sketches — the workload the paper's introduction motivates.
//!
//! ```text
//! cargo run --release --example social_centrality
//! ```

use adsketch::core::centrality::{self, DecayKernel};
use adsketch::core::AdsSet;
use adsketch::graph::{exact, generators, NodeId};
use adsketch::util::rng::{Rng64, SplitMix64};

/// CI runs every example with `ADSKETCH_EXAMPLE_TINY=1` (see ci.yml).
fn tiny() -> bool {
    std::env::var_os("ADSKETCH_EXAMPLE_TINY").is_some()
}

fn main() {
    // 20 000-member social graph with heavy-tailed degrees.
    let n = if tiny() { 500 } else { 20_000 };
    let g = generators::barabasi_albert(n, 5, 2024);
    println!(
        "social graph: {} members, {} friendships",
        g.num_nodes(),
        g.num_arcs() / 2
    );

    // Synthetic member attribute, assigned independently of the graph:
    // ~10% "premium" members. β filters are applied at query time.
    let mut rng = SplitMix64::new(99);
    let premium: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.1)).collect();

    // Sketch once…
    let k = 32;
    let t0 = std::time::Instant::now();
    let ads = AdsSet::build(&g, k, 7);
    println!(
        "built k={k} sketches for all nodes in {:.2?} ({:.1} entries/node)",
        t0.elapsed(),
        ads.mean_entries()
    );

    // …then rank everyone by estimated harmonic centrality.
    let t1 = std::time::Instant::now();
    let mut scored: Vec<(NodeId, f64)> = (0..n as NodeId)
        .map(|v| (v, centrality::harmonic(ads.hip(v))))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("scored all nodes in {:.2?}", t1.elapsed());

    println!("\ntop-10 by estimated harmonic centrality (exact in parens):");
    for &(v, est) in scored.iter().take(10) {
        let exact = exact::harmonic_centrality(&g, v);
        let deg = g.out_degree(v);
        println!("  node {v:>6}  est {est:>9.1}  (exact {exact:>9.1})  degree {deg}");
    }

    // Filtered query, same sketches: harmonic centrality restricted to
    // premium members (β(j) = 1 iff premium).
    let beta = |v: NodeId| if premium[v as usize] { 1.0 } else { 0.0 };
    let top = scored[0].0;
    let est = centrality::decay_filtered(ads.hip(top), DecayKernel::Harmonic, beta);
    let exact = exact::centrality_exact(&g, top, |d| if d > 0.0 { 1.0 / d } else { 0.0 }, beta);
    println!(
        "\npremium-only harmonic centrality of the top node {top}: est {est:.1}, exact {exact:.1}"
    );

    // Exponentially attenuated "influence" with β = premium, for three
    // contenders — still zero extra graph traversals.
    println!("\npremium-weighted exponential influence (α = 2^-d):");
    for &(v, _) in scored.iter().take(3) {
        let inf =
            centrality::decay_filtered(ads.hip(v), DecayKernel::Exponential { base: 2.0 }, beta);
        println!("  node {v:>6}: {inf:.2}");
    }
}
