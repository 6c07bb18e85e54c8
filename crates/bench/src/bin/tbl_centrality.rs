//! CENTRALITY experiment (paper, Corollary 5.2): HIP distance-decay
//! centrality estimates vs exact values on generated graphs; observed CV
//! vs the `1/sqrt(2(k−1))` bound, including β-filtered queries where the
//! filter is chosen after sketching.
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin tbl_centrality [--n 2000] [--runs 120]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, Table};
use adsketch_core::centrality::{self, DecayKernel};
use adsketch_core::AdsSet;
use adsketch_graph::{exact, generators, NodeId};
use adsketch_util::rng::{Rng64, SplitMix64};
use adsketch_util::stats::{cv_hip, ErrorStats};

fn main() {
    let n = arg_u64("n", 2_000) as usize;
    let runs = arg_u64("runs", 120);
    let g = generators::barabasi_albert(n, 4, 21);
    let probe: NodeId = 0;

    // A random 20% node filter, fixed across runs, applied at query time.
    let mut rng = SplitMix64::new(5);
    let flags: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.2)).collect();
    let beta = |v: NodeId| if flags[v as usize] { 1.0 } else { 0.0 };

    let queries: Vec<(&str, DecayKernel, bool)> = vec![
        ("harmonic", DecayKernel::Harmonic, false),
        ("exp 2^-d", DecayKernel::Exponential { base: 2.0 }, false),
        ("|N_2(v)|", DecayKernel::Threshold(2.0), false),
        ("harmonic·β", DecayKernel::Harmonic, true),
        ("|N_2(v)|·β", DecayKernel::Threshold(2.0), true),
    ];

    for &k in &[8usize, 16, 32, 64] {
        let mut t = Table::new(vec!["query", "exact", "mean est", "CV", "bound"]);
        let mut errs: Vec<ErrorStats> = queries
            .iter()
            .map(|(_, kern, filt)| {
                let truth = exact::centrality_exact(
                    &g,
                    probe,
                    |d| kern.eval(d),
                    |v| if *filt { beta(v) } else { 1.0 },
                );
                ErrorStats::new(truth)
            })
            .collect();
        for seed in 0..runs {
            let ads = AdsSet::build(&g, k, seed);
            let hip = ads.hip(probe);
            for (qi, (_, kern, filt)) in queries.iter().enumerate() {
                let est = if *filt {
                    centrality::decay_filtered(hip, *kern, beta)
                } else {
                    centrality::decay(hip, *kern)
                };
                errs[qi].push(est);
            }
        }
        for (qi, (name, _, _)) in queries.iter().enumerate() {
            t.row(vec![
                name.to_string(),
                f(errs[qi].truth()),
                f(errs[qi].truth() * (1.0 + errs[qi].relative_bias())),
                f(errs[qi].nrmse()),
                f(cv_hip(k)),
            ]);
        }
        println!(
            "\n=== centrality on BA(n={n}, m=4), node {probe}, k={k}, {runs} sketch seeds ===\n{}",
            t.render()
        );
        println!(
            "the 1/sqrt(2(k−1)) bound covers the uniform-β rows (Cor. 5.2); β-filtered\n\
             rows are unbiased but only Cor.-5.3-bounded unless sketches are built with\n\
             β-weighted ranks (Section 9 / adsketch-core::weighted)."
        );
    }
}
