//! BASE-B experiment (paper, Section 5.6): HIP with base-b rounded ranks.
//! Measured NRMSE vs the analysis `sqrt((1+b)/(4(k−1)))`, and the
//! variance-inflation factor vs `(1+b)/2`.
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin tbl_base_b [--runs 1500] [--n 20000]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, experiments, Table};
use adsketch_util::ranks::BaseB;
use adsketch_util::stats::ErrorStats;

fn main() {
    let runs = arg_u64("runs", 1500);
    let n = arg_u64("n", 20_000);
    let k = 16usize;

    // Full-precision HIP reference variance at the same (k, n).
    let seeds = || (0..runs).map(|seed| seed * 3 + 1);
    let mut full = ErrorStats::new(n as f64);
    let [_, _, _, hip, _] = experiments::fig2(k, n, &[n], seeds());
    hip[0].iter().for_each(|&x| full.push(x));

    let mut t = Table::new(vec![
        "base",
        "bits/reg*",
        "NRMSE",
        "analysis",
        "var infl",
        "(1+b)/2",
        "bias",
    ]);
    for &(label, b) in &[
        ("2", 2.0f64),
        ("sqrt(2)", std::f64::consts::SQRT_2),
        ("2^(1/4)", 2f64.powf(0.25)),
        ("1.1", 1.1),
        ("1.02", 1.02),
    ] {
        let base = BaseB::new(b);
        let mut err = ErrorStats::new(n as f64);
        experiments::base_b(k, base, n, seeds())
            .into_iter()
            .for_each(|x| err.push(x));
        let inflation = (err.nrmse() / full.nrmse()).powi(2);
        // Register stores ⌈−log_b r⌉ ≈ log_b n levels ⇒ log2 log_b n bits.
        let bits = ((n as f64).log2() / b.log2()).log2().ceil();
        t.row(vec![
            label.to_string(),
            format!("{bits:.0}"),
            f(err.nrmse()),
            f(base.hip_cv(k)),
            f(inflation),
            f(base.variance_inflation()),
            f(err.relative_bias()),
        ]);
    }
    println!(
        "=== base-b HIP, k={k}, n={n}, {runs} runs; full-rank NRMSE = {} ===\n{}",
        f(full.nrmse()),
        t.render()
    );
    println!("*bits to store one rounded rank level for this n.");
}
