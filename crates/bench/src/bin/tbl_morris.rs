//! MORRIS experiment (paper, Section 7): approximate counters with
//! arbitrary positive increments and merging.
//!
//! * small-increment accuracy across bases `b = 1 + 2^{−j}`: the Flajolet
//!   analysis gives CV ≈ `sqrt((b−1)/2)` in this regime (each extra bit
//!   halves the variance). The paper's tighter CV ≈ `b−1` applies to the
//!   HIP-accumulator regime where increments grow with the running total
//!   and updates are mostly deterministic — exercised by the Morris-backed
//!   HIP counter tests in `adsketch-stream`.
//! * weighted adds and merges stay unbiased,
//! * representation size is `O(log log n)`.
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin tbl_morris [--runs 3000] [--n 100000]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, experiments, Table};
use adsketch_stream::MorrisCounter;
use adsketch_util::stats::ErrorStats;

fn main() {
    let runs = arg_u64("runs", 3000);
    let n = arg_u64("n", 100_000);

    let mut t = Table::new(vec![
        "base",
        "NRMSE",
        "sqrt((b-1)/2)",
        "bias",
        "mean exponent",
        "exact bits",
    ]);
    for j in 0..=6u32 {
        let b = 1.0 + 1.0 / (1u64 << j) as f64;
        let mut err = ErrorStats::new(n as f64);
        let mut exp_sum = 0u64;
        for c in experiments::morris(b, n, (0..runs).map(|seed| seed * 5 + 1)) {
            err.push(c.estimate());
            exp_sum += c.exponent() as u64;
        }
        t.row(vec![
            format!("1+2^-{j}"),
            f(err.nrmse()),
            f(((b - 1.0) / 2.0).sqrt()),
            f(err.relative_bias()),
            format!("{:.1}", exp_sum as f64 / runs as f64),
            format!("{:.0}", (n as f64).log2().ceil()),
        ]);
    }
    println!(
        "=== Morris counters, total count {n}, {runs} runs ===\n{}",
        t.render()
    );

    // Merge experiment: two counters vs one.
    let mut err = ErrorStats::new(2.0 * n as f64);
    for seed in 0..runs {
        let mut a = MorrisCounter::new(1.0625, seed);
        let mut b = MorrisCounter::new(1.0625, seed + runs);
        for _ in 0..n / 100 {
            a.add(100.0);
            b.add(100.0);
        }
        a.merge(&b);
        err.push(a.estimate());
    }
    println!(
        "merge of two half-streams (b=1.0625): NRMSE {} bias {}",
        f(err.nrmse()),
        f(err.relative_bias())
    );
}
