//! SIZE-EST experiment (paper, Section 8): the size-only estimator
//! `E_s = k(1+1/k)^{s−k+1} − 1` is unbiased but weaker than both the basic
//! MinHash estimator and HIP — the information hierarchy in one table.
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin tbl_size_estimator [--runs 3000]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, experiments, Table};
use adsketch_util::stats::{cv_basic, cv_hip, ErrorStats};

fn main() {
    let runs = arg_u64("runs", 3000);
    for &k in &[8usize, 16] {
        let mut t = Table::new(vec![
            "n",
            "size NRMSE",
            "size bias",
            "basic NRMSE",
            "HIP NRMSE",
        ]);
        for &n in &[100usize, 1_000, 10_000] {
            let seeds = (0..runs).map(|seed| seed * 3 + k as u64);
            let [se, be, he] = experiments::size_estimator(k, n, seeds).map(|estimates| {
                let mut e = ErrorStats::new(n as f64);
                estimates.iter().for_each(|&x| e.push(x));
                e
            });
            t.row(vec![
                n.to_string(),
                f(se.nrmse()),
                f(se.relative_bias()),
                f(be.nrmse()),
                f(he.nrmse()),
            ]);
        }
        println!(
            "\n=== size-only vs basic vs HIP (k={k}, {runs} runs); CV refs: basic {} HIP {} ===\n{}",
            f(cv_basic(k)),
            f(cv_hip(k)),
            t.render()
        );
    }
}
