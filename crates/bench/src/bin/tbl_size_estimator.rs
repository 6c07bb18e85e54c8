//! SIZE-EST experiment (paper, Section 8): the size-only estimator
//! `E_s = k(1+1/k)^{s−k+1} − 1` is unbiased but weaker than both the basic
//! MinHash estimator and HIP — the information hierarchy in one table.
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin tbl_size_estimator [--runs 3000]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, Table};
use adsketch_core::{reference, size_est};
use adsketch_graph::NodeId;
use adsketch_util::stats::{cv_basic, cv_hip, ErrorStats};
use adsketch_util::RankHasher;

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
            let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
            let mut se = ErrorStats::new(n as f64);
            let mut be = ErrorStats::new(n as f64);
            let mut he = ErrorStats::new(n as f64);
            for seed in 0..runs {
                let h = RankHasher::new(seed * 3 + k as u64);
                let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
                let ads = reference::bottomk_from_order(k, &order, &ranks);
                se.push(size_est::size_estimator(ads.len(), k));
                let set = reference::from_sketches(k, vec![ads]);
                be.push(adsketch_core::basic::reachable(set.row(0)));
                he.push(set.hip(0).reachable_estimate());
            }
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
