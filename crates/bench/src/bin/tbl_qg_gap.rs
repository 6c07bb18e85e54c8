//! QG-GAP experiment (paper, end of Section 5.1): for statistics `Q_g`
//! whose mass concentrates on *close* nodes, the naive estimator (uniform
//! k-sample of the reachable set × cardinality estimate) suffers up to an
//! n/k-factor variance penalty vs HIP, which samples close nodes densely.
//!
//! `g` is a threshold indicator on the closest `frac·n` nodes; we sweep
//! the fraction down and watch the variance ratio blow up toward n/k.
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin tbl_qg_gap [--n 4000] [--runs 800]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, Table};
use adsketch_core::{basic, reference};
use adsketch_graph::NodeId;
use adsketch_util::stats::ErrorStats;
use adsketch_util::RankHasher;

fn main() {
    let n = arg_u64("n", 4_000) as usize;
    let runs = arg_u64("runs", 800);
    let k = 16usize;
    let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();

    let mut t = Table::new(vec![
        "g = 1 on closest",
        "truth",
        "HIP NRMSE",
        "naive NRMSE",
        "var ratio",
        "n/k",
    ]);
    for &frac in &[1.0f64, 0.2, 0.05, 0.01] {
        let cutoff = (frac * n as f64).max(1.0);
        let truth = cutoff.floor();
        let mut hip_err = ErrorStats::new(truth);
        let mut naive_err = ErrorStats::new(truth);
        for seed in 0..runs {
            let h = RankHasher::new(seed * 11 + 3);
            let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
            let ads = reference::bottomk_from_order(k, &order, &ranks);
            let set = reference::from_sketches(k, vec![ads]);
            let g = |_: NodeId, d: f64| if d < cutoff { 1.0 } else { 0.0 };
            hip_err.push(set.hip(0).qg(g));
            naive_err.push(basic::naive_qg(set.row(0), g));
        }
        // With g on at most k nodes, HIP holds them all and is exact.
        let ratio = if hip_err.nrmse() == 0.0 {
            "exact".to_string()
        } else {
            f((naive_err.nrmse() / hip_err.nrmse()).powi(2))
        };
        t.row(vec![
            format!("{:.0}% of nodes", frac * 100.0),
            f(truth),
            f(hip_err.nrmse()),
            f(naive_err.nrmse()),
            ratio,
            f(n as f64 / k as f64),
        ]);
    }
    println!(
        "=== Q_g variance: HIP vs naive MinHash-sample estimator (n={n}, k={k}, {runs} runs) ===\n{}",
        t.render()
    );
    println!(
        "the ratio grows without bound as g concentrates on close nodes: the naive\n\
         estimator's variance stays ≈ (n/k)·Σg² while HIP samples the closest nodes\n\
         with probability → 1 (the paper's n/k factor compares both against Σg²)."
    );
}
