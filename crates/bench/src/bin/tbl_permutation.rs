//! PERM experiment (paper, Section 5.4): the permutation estimator vs
//! plain HIP as the queried cardinality approaches the domain size. The
//! paper reports parity below ≈ 0.2·n and a clear permutation win above.
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin tbl_permutation [--runs 2000] [--n 2000]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, experiments, Table};
use adsketch_util::stats::ErrorStats;

fn main() {
    let runs = arg_u64("runs", 2000);
    let n = arg_u64("n", 2000);
    let k = 10usize;
    let fracs = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0];
    let marks: Vec<u64> = fracs
        .iter()
        .map(|fr| ((fr * n as f64) as u64).max(1))
        .collect();

    let [_, _, _, hip_est, perm_est] =
        experiments::fig2(k, n, &marks, (0..runs).map(|seed| seed * 13 + 5));
    let mut t = Table::new(vec![
        "s/n",
        "HIP NRMSE",
        "perm NRMSE",
        "perm/HIP",
        "perm bias",
    ]);
    for (i, fr) in fracs.iter().enumerate() {
        let (mut hip, mut perm) = (
            ErrorStats::new(marks[i] as f64),
            ErrorStats::new(marks[i] as f64),
        );
        hip_est[i].iter().for_each(|&x| hip.push(x));
        perm_est[i].iter().for_each(|&x| perm.push(x));
        // At s ≤ k HIP is exact, and so is the permutation estimator.
        let ratio = if hip.nrmse() == 0.0 {
            "exact".to_string()
        } else {
            f(perm.nrmse() / hip.nrmse())
        };
        t.row(vec![
            format!("{fr:.2}"),
            f(hip.nrmse()),
            f(perm.nrmse()),
            ratio,
            f(perm.relative_bias()),
        ]);
    }
    println!(
        "=== permutation vs HIP (k={k}, domain n={n}, {runs} runs) ===\n{}",
        t.render()
    );
    println!("paper: comparable below s ≈ 0.2n, significant permutation advantage above.");
}
