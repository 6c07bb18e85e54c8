//! Figure 3 reproduction: approximate distinct counting — HyperLogLog
//! (raw and bias-corrected) vs HIP on the *same* k-partition base-2 5-bit
//! sketch.
//!
//! Panels (paper defaults): k=16 (5000 runs), k=32 (5000 runs), k=64
//! (2000 runs), cardinalities up to 10⁶; reference curve for HIP:
//! `sqrt((b+1)/(4(k−1)))` with b = 2.
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin fig3 \
//!     [--runs-scale 100] [--nmax 1000000]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, checkpoints, experiments, Table};
use adsketch_util::stats::ErrorStats;

fn main() {
    let scale = arg_u64("runs-scale", 100).max(1);
    let n_max = arg_u64("nmax", 1_000_000);
    for (k, paper_runs) in [(16usize, 5000u64), (32, 5000), (64, 2000)] {
        let runs = (paper_runs * scale / 100).max(2);
        run_panel(k, runs, n_max);
    }
}

fn run_panel(k: usize, runs: u64, n_max: u64) {
    let marks = checkpoints(n_max);
    let t0 = std::time::Instant::now();
    let seeds = (0..runs).map(|run| run.wrapping_mul(0xC2B2_AE35) + 17);
    let est = experiments::fig3(k, n_max, &marks, seeds);
    let analysis = (3.0 / (4.0 * (k as f64 - 1.0))).sqrt(); // sqrt((b+1)/(4(k−1))), b=2
    println!(
        "\n=== Figure 3 panel: k={k}, {runs} runs, max n = {n_max}  ({:.1?}) ===",
        t0.elapsed()
    );
    println!(
        "HIP base-2 CV analysis: {analysis:.4}  (HLL theory ≈ {:.4})",
        1.04 / (k as f64).sqrt()
    );
    for (metric, get) in [
        ("NRMSE", ErrorStats::nrmse as fn(&ErrorStats) -> f64),
        ("MRE", ErrorStats::mre as fn(&ErrorStats) -> f64),
    ] {
        let mut t = Table::new(vec!["cardinality", "HLLraw", "HLL", "HIP"]);
        for (ci, &m) in marks.iter().enumerate() {
            let lead = m / 10u64.pow((m as f64).log10().floor() as u32);
            if !(lead == 1 || lead == 2 || lead == 5) && m != n_max {
                continue;
            }
            let mut row = vec![m.to_string()];
            row.extend(est.iter().map(|series| f(get(&errors(m, &series[ci])))));
            t.row(row);
        }
        println!("\n{metric} (k={k}):\n{}", t.render());
    }
}

/// The error statistics of `estimates` of `truth`.
fn errors(truth: u64, estimates: &[f64]) -> ErrorStats {
    let mut e = ErrorStats::new(truth as f64);
    estimates.iter().for_each(|&x| e.push(x));
    e
}
