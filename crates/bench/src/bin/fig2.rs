//! Figure 2 reproduction: NRMSE and MRE of the five neighborhood-size
//! estimators as a function of cardinality.
//!
//! Panels (paper defaults): k=5 (1000 runs, n ≤ 10⁴), k=10 (500 runs,
//! n ≤ 10⁴), k=50 (250 runs, n ≤ 5·10⁴). Series: k-mins / k-partition /
//! bottom-k basic estimators, bottom-k HIP, permutation; reference lines
//! `1/sqrt(k−2)` (basic CV), `1/sqrt(2(k−1))` (HIP CV),
//! `sqrt(2/(π(k−2)))` (basic MRE), `sqrt(1/(π(k−1)))` (HIP MRE).
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin fig2 [--runs-scale 100]
//! ```
//!
//! `--runs-scale P` scales the paper's run counts to P percent (default
//! 100).

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, checkpoints, experiments, Table};
use adsketch_util::stats::{cv_basic, cv_hip, mre_basic_approx, mre_hip_approx, ErrorStats};

struct Panel {
    k: usize,
    runs: u64,
    n_max: u64,
}

fn main() {
    let scale = arg_u64("runs-scale", 100).max(1);
    let panels = [
        Panel {
            k: 5,
            runs: 1000,
            n_max: 10_000,
        },
        Panel {
            k: 10,
            runs: 500,
            n_max: 10_000,
        },
        Panel {
            k: 50,
            runs: 250,
            n_max: 50_000,
        },
    ];
    for p in panels {
        let runs = (p.runs * scale / 100).max(2);
        run_panel(p.k, runs, p.n_max);
    }
}

fn run_panel(k: usize, runs: u64, n_max: u64) {
    let marks = checkpoints(n_max);
    let t0 = std::time::Instant::now();
    let seeds = (0..runs).map(|run| run.wrapping_mul(0x9E37_79B9) + 1);
    let est = experiments::fig2(k, n_max, &marks, seeds);
    println!(
        "\n=== Figure 2 panel: k={k}, {runs} runs, max n = {n_max}  ({:.1?}) ===",
        t0.elapsed()
    );
    println!(
        "reference: basic CV = {:.4}, HIP CV = {:.4}, basic MRE ≈ {:.4}, HIP MRE ≈ {:.4}",
        cv_basic(k),
        cv_hip(k),
        mre_basic_approx(k),
        mre_hip_approx(k)
    );
    for (metric, get) in [
        ("NRMSE", ErrorStats::nrmse as fn(&ErrorStats) -> f64),
        ("MRE", ErrorStats::mre as fn(&ErrorStats) -> f64),
    ] {
        let mut t = Table::new(vec!["size", "kmins", "kpart", "botk", "botkHIP", "perm"]);
        for (ci, &m) in marks.iter().enumerate() {
            // Thin out rows: keep 1,2,5 per decade plus the endpoint.
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
