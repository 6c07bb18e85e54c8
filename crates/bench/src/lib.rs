//! The paper's experiments: the binaries that print them (`fig2`,
//! `fig3`, `tbl_*`) and the run loops those binaries share with the root
//! package's `tests/paper_claims.rs` ([`experiments`]). The README's
//! "Paper experiments" section indexes the binaries. Performance is
//! measured by the standalone `benchmark/` package (`adsbench`), not
//! here; the times some binaries print are indicative only.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use table::Table;

// The `--name value` argument parser lives in `adsketch_util::args`;
// re-exported here because every `fig*`/`tbl_*` bin imports it from the
// bench crate.
pub use adsketch_util::args::{arg_flag, arg_u64};

/// Geometric checkpoint grid `{1..9} × 10^j` up to and including `max` —
/// the sampling grid for all error-vs-cardinality experiments (log-x
/// plots in the paper).
pub fn checkpoints(max: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut decade = 1u64;
    loop {
        for m in 1..=9u64 {
            let c = m * decade;
            if c > max {
                if out.last() != Some(&max) {
                    out.push(max);
                }
                return out;
            }
            out.push(c);
        }
        decade *= 10;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_grid() {
        assert_eq!(checkpoints(25), vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 25]);
        assert_eq!(checkpoints(3), vec![1, 2, 3]);
        assert_eq!(*checkpoints(1_000_000).last().unwrap(), 1_000_000);
    }
}
