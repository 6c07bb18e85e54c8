//! Minimal `--name value` argument parsing for the workspace's
//! experiment binaries (`adsketch-bench`'s `fig*`/`tbl_*` tables).
//!
//! Deliberately tiny — the binaries need exactly two shapes (integer
//! with a default, bare flag), and the workspace builds offline,
//! so no external parser crate is used. Unparseable or missing values
//! warn to stderr and fall back to the default rather than aborting a
//! long experiment run.

/// Parses `--name value` from the process arguments as an integer, with
/// a default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return v;
            }
            eprintln!("warning: could not parse value for {flag}; using {default}");
        }
    }
    default
}

/// True iff the bare flag `--name` is present in the process arguments.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}
