//! `adsbench`: the repository's end-to-end benchmark. See `README.md`.
//!
//! ```text
//! adsbench --workload NAME --seed N --seconds T --trace 0|1 [--smoke]
//! adsbench --all [--seed N] [--seconds T] [--trace 0|1] [--smoke] [--out FILE]
//! adsbench compare A.json B.json
//! ```

#![forbid(unsafe_code)]

mod answerers;
mod churn;
mod compare;
mod contract;
mod json;
mod ladder;
mod loadgen;
mod offline;
mod run;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use contract::{Contract, Kind, Record, Report, RunInfo};
use trace::Tracer;
use workload::{host_threads, Inputs, Params, Topology};

/// Times the inputs are generated; `setup_s` is the median.
const SETUPS: usize = 3;

/// Where records, span files and scratch stores go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Deletes a scratch directory when dropped, so a failed run leaves
/// nothing behind either.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Command-line options, in the `--name value` form the driver uses.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.0
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.contains(&format!("--{name}"))
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
        }
    }
}

/// The commit being measured: `ADSBENCH_GIT_REV` if set, else `git
/// rev-parse` when the package sits in a git checkout, else `unknown`
/// (the driver's checkout is not a repository).
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("ADSBENCH_GIT_REV") {
        return rev;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Writes `records` as one JSON array.
fn write_records(path: &Path, lines: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}

/// Runs one workload in this process and prints its records and the
/// driver's result line.
fn run_workload(args: &Args, origin: Instant) -> Result<ExitCode, String> {
    let contract = Contract::load();
    let name = args
        .value("workload")
        .ok_or("--workload NAME is required")?;
    let smoke = args.flag("smoke");
    if !contract.workloads.iter().any(|w| w == name) {
        return Err(format!(
            "unknown workload `{name}`; BENCHMARK.json lists {:?}",
            contract.workloads
        ));
    }
    let p = Params::named(name, smoke).ok_or(format!("workload `{name}` has no parameters"))?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", contract.run_seconds)?;
    let trace = args.number("trace", 0u8)? != 0;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 60]"));
    }

    let scratch = Scratch(out_dir().join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("create {}: {e}", scratch.0.display()))?;
    let mut tracer = Tracer::new(trace, origin);
    let mut report = Report::new(contract);

    // Set-up: everything derived from the seed, before any measured
    // phase. Generated several times so `setup_s` is a median.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let (generated, s) = tracer.time("phase.setup", || Inputs::generate(&p, seed));
        setup_s.push(s);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("set-up ran");
    report.set("setup_s", stats::median(&mut setup_s), SETUPS as u64);
    report.set("graph.generators.gen_s", inputs.gen_s, 1);
    report.set("graph.exact.truth_s", inputs.truth_s, 1);

    let outcome = {
        let mut run = run::Run {
            p: &p,
            inputs: &inputs,
            seconds,
            trace,
            scratch: &scratch.0,
            tracer: &mut tracer,
            report: &mut report,
            origin,
        };
        match p.topology {
            Topology::Offline => offline::run(&mut run),
            Topology::Direct { .. } | Topology::Fleet { .. } => serve::run(&mut run),
            Topology::Churn { .. } => churn::run(&mut run),
        }
    };
    if let Err(e) = &outcome {
        report.op(false, || format!("the workload stopped early: {e}"));
    }
    if let Some(rss) = peak_rss_mib() {
        report.set("process.peak_rss_mib", rss, 1);
    }
    drop(scratch);

    let info = RunInfo {
        workload: name.to_string(),
        seed,
        host_threads: host_threads(),
        git_rev: git_rev(),
        params: p.to_json(seconds, trace, smoke),
    };
    let kind = if trace { Kind::Layer } else { Kind::E2e };
    let records = if outcome.is_ok() {
        report.records(kind)
    } else {
        Err("no records: the workload stopped early".into())
    };
    for failure in &report.failures {
        eprintln!("FAILED {name}: {failure}");
    }
    let records: Vec<Record> = match records {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{name}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    if trace {
        let spans = out_dir().join(format!("trace-{name}.json"));
        tracer
            .write_json(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        eprintln!("{name}: {} spans in {}", tracer.len(), spans.display());
        for (span, t) in tracer.totals() {
            eprintln!(
                "  span {span:<40} n={:<8} total={:>10.4}s self={:>10.4}s",
                t.count, t.total_s, t.self_s
            );
        }
    }
    let lines: Vec<String> = records.iter().map(|r| r.to_json(&info)).collect();
    let file = out_dir().join(format!("{name}{}.json", if trace { ".trace" } else { "" }));
    write_records(&file, &lines).map_err(|e| format!("write {}: {e}", file.display()))?;
    for (record, line) in records.iter().zip(&lines) {
        eprintln!(
            "{name:<16} {:<48} {:>16.4} {}",
            record.metric.name, record.value, record.metric.unit
        );
        println!("{line}");
    }

    // The driver's contract: one last line with exactly these keys.
    let metrics: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(&r.metric.name),
                json::number(r.value),
                json::quote(&r.metric.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload of the contract, each in a fresh process, and
/// collects their records into one file.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let contract = Contract::load();
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let trace = args.number("trace", 0u8)? != 0;
    let mut lines = Vec::new();
    let mut all_ok = true;
    for name in &contract.workloads {
        let started = Instant::now();
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name]);
        for forwarded in ["seed", "seconds", "trace"] {
            if let Some(v) = args.value(forwarded) {
                cmd.args([format!("--{forwarded}"), v.to_string()]);
            }
        }
        if args.flag("smoke") {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        lines.extend(
            stdout
                .lines()
                .filter(|l| l.starts_with("{\"workload\""))
                .map(str::to_string),
        );
        all_ok &= out.status.success();
        eprintln!(
            "== {name}: {} in {:.1}s",
            if out.status.success() { "ok" } else { "FAILED" },
            started.elapsed().as_secs_f64()
        );
    }
    let default = out_dir().join(if trace { "all.trace.json" } else { "all.json" });
    let file = args.value("out").map_or(default, PathBuf::from);
    write_records(&file, &lines).map_err(|e| format!("write {}: {e}", file.display()))?;
    eprintln!("{} records in {}", lines.len(), file.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let deltas = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&deltas));
    if deltas.is_empty() {
        return Err("the two files share no end-to-end record".into());
    }
    Ok(if deltas.iter().any(compare::Delta::breaches) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => run_compare(a, b),
            _ => Err("usage: adsbench compare A.json B.json".into()),
        },
        _ if args.flag("all") => run_all(&args),
        _ => run_workload(&args, origin),
    };
    result.unwrap_or_else(|e| {
        eprintln!("adsbench: {e}");
        ExitCode::from(2)
    })
}
