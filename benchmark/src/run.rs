//! What every workload shares: the run context, the build passes that
//! take the in-memory graph to a query-ready store, and the helpers that
//! turn loop reports into metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use adsketch::core::{AdsSet, AdsView};
use adsketch::graph::NodeId;
use adsketch::util::rng::mix64;

use crate::contract::Report;
use crate::loadgen::{closed_loop, Answered, Answerer, LoopCtx, LoopReport};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Batch, BatchGen, Inputs, Params, K};

/// One run of one workload.
pub struct Run<'a> {
    /// The workload's parameters.
    pub p: &'a Params,
    /// Its generated inputs.
    pub inputs: &'a Inputs,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this is the traced run (spans on, layer probes and ladder
    /// run).
    pub trace: bool,
    /// A directory of this run's own under `benchmark/out/`, deleted on
    /// exit.
    pub scratch: &'a Path,
    /// The span recorder.
    pub tracer: &'a mut Tracer,
    /// Where metrics and operation counts go.
    pub report: &'a mut Report,
    /// Process start: the origin of every timestamp.
    pub origin: Instant,
}

impl Run<'_> {
    /// `share` of `--seconds`.
    pub fn span_of(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// One pass's slice of a phase that gets `share` of `--seconds`.
    pub fn slice_of(&self, share: f64) -> Duration {
        self.span_of(share) / self.p.passes as u32
    }

    /// A loop context over the workload's connections.
    pub fn loop_ctx(&mut self, dur: Duration) -> LoopCtx<'_> {
        LoopCtx {
            conns: self.p.conns,
            dur,
            stop: None,
            origin: self.origin,
            tracer: self.tracer,
        }
    }

    /// Books a loop's requests into the operation counts.
    pub fn count(&mut self, what: &str, r: &LoopReport) {
        self.report.ops(r.attempted, r.failed, || {
            format!(
                "{what}: {}",
                r.first_failure.as_deref().unwrap_or("unknown failure")
            )
        });
    }

    /// Runs the closed loop with spans off and then on, each as long as
    /// the workload's timed closed loop (shorter loops mostly measure the
    /// slow first second of fresh connections): `trace_overhead_share` is
    /// the share of throughput the spans cost.
    pub fn trace_overhead<A, M, C>(&mut self, make: &M, check: &C)
    where
        A: Answerer,
        M: Fn(usize) -> Result<(A, BatchGen), String> + Sync,
        C: Fn(&Batch, &Answered) -> bool + Sync,
    {
        let dur = self.span_of(self.p.closed_share.max(0.1));
        let mut rates = [0.0; 2];
        for (slot, on) in [false, true].into_iter().enumerate() {
            self.tracer.set_on(on);
            let r = closed_loop(self.loop_ctx(dur), make, check);
            self.count("trace-overhead loop", &r);
            rates[slot] = r.nodes_per_s(2).0;
        }
        self.report.set(
            "trace_overhead_share",
            1.0 - rates[1] / rates[0].max(1e-9),
            2,
        );
    }

    /// Sets the open loop's latency percentiles (timed from the intended
    /// send instant) and the generator's own validity metrics.
    pub fn set_open(&mut self, r: &LoopReport) {
        let n = r.latencies_us.len() as u64;
        let mut lat = r.latencies_us.clone();
        self.report
            .op(!lat.is_empty(), || "the open loop answered nothing".into());
        if !lat.is_empty() {
            stats::sort(&mut lat);
            for (name, p) in [
                ("loadgen.open_p50_us", 0.5),
                ("loadgen.open_p90_us", 0.9),
                ("loadgen.open_p99_us", 0.99),
                ("loadgen.open_p999_us", 0.999),
            ] {
                self.report.set(name, stats::tail(&lat, p).value, n);
            }
        }
        self.report
            .set("loadgen.achieved_rps", n as f64 / r.elapsed_s.max(1e-9), n);
        self.report.set("loadgen.late_max_us", r.late_max_us, n);
        self.report
            .set("loadgen.backlog_max", r.backlog_max as f64, n);
    }
}

/// A 64-bit digest of every sketch entry of `view`, floats by their bits:
/// two builds are bitwise equal exactly when (up to hash collisions)
/// their digests are.
pub fn digest<V: AdsView>(view: &V) -> u64 {
    let mut h = mix64(view.k() as u64 ^ (view.num_nodes() as u64) << 32);
    for v in 0..view.num_nodes() as NodeId {
        h = mix64(h ^ u64::from(v));
        view.for_each_entry(v, |e| {
            h = mix64(h ^ u64::from(e.node));
            h = mix64(h ^ e.dist.to_bits());
            h = mix64(h ^ e.rank.to_bits());
        });
    }
    h
}

/// What the passes of a static workload measured. One pass takes the
/// in-memory graph all the way to a first answer — build, freeze, write,
/// load, answer (offline: then a slice of the sweep) — so every metric
/// gets one sample per pass, spread over the whole run: a burst of
/// interference from the host spoils some passes, not one metric.
#[derive(Debug, Default)]
pub struct Passes {
    /// Seconds from the graph to the first answer.
    pub pipeline_s: Vec<f64>,
    /// Seconds in `AdsSet::build`.
    pub build_s: Vec<f64>,
    /// Milliseconds from sketches in memory to a servable store.
    pub fresh_ms: Vec<f64>,
    /// Milliseconds from the store on disk to the first answer.
    pub cold_ms: Vec<f64>,
    /// Nodes answered per second in each closed loop (one per pass when
    /// the loop is cut into per-pass slices, else one).
    pub rates: Vec<f64>,
    /// Closed-loop latencies of every slice, pooled.
    pub closed_us: Vec<f64>,
    /// Windows behind `rates`.
    windows: u64,
    first_digest: Option<u64>,
}

impl Passes {
    /// Times one `AdsSet::build` and gates it on being bitwise equal to
    /// the first pass's.
    pub fn build(&mut self, run: &mut Run<'_>) -> AdsSet {
        let inputs = run.inputs;
        let (ads, s) = run.tracer.time("core.builder.build", || {
            AdsSet::build(&inputs.graph, K, inputs.rank_seed)
        });
        self.build_s.push(s);
        let d = digest(&ads);
        let n = self.build_s.len();
        run.report.op(*self.first_digest.get_or_insert(d) == d, || {
            format!("build pass {n} is not bitwise equal to pass 1")
        });
        ads
    }

    /// Books one closed-loop slice.
    pub fn closed(&mut self, run: &mut Run<'_>, what: &str, r: &LoopReport) {
        run.count(what, r);
        self.rates.push(r.nodes_per_s(2).0);
        self.windows += r.nodes_per_s(2).1;
        self.closed_us.extend_from_slice(&r.latencies_us);
    }

    /// Sets the end-to-end metrics the passes measure, each from the
    /// **fastest** pass. Interference from the host only ever slows a pass
    /// down (the same build in the same process takes 1.0–1.4 s here), so
    /// the fastest of a handful is the closest reading of the code itself;
    /// over 20 seeds it spreads half as much as the median. A real
    /// regression slows every pass, the fastest too.
    pub fn finish(self, run: &mut Run<'_>) {
        let passes = self.pipeline_s.len() as u64;
        let arcs = run.inputs.graph.num_arcs() as f64;
        let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        let build = fastest(&self.build_s);
        run.report
            .set("pipeline.build_arcs_per_s", arcs / build, passes);
        run.report.set("core.builder.build_s", build, passes);
        run.report
            .set("pipeline_s", fastest(&self.pipeline_s), passes);
        run.report
            .set("freshness_ms", fastest(&self.fresh_ms), passes);
        run.report
            .set("pipeline.cold_start_ms", fastest(&self.cold_ms), passes);
        run.report.set(
            "node_queries_per_s",
            self.rates.iter().copied().fold(0.0, f64::max),
            self.windows,
        );
        let mut closed_us = self.closed_us;
        if !closed_us.is_empty() {
            stats::sort(&mut closed_us);
            let n = closed_us.len() as u64;
            run.report.set(
                "loadgen.closed_p50_us",
                stats::percentile(&closed_us, 0.5),
                n,
            );
            run.report.set(
                "loadgen.closed_p99_us",
                stats::tail(&closed_us, 0.99).value,
                n,
            );
        }
    }
}

/// Whether two float slices are equal bit for bit.
pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Median of `xs` in place, as `(median, count)` for [`Report::set`].
pub fn med(xs: &mut [f64]) -> (f64, u64) {
    (stats::median(xs), xs.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch::graph::generators;

    #[test]
    fn digest_separates_builds_that_differ_in_one_rank_seed() {
        let g = generators::barabasi_albert(200, 3, 1);
        let a = AdsSet::build(&g, 8, 42);
        assert_eq!(digest(&a), digest(&AdsSet::build(&g, 8, 42)));
        assert_eq!(digest(&a), digest(&a.freeze()));
        assert_ne!(digest(&a), digest(&AdsSet::build(&g, 8, 43)));
    }

    #[test]
    fn bits_eq_tells_zero_from_negative_zero() {
        assert!(bits_eq(&[1.0, f64::NAN], &[1.0, f64::NAN]));
        assert!(!bits_eq(&[0.0], &[-0.0]));
        assert!(!bits_eq(&[1.0], &[1.0, 2.0]));
    }
}
