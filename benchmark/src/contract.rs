//! The benchmark's contract (`BENCHMARK.json`, compiled in so the metric
//! table has exactly one source) and the record every metric is printed
//! as.

use std::collections::BTreeMap;

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Whether a metric is user-visible or belongs to one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An end-to-end metric, with a regression bound.
    E2e,
    /// A per-layer metric, reported by the traced run; no bound.
    Layer,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Layer => "layer",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name, unique across both lists.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Which list it is in.
    pub kind: Kind,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics followed by per-layer metrics, in file order.
    pub metrics: Vec<Metric>,
    /// Default `--seconds`.
    pub run_seconds: f64,
}

impl Contract {
    /// Parses the compiled-in `BENCHMARK.json`. A malformed file is a bug
    /// in this repository, so it panics.
    pub fn load() -> Self {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` array"))
                .to_vec()
        };
        let text = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json entry has a `{key}` string"))
                .to_string()
        };
        let metrics = |key: &str, kind: Kind| -> Vec<Metric> {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    bound: m.get("bound").and_then(Value::as_f64),
                    kind,
                })
                .collect()
        };
        let mut all = metrics("end_to_end", Kind::E2e);
        all.extend(metrics("per_layer", Kind::Layer));
        Contract {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            metrics: all,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json has run_seconds"),
        }
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics of one kind, in file order.
    pub fn of_kind(&self, kind: Kind) -> impl Iterator<Item = &Metric> {
        self.metrics.iter().filter(move |m| m.kind == kind)
    }
}

/// What is constant across one run's records.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// The workload's name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `std::thread::available_parallelism`.
    pub host_threads: usize,
    /// The commit measured, or `"unknown"` outside a git checkout.
    pub git_rev: String,
    /// Every parameter of the run, as a JSON object.
    pub params: String,
}

/// One measured value, in the benchmark's single record schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The metric measured.
    pub metric: Metric,
    /// The value.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: u64,
}

impl Record {
    /// The record as one line of JSON.
    pub fn to_json(&self, run: &RunInfo) -> String {
        format!(
            "{{\"workload\":{},\"metric\":{},\"kind\":\"{}\",\"unit\":{},\"better\":{},\"value\":{},\
             \"samples\":{},\"bound\":{},\"seed\":{},\"host_threads\":{},\"git_rev\":{},\"params\":{}}}",
            json::quote(&run.workload),
            json::quote(&self.metric.name),
            self.metric.kind.as_str(),
            json::quote(&self.metric.unit),
            json::quote(&self.metric.better),
            json::number(self.value),
            self.samples,
            self.metric.bound.map_or("null".into(), json::number),
            run.seed,
            run.host_threads,
            json::quote(&run.git_rev),
            run.params,
        )
    }
}

/// What one run measured: metric values by name, and the count of
/// operations attempted and failed.
#[derive(Debug)]
pub struct Report {
    contract: Contract,
    values: BTreeMap<String, (f64, u64)>,
    /// Operations attempted: requests, build passes, ingested edges'
    /// tranches, and gate checks.
    pub attempted: u64,
    /// Operations that failed: a client error, a timeout, a bitwise
    /// mismatch, or a breached gate.
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// An empty report against `contract`.
    pub fn new(contract: Contract) -> Self {
        Self {
            contract,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Sets metric `name` (panics on a name `BENCHMARK.json` does not
    /// list: the code and the contract must not drift apart).
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        assert!(
            self.contract.metric(name).is_some(),
            "metric `{name}` is not in BENCHMARK.json"
        );
        self.values.insert(name.to_string(), (value, samples));
    }

    /// Counts one operation; a failed one keeps its message.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    /// Counts a batch of operations, `failed` of which failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 16 {
            self.failures
                .push(format!("{failed} of {attempted} failed: {}", what()));
        }
    }

    /// One record per metric of `kind`, in contract order. An end-to-end
    /// metric the workload did not set is an error; a per-layer metric it
    /// did not set reads 0 — the workload bypasses that layer.
    pub fn records(&self, kind: Kind) -> Result<Vec<Record>, String> {
        self.contract
            .of_kind(kind)
            .map(|m| {
                let (value, samples) = match (self.values.get(&m.name), kind) {
                    (Some(&v), _) => v,
                    (None, Kind::Layer) => (0.0, 0),
                    (None, Kind::E2e) => {
                        return Err(format!("end-to-end metric `{}` was not measured", m.name))
                    }
                };
                if !value.is_finite() {
                    return Err(format!("metric `{}` is not finite", m.name));
                }
                Ok(Record {
                    metric: m.clone(),
                    value,
                    samples,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn the_contract_file_obeys_its_own_limits() {
        let c = Contract::load();
        assert!((2..=8).contains(&c.workloads.len()));
        let e2e: Vec<_> = c.of_kind(Kind::E2e).collect();
        let layers: Vec<_> = c.of_kind(Kind::Layer).collect();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        let mut seen = std::collections::BTreeSet::new();
        for name in c.workloads.iter().chain(c.metrics.iter().map(|m| &m.name)) {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name.clone()), "name {name} used twice");
        }
        for m in &c.metrics {
            assert!(matches!(m.better.as_str(), "lower" | "higher"));
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || matches!(ch, '_' | '/' | '%' | '.' | '-')));
            match m.kind {
                Kind::E2e => assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)),
                Kind::Layer => assert!(m.bound.is_none()),
            }
        }
        let setup = c.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let widest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn every_contract_workload_has_parameters() {
        for w in Contract::load().workloads {
            assert!(
                crate::workload::Params::named(&w, false).is_some(),
                "{w} missing"
            );
            assert!(
                crate::workload::Params::named(&w, true).is_some(),
                "{w} smoke missing"
            );
        }
    }

    #[test]
    fn report_fills_bypassed_layers_with_zero_and_rejects_unknown_names() {
        let c = Contract::load();
        let mut r = Report::new(c.clone());
        assert!(r.records(Kind::E2e).is_err(), "nothing measured yet");
        for m in c.of_kind(Kind::E2e) {
            r.set(&m.name, 1.5, 3);
        }
        assert_eq!(
            r.records(Kind::E2e).unwrap().len(),
            c.of_kind(Kind::E2e).count()
        );
        let layers = r.records(Kind::Layer).unwrap();
        assert!(layers
            .iter()
            .all(|rec| rec.value == 0.0 && rec.samples == 0));
        r.ops(10, 3, || "requests".into());
        r.op(true, || unreachable!());
        assert_eq!((r.attempted, r.failed), (11, 3));
        let caught = std::panic::catch_unwind(move || r.set("no.such.metric", 1.0, 1));
        assert!(caught.is_err());
    }

    #[test]
    fn a_record_is_one_parseable_json_object() {
        let c = Contract::load();
        let run = RunInfo {
            workload: "offline_unit".into(),
            seed: 7,
            host_threads: 2,
            git_rev: "abc123".into(),
            params: "{\"n\":30000}".into(),
        };
        let rec = Record {
            metric: c.metric("setup_s").unwrap().clone(),
            value: 0.25,
            samples: 3,
        };
        let v = json::parse(&rec.to_json(&run)).unwrap();
        for key in [
            "workload",
            "metric",
            "kind",
            "unit",
            "better",
            "value",
            "samples",
            "bound",
            "seed",
            "host_threads",
            "git_rev",
            "params",
        ] {
            assert!(v.get(key).is_some(), "record lacks {key}");
        }
        assert_eq!(v.get("kind").unwrap().as_str(), Some("e2e"));
        assert_eq!(
            v.get("params").unwrap().get("n").unwrap().as_f64(),
            Some(30000.0)
        );
    }
}
