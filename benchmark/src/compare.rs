//! `adsbench compare A.json B.json`: for every (workload, end-to-end
//! metric) present in both record files, how much worse B's median is
//! than A's, against the metric's bound. One row per workload; a non-zero
//! exit when any metric breaches its bound.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats;

/// One (workload, metric) cell of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The workload.
    pub workload: String,
    /// The metric.
    pub metric: String,
    /// Median in A.
    pub a: f64,
    /// Median in B.
    pub b: f64,
    /// How much worse B is, as a share of A (negative: better).
    pub worse_by: f64,
    /// The bound it may not exceed.
    pub bound: f64,
}

impl Delta {
    /// Whether B is worse than A by more than the bound.
    pub fn breaches(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// `(workload, metric)`.
type Key = (String, String);

/// Every value one record file holds for one key, with the metric's
/// direction and bound.
struct Series {
    values: Vec<f64>,
    lower_is_better: bool,
    bound: f64,
}

/// The end-to-end records of `text`, grouped by (workload, metric).
fn e2e_values(text: &str) -> Result<BTreeMap<Key, Series>, String> {
    let doc = json::parse(text)?;
    let records = doc.as_array().ok_or("a record file is a JSON array")?;
    let mut out: BTreeMap<Key, Series> = BTreeMap::new();
    for r in records {
        if r.get("kind").and_then(Value::as_str) != Some("e2e") {
            continue;
        }
        let field = |k: &str| {
            r.get(k)
                .and_then(Value::as_str)
                .ok_or(format!("record lacks `{k}`"))
        };
        let num = |k: &str| {
            r.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("record lacks `{k}`"))
        };
        let key = (field("workload")?.to_string(), field("metric")?.to_string());
        let series = out.entry(key).or_insert(Series {
            values: Vec::new(),
            lower_is_better: field("better")? == "lower",
            bound: num("bound")?,
        });
        series.values.push(num("value")?);
    }
    Ok(out)
}

/// Compares two record files (several records of one (workload, metric)
/// are reduced to their median first).
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<Delta>, String> {
    let (a, mut b) = (e2e_values(a_text)?, e2e_values(b_text)?);
    let mut deltas = Vec::new();
    for ((workload, metric), mut in_a) in a {
        let Some(mut in_b) = b.remove(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (a, b) = (
            stats::median(&mut in_a.values),
            stats::median(&mut in_b.values),
        );
        let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
        deltas.push(Delta {
            workload,
            metric,
            a,
            b,
            worse_by: if in_a.lower_is_better {
                change
            } else {
                -change
            },
            bound: in_a.bound,
        });
    }
    Ok(deltas)
}

/// The comparison as text: one row per workload, `metric +x.x%` cells,
/// a `!` on every breach.
pub fn render(deltas: &[Delta]) -> String {
    let mut rows: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for d in deltas {
        rows.entry(&d.workload).or_default().push(format!(
            "{} {:+.1}%/{:.0}%{}",
            d.metric,
            d.worse_by * 100.0,
            d.bound * 100.0,
            if d.breaches() { " !" } else { "" }
        ));
    }
    let mut out = String::from("worse-by / bound per end-to-end metric (negative = better)\n");
    for (workload, cells) in rows {
        out.push_str(&format!("{workload}: {}\n", cells.join("  ")));
    }
    let breaches = deltas.iter().filter(|d| d.breaches()).count();
    out.push_str(&format!(
        "{} of {} (workload, metric) pairs breach their bound\n",
        breaches,
        deltas.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(workload: &str, metric: &str, better: &str, value: f64, bound: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"metric\":\"{metric}\",\"kind\":\"e2e\",\"unit\":\"x\",\
             \"better\":\"{better}\",\"value\":{value},\"samples\":1,\"bound\":{bound},\"seed\":1,\
             \"host_threads\":2,\"git_rev\":\"r\",\"params\":{{}}}}"
        )
    }

    #[test]
    fn direction_and_bound_decide_a_breach() {
        let a = format!(
            "[{},{},{}]",
            rec("w", "lat", "lower", 100.0, 0.1),
            rec("w", "qps", "higher", 1000.0, 0.1),
            rec("w", "only_in_a", "lower", 1.0, 0.1)
        );
        let b = format!(
            "[{},{},{}]",
            rec("w", "lat", "lower", 105.0, 0.1),
            rec("w", "qps", "higher", 850.0, 0.1),
            "{\"workload\":\"w\",\"metric\":\"layer\",\"kind\":\"layer\",\"value\":1}"
        );
        let deltas = compare(&a, &b).unwrap();
        assert_eq!(deltas.len(), 2, "pairs present in both files only");
        let lat = deltas.iter().find(|d| d.metric == "lat").unwrap();
        assert!((lat.worse_by - 0.05).abs() < 1e-12 && !lat.breaches());
        let qps = deltas.iter().find(|d| d.metric == "qps").unwrap();
        assert!((qps.worse_by - 0.15).abs() < 1e-12 && qps.breaches());
        let text = render(&deltas);
        assert!(text.contains("qps +15.0%/10% !"));
        assert!(text.contains("1 of 2"));
    }

    #[test]
    fn repeated_records_compare_by_their_medians() {
        let a = format!(
            "[{},{},{}]",
            rec("w", "lat", "lower", 90.0, 0.1),
            rec("w", "lat", "lower", 100.0, 0.1),
            rec("w", "lat", "lower", 500.0, 0.1)
        );
        let b = format!("[{}]", rec("w", "lat", "lower", 95.0, 0.1));
        let d = &compare(&a, &b).unwrap()[0];
        assert_eq!((d.a, d.b), (100.0, 95.0));
        assert!(d.worse_by < 0.0);
    }

    #[test]
    fn malformed_files_are_errors() {
        assert!(compare("{}", "[]").is_err());
        assert!(compare("[{\"kind\":\"e2e\"}]", "[]").is_err());
    }
}
