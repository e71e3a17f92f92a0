//! `bench compare <a.json> <b.json>`: one row per workload x
//! end-to-end metric (its headline `value` in each report), judged
//! against the bounds `BENCHMARK.json` fixes.

use crate::json::{parse, Value};
use biodist_util::table::Table;
use std::path::Path;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `workload name -> report` from either an `all` file or a single
/// run's report.
fn reports(doc: &Value) -> Vec<(String, Value)> {
    match doc.get("workloads") {
        Some(w) => w.fields().to_vec(),
        None => doc
            .get("workload")
            .and_then(Value::as_str)
            .map(|name| vec![(name.to_string(), doc.clone())])
            .unwrap_or_default(),
    }
}

/// `report.metrics.<metric>.<key>` of a run's report.
pub fn stat(report: &Value, metric: &str, key: &str) -> Option<f64> {
    report.get("metrics")?.get(metric)?.get(key)?.as_f64()
}

/// Quartile spread as a share of the median.
fn spread(report: &Value, metric: &str) -> f64 {
    match (
        stat(report, metric, "q1"),
        stat(report, metric, "q3"),
        stat(report, metric, "median"),
    ) {
        (Some(q1), Some(q3), Some(m)) if m != 0.0 => (q3 - q1) / m,
        _ => 0.0,
    }
}

/// Compares `b` (the change) against `a` (the base). `Ok(true)` when
/// nothing regressed.
pub fn compare(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let spec = load(benchmark_json)?;
    let (base, change) = (reports(&load(a)?), reports(&load(b)?));
    let mut table = Table::new(
        &format!("{} (base) vs {} (change)", a.display(), b.display()),
        &[
            "workload",
            "metric",
            "base",
            "change",
            "change/base",
            "bound",
            "verdict",
        ],
    );
    let mut clean = true;
    for (name, base_report) in &base {
        let Some((_, change_report)) = change.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for def in spec
            .get("end_to_end")
            .map(Value::as_arr)
            .unwrap_or_default()
        {
            let (Some(metric), Some(better), Some(bound)) = (
                def.get("name").and_then(Value::as_str),
                def.get("better").and_then(Value::as_str),
                def.get("bound").and_then(Value::as_f64),
            ) else {
                return Err("BENCHMARK.json: malformed end_to_end entry".into());
            };
            let (Some(x), Some(y)) = (
                stat(base_report, metric, "value"),
                stat(change_report, metric, "value"),
            ) else {
                continue;
            };
            let worse_by = if better == "lower" {
                y / x - 1.0
            } else {
                1.0 - y / x
            };
            let verdict = if worse_by > bound {
                clean = false;
                "regressed"
            } else if spread(base_report, metric).max(spread(change_report, metric)) > bound {
                "unresolved"
            } else {
                "ok"
            };
            table.push_row(vec![
                name.clone(),
                metric.to_string(),
                format!("{x:.6}"),
                format!("{y:.6}"),
                format!("{:.3} (base {x:.6})", y / x),
                format!("{bound}"),
                verdict.to_string(),
            ]);
        }
        let share = |r: &Value| r.get("failed_share").and_then(Value::as_f64).unwrap_or(0.0);
        let (x, y) = (share(base_report), share(change_report));
        let verdict = if y > x {
            clean = false;
            "regressed"
        } else {
            "ok"
        };
        table.push_row(vec![
            name.clone(),
            "failed_share".into(),
            format!("{x}"),
            format!("{y}"),
            "-".into(),
            "0 (absolute)".into(),
            verdict.into(),
        ]);
    }
    println!("{}", table.render_text());
    Ok(clean)
}
