//! Smoke-runs every workload (inputs ÷10, two passes) in both modes and
//! holds what the binary prints against `BENCHMARK.json`: every
//! declared metric present with its declared unit, nothing undeclared,
//! and the file itself inside the contract's limits. The two workloads
//! the binary measures but `BENCHMARK.json` does not list are run too.

use std::path::Path;
use std::process::Command;

// The test target cannot see the binary's modules; the JSON reader is
// small enough to include as source.
#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;

/// Workloads of the binary that the driver does not run.
const UNGATED: [&str; 2] = ["dsearch-replicas", "sim-scale"];

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name/unit strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the bench binary; returns the last stdout line parsed.
fn run(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("spawn the bench binary");
    assert!(
        out.status.success(),
        "bench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last stdout line is one JSON object")
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text =
        std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("read BENCHMARK.json");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");

    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads: Vec<String> = spec
        .get("workloads")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert!(
        (1..=16).contains(&end_to_end.len()),
        "1..=16 end-to-end metrics"
    );
    assert!(
        (1..=128).contains(&per_layer.len()),
        "1..=128 per-layer metrics"
    );
    assert!((2..=8).contains(&workloads.len()), "2..=8 workloads");
    assert!(
        end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"),
        "setup_s is declared"
    );
    let mut all: Vec<&String> = workloads
        .iter()
        .chain(end_to_end.iter().chain(&per_layer).map(|(n, _)| n))
        .collect();
    assert!(
        all.iter().all(|n| name_ok(n)),
        "names match [A-Za-z0-9][A-Za-z0-9_.-]*"
    );
    all.sort();
    all.dedup();
    assert_eq!(
        all.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "every name is used once"
    );

    for workload in workloads.iter().map(String::as_str).chain(UNGATED) {
        for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(&[
                "run",
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}: result keys"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: correct"
            );
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{workload}: no failed units"
            );
            let emitted: Vec<(String, String)> = result
                .get("metrics")
                .expect("metrics")
                .fields()
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value")
                            .and_then(Value::as_f64)
                            .is_some_and(f64::is_finite),
                        "{workload}: {name} is a finite number"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(
                &emitted, declared,
                "{workload} --trace {trace}: emitted metrics == declared"
            );
            if trace == "0" {
                for (name, m) in result.get("metrics").unwrap().fields() {
                    assert!(
                        m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                        "{workload}: {name} is never 0"
                    );
                }
            }
        }
        // The traced run leaves the spans file and the full report.
        assert!(manifest
            .join(format!("out/{workload}.spans.jsonl"))
            .exists());
        let report = std::fs::read_to_string(manifest.join(format!("out/{workload}.json")))
            .expect("report file");
        let report = json::parse(&report).expect("report parses");
        assert_eq!(
            report.get("claim"),
            Some(&Value::Null),
            "no gain is claimed"
        );
        assert!(
            report.get("host").and_then(|h| h.get("nproc")).is_some(),
            "host facts recorded"
        );
    }
}
