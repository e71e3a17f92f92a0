//! The farm benchmark (see `README.md` in this directory).
//!
//! ```text
//! bench run     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! bench trace   --workload <name> ...        (= run --trace 1)
//! bench all     [--seed N] [--seconds S] [--smoke]
//! bench compare <base.json> <change.json>
//! ```
//!
//! `run` prints the report on stderr and, as the last line of stdout,
//! the result object the driver reads.

mod compare;
mod farm;
mod host;
mod inproc;
mod json;
mod layers;
mod metrics;
mod probe;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use json::Value;
use run::{bench_dir, out_dir, write_report, Options};
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use workloads::{DEFAULT_SEED, SPECS};

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a u64")?
            }
            "--seconds" => {
                flags.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number")?;
            }
            "--trace" => flags.trace = value("--trace")? == "1",
            "--smoke" => flags.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn run_one(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    let outcome = run::run(&Options {
        spec,
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        smoke: flags.smoke,
    });
    eprintln!("{}", outcome.report.render());
    println!("{}", outcome.result.render());
    Ok(outcome.ok)
}

/// Runs the six workloads in sequence (`bench run` each), prints one table, writes
/// `out/all.json` and (full-size sets only) appends the set to
/// `history.jsonl`.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let mut table = biodist_util::table::Table::new(
        "farm benchmark: headline value (q1..q3 over passes)",
        &[
            "workload",
            "passes",
            "setup_s",
            "efficiency",
            "peak_rss_mb",
            "makespan_s",
            "work_per_s",
            "cpu_overhead",
            "failed",
            "correct",
        ],
    );
    let mut reports = Vec::new();
    let mut ok = true;
    for spec in &SPECS {
        // One process per workload, exactly as the driver runs them: a
        // workload's peak RSS and CPU affinity are its own.
        let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
        child
            .args(["run", "--workload", spec.name])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if flags.smoke {
            child.arg("--smoke");
        }
        let passed = child.status().map_err(|e| e.to_string())?.success();
        ok &= passed;
        let path = out_dir().join(format!("{}.json", spec.name));
        let report = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| json::parse(&text))?;
        let r = &report;
        let cell = |metric: &str| {
            let stat = |key: &str| compare::stat(r, metric, key).unwrap_or(0.0);
            format!(
                "{:.4e} ({:.3e}..{:.3e})",
                stat("value"),
                stat("q1"),
                stat("q3")
            )
        };
        let num = |key: &str| r.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        table.push_row(vec![
            spec.name.to_string(),
            format!("{}", num("passes")),
            cell("setup_s"),
            cell("efficiency"),
            cell("peak_rss_mb"),
            cell("makespan_s"),
            cell("work_per_s"),
            cell("cpu_overhead"),
            format!("{}/{}", num("failed"), num("attempted")),
            format!("{passed}"),
        ]);
        reports.push((spec.name.to_string(), report));
    }
    println!("{}", table.render_text());
    let host = reports[0].1.get("host").cloned().unwrap_or(Value::Null);
    let all = Value::obj(vec![
        ("seed", Value::Num(flags.seed as f64)),
        ("smoke", Value::Bool(flags.smoke)),
        ("host", host),
        ("workloads", Value::Obj(reports)),
        ("claim", Value::Null),
    ]);
    write_report(&out_dir().join("all.json"), &all);
    println!("wrote {}", out_dir().join("all.json").display());
    if !flags.smoke {
        let history = bench_dir().join("history.jsonl");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history)
            .and_then(|mut f| writeln!(f, "{}", all.render()))
            .map_err(|e| format!("{}: {e}", history.display()))?;
        println!("appended {}", history.display());
    }
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("usage: bench run|trace|all|compare ...")?;
    let mut flags = parse_flags(rest)?;
    match command.as_str() {
        "run" => run_one(&flags),
        "trace" => {
            flags.trace = true;
            run_one(&flags)
        }
        "all" => run_all(&flags),
        "compare" => match flags.positional.as_slice() {
            [a, b] => compare::compare(
                &bench_dir().join("../BENCHMARK.json"),
                Path::new(a),
                Path::new(b),
            ),
            _ => Err("usage: bench compare <base.json> <change.json>".into()),
        },
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("bench: {why}");
            ExitCode::from(2)
        }
    }
}
