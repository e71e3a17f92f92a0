//! One *run*: inputs from the seed, the sequential reference, a
//! warm-up pass, then measured passes of the same input — each on a
//! fresh `Server`, each checked — alternating with timed slices of the
//! sequential program, until `--seconds` have passed.
//!
//! The end-to-end throughput metric is a ratio, `efficiency`: the
//! farm's rate over the sequential program's, both taken from the same
//! seconds of the same run, because absolute seconds on this shared
//! host drift by 15-30% over minutes and no statistic within a run
//! removes that. The absolute figures (`makespan_s`, `work_per_s`,
//! `cpu_s`) and `cpu_overhead` are reported beside it and as per-layer
//! `farm.*` metrics, without a bound.

use crate::farm::{run_pass, with_deadline, Pass, PASS_DEADLINE};
use crate::host;
use crate::json::Value;
use crate::metrics::END_TO_END;
use crate::spans::MAX_SPANS_WRITTEN;
use crate::stats::{faster_half_mean, faster_half_mean_time, median, summary};
use crate::trace;
use crate::workloads::{Kind, Spec};
use biodist_core::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub struct Options {
    pub spec: &'static Spec,
    pub seed: u64,
    /// How long to keep starting measured passes, the warm-up pass
    /// included.
    pub seconds: f64,
    pub trace: bool,
    /// Inputs divided by ten, two passes.
    pub smoke: bool,
}

pub struct Outcome {
    /// The full report (also written to `out/<workload>.json`).
    pub report: Value,
    /// The driver's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub result: Value,
    pub ok: bool,
}

/// Never fewer measured passes than this, however long they take.
const MIN_PASSES: usize = 3;
/// A backstop for tiny inputs with a long `--seconds`.
const MAX_PASSES: usize = 256;

/// A run's measured passes and the sequential slices between them
/// (one before the first pass, one after every pass).
pub struct Measured {
    pub passes: Vec<Pass>,
    /// Work per second of one sequential thread in each slice.
    pub slices: Vec<f64>,
    pub donors: usize,
}

impl Measured {
    /// Work per second of the sequential program over the run: the
    /// mean of the faster half of its slices (see [`faster_half_mean`]).
    fn sequential_rate(&self) -> f64 {
        faster_half_mean(&self.slices)
    }

    /// Farm throughput over `donors` times the sequential program's
    /// (simulator: over the third-size laboratory's), per pass.
    pub fn efficiency(&self) -> Vec<f64> {
        let ceiling = self.donors.max(1) as f64 * self.sequential_rate();
        self.values(|p| p.work / p.makespan_s)
            .iter()
            .map(|rate| rate / ceiling)
            .collect()
    }

    /// Seconds the sequential program needs for one pass's work.
    pub fn sequential_s(&self) -> f64 {
        self.passes[0].work / self.sequential_rate()
    }

    /// CPU seconds the farm burns per second the sequential program
    /// needs for the same work, per pass.
    pub fn cpu_overhead(&self) -> Vec<f64> {
        let seq = self.sequential_rate();
        self.passes.iter().map(|p| p.cpu_s * seq / p.work).collect()
    }

    pub fn values(&self, f: fn(&Pass) -> f64) -> Vec<f64> {
        self.passes.iter().map(f).collect()
    }
}

/// The benchmark's own directory (`benchmark/`): `cargo run` and
/// `cargo test` export it; a bare binary falls back to where it was
/// built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn result_object(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> Value {
    Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn headline_median(
    name: &'static str,
    unit: &'static str,
    values: Vec<f64>,
) -> (&'static str, &'static str, f64, Vec<f64>) {
    (name, unit, median(&values), values)
}

pub fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
    ])
}

pub fn run(opts: &Options) -> Outcome {
    // The environment must not be able to change the workload.
    std::env::remove_var("BIODIST_NET_SHARDS");
    std::env::remove_var("BIODIST_LIK_BACKEND");
    let spec = opts.spec;
    let one_cpu = spec.one_cpu && host::pin_to_one_cpu();
    let out = out_dir();
    let host = host::facts();
    let journal = matches!(spec.kind, Kind::Dispatch { .. })
        .then(|| out.join(format!("{}.journal.log", spec.name)));

    let inputs = spec.generate(opts.seed, opts.smoke);
    let t = Instant::now();
    let reference = inputs.reference();
    let reference_s = t.elapsed().as_secs_f64();

    // A pass past its deadline cannot be cancelled (`NetServer::wait`
    // blocks): report it, with every unit so far failed, and exit.
    let attempted_so_far = AtomicU64::new(0);
    let on_timeout = || {
        let n = attempted_so_far.load(Ordering::SeqCst).max(1);
        eprintln!(
            "{}: failed check: a pass missed its {} s deadline",
            spec.name,
            PASS_DEADLINE.as_secs()
        );
        println!("{}", result_object(false, n, n, Vec::new()).render());
        std::process::exit(1);
    };

    let (min_passes, max_passes) = match (opts.smoke, opts.trace) {
        (true, _) => (2, 2),
        (false, true) => (MIN_PASSES, MIN_PASSES),
        (false, false) => (MIN_PASSES, MAX_PASSES),
    };
    let one_pass = || {
        let pass = with_deadline(&on_timeout, || {
            run_pass(
                spec,
                opts.seed,
                opts.smoke,
                &reference,
                &Telemetry::disabled(),
                journal.as_deref(),
            )
        });
        attempted_so_far.fetch_add(pass.assignments, Ordering::SeqCst);
        pass
    };
    let started = Instant::now();
    // The warm-up pass is checked like any other but not timed into
    // the metrics. The process's peak RSS is read right after it: the
    // sequential slices that follow run on threads of their own, and
    // the allocator arenas they leave behind are the benchmark's, not
    // the farm's.
    let warmup = one_pass();
    let peak_rss_mb = host::peak_rss_mb();
    let mut passes: Vec<Pass> = Vec::new();
    let mut slices = vec![inputs.sequential(spec, 0)];
    while passes.len() < min_passes
        || (passes.len() < max_passes && started.elapsed().as_secs_f64() < opts.seconds)
    {
        passes.push(one_pass());
        slices.push(inputs.sequential(spec, passes.len()));
    }
    let measured = Measured {
        passes,
        slices,
        donors: spec.donors,
    };
    let passes = &measured.passes;

    let traced = opts.trace.then(|| {
        trace::collect(
            opts,
            &inputs,
            &reference,
            reference_s,
            &measured,
            journal.as_deref(),
            &out,
            &on_timeout,
        )
    });

    // Correctness, every pass (the warm-up is pass 0).
    let mut failed_check = std::iter::once(&warmup)
        .chain(passes)
        .enumerate()
        .find_map(|(i, p)| p.check.as_ref().err().map(|why| format!("pass {i}: {why}")));
    if let Some(first) = warmup.sim {
        if passes.iter().any(|p| p.sim != Some(first)) {
            failed_check.get_or_insert(
                "simulator event count or virtual makespan differs between passes".into(),
            );
        }
    }
    if let Some(t) = &traced {
        if let Some(why) = &t.failed_check {
            failed_check.get_or_insert(why.clone());
        }
    }
    let all_passes = std::iter::once(&warmup)
        .chain(passes)
        .chain(traced.iter().map(|t| &t.traced_pass));
    let (attempted, failed) = all_passes.fold((0, 0), |(a, f), p| {
        (a + p.assignments, f + p.failed_units())
    });
    let ok = failed_check.is_none();

    // `(name, unit, headline value, per-pass values)`: the headline of
    // the bounded timings is the faster half's mean (see `stats.rs`),
    // of the others the median. The first `END_TO_END.len()` are the bounded ones;
    // the rest are the absolute figures, reported and never gated (see
    // the module docs).
    let setup_s = measured.values(|p| p.setup_s);
    let efficiency = measured.efficiency();
    let sequential_s = measured.sequential_s();
    let metrics: Vec<(&str, &str, f64, Vec<f64>)> = vec![
        ("setup_s", "s", faster_half_mean_time(&setup_s), setup_s),
        (
            "efficiency",
            "ratio",
            faster_half_mean(&efficiency),
            efficiency,
        ),
        ("peak_rss_mb", "MiB", peak_rss_mb, vec![peak_rss_mb]),
        headline_median("makespan_s", "s", measured.values(|p| p.makespan_s)),
        headline_median(
            "work_per_s",
            "1/s",
            measured.values(|p| p.work / p.makespan_s),
        ),
        headline_median("cpu_s", "s", measured.values(|p| p.cpu_s)),
        headline_median("cpu_overhead", "ratio", measured.cpu_overhead()),
        ("sequential_s", "s", sequential_s, vec![sequential_s]),
    ];
    let end_to_end = &metrics[..END_TO_END.len()];
    debug_assert!(end_to_end
        .iter()
        .zip(END_TO_END)
        .all(|(m, d)| (m.0, m.1) == (d.0, d.1)));

    let result_metrics: Vec<(String, Value)> = match &traced {
        None => end_to_end
            .iter()
            .map(|(name, unit, value, _)| (name.to_string(), metric_value(*value, unit)))
            .collect(),
        Some(t) => t.metrics.clone(),
    };
    let result = result_object(ok, attempted, failed, result_metrics);

    let mut report = vec![
        ("workload", Value::str(spec.name)),
        ("seed", Value::Num(opts.seed as f64)),
        ("smoke", Value::Bool(opts.smoke)),
        ("trace", Value::Bool(opts.trace)),
        ("donors", Value::Num(spec.donors as f64)),
        ("replicas", Value::Num(spec.replicas as f64)),
        ("one_cpu", Value::Bool(one_cpu)),
        ("gated", Value::Bool(spec.gated)),
        ("passes", Value::Num(passes.len() as f64)),
        ("correct", Value::Bool(ok)),
        (
            "failed_check",
            failed_check.clone().map_or(Value::Null, Value::Str),
        ),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "failed_share",
            Value::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("work_item", Value::str(spec.work_item)),
        ("work_per_pass", Value::Num(passes[0].work)),
        (
            "units_per_pass",
            Value::nums(&measured.values(|p| p.completed_units as f64)),
        ),
        ("reference_s", Value::Num(reference_s)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, value, v)| (name.to_string(), summary(unit, *value, v)))
                    .collect(),
            ),
        ),
    ];
    if let Some((events, virtual_makespan)) = passes[0].sim {
        report.push(("sim_events", Value::Num(events as f64)));
        report.push(("sim_virtual_makespan_s", Value::Num(virtual_makespan)));
    }
    if let Some(t) = &traced {
        report.push(("per_layer", Value::Obj(t.metrics.clone())));
        report.push((
            "self_time_s",
            Value::Obj(
                t.self_time_s
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                    .collect(),
            ),
        ));
        report.push(("spans_recorded", Value::Num(t.spans_recorded as f64)));
        report.push((
            "spans_written",
            Value::Num(t.spans_recorded.min(MAX_SPANS_WRITTEN) as f64),
        ));
    }
    report.push(("host", host));
    report.push(("claim", Value::Null));
    let report = Value::obj(report);
    write_report(&out.join(format!("{}.json", spec.name)), &report);
    Outcome { report, result, ok }
}

pub fn write_report(path: &Path, report: &Value) {
    if let Err(e) = std::fs::write(path, report.render() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
