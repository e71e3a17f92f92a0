//! Figure-grade run reports from telemetry traces.
//!
//! Two modes, designed to chain:
//!
//! ```text
//! # run a seeded DSEARCH (or DPRml) simulation with a JSONL trace sink
//! cargo run -p biodist-bench --release --bin abl_report -- \
//!     gen --app dsearch --seed 7 --machines 8 --out results/dsearch.jsonl
//!
//! # validate the trace and render the figures' tables into results/
//! cargo run -p biodist-bench --release --bin abl_report -- \
//!     report --trace results/dsearch.jsonl
//! ```
//!
//! `gen` runs the workload on the simulator backend, so the trace is
//! byte-deterministic: the same `--seed` produces the identical file
//! (CI generates twice and `cmp`s). It prints the metrics-registry
//! snapshot as JSON on stdout.
//!
//! `report` parses the trace (exit 2 on any malformed line or
//! non-finite timestamp), checks the span-completeness invariant
//! (exit 3 — every lease must resolve), and writes five tables:
//!
//! * `<tag>_timeline.csv` — binned donor-utilization timeline with a
//!   stage-boundary column: DPRml's refine/insert barriers show up as
//!   the idle gaps of the paper's Figure 1;
//! * `<tag>_machines.csv` — per-machine busy time, delivered units and
//!   utilization;
//! * `<tag>_speedup.csv` — the effective-speedup summary
//!   (Σ busy / makespan) of the paper's Figure 2;
//! * `<tag>_phases.csv` — per-unit four-phase breakdown (transfer /
//!   queue-wait / compute / combine), one row per completed unit whose
//!   winning lease carried the full donor-side chain;
//! * `<tag>_phase_summary.csv` — the critical-path summary: per phase,
//!   total seconds, share of summed span time, and streaming
//!   p50/p95/p99 from fixed-bucket histograms.

use biodist_bench::harness::results_dir;
use biodist_core::telemetry::{EventKind, Histogram, LATENCY_BOUNDS};
use biodist_core::{SimRunner, Telemetry, TraceEvent};
use biodist_util::table::Table;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  abl_report gen --app dsearch|dprml [--seed N] [--machines M] --out PATH\n  abl_report report --trace PATH [--bins N] [--tag NAME]"
    );
    exit(1);
}

/// Value of `--name` in `args`, if present.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("report") => report(&args[1..]),
        _ => usage(),
    }
}

// ------------------------------------------------------------- gen mode

fn gen(args: &[String]) {
    let app = flag(args, "--app").unwrap_or_else(|| usage());
    let seed: u64 = flag(args, "--seed").map_or(7, |s| s.parse().expect("--seed"));
    let machines: usize = flag(args, "--machines").map_or(8, |s| s.parse().expect("--machines"));
    let out = PathBuf::from(flag(args, "--out").unwrap_or_else(|| usage()));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }

    let mut server = match app.as_str() {
        "dsearch" => biodist_bench::workloads::demo_dsearch_server(seed),
        "dprml" => biodist_bench::workloads::demo_dprml_server(seed),
        other => {
            eprintln!("unknown app `{other}` (want dsearch or dprml)");
            exit(1);
        }
    };
    let telemetry = Telemetry::enabled();
    telemetry.attach_jsonl(&out).expect("create trace file");
    server.set_telemetry(telemetry.clone());

    let pool = biodist_gridsim::deployments::homogeneous_lab(machines, seed);
    let (run, mut server) = SimRunner::with_defaults(server, pool).run();
    server.take_output(0).expect("run must complete");
    telemetry.flush();

    println!("{}", telemetry.metrics_snapshot().to_json());
    eprintln!(
        "gen: {app} seed={seed} machines={machines} makespan={:.1}s units={} trace={}",
        run.makespan,
        run.total_units,
        out.display()
    );
}

// ---------------------------------------------------------- report mode

/// One machine's closed busy interval (a lease from issue to
/// resolution).
struct BusySpan {
    client: usize,
    start: f64,
    end: f64,
}

fn report(args: &[String]) {
    let trace = PathBuf::from(flag(args, "--trace").unwrap_or_else(|| usage()));
    let bins: usize = flag(args, "--bins").map_or(24, |s| s.parse().expect("--bins"));
    let tag = flag(args, "--tag").unwrap_or_else(|| {
        trace
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".into())
    });

    let text = match std::fs::read_to_string(&trace) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", trace.display());
            exit(2);
        }
    };
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match TraceEvent::from_json_line(line) {
            Ok(ev) => {
                if !ev.t.is_finite() || ev.t < 0.0 {
                    eprintln!("schema violation on line {}: bad timestamp {}", i + 1, ev.t);
                    exit(2);
                }
                events.push(ev);
            }
            Err(e) => {
                eprintln!("schema violation on line {}: {e}", i + 1);
                exit(2);
            }
        }
    }
    if events.is_empty() {
        eprintln!("empty trace: {}", trace.display());
        exit(2);
    }
    if let Err(e) = biodist_core::verify_spans(&events) {
        eprintln!("span invariant violated: {e}");
        exit(3);
    }

    let makespan = events.iter().map(|e| e.t).fold(0.0_f64, f64::max);
    let (spans, units_by_client, stage_marks, n_machines) = extract_spans(&events);

    // Per-machine table (Figure 2's raw material).
    let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
    for s in &spans {
        *busy.entry(s.client).or_insert(0.0) += s.end - s.start;
    }
    let mut machines_table = Table::new(
        &format!("{tag}: per-machine busy time"),
        &["client", "busy_s", "units_delivered", "utilization"],
    );
    for (&client, &b) in &busy {
        let units = units_by_client.get(&client).copied().unwrap_or(0);
        machines_table.push_numeric_row(
            &[client as f64, b, units as f64, b / makespan.max(1e-12)],
            3,
        );
    }

    // Binned utilization timeline (Figure 1's shape): what fraction of
    // the pool was computing in each slice, and how many stage
    // boundaries fell inside it (DPRml barriers = the dips).
    let width = makespan / bins as f64;
    let mut timeline = Table::new(
        &format!("{tag}: utilization timeline ({n_machines} machines)"),
        &["t_start", "t_end", "busy_fraction", "stage_starts"],
    );
    for b in 0..bins {
        let (lo, hi) = (b as f64 * width, (b + 1) as f64 * width);
        let overlap: f64 = spans
            .iter()
            .map(|s| (s.end.min(hi) - s.start.max(lo)).max(0.0))
            .sum();
        let frac = overlap / (width.max(1e-12) * n_machines.max(1) as f64);
        let stages = stage_marks.iter().filter(|&&t| t >= lo && t < hi).count();
        timeline.push_numeric_row(&[lo, hi, frac, stages as f64], 3);
    }

    // Effective speedup: busy machine-seconds per wall second.
    let total_busy: f64 = busy.values().sum();
    let eff = total_busy / makespan.max(1e-12);
    let mut speedup = Table::new(
        &format!("{tag}: effective speedup"),
        &[
            "machines",
            "makespan_s",
            "busy_machine_s",
            "effective_speedup",
            "efficiency",
        ],
    );
    speedup.push_numeric_row(
        &[
            n_machines as f64,
            makespan,
            total_busy,
            eff,
            eff / n_machines.max(1) as f64,
        ],
        3,
    );

    // Per-unit four-phase breakdown: where each completed unit's wall
    // time went, as correlated across server- and donor-side events.
    let (phases, incomplete) = biodist_core::phase_breakdowns(&events);
    let mut phases_table = Table::new(
        &format!("{tag}: per-unit phase breakdown ({incomplete} units without donor-side chain)"),
        &[
            "problem",
            "unit",
            "client",
            "issued_at",
            "transfer_s",
            "queue_wait_s",
            "compute_s",
            "combine_s",
            "span_s",
        ],
    );
    for p in &phases {
        phases_table.push_numeric_row(
            &[
                p.problem as f64,
                p.unit as f64,
                p.client as f64,
                p.issued_at,
                p.transfer,
                p.queue_wait,
                p.compute,
                p.combine,
                p.span(),
            ],
            4,
        );
    }

    // Critical-path summary: which phase dominates the fleet's unit
    // spans. Quantiles come from the same fixed-bucket streaming
    // histograms the live metrics registry keeps, so the offline report
    // and the online registry agree on estimator semantics.
    type PhaseGetter = fn(&biodist_core::UnitPhases) -> f64;
    let phase_cols: [(&str, PhaseGetter); 5] = [
        ("transfer", |p| p.transfer),
        ("queue_wait", |p| p.queue_wait),
        ("compute", |p| p.compute),
        ("combine", |p| p.combine),
        ("span", |p| p.span()),
    ];
    let span_total: f64 = phases.iter().map(|p| p.span()).sum();
    let mut phase_summary = Table::new(
        &format!("{tag}: critical-path summary ({} units)", phases.len()),
        &["phase", "total_s", "share", "p50_s", "p95_s", "p99_s"],
    );
    for (name, get) in phase_cols {
        let mut hist = Histogram::new(LATENCY_BOUNDS);
        let mut total = 0.0;
        for p in &phases {
            let x = get(p);
            hist.observe(x);
            total += x;
        }
        let q = |q: f64| hist.quantile(q).unwrap_or(0.0);
        phase_summary.push_row(vec![
            name.to_string(),
            format!("{total:.3}"),
            format!("{:.3}", total / span_total.max(1e-12)),
            format!("{:.3}", q(0.50)),
            format!("{:.3}", q(0.95)),
            format!("{:.3}", q(0.99)),
        ]);
    }

    for (table, suffix) in [
        (&timeline, "timeline"),
        (&machines_table, "machines"),
        (&speedup, "speedup"),
        (&phases_table, "phases"),
        (&phase_summary, "phase_summary"),
    ] {
        println!("{}", table.render_text());
        let path = results_dir().join(format!("{tag}_{suffix}.csv"));
        table.write_csv(&path).expect("write results CSV");
        println!("wrote {}", path.display());
    }
    eprintln!(
        "report: {} events, {} machines, makespan {makespan:.1}s, effective speedup {eff:.2}, {} phase chains ({} incomplete)",
        events.len(),
        n_machines,
        phases.len(),
        incomplete
    );
}

/// Walks the trace once, closing every lease into a [`BusySpan`]:
/// a completion of a unit closes *all* of its open leases (redundant
/// siblings were computing too — that work is the paper's end-game
/// waste), an expiry/corruption closes that exact lease, a lost client
/// closes everything it held, and problem completion clears the rest.
#[allow(clippy::type_complexity)]
fn extract_spans(events: &[TraceEvent]) -> (Vec<BusySpan>, BTreeMap<usize, u64>, Vec<f64>, usize) {
    let mut open: BTreeMap<(usize, u64, usize), f64> = BTreeMap::new();
    let mut spans = Vec::new();
    let mut units_by_client: BTreeMap<usize, u64> = BTreeMap::new();
    let mut stage_marks = Vec::new();
    let mut machines = std::collections::BTreeSet::new();
    let close = |open: &mut BTreeMap<(usize, u64, usize), f64>,
                 spans: &mut Vec<BusySpan>,
                 keep: &dyn Fn(&(usize, u64, usize)) -> bool,
                 t: f64| {
        let closing: Vec<_> = open.keys().filter(|k| !keep(k)).cloned().collect();
        for key in closing {
            let start = open.remove(&key).expect("present");
            spans.push(BusySpan {
                client: key.2,
                start,
                end: t,
            });
        }
    };
    for ev in events {
        match &ev.kind {
            EventKind::MachineJoined { client } => {
                machines.insert(*client);
            }
            EventKind::UnitIssued {
                problem,
                unit,
                client,
                ..
            } => {
                machines.insert(*client);
                open.insert((*problem, *unit, *client), ev.t);
            }
            EventKind::UnitCompleted {
                problem,
                unit,
                client,
                ..
            } => {
                *units_by_client.entry(*client).or_insert(0) += 1;
                let (p, u) = (*problem, *unit);
                close(&mut open, &mut spans, &|k| !(k.0 == p && k.1 == u), ev.t);
            }
            EventKind::LeaseExpired {
                problem,
                unit,
                client,
            }
            | EventKind::ResultCorrupted {
                problem,
                unit,
                client,
            } => {
                let key = (*problem, *unit, *client);
                close(&mut open, &mut spans, &|k| *k != key, ev.t);
            }
            EventKind::ClientLost { client } => {
                let c = *client;
                close(&mut open, &mut spans, &|k| k.2 != c, ev.t);
            }
            EventKind::ProblemCompleted { problem } => {
                let p = *problem;
                close(&mut open, &mut spans, &|k| k.0 != p, ev.t);
            }
            EventKind::StageStarted { .. } => stage_marks.push(ev.t),
            _ => {}
        }
    }
    (spans, units_by_client, stage_marks, machines.len())
}
