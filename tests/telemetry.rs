//! Telemetry integration suite: trace determinism on the simulator,
//! span completeness under chaos on both in-process backends, and
//! sim/TCP parity of the canonical corrupted-result event.

use biodist::bioseq::synth::{DbSpec, SyntheticDb};
use biodist::bioseq::{synth::random_sequence, Alphabet, Sequence};
use biodist::core::{
    run_tcp_faulty, verify_spans, ChaosOptions, EventKind, FaultKind, FaultPlan, SchedulerConfig,
    Server, SimRunner, Telemetry, TraceEvent,
};
use biodist::dsearch::{build_problem, DsearchConfig};
use biodist::gridsim::deployments::homogeneous_lab;
use std::path::PathBuf;

const POOL: usize = 6;
const SIM_HORIZON: f64 = 200.0;
const THREAD_HORIZON: f64 = 1.0;
const TIME_SCALE: f64 = 50.0;

struct Workload {
    db: Vec<Sequence>,
    queries: Vec<Sequence>,
    cfg: DsearchConfig,
}

fn workload() -> Workload {
    let queries = vec![random_sequence(Alphabet::Protein, "q", 100, 3)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(24, 80), 4).sequences;
    let mut cfg = DsearchConfig::protein_default();
    cfg.cost_scale = 60_000.0;
    Workload { db, queries, cfg }
}

fn thread_cfg() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.03,
        prior_ops_per_sec: 2e10,
        lease_min_secs: 0.5,
        ..Default::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("biodist-telemetry-{}-{name}", std::process::id()))
}

/// Runs the workload on the simulator under `plan` with a JSONL sink,
/// returning the raw trace bytes and the final server.
fn sim_trace(plan: &FaultPlan, path: &PathBuf) -> (Vec<u8>, Server) {
    let telemetry = Telemetry::enabled();
    telemetry.attach_jsonl(path).expect("trace file");
    let w = workload();
    let mut server = Server::new(SchedulerConfig::default());
    server.set_telemetry(telemetry.clone());
    server.submit(build_problem(w.db, w.queries, &w.cfg));
    let (_, server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7))
        .with_faults(plan.clone())
        .run();
    telemetry.flush();
    let bytes = std::fs::read(path).expect("read trace");
    let _ = std::fs::remove_file(path);
    (bytes, server)
}

#[test]
fn sim_trace_is_byte_deterministic_under_chaos() {
    let opts = ChaosOptions::for_pool(POOL, SIM_HORIZON);
    let plan = FaultPlan::random(42, &opts);
    let (a, _) = sim_trace(&plan, &temp_path("det-a.jsonl"));
    let (b, _) = sim_trace(&plan, &temp_path("det-b.jsonl"));
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same plan + seed must yield byte-identical traces");
}

fn parse(bytes: &[u8]) -> Vec<TraceEvent> {
    std::str::from_utf8(bytes)
        .expect("utf8 trace")
        .lines()
        .map(|l| TraceEvent::from_json_line(l).expect("parseable line"))
        .collect()
}

#[test]
fn span_completeness_holds_over_sim_chaos_sweep() {
    let opts = ChaosOptions::for_pool(POOL, SIM_HORIZON);
    for seed in [3u64, 7, 19, 42, 91] {
        let plan = FaultPlan::random(seed, &opts);
        let (bytes, _) = sim_trace(&plan, &temp_path(&format!("span-{seed}.jsonl")));
        let events = parse(&bytes);
        verify_spans(&events).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn span_completeness_holds_on_thread_backend() {
    let opts = ChaosOptions::for_pool(POOL, THREAD_HORIZON);
    let plan = FaultPlan::random(7, &opts);
    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(1 << 20);
    let w = workload();
    let mut server = Server::new(thread_cfg());
    server.set_telemetry(telemetry.clone());
    server.submit(build_problem(w.db, w.queries, &w.cfg));
    let (_, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let events = ring.events();
    assert!(!events.is_empty());
    verify_spans(&events).expect("tcp spans resolve");
}

/// Counts `result_corrupted` events in a trace.
fn corrupted_events(events: &[TraceEvent]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ResultCorrupted { .. }))
        .count() as u64
}

/// The satellite's parity check: every corruption route (sim delivery
/// fault, TCP frame-CRC failure) funnels through the one canonical
/// `result_corrupted` emission in `Server::result_corrupted`, so on
/// *both* backends the trace count equals `ProblemStats::
/// corrupted_results`, and a plan arming each client once yields the
/// same total on the simulator and over real sockets.
#[test]
fn corrupted_result_counts_agree_across_sim_and_tcp() {
    let mut plan = FaultPlan::new(0);
    for c in 0..POOL {
        plan.push(0.0, c, FaultKind::CorruptResult);
    }

    let (bytes, mut sim_server) = sim_trace(&plan, &temp_path("corrupt-sim.jsonl"));
    let sim_trace_count = corrupted_events(&parse(&bytes));
    let sim_stats = sim_server.stats(0).corrupted_results;
    assert_eq!(sim_trace_count, sim_stats, "sim: trace vs stats");
    assert_eq!(sim_trace_count, POOL as u64, "one corruption per machine");
    assert!(sim_server.take_output(0).is_some());

    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(1 << 20);
    let w = workload();
    let mut server = Server::new(thread_cfg());
    server.set_telemetry(telemetry.clone());
    server.submit(build_problem(w.db, w.queries, &w.cfg));
    let (mut tcp_server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let tcp_trace_count = corrupted_events(&ring.events());
    let tcp_stats = tcp_server.stats(0).corrupted_results;
    assert_eq!(tcp_trace_count, tcp_stats, "tcp: trace vs stats");
    assert_eq!(
        tcp_trace_count, sim_trace_count,
        "sim and tcp must count the same corruptions"
    );
    assert!(tcp_server.take_output(0).is_some());

    // The wire-level view: each armed donor recorded one wire fault,
    // and every one of them surfaced as a canonical event.
    let wire_faults = telemetry.metrics_snapshot().counter("net.wire_faults");
    assert_eq!(wire_faults, tcp_trace_count, "every wire fault traced");
}

/// Metrics registry integration over a clean sim run: server counters
/// match `ProblemStats`, and the DSEARCH counters that replaced the
/// data manager's ad-hoc issued/received bookkeeping balance exactly.
#[test]
fn metrics_registry_agrees_with_problem_stats() {
    let telemetry = Telemetry::enabled();
    let w = workload();
    let mut server = Server::new(SchedulerConfig::default());
    server.set_telemetry(telemetry.clone());
    server.submit(build_problem(w.db, w.queries, &w.cfg));
    let (_, server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7)).run();
    let snap = telemetry.metrics_snapshot();
    let stats = server.stats(0);
    assert_eq!(
        snap.counter("server.completed_units"),
        stats.completed_units
    );
    assert_eq!(
        snap.counter("server.corrupted_results"),
        stats.corrupted_results
    );
    assert_eq!(
        snap.counter("dsearch.units_issued"),
        snap.counter("dsearch.units_received"),
        "a clean run receives every chunk it issued"
    );
    assert!(snap.counter("dsearch.units_issued") > 0);
    let lat = snap.histogram("server.unit_latency").expect("latencies");
    assert_eq!(lat.count(), stats.completed_units);
}
