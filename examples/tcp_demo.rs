//! Real-socket demo: the task farm over loopback TCP, with faults.
//!
//! Runs a DSEARCH problem on the TCP backend — real donor clients
//! connecting to a real server over the framed wire protocol — first
//! fault-free, then under a seeded chaos plan that each donor applies
//! at its own sockets (dropped results, corrupted frames, client churn).
//! Both runs are checked bit-for-bit against the sequential reference.
//!
//! Set `BIODIST_CHAOS_SEED=<n>` to pick the fault plan; the same seed
//! always produces the same plan, so any interesting run is replayable.
//! Pass `--trace-out <path>` to write both runs' telemetry as JSONL
//! (feed it to `abl_report report --trace <path>`); a metrics-registry
//! snapshot is printed after the chaos run either way.
//!
//! Run with: `cargo run --release --example tcp_demo`

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::Alphabet;
use biodist::core::{
    run_tcp, run_tcp_faulty, ChaosOptions, FaultPlan, SchedulerConfig, Server, Telemetry,
};
use biodist::dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};

const POOL: usize = 6;
const TIME_SCALE: f64 = 50.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).expect("--trace-out needs a path").clone());
    let telemetry = Telemetry::enabled();
    if let Some(path) = &trace_out {
        telemetry
            .attach_jsonl(std::path::Path::new(path))
            .expect("create trace file");
    }
    // A small protein search: one query against a synthetic database.
    let queries = vec![random_sequence(Alphabet::Protein, "q0", 150, 7)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(400, 120), 8).sequences;
    let mut cfg = DsearchConfig::protein_default();
    cfg.cost_scale = 50.0;

    let reference = SearchOutput {
        hits: search_sequential(&db, &queries, &cfg),
    }
    .digest();

    let sched = SchedulerConfig {
        target_unit_secs: 0.001,
        prior_ops_per_sec: 2e10,
        lease_min_secs: 0.5,
        ..Default::default()
    };

    // ---- run 1: fault-free over real sockets -----------------------
    let mut server = Server::new(sched.clone());
    server.set_telemetry(telemetry.clone());
    let pid = server.submit(build_problem(db.clone(), queries.clone(), &cfg));
    let (mut server, elapsed) = run_tcp(server, POOL);
    let stats = server.stats(pid);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    println!("fault-free TCP run: {POOL} clients, {elapsed:.2} scaled s");
    println!(
        "  units={} assignments={} reissued={} corrupted={}",
        stats.completed_units, stats.assignments, stats.reissued_units, stats.corrupted_results
    );
    assert_eq!(out.digest(), reference);
    println!("  digest matches sequential reference");

    // ---- run 2: same job, each donor faulting its own frames --------
    let seed = std::env::var("BIODIST_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let plan = FaultPlan::random(seed, &ChaosOptions::for_pool(POOL, 1.0));
    println!(
        "\nchaos TCP run: seed {seed}, {} fault events",
        plan.events.len()
    );
    for ev in &plan.events {
        match ev.client {
            Some(c) => println!("  t={:.2}: client {c} {:?}", ev.at, ev.kind),
            None => println!("  t={:.2}: all clients {:?}", ev.at, ev.kind),
        }
    }

    let mut server = Server::new(sched);
    server.set_telemetry(telemetry.clone());
    let pid = server.submit(build_problem(db, queries, &cfg));
    let (mut server, elapsed) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let stats = server.stats(pid);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    println!("completed in {elapsed:.2} scaled s");
    println!(
        "  units={} assignments={} reissued={} wasted_results={} corrupted={}",
        stats.completed_units,
        stats.assignments,
        stats.reissued_units,
        stats.wasted_results,
        stats.corrupted_results
    );
    assert_eq!(out.digest(), reference);
    println!("  digest still matches sequential reference");

    telemetry.flush();
    println!("\nmetrics snapshot (both runs):");
    println!("{}", telemetry.metrics_snapshot().to_json());
    if let Some(path) = trace_out {
        println!("trace written to {path}");
    }
}
