//! Multi-donor TCP loopback soak (24 donors on CI-class hosts) with
//! chaos, over two passes of one server.
//!
//! Phase 1 runs two *concurrent* problems over distinct databases with
//! a random fault plan active (crashes, departures, dropped/corrupted
//! results, link degradation). Phase 2 opens a gate on a third problem
//! that repeats phase 1's first query verbatim, on donors whose chunk
//! caches phase 1 filled. Every problem must reproduce its sequential
//! digest and fold each unit exactly once.
//!
//! Failures print the replay command:
//!
//! ```text
//! BIODIST_CHAOS_SEED=<seed> cargo test --test stress
//! ```

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::{Alphabet, Sequence};
use biodist::core::net::{
    spawn_clients, ClientKit, Clock, Directory, NetClientOptions, NetServer, NetServerOptions,
};
use biodist::core::problem::{DataManager, Payload, Problem, TaskResult, WorkUnit};
use biodist::core::{
    audited, ChaosOptions, FaultPlan, ProblemId, SchedulerConfig, Server, Telemetry,
};
use biodist::dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Donor pool size for the soak: 24 on CI-class hosts, scaled down
/// with available parallelism on small machines: running 24 compute
/// threads on one core turns lease deadlines and ack timeouts into a
/// lottery of spurious expiries and reissues.
fn donor_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (8 * cores).clamp(8, 24)
}
/// Scaled seconds per wall second (matches the chaos suite).
const TIME_SCALE: f64 = 50.0;
/// Fault horizon, scaled seconds: all faults land early in phase 1, so
/// phase 2 measures the steady-state cache behaviour, not fault noise.
const HORIZON: f64 = 0.4;
/// Fixed chaos seed for the CI stress-smoke job; `BIODIST_CHAOS_SEED`
/// overrides it for replay.
const DEFAULT_SEED: u64 = 42;

fn chaos_seed() -> u64 {
    match std::env::var("BIODIST_CHAOS_SEED") {
        Ok(s) => s.parse().expect("BIODIST_CHAOS_SEED must be a u64"),
        Err(_) => DEFAULT_SEED,
    }
}

/// Formats a stress failure so the run reproduces from the message:
/// replay command, seed and plan digest.
fn stress_panic(seed: u64, plan: &FaultPlan, why: String) -> ! {
    panic!(
        "stress failure — replay with BIODIST_CHAOS_SEED={seed} cargo test --test stress\n  \
         why: {why}\n  seed: {seed}\n  \
         replicas: {} fault event(s) on the replica tier\n  \
         plan digest: {:#018x}\n  plan: {plan:?}",
        plan.replica_events().len(),
        plan.digest()
    )
}

// ---------------------------------------------------------------- gating

/// Holds a data manager's units back until the gate opens; everything
/// else passes straight through. The server sees an incomplete problem
/// with nothing to issue, which is exactly the `Wait` path.
struct GatedDm {
    inner: Box<dyn DataManager>,
    gate: Arc<AtomicBool>,
}

impl DataManager for GatedDm {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        if !self.gate.load(Ordering::SeqCst) {
            return None;
        }
        self.inner.next_unit(hint_ops)
    }
    fn accept_result(&mut self, result: TaskResult) {
        self.inner.accept_result(result);
    }
    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
    fn final_output(&mut self) -> Payload {
        self.inner.final_output()
    }
    fn attach_telemetry(&mut self, telemetry: Telemetry, problem: ProblemId) {
        self.inner.attach_telemetry(telemetry, problem);
    }
}

/// Placeholder used only while swapping the real manager out.
struct NullDm;
impl DataManager for NullDm {
    fn next_unit(&mut self, _hint_ops: f64) -> Option<WorkUnit> {
        None
    }
    fn accept_result(&mut self, _result: TaskResult) {}
    fn is_complete(&self) -> bool {
        false
    }
    fn final_output(&mut self) -> Payload {
        Payload::new((), 0)
    }
}

fn gate_problem(mut p: Problem, gate: Arc<AtomicBool>) -> Problem {
    let inner = std::mem::replace(&mut p.data_manager, Box::new(NullDm));
    p.data_manager = Box::new(GatedDm { inner, gate });
    p
}

// -------------------------------------------------------------- workload

struct Workload {
    db: Vec<Sequence>,
    queries: Vec<Sequence>,
    cfg: DsearchConfig,
    reference: u64,
}

fn workload(db_seed: u64, query_seed: u64) -> Workload {
    // Big enough that computes outlast the donors' poll stagger, so
    // every donor takes part in each pass.
    let queries = vec![random_sequence(Alphabet::Protein, "q", 300, query_seed)];
    // 192 sequences → ~8 chunks cached per donor in phase 1.
    let db = SyntheticDb::generate(&DbSpec::protein_demo(192, 300), db_seed).sequences;
    let mut cfg = DsearchConfig::protein_default();
    cfg.cost_scale = 60_000.0;
    let reference = SearchOutput {
        hits: search_sequential(&db, &queries, &cfg),
    }
    .digest();
    Workload {
        db,
        queries,
        cfg,
        reference,
    }
}

fn stress_sched() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.05,
        prior_ops_per_sec: 2e9,
        min_unit_ops: 1e4,
        max_unit_ops: 1e7,
        lease_min_secs: 1.0,
        // No redundant end-game copies: a second copy of a unit is a
        // second fetch of its chunks, and the two passes are compared by
        // the chunk bytes they move (printed with BIODIST_STRESS_DEBUG).
        enable_redundant_dispatch: false,
        ..Default::default()
    }
}

// ------------------------------------------------------------------ soak

#[test]
fn stress_soak_24_donors_two_passes_are_exactly_once() {
    let donors = donor_count();
    let seed = chaos_seed();
    let plan = FaultPlan::random(
        seed,
        &ChaosOptions {
            n_clients: donors,
            horizon_secs: HORIZON,
            n_faults: 10,
            max_departures: 3,
        },
    );

    // Two concurrent phase-1 problems over *distinct* databases, plus a
    // gated phase-2 repeat of the first query (identical chunk digests).
    let w_a = workload(4, 3);
    let w_b = workload(5, 6);
    let gate = Arc::new(AtomicBool::new(false));

    let mut server = Server::new(stress_sched());
    let telemetry = Telemetry::enabled();
    server.set_telemetry(telemetry.clone());
    let (problem_a, audit_a) =
        audited(build_problem(w_a.db.clone(), w_a.queries.clone(), &w_a.cfg));
    let (problem_b, audit_b) =
        audited(build_problem(w_b.db.clone(), w_b.queries.clone(), &w_b.cfg));
    let (problem_c, audit_c) = audited(gate_problem(
        build_problem(w_a.db.clone(), w_a.queries.clone(), &w_a.cfg),
        gate.clone(),
    ));
    let pid_a = server.submit(problem_a);
    let pid_b = server.submit(problem_b);
    let pid_c = server.submit(problem_c);

    // Manual run_tcp_faulty wiring — the server must stay up across
    // both phases so the byte counter can be sampled at the gate.
    let kit = ClientKit::from_server(&server).expect("codecs");
    let clock = Clock::new(TIME_SCALE);
    let net = NetServer::start(server, clock, NetServerOptions::default()).expect("bind listener");
    // Donors straight at the origin: each applies its own wire faults.
    let client_dir = Directory::with_origin(net.addr());
    let run_over = Arc::new(AtomicBool::new(false));
    let handles = spawn_clients(
        client_dir,
        clock,
        kit,
        donors,
        &plan,
        run_over.clone(),
        NetClientOptions::default(),
    );

    // Phase 1: both concurrent problems complete under chaos.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done = net
            .with_server(|s| s.is_complete(pid_a) && s.is_complete(pid_b))
            .unwrap_or(true);
        if done {
            break;
        }
        if Instant::now() > deadline {
            stress_panic(seed, &plan, "phase 1 did not complete in 120s".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let phase1_bytes = telemetry.metrics_snapshot().counter("net.chunk_bytes_out");

    // Phase 2: open the gate on the repeated query.
    gate.store(true, Ordering::SeqCst);
    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    telemetry.flush();
    let phase2_bytes = telemetry.metrics_snapshot().counter("net.chunk_bytes_out") - phase1_bytes;

    // Completion with correct outputs.
    for (pid, reference, tag) in [
        (pid_a, w_a.reference, "phase-1 query A"),
        (pid_b, w_b.reference, "phase-1 query B"),
        (pid_c, w_a.reference, "phase-2 repeat of A"),
    ] {
        let out = server
            .take_output(pid)
            .unwrap_or_else(|| stress_panic(seed, &plan, format!("{tag}: no output")))
            .into_inner::<SearchOutput>();
        if out.digest() != reference {
            stress_panic(seed, &plan, format!("{tag}: output differs from reference"));
        }
    }

    // Exactly-once audit on every problem.
    for (audit, tag) in [(audit_a, "A"), (audit_b, "B"), (audit_c, "C")] {
        if let Err(v) = audit.verify_run(&server) {
            stress_panic(seed, &plan, format!("problem {tag} audit: {v:?}"));
        }
    }

    if std::env::var("BIODIST_STRESS_DEBUG").is_ok() {
        let snap = telemetry.metrics_snapshot();
        eprintln!("counters: {:#?}", snap.counters);
        eprintln!("phase1_bytes: {phase1_bytes}, phase2_bytes: {phase2_bytes}");
        for pid in [pid_a, pid_b, pid_c] {
            eprintln!("stats[{pid}]: {:?}", server.stats(pid));
        }
    }

    if phase1_bytes == 0 {
        stress_panic(seed, &plan, "phase 1 moved no chunk bytes".into());
    }
}
