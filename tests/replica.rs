//! Replica-tier acceptance suite: federated chunk replicas under fire.
//!
//! The tentpole claim this suite pins down: donors can fetch their
//! chunks from a content-addressed replica tier instead of the origin,
//! the routing fails over through dead and stalled endpoints without
//! ever accepting unverified bytes, and the run's output stays
//! bit-identical to the sequential reference while it happens. The
//! origin-offload share is measured by the farm benchmark
//! (`replica.origin_offload_share`, workload `dsearch-replicas`); here
//! the topology runs over real loopback sockets.

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::{Alphabet, Sequence};
use biodist::core::net::{spawn_clients, ClientKit, Clock};
use biodist::core::{
    audited, run_tcp_replicated, Directory, FaultKind, FaultPlan, NetClientOptions, NetServer,
    NetServerOptions, ReplicaServer, SchedulerConfig, Server, Telemetry,
};
use biodist::dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Scaled seconds per wall second (matches the chaos suite).
const TIME_SCALE: f64 = 50.0;

struct Workload {
    db: Vec<Sequence>,
    queries: Vec<Sequence>,
    cfg: DsearchConfig,
    reference: u64,
}

fn workload(db_sequences: usize) -> Workload {
    let queries = vec![random_sequence(Alphabet::Protein, "q", 100, 3)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(db_sequences, 80), 4).sequences;
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

fn sched() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.03,
        prior_ops_per_sec: 2e10,
        lease_min_secs: 0.5,
        ..Default::default()
    }
}

/// Runs `donors` donors against `replicas` replica endpoints under
/// `plan`, asserting the sequential digest and the exactly-once audit;
/// returns the shared telemetry for counter assertions.
fn replicated_run(
    w: &Workload,
    donors: usize,
    replicas: usize,
    plan: &FaultPlan,
    tag: &str,
) -> Telemetry {
    let mut server = Server::new(sched());
    let telemetry = Telemetry::enabled();
    server.set_telemetry(telemetry.clone());
    let (problem, audit) = audited(build_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_replicated(server, donors, replicas, plan, TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap_or_else(|| panic!("{tag}: no output\nplan: {plan:?}"))
        .into_inner::<SearchOutput>();
    assert_eq!(
        out.digest(),
        w.reference,
        "{tag}: output differs from the sequential reference\nplan: {plan:?}"
    );
    if let Err(v) = audit.verify_run(&server) {
        panic!("{tag}: invariants violated: {v:?}\nplan: {plan:?}");
    }
    telemetry
}

/// The acceptance run: 16 donors, 3 replicas, one replica killed and
/// one stalled mid-run. The output matches the sequential reference,
/// the audit holds, and the donors demonstrably failed over.
#[test]
fn acceptance_16_donors_3_replicas_one_killed_one_stalled() {
    let w = workload(48);
    let plan = FaultPlan::new(0)
        .with(0.1, 0, FaultKind::ReplicaCrash { down_secs: 1e6 })
        .with(0.15, 1, FaultKind::ReplicaStall { duration_secs: 1e6 });
    let telemetry = replicated_run(&w, 16, 3, &plan, "acceptance 16x3");
    let snap = telemetry.metrics_snapshot();
    assert!(
        snap.counter("replica.fetches") > 0,
        "chunk fetches must route through the replica tier: {:?}",
        snap.counters
    );
    assert!(
        snap.counter("replica.failovers") > 0,
        "a killed and a stalled replica must force failovers: {:?}",
        snap.counters
    );
}

/// A healthy tier actually carries chunk traffic: with all replicas up,
/// donors fetch from them (pull-through syncs charge the origin once
/// per chunk per replica, not once per donor).
#[test]
fn healthy_replicas_serve_chunk_traffic() {
    let w = workload(24);
    let telemetry = replicated_run(&w, 8, 2, &FaultPlan::none(), "healthy 8x2");
    let snap = telemetry.metrics_snapshot();
    assert!(
        snap.counter("replica.chunks_served") > 0,
        "replicas must serve chunks: {:?}",
        snap.counters
    );
    assert!(
        snap.counter("replica.syncs") > 0,
        "replicas fill lazily from the origin: {:?}",
        snap.counters
    );
    assert!(
        snap.counter("replica.bytes_replica") > 0,
        "donor chunk bytes must come off the replica links: {:?}",
        snap.counters
    );
}

/// The CI smoke: a small run with 2 replicas, one killed mid-run, still
/// lands on the sequential digest. (`cargo test --test replica smoke`.)
#[test]
fn replica_smoke_one_of_two_killed_mid_run() {
    let w = workload(24);
    let plan = FaultPlan::new(0).with(0.05, 0, FaultKind::ReplicaCrash { down_secs: 1e6 });
    let telemetry = replicated_run(&w, 6, 2, &plan, "smoke 6x2");
    let snap = telemetry.metrics_snapshot();
    assert!(
        snap.counter("replica.chunks_served") > 0,
        "the surviving replica must keep serving: {:?}",
        snap.counters
    );
}

/// Zero replicas is the exact pre-tier behaviour: every chunk byte
/// comes from the origin and no replica counter ever moves.
#[test]
fn no_replicas_means_no_replica_traffic() {
    let w = workload(24);
    let telemetry = replicated_run(&w, 4, 0, &FaultPlan::none(), "baseline 4x0");
    let snap = telemetry.metrics_snapshot();
    for counter in [
        "replica.fetches",
        "replica.failovers",
        "replica.chunks_served",
        "replica.syncs",
        "replica.bytes_replica",
    ] {
        assert_eq!(snap.counter(counter), 0, "{counter} moved without a tier");
    }
    assert!(
        snap.counter("net.chunk_bytes_out") > 0,
        "the origin serves everything"
    );
}

/// Kept data connections: a unit's misses bound for one replica share
/// one burst over the donor's data connection to it, and that
/// connection outlives the unit — a replicated run dials each replica
/// once per donor, plus a redial after each failure. (The per-chunk
/// ladder dialed once per chunk; one dial per unit per replica came
/// before the kept connection.) 240 sequences cut into units of dozens
/// of chunks each: the connection count stays within the assignments
/// the server made times the replicas, is a small fraction of the
/// chunks the replicas served, and is at most donors × replicas plus
/// the failovers.
#[test]
fn replica_connections_are_kept_across_units() {
    let mut w = workload(240);
    w.cfg.cost_scale = 2_000.0;
    w.reference = SearchOutput {
        hits: search_sequential(&w.db, &w.queries, &w.cfg),
    }
    .digest();
    let (donors, replicas) = (4, 2);
    let telemetry = replicated_run(&w, donors, replicas, &FaultPlan::none(), "bursts 4x2");
    let snap = telemetry.metrics_snapshot();
    let connects = snap.counter("replica.connects");
    let assignments = snap.counter("server.assignments");
    let served = snap.counter("replica.chunks_served");
    assert!(connects > 0 && served >= 240, "{:?}", snap.counters);
    assert!(
        connects <= assignments * replicas as u64,
        "{connects} replica connections for {assignments} assignments x {replicas} replicas"
    );
    assert!(
        connects * 8 <= served,
        "{connects} replica connections for {served} chunks served: still per chunk?"
    );
    let failovers = snap.counter("replica.failovers");
    assert!(
        connects <= (donors * replicas) as u64 + failovers,
        "{connects} replica connections for {donors} donors x {replicas} replicas \
         and {failovers} failovers: still one per unit?"
    );
}

/// With two healthy replicas and no faults, every chunk a donor reads
/// comes from the replica tier: the origin serves donors not one byte,
/// and the run still reproduces the sequential digest.
#[test]
fn replica_fed_donors_draw_no_chunk_bytes_from_the_origin() {
    const DONORS: usize = 4;
    let w = workload(48);
    let mut server = Server::new(sched());
    let telemetry = Telemetry::enabled();
    server.set_telemetry(telemetry.clone());
    let pid = server.submit(build_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let kit = ClientKit::from_server(&server).expect("codecs registered");
    let clock = Clock::new(TIME_SCALE);
    let net = NetServer::start(server, clock, NetServerOptions::default()).expect("bind origin");
    let upstream = Directory::with_origin(net.addr());
    let replicas: Vec<ReplicaServer> = (0..2)
        .map(|_| ReplicaServer::start(upstream.clone(), clock, telemetry.clone(), vec![], vec![]))
        .collect::<Result<_, _>>()
        .expect("bind replicas");
    let endpoints: Vec<_> = replicas.iter().map(ReplicaServer::addr).collect();
    net.set_replicas(endpoints.clone());
    let dir = Directory::with_origin(net.addr());
    dir.set_replicas(endpoints);
    let run_over = Arc::new(AtomicBool::new(false));
    let none = FaultPlan::none();
    let opts = NetClientOptions::default();
    let handles = spawn_clients(dir, clock, kit, DONORS, &none, run_over.clone(), opts);
    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("donor thread");
    }
    replicas.into_iter().for_each(ReplicaServer::stop);
    let out = server.take_output(pid).expect("output");
    assert_eq!(out.into_inner::<SearchOutput>().digest(), w.reference);
    let snap = telemetry.metrics_snapshot();
    assert_eq!(
        snap.counter("replica.bytes_origin"),
        0,
        "{:?}",
        snap.counters
    );
    assert!(
        snap.counter("replica.bytes_replica") > 0,
        "{:?}",
        snap.counters
    );
}
