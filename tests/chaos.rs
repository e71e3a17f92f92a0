//! Chaos property suite: seeded random fault plans swept over small
//! DSEARCH and DPRml workloads on both backends.
//!
//! Every run is audited by the invariant harness (`biodist::core::audit`)
//! and its output compared bit-for-bit against the fault-free
//! sequential reference (`dsearch::search_sequential`,
//! `phylo::search::stepwise_ml`). Any failure panics with the offending
//! `(seed, plan)` — the plan is pure data and the interpreter is
//! deterministic, so that pair alone reproduces the run:
//!
//! ```text
//! BIODIST_CHAOS_SEED=<seed> cargo test --test chaos
//! ```
//!
//! restricts every sweep to that single seed.

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::{Alphabet, Sequence};
use biodist::core::{
    audited, run_tcp_faulty, ChaosOptions, FaultKind, FaultPlan, SchedulerConfig, Server,
    SimConfig, SimRunner, Telemetry,
};
use biodist::dprml::{build_problem as dprml_problem, DprmlConfig, PhyloOutput};
use biodist::dsearch::{
    build_problem as dsearch_problem, search_sequential, DsearchConfig, SearchOutput,
};
use biodist::gridsim::deployments::homogeneous_lab;
use biodist::phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist::phylo::patterns::PatternAlignment;
use biodist::phylo::search::stepwise_ml;
use std::sync::Arc;

// ----------------------------------------------------------- sweep sizes

/// Seeds per application on the simulated backend.
const SIM_SEEDS: u64 = 100;
/// Fixed subset the CI chaos smoke runs (`cargo test --test chaos smoke`).
const SMOKE_SEEDS: [u64; 10] = [3, 7, 11, 19, 23, 31, 42, 57, 73, 91];
/// Fixed seeds for the real-TCP backend sweep: every seed below 12 and
/// a spread above. Every plan exercises the full wire: framing,
/// heartbeats, reconnect, the donors' wire faults. `BIODIST_CHAOS_SEED` narrows
/// this sweep too.
const TCP_SEEDS: [u64; 17] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 19, 23, 31, 42, 57];

/// Pool size for every chaos run.
const POOL: usize = 6;
/// Fault horizon for simulator plans, virtual seconds.
const SIM_HORIZON: f64 = 200.0;
/// Fault horizon for TCP plans, scaled seconds.
const THREAD_HORIZON: f64 = 1.0;
/// TCP clock scale: scaled seconds per wall second.
const TIME_SCALE: f64 = 50.0;

fn sweep_seeds(n: u64) -> Vec<u64> {
    match std::env::var("BIODIST_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("BIODIST_CHAOS_SEED must be a u64")],
        Err(_) => (0..n).collect(),
    }
}

fn tcp_seeds() -> Vec<u64> {
    match std::env::var("BIODIST_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("BIODIST_CHAOS_SEED must be a u64")],
        Err(_) => TCP_SEEDS.to_vec(),
    }
}

/// Formats a chaos failure so the run is reproducible from the message:
/// the replay command, the seed, the plan's content digest (to detect a
/// generator drift masquerading as "the same seed") and the plan data.
fn chaos_panic(app: &str, backend: &str, seed: u64, plan: &FaultPlan, why: String) -> ! {
    panic!(
        "chaos failure [{app}/{backend}] — replay with BIODIST_CHAOS_SEED={seed} \
         cargo test --test chaos\n  why: {why}\n  seed: {seed}\n  \
         replicas: {} fault event(s) on the replica tier\n  \
         plan digest: {:#018x}\n  plan: {plan:?}",
        plan.replica_events().len(),
        plan.digest()
    )
}

// ------------------------------------------------------------- workloads

struct DsearchWorkload {
    db: Vec<Sequence>,
    queries: Vec<Sequence>,
    cfg: DsearchConfig,
    reference: u64,
}

fn dsearch_workload() -> DsearchWorkload {
    // Stretch the virtual-time cost so a sim run spans the fault
    // horizon (≈200 virtual seconds on 6 lab machines).
    dsearch_workload_sized(24, 60_000.0)
}

/// A database small enough for a chaos run but cut into units of a few
/// dozen sequence chunks each, so every fetch is a real burst.
fn burst_workload() -> DsearchWorkload {
    dsearch_workload_sized(240, 2_000.0)
}

fn dsearch_workload_sized(db_sequences: usize, cost_scale: f64) -> DsearchWorkload {
    let queries = vec![random_sequence(Alphabet::Protein, "q", 100, 3)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(db_sequences, 80), 4).sequences;
    let mut cfg = DsearchConfig::protein_default();
    cfg.cost_scale = cost_scale;
    let reference = SearchOutput {
        hits: search_sequential(&db, &queries, &cfg),
    }
    .digest();
    DsearchWorkload {
        db,
        queries,
        cfg,
        reference,
    }
}

struct DprmlWorkload {
    data: Arc<PatternAlignment>,
    cfg: DprmlConfig,
    reference: u64,
}

fn dprml_workload() -> DprmlWorkload {
    let truth = random_yule_tree(5, 0.12, 61);
    let cfg = DprmlConfig::default();
    let model = cfg.build_model();
    let seqs = simulate_alignment(&truth, &model, 60, None, 62);
    let data = Arc::new(PatternAlignment::from_sequences(&seqs));
    let (tree, lnl) = stepwise_ml(&data, &model, None, &cfg.search);
    let newick = biodist::phylo::newick::to_newick(&tree, &data.names);
    let reference = PhyloOutput {
        tree,
        ln_likelihood: lnl,
        newick,
    }
    .digest();
    DprmlWorkload {
        data,
        cfg,
        reference,
    }
}

// -------------------------------------------------------------- backends

/// Scheduler tuning for TCP chaos runs: times are in scaled seconds
/// (TIME_SCALE per wall second), and the throughput prior is set near
/// real debug-build throughput so initial leases are not huge.
fn thread_cfg() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.03,
        prior_ops_per_sec: 2e10,
        lease_min_secs: 0.5,
        ..Default::default()
    }
}

fn run_dsearch_sim(w: &DsearchWorkload, seed: u64) {
    let opts = ChaosOptions::for_pool(POOL, SIM_HORIZON);
    let plan = FaultPlan::random(seed, &opts);
    let mut server = Server::new(SchedulerConfig::default());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (_, mut server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7))
        .with_faults(plan.clone())
        .run();
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        chaos_panic(
            "dsearch",
            "sim",
            seed,
            &plan,
            "output differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        chaos_panic(
            "dsearch",
            "sim",
            seed,
            &plan,
            format!("invariants violated: {v:?}"),
        );
    }
}

fn run_dprml_sim(w: &DprmlWorkload, seed: u64) {
    let opts = ChaosOptions::for_pool(POOL, SIM_HORIZON);
    let plan = FaultPlan::random(seed, &opts);
    let mut server = Server::new(SchedulerConfig::default());
    let (problem, audit) = audited(dprml_problem(w.data.clone(), &w.cfg, None, "chaos"));
    let pid = server.submit(problem);
    let (_, mut server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7))
        .with_faults(plan.clone())
        .run();
    let out = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();
    if out.digest() != w.reference {
        chaos_panic(
            "dprml",
            "sim",
            seed,
            &plan,
            "tree differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        chaos_panic(
            "dprml",
            "sim",
            seed,
            &plan,
            format!("invariants violated: {v:?}"),
        );
    }
}

fn run_dsearch_tcp(w: &DsearchWorkload, seed: u64) {
    let opts = ChaosOptions::for_pool(POOL, THREAD_HORIZON);
    let plan = FaultPlan::random(seed, &opts);
    let mut server = Server::new(thread_cfg());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        chaos_panic(
            "dsearch",
            "tcp",
            seed,
            &plan,
            "output differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        chaos_panic(
            "dsearch",
            "tcp",
            seed,
            &plan,
            format!("invariants violated: {v:?}"),
        );
    }
}

fn run_dprml_tcp(w: &DprmlWorkload, seed: u64) {
    let opts = ChaosOptions::for_pool(POOL, THREAD_HORIZON);
    let plan = FaultPlan::random(seed, &opts);
    let mut server = Server::new(thread_cfg());
    let (problem, audit) = audited(dprml_problem(w.data.clone(), &w.cfg, None, "chaos"));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let out = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();
    if out.digest() != w.reference {
        chaos_panic(
            "dprml",
            "tcp",
            seed,
            &plan,
            "tree differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        chaos_panic(
            "dprml",
            "tcp",
            seed,
            &plan,
            format!("invariants violated: {v:?}"),
        );
    }
}

// ----------------------------------------------------------- full sweeps

#[test]
fn chaos_dsearch_sim_sweep() {
    let w = dsearch_workload();
    for seed in sweep_seeds(SIM_SEEDS) {
        run_dsearch_sim(&w, seed);
    }
}

#[test]
fn chaos_dprml_sim_sweep() {
    let w = dprml_workload();
    for seed in sweep_seeds(SIM_SEEDS) {
        run_dprml_sim(&w, seed);
    }
}

// --------------------------------------------------- real-TCP backend sweep

/// Random fault plans against the real-socket backend: every run goes
/// through loopback TCP, the framed wire protocol, the donors' own wire
/// faults and the heartbeat/reconnect machinery, and must still reproduce the
/// sequential digest under audit.
#[test]
fn chaos_dsearch_tcp_sweep() {
    let w = dsearch_workload();
    for seed in tcp_seeds() {
        run_dsearch_tcp(&w, seed);
    }
}

#[test]
fn chaos_dprml_tcp_sweep() {
    let w = dprml_workload();
    for seed in tcp_seeds() {
        run_dprml_tcp(&w, seed);
    }
}

/// A hand-built plan that guarantees on-the-wire frame corruption:
/// each armed donor flips a checksum byte of its next result-carrying
/// frame, the server's CRC layer must catch every one, route it to the
/// reissue path, and the run must still finish bit-identically.
#[test]
fn chaos_tcp_forced_frame_corruption() {
    let w = dsearch_workload();
    let mut plan = FaultPlan::new(0);
    for c in 0..POOL {
        plan.push(0.0, c, FaultKind::CorruptResult);
    }
    let mut server = Server::new(thread_cfg());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let stats = server.stats(pid);
    assert!(
        stats.corrupted_results >= 1,
        "at least one corrupted frame must be detected: {stats:?}"
    );
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(
        out.digest(),
        w.reference,
        "corruption must not leak into results"
    );
    audit.verify_run(&server).expect("audit clean");
}

/// Backend parity across the *transport* seam: the same plan on the
/// simulator and over real sockets must converge to the identical
/// digest (scheduling orders differ; the fold must not care).
#[test]
fn backend_parity_tcp_same_plan() {
    let w = dsearch_workload();
    let opts = ChaosOptions::for_pool(POOL, THREAD_HORIZON);
    for seed in [5u64, 17, 29] {
        let plan = FaultPlan::random(seed, &opts);

        let mut server = Server::new(SchedulerConfig::default());
        let pid = server.submit(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
        let (_, mut server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7))
            .with_faults(plan.clone())
            .run();
        let sim_digest = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>()
            .digest();

        let mut server = Server::new(thread_cfg());
        let pid = server.submit(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
        let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
        let tcp_digest = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>()
            .digest();

        assert_eq!(
            sim_digest, tcp_digest,
            "seed {seed}: sim and tcp backends disagree\nplan: {plan:?}"
        );
        assert_eq!(
            tcp_digest, w.reference,
            "seed {seed}: both differ from reference"
        );
    }
}

/// Backend parity with the TCP donors' pipelined dispatch (their
/// default queue depth of 2; the simulator's donors keep one unit at a
/// time). It may not change *what* is computed — only when and where —
/// so both backends must still land on the sequential digest under the
/// same fault plan.
#[test]
fn backend_parity_pipelined_same_plan() {
    let w = dsearch_workload();
    let opts = ChaosOptions::for_pool(POOL, THREAD_HORIZON);
    for seed in [5u64, 17] {
        let plan = FaultPlan::random(seed, &opts);

        let mut server = Server::new(SchedulerConfig::default());
        let pid = server.submit(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
        let (_, mut server) = SimRunner::new(
            server,
            homogeneous_lab(POOL, 7),
            biodist::gridsim::network::SharedLink::hundred_mbit(),
            SimConfig::default(),
        )
        .with_faults(plan.clone())
        .run();
        let sim_digest = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>()
            .digest();

        let mut server = Server::new(thread_cfg());
        let pid = server.submit(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
        let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
        let tcp_digest = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>()
            .digest();

        if sim_digest != tcp_digest {
            chaos_panic(
                "dsearch",
                "sim+tcp pipelined",
                seed,
                &plan,
                "backends disagree with pipelining enabled".into(),
            );
        }
        if tcp_digest != w.reference {
            chaos_panic(
                "dsearch",
                "sim+tcp pipelined",
                seed,
                &plan,
                "both backends differ from the sequential reference".into(),
            );
        }
    }
}

/// Regression: a donor crashing in the middle of the chunk-transfer
/// phase (right after joining, when `ChunkData` frames are in flight)
/// must neither wedge the unit's lease nor leave a corrupted entry in
/// any cache. The crashed donor reboots with a cold cache, refetches,
/// and the run still reproduces the sequential digest under audit.
#[test]
fn tcp_crash_mid_chunk_transfer_recovers() {
    let w = dsearch_workload();
    let mut plan = FaultPlan::new(0);
    // Crashes land at the very start of the horizon — donors are still
    // pulling their first chunks — with staggered short reboots.
    for (i, c) in (0..3).enumerate() {
        plan.push(
            0.01 + 0.01 * i as f64,
            c,
            FaultKind::Crash {
                down_secs: 0.05 + 0.02 * i as f64,
            },
        );
    }
    // And one dropped result on a survivor, so lease recovery runs too.
    plan.push(0.05, 4, FaultKind::DropResult);
    let mut server = Server::new(thread_cfg());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        chaos_panic(
            "dsearch",
            "tcp crash-mid-chunk",
            0,
            &plan,
            "output differs from reference after mid-transfer crashes".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        chaos_panic(
            "dsearch",
            "tcp crash-mid-chunk",
            0,
            &plan,
            format!("invariants violated: {v:?}"),
        );
    }
}

/// Runs `w` on POOL donors whose only replica dies on every connection:
/// it answers the first `whole_replies` requests with real, verifiable
/// chunks, then half of one more well-formed frame — the worst spot to
/// die, after the header already parsed — and then the stream ends.
/// Checks the sequential digest and the exactly-once audit; returns the
/// metrics and the payload bytes the replica sent in whole replies.
fn run_against_dying_replica(
    w: &DsearchWorkload,
    label: &str,
    whole_replies: usize,
) -> (biodist::core::telemetry::MetricsSnapshot, u64) {
    use biodist::core::net::wire::{encode_frame, Frame, FrameReader};
    use biodist::core::net::{
        spawn_clients, ClientKit, Clock, Directory, NetClientOptions, NetServer, NetServerOptions,
    };
    use std::io::Write as _;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let mut server = Server::new(thread_cfg());
    let telemetry = Telemetry::enabled();
    server.set_telemetry(telemetry.clone());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let codec = server.codec(pid).expect("dsearch has a codec");

    let clock = Clock::new(TIME_SCALE);
    let kit = ClientKit::from_server(&server).expect("codecs");
    let net = NetServer::start(server, clock, NetServerOptions::default()).expect("bind server");

    let dying = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
    let dying_addr = dying.local_addr().unwrap();
    dying.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let whole_bytes_sent = Arc::new(AtomicU64::new(0));
    let dying_thread = {
        let (stop, whole_bytes_sent) = (stop.clone(), whole_bytes_sent.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let Ok((mut s, _)) = dying.accept() else {
                    std::thread::sleep(std::time::Duration::from_micros(500));
                    continue;
                };
                let _ = s.set_nonblocking(false);
                let _ = s.set_read_timeout(Some(std::time::Duration::from_millis(5)));
                let mut reader = FrameReader::new();
                let mut answered = 0;
                // The rest of the burst is still read after the death,
                // so the close is a FIN the donor sees *behind* the
                // whole replies, not a reset that could overtake them.
                for _ in 0..400 {
                    match reader.poll(&mut s) {
                        Ok(Some(Frame::ChunkRequest { problem, chunk, .. })) => {
                            let payload = codec.encode_chunk(chunk).expect("chunk in range");
                            let len = payload.len() as u64;
                            let full = encode_frame(&Frame::ChunkData {
                                problem,
                                chunk,
                                digest: biodist::core::chunk_digest(&payload),
                                payload,
                            });
                            if answered < whole_replies {
                                let _ = s.write_all(&full);
                                whole_bytes_sent.fetch_add(len, Ordering::SeqCst);
                            } else if answered == whole_replies {
                                let _ = s.write_all(&full[..full.len() / 2]);
                                let _ = s.shutdown(std::net::Shutdown::Write);
                            }
                            answered += 1;
                        }
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
            }
        })
    };

    let client_dir = Directory::with_origin(net.addr());
    client_dir.set_replicas(vec![dying_addr]);
    let run_over = Arc::new(AtomicBool::new(false));
    let plan = FaultPlan::new(0);
    let handles = spawn_clients(
        client_dir,
        clock,
        kit,
        POOL,
        &plan,
        run_over.clone(),
        NetClientOptions::default(),
    );
    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    stop.store(true, Ordering::SeqCst);
    let _ = dying_thread.join();
    telemetry.flush();

    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        chaos_panic(
            "dsearch",
            label,
            0,
            &plan,
            "output differs from reference after the replica died".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        chaos_panic(
            "dsearch",
            label,
            0,
            &plan,
            format!("invariants violated: {v:?}"),
        );
    }
    (
        telemetry.metrics_snapshot(),
        whole_bytes_sent.load(Ordering::SeqCst),
    )
}

/// A replica dying in the middle of a `ChunkData` body must look to the
/// donor like any other bad endpoint: fail over, refetch from the next
/// rung (the origin here), and audit the unit exactly once. The
/// "replica" answers the first chunk request of every connection with
/// the first half of a well-formed frame and then goes away.
#[test]
fn tcp_replica_killed_mid_chunk_body_fails_over() {
    let (snap, _) =
        run_against_dying_replica(&dsearch_workload(), "tcp replica-killed-mid-body", 0);
    assert!(
        snap.counter("replica.failovers") > 0,
        "every fetch hit the severing replica first; failovers must be counted"
    );
    assert_eq!(
        snap.counter("replica.bytes_replica"),
        0,
        "no truncated body may ever be accepted as chunk bytes"
    );
}

/// The same death *mid-burst*: two verified replies into every burst.
/// The donor keeps the verified prefix, accepts not one byte of the
/// truncated body, and fails the remainder of the burst over to the
/// origin — audited exactly once against the sequential digest.
#[test]
fn tcp_replica_killed_mid_burst_keeps_the_verified_prefix() {
    let (snap, whole_bytes_sent) =
        run_against_dying_replica(&burst_workload(), "tcp replica-killed-mid-burst", 2);
    let kept = snap.counter("replica.bytes_replica");
    assert!(kept > 0, "the verified prefix of a dying burst is kept");
    assert!(
        kept <= whole_bytes_sent,
        "only whole, verified replies count: {kept} bytes accepted, {whole_bytes_sent} sent whole"
    );
    assert!(
        snap.counter("replica.failovers") > 0,
        "the remainder of every burst fails over"
    );
    assert!(
        snap.counter("replica.bytes_origin") > 0,
        "and is served by the origin"
    );
}

/// `ChunkData` replies lost and mangled on the wire, mid-burst: every
/// donor's record drops two and corrupts one of its first
/// replies (the head of its first burst, so the rest of the burst is
/// what exposes the gap) and more at staggered later times, wherever in
/// a burst those land — a trailing loss included, which costs the unit
/// its ack timeout and goes through lease recovery. The run must still
/// reproduce the sequential digest under the exactly-once audit, the
/// faults must really have hit the wire, and the donors must have
/// recovered by asking again, not by luck.
#[test]
fn tcp_chunk_replies_dropped_and_corrupted_mid_burst() {
    let w = burst_workload();
    let mut plan = FaultPlan::new(0);
    for c in 0..POOL {
        plan.push(0.0, c, FaultKind::DropChunk);
        plan.push(0.0, c, FaultKind::DropChunk);
        plan.push(0.0, c, FaultKind::CorruptChunk);
        plan.push(0.02 + 0.01 * c as f64, c, FaultKind::DropChunk);
        plan.push(0.05 + 0.01 * c as f64, c, FaultKind::CorruptChunk);
    }
    let mut server = Server::new(thread_cfg());
    let telemetry = Telemetry::enabled();
    server.set_telemetry(telemetry.clone());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        chaos_panic(
            "dsearch",
            "tcp chunk-reply faults",
            0,
            &plan,
            "output differs from reference after lost/corrupt chunk replies".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        chaos_panic(
            "dsearch",
            "tcp chunk-reply faults",
            0,
            &plan,
            format!("invariants violated: {v:?}"),
        );
    }
    let snap = telemetry.metrics_snapshot();
    assert!(
        snap.counter("net.wire_faults") >= 3,
        "the donors must have faulted chunk replies: {:?}",
        snap.counters
    );
    assert!(
        snap.counter("cache.rerequests") >= 3,
        "a lost head of a burst is inferred from the replies behind it: {:?}",
        snap.counters
    );
    assert!(
        snap.histogram("net.chunk_burst_len")
            .is_some_and(|h| h.sum() > 2.0 * h.count() as f64),
        "fetches must have gone out as multi-chunk bursts"
    );
}

/// Control frames lost, repeated and mangled while the donor pipeline
/// is `MIN_PIPELINE_DEPTH` deep: every donor drops, duplicates and corrupts
/// its result-carrying `Turn`s as it writes them and the `TurnReply`s
/// it reads, from the first exchange on and at staggered later times. A donor sees none of this
/// directly — it reads the loss off the order of the replies that do
/// arrive (or, for the last frames of a stream, off the ack timeout) —
/// and the run must still fold every unit exactly once into the
/// sequential digest: no result lost with its ack, no unit computed
/// from a repeated assignment and submitted as new, no reply taken for
/// the answer to a later request.
#[test]
fn tcp_control_frames_lost_mid_pipeline() {
    // One database sequence per unit, whatever the host's speed: 40
    // units per donor, so the faults land between exchanges that are in
    // flight, not at the edges of a run.
    let w = burst_workload();
    let mut plan = FaultPlan::new(0);
    for c in 0..POOL {
        let late = 0.01 * c as f64;
        plan.push(0.0, c, FaultKind::DropReply);
        plan.push(0.0, c, FaultKind::DropResult);
        plan.push(0.0, c, FaultKind::DuplicateReply);
        plan.push(0.0, c, FaultKind::CorruptReply);
        plan.push(0.02 + late, c, FaultKind::DuplicateResult);
        plan.push(0.03 + late, c, FaultKind::CorruptResult);
        plan.push(0.04 + late, c, FaultKind::DropReply);
        plan.push(0.05 + late, c, FaultKind::DuplicateReply);
        plan.push(0.06 + late, c, FaultKind::DropResult);
        plan.push(0.07 + late, c, FaultKind::CorruptReply);
    }
    let mut server = Server::new(SchedulerConfig {
        target_unit_secs: 1e-9,
        min_unit_ops: 1.0,
        ..thread_cfg()
    });
    let telemetry = Telemetry::enabled();
    server.set_telemetry(telemetry.clone());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    let fail =
        |why: String| -> ! { chaos_panic("dsearch", "tcp control-frame faults", 0, &plan, why) };
    if out.digest() != w.reference {
        fail("output differs from reference after lost/repeated/corrupt control frames".into());
    }
    if let Err(v) = audit.verify_run(&server) {
        fail(format!("invariants violated: {v:?}"));
    }
    let stats = server.stats(pid);
    let snap = telemetry.metrics_snapshot();
    assert_eq!(
        stats.completed_units,
        w.db.len() as u64,
        "one unit per sequence keeps every pipeline busy: {stats:?}"
    );
    assert!(
        snap.counter("net.wire_faults") >= 4 * POOL as u64,
        "the donors must have faulted control frames in both directions: {:?}",
        snap.counters
    );
    assert!(
        stats.corrupted_results >= 1,
        "a CRC-broken result is caught by the server: {stats:?}"
    );
    assert!(
        snap.counter("net.client_writes") < snap.counter("net.frames_in"),
        "results and requests must have shared writes: {:?}",
        snap.counters
    );
}

// --------------------------------------------------- CI smoke (fast path)

#[test]
fn chaos_smoke_dsearch() {
    let w = dsearch_workload();
    for &seed in &SMOKE_SEEDS {
        run_dsearch_sim(&w, seed);
    }
}

#[test]
fn chaos_smoke_dprml() {
    let w = dprml_workload();
    for &seed in &SMOKE_SEEDS {
        run_dprml_sim(&w, seed);
    }
}

// ------------------------------------------------ backend parity (satellite)

/// The same DPRml instance under the same fault plan must produce the
/// identical ML tree on the simulator and over real TCP.
#[test]
fn backend_parity_dprml_same_plan() {
    let w = dprml_workload();
    let opts = ChaosOptions::for_pool(POOL, THREAD_HORIZON);
    for seed in [5u64, 17] {
        let plan = FaultPlan::random(seed, &opts);

        let mut server = Server::new(SchedulerConfig::default());
        let pid = server.submit(dprml_problem(w.data.clone(), &w.cfg, None, "parity-sim"));
        let (_, mut server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7))
            .with_faults(plan.clone())
            .run();
        let sim_digest = server
            .take_output(pid)
            .unwrap()
            .into_inner::<PhyloOutput>()
            .digest();

        let mut server = Server::new(thread_cfg());
        let pid = server.submit(dprml_problem(w.data.clone(), &w.cfg, None, "parity-tcp"));
        let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
        let tcp_digest = server
            .take_output(pid)
            .unwrap()
            .into_inner::<PhyloOutput>()
            .digest();

        assert_eq!(
            sim_digest, tcp_digest,
            "seed {seed}: backends disagree\nplan: {plan:?}"
        );
        assert_eq!(
            sim_digest, w.reference,
            "seed {seed}: both differ from reference"
        );
    }
}

// ------------------------------------------------- sharded control plane

/// Donor loss with the connections spread over 4 event-loop threads:
/// of 8 donors, clients 0 and 4 depart permanently mid-run. Their
/// leased units reissue through the liveness path exactly as with one
/// shard — nothing is held anywhere but the central server, so no
/// departure can strand a unit. Digest parity with the sequential
/// reference and the exactly-once audit both must hold.
#[test]
fn tcp_sharded_donors_depart_work_is_reissued_to_completion() {
    use biodist::core::{run_tcp_with, NetServerOptions};
    let w = dsearch_workload();
    let plan = FaultPlan::new(0)
        .with(0.4, 0, FaultKind::Depart)
        .with(0.4, 4, FaultKind::Depart);
    let mut server = Server::new(thread_cfg());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_with(
        server,
        8,
        0,
        &plan,
        TIME_SCALE,
        NetServerOptions { shards: 4 },
    );
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        chaos_panic(
            "dsearch",
            "tcp-sharded",
            0,
            &plan,
            "output differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        chaos_panic(
            "dsearch",
            "tcp-sharded",
            0,
            &plan,
            format!("invariants violated: {v:?}"),
        );
    }
}

/// Seeded backend parity with connection I/O sharded: the same chaos
/// plans the unsharded TCP sweep runs must produce the reference
/// digest with `shards = 4` — sharding changes which thread frames a
/// unit, never what is assigned or computed.
#[test]
fn tcp_sharded_seeded_chaos_parity() {
    use biodist::core::{run_tcp_with, NetServerOptions};
    let w = dsearch_workload();
    for seed in [7u64, 42] {
        let opts = ChaosOptions::for_pool(POOL, THREAD_HORIZON);
        let plan = FaultPlan::random(seed, &opts);
        let mut server = Server::new(thread_cfg());
        let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
        let pid = server.submit(problem);
        let (mut server, _) = run_tcp_with(
            server,
            POOL,
            0,
            &plan,
            TIME_SCALE,
            NetServerOptions { shards: 4 },
        );
        let out = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>();
        if out.digest() != w.reference {
            chaos_panic(
                "dsearch",
                "tcp-sharded",
                seed,
                &plan,
                "output differs from reference".into(),
            );
        }
        if let Err(v) = audit.verify_run(&server) {
            chaos_panic(
                "dsearch",
                "tcp-sharded",
                seed,
                &plan,
                format!("invariants violated: {v:?}"),
            );
        }
    }
}
