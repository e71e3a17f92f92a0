//! Crash-recovery over real sockets: kill the TCP server mid-run,
//! recover it from its checkpoint log, restart it on a fresh port, and
//! let the *same* donor clients reconnect and finish the job.
//!
//! This is the robustness story end-to-end: the server's append-only
//! journal (unit issues + folded results) is the only thing that
//! survives the kill — every donor comes back to the recovered server
//! as one that has just joined — and the
//! recovered run must complete without recombining any already-folded
//! unit — checked by the exactly-once audit — and still reproduce the
//! fault-free sequential digest.

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::Alphabet;
use biodist::core::builtin::integration_problem;
use biodist::core::net::{
    directory, spawn_clients, ClientKit, Clock, NetClientOptions, NetServer, NetServerOptions,
};
use biodist::core::{
    audited, recover, Algorithm, CheckpointWriter, FaultPlan, SchedulerConfig, Server, TaskResult,
    Telemetry, WorkUnit,
};
use biodist::dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const POOL: usize = 4;
const TIME_SCALE: f64 = 50.0;

fn temp_log(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "biodist-netrec-{tag}-{}-{n}.log",
        std::process::id()
    ))
}

/// One database sequence per unit → ~200 units, so the kill reliably
/// lands mid-run and the recovered server has real work left.
fn tiny_unit_cfg() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 1e-9,
        min_unit_ops: 1.0,
        lease_min_secs: 0.5,
        prior_ops_per_sec: 2e10,
        ..Default::default()
    }
}

#[test]
fn kill_tcp_server_mid_run_recover_and_finish() {
    // Workload + fault-free sequential reference.
    let queries = vec![random_sequence(Alphabet::Protein, "q", 100, 3)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(200, 80), 4).sequences;
    let cfg = DsearchConfig::protein_default();
    let reference = SearchOutput {
        hits: search_sequential(&db, &queries, &cfg),
    }
    .digest();

    let log = temp_log("kill-restart");
    let clock = Clock::new(TIME_SCALE);

    // ---- first life: journal everything, then die mid-run ----------
    let mut server = Server::new(tiny_unit_cfg());
    let pid = server.submit(build_problem(db.clone(), queries.clone(), &cfg));
    let writer = CheckpointWriter::create(&log).expect("create checkpoint log");
    server.set_journal(Box::new(writer));
    let net =
        NetServer::start(server, clock, NetServerOptions::default()).expect("bind first server");

    // Clients find the server through the directory; after the restart
    // the same entry points at the new port and they reconnect.
    let dir = directory();
    dir.set_origin(Some(net.addr()));
    let run_over = Arc::new(AtomicBool::new(false));
    let kit = net
        .with_server(|s| ClientKit::from_server(s).expect("codecs registered"))
        .expect("server alive");
    let handles = spawn_clients(
        dir.clone(),
        clock,
        kit,
        POOL,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );

    // Let real progress accumulate, then pull the plug mid-run.
    let deadline = Instant::now() + Duration::from_secs(30);
    let progress_at_kill = loop {
        let completed = net
            .with_server(|s| s.stats(pid).completed_units)
            .expect("server alive");
        if completed >= 20 {
            break completed;
        }
        assert!(Instant::now() < deadline, "no progress before kill");
        std::thread::sleep(Duration::from_micros(200));
    };
    let was_complete = net.with_server(|s| s.all_complete()).unwrap();
    dir.set_origin(None); // server gone from the directory
    net.kill(); // in-memory state dies; only the log survives
    assert!(!was_complete, "kill must land mid-run");

    // ---- second life: recover from the log, serve on a new port ----
    let (problem, audit) = audited(build_problem(db, queries, &cfg));
    let (mut server, report) =
        recover(tiny_unit_cfg(), vec![problem], &log).expect("recover from checkpoint log");
    assert!(
        report.replayed_results >= progress_at_kill,
        "every completion seen before the kill must replay from the log \
         ({} replayed, {progress_at_kill} seen)",
        report.replayed_results
    );
    assert!(
        !server.all_complete(),
        "recovered server must still have work"
    );
    let completed_at_recovery = server.stats(pid).completed_units;

    let writer = CheckpointWriter::append(&log).expect("reopen checkpoint log");
    server.set_journal(Box::new(writer));
    let net =
        NetServer::start(server, clock, NetServerOptions::default()).expect("bind second server");
    dir.set_origin(Some(net.addr())); // clients reconnect here

    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("client thread");
    }

    // ---- verdict ----------------------------------------------------
    let stats = server.stats(pid);
    assert!(
        stats.completed_units > completed_at_recovery,
        "clients must have finished live work after the restart: {stats:?}"
    );
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(
        out.digest(),
        reference,
        "recovered run must reproduce the sequential reference exactly"
    );
    audit
        .verify_run(&server)
        .expect("exactly-once invariants hold across the crash");

    let _ = std::fs::remove_file(&log);
}

#[test]
fn recovery_survives_a_second_crash() {
    let queries = vec![random_sequence(Alphabet::Protein, "q", 90, 5)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(160, 80), 6).sequences;
    let cfg = DsearchConfig::protein_default();
    let reference = SearchOutput {
        hits: search_sequential(&db, &queries, &cfg),
    }
    .digest();

    let log = temp_log("double-crash");
    let clock = Clock::new(TIME_SCALE);
    let dir = directory();
    let run_over = Arc::new(AtomicBool::new(false));

    // Life 1.
    let mut server = Server::new(tiny_unit_cfg());
    let pid = server.submit(build_problem(db.clone(), queries.clone(), &cfg));
    let writer = CheckpointWriter::create(&log).unwrap();
    server.set_journal(Box::new(writer));
    let kit = ClientKit::from_server(&server).unwrap();
    let net = NetServer::start(server, clock, NetServerOptions::default()).unwrap();
    dir.set_origin(Some(net.addr()));
    let handles = spawn_clients(
        dir.clone(),
        clock,
        kit,
        POOL,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );

    let kill_after = |net: NetServer, threshold: u64| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let completed = net.with_server(|s| s.stats(pid).completed_units).unwrap();
            if completed >= threshold {
                break;
            }
            assert!(Instant::now() < deadline, "no progress before kill");
            std::thread::sleep(Duration::from_micros(200));
        }
        dir.set_origin(None);
        net.kill();
    };
    kill_after(net, 10);

    // Life 2: recover, run a bit more, die again.
    let (problem, _audit) = audited(build_problem(db.clone(), queries.clone(), &cfg));
    let (mut server, report1) = recover(tiny_unit_cfg(), vec![problem], &log).unwrap();
    assert!(report1.replayed_results >= 10);
    let resumed_from = server.stats(pid).completed_units;
    let writer = CheckpointWriter::append(&log).unwrap();
    server.set_journal(Box::new(writer));
    let net = NetServer::start(server, clock, NetServerOptions::default()).unwrap();
    dir.set_origin(Some(net.addr()));
    kill_after(net, resumed_from + 10);

    // Life 3: recover once more and finish.
    let (problem, audit) = audited(build_problem(db, queries, &cfg));
    let (mut server, report2) = recover(tiny_unit_cfg(), vec![problem], &log).unwrap();
    assert!(
        report2.replayed_results > report1.replayed_results,
        "second-generation journal entries must replay too"
    );
    let writer = CheckpointWriter::append(&log).unwrap();
    server.set_journal(Box::new(writer));
    let net = NetServer::start(server, clock, NetServerOptions::default()).unwrap();
    dir.set_origin(Some(net.addr()));

    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("client thread");
    }

    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(out.digest(), reference);
    audit
        .verify_run(&server)
        .expect("audit clean after two crashes");

    let _ = std::fs::remove_file(&log);
}

/// Connections each of two shards has adopted so far.
fn adopted(telemetry: &Telemetry) -> [f64; 2] {
    let snap = telemetry.metrics_snapshot();
    [0, 1].map(|s| snap.gauge(&format!("shard.s{s}.conns")).unwrap_or(0.0))
}

/// Kill-and-recover with connection I/O sharded: shard 0 deals
/// the donors across both shards in the first life, the server dies
/// mid-run, and the restarted (recovered) server — also sharded —
/// adopts the reconnecting donors while the checkpoint replay keeps
/// the run exactly-once. Both lives are asserted from the per-shard
/// `shard.s<i>.conns` gauges in the metrics registry.
#[test]
fn kill_sharded_tcp_server_recover_and_readopt() {
    use biodist::core::NetServerOptions as Opts;
    let queries = vec![random_sequence(Alphabet::Protein, "q", 100, 5)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(200, 80), 6).sequences;
    let cfg = DsearchConfig::protein_default();
    let reference = SearchOutput {
        hits: search_sequential(&db, &queries, &cfg),
    }
    .digest();

    let log = temp_log("kill-sharded");
    let clock = Clock::new(TIME_SCALE);

    // ---- first life: 2 shards, journal everything, die mid-run ------
    let mut server = Server::new(tiny_unit_cfg());
    server.set_telemetry(Telemetry::enabled());
    let tel1 = server.telemetry();
    let pid = server.submit(build_problem(db.clone(), queries.clone(), &cfg));
    let writer = CheckpointWriter::create(&log).expect("create checkpoint log");
    server.set_journal(Box::new(writer));
    let net =
        NetServer::start(server, clock, NetServerOptions { shards: 2 }).expect("bind first server");

    let dir = directory();
    dir.set_origin(Some(net.addr()));
    let run_over = Arc::new(AtomicBool::new(false));
    let kit = net
        .with_server(|s| ClientKit::from_server(s).expect("codecs registered"))
        .expect("server alive");
    let handles = spawn_clients(
        dir.clone(),
        clock,
        kit,
        POOL,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );

    // Progress plus full adoption: all four donors must be connected
    // before the plug is pulled.
    let deadline = Instant::now() + Duration::from_secs(30);
    let progress_at_kill = loop {
        let completed = net
            .with_server(|s| s.stats(pid).completed_units)
            .expect("server alive");
        if completed >= 20 && adopted(&tel1).iter().sum::<f64>() >= POOL as f64 {
            break completed;
        }
        assert!(Instant::now() < deadline, "no progress before kill");
        std::thread::sleep(Duration::from_micros(200));
    };
    {
        let conns = adopted(&tel1);
        assert!(
            conns.iter().all(|&n| n >= 1.0),
            "both shards serve: {conns:?}"
        );
        let snap = tel1.metrics_snapshot();
        assert_eq!(snap.gauge("evloop.threads"), Some(2.0), "2 shards");
    }
    dir.set_origin(None);
    net.kill();

    // ---- second life: recover, restart sharded, donors reconnect ----
    let (problem, audit) = audited(build_problem(db, queries, &cfg));
    let (mut server, report) =
        recover(tiny_unit_cfg(), vec![problem], &log).expect("recover from checkpoint log");
    assert!(
        report.replayed_results >= progress_at_kill,
        "checkpoint replay lost completions"
    );
    assert!(!server.all_complete(), "recovered server must have work");
    server.set_telemetry(Telemetry::enabled());
    let tel2 = server.telemetry();
    let writer = CheckpointWriter::append(&log).expect("reopen checkpoint log");
    server.set_journal(Box::new(writer));
    let net = NetServer::start(server, clock, Opts { shards: 2 }).expect("bind second server");
    dir.set_origin(Some(net.addr()));

    // The same donor threads reconnect to the new port.
    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("client thread");
    }

    assert!(
        adopted(&tel2).iter().sum::<f64>() >= 1.0,
        "at least one donor reconnected and finished the run"
    );
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(
        out.digest(),
        reference,
        "sharded recovery reproduces the reference"
    );
    audit
        .verify_run(&server)
        .expect("exactly-once invariants hold across the sharded crash");

    let _ = std::fs::remove_file(&log);
}

/// A donor's computation with a gate on its second unit: the unit's
/// compute starts, reports that it is in there, and does not return
/// until the test lets it.
struct GatedAlgorithm {
    inner: Arc<dyn Algorithm>,
    computes: AtomicU64,
    inside: AtomicBool,
    hold: AtomicBool,
}

impl Algorithm for GatedAlgorithm {
    fn compute(&self, unit: &WorkUnit) -> TaskResult {
        if self.computes.fetch_add(1, Ordering::SeqCst) == 1 {
            self.inside.store(true, Ordering::SeqCst);
            while self.hold.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        self.inner.compute(unit)
    }
}

/// Kill the TCP server while a pipelined donor holds two results it has
/// no ack for. The lone donor submits its first unit and is then held
/// inside its second compute while the server — which has journaled the
/// first result and answered it, unread — dies. Whichever way the dead
/// connection then fails (the write of the second result, the read
/// after it, or only after the buffered replies let a third unit
/// through), the donor reaches the recovered server with exactly two
/// unacknowledged results and resubmits each once: a result the log
/// already holds is refused as a duplicate, one it never saw folds from
/// the reissue queue, and the run audits exactly once.
#[test]
fn kill_tcp_server_with_two_unacked_results_in_flight() {
    let cfg = || SchedulerConfig {
        min_unit_ops: 2e6,
        max_unit_ops: 2e6,
        ..Default::default()
    };
    let points = 300_000;
    let log = temp_log("two-unacked");
    let clock = Clock::new(TIME_SCALE);
    let dir = directory();
    let run_over = Arc::new(AtomicBool::new(false));

    // ---- life 1: one gated donor, pipeline depth 2 ------------------
    let telemetry = Telemetry::enabled();
    let mut problem = integration_problem(points);
    let gate = Arc::new(GatedAlgorithm {
        inner: problem.algorithm.clone(),
        computes: AtomicU64::new(0),
        inside: AtomicBool::new(false),
        hold: AtomicBool::new(true),
    });
    problem.algorithm = gate.clone();
    let mut server = Server::new(cfg());
    server.set_telemetry(telemetry.clone());
    let pid = server.submit(problem);
    let writer = CheckpointWriter::create(&log).expect("create checkpoint log");
    server.set_journal(Box::new(writer));
    let kit = ClientKit::from_server(&server).expect("codecs registered");
    let net =
        NetServer::start(server, clock, NetServerOptions::default()).expect("bind first server");
    dir.set_origin(Some(net.addr()));
    let handles = spawn_clients(
        dir.clone(),
        clock,
        kit,
        1,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );

    // The first result is folded and journaled, the second unit is
    // being computed: pull the plug.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !gate.inside.load(Ordering::SeqCst)
        || net.with_server(|s| s.stats(pid).completed_units) != Some(1)
    {
        assert!(
            Instant::now() < deadline,
            "donor never reached its second unit"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    dir.set_origin(None);
    net.kill();

    // ---- life 2: recover, restart, release the donor ----------------
    let (problem, audit) = audited(integration_problem(points));
    let (mut server, report) = recover(cfg(), vec![problem], &log).expect("recover from log");
    assert_eq!(report.replayed_results, 1, "one result reached the log");
    let writer = CheckpointWriter::append(&log).expect("reopen checkpoint log");
    server.set_journal(Box::new(writer));
    let net =
        NetServer::start(server, clock, NetServerOptions::default()).expect("bind second server");
    dir.set_origin(Some(net.addr()));
    gate.hold.store(false, Ordering::SeqCst);

    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("client thread");
    }

    assert_eq!(
        telemetry.metrics_snapshot().counter("net.resubmits"),
        2,
        "both unacknowledged results are resubmitted, once each"
    );
    let stats = server.stats(pid);
    assert!(
        stats.wasted_results <= 1,
        "at most the journaled result is refused as a duplicate: {stats:?}"
    );
    let pi = server.take_output(pid).unwrap().into_inner::<f64>();
    assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
    audit
        .verify_run(&server)
        .expect("exactly-once invariants hold with results in flight across the crash");

    let _ = std::fs::remove_file(&log);
}

/// A journal that lets the run go until one turn has folded `GATE_AT`
/// results, then holds that turn where it is — inside the server —
/// until the test is killing the server, so that the kill finds the
/// whole turn unanswered and unwritten.
struct TurnGate {
    inner: CheckpointWriter,
    folded_this_turn: u64,
    gated: bool,
    inside: Arc<AtomicBool>,
    killing: Arc<AtomicBool>,
    /// Results the gated turn carried, known once it has ended.
    carried: Arc<AtomicU64>,
}

const GATE_AT: u64 = 200;

use biodist::core::RunJournal;

impl RunJournal for TurnGate {
    fn unit_issued(&mut self, problem: usize, unit: &WorkUnit, hint_ops: f64) {
        self.inner.unit_issued(problem, unit, hint_ops);
    }
    fn result_folded(&mut self, problem: usize, unit: u64, encoded: &[u8]) {
        self.folded_this_turn += 1;
        if !self.gated && self.folded_this_turn == GATE_AT {
            self.gated = true;
            self.inside.store(true, Ordering::SeqCst);
            while !self.killing.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            // `kill()` raises its flags in its first two instructions,
            // right behind `killing`, and then waits for this turn.
            std::thread::sleep(Duration::from_millis(250));
        }
        self.inner.result_folded(problem, unit, encoded);
    }
    fn begin_turn(&mut self) {
        self.folded_this_turn = 0;
        self.inner.begin_turn();
    }
    fn end_turn(&mut self) {
        if self.gated && self.carried.load(Ordering::SeqCst) == 0 {
            self.carried.store(self.folded_this_turn, Ordering::SeqCst);
        }
        self.inner.end_turn();
    }
    fn commit(&mut self) {
        RunJournal::commit(&mut self.inner);
    }
    fn discard(&mut self) {
        RunJournal::discard(&mut self.inner);
    }
}

/// Kill the TCP server while a full-depth turn is unanswered: a lone
/// donor of microsecond units has measured its way to the pipeline
/// ceiling, and the server dies inside a turn that carries at least
/// 200 results — none of them journaled (the turn's group is
/// discarded), none acknowledged. The donor reaches the recovered
/// server with those results unacknowledged — and whatever it computed
/// behind that turn from what it still held, a pipeline's worth in all
/// at most — and resubmits each once; they fold from the reissue
/// queue, and the run audits exactly once. What a lost connection
/// costs at the ceiling is one pipeline: 256 units, well under a
/// millisecond of compute.
#[test]
fn kill_tcp_server_with_a_full_depth_turn_in_flight() {
    const UNITS: u64 = 20_000;
    let cfg = || SchedulerConfig {
        min_unit_ops: 1e4, // 50 grid points: microseconds of compute
        max_unit_ops: 1e4,
        lease_min_secs: 30.0,
        ..Default::default()
    };
    let log = temp_log("full-depth-turn");
    // (Wall time: the donor's 2 s ack timeout must outlast the gate.)
    let clock = Clock::new(1.0);
    let dir = directory();
    let run_over = Arc::new(AtomicBool::new(false));

    // ---- life 1: one donor, until a turn of ≥ 200 results -----------
    let telemetry = Telemetry::enabled();
    let mut server = Server::new(cfg());
    server.set_telemetry(telemetry.clone());
    let pid = server.submit(integration_problem(50 * UNITS));
    let (inside, killing, carried) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicU64::new(0)),
    );
    server.set_journal(Box::new(TurnGate {
        inner: CheckpointWriter::create(&log).expect("create checkpoint log"),
        folded_this_turn: 0,
        gated: false,
        inside: inside.clone(),
        killing: killing.clone(),
        carried: carried.clone(),
    }));
    let kit = ClientKit::from_server(&server).expect("codecs registered");
    let opts = || NetServerOptions { shards: 1 };
    let net = NetServer::start(server, clock, opts()).expect("bind first server");
    dir.set_origin(Some(net.addr()));
    let handles = spawn_clients(
        dir.clone(),
        clock,
        kit,
        1,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while !inside.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < deadline,
            "no turn carried {GATE_AT} results"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    dir.set_origin(None);
    killing.store(true, Ordering::SeqCst);
    net.kill();
    let carried = carried.load(Ordering::SeqCst);
    assert!(carried >= GATE_AT, "the gated turn ended with {carried}");

    // ---- life 2: recover, restart, let the donor find it ------------
    let (problem, audit) = audited(integration_problem(50 * UNITS));
    let (mut server, report) = recover(cfg(), vec![problem], &log).expect("recover from log");
    assert!(!report.torn_tail);
    assert!(
        report.replayed_results + carried <= UNITS,
        "the killed turn left no record: {report:?}"
    );
    let writer = CheckpointWriter::append(&log).expect("reopen checkpoint log");
    server.set_journal(Box::new(writer));
    let net = NetServer::start(server, clock, opts()).expect("bind second server");
    dir.set_origin(Some(net.addr()));

    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("client thread");
    }
    let resubmits = telemetry.metrics_snapshot().counter("net.resubmits");
    let ceiling = biodist::core::net::wire::MAX_PIPELINE_DEPTH as u64;
    assert!(
        (carried..=ceiling).contains(&resubmits),
        "{resubmits} resubmitted: what the lost turn carried ({carried}) and what was \
         computed behind it, once each, within the ceiling"
    );
    let stats = server.stats(pid);
    assert_eq!(stats.completed_units, UNITS);
    assert_eq!(stats.wasted_results, 0, "none of it had reached the log");
    let pi = server.take_output(pid).unwrap().into_inner::<f64>();
    assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
    audit
        .verify_run(&server)
        .expect("exactly-once invariants hold with a full turn in flight across the crash");

    let _ = std::fs::remove_file(&log);
}
