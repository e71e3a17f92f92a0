//! The scale tier: the nonblocking event-loop control plane under donor
//! counts the thread-per-connection server could never hold.
//!
//! The paper's deployment topped out around a few hundred donors; the
//! event-loop rewrite is specified to hold thousands on a fixed thread
//! count (O(shards), not O(donors)). This tier proves it end-to-end on
//! loopback: a 1k-donor soak across 4 shards with two live problems,
//! checked against the sequential reference digest and the exactly-once
//! audit, with the server's thread count asserted *from the metrics
//! registry* — plus a deterministic case where one shard's only donor
//! goes silent and a donor on the sibling shard finishes the run.

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::Alphabet;
use biodist::core::builtin::integration_problem;
use biodist::core::net::checkpoint::read_log;
use biodist::core::net::wire::{encode_frame, Frame, FrameReader};
use biodist::core::net::{
    directory, raise_nofile_limit, spawn_clients, ClientKit, Clock, LogRecord, NetClientOptions,
    NetServer, NetServerOptions,
};
use biodist::core::{
    audited, CheckpointWriter, FaultPlan, MetricsSnapshot, SchedulerConfig, Server, Telemetry,
};
use biodist::dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One database sequence per unit, so unit counts are predictable and
/// the dispatch plane (not compute) is what's under test.
fn tiny_unit_cfg() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 1e-9,
        min_unit_ops: 1.0,
        lease_min_secs: 0.5,
        prior_ops_per_sec: 2e10,
        ..Default::default()
    }
}

/// Runs `donors` loopback donors against `shards` event-loop shards on
/// two audited dsearch problems; asserts digest parity with the
/// sequential reference, the exactly-once audit, that every shard
/// served connections, and the O(shards) thread count from the metrics
/// registry.
fn soak(donors: usize, shards: usize, db_len: usize) {
    raise_nofile_limit(20_000);
    let cfg = DsearchConfig::protein_default();
    let queries_a = vec![random_sequence(Alphabet::Protein, "qa", 90, 11)];
    let queries_b = vec![random_sequence(Alphabet::Protein, "qb", 110, 13)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(db_len, 70), 9).sequences;
    let ref_a = SearchOutput {
        hits: search_sequential(&db, &queries_a, &cfg),
    }
    .digest();
    let ref_b = SearchOutput {
        hits: search_sequential(&db, &queries_b, &cfg),
    }
    .digest();

    let mut server = Server::new(tiny_unit_cfg());
    server.set_telemetry(Telemetry::enabled());
    let telemetry = server.telemetry();
    let (prob_a, audit_a) = audited(build_problem(db.clone(), queries_a, &cfg));
    let (prob_b, audit_b) = audited(build_problem(db, queries_b, &cfg));
    let pid_a = server.submit(prob_a);
    let pid_b = server.submit(prob_b);

    // Wall-speed clock: donor poll cadence lands at 50ms wall, so a
    // thousand donors probe at ~20k req/s aggregate — a dispatch-plane
    // load, not a compute one.
    let clock = Clock::new(1.0);
    let kit = ClientKit::from_server(&server).expect("codecs registered");
    let net = NetServer::start(server, clock, NetServerOptions { shards })
        .expect("bind loopback listener");
    // Deterministic adoption check: `donors` raw connections each make
    // one heartbeat round trip before the fleet starts, so every shard
    // has provably adopted its share however fast the workload later
    // drains (it can finish before the last fleet donor connects).
    for c in 0..donors {
        let mut s = TcpStream::connect(net.addr()).expect("connect for handshake");
        s.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut r = FrameReader::new();
        s.write_all(&encode_frame(&Frame::Heartbeat { client: c as u64 }))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match r.poll(&mut s) {
                Ok(Some(Frame::HeartbeatAck)) => break,
                Ok(Some(_)) | Ok(None) => {}
                Err(e) => panic!("heartbeat round trip for donor {c}: {e}"),
            }
            assert!(
                std::time::Instant::now() < deadline,
                "donor {c} never got a heartbeat ack"
            );
        }
    }

    // Donors straight at the server, as every TCP run wires them.
    let dir = directory();
    dir.set_origin(Some(net.addr()));
    let run_over = Arc::new(AtomicBool::new(false));
    let handles = spawn_clients(
        dir,
        clock,
        kit,
        donors,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );
    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }

    // Digest parity against the fault-free sequential reference.
    let out_a = server
        .take_output(pid_a)
        .unwrap()
        .into_inner::<SearchOutput>();
    let out_b = server
        .take_output(pid_b)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(out_a.digest(), ref_a, "problem A diverged from reference");
    assert_eq!(out_b.digest(), ref_b, "problem B diverged from reference");
    // Exactly-once: every unit folded once, none lost, none doubled.
    audit_a.verify_run(&server).expect("audit A clean");
    audit_b.verify_run(&server).expect("audit B clean");

    let snap = telemetry.metrics_snapshot();
    assert_eq!(
        snap.gauge("evloop.threads"),
        Some(shards as f64),
        "server thread count must be O(shards): {shards} shards, shard 0 accepting and ticking"
    );
    // Shard 0 dealt the connections across every shard (the
    // handshakes alone make `donors`; the fleet's come on top).
    let adopted: Vec<f64> = (0..shards)
        .map(|s| snap.gauge(&format!("shard.s{s}.conns")).unwrap_or(0.0))
        .collect();
    assert!(
        adopted.iter().all(|&n| n >= 1.0) && adopted.iter().sum::<f64>() >= donors as f64,
        "every shard serves connections: {adopted:?}"
    );
    assert!(
        snap.counter("net.frames_in") > 0,
        "the event loop actually served traffic"
    );
}

/// The headline soak: 1000 loopback donors, 4 shards, two problems.
#[test]
fn thousand_donor_soak_is_exactly_once_across_4_shards() {
    soak(1000, 4, 160);
}

/// CI-sized soak (the `scale-smoke` job filters on `smoke`).
#[test]
fn scale_smoke_64_donors_2_shards() {
    soak(64, 2, 120);
}

/// A silent donor on one shard cannot strand the run: donor 0 (first
/// connection, shard 0) takes one unit, then goes silent. Donor 1
/// (second connection, shard 1) must finish everything else and the
/// silent donor's unit too, once the liveness sweep reclaims its lease.
/// Exactly-once still holds.
#[test]
fn silent_donor_on_one_shard_cannot_strand_the_run() {
    let cfg = DsearchConfig::protein_default();
    let queries = vec![random_sequence(Alphabet::Protein, "q", 80, 5)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(24, 60), 2).sequences;
    let reference = SearchOutput {
        hits: search_sequential(&db, &queries, &cfg),
    }
    .digest();

    let mut server = Server::new(tiny_unit_cfg());
    server.set_telemetry(Telemetry::enabled());
    let telemetry = server.telemetry();
    let (problem, audit) = audited(build_problem(db, queries, &cfg));
    let pid = server.submit(problem);
    let algorithm = server.algorithm(pid);
    let codec = server.codec(pid).expect("dsearch has a codec");
    let clock = Clock::new(1000.0);
    let net = NetServer::start(server, clock, NetServerOptions { shards: 2 })
        .expect("bind loopback listener");

    let await_frame = |stream: &mut TcpStream, reader: &mut FrameReader| loop {
        match reader.poll(stream) {
            Ok(Some(f)) => return f,
            Ok(None) => {}
            Err(e) => panic!("read failed: {e}"),
        }
    };

    // Donor 0: request exactly one unit, then never speak again.
    let mut silent = TcpStream::connect(net.addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut silent_reader = FrameReader::new();
    silent
        .write_all(&encode_frame(&Frame::Hello { client: 0 }))
        .unwrap();
    silent
        .write_all(&encode_frame(&Frame::RequestWork { client: 0 }))
        .unwrap();
    loop {
        match await_frame(&mut silent, &mut silent_reader) {
            Frame::AssignUnit { .. } => break,
            Frame::Wait => {
                silent
                    .write_all(&encode_frame(&Frame::RequestWork { client: 0 }))
                    .unwrap();
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // Donor 1 (shard 1) drives the run to completion alone.
    let mut stream = TcpStream::connect(net.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut reader = FrameReader::new();
    stream
        .write_all(&encode_frame(&Frame::Hello { client: 1 }))
        .unwrap();
    loop {
        stream
            .write_all(&encode_frame(&Frame::RequestWork { client: 1 }))
            .unwrap();
        match await_frame(&mut stream, &mut reader) {
            Frame::AssignUnit {
                problem,
                unit,
                cost_ops,
                payload,
            } => {
                let wu = biodist::core::problem::WorkUnit {
                    id: unit,
                    payload: codec.decode_unit(&payload).unwrap(),
                    cost_ops,
                };
                let result = algorithm.compute(&wu);
                let encoded = codec.encode_result(&result.payload).unwrap();
                stream
                    .write_all(&encode_frame(&Frame::SubmitResult {
                        client: 1,
                        problem,
                        unit,
                        payload: encoded,
                    }))
                    .unwrap();
                match await_frame(&mut stream, &mut reader) {
                    Frame::ResultAck { .. } => {}
                    other => panic!("expected an ack, got {other:?}"),
                }
            }
            Frame::Wait => std::thread::sleep(Duration::from_millis(1)),
            Frame::Finished => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }

    let mut server = net.wait();
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(
        out.digest(),
        reference,
        "the reclaimed unit folds correctly"
    );
    audit
        .verify_run(&server)
        .expect("exactly-once holds across the reclaim");
    assert!(
        server.stats(pid).reissued_units >= 1,
        "the silent donor's unit went back out"
    );
    let snap = telemetry.metrics_snapshot();
    for s in 0..2 {
        assert_eq!(
            snap.gauge(&format!("shard.s{s}.conns")),
            Some(1.0),
            "one donor per shard"
        );
    }
}

/// What a journal holds, by record kind (a turn's as the unit records
/// it carries).
#[derive(Default)]
struct Records {
    issues: u64,
    results: u64,
    donors: u64,
}

/// One donor against one shard with the write-ahead journal and
/// telemetry on: `units` fixed 1e4-op units of the π integration.
/// Checks the output and the exactly-once audit and returns the run's
/// counters and its log's records by kind. The log holds, besides the
/// units' own records, a `Donors` snapshot for about every 100 ms the
/// run lasted, each a commit of its own.
fn journaled_run(units: u64) -> (MetricsSnapshot, Records) {
    // One log per run: the harness runs this file's tests side by side.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let log = std::env::temp_dir().join(format!(
        "biodist-scale-journal-{}-{run}.log",
        std::process::id()
    ));
    let mut server = Server::new(SchedulerConfig {
        min_unit_ops: 1e4,
        max_unit_ops: 1e4,
        lease_min_secs: 30.0,
        ..Default::default()
    });
    server.set_telemetry(Telemetry::enabled());
    let telemetry = server.telemetry();
    // 200 ops a grid point: 50 points make one 1e4-op unit.
    let (problem, audit) = audited(integration_problem(50 * units));
    let pid = server.submit(problem);
    let writer = CheckpointWriter::create(&log)
        .expect("create journal")
        .with_telemetry(telemetry.clone());
    server.set_journal(Box::new(writer));
    let kit = ClientKit::from_server(&server).expect("codecs registered");
    let clock = Clock::new(1.0);
    let opts = NetServerOptions { shards: 1 };
    let net = NetServer::start(server, clock, opts).expect("bind server");
    let dir = directory();
    dir.set_origin(Some(net.addr()));
    let run_over = Arc::new(AtomicBool::new(false));
    let handles = spawn_clients(
        dir,
        clock,
        kit,
        1,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );
    let mut server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("donor thread");
    }
    let (logged, torn) = read_log(&log).expect("read journal");
    let _ = std::fs::remove_file(&log);
    assert!(!torn, "a finished run leaves no torn tail");
    let mut records = Records::default();
    for record in &logged {
        *match record {
            LogRecord::Issue { .. } => &mut records.issues,
            LogRecord::Result { .. } => &mut records.results,
            LogRecord::Donors(_) => &mut records.donors,
        } += 1;
    }
    assert_eq!(server.stats(pid).completed_units, units);
    audit.verify_run(&server).expect("exactly-once audit clean");
    let pi = server.take_output(pid).unwrap().into_inner::<f64>();
    assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
    let snap = telemetry.metrics_snapshot();
    // (Shown with `--nocapture`: the hand-read numbers of EXPERIMENTS.md.)
    eprintln!(
        "{units} units: client_writes {} frames_in {} frames_out {} pumps {} \
         ckpt.commits {} ckpt.records {} (donors {}) resubmits {} compute_runs {}",
        snap.counter("net.client_writes"),
        snap.counter("net.frames_in"),
        snap.counter("net.frames_out"),
        snap.counter("net.pumps"),
        snap.counter("ckpt.commits"),
        snap.counter("ckpt.records"),
        records.donors,
        snap.counter("net.resubmits"),
        snap.counter("net.compute_runs"),
    );
    assert_eq!(
        snap.counter("ckpt.records"),
        records.issues + records.results + records.donors,
        "the counter counts what the log holds"
    );
    (snap, records)
}

/// The control plane's budget, gated: with microsecond units the
/// donor's writes, the frames each way (a turn carries a round trip's
/// results, its reply a round trip's units) and the journal's commits
/// are paid per round trip, not per unit. The budgets are the ones
/// that held in every recorded run (EXPERIMENTS.md, PR 17 and PR 20),
/// including those where donor and origin ran on different CPUs: there
/// the two overlap, the donor's exposed wait is only what it could not
/// overlap, and the depth it derives settles near 10 instead of 64.
/// The journal's commits include its periodic `Donors` snapshots.
/// (That millisecond units do not batch — every result leaves before
/// the next compute, in a turn of one — is checked step by step,
/// without a stopwatch, by `client.rs`'s scripted-origin test
/// `steady_state_at_depth_two_is_one_turn_of_one_per_unit`.)
#[test]
fn control_plane_syscalls_are_paid_per_round_trip_not_per_unit() {
    const UNITS: u64 = 20_000;
    let (snap, records) = journaled_run(UNITS);
    let count = |name: &str| snap.counter(name);
    assert!(
        count("net.client_writes") <= UNITS / 4,
        "{} donor writes for {UNITS} units",
        count("net.client_writes")
    );
    for frames in ["net.frames_in", "net.frames_out"] {
        assert!(
            count(frames) <= UNITS / 4,
            "{frames} {} for {UNITS} units",
            count(frames)
        );
    }
    assert!(
        count("ckpt.commits") <= UNITS / 4,
        "{} journal writes for {UNITS} units",
        count("ckpt.commits")
    );
    assert_eq!(
        (records.issues, records.results),
        (UNITS, UNITS),
        "an issue and a result each"
    );
    assert_eq!(count("ckpt.write_errors"), 0);
    assert_eq!(count("net.resubmits"), 0);
}

/// What the 256-deep ceiling buys, beside the floor above (same run,
/// tighter budget): a round trip carries *hundreds* of units, so the
/// donor's writes, the frames each way and the journal's writes are
/// each under one per 64 units (≈ 1 per 61 at a ceiling of 64, ≈ 1 per
/// 210–230 at 256: EXPERIMENTS.md, PR 24) — with the journal still
/// holding an issue and a result for every unit, and no donor ever
/// asking for more than the ceiling.
#[test]
fn a_round_trip_carries_hundreds_of_units() {
    const UNITS: u64 = 20_000;
    let (snap, records) = journaled_run(UNITS);
    let per_round_trip = [
        "net.client_writes",
        "net.frames_in",
        "net.frames_out",
        "ckpt.commits",
    ];
    for name in per_round_trip {
        let n = snap.counter(name);
        assert!(n <= UNITS / 64, "{name} {n} for {UNITS} units");
    }
    // The donor computes what a turn brought in runs, not one unit at
    // a time.
    let runs = snap.counter("net.compute_runs");
    assert!(
        runs > 0 && runs <= UNITS / 16,
        "{runs} compute runs for {UNITS} units"
    );
    assert_eq!((records.issues, records.results), (UNITS, UNITS));
    assert_eq!(snap.counter("net.turn_want_clamped"), 0);
}
