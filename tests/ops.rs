//! Ops-plane integration suite: wire-correlated spans, donor metrics
//! shipping, the streaming straggler detector and the live status view,
//! exercised end-to-end on the simulator and over real loopback TCP.
//!
//! The acceptance scenario (ISSUE 9): on a seeded chaos plan with two
//! planted 10× stragglers in a 16-donor pool, the straggler detector flags
//! exactly the planted pair, live-armed speculative re-issue beats the
//! detector-off makespan on the same plan, and every completed unit's
//! trace carries a four-phase breakdown that telescopes to its span.

use biodist::core::builtin::integration_problem;
use biodist::core::net::wire::{encode_frame, Frame, FrameReader, ReadError};
use biodist::core::net::{spawn_clients, ClientKit, Clock};
use biodist::core::{
    phase_breakdowns, run_tcp_faulty, verify_spans, Assignment, Directory, EventKind, FaultKind,
    FaultPlan, NetClientOptions, NetServer, NetServerOptions, SchedulerConfig, Server, SimRunner,
    StatusSnapshot, Telemetry, TraceEvent,
};
use biodist::gridsim::machine::{AvailabilityModel, Machine};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fully dedicated homogeneous pool (no owner-activity noise), so
/// health observations isolate the *planted* faults.
fn dedicated_pool(n: usize) -> Vec<Machine> {
    (0..n)
        .map(|id| Machine::new(id, "PIII-1000", 1.0e7, AvailabilityModel::dedicated(), 7))
        .collect()
}

fn tcp_cfg() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.05,
        prior_ops_per_sec: 2e9,
        min_unit_ops: 1e4,
        max_unit_ops: 1e7,
        lease_min_secs: 1.0,
        ..Default::default()
    }
}

/// Validates the span invariant, checks every chain's phases are sane
/// (non-negative, positive compute, finite) and that the four phases
/// telescope from issue to combine. Returns (chains, incomplete).
fn check_phases(events: &[TraceEvent]) -> (usize, u64) {
    verify_spans(events).unwrap_or_else(|e| panic!("span invariant violated: {e}"));
    let (phases, incomplete) = phase_breakdowns(events);
    // Find each chain's combine time independently, to confirm the
    // telescoping identity against the raw trace rather than trusting
    // `span()`'s arithmetic.
    for p in &phases {
        assert!(
            p.transfer >= 0.0 && p.queue_wait >= 0.0 && p.compute > 0.0 && p.combine >= 0.0,
            "phases must be non-negative with positive compute: {p:?}"
        );
        let combined_at = events
            .iter()
            .find(|e| {
                matches!(
                    &e.kind,
                    EventKind::UnitCombined { problem, unit, .. }
                        if *problem == p.problem && *unit == p.unit
                )
            })
            .map(|e| e.t)
            .expect("every chain ends in a combine");
        assert!(
            (p.issued_at + p.span() - combined_at).abs() < 1e-6,
            "four phases must telescope to the issue→combine span: {p:?} vs {combined_at}"
        );
    }
    (phases.len(), incomplete)
}

fn combined_count(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::UnitCombined { .. }))
        .count()
}

// ------------------------------------------------- structural parity

#[test]
fn phase_breakdowns_agree_structurally_across_backends() {
    // Simulator: virtual donors, virtual wire.
    let mut server = Server::new(SchedulerConfig::default());
    server.submit(integration_problem(20_000_000));
    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(1 << 20);
    server.set_telemetry(telemetry);
    SimRunner::with_defaults(server, dedicated_pool(4)).run();
    let sim_events = ring.events();
    let (sim_chains, sim_incomplete) = check_phases(&sim_events);

    // TCP: real sockets, real compute, scaled clock.
    let mut server = Server::new(tcp_cfg());
    server.submit(integration_problem(400_000));
    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(1 << 20);
    server.set_telemetry(telemetry);
    run_tcp_faulty(server, 4, &FaultPlan::none(), 20.0);
    let tcp_events = ring.events();
    let (tcp_chains, tcp_incomplete) = check_phases(&tcp_events);

    // Structural parity: both backends produce a complete four-phase
    // chain for every combined unit, with nothing unaccounted for.
    assert!(sim_chains > 0 && tcp_chains > 0);
    assert_eq!(sim_incomplete, 0, "fault-free sim leaves no broken chains");
    assert_eq!(tcp_incomplete, 0, "fault-free TCP leaves no broken chains");
    assert_eq!(sim_chains, combined_count(&sim_events));
    assert_eq!(tcp_chains, combined_count(&tcp_events));
}

// ------------------------------------------------------- chaos: spans

#[test]
fn spans_stay_complete_when_a_donor_crashes_mid_compute_sim() {
    let mut server = Server::new(SchedulerConfig::default());
    server.submit(integration_problem(40_000_000));
    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(1 << 20);
    server.set_telemetry(telemetry);
    // Crash donor 1 early (mid-first-unit) and donor 2 later; both
    // rejoin after a reboot window.
    let plan = FaultPlan::new(0)
        .with(20.0, 1, FaultKind::Crash { down_secs: 90.0 })
        .with(130.0, 2, FaultKind::Crash { down_secs: 60.0 });
    SimRunner::with_defaults(server, dedicated_pool(4))
        .with_faults(plan)
        .run();
    let events = ring.events();
    let crashes = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MachineCrashed { .. }))
        .count();
    assert!(
        crashes >= 2,
        "both planted crashes must appear in the trace"
    );
    // The invariant under test: every compute sub-span the crash
    // orphaned is closed (client-wide) and the surviving chains still
    // telescope.
    let (chains, _incomplete) = check_phases(&events);
    assert!(chains > 0);
}

#[test]
fn spans_stay_complete_when_a_donor_crashes_mid_compute_tcp() {
    let mut server = Server::new(tcp_cfg());
    server.submit(integration_problem(400_000));
    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(1 << 20);
    server.set_telemetry(telemetry);
    let plan = FaultPlan::new(0).with(0.3, 0, FaultKind::Crash { down_secs: 0.4 });
    run_tcp_faulty(server, 3, &plan, 50.0);
    let (chains, _incomplete) = check_phases(&ring.events());
    assert!(chains > 0);
}

// ------------------------------------- acceptance: live stragglers

const STRAGGLERS: [usize; 2] = [3, 11];

fn straggler_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(0);
    for &c in &STRAGGLERS {
        plan.push(
            5.0,
            c,
            FaultKind::Slowdown {
                factor: 10.0,
                duration_secs: 1.0e6,
            },
        );
    }
    plan
}

/// One 16-donor simulator run against the straggler plan; returns the
/// makespan and the set of donors the detector flagged.
fn straggler_sim_run(detector: bool) -> (f64, BTreeSet<usize>) {
    let mut server = Server::new(SchedulerConfig {
        enable_health_detector: detector,
        // Units of ~20 virtual seconds with a lease generous enough
        // that a 10×-slow result is still *accepted* (and therefore
        // observed by the straggler detector) rather than expiring: the
        // detector targets the within-lease straggler regime; gross
        // overruns are already the lease machinery's job.
        target_unit_secs: 20.0,
        lease_min_secs: 400.0,
        // The tail heuristics from earlier PRs stay off in both arms,
        // so the makespan delta isolates *live* detection: with the
        // detector off nothing rescues a straggler-held unit before
        // its (long) lease runs out.
        enable_redundant_dispatch: false,
        ..Default::default()
    });
    server.submit(integration_problem(400_000_000));
    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(1 << 20);
    server.set_telemetry(telemetry);
    let (run, _server) = SimRunner::with_defaults(server, dedicated_pool(16))
        .with_faults(straggler_plan())
        .run();
    let flagged: BTreeSet<usize> = ring
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DonorFlagged { client, .. } => Some(client),
            _ => None,
        })
        .collect();
    (run.makespan, flagged)
}

#[test]
fn live_detector_flags_exactly_the_planted_stragglers_and_cuts_makespan_sim() {
    let (with_detector, flagged) = straggler_sim_run(true);
    assert_eq!(
        flagged,
        STRAGGLERS.iter().copied().collect::<BTreeSet<_>>(),
        "the detector must flag the planted pair and nobody else"
    );
    let (without, flagged_off) = straggler_sim_run(false);
    assert!(
        flagged_off.is_empty(),
        "detector off emits no flags: {flagged_off:?}"
    );
    assert!(
        with_detector < without,
        "live speculative rescue must beat the detector-off makespan \
         ({with_detector:.1}s vs {without:.1}s)"
    );
}

/// How much bigger than written the TCP straggler scenario's units must
/// be on this host. The scenario is timed in units: every donor needs a
/// few healthy results before the slowdowns planted at t = 70 scaled
/// seconds (1.4 s of wall time at 50×), and the run must still be going
/// after it. Its 4.5e8-op units were sized for a host on which one of
/// them takes hundreds of milliseconds with 16 donors sharing the
/// cores; on a faster host the whole run is over before t = 70 and
/// nothing is ever flagged. So the units (and the problem with them)
/// are scaled up until one takes at least 150 ms under that sharing —
/// half the 15 scaled seconds the scheduler settings promise, which
/// leaves a 20×-slowed unit and the one queued behind it well inside
/// the 700-second lease.
fn straggler_unit_scale() -> f64 {
    const UNIT_POINTS: u64 = 2_250_000; // 4.5e8 ops at 200 ops a point
    let mut server = Server::new(SchedulerConfig {
        min_unit_ops: 4.5e8,
        max_unit_ops: 4.5e8,
        ..Default::default()
    });
    let pid = server.submit(integration_problem(UNIT_POINTS));
    let algorithm = server.algorithm(pid);
    let Assignment::Unit { unit, .. } = server.request_work(0, 0.0) else {
        panic!("a fresh problem has a unit to give");
    };
    let unit_secs = (0..3)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(algorithm.compute(&unit));
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let sharing = (16.0 / cores).max(1.0);
    (0.15 / (unit_secs * sharing)).clamp(1.0, 64.0)
}

#[test]
fn live_detector_flags_exactly_the_planted_stragglers_tcp() {
    let scale = straggler_unit_scale();
    let mut server = Server::new(SchedulerConfig {
        enable_health_detector: true,
        // Real compute on a shared host: fixed, *compute-dominated*
        // units. The slowdown signal is a sleep of (factor−1)× the
        // unit's measured compute time, so compute must dwarf the
        // socket/queue overhead or the stretch disappears into the
        // noise (and the adaptive speed EWMA absorbs what is left).
        // 4.5e8-op units — scaled up on a host that runs them faster —
        // take hundreds of wall milliseconds on a contended core.
        target_unit_secs: 15.0,
        prior_ops_per_sec: 3e7 * scale,
        min_unit_ops: 1e4,
        max_unit_ops: 1e9 * scale,
        // A 20×-slowed unit runs ~300 scaled seconds (and may wait behind
        // one more in the donor-side prefetch queue); the lease must outlive
        // it or the slow result expires and the straggler detector (which only
        // sees accepted results) goes blind.
        lease_min_secs: 700.0,
        enable_dynamic_granularity: false,
        enable_redundant_dispatch: false,
        ..Default::default()
    });
    server.submit(integration_problem((480_000_000.0 * scale) as u64));
    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(1 << 20);
    server.set_telemetry(telemetry.clone());
    let mut plan = FaultPlan::new(0);
    for &c in &STRAGGLERS {
        // Socket/queue overhead dilutes the wall-clock stretch (only
        // the *compute* share of a unit's latency is slowed), so the
        // planted factor is 20× for the observed latency ratio to clear
        // the detector's 3× threshold on the first slow results —
        // before the adaptive speed estimate absorbs the change. Onset
        // is late enough that every donor has warmed up (≥3 healthy
        // observations) first.
        plan.push(
            70.0,
            c,
            FaultKind::Slowdown {
                factor: 20.0,
                duration_secs: 1.0e6,
            },
        );
    }
    // `run_tcp_faulty` would use the stock 5-second liveness window,
    // which declares a donor dead mid-slow-unit (it is silent for the
    // whole stretched compute) and wipes its health history. A real
    // deployment sizes liveness to the worst-case unit, so this harness
    // does too.
    let kit = ClientKit::from_server(&server).expect("integration carries a codec");
    let clock = Clock::new(50.0);
    let net = NetServer::start(
        server,
        clock,
        NetServerOptions {
            liveness_timeout: 900.0,
            ..Default::default()
        },
    )
    .expect("bind loopback listener");
    let run_over = Arc::new(AtomicBool::new(false));
    let handles = spawn_clients(
        Directory::with_origin(net.addr()),
        clock,
        kit,
        16,
        &plan,
        run_over.clone(),
        NetClientOptions::default(),
    );
    let server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    telemetry.flush();
    // The final board must agree with the event stream: both planted
    // stragglers still present (the widened liveness window kept them
    // in the pool) with their slow results accepted.
    let snap = server.status_snapshot(clock.now());
    for &c in &STRAGGLERS {
        let d = snap
            .donors
            .iter()
            .find(|d| d.client == c)
            .expect("straggler stays in the pool");
        assert!(d.units_completed > 0);
    }
    let flagged: BTreeSet<usize> = ring
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DonorFlagged { client, .. } => Some(client),
            _ => None,
        })
        .collect();
    assert_eq!(
        flagged,
        STRAGGLERS.iter().copied().collect::<BTreeSet<_>>(),
        "the detector must flag the planted pair and nobody else over TCP"
    );
}

// ------------------------------------------- metrics shipping over TCP

/// One status round-trip against a live server (the same frames
/// `biodist_top connect` uses).
fn poll_status(addr: SocketAddr) -> Option<StatusSnapshot> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    stream
        .write_all(&encode_frame(&Frame::StatusRequest))
        .ok()?;
    let mut reader = FrameReader::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        match reader.poll(&mut stream) {
            Ok(Some(Frame::StatusReport { snapshot })) => {
                return StatusSnapshot::from_wire_bytes(&snapshot).ok();
            }
            Ok(Some(_)) | Ok(None) => {}
            Err(ReadError::Decode(_)) => {}
            Err(ReadError::Io(_)) => return None,
        }
    }
    None
}

#[test]
fn tcp_donors_ship_metrics_and_the_status_view_sees_the_cluster() {
    let mut server = Server::new(tcp_cfg());
    // Sized to keep the cluster busy for a second or two of wall time,
    // so the mid-run polls below reliably land while work is in flight.
    server.submit(integration_problem(20_000_000));
    let telemetry = Telemetry::enabled();
    server.set_telemetry(telemetry.clone());
    let kit = ClientKit::from_server(&server).expect("integration problem has a codec");
    let clock = Clock::new(20.0);
    let net = NetServer::start(server, clock, NetServerOptions::default())
        .expect("bind loopback listener");
    let addr = net.addr();
    let run_over = Arc::new(AtomicBool::new(false));
    let handles = spawn_clients(
        Directory::with_origin(addr),
        clock,
        kit,
        3,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions {
            metrics_report_interval: 0.5, // scaled seconds: ~25ms wall
            ..Default::default()
        },
    );
    // Poll the live status view (wire frames, like `biodist_top`)
    // while the run progresses: at some point the snapshot must show
    // donors with completed units.
    let mut saw_live_donors = false;
    for _ in 0..500 {
        std::thread::sleep(Duration::from_millis(10));
        let Some(snap) = poll_status(addr) else { break };
        // "Live" = progress and in-flight work visible in one board:
        // some donor has completed units while the pool still holds
        // active leases.
        if snap.donors.iter().any(|d| d.units_completed > 0)
            && snap.donors.iter().any(|d| d.leases > 0)
        {
            saw_live_donors = true;
            break;
        }
        if snap.problems.iter().all(|p| p.done) {
            break;
        }
    }
    let server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    assert!(server.all_complete());
    assert!(
        saw_live_donors,
        "the status view must catch the cluster mid-run"
    );
    // Shipped deltas: donor-prefixed counters merged into the server's
    // registry, with the shipping bookkeeping clean.
    let snap = telemetry.metrics_snapshot();
    let reports = snap
        .counters
        .iter()
        .find(|(k, _)| k.as_str() == "telemetry.reports_received")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(reports > 0, "at least one metrics delta must arrive");
    let donor_units: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("donor.c") && k.ends_with(".units_computed"))
        .map(|(_, v)| *v)
        .sum();
    assert!(
        donor_units > 0,
        "donor-side units_computed must land under donor.c<id>. prefixes"
    );
    assert!(
        !snap.counters.iter().any(|(k, _)| {
            k.as_str() == "telemetry.merge_errors" || k.as_str() == "telemetry.report_decode_errors"
        }),
        "no merge or decode errors during shipping"
    );
}
