//! Ops-plane integration suite: wire-correlated spans, donor metrics
//! shipping and the live status view, exercised end-to-end on the
//! simulator and over real loopback TCP.
//!
//! Every completed unit's trace carries a four-phase breakdown that
//! telescopes to its span, on both backends and under crashes. A seeded
//! plan with two planted 10× stragglers in a 16-donor pool pins the
//! plain end-game: the run finishes with the right answer at a makespan
//! fixed to the bit.

use biodist::core::builtin::integration_problem;
use biodist::core::net::wire::{encode_frame, Frame, FrameReader, ReadError};
use biodist::core::net::{spawn_clients, ClientKit, Clock};
use biodist::core::{
    phase_breakdowns, run_tcp_faulty, verify_spans, Directory, EventKind, FaultKind, FaultPlan,
    NetClientOptions, NetServer, NetServerOptions, SchedulerConfig, Server, SimRunner,
    StatusSnapshot, Telemetry, TraceEvent,
};
use biodist::gridsim::machine::{AvailabilityModel, Machine};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fully dedicated homogeneous pool (no owner-activity noise), so
/// only the *planted* faults slow a donor.
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

// ------------------------------------------- planted stragglers

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

/// Two donors of sixteen turn 10× slower early on, and nothing but the
/// stock redundant end-game rescues the units they hold: units of ~20
/// virtual seconds under a lease long enough (400 s) that a 10×-slow
/// result still lands before it expires. The run folds the right
/// answer at a pinned makespan: a plan or scheduling change that moves
/// it has to say why.
#[test]
fn planted_stragglers_finish_at_the_pinned_end_game_makespan_sim() {
    let mut server = Server::new(SchedulerConfig {
        target_unit_secs: 20.0,
        lease_min_secs: 400.0,
        ..Default::default()
    });
    let pid = server.submit(integration_problem(400_000_000));
    let (run, mut server) = SimRunner::with_defaults(server, dedicated_pool(16))
        .with_faults(straggler_plan())
        .run();
    let pi = server.take_output(pid).unwrap().into_inner::<f64>();
    assert!((pi - std::f64::consts::PI).abs() < 1e-8, "{pi}");
    assert_eq!(
        run.makespan.to_bits(),
        568.6673856000651f64.to_bits(),
        "{:?}",
        run.makespan
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
        // Scaled seconds: ~25ms wall.
        NetClientOptions {
            metrics_report_interval: 0.5,
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
