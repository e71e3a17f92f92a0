//! Regression test: a donor far slower than the scheduler's prior used
//! to livelock — its lease expired before its first result arrived, the
//! unit bounced back to the reissue queue, its (valid) result was
//! discarded as stale, and the cycle repeated forever. Fixed by (a)
//! accepting results for units sitting in the reissue queue and (b)
//! exponential lease backoff per expiry.

use biodist_core::builtin::integration_problem;
use biodist_core::{SchedulerConfig, Server, SimConfig, SimRunner};
use biodist_gridsim::machine::{AvailabilityModel, Machine};
use biodist_gridsim::network::SharedLink;

fn slow_pool(departure: Option<f64>) -> Vec<Machine> {
    // 10x slower than the scheduler's 1e7 ops/s prior.
    let mut machines: Vec<Machine> = (0..2)
        .map(|id| Machine::new(id, "slow", 1e6, AvailabilityModel::dedicated(), 5))
        .collect();
    machines[0].departure = departure;
    machines
}

#[test]
fn slow_donor_with_silent_departure_completes() {
    let mut server = Server::new(SchedulerConfig {
        enable_redundant_dispatch: false,
        ..Default::default()
    });
    let pid = server.submit(integration_problem(2_000_000)); // one 4e8-op unit
    let (report, mut server) = SimRunner::new(
        server,
        slow_pool(Some(50.0)),
        SharedLink::hundred_mbit(),
        SimConfig::default(),
    )
    .run();
    let pi = server.take_output(pid).unwrap().into_inner::<f64>();
    assert!((pi - std::f64::consts::PI).abs() < 1e-7);
    // Lease expiry (~180 s scan) + one full 400 s computation.
    assert!(report.makespan < 700.0, "makespan {}", report.makespan);
}

#[test]
fn stale_lease_result_is_accepted_not_wasted() {
    // No churn at all: the slow donor keeps the unit past its lease; its
    // eventual result must be folded in, not discarded.
    let mut server = Server::new(SchedulerConfig {
        enable_redundant_dispatch: false,
        ..Default::default()
    });
    let pid = server.submit(integration_problem(2_000_000));
    // Single slow machine: nothing else can compute the reissued copy.
    let machines = vec![Machine::new(
        0,
        "slow",
        1e6,
        AvailabilityModel::dedicated(),
        5,
    )];
    let (report, mut server) = SimRunner::new(
        server,
        machines,
        SharedLink::hundred_mbit(),
        SimConfig::default(),
    )
    .run();
    let pi = server.take_output(pid).unwrap().into_inner::<f64>();
    assert!((pi - std::f64::consts::PI).abs() < 1e-7);
    // One computation: ~400 s (not 800+, which would mean the first
    // result was wasted and recomputed).
    assert!(report.makespan < 500.0, "makespan {}", report.makespan);
    assert_eq!(server.stats(pid).wasted_results, 0);
}
