//! Real-thread execution backend.
//!
//! Runs a [`Server`]'s problems on actual OS threads (one per simulated
//! donor) with the wall clock as the time source. Its purpose is
//! correctness: the exact same `Server` + `Problem` objects the
//! simulator drives are executed with genuine concurrency, and the
//! integration tests assert distributed output == sequential reference.

use crate::fault::{DeliveryAction, FaultPlan, PlanInterpreter};
use crate::server::{Assignment, Server};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Runs every submitted problem to completion on `n_workers` threads;
/// returns the server (holding outputs and statistics) and the elapsed
/// wall-clock seconds.
///
/// Workers that receive [`Assignment::Wait`] (stage barrier or
/// end-game) park on a condition variable that every result submission
/// signals, so barriers cost no CPU; a coarse timeout keeps the
/// periodic `check_timeouts` sweep alive even when no results arrive.
pub fn run_threaded(server: Server, n_workers: usize) -> (Server, f64) {
    run_threaded_faulty(server, n_workers, &FaultPlan::none(), 1.0)
}

/// [`run_threaded`] with a [`FaultPlan`] injected against a *scaled*
/// wall clock: the server and the plan see `now = wall_elapsed ×
/// time_scale` seconds, so the same plan times used on the simulator's
/// virtual clock land in milliseconds of real time here. Scheduler
/// durations (`lease_min_secs`, …) are interpreted in the same scaled
/// seconds.
///
/// Fault semantics on real threads:
///
/// * `LateJoin` — the worker thread sleeps before its first request;
/// * `Depart` — the worker exits its loop permanently and silently
///   (leases recover its in-flight work);
/// * `Crash` — a worker inside the downtime window stops requesting,
///   and a crash firing mid-unit discards the computed result before
///   submission (the in-flight work is lost, exactly as on the sim);
/// * `Slowdown` — the worker sleeps `(factor − 1) ×` the unit's actual
///   compute time, sampled at unit start;
/// * `DropResult` / `DuplicateResult` / `CorruptResult` — the delivery
///   is suppressed, doubled (the duplicate is recomputed — results are
///   not clonable), or routed to [`Server::result_corrupted`];
/// * `LinkDegrade` — ignored: there is no modelled network between a
///   thread and the in-process server.
pub fn run_threaded_faulty(
    server: Server,
    n_workers: usize,
    plan: &FaultPlan,
    time_scale: f64,
) -> (Server, f64) {
    assert!(n_workers >= 1, "need at least one worker");
    assert!(
        time_scale.is_finite() && time_scale > 0.0,
        "time scale must be finite and positive"
    );
    let tel = server.telemetry();
    let shared = Mutex::new(server);
    let progress = Condvar::new();
    let injector = Mutex::new(PlanInterpreter::new(plan, n_workers));
    let start = Instant::now();
    let now = move || start.elapsed().as_secs_f64() * time_scale;

    std::thread::scope(|scope| {
        for worker in 0..n_workers {
            let (shared, progress, injector) = (&shared, &progress, &injector);
            let tel = tel.clone();
            let join_at = plan.join_time(worker);
            let depart_at = plan.departure_time(worker);
            let crashes = plan.crashes(worker);
            scope.spawn(move || {
                let wall =
                    |plan_secs: f64| Duration::from_secs_f64(plan_secs.max(0.0) / time_scale);
                if let Some(t) = join_at {
                    // Absent until the late join.
                    std::thread::sleep(wall(t - now()));
                }
                tel.emit_at(
                    now(),
                    crate::telemetry::EventKind::MachineJoined { client: worker },
                );
                let mut guard = shared.lock().expect("server lock");
                loop {
                    let t = now();
                    if depart_at.is_some_and(|d| t >= d) {
                        // Permanent silent departure: in-flight leases
                        // expire and other workers pick up the units.
                        tel.emit_at(
                            t,
                            crate::telemetry::EventKind::MachineDeparted { client: worker },
                        );
                        break;
                    }
                    if let Some((at, down)) = FaultPlan::crash_overlapping(&crashes, t, t) {
                        // Down for a reboot: release the server and
                        // sleep out the rest of the window.
                        tel.emit_at(
                            t,
                            crate::telemetry::EventKind::MachineCrashed {
                                client: worker,
                                down_secs: down,
                            },
                        );
                        drop(guard);
                        std::thread::sleep(wall(at + down - t));
                        guard = shared.lock().expect("server lock");
                        continue;
                    }
                    guard.check_timeouts(t);
                    match guard.request_work(worker, t) {
                        Assignment::Unit {
                            problem,
                            unit,
                            algorithm,
                        } => {
                            // Compute OUTSIDE the lock: this is the part
                            // that actually runs in parallel.
                            drop(guard);
                            let unit_start = now();
                            // Delivery is instantaneous in-process, so
                            // the transfer and queue-wait phases of this
                            // unit's span collapse to zero.
                            tel.emit_at(
                                unit_start,
                                crate::telemetry::EventKind::UnitDelivered {
                                    problem,
                                    unit: unit.id,
                                    client: worker,
                                },
                            );
                            tel.emit_at(
                                unit_start,
                                crate::telemetry::EventKind::ComputeStarted {
                                    problem,
                                    unit: unit.id,
                                    client: worker,
                                },
                            );
                            let result = algorithm.compute(&unit);
                            let factor = injector
                                .lock()
                                .expect("injector lock")
                                .compute_scale(worker, unit_start);
                            if factor > 1.0 {
                                // Straggler: stretch this unit's wall
                                // time by the slowdown factor.
                                let compute_wall = (now() - unit_start) / time_scale;
                                std::thread::sleep(Duration::from_secs_f64(
                                    compute_wall * (factor - 1.0),
                                ));
                            }
                            let done = now();
                            // A crash window overlapping the compute
                            // interval loses the result mid-unit.
                            if let Some((at, down)) =
                                FaultPlan::crash_overlapping(&crashes, unit_start, done)
                            {
                                // The crash orphans this unit's compute
                                // sub-span; the crash event closes every
                                // span the worker held.
                                tel.emit_at(
                                    done,
                                    crate::telemetry::EventKind::MachineCrashed {
                                        client: worker,
                                        down_secs: down,
                                    },
                                );
                                std::thread::sleep(wall(at + down - now()));
                                guard = shared.lock().expect("server lock");
                                continue;
                            }
                            let (action, wrong) = {
                                let mut inj = injector.lock().expect("injector lock");
                                (
                                    inj.delivery_action(worker, done),
                                    inj.wrong_result(worker, done),
                                )
                            };
                            tel.emit_at(
                                done,
                                crate::telemetry::EventKind::ComputeFinished {
                                    problem,
                                    unit: unit.id,
                                    client: worker,
                                },
                            );
                            guard = shared.lock().expect("server lock");
                            let codec = wrong.then(|| guard.codec(problem)).flatten();
                            let (action, result) = crate::fault::resolve_delivery(
                                &tel,
                                now(),
                                worker,
                                action,
                                wrong,
                                result,
                                codec.as_deref(),
                            );
                            match action {
                                DeliveryAction::Deliver => {
                                    guard.submit_result(worker, problem, result, now());
                                    // A finished unit may release a stage
                                    // barrier or finish the run; wake the
                                    // parked workers.
                                    progress.notify_all();
                                }
                                DeliveryAction::Drop => {
                                    // Lost in transit: the server never
                                    // sees it; the lease must expire and
                                    // the unit be reissued.
                                }
                                DeliveryAction::Duplicate => {
                                    drop(guard);
                                    let copy = algorithm.compute(&unit);
                                    guard = shared.lock().expect("server lock");
                                    let at = now();
                                    guard.submit_result(worker, problem, result, at);
                                    guard.submit_result(worker, problem, copy, at);
                                    progress.notify_all();
                                }
                                DeliveryAction::Corrupt => {
                                    guard.result_corrupted(worker, problem, unit.id, now());
                                    progress.notify_all();
                                }
                            }
                        }
                        Assignment::Wait => {
                            // Parked until some worker submits a result;
                            // the timeout bounds how stale the timeout
                            // sweep above can get.
                            let (g, _) = progress
                                .wait_timeout(guard, Duration::from_millis(5))
                                .expect("server lock");
                            guard = g;
                        }
                        Assignment::Finished => break,
                    }
                }
            });
        }
    });

    let elapsed = now();
    tel.flush();
    (shared.into_inner().expect("server lock"), elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::sched::SchedulerConfig;
    use crate::server::Server;

    fn fast_cfg() -> SchedulerConfig {
        SchedulerConfig {
            // Wall-clock throughput of the integration algorithm is far
            // above the simulator's abstract prior; size units to a few
            // milliseconds so the test exercises many round trips.
            target_unit_secs: 0.005,
            prior_ops_per_sec: 2e9,
            min_unit_ops: 1e4,
            ..Default::default()
        }
    }

    #[test]
    fn computes_pi_on_one_worker() {
        let mut server = Server::new(fast_cfg());
        let pid = server.submit(integration_problem(200_000));
        let (mut server, _) = run_threaded(server, 1);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
    }

    #[test]
    fn computes_pi_on_many_workers() {
        let mut server = Server::new(fast_cfg());
        let pid = server.submit(integration_problem(500_000));
        let (mut server, _) = run_threaded(server, 8);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
        assert!(server.stats(pid).completed_units >= 2, "work was split");
    }

    #[test]
    fn runs_multiple_problems_simultaneously() {
        let mut server = Server::new(fast_cfg());
        let a = server.submit(integration_problem(100_000));
        let b = server.submit(integration_problem(150_000));
        let c = server.submit(integration_problem(200_000));
        let (mut server, _) = run_threaded(server, 4);
        for pid in [a, b, c] {
            let pi = server.take_output(pid).unwrap().into_inner::<f64>();
            assert!(
                (pi - std::f64::consts::PI).abs() < 1e-7,
                "problem {pid}: {pi}"
            );
        }
    }

    #[test]
    fn delivery_faults_on_real_threads_still_compute_pi() {
        use crate::fault::{FaultKind, FaultPlan};
        // Times below are in scaled seconds: scale 100 maps 5 scaled
        // seconds of lease to 50 ms of wall clock.
        let scale = 100.0;
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 0.5,
            prior_ops_per_sec: 2e7,
            min_unit_ops: 1e4,
            // Cap unit growth so every worker delivers several results
            // and each armed delivery fault has a delivery to hit.
            max_unit_ops: 2e6,
            lease_min_secs: 5.0,
            ..Default::default()
        });
        let pid = server.submit(integration_problem(400_000));
        // Arm every worker with the same three one-shot faults: test
        // threads can start late under a loaded runner, so tying faults
        // to one specific worker would be racy. Whichever workers end
        // up delivering, their first three deliveries are corrupted,
        // duplicated, then dropped.
        let mut plan = FaultPlan::new(0);
        for w in 0..4 {
            plan.push(0.0, w, FaultKind::CorruptResult);
            plan.push(0.0, w, FaultKind::DuplicateResult);
            plan.push(0.0, w, FaultKind::DropResult);
        }
        let (mut server, _) = run_threaded_faulty(server, 4, &plan, scale);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
        let stats = server.stats(pid);
        assert!(
            stats.wasted_results >= 1,
            "duplicate must be discarded: {stats:?}"
        );
        assert!(
            stats.corrupted_results >= 1,
            "corruption must be detected: {stats:?}"
        );
        // The dropped and corrupted results force extra assignments
        // (reissue after lease expiry, or a redundant end-game copy —
        // whichever the scheduler reaches first).
        assert!(
            stats.assignments > stats.completed_units,
            "lost results must cost extra assignments: {stats:?}"
        );
    }

    #[test]
    fn churn_on_real_threads_still_computes_pi() {
        use crate::fault::{FaultKind, FaultPlan};
        let scale = 100.0;
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 0.5,
            prior_ops_per_sec: 2e7,
            min_unit_ops: 1e4,
            lease_min_secs: 5.0,
            ..Default::default()
        });
        let pid = server.submit(integration_problem(400_000));
        let plan = FaultPlan::new(0)
            .with(1.0, 0, FaultKind::Depart)
            .with(2.0, 1, FaultKind::LateJoin)
            .with(1.0, 2, FaultKind::Crash { down_secs: 3.0 })
            .with(
                0.5,
                3,
                FaultKind::Slowdown {
                    factor: 3.0,
                    duration_secs: 2.0,
                },
            );
        let (mut server, _) = run_threaded_faulty(server, 4, &plan, scale);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
    }

    #[test]
    fn parallel_result_is_bitwise_deterministic_per_unit_count() {
        // Floating-point folding order could vary across runs; the DM
        // folds in arrival order, so exact equality is only guaranteed
        // against tolerance, not bitwise. Assert the tolerance contract.
        let run = |workers: usize| {
            let mut server = Server::new(fast_cfg());
            let pid = server.submit(integration_problem(300_000));
            let (mut server, _) = run_threaded(server, workers);
            server.take_output(pid).unwrap().into_inner::<f64>()
        };
        let (a, b) = (run(2), run(6));
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
