//! Simulated execution backend.
//!
//! Drives the same [`Server`] the TCP backend serves, but against
//! `biodist-gridsim`'s virtual clock, donor machines and shared server
//! link. Algorithms still *really execute* (so outputs are correct and
//! comparable to the sequential reference); virtual time is charged
//! from each unit's `cost_ops` and the executing machine's speed and
//! availability trace.
//!
//! Message flow per unit, mirroring the paper's RMI + socket split:
//!
//! ```text
//! client ──request (control msg)──▶ server        (latency-dominated)
//! client ◀──unit payload────────── server         (bytes / bandwidth, FIFO)
//! client computes                                  (machine trace)
//! client ──result payload────────▶ server         (bytes / bandwidth, FIFO)
//! client ──next request…
//! ```

use crate::donor::Holdings;
use crate::fault::{DeliveryAction, FaultPlan};
use crate::problem::{Algorithm, TaskResult, WorkUnit};
use crate::server::{Assignment, ProblemId, Server};
use biodist_gridsim::event::EventQueue;
use biodist_gridsim::machine::Machine;
use biodist_gridsim::network::{CampusNetwork, SharedLink};
use std::sync::Arc;

/// How long a client waits before re-polling after `Wait`, seconds.
const POLL_INTERVAL_SECS: f64 = 5.0;
/// Period of the server's lease-timeout scan, seconds.
const TIMEOUT_CHECK_SECS: f64 = 30.0;
/// Size of a control message (request/ack), bytes.
const CONTROL_BYTES: u64 = 256;
/// Hard cap on virtual time, 30 days; exceeding it panics (a deadlocked
/// configuration, not a recoverable state).
const MAX_VIRTUAL_SECS: f64 = 86_400.0 * 30.0;

/// Simulator tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cadence at which each donor ships a snapshot of its local
    /// metrics registry to the server, merged under a `donor.c<id>.`
    /// prefix exactly like the TCP backend's `MetricsReport` frame.
    /// 0 — the default, which keeps the pre-shipping event timeline
    /// bit-identical — disables shipping.
    pub metrics_report_secs: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            metrics_report_secs: 0.0,
        }
    }
}

/// Outcome of a simulated run.
#[derive(Debug)]
pub struct RunReport {
    /// Virtual time at which the *last* problem completed.
    pub makespan: f64,
    /// Per-problem `(name, completion time)` in submission order.
    pub problem_completion: Vec<(String, f64)>,
    /// Sum of completed units across problems.
    pub total_units: u64,
    /// Redundant end-game dispatches across problems.
    pub redundant_dispatches: u64,
    /// Units reissued after lease expiry / churn.
    pub reissued_units: u64,
    /// Results discarded as duplicates.
    pub wasted_results: u64,
    /// Results that arrived corrupted and were reissued.
    pub corrupted_results: u64,
    /// Bytes moved over the server link.
    pub bytes_transferred: u64,
    /// Mean seconds messages queued behind the shared link.
    pub mean_link_queue_wait: f64,
    /// Mean fraction of present time machines spent computing.
    pub mean_utilization: f64,
    /// Discrete events the simulator's main loop processed — the
    /// denominator for events-per-second throughput in scale sweeps.
    pub events_processed: u64,
}

// Per-machine events carry the machine's lifecycle epoch at scheduling
// time; a crash bumps the epoch, so events from the previous life
// (in-flight deliveries, compute completions, stale request loops) are
// discarded instead of resurrecting after the rejoin.
enum Ev {
    Join(usize),
    SetupDone(usize, u32),
    RequestArrived(usize, u32),
    UnitDelivered {
        machine: usize,
        epoch: u32,
        problem: ProblemId,
        unit: Arc<WorkUnit>,
        algorithm: Arc<dyn Algorithm>,
    },
    // Carries the unit + algorithm so a Duplicate delivery fault can
    // materialise the second copy (results are not clonable).
    ComputeDone {
        machine: usize,
        epoch: u32,
        problem: ProblemId,
        result: TaskResult,
        unit: Arc<WorkUnit>,
        algorithm: Arc<dyn Algorithm>,
    },
    // A deferred re-poll after `Assignment::Wait` or a dropped result.
    // The control-message transfer is charged when this fires, not
    // when it is scheduled: `SharedLink` serialises transfers in call
    // order, so pre-charging a future retry would make earlier
    // transfers queue behind it.
    PollRetry(usize, u32),
    // Periodic donor-metrics shipping (when `metrics_report_secs` > 0).
    MetricsReport(usize, u32),
    Leave(usize),
    Crash {
        machine: usize,
        down_secs: f64,
    },
    TimeoutCheck,
}

/// Runs a server against a simulated machine pool.
pub struct SimRunner {
    server: Server,
    machines: Vec<Machine>,
    network: CampusNetwork,
    cfg: SimConfig,
    plan: FaultPlan,
}

impl SimRunner {
    /// Creates a runner with a single shared link. Problems must
    /// already be submitted to `server`.
    pub fn new(server: Server, machines: Vec<Machine>, link: SharedLink, cfg: SimConfig) -> Self {
        let network = CampusNetwork::single_link(link, machines.len());
        Self::with_network(server, machines, network, cfg)
    }

    /// Creates a runner over a full campus topology (per-location
    /// uplinks + server link).
    pub fn with_network(
        server: Server,
        machines: Vec<Machine>,
        network: CampusNetwork,
        cfg: SimConfig,
    ) -> Self {
        assert!(!machines.is_empty(), "need at least one machine");
        assert!(server.problem_count() > 0, "no problems submitted");
        Self {
            server,
            machines,
            network,
            cfg,
            plan: FaultPlan::none(),
        }
    }

    /// Convenience constructor with the 100 Mbit/s link and defaults.
    pub fn with_defaults(server: Server, machines: Vec<Machine>) -> Self {
        Self::new(
            server,
            machines,
            SharedLink::hundred_mbit(),
            SimConfig::default(),
        )
    }

    /// Injects a [`FaultPlan`] into the run. Lifecycle faults become
    /// simulator events (a `LateJoin` overrides the machine's arrival
    /// with the later time, a `Depart` with the earlier departure);
    /// slowdowns scale the machine's compute model per unit; delivery
    /// faults mutate result messages; link faults degrade the shared
    /// server link.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Runs to completion, returning the report and the server (which
    /// holds problem outputs).
    pub fn run(mut self) -> (RunReport, Server) {
        let n = self.machines.len();
        let tel = self.server.telemetry();
        let plan = std::mem::replace(&mut self.plan, FaultPlan::none());
        // What each machine holds: its faults, a chunk cache as large
        // as a TCP donor's (residue bytes cross the link only on a
        // miss), and a metrics registry shipped to the server every
        // `metrics_report_secs` as *delta* snapshots so the server's
        // prefixed merge stays associative. A crash empties the cache
        // and discards the unshipped delta: the machine's memory is gone.
        let mut donors: Vec<Holdings> = (0..n)
            .map(|m| Holdings::new(m, plan.client(m), tel.clone()))
            .collect();
        let mut events: EventQueue<Ev> = EventQueue::new();
        let mut alive = vec![false; n];
        let mut departed = vec![false; n];
        let mut epoch = vec![0u32; n];
        let mut busy_time = vec![0.0f64; n];
        // Joins (initial + crash rejoins) scheduled but not yet fired;
        // the all-donors-gone check must count them as future capacity.
        let mut scheduled_joins = 0usize;
        let shipping = self.cfg.metrics_report_secs > 0.0;

        let total_setup: u64 = (0..self.server.problem_count())
            .map(|p| self.server.setup_bytes(p))
            .sum();

        for (m, f) in donors.iter().map(|d| &d.faults).enumerate() {
            let machine = &self.machines[m];
            let join_at = f
                .join_at
                .map_or(machine.arrival, |t| t.max(machine.arrival));
            events.schedule(join_at, Ev::Join(m));
            scheduled_joins += 1;
            let leave_at = match (machine.departure, f.departure) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if let Some(d) = leave_at {
                events.schedule(d, Ev::Leave(m));
            }
            for &(at, down_secs) in &f.crashes {
                events.schedule(
                    at,
                    Ev::Crash {
                        machine: m,
                        down_secs,
                    },
                );
            }
        }
        events.schedule(TIMEOUT_CHECK_SECS, Ev::TimeoutCheck);

        let mut events_processed = 0u64;
        while let Some((now, ev)) = events.pop() {
            events_processed += 1;
            assert!(
                now <= MAX_VIRTUAL_SECS,
                "simulation exceeded {MAX_VIRTUAL_SECS} virtual seconds — deadlocked configuration?"
            );
            if self.server.all_complete() {
                break;
            }
            match ev {
                Ev::Join(m) => {
                    scheduled_joins -= 1;
                    if departed[m] {
                        // Permanently departed while down; never rejoins.
                        continue;
                    }
                    alive[m] = true;
                    tel.emit_at(
                        now,
                        crate::telemetry::EventKind::MachineJoined { client: m },
                    );
                    // Download algorithm code + problem data for every
                    // submitted problem (again, after a crash reboot),
                    // then start requesting work.
                    self.network.set_server_degradation(plan.link_scale(now));
                    let done = self.network.transfer(m, now, total_setup);
                    events.schedule(done, Ev::SetupDone(m, epoch[m]));
                    if shipping {
                        events.schedule(
                            now + self.cfg.metrics_report_secs,
                            Ev::MetricsReport(m, epoch[m]),
                        );
                    }
                }
                Ev::SetupDone(m, e) | Ev::RequestArrived(m, e) => {
                    if !alive[m] || e != epoch[m] {
                        continue; // stale request loop from a past life
                    }
                    match self.server.request_work(m, now) {
                        Assignment::Unit {
                            problem,
                            unit,
                            algorithm,
                        } => {
                            // The unit itself is small (a range plus
                            // chunk digests); residue bytes only cross
                            // the link when the machine's chunk cache
                            // misses — exactly the TCP backend's story.
                            let codec = self.server.codec(problem);
                            let needs = codec.as_ref().map(|c| c.unit_chunks(&unit.payload));
                            let needs = needs.unwrap_or_default();
                            let (_, misses) = donors[m].plan(&needs, now);
                            let fetched = misses.iter().map(|&i| &needs[i]);
                            for need in fetched.clone() {
                                let chunk = codec.as_ref().map(|c| c.encode_chunk(need.chunk));
                                if let Some(Ok(chunk)) = chunk {
                                    donors[m].keep(need.digest, Arc::new(chunk));
                                }
                            }
                            let fetched_bytes = fetched.clone().map(|need| need.bytes).sum();
                            donors[m].count("cache.bytes_fetched", fetched_bytes);
                            tel.counters_add(&[
                                ("net.chunks_served", misses.len() as u64),
                                ("net.chunk_bytes_out", fetched_bytes),
                            ]);
                            let bytes = unit.payload.wire_bytes() + CONTROL_BYTES + fetched_bytes;
                            self.network.set_server_degradation(plan.link_scale(now));
                            let delivered = self.network.transfer(m, now, bytes);
                            // Chunk fetches finish when the unit lands.
                            for need in fetched {
                                tel.emit_at(
                                    delivered,
                                    crate::telemetry::EventKind::ChunkFetchFinished {
                                        client: m,
                                        digest: need.digest,
                                        replica: false,
                                    },
                                );
                            }
                            events.schedule(
                                delivered,
                                Ev::UnitDelivered {
                                    machine: m,
                                    epoch: e,
                                    problem,
                                    unit,
                                    algorithm,
                                },
                            );
                        }
                        Assignment::Wait => {
                            let retry = now + POLL_INTERVAL_SECS;
                            events.schedule(retry, Ev::PollRetry(m, e));
                        }
                        Assignment::Finished => {}
                    }
                }
                Ev::UnitDelivered {
                    machine: m,
                    epoch: e,
                    problem,
                    unit,
                    algorithm,
                } => {
                    if !alive[m] || e != epoch[m] {
                        continue; // unit lost with the crashed machine
                    }
                    tel.emit_at(
                        now,
                        crate::telemetry::EventKind::UnitDelivered {
                            problem,
                            unit: unit.id,
                            client: m,
                        },
                    );
                    tel.emit_at(
                        now,
                        crate::telemetry::EventKind::ComputeStarted {
                            problem,
                            unit: unit.id,
                            client: m,
                        },
                    );
                    // Execute for real (correct output), charge virtual
                    // time from the cost model and the machine's trace.
                    // An active straggler window scales the unit's
                    // compute time (sampled once, at unit start).
                    let result = algorithm.compute(&unit);
                    let scale = donors[m].faults.compute_scale(now);
                    self.machines[m].set_speed_scale(1.0 / scale);
                    let finish = self.machines[m].finish_time(now, unit.cost_ops);
                    busy_time[m] += finish - now;
                    donors[m].metrics.observe(
                        "compute.secs",
                        crate::telemetry::LATENCY_BOUNDS,
                        finish - now,
                    );
                    events.schedule(
                        finish,
                        Ev::ComputeDone {
                            machine: m,
                            epoch: e,
                            problem,
                            result,
                            unit,
                            algorithm,
                        },
                    );
                }
                Ev::ComputeDone {
                    machine: m,
                    epoch: e,
                    problem,
                    result,
                    unit,
                    algorithm,
                } => {
                    if !alive[m] || e != epoch[m] {
                        continue; // work lost with the departed machine
                    }
                    tel.emit_at(
                        now,
                        crate::telemetry::EventKind::ComputeFinished {
                            problem,
                            unit: unit.id,
                            client: m,
                        },
                    );
                    donors[m].metrics.counter_add("units_computed", 1);
                    self.network.set_server_degradation(plan.link_scale(now));
                    match donors[m].faults.resolve_delivery(&tel, now, m) {
                        DeliveryAction::Deliver => {
                            let bytes = result.payload.wire_bytes() + CONTROL_BYTES;
                            let arrives = self.network.transfer(m, now, bytes);
                            // The result message doubles as the next
                            // work request.
                            self.server.submit_result(m, problem, result, arrives);
                            events.schedule(arrives, Ev::RequestArrived(m, e));
                        }
                        DeliveryAction::Drop => {
                            // The message vanishes in transit; the lease
                            // must expire to recover the unit. The client
                            // re-polls after its usual interval.
                            let retry = now + POLL_INTERVAL_SECS;
                            events.schedule(retry, Ev::PollRetry(m, e));
                        }
                        DeliveryAction::Duplicate => {
                            // Retransmission bug: the same result lands
                            // twice; the server must accept exactly one.
                            let bytes = result.payload.wire_bytes() + CONTROL_BYTES;
                            let arrives = self.network.transfer(m, now, bytes);
                            let copy = algorithm.compute(&unit);
                            let second = self.network.transfer(m, arrives, bytes);
                            self.server.submit_result(m, problem, result, arrives);
                            self.server.submit_result(m, problem, copy, second);
                            events.schedule(second, Ev::RequestArrived(m, e));
                        }
                        DeliveryAction::Corrupt => {
                            // The payload fails the transport checksum;
                            // the server cancels the lease and reissues.
                            let bytes = result.payload.wire_bytes() + CONTROL_BYTES;
                            let arrives = self.network.transfer(m, now, bytes);
                            self.server
                                .result_corrupted(m, problem, result.unit_id, arrives);
                            events.schedule(arrives, Ev::RequestArrived(m, e));
                        }
                    }
                }
                Ev::PollRetry(m, e) => {
                    if !alive[m] || e != epoch[m] {
                        continue; // retry loop from a past life
                    }
                    self.network.set_server_degradation(plan.link_scale(now));
                    let arrives = self.network.transfer(m, now, CONTROL_BYTES);
                    events.schedule(arrives, Ev::RequestArrived(m, e));
                }
                Ev::MetricsReport(m, e) => {
                    if !alive[m] || e != epoch[m] {
                        continue; // reporting loop from a past life
                    }
                    // Ship the delta since the last report: snapshot,
                    // reset, charge the encoded bytes to the shared
                    // link, merge under the donor prefix.
                    let snap = donors[m].report();
                    self.network.set_server_degradation(plan.link_scale(now));
                    let bytes = snap.to_wire_bytes().len() as u64 + CONTROL_BYTES;
                    let arrives = self.network.transfer(m, now, bytes);
                    tel.merge_snapshot_prefixed(&format!("donor.c{m}."), &snap);
                    tel.emit_at(
                        arrives,
                        crate::telemetry::EventKind::MetricsReported { client: m },
                    );
                    events.schedule(now + self.cfg.metrics_report_secs, Ev::MetricsReport(m, e));
                }
                Ev::Leave(m) => {
                    departed[m] = true;
                    if alive[m] {
                        alive[m] = false;
                        epoch[m] += 1;
                        // Cycle-scavenging donors vanish silently — the
                        // owner pulls the plug — and the server only
                        // learns of the loss when the unit's lease
                        // expires.
                        tel.emit_at(
                            now,
                            crate::telemetry::EventKind::MachineDeparted { client: m },
                        );
                    }
                    assert!(
                        alive.iter().any(|&a| a) || scheduled_joins > 0,
                        "simulation ended with incomplete problems (all donors gone)"
                    );
                }
                Ev::Crash {
                    machine: m,
                    down_secs,
                } => {
                    if !alive[m] || departed[m] {
                        continue; // already down or gone; nothing to lose
                    }
                    // Silent crash: in-flight work is lost (the epoch
                    // bump discards it) and the server only learns via
                    // lease expiry. The machine reboots with a cold
                    // chunk cache and rejoins.
                    alive[m] = false;
                    epoch[m] += 1;
                    donors[m].crash(now, down_secs);
                    // The availability trace is generated forward-only
                    // and a discarded in-flight unit may already have
                    // sampled it past `now`; the reboot cannot rejoin
                    // before the trace's high-water mark.
                    let rejoin = (now + down_secs).max(self.machines[m].trace_time());
                    events.schedule(rejoin, Ev::Join(m));
                    scheduled_joins += 1;
                }
                Ev::TimeoutCheck => {
                    self.server.check_timeouts(now);
                    if !self.server.all_complete() {
                        events.schedule_in(TIMEOUT_CHECK_SECS, Ev::TimeoutCheck);
                    }
                }
            }
        }

        assert!(
            self.server.all_complete(),
            "simulation ended with incomplete problems (all donors gone?)"
        );

        let mut problem_completion = Vec::new();
        let (mut total_units, mut redundant, mut reissued, mut wasted, mut corrupted) =
            (0, 0, 0, 0, 0);
        let mut makespan = 0.0f64;
        for pid in 0..self.server.problem_count() {
            let t = self.server.completion_time(pid).expect("complete");
            makespan = makespan.max(t);
            problem_completion.push((self.server.problem_name(pid).to_string(), t));
            let s = self.server.stats(pid);
            total_units += s.completed_units;
            redundant += s.redundant_dispatches;
            reissued += s.reissued_units;
            wasted += s.wasted_results;
            corrupted += s.corrupted_results;
        }

        let mut util_sum = 0.0;
        let mut util_n = 0usize;
        for (machine, busy) in self.machines.iter().zip(&busy_time) {
            let end = machine.departure.unwrap_or(makespan).min(makespan);
            let present = end - machine.arrival;
            if present > 0.0 {
                util_sum += (busy / present).min(1.0);
                util_n += 1;
            }
        }

        if tel.is_enabled() {
            tel.gauge_set("sim.makespan_s", makespan);
            tel.gauge_set("sim.bytes_transferred", self.network.total_bytes() as f64);
            for (m, busy) in busy_time.iter().enumerate() {
                tel.gauge_set(&format!("sim.busy_s.c{m}"), *busy);
            }
            tel.flush();
        }

        let report = RunReport {
            makespan,
            problem_completion,
            total_units,
            redundant_dispatches: redundant,
            reissued_units: reissued,
            wasted_results: wasted,
            corrupted_results: corrupted,
            bytes_transferred: self.network.total_bytes(),
            mean_link_queue_wait: self.network.mean_server_queue_wait(),
            mean_utilization: if util_n == 0 {
                0.0
            } else {
                util_sum / util_n as f64
            },
            events_processed,
        };
        (report, self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::sched::SchedulerConfig;
    use biodist_gridsim::deployments::{heterogeneous_lab, homogeneous_lab};
    use biodist_gridsim::machine::{AvailabilityModel, Machine};

    fn dedicated_pool(n: usize, speed: f64) -> Vec<Machine> {
        (0..n)
            .map(|id| Machine::new(id, "ded", speed, AvailabilityModel::dedicated(), 5))
            .collect()
    }

    fn pi_server(points: u64) -> Server {
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 10.0,
            ..Default::default()
        });
        server.submit(integration_problem(points));
        server
    }

    #[test]
    fn simulated_run_produces_correct_output() {
        let server = pi_server(1_000_000);
        let (report, mut server) = SimRunner::with_defaults(server, dedicated_pool(4, 1e7)).run();
        let pi = server.take_output(0).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
        assert!(report.makespan > 0.0);
        assert!(report.total_units > 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let server = pi_server(500_000);
            let machines = homogeneous_lab(8, 11);
            let (report, _) = SimRunner::with_defaults(server, machines).run();
            (
                report.makespan,
                report.total_units,
                report.bytes_transferred,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_machines_reduce_makespan() {
        let mk = |n: usize| {
            let server = pi_server(20_000_000);
            let (report, _) = SimRunner::with_defaults(server, dedicated_pool(n, 1e7)).run();
            report.makespan
        };
        let t1 = mk(1);
        let t4 = mk(4);
        let t16 = mk(16);
        assert!(t4 < t1 * 0.4, "4 machines: {t4} vs {t1}");
        assert!(t16 < t4 * 0.5, "16 machines: {t16} vs {t4}");
        // Speedup cannot exceed machine count.
        assert!(t1 / t16 <= 16.0 + 1e-9);
    }

    #[test]
    fn faster_machines_finish_sooner() {
        let mk = |speed: f64| {
            let server = pi_server(5_000_000);
            let (report, _) = SimRunner::with_defaults(server, dedicated_pool(2, speed)).run();
            report.makespan
        };
        assert!(mk(2e7) < mk(1e7) * 0.7);
    }

    #[test]
    fn heterogeneous_pool_completes_correctly() {
        let server = pi_server(5_000_000);
        let machines = heterogeneous_lab(14, 3);
        let (report, mut server) = SimRunner::with_defaults(server, machines).run();
        let pi = server.take_output(0).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8);
        assert!(report.mean_utilization > 0.0);
    }

    #[test]
    fn departed_machine_does_not_stall_the_run() {
        let mut machines = dedicated_pool(3, 1e7);
        // Machine 0 leaves early, mid-computation.
        machines[0].departure = Some(30.0);
        let server = pi_server(10_000_000);
        let (report, mut server) = SimRunner::with_defaults(server, machines).run();
        let pi = server.take_output(0).unwrap().into_inner::<f64>();
        assert!(
            (pi - std::f64::consts::PI).abs() < 1e-8,
            "correct despite churn"
        );
        assert!(report.makespan.is_finite());
    }

    #[test]
    fn late_arrival_still_contributes() {
        let mut machines = dedicated_pool(2, 1e7);
        machines[1].arrival = 100.0;
        let server = pi_server(20_000_000);
        let (report, _) = SimRunner::with_defaults(server, machines).run();
        // Sanity: the run completes and the late machine reduced makespan
        // versus a single machine (2e9 ops total / 1e7 ops/s = 200 s solo
        // per... 20M points × 200 ops = 4e9 ops → 400 s solo).
        assert!(report.makespan < 400.0, "makespan {}", report.makespan);
    }

    #[test]
    fn crashed_machine_rejoins_and_the_run_stays_correct() {
        use crate::fault::{FaultKind, FaultPlan};
        let server = pi_server(10_000_000);
        let plan = FaultPlan::new(0)
            .with(15.0, 0, FaultKind::Crash { down_secs: 60.0 })
            .with(20.0, 1, FaultKind::Crash { down_secs: 30.0 });
        let (report, mut server) = SimRunner::with_defaults(server, dedicated_pool(3, 1e7))
            .with_faults(plan)
            .run();
        let pi = server.take_output(0).unwrap().into_inner::<f64>();
        assert!(
            (pi - std::f64::consts::PI).abs() < 1e-8,
            "correct despite crashes"
        );
        assert!(report.makespan.is_finite());
    }

    #[test]
    fn dropped_result_is_recovered_by_lease_expiry() {
        use crate::fault::{FaultKind, FaultPlan};
        // No redundant dispatch: lease expiry must be the only path
        // that recovers the dropped unit.
        let mk_server = || {
            let mut server = Server::new(SchedulerConfig {
                target_unit_secs: 10.0,
                enable_redundant_dispatch: false,
                ..Default::default()
            });
            server.submit(integration_problem(5_000_000));
            server
        };
        let clean = {
            let (report, _) = SimRunner::with_defaults(mk_server(), dedicated_pool(2, 1e7)).run();
            report.makespan
        };
        let plan = FaultPlan::new(0).with(1.0, 0, FaultKind::DropResult);
        let (report, mut server) = SimRunner::with_defaults(mk_server(), dedicated_pool(2, 1e7))
            .with_faults(plan)
            .run();
        let pi = server.take_output(0).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8);
        assert!(
            report.reissued_units >= 1,
            "the dropped unit must be reissued"
        );
        assert!(report.makespan > clean, "losing a result must cost time");
    }

    #[test]
    fn duplicate_and_corrupt_deliveries_are_handled() {
        use crate::fault::{FaultKind, FaultPlan};
        let plan = FaultPlan::new(0)
            .with(1.0, 0, FaultKind::DuplicateResult)
            .with(1.0, 1, FaultKind::CorruptResult);
        let (report, mut server) =
            SimRunner::with_defaults(pi_server(5_000_000), dedicated_pool(3, 1e7))
                .with_faults(plan)
                .run();
        let pi = server.take_output(0).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8);
        assert!(
            report.wasted_results >= 1,
            "duplicate copy must be discarded"
        );
        assert!(report.corrupted_results >= 1, "corruption must be detected");
    }

    #[test]
    fn straggler_slowdown_and_link_flap_cost_time_but_not_correctness() {
        use crate::fault::{FaultKind, FaultPlan};
        let run = |plan: FaultPlan| {
            let (report, mut server) =
                SimRunner::with_defaults(pi_server(5_000_000), dedicated_pool(2, 1e7))
                    .with_faults(plan)
                    .run();
            let pi = server.take_output(0).unwrap().into_inner::<f64>();
            assert!((pi - std::f64::consts::PI).abs() < 1e-8);
            report.makespan
        };
        let clean = run(FaultPlan::none());
        let slow = run(FaultPlan::new(0).with(
            0.0,
            0,
            FaultKind::Slowdown {
                factor: 8.0,
                duration_secs: 400.0,
            },
        ));
        assert!(slow > clean, "straggler {slow} must exceed clean {clean}");
        let flappy = run(FaultPlan::new(0).with(
            0.0,
            None,
            FaultKind::LinkDegrade {
                factor: 50.0,
                duration_secs: 400.0,
            },
        ));
        assert!(
            flappy > clean,
            "degraded link {flappy} must exceed clean {clean}"
        );
    }

    /// A miniature chunked problem: every unit needs one 1 MiB data
    /// chunk — the same one (`shared`), so the first delivery to a
    /// machine misses and every later one should hit its modeled chunk
    /// cache, or one of its own, so every delivery misses.
    mod chunky {
        use super::*;
        use crate::codec::{ByteReader, ByteWriter, ChunkNeed, WireCodec, WireError};
        use crate::net::cache::chunk_digest;
        use crate::problem::{DataManager, Payload, Problem, TaskResult};

        pub const CHUNK_BYTES: usize = 1 << 20;

        fn chunk_bytes(chunk: u64) -> Vec<u8> {
            (0..CHUNK_BYTES)
                .map(|i| ((i as u64 + chunk) % 251) as u8)
                .collect()
        }

        struct Dm {
            issued: u64,
            units: u64,
            received: u64,
        }
        impl DataManager for Dm {
            fn next_unit(&mut self, _h: f64) -> Option<WorkUnit> {
                if self.issued >= self.units {
                    return None;
                }
                let id = self.issued;
                self.issued += 1;
                Some(WorkUnit {
                    id,
                    payload: Payload::new(id, 64),
                    cost_ops: 1e7,
                })
            }
            fn accept_result(&mut self, _r: TaskResult) {
                self.received += 1;
            }
            fn is_complete(&self) -> bool {
                self.received == self.units
            }
            fn final_output(&mut self) -> Payload {
                Payload::new(self.received, 8)
            }
        }

        struct Algo;
        impl Algorithm for Algo {
            fn compute(&self, u: &WorkUnit) -> TaskResult {
                TaskResult {
                    unit_id: u.id,
                    payload: Payload::new(u.id, 8),
                }
            }
        }

        struct Codec {
            shared: bool,
        }
        impl WireCodec for Codec {
            fn write_unit(&self, p: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
                w.u64(*p.downcast_ref::<u64>().unwrap());
                Ok(())
            }
            fn decode_unit(&self, bytes: &[u8]) -> Result<Payload, WireError> {
                let mut r = ByteReader::new(bytes);
                let id = r.u64()?;
                r.finish()?;
                Ok(Payload::new(id, 64))
            }
            fn write_result(&self, p: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
                w.u64(*p.downcast_ref::<u64>().unwrap());
                Ok(())
            }
            fn decode_result(&self, bytes: &[u8]) -> Result<Payload, WireError> {
                let mut r = ByteReader::new(bytes);
                let id = r.u64()?;
                r.finish()?;
                Ok(Payload::new(id, 8))
            }
            fn unit_chunks(&self, p: &Payload) -> Vec<ChunkNeed> {
                let chunk = if self.shared {
                    0
                } else {
                    *p.downcast_ref::<u64>().unwrap()
                };
                vec![ChunkNeed {
                    chunk,
                    digest: chunk_digest(&chunk_bytes(chunk)),
                    bytes: CHUNK_BYTES as u64,
                }]
            }
            fn write_chunk(&self, chunk: u64, w: &mut ByteWriter) -> Result<(), WireError> {
                w.buf().extend(chunk_bytes(chunk));
                Ok(())
            }
        }

        pub fn problem(units: u64, shared: bool) -> Problem {
            Problem::new(
                "chunky",
                Box::new(Dm {
                    issued: 0,
                    units,
                    received: 0,
                }),
                Arc::new(Algo),
            )
            .with_codec(Arc::new(Codec { shared }))
        }
    }

    fn chunky_run(shared: bool, units: u64) -> RunReport {
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 10.0,
            enable_redundant_dispatch: false,
            ..Default::default()
        });
        server.submit(chunky::problem(units, shared));
        let (report, _) = SimRunner::with_defaults(server, dedicated_pool(1, 1e7)).run();
        report
    }

    #[test]
    fn chunk_cache_eliminates_repeat_transfers() {
        // One machine, eight units: when they all need the same chunk a
        // warm cache transfers it once; when each needs its own, every
        // unit fetches one.
        let shared = chunky_run(true, 8).bytes_transferred;
        let distinct = chunky_run(false, 8).bytes_transferred;
        let chunk = chunky::CHUNK_BYTES as u64;
        assert!(
            distinct >= shared + 6 * chunk,
            "shared {shared} vs distinct {distinct}"
        );
    }

    #[test]
    fn sim_trace_carries_phase_chains_and_ships_donor_metrics() {
        use crate::telemetry::{phase_breakdowns, verify_spans, EventKind, Telemetry};
        let telemetry = Telemetry::enabled();
        let ring = telemetry.attach_ring(100_000);
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 10.0,
            ..Default::default()
        });
        server.set_telemetry(telemetry.clone());
        server.submit(integration_problem(20_000_000));
        let cfg = SimConfig {
            metrics_report_secs: 5.0,
        };
        let (_, _) = SimRunner::new(
            server,
            dedicated_pool(4, 1e7),
            biodist_gridsim::network::SharedLink::hundred_mbit(),
            cfg,
        )
        .run();
        let events = ring.events();
        verify_spans(&events).expect("spans consistent");
        let (phases, _incomplete) = phase_breakdowns(&events);
        assert!(!phases.is_empty(), "no completed phase chains in trace");
        for p in &phases {
            assert!(p.transfer >= 0.0 && p.queue_wait >= 0.0);
            assert!(p.compute > 0.0, "compute phase must take time");
            assert!(p.combine >= 0.0);
        }
        let reports = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MetricsReported { .. }))
            .count();
        assert!(reports > 0, "no metrics reports shipped");
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("telemetry.reports_received"), reports as u64);
        assert_eq!(snap.counter("telemetry.merge_errors"), 0);
        let donor_units: u64 = (0..4)
            .map(|m| snap.counter(&format!("donor.c{m}.units_computed")))
            .sum();
        assert!(
            donor_units > 0,
            "donor-prefixed counters must land in the merged registry"
        );
    }

    #[test]
    fn metrics_shipping_off_leaves_no_donor_counters() {
        let telemetry = crate::telemetry::Telemetry::enabled();
        let ring = telemetry.attach_ring(100_000);
        let mut server = pi_server(500_000);
        server.set_telemetry(telemetry.clone());
        let (_, _) = SimRunner::with_defaults(server, dedicated_pool(2, 1e7)).run();
        let snap = telemetry.metrics_snapshot();
        assert!(snap.counters.keys().all(|k| !k.starts_with("donor.")));
        assert_eq!(snap.counter("telemetry.reports_received"), 0);
        assert!(!ring
            .events()
            .iter()
            .any(|e| matches!(e.kind, crate::telemetry::EventKind::MetricsReported { .. })));
    }

    #[test]
    #[should_panic(expected = "incomplete problems")]
    fn all_machines_leaving_panics() {
        let mut machines = dedicated_pool(1, 1e4); // far too slow to finish
        machines[0].departure = Some(10.0);
        let server = pi_server(100_000_000);
        SimRunner::with_defaults(server, machines).run();
    }
}
