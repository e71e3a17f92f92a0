//! Crash recovery: a [`Server`] rebuilt from the checkpoint log its
//! journal wrote ([`crate::net::checkpoint`] is the log format).
//!
//! Records are replayed in log order against freshly-built problems —
//! each `Issue` re-drives the data manager with its original hint, each
//! `Result` re-folds the decoded payload — so the managers march through
//! the exact state sequence the crashed server observed. Each issued
//! unit waits in one stash entry until its `Result` folds it; what is
//! still stashed at the end goes back on the queue in unit order. So no
//! completed unit is ever recombined. The last `Donors` snapshot
//! restores every donor record.

use super::{ProblemId, Server};
use crate::net::checkpoint::{read_log, LogRecord};
use crate::problem::{Problem, TaskResult, UnitId, WorkUnit};
use crate::sched::{DonorSnapshot, SchedulerConfig};
use crate::telemetry::{EventKind, Telemetry};
use std::collections::BTreeMap;
use std::path::Path;

/// What [`recover`] reconstructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Issue records replayed against the fresh data managers.
    pub replayed_issues: u64,
    /// Result records folded back in (units that will NOT recompute).
    pub replayed_results: u64,
    /// Issued-but-uncompleted units queued for reassignment.
    pub pending_restored: u64,
    /// Whether a torn tail or a replay divergence cut the log short.
    pub torn_tail: bool,
}

/// Rebuilds a server from `problems` (freshly constructed, in the same
/// order as the crashed run's submissions) and the checkpoint log at
/// `path`. Units issued without a surviving result record are queued
/// for reassignment; no completed unit is ever recombined.
///
/// Replay stops early (reported as `torn_tail`) if a record refers to
/// an unknown problem, the manager produces a different unit than the
/// log recorded, or a result is for a unit not issued or no longer
/// decodes — the remaining records describe state this run never
/// reached, and the affected units fall back to recomputation.
pub fn recover(
    cfg: SchedulerConfig,
    problems: Vec<Problem>,
    path: &Path,
) -> std::io::Result<(Server, RecoveryReport)> {
    recover_traced(cfg, problems, path, Telemetry::disabled())
}

/// [`recover`] with a telemetry handle installed *before* replay, so the
/// trace records every `replay_issue` / `replay_result` and ends with a
/// `recovery_done` summary event.
pub fn recover_traced(
    cfg: SchedulerConfig,
    problems: Vec<Problem>,
    path: &Path,
    telemetry: Telemetry,
) -> std::io::Result<(Server, RecoveryReport)> {
    let (records, torn_tail) = read_log(path)?;
    let mut server = Server::new(cfg);
    server.set_telemetry(telemetry.clone());
    for p in problems {
        server.submit(p);
    }
    let mut report = RecoveryReport::default();
    // Every issued unit no replayed result has folded yet.
    let mut issued: BTreeMap<(ProblemId, UnitId), WorkUnit> = BTreeMap::new();
    let mut donors: Option<DonorSnapshot> = None;
    // One exit: the first record this run cannot reach ends replay.
    let replayed = records.into_iter().try_for_each(|record| {
        match record {
            LogRecord::Issue {
                problem,
                unit,
                hint_ops,
            } => {
                let unit = server.replay_issue(problem, unit, hint_ops)?;
                issued.insert((problem, unit.id), unit);
                report.replayed_issues += 1;
            }
            LogRecord::Result {
                problem,
                unit,
                payload,
            } => {
                let codec = server.problems.get(problem)?.codec.clone()?;
                let payload = codec.decode_result(&payload).ok()?;
                issued.remove(&(problem, unit))?;
                server.telemetry.set_now(0.0);
                let p = &mut server.problems[problem];
                let unit_id = unit;
                p.dm.accept_result(TaskResult { unit_id, payload });
                p.stats.completed_units += 1;
                let event = EventKind::ReplayResult { problem, unit };
                server.telemetry.emit(event);
                server.complete_problem(problem, 0.0);
                report.replayed_results += 1;
            }
            LogRecord::Donors(snap) => donors = Some(snap),
        }
        Some(())
    });
    report.torn_tail = torn_tail || replayed.is_none();
    for ((problem, _), unit) in issued {
        server.restore_pending(problem, [unit]);
        report.pending_restored += 1;
    }
    if let Some(snap) = donors {
        server.sched.restore(&snap);
    }
    telemetry.emit(EventKind::RecoveryDone {
        replayed_issues: report.replayed_issues,
        replayed_results: report.replayed_results,
        pending_restored: report.pending_restored,
        torn_tail: report.torn_tail,
    });
    Ok((server, report))
}

impl Server {
    /// Drives `problem`'s fresh data manager with `hint_ops` and checks
    /// it produced the unit the log recorded (`None`: no such problem,
    /// or a manager that diverged or had nothing to issue). Not
    /// reported to the journal: the record driving the replay is
    /// already in the log.
    fn replay_issue(
        &mut self,
        problem: ProblemId,
        expected_unit: UnitId,
        hint_ops: f64,
    ) -> Option<WorkUnit> {
        let dm = &mut self.problems.get_mut(problem)?.dm;
        let unit = dm.next_unit(hint_ops).filter(|u| u.id == expected_unit)?;
        self.telemetry.emit(EventKind::ReplayIssue {
            problem,
            unit: unit.id,
        });
        Some(unit)
    }

    /// Queues units issued and never folded for recomputation: the data
    /// manager has already moved past them.
    fn restore_pending(&mut self, problem: ProblemId, units: impl IntoIterator<Item = WorkUnit>) {
        self.problems[problem].leases.restore(units);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::net::checkpoint::CheckpointWriter;
    use crate::server::tests::{drive_to_completion, sum_problem};
    use crate::server::{Assignment, RunJournal};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) fn temp_log(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("biodist-ckpt-{}-{tag}-{n}.log", std::process::id()))
    }

    // Fixed granularity (min == max) so the crashed, recovered and
    // sequential runs all decompose the problem identically — the
    // precondition for bit-identical outputs.
    pub(crate) fn fixed_cfg() -> SchedulerConfig {
        SchedulerConfig {
            min_unit_ops: 1.25e6, // 6250 grid points per unit
            max_unit_ops: 1.25e6,
            ..Default::default()
        }
    }

    pub(crate) fn sequential_pi(n: u64) -> f64 {
        let mut server = Server::new(fixed_cfg());
        let pid = server.submit(integration_problem(n));
        drive(&mut server);
        server.take_output(pid).unwrap().into_inner::<f64>()
    }

    pub(crate) fn drive(server: &mut Server) {
        let mut now = 0.0;
        loop {
            match server.request_work(0, now) {
                Assignment::Unit {
                    problem,
                    unit,
                    algorithm,
                } => {
                    let r = algorithm.compute(&unit);
                    now += 1.0;
                    server.submit_result(0, problem, r, now);
                }
                Assignment::Wait => now += 1.0,
                Assignment::Finished => break,
            }
        }
    }

    #[test]
    fn kill_mid_run_recover_and_finish_exactly_once() {
        let path = temp_log("midrun");
        let n = 100_000;
        let writer = CheckpointWriter::create(&path).unwrap();
        let mut server = Server::new(fixed_cfg());
        let pid = server.submit(integration_problem(n));
        server.set_journal(Box::new(writer.clone()));
        // Drive a handful of units, leaving two issued-but-unfinished
        // at the "crash": one in flight, one queued behind it.
        let mut completed = 0;
        let mut now = 0.0;
        let mut abandoned = 0;
        while completed < 4 {
            match server.request_work(0, now) {
                Assignment::Unit {
                    problem,
                    unit,
                    algorithm,
                } => {
                    let r = algorithm.compute(&unit);
                    now += 1.0;
                    server.submit_result(0, problem, r, now);
                    completed += 1;
                }
                _ => panic!("work must be available"),
            }
        }
        for c in [1, 2] {
            let Assignment::Unit { .. } = server.request_work(c, now) else {
                panic!("expected in-flight unit")
            };
            abandoned += 1;
        }
        writer.append_donors(&server.scheduler().snapshot());
        drop(server); // the crash: all in-memory state gone

        let (mut recovered, report) =
            recover(fixed_cfg(), vec![integration_problem(n)], &path).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(report.replayed_results, 4);
        assert_eq!(report.pending_restored, abandoned);
        assert_eq!(report.replayed_issues, 4 + abandoned);
        assert_eq!(recovered.stats(pid).completed_units, 4);
        // Warm scheduler state came back.
        let warm = recovered.scheduler().snapshot().donors;
        assert!(warm.iter().any(|r| r.client == 0 && r.adaptive.is_some()));

        drive(&mut recovered);
        let pi = recovered.take_output(pid).unwrap().into_inner::<f64>();
        let reference = sequential_pi(n);
        assert_eq!(pi.to_bits(), reference.to_bits(), "bit-identical recovery");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_units_recomputed() {
        let path = temp_log("torn");
        let n = 50_000;
        let writer = CheckpointWriter::create(&path).unwrap();
        let mut server = Server::new(fixed_cfg());
        let pid = server.submit(integration_problem(n));
        server.set_journal(Box::new(writer));
        let mut now = 0.0;
        for _ in 0..3 {
            let Assignment::Unit {
                problem,
                unit,
                algorithm,
            } = server.request_work(0, now)
            else {
                panic!()
            };
            let r = algorithm.compute(&unit);
            now += 1.0;
            server.submit_result(0, problem, r, now);
        }
        drop(server);
        // Tear the tail: truncate the file mid-way through the last
        // record, as a crash during a write would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut recovered, report) =
            recover(fixed_cfg(), vec![integration_problem(n)], &path).unwrap();
        assert!(report.torn_tail, "truncation must be noticed");
        // The torn record was the third result; its unit is recomputed.
        assert_eq!(report.replayed_results, 2);
        assert_eq!(report.pending_restored, 1);
        drive(&mut recovered);
        let pi = recovered.take_output(pid).unwrap().into_inner::<f64>();
        assert_eq!(pi.to_bits(), sequential_pi(n).to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_garbage_logs_recover_to_a_fresh_run() {
        let path = temp_log("garbage");
        std::fs::write(&path, [0xDE, 0xAD, 0xBE]).unwrap();
        let (mut server, report) = recover(
            SchedulerConfig::default(),
            vec![integration_problem(10_000)],
            &path,
        )
        .unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed_issues, 0);
        drive(&mut server);
        let pi = server.take_output(0).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-7);
        let _ = std::fs::remove_file(&path);
    }

    /// A result record whose payload no longer decodes ends replay like
    /// a torn tail, and its unit — issued, never folded — goes back on
    /// the queue to be recomputed instead of being lost.
    #[test]
    fn an_undecodable_result_leaves_its_unit_to_recompute() {
        let path = temp_log("undecodable");
        let n = 50_000;
        let mut writer = CheckpointWriter::create(&path).unwrap();
        let mut server = Server::new(fixed_cfg());
        let pid = server.submit(integration_problem(n));
        server.set_journal(Box::new(writer.clone()));
        let Assignment::Unit { unit, .. } = server.request_work(0, 0.0) else {
            panic!("work must be available")
        };
        writer.result_folded(pid, unit.id, &[0xFF; 3]);
        writer.commit();
        drop(server);

        let (mut recovered, report) =
            recover(fixed_cfg(), vec![integration_problem(n)], &path).unwrap();
        assert!(report.torn_tail);
        assert_eq!((report.replayed_results, report.pending_restored), (0, 1));
        let Assignment::Unit {
            problem,
            unit: again,
            algorithm,
        } = recovered.request_work(0, 0.0)
        else {
            panic!("the unit must be reissued")
        };
        assert_eq!(again.id, unit.id);
        assert!(recovered.submit_result(0, problem, algorithm.compute(&again), 1.0));
        drive(&mut recovered);
        let pi = recovered.take_output(pid).unwrap().into_inner::<f64>();
        assert_eq!(pi.to_bits(), sequential_pi(n).to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_restores_pending_units_and_completes() {
        // Miniature recovery: issue two units, "crash" having completed
        // neither, then drive a fresh server through replay_issue +
        // restore_pending and finish the run.
        let mut first = Server::new(SchedulerConfig::default());
        first.submit(sum_problem(100, 50));
        let hint = first.scheduler().donor(0).hint;
        let Assignment::Unit { unit: u0, .. } = first.request_work(0, 0.0) else {
            panic!()
        };
        let Assignment::Unit { unit: u1, .. } = first.request_work(1, 0.0) else {
            panic!()
        };

        let mut recovered = Server::new(SchedulerConfig::default());
        recovered.submit(sum_problem(100, 50));
        let r0 = recovered.replay_issue(0, u0.id, hint).expect("unit 0");
        let r1 = recovered.replay_issue(0, u1.id, hint).expect("unit 1");
        assert_eq!(r0.id, u0.id);
        // A diverged expectation is reported, not folded blindly.
        assert!(recovered.replay_issue(0, 999, hint).is_none());
        recovered.restore_pending(0, vec![r0, r1]);
        let outputs = drive_to_completion(&mut recovered, &[0, 1]);
        assert_eq!(outputs, vec![100 * 101 / 2]);
        assert!(recovered.all_complete());
    }
}
