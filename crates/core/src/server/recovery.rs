//! Crash recovery: a [`Server`] rebuilt from the checkpoint log its
//! journal wrote ([`crate::net::checkpoint`] is the log format).
//!
//! Records are replayed in log order against freshly-built problems —
//! each `Issue` re-drives the data manager with its original hint, each
//! `Result` re-folds the decoded payload — so the managers march through
//! the exact state sequence the crashed server observed. Each issued
//! unit waits in one stash entry, with the ballots of its interrupted
//! election, until its `Result` folds it; what is still stashed at the
//! end goes back on the queue in unit order, its ballots re-seeded below
//! the quorum. So no completed unit is ever recombined, and no
//! half-voted one folds without a live result. The last `Donors`
//! snapshot restores every donor record.

use super::{ProblemId, Server};
use crate::net::checkpoint::{read_log, LogRecord};
use crate::problem::{Problem, TaskResult, UnitId, WorkUnit};
use crate::quorum::QuorumTally;
use crate::sched::{ClientId, DonorSnapshot, SchedulerConfig};
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
    /// Quorum votes re-seeded onto still-pending units (always capped
    /// below the quorum, so none of them can fold without a live
    /// result).
    pub restored_votes: u64,
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
    let mut issued: BTreeMap<(ProblemId, UnitId), Stash> = BTreeMap::new();
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
                let stash = Stash {
                    unit,
                    needed: 0,
                    ballots: Vec::new(),
                };
                issued.insert((problem, stash.unit.id), stash);
                report.replayed_issues += 1;
            }
            LogRecord::Result {
                problem,
                unit,
                payload,
            } => {
                let codec = server.problems.get(problem)?.codec.clone()?;
                let payload = codec.decode_result(&payload).ok()?;
                // Its election, if it ran one, is over: the ballots go too.
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
            LogRecord::Vote {
                problem,
                unit,
                needed,
                client,
                payload,
            } => {
                server.problems.get(problem)?;
                // A unit not stashed has no election left to resume.
                if let Some(stash) = issued.get_mut(&(problem, unit)) {
                    stash.needed = needed;
                    stash.ballots.push((client, payload));
                }
            }
            LogRecord::Donors(snap) => donors = Some(snap),
        }
        Some(())
    });
    report.torn_tail = torn_tail || replayed.is_none();
    for ((problem, id), stash) in issued {
        server.restore_pending(problem, [stash.unit]);
        report.pending_restored += 1;
        if !stash.ballots.is_empty() {
            let (needed, ballots) = (stash.needed, &stash.ballots);
            report.restored_votes += server.restore_votes(problem, id, needed, ballots);
        }
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

/// An issued unit no replayed result has folded yet, and the ballots
/// its interrupted election holds (`needed` from the latest).
struct Stash {
    unit: WorkUnit,
    needed: u32,
    ballots: Vec<(ClientId, Vec<u8>)>,
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

    /// Re-seeds a pending unit's interrupted election, capped below the
    /// quorum ([`QuorumTally::restore_vote`]) so only a live result can
    /// resolve it. Returns how many votes were kept.
    fn restore_votes(
        &mut self,
        problem: ProblemId,
        unit: UnitId,
        needed: u32,
        votes: &[(ClientId, Vec<u8>)],
    ) -> u64 {
        let p = &mut self.problems[problem];
        if p.done {
            return 0;
        }
        let tally = p
            .votes
            .entry(unit)
            .or_insert_with(|| QuorumTally::new(needed.max(1)));
        let kept = votes
            .iter()
            .map(|(client, bytes)| tally.restore_vote(*client, bytes.clone()));
        kept.map(u64::from).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::net::checkpoint::CheckpointWriter;
    use crate::server::tests::{drive_to_completion, quorum_server, sum_problem};
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

    // Fixed granularity plus a 2-way quorum: every unit needs two
    // byte-identical votes from untrusted donors before it folds.
    pub(crate) fn quorum_cfg() -> SchedulerConfig {
        SchedulerConfig {
            quorum_k: 2,
            reputation_threshold: 1_000,
            ..fixed_cfg()
        }
    }

    /// Donors 1 and 2 take turns until both are told `Finished`.
    pub(crate) fn drive_quorum(server: &mut Server, mut now: f64) {
        let mut finished = 0;
        while finished < 2 {
            finished = 0;
            for c in [1usize, 2] {
                match server.request_work(c, now) {
                    Assignment::Unit {
                        problem,
                        unit,
                        algorithm,
                    } => {
                        let r = algorithm.compute(&unit);
                        now += 1.0;
                        server.submit_result(c, problem, r, now);
                    }
                    Assignment::Wait => now += 1.0,
                    Assignment::Finished => finished += 1,
                }
            }
            assert!(now < 1e6, "quorum run must make progress");
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

    #[test]
    fn kill_mid_quorum_recovers_without_double_combine() {
        let path = temp_log("midquorum");
        let n = 50_000;
        let writer = CheckpointWriter::create(&path).unwrap();
        let mut server = Server::new(quorum_cfg());
        let pid = server.submit(integration_problem(n));
        server.set_journal(Box::new(writer.clone()));
        // Donor 0 casts the first of two required votes on the first
        // unit; the server crashes before anyone seconds it.
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(0, 0.0)
        else {
            panic!("work must be available")
        };
        let first = algorithm.compute(&unit);
        assert!(server.submit_result(0, problem, first, 1.0));
        assert_eq!(
            server.stats(pid).completed_units,
            0,
            "no fold before quorum"
        );
        writer.commit(); // the donor was answered, so the pump had committed
        drop(server); // the crash, mid-election

        let (mut recovered, report) =
            recover(quorum_cfg(), vec![integration_problem(n)], &path).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(report.replayed_results, 0);
        assert_eq!(report.pending_restored, 1);
        assert_eq!(report.restored_votes, 1);

        // Two fresh donors finish the run: the restored vote plus one
        // live agreeing result resolves the interrupted election, and
        // every later unit gathers its two votes normally.
        drive_quorum(&mut recovered, 1.0);
        let pi = recovered.take_output(pid).unwrap().into_inner::<f64>();
        assert_eq!(
            pi.to_bits(),
            sequential_pi(n).to_bits(),
            "exactly-once fold across a mid-quorum crash"
        );
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

    #[test]
    fn restored_votes_never_fold_without_a_live_result() {
        let mut server = quorum_server(
            SchedulerConfig {
                quorum_k: 3,
                enable_redundant_dispatch: false,
                ..Default::default()
            },
            10,
            100,
        );
        // Recover the single unit as pending with a full set of
        // checkpointed votes; the cap must leave the quorum one short.
        let hint = server.scheduler().donor(0).hint;
        let unit = server.replay_issue(0, 0, hint).expect("unit 0");
        let uid = unit.id;
        server.restore_pending(0, vec![unit]);
        let encoded = {
            let mut w = crate::codec::ByteWriter::new();
            w.u64(55);
            w.into_bytes()
        };
        server.restore_votes(
            0,
            uid,
            2,
            &[(7, encoded.clone()), (8, encoded.clone()), (9, encoded)],
        );
        assert!(!server.all_complete(), "restored votes alone never fold");
        // A live recomputation completes the vote exactly once.
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(0, 1.0)
        else {
            panic!("restored unit must be reissued")
        };
        assert_eq!(unit.id, uid);
        let r = algorithm.compute(&unit);
        assert!(server.submit_result(0, problem, r, 2.0));
        assert!(server.all_complete());
        assert_eq!(server.stats(0).completed_units, 1);
        assert_eq!(
            server.take_output(0).unwrap().into_inner::<u64>(),
            10 * 11 / 2
        );
    }
}
