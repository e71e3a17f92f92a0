//! The server: multi-problem unit dispatch with fault tolerance.
//!
//! Backend-independent — both the simulated and the TCP backend drive
//! the same `Server` with (virtual or wall-clock) timestamps, so every
//! scheduling behaviour exercised by the experiments is also the
//! behaviour the correctness tests see. Crash recovery — rebuilding a
//! `Server` from the log its [`RunJournal`] wrote — is [`recovery`].

use crate::codec::{ByteReader, ByteWriter, WireCodec, WireError};
use crate::leases::{InFlight, Lease, LeaseTable};
use crate::problem::{Algorithm, Payload, Problem, TaskResult, UnitId, WorkUnit};
use crate::sched::{ClientId, Donor, DonorSnapshot, Scheduler, SchedulerConfig};
use crate::telemetry::{EventKind, Telemetry, LATENCY_BOUNDS, OPS_BOUNDS};
use std::collections::BTreeMap;
use std::sync::Arc;

pub mod recovery;
pub use recovery::{recover, recover_traced, RecoveryReport};

/// Identifies a submitted problem.
pub type ProblemId = usize;

/// Observer of the durable events a crash-recoverable run must replay:
/// which units the data managers issued (and with what granularity
/// hint), which results were folded in and, periodically, every donor
/// record. A recoverable TCP
/// run installs a [`crate::net::CheckpointWriter`] here, its one way
/// into the log, and [`recovery`] replays what it wrote; the in-process
/// backends leave it unset and pay nothing.
///
/// Events are reported inside the server's own critical section, in
/// exactly the order the data managers observed them — replaying the
/// journal against fresh data managers reproduces their state.
pub trait RunJournal: Send {
    /// A fresh unit was pulled from `problem`'s data manager with
    /// granularity hint `hint_ops` (reissues and redundant dispatches
    /// of an already-issued unit are not reported).
    fn unit_issued(&mut self, problem: ProblemId, unit: &WorkUnit, hint_ops: f64);
    /// An accepted (first-copy, checksum-clean) result is about to be
    /// folded; `encoded` is its codec wire form.
    fn result_folded(&mut self, problem: ProblemId, unit: UnitId, encoded: &[u8]);
    /// A donor's turn opens / has closed: everything reported in
    /// between belongs to it, in order, with nothing else written to the
    /// same log meanwhile (the caller holds the server). A journal may
    /// take them as one batch; the default takes each as it comes.
    fn begin_turn(&mut self) {}
    /// See [`RunJournal::begin_turn`].
    fn end_turn(&mut self) {}
    /// Everything reported so far must be durable before this returns:
    /// the caller is about to tell a donor something (an assignment, an
    /// ack) that the reported events justify. A journal that makes each
    /// event durable as it is reported — the default — has nothing to
    /// do; one that groups events writes its open group here.
    fn commit(&mut self) {}
    /// The server process is "dying" (a simulated crash): events
    /// reported since the last [`RunJournal::commit`] are dropped, as a
    /// real crash would have lost them. Default no-op, like `commit`.
    fn discard(&mut self) {}
    /// A snapshot of every donor record ([`Server::snapshot_donors`],
    /// between turns); the last one a log holds is what recovery
    /// restores. Default no-op.
    fn donors_snapshotted(&mut self, snap: &DonorSnapshot) {
        let _ = snap;
    }
}

/// The server's answer to a work request.
pub enum Assignment {
    /// Compute this unit with this algorithm and report back.
    Unit {
        /// Problem the unit belongs to.
        problem: ProblemId,
        /// The unit (shared so it can be redundantly dispatched).
        unit: Arc<WorkUnit>,
        /// The client-side computation.
        algorithm: Arc<dyn Algorithm>,
    },
    /// No unit available right now (stage barrier); ask again later.
    Wait,
    /// Every problem is complete; the client may shut down.
    Finished,
}

/// What the donor should do after a [turn](Server::turn_wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Then {
    /// Everything asked for was leased: ask again when there is room.
    More,
    /// The server ran out of units to give (a stage barrier, the tail
    /// of the run): pause before asking again.
    Wait,
    /// Every problem is complete; the donor may shut down.
    Finished,
}

/// The server's answer to a [turn](Server::turn_wire).
pub struct TurnOutcome {
    /// The ruling on each result, in order ([`Server::submit_result`]'s).
    pub accepted: Vec<bool>,
    /// The units leased, at most as many as were wanted.
    pub units: Vec<(ProblemId, Arc<WorkUnit>)>,
    /// Whether to keep asking.
    pub then: Then,
}

struct ProblemState {
    name: String,
    dm: Box<dyn crate::problem::DataManager>,
    algorithm: Arc<dyn Algorithm>,
    setup_bytes: u64,
    codec: Option<Arc<dyn WireCodec>>,
    // Which unit is out, with whom, until when, and what goes out next.
    leases: LeaseTable,
    done: bool,
    output: Option<Payload>,
    completion_time: Option<f64>,
    stats: ProblemStats,
}

/// Per-problem dispatch statistics, reported by the experiment harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProblemStats {
    /// Units whose result was folded into the data manager.
    pub completed_units: u64,
    /// Total unit assignments handed out (≥ completed, the overhead
    /// being redundant dispatches and reissues).
    pub assignments: u64,
    /// Assignments that were redundant end-game copies.
    pub redundant_dispatches: u64,
    /// Leases that expired and were queued for reissue.
    pub reissued_units: u64,
    /// Results discarded because another copy finished first.
    pub wasted_results: u64,
    /// Results that arrived corrupted (failed the transport checksum)
    /// and whose unit was cancelled and queued for reissue.
    pub corrupted_results: u64,
}

/// One donor's row in a [`StatusSnapshot`]: its speed estimate and
/// deliveries plus its live lease count.
#[derive(Debug, Clone, PartialEq)]
pub struct DonorStatus {
    /// Donor id.
    pub client: ClientId,
    /// Estimated throughput, ops/second.
    pub ops_per_sec: f64,
    /// Units this donor has completed.
    pub units_completed: u64,
    /// Leases the donor currently holds across all problems.
    pub leases: u32,
}

/// One problem's row in a [`StatusSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemStatus {
    /// Problem id.
    pub problem: ProblemId,
    /// Human-readable name.
    pub name: String,
    /// Whether the problem has completed.
    pub done: bool,
    /// Results folded so far.
    pub completed_units: u64,
    /// Assignments handed out so far.
    pub assignments: u64,
    /// Units currently leased out.
    pub in_flight: u32,
    /// Units waiting in the reissue queue.
    pub reissue_queue: u32,
}

/// A deterministic point-in-time cluster snapshot: every known donor
/// (sorted by id), every problem (in submission order) and the server's
/// counter registry (sorted by name). Rendered by the `biodist_top`
/// bench bin and shipped over TCP as a `StatusReport` frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatusSnapshot {
    /// Backend time the snapshot was taken.
    pub now: f64,
    /// Donor rows, sorted by client id.
    pub donors: Vec<DonorStatus>,
    /// Problem rows, in submission order.
    pub problems: Vec<ProblemStatus>,
    /// `(name, value)` counters, sorted by name; each donor's
    /// last-reported `donor.c<id>.pipeline_depth` gauge rides among
    /// them (see [`StatusSnapshot::pipeline_depth`]).
    pub counters: Vec<(String, u64)>,
}

impl StatusSnapshot {
    /// The pipeline depth donor `client` last reported it runs at;
    /// `None` until a metrics report carrying one has arrived (or from
    /// an origin that does not publish it).
    pub fn pipeline_depth(&self, client: ClientId) -> Option<u64> {
        let name = format!("donor.c{client}.pipeline_depth");
        let at = self
            .counters
            .binary_search_by(|(k, _)| k.as_str().cmp(&name));
        at.ok().map(|i| self.counters[i].1)
    }

    /// Serializes the snapshot for the wire.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.f64(self.now);
        w.u32(self.donors.len() as u32);
        for d in &self.donors {
            w.u64(d.client as u64);
            w.f64(d.ops_per_sec);
            w.u64(d.units_completed);
            w.u32(d.leases);
        }
        w.u32(self.problems.len() as u32);
        for p in &self.problems {
            w.u64(p.problem as u64);
            w.str(&p.name);
            w.u8(p.done as u8);
            w.u64(p.completed_units);
            w.u64(p.assignments);
            w.u32(p.in_flight);
            w.u32(p.reissue_queue);
        }
        w.u32(self.counters.len() as u32);
        for (k, v) in &self.counters {
            w.str(k);
            w.u64(*v);
        }
        w.into_bytes()
    }

    /// Parses a wire-encoded snapshot.
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let now = r.f64()?;
        let mut donors = Vec::new();
        for _ in 0..r.count(28)? {
            donors.push(DonorStatus {
                client: r.u64()? as ClientId,
                ops_per_sec: r.f64()?,
                units_completed: r.u64()?,
                leases: r.u32()?,
            });
        }
        let mut problems = Vec::new();
        for _ in 0..r.count(37)? {
            problems.push(ProblemStatus {
                problem: r.u64()? as ProblemId,
                name: r.str()?,
                done: r.u8()? != 0,
                completed_units: r.u64()?,
                assignments: r.u64()?,
                in_flight: r.u32()?,
                reissue_queue: r.u32()?,
            });
        }
        let mut counters = Vec::new();
        for _ in 0..r.count(12)? {
            counters.push((r.str()?, r.u64()?));
        }
        r.finish()?;
        Ok(Self {
            now,
            donors,
            problems,
            counters,
        })
    }

    /// Renders the snapshot as one deterministic JSON object (fixed
    /// field order, donors/counters pre-sorted), the schema
    /// `biodist_top --once` prints and the ops-smoke CI job checks.
    pub fn to_json(&self) -> String {
        use crate::telemetry::{fmt_f64, json_string};
        let donors: Vec<String> = self
            .donors
            .iter()
            .map(|d| {
                format!(
                    "{{\"client\":{},\"ops_per_sec\":{},\"units_completed\":{},\
                     \"leases\":{}}}",
                    d.client,
                    fmt_f64(d.ops_per_sec),
                    d.units_completed,
                    d.leases,
                )
            })
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| {
                format!(
                    "{{\"problem\":{},\"name\":{},\"done\":{},\"completed_units\":{},\
                     \"assignments\":{},\"in_flight\":{},\"reissue_queue\":{}}}",
                    p.problem,
                    json_string(&p.name),
                    p.done,
                    p.completed_units,
                    p.assignments,
                    p.in_flight,
                    p.reissue_queue,
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect();
        format!(
            "{{\"now\":{},\"donors\":[{}],\"problems\":[{}],\"counters\":{{{}}}}}",
            fmt_f64(self.now),
            donors.join(","),
            problems.join(","),
            counters.join(","),
        )
    }
}

/// The distributed system's server (paper §2.1).
pub struct Server {
    sched: Scheduler,
    problems: Vec<ProblemState>,
    // The problem whose turn it is to lease fresh work (round-robin).
    rotation: usize,
    journal: Option<Box<dyn RunJournal>>,
    telemetry: Telemetry,
    // The units a turn folded, freed one before each lease it grants
    // (empty between turns; reused, so it allocates nothing).
    retired: Vec<Arc<WorkUnit>>,
}

impl Server {
    /// Creates a server with the given scheduler configuration.
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self {
            sched: Scheduler::new(cfg),
            problems: Vec::new(),
            rotation: 0,
            journal: None,
            telemetry: Telemetry::default(),
            retired: Vec::new(),
        }
    }

    /// Installs a durability journal; every subsequent unit issue and
    /// result fold is reported to it (see [`RunJournal`]).
    pub fn set_journal(&mut self, journal: Box<dyn RunJournal>) {
        self.journal = Some(journal);
    }

    /// Makes every journaled event durable ([`RunJournal::commit`]).
    /// A transport calls this after handling a batch of requests and
    /// before any of their replies can reach a donor.
    pub fn commit_journal(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.commit();
        }
    }

    /// Drops the journal's uncommitted events ([`RunJournal::discard`]):
    /// the crash half of a kill-and-recover test.
    pub fn discard_journal(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.discard();
        }
    }

    /// Reports every donor record to the journal
    /// ([`RunJournal::donors_snapshotted`]); without a journal, builds
    /// no snapshot. The TCP origin's shard 0 calls this every few ticks.
    pub fn snapshot_donors(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.donors_snapshotted(&self.sched.snapshot());
        }
    }

    /// Installs a telemetry domain: lifecycle events and metrics flow
    /// into it from every subsequent server call, and the handle is
    /// propagated to every data manager (already-submitted and future)
    /// so applications can record their own events.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        for pid in 0..self.problems.len() {
            self.announce(pid);
        }
    }

    // Hands problem `id`'s data manager the telemetry; records the submission.
    fn announce(&mut self, id: ProblemId) {
        let (tel, p) = (&self.telemetry, &mut self.problems[id]);
        p.dm.attach_telemetry(tel.clone(), id);
        tel.emit(EventKind::ProblemSubmitted {
            problem: id,
            name: p.name.clone(),
        });
    }

    /// The server's telemetry handle (disabled unless
    /// [`Server::set_telemetry`] installed a live one). Backends clone
    /// it to stamp their own events.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Submits a problem; returns its id. Problems may be submitted at
    /// any time, including while others are running: when several have
    /// work available, assignments go round-robin over them.
    pub fn submit(&mut self, problem: Problem) -> ProblemId {
        let id = self.problems.len();
        self.problems.push(ProblemState {
            name: problem.name,
            dm: problem.data_manager,
            algorithm: problem.algorithm,
            setup_bytes: problem.setup_bytes,
            codec: problem.codec,
            leases: LeaseTable::default(),
            done: false,
            output: None,
            completion_time: None,
            stats: ProblemStats::default(),
        });
        if self.telemetry.is_enabled() {
            self.announce(id);
        }
        id
    }

    /// Number of submitted problems.
    pub fn problem_count(&self) -> usize {
        self.problems.len()
    }

    /// Name of a problem.
    pub fn problem_name(&self, id: ProblemId) -> &str {
        &self.problems[id].name
    }

    /// Setup download size of a problem (for the simulated network).
    pub fn setup_bytes(&self, id: ProblemId) -> u64 {
        self.problems[id].setup_bytes
    }

    /// Whether every submitted problem has completed.
    pub fn all_complete(&self) -> bool {
        self.problems.iter().all(|p| p.done)
    }

    /// Whether a specific problem has completed.
    pub fn is_complete(&self, id: ProblemId) -> bool {
        self.problems[id].done
    }

    /// Virtual/wall time at which a problem completed.
    pub fn completion_time(&self, id: ProblemId) -> Option<f64> {
        self.problems[id].completion_time
    }

    /// Dispatch statistics for a problem.
    pub fn stats(&self, id: ProblemId) -> ProblemStats {
        self.problems[id].stats
    }

    /// Takes the final output of a completed problem.
    pub fn take_output(&mut self, id: ProblemId) -> Option<Payload> {
        self.problems[id].output.take()
    }

    /// Read access to the scheduler (for reports).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Every problem's [`LeaseTable::audit`] violations (none, at any time).
    pub fn audit(&self) -> Vec<String> {
        let found = self.problems.iter().map(|p| p.leases.audit()).enumerate();
        found
            .flat_map(|(pid, v)| v.into_iter().map(move |v| format!("problem {pid}: {v}")))
            .collect()
    }

    /// The client-side computation of a problem (the TCP backend ships
    /// it to in-process donor threads; a real deployment would ship
    /// code, which stays out of scope — DESIGN.md substitution table).
    pub fn algorithm(&self, id: ProblemId) -> Arc<dyn Algorithm> {
        self.problems[id].algorithm.clone()
    }

    /// The payload codec of a problem, if one was registered.
    pub fn codec(&self, id: ProblemId) -> Option<Arc<dyn WireCodec>> {
        self.problems[id].codec.clone()
    }

    /// Earliest lease deadline across every unfinished problem
    /// (`+inf` when nothing is in flight).
    pub fn earliest_lease_deadline(&self) -> f64 {
        let open = self.problems.iter().filter(|p| !p.done);
        open.fold(f64::INFINITY, |t, p| t.min(p.leases.earliest_deadline()))
    }

    /// A client asks for work at time `now`: a turn of one unit.
    pub fn request_work(&mut self, client: ClientId, now: f64) -> Assignment {
        self.telemetry.set_now(now);
        if self.all_complete() {
            return Assignment::Finished;
        }
        let donor = self.sched.donor(client);
        match self.lease_one(&donor, now, &mut true) {
            Some((problem, unit)) => Assignment::Unit {
                problem,
                unit,
                algorithm: self.problems[problem].algorithm.clone(),
            },
            None => Assignment::Wait,
        }
    }

    /// One donor turn at time `now`: every result is folded as by
    /// [`Server::submit_result`], in order, then — overdue leases
    /// expired once, the donor looked up once — up to `want` units are
    /// leased as by [`Server::request_work`]. Two things are judged for
    /// the turn as a whole. Its results reach the server in the same
    /// instant, so each one's turnaround is divided by what the donor
    /// delivered while its lease was out *by the end of the turn* (the
    /// first is not k times slower than the last). And it is granted at
    /// most one extra copy of an in-flight unit (the end-game's): the
    /// rest of its `want` is fresh or reissued work or nothing, so the
    /// end-game hands a deep pipeline one redundant copy per round trip.
    ///
    /// The results are codec bytes off a wire (`None`: a failed
    /// checksum; bytes the codec refuses are corrupted too). Each is
    /// decoded, taken out of its lease table and ruled on in one pass;
    /// the journal takes the bytes.
    pub fn turn_wire<'w>(
        &mut self,
        client: ClientId,
        now: f64,
        results: impl ExactSizeIterator<Item = (ProblemId, UnitId, Option<&'w [u8]>)>,
        want: usize,
    ) -> TurnOutcome {
        self.telemetry.set_now(now);
        if let Some(j) = self.journal.as_mut() {
            j.begin_turn();
        }
        let mut accepted = Vec::with_capacity(results.len());
        let mut completions = Vec::with_capacity(results.len());
        for (problem, unit_id, bytes) in results {
            let Some(p) = self.problems.get(problem) else {
                accepted.push(false); // garbage id: nack
                continue;
            };
            let codec = p.codec.as_ref();
            let Some(payload) = codec.zip(bytes).and_then(|(c, b)| c.decode_result(b).ok()) else {
                self.result_corrupted(client, problem, unit_id, now);
                accepted.push(false);
                continue;
            };
            // (An earlier result of the turn may have completed the
            // problem: its table is gone.)
            let Some(inf) = self.problems[problem].leases.take(unit_id) else {
                self.wasted(problem, unit_id, client);
                accepted.push(false);
                continue;
            };
            let completion = Self::completion(&inf, client, now);
            completions.extend(completion);
            let latency = completion.map(|c| c.1);
            let result = TaskResult { unit_id, payload };
            let folded = self.fold(client, problem, result, bytes, inf, now, latency);
            self.retired.push(folded);
            accepted.push(true);
        }
        self.learn(client, &completions);
        let units = Vec::with_capacity(want);
        let (mut out, mut extra) = (
            TurnOutcome {
                accepted,
                units,
                then: Then::More,
            },
            true,
        );
        if self.all_complete() {
            out.then = Then::Finished;
        } else if want > 0 {
            self.check_timeouts(now);
            let donor = self.sched.donor(client);
            while out.units.len() < want && out.then == Then::More {
                // Free a folded unit's blocks for the new unit to take:
                // malloc's per-thread cache holds 7 blocks a size, which
                // k frees and then k allocations overflow both ways.
                drop(self.retired.pop());
                match self.lease_one(&donor, now, &mut extra) {
                    Some(leased) => out.units.push(leased),
                    None => out.then = Then::Wait,
                }
            }
        }
        self.retired.clear();
        if let Some(j) = self.journal.as_mut() {
            j.end_turn();
        }
        out
    }

    // Leases `donor` its next unit. `extra`: an extra copy of an
    // in-flight unit may still be granted (cleared by granting one).
    fn lease_one(
        &mut self,
        donor: &Donor,
        now: f64,
        extra: &mut bool,
    ) -> Option<(ProblemId, Arc<WorkUnit>)> {
        let n = self.problems.len();

        // Fresh or reissued units first, round-robin over problems.
        for k in 0..n {
            let pid = (self.rotation + k) % n;
            if self.problems[pid].done {
                continue;
            }
            if let Some(unit) = self.next_unit_for(pid, donor.hint) {
                self.rotation = (pid + 1) % n;
                return Some(self.lease_and_assign(pid, unit, donor, now, false));
            }
        }

        // Then the end-game: one more copy of the longest-running
        // in-flight unit this client is not computing.
        if !*extra {
            return None;
        }
        let cap = self.sched.copy_cap();
        let picks = self.problems.iter().enumerate().filter_map(|(pid, p)| {
            let pick = p.leases.extra_copy(donor.client, cap)?;
            Some((pid, pick))
        });
        // (`min_by` keeps the first of equals: the lowest problem id.)
        let (pid, pick) = picks.min_by(|(_, a), (_, b)| a.rank.0.total_cmp(&b.rank.0))?;
        *extra = false;
        Some(self.lease_and_assign(pid, pick.unit, donor, now, true))
    }

    // The next unit of `pid`, sized by `hint` if it is fresh.
    fn next_unit_for(&mut self, pid: ProblemId, hint: f64) -> Option<Arc<WorkUnit>> {
        let p = &mut self.problems[pid];
        // Reissue queue first, always: orphaned units go back out before
        // fresh ones.
        if let Some(unit) = p.leases.next_queued() {
            return Some(unit);
        }
        // Fresh work, pulled on demand; every pull is journaled (a crash
        // before the lease recovers the unit as pending).
        let unit = p.dm.next_unit(hint)?;
        if let Some(j) = self.journal.as_mut() {
            j.unit_issued(pid, &unit, hint);
        }
        let tel = &self.telemetry;
        tel.emit(EventKind::UnitCreated {
            problem: pid,
            unit: unit.id,
            cost_ops: unit.cost_ops,
        });
        tel.observe("server.unit_cost_ops", OPS_BOUNDS, unit.cost_ops);
        Some(Arc::new(unit))
    }

    fn lease_and_assign(
        &mut self,
        pid: ProblemId,
        unit: Arc<WorkUnit>,
        donor: &Donor,
        now: f64,
        redundant: bool,
    ) -> (ProblemId, Arc<WorkUnit>) {
        let client = donor.client;
        // Exponential backoff: every expiry doubles the next lease (the
        // scheduler clamps both the count and the length).
        let expiries = self.problems[pid].leases.expiries(unit.id);
        let deadline =
            self.sched
                .lease_deadline_jittered(donor, unit.cost_ops, now, expiries, unit.id);
        self.telemetry.emit(EventKind::UnitIssued {
            problem: pid,
            unit: unit.id,
            client,
            redundant,
        });
        let p = &mut self.problems[pid];
        self.telemetry.counter_add("server.assignments", 1);
        p.stats.assignments += 1;
        if redundant {
            self.telemetry.counter_add("server.redundant_dispatches", 1);
            p.stats.redundant_dispatches += 1;
        }
        let lease = Lease {
            client,
            assigned_at: now,
            completed_before: donor.completed,
            deadline,
        };
        p.leases.grant(&unit, lease);
        (pid, unit)
    }

    /// A client reports a result at time `now`: a turn of one result.
    /// Returns `true` if the result was folded and `false` if it was
    /// discarded.
    pub fn submit_result(
        &mut self,
        client: ClientId,
        problem: ProblemId,
        result: TaskResult,
        now: f64,
    ) -> bool {
        self.telemetry.set_now(now);
        // (In flight, or queued for reissue after its lease expired under
        // a slow client: that result is perfectly valid too.)
        let Some(inf) = self.problems[problem].leases.take(result.unit_id) else {
            self.wasted(problem, result.unit_id, client);
            return false;
        };
        let completion = Self::completion(&inf, client, now);
        self.learn(client, completion.as_slice());
        let latency = completion.map(|c| c.1);
        self.fold(client, problem, result, None, inf, now, latency);
        true
    }

    // What the adaptive scheduler learns from `client` handing in the
    // unit `inf` at `now` — `(cost in ops, turnaround, its deliveries
    // when the lease was granted)` — if it held a lease on it.
    fn completion(inf: &InFlight, client: ClientId, now: f64) -> Option<(f64, f64, (u64, f64))> {
        let lease = inf.lease_of(client)?;
        let turnaround = now - lease.assigned_at;
        Some((inf.unit.cost_ops, turnaround, lease.completed_before))
    }

    // Feeds the adaptive scheduler a turn's completions, in order — the
    // donor is constant for the turn, so its record is looked up once
    // (no fold reads what this writes). (Gauges are last-write-wins: once
    // per turn leaves the registry what once per result did.)
    fn learn(&mut self, client: ClientId, completions: &[(f64, f64, (u64, f64))]) {
        if completions.is_empty() {
            return;
        }
        // What the donor delivered while a lease was out: its counters at
        // the turn's end less the unit. (Saturating: a departed client's
        // counts start over.)
        let start = self.sched.donor(client).completed;
        let (units, ops) = completions.iter().fold(start, |(u, o), c| (u + 1, o + c.0));
        let queued = completions.iter().map(|&(cost, turnaround, before)| {
            let ahead = ((units - 1).saturating_sub(before.0), ops - cost - before.1);
            let queue_factor = Scheduler::queue_factor(cost, ahead.0, ahead.1.max(0.0));
            (cost, turnaround, queue_factor)
        });
        self.sched.record_completions(client, queued);
        self.sched.export_client_metrics(client, &self.telemetry);
    }

    // Folds one result whose unit `inf` was just taken out of the lease
    // table; `wire`: the codec bytes it was decoded from, if it came off
    // a wire; `latency`: its turnaround, if `client` held a lease on it
    // (the caller tells the scheduler). Returns the unit, for the caller
    // to free.
    #[allow(clippy::too_many_arguments)]
    fn fold(
        &mut self,
        client: ClientId,
        problem: ProblemId,
        result: TaskResult,
        wire: Option<&[u8]>,
        inf: InFlight,
        now: f64,
        latency: Option<f64>,
    ) -> Arc<WorkUnit> {
        let p = &mut self.problems[problem];
        if let Some(latency) = latency {
            self.telemetry
                .observe("server.unit_latency", LATENCY_BOUNDS, latency);
        }
        let latency = latency.unwrap_or(0.0);

        let unit_id = result.unit_id;
        self.telemetry.emit(EventKind::UnitCompleted {
            problem,
            unit: unit_id,
            client,
            latency,
        });
        self.telemetry.counter_add("server.completed_units", 1);

        // Journal the accepted result *before* folding: a crash after
        // the log write but before the fold replays an action that was
        // about to happen; a crash during the write leaves a torn tail
        // the recovery drops, and the unit is simply recomputed.
        if let Some(j) = self.journal.as_mut() {
            let encode = |c: &Arc<dyn WireCodec>| c.encode_result(&result.payload).ok();
            if let Some(b) = wire {
                j.result_folded(problem, unit_id, b);
            } else if let Some(b) = p.codec.as_ref().and_then(encode) {
                j.result_folded(problem, unit_id, &b);
            }
        }

        p.dm.accept_result(result);
        p.stats.completed_units += 1;
        self.telemetry.emit(EventKind::UnitCombined {
            problem,
            unit: unit_id,
        });

        self.complete_problem(problem, now);
        inf.unit
    }

    // Says that `unit` was queued for reissue, and why. `counted`: a donor
    // went quiet (the stats' "reissue"), not a bad wire.
    fn reissued(&mut self, problem: ProblemId, unit: UnitId, reason: &str, counted: bool) {
        let reason = reason.to_string();
        self.telemetry.emit(EventKind::UnitReissued {
            problem,
            unit,
            reason,
        });
        if counted {
            self.problems[problem].stats.reissued_units += 1;
            self.telemetry.counter_add("server.reissued_units", 1);
        }
    }

    // Discards `client`'s result for `unit`: another copy got there first.
    fn wasted(&mut self, problem: ProblemId, unit: UnitId, client: ClientId) {
        self.problems[problem].stats.wasted_results += 1;
        self.telemetry.emit(EventKind::ResultWasted {
            problem,
            unit,
            client,
        });
        self.telemetry.counter_add("server.wasted_results", 1);
    }

    // Closes `problem` once its data manager has every result.
    fn complete_problem(&mut self, problem: ProblemId, now: f64) {
        let p = &mut self.problems[problem];
        if p.dm.is_complete() && !p.done {
            p.done = true;
            p.output = Some(p.dm.final_output());
            p.completion_time = Some(now);
            p.leases = LeaseTable::default();
            self.telemetry.emit(EventKind::ProblemCompleted { problem });
        }
    }

    /// Expires overdue leases; fully expired units are queued for
    /// reissue. Returns the number of units queued.
    pub fn check_timeouts(&mut self, now: f64) -> usize {
        self.telemetry.set_now(now);
        let mut reissued = 0;
        for pid in 0..self.problems.len() {
            // (A completed problem's table is empty: nothing is ever due.)
            let Some(moved) = self.problems[pid].leases.expire(now) else {
                continue;
            };
            for &(unit, client) in &moved.leases {
                self.telemetry.emit(EventKind::LeaseExpired {
                    problem: pid,
                    unit,
                    client,
                });
            }
            let tel = &self.telemetry;
            tel.counter_add("server.lease_expirations", moved.leases.len() as u64);
            for &unit in &moved.orphans {
                self.reissued(pid, unit, "lease_expired", true);
            }
            reissued += moved.orphans.len();
        }
        reissued
    }

    /// A client's result arrived corrupted (detected by the transport
    /// checksum): its lease on the unit is cancelled and, if no other
    /// copy is still in flight, the unit is queued for reissue. Unlike
    /// a lease expiry this does not bump the unit's backoff count — the
    /// donor was not slow, the wire was bad. Returns `true` if the
    /// corruption mattered (the unit was still pending).
    pub fn result_corrupted(
        &mut self,
        client: ClientId,
        problem: ProblemId,
        unit: UnitId,
        now: f64,
    ) -> bool {
        self.telemetry.set_now(now);
        let p = &mut self.problems[problem];
        if p.done {
            return false;
        }
        // Every detected corruption counts, even when another copy of
        // the unit already landed — the wire was bad either way. This is
        // also the *single* place the canonical `result_corrupted`
        // telemetry event is emitted: the sim/thread delivery faults and
        // the TCP frame-CRC and decode failures all route here, so the
        // trace count and `ProblemStats::corrupted_results` agree across
        // backends by construction.
        p.stats.corrupted_results += 1;
        self.telemetry.emit(EventKind::ResultCorrupted {
            problem,
            unit,
            client,
        });
        self.telemetry.counter_add("server.corrupted_results", 1);
        let Some(orphaned) = p.leases.release(unit, client) else {
            // Already completed by another copy or already queued for
            // reissue; nothing to cancel.
            return false;
        };
        if orphaned {
            self.reissued(problem, unit, "corrupted", false);
        }
        true
    }

    /// A client left the pool (churn): its leases are cancelled and any
    /// unit left with no active lease is queued for reissue.
    pub fn client_gone(&mut self, client: ClientId) {
        self.telemetry.emit(EventKind::ClientLost { client });
        for pid in 0..self.problems.len() {
            for unit in self.problems[pid].leases.release_client(client).orphans {
                self.reissued(pid, unit, "client_lost", true);
            }
        }
        self.sched.forget_client(client);
    }

    // ---- live status (ops plane) ----

    /// Captures a deterministic point-in-time cluster snapshot: the
    /// donor table is every client the scheduler knows or a lease table
    /// names, sorted by id, one scheduler record each; counters come
    /// from the server's telemetry registry (empty when telemetry is
    /// disabled), and with them — same list, same
    /// wire layout — the `donor.c<id>.pipeline_depth` gauge each donor
    /// last reported.
    pub fn status_snapshot(&self, now: f64) -> StatusSnapshot {
        let known = self.sched.known_clients();
        let mut leases: BTreeMap<ClientId, u32> = known.map(|id| (id, 0)).collect();
        for p in &self.problems {
            p.leases.count_leases(&mut leases);
        }
        let donors = leases
            .into_iter()
            .map(|(id, leases)| {
                let donor = self.sched.donor(id);
                DonorStatus {
                    client: id,
                    ops_per_sec: donor.speed,
                    units_completed: donor.completed.0,
                    leases,
                }
            })
            .collect();
        let problems = self
            .problems
            .iter()
            .enumerate()
            .map(|(pid, p)| ProblemStatus {
                problem: pid,
                name: p.name.clone(),
                done: p.done,
                completed_units: p.stats.completed_units,
                assignments: p.stats.assignments,
                in_flight: p.leases.in_flight_len() as u32,
                reissue_queue: p.leases.queued_len() as u32,
            })
            .collect();
        let metrics = self.telemetry.metrics_snapshot();
        let depths = metrics
            .gauges
            .into_iter()
            .filter(|(name, _)| name.starts_with("donor.c") && name.ends_with(".pipeline_depth"))
            .map(|(name, depth)| (name, depth as u64));
        let mut counters: Vec<(String, u64)> = metrics.counters.into_iter().chain(depths).collect();
        counters.sort();
        StatusSnapshot {
            now,
            donors,
            problems,
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{DataManager, Problem};

    /// A problem that sums `1..=n` in fixed chunks of `chunk` integers.
    struct SumDm {
        next: u64,
        n: u64,
        chunk: u64,
        issued: u64,
        received: u64,
        total: u64,
        next_id: UnitId,
    }

    impl SumDm {
        fn new(n: u64, chunk: u64) -> Self {
            Self {
                next: 1,
                n,
                chunk,
                issued: 0,
                received: 0,
                total: 0,
                next_id: 0,
            }
        }
    }

    impl DataManager for SumDm {
        fn next_unit(&mut self, _hint: f64) -> Option<WorkUnit> {
            if self.next > self.n {
                return None;
            }
            let lo = self.next;
            let hi = (lo + self.chunk - 1).min(self.n);
            self.next = hi + 1;
            self.issued += 1;
            let id = self.next_id;
            self.next_id += 1;
            Some(WorkUnit {
                id,
                payload: Payload::new((lo, hi), 16),
                cost_ops: (hi - lo + 1) as f64,
            })
        }
        fn accept_result(&mut self, result: TaskResult) {
            self.total += result.payload.into_inner::<u64>();
            self.received += 1;
        }
        fn is_complete(&self) -> bool {
            self.next > self.n && self.received == self.issued
        }
        fn final_output(&mut self) -> Payload {
            Payload::new(self.total, 8)
        }
    }

    struct SumAlgo;
    impl Algorithm for SumAlgo {
        fn compute(&self, unit: &WorkUnit) -> TaskResult {
            let &(lo, hi) = unit.payload.downcast_ref::<(u64, u64)>().unwrap();
            TaskResult {
                unit_id: unit.id,
                payload: Payload::new((lo..=hi).sum::<u64>(), 8),
            }
        }
    }

    pub(super) fn sum_problem(n: u64, chunk: u64) -> Problem {
        Problem::new("sum", Box::new(SumDm::new(n, chunk)), Arc::new(SumAlgo))
    }

    pub(super) fn drive_to_completion(server: &mut Server, clients: &[ClientId]) -> Vec<u64> {
        let mut now = 0.0;
        let mut outputs = Vec::new();
        let mut guard = 0;
        loop {
            let mut any = false;
            for &c in clients {
                match server.request_work(c, now) {
                    Assignment::Unit {
                        problem,
                        unit,
                        algorithm,
                    } => {
                        let result = algorithm.compute(&unit);
                        now += 1.0;
                        server.submit_result(c, problem, result, now);
                        any = true;
                    }
                    Assignment::Wait => {}
                    Assignment::Finished => {
                        for pid in 0..server.problem_count() {
                            if let Some(out) = server.take_output(pid) {
                                outputs.push(out.into_inner::<u64>());
                            }
                        }
                        return outputs;
                    }
                }
            }
            if !any {
                now += 1.0;
            }
            guard += 1;
            assert!(guard < 100_000, "server failed to converge");
        }
    }

    #[test]
    fn units_go_out_in_the_order_they_were_made() {
        // Reissued units first, front first, then fresh ones pulled on
        // demand, in the order the data manager makes them.
        let mut server = Server::new(SchedulerConfig {
            enable_redundant_dispatch: false,
            ..Default::default()
        });
        server.submit(sum_problem(60, 10)); // units 0..=5
        let next = |server: &mut Server, client: ClientId| {
            let Assignment::Unit { unit, .. } = server.request_work(client, 0.0) else {
                panic!("client {client} was refused")
            };
            unit.id
        };
        let fresh: Vec<_> = (0..4).map(|c| next(&mut server, c)).collect();
        assert_eq!(fresh, [0, 1, 2, 3]);
        // Donors 2 and then 0 leave: their units queue in that order.
        server.client_gone(2);
        server.client_gone(0);
        let then: Vec<_> = (4..8).map(|c| next(&mut server, c)).collect();
        assert_eq!(then, [2, 0, 4, 5], "the reissue queue is FIFO");
    }

    #[test]
    fn single_problem_completes_with_correct_answer() {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(sum_problem(1000, 64));
        let outputs = drive_to_completion(&mut server, &[0, 1, 2]);
        assert_eq!(outputs, vec![1000 * 1001 / 2]);
        let stats = server.stats(0);
        assert_eq!(stats.completed_units, 16);
        assert!(server.all_complete());
    }

    #[test]
    fn multiple_problems_interleave_round_robin() {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(sum_problem(100, 10));
        server.submit(sum_problem(200, 10));
        // Two consecutive requests should come from different problems.
        let a = match server.request_work(0, 0.0) {
            Assignment::Unit { problem, .. } => problem,
            _ => panic!("expected a unit"),
        };
        let b = match server.request_work(1, 0.0) {
            Assignment::Unit { problem, .. } => problem,
            _ => panic!("expected a unit"),
        };
        assert_ne!(a, b, "fair share must rotate across problems");
        let outputs = drive_to_completion(&mut server, &[0, 1, 2, 3]);
        let mut sorted = outputs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![100 * 101 / 2, 200 * 201 / 2]);
    }

    #[test]
    fn expired_lease_is_reissued_and_completed_by_another_client() {
        let mut server = Server::new(SchedulerConfig {
            lease_min_secs: 10.0,
            ..Default::default()
        });
        server.submit(sum_problem(10, 100)); // single unit
                                             // Client 0 takes the unit and vanishes.
        let Assignment::Unit { .. } = server.request_work(0, 0.0) else {
            panic!("expected unit");
        };
        assert_eq!(server.check_timeouts(5.0), 0, "lease still valid");
        assert_eq!(server.check_timeouts(100.0), 1, "lease expired");
        // Client 1 picks up the reissued unit.
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(1, 101.0)
        else {
            panic!("expected reissued unit");
        };
        let result = algorithm.compute(&unit);
        assert!(server.submit_result(1, problem, result, 102.0));
        assert!(server.all_complete());
        assert_eq!(server.stats(0).reissued_units, 1);
    }

    #[test]
    fn duplicate_result_is_discarded() {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(sum_problem(10, 5)); // two units
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(0, 0.0)
        else {
            panic!()
        };
        // Redundant copy of the same unit for client 1 would need the
        // end-game; emulate a duplicate by computing twice.
        let r1 = algorithm.compute(&unit);
        let r2 = algorithm.compute(&unit);
        assert!(server.submit_result(0, problem, r1, 1.0));
        assert!(
            !server.submit_result(0, problem, r2, 2.0),
            "duplicate discarded"
        );
        assert_eq!(server.stats(0).wasted_results, 1);
    }

    #[test]
    fn endgame_dispatches_redundant_copy() {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(sum_problem(10, 100)); // single unit
        let Assignment::Unit { unit: u0, .. } = server.request_work(0, 0.0) else {
            panic!()
        };
        // No fresh units left; client 1 should get a redundant copy.
        let Assignment::Unit {
            unit: u1,
            problem,
            algorithm,
        } = server.request_work(1, 1.0)
        else {
            panic!("expected redundant dispatch")
        };
        assert_eq!(u0.id, u1.id);
        assert_eq!(server.stats(0).redundant_dispatches, 1);
        // Client 2 must NOT get a third copy (`MAX_REDUNDANCY` = 2).
        assert!(matches!(server.request_work(2, 2.0), Assignment::Wait));
        // First result wins; the run completes.
        let r = algorithm.compute(&u1);
        assert!(server.submit_result(1, problem, r, 3.0));
        assert!(server.all_complete());
    }

    #[test]
    fn naive_config_never_dispatches_redundantly() {
        let mut server = Server::new(SchedulerConfig::naive());
        server.submit(sum_problem(10, 100));
        let Assignment::Unit { .. } = server.request_work(0, 0.0) else {
            panic!()
        };
        assert!(matches!(server.request_work(1, 1.0), Assignment::Wait));
    }

    #[test]
    fn client_churn_reissues_orphaned_units() {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(sum_problem(100, 50)); // two units
        let Assignment::Unit { unit: u0, .. } = server.request_work(0, 0.0) else {
            panic!()
        };
        server.client_gone(0);
        // The orphaned unit must be reissued to the next requester.
        let Assignment::Unit { unit: u1, .. } = server.request_work(1, 1.0) else {
            panic!()
        };
        assert_eq!(u0.id, u1.id, "orphaned unit comes back first");
    }

    #[test]
    fn corrupted_result_cancels_lease_and_reissues() {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(sum_problem(10, 100)); // single unit
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(0, 0.0)
        else {
            panic!()
        };
        assert!(server.result_corrupted(0, problem, unit.id, 1.0));
        assert_eq!(server.stats(0).corrupted_results, 1);
        // The unit must come back to the next requester, and the run
        // must still finish with the right answer.
        let Assignment::Unit { unit: u1, .. } = server.request_work(1, 2.0) else {
            panic!("corrupted unit must be reissued")
        };
        assert_eq!(u1.id, unit.id);
        let r = algorithm.compute(&u1);
        assert!(server.submit_result(1, problem, r, 3.0));
        assert!(server.all_complete());
        assert_eq!(
            server.take_output(0).unwrap().into_inner::<u64>(),
            10 * 11 / 2
        );
    }

    #[test]
    fn corruption_with_a_live_redundant_copy_keeps_the_other_lease() {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(sum_problem(10, 100)); // single unit → end-game
        let Assignment::Unit { problem, unit, .. } = server.request_work(0, 0.0) else {
            panic!()
        };
        let Assignment::Unit {
            unit: u1,
            algorithm,
            ..
        } = server.request_work(1, 1.0)
        else {
            panic!("expected redundant dispatch")
        };
        assert_eq!(unit.id, u1.id);
        // Client 0's copy corrupts; client 1's lease survives, so the
        // unit is NOT queued for reissue and client 1's result lands.
        assert!(server.result_corrupted(0, problem, unit.id, 2.0));
        let r = algorithm.compute(&u1);
        assert!(server.submit_result(1, problem, r, 3.0));
        assert!(server.all_complete());
        // Corruption after completion is a no-op.
        assert!(!server.result_corrupted(1, problem, unit.id, 4.0));
    }

    #[test]
    fn lease_backoff_is_clamped_after_many_reissues() {
        // Regression (satellite 3): before the clamp moved into the
        // scheduler, each expiry doubled the lease without an absolute
        // bound. Force hundreds of expiries of one unit and check the
        // lease length stays at the cap.
        let cfg = SchedulerConfig {
            lease_min_secs: 10.0,
            enable_redundant_dispatch: false,
            ..Default::default()
        };
        let mut server = Server::new(cfg);
        server.submit(sum_problem(10, 100)); // single unit
        let mut now = 0.0;
        for round in 0..300 {
            let Assignment::Unit { .. } = server.request_work(0, now) else {
                panic!("unit must be reissued every round (round {round})");
            };
            // The lease may never stretch past now + MAX_LEASE_SECS.
            let lease = server.earliest_lease_deadline() - now;
            assert!(lease <= crate::sched::MAX_LEASE_SECS, "round {round}");
            now += 1e6;
            assert_eq!(server.check_timeouts(now), 1, "round {round}");
        }
        assert_eq!(server.stats(0).reissued_units, 300);
        // One more cycle to show the unit is still schedulable and the
        // deadline is finite: a fresh client completes it.
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(1, now)
        else {
            panic!()
        };
        let r = algorithm.compute(&unit);
        assert!(server.submit_result(1, problem, r, now + 1.0));
        assert!(server.all_complete());
    }

    #[test]
    fn timeout_scan_tracks_earliest_deadline() {
        // Satellite: `check_timeouts` must early-exit until the clock
        // reaches the earliest tracked lease deadline, then recompute
        // it after each scan.
        let mut server = Server::new(SchedulerConfig {
            lease_min_secs: 10.0,
            enable_redundant_dispatch: false,
            ..Default::default()
        });
        server.submit(sum_problem(100, 50)); // two units
        assert_eq!(server.earliest_lease_deadline(), f64::INFINITY);
        let Assignment::Unit { .. } = server.request_work(0, 0.0) else {
            panic!()
        };
        let Assignment::Unit { .. } = server.request_work(1, 5.0) else {
            panic!()
        };
        // Leases expire at 10 and 15, give or take the 10 % jitter.
        let first = server.earliest_lease_deadline();
        assert!((first - 10.0).abs() <= 1.0, "{first}");
        // Before the earliest deadline the sweep is a no-op (early exit
        // leaves the tracked deadline untouched).
        assert_eq!(server.check_timeouts(3.0), 0);
        assert_eq!(server.earliest_lease_deadline(), first);
        // Past the first deadline: one expiry, tracker moves to 15.
        assert_eq!(server.check_timeouts(12.0), 1);
        let second = server.earliest_lease_deadline();
        assert!((second - 15.0).abs() <= 1.0, "{second}");
        // Past the second: the other lease expires, nothing in flight.
        assert_eq!(server.check_timeouts(20.0), 1);
        assert_eq!(server.earliest_lease_deadline(), f64::INFINITY);
        assert_eq!(server.stats(0).reissued_units, 2);
    }

    #[test]
    fn finished_signal_after_all_outputs() {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(sum_problem(10, 10));
        drive_to_completion(&mut server, &[0]);
        assert!(matches!(server.request_work(0, 1e6), Assignment::Finished));
        assert!(server.completion_time(0).is_some());
    }

    /// Pins the end-game's extra-copy picker on a fixed script with two
    /// problems. The stragglers' leases are granted at one instant, so
    /// the `oldest` tie must break on `(problem, unit)`.
    #[test]
    fn extra_copy_passes_pick_the_pinned_units() {
        let mut server = Server::new(SchedulerConfig {
            enable_adaptive: false, // every lease sized and priced at the prior
            ..Default::default()
        });
        let telemetry = Telemetry::enabled();
        server.set_telemetry(telemetry.clone());
        for _ in 0..2 {
            server.submit(sum_problem(120, 10));
        }
        type Held = (ClientId, ProblemId, Arc<WorkUnit>, Arc<dyn Algorithm>);
        // Every request, as `client:problem.unit`, or `client:-` when
        // the donor is told to wait.
        let log = std::cell::RefCell::new(Vec::<String>::new());
        let ask = |server: &mut Server, client: ClientId, now: f64| -> Option<Held> {
            let Assignment::Unit {
                problem,
                unit,
                algorithm,
            } = server.request_work(client, now)
            else {
                log.borrow_mut().push(format!("{client}:-"));
                return None;
            };
            let line = format!("{client}:{problem}.{}", unit.id);
            log.borrow_mut().push(line);
            Some((client, problem, unit, algorithm))
        };
        let finish = |server: &mut Server, (client, problem, unit, algorithm): Held, now: f64| {
            server.submit_result(client, problem, algorithm.compute(&unit), now)
        };
        // Donors 0 and 1 work in lock step: three rounds at the predicted
        // pace (prior 1e7 ops/s, 10 ops), then three 10x slower, folding
        // twelve of the 24 units.
        let predicted = 10.0 / 1.0e7;
        let mut now = 0.0;
        for round in 0..6 {
            let held = [0, 1].map(|client| ask(&mut server, client, now).unwrap());
            now += predicted * if round < 3 { 1.0 } else { 10.0 };
            for h in held {
                finish(&mut server, h, now);
            }
            now += 1.0;
        }
        log.take();
        // Both stragglers take two units each at one instant and stall;
        // donors 2..=5 then arrive one after another.
        for client in [0, 1, 0, 1] {
            ask(&mut server, client, now);
        }
        assert_eq!(log.take().join(" "), "0:0.6 1:1.6 0:0.7 1:1.7");
        let mut fresh = Vec::new();
        for client in 2..=5 {
            now += 0.25;
            fresh.push(ask(&mut server, client, now).unwrap());
        }
        assert_eq!(log.take().join(" "), "2:0.8 3:1.8 4:0.9 5:1.9", "fresh");
        // Donors 2 and 3 deliver, then every donor keeps asking and
        // holding: fresh units first, then the end-game's extra copies.
        // Straggler 0 takes one more unit, late.
        for h in fresh.drain(..2) {
            now += 0.25;
            assert!(finish(&mut server, h, now));
        }
        let mut rounds = Vec::new();
        for round in 0..4 {
            if round == 1 {
                now += 0.25;
                ask(&mut server, 0, now);
            }
            for client in 2..=7 {
                now += 0.25;
                ask(&mut server, client, now);
            }
            rounds.push(log.take().join(" "));
        }
        // 2..=5: the last fresh units. 6, 7: the oldest leases, granted
        // at one instant, in `(problem, unit)` order.
        assert_eq!(rounds[0], "2:0.10 3:1.10 4:0.11 5:1.11 6:0.6 7:0.7");
        // Second copies of the rest, oldest first, never to a holder;
        // then every unit is at its cap, and every donor waits.
        assert_eq!(rounds[1], "0:1.6 2:1.7 3:0.9 4:1.9 5:0.10 6:1.10 7:0.11");
        assert_eq!(rounds[2], "2:1.11 3:- 4:- 5:- 6:- 7:-");
        assert_eq!(rounds[3], "2:- 3:- 4:- 5:- 6:- 7:-");
        let counters = telemetry.metrics_snapshot();
        assert_eq!(counters.counter("server.redundant_dispatches"), 10);
    }

    #[test]
    fn a_slow_donor_is_never_rescued_with_the_end_game_off() {
        let mut server = Server::new(SchedulerConfig {
            enable_redundant_dispatch: false,
            ..Default::default()
        });
        server.submit(sum_problem(1000, 50));
        let mut now = 0.0;
        for _ in 0..6 {
            let Assignment::Unit {
                problem,
                unit,
                algorithm,
            } = server.request_work(0, now)
            else {
                panic!()
            };
            let r = algorithm.compute(&unit);
            now += 1000.0; // absurdly slow, but nothing watches
            assert!(server.submit_result(0, problem, r, now));
        }
    }

    /// The unit size the adaptive hint settles on for a donor that
    /// computes 1e6 ops a second, one unit at a time in lease order,
    /// and keeps `depth` leases — handing each result in on its own and
    /// asking for its replacement, or, `in_turns`, a pipeline's worth
    /// of both at a time.
    fn settled_unit_ops(depth: usize, in_turns: bool) -> f64 {
        const SPEED: f64 = 1e6;
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 1.0,
            min_unit_ops: 200.0,
            max_unit_ops: 1e12,
            prior_ops_per_sec: 1e3,
            // (The prior is a thousand times off: while a deep pipeline
            // turns over from units sized by it, leases priced from it
            // would expire. The hint is what is under test.)
            lease_min_secs: 1e6,
            ..Default::default()
        });
        let pid = server.submit(crate::builtin::integration_problem(1_000_000_000));
        let (algorithm, codec) = (server.algorithm(pid), server.codec(pid).unwrap());
        let mut held = std::collections::VecDeque::new();
        let (mut now, mut last) = (0.0, 0.0);
        let per_exchange = if in_turns { depth } else { 1 };
        // (Long enough for a few pipelines' worth at any depth.)
        for _ in 0..(4 * depth).max(400).div_ceil(per_exchange) {
            let want = depth - held.len();
            let leased = server.turn_wire(0, now, std::iter::empty(), want);
            assert_eq!(leased.units.len(), want, "the pool cannot run dry");
            held.extend(leased.units.into_iter().map(|(_, unit)| unit));
            let results = held.drain(..per_exchange).map(|unit| {
                now += unit.cost_ops / SPEED;
                last = unit.cost_ops;
                let bytes = codec.encode_result(&algorithm.compute(&unit).payload);
                (unit.id, bytes.unwrap())
            });
            let results: Vec<_> = results.collect();
            let results = results
                .iter()
                .map(|(unit, bytes)| (pid, *unit, Some(&bytes[..])));
            let folded = server.turn_wire(0, now, results, 0);
            assert!(folded.accepted.iter().all(|&a| a));
        }
        last
    }

    #[test]
    fn the_granularity_hint_does_not_shrink_with_the_donors_pipeline_depth() {
        // One compute ready behind the one running: a lease is out for
        // two computes, and half the donor's speed is what the hint has
        // always been sized from.
        let shallow = settled_unit_ops(2, false);
        assert!((shallow / 5e5 - 1.0).abs() < 0.05, "{shallow}");
        // 64 deep, a lease is out for 64 computes. Taken at face value
        // that is 1/32 of the units — and, over TCP, a depth that grows
        // as they shrink. A turn hands the results of all 64 in at the
        // same instant: taken one by one, the first would look 64 times
        // slower than the last. (256 is the TCP donor's ceiling.)
        for depth in [1, 2, 8, 64, crate::net::wire::MAX_PIPELINE_DEPTH] {
            // (Nothing ready behind the one running: the full speed.)
            let expect = if depth == 1 { 2.0 * shallow } else { shallow };
            for in_turns in [false, true] {
                let settled = settled_unit_ops(depth, in_turns);
                assert!(
                    (settled / expect - 1.0).abs() < 0.05,
                    "depth {depth}, in turns {in_turns}: {settled} vs {expect}"
                );
            }
        }
    }

    /// Two donors, eight deep, reach the end-game: a turn is handed at
    /// most one redundant copy, however much it asks for — a turn of
    /// one exactly what a lone request always was.
    #[test]
    fn a_turn_is_granted_at_most_one_extra_copy_of_an_in_flight_unit() {
        let mut server = Server::new(SchedulerConfig::default());
        let pid = server.submit(sum_problem(80, 10)); // eight units
        let first = server.turn_wire(0, 0.0, std::iter::empty(), 8);
        assert_eq!((first.units.len(), first.then), (8, Then::More));
        // Nothing fresh is left: donor 1 asks for a pipeline's worth
        // and gets one copy, of the longest-running unit.
        let tail = server.turn_wire(1, 1.0, std::iter::empty(), 8);
        assert_eq!(tail.then, Then::Wait);
        let copies: Vec<_> = tail.units.iter().map(|(_, u)| u.id).collect();
        assert_eq!(copies, [first.units[0].1.id]);
        assert_eq!(server.stats(pid).redundant_dispatches, 1);
        // A turn per round trip: the next one gets the next copy.
        let next = server.turn_wire(1, 2.0, std::iter::empty(), 7);
        assert_eq!((next.units.len(), next.then), (1, Then::Wait));
        // Singles are turns of one: each is still handed its copy.
        for _ in 0..3 {
            assert!(matches!(
                server.request_work(1, 3.0),
                Assignment::Unit { .. }
            ));
        }
        assert_eq!(server.stats(pid).redundant_dispatches, 5);
        assert!(server.audit().is_empty());
    }

    #[test]
    fn status_snapshot_reports_donors_problems_and_round_trips() {
        let mut server = Server::new(SchedulerConfig::default());
        server.set_telemetry(Telemetry::enabled());
        server.submit(sum_problem(100, 10));
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(3, 0.0)
        else {
            panic!()
        };
        let Assignment::Unit { .. } = server.request_work(5, 0.5) else {
            panic!()
        };
        let r = algorithm.compute(&unit);
        assert!(server.submit_result(3, problem, r, 1.0));
        // What donor 3's last metrics report said it runs at.
        server
            .telemetry()
            .gauge_set("donor.c3.pipeline_depth", 17.0);

        let snap = server.status_snapshot(2.0);
        assert_eq!(snap.now, 2.0);
        let ids: Vec<ClientId> = snap.donors.iter().map(|d| d.client).collect();
        assert_eq!(ids, vec![3, 5], "sorted union of known donors");
        let d3 = &snap.donors[0];
        assert_eq!(d3.units_completed, 1);
        assert_eq!(d3.leases, 0, "its lease resolved with the result");
        assert_eq!(snap.pipeline_depth(3), Some(17));
        assert_eq!(snap.donors[1].leases, 1, "donor 5 still computing");
        assert_eq!(snap.pipeline_depth(5), None, "no report yet");
        assert_eq!(snap.problems.len(), 1);
        assert_eq!(snap.problems[0].name, "sum");
        assert_eq!(snap.problems[0].completed_units, 1);
        assert_eq!(snap.problems[0].in_flight, 1);
        assert!(!snap.problems[0].done);

        // Wire round trip is lossless and JSON is deterministic.
        let bytes = snap.to_wire_bytes();
        let back = StatusSnapshot::from_wire_bytes(&bytes).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), snap.to_json());
        assert!(snap.to_json().starts_with("{\"now\":2,"));

        // Departure drops the donor from the next snapshot.
        server.client_gone(5);
        let after = server.status_snapshot(3.0);
        let ids: Vec<ClientId> = after.donors.iter().map(|d| d.client).collect();
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn staged_manager_wait_then_progress() {
        /// Two-stage manager: stage 2's unit is only available after
        /// stage 1's result arrives (a miniature DPRml barrier).
        struct Staged {
            stage: u8,
            in_flight: bool,
            acc: u64,
        }
        impl DataManager for Staged {
            fn next_unit(&mut self, _h: f64) -> Option<WorkUnit> {
                if self.in_flight || self.stage > 2 {
                    return None;
                }
                self.in_flight = true;
                Some(WorkUnit {
                    id: self.stage as u64,
                    payload: Payload::new(self.stage as u64, 8),
                    cost_ops: 1.0,
                })
            }
            fn accept_result(&mut self, r: TaskResult) {
                self.acc += r.payload.into_inner::<u64>();
                self.in_flight = false;
                self.stage += 1;
            }
            fn is_complete(&self) -> bool {
                self.stage > 2 && !self.in_flight
            }
            fn final_output(&mut self) -> Payload {
                Payload::new(self.acc, 8)
            }
        }
        struct Echo;
        impl Algorithm for Echo {
            fn compute(&self, unit: &WorkUnit) -> TaskResult {
                TaskResult {
                    unit_id: unit.id,
                    payload: Payload::new(*unit.payload.downcast_ref::<u64>().unwrap() * 10, 8),
                }
            }
        }
        let mut server = Server::new(SchedulerConfig {
            enable_redundant_dispatch: false,
            ..Default::default()
        });
        server.submit(Problem::new(
            "staged",
            Box::new(Staged {
                stage: 1,
                in_flight: false,
                acc: 0,
            }),
            Arc::new(Echo),
        ));
        // Client 0 gets stage 1; client 1 must Wait (barrier).
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(0, 0.0)
        else {
            panic!()
        };
        assert!(matches!(server.request_work(1, 0.1), Assignment::Wait));
        let r = algorithm.compute(&unit);
        server.submit_result(0, problem, r, 1.0);
        // Stage 2 now available.
        let Assignment::Unit {
            problem,
            unit,
            algorithm,
        } = server.request_work(1, 1.1)
        else {
            panic!("stage 2 must open after the barrier")
        };
        let r = algorithm.compute(&unit);
        server.submit_result(1, problem, r, 2.0);
        assert!(server.all_complete());
        assert_eq!(server.take_output(0).unwrap().into_inner::<u64>(), 30);
    }
}
