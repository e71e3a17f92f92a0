//! Donor client threads for the TCP backend.
//!
//! Each client is one OS thread. Like the paper's donors, which spoke
//! RMI for control and raw sockets for bulk data, it keeps the two
//! apart: one *control* connection to the origin carries `Hello`,
//! turns, heartbeats, metrics reports and `Goodbye`, and every chunk
//! endpoint — each replica, and the origin too — gets a *data*
//! connection of its own, dialed on first use and kept across units,
//! that carries only `ChunkRequest` bursts and their replies. A data
//! connection goes when a burst over it breaks or times out; a crash
//! loses them all.
//!
//! The control loop mirrors the paper's donor daemon — request work,
//! compute, submit, repeat — as an in-order pipeline sized to the round
//! trip. A turn is:
//! take every reply earlier reads already buffered (no syscall), compute
//! what is ready, write **one frame**, block. That frame, a
//! [`Frame::Turn`], carries every result computed since the last one
//! and asks for the units that replace them (a result doubles as the
//! next request); the origin answers it with one [`Frame::TurnReply`],
//! read only when nothing is ready to compute. How many units are kept
//! ready or requested — and results unacknowledged — is what the donor
//! measures: the exposed wait of a blocking read divided by the compute
//! of a unit, between [`MIN_PIPELINE_DEPTH`] and [`MAX_PIPELINE_DEPTH`].
//! With millisecond units that is [`MIN_PIPELINE_DEPTH`] and one turn of
//! one per unit, each result on the wire before the next compute starts;
//! with microsecond units a turn carries a round trip's worth of results,
//! computed in runs between a few clock readings and held back by at
//! most half the wait they share. The control connection answers its
//! numbered turns in order, so a reply that arrives ahead of an earlier
//! turn's proves that turn lost, and its results ride the next one. The
//! chunks a reply's units need are fetched as it is dispatched.
//!
//! Around that sits the robustness the real deployment needed:
//! heartbeats so the server can tell "slow" from "gone", reconnect with
//! jittered exponential backoff (re-reading the [`super::Directory`],
//! so a restarted server on a new port is found), and idempotent result
//! resubmission — a result is retired only when a reply rules on it, so
//! an ack lost to a broken connection leads to a resend, never a lost
//! unit (the server dedups).
//!
//! Each donor holds its own part of a [`FaultPlan`] — one
//! [`ClientFaults`] record, whatever the pool's size — and interprets
//! its lifecycle faults (late join, permanent departure, crash
//! windows), slowdowns and lies against the shared [`Clock`] through
//! the record the simulator reads too, so a plan tells the same story
//! on the wire as on the simulator's virtual clock. Its wire faults
//! happen at its own sockets, to the bytes it writes and reads.

use super::backoff::Backoff;
use super::cache::chunk_digest;
use super::wire::{
    encode_frame_into, encode_turn_into, DecodeError, Frame, FrameReader, FrameRef, ReadError,
    Then, HEADER_LEN, MAX_PIPELINE_DEPTH, MIN_PIPELINE_DEPTH,
};
use super::{recycle, Clock, Directory, BURST_WINDOW_BYTES, KEEP_BYTES};
use crate::codec::{ByteWriter, ChunkNeed, WireCodec};
use crate::donor::Holdings;
use crate::fault::{ClientFaults, DeliveryAction, FaultPlan};
use crate::problem::{Algorithm, Payload, WorkUnit};
use crate::server::Server;
use crate::telemetry::{EventKind, Telemetry};
use biodist_util::rng::SplitMix64;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Heartbeat cadence while idle/polling, scaled seconds.
const HEARTBEAT_INTERVAL: f64 = 0.5;
/// Socket read timeout (wall time) — the granularity at which a blocked
/// client notices shutdown flags and deadlines.
const READ_TIMEOUT_WALL: Duration = Duration::from_millis(5);
/// Sleep after a `Wait` before asking again, scaled seconds.
const POLL_INTERVAL: f64 = 0.05;
/// Modelled transfer of one frame to the origin, scaled seconds: a link
/// degraded `factor`× delays each by `factor − 1` of these.
const FRAME_TRANSFER_SECS: f64 = 0.005;

/// The reconnect backoff: 0.05 scaled seconds, doubling per consecutive
/// failure (six times at most) up to 2, with ±50% deterministic jitter.
fn reconnect_backoff() -> Backoff {
    Backoff::new(0.05, 2.0, 6)
}

/// How long, in scaled seconds, a donor awaits what it is owed before
/// it treats the connection as broken (reconnect and resubmission): a
/// turn's reply on the control connection, and progress — one more
/// chunk answered — of a chunk burst on a data connection.
const ACK_TIMEOUT: f64 = 2.0;

/// Tuning for the donor clients.
#[derive(Debug, Clone)]
pub struct NetClientOptions {
    /// Cadence at which the donor ships a [`Frame::MetricsReport`]
    /// delta snapshot of its local metrics registry (scaled seconds).
    /// 0 disables shipping. Reports are fire-and-forget: a delta lost
    /// to a broken connection is dropped, not retried — metrics are
    /// advisory, results are not.
    pub metrics_report_interval: f64,
}

impl Default for NetClientOptions {
    fn default() -> Self {
        Self {
            metrics_report_interval: 0.0,
        }
    }
}

/// The per-problem pieces a donor needs locally: the algorithm to run
/// and the codec to speak. Built from the server *before* it goes
/// behind the transport — modelling the paper's one-time shipping of
/// algorithm code to donors at problem-registration time.
#[derive(Clone)]
pub struct ClientKit {
    algorithms: Vec<Arc<dyn Algorithm>>,
    codecs: Vec<Arc<dyn WireCodec>>,
    telemetry: Telemetry,
}

impl ClientKit {
    /// Captures algorithm + codec for every submitted problem; errors
    /// if any problem lacks a [`WireCodec`] (it cannot go on the wire).
    /// The server's telemetry handle rides along so donor-side cache
    /// counters land in the same registry as the server's.
    pub fn from_server(server: &Server) -> Result<Self, String> {
        let mut algorithms = Vec::new();
        let mut codecs = Vec::new();
        for pid in 0..server.problem_count() {
            algorithms.push(server.algorithm(pid));
            codecs.push(server.codec(pid).ok_or_else(|| {
                format!(
                    "problem {pid} ({}) has no wire codec; register one with \
                     Problem::with_codec to run on the TCP backend",
                    server.problem_name(pid)
                )
            })?);
        }
        Ok(Self {
            algorithms,
            codecs,
            telemetry: server.telemetry(),
        })
    }

    fn algorithm(&self, pid: usize) -> Option<&Arc<dyn Algorithm>> {
        self.algorithms.get(pid)
    }

    fn codec(&self, pid: usize) -> Option<&Arc<dyn WireCodec>> {
        self.codecs.get(pid)
    }
}

/// Spawns `n_clients` donor threads against `directory`, each holding
/// its own [`FaultPlan::client`] record. They exit when the server says
/// `Finished`, their plan departs them, or `run_over` is set (the
/// orchestrator's backstop after the server completes).
pub fn spawn_clients(
    directory: Directory,
    clock: Clock,
    kit: ClientKit,
    n_clients: usize,
    plan: &FaultPlan,
    run_over: Arc<AtomicBool>,
    opts: NetClientOptions,
) -> Vec<JoinHandle<()>> {
    (0..n_clients)
        .map(|c| {
            let directory = directory.clone();
            let kit = kit.clone();
            let faults = plan.client(c);
            let run_over = run_over.clone();
            let opts = opts.clone();
            thread::spawn(move || {
                ClientLoop::new(c, directory, clock, kit, faults, run_over, opts).run()
            })
        })
        .collect()
}

/// Computes and blocking reads a connection must have seen before its
/// measurements steer anything: until then the depth is
/// [`MIN_PIPELINE_DEPTH`] and every result is written before the next
/// compute.
const WARMUP_COMPUTES: u32 = 8;
const WARMUP_READS: u32 = 1;

/// Framing of one chunk exchange: a `ChunkRequest` frame (24-byte body)
/// plus the header, ids, digest, length prefix and CRC around the
/// `ChunkData` payload.
const CHUNK_EXCHANGE_OVERHEAD: u64 = 2 * (HEADER_LEN as u64 + 4) + 24 + 28;

/// Replica rungs a fetch walks before falling back to the origin.
const REPLICA_RUNGS: usize = 2;

/// Times the origin is asked for a chunk before the unit is given up.
const ORIGIN_ATTEMPTS: usize = 3;

/// One transport connection: the socket and its frame reassembly.
type Conn = (TcpStream, FrameReader);

/// The connection said something it cannot have meant (or nothing, for
/// too long): it is to be dropped.
struct Broken;

/// How one [`ClientLoop::burst`] over a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BurstEnd {
    /// Every request was answered or proven lost; the stream is clean.
    Complete,
    /// The endpoint refused a chunk with `ChunkMissing`; every other
    /// request was still answered or proven lost, so the stream is clean.
    Missing,
    /// A reply did not arrive within the ack timeout (or the run ended).
    TimedOut,
    /// The connection failed, or could not be made.
    Broken,
}

/// A result computed but not yet acknowledged — the idempotence unit:
/// `(problem, unit, codec-encoded payload)`, as a [`Frame::Turn`] has it.
type PendingResult = (u64, u64, Vec<u8>);

/// A turn not yet answered: how many results (of `unacked`, in order) it
/// carried, how many units it asked for. One connection answers by `seq`.
struct SentTurn {
    seq: u64,
    results: usize,
    want: usize,
}

/// A prefetched assignment: decoded, its chunks fetched and hydrated,
/// ready to compute without touching the wire again.
struct QueuedUnit {
    problem: u64,
    unit: u64,
    cost_ops: f64,
    payload: Payload,
}

/// A running average — each new sample weighs 1/8, the first seeds it —
/// and how many samples the current connection has added to it.
#[derive(Debug, Default)]
struct Ewma {
    avg: f64,
    seen: u32,
}

impl Ewma {
    fn note(&mut self, sample: f64) {
        self.avg = if self.avg == 0.0 {
            sample
        } else {
            self.avg + (sample - self.avg) / 8.0
        };
        self.seen = self.seen.saturating_add(1);
    }
}

/// What the donor has measured about its own turn, in scaled seconds:
/// the two sides of the bandwidth-delay product that sizes the pipeline.
#[derive(Debug, Default)]
struct Pacing {
    /// One unit's compute.
    compute: Ewma,
    /// The exposed wait per blocking read: how long the donor sat in a
    /// socket read with replies owed and nothing to compute.
    wait: Ewma,
    /// When the oldest frame now waiting in `wbuf` was first seen there.
    held_since: Option<f64>,
}

impl Pacing {
    fn warm(&self) -> bool {
        self.compute.seen >= WARMUP_COMPUTES && self.wait.seen >= WARMUP_READS
    }
}

struct ClientLoop {
    /// What this donor holds: its id, faults, chunk cache and shipped
    /// metrics.
    me: Holdings,
    directory: Directory,
    clock: Clock,
    kit: ClientKit,
    run_over: Arc<AtomicBool>,
    opts: NetClientOptions,
    /// [`ACK_TIMEOUT`]; the in-crate tests lengthen it.
    ack_wait: f64,
    rng: SplitMix64,
    /// The control connection.
    conn: Option<Conn>,
    /// Outbound control frames are encoded here and leave in one write
    /// per [`ClientLoop::flush`]; `frames` counts them.
    wbuf: Vec<u8>,
    frames: usize,
    /// The data connections, one per chunk endpoint this donor has
    /// fetched from (replicas and the origin alike), kept across units.
    data: Vec<(SocketAddr, Conn)>,
    /// A burst window's `ChunkRequest`s, encoded for their one write.
    asks: Vec<u8>,
    /// The buffers of acknowledged results, for the next ones to be
    /// encoded into: [`KEEP_BYTES`] of capacity in all, however deep
    /// the pipeline (there are never more buffers than it is deep).
    spare: Vec<Vec<u8>>,
    reconnect: Backoff,
    /// Results not yet acknowledged; at most the depth in force when
    /// each was computed. The first `sent` ride the turns in flight, in
    /// turn order; the rest wait for the next turn (new results, and
    /// `resend` that a lost turn or a dropped connection carried).
    unacked: VecDeque<PendingResult>,
    sent: usize,
    resend: usize,
    /// The turns this connection has not answered, in `seq` order, and
    /// the units they asked for in all.
    turns: VecDeque<SentTurn>,
    owed: usize,
    next_seq: u64,
    /// The last reply said `then: wait`: pause, then probe with a turn
    /// of one instead of a pipeline's worth.
    starved: bool,
    pacing: Pacing,
    /// The last clock reading ([`ClientLoop::now`]); `stale` once a
    /// compute, a read, a write or a reply has let time pass since.
    read_at: f64,
    stale: bool,
    last_heartbeat: f64,
    queue: VecDeque<QueuedUnit>,
    last_report: f64,
}

#[allow(clippy::too_many_arguments)]
impl ClientLoop {
    fn new(
        id: usize,
        directory: Directory,
        clock: Clock,
        kit: ClientKit,
        faults: ClientFaults,
        run_over: Arc<AtomicBool>,
        opts: NetClientOptions,
    ) -> Self {
        Self {
            me: Holdings::new(id, faults, kit.telemetry.clone()),
            directory,
            clock,
            run_over,
            rng: SplitMix64::new(0xC11E_27B1 ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            conn: None,
            wbuf: Vec::new(),
            frames: 0,
            data: Vec::new(),
            asks: Vec::new(),
            spare: Vec::new(),
            reconnect: reconnect_backoff(),
            unacked: VecDeque::new(),
            sent: 0,
            resend: 0,
            turns: VecDeque::new(),
            owed: 0,
            next_seq: 1,
            starved: false,
            pacing: Pacing::default(),
            read_at: 0.0,
            stale: true,
            last_heartbeat: 0.0,
            queue: VecDeque::new(),
            last_report: 0.0,
            kit,
            opts,
            ack_wait: ACK_TIMEOUT,
        }
    }

    /// The time, read afresh only if it may have moved: a run costs one
    /// reading per checkpoint (its end is the next one's start), a turn two.
    fn now(&mut self) -> f64 {
        if std::mem::take(&mut self.stale) {
            self.read_at = self.clock.now();
        }
        self.read_at
    }

    fn run(mut self) {
        if let Some(t) = self.me.faults.join_at {
            thread::sleep(self.clock.wall(t - self.clock.now()));
        }
        loop {
            if self.run_over.load(Ordering::SeqCst) {
                return;
            }
            let now = self.now();
            if self.me.faults.departure.is_some_and(|t| now >= t) {
                // Silent permanent departure (owner pulls the plug):
                // no Goodbye — leases/liveness must recover the work.
                return;
            }
            if self.handle_crash_window(now) {
                continue;
            }
            if self.conn.is_none() && !self.connect() {
                continue; // backoff slept inside connect()
            }
            self.maybe_heartbeat();
            self.maybe_report_metrics(false);
            let cold = !self.pacing.warm();
            match self.step() {
                Step::Continue => {
                    if cold && self.pacing.warm() {
                        self.maybe_report_metrics(true);
                    }
                }
                Step::Finished => {
                    self.maybe_report_metrics(true);
                    self.push(&Frame::Goodbye {
                        client: self.me.id as u64,
                    });
                    self.flush();
                    return;
                }
            }
        }
    }

    /// If `now` is inside a crash window: lose everything, sleep out
    /// the remaining downtime, and report `true`.
    fn handle_crash_window(&mut self, now: f64) -> bool {
        let Some((at, down)) = self.me.faults.crash_overlapping(now, now) else {
            return false;
        };
        self.lose_everything(now, down);
        thread::sleep(self.clock.wall(at + down - now));
        self.stale = true;
        true
    }

    /// The donor crashed at `now`: every connection and everything held
    /// in memory go — unacknowledged results, the ready queue, the
    /// chunk cache, the unshipped metrics. The crash event closes every
    /// span this donor held (leases and compute sub-spans) in
    /// verify_spans.
    fn lose_everything(&mut self, now: f64, down_secs: f64) {
        self.unacked.clear();
        self.drop_conn();
        self.data.clear();
        self.resend = 0;
        self.queue.clear();
        self.me.crash(now, down_secs);
    }

    /// Connects via the directory and queues the `Hello`; every
    /// unacknowledged result rides the first turn, in the same write
    /// (the server dedups, so at-least-once is safe). On failure sleeps
    /// a jittered exponential backoff (shared [`Backoff`] implementation
    /// with the fetch failover ladder). Returns whether connected.
    fn connect(&mut self) -> bool {
        let addr = self.directory.origin();
        let stream = addr.and_then(|a| TcpStream::connect(a).ok());
        match stream {
            Some(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT_WALL));
                debug_assert!(
                    self.wbuf.is_empty() && self.turns.is_empty(),
                    "drop_conn left nothing of the old connection behind"
                );
                self.conn = Some((stream, FrameReader::new()));
                self.push(&Frame::Hello {
                    client: self.me.id as u64,
                });
                self.reconnect.reset();
                true
            }
            None => {
                let delay = self.reconnect.delay_secs(&mut self.rng);
                self.reconnect.record_failure();
                thread::sleep(self.clock.wall(delay));
                self.stale = true;
                false
            }
        }
    }

    /// Gives the control connection up along with everything that only
    /// meant something on it: unwritten frames, unanswered turns.
    /// Unacknowledged results stay, for the next connection.
    fn drop_conn(&mut self) {
        self.conn = None;
        self.wbuf.clear();
        self.frames = 0;
        self.resend += self.sent;
        (self.sent, self.owed) = (0, 0);
        self.turns.clear();
        self.starved = false;
        // The averages are the donor's and the path's best guess for
        // the next connection too; its warm-up starts over.
        self.pacing.compute.seen = 0;
        self.pacing.wait.seen = 0;
        self.pacing.held_since = None;
    }

    /// Queues `frame` for the next [`ClientLoop::flush`].
    fn push(&mut self, frame: &Frame) {
        encode_frame_into(frame, &mut self.wbuf);
        self.frames += 1;
    }

    /// Writes everything queued in one call, after the link's delay.
    /// `false`: the connection failed (and was dropped).
    fn flush(&mut self) -> bool {
        let frames = std::mem::take(&mut self.frames);
        if self.wbuf.is_empty() {
            return true;
        }
        self.link_delay(frames);
        let wrote = match self.conn.as_mut() {
            Some((stream, _)) => stream.write_all(&self.wbuf).is_ok(),
            None => false,
        };
        self.stale = true;
        if wrote {
            recycle(&mut self.wbuf);
            self.pacing.held_since = None;
            self.me.count("net.client_writes", 1);
        } else {
            self.drop_conn();
        }
        wrote
    }

    fn maybe_heartbeat(&mut self) {
        let now = self.now();
        if now - self.last_heartbeat >= HEARTBEAT_INTERVAL {
            self.last_heartbeat = now;
            // Rides along with the step's turn; its ack is skipped by
            // the reply dispatcher.
            self.push(&Frame::Heartbeat {
                client: self.me.id as u64,
            });
        }
    }

    /// Queues the local registry as a delta snapshot when the cadence
    /// is due, or `force`d: the connection has just warmed up (the first
    /// delta shows the depth the pipeline chose, while the run is surely
    /// still on), or the donor says goodbye.
    /// Fire-and-forget: the delta is reset whether or not the
    /// write lands — a lost report skews counters, never correctness.
    fn maybe_report_metrics(&mut self, force: bool) {
        if self.opts.metrics_report_interval <= 0.0 {
            return;
        }
        let now = self.now();
        if !force && now - self.last_report < self.opts.metrics_report_interval {
            return;
        }
        self.last_report = now;
        // What the pipeline chose and the two measurements (wall µs)
        // it chose from, as of this report.
        let wall_us = |scaled: f64| self.clock.wall(scaled).as_secs_f64() * 1e6;
        let p = &self.pacing;
        let (wait_us, compute_us) = (wall_us(p.wait.avg), wall_us(p.compute.avg));
        let depth = self.depth() as f64;
        let metrics = &mut self.me.metrics;
        metrics.gauge_set("pipeline_depth", depth);
        metrics.gauge_set("wait_us", wait_us);
        metrics.gauge_set("compute_us", compute_us);
        let snapshot = self.me.report().to_wire_bytes();
        self.push(&Frame::MetricsReport {
            client: self.me.id as u64,
            snapshot,
        });
    }

    /// The pipeline depth in force: how many assignments the donor
    /// keeps ready or requested, and how many results unacknowledged.
    /// It is the bandwidth-delay product of the donor's own turn —
    /// `ceil(exposed wait per blocking read ÷ compute per unit) + 1`
    /// units fit in one wait, plus the one being computed — between
    /// [`MIN_PIPELINE_DEPTH`] (the value until the connection is warm)
    /// and [`MAX_PIPELINE_DEPTH`]. Millisecond units against a
    /// sub-millisecond wait stay at the floor; microsecond units fill
    /// the round trip.
    fn depth(&self) -> usize {
        let p = &self.pacing;
        if !p.warm() || p.compute.avg <= 0.0 {
            return MIN_PIPELINE_DEPTH;
        }
        let fits = (p.wait.avg / p.compute.avg).ceil() + 1.0;
        (fits.min(MAX_PIPELINE_DEPTH as f64) as usize).max(MIN_PIPELINE_DEPTH)
    }

    /// How many ready units may be computed back to back before what is
    /// `due` — results no turn has carried, units to ask for, a
    /// heartbeat in `wbuf` — must be written: a unit may start while
    /// what is held has waited, plus its predicted compute, less than
    /// half the measured wait (the first is free when nothing is due),
    /// so a result is never held back by more than the round trip it is
    /// trying to share. Capped by the queue and `depth − unacked`; on a
    /// cold connection nothing is held.
    fn plan_run(&mut self, due: bool, depth: usize) -> usize {
        let room = depth.saturating_sub(self.unacked.len());
        let cap = room.min(self.queue.len());
        if cap == 0 {
            return 0;
        }
        let now = self.now();
        let held = due.then(|| now - *self.pacing.held_since.get_or_insert(now));
        let p = &self.pacing;
        let behind = ((0.5 * p.wait.avg - held.unwrap_or(0.0)) / p.compute.avg - 1.0).ceil();
        let behind = if p.warm() { behind as usize } else { 0 };
        behind.saturating_add(usize::from(!due)).min(cap)
    }

    /// Sleeps out a degraded link's delay to `frames` frames written to
    /// the origin now, blocking the donor. A record with no window costs
    /// one check and no clock reading.
    fn link_delay(&mut self, frames: usize) {
        if !self.me.faults.windows.is_empty() {
            let link = self.me.faults.link_scale(self.clock.now());
            let delay = (link - 1.0) * FRAME_TRANSFER_SECS * frames as f64;
            thread::sleep(self.clock.wall(delay));
        }
    }

    /// Queues the next turn: every unsent result, and `want` units
    /// asked. A turn carrying a result meets the record's result faults
    /// on its own bytes: lost, sent twice, or its body CRC broken.
    fn push_turn(&mut self, want: usize) {
        let (seq, start) = (self.next_seq, self.wbuf.len());
        self.next_seq += 1;
        let unsent = self.unacked.range(self.sent..);
        let carried = unsent.map(|(p, u, payload)| (*p, *u, payload.as_slice()));
        let results = carried.len();
        encode_turn_into(&mut self.wbuf, self.me.id as u64, seq, want as u32, carried);
        self.frames += 1;
        if results > 0 {
            let fate = self
                .me
                .wire_fault(&self.clock, ClientFaults::delivery_action);
            match fate {
                DeliveryAction::Deliver => {}
                DeliveryAction::Drop => self.wbuf.truncate(start),
                DeliveryAction::Duplicate => self.wbuf.extend_from_within(start..),
                DeliveryAction::Corrupt => *self.wbuf.last_mut().expect("a turn") ^= 0xFF,
            }
        }
        let resent = std::mem::take(&mut self.resend);
        self.me.count("net.resubmits", resent as u64);
        self.turns.push_back(SentTurn { seq, results, want });
        self.sent = self.unacked.len();
        self.owed += want;
    }

    /// One turn of the pipeline: take every reply already here, then
    /// compute a run of ready units — writing a turn first unless what
    /// is due may wait across at least one ([`ClientLoop::plan_run`]) —
    /// or, with nothing ready, write a turn and block for a reply.
    ///
    /// ```text
    /// slow units:  write T[r_n, want 1] → compute n+1 → write T[r_n+1, want 1] → read R[ack_n, u_n+2] → compute n+2 → …
    /// fast units:  read R[ack×k, u×k] → compute ×k → write T[r×k, want k] → read R[ack×k, u×k] → …
    /// ```
    ///
    /// Replies that one `read` brought in are all dispatched before
    /// anything is written (no syscall between them); the results of
    /// the computes they unlock leave in one frame that also asks for
    /// what keeps ready + requested at the depth; and the reply is
    /// collected after the next compute, not before it.
    fn step(&mut self) -> Step {
        while let Some(step) = self.take_buffered() {
            if let Step::Finished = step {
                return Step::Finished;
            }
        }
        let depth = self.depth();
        let unsent = self.sent < self.unacked.len();
        if self.starved && self.queue.is_empty() && self.turns.is_empty() && !unsent {
            // The origin had nothing to give and is owed nothing: pause
            // on the socket before asking again.
            if !self.flush() {
                return Step::Continue;
            }
            if let Step::Finished = self.next_reply(POLL_INTERVAL) {
                return Step::Finished;
            }
        }
        let target = if self.starved { 1 } else { depth };
        let want = target.saturating_sub(self.queue.len() + self.owed);
        let turn_due = want > 0 || unsent;
        let mut run = self.plan_run(turn_due || !self.wbuf.is_empty(), depth);
        if run == 0 {
            if turn_due {
                self.push_turn(want);
            }
            if !self.flush() {
                return Step::Continue;
            }
            run = self.plan_run(false, depth);
        }
        if run > 0 {
            self.compute_run(run);
            return Step::Continue;
        }
        self.next_reply(self.ack_wait)
    }

    /// Dispatches the next reply that costs no syscall: a whole frame
    /// among the bytes earlier reads buffered — borrowed from the
    /// reader, not copied out of it. `None`: there is none.
    fn take_buffered(&mut self) -> Option<Step> {
        let mut conn = self.conn.take()?;
        let ruled = loop {
            match conn.1.next_buffered() {
                Ok(Some(frame)) => match self.dispatch(frame) {
                    Ok(None) => {} // lost in transit, as below
                    ruled => break ruled,
                },
                // Mangled in transit and skipped; the next in-order
                // reply exposes the gap.
                Err(DecodeError::BodyCrc { .. }) => {}
                // Nothing whole — or an untrustworthy stream, which is
                // the blocking read's to time out and drop.
                Ok(None) | Err(_) => break Ok(None),
            }
        };
        self.settle(conn, ruled)
    }

    /// Ends a receive that took `conn` out of `self` so that a frame
    /// borrowed from its reader could be dispatched: the connection goes
    /// back unless the frame proved it [`Broken`].
    fn settle(&mut self, conn: Conn, ruled: Result<Option<Step>, Broken>) -> Option<Step> {
        match ruled {
            Ok(step) => {
                self.conn = Some(conn);
                step
            }
            Err(Broken) => {
                self.drop_conn();
                Some(Step::Continue)
            }
        }
    }

    /// The one blocking receive path: takes the next frame off the
    /// control connection and dispatches it against the turns in
    /// flight. Blocks for up to
    /// `wait` scaled seconds; when a turn is unanswered and nothing
    /// arrives by then, the tail of the stream was lost and the
    /// connection is dropped (reconnecting resubmits every
    /// unacknowledged result). With no turn in flight this is the
    /// parked wait after a `then: wait`: the donor blocks *on the
    /// socket*, so any inbound frame ends the pause.
    fn next_reply(&mut self, wait: f64) -> Step {
        let Some(mut conn) = self.conn.take() else {
            return Step::Continue;
        };
        let parked = self.turns.is_empty();
        let asked = self.now();
        let wall = self.clock.wall(wait);
        let deadline = Instant::now() + wall;
        if parked {
            // One long read instead of a tick every `READ_TIMEOUT_WALL`.
            let _ = conn
                .0
                .set_read_timeout(Some(wall.max(Duration::from_millis(1))));
        }
        let ruled = loop {
            if self.run_over.load(Ordering::SeqCst) {
                break Ok(None);
            }
            let (stream, reader) = &mut conn;
            match reader.poll_ref(stream) {
                Ok(Some(frame)) => {
                    self.stale = true;
                    let (got, ruled) = (self.now(), self.dispatch(frame));
                    if matches!(ruled, Ok(None)) {
                        continue; // lost in transit, as below
                    }
                    if !parked {
                        self.pacing.wait.note(got - asked);
                    }
                    break ruled;
                }
                // A read-timeout tick, or a reply mangled in transit
                // (its CRC made the reader skip it; the next in-order
                // reply exposes the gap).
                Ok(None) | Err(ReadError::Decode(_)) => {
                    if Instant::now() >= deadline {
                        break if parked { Ok(None) } else { Err(Broken) };
                    }
                }
                Err(ReadError::Io(_)) => break Err(Broken),
            }
        };
        if parked {
            let _ = conn.0.set_read_timeout(Some(READ_TIMEOUT_WALL));
        }
        self.stale = true;
        self.settle(conn, ruled).unwrap_or(Step::Continue)
    }

    /// Applies one inbound frame, borrowed from the control connection's
    /// reader (which the caller holds, out of `self`), to the pipeline
    /// state. `None`: the record lost or mangled the reply, skipped as a
    /// CRC failure is; a repeated one is dispatched again, to be dropped.
    fn dispatch(&mut self, frame: FrameRef<'_>) -> Result<Option<Step>, Broken> {
        self.stale = true;
        match frame {
            FrameRef::TurnReply(seq, acks, units, then) => {
                let fate = self
                    .me
                    .wire_fault(&self.clock, ClientFaults::control_reply_action);
                if matches!(fate, DeliveryAction::Drop | DeliveryAction::Corrupt) {
                    return Ok(None);
                }
                let step = self.turn_reply(seq, acks, units, then)?;
                if fate == DeliveryAction::Duplicate && matches!(step, Step::Continue) {
                    return self.turn_reply(seq, acks, units, then).map(Some);
                }
                Ok(Some(step))
            }
            FrameRef::Plain(Frame::ReplicaAnnounce { endpoints }) => {
                // Unsolicited topology update (the Hello reply, or a
                // re-announcement): fold it into the directory.
                self.directory.merge_replicas(&endpoints);
                Ok(Some(Step::Continue))
            }
            _ => Ok(Some(Step::Continue)), // heartbeat acks
        }
    }

    /// A reply to turn `seq`: one connection answers in order, so every
    /// turn queued ahead of it was lost in transit or skipped for its
    /// CRC — its results ride the next turn (instead of waiting out the
    /// ack timeout), what it asked for stops being owed (a lease granted
    /// to a lost reply is left to expire). A reply behind the front of
    /// the queue is a duplicated frame and is dropped. The turn's
    /// results are then retired — accepted or nacked, either way the
    /// origin has ruled, and their buffers are kept for the next results
    /// — and, unless the run is finished, its units are made ready
    /// where they lie ([`ClientLoop::enqueue_assignment`]).
    fn turn_reply<'f>(
        &mut self,
        seq: u64,
        acks: impl ExactSizeIterator<Item = (u64, u64, bool)>,
        units: impl Iterator<Item = (u64, u64, f64, &'f [u8])>,
        then: Then,
    ) -> Result<Step, Broken> {
        let turn = loop {
            match self.turns.front() {
                Some(turn) if turn.seq <= seq => {
                    let turn = self.turns.pop_front().expect("front exists");
                    self.owed -= turn.want;
                    self.sent -= turn.results;
                    if turn.seq == seq {
                        break turn;
                    }
                    self.unacked.rotate_left(turn.results);
                    self.resend += turn.results;
                }
                _ => return Ok(Step::Continue),
            }
        };
        // The reply rules on exactly the results its turn carried.
        let ruled_on = acks.len();
        let carried = self.unacked.iter().take(turn.results);
        let ruled = carried.zip(acks).all(|(r, a)| (r.0, r.1) == (a.0, a.1));
        if !ruled || ruled_on != turn.results {
            self.sent += turn.results; // (still unacknowledged: resubmitted)
            return Err(Broken);
        }
        let mut kept: usize = self.spare.iter().map(Vec::capacity).sum();
        for (_, _, buf) in self.unacked.drain(..turn.results) {
            if kept + buf.capacity() <= KEEP_BYTES {
                kept += buf.capacity();
                self.spare.push(buf);
            }
        }
        self.starved = then == Then::Wait;
        if then == Then::Finished {
            // Every problem is complete; anything queued or
            // unacknowledged could only produce wasted results.
            self.queue.clear();
            return Ok(Step::Finished);
        }
        for (problem, unit, cost_ops, payload) in units {
            self.enqueue_assignment(problem, unit, cost_ops, payload);
        }
        Ok(Step::Continue)
    }

    /// Decodes an assignment where it lies in the reply, fetches the
    /// chunks it needs (donor cache first, a burst over the data
    /// connections on a miss), hydrates it, and queues it ready to
    /// compute. Any failure — an unknown problem id, an undecodable
    /// unit, a failed transfer — simply drops the unit: the server's
    /// lease expiry recovers it.
    fn enqueue_assignment(&mut self, problem: u64, unit: u64, cost_ops: f64, bytes: &[u8]) {
        let Some(codec) = self.kit.codec(problem as usize) else {
            return;
        };
        let Ok(mut payload) = codec.decode_unit(bytes) else {
            return;
        };
        let needs = codec.unit_chunks(&payload);
        if !needs.is_empty() {
            let codec = codec.clone(); // (`fetch_chunks` takes all of `self`)
            let Some(chunks) = self.fetch_chunks(problem, &needs) else {
                return;
            };
            match codec.hydrate_unit(payload, &chunks) {
                Ok(p) => payload = p,
                Err(_) => return,
            }
        }
        // The unit is hydrated and ready: the donor-side delivery point
        // of its span (transfer ends, pipeline queue-wait begins).
        if self.me.telemetry.is_enabled() {
            let at = self.now();
            self.me.telemetry.emit_at(
                at,
                EventKind::UnitDelivered {
                    problem: problem as usize,
                    unit,
                    client: self.me.id,
                },
            );
        }
        self.queue.push_back(QueuedUnit {
            problem,
            unit,
            cost_ops,
            payload,
        });
    }

    /// Assembles the chunk bytes a unit needs, in `needs` order: plan,
    /// burst, verify. Cache hits resolve first and cost zero wire bytes;
    /// the misses walk one ladder of endpoints in *groups* — each
    /// replica rung sends the misses routed to one endpoint as one burst
    /// over that endpoint's data connection, whatever a rung leaves
    /// unanswered or unverifiable moves down, and the origin, over its
    /// own data connection, is the last resort. Received bytes are
    /// verified against the digest the unit advertised before they are
    /// cached, so no endpoint can launder wrong bytes.
    fn fetch_chunks(
        &mut self,
        problem: u64,
        needs: &[ChunkNeed],
    ) -> Option<Vec<(u64, Arc<Vec<u8>>)>> {
        let (mut got, mut todo) = self.me.plan(needs, self.clock.now());
        self.stale |= !todo.is_empty(); // a transfer takes time

        let mut backoff = reconnect_backoff();
        for rung in 0..REPLICA_RUNGS {
            // Group what is still missing by its first healthy
            // rendezvous candidate; endpoints that failed a higher rung
            // are dead in the directory, so this is the next one down.
            let now = self.clock.now();
            let mut groups: Vec<(SocketAddr, Vec<usize>)> = Vec::new();
            let mut unrouted = Vec::new();
            let seed = self.me.id as u64;
            for i in todo.drain(..) {
                let routed = self.directory.candidates_for(needs[i].digest, seed, 1, now);
                match routed.first() {
                    Some(addr) => match groups.iter_mut().find(|(a, _)| a == addr) {
                        Some((_, group)) => group.push(i),
                        None => groups.push((*addr, vec![i])),
                    },
                    None => unrouted.push(i),
                }
            }
            todo = unrouted;
            if groups.is_empty() {
                break; // no replica tier, or every endpoint is dead
            }
            if rung == 0 {
                let routed = groups.iter().map(|(_, g)| g.len() as u64).sum();
                self.me.telemetry.counter_add("replica.fetches", routed);
            }
            for (addr, group) in groups {
                let (left, _) = self.burst(addr, true, problem, needs, &group, &mut got);
                if left.is_empty() {
                    self.directory.mark_alive(addr);
                    continue;
                }
                // Anything this endpoint left unanswered or unverifiable
                // — refusal, timeout, `ChunkMissing`, reset, digest
                // mismatch — is a verdict against it: it goes dead in
                // the directory and its leftovers fall to the next rung
                // after a jittered backoff.
                todo.extend(left);
                self.directory.mark_dead(addr, self.clock.now());
                self.me.count("replica.failovers", 1);
                self.me.telemetry.emit_at(
                    self.clock.now(),
                    EventKind::ReplicaFailover {
                        client: self.me.id,
                        replica: rung,
                    },
                );
                let delay = backoff.delay_secs(&mut self.rng);
                backoff.record_failure();
                thread::sleep(self.clock.wall(delay));
            }
        }
        // The origin: the fallback of last resort. A reply lost in
        // transit or skipped for its CRC shows as a gap in the in-order
        // stream and a digest mismatch is never cached; both are asked
        // for again, a bounded number of times.
        for _attempt in 0..ORIGIN_ATTEMPTS {
            if todo.is_empty() {
                break;
            }
            let origin = self.directory.origin()?;
            let (left, end) = self.burst(origin, false, problem, needs, &todo, &mut got);
            if end != BurstEnd::Complete {
                // `ChunkMissing`: the origin does not hold the chunk, so
                // no rung can. Timeout or broken connection: only that
                // data connection went, and the next unit dials a fresh
                // one. Either way this unit is dropped and lease expiry
                // recovers it.
                return None;
            }
            todo = left;
        }
        if !todo.is_empty() {
            return None;
        }
        needs
            .iter()
            .zip(got)
            .map(|(need, bytes)| Some((need.chunk, bytes?)))
            .collect()
    }

    /// The data connection to `addr`, taken out of `self` for one burst:
    /// the kept one, or a fresh dial (`replica.connects` counts those to
    /// replicas). `None`: the endpoint refused it.
    fn data_conn(&mut self, addr: SocketAddr, replica: bool) -> Option<Conn> {
        if let Some(i) = self.data.iter().position(|(a, _)| *a == addr) {
            return Some(self.data.swap_remove(i).1);
        }
        let stream = TcpStream::connect(addr).ok()?;
        if replica {
            self.me.telemetry.counter_add("replica.connects", 1);
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT_WALL));
        Some((stream, FrameReader::new()))
    }

    /// The burst protocol over the data connection to `addr`:
    /// `ChunkRequest`s for `wants` (indices into `needs`) go out back to
    /// back in a single write per [`BURST_WINDOW_BYTES`] window, and the
    /// `ChunkData` replies are consumed as they stream back — matched by
    /// chunk id, digest-verified, cached and stored in `got`. One
    /// connection answers in order, so a reply to a later request proves
    /// every earlier unanswered one was dropped in transit or skipped for
    /// its CRC: those are set aside at once instead of waiting out the
    /// ack timeout. The connection is kept for the next burst unless this
    /// one broke it or timed out (late replies would desynchronise it).
    /// Only a read that makes no progress reads the clock — the first
    /// since the last answer starts the ack timeout — plus one reading
    /// per answer while telemetry is live.
    /// Returns the wants still unresolved (all of them, if the endpoint
    /// refuses the connection) and how it ended.
    fn burst(
        &mut self,
        addr: SocketAddr,
        replica: bool,
        problem: u64,
        needs: &[ChunkNeed],
        wants: &[usize],
        got: &mut [Option<Arc<Vec<u8>>>],
    ) -> (Vec<usize>, BurstEnd) {
        let Some(mut conn) = self.data_conn(addr, replica) else {
            return (wants.to_vec(), BurstEnd::Broken);
        };
        let (stream, reader) = &mut conn;
        let (mut fetched_bytes, mut gaps, mut mismatches) = (0u64, 0u64, 0u64);
        let mut left: Vec<usize> = Vec::new();
        let mut outstanding: VecDeque<usize> = VecDeque::new();
        let mut sent = 0;
        let mut end = BurstEnd::Complete;
        while end == BurstEnd::Complete && sent < wants.len() {
            let window_start = sent;
            let mut window = 0u64;
            while sent < wants.len() {
                let exchange = needs[wants[sent]].bytes + CHUNK_EXCHANGE_OVERHEAD;
                if sent > window_start && window + exchange > BURST_WINDOW_BYTES as u64 {
                    break;
                }
                window += exchange;
                encode_frame_into(
                    &Frame::ChunkRequest {
                        client: self.me.id as u64,
                        problem,
                        chunk: needs[wants[sent]].chunk,
                    },
                    &mut self.asks,
                );
                sent += 1;
            }
            if !replica {
                self.link_delay(sent - window_start);
            }
            let wrote = stream.write_all(&self.asks).is_ok();
            self.asks.clear();
            if !wrote {
                sent = window_start;
                end = BurstEnd::Broken;
                break;
            }
            outstanding.extend(&wants[window_start..sent]);
            let burst_len = outstanding.len() as f64;
            self.me.count("net.chunk_bursts", 1);
            self.me.telemetry.observe(
                "net.chunk_burst_len",
                crate::telemetry::SIZE_BOUNDS,
                burst_len,
            );
            self.me.metrics.observe(
                "net.chunk_burst_len",
                crate::telemetry::SIZE_BOUNDS,
                burst_len,
            );

            // Set by the first read since the last answer that made no
            // progress (a tick, or a frame nobody is waiting for).
            let mut deadline: Option<f64> = None;
            while !outstanding.is_empty() {
                if self.run_over.load(Ordering::SeqCst) {
                    end = BurstEnd::TimedOut;
                    break;
                }
                let mut polled = reader.poll(stream);
                // An origin reply the record loses or mangles is skipped.
                if !replica && matches!(polled, Ok(Some(Frame::ChunkData { .. }))) {
                    let fate = self
                        .me
                        .wire_fault(&self.clock, ClientFaults::chunk_reply_action);
                    if matches!(fate, DeliveryAction::Drop | DeliveryAction::Corrupt) {
                        polled = Ok(None);
                    }
                }
                let answer = match polled {
                    Ok(Some(Frame::ChunkData {
                        problem: p,
                        chunk,
                        digest,
                        payload,
                    })) if p == problem => Some((chunk, Some((digest, payload)))),
                    Ok(Some(Frame::ChunkMissing { problem: p, chunk })) if p == problem => {
                        Some((chunk, None))
                    }
                    // Unsolicited frame, read-timeout tick, or a reply
                    // mangled in transit (its CRC made the reader skip
                    // it; the next in-order reply exposes the gap).
                    Ok(Some(_)) | Ok(None) | Err(ReadError::Decode(_)) => None,
                    Err(ReadError::Io(_)) => {
                        end = BurstEnd::Broken;
                        break;
                    }
                };
                // A stale or duplicate answer: nobody is waiting for it.
                let found = answer.and_then(|(chunk, reply)| {
                    let pos = outstanding.iter().position(|&i| needs[i].chunk == chunk)?;
                    Some((pos, reply))
                });
                let Some((pos, reply)) = found else {
                    let now = self.clock.now();
                    if now > *deadline.get_or_insert(now + self.ack_wait) {
                        end = BurstEnd::TimedOut;
                        break;
                    }
                    continue;
                };
                deadline = None;
                gaps += pos as u64;
                left.extend(outstanding.drain(..pos));
                let i = outstanding.pop_front().expect("position found it");
                let need = &needs[i];
                match reply {
                    Some((digest, payload))
                        if digest == need.digest && chunk_digest(&payload) == need.digest =>
                    {
                        if self.me.telemetry.is_enabled() {
                            self.me.telemetry.emit_at(
                                self.clock.now(),
                                EventKind::ChunkFetchFinished {
                                    client: self.me.id,
                                    digest: need.digest,
                                    replica,
                                },
                            );
                        }
                        fetched_bytes += payload.len() as u64;
                        let bytes = Arc::new(payload);
                        self.me.keep(need.digest, bytes.clone());
                        got[i] = Some(bytes);
                    }
                    Some(_) => {
                        // Wrong bytes: never cached, asked for again.
                        mismatches += 1;
                        left.push(i);
                    }
                    None => {
                        end = BurstEnd::Missing;
                        left.push(i);
                    }
                }
            }
        }
        left.extend(outstanding);
        left.extend(&wants[sent..]);
        if matches!(end, BurstEnd::Complete | BurstEnd::Missing) {
            self.data.push((addr, conn));
        }
        self.me.count("cache.bytes_fetched", fetched_bytes);
        self.me.count("cache.rerequests", gaps);
        self.me.count("cache.verify_failures", mismatches);
        let source = if replica {
            "replica.bytes_replica"
        } else {
            "replica.bytes_origin"
        };
        if fetched_bytes > 0 {
            self.me.telemetry.counter_add(source, fetched_bytes);
        }
        (left, end)
    }

    /// Computes up to `n` ready units back to back and queues their
    /// results for the next turn. The clock is read after units 1, 2,
    /// 4, 8, … of the run and at its end (after every unit under a live
    /// telemetry handle, whose spans want each unit's times); the run
    /// stops at the first reading past what the results held may wait.
    /// Faults are the run's: a slowdown sampled at its start, a crash
    /// window overlapping `[start, reading]`, a lie at the latest reading.
    fn compute_run(&mut self, n: usize) {
        let traced = self.me.telemetry.is_enabled();
        let (client, started) = (self.me.id, self.now());
        let scale = self.me.faults.compute_scale(started);
        let (mut at, mut computed) = (started, 0);
        let (wait, compute) = (self.pacing.wait.avg, self.pacing.compute.avg);
        for i in 1..=n {
            let Some(qu) = self.queue.pop_front() else {
                break;
            };
            let (problem, unit) = (qu.problem as usize, qu.unit);
            let Some(algorithm) = self.kit.algorithm(problem) else {
                continue; // unknown problem id: drop; lease expiry recovers
            };
            self.me.telemetry.emit_with(|| {
                (
                    at,
                    EventKind::ComputeStarted {
                        problem,
                        unit,
                        client,
                    },
                )
            });
            let wu = WorkUnit {
                id: unit,
                payload: qu.payload,
                cost_ops: qu.cost_ops,
            };
            let result = algorithm.compute(&wu);
            (computed, self.stale) = (computed + 1, true);
            let reading = traced || i.is_power_of_two() || i == n;
            if reading {
                if scale > 1.0 {
                    // Straggler faults stretch the wall time.
                    let real = self.clock.now() - at;
                    thread::sleep(self.clock.wall(real * (scale - 1.0)));
                }
                at = self.now();
                if let Some((_, down)) = self.me.faults.crash_overlapping(started, at) {
                    // (The crash event closes the orphaned compute spans.)
                    self.lose_everything(at, down);
                    return;
                }
                self.me.telemetry.emit_with(|| {
                    (
                        at,
                        EventKind::ComputeFinished {
                            problem,
                            unit,
                            client,
                        },
                    )
                });
            }
            self.queue_result(qu.problem, unit, &result.payload);
            let held_since = *self.pacing.held_since.get_or_insert(at);
            if reading && at + compute >= held_since + 0.5 * wait {
                break;
            }
        }
        let mean = (at - started) / computed as f64;
        (0..computed).for_each(|_| self.pacing.compute.note(mean));
        self.me.telemetry.counter_add("net.compute_runs", 1);
        // (A donor that never ships its registry does not fill it.)
        if self.opts.metrics_report_interval > 0.0 {
            let bounds = crate::telemetry::LATENCY_BOUNDS;
            for _ in 0..computed {
                self.me.metrics.observe("compute.secs", bounds, mean);
            }
            self.me.metrics.counter_add("net.compute_runs", 1);
            self.me.metrics.counter_add("units_computed", computed);
        }
    }

    /// Encodes a result into the buffer of one the origin has ruled on
    /// and queues it for the next turn, which also asks for the unit
    /// that replaces this one.
    fn queue_result(&mut self, problem: u64, unit: u64, payload: &Payload) {
        let mut encoded = ByteWriter::appending(self.spare.pop().unwrap_or_default());
        encoded.buf().clear();
        let codec = self.kit.codec(problem as usize);
        if codec.is_none_or(|c| c.write_result(payload, &mut encoded).is_err()) {
            return;
        }
        self.unacked
            .push_back((problem, unit, encoded.into_bytes()));
    }
}

enum Step {
    Continue,
    Finished,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{ByteReader, WireError};
    use crate::fault::FaultKind;
    use crate::net::wire::{decode_turn_head, encode_frame, FrameAssembler, TURN_TYPE};
    use crate::problem::TaskResult;
    use std::collections::HashSet;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// What the scripted origin does to the k-th `ChunkRequest` it sees.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        /// The reply never leaves.
        Drop,
        /// The reply's body CRC is broken (the reader skips the frame).
        CorruptCrc,
        /// The reply carries another chunk's (self-consistent) bytes.
        SwapDigest,
        /// The reply is a `ChunkMissing`.
        Missing,
        /// The origin hangs up instead, after the replies ahead of it.
        HangUp,
        /// No reply to this request or any later one on the connection
        /// ever leaves.
        Silent,
        /// As `Silent`, but once the donor stops writing the connection
        /// streams `ChunkData` for a chunk nobody asked for instead
        /// ([`stream_strays`]).
        Stray,
    }

    /// Writes 3,000 `ChunkData` frames for a chunk no donor asks for,
    /// one a millisecond — more often than the donor's read timeout
    /// ticks, and for seconds longer than a test's ack timeout, so a
    /// donor that took them for progress fails, not hangs — and stops
    /// early once the donor hangs up or `stop` is raised.
    fn stream_strays(stream: &mut TcpStream, stop: &AtomicBool) {
        const STRAY: u64 = 1 << 20;
        let payload = chunk_bytes(STRAY);
        let frame = encode_frame(&Frame::ChunkData {
            problem: 0,
            chunk: STRAY,
            digest: chunk_digest(&payload),
            payload,
        });
        for _ in 0..3_000 {
            if stop.load(Ordering::SeqCst) || stream.write_all(&frame).is_err() {
                return;
            }
            pause(Duration::from_millis(1));
        }
    }

    fn chunk_bytes(chunk: u64) -> Vec<u8> {
        (0..200 + chunk % 50)
            .map(|i| (chunk * 31 + i) as u8)
            .collect()
    }

    fn needs_of(chunks: std::ops::Range<u64>) -> Vec<ChunkNeed> {
        chunks
            .map(|chunk| {
                let bytes = chunk_bytes(chunk);
                ChunkNeed {
                    chunk,
                    digest: chunk_digest(&bytes),
                    bytes: bytes.len() as u64,
                }
            })
            .collect()
    }

    fn needs(n: u64) -> Vec<ChunkNeed> {
        needs_of(0..n)
    }

    /// What the origin does, beyond answering honestly. Indices are
    /// 0-based counts of the frames of that type it has seen; every
    /// fault fires once.
    #[derive(Debug, Clone, Copy, Default)]
    struct Script {
        /// Units `0..units` are leased to turns in order; then `then:
        /// wait` until every result is in, then `then: finished`.
        units: u64,
        /// Applied to the k-th `ChunkRequest`.
        chunk_fault: Option<(usize, Fault)>,
        /// The k-th `Turn` is lost in transit: nothing it carries is
        /// folded, nothing it asks for leased, and it is not answered.
        drop_turn: Option<usize>,
        /// The reply to the k-th `Turn` is lost in transit (the units
        /// it leased go straight back to the pool: lease expiry,
        /// compressed) or, `true`, arrives twice.
        reply_fault: Option<(usize, bool)>,
        /// From the k-th `Turn` on, nothing the first connection is
        /// owed leaves any more (frames are still handled).
        mute_from_turn: Option<usize>,
        /// The origin sits on the replies to each read this long before
        /// writing them: the donor's exposed wait, scripted.
        reply_delay: Duration,
    }

    /// Blocks the calling thread for `d` (a scripted delay, not a poll).
    fn pause(d: Duration) {
        let until = Instant::now() + d;
        while let Some(left) = until.checked_duration_since(Instant::now()) {
            if left.is_zero() {
                break;
            }
            thread::park_timeout(left);
        }
    }

    /// What the origin saw. A `Turn` is logged as one `Submit` per
    /// result it carried, then itself.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        Hello,
        /// A turn, and how many units it asked for.
        Turn(u32),
        Submit(u64),
        /// A `Turn` the script lost in transit, and the results in it.
        LostTurn(usize),
        /// A result in a `Turn` whose body CRC failed: nacked, and its
        /// unit back in the pool.
        Mangled(u64),
        Chunk(u64),
        Other,
    }

    /// The frames of one read, and the connection they arrived on
    /// (numbered from 0 in the order the origin accepted them).
    type Group = (usize, Vec<Seen>);

    /// A loopback origin that speaks the donor protocol from a
    /// [`Script`]: assignments carry their unit id as payload, chunks
    /// come from [`chunk_bytes`], a `Hello` returns every unit leased
    /// but not folded to the pool (lease recovery, compressed), and the
    /// frames of every read are logged as one group. Each connection is
    /// served on a thread of its own, over one shared state.
    struct ScriptedOrigin {
        addr: SocketAddr,
        log: Arc<Mutex<Vec<Group>>>,
        stop: Arc<AtomicBool>,
        thread: JoinHandle<()>,
    }

    struct OriginState {
        script: Script,
        free: VecDeque<u64>,
        leased: Vec<u64>,
        folded: HashSet<u64>,
        seen: [usize; 2], // turns, chunk requests
        /// The highest turn `seq` answered: a repeat of a turn is ruled
        /// on again, but what it asks for is not served twice.
        answered: u64,
        /// The connection whose replies the script has muted.
        muted: Option<usize>,
        /// The connection the script has streaming strays.
        stray: Option<usize>,
        /// The script hangs up on the connection being served.
        hang_up: bool,
    }

    impl OriginState {
        /// Handles one frame that arrived on connection `conn`: what to
        /// log and what to reply.
        fn handle(&mut self, conn: usize, frame: Frame, out: &mut Vec<u8>) -> Vec<Seen> {
            vec![match frame {
                Frame::Hello { .. } => {
                    for unit in self.leased.drain(..).rev() {
                        self.free.push_front(unit);
                    }
                    Seen::Hello
                }
                Frame::Turn {
                    seq, want, results, ..
                } => {
                    let k = self.seen[0];
                    self.seen[0] += 1;
                    if conn == 0 && self.script.mute_from_turn == Some(k) {
                        self.muted = Some(conn);
                    }
                    if self.script.drop_turn == Some(k) {
                        return vec![Seen::LostTurn(results.len())];
                    }
                    let mut log = Vec::new();
                    let mut acks = Vec::new();
                    for (problem, unit, _) in results {
                        self.leased.retain(|&u| u != unit);
                        acks.push((problem, unit, self.folded.insert(unit)));
                        log.push(Seen::Submit(unit));
                    }
                    log.push(Seen::Turn(want));
                    let want = if seq > self.answered { want } else { 0 };
                    self.answered = self.answered.max(seq);
                    let fresh = (0..want).map_while(|_| self.free.pop_front());
                    let fresh: Vec<u64> = fresh.collect();
                    let then = match fresh.len() {
                        _ if self.folded.len() as u64 == self.script.units => Then::Finished,
                        n if n < want as usize => Then::Wait,
                        _ => Then::More,
                    };
                    let lease = |&unit: &u64| (0, unit, 1.0, unit.to_le_bytes().to_vec());
                    let reply = encode_frame(&Frame::TurnReply {
                        seq,
                        acks,
                        units: fresh.iter().map(lease).collect(),
                        then,
                    });
                    match self.script.reply_fault.filter(|&(at, _)| at == k) {
                        Some((_, true)) => out.extend_from_slice(&[&reply[..], &reply].concat()),
                        Some((_, false)) => {
                            fresh.iter().rev().for_each(|&u| self.free.push_front(u))
                        }
                        None => {
                            self.leased.extend(&fresh);
                            out.extend_from_slice(&reply);
                        }
                    }
                    return log;
                }
                Frame::ChunkRequest { problem, chunk, .. } => {
                    let k = self.seen[1];
                    self.seen[1] += 1;
                    let hit = self
                        .script
                        .chunk_fault
                        .filter(|&(at, _)| at == k)
                        .map(|(_, f)| f);
                    let served = match hit {
                        Some(Fault::SwapDigest) => chunk + 1,
                        _ => chunk,
                    };
                    let payload = chunk_bytes(served);
                    let mut reply = encode_frame(&Frame::ChunkData {
                        problem,
                        chunk,
                        digest: chunk_digest(&payload),
                        payload,
                    });
                    match hit {
                        Some(Fault::Drop) => reply.clear(),
                        Some(Fault::CorruptCrc) => *reply.last_mut().unwrap() ^= 0xFF,
                        Some(Fault::Missing) => {
                            reply = encode_frame(&Frame::ChunkMissing { problem, chunk })
                        }
                        Some(Fault::HangUp) => {
                            reply.clear();
                            self.hang_up = true;
                        }
                        Some(Fault::Silent) => self.muted = Some(conn),
                        Some(Fault::Stray) => (self.muted, self.stray) = (Some(conn), Some(conn)),
                        Some(Fault::SwapDigest) | None => {}
                    }
                    out.extend_from_slice(&reply);
                    Seen::Chunk(chunk)
                }
                _ => Seen::Other,
            }]
        }

        /// A `Turn` whose body failed its CRC, handled as the origin
        /// handles one: every unit its head names is nacked and goes
        /// back to the pool, and nothing it asked for is leased.
        fn mangled_turn(&mut self, body_prefix: &[u8], out: &mut Vec<u8>) -> Vec<Seen> {
            let head = decode_turn_head(&mut ByteReader::new(body_prefix));
            let Ok((_, seq, _, ids)) = head else {
                return vec![Seen::Other];
            };
            let mut acks = Vec::new();
            for (problem, unit) in ids {
                self.leased.retain(|&u| u != unit);
                if !self.folded.contains(&unit) {
                    self.free.push_front(unit);
                }
                acks.push((problem, unit, false));
            }
            let log = acks.iter().map(|a| Seen::Mangled(a.1)).collect();
            let then = match self.folded.len() as u64 == self.script.units {
                true => Then::Finished,
                false => Then::More,
            };
            let units = Vec::new();
            out.extend(encode_frame(&Frame::TurnReply {
                seq,
                acks,
                units,
                then,
            }));
            log
        }

        /// Serves connection `conn` until it closes, the script hangs up
        /// on it, or `stop` is raised. A read's frames are handled, and
        /// logged, under the state's lock.
        fn serve(
            state: &Mutex<Self>,
            conn: usize,
            mut stream: TcpStream,
            log: &Mutex<Vec<Group>>,
            stop: &AtomicBool,
        ) {
            stream
                .set_read_timeout(Some(Duration::from_millis(2)))
                .unwrap();
            let mut asm = FrameAssembler::new();
            let mut out = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match asm.read_from(&mut stream) {
                    Ok(0) => return,
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if state.lock().unwrap().stray == Some(conn) {
                            return stream_strays(&mut stream, stop);
                        }
                        continue;
                    }
                    Err(_) => return,
                }
                let mut origin = state.lock().unwrap();
                let mut group = Vec::new();
                while !origin.hang_up {
                    let before = out.len();
                    match asm.next_frame() {
                        Ok(Some(frame)) => group.extend(origin.handle(conn, frame, &mut out)),
                        Err(DecodeError::BodyCrc {
                            frame_type: TURN_TYPE,
                            body_prefix,
                        }) => group.extend(origin.mangled_turn(&body_prefix, &mut out)),
                        _ => break,
                    }
                    if origin.muted == Some(conn) {
                        out.truncate(before);
                    }
                }
                if !group.is_empty() {
                    log.lock().unwrap().push((conn, group));
                }
                let hang_up = std::mem::take(&mut origin.hang_up);
                let delay = origin.script.reply_delay;
                drop(origin);
                if !out.is_empty() {
                    pause(delay);
                }
                if stream.write_all(&out).is_err() || hang_up {
                    return;
                }
                out.clear();
            }
        }
    }

    impl ScriptedOrigin {
        fn start(script: Script) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            let log = Arc::new(Mutex::new(Vec::new()));
            let stop = Arc::new(AtomicBool::new(false));
            let state = Arc::new(Mutex::new(OriginState {
                script,
                free: (0..script.units).collect(),
                leased: Vec::new(),
                folded: HashSet::new(),
                seen: [0; 2],
                answered: 0,
                muted: None,
                stray: None,
                hang_up: false,
            }));
            let thread = {
                let (log, stop) = (log.clone(), stop.clone());
                thread::spawn(move || {
                    let mut conns = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                stream.set_nonblocking(false).unwrap();
                                let conn = conns.len();
                                let (state, log, stop) = (state.clone(), log.clone(), stop.clone());
                                conns.push(thread::spawn(move || {
                                    OriginState::serve(&state, conn, stream, &log, &stop)
                                }));
                            }
                            Err(_) => thread::sleep(Duration::from_millis(1)),
                        }
                    }
                    for conn in conns {
                        conn.join().unwrap();
                    }
                })
            };
            Self {
                addr,
                log,
                stop,
                thread,
            }
        }

        fn with_chunk_fault(fault: Option<(usize, Fault)>) -> Self {
            Self::start(Script {
                chunk_fault: fault,
                ..Default::default()
            })
        }

        /// Stops the origin; the groups of frames it saw, one per read,
        /// each with the connection it arrived on.
        fn finish_by_conn(self) -> Vec<Group> {
            self.stop.store(true, Ordering::SeqCst);
            self.thread.join().unwrap();
            let log = self.log.lock().unwrap().clone();
            log
        }

        /// [`ScriptedOrigin::finish_by_conn`], connections left out.
        fn finish(self) -> Vec<Vec<Seen>> {
            let log = self.finish_by_conn().into_iter();
            log.map(|(_, seen)| seen).collect()
        }
    }

    /// The chunk ids an origin was asked for, in order.
    fn chunks_asked(log: &[Vec<Seen>]) -> Vec<u64> {
        log.iter()
            .flatten()
            .filter_map(|s| match s {
                Seen::Chunk(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    /// How often each of `units` results reached the origin.
    fn submits(log: &[Vec<Seen>], units: u64) -> Vec<usize> {
        let mut n = vec![0; units as usize];
        for s in log.iter().flatten() {
            if let Seen::Submit(u) = s {
                n[*u as usize] += 1;
            }
        }
        n
    }

    /// The test problem: a unit's payload is its id, its result echoes
    /// it, and it depends on `chunks_per_unit` chunks of its own.
    struct Echo {
        chunks_per_unit: u64,
        /// How long a compute takes, in µs, read at each compute (zero:
        /// instantaneous); shared so a test can change it mid-run.
        compute_us: Arc<AtomicU64>,
    }

    fn echo_payload(bytes: &[u8]) -> Result<Payload, WireError> {
        let id: [u8; 8] = bytes.try_into().map_err(|_| WireError::new("not a u64"))?;
        Ok(Payload::new(u64::from_le_bytes(id), 8))
    }

    fn echo_bytes(payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        let id = payload
            .downcast_ref::<u64>()
            .expect("echo payloads are ids");
        w.u64(*id);
        Ok(())
    }

    impl WireCodec for Echo {
        fn write_unit(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
            echo_bytes(payload, w)
        }
        fn decode_unit(&self, bytes: &[u8]) -> Result<Payload, WireError> {
            echo_payload(bytes)
        }
        fn write_result(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
            echo_bytes(payload, w)
        }
        fn decode_result(&self, bytes: &[u8]) -> Result<Payload, WireError> {
            echo_payload(bytes)
        }
        fn unit_chunks(&self, payload: &Payload) -> Vec<ChunkNeed> {
            let id = *payload
                .downcast_ref::<u64>()
                .expect("echo payloads are ids");
            needs_of(id * self.chunks_per_unit..(id + 1) * self.chunks_per_unit)
        }
    }

    impl Algorithm for Echo {
        fn compute(&self, unit: &WorkUnit) -> TaskResult {
            pause(Duration::from_micros(
                self.compute_us.load(Ordering::SeqCst),
            ));
            TaskResult {
                unit_id: unit.id,
                payload: Payload::new(*unit.payload.downcast_ref::<u64>().unwrap(), 8),
            }
        }
    }

    /// A donor loop for the [`Echo`] problem wired to `origin` (no
    /// replicas), not yet connected.
    fn echo_donor(
        origin: SocketAddr,
        telemetry: &Telemetry,
        chunks_per_unit: u64,
        ack_wait: f64,
    ) -> ClientLoop {
        let instantaneous = Arc::new(AtomicU64::new(0));
        let opts = NetClientOptions::default();
        let mut donor = echo_donor_with(origin, telemetry, chunks_per_unit, instantaneous, opts);
        donor.ack_wait = ack_wait;
        donor
    }

    fn echo_donor_with(
        origin: SocketAddr,
        telemetry: &Telemetry,
        chunks_per_unit: u64,
        compute_us: Arc<AtomicU64>,
        opts: NetClientOptions,
    ) -> ClientLoop {
        let echo = Arc::new(Echo {
            chunks_per_unit,
            compute_us,
        });
        let kit = ClientKit {
            algorithms: vec![echo.clone()],
            codecs: vec![echo],
            telemetry: telemetry.clone(),
        };
        ClientLoop::new(
            0,
            Directory::with_origin(origin),
            Clock::new(1.0),
            kit,
            ClientFaults::default(),
            Arc::new(AtomicBool::new(false)),
            opts,
        )
    }

    /// A connected donor with an ack timeout no healthy test may come
    /// near, for driving `fetch_chunks` directly.
    fn donor(origin: SocketAddr, telemetry: &Telemetry) -> ClientLoop {
        let mut donor = echo_donor(origin, telemetry, 0, 30.0);
        assert!(donor.connect());
        donor
    }

    /// A healthy run may not come near this (the ack timeout is 30 s).
    const NO_TIMEOUT_WAIT: Duration = Duration::from_secs(10);

    /// A connected donor whose computes take `compute_us` against an
    /// origin that sits on every reply for `reply_delay`.
    fn paced_donor(
        origin: &ScriptedOrigin,
        telemetry: &Telemetry,
        compute_us: &Arc<AtomicU64>,
        opts: NetClientOptions,
    ) -> ClientLoop {
        let mut donor = echo_donor_with(origin.addr, telemetry, 0, compute_us.clone(), opts);
        donor.ack_wait = 30.0;
        assert!(donor.connect());
        donor
    }

    /// The reply delay of the fast-regime tests: three orders of
    /// magnitude above an instantaneous compute.
    const SLOW_ORIGIN: Duration = Duration::from_millis(3);

    fn writes(telemetry: &Telemetry) -> u64 {
        telemetry.metrics_snapshot().counter("net.client_writes")
    }

    /// Says goodbye the way `run` does after a `Step::Finished`.
    fn leave(mut donor: ClientLoop) {
        donor.push(&Frame::Goodbye { client: 0 });
        assert!(donor.flush());
    }

    /// Results no turn has carried yet.
    fn unsent(donor: &ClientLoop) -> usize {
        donor.unacked.len() - donor.sent
    }

    /// The results each turn the origin handled carried, in order.
    fn turn_sizes(log: &[Vec<Seen>]) -> Vec<usize> {
        let mut sizes = vec![0];
        for seen in log.iter().flatten() {
            match seen {
                Seen::Submit(_) => *sizes.last_mut().unwrap() += 1,
                Seen::Turn(_) => sizes.push(0),
                _ => {}
            }
        }
        sizes.pop();
        sizes
    }

    /// Computes at least as long as the origin takes to reply: the
    /// depth stays at the floor, a finished result is on the wire
    /// before the next compute starts, and a unit costs one turn of
    /// one — one frame each way.
    #[test]
    fn steady_state_at_depth_two_is_one_turn_of_one_per_unit() {
        const UNITS: u64 = 40;
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(Script {
            units: UNITS,
            reply_delay: Duration::from_millis(1),
            ..Default::default()
        });
        let compute_us = Arc::new(AtomicU64::new(3_000));
        let mut donor = paced_donor(&origin, &telemetry, &compute_us, Default::default());
        loop {
            let computed = donor.pacing.compute.seen;
            if let Step::Finished = donor.step() {
                break;
            }
            assert_eq!(donor.depth(), 2, "millisecond units stay at the floor");
            if donor.pacing.compute.seen > computed {
                assert!(
                    donor.wbuf.is_empty() && unsent(&donor) == 1,
                    "everything due before a compute was written before it started"
                );
            }
        }
        leave(donor);
        let log = origin.finish();
        assert_eq!(
            log[0],
            [Seen::Hello, Seen::Turn(2)],
            "the hello and the request for MIN_PIPELINE_DEPTH units are one write"
        );
        assert_eq!(submits(&log, UNITS), vec![1; UNITS as usize]);
        // Until the pool runs dry, every result travels alone, in the
        // frame that asks for the unit that replaces its own.
        for group in &log {
            if matches!(group[0], Seen::Submit(u) if u < UNITS - 3) {
                assert_eq!(group[1..], [Seen::Turn(1)], "{group:?}");
            }
        }
        // One write per unit, plus the hello, the goodbye and the polls
        // of the drained tail.
        let writes = writes(&telemetry);
        assert!(
            (UNITS..=UNITS + 8).contains(&writes),
            "{writes} writes for {UNITS} units"
        );
    }

    /// Instantaneous computes against a slow origin: once warm, the
    /// depth fills the round trip, every reply one read brought in is
    /// dispatched before anything is written, and one frame carries
    /// the results of a round trip's computes.
    #[test]
    fn fast_units_fill_the_round_trip_in_one_frame() {
        const UNITS: u64 = 1500;
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(Script {
            units: UNITS,
            reply_delay: SLOW_ORIGIN,
            ..Default::default()
        });
        let instantaneous = Arc::new(AtomicU64::new(0));
        let mut donor = paced_donor(&origin, &telemetry, &instantaneous, Default::default());
        let mut max_depth = 0;
        // Writes and computes since the depth first left the floor.
        let mut warm: Option<(u64, u32)> = None;
        loop {
            let (wrote, read, starved) =
                (writes(&telemetry), donor.pacing.wait.seen, donor.starved);
            if let Step::Finished = donor.step() {
                break;
            }
            max_depth = max_depth.max(donor.depth());
            if warm.is_none() && donor.depth() > 2 {
                warm = Some((writes(&telemetry), donor.pacing.compute.seen));
            }
            if writes(&telemetry) > wrote && donor.pacing.wait.seen == read && !starved {
                // The step wrote and did not read afterwards: whatever
                // the reader holds now, it held when the write left.
                let (_, reader) = donor.conn.as_mut().expect("connected");
                assert!(
                    matches!(reader.next_buffered(), Ok(None)),
                    "a write left between two buffered replies"
                );
            }
        }
        let computed = donor.pacing.compute.seen;
        leave(donor);
        let log = origin.finish();
        assert_eq!(submits(&log, UNITS), vec![1; UNITS as usize]);
        assert_eq!(telemetry.metrics_snapshot().counter("net.resubmits"), 0);
        assert_eq!(max_depth, MAX_PIPELINE_DEPTH, "a 3 ms wait fills it");
        let (warm_writes, warm_computes) = warm.expect("the depth left the floor");
        assert!(warm_computes <= 16, "warm after {warm_computes} computes");
        let (writes, results) = (
            writes(&telemetry) - warm_writes,
            (computed - warm_computes) as u64,
        );
        assert!(
            results >= 8 * writes,
            "{results} results in {writes} writes once warm"
        );
        let sizes = turn_sizes(&log);
        assert!(
            sizes.iter().any(|&n| n >= MAX_PIPELINE_DEPTH / 2),
            "no turn carried half a pipeline: {sizes:?}"
        );
        assert!(
            UNITS >= 8 * sizes.len() as u64,
            "{} turns for {UNITS} units",
            sizes.len()
        );
    }

    /// A unit that takes far longer than predicted holds the results
    /// computed ahead of it back by that one compute and no more: the
    /// run stops behind it, and the turn after it writes before it
    /// computes again.
    #[test]
    fn a_unit_far_over_its_predicted_cost_delays_held_results_by_that_one_compute() {
        const UNITS: u64 = 600;
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(Script {
            units: UNITS,
            reply_delay: SLOW_ORIGIN,
            ..Default::default()
        });
        let compute_us = Arc::new(AtomicU64::new(0));
        let mut donor = paced_donor(&origin, &telemetry, &compute_us, Default::default());
        step_until_a_run_is_planned(&mut donor);
        // The run's units now cost 30 ms: ≥ 100× what any before them
        // did. The first is free (nothing was due); the second is
        // computed while the first one's result is held.
        compute_us.store(30_000, Ordering::SeqCst);
        let (wrote, computed) = (writes(&telemetry), donor.pacing.compute.seen);
        assert!(matches!(donor.step(), Step::Continue));
        compute_us.store(0, Ordering::SeqCst);
        assert_eq!(
            donor.pacing.compute.seen,
            computed + 2,
            "the slow unit ran with a result held, and the run stopped behind it"
        );
        assert_eq!(
            writes(&telemetry),
            wrote,
            "nobody predicted it: held across"
        );
        assert_eq!(unsent(&donor), 2);
        // One compute late, and not one more: the next turn writes
        // before it does anything else.
        assert!(matches!(donor.step(), Step::Continue));
        assert_eq!(writes(&telemetry), wrote + 1);
        let computed_again = donor.pacing.compute.seen - (computed + 2);
        assert_eq!(
            unsent(&donor),
            computed_again as usize,
            "the write came first"
        );
        assert!(donor.wbuf.is_empty());
        donor.run();
        assert_eq!(submits(&origin.finish(), UNITS), vec![1; UNITS as usize]);
    }

    /// Steps `donor` until its next step computes a run of at least
    /// three units with nothing written first: it is warm, nothing is
    /// due, and the replies already read are taken.
    fn step_until_a_run_is_planned(donor: &mut ClientLoop) {
        loop {
            assert!(matches!(donor.step(), Step::Continue), "pool ran dry");
            while let Some(step) = donor.take_buffered() {
                assert!(matches!(step, Step::Continue), "pool ran dry");
            }
            let depth = donor.depth();
            let due = unsent(donor) > 0
                || !donor.wbuf.is_empty()
                || donor.starved
                || donor.queue.len() + donor.owed < depth;
            if donor.pacing.warm() && !due && donor.plan_run(false, depth) >= 3 {
                return;
            }
        }
    }

    /// Instantaneous computes against a slow origin, under a disabled
    /// handle (the clock is read after units 1, 2, 4, … of a run and at
    /// its end): once the depth is full, a run is tens of units — so
    /// the readings are a few per turn, not one per unit — and every
    /// round trip still carries a pipeline.
    #[test]
    fn a_run_of_ready_units_reads_the_clock_a_logarithmic_number_of_times() {
        const UNITS: u64 = 4000;
        let origin = ScriptedOrigin::start(Script {
            units: UNITS,
            reply_delay: SLOW_ORIGIN,
            ..Default::default()
        });
        let instantaneous = Arc::new(AtomicU64::new(0));
        let disabled = Telemetry::disabled();
        let mut donor = paced_donor(&origin, &disabled, &instantaneous, Default::default());
        let (mut runs, mut units, mut turns) = (0, 0, Vec::new());
        loop {
            let (computed, seq, carried, full) = (
                donor.pacing.compute.seen,
                donor.next_seq,
                unsent(&donor),
                donor.depth() == MAX_PIPELINE_DEPTH,
            );
            if let Step::Finished = donor.step() {
                break;
            }
            // Counted from the first run at full depth until the pool
            // runs dry.
            if !full || donor.starved {
                continue;
            }
            if donor.pacing.compute.seen > computed {
                (runs, units) = (runs + 1, units + donor.pacing.compute.seen - computed);
            }
            if donor.next_seq > seq && units > 0 {
                turns.push(carried);
            }
        }
        leave(donor);
        assert_eq!(submits(&origin.finish(), UNITS), vec![1; UNITS as usize]);
        assert!(
            runs > 0 && units >= 32 * runs,
            "{units} units in {runs} runs"
        );
        // Two turns are in flight: one that drew a single unit back
        // when the depth filled goes on drawing one (this origin reads
        // them one at a time), and its partner carries the rest.
        assert!(
            turns
                .windows(2)
                .all(|w| w[0] + w[1] >= MAX_PIPELINE_DEPTH - 1),
            "a warm round trip carried less than a pipeline: {turns:?}"
        );
    }

    /// A crash window that opens while a run computes swallows the run
    /// and every result held with it: nothing of either is submitted,
    /// and the origin hands their units out again.
    #[test]
    fn a_crash_window_inside_a_run_swallows_the_run_and_everything_held() {
        const UNITS: u64 = 600;
        let origin = ScriptedOrigin::start(Script {
            units: UNITS,
            reply_delay: SLOW_ORIGIN,
            ..Default::default()
        });
        let compute_us = Arc::new(AtomicU64::new(0));
        let disabled = Telemetry::disabled();
        let mut donor = paced_donor(&origin, &disabled, &compute_us, Default::default());
        step_until_a_run_is_planned(&mut donor);
        // Units of 1 ms; the window opens after the first one ends,
        // while the second computes with the first one's result held.
        compute_us.store(1_000, Ordering::SeqCst);
        let start = donor.clock.now();
        donor.me.faults.crashes = vec![(start + 0.001_5, 0.01)];
        assert!(matches!(donor.step(), Step::Continue));
        compute_us.store(0, Ordering::SeqCst);
        assert!(donor.conn.is_none(), "the crash dropped the connection");
        assert!(
            donor.unacked.is_empty() && donor.queue.is_empty(),
            "the run's results, those held and the units ready are gone"
        );
        donor.me.faults.crashes.clear();
        donor.run();
        let log = origin.finish();
        assert_eq!(
            log.iter().flatten().filter(|s| **s == Seen::Hello).count(),
            2,
            "the donor rejoined"
        );
        assert_eq!(
            submits(&log, UNITS),
            vec![1; UNITS as usize],
            "nothing lost in the crash was submitted; its units were reissued"
        );
    }

    #[test]
    fn metrics_report_says_what_the_pipeline_chose() {
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(Script {
            units: 400,
            reply_delay: SLOW_ORIGIN,
            ..Default::default()
        });
        let instantaneous = Arc::new(AtomicU64::new(0));
        let opts = NetClientOptions {
            metrics_report_interval: 1e-9,
        };
        let mut donor = paced_donor(&origin, &telemetry, &instantaneous, opts);
        while donor.depth() == 2 {
            assert!(matches!(donor.step(), Step::Continue), "pool ran dry");
        }
        assert!(donor.flush());
        donor.stale = true;
        donor.maybe_report_metrics(false);
        let mut asm = FrameAssembler::new();
        asm.push(&donor.wbuf);
        let Ok(Some(Frame::MetricsReport { snapshot, .. })) = asm.next_frame() else {
            panic!("the report is queued for the next write");
        };
        let shipped = crate::telemetry::MetricsSnapshot::from_wire_bytes(&snapshot).unwrap();
        assert_eq!(shipped.gauge("pipeline_depth"), Some(donor.depth() as f64));
        let wait_us = shipped.gauge("wait_us").expect("shipped");
        let compute_us = shipped.gauge("compute_us").expect("shipped");
        assert!(
            wait_us > 1_000.0 && compute_us < wait_us,
            "a {SLOW_ORIGIN:?} origin, instantaneous units: {wait_us} / {compute_us}"
        );
        assert!(
            shipped.counter("units_computed") > 0,
            "a shipping donor counts"
        );
        donor.run();
        origin.finish();
    }

    /// One frame of the steady two-deep pipeline goes wrong — `script`
    /// says which and how — with another turn always in flight around
    /// it: the donor reads what happened off the `seq` of the next
    /// reply, on the same connection and without waiting out the ack
    /// timeout. Returns how often each result reached the origin, the
    /// results in a lost `Turn`, and the donor's resubmit count.
    fn one_frame_goes_wrong(script: Script) -> (Vec<usize>, usize, u64) {
        let units = script.units;
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(script);
        let started = Instant::now();
        echo_donor(origin.addr, &telemetry, 0, 30.0).run();
        let elapsed = started.elapsed();
        let log = origin.finish();
        assert_eq!(
            log.iter().flatten().filter(|s| **s == Seen::Hello).count(),
            1,
            "on the same connection"
        );
        assert!(
            elapsed < NO_TIMEOUT_WAIT,
            "the gap must be inferred from the stream, not waited out ({elapsed:?})"
        );
        let lost = log.iter().flatten().filter_map(|s| match s {
            Seen::LostTurn(results) => Some(*results),
            _ => None,
        });
        let resubmits = telemetry.metrics_snapshot().counter("net.resubmits");
        (submits(&log, units), lost.sum(), resubmits)
    }

    #[test]
    fn a_lost_turn_is_exposed_by_the_next_reply_and_its_results_ride_the_next_turn() {
        const UNITS: u64 = 30;
        let (submits, lost, resubmits) = one_frame_goes_wrong(Script {
            units: UNITS,
            drop_turn: Some(7),
            ..Default::default()
        });
        assert!(lost >= 1, "the script lost a turn that carried a result");
        assert_eq!(resubmits, lost as u64, "exactly what it carried is resent");
        assert_eq!(
            submits,
            vec![1; UNITS as usize],
            "the origin never saw the lost copies, and nothing else twice"
        );
    }

    #[test]
    fn a_lost_reply_resubmits_the_results_it_acknowledged_once_and_nothing_else() {
        const UNITS: u64 = 30;
        let (submits, _, resubmits) = one_frame_goes_wrong(Script {
            units: UNITS,
            reply_fault: Some((7, false)),
            ..Default::default()
        });
        let twice = submits.iter().filter(|&&n| n == 2).count();
        assert!(twice >= 1, "the turn carried a result: {submits:?}");
        assert_eq!(resubmits, twice as u64);
        assert!(submits.iter().all(|&n| n == 1 || n == 2), "{submits:?}");
    }

    #[test]
    fn a_duplicated_reply_is_dropped() {
        const UNITS: u64 = 30;
        let (submits, _, resubmits) = one_frame_goes_wrong(Script {
            units: UNITS,
            reply_fault: Some((7, true)),
            ..Default::default()
        });
        assert_eq!(resubmits, 0);
        assert_eq!(
            submits,
            vec![1; UNITS as usize],
            "no unit of the repeated reply was taken for a new one"
        );
    }

    /// Mutes the first connection from its `mute_from_turn`-th turn on
    /// and checks the reconnect: the first turn behind the hello carries
    /// every result the muted connection never acknowledged — at most
    /// `depth` of them, once each. The only other units sent twice are
    /// the at most `queue_held` that were still queued, behind `depth`
    /// unacked results, when the replies stopped: the scripted origin
    /// takes their leases back at the `Hello` and hands them out again
    /// after the donor has computed them from its queue. Everything
    /// else is submitted exactly once.
    fn tail_loss_resubmits_each_unacked_result_once(
        script: Script,
        depth: usize,
        queue_held: usize,
    ) {
        let units = script.units;
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(script);
        echo_donor(origin.addr, &telemetry, 0, 0.2).run();
        let log = origin.finish();
        let seen: Vec<Seen> = log.into_iter().flatten().collect();
        let hellos: Vec<usize> = (0..seen.len())
            .filter(|&i| seen[i] == Seen::Hello)
            .collect();
        assert_eq!(hellos.len(), 2, "one timeout, one reconnect: {seen:?}");
        // The reconnect's first write is the hello and one turn: every
        // result the muted connection never acknowledged, and a request.
        let resent: Vec<u64> = seen[hellos[1] + 1..]
            .iter()
            .map_while(|s| match s {
                Seen::Submit(u) => Some(*u),
                _ => None,
            })
            .collect();
        assert!(
            (1..=depth).contains(&resent.len()),
            "at most the depth in force was unacknowledged: {resent:?}"
        );
        assert!(
            matches!(seen[hellos[1] + 1 + resent.len()], Seen::Turn(want) if want >= 1),
            "in one turn, which asks for work too"
        );
        assert_eq!(
            telemetry.metrics_snapshot().counter("net.resubmits"),
            resent.len() as u64
        );
        let once_each: HashSet<u64> = resent.iter().copied().collect();
        assert_eq!(once_each.len(), resent.len(), "{resent:?}");
        let mut counts = vec![0; units as usize];
        for s in &seen {
            if let Seen::Submit(u) = s {
                counts[*u as usize] += 1;
            }
        }
        let mut recomputed = Vec::new();
        for (unit, &n) in counts.iter().enumerate() {
            if once_each.contains(&(unit as u64)) {
                assert_eq!(n, 2, "unit {unit} went out on both connections");
            } else if n == 2 {
                recomputed.push(unit);
            } else {
                assert_eq!(n, 1, "unit {unit}");
            }
        }
        assert!(
            recomputed.len() <= queue_held,
            "queued at the timeout and leased again: {recomputed:?}"
        );
    }

    #[test]
    fn replies_lost_at_the_tail_time_out_and_each_unacked_result_is_resubmitted_once() {
        // Before the warm-up ends, the depth is `MIN_PIPELINE_DEPTH`, and
        // the donor blocks with its queue empty: nothing but the unacked
        // results is ever sent twice.
        tail_loss_resubmits_each_unacked_result_once(
            Script {
                units: 20,
                mute_from_turn: Some(6),
                ..Default::default()
            },
            2,
            0,
        );
        // A slow origin and instantaneous computes: the depth in force
        // when the replies stop is the measured one. Ready plus
        // requested never exceeds it and the muted turn stays owed, so
        // fewer than the depth are still queued at the timeout.
        tail_loss_resubmits_each_unacked_result_once(
            Script {
                units: 10 * MAX_PIPELINE_DEPTH as u64,
                mute_from_turn: Some(14),
                reply_delay: SLOW_ORIGIN,
                ..Default::default()
            },
            MAX_PIPELINE_DEPTH,
            MAX_PIPELINE_DEPTH - 1,
        );
    }

    /// The connections that carried a frame `is` picks out, in the
    /// order the origin accepted them.
    fn conns_carrying(log: &[Group], is: fn(&Seen) -> bool) -> Vec<usize> {
        let mut conns: Vec<usize> = log
            .iter()
            .filter(|(_, seen)| seen.iter().any(is))
            .map(|(conn, _)| *conn)
            .collect();
        conns.sort_unstable();
        conns.dedup();
        conns
    }

    /// The chunk ids asked for on connection `conn`, in order.
    fn chunks_asked_on(log: &[Group], conn: usize) -> Vec<u64> {
        let on: Vec<Vec<Seen>> = log
            .iter()
            .filter(|(c, _)| *c == conn)
            .map(|(_, seen)| seen.clone())
            .collect();
        chunks_asked(&on)
    }

    /// Units of five chunks each: every `ChunkRequest` of the run goes
    /// out on one data connection, kept from the first unit to the last,
    /// and no turn ever shares a stream with a chunk burst.
    #[test]
    fn chunk_bursts_never_share_the_control_stream() {
        const UNITS: u64 = 12;
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(Script {
            units: UNITS,
            ..Default::default()
        });
        let started = Instant::now();
        echo_donor(origin.addr, &telemetry, 5, 30.0).run();
        let elapsed = started.elapsed();
        let log = origin.finish_by_conn();
        let control = conns_carrying(&log, |s| matches!(s, Seen::Hello | Seen::Turn(_)));
        let data = conns_carrying(&log, |s| matches!(s, Seen::Chunk(_)));
        assert_eq!(
            control,
            [0],
            "one control connection, and no turn elsewhere"
        );
        assert_eq!(data.len(), 1, "one data connection for the run: {data:?}");
        assert_ne!(data, control, "no chunk request on the control connection");
        let seen: Vec<Vec<Seen>> = log.into_iter().map(|(_, seen)| seen).collect();
        assert!(elapsed < NO_TIMEOUT_WAIT, "{elapsed:?}");
        assert_eq!(submits(&seen, UNITS), vec![1; UNITS as usize]);
        assert_eq!(telemetry.metrics_snapshot().counter("net.resubmits"), 0);
        assert_eq!(
            chunks_asked(&seen),
            (0..UNITS * 5).collect::<Vec<u64>>(),
            "every chunk fetched once, in unit order"
        );
    }

    /// The origin hangs up on the data connection in the middle of a
    /// unit's burst: that unit is dropped, as any failed transfer is,
    /// and that is all it costs — the control connection and every
    /// result on it are untouched, and the next unit dials a fresh data
    /// connection.
    #[test]
    fn a_broken_data_connection_costs_the_pipeline_nothing() {
        const UNITS: u64 = 12;
        // The third chunk of unit 2.
        const BROKEN: u64 = 12;
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(Script {
            units: UNITS,
            chunk_fault: Some((BROKEN as usize, Fault::HangUp)),
            ..Default::default()
        });
        let mut donor = echo_donor(origin.addr, &telemetry, 5, 30.0);
        assert!(donor.connect());
        let started = Instant::now();
        // This origin never leases the dropped unit again (it has no
        // lease expiry): run until the donor holds nothing and the
        // origin has nothing left to give.
        loop {
            assert!(matches!(donor.step(), Step::Continue));
            let holds = donor.queue.len() + donor.unacked.len() + donor.turns.len();
            if donor.starved && holds == 0 {
                break;
            }
            assert!(started.elapsed() < NO_TIMEOUT_WAIT, "stalled");
        }
        leave(donor);
        let log = origin.finish_by_conn();
        let data = conns_carrying(&log, |s| matches!(s, Seen::Chunk(_)));
        assert_eq!(data.len(), 2, "{data:?}");
        assert_eq!(
            chunks_asked_on(&log, data[0]),
            (0..=BROKEN).collect::<Vec<u64>>()
        );
        assert_eq!(
            chunks_asked_on(&log, data[1]),
            ((BROKEN / 5 + 1) * 5..UNITS * 5).collect::<Vec<u64>>(),
            "the next unit dialed a fresh data connection"
        );
        let seen: Vec<Vec<Seen>> = log.into_iter().map(|(_, seen)| seen).collect();
        let mut once = vec![1; UNITS as usize];
        once[(BROKEN / 5) as usize] = 0;
        assert_eq!(submits(&seen, UNITS), once, "only the broken unit is lost");
        assert_eq!(
            seen.iter().flatten().filter(|s| **s == Seen::Hello).count(),
            1,
            "the control connection was never replaced"
        );
        assert_eq!(telemetry.metrics_snapshot().counter("net.resubmits"), 0);
    }

    #[test]
    fn crash_window_mid_turn_leaves_no_turn_in_flight_behind() {
        const UNITS: u64 = 16;
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(Script {
            units: UNITS,
            ..Default::default()
        });
        let mut donor = echo_donor(origin.addr, &telemetry, 2, 30.0);
        assert!(donor.connect());
        while donor.sent == 0 {
            donor.step();
        }
        assert!(
            !donor.turns.is_empty() && donor.owed > 0,
            "a turn that carries a result is unanswered"
        );
        assert!(!donor.me.cache.is_empty() && !donor.data.is_empty());
        let now = donor.clock.now();
        donor.me.faults.crashes = vec![(now, 0.01)];
        assert!(donor.handle_crash_window(now));
        assert!(donor.conn.is_none() && donor.data.is_empty());
        assert!(donor.turns.is_empty() && donor.wbuf.is_empty());
        assert_eq!((donor.sent, donor.resend, donor.owed), (0, 0, 0));
        assert!(donor.unacked.is_empty() && donor.queue.is_empty());
        assert_eq!(donor.me.cache.len(), 0);
        donor.me.faults.crashes.clear();
        let started = Instant::now();
        donor.run();
        assert!(
            started.elapsed() < NO_TIMEOUT_WAIT,
            "nothing stale was awaited"
        );
        let log = origin.finish();
        let rejoin = log
            .iter()
            .rposition(|g| g.contains(&Seen::Hello))
            .expect("the donor rejoined");
        assert!(rejoin > 0, "on a second connection");
        assert!(
            !log[rejoin].iter().any(|s| matches!(s, Seen::Submit(_))),
            "a crashed donor has nothing to resubmit: {:?}",
            log[rejoin]
        );
        assert_eq!(telemetry.metrics_snapshot().counter("net.resubmits"), 0);
        assert!(
            submits(&log, UNITS).iter().all(|&n| n == 1),
            "every unit is folded once, the lost ones after a reissue"
        );
    }

    fn assert_hydrates_exactly(needs: &[ChunkNeed], got: &[(u64, Arc<Vec<u8>>)]) {
        assert_eq!(got.len(), needs.len());
        for (need, (chunk, bytes)) in needs.iter().zip(got) {
            assert_eq!(*chunk, need.chunk, "needs order is kept");
            assert_eq!(**bytes, chunk_bytes(need.chunk), "chunk {chunk} bit-exact");
        }
    }

    #[test]
    fn clean_burst_is_one_write_and_a_second_pass_is_all_hits() {
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::with_chunk_fault(None);
        let mut donor = donor(origin.addr, &telemetry);
        let needs = needs(300);
        let got = donor.fetch_chunks(0, &needs).expect("unit hydrates");
        assert_hydrates_exactly(&needs, &got);
        let again = donor.fetch_chunks(0, &needs).expect("warm unit hydrates");
        assert_hydrates_exactly(&needs, &again);
        assert_eq!(
            chunks_asked(&origin.finish()),
            (0..300).collect::<Vec<u64>>()
        );
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("net.chunk_bursts"), 1);
        let lens = snap.histogram("net.chunk_burst_len").expect("burst sizes");
        assert_eq!((lens.count(), lens.sum()), (1, 300.0));
        assert_eq!(snap.counter("cache.misses"), 300);
        assert_eq!(snap.counter("cache.hits"), 300);
        assert_eq!(snap.counter("cache.rerequests"), 0);
        assert_eq!(snap.counter("cache.verify_failures"), 0);
        let wire: u64 = needs.iter().map(|n| n.bytes).sum();
        assert_eq!(snap.counter("cache.bytes_fetched"), wire);
        assert_eq!(snap.counter("replica.bytes_origin"), wire);
    }

    #[test]
    fn lost_or_mangled_reply_mid_burst_is_the_only_chunk_asked_for_again() {
        for fault in [Fault::Drop, Fault::CorruptCrc, Fault::SwapDigest] {
            let telemetry = Telemetry::enabled();
            let k = 117;
            let origin = ScriptedOrigin::with_chunk_fault(Some((k, fault)));
            let mut donor = donor(origin.addr, &telemetry);
            let needs = needs(300);
            let started = Instant::now();
            let got = donor.fetch_chunks(0, &needs).expect("unit hydrates");
            let elapsed = started.elapsed();
            assert_hydrates_exactly(&needs, &got);
            let mut asked: Vec<u64> = (0..300).collect();
            asked.push(k as u64);
            assert_eq!(
                chunks_asked(&origin.finish()),
                asked,
                "{fault:?}: only chunk {k} is refetched"
            );
            let snap = telemetry.metrics_snapshot();
            let (gaps, mismatches) = match fault {
                Fault::SwapDigest => (0, 1),
                _ => (1, 0),
            };
            assert_eq!(snap.counter("cache.rerequests"), gaps, "{fault:?}");
            assert_eq!(
                snap.counter("cache.verify_failures"),
                mismatches,
                "{fault:?}"
            );
            assert_eq!(snap.counter("net.chunk_bursts"), 2, "{fault:?}");
            assert_eq!(
                snap.counter("cache.bytes_fetched"),
                needs.iter().map(|n| n.bytes).sum::<u64>(),
                "{fault:?}: only verified bytes count, each once"
            );
            // The same counts ship to the server in the donor's report.
            let local = donor.me.metrics.snapshot();
            assert_eq!(local.counter("cache.rerequests"), gaps);
            assert_eq!(local.counter("cache.verify_failures"), mismatches);
            assert_eq!(local.counter("net.chunk_bursts"), 2);
            assert_eq!(local.histogram("net.chunk_burst_len").unwrap().count(), 2);
            assert!(
                elapsed < Duration::from_secs(10),
                "{fault:?}: the gap must be inferred from the stream, not waited out \
                 ({elapsed:?} against a 30 s ack timeout)"
            );
        }
    }

    #[test]
    fn chunk_missing_mid_burst_fails_the_unit_but_keeps_what_verified() {
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::with_chunk_fault(Some((40, Fault::Missing)));
        let mut donor = donor(origin.addr, &telemetry);
        let needs = needs(100);
        let started = Instant::now();
        assert!(
            donor.fetch_chunks(0, &needs).is_none(),
            "the unit is dropped"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "no timeout wait"
        );
        assert_eq!(
            donor.data.len(),
            1,
            "a refusal does not cost the data connection"
        );
        assert_eq!(donor.me.cache.len(), 99, "every verified reply was cached");
        assert_eq!(
            chunks_asked(&origin.finish()),
            (0..100).collect::<Vec<u64>>(),
            "no retry"
        );
        assert_eq!(telemetry.metrics_snapshot().counter("cache.rerequests"), 0);
    }

    /// A data connection that stops answering mid-burst — silent, or
    /// streaming a chunk nobody asked for faster than the donor's read
    /// timeout ticks — ends the burst `TimedOut` one ack timeout after
    /// its last answer, not never, and keeps every chunk that verified
    /// before: progress, not the clock, is what a read checks first.
    #[test]
    fn a_burst_that_stops_making_progress_times_out_and_keeps_what_verified() {
        const ACK: f64 = 0.3;
        for fault in [Fault::Silent, Fault::Stray] {
            let origin = ScriptedOrigin::with_chunk_fault(Some((40, fault)));
            let mut donor = echo_donor(origin.addr, &Telemetry::disabled(), 0, ACK);
            assert!(donor.connect());
            let needs = needs(100);
            let wants: Vec<usize> = (0..100).collect();
            let mut got = vec![None; needs.len()];
            let started = Instant::now();
            let (left, end) = donor.burst(origin.addr, false, 0, &needs, &wants, &mut got);
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(end, BurstEnd::TimedOut, "{fault:?}");
            assert!(
                (ACK..ACK + 1.0).contains(&elapsed),
                "{fault:?}: ended after {elapsed:.3} s against a {ACK} s ack timeout"
            );
            assert_eq!(left, wants[40..], "{fault:?}: the unanswered are left");
            let fetched: Vec<_> = got.iter().map(Option::is_some).collect();
            assert_eq!(fetched, (0..100).map(|i| i < 40).collect::<Vec<_>>());
            assert_eq!(
                donor.me.cache.len(),
                40,
                "{fault:?}: what verified is cached"
            );
            assert!(donor.data.is_empty(), "{fault:?}: connection dropped");
            origin.finish();
        }
    }

    #[test]
    fn windows_cap_the_bytes_in_flight() {
        // Chunks advertised at 100 KiB each: two exchanges fit a
        // 256 KiB window, so five chunks go out as 2 + 2 + 1 — and a
        // single chunk larger than the window still goes, alone.
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::with_chunk_fault(None);
        let mut donor = donor(origin.addr, &telemetry);
        let mut big = needs(6);
        for need in &mut big[..5] {
            need.bytes = 100 * 1024;
        }
        big[5].bytes = 2 * BURST_WINDOW_BYTES as u64;
        let got = donor.fetch_chunks(0, &big).expect("unit hydrates");
        assert_hydrates_exactly(&big, &got);
        origin.finish();
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("net.chunk_bursts"), 4);
        let lens = snap.histogram("net.chunk_burst_len").unwrap();
        assert_eq!((lens.count(), lens.sum()), (4, 6.0));
    }

    /// Donor 0's record of a plan arming `kind` at time 0.
    fn armed(kind: &FaultKind) -> ClientFaults {
        FaultPlan::new(0).with(0.0, 0, kind.clone()).client(0)
    }

    /// A result fault of the donor's own record acts on the bytes of
    /// the first turn that carries a result, and on nothing else: the
    /// origin sees that turn not at all, twice, or with its body CRC
    /// broken, the gap is read off the stream, and every unit is folded
    /// exactly once.
    #[test]
    fn a_result_fault_of_the_record_acts_on_its_turns_bytes_alone() {
        const UNITS: u64 = 30;
        for kind in [
            FaultKind::DropResult,
            FaultKind::DuplicateResult,
            FaultKind::CorruptResult,
        ] {
            let telemetry = Telemetry::enabled();
            let origin = ScriptedOrigin::start(Script {
                units: UNITS,
                ..Default::default()
            });
            let mut donor = echo_donor(origin.addr, &telemetry, 0, 30.0);
            donor.me.faults = armed(&kind);
            assert!(donor.connect());
            let started = Instant::now();
            while let Step::Continue = donor.step() {}
            let (elapsed, sent) = (started.elapsed(), donor.next_seq - 1);
            leave(donor);
            let seen: Vec<Seen> = origin.finish().into_iter().flatten().collect();
            let whole = seen.iter().filter(|s| matches!(s, Seen::Turn(_))).count() as u64;
            let mangled = seen
                .iter()
                .filter(|s| matches!(s, Seen::Mangled(_)))
                .count();
            let submits = submits(&[seen], UNITS);
            let twice = submits.iter().filter(|&&n| n == 2).count();
            let snap = telemetry.metrics_snapshot();
            assert!(elapsed < NO_TIMEOUT_WAIT, "{kind:?}: {elapsed:?}");
            assert_eq!(snap.counter("net.wire_faults"), 1, "{kind:?}");
            let (turns, resubmits) = match kind {
                FaultKind::DropResult => (sent - 1, 1),
                FaultKind::DuplicateResult => (sent + 1, 0),
                _ => (sent - 1, 0),
            };
            assert_eq!(whole, turns, "{kind:?}: {sent} turns written");
            assert_eq!(snap.counter("net.resubmits"), resubmits, "{kind:?}");
            let corrupt = kind == FaultKind::CorruptResult;
            assert_eq!(
                mangled,
                usize::from(corrupt),
                "{kind:?}: nacked, leased again"
            );
            if kind == FaultKind::DuplicateResult {
                assert!(twice >= 1, "the copy was refused: {submits:?}");
                assert!(submits.iter().all(|&n| n == 1 || n == 2), "{submits:?}");
            } else {
                assert_eq!(submits, vec![1; UNITS as usize], "{kind:?}");
            }
        }
    }

    /// A reply fault of the donor's record, armed with a turn in flight
    /// and another to follow: the reply it loses or mangles is read off
    /// the reply behind it, on the same connection and with no ack-timeout wait —
    /// the results it would have retired ride the next turn, and the
    /// units it leased are lost with it (this origin has no lease
    /// expiry) — and the copy of a repeated one is dropped.
    #[test]
    fn a_reply_fault_of_the_record_is_read_off_the_next_reply() {
        const UNITS: u64 = 30;
        for kind in [
            FaultKind::DropReply,
            FaultKind::CorruptReply,
            FaultKind::DuplicateReply,
        ] {
            let telemetry = Telemetry::enabled();
            let origin = ScriptedOrigin::start(Script {
                units: UNITS,
                reply_delay: Duration::from_millis(1),
                ..Default::default()
            });
            let mut donor = echo_donor(origin.addr, &telemetry, 0, 30.0);
            assert!(donor.connect());
            let started = Instant::now();
            // Until a turn that carried a result is unanswered and a
            // unit is ready: the turn that unit's result rides is in
            // flight behind it before the donor blocks.
            let (results, want) = loop {
                assert!(matches!(donor.step(), Step::Continue), "pool ran dry");
                match donor.turns.front() {
                    Some(t) if t.results > 0 && !donor.queue.is_empty() => {
                        break (t.results, t.want)
                    }
                    _ => {}
                }
            };
            donor.me.faults = armed(&kind);
            while let Step::Continue = donor.step() {
                let holds = donor.queue.len() + donor.unacked.len() + donor.turns.len();
                if donor.starved && holds == 0 {
                    break; // the lost units: nothing more to give
                }
                assert!(started.elapsed() < NO_TIMEOUT_WAIT, "{kind:?}: stalled");
            }
            leave(donor);
            let log = origin.finish();
            let hellos = log.iter().flatten().filter(|s| **s == Seen::Hello);
            assert_eq!(hellos.count(), 1, "{kind:?}: on the same connection");
            let submits = submits(&log, UNITS);
            let count = |n| submits.iter().filter(|&&c| c == n).count();
            let snap = telemetry.metrics_snapshot();
            assert_eq!(snap.counter("net.wire_faults"), 1, "{kind:?}");
            if kind == FaultKind::DuplicateReply {
                assert_eq!(submits, vec![1; UNITS as usize], "no unit taken twice");
                assert_eq!(snap.counter("net.resubmits"), 0);
            } else {
                assert!(results >= 1 && want >= 1, "{results} results, {want} asked");
                assert_eq!(snap.counter("net.resubmits"), results as u64, "{kind:?}");
                assert_eq!(
                    (count(2), count(0)),
                    (results, want),
                    "{kind:?}: {submits:?}"
                );
            }
        }
    }

    /// A chunk-reply fault of the donor's record hits the replies of an
    /// origin burst only: the one it loses or mangles, the head of the
    /// burst, is exposed by the replies behind it and is the only chunk
    /// asked for again, with no ack-timeout wait. A replica burst leaves
    /// the record armed.
    #[test]
    fn a_chunk_reply_fault_of_the_record_is_read_off_the_replies_behind_it() {
        for kind in [FaultKind::DropChunk, FaultKind::CorruptChunk] {
            let telemetry = Telemetry::enabled();
            let origin = ScriptedOrigin::with_chunk_fault(None);
            let mut donor = donor(origin.addr, &telemetry);
            donor.me.faults = armed(&kind);
            let (elsewhere, wants) = (needs_of(1000..1010), (0..10).collect::<Vec<_>>());
            let mut got = vec![None; wants.len()];
            let (left, _) = donor.burst(origin.addr, true, 0, &elsewhere, &wants, &mut got);
            assert!(
                left.is_empty() && !donor.me.faults.armed.is_empty(),
                "{kind:?}"
            );
            let needs = needs(300);
            let started = Instant::now();
            let got = donor.fetch_chunks(0, &needs).expect("unit hydrates");
            let elapsed = started.elapsed();
            assert_hydrates_exactly(&needs, &got);
            let mut asked: Vec<u64> = (1000..1010).chain(0..300).collect();
            asked.push(0);
            assert_eq!(chunks_asked(&origin.finish()), asked, "{kind:?}");
            let snap = telemetry.metrics_snapshot();
            assert_eq!(snap.counter("cache.rerequests"), 1, "{kind:?}");
            assert_eq!(snap.counter("net.wire_faults"), 1, "{kind:?}");
            assert!(elapsed < NO_TIMEOUT_WAIT, "{kind:?}: {elapsed:?}");
        }
    }

    /// A degraded link delays each frame the donor writes to the origin,
    /// control and data connection alike, by `factor − 1` modelled frame
    /// transfers before the write.
    #[test]
    fn a_degraded_link_delays_each_frame_written_to_the_origin() {
        let origin = ScriptedOrigin::with_chunk_fault(None);
        let mut donor = echo_donor(origin.addr, &Telemetry::disabled(), 0, 30.0);
        let link = FaultKind::LinkDegrade {
            factor: 11.0,
            duration_secs: 1e6,
        };
        donor.me.faults = FaultPlan::new(0).with(0.0, None, link).client(0);
        let per_frame = donor.clock.wall(10.0 * FRAME_TRANSFER_SECS);
        assert!(donor.connect());
        donor.push(&Frame::Heartbeat { client: 0 });
        let started = Instant::now();
        assert!(donor.flush());
        let elapsed = started.elapsed();
        assert!(
            elapsed >= 2 * per_frame,
            "a hello and a heartbeat: {elapsed:?}"
        );
        let started = Instant::now();
        donor.fetch_chunks(0, &needs(3)).expect("unit hydrates");
        let elapsed = started.elapsed();
        assert!(elapsed >= 3 * per_frame, "three requests: {elapsed:?}");
        leave(donor);
        origin.finish();
    }
}
