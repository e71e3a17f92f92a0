//! Donor client threads for the TCP backend.
//!
//! Each client is one OS thread owning one socket at a time. The loop
//! mirrors the paper's donor daemon: request work, compute, submit,
//! repeat — plus the robustness the real deployment needed: heartbeats
//! so the server can tell "slow" from "gone", reconnect with jittered
//! exponential backoff (re-reading the [`super::Directory`], so a
//! restarted server on a new port is found), and idempotent result
//! resubmission — a result is retired only on a [`Frame::ResultAck`],
//! so an ack lost to a broken connection leads to a resend, never a
//! lost unit (the server dedups).
//!
//! Lifecycle faults from a [`FaultPlan`] (late join, permanent
//! departure, crash windows, slowdowns) are interpreted client-side
//! against the shared [`Clock`], exactly like the thread backend, so
//! identical plans mean identical stories on both transports.

use super::backoff::Backoff;
use super::cache::{chunk_digest, ChunkCache};
use super::wire::{encode_frame_into, Frame, FrameReader, ReadError, HEADER_LEN};
use super::{Clock, Directory};
use crate::codec::{ChunkNeed, WireCodec};
use crate::fault::{FaultInjector, FaultPlan, PlanInterpreter};
use crate::problem::{Algorithm, Payload, WorkUnit};
use crate::server::Server;
use crate::telemetry::Telemetry;
use biodist_util::rng::SplitMix64;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning for the donor clients. Time-valued fields are in *scaled*
/// seconds (the [`Clock`]'s unit) unless suffixed `_wall`.
#[derive(Debug, Clone)]
pub struct NetClientOptions {
    /// Heartbeat cadence while idle/polling.
    pub heartbeat_interval: f64,
    /// How long to await a response frame before treating the
    /// connection as broken (triggers reconnect + resubmission).
    pub ack_timeout: f64,
    /// Sleep after a `Wait` before asking again.
    pub poll_interval: f64,
    /// Reconnect backoff base (doubles per consecutive failure, with
    /// ±50% deterministic jitter).
    pub reconnect_base: f64,
    /// Reconnect backoff cap.
    pub reconnect_cap: f64,
    /// Socket read timeout (wall time) — the granularity at which a
    /// blocked client notices shutdown flags and deadlines.
    pub read_timeout_wall: Duration,
    /// Pipelined dispatch depth: how many assignments the donor keeps
    /// prefetched (chunks fetched, unit hydrated) so the next compute
    /// starts without a request round-trip. 1 disables pipelining.
    pub queue_depth: usize,
    /// Capacity of the donor's chunk cache in bytes. Data a unit needs
    /// is fetched over the wire only when this cache misses.
    pub chunk_cache_bytes: u64,
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
            heartbeat_interval: 0.5,
            ack_timeout: 2.0,
            poll_interval: 0.05,
            reconnect_base: 0.05,
            reconnect_cap: 2.0,
            read_timeout_wall: Duration::from_millis(5),
            queue_depth: 2,
            chunk_cache_bytes: 64 * 1024 * 1024,
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

/// Spawns `n_clients` donor threads against `directory`. They exit when
/// the server says `Finished`, their plan departs them, or `run_over`
/// is set (the orchestrator's backstop after the server completes).
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
            let plan = plan.clone();
            let run_over = run_over.clone();
            let opts = opts.clone();
            thread::spawn(move || {
                ClientLoop::new(c, directory, clock, kit, &plan, n_clients, run_over, opts).run()
            })
        })
        .collect()
}

/// Bytes one burst window may have in flight on a connection: the
/// donor writes `ChunkRequest`s back to back until the exchange they
/// start (each chunk's [`ChunkNeed::bytes`] plus the framing of its
/// request and reply) reaches this, then waits for the window to drain
/// before writing the next. It bounds what the serving endpoint queues
/// in its output buffer for one connection, whatever the unit size; it
/// is small enough that neither side of a *blocking* endpoint (a
/// replica) can fill the other's socket buffers while both are still
/// writing, and large enough that a unit of a few hundred sequence
/// chunks is one write and one streamed reply.
const BURST_WINDOW_BYTES: u64 = 256 * 1024;

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

/// How one [`ClientLoop::burst`] over a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BurstEnd {
    /// Every request was answered or proven lost; the stream is clean.
    Complete,
    /// The endpoint refused a chunk with `ChunkMissing`.
    Missing,
    /// A reply did not arrive within the ack timeout (or the run ended).
    TimedOut,
    /// The connection failed.
    Broken,
}

/// A result computed but not yet acknowledged — the idempotence unit.
struct PendingResult {
    problem: u64,
    unit: u64,
    payload: Vec<u8>,
}

/// A prefetched assignment: decoded, its chunks fetched and hydrated,
/// ready to compute without touching the wire again.
struct QueuedUnit {
    problem: u64,
    unit: u64,
    cost_ops: f64,
    payload: Payload,
}

struct ClientLoop {
    id: usize,
    directory: Directory,
    clock: Clock,
    kit: ClientKit,
    interp: PlanInterpreter,
    departure: Option<f64>,
    crashes: Vec<(f64, f64)>,
    join_at: Option<f64>,
    run_over: Arc<AtomicBool>,
    opts: NetClientOptions,
    rng: SplitMix64,
    conn: Option<Conn>,
    /// Outbound frames are encoded here, then written in one call.
    wbuf: Vec<u8>,
    reconnect: Backoff,
    pending: Option<PendingResult>,
    last_heartbeat: f64,
    cache: ChunkCache,
    queue: VecDeque<QueuedUnit>,
    telemetry: Telemetry,
    /// Donor-local registry, shipped as delta snapshots (and cleared)
    /// every `metrics_report_interval`. Dual-written next to the shared
    /// handle so the server's merged view carries per-donor prefixes.
    local_metrics: crate::telemetry::MetricsRegistry,
    last_report: f64,
}

#[allow(clippy::too_many_arguments)]
impl ClientLoop {
    fn new(
        id: usize,
        directory: Directory,
        clock: Clock,
        kit: ClientKit,
        plan: &FaultPlan,
        n_clients: usize,
        run_over: Arc<AtomicBool>,
        opts: NetClientOptions,
    ) -> Self {
        Self {
            id,
            directory,
            clock,
            interp: PlanInterpreter::new(plan, n_clients),
            departure: plan.departure_time(id),
            crashes: plan.crashes(id),
            join_at: plan.join_time(id),
            run_over,
            rng: SplitMix64::new(0xC11E_27B1 ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            conn: None,
            wbuf: Vec::new(),
            reconnect: Backoff::new(opts.reconnect_base, opts.reconnect_cap, 6),
            pending: None,
            last_heartbeat: 0.0,
            cache: ChunkCache::new(opts.chunk_cache_bytes),
            queue: VecDeque::new(),
            telemetry: kit.telemetry.clone(),
            local_metrics: Default::default(),
            last_report: 0.0,
            kit,
            opts,
        }
    }

    fn run(mut self) {
        if let Some(t) = self.join_at {
            thread::sleep(self.clock.wall(t - self.clock.now()));
        }
        loop {
            if self.run_over.load(Ordering::SeqCst) {
                return;
            }
            let now = self.clock.now();
            if self.departure.is_some_and(|t| now >= t) {
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
            // Resubmission first: a pending result outranks new work.
            if self.pending.is_some() {
                self.flush_pending();
                continue;
            }
            self.maybe_heartbeat();
            self.maybe_report_metrics();
            match self.request_and_compute() {
                Step::Continue => {}
                Step::Finished => {
                    self.send(&Frame::Goodbye {
                        client: self.id as u64,
                    });
                    return;
                }
            }
        }
    }

    /// If `now` is inside a crash window: drop the connection and any
    /// in-flight state (a crashed donor loses everything — pending
    /// result, prefetch queue, and the chunk cache), sleep out the
    /// remaining downtime, and report `true`.
    fn handle_crash_window(&mut self, now: f64) -> bool {
        for &(at, down) in &self.crashes {
            if now >= at && now < at + down {
                self.conn = None;
                self.pending = None;
                self.queue.clear();
                self.cache.clear();
                self.local_metrics = Default::default();
                // The crash event closes every span this donor held
                // (leases and compute sub-spans) in verify_spans.
                self.telemetry.emit_at(
                    now,
                    crate::telemetry::EventKind::MachineCrashed {
                        client: self.id,
                        down_secs: down,
                    },
                );
                let wake = at + down;
                thread::sleep(self.clock.wall(wake - now));
                return true;
            }
        }
        false
    }

    /// Connects via the directory and says Hello; on failure sleeps a
    /// jittered exponential backoff (shared [`Backoff`] implementation
    /// with the fetch failover ladder). Returns whether connected.
    fn connect(&mut self) -> bool {
        let addr = self.directory.origin();
        let stream = addr.and_then(|a| TcpStream::connect(a).ok());
        match stream {
            Some(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(self.opts.read_timeout_wall));
                self.conn = Some((stream, FrameReader::new()));
                self.send(&Frame::Hello {
                    client: self.id as u64,
                });
                self.reconnect.reset();
                true
            }
            None => {
                let delay = self.reconnect.delay_secs(&mut self.rng);
                self.reconnect.record_failure();
                thread::sleep(self.clock.wall(delay));
                false
            }
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
    }

    fn send(&mut self, frame: &Frame) -> bool {
        self.wbuf.clear();
        encode_frame_into(frame, &mut self.wbuf);
        if let Some((stream, _)) = self.conn.as_mut() {
            if stream.write_all(&self.wbuf).is_ok() {
                return true;
            }
        }
        self.drop_conn();
        false
    }

    /// Adds to a counter in the shared registry and in the donor-local
    /// one that ships to the server.
    fn count(&mut self, name: &str, v: u64) {
        if v > 0 {
            self.telemetry.counter_add(name, v);
            self.local_metrics.counter_add(name, v);
        }
    }

    /// Reads frames until `accept` claims one, the ack timeout passes
    /// (`None`), or the connection breaks (`None` + dropped conn).
    /// Non-matching frames (stale acks after a reconnect, heartbeat
    /// acks) are skipped — the protocol is idempotent, so late
    /// responses are harmless.
    fn await_frame(&mut self, accept: impl Fn(&Frame) -> bool) -> Option<Frame> {
        let deadline = self.clock.now() + self.opts.ack_timeout;
        loop {
            if self.run_over.load(Ordering::SeqCst) || self.clock.now() > deadline {
                return None;
            }
            let (stream, reader) = self.conn.as_mut()?;
            match reader.poll(stream) {
                Ok(Some(frame)) if accept(&frame) => return Some(frame),
                Ok(Some(Frame::ReplicaAnnounce { endpoints })) => {
                    // Unsolicited topology update (the Hello reply, or
                    // a re-announcement): fold it into the directory.
                    self.directory.merge_replicas(&endpoints);
                }
                Ok(Some(_)) => {}               // stale/unsolicited frame: skip
                Ok(None) => {}                  // read timeout tick
                Err(ReadError::Decode(_)) => {} // mangled inbound frame: skip
                Err(ReadError::Io(_)) => {
                    self.drop_conn();
                    return None;
                }
            }
        }
    }

    /// Sends the pending result and awaits its ack. On timeout or a
    /// broken connection the pending result is kept and resent after
    /// reconnect — the server dedups, so at-least-once is safe.
    fn flush_pending(&mut self) {
        let Some((want_p, want_u, payload)) = self
            .pending
            .as_ref()
            .map(|p| (p.problem, p.unit, p.payload.clone()))
        else {
            return;
        };
        let frame = Frame::SubmitResult {
            client: self.id as u64,
            problem: want_p,
            unit: want_u,
            payload,
        };
        if !self.send(&frame) {
            return;
        }
        let ack = self.await_frame(|f| {
            matches!(f, Frame::ResultAck { problem, unit, .. }
                     if *problem == want_p && *unit == want_u)
        });
        if ack.is_some() {
            // Accepted or nacked (duplicate/corrupt) — either way the
            // server has ruled and the pending copy is retired.
            self.pending = None;
        }
    }

    fn maybe_heartbeat(&mut self) {
        let now = self.clock.now();
        if now - self.last_heartbeat >= self.opts.heartbeat_interval {
            self.last_heartbeat = now;
            self.send(&Frame::Heartbeat {
                client: self.id as u64,
            });
            // The ack is skipped by the next await_frame; no wait here.
        }
    }

    /// Ships the local registry as a delta snapshot when the cadence is
    /// due. Fire-and-forget: the delta is reset whether or not the send
    /// lands — a lost report skews counters, never correctness.
    fn maybe_report_metrics(&mut self) {
        if self.opts.metrics_report_interval <= 0.0 {
            return;
        }
        let now = self.clock.now();
        if now - self.last_report < self.opts.metrics_report_interval {
            return;
        }
        self.last_report = now;
        let local = std::mem::take(&mut self.local_metrics);
        self.send(&Frame::MetricsReport {
            client: self.id as u64,
            snapshot: local.snapshot().to_wire_bytes(),
        });
    }

    fn request_and_compute(&mut self) -> Step {
        // Pipelined dispatch: top the prefetch queue up to
        // `queue_depth` assignments — each decoded, its chunks fetched
        // (cache misses only) and hydrated — then compute the front.
        while self.queue.len() < self.opts.queue_depth.max(1) {
            if !self.send(&Frame::RequestWork {
                client: self.id as u64,
            }) {
                break;
            }
            let reply = self.await_frame(|f| {
                matches!(f, Frame::AssignUnit { .. } | Frame::Wait | Frame::Finished)
            });
            match reply {
                Some(Frame::AssignUnit {
                    problem,
                    unit,
                    cost_ops,
                    payload,
                }) => self.enqueue_assignment(problem, unit, cost_ops, &payload),
                Some(Frame::Wait) => break,
                Some(Frame::Finished) => {
                    // Every problem is complete; any queued units could
                    // only produce wasted results.
                    self.queue.clear();
                    return Step::Finished;
                }
                _ => break, // timeout or broken conn: reconnect path
            }
        }
        match self.queue.pop_front() {
            Some(qu) => self.compute_queued(qu),
            None => self.parked_wait(self.opts.poll_interval),
        }
        Step::Continue
    }

    /// A real parked wait with a deadline, replacing the old fixed
    /// sleep after a `Wait`: the client blocks *on the socket* for up
    /// to `scaled_secs`, so any inbound frame (a replica
    /// re-announcement, a stale ack) ends the pause immediately instead
    /// of after a poll tick. Degrades to a plain sleep with no
    /// connection.
    fn parked_wait(&mut self, scaled_secs: f64) {
        let wall = self.clock.wall(scaled_secs);
        if self.conn.is_none() {
            thread::sleep(wall);
            return;
        }
        let deadline = std::time::Instant::now() + wall;
        if let Some((stream, _)) = self.conn.as_mut() {
            let _ = stream.set_read_timeout(Some(wall.max(Duration::from_millis(1))));
        }
        loop {
            if self.run_over.load(Ordering::SeqCst) {
                break;
            }
            let Some((stream, reader)) = self.conn.as_mut() else {
                return;
            };
            match reader.poll(stream) {
                Ok(Some(Frame::ReplicaAnnounce { endpoints })) => {
                    self.directory.merge_replicas(&endpoints);
                    break;
                }
                Ok(Some(_)) => break, // any inbound frame ends the pause
                Ok(None) => {
                    if std::time::Instant::now() >= deadline {
                        break;
                    }
                }
                Err(ReadError::Decode(_)) => break,
                Err(ReadError::Io(_)) => {
                    self.drop_conn();
                    return;
                }
            }
        }
        if let Some((stream, _)) = self.conn.as_mut() {
            let _ = stream.set_read_timeout(Some(self.opts.read_timeout_wall));
        }
    }

    /// Decodes an assignment, fetches the chunks it needs (donor cache
    /// first, `ChunkRequest` on miss), hydrates it, and queues it ready
    /// to compute. Any failure simply drops the unit — the server's
    /// lease expiry recovers it.
    fn enqueue_assignment(&mut self, problem: u64, unit: u64, cost_ops: f64, payload: &[u8]) {
        let pid = problem as usize;
        let Some(codec) = self.kit.codec(pid).cloned() else {
            return; // unknown problem id: drop; lease expiry recovers
        };
        let Ok(decoded) = codec.decode_unit(payload) else {
            return; // undecodable unit: drop; lease expiry recovers
        };
        let needs = codec.unit_chunks(&decoded);
        let hydrated = if needs.is_empty() {
            decoded
        } else {
            let Some(chunks) = self.fetch_chunks(problem, &needs) else {
                return; // transfer failed: drop; lease expiry recovers
            };
            match codec.hydrate_unit(decoded, &chunks) {
                Ok(p) => p,
                Err(_) => return,
            }
        };
        // The unit is hydrated and ready: the donor-side delivery point
        // of its span (transfer ends, pipeline queue-wait begins).
        self.telemetry.emit_at(
            self.clock.now(),
            crate::telemetry::EventKind::UnitDelivered {
                problem: pid,
                unit,
                client: self.id,
            },
        );
        self.queue.push_back(QueuedUnit {
            problem,
            unit,
            cost_ops,
            payload: hydrated,
        });
    }

    /// Assembles the chunk bytes a unit needs, in `needs` order: plan,
    /// burst, verify. Cache hits resolve first and cost zero wire bytes;
    /// the misses walk the failover ladder in *groups* — each replica
    /// rung sends the misses routed to one endpoint as one burst over
    /// one connection, whatever a rung leaves unanswered or
    /// unverifiable moves down, and the origin, over the main
    /// connection, is the last resort. Received bytes are verified
    /// against the digest the unit advertised before they are cached,
    /// so no endpoint can launder wrong bytes.
    fn fetch_chunks(
        &mut self,
        problem: u64,
        needs: &[ChunkNeed],
    ) -> Option<Vec<(u64, Arc<Vec<u8>>)>> {
        let mut got: Vec<Option<Arc<Vec<u8>>>> = Vec::with_capacity(needs.len());
        let mut todo: Vec<usize> = Vec::new();
        let planned_at = self.clock.now();
        for (i, need) in needs.iter().enumerate() {
            let (client, digest) = (self.id, need.digest);
            let hit = self.cache.get_verified(digest);
            if hit.is_some() {
                self.telemetry.emit_at(
                    planned_at,
                    crate::telemetry::EventKind::CacheHit { client, digest },
                );
            } else {
                self.telemetry.emit_at(
                    planned_at,
                    crate::telemetry::EventKind::CacheMiss { client, digest },
                );
                self.telemetry.emit_at(
                    planned_at,
                    crate::telemetry::EventKind::ChunkFetchStarted { client, digest },
                );
                todo.push(i);
            }
            got.push(hit);
        }
        self.count("cache.hits", (needs.len() - todo.len()) as u64);
        self.count("cache.misses", todo.len() as u64);

        let mut backoff = Backoff::new(self.opts.reconnect_base, self.opts.reconnect_cap, 6);
        for rung in 0..REPLICA_RUNGS {
            // Group what is still missing by its first healthy
            // rendezvous candidate; endpoints that failed a higher rung
            // are dead in the directory, so this is the next one down.
            let now = self.clock.now();
            let mut groups: Vec<(SocketAddr, Vec<usize>)> = Vec::new();
            let mut unrouted = Vec::new();
            for i in todo.drain(..) {
                let routed = self
                    .directory
                    .candidates_for(needs[i].digest, self.id as u64, 1, now);
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
                let routed: usize = groups.iter().map(|(_, g)| g.len()).sum();
                self.telemetry.counter_add("replica.fetches", routed as u64);
            }
            for (addr, group) in groups {
                let left = self.burst_replica(addr, problem, needs, group, &mut got);
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
                self.count("replica.failovers", 1);
                self.telemetry.emit_at(
                    self.clock.now(),
                    crate::telemetry::EventKind::ReplicaFailover {
                        client: self.id,
                        replica: rung,
                    },
                );
                let delay = backoff.delay_secs(&mut self.rng);
                backoff.record_failure();
                thread::sleep(self.clock.wall(delay));
            }
        }
        // Origin, over the main connection: the fallback of last resort.
        // A reply lost in transit or skipped for its CRC shows as a gap
        // in the in-order stream and a digest mismatch is never cached;
        // both are asked for again, a bounded number of times.
        for _attempt in 0..ORIGIN_ATTEMPTS {
            if todo.is_empty() {
                break;
            }
            let mut conn = self.conn.take()?;
            let (left, end) = self.burst(&mut conn, false, problem, needs, &todo, &mut got);
            if end != BurstEnd::Broken {
                self.conn = Some(conn);
            }
            if end != BurstEnd::Complete {
                // `ChunkMissing`: the origin does not hold the chunk, so
                // no rung can. Timeout or broken connection: the
                // reconnect path takes over. Either way the unit is
                // dropped and lease expiry recovers it.
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

    /// One replica rung for one endpoint: a dedicated connection, one
    /// burst for every chunk routed to it. Returns what it could not
    /// serve (everything, if it refuses the connection).
    fn burst_replica(
        &mut self,
        addr: SocketAddr,
        problem: u64,
        needs: &[ChunkNeed],
        wants: Vec<usize>,
        got: &mut [Option<Arc<Vec<u8>>>],
    ) -> Vec<usize> {
        let Ok(stream) = TcpStream::connect(addr) else {
            return wants;
        };
        self.telemetry.counter_add("replica.connects", 1);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.opts.read_timeout_wall));
        let mut conn = (stream, FrameReader::new());
        self.burst(&mut conn, true, problem, needs, &wants, got).0
    }

    /// The burst protocol over one connection: `ChunkRequest`s for
    /// `wants` (indices into `needs`) go out back to back in a single
    /// write per [`BURST_WINDOW_BYTES`] window, and the `ChunkData`
    /// replies are consumed as they stream back — matched by chunk id,
    /// digest-verified, cached and stored in `got`. One connection
    /// answers in order, so a reply to a later request proves every
    /// earlier unanswered one was dropped in transit or skipped for its
    /// CRC: those are set aside at once instead of waiting out the ack
    /// timeout. Returns the wants still unresolved and how it ended.
    fn burst(
        &mut self,
        conn: &mut Conn,
        replica: bool,
        problem: u64,
        needs: &[ChunkNeed],
        wants: &[usize],
        got: &mut [Option<Arc<Vec<u8>>>],
    ) -> (Vec<usize>, BurstEnd) {
        let (stream, reader) = conn;
        let evictions_before = self.cache.stats().evictions;
        let (mut fetched_bytes, mut gaps, mut mismatches) = (0u64, 0u64, 0u64);
        let mut left: Vec<usize> = Vec::new();
        let mut outstanding: VecDeque<usize> = VecDeque::new();
        let mut sent = 0;
        let mut end = BurstEnd::Complete;
        while end == BurstEnd::Complete && sent < wants.len() {
            let window_start = sent;
            let mut window = 0u64;
            self.wbuf.clear();
            while sent < wants.len() {
                let exchange = needs[wants[sent]].bytes + CHUNK_EXCHANGE_OVERHEAD;
                if sent > window_start && window + exchange > BURST_WINDOW_BYTES {
                    break;
                }
                window += exchange;
                encode_frame_into(
                    &Frame::ChunkRequest {
                        client: self.id as u64,
                        problem,
                        chunk: needs[wants[sent]].chunk,
                    },
                    &mut self.wbuf,
                );
                sent += 1;
            }
            if stream.write_all(&self.wbuf).is_err() {
                sent = window_start;
                end = BurstEnd::Broken;
                break;
            }
            outstanding.extend(&wants[window_start..sent]);
            let burst_len = outstanding.len() as f64;
            self.count("net.chunk_bursts", 1);
            self.telemetry.observe(
                "net.chunk_burst_len",
                crate::telemetry::SIZE_BOUNDS,
                burst_len,
            );
            self.local_metrics.observe(
                "net.chunk_burst_len",
                crate::telemetry::SIZE_BOUNDS,
                burst_len,
            );

            let mut deadline = self.clock.now() + self.opts.ack_timeout;
            while !outstanding.is_empty() {
                if self.run_over.load(Ordering::SeqCst) || self.clock.now() > deadline {
                    end = BurstEnd::TimedOut;
                    break;
                }
                let (chunk, reply) = match reader.poll(stream) {
                    Ok(Some(Frame::ChunkData {
                        problem: p,
                        chunk,
                        digest,
                        payload,
                    })) if p == problem => (chunk, Some((digest, payload))),
                    Ok(Some(Frame::ChunkMissing { problem: p, chunk })) if p == problem => {
                        (chunk, None)
                    }
                    Ok(Some(Frame::ReplicaAnnounce { endpoints })) => {
                        self.directory.merge_replicas(&endpoints);
                        continue;
                    }
                    // Unsolicited frame, read-timeout tick, or a reply
                    // mangled in transit (its CRC made the reader skip
                    // it; the next in-order reply exposes the gap).
                    Ok(Some(_)) | Ok(None) | Err(ReadError::Decode(_)) => continue,
                    Err(ReadError::Io(_)) => {
                        end = BurstEnd::Broken;
                        break;
                    }
                };
                let Some(pos) = outstanding.iter().position(|&i| needs[i].chunk == chunk) else {
                    continue; // stale or duplicate reply: nobody is waiting for it
                };
                gaps += pos as u64;
                left.extend(outstanding.drain(..pos));
                let i = outstanding.pop_front().expect("position found it");
                let now = self.clock.now();
                deadline = now + self.opts.ack_timeout;
                let need = &needs[i];
                match reply {
                    Some((digest, payload))
                        if digest == need.digest && chunk_digest(&payload) == need.digest =>
                    {
                        self.telemetry.emit_at(
                            now,
                            crate::telemetry::EventKind::ChunkFetchFinished {
                                client: self.id,
                                digest: need.digest,
                                replica,
                            },
                        );
                        fetched_bytes += payload.len() as u64;
                        let bytes = Arc::new(payload);
                        self.cache.insert(need.digest, bytes.clone());
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
        self.count("cache.bytes_fetched", fetched_bytes);
        self.count("cache.rerequests", gaps);
        self.count("cache.verify_failures", mismatches);
        let source = if replica {
            "replica.bytes_replica"
        } else {
            "replica.bytes_origin"
        };
        if fetched_bytes > 0 {
            self.telemetry.counter_add(source, fetched_bytes);
        }
        let evicted = self.cache.stats().evictions - evictions_before;
        if evicted > 0 {
            self.telemetry.counter_add("cache.evictions", evicted);
        }
        (left, end)
    }

    fn compute_queued(&mut self, qu: QueuedUnit) {
        let pid = qu.problem as usize;
        let Some(algorithm) = self.kit.algorithm(pid).cloned() else {
            return; // unknown problem id: drop; lease expiry recovers
        };
        let Some(codec) = self.kit.codec(pid).cloned() else {
            return;
        };
        let (problem, unit) = (qu.problem, qu.unit);
        let started = self.clock.now();
        self.telemetry.emit_at(
            started,
            crate::telemetry::EventKind::ComputeStarted {
                problem: pid,
                unit: qu.unit,
                client: self.id,
            },
        );
        let wu = WorkUnit {
            id: qu.unit,
            payload: qu.payload,
            cost_ops: qu.cost_ops,
        };
        let result = algorithm.compute(&wu);
        // Straggler faults stretch the unit's wall time, like the
        // thread backend: factor sampled once at unit start.
        let scale = self.interp.compute_scale(self.id, started);
        if scale > 1.0 {
            let real = self.clock.now() - started;
            thread::sleep(self.clock.wall(real * (scale - 1.0)));
        }
        // A crash window that opened mid-compute swallows the result —
        // and everything else the donor held in memory.
        let done = self.clock.now();
        if let Some(&(_, down)) = self
            .crashes
            .iter()
            .find(|&&(at, _down)| started < at && done >= at)
        {
            self.drop_conn();
            self.queue.clear();
            self.cache.clear();
            self.local_metrics = Default::default();
            // The orphaned compute sub-span is closed by the crash
            // event's client-wide closure.
            self.telemetry.emit_at(
                done,
                crate::telemetry::EventKind::MachineCrashed {
                    client: self.id,
                    down_secs: down,
                },
            );
            return;
        }
        self.telemetry.emit_at(
            done,
            crate::telemetry::EventKind::ComputeFinished {
                problem: pid,
                unit: qu.unit,
                client: self.id,
            },
        );
        self.local_metrics.counter_add("units_computed", 1);
        self.local_metrics.observe(
            "compute.secs",
            crate::telemetry::LATENCY_BOUNDS,
            done - started,
        );
        let Ok(mut encoded) = codec.encode_result(&result.payload) else {
            return;
        };
        // A Byzantine donor lies: flip the encoded payload bytes *here*,
        // before the frame CRC is computed, so the wire layer delivers
        // the lie intact — only server-side quorum compare can catch it.
        if self.interp.wrong_result(self.id, done) {
            crate::fault::flip_result_bytes(&mut encoded, self.id);
            self.telemetry
                .emit(crate::telemetry::EventKind::FaultInjected {
                    client: self.id,
                    action: "wrong_result".to_string(),
                });
        }
        self.pending = Some(PendingResult {
            problem,
            unit,
            payload: encoded,
        });
        self.flush_pending();
    }
}

enum Step {
    Continue,
    Finished,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::wire::encode_frame;
    use std::net::TcpListener;
    use std::sync::Mutex;
    use std::time::Instant;

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
    }

    fn chunk_bytes(chunk: u64) -> Vec<u8> {
        (0..200 + chunk % 50)
            .map(|i| (chunk * 31 + i) as u8)
            .collect()
    }

    fn needs(n: u64) -> Vec<ChunkNeed> {
        (0..n)
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

    /// A loopback origin that answers `ChunkRequest`s from
    /// [`chunk_bytes`], applies `fault` to the `k`-th request it sees
    /// (0-based, once), and logs every chunk id asked for.
    struct ScriptedOrigin {
        addr: SocketAddr,
        log: Arc<Mutex<Vec<u64>>>,
        stop: Arc<AtomicBool>,
        thread: JoinHandle<()>,
    }

    impl ScriptedOrigin {
        fn start(fault: Option<(usize, Fault)>) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let log = Arc::new(Mutex::new(Vec::new()));
            let stop = Arc::new(AtomicBool::new(false));
            let thread = {
                let (log, stop) = (log.clone(), stop.clone());
                thread::spawn(move || {
                    let (mut stream, _) = listener.accept().unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_millis(2)))
                        .unwrap();
                    let mut reader = FrameReader::new();
                    let mut seen = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let (problem, chunk) = match reader.poll(&mut stream) {
                            Ok(Some(Frame::ChunkRequest { problem, chunk, .. })) => {
                                (problem, chunk)
                            }
                            Ok(_) => continue,
                            Err(_) => return,
                        };
                        log.lock().unwrap().push(chunk);
                        let hit = fault.filter(|&(k, _)| k == seen).map(|(_, f)| f);
                        seen += 1;
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
                            Some(Fault::Drop) => continue,
                            Some(Fault::CorruptCrc) => *reply.last_mut().unwrap() ^= 0xFF,
                            Some(Fault::Missing) => {
                                reply = encode_frame(&Frame::ChunkMissing { problem, chunk })
                            }
                            Some(Fault::SwapDigest) | None => {}
                        }
                        if stream.write_all(&reply).is_err() {
                            return;
                        }
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

        fn finish(self) -> Vec<u64> {
            self.stop.store(true, Ordering::SeqCst);
            self.thread.join().unwrap();
            let log = self.log.lock().unwrap().clone();
            log
        }
    }

    /// A donor loop wired to `origin` (no replicas), connected, with an
    /// ack timeout no healthy test may come near.
    fn donor(origin: SocketAddr, telemetry: &Telemetry) -> ClientLoop {
        let kit = ClientKit {
            algorithms: Vec::new(),
            codecs: Vec::new(),
            telemetry: telemetry.clone(),
        };
        let opts = NetClientOptions {
            ack_timeout: 30.0,
            ..Default::default()
        };
        let mut donor = ClientLoop::new(
            0,
            Directory::with_origin(origin),
            Clock::new(1.0),
            kit,
            &FaultPlan::none(),
            1,
            Arc::new(AtomicBool::new(false)),
            opts,
        );
        assert!(donor.connect());
        donor
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
        let origin = ScriptedOrigin::start(None);
        let mut donor = donor(origin.addr, &telemetry);
        let needs = needs(300);
        let got = donor.fetch_chunks(0, &needs).expect("unit hydrates");
        assert_hydrates_exactly(&needs, &got);
        let again = donor.fetch_chunks(0, &needs).expect("warm unit hydrates");
        assert_hydrates_exactly(&needs, &again);
        assert_eq!(origin.finish(), (0..300).collect::<Vec<u64>>());
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
            let origin = ScriptedOrigin::start(Some((k, fault)));
            let mut donor = donor(origin.addr, &telemetry);
            let needs = needs(300);
            let started = Instant::now();
            let got = donor.fetch_chunks(0, &needs).expect("unit hydrates");
            let elapsed = started.elapsed();
            assert_hydrates_exactly(&needs, &got);
            let mut asked: Vec<u64> = (0..300).collect();
            asked.push(k as u64);
            assert_eq!(
                origin.finish(),
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
            let local = donor.local_metrics.snapshot();
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
        let origin = ScriptedOrigin::start(Some((40, Fault::Missing)));
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
        assert!(
            donor.conn.is_some(),
            "a refusal does not cost the connection"
        );
        assert_eq!(donor.cache.len(), 99, "every verified reply was cached");
        assert_eq!(origin.finish(), (0..100).collect::<Vec<u64>>(), "no retry");
        assert_eq!(telemetry.metrics_snapshot().counter("cache.rerequests"), 0);
    }

    #[test]
    fn windows_cap_the_bytes_in_flight() {
        // Chunks advertised at 100 KiB each: two exchanges fit a
        // 256 KiB window, so five chunks go out as 2 + 2 + 1 — and a
        // single chunk larger than the window still goes, alone.
        let telemetry = Telemetry::enabled();
        let origin = ScriptedOrigin::start(None);
        let mut donor = donor(origin.addr, &telemetry);
        let mut big = needs(6);
        for need in &mut big[..5] {
            need.bytes = 100 * 1024;
        }
        big[5].bytes = 2 * BURST_WINDOW_BYTES;
        let got = donor.fetch_chunks(0, &big).expect("unit hydrates");
        assert_hydrates_exactly(&big, &got);
        origin.finish();
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("net.chunk_bursts"), 4);
        let lens = snap.histogram("net.chunk_burst_len").unwrap();
        assert_eq!((lens.count(), lens.sum()), (4, 6.0));
    }
}
