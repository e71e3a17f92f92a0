//! The TCP-facing server: a nonblocking readiness event loop.
//!
//! The paper's server was thread-per-connection Java — fine for ~200
//! donors, O(threads) beyond that. Here the transport runs on a fixed
//! thread count: one blocking acceptor, `shards` event-loop threads
//! (each a [`super::evloop::serve`] loop owning its poller, its
//! connections' read/write buffers and frame reassembly — the loop is
//! shared with the replica tier; this file is the origin's
//! [`FrameHandler`] on top of it), and one ticker for lease
//! sweeps, heartbeat liveness and periodic checkpoint snapshots. No
//! thread is ever dedicated to a donor, and no loop polls on a sleep:
//! every wakeup is readiness (bytes, buffer space, or a
//! waker poke when the acceptor hands over a connection).
//!
//! What shards is connection I/O: socket reads and writes, frame
//! reassembly, CRC checks and chunk/unit encoding run on whichever
//! shard the acceptor round-robined the connection to, for the
//! connection's whole life. Dispatch does not shard: one
//! [`crate::Server`] behind one mutex keeps leases, folds, quorum
//! votes, reputation, health and recovery, and every unit is assigned
//! by [`Server::request_work`] under that lock — so a unit is always
//! sized by the granularity hint of the donor that will compute it,
//! at every shard count.

use super::checkpoint::CheckpointWriter;
use super::evloop::{
    accept_loop, serve, thread_cpu_ticks, unblock_accept, Action, Conn, FrameHandler, LoopHandle,
};
use super::wire::{Frame, SUBMIT_RESULT_TYPE};
use super::Clock;
use crate::codec::{ByteReader, WireCodec};
use crate::sched::ClientId;
use crate::server::{Assignment, Server};
use crate::telemetry::Telemetry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning for [`NetServer`]. Time-valued fields are in *scaled* seconds
/// (the [`Clock`]'s unit), so the same options work at any time scale.
#[derive(Debug, Clone)]
pub struct NetServerOptions {
    /// A client silent for longer than this (no frame of any kind) is
    /// declared gone: its leases reissue immediately instead of waiting
    /// for lease expiry. Scaled seconds.
    pub liveness_timeout: f64,
    /// Ticker period (lease sweep + liveness check), wall time.
    pub tick_wall: Duration,
    /// Append a scheduler snapshot to the checkpoint log every this
    /// many ticks (0 disables periodic snapshots).
    pub snapshot_every_ticks: u64,
    /// When set, the ticker appends periodic [`crate::SchedSnapshot`]
    /// records here so a recovered server starts with warm throughput
    /// estimates. (Unit issue/fold journaling is separate: install the
    /// writer as the server's journal via [`crate::Server::set_journal`].)
    pub checkpoint: Option<CheckpointWriter>,
    /// Event-loop threads serving connections (default 1, overridable
    /// via the `BIODIST_NET_SHARDS` env var); the acceptor deals
    /// connections to them round-robin. Identical dispatch at every
    /// value: shards parallelise socket I/O and framing only.
    pub shards: usize,
}

impl Default for NetServerOptions {
    fn default() -> Self {
        let shards = std::env::var("BIODIST_NET_SHARDS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1);
        Self {
            liveness_timeout: 5.0,
            tick_wall: Duration::from_millis(2),
            snapshot_every_ticks: 50,
            checkpoint: None,
            shards,
        }
    }
}

struct Shared {
    /// `None` after `wait()` hands the server back or `kill()` drops it
    /// (simulated server-process death).
    server: Mutex<Option<Server>>,
    done: Condvar,
    last_seen: Mutex<HashMap<ClientId, f64>>,
    /// Hard stop: shard loops and the accept loop exit promptly.
    kill: AtomicBool,
    /// Cloned off the server at start so wire-level counters and sweep
    /// events don't need the server lock.
    telemetry: Telemetry,
    /// Chunk replica endpoints, announced to every donor on `Hello`
    /// and snapshotted to the checkpoint log. Set after start (replicas
    /// bind once the origin's address is known).
    replicas: Mutex<Vec<SocketAddr>>,
    /// Per-shard connection inboxes and wakers.
    shards: Vec<LoopHandle>,
}

/// A running TCP server around a [`Server`]. Bind with [`NetServer::start`],
/// then either [`NetServer::wait`] for completion or [`NetServer::kill`]
/// it mid-run to simulate a server crash (the checkpoint log survives;
/// [`super::recover`] rebuilds the state).
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: JoinHandle<()>,
    ticker_thread: JoinHandle<()>,
    shard_threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds an ephemeral loopback port and starts serving `server`.
    pub fn start(server: Server, clock: Clock, opts: NetServerOptions) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let telemetry = server.telemetry();
        let n_shards = opts.shards.max(1);
        // The whole transport is this many threads, donors be damned:
        // the scale tier asserts it from the metrics registry.
        telemetry.gauge_set("evloop.threads", (n_shards + 2) as f64);
        let loops: io::Result<Vec<_>> = (0..n_shards).map(|_| LoopHandle::new()).collect();
        let (handles, rxs): (Vec<_>, Vec<_>) = loops?.into_iter().unzip();
        let shared = Arc::new(Shared {
            server: Mutex::new(Some(server)),
            done: Condvar::new(),
            last_seen: Mutex::new(HashMap::new()),
            kill: AtomicBool::new(false),
            telemetry,
            replicas: Mutex::new(Vec::new()),
            shards: handles,
        });
        let shard_threads = rxs
            .into_iter()
            .enumerate()
            .map(|(idx, rx)| {
                let shared = shared.clone();
                thread::spawn(move || {
                    with_cpu_accounting(&shared.telemetry.clone(), || {
                        let mut ctx = ShardCtx {
                            shard: idx,
                            shared: &shared,
                            clock,
                            batch: PumpBatch::default(),
                        };
                        serve(&shared.shards[idx], rx, &mut ctx)
                    })
                })
            })
            .collect();
        let accept_thread = {
            let shared = shared.clone();
            thread::spawn(move || {
                with_cpu_accounting(&shared.telemetry.clone(), || {
                    // Round-robin: a shard serves a connection for life.
                    let mut next = 0usize;
                    accept_loop(&listener, &shared.kill, |stream| {
                        shared.shards[next].hand_over(stream);
                        next = (next + 1) % shared.shards.len();
                    })
                })
            })
        };
        let ticker_thread = {
            let shared = shared.clone();
            let opts = opts.clone();
            thread::spawn(move || {
                with_cpu_accounting(&shared.telemetry.clone(), || {
                    ticker_loop(&shared, clock, &opts)
                })
            })
        };
        Ok(Self {
            addr,
            shared,
            accept_thread,
            ticker_thread,
            shard_threads,
        })
    }

    /// The address clients (or a fault proxy) should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers the chunk replica endpoints. Every subsequent `Hello`
    /// is answered with a [`Frame::ReplicaAnnounce`] carrying this
    /// list, and the ticker snapshots it to the checkpoint log.
    pub fn set_replicas(&self, endpoints: Vec<SocketAddr>) {
        *self.shared.replicas.lock().unwrap() = endpoints;
    }

    /// Runs `f` against the live server (e.g. to poll progress from a
    /// test); `None` if the server was already taken or killed. The
    /// journal is committed first: what an observer sees is held to
    /// the same rule as what a donor is told — it is in the log, so a
    /// [`NetServer::kill`] right after cannot lose it.
    pub fn with_server<R>(&self, f: impl FnOnce(&Server) -> R) -> Option<R> {
        let mut guard = self.shared.server.lock().unwrap();
        let server = guard.as_mut()?;
        server.commit_journal();
        Some(f(server))
    }

    /// Blocks until every problem completes, then tears the transport
    /// down and returns the server.
    pub fn wait(self) -> Server {
        let server = {
            let mut guard = self.shared.server.lock().unwrap();
            loop {
                match guard.as_ref() {
                    Some(s) if !s.all_complete() => {
                        let (g, _) = self
                            .shared
                            .done
                            .wait_timeout(guard, Duration::from_millis(5))
                            .unwrap();
                        guard = g;
                    }
                    Some(_) => {
                        let mut server = guard.take().expect("checked above");
                        // A pump still in flight finds the server gone
                        // and cannot commit: the journal is whole before
                        // the caller sees the server.
                        server.commit_journal();
                        break server;
                    }
                    None => panic!("server was killed before wait()"),
                }
            }
        };
        self.shutdown();
        server
    }

    /// Simulates the server process dying mid-run: the in-memory
    /// [`Server`] is dropped on the spot, connections go dark, and only
    /// what reached the checkpoint log survives — the journal's open
    /// group is discarded, so the crash loses exactly the records no
    /// donor was told about. A pump in progress stops between two
    /// frames: neither the records nor the replies of the frames it
    /// already handled get out.
    pub fn kill(self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        if let Some(mut server) = self.shared.server.lock().unwrap().take() {
            server.discard_journal();
        }
        self.shutdown();
    }

    fn shutdown(self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        // Unblock the acceptor (blocked in accept) and wake every
        // shard loop.
        unblock_accept(self.addr);
        for s in &self.shared.shards {
            s.wake();
        }
        let _ = self.accept_thread.join();
        let _ = self.ticker_thread.join();
        for t in self.shard_threads {
            let _ = t.join();
        }
    }
}

/// Runs `f`, then charges this thread's CPU time (user + system, in
/// kernel ticks) to the `evloop.cpu_ticks` counter — the scale bench's
/// measure of *server-side* cost, isolated from donor threads sharing
/// the process.
fn with_cpu_accounting(telemetry: &Telemetry, f: impl FnOnce()) {
    let start = thread_cpu_ticks();
    f();
    if let (Some(s), Some(e)) = (start, thread_cpu_ticks()) {
        telemetry.counter_add("evloop.cpu_ticks", e.saturating_sub(s));
    }
}

/// One shard's [`FrameHandler`]: the origin's protocol on top of the
/// shared connection loop.
struct ShardCtx<'a> {
    shard: usize,
    shared: &'a Arc<Shared>,
    clock: Clock,
    batch: PumpBatch,
}

/// What the frames of one pump share, so that a burst of
/// `ChunkRequest`s — or a donor's pipelined `[SubmitResult,
/// RequestWork]` pairs — takes the liveness, server and telemetry locks
/// once per read instead of once per frame: chunk encoding and
/// digesting need no authority, only the codec handle and the affinity
/// note do, and the wire counters only need adding up.
#[derive(Default)]
struct PumpBatch {
    /// Frames assembled and replies queued by this pump, added to
    /// `net.frames_in` / `net.frames_out` / `net.bytes_out` (and one to
    /// `net.pumps`) when it ends.
    frames_in: u64,
    frames_out: u64,
    bytes_out: u64,
    /// The donor this pump has already marked alive.
    alive: Option<ClientId>,
    /// The codec this pump serves chunks from, cloned under the server
    /// lock by its first `ChunkRequest` for that problem (inner `None`:
    /// no such problem, or it has no codec).
    codec: Option<(u64, Option<Arc<dyn WireCodec>>)>,
    /// Digests served to `served_to` that the scheduler's affinity map
    /// has not been told about yet.
    served: Vec<u64>,
    served_to: ClientId,
    /// A frame of this pump may have journaled something that no
    /// [`Server::commit_journal`] has covered yet.
    uncommitted: bool,
}

impl PumpBatch {
    /// Feeds the served digests to the affinity map, so later units
    /// covering them land on the donor that now holds them.
    fn apply_affinity(&mut self, server: &mut Server) {
        if !self.served.is_empty() {
            server.note_client_chunks(self.served_to, &self.served);
            self.served.clear();
        }
    }
}

impl ShardCtx<'_> {
    /// Adds the pump's wire counts to the registry in one go.
    fn flush_counts(&mut self) {
        let batch = &mut self.batch;
        self.shared.telemetry.counters_add(&[
            ("net.pumps", 1),
            ("net.frames_in", batch.frames_in),
            ("net.frames_out", batch.frames_out),
            ("net.bytes_out", batch.bytes_out),
        ]);
        (batch.frames_in, batch.frames_out, batch.bytes_out) = (0, 0, 0);
    }

    /// Applies the pump's pending affinity note under the server lock.
    fn flush_affinity(&mut self) {
        if self.batch.served.is_empty() {
            return;
        }
        match self.shared.server.lock().unwrap().as_mut() {
            Some(server) => self.batch.apply_affinity(server),
            None => self.batch.served.clear(),
        }
    }

    /// Marks `client` alive unless this pump already has.
    fn note_alive(&mut self, client: ClientId) {
        if self.batch.alive != Some(client) {
            self.batch.alive = Some(client);
            let now = self.clock.now();
            self.shared.last_seen.lock().unwrap().insert(client, now);
        }
    }

    /// The codec of `problem`, fetched under the server lock once per
    /// pump. `Err(())`: the server is gone.
    fn chunk_codec(&mut self, problem: u64) -> Result<Option<Arc<dyn WireCodec>>, ()> {
        if let Some((p, codec)) = &self.batch.codec {
            if *p == problem {
                return Ok(codec.clone());
            }
        }
        let guard = self.shared.server.lock().unwrap();
        let server = guard.as_ref().ok_or(())?;
        let pid = problem as usize;
        let codec = (pid < server.problem_count())
            .then(|| server.codec(pid))
            .flatten();
        drop(guard);
        self.batch.codec = Some((problem, codec.clone()));
        Ok(codec)
    }

    /// Queues `frame` for `conn` and counts it.
    fn reply(&mut self, conn: &mut Conn, frame: &Frame) {
        self.batch.frames_out += 1;
        self.batch.bytes_out += conn.queue_reply(frame) as u64;
    }
}

impl FrameHandler for ShardCtx<'_> {
    fn killed(&self) -> bool {
        self.shared.kill.load(Ordering::SeqCst)
    }

    fn adopted(&mut self, token: u64) {
        // Tokens count up from 1, one per adopted connection.
        self.shared
            .telemetry
            .gauge_set(&format!("shard.s{}.conns", self.shard), token as f64);
    }

    fn corrupt_body(&mut self, conn: &mut Conn, frame_type: u8, body_prefix: &[u8]) {
        self.shared.telemetry.counter_add("net.crc_failures", 1);
        // A mangled result still routes to the reissue path: its id
        // fields are in the prefix.
        if frame_type == SUBMIT_RESULT_TYPE {
            self.handle_corrupt_result(conn, body_prefix);
        }
    }

    /// Write-ahead, per pump: every record this pump's frames journaled
    /// is in the file before the first byte of a reply can reach the
    /// donor. `false`: the server was killed with records of this pump
    /// unwritten — the replies they justify must not be sent.
    fn end_pump(&mut self, _conn: &mut Conn) -> bool {
        if !std::mem::take(&mut self.batch.uncommitted) {
            return true;
        }
        match self.shared.server.lock().unwrap().as_mut() {
            Some(server) => {
                server.commit_journal();
                true
            }
            // `kill()` raises the flag before it takes the server; with
            // the flag clear it was `wait()`, which committed this
            // pump's records before it let go of the lock.
            None => !self.killed(),
        }
    }

    /// On every way out of a pump: the chunks were served and the
    /// frames counted either way.
    fn pump_done(&mut self) {
        self.flush_affinity();
        self.flush_counts();
        (self.batch.alive, self.batch.codec) = (None, None);
    }

    /// A dropped connection does NOT drop its client's leases — it may
    /// be a crash-rejoin or reconnect; true departures are reclaimed by
    /// the liveness sweep and lease timeouts.
    fn frame(&mut self, conn: &mut Conn, frame: Frame) -> Action {
        self.batch.frames_in += 1;
        let shared = self.shared;
        let clock = self.clock;
        let reply = match frame {
            Frame::Hello { client } => {
                self.note_alive(client as ClientId);
                // Advertise the replica tier so the donor can route
                // chunk fetches without out-of-band configuration.
                let endpoints = shared.replicas.lock().unwrap().clone();
                if endpoints.is_empty() {
                    None
                } else {
                    Some(Frame::ReplicaAnnounce { endpoints })
                }
            }
            Frame::Heartbeat { client } => {
                self.note_alive(client as ClientId);
                Some(Frame::HeartbeatAck)
            }
            Frame::RequestWork { client } => {
                let now = clock.now();
                self.note_alive(client as ClientId);
                let mut guard = shared.server.lock().unwrap();
                let Some(server) = guard.as_mut() else {
                    return Action::Close;
                };
                // Chunks this pump served come before the request in
                // the stream, so their affinity must be visible to it.
                self.batch.apply_affinity(server);
                self.batch.uncommitted = true;
                server.check_timeouts(now);
                match server.request_work(client as ClientId, now) {
                    Assignment::Unit { problem, unit, .. } => {
                        let encoded = server
                            .codec(problem)
                            .and_then(|c| c.encode_unit(&unit.payload).ok());
                        drop(guard);
                        match encoded {
                            Some(payload) => Some(Frame::AssignUnit {
                                problem: problem as u64,
                                unit: unit.id,
                                cost_ops: unit.cost_ops,
                                payload,
                            }),
                            // Unencodable unit (codec bug): stall this
                            // client; the lease will expire and reissue.
                            None => Some(Frame::Wait),
                        }
                    }
                    Assignment::Wait => Some(Frame::Wait),
                    Assignment::Finished => Some(Frame::Finished),
                }
            }
            Frame::SubmitResult {
                client,
                problem,
                unit,
                payload,
            } => {
                let now = clock.now();
                self.note_alive(client as ClientId);
                let pid = problem as usize;
                let mut guard = shared.server.lock().unwrap();
                let Some(server) = guard.as_mut() else {
                    return Action::Close;
                };
                let accepted = if pid < server.problem_count() {
                    match server.codec(pid).map(|c| c.decode_result(&payload)) {
                        Some(Ok(decoded)) => server.submit_result(
                            client as ClientId,
                            pid,
                            crate::problem::TaskResult {
                                unit_id: unit,
                                payload: decoded,
                            },
                            now,
                        ),
                        // Frame CRC passed but the payload didn't parse:
                        // semantic corruption; reissue path.
                        _ => {
                            server.result_corrupted(client as ClientId, pid, unit, now);
                            false
                        }
                    }
                } else {
                    false // garbage problem id: ignore, nack
                };
                self.batch.uncommitted = true;
                let complete = server.all_complete();
                drop(guard);
                if complete {
                    shared.done.notify_all();
                }
                Some(Frame::ResultAck {
                    problem,
                    unit,
                    accepted,
                })
            }
            Frame::Goodbye { client } => {
                let mut guard = shared.server.lock().unwrap();
                if let Some(server) = guard.as_mut() {
                    server.client_gone(client as ClientId);
                }
                drop(guard);
                shared
                    .last_seen
                    .lock()
                    .unwrap()
                    .remove(&(client as ClientId));
                return Action::Close;
            }
            Frame::ChunkRequest {
                client,
                problem,
                chunk,
            } => {
                // A replica pulling through is infrastructure, not a
                // donor: it gets no liveness entry and no chunk
                // affinity, or the scheduler would start routing units
                // at a machine that never computes.
                let is_replica = client == super::store::REPLICA_CLIENT_ID;
                if !is_replica {
                    self.note_alive(client as ClientId);
                }
                let Ok(codec) = self.chunk_codec(problem) else {
                    return Action::Close;
                };
                // Encoding and digesting run outside every lock.
                match codec.and_then(|c| c.encode_chunk(chunk).ok()) {
                    Some(payload) => {
                        let digest = super::cache::chunk_digest(&payload);
                        if !is_replica {
                            // The donor is about to hold this chunk:
                            // the pump feeds its digests to the
                            // scheduler's affinity map in one note.
                            if self.batch.served_to != client as ClientId {
                                self.flush_affinity();
                                self.batch.served_to = client as ClientId;
                            }
                            self.batch.served.push(digest);
                        }
                        shared.telemetry.counter_add("net.chunks_served", 1);
                        shared
                            .telemetry
                            .counter_add("net.chunk_bytes_out", payload.len() as u64);
                        Some(Frame::ChunkData {
                            problem,
                            chunk,
                            digest,
                            payload,
                        })
                    }
                    // Garbage problem id, unknown chunk or a codec
                    // without chunk support: an explicit refusal, so
                    // the requester fails over instead of waiting out
                    // its ack timeout.
                    None => Some(Frame::ChunkMissing { problem, chunk }),
                }
            }
            Frame::MetricsReport { client, snapshot } => {
                let now = clock.now();
                self.note_alive(client as ClientId);
                match crate::telemetry::MetricsSnapshot::from_wire_bytes(&snapshot) {
                    Ok(snap) => {
                        shared
                            .telemetry
                            .merge_snapshot_prefixed(&format!("donor.c{client}."), &snap);
                        shared.telemetry.emit_at(
                            now,
                            crate::telemetry::EventKind::MetricsReported {
                                client: client as ClientId,
                            },
                        );
                    }
                    Err(_) => {
                        shared
                            .telemetry
                            .counter_add("telemetry.report_decode_errors", 1);
                    }
                }
                None
            }
            Frame::StatusRequest => {
                let now = clock.now();
                let mut guard = shared.server.lock().unwrap();
                let Some(server) = guard.as_mut() else {
                    return Action::Close;
                };
                let snapshot = server.status_snapshot(now);
                // The snapshot shows folds of pumps still in flight:
                // like any reply, it waits for the commit.
                self.batch.uncommitted = true;
                drop(guard);
                Some(Frame::StatusReport {
                    snapshot: snapshot.to_wire_bytes(),
                })
            }
            // Server-bound protocol only; a client frame here is a bug
            // or corruption that slipped the type check — ignore it.
            Frame::AssignUnit { .. }
            | Frame::Wait
            | Frame::Finished
            | Frame::ResultAck { .. }
            | Frame::HeartbeatAck
            | Frame::ChunkData { .. }
            | Frame::ChunkMissing { .. }
            | Frame::ReplicaAnnounce { .. }
            | Frame::StatusReport { .. } => None,
        };
        if let Some(reply) = reply {
            self.reply(conn, &reply);
        }
        Action::Keep
    }
}

impl ShardCtx<'_> {
    /// Routes a CRC-failed `SubmitResult` to [`Server::result_corrupted`]
    /// using the id fields from the (header-validated) body prefix, and
    /// nacks so the sender retires or retries its pending copy.
    fn handle_corrupt_result(&mut self, conn: &mut Conn, body_prefix: &[u8]) {
        let mut r = ByteReader::new(body_prefix);
        let (Ok(client), Ok(problem), Ok(unit)) = (r.u64(), r.u64(), r.u64()) else {
            return; // prefix too mangled to attribute; lease expiry recovers
        };
        let pid = problem as usize;
        let now = self.clock.now();
        {
            let mut guard = self.shared.server.lock().unwrap();
            let Some(server) = guard.as_mut() else { return };
            if pid < server.problem_count() {
                server.result_corrupted(client as ClientId, pid, unit, now);
            }
        }
        let nack = Frame::ResultAck {
            problem,
            unit,
            accepted: false,
        };
        self.reply(conn, &nack);
    }
}

fn ticker_loop(shared: &Arc<Shared>, clock: Clock, opts: &NetServerOptions) {
    let mut tick = 0u64;
    while !shared.kill.load(Ordering::SeqCst) {
        thread::sleep(opts.tick_wall);
        tick += 1;
        let now = clock.now();
        // Liveness sweep outside the server lock (fixed lock order:
        // never hold both mutexes at once).
        let stale: Vec<ClientId> = {
            let mut seen = shared.last_seen.lock().unwrap();
            let stale: Vec<ClientId> = seen
                .iter()
                .filter(|&(_, &t)| now - t > opts.liveness_timeout)
                .map(|(&c, _)| c)
                .collect();
            for c in &stale {
                seen.remove(c);
            }
            stale
        };
        if !stale.is_empty() {
            shared.telemetry.emit_at(
                now,
                crate::telemetry::EventKind::LivenessSweep { stale: stale.len() },
            );
        }
        let mut guard = shared.server.lock().unwrap();
        let Some(server) = guard.as_mut() else { return };
        server.check_timeouts(now);
        for c in stale {
            server.client_gone(c);
        }
        let complete = server.all_complete();
        if !complete {
            if let Some(w) = &opts.checkpoint {
                if opts.snapshot_every_ticks > 0 && tick.is_multiple_of(opts.snapshot_every_ticks) {
                    w.append_snapshot(&server.scheduler_snapshot());
                    w.append_affinity(&server.affinity_snapshot());
                    w.append_reputation(&server.reputation_snapshot());
                    let endpoints = shared.replicas.lock().unwrap().clone();
                    if !endpoints.is_empty() {
                        w.append_replicas(&endpoints);
                    }
                }
            }
        }
        drop(guard);
        if complete {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::net::wire::{encode_frame, encode_frame_into, FrameReader};
    use crate::sched::SchedulerConfig;
    use crate::server::Server;
    use std::io::Write;
    use std::net::TcpStream;

    fn small_cfg() -> SchedulerConfig {
        SchedulerConfig {
            min_unit_ops: 2e6,
            max_unit_ops: 2e6,
            ..Default::default()
        }
    }

    /// Drives a full protocol session over a raw socket — no client.rs
    /// machinery — including one deliberately corrupted submission.
    #[test]
    fn raw_socket_session_completes_and_survives_corruption() {
        let clock = Clock::new(1000.0);
        let mut server = Server::new(small_cfg());
        let pid = server.submit(integration_problem(100_000));
        let algorithm = server.algorithm(pid);
        let codec = server.codec(pid).unwrap();
        let net = NetServer::start(server, clock, NetServerOptions::default()).unwrap();

        let mut stream = TcpStream::connect(net.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut reader = FrameReader::new();
        let await_frame = |stream: &mut TcpStream, reader: &mut FrameReader| loop {
            match reader.poll(stream) {
                Ok(Some(f)) => return f,
                Ok(None) => {}
                Err(e) => panic!("read failed: {e}"),
            }
        };

        stream
            .write_all(&encode_frame(&Frame::Hello { client: 0 }))
            .unwrap();
        let mut corrupted_once = false;
        loop {
            stream
                .write_all(&encode_frame(&Frame::RequestWork { client: 0 }))
                .unwrap();
            match await_frame(&mut stream, &mut reader) {
                Frame::AssignUnit {
                    problem,
                    unit,
                    cost_ops,
                    payload,
                } => {
                    let wu = crate::problem::WorkUnit {
                        id: unit,
                        payload: codec.decode_unit(&payload).unwrap(),
                        cost_ops,
                    };
                    let result = algorithm.compute(&wu);
                    let encoded = codec.encode_result(&result.payload).unwrap();
                    let mut frame = encode_frame(&Frame::SubmitResult {
                        client: 0,
                        problem,
                        unit,
                        payload: encoded,
                    });
                    if !corrupted_once {
                        corrupted_once = true;
                        let n = frame.len();
                        frame[n - 1] ^= 0xFF; // break the body CRC
                        stream.write_all(&frame).unwrap();
                        match await_frame(&mut stream, &mut reader) {
                            Frame::ResultAck {
                                accepted: false, ..
                            } => {}
                            other => panic!("expected a nack, got {other:?}"),
                        }
                        continue; // the unit reissues via the lease/corrupt path
                    }
                    stream.write_all(&frame).unwrap();
                    match await_frame(&mut stream, &mut reader) {
                        Frame::ResultAck { .. } => {}
                        other => panic!("expected an ack, got {other:?}"),
                    }
                }
                // A Wait is a real pause server-side; the raw client
                // just asks again on its next loop iteration.
                Frame::Wait => thread::sleep(Duration::from_millis(1)),
                Frame::Finished => break,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        stream
            .write_all(&encode_frame(&Frame::Goodbye { client: 0 }))
            .unwrap();

        let mut server = net.wait();
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
        assert_eq!(server.stats(pid).corrupted_results, 1);
    }

    /// Pairs in the pipelined segment: half a full-depth donor turn.
    const PAIRS: usize = 32;

    /// A raw-socket donor that holds [`PAIRS`] leased units of a
    /// journaled server and has their results, each followed by the
    /// request that replaces its unit, encoded as one segment — what a
    /// pipelined donor sends in one write.
    struct PipelinedSession {
        net: NetServer,
        telemetry: Telemetry,
        stream: TcpStream,
        reader: FrameReader,
        held: Vec<u64>,
        segment: Vec<u8>,
    }

    impl PipelinedSession {
        fn start(journal: Box<dyn crate::server::RunJournal>) -> Self {
            let mut server = Server::new(small_cfg());
            server.set_telemetry(Telemetry::enabled());
            let telemetry = server.telemetry();
            let pid = server.submit(integration_problem(1_000_000));
            server.set_journal(journal);
            let algorithm = server.algorithm(pid);
            let codec = server.codec(pid).unwrap();
            let opts = NetServerOptions {
                shards: 1,
                ..Default::default()
            };
            let net = NetServer::start(server, Clock::new(1000.0), opts).unwrap();
            let stream = TcpStream::connect(net.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let mut session = Self {
                net,
                telemetry,
                stream,
                reader: FrameReader::new(),
                held: Vec::new(),
                segment: Vec::new(),
            };
            let request = Frame::RequestWork { client: 0 };
            let mut hello = encode_frame(&Frame::Hello { client: 0 });
            for _ in 0..PAIRS {
                encode_frame_into(&request, &mut hello);
            }
            session.stream.write_all(&hello).unwrap();
            for _ in 0..PAIRS {
                let Frame::AssignUnit {
                    problem,
                    unit,
                    cost_ops,
                    payload,
                } = session.next_frame()
                else {
                    panic!("expected an assignment");
                };
                let wu = crate::problem::WorkUnit {
                    id: unit,
                    payload: codec.decode_unit(&payload).unwrap(),
                    cost_ops,
                };
                let result = algorithm.compute(&wu);
                encode_frame_into(
                    &Frame::SubmitResult {
                        client: 0,
                        problem,
                        unit,
                        payload: codec.encode_result(&result.payload).unwrap(),
                    },
                    &mut session.segment,
                );
                encode_frame_into(&request, &mut session.segment);
                session.held.push(unit);
            }
            session
        }

        fn next_frame(&mut self) -> Frame {
            loop {
                match self.reader.poll(&mut self.stream) {
                    Ok(Some(f)) => return f,
                    Ok(None) => {}
                    Err(e) => panic!("read failed: {e}"),
                }
            }
        }
    }

    fn pipeline_log(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "biodist-server-pipeline-{tag}-{}.log",
            std::process::id()
        ))
    }

    /// `(is an issue, unit)` of every unit record in the log, in order.
    fn unit_records(path: &std::path::Path) -> Vec<(bool, u64)> {
        use crate::net::checkpoint::{read_log, LogRecord};
        let (records, torn) = read_log(path).unwrap();
        assert!(!torn);
        records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Issue { unit, .. } => Some((true, *unit)),
                LogRecord::Result { unit, .. } => Some((false, *unit)),
                _ => None,
            })
            .collect()
    }

    /// What the pipelined donor sends: results, each with the request
    /// that replaces its unit, in one segment. The pump drains every
    /// frame and answers them in order in one write — after it has
    /// committed their journal records as one group, each result ahead
    /// of the issue it unlocks: by the time the first reply byte can be
    /// read, the log holds every record of the pump.
    #[test]
    fn pipelined_pairs_in_one_segment_get_in_order_replies_and_a_write_ahead_journal() {
        let path = pipeline_log("commit");
        let journal = CheckpointWriter::create(&path).unwrap();
        let mut session = PipelinedSession::start(Box::new(journal));
        session.stream.write_all(&session.segment).unwrap();

        // Block until the first reply byte is readable, consuming
        // nothing: the records that justify it are already in the file.
        let mut first = [0u8; 1];
        while session.stream.peek(&mut first).is_err() {}
        let order = unit_records(&path);
        let (issue, result) = (true, false);
        assert_eq!(order.len(), 3 * PAIRS, "every record of the pump");
        let held = session.held.clone();
        for (i, &unit) in held.iter().enumerate() {
            assert_eq!(order[i], (issue, unit), "the leases of the first pump");
            assert_eq!(order[PAIRS + 2 * i], (result, unit), "in frame order");
            assert!(order[PAIRS + 2 * i + 1].0, "each result ahead of its issue");
        }

        for (i, &unit) in held.iter().enumerate() {
            match session.next_frame() {
                Frame::ResultAck {
                    unit: acked,
                    accepted: true,
                    ..
                } => assert_eq!(acked, unit, "acks come back in submit order"),
                other => panic!("expected the ack of unit {unit}, got {other:?}"),
            }
            match session.next_frame() {
                Frame::AssignUnit { unit, .. } => {
                    assert_eq!(order[PAIRS + 2 * i + 1], (issue, unit))
                }
                other => panic!("expected the next assignment, got {other:?}"),
            }
        }
        // A pump adds its counts after its replies have left: read them
        // once the shard thread is joined.
        session.net.kill();
        let snap = session.telemetry.metrics_snapshot();
        assert_eq!(snap.counter("net.frames_in"), 1 + 3 * PAIRS as u64);
        assert_eq!(snap.counter("net.frames_out"), 3 * PAIRS as u64);
        assert_eq!(snap.counter("net.pumps"), 2, "one pump per segment");
        assert_eq!(unit_records(&path), order, "the kill had no group to lose");
        let _ = std::fs::remove_file(&path);
    }

    /// A journal that stops inside its `gate_at`-th result record until
    /// the test lets it go on — with the server lock held, so the pump
    /// is pinned between two frames.
    struct GatedJournal {
        inner: CheckpointWriter,
        results: usize,
        gate_at: usize,
        inside: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl crate::server::RunJournal for GatedJournal {
        fn unit_issued(&mut self, problem: usize, unit: &crate::problem::WorkUnit, hint: f64) {
            self.inner.unit_issued(problem, unit, hint);
        }
        fn result_folded(&mut self, problem: usize, unit: u64, encoded: &[u8]) {
            if self.results == self.gate_at {
                self.inside.send(()).unwrap();
                self.release.recv().unwrap();
            }
            self.results += 1;
            self.inner.result_folded(problem, unit, encoded);
        }
        fn commit(&mut self) {
            self.inner.commit();
        }
        fn discard(&mut self) {
            self.inner.discard();
        }
    }

    /// The server dies while a pump is between two frames: the frames
    /// it had handled leave no record in the log and no reply on the
    /// wire — the crash lost exactly what no donor was told about.
    #[test]
    fn kill_between_two_frames_of_a_pump_leaves_neither_their_records_nor_their_replies() {
        let path = pipeline_log("kill");
        let (inside_tx, inside) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let journal = GatedJournal {
            inner: CheckpointWriter::create(&path).unwrap(),
            results: 0,
            gate_at: 2,
            inside: inside_tx,
            release: release_rx,
        };
        let mut session = PipelinedSession::start(Box::new(journal));
        let leases = unit_records(&path);
        assert_eq!(leases.len(), PAIRS, "the first pump committed its issues");
        session.stream.write_all(&session.segment).unwrap();

        // Two pairs are handled (four records in the open group, four
        // replies queued) and the pump is inside its third result.
        inside.recv().unwrap();
        let shared = session.net.shared.clone();
        let net = session.net;
        let killer = thread::spawn(move || net.kill());
        while !shared.kill.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        release.send(()).unwrap();
        killer.join().unwrap();

        let mut replies = 0;
        loop {
            match session.reader.poll(&mut session.stream) {
                Ok(Some(_)) => replies += 1,
                Ok(None) => {}
                Err(_) => break, // the connection went dark
            }
        }
        assert_eq!(replies, 0, "no reply of the killed pump was sent");
        assert_eq!(unit_records(&path), leases, "and none of its records kept");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn silent_client_is_reclaimed_by_the_liveness_sweep() {
        let clock = Clock::new(1000.0);
        let mut server = Server::new(small_cfg());
        let pid = server.submit(integration_problem(100_000));
        let net = NetServer::start(
            server,
            clock,
            NetServerOptions {
                liveness_timeout: 20.0, // 20ms wall at scale 1000
                ..Default::default()
            },
        )
        .unwrap();

        // Take a unit and go silent, never submitting.
        let mut stream = TcpStream::connect(net.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut reader = FrameReader::new();
        stream
            .write_all(&encode_frame(&Frame::RequestWork { client: 7 }))
            .unwrap();
        loop {
            match reader.poll(&mut stream) {
                Ok(Some(Frame::AssignUnit { .. })) => break,
                Ok(Some(Frame::Wait)) => {
                    stream
                        .write_all(&encode_frame(&Frame::RequestWork { client: 7 }))
                        .unwrap();
                }
                Ok(Some(other)) => panic!("unexpected frame {other:?}"),
                Ok(None) => {}
                Err(e) => panic!("read failed: {e}"),
            }
        }
        // Wait well past the liveness timeout; the sweep must reclaim
        // the lease so another client could finish the run.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let reissued = net
                .with_server(|s| s.stats(pid).reissued_units)
                .expect("server alive");
            if reissued >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "liveness sweep never reclaimed the silent client's lease"
            );
            thread::sleep(Duration::from_millis(2));
        }
        net.kill();
    }

    /// One donor, one connection, request → compute → submit until
    /// `Finished`: the `(unit id, cost_ops)` sequence it is handed.
    /// The prior sizes the first unit at `min_unit_ops`; one completion
    /// later the donor's own estimate sizes every unit at
    /// `max_unit_ops` (the target is so long that any real elapsed
    /// time saturates the clamp, so wall-clock noise cannot show).
    fn scripted_session(shards: usize) -> Vec<(u64, f64)> {
        let mut server = Server::new(SchedulerConfig {
            min_unit_ops: 1e5,
            max_unit_ops: 4e5,
            prior_ops_per_sec: 1e-3,
            target_unit_secs: 1e6,
            ..Default::default()
        });
        let pid = server.submit(integration_problem(10_000));
        let algorithm = server.algorithm(pid);
        let codec = server.codec(pid).unwrap();
        let opts = NetServerOptions {
            shards,
            ..Default::default()
        };
        let net = NetServer::start(server, Clock::new(1.0), opts).unwrap();
        let mut stream = TcpStream::connect(net.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut reader = FrameReader::new();
        let mut next_frame = |stream: &mut TcpStream| loop {
            match reader.poll(stream) {
                Ok(Some(f)) => return f,
                Ok(None) => {}
                Err(e) => panic!("read failed: {e}"),
            }
        };
        let mut handed = Vec::new();
        loop {
            stream
                .write_all(&encode_frame(&Frame::RequestWork { client: 0 }))
                .unwrap();
            match next_frame(&mut stream) {
                Frame::AssignUnit {
                    problem,
                    unit,
                    cost_ops,
                    payload,
                } => {
                    handed.push((unit, cost_ops));
                    let wu = crate::problem::WorkUnit {
                        id: unit,
                        payload: codec.decode_unit(&payload).unwrap(),
                        cost_ops,
                    };
                    let result = algorithm.compute(&wu);
                    let submit = Frame::SubmitResult {
                        client: 0,
                        problem,
                        unit,
                        payload: codec.encode_result(&result.payload).unwrap(),
                    };
                    stream.write_all(&encode_frame(&submit)).unwrap();
                    match next_frame(&mut stream) {
                        Frame::ResultAck { accepted: true, .. } => {}
                        other => panic!("expected an ack, got {other:?}"),
                    }
                }
                Frame::Finished => break,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        net.wait();
        handed
    }

    /// Every unit is sized for the donor that computes it, whatever the
    /// shard count: dispatch is the same one call under the same lock.
    #[test]
    fn dispatch_is_identical_at_every_shard_count() {
        let one = scripted_session(1);
        assert_eq!(one[0], (0, 1e5), "the prior sizes the first unit");
        assert_eq!(one[1], (1, 4e5), "the donor's own speed sizes the rest");
        assert_eq!(one, scripted_session(4));
    }
}
