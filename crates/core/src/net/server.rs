//! The TCP-facing server: a nonblocking readiness event loop.
//!
//! The paper's server was thread-per-connection Java — fine for ~200
//! donors, O(threads) beyond that. Here the transport is exactly
//! `shards` event-loop threads named `origin-<port>-s<i>`, each a
//! [`super::evloop::serve`] loop owning its poller, its connections'
//! read/write buffers and frame reassembly (the loop is shared with the
//! replica tier; this file is the origin's [`FrameHandler`] on top of
//! it). Shard 0 also owns the listener and the 2 ms tick: lease sweeps
//! and heartbeat liveness. No thread is ever dedicated to a donor, and
//! no loop polls on a sleep: every wakeup is
//! readiness (bytes, buffer space, a connection, a waker poke when
//! shard 0 deals one over) or a tick due. Stopping is a flag and a poke.
//!
//! What shards is connection I/O: socket reads and writes, frame
//! reassembly, CRC checks and chunk/unit encoding run on whichever
//! shard shard 0 dealt the connection to, round-robin, for the
//! connection's whole life. Dispatch does not shard: one
//! [`crate::Server`] behind one mutex keeps leases, folds, health and
//! recovery, and every donor turn — a
//! [`Frame::Turn`], or one of the raw clients' single-unit frames — is
//! one [`Server::turn_wire`] under that lock, so a unit is always sized by
//! the granularity hint of the donor that will compute it, at every
//! shard count.

use super::cache::chunk_digest;
use super::evloop::{serve, thread_cpu_ticks, Action, FrameHandler, LoopHandle, ReplyHalf};
use super::wire::{
    decode_turn_head, encode_chunk_data_into, encode_turn_reply_into, Frame, FrameRef, Then,
    MAX_PIPELINE_DEPTH, SUBMIT_RESULT_TYPE, TURN_TYPE,
};
use super::Clock;
use crate::codec::{ByteReader, ByteWriter, WireCodec};
use crate::sched::ClientId;
use crate::server::Server;
use crate::telemetry::Telemetry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Shard 0's tick period (lease sweep + liveness check), wall time.
const TICK_WALL: Duration = Duration::from_millis(2);

/// A donor silent for longer than this, in scaled seconds (no frame of
/// any kind), is declared gone: its leases reissue at once instead of
/// waiting out their expiry. It must exceed the longest stretch a donor
/// computes without writing: a donor writes between units (a turn, or
/// a heartbeat every 0.5 scaled seconds), so that stretch is one unit,
/// or a run of them held back by half a round trip at most. Every TCP
/// caller sizes its units at a fraction of that: the CLIs, examples and
/// `benchmark/` workloads target 0.05 scaled seconds or less.
const LIVENESS_TIMEOUT: f64 = 5.0;

/// Tuning for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerOptions {
    /// Event-loop threads serving connections (default 1, overridable
    /// via the `BIODIST_NET_SHARDS` env var); shard 0 accepts and deals
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
        Self { shards }
    }
}

struct Shared {
    /// `None` after `wait()` hands the server back or `kill()` drops it
    /// (simulated server-process death).
    server: Mutex<Option<Server>>,
    done: Condvar,
    last_seen: Mutex<HashMap<ClientId, f64>>,
    /// Hard stop: the shard loops exit promptly.
    kill: AtomicBool,
    /// The stop is [`NetServer::kill`]'s — a crash, raised before the
    /// server is taken — not the teardown after [`NetServer::wait`].
    crashed: AtomicBool,
    /// Cloned off the server at start so wire-level counters and sweep
    /// events don't need the server lock.
    telemetry: Telemetry,
    /// Chunk replica endpoints, announced to every donor on `Hello`.
    /// Set after start (replicas bind once the origin's address is
    /// known).
    replicas: Mutex<Vec<SocketAddr>>,
    /// Per-shard connection inboxes and wakers.
    shards: Vec<LoopHandle>,
    /// Each problem's codec (`None`: it has none), by problem id: the
    /// problems are fixed once the server is behind the transport, so
    /// encoding and chunk serving need no lock to find theirs.
    codecs: Vec<Option<Arc<dyn WireCodec>>>,
}

impl Shared {
    /// The codec of `problem` (`None`: no such problem, or no codec).
    fn codec(&self, problem: u64) -> Option<&Arc<dyn WireCodec>> {
        let pid = usize::try_from(problem).ok()?;
        self.codecs.get(pid)?.as_ref()
    }
}

/// A running TCP server around a [`Server`]. Bind with [`NetServer::start`],
/// then either [`NetServer::wait`] for completion or [`NetServer::kill`]
/// it mid-run to simulate a server crash (the checkpoint log survives;
/// [`crate::recover`] rebuilds the state).
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    shard_threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds an ephemeral loopback port and starts serving `server`.
    pub fn start(server: Server, clock: Clock, opts: NetServerOptions) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let telemetry = server.telemetry();
        let codecs = (0..server.problem_count()).map(|pid| server.codec(pid));
        let codecs = codecs.collect();
        let n_shards = opts.shards.max(1);
        // The whole transport is this many threads, donors be damned:
        // the scale tier asserts it from the metrics registry.
        telemetry.gauge_set("evloop.threads", n_shards as f64);
        let loops: io::Result<Vec<_>> = (0..n_shards).map(|_| LoopHandle::new()).collect();
        let (handles, rxs): (Vec<_>, Vec<_>) = loops?.into_iter().unzip();
        let shared = Arc::new(Shared {
            server: Mutex::new(Some(server)),
            done: Condvar::new(),
            last_seen: Mutex::new(HashMap::new()),
            kill: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            telemetry,
            replicas: Mutex::new(Vec::new()),
            shards: handles,
            codecs,
        });
        let mut listener = Some(listener);
        let mut shard_threads = Vec::with_capacity(n_shards);
        for (idx, rx) in rxs.into_iter().enumerate() {
            // Shard 0 accepts, and deals to every shard (itself first).
            let (shared, socket) = (shared.clone(), listener.take());
            let name = format!("origin-{}-s{idx}", addr.port());
            let thread = thread::Builder::new().name(name).spawn(move || {
                let cpu_at_start = thread_cpu_ticks();
                let mut ctx = ShardCtx {
                    shard: idx,
                    shared: &shared,
                    clock,
                    batch: PumpBatch::default(),
                };
                serve(&shared.shards, idx, rx, &mut ctx, socket);
                // This thread's CPU time: the farm benchmark's measure of
                // server-side cost, apart from donor threads in the process.
                if let (Some(s), Some(e)) = (cpu_at_start, thread_cpu_ticks()) {
                    shared
                        .telemetry
                        .counter_add("evloop.cpu_ticks", e.saturating_sub(s));
                }
            });
            shard_threads.push(thread?);
        }
        Ok(Self {
            addr,
            shared,
            shard_threads,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers the chunk replica endpoints. Every subsequent `Hello`
    /// is answered with a [`Frame::ReplicaAnnounce`] carrying this
    /// list.
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
        // The fold that completes the run notifies (and so does a tick).
        let running = |s: &mut Option<Server>| s.as_ref().is_some_and(|s| !s.all_complete());
        let guard = self.shared.server.lock().unwrap();
        let mut guard = self.shared.done.wait_while(guard, running).unwrap();
        let mut server = guard.take().expect("server was killed before wait()");
        // A pump still in flight finds the server gone and cannot
        // commit: the journal is whole before the caller sees the server.
        server.commit_journal();
        drop(guard);
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
        self.shared.crashed.store(true, Ordering::SeqCst);
        self.shared.kill.store(true, Ordering::SeqCst);
        if let Some(mut server) = self.shared.server.lock().unwrap().take() {
            server.discard_journal();
        }
        self.shutdown();
    }

    /// Stops every shard loop (shard 0's closes the listener), joins it.
    fn shutdown(self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        for s in &self.shared.shards {
            s.wake();
        }
        for t in self.shard_threads {
            let _ = t.join();
        }
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
/// `ChunkRequest`s takes the liveness and telemetry locks once per read
/// instead of once per frame, and no server lock at all: chunk encoding
/// needs no authority, and the wire counters only need adding up.
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
    /// A frame of this pump may have journaled something that no
    /// [`Server::commit_journal`] has covered yet.
    uncommitted: bool,
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

    /// Marks `client` alive unless this pump already has (`now`: the
    /// time, if the caller has read the clock).
    fn note_alive(&mut self, client: ClientId, now: Option<f64>) {
        if self.batch.alive != Some(client) {
            self.batch.alive = Some(client);
            let now = now.unwrap_or_else(|| self.clock.now());
            self.shared.last_seen.lock().unwrap().insert(client, now);
        }
    }

    /// The one entry point of dispatch: a donor's turn — `results` to
    /// rule on (`None` bytes: the result arrived with a broken checksum)
    /// and `want` units to lease — under one lock, at one clock reading,
    /// as one [`Server::turn_wire`]. `seq` says how the donor spoke and
    /// so how it is answered: `Some`, a [`Frame::Turn`], with one
    /// [`Frame::TurnReply`]; `None`, a raw client's `RequestWork`
    /// (`want` 1) or `SubmitResult` (one result), in their own
    /// vocabulary. A turn this connection has already served (a frame
    /// repeated in transit) has its results ruled on again — they are
    /// refused as duplicates — but is leased nothing: units nobody will
    /// compute would sit out their leases.
    ///
    /// The results are decoded from the read buffer under the lock, each
    /// as it is folded, and journaled from it; the reply is written into
    /// `reply` after the lock is dropped, each unit's payload in place.
    fn turn<'f>(
        &mut self,
        reply: &mut ReplyHalf,
        client: u64,
        seq: Option<u64>,
        want: usize,
        results: impl ExactSizeIterator<Item = (u64, u64, Option<&'f [u8]>)> + Clone,
    ) -> Action {
        let shared = self.shared;
        let now = self.clock.now();
        self.note_alive(client as ClientId, Some(now));
        let repeated = seq.is_some_and(|seq| seq <= reply.mark);
        reply.mark = reply.mark.max(seq.unwrap_or(0));
        if want > MAX_PIPELINE_DEPTH {
            shared.telemetry.counter_add("net.turn_want_clamped", 1);
        }
        let leasing = if repeated {
            0
        } else {
            want.min(MAX_PIPELINE_DEPTH)
        };
        let mut guard = shared.server.lock().unwrap();
        let Some(server) = guard.as_mut() else {
            // Killed: sever. Handed back by `wait()`: the run is over and
            // there is nothing to say, but what this pump has queued (the
            // reply that told the donor so) still leaves.
            return if self.crashed() {
                Action::Close
            } else {
                Action::Keep
            };
        };
        self.batch.uncommitted = true;
        let ruled = results.clone().map(|(p, u, bytes)| (p as usize, u, bytes));
        let out = server.turn_wire(client as ClientId, now, ruled, leasing);
        let complete = server.all_complete();
        drop(guard);
        if complete {
            shared.done.notify_all();
        }
        let acks = results.zip(&out.accepted);
        let acks = acks.map(|((problem, unit, _), &accepted)| (problem, unit, accepted));
        // (An unencodable unit — a codec bug — is not sent: its lease
        // expires and reissues.)
        let mut units = out.units.iter().filter_map(|(problem, unit)| {
            let codec = shared.codec(*problem as u64)?;
            let write = move |w: &mut ByteWriter| codec.write_unit(&unit.payload, w);
            Some((*problem as u64, unit.id, unit.cost_ops, write))
        });
        let Some(seq) = seq else {
            for (problem, unit, accepted) in acks {
                let ack = Frame::ResultAck {
                    problem,
                    unit,
                    accepted,
                };
                self.reply(reply, &ack);
            }
            if want > 0 {
                let assigned = units
                    .next_back()
                    .and_then(|(problem, unit, cost_ops, write)| {
                        let payload = ByteWriter::collect(write).ok()?;
                        Some(Frame::AssignUnit {
                            problem,
                            unit,
                            cost_ops,
                            payload,
                        })
                    });
                let work = assigned.unwrap_or(match out.then {
                    Then::Finished => Frame::Finished,
                    _ => Frame::Wait,
                });
                self.reply(reply, &work);
            }
            return Action::Keep;
        };
        let then = out.then;
        let wrote = reply.append(|buf| encode_turn_reply_into(buf, seq, then, acks, units));
        self.count_reply(wrote);
        Action::Keep
    }

    /// Queues `frame` for the connection and counts it.
    fn reply(&mut self, reply: &mut ReplyHalf, frame: &Frame) {
        let wrote = reply.queue_reply(frame);
        self.count_reply(wrote);
    }

    fn count_reply(&mut self, bytes: usize) {
        self.batch.frames_out += 1;
        self.batch.bytes_out += bytes as u64;
    }
}

impl FrameHandler for ShardCtx<'_> {
    fn killed(&self) -> bool {
        self.shared.kill.load(Ordering::SeqCst)
    }

    /// The teardown after `wait()` lets a pump finish: the replies of
    /// the turn that completed the run still leave.
    fn crashed(&self) -> bool {
        self.shared.crashed.load(Ordering::SeqCst)
    }

    fn adopted(&mut self, token: u64) {
        // Tokens count up from 1, one per adopted connection.
        self.shared
            .telemetry
            .gauge_set(&format!("shard.s{}.conns", self.shard), token as f64);
    }

    fn accept_failed(&mut self) {
        self.shared.telemetry.counter_add("net.accept_errors", 1);
    }

    /// Shard 0 keeps the server's time: lease expiry and silent donors.
    fn tick_period(&self) -> Option<Duration> {
        (self.shard == 0).then_some(TICK_WALL)
    }

    fn tick(&mut self) {
        let shared = self.shared;
        let now = self.clock.now();
        // Liveness sweep outside the server lock (fixed lock order:
        // never hold both mutexes at once).
        let mut seen = shared.last_seen.lock().unwrap();
        let stale = seen.extract_if(|_, &mut t| now - t > LIVENESS_TIMEOUT);
        let stale: Vec<ClientId> = stale.map(|(c, _)| c).collect();
        drop(seen);
        if !stale.is_empty() {
            let sweep = crate::telemetry::EventKind::LivenessSweep { stale: stale.len() };
            shared.telemetry.emit_at(now, sweep);
        }
        let mut guard = shared.server.lock().unwrap();
        let Some(server) = guard.as_mut() else { return };
        server.check_timeouts(now);
        stale.into_iter().for_each(|c| server.client_gone(c));
        let complete = server.all_complete();
        drop(guard);
        if complete {
            shared.done.notify_all();
        }
    }

    fn corrupt_body(&mut self, reply: &mut ReplyHalf, frame_type: u8, body_prefix: &[u8]) {
        self.shared.telemetry.counter_add("net.crc_failures", 1);
        // Mangled results still route to the reissue path, and are
        // nacked so the sender retires its pending copies: their id
        // fields are in the prefix. What the frame asked for cannot be
        // trusted and is not served. (A prefix too mangled to attribute
        // is dropped; lease expiry recovers.)
        let mut r = ByteReader::new(body_prefix);
        if frame_type == TURN_TYPE {
            if let Ok((client, seq, _, ids)) = decode_turn_head(&mut r) {
                let results = ids.map(|(p, u)| (p, u, None));
                self.turn(reply, client, Some(seq), 0, results);
            }
        } else if frame_type == SUBMIT_RESULT_TYPE {
            if let (Ok(client), Ok(problem), Ok(unit)) = (r.u64(), r.u64(), r.u64()) {
                self.turn(reply, client, None, 0, [(problem, unit, None)].into_iter());
            }
        }
    }

    /// Before the first byte of a reply can reach the donor: every
    /// record this pump's frames journaled is in the file (write-ahead,
    /// per pump). `false`: the server was killed with records of this
    /// pump unwritten — the replies they justify must not be sent.
    fn end_pump(&mut self, _reply: &mut ReplyHalf) -> bool {
        if !std::mem::take(&mut self.batch.uncommitted) {
            return true;
        }
        match self.shared.server.lock().unwrap().as_mut() {
            Some(server) => {
                server.commit_journal();
                true
            }
            // `kill()` says so before it takes the server; otherwise it
            // was `wait()`, which committed this pump's records before
            // it let go of the lock (and may be tearing the transport
            // down by now: the run's last reply still leaves).
            None => !self.crashed(),
        }
    }

    /// On every way out of a pump: the frames are counted either way.
    fn pump_done(&mut self) {
        self.flush_counts();
        self.batch.alive = None;
    }

    /// A dropped connection does NOT drop its client's leases — it may
    /// be a crash-rejoin or reconnect; true departures are reclaimed by
    /// the liveness sweep and lease timeouts.
    fn frame(&mut self, reply: &mut ReplyHalf, frame: FrameRef<'_>) -> Action {
        self.batch.frames_in += 1;
        let shared = self.shared;
        let clock = self.clock;
        let answer = match frame {
            FrameRef::Turn(client, seq, want, ids, payloads) => {
                let results = ids.zip(payloads).map(|((p, u), b)| (p, u, Some(b)));
                return self.turn(reply, client, Some(seq), want as usize, results);
            }
            FrameRef::Plain(Frame::SubmitResult {
                client,
                problem,
                unit,
                payload,
            }) => {
                let result = [(problem, unit, Some(&payload[..]))];
                return self.turn(reply, client, None, 0, result.into_iter());
            }
            FrameRef::Plain(Frame::MetricsReport { client, snapshot }) => {
                let now = clock.now();
                self.note_alive(client as ClientId, None);
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
            FrameRef::Plain(Frame::Hello { client }) => {
                self.note_alive(client as ClientId, None);
                // Advertise the replica tier so the donor can route
                // chunk fetches without out-of-band configuration.
                let endpoints = shared.replicas.lock().unwrap().clone();
                if endpoints.is_empty() {
                    None
                } else {
                    Some(Frame::ReplicaAnnounce { endpoints })
                }
            }
            FrameRef::Plain(Frame::Heartbeat { client }) => {
                self.note_alive(client as ClientId, None);
                Some(Frame::HeartbeatAck)
            }
            FrameRef::Plain(Frame::RequestWork { client }) => {
                return self.turn(reply, client, None, 1, std::iter::empty())
            }
            FrameRef::Plain(Frame::Goodbye { client }) => {
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
            FrameRef::Plain(Frame::ChunkRequest {
                client,
                problem,
                chunk,
            }) => {
                // A replica pulling through is infrastructure, not a
                // donor: it gets no liveness entry.
                if client != super::store::REPLICA_CLIENT_ID {
                    self.note_alive(client as ClientId, None);
                }
                // Encoding — straight into the output buffer — runs
                // outside every lock, under the digest the codec took
                // when it made the chunk (hashed here only if it kept none).
                let codec = shared.codec(problem);
                let known = codec.and_then(|codec| codec.known_digest(chunk));
                let mut served = None;
                let wrote = reply.append(|out| {
                    let write = |w: &mut ByteWriter| match codec {
                        Some(codec) => codec.write_chunk(chunk, w),
                        None => Err(crate::codec::WireError::new("no codec")),
                    };
                    let digest = |bytes: &[u8]| known.unwrap_or_else(|| chunk_digest(bytes));
                    served = encode_chunk_data_into(out, problem, chunk, digest, write).ok();
                });
                match served {
                    Some((_, payload_len)) => {
                        shared.telemetry.counter_add("net.chunks_served", 1);
                        shared
                            .telemetry
                            .counter_add("net.chunk_bytes_out", payload_len as u64);
                        self.count_reply(wrote);
                        None
                    }
                    // Garbage problem id, unknown chunk or a codec
                    // without chunk support: an explicit refusal, so
                    // the requester fails over instead of waiting out
                    // its ack timeout.
                    None => Some(Frame::ChunkMissing { problem, chunk }),
                }
            }
            FrameRef::Plain(Frame::StatusRequest) => {
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
            _ => None,
        };
        if let Some(answer) = answer {
            self.reply(reply, &answer);
        }
        Action::Keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::net::checkpoint::CheckpointWriter;
    use crate::net::wire::{encode_frame, FrameReader};
    use crate::sched::SchedulerConfig;
    use crate::server::Server;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;

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

    /// Results in the scripted turn: half a full-depth donor turn.
    const RESULTS: usize = 32;

    /// A raw-socket donor speaking turns to a journaled one-shard
    /// server.
    struct TurnSession {
        net: NetServer,
        telemetry: Telemetry,
        stream: TcpStream,
        reader: FrameReader,
        algorithm: Arc<dyn crate::problem::Algorithm>,
        codec: Arc<dyn WireCodec>,
    }

    impl TurnSession {
        fn start(journal: Option<Box<dyn crate::server::RunJournal>>) -> Self {
            // (400 units: more than one turn may hold.)
            Self::start_with(400, 1, journal)
        }

        fn start_with(
            units: u64,
            shards: usize,
            journal: Option<Box<dyn crate::server::RunJournal>>,
        ) -> Self {
            let mut server = Server::new(small_cfg());
            server.set_telemetry(Telemetry::enabled());
            let telemetry = server.telemetry();
            let pid = server.submit(integration_problem(units * 10_000));
            if let Some(journal) = journal {
                server.set_journal(journal);
            }
            let (algorithm, codec) = (server.algorithm(pid), server.codec(pid).unwrap());
            // At 5× the 5 s liveness window is one second of wall
            // time: headroom, so a loaded box never reclaims the donor
            // mid-test.
            let opts = NetServerOptions { shards };
            let clock = Clock::new(5.0);
            let net = NetServer::start(server, clock, opts).unwrap();
            let mut stream = TcpStream::connect(net.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            stream
                .write_all(&encode_frame(&Frame::Hello { client: 0 }))
                .unwrap();
            Self {
                net,
                telemetry,
                stream,
                reader: FrameReader::new(),
                algorithm,
                codec,
            }
        }

        /// Computes `units` (as leased by a `TurnReply`) into the
        /// results of the next turn.
        fn compute(&self, units: &[(u64, u64, f64, Vec<u8>)]) -> Vec<(u64, u64, Vec<u8>)> {
            let compute = |(problem, unit, cost_ops, payload): &(u64, u64, f64, Vec<u8>)| {
                let wu = crate::problem::WorkUnit {
                    id: *unit,
                    payload: self.codec.decode_unit(payload).unwrap(),
                    cost_ops: *cost_ops,
                };
                let result = self.algorithm.compute(&wu);
                let encoded = self.codec.encode_result(&result.payload).unwrap();
                (*problem, *unit, encoded)
            };
            units.iter().map(compute).collect()
        }

        fn write_turn(&mut self, seq: u64, want: u32, results: Vec<(u64, u64, Vec<u8>)>) {
            self.stream
                .write_all(&turn_bytes(seq, want, results))
                .unwrap();
        }

        /// The next `TurnReply`: `(seq, acks, units, then)`.
        #[allow(clippy::type_complexity)]
        fn reply(
            &mut self,
        ) -> (
            u64,
            Vec<(u64, u64, bool)>,
            Vec<(u64, u64, f64, Vec<u8>)>,
            Then,
        ) {
            loop {
                match self.reader.poll(&mut self.stream) {
                    Ok(Some(Frame::TurnReply {
                        seq,
                        acks,
                        units,
                        then,
                    })) => return (seq, acks, units, then),
                    Ok(Some(other)) => panic!("expected a turn reply, got {other:?}"),
                    Ok(None) => {}
                    Err(e) => panic!("read failed: {e}"),
                }
            }
        }

        /// `(assignments, units in flight, units queued for reissue)`.
        fn leases(&self) -> (u64, u32, u32) {
            let status = |s: &Server| s.status_snapshot(0.0).problems[0].clone();
            let p = self.net.with_server(status).expect("server alive");
            (p.assignments, p.in_flight, p.reissue_queue)
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
            .map(|r| match r {
                LogRecord::Issue { unit, .. } => (true, *unit),
                LogRecord::Result { unit, .. } => (false, *unit),
            })
            .collect()
    }

    /// What the pipelined donor sends: a round trip's results and the
    /// request for the units that replace them, in one frame. The
    /// origin answers with one frame — after it has committed the
    /// turn's journal records as one group, the results in frame order
    /// ahead of the issues they unlock: by the time the first reply
    /// byte can be read, the log holds every record of the turn.
    #[test]
    fn a_turns_records_are_in_the_journal_before_its_first_reply_byte_is_readable() {
        let path = pipeline_log("commit");
        let journal = CheckpointWriter::create(&path).unwrap();
        let mut session = TurnSession::start(Some(Box::new(journal)));
        session.write_turn(1, RESULTS as u32, Vec::new());
        let (_, _, held, _) = session.reply();
        assert_eq!(held.len(), RESULTS);
        let results = session.compute(&held);
        session.write_turn(2, RESULTS as u32, results);

        // Block until the first reply byte is readable, consuming
        // nothing: the records that justify it are already in the file.
        let mut first = [0u8; 1];
        while session.stream.peek(&mut first).is_err() {}
        let order = unit_records(&path);
        let (issue, result) = (true, false);
        assert_eq!(order.len(), 3 * RESULTS, "every record of the turn");
        for (i, held) in held.iter().enumerate() {
            assert_eq!(order[i], (issue, held.1), "the leases of the first turn");
            assert_eq!(order[RESULTS + i], (result, held.1), "in frame order");
            assert!(order[2 * RESULTS + i].0, "results ahead of the issues");
        }

        let (seq, acks, units, then) = session.reply();
        assert_eq!((seq, then), (2, Then::More));
        let ruled: Vec<_> = held.iter().map(|h| (h.0, h.1, true)).collect();
        assert_eq!(acks, ruled, "every result ruled on, in turn order");
        let leased: Vec<_> = units.iter().map(|u| (issue, u.1)).collect();
        assert_eq!(leased, order[2 * RESULTS..]);
        // A pump adds its counts after its replies have left: read them
        // once the shard thread is joined.
        session.net.kill();
        let snap = session.telemetry.metrics_snapshot();
        assert_eq!(snap.counter("net.frames_in"), 3, "a hello and two turns");
        assert_eq!(snap.counter("net.frames_out"), 2, "one reply a turn");
        assert_eq!(unit_records(&path), order, "the kill had no group to lose");
        let _ = std::fs::remove_file(&path);
    }

    /// A journal that stops inside its `gate_at`-th result record until
    /// the test lets it go on — with the server lock held, so the turn
    /// is pinned between two of its results.
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

    /// The server dies while a turn is between two of its results: the
    /// whole turn is lost — no record of it in the log, no reply on the
    /// wire — which is exactly what no donor was told about.
    #[test]
    fn kill_during_a_turn_loses_the_whole_turn_neither_its_records_nor_its_reply() {
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
        let mut session = TurnSession::start(Some(Box::new(journal)));
        session.write_turn(1, RESULTS as u32, Vec::new());
        let (_, _, held, _) = session.reply();
        let leases = unit_records(&path);
        assert_eq!(leases.len(), RESULTS, "the first turn committed its issues");
        let results = session.compute(&held);
        session.write_turn(2, RESULTS as u32, results);

        // Two results are folded (two records in the open group) and
        // the turn is inside its third.
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
        assert_eq!(replies, 0, "no reply of the killed turn was sent");
        assert_eq!(unit_records(&path), leases, "and none of its records kept");
        let _ = std::fs::remove_file(&path);
    }

    /// Threads of this process whose name starts with `prefix` (Linux:
    /// `/proc/self/task`).
    fn threads_named_like(prefix: &str) -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").unwrap();
        let comm = |t: io::Result<std::fs::DirEntry>| {
            std::fs::read_to_string(t.ok()?.path().join("comm")).ok()
        };
        tasks
            .filter_map(comm)
            .filter(|c| c.starts_with(prefix))
            .count()
    }

    /// The origin is its shard threads and nothing else: `shards` of
    /// them, named for its port, while a run is live, and none once
    /// `wait()` is back — which it is well inside one tick of the last
    /// unit folding, over tiny journaled runs: stopping is a flag and a
    /// poke, with no acceptor to unblock and no ticker to sleep out.
    #[test]
    fn a_server_is_its_shard_threads_and_stops_when_its_run_stops() {
        const RUNS: usize = 21;
        const SHARDS: usize = 3;
        if !cfg!(target_os = "linux") {
            return;
        }
        let mut teardowns = Vec::with_capacity(RUNS);
        for run in 0..RUNS {
            let path = pipeline_log(&format!("stop-{run}"));
            let journal = Box::new(CheckpointWriter::create(&path).unwrap());
            let mut session = TurnSession::start_with(4, SHARDS, Some(journal));
            let name = format!("origin-{}-s", session.net.addr().port());
            session.write_turn(1, 4, Vec::new());
            let (_, _, held, _) = session.reply();
            assert_eq!(held.len(), 4);
            // A thread names itself as it starts: wait for the last.
            let deadline = Instant::now() + Duration::from_secs(5);
            while threads_named_like(&name) < SHARDS && Instant::now() < deadline {
                thread::yield_now();
            }
            assert_eq!(
                threads_named_like(&name),
                SHARDS,
                "run {run}: the shards alone"
            );
            let results = session.compute(&held);
            session.write_turn(2, 0, results);
            let (_, acks, _, then) = session.reply();
            assert_eq!((acks.len(), then), (4, Then::Finished));
            let finished = Instant::now();
            session.net.wait();
            teardowns.push(finished.elapsed());
            // `join` returns once a thread has run its last instruction;
            // the kernel unlists it a moment later.
            let reaped = Instant::now() + Duration::from_secs(5);
            while threads_named_like(&name) > 0 && Instant::now() < reaped {
                thread::yield_now();
            }
            assert_eq!(
                threads_named_like(&name),
                0,
                "run {run}: wait() joined them all"
            );
            let _ = std::fs::remove_file(&path);
        }
        teardowns.sort();
        let median = teardowns[RUNS / 2];
        assert!(median < TICK_WALL / 2, "median {median:?} of {teardowns:?}");
    }

    /// Donor 0's `Turn`, as the wire has it.
    fn turn_bytes(seq: u64, want: u32, results: Vec<(u64, u64, Vec<u8>)>) -> Vec<u8> {
        let turn = Frame::Turn {
            client: 0,
            seq,
            want,
            results,
        };
        encode_frame(&turn)
    }

    /// A turn repeated in transit is ruled on twice and leased once:
    /// the second copy's results are refused as duplicates and its
    /// `want` is not served — no lease is left to expire.
    #[test]
    fn a_duplicated_turn_is_ruled_on_again_but_its_want_is_not_served_twice() {
        let mut session = TurnSession::start(None);
        session.write_turn(1, 2, Vec::new());
        let (_, _, held, _) = session.reply();
        let turn = turn_bytes(2, 1, session.compute(&held[..1]));
        session
            .stream
            .write_all(&[&turn[..], &turn].concat())
            .unwrap();
        let (seq, acks, units, _) = session.reply();
        assert_eq!((seq, acks[0].2, units.len()), (2, true, 1));
        let (seq, acks, units, _) = session.reply();
        assert_eq!(seq, 2, "the copy is answered in its own name");
        assert_eq!(acks, [(held[0].0, held[0].1, false)], "and refused");
        assert!(units.is_empty(), "with nothing leased");
        assert_eq!(session.leases(), (3, 2, 0), "what the donor holds, no more");
        session.net.kill();
    }

    /// A turn whose body fails its CRC still names its units: each goes
    /// through `result_corrupted` and is nacked, and what the frame
    /// asked for — which cannot be trusted — is not served.
    #[test]
    fn a_corrupt_turn_is_nacked_unit_by_unit_and_leased_nothing() {
        let mut session = TurnSession::start(None);
        session.write_turn(1, 2, Vec::new());
        let (_, _, held, _) = session.reply();
        let mut turn = turn_bytes(2, 2, session.compute(&held));
        *turn.last_mut().unwrap() ^= 0xFF; // the final body-CRC byte
        session.stream.write_all(&turn).unwrap();
        let (seq, acks, units, _) = session.reply();
        let nacked: Vec<_> = held.iter().map(|h| (h.0, h.1, false)).collect();
        assert_eq!((seq, acks), (2, nacked));
        assert!(units.is_empty());
        assert_eq!(session.leases(), (2, 0, 2), "both units wait for reissue");
        let corrupted = |s: &Server| s.stats(0).corrupted_results;
        let corrupted = session.net.with_server(corrupted);
        assert_eq!(corrupted, Some(2), "units, not frames");
        session.net.kill();
        let crc = session.telemetry.metrics_snapshot();
        assert_eq!(crc.counter("net.crc_failures"), 1);
    }

    #[test]
    fn a_want_above_the_pipeline_ceiling_is_clamped_and_counted() {
        let mut session = TurnSession::start(None);
        session.write_turn(1, 1000, Vec::new());
        let (_, _, units, then) = session.reply();
        assert_eq!((units.len(), then), (MAX_PIPELINE_DEPTH, Then::More));
        let ceiling = MAX_PIPELINE_DEPTH as u32;
        assert_eq!(session.leases(), (u64::from(ceiling), ceiling, 0));
        let clamped = session.telemetry.metrics_snapshot();
        assert_eq!(clamped.counter("net.turn_want_clamped"), 1);
        session.net.kill();
    }

    #[test]
    fn silent_client_is_reclaimed_by_the_liveness_sweep() {
        // The 5 s liveness window is 20 ms of wall time at 250×.
        let clock = Clock::new(250.0);
        let mut server = Server::new(small_cfg());
        let pid = server.submit(integration_problem(100_000));
        let net = NetServer::start(server, clock, NetServerOptions::default()).unwrap();

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
        let opts = NetServerOptions { shards };
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
