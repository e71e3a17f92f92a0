//! The content-addressed chunk store and the replica endpoints that
//! serve it.
//!
//! PR 5 moved chunk bytes off the work-unit path; this module moves
//! them off the *origin server*: a [`ChunkStore`] holds chunks keyed by
//! their FNV-1a digest, and N [`ReplicaServer`]s each expose one over
//! TCP. Replicas are lazy mirrors — a chunk is pulled through from the
//! origin on the first request that needs it, verified against its
//! digest before it is stored or served, so a replica can never launder
//! corrupt bytes into the donor pool. Donors route each fetch across
//! the replica set with rendezvous hashing ([`rendezvous_score`]): the
//! same digest prefers the same replicas, so a chunk crosses the
//! origin link O(replicas) times instead of O(donors), and candidate
//! order is deterministic per (digest, seed) for replayability.
//!
//! Replicas are also first-class chaos targets:
//! [`crate::fault::FaultKind::ReplicaCrash`] windows make a replica
//! refuse connections (its store survives, like a rebooted mirror) and
//! [`crate::fault::FaultKind::ReplicaStall`] windows make it accept
//! but not answer — the two failure shapes a donor's failover ladder
//! must distinguish from success by timeout alone.

use super::cache::chunk_digest;
use super::evloop::{serve, Action, FrameHandler, LoopHandle, ReplyHalf};
use super::wire::{
    encode_chunk_data_into, encode_frame_into, raw, DecodeError, Frame, FrameReader, FrameRef,
    ReadError,
};
use super::{Clock, Directory};
use crate::telemetry::Telemetry;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The reserved client id replicas use when pulling chunks through
/// from the origin. The origin recognises it and keeps no liveness
/// entry for it — a replica is infrastructure, not a donor; it leases
/// no unit.
pub const REPLICA_CLIENT_ID: u64 = u64::MAX;

/// Rendezvous (highest-random-weight) score for routing `digest` to an
/// endpoint identified by `key`, salted with the requester's `seed`.
/// Pure and stable: candidate order is a function of its inputs alone,
/// which is what makes seeded replica-selection tests replayable.
pub fn rendezvous_score(digest: u64, seed: u64, key: u64) -> u64 {
    // SplitMix64 finalizer over the XOR-combined inputs: cheap, well
    // mixed, and dependency-free.
    let mut z = digest ^ key.rotate_left(32) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct StoreState {
    by_digest: HashMap<u64, Arc<Vec<u8>>>,
    /// `(problem, chunk)` → digest: the request-key index into the
    /// content-addressed body, learned at insert time.
    by_chunk: HashMap<(u64, u64), u64>,
    bytes: u64,
}

/// A content-addressed chunk store: bytes keyed by their FNV-1a digest,
/// with a `(problem, chunk)` index on top so wire requests (which name
/// chunks, not digests) can be answered. Inserts are digest-verified —
/// bytes that do not hash to the claimed digest are refused, so a store
/// can never serve data it could not re-verify.
#[derive(Debug, Default)]
pub struct ChunkStore {
    inner: Mutex<StoreState>,
}

impl ChunkStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks a chunk up by its wire request key.
    pub fn get(&self, problem: u64, chunk: u64) -> Option<(u64, Arc<Vec<u8>>)> {
        let state = self.inner.lock().unwrap();
        let digest = *state.by_chunk.get(&(problem, chunk))?;
        state.by_digest.get(&digest).map(|b| (digest, b.clone()))
    }

    /// Inserts verified bytes under `(problem, chunk)` and `digest`;
    /// returns `false` (and stores nothing) if the bytes do not hash to
    /// `digest`.
    pub fn insert(&self, problem: u64, chunk: u64, digest: u64, bytes: Arc<Vec<u8>>) -> bool {
        if chunk_digest(&bytes) != digest {
            return false;
        }
        let mut state = self.inner.lock().unwrap();
        if state.by_digest.insert(digest, bytes.clone()).is_none() {
            state.bytes += bytes.len() as u64;
        }
        state.by_chunk.insert((problem, chunk), digest);
        true
    }

    /// Number of distinct chunks held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().by_digest.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bytes.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }
}

struct ReplicaShared {
    store: ChunkStore,
    /// Where the origin lives (re-read per dial, so a restarted origin
    /// is found at its new address).
    origin: Directory,
    kill: AtomicBool,
    /// `(start, end)` windows during which the replica refuses service
    /// (connections are dropped on the floor).
    crash_windows: Vec<(f64, f64)>,
    /// `(start, end)` windows during which requests go unanswered until
    /// the window closes.
    stall_windows: Vec<(f64, f64)>,
    clock: Clock,
    telemetry: Telemetry,
    /// The serving loop's inbox and waker.
    handle: LoopHandle,
}

impl ReplicaShared {
    /// The end of the `windows` entry covering the present, if any.
    fn window_end(&self, windows: &[(f64, f64)]) -> Option<f64> {
        let now = self.clock.now();
        let open = windows.iter().find(|&&(s, e)| s <= now && now < e);
        open.map(|&(_, e)| e)
    }

    fn crashed(&self) -> bool {
        self.window_end(&self.crash_windows).is_some()
    }
}

/// One replica endpoint: a TCP listener serving [`Frame::ChunkRequest`]
/// out of its own [`ChunkStore`], pulling misses through from the
/// origin. Start with [`ReplicaServer::start`]; donors discover it via
/// the directory's replica map / `ReplicaAnnounce`. One thread however
/// many donors connect: a [`super::evloop::serve`] loop that accepts
/// on the endpoint's listener as well.
pub struct ReplicaServer {
    addr: SocketAddr,
    shared: Arc<ReplicaShared>,
    thread: JoinHandle<()>,
}

impl ReplicaServer {
    /// Binds an ephemeral loopback port and starts serving. The fault
    /// windows come straight from a plan's
    /// [`crate::fault::FaultPlan::replica_windows`] accessor.
    pub fn start(
        origin: Directory,
        clock: Clock,
        telemetry: Telemetry,
        crash_windows: Vec<(f64, f64)>,
        stall_windows: Vec<(f64, f64)>,
    ) -> io::Result<Self> {
        let socket = TcpListener::bind("127.0.0.1:0")?;
        let addr = socket.local_addr()?;
        let (handle, wake_rx) = LoopHandle::new()?;
        // Next to `evloop.threads`: what the replica tier adds to it.
        telemetry.counter_add("replica.threads", 1);
        let shared = Arc::new(ReplicaShared {
            store: ChunkStore::new(),
            origin,
            kill: AtomicBool::new(false),
            crash_windows,
            stall_windows,
            clock,
            telemetry,
            handle,
        });
        let (served, name) = (shared.clone(), format!("replica-{}", addr.port()));
        let thread = thread::Builder::new().name(name).spawn(move || {
            let mut handler = ReplicaHandler {
                shared: &served,
                asked: Vec::new(),
                upstream: None,
            };
            let handle = std::slice::from_ref(&served.handle);
            serve(handle, 0, wake_rx, &mut handler, Some(socket))
        })?;
        Ok(Self {
            addr,
            shared,
            thread,
        })
    }

    /// The address donors fetch from.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Kills the replica permanently: the listener closes and every
    /// open connection is severed. Unlike a crash window there is no
    /// coming back — donors must fail over for the rest of the run.
    pub fn kill(&self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.shared.handle.wake();
    }

    /// Tears the replica down and reaps its thread.
    pub fn stop(self) {
        self.kill();
        let _ = self.thread.join();
    }
}

/// How long the origin may take over one reply of a pull before the
/// upstream connection is given up (wall time; a pull is one loopback
/// round trip, and the donor's own ack timeout is the real
/// back-pressure).
const UPSTREAM_REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// The replica's protocol on the shared connection loop: a pump's
/// `ChunkRequest`s are collected, its misses pulled from the origin in
/// one exchange, and the replies queued in request order.
struct ReplicaHandler<'a> {
    shared: &'a ReplicaShared,
    /// `(problem, chunk)` of every request of the current pump.
    asked: Vec<(u64, u64)>,
    /// The kept-open connection to the origin, here in the client role.
    upstream: Option<(TcpStream, FrameReader)>,
}

impl FrameHandler for ReplicaHandler<'_> {
    fn killed(&self) -> bool {
        self.shared.kill.load(Ordering::SeqCst)
    }

    /// Crashed: connection reset, no service.
    fn admits(&mut self) -> bool {
        !self.shared.crashed()
    }

    fn accept_failed(&mut self) {
        self.shared.telemetry.counter_add("net.accept_errors", 1);
    }

    /// Wedged: requests sit unanswered until the window closes (the
    /// donor's ack timeout fires long before, and it fails over).
    fn stalled_for(&mut self) -> Option<Duration> {
        let shared = self.shared;
        let end = shared.window_end(&shared.stall_windows)?;
        Some(shared.clock.wall(end - shared.clock.now()))
    }

    fn frame(&mut self, _reply: &mut ReplyHalf, frame: FrameRef<'_>) -> Action {
        if self.shared.crashed() {
            return Action::Close; // crashed mid-connection: sever, donor fails over
        }
        // Replicas speak only the chunk sub-protocol.
        if let FrameRef::Plain(Frame::ChunkRequest { problem, chunk, .. }) = frame {
            self.asked.push((problem, chunk));
        }
        Action::Keep
    }

    fn end_pump(&mut self, reply: &mut ReplyHalf) -> bool {
        self.sync_from_origin();
        let mut served = 0;
        for &(problem, chunk) in &self.asked {
            match self.shared.store.get(problem, chunk) {
                // Straight from the store into the output buffer.
                Some((digest, payload)) => {
                    served += 1;
                    reply.append(|out| {
                        let write = raw(&payload);
                        let wrote = encode_chunk_data_into(out, problem, chunk, |_| digest, write);
                        wrote.expect("a raw copy cannot fail");
                    });
                }
                // Origin unreachable or it does not hold the chunk
                // either: answer explicitly so the donor fails over
                // instead of hanging into its ack timeout.
                None => {
                    reply.queue_reply(&Frame::ChunkMissing { problem, chunk });
                }
            }
        }
        if served > 0 {
            let telemetry = &self.shared.telemetry;
            telemetry.counter_add("replica.chunks_served", served);
        }
        true
    }

    fn pump_done(&mut self) {
        self.asked.clear();
    }
}

impl ReplicaHandler<'_> {
    /// Pull-through sync of what this pump asked for and the store
    /// lacks. The kept-open upstream connection may have died since the
    /// last pull (origin killed or restarted), so a failure on it earns
    /// one fresh dial through the directory; a failure on a fresh one
    /// leaves the rest missing.
    fn sync_from_origin(&mut self) {
        loop {
            let store = &self.shared.store;
            let lacks = |&(p, c): &(u64, u64)| store.get(p, c).is_none();
            let misses: Vec<(u64, u64)> = self.asked.iter().copied().filter(lacks).collect();
            let reused = self.upstream.is_some();
            if misses.is_empty() || self.pull(&misses).is_some() || !reused {
                return;
            }
        }
    }

    /// One exchange with the origin: all of `misses` go out in a single
    /// write and the replies are read back in order, each verified
    /// against the digest it arrives under before it is stored. `None`
    /// (upstream dropped): the origin is unreachable, timed out, or
    /// broke the one-reply-per-request order.
    fn pull(&mut self, misses: &[(u64, u64)]) -> Option<()> {
        let shared = self.shared;
        if self.upstream.is_none() {
            let stream = TcpStream::connect(shared.origin.origin()?).ok()?;
            let _ = stream.set_nodelay(true);
            stream.set_read_timeout(Some(UPSTREAM_REPLY_TIMEOUT)).ok()?;
            shared.telemetry.counter_add("replica.upstream_connects", 1);
            self.upstream = Some((stream, FrameReader::new()));
        }
        let (mut stream, mut reader) = self.upstream.take()?;
        let mut asks = Vec::new();
        for &(problem, chunk) in misses {
            let ask = Frame::ChunkRequest {
                client: REPLICA_CLIENT_ID,
                problem,
                chunk,
            };
            encode_frame_into(&ask, &mut asks);
        }
        stream.write_all(&asks).ok()?;
        for &miss in misses {
            match reader.poll(&mut stream) {
                Ok(Some(Frame::ChunkData {
                    problem,
                    chunk,
                    digest,
                    payload,
                })) if (problem, chunk) == miss => {
                    let bytes = payload.len() as u64;
                    // A digest mismatch is refused, not laundered.
                    if shared
                        .store
                        .insert(problem, chunk, digest, Arc::new(payload))
                    {
                        let adds = [("replica.syncs", 1), ("replica.sync_bytes_in", bytes)];
                        shared.telemetry.counters_add(&adds);
                    }
                }
                // The origin does not hold it, or its reply was mangled
                // on the way (skipped whole): this one stays missing.
                Ok(Some(Frame::ChunkMissing { .. }))
                | Err(ReadError::Decode(DecodeError::BodyCrc { .. })) => {}
                _ => return None,
            }
        }
        self.upstream = Some((stream, reader));
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::wire::{crc32, encode_frame, VERSION};
    use std::io::Read;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// A blocking acceptor for a thread of its own: no polling sleep, each
    /// accepted stream goes to `deal`. Shutdown raises `kill` and then
    /// calls [`unblock_accept`].
    fn accept_loop(listener: &TcpListener, kill: &AtomicBool, mut deal: impl FnMut(TcpStream)) {
        loop {
            let accepted = listener.accept();
            if kill.load(Ordering::SeqCst) {
                return;
            }
            match accepted {
                Ok((stream, _)) => deal(stream),
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly instead of spinning on the error.
                Err(_) => thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Ends an [`accept_loop`] blocked in `accept` on `addr` (its kill flag
    /// already raised) with a throwaway self-connection.
    fn unblock_accept(addr: SocketAddr) {
        let _ = TcpStream::connect(addr);
    }

    /// What the scripted origin holds for `chunk`.
    fn body_of(chunk: u64) -> Vec<u8> {
        (0..48 + chunk % 17)
            .map(|i| (chunk * 31 + i) as u8)
            .collect()
    }

    /// A scripted origin: answers every `ChunkRequest` in order
    /// (`ChunkData` below chunk 1000, `ChunkMissing` from there) and
    /// counts the connections it accepted.
    struct FakeOrigin {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        accepted: Arc<AtomicUsize>,
        thread: JoinHandle<()>,
    }

    impl FakeOrigin {
        fn start() -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let accepted = Arc::new(AtomicUsize::new(0));
            let (flag, count) = (stop.clone(), accepted.clone());
            let thread = thread::spawn(move || {
                let mut conns = Vec::new();
                accept_loop(&listener, &flag, |stream| {
                    count.fetch_add(1, Ordering::SeqCst);
                    let flag = flag.clone();
                    conns.push(thread::spawn(move || Self::answer(stream, &flag)));
                });
                conns.into_iter().for_each(|c| c.join().unwrap());
            });
            Self {
                addr,
                stop,
                accepted,
                thread,
            }
        }

        fn answer(mut stream: TcpStream, stop: &AtomicBool) {
            stream
                .set_read_timeout(Some(Duration::from_millis(5)))
                .unwrap();
            let mut reader = FrameReader::new();
            while !stop.load(Ordering::SeqCst) {
                let (problem, chunk) = match reader.poll(&mut stream) {
                    Ok(Some(Frame::ChunkRequest { problem, chunk, .. })) => (problem, chunk),
                    Ok(_) => continue,
                    Err(_) => return,
                };
                let reply = if chunk < 1000 {
                    let payload = body_of(chunk);
                    Frame::ChunkData {
                        problem,
                        chunk,
                        digest: chunk_digest(&payload),
                        payload,
                    }
                } else {
                    Frame::ChunkMissing { problem, chunk }
                };
                if stream.write_all(&encode_frame(&reply)).is_err() {
                    return;
                }
            }
        }

        /// The origin process dies: listener and connections close.
        fn kill(self) -> usize {
            self.stop.store(true, Ordering::SeqCst);
            unblock_accept(self.addr);
            self.thread.join().unwrap();
            self.accepted.load(Ordering::SeqCst)
        }
    }

    fn replica_of(dir: &Directory) -> (ReplicaServer, Telemetry) {
        let telemetry = Telemetry::enabled();
        let replica = ReplicaServer::start(
            dir.clone(),
            Clock::new(1.0),
            telemetry.clone(),
            vec![],
            vec![],
        )
        .unwrap();
        (replica, telemetry)
    }

    fn request(chunk: u64) -> Vec<u8> {
        encode_frame(&Frame::ChunkRequest {
            client: 0,
            problem: 0,
            chunk,
        })
    }

    /// One donor burst: every request in a single write, then as many
    /// replies read back (5 s each at most).
    fn burst(stream: &mut TcpStream, chunks: impl Iterator<Item = u64>) -> Vec<Frame> {
        let asks: Vec<Vec<u8>> = chunks.map(request).collect();
        stream.write_all(&asks.concat()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = FrameReader::new();
        let reply = |_| reader.poll(stream).unwrap().expect("a reply within 5 s");
        asks.iter().map(reply).collect()
    }

    /// `frame` is the verified body of `chunk`.
    fn assert_body(frame: &Frame, chunk: u64) {
        let Frame::ChunkData {
            chunk: c,
            digest,
            payload,
            ..
        } = frame
        else {
            panic!("chunk {chunk}: expected data, got {frame:?}");
        };
        assert_eq!(
            (*c, *digest),
            (chunk, chunk_digest(payload)),
            "in request order, verified"
        );
        assert_eq!(*payload, body_of(chunk));
    }

    /// Sends `bytes` and reports whether the replica closed the
    /// connection (EOF or reset) within 500 ms.
    fn closed_after(replica: &ReplicaServer, bytes: &[u8]) -> bool {
        let mut stream = TcpStream::connect(replica.addr()).unwrap();
        stream.write_all(bytes).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        match stream.read(&mut [0u8; 64]) {
            Ok(n) => n == 0,
            Err(e) => !matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
        }
    }

    #[test]
    fn garbage_closes_the_connection_and_a_corrupt_body_is_only_skipped() {
        let origin = FakeOrigin::start();
        let (replica, _) = replica_of(&Directory::with_origin(origin.addr));
        assert!(
            closed_after(&replica, &[0xFF; 32]),
            "bad magic must drop the connection"
        );
        // A sound header (its CRC matches) from a version never spoken.
        let mut alien = request(1);
        alien[4] = VERSION + 1;
        let header_crc = crc32(&alien[..10]);
        alien[10..14].copy_from_slice(&header_crc.to_le_bytes());
        assert!(
            closed_after(&replica, &alien),
            "bad version must drop the connection"
        );
        // A request whose body fails its CRC is skipped whole and the
        // next one on the same connection is answered.
        let mut mangled = request(2);
        *mangled.last_mut().unwrap() ^= 0xFF;
        mangled.extend(request(3));
        let mut stream = TcpStream::connect(replica.addr()).unwrap();
        stream.write_all(&mangled).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = FrameReader::new();
        assert_body(&reader.poll(&mut stream).unwrap().expect("a reply"), 3);
        replica.stop();
        origin.kill();
    }

    /// Threads of this process named `name` (Linux: `/proc/self/task`).
    fn threads_named(name: &str) -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").unwrap();
        let comm = |t: io::Result<std::fs::DirEntry>| {
            std::fs::read_to_string(t.ok()?.path().join("comm")).ok()
        };
        tasks.filter_map(comm).filter(|c| c.trim() == name).count()
    }

    #[test]
    fn threads_per_replica_are_constant_in_the_number_of_connections() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let origin = FakeOrigin::start();
        let (replica, telemetry) = replica_of(&Directory::with_origin(origin.addr));
        let name = format!("replica-{}", replica.addr().port());
        // Every connection is adopted and live: each gets an answer
        // (a thread names itself as it starts, so the first count
        // waits for one answer too).
        let mut connect_and_ask = |chunk: u64| {
            let mut stream = TcpStream::connect(replica.addr()).unwrap();
            assert_body(&burst(&mut stream, chunk..chunk + 1)[0], chunk);
            stream
        };
        let first = connect_and_ask(64);
        assert_eq!(threads_named(&name), 1, "one loop, which accepts too");
        let held: Vec<TcpStream> = (0..64).map(&mut connect_and_ask).collect();
        assert_eq!(
            threads_named(&name),
            1,
            "64 open connections, same one thread"
        );
        assert_eq!(telemetry.metrics_snapshot().counter("replica.threads"), 1);
        replica.stop();
        // `join` returns once a thread has run its last instruction; the
        // kernel drops it from /proc/self/task a moment later (under a
        // loaded test binary, most of a millisecond later).
        let reaped = Instant::now() + Duration::from_secs(5);
        while threads_named(&name) > 0 && Instant::now() < reaped {
            thread::yield_now();
        }
        assert_eq!(threads_named(&name), 0, "stop reaps it");
        drop((first, held));
        origin.kill();
    }

    #[test]
    fn a_cold_burst_costs_one_upstream_connection_and_is_answered_in_order() {
        let origin = FakeOrigin::start();
        let (replica, telemetry) = replica_of(&Directory::with_origin(origin.addr));
        let mut donor = TcpStream::connect(replica.addr()).unwrap();
        for round in 0..2 {
            let replies = burst(&mut donor, 0..200);
            for (chunk, reply) in replies.iter().enumerate() {
                assert_body(reply, chunk as u64);
            }
            let snap = telemetry.metrics_snapshot();
            assert_eq!(
                snap.counter("replica.syncs"),
                200,
                "round {round}: synced once"
            );
            assert_eq!(snap.counter("replica.chunks_served"), 200 * (round + 1));
            assert_eq!(snap.counter("replica.upstream_connects"), 1);
        }
        // What the origin does not hold is refused explicitly, in place.
        let mixed = burst(&mut donor, [7, 1000, 8].into_iter());
        assert_body(&mixed[0], 7);
        assert!(
            matches!(mixed[1], Frame::ChunkMissing { chunk: 1000, .. }),
            "{:?}",
            mixed[1]
        );
        assert_body(&mixed[2], 8);
        replica.stop();
        assert_eq!(origin.kill(), 1, "every pull rode one kept-open connection");
    }

    #[test]
    fn a_dead_origin_is_answered_missing_and_a_restarted_one_is_found() {
        let origin = FakeOrigin::start();
        let dir = Directory::with_origin(origin.addr);
        let (replica, telemetry) = replica_of(&dir);
        let mut donor = TcpStream::connect(replica.addr()).unwrap();
        for (chunk, reply) in burst(&mut donor, 0..10).iter().enumerate() {
            assert_body(reply, chunk as u64);
        }
        origin.kill();
        // The kept-open upstream is dead and the directory's address
        // refuses: misses fail over at once, the mirror still serves.
        let asked = Instant::now();
        let replies = burst(&mut donor, 5..15);
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "prompt: {:?}",
            asked.elapsed()
        );
        for (reply, chunk) in replies.iter().zip(5..15) {
            match reply {
                Frame::ChunkMissing { chunk: c, .. } => assert!(chunk >= 10 && *c == chunk),
                data => assert_body(data, chunk),
            }
        }
        let reborn = FakeOrigin::start();
        dir.set_origin(Some(reborn.addr));
        for (reply, chunk) in burst(&mut donor, 10..20).iter().zip(10..20) {
            assert_body(reply, chunk);
        }
        assert_eq!(telemetry.metrics_snapshot().counter("replica.syncs"), 20);
        replica.stop();
        assert_eq!(reborn.kill(), 1);
    }

    #[test]
    fn store_refuses_bytes_that_fail_their_digest() {
        let store = ChunkStore::new();
        let bytes = Arc::new(vec![1u8, 2, 3, 4]);
        let digest = chunk_digest(&bytes);
        assert!(!store.insert(0, 0, digest ^ 1, bytes.clone()), "bad digest");
        assert!(store.is_empty());
        assert!(store.insert(0, 0, digest, bytes.clone()));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), 4);
        let (d, b) = store.get(0, 0).expect("indexed by request key");
        assert_eq!(d, digest);
        assert_eq!(*b, *bytes);
        assert!(store.get(0, 1).is_none());
        // Re-inserting the same content under another chunk key adds an
        // index entry, not a second copy.
        assert!(store.insert(0, 7, digest, bytes));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), 4);
    }
}
