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
use super::wire::{encode_frame, encode_frame_into, Frame, FrameReader, ReadError};
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
/// from the origin. The origin recognises it and skips donor-side
/// bookkeeping (liveness, chunk affinity) — a replica is infrastructure,
/// not a donor, and must never attract unit placement.
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

/// The full rendezvous order of replica *indices* `0..n` for `digest`,
/// highest score first. The simulator uses this directly (its replicas
/// are indices, not sockets); the TCP directory applies the same score
/// to endpoint-address keys.
pub fn rendezvous_order(digest: u64, seed: u64, n: usize) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = (0..n)
        .map(|r| (rendezvous_score(digest, seed, r as u64), r))
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, r)| r).collect()
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

    /// Looks chunk bytes up by content digest.
    pub fn get_digest(&self, digest: u64) -> Option<Arc<Vec<u8>>> {
        self.inner.lock().unwrap().by_digest.get(&digest).cloned()
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
    /// Where the origin lives (re-read per sync, so a restarted origin
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
}

impl ReplicaShared {
    fn in_window(windows: &[(f64, f64)], now: f64) -> bool {
        windows.iter().any(|&(s, e)| s <= now && now < e)
    }

    /// The end of the stall window covering `now`, if any.
    fn stall_end(&self, now: f64) -> Option<f64> {
        self.stall_windows
            .iter()
            .find(|&&(s, e)| s <= now && now < e)
            .map(|&(_, e)| e)
    }
}

/// One replica endpoint: a TCP listener serving [`Frame::ChunkRequest`]
/// out of its own [`ChunkStore`], pulling misses through from the
/// origin. Start with [`ReplicaServer::start`]; donors discover it via
/// the directory's replica map / `ReplicaAnnounce`.
pub struct ReplicaServer {
    addr: SocketAddr,
    shared: Arc<ReplicaShared>,
    accept_thread: JoinHandle<()>,
}

impl ReplicaServer {
    /// Binds an ephemeral loopback port and starts serving. The fault
    /// windows come straight from a plan's
    /// [`crate::fault::FaultPlan::replica_crashes`] /
    /// [`crate::fault::FaultPlan::replica_stalls`] accessors.
    pub fn start(
        origin: Directory,
        clock: Clock,
        telemetry: Telemetry,
        crash_windows: Vec<(f64, f64)>,
        stall_windows: Vec<(f64, f64)>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ReplicaShared {
            store: ChunkStore::new(),
            origin,
            kill: AtomicBool::new(false),
            crash_windows,
            stall_windows,
            clock,
            telemetry,
        });
        let accept_thread = {
            let shared = shared.clone();
            thread::spawn(move || replica_accept_loop(&listener, &shared))
        };
        Ok(Self {
            addr,
            shared,
            accept_thread,
        })
    }

    /// The address donors fetch from.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Distinct chunks currently mirrored.
    pub fn chunks_held(&self) -> usize {
        self.shared.store.len()
    }

    /// Kills the replica permanently: the listener closes and every
    /// open connection is severed. Unlike a crash window there is no
    /// coming back — donors must fail over for the rest of the run.
    pub fn kill(&self) {
        self.shared.kill.store(true, Ordering::SeqCst);
    }

    /// Tears the replica down and reaps its threads.
    pub fn stop(self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        let _ = self.accept_thread.join();
    }
}

fn replica_accept_loop(listener: &TcpListener, shared: &Arc<ReplicaShared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.kill.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let now = shared.clock.now();
                if ReplicaShared::in_window(&shared.crash_windows, now) {
                    drop(stream); // crashed: connection reset, no service
                    continue;
                }
                let shared = shared.clone();
                handlers.push(thread::spawn(move || replica_connection(stream, &shared)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_micros(500));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn replica_connection(mut stream: TcpStream, shared: &ReplicaShared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    loop {
        if shared.kill.load(Ordering::SeqCst) {
            return;
        }
        let frame = match reader.poll(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(ReadError::Decode(_)) => continue, // mangled inbound frame: skip
            Err(ReadError::Io(_)) => return,
        };
        let Frame::ChunkRequest { problem, chunk, .. } = frame else {
            continue; // replicas speak only the chunk sub-protocol
        };
        let now = shared.clock.now();
        if ReplicaShared::in_window(&shared.crash_windows, now) {
            return; // crashed mid-connection: sever, donor fails over
        }
        if let Some(end) = shared.stall_end(now) {
            // Wedged: sit on the request until the window closes (the
            // donor's ack timeout fires long before, and it fails
            // over), but keep noticing kill so teardown never hangs.
            while shared.clock.now() < end && !shared.kill.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(1));
            }
            if shared.kill.load(Ordering::SeqCst) {
                return;
            }
        }
        let held = shared
            .store
            .get(problem, chunk)
            .or_else(|| sync_from_origin(shared, problem, chunk));
        let reply = match held {
            Some((digest, payload)) => {
                shared.telemetry.counter_add("replica.chunks_served", 1);
                Frame::ChunkData {
                    problem,
                    chunk,
                    digest,
                    payload: payload.as_ref().clone(),
                }
            }
            // Origin unreachable or it does not hold the chunk either:
            // answer explicitly so the donor fails over instead of
            // hanging into its ack timeout.
            None => Frame::ChunkMissing { problem, chunk },
        };
        out.clear();
        encode_frame_into(&reply, &mut out);
        if stream.write_all(&out).is_err() {
            return;
        }
    }
}

/// Pull-through sync: fetches `(problem, chunk)` from the origin,
/// verifies the bytes against the digest they arrived under, and
/// stores them. `None` if the origin is unreachable, answers
/// [`Frame::ChunkMissing`], or ships bytes that fail verification.
fn sync_from_origin(
    shared: &ReplicaShared,
    problem: u64,
    chunk: u64,
) -> Option<(u64, Arc<Vec<u8>>)> {
    let addr = shared.origin.origin()?;
    let mut stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
    stream
        .write_all(&encode_frame(&Frame::ChunkRequest {
            client: REPLICA_CLIENT_ID,
            problem,
            chunk,
        }))
        .ok()?;
    let mut reader = FrameReader::new();
    // Generous wall deadline: a sync is one loopback round trip; the
    // donor's own ack timeout is the real back-pressure.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if shared.kill.load(Ordering::SeqCst) || std::time::Instant::now() > deadline {
            return None;
        }
        match reader.poll(&mut stream) {
            Ok(Some(Frame::ChunkData {
                problem: p,
                chunk: c,
                digest,
                payload,
            })) if p == problem && c == chunk => {
                let payload = Arc::new(payload);
                if !shared.store.insert(problem, chunk, digest, payload.clone()) {
                    return None; // digest mismatch: refuse to launder it
                }
                shared.telemetry.counter_add("replica.syncs", 1);
                shared
                    .telemetry
                    .counter_add("replica.sync_bytes_in", payload.len() as u64);
                return Some((digest, payload));
            }
            Ok(Some(Frame::ChunkMissing {
                problem: p,
                chunk: c,
            })) if p == problem && c == chunk => return None,
            Ok(Some(_)) | Ok(None) => {}
            Err(ReadError::Decode(_)) => {}
            Err(ReadError::Io(_)) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(store.get_digest(digest).is_some());
        assert!(store.get(0, 1).is_none());
        // Re-inserting the same content under another chunk key adds an
        // index entry, not a second copy.
        assert!(store.insert(0, 7, digest, bytes));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), 4);
    }

    #[test]
    fn rendezvous_order_is_deterministic_and_digest_sensitive() {
        let a = rendezvous_order(0xABCD, 1, 5);
        assert_eq!(a, rendezvous_order(0xABCD, 1, 5), "pure function");
        assert_eq!(a.len(), 5);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a permutation of 0..n");
        // Different digests should spread across different heads often
        // enough to balance load: over many digests, every replica
        // leads at least once.
        let mut led = [false; 5];
        for digest in 0..200u64 {
            led[rendezvous_order(digest, 1, 5)[0]] = true;
        }
        assert!(led.iter().all(|&l| l), "every replica leads somewhere");
    }
}
