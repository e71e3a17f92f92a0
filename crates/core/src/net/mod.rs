//! The real-TCP execution backend.
//!
//! The paper's system ran over Java RMI plus raw sockets (§2.1); the
//! simulator models that wire, this module *is* one: donor
//! clients connect to the server over loopback/LAN TCP and speak the
//! CRC-framed protocol in [`wire`]. The robustness stack mirrors what
//! three years of cycle-scavenging demand:
//!
//! * [`evloop`] — the one server-side socket runtime: a readiness
//!   loop generic over a frame handler that accepts and ticks too;
//! * [`server::NetServer`] — the origin: `shards` such loops speaking
//!   the donor protocol, shard 0's tick doing lease sweeps, heartbeat
//!   liveness and periodic donor-record snapshots;
//! * [`store::ReplicaServer`] — a chunk mirror: one such loop speaking
//!   the chunk sub-protocol, pulling misses through from the origin;
//! * [`client`] — donor threads with a control connection and a kept
//!   data connection per chunk endpoint, heartbeats,
//!   jittered-exponential reconnect, idempotent result resubmission,
//!   and each donor's own part of a `FaultPlan` (one `ClientFaults`
//!   record: late join, departure, crash, slowdown, lies, and the wire
//!   faults and link windows it applies to the *real bytes* at its own
//!   sockets) self-interpreted against the shared [`Clock`] — the plan
//!   the simulator reads too;
//! * [`checkpoint`] — the append-only log that makes the server itself
//!   crash-recoverable (replayed by [`crate::server::recovery`]).
//!
//! [`run_tcp`] / [`run_tcp_faulty`] wire the pieces together on
//! loopback: the CLIs, the examples and every real-time test run the
//! deployed donor this way, and the chaos suite runs the simulator's
//! plans through it and compares digests.

pub mod backoff;
pub mod cache;
pub mod checkpoint;
pub mod client;
pub mod crc;
pub mod evloop;
pub mod server;
pub mod store;
pub mod wire;

pub use backoff::Backoff;
pub use cache::{chunk_digest, CacheStats, ChunkCache};
pub use checkpoint::{CheckpointWriter, LogRecord};
pub use client::{spawn_clients, ClientKit, NetClientOptions};
pub use evloop::raise_nofile_limit;
pub use server::{NetServer, NetServerOptions};
pub use store::{ChunkStore, ReplicaServer, REPLICA_CLIENT_ID};

use crate::fault::FaultPlan;
use crate::server::Server;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bytes one burst window may have in flight on a data connection: the
/// donor writes `ChunkRequest`s back to back until the exchange they
/// start (each chunk's [`crate::codec::ChunkNeed::bytes`] plus the
/// framing of its request and reply) reaches this, then waits for the
/// window to drain before writing the next. It bounds what the serving
/// endpoint queues in its output buffer for one connection, whatever
/// the unit size, and it is large enough that a unit of a few hundred
/// sequence chunks is one write and one streamed reply.
const BURST_WINDOW_BYTES: usize = 256 * 1024;

/// The most storage an emptied buffer keeps for reuse — a connection's
/// output, the donor's write buffer, a recycled result: what four full
/// burst windows need.
const KEEP_BYTES: usize = 4 * BURST_WINDOW_BYTES;

/// Empties `buf` for reuse. One outsized frame does not pin its
/// capacity for the life of its owner: storage past [`KEEP_BYTES`] is
/// shrunk back to one burst window.
fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    if buf.capacity() > KEEP_BYTES {
        buf.shrink_to(BURST_WINDOW_BYTES);
    }
}

/// How long a [`Directory::mark_dead`] verdict sticks, in scaled
/// seconds: the endpoint is excluded from [`Directory::candidates_for`]
/// until the window passes, then gets one probe (and is re-marked on
/// another failure). Keeps a rebooted replica reachable again without
/// any explicit revival protocol.
const DEAD_WINDOW_SECS: f64 = 0.5;

#[derive(Debug, Default)]
struct DirState {
    origin: Option<SocketAddr>,
    replicas: Vec<SocketAddr>,
    /// Endpoint → time of the last failure verdict against it.
    dead_at: HashMap<SocketAddr, f64>,
}

/// Where the chunk-serving endpoints currently listen: the origin
/// server plus any replica tier. Clients re-read the origin on every
/// reconnect attempt, so a restarted server (fresh ephemeral port after
/// a crash) is found without any client-side configuration; chunk
/// fetches are routed across the replica map by rendezvous hashing with
/// per-endpoint health (a failed endpoint is excluded from candidate
/// lists for a short window, so no donor picks a known-dead replica
/// twice in a row).
#[derive(Debug, Clone, Default)]
pub struct Directory {
    inner: Arc<Mutex<DirState>>,
}

impl Directory {
    /// A fresh, empty directory (no origin, no replicas).
    pub fn new() -> Self {
        Self::default()
    }

    /// A directory whose origin is already known.
    pub fn with_origin(addr: SocketAddr) -> Self {
        let dir = Self::new();
        dir.set_origin(Some(addr));
        dir
    }

    /// The origin server's address, if one is registered.
    pub fn origin(&self) -> Option<SocketAddr> {
        self.inner.lock().unwrap().origin
    }

    /// Points the directory at a (re)started origin server.
    pub fn set_origin(&self, addr: Option<SocketAddr>) {
        self.inner.lock().unwrap().origin = addr;
    }

    /// Replaces the replica endpoint list.
    pub fn set_replicas(&self, endpoints: Vec<SocketAddr>) {
        self.inner.lock().unwrap().replicas = endpoints;
    }

    /// Merges announced endpoints into the replica list (idempotent —
    /// re-announcements on every `Hello` must not duplicate entries).
    pub fn merge_replicas(&self, endpoints: &[SocketAddr]) {
        let mut state = self.inner.lock().unwrap();
        for ep in endpoints {
            if !state.replicas.contains(ep) {
                state.replicas.push(*ep);
            }
        }
    }

    /// The current replica endpoints, in announcement order.
    pub fn replicas(&self) -> Vec<SocketAddr> {
        self.inner.lock().unwrap().replicas.clone()
    }

    /// Records a failure verdict against `addr` at `now` (scaled
    /// seconds): the endpoint is excluded from candidate lists for
    /// `DEAD_WINDOW_SECS` (half a scaled second).
    pub fn mark_dead(&self, addr: SocketAddr, now: f64) {
        self.inner.lock().unwrap().dead_at.insert(addr, now);
    }

    /// Clears any failure verdict against `addr` (a fetch succeeded).
    pub fn mark_alive(&self, addr: SocketAddr) {
        self.inner.lock().unwrap().dead_at.remove(&addr);
    }

    /// The replica endpoints a fetch for `digest` should try, in
    /// rendezvous order, healthy endpoints only, at most `want` of
    /// them. Deterministic given (digest, directory state, seed): the
    /// same digest and seed always walk the replicas in the same order,
    /// and an endpoint marked dead within the exclusion window is never
    /// returned. The origin is *not* in the list — it is the caller's
    /// fallback of last resort.
    pub fn candidates_for(&self, digest: u64, seed: u64, want: usize, now: f64) -> Vec<SocketAddr> {
        let state = self.inner.lock().unwrap();
        let mut scored: Vec<(u64, SocketAddr)> = state
            .replicas
            .iter()
            .filter(|ep| {
                state
                    .dead_at
                    .get(ep)
                    .is_none_or(|&t| now - t >= DEAD_WINDOW_SECS)
            })
            .map(|&ep| (store::rendezvous_score(digest, seed, endpoint_key(&ep)), ep))
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        scored.truncate(want);
        scored.into_iter().map(|(_, ep)| ep).collect()
    }
}

/// A stable hash key for an endpoint address (FNV-1a over its textual
/// form), feeding the rendezvous score.
fn endpoint_key(addr: &SocketAddr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in addr.to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fresh, empty directory.
pub fn directory() -> Directory {
    Directory::new()
}

/// The scaled wall clock every TCP-backend component shares: `now()` is
/// wall seconds since creation times `time_scale`, so the same
/// `FaultPlan` times used on the simulator's virtual clock land in
/// milliseconds of real time here.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    scale: f64,
}

impl Clock {
    /// Starts the clock now.
    pub fn new(time_scale: f64) -> Self {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time scale must be finite and positive"
        );
        Self {
            start: Instant::now(),
            scale: time_scale,
        }
    }

    /// Scaled seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * self.scale
    }

    /// Converts a scaled duration to wall time (clamped at zero).
    pub fn wall(&self, scaled_secs: f64) -> Duration {
        Duration::from_secs_f64(scaled_secs.max(0.0) / self.scale)
    }
}

/// Runs every submitted problem to completion over real TCP with
/// `n_clients` donor clients on loopback; returns the server and the
/// elapsed (scaled = wall) seconds. Every problem must carry a
/// [`crate::codec::WireCodec`].
pub fn run_tcp(server: Server, n_clients: usize) -> (Server, f64) {
    run_tcp_faulty(server, n_clients, &FaultPlan::none(), 1.0)
}

/// [`run_tcp`] with a [`FaultPlan`] injected against a scaled clock.
/// Each donor interprets its own part of the plan: lifecycle and
/// slowdown faults in its loop, delivery faults and link degradation
/// on the actual bytes at its own sockets.
///
/// # Panics
/// Panics if any submitted problem lacks a codec, or if loopback
/// sockets cannot be created.
pub fn run_tcp_faulty(
    server: Server,
    n_clients: usize,
    plan: &FaultPlan,
    time_scale: f64,
) -> (Server, f64) {
    run_tcp_replicated(server, n_clients, 0, plan, time_scale)
}

/// [`run_tcp_faulty`] with `n_replicas` chunk replica endpoints started
/// alongside the origin. Replicas pull chunks through from the origin
/// on first request (digest-verified) and serve donors directly; the
/// plan's [`crate::fault::FaultKind::ReplicaCrash`] /
/// [`crate::fault::FaultKind::ReplicaStall`] events are applied to the
/// replica whose index the event names.
///
/// # Panics
/// Panics if any submitted problem lacks a codec, or if loopback
/// sockets cannot be created.
pub fn run_tcp_replicated(
    server: Server,
    n_clients: usize,
    n_replicas: usize,
    plan: &FaultPlan,
    time_scale: f64,
) -> (Server, f64) {
    run_tcp_with(
        server,
        n_clients,
        n_replicas,
        plan,
        time_scale,
        NetServerOptions::default(),
    )
}

/// [`run_tcp_replicated`] with explicit [`NetServerOptions`] — the way
/// to run any existing workload on several event-loop threads (set
/// `opts.shards`; `BIODIST_NET_SHARDS` does the same for the default
/// options, making every TCP suite shard-parameterizable from the
/// environment).
///
/// # Panics
/// Panics if any submitted problem lacks a codec, or if loopback
/// sockets cannot be created.
pub fn run_tcp_with(
    server: Server,
    n_clients: usize,
    n_replicas: usize,
    plan: &FaultPlan,
    time_scale: f64,
    opts: NetServerOptions,
) -> (Server, f64) {
    assert!(n_clients >= 1, "need at least one client");
    let kit = ClientKit::from_server(&server).expect("TCP backend requires codecs");
    let telemetry = server.telemetry();
    let clock = Clock::new(time_scale);
    let net = NetServer::start(server, clock, opts).expect("bind loopback listener");
    let directory = Directory::with_origin(net.addr());
    let replicas: Vec<ReplicaServer> = (0..n_replicas)
        .map(|r| {
            let (crashes, stalls) = plan.replica_windows(r);
            ReplicaServer::start(directory.clone(), clock, telemetry.clone(), crashes, stalls)
                .expect("bind replica listener")
        })
        .collect();
    let replica_addrs: Vec<SocketAddr> = replicas.iter().map(ReplicaServer::addr).collect();
    net.set_replicas(replica_addrs.clone());
    directory.set_replicas(replica_addrs);
    let run_over = Arc::new(AtomicBool::new(false));
    let handles = spawn_clients(
        directory,
        clock,
        kit,
        n_clients,
        plan,
        run_over.clone(),
        NetClientOptions::default(),
    );
    let server = net.wait();
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    for r in replicas {
        r.stop();
    }
    telemetry.flush();
    (server, clock.now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::fault::FaultKind;
    use crate::sched::SchedulerConfig;

    fn tcp_cfg() -> SchedulerConfig {
        SchedulerConfig {
            target_unit_secs: 0.05,
            prior_ops_per_sec: 2e9,
            min_unit_ops: 1e4,
            max_unit_ops: 1e7,
            lease_min_secs: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn computes_pi_over_real_sockets() {
        let mut server = Server::new(tcp_cfg());
        let pid = server.submit(integration_problem(300_000));
        let (mut server, _) = run_tcp_faulty(server, 3, &FaultPlan::none(), 20.0);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
        assert!(server.stats(pid).completed_units >= 2, "work was split");
    }

    #[test]
    fn wire_corruption_is_detected_and_survived() {
        let mut server = Server::new(tcp_cfg());
        let pid = server.submit(integration_problem(300_000));
        // Arm every client so whichever delivers first gets corrupted.
        let mut plan = FaultPlan::new(0);
        for c in 0..3 {
            plan.push(0.0, c, FaultKind::CorruptResult);
        }
        let (mut server, _) = run_tcp_faulty(server, 3, &plan, 20.0);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
        assert!(
            server.stats(pid).corrupted_results >= 1,
            "the flipped bytes must be caught by the frame CRC: {:?}",
            server.stats(pid)
        );
    }

    #[test]
    fn churn_over_real_sockets_still_completes() {
        let mut server = Server::new(tcp_cfg());
        let pid = server.submit(integration_problem(300_000));
        let plan = FaultPlan::new(0)
            .with(0.5, 0, FaultKind::Depart)
            .with(1.0, 1, FaultKind::Crash { down_secs: 2.0 })
            .with(0.5, 2, FaultKind::LateJoin)
            .with(
                0.2,
                3,
                FaultKind::Slowdown {
                    factor: 3.0,
                    duration_secs: 2.0,
                },
            );
        let (mut server, _) = run_tcp_faulty(server, 4, &plan, 20.0);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
    }

    /// Units of a few milliseconds of real compute, so a run makes many
    /// round trips.
    fn fast_cfg() -> SchedulerConfig {
        SchedulerConfig {
            target_unit_secs: 0.005,
            prior_ops_per_sec: 2e9,
            min_unit_ops: 1e4,
            ..Default::default()
        }
    }

    #[test]
    fn runs_multiple_problems_simultaneously() {
        let mut server = Server::new(fast_cfg());
        let a = server.submit(integration_problem(100_000));
        let b = server.submit(integration_problem(150_000));
        let c = server.submit(integration_problem(200_000));
        let (mut server, _) = run_tcp(server, 4);
        for pid in [a, b, c] {
            let pi = server.take_output(pid).unwrap().into_inner::<f64>();
            assert!(
                (pi - std::f64::consts::PI).abs() < 1e-7,
                "problem {pid}: {pi}"
            );
        }
    }

    #[test]
    fn dropped_duplicated_and_corrupted_deliveries_still_compute_pi() {
        // Scale 100 maps 5 scaled seconds of lease to 50 ms of wall clock.
        let scale = 100.0;
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 0.5,
            prior_ops_per_sec: 2e7,
            min_unit_ops: 1e4,
            // Cap unit growth so every donor delivers several results
            // and each armed delivery fault has a delivery to hit.
            max_unit_ops: 2e6,
            lease_min_secs: 5.0,
            ..Default::default()
        });
        let pid = server.submit(integration_problem(400_000));
        // Every donor is armed with the same three one-shot faults, so
        // whichever donors deliver, their first three deliveries are
        // corrupted, duplicated, then dropped.
        let mut plan = FaultPlan::new(0);
        for c in 0..4 {
            plan.push(0.0, c, FaultKind::CorruptResult);
            plan.push(0.0, c, FaultKind::DuplicateResult);
            plan.push(0.0, c, FaultKind::DropResult);
        }
        let (mut server, _) = run_tcp_faulty(server, 4, &plan, scale);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
        let stats = server.stats(pid);
        assert!(
            stats.wasted_results >= 1,
            "duplicate must be discarded: {stats:?}"
        );
        assert!(
            stats.corrupted_results >= 1,
            "corruption must be detected: {stats:?}"
        );
        // The dropped and corrupted results force extra assignments
        // (reissue after lease expiry, or a redundant end-game copy —
        // whichever the scheduler reaches first).
        assert!(
            stats.assignments > stats.completed_units,
            "lost results must cost extra assignments: {stats:?}"
        );
    }

    #[test]
    fn the_result_agrees_at_two_and_six_donors() {
        // The fold follows arrival order, so the sums agree to a
        // tolerance, not bit for bit.
        let run = |donors: usize| {
            let mut server = Server::new(fast_cfg());
            let pid = server.submit(integration_problem(300_000));
            let (mut server, _) = run_tcp(server, donors);
            server.take_output(pid).unwrap().into_inner::<f64>()
        };
        let (a, b) = (run(2), run(6));
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
