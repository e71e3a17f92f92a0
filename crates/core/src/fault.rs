//! Deterministic fault injection: seeded, replayable fault schedules.
//!
//! The paper's system ran for three years on ~200 semi-idle donor PCs,
//! so churn, stragglers and lost messages are the *normal* operating
//! regime, not an edge case. A [`FaultPlan`] expresses a schedule of
//! injectable faults as plain data — client crashes mid-unit, permanent
//! departures, straggler slowdowns, dropped / duplicated / corrupted
//! result deliveries, server-link degradation — so the *identical* plan
//! can be interpreted by both execution backends:
//!
//! * [`crate::sim_backend::SimRunner::with_faults`] applies it against
//!   gridsim's virtual clock (lifecycle events become simulator events,
//!   slowdowns scale the machine's compute model, link faults degrade
//!   the shared server link);
//! * [`crate::net::run_tcp_faulty`] applies it against a scaled wall
//!   clock: the donor clients sleep out downtime, discard in-flight
//!   work on crash, stretch slow computes, and drop, repeat, corrupt
//!   and delay the frames at their own sockets.
//!
//! Both backends read a donor's part of the plan through one record,
//! [`FaultPlan::client`] → [`ClientFaults`]: each actor holds the
//! records of the donors it plays (the simulator one per machine, a TCP
//! donor its own), so a donor's fault state never grows with the pool.
//! Every record carries the plan's link windows; replica windows are
//! read off the plan itself.
//! Random plans are generated from a single `u64` seed
//! ([`FaultPlan::random`]), and every failing chaos run is replayable
//! from its printed `(seed, plan)` alone — the plan is data, its
//! reading is deterministic, and nothing else feeds the injection.

use crate::sched::ClientId;
use crate::telemetry::{EventKind, Telemetry};
use biodist_util::rng::{Rng, Xoshiro256StarStar};

/// One kind of injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The client joins the pool late (it is absent before `at`).
    LateJoin,
    /// The client leaves permanently and silently (owner pulls the
    /// plug). In-flight work is lost; leases must recover it.
    Depart,
    /// The client crashes, losing any in-flight unit, and rejoins after
    /// `down_secs` (a reboot).
    Crash {
        /// How long the client stays down before rejoining.
        down_secs: f64,
    },
    /// The client computes `factor`× slower for `duration_secs`
    /// (owner activity, thermal throttling — the classic straggler).
    Slowdown {
        /// Compute-time multiplier, ≥ 1.
        factor: f64,
        /// Length of the slow window.
        duration_secs: f64,
    },
    /// The client's next completed result after `at` is lost in
    /// transit. The server never sees it; the lease must expire and the
    /// unit be reissued.
    DropResult,
    /// The client's next completed result after `at` is delivered
    /// twice (a retransmission bug). The server must accept exactly one
    /// copy.
    DuplicateResult,
    /// The client's next completed result after `at` arrives with a
    /// corrupted payload. The transport layer detects the checksum
    /// mismatch and the server must reissue the unit.
    CorruptResult,
    /// The shared server link runs `factor`× slower for
    /// `duration_secs` (congestion, a flapping switch port).
    LinkDegrade {
        /// Transfer-time multiplier, ≥ 1.
        factor: f64,
        /// Length of the degraded window.
        duration_secs: f64,
    },
    /// The next `ChunkData` reply the donor reads from the origin after
    /// `at` is lost in transit. A wire-level fault of the TCP transport,
    /// which recovers it inside the fetch (a later reply on the same
    /// connection exposes the gap and the chunk is asked for again);
    /// the simulator moves a unit's chunks as one verified bulk
    /// transfer and has no reply to lose, so it ignores it. Not part of
    /// [`FaultPlan::random`]'s mix — existing seeds keep their plans.
    DropChunk,
    /// The next `ChunkData` reply the donor reads from the origin after
    /// `at` has a broken body checksum: it is skipped, as the donor's
    /// frame reader skips one, and the fetch recovers as for
    /// [`FaultKind::DropChunk`].
    CorruptChunk,
    /// The next `TurnReply` the donor reads after `at` is lost in
    /// transit. A wire-level fault of the TCP transport, whose donor
    /// pipeline reads the loss off the in-order stream: a lost ack
    /// resubmits the result (the server dedups), a lost assignment is
    /// recovered by its lease. The simulator has no such frames and
    /// ignores it; like the chunk faults it is not part of
    /// [`FaultPlan::random`]'s mix.
    DropReply,
    /// The next `TurnReply` the donor reads after `at` is delivered
    /// twice: the donor must neither compute the unit twice nor mistake
    /// the copy for the reply to a later request.
    DuplicateReply,
    /// The next `TurnReply` the donor reads after `at` has a broken body
    /// checksum: it is skipped, as the donor's frame reader skips one,
    /// and recovery is as for [`FaultKind::DropReply`].
    CorruptReply,
    /// A chunk *replica* endpoint crashes at `at` and refuses
    /// connections for `down_secs` before coming back with its store
    /// intact (a rebooted mirror). The event's `client` field carries
    /// the **replica index**, not a donor id — replicas live in their
    /// own index space.
    ReplicaCrash {
        /// How long the replica stays down before serving again.
        down_secs: f64,
    },
    /// A chunk replica endpoint stalls: connections are accepted but
    /// requests are not answered until the window closes (a wedged
    /// process, a full disk). Donors time out and must fail over. The
    /// event's `client` field carries the **replica index**.
    ReplicaStall {
        /// Length of the stalled window.
        duration_secs: f64,
    },
}

/// `(start, end)` windows, sorted by start.
type Windows = Vec<(f64, f64)>;

/// The `(start, end, factor)` window of a [`FaultKind::LinkDegrade`].
fn link_window(e: &FaultEvent) -> Option<(f64, f64, f64)> {
    match e.kind {
        FaultKind::LinkDegrade {
            factor,
            duration_secs,
        } => Some((e.at, e.at + duration_secs, factor)),
        _ => None,
    }
}

/// The product of the factors of the `(start, end, factor)` windows
/// open at `now`, in the order given (≥ 1; 1 when none is open): the
/// one rule for slowdowns and link degradation.
fn scale_at(windows: impl Iterator<Item = (f64, f64, f64)>, now: f64) -> f64 {
    windows
        .filter(|&(start, end, _)| start <= now && now < end)
        .map(|(_, _, factor)| factor)
        .product()
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires / arms, in backend time (virtual seconds on
    /// the simulator, scaled wall seconds on the TCP backend).
    pub at: f64,
    /// The affected client; `None` for system-wide faults
    /// ([`FaultKind::LinkDegrade`]).
    pub client: Option<ClientId>,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, replayable schedule of faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    /// Carried so failure reports identify the plan compactly.
    pub seed: u64,
    /// The scheduled faults, in no particular order.
    pub events: Vec<FaultEvent>,
}

/// Tuning knobs for [`FaultPlan::random`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Number of clients in the pool the plan targets.
    pub n_clients: usize,
    /// Faults are scheduled in `[0.02, 0.7] × horizon_secs`, early
    /// enough that short runs still encounter them.
    pub horizon_secs: f64,
    /// How many fault events to draw.
    pub n_faults: usize,
    /// Hard cap on permanent departures, so a random plan can never
    /// drain the pool and deadlock the run. Crashes always rejoin and
    /// are not capped.
    pub max_departures: usize,
}

impl ChaosOptions {
    /// A default chaos profile for a pool of `n_clients`: one fault per
    /// client on average, at most a quarter of the pool departing.
    pub fn for_pool(n_clients: usize, horizon_secs: f64) -> Self {
        assert!(n_clients >= 2, "chaos needs at least 2 clients");
        Self {
            n_clients,
            horizon_secs,
            n_faults: n_clients,
            max_departures: (n_clients / 4).min(n_clients.saturating_sub(2)),
        }
    }
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        Self {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// A hand-built plan starts empty; add events with [`FaultPlan::with`].
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Builder: adds one event.
    pub fn with(mut self, at: f64, client: impl Into<Option<ClientId>>, kind: FaultKind) -> Self {
        self.push(at, client, kind);
        self
    }

    /// Adds one event.
    pub fn push(&mut self, at: f64, client: impl Into<Option<ClientId>>, kind: FaultKind) {
        assert!(
            at.is_finite() && at >= 0.0,
            "fault time must be finite and non-negative"
        );
        self.events.push(FaultEvent {
            at,
            client: client.into(),
            kind,
        });
    }

    /// Generates a random plan from `seed`. Identical `(seed, opts)`
    /// always yield the identical plan; the plan alone (its `Debug`
    /// rendering) is enough to reproduce any failure it caused.
    pub fn random(seed: u64, opts: &ChaosOptions) -> Self {
        assert!(opts.n_clients >= 2, "chaos needs at least 2 clients");
        assert!(opts.horizon_secs > 0.0, "horizon must be positive");
        let mut rng = Xoshiro256StarStar::new(seed).derive(0xFA_0173);
        let mut plan = Self::new(seed);
        let mut departures = 0usize;
        // A client that departs (or is selected to) is never targeted
        // again: post-departure faults on it would be dead events.
        let mut departed = vec![false; opts.n_clients];
        for _ in 0..opts.n_faults {
            let at = rng.next_f64_range(0.02, 0.7) * opts.horizon_secs;
            // Weighted fault mix: delivery faults are cheap and land
            // reliably; lifecycle and performance faults are rarer.
            let kind_idx = rng.next_weighted(&[
                1.0, // LateJoin
                1.0, // Depart (subject to the cap)
                1.5, // Crash
                1.5, // Slowdown
                2.0, // DropResult
                1.5, // DuplicateResult
                2.0, // CorruptResult
                1.0, // LinkDegrade
            ]);
            if kind_idx == 7 {
                let factor = rng.next_f64_range(2.0, 10.0);
                let duration_secs = rng.next_f64_range(0.05, 0.3) * opts.horizon_secs;
                plan.push(
                    at,
                    None,
                    FaultKind::LinkDegrade {
                        factor,
                        duration_secs,
                    },
                );
                continue;
            }
            let candidates: Vec<ClientId> = (0..opts.n_clients).filter(|&c| !departed[c]).collect();
            if candidates.is_empty() {
                break;
            }
            let client = candidates[rng.next_below(candidates.len() as u64) as usize];
            let kind = match kind_idx {
                0 => FaultKind::LateJoin,
                1 => {
                    if departures >= opts.max_departures {
                        // Cap reached: degrade to a crash (it rejoins).
                        FaultKind::Crash {
                            down_secs: rng.next_f64_range(0.05, 0.2) * opts.horizon_secs,
                        }
                    } else {
                        departures += 1;
                        departed[client] = true;
                        FaultKind::Depart
                    }
                }
                2 => FaultKind::Crash {
                    down_secs: rng.next_f64_range(0.05, 0.2) * opts.horizon_secs,
                },
                3 => FaultKind::Slowdown {
                    factor: rng.next_f64_range(2.0, 8.0),
                    duration_secs: rng.next_f64_range(0.1, 0.4) * opts.horizon_secs,
                },
                4 => FaultKind::DropResult,
                5 => FaultKind::DuplicateResult,
                6 => FaultKind::CorruptResult,
                _ => unreachable!(),
            };
            // LateJoin must arm at the client's single join time; keep
            // only the latest if several are drawn (handled in accessor).
            plan.push(at, client, kind);
        }
        plan
    }

    /// Everything the plan says about donor `id`, and the plan's link
    /// windows, read in one pass over its events. Replica-indexed
    /// events never land here, even when the replica index equals `id`;
    /// a donor of a plan that neither names it nor degrades the link
    /// gets an empty record, which allocates nothing.
    pub fn client(&self, id: ClientId) -> ClientFaults {
        let mut f = ClientFaults::default();
        for e in &self.events {
            if let Some((start, end, factor)) = link_window(e) {
                f.windows.push((start, end, factor, true));
                continue;
            }
            if e.client != Some(id) {
                continue;
            }
            let shot = match e.kind {
                FaultKind::LateJoin => {
                    f.join_at = Some(f.join_at.map_or(e.at, |a| a.max(e.at)));
                    continue;
                }
                FaultKind::Depart => {
                    f.departure = Some(f.departure.map_or(e.at, |a| a.min(e.at)));
                    continue;
                }
                FaultKind::Crash { down_secs } => {
                    f.crashes.push((e.at, down_secs));
                    continue;
                }
                FaultKind::Slowdown {
                    factor,
                    duration_secs,
                } => {
                    f.windows.push((e.at, e.at + duration_secs, factor, false));
                    continue;
                }
                FaultKind::DropResult => OneShot::Result(DeliveryAction::Drop),
                FaultKind::DuplicateResult => OneShot::Result(DeliveryAction::Duplicate),
                FaultKind::CorruptResult => OneShot::Result(DeliveryAction::Corrupt),
                FaultKind::DropChunk => OneShot::ChunkReply(DeliveryAction::Drop),
                FaultKind::CorruptChunk => OneShot::ChunkReply(DeliveryAction::Corrupt),
                FaultKind::DropReply => OneShot::ControlReply(DeliveryAction::Drop),
                FaultKind::DuplicateReply => OneShot::ControlReply(DeliveryAction::Duplicate),
                FaultKind::CorruptReply => OneShot::ControlReply(DeliveryAction::Corrupt),
                FaultKind::LinkDegrade { .. }
                | FaultKind::ReplicaCrash { .. }
                | FaultKind::ReplicaStall { .. } => continue,
            };
            f.armed.push((e.at, shot));
        }
        // Stable sorts: equal times keep plan order.
        f.crashes.sort_by(|a, b| a.0.total_cmp(&b.0));
        f.armed.sort_by(|a, b| a.0.total_cmp(&b.0));
        f
    }

    /// Transfer-time multiplier for the shared server link at `now`:
    /// the product of every [`FaultKind::LinkDegrade`] window open then,
    /// in plan order.
    pub fn link_scale(&self, now: f64) -> f64 {
        scale_at(self.events.iter().filter_map(link_window), now)
    }

    /// `(start, end)` windows for replica index `replica`: its
    /// [`FaultKind::ReplicaCrash`] downtimes, then its
    /// [`FaultKind::ReplicaStall`] stalls, each sorted by start time.
    /// Replica indices live in their own space — the same number as a
    /// donor id means a different machine.
    pub fn replica_windows(&self, replica: usize) -> (Windows, Windows) {
        let (mut crashes, mut stalls): (Windows, Windows) = (Vec::new(), Vec::new());
        for e in self.events.iter().filter(|e| e.client == Some(replica)) {
            match e.kind {
                FaultKind::ReplicaCrash { down_secs } => crashes.push((e.at, e.at + down_secs)),
                FaultKind::ReplicaStall { duration_secs } => {
                    stalls.push((e.at, e.at + duration_secs))
                }
                _ => {}
            }
        }
        crashes.sort_by(|a, b| a.0.total_cmp(&b.0));
        stalls.sort_by(|a, b| a.0.total_cmp(&b.0));
        (crashes, stalls)
    }

    /// The replica-fault events in the plan, as `(replica, at, kind)` —
    /// used by failure reports to print the replica topology story.
    pub fn replica_events(&self) -> Vec<&FaultEvent> {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::ReplicaCrash { .. } | FaultKind::ReplicaStall { .. }
                )
            })
            .collect()
    }

    /// A compact FNV-1a fingerprint of the plan (seed + every event,
    /// field by field). Failure reports print it next to the replay
    /// seed so a mismatch between "same seed" runs — e.g. after the
    /// generator's weights change — is detectable at a glance.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.seed.to_le_bytes());
        for e in &self.events {
            eat(&e.at.to_bits().to_le_bytes());
            eat(&e.client.map_or(u64::MAX, |c| c as u64).to_le_bytes());
            let (tag, a, b): (u8, f64, f64) = match e.kind {
                FaultKind::LateJoin => (0, 0.0, 0.0),
                FaultKind::Depart => (1, 0.0, 0.0),
                FaultKind::Crash { down_secs } => (2, down_secs, 0.0),
                FaultKind::Slowdown {
                    factor,
                    duration_secs,
                } => (3, factor, duration_secs),
                FaultKind::DropResult => (4, 0.0, 0.0),
                FaultKind::DuplicateResult => (5, 0.0, 0.0),
                FaultKind::CorruptResult => (6, 0.0, 0.0),
                FaultKind::LinkDegrade {
                    factor,
                    duration_secs,
                } => (7, factor, duration_secs),
                // (Tag 8, a wrong result, is retired: the farm trusts
                // its donors.)
                FaultKind::ReplicaCrash { down_secs } => (9, down_secs, 0.0),
                FaultKind::ReplicaStall { duration_secs } => (10, duration_secs, 0.0),
                FaultKind::DropChunk => (11, 0.0, 0.0),
                FaultKind::CorruptChunk => (12, 0.0, 0.0),
                FaultKind::DropReply => (13, 0.0, 0.0),
                FaultKind::DuplicateReply => (14, 0.0, 0.0),
                FaultKind::CorruptReply => (15, 0.0, 0.0),
            };
            eat(&[tag]);
            eat(&a.to_bits().to_le_bytes());
            eat(&b.to_bits().to_le_bytes());
        }
        h
    }
}

/// What the transport layer does with a completed result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryAction {
    /// Deliver normally.
    Deliver,
    /// The message is lost; the server never sees the result.
    Drop,
    /// The message is delivered twice (retransmission).
    Duplicate,
    /// The payload arrives corrupted; the server's transport layer
    /// detects the checksum mismatch and must reissue the unit.
    Corrupt,
}

impl DeliveryAction {
    /// The fault's name in trace events; `None` for a delivery.
    pub fn fault(self) -> Option<&'static str> {
        match self {
            Self::Deliver => None,
            Self::Drop => Some("drop"),
            Self::Duplicate => Some("duplicate"),
            Self::Corrupt => Some("corrupt"),
        }
    }
}

/// One armed one-shot fault of a donor's, by the queue it is consumed
/// from: each queue is consumed by its own caller, so consuming one
/// kind never perturbs another's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OneShot {
    /// A result delivery fault: [`FaultKind::DropResult`] /
    /// [`FaultKind::DuplicateResult`] / [`FaultKind::CorruptResult`].
    Result(DeliveryAction),
    /// A `ChunkData` reply fault: [`FaultKind::DropChunk`] /
    /// [`FaultKind::CorruptChunk`].
    ChunkReply(DeliveryAction),
    /// A control reply fault: [`FaultKind::DropReply`] /
    /// [`FaultKind::DuplicateReply`] / [`FaultKind::CorruptReply`].
    ControlReply(DeliveryAction),
}

/// One donor's part of a [`FaultPlan`] ([`FaultPlan::client`]): its
/// lifecycle, its slowdown windows and the plan's link windows, and its
/// armed one-shot faults. The simulator keeps one per machine and a TCP
/// donor its own, applying the wire faults at its own sockets, so a
/// plan means the same thing to every actor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientFaults {
    /// When the donor joins the pool, if the plan delays it (the latest
    /// [`FaultKind::LateJoin`] wins when several are present).
    pub join_at: Option<f64>,
    /// When the donor departs for good (the earliest
    /// [`FaultKind::Depart`] wins).
    pub departure: Option<f64>,
    /// `(crash_time, down_secs)` pairs, sorted by time (what
    /// [`ClientFaults::crash_overlapping`] relies on).
    pub(crate) crashes: Vec<(f64, f64)>,
    /// `(start, end, factor, is a link window)` slowdown and link
    /// windows, in plan order: overlapping factors multiply, and a
    /// reordered product can round differently. (The TCP donor reads
    /// the clock for a link delay only if there are any.)
    pub(crate) windows: Vec<(f64, f64, f64, bool)>,
    /// Armed one-shots, stably sorted by time (equal times keep plan
    /// order). One list rather than a queue per kind keeps an empty
    /// record three `Vec` headers. (The TCP donor reads the clock for a
    /// wire fault only if there are any.)
    pub(crate) armed: Vec<(f64, OneShot)>,
}

impl ClientFaults {
    /// The first downtime `[at, at + down)` among the crashes that
    /// overlaps `[from, to]`. The TCP donor's crash rule: with
    /// `from == to` it is the window the donor is down in at that
    /// instant; over a compute interval it is the crash that loses the
    /// unit — it began during the compute, or before it and was still
    /// open when it started.
    pub fn crash_overlapping(&self, from: f64, to: f64) -> Option<(f64, f64)> {
        let hits = |&&(at, down): &&(f64, f64)| at <= to && at + down > from;
        self.crashes.iter().find(hits).copied()
    }

    /// Compute-time multiplier for a unit the donor starts at `now`
    /// (≥ 1; 1 = full speed). Sampled once per unit, at its start.
    pub fn compute_scale(&self, now: f64) -> f64 {
        self.scale(false, now)
    }

    /// Transfer-time multiplier for the donor's link to the server at
    /// `now`: the plan's [`FaultPlan::link_scale`].
    pub fn link_scale(&self, now: f64) -> f64 {
        self.scale(true, now)
    }

    fn scale(&self, link: bool, now: f64) -> f64 {
        let windows = self.windows.iter().filter(|w| w.3 == link);
        scale_at(windows.map(|&(start, end, f, _)| (start, end, f)), now)
    }

    /// Consumes the earliest armed one-shot of the queue `pick` selects
    /// if its time has passed; later ones stay armed for later calls.
    fn take<T>(&mut self, now: f64, pick: impl Fn(OneShot) -> Option<T>) -> Option<T> {
        let (i, (at, got)) = self
            .armed
            .iter()
            .enumerate()
            .find_map(|(i, &(at, shot))| Some((i, (at, pick(shot)?))))?;
        if at > now {
            return None;
        }
        self.armed.remove(i);
        Some(got)
    }

    /// Decides the fate of a result the donor finished at `now`: the
    /// earliest armed result delivery fault whose time has passed is
    /// consumed.
    pub fn delivery_action(&mut self, now: f64) -> DeliveryAction {
        let result = |s| match s {
            OneShot::Result(a) => Some(a),
            _ => None,
        };
        self.take(now, result).unwrap_or(DeliveryAction::Deliver)
    }

    /// Decides the fate of a `ChunkData` reply the donor reads from the
    /// origin at `now`: the earliest armed [`FaultKind::DropChunk`] /
    /// [`FaultKind::CorruptChunk`] whose time has passed is consumed.
    pub fn chunk_reply_action(&mut self, now: f64) -> DeliveryAction {
        let chunk = |s| match s {
            OneShot::ChunkReply(a) => Some(a),
            _ => None,
        };
        self.take(now, chunk).unwrap_or(DeliveryAction::Deliver)
    }

    /// Decides the fate of a `TurnReply` the donor reads at `now`: the
    /// earliest armed [`FaultKind::DropReply`] /
    /// [`FaultKind::DuplicateReply`] / [`FaultKind::CorruptReply`] whose
    /// time has passed is consumed.
    pub fn control_reply_action(&mut self, now: f64) -> DeliveryAction {
        let control = |s| match s {
            OneShot::ControlReply(a) => Some(a),
            _ => None,
        };
        self.take(now, control).unwrap_or(DeliveryAction::Deliver)
    }

    /// Resolves the delivery of a result donor `client` finished at
    /// `now` on the simulator: consumes the due delivery fault
    /// ([`ClientFaults::delivery_action`]) and emits one `FaultInjected`
    /// event for any action other than `Deliver`.
    pub fn resolve_delivery(
        &mut self,
        tel: &Telemetry,
        now: f64,
        client: ClientId,
    ) -> DeliveryAction {
        let action = self.delivery_action(now);
        if let Some(name) = action.fault() {
            let action = name.to_string();
            tel.emit_at(now, EventKind::FaultInjected { client, action });
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let opts = ChaosOptions::for_pool(8, 300.0);
        let a = FaultPlan::random(42, &opts);
        let b = FaultPlan::random(42, &opts);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random(43, &opts);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn random_plans_respect_the_departure_cap() {
        for seed in 0..200 {
            let opts = ChaosOptions {
                n_faults: 40,
                ..ChaosOptions::for_pool(8, 300.0)
            };
            let plan = FaultPlan::random(seed, &opts);
            let departures = (0..8)
                .filter(|&c| plan.client(c).departure.is_some())
                .count();
            assert!(
                departures <= opts.max_departures,
                "seed {seed}: {departures} departures"
            );
            assert!(8 - departures >= 6, "the survivors a run falls back on");
        }
    }

    /// The one crash rule both real-donor backends call: a downtime
    /// window loses the unit iff it overlaps `[started, done]`.
    #[test]
    fn a_crash_loses_the_unit_iff_its_window_overlaps_the_compute_interval() {
        let (started, done) = (10.0, 20.0);
        // (crash at, down secs, loses the unit, why)
        let table = [
            (2.0, 3.0, false, "over before the compute started"),
            (5.0, 5.0, false, "closes exactly at the start (half-open)"),
            (5.0, 6.0, true, "began before, still open at the start"),
            (5.0, 50.0, true, "covers the whole interval"),
            (10.0, 1.0, true, "opens at the start"),
            (15.0, 0.5, true, "opens and closes inside"),
            (15.0, 0.0, true, "instant reboot inside still loses memory"),
            (20.0, 4.0, true, "opens as the compute ends"),
            (20.5, 4.0, false, "opens after the result left"),
        ];
        for (at, down, loses, why) in table {
            let plan = FaultPlan::new(0).with(at, 0, FaultKind::Crash { down_secs: down });
            let hit = plan.client(0).crash_overlapping(started, done);
            assert_eq!(
                hit,
                loses.then_some((at, down)),
                "window [{at}, +{down}): {why}"
            );
        }
        // Several windows: the first overlapping one, in time order.
        let crashes = FaultPlan::new(0)
            .with(18.0, 0, FaultKind::Crash { down_secs: 9.0 })
            .with(1.0, 0, FaultKind::Crash { down_secs: 2.0 })
            .with(12.0, 0, FaultKind::Crash { down_secs: 1.0 })
            .client(0);
        assert_eq!(crashes.crash_overlapping(started, done), Some((12.0, 1.0)));
        // "Which window is `now` inside" is the same rule at an instant.
        assert_eq!(crashes.crash_overlapping(0.9, 0.9), None);
        assert_eq!(crashes.crash_overlapping(1.0, 1.0), Some((1.0, 2.0)));
        assert_eq!(crashes.crash_overlapping(3.0, 3.0), None);
        assert_eq!(crashes.crash_overlapping(26.9, 26.9), Some((18.0, 9.0)));
    }

    #[test]
    fn the_donor_record_picks_the_right_lifecycle_events() {
        let plan = FaultPlan::new(1)
            .with(50.0, 3, FaultKind::LateJoin)
            .with(80.0, 3, FaultKind::LateJoin)
            .with(200.0, 4, FaultKind::Depart)
            .with(150.0, 4, FaultKind::Depart)
            .with(30.0, 5, FaultKind::Crash { down_secs: 10.0 })
            .with(10.0, 5, FaultKind::Crash { down_secs: 5.0 });
        assert_eq!(plan.client(3).join_at, Some(80.0), "latest join wins");
        assert_eq!(
            plan.client(4).departure,
            Some(150.0),
            "earliest departure wins"
        );
        assert_eq!(
            plan.client(5).crashes,
            vec![(10.0, 5.0), (30.0, 10.0)],
            "sorted by time"
        );
        assert_eq!(plan.client(0).join_at, None);
        let survivors = (0..6).filter(|&c| plan.client(c).departure.is_none());
        assert_eq!(survivors.count(), 5);
    }

    #[test]
    fn the_record_consumes_armed_deliveries_in_order() {
        let plan = FaultPlan::new(2)
            .with(10.0, 0, FaultKind::DropResult)
            .with(20.0, 0, FaultKind::CorruptResult)
            .with(5.0, 1, FaultKind::DuplicateResult);
        let mut c0 = plan.client(0);
        // Before the arm time: nothing fires.
        assert_eq!(c0.delivery_action(9.0), DeliveryAction::Deliver);
        // Both armed faults have passed by t=25, but only one fires per
        // delivery, earliest first.
        assert_eq!(c0.delivery_action(25.0), DeliveryAction::Drop);
        assert_eq!(c0.delivery_action(25.0), DeliveryAction::Corrupt);
        assert_eq!(c0.delivery_action(25.0), DeliveryAction::Deliver);
        assert_eq!(
            plan.client(1).delivery_action(6.0),
            DeliveryAction::Duplicate
        );
    }

    #[test]
    fn slowdowns_and_link_windows_scale_inside_their_windows() {
        let plan = FaultPlan::new(3)
            .with(
                100.0,
                2,
                FaultKind::Slowdown {
                    factor: 4.0,
                    duration_secs: 50.0,
                },
            )
            .with(
                120.0,
                2,
                FaultKind::Slowdown {
                    factor: 2.0,
                    duration_secs: 10.0,
                },
            )
            .with(
                40.0,
                None,
                FaultKind::LinkDegrade {
                    factor: 5.0,
                    duration_secs: 20.0,
                },
            );
        let c2 = plan.client(2);
        assert_eq!(c2.compute_scale(99.0), 1.0);
        assert_eq!(c2.compute_scale(110.0), 4.0);
        assert_eq!(c2.compute_scale(125.0), 8.0, "overlapping windows multiply");
        assert_eq!(c2.compute_scale(150.0), 1.0, "window end is exclusive");
        assert_eq!(
            plan.client(0).compute_scale(110.0),
            1.0,
            "other clients unaffected"
        );
        assert_eq!(plan.link_scale(45.0), 5.0);
        assert_eq!(plan.link_scale(60.0), 1.0);
        // Every record carries the link windows, and only those.
        for record in [&c2, &plan.client(0)] {
            assert_eq!(record.link_scale(45.0), 5.0);
            assert_eq!(record.link_scale(60.0), 1.0);
        }
        assert_eq!(c2.link_scale(110.0), 1.0, "a slowdown is not a link window");
    }

    #[test]
    fn a_donor_the_plan_does_not_name_has_an_empty_record() {
        let plan = FaultPlan::new(4)
            .with(1.0, 99, FaultKind::DropResult)
            .with(1.0, 3, FaultKind::ReplicaCrash { down_secs: 1.0 })
            .with(1.0, 3, FaultKind::ReplicaStall { duration_secs: 1.0 });
        let mut c3 = plan.client(3);
        assert_eq!(c3, ClientFaults::default(), "replica events stay out");
        assert!(c3.armed.is_empty() && c3.windows.is_empty());
        let link = FaultKind::LinkDegrade {
            factor: 2.0,
            duration_secs: 1.0,
        };
        let degraded = plan.clone().with(1.0, None, link).client(3);
        assert!(!degraded.windows.is_empty() && degraded.armed.is_empty());
        assert_eq!(
            degraded.link_scale(1.5),
            2.0,
            "a link window lands in every record"
        );
        assert_eq!(c3.delivery_action(5.0), DeliveryAction::Deliver);
        assert_eq!(c3.compute_scale(5.0), 1.0);
        assert_ne!(plan.client(99), ClientFaults::default());
        // No larger than a donor's share of a five-queue interpreter
        // (five `Vec` headers), and nothing on the heap when empty.
        assert!(std::mem::size_of::<ClientFaults>() <= 120);
        assert_eq!(c3.crashes.capacity() + c3.armed.capacity(), 0);
        assert_eq!(c3.windows.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_fault_time_is_rejected() {
        FaultPlan::new(0).push(-1.0, 0, FaultKind::Depart);
    }

    #[test]
    fn replica_fault_accessors_pick_their_own_index_space() {
        let plan = FaultPlan::new(5)
            .with(0.5, 1, FaultKind::ReplicaCrash { down_secs: 0.25 })
            .with(0.25, 1, FaultKind::ReplicaCrash { down_secs: 0.25 })
            .with(0.75, 1, FaultKind::ReplicaStall { duration_secs: 0.5 })
            .with(0.5, 0, FaultKind::Crash { down_secs: 1.0 });
        assert_eq!(
            plan.replica_windows(1),
            (vec![(0.25, 0.5), (0.5, 0.75)], vec![(0.75, 1.25)]),
            "sorted windows"
        );
        assert_eq!(
            plan.replica_windows(0),
            (vec![], vec![]),
            "donor crashes are not replica crashes even at the same index"
        );
        assert_eq!(plan.client(1).crashes, vec![], "and vice versa");
        assert_eq!(plan.replica_events().len(), 3);
        // The digest distinguishes the two replica kinds.
        let a = FaultPlan::new(1).with(5.0, 0, FaultKind::ReplicaCrash { down_secs: 1.0 });
        let b = FaultPlan::new(1).with(5.0, 0, FaultKind::ReplicaStall { duration_secs: 1.0 });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let opts = ChaosOptions::for_pool(8, 300.0);
        let a = FaultPlan::random(42, &opts);
        assert_eq!(a.digest(), FaultPlan::random(42, &opts).digest());
        assert_ne!(a.digest(), FaultPlan::random(43, &opts).digest());
        // The digest covers event contents, not just the seed.
        let mut b = a.clone();
        b.push(1.0, 0, FaultKind::DropResult);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(FaultPlan::none().digest(), 0);
        // Pinned (values from before tag 8, a wrong-result fault, was
        // retired): every kind keeps its tag and tag 8 is never reused,
        // so a seed's printed digest means what it always did.
        let kinds = [
            FaultKind::LateJoin,
            FaultKind::Depart,
            FaultKind::Crash { down_secs: 1.5 },
            FaultKind::Slowdown {
                factor: 2.0,
                duration_secs: 3.0,
            },
            FaultKind::DropResult,
            FaultKind::DuplicateResult,
            FaultKind::CorruptResult,
            FaultKind::LinkDegrade {
                factor: 4.0,
                duration_secs: 5.0,
            },
            FaultKind::ReplicaCrash { down_secs: 6.0 },
            FaultKind::ReplicaStall { duration_secs: 7.0 },
            FaultKind::DropChunk,
            FaultKind::CorruptChunk,
            FaultKind::DropReply,
            FaultKind::DuplicateReply,
            FaultKind::CorruptReply,
        ];
        let mut plan = FaultPlan::new(48);
        for (i, kind) in kinds.into_iter().enumerate() {
            plan.push(i as f64, i % 3, kind);
        }
        assert_eq!(plan.digest(), 14_962_680_605_851_621_010);
        assert_eq!(a.digest(), 17_281_740_625_250_829_700);
    }
}
