//! The adaptive scheduler (paper ref \[12\]: "Adaptive scheduling
//! across a distributed computation platform").
//!
//! Three cooperating mechanisms, each independently switchable so the
//! ablation benches can isolate their contributions:
//!
//! 1. **Dynamic granularity** — each donor's next unit is sized so its
//!    *estimated* service time hits a target (fast donors get big
//!    units, slow donors small ones; paper §3.1: "parallel granularity
//!    is dynamically controlled during each search to match the
//!    processing abilities of the current set of donor machines").
//! 2. **Adaptive throughput tracking** — an EWMA of each client's
//!    observed end-to-end ops/second feeds the granularity calculation
//!    and straggler detection.
//! 3. **Fault tolerance / end-game** — units leased to a donor carry a
//!    deadline; expired leases are reissued (donor churn), and when a
//!    problem has no fresh units left, in-flight units are redundantly
//!    dispatched to idle donors so one slow machine cannot stall the
//!    tail (first result wins).

use crate::problem::UnitId;
use biodist_util::rng::{Rng, SplitMix64};
use biodist_util::stats::Ewma;
use std::collections::{HashMap, HashSet, VecDeque};

/// Identifies a donor machine / client.
pub type ClientId = usize;

/// Scheduler tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Target service time per unit, in seconds.
    pub target_unit_secs: f64,
    /// Smallest unit the granularity control may request, in ops.
    pub min_unit_ops: f64,
    /// Largest unit the granularity control may request, in ops.
    pub max_unit_ops: f64,
    /// EWMA smoothing for client throughput estimates.
    pub ewma_alpha: f64,
    /// Throughput prior for clients with no history (ops/second).
    pub prior_ops_per_sec: f64,
    /// Lease duration as a multiple of the unit's estimated service
    /// time (expired leases are reissued).
    pub lease_factor: f64,
    /// Minimum absolute lease duration, seconds.
    pub lease_min_secs: f64,
    /// Maximum number of lease-backoff doublings applied to a unit
    /// whose lease keeps expiring (each expiry doubles the next lease
    /// until this cap; see [`Scheduler::lease_deadline_backed_off`]).
    pub max_backoff_doublings: u32,
    /// Absolute ceiling on any lease duration, seconds. Bounds the
    /// exponential backoff so a unit with a wildly wrong cost estimate
    /// can never be parked on one donor for an unbounded time.
    pub max_lease_secs: f64,
    /// Fractional jitter on lease durations (0 = none): the deadline
    /// used by the server is spread over `±frac` of the nominal lease
    /// so a batch of units assigned in the same instant does not expire
    /// in the same instant and thundering-herd the reissue queue. The
    /// jitter is a pure hash of `(seed, client, unit, expiries)` — no
    /// generator state — so deadlines are identical across backends
    /// regardless of call order.
    pub lease_jitter_frac: f64,
    /// Seed for the deterministic lease jitter.
    pub lease_jitter_seed: u64,
    /// Enable dynamic granularity (off = every hint is
    /// `prior_ops_per_sec × target_unit_secs`).
    pub enable_dynamic_granularity: bool,
    /// Enable per-client throughput adaptation (off = all clients
    /// assumed to run at the prior speed).
    pub enable_adaptive: bool,
    /// Enable redundant end-game dispatch of in-flight units.
    pub enable_redundant_dispatch: bool,
    /// Maximum simultaneous executions of one unit (≥ 1).
    pub max_redundancy: u32,
    /// Enable affinity-aware placement: prefer issuing a unit to a
    /// donor already caching its data chunks, falling back to the
    /// fair-share order when no candidate matches.
    pub enable_affinity: bool,
    /// Maximum chunk digests remembered per donor (oldest forgotten
    /// first — mirrors the donor's own LRU, approximately).
    pub affinity_capacity: usize,
    /// How many units the server pre-pulls per problem so affinity has
    /// candidates to choose among. `1` disables the lookahead pool
    /// (pull-on-demand, the pre-affinity behaviour).
    pub affinity_lookahead: usize,
    /// K-way quorum issuance: units first issued to an *untrusted*
    /// donor are cross-checked on `quorum_k` distinct donors, and the
    /// combine path only runs once a quorum of byte-identical results
    /// agrees. `1` disables quorum (every result is trusted — the
    /// paper's behaviour).
    pub quorum_k: u32,
    /// Byte-identical votes required to agree (`0` = majority of
    /// `quorum_k`, i.e. `k/2 + 1`). Clamped to `quorum_k`.
    pub quorum_votes: u32,
    /// Quorum agreements a donor needs before it is trusted and
    /// graduates to single-issue (its results skip cross-checking).
    pub reputation_threshold: u32,
    /// Enable speculative re-issue of tail units: once fresh work is
    /// exhausted, in-flight units may be re-dispatched beyond the plain
    /// redundant-dispatch cap (up to [`Self::speculative_max_copies`])
    /// to cut the end-of-run makespan droop (Figure 1).
    pub enable_speculative_reissue: bool,
    /// Ceiling on simultaneous copies of one unit when speculative
    /// tail re-issue is enabled.
    pub speculative_max_copies: u32,
    /// Enable the streaming health detector: per-donor normalized
    /// service-time EWMAs flag stragglers live, flagged donors lose
    /// their affinity preference, and units they hold become eligible
    /// for speculative re-issue *immediately* (not only in the
    /// end-game tail). Off by default: with the detector disabled every
    /// trace and scheduling decision is byte-identical to the
    /// pre-detector behaviour.
    pub enable_health_detector: bool,
    /// Flag a donor when its recent normalized service time reaches
    /// this multiple of its baseline (see [`crate::health`]).
    pub health_straggler_ratio: f64,
    /// Clear a flagged donor when the ratio falls back to this value.
    pub health_clear_ratio: f64,
    /// Completions required before a donor may be flagged.
    pub health_min_observations: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            target_unit_secs: 60.0,
            min_unit_ops: 1e5,
            max_unit_ops: 1e10,
            ewma_alpha: 0.3,
            prior_ops_per_sec: 1.0e7, // one PIII-1000 (gridsim scale)
            lease_factor: 4.0,
            lease_min_secs: 120.0,
            max_backoff_doublings: 6,
            max_lease_secs: 86_400.0,
            lease_jitter_frac: 0.1,
            lease_jitter_seed: 0,
            enable_dynamic_granularity: true,
            enable_adaptive: true,
            enable_redundant_dispatch: true,
            max_redundancy: 2,
            enable_affinity: true,
            affinity_capacity: 4096,
            affinity_lookahead: 1,
            quorum_k: 1,
            quorum_votes: 0,
            reputation_threshold: 4,
            enable_speculative_reissue: false,
            speculative_max_copies: 3,
            enable_health_detector: false,
            health_straggler_ratio: 3.0,
            health_clear_ratio: 1.5,
            health_min_observations: 3,
        }
    }
}

impl SchedulerConfig {
    /// A naive baseline for the ablations: fixed granularity, no
    /// adaptation, no redundancy (lease reissue stays on — without it a
    /// single departed donor deadlocks any run, which is not an
    /// interesting comparison point).
    pub fn naive() -> Self {
        Self {
            enable_dynamic_granularity: false,
            enable_adaptive: false,
            enable_redundant_dispatch: false,
            ..Self::default()
        }
    }
}

/// Per-client adaptive state.
#[derive(Debug, Clone)]
struct ClientState {
    throughput: Ewma,
    units_completed: u64,
    /// Total cost of the units completed, in ops.
    ops_completed: f64,
    /// [`Scheduler::queue_factor`] of the last completion: how much
    /// longer than one unit's service this donor's leases stay out.
    queue_factor: f64,
}

/// Per-donor reputation: how often the donor's results agreed with a
/// byte-identical quorum, and whether it has graduated to single-issue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ReputationState {
    /// Consecutive-run quorum agreements since the last dispute.
    agreements: u64,
    /// Lifetime disputes (result disagreed with a quorum, or arrived
    /// corrupted).
    disputes: u64,
    /// Whether the donor's results currently skip cross-checking.
    trusted: bool,
}

/// Plain-data snapshot of the reputation map, checkpointed alongside
/// [`SchedSnapshot`] so a recovered server keeps trusting the donors
/// that earned it (and keeps cross-checking the ones that did not).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReputationSnapshot {
    /// `(client, agreements, disputes, trusted)`, sorted by client id
    /// so snapshots are byte-stable for a given state.
    pub clients: Vec<(ClientId, u64, u64, bool)>,
}

/// Which chunk digests a donor is believed to hold, insertion-ordered
/// so the oldest belief is forgotten first when the cap is reached.
#[derive(Debug, Clone, Default)]
struct AffinityState {
    order: VecDeque<u64>,
    set: HashSet<u64>,
}

impl AffinityState {
    fn note(&mut self, digest: u64, cap: usize) {
        if cap == 0 || self.set.contains(&digest) {
            return;
        }
        while self.order.len() >= cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        self.order.push_back(digest);
        self.set.insert(digest);
    }
}

/// Plain-data snapshot of the affinity map (which donor holds which
/// chunk digests), checkpointed alongside [`SchedSnapshot`] so a
/// recovered server resumes placing work where the data already lives.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AffinitySnapshot {
    /// `(client, digests in insertion order)`, sorted by client id so
    /// snapshots are byte-stable for a given state.
    pub clients: Vec<(ClientId, Vec<u64>)>,
}

/// A plain-data snapshot of the scheduler's adaptive state, written to
/// the checkpoint log so a restarted server resumes with warm speed
/// estimates instead of the cold prior.
///
/// Only the current EWMA value survives, not the full observation
/// history: after recovery the estimate re-converges from that value at
/// the configured `ewma_alpha`, which is exactly the behaviour of a
/// freshly-observed client at that speed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedSnapshot {
    /// `(client, estimated ops/second, units completed)`, sorted by
    /// client id so snapshots are byte-stable for a given state.
    pub clients: Vec<(ClientId, f64, u64)>,
}

/// What the scheduler holds on one donor, looked up once
/// ([`Scheduler::donor`]) for however many units a turn leases it.
#[derive(Debug, Clone, Copy)]
pub struct Donor {
    /// The donor.
    pub client: ClientId,
    /// [`Scheduler::granularity_hint`].
    pub hint: f64,
    /// [`Scheduler::work_completed`].
    pub completed: (u64, f64),
    /// [`Scheduler::is_health_flagged`].
    pub flagged: bool,
    /// [`Scheduler::required_copies`].
    pub copies: u32,
    // [`Scheduler::estimated_speed`] and the last completion's queue
    // factor: what a lease is priced from.
    speed: f64,
    queue_factor: f64,
}

/// The scheduler: client statistics + policy decisions.
///
/// The scheduler is deliberately free of any I/O or clock source; both
/// backends feed it observations and query decisions.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    clients: HashMap<ClientId, ClientState>,
    affinity: HashMap<ClientId, AffinityState>,
    reputation: HashMap<ClientId, ReputationState>,
    /// Donors currently flagged as stragglers by the health engine.
    /// Maintained by the server; empty unless the detector is enabled.
    health_flagged: HashSet<ClientId>,
}

impl Scheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: SchedulerConfig) -> Self {
        assert!(
            cfg.target_unit_secs > 0.0,
            "target unit time must be positive"
        );
        assert!(cfg.min_unit_ops > 0.0 && cfg.min_unit_ops <= cfg.max_unit_ops);
        assert!(cfg.max_redundancy >= 1);
        assert!(cfg.quorum_k >= 1, "quorum_k must be at least 1");
        assert!(cfg.speculative_max_copies >= 1);
        Self {
            cfg,
            clients: HashMap::new(),
            affinity: HashMap::new(),
            reputation: HashMap::new(),
            health_flagged: HashSet::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Estimated throughput of `client` in ops/second.
    pub fn estimated_speed(&self, client: ClientId) -> f64 {
        self.donor(client).speed
    }

    /// The granularity hint for `client`'s next unit, in ops.
    pub fn granularity_hint(&self, client: ClientId) -> f64 {
        self.donor(client).hint
    }

    /// Everything a lease to `client` is sized, priced and booked from.
    pub fn donor(&self, client: ClientId) -> Donor {
        let cfg = &self.cfg;
        let state = self.clients.get(&client);
        let measured = state.filter(|_| cfg.enable_adaptive);
        let speed = measured
            .and_then(|c| c.throughput.value())
            .unwrap_or(cfg.prior_ops_per_sec);
        let sized_from = if cfg.enable_dynamic_granularity {
            speed
        } else {
            cfg.prior_ops_per_sec
        };
        Donor {
            client,
            hint: (sized_from * cfg.target_unit_secs).clamp(cfg.min_unit_ops, cfg.max_unit_ops),
            completed: state.map_or((0, 0.0), |c| (c.units_completed, c.ops_completed)),
            flagged: self.is_health_flagged(client),
            copies: self.required_copies(client),
            speed,
            queue_factor: state.map_or(1.0, |c| c.queue_factor),
        }
    }

    /// Lease deadline for a unit of `cost_ops` assigned to `client` at
    /// time `now`.
    pub fn lease_deadline(&self, client: ClientId, cost_ops: f64, now: f64) -> f64 {
        self.lease_deadline_backed_off(&self.donor(client), cost_ops, now, 0)
    }

    /// Lease deadline with exponential backoff: every prior expiry of
    /// the unit doubles the lease, so a unit whose true cost exceeds the
    /// estimate converges instead of bouncing between reissue and the
    /// same slow donor forever.
    ///
    /// The growth is clamped twice: at most
    /// [`SchedulerConfig::max_backoff_doublings`] doublings (and never
    /// more than 63, so the shift cannot overflow regardless of
    /// configuration), and the resulting duration never exceeds
    /// [`SchedulerConfig::max_lease_secs`].
    pub fn lease_deadline_backed_off(
        &self,
        donor: &Donor,
        cost_ops: f64,
        now: f64,
        prior_expiries: u32,
    ) -> f64 {
        // The speed prices one unit's service; the lease has to cover
        // the units the donor works through ahead of it as well.
        let est = cost_ops / donor.speed * donor.queue_factor;
        let base = (est * self.cfg.lease_factor).max(self.cfg.lease_min_secs);
        let doublings = prior_expiries.min(self.cfg.max_backoff_doublings).min(63);
        let factor = (1u64 << doublings) as f64;
        now + (base * factor).min(self.cfg.max_lease_secs)
    }

    /// [`Scheduler::lease_deadline_backed_off`] with deterministic
    /// per-unit jitter: the lease duration is scaled by a factor in
    /// `[1 − jitter, 1 + jitter)` drawn from a stateless hash of
    /// `(lease_jitter_seed, client, unit, prior_expiries)`. Units
    /// assigned in the same scheduling instant therefore expire spread
    /// out instead of stampeding `check_timeouts` at once, and the same
    /// `(seed, client, unit, expiries)` tuple always jitters the same
    /// way on every backend.
    pub fn lease_deadline_jittered(
        &self,
        donor: &Donor,
        cost_ops: f64,
        now: f64,
        prior_expiries: u32,
        unit: UnitId,
    ) -> f64 {
        let client = donor.client;
        let nominal = self.lease_deadline_backed_off(donor, cost_ops, now, prior_expiries);
        let frac = self.cfg.lease_jitter_frac;
        if frac <= 0.0 {
            return nominal;
        }
        let mut h = SplitMix64::new(
            self.cfg
                .lease_jitter_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (client as u64).wrapping_mul(0xA24B_AED4_963E_E407)
                ^ unit.wrapping_mul(0x1000_0000_01B3)
                ^ u64::from(prior_expiries).wrapping_mul(0xCBF2_9CE4_8422_2325),
        );
        let spread = 1.0 + frac * (2.0 * h.next_f64() - 1.0);
        let duration = ((nominal - now) * spread).min(self.cfg.max_lease_secs);
        now + duration
    }

    /// What a lease's turnaround is divided by to get the unit's own
    /// service time, when its donor delivered `ahead` other results
    /// worth `ops_ahead` while the lease was out: a pipelining donor
    /// works through the units it already held first, so the turnaround
    /// covers `cost_ops + ops_ahead` of work, not `cost_ops`. The
    /// estimate has always been taken from donors that hold one unit
    /// ready while they compute another, so only what exceeds that is
    /// divided out: with at most one result ahead (a pipeline depth of
    /// 2 or less) the factor is exactly 1, and beyond it the speed
    /// estimate — and the granularity hint sized from it — stops
    /// falling with the depth.
    pub fn queue_factor(cost_ops: f64, ahead: u64, ops_ahead: f64) -> f64 {
        if ahead <= 1 || cost_ops <= 0.0 {
            return 1.0;
        }
        ((cost_ops + ops_ahead) / (2.0 * cost_ops)).max(1.0)
    }

    /// Records a completed unit: `cost_ops` of work whose lease was out
    /// for `elapsed_secs` on `client`, `queue_factor` times the unit's
    /// own service ([`Scheduler::queue_factor`]; 1 for a donor that
    /// does not pipeline beyond one unit ahead).
    pub fn record_completion(
        &mut self,
        client: ClientId,
        cost_ops: f64,
        elapsed_secs: f64,
        queue_factor: f64,
    ) {
        let elapsed = elapsed_secs.max(1e-9);
        let state = self.clients.entry(client).or_insert_with(|| ClientState {
            throughput: Ewma::new(self.cfg.ewma_alpha),
            units_completed: 0,
            ops_completed: 0.0,
            queue_factor: 1.0,
        });
        state.queue_factor = queue_factor;
        state.throughput.update(cost_ops * queue_factor / elapsed);
        state.units_completed += 1;
        state.ops_completed += cost_ops;
    }

    /// Forgets a client (it left the pool). Reputation is forgotten
    /// too: a donor id that rejoins after departure starts over as an
    /// unknown, cross-checked donor — the safe direction.
    pub fn forget_client(&mut self, client: ClientId) {
        self.clients.remove(&client);
        self.affinity.remove(&client);
        self.reputation.remove(&client);
        self.health_flagged.remove(&client);
    }

    /// Records that `client` now holds chunks with these digests (it
    /// was just served them, or a backend modelled the transfer).
    pub fn note_chunks(&mut self, client: ClientId, digests: &[u64]) {
        if !self.cfg.enable_affinity || digests.is_empty() {
            return;
        }
        let state = self.affinity.entry(client).or_default();
        for &d in digests {
            state.note(d, self.cfg.affinity_capacity);
        }
    }

    /// How many of `digests` the scheduler believes `client` holds.
    /// Zero when affinity is disabled, so callers can use the score
    /// directly without re-checking the flag.
    pub fn affinity_score(&self, client: ClientId, digests: &[u64]) -> usize {
        if !self.cfg.enable_affinity || self.health_flagged.contains(&client) {
            // A flagged straggler loses its data-locality preference:
            // feeding it the units it is best placed for just lengthens
            // the tail it is already dragging.
            return 0;
        }
        match self.affinity.get(&client) {
            Some(state) => digests.iter().filter(|d| state.set.contains(d)).count(),
            None => 0,
        }
    }

    /// Total chunk digests tracked for `client`.
    pub fn affinity_entries(&self, client: ClientId) -> usize {
        self.affinity.get(&client).map_or(0, |s| s.order.len())
    }

    /// Captures the affinity map for the checkpoint log.
    pub fn affinity_snapshot(&self) -> AffinitySnapshot {
        let mut clients: Vec<_> = self
            .affinity
            .iter()
            .map(|(&id, st)| (id, st.order.iter().copied().collect::<Vec<u64>>()))
            .collect();
        clients.sort_unstable_by_key(|&(id, _)| id);
        AffinitySnapshot { clients }
    }

    /// Replaces the affinity map with a recovered snapshot (entries are
    /// re-capped against the current configuration).
    pub fn restore_affinity(&mut self, snap: &AffinitySnapshot) {
        self.affinity.clear();
        for (id, digests) in &snap.clients {
            self.note_chunks(*id, digests);
        }
    }

    /// Publishes `client`'s adaptive state as telemetry gauges
    /// (`sched.ops_per_sec.c<id>`, `sched.units_completed.c<id>`). The
    /// server calls this after each recorded completion; a disabled
    /// handle makes it free.
    pub fn export_client_metrics(&self, client: ClientId, telemetry: &crate::telemetry::Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.gauge_set(
            &format!("sched.ops_per_sec.c{client}"),
            self.estimated_speed(client),
        );
        telemetry.gauge_set(
            &format!("sched.units_completed.c{client}"),
            self.units_completed(client) as f64,
        );
    }

    /// Units completed by `client`, and their total cost in ops (both
    /// start over when the client is forgotten).
    pub fn work_completed(&self, client: ClientId) -> (u64, f64) {
        self.donor(client).completed
    }

    /// Units completed by `client`.
    pub fn units_completed(&self, client: ClientId) -> u64 {
        self.clients
            .get(&client)
            .map(|c| c.units_completed)
            .unwrap_or(0)
    }

    /// How many copies of one unit may run at once: `.0` by plain
    /// redundant dispatch, `.1` by speculation past that cap (0 = not
    /// allowed) — armed by `enable_speculative_reissue` (the tail) or,
    /// `live`, by the health detector: a unit with a flagged holder,
    /// asked for by a healthy donor, even while fresh work remains.
    pub fn copy_caps(&self, live: bool) -> (u32, u32) {
        let c = &self.cfg;
        let plain = c.enable_redundant_dispatch;
        let speculate = c.enable_speculative_reissue || (live && c.enable_health_detector);
        let cap = |on: bool, copies: u32| if on { copies } else { 0 };
        (
            cap(plain, c.max_redundancy),
            cap(speculate, c.speculative_max_copies),
        )
    }

    /// Marks or clears `client`'s straggler flag (driven by the
    /// server's health engine).
    pub fn set_health_flag(&mut self, client: ClientId, flagged: bool) {
        if flagged {
            self.health_flagged.insert(client);
        } else {
            self.health_flagged.remove(&client);
        }
    }

    /// Whether `client` is currently flagged as a straggler.
    pub fn is_health_flagged(&self, client: ClientId) -> bool {
        self.health_flagged.contains(&client)
    }

    /// Whether K-way quorum issuance is configured at all.
    pub fn quorum_enabled(&self) -> bool {
        self.cfg.quorum_k > 1
    }

    /// Byte-identical votes a quorum needs to agree: the configured
    /// `quorum_votes`, or a majority of `quorum_k` when left at 0,
    /// clamped to `[1, quorum_k]`.
    pub fn required_votes(&self) -> u32 {
        let v = if self.cfg.quorum_votes == 0 {
            self.cfg.quorum_k / 2 + 1
        } else {
            self.cfg.quorum_votes
        };
        v.clamp(1, self.cfg.quorum_k)
    }

    /// How many distinct donors a unit first issued to `client` must
    /// run on: 1 when quorum is disabled or the donor has earned trust,
    /// `quorum_k` for unknown or previously-disputed donors.
    pub fn required_copies(&self, client: ClientId) -> u32 {
        if self.cfg.quorum_k <= 1 || self.is_trusted(client) {
            1
        } else {
            self.cfg.quorum_k
        }
    }

    /// Whether `client` has graduated to single-issue.
    pub fn is_trusted(&self, client: ClientId) -> bool {
        self.reputation.get(&client).is_some_and(|r| r.trusted)
    }

    /// `(agreements since last dispute, lifetime disputes)` for
    /// `client`.
    pub fn reputation_counts(&self, client: ClientId) -> (u64, u64) {
        self.reputation
            .get(&client)
            .map_or((0, 0), |r| (r.agreements, r.disputes))
    }

    /// Records that `client`'s result agreed with a byte-identical
    /// quorum. Returns `true` when this crosses the trust threshold and
    /// promotes the donor to single-issue.
    pub fn note_quorum_agreement(&mut self, client: ClientId) -> bool {
        let threshold = u64::from(self.cfg.reputation_threshold.max(1));
        let r = self.reputation.entry(client).or_default();
        r.agreements += 1;
        if !r.trusted && r.agreements >= threshold {
            r.trusted = true;
            return true;
        }
        false
    }

    /// Records that `client`'s result disagreed with a byte-identical
    /// quorum: its agreement streak resets and it goes back to being
    /// cross-checked. (Transport corruption deliberately does *not*
    /// land here — a bad link is the wire's fault, not the donor's.)
    /// Returns `true` when the donor was trusted and is hereby demoted.
    pub fn note_dispute(&mut self, client: ClientId) -> bool {
        let r = self.reputation.entry(client).or_default();
        r.disputes += 1;
        r.agreements = 0;
        std::mem::replace(&mut r.trusted, false)
    }

    /// Captures the reputation map for the checkpoint log.
    pub fn reputation_snapshot(&self) -> ReputationSnapshot {
        let mut clients: Vec<_> = self
            .reputation
            .iter()
            .map(|(&id, r)| (id, r.agreements, r.disputes, r.trusted))
            .collect();
        clients.sort_unstable_by_key(|&(id, ..)| id);
        ReputationSnapshot { clients }
    }

    /// Replaces the reputation map with a recovered snapshot. Entries
    /// claiming trust without the agreements to back it (e.g. after the
    /// threshold was raised between runs) are restored demoted.
    pub fn restore_reputation(&mut self, snap: &ReputationSnapshot) {
        let threshold = u64::from(self.cfg.reputation_threshold.max(1));
        self.reputation.clear();
        for &(id, agreements, disputes, trusted) in &snap.clients {
            self.reputation.insert(
                id,
                ReputationState {
                    agreements,
                    disputes,
                    trusted: trusted && agreements >= threshold,
                },
            );
        }
    }

    /// Every client with adaptive or reputation state (unordered, may repeat).
    pub fn known_clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.clients.keys().chain(self.reputation.keys()).copied()
    }

    /// Captures the adaptive state for the checkpoint log.
    pub fn snapshot(&self) -> SchedSnapshot {
        let mut clients: Vec<_> = self
            .clients
            .iter()
            .map(|(&id, st)| {
                let speed = st.throughput.value().unwrap_or(self.cfg.prior_ops_per_sec);
                (id, speed, st.units_completed)
            })
            .collect();
        clients.sort_unstable_by_key(|&(id, _, _)| id);
        SchedSnapshot { clients }
    }

    /// Replaces the adaptive state with a recovered snapshot. Entries
    /// with a non-finite or non-positive speed are dropped rather than
    /// poisoning the estimates (the audit would flag them otherwise).
    pub fn restore(&mut self, snap: &SchedSnapshot) {
        self.clients.clear();
        for &(id, speed, units) in &snap.clients {
            if !speed.is_finite() || speed <= 0.0 {
                continue;
            }
            let mut throughput = Ewma::new(self.cfg.ewma_alpha);
            throughput.update(speed);
            self.clients.insert(
                id,
                ClientState {
                    throughput,
                    units_completed: units,
                    ops_completed: 0.0,
                    queue_factor: 1.0,
                },
            );
        }
    }

    /// Audits the scheduler's internal invariants, returning one
    /// message per violation (empty = healthy). Checked by the chaos
    /// harness after every fault-injected run:
    ///
    /// * every tracked client's EWMA speed estimate is finite and
    ///   positive (a NaN or zero estimate would poison granularity and
    ///   lease sizing for the rest of the run);
    /// * every granularity hint lies inside the configured
    ///   `[min_unit_ops, max_unit_ops]` bounds.
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for (&id, state) in &self.clients {
            if let Some(speed) = state.throughput.value() {
                if !speed.is_finite() || speed <= 0.0 {
                    violations.push(format!(
                        "client {id}: EWMA speed estimate {speed} is not finite and positive"
                    ));
                }
            }
            let hint = self.granularity_hint(id);
            if !(hint >= self.cfg.min_unit_ops && hint <= self.cfg.max_unit_ops) {
                violations.push(format!(
                    "client {id}: granularity hint {hint} outside [{}, {}]",
                    self.cfg.min_unit_ops, self.cfg.max_unit_ops
                ));
            }
        }
        let threshold = u64::from(self.cfg.reputation_threshold.max(1));
        for (&id, r) in &self.reputation {
            if r.trusted && r.agreements < threshold {
                violations.push(format!(
                    "client {id}: trusted with only {} agreements (threshold {threshold})",
                    r.agreements
                ));
            }
        }
        for (&id, state) in &self.affinity {
            if state.order.len() != state.set.len() {
                violations.push(format!(
                    "client {id}: affinity order/set desynchronised ({} vs {})",
                    state.order.len(),
                    state.set.len()
                ));
            }
            if state.order.len() > self.cfg.affinity_capacity {
                violations.push(format!(
                    "client {id}: {} affinity entries exceed capacity {}",
                    state.order.len(),
                    self.cfg.affinity_capacity
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_client_gets_prior_based_hint() {
        let s = Scheduler::new(SchedulerConfig::default());
        let hint = s.granularity_hint(0);
        assert!((hint - 1.0e7 * 60.0).abs() < 1e-6);
    }

    #[test]
    fn fast_clients_get_bigger_units() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        // Client 1 observed at 2e7 ops/s, client 2 at 2e6 ops/s.
        for _ in 0..10 {
            s.record_completion(1, 2.0e7, 1.0, 1.0);
            s.record_completion(2, 2.0e6, 1.0, 1.0);
        }
        let h1 = s.granularity_hint(1);
        let h2 = s.granularity_hint(2);
        assert!(h1 > 5.0 * h2, "fast client hint {h1} vs slow {h2}");
    }

    #[test]
    fn a_deep_pipeline_depresses_neither_the_speed_estimate_nor_the_hint_and_the_lease_covers_it() {
        let cfg = SchedulerConfig {
            lease_min_secs: 0.0,
            lease_jitter_frac: 0.0,
            ..Default::default()
        };
        // Both donors compute 1e7 ops a second. Donor 1 holds one unit
        // ready while it computes another, as every donor always has: a
        // 1e7-op lease is out for 2 s and one other result arrives in
        // that time. Donor 2 runs 64 deep: its leases are out for 64 s.
        assert_eq!(Scheduler::queue_factor(1e7, 0, 0.0), 1.0);
        assert_eq!(
            Scheduler::queue_factor(1e7, 1, 3e7),
            1.0,
            "depth 2 is the baseline"
        );
        let deep_factor = Scheduler::queue_factor(1e7, 63, 63.0 * 1e7);
        assert_eq!(deep_factor, 32.0);
        let (mut shallow, mut deep) = (Scheduler::new(cfg.clone()), Scheduler::new(cfg));
        for _ in 0..20 {
            shallow.record_completion(1, 1e7, 2.0, 1.0);
            deep.record_completion(2, 1e7, 64.0, deep_factor);
        }
        let (s1, s2) = (shallow.estimated_speed(1), deep.estimated_speed(2));
        assert!((s1 - 5e6).abs() < 1.0, "a turnaround of two computes: {s1}");
        assert!((s2 - s1).abs() < 1.0, "the depth is divided out: {s2}");
        assert_eq!(shallow.granularity_hint(1), deep.granularity_hint(2));
        // lease_factor × the turnaround each donor actually shows.
        assert!((shallow.lease_deadline(1, 1e7, 0.0) - 4.0 * 2.0).abs() < 1e-6);
        assert!((deep.lease_deadline(2, 1e7, 0.0) - 4.0 * 64.0).abs() < 1e-6);
        // A big unit behind 63 small ones is timed by the work its
        // lease covered, not by the number of results ahead of it.
        assert_eq!(Scheduler::queue_factor(64e7, 63, 63.0 * 1e7), 1.0);
        assert_eq!(Scheduler::queue_factor(1e7, 2, 64e7), 32.5);
    }

    #[test]
    fn hints_respect_bounds() {
        let cfg = SchedulerConfig {
            min_unit_ops: 1e6,
            max_unit_ops: 5e6,
            ..Default::default()
        };
        let mut s = Scheduler::new(cfg);
        for _ in 0..5 {
            s.record_completion(1, 1e12, 1.0, 1.0); // absurdly fast
            s.record_completion(2, 1.0, 1.0, 1.0); // absurdly slow
        }
        assert_eq!(s.granularity_hint(1), 5e6);
        assert_eq!(s.granularity_hint(2), 1e6);
    }

    #[test]
    fn disabling_granularity_fixes_hint() {
        let cfg = SchedulerConfig {
            enable_dynamic_granularity: false,
            ..Default::default()
        };
        let mut s = Scheduler::new(cfg);
        for _ in 0..10 {
            s.record_completion(1, 1e9, 1.0, 1.0);
        }
        let hint = s.granularity_hint(1);
        assert!(
            (hint - 1.0e7 * 60.0).abs() < 1e-6,
            "hint must ignore history"
        );
    }

    #[test]
    fn disabling_adaptation_fixes_speed_estimates() {
        let cfg = SchedulerConfig {
            enable_adaptive: false,
            ..Default::default()
        };
        let mut s = Scheduler::new(cfg);
        s.record_completion(1, 1e9, 1.0, 1.0);
        assert_eq!(s.estimated_speed(1), 1.0e7);
    }

    #[test]
    fn ewma_adapts_to_slowdown() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        for _ in 0..10 {
            s.record_completion(1, 1e7, 1.0, 1.0); // 1e7 ops/s
        }
        let fast = s.estimated_speed(1);
        for _ in 0..10 {
            s.record_completion(1, 1e6, 1.0, 1.0); // drops to 1e6 ops/s
        }
        let slow = s.estimated_speed(1);
        assert!(slow < fast / 3.0, "estimate must chase the slowdown");
    }

    #[test]
    fn lease_deadline_scales_with_cost_and_respects_minimum() {
        let s = Scheduler::new(SchedulerConfig::default());
        // Prior speed 1e7: 1e9 ops ≈ 100 s est → lease 400 s.
        let d = s.lease_deadline(0, 1e9, 50.0);
        assert!((d - 450.0).abs() < 1e-6);
        // Tiny unit: the 120 s minimum applies.
        let d2 = s.lease_deadline(0, 1e3, 0.0);
        assert!((d2 - 120.0).abs() < 1e-6);
    }

    #[test]
    fn lease_backoff_doubles_then_clamps() {
        let s = Scheduler::new(SchedulerConfig::default());
        // Base lease for a tiny unit is the 120 s minimum.
        let base = s.lease_deadline_backed_off(&s.donor(0), 1e3, 0.0, 0);
        assert!((base - 120.0).abs() < 1e-9);
        assert!((s.lease_deadline_backed_off(&s.donor(0), 1e3, 0.0, 1) - 240.0).abs() < 1e-9);
        assert!((s.lease_deadline_backed_off(&s.donor(0), 1e3, 0.0, 2) - 480.0).abs() < 1e-9);
        // The doubling count clamps at max_backoff_doublings (6 → 64×).
        let capped = s.lease_deadline_backed_off(&s.donor(0), 1e3, 0.0, 6);
        assert!((capped - 120.0 * 64.0).abs() < 1e-9);
        assert_eq!(
            s.lease_deadline_backed_off(&s.donor(0), 1e3, 0.0, 1000),
            capped
        );
    }

    #[test]
    fn lease_backoff_never_overflows_or_grows_unbounded() {
        // Regression: the pre-refactor backoff computed `1u32 << n` with
        // an inline clamp; a configuration raising the clamp past 31
        // would have overflowed the shift, and nothing bounded the
        // resulting lease length. Both hazards are now clamped here.
        let s = Scheduler::new(SchedulerConfig {
            max_backoff_doublings: 200, // absurd config must still be safe
            ..Default::default()
        });
        for expiries in [0u32, 31, 32, 63, 64, 1_000, u32::MAX] {
            let d = s.lease_deadline_backed_off(&s.donor(0), 1e9, 1_000.0, expiries);
            assert!(
                d.is_finite(),
                "deadline must stay finite at {expiries} expiries"
            );
            assert!(
                d - 1_000.0 <= s.config().max_lease_secs + 1e-9,
                "lease {d} exceeds the absolute cap after {expiries} expiries"
            );
        }
        // The cap also bounds huge units on slow estimates.
        let mut slow = Scheduler::new(SchedulerConfig::default());
        for _ in 0..20 {
            slow.record_completion(7, 1.0, 1.0, 1.0); // ~1 op/s donor
        }
        let d = slow.lease_deadline_backed_off(&slow.donor(7), 1e12, 0.0, 6);
        assert!(d <= slow.config().max_lease_secs + 1e-9);
    }

    #[test]
    fn lease_jitter_spreads_deadlines_deterministically() {
        let s = Scheduler::new(SchedulerConfig::default());
        // Nominal lease for a tiny unit is the 120 s minimum; jittered
        // deadlines must stay within ±10 % of it and depend on the unit
        // id, so simultaneous assignments do not expire simultaneously.
        let nominal = s.lease_deadline_backed_off(&s.donor(0), 1e3, 0.0, 0);
        let deadlines: Vec<f64> = (0..16)
            .map(|unit| s.lease_deadline_jittered(&s.donor(0), 1e3, 0.0, 0, unit))
            .collect();
        for &d in &deadlines {
            assert!(
                (d - nominal).abs() <= 0.1 * nominal + 1e-9,
                "jittered deadline {d} strayed more than 10 % from {nominal}"
            );
        }
        let distinct: std::collections::HashSet<u64> =
            deadlines.iter().map(|d| d.to_bits()).collect();
        assert!(
            distinct.len() > 8,
            "jitter must spread same-instant deadlines, got {deadlines:?}"
        );
        // Pure function of the inputs: repeated calls agree exactly.
        for unit in 0..16 {
            assert_eq!(
                s.lease_deadline_jittered(&s.donor(0), 1e3, 0.0, 0, unit)
                    .to_bits(),
                deadlines[unit as usize].to_bits()
            );
        }
    }

    #[test]
    fn lease_jitter_respects_disable_and_absolute_cap() {
        let off = Scheduler::new(SchedulerConfig {
            lease_jitter_frac: 0.0,
            ..Default::default()
        });
        assert_eq!(
            off.lease_deadline_jittered(&off.donor(3), 1e9, 7.0, 2, 42)
                .to_bits(),
            off.lease_deadline_backed_off(&off.donor(3), 1e9, 7.0, 2)
                .to_bits(),
            "zero jitter must reproduce the nominal deadline exactly"
        );
        // Even with jitter, no lease may exceed the absolute cap.
        let s = Scheduler::new(SchedulerConfig {
            max_lease_secs: 500.0,
            ..Default::default()
        });
        for unit in 0..64 {
            let d = s.lease_deadline_jittered(&s.donor(0), 1e12, 100.0, 6, unit);
            assert!(d - 100.0 <= 500.0 + 1e-9, "lease {d} exceeds the cap");
        }
    }

    #[test]
    fn snapshot_restore_round_trips_adaptive_state() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        for _ in 0..10 {
            s.record_completion(1, 2.0e7, 1.0, 1.0);
            s.record_completion(2, 2.0e6, 1.0, 1.0);
        }
        let snap = s.snapshot();
        assert_eq!(snap.clients.len(), 2);

        let mut fresh = Scheduler::new(SchedulerConfig::default());
        fresh.restore(&snap);
        for c in [1, 2] {
            assert!(
                (fresh.estimated_speed(c) - s.estimated_speed(c)).abs()
                    < 1e-6 * s.estimated_speed(c),
                "client {c} speed estimate must survive the round trip"
            );
            assert_eq!(fresh.units_completed(c), s.units_completed(c));
        }
        assert!(fresh.audit().is_empty());
        // Snapshots are deterministic for identical state.
        assert_eq!(fresh.snapshot().clients.len(), snap.clients.len());

        // Poisoned entries are dropped, not restored.
        let mut bad = snap.clone();
        bad.clients.push((9, f64::NAN, 3));
        bad.clients.push((10, 0.0, 1));
        let mut guarded = Scheduler::new(SchedulerConfig::default());
        guarded.restore(&bad);
        assert_eq!(guarded.units_completed(9), 0);
        assert_eq!(guarded.units_completed(10), 0);
        assert!(guarded.audit().is_empty());
    }

    #[test]
    fn audit_is_clean_on_a_healthy_scheduler() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        for c in 0..4 {
            s.record_completion(c, 1e7, 1.0, 1.0);
        }
        assert!(s.audit().is_empty());
    }

    #[test]
    fn audit_flags_poisoned_speed_estimates() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.record_completion(3, f64::NAN, 1.0, 1.0);
        let violations = s.audit();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("client 3") && v.contains("EWMA")),
            "{violations:?}"
        );
    }

    #[test]
    fn redundancy_policy_caps_copies() {
        let s = Scheduler::new(SchedulerConfig::default());
        assert_eq!(s.copy_caps(false).0, 2);
        let naive = Scheduler::new(SchedulerConfig::naive());
        assert_eq!(naive.copy_caps(false).0, 0);
    }

    #[test]
    fn speculative_policy_extends_past_the_redundancy_cap() {
        let s = Scheduler::new(SchedulerConfig {
            enable_speculative_reissue: true,
            speculative_max_copies: 3,
            ..Default::default()
        });
        assert_eq!(s.copy_caps(false).0, 2, "plain redundancy caps at 2");
        assert_eq!(s.copy_caps(false).1, 3, "speculation allows a third");
        let off = Scheduler::new(SchedulerConfig::default());
        assert_eq!(off.copy_caps(false).1, 0, "off by default");
    }

    #[test]
    fn reputation_promotes_after_threshold_and_demotes_on_dispute() {
        let mut s = Scheduler::new(SchedulerConfig {
            quorum_k: 3,
            reputation_threshold: 3,
            ..Default::default()
        });
        assert!(s.quorum_enabled());
        assert_eq!(s.required_votes(), 2, "majority of 3 by default");
        assert_eq!(s.required_copies(7), 3, "unknown donors are cross-checked");
        assert!(!s.note_quorum_agreement(7));
        assert!(!s.note_quorum_agreement(7));
        assert!(s.note_quorum_agreement(7), "third agreement promotes");
        assert!(s.is_trusted(7));
        assert_eq!(s.required_copies(7), 1, "trusted donors single-issue");
        assert!(!s.note_quorum_agreement(7), "already promoted");
        assert!(s.note_dispute(7), "dispute demotes a trusted donor");
        assert!(!s.is_trusted(7));
        assert_eq!(s.reputation_counts(7), (0, 1), "streak resets");
        assert_eq!(s.required_copies(7), 3);
        assert!(!s.note_dispute(7), "already demoted");
        assert!(s.audit().is_empty());
    }

    #[test]
    fn quorum_vote_configuration_clamps_sanely() {
        let majority5 = Scheduler::new(SchedulerConfig {
            quorum_k: 5,
            ..Default::default()
        });
        assert_eq!(majority5.required_votes(), 3);
        let explicit = Scheduler::new(SchedulerConfig {
            quorum_k: 3,
            quorum_votes: 3,
            ..Default::default()
        });
        assert_eq!(explicit.required_votes(), 3);
        let over = Scheduler::new(SchedulerConfig {
            quorum_k: 3,
            quorum_votes: 9,
            ..Default::default()
        });
        assert_eq!(over.required_votes(), 3, "clamped to quorum_k");
        let disabled = Scheduler::new(SchedulerConfig::default());
        assert!(!disabled.quorum_enabled());
        assert_eq!(disabled.required_copies(0), 1);
    }

    #[test]
    fn reputation_snapshot_round_trips_and_guards_stale_trust() {
        let mut s = Scheduler::new(SchedulerConfig {
            quorum_k: 3,
            reputation_threshold: 2,
            ..Default::default()
        });
        s.note_quorum_agreement(1);
        s.note_quorum_agreement(1);
        s.note_dispute(2);
        let snap = s.reputation_snapshot();
        assert_eq!(snap.clients, vec![(1, 2, 0, true), (2, 0, 1, false)]);

        let mut fresh = Scheduler::new(SchedulerConfig {
            quorum_k: 3,
            reputation_threshold: 2,
            ..Default::default()
        });
        fresh.restore_reputation(&snap);
        assert!(fresh.is_trusted(1));
        assert_eq!(fresh.reputation_counts(2), (0, 1));
        assert_eq!(fresh.reputation_snapshot(), snap);
        assert!(fresh.audit().is_empty());

        // A raised threshold invalidates recorded trust on restore.
        let mut stricter = Scheduler::new(SchedulerConfig {
            quorum_k: 3,
            reputation_threshold: 10,
            ..Default::default()
        });
        stricter.restore_reputation(&snap);
        assert!(!stricter.is_trusted(1), "stale trust is demoted");
        assert!(stricter.audit().is_empty());
    }

    #[test]
    fn forget_client_clears_reputation() {
        let mut s = Scheduler::new(SchedulerConfig {
            quorum_k: 2,
            reputation_threshold: 1,
            ..Default::default()
        });
        s.note_quorum_agreement(4);
        assert!(s.is_trusted(4));
        s.forget_client(4);
        assert!(!s.is_trusted(4), "a rejoining id starts over untrusted");
        assert_eq!(s.reputation_counts(4), (0, 0));
    }

    #[test]
    fn forget_client_resets_history() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.record_completion(1, 1e9, 1.0, 1.0);
        assert_eq!(s.units_completed(1), 1);
        s.forget_client(1);
        assert_eq!(s.units_completed(1), 0);
        assert_eq!(s.estimated_speed(1), 1.0e7);
    }

    #[test]
    fn affinity_scores_count_held_digests() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.note_chunks(1, &[10, 20, 30]);
        s.note_chunks(2, &[30]);
        assert_eq!(s.affinity_score(1, &[10, 20, 99]), 2);
        assert_eq!(s.affinity_score(2, &[10, 20, 99]), 0);
        assert_eq!(s.affinity_score(3, &[10]), 0, "unknown client");
        assert!(s.audit().is_empty());
    }

    #[test]
    fn affinity_capacity_forgets_oldest_first() {
        let mut s = Scheduler::new(SchedulerConfig {
            affinity_capacity: 3,
            ..Default::default()
        });
        s.note_chunks(1, &[1, 2, 3, 4]);
        assert_eq!(s.affinity_entries(1), 3);
        assert_eq!(s.affinity_score(1, &[1]), 0, "oldest belief dropped");
        assert_eq!(s.affinity_score(1, &[2, 3, 4]), 3);
        // Duplicates never inflate the count.
        s.note_chunks(1, &[4, 4, 4]);
        assert_eq!(s.affinity_entries(1), 3);
        assert!(s.audit().is_empty());
    }

    #[test]
    fn disabling_affinity_zeroes_scores_and_tracks_nothing() {
        let mut s = Scheduler::new(SchedulerConfig {
            enable_affinity: false,
            ..Default::default()
        });
        s.note_chunks(1, &[10, 20]);
        assert_eq!(s.affinity_entries(1), 0);
        assert_eq!(s.affinity_score(1, &[10]), 0);
    }

    #[test]
    fn health_flag_zeroes_affinity_and_arms_live_speculation() {
        let mut s = Scheduler::new(SchedulerConfig {
            enable_health_detector: true,
            ..Default::default()
        });
        s.note_chunks(1, &[10, 20]);
        assert_eq!(s.affinity_score(1, &[10, 20]), 2);
        s.set_health_flag(1, true);
        assert!(s.is_health_flagged(1));
        assert_eq!(s.affinity_score(1, &[10, 20]), 0, "flagged loses affinity");
        // Live speculation shares the speculative ceiling but does not
        // require enable_speculative_reissue.
        assert_eq!(s.copy_caps(true).1, 3);
        assert_eq!(s.copy_caps(false).1, 0, "tail path stays off");
        s.set_health_flag(1, false);
        assert_eq!(s.affinity_score(1, &[10, 20]), 2, "clearing restores it");
        s.set_health_flag(1, true);
        s.forget_client(1);
        assert!(!s.is_health_flagged(1), "departure clears the flag");

        let off = Scheduler::new(SchedulerConfig::default());
        assert_eq!(
            off.copy_caps(true).1,
            0,
            "detector off disarms the live path entirely"
        );
    }

    #[test]
    fn affinity_snapshot_round_trips_and_forget_clears() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.note_chunks(2, &[5, 6]);
        s.note_chunks(1, &[7]);
        let snap = s.affinity_snapshot();
        assert_eq!(
            snap.clients,
            vec![(1, vec![7]), (2, vec![5, 6])],
            "sorted by client, digests in insertion order"
        );
        let mut fresh = Scheduler::new(SchedulerConfig::default());
        fresh.restore_affinity(&snap);
        assert_eq!(fresh.affinity_snapshot(), snap);
        assert_eq!(fresh.affinity_score(2, &[5, 6]), 2);
        fresh.forget_client(2);
        assert_eq!(fresh.affinity_entries(2), 0, "departure clears beliefs");
        assert!(fresh.audit().is_empty());
    }
}
