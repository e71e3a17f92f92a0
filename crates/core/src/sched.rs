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
//!    and the lease price.
//! 3. **Fault tolerance / end-game** — units leased to a donor carry a
//!    deadline; expired leases are reissued (donor churn), and when a
//!    problem has no fresh units left, in-flight units are redundantly
//!    dispatched to idle donors so one slow machine cannot stall the
//!    tail (first result wins).
//!
//! What the scheduler knows about a donor is one record (`DonorState`:
//! its speed estimate and deliveries) in one map, read with one lookup
//! ([`Scheduler::donor`]) and checkpointed as one [`DonorSnapshot`].
//! The speed estimate is the only one there is: a slow or vanished
//! donor is dealt with by the lease it is priced at and by the
//! end-game, never by a second watch on its pace.

use crate::problem::UnitId;
use crate::telemetry::Telemetry;
use biodist_util::rng::{Rng, SplitMix64};
use biodist_util::stats::Ewma;
use std::collections::HashMap;

/// Identifies a donor machine / client.
pub type ClientId = usize;

/// EWMA smoothing for client throughput estimates.
const EWMA_ALPHA: f64 = 0.3;
/// Lease duration as a multiple of the unit's estimated service time
/// (expired leases are reissued).
const LEASE_FACTOR: f64 = 4.0;
/// Each expiry of a unit's lease doubles the next one, this many times
/// at most (see [`Scheduler::lease_deadline_backed_off`]).
const MAX_BACKOFF_DOUBLINGS: u32 = 6;
/// Absolute ceiling on any lease duration, seconds. Bounds the
/// exponential backoff so a unit with a wildly wrong cost estimate can
/// never be parked on one donor for an unbounded time.
pub(crate) const MAX_LEASE_SECS: f64 = 86_400.0;
/// Fractional jitter on lease durations: the deadline the server uses
/// is spread over `±frac` of the nominal lease so a batch of units
/// assigned in the same instant does not expire in the same instant and
/// thundering-herd the reissue queue.
const LEASE_JITTER_FRAC: f64 = 0.1;
/// Simultaneous executions of one unit under redundant dispatch.
const MAX_REDUNDANCY: u32 = 2;

/// Scheduler tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Target service time per unit, in seconds.
    pub target_unit_secs: f64,
    /// Smallest unit the granularity control may request, in ops.
    pub min_unit_ops: f64,
    /// Largest unit the granularity control may request, in ops.
    pub max_unit_ops: f64,
    /// Throughput prior for clients with no history (ops/second).
    pub prior_ops_per_sec: f64,
    /// Minimum absolute lease duration, seconds.
    pub lease_min_secs: f64,
    /// Size each donor's units and price its leases from its measured
    /// speed (off = every donor is taken to run at `prior_ops_per_sec`,
    /// so every hint is `prior_ops_per_sec × target_unit_secs`).
    pub enable_adaptive: bool,
    /// Enable redundant end-game dispatch of in-flight units.
    pub enable_redundant_dispatch: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            target_unit_secs: 60.0,
            min_unit_ops: 1e5,
            max_unit_ops: 1e10,
            prior_ops_per_sec: 1.0e7, // one PIII-1000 (gridsim scale)
            lease_min_secs: 120.0,
            enable_adaptive: true,
            enable_redundant_dispatch: true,
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
            enable_adaptive: false,
            enable_redundant_dispatch: false,
            ..Self::default()
        }
    }
}

// Everything the scheduler holds on one donor, from its first
// completion on: what its snapshot row lists, and what a lease to it is
// sized and priced from.
#[derive(Debug, Clone)]
struct DonorState {
    throughput: Ewma,
    units_completed: u64,
    /// Total cost of the units completed, in ops.
    ops_completed: f64,
    /// [`Scheduler::queue_factor`] of the last completion: how much
    /// longer than one unit's service this donor's leases stay out.
    queue_factor: f64,
}

impl DonorState {
    fn new() -> Self {
        Self {
            throughput: Ewma::new(EWMA_ALPHA),
            units_completed: 0,
            ops_completed: 0.0,
            queue_factor: 1.0,
        }
    }
}

/// One donor's row of a [`DonorSnapshot`]: the parts of its record
/// the checkpoint log carries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DonorRow {
    /// The donor.
    pub client: ClientId,
    /// Estimated ops/second and units completed, once it has completed
    /// a unit.
    pub adaptive: Option<(f64, u64)>,
}

/// A plain-data snapshot of every donor record, written to the
/// checkpoint log so a restarted server resumes with warm speed
/// estimates instead of the cold prior.
///
/// Only the current EWMA value survives, not the full observation
/// history: after recovery the estimate re-converges from that value at
/// the usual smoothing, which is exactly the behaviour of a
/// freshly-observed client at that speed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DonorSnapshot {
    /// One row per donor, sorted by client id so
    /// snapshots are byte-stable for a given state.
    pub donors: Vec<DonorRow>,
}

/// What the scheduler holds on one donor, looked up once
/// ([`Scheduler::donor`]) for however many units a turn leases it, or
/// for its row of the status view.
#[derive(Debug, Clone, Copy)]
pub struct Donor {
    /// The donor.
    pub client: ClientId,
    /// The granularity hint for its next unit, in ops.
    pub hint: f64,
    /// Its estimated throughput in ops/second.
    pub speed: f64,
    /// Units it has completed, and their total cost in ops (both start
    /// over when it is forgotten).
    pub completed: (u64, f64),
    // The last completion's queue factor: with the speed, what a lease
    // is priced from.
    queue_factor: f64,
}

/// The scheduler: client statistics + policy decisions.
///
/// The scheduler is deliberately free of any I/O or clock source; both
/// backends feed it observations and query decisions.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    donors: HashMap<ClientId, DonorState>,
}

impl Scheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: SchedulerConfig) -> Self {
        assert!(
            cfg.target_unit_secs > 0.0,
            "target unit time must be positive"
        );
        assert!(cfg.min_unit_ops > 0.0 && cfg.min_unit_ops <= cfg.max_unit_ops);
        Self {
            cfg,
            donors: HashMap::new(),
        }
    }

    /// Everything a lease to `client` is sized, priced and booked from:
    /// one lookup.
    pub fn donor(&self, client: ClientId) -> Donor {
        let cfg = &self.cfg;
        let history = self.donors.get(&client);
        // Its measured EWMA, or the prior before any completion (or with
        // adaptation off).
        let measured = history.filter(|_| cfg.enable_adaptive);
        let measured = measured.and_then(|c| c.throughput.value());
        let speed = measured.unwrap_or(cfg.prior_ops_per_sec);
        Donor {
            client,
            hint: (speed * cfg.target_unit_secs).clamp(cfg.min_unit_ops, cfg.max_unit_ops),
            speed,
            completed: history.map_or((0, 0.0), |c| (c.units_completed, c.ops_completed)),
            queue_factor: history.map_or(1.0, |c| c.queue_factor),
        }
    }

    /// Lease deadline for a unit of `cost_ops` assigned to `donor` at
    /// time `now`, with exponential backoff: every prior expiry of the
    /// unit doubles the lease, so a unit whose true cost exceeds the
    /// estimate converges instead of bouncing between reissue and the
    /// same slow donor forever.
    ///
    /// The growth is clamped twice: at most six doublings, and the
    /// resulting duration never exceeds a day (`MAX_LEASE_SECS`).
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
        let base = (est * LEASE_FACTOR).max(self.cfg.lease_min_secs);
        let factor = f64::from(1u32 << prior_expiries.min(MAX_BACKOFF_DOUBLINGS));
        now + (base * factor).min(MAX_LEASE_SECS)
    }

    /// [`Scheduler::lease_deadline_backed_off`] with deterministic
    /// per-unit jitter: the lease duration is scaled by a factor in
    /// `[1 − jitter, 1 + jitter)` (`LEASE_JITTER_FRAC`) drawn from a
    /// stateless hash of `(client, unit, prior_expiries)` — no
    /// generator state. Units assigned in the same scheduling instant
    /// therefore expire spread out instead of stampeding
    /// `check_timeouts` at once, and the same tuple always jitters the
    /// same way on every backend, regardless of call order.
    pub fn lease_deadline_jittered(
        &self,
        donor: &Donor,
        cost_ops: f64,
        now: f64,
        prior_expiries: u32,
        unit: UnitId,
    ) -> f64 {
        let nominal = self.lease_deadline_backed_off(donor, cost_ops, now, prior_expiries);
        let mut h = SplitMix64::new(
            (donor.client as u64).wrapping_mul(0xA24B_AED4_963E_E407)
                ^ unit.wrapping_mul(0x1000_0000_01B3)
                ^ u64::from(prior_expiries).wrapping_mul(0xCBF2_9CE4_8422_2325),
        );
        let spread = 1.0 + LEASE_JITTER_FRAC * (2.0 * h.next_f64() - 1.0);
        now + ((nominal - now) * spread).min(MAX_LEASE_SECS)
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

    /// Records every `(cost_ops, elapsed_secs, queue_factor)` of one
    /// donor's turn, in order, with the donor's record looked up once:
    /// `cost_ops` of work whose lease was out for `elapsed_secs` on
    /// `client`, `queue_factor` times the unit's own service
    /// ([`Scheduler::queue_factor`]; 1 for a donor that does not
    /// pipeline beyond one unit ahead).
    pub fn record_completions(
        &mut self,
        client: ClientId,
        completions: impl IntoIterator<Item = (f64, f64, f64)>,
    ) {
        let mut completions = completions.into_iter().peekable();
        if completions.peek().is_none() {
            return;
        }
        let state = self.donors.entry(client).or_insert_with(DonorState::new);
        for (cost_ops, elapsed_secs, queue_factor) in completions {
            state.queue_factor = queue_factor;
            let elapsed = elapsed_secs.max(1e-9);
            state.throughput.update(cost_ops * queue_factor / elapsed);
            state.units_completed += 1;
            state.ops_completed += cost_ops;
        }
    }

    /// Forgets a client (it left the pool): a donor id that rejoins
    /// after departure starts over as an unknown donor.
    pub fn forget_client(&mut self, client: ClientId) {
        self.donors.remove(&client);
    }

    /// Publishes `client`'s adaptive state as telemetry gauges
    /// (`sched.ops_per_sec.c<id>`, `sched.units_completed.c<id>`). The
    /// server calls this once per turn that recorded a completion; a
    /// disabled handle makes it free.
    pub fn export_client_metrics(&self, client: ClientId, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        let donor = self.donor(client);
        telemetry.gauge_set(&format!("sched.ops_per_sec.c{client}"), donor.speed);
        telemetry.gauge_set(
            &format!("sched.units_completed.c{client}"),
            donor.completed.0 as f64,
        );
    }

    /// The most copies of one unit the end-game may have out at once
    /// (0: redundant dispatch is off, and it grants none).
    pub fn copy_cap(&self) -> u32 {
        if self.cfg.enable_redundant_dispatch {
            MAX_REDUNDANCY
        } else {
            0
        }
    }

    /// Every donor with a record: a recorded completion or a restored
    /// row (unordered).
    pub fn known_clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.donors.keys().copied()
    }

    /// Captures every donor record for the checkpoint log.
    pub fn snapshot(&self) -> DonorSnapshot {
        let prior = self.cfg.prior_ops_per_sec;
        let rows = self.donors.iter().map(|(&client, st)| DonorRow {
            client,
            adaptive: Some((st.throughput.value().unwrap_or(prior), st.units_completed)),
        });
        let mut donors: Vec<_> = rows.collect();
        donors.sort_unstable_by_key(|r| r.client);
        DonorSnapshot { donors }
    }

    /// Replaces every donor record with a recovered snapshot. A
    /// non-finite or non-positive speed is dropped rather than poisoning
    /// the estimates (the audit would flag it otherwise).
    pub fn restore(&mut self, snap: &DonorSnapshot) {
        self.donors.clear();
        let sound = |&(speed, _): &(f64, u64)| speed.is_finite() && speed > 0.0;
        for row in &snap.donors {
            if let Some((speed, units)) = row.adaptive.filter(sound) {
                let mut state = DonorState::new();
                state.throughput.update(speed);
                state.units_completed = units;
                self.donors.insert(row.client, state);
            }
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
        for (&id, state) in &self.donors {
            if let Some(speed) = state.throughput.value() {
                if !speed.is_finite() || speed <= 0.0 {
                    violations.push(format!(
                        "client {id}: EWMA speed estimate {speed} is not finite and positive"
                    ));
                }
            }
            let hint = self.donor(id).hint;
            if !(hint >= self.cfg.min_unit_ops && hint <= self.cfg.max_unit_ops) {
                violations.push(format!(
                    "client {id}: granularity hint {hint} outside [{}, {}]",
                    self.cfg.min_unit_ops, self.cfg.max_unit_ops
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
        let hint = s.donor(0).hint;
        assert!((hint - 1.0e7 * 60.0).abs() < 1e-6);
    }

    #[test]
    fn fast_clients_get_bigger_units() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        // Client 1 observed at 2e7 ops/s, client 2 at 2e6 ops/s.
        for _ in 0..10 {
            s.record_completions(1, [(2.0e7, 1.0, 1.0)]);
            s.record_completions(2, [(2.0e6, 1.0, 1.0)]);
        }
        let h1 = s.donor(1).hint;
        let h2 = s.donor(2).hint;
        assert!(h1 > 5.0 * h2, "fast client hint {h1} vs slow {h2}");
    }

    #[test]
    fn a_deep_pipeline_depresses_neither_the_speed_estimate_nor_the_hint_and_the_lease_covers_it() {
        let cfg = SchedulerConfig {
            lease_min_secs: 0.0,
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
            shallow.record_completions(1, [(1e7, 2.0, 1.0)]);
            deep.record_completions(2, [(1e7, 64.0, deep_factor)]);
        }
        let (s1, s2) = (shallow.donor(1).speed, deep.donor(2).speed);
        assert!((s1 - 5e6).abs() < 1.0, "a turnaround of two computes: {s1}");
        assert!((s2 - s1).abs() < 1.0, "the depth is divided out: {s2}");
        assert_eq!(shallow.donor(1).hint, deep.donor(2).hint);
        // LEASE_FACTOR × the turnaround each donor actually shows.
        assert!(
            (shallow.lease_deadline_backed_off(&shallow.donor(1), 1e7, 0.0, 0) - 4.0 * 2.0).abs()
                < 1e-6
        );
        assert!(
            (deep.lease_deadline_backed_off(&deep.donor(2), 1e7, 0.0, 0) - 4.0 * 64.0).abs() < 1e-6
        );
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
            s.record_completions(1, [(1e12, 1.0, 1.0)]); // absurdly fast
            s.record_completions(2, [(1.0, 1.0, 1.0)]); // absurdly slow
        }
        assert_eq!(s.donor(1).hint, 5e6);
        assert_eq!(s.donor(2).hint, 1e6);
    }

    #[test]
    fn disabling_adaptation_fixes_hint_and_speed_at_the_prior() {
        let cfg = SchedulerConfig {
            enable_adaptive: false,
            ..Default::default()
        };
        let mut s = Scheduler::new(cfg);
        for _ in 0..10 {
            s.record_completions(1, [(1e9, 1.0, 1.0)]);
        }
        let donor = s.donor(1);
        assert_eq!(donor.hint, 1.0e7 * 60.0, "the hint ignores history");
        assert_eq!(donor.speed, 1.0e7, "and so does the speed");
    }

    #[test]
    fn ewma_adapts_to_slowdown() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        for _ in 0..10 {
            s.record_completions(1, [(1e7, 1.0, 1.0)]); // 1e7 ops/s
        }
        let fast = s.donor(1).speed;
        for _ in 0..10 {
            s.record_completions(1, [(1e6, 1.0, 1.0)]); // drops to 1e6 ops/s
        }
        let slow = s.donor(1).speed;
        assert!(slow < fast / 3.0, "estimate must chase the slowdown");
    }

    #[test]
    fn lease_deadline_scales_with_cost_and_respects_minimum() {
        let s = Scheduler::new(SchedulerConfig::default());
        // Prior speed 1e7: 1e9 ops ≈ 100 s est → lease 400 s.
        let d = s.lease_deadline_backed_off(&s.donor(0), 1e9, 50.0, 0);
        assert!((d - 450.0).abs() < 1e-6);
        // Tiny unit: the 120 s minimum applies.
        let d2 = s.lease_deadline_backed_off(&s.donor(0), 1e3, 0.0, 0);
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
        // The doubling count clamps at MAX_BACKOFF_DOUBLINGS (6 → 64×).
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
        // an inline clamp, and nothing bounded the resulting lease
        // length. Both hazards are now clamped here.
        let s = Scheduler::new(SchedulerConfig::default());
        for expiries in [0u32, 31, 32, 63, 64, 1_000, u32::MAX] {
            let d = s.lease_deadline_backed_off(&s.donor(0), 1e9, 1_000.0, expiries);
            assert!(
                d.is_finite(),
                "deadline must stay finite at {expiries} expiries"
            );
            assert!(
                d - 1_000.0 <= MAX_LEASE_SECS + 1e-9,
                "lease {d} exceeds the absolute cap after {expiries} expiries"
            );
        }
        // The cap also bounds huge units on slow estimates.
        let mut slow = Scheduler::new(SchedulerConfig::default());
        for _ in 0..20 {
            slow.record_completions(7, [(1.0, 1.0, 1.0)]); // ~1 op/s donor
        }
        let d = slow.lease_deadline_backed_off(&slow.donor(7), 1e12, 0.0, 6);
        assert!(d <= MAX_LEASE_SECS + 1e-9);
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
    fn lease_jitter_respects_the_absolute_cap() {
        // 1e12 ops at the prior is a 4e5 s lease before any doubling:
        // the nominal lease sits at the cap, and jitter may not lift it.
        let s = Scheduler::new(SchedulerConfig::default());
        for unit in 0..64 {
            let d = s.lease_deadline_jittered(&s.donor(0), 1e12, 100.0, 6, unit);
            assert!(
                d - 100.0 <= MAX_LEASE_SECS + 1e-9,
                "lease {d} exceeds the cap"
            );
        }
    }

    #[test]
    fn snapshot_restore_round_trips_adaptive_state() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        for _ in 0..10 {
            s.record_completions(1, [(2.0e7, 1.0, 1.0)]);
            s.record_completions(2, [(2.0e6, 1.0, 1.0)]);
        }
        let snap = s.snapshot();
        assert_eq!(snap.donors.len(), 2);

        let mut fresh = Scheduler::new(SchedulerConfig::default());
        fresh.restore(&snap);
        for c in [1, 2] {
            assert!(
                (fresh.donor(c).speed - s.donor(c).speed).abs() < 1e-6 * s.donor(c).speed,
                "client {c} speed estimate must survive the round trip"
            );
            assert_eq!(fresh.donor(c).completed.0, s.donor(c).completed.0);
        }
        assert!(fresh.audit().is_empty());
        // Rows are sorted by client, and a restored scheduler snapshots
        // exactly what it was restored from.
        let clients: Vec<_> = snap.donors.iter().map(|r| r.client).collect();
        assert_eq!(clients, vec![1, 2]);
        assert_eq!(fresh.snapshot(), snap);

        // Poisoned entries are dropped, not restored.
        let mut bad = snap.clone();
        for (client, speed, units) in [(9, f64::NAN, 3), (10, 0.0, 1)] {
            bad.donors.push(DonorRow {
                client,
                adaptive: Some((speed, units)),
            });
        }
        let mut guarded = Scheduler::new(SchedulerConfig::default());
        guarded.restore(&bad);
        assert_eq!(guarded.donor(9).completed.0, 0);
        assert_eq!(guarded.donor(10).completed.0, 0);
        assert!(guarded.audit().is_empty());
    }

    #[test]
    fn audit_is_clean_on_a_healthy_scheduler() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        for c in 0..4 {
            s.record_completions(c, [(1e7, 1.0, 1.0)]);
        }
        assert!(s.audit().is_empty());
    }

    #[test]
    fn audit_flags_poisoned_speed_estimates() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.record_completions(3, [(f64::NAN, 1.0, 1.0)]);
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
        assert_eq!(s.copy_cap(), 2);
        let naive = Scheduler::new(SchedulerConfig::naive());
        assert_eq!(naive.copy_cap(), 0);
    }

    #[test]
    fn forget_client_resets_history() {
        let mut s = Scheduler::new(SchedulerConfig::default());
        s.record_completions(1, [(1e9, 1.0, 1.0)]);
        assert_eq!(s.donor(1).completed.0, 1);
        s.forget_client(1);
        assert_eq!(s.donor(1).completed.0, 0);
        assert_eq!(s.donor(1).speed, 1.0e7);
    }
}
