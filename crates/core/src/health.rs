//! Streaming donor-health engine (the live ops plane's detector).
//!
//! Each accepted result yields one *normalized service-time*
//! observation for its donor: observed turnaround divided by the
//! turnaround the donor's estimated speed predicts (≈ 1.0 for a
//! machine behaving like its own track record, regardless of how fast
//! that track record is). The engine keeps two EWMAs per donor — a
//! fast one tracking recent behaviour and a slow baseline seeded at
//! the healthy prior — and flags a donor as a straggler when the
//! recent-over-baseline ratio crosses a threshold. Flags clear with
//! hysteresis once the ratio recovers.
//!
//! The design deliberately separates *slow* from *anomalous*: an
//! honest-but-slow machine has a high absolute service time but a
//! normalized ratio near 1.0 (its speed estimate already prices the
//! slowness in), so it is never flagged; a machine that suddenly takes
//! 10× its own predicted time is flagged within a few observations.
//! Folding@Home's operational lesson — monitor and adapt to donors
//! *while the run is live* — is exactly this loop: the scheduler
//! deprioritizes flagged donors for affinity placement and arms
//! speculative re-issue of the units they hold.
//!
//! Everything here is a pure function of the observation sequence: no
//! clocks, no randomness, so the detector is deterministic under the
//! sim backend and property-testable under a seed.
//!
//! In a running farm the engine belongs to the scheduler
//! ([`crate::sched::Scheduler`] builds one when `enable_health_detector`
//! is set): every recorded completion is one observation, and the
//! engine's flag is the one the scheduler's decisions read.

use crate::sched::ClientId;
use crate::telemetry::{Histogram, Telemetry};
use biodist_util::stats::Ewma;
use std::collections::BTreeMap;

/// Histogram bounds for normalized service-time ratios (dimensionless;
/// 1.0 = exactly as predicted).
pub const RATIO_BOUNDS: &[f64] = &[
    0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0,
];

/// EWMA smoothing for the fast (recent-behaviour) estimate.
const ALPHA_FAST: f64 = 0.5;
/// EWMA smoothing for the slow baseline estimate.
const ALPHA_BASELINE: f64 = 0.05;
/// Where the baseline starts before any observation (1.0 = "takes
/// exactly as long as its speed predicts").
const BASELINE_PRIOR: f64 = 1.0;

/// Flag a donor when `fast / baseline` reaches this ratio.
pub const STRAGGLER_RATIO: f64 = 3.0;
/// Clear a flagged donor when the ratio falls back to this value.
const CLEAR_RATIO: f64 = 1.5;
/// Observations required before a donor may be flagged (guards against
/// flagging on startup noise).
const MIN_OBSERVATIONS: u64 = 3;

// Hysteresis: a donor hovering at one ratio must not flap between
// flagged and cleared.
const _: () = assert!(1.0 < CLEAR_RATIO && CLEAR_RATIO < STRAGGLER_RATIO);

/// A flag state change produced by [`HealthEngine::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthTransition {
    /// The donor just crossed the straggler threshold.
    Flagged {
        /// Recent-over-baseline ratio at the moment of flagging.
        ratio: f64,
    },
    /// A previously flagged donor recovered below the clear threshold.
    Cleared {
        /// Recent-over-baseline ratio at the moment of clearing.
        ratio: f64,
    },
}

#[derive(Debug, Clone)]
struct DonorHealth {
    fast: Ewma,
    baseline: f64,
    observations: u64,
    flagged: bool,
    hist: Histogram,
}

/// Per-donor streaming health state (see module docs).
#[derive(Debug)]
pub struct HealthEngine {
    donors: BTreeMap<ClientId, DonorHealth>,
    pool: Histogram,
    flagged_total: u64,
    cleared_total: u64,
}

impl Default for HealthEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthEngine {
    /// Creates an engine that has seen no observation.
    pub fn new() -> Self {
        Self {
            donors: BTreeMap::new(),
            pool: Histogram::new(RATIO_BOUNDS),
            flagged_total: 0,
            cleared_total: 0,
        }
    }

    /// Feeds one normalized service-time observation (observed
    /// turnaround ÷ predicted turnaround) for `client` and returns the
    /// flag transition it caused, if any. Non-finite or non-positive
    /// observations are dropped — a poisoned latency must not poison
    /// the detector.
    pub fn observe(&mut self, client: ClientId, normalized: f64) -> Option<HealthTransition> {
        if !normalized.is_finite() || normalized <= 0.0 {
            return None;
        }
        let d = self.donors.entry(client).or_insert_with(|| DonorHealth {
            fast: Ewma::new(ALPHA_FAST),
            baseline: BASELINE_PRIOR,
            observations: 0,
            flagged: false,
            hist: Histogram::new(RATIO_BOUNDS),
        });
        d.observations += 1;
        let fast = d.fast.update(normalized);
        // The baseline freezes while the donor is flagged: a persistent
        // straggler must not teach the detector that stragglerhood is
        // normal and silently clear its own flag.
        if !d.flagged {
            d.baseline += ALPHA_BASELINE * (normalized - d.baseline);
        }
        d.hist.observe(normalized);
        self.pool.observe(normalized);
        let ratio = fast / d.baseline.max(f64::MIN_POSITIVE);
        if !d.flagged && d.observations >= MIN_OBSERVATIONS && ratio >= STRAGGLER_RATIO {
            d.flagged = true;
            self.flagged_total += 1;
            return Some(HealthTransition::Flagged { ratio });
        }
        if d.flagged && ratio <= CLEAR_RATIO {
            d.flagged = false;
            self.cleared_total += 1;
            return Some(HealthTransition::Cleared { ratio });
        }
        None
    }

    /// Whether `client` is currently flagged.
    pub fn is_flagged(&self, client: ClientId) -> bool {
        self.donors.get(&client).is_some_and(|d| d.flagged)
    }

    /// Currently flagged donors, sorted by id.
    pub fn flagged_clients(&self) -> Vec<ClientId> {
        self.donors
            .iter()
            .filter(|(_, d)| d.flagged)
            .map(|(&c, _)| c)
            .collect()
    }

    /// Number of currently flagged donors.
    pub fn flagged_count(&self) -> usize {
        self.donors.values().filter(|d| d.flagged).count()
    }

    /// Lifetime `(flagged, cleared)` transition counts.
    pub fn transition_counts(&self) -> (u64, u64) {
        (self.flagged_total, self.cleared_total)
    }

    /// `client`'s current recent-over-baseline ratio (`None` before the
    /// first observation).
    pub fn ratio(&self, client: ClientId) -> Option<f64> {
        let d = self.donors.get(&client)?;
        Some(d.fast.value()? / d.baseline.max(f64::MIN_POSITIVE))
    }

    /// Observations recorded for `client`.
    pub fn observations(&self, client: ClientId) -> u64 {
        self.donors.get(&client).map_or(0, |d| d.observations)
    }

    /// Drops all state for `client` (it left the pool; a rejoining id
    /// starts over unflagged — the lease/reissue machinery already
    /// covers a fresh donor misbehaving).
    pub fn forget(&mut self, client: ClientId) {
        self.donors.remove(&client);
    }

    /// Streaming quantile of the pool-wide normalized service-time
    /// distribution (`None` before any observation).
    pub fn pool_quantile(&self, q: f64) -> Option<f64> {
        self.pool.quantile(q)
    }

    /// Streaming quantile of one donor's normalized service times.
    pub fn donor_quantile(&self, client: ClientId, q: f64) -> Option<f64> {
        self.donors.get(&client)?.hist.quantile(q)
    }

    /// Publishes the engine's state as `health.*` metrics: flag
    /// counters, the pool p50/p95/p99, and a per-donor ratio gauge.
    pub fn export_metrics(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.gauge_set("health.flagged_current", self.flagged_count() as f64);
        for q in [0.50, 0.95, 0.99] {
            if let Some(v) = self.pool_quantile(q) {
                telemetry.gauge_set(&format!("health.pool_p{:02}", (q * 100.0) as u32), v);
            }
        }
        for (&c, d) in &self.donors {
            if let Some(fast) = d.fast.value() {
                telemetry.gauge_set(
                    &format!("health.ratio.c{c}"),
                    fast / d.baseline.max(f64::MIN_POSITIVE),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_but_slow_donor_is_never_flagged() {
        // A slow machine whose speed estimate prices the slowness in
        // produces normalized observations near 1.0 forever.
        let mut h = HealthEngine::new();
        for i in 0..200 {
            let wobble = 1.0 + 0.1 * ((i % 7) as f64 - 3.0) / 3.0;
            assert_eq!(h.observe(5, wobble), None, "observation {i}");
        }
        assert!(!h.is_flagged(5));
        assert_eq!(h.transition_counts(), (0, 0));
    }

    #[test]
    fn sudden_straggler_is_flagged_then_clears_with_hysteresis() {
        let mut h = HealthEngine::new();
        for _ in 0..10 {
            assert_eq!(h.observe(1, 1.0), None);
        }
        // 10× slowdown: flagged within a few observations.
        let mut flagged_at = None;
        for i in 0..10 {
            if let Some(HealthTransition::Flagged { ratio }) = h.observe(1, 10.0) {
                assert!(ratio >= 3.0);
                flagged_at = Some(i);
                break;
            }
        }
        assert!(
            flagged_at.is_some_and(|i| i < 5),
            "10x straggler must be flagged quickly, got {flagged_at:?}"
        );
        assert!(h.is_flagged(1));
        assert_eq!(h.flagged_clients(), vec![1]);
        // Recovery: the ratio must fall below clear_ratio (1.5), not
        // merely below the flag threshold.
        let mut cleared = false;
        for _ in 0..20 {
            if let Some(HealthTransition::Cleared { ratio }) = h.observe(1, 1.0) {
                assert!(ratio <= 1.5);
                cleared = true;
                break;
            }
        }
        assert!(cleared, "recovered donor must clear");
        assert!(!h.is_flagged(1));
        assert_eq!(h.transition_counts(), (1, 1));
    }

    #[test]
    fn slow_from_the_start_counts_as_straggling() {
        // The baseline prior is 1.0: a donor whose very first
        // observations run 10× the predicted time diverges from the
        // prior, not from its own (nonexistent) history.
        let mut h = HealthEngine::new();
        let mut flagged = false;
        for _ in 0..6 {
            if matches!(h.observe(2, 10.0), Some(HealthTransition::Flagged { .. })) {
                flagged = true;
            }
        }
        assert!(flagged, "10x-from-birth donor must be flagged");
    }

    #[test]
    fn min_observations_guards_startup_noise() {
        let mut h = HealthEngine::new();
        for i in 1..MIN_OBSERVATIONS {
            assert_eq!(h.observe(3, 10.0), None, "observation {i} is too early");
        }
        assert!(matches!(
            h.observe(3, 10.0),
            Some(HealthTransition::Flagged { .. })
        ));
    }

    #[test]
    fn poisoned_observations_are_dropped() {
        let mut h = HealthEngine::new();
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            assert_eq!(h.observe(4, bad), None);
        }
        assert_eq!(h.observations(4), 0);
        assert_eq!(h.pool_quantile(0.5), None);
    }

    #[test]
    fn quantiles_stream_from_the_fixed_buckets() {
        let mut h = HealthEngine::new();
        for _ in 0..90 {
            h.observe(1, 1.0);
        }
        for _ in 0..10 {
            h.observe(2, 10.0);
        }
        let p50 = h.pool_quantile(0.5).expect("observed");
        let p99 = h.pool_quantile(0.99).expect("observed");
        assert!(p50 < 1.5, "median sits in the healthy buckets: {p50}");
        assert!(p99 > 5.0, "tail sees the straggler: {p99}");
        assert!(h.donor_quantile(2, 0.5).expect("donor 2") > 5.0);
        assert_eq!(h.donor_quantile(9, 0.5), None);
    }

    #[test]
    fn forget_resets_a_donor() {
        let mut h = HealthEngine::new();
        for _ in 0..10 {
            h.observe(1, 10.0);
        }
        assert!(h.is_flagged(1));
        h.forget(1);
        assert!(!h.is_flagged(1));
        assert_eq!(h.observations(1), 0);
        assert_eq!(h.flagged_count(), 0);
    }
}
