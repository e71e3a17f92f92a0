//! Streaming donor-health detector (the live ops plane's straggler
//! flag).
//!
//! Each accepted result yields one *normalized service-time*
//! observation for its donor: observed turnaround divided by the
//! turnaround the donor's estimated speed predicts (≈ 1.0 for a
//! machine behaving like its own track record, regardless of how fast
//! that track record is). A [`Detector`] keeps two EWMAs for its donor
//! — a fast one tracking recent behaviour and a slow baseline seeded at
//! the healthy prior — and flags the donor as a straggler when the
//! recent-over-baseline ratio crosses a threshold. Flags clear with
//! hysteresis once the ratio recovers.
//!
//! The design deliberately separates *slow* from *anomalous*: an
//! honest-but-slow machine has a high absolute service time but a
//! normalized ratio near 1.0 (its speed estimate already prices the
//! slowness in), so it is never flagged; a machine that suddenly takes
//! 10× its own predicted time is flagged within a few observations.
//! Folding@Home's operational lesson — monitor and adapt to donors
//! *while the run is live* — is exactly this loop: the scheduler arms
//! speculative re-issue of the units flagged donors hold.
//!
//! Everything here is a pure function of the observation sequence: no
//! clocks, no randomness, so the detector is deterministic under the
//! sim backend and property-testable under a seed.
//!
//! In a running farm a donor's detector is a part of its scheduler
//! record ([`crate::sched::Scheduler`] keeps one per observed donor when
//! `enable_health_detector` is set): every recorded completion is one
//! observation, and the detector's flag is the one the scheduler's
//! decisions read.

use biodist_util::stats::Ewma;

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

/// A flag state change produced by [`Detector::observe`].
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

/// One donor's streaming health state (see module docs).
#[derive(Debug, Clone)]
pub struct Detector {
    fast: Ewma,
    baseline: f64,
    observations: u64,
    flagged: bool,
}

impl Default for Detector {
    /// A detector that has seen no observation.
    fn default() -> Self {
        Self {
            fast: Ewma::new(ALPHA_FAST),
            baseline: BASELINE_PRIOR,
            observations: 0,
            flagged: false,
        }
    }
}

impl Detector {
    /// Whether `normalized` counts as an observation: non-finite or
    /// non-positive ones are dropped — a poisoned latency must not
    /// poison the detector — before a donor is given a detector at all.
    pub fn admits(normalized: f64) -> bool {
        normalized.is_finite() && normalized > 0.0
    }

    /// Feeds one normalized service-time observation (observed
    /// turnaround ÷ predicted turnaround) and returns the flag
    /// transition it caused, if any; one [`Self::admits`] refuses
    /// changes nothing.
    pub fn observe(&mut self, normalized: f64) -> Option<HealthTransition> {
        if !Self::admits(normalized) {
            return None;
        }
        self.observations += 1;
        let fast = self.fast.update(normalized);
        // The baseline freezes while the donor is flagged: a persistent
        // straggler must not teach the detector that stragglerhood is
        // normal and silently clear its own flag.
        if !self.flagged {
            self.baseline += ALPHA_BASELINE * (normalized - self.baseline);
        }
        let ratio = fast / self.baseline.max(f64::MIN_POSITIVE);
        if !self.flagged && self.observations >= MIN_OBSERVATIONS && ratio >= STRAGGLER_RATIO {
            self.flagged = true;
            return Some(HealthTransition::Flagged { ratio });
        }
        if self.flagged && ratio <= CLEAR_RATIO {
            self.flagged = false;
            return Some(HealthTransition::Cleared { ratio });
        }
        None
    }

    /// Whether the donor is currently flagged.
    pub fn is_flagged(&self) -> bool {
        self.flagged
    }

    /// The current recent-over-baseline ratio (`None` before the first
    /// observation).
    pub fn ratio(&self) -> Option<f64> {
        Some(self.fast.value()? / self.baseline.max(f64::MIN_POSITIVE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_but_slow_donor_is_never_flagged() {
        // A slow machine whose speed estimate prices the slowness in
        // produces normalized observations near 1.0 forever.
        let mut h = Detector::default();
        for i in 0..200 {
            let wobble = 1.0 + 0.1 * ((i % 7) as f64 - 3.0) / 3.0;
            assert_eq!(h.observe(wobble), None, "observation {i}");
        }
        assert!(!h.is_flagged());
    }

    #[test]
    fn sudden_straggler_is_flagged_then_clears_with_hysteresis() {
        let mut h = Detector::default();
        for _ in 0..10 {
            assert_eq!(h.observe(1.0), None);
        }
        // 10× slowdown: flagged within a few observations.
        let mut flagged_at = None;
        for i in 0..10 {
            if let Some(HealthTransition::Flagged { ratio }) = h.observe(10.0) {
                assert!(ratio >= 3.0);
                flagged_at = Some(i);
                break;
            }
        }
        assert!(
            flagged_at.is_some_and(|i| i < 5),
            "10x straggler must be flagged quickly, got {flagged_at:?}"
        );
        assert!(h.is_flagged());
        // Recovery: the ratio must fall below clear_ratio (1.5), not
        // merely below the flag threshold.
        let mut transitions = Vec::new();
        for _ in 0..20 {
            transitions.extend(h.observe(1.0));
        }
        assert!(
            matches!(transitions[..], [HealthTransition::Cleared { ratio }] if ratio <= 1.5),
            "recovered donor must clear, once: {transitions:?}"
        );
        assert!(!h.is_flagged());
    }

    #[test]
    fn slow_from_the_start_counts_as_straggling() {
        // The baseline prior is 1.0: a donor whose very first
        // observations run 10× the predicted time diverges from the
        // prior, not from its own (nonexistent) history.
        let mut h = Detector::default();
        let mut flagged = false;
        for _ in 0..6 {
            if matches!(h.observe(10.0), Some(HealthTransition::Flagged { .. })) {
                flagged = true;
            }
        }
        assert!(flagged, "10x-from-birth donor must be flagged");
    }

    #[test]
    fn min_observations_guards_startup_noise() {
        let mut h = Detector::default();
        for i in 1..MIN_OBSERVATIONS {
            assert_eq!(h.observe(10.0), None, "observation {i} is too early");
        }
        assert!(matches!(
            h.observe(10.0),
            Some(HealthTransition::Flagged { .. })
        ));
    }

    #[test]
    fn poisoned_observations_are_dropped() {
        let mut h = Detector::default();
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            assert!(!Detector::admits(bad));
            assert_eq!(h.observe(bad), None);
        }
        assert_eq!(h.observations, 0);
        assert_eq!(h.ratio(), None);
    }
}
