//! Jittered exponential backoff shared by the reconnect loop and the
//! chunk-fetch failover ladder.
//!
//! One implementation, two very different consumers: [`client`]'s
//! reconnect path (a donor probing for a restarted server) and the
//! replica failover ladder in `fetch_chunks` (a donor walking its
//! candidate endpoints after a timeout or digest mismatch). Both need
//! the same three properties the scheduler's lease backoff already
//! pinned down: doubling with a hard clamp on the exponent (so the
//! shift can never overflow), a cap on the final delay, and a ±50%
//! jitter so a herd of donors hitting the same dead endpoint does not
//! retry in lockstep.
//!
//! [`client`]: super::client

use biodist_util::rng::Rng;

/// Exponential backoff state: call [`Backoff::record_failure`] after
/// each failed attempt and [`Backoff::delay_secs`] for the pause before
/// the next one; [`Backoff::reset`] on success.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_secs: f64,
    cap_secs: f64,
    max_doublings: u32,
    failures: u32,
}

impl Backoff {
    /// A backoff starting at `base_secs`, doubling per recorded failure
    /// up to `max_doublings` times, with every delay capped at
    /// `cap_secs` before jitter-scaling (jitter can only shrink or grow
    /// the delay within ±50%, and the post-jitter value is capped too).
    pub fn new(base_secs: f64, cap_secs: f64, max_doublings: u32) -> Self {
        assert!(
            base_secs.is_finite() && base_secs >= 0.0,
            "backoff base must be finite and non-negative"
        );
        assert!(
            cap_secs.is_finite() && cap_secs >= 0.0,
            "backoff cap must be finite and non-negative"
        );
        Self {
            base_secs,
            cap_secs,
            max_doublings,
            failures: 0,
        }
    }

    /// Consecutive failures recorded since the last reset.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Notes one more failed attempt (saturating).
    pub fn record_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
    }

    /// Clears the failure streak after a success.
    pub fn reset(&mut self) {
        self.failures = 0;
    }

    /// The jittered delay before the next attempt, in (caller-scaled)
    /// seconds. Doubles per recorded failure with the same overflow
    /// discipline as the scheduler's lease backoff: the exponent is
    /// clamped both by `max_doublings` and by 63, so the shift is
    /// always defined no matter how long the failure streak runs.
    pub fn delay_secs<R: Rng>(&self, rng: &mut R) -> f64 {
        let doublings = self.failures.min(self.max_doublings).min(63);
        let factor = (1u64 << doublings) as f64;
        let jitter = 0.5 + rng.next_f64();
        (self.base_secs * factor * jitter).min(self.cap_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biodist_util::rng::SplitMix64;

    #[test]
    fn delay_doubles_then_clamps_at_the_cap() {
        let mut b = Backoff::new(0.05, 2.0, 6);
        let mut rng = SplitMix64::new(1);
        let mut prev = 0.0;
        for _ in 0..20 {
            let d = b.delay_secs(&mut rng);
            assert!(d.is_finite() && d >= 0.0, "delay must be sane, got {d}");
            assert!(d <= 2.0 + 1e-12, "delay {d} exceeds the cap");
            // Jitter is ±50%, so with base doubling the *upper envelope*
            // grows monotonically until the cap; check the envelope.
            let envelope = (0.05 * (1u64 << b.failures().min(6)) as f64 * 1.5).min(2.0);
            assert!(d <= envelope + 1e-12, "delay {d} above envelope {envelope}");
            let _ = prev;
            prev = d;
            b.record_failure();
        }
    }

    #[test]
    fn backoff_never_overflows_or_grows_unbounded() {
        // Mirror of the scheduler's lease-backoff regression: a failure
        // streak far past 63 doublings must neither panic (shift
        // overflow) nor produce a delay above the cap.
        let mut b = Backoff::new(0.05, 2.0, u32::MAX);
        for _ in 0..100_000 {
            b.record_failure();
        }
        let mut rng = SplitMix64::new(7);
        let d = b.delay_secs(&mut rng);
        assert!(d.is_finite(), "delay overflowed to non-finite: {d}");
        assert!(d <= 2.0 + 1e-12, "delay {d} escaped the cap");
    }

    #[test]
    fn jitter_spreads_delays_and_reset_restarts_the_streak() {
        let mut b = Backoff::new(1.0, 100.0, 6);
        b.record_failure();
        let mut rng = SplitMix64::new(42);
        let samples: Vec<f64> = (0..32).map(|_| b.delay_secs(&mut rng)).collect();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(min >= 1.0, "jitter floor is 0.5 × doubled base, got {min}");
        assert!(
            max <= 3.0,
            "jitter ceiling is 1.5 × doubled base, got {max}"
        );
        assert!(max - min > 0.1, "jitter must actually spread the delays");
        b.reset();
        assert_eq!(b.failures(), 0, "reset clears the streak");
        let d = b.delay_secs(&mut rng);
        assert!(d <= 1.5, "post-reset delay is back to the jittered base");
    }
}
