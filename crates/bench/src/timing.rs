//! Self-contained micro-benchmark harness.
//!
//! The workspace must build with no external crates, so the B-series
//! benches use this small timing runner instead of Criterion. The
//! protocol per measurement:
//!
//! 1. **Calibrate**: run the closure once, then scale the batch size so
//!    one timed batch lasts at least ~10 ms (amortises timer overhead).
//! 2. **Warm up** for one batch.
//! 3. **Sample**: run `samples` timed batches and keep the *minimum*
//!    per-iteration time — the least-noise estimator for throughput
//!    benches on a shared machine.
//!
//! Time budget and sample count shrink under `BIODIST_BENCH_FAST=1`
//! (used by the smoke mode and by tests) so a full bench binary stays
//! in CI-friendly territory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (group/name style, free-form).
    pub name: String,
    /// Best-of-samples time for one iteration, in nanoseconds.
    pub ns_per_iter: f64,
    /// Work elements per iteration (DP cells, events, …), if declared.
    pub elements: Option<u64>,
    /// Iterations actually timed per batch.
    pub batch: u64,
}

impl Measurement {
    /// Elements processed per second, when an element count was given.
    pub fn elems_per_sec(&self) -> Option<f64> {
        self.elements.map(|e| e as f64 * 1e9 / self.ns_per_iter)
    }

    fn render_row(&self) -> String {
        let rate = match self.elems_per_sec() {
            Some(r) if r >= 1e6 => format!("{:>10.1} Melem/s", r / 1e6),
            Some(r) => format!("{:>10.1} Kelem/s", r / 1e3),
            None => format!("{:>18}", ""),
        };
        format!(
            "{:<44} {:>14.0} ns/iter {rate}",
            self.name, self.ns_per_iter
        )
    }
}

/// Collects measurements and prints a fixed-width report.
pub struct Runner {
    min_batch_time: Duration,
    samples: u32,
    rows: Vec<Measurement>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A runner tuned by the `BIODIST_BENCH_FAST` environment switch.
    pub fn new() -> Self {
        let fast = std::env::var_os("BIODIST_BENCH_FAST").is_some();
        Self {
            min_batch_time: Duration::from_millis(if fast { 2 } else { 10 }),
            samples: if fast { 3 } else { 7 },
            rows: Vec::new(),
        }
    }

    /// Times `f`, recording it under `name` with an optional per-iteration
    /// element count for throughput reporting. Returns the measurement.
    pub fn run<R>(
        &mut self,
        name: &str,
        elements: Option<u64>,
        mut f: impl FnMut() -> R,
    ) -> &Measurement {
        // Calibrate the batch size on a single iteration.
        let once = Instant::now();
        black_box(f());
        let one = once.elapsed().max(Duration::from_nanos(20));
        let batch = (self.min_batch_time.as_nanos() / one.as_nanos()).clamp(1, 1 << 24) as u64;

        // One warm-up batch, then best-of-N timed batches.
        for _ in 0..batch {
            black_box(f());
        }
        let mut best = f64::INFINITY;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        self.rows.push(Measurement {
            name: name.to_string(),
            ns_per_iter: best,
            elements,
            batch,
        });
        self.rows.last().expect("just pushed")
    }

    /// All measurements so far, in run order.
    pub fn measurements(&self) -> &[Measurement] {
        &self.rows
    }

    /// Prints the report table to stdout.
    pub fn report(&self, title: &str) {
        println!("== {title} ==");
        for row in &self.rows {
            println!("  {}", row.render_row());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports_throughput() {
        std::env::set_var("BIODIST_BENCH_FAST", "1");
        let mut r = Runner::new();
        let m = r.run("sum_1k", Some(1000), || (0..1000u64).sum::<u64>());
        assert!(m.ns_per_iter > 0.0);
        assert!(m.elems_per_sec().unwrap() > 0.0);
        assert_eq!(r.measurements().len(), 1);
    }

    #[test]
    fn slower_work_measures_slower() {
        std::env::set_var("BIODIST_BENCH_FAST", "1");
        let mut r = Runner::new();
        let small = r
            .run("small", None, || (0..100u64).map(black_box).sum::<u64>())
            .ns_per_iter;
        let big = r
            .run("big", None, || (0..100_000u64).map(black_box).sum::<u64>())
            .ns_per_iter;
        assert!(big > small, "{big} vs {small}");
    }
}
