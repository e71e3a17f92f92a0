//! Quickstart: define a problem, run it on donors over loopback TCP.
//!
//! The paper's §2.1 programming model in one file: a `DataManager`
//! (server side: partition + combine) and an `Algorithm` (client side:
//! compute one unit) make a `Problem`; the framework does the rest.
//! This example estimates π by Monte Carlo sampling, partitioned into
//! dynamically sized batches of samples, and runs it on 8 donor clients
//! that reach the server over loopback TCP. Units and results cross a
//! real wire, so the problem also registers a `WireCodec` for them.
//!
//! Run with: `cargo run --release --example quickstart`

use biodist::core::{
    run_tcp, Algorithm, ByteReader, ByteWriter, DataManager, Payload, Problem, SchedulerConfig,
    Server, TaskResult, UnitId, WireCodec, WireError, WorkUnit,
};
use biodist::util::rng::{Rng, SplitMix64};
use std::sync::Arc;

/// Abstract cost of drawing one sample (for scheduling/simulation).
const OPS_PER_SAMPLE: f64 = 50.0;

/// Server side: how the problem splits into units and folds together.
struct MonteCarloPi {
    total_samples: u64,
    issued_samples: u64,
    issued_units: u64,
    received_units: u64,
    inside: u64,
    sampled: u64,
    next_id: UnitId,
}

impl DataManager for MonteCarloPi {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        if self.issued_samples >= self.total_samples {
            return None;
        }
        // Dynamic granularity: the scheduler's hint sizes this batch.
        let batch = ((hint_ops / OPS_PER_SAMPLE) as u64)
            .clamp(1_000, self.total_samples - self.issued_samples);
        self.issued_samples += batch;
        self.issued_units += 1;
        let id = self.next_id;
        self.next_id += 1;
        // Payload: (seed, sample count). 16 bytes on a real wire.
        Some(WorkUnit {
            id,
            payload: Payload::new((id, batch), 16),
            cost_ops: batch as f64 * OPS_PER_SAMPLE,
        })
    }

    fn accept_result(&mut self, result: TaskResult) {
        let (inside, sampled) = result.payload.into_inner::<(u64, u64)>();
        self.inside += inside;
        self.sampled += sampled;
        self.received_units += 1;
    }

    fn is_complete(&self) -> bool {
        self.issued_samples >= self.total_samples && self.received_units == self.issued_units
    }

    fn final_output(&mut self) -> Payload {
        Payload::new(4.0 * self.inside as f64 / self.sampled as f64, 8)
    }
}

/// Client side: the per-unit computation (pure, so the framework may
/// run it redundantly).
struct SampleBatch;

impl Algorithm for SampleBatch {
    fn compute(&self, unit: &WorkUnit) -> TaskResult {
        let &(seed, batch) = unit
            .payload
            .downcast_ref::<(u64, u64)>()
            .expect("batch spec");
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut inside = 0u64;
        for _ in 0..batch {
            let x = rng.next_f64();
            let y = rng.next_f64();
            if x * x + y * y <= 1.0 {
                inside += 1;
            }
        }
        TaskResult {
            unit_id: unit.id,
            payload: Payload::new((inside, batch), 16),
        }
    }
}

/// The wire form: a unit `(seed, samples)` and a result `(inside,
/// samples)` are both two `u64`s, the 16 bytes each payload declares.
struct PairCodec;

fn write_pair(payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
    let &(a, b) = payload
        .downcast_ref::<(u64, u64)>()
        .ok_or_else(|| WireError::new("payload is not a (u64, u64) pair"))?;
    w.u64(a);
    w.u64(b);
    Ok(())
}

fn read_pair(bytes: &[u8]) -> Result<Payload, WireError> {
    let mut r = ByteReader::new(bytes);
    let pair = (r.u64()?, r.u64()?);
    r.finish()?;
    Ok(Payload::new(pair, 16))
}

impl WireCodec for PairCodec {
    fn write_unit(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        write_pair(payload, w)
    }

    fn decode_unit(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        read_pair(bytes)
    }

    fn write_result(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        write_pair(payload, w)
    }

    fn decode_result(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        read_pair(bytes)
    }
}

fn main() {
    let total_samples = 40_000_000;
    let problem = Problem::new(
        "monte-carlo-pi",
        Box::new(MonteCarloPi {
            total_samples,
            issued_samples: 0,
            issued_units: 0,
            received_units: 0,
            inside: 0,
            sampled: 0,
            next_id: 0,
        }),
        Arc::new(SampleBatch),
    )
    .with_codec(Arc::new(PairCodec));

    let mut server = Server::new(SchedulerConfig {
        // Wall-clock time source: size units to ~5 ms of real compute.
        target_unit_secs: 0.005,
        prior_ops_per_sec: 2e9,
        ..Default::default()
    });
    let pid = server.submit(problem);

    let donors = 8;
    println!("running {total_samples} samples on {donors} loopback donors...");
    let (mut server, elapsed) = run_tcp(server, donors);

    let pi = server
        .take_output(pid)
        .expect("problem completed")
        .into_inner::<f64>();
    let stats = server.stats(pid);
    println!("π ≈ {pi:.6}  (error {:+.6})", pi - std::f64::consts::PI);
    println!(
        "{} units in {elapsed:.2} s wall clock ({} redundant, {} reissued)",
        stats.completed_units, stats.redundant_dispatches, stats.reissued_units
    );
    assert!((pi - std::f64::consts::PI).abs() < 1e-2);
}
