//! Built-in demonstration problems.
//!
//! [`integration_problem`] is the framework's "hello world": numerical
//! integration of `4/(1+x²)` over `[0,1]` (which is π) by the midpoint
//! rule, partitioned into dynamically sized index ranges. It exercises
//! every framework feature — dynamic granularity, result folding,
//! redundant execution safety (units are pure) — with an output that is
//! trivially verifiable, so integration tests and the quickstart
//! example both build on it.

use crate::codec::{ByteReader, ByteWriter, WireCodec, WireError};
use crate::problem::{Algorithm, DataManager, Payload, Problem, TaskResult, UnitId, WorkUnit};
use std::sync::Arc;

/// Abstract ops charged per function evaluation (sets the
/// compute/communication ratio in the simulator).
pub const OPS_PER_POINT: f64 = 200.0;

struct IntegrationDm {
    n_points: u64,
    next_point: u64,
    issued_units: u64,
    received_units: u64,
    sum: f64,
    next_id: UnitId,
}

impl DataManager for IntegrationDm {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        if self.next_point >= self.n_points {
            return None;
        }
        // Dynamic granularity: convert the ops hint into grid points.
        let points = ((hint_ops / OPS_PER_POINT) as u64).clamp(1, self.n_points);
        let lo = self.next_point;
        let hi = (lo + points).min(self.n_points);
        self.next_point = hi;
        self.issued_units += 1;
        let id = self.next_id;
        self.next_id += 1;
        Some(WorkUnit {
            id,
            // Range + total grid size: 24 bytes on a real wire.
            payload: Payload::new((lo, hi, self.n_points), 24),
            cost_ops: (hi - lo) as f64 * OPS_PER_POINT,
        })
    }

    fn accept_result(&mut self, result: TaskResult) {
        self.sum += result.payload.into_inner::<f64>();
        self.received_units += 1;
    }

    fn is_complete(&self) -> bool {
        self.next_point >= self.n_points && self.received_units == self.issued_units
    }

    fn final_output(&mut self) -> Payload {
        Payload::new(self.sum, 8)
    }
}

struct IntegrationAlgo;

impl Algorithm for IntegrationAlgo {
    fn compute(&self, unit: &WorkUnit) -> TaskResult {
        let &(lo, hi, n) = unit
            .payload
            .downcast_ref::<(u64, u64, u64)>()
            .expect("range");
        let h = 1.0 / n as f64;
        let mut acc = 0.0;
        for i in lo..hi {
            let x = (i as f64 + 0.5) * h;
            acc += 4.0 / (1.0 + x * x);
        }
        TaskResult {
            unit_id: unit.id,
            payload: Payload::new(acc * h, 8),
        }
    }
}

/// Wire codec for the integration problem: a unit is its `(lo, hi, n)`
/// range triple (the 24 bytes the payload always declared), a result is
/// one `f64` partial sum.
struct IntegrationCodec;

impl WireCodec for IntegrationCodec {
    fn write_unit(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        let &(lo, hi, n) = payload
            .downcast_ref::<(u64, u64, u64)>()
            .ok_or_else(|| WireError::new("integration unit payload is not a range triple"))?;
        w.u64(lo);
        w.u64(hi);
        w.u64(n);
        Ok(())
    }

    fn decode_unit(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        let mut r = ByteReader::new(bytes);
        let (lo, hi, n) = (r.u64()?, r.u64()?, r.u64()?);
        r.finish()?;
        Ok(Payload::new((lo, hi, n), bytes.len() as u64))
    }

    fn write_result(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        let &sum = payload
            .downcast_ref::<f64>()
            .ok_or_else(|| WireError::new("integration result payload is not an f64"))?;
        w.f64(sum);
        Ok(())
    }

    fn decode_result(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        let mut r = ByteReader::new(bytes);
        let sum = r.f64()?;
        r.finish()?;
        Ok(Payload::new(sum, bytes.len() as u64))
    }
}

/// Builds the π-integration demo problem over `n_points` grid points.
///
/// The exact answer is π; the midpoint rule with `n_points ≥ 10⁴` is
/// accurate to ~1e-9, so tests can assert against
/// `std::f64::consts::PI` with a loose tolerance.
pub fn integration_problem(n_points: u64) -> Problem {
    assert!(n_points > 0, "need at least one grid point");
    Problem::new(
        "pi-integration",
        Box::new(IntegrationDm {
            n_points,
            next_point: 0,
            issued_units: 0,
            received_units: 0,
            sum: 0.0,
            next_id: 0,
        }),
        Arc::new(IntegrationAlgo),
    )
    .with_setup_bytes(50_000) // modelled size of shipped algorithm code
    .with_codec(Arc::new(IntegrationCodec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulerConfig;
    use crate::server::{Assignment, Server};

    #[test]
    fn sequential_drive_computes_pi() {
        let mut server = Server::new(SchedulerConfig::default());
        let pid = server.submit(integration_problem(100_000));
        let mut now = 0.0;
        loop {
            match server.request_work(0, now) {
                Assignment::Unit {
                    problem,
                    unit,
                    algorithm,
                } => {
                    let r = algorithm.compute(&unit);
                    now += 1.0;
                    server.submit_result(0, problem, r, now);
                }
                Assignment::Wait => now += 1.0,
                Assignment::Finished => break,
            }
        }
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
    }

    #[test]
    fn granularity_hint_controls_unit_size() {
        let mut dm = IntegrationDm {
            n_points: 1_000_000,
            next_point: 0,
            issued_units: 0,
            received_units: 0,
            sum: 0.0,
            next_id: 0,
        };
        let small = dm.next_unit(10_000.0 * OPS_PER_POINT).unwrap();
        let big = dm.next_unit(100_000.0 * OPS_PER_POINT).unwrap();
        assert!(big.cost_ops > 5.0 * small.cost_ops);
    }

    #[test]
    fn codec_round_trips_units_and_results() {
        let codec = IntegrationCodec;
        let unit = Payload::new((3u64, 900u64, 100_000u64), 24);
        let bytes = codec.encode_unit(&unit).unwrap();
        assert_eq!(bytes.len(), 24, "declared wire size is the real size");
        let back = codec.decode_unit(&bytes).unwrap();
        assert_eq!(
            back.downcast_ref::<(u64, u64, u64)>(),
            Some(&(3, 900, 100_000))
        );

        let result = Payload::new(0.25f64, 8);
        let bytes = codec.encode_result(&result).unwrap();
        assert_eq!(bytes.len(), 8);
        let back = codec.decode_result(&bytes).unwrap();
        assert_eq!(back.downcast_ref::<f64>(), Some(&0.25));

        // Truncated and trailing-garbage inputs are errors, not panics.
        assert!(codec.decode_unit(&bytes).is_err());
        let mut long = codec.encode_unit(&unit).unwrap();
        long.push(0);
        assert!(codec.decode_unit(&long).is_err());
    }

    #[test]
    fn unit_ids_are_unique_and_sequential() {
        let mut dm = IntegrationDm {
            n_points: 100,
            next_point: 0,
            issued_units: 0,
            received_units: 0,
            sum: 0.0,
            next_id: 0,
        };
        let a = dm.next_unit(10.0 * OPS_PER_POINT).unwrap();
        let b = dm.next_unit(10.0 * OPS_PER_POINT).unwrap();
        assert_eq!(a.id, 0);
        assert_eq!(b.id, 1);
    }
}
