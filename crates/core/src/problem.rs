//! The user-facing programming model: `Problem = DataManager + Algorithm`.
//!
//! Mirrors the paper's §2.1: "The user is required to extend two
//! classes to create a Problem to run on the system. The `DataManager`
//! class (in the server) specifies how the problem is to be partitioned
//! into units of work and the intermediate results put together […] The
//! `Algorithm` class (in the client) specifies the actual computation."
//!
//! Payloads are typed in-process values; since no real wire exists, the
//! Java system's serialisation is modelled by an explicit
//! `wire_bytes` declared on every payload (DESIGN.md, substitution
//! table: RMI control messages vs. raw-socket bulk transfers).

use crate::codec::WireCodec;
use crate::server::ProblemId;
use std::any::Any;
use std::sync::Arc;

/// Identifies a work unit within its problem.
pub type UnitId = u64;

/// A typed in-process payload with a modelled wire size.
pub struct Payload {
    data: Box<dyn Any + Send + Sync>,
    wire_bytes: u64,
}

impl Payload {
    /// Wraps a value, declaring how many bytes it would occupy on the
    /// wire (used by the simulated network; pick the size the real
    /// serialised form would have).
    pub fn new<T: Any + Send + Sync>(value: T, wire_bytes: u64) -> Self {
        Self {
            data: Box::new(value),
            wire_bytes,
        }
    }

    /// Declared wire size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Borrows the payload as `T`; `None` if the type does not match.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.data.downcast_ref::<T>()
    }

    /// Consumes the payload, extracting `T`.
    ///
    /// # Panics
    /// Panics on type mismatch — that is always a programming error in
    /// the problem definition, not a runtime condition.
    pub fn into_inner<T: Any>(self) -> T {
        *self.data.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "payload type mismatch: expected {}",
                std::any::type_name::<T>()
            )
        })
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} wire bytes)", self.wire_bytes)
    }
}

/// One unit of work, produced by a [`DataManager`].
#[derive(Debug)]
pub struct WorkUnit {
    /// Unit identifier, unique within its problem.
    pub id: UnitId,
    /// Input data for the computation.
    pub payload: Payload,
    /// Estimated cost in abstract ops (the scheduler's and simulator's
    /// common currency; see `gridsim::deployments` for the scale).
    pub cost_ops: f64,
}

/// The result of computing one unit.
#[derive(Debug)]
pub struct TaskResult {
    /// The unit this result answers.
    pub unit_id: UnitId,
    /// Output data.
    pub payload: Payload,
}

/// Client-side computation (paper: the `Algorithm` class).
///
/// Implementations must be pure functions of the unit payload: the
/// scheduler may execute the same unit on several donors (redundant
/// end-game dispatch, reissue after churn) and keeps whichever result
/// arrives first.
pub trait Algorithm: Send + Sync {
    /// Computes one unit.
    fn compute(&self, unit: &WorkUnit) -> TaskResult;
}

/// Server-side problem decomposition (paper: the `DataManager` class).
///
/// Supports *staged* problems: `next_unit` may return `None` while
/// `is_complete()` is still false, meaning no unit can be issued until
/// more results arrive (e.g. DPRml's stage barrier). The server polls
/// again after the next result.
pub trait DataManager: Send {
    /// Produces the next unit, or `None` if nothing can be issued right
    /// now. `hint_ops` is the scheduler's dynamic-granularity hint: a
    /// unit of roughly this cost keeps the requesting donor busy for
    /// the configured target time. Managers with fixed decompositions
    /// may ignore it.
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit>;

    /// Folds one result back in. Results arrive exactly once per unit
    /// (the server deduplicates redundant executions).
    fn accept_result(&mut self, result: TaskResult);

    /// Whether every unit has been issued *and* every result folded in.
    fn is_complete(&self) -> bool;

    /// Takes the final combined output. Called once, after
    /// [`DataManager::is_complete`] returns true.
    fn final_output(&mut self) -> Payload;

    /// Hands the manager a telemetry handle for its problem, so it can
    /// record application-level events (DPRml stage boundaries) and
    /// metrics (DSEARCH chunk sizes). Called by the server when the
    /// problem is submitted or telemetry is installed later; the
    /// default implementation ignores it, so existing managers are
    /// unaffected.
    fn attach_telemetry(&mut self, telemetry: crate::telemetry::Telemetry, problem: ProblemId) {
        let _ = (telemetry, problem);
    }
}

/// A self-contained distributed computation (paper: the `Problem`
/// object handed to the server).
pub struct Problem {
    /// Human-readable name, used in reports.
    pub name: String,
    /// Server-side decomposition logic.
    pub data_manager: Box<dyn DataManager>,
    /// Client-side computation, shared by every donor.
    pub algorithm: Arc<dyn Algorithm>,
    /// One-time download each client performs before its first unit
    /// (the Java system ships the Algorithm class and problem data).
    pub setup_bytes: u64,
    /// Payload serializer for the TCP backend. `None` limits the
    /// problem to the simulator.
    pub codec: Option<Arc<dyn WireCodec>>,
}

impl Problem {
    /// Bundles a data manager and algorithm into a problem.
    pub fn new(
        name: &str,
        data_manager: Box<dyn DataManager>,
        algorithm: Arc<dyn Algorithm>,
    ) -> Self {
        Self {
            name: name.to_string(),
            data_manager,
            algorithm,
            setup_bytes: 0,
            codec: None,
        }
    }

    /// Sets the per-client setup download size.
    pub fn with_setup_bytes(mut self, bytes: u64) -> Self {
        self.setup_bytes = bytes;
        self
    }

    /// Registers the payload serializer that lets the problem run on
    /// the TCP backend.
    pub fn with_codec(mut self, codec: Arc<dyn WireCodec>) -> Self {
        self.codec = Some(codec);
        self
    }
}

impl std::fmt::Debug for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Problem")
            .field("name", &self.name)
            .field("setup_bytes", &self.setup_bytes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_typed_values() {
        let p = Payload::new(vec![1u32, 2, 3], 12);
        assert_eq!(p.wire_bytes(), 12);
        assert_eq!(p.downcast_ref::<Vec<u32>>(), Some(&vec![1, 2, 3]));
        assert!(p.downcast_ref::<String>().is_none());
        assert_eq!(p.into_inner::<Vec<u32>>(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn wrong_downcast_panics_with_type_name() {
        Payload::new(5u64, 8).into_inner::<String>();
    }

    #[test]
    fn problem_builder_sets_fields() {
        struct NullAlgo;
        impl Algorithm for NullAlgo {
            fn compute(&self, unit: &WorkUnit) -> TaskResult {
                TaskResult {
                    unit_id: unit.id,
                    payload: Payload::new((), 0),
                }
            }
        }
        struct NullDm;
        impl DataManager for NullDm {
            fn next_unit(&mut self, _hint: f64) -> Option<WorkUnit> {
                None
            }
            fn accept_result(&mut self, _r: TaskResult) {}
            fn is_complete(&self) -> bool {
                true
            }
            fn final_output(&mut self) -> Payload {
                Payload::new((), 0)
            }
        }
        let p = Problem::new("demo", Box::new(NullDm), Arc::new(NullAlgo)).with_setup_bytes(1024);
        assert_eq!(p.name, "demo");
        assert_eq!(p.setup_bytes, 1024);
    }
}
