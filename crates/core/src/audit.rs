//! Run-time invariant auditing for chaos and fault-tolerance tests.
//!
//! [`audited`] wraps a [`Problem`]'s data manager so every unit issue
//! and every result fold is observed, and [`AuditHandle::verify_run`]
//! checks the scheduler-level invariants the fault-tolerance design
//! guarantees (DESIGN.md, fault model):
//!
//! 1. every issued work unit is combined into the data manager
//!    **exactly once** — redundant dispatch, reissue after churn, and
//!    duplicated deliveries never double-fold;
//! 2. no result is folded for a unit the manager never issued;
//! 3. every per-client EWMA speed estimate stays finite and positive
//!    (a NaN estimate would poison granularity and lease sizing);
//! 4. every granularity hint stays inside the configured
//!    `[min_unit_ops, max_unit_ops]` bounds;
//! 5. the lease tables are consistent ([`crate::leases::LeaseTable::audit`]).
//!
//! The sixth invariant — final output bit-identical to the fault-free
//! sequential reference — is checked by the test itself, since only the
//! application knows its reference (`dsearch::search_sequential`,
//! `phylo::search::stepwise_ml`).

use crate::problem::{DataManager, Payload, Problem, TaskResult, UnitId, WorkUnit};
use crate::server::Server;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct AuditState {
    issued: HashMap<UnitId, u32>,
    accepted: HashMap<UnitId, u32>,
    violations: Vec<String>,
}

/// Shared view into an audited problem's observations; query it after
/// the run completes.
#[derive(Debug, Clone)]
pub struct AuditHandle {
    state: Arc<Mutex<AuditState>>,
}

impl AuditHandle {
    /// Units the data manager issued (distinct ids; reissues of an
    /// expired unit reuse the id and are not counted again).
    pub fn units_issued(&self) -> u64 {
        self.state.lock().expect("audit lock").issued.len() as u64
    }

    /// Results folded into the data manager.
    pub fn units_accepted(&self) -> u64 {
        self.state.lock().expect("audit lock").accepted.len() as u64
    }

    /// Verifies every invariant against the finished run. Returns all
    /// violations rather than failing fast, so a chaos failure report
    /// shows the full picture.
    ///
    /// Assumes the wrapped data manager only declares completion once
    /// every issued unit's result is folded (true of every manager in
    /// this workspace).
    pub fn verify_run(&self, server: &Server) -> Result<(), Vec<String>> {
        let mut violations = {
            let st = self.state.lock().expect("audit lock");
            let mut v = st.violations.clone();
            for (&id, &n) in &st.accepted {
                if n != 1 {
                    v.push(format!(
                        "unit {id} combined {n} times (must be exactly once)"
                    ));
                }
            }
            for &id in st.issued.keys() {
                if !st.accepted.contains_key(&id) {
                    v.push(format!(
                        "unit {id} issued but its result was never combined"
                    ));
                }
            }
            v
        };
        violations.extend(server.scheduler().audit());
        violations.extend(server.audit());
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

struct AuditedDm {
    inner: Box<dyn DataManager>,
    state: Arc<Mutex<AuditState>>,
}

impl DataManager for AuditedDm {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        let unit = self.inner.next_unit(hint_ops)?;
        let mut st = self.state.lock().expect("audit lock");
        let n = st.issued.entry(unit.id).or_insert(0);
        *n += 1;
        if *n > 1 {
            let msg = format!("unit {} issued twice by the data manager", unit.id);
            st.violations.push(msg);
        }
        if !unit.cost_ops.is_finite() || unit.cost_ops < 0.0 {
            let msg = format!("unit {} has invalid cost_ops {}", unit.id, unit.cost_ops);
            st.violations.push(msg);
        }
        Some(unit)
    }

    fn accept_result(&mut self, result: TaskResult) {
        {
            let mut st = self.state.lock().expect("audit lock");
            if !st.issued.contains_key(&result.unit_id) {
                let msg = format!("result folded for unissued unit {}", result.unit_id);
                st.violations.push(msg);
            }
            *st.accepted.entry(result.unit_id).or_insert(0) += 1;
        }
        self.inner.accept_result(result);
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn final_output(&mut self) -> Payload {
        self.inner.final_output()
    }

    fn attach_telemetry(
        &mut self,
        telemetry: crate::telemetry::Telemetry,
        problem: crate::server::ProblemId,
    ) {
        self.inner.attach_telemetry(telemetry, problem);
    }
}

/// Wraps `problem` so every unit issue and result fold is audited.
/// The returned problem behaves identically; query the handle after the
/// run with [`AuditHandle::verify_run`].
pub fn audited(problem: Problem) -> (Problem, AuditHandle) {
    let state = Arc::new(Mutex::new(AuditState::default()));
    let handle = AuditHandle {
        state: state.clone(),
    };
    let wrapped = Problem {
        name: problem.name,
        data_manager: Box::new(AuditedDm {
            inner: problem.data_manager,
            state,
        }),
        algorithm: problem.algorithm,
        setup_bytes: problem.setup_bytes,
        codec: problem.codec,
    };
    (wrapped, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::integration_problem;
    use crate::net::run_tcp;
    use crate::sched::SchedulerConfig;
    use crate::server::Server;

    #[test]
    fn clean_run_passes_every_invariant() {
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 0.005,
            prior_ops_per_sec: 2e9,
            min_unit_ops: 1e4,
            ..Default::default()
        });
        let (problem, audit) = audited(integration_problem(300_000));
        let pid = server.submit(problem);
        let (mut server, _) = run_tcp(server, 4);
        let pi = server.take_output(pid).unwrap().into_inner::<f64>();
        assert!((pi - std::f64::consts::PI).abs() < 1e-8);
        audit
            .verify_run(&server)
            .expect("clean run must satisfy all invariants");
        assert!(audit.units_issued() > 0);
        assert_eq!(audit.units_issued(), audit.units_accepted());
    }

    #[test]
    fn double_fold_is_reported() {
        struct OneUnitDm {
            issued: bool,
            folds: u32,
        }
        impl DataManager for OneUnitDm {
            fn next_unit(&mut self, _h: f64) -> Option<WorkUnit> {
                if self.issued {
                    return None;
                }
                self.issued = true;
                Some(WorkUnit {
                    id: 0,
                    payload: Payload::new((), 0),
                    cost_ops: 1.0,
                })
            }
            fn accept_result(&mut self, _r: TaskResult) {
                self.folds += 1;
            }
            fn is_complete(&self) -> bool {
                self.folds >= 2
            }
            fn final_output(&mut self) -> Payload {
                Payload::new((), 0)
            }
        }
        struct Echo;
        impl crate::problem::Algorithm for Echo {
            fn compute(&self, unit: &WorkUnit) -> TaskResult {
                TaskResult {
                    unit_id: unit.id,
                    payload: Payload::new((), 0),
                }
            }
        }
        let (mut problem, audit) = audited(Problem::new(
            "double-fold",
            Box::new(OneUnitDm {
                issued: false,
                folds: 0,
            }),
            Arc::new(Echo),
        ));
        // Emulate a buggy server folding the same unit twice.
        let unit = problem.data_manager.next_unit(1.0).unwrap();
        problem.data_manager.accept_result(TaskResult {
            unit_id: unit.id,
            payload: Payload::new((), 0),
        });
        problem.data_manager.accept_result(TaskResult {
            unit_id: unit.id,
            payload: Payload::new((), 0),
        });
        let server = Server::new(SchedulerConfig::default());
        let err = audit
            .verify_run(&server)
            .expect_err("double fold must be caught");
        assert!(
            err.iter().any(|v| v.contains("combined 2 times")),
            "{err:?}"
        );
    }

    #[test]
    fn unissued_result_is_reported() {
        let (mut problem, audit) = audited(integration_problem(1000));
        problem.data_manager.accept_result(TaskResult {
            unit_id: 77,
            payload: Payload::new(0.0f64, 8),
        });
        let server = Server::new(SchedulerConfig::default());
        let err = audit
            .verify_run(&server)
            .expect_err("unissued result must be caught");
        assert!(
            err.iter().any(|v| v.contains("unissued unit 77")),
            "{err:?}"
        );
    }
}
