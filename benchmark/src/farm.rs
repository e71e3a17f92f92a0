//! One measured pass: a fresh `Server` over the real TCP path (or the
//! simulator), timed from donor spawn to `NetServer::wait()`.
//!
//! The wiring is deliberately *not* `run_tcp*`: `run_tcp_with` always
//! interposes a `FaultProxy` (two blocking pump threads per donor),
//! which would benchmark the chaos harness. This is the direct wiring
//! `tests/stress.rs` uses.

use crate::host::cpu_seconds;
use crate::workloads::{check_outputs, Inputs, Reference, Spec};
use biodist_core::net::{
    spawn_clients, ClientKit, Clock, Directory, NetClientOptions, NetServer, NetServerOptions,
};
use biodist_core::{CheckpointWriter, FaultPlan, ReplicaServer, Server, SimRunner, Telemetry};
use biodist_gridsim::homogeneous_lab;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pass that has not finished by then is failed, with all its units.
pub const PASS_DEADLINE: Duration = Duration::from_secs(60);

/// What one pass measured.
pub struct Pass {
    /// Input generation + `build_problem` + `Server` + bind/listen
    /// (+ replica start): everything between the seed and the first
    /// donor connecting.
    pub setup_s: f64,
    /// Donor spawn until `NetServer::wait()` returns (sim: `run()`).
    pub makespan_s: f64,
    /// Process CPU (user + system, all threads) over the makespan.
    pub cpu_s: f64,
    /// Science done, in the workload's work item.
    pub work: f64,
    pub completed_units: u64,
    pub assignments: u64,
    pub reissued: u64,
    pub corrupted: u64,
    pub wasted: u64,
    /// Simulator only: events processed and virtual makespan, which
    /// must repeat exactly from pass to pass.
    pub sim: Option<(u64, f64)>,
    pub check: Result<(), String>,
}

impl Pass {
    /// Assignments that did not end in a useful, correct result.
    pub fn failed_units(&self) -> u64 {
        match self.check {
            Ok(()) => self.reissued + self.corrupted,
            Err(_) => self.assignments.max(1),
        }
    }
}

/// Runs `f`; if it is still running at [`PASS_DEADLINE`], `on_timeout`
/// is called from a watchdog thread (it reports and exits the process —
/// a blocked `NetServer::wait()` cannot be cancelled).
pub fn with_deadline<T>(on_timeout: &(dyn Fn() + Sync), f: impl FnOnce() -> T) -> T {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            if done_rx.recv_timeout(PASS_DEADLINE) == Err(RecvTimeoutError::Timeout) {
                on_timeout();
            }
        });
        let out = f();
        drop(done_tx);
        out
    })
}

fn fold_stats(pass: &mut Pass, server: &Server) {
    for pid in 0..server.problem_count() {
        let s = server.stats(pid);
        pass.completed_units += s.completed_units;
        pass.assignments += s.assignments;
        pass.reissued += s.reissued_units;
        pass.corrupted += s.corrupted_results;
        pass.wasted += s.wasted_results;
    }
}

/// One pass of `spec` on inputs generated from `seed`. `telemetry` is
/// `Telemetry::disabled()` in measured passes; the traced pass hands in
/// a live handle and reads its ring afterwards. `journal` (dispatch
/// workload) is the write-ahead log the server journals to.
pub fn run_pass(
    spec: &Spec,
    seed: u64,
    smoke: bool,
    reference: &Reference,
    telemetry: &Telemetry,
    journal: Option<&Path>,
) -> Pass {
    let t0 = Instant::now();
    let inputs = spec.generate(seed, smoke);
    let mut server = Server::new(spec.sched());
    server.set_telemetry(telemetry.clone());
    for p in inputs.problems() {
        server.submit(p);
    }
    let mut pass = Pass {
        setup_s: 0.0,
        makespan_s: 0.0,
        cpu_s: 0.0,
        work: inputs.work().unwrap_or(0.0),
        completed_units: 0,
        assignments: 0,
        reissued: 0,
        corrupted: 0,
        wasted: 0,
        sim: None,
        check: Ok(()),
    };
    let mut server = match inputs {
        Inputs::Integration {
            sim: Some((machines, lab_seed)),
            ..
        } => {
            let runner = SimRunner::with_defaults(server, homogeneous_lab(machines, lab_seed));
            pass.setup_s = t0.elapsed().as_secs_f64();
            let (cpu0, t1) = (cpu_seconds(), Instant::now());
            let (report, server) = runner.run();
            pass.makespan_s = t1.elapsed().as_secs_f64();
            pass.cpu_s = cpu_seconds() - cpu0;
            pass.work = report.events_processed as f64;
            pass.sim = Some((report.events_processed, report.makespan));
            server
        }
        _ => {
            if let Some(path) = journal {
                let writer = CheckpointWriter::create(path).expect("create journal under out/");
                server.set_journal(Box::new(writer));
            }
            let kit = ClientKit::from_server(&server).expect("every workload has a wire codec");
            let clock = Clock::new(1.0);
            let opts = NetServerOptions {
                shards: 1,
                ..Default::default()
            };
            let net = NetServer::start(server, clock, opts).expect("bind loopback listener");
            let dir = Directory::with_origin(net.addr());
            let replicas: Vec<ReplicaServer> = (0..spec.replicas)
                .map(|_| {
                    ReplicaServer::start(
                        dir.clone(),
                        clock,
                        telemetry.clone(),
                        Vec::new(),
                        Vec::new(),
                    )
                    .expect("bind replica listener")
                })
                .collect();
            if !replicas.is_empty() {
                let addrs: Vec<SocketAddr> = replicas.iter().map(ReplicaServer::addr).collect();
                net.set_replicas(addrs.clone());
                dir.set_replicas(addrs);
            }
            pass.setup_s = t0.elapsed().as_secs_f64();
            let (cpu0, t1) = (cpu_seconds(), Instant::now());
            let run_over = Arc::new(AtomicBool::new(false));
            let donors = spawn_clients(
                dir,
                clock,
                kit,
                spec.donors,
                &FaultPlan::none(),
                run_over.clone(),
                NetClientOptions::default(),
            );
            let server = net.wait();
            pass.makespan_s = t1.elapsed().as_secs_f64();
            pass.cpu_s = cpu_seconds() - cpu0;
            run_over.store(true, Ordering::SeqCst);
            for d in donors {
                d.join().expect("donor thread panicked");
            }
            for r in replicas {
                r.stop();
            }
            telemetry.flush();
            server
        }
    };
    fold_stats(&mut pass, &server);
    pass.check = check_outputs(&mut server, reference);
    pass
}
