//! Source (b) of the per-layer metrics: the in-process farm loop.
//!
//! `Server::request_work -> codec round trip -> Algorithm::compute ->
//! codec round trip -> Server::submit_result` on one thread with no
//! sockets, every step inside a bench-owned span. It does everything a
//! TCP pass does except framing, the event loop and the donor client,
//! so the gap between its makespan and the TCP `makespan_s` is the
//! network-plus-client share.

use crate::spans::{Rec, NO_UNIT};
use crate::workloads::{check_outputs, Inputs, Reference, Spec};
use biodist_core::problem::DataManager;
use biodist_core::{
    Algorithm, Assignment, CheckpointWriter, ClientId, Payload, Problem, ProblemId, Server,
    TaskResult, Telemetry, WorkUnit,
};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What the data-manager wrapper saw, summed over every problem.
#[derive(Default)]
pub struct DmStats {
    pub next_unit_us: Vec<f64>,
    pub accept_result_us: Vec<f64>,
    /// Serial time a stage barrier costs: the `accept_result` that
    /// folded a stage's last result plus the `next_unit` that produced
    /// the next stage's first unit, µs (both run under the server lock).
    pub turnover_us: Vec<f64>,
}

/// Delegating [`DataManager`] that times every call the `Server` makes
/// into the application's manager — under the server lock on the TCP
/// path, so this is the serial share of the farm.
struct TimedDm {
    inner: Box<dyn DataManager>,
    rec: Rec,
    layer: &'static str,
    stats: Arc<Mutex<DmStats>>,
    outstanding: u64,
    /// Duration of the `accept_result` that drained the current stage.
    drained_in_ns: Option<u64>,
}

impl DataManager for TimedDm {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        let id = self
            .rec
            .lock()
            .expect("recorder lock")
            .open(self.layer, "next_unit", NO_UNIT);
        let unit = self.inner.next_unit(hint_ops);
        let ns = self.rec.lock().expect("recorder lock").close(id);
        let mut stats = self.stats.lock().expect("dm stats lock");
        stats.next_unit_us.push(ns as f64 / 1e3);
        if unit.is_some() {
            self.outstanding += 1;
            if let Some(drain_ns) = self.drained_in_ns.take() {
                stats.turnover_us.push((drain_ns + ns) as f64 / 1e3);
            }
        }
        unit
    }

    fn accept_result(&mut self, result: TaskResult) {
        let id = self.rec.lock().expect("recorder lock").open(
            self.layer,
            "accept_result",
            result.unit_id,
        );
        self.inner.accept_result(result);
        let ns = self.rec.lock().expect("recorder lock").close(id);
        self.stats
            .lock()
            .expect("dm stats lock")
            .accept_result_us
            .push(ns as f64 / 1e3);
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.outstanding == 0 && !self.inner.is_complete() {
            self.drained_in_ns = Some(ns);
        }
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn final_output(&mut self) -> Payload {
        self.inner.final_output()
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry, problem: ProblemId) {
        self.inner.attach_telemetry(telemetry, problem);
    }
}

pub struct InprocReport {
    pub makespan_s: f64,
    pub completed_units: u64,
    /// Share of the pass span its child spans do not cover (loop
    /// bookkeeping + span recording): the telescoping residual.
    pub uncovered_share: f64,
    pub unit_bytes: Vec<f64>,
    pub result_bytes: Vec<f64>,
    pub chunks_per_unit: Vec<f64>,
    pub unit_ops: Vec<f64>,
    pub dm: DmStats,
    pub check: Result<(), String>,
}

/// The span `unit` field: unit ids are unique per problem only.
pub fn unit_key(problem: ProblemId, unit: u64) -> u64 {
    ((problem as u64) << 40) | unit
}

/// Layer label of `Algorithm::compute` spans: the kernel crate the
/// time is spent in.
pub fn compute_layer(inputs: &Inputs) -> &'static str {
    match inputs {
        Inputs::Dsearch { .. } => "align",
        Inputs::Dprml { .. } => "phylo",
        Inputs::Integration { .. } => "integrate",
    }
}

fn dm_layer(inputs: &Inputs) -> &'static str {
    match inputs {
        Inputs::Dsearch { .. } => "dsearch",
        Inputs::Dprml { .. } => "dprml",
        Inputs::Integration { .. } => "builtin",
    }
}

/// Runs one whole pass of the workload in-process with `window` logical
/// donors (units in flight, served first-in first-out). `journal`, when
/// given, is installed exactly as the TCP pass installs it.
pub fn run_inproc(
    spec: &Spec,
    inputs: &Inputs,
    reference: &Reference,
    rec: &Rec,
    window: usize,
    journal: Option<&Path>,
) -> InprocReport {
    let mut server = Server::new(spec.sched());
    let stats = Arc::new(Mutex::new(DmStats::default()));
    for p in inputs.problems() {
        let timed = TimedDm {
            inner: p.data_manager,
            rec: rec.clone(),
            layer: dm_layer(inputs),
            stats: stats.clone(),
            outstanding: 0,
            drained_in_ns: None,
        };
        server.submit(Problem {
            data_manager: Box::new(timed),
            ..p
        });
    }
    if let Some(path) = journal {
        server.set_journal(Box::new(
            CheckpointWriter::create(path).expect("create journal under out/"),
        ));
    }
    let codecs: Vec<_> = (0..server.problem_count())
        .map(|pid| server.codec(pid).expect("every workload has a wire codec"))
        .collect();
    let compute = compute_layer(inputs);
    let mut report = InprocReport {
        makespan_s: 0.0,
        completed_units: 0,
        uncovered_share: 0.0,
        unit_bytes: Vec::new(),
        result_bytes: Vec::new(),
        chunks_per_unit: Vec::new(),
        unit_ops: Vec::new(),
        dm: DmStats::default(),
        check: Ok(()),
    };
    type Held = (ClientId, ProblemId, Arc<WorkUnit>, Arc<dyn Algorithm>);
    let mut free: VecDeque<ClientId> = (0..window).collect();
    let mut in_flight: VecDeque<Held> = VecDeque::new();
    let mut steps = 0u64;

    // Every step is a *lap*: consecutive laps tile the pass span, so
    // its children telescope to it by construction and the loop's own
    // bookkeeping is inside the laps, not lost between them.
    let lap = |layer, name, unit| rec.lock().expect("recorder lock").lap(layer, name, unit);
    let pass = rec
        .lock()
        .expect("recorder lock")
        .open("bench", "inproc_pass", NO_UNIT);
    let t0 = std::time::Instant::now();
    'pass: loop {
        while let Some(&client) = free.front() {
            let now = t0.elapsed().as_secs_f64();
            // The TCP server sweeps leases before every request.
            lap("server", "check_timeouts", NO_UNIT);
            server.check_timeouts(now);
            let id = lap("server", "request_work", NO_UNIT);
            match server.request_work(client, now) {
                Assignment::Unit {
                    problem,
                    unit,
                    algorithm,
                } => {
                    rec.lock().expect("recorder lock").spans[id as usize - 1].unit =
                        unit_key(problem, unit.id);
                    free.pop_front();
                    report.unit_ops.push(unit.cost_ops);
                    in_flight.push_back((client, problem, unit, algorithm));
                }
                Assignment::Wait => break,
                Assignment::Finished => break 'pass,
            }
        }
        if steps.is_multiple_of(4096) {
            lap("server", "status_snapshot", NO_UNIT);
            std::hint::black_box(server.status_snapshot(t0.elapsed().as_secs_f64()));
        }
        steps += 1;
        let Some((client, pid, unit, algorithm)) = in_flight.pop_front() else {
            report.check = Err("in-process loop: server said Wait with nothing in flight".into());
            break;
        };
        let key = unit_key(pid, unit.id);
        let codec = &codecs[pid];
        // Donor side, as the TCP client does it: decode, fetch every
        // chunk, hydrate, compute, encode.
        lap("codec", "encode_unit", key);
        let unit_bytes = codec.encode_unit(&unit.payload).expect("unit encodes");
        report.unit_bytes.push(unit_bytes.len() as f64);
        lap("codec", "decode_unit", key);
        let decoded = codec.decode_unit(&unit_bytes).expect("unit decodes");
        let needs = codec.unit_chunks(&decoded);
        report.chunks_per_unit.push(needs.len() as f64);
        let payload = if needs.is_empty() {
            decoded
        } else {
            let chunks: Vec<(u64, Arc<Vec<u8>>)> = needs
                .iter()
                .map(|n| {
                    lap("codec", "encode_chunk", key);
                    (
                        n.chunk,
                        Arc::new(codec.encode_chunk(n.chunk).expect("chunk encodes")),
                    )
                })
                .collect();
            lap("codec", "hydrate_unit", key);
            codec.hydrate_unit(decoded, &chunks).expect("unit hydrates")
        };
        let hydrated = WorkUnit {
            id: unit.id,
            payload,
            cost_ops: unit.cost_ops,
        };
        lap(compute, "compute", key);
        let result = algorithm.compute(&hydrated);
        lap("codec", "encode_result", key);
        let result_bytes = codec
            .encode_result(&result.payload)
            .expect("result encodes");
        report.result_bytes.push(result_bytes.len() as f64);
        lap("codec", "decode_result", key);
        let decoded = codec.decode_result(&result_bytes).expect("result decodes");
        lap("server", "submit_result", key);
        let result = TaskResult {
            unit_id: unit.id,
            payload: decoded,
        };
        server.submit_result(client, pid, result, t0.elapsed().as_secs_f64());
        free.push_back(client);
    }
    rec.lock().expect("recorder lock").end_laps();
    report.makespan_s = t0.elapsed().as_secs_f64();
    {
        let mut r = rec.lock().expect("recorder lock");
        r.close(pass);
        report.uncovered_share = r.uncovered_share(pass);
    }
    report.completed_units = (0..server.problem_count())
        .map(|pid| server.stats(pid).completed_units)
        .sum();
    if report.check.is_ok() {
        report.check = check_outputs(&mut server, reference);
    }
    drop(server);
    report.dm = std::mem::take(&mut *stats.lock().expect("dm stats lock"));
    report
}
