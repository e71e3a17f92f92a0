//! Scale sweep for the nonblocking event-loop control plane.
//!
//! Two sweeps back the scale tier's headline claim (server cost is
//! O(shards) in threads and flat per donor in CPU):
//!
//! * **TCP loopback sweep** — real donor fleets of increasing size run
//!   full request/compute/submit cycles against the event-loop server.
//!   Server-thread CPU is read from the `evloop.cpu_ticks` counter
//!   (charged per shard/acceptor/ticker thread from
//!   `/proc/thread-self/stat` at thread exit), and each fleet runs to a
//!   fixed inbound-frame budget so the per-frame — i.e. per donor
//!   request — server cost is directly comparable across fleet sizes.
//!   The headline number, `server_cpu_ms_per_1k_frames`, must stay flat
//!   (within 2×) from the smallest to the largest fleet: a dispatch
//!   plane that scanned donors per request would blow through that.
//!
//! * **Simulated machine sweep** — the discrete-event backend drives
//!   fleets up to 100k virtual machines through a π-integration run,
//!   recording the simulator's events-per-second throughput from
//!   `RunReport::events_processed`.
//!
//! Run with: `cargo run -p biodist-bench --release --bin abl_scale`
//! for the full sweep (writes `BENCH_scale.json` at the workspace root
//! and CSVs under `results/`); `--smoke` runs CI-sized fleets and
//! writes the same JSON shape.

use biodist_bench::harness::results_dir;
use biodist_core::builtin::integration_problem;
use biodist_core::net::wire::{encode_frame, Frame, FrameReader};
use biodist_core::net::{raise_nofile_limit, Clock, NetServer, NetServerOptions};
use biodist_core::problem::WorkUnit;
use biodist_core::{RunReport, SchedulerConfig, Server, SimRunner, Telemetry};
use biodist_gridsim::deployments::homogeneous_lab;
use biodist_util::table::Table;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed-size work units (50 grid points at 200 ops/point) keep the
/// donor-side compute around a few microseconds, so the sweep loads the
/// dispatch plane rather than the ALUs.
const UNIT_OPS: f64 = 10_000.0;

/// CLK_TCK on every Linux this runs on: one CPU tick is 10ms.
const MS_PER_TICK: f64 = 10.0;

fn sweep_cfg() -> SchedulerConfig {
    SchedulerConfig {
        min_unit_ops: UNIT_OPS,
        max_unit_ops: UNIT_OPS,
        lease_min_secs: 30.0,
        ..Default::default()
    }
}

struct TcpSample {
    donors: usize,
    wall_secs: f64,
    frames_in: u64,
    cpu_ticks: u64,
}

impl TcpSample {
    fn frames_per_sec(&self) -> f64 {
        self.frames_in as f64 / self.wall_secs
    }
    /// Server CPU spent per thousand inbound frames — the per-request
    /// (hence per-donor) cost of the control plane, in milliseconds.
    fn cpu_ms_per_kframe(&self) -> f64 {
        self.cpu_ticks as f64 * MS_PER_TICK * 1000.0 / self.frames_in as f64
    }
    fn per_donor_cpu_ms_per_sec(&self) -> f64 {
        self.cpu_ticks as f64 * MS_PER_TICK / self.wall_secs / self.donors as f64
    }
}

/// Runs `donors` loopback donors in full request/compute/submit cycles
/// until the server has absorbed `frame_budget` inbound frames, then
/// tears the fleet down and reads the server-thread CPU spent.
fn tcp_sample(donors: usize, shards: usize, frame_budget: u64) -> TcpSample {
    raise_nofile_limit(20_000);
    let mut server = Server::new(sweep_cfg());
    server.set_telemetry(Telemetry::enabled());
    let telemetry = server.telemetry();
    // 2e9 grid points = 40M fixed-size units: the problem cannot finish
    // inside any frame budget here, so every cycle exercises the full
    // request/lease/fold path with no end-game tail.
    let pid = server.submit(integration_problem(2_000_000_000));
    let algorithm = server.algorithm(pid);
    let codec = server.codec(pid).expect("integration has a codec");
    let net = NetServer::start(
        server,
        Clock::new(1.0),
        NetServerOptions {
            shards,
            ..Default::default()
        },
    )
    .expect("bind loopback listener");
    let addr = net.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let handles: Vec<_> = (0..donors)
        .map(|c| {
            let stop = stop.clone();
            let algorithm = algorithm.clone();
            let codec = codec.clone();
            std::thread::spawn(move || {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return;
                };
                stream
                    .set_read_timeout(Some(Duration::from_millis(20)))
                    .unwrap();
                let mut reader = FrameReader::new();
                let _ = stream.write_all(&encode_frame(&Frame::Hello { client: c as u64 }));
                let await_frame = |stream: &mut TcpStream, reader: &mut FrameReader| loop {
                    if stop.load(Ordering::Relaxed) {
                        return None;
                    }
                    match reader.poll(stream) {
                        Ok(Some(f)) => return Some(f),
                        Ok(None) => {}
                        Err(_) => return None,
                    }
                };
                while !stop.load(Ordering::Relaxed) {
                    if stream
                        .write_all(&encode_frame(&Frame::RequestWork { client: c as u64 }))
                        .is_err()
                    {
                        return;
                    }
                    match await_frame(&mut stream, &mut reader) {
                        Some(Frame::AssignUnit {
                            problem,
                            unit,
                            cost_ops,
                            payload,
                        }) => {
                            let Ok(decoded) = codec.decode_unit(&payload) else {
                                return;
                            };
                            let wu = WorkUnit {
                                id: unit,
                                payload: decoded,
                                cost_ops,
                            };
                            let result = algorithm.compute(&wu);
                            let Ok(encoded) = codec.encode_result(&result.payload) else {
                                return;
                            };
                            if stream
                                .write_all(&encode_frame(&Frame::SubmitResult {
                                    client: c as u64,
                                    problem,
                                    unit,
                                    payload: encoded,
                                }))
                                .is_err()
                            {
                                return;
                            }
                            // The ack; tolerate anything else quietly.
                            let _ = await_frame(&mut stream, &mut reader);
                        }
                        Some(Frame::Wait) => std::thread::sleep(Duration::from_millis(2)),
                        Some(_) => {}
                        None => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(3));
                }
            })
        })
        .collect();

    let deadline = start + Duration::from_secs(120);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let frames = telemetry.metrics_snapshot().counter("net.frames_in");
        if frames >= frame_budget || Instant::now() >= deadline {
            break;
        }
    }
    stop.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    // kill() joins the shard/acceptor/ticker threads, which is when
    // each charges its CPU delta to `evloop.cpu_ticks`.
    net.kill();
    let wall_secs = start.elapsed().as_secs_f64();
    let snap = telemetry.metrics_snapshot();
    TcpSample {
        donors,
        wall_secs,
        frames_in: snap.counter("net.frames_in"),
        cpu_ticks: snap.counter("evloop.cpu_ticks"),
    }
}

struct SimSample {
    machines: usize,
    wall_secs: f64,
    report: RunReport,
}

impl SimSample {
    fn events_per_sec(&self) -> f64 {
        self.report.events_processed as f64 / self.wall_secs
    }
}

/// One simulated run: `machines` virtual donors, ~3 units each, with a
/// small setup payload so the shared-link serialization of 100k setup
/// transfers does not dominate the virtual timeline.
fn sim_sample(machines: usize) -> SimSample {
    let mut server = Server::new(sweep_cfg());
    let points_per_unit = (UNIT_OPS / biodist_core::builtin::OPS_PER_POINT) as u64;
    let n_points = machines as u64 * points_per_unit * 3;
    server.submit(integration_problem(n_points).with_setup_bytes(500));
    let start = Instant::now();
    let (report, _server) = SimRunner::with_defaults(server, homogeneous_lab(machines, 7)).run();
    SimSample {
        machines,
        wall_secs: start.elapsed().as_secs_f64(),
        report,
    }
}

fn render_json(shards: usize, tcp: &[TcpSample], sim: &[SimSample], flat: bool) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"pi-integration request/compute/submit cycles, {:.0}-op units, {shards} event-loop shards; server CPU from evloop.cpu_ticks\",\n",
        UNIT_OPS
    ));
    json.push_str(&format!("  \"shards\": {shards},\n"));
    json.push_str("  \"tcp\": [\n");
    for (i, s) in tcp.iter().enumerate() {
        let sep = if i + 1 == tcp.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"donors\": {}, \"wall_secs\": {:.2}, \"frames_in\": {}, \"frames_per_sec\": {:.0}, \"server_cpu_ticks\": {}, \"server_cpu_ms_per_1k_frames\": {:.2}, \"per_donor_cpu_ms_per_sec\": {:.4} }}{sep}\n",
            s.donors,
            s.wall_secs,
            s.frames_in,
            s.frames_per_sec(),
            s.cpu_ticks,
            s.cpu_ms_per_kframe(),
            s.per_donor_cpu_ms_per_sec(),
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"per_donor_cpu_flat_within_2x\": {flat},\n"));
    json.push_str("  \"sim\": [\n");
    for (i, s) in sim.iter().enumerate() {
        let sep = if i + 1 == sim.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"machines\": {}, \"events_processed\": {}, \"events_per_sec\": {:.0}, \"virtual_makespan_secs\": {:.1}, \"wall_secs\": {:.2}, \"total_units\": {} }}{sep}\n",
            s.machines,
            s.report.events_processed,
            s.events_per_sec(),
            s.report.makespan,
            s.wall_secs,
            s.report.total_units,
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Max/min ratio of the per-frame server CPU cost across the sweep.
fn cpu_spread(tcp: &[TcpSample]) -> f64 {
    let costs: Vec<f64> = tcp.iter().map(|s| s.cpu_ms_per_kframe()).collect();
    let lo = costs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = costs.iter().cloned().fold(0.0, f64::max);
    if lo > 0.0 {
        hi / lo
    } else {
        f64::INFINITY
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (donor_counts, shards, frame_budget, machine_counts): (&[usize], usize, u64, &[usize]) =
        if smoke {
            (&[16, 48], 2, 6_000, &[1_000, 3_000])
        } else {
            (&[64, 256, 1024], 4, 100_000, &[10_000, 30_000, 100_000])
        };

    let mut tcp = Vec::new();
    for &donors in donor_counts {
        let s = tcp_sample(donors, shards, frame_budget);
        println!(
            "tcp {:>5} donors / {shards} shards: {:>7} frames in {:.1}s ({:.0}/s), server cpu {} ticks, {:.2} ms/kframe, {:.4} ms/s/donor",
            s.donors,
            s.frames_in,
            s.wall_secs,
            s.frames_per_sec(),
            s.cpu_ticks,
            s.cpu_ms_per_kframe(),
            s.per_donor_cpu_ms_per_sec(),
        );
        tcp.push(s);
    }
    let spread = cpu_spread(&tcp);
    let min_ticks = tcp.iter().map(|s| s.cpu_ticks).min().unwrap_or(0);
    let flat = spread <= 2.0;
    println!(
        "per-donor server CPU spread across fleet sizes: {spread:.2}x \
         (flat-within-2x: {flat}, min sample {min_ticks} ticks)"
    );
    if !smoke && min_ticks >= 50 {
        assert!(
            flat,
            "per-donor server CPU must stay flat within 2x across fleet sizes (got {spread:.2}x)"
        );
    }

    let mut sim = Vec::new();
    for &machines in machine_counts {
        let s = sim_sample(machines);
        println!(
            "sim {:>7} machines: {:>9} events in {:.1}s wall ({:.0} events/s), makespan {:.1}s virtual, {} units",
            s.machines,
            s.report.events_processed,
            s.wall_secs,
            s.events_per_sec(),
            s.report.makespan,
            s.report.total_units,
        );
        sim.push(s);
    }

    let json = render_json(shards, &tcp, &sim, flat);
    // results_dir() is `<workspace>/results`; the JSON snapshot lives
    // next to it at the workspace root.
    let path = results_dir().join("..").join("BENCH_scale.json");
    std::fs::write(&path, json).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());

    if !smoke {
        let mut t = Table::new(
            "abl_scale tcp: per-donor server CPU across fleet sizes",
            &[
                "donors",
                "shards",
                "wall_secs",
                "frames_in",
                "frames_per_sec",
                "server_cpu_ticks",
                "cpu_ms_per_1k_frames",
                "per_donor_cpu_ms_per_sec",
            ],
        );
        for s in &tcp {
            t.push_row(vec![
                s.donors.to_string(),
                shards.to_string(),
                format!("{:.2}", s.wall_secs),
                s.frames_in.to_string(),
                format!("{:.0}", s.frames_per_sec()),
                s.cpu_ticks.to_string(),
                format!("{:.2}", s.cpu_ms_per_kframe()),
                format!("{:.4}", s.per_donor_cpu_ms_per_sec()),
            ]);
        }
        t.write_csv(&results_dir().join("abl_scale_tcp.csv"))
            .expect("write tcp csv");
        println!("{}", t.render_text());

        let mut t = Table::new(
            "abl_scale sim: event-loop throughput across machine counts",
            &[
                "machines",
                "events_processed",
                "events_per_sec",
                "virtual_makespan_secs",
                "wall_secs",
                "total_units",
            ],
        );
        for s in &sim {
            t.push_row(vec![
                s.machines.to_string(),
                s.report.events_processed.to_string(),
                format!("{:.0}", s.events_per_sec()),
                format!("{:.1}", s.report.makespan),
                format!("{:.2}", s.wall_secs),
                s.report.total_units.to_string(),
            ]);
        }
        t.write_csv(&results_dir().join("abl_scale_sim.csv"))
            .expect("write sim csv");
        println!("{}", t.render_text());
    }
}
