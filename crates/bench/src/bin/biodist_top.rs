//! Live cluster status view — the ops plane's `top`.
//!
//! Three modes:
//!
//! ```text
//! # deterministic post-run snapshot from the simulator backend
//! biodist_top sim [--app dsearch|dprml] [--seed N] [--machines M] [--json]
//!
//! # seeded TCP loopback demo: spawn a server + donors with metrics
//! # shipping on, then poll StatusRequest over a real socket
//! biodist_top demo [--app dsearch|dprml] [--seed N] [--machines M]
//!                  [--once | --watch] [--interval S] [--time-scale X] [--json]
//!
//! # poll a running NetServer
//! biodist_top connect --addr HOST:PORT [--once | --watch] [--interval S] [--json]
//! ```
//!
//! `--once` prints a single snapshot and exits (with `--json`, the
//! deterministic [`StatusSnapshot::to_json`] schema the ops-smoke CI
//! job checks, plus a `turns` object: see [`turns`]); `--watch`
//! redraws a `top`-style board every interval until the cluster drains. Snapshots travel as `StatusRequest` /
//! `StatusReport` wire frames, so `connect` works against any live
//! server, and `demo` exercises the exact same path end-to-end on a
//! loopback cluster.

use biodist_bench::workloads::{demo_dprml_server, demo_dsearch_server};
use biodist_core::fault::FaultPlan;
use biodist_core::net::wire::{encode_frame, Frame, FrameReader, ReadError};
use biodist_core::net::{spawn_clients, ClientKit, Clock};
use biodist_core::{
    NetClientOptions, NetServer, NetServerOptions, Server, SimConfig, SimRunner, StatusSnapshot,
    Telemetry,
};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  biodist_top sim [--app dsearch|dprml] [--seed N] [--machines M] [--json]\n  \
         biodist_top demo [--app dsearch|dprml] [--seed N] [--machines M] [--once|--watch] [--interval S] [--time-scale X] [--json]\n  \
         biodist_top connect --addr HOST:PORT [--once|--watch] [--interval S] [--json]"
    );
    exit(1);
}

/// Value of `--name` in `args`, if present.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sim") => sim(&args[1..]),
        Some("demo") => demo(&args[1..]),
        Some("connect") => connect(&args[1..]),
        _ => usage(),
    }
}

fn build_server(app: &str, seed: u64) -> Server {
    let mut server = match app {
        "dsearch" => demo_dsearch_server(seed),
        "dprml" => demo_dprml_server(seed),
        other => {
            eprintln!("unknown app `{other}` (want dsearch or dprml)");
            exit(1);
        }
    };
    server.set_telemetry(Telemetry::enabled());
    server
}

// ------------------------------------------------------------- sim mode

fn sim(args: &[String]) {
    let app = flag(args, "--app").unwrap_or_else(|| "dsearch".into());
    let seed: u64 = flag(args, "--seed").map_or(7, |s| s.parse().expect("--seed"));
    let machines: usize = flag(args, "--machines").map_or(8, |s| s.parse().expect("--machines"));
    let server = build_server(&app, seed);
    let pool = biodist_gridsim::deployments::homogeneous_lab(machines, seed);
    let cfg = SimConfig {
        metrics_report_secs: 5.0,
    };
    let runner = SimRunner::new(
        server,
        pool,
        biodist_gridsim::network::SharedLink::hundred_mbit(),
        cfg,
    );
    let (run, server) = runner.run();
    let snap = server.status_snapshot(run.makespan);
    render(&snap, has(args, "--json"), false);
}

// ------------------------------------------------------------ demo mode

fn demo(args: &[String]) {
    let app = flag(args, "--app").unwrap_or_else(|| "dsearch".into());
    let seed: u64 = flag(args, "--seed").map_or(7, |s| s.parse().expect("--seed"));
    let machines: usize = flag(args, "--machines").map_or(4, |s| s.parse().expect("--machines"));
    let interval: f64 = flag(args, "--interval").map_or(0.5, |s| s.parse().expect("--interval"));
    let time_scale: f64 =
        flag(args, "--time-scale").map_or(20.0, |s| s.parse().expect("--time-scale"));
    let once = has(args, "--once") || !has(args, "--watch");
    let json = has(args, "--json");

    let server = build_server(&app, seed);
    let telemetry = server.telemetry();
    let kit = ClientKit::from_server(&server).expect("demo problems carry codecs");
    let clock = Clock::new(time_scale);
    let net = NetServer::start(server, clock, NetServerOptions::default())
        .expect("bind loopback listener");
    let addr = net.addr();
    let run_over = Arc::new(AtomicBool::new(false));
    let handles = spawn_clients(
        biodist_core::Directory::with_origin(addr),
        clock,
        kit,
        machines,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions {
            metrics_report_interval: 2.0,
        },
    );

    if once {
        // Poll until the cluster has visibly started (a donor row and a
        // completed unit), then print that snapshot once.
        let snap = loop {
            std::thread::sleep(Duration::from_millis(50));
            let Some(snap) = poll_status(addr) else {
                continue;
            };
            let started =
                !snap.donors.is_empty() && snap.problems.iter().any(|p| p.completed_units > 0);
            let drained = snap.problems.iter().all(|p| p.done);
            if started || drained {
                break snap;
            }
        };
        render(&snap, json, false);
        net.kill();
    } else {
        loop {
            std::thread::sleep(Duration::from_secs_f64(interval));
            let Some(snap) = poll_status(addr) else {
                break; // server drained and took itself down
            };
            render(&snap, json, true);
            if snap.problems.iter().all(|p| p.done) {
                break;
            }
        }
        let server = net.wait();
        let snap = server.status_snapshot(clock.now());
        render(&snap, json, false);
    }
    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    telemetry.flush();
}

// --------------------------------------------------------- connect mode

fn connect(args: &[String]) {
    let addr: SocketAddr = flag(args, "--addr")
        .unwrap_or_else(|| usage())
        .parse()
        .expect("--addr HOST:PORT");
    let interval: f64 = flag(args, "--interval").map_or(1.0, |s| s.parse().expect("--interval"));
    let watch = has(args, "--watch");
    let json = has(args, "--json");
    loop {
        let Some(snap) = poll_status(addr) else {
            eprintln!("no status from {addr}");
            exit(1);
        };
        render(&snap, json, watch);
        if !watch || snap.problems.iter().all(|p| p.done) {
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

// -------------------------------------------------------------- polling

/// One status round-trip: connect, `StatusRequest`, await the
/// `StatusReport`. `None` when the server is unreachable or gone.
fn poll_status(addr: SocketAddr) -> Option<StatusSnapshot> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    stream
        .write_all(&encode_frame(&Frame::StatusRequest))
        .ok()?;
    let mut reader = FrameReader::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if std::time::Instant::now() > deadline {
            return None;
        }
        match reader.poll(&mut stream) {
            Ok(Some(Frame::StatusReport { snapshot })) => {
                return StatusSnapshot::from_wire_bytes(&snapshot).ok();
            }
            Ok(Some(_)) | Ok(None) => {}
            Err(ReadError::Decode(_)) => {}
            Err(ReadError::Io(_)) => return None,
        }
    }
}

// ------------------------------------------------------------ rendering

/// "Did the turns get long", from the registry's own counters: the
/// control plane's counts that a zero keeps out of the counters panel
/// (a counter exists from its first increment) — always shown, the
/// donor-side ones summed over what donors in other processes shipped
/// (`donor.c<id>.<name>`) when the origin's registry has none of its
/// own — and what they are read for, the units a turn carried:
/// `server.completed_units ÷ net.frames_in` (≈ 1 with millisecond
/// units, hundreds with microsecond ones), and the units a donor
/// computed between two looks at the clock: `÷ net.compute_runs`.
fn turns(snap: &StatusSnapshot) -> (Vec<(&'static str, u64)>, [f64; 2]) {
    let count = |name: &str| -> u64 {
        let suffix = format!(".{name}");
        let shipped = |k: &str| k.starts_with("donor.c") && k.ends_with(&suffix);
        let sum = |own: bool| -> u64 {
            let of = |k: &str| if own { k == name } else { shipped(k) };
            let matching = snap.counters.iter().filter(|(k, _)| of(k));
            matching.map(|(_, v)| v).sum()
        };
        match sum(true) {
            0 => sum(false),
            own => own,
        }
    };
    let names = [
        "net.pumps",
        "net.client_writes",
        "net.chunk_bursts",
        "net.resubmits",
        "net.turn_want_clamped",
        "net.compute_runs",
    ];
    let units_per = |name: &str| match count(name) {
        0 => 0.0, // (no wire: the simulator)
        n => count("server.completed_units") as f64 / n as f64,
    };
    let per = [units_per("net.frames_in"), units_per("net.compute_runs")];
    (names.map(|name| (name, count(name))).into(), per)
}

fn render(snap: &StatusSnapshot, json: bool, clear: bool) {
    if json {
        let (counts, [units_per_turn, units_per_run]) = turns(snap);
        let counts: Vec<String> = counts
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        let snapshot = snap.to_json();
        let body = snapshot.strip_suffix('}').expect("a JSON object");
        let counts = counts.join(",");
        println!(
            "{body},\"turns\":{{{counts},\"units_per_turn\":{units_per_turn:.3},\
             \"units_per_run\":{units_per_run:.3}}}}}"
        );
        return;
    }
    let mut out = String::new();
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    let done = snap.problems.iter().filter(|p| p.done).count();
    out.push_str(&format!(
        "biodist_top — t={:.1}s   donors {}   problems {}/{} done\n\n",
        snap.now,
        snap.donors.len(),
        done,
        snap.problems.len(),
    ));
    out.push_str("CLIENT      OPS/S   UNITS  LEASES  DEPTH\n");
    for d in &snap.donors {
        out.push_str(&format!(
            "{:>6}  {:>9.3e}  {:>5}  {:>6}  {:>5}\n",
            d.client,
            d.ops_per_sec,
            d.units_completed,
            d.leases,
            // What the donor's last metrics report said it runs at.
            snap.pipeline_depth(d.client)
                .map_or("-".to_string(), |depth| depth.to_string()),
        ));
    }
    out.push_str("\nPROBLEM  NAME                  DONE   UNITS  ASSIGN  INFLIGHT  REISSUE\n");
    for p in &snap.problems {
        out.push_str(&format!(
            "{:>7}  {:<20}  {:>4}  {:>6}  {:>6}  {:>8}  {:>7}\n",
            p.problem,
            p.name,
            if p.done { "yes" } else { "no" },
            p.completed_units,
            p.assignments,
            p.in_flight,
            p.reissue_queue,
        ));
    }
    let (counts, [units_per_turn, units_per_run]) = turns(snap);
    out.push_str("\nTURNS ");
    for (name, v) in counts {
        out.push_str(&format!("  {} {v}", name.trim_start_matches("net.")));
    }
    out.push_str(&format!(
        "  units/turn {units_per_turn:.2}  units/run {units_per_run:.2}\n\n"
    ));
    for (k, v) in &snap.counters {
        out.push_str(&format!("{k} = {v}\n"));
    }
    let mut stdout = std::io::stdout().lock();
    let _ = stdout.write_all(out.as_bytes());
    let _ = stdout.flush();
}
