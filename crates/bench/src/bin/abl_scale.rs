//! Scale sweep for the simulator's event loop.
//!
//! The discrete-event backend drives fleets up to 100k virtual machines
//! through a π-integration run, recording the simulator's
//! events-per-second throughput from `RunReport::events_processed`.
//!
//! Run with: `cargo run -p biodist-bench --release --bin abl_scale`
//! for the full sweep (writes `BENCH_scale.json` at the workspace root
//! and `results/abl_scale_sim.csv`); `--smoke` runs CI-sized fleets and
//! writes the same JSON shape.

use biodist_bench::harness::results_dir;
use biodist_core::builtin::integration_problem;
use biodist_core::{RunReport, SchedulerConfig, Server, SimRunner};
use biodist_gridsim::deployments::homogeneous_lab;
use biodist_util::table::Table;
use std::time::Instant;

/// Fixed-size work units (50 grid points at 200 ops/point) keep the
/// per-unit compute small, so the sweep loads the dispatch plane rather
/// than the ALUs.
const UNIT_OPS: f64 = 10_000.0;

fn sweep_cfg() -> SchedulerConfig {
    SchedulerConfig {
        min_unit_ops: UNIT_OPS,
        max_unit_ops: UNIT_OPS,
        lease_min_secs: 30.0,
        ..Default::default()
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

fn render_json(sim: &[SimSample]) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"simulated pi-integration, {UNIT_OPS:.0}-op units, ~3 units per machine\",\n"
    ));
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let machine_counts: &[usize] = if smoke {
        &[1_000, 3_000]
    } else {
        &[10_000, 30_000, 100_000]
    };

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

    // results_dir() is `<workspace>/results`; the JSON snapshot lives
    // next to it at the workspace root.
    let path = results_dir().join("..").join("BENCH_scale.json");
    std::fs::write(&path, render_json(&sim)).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());

    if !smoke {
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
