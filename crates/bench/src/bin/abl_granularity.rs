//! Ablation A2 — dynamic vs fixed work-unit granularity on a
//! heterogeneous pool.
//!
//! Quantifies the paper's §3.1 claim: "The parallel granularity is
//! dynamically controlled during each search to match the processing
//! abilities of the current set of donor machines." On a pool spanning
//! PII-300 to PIV-2400 (8× speed spread), fixed-size units sized for
//! the average machine leave slow donors holding straggler units at the
//! end of the run; dynamically sized units shrink for slow donors and
//! grow for fast ones. The end-game redundant dispatch is ablated
//! independently — it partially rescues fixed granularity by cloning
//! stragglers onto fast machines, at the price of wasted work. Results
//! are averaged over several trace seeds.
//!
//! Run with: `cargo run -p biodist-bench --release --bin abl_granularity`

use biodist_bench::harness::results_dir;
use biodist_bench::workloads::{fig1_inputs, SEED};
use biodist_core::{SchedulerConfig, Server, SimRunner};
use biodist_dsearch::build_problem;
use biodist_gridsim::deployments::heterogeneous_lab;
use biodist_util::stats::OnlineStats;
use biodist_util::table::Table;

const MACHINES: usize = 32;
const TRIALS: u64 = 5;

fn run(dynamic: bool, redundant: bool) -> (OnlineStats, OnlineStats, u64, u64) {
    let (db, queries, config) = fig1_inputs();
    let mut makespan = OnlineStats::new();
    let mut util = OnlineStats::new();
    let (mut units, mut wasted) = (0u64, 0u64);
    for trial in 0..TRIALS {
        let sched = SchedulerConfig {
            target_unit_secs: 60.0,
            enable_adaptive: dynamic,
            enable_redundant_dispatch: redundant,
            ..Default::default()
        };
        let mut server = Server::new(sched);
        let pid = server.submit(build_problem(db.clone(), queries.clone(), &config));
        let machines = heterogeneous_lab(MACHINES, SEED + 200 + trial);
        let (report, server) = SimRunner::with_defaults(server, machines).run();
        makespan.push(report.makespan);
        util.push(report.mean_utilization);
        let stats = server.stats(pid);
        units += stats.completed_units;
        wasted += stats.wasted_results;
    }
    (makespan, util, units / TRIALS, wasted)
}

fn main() {
    eprintln!(
        "A2: DSEARCH granularity ablation, {MACHINES} heterogeneous machines (PII-300..PIV-2400), {TRIALS} seeds"
    );
    let mut table = Table::new(
        "A2: dynamic vs fixed granularity (heterogeneous pool, mean of 5 seeds)",
        &[
            "policy",
            "makespan_s",
            "stddev_s",
            "utilization",
            "units",
            "wasted",
        ],
    );
    let cases: [(&str, bool, bool); 4] = [
        ("dynamic+endgame", true, true),
        ("dynamic", true, false),
        ("fixed+endgame", false, true),
        ("fixed", false, false),
    ];
    let mut measured = Vec::new();
    for (name, dynamic, redundant) in cases {
        let (makespan, util, units, wasted) = run(dynamic, redundant);
        eprintln!(
            "  {name:>16}: makespan {:.1} ± {:.1} s, util {:.2}, {units} units/run",
            makespan.mean(),
            makespan.stddev(),
            util.mean()
        );
        table.push_row(vec![
            name.to_string(),
            format!("{:.1}", makespan.mean()),
            format!("{:.1}", makespan.stddev()),
            format!("{:.3}", util.mean()),
            units.to_string(),
            wasted.to_string(),
        ]);
        measured.push((name, makespan.mean()));
    }
    println!("{}", table.render_text());
    let path = results_dir().join("abl_granularity.csv");
    table.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());

    let get = |n: &str| measured.iter().find(|(name, _)| *name == n).unwrap().1;
    println!(
        "\ndynamic granularity beats fixed by {:.1}% without the end-game and by\n\
         {:.1}% with it; the end-game itself cuts the straggler tail by {:.1}%\n\
         (dynamic) / {:.1}% (fixed), at the price of some wasted duplicate work",
        (get("fixed") / get("dynamic") - 1.0) * 100.0,
        (get("fixed+endgame") / get("dynamic+endgame") - 1.0) * 100.0,
        (get("dynamic") / get("dynamic+endgame") - 1.0) * 100.0,
        (get("fixed") / get("fixed+endgame") - 1.0) * 100.0
    );
}
