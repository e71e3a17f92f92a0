//! Ablation A5 — DSEARCH kernel choice: runtime vs. sensitivity.
//!
//! The paper lets users "choose one of the built-in search algorithms"
//! (§3.1) without quantifying the trade-off. This ablation runs the
//! Fig. 1 workload under each kernel on the same 32-machine pool and
//! reports the virtual makespan together with sensitivity metrics: how
//! many of the five planted homologs each kernel ranks in its top five,
//! and the *separation margin* — the gap between the weakest homolog
//! and the strongest background score, which quantifies how much
//! headroom each kernel leaves before false positives appear.
//!
//! Run with: `cargo run -p biodist-bench --release --bin abl_kernels`
//!
//! `--smoke` skips the simulation and instead measures real wall-clock
//! kernel throughput (DP cells per second, one 256-residue protein
//! query profiled once and scored against a subject batch — the
//! DSEARCH hot path) and writes `BENCH_kernels.json` at the workspace
//! root. This is the measurement behind the `cost_cells` ratio table.

use biodist_align::{AlignKernel, KernelKind};
use biodist_bench::harness::results_dir;
use biodist_bench::workloads::SEED;
use biodist_bench::Runner;
use biodist_bioseq::synth::{random_sequence, DbSpec, FamilySpec, SyntheticDb};
use biodist_bioseq::{Alphabet, ScoringScheme};
use biodist_core::{SchedulerConfig, Server, SimRunner};
use biodist_dsearch::build_problem;
use biodist_gridsim::deployments::homogeneous_lab;
use biodist_util::table::Table;

const MACHINES: usize = 32;

/// Measures cells/sec per kernel on 256-residue protein pairs and
/// writes `BENCH_kernels.json`; returns the JSON text.
fn smoke() -> String {
    const LEN: usize = 256;
    const SUBJECTS: usize = 8;
    let scheme = ScoringScheme::protein_default();
    let query = random_sequence(Alphabet::Protein, "q", LEN, SEED + 70);
    let subjects: Vec<_> = (0..SUBJECTS)
        .map(|i| {
            random_sequence(
                Alphabet::Protein,
                &format!("s{i}"),
                LEN,
                SEED + 71 + i as u64,
            )
        })
        .collect();
    let cells_per_batch = (LEN * LEN * SUBJECTS) as u64;

    let kernels = [
        KernelKind::SmithWaterman,
        KernelKind::Striped,
        KernelKind::NeedlemanWunsch,
        KernelKind::SemiGlobal,
    ];
    let mut runner = Runner::new();
    let mut rates: Vec<(String, f64)> = Vec::new();
    for kind in kernels {
        let kernel = AlignKernel::new(kind, scheme.clone());
        let prep = kernel.prepare(&query);
        let m = runner.run(
            &format!("kernel/{}", kind.name()),
            Some(cells_per_batch),
            || {
                subjects
                    .iter()
                    .map(|s| kernel.score_prepared(&query, &prep, s))
                    .sum::<i32>()
            },
        );
        rates.push((kind.name(), m.elems_per_sec().expect("cells declared")));
    }
    runner.report(&format!(
        "abl_kernels --smoke: {LEN}-residue protein query vs {SUBJECTS} subjects"
    ));

    let scalar = rates
        .iter()
        .find(|(n, _)| n == "smith-waterman")
        .expect("scalar baseline")
        .1;
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"protein {LEN}x{LEN}, {SUBJECTS} subjects, blosum62 11/1, profiled batch path\",\n"
    ));
    json.push_str("  \"kernels\": {\n");
    for (i, (name, rate)) in rates.iter().enumerate() {
        let sep = if i + 1 == rates.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{name}\": {{ \"cells_per_sec\": {rate:.0}, \"speedup_vs_scalar_sw\": {:.2} }}{sep}\n",
            rate / scalar
        ));
    }
    json.push_str("  }\n}\n");

    let striped = rates
        .iter()
        .find(|(n, _)| n == "striped")
        .expect("striped")
        .1;
    println!(
        "striped vs scalar sw: {:.1}x ({:.0} vs {:.0} cells/s)",
        striped / scalar,
        striped,
        scalar
    );
    json
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        let json = smoke();
        // results_dir() is `<workspace>/results`; the JSON snapshot
        // lives next to it at the workspace root.
        let path = results_dir().join("..").join("BENCH_kernels.json");
        std::fs::write(&path, json).expect("write BENCH_kernels.json");
        println!("wrote {}", path.display());
        return;
    }
    // A deliberately hard family: 35% substitutions and 8% indels push
    // remote homologs toward the twilight zone, where kernel choice
    // starts to matter for sensitivity, not just speed.
    let queries = vec![random_sequence(Alphabet::Protein, "query0", 300, SEED + 90)];
    let family = FamilySpec {
        copies: 5,
        substitution_rate: 0.35,
        indel_rate: 0.08,
    };
    let db = SyntheticDb::generate_with_family(
        &DbSpec::protein_demo(600, 300),
        &queries[0],
        &family,
        SEED + 91,
    );
    let planted = db.planted_ids.clone();
    let db = db.sequences;
    let mut base_config = biodist_dsearch::DsearchConfig::protein_default();
    base_config.cost_scale = 400.0;
    eprintln!(
        "A5: kernel ablation, {} sequences, {} planted homologs, {MACHINES} machines",
        db.len(),
        planted.len()
    );

    let kernels = [
        KernelKind::SmithWaterman,
        KernelKind::Striped,
        KernelKind::SemiGlobal,
        KernelKind::NeedlemanWunsch,
        KernelKind::Banded { band: 32 },
    ];

    let mut table = Table::new(
        "A5: DSEARCH kernel choice (32 homogeneous machines)",
        &[
            "kernel",
            "makespan_s",
            "units",
            "homologs_in_top5",
            "margin",
        ],
    );
    for kind in kernels {
        let mut config = base_config.clone();
        config.kernel = kind;
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 30.0,
            ..Default::default()
        });
        let pid = server.submit(build_problem(db.clone(), queries.clone(), &config));
        let machines = homogeneous_lab(MACHINES, SEED + 300);
        let (report, mut server) = SimRunner::with_defaults(server, machines).run();
        let out = server
            .take_output(pid)
            .expect("output")
            .into_inner::<biodist_dsearch::SearchOutput>();
        let all = &out.hits[&queries[0].id];
        let top5 = &all[..5.min(all.len())];
        let found = top5.iter().filter(|h| planted.contains(&h.db_id)).count();
        let weakest_homolog = all
            .iter()
            .filter(|h| planted.contains(&h.db_id))
            .map(|h| h.score)
            .min()
            .unwrap_or(0);
        let strongest_background = all
            .iter()
            .filter(|h| !planted.contains(&h.db_id))
            .map(|h| h.score)
            .max()
            .unwrap_or(0);
        let margin = weakest_homolog - strongest_background;
        eprintln!(
            "  {:>16}: makespan {:>9.1} s, {}/{} homologs in top 5, margin {margin}",
            kind.name(),
            report.makespan,
            found,
            planted.len()
        );
        table.push_row(vec![
            kind.name(),
            format!("{:.1}", report.makespan),
            server.stats(pid).completed_units.to_string(),
            format!("{found}/{}", planted.len()),
            margin.to_string(),
        ]);
    }
    println!("{}", table.render_text());
    let path = results_dir().join("abl_kernels.csv");
    table.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
}
