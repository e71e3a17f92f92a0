//! Ablation A6 — DPRml likelihood kernel backends: stage-evaluation
//! throughput.
//!
//! PR 1 measured the DSEARCH alignment kernels (`abl_kernels`); this is
//! the companion tier for DPRml's Felsenstein-pruning kernels. The
//! workload is exactly the work-unit computation a DPRml *stage* fans
//! out: insert the next taxon into every edge of the current base tree
//! (`evaluate_insertion`, local-candidate branch optimisation), one
//! engine per stage so the transition-matrix cache behaves as it does
//! inside `DprmlAlgo::compute`.
//!
//! Run with: `cargo run -p biodist-bench --release --bin abl_likelihood`
//! for the per-model × per-backend table (`results/abl_likelihood.csv`);
//! `--smoke` measures the default stage workload only and writes
//! `BENCH_likelihood.json` at the workspace root — the measurement
//! behind DPRml's `OPS_PER_NODE_UPDATE` cost recalibration.

use biodist_bench::harness::results_dir;
use biodist_bench::Runner;
use biodist_phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist_phylo::lik::TreeLikelihood;
use biodist_phylo::lik_simd::LikBackend;
use biodist_phylo::model::{GammaRates, ModelKind, SubstModel};
use biodist_phylo::patterns::PatternAlignment;
use biodist_phylo::search::{evaluate_insertion, SearchOptions};
use biodist_phylo::tree::Tree;
use biodist_util::table::Table;

/// Taxa in the base tree; the stage inserts taxon `BASE_TAXA`.
const BASE_TAXA: usize = 16;
const SITES: usize = 600;
const SEED: u64 = 46;

struct StageWorkload {
    data: PatternAlignment,
    base: Tree,
    next_taxon: usize,
}

fn stage_workload(model: &SubstModel) -> StageWorkload {
    let truth = random_yule_tree(BASE_TAXA + 1, 0.12, SEED);
    let seqs = simulate_alignment(&truth, model, SITES, None, SEED + 1);
    let data = PatternAlignment::from_sequences(&seqs);
    // Deterministic base tree over taxa 0..BASE_TAXA, mirroring the
    // stepwise-insertion state a mid-run DPRml stage sees.
    let mut base = Tree::initial_triple([0, 1, 2], 0.1);
    for t in 3..BASE_TAXA {
        let edges = base.edges();
        let e = edges[(t * 7) % edges.len()];
        base.insert_leaf(e, t, 0.1);
    }
    StageWorkload {
        data,
        base,
        next_taxon: BASE_TAXA,
    }
}

/// Measures one full stage evaluation (every candidate edge) under
/// `backend`; returns nominal node-updates per second.
fn measure_stage(
    runner: &mut Runner,
    label: &str,
    model: &SubstModel,
    wl: &StageWorkload,
    backend: LikBackend,
) -> f64 {
    let engine = TreeLikelihood::with_backend(model, &wl.data, backend);
    let opts = SearchOptions::default();
    let edges = wl.base.edges();
    // Nominal work: one pruning traversal of the candidate tree per
    // candidate edge. The same count is charged to every backend, so
    // ratios are exact even though the SIMD path does fewer raw flops.
    let node_updates = engine.traversal_cost(&wl.base) * edges.len() as u64;
    let m = runner.run(label, Some(node_updates), || {
        edges
            .iter()
            .map(|&e| evaluate_insertion(&wl.base, wl.next_taxon, e, &engine, &opts).ln_likelihood)
            .sum::<f64>()
    });
    m.elems_per_sec().expect("elements declared")
}

fn smoke() -> String {
    let model = SubstModel::homogeneous(ModelKind::Hky85 {
        kappa: 4.0,
        freqs: [0.25; 4],
    });
    let wl = stage_workload(&model);
    let mut runner = Runner::new();
    let mut rates: Vec<(LikBackend, f64)> = Vec::new();
    for backend in LikBackend::supported() {
        let rate = measure_stage(
            &mut runner,
            &format!("stage_eval/{}", backend.name()),
            &model,
            &wl,
            backend,
        );
        rates.push((backend, rate));
    }
    runner.report(&format!(
        "abl_likelihood --smoke: insert taxon {} into every edge of a {BASE_TAXA}-taxon tree, {SITES} sites hky85",
        wl.next_taxon
    ));

    let portable = rates
        .iter()
        .find(|(b, _)| *b == LikBackend::Portable)
        .expect("portable baseline")
        .1;
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": \"stage evaluation: insert taxon {} into every edge of a {BASE_TAXA}-taxon base tree, {SITES} sites, hky85 kappa=4, local candidates, {} optimisation rounds\",\n",
        wl.next_taxon,
        SearchOptions::default().candidate_rounds
    ));
    json.push_str(&format!(
        "  \"detected\": \"{}\",\n",
        LikBackend::detect().name()
    ));
    json.push_str("  \"backends\": {\n");
    for (i, (backend, rate)) in rates.iter().enumerate() {
        let sep = if i + 1 == rates.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{ \"node_updates_per_sec\": {rate:.0}, \"speedup_vs_portable\": {:.2} }}{sep}\n",
            backend.name(),
            rate / portable
        ));
    }
    json.push_str("  }\n}\n");

    let best = rates
        .iter()
        .find(|(b, _)| *b == LikBackend::detect())
        .unwrap_or(rates.last().expect("nonempty"));
    println!(
        "likelihood {} vs portable: {:.1}x ({:.0} vs {:.0} node updates/s)",
        best.0.name(),
        best.1 / portable,
        best.1,
        portable
    );
    json
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        let json = smoke();
        // results_dir() is `<workspace>/results`; the JSON snapshot
        // lives next to it at the workspace root.
        let path = results_dir().join("..").join("BENCH_likelihood.json");
        std::fs::write(&path, json).expect("write BENCH_likelihood.json");
        println!("wrote {}", path.display());
        return;
    }

    let models = [
        (
            "hky85",
            SubstModel::homogeneous(ModelKind::Hky85 {
                kappa: 4.0,
                freqs: [0.25; 4],
            }),
        ),
        (
            "gtr_gamma4",
            SubstModel::new(
                ModelKind::Gtr {
                    rates: [1.0, 2.5, 0.8, 1.1, 3.0, 1.0],
                    freqs: [0.3, 0.2, 0.2, 0.3],
                },
                GammaRates::gamma(0.5, 4),
            ),
        ),
    ];

    let mut runner = Runner::new();
    let mut table = Table::new(
        "A6: DPRml likelihood backends (stage evaluation)",
        &[
            "model",
            "backend",
            "node_updates_per_sec",
            "speedup_vs_portable",
        ],
    );
    for (model_name, model) in &models {
        let wl = stage_workload(model);
        let mut portable_rate = None;
        for backend in LikBackend::supported() {
            let rate = measure_stage(
                &mut runner,
                &format!("stage_eval/{model_name}/{}", backend.name()),
                model,
                &wl,
                backend,
            );
            // `supported()` lists portable first.
            let portable = *portable_rate.get_or_insert(rate);
            eprintln!(
                "  {model_name:>10} / {:>8}: {:>12.0} node updates/s ({:.1}x)",
                backend.name(),
                rate,
                rate / portable
            );
            table.push_row(vec![
                model_name.to_string(),
                backend.name().to_string(),
                format!("{rate:.0}"),
                format!("{:.2}", rate / portable),
            ]);
        }
    }
    runner.report("A6: likelihood backends, stage-evaluation workload");
    let path = results_dir().join("abl_likelihood.csv");
    table.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
}
