//! A complete phylogenetics pipeline on the distributed system.
//!
//! The workflow a biologist would actually run with these tools:
//!
//! 1. neighbor-joining guide tree from JC distances (instant),
//! 2. distributed DPRml search under the substitution model, with a
//!    distance-diverse (maximin) taxon addition order.
//!
//! The search runs at the generating parameters (κ = 5, Γ shape
//! α = 0.6): the repository fits no model parameters, so a real run
//! would take them from a model-selection tool.
//!
//! Run with: `cargo run --release --example phylo_pipeline`

use biodist::core::{run_tcp, SchedulerConfig, Server};
use biodist::dprml::{build_problem, DprmlConfig, PhyloOutput};
use biodist::phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist::phylo::lik::log_likelihood;
use biodist::phylo::model::{GammaRates, ModelKind, SubstModel};
use biodist::phylo::nj::{jc_distance_matrix, maximin_order, neighbor_joining};
use biodist::phylo::patterns::PatternAlignment;
use std::sync::Arc;

fn main() {
    // --- data: simulated under HKY85(kappa 5) + Γ(0.6), 10 taxa -------
    let truth = random_yule_tree(10, 0.14, 404);
    let kind = ModelKind::Hky85 {
        kappa: 5.0,
        freqs: [0.3, 0.2, 0.2, 0.3],
    };
    let true_model = SubstModel::new(kind.clone(), GammaRates::gamma(0.6, 4));
    let names: Vec<String> = (0..10).map(|i| format!("sp{i:02}")).collect();
    let seqs = simulate_alignment(&truth, &true_model, 1200, Some(&names), 405);
    let data = Arc::new(PatternAlignment::from_sequences(&seqs));
    println!(
        "dataset: {} taxa x {} sites ({} patterns), truth: HKY85(5.0)+G(0.6)",
        data.taxon_count(),
        data.site_count(),
        data.pattern_count()
    );

    // --- step 1: NJ guide tree -----------------------------------------
    let distances = jc_distance_matrix(&data);
    let guide = neighbor_joining(&distances);
    println!(
        "\n[1] NJ guide tree: RF distance to truth = {}",
        guide.rf_distance(&truth)
    );

    // --- step 2: distributed ML search at the generating parameters ---
    let config = DprmlConfig {
        model: kind,
        gamma_alpha: Some(0.6),
        gamma_categories: 4,
        ..Default::default()
    };
    let order = maximin_order(&distances);
    let mut server = Server::new(SchedulerConfig {
        target_unit_secs: 0.02,
        prior_ops_per_sec: 2e8,
        min_unit_ops: 1.0,
        ..Default::default()
    });
    let pid = server.submit(build_problem(
        data.clone(),
        &config,
        Some(order),
        "pipeline",
    ));
    let (mut server, elapsed) = run_tcp(server, 8);
    let out = server
        .take_output(pid)
        .expect("complete")
        .into_inner::<PhyloOutput>();
    println!(
        "\n[2] distributed DPRml under HKY85(5.0)+G(0.6): lnL {:.2} in {elapsed:.1} s wall clock, RF to truth = {}",
        out.ln_likelihood,
        out.tree.rf_distance(&truth)
    );
    // ML under the model should beat the NJ guide under the same model.
    let guide_lnl = log_likelihood(&guide, &data, &config.build_model());
    println!("    (NJ guide tree scores {guide_lnl:.2} under the same model)");
    assert!(
        out.ln_likelihood >= guide_lnl - 1e-6,
        "ML must not lose to its guide"
    );

    assert!(
        out.tree.rf_distance(&truth) <= 2,
        "1200 sites should ~recover 10 taxa"
    );
    println!("\nfinal tree:\n{}", out.newick);
}
