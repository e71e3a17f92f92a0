//! DPRml demo: distributed maximum-likelihood phylogeny, end to end.
//!
//! Simulates a DNA alignment down a known 12-taxon tree, configures
//! DPRml from its configuration-file format (HKY85 + Γ rates), runs the
//! distributed stepwise-insertion search on loopback TCP donors
//! (`run_tcp`), and compares the recovered topology against both the
//! sequential reference and the generating tree.
//!
//! Run with: `cargo run --release --example dprml_demo`

use biodist::core::{run_tcp, SchedulerConfig, Server};
use biodist::dprml::{build_problem, DprmlConfig, PhyloOutput};
use biodist::phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist::phylo::newick::to_newick;
use biodist::phylo::patterns::PatternAlignment;
use biodist::phylo::search::stepwise_ml;
use std::sync::Arc;

fn main() {
    // --- synthetic dataset from a known tree ------------------------
    let n_taxa = 12;
    let truth = random_yule_tree(n_taxa, 0.12, 2005);
    let config = DprmlConfig::parse(
        "model            = hky85:4.0\n\
         gamma_alpha      = 0.8\n\
         gamma_categories = 4\n\
         candidate_rounds = 2\n\
         refine_rounds    = 3\n\
         nni              = true\n",
    )
    .expect("valid configuration");
    let model = config.build_model();
    let names: Vec<String> = (0..n_taxa).map(|i| format!("taxon{i:02}")).collect();
    let seqs = simulate_alignment(&truth, &model, 600, Some(&names), 2006);
    let data = Arc::new(PatternAlignment::from_sequences(&seqs));
    println!(
        "alignment: {} taxa x {} sites ({} distinct patterns), model HKY85+G4",
        data.taxon_count(),
        data.site_count(),
        data.pattern_count()
    );

    // --- sequential reference ---------------------------------------
    let (ref_tree, ref_lnl) = stepwise_ml(&data, &model, None, &config.search);
    println!("sequential reference lnL: {ref_lnl:.3}");

    // --- distributed run ---------------------------------------------
    let mut server = Server::new(SchedulerConfig {
        target_unit_secs: 0.01,
        prior_ops_per_sec: 1e8,
        min_unit_ops: 1.0,
        ..Default::default()
    });
    let pid = server.submit(build_problem(data.clone(), &config, None, "dprml-demo"));
    let (mut server, elapsed) = run_tcp(server, 8);
    let out = server
        .take_output(pid)
        .expect("complete")
        .into_inner::<PhyloOutput>();
    let stats = server.stats(pid);
    println!(
        "distributed run: lnL {:.3} in {elapsed:.2} s wall clock, {} work units",
        out.ln_likelihood, stats.completed_units
    );

    // --- checks --------------------------------------------------------
    assert_eq!(
        out.tree.rf_distance(&ref_tree),
        0,
        "distributed topology must equal the sequential reference"
    );
    assert!((out.ln_likelihood - ref_lnl).abs() < 1e-6);
    let rf_to_truth = out.tree.rf_distance(&truth);
    println!("Robinson-Foulds distance to the generating tree: {rf_to_truth}");
    println!("\nrecovered tree:\n  {}", out.newick);
    println!("\ngenerating tree:\n  {}", to_newick(&truth, &names));
    assert!(
        rf_to_truth <= 4,
        "600 sites should nearly recover a 12-taxon topology (rf = {rf_to_truth})"
    );
}
