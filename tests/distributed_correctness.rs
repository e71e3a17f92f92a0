//! Cross-crate integration: the distributed system must produce exactly
//! the sequential answers, on both backends, under every scheduler
//! configuration, including when multiple heterogeneous applications
//! share one server.

use biodist::bioseq::synth::{random_sequence, DbSpec, FamilySpec, SyntheticDb};
use biodist::bioseq::{Alphabet, Sequence};
use biodist::core::{run_tcp, SchedulerConfig, Server, SimRunner};
use biodist::dprml::{build_problem as dprml_problem, DprmlConfig, PhyloOutput};
use biodist::dsearch::{
    build_problem as dsearch_problem, search_sequential, DsearchConfig, SearchOutput,
};
use biodist::gridsim::deployments::{heterogeneous_lab, homogeneous_lab};
use biodist::phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist::phylo::patterns::PatternAlignment;
use biodist::phylo::search::stepwise_ml;
use std::sync::Arc;

fn dsearch_inputs(seed: u64) -> (Vec<Sequence>, Vec<Sequence>, DsearchConfig) {
    let query = random_sequence(Alphabet::Protein, "q0", 100, seed);
    let fam = FamilySpec {
        copies: 3,
        substitution_rate: 0.12,
        indel_rate: 0.02,
    };
    let db =
        SyntheticDb::generate_with_family(&DbSpec::protein_demo(50, 90), &query, &fam, seed + 1);
    let mut cfg = DsearchConfig::protein_default();
    cfg.top_hits = 8;
    (db.sequences, vec![query], cfg)
}

fn dprml_inputs(seed: u64) -> (Arc<PatternAlignment>, DprmlConfig) {
    let truth = random_yule_tree(6, 0.12, seed);
    let config = DprmlConfig::default();
    let model = config.build_model();
    let seqs = simulate_alignment(&truth, &model, 120, None, seed + 1);
    (Arc::new(PatternAlignment::from_sequences(&seqs)), config)
}

fn tiny_units() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.002,
        prior_ops_per_sec: 1e8,
        min_unit_ops: 1.0,
        ..Default::default()
    }
}

#[test]
fn dsearch_equals_sequential_under_every_scheduler_config() {
    let (db, queries, cfg) = dsearch_inputs(11);
    let expected = search_sequential(&db, &queries, &cfg);
    for sched in [
        tiny_units(),
        SchedulerConfig {
            ..SchedulerConfig::naive()
        },
    ] {
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 0.002,
            ..sched
        });
        let pid = server.submit(dsearch_problem(db.clone(), queries.clone(), &cfg));
        let (mut server, _) = run_tcp(server, 5);
        let out = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>();
        assert_eq!(out.hits, expected);
    }
}

#[test]
fn mixed_applications_share_one_server_correctly() {
    let (db, queries, ds_cfg) = dsearch_inputs(21);
    let (data, dp_cfg) = dprml_inputs(22);
    let expected_hits = search_sequential(&db, &queries, &ds_cfg);
    let model = dp_cfg.build_model();
    let (expected_tree, expected_lnl) = stepwise_ml(&data, &model, None, &dp_cfg.search);

    let mut server = Server::new(tiny_units());
    let ds = server.submit(dsearch_problem(db, queries, &ds_cfg));
    let dp = server.submit(dprml_problem(data, &dp_cfg, None, "dprml"));
    let (mut server, _) = run_tcp(server, 6);

    let hits = server.take_output(ds).unwrap().into_inner::<SearchOutput>();
    assert_eq!(hits.hits, expected_hits);
    let phylo = server.take_output(dp).unwrap().into_inner::<PhyloOutput>();
    assert_eq!(phylo.tree.rf_distance(&expected_tree), 0);
    assert!((phylo.ln_likelihood - expected_lnl).abs() < 1e-9);
}

#[test]
fn simulated_and_threaded_backends_agree() {
    let (db, queries, cfg) = dsearch_inputs(31);
    // Threaded.
    let mut s1 = Server::new(tiny_units());
    let p1 = s1.submit(dsearch_problem(db.clone(), queries.clone(), &cfg));
    let (mut s1, _) = run_tcp(s1, 4);
    let threaded = s1.take_output(p1).unwrap().into_inner::<SearchOutput>();
    // Simulated on a heterogeneous pool.
    let mut s2 = Server::new(SchedulerConfig::default());
    let p2 = s2.submit(dsearch_problem(db, queries, &cfg));
    let (_, mut s2) = SimRunner::with_defaults(s2, heterogeneous_lab(7, 5)).run();
    let simulated = s2.take_output(p2).unwrap().into_inner::<SearchOutput>();
    assert_eq!(threaded.hits, simulated.hits);
}

#[test]
fn dprml_insertion_order_changes_nothing_about_validity() {
    let (data, cfg) = dprml_inputs(41);
    let n = data.taxon_count();
    let reversed: Vec<usize> = (0..n).rev().collect();
    let mut server = Server::new(tiny_units());
    let pid = server.submit(dprml_problem(
        data.clone(),
        &cfg,
        Some(reversed.clone()),
        "rev",
    ));
    let (mut server, _) = run_tcp(server, 4);
    let out = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();
    out.tree.validate().unwrap();
    // Must match the sequential reference run with the same order.
    let model = cfg.build_model();
    let (ref_tree, ref_lnl) = stepwise_ml(&data, &model, Some(&reversed), &cfg.search);
    assert_eq!(out.tree.rf_distance(&ref_tree), 0);
    assert!((out.ln_likelihood - ref_lnl).abs() < 1e-9);
}

#[test]
fn six_simultaneous_dprml_instances_agree_with_each_other() {
    let (data, cfg) = dprml_inputs(51);
    let mut server = Server::new(tiny_units());
    let pids: Vec<_> = (0..6)
        .map(|i| server.submit(dprml_problem(data.clone(), &cfg, None, &format!("i{i}"))))
        .collect();
    let machines = homogeneous_lab(12, 52);
    let (report, mut server) = SimRunner::with_defaults(server, machines).run();
    let outs: Vec<PhyloOutput> = pids
        .iter()
        .map(|&p| server.take_output(p).unwrap().into_inner::<PhyloOutput>())
        .collect();
    for pair in outs.windows(2) {
        assert_eq!(pair[0].tree.rf_distance(&pair[1].tree), 0);
        assert!((pair[0].ln_likelihood - pair[1].ln_likelihood).abs() < 1e-9);
    }
    assert_eq!(report.problem_completion.len(), 6);
}
