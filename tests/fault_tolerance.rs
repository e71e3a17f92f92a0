//! Fault-tolerance integration: donor churn must never change results,
//! only cost time — the property that makes cycle-scavenging viable on
//! machines whose owners can reclaim or reboot them at any moment.
//!
//! All churn here is expressed as [`FaultPlan`] data rather than by
//! mutating machine descriptors, so the *same* scenario runs unchanged
//! on the simulator's virtual clock and on real threads against a
//! scaled wall clock.

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::Alphabet;
use biodist::core::{run_tcp_faulty, FaultKind, FaultPlan, SchedulerConfig, Server, SimRunner};
use biodist::dprml::{build_problem as dprml_problem, DprmlConfig, PhyloOutput};
use biodist::dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};
use biodist::gridsim::deployments::homogeneous_lab;
use biodist::phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist::phylo::patterns::PatternAlignment;
use std::sync::Arc;

fn workload() -> (
    Vec<biodist::bioseq::Sequence>,
    Vec<biodist::bioseq::Sequence>,
    DsearchConfig,
) {
    let queries = vec![random_sequence(Alphabet::Protein, "q", 120, 3)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(80, 120), 4);
    let mut cfg = DsearchConfig::protein_default();
    // Large enough that the run spans every scheduled departure/arrival.
    cfg.cost_scale = 60_000.0;
    (db.sequences, queries, cfg)
}

/// `departures` clients leave permanently, staggered from `t0` every
/// `dt` seconds (virtual seconds on the sim, scaled seconds on threads).
fn churn_plan(departures: usize, t0: f64, dt: f64) -> FaultPlan {
    let mut plan = FaultPlan::new(0);
    for k in 0..departures {
        plan.push(t0 + dt * k as f64, k, FaultKind::Depart);
    }
    plan
}

/// Thread-backend scheduler tuning: times are in scaled seconds and the
/// throughput prior sits near real debug-build speed so the first
/// leases are not enormous.
fn thread_cfg() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.03,
        prior_ops_per_sec: 2e10,
        lease_min_secs: 0.5,
        ..Default::default()
    }
}

/// Scaled seconds per wall second for thread-backend runs.
const TIME_SCALE: f64 = 50.0;

#[test]
fn departures_mid_run_do_not_change_dsearch_results() {
    let (db, queries, cfg) = workload();
    let expected = search_sequential(&db, &queries, &cfg);
    let mut server = Server::new(SchedulerConfig {
        lease_min_secs: 60.0,
        ..Default::default()
    });
    let pid = server.submit(build_problem(db, queries, &cfg));
    let (report, mut server) = SimRunner::with_defaults(server, homogeneous_lab(10, 9))
        .with_faults(churn_plan(4, 40.0, 25.0))
        .run();
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(out.hits, expected, "results identical despite 4 departures");
    assert!(report.makespan.is_finite());
}

#[test]
fn departures_on_real_threads_do_not_change_dsearch_results() {
    let (db, queries, cfg) = workload();
    let expected = search_sequential(&db, &queries, &cfg);
    let mut server = Server::new(thread_cfg());
    let pid = server.submit(build_problem(db, queries, &cfg));
    // Two of six workers quit early in the run (times in scaled secs).
    let (mut server, _) = run_tcp_faulty(server, 6, &churn_plan(2, 0.1, 0.1), TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(out.hits, expected, "results identical despite departures");
}

#[test]
fn churn_costs_time_but_reissues_recover_everything() {
    let (db, queries, cfg) = workload();
    let run = |plan: FaultPlan| {
        let (db, queries) = (db.clone(), queries.clone());
        let mut server = Server::new(SchedulerConfig::default());
        let pid = server.submit(build_problem(db, queries, &cfg));
        let (report, server) = SimRunner::with_defaults(server, homogeneous_lab(12, 9))
            .with_faults(plan)
            .run();
        (report.makespan, server.stats(pid).reissued_units)
    };
    let (clean_time, clean_reissued) = run(FaultPlan::none());
    let (churn_time, churn_reissued) = run(churn_plan(6, 40.0, 25.0));
    assert_eq!(clean_reissued, 0, "no churn, no reissue");
    assert!(churn_reissued > 0, "departures must orphan some leases");
    assert!(
        churn_time > clean_time,
        "losing half the pool must cost time ({churn_time} vs {clean_time})"
    );
}

#[test]
fn dprml_survives_churn_with_identical_tree() {
    let truth = random_yule_tree(6, 0.12, 61);
    let config = DprmlConfig::default();
    let model = config.build_model();
    let seqs = simulate_alignment(&truth, &model, 100, None, 62);
    let data = Arc::new(PatternAlignment::from_sequences(&seqs));
    let sim_run = |plan: FaultPlan| {
        let mut server = Server::new(SchedulerConfig::default());
        let pid = server.submit(dprml_problem(data.clone(), &config, None, "d"));
        let (_, mut server) = SimRunner::with_defaults(server, homogeneous_lab(8, 63))
            .with_faults(plan)
            .run();
        server.take_output(pid).unwrap().into_inner::<PhyloOutput>()
    };
    let clean = sim_run(FaultPlan::none());
    let churned = sim_run(churn_plan(3, 40.0, 25.0));
    assert_eq!(clean.tree.rf_distance(&churned.tree), 0);
    assert!((clean.ln_likelihood - churned.ln_likelihood).abs() < 1e-9);

    // The same instance under churn on real threads grows the same tree.
    let mut server = Server::new(thread_cfg());
    let pid = server.submit(dprml_problem(data.clone(), &config, None, "t"));
    let (mut server, _) = run_tcp_faulty(server, 6, &churn_plan(2, 0.1, 0.1), TIME_SCALE);
    let threaded = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();
    assert_eq!(clean.tree.rf_distance(&threaded.tree), 0);
    assert!((clean.ln_likelihood - threaded.ln_likelihood).abs() < 1e-9);
}

#[test]
fn late_arrivals_join_and_accelerate_the_tail() {
    let (db, queries, cfg) = workload();
    let base = {
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(build_problem(db.clone(), queries.clone(), &cfg));
        let (report, _) = SimRunner::with_defaults(server, homogeneous_lab(2, 9)).run();
        report.makespan
    };
    let reinforced = {
        // Four extra machines join at 25% of the two-machine makespan,
        // expressed as LateJoin fault events rather than arrival times.
        let mut plan = FaultPlan::new(0);
        for m in 2..6 {
            plan.push(base * 0.25, m, FaultKind::LateJoin);
        }
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(build_problem(db, queries, &cfg));
        let (report, _) = SimRunner::with_defaults(server, homogeneous_lab(6, 9))
            .with_faults(plan)
            .run();
        report.makespan
    };
    assert!(
        reinforced < base * 0.75,
        "late reinforcements must shorten the run ({reinforced} vs {base})"
    );
}

#[test]
fn late_arrivals_on_real_threads_still_produce_identical_results() {
    let (db, queries, cfg) = workload();
    let expected = search_sequential(&db, &queries, &cfg);
    let plan =
        FaultPlan::new(0)
            .with(0.2, 2, FaultKind::LateJoin)
            .with(0.3, 3, FaultKind::LateJoin);
    let mut server = Server::new(thread_cfg());
    let pid = server.submit(build_problem(db, queries, &cfg));
    let (mut server, _) = run_tcp_faulty(server, 4, &plan, TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(out.hits, expected, "late joiners must not change results");
}
