//! Integration coverage for the extension features: campus network
//! topology, E-value annotation, and the phylogenetics analysis
//! toolkit (NJ).

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::Alphabet;
use biodist::core::builtin::integration_problem;
use biodist::core::{SchedulerConfig, Server, SimConfig, SimRunner};
use biodist::dsearch::{annotate_hits, DsearchConfig};
use biodist::gridsim::deployments::{campus_deployment, campus_network};
use biodist::phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist::phylo::model::{ModelKind, SubstModel};
use biodist::phylo::nj::{jc_distance_matrix, neighbor_joining};
use biodist::phylo::patterns::PatternAlignment;

#[test]
fn campus_topology_run_completes_with_correct_output() {
    let machines = campus_deployment(5);
    let network = campus_network(&machines);
    let mut server = Server::new(SchedulerConfig::default());
    let pid = server.submit(integration_problem(5_000_000));
    let (report, mut server) =
        SimRunner::with_network(server, machines, network, SimConfig::default()).run();
    let pi = server.take_output(pid).unwrap().into_inner::<f64>();
    assert!((pi - std::f64::consts::PI).abs() < 1e-8);
    assert!(report.makespan > 0.0);
    assert!(report.bytes_transferred > 0);
}

#[test]
fn campus_topology_is_deterministic() {
    let run = || {
        let machines = campus_deployment(6);
        let network = campus_network(&machines);
        let mut server = Server::new(SchedulerConfig::default());
        server.submit(integration_problem(2_000_000));
        let (report, _) =
            SimRunner::with_network(server, machines, network, SimConfig::default()).run();
        report.makespan.to_bits()
    };
    assert_eq!(run(), run());
}

#[test]
fn significance_annotation_flags_planted_homologs_only() {
    use biodist::dsearch::search_sequential;
    let query = random_sequence(Alphabet::Protein, "q", 100, 91);
    let fam = biodist::bioseq::synth::FamilySpec {
        copies: 2,
        substitution_rate: 0.1,
        indel_rate: 0.01,
    };
    let db = SyntheticDb::generate_with_family(&DbSpec::protein_demo(300, 100), &query, &fam, 92);
    let mut cfg = DsearchConfig::protein_default();
    cfg.top_hits = 302;
    let hits = search_sequential(&db.sequences, &[query], &cfg);
    let all = &hits["q"];
    let background: Vec<i32> = all.iter().map(|h| h.score).collect();
    let annotated = annotate_hits(&all[..10], &background, db.sequences.len());
    for a in &annotated {
        if db.planted_ids.contains(&a.hit.db_id) {
            assert!(
                a.e_value < 1e-4,
                "{} must be significant ({})",
                a.hit.db_id,
                a.e_value
            );
        } else {
            assert!(a.e_value > 1e-4, "{} should look like chance", a.hit.db_id);
        }
    }
}

#[test]
fn analysis_toolkit_round_trip_on_one_dataset() {
    // One dataset simulated down a known tree: NJ on its JC distances
    // must recover the generating topology.
    let truth = random_yule_tree(8, 0.15, 101);
    let gen = SubstModel::homogeneous(ModelKind::K80 { kappa: 6.0 });
    let seqs = simulate_alignment(&truth, &gen, 1200, None, 102);
    let data = PatternAlignment::from_sequences(&seqs);

    let nj = neighbor_joining(&jc_distance_matrix(&data));
    assert_eq!(
        nj.rf_distance(&truth),
        0,
        "NJ should recover 8 taxa from 1200 sites"
    );
}
