//! Seeded experiment workloads, shared by the figure binaries and the
//! integration tests so every run measures the same inputs.

use biodist_bioseq::synth::{random_sequence, DbSpec, FamilySpec, SyntheticDb};
use biodist_bioseq::{Alphabet, Sequence};
use biodist_dprml::DprmlConfig;
use biodist_dsearch::DsearchConfig;
use biodist_phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist_phylo::model::ModelKind;
use biodist_phylo::patterns::PatternAlignment;
use std::sync::Arc;

/// Master seed for every figure workload.
pub const SEED: u64 = 20050404; // IPDPS'05 week

/// Fig. 1 workload: a synthetic protein database with planted homologs
/// and three query sequences, sized so the 1-processor virtual runtime
/// is in the paper's hours range (see `cost_scale` docs).
pub fn fig1_inputs() -> (Vec<Sequence>, Vec<Sequence>, DsearchConfig) {
    let queries: Vec<Sequence> = (0..3)
        .map(|i| {
            random_sequence(
                Alphabet::Protein,
                &format!("query{i}"),
                300,
                SEED + i as u64,
            )
        })
        .collect();
    let fam = FamilySpec {
        copies: 5,
        substitution_rate: 0.2,
        indel_rate: 0.02,
    };
    let db = SyntheticDb::generate_with_family(
        &DbSpec::protein_demo(1000, 300),
        &queries[0],
        &fam,
        SEED + 10,
    );
    let mut config = DsearchConfig::protein_default();
    // 400 abstract ops per DP cell ≈ 2.5·10⁴ cells/s on a PIII-1000,
    // the right ballpark for the paper's 2004 Java full-alignment
    // kernels, and large enough that even the 83-machine run spans many
    // owner-activity cycles (so speedups average over the traces).
    config.cost_scale = 400.0;
    (db.sequences, queries, config)
}

/// The processor counts swept for Fig. 1 (the paper's x-axis runs to
/// its 83-machine laboratory).
pub const FIG1_PROCESSORS: &[usize] = &[1, 2, 4, 8, 16, 24, 32, 48, 64, 83];

/// Fig. 2 workload: a 50-taxon synthetic DNA alignment (evolved down a
/// random tree) and a DPRml configuration tuned so six instances keep a
/// 40-machine pool busy.
pub fn fig2_inputs() -> (Arc<PatternAlignment>, DprmlConfig) {
    let truth = random_yule_tree(50, 0.1, SEED + 20);
    let mut config = DprmlConfig {
        model: ModelKind::Hky85 {
            kappa: 4.0,
            freqs: [0.25; 4],
        },
        ..Default::default()
    };
    // One branch-length sweep per candidate / stage keeps real compute
    // tractable; the search *shape* (stage structure, unit counts) is
    // what the figure measures.
    config.search.candidate_rounds = 1;
    config.search.refine_rounds = 1;
    config.search.nni = false;
    // Full refinement every 5th insertion: keeps the serial per-stage
    // work small (Amdahl), exactly as fastDNAml-style tools defer
    // global smoothing.
    config.search.refine_every = 5;
    // ~20 ops per modelled flop: PAL-era Java likelihood throughput.
    config.cost_scale = 20.0;
    let model = config.build_model();
    let seqs = simulate_alignment(&truth, &model, 200, None, SEED + 21);
    (Arc::new(PatternAlignment::from_sequences(&seqs)), config)
}

/// The processor counts swept for Fig. 2 (paper: 5–40).
pub const FIG2_PROCESSORS: &[usize] = &[5, 10, 15, 20, 25, 30, 35, 40];

/// Number of simultaneous problem instances in Fig. 2.
pub const FIG2_INSTANCES: usize = 6;

/// Per-instance taxon insertion orders for Fig. 2: instance 0 uses the
/// natural order, the rest use seeded random addition orders — the
/// "jumble" of fastDNAml, and the reason biologists run several
/// stochastic instances at once (paper §3.2). Distinct orders also
/// desynchronise the instances' stage barriers.
pub fn fig2_orders(n_taxa: usize) -> Vec<Vec<usize>> {
    use biodist_util::rng::{shuffle, Xoshiro256StarStar};
    (0..FIG2_INSTANCES)
        .map(|i| {
            let mut order: Vec<usize> = (0..n_taxa).collect();
            if i > 0 {
                let mut rng = Xoshiro256StarStar::new(SEED + 40 + i as u64);
                shuffle(&mut order, &mut rng);
            }
            order
        })
        .collect()
}

/// A small seeded DSEARCH server for the ops-plane tools (`abl_report
/// gen`, `biodist_top`): one query against a 150-sequence synthetic
/// protein database, ~24 units of ~10 virtual seconds each.
pub fn demo_dsearch_server(seed: u64) -> biodist_core::Server {
    use biodist_core::{SchedulerConfig, Server};
    let query = random_sequence(Alphabet::Protein, "query0", 200, seed);
    let fam = FamilySpec {
        copies: 3,
        substitution_rate: 0.2,
        indel_rate: 0.02,
    };
    let db =
        SyntheticDb::generate_with_family(&DbSpec::protein_demo(150, 200), &query, &fam, seed + 10);
    let mut config = DsearchConfig::protein_default();
    config.cost_scale = 400.0;
    let sched = SchedulerConfig {
        target_unit_secs: 10.0,
        ..Default::default()
    };
    let mut server = Server::new(sched);
    server.submit(biodist_dsearch::build_problem(
        db.sequences,
        vec![query],
        &config,
    ));
    server
}

/// A small seeded DPRml server for the ops-plane tools: one 10-taxon
/// instance with a single candidate/refine round.
pub fn demo_dprml_server(seed: u64) -> biodist_core::Server {
    use biodist_core::{SchedulerConfig, Server};
    let truth = random_yule_tree(10, 0.12, seed);
    let mut config = DprmlConfig::default();
    config.search.candidate_rounds = 1;
    config.search.refine_rounds = 1;
    config.search.nni = false;
    config.search.refine_every = 3;
    config.cost_scale = 20.0;
    let model = config.build_model();
    let seqs = simulate_alignment(&truth, &model, 100, None, seed + 1);
    let data = Arc::new(PatternAlignment::from_sequences(&seqs));
    let sched = SchedulerConfig {
        target_unit_secs: 20.0,
        ..Default::default()
    };
    let mut server = Server::new(sched);
    server.submit(biodist_dprml::build_problem(data, &config, None, "dprml-0"));
    server
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_inputs_are_deterministic_and_sized() {
        let (db_a, q_a, cfg) = fig1_inputs();
        let (db_b, _, _) = fig1_inputs();
        assert_eq!(db_a, db_b);
        assert_eq!(db_a.len(), 1005, "1000 background + 5 planted");
        assert_eq!(q_a.len(), 3);
        assert_eq!(cfg.cost_scale, 400.0);
    }

    #[test]
    fn fig2_inputs_are_deterministic_and_sized() {
        let (a, cfg) = fig2_inputs();
        let (b, _) = fig2_inputs();
        assert_eq!(*a, *b);
        assert_eq!(a.taxon_count(), 50);
        assert_eq!(a.site_count(), 200);
        assert!(!cfg.search.nni);
    }
}
