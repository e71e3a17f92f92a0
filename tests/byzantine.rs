//! Byzantine chaos tier: seeded sweeps in which 10–30% of the donor
//! pool returns *plausible but wrong* results (`FaultKind::WrongResult`
//! flips a payload byte before CRC framing, so the wire layer cannot
//! catch it). With K-way quorum enabled (`quorum_k = 3`) the server
//! must still reproduce the fault-free sequential digest bit-for-bit
//! on every backend, dispute every delivered lie, and promote honest
//! donors to single-issue trust — all asserted from the metrics
//! registry. A negative control shows the same plans *do* corrupt the
//! digest when quorum is off (K = 1).
//!
//! Every failure panics with the offending `(seed, plan, quorum
//! config)`; replay a single seed with:
//!
//! ```text
//! BIODIST_CHAOS_SEED=<seed> cargo test --test byzantine
//! ```
//!
//! Lies are scheduled on each Byzantine donor's *first* computes (the
//! plan horizon passed to `FaultPlan::byzantine` is far shorter than
//! the run). A donor with zero quorum agreements is never trusted, so
//! every lie meets a cross-check — and because the flip is
//! client-distinct, two liars can never agree with each other. Honest
//! behaviour afterwards may still earn the donor promotion, which is
//! then harmless. This makes the sweep deterministic: no seed can
//! promote a donor that still has a lie pending.

use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::{Alphabet, Sequence};
use biodist::core::{
    audited, run_tcp_faulty, ChaosOptions, FaultPlan, SchedulerConfig, Server, SimRunner, Telemetry,
};
use biodist::dprml::{build_problem as dprml_problem, DprmlConfig, PhyloOutput};
use biodist::dsearch::{
    build_problem as dsearch_problem, search_sequential, DsearchConfig, SearchOutput,
};
use biodist::gridsim::deployments::homogeneous_lab;
use biodist::phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist::phylo::patterns::PatternAlignment;
use biodist::phylo::search::stepwise_ml;
use std::sync::Arc;

// ----------------------------------------------------------- sweep sizes

/// Seeds per application on the simulated backend.
const SIM_SEEDS: u64 = 100;
/// Fixed subset the CI byzantine smoke runs (`--test byzantine smoke`).
/// Chosen so the Byzantine donors land on machines that actually
/// receive work even on the tiny staged DPRml workload (its one-unit
/// stages only ever reach the first few donors in the pool — a plan
/// whose liars all sit idle injects nothing and proves nothing).
const SMOKE_SEEDS: [u64; 6] = [0, 8, 9, 16, 18, 25];
/// Fixed seeds for the TCP sweep that earns trust (96-sequence
/// database, units capped at the floor).
const THREAD_SEEDS: [u64; 4] = [0, 8, 9, 18];
/// Fixed seeds for the real-TCP backend sweep.
const TCP_SEEDS: [u64; 3] = [0, 8, 18];

/// Pool size for every byzantine run.
const POOL: usize = 6;
/// Redundant copies per unit for untrusted donors.
const QUORUM_K: u32 = 3;
/// Wrong results per Byzantine donor.
const WRONGS_PER_DONOR: usize = 4;
/// Plan horizon for lie scheduling, virtual seconds: tiny, so every
/// lie lands on one of the donor's first computes (see module docs).
const LIE_HORIZON_SIM: f64 = 1e-4;
/// Same for the TCP backend, scaled seconds.
const LIE_HORIZON_REAL: f64 = 0.02;
/// TCP clock scale: scaled seconds per wall second.
const TIME_SCALE: f64 = 50.0;

fn sweep_seeds(n: u64) -> Vec<u64> {
    match std::env::var("BIODIST_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("BIODIST_CHAOS_SEED must be a u64")],
        Err(_) => (0..n).collect(),
    }
}

fn fixed_seeds(fixed: &[u64]) -> Vec<u64> {
    match std::env::var("BIODIST_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("BIODIST_CHAOS_SEED must be a u64")],
        Err(_) => fixed.to_vec(),
    }
}

/// Byzantine fraction for a seed, cycling 10% → 30% of the pool.
fn byz_frac(seed: u64) -> f64 {
    0.10 + 0.05 * (seed % 5) as f64
}

fn quorum_cfg(base: SchedulerConfig) -> SchedulerConfig {
    SchedulerConfig {
        quorum_k: QUORUM_K,
        reputation_threshold: 4,
        enable_speculative_reissue: true,
        ..base
    }
}

/// Scheduler tuning for TCP byzantine runs (same rationale as the chaos
/// suite: scaled-second leases, realistic throughput prior).
fn thread_cfg() -> SchedulerConfig {
    SchedulerConfig {
        target_unit_secs: 0.03,
        prior_ops_per_sec: 2e10,
        lease_min_secs: 0.5,
        ..Default::default()
    }
}

/// Byzantine-failure panic: replay command, seed, plan, and the quorum
/// / reputation configuration the run used (without it a replay with
/// the wrong K silently passes).
fn byz_panic(
    app: &str,
    backend: &str,
    seed: u64,
    plan: &FaultPlan,
    cfg: &SchedulerConfig,
    why: String,
) -> ! {
    panic!(
        "byzantine failure [{app}/{backend}] — replay with BIODIST_CHAOS_SEED={seed} \
         cargo test --test byzantine\n  why: {why}\n  seed: {seed}\n  \
         quorum: k={} reputation_threshold={} speculative={}\n  \
         plan digest: {:#018x}\n  plan: {plan:?}",
        cfg.quorum_k,
        cfg.reputation_threshold,
        cfg.enable_speculative_reissue,
        plan.digest()
    )
}

// ------------------------------------------------------------- workloads

struct DsearchWorkload {
    db: Vec<Sequence>,
    queries: Vec<Sequence>,
    cfg: DsearchConfig,
    reference: u64,
}

fn dsearch_workload() -> DsearchWorkload {
    dsearch_workload_of(24)
}

/// The dsearch workload over a database of `db_len` sequences.
fn dsearch_workload_of(db_len: usize) -> DsearchWorkload {
    let queries = vec![random_sequence(Alphabet::Protein, "q", 100, 3)];
    let db = SyntheticDb::generate(&DbSpec::protein_demo(db_len, 80), 4).sequences;
    let mut cfg = DsearchConfig::protein_default();
    cfg.cost_scale = 60_000.0;
    let reference = SearchOutput {
        hits: search_sequential(&db, &queries, &cfg),
    }
    .digest();
    DsearchWorkload {
        db,
        queries,
        cfg,
        reference,
    }
}

struct DprmlWorkload {
    data: Arc<PatternAlignment>,
    cfg: DprmlConfig,
    reference: u64,
}

fn dprml_workload() -> DprmlWorkload {
    let truth = random_yule_tree(5, 0.12, 61);
    let cfg = DprmlConfig::default();
    let model = cfg.build_model();
    let seqs = simulate_alignment(&truth, &model, 60, None, 62);
    let data = Arc::new(PatternAlignment::from_sequences(&seqs));
    let (tree, lnl) = stepwise_ml(&data, &model, None, &cfg.search);
    let newick = biodist::phylo::newick::to_newick(&tree, &data.names);
    let reference = PhyloOutput {
        tree,
        ln_likelihood: lnl,
        newick,
    }
    .digest();
    DprmlWorkload {
        data,
        cfg,
        reference,
    }
}

// --------------------------------------------------------------- runners

/// Counters a quorum run leaves behind, aggregated across a sweep.
#[derive(Default)]
struct QuorumTotals {
    disputed: u64,
    promotions: u64,
    crosschecks: u64,
}

impl QuorumTotals {
    fn absorb(&mut self, tel: &Telemetry) {
        let snap = tel.metrics_snapshot();
        self.disputed += snap.counter("quorum.disputed");
        self.promotions += snap.counter("reputation.promotions");
        self.crosschecks += snap.counter("quorum.crosscheck_dispatches");
    }

    /// The sweep-level assertions the issue's acceptance demands: at
    /// least one lie was disputed and at least one honest donor earned
    /// single-issue trust somewhere in the sweep.
    fn assert_exercised(&self, what: &str) {
        assert!(
            self.disputed > 0,
            "{what}: no quorum.disputed across the sweep — lies never met a cross-check"
        );
        assert!(
            self.promotions > 0,
            "{what}: no reputation.promotions across the sweep — trust never earned"
        );
        assert!(
            self.crosschecks > 0,
            "{what}: no quorum.crosscheck_dispatches — redundant issuance never happened"
        );
    }
}

fn run_dsearch_sim_byz(w: &DsearchWorkload, seed: u64, totals: &mut QuorumTotals) {
    let opts = ChaosOptions::for_pool(POOL, LIE_HORIZON_SIM);
    let plan = FaultPlan::byzantine(seed, &opts, byz_frac(seed), WRONGS_PER_DONOR);
    let cfg = quorum_cfg(SchedulerConfig::default());
    let telemetry = Telemetry::enabled();
    let mut server = Server::new(cfg.clone());
    server.set_telemetry(telemetry.clone());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (_, mut server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7))
        .with_faults(plan.clone())
        .run();
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        byz_panic(
            "dsearch",
            "sim",
            seed,
            &plan,
            &cfg,
            "output differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        byz_panic(
            "dsearch",
            "sim",
            seed,
            &plan,
            &cfg,
            format!("invariants violated: {v:?}"),
        );
    }
    totals.absorb(&telemetry);
}

fn run_dprml_sim_byz(w: &DprmlWorkload, seed: u64, totals: &mut QuorumTotals) {
    let opts = ChaosOptions::for_pool(POOL, LIE_HORIZON_SIM);
    let plan = FaultPlan::byzantine(seed, &opts, byz_frac(seed), WRONGS_PER_DONOR);
    let cfg = quorum_cfg(SchedulerConfig::default());
    let telemetry = Telemetry::enabled();
    let mut server = Server::new(cfg.clone());
    server.set_telemetry(telemetry.clone());
    let (problem, audit) = audited(dprml_problem(w.data.clone(), &w.cfg, None, "byz"));
    let pid = server.submit(problem);
    let (_, mut server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7))
        .with_faults(plan.clone())
        .run();
    let out = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();
    if out.digest() != w.reference {
        byz_panic(
            "dprml",
            "sim",
            seed,
            &plan,
            &cfg,
            "tree differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        byz_panic(
            "dprml",
            "sim",
            seed,
            &plan,
            &cfg,
            format!("invariants violated: {v:?}"),
        );
    }
    totals.absorb(&telemetry);
}

fn run_dsearch_thread_byz(w: &DsearchWorkload, seed: u64, totals: &mut QuorumTotals) {
    let opts = ChaosOptions::for_pool(POOL, LIE_HORIZON_REAL);
    let plan = FaultPlan::byzantine(seed, &opts, byz_frac(seed), WRONGS_PER_DONOR);
    // Units sized from the measured speed get fewer as the build gets
    // faster — down to one per donor, too few for any donor to reach
    // the trust threshold. Capped at the floor, every database sequence
    // is a unit of its own however fast the computes are (and the
    // sweep's database is long enough that every donor computes past
    // the lie horizon).
    let small_units = SchedulerConfig {
        max_unit_ops: SchedulerConfig::default().min_unit_ops,
        ..thread_cfg()
    };
    let cfg = quorum_cfg(small_units);
    let telemetry = Telemetry::enabled();
    let mut server = Server::new(cfg.clone());
    server.set_telemetry(telemetry.clone());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        byz_panic(
            "dsearch",
            "tcp trust",
            seed,
            &plan,
            &cfg,
            "output differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        byz_panic(
            "dsearch",
            "tcp trust",
            seed,
            &plan,
            &cfg,
            format!("invariants violated: {v:?}"),
        );
    }
    totals.absorb(&telemetry);
}

fn run_dsearch_tcp_byz(w: &DsearchWorkload, seed: u64, totals: &mut QuorumTotals) {
    let opts = ChaosOptions::for_pool(POOL, LIE_HORIZON_REAL);
    let plan = FaultPlan::byzantine(seed, &opts, byz_frac(seed), WRONGS_PER_DONOR);
    let cfg = quorum_cfg(thread_cfg());
    let telemetry = Telemetry::enabled();
    let mut server = Server::new(cfg.clone());
    server.set_telemetry(telemetry.clone());
    let (problem, audit) = audited(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
    let pid = server.submit(problem);
    let (mut server, _) = run_tcp_faulty(server, POOL, &plan, TIME_SCALE);
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    if out.digest() != w.reference {
        byz_panic(
            "dsearch",
            "tcp",
            seed,
            &plan,
            &cfg,
            "output differs from reference".into(),
        );
    }
    if let Err(v) = audit.verify_run(&server) {
        byz_panic(
            "dsearch",
            "tcp",
            seed,
            &plan,
            &cfg,
            format!("invariants violated: {v:?}"),
        );
    }
    totals.absorb(&telemetry);
}

// ----------------------------------------------------------- full sweeps

#[test]
fn byzantine_dsearch_sim_sweep() {
    let w = dsearch_workload();
    let mut totals = QuorumTotals::default();
    for seed in sweep_seeds(SIM_SEEDS) {
        run_dsearch_sim_byz(&w, seed, &mut totals);
    }
    totals.assert_exercised("dsearch/sim");
}

#[test]
fn byzantine_dprml_sim_sweep() {
    let w = dprml_workload();
    let mut totals = QuorumTotals::default();
    for seed in sweep_seeds(SIM_SEEDS) {
        run_dprml_sim_byz(&w, seed, &mut totals);
    }
    totals.assert_exercised("dprml/sim");
}

#[test]
fn byzantine_dsearch_thread_sweep() {
    let w = dsearch_workload_of(96);
    let mut totals = QuorumTotals::default();
    for seed in fixed_seeds(&THREAD_SEEDS) {
        run_dsearch_thread_byz(&w, seed, &mut totals);
    }
    totals.assert_exercised("dsearch/thread");
}

#[test]
fn byzantine_dsearch_tcp_sweep() {
    let w = dsearch_workload();
    let mut totals = QuorumTotals::default();
    for seed in fixed_seeds(&TCP_SEEDS) {
        run_dsearch_tcp_byz(&w, seed, &mut totals);
    }
    totals.assert_exercised("dsearch/tcp");
}

// -------------------------------------------------------- negative control

/// Without quorum (K = 1, the default) the very same Byzantine plans
/// DO corrupt the output: the flipped payload re-frames with a valid
/// CRC, sails through every transport check, and folds straight into
/// the result. This is the control that proves the sweep above is
/// testing something — remove the quorum and the digests diverge.
#[test]
fn byzantine_without_quorum_corrupts_the_digest() {
    let w = dsearch_workload();
    let mut corrupted = false;
    for seed in fixed_seeds(&SMOKE_SEEDS) {
        let opts = ChaosOptions::for_pool(POOL, LIE_HORIZON_SIM);
        let plan = FaultPlan::byzantine(seed, &opts, 0.30, WRONGS_PER_DONOR);
        let mut server = Server::new(SchedulerConfig::default());
        let pid = server.submit(dsearch_problem(w.db.clone(), w.queries.clone(), &w.cfg));
        let (_, mut server) = SimRunner::with_defaults(server, homogeneous_lab(POOL, 7))
            .with_faults(plan)
            .run();
        let out = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>();
        if out.digest() != w.reference {
            corrupted = true;
            break;
        }
    }
    assert!(
        corrupted,
        "a 30% Byzantine pool with K=1 must corrupt at least one digest \
         — if it cannot, the quorum sweep is vacuous"
    );
}

// --------------------------------------------------- CI smoke (fast path)

#[test]
fn byzantine_smoke_dsearch() {
    let w = dsearch_workload();
    let mut totals = QuorumTotals::default();
    for &seed in &SMOKE_SEEDS {
        run_dsearch_sim_byz(&w, seed, &mut totals);
    }
    totals.assert_exercised("dsearch/sim smoke");
}

#[test]
fn byzantine_smoke_dprml() {
    let w = dprml_workload();
    let mut totals = QuorumTotals::default();
    for &seed in &SMOKE_SEEDS {
        run_dprml_sim_byz(&w, seed, &mut totals);
    }
    totals.assert_exercised("dprml/sim smoke");
}
