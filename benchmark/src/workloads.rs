//! The six workloads: what each one is, how its inputs are generated
//! from the seed, its fixed scheduler settings, its sequential
//! reference and its correctness check.
//!
//! Donor counts and scheduler configs are *part of the workload*: they
//! are fixed here (and listed in the README), never adapted to the
//! host and never tuned per commit. The program under test only ever
//! sees inputs generated here.

use biodist_align::KernelKind;
use biodist_bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist_bioseq::{Alphabet, Sequence};
use biodist_core::builtin::{integration_problem, OPS_PER_POINT};
use biodist_core::{Problem, ProblemId, SchedulerConfig, Server, SimRunner};
use biodist_dprml::{DprmlConfig, PhyloOutput};
use biodist_dsearch::{search_sequential, DsearchConfig, SearchOutput};
use biodist_gridsim::homogeneous_lab;
use biodist_phylo::{random_yule_tree, simulate_alignment, stepwise_ml, PatternAlignment, Tree};
use biodist_util::rng::{shuffle, Rng, SplitMix64, Xoshiro256StarStar};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The seed a run uses when none is given (the paper's IPDPS date).
pub const DEFAULT_SEED: u64 = 20_050_404;

/// Seed of the simulated laboratory (`homogeneous_lab`).
pub const LAB_SEED: u64 = 7;

/// Ops per fixed-size dispatch/sim unit (50 grid points): µs of
/// compute, so the control plane does all the work.
const FIXED_UNIT_OPS: f64 = 10_000.0;

/// The dispatch workload's sequential program takes milliseconds per
/// round; this many rounds make one slice long enough to time.
const DISPATCH_SEQ_ROUNDS: usize = 32;

pub enum Kind {
    Dsearch {
        seqs: usize,
        kernel: KernelKind,
        /// `DsearchConfig::cost_scale`: abstract ops charged per
        /// (calibrated) DP cell, i.e. how finely the scheduler cuts
        /// the database into units.
        cost_scale: f64,
        /// Share of the database one sequential thread searches per
        /// slice (see [`Inputs::sequential`]); above 1 it wraps around.
        seq_share: f64,
    },
    Dprml {
        taxa: usize,
        sites: usize,
        instances: usize,
    },
    Dispatch {
        units: u64,
    },
    Sim {
        machines: usize,
    },
}

pub struct Spec {
    pub name: &'static str,
    /// What `work_per_s` counts on this workload.
    pub work_item: &'static str,
    /// Closed-loop donor threads (0 = no sockets, simulator).
    pub donors: usize,
    pub replicas: usize,
    /// Run the whole workload confined to one CPU (see
    /// `host::on_one_cpu`).
    pub one_cpu: bool,
    /// Listed in `BENCHMARK.json`, i.e. run and bounded by the driver.
    /// The two that are not (`dsearch-replicas`, `sim-scale`) could not
    /// hold a bound on this host (see the README's *Noise and bounds*);
    /// `run`, `trace` and `all` still measure them.
    pub gated: bool,
    pub kind: Kind,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "dsearch-fetch",
        work_item: "dp_cells",
        donors: 2,
        replicas: 0,
        one_cpu: false,
        gated: true,
        kind: Kind::Dsearch {
            seqs: 24_000,
            kernel: KernelKind::Striped,
            cost_scale: 1.0,
            seq_share: 0.4,
        },
    },
    Spec {
        name: "dsearch-replicas",
        work_item: "dp_cells",
        donors: 2,
        replicas: 2,
        one_cpu: false,
        gated: false,
        kind: Kind::Dsearch {
            seqs: 3_000,
            kernel: KernelKind::Striped,
            // At scale 1 the prior cuts this database into 2 units of
            // ~1,000 chunk fetches each — one unit then outlives its
            // 10 s lease whenever the replica tier slows down.
            cost_scale: 8.0,
            seq_share: 3.0,
        },
    },
    Spec {
        name: "dsearch-compute",
        work_item: "dp_cells",
        donors: 2,
        replicas: 0,
        one_cpu: false,
        gated: true,
        kind: Kind::Dsearch {
            seqs: 1_200,
            kernel: KernelKind::SmithWaterman,
            cost_scale: 1.0,
            seq_share: 0.25,
        },
    },
    Spec {
        name: "dprml-staged",
        work_item: "taxon_insertions",
        donors: 2,
        replicas: 0,
        one_cpu: false,
        gated: true,
        kind: Kind::Dprml {
            taxa: 24,
            sites: 600,
            instances: 6,
        },
    },
    Spec {
        name: "dispatch-journal",
        work_item: "units",
        donors: 1,
        replicas: 0,
        one_cpu: true,
        gated: true,
        kind: Kind::Dispatch { units: 30_000 },
    },
    Spec {
        name: "sim-scale",
        work_item: "sim_events",
        donors: 0,
        replicas: 0,
        one_cpu: false,
        gated: false,
        kind: Kind::Sim { machines: 30_000 },
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One pass's generated inputs.
pub enum Inputs {
    Dsearch {
        db: Vec<Sequence>,
        queries: Vec<Sequence>,
        cfg: DsearchConfig,
    },
    Dprml {
        data: Arc<PatternAlignment>,
        cfg: DprmlConfig,
        orders: Vec<Vec<usize>>,
    },
    /// Dispatch and sim: the built-in pi integration over `n_points`
    /// grid points, cut into fixed 50-point units; `sim` carries the
    /// machine count and the lab's seed.
    Integration {
        n_points: u64,
        sim: Option<(usize, u64)>,
    },
}

/// What the outputs of every pass must equal.
pub enum Reference {
    Digest(u64),
    Trees(Vec<(Tree, f64)>),
    Pi,
}

impl Spec {
    /// Generates the workload's inputs from `seed`; `smoke` divides
    /// the input size by ten.
    pub fn generate(&self, seed: u64, smoke: bool) -> Inputs {
        let div = if smoke { 10 } else { 1 };
        match self.kind {
            Kind::Dsearch {
                seqs,
                kernel,
                cost_scale,
                ..
            } => {
                let db =
                    SyntheticDb::generate(&DbSpec::protein_demo(seqs / div, 300), seed).sequences;
                let queries = (0..2u64)
                    .map(|i| {
                        random_sequence(
                            Alphabet::Protein,
                            &format!("query{i}"),
                            300,
                            seed ^ (0xD5EA + i),
                        )
                    })
                    .collect();
                let mut cfg = DsearchConfig::protein_default();
                cfg.kernel = kernel;
                cfg.cost_scale = cost_scale;
                Inputs::Dsearch { db, queries, cfg }
            }
            Kind::Dprml {
                taxa,
                sites,
                instances,
            } => {
                // Smoke keeps the stage structure (every instance) and
                // shrinks the tree and the alignment.
                let (taxa, sites) = if smoke {
                    (12, sites / 4)
                } else {
                    (taxa, sites)
                };
                let mut cfg = DprmlConfig::default();
                cfg.search.candidate_rounds = 1;
                cfg.search.refine_rounds = 1;
                cfg.search.nni = false;
                cfg.search.refine_every = 5;
                // The true phylogeny and the alignment evolved down it
                // are fixed properties of the workload; the seed draws
                // the six insertion orders. (Seeding the tree or the
                // alignment changes the optimiser's work per insertion
                // by +-15% from seed to seed, which would read as noise.)
                let truth = random_yule_tree(taxa, 0.1, DEFAULT_SEED);
                let seqs = simulate_alignment(
                    &truth,
                    &cfg.build_model(),
                    sites,
                    None,
                    DEFAULT_SEED ^ 0xA11,
                );
                let orders = (0..instances as u64)
                    .map(|i| {
                        let mut order: Vec<usize> = (0..taxa).collect();
                        shuffle(
                            &mut order,
                            &mut Xoshiro256StarStar::new(seed ^ (0x0DE2 + i)),
                        );
                        order
                    })
                    .collect();
                Inputs::Dprml {
                    data: Arc::new(PatternAlignment::from_sequences(&seqs)),
                    cfg,
                    orders,
                }
            }
            Kind::Dispatch { units } => {
                // +-1% of the unit count with the seed, so the count is
                // an input like any other (throughput normalises it).
                let base = units / div as u64;
                let units = base - base / 100 + SplitMix64::new(seed).next_below(base / 50 + 1);
                Inputs::Integration {
                    n_points: units * points_per_unit(),
                    sim: None,
                }
            }
            Kind::Sim { machines } => sim_inputs(machines / div),
        }
    }

    /// The scheduler settings, fixed per application.
    pub fn sched(&self) -> SchedulerConfig {
        match self.kind {
            Kind::Dsearch { .. } => SchedulerConfig {
                target_unit_secs: 0.05,
                prior_ops_per_sec: 2e8,
                lease_min_secs: 10.0,
                ..Default::default()
            },
            Kind::Dprml { .. } => SchedulerConfig {
                target_unit_secs: 0.01,
                prior_ops_per_sec: 1e8,
                min_unit_ops: 1.0,
                lease_min_secs: 10.0,
                ..Default::default()
            },
            Kind::Dispatch { .. } | Kind::Sim { .. } => SchedulerConfig {
                min_unit_ops: FIXED_UNIT_OPS,
                max_unit_ops: FIXED_UNIT_OPS,
                lease_min_secs: 30.0,
                ..Default::default()
            },
        }
    }
}

/// The simulator workload on `machines` machines. The simulation is
/// chaotic in its inputs — another lab seed moves the event count by a
/// third, 1% more units moves the wall time by half (a fourth round of
/// requests from 30k polling machines) — so it is the same for every
/// seed: three units per machine on one fixed laboratory.
pub fn sim_inputs(machines: usize) -> Inputs {
    Inputs::Integration {
        n_points: machines as u64 * 3 * points_per_unit(),
        sim: Some((machines, LAB_SEED)),
    }
}

fn points_per_unit() -> u64 {
    (FIXED_UNIT_OPS / OPS_PER_POINT) as u64
}

impl Inputs {
    /// Fresh problems for one pass (a `Server` consumes them).
    pub fn problems(&self) -> Vec<Problem> {
        match self {
            Inputs::Dsearch { db, queries, cfg } => {
                vec![biodist_dsearch::build_problem(
                    db.clone(),
                    queries.clone(),
                    cfg,
                )]
            }
            Inputs::Dprml { data, cfg, orders } => orders
                .iter()
                .enumerate()
                .map(|(i, order)| {
                    biodist_dprml::build_problem(
                        data.clone(),
                        cfg,
                        Some(order.clone()),
                        &format!("dprml-{i}"),
                    )
                })
                .collect(),
            Inputs::Integration { n_points, sim } => {
                let p = integration_problem(*n_points);
                vec![if sim.is_some() {
                    p.with_setup_bytes(500)
                } else {
                    p
                }]
            }
        }
    }

    /// Science done by one pass, in the workload's `work_item`: real DP
    /// cells (sum of |q|*|s|, not the calibrated `cost_cells`), taxon
    /// insertions, or units. `None` where only the run can tell
    /// (simulator events).
    pub fn work(&self) -> Option<f64> {
        match self {
            Inputs::Dsearch { db, queries, .. } => {
                let q: usize = queries.iter().map(Sequence::len).sum();
                let s: usize = db.iter().map(Sequence::len).sum();
                Some(q as f64 * s as f64)
            }
            Inputs::Dprml { data, orders, .. } => {
                Some((orders.len() * (data.taxon_count() - 3)) as f64)
            }
            Inputs::Integration {
                n_points,
                sim: None,
            } => Some((n_points / points_per_unit()) as f64),
            Inputs::Integration { sim: Some(_), .. } => None,
        }
    }

    /// Work per second of the *sequential program* on these inputs —
    /// no server, no sockets — timed over one slice of the input;
    /// `turn` rotates the slice so that a run's slices cover all of
    /// it. A workload with `n` donors runs `n` sequential programs side
    /// by side, one thread each, and this is their mean rate: the
    /// ceiling `n` donors could reach, measured with as many cores busy
    /// as the farm keeps busy. The farm passes of a run alternate with
    /// these slices; `efficiency` and `cpu_overhead` are ratios against
    /// their rate, taken from the same seconds of the host as the
    /// passes, which is what cancels its minute-scale speed drift.
    pub fn sequential(&self, spec: &Spec, turn: usize) -> f64 {
        let threads = spec.donors.max(1);
        if threads == 1 {
            // On the calling thread, where the simulator pass it is
            // compared with runs too (and inside the CPU affinity of
            // the one-CPU workload without relying on inheritance).
            let (work, secs) = self.sequential_slice(spec, turn);
            return work / secs;
        }
        let rates: Vec<f64> = std::thread::scope(|s| {
            let slices: Vec<_> = (0..threads)
                .map(|k| s.spawn(move || self.sequential_slice(spec, turn * threads + k)))
                .collect();
            slices
                .into_iter()
                .map(|h| {
                    let (work, secs) = h.join().expect("sequential slice panicked");
                    work / secs
                })
                .collect()
        });
        rates.iter().sum::<f64>() / threads as f64
    }

    /// One thread's slice, as `(work, seconds)` in the workload's work
    /// item:
    ///
    /// - DSEARCH: `search_sequential` over `seq_share` of the database;
    /// - DPRml: `stepwise_ml` on two of the insertion orders;
    /// - dispatch: the data manager and the algorithm alone, every
    ///   unit, [`DISPATCH_SEQ_ROUNDS`] times over;
    /// - simulator: the same laboratory at a third of the machines
    ///   (same units per machine): the near side of the scale collapse.
    fn sequential_slice(&self, spec: &Spec, turn: usize) -> (f64, f64) {
        match self {
            Inputs::Dsearch { db, queries, cfg } => {
                let Kind::Dsearch { seq_share, .. } = spec.kind else {
                    unreachable!("dsearch inputs come from a dsearch spec");
                };
                let mut left = ((seq_share * db.len() as f64) as usize).max(1);
                let mut start = turn * left % db.len();
                let (mut residues, mut secs) = (0usize, 0.0);
                while left > 0 {
                    let slice = &db[start..(start + left).min(db.len())];
                    let t = Instant::now();
                    black_box(search_sequential(slice, queries, cfg));
                    secs += t.elapsed().as_secs_f64();
                    residues += slice.iter().map(Sequence::len).sum::<usize>();
                    left -= slice.len();
                    start = 0;
                }
                let q: usize = queries.iter().map(Sequence::len).sum();
                (q as f64 * residues as f64, secs)
            }
            Inputs::Dprml { data, cfg, orders } => {
                let model = cfg.build_model();
                let t = Instant::now();
                for i in 0..2 {
                    let order = &orders[(2 * turn + i) % orders.len()];
                    black_box(stepwise_ml(data, &model, Some(order), &cfg.search));
                }
                let secs = t.elapsed().as_secs_f64();
                (2.0 * (data.taxon_count() - 3) as f64, secs)
            }
            Inputs::Integration {
                n_points,
                sim: None,
            } => {
                let t = Instant::now();
                let mut units = 0u64;
                for _ in 0..DISPATCH_SEQ_ROUNDS {
                    let mut p = integration_problem(*n_points);
                    while let Some(unit) = p.data_manager.next_unit(FIXED_UNIT_OPS) {
                        p.data_manager.accept_result(p.algorithm.compute(&unit));
                        units += 1;
                    }
                    black_box(p.data_manager.final_output());
                }
                (units as f64, t.elapsed().as_secs_f64())
            }
            Inputs::Integration {
                sim: Some((machines, lab_seed)),
                ..
            } => {
                let small = machines / 3;
                let mut server = Server::new(spec.sched());
                for p in sim_inputs(small).problems() {
                    server.submit(p);
                }
                let runner = SimRunner::with_defaults(server, homogeneous_lab(small, *lab_seed));
                let t = Instant::now();
                let (report, _server) = runner.run();
                (report.events_processed as f64, t.elapsed().as_secs_f64())
            }
        }
    }

    /// The sequential reference: one thread, no farm.
    pub fn reference(&self) -> Reference {
        match self {
            Inputs::Dsearch { db, queries, cfg } => Reference::Digest(
                SearchOutput {
                    hits: search_sequential(db, queries, cfg),
                }
                .digest(),
            ),
            Inputs::Dprml { data, cfg, orders } => {
                let model = cfg.build_model();
                Reference::Trees(
                    orders
                        .iter()
                        .map(|order| stepwise_ml(data, &model, Some(order), &cfg.search))
                        .collect(),
                )
            }
            Inputs::Integration { .. } => Reference::Pi,
        }
    }
}

/// Checks every problem's final output against the reference.
pub fn check_outputs(server: &mut Server, reference: &Reference) -> Result<(), String> {
    let mut take = |pid: ProblemId| {
        server
            .take_output(pid)
            .ok_or_else(|| format!("problem {pid} produced no output"))
    };
    match reference {
        Reference::Digest(want) => {
            let got = take(0)?.into_inner::<SearchOutput>().digest();
            if got != *want {
                return Err(format!(
                    "dsearch digest {got:#018x} != sequential {want:#018x}"
                ));
            }
        }
        Reference::Trees(trees) => {
            for (pid, (tree, lnl)) in trees.iter().enumerate() {
                let out = take(pid)?.into_inner::<PhyloOutput>();
                if (out.ln_likelihood - lnl).abs() > 1e-6 {
                    return Err(format!(
                        "dprml instance {pid}: lnL {} differs from stepwise_ml {lnl}",
                        out.ln_likelihood
                    ));
                }
                let rf = out.tree.rf_distance(tree);
                if rf != 0 {
                    return Err(format!(
                        "dprml instance {pid}: RF distance {rf} to stepwise_ml"
                    ));
                }
            }
        }
        Reference::Pi => {
            let pi = take(0)?.into_inner::<f64>();
            if (pi - std::f64::consts::PI).abs() > 1e-8 {
                return Err(format!("pi integration gave {pi}"));
            }
        }
    }
    Ok(())
}
