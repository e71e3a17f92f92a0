//! DPRml as a framework [`Problem`]: a staged `DataManager`.
//!
//! The manager walks the same state machine as the sequential
//! reference `stepwise_ml`:
//!
//! ```text
//! refine(initial triple)
//! per taxon:  INSERT stage   — evaluate all 2i−5 insertion edges (parallel units)
//!             refine
//!             NNI loop ≤ 8:  — evaluate all NNI moves (parallel units)
//!                            — apply best improving move, refine, repeat
//! ```
//!
//! Insertion and NNI are one *candidate stage*. Its candidates are a
//! list both ends derive from the stage tree — the tree's edges
//! ([`Tree::edges`]) or its NNI moves ([`Tree::nni_moves`]) — and the
//! wire keeps node and child order, so a unit names a range of that
//! list and the donor lists the candidates itself. The highest
//! log-likelihood wins, a tie going to the lowest index: for insertion
//! the smallest edge id ([`biodist_phylo::search::best_candidate`]),
//! for NNI the earliest move (`nni_improve`). Candidate evaluation is
//! the pure function [`biodist_phylo::search::evaluate_insertion`] (or
//! one NNI swap and its branch), so the distributed tree and
//! log-likelihood equal the reference *exactly*. Stage barriers are
//! expressed by returning `None` from `next_unit` while results are
//! outstanding — precisely the behaviour that idles donors when only
//! one DPRml instance runs (paper §3.2 / Fig. 2).

use crate::config::DprmlConfig;
use biodist_core::{
    Algorithm, ByteReader, ByteWriter, DataManager, EventKind, Payload, Problem, ProblemId,
    TaskResult, Telemetry, UnitId, WireCodec, WireError, WorkUnit,
};
use biodist_phylo::lik::TreeLikelihood;
use biodist_phylo::model::SubstModel;
use biodist_phylo::newick::to_newick;
use biodist_phylo::patterns::PatternAlignment;
use biodist_phylo::search::{evaluate_insertion, SearchOptions};
use biodist_phylo::tree::Tree;
use std::ops::Range;
use std::sync::Arc;

/// Final output of a DPRml run.
#[derive(Debug, Clone)]
pub struct PhyloOutput {
    /// The maximum-likelihood tree found.
    pub tree: Tree,
    /// Its log-likelihood.
    pub ln_likelihood: f64,
    /// Newick rendering (taxon names from the alignment).
    pub newick: String,
}

impl PhyloOutput {
    /// FNV-1a digest of the Newick rendering (topology + branch
    /// lengths) and the exact log-likelihood bits. Two outputs digest
    /// equal iff tree and likelihood are bit-identical, so the chaos
    /// suite can compare a fault-injected run against the sequential
    /// reference with one `u64`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self
            .newick
            .as_bytes()
            .iter()
            .chain(&self.ln_likelihood.to_bits().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// What a candidate stage evaluates on its stage tree.
#[derive(Clone, Copy)]
enum CandidateKind {
    /// Insert `taxon` into each edge ([`Tree::edges`]).
    Insert { taxon: usize },
    /// Apply each NNI move ([`Tree::nni_moves`]); a move counts only if
    /// it beats the stage tree's `lnl` by more than the tolerance.
    Nni { lnl: f64 },
}

impl CandidateKind {
    /// How many candidates `tree` offers.
    fn count(self, tree: &Tree) -> usize {
        match self {
            CandidateKind::Insert { .. } => tree.edges().len(),
            CandidateKind::Nni { .. } => tree.nni_moves().len(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            CandidateKind::Insert { .. } => "insert",
            CandidateKind::Nni { .. } => "nni",
        }
    }
}

/// A scored candidate: its index in the stage's list, its
/// log-likelihood and its optimised tree.
type Scored = (usize, f64, Tree);

/// The better of the best so far and `c`: the higher log-likelihood, a
/// tie going to the lower index. Donors fold their range with it and
/// the manager folds the donors' winners with it.
fn keep_better(best: Option<Scored>, c: Scored) -> Option<Scored> {
    match best {
        Some(b) if !(c.1 > b.1 || (c.1 == b.1 && c.0 < b.0)) => Some(b),
        _ => Some(c),
    }
}

enum DprmlUnit {
    Refine {
        tree: Tree,
    },
    /// Evaluate candidates `range` of `kind`'s list on `tree`.
    Candidates {
        tree: Arc<Tree>,
        kind: CandidateKind,
        range: Range<usize>,
    },
}

/// Likelihood-kernel statistics a donor reports alongside every result:
/// which SIMD backend computed it and how the transition-matrix cache
/// behaved. The manager aggregates them into the `lik.*` run metrics.
#[derive(Clone, Copy)]
struct KernelStats {
    backend: u8,
    pmat_hits: u64,
    pmat_misses: u64,
}

struct DprmlResult {
    kind: DprmlResultKind,
    stats: KernelStats,
}

enum DprmlResultKind {
    Refined {
        tree: Tree,
        lnl: f64,
    },
    /// The best candidate of a unit's range, if any counted.
    Best(Option<Scored>),
}

// ---------------------------------------------------------------- costs

/// Abstract ops per node·pattern·category update, calibrated against
/// the measured stage-evaluation throughput of the SIMD likelihood
/// kernels: 11.56× (AVX2) the since-deleted scalar engine the original
/// 20.0 figure modelled, so 20/11.6 — the dated history row of
/// EXPERIMENTS.md A6 (2.45 M node updates/s scalar). DSEARCH's
/// `cost_cells` got the same recalibration after striping
/// Smith–Waterman.
const OPS_PER_NODE_UPDATE: f64 = 1.75;

fn tree_wire_bytes(tree: &Tree) -> u64 {
    tree.node_count() as u64 * 48
}

// ----------------------------------------------------------- wire codec

fn write_tree(w: &mut ByteWriter, tree: &Tree) {
    w.u32(tree.node_count() as u32);
    w.usize(tree.root());
    for id in 0..tree.node_count() {
        let node = tree.node(id);
        w.opt_usize(node.parent);
        w.u32(node.children.len() as u32);
        for &c in &node.children {
            w.usize(c);
        }
        w.f64(node.blen);
        w.opt_usize(node.taxon);
    }
}

fn read_tree(r: &mut ByteReader) -> Result<Tree, WireError> {
    // Every node is ≥ 28 bytes (parent + child count + blen + taxon),
    // so the count can't demand more memory than the wire carries.
    let n = r.count(28)?;
    let root = r.usize()?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let parent = r.opt_usize()?;
        let n_children = r.count(8)?;
        let mut children = Vec::with_capacity(n_children);
        for _ in 0..n_children {
            children.push(r.usize()?);
        }
        let blen = r.f64()?;
        let taxon = r.opt_usize()?;
        nodes.push(biodist_phylo::tree::Node {
            parent,
            children,
            blen,
            taxon,
        });
    }
    // `from_parts` re-validates the arena, so a frame that passed the
    // CRC but carries a nonsense topology is still rejected here.
    Tree::from_parts(nodes, root).map_err(WireError::new)
}

const UNIT_REFINE: u8 = 1;
const UNIT_CANDIDATES: u8 = 2;
const KIND_INSERT: u8 = 0;
const KIND_NNI: u8 = 1;
const RESULT_REFINED: u8 = 1;
const RESULT_BEST: u8 = 2;

/// Wire codec for DPRml: units and results are tagged unions whose tree
/// payloads ship as full node arenas (the real cost the declared
/// `wire_bytes` always modelled — ~48 bytes per node).
struct DprmlCodec;

impl WireCodec for DprmlCodec {
    fn write_unit(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        let du = payload
            .downcast_ref::<DprmlUnit>()
            .ok_or_else(|| WireError::new("dprml unit payload has the wrong type"))?;
        match du {
            DprmlUnit::Refine { tree } => {
                w.u8(UNIT_REFINE);
                write_tree(w, tree);
            }
            DprmlUnit::Candidates { tree, kind, range } => {
                w.u8(UNIT_CANDIDATES);
                write_tree(w, tree);
                match *kind {
                    CandidateKind::Insert { taxon } => {
                        w.u8(KIND_INSERT);
                        w.usize(taxon);
                    }
                    CandidateKind::Nni { lnl } => {
                        w.u8(KIND_NNI);
                        w.f64(lnl);
                    }
                }
                w.usize(range.start);
                w.usize(range.end);
            }
        }
        Ok(())
    }

    fn decode_unit(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        let mut r = ByteReader::new(bytes);
        let unit = match r.u8()? {
            UNIT_REFINE => DprmlUnit::Refine {
                tree: read_tree(&mut r)?,
            },
            UNIT_CANDIDATES => {
                let tree = read_tree(&mut r)?;
                let kind = match r.u8()? {
                    KIND_INSERT => CandidateKind::Insert { taxon: r.usize()? },
                    KIND_NNI => CandidateKind::Nni { lnl: r.f64()? },
                    tag => return Err(WireError::new(format!("unknown candidate kind {tag}"))),
                };
                let range = r.usize()?..r.usize()?;
                // The donor indexes the tree's own candidate list with it.
                let count = kind.count(&tree);
                if range.is_empty() || range.end > count {
                    return Err(WireError::new(format!(
                        "candidate range {range:?} does not fit the tree's {count} {} candidates",
                        kind.name()
                    )));
                }
                DprmlUnit::Candidates {
                    tree: Arc::new(tree),
                    kind,
                    range,
                }
            }
            tag => return Err(WireError::new(format!("unknown dprml unit tag {tag}"))),
        };
        r.finish()?;
        Ok(Payload::new(unit, bytes.len() as u64))
    }

    fn write_result(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        let dr = payload
            .downcast_ref::<DprmlResult>()
            .ok_or_else(|| WireError::new("dprml result payload has the wrong type"))?;
        match &dr.kind {
            DprmlResultKind::Refined { tree, lnl } => {
                w.u8(RESULT_REFINED);
                write_tree(w, tree);
                w.f64(*lnl);
            }
            DprmlResultKind::Best(best) => {
                w.u8(RESULT_BEST);
                match best {
                    Some((idx, lnl, tree)) => {
                        w.u8(1);
                        w.usize(*idx);
                        w.f64(*lnl);
                        write_tree(w, tree);
                    }
                    None => w.u8(0),
                }
            }
        }
        // Kernel stats trailer — every result shape carries one.
        w.u8(dr.stats.backend);
        w.u64(dr.stats.pmat_hits);
        w.u64(dr.stats.pmat_misses);
        Ok(())
    }

    fn decode_result(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        let mut r = ByteReader::new(bytes);
        let kind = match r.u8()? {
            RESULT_REFINED => {
                let tree = read_tree(&mut r)?;
                let lnl = r.f64()?;
                DprmlResultKind::Refined { tree, lnl }
            }
            RESULT_BEST => DprmlResultKind::Best(match r.u8()? {
                0 => None,
                1 => Some((r.usize()?, r.f64()?, read_tree(&mut r)?)),
                flag => return Err(WireError::new(format!("bad option flag {flag}"))),
            }),
            tag => return Err(WireError::new(format!("unknown dprml result tag {tag}"))),
        };
        let stats = KernelStats {
            backend: r.u8()?,
            pmat_hits: r.u64()?,
            pmat_misses: r.u64()?,
        };
        r.finish()?;
        Ok(Payload::new(
            DprmlResult { kind, stats },
            bytes.len() as u64,
        ))
    }
}

// ------------------------------------------------------------ algorithm

/// The search both ends run: the manager prices units with it and the
/// donors evaluate them with it.
struct DprmlAlgo {
    data: Arc<PatternAlignment>,
    model: SubstModel,
    opts: SearchOptions,
}

impl DprmlAlgo {
    /// Abstract ops for `rounds` optimisation sweeps over `edges`
    /// branches of a tree of `nodes` nodes, plus the two full
    /// traversals around them. A full pruning traversal matches the
    /// gridsim scale (a PIII-1000 runs ~1e7 of these ops per second);
    /// one branch for one sweep is 1.7 of them (a traversal + ~20 cheap
    /// Brent evaluations of the edge function).
    fn sweep_ops(&self, rounds: u32, edges: usize, nodes: usize) -> f64 {
        let categories = self.model.rate_categories().ncat();
        let traversal =
            (nodes * self.data.pattern_count() * categories) as f64 * OPS_PER_NODE_UPDATE;
        (rounds as usize * edges) as f64 * (1.7 * traversal) + 2.0 * traversal
    }

    /// Abstract ops of one candidate of `kind` on `tree`.
    fn candidate_ops(&self, kind: CandidateKind, tree: &Tree) -> f64 {
        let (rounds, nodes) = (self.opts.candidate_rounds, tree.node_count());
        match kind {
            // The candidate grows a leaf and its junction; local scoring
            // optimises the three branches they touch.
            CandidateKind::Insert { .. } if self.opts.local_candidates => {
                self.sweep_ops(rounds, 3, nodes + 2)
            }
            CandidateKind::Insert { .. } => {
                self.sweep_ops(rounds, tree.edges().len() + 2, nodes + 2)
            }
            // A move re-optimises the one branch it swapped across.
            CandidateKind::Nni { .. } => self.sweep_ops(rounds, 1, nodes),
        }
    }
}

impl Algorithm for DprmlAlgo {
    fn compute(&self, unit: &WorkUnit) -> TaskResult {
        let engine = TreeLikelihood::new(&self.model, &self.data);
        let opts = &self.opts;
        let du = unit
            .payload
            .downcast_ref::<DprmlUnit>()
            .expect("dprml unit");
        let kind = match du {
            DprmlUnit::Refine { tree } => {
                let mut t = tree.clone();
                let lnl = engine.optimize_edges(&mut t, None, opts.refine_rounds, opts.tol);
                DprmlResultKind::Refined { tree: t, lnl }
            }
            DprmlUnit::Candidates { tree, kind, range } => DprmlResultKind::Best(match *kind {
                CandidateKind::Insert { taxon } => {
                    let edges = tree.edges();
                    range
                        .clone()
                        .map(|i| {
                            let c = evaluate_insertion(tree, taxon, edges[i], &engine, opts);
                            (i, c.ln_likelihood, c.tree)
                        })
                        .fold(None, keep_better)
                }
                CandidateKind::Nni { lnl } => {
                    let moves = tree.nni_moves();
                    range
                        .clone()
                        .filter_map(|i| {
                            let (c, a, b) = moves[i];
                            let mut candidate = (**tree).clone();
                            candidate.nni_swap(c, a, b);
                            let cand_lnl = engine.optimize_edges(
                                &mut candidate,
                                Some(&[c]),
                                opts.candidate_rounds,
                                opts.tol,
                            );
                            (cand_lnl > lnl + opts.tol).then_some((i, cand_lnl, candidate))
                        })
                        .fold(None, keep_better)
                }
            }),
        };
        let (pmat_hits, pmat_misses) = engine.pmat_cache_stats();
        let result = DprmlResult {
            kind,
            stats: KernelStats {
                backend: engine.backend().index(),
                pmat_hits,
                pmat_misses,
            },
        };
        let wire = match &result.kind {
            DprmlResultKind::Refined { tree, .. } | DprmlResultKind::Best(Some((_, _, tree))) => {
                tree_wire_bytes(tree)
            }
            DprmlResultKind::Best(None) => 16,
        };
        TaskResult {
            unit_id: unit.id,
            payload: Payload::new(result, wire),
        }
    }
}

// --------------------------------------------------------- data manager

enum Stage {
    /// One refine unit (dispatched flag, awaiting flag); `then_nni`
    /// says whether NNI may follow it or the next insertion does.
    Refine {
        then_nni: bool,
        dispatched: bool,
    },
    /// The `count` candidates of `kind` on `tree`: `next` is the first
    /// not yet issued, `outstanding` counts the units not yet folded
    /// and `best` is the winner so far.
    Candidates {
        kind: CandidateKind,
        tree: Arc<Tree>,
        count: usize,
        next: usize,
        outstanding: u32,
        best: Option<Scored>,
    },
    Done,
}

struct DprmlDm {
    algo: Arc<DprmlAlgo>,
    cost_scale: f64,
    order: Vec<usize>,
    tree: Tree,
    lnl: f64,
    taxon_pos: usize,
    insertions_done: u32,
    nni_round: u32,
    stage: Stage,
    next_id: UnitId,
    /// Installed by the server; stage transitions emit `StageStarted`
    /// so run reports can place the barrier boundaries that idle
    /// donors when only one instance runs (paper §3.2 / Fig. 2).
    telemetry: Telemetry,
    problem: ProblemId,
}

impl DprmlDm {
    fn new(algo: Arc<DprmlAlgo>, cost_scale: f64, order: Vec<usize>) -> Self {
        let tree = Tree::initial_triple([order[0], order[1], order[2]], algo.opts.initial_blen);
        Self {
            algo,
            cost_scale,
            order,
            tree,
            lnl: f64::NEG_INFINITY,
            taxon_pos: 3,
            insertions_done: 0,
            nni_round: 0,
            stage: Stage::Refine {
                then_nni: false,
                dispatched: false,
            },
            next_id: 0,
            telemetry: Telemetry::default(),
            problem: 0,
        }
    }

    /// Emits a `StageStarted` event for the stage just entered.
    fn note_stage(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let stage = match self.stage {
            Stage::Refine { .. } => "refine",
            Stage::Candidates { kind, .. } => kind.name(),
            Stage::Done => "done",
        };
        self.telemetry.emit(EventKind::StageStarted {
            problem: self.problem,
            stage: stage.to_string(),
        });
    }

    /// Opens the next candidate stage on the current tree: a round of
    /// NNI moves if `try_nni` (NNI is on, fewer than 8 rounds ran and
    /// the tree has a move), else the next taxon's insertion, else the
    /// run is done.
    fn open_candidates(&mut self, try_nni: bool) {
        let mut kind = CandidateKind::Nni { lnl: self.lnl };
        let mut count = if try_nni && self.algo.opts.nni && self.nni_round < 8 {
            kind.count(&self.tree)
        } else {
            0
        };
        if count == 0 {
            let Some(&taxon) = self.order.get(self.taxon_pos) else {
                self.stage = Stage::Done;
                self.note_stage();
                return;
            };
            self.taxon_pos += 1;
            self.nni_round = 0;
            kind = CandidateKind::Insert { taxon };
            count = kind.count(&self.tree);
        }
        self.stage = Stage::Candidates {
            kind,
            tree: Arc::new(self.tree.clone()),
            count,
            next: 0,
            outstanding: 0,
            best: None,
        };
        self.note_stage();
    }

    fn start_refine(&mut self, then_nni: bool) {
        self.stage = Stage::Refine {
            then_nni,
            dispatched: false,
        };
        self.note_stage();
    }
}

impl DataManager for DprmlDm {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        let algo = &self.algo;
        let (payload, cost, wire) = match &mut self.stage {
            Stage::Refine { dispatched, .. } if !*dispatched => {
                *dispatched = true;
                let tree = self.tree.clone();
                let (rounds, edges) = (algo.opts.refine_rounds, tree.edges().len());
                let cost = algo.sweep_ops(rounds, edges, tree.node_count());
                let wire = tree_wire_bytes(&tree);
                (DprmlUnit::Refine { tree }, cost, wire)
            }
            Stage::Candidates {
                kind,
                tree,
                count,
                next,
                outstanding,
                ..
            } if *next < *count => {
                let kind = *kind;
                let per = algo.candidate_ops(kind, tree) * self.cost_scale;
                let batch = ((hint_ops / per).floor() as usize).clamp(1, *count - *next);
                let range = *next..*next + batch;
                *next += batch;
                *outstanding += 1;
                let cost = per / self.cost_scale * batch as f64;
                // What the simulator charges for the transfer: the stage
                // tree plus 16 bytes an edge or 24 a move.
                let per_candidate = match kind {
                    CandidateKind::Insert { .. } => 16,
                    CandidateKind::Nni { .. } => 24,
                };
                let wire = tree_wire_bytes(tree) + per_candidate * batch as u64;
                let tree = tree.clone();
                (DprmlUnit::Candidates { tree, kind, range }, cost, wire)
            }
            // A barrier (every unit of the stage is out), or done.
            _ => return None,
        };
        let id = self.next_id;
        self.next_id += 1;
        Some(WorkUnit {
            id,
            payload: Payload::new(payload, wire),
            cost_ops: cost * self.cost_scale,
        })
    }

    fn accept_result(&mut self, result: TaskResult) {
        let payload = result.payload.into_inner::<DprmlResult>();
        if self.telemetry.is_enabled() {
            // Which kernel produced the numbers, and how well `P_v(t)`
            // reuse worked — so run reports document the backend behind
            // every ablation figure.
            self.telemetry
                .gauge_set("lik.backend", payload.stats.backend as f64);
            self.telemetry
                .counter_add("lik.pmat_cache_hits", payload.stats.pmat_hits);
            self.telemetry
                .counter_add("lik.pmat_cache_misses", payload.stats.pmat_misses);
        }
        match (&mut self.stage, payload.kind) {
            (Stage::Refine { then_nni, .. }, DprmlResultKind::Refined { tree, lnl }) => {
                let then_nni = *then_nni;
                self.tree = tree;
                self.lnl = lnl;
                self.open_candidates(then_nni);
            }
            (
                Stage::Candidates {
                    kind,
                    count,
                    next,
                    outstanding,
                    best,
                    ..
                },
                DprmlResultKind::Best(unit_best),
            ) => {
                if let Some(c) = unit_best {
                    *best = keep_better(best.take(), c);
                }
                *outstanding -= 1;
                if *next < *count || *outstanding > 0 {
                    return;
                }
                // The barrier: every candidate is in. Only what follows
                // depends on the kind.
                match (*kind, best.take()) {
                    (CandidateKind::Insert { .. }, Some((_, lnl, tree))) => {
                        self.tree = tree;
                        self.insertions_done += 1;
                        // Same cadence as the sequential reference: full
                        // refinement every `refine_every`-th insertion
                        // and after the last one.
                        let re = self.algo.opts.refine_every.max(1);
                        let is_last = self.taxon_pos >= self.order.len();
                        if self.insertions_done.is_multiple_of(re) || is_last {
                            self.start_refine(true);
                        } else {
                            self.lnl = lnl;
                            self.open_candidates(true);
                        }
                    }
                    (CandidateKind::Insert { .. }, None) => {
                        unreachable!("every insertion unit returns its best candidate")
                    }
                    (CandidateKind::Nni { .. }, Some((_, _, tree))) => {
                        self.tree = tree;
                        self.nni_round += 1;
                        self.start_refine(true);
                    }
                    (CandidateKind::Nni { .. }, None) => self.open_candidates(false),
                }
            }
            _ => unreachable!("result arrived for a stage that cannot have issued it"),
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry, problem: ProblemId) {
        self.telemetry = telemetry;
        self.problem = problem;
        // The initial refine stage predates attachment; report it now so
        // every run's trace opens with its first stage boundary.
        self.note_stage();
    }

    fn is_complete(&self) -> bool {
        matches!(self.stage, Stage::Done)
    }

    fn final_output(&mut self) -> Payload {
        let newick = to_newick(&self.tree, &self.algo.data.names);
        let wire = newick.len() as u64 + 16;
        Payload::new(
            PhyloOutput {
                tree: self.tree.clone(),
                ln_likelihood: self.lnl,
                newick,
            },
            wire,
        )
    }
}

/// Builds a DPRml [`Problem`] for an alignment and configuration.
///
/// `taxon_order` controls insertion order (defaults to row order). Each
/// problem instance owns its own manager, so several instances run
/// simultaneously on one server (Fig. 2's setup).
pub fn build_problem(
    data: Arc<PatternAlignment>,
    config: &DprmlConfig,
    taxon_order: Option<Vec<usize>>,
    instance_name: &str,
) -> Problem {
    let n = data.taxon_count();
    assert!(n >= 3, "need at least 3 taxa");
    let order = taxon_order.unwrap_or_else(|| (0..n).collect());
    assert_eq!(order.len(), n, "taxon order must cover all taxa");
    // Setup download: the alignment (patterns × taxa bytes) + code.
    let setup = (data.pattern_count() * n) as u64 + 200_000;
    let algo = Arc::new(DprmlAlgo {
        data,
        model: config.build_model(),
        opts: config.search.clone(),
    });
    let dm = DprmlDm::new(algo.clone(), config.cost_scale, order);
    Problem::new(instance_name, Box::new(dm), algo)
        .with_setup_bytes(setup)
        .with_codec(Arc::new(DprmlCodec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use biodist_core::{run_tcp, SchedulerConfig, Server, SimRunner};
    use biodist_gridsim::deployments::homogeneous_lab;
    use biodist_phylo::evolve::{random_yule_tree, simulate_alignment};
    use biodist_phylo::search::stepwise_ml;

    fn test_alignment(n_taxa: usize, sites: usize, seed: u64) -> (Tree, Arc<PatternAlignment>) {
        let truth = random_yule_tree(n_taxa, 0.12, seed);
        let cfg = DprmlConfig::default();
        let model = cfg.build_model();
        let seqs = simulate_alignment(&truth, &model, sites, None, seed + 1);
        (truth, Arc::new(PatternAlignment::from_sequences(&seqs)))
    }

    fn small_unit_sched() -> SchedulerConfig {
        SchedulerConfig {
            target_unit_secs: 0.002,
            prior_ops_per_sec: 1e8,
            min_unit_ops: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn seven_taxa_over_six_tcp_donors_equal_the_sequential_reference() {
        let (_, data) = test_alignment(7, 150, 101);
        let config = DprmlConfig::default();
        let model = config.build_model();
        let (ref_tree, ref_lnl) = stepwise_ml(&data, &model, None, &config.search);

        let mut server = Server::new(small_unit_sched());
        let pid = server.submit(build_problem(data.clone(), &config, None, "dprml-0"));
        let (mut server, _) = run_tcp(server, 6);
        let out = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();

        assert_eq!(
            out.tree.rf_distance(&ref_tree),
            0,
            "topology must match reference"
        );
        assert!(
            (out.ln_likelihood - ref_lnl).abs() < 1e-9,
            "lnl {} vs reference {ref_lnl}",
            out.ln_likelihood
        );
        assert!(
            server.stats(pid).completed_units > 3,
            "staged into multiple units"
        );
    }

    #[test]
    fn distributed_simulated_equals_sequential_reference() {
        let (_, data) = test_alignment(6, 120, 303);
        let config = DprmlConfig::default();
        let model = config.build_model();
        let (ref_tree, ref_lnl) = stepwise_ml(&data, &model, None, &config.search);

        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 20.0,
            ..Default::default()
        });
        let pid = server.submit(build_problem(data.clone(), &config, None, "dprml-sim"));
        let machines = homogeneous_lab(8, 404);
        let (report, mut server) = SimRunner::with_defaults(server, machines).run();
        let out = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();

        assert_eq!(out.tree.rf_distance(&ref_tree), 0);
        assert!((out.ln_likelihood - ref_lnl).abs() < 1e-9);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn recovers_generating_topology_on_clean_data() {
        let (truth, data) = test_alignment(6, 800, 17);
        let config = DprmlConfig::default();
        let mut server = Server::new(small_unit_sched());
        let pid = server.submit(build_problem(data, &config, None, "dprml"));
        let (mut server, _) = run_tcp(server, 4);
        let out = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();
        assert_eq!(
            out.tree.rf_distance(&truth),
            0,
            "should recover the true tree"
        );
        assert!(out.newick.ends_with(';'));
    }

    #[test]
    fn multiple_instances_run_simultaneously() {
        let (_, data) = test_alignment(6, 100, 505);
        let config = DprmlConfig::default();
        let mut server = Server::new(small_unit_sched());
        let pids: Vec<_> = (0..3)
            .map(|i| {
                server.submit(build_problem(
                    data.clone(),
                    &config,
                    None,
                    &format!("inst-{i}"),
                ))
            })
            .collect();
        let (mut server, _) = run_tcp(server, 6);
        let outs: Vec<PhyloOutput> = pids
            .iter()
            .map(|&p| server.take_output(p).unwrap().into_inner::<PhyloOutput>())
            .collect();
        // Identical instances must give identical answers.
        assert_eq!(outs[0].tree.rf_distance(&outs[1].tree), 0);
        assert!((outs[0].ln_likelihood - outs[2].ln_likelihood).abs() < 1e-9);
    }

    #[test]
    fn insertion_stage_issues_expected_candidate_count() {
        let (_, data) = test_alignment(5, 60, 99);
        let config = DprmlConfig::default();
        let algo = Arc::new(DprmlAlgo {
            data,
            model: config.build_model(),
            opts: config.search.clone(),
        });
        let mut dm = DprmlDm::new(algo.clone(), 1.0, (0..5).collect());
        // Initial stage is one refine unit, then a barrier.
        let refine = dm.next_unit(1e12).expect("refine unit");
        assert!(
            dm.next_unit(1e12).is_none(),
            "barrier while refine outstanding"
        );
        // Feed the refine result through a real evaluation.
        let r = algo.compute(&refine);
        dm.accept_result(r);
        // Now the insert stage for taxon 3: a 3-taxon tree has 3 edges;
        // with a huge hint they fit one batch.
        let unit = dm.next_unit(1e12).expect("insert batch");
        let du = unit.payload.downcast_ref::<DprmlUnit>().unwrap();
        match du {
            DprmlUnit::Candidates {
                kind: CandidateKind::Insert { taxon },
                range,
                ..
            } => {
                assert_eq!(range.len(), 3, "2i-5 = 3 edges for the 4th taxon");
                assert_eq!(*taxon, 3);
            }
            _ => panic!("expected insert unit"),
        }
        // Tiny hint → batches of one edge each.
        let mut dm2 = DprmlDm::new(algo.clone(), 1.0, (0..5).collect());
        let refine2 = dm2.next_unit(1e12).unwrap();
        let r2 = algo.compute(&refine2);
        dm2.accept_result(r2);
        let u1 = dm2.next_unit(1.0).unwrap();
        match u1.payload.downcast_ref::<DprmlUnit>().unwrap() {
            DprmlUnit::Candidates { range, .. } => assert_eq!(range.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn wire_codec_round_trips_every_unit_and_result_shape() {
        let tree = Tree::initial_triple([0, 1, 2], 0.1);
        let mut four = tree.clone();
        four.insert_leaf(1, 3, 0.1);
        assert_eq!(four.nni_moves().len(), 4);
        let codec = DprmlCodec;

        let units = vec![
            DprmlUnit::Refine { tree: tree.clone() },
            DprmlUnit::Candidates {
                tree: Arc::new(tree.clone()),
                kind: CandidateKind::Insert { taxon: 3 },
                range: 0..3,
            },
            DprmlUnit::Candidates {
                tree: Arc::new(four.clone()),
                kind: CandidateKind::Nni { lnl: -123.456 },
                range: 1..4,
            },
        ];
        for unit in units {
            let payload = Payload::new(unit, 64);
            let bytes = codec.encode_unit(&payload).unwrap();
            let back = codec.decode_unit(&bytes).unwrap();
            // Round-trip fidelity via re-encoding (DprmlUnit is not Eq).
            assert_eq!(codec.encode_unit(&back).unwrap(), bytes);
            assert!(codec.decode_unit(&bytes[..bytes.len() - 1]).is_err());
        }

        // A range the donor cannot index the stage tree's candidates
        // with is a wire error, not a panic on the donor: empty, or
        // ending past the tree's 3 edges or 4 NNI moves.
        let bad = [
            (
                Arc::new(tree.clone()),
                CandidateKind::Insert { taxon: 3 },
                2..2,
            ),
            (
                Arc::new(tree.clone()),
                CandidateKind::Insert { taxon: 3 },
                1..4,
            ),
            (
                Arc::new(four.clone()),
                CandidateKind::Nni { lnl: -1.0 },
                0..0,
            ),
            (
                Arc::new(four.clone()),
                CandidateKind::Nni { lnl: -1.0 },
                3..5,
            ),
        ];
        for (tree, kind, range) in bad {
            let unit = DprmlUnit::Candidates { tree, kind, range };
            let bytes = codec.encode_unit(&Payload::new(unit, 64)).unwrap();
            assert!(codec.decode_unit(&bytes).is_err());
        }

        let kinds = vec![
            DprmlResultKind::Refined {
                tree: tree.clone(),
                lnl: -99.0,
            },
            DprmlResultKind::Best(None),
            DprmlResultKind::Best(Some((2, -77.25, tree.clone()))),
        ];
        for kind in kinds {
            let result = DprmlResult {
                kind,
                stats: KernelStats {
                    backend: 3,
                    pmat_hits: 1234,
                    pmat_misses: 56,
                },
            };
            let payload = Payload::new(result, 64);
            let bytes = codec.encode_result(&payload).unwrap();
            let back = codec.decode_result(&bytes).unwrap();
            assert_eq!(codec.encode_result(&back).unwrap(), bytes);
            let decoded = back.downcast_ref::<DprmlResult>().unwrap();
            assert_eq!(decoded.stats.backend, 3);
            assert_eq!(decoded.stats.pmat_hits, 1234);
            assert_eq!(decoded.stats.pmat_misses, 56);
        }

        // A CRC-clean but topologically nonsense tree is rejected by
        // from_parts-level validation, not trusted.
        let mut w = biodist_core::ByteWriter::new();
        w.u8(1); // Refine tag
        w.u32(1); // one node
        w.usize(0); // root
        w.opt_usize(Some(7)); // parent points outside the arena
        w.u32(0);
        w.f64(0.1);
        w.opt_usize(None);
        assert!(codec.decode_unit(&w.into_bytes()).is_err());
    }

    #[test]
    fn distributed_over_tcp_equals_sequential_reference() {
        let (_, data) = test_alignment(6, 100, 707);
        let config = DprmlConfig::default();
        let model = config.build_model();
        let (ref_tree, ref_lnl) = stepwise_ml(&data, &model, None, &config.search);

        let mut server = Server::new(small_unit_sched());
        let pid = server.submit(build_problem(data.clone(), &config, None, "dprml-tcp"));
        let (mut server, _) = biodist_core::run_tcp(server, 4);
        let out = server.take_output(pid).unwrap().into_inner::<PhyloOutput>();

        assert_eq!(out.tree.rf_distance(&ref_tree), 0);
        assert!((out.ln_likelihood - ref_lnl).abs() < 1e-9);
    }

    #[test]
    fn run_records_kernel_backend_and_pmat_cache_metrics() {
        let (_, data) = test_alignment(6, 100, 606);
        let config = DprmlConfig::default();
        let mut server = Server::new(small_unit_sched());
        server.set_telemetry(biodist_core::Telemetry::enabled());
        let pid = server.submit(build_problem(data, &config, None, "dprml-tel"));
        let (server, _) = run_tcp(server, 4);
        let snap = server.telemetry().metrics_snapshot();
        let backend = snap.gauge("lik.backend").expect("backend gauge recorded");
        assert!(
            biodist_phylo::LikBackend::from_index(backend as u8).is_some(),
            "gauge {backend} must name a real backend"
        );
        assert!(snap.counter("lik.pmat_cache_hits") > 0);
        assert!(snap.counter("lik.pmat_cache_misses") > 0);
        let _ = pid;
    }
}
