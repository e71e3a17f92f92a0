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
//! Candidate evaluation is the pure function
//! [`biodist_phylo::search::evaluate_insertion`]; winners use the same
//! deterministic tie-breaks as the sequential code, so the distributed
//! tree and log-likelihood equal the reference *exactly*. Stage
//! barriers are expressed by returning `None` from `next_unit` while
//! results are outstanding — precisely the behaviour that idles donors
//! when only one DPRml instance runs (paper §3.2 / Fig. 2).

use crate::config::DprmlConfig;
use biodist_core::{
    Algorithm, ByteReader, ByteWriter, DataManager, EventKind, Payload, Problem, ProblemId,
    TaskResult, Telemetry, UnitId, WireCodec, WireError, WorkUnit,
};
use biodist_phylo::lik::TreeLikelihood;
use biodist_phylo::model::SubstModel;
use biodist_phylo::newick::to_newick;
use biodist_phylo::patterns::PatternAlignment;
use biodist_phylo::search::{
    best_candidate, evaluate_insertion, InsertionCandidate, SearchOptions,
};
use biodist_phylo::tree::Tree;
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

type NniMove = (usize, usize, usize);

enum DprmlUnit {
    Refine {
        tree: Tree,
    },
    Insert {
        tree: Arc<Tree>,
        taxon: usize,
        edges: Vec<usize>,
    },
    Nni {
        tree: Arc<Tree>,
        lnl: f64,
        moves: Vec<(usize, NniMove)>,
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
    Refined { tree: Tree, lnl: f64 },
    InsertBest { candidate: InsertionCandidate },
    NniBest { best: Option<(usize, f64, Tree)> },
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

/// Abstract ops for one full pruning traversal (matches the gridsim
/// scale: a PIII-1000 runs ~1e7 of these per second).
fn traversal_ops(n_nodes: usize, data: &PatternAlignment, model: &SubstModel) -> f64 {
    (n_nodes * data.pattern_count() * model.rate_categories().ncat()) as f64 * OPS_PER_NODE_UPDATE
}

/// Ops for optimising one branch for one sweep (traversal + ~20 cheap
/// Brent evaluations of the edge function).
fn edge_round_ops(n_nodes: usize, data: &PatternAlignment, model: &SubstModel) -> f64 {
    1.7 * traversal_ops(n_nodes, data, model)
}

fn insert_candidate_ops(
    tree: &Tree,
    data: &PatternAlignment,
    model: &SubstModel,
    opts: &SearchOptions,
) -> f64 {
    let nodes = tree.node_count() + 2;
    let edges = if opts.local_candidates {
        3
    } else {
        tree.edges().len() + 2
    };
    (opts.candidate_rounds as usize * edges) as f64 * edge_round_ops(nodes, data, model)
        + 2.0 * traversal_ops(nodes, data, model)
}

fn nni_move_ops(
    tree: &Tree,
    data: &PatternAlignment,
    model: &SubstModel,
    opts: &SearchOptions,
) -> f64 {
    opts.candidate_rounds as f64 * edge_round_ops(tree.node_count(), data, model)
        + 2.0 * traversal_ops(tree.node_count(), data, model)
}

fn refine_ops(
    tree: &Tree,
    data: &PatternAlignment,
    model: &SubstModel,
    opts: &SearchOptions,
) -> f64 {
    (opts.refine_rounds as usize * tree.edges().len()) as f64
        * edge_round_ops(tree.node_count(), data, model)
        + 2.0 * traversal_ops(tree.node_count(), data, model)
}

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
const UNIT_INSERT: u8 = 2;
const UNIT_NNI: u8 = 3;
const RESULT_REFINED: u8 = 1;
const RESULT_INSERT_BEST: u8 = 2;
const RESULT_NNI_BEST: u8 = 3;

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
            DprmlUnit::Insert { tree, taxon, edges } => {
                w.u8(UNIT_INSERT);
                write_tree(w, tree);
                w.usize(*taxon);
                w.u32(edges.len() as u32);
                for &e in edges {
                    w.usize(e);
                }
            }
            DprmlUnit::Nni { tree, lnl, moves } => {
                w.u8(UNIT_NNI);
                write_tree(w, tree);
                w.f64(*lnl);
                w.u32(moves.len() as u32);
                for &(idx, (c, a, b)) in moves {
                    w.usize(idx);
                    w.usize(c);
                    w.usize(a);
                    w.usize(b);
                }
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
            UNIT_INSERT => {
                let tree = Arc::new(read_tree(&mut r)?);
                let taxon = r.usize()?;
                let n = r.count(8)?;
                let mut edges = Vec::with_capacity(n);
                for _ in 0..n {
                    edges.push(r.usize()?);
                }
                DprmlUnit::Insert { tree, taxon, edges }
            }
            UNIT_NNI => {
                let tree = Arc::new(read_tree(&mut r)?);
                let lnl = r.f64()?;
                let n = r.count(32)?;
                let mut moves = Vec::with_capacity(n);
                for _ in 0..n {
                    moves.push((r.usize()?, (r.usize()?, r.usize()?, r.usize()?)));
                }
                DprmlUnit::Nni { tree, lnl, moves }
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
            DprmlResultKind::InsertBest { candidate } => {
                w.u8(RESULT_INSERT_BEST);
                w.usize(candidate.edge);
                w.f64(candidate.ln_likelihood);
                write_tree(w, &candidate.tree);
            }
            DprmlResultKind::NniBest { best } => {
                w.u8(RESULT_NNI_BEST);
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
            RESULT_INSERT_BEST => {
                let edge = r.usize()?;
                let ln_likelihood = r.f64()?;
                let tree = read_tree(&mut r)?;
                DprmlResultKind::InsertBest {
                    candidate: InsertionCandidate {
                        edge,
                        ln_likelihood,
                        tree,
                    },
                }
            }
            RESULT_NNI_BEST => {
                let best = match r.u8()? {
                    0 => None,
                    1 => Some((r.usize()?, r.f64()?, read_tree(&mut r)?)),
                    flag => {
                        return Err(WireError::new(format!("bad option flag {flag}")));
                    }
                };
                DprmlResultKind::NniBest { best }
            }
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

struct DprmlAlgo {
    data: Arc<PatternAlignment>,
    model: Arc<SubstModel>,
    opts: SearchOptions,
}

impl Algorithm for DprmlAlgo {
    fn compute(&self, unit: &WorkUnit) -> TaskResult {
        let engine = TreeLikelihood::new(&self.model, &self.data);
        let du = unit
            .payload
            .downcast_ref::<DprmlUnit>()
            .expect("dprml unit");
        let kind = match du {
            DprmlUnit::Refine { tree } => {
                let mut t = tree.clone();
                let lnl =
                    engine.optimize_edges(&mut t, None, self.opts.refine_rounds, self.opts.tol);
                DprmlResultKind::Refined { tree: t, lnl }
            }
            DprmlUnit::Insert { tree, taxon, edges } => {
                let candidates: Vec<InsertionCandidate> = edges
                    .iter()
                    .map(|&e| evaluate_insertion(tree, *taxon, e, &engine, &self.opts))
                    .collect();
                DprmlResultKind::InsertBest {
                    candidate: best_candidate(candidates),
                }
            }
            DprmlUnit::Nni { tree, lnl, moves } => {
                let mut best: Option<(usize, f64, Tree)> = None;
                for &(idx, (c, a, b)) in moves {
                    let mut candidate = (**tree).clone();
                    candidate.nni_swap(c, a, b);
                    let cand_lnl = engine.optimize_edges(
                        &mut candidate,
                        Some(&[c]),
                        self.opts.candidate_rounds,
                        self.opts.tol,
                    );
                    // Same acceptance rule as `nni_improve`: strictly
                    // better than current, strictly better than best so
                    // far (earliest move wins ties).
                    if cand_lnl > lnl + self.opts.tol
                        && best
                            .as_ref()
                            .map(|(_, bl, _)| cand_lnl > *bl)
                            .unwrap_or(true)
                    {
                        best = Some((idx, cand_lnl, candidate));
                    }
                }
                DprmlResultKind::NniBest { best }
            }
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
            DprmlResultKind::Refined { tree, .. } => tree_wire_bytes(tree),
            DprmlResultKind::InsertBest { candidate } => tree_wire_bytes(&candidate.tree),
            DprmlResultKind::NniBest { best } => best
                .as_ref()
                .map(|(_, _, t)| tree_wire_bytes(t))
                .unwrap_or(16),
        };
        TaskResult {
            unit_id: unit.id,
            payload: Payload::new(result, wire),
        }
    }
}

// --------------------------------------------------------- data manager

enum Stage {
    /// One refine unit (dispatched flag, awaiting flag).
    Refine {
        next: RefineNext,
        dispatched: bool,
    },
    Insert {
        taxon: usize,
        edges: Vec<usize>,
        next_edge: usize,
        outstanding: u32,
        best: Option<InsertionCandidate>,
    },
    Nni {
        moves: Vec<NniMove>,
        next_move: usize,
        outstanding: u32,
        best: Option<(usize, f64, Tree)>,
    },
    Done,
}

#[derive(Clone, Copy, PartialEq)]
enum RefineNext {
    InsertNextTaxon,
    TryNni,
}

struct DprmlDm {
    data: Arc<PatternAlignment>,
    model: Arc<SubstModel>,
    opts: SearchOptions,
    cost_scale: f64,
    order: Vec<usize>,
    tree: Tree,
    lnl: f64,
    taxon_pos: usize,
    insertions_done: u32,
    nni_round: u32,
    stage: Stage,
    stage_tree: Arc<Tree>,
    next_id: UnitId,
    /// Installed by the server; stage transitions emit `StageStarted`
    /// so run reports can place the barrier boundaries that idle
    /// donors when only one instance runs (paper §3.2 / Fig. 2).
    telemetry: Telemetry,
    problem: ProblemId,
}

impl DprmlDm {
    fn new(
        data: Arc<PatternAlignment>,
        model: Arc<SubstModel>,
        opts: SearchOptions,
        cost_scale: f64,
        order: Vec<usize>,
    ) -> Self {
        let tree = Tree::initial_triple([order[0], order[1], order[2]], opts.initial_blen);
        let stage_tree = Arc::new(tree.clone());
        Self {
            data,
            model,
            opts,
            cost_scale,
            order,
            tree,
            lnl: f64::NEG_INFINITY,
            taxon_pos: 3,
            insertions_done: 0,
            nni_round: 0,
            stage: Stage::Refine {
                next: RefineNext::InsertNextTaxon,
                dispatched: false,
            },
            stage_tree,
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
            Stage::Insert { .. } => "insert",
            Stage::Nni { .. } => "nni",
            Stage::Done => "done",
        };
        self.telemetry.emit(EventKind::StageStarted {
            problem: self.problem,
            stage: stage.to_string(),
        });
    }

    fn start_insert_or_done(&mut self) {
        if self.taxon_pos >= self.order.len() {
            self.stage = Stage::Done;
            self.note_stage();
            return;
        }
        let taxon = self.order[self.taxon_pos];
        self.taxon_pos += 1;
        self.nni_round = 0;
        self.stage_tree = Arc::new(self.tree.clone());
        self.stage = Stage::Insert {
            taxon,
            edges: self.tree.edges(),
            next_edge: 0,
            outstanding: 0,
            best: None,
        };
        self.note_stage();
    }

    fn try_nni_or_advance(&mut self) {
        if !self.opts.nni || self.nni_round >= 8 {
            self.start_insert_or_done();
            return;
        }
        let moves = self.tree.nni_moves();
        if moves.is_empty() {
            self.start_insert_or_done();
            return;
        }
        self.stage_tree = Arc::new(self.tree.clone());
        self.stage = Stage::Nni {
            moves,
            next_move: 0,
            outstanding: 0,
            best: None,
        };
        self.note_stage();
    }

    fn start_refine(&mut self, next: RefineNext) {
        self.stage = Stage::Refine {
            next,
            dispatched: false,
        };
        self.note_stage();
    }

    fn make_unit(&mut self, payload: DprmlUnit, cost_ops: f64, wire: u64) -> WorkUnit {
        let id = self.next_id;
        self.next_id += 1;
        WorkUnit {
            id,
            payload: Payload::new(payload, wire),
            cost_ops: cost_ops * self.cost_scale,
        }
    }
}

impl DataManager for DprmlDm {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        match &mut self.stage {
            Stage::Done => None,
            Stage::Refine { dispatched, .. } => {
                if *dispatched {
                    return None; // stage barrier
                }
                *dispatched = true;
                let tree = self.tree.clone();
                let cost = refine_ops(&tree, &self.data, &self.model, &self.opts);
                let wire = tree_wire_bytes(&tree);
                Some(self.make_unit(DprmlUnit::Refine { tree }, cost, wire))
            }
            Stage::Insert {
                taxon,
                edges,
                next_edge,
                outstanding,
                ..
            } => {
                if *next_edge >= edges.len() {
                    return None; // barrier: waiting for batch results
                }
                let per =
                    insert_candidate_ops(&self.stage_tree, &self.data, &self.model, &self.opts)
                        * self.cost_scale;
                let batch = ((hint_ops / per).floor() as usize).clamp(1, edges.len() - *next_edge);
                let slice: Vec<usize> = edges[*next_edge..*next_edge + batch].to_vec();
                *next_edge += batch;
                *outstanding += 1;
                let taxon = *taxon;
                let cost = per / self.cost_scale * batch as f64;
                let wire = tree_wire_bytes(&self.stage_tree) + 16 * batch as u64;
                let tree = self.stage_tree.clone();
                Some(self.make_unit(
                    DprmlUnit::Insert {
                        tree,
                        taxon,
                        edges: slice,
                    },
                    cost,
                    wire,
                ))
            }
            Stage::Nni {
                moves,
                next_move,
                outstanding,
                ..
            } => {
                if *next_move >= moves.len() {
                    return None;
                }
                let per = nni_move_ops(&self.stage_tree, &self.data, &self.model, &self.opts)
                    * self.cost_scale;
                let batch = ((hint_ops / per).floor() as usize).clamp(1, moves.len() - *next_move);
                let slice: Vec<(usize, NniMove)> = (*next_move..*next_move + batch)
                    .map(|i| (i, moves[i]))
                    .collect();
                *next_move += batch;
                *outstanding += 1;
                let cost = per / self.cost_scale * batch as f64;
                let wire = tree_wire_bytes(&self.stage_tree) + 24 * batch as u64;
                let tree = self.stage_tree.clone();
                let lnl = self.lnl;
                Some(self.make_unit(
                    DprmlUnit::Nni {
                        tree,
                        lnl,
                        moves: slice,
                    },
                    cost,
                    wire,
                ))
            }
        }
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
            (Stage::Refine { next, .. }, DprmlResultKind::Refined { tree, lnl }) => {
                let next = *next;
                self.tree = tree;
                self.lnl = lnl;
                match next {
                    RefineNext::InsertNextTaxon => self.start_insert_or_done(),
                    RefineNext::TryNni => self.try_nni_or_advance(),
                }
            }
            (
                Stage::Insert {
                    edges,
                    next_edge,
                    outstanding,
                    best,
                    ..
                },
                DprmlResultKind::InsertBest { candidate },
            ) => {
                // Same tie-break as `best_candidate`: higher lnl, then
                // smaller edge id.
                let better = match best {
                    None => true,
                    Some(b) => {
                        candidate.ln_likelihood > b.ln_likelihood
                            || (candidate.ln_likelihood == b.ln_likelihood
                                && candidate.edge < b.edge)
                    }
                };
                if better {
                    *best = Some(candidate);
                }
                *outstanding -= 1;
                if *next_edge >= edges.len() && *outstanding == 0 {
                    let chosen = best.take().expect("at least one candidate");
                    self.tree = chosen.tree;
                    self.insertions_done += 1;
                    // Same cadence as the sequential reference: full
                    // refinement every `refine_every`-th insertion and
                    // after the last one.
                    let re = self.opts.refine_every.max(1);
                    let is_last = self.taxon_pos >= self.order.len();
                    if self.insertions_done.is_multiple_of(re) || is_last {
                        self.start_refine(RefineNext::TryNni);
                    } else {
                        self.lnl = chosen.ln_likelihood;
                        self.try_nni_or_advance();
                    }
                }
            }
            (
                Stage::Nni {
                    moves,
                    next_move,
                    outstanding,
                    best,
                },
                DprmlResultKind::NniBest { best: batch_best },
            ) => {
                if let Some((idx, lnl, tree)) = batch_best {
                    // Strictly-greater comparison, ties to the earliest
                    // move index — identical to `nni_improve`.
                    let better = match best {
                        None => true,
                        Some((bidx, blnl, _)) => lnl > *blnl || (lnl == *blnl && idx < *bidx),
                    };
                    if better {
                        *best = Some((idx, lnl, tree));
                    }
                }
                *outstanding -= 1;
                if *next_move >= moves.len() && *outstanding == 0 {
                    match best.take() {
                        Some((_, _, tree)) => {
                            self.tree = tree;
                            self.nni_round += 1;
                            self.start_refine(RefineNext::TryNni);
                        }
                        None => self.start_insert_or_done(),
                    }
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
        let newick = to_newick(&self.tree, &self.data.names);
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
    let model = Arc::new(config.build_model());
    // Setup download: the alignment (patterns × taxa bytes) + code.
    let setup = (data.pattern_count() * n) as u64 + 200_000;
    let dm = DprmlDm::new(
        data.clone(),
        model.clone(),
        config.search.clone(),
        config.cost_scale,
        order,
    );
    let algo = DprmlAlgo {
        data,
        model,
        opts: config.search.clone(),
    };
    Problem::new(instance_name, Box::new(dm), Arc::new(algo))
        .with_setup_bytes(setup)
        .with_codec(Arc::new(DprmlCodec))
}

/// Rough sequential cost (abstract ops) of a full stepwise run — used
/// by harnesses for sanity checks and progress estimates.
pub fn estimate_sequential_ops(data: &PatternAlignment, config: &DprmlConfig) -> f64 {
    let model = config.build_model();
    let n = data.taxon_count();
    let opts = &config.search;
    let mut total = 0.0;
    for i in 3..=n {
        let nodes = 2 * i - 2;
        let edges = 2 * i - 3;
        let tree_cost = (nodes * data.pattern_count() * model.rate_categories().ncat()) as f64
            * OPS_PER_NODE_UPDATE;
        // Insert stage: one candidate per edge.
        total +=
            edges as f64 * ((opts.candidate_rounds * 3) as f64 * 1.7 * tree_cost + 2.0 * tree_cost);
        // Refine + one NNI sweep (coarse).
        total += (opts.refine_rounds as usize * edges) as f64 * 1.7 * tree_cost;
        if opts.nni {
            total += (4 * (i.saturating_sub(3))) as f64
                * (opts.candidate_rounds as f64 * 1.7 * tree_cost + 2.0 * tree_cost);
        }
    }
    total
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
        let model = Arc::new(config.build_model());
        let mut dm = DprmlDm::new(
            data.clone(),
            model,
            config.search.clone(),
            1.0,
            (0..5).collect(),
        );
        // Initial stage is one refine unit, then a barrier.
        let refine = dm.next_unit(1e12).expect("refine unit");
        assert!(
            dm.next_unit(1e12).is_none(),
            "barrier while refine outstanding"
        );
        // Feed the refine result through a real evaluation.
        let algo = DprmlAlgo {
            data: data.clone(),
            model: Arc::new(config.build_model()),
            opts: config.search.clone(),
        };
        let r = algo.compute(&refine);
        dm.accept_result(r);
        // Now the insert stage for taxon 3: a 3-taxon tree has 3 edges;
        // with a huge hint they fit one batch.
        let unit = dm.next_unit(1e12).expect("insert batch");
        let du = unit.payload.downcast_ref::<DprmlUnit>().unwrap();
        match du {
            DprmlUnit::Insert { edges, taxon, .. } => {
                assert_eq!(edges.len(), 3, "2i-5 = 3 edges for the 4th taxon");
                assert_eq!(*taxon, 3);
            }
            _ => panic!("expected insert unit"),
        }
        // Tiny hint → batches of one edge each.
        let mut dm2 = DprmlDm::new(
            data,
            Arc::new(config.build_model()),
            config.search.clone(),
            1.0,
            (0..5).collect(),
        );
        let refine2 = dm2.next_unit(1e12).unwrap();
        let r2 = algo.compute(&refine2);
        dm2.accept_result(r2);
        let u1 = dm2.next_unit(1.0).unwrap();
        match u1.payload.downcast_ref::<DprmlUnit>().unwrap() {
            DprmlUnit::Insert { edges, .. } => assert_eq!(edges.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn wire_codec_round_trips_every_unit_and_result_shape() {
        let tree = Tree::initial_triple([0, 1, 2], 0.1);
        let codec = DprmlCodec;

        let units = vec![
            DprmlUnit::Refine { tree: tree.clone() },
            DprmlUnit::Insert {
                tree: Arc::new(tree.clone()),
                taxon: 3,
                edges: vec![0, 1, 2],
            },
            DprmlUnit::Nni {
                tree: Arc::new(tree.clone()),
                lnl: -123.456,
                moves: vec![(0, (3, 0, 1)), (1, (3, 0, 2))],
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

        let kinds = vec![
            DprmlResultKind::Refined {
                tree: tree.clone(),
                lnl: -99.0,
            },
            DprmlResultKind::InsertBest {
                candidate: InsertionCandidate {
                    edge: 1,
                    ln_likelihood: -88.5,
                    tree: tree.clone(),
                },
            },
            DprmlResultKind::NniBest { best: None },
            DprmlResultKind::NniBest {
                best: Some((2, -77.25, tree.clone())),
            },
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

    #[test]
    fn estimate_sequential_ops_grows_with_taxa() {
        let (_, small) = test_alignment(5, 100, 1);
        let (_, big) = test_alignment(10, 100, 2);
        let cfg = DprmlConfig::default();
        assert!(estimate_sequential_ops(&big, &cfg) > 3.0 * estimate_sequential_ops(&small, &cfg));
    }
}
