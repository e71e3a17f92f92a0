//! Felsenstein-pruning log-likelihood and branch-length optimisation.
//!
//! The engine keeps, for every node `v`, *downward* conditional
//! likelihoods `D[v]` (data below `v` given the state at `v`) computed
//! in one postorder pass, and — when optimising — *edge-outside*
//! partials `E[v]` (data outside the subtree of `v`, given the state at
//! `v`'s parent, excluding `v`'s own branch) computed in one preorder
//! pass. The likelihood of the whole tree can then be written for any
//! edge `v→u` as
//!
//! ```text
//! L = Σ_pattern w · Σ_cat prob · Σ_s π_s · E[v][s] · (P_v(t)·D[v])[s]
//! ```
//!
//! which depends on the branch length `t` of that edge only through
//! `P_v(t)` — so Brent's method can optimise each branch at the cost of
//! a 4×4 matrix–vector product per evaluation instead of a full
//! traversal. Per-pattern scaling keeps partials in range for large
//! trees; reversibility lets the stationary prior sit at either end of
//! an edge.
//!
//! # Backends
//!
//! One engine, run in the `f64` lane width [`LikBackend`] selects
//! (portable, SSE2 or AVX2): SoA partials (`[category][state][pattern]`,
//! pattern axis padded to SIMD width) processed by the kernels in
//! [`crate::lik_simd`], with four structural optimisations on top of
//! the vectorisation: leaf tips become 5-entry lookup tables instead of
//! materialised partials, rescaling happens only when a hoisted
//! lane-wide max check finds a pattern outside `[1e-80, 1e80]`
//! (instead of a `ln()` per pattern per node), transition matrices are
//! cached per (branch-length bits) and shared across every candidate
//! evaluation in a DPRml stage, and partials buffers are pooled so
//! Brent iterations and stage candidates reallocate nothing.
//!
//! The three backends are bit-identical to each other; the parity
//! suite pins that, and checks all of them against a plain AoS pruning
//! oracle of its own.

use crate::lik_simd::{self, LikBackend, Mat4};
use crate::model::SubstModel;
use crate::patterns::PatternAlignment;
use crate::tree::{Tree, MIN_BRANCH};
use biodist_util::optim::brent_minimize;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Largest branch length the optimiser will propose.
pub const MAX_BRANCH: f64 = 10.0;

/// SIMD-path rescale thresholds: a pattern is renormalised only when
/// its magnitude leaves this range. Partials enter edge products as
/// `D·E`, so the low bound must keep squares well clear of the
/// denormal floor (1e-160 ≫ 5e-324).
const SCALE_LOW: f64 = 1e-80;
const SCALE_HIGH: f64 = 1e80;

/// Transition-matrix cache bound; reached only by pathological
/// branch-length churn, in which case the cache is dropped and rebuilt.
const PMAT_CACHE_CAP: usize = 4096;

// The pmat cache is keyed by branch-length bits, which are already
// well-mixed doubles — a multiplicative hash beats SipHash on the hot
// per-node lookup path.
#[derive(Debug, Clone, Default)]
struct BitsHashBuilder;

#[derive(Default)]
struct BitsHasher(u64);

impl std::hash::Hasher for BitsHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::hash::BuildHasher for BitsHashBuilder {
    type Hasher = BitsHasher;

    fn build_hasher(&self) -> BitsHasher {
        BitsHasher(0)
    }
}

/// A likelihood engine bound to one model and one alignment.
#[derive(Debug, Clone)]
pub struct TreeLikelihood<'a> {
    model: &'a SubstModel,
    data: &'a PatternAlignment,
    backend: LikBackend,
    /// Pattern count rounded up to the SoA lane padding.
    npad: usize,
    /// `codes_by_taxon[taxon][pattern]` — the transpose of the pattern
    /// matrix, so leaf lookups walk contiguous memory.
    codes_by_taxon: Vec<Vec<u8>>,
    /// Recycled partials buffers.
    pool: RefCell<Vec<Partials>>,
    /// `P_v(t)` cache keyed by branch-length bits. Only branch lengths
    /// that live on a tree enter the cache; Brent's transient proposals
    /// go through the spectral coefficients and never build a matrix.
    pmats: RefCell<HashMap<u64, Rc<EdgePmats>, BitsHashBuilder>>,
    pmat_hits: Cell<u64>,
    pmat_misses: Cell<u64>,
    /// Spectral weights for the coefficient branch-length objective,
    /// replicated per rate category so `product_into` applies them as
    /// node-update matrices: `coef_wa[cat][k][s] = U[s][k]/4`,
    /// `coef_wb[cat][k][j] = U⁻¹[k][j]` (see `build_edge_coefs`).
    coef_wa: Vec<Mat4>,
    coef_wb: Vec<Mat4>,
    /// Leaf form of `coef_wb`: `U⁻¹[k][code]`, row sum for code 4.
    coef_lutb: [[f64; 5]; 4],
    scratch: RefCell<Scratch>,
}

// Per-node partials, [category][state][pattern] with the pattern axis
// padded to `npad`, plus a per-pattern log-scale accumulator.
#[derive(Debug, Clone, Default)]
struct Partials {
    values: Vec<f64>,
    scale: Vec<f64>,
}

/// Everything derived from one `(edge, branch length)`: per-category
/// transition matrices, their transposes (for descending the outside
/// recursion), and per-category leaf lookup tables
/// `lut[cat][s][code]` = `P[s][code]` for real codes, row sum for the
/// ambiguity code 4.
#[derive(Debug, Clone, Default)]
struct EdgePmats {
    mats: Vec<Mat4>,
    mats_t: Vec<Mat4>,
    lut: Vec<[[f64; 5]; 4]>,
}

#[derive(Debug, Clone)]
struct Scratch {
    /// Per-pattern site likelihoods (root / edge reductions).
    site: Vec<f64>,
    /// Per-pattern maxima for the hoisted rescale check.
    mx: Vec<f64>,
    /// `ev[cat][k] = prob·e^{λ_k·r·t}` for the coefficient objective.
    ev: Vec<[f64; 4]>,
}

// Leaf tip × transition matrix, fused: the child message of a leaf is
// a lookup `lut[cat][s][code]`, never a materialised partial. Exact
// (the skipped terms of the dot product are multiplications by 0/1),
// so this stays bit-compatible with the generic kernel contract.
fn leaf_product_into(
    dst: &mut [f64],
    codes: &[u8],
    lut: &[[[f64; 5]; 4]],
    npad: usize,
    assign: bool,
) {
    for (cat, lc) in lut.iter().enumerate() {
        for (s, tbl) in lc.iter().enumerate() {
            let row = &mut dst[(cat * 4 + s) * npad..][..npad];
            if assign {
                for (x, &c) in row.iter_mut().zip(codes.iter()) {
                    *x = tbl[c as usize];
                }
                row[codes.len()..].fill(0.0);
            } else {
                for (x, &c) in row.iter_mut().zip(codes.iter()) {
                    *x *= tbl[c as usize];
                }
            }
        }
    }
}

impl<'a> TreeLikelihood<'a> {
    /// Binds a model to an alignment, selecting the widest supported
    /// SIMD backend (`BIODIST_LIK_BACKEND` overrides detection).
    pub fn new(model: &'a SubstModel, data: &'a PatternAlignment) -> Self {
        Self::with_backend(model, data, LikBackend::select())
    }

    /// Binds a model to an alignment with an explicit backend (benches
    /// and parity tests; `backend` must be supported by the CPU).
    pub fn with_backend(
        model: &'a SubstModel,
        data: &'a PatternAlignment,
        backend: LikBackend,
    ) -> Self {
        assert!(
            backend.is_supported(),
            "likelihood backend {} is not supported on this CPU",
            backend.name()
        );
        let np = data.pattern_count();
        let npad = lik_simd::padded(np);
        let codes_by_taxon = (0..data.taxon_count())
            .map(|t| (0..np).map(|p| data.code(p, t)).collect())
            .collect();
        let ncat = model.rate_categories().ncat();
        let (_, u, u_inv) = model.eigen_system();
        let wa: Mat4 = std::array::from_fn(|k| std::array::from_fn(|s| 0.25 * u[s][k]));
        let lutb: [[f64; 5]; 4] = std::array::from_fn(|k| {
            let r = &u_inv[k];
            [r[0], r[1], r[2], r[3], ((r[0] + r[1]) + r[2]) + r[3]]
        });
        Self {
            model,
            data,
            backend,
            npad,
            codes_by_taxon,
            pool: RefCell::new(Vec::new()),
            pmats: RefCell::new(HashMap::with_hasher(BitsHashBuilder)),
            pmat_hits: Cell::new(0),
            pmat_misses: Cell::new(0),
            coef_wa: vec![wa; ncat],
            coef_wb: vec![*u_inv; ncat],
            coef_lutb: lutb,
            scratch: RefCell::new(Scratch {
                site: vec![0.0; npad],
                mx: vec![0.0; npad],
                ev: vec![[0.0; 4]; ncat],
            }),
        }
    }

    /// The alignment in use.
    pub fn data(&self) -> &PatternAlignment {
        self.data
    }

    /// The model in use.
    pub fn model(&self) -> &SubstModel {
        self.model
    }

    /// The kernel implementation this engine dispatches to.
    pub fn backend(&self) -> LikBackend {
        self.backend
    }

    /// Transition-matrix cache `(hits, misses)` since construction —
    /// surfaces as the `lik.pmat_cache_hits`/`lik.pmat_cache_misses`
    /// metrics.
    pub fn pmat_cache_stats(&self) -> (u64, u64) {
        (self.pmat_hits.get(), self.pmat_misses.get())
    }

    #[inline]
    fn ncat(&self) -> usize {
        self.model.rate_categories().ncat()
    }

    #[inline]
    fn stride(&self) -> usize {
        self.ncat() * 4
    }

    /// Abstract cost of one full pruning traversal, in "node updates"
    /// (pattern × category × 4×4 products). Used by the scheduler and
    /// the simulator as the work-unit cost model.
    pub fn traversal_cost(&self, tree: &Tree) -> u64 {
        (tree.node_count() as u64) * (self.data.pattern_count() as u64) * (self.ncat() as u64)
    }

    // ---------------------------------------------------- buffer pool

    // A partials buffer sized for the SoA layout, recycled from the
    // pool when possible. `values` is NOT zeroed: every consumer's
    // first write is an assignment (`leaf_product_into`/`product_into`
    // with `assign`, or an explicit row fill).
    fn acquire(&self) -> Partials {
        let np = self.data.pattern_count();
        let len = self.stride() * self.npad;
        let mut p = self.pool.borrow_mut().pop().unwrap_or_default();
        p.values.resize(len, 0.0);
        p.scale.clear();
        p.scale.resize(np, 0.0);
        p
    }

    fn recycle(&self, p: Partials) {
        // Leaf entries of a down pass hold no buffer.
        if !p.values.is_empty() {
            self.pool.borrow_mut().push(p);
        }
    }

    fn recycle_vec(&self, parts: Vec<Partials>) {
        for p in parts {
            self.recycle(p);
        }
    }

    // ----------------------------------------------------- pmat cache

    fn fill_edge_pmats(&self, t: f64, out: &mut EdgePmats) {
        let cats = self.model.rate_categories();
        let ncat = cats.ncat();
        out.mats.clear();
        out.mats_t.resize(ncat, [[0.0; 4]; 4]);
        out.lut.resize(ncat, [[0.0; 5]; 4]);
        for (cat, &rate) in cats.rates.iter().enumerate() {
            let pm = self.model.transition_matrix(t, rate);
            for s in 0..4 {
                for j in 0..4 {
                    out.mats_t[cat][s][j] = pm[j][s];
                    out.lut[cat][s][j] = pm[s][j];
                }
                // Ambiguity column: row sum, associated exactly like
                // the generic dot product against an all-ones child.
                out.lut[cat][s][4] = ((pm[s][0] + pm[s][1]) + pm[s][2]) + pm[s][3];
            }
            out.mats.push(pm);
        }
    }

    // Cached matrices for a branch length that lives on a tree.
    fn edge_pmats(&self, t: f64) -> Rc<EdgePmats> {
        let key = t.to_bits();
        if let Some(p) = self.pmats.borrow().get(&key) {
            self.pmat_hits.set(self.pmat_hits.get() + 1);
            return Rc::clone(p);
        }
        self.pmat_misses.set(self.pmat_misses.get() + 1);
        let mut e = EdgePmats::default();
        self.fill_edge_pmats(t, &mut e);
        let entry = Rc::new(e);
        let mut cache = self.pmats.borrow_mut();
        if cache.len() >= PMAT_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Rc::clone(&entry));
        entry
    }

    // Rescales only the patterns whose magnitude left
    // [SCALE_LOW, SCALE_HIGH]. The common case — nothing to do — costs
    // one SIMD max-reduction plus a scalar scan, not a ln() per pattern
    // per node.
    fn rescale_if_needed(&self, p: &mut Partials) {
        let np = self.data.pattern_count();
        let nrows = self.stride();
        let mut scratch = self.scratch.borrow_mut();
        lik_simd::row_max(self.backend, &p.values, nrows, self.npad, &mut scratch.mx);
        let out_of_range = |m: f64| m > 0.0 && !(SCALE_LOW..=SCALE_HIGH).contains(&m);
        if !scratch.mx[..np].iter().any(|&m| out_of_range(m)) {
            return;
        }
        for pat in 0..np {
            let mx = scratch.mx[pat];
            if out_of_range(mx) {
                let inv = 1.0 / mx;
                for r in 0..nrows {
                    p.values[r * self.npad + pat] *= inv;
                }
                p.scale[pat] += mx.ln();
            }
        }
    }

    // ------------------------------------------------ downward passes

    // Recomputes the down partial of one internal node from its
    // children's current partials (leaf children via lookup tables).
    fn update_internal_node(&self, tree: &Tree, down: &[Partials], u: usize) -> Partials {
        let npad = self.npad;
        let mut p = self.acquire();
        let mut first = true;
        for &c in &tree.node(u).children {
            let pm = self.edge_pmats(tree.branch_length(c));
            if let Some(taxon) = tree.node(c).taxon {
                leaf_product_into(
                    &mut p.values,
                    &self.codes_by_taxon[taxon],
                    &pm.lut,
                    npad,
                    first,
                );
            } else {
                let child = &down[c];
                lik_simd::product_into(
                    self.backend,
                    &mut p.values,
                    &child.values,
                    &pm.mats,
                    npad,
                    first,
                );
                for (sc, &cs) in p.scale.iter_mut().zip(child.scale.iter()) {
                    *sc += cs;
                }
            }
            first = false;
        }
        self.rescale_if_needed(&mut p);
        p
    }

    // Downward pass. Only internal nodes carry partials — leaf entries
    // stay empty, their contribution is folded in through lookup tables.
    fn compute_down(&self, tree: &Tree) -> Vec<Partials> {
        let mut parts: Vec<Partials> = (0..tree.node_count())
            .map(|_| Partials::default())
            .collect();
        for v in tree.postorder() {
            if tree.node(v).is_leaf() {
                continue;
            }
            parts[v] = self.update_internal_node(tree, &parts, v);
        }
        parts
    }

    // After edge v's branch length changed, only v's ancestors see
    // different data below them: recompute just the root path,
    // bottom-up. The result is bit-identical to a fresh postorder pass.
    fn refresh_down_path(&self, tree: &Tree, down: &mut [Partials], v: usize) {
        let mut cur = tree.node(v).parent;
        while let Some(u) = cur {
            let p = self.update_internal_node(tree, down, u);
            let old = std::mem::replace(&mut down[u], p);
            self.recycle(old);
            cur = tree.node(u).parent;
        }
    }

    /// Log-likelihood of the tree.
    pub fn log_likelihood(&self, tree: &Tree) -> f64 {
        debug_assert!(tree.validate().is_ok());
        let down = self.compute_down(tree);
        let lnl = self.root_log_likelihood(tree, &down);
        self.recycle_vec(down);
        lnl
    }

    fn root_log_likelihood(&self, tree: &Tree, down: &[Partials]) -> f64 {
        let np = self.data.pattern_count();
        let freqs = self.model.freqs();
        let probs = &self.model.rate_categories().probs;
        let root = &down[tree.root()];
        let mut scratch = self.scratch.borrow_mut();
        lik_simd::root_site_sums(
            self.backend,
            &root.values,
            &freqs,
            probs,
            &mut scratch.site,
            self.npad,
        );
        // Padding slots hold 0 after the sums; park them at 1 (ln = 0)
        // so the vectorised ln pass never sees them.
        scratch.site[np..].fill(1.0);
        lik_simd::ln_into(self.backend, &mut scratch.site);
        let weights = self.data.weights();
        let mut lnl = 0.0;
        for pat in 0..np {
            lnl += weights[pat] * (scratch.site[pat] + root.scale[pat]);
        }
        lnl
    }

    // ------------------------------------------------- outside passes

    // Edge-outside partial for a single edge, computed only along the
    // root → v path (O(depth) node updates instead of O(n)).
    fn compute_edge_outside_one(&self, tree: &Tree, down: &[Partials], v: usize) -> Partials {
        let np = self.data.pattern_count();
        let npad = self.npad;

        // Path of (parent, child) pairs from the root down to v.
        let mut path = Vec::new();
        let mut cur = v;
        while let Some(p) = tree.node(cur).parent {
            path.push((p, cur));
            cur = p;
        }
        path.reverse();

        // O at the root carries the stationary prior.
        let freqs = self.model.freqs();
        let mut o = self.acquire();
        for cat in 0..self.ncat() {
            for s in 0..4 {
                let row = &mut o.values[(cat * 4 + s) * npad..][..npad];
                row[..np].fill(freqs[s]);
                row[np..].fill(0.0);
            }
        }

        for &(u, next) in &path {
            // E[next] = O[u] ⊙ Π_{w child of u, w ≠ next} (P_w · D[w]).
            let mut e = o;
            for &w in &tree.node(u).children {
                if w == next {
                    continue;
                }
                let pm = self.edge_pmats(tree.branch_length(w));
                if let Some(taxon) = tree.node(w).taxon {
                    leaf_product_into(
                        &mut e.values,
                        &self.codes_by_taxon[taxon],
                        &pm.lut,
                        npad,
                        false,
                    );
                } else {
                    let d = &down[w];
                    lik_simd::product_into(
                        self.backend,
                        &mut e.values,
                        &d.values,
                        &pm.mats,
                        npad,
                        false,
                    );
                    for (sc, &ds) in e.scale.iter_mut().zip(d.scale.iter()) {
                        *sc += ds;
                    }
                }
            }
            self.rescale_if_needed(&mut e);
            if next == v {
                return e;
            }
            // Descend: O[next][s] = Σ_s' E[next][s'] · P_next[s'][s],
            // i.e. a product against the transposed matrices.
            let pm = self.edge_pmats(tree.branch_length(next));
            let mut no = self.acquire();
            lik_simd::product_into(
                self.backend,
                &mut no.values,
                &e.values,
                &pm.mats_t,
                npad,
                true,
            );
            no.scale.copy_from_slice(&e.scale);
            self.recycle(e);
            o = no;
        }
        unreachable!("v must appear on its own root path");
    }

    // ------------------------------------------------ edge likelihood

    /// Optimises the branch lengths of `edges` (or all edges when
    /// `None`) by Gauss–Seidel coordinate ascent with Brent's method;
    /// returns the final log-likelihood.
    ///
    /// Each edge is optimised exactly against *current* partials, so the
    /// likelihood is monotonically non-decreasing. Sweeps repeat until
    /// the gain drops below `tol` or `max_rounds` is hit.
    ///
    /// The down partials are maintained incrementally — after an
    /// accepted branch-length change only the edge's root path is
    /// recomputed, instead of a full postorder traversal per edge — and
    /// Brent runs over per-edge spectral coefficients instead of
    /// rebuilding transition matrices per proposal.
    pub fn optimize_edges(
        &self,
        tree: &mut Tree,
        edges: Option<&[usize]>,
        max_rounds: u32,
        tol: f64,
    ) -> f64 {
        let all_edges;
        let edges: &[usize] = match edges {
            Some(e) => e,
            None => {
                all_edges = tree.edges();
                &all_edges
            }
        };
        let mut down = self.compute_down(tree);
        let mut best_lnl = self.root_log_likelihood(tree, &down);
        for _ in 0..max_rounds {
            let round_start = best_lnl;
            for &v in edges {
                if v == tree.root() {
                    continue;
                }
                let e = self.compute_edge_outside_one(tree, &down, v);
                let coefs = self.build_edge_coefs(tree, &down, &e, v);
                let down_scale = if tree.node(v).taxon.is_some() {
                    None
                } else {
                    Some(down[v].scale.as_slice())
                };
                let current = tree.branch_length(v);
                let f_current =
                    self.edge_coef_log_likelihood(&coefs, down_scale, &e.scale, current);
                let r = brent_minimize(
                    |t| -self.edge_coef_log_likelihood(&coefs, down_scale, &e.scale, t),
                    MIN_BRANCH,
                    MAX_BRANCH,
                    1e-7,
                    64,
                );
                self.recycle(coefs);
                self.recycle(e);
                // Coordinate ascent: only accept genuine improvements;
                // the running total is re-anchored exactly below.
                if -r.fmin > f_current {
                    tree.set_branch_length(v, r.xmin.clamp(MIN_BRANCH, MAX_BRANCH));
                    self.refresh_down_path(tree, &mut down, v);
                }
            }
            // Re-anchor on an exact evaluation (scale bookkeeping above
            // accumulates tiny drift over many edges).
            best_lnl = self.root_log_likelihood(tree, &down);
            if best_lnl - round_start < tol {
                break;
            }
        }
        self.recycle_vec(down);
        best_lnl
    }

    /// Folds the eigenbasis into per-pattern coefficients for the edge
    /// above `v`: with `P(rt) = U·diag(e^{λ_k·rt})·U⁻¹`, the edge site
    /// likelihood becomes `Σ_cat Σ_k prob·e^{λ_k·r·t}·C[cat][k][pat]`
    /// where `C = (Σ_s U[s][k]·E_s)·(Σ_j U⁻¹[k][j]·D_j)` depends on
    /// the partials but not on `t`. Brent then pays four exponentials
    /// per category per iteration instead of a matrix rebuild.
    ///
    /// `E` already carries the stationary prior, so no `π_s` enters
    /// here. The coefficients are built at a quarter of `C`: ¼ is exact
    /// in binary, shifts the objective by the constant `−Σw·ln 4` that
    /// Brent does not see, and equals `π_s` under uniform base
    /// frequencies — DPRml's default — where it reproduces bit for bit
    /// the branch lengths the committed figures and traces were made
    /// with.
    fn build_edge_coefs(
        &self,
        tree: &Tree,
        down: &[Partials],
        edge_v: &Partials,
        v: usize,
    ) -> Partials {
        let mut c = self.acquire();
        lik_simd::product_into(
            self.backend,
            &mut c.values,
            &edge_v.values,
            &self.coef_wa,
            self.npad,
            true,
        );
        if let Some(taxon) = tree.node(v).taxon {
            let codes = &self.codes_by_taxon[taxon];
            for cat in 0..self.ncat() {
                for k in 0..4 {
                    let row = &mut c.values[(cat * 4 + k) * self.npad..][..self.npad];
                    let tbl = &self.coef_lutb[k];
                    for (x, &code) in row.iter_mut().zip(codes.iter()) {
                        *x *= tbl[code as usize];
                    }
                }
            }
        } else {
            let mut b = self.acquire();
            lik_simd::product_into(
                self.backend,
                &mut b.values,
                &down[v].values,
                &self.coef_wb,
                self.npad,
                true,
            );
            for (x, y) in c.values.iter_mut().zip(b.values.iter()) {
                *x *= y;
            }
            self.recycle(b);
        }
        c
    }

    /// The Brent objective over prebuilt spectral coefficients: the
    /// log-likelihood seen across edge `v` as a function of its branch
    /// length `t` (the module docs' edge formula), less `Σw·ln 4` (see
    /// `build_edge_coefs`; the only other deviation is the ±1e-16
    /// eigen-noise clamp `transition_matrix` applies). Elementwise per
    /// pattern, so bit-identical across SIMD backends.
    fn edge_coef_log_likelihood(
        &self,
        coefs: &Partials,
        down_scale: Option<&[f64]>,
        edge_scale: &[f64],
        t: f64,
    ) -> f64 {
        let np = self.data.pattern_count();
        let cats = self.model.rate_categories();
        let (eigvals, _, _) = self.model.eigen_system();
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        for (cat, ev) in scratch.ev.iter_mut().enumerate() {
            let rt = cats.rates[cat] * t;
            let prob = cats.probs[cat];
            for k in 0..4 {
                ev[k] = prob * (eigvals[k] * rt).exp();
            }
        }
        lik_simd::coef_site_sums(
            self.backend,
            &coefs.values,
            &scratch.ev,
            &mut scratch.site,
            self.npad,
        );
        scratch.site[np..].fill(1.0);
        lik_simd::ln_into(self.backend, &mut scratch.site);
        let weights = self.data.weights();
        let mut lnl = 0.0;
        match down_scale {
            Some(ds) => {
                for pat in 0..np {
                    lnl += weights[pat] * (scratch.site[pat] + ds[pat] + edge_scale[pat]);
                }
            }
            None => {
                for pat in 0..np {
                    lnl += weights[pat] * (scratch.site[pat] + edge_scale[pat]);
                }
            }
        }
        lnl
    }
}

/// Convenience wrapper: log-likelihood of `tree` under `model`.
pub fn log_likelihood(tree: &Tree, data: &PatternAlignment, model: &SubstModel) -> f64 {
    TreeLikelihood::new(model, data).log_likelihood(tree)
}

/// Convenience wrapper: optimises all branch lengths in place and
/// returns the final log-likelihood.
pub fn optimize_branch_lengths(
    tree: &mut Tree,
    data: &PatternAlignment,
    model: &SubstModel,
    max_rounds: u32,
) -> f64 {
    TreeLikelihood::new(model, data).optimize_edges(tree, None, max_rounds, 1e-4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GammaRates, ModelKind};
    use biodist_bioseq::{Alphabet, Sequence};

    fn seq(id: &str, text: &str) -> Sequence {
        Sequence::from_text(id, "", Alphabet::Dna, text).unwrap()
    }

    fn triple_tree(blen: f64) -> Tree {
        Tree::initial_triple([0, 1, 2], blen)
    }

    /// Brute-force likelihood by summing over all internal-node state
    /// assignments — exponential, but exact for tiny trees.
    fn brute_force_lnl(tree: &Tree, data: &PatternAlignment, model: &SubstModel) -> f64 {
        let freqs = model.freqs();
        let cats = model.rate_categories();
        let internal: Vec<usize> = (0..tree.node_count())
            .filter(|&i| !tree.node(i).is_leaf())
            .collect();
        let mut lnl = 0.0;
        for pat in 0..data.pattern_count() {
            let mut site = 0.0;
            for (ci, &rate) in cats.rates.iter().enumerate() {
                let mut cat_total = 0.0;
                let combos = 4usize.pow(internal.len() as u32);
                for combo in 0..combos {
                    let mut assign = std::collections::HashMap::new();
                    let mut rem = combo;
                    for &n in &internal {
                        assign.insert(n, rem % 4);
                        rem /= 4;
                    }
                    let mut prob = freqs[assign[&tree.root()]];
                    for v in tree.edges() {
                        let parent = tree.node(v).parent.unwrap();
                        let ps = assign[&parent];
                        let p = model.transition_matrix(tree.branch_length(v), rate);
                        let node = tree.node(v);
                        if let Some(taxon) = node.taxon {
                            let code = data.code(pat, taxon);
                            if code < 4 {
                                prob *= p[ps][code as usize];
                            } // missing data: sum over all states = row sum = 1
                        } else {
                            prob *= p[ps][assign[&v]];
                        }
                    }
                    cat_total += prob;
                }
                site += cats.probs[ci] * cat_total;
            }
            lnl += data.weights()[pat] * site.ln();
        }
        lnl
    }

    #[test]
    fn two_leaf_pair_matches_closed_form_jc69() {
        // For two taxa joined through the root with total distance d under
        // JC69: P(same site) = 1/4(1/4 + 3/4 e^{-4d/3}) etc. Use the
        // 3-taxon tree but make the third taxon all-missing so it is inert.
        let data = PatternAlignment::from_sequences(&[
            seq("a", "ACGTAC"),
            seq("b", "ACGTAT"),
            seq("c", "NNNNNN"),
        ]);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let tree = triple_tree(0.1);

        // Closed form: distance between a and b through the root is 0.2.
        let d: f64 = 0.2;
        let e = (-4.0 * d / 3.0).exp();
        let p_same = 0.25 * (0.25 + 0.75 * e);
        let p_diff = 0.25 * (0.25 - 0.25 * e);
        let expected = 5.0 * p_same.ln() + p_diff.ln();
        for backend in LikBackend::supported() {
            let lnl = TreeLikelihood::with_backend(&model, &data, backend).log_likelihood(&tree);
            assert!(
                (lnl - expected).abs() < 1e-9,
                "{backend:?}: pruning {lnl} vs closed form {expected}"
            );
        }
    }

    #[test]
    fn pruning_matches_brute_force_three_taxa() {
        let data = PatternAlignment::from_sequences(&[
            seq("a", "ACGTACGTAA"),
            seq("b", "ACGTACGTAC"),
            seq("c", "ACGAACGTTA"),
        ]);
        let model = SubstModel::homogeneous(ModelKind::Hky85 {
            kappa: 3.0,
            freqs: [0.3, 0.2, 0.3, 0.2],
        });
        let mut tree = triple_tree(0.15);
        tree.set_branch_length(2, 0.05);
        tree.set_branch_length(3, 0.4);
        let slow = brute_force_lnl(&tree, &data, &model);
        for backend in LikBackend::supported() {
            let fast = TreeLikelihood::with_backend(&model, &data, backend).log_likelihood(&tree);
            assert!((fast - slow).abs() < 1e-9, "{backend:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn pruning_matches_brute_force_four_taxa_with_gamma() {
        let data = PatternAlignment::from_sequences(&[
            seq("a", "ACGTACGT"),
            seq("b", "ACGTACGA"),
            seq("c", "ACGAACTT"),
            seq("d", "CCGAACTT"),
        ]);
        let model = SubstModel::new(ModelKind::K80 { kappa: 2.5 }, GammaRates::gamma(0.7, 3));
        let mut tree = triple_tree(0.1);
        tree.insert_leaf(1, 3, 0.2);
        let slow = brute_force_lnl(&tree, &data, &model);
        for backend in LikBackend::supported() {
            let fast = TreeLikelihood::with_backend(&model, &data, backend).log_likelihood(&tree);
            assert!((fast - slow).abs() < 1e-9, "{backend:?}: {fast} vs {slow}");
        }
    }

    #[test]
    fn likelihood_invariant_under_pattern_compression() {
        // Likelihood must depend only on the site multiset.
        let seqs1 = [seq("a", "AAACGT"), seq("b", "AAACGA"), seq("c", "AATCGT")];
        let seqs2 = [seq("a", "ACGTAA"), seq("b", "ACGAAA"), seq("c", "TCGTAA")];
        let d1 = PatternAlignment::from_sequences(&seqs1);
        let d2 = PatternAlignment::from_sequences(&seqs2);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let tree = triple_tree(0.2);
        let l1 = log_likelihood(&tree, &d1, &model);
        let l2 = log_likelihood(&tree, &d2, &model);
        assert!((l1 - l2).abs() < 1e-10);
    }

    #[test]
    fn missing_data_row_does_not_change_likelihood_shape() {
        // A taxon of all Ns contributes a factor of 1 per site.
        let with_n = PatternAlignment::from_sequences(&[
            seq("a", "ACGT"),
            seq("b", "ACGA"),
            seq("c", "NNNN"),
        ]);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let tree = triple_tree(0.1);
        let lnl = log_likelihood(&tree, &with_n, &model);
        assert!(lnl.is_finite());
        assert!(lnl < 0.0);
    }

    #[test]
    fn longer_wrong_branches_lower_likelihood_of_identical_data() {
        let data = PatternAlignment::from_sequences(&[
            seq("a", "ACGTACGTACGT"),
            seq("b", "ACGTACGTACGT"),
            seq("c", "ACGTACGTACGT"),
        ]);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let short = log_likelihood(&triple_tree(0.01), &data, &model);
        let long = log_likelihood(&triple_tree(1.0), &data, &model);
        assert!(short > long, "identical sequences favour short branches");
    }

    #[test]
    fn branch_optimisation_improves_likelihood_and_converges() {
        let data = PatternAlignment::from_sequences(&[
            seq("a", "ACGTACGTACGTACGTTTAA"),
            seq("b", "ACGTACGAACGTACGTTTAC"),
            seq("c", "AAGTACGAACGAACGTTTCC"),
        ]);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let mut tree = triple_tree(0.9); // far from optimal
        let before = log_likelihood(&tree, &data, &model);
        let after = optimize_branch_lengths(&mut tree, &data, &model, 20);
        assert!(after > before, "{after} should beat {before}");
        // Re-optimising from the optimum should gain (almost) nothing.
        let again = optimize_branch_lengths(&mut tree, &data, &model, 20);
        assert!((again - after).abs() < 1e-3);
    }

    #[test]
    fn optimized_pair_distance_matches_jc_formula() {
        // With two informative taxa (third all-N), the ML distance between
        // them under JC69 has the closed form −3/4 ln(1 − 4p̂/3).
        let data = PatternAlignment::from_sequences(&[
            seq("a", "ACGTACGTACGTACGTACGT"),
            seq("b", "ACGTACGAACGTACTTACGA"), // 3 differences out of 20
            seq("c", "NNNNNNNNNNNNNNNNNNNN"),
        ]);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let mut tree = triple_tree(0.3);
        optimize_branch_lengths(&mut tree, &data, &model, 30);
        let d_hat = tree.branch_length(1) + tree.branch_length(2);
        let p: f64 = 3.0 / 20.0;
        let expected = -0.75 * (1.0 - 4.0 * p / 3.0).ln();
        assert!(
            (d_hat - expected).abs() < 5e-3,
            "ML distance {d_hat} vs JC formula {expected}"
        );
    }

    #[test]
    fn edge_likelihood_agrees_with_full_likelihood() {
        // The edge decomposition the optimiser climbs, evaluated at the
        // current branch length, must equal the root-based likelihood
        // less Σw·ln 4, for every edge and every backend. Non-uniform
        // frequencies: a prior weighted in twice cancels only when they
        // are uniform.
        let data = PatternAlignment::from_sequences(&[
            seq("a", "ACGTACTA"),
            seq("b", "ACGAACTT"),
            seq("c", "TCGAACTT"),
            seq("d", "TCGAACGT"),
        ]);
        let model = SubstModel::new(
            ModelKind::Hky85 {
                kappa: 2.0,
                freqs: [0.3, 0.2, 0.2, 0.3],
            },
            GammaRates::gamma(0.5, 4),
        );
        let mut tree = triple_tree(0.1);
        tree.insert_leaf(2, 3, 0.3);

        for backend in LikBackend::supported() {
            let engine = TreeLikelihood::with_backend(&model, &data, backend);
            let full = engine.log_likelihood(&tree);
            let down = engine.compute_down(&tree);
            for v in tree.edges() {
                let e = engine.compute_edge_outside_one(&tree, &down, v);
                let coefs = engine.build_edge_coefs(&tree, &down, &e, v);
                let down_scale = tree.node(v).taxon.is_none().then_some(&down[v].scale[..]);
                let t = tree.branch_length(v);
                let via_edge = engine.edge_coef_log_likelihood(&coefs, down_scale, &e.scale, t)
                    + 4f64.ln() * data.weights().iter().sum::<f64>();
                assert!(
                    (via_edge - full).abs() < 1e-8,
                    "{backend:?} edge {v}: {via_edge} vs {full}"
                );
            }
        }
    }

    #[test]
    fn scaling_keeps_large_trees_finite() {
        // 40 taxa, long branches: unscaled partials would underflow.
        let n = 40;
        let mut rng = biodist_util::rng::Xoshiro256StarStar::new(3);
        use biodist_util::rng::Rng;
        let seqs: Vec<Sequence> = (0..n)
            .map(|i| {
                let codes: Vec<u8> = (0..60).map(|_| rng.next_below(4) as u8).collect();
                Sequence::from_codes(&format!("t{i}"), Alphabet::Dna, codes)
            })
            .collect();
        let data = PatternAlignment::from_sequences(&seqs);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let mut tree = Tree::initial_triple([0, 1, 2], 0.5);
        for t in 3..n {
            let edges = tree.edges();
            let e = edges[t % edges.len()];
            tree.insert_leaf(e, t, 0.5);
        }
        for backend in LikBackend::supported() {
            let lnl = TreeLikelihood::with_backend(&model, &data, backend).log_likelihood(&tree);
            assert!(lnl.is_finite(), "{backend:?} lnL must not underflow: {lnl}");
            assert!(lnl < 0.0);
        }
    }

    #[test]
    fn pmat_cache_hits_accumulate_on_simd_path() {
        let data = PatternAlignment::from_sequences(&[
            seq("a", "ACGTACTAGGCA"),
            seq("b", "ACGAACTTGGCA"),
            seq("c", "TCGAACTTGACA"),
            seq("d", "TCGAACGTGACT"),
        ]);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let mut tree = triple_tree(0.1);
        tree.insert_leaf(2, 3, 0.3);
        let engine = TreeLikelihood::new(&model, &data);
        engine.optimize_edges(&mut tree.clone(), None, 2, 1e-4);
        let (hits, misses) = engine.pmat_cache_stats();
        assert!(misses > 0, "distinct branch lengths must miss once");
        assert!(
            hits > misses,
            "repeated traversals must reuse cached matrices ({hits} hits vs {misses} misses)"
        );
    }
}
