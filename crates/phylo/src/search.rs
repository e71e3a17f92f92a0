//! Stepwise-insertion maximum-likelihood tree search.
//!
//! The fastDNAml strategy \[11, 16\] the paper's DPRml implements: taxa
//! are added one at a time; adding taxon `i` tries every branch of the
//! current `(i-1)`-taxon tree (there are `2i-5` of them), optimises
//! branch lengths for each candidate, keeps the best, then applies
//! local NNI rearrangements until no improvement. Evaluating one
//! insertion candidate ([`evaluate_insertion`]) is a pure function of
//! `(tree, taxon, edge)` — exactly the unit of work DPRml farms out to
//! donor machines.

use crate::lik::TreeLikelihood;
use crate::model::SubstModel;
use crate::patterns::PatternAlignment;
use crate::tree::Tree;

/// Tuning knobs for the stepwise search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOptions {
    /// Branch-length optimisation sweeps per candidate evaluation.
    pub candidate_rounds: u32,
    /// Branch-length optimisation sweeps after choosing the best
    /// candidate of a stage.
    pub refine_rounds: u32,
    /// Likelihood tolerance for optimisation convergence.
    pub tol: f64,
    /// Initial pendant branch length for newly inserted leaves.
    pub initial_blen: f64,
    /// Whether to run NNI local rearrangements after each insertion.
    pub nni: bool,
    /// Optimise only the three branches local to an insertion during
    /// candidate scoring (the fastDNAml trick); the winner still gets a
    /// full refinement pass.
    pub local_candidates: bool,
    /// Run the full branch-length refinement only after every k-th
    /// insertion (and always after the last). `1` refines after every
    /// insertion; larger values trade a little likelihood for much less
    /// serial work per stage — the knob the Fig. 2 workload uses.
    pub refine_every: u32,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            candidate_rounds: 2,
            refine_rounds: 4,
            tol: 1e-3,
            initial_blen: 0.1,
            nni: true,
            local_candidates: true,
            refine_every: 1,
        }
    }
}

/// Result of scoring one insertion point.
#[derive(Debug, Clone)]
pub struct InsertionCandidate {
    /// The edge (child-node id in the *base* tree) that was split.
    pub edge: usize,
    /// Log-likelihood of the optimised candidate tree.
    pub ln_likelihood: f64,
    /// The candidate tree itself (base tree + new taxon, optimised).
    pub tree: Tree,
}

/// Scores the insertion of `taxon` into `edge` of `base`.
///
/// Pure function: clones the base tree, splits the edge, optimises
/// branch lengths (only the three local branches when
/// `opts.local_candidates`), and returns the optimised tree with its
/// log-likelihood. This is the work-unit computation of DPRml.
pub fn evaluate_insertion(
    base: &Tree,
    taxon: usize,
    edge: usize,
    engine: &TreeLikelihood<'_>,
    opts: &SearchOptions,
) -> InsertionCandidate {
    let mut tree = base.clone();
    let (mid, leaf) = tree.insert_leaf(edge, taxon, opts.initial_blen);
    let lnl = if opts.local_candidates {
        let local = [mid, leaf, edge];
        engine.optimize_edges(&mut tree, Some(&local), opts.candidate_rounds, opts.tol)
    } else {
        engine.optimize_edges(&mut tree, None, opts.candidate_rounds, opts.tol)
    };
    InsertionCandidate {
        edge,
        ln_likelihood: lnl,
        tree,
    }
}

/// Picks the best candidate deterministically: highest likelihood, ties
/// broken by smallest edge id (so distributed and sequential runs agree
/// bit-for-bit).
pub fn best_candidate(candidates: Vec<InsertionCandidate>) -> InsertionCandidate {
    candidates
        .into_iter()
        .reduce(|best, c| {
            if c.ln_likelihood > best.ln_likelihood
                || (c.ln_likelihood == best.ln_likelihood && c.edge < best.edge)
            {
                c
            } else {
                best
            }
        })
        .expect("at least one candidate")
}

/// One round of NNI hill climbing: tries every NNI move, applies the
/// best if it improves on `current_lnl`. Returns the new likelihood if
/// a move was applied.
pub fn nni_improve(
    tree: &mut Tree,
    current_lnl: f64,
    engine: &TreeLikelihood<'_>,
    opts: &SearchOptions,
) -> Option<f64> {
    let moves = tree.nni_moves();
    let mut best: Option<(f64, Tree)> = None;
    for (c, a, b) in moves {
        let mut candidate = tree.clone();
        candidate.nni_swap(c, a, b);
        let lnl =
            engine.optimize_edges(&mut candidate, Some(&[c]), opts.candidate_rounds, opts.tol);
        if lnl > current_lnl + opts.tol && best.as_ref().map(|(bl, _)| lnl > *bl).unwrap_or(true) {
            best = Some((lnl, candidate));
        }
    }
    if let Some((lnl, t)) = best {
        *tree = t;
        Some(lnl)
    } else {
        None
    }
}

/// Full sequential stepwise-insertion ML search — the reference
/// implementation that the distributed DPRml must agree with.
///
/// `taxon_order` gives the insertion order (defaults to `0..n`).
/// Returns the final tree and its log-likelihood.
pub fn stepwise_ml(
    data: &PatternAlignment,
    model: &SubstModel,
    taxon_order: Option<&[usize]>,
    opts: &SearchOptions,
) -> (Tree, f64) {
    let n = data.taxon_count();
    assert!(n >= 3, "stepwise search needs at least 3 taxa");
    let default_order: Vec<usize> = (0..n).collect();
    let order: &[usize] = taxon_order.unwrap_or(&default_order);
    assert_eq!(order.len(), n, "taxon order must cover every taxon");

    let engine = TreeLikelihood::new(model, data);
    let mut tree = Tree::initial_triple([order[0], order[1], order[2]], opts.initial_blen);
    let mut lnl = engine.optimize_edges(&mut tree, None, opts.refine_rounds, opts.tol);

    let refine_every = opts.refine_every.max(1);
    for (k, &taxon) in order[3..].iter().enumerate() {
        let candidates: Vec<InsertionCandidate> = tree
            .edges()
            .into_iter()
            .map(|edge| evaluate_insertion(&tree, taxon, edge, &engine, opts))
            .collect();
        let chosen = best_candidate(candidates);
        tree = chosen.tree;
        let is_last = k == order.len() - 4;
        if (k as u32 + 1).is_multiple_of(refine_every) || is_last {
            lnl = engine.optimize_edges(&mut tree, None, opts.refine_rounds, opts.tol);
        } else {
            lnl = chosen.ln_likelihood;
        }

        if opts.nni {
            // Hill-climb NNI moves until none improves (bounded to keep
            // worst-case time predictable).
            for _ in 0..8 {
                match nni_improve(&mut tree, lnl, &engine, opts) {
                    Some(better) => {
                        lnl = engine.optimize_edges(&mut tree, None, opts.refine_rounds, opts.tol);
                        let _ = better;
                    }
                    None => break,
                }
            }
        }
    }
    debug_assert!(tree.validate().is_ok());
    (tree, lnl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolve::{random_yule_tree, simulate_alignment};
    use crate::lik::log_likelihood;
    use crate::model::ModelKind;

    fn test_data(n_taxa: usize, sites: usize, seed: u64) -> (Tree, PatternAlignment, SubstModel) {
        let truth = random_yule_tree(n_taxa, 0.12, seed);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let seqs = simulate_alignment(&truth, &model, sites, None, seed + 1);
        let data = PatternAlignment::from_sequences(&seqs);
        (truth, data, model)
    }

    #[test]
    fn evaluate_insertion_adds_exactly_one_taxon() {
        let (_, data, model) = test_data(5, 100, 3);
        let engine = TreeLikelihood::new(&model, &data);
        let base = Tree::initial_triple([0, 1, 2], 0.1);
        let opts = SearchOptions::default();
        let cand = evaluate_insertion(&base, 3, 1, &engine, &opts);
        cand.tree.validate().unwrap();
        assert_eq!(cand.tree.leaf_count(), 4);
        assert!(cand.ln_likelihood.is_finite());
        assert_eq!(cand.edge, 1);
        // Base tree untouched.
        assert_eq!(base.leaf_count(), 3);
    }

    #[test]
    fn best_candidate_breaks_ties_by_edge_id() {
        let t = Tree::initial_triple([0, 1, 2], 0.1);
        let mk = |edge: usize, lnl: f64| InsertionCandidate {
            edge,
            ln_likelihood: lnl,
            tree: t.clone(),
        };
        let best = best_candidate(vec![mk(3, -10.0), mk(1, -10.0), mk(2, -10.0)]);
        assert_eq!(best.edge, 1);
        let best = best_candidate(vec![mk(3, -5.0), mk(1, -10.0)]);
        assert_eq!(best.edge, 3);
    }

    #[test]
    fn stepwise_recovers_generating_topology_on_clean_data() {
        // Long alignment, few taxa, moderate branches: the true tree
        // should be recoverable exactly.
        let (truth, data, model) = test_data(6, 800, 17);
        let (found, lnl) = stepwise_ml(&data, &model, None, &SearchOptions::default());
        assert!(lnl.is_finite());
        assert_eq!(found.leaf_count(), 6);
        assert_eq!(
            found.rf_distance(&truth),
            0,
            "expected topology recovery; truth={:?} found={:?}",
            truth.splits(),
            found.splits()
        );
    }

    #[test]
    fn stepwise_beats_arbitrary_tree_likelihood() {
        let (_, data, model) = test_data(7, 300, 29);
        let (found, lnl) = stepwise_ml(&data, &model, None, &SearchOptions::default());
        let arbitrary = random_yule_tree(7, 0.12, 1234);
        let l_arb = log_likelihood(&arbitrary, &data, &model);
        assert!(lnl > l_arb, "search {lnl} must beat arbitrary {l_arb}");
        assert_eq!(found.leaf_count(), 7);
    }

    #[test]
    fn insertion_order_does_not_break_validity() {
        let (_, data, model) = test_data(6, 200, 31);
        let order = [5, 4, 3, 2, 1, 0];
        let (tree, lnl) = stepwise_ml(&data, &model, Some(&order), &SearchOptions::default());
        tree.validate().unwrap();
        assert_eq!(tree.leaf_count(), 6);
        assert!(lnl.is_finite());
    }

    #[test]
    fn local_and_global_candidate_scoring_agree_on_winner_often() {
        // Not a strict invariant, but on clean data the cheap local
        // scoring should pick the same insertion edge as full scoring.
        let (_, data, model) = test_data(5, 600, 41);
        let engine = TreeLikelihood::new(&model, &data);
        let mut base = Tree::initial_triple([0, 1, 2], 0.1);
        engine.optimize_edges(&mut base, None, 4, 1e-3);
        let local_opts = SearchOptions {
            local_candidates: true,
            ..Default::default()
        };
        let full_opts = SearchOptions {
            local_candidates: false,
            ..Default::default()
        };
        let edges = base.edges();
        let best_local = best_candidate(
            edges
                .iter()
                .map(|&e| evaluate_insertion(&base, 3, e, &engine, &local_opts))
                .collect(),
        );
        let best_full = best_candidate(
            edges
                .iter()
                .map(|&e| evaluate_insertion(&base, 3, e, &engine, &full_opts))
                .collect(),
        );
        assert_eq!(best_local.edge, best_full.edge);
    }

    #[test]
    fn nni_improve_returns_none_at_local_optimum() {
        let (_, data, model) = test_data(5, 800, 53);
        let opts = SearchOptions::default();
        let (mut tree, lnl) = stepwise_ml(&data, &model, None, &opts);
        let engine = TreeLikelihood::new(&model, &data);
        // The search already exhausted NNI moves; none should improve.
        assert!(nni_improve(&mut tree, lnl, &engine, &opts).is_none());
    }

    #[test]
    #[should_panic(expected = "at least 3 taxa")]
    fn stepwise_rejects_two_taxa() {
        let seqs = [
            biodist_bioseq::Sequence::from_text("a", "", biodist_bioseq::Alphabet::Dna, "ACGT")
                .unwrap(),
            biodist_bioseq::Sequence::from_text("b", "", biodist_bioseq::Alphabet::Dna, "ACGT")
                .unwrap(),
        ];
        let data = PatternAlignment::from_sequences(&seqs);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        stepwise_ml(&data, &model, None, &SearchOptions::default());
    }
}
