//! Backend parity for the SIMD likelihood kernels.
//!
//! Every SIMD backend (portable, SSE2, AVX2) evaluates the same
//! elementwise per-pattern DAG, so log-likelihoods — and the branch
//! lengths Brent settles on — must be *bit-identical* across them.
//! [`reference_lnl`], a textbook pruning written here against the
//! public API only, is the oracle they must all agree with to tight
//! relative tolerance.
//!
//! CI runs this suite twice: once with the detected backend set and
//! once with `BIODIST_LIK_BACKEND=portable` forced for the whole test
//! process (env-var dispatch is covered via `LikBackend::parse` here
//! rather than `set_var`, which would race between test threads).

use biodist::phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist::phylo::lik::TreeLikelihood;
use biodist::phylo::model::{GammaRates, ModelKind, SubstModel};
use biodist::phylo::patterns::PatternAlignment;
use biodist::phylo::tree::{Tree, MIN_BRANCH};
use biodist::phylo::LikBackend;

const MAX_BRANCH: f64 = 10.0;

fn workload(
    n_taxa: usize,
    sites: usize,
    model: &SubstModel,
    seed: u64,
) -> (Tree, PatternAlignment) {
    let tree = random_yule_tree(n_taxa, 0.12, seed);
    let seqs = simulate_alignment(&tree, model, sites, None, seed + 1);
    (tree, PatternAlignment::from_sequences(&seqs))
}

/// Every backend is a SIMD width of the one engine.
fn simd_backends() -> Vec<LikBackend> {
    LikBackend::supported()
}

/// The test oracle: Felsenstein pruning with array-of-structs partials
/// (`[pattern][category][state]`), a fresh buffer per node and every
/// pattern rescaled at every internal node — none of the engine's
/// layout, lookup tables, caches or scaling thresholds.
fn reference_lnl(tree: &Tree, data: &PatternAlignment, model: &SubstModel) -> f64 {
    let np = data.pattern_count();
    let probs = &model.rate_categories().probs;
    let width = probs.len() * 4;
    // Per node: (partials, per-pattern log scale).
    let mut parts: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; tree.node_count()];
    for v in tree.postorder() {
        let node = tree.node(v);
        let mut values = vec![1.0; np * width];
        let mut scale = vec![0.0; np];
        if let Some(taxon) = node.taxon {
            for pat in 0..np {
                let code = data.code(pat, taxon) as usize;
                // Code 4 is an ambiguity: all ones, i.e. missing data.
                if code < 4 {
                    for (i, x) in values[pat * width..][..width].iter_mut().enumerate() {
                        *x = if i % 4 == code { 1.0 } else { 0.0 };
                    }
                }
            }
        } else {
            for &c in &node.children {
                let (child, child_scale) = parts[c].take().expect("postorder: child first");
                let pmats = model.transition_matrices(tree.branch_length(c));
                for pat in 0..np {
                    scale[pat] += child_scale[pat];
                    for (cat, pm) in pmats.iter().enumerate() {
                        let at = pat * width + cat * 4;
                        for s in 0..4 {
                            values[at + s] *= (0..4).map(|j| pm[s][j] * child[at + j]).sum::<f64>();
                        }
                    }
                }
            }
            for pat in 0..np {
                let row = &mut values[pat * width..][..width];
                let mx = row.iter().fold(0.0f64, |a, &b| a.max(b));
                if mx > 0.0 {
                    row.iter_mut().for_each(|x| *x /= mx);
                    scale[pat] += mx.ln();
                }
            }
        }
        parts[v] = Some((values, scale));
    }
    let (root, scale) = parts[tree.root()].take().expect("root visited last");
    let freqs = model.freqs();
    (0..np)
        .map(|pat| {
            let site: f64 = (probs.iter().enumerate())
                .map(|(cat, p)| {
                    let at = pat * width + cat * 4;
                    p * (0..4).map(|s| freqs[s] * root[at + s]).sum::<f64>()
                })
                .sum();
            data.weights()[pat] * (site.ln() + scale[pat])
        })
        .sum()
}

fn models() -> Vec<(&'static str, SubstModel)> {
    vec![
        ("jc69", SubstModel::homogeneous(ModelKind::Jc69)),
        (
            "hky85",
            SubstModel::homogeneous(ModelKind::Hky85 {
                kappa: 4.0,
                freqs: [0.3, 0.2, 0.2, 0.3],
            }),
        ),
        (
            "gtr_gamma4",
            SubstModel::new(
                ModelKind::Gtr {
                    rates: [1.0, 2.5, 0.8, 1.1, 3.0, 1.0],
                    freqs: [0.3, 0.2, 0.2, 0.3],
                },
                GammaRates::gamma(0.5, 4),
            ),
        ),
    ]
}

#[test]
fn log_likelihood_bit_identical_across_simd_backends() {
    for (name, model) in models() {
        let (tree, data) = workload(12, 400, &model, 11);
        let reference =
            TreeLikelihood::with_backend(&model, &data, LikBackend::Portable).log_likelihood(&tree);
        assert!(reference.is_finite());
        for backend in simd_backends() {
            let lnl = TreeLikelihood::with_backend(&model, &data, backend).log_likelihood(&tree);
            assert_eq!(
                lnl.to_bits(),
                reference.to_bits(),
                "{name}/{}: {lnl} differs from portable {reference}",
                backend.name()
            );
        }
    }
}

#[test]
fn log_likelihood_matches_reference_pruning() {
    for (name, model) in models() {
        let (tree, data) = workload(12, 400, &model, 23);
        let reference = reference_lnl(&tree, &data, &model);
        for backend in simd_backends() {
            let lnl = TreeLikelihood::with_backend(&model, &data, backend).log_likelihood(&tree);
            assert!(
                (lnl - reference).abs() < 1e-9 * reference.abs(),
                "{name}/{}: {lnl} vs reference {reference}",
                backend.name()
            );
        }
    }
}

#[test]
fn optimized_branch_lengths_bit_identical_across_simd_backends() {
    let model = SubstModel::homogeneous(ModelKind::Hky85 {
        kappa: 4.0,
        freqs: [0.25; 4],
    });
    let (tree, data) = workload(10, 300, &model, 37);
    let mut reference_tree = tree.clone();
    let reference_lnl = TreeLikelihood::with_backend(&model, &data, LikBackend::Portable)
        .optimize_edges(&mut reference_tree, None, 3, 1e-6);
    assert!(reference_lnl.is_finite());
    for backend in simd_backends() {
        let mut t = tree.clone();
        let lnl = TreeLikelihood::with_backend(&model, &data, backend)
            .optimize_edges(&mut t, None, 3, 1e-6);
        assert_eq!(
            lnl.to_bits(),
            reference_lnl.to_bits(),
            "{}: optimized lnl differs from portable",
            backend.name()
        );
        for v in t.edges() {
            assert_eq!(
                t.branch_length(v).to_bits(),
                reference_tree.branch_length(v).to_bits(),
                "{}: branch {v} differs from portable",
                backend.name()
            );
        }
    }
}

/// The optimiser climbs the spectral-coefficient objective; the
/// oracle checks, independently of it, that what it reports is the
/// likelihood of the lengths it left and that those lengths are an
/// optimum: no single branch moved by ±0.1% scores noticeably better.
#[test]
fn optimized_lengths_are_a_reference_optimum() {
    for (name, model) in models() {
        let (tree, data) = workload(8, 250, &model, 41);
        for backend in simd_backends() {
            let mut t = tree.clone();
            let lnl = TreeLikelihood::with_backend(&model, &data, backend)
                .optimize_edges(&mut t, None, 3, 1e-6);
            let at_optimum = reference_lnl(&t, &data, &model);
            assert!(
                (lnl - at_optimum).abs() < 1e-9 * at_optimum.abs(),
                "{name}/{}: reported {lnl} vs reference {at_optimum}",
                backend.name()
            );
            for v in t.edges() {
                for factor in [1.0 - 1e-3, 1.0 + 1e-3] {
                    let mut moved = t.clone();
                    moved.set_branch_length(v, t.branch_length(v) * factor);
                    let gain = reference_lnl(&moved, &data, &model) - at_optimum;
                    assert!(
                        gain <= 1e-6 * at_optimum.abs(),
                        "{name}/{}: branch {v} × {factor} gains {gain}",
                        backend.name()
                    );
                }
            }
        }
    }
}

/// Many taxa, random (unrelated) sequences, short branches: partials
/// shrink fast enough to cross the 1e-80 rescale threshold, so this
/// pins the hoisted lane-wide scaling check against the oracle's
/// rescale-everywhere one.
#[test]
fn scaling_threshold_parity_on_deep_trees() {
    let model = SubstModel::homogeneous(ModelKind::Jc69);
    let n = 40;
    use biodist::util::rng::Rng;
    let mut rng = biodist::util::rng::SplitMix64::new(77);
    let seqs: Vec<biodist::bioseq::Sequence> = (0..n)
        .map(|i| {
            let codes: Vec<u8> = (0..120).map(|_| rng.next_below(4) as u8).collect();
            biodist::bioseq::Sequence::from_codes(
                &format!("t{i}"),
                biodist::bioseq::Alphabet::Dna,
                codes,
            )
        })
        .collect();
    let data = PatternAlignment::from_sequences(&seqs);
    let mut tree = Tree::initial_triple([0, 1, 2], 0.4);
    for t in 3..n {
        let edges = tree.edges();
        tree.insert_leaf(edges[(t * 5) % edges.len()], t, 0.4);
    }
    let reference = reference_lnl(&tree, &data, &model);
    assert!(reference.is_finite(), "scaling must prevent underflow");
    let portable =
        TreeLikelihood::with_backend(&model, &data, LikBackend::Portable).log_likelihood(&tree);
    assert!((portable - reference).abs() < 1e-8 * reference.abs());
    for backend in simd_backends() {
        let lnl = TreeLikelihood::with_backend(&model, &data, backend).log_likelihood(&tree);
        assert_eq!(lnl.to_bits(), portable.to_bits(), "{}", backend.name());
    }
}

/// Branch lengths pinned to the optimiser's search bounds: the shortest
/// representable branch and the longest. Transition matrices are
/// near-identity / near-stationary there, the regimes most sensitive
/// to the eigen reconstruction.
#[test]
fn branch_length_bounds_parity() {
    let model = SubstModel::homogeneous(ModelKind::Hky85 {
        kappa: 4.0,
        freqs: [0.25; 4],
    });
    let (base, data) = workload(9, 200, &model, 53);
    for bound in [MIN_BRANCH, MAX_BRANCH] {
        let mut tree = base.clone();
        for v in tree.edges() {
            if v != tree.root() {
                tree.set_branch_length(v, bound);
            }
        }
        let reference = reference_lnl(&tree, &data, &model);
        assert!(reference.is_finite(), "bound {bound}");
        let portable =
            TreeLikelihood::with_backend(&model, &data, LikBackend::Portable).log_likelihood(&tree);
        assert!(
            (portable - reference).abs() < 1e-9 * reference.abs(),
            "bound {bound}: {portable} vs {reference}"
        );
        for backend in simd_backends() {
            let lnl = TreeLikelihood::with_backend(&model, &data, backend).log_likelihood(&tree);
            assert_eq!(
                lnl.to_bits(),
                portable.to_bits(),
                "bound {bound} backend {}",
                backend.name()
            );
        }
    }
}

/// `BIODIST_LIK_BACKEND` values map to backends exactly; unknown
/// strings — `scalar` and `sse2` among them, the deleted engines' — are rejected
/// (the engine then falls back to detection).
#[test]
fn backend_env_override_parses() {
    assert_eq!(LikBackend::parse("portable"), Some(LikBackend::Portable));
    assert_eq!(LikBackend::parse("sse2"), None);
    assert_eq!(LikBackend::parse("avx2"), Some(LikBackend::Avx2));
    assert_eq!(LikBackend::parse("AVX2"), Some(LikBackend::Avx2));
    assert_eq!(LikBackend::parse("neon"), None);
    assert_eq!(LikBackend::parse("scalar"), None);
    // `select()` honours the env var for the whole process — under
    // CI's forced-portable run every engine must report portable.
    if std::env::var("BIODIST_LIK_BACKEND").as_deref() == Ok("portable") {
        assert_eq!(LikBackend::select(), LikBackend::Portable);
        let model = SubstModel::homogeneous(ModelKind::Jc69);
        let (_, data) = workload(5, 60, &model, 3);
        assert_eq!(
            TreeLikelihood::new(&model, &data).backend(),
            LikBackend::Portable
        );
    }
}
