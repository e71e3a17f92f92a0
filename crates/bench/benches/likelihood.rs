//! B2 — likelihood engine micro-benchmarks: the rows nothing else prints.
//!
//! Throughput of the Felsenstein-pruning traversal across model
//! complexity (JC69 vs GTR+Γ4), tree size and every SIMD kernel backend
//! the CPU supports — the cost ratios DPRml's cost model
//! (`traversal_ops`) assumes — and of site-pattern compression.
//! Branch-length optimisation per backend is `abl_likelihood`'s stage
//! evaluation (`BENCH_likelihood.json`, smoke-run in CI).
//!
//! Run with: `cargo bench -p biodist-bench --bench likelihood`

use biodist_bench::Runner;
use biodist_phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist_phylo::lik::TreeLikelihood;
use biodist_phylo::lik_simd::LikBackend;
use biodist_phylo::model::{GammaRates, ModelKind, SubstModel};
use biodist_phylo::patterns::PatternAlignment;

fn workload(n_taxa: usize, sites: usize, model: &SubstModel, seed: u64) -> PatternAlignment {
    let tree = random_yule_tree(n_taxa, 0.1, seed);
    let seqs = simulate_alignment(&tree, model, sites, None, seed + 1);
    PatternAlignment::from_sequences(&seqs)
}

fn main() {
    let mut r = Runner::new();

    for (name, model) in [
        ("jc69", SubstModel::homogeneous(ModelKind::Jc69)),
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
    ] {
        for n_taxa in [10usize, 30] {
            let data = workload(n_taxa, 300, &model, 7);
            let tree = random_yule_tree(n_taxa, 0.1, 7);
            for backend in LikBackend::supported() {
                let engine = TreeLikelihood::with_backend(&model, &data, backend);
                let ops = Some(engine.traversal_cost(&tree));
                r.run(
                    &format!("pruning/{name}/{n_taxa}/{}", backend.name()),
                    ops,
                    || engine.log_likelihood(&tree),
                );
            }
        }
    }

    let model = SubstModel::homogeneous(ModelKind::Jc69);
    let tree = random_yule_tree(40, 0.1, 3);
    let seqs = simulate_alignment(&tree, &model, 1000, None, 4);
    r.run("pattern_compression_40x1000", None, || {
        PatternAlignment::from_sequences(&seqs)
    });

    r.report("B2: likelihood engine throughput (elements = traversal ops)");
}
