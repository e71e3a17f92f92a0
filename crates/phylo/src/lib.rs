//! # biodist-phylo
//!
//! Phylogenetics substrate for DPRml (paper §3.2): everything the paper
//! obtained from the PAL v1.4 Java library, built from scratch.
//!
//! * [`tree`] / [`newick`] — unrooted binary phylogenies (represented
//!   with a trifurcating root, the fastDNAml convention) and Newick I/O.
//! * [`model`] — a wide range of reversible DNA substitution models
//!   (JC69, K80, F81, F84, HKY85, TN93, GTR), optional discrete-Γ rate
//!   heterogeneity and invariant sites ("one of the most extensive
//!   ranges of DNA substitution models", §3.2).
//! * [`eigen`] — Jacobi eigendecomposition of the symmetrised rate
//!   matrix, giving exact `P(t) = exp(Qt)`.
//! * [`patterns`] — site-pattern compression of alignments.
//! * [`lik`] — Felsenstein-pruning log-likelihood with per-pattern
//!   scaling and Brent branch-length optimisation, dispatched at
//!   runtime across the SIMD kernel backends in [`lik_simd`].
//! * [`search`] — stepwise-insertion maximum-likelihood tree building
//!   with NNI local rearrangements \[11, 16\]; candidate evaluation is
//!   a pure function so DPRml can farm candidates out as work units.
//! * [`evolve`] — simulates alignments down random trees (the synthetic
//!   stand-in for the paper's 50-taxon dataset).
// DP and linear-algebra kernels index several arrays with one
// loop variable; iterator chains obscure the recurrences there.
#![allow(clippy::needless_range_loop)]

pub mod eigen;
pub mod evolve;
pub mod lik;
pub mod lik_simd;
pub mod model;
pub mod newick;
pub mod nj;
pub mod patterns;
pub mod search;
pub mod special;
pub mod tree;

pub use evolve::{random_yule_tree, simulate_alignment};
pub use lik::{log_likelihood, optimize_branch_lengths, TreeLikelihood};
pub use lik_simd::LikBackend;
pub use model::{GammaRates, ModelKind, SubstModel};
pub use nj::{jc_distance_matrix, maximin_order, neighbor_joining, patristic_distance_matrix};
pub use patterns::PatternAlignment;
pub use search::{evaluate_insertion, spr_improve, stepwise_ml, InsertionCandidate, SearchOptions};
pub use tree::Tree;
