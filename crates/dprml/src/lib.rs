//! # biodist-dprml
//!
//! DPRml (paper §3.2, ref \[9\]): distributed phylogeny reconstruction
//! by maximum likelihood on the framework. The stepwise-insertion
//! search \[11, 16\] is a *staged* computation: within a stage, the
//! `2i−5` candidate insertion points (and later the NNI rearrangement
//! moves) of the current tree are evaluated in parallel on donor
//! machines; a stage barrier follows while the server folds the
//! candidates, picks the winner, and opens the next stage. Running a
//! single instance therefore leaves clients idle at stage boundaries —
//! which is why the paper's Fig. 2 measures *6 problem instances
//! running simultaneously*, and why this crate provides a
//! multi-instance driver.
//!
//! The distributed search reproduces the sequential reference
//! (`biodist_phylo::search::stepwise_ml`) move for move: candidate
//! evaluation is a pure function, winners are chosen with the same
//! deterministic tie-breaks, so the final tree and likelihood agree
//! exactly.

pub mod config;
pub mod problem;

pub use config::DprmlConfig;
pub use problem::{build_problem, PhyloOutput};
