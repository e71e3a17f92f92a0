//! # biodist-dsearch
//!
//! DSEARCH (paper §3.1, ref \[8\]): sensitive sequence-database search
//! on the distributed framework. The FASTA database is split into
//! *dynamically sized* chunks — the scheduler's granularity hint is
//! translated into a number of DP cells, and the `DataManager` packs
//! database sequences until the chunk reaches that cost — which are
//! searched on donor machines with one of the built-in rigorous
//! kernels (Needleman–Wunsch, Smith–Waterman, striped SIMD
//! Smith–Waterman, semi-global, or banded). Per-chunk top-K hit lists merge deterministically
//! on the server, so the distributed search reports exactly the same
//! hits as the sequential reference regardless of chunking or arrival
//! order.

pub mod config;
pub mod problem;
pub mod reference;
pub mod stats;

pub use config::DsearchConfig;
pub use problem::{build_problem, SearchOutput};
pub use reference::search_sequential;
pub use stats::{annotate_hits, ScoreStatistics, ScoredHit};
