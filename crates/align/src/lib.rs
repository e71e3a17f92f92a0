//! # biodist-align
//!
//! Rigorous pairwise sequence-alignment kernels for DSEARCH (paper
//! §3.1): Needleman–Wunsch global alignment \[10\], Smith–Waterman
//! local alignment \[14\], a banded global variant, and a Farrar-style
//! striped SIMD kernel ([`striped`]) with reusable query profiles
//! ([`profile`]) and an adaptive `i16`→`i32` lane-width fallback — the
//! faster exact kernel DESIGN.md's substitution table sets in place of
//! the subquadratic algorithm of Crochemore et al. \[4\], which is not
//! carried. All kernels use Gotoh's affine-gap recurrences and agree
//! exactly on scores; the score-only variants run in linear memory.
//!
//! [`hits`] provides the bounded top-K hit collector DSEARCH uses to
//! merge per-chunk results on the server.
// DP and linear-algebra kernels index several arrays with one
// loop variable; iterator chains obscure the recurrences there.
#![allow(clippy::needless_range_loop)]

pub mod aln;
pub mod banded;
pub mod hits;
pub mod kernel;
pub mod nw;
pub mod profile;
pub mod sg;
pub mod striped;
pub mod sw;

pub use aln::{AlignedPair, AlnOp};
pub use banded::nw_banded_score;
pub use hits::{Hit, TopK};
pub use kernel::{AlignKernel, KernelKind, PreparedQuery};
pub use nw::{nw_align, nw_score};
pub use profile::QueryProfile;
pub use sg::{sg_align, sg_score};
pub use striped::{detect_backend, sw_score_striped, sw_score_striped_profiled, SimdBackend};
pub use sw::{sw_align, sw_score};

/// Sentinel for "minus infinity" in DP matrices, chosen so that adding
/// any single score or penalty cannot overflow `i32`.
pub(crate) const NEG_INF: i32 = i32::MIN / 4;
