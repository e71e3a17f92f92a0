//! # biodist-align
//!
//! Rigorous pairwise sequence-alignment kernels for DSEARCH (paper
//! §3.1): Needleman–Wunsch global alignment \[10\], semi-global
//! alignment, Smith–Waterman local alignment \[14\] and a banded global
//! variant — one Gotoh affine-gap recurrence ([`gotoh`]) whose start and
//! end rules a compile-time mode picks, scoring in linear memory — and a
//! Farrar-style striped SIMD kernel ([`striped`]) with reusable query
//! profiles ([`profile`]) and an adaptive `i16`→`i32` lane-width
//! fallback, which agrees exactly with `sw_score`: the faster exact
//! kernel DESIGN.md's substitution table sets in place of the
//! subquadratic algorithm of Crochemore et al. \[4\], which is not
//! carried.
//!
//! [`hits`] provides the bounded top-K hit collector DSEARCH uses to
//! merge per-chunk results on the server.
// DP and linear-algebra kernels index several arrays with one
// loop variable; iterator chains obscure the recurrences there.
#![allow(clippy::needless_range_loop)]

pub mod aln;
pub mod gotoh;
pub mod hits;
pub mod kernel;
pub mod profile;
pub mod striped;

pub use aln::{AlignedPair, AlnOp};
pub use gotoh::{nw_align, nw_banded_score, nw_score, sg_align, sg_score, sw_align, sw_score};
pub use hits::{Hit, TopK};
pub use kernel::{AlignKernel, KernelKind, PreparedQuery};
pub use profile::QueryProfile;
pub use striped::{detect_backend, sw_score_striped, sw_score_striped_profiled, SimdBackend};

/// Sentinel for "minus infinity" in DP matrices, chosen so that adding
/// any single score or penalty cannot overflow `i32`.
pub(crate) const NEG_INF: i32 = i32::MIN / 4;
