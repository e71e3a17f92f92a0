//! # biodist-bioseq
//!
//! Biological-sequence substrate for the `biodist` workspace: alphabets
//! and residue encoding, the [`Sequence`] type, FASTA parsing and
//! writing, scoring schemes (substitution matrices and affine gap
//! penalties) for the alignment kernels, and a seeded synthetic
//! database generator that stands in for the GenBank-style inputs used
//! by the paper's DSEARCH experiments (see DESIGN.md, substitution
//! table).

pub mod alphabet;
pub mod fasta;
pub mod scoring;
pub mod seq;
pub mod synth;

pub use alphabet::Alphabet;
pub use fasta::{parse_fasta, write_fasta, FastaError};
pub use scoring::{GapPenalty, ScoringMatrix, ScoringScheme};
pub use seq::{reverse_complement, Sequence};
pub use synth::{DbSpec, FamilySpec, SyntheticDb};
