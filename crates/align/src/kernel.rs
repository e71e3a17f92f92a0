//! Kernel selection: the "choose one of the built-in search algorithms"
//! configuration knob of DSEARCH (paper §3.1).

use crate::gotoh::{nw_banded_score, nw_score, sg_score, sw_score};
use crate::profile::QueryProfile;
use crate::striped::{sw_score_striped, sw_score_striped_profiled};
use biodist_bioseq::{ScoringScheme, Sequence};

/// The built-in search algorithms a DSEARCH configuration can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Needleman–Wunsch global alignment \[10\].
    NeedlemanWunsch,
    /// Smith–Waterman local alignment \[14\] (the default).
    SmithWaterman,
    /// Striped SIMD Smith–Waterman (Farrar 2007): query-profiled `i16`
    /// lanes with an exact `i32` saturation fallback. Scores equal
    /// [`KernelKind::SmithWaterman`] bit for bit.
    Striped,
    /// Semi-global: the whole query against a substring of the subject.
    SemiGlobal,
    /// Banded Needleman–Wunsch with the given half-band width.
    Banded {
        /// Half-width of the DP band.
        band: u32,
    },
}

impl KernelKind {
    /// Parses the configuration-file spelling of a kernel name.
    ///
    /// Accepted values: `needleman-wunsch` | `nw`, `smith-waterman` |
    /// `sw`, `striped` | `simd`, `semiglobal` | `sg`, `banded:<width>`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let t = text.trim().to_ascii_lowercase();
        match t.as_str() {
            "needleman-wunsch" | "nw" | "global" => Ok(Self::NeedlemanWunsch),
            "smith-waterman" | "sw" | "local" => Ok(Self::SmithWaterman),
            "striped" | "simd" | "sw-striped" => Ok(Self::Striped),
            "semiglobal" | "sg" | "glocal" => Ok(Self::SemiGlobal),
            _ => {
                if let Some(width) = t.strip_prefix("banded:") {
                    let band: u32 = width
                        .parse()
                        .map_err(|_| format!("bad band width `{width}`"))?;
                    Ok(Self::Banded { band })
                } else {
                    Err(format!("unknown search algorithm `{text}`"))
                }
            }
        }
    }

    /// The configuration-file spelling of this kernel.
    pub fn name(self) -> String {
        match self {
            Self::NeedlemanWunsch => "needleman-wunsch".into(),
            Self::SmithWaterman => "smith-waterman".into(),
            Self::Striped => "striped".into(),
            Self::SemiGlobal => "semiglobal".into(),
            Self::Banded { band } => format!("banded:{band}"),
        }
    }
}

/// A scoring kernel bound to a scheme, ready to score query/subject pairs.
#[derive(Debug, Clone)]
pub struct AlignKernel {
    kind: KernelKind,
    scheme: ScoringScheme,
}

impl AlignKernel {
    /// Binds a kernel kind to a scoring scheme.
    pub fn new(kind: KernelKind, scheme: ScoringScheme) -> Self {
        Self { kind, scheme }
    }

    /// Which algorithm this kernel runs.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The scheme in use.
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// Scores one query/subject pair.
    ///
    /// Banded alignments that cannot connect the corners under their
    /// band (length difference exceeds the band) score `i32::MIN`, which
    /// ranks them below every real alignment.
    pub fn score(&self, query: &Sequence, subject: &Sequence) -> i32 {
        match self.kind {
            KernelKind::NeedlemanWunsch => nw_score(query, subject, &self.scheme),
            KernelKind::SmithWaterman => sw_score(query, subject, &self.scheme),
            KernelKind::Striped => sw_score_striped(query, subject, &self.scheme),
            KernelKind::SemiGlobal => sg_score(query, subject, &self.scheme),
            KernelKind::Banded { band } => {
                nw_banded_score(query, subject, &self.scheme, band as usize).unwrap_or(i32::MIN)
            }
        }
    }

    /// Precomputes whatever per-query state this kernel can reuse across
    /// many subjects. For [`KernelKind::Striped`] that is the query
    /// profile — the dominant per-pair setup cost, built once per
    /// DSEARCH work-unit chunk instead of once per pair. For every other
    /// kernel this is free.
    pub fn prepare(&self, query: &Sequence) -> PreparedQuery {
        let profile = match self.kind {
            KernelKind::Striped => Some(QueryProfile::build(query, &self.scheme.matrix)),
            _ => None,
        };
        PreparedQuery { profile }
    }

    /// Scores one pair using state prepared by [`AlignKernel::prepare`]
    /// for the same query. Always returns exactly
    /// [`AlignKernel::score`]`(query, subject)`.
    pub fn score_prepared(
        &self,
        query: &Sequence,
        prepared: &PreparedQuery,
        subject: &Sequence,
    ) -> i32 {
        match (&self.kind, &prepared.profile) {
            (KernelKind::Striped, Some(profile)) => {
                sw_score_striped_profiled(profile, subject, &self.scheme.gap)
            }
            _ => self.score(query, subject),
        }
    }

    /// Abstract cost of this pair in scalar-Smith–Waterman-equivalent
    /// DP cells — the unit the scheduler and the simulator budget in.
    ///
    /// Cost is `cells(n, m) × cost-per-cell ratio`, with the ratios
    /// calibrated against measured throughput (`abl_kernels --smoke`,
    /// an AVX2 host, 256-residue protein pairs, profiled batch path):
    ///
    /// | kernel           | cells   | measured Mcells/s | ratio vs `sw` |
    /// |------------------|---------|-------------------|---------------|
    /// | `smith-waterman` | `n·m`   | ≈ 129             | 1             |
    /// | `needleman-wunsch`/`semiglobal` | `n·m` | ≈ 170–260 | 1       |
    /// | `striped`        | `n·m`   | ≈ 4300            | 1/32          |
    /// | `banded:w`       | band    | —                 | 1             |
    ///
    /// Striped then retired ~33–38× the scalar cells a second, modelled
    /// as 1/32 (floored at 1 so no pair is ever free). The one scalar
    /// recurrence (`gotoh.rs`) has since run `sw` ~1.8× faster, so
    /// striped now leads by ~22× (`BENCH_kernels.json`); the ratios
    /// stay, as the simulator's figures are pinned to them and the
    /// model's job is scheduling-grade ordering, not nanosecond fidelity.
    pub fn cost_cells(&self, query: &Sequence, subject: &Sequence) -> u64 {
        let (n, m) = (query.len() as u64, subject.len() as u64);
        match self.kind {
            KernelKind::NeedlemanWunsch | KernelKind::SmithWaterman | KernelKind::SemiGlobal => {
                n * m
            }
            KernelKind::Striped => (n * m / 32).max(1.min(n * m)),
            KernelKind::Banded { band } => {
                let width = 2 * band as u64 + 1 + n.abs_diff(m);
                (n + m) * width.min(m.max(1))
            }
        }
    }
}

/// Reusable per-query kernel state from [`AlignKernel::prepare`]: the
/// striped query profile when the kernel is [`KernelKind::Striped`],
/// nothing otherwise.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    profile: Option<QueryProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use biodist_bioseq::Alphabet;

    fn seqs() -> (Sequence, Sequence) {
        (
            Sequence::from_text("q", "", Alphabet::Dna, "ACGTACGTAC").unwrap(),
            Sequence::from_text("s", "", Alphabet::Dna, "ACGTTCGTAC").unwrap(),
        )
    }

    #[test]
    fn parse_round_trips_all_kernels() {
        for kind in [
            KernelKind::NeedlemanWunsch,
            KernelKind::SmithWaterman,
            KernelKind::Striped,
            KernelKind::Banded { band: 8 },
            KernelKind::SemiGlobal,
        ] {
            assert_eq!(KernelKind::parse(&kind.name()).unwrap(), kind);
        }
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_junk() {
        assert_eq!(KernelKind::parse("SW").unwrap(), KernelKind::SmithWaterman);
        assert_eq!(
            KernelKind::parse("nw").unwrap(),
            KernelKind::NeedlemanWunsch
        );
        assert_eq!(KernelKind::parse("simd").unwrap(), KernelKind::Striped);
        assert_eq!(
            KernelKind::parse("banded:16").unwrap(),
            KernelKind::Banded { band: 16 }
        );
        assert!(KernelKind::parse("blast").is_err());
        assert!(KernelKind::parse("banded:wide").is_err());
    }

    #[test]
    fn local_kernels_agree_with_each_other() {
        let (q, s) = seqs();
        let scheme = ScoringScheme::dna_default();
        let sw = AlignKernel::new(KernelKind::SmithWaterman, scheme.clone());
        let striped = AlignKernel::new(KernelKind::Striped, scheme);
        assert_eq!(sw.score(&q, &s), striped.score(&q, &s));
    }

    #[test]
    fn prepared_scoring_equals_direct_scoring_for_all_kernels() {
        let (q, s) = seqs();
        let scheme = ScoringScheme::dna_default();
        for kind in [
            KernelKind::NeedlemanWunsch,
            KernelKind::SmithWaterman,
            KernelKind::Striped,
            KernelKind::SemiGlobal,
            KernelKind::Banded { band: 4 },
        ] {
            let k = AlignKernel::new(kind, scheme.clone());
            let prep = k.prepare(&q);
            assert_eq!(k.score_prepared(&q, &prep, &s), k.score(&q, &s), "{kind:?}");
        }
    }

    #[test]
    fn banded_kernel_flags_impossible_band() {
        let scheme = ScoringScheme::dna_default();
        let q = Sequence::from_text("q", "", Alphabet::Dna, "ACGTACGTACGTACGT").unwrap();
        let s = Sequence::from_text("s", "", Alphabet::Dna, "AC").unwrap();
        let k = AlignKernel::new(KernelKind::Banded { band: 1 }, scheme);
        assert_eq!(k.score(&q, &s), i32::MIN);
    }

    #[test]
    fn cost_model_orders_kernels_sensibly() {
        let (q, s) = seqs();
        let scheme = ScoringScheme::dna_default();
        let full = AlignKernel::new(KernelKind::SmithWaterman, scheme.clone());
        let striped = AlignKernel::new(KernelKind::Striped, scheme.clone());
        let banded = AlignKernel::new(KernelKind::Banded { band: 1 }, scheme);
        // Measured: the striped kernel costs ~1/32 of a scalar cell.
        assert!(striped.cost_cells(&q, &s) < full.cost_cells(&q, &s));
        assert!(striped.cost_cells(&q, &s) >= 1);
        assert!(banded.cost_cells(&q, &s) < full.cost_cells(&q, &s));
    }
}
