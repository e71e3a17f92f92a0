//! DSEARCH configuration.
//!
//! Paper §3.1: "The user edits a straightforward configuration file to
//! tailor their computation and chooses one of the built-in search
//! algorithms. The inputs to the program are a FASTA database file, a
//! FASTA query sequences file, a scoring scheme, and a configuration
//! file." The recognised keys:
//!
//! ```text
//! algorithm   = smith-waterman        # nw | sw | striped | sg | banded:<w>
//! alphabet    = protein               # protein | dna
//! matrix      = blosum62              # blosum62 | match:<m>,<x> | tt:<m>,<ts>,<tv>
//! gap_open    = 11
//! gap_extend  = 1
//! top_hits    = 25
//! ```

use biodist_align::KernelKind;
use biodist_bioseq::{Alphabet, GapPenalty, ScoringMatrix, ScoringScheme};
use biodist_util::config::Config;

/// Parsed DSEARCH settings.
#[derive(Debug, Clone)]
pub struct DsearchConfig {
    /// Which rigorous kernel to run.
    pub kernel: KernelKind,
    /// Scoring scheme (matrix + gaps).
    pub scheme: ScoringScheme,
    /// How many hits to report per query.
    pub top_hits: usize,
    /// Abstract ops charged per DP cell (`cost_scale` key, default 1).
    ///
    /// Calibration between this library's optimised kernels and the
    /// donor-machine speed scale: the paper's Java implementation of
    /// 2004 evaluated far fewer cells per second than optimised Rust,
    /// so experiment harnesses charge ~100 ops/cell to reproduce the
    /// paper's hours-long search times in virtual time while keeping
    /// real compute tractable.
    pub cost_scale: f64,
}

impl DsearchConfig {
    /// The default configuration: Smith–Waterman over BLOSUM62 11/1,
    /// 25 hits per query.
    pub fn protein_default() -> Self {
        Self {
            kernel: KernelKind::SmithWaterman,
            scheme: ScoringScheme::protein_default(),
            top_hits: 25,
            cost_scale: 1.0,
        }
    }

    /// Parses a configuration file's text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let cfg = Config::parse(text).map_err(|e| e.to_string())?;
        Self::from_config(&cfg)
    }

    /// Builds settings from an already-parsed [`Config`].
    pub fn from_config(cfg: &Config) -> Result<Self, String> {
        let kernel = match cfg.get("algorithm") {
            None => KernelKind::SmithWaterman,
            Some(a) => KernelKind::parse(a)?,
        };
        let alphabet = match cfg.get("alphabet").unwrap_or("protein") {
            "protein" => Alphabet::Protein,
            "dna" => Alphabet::Dna,
            other => return Err(format!("unknown alphabet `{other}`")),
        };
        let matrix = match cfg.get("matrix") {
            None => match alphabet {
                Alphabet::Protein => ScoringMatrix::blosum62(),
                Alphabet::Dna => ScoringMatrix::match_mismatch(Alphabet::Dna, 5, -4),
            },
            Some("blosum62") => {
                if alphabet != Alphabet::Protein {
                    return Err("blosum62 requires alphabet = protein".into());
                }
                ScoringMatrix::blosum62()
            }
            Some(spec) => parse_matrix_spec(alphabet, spec)?,
        };
        let gap_open = cfg.get_u64_or("gap_open", 11).map_err(|e| e.to_string())? as i32;
        let gap_extend = cfg.get_u64_or("gap_extend", 1).map_err(|e| e.to_string())? as i32;
        if gap_extend > gap_open {
            return Err(format!(
                "gap_extend ({gap_extend}) must not exceed gap_open ({gap_open})"
            ));
        }
        let top_hits = cfg.get_u64_or("top_hits", 25).map_err(|e| e.to_string())? as usize;
        if top_hits == 0 {
            return Err("top_hits must be at least 1".into());
        }
        let cost_scale = cfg
            .get_f64_or("cost_scale", 1.0)
            .map_err(|e| e.to_string())?;
        if cost_scale <= 0.0 {
            return Err("cost_scale must be positive".into());
        }
        Ok(Self {
            kernel,
            scheme: ScoringScheme {
                matrix,
                gap: GapPenalty::affine(gap_open, gap_extend),
            },
            top_hits,
            cost_scale,
        })
    }
}

fn parse_matrix_spec(alphabet: Alphabet, spec: &str) -> Result<ScoringMatrix, String> {
    if let Some(rest) = spec.strip_prefix("match:") {
        let parts: Vec<&str> = rest.split(',').collect();
        if parts.len() != 2 {
            return Err(format!("match matrix needs `match:<m>,<x>`, got `{spec}`"));
        }
        let m: i32 = parts[0]
            .trim()
            .parse()
            .map_err(|_| format!("bad match score `{}`", parts[0]))?;
        let x: i32 = parts[1]
            .trim()
            .parse()
            .map_err(|_| format!("bad mismatch score `{}`", parts[1]))?;
        return Ok(ScoringMatrix::match_mismatch(alphabet, m, x));
    }
    if let Some(rest) = spec.strip_prefix("tt:") {
        if alphabet != Alphabet::Dna {
            return Err("transition/transversion matrix requires alphabet = dna".into());
        }
        let parts: Vec<&str> = rest.split(',').collect();
        if parts.len() != 3 {
            return Err(format!("tt matrix needs `tt:<m>,<ts>,<tv>`, got `{spec}`"));
        }
        let vals: Result<Vec<i32>, _> = parts.iter().map(|p| p.trim().parse::<i32>()).collect();
        let vals = vals.map_err(|_| format!("bad tt matrix values in `{spec}`"))?;
        return Ok(ScoringMatrix::dna_transition_transversion(
            vals[0], vals[1], vals[2],
        ));
    }
    Err(format!("unknown matrix `{spec}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_file_round_trips() {
        let cfg = DsearchConfig::parse(
            "algorithm = smith-waterman\nmatrix = blosum62\ngap_open = 11\ngap_extend = 1\ntop_hits = 25\n",
        )
        .unwrap();
        assert_eq!(cfg.kernel, KernelKind::SmithWaterman);
        assert_eq!(cfg.top_hits, 25);
        assert_eq!(cfg.scheme.gap, GapPenalty::affine(11, 1));
    }

    #[test]
    fn empty_config_gives_protein_defaults() {
        let cfg = DsearchConfig::parse("").unwrap();
        assert_eq!(cfg.kernel, KernelKind::SmithWaterman);
        assert_eq!(cfg.scheme.alphabet(), Alphabet::Protein);
    }

    #[test]
    fn dna_match_matrix_parses() {
        let cfg =
            DsearchConfig::parse("alphabet = dna\nmatrix = match:5,-4\ngap_open=10\n").unwrap();
        assert_eq!(cfg.scheme.alphabet(), Alphabet::Dna);
        assert_eq!(cfg.scheme.matrix.score(0, 0), 5);
        assert_eq!(cfg.scheme.matrix.score(0, 1), -4);
    }

    #[test]
    fn transition_transversion_matrix_parses() {
        let cfg = DsearchConfig::parse("alphabet = dna\nmatrix = tt:4,-1,-3\n").unwrap();
        // A->G transition.
        assert_eq!(cfg.scheme.matrix.score(0, 2), -1);
        // A->C transversion.
        assert_eq!(cfg.scheme.matrix.score(0, 1), -3);
    }

    #[test]
    fn striped_kernel_parses() {
        for spelling in ["striped", "simd"] {
            let cfg = DsearchConfig::parse(&format!("algorithm = {spelling}\n")).unwrap();
            assert_eq!(cfg.kernel, KernelKind::Striped, "{spelling}");
        }
    }

    #[test]
    fn banded_kernel_parses() {
        let cfg = DsearchConfig::parse("algorithm = banded:12\n").unwrap();
        assert_eq!(cfg.kernel, KernelKind::Banded { band: 12 });
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(DsearchConfig::parse("algorithm = blastish\n").is_err());
        assert!(DsearchConfig::parse("alphabet = rna\n").is_err());
        assert!(DsearchConfig::parse("matrix = blosum99\n").is_err());
        assert!(DsearchConfig::parse("alphabet=dna\nmatrix = blosum62\n").is_err());
        assert!(DsearchConfig::parse("gap_open = 1\ngap_extend = 5\n").is_err());
        assert!(DsearchConfig::parse("top_hits = 0\n").is_err());
        assert!(DsearchConfig::parse("alphabet=protein\nmatrix = tt:1,2,3\n").is_err());
        assert!(DsearchConfig::parse("matrix = match:1\n").is_err());
    }
}
