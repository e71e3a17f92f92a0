//! Gotoh's affine-gap recurrence, written once for every scalar kernel:
//! Needleman–Wunsch global alignment \[10\] (the most sensitive and most
//! expensive of DSEARCH's built-in algorithms), semi-global alignment,
//! Smith–Waterman local alignment \[14\] (the default DSEARCH kernel)
//! and banded Needleman–Wunsch.
//!
//! Three DP states per cell: `M` (the column pairs two residues), `Ix`
//! (ends in a gap in the first sequence, consuming a residue of the
//! second) and `Iy` (ends in a gap in the second sequence). Opening a
//! gap costs `gap.open`; extending it costs `gap.extend`.
//!
//! The kernels differ only in the free end gaps of the textbook
//! formulation, which a const `MODE` fixes at compile time (nothing in
//! the inner loop branches on it at run time):
//!
//! | `MODE`   | an alignment may start | the `M` cell             | it may end        |
//! |----------|------------------------|--------------------------|-------------------|
//! | `GLOBAL` | at (0, 0)              | as computed              | at (n, m)         |
//! | `SEMI`   | anywhere on row 0      | as computed              | anywhere on row n |
//! | `LOCAL`  | anywhere (a 0 floor)   | clamped at 0             | at the best cell  |
//! | `BANDED` | at (0, 0)              | only inside the band     | at (n, m)         |
//!
//! Semi-global aligns the whole query (the first sequence) against a
//! substring of the subject, whose flanks are free — gene-in-genome,
//! read-in-reference, domain-in-protein. Banded global alignment visits
//! only the diagonals within `band` of the main one (adjusted for the
//! length difference), an `O((n+m)·band)` approximation that is exact
//! whenever the optimal alignment stays inside the band (always true
//! when the sequences differ by at most `band` indels).
//!
//! Ties go to the first end in row-major order, and within a cell to
//! `M`, then `Ix`, then `Iy`; a cell's predecessor is chosen in the same
//! order (`Iy` compares `M`, `Iy`, `Ix`). Scores run in linear memory
//! (two rolling rows of each state, kept per thread from one score to
//! the next, so a score allocates nothing); a traceback adds one byte
//! per cell.

use crate::aln::{AlignedPair, AlnOp};
use crate::NEG_INF;
use biodist_bioseq::{ScoringScheme, Sequence};
use std::cell::Cell;
use std::iter::repeat_n;
use std::ops::RangeInclusive;

const GLOBAL: u8 = 0;
const SEMI: u8 = 1;
const LOCAL: u8 = 2;
const BANDED: u8 = 3;

const ST_M: u8 = 0;
const ST_IX: u8 = 1;
const ST_IY: u8 = 2;
/// A local alignment starts at this `M` cell.
const ST_START: u8 = 3;

/// Global alignment score in `O(m)` memory. Returns exactly the score of
/// [`nw_align`].
pub fn nw_score(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> i32 {
    fill::<GLOBAL, false>(a.codes(), b.codes(), scheme, 0, &mut Vec::new()).score
}

/// Global alignment with full traceback.
pub fn nw_align(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> AlignedPair {
    align::<GLOBAL>(a, b, scheme)
}

/// Semi-global score in `O(|subject|)` memory: `query` aligned fully,
/// `subject` flanks free.
pub fn sg_score(query: &Sequence, subject: &Sequence, scheme: &ScoringScheme) -> i32 {
    fill::<SEMI, false>(query.codes(), subject.codes(), scheme, 0, &mut Vec::new()).score
}

/// Semi-global alignment with traceback.
pub fn sg_align(query: &Sequence, subject: &Sequence, scheme: &ScoringScheme) -> AlignedPair {
    align::<SEMI>(query, subject, scheme)
}

/// Local alignment score in `O(m)` memory.
///
/// The score is always ≥ 0 (the empty alignment is admissible).
pub fn sw_score(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> i32 {
    fill::<LOCAL, false>(a.codes(), b.codes(), scheme, 0, &mut Vec::new()).score
}

/// Local alignment with full traceback.
///
/// Returns the best-scoring local alignment; ties broken toward the
/// smallest end coordinates (row-major scan order).
///
/// ```
/// use biodist_align::sw_align;
/// use biodist_bioseq::{Alphabet, ScoringScheme, Sequence};
/// let a = Sequence::from_text("a", "", Alphabet::Dna, "TTTACGTACGTTT").unwrap();
/// let b = Sequence::from_text("b", "", Alphabet::Dna, "ACGTACG").unwrap();
/// let aln = sw_align(&a, &b, &ScoringScheme::dna_default());
/// assert_eq!(aln.a_range, 3..10);
/// assert_eq!(aln.score, 35); // 7 matches at +5
/// ```
pub fn sw_align(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> AlignedPair {
    align::<LOCAL>(a, b, scheme)
}

/// Banded global alignment score in `O(m)` memory.
///
/// Cells with `|i - j - offset| > band` are treated as unreachable,
/// where `offset` centres the band on the main diagonal adjusted for
/// the length difference. Returns `None` when the band is too narrow
/// to connect the origin to the terminal cell (i.e. `band` smaller than
/// needed to absorb the length difference).
pub fn nw_banded_score(
    a: &Sequence,
    b: &Sequence,
    scheme: &ScoringScheme,
    band: usize,
) -> Option<i32> {
    if band < a.len().abs_diff(b.len()) {
        return None;
    }
    let end = fill::<BANDED, false>(a.codes(), b.codes(), scheme, band, &mut Vec::new());
    (end.score > NEG_INF / 2).then_some(end.score)
}

/// One row of the `M`, `Ix` and `Iy` matrices, `j = 0..=m` each.
type Row = [Vec<i32>; 3];

const NO_ROW: Row = [Vec::new(), Vec::new(), Vec::new()];

thread_local! {
    /// The two rolling rows of this thread's last fill, which the next
    /// one reuses instead of allocating its own.
    static ROWS: Cell<[Row; 2]> = const { Cell::new([NO_ROW; 2]) };
}

/// Where an alignment ends: its score, cell and state.
struct End {
    score: i32,
    i: usize,
    j: usize,
    state: u8,
}

impl End {
    /// Moves the end to the best cell of row `i` over `js` that beats it:
    /// strict `>`, the first such cell and state in scan order. A local
    /// alignment ends in `M` (a trailing gap column only lowers it).
    fn scan<const MODE: u8>(&mut self, i: usize, row: &Row, js: RangeInclusive<usize>) {
        let states = if MODE == LOCAL { 1 } else { 3 };
        for j in js {
            for state in 0..states {
                let score = row[state as usize][j];
                if score > self.score {
                    *self = End { score, i, j, state };
                }
            }
        }
    }
}

/// The predecessor among three candidates, ties to the first.
fn pick(c: [i32; 3], states: [u8; 3]) -> u8 {
    if c[0] >= c[1] && c[0] >= c[2] {
        states[0]
    } else if c[1] >= c[2] {
        states[1]
    } else {
        states[2]
    }
}

/// The recurrence: fills rows `0..=n` of `a` against `b` and returns
/// where the best alignment ends. With `TRACE`, pushes one byte per
/// interior cell onto `tb`, row-major — the predecessor states of `M`,
/// `Ix` and `Iy` in bits 0–1, 2–3 and 4–5. `band` is read under
/// `BANDED` only.
fn fill<const MODE: u8, const TRACE: bool>(
    a: &[u8],
    b: &[u8],
    scheme: &ScoringScheme,
    band: usize,
    tb: &mut Vec<u8>,
) -> End {
    let (n, m) = (a.len(), b.len());
    let (o, e) = (scheme.gap.open, scheme.gap.extend);
    let gap = |len: usize| -(o + (len as i32 - 1) * e);
    // The diagonals `j - i` the DP visits; a band is centred between
    // diagonal 0 and the terminal cell's `m - n`.
    let diff = m as i64 - n as i64;
    let (lo, hi) = if MODE == BANDED {
        (diff.min(0) - band as i64, diff.max(0) + band as i64)
    } else {
        (-(n as i64), m as i64)
    };

    let [mut prev, mut cur] = ROWS.take();
    for row in prev.iter_mut().chain(&mut cur) {
        row.clear();
        row.resize(m + 1, NEG_INF);
    }
    if MODE == SEMI || MODE == LOCAL {
        cur[0].fill(0); // free start anywhere on row 0
    } else {
        cur[0][0] = 0;
        for j in 1..=m.min(hi as usize) {
            cur[1][j] = gap(j);
        }
    }
    let mut end = End {
        score: if MODE == LOCAL { 0 } else { NEG_INF },
        i: 0,
        j: 0,
        state: if MODE == LOCAL { ST_START } else { ST_M },
    };

    for (i, &ra) in (1..=n).zip(a) {
        std::mem::swap(&mut prev, &mut cur);
        let j_lo = (i as i64 + lo).max(1) as usize;
        let j_hi = (i as i64 + hi).min(m as i64) as usize;
        // The cell left of the row: column 0, or outside the band.
        let k = j_lo - 1;
        let mut left = if MODE == LOCAL {
            [0, NEG_INF, NEG_INF]
        } else if k == 0 && i as i64 <= -lo {
            [NEG_INF, NEG_INF, gap(i)]
        } else {
            [NEG_INF; 3]
        };
        // Row `i` from `k` on, sliced to one length so that the loop
        // indexes without bounds checks.
        let w = j_hi + 1 - j_lo;
        let bs = &b[k..][..w];
        let ([um, ux, uy], [cm, cx, cy]) = (&prev, &mut cur);
        let mut diag_cell = [um[k], ux[k], uy[k]];
        let (um, ux, uy) = (&um[j_lo..][..w], &ux[j_lo..][..w], &uy[j_lo..][..w]);
        let (cm, cx, cy) = (&mut cm[k..][..=w], &mut cx[k..][..=w], &mut cy[k..][..=w]);
        (cm[0], cx[0], cy[0]) = (left[0], left[1], left[2]);
        let scores = scheme.matrix.row(ra);
        let mut row_best = 0;
        for t in 0..w {
            let up = [um[t], ux[t], uy[t]];
            let dc = diag_cell;
            let mut diag = dc[0].max(dc[1]).max(dc[2]);
            if MODE == LOCAL {
                diag = diag.max(0);
            }
            let mut mv = diag + scores[bs[t] as usize];
            if MODE == LOCAL {
                mv = mv.max(0);
                row_best = row_best.max(mv);
            }
            if MODE == BANDED && diag <= NEG_INF / 2 {
                mv = NEG_INF;
            }
            let xc = [left[0] - o, left[1] - e, left[2] - o];
            let yc = [up[0] - o, up[2] - e, up[1] - o];
            left = [mv, xc[0].max(xc[1]).max(xc[2]), yc[0].max(yc[1]).max(yc[2])];
            (cm[t + 1], cx[t + 1], cy[t + 1]) = (left[0], left[1], left[2]);
            diag_cell = up;
            if TRACE {
                // Extending a non-positive prefix is never better than
                // starting a fresh local alignment at this residue pair.
                let from_m = if MODE == LOCAL && (diag <= 0 || mv <= 0) {
                    ST_START
                } else {
                    pick(dc, [ST_M, ST_IX, ST_IY])
                };
                let from_x = pick(xc, [ST_M, ST_IX, ST_IY]);
                let from_y = pick(yc, [ST_M, ST_IY, ST_IX]);
                tb.push(from_m | (from_x << 2) | (from_y << 4));
            }
        }
        if MODE == LOCAL && row_best > end.score {
            end.scan::<MODE>(i, &cur, j_lo..=j_hi);
        }
    }
    match MODE {
        SEMI => end.scan::<MODE>(n, &cur, 0..=m),
        GLOBAL | BANDED => end.scan::<MODE>(n, &cur, m..=m),
        _ => {}
    }
    ROWS.set([prev, cur]);
    end
}

/// Fills with traceback, then walks it back from the end to the start.
fn align<const MODE: u8>(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> AlignedPair {
    let (n, m) = (a.len(), b.len());
    let mut tb = Vec::with_capacity(n * m);
    let end = fill::<MODE, true>(a.codes(), b.codes(), scheme, 0, &mut tb);

    let (mut i, mut j, mut state) = (end.i, end.j, end.state);
    let mut ops = Vec::with_capacity(n + m);
    while i > 0 && j > 0 && state != ST_START {
        let from = (tb[(i - 1) * m + j - 1] >> (2 * state)) & 3;
        match state {
            ST_M => {
                ops.push(AlnOp::Pair);
                i -= 1;
                j -= 1;
            }
            ST_IX => {
                ops.push(AlnOp::GapInA);
                j -= 1;
            }
            _ => {
                ops.push(AlnOp::GapInB);
                i -= 1;
            }
        }
        state = from;
    }
    // A global or semi-global alignment that reaches column 0 starts
    // with one gap run down it; a global one that reaches row 0, with
    // one along it.
    if MODE != LOCAL {
        ops.extend(repeat_n(AlnOp::GapInB, i));
        i = 0;
    }
    if MODE == GLOBAL {
        ops.extend(repeat_n(AlnOp::GapInA, j));
        j = 0;
    }
    ops.reverse();

    let aln = AlignedPair {
        score: end.score,
        a_range: i..end.i,
        b_range: j..end.j,
        ops,
    };
    debug_assert!(
        aln.verify_score(a, b, scheme),
        "traceback inconsistent with its score"
    );
    aln
}

#[cfg(test)]
mod tests {
    use super::*;
    use biodist_bioseq::{Alphabet, GapPenalty, ScoringMatrix};

    fn seq(text: &str) -> Sequence {
        Sequence::from_text("s", "", Alphabet::Dna, text).unwrap()
    }

    fn linear_scheme() -> ScoringScheme {
        // match +1, mismatch -1, linear gap -2: hand-checkable.
        ScoringScheme {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 1, -1),
            gap: GapPenalty::linear(2),
        }
    }

    fn affine_scheme() -> ScoringScheme {
        ScoringScheme {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 2, -3),
            gap: GapPenalty::affine(4, 1),
        }
    }

    #[test]
    fn identical_sequences_score_full_matches() {
        let a = seq("ACGTACGT");
        let scheme = linear_scheme();
        assert_eq!(nw_score(&a, &a, &scheme), 8);
        let aln = nw_align(&a, &a, &scheme);
        assert_eq!(aln.score, 8);
        assert_eq!(aln.ops, vec![AlnOp::Pair; 8]);
        assert!((aln.identity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_example_with_one_gap() {
        // ACGT vs ACT: best is 3 matches + 1 gap = 3*1 - 2 = 1.
        let scheme = linear_scheme();
        let (a, b) = (seq("ACGT"), seq("ACT"));
        assert_eq!(nw_score(&a, &b, &scheme), 1);
        let aln = nw_align(&a, &b, &scheme);
        assert_eq!(aln.score, 1);
        assert!(aln.verify_score(&a, &b, &scheme));
        assert_eq!(aln.ops.iter().filter(|&&op| op == AlnOp::GapInB).count(), 1);
    }

    #[test]
    fn empty_against_nonempty_is_all_gaps() {
        let scheme = ScoringScheme::dna_default(); // gap 10/1
        let (a, b) = (
            seq("ACGT"),
            Sequence::from_codes("e", Alphabet::Dna, vec![]),
        );
        // One gap run of length 4: -(10 + 3).
        assert_eq!(nw_score(&a, &b, &scheme), -13);
        let aln = nw_align(&a, &b, &scheme);
        assert_eq!(aln.score, -13);
        assert_eq!(aln.ops, vec![AlnOp::GapInB; 4]);
        assert!(aln.verify_score(&a, &b, &scheme));
    }

    #[test]
    fn both_empty_scores_zero() {
        let scheme = linear_scheme();
        let e = Sequence::from_codes("e", Alphabet::Dna, vec![]);
        assert_eq!(nw_score(&e, &e, &scheme), 0);
        assert!(nw_align(&e, &e, &scheme).is_empty());
    }

    #[test]
    fn affine_gaps_prefer_one_long_gap() {
        // With affine costs a single length-2 gap beats two single gaps.
        let scheme = ScoringScheme {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 2, -3),
            gap: GapPenalty::affine(4, 1),
        };
        let a = seq("AACCGG");
        let b = seq("AAGG");
        let aln = nw_align(&a, &b, &scheme);
        // 4 matches - (4+1) for a single CC gap = 8 - 5 = 3.
        assert_eq!(aln.score, 3);
        assert!(aln.verify_score(&a, &b, &scheme));
        // The two gap columns must be adjacent (one run).
        let gap_positions: Vec<usize> = aln
            .ops
            .iter()
            .enumerate()
            .filter(|(_, &op)| op == AlnOp::GapInB)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(gap_positions.len(), 2);
        assert_eq!(gap_positions[1], gap_positions[0] + 1);
    }

    #[test]
    fn score_only_matches_full_alignment_on_protein() {
        let scheme = ScoringScheme::protein_default();
        let a = Sequence::from_text("a", "", Alphabet::Protein, "MKVLAWGRRKHG").unwrap();
        let b = Sequence::from_text("b", "", Alphabet::Protein, "MKVAWGRKHAG").unwrap();
        let aln = nw_align(&a, &b, &scheme);
        assert_eq!(nw_score(&a, &b, &scheme), aln.score);
        assert!(aln.verify_score(&a, &b, &scheme));
    }

    #[test]
    fn score_is_symmetric_for_symmetric_matrix() {
        let scheme = ScoringScheme::dna_default();
        let a = seq("ACGTTGCAACGT");
        let b = seq("AGTTGAACG");
        assert_eq!(nw_score(&a, &b, &scheme), nw_score(&b, &a, &scheme));
    }

    #[test]
    fn exact_embedding_scores_full_query() {
        let s = affine_scheme();
        let query = seq("ACGTACGT");
        let subject = seq("TTTTACGTACGTTTTT");
        let aln = sg_align(&query, &subject, &s);
        assert_eq!(aln.score, 16);
        assert_eq!(aln.a_range, 0..8, "query fully covered");
        assert_eq!(aln.b_range, 4..12, "planted location found");
        assert_eq!(sg_score(&query, &subject, &s), 16);
    }

    #[test]
    fn subject_flanks_are_free_but_query_flanks_are_not() {
        let s = affine_scheme();
        // Query with a junk prefix that cannot match: it must be paid for.
        let query = seq("CCCCACGT");
        let subject = seq("TTTTTTACGTTTTTT");
        let semi = sg_score(&query, &subject, &s);
        let local = sw_score(&query, &subject, &s);
        assert!(
            local > semi,
            "SW may trim the query prefix; semi-global may not"
        );
    }

    #[test]
    fn semi_global_at_least_global() {
        let s = affine_scheme();
        let a = seq("ACGTTGCA");
        let b = seq("GGGACGTTGCAGGG");
        assert!(sg_score(&a, &b, &s) >= nw_score(&a, &b, &s));
    }

    #[test]
    fn equal_length_unrelated_sequences_may_go_negative() {
        let s = affine_scheme();
        let a = seq("AAAA");
        let b = seq("CCCC");
        // Best: align all four as mismatches (or pay gaps): negative.
        assert!(
            sg_score(&a, &b, &s) < 0,
            "unlike SW, semi-global can be negative"
        );
    }

    #[test]
    fn empty_query_scores_zero() {
        let s = affine_scheme();
        let e = Sequence::from_codes("e", Alphabet::Dna, vec![]);
        let b = seq("ACGT");
        assert_eq!(sg_score(&e, &b, &s), 0);
        assert!(sg_align(&e, &b, &s).is_empty());
    }

    #[test]
    fn empty_subject_forces_all_query_gaps() {
        let s = affine_scheme();
        let a = seq("ACGT");
        let e = Sequence::from_codes("e", Alphabet::Dna, vec![]);
        // One affine run of length 4: -(4 + 3).
        assert_eq!(sg_score(&a, &e, &s), -7);
        let aln = sg_align(&a, &e, &s);
        assert_eq!(aln.ops, vec![AlnOp::GapInB; 4]);
        assert!(aln.verify_score(&a, &e, &s));
    }

    #[test]
    fn score_only_matches_traceback_on_random_pairs() {
        use biodist_bioseq::synth::random_sequence;
        let s = affine_scheme();
        for seed in 0..20 {
            let a = random_sequence(Alphabet::Dna, "a", 12 + (seed as usize % 9), seed);
            let b = random_sequence(Alphabet::Dna, "b", 18, seed + 100);
            let aln = sg_align(&a, &b, &s);
            assert_eq!(aln.score, sg_score(&a, &b, &s), "seed {seed}");
            assert!(aln.verify_score(&a, &b, &s), "seed {seed}");
        }
    }

    #[test]
    fn interior_gap_in_query_is_found() {
        let s = affine_scheme();
        // Subject contains the query with one extra residue inserted.
        let query = seq("ACGTACGT");
        let subject = seq("GGGACGTTACGTGGG");
        let aln = sg_align(&query, &subject, &s);
        // 8 matches (+16) minus one gap open (−4): 12.
        assert_eq!(aln.score, 12);
        assert!(aln.ops.contains(&AlnOp::GapInA));
    }

    #[test]
    fn finds_embedded_exact_match() {
        let scheme = affine_scheme();
        let a = seq("TTTTACGTACGTTTT");
        let b = seq("ACGTACGT");
        let aln = sw_align(&a, &b, &scheme);
        assert_eq!(aln.score, 16, "8 matches at +2");
        assert_eq!(aln.a_range, 4..12);
        assert_eq!(aln.b_range, 0..8);
        assert_eq!(sw_score(&a, &b, &scheme), 16);
    }

    #[test]
    fn unrelated_sequences_score_low_but_nonnegative() {
        let scheme = affine_scheme();
        let a = seq("AAAAAAAA");
        let b = seq("CCCCCCCC");
        assert_eq!(sw_score(&a, &b, &scheme), 0);
        let aln = sw_align(&a, &b, &scheme);
        assert_eq!(aln.score, 0);
        assert!(aln.is_empty());
    }

    #[test]
    fn local_alignment_trims_poor_flanks() {
        let scheme = affine_scheme();
        // Matching core GGGG with mismatching flanks that global alignment
        // would be forced to include.
        let a = seq("TTGGGGTT");
        let b = seq("AAGGGGAA");
        let aln = sw_align(&a, &b, &scheme);
        assert_eq!(aln.score, 8);
        assert_eq!(aln.a_range, 2..6);
        assert_eq!(aln.b_range, 2..6);
        assert!(aln.verify_score(&a, &b, &scheme));
    }

    #[test]
    fn gap_in_local_alignment_when_profitable() {
        let scheme = ScoringScheme {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 3, -4),
            gap: GapPenalty::affine(4, 1),
        };
        // b is a with one residue deleted; bridging the gap (cost 4) keeps
        // six more matches (+18), so the gapped alignment wins.
        let a = seq("ACGTCCTGCA");
        let b = seq("ACGTCTGCA");
        let aln = sw_align(&a, &b, &scheme);
        assert_eq!(aln.score, 9 * 3 - 4);
        assert!(aln.ops.contains(&AlnOp::GapInB));
        assert!(aln.verify_score(&a, &b, &scheme));
    }

    #[test]
    fn score_only_variants_agree_with_traceback() {
        let scheme = ScoringScheme::protein_default();
        let a = Sequence::from_text("a", "", Alphabet::Protein, "MKWVLLLNAGRSKW").unwrap();
        let b = Sequence::from_text("b", "", Alphabet::Protein, "GGMKWVLNAGRSKWPP").unwrap();
        let aln = sw_align(&a, &b, &scheme);
        assert_eq!(sw_score(&a, &b, &scheme), aln.score);
    }

    #[test]
    fn empty_inputs_yield_zero() {
        let scheme = affine_scheme();
        let e = Sequence::from_codes("e", Alphabet::Dna, vec![]);
        let a = seq("ACGT");
        assert_eq!(sw_score(&e, &a, &scheme), 0);
        assert_eq!(sw_score(&a, &e, &scheme), 0);
        assert_eq!(sw_align(&e, &e, &scheme).score, 0);
    }

    #[test]
    fn local_score_at_least_global_score() {
        let scheme = ScoringScheme::dna_default();
        let a = seq("ACGTTGCA");
        let b = seq("TTGC");
        assert!(sw_score(&a, &b, &scheme) >= nw_score(&a, &b, &scheme));
    }

    #[test]
    fn wide_band_equals_full_nw() {
        let s = linear_scheme();
        let a = seq("ACGTTGCAACGTAC");
        let b = seq("ACTTGCACGTAC");
        let full = nw_score(&a, &b, &s);
        assert_eq!(
            nw_banded_score(&a, &b, &s, a.len().max(b.len())),
            Some(full)
        );
    }

    #[test]
    fn band_exact_for_small_edit_distance() {
        let s = linear_scheme();
        let a = seq("ACGTACGTACGTACGT");
        let b = seq("ACGTACGAACGTACGT"); // one substitution
        assert_eq!(nw_banded_score(&a, &b, &s, 2), Some(nw_score(&a, &b, &s)));
    }

    #[test]
    fn band_narrower_than_length_difference_is_rejected() {
        let s = linear_scheme();
        let a = seq("ACGTACGTACGT");
        let b = seq("ACGT");
        assert_eq!(nw_banded_score(&a, &b, &s, 2), None);
    }

    #[test]
    fn band_covers_length_difference_exactly() {
        let s = linear_scheme();
        let a = seq("ACGTACGT");
        let b = seq("ACGTAC"); // diff 2
        let got = nw_banded_score(&a, &b, &s, 2).unwrap();
        assert_eq!(got, nw_score(&a, &b, &s));
    }

    #[test]
    fn narrow_band_never_beats_full_score() {
        let s = linear_scheme();
        let a = seq("AACCGGTTAACCGGTT");
        let b = seq("TTGGCCAATTGGCCAA");
        let full = nw_score(&a, &b, &s);
        if let Some(banded) = nw_banded_score(&a, &b, &s, 1) {
            assert!(
                banded <= full,
                "banded {banded} must not exceed full {full}"
            );
        }
    }

    #[test]
    fn identical_sequences_work_with_zero_band() {
        let s = linear_scheme();
        let a = seq("ACGTACGT");
        assert_eq!(nw_banded_score(&a, &a, &s, 0), Some(8));
    }
}
