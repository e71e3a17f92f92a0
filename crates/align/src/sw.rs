//! Smith–Waterman local alignment (affine gaps), the default DSEARCH
//! kernel.

use crate::aln::{AlignedPair, AlnOp};
use crate::NEG_INF;
use biodist_bioseq::{ScoringScheme, Sequence};

const ST_M: u8 = 0;
const ST_IX: u8 = 1;
const ST_IY: u8 = 2;
const ST_START: u8 = 3;

/// Local alignment score in `O(m)` memory (rolling rows).
///
/// The score is always ≥ 0 (the empty alignment is admissible).
pub fn sw_score(a: &Sequence, b: &Sequence, scheme: &ScoringScheme) -> i32 {
    let (ac, bc) = (a.codes(), b.codes());
    let (o, e) = (scheme.gap.open, scheme.gap.extend);
    let m = bc.len();

    let mut prev_m = vec![0i32; m + 1];
    let mut prev_ix = vec![NEG_INF; m + 1];
    let mut prev_iy = vec![NEG_INF; m + 1];
    let mut cur_m = vec![0i32; m + 1];
    let mut cur_ix = vec![NEG_INF; m + 1];
    let mut cur_iy = vec![NEG_INF; m + 1];
    let mut best = 0;

    for &ra in ac {
        cur_m[0] = 0;
        cur_ix[0] = NEG_INF;
        cur_iy[0] = NEG_INF;
        for (j, &rb) in bc.iter().enumerate() {
            let j1 = j + 1;
            let diag = prev_m[j].max(prev_ix[j]).max(prev_iy[j]).max(0);
            let mv = (diag + scheme.matrix.score(ra, rb)).max(0);
            cur_m[j1] = mv;
            cur_ix[j1] = (cur_m[j1 - 1] - o)
                .max(cur_ix[j1 - 1] - e)
                .max(cur_iy[j1 - 1] - o);
            cur_iy[j1] = (prev_m[j1] - o).max(prev_iy[j1] - e).max(prev_ix[j1] - o);
            best = best.max(mv);
        }
        std::mem::swap(&mut prev_m, &mut cur_m);
        std::mem::swap(&mut prev_ix, &mut cur_ix);
        std::mem::swap(&mut prev_iy, &mut cur_iy);
    }
    best
}

/// Local alignment with full traceback (`O(n·m)` memory).
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
    let (ac, bc) = (a.codes(), b.codes());
    let (n, m) = (ac.len(), bc.len());
    let (o, e) = (scheme.gap.open, scheme.gap.extend);
    let w = m + 1;

    let mut mm = vec![0i32; (n + 1) * w];
    let mut ix = vec![NEG_INF; (n + 1) * w];
    let mut iy = vec![NEG_INF; (n + 1) * w];
    let mut tb_m = vec![ST_START; (n + 1) * w];
    let mut tb_x = vec![ST_IX; (n + 1) * w];
    let mut tb_y = vec![ST_IY; (n + 1) * w];

    let mut best = 0i32;
    let mut best_cell = (0usize, 0usize);

    for i in 1..=n {
        let ra = ac[i - 1];
        for j in 1..=m {
            let c = i * w + j;
            let up = (i - 1) * w + j;
            let left = c - 1;
            let diag = up - 1;

            let (dm, dx, dy) = (mm[diag], ix[diag], iy[diag]);
            let (best_diag, from) = if dm >= dx && dm >= dy {
                (dm, ST_M)
            } else if dx >= dy {
                (dx, ST_IX)
            } else {
                (dy, ST_IY)
            };
            // Extending a non-positive prefix is never better than
            // starting a fresh local alignment at this residue pair.
            let (base, from) = if best_diag > 0 {
                (best_diag, from)
            } else {
                (0, ST_START)
            };
            let cand = base + scheme.matrix.score(ra, bc[j - 1]);
            if cand > 0 {
                mm[c] = cand;
                tb_m[c] = from;
            } else {
                mm[c] = 0;
                tb_m[c] = ST_START;
            }

            let (xm, xx, xy) = (mm[left] - o, ix[left] - e, iy[left] - o);
            let (bx, fx) = if xm >= xx && xm >= xy {
                (xm, ST_M)
            } else if xx >= xy {
                (xx, ST_IX)
            } else {
                (xy, ST_IY)
            };
            ix[c] = bx;
            tb_x[c] = fx;

            let (ym, yy, yx) = (mm[up] - o, iy[up] - e, ix[up] - o);
            let (by, fy) = if ym >= yy && ym >= yx {
                (ym, ST_M)
            } else if yy >= yx {
                (yy, ST_IY)
            } else {
                (yx, ST_IX)
            };
            iy[c] = by;
            tb_y[c] = fy;

            if mm[c] > best {
                best = mm[c];
                best_cell = (i, j);
            }
        }
    }

    if best == 0 {
        return AlignedPair {
            score: 0,
            a_range: 0..0,
            b_range: 0..0,
            ops: vec![],
        };
    }

    // Local alignments end in state M (a gap column can never be the
    // last column of an optimal local alignment: dropping it only
    // increases the score).
    let (mut i, mut j) = best_cell;
    let mut state = ST_M;
    let mut ops = Vec::new();
    loop {
        let c = i * w + j;
        match state {
            ST_M => {
                let from = tb_m[c];
                ops.push(AlnOp::Pair);
                i -= 1;
                j -= 1;
                if from == ST_START {
                    break;
                }
                state = from;
            }
            ST_IX => {
                ops.push(AlnOp::GapInA);
                state = tb_x[c];
                j -= 1;
            }
            _ => {
                ops.push(AlnOp::GapInB);
                state = tb_y[c];
                i -= 1;
            }
        }
    }
    ops.reverse();

    let aln = AlignedPair {
        score: best,
        a_range: i..best_cell.0,
        b_range: j..best_cell.1,
        ops,
    };
    debug_assert!(
        aln.verify_score(a, b, scheme),
        "SW traceback inconsistent with its score"
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

    fn simple_scheme() -> ScoringScheme {
        ScoringScheme {
            matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 2, -3),
            gap: GapPenalty::affine(4, 1),
        }
    }

    #[test]
    fn finds_embedded_exact_match() {
        let scheme = simple_scheme();
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
        let scheme = simple_scheme();
        let a = seq("AAAAAAAA");
        let b = seq("CCCCCCCC");
        assert_eq!(sw_score(&a, &b, &scheme), 0);
        let aln = sw_align(&a, &b, &scheme);
        assert_eq!(aln.score, 0);
        assert!(aln.is_empty());
    }

    #[test]
    fn local_alignment_trims_poor_flanks() {
        let scheme = simple_scheme();
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
        let scheme = simple_scheme();
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
        assert!(sw_score(&a, &b, &scheme) >= crate::nw::nw_score(&a, &b, &scheme));
    }
}
