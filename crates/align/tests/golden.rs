//! Pins the exact behaviour of the seven scalar alignment functions —
//! scores, end cells, tie-breaks and traceback columns — as one FNV-1a
//! digest over seeded pairs. A change to the recurrences that moves any
//! of them (a tie broken the other way, a range one residue off, a
//! banded score that connects where it did not) moves the digest.
//!
//! The pairs cover protein and DNA, affine, linear and zero-cost gaps
//! (the last makes ties everywhere), lengths 0–120 with empty sequences,
//! unrelated pairs and mutated copies, and bands too narrow to connect
//! the corners.

use biodist_align::{
    nw_align, nw_banded_score, nw_score, sg_align, sg_score, sw_align, sw_score, AlignedPair, AlnOp,
};
use biodist_bioseq::{Alphabet, GapPenalty, ScoringMatrix, ScoringScheme, Sequence};

const PAIRS: u64 = 600;
const BANDS: [usize; 9] = [0, 1, 2, 3, 5, 8, 13, 40, 100];
const GOLDEN: u64 = 0xf074_06e3_125e_355a;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn int(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn aln(&mut self, aln: &AlignedPair) {
        self.int(aln.score as i64);
        for v in [
            aln.a_range.start,
            aln.a_range.end,
            aln.b_range.start,
            aln.b_range.end,
        ] {
            self.int(v as i64);
        }
        self.int(aln.ops.len() as i64);
        let ops: Vec<u8> = aln
            .ops
            .iter()
            .map(|op| match op {
                AlnOp::Pair => 0,
                AlnOp::GapInB => 1,
                AlnOp::GapInA => 2,
            })
            .collect();
        self.bytes(&ops);
    }
}

fn schemes() -> Vec<ScoringScheme> {
    let dna = |m, x, gap| ScoringScheme {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, m, x),
        gap,
    };
    vec![
        ScoringScheme::protein_default(),
        ScoringScheme {
            matrix: ScoringMatrix::blosum62(),
            gap: GapPenalty::linear(4),
        },
        ScoringScheme::dna_default(),
        dna(2, -3, GapPenalty::affine(5, 2)),
        dna(1, -1, GapPenalty::linear(1)),
        dna(1, -1, GapPenalty::linear(0)),
    ]
}

/// A random sequence, or a copy of `from` with substitutions, insertions
/// and deletions, so that some pairs align with gaps.
fn sequence(rng: &mut Rng, alphabet: Alphabet, from: Option<&[u8]>) -> Sequence {
    // Codes include the ambiguity code (`size()`), which every matrix scores.
    let code = |rng: &mut Rng| rng.below(alphabet.size() + 1) as u8;
    let codes = match from {
        None => {
            let len = if rng.below(10) == 0 {
                0
            } else {
                rng.below(121)
            };
            (0..len).map(|_| code(rng)).collect()
        }
        Some(src) => {
            let mut out = Vec::new();
            for &c in src {
                match rng.below(12) {
                    0 => out.push(code(rng)),
                    1 => {}
                    2 => out.extend([c, code(rng)]),
                    _ => out.push(c),
                }
            }
            out.truncate(120);
            out
        }
    };
    Sequence::from_codes("s", alphabet, codes)
}

#[test]
fn alignment_outputs_match_the_golden_digest() {
    let schemes = schemes();
    let mut rng = Rng(0x5eed_a119);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for _ in 0..PAIRS {
        let scheme = &schemes[rng.below(schemes.len())];
        let alphabet = scheme.alphabet();
        let a = sequence(&mut rng, alphabet, None);
        let b = if rng.below(2) == 0 {
            sequence(&mut rng, alphabet, Some(a.codes()))
        } else {
            sequence(&mut rng, alphabet, None)
        };
        let (a, b) = if rng.below(2) == 0 { (a, b) } else { (b, a) };

        for score in [
            sw_score(&a, &b, scheme),
            nw_score(&a, &b, scheme),
            sg_score(&a, &b, scheme),
        ] {
            h.int(score as i64);
        }
        for aln in [
            sw_align(&a, &b, scheme),
            nw_align(&a, &b, scheme),
            sg_align(&a, &b, scheme),
        ] {
            h.aln(&aln);
        }
        for band in BANDS {
            h.int(nw_banded_score(&a, &b, scheme, band).map_or(i64::MIN, i64::from));
        }
    }
    assert_eq!(h.0, GOLDEN, "digest {:#018x}", h.0);
}
