//! The [`Sequence`] type: an identified, alphabet-encoded residue string.

use crate::alphabet::{Alphabet, EncodeError};

/// A named biological sequence with residues stored as alphabet codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// Record identifier (the first word of a FASTA header).
    pub id: String,
    /// Free-text description (the rest of the FASTA header, may be empty).
    pub description: String,
    /// Alphabet this sequence is encoded in.
    pub alphabet: Alphabet,
    residues: Vec<u8>,
}

impl Sequence {
    /// Builds a sequence from residue text, encoding and validating it.
    pub fn from_text(
        id: &str,
        description: &str,
        alphabet: Alphabet,
        text: &str,
    ) -> Result<Self, EncodeError> {
        Ok(Self {
            id: id.to_string(),
            description: description.to_string(),
            alphabet,
            residues: alphabet.encode_str(text)?,
        })
    }

    /// Builds a sequence from already-encoded residue codes.
    ///
    /// # Panics
    /// Panics if any code exceeds the alphabet's ambiguity code.
    pub fn from_codes(id: &str, alphabet: Alphabet, codes: Vec<u8>) -> Self {
        Self::try_from_codes(id.to_string(), alphabet, codes).unwrap_or_else(|| {
            panic!("Sequence `{id}`: residue code out of range for {alphabet:?}")
        })
    }

    /// Builds a sequence from an owned id and already-encoded residue
    /// codes, validating them in one pass; `None` if any code exceeds
    /// the alphabet's ambiguity code (untrusted input, e.g. a chunk off
    /// the wire).
    pub fn try_from_codes(id: String, alphabet: Alphabet, codes: Vec<u8>) -> Option<Self> {
        let max = alphabet.any_code();
        codes.iter().all(|&c| c <= max).then(|| Self {
            id,
            description: String::new(),
            alphabet,
            residues: codes,
        })
    }

    /// Residue codes.
    pub fn codes(&self) -> &[u8] {
        &self.residues
    }

    /// Number of residues.
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the sequence has no residues.
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Residue text (decoded).
    pub fn to_text(&self) -> String {
        self.alphabet.decode_to_string(&self.residues)
    }

    /// A sub-sequence covering `range`, keeping id/alphabet.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Sequence {
        Sequence {
            id: self.id.clone(),
            description: self.description.clone(),
            alphabet: self.alphabet,
            residues: self.residues[range].to_vec(),
        }
    }

    /// Fraction of residues that are the ambiguity code.
    pub fn ambiguity_fraction(&self) -> f64 {
        if self.residues.is_empty() {
            return 0.0;
        }
        let n = self
            .residues
            .iter()
            .filter(|&&c| c == self.alphabet.any_code())
            .count();
        n as f64 / self.residues.len() as f64
    }
}

/// Reverse complement of a DNA sequence (`N` maps to `N`).
pub fn reverse_complement(dna: &Sequence) -> Sequence {
    assert_eq!(dna.alphabet, Alphabet::Dna, "reverse complement needs DNA");
    let any = Alphabet::Dna.any_code();
    let codes: Vec<u8> = dna
        .codes()
        .iter()
        .rev()
        .map(|&c| if c == any { any } else { 3 - c }) // A<->T (0<->3), C<->G (1<->2)
        .collect();
    let mut out = Sequence::from_codes(&format!("{}_rc", dna.id), Alphabet::Dna, codes);
    out.description = dna.description.clone();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_round_trips() {
        let s = Sequence::from_text("q1", "test query", Alphabet::Dna, "ACGTN").unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.to_text(), "ACGTN");
        assert_eq!(s.codes(), &[0, 1, 2, 3, 4]);
        assert_eq!(s.id, "q1");
        assert_eq!(s.description, "test query");
    }

    #[test]
    fn from_text_rejects_bad_residue() {
        assert!(Sequence::from_text("x", "", Alphabet::Dna, "AC-GT").is_err());
    }

    #[test]
    fn slice_preserves_identity() {
        let s = Sequence::from_text("s", "d", Alphabet::Protein, "MKVLAW").unwrap();
        let sub = s.slice(1..4);
        assert_eq!(sub.to_text(), "KVL");
        assert_eq!(sub.id, "s");
    }

    #[test]
    fn ambiguity_fraction_counts_ns() {
        let s = Sequence::from_text("s", "", Alphabet::Dna, "ANNA").unwrap();
        assert!((s.ambiguity_fraction() - 0.5).abs() < 1e-12);
        let empty = Sequence::from_codes("e", Alphabet::Dna, vec![]);
        assert_eq!(empty.ambiguity_fraction(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn reverse_complement_is_an_involution() {
        let s = Sequence::from_text("d", "", Alphabet::Dna, "ACGTTGCAN").unwrap();
        let rc = reverse_complement(&s);
        assert_eq!(rc.to_text(), "NTGCAACGT");
        let back = reverse_complement(&rc);
        assert_eq!(back.codes(), s.codes());
    }

    #[test]
    fn try_from_codes_rejects_instead_of_panicking() {
        let ok = Sequence::try_from_codes("p".into(), Alphabet::Protein, vec![0, 19, 20]);
        assert_eq!(ok.map(|s| s.len()), Some(3));
        assert!(Sequence::try_from_codes("d".into(), Alphabet::Dna, vec![0, 5]).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_codes_validates_range() {
        Sequence::from_codes("bad", Alphabet::Dna, vec![0, 7]);
    }
}
