//! DNA sequences.
//!
//! [`DnaSeq`] stores one base per byte (2-bit code in the low bits) for fast
//! random access by the aligner.

use std::fmt;
use std::ops::Index;

use crate::base::Base;

/// An owned DNA sequence stored as 2-bit codes, one per byte.
///
/// # Examples
///
/// ```
/// use nvwa_genome::DnaSeq;
/// let s: DnaSeq = "ACGT".parse().unwrap();
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.revcomp().to_string(), "ACGT");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct DnaSeq {
    codes: Vec<u8>,
}

impl DnaSeq {
    /// Creates an empty sequence.
    pub fn new() -> DnaSeq {
        DnaSeq { codes: Vec::new() }
    }

    /// Creates an empty sequence with the given capacity.
    pub fn with_capacity(cap: usize) -> DnaSeq {
        DnaSeq {
            codes: Vec::with_capacity(cap),
        }
    }

    /// Builds a sequence from raw 2-bit codes.
    ///
    /// # Panics
    ///
    /// Panics if any code is greater than 3.
    pub fn from_codes(codes: Vec<u8>) -> DnaSeq {
        assert!(codes.iter().all(|&c| c < 4), "DnaSeq codes must be in 0..4");
        DnaSeq { codes }
    }

    /// The raw 2-bit codes, one per byte.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The base at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        Base::from_code(self.codes[i]).expect("invariant: codes are valid")
    }

    /// The 2-bit code at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        self.codes[i]
    }

    /// Appends a base.
    pub fn push(&mut self, b: Base) {
        self.codes.push(b.code());
    }

    /// Appends all bases of `other`.
    pub fn extend_from_seq(&mut self, other: &DnaSeq) {
        self.codes.extend_from_slice(&other.codes);
    }

    /// A sub-sequence `[start, end)` as a new owned sequence.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len`.
    pub fn subseq(&self, start: usize, end: usize) -> DnaSeq {
        DnaSeq {
            codes: self.codes[start..end].to_vec(),
        }
    }

    /// The reverse complement.
    pub fn revcomp(&self) -> DnaSeq {
        DnaSeq {
            codes: self.codes.iter().rev().map(|&c| 3 - c).collect(),
        }
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        self.codes
            .iter()
            .map(|&c| Base::from_code(c).expect("invariant: codes are valid"))
    }

    /// GC fraction of the sequence (0.0 for an empty sequence).
    pub fn gc_content(&self) -> f64 {
        if self.codes.is_empty() {
            return 0.0;
        }
        let gc = self
            .codes
            .iter()
            .filter(|&&c| c == Base::C.code() || c == Base::G.code())
            .count();
        gc as f64 / self.codes.len() as f64
    }
}

impl Index<usize> for DnaSeq {
    type Output = u8;

    fn index(&self, i: usize) -> &u8 {
        &self.codes[i]
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> DnaSeq {
        DnaSeq {
            codes: iter.into_iter().map(|b| b.code()).collect(),
        }
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.codes.extend(iter.into_iter().map(|b| b.code()));
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = ParseDnaError;

    fn from_str(s: &str) -> Result<DnaSeq, ParseDnaError> {
        s.chars()
            .enumerate()
            .map(|(i, c)| Base::from_char(c).ok_or(ParseDnaError { position: i, ch: c }))
            .collect::<Result<DnaSeq, _>>()
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 64 {
            write!(f, "DnaSeq(\"{self}\")")
        } else {
            write!(f, "DnaSeq(len={}, \"{}…\")", self.len(), self.subseq(0, 32))
        }
    }
}

/// Error from parsing a DNA string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseDnaError {
    /// Byte offset of the offending character.
    pub position: usize,
    /// The offending character.
    pub ch: char,
}

impl fmt::Display for ParseDnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid DNA character {:?} at position {}",
            self.ch, self.position
        )
    }
}

impl std::error::Error for ParseDnaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let s: DnaSeq = "ACGTTGCA".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTTGCA");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn parse_rejects_invalid() {
        let err = "ACGN".parse::<DnaSeq>().unwrap_err();
        assert_eq!(err.position, 3);
        assert_eq!(err.ch, 'N');
        assert!(err.to_string().contains("position 3"));
    }

    #[test]
    fn revcomp_double_is_identity() {
        let s: DnaSeq = "ACGTTGCAAT".parse().unwrap();
        assert_eq!(s.revcomp().revcomp(), s);
    }

    #[test]
    fn revcomp_known_value() {
        let s: DnaSeq = "AACG".parse().unwrap();
        assert_eq!(s.revcomp().to_string(), "CGTT");
    }

    #[test]
    fn subseq_and_index() {
        let s: DnaSeq = "ACGTAC".parse().unwrap();
        assert_eq!(s.subseq(1, 4).to_string(), "CGT");
        assert_eq!(s[2], Base::G.code());
        assert_eq!(s.base(3), Base::T);
    }

    #[test]
    fn gc_content() {
        let s: DnaSeq = "GGCC".parse().unwrap();
        assert_eq!(s.gc_content(), 1.0);
        let s: DnaSeq = "AATT".parse().unwrap();
        assert_eq!(s.gc_content(), 0.0);
        let s: DnaSeq = "ACGT".parse().unwrap();
        assert_eq!(s.gc_content(), 0.5);
        assert_eq!(DnaSeq::new().gc_content(), 0.0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: DnaSeq = [Base::A, Base::C].into_iter().collect();
        s.extend([Base::G, Base::T]);
        assert_eq!(s.to_string(), "ACGT");
    }

    #[test]
    #[should_panic(expected = "codes must be in 0..4")]
    fn from_codes_validates() {
        let _ = DnaSeq::from_codes(vec![0, 1, 9]);
    }
}
