//! Synthetic reference genome generation.
//!
//! The paper evaluates against GRCh38 (chromosomes 1–22, X, Y). A real 3 Gbp
//! assembly is unavailable offline, so we synthesize references whose two
//! properties that matter to the accelerator are controllable:
//!
//! 1. **Repeat structure** — repeat families copied (with mutations) across
//!    the genome create multi-hit seeds and the *variable* seeding termination
//!    times behind Challenge-① of the paper.
//! 2. **GC bias** — skewed base composition shortens FM-index intervals at
//!    different rates, adding further per-read diversity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::base::Base;
use crate::sequence::DnaSeq;

/// Parameters controlling reference synthesis.
///
/// # Examples
///
/// ```
/// use nvwa_genome::{ReferenceGenome, ReferenceParams};
/// let params = ReferenceParams { total_len: 50_000, chromosomes: 2, ..ReferenceParams::default() };
/// let genome = ReferenceGenome::synthesize(&params, 1);
/// assert_eq!(genome.chromosomes().len(), 2);
/// assert_eq!(genome.total_len(), 50_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceParams {
    /// Total bases across all chromosomes.
    pub total_len: usize,
    /// Number of chromosomes; `total_len` is split evenly between them.
    pub chromosomes: usize,
    /// Target GC fraction in `[0, 1]`.
    pub gc_content: f64,
    /// Fraction of the genome covered by repeat-family copies.
    pub repeat_fraction: f64,
    /// Length of each repeat unit.
    pub repeat_unit_len: usize,
    /// Number of distinct repeat families.
    pub repeat_families: usize,
    /// Per-base mutation rate applied to each repeat copy (divergence).
    pub repeat_divergence: f64,
}

impl Default for ReferenceParams {
    fn default() -> ReferenceParams {
        ReferenceParams {
            total_len: 1_000_000,
            chromosomes: 4,
            gc_content: 0.41, // human-like
            repeat_fraction: 0.30,
            repeat_unit_len: 300,
            repeat_families: 16,
            repeat_divergence: 0.04,
        }
    }
}

impl ReferenceParams {
    /// A small configuration suitable for unit tests (20 kbp, 1 chromosome).
    pub fn small_test() -> ReferenceParams {
        ReferenceParams {
            total_len: 20_000,
            chromosomes: 1,
            repeat_families: 4,
            ..ReferenceParams::default()
        }
    }

    /// The default evaluation-scale configuration
    /// (a scaled-down stand-in for GRCh38; 8 Mbp, 24 chromosomes).
    pub fn evaluation() -> ReferenceParams {
        ReferenceParams {
            total_len: 8_000_000,
            chromosomes: 24,
            ..ReferenceParams::default()
        }
    }
}

/// A named chromosome of a [`ReferenceGenome`].
#[derive(Debug, Clone, PartialEq)]
pub struct Chromosome {
    /// Chromosome name (e.g. `"chr1"`).
    pub name: String,
    /// The sequence.
    pub seq: DnaSeq,
}

/// A synthetic reference genome: named chromosomes plus a flattened view.
///
/// The flattened sequence (chromosomes concatenated in order) is what the
/// index crate builds its FM-index over; [`ReferenceGenome::locate`] maps a
/// flat offset back to `(chromosome, offset)` coordinates the way a real
/// aligner reports positions.
#[derive(Debug, Clone)]
pub struct ReferenceGenome {
    name: String,
    chromosomes: Vec<Chromosome>,
    flat: DnaSeq,
    starts: Vec<usize>,
}

impl ReferenceGenome {
    /// Synthesizes a genome from `params` with the given RNG seed.
    ///
    /// Generation is deterministic in `(params, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `params.chromosomes == 0` or `params.total_len == 0`.
    pub fn synthesize(params: &ReferenceParams, seed: u64) -> ReferenceGenome {
        assert!(params.chromosomes > 0, "need at least one chromosome");
        assert!(params.total_len > 0, "genome must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);

        // Pre-generate the repeat family units from the same composition.
        let families: Vec<DnaSeq> = (0..params.repeat_families.max(1))
            .map(|_| random_seq(&mut rng, params.repeat_unit_len.max(1), params.gc_content))
            .collect();

        let per_chrom = params.total_len / params.chromosomes;
        let remainder = params.total_len % params.chromosomes;
        let mut chromosomes = Vec::with_capacity(params.chromosomes);
        for c in 0..params.chromosomes {
            let len = per_chrom + usize::from(c < remainder);
            let mut seq = DnaSeq::with_capacity(len);
            while seq.len() < len {
                let remaining = len - seq.len();
                let place_repeat = params.repeat_fraction > 0.0
                    && remaining >= params.repeat_unit_len
                    && rng.gen_bool(
                        (params.repeat_fraction / (1.0 - params.repeat_fraction).max(1e-9))
                            .min(1.0),
                    );
                if place_repeat {
                    let fam = &families[rng.gen_range(0..families.len())];
                    append_mutated(&mut seq, fam, params.repeat_divergence, &mut rng);
                } else {
                    // A stretch of unique sequence between repeat insertions.
                    let stretch = remaining.min(params.repeat_unit_len.max(64));
                    let unique = random_seq(&mut rng, stretch, params.gc_content);
                    seq.extend_from_seq(&unique);
                }
            }
            let seq = seq.subseq(0, len);
            chromosomes.push(Chromosome {
                name: format!("chr{}", c + 1),
                seq,
            });
        }
        ReferenceGenome::from_chromosomes("synthetic", chromosomes)
    }

    /// Builds a genome from pre-made chromosomes.
    ///
    /// # Panics
    ///
    /// Panics if `chromosomes` is empty or any chromosome is empty.
    pub fn from_chromosomes(
        name: impl Into<String>,
        chromosomes: Vec<Chromosome>,
    ) -> ReferenceGenome {
        assert!(!chromosomes.is_empty(), "need at least one chromosome");
        let mut flat = DnaSeq::with_capacity(chromosomes.iter().map(|c| c.seq.len()).sum());
        let mut starts = Vec::with_capacity(chromosomes.len());
        for c in &chromosomes {
            assert!(!c.seq.is_empty(), "chromosome {} is empty", c.name);
            starts.push(flat.len());
            flat.extend_from_seq(&c.seq);
        }
        ReferenceGenome {
            name: name.into(),
            chromosomes,
            flat,
            starts,
        }
    }

    /// The genome's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chromosomes in order.
    pub fn chromosomes(&self) -> &[Chromosome] {
        &self.chromosomes
    }

    /// The flattened (concatenated) sequence.
    pub fn flat(&self) -> &DnaSeq {
        &self.flat
    }

    /// Total length in bases.
    pub fn total_len(&self) -> usize {
        self.flat.len()
    }

    /// Maps a flat offset to `(chromosome_index, offset_within_chromosome)`.
    ///
    /// # Panics
    ///
    /// Panics if `flat_pos >= total_len()`.
    pub fn locate(&self, flat_pos: usize) -> (usize, usize) {
        assert!(flat_pos < self.flat.len(), "position out of range");
        let idx = match self.starts.binary_search(&flat_pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (idx, flat_pos - self.starts[idx])
    }
}

/// Generates a random sequence with the given GC fraction.
fn random_seq(rng: &mut StdRng, len: usize, gc: f64) -> DnaSeq {
    let mut seq = DnaSeq::with_capacity(len);
    for _ in 0..len {
        let b = if rng.gen_bool(gc.clamp(0.0, 1.0)) {
            if rng.gen_bool(0.5) {
                Base::G
            } else {
                Base::C
            }
        } else if rng.gen_bool(0.5) {
            Base::A
        } else {
            Base::T
        };
        seq.push(b);
    }
    seq
}

/// Appends `unit` to `seq` with per-base mutations at rate `divergence`.
fn append_mutated(seq: &mut DnaSeq, unit: &DnaSeq, divergence: f64, rng: &mut StdRng) {
    for b in unit.iter() {
        if divergence > 0.0 && rng.gen_bool(divergence.clamp(0.0, 1.0)) {
            // Substitute with one of the three other bases.
            let shift = rng.gen_range(1..4u8);
            let code = (b.code() + shift) % 4;
            seq.push(Base::from_code(code).expect("code in range"));
        } else {
            seq.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_is_deterministic() {
        let p = ReferenceParams::small_test();
        let a = ReferenceGenome::synthesize(&p, 9);
        let b = ReferenceGenome::synthesize(&p, 9);
        assert_eq!(a.flat(), b.flat());
        let c = ReferenceGenome::synthesize(&p, 10);
        assert_ne!(a.flat(), c.flat());
    }

    #[test]
    fn total_length_matches_params() {
        let p = ReferenceParams {
            total_len: 10_001,
            chromosomes: 3,
            ..ReferenceParams::default()
        };
        let g = ReferenceGenome::synthesize(&p, 1);
        assert_eq!(g.total_len(), 10_001);
        assert_eq!(g.chromosomes().len(), 3);
        let lens: Vec<usize> = g.chromosomes().iter().map(|c| c.seq.len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 10_001);
        // Even split with remainder on the first chromosomes.
        assert_eq!(lens, vec![3334, 3334, 3333]);
    }

    #[test]
    fn gc_content_is_respected() {
        let p = ReferenceParams {
            total_len: 200_000,
            chromosomes: 1,
            gc_content: 0.6,
            repeat_fraction: 0.0,
            ..ReferenceParams::default()
        };
        let g = ReferenceGenome::synthesize(&p, 3);
        let gc = g.flat().gc_content();
        assert!((gc - 0.6).abs() < 0.01, "gc {gc} too far from 0.6");
    }

    #[test]
    fn locate_round_trips() {
        let p = ReferenceParams {
            total_len: 9_000,
            chromosomes: 3,
            ..ReferenceParams::default()
        };
        let g = ReferenceGenome::synthesize(&p, 5);
        for pos in [0usize, 1, 2999, 3000, 5999, 6000, 8999] {
            let (ci, off) = g.locate(pos);
            let start: usize = g.chromosomes()[..ci].iter().map(|c| c.seq.len()).sum();
            assert_eq!(start + off, pos);
            assert!(off < g.chromosomes()[ci].seq.len());
            // The base at the flat position equals the base in the chromosome.
            assert_eq!(g.flat().code(pos), g.chromosomes()[ci].seq.code(off));
        }
    }

    #[test]
    fn repeats_create_duplicate_kmers() {
        // With heavy repeat content, some 32-mers must occur more than once.
        let p = ReferenceParams {
            total_len: 100_000,
            chromosomes: 1,
            repeat_fraction: 0.5,
            repeat_divergence: 0.0,
            repeat_families: 2,
            ..ReferenceParams::default()
        };
        let g = ReferenceGenome::synthesize(&p, 11);
        let flat = g.flat();
        let mut seen = std::collections::HashMap::new();
        let mut dup = false;
        for i in (0..flat.len() - 32).step_by(8) {
            let key: Vec<u8> = flat.codes()[i..i + 32].to_vec();
            if *seen.entry(key).and_modify(|c| *c += 1).or_insert(1) > 1 {
                dup = true;
                break;
            }
        }
        assert!(dup, "expected repeated 32-mers in a repeat-rich genome");
    }

    #[test]
    #[should_panic(expected = "at least one chromosome")]
    fn zero_chromosomes_panics() {
        let p = ReferenceParams {
            chromosomes: 0,
            ..ReferenceParams::default()
        };
        let _ = ReferenceGenome::synthesize(&p, 0);
    }
}
