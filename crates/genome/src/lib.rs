//! Sequence primitives, synthetic reference genomes and read simulation.
//!
//! This crate provides the genomics *data substrate* for the NvWa
//! reproduction. The paper evaluates on GRCh38 with NA12878 reads and
//! DWGSIM-simulated reads for five additional species; neither the reference
//! nor the read sets can be shipped here, so this crate synthesizes
//! statistically equivalent inputs:
//!
//! * [`base`] / [`sequence`] — the DNA alphabet and 2-bit packed sequences.
//! * [`mod@reference`] — synthetic reference genomes with repeat families and GC
//!   bias, so that seeding produces the multi-hit, variable-length seed
//!   structure that drives the paper's *diversity problem*.
//! * [`species`] — profiles for the six genomes of Fig. 14.
//! * [`reads`] — a DWGSIM-like read simulator (substitutions + indels) for
//!   short (101 bp) and long (≥ 1 kbp) reads.
//! * [`fasta`] — minimal FASTA/FASTQ serialization for the examples.
//! * [`distribution`] — histogram helpers used to derive hit-length
//!   distributions (input to the Hybrid Units Strategy, Formula 5).
//!
//! # Examples
//!
//! ```
//! use nvwa_genome::reference::{ReferenceGenome, ReferenceParams};
//! use nvwa_genome::reads::{ReadSimulator, ReadSimParams};
//!
//! let genome = ReferenceGenome::synthesize(&ReferenceParams::small_test(), 7);
//! let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 42);
//! let read = sim.simulate_read();
//! assert_eq!(read.seq.len(), 101);
//! ```

pub mod base;
pub mod distribution;
pub mod fasta;
pub mod reads;
pub mod reference;
pub mod sequence;
pub mod species;

pub use base::Base;
pub use reads::{Read, ReadSimParams, ReadSimulator};
pub use reference::{ReferenceGenome, ReferenceParams};
pub use sequence::DnaSeq;
