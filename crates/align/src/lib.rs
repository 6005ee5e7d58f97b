//! Alignment substrate for the NvWa reproduction.
//!
//! The paper's extension units (EUs) and the CPU baseline both execute the
//! standard BWA-MEM seed-and-extend algorithms; this crate implements them
//! from scratch:
//!
//! * [`scoring`] — substitution/affine-gap scoring schemes (BWA-MEM default).
//! * [`cigar`] — alignment edit transcripts.
//! * [`sw`] — full affine-gap Smith-Waterman, local and extension
//!   (anchored) variants, with traceback.
//! * [`banded`] — banded extension alignment (the matrix-fill workload the
//!   systolic-array EUs execute).
//! * [`chain`] — seed filtering and chaining (pipeline Step-❷).
//! * [`gact`] — Darwin's GACT tiling for arbitrary-length (long-read)
//!   extension with constant memory.
//! * [`pipeline`] — the end-to-end software aligner; it also emits the
//!   per-read *workload profile* (memory-access trace + extension tasks)
//!   that drives the execution-driven hardware simulation.
//! * [`myers`] — Myers bit-parallel edit distance (the GenASM/Bitap
//!   algorithm family), single-word and multi-word banded variants with
//!   traceback — the extension unit the short-read hot path uses.
//! * [`kernel`] — the extension-kernel seam: [`kernel::KernelPolicy`]
//!   selects bit-parallel vs banded-SW per read and adapts the edit
//!   script to the affine scoring surface.
//! * [`long_read`] — the *seed-and-chain-then-fill* long-read pipeline of
//!   the paper's Sec. VI (minimizer seeding + chaining + GACT fill).
//! * [`sam`] — minimal SAM output.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod banded;
pub mod chain;
pub mod cigar;
pub mod gact;
pub mod kernel;
pub mod long_read;
pub mod myers;
pub mod pipeline;
pub mod sam;
pub mod scoring;
pub mod sw;

pub use cigar::{Cigar, CigarOp};
pub use kernel::KernelPolicy;
pub use pipeline::{AlignScratch, AlignerConfig, Alignment, AlignmentOutcome, SoftwareAligner};
pub use scoring::Scoring;
pub use sw::DpScratch;
