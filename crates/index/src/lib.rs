//! Index substrates for the NvWa reproduction.
//!
//! The paper's seeding units (SUs) implement a *bitwise, vectorized FM-index
//! search* (the LFMapBit design of Wang et al., checkpoint interval 128).
//! This crate provides it, built from scratch:
//!
//! * [`suffix_array`] — O(n log n) prefix-doubling suffix array construction.
//! * [`bwt`] — Burrows-Wheeler transform derived from the suffix array.
//! * [`fm_index`] — bit-packed FM-index with occ checkpoints every 128
//!   symbols (one checkpoint block ≈ one memory beat, which is the unit of
//!   the hardware memory-access trace).
//! * [`fmd_index`] — bidirectional FMD-index over `S · revcomp(S)`, the
//!   structure BWA-MEM uses for SMEM search.
//! * [`smem`] — supermaximal exact match (SMEM) collection, faithful to
//!   BWA-MEM's greedy forward/backward algorithm.
//! * [`sampled_sa`] — sampled suffix array for locating hits (each locate
//!   walk contributes the paper's "2 + P" style memory accesses).
//! * [`minimizer`] — minimap2-style `(w, k)` minimizer sampling and index
//!   for the long-read *seed-and-chain-then-fill* pipeline (paper Sec. VI).
//! * [`trace`] — memory-access trace sinks that the execution-driven timing
//!   model consumes.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod bwt;
pub mod fm_index;
pub mod fmd_index;
pub mod minimizer;
pub mod sampled_sa;
pub mod smem;
pub mod suffix_array;
pub mod trace;

pub use fm_index::{FmIndex, OccCache};
pub use fmd_index::{BiInterval, FmdIndex, PrefixLut};
pub use smem::{Smem, SmemConfig, SmemScratch};
pub use trace::{CountTrace, MemAddr, NullTrace, TraceSink, VecTrace};

/// The rank kernel the seeding hot path runs on this CPU: `"popcnt"` (the
/// hardware instruction, detected at run time) or `"portable"`.
pub fn rank_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        return "popcnt";
    }
    "portable"
}
