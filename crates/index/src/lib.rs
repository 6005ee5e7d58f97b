//! Index substrates for the NvWa reproduction.
//!
//! The paper's seeding units (SUs) implement a *bitwise, vectorized FM-index
//! search* (the LFMapBit design of Wang et al., checkpoint interval 128).
//! This crate provides it, built from scratch:
//!
//! * [`suffix_array`] — SA-IS suffix array construction: linear time, ≈ 0.2× its output in extra heap.
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

pub use fm_index::FmIndex;
pub use fmd_index::{BiInterval, FmdIndex, PrefixLut};
pub use smem::{Smem, SmemConfig, SmemScratch};
pub use trace::{CountTrace, MemAddr, NullTrace, TraceSink, VecTrace};

/// The instruction-set level a kernel runs at, each including those below:
/// `Popcnt` for the seeding rank, `Avx2` / `Avx512bw` for the tile fill's
/// 256- / 512-bit vectors. Each dispatching kernel matches on [`Isa::host`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    Baseline,
    Popcnt,
    Avx2,
    Avx512bw,
}

impl Isa {
    /// The highest level whose features, and every lower level's, this CPU
    /// reports (each check cached by `std`): no arm above it ever runs.
    pub fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx512 = has!("avx512f") && has!("avx512bw");
            let levels = [has!("popcnt"), has!("avx2"), avx512];
            let above_baseline = levels.iter().take_while(|&&l| l).count();
            [Isa::Baseline, Isa::Popcnt, Isa::Avx2, Isa::Avx512bw][above_baseline]
        }
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Baseline
    }

    /// The level's name as `nvwa` prints it: `baseline`, `popcnt`, `avx2`
    /// or `avx512bw`.
    pub fn name(self) -> &'static str {
        ["baseline", "popcnt", "avx2", "avx512bw"][self as usize]
    }
}
