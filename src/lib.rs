//! # NvWa — hardware-scheduling sequence-alignment accelerator (HPCA 2023)
//!
//! Facade crate re-exporting the full NvWa reproduction workspace:
//!
//! * [`genome`] — synthetic references + read simulation (GRCh38/NA12878/DWGSIM substitute).
//! * [`index`] — suffix array, BWT, FM/FMD-index, SMEM search, minimizers.
//! * [`align`] — affine-gap Smith-Waterman, chaining, GACT, software aligner.
//! * [`sim`] — cycle-accurate event kernel, HBM model, the parallel map.
//! * [`telemetry`] — metrics registry, stall attribution, Chrome-trace
//!   export and the snapshot/validation tooling (DESIGN.md §8).
//! * [`core`] — the NvWa accelerator itself: Seeding Scheduler (One-Cycle Read
//!   Allocator), Extension Scheduler (Hybrid Units Strategy), Coordinator, the
//!   full-system simulator, area/power model and the experiment drivers that
//!   regenerate every table and figure of the paper.
//! * [`serve`] — the online serving subsystem: TCP front end, bounded
//!   admission with load-shedding, length-binned dynamic batching,
//!   deadlines, software and hardware-in-the-loop backends, and the
//!   open/closed-loop load generator (`nvwa serve` / `nvwa loadgen`).
//! * [`testkit`] — cross-layer correctness tooling: differential oracles
//!   with input minimization, simulator invariant checking, golden-file
//!   blessing and deterministic fault injection (`nvwa conformance`,
//!   DESIGN.md §11).
//!
//! # Quickstart
//!
//! ```
//! use nvwa::genome::{ReferenceGenome, ReferenceParams, ReadSimulator, ReadSimParams};
//! use nvwa::core::config::NvwaConfig;
//! use nvwa::core::system::NvwaSystem;
//!
//! // Synthesize a reference, index it, simulate reads, run the accelerator.
//! let genome = ReferenceGenome::synthesize(&ReferenceParams::small_test(), 1);
//! let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 2);
//! let reads = sim.simulate_reads(64);
//!
//! let config = NvwaConfig::small_test();
//! let report = NvwaSystem::build(&genome, &config).run(&reads);
//! assert!(report.total_cycles > 0);
//! ```

pub use nvwa_align as align;
pub use nvwa_core as core;
pub use nvwa_genome as genome;
pub use nvwa_index as index;
pub use nvwa_serve as serve;
pub use nvwa_sim as sim;
pub use nvwa_telemetry as telemetry;
pub use nvwa_testkit as testkit;
