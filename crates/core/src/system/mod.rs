//! The full-system NvWa simulator (Fig. 4 wired together).
//!
//! [`simulator::simulate`] runs a workload through the complete accelerator
//! model — Seeding Scheduler feeding 128 SUs, Coordinator buffering and
//! allocating hits, Extension Scheduler driving the hybrid EU pool — with
//! each of the three mechanisms independently switchable for the Fig. 11
//! ablations. [`NvwaSystem`] is the end-to-end faithful path: it aligns
//! real reads with the software pipeline (producing both the functional
//! results and the hardware workload) and then simulates the timing.

pub mod report;
pub mod simulator;

use nvwa_align::pipeline::{AlignerConfig, Alignment, ReferenceIndex, SoftwareAligner};
use nvwa_genome::reads::Read;
use nvwa_genome::reference::ReferenceGenome;

use crate::config::NvwaConfig;
use crate::units::workload::{build_workload, ReadWork};

pub use report::SimReport;
pub use simulator::{simulate, simulate_instrumented, SimOptions, SimRun};

/// The end-to-end NvWa system: index + software pipeline + hardware model.
#[derive(Debug)]
pub struct NvwaSystem {
    index: ReferenceIndex,
    config: NvwaConfig,
}

impl NvwaSystem {
    /// Builds the system over a reference genome.
    pub fn build(genome: &ReferenceGenome, config: &NvwaConfig) -> NvwaSystem {
        config.validate();
        NvwaSystem {
            index: ReferenceIndex::build(genome, 32),
            config: config.clone(),
        }
    }

    /// The reference index (exposed for functional cross-checks).
    pub fn index(&self) -> &ReferenceIndex {
        &self.index
    }

    /// The hardware configuration.
    pub fn config(&self) -> &NvwaConfig {
        &self.config
    }

    /// Aligns `reads` (software functional path) and simulates the
    /// accelerator on the resulting workload.
    pub fn run(&self, reads: &[Read]) -> SimReport {
        self.run_detailed(reads).0
    }

    /// Like [`run`], additionally returning the per-read alignments — which
    /// are byte-identical to the software aligner's, reproducing the
    /// paper's "no loss of accuracy" property.
    ///
    /// [`run`]: NvwaSystem::run
    pub fn run_detailed(&self, reads: &[Read]) -> (SimReport, Vec<Option<Alignment>>) {
        let aligner = SoftwareAligner::new(&self.index, AlignerConfig::default());
        // Per-read alignment in parallel, read order preserved; the timing
        // simulation itself stays single-threaded (cycle-accuracy).
        let outcomes = nvwa_sim::par::par_map(reads, |read| {
            let outcome = aligner.align_read(read);
            (ReadWork::from_outcome(read.id, &outcome), outcome.alignment)
        });
        let mut works = Vec::with_capacity(reads.len());
        let mut alignments = Vec::with_capacity(reads.len());
        for (work, alignment) in outcomes {
            works.push(work);
            alignments.push(alignment);
        }
        (simulate(&self.config, &works), alignments)
    }

    /// Builds the per-read hardware workload without simulating.
    pub fn workload(&self, reads: &[Read]) -> Vec<ReadWork> {
        let aligner = SoftwareAligner::new(&self.index, AlignerConfig::default());
        build_workload(&aligner, reads)
    }
}
