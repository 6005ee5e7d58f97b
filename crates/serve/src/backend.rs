//! Batch execution backends.
//!
//! * [`BackendKind::Software`] — the production path: every read in the
//!   batch runs through the `nvwa-align` software aligner. Results are
//!   bit-identical to the offline `nvwa align` output for the same
//!   sequence — batching and worker scheduling affect *when* a read is
//!   aligned, never *what* it aligns to.
//! * [`BackendKind::HardwareInLoop`] — the same functional path, plus the
//!   formed batch is replayed through the cycle-accurate `nvwa-core`
//!   accelerator model as one workload. The server then doubles as an
//!   online workload driver for the scheduler study: batches shaped by
//!   real arrival processes (Poisson, bursts, backpressure) hit the
//!   Coordinator instead of the offline corpus, and each response carries
//!   the batch's simulated cycle count.

use nvwa_align::pipeline::{
    AlignScratch, AlignerConfig, Alignment, ReferenceIndex, SoftwareAligner,
};
use nvwa_core::config::NvwaConfig;
use nvwa_core::system::simulate;
use nvwa_core::units::workload::ReadWork;

/// Which backend executes formed batches.
#[derive(Debug, Clone)]
pub enum BackendKind {
    /// Software aligner only.
    Software,
    /// Software aligner + cycle-accurate accelerator replay per batch.
    HardwareInLoop(NvwaConfig),
}

impl BackendKind {
    /// The default hardware-in-the-loop configuration: the test-scale
    /// accelerator, so per-batch simulation stays cheap relative to the
    /// alignment work itself.
    pub fn hil_default() -> BackendKind {
        BackendKind::HardwareInLoop(NvwaConfig::small_test())
    }
}

/// The result of executing one batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request results in batch order: `(request id, best alignment)`.
    pub results: Vec<(u64, Option<Alignment>)>,
    /// Simulated accelerator cycles for the whole batch
    /// (hardware-in-the-loop only).
    pub sim_cycles: Option<u64>,
}

/// Executes one batch of `(request id, read codes)` pairs over the
/// caller's (per-worker) scratch, so a long-lived worker allocates nothing
/// per read at steady state.
///
/// Reads inside a batch run sequentially — parallelism lives in the
/// worker pool, one batch per worker — and each read is aligned exactly
/// as the offline pipeline would align it.
///
/// The software backend takes the fast path (k-mer prefix LUT + occ-block
/// cache, no trace) — responses carry no seeding trace, so recording one
/// would be pure overhead. Hardware-in-the-loop runs the trace-recording
/// path: the replayed accelerator model consumes each read's FM-index
/// memory-access trace.
pub fn execute_batch_with(
    index: &ReferenceIndex,
    aligner_config: &AlignerConfig,
    backend: &BackendKind,
    items: &[(u64, Vec<u8>)],
    scratch: &mut AlignScratch,
) -> BatchOutcome {
    let aligner = SoftwareAligner::new(index, *aligner_config);
    let mut results = Vec::with_capacity(items.len());
    let mut works: Vec<ReadWork> = Vec::new();
    let wants_sim = matches!(backend, BackendKind::HardwareInLoop(_));
    for (id, codes) in items {
        let outcome = if wants_sim {
            let outcome = aligner.align_codes_with(*id, codes, scratch);
            works.push(ReadWork::from_outcome(*id, &outcome));
            outcome
        } else {
            aligner.align_codes_fast(*id, codes, scratch)
        };
        results.push((*id, outcome.alignment));
    }
    let sim_cycles = match backend {
        BackendKind::Software => None,
        BackendKind::HardwareInLoop(config) if !works.is_empty() => {
            Some(simulate(config, &works).total_cycles)
        }
        BackendKind::HardwareInLoop(_) => Some(0),
    };
    BatchOutcome {
        results,
        sim_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvwa_genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};

    fn setup() -> (ReferenceGenome, ReferenceIndex) {
        let genome = ReferenceGenome::synthesize(&ReferenceParams::small_test(), 5);
        let index = ReferenceIndex::build(&genome, 32);
        (genome, index)
    }

    #[test]
    fn software_backend_matches_offline_aligner_bit_for_bit() {
        let (genome, index) = setup();
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 9);
        let reads = sim.simulate_reads(12);
        let items: Vec<(u64, Vec<u8>)> = reads
            .iter()
            .map(|r| (r.id, r.seq.codes().to_vec()))
            .collect();
        let config = AlignerConfig::default();
        let scratch = &mut AlignScratch::new();
        let outcome = execute_batch_with(&index, &config, &BackendKind::Software, &items, scratch);
        assert!(outcome.sim_cycles.is_none());
        let offline = SoftwareAligner::new(&index, config);
        for (read, (id, alignment)) in reads.iter().zip(&outcome.results) {
            assert_eq!(*id, read.id);
            assert_eq!(*alignment, offline.align_read(read).alignment);
        }
    }

    #[test]
    fn hil_backend_reports_cycles_without_changing_results() {
        let (genome, index) = setup();
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 17);
        let reads = sim.simulate_reads(8);
        let items: Vec<(u64, Vec<u8>)> = reads
            .iter()
            .map(|r| (r.id, r.seq.codes().to_vec()))
            .collect();
        let config = AlignerConfig::default();
        let scratch = &mut AlignScratch::new();
        let sw = execute_batch_with(&index, &config, &BackendKind::Software, &items, scratch);
        let hil = execute_batch_with(
            &index,
            &config,
            &BackendKind::hil_default(),
            &items,
            scratch,
        );
        assert_eq!(sw.results, hil.results, "HIL must not perturb results");
        assert!(hil.sim_cycles.unwrap() > 0);
    }
}
