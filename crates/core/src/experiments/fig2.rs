//! Fig. 2 — execution-time breakdown of the seeding and seed-extension
//! phases for individual reads.
//!
//! The paper profiles BWA-MEM over reads sampled from NA12878 and shows
//! that both the per-phase split and the total vary strongly read to read
//! (the *diversity problem*). We rerun the same experiment: align simulated
//! reads with the software pipeline, convert each read's operation counts
//! to CPU time with the calibrated cost model, and report the per-read
//! breakdown plus the 350–400 zoom window.

use std::fmt;

use nvwa_align::pipeline::{AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa_genome::reads::{ReadSimParams, ReadSimulator};
use nvwa_genome::reference::{ReferenceGenome, ReferenceParams};

use crate::baselines::{CPU_CYCLES_PER_DP_CELL, CPU_CYCLES_PER_OCC_ACCESS, CPU_FREQ_GHZ};
use crate::units::workload::align_traced;

use super::Scale;

/// One read's modeled phase times (µs on the baseline CPU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadBreakdown {
    /// Read id.
    pub read_id: u64,
    /// Seeding-phase time in µs.
    pub seeding_us: f64,
    /// Seed-extension-phase time in µs.
    pub extension_us: f64,
}

impl ReadBreakdown {
    /// Total time in µs.
    pub fn total_us(&self) -> f64 {
        self.seeding_us + self.extension_us
    }

    /// Seeding share of the total (0–1).
    pub fn seeding_fraction(&self) -> f64 {
        if self.total_us() == 0.0 {
            0.0
        } else {
            self.seeding_us / self.total_us()
        }
    }
}

/// The Fig. 2 result: per-read breakdowns plus diversity statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// Per-read phase breakdowns (Fig. 2a).
    pub reads: Vec<ReadBreakdown>,
    /// The zoom window bounds of Fig. 2b.
    pub zoom: (usize, usize),
}

impl Fig2 {
    /// The zoomed rows (Fig. 2b).
    pub fn zoom_rows(&self) -> &[ReadBreakdown] {
        let end = self.zoom.1.min(self.reads.len());
        let start = self.zoom.0.min(end);
        &self.reads[start..end]
    }

    /// Coefficient of variation of the total per-read time — the headline
    /// "diversity" number.
    pub fn total_time_cv(&self) -> f64 {
        cv(self.reads.iter().map(|r| r.total_us()))
    }

    /// Coefficient of variation of the seeding fraction.
    pub fn seeding_fraction_spread(&self) -> (f64, f64) {
        let fracs: Vec<f64> = self.reads.iter().map(|r| r.seeding_fraction()).collect();
        let min = fracs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = fracs.iter().copied().fold(0.0, f64::max);
        (min, max)
    }
}

fn cv(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
    var.sqrt() / mean
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 2 — per-read phase breakdown ({} reads)",
            self.reads.len()
        )?;
        writeln!(f, "  total-time CV: {:.2}", self.total_time_cv())?;
        let (lo, hi) = self.seeding_fraction_spread();
        writeln!(f, "  seeding fraction range: {:.2}–{:.2}", lo, hi)?;
        writeln!(f, "  zoom (reads {}..{}):", self.zoom.0, self.zoom.1)?;
        writeln!(f, "  read   seeding(us)  extension(us)  total(us)")?;
        for r in self.zoom_rows().iter().take(20) {
            writeln!(
                f,
                "  {:5}  {:11.1}  {:13.1}  {:9.1}",
                r.read_id,
                r.seeding_us,
                r.extension_us,
                r.total_us()
            )?;
        }
        Ok(())
    }
}

/// Runs the Fig. 2 experiment.
pub fn run(scale: Scale) -> Fig2 {
    let n_reads = scale.pick(120, 500);
    let genome_len = scale.pick(60_000, 2_000_000);
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: genome_len,
            chromosomes: 4,
            ..ReferenceParams::default()
        },
        0xf162,
    );
    let index = ReferenceIndex::build(&genome, 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 0x2f16);

    // Read simulation stays sequential (one RNG stream); the alignments
    // are independent and run in parallel, in read order.
    let simulated = sim.simulate_reads(n_reads);
    let reads = align_traced(&aligner, &simulated, |read, outcome| {
        let p = &outcome.profile;
        let seeding_cycles = p.seeding_trace.len() as f64 * CPU_CYCLES_PER_OCC_ACCESS;
        let extension_cycles = p.dp_cells as f64 * CPU_CYCLES_PER_DP_CELL;
        ReadBreakdown {
            read_id: read.id,
            seeding_us: seeding_cycles / (CPU_FREQ_GHZ * 1e3),
            extension_us: extension_cycles / (CPU_FREQ_GHZ * 1e3),
        }
    });
    Fig2 {
        reads,
        zoom: (scale.pick(50, 350), scale.pick(100, 400)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shows_diversity() {
        let fig = run(Scale::Quick);
        assert_eq!(fig.reads.len(), 120);
        // The diversity problem: per-read totals vary substantially.
        assert!(fig.total_time_cv() > 0.10, "CV {}", fig.total_time_cv());
        // And the phase split itself varies.
        let (lo, hi) = fig.seeding_fraction_spread();
        assert!(hi - lo > 0.15, "split range {lo}..{hi}");
    }

    #[test]
    fn both_phases_are_nonzero_for_mapped_reads() {
        let fig = run(Scale::Quick);
        let with_both = fig
            .reads
            .iter()
            .filter(|r| r.seeding_us > 0.0 && r.extension_us > 0.0)
            .count();
        assert!(with_both * 10 >= fig.reads.len() * 5);
    }

    #[test]
    fn display_renders() {
        let fig = run(Scale::Quick);
        let text = fig.to_string();
        assert!(text.contains("Fig. 2"));
        assert!(text.contains("seeding"));
    }
}
