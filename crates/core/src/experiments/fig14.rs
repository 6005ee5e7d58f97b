//! Fig. 14 — sensitivity to multiple datasets (six species, short and long
//! reads).
//!
//! For each species a reference is synthesized from its profile, reads are
//! simulated (DWGSIM substitute), the software pipeline builds the
//! execution-driven workload, and NvWa's speedup over the modeled CPU
//! baseline is measured. Long reads run through GACT tiling, so their
//! extension tasks are fixed-size tiles — a different hit-length profile,
//! which is exactly why the paper's long-read speedups differ.

use std::fmt;

use nvwa_align::long_read::{LongReadAligner, LongReadConfig, LongReadIndex};
use nvwa_align::pipeline::{AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa_genome::reads::{ReadSimParams, ReadSimulator};
use nvwa_genome::species::{Species, ALL_SPECIES};
use nvwa_index::minimizer::MinimizerParams;

use crate::baselines::cpu_kreads_per_sec;
use crate::config::NvwaConfig;
use crate::interface::Hit;
use crate::system::simulate;
use crate::units::workload::{build_workload, hit_length_masses, ReadWork};

use super::Scale;

/// One species' measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeciesResult {
    /// The species.
    pub species: Species,
    /// NvWa speedup over the modeled CPU for short reads.
    pub short_read_speedup: f64,
    /// NvWa speedup over the modeled CPU for long reads (GACT tiling).
    pub long_read_speedup: f64,
    /// Short-read hit-length interval masses (Fig. 14b).
    pub interval_masses: Vec<f64>,
}

/// The Fig. 14 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14 {
    /// Per-species results in the paper's order.
    pub species: Vec<SpeciesResult>,
}

impl Fig14 {
    /// Spread (max/min) of the short-read speedups — the paper's stability
    /// claim (285.6×–357× across species).
    pub fn short_speedup_spread(&self) -> f64 {
        let speedups: Vec<f64> = self.species.iter().map(|s| s.short_read_speedup).collect();
        let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        let max = speedups.iter().copied().fold(0.0, f64::max);
        max / min
    }
}

impl fmt::Display for Fig14 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 14(a) — speedup vs 16-thread CPU model, per species"
        )?;
        writeln!(f, "  species  short-read   long-read")?;
        for s in &self.species {
            writeln!(
                f,
                "  {:6}  {:10.1}x  {:9.1}x",
                s.species.label(),
                s.short_read_speedup,
                s.long_read_speedup
            )?;
        }
        writeln!(
            f,
            "  short-read spread (max/min): {:.2}x (paper: 357/285.6 = 1.25x)",
            self.short_speedup_spread()
        )?;
        writeln!(f, "Fig. 14(b) — hit distribution per interval (%)")?;
        writeln!(f, "  species   ≤16    ≤32    ≤64   ≤128")?;
        for s in &self.species {
            let row: Vec<String> = s
                .interval_masses
                .iter()
                .map(|m| format!("{:5.1}", m * 100.0))
                .collect();
            writeln!(f, "  {:6}  {}", s.species.label(), row.join("  "))?;
        }
        Ok(())
    }
}

/// Builds a long-read workload by running the real *seed-and-chain-then-
/// fill* pipeline: minimizer seeding + chaining + GACT fill. Each GACT
/// tile becomes one fixed-size EU task, and the minimizer table lookups
/// are the seeding-unit trace — both genuinely execution-driven.
fn long_read_workload(
    genome: &nvwa_genome::reference::ReferenceGenome,
    reads: usize,
    read_len: usize,
    seed: u64,
) -> Vec<ReadWork> {
    let index = LongReadIndex::build(genome.flat().codes().to_vec(), MinimizerParams::default());
    let config = LongReadConfig::default();
    let aligner = LongReadAligner::new(&index, config.clone());
    let tile = config.gact.tile_size as u32;
    let mut sim = ReadSimulator::new(genome, ReadSimParams::long_read(read_len), seed);
    (0..reads as u64)
        .map(|read_id| {
            let read = sim.simulate_read();
            match aligner.align(read.seq.codes()) {
                Some(a) => ReadWork {
                    read_id,
                    seeding_accesses: a.seeding_trace.iter().map(|m| m.0).collect(),
                    hits: (0..a.gact.tiles.max(1) as u32)
                        .map(|hit_idx| Hit {
                            read_idx: read_id,
                            hit_idx,
                            direction: a.is_rc,
                            read_pos: (0, tile),
                            ref_pos: a.ref_pos,
                            query_len: tile,
                            ref_len: tile,
                        })
                        .collect(),
                },
                None => ReadWork {
                    read_id,
                    seeding_accesses: vec![read.origin.flat_pos as u64 / 64],
                    hits: vec![Hit {
                        read_idx: read_id,
                        hit_idx: 0,
                        direction: false,
                        read_pos: (0, tile),
                        ref_pos: 0,
                        query_len: tile,
                        ref_len: tile,
                    }],
                },
            }
        })
        .collect()
}

fn speedup_for(works: &[ReadWork]) -> f64 {
    let report = simulate(&NvwaConfig::paper(), works);
    let mean_acc = works
        .iter()
        .map(|w| w.seeding_accesses.len() as f64)
        .sum::<f64>()
        / works.len() as f64;
    let mean_cells = works
        .iter()
        .flat_map(|w| w.hits.iter())
        .map(|h| h.query_len as f64 * h.ref_len as f64)
        .sum::<f64>()
        / works.len() as f64;
    let cpu_kreads = cpu_kreads_per_sec(mean_acc, mean_cells);
    report.kreads_per_sec().expect("non-empty simulation") / cpu_kreads
}

/// Runs the Fig. 14 experiment.
pub fn run(scale: Scale) -> Fig14 {
    let genome_scale = scale.pick(0.03, 0.25);
    let short_reads = scale.pick(80, 1_000);
    let long_reads = scale.pick(10, 100);

    // Species are fully independent (own genome, own seeded read streams),
    // so the whole per-species pipeline fans out; the inner build_workload
    // runs sequentially on its worker (nested par_map does not re-spawn).
    let species = nvwa_sim::par::par_map(&ALL_SPECIES, |&sp| {
        let genome = sp.synthesize(genome_scale);
        let index = ReferenceIndex::build(&genome, 32);
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 0x14 + sp as u64);
        let reads = sim.simulate_reads(short_reads);
        let works = build_workload(&aligner, &reads);
        let interval_masses = hit_length_masses(&works, &[16, 32, 64, 128]);
        let short_read_speedup = speedup_for(&works);

        let long_works = long_read_workload(&genome, long_reads, 2_000, 0x41 + sp as u64);
        let long_read_speedup = speedup_for(&long_works);
        SpeciesResult {
            species: sp,
            short_read_speedup,
            long_read_speedup,
            interval_masses,
        }
    });
    Fig14 { species }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_are_large_and_stable_across_species() {
        let fig = run(Scale::Quick);
        assert_eq!(fig.species.len(), 6);
        for s in &fig.species {
            assert!(
                s.short_read_speedup > 10.0,
                "{}: speedup {}",
                s.species.name(),
                s.short_read_speedup
            );
            assert!(s.long_read_speedup > 5.0);
        }
        // The paper's point: different second-generation datasets behave
        // similarly (their spread is 1.25×; allow a looser bound at our
        // tiny test scale).
        assert!(
            fig.short_speedup_spread() < 3.0,
            "spread {}",
            fig.short_speedup_spread()
        );
    }

    #[test]
    fn interval_masses_are_distributions() {
        let fig = run(Scale::Quick);
        for s in &fig.species {
            let sum: f64 = s.interval_masses.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9 || sum == 0.0,
                "{} masses sum {}",
                s.species.name(),
                sum
            );
        }
    }

    #[test]
    fn display_lists_all_species() {
        let text = run(Scale::Quick).to_string();
        for label in ["H. s.", "C. h.", "Z. h.", "C. d.", "V. e.", "C. e."] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
