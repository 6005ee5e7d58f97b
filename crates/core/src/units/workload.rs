//! Workload descriptors bridging the software pipeline and the hardware
//! timing model.

use nvwa_align::pipeline::{AlignScratch, AlignmentOutcome, SeedTrace, SoftwareAligner};
use nvwa_genome::distribution::LengthHistogram;
use nvwa_genome::reads::Read;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::interface::Hit;

/// The hardware-visible work of one read: the seeding unit's dependent
/// memory-access chain and the extension tasks (hits) it emits.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadWork {
    /// Read index.
    pub read_id: u64,
    /// Block addresses touched by the FM-index search, in dependence order.
    pub seeding_accesses: Vec<u64>,
    /// Hits produced by seeding, to be extended by EUs.
    pub hits: Vec<Hit>,
}

impl ReadWork {
    /// Builds the descriptor from a software-aligner outcome.
    pub fn from_outcome(read_id: u64, outcome: &AlignmentOutcome) -> ReadWork {
        ReadWork {
            read_id,
            seeding_accesses: outcome.profile.seeding_trace.iter().map(|a| a.0).collect(),
            hits: outcome
                .profile
                .hit_tasks
                .iter()
                .filter(|t| t.query_len > 0)
                .map(|t| Hit {
                    read_idx: t.read_id,
                    hit_idx: t.hit_idx,
                    direction: t.is_rc,
                    read_pos: t.read_pos,
                    ref_pos: t.ref_pos,
                    query_len: t.query_len,
                    ref_len: t.ref_len,
                })
                .collect(),
        }
    }
}

/// Aligns `reads` under [`SeedTrace::Record`] (the simulator replays the
/// seeding trace) in parallel, one [`AlignScratch`] per worker, and maps each
/// read's outcome through `f`; results land in read order at any thread count.
pub fn align_traced<R: Send>(
    aligner: &SoftwareAligner<'_>,
    reads: &[Read],
    f: impl Fn(&Read, AlignmentOutcome) -> R + Sync,
) -> Vec<R> {
    let init = || (AlignScratch::new(), Vec::with_capacity(1));
    nvwa_sim::par::par_map_with(reads, init, |(scratch, out), read| {
        let batch = [(read.id, read.seq.codes())];
        aligner.align_batch(batch, scratch, SeedTrace::Record, out);
        f(read, out.pop().expect("one outcome per read"))
    })
}

/// The per-read hardware workloads of `reads` ([`align_traced`]).
pub fn build_workload(aligner: &SoftwareAligner<'_>, reads: &[Read]) -> Vec<ReadWork> {
    align_traced(aligner, reads, |r, o| ReadWork::from_outcome(r.id, &o))
}

/// Interval masses of the hit lengths in a workload, over the given
/// interval upper bounds (Fig. 12e / Fig. 14b).
pub fn hit_length_masses(works: &[ReadWork], bounds: &[usize]) -> Vec<f64> {
    let hist: LengthHistogram = works
        .iter()
        .flat_map(|w| w.hits.iter().map(|h| h.hit_len() as usize))
        .collect();
    hist.interval_masses(bounds)
}

/// Parameters of the calibrated synthetic workload generator.
///
/// Used for large parameter sweeps where re-running the software aligner
/// per configuration would dominate; the defaults are calibrated so the
/// hit-length interval masses match [`crate::extension::NA12878_INTERVAL_MASSES`]
/// and the seeding access counts match measured profiles of 101 bp reads.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticWorkloadParams {
    /// Number of reads.
    pub reads: usize,
    /// Mean FM-index block accesses per read.
    pub mean_accesses: f64,
    /// Dispersion of the access count (1.0 ≈ heavy diversity; this is what
    /// makes seeding termination times diverge, Challenge-①).
    pub access_dispersion: f64,
    /// Mean hits per read.
    pub mean_hits: f64,
    /// Hit-length interval upper bounds.
    pub interval_bounds: Vec<usize>,
    /// Probability mass of each interval.
    pub interval_masses: Vec<f64>,
    /// Number of distinct index blocks addressable (footprint of the
    /// FM-index; addresses are drawn from it with a hot-set skew).
    pub address_space: u64,
    /// Fraction of accesses landing in the hot set (the top levels of the
    /// FM search tree, resident in the SU table SRAM).
    pub hot_fraction: f64,
    /// Size of the hot set in blocks (must fit the SU cache for the
    /// paper's SRAM-resident top levels).
    pub hot_blocks: u64,
}

impl Default for SyntheticWorkloadParams {
    fn default() -> SyntheticWorkloadParams {
        SyntheticWorkloadParams {
            reads: 4000,
            mean_accesses: 140.0,
            access_dispersion: 0.8,
            mean_hits: 8.0,
            interval_bounds: vec![16, 32, 64, 128],
            interval_masses: crate::extension::NA12878_INTERVAL_MASSES.to_vec(),
            address_space: 1 << 22,
            hot_fraction: 0.72,
            hot_blocks: 256,
        }
    }
}

impl SyntheticWorkloadParams {
    /// Generates the workload deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if bounds/masses are inconsistent.
    pub fn generate(&self, seed: u64) -> Vec<ReadWork> {
        assert_eq!(
            self.interval_bounds.len(),
            self.interval_masses.len(),
            "one mass per interval"
        );
        assert!(self.reads > 0, "need at least one read");
        let mass_sum: f64 = self.interval_masses.iter().sum();
        assert!(mass_sum > 0.0, "masses must be positive");
        let mut rng = StdRng::seed_from_u64(seed);

        (0..self.reads as u64)
            .map(|read_id| {
                // Access count: skewed positive distribution (mixture of a
                // base cost and a long tail), producing the per-read
                // execution-time diversity of Fig. 2.
                let u: f64 = rng.gen();
                let skew = 1.0 + self.access_dispersion * (u * u * 3.0 - 0.75);
                let n_acc = (self.mean_accesses * skew).max(8.0) as usize;
                let seeding_accesses = (0..n_acc)
                    .map(|_| {
                        // The top levels of the FM search tree are touched
                        // by every backward extension and live in the SU
                        // table SRAM; the deep levels are cold DRAM reads.
                        if rng.gen_bool(self.hot_fraction.clamp(0.0, 1.0)) {
                            rng.gen_range(0..self.hot_blocks.max(1))
                        } else {
                            rng.gen_range(0..self.address_space)
                        }
                    })
                    .collect();

                let n_hits = sample_count(&mut rng, self.mean_hits);
                let hits = (0..n_hits)
                    .map(|hit_idx| {
                        let len = self.sample_hit_len(&mut rng);
                        Hit {
                            read_idx: read_id,
                            hit_idx,
                            direction: rng.gen_bool(0.5),
                            read_pos: (0, len),
                            ref_pos: rng.gen_range(0..self.address_space),
                            query_len: len,
                            // The reference window carries a roughly
                            // constant margin (band + chain span slack, as
                            // in BWA's w=100 extension windows); this keeps
                            // per-hit occupancy comparable across classes,
                            // the regime Formula 5's provisioning assumes.
                            ref_len: len + rng.gen_range(150u32..=210),
                        }
                    })
                    .collect();
                ReadWork {
                    read_id,
                    seeding_accesses,
                    hits,
                }
            })
            .collect()
    }

    fn sample_hit_len(&self, rng: &mut StdRng) -> u32 {
        let mass_sum: f64 = self.interval_masses.iter().sum();
        let mut pick = rng.gen::<f64>() * mass_sum;
        let mut idx = self.interval_bounds.len() - 1;
        for (i, &m) in self.interval_masses.iter().enumerate() {
            if pick < m {
                idx = i;
                break;
            }
            pick -= m;
        }
        let hi = self.interval_bounds[idx] as u32;
        let lo = if idx == 0 {
            1
        } else {
            self.interval_bounds[idx - 1] as u32 + 1
        };
        rng.gen_range(lo..=hi)
    }
}

/// Samples a small count with the given mean (geometric-ish, at least 1).
fn sample_count(rng: &mut StdRng, mean: f64) -> u32 {
    let mut n = 1u32;
    while n < 64 && rng.gen_bool((1.0 - 1.0 / mean.max(1.0)).clamp(0.0, 0.99)) {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_masses_match_target() {
        let params = SyntheticWorkloadParams {
            reads: 20_000,
            ..SyntheticWorkloadParams::default()
        };
        let works = params.generate(1);
        let masses = hit_length_masses(&works, &params.interval_bounds);
        for (got, want) in masses.iter().zip(&params.interval_masses) {
            assert!(
                (got - want).abs() < 0.02,
                "interval mass {got} vs target {want}"
            );
        }
    }

    #[test]
    fn synthetic_access_counts_are_diverse() {
        let works = SyntheticWorkloadParams::default().generate(2);
        let counts: Vec<usize> = works.iter().map(|w| w.seeding_accesses.len()).collect();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max as f64 / min as f64 > 2.0,
            "diversity too low: {min}..{max}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let p = SyntheticWorkloadParams {
            reads: 100,
            ..SyntheticWorkloadParams::default()
        };
        assert_eq!(p.generate(7), p.generate(7));
        assert_ne!(p.generate(7), p.generate(8));
    }

    #[test]
    fn hit_lengths_respect_interval_bounds() {
        let p = SyntheticWorkloadParams {
            reads: 500,
            ..SyntheticWorkloadParams::default()
        };
        for w in p.generate(3) {
            for h in &w.hits {
                assert!(h.hit_len() >= 1 && h.hit_len() <= 128);
                assert!(h.ref_len >= h.query_len);
            }
        }
    }

    #[test]
    fn every_read_has_at_least_one_hit() {
        let p = SyntheticWorkloadParams {
            reads: 200,
            ..SyntheticWorkloadParams::default()
        };
        assert!(p.generate(4).iter().all(|w| !w.hits.is_empty()));
    }
}
