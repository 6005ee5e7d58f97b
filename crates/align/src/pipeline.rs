//! The end-to-end software aligner (BWA-MEM-style seed-and-extend).
//!
//! This is simultaneously:
//!
//! 1. the functional reference the accelerator must match bit-for-bit
//!    ("faithful to the standard read alignment software ... no loss of
//!    accuracy", Sec. I), and
//! 2. the *workload generator* for the execution-driven hardware simulation:
//!    every read's alignment produces a [`ReadProfile`] containing the
//!    FM-index memory-access trace (seeding-unit workload) and the list of
//!    [`HitTask`]s with their DP dimensions (extension-unit workload).

use std::sync::Arc;

use nvwa_genome::reads::Read;
use nvwa_genome::reference::ReferenceGenome;
use nvwa_index::fmd_index::{FmdIndex, PrefixLut};
use nvwa_index::sampled_sa::SampledSa;
use nvwa_index::smem::{collect_smems_into, Smem, SmemConfig, SmemScratch};
use nvwa_index::suffix_array::build_suffix_array;
use nvwa_index::trace::{MemAddr, NullTrace, TraceSink, VecTrace};
use nvwa_index::{bwt::Bwt, fm_index::FmIndex, Isa};

use crate::banded::banded_extend_with;
use crate::chain::{chain_seeds, Chain, ChainConfig, Seed};
use crate::cigar::{Cigar, CigarOp};
use crate::kernel::{bitparallel_extend, bitparallel_global, KernelPolicy};
use crate::myers::MyersScratch;
use crate::scoring::Scoring;
use crate::sw::{global_align_with, DpScratch, ExtensionAlignment};

/// A reference genome plus the search structures built over it.
#[derive(Debug)]
pub struct ReferenceIndex {
    flat: Arc<[u8]>,
    fmd: FmdIndex,
    ssa: SampledSa,
}

impl ReferenceIndex {
    /// Builds the FMD-index and sampled SA over a genome's flattened
    /// sequence (one suffix-array construction, shared by both).
    pub fn build(genome: &ReferenceGenome, sa_rate: u32) -> ReferenceIndex {
        ReferenceIndex::from_codes(genome.flat().codes(), sa_rate)
    }

    /// Builds the index directly from forward codes. Accepts anything that
    /// converts into a shared `Arc<[u8]>` (`Vec<u8>`, `&[u8]`, an existing
    /// `Arc`), so callers that already hold the codes share them instead of
    /// copying.
    ///
    /// Also builds the k-mer prefix LUT ([`PrefixLut::DEFAULT_K`], clamped
    /// to the text size) used by the software fast path.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is empty or `sa_rate == 0`.
    pub fn from_codes(codes: impl Into<Arc<[u8]>>, sa_rate: u32) -> ReferenceIndex {
        let codes: Arc<[u8]> = codes.into();
        assert!(!codes.is_empty(), "reference must be non-empty");
        let doubled = FmdIndex::doubled_text(&codes);
        let sa = build_suffix_array(&doubled);
        let bwt = Bwt::from_text_and_sa(&doubled, &sa);
        let fm = FmIndex::from_bwt(bwt);
        let ssa = SampledSa::from_sa(&sa, sa_rate);
        let mut fmd = FmdIndex::from_parts(fm, doubled.len() / 2);
        fmd.build_prefix_lut(PrefixLut::DEFAULT_K);
        ReferenceIndex {
            flat: codes,
            fmd,
            ssa,
        }
    }

    /// The forward reference codes.
    pub fn flat(&self) -> &[u8] {
        &self.flat
    }

    /// A shared handle to the forward reference codes (cheap clone).
    pub fn flat_shared(&self) -> Arc<[u8]> {
        Arc::clone(&self.flat)
    }

    /// The FMD-index.
    pub fn fmd(&self) -> &FmdIndex {
        &self.fmd
    }

    /// The sampled suffix array.
    pub fn sampled_sa(&self) -> &SampledSa {
        &self.ssa
    }

    /// Approximate heap footprint in bytes: flat codes + FMD checkpoints
    /// and prefix LUT + sampled SA. The multi-tenant registry budgets
    /// tenants by this number, so it must be build-deterministic (it is:
    /// every component's size is a pure function of the input length).
    pub fn heap_bytes(&self) -> usize {
        self.flat.len() + self.fmd.footprint_bytes() + self.ssa.footprint_bytes()
    }
}

/// Aligner parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignerConfig {
    /// SMEM search parameters.
    pub smem: SmemConfig,
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Skip SMEMs with more reference occurrences than this (repeat filter,
    /// BWA's `max_occ`).
    pub max_smem_occ: u64,
    /// Locate at most this many positions per SMEM.
    pub max_hits_per_smem: usize,
    /// Chaining parameters.
    pub chain: ChainConfig,
    /// Band half-width for flank extension windows.
    pub band: usize,
    /// Extend at most this many top chains.
    pub max_chains_extended: usize,
    /// Extension-kernel selection (bit-parallel banded edit vs banded SW).
    /// Only the final alignment's score/cigar can differ between kernels;
    /// hit tasks and DP-cell accounting model the hardware EU workload and
    /// stay identical.
    pub kernel: KernelPolicy,
}

impl Default for AlignerConfig {
    fn default() -> AlignerConfig {
        AlignerConfig {
            smem: SmemConfig::default(),
            scoring: Scoring::bwa_mem(),
            max_smem_occ: 128,
            max_hits_per_smem: 16,
            chain: ChainConfig::default(),
            band: 32,
            max_chains_extended: 3,
            kernel: KernelPolicy::default(),
        }
    }
}

/// Reusable per-worker scratch for the whole alignment pipeline.
///
/// Holds every buffer the per-read hot path would otherwise allocate fresh:
/// the SMEM search scratch (with its occ-block cache), the SMEM/seed vectors,
/// the reverse-complement and candidate buffers, and the DP scratch used by
/// chain extension. One instance per worker thread; reusing it across reads
/// makes the steady-state pipeline allocation-free. Results are bit-identical
/// to the allocating path.
#[derive(Debug, Default)]
pub struct AlignScratch {
    smem: SmemScratch,
    smems: Vec<Smem>,
    seeds: Vec<Seed>,
    rc_codes: Vec<u8>,
    candidates: Vec<Alignment>,
    ext: ExtendScratch,
}

impl AlignScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// `(hits, lookups)` of the seeding occ-block cache since the last
    /// [`AlignScratch::reset_seed_cache_stats`].
    pub fn seed_cache_stats(&self) -> (u64, u64) {
        self.smem.cache_stats()
    }

    /// Clears the seeding cache hit/lookup counters (after publishing them).
    pub fn reset_seed_cache_stats(&mut self) {
        self.smem.reset_cache_stats();
    }

    /// Invalidates the occ-block cache; required when the scratch is reused
    /// against a different [`ReferenceIndex`].
    pub fn reset_for_index(&mut self) {
        self.smem.reset_for_index();
    }
}

/// Scratch buffers for [`SoftwareAligner`] chain extension.
#[derive(Debug, Default)]
struct ExtendScratch {
    segments: Vec<Seed>,
    left_q: Vec<u8>,
    left_t: Vec<u8>,
    dp: DpScratch,
    myers: MyersScratch,
}

/// One extension-unit work item: a hit plus its DP dimensions.
///
/// Fields mirror the paper's unified data interface (Table III):
/// `[read_idx, hit_idx, direction, read_pos, ref_pos]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitTask {
    /// Read index.
    pub read_id: u64,
    /// Hit index within the read.
    pub hit_idx: u32,
    /// Direction (strand).
    pub is_rc: bool,
    /// Read span this task extends `[start, end)` (oriented-read coords).
    pub read_pos: (u32, u32),
    /// Reference anchor (flat coordinates).
    pub ref_pos: u64,
    /// DP query dimension.
    pub query_len: u32,
    /// DP target dimension.
    pub ref_len: u32,
}

impl HitTask {
    /// The hit length the Coordinator schedules on: the read-span extension
    /// length (paper Fig. 10 step ②).
    pub fn hit_len(&self) -> u32 {
        self.read_pos.1 - self.read_pos.0
    }
}

/// Per-read workload profile for the execution-driven hardware model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadProfile {
    /// FM-index/SA block accesses performed during seeding (in order).
    pub seeding_trace: Vec<MemAddr>,
    /// Number of SMEMs found.
    pub smem_count: u32,
    /// Number of located candidate positions.
    pub located_hits: u32,
    /// Extension-unit work items.
    pub hit_tasks: Vec<HitTask>,
    /// Total DP cells filled during extension.
    pub dp_cells: u64,
}

/// A final alignment for one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Read index.
    pub read_id: u64,
    /// Leftmost reference position (flat coordinates).
    pub flat_pos: u64,
    /// Strand.
    pub is_rc: bool,
    /// Alignment score.
    pub score: i32,
    /// Edit transcript (oriented read vs forward reference).
    pub cigar: Cigar,
    /// Mapping quality estimate (0–60).
    pub mapq: u8,
}

/// The outcome of aligning one read: the best alignment (if any) plus the
/// workload profile.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentOutcome {
    /// Best alignment, or `None` for an unmapped read.
    pub alignment: Option<Alignment>,
    /// Hardware workload profile.
    pub profile: ReadProfile,
}

/// The software seed-and-extend aligner.
///
/// # Examples
///
/// ```
/// use nvwa_genome::{ReferenceGenome, ReferenceParams, ReadSimulator, ReadSimParams};
/// use nvwa_align::pipeline::{ReferenceIndex, SoftwareAligner, AlignerConfig};
///
/// let genome = ReferenceGenome::synthesize(&ReferenceParams::small_test(), 1);
/// let index = ReferenceIndex::build(&genome, 32);
/// let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
/// let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 2);
/// let read = sim.simulate_read();
/// let outcome = aligner.align_read(&read);
/// assert!(outcome.alignment.is_some());
/// ```
#[derive(Debug)]
pub struct SoftwareAligner<'r> {
    index: &'r ReferenceIndex,
    config: AlignerConfig,
}

impl<'r> SoftwareAligner<'r> {
    /// Creates an aligner over a prebuilt index.
    pub fn new(index: &'r ReferenceIndex, config: AlignerConfig) -> SoftwareAligner<'r> {
        SoftwareAligner { index, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AlignerConfig {
        &self.config
    }

    /// Aligns a simulated read (fresh scratch, hardware-trace mode).
    pub fn align_read(&self, read: &Read) -> AlignmentOutcome {
        self.align_codes(read.id, read.seq.codes())
    }

    /// Aligns a simulated read with caller-provided scratch, recording the
    /// seeding memory-access trace (the simulator's workload input).
    pub fn align_read_with(&self, read: &Read, scratch: &mut AlignScratch) -> AlignmentOutcome {
        self.align_codes_with(read.id, read.seq.codes(), scratch)
    }

    /// Aligns raw 2-bit read codes (fresh scratch, hardware-trace mode).
    pub fn align_codes(&self, read_id: u64, codes: &[u8]) -> AlignmentOutcome {
        self.align_codes_with(read_id, codes, &mut AlignScratch::new())
    }

    /// Hardware-trace mode: aligns with caller-provided scratch and records
    /// the seeding memory-access trace in the profile. The k-mer prefix LUT
    /// is bypassed so every FM-index block read is observable; the occ-block
    /// cache still engages (it is trace-invisible).
    pub fn align_codes_with(
        &self,
        read_id: u64,
        codes: &[u8],
        scratch: &mut AlignScratch,
    ) -> AlignmentOutcome {
        let mut trace = VecTrace::default();
        let mut outcome = self.align_codes_inner(read_id, codes, scratch, &mut trace);
        outcome.profile.seeding_trace = trace.0;
        outcome
    }

    /// Software fast path: no trace is recorded, which enables the k-mer
    /// prefix LUT (and keeps the occ-block cache). Alignments are
    /// bit-identical to [`SoftwareAligner::align_codes_with`]; only the
    /// profile's `seeding_trace` is empty.
    pub fn align_codes_fast(
        &self,
        read_id: u64,
        codes: &[u8],
        scratch: &mut AlignScratch,
    ) -> AlignmentOutcome {
        self.align_codes_inner(read_id, codes, scratch, &mut NullTrace)
    }

    fn align_codes_inner<T: TraceSink>(
        &self,
        read_id: u64,
        codes: &[u8],
        scratch: &mut AlignScratch,
        trace: &mut T,
    ) -> AlignmentOutcome {
        #[cfg(target_arch = "x86_64")]
        if Isa::host() >= Isa::Popcnt {
            // SAFETY: the CPU reports `popcnt`, checked on the line above.
            return unsafe { self.align_codes_popcnt(read_id, codes, scratch, trace) };
        }
        self.align_codes_portable(read_id, codes, scratch, trace)
    }

    /// The same body with `popcnt` on; `collect_smems_into` has the inlining rule.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn align_codes_popcnt<T: TraceSink>(
        &self,
        read_id: u64,
        codes: &[u8],
        scratch: &mut AlignScratch,
        trace: &mut T,
    ) -> AlignmentOutcome {
        self.align_codes_portable(read_id, codes, scratch, trace)
    }

    #[inline(always)]
    fn align_codes_portable<T: TraceSink>(
        &self,
        read_id: u64,
        codes: &[u8],
        scratch: &mut AlignScratch,
        trace: &mut T,
    ) -> AlignmentOutcome {
        let mut profile = ReadProfile::default();
        let AlignScratch {
            smem: smem_scratch,
            smems,
            seeds,
            rc_codes,
            candidates,
            ext,
        } = scratch;

        // --- Seeding phase (Step-❶): SMEM search + locate. ---
        collect_smems_into(
            self.index.fmd(),
            codes,
            &self.config.smem,
            smem_scratch,
            smems,
            trace,
        );
        profile.smem_count = smems.len() as u32;
        seeds.clear();
        let read_len = codes.len();
        for smem in smems.iter() {
            if smem.occ() > self.config.max_smem_occ {
                continue;
            }
            let take = (smem.occ() as usize).min(self.config.max_hits_per_smem);
            for i in 0..take {
                let rank = smem.interval.k + i as u64;
                let pos = self.index.ssa.locate(self.index.fmd().fm(), rank, trace);
                let Some(hit) = self.index.fmd().resolve_hit(pos as usize, smem.len()) else {
                    continue; // seam artifact
                };
                profile.located_hits += 1;
                let (qs, qe) = if hit.is_rc {
                    (read_len - smem.query_end, read_len - smem.query_start)
                } else {
                    (smem.query_start, smem.query_end)
                };
                seeds.push(Seed {
                    query_start: qs,
                    query_end: qe,
                    ref_pos: hit.pos as u64,
                    is_rc: hit.is_rc,
                });
            }
        }

        // --- Filter & chain (Step-❷). ---
        let chains = chain_seeds(seeds, &self.config.chain);

        // --- Seed extension (Step-❸). ---
        rc_codes.clear();
        rc_codes.extend(codes.iter().rev().map(|&c| 3 - c));
        candidates.clear();
        for chain in chains.iter().take(self.config.max_chains_extended) {
            let oriented: &[u8] = if chain.is_rc { rc_codes } else { codes };
            if let Some(alignment) = self.extend_chain(read_id, chain, oriented, &mut profile, ext)
            {
                candidates.push(alignment);
            }
        }

        // --- Select the best (Step-❹). ---
        candidates.sort_by_key(|a| std::cmp::Reverse(a.score));
        let second = candidates.get(1).map_or(0, |a| a.score);
        let alignment = candidates.drain(..).next().map(|mut best| {
            best.mapq = mapq_estimate(best.score, second);
            best
        });
        AlignmentOutcome { alignment, profile }
    }

    /// Extends one chain into a full alignment, recording the extension
    /// tasks it generates.
    fn extend_chain(
        &self,
        read_id: u64,
        chain: &Chain,
        oriented: &[u8],
        profile: &mut ReadProfile,
        ext: &mut ExtendScratch,
    ) -> Option<Alignment> {
        let ExtendScratch {
            segments,
            left_q,
            left_t,
            dp,
            myers,
        } = ext;
        let flat = self.index.flat();
        let scoring = &self.config.scoring;
        let read_len = oriented.len();
        let band = self.config.band.max(1);
        // One kernel decision per read; task accounting below is
        // kernel-independent (it models the hardware EU workload).
        let bitparallel = self.config.kernel.use_bitparallel(read_len);
        let mut hit_idx = profile.hit_tasks.len() as u32;

        // Normalize the chain's seeds into strictly advancing segments.
        segments.clear();
        for &seed in &chain.seeds {
            let mut s = seed;
            if let Some(prev) = segments.last() {
                let trim_q = prev.query_end.saturating_sub(s.query_start);
                let prev_ref_end = prev.ref_pos + prev.len() as u64;
                let trim_r = prev_ref_end.saturating_sub(s.ref_pos) as usize;
                let trim = trim_q.max(trim_r);
                if trim >= s.len() {
                    continue;
                }
                s.query_start += trim;
                s.ref_pos += trim as u64;
            }
            segments.push(s);
        }
        let first = *segments.first()?;
        let last = *segments.last()?;

        let mut body = Cigar::new();
        body.push(CigarOp::Match, first.len() as u32);
        let mut prev = first;
        for &seg in &segments[1..] {
            // Glue the gap between consecutive seeds with a global DP.
            let q_gap = &oriented[prev.query_end..seg.query_start];
            let prev_ref_end = (prev.ref_pos + prev.len() as u64) as usize;
            let r_gap = &flat[prev_ref_end..seg.ref_pos as usize];
            if !q_gap.is_empty() || !r_gap.is_empty() {
                let glue: ExtensionAlignment = if bitparallel {
                    bitparallel_global(q_gap, r_gap, scoring, myers, dp)
                } else {
                    global_align_with(q_gap, r_gap, scoring, dp)
                };
                profile.dp_cells += crate::sw::dp_cells(q_gap.len(), r_gap.len());
                profile.hit_tasks.push(HitTask {
                    read_id,
                    hit_idx,
                    is_rc: chain.is_rc,
                    read_pos: (prev.query_end as u32, seg.query_start as u32),
                    ref_pos: prev_ref_end as u64,
                    query_len: q_gap.len() as u32,
                    ref_len: r_gap.len() as u32,
                });
                hit_idx += 1;
                body.concat(&glue.cigar);
            }
            body.push(CigarOp::Match, seg.len() as u32);
            prev = seg;
        }

        // Left flank: extend leftwards (reversed sequences).
        left_q.clear();
        left_q.extend(oriented[..first.query_start].iter().rev().copied());
        let window = first.query_start + self.config.band;
        let left_t_start = (first.ref_pos as usize).saturating_sub(window);
        left_t.clear();
        left_t.extend(
            flat[left_t_start..first.ref_pos as usize]
                .iter()
                .rev()
                .copied(),
        );
        let left = if bitparallel {
            bitparallel_extend(left_q, left_t, scoring, band, myers, dp)
        } else {
            banded_extend_with(left_q, left_t, scoring, band, dp)
        };
        if !left_q.is_empty() {
            profile.dp_cells += crate::banded::banded_cells(left_q.len(), left_t.len(), band);
            profile.hit_tasks.push(HitTask {
                read_id,
                hit_idx,
                is_rc: chain.is_rc,
                read_pos: (0, first.query_start as u32),
                ref_pos: left_t_start as u64,
                query_len: left_q.len() as u32,
                ref_len: left_t.len() as u32,
            });
            hit_idx += 1;
        }

        // Right flank.
        let right_q = &oriented[last.query_end..];
        let last_ref_end = (last.ref_pos + last.len() as u64) as usize;
        let right_t_end = (last_ref_end + right_q.len() + self.config.band).min(flat.len());
        let right_t = &flat[last_ref_end..right_t_end];
        let right = if bitparallel {
            bitparallel_extend(right_q, right_t, scoring, band, myers, dp)
        } else {
            banded_extend_with(right_q, right_t, scoring, band, dp)
        };
        if !right_q.is_empty() {
            profile.dp_cells += crate::banded::banded_cells(right_q.len(), right_t.len(), band);
            profile.hit_tasks.push(HitTask {
                read_id,
                hit_idx,
                is_rc: chain.is_rc,
                read_pos: (last.query_end as u32, read_len as u32),
                ref_pos: last_ref_end as u64,
                query_len: right_q.len() as u32,
                ref_len: right_t.len() as u32,
            });
        }

        // Assemble: reversed left + body + right.
        let mut cigar = left.cigar;
        cigar.reverse();
        cigar.concat(&body);
        cigar.concat(&right.cigar);
        let score = cigar.score(scoring);
        Some(Alignment {
            read_id,
            flat_pos: first.ref_pos - left.target_len as u64,
            is_rc: chain.is_rc,
            score,
            cigar,
            mapq: 0,
        })
    }
}

/// BWA-flavoured mapping-quality estimate from the best and second-best
/// scores.
fn mapq_estimate(best: i32, second: i32) -> u8 {
    if best <= 0 {
        return 0;
    }
    let gap = (best - second).max(0) as f64;
    let frac = gap / best as f64;
    (60.0 * frac).round().clamp(0.0, 60.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvwa_genome::reads::{ReadSimParams, ReadSimulator, Strand};
    use nvwa_genome::reference::{ReferenceGenome, ReferenceParams};

    fn test_setup() -> (ReferenceGenome, ReferenceIndex) {
        let genome = ReferenceGenome::synthesize(
            &ReferenceParams {
                total_len: 30_000,
                chromosomes: 2,
                repeat_fraction: 0.2,
                ..ReferenceParams::default()
            },
            7,
        );
        let index = ReferenceIndex::build(&genome, 32);
        (genome, index)
    }

    #[test]
    fn exact_reads_align_to_origin_with_perfect_cigar() {
        let (genome, index) = test_setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let params = ReadSimParams {
            sub_rate: 0.0,
            ins_rate: 0.0,
            del_rate: 0.0,
            ..ReadSimParams::illumina_101()
        };
        let mut sim = ReadSimulator::new(&genome, params, 3);
        let mut mapped = 0;
        for _ in 0..40 {
            let read = sim.simulate_read();
            let outcome = aligner.align_read(&read);
            let Some(a) = outcome.alignment else { continue };
            mapped += 1;
            assert_eq!(
                a.is_rc,
                read.origin.strand == Strand::Reverse,
                "read {}",
                read.id
            );
            assert_eq!(a.flat_pos, read.origin.flat_pos as u64, "read {}", read.id);
            assert_eq!(a.score, 101);
            assert_eq!(a.cigar.to_string(), "101=");
        }
        assert!(mapped >= 38, "only {mapped}/40 exact reads mapped");
    }

    #[test]
    fn noisy_reads_align_near_origin() {
        let (genome, index) = test_setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 5);
        let reads = sim.simulate_reads(60);
        let mut close = 0;
        let mut mapped = 0;
        for read in &reads {
            let outcome = aligner.align_read(read);
            if let Some(a) = outcome.alignment {
                mapped += 1;
                if (a.flat_pos as i64 - read.origin.flat_pos as i64).abs() <= 20 {
                    close += 1;
                }
            }
        }
        assert!(mapped >= 55, "only {mapped}/60 reads mapped");
        assert!(
            close * 10 >= mapped * 9,
            "only {close}/{mapped} near origin"
        );
    }

    #[test]
    fn profile_contains_seeding_trace_and_tasks() {
        let (genome, index) = test_setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 11);
        let read = sim.simulate_read();
        let outcome = aligner.align_read(&read);
        let p = &outcome.profile;
        assert!(
            p.seeding_trace.len() >= 100,
            "trace {} too small",
            p.seeding_trace.len()
        );
        assert!(p.smem_count >= 1);
        assert!(p.located_hits >= 1);
    }

    #[test]
    fn hit_task_lengths_are_bounded_by_read_length() {
        let (genome, index) = test_setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 13);
        for _ in 0..20 {
            let read = sim.simulate_read();
            let outcome = aligner.align_read(&read);
            for t in &outcome.profile.hit_tasks {
                assert!(t.hit_len() as usize <= read.seq.len());
                assert!(t.read_pos.0 <= t.read_pos.1);
                assert_eq!(t.hit_len(), t.query_len);
            }
        }
    }

    #[test]
    fn unmappable_read_is_unmapped() {
        let (_, index) = test_setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        // A read of pure AAAA…: the synthetic genome is GC-balanced random,
        // so a 101-A run cannot seed anywhere with min_seed_len 19.
        let codes = vec![0u8; 101];
        let outcome = aligner.align_codes(999, &codes);
        // Either unmapped or (if a long A-run exists) low score; require the
        // common case.
        if let Some(a) = outcome.alignment {
            assert!(a.score < 101);
        }
    }

    #[test]
    fn cigar_spans_match_read_and_reference() {
        let (genome, index) = test_setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 21);
        for _ in 0..20 {
            let read = sim.simulate_read();
            if let Some(a) = aligner.align_read(&read).alignment {
                // Query consumption can be less than the read (soft clips at
                // the flanks) but never more.
                assert!(a.cigar.query_len() <= read.seq.len());
                assert!(a.cigar.target_len() > 0);
                // The reported score is always the transcript's score.
                assert_eq!(a.cigar.score(&aligner.config().scoring), a.score);
            }
        }
    }

    #[test]
    fn fast_path_and_scratch_reuse_are_bit_identical() {
        let (genome, index) = test_setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 17);
        let mut scratch = AlignScratch::new();
        let mut traced_total = 0usize;
        for _ in 0..25 {
            let read = sim.simulate_read();
            // Fresh-scratch traced path is the reference.
            let reference = aligner.align_read(&read);
            // Reused scratch, traced: everything identical including trace.
            let reused = aligner.align_read_with(&read, &mut scratch);
            assert_eq!(reused, reference, "read {}", read.id);
            // Fast path (LUT + cache, no trace): same alignment, same
            // workload counts, empty seeding trace.
            let fast = aligner.align_codes_fast(read.id, read.seq.codes(), &mut scratch);
            assert_eq!(fast.alignment, reference.alignment, "read {}", read.id);
            assert_eq!(fast.profile.smem_count, reference.profile.smem_count);
            assert_eq!(fast.profile.located_hits, reference.profile.located_hits);
            assert_eq!(fast.profile.hit_tasks, reference.profile.hit_tasks);
            assert_eq!(fast.profile.dp_cells, reference.profile.dp_cells);
            assert!(fast.profile.seeding_trace.is_empty());
            traced_total += reference.profile.seeding_trace.len();
        }
        assert!(traced_total > 0, "traced path must record block reads");
        let (hits, lookups) = scratch.seed_cache_stats();
        assert!(lookups > 0, "occ cache must be exercised");
        assert!(hits > 0, "occ cache must hit on real reads");
    }

    /// Each arm of `align_codes_inner` the host can run, traced and not, on
    /// its own scratch reused across the reads: the same outcomes as the
    /// baseline arm, seeding traces — the SMEM search's and
    /// `SampledSa::locate`'s addresses — included.
    #[test]
    fn seeding_twins_agree_at_every_isa_level() {
        let (genome, index) = test_setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let reads =
            ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 19).simulate_reads(25);
        let mut want = Vec::new();
        for isa in [Isa::Baseline, Isa::Popcnt] {
            if isa > Isa::host() {
                eprintln!("note: no {} on this host, its arm is skipped", isa.name());
                continue;
            }
            let mut scratch = AlignScratch::new();
            for (r, read) in reads.iter().enumerate() {
                let (id, codes) = (read.id, read.seq.codes());
                let mut trace = VecTrace::default();
                let mut traced = align_at(&aligner, isa, (id, codes), &mut scratch, &mut trace);
                traced.profile.seeding_trace = trace.0;
                let fast = align_at(&aligner, isa, (id, codes), &mut scratch, &mut NullTrace);
                assert_eq!(fast.alignment, traced.alignment, "{isa:?} read {r}");
                if isa == Isa::Baseline {
                    want.push(traced);
                } else {
                    assert_eq!(traced, want[r], "{isa:?} read {r}");
                }
            }
        }
    }

    /// `align_codes_inner`'s arm at `isa`, which must not be above the
    /// host's: the baseline body, or the `popcnt` one from `Popcnt` up.
    fn align_at<T: TraceSink>(
        aligner: &SoftwareAligner,
        isa: Isa,
        (id, codes): (u64, &[u8]),
        scratch: &mut AlignScratch,
        trace: &mut T,
    ) -> AlignmentOutcome {
        assert!(isa <= Isa::host(), "{isa:?} is above this host");
        #[cfg(target_arch = "x86_64")]
        if isa >= Isa::Popcnt {
            // SAFETY: the CPU reports `popcnt`: `isa` is at most its level.
            return unsafe { aligner.align_codes_popcnt(id, codes, scratch, trace) };
        }
        aligner.align_codes_portable(id, codes, scratch, trace)
    }

    #[test]
    fn reference_codes_are_shared_not_copied() {
        let (_, index) = test_setup();
        let shared = index.flat_shared();
        assert!(std::ptr::eq(shared.as_ptr(), index.flat().as_ptr()));
        // An index built from an existing Arc shares, not copies.
        let index2 = ReferenceIndex::from_codes(index.flat_shared(), 32);
        assert!(std::ptr::eq(index2.flat().as_ptr(), index.flat().as_ptr()));
    }

    #[test]
    fn mapq_reflects_score_gap() {
        assert_eq!(mapq_estimate(100, 100), 0);
        assert_eq!(mapq_estimate(100, 0), 60);
        assert!(mapq_estimate(100, 50) > 0);
        assert_eq!(mapq_estimate(0, 0), 0);
    }
}
