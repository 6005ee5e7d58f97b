//! The *seed-and-chain-then-fill* long-read pipeline (paper Sec. VI).
//!
//! Third-generation aligners (minimap/minimap2) seed with minimizers, chain
//! the anchors, and *fill* the gaps between chained anchors with banded DP;
//! NvWa's discussion argues the same diversity problem (and therefore the
//! same schedulers) applies. This module implements that pipeline on the
//! substrates of this workspace: minimizer seeding ([`nvwa_index::minimizer`]),
//! the shared chainer, and GACT tile fill — and emits the per-read hardware
//! workload (trace + tile tasks) like the short-read pipeline does.

use nvwa_index::minimizer::{minimizers, MinimizerIndex, MinimizerParams};
use nvwa_index::trace::{MemAddr, VecTrace};

use crate::chain::{chain_seeds, ChainConfig, Seed};
use crate::cigar::Cigar;
use crate::gact::{gact_extend_with, GactConfig, GactStats};
use crate::scoring::Scoring;
use crate::sw::DpScratch;

/// Long-read aligner parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LongReadConfig {
    /// Minimizer sampling scheme.
    pub minimizer: MinimizerParams,
    /// Chaining parameters (long-read scale gaps).
    pub chain: ChainConfig,
    /// GACT tiling for the fill stage.
    pub gact: GactConfig,
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Skip minimizers occurring more often than this (repeat filter).
    pub max_occ: usize,
}

impl Default for LongReadConfig {
    fn default() -> LongReadConfig {
        LongReadConfig {
            minimizer: MinimizerParams::default(),
            chain: ChainConfig {
                max_gap: 2_000,
                max_drift: 500,
                min_chain_score: 30,
                max_chains: 4,
            },
            gact: GactConfig::default(),
            scoring: Scoring::bwa_mem(),
            max_occ: 64,
        }
    }
}

/// A long-read reference index (minimizers only; no FM-index needed).
#[derive(Debug)]
pub struct LongReadIndex {
    reference: Vec<u8>,
    index: MinimizerIndex,
}

impl LongReadIndex {
    /// Builds the index over forward reference codes.
    pub fn build(reference: Vec<u8>, params: MinimizerParams) -> LongReadIndex {
        let index = MinimizerIndex::build(&reference, params);
        LongReadIndex { reference, index }
    }

    /// The reference codes.
    pub fn reference(&self) -> &[u8] {
        &self.reference
    }

    /// The minimizer index.
    pub fn minimizers(&self) -> &MinimizerIndex {
        &self.index
    }
}

/// A long-read alignment plus its hardware workload profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LongReadAlignment {
    /// Leftmost reference position.
    pub ref_pos: u64,
    /// First aligned base on the *oriented* read (after reverse-complementing
    /// for `is_rc` reads). `cigar.query_len()` bases from here are aligned.
    pub query_start: usize,
    /// Strand.
    pub is_rc: bool,
    /// Alignment score (from the committed CIGAR).
    pub score: i32,
    /// The edit transcript.
    pub cigar: Cigar,
    /// Anchors in the winning chain.
    pub anchors: usize,
    /// GACT statistics of the fill stage (tile count = EU task count).
    pub gact: GactStats,
    /// Seeding memory-access trace (minimizer table lookups).
    pub seeding_trace: Vec<MemAddr>,
}

/// The seed-and-chain-then-fill aligner.
#[derive(Debug)]
pub struct LongReadAligner<'r> {
    index: &'r LongReadIndex,
    config: LongReadConfig,
}

impl<'r> LongReadAligner<'r> {
    /// Creates an aligner over a prebuilt index.
    pub fn new(index: &'r LongReadIndex, config: LongReadConfig) -> LongReadAligner<'r> {
        LongReadAligner { index, config }
    }

    /// Aligns one long read (2-bit codes); `None` when no chain survives.
    pub fn align(&self, read: &[u8]) -> Option<LongReadAlignment> {
        let mut trace = VecTrace::default();
        let k = self.config.minimizer.k;

        // --- Seed: minimizers of both strands against the index. ---
        let rc: Vec<u8> = read.iter().rev().map(|&c| 3 - c).collect();
        let mut seeds: Vec<Seed> = Vec::new();
        for (codes, is_rc) in [(read, false), (rc.as_slice(), true)] {
            for m in minimizers(codes, &self.config.minimizer) {
                let hits = self.index.index.lookup(m.hash, &mut trace);
                if hits.is_empty() || hits.len() > self.config.max_occ {
                    continue;
                }
                for &pos in hits {
                    seeds.push(Seed {
                        query_start: m.pos as usize,
                        query_end: m.pos as usize + k,
                        ref_pos: pos as u64,
                        is_rc,
                    });
                }
            }
        }

        // --- Chain. ---
        let chains = chain_seeds(&seeds, &self.config.chain);
        let chain = chains.first()?;
        let oriented: &[u8] = if chain.is_rc { &rc } else { read };
        let (qs, qe) = chain.query_span();
        let (rs, re) = chain.ref_span();

        // --- Fill: GACT across the chained span plus both flanks, every
        // tile in one set of DP buffers. ---
        let reference = &self.index.reference;
        let (mut gact_total, mut dp) = (GactStats::default(), DpScratch::new());
        let mut fill = |q: &[u8], t: &[u8]| {
            let (e, stats) =
                gact_extend_with(q, t, &self.config.scoring, &self.config.gact, &mut dp);
            gact_total.tiles += stats.tiles;
            gact_total.dp_cells += stats.dp_cells;
            e
        };
        let mut cigar = Cigar::new();

        // Left flank (reversed fill toward lower coordinates).
        let left_window = qs + self.config.gact.tile_size / 2;
        let left_start = (rs as usize).saturating_sub(left_window);
        let left_q: Vec<u8> = oriented[..qs].iter().rev().copied().collect();
        let left_t: Vec<u8> = reference[left_start..rs as usize]
            .iter()
            .rev()
            .copied()
            .collect();
        let mut left = fill(&left_q, &left_t);
        left.cigar.reverse();
        cigar.concat(&left.cigar);

        // Chained body fill.
        let body_q = &oriented[qs..qe];
        let body_t = &reference[rs as usize..(re as usize).min(reference.len())];
        let body = fill(body_q, body_t);
        cigar.concat(&body.cigar);

        // Right flank.
        let right_q = &oriented[(qs + body.query_len).min(oriented.len())..];
        let right_anchor = rs as usize + body.target_len;
        let right_end =
            (right_anchor + right_q.len() + self.config.gact.tile_size / 2).min(reference.len());
        let right_t = &reference[right_anchor.min(reference.len())..right_end];
        let right = fill(right_q, right_t);
        cigar.concat(&right.cigar);

        let score = cigar.score(&self.config.scoring);
        Some(LongReadAlignment {
            ref_pos: rs - left.target_len as u64,
            query_start: qs - left.query_len,
            is_rc: chain.is_rc,
            score,
            cigar,
            anchors: chain.seeds.len(),
            gact: gact_total,
            seeding_trace: trace.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_codes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) & 0b11) as u8
            })
            .collect()
    }

    /// Applies a third-generation error profile (subs + indels).
    fn noisy(seq: &[u8], mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(seq.len());
        for &c in seq {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) % 100;
            if r < 4 {
                out.push((c + 1) % 4);
            } else if r < 6 {
                // deletion
            } else if r < 8 {
                out.push(c);
                out.push((c + 2) % 4);
            } else {
                out.push(c);
            }
        }
        out
    }

    fn setup() -> LongReadIndex {
        LongReadIndex::build(rand_codes(80_000, 1), MinimizerParams::default())
    }

    #[test]
    fn exact_long_read_aligns_at_origin() {
        let index = setup();
        let aligner = LongReadAligner::new(&index, LongReadConfig::default());
        let read = index.reference()[20_000..25_000].to_vec();
        let a = aligner.align(&read).expect("aligned");
        assert!(!a.is_rc);
        assert!((a.ref_pos as i64 - 20_000).abs() <= 8, "pos {}", a.ref_pos);
        assert!(a.score >= 4_900, "score {}", a.score);
        assert!(a.anchors > 100);
        assert!(a.gact.tiles >= 15);
        // The aligned query window must sit inside the read.
        assert!(a.query_start <= 8, "query_start {}", a.query_start);
        assert!(a.query_start + a.cigar.query_len() <= read.len());
    }

    #[test]
    fn noisy_long_read_still_aligns() {
        let index = setup();
        let aligner = LongReadAligner::new(&index, LongReadConfig::default());
        let read = noisy(&index.reference()[40_000..46_000], 7);
        let a = aligner.align(&read).expect("aligned");
        assert!((a.ref_pos as i64 - 40_000).abs() <= 50, "pos {}", a.ref_pos);
        // ~8% error: score should still recover most of the read.
        assert!(a.score as usize > read.len() / 2, "score {}", a.score);
        assert_eq!(a.cigar.score(&Scoring::bwa_mem()), a.score);
    }

    #[test]
    fn reverse_strand_long_read() {
        let index = setup();
        let aligner = LongReadAligner::new(&index, LongReadConfig::default());
        let fwd = index.reference()[10_000..14_000].to_vec();
        let read: Vec<u8> = fwd.iter().rev().map(|&c| 3 - c).collect();
        let a = aligner.align(&read).expect("aligned");
        assert!(a.is_rc);
        assert!((a.ref_pos as i64 - 10_000).abs() <= 20, "pos {}", a.ref_pos);
    }

    #[test]
    fn random_read_does_not_align() {
        let index = setup();
        let aligner = LongReadAligner::new(&index, LongReadConfig::default());
        // An unrelated random read: no chain should survive (or only a
        // negligible one).
        let read = rand_codes(3_000, 0xdead);
        if let Some(a) = aligner.align(&read) {
            assert!(a.score < 300, "spurious alignment score {}", a.score);
        }
    }

    #[test]
    fn workload_profile_is_emitted() {
        let index = setup();
        let aligner = LongReadAligner::new(&index, LongReadConfig::default());
        let read = index.reference()[5_000..9_000].to_vec();
        let a = aligner.align(&read).expect("aligned");
        assert!(!a.seeding_trace.is_empty());
        assert!(a.gact.dp_cells > 0);
    }
}
