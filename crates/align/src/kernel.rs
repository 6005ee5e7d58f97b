//! Extension-kernel selection: the bridge between the bit-parallel banded
//! edit engine ([`crate::myers`]) and the affine-gap DP surface
//! ([`crate::sw`] / [`crate::banded`]) the pipeline consumes.
//!
//! The NvWa paper keeps the extension unit loosely coupled precisely so
//! different alignment kernels can be swapped behind the same hit-task
//! interface; this module is the software realisation of that seam. Short
//! reads extend with the GenASM-class bit-parallel kernel (edit-optimal
//! script, affine-rescored and prefix-clipped), long or mismatch-heavy
//! tasks fall back to the banded Smith-Waterman unit. The choice is a
//! per-read [`KernelPolicy`] decision; either way the result is the same
//! [`ExtensionAlignment`] shape, so hit-task accounting and the hardware
//! workload model are unaffected.

use crate::banded::banded_extend_with;
use crate::cigar::{Cigar, CigarOp};
use crate::myers::{banded_edit_extend, banded_edit_global, MyersScratch};
use crate::scoring::Scoring;
use crate::sw::{global_align_with, DpScratch, ExtensionAlignment};

/// Which extension kernel the pipeline uses for a read's hit tasks:
/// selected per read length, bit-parallel up to `bitparallel_max` symbols
/// and banded SW beyond (long reads accumulate enough edits that the
/// unit-cost band no longer covers them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPolicy {
    /// Longest read the bit-parallel kernel handles.
    pub bitparallel_max: usize,
}

impl KernelPolicy {
    /// `true` when a read of `read_len` symbols should extend with the
    /// bit-parallel kernel.
    pub fn use_bitparallel(self, read_len: usize) -> bool {
        read_len <= self.bitparallel_max
    }
}

impl Default for KernelPolicy {
    fn default() -> KernelPolicy {
        KernelPolicy {
            bitparallel_max: 400,
        }
    }
}

/// Walks the edit script from the anchor accumulating the affine score and
/// returns `(score, runs_kept, query_len, target_len)` of the best-scoring
/// prefix (ties keep the shortest). Run boundaries are the only candidate
/// cut points: a cut inside a match run is dominated by the run's end, and
/// a cut inside a mismatch or gap run by the run's start.
fn best_affine_prefix(cigar: &Cigar, scoring: &Scoring) -> (i32, usize, usize, usize) {
    let mut best = (0i32, 0usize, 0usize, 0usize);
    let (mut score, mut q, mut t) = (0i32, 0usize, 0usize);
    for (idx, &(op, len)) in cigar.runs().iter().enumerate() {
        match op {
            CigarOp::Match => {
                score += scoring.match_score * len as i32;
                q += len as usize;
                t += len as usize;
            }
            CigarOp::Subst => {
                score -= scoring.mismatch_penalty * len as i32;
                q += len as usize;
                t += len as usize;
            }
            CigarOp::Ins => {
                score -= scoring.gap_cost(len);
                q += len as usize;
            }
            CigarOp::Del => {
                score -= scoring.gap_cost(len);
                t += len as usize;
            }
        }
        if score > best.0 {
            best = (score, idx + 1, q, t);
        }
    }
    best
}

/// Extension alignment via the bit-parallel banded edit kernel: align the
/// whole flank to the best text prefix under unit costs, then rescore the
/// script with the affine scheme and clip it to the best-scoring prefix
/// (the soft-clip the Smith-Waterman extension performs natively). Falls
/// back to [`banded_extend_with`] when the flank's edit distance exceeds
/// the band — the mismatch-heavy case where an edit-optimal script is a
/// poor proxy for the affine optimum.
pub fn bitparallel_extend(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    band: usize,
    myers: &mut MyersScratch,
    dp: &mut DpScratch,
) -> ExtensionAlignment {
    if query.is_empty() || target.is_empty() {
        return ExtensionAlignment {
            score: 0,
            query_len: 0,
            target_len: 0,
            cigar: Cigar::new(),
        };
    }
    let edit = banded_edit_extend(query, target, band, myers);
    if !edit.exact {
        return banded_extend_with(query, target, scoring, band, dp);
    }
    let (score, runs, query_len, target_len) = best_affine_prefix(&edit.cigar, scoring);
    if runs == 0 {
        return ExtensionAlignment {
            score: 0,
            query_len: 0,
            target_len: 0,
            cigar: Cigar::new(),
        };
    }
    let mut cigar = Cigar::new();
    for &(op, len) in &edit.cigar.runs()[..runs] {
        cigar.push(op, len);
    }
    ExtensionAlignment {
        score,
        query_len,
        target_len,
        cigar,
    }
}

/// Global (chain-glue) alignment via the bit-parallel kernel: both
/// sequences fully consumed. The band is widened to cover the whole
/// matrix, so the edit script is always the true unit-cost optimum; the
/// affine score is recomputed from the script. Falls back to
/// [`global_align_with`] only in the degenerate cases the edit kernel does
/// not model (it never clamps at full band).
pub fn bitparallel_global(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    myers: &mut MyersScratch,
    dp: &mut DpScratch,
) -> ExtensionAlignment {
    let band = query.len().max(target.len()).max(1);
    let edit = banded_edit_global(query, target, band, myers);
    if !edit.exact {
        return global_align_with(query, target, scoring, dp);
    }
    let score = edit.cigar.score(scoring);
    ExtensionAlignment {
        score,
        query_len: query.len(),
        target_len: target.len(),
        cigar: edit.cigar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::extend_align;

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

    fn mutate(seq: &[u8], mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(seq.len() + 4);
        for (i, &c) in seq.iter().enumerate() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) % 100;
            if r < 3 {
                out.push((c + 1) % 4);
            } else if r < 4 && i > 5 {
                // deletion
            } else if r < 5 {
                out.push(c);
                out.push((c + 2) % 4);
            } else {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn policy_selects_by_read_length() {
        let p = KernelPolicy::default();
        assert!(p.use_bitparallel(101));
        assert!(p.use_bitparallel(400));
        assert!(!p.use_bitparallel(401));
    }

    #[test]
    fn identical_flank_scores_like_sw() {
        let mut my = MyersScratch::new();
        let mut dp = DpScratch::new();
        let scoring = Scoring::bwa_mem();
        let t = rand_codes(120, 3);
        let q = t[..101].to_vec();
        let a = bitparallel_extend(&q, &t, &scoring, 32, &mut my, &mut dp);
        assert_eq!(a.score, 101);
        assert_eq!(a.cigar.to_string(), "101=");
        assert_eq!((a.query_len, a.target_len), (101, 101));
    }

    #[test]
    fn noisy_flank_stays_close_to_full_sw() {
        let scoring = Scoring::bwa_mem();
        let mut my = MyersScratch::new();
        let mut dp = DpScratch::new();
        for seed in 0..12u64 {
            let target = rand_codes(140, seed ^ 0x9e37);
            let query = mutate(&target[..110], seed);
            let full = extend_align(&query, &target, &scoring);
            let bp = bitparallel_extend(&query, &target, &scoring, 32, &mut my, &mut dp);
            // The edit-optimal script rescored under affine costs can only
            // reach, never beat, the affine optimum...
            assert!(
                bp.score <= full.score,
                "seed {seed}: {} > {}",
                bp.score,
                full.score
            );
            // ...and the score must be self-consistent with the script.
            assert_eq!(bp.cigar.score(&scoring), bp.score, "seed {seed}");
            assert_eq!(bp.cigar.query_len(), bp.query_len, "seed {seed}");
            assert_eq!(bp.cigar.target_len(), bp.target_len, "seed {seed}");
            // Low-rate mutations: edit-optimal and affine-optimal agree to
            // within a couple of gap-open penalties.
            assert!(
                full.score - bp.score <= 2 * scoring.gap_open,
                "seed {seed}: bp {} vs full {}",
                bp.score,
                full.score
            );
        }
    }

    #[test]
    fn mismatch_heavy_flank_falls_back_to_banded_sw() {
        let scoring = Scoring::bwa_mem();
        let mut my = MyersScratch::new();
        let mut dp = DpScratch::new();
        // Unrelated sequences: edit distance far exceeds a narrow band, so
        // the kernel must defer to the SW unit bit-for-bit.
        let q = rand_codes(80, 11);
        let t = rand_codes(100, 999);
        let bp = bitparallel_extend(&q, &t, &scoring, 4, &mut my, &mut dp);
        let sw = banded_extend_with(&q, &t, &scoring, 4, &mut DpScratch::new());
        assert_eq!(bp, sw);
    }

    #[test]
    fn glue_consumes_both_sequences() {
        let scoring = Scoring::bwa_mem();
        let mut my = MyersScratch::new();
        let mut dp = DpScratch::new();
        for (q_len, t_len, seed) in [(0usize, 5usize, 1u64), (5, 0, 2), (7, 9, 3), (70, 66, 4)] {
            let q = rand_codes(q_len, seed);
            let t = rand_codes(t_len, seed ^ 0xf0f0);
            let g = bitparallel_global(&q, &t, &scoring, &mut my, &mut dp);
            assert_eq!(g.query_len, q_len, "seed {seed}");
            assert_eq!(g.target_len, t_len, "seed {seed}");
            assert_eq!(g.cigar.query_len(), q_len, "seed {seed}");
            assert_eq!(g.cigar.target_len(), t_len, "seed {seed}");
            assert_eq!(g.cigar.score(&scoring), g.score, "seed {seed}");
        }
    }

    #[test]
    fn trailing_gaps_are_clipped() {
        let scoring = Scoring::bwa_mem();
        let mut my = MyersScratch::new();
        let mut dp = DpScratch::new();
        // Query = 40 matching symbols + 10 junk: the clip must drop the
        // junk tail rather than pay gap/mismatch penalties for it.
        let t = rand_codes(60, 21);
        let mut q = t[..40].to_vec();
        q.extend(rand_codes(10, 4242).iter().map(|c| (c + 2) % 4));
        let a = bitparallel_extend(&q, &t, &scoring, 32, &mut my, &mut dp);
        assert!(a.query_len <= q.len());
        assert!(
            a.score >= 40 - scoring.mismatch_penalty,
            "score {}",
            a.score
        );
        assert_eq!(a.cigar.score(&scoring), a.score);
    }
}
