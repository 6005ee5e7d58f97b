//! The long-read conformance family (ISSUE 10, DESIGN.md §15): the
//! seed-chain-fill pipeline ([`nvwa_align::long_read`]) is checked
//! differentially against a wide-banded Smith-Waterman oracle run over
//! the *exact window the GACT-tiled fill committed* — same oriented read
//! span, same reference span.
//!
//! The contract pinned here is the **tile-overlap bound**. GACT holds one
//! `tile_size²` matrix and commits each tile's traceback prefix up to
//! `tile_size − overlap` consumed query bases; only the `overlap` region
//! of every seam is re-aligned by the next tile. The committed CIGAR is
//! one concrete path through the window, so the window optimum can never
//! be *below* it; and each of the `tiles − 1` seams can forfeit at most
//! the `overlap` query bases it re-aligns, worth `match_score` each:
//!
//! ```text
//! 0 ≤ oracle(window).score − gact.score ≤ (tiles − 1) · overlap · match
//! ```
//!
//! The lower bound is exact. The upper bound is Darwin's empirical
//! near-exactness observation turned into a checkable envelope — on the
//! error profiles here the observed loss is almost always zero, and a
//! stitching regression (double-committed seam, lost overlap base,
//! off-by-one commit horizon) blows through it immediately.
//!
//! The family is a [`Probe`] run by [`run_family`] like every other
//! minimizing family: divergences ddmin down to a minimal failing read
//! set, each survivor shrinks base by base (pinned to the
//! originally-observed check, since a half-shrunk long read legitimately
//! stops chaining), and a reproducer is written under the repro
//! directory.

use std::path::Path;

use nvwa_align::banded::banded_extend_with;
use nvwa_align::long_read::{LongReadAligner, LongReadAlignment, LongReadConfig, LongReadIndex};
use nvwa_align::scoring::Scoring;
use nvwa_align::sw::DpScratch;
use nvwa_index::minimizer::MinimizerParams;

use crate::minimize::{run_family, Divergence, FirstDivergence, Probe};
use crate::Prng;

/// Reference length of the long-read differential: large enough for real
/// minimizer/chain structure, small enough that index construction stays
/// cheap per seed.
pub const LONG_REF_LEN: usize = 24_000;

/// Planted reads at or above this length must chain — a `None` from the
/// aligner on such a read is a divergence. Below it (e.g. mid-shrink)
/// unmapped is a legitimate outcome, which keeps the shrinker from
/// trivially "failing" by destroying the read.
pub const MIN_MAPPABLE: usize = 600;

/// Extra half-width the oracle band gets on top of the window length
/// difference. [`Prng::mutate`]'s ~1% symmetric indel rate drifts the
/// optimal path by only a few cells over these read lengths, so this
/// margin keeps the banded oracle equal to the full-matrix optimum.
const ORACLE_BAND_MARGIN: usize = 96;

/// One long-read differential case.
#[derive(Debug, Clone)]
pub struct LongReadCase {
    /// 2-bit read codes.
    pub read: Vec<u8>,
    /// Read was sampled from the reference (possibly mutated and/or
    /// reverse-complemented) — it must chain when ≥ [`MIN_MAPPABLE`].
    pub planted: bool,
}

/// The seeded case list: exact reference windows, noisy windows
/// ([`Prng::mutate`]'s sub+indel profile), reverse-complemented windows,
/// and one-in-six unrelated random reads (which must *not* produce a
/// spurious high-confidence chain — they exercise the unmapped path).
pub fn long_read_cases(p: &mut Prng, reference: &[u8], n: usize) -> Vec<LongReadCase> {
    (0..n)
        .map(|i| {
            if i % 6 == 5 {
                let len = 800 + p.below(1_200) as usize;
                return LongReadCase {
                    read: p.codes(len),
                    planted: false,
                };
            }
            let len = 1_200 + p.below(1_400) as usize;
            let start = p.below((reference.len() - len) as u64) as usize;
            let window = &reference[start..start + len];
            let mut read = if i % 5 == 0 {
                window.to_vec()
            } else {
                p.mutate(window)
            };
            if i % 3 == 2 {
                read = read.iter().rev().map(|&c| 3 - c).collect();
            }
            LongReadCase {
                read,
                planted: true,
            }
        })
        .collect()
}

/// Runs every long-read oracle on one case. Returns the first divergence
/// as `(check, detail)`, or `None` when all agree.
pub fn long_read_divergence(
    aligner: &LongReadAligner<'_>,
    reference: &[u8],
    case: &LongReadCase,
) -> Option<(&'static str, String)> {
    let scoring = Scoring::bwa_mem();
    let config = LongReadConfig::default();
    let a = match aligner.align(&case.read) {
        Some(a) => a,
        None => {
            if case.planted && case.read.len() >= MIN_MAPPABLE {
                return Some((
                    "long_read.unmapped",
                    format!("planted {}-base read produced no chain", case.read.len()),
                ));
            }
            return None;
        }
    };
    // The committed window must sit inside the read and the reference.
    let q_len = a.cigar.query_len();
    let t_len = a.cigar.target_len();
    if a.query_start + q_len > case.read.len() || a.ref_pos as usize + t_len > reference.len() {
        return Some((
            "long_read.window_out_of_bounds",
            format!(
                "q[{}..{}) of {} / r[{}..{}) of {}",
                a.query_start,
                a.query_start + q_len,
                case.read.len(),
                a.ref_pos,
                a.ref_pos as usize + t_len,
                reference.len()
            ),
        ));
    }
    // The reported score must be the committed CIGAR's score.
    if a.cigar.score(&scoring) != a.score {
        return Some((
            "long_read.cigar_consistency",
            format!(
                "reported score {} but the committed cigar scores {}",
                a.score,
                a.cigar.score(&scoring)
            ),
        ));
    }
    let (oracle, band) = window_oracle(reference, &case.read, &a);
    if a.score > oracle {
        return Some((
            "long_read.gact_exceeds_oracle",
            format!(
                "committed score {} > banded oracle {} (band {band}) — the \
                 committed path is one path through the window, the oracle \
                 is its optimum",
                a.score, oracle
            ),
        ));
    }
    let loss = i64::from(oracle - a.score);
    let bound = a.gact.tiles.saturating_sub(1) as i64
        * config.gact.overlap as i64
        * i64::from(scoring.match_score);
    if loss > bound {
        return Some((
            "long_read.tile_overlap_bound",
            format!(
                "oracle {} − gact {} = {loss} exceeds ({} tiles − 1) × \
                 overlap {} × match {} = {bound}",
                oracle, a.score, a.gact.tiles, config.gact.overlap, scoring.match_score
            ),
        ));
    }
    None
}

/// The differential's oracle: a wide-banded SW optimum over the exact
/// window `a` committed (same oriented read span, same reference span),
/// with the band it used.
fn window_oracle(reference: &[u8], read: &[u8], a: &LongReadAlignment) -> (i32, usize) {
    let oriented: Vec<u8> = if a.is_rc {
        read.iter().rev().map(|&c| 3 - c).collect()
    } else {
        read.to_vec()
    };
    let q = &oriented[a.query_start..a.query_start + a.cigar.query_len()];
    let t = &reference[a.ref_pos as usize..a.ref_pos as usize + a.cigar.target_len()];
    let band = q.len().abs_diff(t.len()) + ORACLE_BAND_MARGIN;
    let oracle = banded_extend_with(q, t, &Scoring::bwa_mem(), band, &mut DpScratch::new());
    (oracle.score, band)
}

/// [`long_read_divergence`] over a seeded minimizer index; a case's read
/// shrinks.
struct LongReadProbe<'a> {
    aligner: LongReadAligner<'a>,
    reference: &'a [u8],
}

impl Probe for LongReadProbe<'_> {
    type Case = LongReadCase;

    fn divergence(&self, cases: &[LongReadCase]) -> FirstDivergence {
        Ok(cases
            .iter()
            .find_map(|c| long_read_divergence(&self.aligner, self.reference, c)))
    }

    fn sequences(case: &mut LongReadCase) -> Vec<&mut Vec<u8>> {
        vec![&mut case.read]
    }
}

/// The long_read family: [`long_read_cases`] against a seeded minimizer
/// index through [`long_read_divergence`].
pub fn run_long_read_family(
    seed: u64,
    cases: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    let mut p = Prng(seed ^ 0x10f6_0006);
    let reference = p.codes(LONG_REF_LEN);
    let index = LongReadIndex::build(reference.clone(), MinimizerParams::default());
    let aligner = LongReadAligner::new(&index, LongReadConfig::default());
    let all = long_read_cases(&mut p, &reference, cases);
    let probe = LongReadProbe {
        aligner,
        reference: &reference,
    };
    run_family("long_read", &probe, &all, seed, repro_dir).map(|()| {
        format!(
            "long_read: {cases} reads vs wide-banded SW on the committed window, \
             GACT within (tiles−1)·overlap·match of the optimum"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_read_family_agrees_on_a_healthy_tree() {
        let summary = run_long_read_family(7, 12, None).expect("long-read oracles agree");
        assert!(summary.contains("12 reads"), "{summary}");
    }

    #[test]
    fn unrelated_reads_are_not_divergences_but_silent_unmapped_planted_reads_are() {
        let mut p = Prng(11);
        let reference = p.codes(LONG_REF_LEN);
        let index = LongReadIndex::build(reference.clone(), MinimizerParams::default());
        let aligner = LongReadAligner::new(&index, LongReadConfig::default());
        let garbage = LongReadCase {
            read: Prng(0xdead_beef).codes(1_500),
            planted: false,
        };
        assert_eq!(
            long_read_divergence(&aligner, &reference, &garbage),
            None,
            "a random read that finds no chain is the expected unmapped path"
        );
        // The same read flagged as planted must be reported: a planted
        // read the pipeline silently loses is exactly the regression this
        // check exists for.
        let planted = LongReadCase {
            planted: true,
            ..garbage
        };
        let (check, _) = long_read_divergence(&aligner, &reference, &planted)
            .expect("planted read without a chain is a divergence");
        assert_eq!(check, "long_read.unmapped");
    }

    /// The long-read probe plus a GACT whose stitch double-commits one
    /// match base per seam: the reported score inflates by `tiles − 1`.
    struct SeamOverCommit<'a>(LongReadProbe<'a>);

    impl Probe for SeamOverCommit<'_> {
        type Case = LongReadCase;

        fn divergence(&self, cases: &[LongReadCase]) -> FirstDivergence {
            Ok(cases.iter().find_map(|c| {
                let real = self.0.divergence(std::slice::from_ref(c)).unwrap();
                real.or_else(|| {
                    let a = self.0.aligner.align(&c.read)?;
                    let (oracle, _) = window_oracle(self.0.reference, &c.read, &a);
                    let inflated = a.score + a.gact.tiles.saturating_sub(1) as i32;
                    let detail = format!("committed score {inflated} > banded oracle {oracle}");
                    (a.gact.tiles > 1 && inflated > oracle)
                        .then_some(("long_read.gact_exceeds_oracle", detail))
                })
            }))
        }

        fn sequences(case: &mut LongReadCase) -> Vec<&mut Vec<u8>> {
            LongReadProbe::sequences(case)
        }
    }

    #[test]
    fn a_planted_seam_bug_is_caught_and_minimized() {
        // The committed path on these profiles is (near-)optimal, so the
        // inflated score exceeds the window oracle — the family's
        // `gact_exceeds_oracle` lower bound catches it, and the runner
        // brings the case list down to a single read.
        let mut p = Prng(3 ^ 0x10f6_0006);
        let reference = p.codes(LONG_REF_LEN);
        let index = LongReadIndex::build(reference.clone(), MinimizerParams::default());
        let aligner = LongReadAligner::new(&index, LongReadConfig::default());
        let cases = long_read_cases(&mut p, &reference, 18);
        let probe = SeamOverCommit(LongReadProbe {
            aligner,
            reference: &reference,
        });
        let d = run_family("long_read", &probe, &cases, 3, None)
            .expect_err("a seam over-commit must push some committed score past the oracle");
        assert_eq!(d.check, "long_read.gact_exceeds_oracle", "{d}");
        assert_eq!(d.reads.len(), 1, "one read suffices to reproduce: {d}");
    }
}
