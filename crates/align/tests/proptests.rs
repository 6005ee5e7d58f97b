//! Property-based tests on the alignment substrates.

use proptest::prelude::*;

use nvwa_align::banded::banded_extend;
use nvwa_align::cigar::CigarOp;
use nvwa_align::gact::{gact_extend, GactConfig};
use nvwa_align::myers::{
    banded_edit_extend, banded_edit_global, edit_distance_naive, MyersScratch,
};
use nvwa_align::scoring::Scoring;
use nvwa_align::sw::{
    extend_align, extend_align_with, global_align_with, local_align, local_align_with, naive,
    DpScratch,
};

fn codes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 1..=max_len)
}

/// Last row of the full unit-cost DP: `D[m][j]` = edit distance of the
/// whole pattern vs `t[..j]`, the prefix-scan oracle for extension mode.
fn edit_last_row(p: &[u8], t: &[u8]) -> Vec<u32> {
    let n = t.len();
    let mut prev: Vec<u32> = (0..=n as u32).collect();
    let mut cur = vec![0u32; n + 1];
    for (i, &pc) in p.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, &tc) in t.iter().enumerate() {
            let sub = prev[j] + u32::from(pc != tc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A full-width band is exactly the unbanded extension.
    #[test]
    fn banded_with_full_band_equals_full(q in codes(30), t in codes(30)) {
        let scoring = Scoring::bwa_mem();
        let full = extend_align(&q, &t, &scoring);
        let band = q.len().max(t.len()) + 1;
        let banded = banded_extend(&q, &t, &scoring, band);
        prop_assert_eq!(banded.score, full.score);
    }

    /// Narrowing the band can only lower the score.
    #[test]
    fn band_narrowing_is_monotone(q in codes(30), t in codes(30)) {
        let scoring = Scoring::bwa_mem();
        let wide = banded_extend(&q, &t, &scoring, 24);
        let narrow = banded_extend(&q, &t, &scoring, 4);
        prop_assert!(narrow.score <= wide.score);
    }

    /// The banded global edit kernel's exactness contract holds for every
    /// band: `exact ⇔ true distance ≤ band`, with equality and a valid
    /// optimal script when exact and an upper bound (no script) otherwise.
    #[test]
    fn banded_global_contract(p in codes(140), t in codes(140), band in 1usize..40) {
        let mut s = MyersScratch::new();
        let full = edit_distance_naive(&p, &t);
        let g = banded_edit_global(&p, &t, band, &mut s);
        prop_assert_eq!(g.exact, full as usize <= band);
        if g.exact {
            prop_assert_eq!(g.distance, full);
            prop_assert_eq!(g.cigar.query_len(), p.len());
            prop_assert_eq!(g.cigar.target_len(), t.len());
            prop_assert_eq!(g.cigar.edit_distance(), full as usize);
        } else {
            prop_assert!(g.distance >= full);
            prop_assert!(g.cigar.is_empty());
        }
    }

    /// Banded extension matches the prefix-scan DP oracle — distance,
    /// endpoint (shortest-prefix tie rule) and script consumption — when
    /// the best prefix is inside the band, and upper-bounds it otherwise.
    #[test]
    fn banded_extend_matches_prefix_oracle(p in codes(120), t in codes(140), band in 1usize..40) {
        let mut s = MyersScratch::new();
        let row = edit_last_row(&p, &t);
        let best = *row.iter().min().expect("row is never empty");
        let best_j = row.iter().position(|&d| d == best).expect("min exists");
        let e = banded_edit_extend(&p, &t, band, &mut s);
        prop_assert_eq!(e.exact, best as usize <= band);
        if e.exact {
            prop_assert_eq!((e.distance, e.target_end), (best, best_j));
            prop_assert_eq!(e.cigar.query_len(), p.len());
            prop_assert_eq!(e.cigar.target_len(), e.target_end);
            prop_assert_eq!(e.cigar.edit_distance(), best as usize);
        } else {
            prop_assert!(e.distance >= best);
        }
    }

    /// GACT's committed transcript is always internally consistent and its
    /// consumed spans never exceed the inputs.
    #[test]
    fn gact_consistency(q in codes(600), t in codes(600)) {
        let scoring = Scoring::bwa_mem();
        let config = GactConfig { tile_size: 96, overlap: 24 };
        let (a, stats) = gact_extend(&q, &t, &scoring, &config);
        prop_assert_eq!(a.cigar.score(&scoring), a.score);
        prop_assert_eq!(a.cigar.query_len(), a.query_len);
        prop_assert_eq!(a.cigar.target_len(), a.target_len);
        prop_assert!(a.query_len <= q.len());
        prop_assert!(a.target_len <= t.len());
        prop_assert!(stats.dp_cells <= stats.tiles.max(1) * (96 * 96));
    }

    /// Local alignment is symmetric up to swapping insertion/deletion
    /// roles: score(q, t) == score(t, q).
    #[test]
    fn local_alignment_is_symmetric(q in codes(25), t in codes(25)) {
        let scoring = Scoring::bwa_mem();
        prop_assert_eq!(
            local_align(&q, &t, &scoring).score,
            local_align(&t, &q, &scoring).score
        );
    }

    /// Appending characters to the target never lowers the local score.
    #[test]
    fn local_score_monotone_in_target(q in codes(20), t in codes(20), extra in codes(5)) {
        let scoring = Scoring::bwa_mem();
        let base = local_align(&q, &t, &scoring).score;
        let mut longer = t.clone();
        longer.extend_from_slice(&extra);
        prop_assert!(local_align(&q, &longer, &scoring).score >= base);
    }

    /// The optimized kernels (the rolling-row fill of the local and global
    /// variants, the wavefront fill of the extension) are bit-identical to
    /// the retained reference implementations — scores, spans and
    /// tracebacks, not just scores — at GACT tile scale: m != n, empty
    /// sides, alphabets of 1 (homopolymer: every maximum tied, which pins
    /// the first-strict-maximum rule) to 6 (codes >= 4 on both sides), six
    /// scorings including free gap open and free gap extension and two
    /// whose `i16` lane bound falls inside these shapes (gap extension 60,
    /// match 150), so the extension runs at both lane widths, and one
    /// scratch going large -> small -> large, so a stale traceback byte
    /// would be read if any could be.
    #[test]
    fn optimized_kernel_equals_naive(
        q in proptest::collection::vec(0u8..60, 0..=300),
        t in proptest::collection::vec(0u8..60, 0..=300),
        alphabet in 1u8..=6,
        scheme in 0usize..6,
        related in any::<bool>(),
    ) {
        let scoring = [
            Scoring::bwa_mem(),
            Scoring::new(2, 3, 4, 1),
            Scoring::new(1, 1, 0, 1),
            Scoring::new(3, 2, 5, 0),
            Scoring::new(1, 4, 6, 60),
            Scoring::new(150, 20, 6, 1),
        ][scheme];
        let q: Vec<u8> = q.iter().map(|c| c % alphabet).collect();
        // Half the cases align a ~10 % substituted copy, so long paths occur.
        let t: Vec<u8> = t
            .iter()
            .enumerate()
            .map(|(k, &c)| if related && c >= 6 && k < q.len() { q[k] } else { c % alphabet })
            .collect();
        let mut dp = DpScratch::new();
        for (q, t) in [(&q[..], &t[..]), (&q[..q.len() / 3], &t[..t.len() / 4]), (&q[..], &t[..])] {
            prop_assert_eq!(
                extend_align_with(q, t, &scoring, &mut dp),
                naive::extend_align(q, t, &scoring)
            );
            prop_assert_eq!(
                local_align_with(q, t, &scoring, &mut dp),
                naive::local_align(q, t, &scoring)
            );
            prop_assert_eq!(
                global_align_with(q, t, &scoring, &mut dp),
                naive::global_align(q, t, &scoring)
            );
        }
    }

    /// The traceback's op usage matches the sequences: Match ops only on
    /// equal bases, Subst only on unequal.
    #[test]
    fn traceback_ops_match_bases(q in codes(25), t in codes(25)) {
        let scoring = Scoring::bwa_mem();
        let a = local_align(&q, &t, &scoring);
        let (mut qi, mut tj) = (a.query_start, a.target_start);
        for &(op, len) in a.cigar.runs() {
            for _ in 0..len {
                match op {
                    CigarOp::Match => {
                        prop_assert_eq!(q[qi], t[tj]);
                        qi += 1;
                        tj += 1;
                    }
                    CigarOp::Subst => {
                        prop_assert_ne!(q[qi], t[tj]);
                        qi += 1;
                        tj += 1;
                    }
                    CigarOp::Ins => qi += 1,
                    CigarOp::Del => tj += 1,
                }
            }
        }
        prop_assert_eq!((qi, tj), (a.query_end, a.target_end));
    }
}
