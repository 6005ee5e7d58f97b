//! Full affine-gap Smith-Waterman with traceback.
//!
//! Three variants: [`local_align`] (classic local alignment, zero-floored),
//! [`extend_align`] (anchored at the origin: the GACT tile kernel of the
//! long-read path) and [`global_align`] (both ends fixed: the glue between
//! chained seeds). All produce an exact [`Cigar`] via a packed traceback
//! matrix, like Darwin's GACT tiles do in SRAM.
//!
//! Two forward fills compute the same recurrence. The row fill (`fill_into`)
//! keeps a single rolling H row with the left/diagonal cells in registers,
//! hoists the gap constants out of the inner loop, and replaces the per-cell
//! substitution branch with a 4×n score profile selected by the row's query
//! base; the local and global variants run on it. The wavefront fill
//! (`extend_wavefront`) sweeps anti-diagonals, whose cells are independent,
//! so its inner loop vectorises; [`extend_align_with`] — over 90 % of a long
//! read — runs on it, on `i16` lanes where the call's score range fits and
//! compiled for the host's [`Isa`] level (AVX-512BW, AVX2 or the baseline
//! target). Both are bit-identical (ties, best cell, traceback) to the
//! references retained in [`naive`], the differential-testing oracle.

use std::ops::{Add, BitOr, Mul, Sub};

use nvwa_index::Isa;

use crate::cigar::{Cigar, CigarOp};
use crate::scoring::Scoring;

/// Sufficiently negative sentinel that never overflows when added to.
pub(crate) const NEG_INF: i32 = i32::MIN / 4;

/// The vector arms' wavefront step, one `zmm` of `i16`: whole chunks per
/// anti-diagonal, so no remainder loop; every fill buffer has one as slack.
const CHUNK: usize = 32;

/// Diagonals between two cuts of the wavefront fill's band: between cuts
/// the fill's control flow does not wait on its data.
const TRIM: usize = 8;

/// The query's and reversed target's padding: apart, and above an `i16` call's
/// codes, so that no padded cell there scores a match (`fits_i16`'s range).
const PADS: (u8, u8) = (u8::MAX - 1, u8::MAX);

/// The integer type of the wavefront fill's lanes: `i16` doubles the cells
/// per vector where [`fits_i16`] holds, `i32` takes every other call. One
/// body, [`extend_wavefront`], serves both.
trait Lane:
    Copy
    + Ord
    + From<bool>
    + From<u8>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + BitOr<Output = Self>
{
    /// The boundary sentinel, [`NEG_INF`]'s counterpart: a quarter of the
    /// range, so that `NEG - ge` never wraps.
    const NEG: Self;
    /// `v`, which the caller's range bound keeps inside the type.
    fn of(v: i32) -> Self;
    /// Back to `i32`.
    fn int(self) -> i32;
    /// This width's lane buffer in the scratch.
    fn lanes(s: &mut DpScratch) -> &mut Vec<Self>;
}

macro_rules! lane {
    ($t:ty, $field:ident) => {
        impl Lane for $t {
            const NEG: $t = <$t>::MIN / 4;
            fn of(v: i32) -> $t {
                debug_assert!(<$t>::try_from(v).is_ok(), "{v} outside the lane range");
                v as $t
            }
            fn int(self) -> i32 {
                self as i32
            }
            fn lanes(s: &mut DpScratch) -> &mut Vec<$t> {
                &mut s.$field
            }
        }
    };
}
lane!(i16, lanes16);
lane!(i32, lanes);

/// Whether the wavefront fill of an `m × n` call stays inside `i16`. Cell
/// `(i, j)` has a gap path (across, then down), so every H is at least
/// `-(2·go + ge·(m+n))`; E and F open one `gap_cost(1)` below it and
/// their extension tests one `ge` further, diag's partial sum one mismatch
/// below; the boundary sentinel less one `ge` must stay under all of
/// those. No H exceeds `match·min(m, n)`, and the diagonal counter reaches
/// `m + n` (the binding term when `ge = 0`). Every GACT tile under
/// [`Scoring::bwa_mem`] fits; a multi-kbp full-length call does not.
/// The padded rows ([`extend_wavefront`]) add no term: no padded cell scores
/// a match, so none exceeds its inputs; a padded E starts from the zeroed
/// lanes and falls one `ge` per diagonal, H ≥ E, and F opens from an H above.
fn fits_i16(m: usize, n: usize, scoring: &Scoring) -> bool {
    let (m, n) = (m as i64, n as i64);
    let (go, ge) = (scoring.gap_open as i64, scoring.gap_extend as i64);
    let (hit, miss) = (scoring.match_score as i64, scoring.mismatch_penalty as i64);
    let low = 2 * go + ge * (m + n) + (go + 2 * ge).max(miss);
    let high = (hit * m.min(n)).max(m + n).max(hit + miss);
    i16::NEG as i64 - ge < -low && high <= i16::MAX as i64
}

// Traceback encoding: bits 0-1 = H source, bit 2 = E extends E,
// bit 3 = F extends F.
pub(crate) const H_STOP: u8 = 0;
pub(crate) const H_DIAG: u8 = 1;
pub(crate) const H_FROM_E: u8 = 2; // gap consuming target (Del)
pub(crate) const H_FROM_F: u8 = 3; // gap consuming query (Ins)
pub(crate) const E_EXT: u8 = 1 << 2;
pub(crate) const F_EXT: u8 = 1 << 3;

/// Result of a local alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAlignment {
    /// Optimal local score (0 if no positive-scoring alignment exists).
    pub score: i32,
    /// Query span `[query_start, query_end)`.
    pub query_start: usize,
    /// Exclusive query end.
    pub query_end: usize,
    /// Target span `[target_start, target_end)`.
    pub target_start: usize,
    /// Exclusive target end.
    pub target_end: usize,
    /// Edit transcript of the aligned region.
    pub cigar: Cigar,
}

/// Result of an anchored extension alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionAlignment {
    /// Best score over all cells (0 for the empty extension).
    pub score: i32,
    /// Query bases consumed by the best extension.
    pub query_len: usize,
    /// Target bases consumed by the best extension.
    pub target_len: usize,
    /// Edit transcript from the anchor to the best cell.
    pub cigar: Cigar,
}

/// Number of DP cells a full matrix-fill touches (workload accounting for
/// the CPU cost model and Fig. 2).
pub fn dp_cells(query_len: usize, target_len: usize) -> u64 {
    query_len as u64 * target_len as u64
}

/// Reusable DP buffers for the SW and banded kernels: the packed traceback
/// matrix, rolling H rows, column-local F, the 4×n score profile, and the
/// wavefront fill's lanes at each width it runs (`i16` or `i32`, per call).
/// One instance per worker (inside `AlignScratch`) removes every per-call
/// allocation of the extension stage; results are bit-identical to the
/// allocating entry points.
#[derive(Debug, Clone, Default)]
pub struct DpScratch {
    pub(crate) tb: Vec<u8>,
    pub(crate) h: Vec<i32>,
    pub(crate) h2: Vec<i32>,
    pub(crate) f_col: Vec<i32>,
    score_tab: Vec<i32>,
    profile_row: Vec<i32>,
    /// The wavefront fill's seven row-indexed lane arrays, end to end, for
    /// calls past the `i16` bound.
    lanes: Vec<i32>,
    /// The same for calls inside it.
    lanes16: Vec<i16>,
    /// The wavefront fill's query and reversed target, each padded.
    query: Vec<u8>,
    rev_target: Vec<u8>,
    /// The wavefront fill's traceback layout: cell `(i, j)` is
    /// `tb[diag_base[i + j] + i]`.
    diag_base: Vec<usize>,
}

impl DpScratch {
    /// An empty scratch.
    pub fn new() -> DpScratch {
        DpScratch::default()
    }
}

/// Shared forward DP fill into caller-provided buffers. `LOCAL` selects the
/// zero-floored local recurrence; otherwise the anchored (extension/global)
/// recurrence with gap-scored boundaries. Comparisons are strict `>` in
/// diag → E → F order, exactly as in [`naive`], so scores, best cells and
/// tracebacks are identical. Returns the best cell `(score, i, j)` and the
/// last cell's score (for global alignment); the traceback matrix is left
/// in `s.tb`.
fn fill_into<const LOCAL: bool>(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> ((i32, usize, usize), i32) {
    let m = query.len();
    let n = target.len();
    let go1 = scoring.gap_cost(1);
    let ge = scoring.gap_extend;
    let DpScratch {
        tb,
        h,
        f_col,
        score_tab,
        profile_row,
        ..
    } = s;

    tb.clear();
    tb.resize((m + 1) * (n + 1), 0);
    // The rolling H row, holding row i-1 while row i is computed in place.
    h.clear();
    if LOCAL {
        h.resize(n + 1, 0);
    } else {
        h.reserve(n + 1);
        h.push(0);
        let mut b = -go1;
        for _ in 1..=n {
            h.push(b);
            b -= ge;
        }
        // Row 0 comes from E-gaps; mark for traceback.
        for (j, cell) in tb.iter_mut().enumerate().take(n + 1).skip(1) {
            *cell = H_FROM_E | if j > 1 { E_EXT } else { 0 };
        }
    }
    // F is column-local (gap consuming query): persists across rows.
    f_col.clear();
    f_col.resize(n + 1, NEG_INF);

    // 4×n substitution profile: row `c` scores code `c` against every
    // target base. A target code ≥ 4 equals none of 0..=3, so -mismatch
    // is exact for it too; query codes ≥ 4 fall back to direct scoring.
    score_tab.clear();
    score_tab.resize(4 * n, 0);
    for c in 0..4u8 {
        let row = &mut score_tab[c as usize * n..(c as usize + 1) * n];
        for (s, &t) in row.iter_mut().zip(target) {
            *s = scoring.score(c, t);
        }
    }

    let mut best = (0i32, 0usize, 0usize);
    let mut boundary = -go1;
    for i in 1..=m {
        let qc = query[i - 1] as usize;
        let row_scores: &[i32] = if qc < 4 {
            &score_tab[qc * n..(qc + 1) * n]
        } else {
            profile_row.clear();
            profile_row.extend(target.iter().map(|&t| scoring.score(qc as u8, t)));
            profile_row
        };
        let tb_row = &mut tb[i * (n + 1)..(i + 1) * (n + 1)];
        // E is row-local (gap consuming target): resets each row.
        let mut e = NEG_INF;
        let mut h_diag = h[0];
        let h0 = if LOCAL { 0 } else { boundary };
        h[0] = h0;
        if !LOCAL {
            tb_row[0] = H_FROM_F | if i > 1 { F_EXT } else { 0 };
            boundary -= ge;
        }
        let mut h_left = h0;
        for j in 1..=n {
            let e_open = h_left - go1;
            let e_ext = e - ge;
            let e_flag;
            (e, e_flag) = if e_ext > e_open {
                (e_ext, E_EXT)
            } else {
                (e_open, 0)
            };
            let up = h[j];
            let f_open = up - go1;
            let f_ext = f_col[j] - ge;
            let (f, f_flag) = if f_ext > f_open {
                (f_ext, F_EXT)
            } else {
                (f_open, 0)
            };
            f_col[j] = f;
            let diag = h_diag + row_scores[j - 1];

            let mut hv;
            let mut src;
            if LOCAL {
                hv = 0;
                src = H_STOP;
                if diag > hv {
                    hv = diag;
                    src = H_DIAG;
                }
            } else {
                hv = diag;
                src = H_DIAG;
            }
            if e > hv {
                hv = e;
                src = H_FROM_E;
            }
            if f > hv {
                hv = f;
                src = H_FROM_F;
            }
            h[j] = hv;
            tb_row[j] = src | e_flag | f_flag;
            h_left = hv;
            h_diag = up;
            if hv > best.0 {
                best = (hv, i, j);
            }
        }
    }
    (best, h[n])
}

/// Classic affine-gap local alignment (Smith-Waterman-Gotoh).
///
/// Returns the best-scoring local alignment; for the empty input or an
/// all-negative matrix the result has `score == 0` and an empty CIGAR.
/// Convenience wrapper over [`local_align_with`] with fresh buffers.
pub fn local_align(query: &[u8], target: &[u8], scoring: &Scoring) -> LocalAlignment {
    local_align_with(query, target, scoring, &mut DpScratch::new())
}

/// [`local_align`] with caller-provided DP buffers (zero allocations at
/// steady state, bit-identical result).
pub fn local_align_with(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> LocalAlignment {
    let n = target.len();
    let (best, _) = fill_into::<true>(query, target, scoring, s);
    let (score, bi, bj) = best;
    if score <= 0 {
        return LocalAlignment {
            score: 0,
            query_start: 0,
            query_end: 0,
            target_start: 0,
            target_end: 0,
            cigar: Cigar::new(),
        };
    }
    let (cigar, qi, tj) = traceback(&s.tb, n, bi, bj, query, target, true);
    LocalAlignment {
        score,
        query_start: qi,
        query_end: bi,
        target_start: tj,
        target_end: bj,
        cigar,
    }
}

/// Anchored extension alignment: both sequences start at the anchor (cell
/// (0,0) scores 0, no zero-floor) and the best cell anywhere wins.
///
/// This is the flank-extension step of seed-and-extend: the query flank is
/// extended into the reference window, soft-clipping whatever does not pay.
pub fn extend_align(query: &[u8], target: &[u8], scoring: &Scoring) -> ExtensionAlignment {
    extend_align_with(query, target, scoring, &mut DpScratch::new())
}

/// [`extend_align`] with caller-provided DP buffers: the GACT tile kernel.
/// Per call, the score range picks the wavefront fill's lane width (`i16`
/// inside the `fits_i16` bound for codes below 254, `i32` otherwise)
/// and [`Isa::host`] its arm; the answer is the same bit for bit. The
/// traceback matrix is `(m+1)·(n+1)` bytes, as the row fill's.
pub fn extend_align_with(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> ExtensionAlignment {
    if takes_i16(query, target, scoring) {
        extend_lanes::<i16>(query, target, scoring, s)
    } else {
        extend_lanes::<i32>(query, target, scoring, s)
    }
}

/// Whether [`extend_align_with`] runs `i16` lanes (codes below [`PADS`]).
fn takes_i16(query: &[u8], target: &[u8], scoring: &Scoring) -> bool {
    let below_pads = query.iter().chain(target).max().is_none_or(|&c| c < PADS.0);
    below_pads && fits_i16(query.len(), target.len(), scoring)
}

/// [`extend_align_with`] at lane width `L`, in the host's level's arm.
fn extend_lanes<L: Lane>(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> ExtensionAlignment {
    match Isa::host() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::host()` is this level: the CPU reports `avx512bw`.
        Isa::Avx512bw => unsafe { extend_wavefront_avx512::<L>(query, target, scoring, s) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::host()` is this level: the CPU reports `avx2`.
        Isa::Avx2 => unsafe { extend_wavefront_avx2::<L>(query, target, scoring, s) },
        _ => extend_one_lane::<L>(query, target, scoring, s),
    }
}

/// A vector arm of [`extend_align_with`]: the one body in whole [`CHUNK`]s,
/// with a level's features.
macro_rules! arm {
    ($name:ident, $feature:literal) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        fn $name<L: Lane>(
            q: &[u8],
            t: &[u8],
            sc: &Scoring,
            s: &mut DpScratch,
        ) -> ExtensionAlignment {
            extend_wavefront::<L, CHUNK>(q, t, sc, s)
        }
    };
}
arm!(extend_wavefront_avx2, "avx2");
arm!(extend_wavefront_avx512, "avx512bw");

/// The anchored recurrence filled one anti-diagonal at a time, as the
/// paper's systolic EU sweeps it (Fig. 7): the cells of diagonal `d = i + j`
/// read diagonals `d-1` and `d-2` only, so [`wavefront_cells`] vectorises.
/// Lanes are indexed by query row `i` (three H diagonals, two E, two F, the
/// per-row best), each `w` rows of one buffer, the H, E and F lanes rotated
/// by offset; the target is stored reversed so that row `i`'s base
/// `target[d-i-1]` is contiguous in `i`. The traceback codes are
/// `fill_into`'s, diagonal-major with the diagonals end to end
/// (`diag_base`), never cleared: the walk visits only cells this call
/// wrote. Generic over the lane width (the caller checks that `L` holds
/// every value) and inlined so that it compiles inside each feature-enabled
/// caller too.
///
/// Each diagonal fills only its live band `lo..hi` (DESIGN.md, "The live
/// band"): a cell whose H plus `match · min(m-i, n-j)` is below the best H
/// so far can be neither the answer nor on its traceback. `lo` never falls
/// and `hi` grows by at most a row per diagonal; every [`TRIM`] diagonals
/// the band is cut at both ends, and a band that empties ends the fill. A
/// window of whole chunks from row `a` to `b` reads rows `a-1 .. b` of the
/// diagonals before: row `a-1` (H, F) is set to the sentinel on every
/// diagonal, and the chunk past the last window's end when a window grows
/// past it, so no row read holds a cell from an older diagonal, which may
/// score more. A call with a code from [`PADS`] up, where padded rows can
/// score matches and feed `top`, runs the one-lane arm. The boundary cells
/// and row `d`'s best, which padded rows may overwrite, are written after
/// the fill. The baseline arm runs `C = 1`, LLVM's loop with its remainder:
/// on SSE2, which has no `i32` max, padded rows cost more than it does.
#[inline(always)]
fn extend_wavefront<L: Lane, const C: usize>(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> ExtensionAlignment {
    if C > 1 && query.iter().max().max(target.iter().max()) >= Some(&PADS.0) {
        // Padded rows may score matches here: one-lane chunks have none.
        return extend_one_lane::<L>(query, target, scoring, s);
    }
    let (m, n, w) = (query.len(), target.len(), query.len() + 1 + 2 * CHUNK);
    let (go1, ge) = (L::of(scoring.gap_cost(1)), L::of(scoring.gap_extend));
    let subst = (L::of(scoring.match_score), L::of(-scoring.mismatch_penalty));
    // Diagonal `d` holds rows `d.saturating_sub(n) ..= m.min(d)`; its base is
    // its offset less its first row, so that a cell is at `base + i`.
    let mut cells = 0;
    s.diag_base.clear();
    s.diag_base.extend((0..=m + n).map(|d| {
        let (lo, base) = (d.saturating_sub(n), cells);
        cells += m.min(d) + 1 - lo;
        base - lo
    }));
    if s.tb.len() < cells + CHUNK {
        s.tb.resize(cells + CHUNK, 0);
    }
    s.query.clear();
    s.query.extend(query.iter().chain(&[PADS.0; CHUNK]));
    s.rev_target.clear();
    s.rev_target
        .extend(target.iter().rev().chain(&[PADS.1; CHUNK]));
    // This width's lanes leave the scratch for the fill and go back after it.
    let mut all = std::mem::take(L::lanes(s));
    let (tb, diag_base) = (&mut s.tb[..], &s.diag_base[..]);
    let (padded_query, rev_target) = (&s.query[..], &s.rev_target[..]);
    all.clear();
    all.resize(9 * w, L::of(0));
    // Offsets of the lanes in `all`: H of `d-2`, `d-1`, `d`, E and F of
    // `d-1`, `d`, then each row's best and the first diagonal reaching it.
    let (mut h2, mut h1, mut h0, mut e1, mut e0, mut f1, mut f0) =
        (0, w, 2 * w, 3 * w, 4 * w, 5 * w, 6 * w);
    let (best, best_d) = (7 * w, 8 * w);
    // Every lane's best so far: `top` is the largest.
    let mut acc = [L::of(0); C];
    // Whether cell `(i, dd - i)` scoring `v` can no longer reach `top`.
    let gain = scoring.match_score as i64;
    let dead = |top: i64, dd: usize, i: usize, v: L| {
        (v.int() as i64) + gain * ((m - i).min(n + i - dd) as i64) < top
    };

    // Diagonal 0 is the anchor: H(0,0) = 0, already in `h1`; its band row 0.
    // No row from `end` up holds a cell of the two diagonals before.
    let (mut lo, mut hi, mut end) = (0, 1, 1);
    let mut boundary = L::of(-scoring.gap_cost(1));
    for d in 1..=m + n {
        let hi1 = hi;
        (lo, hi) = (lo.max(d.saturating_sub(n)), (hi + 1).min(m.min(d) + 1));
        // Interior rows `a..hi.min(d)`, in `k` whole chunks ending at `b`.
        let a = lo.max(1);
        let k = hi.min(d).saturating_sub(a).div_ceil(C);
        let (b, base) = (a + k * C, diag_base[d]);
        if b > end {
            // The window reaches past the last one: the rows it reads there
            // become the sentinel (column 0's cell of `d - 1` is put back).
            for lane in [h2, h1, e1, f1] {
                all[lane + end..lane + end + C].copy_from_slice(&[L::NEG; C]);
            }
            if d - 1 <= m && d > 1 {
                all[h1 + d - 1] = boundary + ge;
            }
        }
        (all[h0 + a - 1], all[f0 + a - 1], end) = (L::NEG, L::NEG, b);
        let p = all.as_mut_ptr();
        // SAFETY: each piece is `k` chunks from row `a - 1` or `a`, so it
        // ends before row `b <= m + C` of its `w`-long lane in `all`; before
        // `m + C` in the padded query (rows from 1 read `query[i - 1]`) and
        // `n + C` in the padded reversed target (`b <= d + C - 1`); before
        // `cells + C` in `tb` (row `b - C` is at most diagonal `d`'s last).
        // The pieces written (`h0`, `e0`, `f0`, `tb`, `best`, `best_d`) are
        // lanes of their own, overlapping no other piece.
        unsafe {
            wavefront_cells::<L, C>(
                (L::of(d as i32), go1, ge, subst),
                rows(padded_query.as_ptr(), a - 1, k),
                rows(rev_target.as_ptr(), n + a - d, k),
                rows(p.add(h2), a - 1, k),
                rows(p.add(h1), a - 1, k),
                rows(p.add(h1), a, k),
                rows(p.add(e1), a, k),
                rows(p.add(f1), a - 1, k),
                rows_mut(p.add(h0), a, k),
                rows_mut(p.add(e0), a, k),
                rows_mut(p.add(f0), a, k),
                rows_mut(tb.as_mut_ptr(), base + a, k),
                rows_mut(p.add(best), a, k),
                rows_mut(p.add(best_d), a, k),
                &mut acc,
            );
        }
        // The gap-scored boundary: row 0 comes from E-gaps and never extends
        // an F, column 0 the other way round; row `d`'s best starts here.
        if d <= n {
            (all[h0], all[f0]) = (boundary, L::NEG);
            tb[base] = H_FROM_E | if d > 1 { E_EXT } else { 0 };
        }
        if d <= m {
            (all[h0 + d], all[e0 + d]) = (boundary, L::NEG);
            (all[best + d], all[best_d + d]) = (L::of(0), L::of(0));
            tb[base + d] = H_FROM_F | if d > 1 { F_EXT } else { 0 };
        }
        boundary = boundary - ge;
        if d % TRIM == 0 {
            // Cut the band while its end row is dead here and, if it was
            // live on `d - 1`, there too.
            let top = lane_max(&acc).int() as i64;
            let gone = |i: usize| {
                dead(top, d, i, all[h0 + i]) && (i >= hi1 || dead(top, d - 1, i, all[h1 + i]))
            };
            while lo < hi && gone(lo) {
                lo += 1;
            }
            while hi > lo && gone(hi - 1) {
                hi -= 1;
            }
            if lo == hi {
                break;
            }
        }
        (h2, h1, h0) = (h1, h0, h2);
        (e1, e0, f1, f0) = (e0, e1, f0, f1);
    }
    // Each row kept its maximum and the first diagonal reaching it: rows in
    // order under strict `>` give `fill_into`'s first row-major maximum.
    let (mut score, mut bi, mut bj) = (0i32, 0usize, 0usize);
    for i in 1..=m {
        if all[best + i].int() > score {
            let first = all[best_d + i].int() as usize;
            (score, bi, bj) = (all[best + i].int(), i, first - i);
        }
    }
    *L::lanes(s) = all;
    // (An empty extension, best cell (0, 0), walks to an empty CIGAR.)
    let (tb, diag_base) = (&s.tb[..], &s.diag_base[..]);
    let at = |i: usize, j: usize| diag_base[i + j] + i;
    let (cigar, qi, tj) = traceback_by(tb, at, bi, bj, query, target, false);
    debug_assert_eq!((qi, tj), (0, 0), "extension traceback must reach anchor");
    ExtensionAlignment {
        score,
        query_len: bi,
        target_len: bj,
        cigar,
    }
}

/// [`extend_wavefront`] in one-lane chunks, out of line: the baseline arm,
/// which the vector arms take for a call with a code from [`PADS`] up.
#[inline(never)]
fn extend_one_lane<L: Lane>(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> ExtensionAlignment {
    extend_wavefront::<L, 1>(query, target, scoring, s)
}

/// The largest lane of `acc`. Out of line, so compiled for the baseline
/// target: a horizontal max ends on `xmm`, and `scripts/check.sh` reads any
/// narrow max inside the fill's arms as a diagonal's remainder loop.
#[inline(never)]
fn lane_max<L: Lane, const C: usize>(acc: &[L; C]) -> L {
    acc.iter().fold(L::NEG, |top, &v| top.max(v))
}

/// `k` chunks of `C` from element `at` of `p`: the caller vouches that they
/// lie in one allocation and that nothing writes them while the slice lives.
#[inline(always)]
unsafe fn rows<'a, T, const C: usize>(p: *const T, at: usize, k: usize) -> &'a [[T; C]] {
    // SAFETY: the caller's.
    unsafe { std::slice::from_raw_parts(p.add(at).cast(), k) }
}

/// [`rows`], to be written: nothing else may read or write them meanwhile.
#[inline(always)]
unsafe fn rows_mut<'a, T, const C: usize>(p: *mut T, at: usize, k: usize) -> &'a mut [[T; C]] {
    // SAFETY: the caller's.
    unsafe { std::slice::from_raw_parts_mut(p.add(at).cast(), k) }
}

/// One anti-diagonal's chunks, lane `k` being one query row: `fill_into`'s
/// cell with its strict `>` in diag → E → F order. What makes LLVM vectorise
/// it: values through `max`, flags through `bool` → lane arithmetic with the
/// traceback code built at lane width and narrowed to a byte once (a code
/// assembled from bytes mixes widths, which kept the `i16` loop scalar), no
/// value-producing `if`; every slice a parameter of its own (pieces cut
/// inline from one buffer lose the no-alias facts), all of one length (no
/// bounds check) and a chunk a fixed-length loop (no remainder at [`CHUNK`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn wavefront_cells<L: Lane, const C: usize>(
    (d, go1, ge, (match_score, mismatch)): (L, L, L, (L, L)),
    q: &[[u8; C]],
    rt: &[[u8; C]],
    h_diag: &[[L; C]],
    h_up: &[[L; C]],
    h_left: &[[L; C]],
    e_left: &[[L; C]],
    f_up: &[[L; C]],
    h: &mut [[L; C]],
    e: &mut [[L; C]],
    f: &mut [[L; C]],
    tb: &mut [[u8; C]],
    best: &mut [[L; C]],
    best_d: &mut [[L; C]],
    top: &mut [L; C],
) {
    let (diag_code, f_code) = (L::from(H_DIAG), L::from(H_FROM_F));
    let (e_ext_code, f_ext_code) = (L::from(E_EXT), L::from(F_EXT));
    for c in 0..tb.len() {
        for k in 0..C {
            let (e_open, e_ext) = (h_left[c][k] - go1, e_left[c][k] - ge);
            let (f_open, f_ext) = (h_up[c][k] - go1, f_up[c][k] - ge);
            let (ev, fv) = (e_open.max(e_ext), f_open.max(f_ext));
            let eq = L::from(q[c][k] == rt[c][k]);
            let diag = h_diag[c][k] + mismatch + eq * (match_score - mismatch);
            let (from_e, hv) = (ev > diag, diag.max(ev));
            let (from_f, hv) = (fv > hv, hv.max(fv));
            (h[c][k], e[c][k], f[c][k]) = (hv, ev, fv);
            // H_DIAG, H_FROM_E or (either overridden) H_FROM_F.
            let code = (diag_code + L::from(from_e))
                | (f_code * L::from(from_f))
                | (e_ext_code * L::from(e_ext > e_open))
                | (f_ext_code * L::from(f_ext > f_open));
            tb[c][k] = code.int() as u8;
            // `d` exceeds every diagonal stored before it: a strict gain
            // moves the row's best there, anything else leaves it.
            best_d[c][k] = best_d[c][k].max(L::from(hv > best[c][k]) * d);
            best[c][k] = best[c][k].max(hv);
            top[k] = top[k].max(hv);
        }
    }
}

/// Global (end-to-end) affine alignment of `query` against `target`.
///
/// Both sequences are consumed entirely; used to glue the gaps between
/// chained seeds, where both endpoints are fixed by the flanking seeds.
pub fn global_align(query: &[u8], target: &[u8], scoring: &Scoring) -> ExtensionAlignment {
    global_align_with(query, target, scoring, &mut DpScratch::new())
}

/// [`global_align`] with caller-provided DP buffers.
pub fn global_align_with(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    s: &mut DpScratch,
) -> ExtensionAlignment {
    let m = query.len();
    let n = target.len();
    if m == 0 || n == 0 {
        // Pure gap (or empty) alignment.
        let mut cigar = Cigar::new();
        if m > 0 {
            cigar.push(CigarOp::Ins, m as u32);
        }
        if n > 0 {
            cigar.push(CigarOp::Del, n as u32);
        }
        return ExtensionAlignment {
            score: cigar.score(scoring),
            query_len: m,
            target_len: n,
            cigar,
        };
    }
    let (_, last) = fill_into::<false>(query, target, scoring, s);
    let (cigar, qi, tj) = traceback(&s.tb, n, m, n, query, target, false);
    debug_assert_eq!((qi, tj), (0, 0), "global traceback must reach origin");
    ExtensionAlignment {
        score: last,
        query_len: m,
        target_len: n,
        cigar,
    }
}

/// Walks a row-major `(m+1) × (n+1)` traceback matrix from `(bi, bj)` back to
/// a stop cell (local) or the origin (extension). Returns the
/// forward-oriented CIGAR and the start cell. Shared with the banded aligner.
pub(crate) fn traceback(
    tb: &[u8],
    n: usize,
    i: usize,
    j: usize,
    query: &[u8],
    target: &[u8],
    local: bool,
) -> (Cigar, usize, usize) {
    traceback_by(tb, |i, j| i * (n + 1) + j, i, j, query, target, local)
}

/// The one traceback walker: [`traceback`] over any cell layout, cell
/// `(i, j)` being `tb[at(i, j)]`.
fn traceback_by(
    tb: &[u8],
    at: impl Fn(usize, usize) -> usize,
    mut i: usize,
    mut j: usize,
    query: &[u8],
    target: &[u8],
    local: bool,
) -> (Cigar, usize, usize) {
    let mut cigar = Cigar::new();
    // Which matrix we are in: 0 = H, 1 = E, 2 = F.
    let mut state = 0u8;
    loop {
        if i == 0 && j == 0 {
            break;
        }
        let cell = tb[at(i, j)];
        match state {
            0 => {
                let src = cell & 0b11;
                match src {
                    H_STOP if local => break,
                    H_DIAG => {
                        let op = if query[i - 1] == target[j - 1] {
                            CigarOp::Match
                        } else {
                            CigarOp::Subst
                        };
                        cigar.push(op, 1);
                        i -= 1;
                        j -= 1;
                    }
                    H_FROM_E => state = 1,
                    H_FROM_F => state = 2,
                    _ => unreachable!("invalid traceback state at ({i},{j})"),
                }
            }
            1 => {
                // E consumed target[j-1].
                cigar.push(CigarOp::Del, 1);
                let extended = cell & E_EXT != 0;
                j -= 1;
                if !extended {
                    state = 0;
                }
            }
            _ => {
                // F consumed query[i-1].
                cigar.push(CigarOp::Ins, 1);
                let extended = cell & F_EXT != 0;
                i -= 1;
                if !extended {
                    state = 0;
                }
            }
        }
    }
    cigar.reverse();
    (cigar, i, j)
}

/// Reference implementations: the original two-row fills with a per-cell
/// scoring call. Not used by the pipeline — kept as the differential-
/// testing oracle for the optimized `fill_into` (unit tests here and the
/// property tests in `tests/proptests.rs` compare against them).
pub mod naive {
    use super::*;

    /// Reference [`local_align`](super::local_align).
    pub fn local_align(query: &[u8], target: &[u8], scoring: &Scoring) -> LocalAlignment {
        let m = query.len();
        let n = target.len();
        let mut h_prev = vec![0i32; n + 1];
        let mut h_curr = vec![0i32; n + 1];
        // F is column-local (gap consuming query): persists across rows.
        let mut f_col = vec![NEG_INF; n + 1];
        let mut tb = vec![0u8; (m + 1) * (n + 1)];

        let mut best = (0i32, 0usize, 0usize);
        for i in 1..=m {
            // E is row-local (gap consuming target): resets each row.
            let mut e = NEG_INF;
            h_curr[0] = 0;
            for j in 1..=n {
                let e_open = h_curr[j - 1] - scoring.gap_cost(1);
                let e_ext = e - scoring.gap_extend;
                let e_flag;
                (e, e_flag) = if e_ext > e_open {
                    (e_ext, E_EXT)
                } else {
                    (e_open, 0)
                };
                let f_open = h_prev[j] - scoring.gap_cost(1);
                let f_ext = f_col[j] - scoring.gap_extend;
                let f_flag;
                (f_col[j], f_flag) = if f_ext > f_open {
                    (f_ext, F_EXT)
                } else {
                    (f_open, 0)
                };
                let diag = h_prev[j - 1] + scoring.score(query[i - 1], target[j - 1]);

                let mut h = 0i32;
                let mut src = H_STOP;
                if diag > h {
                    h = diag;
                    src = H_DIAG;
                }
                if e > h {
                    h = e;
                    src = H_FROM_E;
                }
                if f_col[j] > h {
                    h = f_col[j];
                    src = H_FROM_F;
                }
                h_curr[j] = h;
                tb[i * (n + 1) + j] = src | e_flag | f_flag;
                if h > best.0 {
                    best = (h, i, j);
                }
            }
            std::mem::swap(&mut h_prev, &mut h_curr);
        }

        let (score, bi, bj) = best;
        if score <= 0 {
            return LocalAlignment {
                score: 0,
                query_start: 0,
                query_end: 0,
                target_start: 0,
                target_end: 0,
                cigar: Cigar::new(),
            };
        }
        let (cigar, qi, tj) = traceback(&tb, n, bi, bj, query, target, true);
        LocalAlignment {
            score,
            query_start: qi,
            query_end: bi,
            target_start: tj,
            target_end: bj,
            cigar,
        }
    }

    /// Reference [`extend_align`](super::extend_align).
    pub fn extend_align(query: &[u8], target: &[u8], scoring: &Scoring) -> ExtensionAlignment {
        let m = query.len();
        let n = target.len();
        let mut h_prev: Vec<i32> = (0..=n)
            .map(|j| {
                if j == 0 {
                    0
                } else {
                    -scoring.gap_cost(j as u32)
                }
            })
            .collect();
        let mut h_curr = vec![NEG_INF; n + 1];
        let mut f_col = vec![NEG_INF; n + 1];
        let mut tb = vec![0u8; (m + 1) * (n + 1)];
        // Row 0 comes from E-gaps; mark for traceback.
        for cell in tb.iter_mut().take(n + 1).skip(1) {
            *cell = H_FROM_E | E_EXT;
        }
        if n >= 1 {
            tb[1] = H_FROM_E;
        }

        let mut best = (0i32, 0usize, 0usize);
        for i in 1..=m {
            let mut e = NEG_INF;
            h_curr[0] = -scoring.gap_cost(i as u32);
            tb[i * (n + 1)] = H_FROM_F | if i > 1 { F_EXT } else { 0 };
            for j in 1..=n {
                let e_open = h_curr[j - 1] - scoring.gap_cost(1);
                let e_ext = e - scoring.gap_extend;
                let e_flag;
                (e, e_flag) = if e_ext > e_open {
                    (e_ext, E_EXT)
                } else {
                    (e_open, 0)
                };
                let f_open = h_prev[j] - scoring.gap_cost(1);
                let f_ext = f_col[j] - scoring.gap_extend;
                let f_flag;
                (f_col[j], f_flag) = if f_ext > f_open {
                    (f_ext, F_EXT)
                } else {
                    (f_open, 0)
                };
                let diag = h_prev[j - 1] + scoring.score(query[i - 1], target[j - 1]);

                let mut h = diag;
                let mut src = H_DIAG;
                if e > h {
                    h = e;
                    src = H_FROM_E;
                }
                if f_col[j] > h {
                    h = f_col[j];
                    src = H_FROM_F;
                }
                h_curr[j] = h;
                tb[i * (n + 1) + j] = src | e_flag | f_flag;
                if h > best.0 {
                    best = (h, i, j);
                }
            }
            std::mem::swap(&mut h_prev, &mut h_curr);
        }

        let (score, bi, bj) = best;
        if bi == 0 && bj == 0 {
            return ExtensionAlignment {
                score: 0,
                query_len: 0,
                target_len: 0,
                cigar: Cigar::new(),
            };
        }
        let (cigar, qi, tj) = traceback(&tb, n, bi, bj, query, target, false);
        debug_assert_eq!((qi, tj), (0, 0), "extension traceback must reach anchor");
        ExtensionAlignment {
            score,
            query_len: bi,
            target_len: bj,
            cigar,
        }
    }

    /// Reference [`global_align`](super::global_align).
    pub fn global_align(query: &[u8], target: &[u8], scoring: &Scoring) -> ExtensionAlignment {
        let m = query.len();
        let n = target.len();
        if m == 0 || n == 0 {
            // Pure gap (or empty) alignment.
            let mut cigar = Cigar::new();
            if m > 0 {
                cigar.push(CigarOp::Ins, m as u32);
            }
            if n > 0 {
                cigar.push(CigarOp::Del, n as u32);
            }
            return ExtensionAlignment {
                score: cigar.score(scoring),
                query_len: m,
                target_len: n,
                cigar,
            };
        }
        let mut h_prev: Vec<i32> = (0..=n)
            .map(|j| {
                if j == 0 {
                    0
                } else {
                    -scoring.gap_cost(j as u32)
                }
            })
            .collect();
        let mut h_curr = vec![NEG_INF; n + 1];
        let mut f_col = vec![NEG_INF; n + 1];
        let mut tb = vec![0u8; (m + 1) * (n + 1)];
        for (j, cell) in tb.iter_mut().enumerate().take(n + 1).skip(1) {
            *cell = H_FROM_E | if j > 1 { E_EXT } else { 0 };
        }
        for i in 1..=m {
            let mut e = NEG_INF;
            h_curr[0] = -scoring.gap_cost(i as u32);
            tb[i * (n + 1)] = H_FROM_F | if i > 1 { F_EXT } else { 0 };
            for j in 1..=n {
                let e_open = h_curr[j - 1] - scoring.gap_cost(1);
                let e_ext = e - scoring.gap_extend;
                let e_flag;
                (e, e_flag) = if e_ext > e_open {
                    (e_ext, E_EXT)
                } else {
                    (e_open, 0)
                };
                let f_open = h_prev[j] - scoring.gap_cost(1);
                let f_ext = f_col[j] - scoring.gap_extend;
                let f_flag;
                (f_col[j], f_flag) = if f_ext > f_open {
                    (f_ext, F_EXT)
                } else {
                    (f_open, 0)
                };
                let diag = h_prev[j - 1] + scoring.score(query[i - 1], target[j - 1]);
                let mut h = diag;
                let mut src = H_DIAG;
                if e > h {
                    h = e;
                    src = H_FROM_E;
                }
                if f_col[j] > h {
                    h = f_col[j];
                    src = H_FROM_F;
                }
                h_curr[j] = h;
                tb[i * (n + 1) + j] = src | e_flag | f_flag;
            }
            std::mem::swap(&mut h_prev, &mut h_curr);
        }
        let score = h_prev[n];
        let (cigar, qi, tj) = traceback(&tb, n, m, n, query, target, false);
        debug_assert_eq!((qi, tj), (0, 0), "global traceback must reach origin");
        ExtensionAlignment {
            score,
            query_len: m,
            target_len: n,
            cigar,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(s: &str) -> Vec<u8> {
        s.chars()
            .map(|c| match c {
                'A' => 0u8,
                'C' => 1,
                'G' => 2,
                'T' => 3,
                _ => panic!("bad base"),
            })
            .collect()
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let s = codes("ACGTACGTTG");
        let a = local_align(&s, &s, &Scoring::bwa_mem());
        assert_eq!(a.score, 10);
        assert_eq!(a.cigar.to_string(), "10=");
        assert_eq!((a.query_start, a.query_end), (0, 10));
    }

    #[test]
    fn substitution_is_penalized() {
        let q = codes("ACGTACGTTG");
        let t = codes("ACGTCCGTTG"); // one substitution
        let a = local_align(&q, &t, &Scoring::bwa_mem());
        // Full alignment: 9 matches - 4 = 5; clipping to the longest exact
        // run gives 5=. Both score 5; either is optimal, implementation
        // should find score 5.
        assert_eq!(a.score, 5);
    }

    #[test]
    fn gap_alignment() {
        let q = codes("ACGTACGTTTTT");
        let t = codes("ACGTCGTTTTT"); // A deleted from target
        let a = local_align(&q, &t, &Scoring::bwa_mem());
        // 11 matches - gap(1)=7 → 4, vs clip to 7 matches (TTTT+CGT...)
        // actually the best is the 8-long suffix run: "CGTTTTT" = 7.
        assert!(a.score >= 4);
        assert_eq!(a.cigar.score(&Scoring::bwa_mem()), a.score);
    }

    #[test]
    fn cigar_score_matches_reported_score_local() {
        let scoring = Scoring::bwa_mem();
        let mut state = 7u64;
        let mut rand = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for _ in 0..30 {
            let q: Vec<u8> = (0..30).map(|_| rand(4) as u8).collect();
            let t: Vec<u8> = (0..35).map(|_| rand(4) as u8).collect();
            let a = local_align(&q, &t, &scoring);
            assert_eq!(a.cigar.score(&scoring), a.score, "q={q:?} t={t:?}");
            assert_eq!(a.cigar.query_len(), a.query_end - a.query_start);
            assert_eq!(a.cigar.target_len(), a.target_end - a.target_start);
        }
    }

    #[test]
    fn cigar_ops_are_consistent_with_sequences() {
        let scoring = Scoring::bwa_mem();
        let q = codes("ACGTACGTACGTACGT");
        let t = codes("ACGTACGGACGTACGT");
        let a = local_align(&q, &t, &scoring);
        let (mut qi, mut tj) = (a.query_start, a.target_start);
        for &(op, len) in a.cigar.runs() {
            for _ in 0..len {
                match op {
                    CigarOp::Match => {
                        assert_eq!(q[qi], t[tj]);
                        qi += 1;
                        tj += 1;
                    }
                    CigarOp::Subst => {
                        assert_ne!(q[qi], t[tj]);
                        qi += 1;
                        tj += 1;
                    }
                    CigarOp::Ins => qi += 1,
                    CigarOp::Del => tj += 1,
                }
            }
        }
        assert_eq!((qi, tj), (a.query_end, a.target_end));
    }

    #[test]
    fn extension_consumes_from_anchor() {
        let q = codes("ACGTAC");
        let t = codes("ACGTACGGG");
        let a = extend_align(&q, &t, &Scoring::bwa_mem());
        assert_eq!(a.score, 6);
        assert_eq!(a.query_len, 6);
        assert_eq!(a.target_len, 6);
        assert_eq!(a.cigar.to_string(), "6=");
    }

    #[test]
    fn extension_handles_indels() {
        // Query has an extra base vs target.
        let q = codes("ACGTTACGCCCC");
        let t = codes("ACGTACGCCCC");
        let a = extend_align(&q, &t, &Scoring::bwa_mem());
        // 11 matches - gap(1) = 11 - 7 = 4; or clip at the first 4 (=4).
        // Full-length extension should win ties on score >= 4.
        assert!(a.score >= 4);
        assert_eq!(a.cigar.score(&Scoring::bwa_mem()), a.score);
    }

    #[test]
    fn extension_of_empty_inputs() {
        let a = extend_align(&[], &codes("ACG"), &Scoring::bwa_mem());
        assert_eq!(a.score, 0);
        assert!(a.cigar.is_empty());
        let b = extend_align(&codes("ACG"), &[], &Scoring::bwa_mem());
        assert_eq!(b.score, 0);
    }

    #[test]
    fn local_align_of_disjoint_sequences_is_single_base_or_zero() {
        let q = codes("AAAA");
        let t = codes("TTTT");
        let a = local_align(&q, &t, &Scoring::bwa_mem());
        assert_eq!(a.score, 0);
        assert!(a.cigar.is_empty());
    }

    #[test]
    fn global_align_consumes_everything() {
        let scoring = Scoring::bwa_mem();
        let q = codes("ACGTACGT");
        let t = codes("ACGACGT"); // T deleted
        let a = global_align(&q, &t, &scoring);
        assert_eq!(a.query_len, 8);
        assert_eq!(a.target_len, 7);
        assert_eq!(a.cigar.query_len(), 8);
        assert_eq!(a.cigar.target_len(), 7);
        assert_eq!(a.cigar.score(&scoring), a.score);
        assert_eq!(a.score, 7 - 7); // 7 matches - gap_cost(1)
    }

    #[test]
    fn global_align_empty_sides_are_pure_gaps() {
        let scoring = Scoring::bwa_mem();
        let a = global_align(&[], &codes("ACG"), &scoring);
        assert_eq!(a.cigar.to_string(), "3D");
        assert_eq!(a.score, -(6 + 3));
        let b = global_align(&codes("AC"), &[], &scoring);
        assert_eq!(b.cigar.to_string(), "2I");
        let c = global_align(&[], &[], &scoring);
        assert_eq!(c.score, 0);
        assert!(c.cigar.is_empty());
    }

    #[test]
    fn dp_cells_accounting() {
        assert_eq!(dp_cells(10, 20), 200);
        assert_eq!(dp_cells(0, 20), 0);
    }

    /// Brute-force optimal local score by enumerating all substring pairs on
    /// tiny inputs, with a simple recursive affine aligner.
    #[test]
    fn local_score_matches_exhaustive_small() {
        let scoring = Scoring::new(2, 3, 4, 1);
        let q = codes("GATTACA");
        let t = codes("GCATGCT");
        let a = local_align(&q, &t, &scoring);
        // Exhaustive: global-align every substring pair, take the max.
        let mut best = 0i32;
        for qs in 0..q.len() {
            for qe in qs + 1..=q.len() {
                for ts in 0..t.len() {
                    for te in ts + 1..=t.len() {
                        best = best.max(global_affine(&q[qs..qe], &t[ts..te], &scoring));
                    }
                }
            }
        }
        assert_eq!(a.score, best);
    }

    fn global_affine(q: &[u8], t: &[u8], s: &Scoring) -> i32 {
        let (m, n) = (q.len(), t.len());
        let mut h = vec![vec![NEG_INF; n + 1]; m + 1];
        let mut e = vec![vec![NEG_INF; n + 1]; m + 1];
        let mut f = vec![vec![NEG_INF; n + 1]; m + 1];
        h[0][0] = 0;
        for j in 1..=n {
            e[0][j] = (h[0][j - 1] - s.gap_cost(1)).max(e[0][j - 1] - s.gap_extend);
            h[0][j] = e[0][j];
        }
        for i in 1..=m {
            f[i][0] = (h[i - 1][0] - s.gap_cost(1)).max(f[i - 1][0] - s.gap_extend);
            h[i][0] = f[i][0];
            for j in 1..=n {
                e[i][j] = (h[i][j - 1] - s.gap_cost(1)).max(e[i][j - 1] - s.gap_extend);
                f[i][j] = (h[i - 1][j] - s.gap_cost(1)).max(f[i - 1][j] - s.gap_extend);
                h[i][j] = (h[i - 1][j - 1] + s.score(q[i - 1], t[j - 1]))
                    .max(e[i][j])
                    .max(f[i][j]);
            }
        }
        h[m][n]
    }

    #[test]
    fn optimized_kernel_matches_naive_oracle() {
        // Differential check on deterministic pseudo-random inputs across
        // all three entry points, including high-code (non-ACGT) bases.
        let mut state = 0x5eed_u64;
        let mut rand = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for round in 0..60 {
            let scoring = if round % 2 == 0 {
                Scoring::bwa_mem()
            } else {
                Scoring::new(2, 3, 4, 1)
            };
            let alphabet = if round % 5 == 0 { 6 } else { 4 };
            let qlen = rand(40);
            let tlen = rand(45);
            let q: Vec<u8> = (0..qlen).map(|_| rand(alphabet) as u8).collect();
            let t: Vec<u8> = (0..tlen).map(|_| rand(alphabet) as u8).collect();
            assert_eq!(
                local_align(&q, &t, &scoring),
                naive::local_align(&q, &t, &scoring),
                "local q={q:?} t={t:?}"
            );
            assert_eq!(
                extend_align(&q, &t, &scoring),
                naive::extend_align(&q, &t, &scoring),
                "extend q={q:?} t={t:?}"
            );
            assert_eq!(
                global_align(&q, &t, &scoring),
                naive::global_align(&q, &t, &scoring),
                "global q={q:?} t={t:?}"
            );
        }
    }

    /// The dispatching entry point, then every arm the host can run at each
    /// lane width the call admits (`i32` always, `i16` where
    /// [`extend_align_with`] takes it); all against the oracle and all
    /// through the caller's one scratch.
    fn assert_twins(q: &[u8], t: &[u8], scoring: &Scoring, s: &mut DpScratch, tag: &str) {
        let want = naive::extend_align(q, t, scoring);
        assert_eq!(extend_align_with(q, t, scoring, s), want, "dispatch {tag}");
        let arms = [Isa::Baseline, Isa::Avx2, Isa::Avx512bw];
        for isa in arms.into_iter().filter(|&isa| isa <= Isa::host()) {
            let got = arm_at::<i32>(isa, q, t, scoring, s);
            assert_eq!(got, want, "{isa:?} i32 {tag}");
            if takes_i16(q, t, scoring) {
                let got = arm_at::<i16>(isa, q, t, scoring, s);
                assert_eq!(got, want, "{isa:?} i16 {tag}");
            }
        }
    }

    /// [`extend_lanes`]' arm for `isa`, which must not be above the host's.
    fn arm_at<L: Lane>(
        isa: Isa,
        q: &[u8],
        t: &[u8],
        scoring: &Scoring,
        s: &mut DpScratch,
    ) -> ExtensionAlignment {
        assert!(isa <= Isa::host(), "{isa:?} is above this host");
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the CPU reports `avx512bw`: `isa` is at most its level.
            Isa::Avx512bw => unsafe { extend_wavefront_avx512::<L>(q, t, scoring, s) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the CPU reports `avx2`: `isa` is at most its level.
            Isa::Avx2 => unsafe { extend_wavefront_avx2::<L>(q, t, scoring, s) },
            _ => extend_wavefront::<L, 1>(q, t, scoring, s),
        }
    }

    fn lcg(mut state: u64) -> impl FnMut(usize) -> usize {
        move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        }
    }

    #[test]
    fn tile_kernel_twins_agree_with_the_oracle_at_tile_scale() {
        if Isa::host() < Isa::Avx512bw {
            let host = Isa::host().name();
            eprintln!("note: this host is at {host}, the arms above it are skipped");
        }
        let mut rand = lcg(0x7_11e5);
        let scorings = [
            Scoring::bwa_mem(),
            Scoring::new(2, 3, 4, 1),
            Scoring::new(1, 1, 0, 1),
            Scoring::new(3, 2, 5, 0),
            Scoring::new(1, 20, 6, 1),
            Scoring::new(5, 4, 6, 1),
        ];
        // (m, n, alphabet): 1 is the homopolymer (all-match, every maximum
        // tied), 2 is tie-heavy, 5 and 6 put codes >= 4 on both sides.
        let mut shapes = vec![
            (0, 0, 4),
            (0, 7, 4),
            (7, 0, 4),
            (1, 1, 1),
            (1, 1, 4),
            (1, 300, 4),
            (300, 1, 4),
            (256, 256, 1),
            (254, 256, 4),
            (300, 300, 2),
            (300, 300, 5),
        ];
        for _ in 0..60 {
            shapes.push((1 + rand(300), 1 + rand(300), [1, 2, 4, 4, 4, 6][rand(6)]));
        }
        // One scratch for every width, arm and shape of the run, its sizes
        // going large -> small -> large: stale bytes must never be read.
        let mut dp = DpScratch::new();
        for (round, &(m, n, alphabet)) in shapes.iter().enumerate() {
            let scoring = scorings[round % scorings.len()];
            let q: Vec<u8> = (0..m).map(|_| rand(alphabet) as u8).collect();
            let mut t: Vec<u8> = (0..n).map(|_| rand(alphabet) as u8).collect();
            if round % 7 == 3 {
                // All-mismatch: the target avoids every query code.
                t.iter_mut().for_each(|c| *c = alphabet as u8);
            } else if round % 3 == 0 {
                // A noisy copy, so that long diagonals and gaps both occur.
                t = q
                    .iter()
                    .flat_map(|&c| match rand(20) {
                        0 => vec![],
                        1 => vec![c, c],
                        2 => vec![(c + 1) % alphabet as u8],
                        _ => vec![c],
                    })
                    .chain(std::iter::repeat_n(0, n / 8))
                    .collect();
            }
            let tag = format!("m={m} n={} alphabet={alphabet} {scoring:?}", t.len());
            assert_twins(&q, &t, &scoring, &mut dp, &tag);
        }
    }

    /// Shapes exactly at the `i16` bound (the last `n` that fits for a given
    /// `m`) and one past it, under scorings whose bound is set by each of
    /// its terms: the gap extension, the match score, the mismatch, and the
    /// diagonal counter (`ge = 0`). Homopolymers reach the top of the range,
    /// all-mismatch inputs the bottom; in a debug build any `i16` overflow
    /// panics, so the bound is checked as well as the answers. Under the
    /// last and the first, `m` of 31, 32, 33 and 65 puts 1, 0 and 31 padded
    /// rows under the longest diagonals; a match of 990 with `m = 33 < n`
    /// takes the real top of the range to row 33, past which 31 padded rows
    /// that scored matches would overflow it.
    #[test]
    fn tile_kernel_twins_agree_at_the_i16_bound_and_one_past_it() {
        let mut rand = lcg(0xb0_0d);
        let cases: [(Scoring, &[usize]); 5] = [
            (Scoring::new(1, 4, 6, 60), &[1, 31, 32, 33, 60, 65, 133]),
            (Scoring::new(120, 4, 6, 1), &[274, 300, 600]),
            (Scoring::new(990, 4, 6, 1), &[33]),
            (Scoring::new(1, 20, 6, 1), &[1, 2, 40]),
            (Scoring::new(2, 3, 4, 0), &[1, 2, 3, 31, 32, 33, 65]),
        ];
        let mut dp = DpScratch::new();
        for (scoring, ms) in cases {
            for &m in ms {
                let edge = (0..)
                    .position(|n| !fits_i16(m, n, &scoring))
                    .expect("a bound")
                    - 1;
                for n in [edge, edge + 1] {
                    for (kind, q, t) in [
                        ("homopolymer", vec![0; m], vec![0; n]),
                        ("all-mismatch", vec![0; m], vec![1; n]),
                        (
                            "random",
                            (0..m).map(|_| rand(4) as u8).collect(),
                            (0..n).map(|_| rand(4) as u8).collect(),
                        ),
                    ] {
                        let tag = format!("{kind} m={m} n={n} (edge {edge}) {scoring:?}");
                        assert_twins(&q, &t, &scoring, &mut dp, &tag);
                    }
                }
            }
        }
    }

    #[test]
    fn every_gact_tile_takes_i16_and_a_full_length_read_i32() {
        let (tile, scoring) = (
            crate::gact::GactConfig::default().tile_size,
            Scoring::bwa_mem(),
        );
        for m in 0..=tile {
            for n in 0..=tile {
                assert!(fits_i16(m, n, &scoring), "tile {m} x {n}");
            }
        }
        // `examples/long_read_gact.rs`: a 5 kbp read against its window.
        assert!(!fits_i16(5_000, 5_200, &scoring));
    }

    /// A 5 kbp × 5 kbp call, past the `i16` bound, then a tile inside it and
    /// the large call again, through one scratch.
    #[test]
    fn tile_kernel_twins_agree_on_a_5_kbp_call() {
        let mut rand = lcg(0x5_000);
        let scoring = Scoring::bwa_mem();
        let q: Vec<u8> = (0..5_000).map(|_| rand(4) as u8).collect();
        // A noisy copy: substitutions and indels, so the path wanders.
        let t: Vec<u8> = q
            .iter()
            .flat_map(|&c| match rand(25) {
                0 => vec![],
                1 => vec![c, (c + 2) % 4],
                2 => vec![(c + 1) % 4],
                _ => vec![c],
            })
            .take(5_000)
            .collect();
        assert!(!fits_i16(q.len(), t.len(), &scoring));
        let mut dp = DpScratch::new();
        assert_twins(&q, &t, &scoring, &mut dp, "5 kbp");
        assert_twins(&q[..254], &t[..256], &scoring, &mut dp, "tile");
        assert_twins(&q, &t, &scoring, &mut dp, "5 kbp again");
    }

    /// A call with a code from [`PADS`] up runs `i32` lanes, where a padded
    /// cell may score a match that no real cell reads. All-255 against
    /// all-0 scores nothing real, so a padded row's best would show.
    #[test]
    fn codes_up_to_255_agree_with_the_oracle() {
        let mut rand = lcg(0xff);
        let mut dp = DpScratch::new();
        let mut cases = vec![(vec![255; 40], vec![0; 40]), (vec![254; 33], vec![1; 70])];
        for (m, lowest) in [(40, 0), (100, 250), (200, 254), (65, 255)] {
            let q: Vec<u8> = (0..m)
                .map(|_| (lowest + rand(256 - lowest)) as u8)
                .collect();
            // A noisy copy: one code in eight has its low bit flipped.
            let t: Vec<u8> = q.iter().map(|&c| c ^ u8::from(rand(8) == 0)).collect();
            cases.push((q, t));
        }
        for (q, t) in cases {
            let tag = format!("q={q:?} t={t:?}");
            assert_twins(&q, &t, &Scoring::bwa_mem(), &mut dp, &tag);
        }
    }

    /// A copy of `q` at `long_read`'s error profile: 4 % substitutions, 2 %
    /// insertions, 2 % deletions, each base drawn in hundredths.
    fn noisy_copy(q: &[u8], alphabet: u8, rand: &mut impl FnMut(usize) -> usize) -> Vec<u8> {
        q.iter()
            .flat_map(|&c| match rand(100) {
                0..=3 => vec![(c + 1 + rand(alphabet as usize - 1) as u8) % alphabet],
                4..=5 => vec![c, rand(alphabet as usize) as u8],
                6..=7 => vec![],
                _ => vec![c],
            })
            .collect()
    }

    /// The banded fill at GACT tile scale, every kind of tile through one
    /// scratch with sizes going large -> small -> large: 8 %-error noisy
    /// copies, flank-like tiles whose query runs out early, homopolymer and
    /// all-mismatch tiles, small tie-heavy tiles (free gaps among the
    /// scorings), shapes at the `i16` bound and one past it, and codes up to
    /// 255; each that fits one tile also as a GACT call, whose `dp_cells`
    /// stays the tile's area. A bound one too tight (`min(m-i, n-j) - 1`),
    /// a missing sentinel row (under the window or past the last one), or
    /// `top` fed from padded rows that score matches each fails here.
    #[test]
    fn banded_fill_agrees_with_the_oracle_on_gact_tiles() {
        let mut rand = lcg(0xba_9d);
        let scorings = [
            Scoring::bwa_mem(),
            Scoring::new(2, 3, 4, 1),
            Scoring::new(1, 1, 0, 1),
            Scoring::new(3, 2, 5, 0),
            Scoring::new(1, 20, 6, 1),
            Scoring::new(1, 1, 0, 0),
        ];
        let mut tiles: Vec<(Vec<u8>, Vec<u8>, Scoring, &str)> = Vec::new();
        for round in 0..12 {
            let scoring = scorings[round % scorings.len()];
            let (m, alphabet) = ([256, 200, 64, 256][round % 4], [4, 4, 2, 4][round / 4 % 4]);
            let q: Vec<u8> = (0..m).map(|_| rand(alphabet) as u8).collect();
            let mut t = noisy_copy(&q, alphabet as u8, &mut rand);
            t.resize(256, 0);
            tiles.push((q.clone(), t.clone(), scoring, "noisy"));
            // A flank: the query stops a third of the way into the window.
            let flank = q[..m / 3].to_vec();
            tiles.push((flank, t, scoring, "flank"));
        }
        for round in 0..600 {
            // Small tie-heavy tiles, their codes from 0 or from 254 up (the
            // padding's own, where a padded row scores matches).
            let (m, low) = (1 + rand(60), [0, 0, 254][round % 3]);
            let q: Vec<u8> = (0..m)
                .map(|_| low + rand(2 + (low == 0) as usize * 2) as u8)
                .collect();
            let t: Vec<u8> = (0..1 + rand(90))
                .map(|i| match i < m && rand(6) > 0 {
                    true => q[i],
                    false => low + rand(2) as u8,
                })
                .collect();
            tiles.push((q, t, scorings[round % scorings.len()], "small"));
        }
        for round in 0..48 {
            // A flank whose query runs out inside the window: one base in six
            // substituted, then the window runs on at random.
            let q: Vec<u8> = (0..8 + rand(200)).map(|_| rand(4) as u8).collect();
            let mut t: Vec<u8> = q
                .iter()
                .map(|&c| (c + u8::from(rand(6) == 0)) % 4)
                .collect();
            t.extend((q.len()..q.len() + rand(257 - q.len())).map(|_| rand(4) as u8));
            tiles.push((q, t, scorings[round % scorings.len()], "substituted flank"));
        }
        tiles.push((
            vec![0; 256],
            vec![0; 256],
            Scoring::bwa_mem(),
            "homopolymer",
        ));
        tiles.push((
            vec![0; 100],
            vec![0; 256],
            Scoring::bwa_mem(),
            "homopolymer flank",
        ));
        tiles.push((
            vec![0; 256],
            vec![1; 256],
            Scoring::bwa_mem(),
            "all-mismatch",
        ));
        for (scoring, m) in [
            (Scoring::new(1, 4, 6, 60), 65),
            (Scoring::new(2, 3, 4, 0), 33),
        ] {
            let edge = (0..)
                .position(|n| !fits_i16(m, n, &scoring))
                .expect("a bound")
                - 1;
            for n in [edge, edge + 1] {
                let q: Vec<u8> = (0..m).map(|_| rand(4) as u8).collect();
                let mut t = noisy_copy(&q, 4, &mut rand);
                t.resize(n, 2);
                tiles.push((q, t, scoring, "i16 edge"));
            }
        }
        for round in 0..40 {
            // Codes 254 and 255, the padding's own: a padded row scores
            // matches there, most of all against a target running on in 254s.
            let q: Vec<u8> = (0..8 + rand(120)).map(|_| rand(2) as u8).collect();
            let mut t = noisy_copy(&q, 2, &mut rand);
            t.resize(t.len() + [0, 8, 40][round % 3], 0);
            let (q, t) = (
                q.iter().map(|c| c + 254).collect(),
                t.iter().map(|c| c + 254).collect(),
            );
            tiles.push((q, t, scorings[round % scorings.len()], "high codes"));
        }
        let q: Vec<u8> = (0..120).map(|_| (250 + rand(6)) as u8).collect();
        let t: Vec<u8> = q.iter().map(|&c| c ^ u8::from(rand(8) == 0)).collect();
        tiles.push((q, t, Scoring::bwa_mem(), "high codes"));
        // Large -> small -> large through one scratch.
        let mut order: Vec<usize> = (0..tiles.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(tiles[i].0.len() * tiles[i].1.len()));
        let back: Vec<usize> = order.iter().rev().copied().collect();
        let mut dp = DpScratch::new();
        let gact = crate::gact::GactConfig::default();
        for &i in order.iter().chain(&back).chain(&order) {
            let (q, t, scoring, kind) = &tiles[i];
            let tag = format!("{kind} m={} n={} {scoring:?}", q.len(), t.len());
            assert_twins(q, t, scoring, &mut dp, &tag);
            if q.len().max(t.len()) > gact.tile_size {
                continue;
            }
            let (tile, stats) = crate::gact::gact_extend_with(q, t, scoring, &gact, &mut dp);
            assert_eq!(stats.tiles, 1, "{tag}");
            assert_eq!(stats.dp_cells, dp_cells(q.len(), t.len()), "{tag}");
            assert_eq!(
                tile.cigar,
                naive::extend_align(q, t, scoring).cigar,
                "{tag}"
            );
        }
    }
}
