//! Myers bit-parallel approximate string matching.
//!
//! GenASM (and the Bitap lineage the paper cites for the seed-extension
//! phase) accelerate extension with *edit-distance* automata rather than
//! scored dynamic programming. This module implements Myers' 1999
//! bit-vector algorithm — the software equivalent of those units — as one
//! multi-word, block-based kernel (Hyyrö's tiling, as used by Edlib) for
//! unbounded pattern lengths, with a diagonal band that discards entries
//! Scrooge-style: only the `u64` blocks overlapping the window
//! `|i - j| <= band` are computed per text column.
//!
//! The kernel stores the per-column `PV`/`MV` words it computed so a
//! traceback walk can recover the edit script; [`banded_edit_global`] and
//! [`banded_edit_extend`] return a [`Cigar`] on that path, which is how
//! the alignment pipeline swaps this kernel in for the banded
//! Smith-Waterman extension unit (see `crate::kernel`).
//! [`edit_distance_naive`] is the O(mn) DP oracle the kernel is tested
//! against.
//!
//! # Band semantics
//!
//! The band is *block-granular*: each column computes whole 64-row blocks
//! covering the window, and the detached top boundary is advanced with a
//! `+1` horizontal carry. This keeps every computed cell an **upper bound**
//! on the true edit DP, and makes it *exact* whenever the true distance is
//! at most `band` (an optimal path with `d <= band` edits never drifts more
//! than `band` rows off the main diagonal, so it stays inside the computed
//! window). Concretely: `distance <= band` if and only if the full-matrix
//! distance is `<= band`, and in that case the two are equal.

use crate::cigar::{Cigar, CigarOp};

/// Result of a banded edit alignment ([`banded_edit_global`] /
/// [`banded_edit_extend`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandedEdit {
    /// Edit distance (exact when `exact`, otherwise an upper bound).
    pub distance: u32,
    /// `distance <= band`, which per the band contract means `distance`
    /// equals the full-matrix optimum and `cigar` is an optimal script.
    /// When `false` the true distance also exceeds the band and callers
    /// should fall back to a wider method if they need the script.
    pub exact: bool,
    /// Text symbols consumed: `text.len()` for global mode, the chosen
    /// prefix end for extension mode.
    pub target_end: usize,
    /// Optimal edit script (empty when `!exact`). `Ins` consumes pattern,
    /// `Del` consumes text, matching [`crate::cigar`] conventions.
    pub cigar: Cigar,
}

const WORD: usize = 64;

/// Per-column traceback metadata: the block window and the score at the
/// window's tracked bottom row.
#[derive(Debug, Clone, Copy, Default)]
struct ColMeta {
    b_lo: u32,
    b_hi: u32,
    vbot: u32,
}

/// Reusable buffers for the multi-word kernel: the `Eq` table, the live
/// `PV`/`MV` blocks, and the stored per-column words + metadata consumed by
/// the traceback. One instance per worker; steady state is allocation-free.
#[derive(Debug, Default)]
pub struct MyersScratch {
    peq: Vec<u64>,
    pv: Vec<u64>,
    mv: Vec<u64>,
    tb_pv: Vec<u64>,
    tb_mv: Vec<u64>,
    meta: Vec<ColMeta>,
    ops: Vec<CigarOp>,
}

impl MyersScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> MyersScratch {
        MyersScratch::default()
    }
}

/// One 64-row block step of the Hyyrö/Edlib recurrence. `hin` is the
/// horizontal delta entering the block's top row (`-1`, `0` or `+1`);
/// the returned `(ph, mh)` are the pre-shift horizontal delta vectors, so
/// the caller can read the outgoing carry at bit 63 (or the pattern's last
/// row bit for the final block).
#[inline(always)]
fn step_block(pv: &mut u64, mv: &mut u64, eq: u64, hin: i32) -> (u64, u64) {
    let hin_neg = u64::from(hin < 0);
    let xv = eq | *mv;
    let eq = eq | hin_neg;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let mut ph_s = ph << 1;
    let mut mh_s = mh << 1;
    ph_s |= u64::from(hin > 0);
    mh_s |= hin_neg;
    *pv = mh_s | !(xv | ph_s);
    *mv = ph_s & xv;
    (ph, mh)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Both sequences fully consumed (Needleman-Wunsch distance).
    Global,
    /// Whole pattern against the best-scoring *prefix* of the text
    /// (free trailing text — the seed-extension shape).
    Extend,
}

/// Block index of a 1-based row.
#[inline]
fn block_of(row: usize) -> usize {
    (row - 1) / WORD
}

/// The row whose score the fill tracks for a given bottom block: the
/// pattern end for the last block, the block boundary otherwise.
#[inline]
fn tracked_row(b_hi: usize, nb: usize, m: usize) -> usize {
    if b_hi == nb - 1 {
        m
    } else {
        (b_hi + 1) * WORD
    }
}

/// Builds the 4-symbol `Eq` table, `peq[c * nb + b]`.
fn build_peq(pattern: &[u8], nb: usize, peq: &mut Vec<u64>) {
    peq.clear();
    peq.resize(4 * nb, 0);
    for (i, &c) in pattern.iter().enumerate() {
        assert!(c < 4, "codes must be in 0..4");
        peq[c as usize * nb + i / WORD] |= 1 << (i % WORD);
    }
}

/// Banded multi-word column fill. Returns `(distance, target_end)`:
/// for [`Mode::Global`] the (possibly clamped) distance at `(m, n)`, for
/// [`Mode::Extend`] the best row-`m` score over computed columns and its
/// column. When `store_tb`, per-column words and metadata are recorded in
/// the scratch for [`traceback_banded`]; `wpc` words are reserved per
/// column.
fn fill_banded(
    pattern: &[u8],
    text: &[u8],
    w: usize,
    s: &mut MyersScratch,
    mode: Mode,
    store_tb: bool,
) -> (u32, usize) {
    let m = pattern.len();
    let n = text.len();
    debug_assert!(m > 0 && n > 0 && w > 0);
    let nb = m.div_ceil(WORD);
    let wpc = nb.min(2 * w / WORD + 2);
    // Columns past `m + w` have an empty window (every row is more than
    // `w` above the diagonal); neither mode can find an in-band cell there.
    let jmax = n.min(m + w);

    build_peq(pattern, nb, &mut s.peq);
    s.pv.clear();
    s.pv.resize(nb, u64::MAX);
    s.mv.clear();
    s.mv.resize(nb, 0);
    if store_tb {
        s.meta.clear();
        s.meta.resize(jmax, ColMeta::default());
        s.tb_pv.clear();
        s.tb_pv.resize(jmax * wpc, 0);
        s.tb_mv.clear();
        s.tb_mv.resize(jmax * wpc, 0);
    }

    let mut cur_b_hi = block_of(m.min(1 + w));
    let mut vbot = tracked_row(cur_b_hi, nb, m) as u32;
    let mut best_dist = m as u32; // Extend: D[m][0] = m (empty prefix).
    let mut best_end = 0usize;
    for j in 1..=jmax {
        let c = text[j - 1] as usize;
        assert!(c < 4, "codes must be in 0..4");
        let b_lo = block_of(j.saturating_sub(w).max(1));
        let b_hi = block_of(m.min(j + w));
        if b_hi > cur_b_hi {
            // The window reached a pristine block below: its implied
            // vertical deltas are still all `+1`.
            vbot += (tracked_row(b_hi, nb, m) - tracked_row(cur_b_hi, nb, m)) as u32;
            cur_b_hi = b_hi;
        }
        // The top boundary always carries `+1`: row 0 in the attached
        // case, the detached upper-bound assumption otherwise.
        let mut hin: i32 = 1;
        for b in b_lo..b_hi {
            let (ph, mh) = step_block(&mut s.pv[b], &mut s.mv[b], s.peq[c * nb + b], hin);
            hin = ((ph >> 63) & 1) as i32 - ((mh >> 63) & 1) as i32;
        }
        let bit = if b_hi == nb - 1 { (m - 1) % WORD } else { 63 };
        let (ph, mh) = step_block(&mut s.pv[b_hi], &mut s.mv[b_hi], s.peq[c * nb + b_hi], hin);
        vbot = vbot
            .wrapping_add(((ph >> bit) & 1) as u32)
            .wrapping_sub(((mh >> bit) & 1) as u32);
        if store_tb {
            s.meta[j - 1] = ColMeta {
                b_lo: b_lo as u32,
                b_hi: b_hi as u32,
                vbot,
            };
            let base = (j - 1) * wpc;
            for (k, b) in (b_lo..=b_hi).enumerate() {
                s.tb_pv[base + k] = s.pv[b];
                s.tb_mv[base + k] = s.mv[b];
            }
        }
        if mode == Mode::Extend && b_hi == nb - 1 && vbot < best_dist {
            best_dist = vbot;
            best_end = j;
        }
    }

    match mode {
        Mode::Global => {
            // Clamp: pay for rows/columns the window never reached. Both
            // additions only fire when the true distance already exceeds
            // the band, so they preserve the upper-bound contract.
            let dist = vbot + (m - tracked_row(cur_b_hi, nb, m)) as u32 + (n - jmax) as u32;
            (dist, n)
        }
        Mode::Extend => (best_dist, best_end),
    }
}

/// Reads `D[row][col]` back from the stored column words, or `None` when
/// the cell is outside the column's computed window. `col == 0` and
/// `row == 0` use the anchored boundary values.
fn stored_cell(
    s: &MyersScratch,
    wpc: usize,
    nb: usize,
    m: usize,
    row: usize,
    col: usize,
) -> Option<u32> {
    if col == 0 {
        return Some(row as u32);
    }
    let meta = s.meta[col - 1];
    let (b_lo, b_hi) = (meta.b_lo as usize, meta.b_hi as usize);
    if row == 0 {
        return (b_lo == 0).then_some(col as u32);
    }
    let rbot = tracked_row(b_hi, nb, m);
    if row <= b_lo * WORD || row > rbot {
        return None;
    }
    // vbot is the score at `rbot`; subtract the vertical deltas of rows
    // (row, rbot] via masked popcounts of the stored PV/MV words.
    let mut v = meta.vbot as i64;
    let base = (col - 1) * wpc;
    for (k, b) in (b_lo..=b_hi).enumerate() {
        let lo_row = (b * WORD + 1).max(row + 1);
        let hi_row = (b * WORD + WORD).min(rbot);
        if lo_row > hi_row {
            continue;
        }
        let lo_bit = (lo_row - 1) % WORD;
        let hi_bit = (hi_row - 1) % WORD;
        let mask = (u64::MAX >> (63 - hi_bit)) & (u64::MAX << lo_bit);
        v -= (s.tb_pv[base + k] & mask).count_ones() as i64;
        v += (s.tb_mv[base + k] & mask).count_ones() as i64;
    }
    Some(v.max(0) as u32)
}

/// Walks the stored columns back from `(m, end)` (score `dist`) to the
/// anchor, emitting the edit script. Only called on the exact path, where
/// every step's verifying predecessor is inside the stored windows.
fn traceback_banded(
    pattern: &[u8],
    text: &[u8],
    s: &mut MyersScratch,
    wpc: usize,
    end: usize,
    dist: u32,
) -> Cigar {
    let m = pattern.len();
    let nb = m.div_ceil(WORD);
    let mut ops = std::mem::take(&mut s.ops);
    ops.clear();
    let (mut i, mut j, mut v) = (m, end, dist);
    while i > 0 || j > 0 {
        if j == 0 {
            ops.extend(std::iter::repeat_n(CigarOp::Ins, i));
            break;
        }
        if i == 0 {
            ops.extend(std::iter::repeat_n(CigarOp::Del, j));
            break;
        }
        let diag = stored_cell(s, wpc, nb, m, i - 1, j - 1);
        let up = stored_cell(s, wpc, nb, m, i - 1, j);
        let left = stored_cell(s, wpc, nb, m, i, j - 1);
        let is_match = pattern[i - 1] == text[j - 1];
        if is_match && diag == Some(v) {
            ops.push(CigarOp::Match);
            i -= 1;
            j -= 1;
        } else if v > 0 && diag == Some(v - 1) {
            ops.push(CigarOp::Subst);
            i -= 1;
            j -= 1;
            v -= 1;
        } else if v > 0 && up == Some(v - 1) {
            ops.push(CigarOp::Ins);
            i -= 1;
            v -= 1;
        } else if v > 0 && left == Some(v - 1) {
            ops.push(CigarOp::Del);
            j -= 1;
            v -= 1;
        } else {
            debug_assert!(false, "no verifying predecessor at ({i}, {j}) v {v}");
            // Defensive release-mode recovery: consume any available
            // neighbour; the script stays a valid alignment of the inputs.
            if let Some(d) = diag {
                ops.push(if is_match {
                    CigarOp::Match
                } else {
                    CigarOp::Subst
                });
                i -= 1;
                j -= 1;
                v = d;
            } else if let Some(u) = up {
                ops.push(CigarOp::Ins);
                i -= 1;
                v = u;
            } else {
                ops.push(CigarOp::Del);
                j -= 1;
                v = left.unwrap_or(v.saturating_sub(1));
            }
        }
    }
    let mut cigar = Cigar::new();
    for &op in ops.iter().rev() {
        cigar.push(op, 1);
    }
    s.ops = ops;
    cigar
}

fn banded_edit(
    pattern: &[u8],
    text: &[u8],
    band: usize,
    s: &mut MyersScratch,
    mode: Mode,
) -> BandedEdit {
    let m = pattern.len();
    let n = text.len();
    let w = band.max(1);
    if m == 0 || n == 0 {
        let (distance, target_end, op, len) = match mode {
            Mode::Global => (
                m.max(n) as u32,
                n,
                if m > 0 { CigarOp::Ins } else { CigarOp::Del },
                m.max(n),
            ),
            // Extending an empty pattern (or into empty text) consumes the
            // empty prefix: all-insertion, or nothing at all.
            Mode::Extend => (m as u32, 0, CigarOp::Ins, m),
        };
        let mut cigar = Cigar::new();
        let exact = distance as usize <= w;
        if exact && len > 0 {
            cigar.push(op, len as u32);
        }
        return BandedEdit {
            distance,
            exact,
            target_end,
            cigar,
        };
    }
    let nb = m.div_ceil(WORD);
    let wpc = nb.min(2 * w / WORD + 2);
    let (distance, target_end) = fill_banded(pattern, text, w, s, mode, true);
    let exact = distance as usize <= w;
    let cigar = if exact {
        traceback_banded(pattern, text, s, wpc, target_end, distance)
    } else {
        Cigar::new()
    };
    BandedEdit {
        distance,
        exact,
        target_end,
        cigar,
    }
}

/// Banded global edit alignment: both sequences fully consumed, only the
/// diagonal window `|i - j| <= band` computed (block-granular). See the
/// module docs for the exactness contract; when `exact`, `cigar` is an
/// optimal unit-cost edit script.
///
/// A `band` of `0` is treated as `1`; empty inputs are handled (the script
/// is all-insertion / all-deletion).
pub fn banded_edit_global(
    pattern: &[u8],
    text: &[u8],
    band: usize,
    s: &mut MyersScratch,
) -> BandedEdit {
    banded_edit(pattern, text, band, s, Mode::Global)
}

/// Banded extension: the whole `pattern` against the best *prefix* of
/// `text` (free trailing text), the seed-extension shape. Ties prefer the
/// shortest prefix. Same band contract as [`banded_edit_global`].
pub fn banded_edit_extend(
    pattern: &[u8],
    text: &[u8],
    band: usize,
    s: &mut MyersScratch,
) -> BandedEdit {
    banded_edit(pattern, text, band, s, Mode::Extend)
}

/// Naive O(mn) edit distance for validation.
pub fn edit_distance_naive(pattern: &[u8], text: &[u8]) -> u32 {
    let m = pattern.len();
    let n = text.len();
    let mut prev: Vec<u32> = (0..=n as u32).collect();
    let mut curr = vec![0u32; n + 1];
    for i in 1..=m {
        curr[0] = i as u32;
        for j in 1..=n {
            let sub = prev[j - 1] + u32::from(pattern[i - 1] != text[j - 1]);
            curr[j] = sub.min(prev[j] + 1).min(curr[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
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

    /// Asserts the script is a valid alignment of exactly `pattern` vs
    /// `text[..target_end]` with unit cost `distance`.
    fn assert_script(r: &BandedEdit, pattern: &[u8], text: &[u8]) {
        assert_eq!(r.cigar.query_len(), pattern.len(), "pattern consumed");
        assert_eq!(r.cigar.target_len(), r.target_end, "text consumed");
        assert_eq!(r.cigar.edit_distance(), r.distance as usize, "script cost");
        let (mut i, mut j) = (0usize, 0usize);
        for &(op, len) in r.cigar.runs() {
            for _ in 0..len {
                match op {
                    CigarOp::Match => {
                        assert_eq!(pattern[i], text[j], "match op at ({i}, {j})");
                        i += 1;
                        j += 1;
                    }
                    CigarOp::Subst => {
                        assert_ne!(pattern[i], text[j], "subst op at ({i}, {j})");
                        i += 1;
                        j += 1;
                    }
                    CigarOp::Ins => i += 1,
                    CigarOp::Del => j += 1,
                }
            }
        }
    }

    #[test]
    fn banded_global_full_band_equals_naive_with_script() {
        let mut s = MyersScratch::new();
        for seed in 0..12u64 {
            let m = 1 + (seed as usize * 17) % 150;
            let n = 1 + (seed as usize * 23) % 150;
            let p = rand_codes(m, seed);
            let t = rand_codes(n, seed ^ 0x5a5a);
            let band = m + n;
            let r = banded_edit_global(&p, &t, band, &mut s);
            assert!(r.exact, "full band is always exact");
            assert_eq!(r.distance, edit_distance_naive(&p, &t), "seed {seed}");
            assert_script(&r, &p, &t);
        }
    }

    #[test]
    fn banded_global_contract_under_narrow_band() {
        let mut s = MyersScratch::new();
        for seed in 0..16u64 {
            let m = 1 + (seed as usize * 19) % 120;
            let n = 1 + (seed as usize * 29) % 120;
            let p = rand_codes(m, seed ^ 1);
            let t = rand_codes(n, seed ^ 0xbeef);
            let full = edit_distance_naive(&p, &t);
            for band in [1usize, 4, 16, 48] {
                let r = banded_edit_global(&p, &t, band, &mut s);
                if full as usize <= band {
                    assert!(r.exact, "band {band} seed {seed}");
                    assert_eq!(r.distance, full, "band {band} seed {seed}");
                    assert_script(&r, &p, &t);
                } else {
                    assert!(!r.exact, "band {band} seed {seed}");
                    assert!(r.distance >= full, "band {band} seed {seed}");
                    assert!(r.cigar.is_empty());
                }
            }
        }
    }

    #[test]
    fn band_boundary_indel_at_exact_drift_limit() {
        // A single indel of exactly `band` symbols drifts the path to the
        // very edge of the window; the result must still be exact.
        for band in [4usize, 16, 32, 64] {
            let mut s = MyersScratch::new();
            let base = rand_codes(90, band as u64);
            // Deletion from the pattern: text has `band` extra symbols.
            let mut text = base[..45].to_vec();
            text.extend(std::iter::repeat_n(1u8, band));
            text.extend_from_slice(&base[45..]);
            let full = edit_distance_naive(&base, &text);
            assert!(full as usize <= band, "construction: {full} <= {band}");
            let r = banded_edit_global(&base, &text, band, &mut s);
            assert!(r.exact, "band {band}");
            assert_eq!(r.distance, full, "band {band}");
            assert_script(&r, &base, &text);
            // And one past the limit on a clean diagonal shift must clamp.
            let longer = [&text[..], &[2u8]].concat();
            let shifted = edit_distance_naive(&base, &longer);
            let r2 = banded_edit_global(&base, &longer, band, &mut s);
            assert!(r2.distance >= shifted);
        }
    }

    #[test]
    fn banded_extend_prefers_best_prefix() {
        let mut s = MyersScratch::new();
        let p = rand_codes(70, 77);
        // Text = pattern + junk: best prefix is exactly the pattern.
        let mut t = p.clone();
        t.extend(rand_codes(40, 123));
        let r = banded_edit_extend(&p, &t, 16, &mut s);
        assert_eq!(r.distance, 0);
        assert_eq!(r.target_end, 70);
        assert!(r.exact);
        assert_eq!(r.cigar.to_string(), "70=");
        assert_script(&r, &p, &t);
    }

    #[test]
    fn banded_extend_matches_naive_prefix_scan() {
        let mut s = MyersScratch::new();
        for seed in 0..10u64 {
            let m = 1 + (seed as usize * 13) % 90;
            let p = rand_codes(m, seed ^ 3);
            let t = rand_codes(m + 20, seed ^ 0x77);
            let band = m + t.len();
            let r = banded_edit_extend(&p, &t, band, &mut s);
            // Oracle: min over all text prefixes of the global distance.
            let best = (0..=t.len())
                .map(|j| edit_distance_naive(&p, &t[..j]))
                .min()
                .unwrap();
            assert_eq!(r.distance, best, "seed {seed}");
            assert_script(&r, &p, &t);
        }
    }

    #[test]
    fn banded_edit_empty_inputs() {
        let mut s = MyersScratch::new();
        let g = banded_edit_global(&[], &[0, 1, 2], 8, &mut s);
        assert_eq!((g.distance, g.target_end), (3, 3));
        assert_eq!(g.cigar.to_string(), "3D");
        let g = banded_edit_global(&[0, 1], &[], 8, &mut s);
        assert_eq!((g.distance, g.target_end), (2, 0));
        assert_eq!(g.cigar.to_string(), "2I");
        let e = banded_edit_extend(&[], &[0, 1], 8, &mut s);
        assert_eq!((e.distance, e.target_end), (0, 0));
        assert!(e.cigar.is_empty());
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let mut s = MyersScratch::new();
        let p = rand_codes(130, 9);
        let t = rand_codes(150, 11);
        let first = banded_edit_global(&p, &t, 24, &mut s);
        // Pollute with a differently-shaped call, then repeat.
        let _ = banded_edit_extend(&rand_codes(10, 1), &rand_codes(30, 2), 4, &mut s);
        let second = banded_edit_global(&p, &t, 24, &mut s);
        assert_eq!(first, second);
    }
}
