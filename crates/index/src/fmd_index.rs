//! Bidirectional FMD-index.
//!
//! BWA-MEM's SMEM search requires extending a match in *both* directions.
//! The FMD-index achieves this with a single FM-index over the text
//! `T = S · revcomp(S)`: because `T` is its own reverse complement, the
//! suffix-array interval of a pattern `W` and the interval of `revcomp(W)`
//! always have the same size, and a backward extension of one is a forward
//! extension of the other. A bi-interval tracks both.

use crate::fm_index::FmIndex;
use crate::trace::{MemAddr, NullTrace, TraceSink};

/// A bidirectional suffix-array interval.
///
/// `k` is the start of the interval of the current pattern `W`, `l` the start
/// of the interval of `revcomp(W)`, and `s` the (shared) size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BiInterval {
    /// Start of the interval of `W`.
    pub k: u64,
    /// Start of the interval of `revcomp(W)`.
    pub l: u64,
    /// Interval size (number of occurrences of `W` in `T`, counting both
    /// strands of `S`).
    pub s: u64,
}

impl BiInterval {
    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.s == 0
    }

    /// The bi-interval of `revcomp(W)` (swap directions).
    pub fn swapped(&self) -> BiInterval {
        BiInterval {
            k: self.l,
            l: self.k,
            s: self.s,
        }
    }
}

/// A strand-resolved occurrence of a pattern on the forward reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrandHit {
    /// 0-based position on the forward reference sequence.
    pub pos: usize,
    /// `true` if the *reverse complement* of the query matches at `pos`.
    pub is_rc: bool,
}

/// Bidirectional FM-index over `S · revcomp(S)`.
///
/// # Examples
///
/// ```
/// use nvwa_index::FmdIndex;
/// use nvwa_index::NullTrace;
/// let fmd = FmdIndex::from_forward(&[0, 1, 2, 3, 0, 0, 1]); // ACGTAAC
/// let bi = fmd.search(&[0, 1], &mut NullTrace).unwrap(); // "AC"
/// assert_eq!(bi.s, 3); // 2 forward occurrences + 1 "GT" on the reverse strand
/// ```
#[derive(Debug, Clone)]
pub struct FmdIndex {
    fm: FmIndex,
    forward_len: usize,
    lut: Option<PrefixLut>,
}

impl FmdIndex {
    /// Builds the FMD-index of a forward text (2-bit codes).
    ///
    /// # Panics
    ///
    /// Panics if any code is ≥ 4.
    pub fn from_forward(forward: &[u8]) -> FmdIndex {
        let text = FmdIndex::doubled_text(forward);
        FmdIndex {
            fm: FmIndex::from_text(&text),
            forward_len: forward.len(),
            lut: None,
        }
    }

    /// Assembles an FMD-index from a prebuilt FM-index.
    ///
    /// The caller must guarantee that `fm` indexes exactly
    /// `forward · revcomp(forward)` for a forward text of length
    /// `forward_len`; this exists so a shared suffix array can also feed a
    /// [`crate::sampled_sa::SampledSa`] without being rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if `fm.text_len() != 2 * forward_len`.
    pub fn from_parts(fm: FmIndex, forward_len: usize) -> FmdIndex {
        assert_eq!(
            fm.text_len(),
            2 * forward_len,
            "FM-index must cover the doubled text"
        );
        FmdIndex {
            fm,
            forward_len,
            lut: None,
        }
    }

    /// Builds the doubled text `forward · revcomp(forward)` that an FMD
    /// index is constructed over.
    pub fn doubled_text(forward: &[u8]) -> Vec<u8> {
        let mut text = Vec::with_capacity(forward.len() * 2);
        text.extend_from_slice(forward);
        text.extend(forward.iter().rev().map(|&c| 3 - c));
        text
    }

    /// Length of the forward text.
    pub fn forward_len(&self) -> usize {
        self.forward_len
    }

    /// The doubled text (forward + reverse complement), as indexed.
    pub fn doubled_text_len(&self) -> usize {
        self.forward_len * 2
    }

    /// The underlying unidirectional FM-index.
    pub fn fm(&self) -> &FmIndex {
        &self.fm
    }

    /// The bi-interval of a single base.
    #[inline(always)]
    pub fn base_interval(&self, c: u8) -> BiInterval {
        BiInterval {
            k: self.fm.c_of(c),
            l: self.fm.c_of(3 - c),
            s: self.fm.c_end(c) - self.fm.c_of(c),
        }
    }

    /// occ for all four bases at rank `i`, reading one checkpoint block via
    /// the single-pass [`FmIndex::occ4`].
    pub fn occ4<T: TraceSink>(&self, i: u64, trace: &mut T) -> [u64; 4] {
        self.fm.occ4(i, trace)
    }

    /// The scalar occ4 oracle: four independent [`FmIndex::occ`] scans merged
    /// to one recorded access. Retained (like `sw::naive`) so tests can
    /// compare the single-pass kernel against it.
    fn occ4_scalar<T: TraceSink>(&self, i: u64, trace: &mut T) -> [u64; 4] {
        let mut first = TraceOnce {
            inner: trace,
            done: false,
        };
        let mut out = [0u64; 4];
        for c in 0..4u8 {
            out[c as usize] = self.fm.occ(c, i, &mut first);
        }
        out
    }

    /// Assembles the four `cW` bi-intervals from the occ4 counts at the
    /// interval boundaries (shared by the fast and scalar paths).
    #[inline(always)]
    fn assemble_ext(&self, ik: BiInterval, tk: [u64; 4], tl: [u64; 4]) -> [BiInterval; 4] {
        let mut cnt = [0u64; 4];
        for c in 0..4 {
            cnt[c] = tl[c] - tk[c];
        }
        let primary = self.fm.primary() as u64;
        let sentinel_in_window = u64::from(ik.k <= primary && primary < ik.k + ik.s);
        // The l-intervals tile the revcomp side in complement order: the
        // sentinel first, then T, G, C, A.
        let l3 = ik.l + sentinel_in_window;
        let l2 = l3 + cnt[3];
        let l1 = l2 + cnt[2];
        let l0 = l1 + cnt[1];
        let ls = [l0, l1, l2, l3];
        std::array::from_fn(|c| BiInterval {
            k: self.fm.c_of(c as u8) + tk[c],
            l: ls[c],
            s: cnt[c],
        })
    }

    /// Extends `W` to `cW` for every possible `c`, returning the four
    /// candidate bi-intervals indexed by base code.
    ///
    /// Two checkpoint-block reads are recorded on `trace` (interval start and
    /// end boundaries), matching the hardware cost of one extension step.
    #[inline(always)]
    pub fn backward_ext_all<T: TraceSink>(&self, ik: BiInterval, trace: &mut T) -> [BiInterval; 4] {
        let tk = self.fm.occ4(ik.k, trace);
        let tl = self.fm.occ4(ik.k + ik.s, trace);
        self.assemble_ext(ik, tk, tl)
    }

    /// [`FmdIndex::backward_ext_all`] computed with the scalar occ oracle
    /// (8 block scans instead of 2). Bit-identical results; kept for the
    /// differential tests ([`crate::smem::oracle`]).
    pub fn backward_ext_all_scalar<T: TraceSink>(
        &self,
        ik: BiInterval,
        trace: &mut T,
    ) -> [BiInterval; 4] {
        let tk = self.occ4_scalar(ik.k, trace);
        let tl = self.occ4_scalar(ik.k + ik.s, trace);
        self.assemble_ext(ik, tk, tl)
    }

    /// Extends `W` to `cW` (backward extension by one base).
    pub fn backward_ext<T: TraceSink>(&self, ik: BiInterval, c: u8, trace: &mut T) -> BiInterval {
        self.backward_ext_all(ik, trace)[c as usize]
    }

    /// Extends `W` to `Wc` (forward extension by one base), using the FMD
    /// symmetry: forward-extend `W` ⇔ backward-extend `revcomp(W)` by the
    /// complement base.
    pub fn forward_ext<T: TraceSink>(&self, ik: BiInterval, c: u8, trace: &mut T) -> BiInterval {
        self.backward_ext(ik.swapped(), 3 - c, trace).swapped()
    }

    /// Searches `pattern` (backward), returning its bi-interval or `None`.
    ///
    /// When the sink discards addresses ([`TraceSink::records_addresses`] is
    /// `false`) and a prefix LUT is built, the last `k` bases are resolved by
    /// one table lookup instead of `k` extension steps. Hardware-trace mode
    /// always takes the per-step path so SU memory traces are unchanged.
    pub fn search<T: TraceSink>(&self, pattern: &[u8], trace: &mut T) -> Option<BiInterval> {
        if !trace.records_addresses() {
            if let Some(lut) = &self.lut {
                return self.search_with_lut(pattern, lut);
            }
        }
        self.search_steps(pattern, trace)
    }

    /// The per-step backward search (the only legal path in trace mode).
    fn search_steps<T: TraceSink>(&self, pattern: &[u8], trace: &mut T) -> Option<BiInterval> {
        let (&last, rest) = pattern.split_last()?;
        let mut ik = self.base_interval(last);
        for &c in rest.iter().rev() {
            if ik.is_empty() {
                return None;
            }
            ik = self.backward_ext(ik, c, trace);
        }
        if ik.is_empty() {
            None
        } else {
            Some(ik)
        }
    }

    fn search_with_lut(&self, pattern: &[u8], lut: &PrefixLut) -> Option<BiInterval> {
        let take = pattern.len().min(lut.k());
        if take == 0 {
            return None;
        }
        let suffix = &pattern[pattern.len() - take..];
        let mut idx = 0usize;
        for &c in suffix {
            assert!(c < 4, "code out of range");
            idx = idx * 4 + c as usize;
        }
        let mut ik = lut.get(take, idx);
        if ik.is_empty() {
            return None;
        }
        for &c in pattern[..pattern.len() - take].iter().rev() {
            ik = self.backward_ext(ik, c, &mut NullTrace);
            if ik.is_empty() {
                return None;
            }
        }
        Some(ik)
    }

    /// Precomputes the bi-interval of every string of length `1..=k`
    /// (requested `k` is clamped so the table stays O(text) — see
    /// [`PrefixLut::clamp_k`]). The pipeline builds [`PrefixLut::DEFAULT_K`].
    ///
    /// The LUT only accelerates the software fast path; extension through an
    /// address-recording sink never consults it.
    pub fn build_prefix_lut(&mut self, k: usize) {
        self.lut = PrefixLut::build(self, k);
    }

    /// The prefix LUT, if one has been built.
    pub fn prefix_lut(&self) -> Option<&PrefixLut> {
        self.lut.as_ref()
    }

    /// Approximate heap footprint in bytes: the underlying FM-index
    /// checkpoints plus the prefix LUT (registry memory accounting).
    pub fn footprint_bytes(&self) -> usize {
        self.fm.footprint_bytes()
            + self
                .lut
                .as_ref()
                .map_or(0, |lut| lut.entries() * std::mem::size_of::<BiInterval>())
    }

    /// Maps an occurrence position in the doubled text to a strand-resolved
    /// hit on the forward reference, given the pattern length.
    ///
    /// Returns `None` for occurrences spanning the forward/reverse seam
    /// (an artifact of the doubled text, not a real match).
    pub fn resolve_hit(&self, doubled_pos: usize, pattern_len: usize) -> Option<StrandHit> {
        let n = self.forward_len;
        if doubled_pos + pattern_len <= n {
            Some(StrandHit {
                pos: doubled_pos,
                is_rc: false,
            })
        } else if doubled_pos >= n {
            let pos = 2 * n - doubled_pos - pattern_len;
            Some(StrandHit { pos, is_rc: true })
        } else {
            None
        }
    }
}

/// k-mer prefix lookup table: the bi-interval of **every** string of length
/// `1..=k`, indexed by the string's base-4 value (leftmost base most
/// significant). Strings with no occurrence store `s == 0`.
///
/// Built once at index-build time by breadth-first backward extension
/// (children of empty prefixes are pruned — they stay empty by monotonicity),
/// the table turns the first `k` extension steps of a fresh search into one
/// lookup. It is a pure software-fast-path structure: it must never be
/// consulted when the caller's [`TraceSink`] records addresses, because a
/// lookup performs zero checkpoint-block reads and would silently shorten
/// the SU memory trace (DESIGN.md §10).
#[derive(Debug, Clone)]
pub struct PrefixLut {
    k: usize,
    table: Vec<BiInterval>,
}

impl PrefixLut {
    /// Default maximum precomputed length, by measurement: depth 10 is 16×
    /// the bytes for no `offline_short` throughput (EXPERIMENTS.md).
    pub const DEFAULT_K: usize = 8;

    /// Clamps a requested `k` so the table (`Σ 4^l, l ≤ k` entries) never
    /// exceeds O(doubled text length): the largest `k` with
    /// `4^k ≤ max(doubled_len, 4)`. Keeps tiny test genomes from carrying
    /// megabyte tables while real genomes get the full depth.
    pub fn clamp_k(k: usize, doubled_len: usize) -> usize {
        let cap = doubled_len.max(4);
        let mut fit = 0usize;
        let mut size = 1usize;
        while fit < k {
            match size.checked_mul(4) {
                Some(next) if next <= cap => {
                    size = next;
                    fit += 1;
                }
                _ => break,
            }
        }
        fit
    }

    /// Builds the LUT for `fmd`, clamping `k`; returns `None` when the
    /// effective depth is zero.
    fn build(fmd: &FmdIndex, k: usize) -> Option<PrefixLut> {
        let k = Self::clamp_k(k, fmd.doubled_text_len());
        if k == 0 {
            return None;
        }
        let empty = BiInterval { k: 0, l: 0, s: 0 };
        let mut table = vec![empty; Self::offset(k + 1)];
        for c in 0..4u8 {
            table[Self::offset(1) + c as usize] = fmd.base_interval(c);
        }
        for len in 2..=k {
            let parent_size = 4usize.pow(len as u32 - 1);
            for idx in 0..parent_size {
                let parent = table[Self::offset(len - 1) + idx];
                if parent.is_empty() {
                    continue;
                }
                let ext = fmd.backward_ext_all(parent, &mut NullTrace);
                for (c, &child) in ext.iter().enumerate() {
                    // Prepending c puts it in the most-significant position.
                    table[Self::offset(len) + c * parent_size + idx] = child;
                }
            }
        }
        Some(PrefixLut { k, table })
    }

    /// Start of the length-`len` section: `Σ_{j<len} 4^j = (4^len - 4) / 3`.
    #[inline(always)]
    fn offset(len: usize) -> usize {
        (4usize.pow(len as u32) - 4) / 3
    }

    /// Effective precomputed depth (after clamping).
    #[inline(always)]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The bi-interval of the length-`len` string with base-4 value `idx`
    /// (empty intervals have `s == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or exceeds [`PrefixLut::k`], or `idx ≥ 4^len`.
    #[inline(always)]
    pub fn get(&self, len: usize, idx: usize) -> BiInterval {
        assert!(len >= 1 && len <= self.k, "length outside LUT depth");
        self.table[Self::offset(len) + idx]
    }

    /// Table footprint in entries (used by footprint accounting and tests).
    pub fn entries(&self) -> usize {
        self.table.len()
    }
}

/// A trace adapter that forwards only the first access (used to merge the
/// four per-base occ reads of a block into one recorded access).
struct TraceOnce<'a, T: TraceSink> {
    inner: &'a mut T,
    done: bool,
}

impl<T: TraceSink> TraceSink for TraceOnce<'_, T> {
    fn record(&mut self, addr: MemAddr) {
        if !self.done {
            self.inner.record(addr);
            self.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountTrace, NullTrace};

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

    /// Counts occurrences of `pattern` in the doubled text `S·revcomp(S)` —
    /// exactly what the FMD interval size reports (including the rare
    /// seam-spanning artifacts that `resolve_hit` later filters out).
    fn naive_two_strand_count(forward: &[u8], pattern: &[u8]) -> u64 {
        let mut doubled = forward.to_vec();
        doubled.extend(forward.iter().rev().map(|&c| 3 - c));
        if pattern.is_empty() || pattern.len() > doubled.len() {
            return 0;
        }
        doubled
            .windows(pattern.len())
            .filter(|w| *w == pattern)
            .count() as u64
    }

    #[test]
    fn bi_interval_counts_both_strands() {
        let forward = rand_codes(400, 11);
        let fmd = FmdIndex::from_forward(&forward);
        for plen in [1usize, 2, 4, 7, 12] {
            for start in (0..forward.len() - plen).step_by(41) {
                let pattern = &forward[start..start + plen];
                let expected = naive_two_strand_count(&forward, pattern);
                let got = fmd
                    .search(pattern, &mut NullTrace)
                    .map(|b| b.s)
                    .unwrap_or(0);
                assert_eq!(got, expected, "pattern at {start} len {plen}");
            }
        }
    }

    #[test]
    fn forward_and_backward_extension_agree() {
        // Building the interval of a pattern left-to-right (forward_ext) must
        // equal building it right-to-left (backward_ext).
        let forward = rand_codes(300, 23);
        let fmd = FmdIndex::from_forward(&forward);
        for start in (0..forward.len() - 8).step_by(29) {
            let pattern = &forward[start..start + 8];
            let back = fmd.search(pattern, &mut NullTrace);
            let mut fwd = fmd.base_interval(pattern[0]);
            for &c in &pattern[1..] {
                fwd = fmd.forward_ext(fwd, c, &mut NullTrace);
            }
            assert_eq!(back, Some(fwd), "pattern at {start}");
        }
    }

    #[test]
    fn swapped_interval_matches_revcomp_search() {
        let forward = rand_codes(300, 5);
        let fmd = FmdIndex::from_forward(&forward);
        let pattern = &forward[40..52];
        let rc: Vec<u8> = pattern.iter().rev().map(|&c| 3 - c).collect();
        let a = fmd.search(pattern, &mut NullTrace).unwrap();
        let b = fmd.search(&rc, &mut NullTrace).unwrap();
        assert_eq!(a.swapped(), b);
    }

    #[test]
    fn extension_traces_two_block_reads() {
        let forward = rand_codes(300, 9);
        let fmd = FmdIndex::from_forward(&forward);
        let ik = fmd.base_interval(2);
        let mut trace = CountTrace::default();
        let _ = fmd.backward_ext_all(ik, &mut trace);
        assert_eq!(trace.0, 2);
    }

    #[test]
    fn fast_and_scalar_extensions_agree() {
        let forward = rand_codes(400, 31);
        let fmd = FmdIndex::from_forward(&forward);
        // Walk real patterns so the intervals exercised are reachable ones.
        for start in (0..forward.len() - 12).step_by(17) {
            let mut ik = fmd.base_interval(forward[start + 11]);
            for off in (0..11).rev() {
                let fast = fmd.backward_ext_all(ik, &mut NullTrace);
                let scalar = fmd.backward_ext_all_scalar(ik, &mut NullTrace);
                assert_eq!(fast, scalar, "start {start} off {off}");
                ik = fast[forward[start + off] as usize];
                if ik.is_empty() {
                    break;
                }
            }
        }
    }

    #[test]
    fn narrow_extension_traces_two_block_reads() {
        let forward = rand_codes(300, 9);
        let fmd = FmdIndex::from_forward(&forward);
        // A narrow interval (unique-ish pattern) has both boundaries in the
        // same checkpoint block: both block reads are still recorded.
        let narrow = fmd
            .search(&forward[40..52], &mut NullTrace)
            .expect("present pattern");
        let mut trace = CountTrace::default();
        let _ = fmd.backward_ext_all(narrow, &mut trace);
        let _ = fmd.backward_ext_all(narrow, &mut trace);
        assert_eq!(trace.0, 4);
    }

    #[test]
    fn prefix_lut_search_matches_step_search() {
        let forward = rand_codes(500, 13);
        let mut fmd = FmdIndex::from_forward(&forward);
        let mut plain = fmd.clone();
        plain.lut = None;
        fmd.build_prefix_lut(PrefixLut::DEFAULT_K);
        let lut_k = fmd.prefix_lut().expect("lut built").k();
        assert!(lut_k >= 2, "500bp doubled text fits at least 4^2");
        // Patterns shorter than, equal to, and longer than k, present and
        // absent; NullTrace engages the LUT, CountTrace must bypass it.
        for plen in [1usize, 2, lut_k - 1, lut_k, lut_k + 1, lut_k + 5, 25] {
            for start in (0..forward.len() - plen).step_by(23) {
                let pattern = &forward[start..start + plen];
                let via_lut = fmd.search(pattern, &mut NullTrace);
                let stepped = plain.search(pattern, &mut NullTrace);
                assert_eq!(via_lut, stepped, "start {start} len {plen}");
                let mut count = CountTrace::default();
                let traced = fmd.search(pattern, &mut count);
                assert_eq!(traced, stepped, "traced start {start} len {plen}");
                if plen > 1 {
                    assert!(count.0 > 0, "trace mode must do real extensions");
                }
            }
            // An absent pattern (wrong alphabet walk): flip bases.
            let absent: Vec<u8> = forward[0..plen].iter().map(|&c| (c + 2) & 3).collect();
            assert_eq!(
                fmd.search(&absent, &mut NullTrace),
                plain.search(&absent, &mut NullTrace),
                "absent len {plen}"
            );
        }
    }

    #[test]
    fn prefix_lut_entries_match_direct_search() {
        let forward = rand_codes(200, 57);
        let mut fmd = FmdIndex::from_forward(&forward);
        fmd.build_prefix_lut(3);
        let lut = fmd.prefix_lut().unwrap();
        assert_eq!(lut.k(), 3);
        for len in 1..=3usize {
            for idx in 0..4usize.pow(len as u32) {
                // Decode the base-4 index back into a pattern.
                let mut pattern = vec![0u8; len];
                let mut v = idx;
                for slot in pattern.iter_mut().rev() {
                    *slot = (v & 3) as u8;
                    v >>= 2;
                }
                let expected = fmd.search_steps(&pattern, &mut NullTrace);
                let entry = lut.get(len, idx);
                match expected {
                    Some(bi) => assert_eq!(entry, bi, "len {len} idx {idx}"),
                    None => assert!(entry.is_empty(), "len {len} idx {idx}"),
                }
            }
        }
    }

    #[test]
    fn prefix_lut_clamps_to_text_size() {
        assert_eq!(PrefixLut::clamp_k(10, 600), 4); // 4^4 = 256 ≤ 600 < 4^5
        assert_eq!(PrefixLut::clamp_k(10, 4), 1);
        assert_eq!(PrefixLut::clamp_k(10, 0), 1); // floor of 1
        assert_eq!(PrefixLut::clamp_k(10, 1 << 20), 10); // full depth
        assert_eq!(PrefixLut::clamp_k(2, 1 << 20), 2); // request wins when smaller
        let mut fmd = FmdIndex::from_forward(&rand_codes(300, 3));
        fmd.build_prefix_lut(PrefixLut::DEFAULT_K);
        let lut = fmd.prefix_lut().unwrap();
        assert_eq!(lut.k(), PrefixLut::clamp_k(PrefixLut::DEFAULT_K, 600));
        assert!(lut.entries() <= 4 * 600);
    }

    #[test]
    fn resolve_hit_maps_strands() {
        let fmd = FmdIndex::from_forward(&[0, 1, 2, 3, 0, 1]); // n = 6
        assert_eq!(
            fmd.resolve_hit(2, 3),
            Some(StrandHit {
                pos: 2,
                is_rc: false
            })
        );
        // Doubled position 7 with len 3 lies fully in the RC half:
        // maps to forward pos 2*6 - 7 - 3 = 2.
        assert_eq!(
            fmd.resolve_hit(7, 3),
            Some(StrandHit {
                pos: 2,
                is_rc: true
            })
        );
        // Position 5 with len 3 spans the seam.
        assert_eq!(fmd.resolve_hit(5, 3), None);
    }

    #[test]
    fn base_interval_sizes_are_symmetric() {
        let forward = rand_codes(500, 77);
        let fmd = FmdIndex::from_forward(&forward);
        for c in 0..4u8 {
            let a = fmd.base_interval(c);
            let b = fmd.base_interval(3 - c);
            assert_eq!(a.s, b.s, "base {c} vs complement");
            assert_eq!(a.l, b.k);
        }
    }
}
