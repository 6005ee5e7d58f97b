//! Bit-packed FM-index with checkpointed occ counters.
//!
//! This mirrors the LFMapBit hardware layout the paper instantiates its SUs
//! with: the BWT is packed 2 bits per symbol and occurrence counts are
//! checkpointed every [`OCC_INTERVAL`] symbols. A rank query reads exactly
//! one checkpoint block (counters + packed payload) and finishes with
//! bit-parallel popcounts — one block read per query is what the hardware
//! memory trace records.

use crate::bwt::Bwt;
use crate::suffix_array::build_suffix_array;
use crate::trace::{MemAddr, TraceSink};

/// Checkpoint interval of the occ structure, in BWT symbols. The paper sets
/// "the FM-index interval ... to 128".
pub const OCC_INTERVAL: usize = 128;

const WORDS_PER_BLOCK: usize = OCC_INTERVAL / 32; // 32 2-bit codes per u64

/// The low bit of every 2-bit lane of a word.
const LANES: u64 = 0x5555_5555_5555_5555;

/// A half-open suffix-array rank interval `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower rank.
    pub lo: u64,
    /// Exclusive upper rank.
    pub hi: u64,
}

impl Interval {
    /// Number of occurrences represented.
    pub fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// One occ checkpoint block: the counts before it, the counts before each
/// of its words, then `OCC_INTERVAL` packed symbols. One cache line,
/// aligned to one: the allocator puts a large `Vec` 16 bytes past a page,
/// where every block would straddle two.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C, align(64))]
struct OccBlock {
    /// Occurrences of each code before the block.
    counts: [u32; 4],
    /// `sub[w][c]`: occurrences of code `c` in `words[..w]` (`sub[0]` is
    /// zero), so a rank reads one word and never loops.
    sub: [[u8; 4]; WORDS_PER_BLOCK],
    words: [u64; WORDS_PER_BLOCK],
}

impl OccBlock {
    /// Occurrences of all four codes before offset `within` (`0..=OCC_INTERVAL`)
    /// of this block, from one word and three bit-plane popcounts. Branch-free:
    /// `within == OCC_INTERVAL` ranks the whole last word.
    #[inline(always)]
    fn rank4(&self, within: usize) -> [u64; 4] {
        let w = (within / 32).min(WORDS_PER_BLOCK - 1);
        let rem = within - 32 * w;
        // `rem` low lanes of LANES; two shifts so `rem == 0` needs no branch.
        let drop = 32 - rem;
        let mask = (LANES >> drop) >> drop;
        let word = self.words[w];
        let lo = word & mask;
        let hi = (word >> 1) & mask;
        let n3 = (lo & hi).count_ones();
        let n1 = lo.count_ones() - n3;
        let n2 = hi.count_ones() - n3;
        let n = [rem as u32 - n1 - n2 - n3, n1, n2, n3];
        let sub = self.sub[w];
        std::array::from_fn(|c| u64::from(self.counts[c]) + u64::from(sub[c]) + u64::from(n[c]))
    }

    /// The code at offset `within` (`< OCC_INTERVAL`) of this block.
    #[inline(always)]
    fn code_at(&self, within: usize) -> u8 {
        debug_assert!(within < OCC_INTERVAL, "reads a real symbol");
        ((self.words[within / 32] >> ((within % 32) * 2)) & 0b11) as u8
    }
}

/// The FM-index.
///
/// # Examples
///
/// ```
/// use nvwa_index::FmIndex;
/// use nvwa_index::NullTrace;
/// // Text "ACGTACGT" as codes.
/// let fm = FmIndex::from_text(&[0, 1, 2, 3, 0, 1, 2, 3]);
/// let hits = fm.search(&[0, 1, 2], &mut NullTrace); // "ACG"
/// assert_eq!(hits.map(|i| i.len()), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct FmIndex {
    blocks: Vec<OccBlock>,
    primary: usize,
    c: [u64; 5],
    text_len: usize,
}

impl FmIndex {
    /// Builds the FM-index of `text` (2-bit codes).
    ///
    /// # Panics
    ///
    /// Panics if any code is ≥ 4.
    pub fn from_text(text: &[u8]) -> FmIndex {
        let sa = build_suffix_array(text);
        FmIndex::from_bwt(Bwt::from_text_and_sa(text, &sa))
    }

    /// Builds the FM-index from a precomputed [`Bwt`].
    ///
    /// # Panics
    ///
    /// Panics if the text is longer than `u32::MAX` symbols (the suffix
    /// array is `u32` too).
    pub fn from_bwt(bwt: Bwt) -> FmIndex {
        let n = bwt.data.len();
        assert!(u32::try_from(n).is_ok(), "text longer than u32::MAX");
        let n_blocks = n.div_ceil(OCC_INTERVAL).max(1);
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut running = [0u32; 4];
        for b in 0..n_blocks {
            let counts = running;
            let mut sub = [[0u8; 4]; WORDS_PER_BLOCK];
            let mut words = [0u64; WORDS_PER_BLOCK];
            let start = b * OCC_INTERVAL;
            let end = n.min(start + OCC_INTERVAL);
            let mut seen = [0u8; 4];
            for (off, &code) in bwt.data[start..end].iter().enumerate() {
                seen[code as usize] += 1;
                words[off / 32] |= (code as u64) << ((off % 32) * 2);
                if (off + 1) % 32 == 0 && off + 1 < OCC_INTERVAL {
                    sub[(off + 1) / 32] = seen;
                }
            }
            for (total, &s) in running.iter_mut().zip(&seen) {
                *total += u32::from(s);
            }
            blocks.push(OccBlock { counts, sub, words });
        }
        let mut c = [0u64; 5];
        for code in 0..4usize {
            c[code + 1] = c[code] + bwt.counts[code];
        }
        // Shift by 1 for the sentinel bucket.
        let c = [c[0] + 1, c[1] + 1, c[2] + 1, c[3] + 1, c[4] + 1];
        FmIndex {
            blocks,
            primary: bwt.primary,
            c,
            text_len: n,
        }
    }

    /// Length of the indexed text (without sentinel).
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Conceptual BWT length (text + sentinel); ranks live in `0..seq_len()`.
    pub fn seq_len(&self) -> u64 {
        self.text_len as u64 + 1
    }

    /// Rank of the sentinel in the conceptual BWT.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// `C[c]`: start of the `c`-bucket in rank space (sentinel bucket is
    /// rank 0).
    ///
    /// # Panics
    ///
    /// Panics if `c > 3`.
    #[inline(always)]
    pub fn c_of(&self, c: u8) -> u64 {
        self.c[c as usize]
    }

    /// End of the `c`-bucket (== `C[c+1]`, or total length for `c == 3`).
    #[inline(always)]
    pub fn c_end(&self, c: u8) -> u64 {
        self.c[c as usize + 1]
    }

    /// Number of occ blocks (used for footprint/power accounting).
    pub fn occ_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Approximate index footprint in bytes (checkpoints + packed BWT).
    pub fn footprint_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<OccBlock>()
    }

    /// Converts a conceptual rank to a stored-BWT index by skipping the
    /// sentinel slot.
    #[inline(always)]
    fn stored_index(&self, i: u64) -> usize {
        (if i as usize > self.primary { i - 1 } else { i }) as usize
    }

    /// Maps a stored-BWT index `j` to `(block index, offset within block)`.
    ///
    /// Invariant: callers pass `j <= text_len`. Every `j < text_len` lands
    /// strictly inside a block. The single index past the last block start
    /// is `j == text_len` when `text_len` is an exact multiple of
    /// [`OCC_INTERVAL`]; it means "count the whole last block", and the
    /// clamp maps it to `(blocks.len() - 1, OCC_INTERVAL)` without a branch.
    #[inline(always)]
    fn block_of(&self, j: usize) -> (usize, usize) {
        debug_assert!(
            j <= self.text_len,
            "stored-BWT index {j} past the text (text_len {})",
            self.text_len
        );
        let block_idx = (j / OCC_INTERVAL).min(self.blocks.len() - 1);
        (block_idx, j - block_idx * OCC_INTERVAL)
    }

    /// occ(c, i): occurrences of code `c` in the conceptual BWT prefix
    /// `[0, i)`. Records exactly one block access on `trace`.
    ///
    /// Kept as the scalar oracle for [`FmIndex::occ4`] (the hot path), the
    /// same way `sw::naive` backs the optimized SW kernel: it scans the
    /// packed words from the block's base counts and never reads the
    /// per-word counts `occ4` adds.
    ///
    /// # Panics
    ///
    /// Panics if `i > seq_len()` or `c > 3`.
    #[inline(always)]
    pub fn occ<T: TraceSink>(&self, c: u8, i: u64, trace: &mut T) -> u64 {
        assert!(c < 4, "code out of range");
        assert!(i <= self.seq_len(), "rank out of range");
        let (block_idx, within) = self.block_of(self.stored_index(i));
        trace.record(MemAddr::occ_block(block_idx as u64));
        let block = &self.blocks[block_idx];
        u64::from(block.counts[c as usize]) + rank_in_words(&block.words, c, within)
    }

    /// occ4(i): occurrences of all four codes in the conceptual BWT prefix
    /// `[0, i)`, from one word of the checkpoint block: base counts plus the
    /// block's count before that word plus three popcounts, with no branch
    /// and no loop. Records exactly one block access on `trace`, identical
    /// to one [`FmIndex::occ`] call (the hardware reads the block once and
    /// ranks all four symbols from it).
    ///
    /// # Panics
    ///
    /// Panics if `i > seq_len()`.
    #[inline(always)]
    pub fn occ4<T: TraceSink>(&self, i: u64, trace: &mut T) -> [u64; 4] {
        assert!(i <= self.seq_len(), "rank out of range");
        let (block_idx, within) = self.block_of(self.stored_index(i));
        trace.record(MemAddr::occ_block(block_idx as u64));
        self.blocks[block_idx].rank4(within)
    }

    /// One backward-search step: maps the interval of pattern `P` to the
    /// interval of `cP`.
    pub fn backward_ext<T: TraceSink>(&self, interval: Interval, c: u8, trace: &mut T) -> Interval {
        let lo = self.c_of(c) + self.occ(c, interval.lo, trace);
        let hi = self.c_of(c) + self.occ(c, interval.hi, trace);
        Interval { lo, hi }
    }

    /// The full-range interval (all suffixes).
    pub fn full_interval(&self) -> Interval {
        Interval {
            lo: 0,
            hi: self.seq_len(),
        }
    }

    /// Backward search of `pattern`; returns the match interval or `None` if
    /// the pattern does not occur.
    pub fn search<T: TraceSink>(&self, pattern: &[u8], trace: &mut T) -> Option<Interval> {
        let mut interval = self.full_interval();
        for &c in pattern.iter().rev() {
            interval = self.backward_ext(interval, c, trace);
            if interval.is_empty() {
                return None;
            }
        }
        Some(interval)
    }

    /// LF-mapping of rank `i`: the rank of the suffix one position earlier in
    /// the text. Returns `None` when `i` is the sentinel rank (text start).
    /// The code and its rank come from the same block, recorded once.
    ///
    /// # Panics
    ///
    /// Panics if `i >= seq_len()`.
    #[inline(always)]
    pub fn lf<T: TraceSink>(&self, i: u64, trace: &mut T) -> Option<u64> {
        assert!(i < self.seq_len(), "rank out of range");
        if i as usize == self.primary {
            return None;
        }
        let (block_idx, within) = self.block_of(self.stored_index(i));
        trace.record(MemAddr::occ_block(block_idx as u64));
        let block = &self.blocks[block_idx];
        let c = block.code_at(within);
        Some(self.c_of(c) + block.rank4(within)[c as usize])
    }

    /// The conceptual BWT character at rank `i` (`None` for the sentinel).
    ///
    /// # Panics
    ///
    /// Panics if `i >= seq_len()`.
    #[inline(always)]
    pub fn bwt_char(&self, i: u64) -> Option<u8> {
        assert!(i < self.seq_len(), "rank out of range");
        if i as usize == self.primary {
            return None;
        }
        let (block_idx, within) = self.block_of(self.stored_index(i));
        Some(self.blocks[block_idx].code_at(within))
    }
}

/// Counts occurrences of 2-bit code `c` among the first `count` codes packed
/// in `words`, using the bit-parallel comparison the hardware performs.
#[inline(always)]
fn rank_in_words(words: &[u64; WORDS_PER_BLOCK], c: u8, count: usize) -> u64 {
    debug_assert!(count <= OCC_INTERVAL);
    // Replicate the 2-bit code into all 32 lanes.
    let rep = {
        let mut r = c as u64;
        r |= r << 2;
        r |= r << 4;
        r |= r << 8;
        r |= r << 16;
        r |= r << 32;
        r
    };
    let mut total = 0u64;
    let mut remaining = count;
    for &w in words.iter() {
        if remaining == 0 {
            break;
        }
        let lanes = remaining.min(32);
        let x = w ^ rep; // lanes equal to c become 00
        let neq = (x | (x >> 1)) & 0x5555_5555_5555_5555; // 1 per non-equal lane
        let eq = !neq & 0x5555_5555_5555_5555; // 1 per equal lane
        let mask = if lanes == 32 {
            u64::MAX
        } else {
            (1u64 << (lanes * 2)) - 1
        };
        total += (eq & mask).count_ones() as u64;
        remaining -= lanes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountTrace, NullTrace};

    fn naive_count(text: &[u8], pattern: &[u8]) -> u64 {
        if pattern.is_empty() || pattern.len() > text.len() {
            return 0;
        }
        text.windows(pattern.len())
            .filter(|w| *w == pattern)
            .count() as u64
    }

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

    #[test]
    fn search_counts_match_naive() {
        let text = rand_codes(600, 42);
        let fm = FmIndex::from_text(&text);
        for plen in [1usize, 2, 3, 5, 8, 13] {
            for start in (0..text.len() - plen).step_by(37) {
                let pattern = &text[start..start + plen];
                let expected = naive_count(&text, pattern);
                let got = fm
                    .search(pattern, &mut NullTrace)
                    .map(|i| i.len())
                    .unwrap_or(0);
                assert_eq!(got, expected, "pattern at {start} len {plen}");
            }
        }
    }

    #[test]
    fn absent_pattern_returns_none() {
        // Text of all A's cannot contain a C.
        let fm = FmIndex::from_text(&[0u8; 100]);
        assert_eq!(fm.search(&[1], &mut NullTrace), None);
        assert_eq!(fm.search(&[0, 1, 0], &mut NullTrace), None);
    }

    #[test]
    fn occ_is_monotone_and_bounded() {
        let text = rand_codes(300, 7);
        let fm = FmIndex::from_text(&text);
        for c in 0..4u8 {
            let mut prev = 0;
            for i in 0..=fm.seq_len() {
                let o = fm.occ(c, i, &mut NullTrace);
                assert!(o >= prev, "occ must be monotone");
                assert!(o - prev <= 1, "occ can grow by at most one per rank");
                prev = o;
            }
            let total: u64 = fm.occ(c, fm.seq_len(), &mut NullTrace);
            assert_eq!(
                total,
                text.iter().filter(|&&x| x == c).count() as u64,
                "total occ of {c}"
            );
        }
    }

    #[test]
    fn occ_traces_one_block_per_query() {
        let text = rand_codes(500, 3);
        let fm = FmIndex::from_text(&text);
        let mut trace = CountTrace::default();
        fm.occ(2, 137, &mut trace);
        assert_eq!(trace.0, 1);
        let mut trace = CountTrace::default();
        fm.backward_ext(fm.full_interval(), 1, &mut trace);
        assert_eq!(trace.0, 2); // lo and hi boundaries
    }

    /// The ranks `0..=seq_len` forward, backward, then `seq_len + 1`
    /// pseudo-random ones: consecutive probes jump between blocks and words
    /// in every direction.
    fn adversarial_probes(fm: &FmIndex, seed: u64) -> Vec<u64> {
        let n = fm.seq_len();
        let mut probes: Vec<u64> = (0..=n).chain((0..=n).rev()).collect();
        let mut state = seed.wrapping_mul(2) + 1;
        for _ in 0..=n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            probes.push((state >> 33) % (n + 1));
        }
        probes
    }

    /// The first probe where `occ4` differs from four scans of the oracle
    /// `occ`, which never reads the per-word counts.
    fn first_occ4_mismatch(fm: &FmIndex, seed: u64) -> Option<u64> {
        adversarial_probes(fm, seed).into_iter().find(|&i| {
            let scan: [u64; 4] = std::array::from_fn(|c| fm.occ(c as u8, i, &mut NullTrace));
            fm.occ4(i, &mut NullTrace) != scan
        })
    }

    /// The lengths the rank tests cover: one block, one symbol either side
    /// of a block boundary, two whole blocks (the multiples of 128 reach the
    /// `within == OCC_INTERVAL` edge), last blocks that end on a word
    /// boundary (160, 288: the final rank reads that word's count), five
    /// blocks (513) and random lengths up to 300.
    fn rank_test_lengths() -> Vec<usize> {
        let mut lens = vec![1usize, 127, 128, 129, 160, 256, 288, 513];
        let mut state = 0x0cc4u64;
        lens.extend((0..20).map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1 + (state >> 33) as usize % 300
        }));
        lens
    }

    #[test]
    fn occ4_matches_the_scan_oracle_at_every_rank_in_any_order() {
        for len in rank_test_lengths() {
            let fm = FmIndex::from_text(&rand_codes(len, len as u64 + 11));
            assert_eq!(first_occ4_mismatch(&fm, len as u64), None, "len {len}");
        }
    }

    #[test]
    fn a_per_word_count_off_by_one_fails_the_oracle_check() {
        for len in [128usize, 129, 256, 300] {
            let clean = FmIndex::from_text(&rand_codes(len, len as u64 + 11));
            for b in 0..clean.blocks.len() {
                let symbols = (len - b * OCC_INTERVAL).min(OCC_INTERVAL);
                // `sub[w]` is read only by ranks at or past word `w`.
                for w in (1..WORDS_PER_BLOCK).filter(|&w| 32 * w <= symbols) {
                    for c in 0..4 {
                        for planted in [1u8, u8::MAX] {
                            let mut fm = clean.clone();
                            let count = &mut fm.blocks[b].sub[w][c];
                            *count = count.wrapping_add(planted);
                            assert!(
                                first_occ4_mismatch(&fm, 7).is_some(),
                                "len {len}: block {b} word {w} code {c} {planted:+}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn occ4_and_lf_record_the_block_occ_records() {
        let fm = FmIndex::from_text(&rand_codes(512, 9)); // exact multiple of OCC_INTERVAL
        let ranks = [0u64, 5, 5, 130, 131, 129, 400, 401, fm.seq_len()];
        let mut rank = crate::trace::VecTrace::default();
        let mut scan = crate::trace::VecTrace::default();
        for &i in &ranks {
            fm.occ4(i, &mut rank);
            fm.occ(0, i, &mut scan);
        }
        assert_eq!(rank.0, scan.0, "the within == OCC_INTERVAL edge included");
        // `lf` takes its code and rank from one block: the oracle's answer
        // (`bwt_char`, then a scan) and its one recorded block.
        for i in (0..fm.seq_len()).filter(|&i| i as usize != fm.primary()) {
            let mut lf = crate::trace::VecTrace::default();
            let mut scan = crate::trace::VecTrace::default();
            let c = fm.bwt_char(i).expect("not the sentinel");
            let want = fm.c_of(c) + fm.occ(c, i, &mut scan);
            assert_eq!(fm.lf(i, &mut lf), Some(want), "rank {i}");
            assert_eq!(lf.0, scan.0, "rank {i}");
        }
    }

    #[test]
    fn lf_walk_reconstructs_text() {
        let text = rand_codes(257, 99); // crosses a block boundary
        let fm = FmIndex::from_text(&text);
        // Start from rank 0 (the sentinel suffix): its BWT char is the last
        // text char; repeatedly applying LF walks the text right to left.
        let mut i = 0u64;
        let mut recovered = Vec::with_capacity(text.len());
        loop {
            match fm.bwt_char(i) {
                None => break,
                Some(c) => {
                    recovered.push(c);
                    i = fm.lf(i, &mut NullTrace).expect("lf defined off-sentinel");
                }
            }
        }
        recovered.reverse();
        assert_eq!(recovered, text);
    }

    #[test]
    fn bucket_boundaries_are_consistent() {
        let text = rand_codes(1000, 5);
        let fm = FmIndex::from_text(&text);
        assert_eq!(fm.c_of(0), 1);
        assert_eq!(fm.c_end(3), fm.seq_len());
        for c in 0..3u8 {
            assert_eq!(fm.c_end(c), fm.c_of(c + 1));
        }
    }

    #[test]
    fn single_base_interval_sizes() {
        let text = vec![0u8, 0, 1, 2, 2, 2, 3];
        let fm = FmIndex::from_text(&text);
        for c in 0..4u8 {
            let int = fm.search(&[c], &mut NullTrace);
            let expected = text.iter().filter(|&&x| x == c).count() as u64;
            assert_eq!(int.map(|i| i.len()).unwrap_or(0), expected);
        }
    }

    #[test]
    fn occ_blocks_are_whole_aligned_cache_lines() {
        assert_eq!(std::mem::size_of::<OccBlock>(), 64);
        assert_eq!(std::mem::align_of::<OccBlock>(), 64);
        for len in [1usize, 128, 5000, 300_000] {
            let fm = FmIndex::from_text(&rand_codes(len, 2));
            assert_eq!(fm.blocks.as_ptr() as usize % 64, 0, "len {len}");
            assert_eq!(
                fm.clone().blocks.as_ptr() as usize % 64,
                0,
                "clone, len {len}"
            );
        }
    }

    #[test]
    fn footprint_scales_with_blocks() {
        let fm = FmIndex::from_text(&rand_codes(1000, 1));
        assert_eq!(fm.occ_blocks(), 1000usize.div_ceil(OCC_INTERVAL));
        assert_eq!(fm.footprint_bytes(), fm.occ_blocks() * 64);
    }
}
