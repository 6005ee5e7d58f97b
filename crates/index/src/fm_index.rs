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

/// One occ checkpoint block: cumulative counts then `OCC_INTERVAL` packed
/// symbols. One cache line, aligned to one: the allocator puts a large
/// `Vec` 16 bytes past a page, where every block would straddle two.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C, align(64))]
struct OccBlock {
    counts: [u64; 4],
    words: [u64; WORDS_PER_BLOCK],
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
    pub fn from_bwt(bwt: Bwt) -> FmIndex {
        let n = bwt.data.len();
        let n_blocks = n.div_ceil(OCC_INTERVAL).max(1);
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut running = [0u64; 4];
        for b in 0..n_blocks {
            let mut words = [0u64; WORDS_PER_BLOCK];
            let counts = running;
            let start = b * OCC_INTERVAL;
            for off in 0..OCC_INTERVAL {
                let i = start + off;
                if i >= n {
                    break;
                }
                let code = bwt.data[i];
                running[code as usize] += 1;
                words[off / 32] |= (code as u64) << ((off % 32) * 2);
            }
            blocks.push(OccBlock { counts, words });
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
        self.blocks.len() * (4 * 8 + WORDS_PER_BLOCK * 8)
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
    /// [`OCC_INTERVAL`]; it means "count the whole last block" and maps to
    /// `(blocks.len() - 1, OCC_INTERVAL)`. Anything else past the end is a
    /// caller bug, so it asserts in debug builds instead of being silently
    /// clamped into the last block.
    #[inline(always)]
    fn block_of(&self, j: usize) -> (usize, usize) {
        let block_idx = j / OCC_INTERVAL;
        if block_idx >= self.blocks.len() {
            debug_assert!(
                block_idx == self.blocks.len()
                    && j == self.text_len
                    && self.text_len.is_multiple_of(OCC_INTERVAL),
                "stored-BWT index {j} out of range for {} blocks (text_len {})",
                self.blocks.len(),
                self.text_len
            );
            (self.blocks.len() - 1, OCC_INTERVAL)
        } else {
            (block_idx, j - block_idx * OCC_INTERVAL)
        }
    }

    /// occ(c, i): occurrences of code `c` in the conceptual BWT prefix
    /// `[0, i)`. Records exactly one block access on `trace`.
    ///
    /// Kept as the scalar oracle for [`FmIndex::occ4`] (the hot path), the
    /// same way `sw::naive` backs the optimized SW kernel.
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
        block.counts[c as usize] + rank_in_words(&block.words, c, within)
    }

    /// occ4(i): occurrences of all four codes in the conceptual BWT prefix
    /// `[0, i)`, from a **single pass** over the checkpoint block's packed
    /// words — each word is touched once per position, not once per code.
    /// Records exactly one block access on `trace`, identical to one
    /// [`FmIndex::occ`] call (the hardware reads the block once and ranks
    /// all four symbols from it).
    ///
    /// # Panics
    ///
    /// Panics if `i > seq_len()`.
    pub fn occ4<T: TraceSink>(&self, i: u64, trace: &mut T) -> [u64; 4] {
        assert!(i <= self.seq_len(), "rank out of range");
        let (block_idx, within) = self.block_of(self.stored_index(i));
        trace.record(MemAddr::occ_block(block_idx as u64));
        let block = &self.blocks[block_idx];
        let r = rank4_in_words(&block.words, within);
        let mut out = block.counts;
        for c in 0..4 {
            out[c] += r[c];
        }
        out
    }

    /// [`FmIndex::occ4`] through a per-search block cache: when consecutive
    /// queries land in the same checkpoint block (the common case inside one
    /// SMEM search), the per-word prefix counts decoded on the previous query
    /// are reused and only the final partial word is ranked.
    ///
    /// The cache is **trace-invisible**: exactly one block access is recorded
    /// on `trace` per call, hit or miss, so the accelerator memory trace is
    /// byte-identical with and without the cache (the hardware still issues
    /// the read; the cache models the SU's single-entry block register, which
    /// saves decode work, not trace events).
    ///
    /// # Panics
    ///
    /// Panics if `i > seq_len()`.
    #[inline(always)]
    pub fn occ4_cached<T: TraceSink>(
        &self,
        i: u64,
        cache: &mut OccCache,
        trace: &mut T,
    ) -> [u64; 4] {
        assert!(i <= self.seq_len(), "rank out of range");
        let (block_idx, within) = self.block_of(self.stored_index(i));
        trace.record(MemAddr::occ_block(block_idx as u64));
        cache.lookups += 1;
        let block = &self.blocks[block_idx];
        let slot = if cache.entries[cache.mru].block_idx == block_idx {
            cache.hits += 1;
            cache.mru
        } else if cache.entries[1 - cache.mru].block_idx == block_idx {
            cache.hits += 1;
            cache.mru = 1 - cache.mru;
            cache.mru
        } else {
            let victim = 1 - cache.mru;
            cache.entries[victim].block_idx = block_idx;
            cache.entries[victim].decoded = 0;
            cache.entries[victim].prefix[0] = block.counts;
            cache.mru = victim;
            victim
        };
        let entry = &mut cache.entries[slot];
        // Decode prefix counts lazily, only as deep into the block as this
        // query needs: a miss costs no more than a direct [`FmIndex::occ4`]
        // scan, and later hits on the same block pick up where it stopped.
        let word_idx = within / 32;
        let rem = within % 32;
        while entry.decoded < word_idx {
            let w = entry.decoded;
            let r = rank4_in_words(std::array::from_ref(&block.words[w]), 32);
            let mut next = entry.prefix[w];
            for c in 0..4 {
                next[c] += r[c];
            }
            entry.prefix[w + 1] = next;
            entry.decoded = w + 1;
        }
        let mut out = entry.prefix[word_idx];
        if rem != 0 {
            let r = rank4_in_words(std::array::from_ref(&block.words[word_idx]), rem);
            for c in 0..4 {
                out[c] += r[c];
            }
        }
        out
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
    #[inline(always)]
    pub fn lf<T: TraceSink>(&self, i: u64, trace: &mut T) -> Option<u64> {
        if i as usize == self.primary {
            return None;
        }
        let c = self.bwt_char(i)?;
        Some(self.c_of(c) + self.occ(c, i, trace))
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
        debug_assert!(within < OCC_INTERVAL, "bwt_char reads a real symbol");
        let block = &self.blocks[block_idx];
        let word = block.words[within / 32];
        Some(((word >> ((within % 32) * 2)) & 0b11) as u8)
    }
}

/// Per-search cached occ-block handle used by [`FmIndex::occ4_cached`].
///
/// Models a pair of block registers (LRU between them), matching the
/// double-buffered occ-block fetch a seeding unit performs: a bi-interval
/// extension probes the `k`-side and `l`-side boundaries, which usually
/// land in two distinct blocks, and alternating probes must not evict
/// each other. Each entry holds a block index plus the cumulative counts
/// decoded at every word boundary of that block (`prefix[w]` = block base
/// counts + counts of the first `w` full words, filled lazily up to
/// `decoded`). A cache hit ranks at most one partial word instead of
/// re-scanning the block. Hit/lookup counters feed the `nvwa-telemetry`
/// seed-cache metrics.
///
/// The cache is keyed by block index only, so it is valid for exactly one
/// [`FmIndex`]: call [`OccCache::reset`] before reusing it against a
/// different index.
#[derive(Debug, Clone)]
pub struct OccCache {
    entries: [OccCacheEntry; 2],
    /// Index of the most-recently-used entry (the other one is the
    /// replacement victim).
    mru: usize,
    /// Lookups served from a cached block (no base-count refetch).
    pub hits: u64,
    /// Total lookups through the cache.
    pub lookups: u64,
}

#[derive(Debug, Clone)]
struct OccCacheEntry {
    block_idx: usize,
    /// Words of the cached block whose prefix counts are already decoded
    /// (`prefix[w]` is valid for `w <= decoded`).
    decoded: usize,
    prefix: [[u64; 4]; WORDS_PER_BLOCK + 1],
}

impl OccCacheEntry {
    fn empty() -> OccCacheEntry {
        OccCacheEntry {
            block_idx: usize::MAX,
            decoded: 0,
            prefix: [[0; 4]; WORDS_PER_BLOCK + 1],
        }
    }
}

impl Default for OccCache {
    fn default() -> Self {
        OccCache::new()
    }
}

impl OccCache {
    /// An empty cache (first lookup always misses).
    pub fn new() -> OccCache {
        OccCache {
            entries: [OccCacheEntry::empty(), OccCacheEntry::empty()],
            mru: 0,
            hits: 0,
            lookups: 0,
        }
    }

    /// Invalidates the cached blocks (keeps the hit/lookup counters).
    /// Required when the same scratch is pointed at a different index.
    pub fn reset(&mut self) {
        self.entries[0].block_idx = usize::MAX;
        self.entries[1].block_idx = usize::MAX;
    }

    /// Clears the hit/lookup counters (e.g. after publishing them).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.lookups = 0;
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

/// Counts occurrences of **all four** 2-bit codes among the first `count`
/// codes packed in `words`, touching each word exactly once. Splits every
/// word into its low/high bit planes and classifies all 32 lanes with three
/// popcounts; code 0 falls out as `lanes - (c1 + c2 + c3)`.
#[inline(always)]
fn rank4_in_words(words: &[u64], count: usize) -> [u64; 4] {
    debug_assert!(count <= words.len() * 32);
    const LANES: u64 = 0x5555_5555_5555_5555;
    let mut out = [0u64; 4];
    let mut remaining = count;
    for &w in words {
        if remaining == 0 {
            break;
        }
        let lanes = remaining.min(32);
        let mask = if lanes == 32 {
            LANES
        } else {
            LANES & ((1u64 << (lanes * 2)) - 1)
        };
        let lo = w & mask;
        let hi = (w >> 1) & mask;
        let n3 = (hi & lo).count_ones() as u64;
        let n2 = (hi & !lo).count_ones() as u64;
        let n1 = (!hi & lo).count_ones() as u64;
        out[3] += n3;
        out[2] += n2;
        out[1] += n1;
        out[0] += lanes as u64 - n1 - n2 - n3;
        remaining -= lanes;
    }
    out
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

    #[test]
    fn occ4_matches_four_scalar_occ_calls() {
        // Exercise block-interior, block-boundary, and end-of-text ranks,
        // including a text length that is an exact OCC_INTERVAL multiple
        // (the block_of boundary case).
        for len in [1usize, 127, 128, 129, 256, 300, 513] {
            let text = rand_codes(len, len as u64 + 11);
            let fm = FmIndex::from_text(&text);
            for i in 0..=fm.seq_len() {
                let fast = fm.occ4(i, &mut NullTrace);
                for c in 0..4u8 {
                    assert_eq!(
                        fast[c as usize],
                        fm.occ(c, i, &mut NullTrace),
                        "len {len} rank {i} code {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn occ4_traces_one_block_per_position() {
        let text = rand_codes(500, 3);
        let fm = FmIndex::from_text(&text);
        let mut count = CountTrace::default();
        fm.occ4(137, &mut count);
        assert_eq!(count.0, 1);
        // The recorded address is the same block a scalar occ records.
        let mut a = crate::trace::VecTrace::default();
        let mut b = crate::trace::VecTrace::default();
        fm.occ4(137, &mut a);
        fm.occ(2, 137, &mut b);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn occ4_cached_matches_and_counts_hits() {
        let text = rand_codes(700, 17);
        let fm = FmIndex::from_text(&text);
        let mut cache = OccCache::new();
        for i in 0..=fm.seq_len() {
            let fast = fm.occ4(i, &mut NullTrace);
            let cached = fm.occ4_cached(i, &mut cache, &mut NullTrace);
            assert_eq!(fast, cached, "rank {i}");
        }
        // Sequential ranks revisit each block OCC_INTERVAL times, so the
        // overwhelming majority of lookups must hit.
        assert_eq!(cache.lookups, fm.seq_len() + 1);
        assert!(cache.hits >= cache.lookups - fm.occ_blocks() as u64 - 1);
        // And random revisit order still agrees.
        cache.reset();
        let mut state = 0xdecafu64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 33) % (fm.seq_len() + 1);
            assert_eq!(
                fm.occ4(i, &mut NullTrace),
                fm.occ4_cached(i, &mut cache, &mut NullTrace)
            );
        }
    }

    #[test]
    fn occ4_cached_trace_is_identical_to_uncached() {
        let text = rand_codes(512, 9); // exact multiple of OCC_INTERVAL
        let fm = FmIndex::from_text(&text);
        let mut cache = OccCache::new();
        let mut with_cache = crate::trace::VecTrace::default();
        let mut without = crate::trace::VecTrace::default();
        let ranks = [0u64, 5, 5, 130, 131, 129, 400, 401, fm.seq_len()];
        for &i in &ranks {
            fm.occ4_cached(i, &mut cache, &mut with_cache);
            fm.occ4(i, &mut without);
        }
        assert_eq!(with_cache.0, without.0, "cache must be trace-invisible");
        assert!(cache.hits > 0, "repeated ranks must hit");
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
