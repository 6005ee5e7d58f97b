//! The One-Cycle Read Allocator (Figs. 5–6).
//!
//! Priority-by-index allocation: at each cycle, the idle SU with the
//! smallest index receives the next unprocessed read. With `g` the global
//! read offset and `s_k` the busy bits, unit `i` receives read
//! `g + Σ_{k<i}(1 − s_k)` (Formula 1, 0-based here) and `g` advances by the
//! number of idle units (Formula 2).
//!
//! Two implementations are provided and tested equivalent: the idle word's
//! set bits in index order (what the simulator calls) and the bit-parallel
//! microarchitecture of Fig. 6 (per-unit priority masks + a shared PopCount
//! tree), whose depth determines the 1-cycle feasibility at 1 GHz.

use nvwa_sim::Cycle;

/// The One-Cycle Read Allocator.
///
/// # Examples
///
/// ```
/// use nvwa_core::seeding::OneCycleReadAllocator;
/// let ocra = OneCycleReadAllocator::new(4);
/// // Units 1 and 2 idle (bits 1 and 2 of the idle word): they receive
/// // reads 7 and 8.
/// let grants: Vec<_> = ocra.allocate(&[0b0110], 7, u64::MAX).collect();
/// assert_eq!(grants, [(1, 7), (2, 8)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneCycleReadAllocator {
    units: usize,
}

impl OneCycleReadAllocator {
    /// Creates an allocator for `units` seeding units.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn new(units: usize) -> OneCycleReadAllocator {
        assert!(units > 0, "need at least one unit");
        OneCycleReadAllocator { units }
    }

    /// Allocates reads to all idle units in one cycle (Formulas 1–2).
    ///
    /// `idle` is the idle word (Fig. 6's inverted status): bit `i % 64` of
    /// word `i / 64` is set when unit `i` is idle; bits past the pool are
    /// ignored. Yields `(unit, read)` in unit order, the `k`-th idle unit
    /// receiving read `next_read + k`, at most `remaining` of them; the
    /// offset advances by the number yielded.
    ///
    /// # Panics
    ///
    /// Panics if `idle` is not `units.div_ceil(64)` words long.
    pub fn allocate<'a>(
        &self,
        idle: &'a [u64],
        next_read: u64,
        remaining: u64,
    ) -> impl Iterator<Item = (usize, u64)> + 'a {
        assert_eq!(idle.len(), self.units.div_ceil(64), "status width mismatch");
        let n = self.units;
        let pool = (idle.iter().enumerate()).map(move |(w, &x)| x & priority_mask_word(n, w, n));
        set_bits(pool).zip(next_read..next_read.saturating_add(remaining))
    }

    /// The Fig. 6 microarchitecture, emulated bit-parallel: ① invert
    /// `unit_status`, ② AND with the per-unit priority mask, ③ PopCount
    /// tree, ④ add `read_offset`, ⑤ mux on the unit's own idle bit.
    ///
    /// `status` is the busy word (bit set: unit busy). Hands out exactly
    /// what [`allocate`] does, as a per-unit assignment and the new offset;
    /// exists to validate the hardware datapath and to size the PopCount
    /// tree.
    ///
    /// [`allocate`]: OneCycleReadAllocator::allocate
    pub fn allocate_bit_parallel(
        &self,
        status: &[u64],
        next_read: u64,
        remaining: u64,
    ) -> (Vec<Option<u64>>, u64) {
        let n = self.units;
        assert_eq!(status.len(), n.div_ceil(64), "status width mismatch");
        // Step ①: bitwise inverse = idle mask.
        let idle: Vec<u64> = status.iter().map(|w| !w).collect();
        let mut assigned = vec![None; n];
        let mut total_idle = 0u64;
        for i in 0..n {
            // Step ②: AND the idle mask with the priority mask (bits < i).
            // Step ③: PopCount tree over the masked words.
            let count: u64 = (idle.iter().enumerate())
                .map(|(w, &word)| (word & priority_mask_word(i, w, n)).count_ones() as u64)
                .sum();
            // Step ④ + ⑤: add the offset and mux on the unit's idle bit.
            if (idle[i / 64] >> (i % 64)) & 1 == 1 {
                if count < remaining {
                    assigned[i] = Some(next_read + count);
                }
                total_idle += 1;
            }
        }
        (assigned, next_read + total_idle.min(remaining))
    }
}

/// Word `w` of the priority mask for unit `i`: bits set for unit indices
/// `< i` (and `< n`).
pub(crate) fn priority_mask_word(i: usize, w: usize, n: usize) -> u64 {
    let bits = i.min(n).saturating_sub(w * 64).min(64) as u32;
    u64::MAX.checked_shr(64 - bits).unwrap_or(0)
}

/// The indices of the set bits of a run of status words, lowest first.
pub(crate) fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, word)| {
        std::iter::successors(Some(word).filter(|&x| x != 0), |&x| {
            Some(x & (x - 1)).filter(|&x| x != 0)
        })
        .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// The shared PopCount tree of the Fig. 6 datapath.
///
/// The tree reduces `width` idle bits; its depth is `ceil(log2(width))`
/// adder stages. The paper: "the number of seeding units is from 64 to 512,
/// and the depth of the tree is from 6 to 9, which makes the hardware
/// latency requirements can be easily satisfied at 1 GHz".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopcountTree {
    width: usize,
}

impl PopcountTree {
    /// A tree reducing `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> PopcountTree {
        assert!(width > 0, "tree must have at least one input");
        PopcountTree { width }
    }

    /// Tree depth in adder stages.
    pub fn depth(&self) -> u32 {
        (self.width as u64)
            .next_power_of_two()
            .trailing_zeros()
            .max(1)
    }

    /// Whether the tree settles within one cycle at `freq_ghz`, assuming
    /// `stage_delay_ps` of adder delay per stage.
    pub fn fits_one_cycle(&self, freq_ghz: f64, stage_delay_ps: f64) -> bool {
        self.depth() as f64 * stage_delay_ps <= 1000.0 / freq_ghz
    }
}

/// A recorded SU schedule entry, used by the Fig. 5 comparison driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Unit index.
    pub unit: usize,
    /// Read index executed.
    pub read: u64,
    /// Cycle the read was issued.
    pub start: Cycle,
    /// Cycle the unit finished.
    pub end: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The busy word of the status bits `busy`.
    fn status(busy: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; busy.len().div_ceil(64)];
        for (i, _) in busy.iter().enumerate().filter(|(_, &b)| b) {
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }

    /// [`OneCycleReadAllocator::allocate`] on the status bits `busy`, in
    /// [`OneCycleReadAllocator::allocate_bit_parallel`]'s per-unit form.
    fn by_grants(
        ocra: &OneCycleReadAllocator,
        busy: &[bool],
        next_read: u64,
        remaining: u64,
    ) -> (Vec<Option<u64>>, u64) {
        let idle: Vec<u64> = status(busy).iter().map(|w| !w).collect();
        let mut assigned = vec![None; busy.len()];
        let mut next = next_read;
        for (unit, read) in ocra.allocate(&idle, next_read, remaining) {
            assigned[unit] = Some(read);
            next = read + 1;
        }
        (assigned, next)
    }

    #[test]
    fn all_idle_units_filled_in_one_call() {
        let ocra = OneCycleReadAllocator::new(4);
        let (a, next) = by_grants(&ocra, &[false; 4], 0, u64::MAX);
        assert_eq!(a, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(next, 4);
    }

    #[test]
    fn busy_units_are_skipped_and_priority_is_by_index() {
        let ocra = OneCycleReadAllocator::new(4);
        // Matches the paper's Fig. 5(b) example at T1+2: unit 0 busy, units
        // 1 and 2 idle → they get the next two reads in index order.
        let (a, next) = by_grants(&ocra, &[true, false, false, true], 4, u64::MAX);
        assert_eq!(a, vec![None, Some(4), Some(5), None]);
        assert_eq!(next, 6);
    }

    #[test]
    fn remaining_reads_cap_assignment() {
        let ocra = OneCycleReadAllocator::new(4);
        let (a, next) = by_grants(&ocra, &[false; 4], 10, 2);
        assert_eq!(a, vec![Some(10), Some(11), None, None]);
        assert_eq!(next, 12);
    }

    #[test]
    fn bit_parallel_matches_formula() {
        // Exhaustive over all 2^8 status patterns for 8 units, plus a wide
        // 130-unit spot check (crosses word boundaries).
        let ocra = OneCycleReadAllocator::new(8);
        for pattern in 0u32..256 {
            let busy: Vec<bool> = (0..8).map(|i| (pattern >> i) & 1 == 1).collect();
            for remaining in [0u64, 1, 3, u64::MAX] {
                assert_eq!(
                    by_grants(&ocra, &busy, 100, remaining),
                    ocra.allocate_bit_parallel(&status(&busy), 100, remaining),
                    "pattern {pattern:08b} remaining {remaining}"
                );
            }
        }
        let wide = OneCycleReadAllocator::new(130);
        let busy: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        assert_eq!(
            by_grants(&wide, &busy, 7, u64::MAX),
            wide.allocate_bit_parallel(&status(&busy), 7, u64::MAX)
        );
    }

    #[test]
    fn popcount_tree_depths_match_paper() {
        // "the number of seeding units is from 64 to 512, and the depth of
        // the tree is from 6 to 9".
        assert_eq!(PopcountTree::new(64).depth(), 6);
        assert_eq!(PopcountTree::new(128).depth(), 7);
        assert_eq!(PopcountTree::new(256).depth(), 8);
        assert_eq!(PopcountTree::new(512).depth(), 9);
    }

    #[test]
    fn popcount_tree_fits_one_cycle_at_1ghz() {
        // With a ~100 ps adder stage, all paper sizes close timing at 1 GHz
        // (the paper reports a 0.9 ns critical path).
        for width in [64, 128, 256, 512] {
            assert!(PopcountTree::new(width).fits_one_cycle(1.0, 100.0));
        }
        // A megawide tree would not.
        assert!(!PopcountTree::new(1 << 20).fits_one_cycle(1.0, 100.0));
    }

    #[test]
    fn no_duplicate_reads_across_repeated_allocations() {
        let ocra = OneCycleReadAllocator::new(16);
        let mut next = 0u64;
        let mut seen = std::collections::HashSet::new();
        let mut state = 5u64;
        for _ in 0..100 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let busy: Vec<bool> = (0..16).map(|i| (state >> i) & 1 == 1).collect();
            let (assigned, n2) = by_grants(&ocra, &busy, next, u64::MAX);
            for r in assigned.into_iter().flatten() {
                assert!(seen.insert(r), "read {r} issued twice");
            }
            next = n2;
        }
    }

    #[test]
    #[should_panic(expected = "status width mismatch")]
    fn wrong_width_panics() {
        let ocra = OneCycleReadAllocator::new(4);
        let _ = ocra.allocate(&[0, 0], 0, 1);
    }
}
