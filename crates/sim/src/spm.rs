//! Scratchpad memory (SPM) model.
//!
//! A block-granular on-chip memory with FIFO replacement: a hit costs a
//! fixed pipelined latency, a miss must be filled from memory by the caller.
//! Its one user is the SU pool's shared index-table SRAM
//! (`nvwa_core::units::su`), which probes it once per FM-index access of
//! every read — so residency is answered without a cryptographic hash, from
//! a table sized by the capacity, never by the address space.

use std::collections::VecDeque;

use crate::Cycle;

/// A block-granular scratchpad with FIFO replacement.
///
/// # Examples
///
/// ```
/// use nvwa_sim::Scratchpad;
/// let mut spm = Scratchpad::new(2, 1);
/// spm.fill(10);
/// spm.fill(11);
/// assert!(spm.contains(10));
/// spm.fill(12); // evicts 10
/// assert!(!spm.contains(10));
/// ```
#[derive(Debug, Clone)]
pub struct Scratchpad {
    capacity_blocks: usize,
    hit_latency: Cycle,
    /// The resident blocks, oldest fill first.
    order: VecDeque<u64>,
    /// The same blocks as an open-addressed set: a power-of-two table at
    /// most a quarter full (probe runs of one or two slots, which the
    /// branch predictor learns), linear probing from [`Scratchpad::home`].
    table: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
}

impl Scratchpad {
    /// Creates a scratchpad holding `capacity_blocks` blocks with the given
    /// hit latency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks == 0`.
    pub fn new(capacity_blocks: usize, hit_latency: Cycle) -> Scratchpad {
        assert!(capacity_blocks > 0, "capacity must be positive");
        Scratchpad {
            capacity_blocks,
            hit_latency,
            order: VecDeque::with_capacity(capacity_blocks),
            table: vec![None; (4 * capacity_blocks).next_power_of_two()],
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> Cycle {
        self.hit_latency
    }

    /// The table slot a probe for `block` starts at (Fibonacci hashing).
    fn home(&self, block: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The table slot holding `block`, or the empty slot its probe ends at.
    fn probe(&self, block: u64) -> usize {
        let mut i = self.home(block);
        while self.table[i].is_some_and(|resident| resident != block) {
            i = (i + 1) & (self.table.len() - 1);
        }
        i
    }

    /// Empties `block`'s table slot and re-seats the rest of its probe run,
    /// so no later probe ends early at the gap.
    fn remove(&mut self, block: u64) {
        let mut i = self.probe(block);
        self.table[i] = None;
        loop {
            i = (i + 1) & (self.table.len() - 1);
            let Some(moved) = self.table[i].take() else {
                break;
            };
            let slot = self.probe(moved);
            self.table[slot] = Some(moved);
        }
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: u64) -> bool {
        self.table[self.probe(block)].is_some()
    }

    /// Installs `block`, evicting the oldest resident block if full.
    pub fn fill(&mut self, block: u64) {
        if self.contains(block) {
            return;
        }
        if self.order.len() == self.capacity_blocks {
            let oldest = self.order.pop_front().expect("capacity is positive");
            self.remove(oldest);
        }
        self.order.push_back(block);
        let slot = self.probe(block);
        self.table[slot] = Some(block);
    }

    /// Performs an access: returns `Some(hit_latency)` on a hit, `None` on a
    /// miss (the caller fetches from memory and should then [`fill`]).
    ///
    /// [`fill`]: Scratchpad::fill
    pub fn access(&mut self, block: u64) -> Option<Cycle> {
        if self.contains(block) {
            self.hits += 1;
            Some(self.hit_latency)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate (0.0 when no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut spm = Scratchpad::new(4, 2);
        assert_eq!(spm.access(1), None);
        spm.fill(1);
        assert_eq!(spm.access(1), Some(2));
        assert_eq!(spm.hits(), 1);
        assert_eq!(spm.misses(), 1);
        assert_eq!(spm.hit_rate(), 0.5);
    }

    #[test]
    fn fifo_eviction() {
        let mut spm = Scratchpad::new(2, 1);
        spm.fill(1);
        spm.fill(2);
        spm.fill(3); // evicts 1
        assert!(!spm.contains(1));
        assert!(spm.contains(2));
        assert!(spm.contains(3));
    }

    #[test]
    fn refill_of_resident_block_is_noop() {
        let mut spm = Scratchpad::new(2, 1);
        spm.fill(1);
        spm.fill(1);
        spm.fill(2);
        spm.fill(3); // must evict 1 (inserted once), not duplicate
        assert!(!spm.contains(1));
        assert_eq!(spm.capacity_blocks(), 2);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        let spm = Scratchpad::new(1, 1);
        assert_eq!(spm.hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Scratchpad::new(0, 1);
    }
}
