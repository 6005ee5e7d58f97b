//! Scratchpad memory (SPM) model.
//!
//! A block-granular on-chip memory with FIFO replacement: a hit costs a
//! fixed pipelined latency, a miss is fetched from memory by the caller and
//! installed here. Its one user is the SU pool's shared index-table SRAM
//! (`nvwa_core::units::su`), which probes it once per FM-index access of
//! every read — so residency is answered without a cryptographic hash, from
//! a table sized by the capacity, never by the address space.

use std::collections::VecDeque;

use crate::Cycle;

/// Keys per bucket. A bucket is seven keys and then the metadata word (the
/// occupancy mask, and from bit 8 the count of resident keys that found the
/// bucket full and went on): 64 bytes, at natural alignment (DESIGN.md §16).
const WAYS: usize = 7;
const OCCUPIED: u64 = (1 << WAYS) - 1;
const OVERFLOW_ONE: u64 = 1 << 8;

/// The occupied way of `bucket` holding `block`, if any.
#[inline]
fn find(bucket: &[u64; WAYS + 1], block: u64) -> Option<usize> {
    let found = (0..WAYS).fold(0, |m, way| m | u64::from(bucket[way] == block) << way);
    let found = found & bucket[WAYS] & OCCUPIED;
    (found != 0).then(|| found.trailing_zeros() as usize)
}

/// A block-granular scratchpad with FIFO replacement.
///
/// # Examples
///
/// ```
/// use nvwa_sim::Scratchpad;
/// let mut spm = Scratchpad::new(2, 1);
/// assert_eq!(spm.access(10), None); // a miss installs the block
/// spm.access(11);
/// assert_eq!(spm.access(10), Some(1));
/// spm.access(12); // evicts 10
/// assert!(!spm.contains(10));
/// ```
#[derive(Debug, Clone)]
pub struct Scratchpad {
    capacity_blocks: usize,
    hit_latency: Cycle,
    /// The resident blocks, oldest fill first.
    order: VecDeque<u64>,
    /// The same blocks, at most two sevenths full: a key sits in its home
    /// bucket or, when that was full, in the first one after it with room.
    buckets: Vec<[u64; WAYS + 1]>,
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
        let buckets = (2 * capacity_blocks.div_ceil(WAYS)).next_power_of_two();
        Scratchpad {
            capacity_blocks,
            hit_latency,
            order: VecDeque::with_capacity(capacity_blocks),
            buckets: vec![[0; WAYS + 1]; buckets],
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

    /// The bucket a probe for `block` starts at (Fibonacci hashing).
    #[inline]
    fn home(&self, block: u64) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Whether `block` is resident: its home bucket, then the next while the
    /// one just read counts an overflow.
    #[inline]
    pub fn contains(&self, block: u64) -> bool {
        let mut i = self.home(block);
        for _ in 0..self.buckets.len() {
            let found = find(&self.buckets[i], block).is_some();
            if found || self.buckets[i][WAYS] < OVERFLOW_ONE {
                return found;
            }
            i = (i + 1) & (self.buckets.len() - 1);
        }
        false
    }

    /// Performs an access: `Some(hit_latency)` on a hit; on a miss `None` (the
    /// caller fetches from memory), installing `block` over the oldest.
    #[inline]
    pub fn access(&mut self, block: u64) -> Option<Cycle> {
        if self.contains(block) {
            self.hits += 1;
            return Some(self.hit_latency);
        }
        self.install(block);
        None
    }

    /// The miss path, out of line so that the hit path inlines into the
    /// caller's loop. Every full bucket the insertion passes counts it.
    #[inline(never)]
    fn install(&mut self, block: u64) {
        self.misses += 1;
        if self.order.len() == self.capacity_blocks {
            let oldest = self.order.pop_front().expect("capacity is positive");
            self.remove(oldest);
        }
        self.order.push_back(block);
        let mut i = self.home(block);
        while self.buckets[i][WAYS] & OCCUPIED == OCCUPIED {
            self.buckets[i][WAYS] += OVERFLOW_ONE;
            i = (i + 1) & (self.buckets.len() - 1);
        }
        let way = (!self.buckets[i][WAYS] & OCCUPIED).trailing_zeros() as usize;
        self.buckets[i][way] = block;
        self.buckets[i][WAYS] |= 1 << way;
    }

    /// Clears resident `block`'s way and takes it off the overflow count of
    /// every bucket its insertion passed.
    fn remove(&mut self, block: u64) {
        let mut i = self.home(block);
        loop {
            let bucket = &mut self.buckets[i];
            if let Some(way) = find(bucket, block) {
                bucket[WAYS] &= !(1 << way);
                return;
            }
            bucket[WAYS] -= OVERFLOW_ONE;
            i = (i + 1) & (self.buckets.len() - 1);
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
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut spm = Scratchpad::new(4, 2);
        assert_eq!(spm.access(1), None);
        assert_eq!(spm.access(1), Some(2));
        assert_eq!(spm.hits(), 1);
        assert_eq!(spm.misses(), 1);
        assert_eq!(spm.hit_rate(), 0.5);
    }

    #[test]
    fn fifo_eviction() {
        let mut spm = Scratchpad::new(2, 1);
        spm.access(1);
        spm.access(2);
        spm.access(3); // evicts 1
        assert!(!spm.contains(1));
        assert!(spm.contains(2));
        assert!(spm.contains(3));
    }

    #[test]
    fn refill_of_resident_block_is_noop() {
        let mut spm = Scratchpad::new(2, 1);
        spm.access(1);
        spm.access(1);
        spm.access(2);
        spm.access(3); // must evict 1 (installed once), not duplicate
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

    /// Every bucket's overflow count equals the resident keys whose probe
    /// from their home bucket passes it.
    fn assert_overflow_counts(spm: &Scratchpad) {
        let mut want = vec![0u64; spm.buckets.len()];
        for (i, bucket) in spm.buckets.iter().enumerate() {
            for way in (0..WAYS).filter(|way| bucket[WAYS] >> way & 1 == 1) {
                let mut j = spm.home(bucket[way]);
                while j != i {
                    want[j] += 1;
                    j = (j + 1) & (spm.buckets.len() - 1);
                }
            }
        }
        let got: Vec<u64> = spm.buckets.iter().map(|b| b[WAYS] / OVERFLOW_ONE).collect();
        assert_eq!(got, want, "overflow counts");
    }

    #[test]
    fn overflowed_keys_are_found_evicted_and_refilled() {
        let (capacity, latency) = (64, 3);
        let mut spm = Scratchpad::new(capacity, latency);
        // Three buckets' worth of ids share one home bucket, so the last
        // two sevenths overflow into the next two buckets.
        let home = spm.home(0);
        let crowd: Vec<u64> = (1..)
            .filter(|&block| spm.home(block) == home)
            .take(3 * WAYS)
            .collect();
        let others: Vec<u64> = (1 << 40..)
            .filter(|&block| spm.home(block) != home)
            .take(capacity)
            .collect();
        let mut order = VecDeque::new();
        let mut resident = HashSet::new();
        let (mut hits, mut misses) = (0, 0);
        let mut step = |spm: &mut Scratchpad, block: u64| {
            let hit = resident.contains(&block);
            if hit {
                hits += 1;
            } else {
                misses += 1;
                if order.len() == capacity {
                    resident.remove(&order.pop_front().unwrap());
                }
                order.push_back(block);
                resident.insert(block);
            }
            assert_eq!(spm.access(block), hit.then_some(latency), "block {block}");
            assert_eq!((spm.hits(), spm.misses()), (hits, misses));
            for &probe in crowd.iter().chain(&others) {
                assert_eq!(spm.contains(probe), resident.contains(&probe), "{probe}");
            }
            assert_overflow_counts(spm);
        };
        // Fill the crowd (ways 7..21 overflow), hit every one of them, then
        // push the oldest home keys and the oldest overflowed keys out with
        // other blocks, and bring the crowd back.
        for &block in crowd.iter().chain(&crowd) {
            step(&mut spm, block);
        }
        assert!(spm.buckets[home][WAYS] >= 2 * WAYS as u64 * OVERFLOW_ONE);
        for &block in &others[..capacity - 2 * WAYS + 3] {
            step(&mut spm, block);
        }
        for &block in crowd.iter().chain(&crowd).chain(&others) {
            step(&mut spm, block);
        }
    }
}
