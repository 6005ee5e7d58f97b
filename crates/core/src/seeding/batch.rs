//! The Read-in-Batch baseline scheduler (Fig. 5a).
//!
//! "Read-in-Batch is a typical approach adopted by state-of-the-art seeding
//! accelerators such as GenAx and ERT": a new batch of reads is issued only
//! when *every* unit in the pool has finished the previous batch, so early
//! finishers idle until the batch straggler completes.

use super::ocra::{priority_mask_word, OneCycleReadAllocator};

/// The Read-in-Batch scheduler.
///
/// # Examples
///
/// ```
/// use nvwa_core::seeding::BatchScheduler;
/// let sched = BatchScheduler::new(4);
/// // One unit (bit 1) still busy: nobody gets a read.
/// assert_eq!(sched.allocate(&[0b1101], 0, u64::MAX).count(), 0);
/// // All idle: the whole batch issues at once.
/// let grants: Vec<_> = sched.allocate(&[0b1111], 0, u64::MAX).collect();
/// assert_eq!(grants, [(0, 0), (1, 1), (2, 2), (3, 3)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchScheduler {
    units: usize,
}

impl BatchScheduler {
    /// Creates a scheduler for `units` seeding units (the batch size equals
    /// the pool size, as in the prior designs).
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn new(units: usize) -> BatchScheduler {
        assert!(units > 0, "need at least one unit");
        BatchScheduler { units }
    }

    /// Issues a full batch when every unit is idle; otherwise issues
    /// nothing. The idle word and the grants are those of
    /// [`OneCycleReadAllocator::allocate`].
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
        let pool = |w| priority_mask_word(self.units, w, self.units);
        let all_idle = (idle.iter().enumerate()).all(|(w, &bits)| bits & pool(w) == pool(w));
        let issue = if all_idle { remaining } else { 0 };
        OneCycleReadAllocator::new(self.units).allocate(idle, next_read, issue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grants(sched: BatchScheduler, idle: &[u64], next: u64, remaining: u64) -> Vec<(usize, u64)> {
        sched.allocate(idle, next, remaining).collect()
    }

    #[test]
    fn waits_for_stragglers() {
        assert_eq!(grants(BatchScheduler::new(4), &[0b0111], 8, u64::MAX), []);
    }

    #[test]
    fn issues_batch_when_all_idle() {
        let sched = BatchScheduler::new(3);
        assert_eq!(
            grants(sched, &[0b111], 9, u64::MAX),
            [(0, 9), (1, 10), (2, 11)]
        );
        // Bits past the pool are not units.
        assert_eq!(grants(sched, &[u64::MAX], 9, u64::MAX).len(), 3);
    }

    #[test]
    fn partial_final_batch() {
        let sched = BatchScheduler::new(4);
        assert_eq!(grants(sched, &[0b1111], 100, 2), [(0, 100), (1, 101)]);
    }

    #[test]
    fn no_reads_left_issues_nothing() {
        assert_eq!(grants(BatchScheduler::new(2), &[0b11], 5, 0), []);
    }

    #[test]
    fn a_pool_across_words_waits_for_its_last_unit() {
        let sched = BatchScheduler::new(70);
        assert_eq!(grants(sched, &[u64::MAX, 0b01_1111], 0, u64::MAX), []);
        assert_eq!(grants(sched, &[u64::MAX, 0b11_1111], 0, u64::MAX).len(), 70);
    }
}
