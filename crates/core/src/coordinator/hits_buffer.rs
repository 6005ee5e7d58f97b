//! The double-buffered Hits Buffer (Fig. 10).
//!
//! SUs push hits into the *Store Buffer* (SB); the Hits Allocator consumes
//! batches from the *Processing Buffer* (PB). When the SB reaches its switch
//! threshold and the PB is drained, the two swap roles.
//!
//! **Fragmentation handling**: hits that could not be allocated in a round
//! stay in the PB. After each round the batch is compacted — allocated
//! entries first, survivors at the end of the batch region — and the
//! `offset` watermark advances past the allocated ones, so survivors are
//! re-read by the next round exactly as the paper's nine-step dataflow
//! describes.

/// Error returned when pushing to a full Store Buffer; carries the hit back
/// so the producer can stall and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferFull<T>(pub T);

/// Outcome of one allocation round against the Processing Buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Hits allocated in this round.
    pub allocated: usize,
    /// Hits left fragmented (to be retried).
    pub unallocated: usize,
}

/// The Store/Processing double buffer.
#[derive(Debug, Clone)]
pub struct HitsBuffer<T> {
    depth: usize,
    switch_threshold: f64,
    store: Vec<T>,
    processing: Vec<T>,
    offset: usize,
    switches: u64,
}

impl<T> HitsBuffer<T> {
    /// Creates a buffer pair of `depth` entries each, switching when the SB
    /// reaches `switch_threshold` (the paper uses 75 %).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` or the threshold is outside `(0, 1]`.
    pub fn new(depth: usize, switch_threshold: f64) -> HitsBuffer<T> {
        assert!(depth > 0, "buffer depth must be positive");
        assert!(
            switch_threshold > 0.0 && switch_threshold <= 1.0,
            "switch threshold must be in (0, 1]"
        );
        HitsBuffer {
            depth,
            switch_threshold,
            store: Vec::with_capacity(depth),
            processing: Vec::new(),
            offset: 0,
            switches: 0,
        }
    }

    /// Buffer depth (entries per buffer).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes a hit into the Store Buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BufferFull`] (carrying the hit) when the SB is full — the
    /// producing SU must suspend, exactly the blocking state of Fig. 13a.
    pub fn push(&mut self, hit: T) -> Result<(), BufferFull<T>> {
        if self.store.len() >= self.depth {
            return Err(BufferFull(hit));
        }
        self.store.push(hit);
        Ok(())
    }

    /// Current Store Buffer occupancy.
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Store Buffer fill fraction.
    pub fn store_fill(&self) -> f64 {
        self.store.len() as f64 / self.depth as f64
    }

    /// Unconsumed hits remaining in the Processing Buffer.
    pub fn processing_remaining(&self) -> usize {
        self.processing.len() - self.offset
    }

    /// Whether the PB is fully drained (a precondition for switching).
    pub fn processing_drained(&self) -> bool {
        self.offset >= self.processing.len()
    }

    /// Whether the SB has reached the switch threshold.
    pub fn store_ready(&self) -> bool {
        self.store_fill() >= self.switch_threshold
    }

    /// Number of buffer switches performed.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Whether a switch should happen now (threshold reached, PB drained).
    /// `force` relaxes the threshold (used to drain the tail of a run).
    pub fn should_switch(&self, force: bool) -> bool {
        self.processing_drained() && !self.store.is_empty() && (force || self.store_ready())
    }

    /// Swaps the buffers. Returns `false` (and does nothing) if the PB is
    /// not drained or the SB is empty.
    pub fn switch(&mut self) -> bool {
        if !self.processing_drained() || self.store.is_empty() {
            return false;
        }
        self.processing.clear();
        std::mem::swap(&mut self.store, &mut self.processing);
        self.offset = 0;
        self.switches += 1;
        true
    }

    /// The next batch the allocator will see: up to `batch_size` hits from
    /// the current offset.
    pub fn peek_batch(&self, batch_size: usize) -> &[T] {
        let end = (self.offset + batch_size).min(self.processing.len());
        &self.processing[self.offset..end]
    }

    /// Completes an allocation round: `allocated[i]` says whether batch slot
    /// `i` (as returned by [`peek_batch`]) was dispatched. Allocated entries
    /// are compacted to the top of the batch region, survivors to the
    /// bottom, and the offset advances past the allocated ones.
    ///
    /// [`peek_batch`]: HitsBuffer::peek_batch
    ///
    /// # Panics
    ///
    /// Panics if `allocated.len()` exceeds the current batch.
    pub fn complete_round(&mut self, allocated: &[bool]) -> RoundStats {
        let end = self.offset + allocated.len();
        assert!(end <= self.processing.len(), "round exceeds batch");
        // Each allocated hit moves up to the end of the allocated run; the
        // survivors it passes shift down one place, keeping their order.
        let mut write = self.offset;
        for (read, &taken) in (self.offset..end).zip(allocated) {
            if taken {
                self.processing[write..=read].rotate_right(1);
                write += 1;
            }
        }
        let n_alloc = write - self.offset;
        self.offset += n_alloc;
        RoundStats {
            allocated: n_alloc,
            unallocated: allocated.len() - n_alloc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_until_full_then_blocks() {
        let mut buf: HitsBuffer<u32> = HitsBuffer::new(4, 0.75);
        for i in 0..4 {
            buf.push(i).unwrap();
        }
        assert_eq!(buf.push(99), Err(BufferFull(99)));
        assert_eq!(buf.store_len(), 4);
    }

    #[test]
    fn switch_requires_threshold_and_drained_pb() {
        let mut buf: HitsBuffer<u32> = HitsBuffer::new(4, 0.75);
        buf.push(1).unwrap();
        buf.push(2).unwrap();
        assert!(!buf.should_switch(false)); // 50% < 75%
        assert!(buf.should_switch(true)); // forced drain
        buf.push(3).unwrap();
        assert!(buf.should_switch(false)); // 75% reached, PB empty
        assert!(buf.switch());
        assert_eq!(buf.processing_remaining(), 3);
        assert_eq!(buf.store_len(), 0);
        assert_eq!(buf.switches(), 1);
    }

    #[test]
    fn cannot_switch_with_undrained_pb() {
        let mut buf: HitsBuffer<u32> = HitsBuffer::new(4, 0.5);
        buf.push(1).unwrap();
        buf.push(2).unwrap();
        assert!(buf.switch());
        buf.push(3).unwrap();
        buf.push(4).unwrap();
        // PB still holds 2 unconsumed hits.
        assert!(!buf.should_switch(true));
        assert!(!buf.switch());
    }

    #[test]
    fn fig10_fragmentation_walkthrough() {
        // Fig. 10's example: batch (7, 29, 40, 103); hits 7, 29 and 103 are
        // allocated, 40 is not. After the round the offset is 3 and hit 40
        // is re-read by the next round.
        let mut buf: HitsBuffer<u32> = HitsBuffer::new(8, 0.5);
        for len in [7u32, 29, 40, 103] {
            buf.push(len).unwrap();
        }
        assert!(buf.switch());
        let batch = buf.peek_batch(4).to_vec();
        assert_eq!(batch, vec![7, 29, 40, 103]);
        let stats = buf.complete_round(&[true, true, false, true]);
        assert_eq!(
            stats,
            RoundStats {
                allocated: 3,
                unallocated: 1
            }
        );
        // Offset is 3; the survivor is at the bottom of the batch region.
        assert_eq!(buf.processing_remaining(), 1);
        assert_eq!(buf.peek_batch(4), &[40]);
        let stats = buf.complete_round(&[true]);
        assert_eq!(stats.allocated, 1);
        assert!(buf.processing_drained());
    }

    #[test]
    fn survivors_preserve_relative_order() {
        let mut buf: HitsBuffer<u32> = HitsBuffer::new(8, 0.5);
        for v in [10u32, 20, 30, 40, 50] {
            buf.push(v).unwrap();
        }
        buf.switch();
        let _ = buf.peek_batch(5);
        buf.complete_round(&[false, true, false, true, false]);
        assert_eq!(buf.peek_batch(5), &[10, 30, 50]);
    }

    #[test]
    fn zero_allocation_round_makes_no_progress() {
        let mut buf: HitsBuffer<u32> = HitsBuffer::new(4, 0.5);
        buf.push(1).unwrap();
        buf.push(2).unwrap();
        buf.switch();
        let stats = buf.complete_round(&[false, false]);
        assert_eq!(stats.allocated, 0);
        assert_eq!(buf.processing_remaining(), 2);
        assert_eq!(buf.peek_batch(4), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "buffer depth must be positive")]
    fn zero_depth_panics() {
        let _: HitsBuffer<u32> = HitsBuffer::new(0, 0.5);
    }
}
