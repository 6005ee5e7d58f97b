//! The length-binned dynamic batcher.
//!
//! The paper's Coordinator keeps the EU pool busy by grouping hits of
//! similar length before allocation (Fig. 10), so a long extension never
//! convoys a queue of short ones. The serving layer faces the same
//! problem one level up: heterogeneous reads arrive interleaved on one
//! admission queue, and batching them FIFO would let a single long read
//! stall a batch of short ones. The batcher therefore keeps one
//! accumulator per read-length *bin* and flushes each bin independently,
//! **fill-or-idle**: a bin ships the moment it holds `max_batch` requests
//! (fill), and a worker that comes free takes the bin holding the oldest
//! request as it stands (idle) — the Allocate Trigger's rule (§IV-A):
//! nothing waits on a clock, so an idle server adds no latency and a busy
//! one grows its batches to whatever arrived during the last execution.
//!
//! The bin layout is fixed, like the paper's interval bounds (Table I):
//! the [`SHORT_BIN_BOUNDS`] short-read bins, then the [`LONG_BIN_BOUNDS`]
//! long-read bins, then one classify bin, [`BINS`] in all. A request's bin
//! is chosen by *mode first, length second* ([`bin_for`]), so batches are
//! mode-homogeneous by construction — a worker never has to mix the
//! short-read kernel and the GACT pipeline inside one batch.
//!
//! The struct is a pure state machine over explicit timestamps (no clock
//! reads, no threads), so policy behaviour is unit-testable
//! deterministically; the server's dispatcher puts it behind the lock the
//! reactor admits through and the workers pull from.

use std::time::Instant;

use crate::protocol::Mode;

/// Upper bounds (exclusive) of the short-read length bins; lengths ≥ the
/// last bound share one overflow bin. They separate short Illumina-class
/// reads from mid and long reads.
pub const SHORT_BIN_BOUNDS: [usize; 3] = [256, 1024, 4096];

/// Upper bounds (exclusive) of the long-read length bins: one split at
/// 16 kb separates mid-length (ONT/PacBio CCS class) from ultralong reads.
pub const LONG_BIN_BOUNDS: [usize; 1] = [16_384];

/// Fill threshold of the classify bin.
pub const CLASSIFY_MAX_BATCH: usize = 16;

const SHORT_BINS: usize = SHORT_BIN_BOUNDS.len() + 1;

/// Number of bins: the short-read bins, the long-read bins and the
/// classify bin.
pub const BINS: usize = SHORT_BINS + LONG_BIN_BOUNDS.len() + 1 + 1;

/// The bin for a request: mode first, length second.
pub fn bin_for(mode: Mode, len: usize) -> usize {
    let within = |bounds: &[usize]| bounds.iter().take_while(|&&b| len >= b).count();
    match mode {
        Mode::Short => within(&SHORT_BIN_BOUNDS),
        Mode::Long => SHORT_BINS + within(&LONG_BIN_BOUNDS),
        Mode::Classify => BINS - 1,
    }
}

/// The traffic class that owns `bin` (the inverse of the layout
/// [`bin_for`] indexes into).
pub fn class_of_bin(bin: usize) -> Mode {
    if bin == BINS - 1 {
        Mode::Classify
    } else if bin >= SHORT_BINS {
        Mode::Long
    } else {
        Mode::Short
    }
}

/// Batching policy parameters: the fill threshold of each traffic class
/// whose batch size a deployment sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Flush a short-read bin as soon as it holds this many requests.
    pub max_batch: usize,
    /// Fill threshold for long-read bins. Long batches are small: one
    /// 20 kb GACT fill costs ~100× a 100 bp extension, so the fill
    /// threshold must trip earlier to keep bin latency comparable.
    pub long_max_batch: usize,
}

impl Default for BatcherConfig {
    fn default() -> BatcherConfig {
        BatcherConfig {
            max_batch: 64,
            long_max_batch: 8,
        }
    }
}

impl BatcherConfig {
    /// Does nothing: every batcher has the long-read and classify bins.
    /// Its one caller is the repository benchmark's staged replay
    /// (`benchmark/src/adapter.rs`); the method can go once that replay is
    /// dropped (ROADMAP item 1(a)).
    pub fn ensure_mode_bins(&mut self) {}

    /// The fill threshold for `bin`: its traffic class's knob.
    pub fn class_max_batch(&self, bin: usize) -> usize {
        match class_of_bin(bin) {
            Mode::Short => self.max_batch,
            Mode::Long => self.long_max_batch,
            Mode::Classify => CLASSIFY_MAX_BATCH,
        }
    }

    /// Checks the invariants [`Batcher::new`] promises; the server refuses
    /// to start on an `Err` rather than panic after it has bound.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if self.max_batch == 0 || self.long_max_batch == 0 {
            return Err("max_batch and long_max_batch must be positive");
        }
        Ok(())
    }
}

/// One queued request: an opaque payload plus the scheduling facts the
/// batcher needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem<T> {
    /// Caller payload (the server routes responses through it).
    pub payload: T,
    /// Read length in bases (selects the bin within the mode's class).
    pub len: usize,
    /// Traffic class (selects the bin group — mode beats length).
    pub mode: Mode,
    /// When the request was admitted (latency accounting).
    pub admitted_at: Instant,
    /// Absolute deadline; expired items are extracted at flush time.
    pub deadline: Option<Instant>,
}

/// Why a batch shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The bin reached `max_batch`.
    Fill,
    /// A free worker took the bin, partially full.
    Idle,
    /// The server is draining.
    Drain,
}

/// A formed batch: length-homogeneous, ready for a worker.
#[derive(Debug)]
pub struct Batch<T> {
    /// Index of the source bin.
    pub bin: usize,
    /// Traffic class of every item in the batch (bins are
    /// mode-dedicated, so batches are mode-homogeneous).
    pub mode: Mode,
    /// Why it shipped.
    pub reason: FlushReason,
    /// When a worker took the batch (the end of its items' queue stage);
    /// until one does, when it was formed.
    pub taken_at: Instant,
    /// Live requests, admission order preserved.
    pub items: Vec<BatchItem<T>>,
    /// Requests whose deadline expired while queued; the caller answers
    /// these with a `deadline` status instead of processing them.
    pub expired: Vec<BatchItem<T>>,
}

impl<T> Batch<T> {
    /// Admission time of the oldest request (both lists are in order).
    pub(crate) fn oldest(&self) -> Option<Instant> {
        let heads = self.items.first().into_iter().chain(self.expired.first());
        heads.map(|item| item.admitted_at).min()
    }

    /// Hands the batch to a worker at `now`: items whose deadline has
    /// passed move to `expired`.
    pub(crate) fn take_at(&mut self, now: Instant) {
        self.taken_at = now;
        let late = |item: &BatchItem<T>| item.deadline.is_some_and(|d| d <= now);
        if self.items.iter().any(late) {
            let (late, live) = std::mem::take(&mut self.items).into_iter().partition(late);
            self.items = live;
            self.expired.extend::<Vec<_>>(late);
        }
    }
}

/// The batcher state machine.
#[derive(Debug)]
pub struct Batcher<T> {
    config: BatcherConfig,
    bins: Vec<Vec<BatchItem<T>>>,
}

impl<T> Batcher<T> {
    /// Creates an empty batcher.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `long_max_batch` is 0.
    pub fn new(config: BatcherConfig) -> Batcher<T> {
        config.validate().unwrap_or_else(|why| panic!("{why}"));
        let bins = (0..BINS).map(|_| Vec::new()).collect();
        Batcher { config, bins }
    }

    /// Admits one request, returning any batch its arrival completed.
    pub fn offer(&mut self, item: BatchItem<T>, now: Instant) -> Option<Batch<T>> {
        let bin = bin_for(item.mode, item.len);
        self.bins[bin].push(item);
        if self.bins[bin].len() >= self.config.class_max_batch(bin) {
            Some(self.flush_bin(bin, FlushReason::Fill, now))
        } else {
            None
        }
    }

    /// The bin holding the oldest buffered request, and when it arrived.
    pub(crate) fn oldest_bin(&self) -> Option<(Instant, usize)> {
        let heads = self.bins.iter().enumerate();
        heads
            .filter_map(|(b, bin)| bin.first().map(|item| (item.admitted_at, b)))
            .min()
    }

    /// What a free worker takes: all of `bin` as it stands (under its fill
    /// threshold — a full bin already shipped from [`offer`](Batcher::offer)).
    pub(crate) fn take_bin(&mut self, bin: usize, now: Instant) -> Batch<T> {
        self.flush_bin(bin, FlushReason::Idle, now)
    }

    /// Flushes everything (shutdown drain), in bin order.
    pub fn drain(&mut self, now: Instant) -> Vec<Batch<T>> {
        (0..self.bins.len())
            .filter(|&b| !self.bins[b].is_empty())
            .collect::<Vec<_>>()
            .into_iter()
            .map(|b| self.flush_bin(b, FlushReason::Drain, now))
            .collect()
    }

    fn flush_bin(&mut self, bin: usize, reason: FlushReason, now: Instant) -> Batch<T> {
        let mut batch = Batch {
            bin,
            mode: class_of_bin(bin),
            reason,
            taken_at: now,
            items: std::mem::take(&mut self.bins[bin]),
            expired: Vec::new(),
        };
        batch.take_at(now);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    impl<T> Batcher<T> {
        /// Requests currently buffered across all bins.
        fn pending(&self) -> usize {
            self.bins.iter().map(Vec::len).sum()
        }
    }

    fn item(len: usize, at: Instant) -> BatchItem<u64> {
        BatchItem {
            payload: len as u64,
            len,
            mode: Mode::Short,
            admitted_at: at,
            deadline: None,
        }
    }

    fn moded(mode: Mode, len: usize, at: Instant) -> BatchItem<u64> {
        BatchItem {
            mode,
            ..item(len, at)
        }
    }

    fn config(max_batch: usize) -> BatcherConfig {
        BatcherConfig {
            max_batch,
            ..BatcherConfig::default()
        }
    }

    #[test]
    fn bin_selection_covers_the_length_axis() {
        assert_eq!(bin_for(Mode::Short, 0), 0);
        assert_eq!(bin_for(Mode::Short, 101), 0);
        assert_eq!(bin_for(Mode::Short, 255), 0);
        assert_eq!(bin_for(Mode::Short, 256), 1);
        assert_eq!(bin_for(Mode::Short, 4096), 3);
        assert_eq!(bin_for(Mode::Short, 50_000), 3);
        assert_eq!(BINS, 7);
    }

    #[test]
    fn fill_flushes_exactly_at_max_batch() {
        let mut b = Batcher::new(config(3));
        let t0 = Instant::now();
        assert!(b.offer(item(100, t0), t0).is_none());
        assert!(b.offer(item(100, t0), t0).is_none());
        let batch = b.offer(item(100, t0), t0).expect("third item fills");
        assert_eq!(batch.items.len(), 3);
        assert_eq!(batch.reason, FlushReason::Fill);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn short_and_long_reads_do_not_share_batches() {
        let mut b = Batcher::new(config(2));
        let t0 = Instant::now();
        assert!(b.offer(item(100, t0), t0).is_none());
        // A long read lands in another bin: the short bin keeps waiting.
        assert!(b.offer(item(2000, t0), t0).is_none());
        let batch = b.offer(item(101, t0), t0).expect("short bin fills");
        assert_eq!(batch.bin, 0);
        assert!(batch.items.iter().all(|i| i.len < 256));
        assert_eq!(b.pending(), 1, "long read still buffered");
    }

    #[test]
    fn a_free_worker_takes_the_bin_holding_the_oldest_request() {
        let mut b = Batcher::new(config(64));
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        assert!(b.oldest_bin().is_none(), "nothing buffered");
        b.offer(item(2000, t0 + ms(1)), t0 + ms(1));
        b.offer(item(100, t0 + ms(2)), t0 + ms(2));
        b.offer(item(101, t0 + ms(3)), t0 + ms(3));
        // The lone long read arrived first: it goes first, whole bin.
        assert_eq!(b.oldest_bin(), Some((t0 + ms(1), 2)));
        let batch = b.take_bin(2, t0 + ms(4));
        assert_eq!((batch.bin, batch.items.len()), (2, 1));
        assert_eq!(batch.reason, FlushReason::Idle);
        assert_eq!(batch.taken_at, t0 + ms(4));
        assert_eq!(b.oldest_bin(), Some((t0 + ms(2), 0)));
        let batch = b.take_bin(0, t0 + ms(4));
        let lens: Vec<usize> = batch.items.iter().map(|i| i.len).collect();
        assert_eq!(lens, [100, 101], "arrival order kept");
        assert!(b.oldest_bin().is_none());
    }

    #[test]
    fn expired_items_are_separated_at_flush() {
        let mut b = Batcher::new(config(64));
        let t0 = Instant::now();
        b.offer(
            BatchItem {
                payload: 1u64,
                len: 100,
                mode: Mode::Short,
                admitted_at: t0,
                deadline: Some(t0 + Duration::from_millis(2)),
            },
            t0,
        );
        b.offer(item(100, t0), t0);
        let batch = b.take_bin(0, t0 + Duration::from_millis(6));
        assert_eq!(batch.items.len(), 1);
        assert_eq!(batch.expired.len(), 1);
        assert_eq!(batch.expired[0].payload, 1);
    }

    #[test]
    fn the_layout_is_short_then_long_then_classify() {
        // Long reads bin by length within the long group.
        assert_eq!(bin_for(Mode::Long, 5_000), 4);
        assert_eq!(bin_for(Mode::Long, 16_383), 4);
        assert_eq!(bin_for(Mode::Long, 30_000), 5);
        // Mode beats length: a 100 bp read sent as long stays long.
        assert_eq!(bin_for(Mode::Long, 100), 4);
        assert_eq!(bin_for(Mode::Classify, 5_000), 6);
        // class_of_bin inverts the layout.
        for bin in 0..BINS {
            let class = class_of_bin(bin);
            match bin {
                0..=3 => assert_eq!(class, Mode::Short),
                4 | 5 => assert_eq!(class, Mode::Long),
                6 => assert_eq!(class, Mode::Classify),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn modes_never_share_a_batch() {
        let mut c = config(2);
        c.long_max_batch = 2;
        let mut b = Batcher::new(c);
        let t0 = Instant::now();
        // Same length, three modes: three distinct bins.
        assert!(b.offer(moded(Mode::Short, 100, t0), t0).is_none());
        assert!(b.offer(moded(Mode::Long, 100, t0), t0).is_none());
        assert!(b.offer(moded(Mode::Classify, 100, t0), t0).is_none());
        assert_eq!(b.pending(), 3);
        let batch = b
            .offer(moded(Mode::Long, 100, t0), t0)
            .expect("long bin fills at long_max_batch");
        assert_eq!(batch.mode, Mode::Long);
        assert!(batch.items.iter().all(|i| i.mode == Mode::Long));
        assert_eq!(b.pending(), 2, "short and classify still buffered");
    }

    #[test]
    fn long_and_classify_bins_use_their_class_knobs() {
        let c = config(64);
        assert_eq!(c.class_max_batch(0), 64);
        assert_eq!(c.class_max_batch(3), 64);
        assert_eq!(c.class_max_batch(4), c.long_max_batch);
        assert_eq!(c.class_max_batch(5), c.long_max_batch);
        assert_eq!(c.class_max_batch(6), CLASSIFY_MAX_BATCH);
    }

    #[test]
    fn drain_empties_every_bin() {
        let mut b = Batcher::new(config(64));
        let t0 = Instant::now();
        b.offer(item(100, t0), t0);
        b.offer(item(500, t0), t0);
        b.offer(item(2000, t0), t0);
        let batches = b.drain(t0);
        assert_eq!(batches.len(), 3);
        assert!(batches.iter().all(|b| b.reason == FlushReason::Drain));
        assert_eq!(b.pending(), 0);
    }
}
