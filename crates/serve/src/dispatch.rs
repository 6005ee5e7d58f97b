//! Work-conserving dispatch: one [`Dispatcher`] per engine, which the
//! reactor thread admits into and the engine's workers pull from.
//!
//! The paper's Coordinator never batches on a clock: its Allocate Trigger
//! (§IV-A) fires when units go idle and the Judger ships whatever the
//! Store buffer holds. The same rule one level up: a request is never
//! held while a worker is idle, and nothing can be dispatched while none
//! is, so there is no wait to bound and no thread to drive a timer. A
//! free worker takes the oldest work there is — a bin that filled while
//! every worker was busy (a `Fill` batch, queued FIFO) or the partially
//! full bin holding the oldest request — so under load batches grow by
//! themselves to whatever arrived during the previous execution.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::batcher::{Batch, BatchItem, Batcher, BatcherConfig};
use crate::{lock, recover};

/// Why [`Dispatcher::admit`] refused a request.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Refused {
    /// `capacity` requests are already waiting — the backpressure signal.
    Full,
    /// The dispatcher was closed (shard killed or server draining).
    Closed,
}

struct State<T> {
    batcher: Batcher<T>,
    /// Batches formed with no worker free to take them: `Fill` batches
    /// in the order they filled and, after close, the drained bins.
    ready: VecDeque<Batch<T>>,
    /// Requests admitted and not yet taken (bins + `ready`).
    pending: usize,
    /// Workers blocked in [`Dispatcher::take`] that no admission has
    /// signalled yet. A spurious wake-up leaves it one high (a wasted
    /// notify later); never low, which would be a request nobody wakes for.
    parked: usize,
    closed: bool,
}

impl<T> State<T> {
    /// What a free worker gets at `now`: whichever of the first queued
    /// batch and the bins holds the older request.
    fn next(&mut self, now: Instant) -> Option<Batch<T>> {
        let queued = self.ready.front().and_then(Batch::oldest);
        let batch = match self.batcher.oldest_bin() {
            Some((at, bin)) if queued.is_none_or(|q| at < q) => self.batcher.take_bin(bin, now),
            _ => {
                // Formed a while ago: re-stamp, re-check deadlines.
                let mut batch = self.ready.pop_front()?;
                batch.take_at(now);
                batch
            }
        };
        self.pending -= batch.items.len() + batch.expired.len();
        Some(batch)
    }
}

/// An engine's admission buffer, batcher and worker hand-off under one
/// lock. `capacity` bounds the requests no worker has taken (bins and
/// queued batches alike); `workers × max_batch` more may be executing.
pub(crate) struct Dispatcher<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    work: Condvar,
}

impl<T> Dispatcher<T> {
    /// An open, empty dispatcher; panics as [`Batcher::new`] does.
    pub(crate) fn new(config: BatcherConfig, capacity: usize) -> Dispatcher<T> {
        Dispatcher {
            state: Mutex::new(State {
                batcher: Batcher::new(config),
                ready: VecDeque::new(),
                pending: 0,
                parked: 0,
                closed: false,
            }),
            capacity,
            work: Condvar::new(),
        }
    }

    /// Admits one request and returns the occupancy just after.
    pub(crate) fn admit(&self, item: BatchItem<T>, now: Instant) -> Result<usize, Refused> {
        let mut state = lock(&self.state);
        if state.closed {
            return Err(Refused::Closed);
        }
        if state.pending >= self.capacity {
            return Err(Refused::Full);
        }
        if let Some(batch) = state.batcher.offer(item, now) {
            state.ready.push_back(batch);
        }
        state.pending += 1;
        let depth = state.pending;
        // Decided under the lock the worker parked under, so the wake-up
        // cannot be lost; skipped when nobody waits, because `notify_one`
        // is a futex syscall either way.
        let wake = state.parked > 0;
        if wake {
            state.parked -= 1;
        }
        drop(state);
        if wake {
            self.work.notify_one();
        }
        Ok(depth)
    }

    /// Blocks until there is work and takes it (with the occupancy left
    /// behind); `None` once closed *and* empty, so a worker loop drains
    /// naturally.
    pub(crate) fn take(&self) -> Option<(Batch<T>, usize)> {
        let mut state = lock(&self.state);
        loop {
            if let Some(batch) = state.next(Instant::now()) {
                return Some((batch, state.pending));
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            state = recover(self.work.wait(state));
        }
    }

    /// Stops admission. Everything waiting is still handed out: queued
    /// `Fill` batches, then each non-empty bin as a `Drain` batch.
    /// Idempotent.
    pub(crate) fn close(&self, now: Instant) {
        let mut state = lock(&self.state);
        state.closed = true;
        let drained = state.batcher.drain(now);
        state.ready.extend(drained);
        state.parked = 0;
        drop(state);
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::FlushReason;
    use crate::protocol::Mode;
    use std::time::Duration;

    /// Short bin fills at 3, long bins at 2; all three modes binned.
    fn dispatcher(capacity: usize) -> Dispatcher<u64> {
        let mut config = BatcherConfig {
            max_batch: 3,
            long_max_batch: 2,
            ..BatcherConfig::default()
        };
        config.ensure_mode_bins();
        Dispatcher::new(config, capacity)
    }

    impl<T> Dispatcher<T> {
        /// What a free worker would get at `now`, without waiting, and
        /// the occupancy left behind.
        fn try_take(&self, now: Instant) -> Option<(Batch<T>, usize)> {
            let mut state = lock(&self.state);
            let batch = state.next(now)?;
            Some((batch, state.pending))
        }
    }

    struct Clock(Instant);

    impl Clock {
        fn at(&self, ms: u64) -> Instant {
            self.0 + Duration::from_millis(ms)
        }

        /// A request with payload `id` admitted at `ms`.
        fn item(&self, id: u64, mode: Mode, ms: u64) -> BatchItem<u64> {
            BatchItem {
                payload: id,
                len: if mode == Mode::Long { 5_000 } else { 100 },
                mode,
                admitted_at: self.at(ms),
                deadline: None,
            }
        }
    }

    fn ids(batch: &Batch<u64>) -> Vec<u64> {
        batch.items.iter().map(|i| i.payload).collect()
    }

    #[test]
    fn an_idle_worker_takes_what_is_there_and_the_oldest_request_first() {
        let (d, t) = (dispatcher(64), Clock(Instant::now()));
        assert!(d.try_take(t.at(0)).is_none(), "nothing admitted");
        // A long read, then a stream of shorts that fills two batches
        // while no worker is free.
        assert_eq!(d.admit(t.item(0, Mode::Long, 1), t.at(1)), Ok(1));
        for id in 1..=7 {
            d.admit(t.item(id, Mode::Short, 1 + id), t.at(1 + id))
                .unwrap();
        }
        // The long read is not starved by the full short batches queued
        // after it arrived.
        let (batch, left) = d.try_take(t.at(10)).unwrap();
        assert_eq!((batch.mode, ids(&batch)), (Mode::Long, vec![0]));
        assert_eq!(
            (batch.reason, batch.taken_at),
            (FlushReason::Idle, t.at(10))
        );
        assert_eq!(left, 7);
        // Then the shorts: capped at the fill threshold, FIFO, the
        // remainder in arrival order behind them.
        let (batch, left) = d.try_take(t.at(11)).unwrap();
        assert_eq!(
            (batch.reason, ids(&batch)),
            (FlushReason::Fill, vec![1, 2, 3])
        );
        assert_eq!((batch.taken_at, left), (t.at(11), 4));
        let (batch, _) = d.try_take(t.at(12)).unwrap();
        assert_eq!(
            (batch.reason, ids(&batch)),
            (FlushReason::Fill, vec![4, 5, 6])
        );
        let (batch, left) = d.try_take(t.at(13)).unwrap();
        assert_eq!((batch.reason, ids(&batch)), (FlushReason::Idle, vec![7]));
        assert_eq!(left, 0);
        assert!(d.try_take(t.at(14)).is_none());
    }

    #[test]
    fn capacity_counts_everything_no_worker_has_taken() {
        let (d, t) = (dispatcher(4), Clock(Instant::now()));
        for id in 0..4 {
            d.admit(t.item(id, Mode::Short, id), t.at(id)).unwrap();
        }
        // Three of the four sit in a queued `Fill` batch, one in its bin.
        assert_eq!(
            d.admit(t.item(4, Mode::Short, 4), t.at(4)),
            Err(Refused::Full)
        );
        let (batch, left) = d.try_take(t.at(5)).unwrap();
        assert_eq!((batch.items.len(), left), (3, 1));
        assert_eq!(d.admit(t.item(5, Mode::Short, 6), t.at(6)), Ok(2));
    }

    #[test]
    fn deadlines_are_checked_when_a_worker_takes_the_batch() {
        let (d, t) = (dispatcher(64), Clock(Instant::now()));
        for id in 0..3 {
            let deadline = (id == 1).then(|| t.at(5));
            let item = BatchItem {
                deadline,
                ..t.item(id, Mode::Short, 0)
            };
            d.admit(item, t.at(0)).unwrap();
        }
        // The bin filled at 0 with nothing expired; the worker came at 9.
        let (batch, _) = d.try_take(t.at(9)).unwrap();
        assert_eq!(batch.reason, FlushReason::Fill);
        assert_eq!(ids(&batch), [0, 2]);
        assert_eq!(batch.expired.len(), 1);
        assert_eq!(batch.expired[0].payload, 1);
    }

    #[test]
    fn close_refuses_admission_and_drains_before_reporting_closed() {
        let (d, t) = (dispatcher(64), Clock(Instant::now()));
        for id in 0..4 {
            d.admit(t.item(id, Mode::Short, id), t.at(id)).unwrap();
        }
        d.admit(t.item(4, Mode::Classify, 4), t.at(4)).unwrap();
        d.close(t.at(5));
        d.close(t.at(5));
        assert_eq!(
            d.admit(t.item(5, Mode::Short, 6), t.at(6)),
            Err(Refused::Closed)
        );
        // The blocking take hands out everything that was waiting, then
        // reports closed — it never parks on a closed dispatcher.
        let reasons: Vec<(FlushReason, Vec<u64>)> = std::iter::from_fn(|| d.take())
            .map(|(batch, _)| (batch.reason, ids(&batch)))
            .collect();
        assert_eq!(
            reasons,
            [
                (FlushReason::Fill, vec![0, 1, 2]),
                (FlushReason::Drain, vec![3]),
                (FlushReason::Drain, vec![4]),
            ]
        );
        assert!(d.take().is_none());
    }

    #[test]
    fn a_parked_worker_is_woken_by_admission_and_by_close() {
        let d = std::sync::Arc::new(dispatcher(64));
        let t = Clock(Instant::now());
        let worker = {
            let d = std::sync::Arc::clone(&d);
            std::thread::spawn(move || {
                let first = d.take().map(|(batch, _)| ids(&batch));
                (first, d.take().is_none())
            })
        };
        // Admit only once the worker is parked: the wake-up, not a poll,
        // must deliver the request.
        while lock(&d.state).parked == 0 {
            std::thread::yield_now();
        }
        d.admit(t.item(9, Mode::Short, 0), t.at(0)).unwrap();
        while lock(&d.state).parked == 0 {
            std::thread::yield_now();
        }
        d.close(t.at(1));
        assert_eq!(worker.join().unwrap(), (Some(vec![9]), true));
    }
}
