//! A bounded MPMC queue with explicit backpressure and close semantics.
//!
//! `std::sync::mpsc` channels are unbounded (or rendezvous) and
//! single-consumer; the serving path needs the opposite: a hard capacity
//! so admission *sheds* instead of growing without bound, multiple
//! consumers (the worker pool), and a `close()` that lets producers stop
//! and consumers drain what remains. Mutex + two condvars, std only.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::{lock, recover};

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

/// Outcome of a blocking pop.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// An item.
    Item(T),
    /// The timeout elapsed with the queue still empty (and open).
    TimedOut,
    /// The queue is closed *and* fully drained — no item will ever come.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn depth(&self) -> usize {
        lock(&self.inner).items.len()
    }

    /// Pushes without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity (the backpressure signal) and
    /// [`PushError::Closed`] after close; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pushes, waiting while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item if the queue is (or becomes) closed.
    pub fn push_wait(&self, item: T) -> Result<(), T> {
        let mut inner = lock(&self.inner);
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                drop(inner);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = recover(self.not_full.wait(inner));
        }
    }

    /// Pops, waiting up to `timeout` (or indefinitely when `None`).
    ///
    /// Items remaining after a close are still delivered; [`Popped::Closed`]
    /// means closed **and** empty, so a consumer loop drains naturally.
    pub fn pop_wait(&self, timeout: Option<Duration>) -> Popped<T> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Popped::Item(item);
            }
            if inner.closed {
                return Popped::Closed;
            }
            match timeout {
                Some(t) => {
                    let (guard, result) = recover(self.not_empty.wait_timeout(inner, t));
                    inner = guard;
                    if result.timed_out() && inner.items.is_empty() && !inner.closed {
                        return Popped::TimedOut;
                    }
                }
                None => inner = recover(self.not_empty.wait(inner)),
            }
        }
    }

    /// Closes the queue: future pushes fail, consumers drain the remainder
    /// and then observe [`Popped::Closed`]. Idempotent.
    pub fn close(&self) {
        let mut inner = lock(&self.inner);
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_instead_of_growing() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_wait(None), Popped::Item(1));
        q.try_push(3).unwrap();
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_rejects_pushes_but_drains_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert!(matches!(q.try_push("b"), Err(PushError::Closed("b"))));
        assert_eq!(q.pop_wait(None), Popped::Item("a"));
        assert_eq!(q.pop_wait(None), Popped::Closed);
        assert_eq!(q.pop_wait(Some(Duration::from_millis(1))), Popped::Closed);
    }

    #[test]
    fn pop_times_out_on_empty_open_queue() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        assert_eq!(q.pop_wait(Some(Duration::from_millis(5))), Popped::TimedOut);
    }

    #[test]
    fn push_wait_unblocks_on_pop_and_fails_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push_wait(1));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.pop_wait(None), Popped::Item(0));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop_wait(None), Popped::Item(1));

        let q2 = Arc::clone(&q);
        q.try_push(2).unwrap();
        let blocked = std::thread::spawn(move || q2.push_wait(3));
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(blocked.join().unwrap(), Err(3));
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(8));
        let total = 4 * 250;
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    q.push_wait(p * 1000 + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    match q.pop_wait(None) {
                        Popped::Item(v) => seen.push(v),
                        Popped::Closed => return seen,
                        Popped::TimedOut => unreachable!(),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), total);
        all.dedup();
        assert_eq!(all.len(), total, "duplicated items");
    }
}
