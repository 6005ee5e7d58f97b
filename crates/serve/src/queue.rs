//! A bounded MPMC queue with explicit backpressure: a hard capacity, so
//! a producer is *refused* instead of growing the queue, and consumers
//! that block until an item or a timeout.
//!
//! The server does not run on it — admission, batching and the worker
//! hand-off are one dispatcher lock ([`crate::server`]); it stays `pub`,
//! cut to what that replay calls, for the repository benchmark's staged
//! replay (ROADMAP item 6).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::{lock, recover};

/// Outcome of a blocking pop.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// An item.
    Item(T),
    /// The timeout elapsed with the queue still empty.
    TimedOut,
}

/// The bounded queue.
pub struct BoundedQueue<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
    not_empty: Condvar,
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
            items: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            not_empty: Condvar::new(),
        }
    }

    /// Pushes without blocking.
    ///
    /// # Errors
    ///
    /// Hands the item back at capacity (the backpressure signal).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut items = lock(&self.items);
        if items.len() >= self.capacity {
            return Err(item);
        }
        items.push_back(item);
        drop(items);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops, waiting up to `timeout` (or indefinitely when `None`).
    pub fn pop_wait(&self, timeout: Option<Duration>) -> Popped<T> {
        let mut items = lock(&self.items);
        loop {
            if let Some(item) = items.pop_front() {
                return Popped::Item(item);
            }
            match timeout {
                Some(t) => {
                    let (guard, result) = recover(self.not_empty.wait_timeout(items, t));
                    items = guard;
                    if result.timed_out() && items.is_empty() {
                        return Popped::TimedOut;
                    }
                }
                None => items = recover(self.not_empty.wait(items)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_refuses_instead_of_growing() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop_wait(None), Popped::Item(1));
        q.try_push(3).unwrap();
        assert_eq!(q.try_push(4), Err(4));
    }

    #[test]
    fn pop_times_out_on_an_empty_queue() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        assert_eq!(q.pop_wait(Some(Duration::from_millis(5))), Popped::TimedOut);
    }

    #[test]
    fn a_blocked_consumer_is_woken_by_a_push() {
        let q = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait(None))
        };
        q.try_push(7u32).unwrap();
        assert_eq!(consumer.join().unwrap(), Popped::Item(7));
    }
}
