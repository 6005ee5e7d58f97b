//! Deterministic event queue with cycle resolution.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// A min-queue of timestamped events.
///
/// Events at the same cycle pop in push order, which makes simulations
/// deterministic regardless of payload contents: the queue is one binary
/// heap keyed by `(cycle, push sequence)`. Its vector is reused as the queue
/// drains and refills, so a simulation allocates only while the queue
/// outgrows its largest size so far, never per cycle.
///
/// # Examples
///
/// ```
/// use nvwa_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    pushed: u64,
}

/// A heap entry `(cycle, seq, payload)`, ordered by `(cycle, seq)` reversed
/// so that the max-heap yields the earliest; the payload takes no part.
struct Entry<E>(Cycle, u64, E);

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            pushed: 0,
        }
    }

    /// Schedules `payload` at `cycle`.
    pub fn push(&mut self, cycle: Cycle, payload: E) {
        self.heap.push(Entry(cycle, self.pushed, payload));
        self.pushed += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap
            .pop()
            .map(|Entry(cycle, _, payload)| (cycle, payload))
    }

    /// The cycle of the earliest event, if any.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, next) = (self.len(), self.peek_cycle());
        write!(f, "EventQueue(len={len}, next={next:?})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order() {
        let mut q = EventQueue::new();
        for (c, v) in [(30u64, 3), (10, 1), (20, 2)] {
            q.push(c, v);
        }
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
    }

    #[test]
    fn ties_break_in_push_order() {
        let mut q = EventQueue::new();
        for v in 0..100 {
            q.push(7, v);
        }
        for v in 0..100 {
            assert_eq!(q.pop(), Some((7, v)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(5, ());
        assert_eq!(q.peek_cycle(), Some(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        let _ = q.pop();
        assert_eq!(q.peek_cycle(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn payload_needs_no_ordering() {
        // A payload type with no Ord impl compiles and works.
        #[derive(Debug, PartialEq)]
        struct NoOrd(f64);
        let mut q = EventQueue::new();
        q.push(2, NoOrd(2.0));
        q.push(1, NoOrd(1.0));
        assert_eq!(q.pop().unwrap().1, NoOrd(1.0));
    }
}
