//! The engine's future-event set.
//!
//! The engine needs one operation pair — `push(time, seq, event)` /
//! `pop() -> earliest (time, seq)` — with a **total** order: earliest
//! `time_ns` first, ties broken by insertion `seq`. That tie-break is the
//! determinism contract of the whole simulator. A binary min-heap gives
//! it in O(log n) per operation with nothing to tune; payloads move in
//! and out and are never cloned.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One queued event: ordered by `(time_ns, seq)` only, the payload is
/// carried along.
#[derive(Debug)]
struct Entry<T> {
    time_ns: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time_ns, self.seq) == (other.time_ns, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time_ns, self.seq).cmp(&(other.time_ns, other.seq))
    }
}

/// A `(time_ns, seq)`-ordered min-queue of events.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Inserts an event under its `(time_ns, seq)` key.
    pub(crate) fn push(&mut self, time_ns: u64, seq: u64, item: T) {
        self.heap.push(Reverse(Entry { time_ns, seq, item }));
    }

    /// Removes and returns the earliest event by `(time_ns, seq)`.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time_ns, e.seq, e.item))
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        // Three simultaneous events pushed out of seq order, plus
        // earlier and later neighbours.
        q.push(5, 2, "pe_free");
        q.push(5, 0, "deliver");
        q.push(7, 3, "late");
        q.push(5, 1, "timer");
        q.push(2, 4, "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (2, 4, "early"),
                (5, 0, "deliver"),
                (5, 1, "timer"),
                (5, 2, "pe_free"),
                (7, 3, "late"),
            ]
        );
    }
}
