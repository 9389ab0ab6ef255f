//! The default binary-heap scheduler.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::scheduler::Scheduler;
use crate::time::SimTime;

/// One pending event: ordered by `(time, seq)` so that the heap is a min-heap
/// on time with FIFO tie-breaking.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A `(time, seq)`-ordered binary heap — the default [`Scheduler`].
///
/// `O(log n)` push/pop. The engine's sequence number gives FIFO order
/// among events with equal timestamps, which the Periodic Messages model
/// relies on (all members of a cluster reset at the same instant and
/// their resets must replay deterministically).
pub struct BinaryHeapScheduler<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E> BinaryHeapScheduler<E> {
    /// An empty scheduler.
    pub fn new() -> Self {
        BinaryHeapScheduler {
            heap: BinaryHeap::new(),
        }
    }

    /// An empty scheduler with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapScheduler {
            heap: BinaryHeap::with_capacity(cap),
        }
    }
}

impl<E> Default for BinaryHeapScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> for BinaryHeapScheduler<E> {
    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        self.heap.push(Entry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::conformance;

    #[test]
    fn ordering() {
        conformance::check_ordering(BinaryHeapScheduler::new());
    }

    #[test]
    fn interleaved() {
        conformance::check_interleaved(BinaryHeapScheduler::new());
    }

    #[test]
    fn peek() {
        conformance::check_peek(BinaryHeapScheduler::new());
    }

    #[test]
    fn reserved_seqs_pop_where_eager_ones_would() {
        conformance::check_reserved_seqs(BinaryHeapScheduler::new);
    }

    #[test]
    fn with_capacity_behaves_identically() {
        conformance::check_ordering(BinaryHeapScheduler::with_capacity(64));
    }
}
