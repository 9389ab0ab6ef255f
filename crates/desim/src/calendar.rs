//! A calendar queue (R. Brown, CACM 1988) pending-event set.
//!
//! Routing-timer workloads are heavily periodic: nearly every event is
//! scheduled roughly one period ahead of the current time. A calendar queue
//! exploits that by hashing events into time buckets ("days") of a "year"
//! sized to the event population, giving amortized `O(1)` push/pop. It is
//! provided as an alternative to [`crate::BinaryHeapScheduler`] and compared
//! against it in the scheduler ablation bench; results must be identical,
//! only speed may differ.

use crate::scheduler::Scheduler;
use crate::time::SimTime;

/// One pending event. Buckets are kept sorted *descending* by `(time, seq)`
/// so the earliest entry is at the end and pops in `O(1)`.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u64) {
        (self.time.0, self.seq)
    }
}

/// Calendar-queue [`Scheduler`].
///
/// The implementation favours clarity over micro-optimization: buckets are
/// sorted `Vec`s, and the bucket width is re-estimated from a sample of
/// pending events whenever the queue is resized.
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket allocations recycled from the previous resize. Each resize
    /// swaps `buckets` and `spare` instead of reallocating, so a queue
    /// that has reached its steady-state geometry stops allocating.
    spare: Vec<Vec<Entry<E>>>,
    /// Bucket width in nanoseconds (the "day" length). Always ≥ 1.
    width: u64,
    /// Index of the bucket currently being drained.
    cursor: usize,
    /// Upper edge (exclusive) of the cursor bucket's current year-day.
    bucket_top: u64,
    /// Total pending events.
    len: usize,
    /// Lower bound on the next pop time (last popped time).
    last_time: u64,
    /// Resize count, for the instrumentation registry (no-op unless a
    /// collector was installed before construction).
    obs_resizes: routesync_obs::Counter,
    /// Per-bucket occupancy sampled at each resize.
    obs_occupancy: routesync_obs::Histogram,
}

impl<E> CalendarQueue<E> {
    /// A queue with a default initial geometry (2 buckets of 1 ms).
    pub fn new() -> Self {
        Self::with_geometry(2, 1_000_000)
    }

    /// A queue with `nbuckets` buckets of `width_nanos` each.
    ///
    /// Panics if `nbuckets == 0` or `width_nanos == 0`.
    pub fn with_geometry(nbuckets: usize, width_nanos: u64) -> Self {
        assert!(nbuckets > 0, "calendar queue needs at least one bucket");
        assert!(width_nanos > 0, "bucket width must be positive");
        let mut buckets = Vec::with_capacity(nbuckets);
        buckets.resize_with(nbuckets, Vec::new);
        let obs = routesync_obs::global();
        CalendarQueue {
            buckets,
            spare: Vec::new(),
            width: width_nanos,
            cursor: 0,
            bucket_top: width_nanos,
            len: 0,
            last_time: 0,
            obs_resizes: obs.counter("desim.calendar.resizes"),
            obs_occupancy: obs.histogram(
                "desim.calendar.bucket_occupancy",
                &[1, 2, 4, 8, 16, 32, 64, 128],
            ),
        }
    }

    fn bucket_index(&self, t: u64) -> usize {
        ((t / self.width) % self.buckets.len() as u64) as usize
    }

    /// Insert into a bucket keeping it sorted descending by `(time, seq)`.
    fn insert_sorted(bucket: &mut Vec<Entry<E>>, entry: Entry<E>) {
        // Find the first element whose key is smaller (strictly) than the
        // new entry's key, scanning keys in descending order.
        let key = entry.key();
        let pos = bucket.partition_point(|e| e.key() > key);
        bucket.insert(pos, entry);
    }

    /// Grow/shrink the bucket array and re-estimate the width.
    fn resize(&mut self, nbuckets: usize) {
        let nbuckets = nbuckets.max(1);
        self.obs_resizes.inc();
        if self.obs_resizes.is_live() {
            // Sample the outgoing geometry's occupancy distribution — the
            // signal for whether the width heuristic keeps days at a few
            // events each.
            for bucket in &self.buckets {
                self.obs_occupancy.record(bucket.len() as u64);
            }
        }
        let width = self.estimate_width();
        // Swap in the pooled bucket array from the previous resize and
        // shape it to the new geometry; its inner Vecs keep their
        // capacity, so redistribution below rarely allocates.
        let mut old = std::mem::take(&mut self.buckets);
        self.buckets = std::mem::take(&mut self.spare);
        self.buckets.truncate(nbuckets);
        self.buckets.resize_with(nbuckets, Vec::new);
        self.width = width;
        for bucket in old.iter_mut() {
            for entry in bucket.drain(..) {
                let idx = self.bucket_index(entry.time.0);
                Self::insert_sorted(&mut self.buckets[idx], entry);
            }
        }
        // The drained old array becomes the pool for the next resize.
        self.spare = old;
        // Re-aim the cursor at the bucket containing the next event.
        self.aim_cursor_at(self.last_time);
    }

    /// Point the cursor at the bucket/day that contains instant `t`.
    fn aim_cursor_at(&mut self, t: u64) {
        self.cursor = self.bucket_index(t);
        self.bucket_top = (t / self.width + 1) * self.width;
    }

    /// Estimate a bucket width as ~the average separation of the earliest
    /// pending events (Brown's heuristic, simplified).
    fn estimate_width(&self) -> u64 {
        let mut sample: Vec<u64> = self.buckets.iter().flatten().map(|e| e.time.0).collect();
        if sample.len() < 2 {
            return self.width.max(1);
        }
        sample.sort_unstable();
        sample.truncate(32.max(sample.len() / 16));
        let span = sample[sample.len() - 1].saturating_sub(sample[0]);
        let avg_gap = span / (sample.len() as u64 - 1).max(1);
        // Brown recommends ~3x the average gap so a day holds a few events.
        (avg_gap.saturating_mul(3)).max(1)
    }

    /// Scan every bucket for the globally earliest entry (used when the
    /// current year is empty — the "direct search" fallback).
    fn global_min_time(&self) -> Option<u64> {
        self.buckets
            .iter()
            .filter_map(|b| b.last().map(|e| e.time.0))
            .min()
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> for CalendarQueue<E> {
    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        if time.0 < self.last_time {
            // A push earlier than the last pop (legal at the queue layer;
            // the engine rejects it for simulations). Rewind the cursor so
            // the year scan cannot skip past the new event.
            self.last_time = time.0;
            self.aim_cursor_at(time.0);
        }
        let idx = self.bucket_index(time.0);
        Self::insert_sorted(&mut self.buckets[idx], Entry { time, seq, event });
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            let n = self.buckets.len() * 2;
            self.resize(n);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if self.len == 0 {
            return None;
        }
        // Scan at most one full year of buckets looking for an event that
        // belongs to the current day.
        for _ in 0..self.buckets.len() {
            if let Some(entry) = self.buckets[self.cursor].last() {
                if entry.time.0 < self.bucket_top {
                    let entry = self.buckets[self.cursor].pop().expect("non-empty");
                    self.len -= 1;
                    self.last_time = entry.time.0;
                    if self.len * 4 < self.buckets.len() && self.buckets.len() > 2 {
                        let n = self.buckets.len() / 2;
                        self.resize(n);
                    }
                    return Some((entry.time, entry.seq, entry.event));
                }
            }
            self.cursor = (self.cursor + 1) % self.buckets.len();
            self.bucket_top += self.width;
        }
        // Nothing in the coming year: jump straight to the earliest event.
        let min = self.global_min_time().expect("len > 0 but no entries");
        self.aim_cursor_at(min);
        let entry = self.buckets[self.cursor].pop().expect("min bucket");
        self.len -= 1;
        self.last_time = entry.time.0;
        Some((entry.time, entry.seq, entry.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.global_min_time().map(SimTime)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::conformance;

    #[test]
    fn ordering() {
        conformance::check_ordering(CalendarQueue::new());
    }

    #[test]
    fn ordering_with_tiny_buckets() {
        conformance::check_ordering(CalendarQueue::with_geometry(1, 1));
    }

    #[test]
    fn interleaved() {
        conformance::check_interleaved(CalendarQueue::new());
    }

    #[test]
    fn peek() {
        conformance::check_peek(CalendarQueue::new());
    }

    #[test]
    fn reserved_seqs_pop_where_eager_ones_would() {
        conformance::check_reserved_seqs(CalendarQueue::new);
        conformance::check_reserved_seqs(|| CalendarQueue::with_geometry(1, 1));
    }

    #[test]
    fn sparse_far_future_events_pop_correctly() {
        // Events a year of buckets apart exercise the direct-search path.
        let mut q = CalendarQueue::with_geometry(4, 10);
        q.push(SimTime(1_000_000), 0, 1u32);
        q.push(SimTime(5), 1, 2);
        q.push(SimTime(70_000_000_000), 2, 3);
        assert_eq!(q.pop(), Some((SimTime(5), 1, 2)));
        assert_eq!(q.pop(), Some((SimTime(1_000_000), 0, 1)));
        assert_eq!(q.pop(), Some((SimTime(70_000_000_000), 2, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn matches_heap_on_periodic_workload() {
        // The workload the queue is built for: N timers firing with period
        // ~121 s plus jitter, resets scheduled one period ahead.
        use crate::heap::BinaryHeapScheduler;
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapScheduler::new();
        let mut x = 42u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let period = 121_000_000_000u64;
        let mut seq = 0u64;
        for node in 0..20u64 {
            let t = SimTime(rng() % period);
            seq += 1;
            cal.push(t, seq, node);
            heap.push(t, seq, node);
        }
        for _ in 0..5_000 {
            let (tc, _, ec) = cal.pop().expect("calendar non-empty");
            let (th, _, eh) = heap.pop().expect("heap non-empty");
            assert_eq!((tc, ec), (th, eh));
            let next = SimTime(tc.0 + period - 100_000_000 + rng() % 200_000_000);
            seq += 1;
            cal.push(next, seq, ec);
            heap.push(next, seq, eh);
        }
    }

    #[test]
    fn resize_preserves_order() {
        let mut q = CalendarQueue::with_geometry(2, 1);
        // Force several grow cycles.
        let mut times: Vec<u64> = (0..500).map(|i| (i * 7919) % 10_000).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i as u64, i as u32);
        }
        times.sort_unstable();
        let mut popped = Vec::new();
        while let Some((t, _, _)) = q.pop() {
            popped.push(t.0);
        }
        assert_eq!(popped, times);
    }
}
