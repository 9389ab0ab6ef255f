//! The simulation engine: a clock plus a pending-event set.
//!
//! [`Engine`] owns the simulated clock and enforces the causality invariant
//! (no event may be scheduled before the current instant). Model crates
//! drive it with a `while let Some((t, ev)) = engine.pop()` loop.
//!
//! ## Reserved sequence numbers
//!
//! Every event is ordered by the key `(time, seq)`, where `seq` comes
//! from one counter the engine owns. [`Engine::schedule`] takes the next
//! number and pushes at once. A model can instead take the number with
//! [`Engine::reserve_seq`] at the moment it would have scheduled, and push
//! the event later with [`Engine::schedule_reserved`], as long as
//! [`Engine::has_passed`] says the key has not yet gone by. The late event
//! pops exactly where the eager one would have, so a model can leave out
//! events that would only have found nothing to do, and push the few that
//! turn out to matter.

use crate::heap::BinaryHeapScheduler;
use crate::scheduler::Scheduler;
use crate::time::SimTime;

/// A discrete-event simulation engine over an arbitrary event payload `E`
/// and scheduler `S`.
pub struct Engine<E, S = BinaryHeapScheduler<E>> {
    queue: S,
    now: SimTime,
    /// Sequence number of the last popped event; with `now` it is the key
    /// every later pop exceeds. Zero before the first pop.
    popped_seq: u64,
    /// The next sequence number to hand out. Starts at 1, so the key
    /// `(SimTime::ZERO, 0)` has always passed.
    next_seq: u64,
    processed: u64,
    /// Events dispatched, for the instrumentation registry (no-op unless a
    /// collector was installed before construction; see `routesync-obs`).
    obs_events: routesync_obs::Counter,
    /// High-water mark of the pending-event set.
    obs_pending_high: routesync_obs::Gauge,
    /// Simulated-time series sampler, ticked as the clock advances so
    /// samples are stamped at deterministic simulated instants (never
    /// wall time). One branch per pop when disabled or unconfigured.
    obs_series: routesync_obs::SeriesTicker,
    _marker: std::marker::PhantomData<E>,
}

impl<E> Engine<E, BinaryHeapScheduler<E>> {
    /// An engine with the default binary-heap scheduler, at time zero.
    pub fn new() -> Self {
        Self::with_scheduler(BinaryHeapScheduler::new())
    }
}

impl<E> Default for Engine<E, BinaryHeapScheduler<E>> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, S: Scheduler<E>> Engine<E, S> {
    /// An engine over a caller-supplied scheduler implementation.
    pub fn with_scheduler(queue: S) -> Self {
        let obs = routesync_obs::global();
        Engine {
            queue,
            now: SimTime::ZERO,
            popped_seq: 0,
            next_seq: 1,
            processed: 0,
            obs_events: obs.counter("desim.engine.events"),
            obs_pending_high: obs.gauge("desim.engine.pending.high_water"),
            obs_series: obs.series_ticker(),
            _marker: std::marker::PhantomData,
        }
    }

    /// The current simulated instant (the timestamp of the last popped
    /// event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `event` at absolute instant `at`.
    ///
    /// Panics if `at` is before the current instant — scheduling into the
    /// past is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, event);
    }

    /// Take the next sequence number without scheduling anything: the
    /// slot an event scheduled now would get. Pass it to
    /// [`Engine::schedule_reserved`] later, at most once, or never.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` with a number from [`Engine::reserve_seq`].
    /// It pops exactly where it would have popped had it been scheduled
    /// when the number was reserved.
    ///
    /// Panics if the key `(at, seq)` has already passed
    /// ([`Engine::has_passed`]): the event would be scheduled into the
    /// past.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        assert!(
            !self.has_passed(at, seq),
            "scheduled into the past: ({}, {}) <= ({}, {})",
            at,
            seq,
            self.now,
            self.popped_seq
        );
        debug_assert!(seq < self.next_seq, "sequence number {seq} not reserved");
        self.queue.push(at, seq, event);
        self.obs_pending_high.record_max(self.queue.len() as u64);
    }

    /// True if an event with key `(at, seq)` would already have popped:
    /// the key is at or before that of the last popped event.
    pub fn has_passed(&self, at: SimTime, seq: u64) -> bool {
        (at, seq) <= (self.now, self.popped_seq)
    }

    /// Pop the earliest pending event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, seq, ev) = self.queue.pop()?;
        debug_assert!(
            (t, seq) > (self.now, self.popped_seq),
            "scheduler yielded an event out of order"
        );
        self.now = t;
        self.popped_seq = seq;
        self.processed += 1;
        self.obs_events.inc();
        self.obs_series.tick(t.as_nanos());
        Some((t, ev))
    }

    /// The timestamp of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::CalendarQueue;

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule(SimTime::from_secs(3), Ev::Tick(3));
        e.schedule(SimTime::from_secs(1), Ev::Tick(1));
        e.schedule(SimTime::from_secs(2), Ev::Tick(2));
        let mut order = Vec::new();
        while let Some((t, Ev::Tick(k))) = e.pop() {
            assert_eq!(t, SimTime::from_secs(k as u64));
            order.push(k);
        }
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.processed(), 3);
        assert_eq!(e.now(), SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<Ev> = Engine::new();
        e.schedule(SimTime::from_secs(5), Ev::Tick(0));
        e.pop();
        e.schedule(SimTime::from_secs(1), Ev::Tick(1));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_a_passed_reservation_panics() {
        let mut e: Engine<Ev> = Engine::new();
        let seq = e.reserve_seq();
        e.schedule(SimTime::from_secs(5), Ev::Tick(0));
        e.pop();
        // Same instant as the popped event, but an earlier number.
        e.schedule_reserved(SimTime::from_secs(5), seq, Ev::Tick(1));
    }

    #[test]
    fn engine_is_scheduler_agnostic() {
        let mut heap: Engine<u32> = Engine::new();
        let mut cal: Engine<u32, CalendarQueue<u32>> = Engine::with_scheduler(CalendarQueue::new());
        for k in 0..100u32 {
            let t = SimTime(((k as u64) * 7919) % 1000);
            heap.schedule(t, k);
            cal.schedule(t, k);
        }
        loop {
            match (heap.pop(), cal.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
