//! The pending-event-set abstraction.
//!
//! A [`Scheduler`] stores `(SimTime, seq, E)` triples and yields them in
//! `(time, seq)` order. The sequence numbers come from the
//! [`crate::Engine`], which hands out one monotone counter for every
//! event; with it, events scheduled for the same instant pop in the order
//! they were scheduled (FIFO), whichever implementation holds them —
//! simulation results must not depend on the scheduler chosen.

use crate::time::SimTime;

/// A priority queue of timestamped events.
///
/// Events pop in ascending `(time, seq)` order. The caller (the engine)
/// guarantees every `seq` is unique, so the order is total and every
/// implementation pops the same sequence (see
/// `routesync-bench/benches/scheduler.rs` for the ablation comparing
/// them).
pub trait Scheduler<E> {
    /// Insert an event at `time` with tie-break `seq`.
    ///
    /// `time` may be in the past relative to previously popped events; the
    /// engine layer is responsible for rejecting that (it is a logic error in
    /// the model, not in the queue).
    fn push(&mut self, time: SimTime, seq: u64, event: E);

    /// Remove and return the earliest event with its sequence number, or
    /// `None` if empty.
    fn pop(&mut self) -> Option<(SimTime, u64, E)>;

    /// The timestamp of the earliest event without removing it.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! A conformance suite run against every `Scheduler` implementation.
    use super::*;
    use crate::engine::Engine;

    /// Push events in a scrambled order and check they pop sorted by time,
    /// then by sequence number within equal timestamps.
    pub fn check_ordering<S: Scheduler<u32>>(mut s: S) {
        let times = [5u64, 3, 9, 3, 5, 1, 9, 9, 0, 3];
        // Sequence numbers are not pushed in ascending order: a reserved
        // number can reach the queue after larger ones.
        let seqs = [10u64, 4, 7, 2, 0, 5, 9, 8, 1, 6];
        for (i, (&t, &seq)) in times.iter().zip(&seqs).enumerate() {
            s.push(SimTime(t), seq, i as u32);
        }
        assert_eq!(s.len(), times.len());
        let mut popped = Vec::new();
        while let Some((t, _, id)) = s.pop() {
            popped.push((t.0, id));
        }
        assert_eq!(
            popped,
            vec![
                (0, 8),
                (1, 5),
                (3, 3),
                (3, 1),
                (3, 9),
                (5, 4),
                (5, 0),
                (9, 2),
                (9, 7),
                (9, 6)
            ]
        );
        assert!(s.is_empty());
    }

    /// Interleave pushes and pops the way a simulation does.
    pub fn check_interleaved<S: Scheduler<u64>>(mut s: S) {
        // A deterministic pseudo-random walk (no external RNG dependency in
        // this crate's tests).
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0u64;
        let mut popped = 0usize;
        let mut seq = 0u64;
        s.push(SimTime(0), seq, 0);
        while let Some((t, _, _)) = s.pop() {
            assert!(t.0 >= now, "time went backwards");
            now = t.0;
            popped += 1;
            if popped >= 10_000 {
                break;
            }
            // Schedule 0..=2 future events.
            for _ in 0..(step() % 3) {
                seq += 1;
                s.push(SimTime(now + step() % 1_000), seq, popped as u64);
            }
        }
        // Either we hit the cap or drained the queue; both are fine — the
        // assertion is the monotone `now` above.
    }

    /// `peek_time` must match the next pop.
    pub fn check_peek<S: Scheduler<u8>>(mut s: S) {
        assert_eq!(s.peek_time(), None);
        s.push(SimTime(7), 0, 1);
        s.push(SimTime(2), 1, 2);
        assert_eq!(s.peek_time(), Some(SimTime(2)));
        assert_eq!(s.pop(), Some((SimTime(2), 1, 2)));
        assert_eq!(s.peek_time(), Some(SimTime(7)));
        assert_eq!(s.pop(), Some((SimTime(7), 0, 1)));
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }

    /// Scheduling at a reserved sequence number pops exactly where
    /// scheduling eagerly at the reservation would have, on an engine
    /// over the scheduler `make` builds. The script covers a number
    /// scheduled at the current instant, one scheduled behind events
    /// pushed for the same instant after the reservation, and one that is
    /// reserved but never scheduled.
    pub fn check_reserved_seqs<S: Scheduler<u32>>(make: impl Fn() -> S) {
        let t = SimTime;
        let drain = |e: &mut Engine<u32, S>, n: usize| -> Vec<(u64, u32)> {
            (0..n)
                .map(|_| e.pop().map(|(t, id)| (t.0, id)).expect("event"))
                .collect()
        };

        let mut eager = Engine::with_scheduler(make());
        eager.schedule(t(1), 10);
        eager.pop();
        eager.schedule(t(1), 11);
        eager.schedule(t(3), 12);
        eager.schedule(t(5), 13);
        eager.schedule(t(1), 14);
        eager.schedule(t(5), 15);
        eager.schedule(t(3), 16);
        let all = drain(&mut eager, 6);
        assert_eq!(
            all,
            vec![(1, 11), (1, 14), (3, 12), (3, 16), (5, 13), (5, 15)]
        );
        assert_eq!(eager.pop(), None);

        let mut lazy = Engine::with_scheduler(make());
        assert!(
            lazy.has_passed(SimTime::ZERO, 0),
            "seq 0 is never handed out"
        );
        lazy.schedule(t(1), 10);
        lazy.pop();
        let at_now = lazy.reserve_seq();
        let never = lazy.reserve_seq();
        let behind = lazy.reserve_seq();
        lazy.schedule(t(1), 14);
        lazy.schedule(t(5), 15);
        lazy.schedule(t(3), 16);
        // At the current instant, after 14 was pushed for it.
        assert!(!lazy.has_passed(t(1), at_now));
        lazy.schedule_reserved(t(1), at_now, 11);
        assert_eq!(drain(&mut lazy, 2), all[..2]);
        assert!(!lazy.has_passed(t(3), never));
        assert_eq!(drain(&mut lazy, 1), [(3, 16)]);
        // The eager run popped 12 before 16: the virtual event is gone.
        assert!(lazy.has_passed(t(3), never));
        // Behind 15, which was pushed for the same instant first.
        assert!(!lazy.has_passed(t(5), behind));
        lazy.schedule_reserved(t(5), behind, 13);
        assert_eq!(drain(&mut lazy, 2), all[4..]);
        assert_eq!(lazy.pop(), None);
        assert!(lazy.has_passed(t(5), behind));
    }
}
