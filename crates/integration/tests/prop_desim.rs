//! Property tests for the discrete-event engine.

use proptest::prelude::*;
use routesync_desim::{BinaryHeapScheduler, CalendarQueue, Duration, Engine, Scheduler, SimTime};

/// How the lazy run treats a spawned event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Scheduled at once, as in the eager run.
    Now,
    /// Its number is reserved at once and the event is scheduled a few
    /// pops later, before its key could pass.
    Later(u32),
    /// Reserved and never scheduled; it spawns nothing in either run.
    Never,
}

/// The children event `id` spawns when it pops: `(offset, kind)` pairs
/// drawn from `words`. Offsets are small so many events share an instant.
fn children(id: u32, words: &[u64]) -> Vec<(u64, Kind)> {
    let w = words[id as usize % words.len()] ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..1 + w % 3)
        .map(|c| {
            let b = w >> (8 + 12 * c);
            let kind = match b % 3 {
                0 => Kind::Now,
                1 => Kind::Later(((b >> 2) % 4) as u32),
                _ => Kind::Never,
            };
            ((b >> 4) % 4, kind)
        })
        .collect()
}

const CAP: u32 = 300;

/// Pop order of the script with every event scheduled when spawned.
/// Returns `(time, id, never)` per pop.
fn eager_run<S: Scheduler<u32>>(mut e: Engine<u32, S>, words: &[u64]) -> Vec<(u64, u32, bool)> {
    let mut kinds = vec![Kind::Now];
    let mut out = Vec::new();
    e.schedule(SimTime::ZERO, 0);
    while let Some((t, id)) = e.pop() {
        let never = kinds[id as usize] == Kind::Never;
        out.push((t.0, id, never));
        if never {
            continue;
        }
        for (dt, kind) in children(id, words) {
            if kinds.len() as u32 >= CAP {
                break;
            }
            e.schedule(t + Duration(dt), kinds.len() as u32);
            kinds.push(kind);
        }
    }
    out
}

/// The same script with `Later` events scheduled late at a reserved
/// number and `Never` events only reserved. Returns the pop order and,
/// after each pop, the `Never` ids whose key `has_passed`.
fn lazy_run<S: Scheduler<u32>>(
    mut e: Engine<u32, S>,
    words: &[u64],
) -> (Vec<(u64, u32)>, Vec<Vec<u32>>) {
    let mut spawned = 1u32;
    let mut deferred: Vec<(SimTime, u64, u32, u32)> = Vec::new();
    let mut never: Vec<(SimTime, u64, u32)> = Vec::new();
    let (mut out, mut passed) = (Vec::new(), Vec::new());
    e.schedule(SimTime::ZERO, 0);
    loop {
        // Schedule what is due, and anything the next pop could overtake.
        let next = e.peek_time();
        deferred.retain_mut(|(at, seq, id, wait)| {
            if *wait == 0 || next.is_none_or(|n| *at <= n) {
                e.schedule_reserved(*at, *seq, *id);
                false
            } else {
                *wait -= 1;
                true
            }
        });
        let Some((t, id)) = e.pop() else { break };
        out.push((t.0, id));
        passed.push(
            never
                .iter()
                .filter(|&&(at, seq, _)| e.has_passed(at, seq))
                .map(|&(_, _, id)| id)
                .collect(),
        );
        for (dt, kind) in children(id, words) {
            if spawned >= CAP {
                break;
            }
            let at = t + Duration(dt);
            match kind {
                Kind::Now => e.schedule(at, spawned),
                Kind::Later(wait) => deferred.push((at, e.reserve_seq(), spawned, wait)),
                Kind::Never => never.push((at, e.reserve_seq(), spawned)),
            }
            spawned += 1;
        }
    }
    (out, passed)
}

/// Lazy scheduling pops the eager order minus the never-scheduled
/// events, and after each pop exactly the never-scheduled events the
/// eager run popped earlier have passed.
fn check_reserved<S: Scheduler<u32>>(make: impl Fn() -> S, words: &[u64]) -> Result<(), String> {
    let eager = eager_run(Engine::with_scheduler(make()), words);
    let (lazy, passed) = lazy_run(Engine::with_scheduler(make()), words);
    let real: Vec<(u64, u32)> = eager
        .iter()
        .filter(|e| !e.2)
        .map(|&(t, id, _)| (t, id))
        .collect();
    if lazy != real {
        return Err(format!("lazy pops {lazy:?}, eager {real:?}"));
    }
    let mut before = Vec::new();
    let mut i = 0;
    for &(_, id, never) in &eager {
        if never {
            before.push(id);
        } else {
            let mut got = passed[i].clone();
            got.sort_unstable();
            let mut want = before.clone();
            want.sort_unstable();
            if got != want {
                return Err(format!("after pop {i}: passed {got:?}, want {want:?}"));
            }
            i += 1;
        }
    }
    Ok(())
}

proptest! {
    /// The two scheduler implementations are observationally identical on
    /// arbitrary push sequences (including heavy timestamp ties).
    #[test]
    fn schedulers_agree_on_arbitrary_sequences(
        times in proptest::collection::vec(0u64..1_000, 1..200)
    ) {
        let mut heap = BinaryHeapScheduler::new();
        let mut cal = CalendarQueue::new();
        for (i, &t) in times.iter().enumerate() {
            heap.push(SimTime(t), i as u64, i);
            cal.push(SimTime(t), i as u64, i);
        }
        loop {
            let a = heap.pop();
            let b = cal.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Interleaved scheduling and popping (the simulation access pattern)
    /// also agrees, with future times derived from the current pop.
    #[test]
    fn schedulers_agree_interleaved(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..60)
    ) {
        let mut heap: Engine<usize> = Engine::new();
        let mut cal = Engine::with_scheduler(CalendarQueue::new());
        heap.schedule(SimTime(0), 0usize);
        cal.schedule(SimTime(0), 0usize);
        for (i, &s) in seeds.iter().enumerate() {
            let a = heap.pop();
            let b = cal.pop();
            prop_assert_eq!(a, b);
            let Some((t, _)) = a else { break };
            // Schedule 1-2 future events deterministically from the seed.
            let d1 = s % 10_000;
            heap.schedule(SimTime(t.0 + d1), i + 1);
            cal.schedule(SimTime(t.0 + d1), i + 1);
            if s % 3 == 0 {
                let d2 = (s >> 32) % 10_000;
                heap.schedule(SimTime(t.0 + d2), i + 1000);
                cal.schedule(SimTime(t.0 + d2), i + 1000);
            }
        }
    }

    /// Events scheduled at a reserved sequence number, at the current
    /// instant, behind events pushed for the same instant later, or not
    /// at all, pop exactly where eager scheduling pops them, on both
    /// schedulers.
    #[test]
    fn reserved_seqs_pop_in_eager_order(
        words in proptest::collection::vec(0u64..u64::MAX, 1..40)
    ) {
        let heap = check_reserved(BinaryHeapScheduler::new, &words);
        prop_assert_eq!(heap, Ok(()));
        let cal = check_reserved(CalendarQueue::new, &words);
        prop_assert_eq!(cal, Ok(()));
    }

    /// Pops are globally time-sorted regardless of insertion order.
    #[test]
    fn pops_are_sorted(times in proptest::collection::vec(0u64..10_000, 0..300)) {
        let mut q: Engine<()> = Engine::new();
        for &t in &times {
            q.schedule(SimTime(t), ());
        }
        let mut last = 0u64;
        while let Some((t, ())) = q.pop() {
            prop_assert!(t.0 >= last);
            last = t.0;
        }
    }

    /// Duration arithmetic round-trips (no drift through add/sub chains).
    #[test]
    fn duration_arithmetic_roundtrips(
        a in 0u64..u64::MAX / 4,
        b in 0u64..u64::MAX / 4,
    ) {
        let t = SimTime(a);
        let d = Duration(b);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!(((t + d) - t), d);
    }

    /// Time-offset modular arithmetic stays below the modulus and is
    /// consistent with integer arithmetic.
    #[test]
    fn time_offsets_are_modular(t in 0u64..u64::MAX / 2, m in 1u64..u64::MAX / 2) {
        let offset = SimTime(t) % Duration(m);
        prop_assert!(offset.as_nanos() < m);
        prop_assert_eq!(offset.as_nanos(), t % m);
    }
}
