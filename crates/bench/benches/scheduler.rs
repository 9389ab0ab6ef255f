//! Ablation: binary heap vs calendar queue on the routing-timer workload.
//!
//! The workload is the one every simulation in this repo generates: `N`
//! periodic timers, each re-armed ~one period ahead with small jitter.
//! Brown's calendar queue is designed for exactly this distribution; the
//! bench quantifies what it buys (and costs) relative to the default heap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use routesync_desim::{CalendarQueue, Engine, Scheduler, SimTime};

fn drive<S: Scheduler<u64>>(mut s: Engine<u64, S>, nodes: u64, events: u64) -> u64 {
    let mut x = 0xDEADBEEFu64;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let period = 121_000_000_000u64;
    for node in 0..nodes {
        s.schedule(SimTime(rng() % period), node);
    }
    let mut acc = 0u64;
    for _ in 0..events {
        let (t, node) = s.pop().expect("never drains");
        acc = acc.wrapping_add(t.0 ^ node);
        s.schedule(
            SimTime(t.0 + period - 100_000_000 + rng() % 200_000_000),
            node,
        );
    }
    acc
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    for &nodes in &[20u64, 200, 2000] {
        group.bench_with_input(BenchmarkId::new("binary_heap", nodes), &nodes, |b, &n| {
            b.iter(|| drive(Engine::new(), n, 50_000));
        });
        group.bench_with_input(
            BenchmarkId::new("calendar_queue", nodes),
            &nodes,
            |b, &n| {
                b.iter(|| drive(Engine::with_scheduler(CalendarQueue::new()), n, 50_000));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
