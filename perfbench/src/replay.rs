//! Single-layer replays: each calls one layer's public functions in a
//! tight loop at an operating point a workload measured, and returns the
//! median cost per operation over several batches.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use routesync_desim::{CalendarQueue, Duration, Engine, Scheduler, SimTime};
use routesync_netsim::{Advertisement, RouteEntry, RoutingTable};
use routesync_rng::{JitterPolicy, MinStd};

use crate::common::median;

/// Batches per replay; the median batch is reported.
const BATCHES: usize = 5;

/// Median nanoseconds per operation of `batch`, which performs `ops`
/// operations per call.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazily grown buffers
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per jitter draw: `JitterPolicy::sample` on a MinStd
/// stream, the draw every simulated timer re-arm makes.
pub fn rng_ns_per_draw(jitter: JitterPolicy, seed: u64) -> f64 {
    const DRAWS: u64 = 2_000_000;
    let mut rng: MinStd = routesync_rng::stream(seed, 0);
    let jitter = jitter.materialize(&mut rng);
    ns_per_op(DRAWS, || {
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            acc = acc.wrapping_add(jitter.sample(&mut rng).as_nanos());
        }
        black_box(acc);
    })
}

/// Nanoseconds per hold operation (one `pop` of the earliest event plus
/// one `schedule` of a replacement up to `spread_ns` later) on an engine
/// holding `depth` pending events: the steady state of a periodic-timer
/// simulation whose pending set stays near its high-water mark.
pub fn hold_ns_per_op<S: Scheduler<u64>>(
    mut engine: Engine<u64, S>,
    depth: usize,
    spread_ns: u64,
    seed: u64,
) -> f64 {
    const OPS: u64 = 1_000_000;
    const MASK: usize = (1 << 16) - 1;
    let mut rng: MinStd = routesync_rng::stream(seed, 1);
    let spread = spread_ns.max(1);
    let steps: Vec<u64> = (0..=MASK).map(|_| rng.next_below(spread)).collect();
    for i in 0..depth.max(1) {
        engine.schedule(SimTime(steps[i & MASK]), i as u64);
    }
    let mut k = 0usize;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, ev) = engine.pop().expect("the pending set never drains");
            k = (k + 1) & MASK;
            engine.schedule(t + Duration::from_nanos(steps[k]), ev);
        }
    })
}

/// [`hold_ns_per_op`] on the default binary-heap engine.
pub fn heap_ns_per_op(depth: usize, spread_ns: u64, seed: u64) -> f64 {
    hold_ns_per_op(Engine::new(), depth, spread_ns, seed)
}

/// [`hold_ns_per_op`] on the calendar-queue engine.
pub fn calendar_ns_per_op(depth: usize, spread_ns: u64, seed: u64) -> f64 {
    hold_ns_per_op(
        Engine::with_scheduler(CalendarQueue::new()),
        depth,
        spread_ns,
        seed,
    )
}

/// Per-entry costs of the distance-vector table at one table size.
#[derive(Debug, Clone, Copy)]
pub struct DvCost {
    /// `process_update_with` per received entry.
    pub ns_per_entry: f64,
    /// `advertisement_into` / `advertisement_delta_into` per emitted entry.
    pub ns_per_adv_entry: f64,
}

/// Replay the table operations of a periodic refresh on a copy of
/// `table`: a neighbour re-advertising every destination the table
/// holds (the steady state, where almost nothing changes), and building
/// the full and the delta advertisement for one interface.
pub fn dv_costs(table: &RoutingTable, infinity: u32, holddown: Option<Duration>) -> DvCost {
    let me = table.me();
    let (from, _) = table
        .iter()
        .find(|&(dst, r)| dst != me && r.next_hop == dst)
        .expect("a router with at least one direct neighbour");
    let entries: Vec<RouteEntry> = table.advertisement(&[], false, infinity);
    let dsts: Vec<usize> = entries.iter().map(|e| e.dst).collect();
    let mut work = table.clone();
    let mut now = SimTime::from_secs(1);
    const PASSES: u64 = 200;
    let per_batch = PASSES * entries.len() as u64;
    let ns_per_entry = ns_per_op(per_batch, || {
        for _ in 0..PASSES {
            now += Duration::from_millis(1);
            black_box(work.process_update_with(from, &entries, now, infinity, holddown));
        }
    });
    let peers = [from];
    let mut out = Vec::with_capacity(entries.len());
    let ns_per_adv_entry = ns_per_op(2 * per_batch, || {
        for _ in 0..PASSES {
            out.clear();
            work.advertisement_into(&peers, true, infinity, &mut out);
            black_box(&out);
            out.clear();
            work.advertisement_delta_into(&dsts, &peers, true, infinity, &mut out);
            black_box(&out);
        }
    });
    DvCost {
        ns_per_entry,
        ns_per_adv_entry,
    }
}

/// Wire codec cost per datagram carrying `table`'s advertisement.
#[derive(Debug, Clone, Copy)]
pub struct WireCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
}

pub fn wire_costs(table: &RoutingTable, infinity: u32) -> WireCost {
    const FRAMES: u64 = 20_000;
    let adv = Advertisement {
        sender: table.me(),
        seq: 7,
        delta: false,
        entries: table.advertisement(&[], false, infinity),
    };
    let mut buf = Vec::new();
    let encode_ns = ns_per_op(FRAMES, || {
        for _ in 0..FRAMES {
            adv.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    let decode_ns = ns_per_op(FRAMES, || {
        for _ in 0..FRAMES {
            let back = Advertisement::decode(black_box(&buf)).expect("own frame decodes");
            black_box(back);
        }
    });
    assert_eq!(
        Advertisement::decode(&buf).as_ref(),
        Ok(&adv),
        "codec round trip"
    );
    WireCost {
        encode_ns,
        decode_ns,
    }
}

/// Nanoseconds per checkpoint write shaped like the live daemon's: four
/// header records, then one table record and one state record per
/// router, then a sync to stable storage.
pub fn checkpoint_ns_per_write(tables: &[RoutingTable], dir: &Path) -> std::io::Result<f64> {
    const WRITES: u64 = 10;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("replay-{}.ckpt", std::process::id()));
    let records: Vec<(String, String)> = tables
        .iter()
        .flat_map(|t| {
            let json = serde_json::to_string(t).expect("routing tables serialize");
            let state = format!(
                "seq=1;draws=1;next_ns=0;busy_ns=0;stretch=1;crashed=0;heard={};tout=0;up=1",
                t.len()
            );
            [
                (format!("router.{}.table", t.me()), json),
                (format!("router.{}.state", t.me()), state),
            ]
        })
        .collect();
    let mut writer = routesync_exec::checkpoint::Writer::create(&path, "perfbench replay")?;
    let mut failed = None;
    let ns = ns_per_op(WRITES, || {
        for _ in 0..WRITES {
            let res = (|| {
                for key in ["sim_ns", "faults_applied", "rounds", "detector"] {
                    writer.append(key, "0")?;
                }
                for (k, v) in &records {
                    writer.append(k, v)?;
                }
                writer.sync()
            })();
            if let Err(e) = res {
                failed = Some(e);
            }
        }
    });
    drop(writer);
    std::fs::remove_file(&path)?;
    match failed {
        Some(e) => Err(e),
        None => Ok(ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulers_replay_at_depth() {
        assert!(heap_ns_per_op(1000, 1_000_000_000, 1) > 0.0);
        assert!(calendar_ns_per_op(1000, 1_000_000_000, 1) > 0.0);
    }

    #[test]
    fn dv_replay_leaves_table_size_unchanged() {
        let mut t = RoutingTable::new(0);
        for nb in 1..5 {
            t.install_direct(nb);
        }
        for dst in 10..60 {
            t.install(dst, 3, 1 + dst % 4);
        }
        let cost = dv_costs(&t, 16, None);
        assert!(cost.ns_per_entry > 0.0 && cost.ns_per_adv_entry > 0.0);
        let w = wire_costs(&t, 16);
        assert!(w.encode_ns > 0.0 && w.decode_ns > 0.0);
    }
}
