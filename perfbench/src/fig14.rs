//! `fig14_ensemble`: the `sweep --metric sync-time` pipeline. A closed
//! batch of Periodic Messages cells on two worker threads
//! (`experiment::run_many` over `FastModel`), three Tr points that mix
//! cells stopping early, cells at the transition and cells running the
//! whole horizon, then the Markov chain evaluated at the same points.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use routesync_core::{
    experiment, ClusterLog, FastModel, FirstPassageUp, PeriodicModel, PeriodicParams, SendTrace,
    StartState,
};
use routesync_desim::{Duration, SimTime};
use routesync_markov::{ChainParams, PeriodicChain};

use crate::common::{
    counter_readout, derive_seed, median, peak_rss_mb, process_cpu_ns, secs_since, top_up_setups,
};
use crate::pass::{Mode, Pass};

const N: usize = 20;
const TP_S: u64 = 121;
const TC_MS: u64 = 110;
/// The Tr points (ms) and the suffix of their per-layer metric names.
pub const POINTS: [(u64, &str); 3] = [(100, "tr010"), (130, "tr013"), (200, "tr020")];
const SEEDS_PER_POINT: usize = 128;
const HORIZON_S: u64 = 2_000_000;
const THREADS: usize = 2;
/// Cells per point re-run through the event-driven reference engine.
const CHECKED_PER_POINT: u64 = 2;
/// Markov f(2) in rounds, the `sweep` default.
const F2_ROUNDS: f64 = 19.0;

/// One finished cell of the ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Time of full synchronization, if it happened before the horizon.
    pub synced_at: Option<SimTime>,
    pub sends: u64,
    /// Simulated time the cell reached.
    pub end: SimTime,
    /// The cell panicked.
    pub panicked: bool,
}

/// Inputs of one run: the Tr points with their cell seeds.
struct Plan {
    points: Vec<(PeriodicParams, ChainParams, Vec<u64>)>,
}

fn make_plan(seed: u64) -> Plan {
    let points = POINTS
        .iter()
        .enumerate()
        .map(|(p, &(tr_ms, _))| {
            let params = PeriodicParams::new(
                N,
                Duration::from_secs(TP_S),
                Duration::from_millis(TC_MS),
                Duration::from_millis(tr_ms),
            );
            let chain = ChainParams {
                n: N,
                tp: TP_S as f64,
                tc: TC_MS as f64 / 1e3,
                tr: tr_ms as f64 / 1e3,
            };
            let seeds = (0..SEEDS_PER_POINT as u64)
                .map(|i| derive_seed(seed, (p as u64) << 32 | i))
                .collect();
            (params, chain, seeds)
        })
        .collect();
    Plan { points }
}

fn run_cell(model: &mut FastModel) -> Cell {
    let res = catch_unwind(AssertUnwindSafe(|| {
        let mut fp = FirstPassageUp::new(N);
        let end = model.run(SimTime::from_secs(HORIZON_S), &mut fp);
        Cell {
            synced_at: fp.first(N).map(|(t, _)| t),
            sends: model.sends(),
            end,
            panicked: false,
        }
    }));
    res.unwrap_or(Cell {
        synced_at: None,
        sends: 0,
        end: SimTime::ZERO,
        panicked: true,
    })
}

/// Run one Tr point. With `ends`, every worker logs when each of its
/// cells finished (for the executor's tail).
fn run_point(
    params: PeriodicParams,
    seeds: &[u64],
    ends: Option<&Mutex<Vec<(ThreadId, Instant)>>>,
) -> Vec<Cell> {
    experiment::run_many(
        params,
        StartState::Unsynchronized,
        seeds,
        THREADS,
        |model, _seed| {
            let cell = run_cell(model);
            if let Some(ends) = ends {
                ends.lock()
                    .expect("no worker panics while logging")
                    .push((std::thread::current().id(), Instant::now()));
            }
            cell
        },
    )
}

/// One timed pass over the whole pipeline.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    point_s: Vec<f64>,
    chain_s: f64,
    cells: Vec<Vec<Cell>>,
    /// Executor tail per point: from the first worker's last cell to the
    /// call's return (traced reps only).
    tail_s: f64,
}

fn rep(plan: &Plan, traced: bool) -> Rep {
    let t0 = Instant::now();
    let cpu0 = process_cpu_ns();
    let mut point_s = Vec::new();
    let mut cells = Vec::new();
    let mut tail_s = 0.0;
    for (params, _, seeds) in &plan.points {
        let ends = Mutex::new(Vec::new());
        let tp = Instant::now();
        let out = run_point(*params, seeds, traced.then_some(&ends));
        let returned = Instant::now();
        point_s.push(secs_since(tp));
        if traced {
            tail_s += executor_tail(&ends.into_inner().expect("log intact"), returned);
        }
        cells.push(out);
    }
    let tc = Instant::now();
    for (_, chain, _) in &plan.points {
        let c = PeriodicChain::new(*chain);
        std::hint::black_box(c.f_n(F2_ROUNDS) * chain.seconds_per_round());
        std::hint::black_box(c.fraction_unsynchronized(F2_ROUNDS));
    }
    let chain_s = secs_since(tc);
    Rep {
        wall_s: secs_since(t0),
        cpu_s: (process_cpu_ns() - cpu0) as f64 / 1e9,
        point_s,
        chain_s,
        cells,
        tail_s,
    }
}

/// Seconds from the first worker running out of cells to the call's
/// return.
fn executor_tail(ends: &[(ThreadId, Instant)], returned: Instant) -> f64 {
    let mut last: Vec<(ThreadId, Instant)> = Vec::new();
    for &(id, t) in ends {
        match last.iter_mut().find(|(w, _)| *w == id) {
            Some(slot) => slot.1 = slot.1.max(t),
            None => last.push((id, t)),
        }
    }
    last.iter()
        .map(|&(_, t)| returned.duration_since(t).as_secs_f64())
        .fold(0.0, f64::max)
}

fn sends(cells: &[Vec<Cell>]) -> u64 {
    cells.iter().flatten().map(|c| c.sends).sum()
}

/// Share of a point's cells that reached full synchronization.
pub fn synced_share(cells: &[Cell]) -> f64 {
    cells.iter().filter(|c| c.synced_at.is_some()).count() as f64 / cells.len() as f64
}

/// The synced share must fall as Tr rises: more jitter, less
/// synchronization (paper Fig 14). `shares` are in rising-Tr order.
pub fn check_synced_share_falls(shares: &[f64]) -> Result<(), String> {
    let falls = shares.windows(2).all(|w| w[1] <= w[0]);
    let moves = shares.first() > shares.last();
    if falls && moves {
        Ok(())
    } else {
        Err(format!(
            "synced share does not fall as Tr rises: {shares:?}"
        ))
    }
}

/// Compare a cell of the ensemble against the event-driven reference run
/// of the same parameters and seed: identical full-synchronization time,
/// identical send and cluster logs (up to the 2N-entry tail where the two
/// engines stop differently).
pub fn check_against_reference(
    params: PeriodicParams,
    seed: u64,
    cell: &Cell,
) -> Result<(f64, u64), String> {
    type Rec = (FirstPassageUp, (SendTrace, ClusterLog));
    let new_rec = || -> Rec {
        (
            FirstPassageUp::new(N),
            (SendTrace::new(), ClusterLog::new()),
        )
    };
    let horizon = SimTime::from_secs(HORIZON_S);
    let mut fast_rec = new_rec();
    let mut fast = FastModel::new(params, StartState::Unsynchronized, seed);
    fast.run(horizon, &mut fast_rec);
    if fast.sends() != cell.sends {
        return Err(format!(
            "seed {seed}: ensemble cell sent {} messages, a fresh model {}",
            cell.sends,
            fast.sends()
        ));
    }
    let t0 = Instant::now();
    let mut reference = PeriodicModel::new(params, StartState::Unsynchronized, seed);
    let mut ref_rec = new_rec();
    reference.run(horizon, &mut ref_rec);
    let ref_s = secs_since(t0);
    let ref_sends = ref_rec.1 .0.sends().len() as u64;

    let ref_sync = ref_rec.0.first(N).map(|(t, _)| t);
    if cell.synced_at != ref_sync {
        return Err(format!(
            "seed {seed}: ensemble sync time {:?} != reference {:?}",
            cell.synced_at, ref_sync
        ));
    }
    let tail = 2 * N;
    let canonical = |v: &[(SimTime, usize)]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    let a = canonical(fast_rec.1 .0.sends());
    let b = canonical(ref_rec.1 .0.sends());
    let keep = a.len().min(b.len()).saturating_sub(tail);
    if a[..keep] != b[..keep] {
        return Err(format!("seed {seed}: send logs diverge from the reference"));
    }
    let ca = fast_rec.1 .1.groups();
    let cb = ref_rec.1 .1.groups();
    let keep_c = ca.len().min(cb.len()).saturating_sub(tail);
    if ca[..keep_c] != cb[..keep_c] {
        return Err(format!(
            "seed {seed}: cluster logs diverge from the reference"
        ));
    }
    if keep <= 10 {
        return Err(format!("seed {seed}: only {keep} comparable sends"));
    }
    Ok((ref_s, ref_sends))
}

/// One pass in this process: set up, one timed pass over the pipeline,
/// the output checks, and (traced) the per-layer breakdown.
pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut out = Pass::default();
    let t0 = Instant::now();
    let plan = make_plan(seed);
    let mut setup_s = vec![secs_since(t0)];
    if mode.traced() {
        routesync_obs::install(routesync_obs::Collector::enabled());
    }
    let r = rep(&plan, mode.traced());
    let snap = routesync_obs::global().snapshot();
    // Read before the reference check, whose send logs are not part of
    // the pipeline.
    out.put("peak_rss_mb", peak_rss_mb());
    top_up_setups(&mut setup_s, || {
        let t0 = Instant::now();
        std::hint::black_box(make_plan(seed));
        secs_since(t0)
    });
    eprintln!(
        "perfbench: {} pass: {:.4} s, {:.3} cpu-s",
        mode.name(),
        r.wall_s,
        r.cpu_s
    );

    let cells = &r.cells;
    out.attempted = cells.iter().map(Vec::len).sum::<usize>() as u64;
    out.failed = cells.iter().flatten().filter(|c| c.panicked).count() as u64;
    out.counts = cells
        .iter()
        .flat_map(|point| {
            let synced = point.iter().filter(|c| c.synced_at.is_some()).count() as u64;
            [
                point.iter().map(|c| c.sends).sum(),
                synced,
                cells_digest(point),
            ]
        })
        .collect();
    let shares: Vec<f64> = cells.iter().map(|c| synced_share(c)).collect();
    out.check("synced share", check_synced_share_falls(&shares));
    let mut ref_s = 0.0;
    let mut ref_sends = 0u64;
    if mode.checks() {
        for (p, (params, _, seeds)) in plan.points.iter().enumerate() {
            for k in 0..CHECKED_PER_POINT {
                let i =
                    (derive_seed(seed, 0xC0DE + 16 * p as u64 + k) % seeds.len() as u64) as usize;
                match check_against_reference(*params, seeds[i], &cells[p][i]) {
                    Ok((s, n)) => {
                        ref_s += s;
                        ref_sends += n;
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.check("reference engine", Err(e));
                    }
                }
            }
        }
    }

    out.put("setup_s", median(&setup_s));
    out.put("sends_per_s", sends(cells) as f64 / r.wall_s);
    out.put(
        "sim_s_per_s",
        cells
            .iter()
            .flatten()
            .map(|c| c.end.as_secs_f64())
            .sum::<f64>()
            / r.wall_s,
    );
    out.put("cpu_util", r.cpu_s / r.wall_s);
    out.put("timed_s", r.wall_s);
    if !mode.traced() {
        return out;
    }
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    for (p, &(_, suffix)) in POINTS.iter().enumerate() {
        let s: u64 = cells[p].iter().map(|c| c.sends).sum();
        out.put(
            &format!("core.ns_per_send.{suffix}"),
            r.point_s[p] * 1e9 / s as f64,
        );
        out.put(&format!("core.synced_share.{suffix}"), shares[p]);
    }
    out.put("core.sends", c("core.fast.sends"));
    out.put("core.bursts", c("core.fast.bursts"));
    out.put("exec.busy_s", c("exec.worker.busy_ns") / 1e9);
    out.put("exec.idle_s", c("exec.worker.idle_ns") / 1e9);
    out.put("exec.steals", c("exec.worker.steals"));
    out.put("exec.tail_s", r.tail_s);
    out.put("markov.chain_s", r.chain_s);
    if ref_sends > 0 {
        out.put("desim.periodic_ns_per_send", ref_s * 1e9 / ref_sends as f64);
    }
    out.put(
        "rng.ns_per_draw",
        crate::replay::rng_ns_per_draw(plan.points[0].0.jitter, seed),
    );
    let explained: f64 = r.point_s.iter().sum::<f64>() + r.chain_s;
    out.put(
        "ledger.unaccounted_pct",
        (1.0 - explained / r.wall_s) * 100.0,
    );
    out.counters = counter_readout(&snap);
    out
}

/// An order-sensitive digest of a point's cells, so passes can be
/// compared exactly without shipping every cell.
fn cells_digest(cells: &[Cell]) -> u64 {
    cells.iter().fold(0xCBF2_9CE4_8422_2325, |h, c| {
        let fields = [
            c.synced_at.map_or(u64::MAX, |t| t.as_nanos()),
            c.sends,
            c.end.as_nanos(),
            u64::from(c.panicked),
        ];
        fields
            .iter()
            .fold(h, |h, &x| (h ^ x).wrapping_mul(0x0100_0000_01B3))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_share_check_accepts_falling_and_rejects_rising() {
        assert!(check_synced_share_falls(&[0.9, 0.5, 0.1]).is_ok());
        assert!(check_synced_share_falls(&[0.1, 0.5, 0.9]).is_err());
        assert!(check_synced_share_falls(&[0.5, 0.5, 0.5]).is_err());
    }

    /// A small cell that synchronizes quickly (tiny Tr), so the test
    /// stays fast in a debug build.
    fn small_cell(seed: u64) -> (PeriodicParams, Cell) {
        let params = PeriodicParams::new(
            N,
            Duration::from_secs(TP_S),
            Duration::from_millis(TC_MS),
            Duration::from_millis(10),
        );
        let mut model = FastModel::new(params, StartState::Unsynchronized, seed);
        (params, run_cell(&mut model))
    }

    #[test]
    fn reference_check_passes_on_the_true_cell() {
        let (params, cell) = small_cell(3);
        assert!(cell.synced_at.is_some());
        check_against_reference(params, 3, &cell).expect("engines agree");
    }

    #[test]
    fn reference_check_fails_against_a_wrong_expectation() {
        let (params, cell) = small_cell(3);
        // The expectation of another seed's cell, or a shifted sync time.
        assert!(check_against_reference(params, 4, &cell).is_err());
        let shifted = Cell {
            synced_at: cell.synced_at.map(|t| t + Duration::from_nanos(1)),
            ..cell
        };
        assert!(check_against_reference(params, 3, &shifted).is_err());
    }
}
