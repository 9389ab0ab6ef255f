//! `live_nearnet`: the crash-safe daemon over real loopback UDP. An open
//! loop paced by the simulated clock: 44 routers exchange periodic
//! updates at 600× compression for 1800 simulated seconds (3 wall
//! seconds), with 5 % loss on a backbone link, one stub router crashed
//! at 400 s and rebooted at 900 s, checkpoints every 120 simulated
//! seconds and the desim twin predicting the trajectory. The offered load
//! is fixed by the schedule, so a slower daemon shows as CPU and
//! lateness, not as lower throughput.

use std::path::{Path, PathBuf};
use std::time::Instant;

use routesync_desim::{Duration, SimTime};
use routesync_live::{LiveConfig, LiveDaemon, LiveReport, Outcome as RunEnd};
use routesync_netsim::{FaultPlan, RoutingTable, ScenarioSpec};
use routesync_obs::Collector;

use crate::common::{
    counter_readout, median, peak_rss_mb, secs_since, thread_cpu_ns, top_up_setups,
};
use crate::pass::{Mode, Pass};
use crate::replay;

const STUBS_PER_CORE: usize = 20;
/// Simulated seconds per wall second. At 2400× the twin divergence of
/// even the 14-router variant exceeds the tolerance; stay at or below
/// 1200×.
const TIME_SCALE: f64 = 600.0;
const HORIZON_S: u64 = 1_800;
/// The core-1 ↔ core-2 backbone T1.
const LOSSY_LINK: usize = 2;
const LOSS: f64 = 0.05;
/// The first regional stub router of core-1.
const CRASHED: usize = 6;
const CRASH_AT_S: u64 = 400;
const REBOOT_AT_S: u64 = 900;
/// core-1, whose table sets the replays' operating point.
const CORE: usize = 3;
const CHECKPOINT_EVERY_S: u64 = 120;
pub const DIVERGENCE_TOLERANCE: f64 = 0.15;

fn spec() -> ScenarioSpec {
    let plan = FaultPlan::new()
        .lossy_link(LOSSY_LINK, LOSS)
        .crash_at(CRASHED, SimTime::from_secs(CRASH_AT_S))
        .reboot_at(CRASHED, SimTime::from_secs(REBOOT_AT_S));
    ScenarioSpec::nearnet_sized(STUBS_PER_CORE).with_faults(plan)
}

/// Scratch directory for checkpoints, inside the working directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench").join("tmp")
}

fn config(seed: u64, checkpoint: &Path, collector: Collector) -> LiveConfig {
    let mut cfg = LiveConfig::new(spec(), format!("perfbench-live;seed={seed}"), seed);
    cfg.time_scale = TIME_SCALE;
    cfg.horizon = SimTime::from_secs(HORIZON_S);
    cfg.checkpoint = Some(checkpoint.to_path_buf());
    cfg.checkpoint_every = Duration::from_secs(CHECKPOINT_EVERY_S);
    cfg.twin = true;
    cfg.divergence_tolerance = DIVERGENCE_TOLERANCE;
    cfg.collector = collector;
    cfg
}

/// Reachable destinations per router in the converged state.
fn reachable(table: &RoutingTable, infinity: u32) -> usize {
    table.iter().filter(|(_, r)| r.metric < infinity).count()
}

/// What a finished live run must show: it ran to the horizon, every
/// router reaches as many destinations as in the converged state, and
/// the daemon stayed within tolerance of its twin.
pub fn check_report(
    report: &LiveReport,
    converged: &[(usize, usize)],
    infinity: u32,
    tolerance: f64,
) -> Result<(), String> {
    let mut errs = Vec::new();
    if report.outcome != RunEnd::Completed {
        errs.push("run was interrupted".to_string());
    }
    if report.sim_end != SimTime::from_secs(HORIZON_S) {
        errs.push(format!(
            "sim_end {} != horizon {HORIZON_S} s",
            report.sim_end
        ));
    }
    for &(id, want) in converged {
        match report.tables.get(&id) {
            Some(t) if reachable(t, infinity) == want => {}
            Some(t) => errs.push(format!(
                "router {id} reaches {} destinations, converged {want}",
                reachable(t, infinity)
            )),
            None => errs.push(format!("router {id} missing from the report")),
        }
    }
    match report.max_divergence {
        Some(d) if d <= tolerance => {}
        other => errs.push(format!("twin divergence {other:?} above {tolerance}")),
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

struct Rep {
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    report: LiveReport,
    /// The daemon's metrics right after the run (before any extra
    /// set-ups add twin predictions to a shared collector).
    snapshot: routesync_obs::Snapshot,
}

/// Boot a daemon with a fresh checkpoint at `path`; returns it with the
/// set-up seconds.
fn setup(seed: u64, path: &Path, collector: Collector) -> std::io::Result<(LiveDaemon, f64)> {
    let _ = std::fs::remove_file(path);
    let t0 = Instant::now();
    let daemon = LiveDaemon::new(config(seed, path, collector))?;
    Ok((daemon, secs_since(t0)))
}

fn checkpoint_path(tag: &str) -> std::io::Result<PathBuf> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(format!("live-{}-{tag}.ckpt", std::process::id())))
}

fn rep(seed: u64, tag: &str, collector: Collector) -> std::io::Result<Rep> {
    let path = checkpoint_path(tag)?;
    let (mut daemon, setup_s) = setup(seed, &path, collector.clone())?;
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    let report = daemon.run();
    let run_s = secs_since(t0);
    let cpu_s = (thread_cpu_ns() - cpu0) as f64 / 1e9;
    drop(daemon);
    std::fs::remove_file(&path)?;
    Ok(Rep {
        setup_s,
        run_s,
        cpu_s,
        report: report?,
        snapshot: collector.snapshot(),
    })
}

fn count(r: &Rep, k: &str) -> u64 {
    r.snapshot.counters.get(k).copied().unwrap_or(0)
}

fn shed(r: &Rep) -> u64 {
    count(r, "live.shed.ingress") + count(r, "live.shed.egress")
}

/// One pass in this process: boot the daemon, run it to the horizon,
/// check the report and (traced) break its CPU down by layer.
pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut out = Pass::default();
    let collector = Collector::enabled();
    if mode.traced() {
        routesync_obs::install(collector.clone());
    }
    let r = match rep(seed, mode.name(), collector) {
        Ok(r) => r,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.errors.push(format!("daemon failed: {e}"));
            return out;
        }
    };
    out.put("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "perfbench: {} pass: setup {:.6} s, run {:.4} s, {:.4} cpu-s, {} timer firings, \
         {} datagrams",
        mode.name(),
        r.setup_s,
        r.run_s,
        r.cpu_s,
        r.report.rounds,
        count(&r, "live.tx.datagrams")
    );
    let mut setup_s = vec![r.setup_s];
    match checkpoint_path("setup") {
        Ok(path) => {
            top_up_setups(&mut setup_s, || {
                let (daemon, secs) = setup(seed, &path, Collector::enabled())
                    .expect("a daemon that booted once boots again");
                drop(daemon);
                secs
            });
            let _ = std::fs::remove_file(&path);
        }
        Err(e) => out.errors.push(format!("checkpoint directory: {e}")),
    }

    let converged_scen = spec().build(seed);
    let infinity = converged_scen.sim.config().dv.infinity;
    let converged: Vec<(usize, usize)> = converged_scen
        .sim
        .topology()
        .routers()
        .into_iter()
        .map(|id| (id, reachable(converged_scen.sim.table(id), infinity)))
        .collect();
    out.check(
        "live run",
        check_report(&r.report, &converged, infinity, DIVERGENCE_TOLERANCE),
    );
    // Datagrams come off real sockets on a wall clock, so their counts are
    // not deterministic; `counts` stays empty.
    out.attempted = count(&r, "live.tx.datagrams");
    out.failed = shed(&r) + count(&r, "live.codec.malformed");

    out.put("setup_s", median(&setup_s));
    out.put(
        "sends_per_s",
        count(&r, "live.tx.datagrams") as f64 / r.run_s,
    );
    out.put("sim_s_per_s", r.report.sim_end.as_secs_f64() / r.run_s);
    out.put("cpu_util", r.cpu_s / r.run_s);
    // The wall time of an open loop is fixed by its schedule; the
    // overhead of tracing shows as daemon CPU.
    out.put("timed_s", r.cpu_s);
    if mode.traced() {
        traced_metrics(&r, &mut out);
        out.counters = counter_readout(&r.snapshot);
    }
    out
}

fn traced_metrics(tr: &Rep, m: &mut Pass) {
    let c = |k: &str| count(tr, k) as f64;
    let tx = c("live.tx.datagrams");
    let rx = c("live.codec.rx");
    m.put("live.tx_datagrams", tx);
    m.put("live.rx", rx);
    m.put("live.retry_attempts", c("live.retry.attempts"));
    m.put("live.retry_exhausted", c("live.retry.exhausted"));
    m.put("live.shed", shed(tr) as f64);
    m.put("live.neighbor_timeouts", c("live.neighbor.timeouts"));
    m.put("live.checkpoint_writes", c("live.checkpoint.writes"));
    m.put(
        "live.twin_divergence_max",
        tr.report.max_divergence.unwrap_or(0.0),
    );
    m.put("live.offered_dgrams_per_s", tx / tr.run_s);
    m.put("live.overrun_s", tr.run_s - HORIZON_S as f64 / TIME_SCALE);

    // Replays at this workload's table size: a core router's table.
    let tables: Vec<RoutingTable> = tr.report.tables.values().cloned().collect();
    let core = &tr.report.tables[&CORE];
    let dv = spec().build(0).sim.config().dv;
    let wire = replay::wire_costs(core, dv.infinity);
    let dv_cost = replay::dv_costs(core, dv.infinity, dv.holddown);
    let ckpt = match replay::checkpoint_ns_per_write(&tables, &work_dir()) {
        Ok(ns) => ns,
        Err(e) => {
            m.errors.push(format!("checkpoint replay: {e}"));
            return;
        }
    };
    m.put("wire.encode_ns", wire.encode_ns);
    m.put("wire.decode_ns", wire.decode_ns);
    m.put("checkpoint.append_ns", ckpt);
    m.put("dv.ns_per_entry", dv_cost.ns_per_entry);
    m.put("dv.ns_per_adv_entry", dv_cost.ns_per_adv_entry);

    // Ledger over the daemon thread's CPU: codec per datagram, table work
    // per entry (each datagram carries about one table), checkpoints.
    let entries = core.len() as f64;
    let explained_ns = tx * (wire.encode_ns + entries * dv_cost.ns_per_adv_entry)
        + rx * (wire.decode_ns + entries * dv_cost.ns_per_entry)
        + c("live.checkpoint.writes") * ckpt;
    m.put(
        "ledger.unaccounted_pct",
        (1.0 - explained_ns / 1e9 / tr.cpu_s) * 100.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn report(tables: BTreeMap<usize, RoutingTable>, divergence: f64) -> LiveReport {
        LiveReport {
            outcome: RunEnd::Completed,
            sim_end: SimTime::from_secs(HORIZON_S),
            rounds: 1,
            tables,
            detector: Default::default(),
            max_divergence: Some(divergence),
        }
    }

    #[test]
    fn report_check_fails_against_wrong_expectations() {
        let scen = spec().build(1);
        let infinity = scen.sim.config().dv.infinity;
        let routers = scen.sim.topology().routers();
        let tables: BTreeMap<usize, RoutingTable> = routers
            .iter()
            .map(|&id| (id, scen.sim.table(id).clone()))
            .collect();
        let converged: Vec<(usize, usize)> = routers
            .iter()
            .map(|&id| (id, reachable(scen.sim.table(id), infinity)))
            .collect();
        let good = report(tables.clone(), 0.02);
        assert!(check_report(&good, &converged, infinity, DIVERGENCE_TOLERANCE).is_ok());
        let off_by_one: Vec<(usize, usize)> =
            converged.iter().map(|&(id, n)| (id, n + 1)).collect();
        assert!(check_report(&good, &off_by_one, infinity, DIVERGENCE_TOLERANCE).is_err());
        assert!(check_report(&good, &converged, infinity, 0.01).is_err());
        let late = LiveReport {
            sim_end: SimTime::from_secs(HORIZON_S - 1),
            ..report(tables, 0.02)
        };
        assert!(check_report(&late, &converged, infinity, DIVERGENCE_TOLERANCE).is_err());
    }
}
