//! The two packet-simulator workloads. Both drive `ScenarioSpec::build`
//! and `NetSim::run_until` on one thread; they stress opposite halves of
//! the simulator.
//!
//! * `netsim_hier`: the control plane at scale. 30 000 routers in
//!   totally-stubby areas, ten DECnet rounds, no data packets: a deep
//!   pending-event set, with advertisement building and
//!   `process_update` dominating.
//! * `nearnet_ping`: the data plane. The NEARnet ping scenario of paper
//!   Figs 1-2 with Poisson cross-traffic: millions of forwardings and
//!   CPU-blocked drops against a few thousand update processings, on a
//!   shallow pending set.

use std::time::Instant;

use routesync_desim::{Duration, SimTime};
use routesync_netsim::{Counters, NetSim, NodeId, Scenario, ScenarioSpec};
use routesync_stats::{autocorrelation, dominant_lag};

use crate::common::{
    counter_readout, derive_seed, median, peak_rss_mb, process_cpu_ns, rss_mb, secs_since,
    top_up_setups,
};
use crate::pass::{Mode, Pass};
use crate::replay;

const HIER_N: usize = 30_000;
/// Size of the traced-run probe of the same hierarchical family.
const HIER_PROBE_N: usize = 3_000;
const HIER_HORIZON_S: u64 = 1_200;
/// Edge routers whose tables are checked after each hierarchical run.
const EDGE_SAMPLE: usize = 64;

const PINGS: u64 = 10_000;
const PING_GAP_S: f64 = 1.01;
const PING_START_S: u64 = 5;
const CROSS_GAP_MS: u64 = 5;
const PING_HORIZON_S: u64 = 10_140;
/// Lags the paper's Fig 2 plots (and `routesync nearnet` computes).
const ACF_MAX_LAG: usize = 130;
/// Lags below this are short-range correlation inside one loss burst.
const ACF_MIN_LAG: usize = 30;
/// RTT assigned to a lost ping before the autocorrelation (paper Fig 2).
const LOSS_RTT_S: f64 = 2.0;

/// Which of the two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hier,
    Ping,
}

impl Kind {
    fn horizon(self) -> SimTime {
        SimTime::from_secs(match self {
            Kind::Hier => HIER_HORIZON_S,
            Kind::Ping => PING_HORIZON_S,
        })
    }
}

fn build(kind: Kind, n: usize, seed: u64) -> Scenario {
    match kind {
        Kind::Hier => ScenarioSpec::hierarchical_for(n).build(seed),
        Kind::Ping => {
            let mut scen = ScenarioSpec::nearnet().build(seed);
            let (berkeley, mit) = (scen.hosts[0], scen.hosts[1]);
            scen.sim.add_ping(
                berkeley,
                mit,
                Duration::from_secs_f64(PING_GAP_S),
                PINGS,
                SimTime::from_secs(PING_START_S),
            );
            scen.sim.add_poisson(
                mit,
                berkeley,
                Duration::from_millis(CROSS_GAP_MS),
                SimTime::from_secs(PING_HORIZON_S),
                SimTime::from_secs(PING_START_S),
            );
            scen
        }
    }
}

/// Edge (non-border) routers of a hierarchical scenario sampled from the
/// seed, with their table sizes in the converged state the build
/// installs.
fn edge_sample(scen: &Scenario, seed: u64) -> Vec<(NodeId, usize)> {
    let n = scen.sim.topology().node_count() as u64;
    (0..)
        .map(|k| (derive_seed(seed, 0xED6E + k) % n) as NodeId)
        .filter(|id| !scen.routers.contains(id))
        .take(EDGE_SAMPLE)
        .map(|id| (id, scen.sim.table(id).len()))
        .collect()
}

/// Every sampled edge router still holds exactly its converged table.
pub fn check_edge_tables(sim: &NetSim, expected: &[(NodeId, usize)]) -> Result<(), String> {
    let bad: Vec<String> = expected
        .iter()
        .filter(|&&(id, len)| sim.table(id).len() != len)
        .map(|&(id, len)| {
            format!(
                "router {id}: {} entries, converged {len}",
                sim.table(id).len()
            )
        })
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// What the ping run must reproduce: the paper's Fig 1-2 signature.
#[derive(Debug, Clone, Copy)]
pub struct PingExpect {
    pub loss_min: f64,
    pub loss_max: f64,
    pub lag: usize,
    pub lag_tol: usize,
}

/// Ping loss 2-4 %, dominant RTT autocorrelation lag 89 ± 3 pings (the
/// 90-second IGRP period at 1.01 s per ping).
pub const PING_EXPECT: PingExpect = PingExpect {
    loss_min: 0.02,
    loss_max: 0.04,
    lag: 89,
    lag_tol: 3,
};

pub fn check_ping(loss: f64, lag: Option<usize>, want: PingExpect) -> Result<(), String> {
    if !(want.loss_min..=want.loss_max).contains(&loss) {
        return Err(format!(
            "ping loss {:.4} outside [{}, {}]",
            loss, want.loss_min, want.loss_max
        ));
    }
    match lag {
        Some(l) if l.abs_diff(want.lag) <= want.lag_tol => Ok(()),
        other => Err(format!(
            "dominant lag {other:?}, want {} ± {}",
            want.lag, want.lag_tol
        )),
    }
}

/// One set-up plus one timed run.
struct Rep {
    setup_s: f64,
    rss_after_build_mb: f64,
    /// Wall seconds of `run_until`.
    run_s: f64,
    cpu_s: f64,
    /// Wall seconds per routing period (traced reps only).
    round_s: Vec<f64>,
    acf_s: f64,
    events: u64,
    counters: Counters,
    errors: Vec<String>,
}

fn rep(kind: Kind, seed: u64, traced: bool) -> (Rep, Scenario) {
    let t0 = Instant::now();
    let mut scen = build(kind, HIER_N, seed);
    let setup_s = secs_since(t0);
    let rss_after_build_mb = rss_mb();
    let edges = (kind == Kind::Hier).then(|| edge_sample(&scen, seed));
    let horizon = kind.horizon();

    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let mut round_s = Vec::new();
    if traced {
        let period = scen.sim.config().dv.jitter.tp();
        let mut until = SimTime::ZERO;
        while until < horizon {
            until = std::cmp::min(until + period, horizon);
            let tr = Instant::now();
            scen.sim.run_until(until);
            round_s.push(secs_since(tr));
        }
    } else {
        scen.sim.run_until(horizon);
    }
    let run_s = secs_since(t0);
    let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;

    let mut errors = Vec::new();
    let mut acf_s = 0.0;
    match kind {
        Kind::Hier => {
            if let Err(e) = check_edge_tables(&scen.sim, edges.as_deref().unwrap_or(&[])) {
                errors.push(format!("edge tables: {e}"));
            }
        }
        Kind::Ping => {
            let t0 = Instant::now();
            let stats = scen.sim.ping_stats(scen.hosts[0]);
            let acf = autocorrelation(&stats.rtt_series(LOSS_RTT_S), ACF_MAX_LAG);
            let lag = dominant_lag(&acf, ACF_MIN_LAG);
            acf_s = secs_since(t0);
            if stats.sent() as u64 != PINGS {
                errors.push(format!("{} pings sent, want {PINGS}", stats.sent()));
            }
            if let Err(e) = check_ping(stats.loss_rate(), lag, PING_EXPECT) {
                errors.push(format!("ping signature: {e}"));
            }
        }
    }
    let rep = Rep {
        setup_s,
        rss_after_build_mb,
        run_s,
        cpu_s,
        round_s,
        acf_s,
        events: scen.sim.events_processed(),
        counters: scen.sim.counters().clone(),
        errors,
    };
    (rep, scen)
}

/// One pass in this process: build, one timed run, the output checks,
/// and (traced) the per-layer breakdown. The probe pass runs the
/// 3000-router member of the hierarchical family instead.
pub fn pass(kind: Kind, seed: u64, mode: Mode) -> Pass {
    let mut out = Pass::default();
    if mode == Mode::Probe {
        probe_n3k(seed, &mut out);
        return out;
    }
    if mode.traced() {
        routesync_obs::install(routesync_obs::Collector::enabled());
    }
    let (r, scen) = rep(kind, seed, mode.traced());
    let snap = routesync_obs::global().snapshot();
    out.put("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "perfbench: {} pass: setup {:.6} s, run_until {:.4} s",
        mode.name(),
        r.setup_s,
        r.run_s
    );
    let mut setup_s = vec![r.setup_s];
    top_up_setups(&mut setup_s, || {
        let t0 = Instant::now();
        drop(build(kind, HIER_N, seed));
        secs_since(t0)
    });
    out.attempted = 1;
    if !r.errors.is_empty() {
        out.failed = 1;
        out.errors.extend(r.errors.iter().cloned());
    }
    let k = &r.counters;
    out.counts = vec![
        r.events,
        k.sent,
        k.delivered,
        k.forwarded,
        k.drop_cpu,
        k.drop_queue,
        k.updates_sent,
        k.updates_processed,
        k.updates_triggered,
    ];
    let horizon_s = kind.horizon().as_secs_f64();
    out.put("setup_s", median(&setup_s));
    out.put("sim_s_per_s", horizon_s / r.run_s);
    out.put("sends_per_s", k.updates_sent as f64 / r.run_s);
    out.put("cpu_util", r.cpu_s / r.run_s);
    out.put("timed_s", r.run_s);
    if mode.traced() {
        traced_metrics(kind, seed, &r, &scen, &snap, median(&setup_s), &mut out);
        out.counters = counter_readout(&snap);
    }
    out
}

fn traced_metrics(
    kind: Kind,
    seed: u64,
    tr: &Rep,
    scen: &Scenario,
    snap: &routesync_obs::Snapshot,
    build_s: f64,
    m: &mut Pass,
) {
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    let g = |k: &str| snap.gauges.get(k).copied().unwrap_or(0) as f64;
    let sim = &scen.sim;
    let events = tr.events as f64;
    let depth = g("desim.engine.pending.high_water");
    let period_ns = sim.config().dv.jitter.tp().as_nanos();
    let heap_ns = replay::heap_ns_per_op(depth as usize, period_ns, seed);
    m.put("desim.events", events);
    m.put("desim.pending_high_water", depth);
    m.put("desim.ns_per_op.heap", heap_ns);
    m.put(
        "desim.ns_per_op.calendar",
        replay::calendar_ns_per_op(depth as usize, period_ns, seed),
    );
    m.put("netsim.build_s", build_s);
    m.put("netsim.rss_after_build_mb", tr.rss_after_build_mb);
    m.put("netsim.round_s.p50", median(&tr.round_s));
    m.put(
        "netsim.round_s.max",
        tr.round_s.iter().copied().fold(0.0, f64::max),
    );
    m.put("netsim.ns_per_event", tr.run_s * 1e9 / events);
    m.put("netsim.updates_processed", c("netsim.updates.processed"));
    m.put("netsim.updates_sent", c("netsim.updates.sent"));
    m.put("netsim.delta_updates", c("netsim.scale.delta_updates"));
    m.put("netsim.router.busy_ns", c("netsim.router.busy_ns"));
    let moved = c("netsim.packets.moved");
    m.put("netsim.packets_moved", moved);
    m.put("netsim.packets_dropped", c("netsim.packets.dropped"));
    m.put("netsim.slab_high_water", g("netsim.slab.high_water"));
    if moved > 0.0 {
        m.put("netsim.ns_per_packet", tr.run_s * 1e9 / moved);
    }
    // The table a border (hierarchical) or core (NEARnet) router holds.
    let dv_router = scen.routers[if kind == Kind::Hier { 0 } else { 1 }];
    let dv = sim.config().dv;
    let dv_cost = replay::dv_costs(sim.table(dv_router), dv.infinity, dv.holddown);
    m.put("dv.ns_per_entry", dv_cost.ns_per_entry);
    m.put("dv.ns_per_adv_entry", dv_cost.ns_per_adv_entry);

    // Ledger: scheduler operations and route-entry work, priced by their
    // replays, against the timed run. Route entries are recovered from
    // the simulated router CPU, which charges `cost_per_route` per entry
    // digested or prepared.
    let entries = c("netsim.router.busy_ns") / sim.config().cost_per_route.as_nanos() as f64;
    let timed = tr.run_s + tr.acf_s;
    let explained = (events * heap_ns + entries * dv_cost.ns_per_entry) / 1e9 + tr.acf_s;
    m.put("ledger.unaccounted_pct", (1.0 - explained / timed) * 100.0);
    if kind == Kind::Ping {
        m.put("stats.acf_s", tr.acf_s);
    }
}

/// The same hierarchical family at a tenth of the size, so the rise of
/// per-event cost with N can be set against the scheduler and table
/// replays at each size.
fn probe_n3k(seed: u64, m: &mut Pass) {
    routesync_obs::install(routesync_obs::Collector::enabled());
    let mut scen = build(Kind::Hier, HIER_PROBE_N, seed);
    let t0 = Instant::now();
    scen.sim.run_until(Kind::Hier.horizon());
    let run_s = secs_since(t0);
    let depth = routesync_obs::global()
        .snapshot()
        .gauges
        .get("desim.engine.pending.high_water")
        .copied()
        .unwrap_or(0);
    let sim = &scen.sim;
    m.put("desim.pending_high_water.n3k", depth as f64);
    m.put(
        "netsim.ns_per_event.n3k",
        run_s * 1e9 / sim.events_processed() as f64,
    );
    m.put(
        "desim.ns_per_op.heap.n3k",
        replay::heap_ns_per_op(depth as usize, sim.config().dv.jitter.tp().as_nanos(), seed),
    );
    let dv = sim.config().dv;
    m.put(
        "dv.ns_per_entry.n3k",
        replay::dv_costs(sim.table(scen.routers[0]), dv.infinity, dv.holddown).ns_per_entry,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_check_accepts_the_paper_signature_only() {
        assert!(check_ping(0.028, Some(90), PING_EXPECT).is_ok());
        assert!(check_ping(0.028, Some(45), PING_EXPECT).is_err());
        assert!(check_ping(0.10, Some(89), PING_EXPECT).is_err());
        assert!(check_ping(0.028, None, PING_EXPECT).is_err());
        // A deliberately wrong expectation rejects the true signature.
        let wrong = PingExpect {
            lag: 60,
            ..PING_EXPECT
        };
        assert!(check_ping(0.028, Some(90), wrong).is_err());
    }

    #[test]
    fn edge_table_check_fails_against_a_wrong_size() {
        let scen = ScenarioSpec::hierarchical_for(200).build(5);
        let edges = edge_sample(&scen, 5);
        assert_eq!(edges.len(), EDGE_SAMPLE);
        assert!(check_edge_tables(&scen.sim, &edges).is_ok());
        let wrong: Vec<(NodeId, usize)> = edges.iter().map(|&(id, n)| (id, n + 1)).collect();
        assert!(check_edge_tables(&scen.sim, &wrong).is_err());
    }
}
