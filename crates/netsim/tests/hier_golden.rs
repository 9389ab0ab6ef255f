//! Golden values for the hierarchical control plane under faults.
//!
//! Both area modes run the same fault plan: a border router crashes for
//! 450 s and reboots, and one intra-area link goes down and comes back.
//! Together they exercise held default routes, poisoned reverse on
//! Stub-mode exacts and delta triggered updates. The counters, the event
//! count and a digest of every final routing table were recorded with
//! the per-link advertisement scan that `RoutingTable::area_base_into`
//! replaced.

use routesync_desim::{Duration, SimTime};
use routesync_netsim::{AreaMode, Counters, FaultPlan, ScenarioSpec};

/// 60 routers in 5 areas of 12: area `k`'s border router is `12 k`, its
/// star links are `11 k .. 11 k + 11`, the backbone LAN is link 55.
/// Link 3 (border 0 to edge 4) fails 1 ms before area 0's update round
/// at 360 s, so edges advertise their route to 4 before the border's
/// triggered update reaches them: without poisoned reverse the border
/// would learn a route to 4 back through them.
fn run(mode: AreaMode) -> (Counters, u64, u64) {
    let plan = FaultPlan::new()
        .crash_at(12, SimTime::from_secs(250))
        .reboot_at(12, SimTime::from_secs(700))
        .link_down_at(3, SimTime::from_millis(359_999))
        .link_up_at(3, SimTime::from_secs(520));
    let mut s = ScenarioSpec::hierarchical(60, 5, Duration::from_millis(1))
        .with_area_mode(mode)
        .with_faults(plan)
        .build(1993);
    s.sim.run_until(SimTime::from_secs(1_500));
    let nodes = s.sim.topology().node_count();
    (
        s.sim.counters().clone(),
        s.sim.events_processed(),
        tables_fnv(&s.sim, nodes),
    )
}

/// FNV-1a over every route of every router's table, clocks included.
fn tables_fnv(sim: &routesync_netsim::NetSim, nodes: usize) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    let nanos = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.as_nanos());
    for node in 0..nodes {
        eat(node as u64);
        for (dst, r) in sim.table(node).iter() {
            eat(dst as u64);
            eat(r.metric.into());
            eat(r.next_hop as u64);
            eat(r.last_heard.as_nanos());
            eat(nanos(r.holddown_until));
            eat(nanos(r.dead_since));
        }
    }
    h
}

fn counters(sent: u64, processed: u64, triggered: u64, drop_router_down: u64) -> Counters {
    Counters {
        updates_sent: sent,
        updates_processed: processed,
        updates_triggered: triggered,
        drop_router_down,
        faults_injected: 4,
        reboots: 1,
        ..Counters::default()
    }
}

#[test]
fn totally_stubby_hierarchy_under_faults_matches_golden() {
    let (c, events, fnv) = run(AreaMode::TotallyStubby);
    assert_eq!(c, counters(1542, 1692, 51, 63));
    assert_eq!(events, 6400);
    assert_eq!(fnv, 0x49ec870d573a8064);
}

#[test]
fn stub_hierarchy_under_faults_matches_golden() {
    let (c, events, fnv) = run(AreaMode::Stub);
    assert_eq!(c, counters(1628, 1776, 148, 62));
    assert_eq!(events, 6699);
    assert_eq!(fnv, 0x7b1f9f39f85e802e);
}
