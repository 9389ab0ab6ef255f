//! Golden values for the data plane under faults.
//!
//! The values were recorded with a `TxDone` event pushed for every
//! transmission and a `CpuFree` event pushed for every CPU charge. A link
//! completion or a CPU release that the simulator handles at a different
//! instant, or not at all, changes a count or a digest here.

use routesync_desim::{Duration, SimTime};
use routesync_netsim::{
    Counters, DvConfig, FaultKind, FaultPlan, FaultRecord, HelloConfig, NetSim, RouterConfig,
    ScenarioSpec, Topology,
};

const HORIZON_S: u64 = 900;

fn us(micros: u64) -> SimTime {
    SimTime(micros * 1_000)
}

struct Outcome {
    counters: Counters,
    rtt_fnv: u64,
    faults: Vec<FaultRecord>,
    updates: usize,
    updates_fnv: u64,
}

/// The NEARnet ping scenario with Poisson cross-traffic at a 2.6 ms mean
/// gap, a little above what the core-2 ↔ east-gw T1 (link 3) carries, so
/// east-gw's output queue on it fills, drains and overflows. The fault
/// plan:
/// * takes link 3 down while packets sit in that queue, and brings it
///   back 60 s later;
/// * makes the west-gw ↔ core-1 link lossy;
/// * crashes core-2 for 130 s;
/// * slows core-1's CPU tenfold and crashes it for 0.5 s in the middle of
///   a busy period, so its reboot charges the CPU with a release due
///   before the one the crash abandoned.
fn run() -> Outcome {
    let plan = FaultPlan::new()
        .link_down_at(3, us(200_003_000))
        .link_up_at(3, us(260_000_000))
        .lossy_link(1, 0.05)
        .crash_at(4, us(400_000_000))
        .reboot_at(4, us(530_000_000))
        .slow_router(3, 10.0)
        .crash_at(3, us(455_000_000))
        .reboot_at(3, us(455_500_000));
    let mut s = ScenarioSpec::nearnet()
        .with_faults(plan)
        .with_timeline(true)
        .build(1993);
    let (berkeley, mit) = (s.hosts[0], s.hosts[1]);
    s.sim.add_ping(
        berkeley,
        mit,
        Duration::from_secs_f64(1.01),
        850,
        SimTime::from_secs(5),
    );
    s.sim.add_poisson(
        mit,
        berkeley,
        Duration::from_micros(2600),
        SimTime::from_secs(HORIZON_S),
        SimTime::from_secs(5),
    );
    s.sim.run_until(SimTime::from_secs(HORIZON_S));
    let rtts = s.sim.ping_stats(berkeley).rtt_series(2.0);
    let log = s.sim.update_log();
    Outcome {
        counters: s.sim.counters().clone(),
        rtt_fnv: fnv(rtts.iter().map(|r| r.to_bits())),
        faults: s.sim.fault_log().to_vec(),
        updates: log.len(),
        updates_fnv: fnv(log.iter().flat_map(|&(t, n)| [t.as_nanos(), n as u64])),
    }
}

/// FNV-1a over a stream of words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in words {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn nearnet_ping_under_faults_matches_golden() {
    let o = run();
    assert_eq!(
        o.counters,
        Counters {
            sent: 344953,
            delivered: 167317,
            forwarded: 865940,
            drop_no_route: 73746,
            drop_queue: 5800,
            drop_cpu: 89209,
            drop_link_down: 28,
            drop_ttl: 0,
            updates_sent: 423,
            updates_processed: 368,
            hellos_sent: 0,
            drop_link_loss: 8752,
            drop_router_down: 71,
            faults_injected: 6,
            reboots: 2,
            updates_triggered: 101,
        }
    );
    assert_eq!(o.rtt_fnv, 0x93c967eeafc33f60);
    let fault = |micros, kind, subject| FaultRecord {
        at: us(micros),
        kind,
        subject,
    };
    assert_eq!(
        o.faults,
        vec![
            fault(200_003_000, FaultKind::LinkDown, 3),
            fault(260_000_000, FaultKind::LinkUp, 3),
            fault(400_000_000, FaultKind::RouterCrash, 4),
            fault(455_000_000, FaultKind::RouterCrash, 3),
            fault(455_500_000, FaultKind::RouterReboot, 3),
            fault(530_000_000, FaultKind::RouterReboot, 4),
        ]
    );
    assert_eq!((o.updates, o.updates_fnv), (124, 0xdaaa65f9d59a6e31));
}

/// A link repaired before the transmission in progress at its failure
/// completes: the frames that queue behind that transmission after the
/// repair still leave one transmission time apart. Hellos detect
/// failures here, so routes survive the 0.2 ms outage and traffic keeps
/// heading for the link.
#[test]
fn link_repaired_mid_transmission_keeps_serializing() {
    let mut t = Topology::new();
    let a = t.add_host("a");
    let r0 = t.add_router("r0");
    let r1 = t.add_router("r1");
    let b = t.add_host("b");
    t.add_link(a, r0, Duration::from_millis(1), 10_000_000, 50);
    // 320-byte frames take 2.56 ms at 1 Mbit/s; one arrives every 1 ms.
    let slow = t.add_link(r0, r1, Duration::from_millis(10), 1_000_000, 50);
    t.add_link(r1, b, Duration::from_millis(1), 10_000_000, 50);
    let cfg = RouterConfig::new(DvConfig::rip().with_hello(HelloConfig::standard()));
    let mut sim = NetSim::new(t, cfg, 7);
    sim.add_cbr(a, b, Duration::from_millis(1), 3_000, SimTime::from_secs(1));
    sim.schedule_link_down(slow, us(2_000_100));
    sim.schedule_link_up(slow, us(2_000_300));
    sim.run_until(SimTime::from_secs(10));
    let arrivals = &sim.cbr_stats(b).arrivals;
    let tx_s = 320.0 * 8.0 / 1e6;
    for (i, w) in arrivals.windows(2).enumerate() {
        assert!(
            w[1] - w[0] > tx_s - 1e-9,
            "frames {i} and {} arrived {} s apart",
            i + 1,
            w[1] - w[0]
        );
    }
    assert_eq!(
        sim.counters(),
        &Counters {
            sent: 3000,
            delivered: 1222,
            forwarded: 4222,
            drop_queue: 1729,
            drop_link_down: 50,
            hellos_sent: 4,
            ..Counters::default()
        }
    );
}

/// A router rebooted in the middle of a long busy period: its CPU frees
/// when the reboot's own, shorter charge ends, not when the release the
/// crash abandoned would have come due. The 20 hosts behind r1 make r0's
/// table before the crash much larger than after the reboot, r0's CPU is
/// slowed 100-fold, and the 5 s r0 ↔ r1 delay keeps r1's answers away
/// until after that abandoned release. Pings from h0 reach r0 every
/// 100 ms and drop while its CPU is busy, so the drop counts pin the
/// instant it frees.
#[test]
fn reboot_mid_busy_period_frees_the_cpu_early() {
    let mut t = Topology::new();
    let h0 = t.add_host("h0");
    let r0 = t.add_router("r0");
    let r1 = t.add_router("r1");
    t.add_link(h0, r0, Duration::from_millis(1), 10_000_000, 50);
    t.add_link(r0, r1, Duration::from_secs(5), 1_544_000, 50);
    let far: Vec<_> = (1..=20)
        .map(|i| {
            let h = t.add_host(format!("h{i}"));
            t.add_link(r1, h, Duration::from_millis(1), 10_000_000, 50);
            h
        })
        .collect();
    let mut cfg = RouterConfig::new(DvConfig::rip());
    cfg.record_timeline = true;
    let mut sim = NetSim::new(t, cfg, 3);
    // RIP's first synchronized fire is at 30 s.
    sim.install_faults(
        &FaultPlan::new()
            .slow_router(r0, 100.0)
            .crash_at(r0, us(30_500_000))
            .reboot_at(r0, us(30_600_000)),
    );
    sim.add_ping(
        h0,
        far[0],
        Duration::from_millis(100),
        600,
        SimTime::from_secs(1),
    );
    sim.run_until(SimTime::from_secs(80));
    let rtts = sim.ping_stats(h0).rtt_series(-1.0);
    assert_eq!(fnv(rtts.iter().map(|r| r.to_bits())), 0x1563216afa7d828);
    assert_eq!(
        sim.counters(),
        &Counters {
            sent: 1032,
            delivered: 764,
            forwarded: 1583,
            drop_no_route: 88,
            drop_cpu: 176,
            updates_sent: 113,
            updates_processed: 9,
            drop_router_down: 4,
            faults_injected: 2,
            reboots: 1,
            updates_triggered: 5,
            ..Counters::default()
        }
    );
    let s = SimTime::from_millis;
    assert_eq!(
        sim.update_log(),
        &[
            (s(30_000), 1),
            (s(30_000), 2),
            (s(60_023), 2),
            (s(60_600), 1)
        ]
    );
}
