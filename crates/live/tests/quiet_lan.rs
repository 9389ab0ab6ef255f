//! Timing of the event loop on a quiet network. A binary of its own, so
//! no other test of this crate competes with the daemon for the CPU
//! while it measures its own lateness.

use std::time::Instant;

use routesync_desim::{Duration, SimTime};
use routesync_live::{LiveConfig, LiveDaemon, Outcome};
use routesync_netsim::ScenarioSpec;
use routesync_obs::Collector;

/// Two LAN routers for 700 simulated seconds at 600x: about 1.2 wall
/// seconds holding a dozen periodic fires.
#[test]
fn a_quiet_lan_wakes_rarely_and_fires_on_time() {
    let spec = ScenarioSpec::lan(2, Duration::from_millis(50));
    let mut cfg = LiveConfig::new(spec, "test-quiet", 11);
    cfg.time_scale = 600.0;
    cfg.horizon = SimTime::from_secs(700);
    cfg.twin = false;
    cfg.collector = Collector::enabled();
    let collector = cfg.collector.clone();
    let mut d = LiveDaemon::new(cfg).expect("daemon boots");
    let t0 = Instant::now();
    let report = d.run().expect("run completes");
    let wall_ms = t0.elapsed().as_millis() as u64;
    assert_eq!(report.outcome, Outcome::Completed);
    let snap = collector.snapshot();

    // A 1 ms tick would wake about once per wall millisecond.
    let wakeups = snap.counters["live.loop.wakeups"];
    assert!(
        wakeups < wall_ms / 2,
        "{wakeups} wake-ups in {wall_ms} wall ms"
    );

    // Fires run at their deadline, not at the next tick. The host may
    // still stall a wake-up by a few milliseconds (a shared 2-core VM
    // measured 4 ms on a 35 ms wait), and on a synchronized LAN one
    // stall delays both routers' fires; so 4 in 5 fires must be within
    // 2 ms and every fire within 20 ms.
    let lag = &snap.histograms["live.fire_lag_ns"];
    assert_eq!(lag.count, report.rounds, "one lag sample per fire");
    let within = |limit_ns: u64| -> u64 {
        lag.bounds
            .iter()
            .zip(&lag.counts)
            .filter(|&(&bound, _)| bound <= limit_ns)
            .map(|(_, &n)| n)
            .sum()
    };
    let detail = format!(
        "counts {:?} over bucket bounds {:?} ns",
        lag.counts, lag.bounds
    );
    assert!(
        5 * within(2_000_000) >= 4 * lag.count,
        "more than 1 in 5 fires later than 2 ms: {detail}"
    );
    assert_eq!(
        within(20_000_000),
        lag.count,
        "a fire later than 20 ms: {detail}"
    );
}
