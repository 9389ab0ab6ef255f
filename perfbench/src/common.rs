//! Shared measurement plumbing: the metric registry, host probes (RSS,
//! CPU clocks), seed derivation, medians and the result record.

use std::collections::BTreeMap;
use std::time::Instant;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric the benchmark reports: its name and unit as printed, and
/// for end-to-end metrics the direction that counts as better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Option<Better>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Some(better),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: None,
    }
}

/// Metrics printed by an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower),
    e2e("sends_per_s", "1/s", Better::Higher),
    e2e("sim_s_per_s", "sim_s/s", Better::Higher),
    e2e("peak_rss_mb", "MB", Better::Lower),
    e2e("cpu_util", "cpu_s/s", Better::Lower),
];

/// Metrics printed by a traced run (`--trace 1`). A workload that does
/// not exercise a layer reports it as 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("rng.ns_per_draw", "ns"),
    layer("core.ns_per_send.tr010", "ns"),
    layer("core.ns_per_send.tr013", "ns"),
    layer("core.ns_per_send.tr020", "ns"),
    layer("core.sends", "count"),
    layer("core.bursts", "count"),
    layer("core.synced_share.tr010", "ratio"),
    layer("core.synced_share.tr013", "ratio"),
    layer("core.synced_share.tr020", "ratio"),
    layer("desim.periodic_ns_per_send", "ns"),
    layer("exec.busy_s", "s"),
    layer("exec.idle_s", "s"),
    layer("exec.steals", "count"),
    layer("exec.tail_s", "s"),
    layer("markov.chain_s", "s"),
    layer("desim.events", "count"),
    layer("desim.pending_high_water", "count"),
    layer("desim.pending_high_water.n3k", "count"),
    layer("desim.ns_per_op.heap", "ns"),
    layer("desim.ns_per_op.calendar", "ns"),
    layer("desim.ns_per_op.heap.n3k", "ns"),
    layer("netsim.build_s", "s"),
    layer("netsim.round_s.p50", "s"),
    layer("netsim.round_s.max", "s"),
    layer("netsim.ns_per_event", "ns"),
    layer("netsim.ns_per_event.n3k", "ns"),
    layer("netsim.updates_processed", "count"),
    layer("netsim.updates_sent", "count"),
    layer("netsim.delta_updates", "count"),
    layer("netsim.router.busy_ns", "sim_ns"),
    layer("dv.ns_per_entry", "ns"),
    layer("dv.ns_per_entry.n3k", "ns"),
    layer("dv.ns_per_adv_entry", "ns"),
    layer("netsim.rss_after_build_mb", "MB"),
    layer("netsim.packets_moved", "count"),
    layer("netsim.packets_dropped", "count"),
    layer("netsim.slab_high_water", "count"),
    layer("netsim.ns_per_packet", "ns"),
    layer("stats.acf_s", "s"),
    layer("wire.encode_ns", "ns"),
    layer("wire.decode_ns", "ns"),
    layer("checkpoint.append_ns", "ns"),
    layer("live.tx_datagrams", "count"),
    layer("live.rx", "count"),
    layer("live.retry_attempts", "count"),
    layer("live.retry_exhausted", "count"),
    layer("live.shed", "count"),
    layer("live.neighbor_timeouts", "count"),
    layer("live.checkpoint_writes", "count"),
    layer("live.twin_divergence_max", "ratio"),
    layer("live.offered_dgrams_per_s", "1/s"),
    layer("live.overrun_s", "s"),
    layer("obs.overhead_pct", "%"),
    layer("ledger.unaccounted_pct", "%"),
];

/// Look up a metric definition by name in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Whether `unit` is a rate of one unit per second: `<unit>/s` where
/// `<unit>` is a single token (no product, quotient or sum of units).
pub fn is_single_unit_rate(unit: &str) -> bool {
    let Some(num) = unit.strip_suffix("/s") else {
        return false;
    };
    !num.is_empty() && num.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Measured values of one run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be a defined metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("undefined metric {name}"));
        assert!(
            !name.ends_with("_per_s") || is_single_unit_rate(d.unit),
            "{name} must be a rate of a single unit, not {}",
            d.unit
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics a run prints: every metric of `table`, in table order,
    /// with layers this workload does not exercise at 0.
    pub fn select(&self, table: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        table
            .iter()
            .map(|d| (d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Every program counter the traced run read, with its unit.
    pub counters: Vec<(String, u64, String)>,
}

/// Run parameters handed to every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Deterministic sub-seed `index` of `seed` (SplitMix64 finalizer over the
/// pair), so workloads derive all their inputs from `--seed`.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Top up a run's set-up samples: at least five, and more while they
/// total under a quarter second, so a cheap set-up still gets a stable
/// median. `setup` performs one set-up and returns its seconds.
pub fn top_up_setups(samples: &mut Vec<f64>, mut setup: impl FnMut() -> f64) {
    const MIN: usize = 5;
    const MAX: usize = 2001;
    const BUDGET_S: f64 = 0.25;
    while samples.len() < MIN || (samples.iter().sum::<f64>() < BUDGET_S && samples.len() < MAX) {
        samples.push(setup());
    }
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse::<f64>().ok()
    })
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set size of this process (VmRSS), MiB.
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS").map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the calling thread has used, in nanoseconds, from
/// `/proc/thread-self/schedstat` (nanosecond resolution, unlike the
/// 100 Hz tick counts of `/proc/self/stat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time used by every thread this process has run, live or exited,
/// in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Unit of a program counter in the readout. Counters are never summed
/// across names; each keeps its own unit.
pub fn counter_unit(name: &str) -> &'static str {
    match name {
        // Router CPU is modelled time inside the simulation, not host time.
        "netsim.router.busy_ns" | "live.sim_now_ns" | "live.twin.onset_delta_ns" => "sim_ns",
        n if n.ends_with(".onset_ns") => "sim_ns",
        n if n.ends_with("_ns") => "ns",
        // Order parameters published as fixed point (obs GAUGE_FIXED_POINT).
        n if n.ends_with(".r")
            || n.ends_with(".entropy")
            || n.starts_with("live.twin.divergence") =>
        {
            "ratio_1e-9"
        }
        _ => "count",
    }
}

/// Every counter and gauge of a snapshot, each under its own name and
/// unit.
pub fn counter_readout(snap: &routesync_obs::Snapshot) -> Vec<(String, u64, String)> {
    snap.counters
        .iter()
        .chain(snap.gauges.iter())
        .map(|(k, &v)| (k.clone(), v, counter_unit(k).to_string()))
        .collect()
}
