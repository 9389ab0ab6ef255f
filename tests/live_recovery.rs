//! Crash-recovery test for the live daemon, driven through the real
//! binary: SIGKILL a running `routesync serve` mid-run, resume it from
//! its checkpoint, and require the recovered run to land on the same
//! final state as an uninterrupted run of the identical scenario —
//! route tables exact, sync-detector trajectory within a small timing
//! tolerance (the wall clock injects scheduling noise the simulated
//! clock does not).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use routesync_exec::checkpoint;
use routesync_live::{snapshot_fields, SNAPSHOT_KEY};
use routesync_netsim::RoutingTable;

const NS_PER_SEC: u64 = 1_000_000_000;
/// LAN specs advertise on the DECnet-style 120-second period.
const PERIOD_NS: u64 = 120 * NS_PER_SEC;
const SEED: u64 = 77;
const ROUTERS: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "routesync-live-recovery-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("create temp dir");
    d
}

/// A `serve` invocation of the scenario under test: 3-router LAN,
/// 600× time compression (~1.2 s of wall clock to the 700 s horizon),
/// checkpointing every 60 simulated seconds (~100 ms of wall clock).
fn serve(ckpt: &Path, seed: u64, horizon_secs: u64) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_routesync"));
    c.args([
        "serve",
        "--spec",
        "lan",
        "--n",
        "3",
        "--jitter-ms",
        "50",
        "--scale",
        "600",
        "--twin",
        "off",
        "--checkpoint-every-secs",
        "60",
    ]);
    c.arg("--seed").arg(seed.to_string());
    c.arg("--for-sim-secs").arg(horizon_secs.to_string());
    c.arg("--resume").arg(ckpt);
    c
}

/// The latest complete snapshot's `key value` fields. Later snapshots
/// supersede earlier ones, so the loaded map already holds the last.
fn fields(loaded: &checkpoint::Loaded) -> std::collections::BTreeMap<&str, &str> {
    let snapshot = loaded
        .records
        .get(SNAPSHOT_KEY)
        .expect("checkpoint holds a snapshot");
    snapshot_fields(snapshot).expect("snapshot splits into fields")
}

/// Final route triples per router from a checkpoint: (dst, metric,
/// next_hop), sorted.
fn route_triples(loaded: &checkpoint::Loaded) -> Vec<Vec<(usize, u32, usize)>> {
    let fields = fields(loaded);
    (0..ROUTERS)
        .map(|id| {
            let text = fields
                .get(format!("router.{id}.table").as_str())
                .unwrap_or_else(|| panic!("checkpoint has a table for router {id}"));
            let table = RoutingTable::parse_compact(text).expect("checkpointed table parses");
            let mut triples: Vec<(usize, u32, usize)> = table
                .iter()
                .map(|(dst, route)| (dst, route.metric, route.next_hop))
                .collect();
            triples.sort_unstable();
            triples
        })
        .collect()
}

/// Parse the `detector` record: `windows=N;onset_ns=N|none`.
fn detector_state(loaded: &checkpoint::Loaded) -> (u64, Option<u64>) {
    let rec = *fields(loaded).get("detector").expect("detector field");
    let mut windows = 0;
    let mut onset = None;
    for field in rec.split(';') {
        let (k, v) = field.split_once('=').expect("detector field is k=v");
        match k {
            "windows" => windows = v.parse().expect("windows parses"),
            "onset_ns" if v != "none" => onset = Some(v.parse::<u64>().expect("onset parses")),
            _ => {}
        }
    }
    (windows, onset)
}

fn checkpointed_sim_ns(path: &Path) -> u64 {
    checkpoint::load(path)
        .ok()
        .and_then(|l| {
            let snapshot = l.records.get(SNAPSHOT_KEY)?;
            let fields = snapshot_fields(snapshot).ok()?;
            fields.get("sim_ns")?.parse().ok()
        })
        .unwrap_or(0)
}

/// SIGKILL the daemon mid-run, resume from its checkpoint, and compare
/// the recovered final state against an uninterrupted run of the same
/// scenario to the same horizon.
#[test]
fn killed_daemon_resumes_and_matches_uninterrupted_run() {
    let dir = temp_dir("kill");
    let ref_ckpt = dir.join("reference.ckpt");
    let kill_ckpt = dir.join("killed.ckpt");
    let horizon = 700;

    // Uninterrupted reference run.
    let out = serve(&ref_ckpt, SEED, horizon)
        .output()
        .expect("reference run spawns");
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Start the same scenario, let it checkpoint past t=150 s, then
    // SIGKILL it — no drain, no final checkpoint, a genuine crash.
    let mut child = serve(&kill_ckpt, SEED, horizon)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim run spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    while checkpointed_sim_ns(&kill_ckpt) < 150 * NS_PER_SEC {
        assert!(
            Instant::now() < deadline,
            "daemon never checkpointed past t=150s"
        );
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("daemon exited before it could be killed: {status}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    let killed_at = checkpointed_sim_ns(&kill_ckpt);
    assert!(
        killed_at < horizon * NS_PER_SEC,
        "victim was killed after it already finished (t={killed_at} ns)"
    );

    // Resume the killed run to completion.
    let out = serve(&kill_ckpt, SEED, horizon)
        .output()
        .expect("resume run spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume run failed: {stderr}");
    assert!(
        stderr.contains("resumed from checkpoint"),
        "resume did not report the checkpoint: {stderr}"
    );

    let reference = checkpoint::load(&ref_ckpt).expect("reference checkpoint loads");
    let recovered = checkpoint::load(&kill_ckpt).expect("recovered checkpoint loads");

    // Both runs wrote their final checkpoint at exactly t=horizon.
    assert_eq!(checkpointed_sim_ns(&ref_ckpt), horizon * NS_PER_SEC);
    assert_eq!(checkpointed_sim_ns(&kill_ckpt), horizon * NS_PER_SEC);

    // Route tables: exact. The converged LAN tables are a function of
    // the topology, not of when the daemon was interrupted.
    assert_eq!(
        route_triples(&recovered),
        route_triples(&reference),
        "recovered run converged to different routes"
    );

    // Detector trajectory: within tolerance. Fire times are scheduled
    // on the simulated clock, but the wall-clock loop quantizes when
    // windows close, so allow a couple of windows / periods of slack.
    let (ref_windows, ref_onset) = detector_state(&reference);
    let (rec_windows, rec_onset) = detector_state(&recovered);
    assert!(
        ref_windows.abs_diff(rec_windows) <= 2,
        "window counts diverged: reference {ref_windows}, recovered {rec_windows}"
    );
    let ref_onset = ref_onset.expect("synchronized LAN start latches onset (reference)");
    let rec_onset = rec_onset.expect("synchronized LAN start latches onset (recovered)");
    assert!(
        ref_onset.abs_diff(rec_onset) <= 2 * PERIOD_NS,
        "onsets diverged: reference {ref_onset} ns, recovered {rec_onset} ns"
    );
}

/// `--resume` against a checkpoint written under different scenario
/// parameters must refuse with the usage exit code (2), not silently
/// graft mismatched state onto a new topology.
#[test]
fn resume_with_mismatched_scenario_exits_2() {
    let dir = temp_dir("mismatch");
    let ckpt = dir.join("run.ckpt");

    let out = serve(&ckpt, SEED, 200).output().expect("seed run spawns");
    assert!(
        out.status.success(),
        "seed run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Same checkpoint, different seed → different fingerprint.
    let out = serve(&ckpt, SEED + 1, 200)
        .output()
        .expect("mismatched run spawns");
    assert_eq!(
        out.status.code(),
        Some(2),
        "mismatched resume must exit 2, got {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume"),
        "refusal should point at --resume"
    );
}

/// Every checkpointed routing table survives a parse → re-write round
/// trip byte-identically, so a resumed daemon starts from exactly the
/// bytes the crashed one persisted.
#[test]
fn checkpointed_tables_round_trip_byte_identically() {
    let dir = temp_dir("roundtrip");
    let ckpt = dir.join("run.ckpt");

    let out = serve(&ckpt, SEED, 200).output().expect("run spawns");
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let loaded = checkpoint::load(&ckpt).expect("checkpoint loads");
    assert!(
        !loaded.torn_tail,
        "completed run must not leave a torn tail"
    );
    let mut tables = 0;
    for (key, value) in &fields(&loaded) {
        if !key.ends_with(".table") {
            continue;
        }
        let table = RoutingTable::parse_compact(value).expect("table parses");
        let mut rewritten = String::new();
        table.write_compact(&mut rewritten);
        assert_eq!(&rewritten, value, "{key} is not byte-identical");
        tables += 1;
    }
    assert_eq!(tables, ROUTERS, "one table per router");
}
