//! Passes in child processes.
//!
//! Every timed pass runs in a fresh child process (this binary re-run
//! with `--pass <mode>`), so each pass starts from the same cold state: a
//! pass that came after another in one process would reuse the memory the
//! allocator kept from it and skip the page faults a first run pays, and
//! on the 30 000-router workload that alone made later passes a third
//! faster. The parent runs passes until its time is up and reports
//! medians; it waits for every child it starts.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::common::{def, median, secs_since, Outcome, RunCfg, END_TO_END, PER_LAYER};

/// What a child pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced, with the cheap output checks.
    Untraced,
    /// Untraced, plus the expensive output checks (the first pass of a run).
    Checked,
    /// The program's counters live, calls timed per layer, layers replayed.
    Traced,
    /// A traced-run-only probe of the same workload family at another size.
    Probe,
}

impl Mode {
    pub const ALL: [(Mode, &'static str); 4] = [
        (Mode::Untraced, "untraced"),
        (Mode::Checked, "checked"),
        (Mode::Traced, "traced"),
        (Mode::Probe, "probe"),
    ];

    pub fn name(self) -> &'static str {
        Mode::ALL
            .iter()
            .find(|(m, _)| *m == self)
            .map(|(_, n)| *n)
            .expect("every mode is named")
    }

    pub fn parse(s: &str) -> Option<Mode> {
        Mode::ALL.iter().find(|(_, n)| *n == s).map(|(m, _)| *m)
    }

    /// Whether this pass installs the collector and breaks its work down
    /// by layer.
    pub fn traced(self) -> bool {
        self == Mode::Traced
    }

    /// Whether this pass runs the expensive output checks.
    pub fn checks(self) -> bool {
        matches!(self, Mode::Checked | Mode::Traced)
    }
}

/// The measurements of one pass.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Metric values by metric name, plus `timed_s`: the timed region's
    /// wall seconds (daemon CPU seconds on the open loop), the base of
    /// `obs.overhead_pct`.
    pub values: BTreeMap<String, f64>,
    /// Deterministic outputs: equal for every pass of one seed, traced or
    /// not.
    pub counts: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Program counters read by a traced pass: name, value, unit.
    pub counters: Vec<(String, u64, String)>,
}

impl Pass {
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(
            name == "timed_s" || def(name).is_some(),
            "undefined metric {name}"
        );
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    pub fn to_json(&self) -> Value {
        let obj = |v: Vec<(String, Value)>| Value::Object(v);
        obj(vec![
            (
                "values".into(),
                obj(self
                    .values
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::F64(*v)))
                    .collect()),
            ),
            (
                "counts".into(),
                Value::Array(self.counts.iter().map(|&c| Value::U64(c)).collect()),
            ),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            (
                "errors".into(),
                Value::Array(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "counters".into(),
                Value::Array(
                    self.counters
                        .iter()
                        .map(|(k, v, u)| {
                            Value::Array(vec![
                                Value::Str(k.clone()),
                                Value::U64(*v),
                                Value::Str(u.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Pass, String> {
        let num = |v: &Value| match v {
            Value::F64(x) => Some(*x),
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            _ => None,
        };
        let uint = |v: &Value| match v {
            Value::U64(x) => Some(*x),
            _ => None,
        };
        let text = |v: &Value| match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        };
        let field = |k: &str| v.get(k).ok_or(format!("pass result lacks {k}"));
        let bad = |k: &str| format!("pass result has a malformed {k}");
        let values = field("values")?
            .as_object()
            .ok_or(bad("values"))?
            .iter()
            .map(|(k, x)| Some((k.clone(), num(x)?)))
            .collect::<Option<_>>()
            .ok_or(bad("values"))?;
        let counts = field("counts")?
            .as_array()
            .ok_or(bad("counts"))?
            .iter()
            .map(uint)
            .collect::<Option<_>>()
            .ok_or(bad("counts"))?;
        let errors = field("errors")?
            .as_array()
            .ok_or(bad("errors"))?
            .iter()
            .map(text)
            .collect::<Option<_>>()
            .ok_or(bad("errors"))?;
        let counters = field("counters")?
            .as_array()
            .ok_or(bad("counters"))?
            .iter()
            .map(|c| match c.as_array()? {
                [k, v, u] => Some((text(k)?, uint(v)?, text(u)?)),
                _ => None,
            })
            .collect::<Option<_>>()
            .ok_or(bad("counters"))?;
        Ok(Pass {
            values,
            counts,
            attempted: uint(field("attempted")?).ok_or(bad("attempted"))?,
            failed: uint(field("failed")?).ok_or(bad("failed"))?,
            errors,
            counters,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Run one pass of `workload` in a child process and wait for it.
pub fn spawn(workload: &str, seed: u64, mode: Mode) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--pass", mode.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} pass: {e}", mode.name()))?;
    if !out.status.success() {
        return Err(format!("{} pass exited with {}", mode.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{} pass printed nothing", mode.name()))?;
    let value = serde_json::from_str::<Value>(line).map_err(|e| format!("pass result: {e}"))?;
    Pass::from_json(&value)
}

/// Fold a pass's failures and errors into the run's outcome.
fn absorb(out: &mut Outcome, p: &Pass) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.errors.extend(p.errors.iter().cloned());
}

fn check_counts(out: &mut Outcome, what: &str, a: &Pass, b: &Pass) {
    if a.counts != b.counts {
        out.errors.push(format!(
            "{what}: deterministic outputs differ: {:?} vs {:?}",
            a.counts, b.counts
        ));
    }
}

/// An untraced run: a warm-up pass that runs the full output checks,
/// then passes until `cfg.seconds` have passed since the start, and the
/// median of every end-to-end metric over the passes after the warm-up.
/// The warm-up is not timed because the first seconds of a run on an idle
/// host read slower (by up to a quarter on a 2-core VM) on every workload.
pub fn untraced(workload: &str, cfg: RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let mode = if passes.is_empty() {
            Mode::Checked
        } else {
            Mode::Untraced
        };
        match spawn(workload, cfg.seed, mode) {
            Ok(p) => {
                absorb(&mut out, &p);
                if let Some(first) = passes.first() {
                    check_counts(&mut out, "passes repeat exactly", first, &p);
                }
                passes.push(p);
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(e);
                break;
            }
        }
        if passes.len() >= 2 && secs_since(started) >= cfg.seconds {
            break;
        }
    }
    for d in END_TO_END {
        let samples: Vec<f64> = passes
            .iter()
            .skip(1)
            .filter_map(|p| p.value(d.name))
            .collect();
        if !samples.is_empty() {
            out.metrics.put(d.name, median(&samples));
        }
    }
    out
}

/// A traced run, every pass in its own cold process: an untimed warm-up,
/// then untraced and traced passes alternating twice (so host drift hits
/// both sides alike) and, where the workload has one, the probe. Each
/// per-layer metric is the median over the traced passes.
pub fn traced(workload: &str, cfg: RunCfg, probe: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut modes = vec![
        Mode::Untraced,
        Mode::Untraced,
        Mode::Traced,
        Mode::Untraced,
        Mode::Traced,
    ];
    if probe {
        modes.push(Mode::Probe);
    }
    let mut passes = Vec::new();
    for mode in modes {
        match spawn(workload, cfg.seed, mode) {
            Ok(p) => {
                absorb(&mut out, &p);
                passes.push((mode, p));
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(e);
                return out;
            }
        }
    }
    let of = |m: Mode| -> Vec<&Pass> {
        passes
            .iter()
            .skip(1)
            .filter(|(mode, _)| *mode == m)
            .map(|(_, p)| p)
            .collect()
    };
    let (base, tr, probes) = (of(Mode::Untraced), of(Mode::Traced), of(Mode::Probe));
    let first = &passes[0].1;
    for p in base.iter().chain(&tr) {
        check_counts(&mut out, "traced and untraced passes agree", first, p);
    }
    for d in PER_LAYER {
        let samples: Vec<f64> = tr
            .iter()
            .chain(&probes)
            .filter_map(|p| p.value(d.name))
            .collect();
        if !samples.is_empty() {
            out.metrics.put(d.name, median(&samples));
        }
    }
    let timed = |ps: &[&Pass]| {
        median(
            &ps.iter()
                .filter_map(|p| p.value("timed_s"))
                .collect::<Vec<_>>(),
        )
    };
    out.metrics.put(
        "obs.overhead_pct",
        (timed(&tr) / timed(&base) - 1.0) * 100.0,
    );
    out.counters = tr[0].counters.clone();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_round_trips_through_json() {
        let mut p = Pass {
            counts: vec![1, 2, 3],
            attempted: 7,
            failed: 1,
            errors: vec!["bad \"thing\"".into()],
            counters: vec![("netsim.router.busy_ns".into(), 5, "sim_ns".into())],
            ..Pass::default()
        };
        p.put("sends_per_s", 1234.5);
        p.put("timed_s", 2.0);
        let text = serde_json::to_string(&p.to_json()).unwrap();
        let back = Pass::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.values, p.values);
        assert_eq!(back.counts, p.counts);
        assert_eq!(back.errors, p.errors);
        assert_eq!(back.counters, p.counters);
        assert_eq!((back.attempted, back.failed), (7, 1));
    }

    #[test]
    fn count_check_fails_when_passes_differ() {
        let a = Pass {
            counts: vec![10, 20],
            ..Pass::default()
        };
        let mut out = Outcome::default();
        check_counts(&mut out, "same", &a, &a.clone());
        assert!(out.errors.is_empty());
        let b = Pass {
            counts: vec![10, 21],
            ..Pass::default()
        };
        check_counts(&mut out, "differ", &a, &b);
        assert_eq!(out.errors.len(), 1);
    }

    #[test]
    fn modes_round_trip_by_name() {
        for (m, n) in Mode::ALL {
            assert_eq!(Mode::parse(n), Some(m));
        }
        assert_eq!(Mode::parse("bogus"), None);
    }
}
