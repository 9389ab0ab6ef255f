//! The routesync benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! A run measures one workload for about `--seconds`, checks its outputs
//! and prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`). It also writes that
//! result with the host/build fingerprint and, when traced, every program
//! counter it read, to `.perfbench/results/`. `compare` refuses to diff
//! two such files whose fingerprints differ. See `perfbench/README.md`.

mod common;
mod fig14;
mod fingerprint;
mod live;
mod netsim;
mod pass;
mod replay;

use std::process::ExitCode;

use serde_json::Value;

use common::{def, Better, MetricDef, Outcome, RunCfg, END_TO_END, PER_LAYER};
use pass::Mode;

/// The workloads, with their default and held-out seeds. The default seed
/// is used when `--seed` is absent; the held-out seed is for confirming a
/// claim on inputs that were not used while writing the change.
pub const WORKLOADS: &[(&str, u64, u64)] = &[
    ("fig14_ensemble", 1993, 31337),
    ("netsim_hier", 1993, 31337),
    ("nearnet_ping", 1993, 31337),
    ("live_nearnet", 1993, 31337),
];

/// Run one pass of a workload in this process (the child side of
/// [`pass::spawn`]).
fn run_pass(name: &str, seed: u64, mode: Mode) -> pass::Pass {
    match name {
        "fig14_ensemble" => fig14::pass(seed, mode),
        "netsim_hier" => netsim::pass(netsim::Kind::Hier, seed, mode),
        "nearnet_ping" => netsim::pass(netsim::Kind::Ping, seed, mode),
        "live_nearnet" => live::pass(seed, mode),
        other => unreachable!("unknown workload {other} passed argument parsing"),
    }
}

/// Only `netsim_hier` has a probe: its family at another size.
fn has_probe(name: &str) -> bool {
    name == "netsim_hier"
}

struct Args {
    workload: String,
    cfg: RunCfg,
    /// Set in a child process: run this one pass and print its result.
    pass: Option<Mode>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut pass = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--pass" => {
                let v = value()?;
                pass = Some(Mode::parse(v).ok_or(format!("unknown pass mode {v:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let &(_, default_seed, _) = WORKLOADS.iter().find(|w| w.0 == workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {workload:?}; one of {}", names.join(", "))
    })?;
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed: seed.unwrap_or(default_seed),
            seconds,
            trace,
        },
        pass,
    })
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The result line the benchmark contract defines.
fn result_json(out: &Outcome, table: &'static [MetricDef]) -> Value {
    let metrics = out
        .metrics
        .select(table)
        .into_iter()
        .map(|(d, v)| {
            (
                d.name.to_string(),
                obj(vec![
                    ("value", Value::F64(v)),
                    ("unit", Value::Str(d.unit.to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(out.errors.is_empty())),
        ("attempted", Value::U64(out.attempted.max(1))),
        ("failed", Value::U64(out.failed)),
        ("metrics", Value::Object(metrics)),
    ])
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON values serialize")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let Args {
        workload,
        cfg,
        pass,
    } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = pass {
        println!(
            "{}",
            to_json(&run_pass(&workload, cfg.seed, mode).to_json())
        );
        return ExitCode::SUCCESS;
    }
    let fp = fingerprint::current();
    eprintln!("perfbench: fingerprint {}", to_json(&fp));
    let out = if cfg.trace {
        pass::traced(&workload, cfg, has_probe(&workload))
    } else {
        pass::untraced(&workload, cfg)
    };
    for e in &out.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    for (name, value, unit) in &out.counters {
        eprintln!("perfbench: counter {name} = {value} {unit}");
    }
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let result = result_json(&out, table);
    let record = obj(vec![
        ("workload", Value::Str(workload.clone())),
        ("seed", Value::U64(cfg.seed)),
        ("seconds", Value::F64(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        ("fingerprint", fp),
        ("result", result.clone()),
        (
            "counters",
            Value::Object(
                out.counters
                    .iter()
                    .map(|(k, v, unit)| {
                        (
                            k.clone(),
                            obj(vec![
                                ("value", Value::U64(*v)),
                                ("unit", Value::Str(unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let dir = std::path::Path::new(".perfbench").join("results");
    let path = dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        cfg.seed,
        u8::from(cfg.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, to_json(&record) + "\n"))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", to_json(&result));
    ExitCode::SUCCESS
}

/// `compare A.json B.json`: per-metric change from A to B, refused when
/// the two results come from different hosts or builds.
fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: compare OLD.json NEW.json");
        return ExitCode::from(2);
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str::<Value>(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let null = Value::Null;
    let field = |v: &Value, k: &str| v.get(k).cloned().unwrap_or(Value::Null);
    let bad = fingerprint::mismatches(
        a.get("fingerprint").unwrap_or(&null),
        b.get("fingerprint").unwrap_or(&null),
    );
    if !bad.is_empty() {
        eprintln!("perfbench compare: REFUSED: the results come from different hosts or builds:");
        for line in bad {
            eprintln!("  {line}");
        }
        return ExitCode::from(3);
    }
    if field(&a, "workload") != field(&b, "workload") || field(&a, "trace") != field(&b, "trace") {
        eprintln!("perfbench compare: REFUSED: different workloads or trace modes");
        return ExitCode::from(3);
    }
    let metrics = |v: &Value| {
        v.get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    let value = |m: &Value| match m.get("value") {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        Some(Value::I64(x)) => *x as f64,
        _ => f64::NAN,
    };
    let new = metrics(&b);
    for (name, old) in metrics(&a) {
        let Some((_, now)) = new.iter().find(|(n, _)| *n == name) else {
            println!("{name:<32} missing from the second result");
            continue;
        };
        let (x, y) = (value(&old), value(now));
        let change = (y / x - 1.0) * 100.0;
        let verdict = match def(&name).and_then(|d| d.better) {
            Some(Better::Lower) if y > x => "worse",
            Some(Better::Higher) if y < x => "worse",
            Some(_) if y != x => "better",
            _ => "",
        };
        println!("{name:<32} {x:>14.6} -> {y:>14.6} {change:>+8.2}% {verdict}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}: {k} is {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let bench = benchmark_json();
        let own = |t: &[MetricDef]| -> Vec<(String, String)> {
            t.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(names_units(&bench, "end_to_end"), own(END_TO_END));
        assert_eq!(names_units(&bench, "per_layer"), own(PER_LAYER));
        for m in bench.get("end_to_end").and_then(Value::as_array).unwrap() {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => unreachable!(),
            };
            let better = match def(&name).and_then(|d| d.better) {
                Some(Better::Lower) => "lower",
                Some(Better::Higher) => "higher",
                None => panic!("{name} has no direction"),
            };
            assert_eq!(m.get("better"), Some(&Value::Str(better.into())), "{name}");
        }
        let workloads: Vec<String> = bench
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => unreachable!(),
            })
            .collect();
        let own: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn every_per_second_metric_is_a_rate_of_one_unit() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if d.name.ends_with("_per_s") {
                assert!(
                    common::is_single_unit_rate(d.unit),
                    "{} has unit {:?}, not <unit>/s",
                    d.name,
                    d.unit
                );
            }
        }
        assert!(!common::is_single_unit_rate("events+bytes/s"));
        assert!(!common::is_single_unit_rate("ns"));
        assert!(!common::is_single_unit_rate("B/ns/s"));
    }

    #[test]
    fn names_and_units_follow_the_format_rules() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn simulated_time_counters_are_not_labelled_host_time() {
        assert_eq!(common::counter_unit("netsim.router.busy_ns"), "sim_ns");
        assert_eq!(common::counter_unit("exec.worker.busy_ns"), "ns");
        assert_eq!(common::counter_unit("netsim.packets.moved"), "count");
    }

    #[test]
    fn arguments_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload netsim_hier --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.cfg.seed, 1993);
        assert!(a.cfg.trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload netsim_hier --trace 2").is_err());
        assert!(parse("--workload netsim_hier --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
