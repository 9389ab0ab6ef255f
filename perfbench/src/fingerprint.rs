//! Host and build fingerprint recorded with every result, and the rule
//! for when two results may be compared.
//!
//! Build settings move speed without any code change: the batched
//! ensemble kernel reads about 1.2× the scalar engine at stock flags and
//! 2.1× with `-C target-cpu=native`. So a comparison is refused unless
//! both results came from the same host shape and the same build.

use serde_json::Value;

/// Fingerprint fields that must match for two results to be comparable.
/// The commit is recorded but deliberately excluded: comparing two
/// commits is the point of a comparison.
pub const MUST_MATCH: &[&str] = &[
    "nproc",
    "rustc",
    "rustflags",
    "target_cpu",
    "target_features",
    "profile",
    "opt_level",
    "target",
];

/// The fingerprint of this binary on this host.
pub fn current() -> Value {
    let rustflags = env!("PERFBENCH_RUSTFLAGS");
    let target_cpu = rustflags
        .split_whitespace()
        .map(|f| f.strip_prefix("-C").unwrap_or(f))
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default");
    let fields: [(&str, Value); 9] = [
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("rustc", str_value(env!("PERFBENCH_RUSTC"))),
        ("rustflags", str_value(rustflags)),
        ("target_cpu", str_value(target_cpu)),
        ("target_features", str_value(&target_features())),
        ("profile", str_value(env!("PERFBENCH_PROFILE"))),
        ("opt_level", str_value(env!("PERFBENCH_OPT_LEVEL"))),
        ("target", str_value(env!("PERFBENCH_TARGET"))),
        ("commit", str_value(env!("PERFBENCH_COMMIT"))),
    ];
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// SIMD features the compiler was allowed to use (what `target-cpu`
/// actually changed).
fn target_features() -> String {
    let mut on = Vec::new();
    if cfg!(target_feature = "sse4.2") {
        on.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        on.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        on.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        on.push("fma");
    }
    if cfg!(target_feature = "avx512f") {
        on.push("avx512f");
    }
    if cfg!(target_feature = "neon") {
        on.push("neon");
    }
    if on.is_empty() {
        "baseline".into()
    } else {
        on.join(",")
    }
}

/// The fields on which two fingerprints differ, as
/// `field: <a> vs <b>` lines; empty when the results are comparable.
pub fn mismatches(a: &Value, b: &Value) -> Vec<String> {
    MUST_MATCH
        .iter()
        .filter(|k| a.get(k) != b.get(k))
        .map(|k| {
            let show = |v: &Value| {
                serde_json::to_string(v.get(k).unwrap_or(&Value::Null))
                    .expect("JSON values serialize")
            };
            format!("{k}: {} vs {}", show(a), show(b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_field(v: &Value, key: &str, new: Value) -> Value {
        let fields = v.as_object().expect("fingerprint is an object");
        Value::Object(
            fields
                .iter()
                .map(|(k, old)| (k.clone(), if k == key { new.clone() } else { old.clone() }))
                .collect(),
        )
    }

    #[test]
    fn identical_fingerprints_are_comparable_across_commits() {
        let a = current();
        let b = with_field(&a, "commit", str_value("another"));
        assert!(mismatches(&a, &b).is_empty());
    }

    #[test]
    fn differing_rustflags_or_cores_are_refused() {
        let a = current();
        let b = with_field(&a, "rustflags", str_value("-C target-cpu=native"));
        let b = with_field(&b, "nproc", Value::U64(64));
        let m = mismatches(&a, &b);
        assert_eq!(m.len(), 2, "{m:?}");
        assert!(m[0].starts_with("nproc") && m[1].starts_with("rustflags"));
    }
}
