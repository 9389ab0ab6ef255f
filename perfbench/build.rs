//! Captures the build half of the host/build fingerprint every result
//! carries: compiler version, rustflags, profile, target and the source
//! commit when the tree is a git checkout.

use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    // CARGO_ENCODED_RUSTFLAGS separates flags with 0x1f.
    let rustflags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    let commit =
        run("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={rustflags}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={}", var("PROFILE"));
    println!("cargo:rustc-env=PERFBENCH_OPT_LEVEL={}", var("OPT_LEVEL"));
    println!("cargo:rustc-env=PERFBENCH_TARGET={}", var("TARGET"));
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
