//! Records the compiler version and build profile for the host line
//! every run prints.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=FEOBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=FEOBENCH_PROFILE={} (opt-level {})",
        env("PROFILE"),
        env("OPT_LEVEL")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
