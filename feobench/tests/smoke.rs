//! Smoke-size self-test of the benchmark: runs every workload for one
//! second, untraced and traced, and checks that each run emits exactly
//! the metrics `BENCHMARK.json` names and that no operation failed.
//!
//! `cargo test --release --offline --manifest-path feobench/Cargo.toml`

use std::path::PathBuf;
use std::process::Command;

use feo_serve::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_feobench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_emits_every_named_metric_without_errors() {
    let spec = benchmark_json();
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads, ["cq_distinct", "http_table1", "commit_asof"]);
    for workload in &workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            let attempted = result.get("attempted").and_then(Json::as_u64);
            let failed = result.get("failed").and_then(Json::as_u64);
            assert!(attempted >= Some(1), "{workload}: nothing attempted");
            assert_eq!(
                failed,
                Some(0),
                "{workload} trace={trace}: error_rate is not 0"
            );
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let emitted: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(emitted, names(&spec, list), "{workload} trace={trace}");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} has no finite value"
                );
                assert!(metric.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }
}
