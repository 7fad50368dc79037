//! End-to-end and per-layer benchmark of the FEO explanation engine.
//!
//! ```text
//! feobench --workload <cq_distinct|http_table1|commit_asof> --seed <n> --seconds <s> --trace <0|1>
//! feobench --workload all [--seed <n>] [--seconds <s>]
//! ```
//!
//! One run builds its inputs from the seed, sets the engine up several
//! times (reporting the median as `setup_s`), drives the workload for
//! the given seconds, checks every answer, and prints each metric with
//! its unit, a host line, and, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run re-drives
//! its inputs through each layer's public functions and reports the
//! per-layer ones. `--workload all` runs every workload both ways, each
//! in its own process, and adds the tracing overhead.
//!
//! Run from the repository root:
//! `cargo run --release --offline --manifest-path feobench/Cargo.toml -- --workload all`.

mod commit_asof;
mod common;
mod cq_distinct;
mod http_table1;
mod replay;
mod trace;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use feo_core::ecosystem::assemble;
use feo_core::knowledge::records_to_rdf;
use feo_core::ExplanationType;
use feo_foodkg::{FoodKg, SystemContext, UserProfile};
use feo_owl::{MaterializeOptions, Reasoner};

use common::{median, peak_rss_mb, Outcome};
use replay::explain_metric;
use trace::Trace;

pub const WORKLOADS: [&str; 3] = ["cq_distinct", "http_table1", "commit_asof"];

/// Metrics of a `--trace 0` run, as named in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a `--trace 1` run, as named in `BENCHMARK.json`. A layer
/// a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.self_ms", "ms"),
    ("serve.json_parse_us", "us"),
    ("serve.admitted", "count"),
    ("serve.queued", "count"),
    ("serve.ewma_service_us", "us"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.self_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("core.explain_ms.contextual", "ms"),
    ("core.explain_ms.contrastive", "ms"),
    ("core.explain_ms.counterfactual", "ms"),
    ("core.explain_ms.case_based", "ms"),
    ("core.explain_ms.everyday", "ms"),
    ("core.explain_ms.scientific", "ms"),
    ("core.explain_ms.simulation_based", "ms"),
    ("core.explain_ms.statistical", "ms"),
    ("core.explain_ms.trace_based", "ms"),
    ("sparql.parse_us", "us"),
    ("sparql.plan_us", "us"),
    ("sparql.eval_ms", "ms"),
    ("sparql.rows", "count"),
    ("sparql.joins.nested", "count"),
    ("sparql.joins.hash", "count"),
    ("sparql.joins.merge", "count"),
    ("sparql.joins.leapfrog", "count"),
    ("owl.delta_ms", "ms"),
    ("owl.inferred", "count"),
    ("owl.rounds", "count"),
    ("owl.full_materialize_ms", "ms"),
    ("rdf.view_depth", "count"),
    ("rdf.depth_penalty", "ratio"),
    ("rdf.eval_head_ms", "ms"),
    ("rdf.eval_epoch0_ms", "ms"),
    ("disk.wal_commit_ms", "ms"),
    ("disk.open_ms", "ms"),
    ("trace.read_p50_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// Printed by a `--trace 0` run but not part of its result: they exist
/// on one workload only, or are 0 by design.
const UNGATED: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("reopen_ms", "ms"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: feobench --workload <cq_distinct|http_table1|commit_asof|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(secs > 0.0 && secs <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                args.seconds = Duration::from_secs_f64(secs);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Median time of `Reasoner::compile` plus `materialize` over the
/// assembled, un-materialized graph of a world, in ms.
pub fn full_materialize_probe(kg: &FoodKg, user: &UserProfile, ctx: &SystemContext) -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let mut graph = assemble(kg, user, ctx);
            records_to_rdf(&mut graph);
            let started = Instant::now();
            let reasoner = Reasoner::new();
            let rules = reasoner.compile(&mut graph);
            let closed = reasoner.materialize(&mut graph, &MaterializeOptions::with_rules(&rules));
            let elapsed = common::ms(started.elapsed());
            drop(closed);
            elapsed
        })
        .collect();
    median(&mut times)
}

/// Per-layer metrics derived from the spans of a traced run.
pub fn layer_metrics(trace: &Trace, out: &mut Outcome) {
    let m = &mut out.metrics;
    m.insert(
        "serve.self_ms",
        trace.mean_self_ms(&["serve.request"], &["core"]),
    );
    m.insert(
        "serve.json_parse_us",
        trace.mean_ms("serve.json_parse") * 1e3,
    );
    m.insert(
        "core.self_ms",
        trace.mean_self_ms(
            &["core.explain", "core.explain_as_of", "core.explain_batch"],
            &["owl", "sparql"],
        ),
    );
    m.insert(
        "core.replay_ms",
        trace.mean_self_ms(&["core.open"], &["disk"]),
    );
    for t in ExplanationType::ALL {
        m.insert(explain_metric(t), trace.mean_value(explain_metric(t)));
    }
    m.insert("sparql.parse_us", trace.mean_ms("sparql.parse") * 1e3);
    m.insert("sparql.plan_us", trace.mean_ms("sparql.plan") * 1e3);
    m.insert("sparql.eval_ms", trace.mean_ms("sparql.eval"));
    for name in [
        "sparql.rows",
        "sparql.joins.nested",
        "sparql.joins.hash",
        "sparql.joins.merge",
        "sparql.joins.leapfrog",
        "owl.inferred",
        "owl.rounds",
        "rdf.view_depth",
        "rdf.eval_head_ms",
    ] {
        m.insert(name, trace.mean_value(name));
    }
    m.insert("owl.delta_ms", trace.mean_ms("owl.delta"));
    let epoch0 = trace.mean_ms("rdf.eval_epoch0");
    m.insert("rdf.eval_epoch0_ms", epoch0);
    if epoch0 > 0.0 {
        m.insert(
            "rdf.depth_penalty",
            trace.mean_value("rdf.eval_head_ms") / epoch0,
        );
    }
    let memory = trace.mean_ms("core.commit_memory");
    if memory > 0.0 {
        m.insert("disk.wal_commit_ms", trace.mean_ms("core.commit") - memory);
    }
    m.insert("disk.open_ms", trace.mean_ms("disk.open"));
    m.insert("trace.unattributed_share", trace.unattributed_share());
    m.insert("trace.spans", trace.len() as f64);
}

/// The commit this checkout was built from, read from `.git` in the
/// working directory.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(std::path::Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} git={} rustc=\"{}\" profile=\"{}\"",
        git_rev(),
        env!("FEOBENCH_RUSTC"),
        env!("FEOBENCH_PROFILE")
    )
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(UNGATED)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Prints every metric with its unit, the host line, and the result
/// object as the last line. Returns whether the run is correct: it
/// attempted something and nothing failed.
fn emit(args: &Args, mut out: Outcome) -> bool {
    if !args.trace {
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
        out.metrics.insert(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<34} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, value) in &out.metrics {
        if !declared.iter().any(|(n, _)| n == name) {
            println!(
                "  {name:<34} {value:>16.6} {} (not in the result)",
                unit_of(name)
            );
        }
    }
    println!("{}", host_line());
    let correct = out.attempted > 0 && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    correct
}

/// Runs every workload untraced and traced, each in its own process,
/// and prints the tracing overhead on `read_p50_ms`.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    let mut overhead = Vec::new();
    for workload in WORKLOADS {
        let mut p50 = [0.0f64; 2];
        for trace in [0u8, 1] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.as_secs_f64().to_string()])
                .args(["--trace", &trace.to_string()])
                .output()
                .expect("run a workload");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .and_then(|line| feo_serve::Json::parse(line).ok());
            let metric = if trace == 0 {
                "read_p50_ms"
            } else {
                "trace.read_p50_ms"
            };
            match result {
                Some(json) if output.status.success() => {
                    p50[trace as usize] = json
                        .get("metrics")
                        .and_then(|m| m.get(metric))
                        .and_then(|m| m.get("value"))
                        .and_then(feo_serve::Json::as_f64)
                        .unwrap_or(0.0);
                }
                _ => {
                    ok = false;
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                }
            }
        }
        overhead.push((workload, p50));
    }
    println!("tracing overhead on read_p50_ms (traced / untraced - 1):");
    for (workload, [plain, traced]) in overhead {
        let share = if plain > 0.0 {
            traced / plain - 1.0
        } else {
            0.0
        };
        println!(
            "  {workload:<12} untraced {plain:.4} ms, traced {traced:.4} ms, overhead {:+.1}%",
            share * 100.0
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let out = match args.workload.as_str() {
        "cq_distinct" => cq_distinct::run(&args),
        "http_table1" => http_table1::run(&args),
        _ => commit_asof::run(&args),
    };
    if emit(&args, out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
