//! Paired measurement of deterministic-parallelism gain.
//!
//! Same methodology as `planner_gain` and `governor_overhead`:
//! wall-clock drift on a shared machine dwarfs the effects being
//! measured, so each comparison tightly interleaves the two arms (drift
//! lands on both alike) and reports the median of per-round ratios.
//!
//! Three workloads, each timed at 1/2/4/8 workers against
//! `Parallelism::Off`:
//!  1. full closure of the 200-recipe synthetic KG;
//!  2. full closure of the 1000-recipe synthetic KG;
//!  3. a 64-question `explain_batch` over a 200-recipe `EngineBase`.
//!
//! A fourth rung times one wide planned SPARQL join (recipes, their
//! ingredients, the ingredients' nutrients) over the 1000-recipe KG at
//! 2 workers against `Off`: the intra-query join fan-out that the
//! question-level workloads never reach.
//!
//! The 1-worker arm runs the identical sequential code path as `Off`
//! (the dispatcher never spawns below two workers), so its ratio is the
//! overhead of the parallel infrastructure itself — the acceptance
//! contract caps it at 5%. The 4-worker arms must clear ≥ 2× on the
//! 1000-recipe closure and the 64-question batch.
//!
//! Run with `cargo run --release -p feo-bench --bin parallel_gain`;
//! `--smoke` shrinks the rounds for CI. Results are also written
//! machine-readably to `BENCH_pr5.json` at the repository root.

use std::time::{Duration, Instant};

use feo_bench::synthetic_fixture;
use feo_core::ecosystem::assemble;
use feo_core::{EngineBase, ExplainOptions, Hypothesis, Population, Question};
use feo_owl::{MaterializeOptions, Reasoner};
use feo_rdf::{Graph, Parallelism};
use feo_sparql::{query, QueryOptions, QueryResult};

struct Params {
    warmup: usize,
    repeats: usize,
    pairs: usize,
}

/// Worker counts measured against the `Off` arm.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn median(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ratios[ratios.len() / 2]
}

/// Median over `repeats` rounds of the interleaved-pair total-time
/// ratio `run(parallel) / run(off)`.
fn paired_ratio(params: &Params, mut run: impl FnMut(bool) -> Duration) -> f64 {
    let mut ratios = Vec::with_capacity(params.repeats);
    for repeat in 0..params.repeats {
        let mut par = Duration::ZERO;
        let mut off = Duration::ZERO;
        for pair in 0..params.pairs {
            // Alternate which arm goes first so scheduler noise and
            // frequency scaling land evenly on both.
            if (pair + repeat) % 2 == 0 {
                par += run(true);
                off += run(false);
            } else {
                off += run(false);
                par += run(true);
            }
        }
        ratios.push(par.as_secs_f64() / off.as_secs_f64());
    }
    median(ratios)
}

/// Assembled (unmaterialized) graph plus a rule set precompiled from
/// it, matching the engine hot path where sessions reuse compiled
/// rules rather than re-extracting axioms per close.
fn closure_fixture(recipes: usize) -> (Graph, feo_owl::CompiledRules) {
    let (kg, user, ctx) = synthetic_fixture(recipes);
    let mut template = assemble(&kg, &user, &ctx);
    let rules = Reasoner::new().compile(&mut template);
    (template, rules)
}

fn one_materialize(template: &Graph, rules: &feo_owl::CompiledRules, p: Parallelism) -> Duration {
    let mut g = template.clone();
    let opts = MaterializeOptions {
        rules: Some(rules),
        parallelism: p,
        ..Default::default()
    };
    let started = Instant::now();
    std::hint::black_box(
        Reasoner::new()
            .materialize(&mut g, &opts)
            .expect("unguarded materialization converges"),
    );
    started.elapsed()
}

/// `parallel/off` time ratio of `run` at `workers`, after `warmup`
/// unmeasured rounds of both arms.
fn measure(workers: usize, params: &Params, mut run: impl FnMut(Parallelism) -> Duration) -> f64 {
    for _ in 0..params.warmup {
        run(Parallelism::Fixed(workers));
        run(Parallelism::Off);
    }
    paired_ratio(params, |parallel| {
        run(if parallel {
            Parallelism::Fixed(workers)
        } else {
            Parallelism::Off
        })
    })
}

/// A 64-question batch mixing the explanation types that exercise
/// reasoning plus querying, cycled over the synthetic recipes.
fn batch_fixture() -> (EngineBase, Vec<Question>) {
    let (kg, user, ctx) = synthetic_fixture(200);
    let population = Population::generate(&kg, 100, 42);
    let names: Vec<String> = kg.recipes.iter().map(|r| r.id.clone()).collect();
    let base = EngineBase::new(kg, user, ctx)
        .expect("synthetic world is consistent")
        .with_population(population);
    let questions = (0..64)
        .map(|i| {
            let food = names[(i * 7) % names.len()].clone();
            match i % 4 {
                0 => Question::WhyEat { food },
                1 => Question::WhyEatOver {
                    preferred: food,
                    alternative: names[(i * 7 + 3) % names.len()].clone(),
                },
                2 => Question::WhatIf {
                    hypothesis: Hypothesis::Pregnant,
                },
                _ => Question::WhatOtherUsers { food },
            }
        })
        .collect();
    (base, questions)
}

fn one_batch(base: &EngineBase, questions: &[Question], p: Parallelism) -> Duration {
    let opts = ExplainOptions {
        parallelism: p,
        ..Default::default()
    };
    let started = Instant::now();
    for result in std::hint::black_box(base.explain_batch(questions, &opts)) {
        result.expect("happy-path batch explains");
    }
    started.elapsed()
}

/// The join rung's query: a 1000-row recipe scan widened by two
/// planned joins, so the later steps see well over
/// `PARALLEL_MIN_INPUT` input rows.
const JOIN_QUERY: &str = "PREFIX food: <http://purl.org/heals/food#> \
     SELECT ?r ?i ?n WHERE { ?r a food:Recipe . ?r food:hasIngredient ?i . \
     ?i food:hasNutrient ?n }";

fn one_join(graph: &Graph, p: Parallelism) -> Duration {
    let opts = QueryOptions {
        parallelism: p,
        ..Default::default()
    };
    let started = Instant::now();
    // `main` ran the query once before timing, so an error here cannot
    // hide behind a fast arm.
    let _ = std::hint::black_box(query(graph, JOIN_QUERY, &opts));
    started.elapsed()
}

struct Row {
    workload: &'static str,
    workers: usize,
    ratio: f64,
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let (closure200, closure1000, batch, join) = if smoke {
        (
            Params {
                warmup: 1,
                repeats: 2,
                pairs: 2,
            },
            Params {
                warmup: 0,
                repeats: 1,
                pairs: 1,
            },
            Params {
                warmup: 1,
                repeats: 2,
                pairs: 2,
            },
            Params {
                warmup: 1,
                repeats: 2,
                pairs: 2,
            },
        )
    } else {
        (
            Params {
                warmup: 3,
                repeats: 5,
                pairs: 20,
            },
            Params {
                warmup: 1,
                repeats: 3,
                pairs: 5,
            },
            Params {
                warmup: 2,
                repeats: 5,
                pairs: 10,
            },
            Params {
                warmup: 3,
                repeats: 7,
                pairs: 20,
            },
        )
    };
    println!(
        "parallel gain, parallel/off paired-interleaved medians{}:",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows: Vec<Row> = Vec::new();

    let (template, rules) = closure_fixture(200);
    println!("  full closure, 200-recipe synthetic KG:");
    for workers in WORKERS {
        let ratio = measure(workers, &closure200, |p| {
            one_materialize(&template, &rules, p)
        });
        println!(
            "    {workers} workers: parallel/off = {ratio:.4} ({:.2}x)",
            1.0 / ratio
        );
        rows.push(Row {
            workload: "closure_200",
            workers,
            ratio,
        });
    }

    let (template, rules) = closure_fixture(1000);
    println!("  full closure, 1000-recipe synthetic KG:");
    for workers in WORKERS {
        let ratio = measure(workers, &closure1000, |p| {
            one_materialize(&template, &rules, p)
        });
        println!(
            "    {workers} workers: parallel/off = {ratio:.4} ({:.2}x)",
            1.0 / ratio
        );
        rows.push(Row {
            workload: "closure_1000",
            workers,
            ratio,
        });
    }

    // The join rung reuses the 1000-recipe assembled graph: the three
    // patterns it joins are all asserted, none inferred.
    let plan = QueryOptions {
        explain: true,
        ..Default::default()
    };
    let fanned_steps = match query(&template, JOIN_QUERY, &plan) {
        Ok(QueryResult::Plan(text)) => text.matches(" par").count(),
        _ => 0,
    };
    let joined = match query(&template, JOIN_QUERY, &QueryOptions::default()) {
        Ok(QueryResult::Solutions(table)) => table.len(),
        other => {
            eprintln!("the join rung's query failed: {other:?}");
            std::process::exit(1);
        }
    };
    println!(
        "  planned 3-pattern join, 1000-recipe synthetic KG ({joined} rows, \
         {fanned_steps} par-marked steps):"
    );
    let ratio = measure(2, &join, |p| one_join(&template, p));
    println!(
        "    2 workers: parallel/off = {ratio:.4} ({:.2}x)",
        1.0 / ratio
    );
    rows.push(Row {
        workload: "join_1000",
        workers: 2,
        ratio,
    });

    let (base, questions) = batch_fixture();
    println!("  64-question explain_batch, 200-recipe EngineBase:");
    for workers in WORKERS {
        let ratio = measure(workers, &batch, |p| one_batch(&base, &questions, p));
        println!(
            "    {workers} workers: parallel/off = {ratio:.4} ({:.2}x)",
            1.0 / ratio
        );
        rows.push(Row {
            workload: "explain_batch_64",
            workers,
            ratio,
        });
    }

    // Acceptance contract: ≥ 2× at 4 workers on the 1000-recipe closure
    // and the 64-question batch; ≤ 5% overhead at 1 worker everywhere.
    // The speedup half of the contract needs hardware that can actually
    // run 4 workers at once — on a smaller host the threads time-slice
    // one core and the ratio can only hover around 1.0, so those checks
    // report SKIP (with the host core count) instead of a spurious FAIL.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let get = |workload: &str, workers: usize| {
        rows.iter()
            .find(|r| r.workload == workload && r.workers == workers)
            .map(|r| r.ratio)
            .expect("measured above")
    };
    let mut pass = true;
    // Smoke rounds are too short for the ratios to be meaningful, so a
    // missed contract is a WARN there (and never gates), a FAIL only on
    // full runs.
    let verdict = |ok: bool| match (ok, smoke) {
        (true, _) => "PASS",
        (false, true) => "WARN",
        (false, false) => "FAIL",
    };
    for workload in ["closure_1000", "explain_batch_64"] {
        let speedup = 1.0 / get(workload, 4);
        if cores < 4 {
            println!(
                "  SKIP {workload} @4 workers: {speedup:.2}x measured, but host has \
                 {cores} core(s) — contract (>= 2x) needs >= 4"
            );
            continue;
        }
        let ok = speedup >= 2.0;
        pass &= ok || smoke;
        println!(
            "  {} {workload} @4 workers: {speedup:.2}x (contract >= 2x)",
            verdict(ok)
        );
    }
    for workload in ["closure_200", "closure_1000", "explain_batch_64"] {
        let overhead = (get(workload, 1) - 1.0) * 100.0;
        let ok = overhead <= 5.0;
        pass &= ok || smoke;
        println!(
            "  {} {workload} @1 worker: {overhead:+.2}% overhead (contract <= 5%)",
            verdict(ok)
        );
    }

    // Machine-readable artifact at the repository root. Smoke runs
    // (CI) skip the write so they never clobber recorded full numbers.
    if smoke {
        println!("  smoke mode: BENCH_pr5.json left untouched");
        return;
    }
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"workers\": {}, \"ratio_vs_off\": {:.4}, \"speedup\": {:.2}}}",
                r.workload,
                r.workers,
                r.ratio,
                1.0 / r.ratio
            )
        })
        .collect();
    let json = format!
        ("{{\n  \"bench\": \"parallel_gain\",\n  \"mode\": \"{}\",\n  \"host_cores\": {},\n  \"baseline\": \"Parallelism::Off\",\n  \"results\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        cores,
        json_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr5.json");
    match std::fs::write(out, json) {
        Ok(()) => println!("  wrote {out}"),
        Err(e) => eprintln!("  could not write {out}: {e}"),
    }
    if !pass {
        std::process::exit(1);
    }
}
