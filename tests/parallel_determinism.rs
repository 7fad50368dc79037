//! Parallel-vs-sequential determinism: `Parallelism` is a throughput
//! knob, never a semantics knob. For seeded synthetic KGs assembled and
//! materialized exactly as the engine does it, `Parallelism::Fixed(4)`
//! must produce byte-identical results to `Parallelism::Off` — the
//! same closure triples, the same query tables in the same row order,
//! and the same `explain_batch` answers slot for slot.
//!
//! One statistic is deliberately *not* compared: `InferenceResult::rounds`.
//! The parallel complex-axiom sweep evaluates every candidate against
//! the pre-pass snapshot, so a membership that depends on another
//! candidate's new membership can land one outer round later than on
//! the sequential path. The fixpoint is the same either way; only the
//! round bookkeeping may differ.

use feo::core::ecosystem::assemble;
use feo::core::{EngineBase, ExplainOptions, Population, Question};
use feo::foodkg::{synthetic, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::ontology::ns::sparql_prologue;
use feo::owl::{MaterializeOptions, Reasoner};
use feo::rdf::{Graph, IdTriple, Parallelism};
use feo::sparql::{query, Planner, QueryOptions};
use proptest::prelude::*;

const MODES: [Parallelism; 2] = [Parallelism::Off, Parallelism::Fixed(4)];

fn synthetic_world(recipes: usize, seed: u64) -> (Graph, Vec<String>) {
    let kg = synthetic(&SyntheticConfig {
        recipes,
        ingredients: recipes / 2 + 10,
        seed,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let ctx = SystemContext::new(Season::Autumn);
    let g = assemble(&kg, &user, &ctx);
    let names = kg.recipes.iter().map(|r| r.id.clone()).collect();
    (g, names)
}

/// Everything observable about a materialization except round counts:
/// the exact triple sequence (the store iterates in id order, so equal
/// sequences mean equal graphs), the dictionary size, and the stats
/// that must match when the fixpoints match.
fn closure_fingerprint(
    recipes: usize,
    seed: u64,
    parallelism: Parallelism,
) -> (Vec<IdTriple>, usize, usize, bool, usize) {
    let (mut g, _) = synthetic_world(recipes, seed);
    let result = Reasoner::new()
        .materialize(
            &mut g,
            &MaterializeOptions {
                parallelism,
                ..Default::default()
            },
        )
        .expect("unguarded materialization converges");
    (
        g.iter_ids().collect(),
        g.term_count(),
        result.added,
        result.converged,
        result.inconsistencies.len(),
    )
}

/// Join-heavy queries whose intermediaries are large enough to cross
/// the parallel-scan and parallel-hash-join thresholds on the bigger
/// generated KGs (and stay on the sequential path on the smaller ones —
/// both must agree regardless).
fn probe_queries() -> Vec<String> {
    let p = sparql_prologue();
    vec![
        format!(
            "{p}SELECT ?r ?i ?n WHERE {{\n\
               ?r a food:Recipe .\n\
               ?r food:hasIngredient ?i .\n\
               ?i food:hasNutrient ?n .\n\
             }}"
        ),
        format!(
            "{p}SELECT ?r ?i ?s WHERE {{\n\
               ?r food:calories ?c .\n\
               ?i food:availableInSeason ?s .\n\
               ?r food:hasIngredient ?i .\n\
               FILTER (?c > 300) .\n\
             }}"
        ),
        format!("{p}SELECT ?r ?n WHERE {{ ?r (food:hasIngredient/food:hasNutrient) ?n }}"),
        format!(
            "{p}SELECT ?r (COUNT(?i) AS ?k) WHERE {{\n\
               ?r food:hasIngredient ?i .\n\
             }} GROUP BY ?r"
        ),
    ]
}

/// A mixed batch over the synthetic KG: contextual, contrastive,
/// knowledge-based, simulation, case-based, and statistical questions,
/// cycled across the generated recipe names.
fn question_batch(names: &[String], len: usize) -> Vec<Question> {
    (0..len)
        .map(|i| {
            let food = names[i % names.len()].clone();
            match i % 6 {
                0 => Question::WhyEat { food },
                1 => Question::WhyEatOver {
                    preferred: food,
                    alternative: names[(i + 1) % names.len()].clone(),
                },
                2 => Question::WhyGenerally { food },
                3 => Question::WhatIfEatenDaily { food },
                4 => Question::WhatOtherUsers { food },
                _ => Question::WhatEvidenceForDiet {
                    diet: "Vegetarian".into(),
                },
            }
        })
        .collect()
}

/// One comparable line per batch slot: the rendered answer plus the
/// binding rows on success, the error's debug form on failure.
fn batch_fingerprint(
    base: &EngineBase,
    questions: &[Question],
    parallelism: Parallelism,
) -> Vec<String> {
    let opts = ExplainOptions {
        parallelism,
        ..Default::default()
    };
    base.explain_batch(questions, &opts)
        .into_iter()
        .map(|r| match r {
            Ok(e) => format!("ok|{}|{:?}|{:?}", e.answer, e.statements, e.bindings.rows),
            Err(err) => format!("err|{err:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The materialized closure is byte-identical at every worker count.
    #[test]
    fn parallel_closure_matches_sequential(
        recipes in 20usize..80,
        seed in 0u64..10_000,
    ) {
        let reference = closure_fingerprint(recipes, seed, Parallelism::Off);
        for workers in [2usize, 4, 8] {
            let got = closure_fingerprint(recipes, seed, Parallelism::Fixed(workers));
            prop_assert_eq!(
                &got, &reference,
                "closure diverged at {} workers on seed {}", workers, seed
            );
        }
    }

    /// Query tables are byte-identical — same rows in the same order,
    /// not merely the same multiset — under every planner.
    #[test]
    fn parallel_queries_match_sequential(
        recipes in 20usize..80,
        seed in 0u64..10_000,
    ) {
        let (mut g, _) = synthetic_world(recipes, seed);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("converges");
        for q in probe_queries() {
            for planner in [Planner::Off, Planner::CostBased] {
                let run = |parallelism: Parallelism| {
                    query(&g, &q, &QueryOptions { planner, parallelism, ..Default::default() })
                        .expect("evaluates")
                        .expect_solutions()
                };
                let reference = run(Parallelism::Off);
                let got = run(Parallelism::Fixed(4));
                prop_assert_eq!(
                    got.local_rows(), reference.local_rows(),
                    "{:?} rows diverged on seed {} query:\n{}", planner, seed, q
                );
            }
        }
    }

    /// `explain_batch` output is byte-identical slot for slot, including
    /// which slots hold errors.
    #[test]
    fn parallel_explain_batch_matches_sequential(
        recipes in 15usize..40,
        seed in 0u64..10_000,
    ) {
        let kg = synthetic(&SyntheticConfig {
            recipes,
            ingredients: recipes / 2 + 10,
            seed,
            ..Default::default()
        });
        let population = Population::generate(&kg, 40, seed);
        let names: Vec<String> = kg.recipes.iter().map(|r| r.id.clone()).collect();
        let user = UserProfile::new("u")
            .likes(&[&names[0]])
            .diet("Vegetarian")
            .goals(&["HighFiberGoal"]);
        let ctx = SystemContext::new(Season::Autumn).region("Florida");
        let base = EngineBase::new(kg, user, ctx)
            .expect("synthetic world is consistent")
            .with_population(population);
        let questions = question_batch(&names, 12);
        let reference = batch_fingerprint(&base, &questions, Parallelism::Off);
        for workers in [2usize, 4] {
            let got = batch_fingerprint(&base, &questions, Parallelism::Fixed(workers));
            prop_assert_eq!(
                &got, &reference,
                "explain_batch diverged at {} workers on seed {}", workers, seed
            );
        }
    }
}

/// Derivation tracking no longer forces the sequential path: with
/// tracking on, pool workers capture each conclusion's premises and the
/// pinned-order merge records them. The closure must stay
/// byte-identical across worker counts, the parallel run must be
/// reproducible (same derivation map twice), and every recorded
/// derivation must be structurally sound — its premises are triples of
/// the closed graph, so proof trees render without dangling references.
#[test]
fn tracked_derivations_survive_the_parallel_path() {
    use feo::owl::ReasonerOptions;

    let close = |parallelism: Parallelism| {
        let (mut g, _) = synthetic_world(40, 7);
        let result = Reasoner::with_options(ReasonerOptions {
            track_derivations: true,
            ..Default::default()
        })
        .materialize(
            &mut g,
            &MaterializeOptions {
                parallelism,
                ..Default::default()
            },
        )
        .expect("converges");
        (g, result)
    };

    let (seq_g, seq) = close(Parallelism::Off);
    let (par_g, par) = close(Parallelism::Fixed(4));
    let (par_g2, par2) = close(Parallelism::Fixed(4));

    // Same fixpoint, and the parallel run is reproducible down to the
    // recorded derivations.
    assert_eq!(
        seq_g.iter_ids().collect::<Vec<_>>(),
        par_g.iter_ids().collect::<Vec<_>>(),
        "closure diverged with tracking on"
    );
    assert_eq!(par.derivations.len(), par2.derivations.len());
    for (t, d) in &par.derivations {
        let again = par2.derivations.get(t).expect("reproducible key set");
        assert_eq!((d.rule, &d.premises), (again.rule, &again.premises));
    }
    assert_eq!(par_g.len(), par_g2.len());

    // Both modes explain every inferred triple, and premises always
    // reference real triples of the closure (acyclic proof DAG).
    assert_eq!(seq.derivations.len(), par.derivations.len());
    assert!(!par.derivations.is_empty(), "tracking recorded nothing");
    for (t, d) in &par.derivations {
        assert!(
            par_g.contains_ids(t[0], t[1], t[2]),
            "derived triple missing from closure"
        );
        for p in &d.premises {
            assert!(
                par_g.contains_ids(p[0], p[1], p[2]),
                "premise of {:?} ({}) not in closure",
                t,
                d.rule
            );
        }
        let node = feo::owl::proof(&par, *t);
        assert!(!node.render(&par_g).is_empty());
    }
}

/// `Parallelism::Auto` (the default in every options struct) honours
/// `FEO_THREADS`, so the suite run under `FEO_THREADS=1` and
/// `FEO_THREADS=4` exercises both paths; this pins the explicit modes
/// against each other once more on the curated KG for good measure.
#[test]
fn curated_kg_closure_is_mode_independent() {
    let run = |parallelism: Parallelism| {
        let kg = feo::foodkg::curated();
        let user = UserProfile::new("u")
            .likes(&["LentilSoup"])
            .diet("Vegetarian");
        let ctx = SystemContext::new(Season::Autumn).region("Florida");
        let mut g = assemble(&kg, &user, &ctx);
        let r = Reasoner::new()
            .materialize(
                &mut g,
                &MaterializeOptions {
                    parallelism,
                    ..Default::default()
                },
            )
            .expect("converges");
        (g.iter_ids().collect::<Vec<_>>(), g.term_count(), r.added)
    };
    let mut fingerprints = MODES.iter().map(|&m| run(m));
    let first = fingerprints.next().expect("at least one mode");
    for other in fingerprints {
        assert_eq!(first, other);
    }
}
