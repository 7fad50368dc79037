//! Planner equivalence: the cost-based planner and author-order
//! evaluation are alternative *orders*, never alternative *semantics*. For seeded synthetic KGs (the
//! `feo-foodkg` generator, assembled and materialized exactly as the
//! engine does it) every planner must return the identical solution
//! multiset — and a tripping `Guard` must yield a typed
//! `SparqlError::Exhausted`, never a silently truncated table.

use feo::core::ecosystem::assemble;
use feo::foodkg::{synthetic, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::ontology::ns::sparql_prologue;
use feo::owl::Reasoner;
use feo::rdf::governor::Budget;
use feo::rdf::Graph;
use feo::sparql::{query, Planner, QueryOptions, SolutionTable, SparqlError};
use proptest::prelude::*;

const PLANNERS: [Planner; 2] = [Planner::Off, Planner::CostBased];

/// Queries chosen to give the planners real decisions: multi-pattern
/// joins (including an adversarial author order that opens with a
/// cartesian product), OPTIONAL / UNION nodes, a property path, an
/// aggregate, and planned EXISTS bodies.
fn equivalence_queries() -> Vec<String> {
    let p = sparql_prologue();
    vec![
        // Adversarial author order: the first two patterns share no
        // variable; only the third connects them.
        format!(
            "{p}SELECT ?r ?i ?s WHERE {{\n\
               ?r food:calories ?c .\n\
               ?i food:availableInSeason ?s .\n\
               ?r food:hasIngredient ?i .\n\
               FILTER (?c > 700) .\n\
             }}"
        ),
        // Star join around recipes, type patterns included.
        format!(
            "{p}SELECT ?r ?i ?n WHERE {{\n\
               ?r a food:Recipe .\n\
               ?r food:hasIngredient ?i .\n\
               ?i food:hasNutrient ?n .\n\
             }}"
        ),
        // OPTIONAL + UNION exercise the non-BGP plan nodes.
        format!(
            "{p}SELECT ?i ?x WHERE {{\n\
               ?i a food:Ingredient .\n\
               OPTIONAL {{ ?i food:availableInSeason ?x }}\n\
             }}"
        ),
        format!(
            "{p}SELECT ?r ?v WHERE {{\n\
               {{ ?r food:hasIngredient ?v }} UNION {{ ?r food:availableInSeason ?v }}\n\
             }}"
        ),
        // Property path over the recipe→ingredient→nutrient chain.
        format!("{p}SELECT ?r ?n WHERE {{ ?r (food:hasIngredient/food:hasNutrient) ?n }}"),
        // Aggregate on top of a join.
        format!(
            "{p}SELECT ?r (COUNT(?i) AS ?k) WHERE {{\n\
               ?r food:hasIngredient ?i .\n\
             }} GROUP BY ?r"
        ),
    ]
    .into_iter()
    .chain(exists_queries())
    .collect()
}

/// EXISTS bodies are planned with the variables bound at their scope.
/// The same three queries run in `join_equivalence`.
fn exists_queries() -> Vec<String> {
    let p = sparql_prologue();
    vec![
        // In author order the body opens with a pattern that shares no
        // variable with the outer row.
        format!(
            "{p}SELECT ?r ?i WHERE {{\n\
               ?r food:hasIngredient ?i .\n\
               FILTER NOT EXISTS {{ ?x food:availableInSeason ?s . ?i food:availableInSeason ?s }}\n\
             }}"
        ),
        // EXISTS inside OPTIONAL: the body sees the optional group's
        // bindings.
        format!(
            "{p}SELECT ?i ?x WHERE {{\n\
               ?i a food:Ingredient .\n\
               OPTIONAL {{ ?i food:availableInSeason ?x .\n\
                 FILTER EXISTS {{ ?r food:hasIngredient ?i . ?r food:calories ?c }} }}\n\
             }}"
        ),
        // EXISTS as a BIND value.
        format!(
            "{p}SELECT ?r ?rich WHERE {{\n\
               ?r a food:Recipe .\n\
               BIND (EXISTS {{ ?r food:calories ?c . FILTER (?c > 700) }} AS ?rich)\n\
             }}"
        ),
    ]
}

/// The engine's own pipeline: generate, assemble, materialize.
fn materialized_graph(recipes: usize, seed: u64) -> Graph {
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
    let mut g = assemble(&kg, &user, &ctx);
    Reasoner::new()
        .materialize(&mut g, &Default::default())
        .expect("unguarded materialization converges");
    g
}

/// Rows as sorted strings: multiset comparison independent of solution
/// order (projection order keeps columns aligned across planners).
fn multiset(t: &SolutionTable) -> Vec<String> {
    let mut rows: Vec<String> = t.local_rows().iter().map(|r| r.join("|")).collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Both planners agree on every query over every generated KG.
    #[test]
    fn planners_return_identical_multisets(
        recipes in 15usize..45,
        seed in 0u64..10_000,
    ) {
        let g = materialized_graph(recipes, seed);
        for q in equivalence_queries() {
            let reference = query(&g, &q, &QueryOptions { planner: Planner::Off, ..Default::default() })
                .expect("author order evaluates")
                .expect_solutions();
            let reference = multiset(&reference);
            let got = query(&g, &q, &Default::default())
                .expect("planned evaluation evaluates")
                .expect_solutions();
            prop_assert_eq!(
                &multiset(&got),
                &reference,
                "cost-based planner diverged on seed {} query:\n{}",
                seed, q
            );
        }
    }

    /// Under a guard, each planner either returns exactly the unguarded
    /// multiset or fails with a typed `Exhausted` — never a silently
    /// partial table. (Planners legitimately differ in *whether* they
    /// trip: a better join order produces fewer intermediate rows.)
    #[test]
    fn guarded_runs_are_exact_or_exhausted(
        recipes in 15usize..40,
        seed in 0u64..10_000,
        max_solutions in 1u64..400,
    ) {
        let g = materialized_graph(recipes, seed);
        let budget = Budget::new().with_max_solutions(max_solutions);
        for q in equivalence_queries() {
            let reference = query(&g, &q, &Default::default())
                .expect("unguarded evaluates")
                .expect_solutions();
            let reference = multiset(&reference);
            for planner in PLANNERS {
                let guard = budget.start();
                let opts = QueryOptions { guard: Some(&guard), planner, ..Default::default() };
                match query(&g, &q, &opts) {
                    Ok(result) => prop_assert_eq!(
                        &multiset(&result.expect_solutions()),
                        &reference,
                        "guarded {:?} returned a different table on seed {}",
                        planner, seed
                    ),
                    Err(SparqlError::Exhausted(_)) => {}
                    Err(other) => prop_assert!(
                        false,
                        "planner {:?} failed with a non-budget error: {:?}",
                        planner, other
                    ),
                }
            }
        }
    }

    /// A guard with headroom is behaviorally invisible for every planner.
    #[test]
    fn generous_guard_is_transparent_for_all_planners(
        recipes in 15usize..40,
        seed in 0u64..10_000,
    ) {
        let g = materialized_graph(recipes, seed);
        let budget = Budget::new().with_max_solutions(50_000_000);
        for q in equivalence_queries() {
            for planner in PLANNERS {
                let bare = query(&g, &q, &QueryOptions { planner, ..Default::default() })
                    .expect("evaluates")
                    .expect_solutions();
                let guard = budget.start();
                let guarded = query(
                    &g,
                    &q,
                    &QueryOptions { guard: Some(&guard), planner, ..Default::default() },
                )
                .expect("generous guard never trips")
                .expect_solutions();
                prop_assert_eq!(multiset(&bare), multiset(&guarded));
            }
        }
    }
}

// ---- tie-break regression ------------------------------------------------

/// Two disconnected patterns with identical statistics: every planner
/// ties, ties keep author order, and author order pins the exact row
/// sequence (first pattern outer, second inner, both in index order).
/// Before the deterministic tie-break the (since retired) greedy reorder
/// depended on selection-scan incidentals and this order was unstable.
#[test]
fn tied_patterns_pin_solution_order() {
    let mut g = Graph::new();
    for i in 1..=2 {
        g.insert_iris(
            &format!("http://e/s{i}"),
            "http://e/p",
            &format!("http://e/o{i}"),
        );
        g.insert_iris(
            &format!("http://e/t{i}"),
            "http://e/q",
            &format!("http://e/u{i}"),
        );
    }
    let q = "SELECT ?a ?b ?c ?d WHERE { ?a <http://e/p> ?b . ?c <http://e/q> ?d }";
    let expected: Vec<Vec<String>> = vec![
        vec!["s1".into(), "o1".into(), "t1".into(), "u1".into()],
        vec!["s1".into(), "o1".into(), "t2".into(), "u2".into()],
        vec!["s2".into(), "o2".into(), "t1".into(), "u1".into()],
        vec!["s2".into(), "o2".into(), "t2".into(), "u2".into()],
    ];
    for planner in PLANNERS {
        let t = query(
            &g,
            q,
            &QueryOptions {
                planner,
                ..Default::default()
            },
        )
        .expect("evaluates")
        .expect_solutions();
        assert_eq!(
            t.local_rows(),
            expected,
            "{planner:?} must keep author order on tied patterns"
        );
    }
}
