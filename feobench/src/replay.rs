//! Re-drives one question through the public entry points of the
//! layers below `feo-core`, in the order a session calls them, and
//! records each call as a span.

use feo_core::ecosystem::{apply_hypothesis, assert_question};
use feo_core::knowledge::{EVERYDAY_RECORD, SCIENTIFIC_RECORD};
use feo_core::{queries, EngineBase, ExplanationType, Hypothesis, Question};
use feo_foodkg::FoodKg;
use feo_ontology::ns::feo;
use feo_owl::{MaterializeOptions, Reasoner};
use feo_rdf::{GraphView, LedgerView, Overlay, Parallelism};
use feo_sparql::{
    execute_prepared, join_counters, parse_query, plan_query, QueryOptions, QueryResult,
    SolutionTable,
};

use crate::trace::Trace;

/// The per-type metric for `core.explain_ms.<type>`.
pub fn explain_metric(t: ExplanationType) -> &'static str {
    match t {
        ExplanationType::Contextual => "core.explain_ms.contextual",
        ExplanationType::Contrastive => "core.explain_ms.contrastive",
        ExplanationType::Counterfactual => "core.explain_ms.counterfactual",
        ExplanationType::CaseBased => "core.explain_ms.case_based",
        ExplanationType::Everyday => "core.explain_ms.everyday",
        ExplanationType::Scientific => "core.explain_ms.scientific",
        ExplanationType::SimulationBased => "core.explain_ms.simulation_based",
        ExplanationType::Statistical => "core.explain_ms.statistical",
        ExplanationType::TraceBased => "core.explain_ms.trace_based",
    }
}

/// How the session behind the operation ran.
pub struct Replay<'a> {
    pub base: &'a EngineBase,
    /// The epoch view the session was pinned at.
    pub view: LedgerView<'a>,
    /// Whether the operation's plan-cache lookup missed, so that it
    /// parsed and planned (otherwise parse and plan are probes).
    pub plan_missed: bool,
    pub parallelism: Parallelism,
}

/// Replays `question` under `parent`. Returns the solution table the
/// session's query produced, or `None` for the types that run no query.
pub fn replay_question(
    trace: &mut Trace,
    parent: usize,
    r: &Replay<'_>,
    question: &Question,
) -> Result<Option<SolutionTable>, String> {
    trace.value("rdf.view_depth", r.view.depth() as f64);
    let user_iri = FoodKg::iri(&r.base.user().id);
    let text = match question {
        Question::WhyEat { .. } | Question::WhyEatOver { .. } | Question::WhatIf { .. } => {
            let (_, mut overlay) = trace.time(parent, "core.session", true, || {
                Overlay::new(r.view.clone())
            });
            trace.time(parent, "core.assert", true, || {
                if let Question::WhatIf { hypothesis } = question {
                    apply_hypothesis(hypothesis, r.base.user(), &mut overlay);
                }
                assert_question(question, &mut overlay)
            });
            let opts = MaterializeOptions {
                guard: None,
                rules: Some(r.base.rules()),
                parallelism: r.parallelism,
            };
            let (_, closed) = trace.time(parent, "owl.delta", true, || {
                Reasoner::new().materialize_delta(&mut overlay, &opts)
            });
            let inference = closed.map_err(|e| format!("materialize_delta: {e:?}"))?;
            trace.value("owl.inferred", inference.added as f64);
            trace.value("owl.rounds", inference.rounds as f64);
            let text = match question {
                Question::WhyEat { .. } => queries::contextual_query(question),
                Question::WhyEatOver { .. } => queries::contrastive_query(question),
                Question::WhatIf { hypothesis } => {
                    queries::counterfactual_query(&match hypothesis {
                        Hypothesis::Pregnant => feo::PREGNANCY_STATE.to_string(),
                        Hypothesis::FollowedDiet(d) => FoodKg::iri(d),
                        Hypothesis::AllergicTo(i) => FoodKg::iri(i),
                    })
                }
                _ => unreachable!("outer match admits only CQ1-CQ3"),
            };
            return query(trace, parent, r, &overlay, &text).map(Some);
        }
        Question::WhatOtherUsers { food } => {
            queries::case_based_query(&user_iri, &FoodKg::iri(food))
        }
        Question::WhyGenerally { food } => {
            queries::knowledge_record_query(&FoodKg::iri(food), EVERYDAY_RECORD)
        }
        Question::WhatLiterature { food } => {
            queries::knowledge_record_query(&FoodKg::iri(food), SCIENTIFIC_RECORD)
        }
        Question::WhatEvidenceForDiet { diet } => queries::statistical_query(&FoodKg::iri(diet)),
        Question::WhatIfEatenDaily { .. } | Question::WhatSteps { .. } => return Ok(None),
    };
    let (_, overlay) = trace.time(parent, "core.session", true, || {
        Overlay::new(r.view.clone())
    });
    query(trace, parent, r, &overlay, &text).map(Some)
}

/// Parses, plans against the epoch view (as the plan cache does) and
/// evaluates over `graph`.
pub fn query<G: GraphView + Sync>(
    trace: &mut Trace,
    parent: usize,
    r: &Replay<'_>,
    graph: &G,
    text: &str,
) -> Result<SolutionTable, String> {
    let (_, parsed) = trace.time(parent, "sparql.parse", r.plan_missed, || parse_query(text));
    let parsed = parsed.map_err(|e| format!("parse_query: {e}"))?;
    let (_, plan) = trace.time(parent, "sparql.plan", r.plan_missed, || {
        plan_query(&r.view, &parsed)
    });
    let opts = QueryOptions {
        parallelism: r.parallelism,
        ..QueryOptions::default()
    };
    let before = join_counters();
    let (_, result) = trace.time(parent, "sparql.eval", true, || {
        execute_prepared(graph, &parsed, &plan, &opts)
    });
    let after = join_counters();
    trace.value("sparql.joins.nested", (after.nested - before.nested) as f64);
    trace.value("sparql.joins.hash", (after.hash - before.hash) as f64);
    trace.value("sparql.joins.merge", (after.merge - before.merge) as f64);
    trace.value(
        "sparql.joins.leapfrog",
        (after.leapfrog - before.leapfrog) as f64,
    );
    match result.map_err(|e| format!("execute_prepared: {e}"))? {
        QueryResult::Solutions(table) => {
            trace.value("sparql.rows", table.rows.len() as f64);
            Ok(table)
        }
        _ => Err("template query returned no solution table".to_string()),
    }
}
