//! `cq_distinct`: one in-process closed-loop caller asks CQ1–CQ3
//! through `EngineBase::explain` over the 1000-recipe synthetic
//! knowledge graph. Every recipe and hypothesis is asked about equally
//! often and CQ1/CQ2 texts embed the question IRI, so most query texts
//! are new to the plan cache; the reasoner and parse/plan/eval do almost
//! all of the work.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use feo_core::{EngineBase, ExplainOptions, Hypothesis, Question};
use feo_foodkg::FoodKg;
use feo_sparql::Planner;

use crate::common::{
    answer_digest, ms, record_percentiles, record_setups, synthetic_world, timed_setups, Deck,
    Digest, Latencies, Outcome, Rng,
};
use crate::replay::{explain_metric, replay_question, Replay};
use crate::trace::Trace;
use crate::{full_materialize_probe, Args};

const SETUPS: usize = 15;

/// The question stream: CQ1, CQ2 and CQ3 equally often (each once in
/// every three questions, in seeded order). Foods and hypotheses come
/// from decks over every recipe and every hypothesis, so each is asked
/// about equally often; a CQ2 foil is drawn uniformly.
struct Questions {
    kinds: Deck<u8>,
    foods: Deck<String>,
    preferred: Deck<String>,
    hypotheses: Deck<Hypothesis>,
}

impl Questions {
    fn new(kg: &FoodKg) -> Self {
        let recipes: Vec<String> = kg.recipes.iter().map(|r| r.id.clone()).collect();
        let hypotheses = std::iter::once(Hypothesis::Pregnant)
            .chain(
                kg.diets
                    .iter()
                    .map(|d| Hypothesis::FollowedDiet(d.id.clone())),
            )
            .chain(
                kg.ingredients
                    .iter()
                    .map(|i| Hypothesis::AllergicTo(i.id.clone())),
            )
            .collect();
        Questions {
            kinds: Deck::new(vec![1, 2, 3]),
            foods: Deck::new(recipes.clone()),
            preferred: Deck::new(recipes),
            hypotheses: Deck::new(hypotheses),
        }
    }

    fn next(&mut self, rng: &mut Rng, kg: &FoodKg) -> Question {
        match self.kinds.draw(rng) {
            1 => Question::WhyEat {
                food: self.foods.draw(rng),
            },
            2 => {
                let preferred = self.preferred.draw(rng);
                let mut alternative = rng.pick(&kg.recipes).id.clone();
                while alternative == preferred {
                    alternative = rng.pick(&kg.recipes).id.clone();
                }
                Question::WhyEatOver {
                    preferred,
                    alternative,
                }
            }
            _ => Question::WhatIf {
                hypothesis: self.hypotheses.draw(rng),
            },
        }
    }
}

/// A question asked in the timed phase, with the digest of its first
/// answer and how often it was asked.
struct Asked {
    question: Question,
    digest: Digest,
    times: u64,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (built, mut setups) = timed_setups(SETUPS, || {
        let world = synthetic_world();
        let base = EngineBase::new(world.kg.clone(), world.user.clone(), world.ctx.clone())
            .expect("synthetic world is consistent")
            .with_population(world.population.clone());
        (base, world)
    });
    let (base, world) = built;
    record_setups(&mut out, &mut setups);

    let mut trace = Trace::default();
    if args.trace {
        out.metrics.insert(
            "owl.full_materialize_ms",
            full_materialize_probe(&world.kg, &world.user, &world.ctx),
        );
    }

    let mut rng = Rng::new(args.seed);
    let mut questions = Questions::new(&world.kg);
    let mut reads = Latencies::default();
    let mut asked: HashMap<String, Asked> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut busy = Duration::ZERO;
    let stats_before = base.plan_cache_stats();
    let deadline = Instant::now() + args.seconds;
    let mut op = 0u64;
    while Instant::now() < deadline {
        op += 1;
        let q = questions.next(&mut rng, &world.kg);
        let cache = base.plan_cache_stats();
        let started = Instant::now();
        let result = base.explain(&q, &ExplainOptions::default());
        let ended = Instant::now();
        busy += ended - started;
        out.attempted += 1;
        let explanation = match result {
            Ok(e) => e,
            Err(e) => {
                out.fail(format!("explain {}: {e}", q.iri()));
                continue;
            }
        };
        reads.push(ms(ended - started));
        let d = answer_digest(&explanation);
        let key = q.iri();
        match asked.get_mut(&key) {
            Some(seen) if seen.digest != d => {
                out.fail(format!("{key}: answer changed between asks"));
            }
            Some(seen) => seen.times += 1,
            None => {
                order.push(key.clone());
                asked.insert(
                    key,
                    Asked {
                        question: q.clone(),
                        digest: d,
                        times: 1,
                    },
                );
            }
        }
        if args.trace {
            let root = trace.root(op, "core.explain", started, ended);
            trace.value(explain_metric(q.explanation_type()), trace.span_ms(root));
            let replay = Replay {
                base: &base,
                view: base.ledger().head_view(),
                plan_missed: base.plan_cache_stats().misses > cache.misses,
                parallelism: Default::default(),
            };
            match replay_question(&mut trace, root, &replay, &q) {
                Ok(Some(table)) if table == explanation.bindings => {}
                Ok(_) => out.fail(format!("{}: replayed table differs", q.iri())),
                Err(e) => out.fail(e),
            }
        }
    }
    let stats = base.plan_cache_stats();
    let (hits, misses) = (
        stats.hits - stats_before.hits,
        stats.misses - stats_before.misses,
    );

    // The author-order planner is the oracle: one answer per distinct
    // question, computed after the timed phase.
    let oracle = ExplainOptions {
        planner: Planner::Off,
        ..ExplainOptions::default()
    };
    for key in &order {
        let seen = &asked[key];
        match base.explain(&seen.question, &oracle) {
            Ok(e) if answer_digest(&e) == seen.digest => {}
            Ok(_) => {
                for _ in 0..seen.times {
                    out.fail(format!(
                        "{key}: answer differs from the author-order oracle"
                    ));
                }
            }
            Err(e) => out.fail(format!("oracle {key}: {e}")),
        }
    }
    out.notes.push(format!(
        "distinct questions: {} of {} asked; plan cache {hits} hits, {misses} misses",
        order.len(),
        out.attempted
    ));

    if args.trace {
        let (p50, _) = reads.percentile(0.5);
        out.metrics.insert("trace.read_p50_ms", p50);
        out.metrics.insert(
            "core.plan_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        crate::layer_metrics(&trace, &mut out);
    } else {
        out.metrics
            .insert("throughput_ops_s", reads.len() as f64 / busy.as_secs_f64());
        record_percentiles(&mut out, "read", "read_p50_ms", "read_p99_ms", &mut reads);
    }
    out
}
