//! Plan-cache behavior at the engine level: repeated `explain` calls on
//! an unchanged epoch must reuse cached plans (hits grow, misses do
//! not), the ablation planners must bypass the cache, and committing a
//! session delta must move the head to a fresh cache partition while
//! older epochs' entries stay retained for time-travel queries. The
//! cache stays within its 256-entry bound even when every question is a
//! new text at one epoch.

use feo_core::{EngineBase, ExplainOptions, ExplanationEngine, Question};
use feo_foodkg::{curated, synthetic, Season, SyntheticConfig, SystemContext, UserProfile};
use feo_sparql::Planner;

fn base() -> EngineBase {
    let user = UserProfile::new("user")
        .likes(&["BroccoliCheddarSoup"])
        .allergies(&["Broccoli"])
        .diet("Vegetarian")
        .goals(&["HighFiberGoal"]);
    let ctx = SystemContext::new(Season::Autumn).region("Florida");
    EngineBase::new(curated(), user, ctx).unwrap()
}

fn cq1() -> Question {
    Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    }
}

/// The acceptance criterion: repeated `explain` on an unchanged
/// snapshot re-parses and re-plans nothing — only the counters move,
/// and only the hit counter.
#[test]
fn repeated_explain_hits_the_plan_cache() {
    let base = base();
    let question = cq1();

    base.explain(&question, &ExplainOptions::default()).unwrap();
    let first = base.plan_cache_stats();
    assert!(first.misses >= 1, "first explain must plan: {first:?}");
    assert_eq!(first.epoch, 0, "sessions never commit into the base");

    let answer = base.explain(&question, &ExplainOptions::default()).unwrap();
    let second = base.plan_cache_stats();
    assert_eq!(
        second.misses, first.misses,
        "unchanged snapshot must not re-parse or re-plan"
    );
    assert!(
        second.hits > first.hits,
        "repeat explain must be served from the cache: {second:?}"
    );
    assert_eq!(second.entries, first.entries);

    // And the cached plan answers identically.
    let fresh = base.explain(&question, &ExplainOptions::default()).unwrap();
    assert_eq!(answer.answer, fresh.answer);
}

/// Distinct questions instantiate distinct query texts: each gets its
/// own entry, and re-asking either stays all-hit.
#[test]
fn distinct_questions_get_distinct_entries() {
    let base = base();
    let q2 = Question::WhyEatOver {
        preferred: "ButternutSquashSoup".into(),
        alternative: "BroccoliCheddarSoup".into(),
    };

    base.explain(&cq1(), &ExplainOptions::default()).unwrap();
    let after_cq1 = base.plan_cache_stats();
    base.explain(&q2, &ExplainOptions::default()).unwrap();
    let after_cq2 = base.plan_cache_stats();
    assert!(
        after_cq2.entries > after_cq1.entries,
        "CQ2's query text is new: {after_cq2:?}"
    );

    let misses_settled = after_cq2.misses;
    base.explain(&cq1(), &ExplainOptions::default()).unwrap();
    base.explain(&q2, &ExplainOptions::default()).unwrap();
    assert_eq!(
        base.plan_cache_stats().misses,
        misses_settled,
        "both questions are now fully cached"
    );
}

/// The author-order ablation planner skips the cache entirely: its
/// plans take no statistics, so there is nothing worth caching.
#[test]
fn ablation_planners_bypass_the_cache() {
    let base = base();
    base.explain(
        &cq1(),
        &ExplainOptions {
            planner: Planner::Off,
            ..Default::default()
        },
    )
    .unwrap();
    let stats = base.plan_cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        0,
        "no lookups expected: {stats:?}"
    );
    assert_eq!(stats.entries, 0);
}

/// The legacy façade commits every question's delta onto the ledger, so
/// each `explain` advances the head epoch. With epoch-keyed entries a
/// commit drops nothing: the head lookup re-plans under a fresh key
/// (the statistics changed) while earlier epochs' plans stay retained
/// for time-travel queries.
#[test]
fn facade_commit_rekeys_the_head() {
    let user = UserProfile::new("user").likes(&["BroccoliCheddarSoup"]);
    let ctx = SystemContext::new(Season::Autumn);
    let mut engine = ExplanationEngine::new(curated(), user, ctx).unwrap();
    engine.explain(&cq1()).unwrap();
    engine.explain(&cq1()).unwrap();
    let stats = engine.into_base().plan_cache_stats();
    assert!(
        stats.epoch >= 2,
        "every façade explain commits, bumping the epoch: {stats:?}"
    );
    assert!(
        stats.entries >= 2,
        "old epochs' plans stay retained for time travel: {stats:?}"
    );
    assert!(
        stats.misses >= 2,
        "post-commit repeats must re-plan against fresh statistics: {stats:?}"
    );
}

/// Sessions never commit, so every distinct question is a new text at
/// the same head key. The cache must still hold at most 256 plans.
#[test]
fn distinct_questions_at_one_epoch_stay_within_the_bound() {
    let kg = synthetic(&SyntheticConfig {
        recipes: 320,
        ..Default::default()
    });
    let foods: Vec<String> = kg.recipes.iter().map(|r| r.id.clone()).collect();
    let user = UserProfile::new("user").likes(&[&foods[0]]);
    let base = EngineBase::new(kg, user, SystemContext::new(Season::Autumn)).unwrap();
    for food in &foods {
        let question = Question::WhyEat { food: food.clone() };
        base.explain(&question, &ExplainOptions::default()).unwrap();
    }
    let stats = base.plan_cache_stats();
    assert_eq!(stats.epoch, 0, "sessions never commit into the base");
    assert!(stats.misses >= 320, "every CQ1 text is new: {stats:?}");
    assert!(
        stats.entries <= 256,
        "plan cache outgrew its bound: {stats:?}"
    );
}
