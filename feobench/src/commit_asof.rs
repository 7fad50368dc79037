//! `commit_asof`: one in-process caller works on the 1000-recipe
//! synthetic base persisted with `save_to`, keeping the shipped fsync
//! policy. It runs rounds: each round opens a fresh copy of the saved
//! store and, for each of its commits, asks one CQ1/CQ2 question at head,
//! commits a seeded user event (a like, an allergy or a population
//! profile) with `commit_with`, and asks one `explain_as_of` question at
//! an earlier epoch of the round; then it reopens the store with
//! `EngineBase::open`. Restarting every round from the saved store keeps
//! the ledger depth and WAL length the same in every round, however fast
//! the program runs.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use feo_core::ecosystem::{apply_hypothesis, assert_question};
use feo_core::{queries, EngineBase, EpochId, ExplainOptions, Hypothesis, Question};
use feo_foodkg::{random_profiles, user_to_rdf, FoodKg, UserProfile};
use feo_ontology::ns::{feo, food};
use feo_owl::{MaterializeOptions, Reasoner};
use feo_rdf::{DiskStore, GraphStore, OpenOptions, Overlay};
use feo_sparql::{execute_prepared, parse_query, plan_query, QueryOptions};

use crate::common::{
    answer_digest, ms, record_percentiles, synthetic_world, Deck, Digest, Latencies, Outcome, Rng,
    ScratchDir, World,
};
use crate::replay::{explain_metric, replay_question, Replay};
use crate::trace::Trace;
use crate::{full_materialize_probe, Args};

const SETUPS: usize = 15;
/// Commits per round, then a warm reopen: three passes of the event
/// deck, so every round commits three likes, three allergies and three
/// new profiles.
const COMMITS: usize = 9;

/// A seeded user event committed as one epoch.
enum Event {
    Like(String),
    Allergy(String),
    Profile(UserProfile),
}

/// The event stream: likes, allergies and new profiles equally often,
/// in seeded order; recipes and ingredients come from decks.
struct Events {
    kinds: Deck<u8>,
    recipes: Deck<String>,
    ingredients: Deck<String>,
}

impl Events {
    fn new(kg: &FoodKg) -> Self {
        Events {
            kinds: Deck::new(vec![1, 2, 3]),
            recipes: Deck::new(kg.recipes.iter().map(|r| r.id.clone()).collect()),
            ingredients: Deck::new(kg.ingredients.iter().map(|i| i.id.clone()).collect()),
        }
    }

    fn next(&mut self, rng: &mut Rng, kg: &FoodKg, tag: &str) -> Event {
        match self.kinds.draw(rng) {
            1 => Event::Like(self.recipes.draw(rng)),
            2 => Event::Allergy(self.ingredients.draw(rng)),
            _ => {
                let mut profile = random_profiles(kg, 1, rng.next_u64())
                    .pop()
                    .expect("one profile");
                profile.id = format!("member{tag}");
                Event::Profile(profile)
            }
        }
    }
}

impl Event {
    fn write(&self, user: &UserProfile, g: &mut impl GraphStore) {
        match self {
            Event::Like(recipe) => {
                let (u, r) = (FoodKg::iri(&user.id), FoodKg::iri(recipe));
                g.insert_iris(&u, food::LIKES, &r);
                g.insert_iris(&r, feo::IS_SUPPORTIVE_CHARACTERISTIC_OF, &r);
                g.insert_iris(&r, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
            }
            Event::Allergy(ingredient) => {
                apply_hypothesis(&Hypothesis::AllergicTo(ingredient.clone()), user, g);
            }
            Event::Profile(profile) => user_to_rdf(profile, g),
        }
    }
}

/// A head read: CQ1 (`kind` 1) or CQ2 about uniformly drawn recipes.
fn head_question(kind: u8, rng: &mut Rng, kg: &FoodKg) -> Question {
    let recipe = |rng: &mut Rng| rng.pick(&kg.recipes).id.clone();
    if kind == 1 {
        return Question::WhyEat { food: recipe(rng) };
    }
    let preferred = recipe(rng);
    let mut alternative = recipe(rng);
    while alternative == preferred {
        alternative = recipe(rng);
    }
    Question::WhyEatOver {
        preferred,
        alternative,
    }
}

fn copy_store(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create store copy");
    for entry in std::fs::read_dir(from).expect("list saved store") {
        let entry = entry.expect("saved store entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
    }
}

fn open(dir: &Path, world: &World) -> EngineBase {
    EngineBase::open(dir, world.kg.clone(), world.user.clone(), world.ctx.clone())
        .expect("store opens")
}

/// Times CQ1/CQ2 evaluation over epoch 0, the base of the ledger, as a
/// probe under `parent`: the denominator of `rdf.depth_penalty`.
fn epoch0_probe(
    trace: &mut Trace,
    parent: usize,
    base: &EngineBase,
    q: &Question,
) -> Result<(), String> {
    let view = base.ledger().view(EpochId(0)).expect("epoch 0 exists");
    let mut overlay = Overlay::new(view.clone());
    assert_question(q, &mut overlay);
    let _ = Reasoner::new()
        .materialize_delta(&mut overlay, &MaterializeOptions::with_rules(base.rules()));
    let text = match q {
        Question::WhyEat { .. } => queries::contextual_query(q),
        _ => queries::contrastive_query(q),
    };
    let parsed = parse_query(&text).expect("template parses");
    let plan = plan_query(&view, &parsed);
    let opts = QueryOptions::default();
    let (_, result) = trace.time(parent, "rdf.eval_epoch0", false, || {
        execute_prepared(&overlay, &parsed, &plan, &opts)
    });
    result.map(drop).map_err(|e| format!("epoch-0 probe: {e}"))
}

#[derive(Default)]
struct Tally {
    reads: Latencies,
    writes: Latencies,
    reopens: Latencies,
    busy: Duration,
    hits: u64,
    misses: u64,
}

/// What the operations of a run add to.
struct Run<'a> {
    args: &'a Args,
    world: World,
    out: Outcome,
    trace: Trace,
    tally: Tally,
    op: u64,
}

/// The answers captured at head in the current round, by epoch.
#[derive(Default)]
struct Captured {
    digests: HashMap<(u64, String), Digest>,
    asked: Vec<(u64, Question)>,
}

impl Run<'_> {
    /// Asks `q` at `epoch`: at head, capturing the answer, or as of an
    /// earlier epoch, checking it against the answer captured then.
    fn read(&mut self, engine: &EngineBase, round: &mut Captured, epoch: u64, q: &Question) {
        let as_of = epoch != engine.head().0;
        self.op += 1;
        self.out.attempted += 1;
        let cache = engine.plan_cache_stats();
        let opts = ExplainOptions::default();
        let started = Instant::now();
        let result = if as_of {
            engine.explain_as_of(EpochId(epoch), q, &opts)
        } else {
            engine.explain(q, &opts)
        };
        let ended = Instant::now();
        self.tally.busy += ended - started;
        let explanation = match result {
            Ok(e) => e,
            Err(e) => {
                self.out
                    .fail(format!("explain {} at {epoch}: {e}", q.iri()));
                return;
            }
        };
        self.tally.reads.push(ms(ended - started));
        let d = answer_digest(&explanation);
        match round.digests.get(&(epoch, q.iri())) {
            Some(first) if *first != d => self.out.fail(format!(
                "{} at epoch {epoch}: answer differs from the one captured at head",
                q.iri()
            )),
            Some(_) => {}
            None if as_of => self.out.fail("as-of read of an uncaptured answer"),
            None => {
                round.digests.insert((epoch, q.iri()), d);
                round.asked.push((epoch, q.clone()));
            }
        }
        if !self.args.trace {
            return;
        }
        let trace = &mut self.trace;
        let name = if as_of {
            "core.explain_as_of"
        } else {
            "core.explain"
        };
        let root = trace.root(self.op, name, started, ended);
        trace.value(explain_metric(q.explanation_type()), trace.span_ms(root));
        let replay = Replay {
            base: engine,
            view: engine.ledger().view(EpochId(epoch)).expect("epoch exists"),
            plan_missed: engine.plan_cache_stats().misses > cache.misses,
            parallelism: Default::default(),
        };
        match replay_question(trace, root, &replay, q) {
            Ok(Some(table)) if table == explanation.bindings => {}
            Ok(_) => self
                .out
                .fail(format!("{}: replayed table differs", q.iri())),
            Err(e) => self.out.fail(e),
        }
        if !as_of {
            trace.value("rdf.eval_head_ms", trace.last_ms("sparql.eval"));
            if let Err(e) = epoch0_probe(trace, root, engine, q) {
                self.out.fail(e);
            }
        }
    }

    /// Commits `event`; with tracing on, re-drives it through the
    /// reasoner and the memory-only `twin`. Returns whether it committed.
    fn commit(
        &mut self,
        engine: &mut EngineBase,
        twin: Option<&mut EngineBase>,
        event: &Event,
    ) -> bool {
        let user = &self.world.user;
        let before = engine.head();
        self.op += 1;
        self.out.attempted += 1;
        let started = Instant::now();
        let epoch = engine.commit_with("event", |g| event.write(user, g));
        let ended = Instant::now();
        self.tally.busy += ended - started;
        if epoch.0 != before.0 + 1 {
            self.out.fail(format!(
                "commit returned epoch {} after {}",
                epoch.0, before.0
            ));
            return false;
        }
        self.tally.writes.push(ms(ended - started));
        let Some(twin) = twin else {
            return true;
        };
        let trace = &mut self.trace;
        let root = trace.root(self.op, "core.commit", started, ended);
        let view = engine.ledger().view(before).expect("pre-commit epoch");
        let (_, mut overlay) = trace.time(root, "core.event", true, || {
            let mut overlay = Overlay::new(view);
            event.write(user, &mut overlay);
            overlay
        });
        let (_, closed) = trace.time(root, "owl.delta", true, || {
            Reasoner::new().materialize_delta(
                &mut overlay,
                &MaterializeOptions::with_rules(engine.rules()),
            )
        });
        if let Ok(inference) = closed {
            trace.value("owl.inferred", inference.added as f64);
            trace.value("owl.rounds", inference.rounds as f64);
        }
        trace.time(root, "core.commit_memory", false, || {
            twin.commit_with("event", |g| event.write(user, g))
        });
        true
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let scratch = ScratchDir::new("commit_asof");
    let saved = scratch.path().join("saved");
    let work = scratch.path().join("work");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut world = None;
    for i in 0..SETUPS {
        let dir = scratch.path().join(format!("setup{i}"));
        let started = Instant::now();
        let w = synthetic_world();
        let mut base = EngineBase::new(w.kg.clone(), w.user.clone(), w.ctx.clone())
            .expect("synthetic world is consistent")
            .with_population(w.population.clone());
        base.save_to(&dir).expect("store saves");
        setups.push(started.elapsed().as_secs_f64());
        drop(base);
        if i + 1 == SETUPS {
            std::fs::rename(&dir, &saved).expect("keep the last saved store");
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
        world = Some(w);
    }
    let world = world.expect("at least one set-up");
    crate::common::record_setups(&mut out, &mut setups);
    if args.trace {
        out.metrics.insert(
            "owl.full_materialize_ms",
            full_materialize_probe(&world.kg, &world.user, &world.ctx),
        );
    }

    let mut rng = Rng::new(args.seed);
    let mut events = Events::new(&world.kg);
    let mut kinds = Deck::new(vec![1u8, 2]);
    let mut run = Run {
        args,
        world,
        out,
        trace: Trace::default(),
        tally: Tally::default(),
        op: 0,
    };
    let deadline = Instant::now() + args.seconds;
    let mut round = 0usize;
    while Instant::now() < deadline {
        round += 1;
        let world = &run.world;
        copy_store(&saved, &work);
        let mut engine = open(&work, world);
        // A memory-only twin, for `disk.wal_commit_ms`.
        let mut twin = args.trace.then(|| {
            EngineBase::new(world.kg.clone(), world.user.clone(), world.ctx.clone())
                .expect("synthetic world is consistent")
                .with_population(world.population.clone())
        });
        let mut captured = Captured::default();
        for c in 0..COMMITS {
            let q = head_question(kinds.draw(&mut rng), &mut rng, &run.world.kg);
            run.read(&engine, &mut captured, engine.head().0, &q);
            let event = events.next(&mut rng, &run.world.kg, &format!("{round}x{c}"));
            if !run.commit(&mut engine, twin.as_mut(), &event) {
                continue;
            }
            let head = engine.head().0;
            let older: Vec<&(u64, Question)> =
                captured.asked.iter().filter(|(e, _)| *e < head).collect();
            if older.is_empty() {
                continue;
            }
            let (epoch, q) = (*rng.pick(&older)).clone();
            run.read(&engine, &mut captured, epoch, &q);
        }
        let stats = engine.plan_cache_stats();
        run.tally.hits += stats.hits;
        run.tally.misses += stats.misses;
        let head = engine.head();
        drop(engine);

        // Warm reopen after COMMITS commits: WAL replay through the ledger.
        run.op += 1;
        run.out.attempted += 1;
        let world = &run.world;
        let started = Instant::now();
        let reopened = EngineBase::open(
            &work,
            world.kg.clone(),
            world.user.clone(),
            world.ctx.clone(),
        );
        let ended = Instant::now();
        run.tally.busy += ended - started;
        let reopened = match reopened {
            Ok(engine) => engine,
            Err(e) => {
                run.out.fail(format!("reopen: {e}"));
                continue;
            }
        };
        run.tally.reopens.push(ms(ended - started));
        if reopened.head() != head {
            run.out.fail(format!(
                "reopened at {:?}, expected {head:?}",
                reopened.head()
            ));
        }
        // The reopened chain must answer as the live one did.
        if let Some((epoch, q)) = captured.asked.last() {
            match reopened.explain_as_of(EpochId(*epoch), q, &ExplainOptions::default()) {
                Ok(e) if answer_digest(&e) == captured.digests[&(*epoch, q.iri())] => {}
                Ok(_) => run
                    .out
                    .fail(format!("{} after reopen: answer differs", q.iri())),
                Err(e) => run.out.fail(format!("{} after reopen: {e}", q.iri())),
            }
        }
        drop(reopened);
        if args.trace {
            let root = run.trace.root(run.op, "core.open", started, ended);
            let (_, opened) = run.trace.time(root, "disk.open", true, || {
                DiskStore::open(&work, OpenOptions::default()).map(drop)
            });
            if let Err(e) = opened {
                run.out.fail(format!("DiskStore::open: {e}"));
            }
        }
    }
    let Run {
        mut out,
        trace,
        mut tally,
        ..
    } = run;
    out.notes.push(format!(
        "rounds: {round}; {COMMITS} commits per round; plan cache {} hits, {} misses",
        tally.hits, tally.misses
    ));

    if args.trace {
        let (p50, _) = tally.reads.percentile(0.5);
        out.metrics.insert("trace.read_p50_ms", p50);
        out.metrics.insert(
            "core.plan_cache_hit_ratio",
            tally.hits as f64 / (tally.hits + tally.misses).max(1) as f64,
        );
        crate::layer_metrics(&trace, &mut out);
    } else {
        let done = tally.reads.len() + tally.writes.len() + tally.reopens.len();
        out.metrics
            .insert("throughput_ops_s", done as f64 / tally.busy.as_secs_f64());
        record_percentiles(
            &mut out,
            "read",
            "read_p50_ms",
            "read_p99_ms",
            &mut tally.reads,
        );
        record_percentiles(
            &mut out,
            "write",
            "write_p50_ms",
            "write_p99_ms",
            &mut tally.writes,
        );
        let (reopen, _) = tally.reopens.percentile(0.5);
        out.metrics.insert("reopen_ms", reopen);
        out.notes
            .push(format!("reopen samples: {}", tally.reopens.len()));
    }
    out
}
