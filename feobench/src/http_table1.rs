//! `http_table1`: an in-process `feo_serve::Server` on loopback, driven
//! by two closed-loop clients. Each client holds one keep-alive
//! connection and `POST`s `/explain`, cycling all nine Table I types
//! over the curated knowledge graph with population and recommendations
//! attached. At most 27 distinct questions are asked, so every plan fits
//! the cache and serving is almost the whole latency.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use feo_bench::{autumn_ctx, full_engine, rich_user};
use feo_core::json::json_string;
use feo_core::{BudgetedOutcome, EngineBase, ExplainOptions, Hypothesis, Question, ToJson};
use feo_foodkg::{curated, FoodKg};
use feo_rdf::{Budget, Parallelism};
use feo_recommender::{HealthCoach, RecommendationSet, Recommender};
use feo_serve::{Json, ServeConfig, Server, ServerHandle};
use feo_sparql::Planner;

use crate::common::{ms, record_percentiles, Latencies, Outcome, Rng};
use crate::replay::{explain_metric, replay_question, Replay};
use crate::trace::Trace;
use crate::{full_materialize_probe, Args};

const SETUPS: usize = 31;
const CLIENTS: usize = 2;
/// Questions per Table I type.
const PER_TYPE: usize = 3;

/// The curated knowledge graph and the recommendations
/// `feo_bench::full_engine` attaches, from which questions are drawn.
fn curated_inputs() -> (FoodKg, RecommendationSet) {
    let kg = curated();
    let recs = HealthCoach::new(&kg).recommend(&rich_user(), &autumn_ctx(), 10);
    (kg, recs)
}

/// `PER_TYPE` seeded questions for each of the nine types, grouped by
/// type in Table I order.
fn table1_questions(rng: &mut Rng, kg: &FoodKg, recs: &RecommendationSet) -> Vec<Question> {
    let recipe = |rng: &mut Rng| rng.pick(&kg.recipes).id.clone();
    let mut out = Vec::new();
    for _ in 0..PER_TYPE {
        out.push(Question::WhyEat { food: recipe(rng) });
    }
    for _ in 0..PER_TYPE {
        let preferred = recipe(rng);
        let mut alternative = recipe(rng);
        while alternative == preferred {
            alternative = recipe(rng);
        }
        out.push(Question::WhyEatOver {
            preferred,
            alternative,
        });
    }
    out.push(Question::WhatIf {
        hypothesis: Hypothesis::Pregnant,
    });
    out.push(Question::WhatIf {
        hypothesis: Hypothesis::FollowedDiet(rng.pick(&kg.diets).id.clone()),
    });
    out.push(Question::WhatIf {
        hypothesis: Hypothesis::AllergicTo(rng.pick(&kg.ingredients).id.clone()),
    });
    for make in [
        |food| Question::WhatOtherUsers { food },
        |food| Question::WhyGenerally { food },
        |food| Question::WhatLiterature { food },
        |food| Question::WhatIfEatenDaily { food },
    ] {
        for _ in 0..PER_TYPE {
            out.push(make(recipe(rng)));
        }
    }
    for _ in 0..PER_TYPE {
        out.push(Question::WhatEvidenceForDiet {
            diet: rng.pick(&kg.diets).id.clone(),
        });
    }
    for _ in 0..PER_TYPE {
        out.push(Question::WhatSteps {
            food: rng.pick(&recs.recommendations).recipe_id.clone(),
        });
    }
    out
}

/// The `/explain` body asking `q` alone.
fn wire(q: &Question) -> String {
    let field = |k: &str, v: &str| format!(",{}:{}", json_string(k), json_string(v));
    let (kind, fields) = match q {
        Question::WhyEat { food } => ("why-eat", field("food", food)),
        Question::WhyEatOver {
            preferred,
            alternative,
        } => (
            "why-over",
            field("preferred", preferred) + &field("alternative", alternative),
        ),
        Question::WhatIf { hypothesis } => (
            "what-if",
            field(
                "hypothesis",
                &match hypothesis {
                    Hypothesis::Pregnant => "pregnant".to_string(),
                    Hypothesis::FollowedDiet(d) => format!("diet:{d}"),
                    Hypothesis::AllergicTo(i) => format!("allergic:{i}"),
                },
            ),
        ),
        Question::WhatOtherUsers { food } => ("other-users", field("food", food)),
        Question::WhyGenerally { food } => ("why-generally", field("food", food)),
        Question::WhatLiterature { food } => ("literature", field("food", food)),
        Question::WhatIfEatenDaily { food } => ("eaten-daily", field("food", food)),
        Question::WhatEvidenceForDiet { diet } => ("diet-evidence", field("diet", diet)),
        Question::WhatSteps { food } => ("steps", field("food", food)),
    };
    format!("{{\"questions\":[{{\"type\":\"{kind}\"{fields}}}]}}")
}

/// One keep-alive connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads the whole response: status, body, and
    /// whether the server closes the connection.
    fn post(&mut self, body: &str) -> std::io::Result<(u16, Vec<u8>, bool)> {
        let request = format!(
            "POST /explain HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes())?;
        let bad = |what: &str| std::io::Error::other(what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad("unparseable status line"))?;
        let (mut length, mut close) = (None, false);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the head"));
            }
            let header = line.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                length = v.trim().parse::<usize>().ok();
            } else if let Some(v) = header.strip_prefix("connection:") {
                close = v.trim() == "close";
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("no content-length"))?];
        self.reader.read_exact(&mut body)?;
        Ok((status, body, close))
    }
}

/// One request of the timed phase: question index, start, end.
type Sent = (usize, Instant, Instant);

#[derive(Default)]
struct ClientLog {
    reads: Latencies,
    sent: Vec<Sent>,
    failures: Vec<String>,
    attempted: u64,
    max_queued: usize,
}

fn drive(
    addr: SocketAddr,
    handle: &ServerHandle,
    bodies: &[String],
    oracle: &[String],
    seed: u64,
    deadline: Instant,
    traced: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(seed);
    let types = bodies.len() / PER_TYPE;
    let mut turn = rng.below(types);
    let mut client = None;
    while Instant::now() < deadline {
        let idx = (turn % types) * PER_TYPE + rng.below(PER_TYPE);
        turn += 1;
        log.attempted += 1;
        if client.is_none() {
            match Client::connect(addr) {
                Ok(c) => client = Some(c),
                Err(e) => {
                    log.failures.push(format!("connect: {e}"));
                    continue;
                }
            }
        }
        let Some(conn) = client.as_mut() else {
            continue;
        };
        let started = Instant::now();
        let reply = conn.post(&bodies[idx]);
        let ended = Instant::now();
        match reply {
            Ok((200, body, close)) => {
                if body != oracle[idx].as_bytes() {
                    log.failures
                        .push(format!("question {idx}: body differs from the oracle"));
                } else {
                    log.reads.push(ms(ended - started));
                    if traced {
                        log.sent.push((idx, started, ended));
                        log.max_queued = log.max_queued.max(handle.admission_stats().queued);
                    }
                }
                if close {
                    client = None;
                }
            }
            Ok((status, _, _)) => {
                log.failures
                    .push(format!("question {idx}: status {status}"));
                client = None;
            }
            Err(e) => {
                log.failures.push(format!("question {idx}: {e}"));
                client = None;
            }
        }
    }
    log
}

/// The budget the server gives an unbudgeted request under
/// `ServeConfig::default()`.
fn default_budget() -> Budget {
    let cfg = ServeConfig::default();
    Budget::new()
        .with_deadline(Duration::from_millis(cfg.default_deadline_ms))
        .with_max_inferred(cfg.max_inferred)
        .with_max_rounds(cfg.max_rounds)
        .with_max_solutions(cfg.max_solutions)
        .with_max_input_bytes(cfg.max_body_bytes as u64)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept: Option<(ServerHandle, Arc<EngineBase>)> = None;
    for _ in 0..SETUPS {
        if let Some((handle, _)) = kept.take() {
            handle.shutdown_and_join().expect("server drains");
        }
        let started = Instant::now();
        let base = Arc::new(full_engine().into_base());
        let handle = Server::spawn(Arc::clone(&base), cfg.clone()).expect("bind loopback");
        setups.push(started.elapsed().as_secs_f64());
        kept = Some((handle, base));
    }
    let (handle, base) = kept.expect("at least one set-up");
    crate::common::record_setups(&mut out, &mut setups);
    let (kg, recs) = curated_inputs();
    if args.trace {
        out.metrics.insert(
            "owl.full_materialize_ms",
            full_materialize_probe(&kg, &rich_user(), &autumn_ctx()),
        );
    }

    let questions = table1_questions(&mut Rng::new(args.seed), &kg, &recs);
    let bodies: Vec<String> = questions.iter().map(wire).collect();
    // The author-order oracle's response body for each question.
    let off = ExplainOptions {
        planner: Planner::Off,
        ..ExplainOptions::default()
    };
    let oracle: Vec<String> = questions
        .iter()
        .map(|q| {
            let explanation = base
                .explain(q, &off)
                .expect("oracle answers every question");
            BudgetedOutcome {
                explanations: vec![explanation],
                degradation: None,
            }
            .to_json()
        })
        .collect();

    // Warm-up, checked like the timed requests: every question once, so
    // every plan is cached.
    let addr = handle.addr();
    let mut warm = Client::connect(addr).expect("connect to loopback server");
    for (idx, (body, expected)) in bodies.iter().zip(&oracle).enumerate() {
        out.attempted += 1;
        match warm.post(body) {
            Ok((200, reply, _)) if reply == expected.as_bytes() => {}
            Ok((status, _, _)) => out.fail(format!(
                "warm-up question {idx}: status {status}, or a body unlike the oracle"
            )),
            Err(e) => out.fail(format!("warm-up question {idx}: {e}")),
        }
    }
    drop(warm);

    let cache_before = base.plan_cache_stats();
    let admission_before = handle.admission_stats();
    let mut trace = Trace::default();
    let started = Instant::now();
    let deadline = started + args.seconds;
    let logs: Vec<ClientLog> = thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (handle, bodies, oracle) = (&handle, &bodies, &oracle);
                let seed = args.seed.wrapping_mul(31).wrapping_add(c as u64);
                s.spawn(move || drive(addr, handle, bodies, oracle, seed, deadline, args.trace))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let cache = base.plan_cache_stats();
    let admission = handle.admission_stats();

    let mut reads = Latencies::default();
    let mut sent = Vec::new();
    let mut max_queued = 0;
    for log in logs {
        out.attempted += log.attempted;
        for failure in log.failures {
            out.fail(failure);
        }
        reads.extend(log.reads);
        sent.extend(log.sent);
        max_queued = max_queued.max(log.max_queued);
    }

    if args.trace {
        let (p50, _) = reads.percentile(0.5);
        out.metrics.insert("trace.read_p50_ms", p50);
        let (hits, misses) = (
            cache.hits - cache_before.hits,
            cache.misses - cache_before.misses,
        );
        out.metrics.insert(
            "core.plan_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.metrics.insert(
            "serve.admitted",
            (admission.admitted - admission_before.admitted) as f64,
        );
        out.metrics.insert("serve.queued", max_queued as f64);
        out.metrics.insert(
            "serve.ewma_service_us",
            admission.ewma_service_micros as f64,
        );
        // Re-drive each request's body through the layers, now that the
        // server is idle.
        let budget = default_budget();
        sent.sort_by_key(|&(_, start, _)| start);
        for (op, &(idx, start, end)) in sent.iter().enumerate() {
            let root = trace.root(op as u64, "serve.request", start, end);
            let (_, parsed) =
                trace.time(root, "serve.json_parse", true, || Json::parse(&bodies[idx]));
            if let Err(e) = parsed {
                out.fail(format!("question {idx}: body does not parse: {e}"));
            }
            let batch = std::slice::from_ref(&questions[idx]);
            let (span, result) = trace.time(root, "core.explain_batch", true, || {
                base.explain_batch_with_budget(batch, &budget, Parallelism::default())
            });
            trace.value(
                explain_metric(questions[idx].explanation_type()),
                trace.span_ms(span),
            );
            let explanation = match result {
                Ok(outcome) if outcome.to_json() == oracle[idx] => outcome.explanations,
                Ok(_) => {
                    out.fail(format!("question {idx}: replayed batch differs"));
                    continue;
                }
                Err(e) => {
                    out.fail(format!("question {idx}: {e}"));
                    continue;
                }
            };
            // A one-question batch runs its session without inner
            // parallelism whenever the pool has more than one worker.
            let parallelism = if Parallelism::default().workers() > 1 {
                Parallelism::Off
            } else {
                Parallelism::default()
            };
            let replay = Replay {
                base: &base,
                view: base.ledger().head_view(),
                plan_missed: false,
                parallelism,
            };
            match replay_question(&mut trace, span, &replay, &questions[idx]) {
                Ok(Some(table)) if table != explanation[0].bindings => {
                    out.fail(format!("question {idx}: replayed table differs"));
                }
                Ok(_) => {}
                Err(e) => out.fail(e),
            }
        }
        crate::layer_metrics(&trace, &mut out);
    } else {
        out.metrics
            .insert("throughput_ops_s", reads.len() as f64 / wall);
        record_percentiles(&mut out, "read", "read_p50_ms", "read_p99_ms", &mut reads);
    }
    handle.shutdown_and_join().expect("server drains");
    out
}
