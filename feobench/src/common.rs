//! Inputs, answer digests, latency summaries and process facts shared
//! by the three workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use feo_bench::synthetic_fixture;
use feo_core::{Explanation, Population, ToJson};
use feo_foodkg::{FoodKg, SystemContext, UserProfile};

/// Recipes in the synthetic knowledge graph of `cq_distinct` and
/// `commit_asof` (about 83k base triples).
pub const SYNTHETIC_RECIPES: usize = 1000;
/// Reference users attached to the synthetic engines, as many and from
/// the same seed as `feo_bench::full_engine` attaches to the curated one.
/// The worlds are fixed; a run's seed picks its questions and events.
const POPULATION: usize = 150;
const POPULATION_SEED: u64 = 42;

/// SplitMix64: a small, seedable generator, so that a seed fixes every
/// input of a run.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Draws items in a seeded order, reshuffling after each pass, so that
/// every run sees nearly the same mix of inputs whatever its seed.
pub struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    pub fn new(items: Vec<T>) -> Self {
        assert!(!items.is_empty(), "a deck needs items");
        let next = items.len();
        Deck { items, next }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1].clone()
    }
}

/// Everything an engine is built from.
pub struct World {
    pub kg: FoodKg,
    pub user: UserProfile,
    pub ctx: SystemContext,
    pub population: Population,
}

/// The synthetic world: the benches' 1000-recipe knowledge graph and
/// user (`feo_bench::synthetic_fixture`) and a 150-profile population.
pub fn synthetic_world() -> World {
    let (kg, user, ctx) = synthetic_fixture(SYNTHETIC_RECIPES);
    let population = Population::generate(&kg, POPULATION, POPULATION_SEED);
    World {
        kg,
        user,
        ctx,
        population,
    }
}

/// Byte length plus 64-bit FNV-1a of a serialized answer: equality of
/// digests stands for byte equality of the answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(usize, u64);

/// Digest of everything an explanation returns: the rendered answer and
/// the solution table behind it.
pub fn answer_digest(e: &Explanation) -> Digest {
    let mut bytes = e.to_json();
    bytes.push_str(&e.bindings.to_json());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    Digest(bytes.len(), h)
}

/// Runs `build` `times` times and keeps the last result; returns it
/// with each build's time in seconds.
pub fn timed_setups<T>(times: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let started = Instant::now();
        let built = build();
        secs.push(started.elapsed().as_secs_f64());
        kept = Some(built);
    }
    (kept.expect("at least one set-up"), secs)
}

/// Records the median set-up time as `setup_s` and notes the range.
pub fn record_setups(out: &mut Outcome, secs: &mut [f64]) {
    let median = median(secs);
    out.metrics.insert("setup_s", median);
    out.notes.push(format!(
        "set-ups: {}; {:.4} s to {:.4} s",
        secs.len(),
        secs[0],
        secs[secs.len() - 1]
    ));
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency samples in milliseconds.
#[derive(Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `p` in `0..=1`, and the number of samples
    /// above its rank.
    pub fn percentile(&mut self, p: f64) -> (f64, usize) {
        if self.0.is_empty() {
            return (0.0, 0);
        }
        self.0.sort_by(|a, b| a.total_cmp(b));
        let n = self.0.len();
        let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
        (self.0[rank - 1], n - rank)
    }
}

/// Records `read_p50_ms`/`read_p99_ms` (or the `write_` pair) into
/// `metrics`: nearest-rank percentiles over all samples of the run. Notes
/// the sample count and how many samples lie beyond the p99.
pub fn record_percentiles(
    out: &mut Outcome,
    prefix: &'static str,
    p50: &'static str,
    p99: &'static str,
    samples: &mut Latencies,
) {
    let (median, _) = samples.percentile(0.50);
    let (tail, beyond) = samples.percentile(0.99);
    out.metrics.insert(p50, median);
    out.metrics.insert(p99, tail);
    out.notes.push(format!(
        "{prefix} samples: {}; {beyond} samples beyond the p99",
        samples.len()
    ));
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("failure: {why}"));
        }
    }
}

/// A directory inside the checkout for store files, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let dir = Path::new(".feobench").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory in the checkout");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `.feobench` too, unless another run still has a
        // directory there.
        let _ = std::fs::remove_dir(".feobench");
    }
}
