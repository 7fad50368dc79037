//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans from its own code, around calls into
//! each layer's public functions. An operation's root span is the call
//! the user makes (`EngineBase::explain`, an HTTP `/explain` round trip,
//! `commit_with`, `EngineBase::open`). Its child spans time the public
//! calls that make up that operation, re-driven on the same input right
//! after it (or, for HTTP, after the timed phase while the server is
//! idle): a child's interval therefore lies outside its parent's, and a
//! span's self time is its duration minus the durations of its blocking
//! children. Probe spans (`blocking == false`) are measured the same way
//! but are not on the operation's path, such as parsing and planning a
//! query whose plan the cache already held.
//!
//! A span's layer is the part of its name before the first `.`.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub blocking: bool,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Per-call values (rows, inferred triples, view depth, …): sum and
    /// count, reported as means.
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            values: BTreeMap::new(),
        }
    }
}

impl Trace {
    fn push(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        blocking: bool,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            blocking,
        });
        self.spans.len() - 1
    }

    /// Records the root span of operation `op`.
    pub fn root(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) -> usize {
        self.push(op, name, None, true, start, end)
    }

    /// Runs `f` and records it under `parent`: as a blocking child, or
    /// as a probe measured but not on the operation's path. Returns the
    /// span index and the result.
    pub fn time<T>(
        &mut self,
        parent: usize,
        name: &'static str,
        blocking: bool,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let op = self.spans[parent].op;
        (self.push(op, name, Some(parent), blocking, start, end), out)
    }

    pub fn value(&mut self, name: &'static str, v: f64) {
        let slot = self.values.entry(name).or_insert((0.0, 0));
        slot.0 += v;
        slot.1 += 1;
    }

    pub fn span_ms(&self, span: usize) -> f64 {
        self.spans[span].ms()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean of a per-call value; 0 when never recorded.
    pub fn mean_value(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .map_or(0.0, |(sum, n)| sum / *n as f64)
    }

    /// Mean duration of the spans called `name`, in ms; 0 when none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0u64), |(sum, n), s| (sum + s.ms(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Duration of the latest span called `name`, in ms; 0 when none.
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::ms)
    }

    /// Durations of blocking children per parent span, split by layer.
    fn child_ms(&self) -> Vec<BTreeMap<&'static str, f64>> {
        let mut out = vec![BTreeMap::new(); self.spans.len()];
        for span in self.spans.iter().filter(|s| s.blocking) {
            if let Some(parent) = span.parent {
                *out[parent].entry(span.layer()).or_insert(0.0) += span.ms();
            }
        }
        out
    }

    /// Mean over spans called one of `names` of their duration minus
    /// their blocking children in `layers`: the self time of the layer
    /// those spans belong to, relative to the layers it calls.
    pub fn mean_self_ms(&self, names: &[&str], layers: &[&str]) -> f64 {
        let children = self.child_ms();
        let (sum, n) = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| names.contains(&s.name))
            .fold((0.0, 0u64), |(sum, n), (i, s)| {
                let covered: f64 = layers
                    .iter()
                    .filter_map(|layer| children[i].get(layer))
                    .sum();
                (sum + s.ms() - covered, n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Share of the operations' end-to-end time that no child span
    /// covers: Σ (root − its blocking children) / Σ root. Negative when
    /// re-driven children ran slower than the operation itself.
    pub fn unattributed_share(&self) -> f64 {
        let children = self.child_ms();
        let (mut total, mut left) = (0.0, 0.0);
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() {
                total += span.ms();
                left += span.ms() - children[i].values().sum::<f64>();
            }
        }
        if total > 0.0 {
            left / total
        } else {
            0.0
        }
    }
}
