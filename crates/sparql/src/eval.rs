//! SPARQL query evaluation over any [`feo_rdf::GraphView`].
//!
//! The evaluator executes the AST directly with solution sets (vectors of
//! bindings) flowing through group-pattern elements, matching the SPARQL
//! algebra: triples blocks join, OPTIONAL left-joins, UNION concatenates,
//! MINUS anti-joins on shared domains, FILTERs apply at group scope, BIND
//! extends, VALUES joins an inline table. Every BGP — EXISTS bodies
//! included — runs the join order and operators of a compiled
//! [`Plan`]; there is no other execution path.
//!
//! Evaluation is read-only: the input is any [`feo_rdf::GraphView`]
//! (a `&Graph`, an [`feo_rdf::Overlay`] session, or the `&mut Graph`
//! older call sites still hold). Computed terms (query constants, BIND /
//! SELECT expressions, VALUES data) are interned into a private scratch
//! overlay that is dropped when evaluation finishes, so the caller's
//! dictionary is never polluted by the queries it answers.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use feo_rdf::governor::{Exhausted, Guard};
use feo_rdf::pool::map_chunks;
use feo_rdf::vocab::xsd;
use feo_rdf::{Graph, GraphStore, GraphView, Overlay, RunCursor, RunSpec, Term, TermId, Triple};

use crate::ast::*;
use crate::error::{Result, SparqlError};
use crate::parser::parse_query;
use crate::plan::{
    compile, BgpPlan, ElementPlan, GroupPlan, JoinAlgo, Plan, QueryOptions, HASH_JOIN_MIN_INPUT,
    PARALLEL_MIN_INPUT,
};
use crate::results::{QueryResult, SolutionTable};
use crate::value::{
    as_integer, as_numeric, as_string, ebv, order_key, str_builtin, values_compare, values_equal,
    Value,
};

/// One solution: a slot per registered variable.
type Binding = Vec<Option<TermId>>;

// Process-wide join-operator invocation counters, one per physical
// algorithm. Bumped once per operator execution (not per row) with
// relaxed ordering — they feed the service's `/stats` endpoint and the
// benchmarks' sanity checks, never synchronization.
static NESTED_JOINS: AtomicU64 = AtomicU64::new(0);
static HASH_JOINS: AtomicU64 = AtomicU64::new(0);
static MERGE_JOINS: AtomicU64 = AtomicU64::new(0);
static LEAPFROG_JOINS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the cumulative per-algorithm join-operator counts for
/// this process (at any worker count; a fused leapfrog group counts
/// once however many patterns it covers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinCounters {
    pub nested: u64,
    pub hash: u64,
    pub merge: u64,
    pub leapfrog: u64,
}

/// Reads the process-wide join counters (see [`JoinCounters`]).
pub fn join_counters() -> JoinCounters {
    JoinCounters {
        nested: NESTED_JOINS.load(Ordering::Relaxed),
        hash: HASH_JOINS.load(Ordering::Relaxed),
        merge: MERGE_JOINS.load(Ordering::Relaxed),
        leapfrog: LEAPFROG_JOINS.load(Ordering::Relaxed),
    }
}

/// Parses and executes `text` against any [`GraphView`].
///
/// The one SPARQL entry point: [`QueryOptions`] carries the execution
/// [`Guard`] (input-size cap on the query text, solution budget on
/// join-row production, deadline / cancellation polling in hot loops —
/// a tripped budget surfaces as [`SparqlError::Exhausted`]), the
/// [`Planner`] choice, and EXPLAIN mode (return the rendered plan as
/// [`QueryResult::Plan`] instead of executing).
///
/// The view is read-only; computed terms (query constants, BIND results,
/// VALUES data) are interned into a private scratch [`Overlay`] that is
/// discarded with the evaluation, so the caller's dictionary and triple
/// set are untouched. Pass `&graph` for shared reads; `&mut graph` still
/// compiles for older call sites.
pub fn query<G: GraphView + Sync>(
    graph: G,
    text: &str,
    opts: &QueryOptions,
) -> Result<QueryResult> {
    if let Some(guard) = opts.guard {
        guard.check_input(text.len())?;
    }
    let q = parse_query(text)?;
    execute(graph, &q, opts)
}

/// Executes a parsed query (see [`query`] for the options contract).
///
/// The query is compiled to a [`Plan`] for `opts.planner` before any
/// row flows; callers that reuse one plan across many executions (the
/// engine's plan cache) should compile once with [`plan_query`] and
/// call [`execute_prepared`].
pub fn execute<G: GraphView + Sync>(
    graph: G,
    q: &Query,
    opts: &QueryOptions,
) -> Result<QueryResult> {
    let plan = compile(&graph, q, opts.planner);
    execute_prepared(graph, q, &plan, opts)
}

/// Executes a parsed query with a previously compiled [`Plan`].
///
/// The plan must come from [`plan_query`] on the same query; a plan
/// that does not cover `q` fails with [`SparqlError::PlanMismatch`].
pub fn execute_prepared<G: GraphView + Sync>(
    graph: G,
    q: &Query,
    plan: &Plan,
    opts: &QueryOptions,
) -> Result<QueryResult> {
    let mut vars = VarTable::default();
    register_group_vars(&q.where_pattern, &mut vars);
    register_modifier_vars(q, &mut vars);
    if !plan.covers(q, &vars) {
        return Err(SparqlError::PlanMismatch);
    }
    if opts.explain {
        return Ok(QueryResult::Plan(plan.render(q, opts.planner)));
    }
    let mut ctx = Ctx {
        g: Overlay::new(graph),
        vars,
        exists: &plan.exists,
        force: opts.force_join,
        guard: opts.guard,
        tripped: Cell::new(None),
        workers: opts.parallelism.workers(),
    };

    let rows = ctx.eval_group(
        &q.where_pattern,
        vec![vec![None; ctx.vars.len()]],
        &plan.root,
    )?;

    let result = match &q.form {
        QueryForm::Ask => Ok(QueryResult::Boolean(!rows.is_empty())),
        QueryForm::Construct { template } => ctx.construct(template, rows),
        QueryForm::Select {
            distinct,
            reduced,
            projection,
        } => ctx.select(q, projection, *distinct || *reduced, rows),
    };
    // A trip recorded inside an infallible path (e.g. property-path
    // closure) surfaces here even if the rest of evaluation completed.
    if let Some(exhausted) = ctx.tripped.get() {
        return Err(SparqlError::Exhausted(exhausted));
    }
    result
}

/// Variable registry: maps names (and blank-node labels, prefixed with
/// `_:`) to binding slots. Registration order is deterministic, so the
/// planner (which builds its own table from the same query) sees the
/// same slot numbering as the evaluator.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarTable {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// Addresses of the query's EXISTS bodies in pre-order: a body's
    /// position here is the index of its plan in [`Plan::exists`].
    exists: Vec<usize>,
}

impl VarTable {
    fn len(&self) -> usize {
        self.names.len()
    }

    fn slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Pre-order position of `body` among the query's EXISTS bodies.
    pub(crate) fn exists_index(&self, body: &GroupPattern) -> Option<usize> {
        let addr = body as *const GroupPattern as usize;
        self.exists.iter().position(|&a| a == addr)
    }

    pub(crate) fn exists_len(&self) -> usize {
        self.exists.len()
    }
}

pub(crate) fn register_group_vars(group: &GroupPattern, vars: &mut VarTable) {
    for el in &group.elements {
        match el {
            GroupElement::Triples(ts) => {
                for t in ts {
                    register_term_vars(&t.subject, vars);
                    if let Path::Var(v) = &t.path {
                        vars.slot(v);
                    }
                    register_term_vars(&t.object, vars);
                }
            }
            GroupElement::Optional(g) | GroupElement::Minus(g) | GroupElement::Group(g) => {
                register_group_vars(g, vars)
            }
            GroupElement::Union(arms) => {
                for a in arms {
                    register_group_vars(a, vars);
                }
            }
            GroupElement::Filter(e) => register_expr_vars(e, vars),
            GroupElement::Bind(e, v) => {
                register_expr_vars(e, vars);
                vars.slot(v);
            }
            GroupElement::Values(vb) => {
                for v in &vb.vars {
                    vars.slot(v);
                }
            }
        }
    }
}

fn register_term_vars(tp: &TermPattern, vars: &mut VarTable) {
    match tp {
        TermPattern::Var(v) => {
            vars.slot(v);
        }
        TermPattern::Blank(l) => {
            vars.slot(&format!("_:{l}"));
        }
        _ => {}
    }
}

fn register_expr_vars(e: &Expr, vars: &mut VarTable) {
    match e {
        Expr::Var(v) => {
            vars.slot(v);
        }
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            register_expr_vars(a, vars);
            register_expr_vars(b, vars);
        }
        Expr::Not(a) | Expr::UnaryMinus(a) => register_expr_vars(a, vars),
        Expr::In(a, list, _) => {
            register_expr_vars(a, vars);
            for e in list {
                register_expr_vars(e, vars);
            }
        }
        Expr::Call(_, args) => {
            for a in args {
                register_expr_vars(a, vars);
            }
        }
        Expr::Exists(g, _) => {
            if vars.exists_index(g).is_none() {
                vars.exists.push(g as *const GroupPattern as usize);
            }
            register_group_vars(g, vars)
        }
        Expr::Aggregate(agg) => {
            if let Some(inner) = &agg.expr {
                register_expr_vars(inner, vars);
            }
        }
        Expr::Iri(_) | Expr::Literal(_) => {}
    }
}

pub(crate) fn register_modifier_vars(q: &Query, vars: &mut VarTable) {
    if let QueryForm::Select {
        projection: Projection::Items(items),
        ..
    } = &q.form
    {
        for item in items {
            match item {
                ProjectionItem::Var(v) => {
                    vars.slot(v);
                }
                ProjectionItem::Expr(e, v) => {
                    register_expr_vars(e, vars);
                    vars.slot(v);
                }
            }
        }
    }
    for gc in &q.modifiers.group_by {
        match gc {
            GroupCondition::Var(v) => {
                vars.slot(v);
            }
            GroupCondition::Expr(e, alias) => {
                register_expr_vars(e, vars);
                if let Some(a) = alias {
                    vars.slot(a);
                }
            }
        }
    }
    for h in &q.modifiers.having {
        register_expr_vars(h, vars);
    }
    for oc in &q.modifiers.order_by {
        register_expr_vars(&oc.expr, vars);
    }
}

struct Ctx<'a, G: GraphView> {
    /// Scratch overlay over the caller's view: reads fall through to the
    /// base, while evaluator-created terms (ground query constants not in
    /// the base dictionary, BIND/SELECT expression results, fresh blank
    /// nodes) spill into the overlay's private dictionary. A ground term
    /// absent from the base gets a spill id that matches no triple, which
    /// preserves the "unknown constant finds nothing" semantics.
    g: Overlay<G>,
    vars: VarTable,
    /// Plans of the query's EXISTS bodies, indexed as
    /// [`VarTable::exists_index`] numbers them.
    exists: &'a [GroupPlan],
    /// Join-algorithm override from [`QueryOptions::force_join`]: swaps
    /// the physical operator per planned step without touching join
    /// order (results are byte-identical under every algorithm).
    force: Option<JoinAlgo>,
    /// Execution governor; `None` runs unguarded.
    guard: Option<&'a Guard>,
    /// Trip recorded from `&self` evaluation paths (property-path
    /// closures) that cannot return a `Result`; checked at element
    /// boundaries and again when evaluation finishes.
    tripped: Cell<Option<Exhausted>>,
    /// Resolved worker count for planner-marked parallel steps; 1 keeps
    /// every join on the calling thread.
    workers: usize,
}

impl<'a, G: GraphView + Sync> Ctx<'a, G> {
    /// Amortized governor poll for `&self` hot loops. Returns true when
    /// execution should stop; the trip is stashed in `self.tripped` and
    /// surfaced as an error at the next fallible boundary.
    #[inline]
    fn guard_tripped(&self) -> bool {
        if self.tripped.get().is_some() {
            return true;
        }
        if let Some(g) = self.guard {
            if let Err(exhausted) = g.check_time() {
                self.tripped.set(Some(exhausted));
                return true;
            }
        }
        false
    }

    /// Fallible governor checkpoint: converts a recorded or fresh trip
    /// into a typed error.
    fn checkpoint(&self) -> Result<()> {
        if let Some(exhausted) = self.tripped.get() {
            return Err(SparqlError::Exhausted(exhausted));
        }
        if let Some(g) = self.guard {
            if let Err(exhausted) = g.check_time() {
                self.tripped.set(Some(exhausted));
                return Err(SparqlError::Exhausted(exhausted));
            }
        }
        Ok(())
    }

    // ---- group patterns ------------------------------------------------

    /// Evaluates one group pattern, walking `plan` in lockstep with
    /// `group.elements`: element `i` runs plan node `i`, recursing with
    /// the matching subplan.
    fn eval_group(
        &mut self,
        group: &GroupPattern,
        input: Vec<Binding>,
        plan: &GroupPlan,
    ) -> Result<Vec<Binding>> {
        let mut rows = input;
        let mut filters: Vec<&Expr> = Vec::new();
        for (el, node) in group.elements.iter().zip(&plan.elements) {
            self.checkpoint()?;
            match (el, node) {
                (GroupElement::Filter(e), _) => filters.push(e),
                (GroupElement::Triples(ts), ElementPlan::Bgp(bp)) => {
                    rows = self.eval_bgp(ts, rows, bp)?;
                }
                (GroupElement::Group(inner), ElementPlan::Group(gp)) => {
                    rows = self.eval_group(inner, rows, gp)?;
                }
                (GroupElement::Optional(inner), ElementPlan::Optional(gp)) => {
                    let mut out = Vec::new();
                    for b in rows {
                        let extended = self.eval_group(inner, vec![b.clone()], gp)?;
                        if extended.is_empty() {
                            out.push(b);
                        } else {
                            out.extend(extended);
                        }
                    }
                    rows = out;
                }
                (GroupElement::Union(arms), ElementPlan::Union(arm_plans)) => {
                    let mut out = Vec::new();
                    for (arm, ap) in arms.iter().zip(arm_plans) {
                        out.extend(self.eval_group(arm, rows.clone(), ap)?);
                    }
                    rows = out;
                }
                (GroupElement::Minus(inner), ElementPlan::Minus(gp)) => {
                    let empty = vec![vec![None; self.vars.len()]];
                    let rhs = self.eval_group(inner, empty, gp)?;
                    rows.retain(|b| {
                        !rhs.iter().any(|r| {
                            let mut shared = false;
                            for (x, y) in b.iter().zip(r.iter()) {
                                if let (Some(x), Some(y)) = (x, y) {
                                    if x != y {
                                        return false;
                                    }
                                    shared = true;
                                }
                            }
                            shared
                        })
                    });
                }
                (GroupElement::Bind(e, v), _) => {
                    let slot = self
                        .vars
                        .get(v)
                        .ok_or_else(|| SparqlError::eval("unregistered BIND variable"))?;
                    let mut out = Vec::with_capacity(rows.len());
                    for mut b in rows {
                        if b[slot].is_some() {
                            return Err(SparqlError::eval(format!(
                                "BIND would rebind already-bound variable ?{v}"
                            )));
                        }
                        if let Some(val) = self.eval_expr(e, &b) {
                            b[slot] = Some(val.into_term_id(&mut self.g));
                        }
                        out.push(b);
                    }
                    rows = out;
                }
                (GroupElement::Values(vb), _) => {
                    let slots: Vec<usize> = vb
                        .vars
                        .iter()
                        .map(|v| {
                            self.vars.get(v).ok_or_else(|| {
                                SparqlError::eval(format!("VALUES variable ?{v} is not registered"))
                            })
                        })
                        .collect::<Result<_>>()?;
                    // Intern the data terms.
                    let mut table: Vec<Vec<Option<TermId>>> = Vec::new();
                    for row in &vb.rows {
                        let mut r = Vec::with_capacity(row.len());
                        for cell in row {
                            r.push(match cell {
                                None => None,
                                Some(tp) => Some(self.intern_ground(tp)?),
                            });
                        }
                        table.push(r);
                    }
                    let mut out = Vec::new();
                    for b in &rows {
                        for trow in &table {
                            let mut merged = b.clone();
                            let mut ok = true;
                            for (slot, cell) in slots.iter().zip(trow.iter()) {
                                match (merged[*slot], cell) {
                                    (Some(x), Some(y)) if x != *y => {
                                        ok = false;
                                        break;
                                    }
                                    (None, Some(y)) => merged[*slot] = Some(*y),
                                    _ => {}
                                }
                            }
                            if ok {
                                out.push(merged);
                            }
                        }
                    }
                    rows = out;
                }
                // `Plan::covers` rules this out before evaluation starts.
                _ => return Err(SparqlError::PlanMismatch),
            }
        }
        for f in filters {
            let mut kept = Vec::with_capacity(rows.len());
            for b in rows {
                if self.filter_passes(f, &b)? {
                    kept.push(b);
                }
            }
            rows = kept;
        }
        Ok(rows)
    }

    fn filter_passes(&mut self, e: &Expr, b: &Binding) -> Result<bool> {
        // EXISTS needs mutable evaluation; handle at this level.
        Ok(match self.eval_expr(e, b) {
            Some(v) => ebv(&self.g, &v) == Some(true),
            None => false,
        })
    }

    // ---- BGP -------------------------------------------------------------

    /// Executes `plan`'s join order with each step's join algorithm.
    /// Consecutive steps sharing a star-group id run as one fused
    /// leapfrog intersection; `force_join` swaps operators without
    /// touching order.
    fn eval_bgp(
        &mut self,
        patterns: &[TriplePattern],
        input: Vec<Binding>,
        plan: &BgpPlan,
    ) -> Result<Vec<Binding>> {
        let mut rows = input;
        let mut i = 0;
        while i < plan.steps.len() {
            let step = &plan.steps[i];
            // Planner-marked parallel steps fan out only when a pool is
            // configured and the input side is wide enough to amortize
            // worker startup.
            let par = self.workers > 1 && step.parallel && rows.len() >= PARALLEL_MIN_INPUT;
            if let Some(gid) = step.star {
                let mut j = i + 1;
                while j < plan.steps.len() && plan.steps[j].star == Some(gid) {
                    j += 1;
                }
                // A forced non-leapfrog algorithm splits the group into
                // its members; each then executes below under the forced
                // operator.
                if j - i >= 2 && matches!(self.force, None | Some(JoinAlgo::Leapfrog)) {
                    let members: Vec<&TriplePattern> = plan.steps[i..j]
                        .iter()
                        .map(|s| &patterns[s.pattern])
                        .collect();
                    rows = self.match_star_leapfrog(&members, rows, par)?;
                    if rows.is_empty() {
                        break;
                    }
                    i = j;
                    continue;
                }
            }
            let tp = &patterns[step.pattern];
            // Forcing an algorithm bypasses the input-width gate so
            // differential tests exercise the operator on any row count;
            // the planner's own choices keep it.
            let (algo, forced) = match self.force {
                None | Some(JoinAlgo::Leapfrog) => {
                    // A star member reaching here has no group to
                    // intersect with; nested is the per-step equivalent.
                    let a = match step.algo {
                        JoinAlgo::Leapfrog => JoinAlgo::Nested,
                        a => a,
                    };
                    (a, false)
                }
                Some(a) => (a, true),
            };
            let wide = forced || rows.len() >= HASH_JOIN_MIN_INPUT;
            rows = match algo {
                JoinAlgo::Hash if wide => self.match_triple_pattern_hash(tp, rows, par)?,
                JoinAlgo::Merge if wide => self.match_triple_pattern_merge(tp, rows, par)?,
                _ => self.match_triple_pattern(tp, rows, par)?,
            };
            if rows.is_empty() {
                break;
            }
            i += 1;
        }
        Ok(rows)
    }

    /// Nested-loop join: each input row runs its own index range scan,
    /// narrowed by the row's bindings; a variable repeated in the
    /// pattern (`?x p ?x`) keeps only matches that agree on it. Ground
    /// terms and the predicate resolve once up front. Complex property
    /// paths run their closure evaluator, which records trips on
    /// `self`, on the calling thread whatever `par` says.
    fn match_triple_pattern(
        &mut self,
        tp: &TriplePattern,
        rows: Vec<Binding>,
        par: bool,
    ) -> Result<Vec<Binding>> {
        NESTED_JOINS.fetch_add(1, Ordering::Relaxed);
        let s_slot = self.term_slot(&tp.subject);
        let o_slot = self.term_slot(&tp.object);
        let s_ground = self.ground_id(&tp.subject)?;
        let o_ground = self.ground_id(&tp.object)?;
        let endpoints = move |b: &Binding| {
            (
                s_ground.or_else(|| s_slot.and_then(|sl| b[sl])),
                o_ground.or_else(|| o_slot.and_then(|sl| b[sl])),
            )
        };
        let (p_fixed, p_slot) = match &tp.path {
            Path::Iri(p) => match self.g.lookup_iri(p) {
                Some(id) => (Some(id), None),
                // Unknown predicate: every row finds nothing.
                None => return Ok(Vec::new()),
            },
            Path::Var(v) => (None, self.vars.get(v)),
            path => {
                let this = &*self;
                let chunk = probe_rows(self.guard, rows, |b, out| {
                    let (s_val, o_val) = endpoints(&b);
                    for (ms, mo) in this.eval_path(path, s_val, o_val) {
                        let mut nb = b.clone();
                        if bind(&mut nb, s_slot, ms) && bind(&mut nb, o_slot, mo) {
                            out.push(nb);
                        }
                    }
                });
                return self.merge_partitions(vec![chunk]);
            }
        };
        let g = &self.g;
        self.join_rows(rows, par, |b, out| {
            let (s_val, o_val) = endpoints(&b);
            let p_val = p_fixed.or_else(|| p_slot.and_then(|sl| b[sl]));
            for [ms, mp, mo] in g.match_pattern(s_val, p_val, o_val) {
                let mut nb = b.clone();
                if bind(&mut nb, s_slot, ms)
                    && bind(&mut nb, p_slot, mp)
                    && bind(&mut nb, o_slot, mo)
                {
                    out.push(nb);
                }
            }
        })
    }

    /// Hash-join variant of [`Self::match_triple_pattern`] for plain-IRI
    /// predicates: one index scan over the pattern's predicate (narrowed
    /// by any ground endpoints) builds the join side, then each input
    /// row probes hash maps instead of running its own B-tree range
    /// scan. Rows in one solution set can differ in which endpoint
    /// variables they bind (OPTIONAL, UNION), so one boundness pass
    /// decides which probe structures to build. Each subject/object
    /// index is a list of shards hashed from contiguous slices of the
    /// scan and keyed by global scan index; probing the shards in order
    /// yields per-key hits in scan order for every worker count.
    fn match_triple_pattern_hash(
        &mut self,
        tp: &TriplePattern,
        rows: Vec<Binding>,
        par: bool,
    ) -> Result<Vec<Binding>> {
        let Path::Iri(p) = &tp.path else {
            // Planner only marks plain predicates; stay correct anyway.
            return self.match_triple_pattern(tp, rows, par);
        };
        HASH_JOINS.fetch_add(1, Ordering::Relaxed);
        let Some(p_id) = self.g.lookup_iri(p) else {
            // Unknown predicate: every row finds nothing.
            return Ok(Vec::new());
        };
        let s_slot = self.term_slot(&tp.subject);
        let o_slot = self.term_slot(&tp.object);
        let s_ground = self.ground_id(&tp.subject)?;
        let o_ground = self.ground_id(&tp.object)?;
        let scan: Vec<[TermId; 3]> = self.g.match_pattern(s_ground, Some(p_id), o_ground);
        let (mut need_s, mut need_o, mut need_so) = (false, false, false);
        for b in &rows {
            let sb = s_slot.and_then(|sl| b[sl]).is_some();
            let ob = o_slot.and_then(|sl| b[sl]).is_some();
            match (sb, ob) {
                (true, true) => need_so = true,
                (true, false) => need_s = true,
                (false, true) => need_o = true,
                (false, false) => {}
            }
        }
        let workers = if par { self.workers } else { 1 };
        let by_s = if need_s {
            build_shards(workers, &scan, 0)
        } else {
            Vec::new()
        };
        let by_o = if need_o {
            build_shards(workers, &scan, 2)
        } else {
            Vec::new()
        };
        let by_so: HashSet<(TermId, TermId)> = if need_so {
            scan.iter().map(|t| (t[0], t[2])).collect()
        } else {
            HashSet::new()
        };
        self.join_rows(rows, par, |b, out| {
            match (s_slot.and_then(|sl| b[sl]), o_slot.and_then(|sl| b[sl])) {
                (Some(sv), Some(ov)) => {
                    if by_so.contains(&(sv, ov)) {
                        out.push(b);
                    }
                }
                (Some(sv), None) => extend_hits(out, &b, &scan, shard_hits(&by_s, sv), o_slot, 2),
                (None, Some(ov)) => extend_hits(out, &b, &scan, shard_hits(&by_o, ov), s_slot, 0),
                (None, None) => extend_scan(out, &b, &scan, s_slot, o_slot),
            }
        })
    }

    /// Sorted-merge variant of [`Self::match_triple_pattern_hash`]: the
    /// planner marks joins whose one-predicate scan arrives already
    /// ordered on the join column (`pos` scans sort by object, per-
    /// subject `spo` scans by object, per-object scans by subject), so
    /// instead of hashing the scan this operator binary-searches a
    /// sorted key directory built in one linear pass. Layered views
    /// concatenate per-layer sorted ranges; a linear sortedness check
    /// catches that case and one stable sort by key restores the
    /// directory invariant while keeping per-key hits in scan order —
    /// the exact hit sequence the hash path's shards yield, so results
    /// stay byte-identical. Rows whose boundness does not match the key
    /// column (OPTIONAL / UNION mixtures) probe the hash operator's
    /// shards on the other column, built only when a boundness pass
    /// finds such a row.
    fn match_triple_pattern_merge(
        &mut self,
        tp: &TriplePattern,
        rows: Vec<Binding>,
        par: bool,
    ) -> Result<Vec<Binding>> {
        let Path::Iri(p) = &tp.path else {
            // Planner only marks plain predicates; stay correct anyway.
            return self.match_triple_pattern(tp, rows, par);
        };
        MERGE_JOINS.fetch_add(1, Ordering::Relaxed);
        let Some(p_id) = self.g.lookup_iri(p) else {
            // Unknown predicate: every row finds nothing.
            return Ok(Vec::new());
        };
        let s_slot = self.term_slot(&tp.subject);
        let o_slot = self.term_slot(&tp.object);
        let s_ground = self.ground_id(&tp.subject)?;
        let o_ground = self.ground_id(&tp.object)?;
        let scan: Vec<[TermId; 3]> = self.g.match_pattern(s_ground, Some(p_id), o_ground);
        let key_col = merge_key_col(s_ground, o_ground);
        let dir = KeyDirectory::build(&scan, key_col);
        // Off-key rows bind only the non-key column's variable; the
        // fallback binds the key column's variable from its hits.
        let (other_col, key_slot, other_slot) = if key_col == 0 {
            (2, s_slot, o_slot)
        } else {
            (0, o_slot, s_slot)
        };
        let off_key = rows.iter().any(|b| {
            key_slot.and_then(|sl| b[sl]).is_none() && other_slot.and_then(|sl| b[sl]).is_some()
        });
        let workers = if par { self.workers } else { 1 };
        let fallback = if off_key {
            build_shards(workers, &scan, other_col)
        } else {
            Vec::new()
        };
        self.join_rows(rows, par, |b, out| {
            match (
                key_slot.and_then(|sl| b[sl]),
                other_slot.and_then(|sl| b[sl]),
            ) {
                (Some(kv), Some(ov)) => {
                    if dir.hits(kv).iter().any(|&i| scan[i][other_col] == ov) {
                        out.push(b);
                    }
                }
                (Some(kv), None) => extend_hits(
                    out,
                    &b,
                    &scan,
                    dir.hits(kv).iter().copied(),
                    other_slot,
                    other_col,
                ),
                (None, Some(ov)) => {
                    extend_hits(out, &b, &scan, shard_hits(&fallback, ov), key_slot, key_col)
                }
                (None, None) => extend_scan(out, &b, &scan, s_slot, o_slot),
            }
        })
    }

    /// Fused multiway star join: `members` are k triple patterns sharing
    /// one variable, each with a plain-IRI predicate and a ground other
    /// endpoint, so each contributes an ordered run (see
    /// [`feo_rdf::RunSpec`]) over the shared variable's candidates. A
    /// leapfrog intersection seeks the k cursors through each other's
    /// gaps — O(k · min-run · log) instead of scanning and hashing every
    /// run — and the accepted values then extend the input rows.
    ///
    /// Output order is byte-identical to executing the members as
    /// sequential binary joins: each accepted value is tagged with the
    /// layer ([`RunCursor::source`]) it came from in the *first*
    /// member's cursor, and emission sorts by `(source, id)` — exactly
    /// the concatenated scan order `match_pattern` yields for that
    /// member, while the remaining members act as pure filters.
    fn match_star_leapfrog(
        &mut self,
        members: &[&TriplePattern],
        rows: Vec<Binding>,
        par: bool,
    ) -> Result<Vec<Binding>> {
        // Resolve the shared slot and one run spec per member; any shape
        // the planner would not have fused (stale plan) falls back to
        // nested execution, which is always correct.
        let mut v_slot: Option<usize> = None;
        let mut specs: Vec<RunSpec> = Vec::with_capacity(members.len());
        for tp in members {
            let Path::Iri(p) = &tp.path else {
                return self.star_fallback(members, rows);
            };
            let p_id = self.g.lookup_iri(p);
            let s_slot = self.term_slot(&tp.subject);
            let o_slot = self.term_slot(&tp.object);
            let (slot, spec) = match (s_slot, o_slot) {
                (Some(slot), None) => {
                    let o = self.intern_ground(&tp.object)?;
                    (slot, p_id.map(|p| RunSpec::Subjects { p, o }))
                }
                (None, Some(slot)) => {
                    let s = self.intern_ground(&tp.subject)?;
                    (slot, p_id.map(|p| RunSpec::Objects { s, p }))
                }
                _ => return self.star_fallback(members, rows),
            };
            if *v_slot.get_or_insert(slot) != slot {
                return self.star_fallback(members, rows);
            }
            match spec {
                Some(sp) => specs.push(sp),
                // Unknown predicate: that member matches nothing, so the
                // whole intersection is empty (the hash operator returns
                // the same empty solution set).
                None => return Ok(Vec::new()),
            }
        }
        let Some(v_slot) = v_slot else {
            return self.star_fallback(members, rows);
        };
        LEAPFROG_JOINS.fetch_add(1, Ordering::Relaxed);

        // Intersect the k ordered runs: repeatedly seek every cursor to
        // the current maximum until all agree, accept, advance the
        // anchor (the first member — the planner sorts the smallest
        // estimated run first).
        let mut inter: Vec<(usize, TermId)> = Vec::new();
        {
            let mut cursors: Vec<Box<dyn RunCursor + '_>> =
                specs.iter().map(|&sp| self.g.ordered_run(sp)).collect();
            let mut ticks = 0u32;
            'outer: while let Some(first) = cursors[0].peek() {
                let mut hi = first;
                loop {
                    let mut agreed = true;
                    for c in cursors.iter_mut() {
                        c.seek(hi);
                        match c.peek() {
                            None => break 'outer,
                            Some(v) if v > hi => {
                                hi = v;
                                agreed = false;
                            }
                            Some(_) => {}
                        }
                    }
                    ticks += cursors.len() as u32;
                    if ticks >= 1024 {
                        ticks = 0;
                        self.checkpoint()?;
                    }
                    if agreed {
                        break;
                    }
                }
                inter.push((cursors[0].source(), hi));
                cursors[0].advance();
            }
        }

        // Ascending ids for bound-row membership tests; emission order
        // for unbound rows re-sorts by (source, id) — stable, and values
        // within one source are already ascending.
        let sorted_v: Vec<TermId> = inter.iter().map(|&(_, v)| v).collect();
        let mut emit = inter;
        emit.sort_by_key(|&(src, _)| src);

        self.join_rows(rows, par, |b, out| match b[v_slot] {
            // Already-bound shared variable (OPTIONAL / UNION rows):
            // membership test against the intersection.
            Some(v) => {
                if sorted_v.binary_search(&v).is_ok() {
                    out.push(b);
                }
            }
            None => {
                for &(_, v) in &emit {
                    let mut nb = b.clone();
                    nb[v_slot] = Some(v);
                    out.push(nb);
                }
            }
        })
    }

    /// Stale-plan escape for [`Self::match_star_leapfrog`]: executes the
    /// group members as sequential nested-loop joins, which is correct
    /// for any pattern shape.
    fn star_fallback(
        &mut self,
        members: &[&TriplePattern],
        rows: Vec<Binding>,
    ) -> Result<Vec<Binding>> {
        let mut rows = rows;
        for tp in members {
            rows = self.match_triple_pattern(tp, rows, false)?;
            if rows.is_empty() {
                break;
            }
        }
        Ok(rows)
    }

    /// The row driver every join operator hands its per-row `probe` to.
    /// With `par` set and more than one worker the rows split into
    /// contiguous chunks across the pool ([`map_chunks`] keeps small
    /// inputs inline); otherwise they run, by value, on the calling
    /// thread. `probe` must be item-local, so chunk outputs concatenated
    /// in pinned order equal the one-thread output for every worker
    /// count.
    fn join_rows<F>(&self, rows: Vec<Binding>, par: bool, probe: F) -> Result<Vec<Binding>>
    where
        F: Fn(Binding, &mut Vec<Binding>) + Sync,
    {
        let guard = self.guard;
        let chunks = if par && self.workers > 1 {
            map_chunks(self.workers, PARALLEL_MIN_INPUT, &rows, |_, chunk| {
                probe_rows(guard, chunk.iter().cloned(), &probe)
            })
        } else {
            vec![probe_rows(guard, rows, &probe)]
        };
        self.merge_partitions(chunks)
    }

    /// Concatenates per-chunk outputs in pinned order (a lone chunk is
    /// returned as is); the first trip (if any) is recorded and surfaced
    /// as a typed error.
    fn merge_partitions(
        &self,
        chunks: Vec<(Vec<Binding>, Option<Exhausted>)>,
    ) -> Result<Vec<Binding>> {
        let mut out = Vec::new();
        let mut trip: Option<Exhausted> = None;
        for (chunk_out, chunk_trip) in chunks {
            if out.is_empty() {
                out = chunk_out;
            } else {
                out.extend(chunk_out);
            }
            trip = trip.or(chunk_trip);
        }
        if let Some(e) = trip {
            self.tripped.set(Some(e));
            return Err(SparqlError::Exhausted(e));
        }
        Ok(out)
    }

    fn term_slot(&self, tp: &TermPattern) -> Option<usize> {
        match tp {
            TermPattern::Var(v) => self.vars.get(v),
            TermPattern::Blank(l) => self.vars.get(&format!("_:{l}")),
            _ => None,
        }
    }

    /// The id of a ground position; `None` for variables and blank
    /// nodes. Ground terms that are not in the dictionary get a scratch
    /// id by interning, so the pattern simply finds nothing.
    fn ground_id(&mut self, tp: &TermPattern) -> Result<Option<TermId>> {
        Ok(match tp {
            TermPattern::Var(_) | TermPattern::Blank(_) => None,
            ground => Some(self.intern_ground(ground)?),
        })
    }

    fn intern_ground(&mut self, tp: &TermPattern) -> Result<TermId> {
        let term = ground_to_term(tp)
            .ok_or_else(|| SparqlError::eval("variable where a ground term was expected"))?;
        Ok(self.g.intern(&term))
    }

    // ---- property paths ---------------------------------------------------

    /// All `(start, end)` node pairs related by `path`, restricted by the
    /// optionally bound endpoints.
    fn eval_path(
        &self,
        path: &Path,
        s: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<(TermId, TermId)> {
        match path {
            Path::Iri(p) => match self.g.lookup_iri(p) {
                Some(pid) => self
                    .g
                    .match_pattern(s, Some(pid), o)
                    .into_iter()
                    .map(|t| (t[0], t[2]))
                    .collect(),
                None => Vec::new(),
            },
            // Variable predicates are handled in match_triple_pattern; a
            // bare variable reaching here matches nothing rather than
            // panicking.
            Path::Var(_) => Vec::new(),
            Path::Inverse(inner) => self
                .eval_path(inner, o, s)
                .into_iter()
                .map(|(a, b)| (b, a))
                .collect(),
            Path::Sequence(first, second) => {
                let mut out = Vec::new();
                let mut seen = HashSet::new();
                for (a, mid) in self.eval_path(first, s, None) {
                    if self.guard_tripped() {
                        break;
                    }
                    for (_, b) in self.eval_path(second, Some(mid), o) {
                        if seen.insert((a, b)) {
                            out.push((a, b));
                        }
                    }
                }
                out
            }
            Path::Alternative(l, r) => {
                let mut out = self.eval_path(l, s, o);
                let seen: HashSet<(TermId, TermId)> = out.iter().copied().collect();
                for pair in self.eval_path(r, s, o) {
                    if !seen.contains(&pair) {
                        out.push(pair);
                    }
                }
                out
            }
            Path::ZeroOrOne(inner) => {
                let mut out = self.zero_length_pairs(s, o);
                let seen: HashSet<(TermId, TermId)> = out.iter().copied().collect();
                for pair in self.eval_path(inner, s, o) {
                    if !seen.contains(&pair) {
                        out.push(pair);
                    }
                }
                out
            }
            Path::ZeroOrMore(inner) => self.closure_pairs(inner, s, o, true),
            Path::OneOrMore(inner) => self.closure_pairs(inner, s, o, false),
            Path::Negated(members) => {
                let forward: HashSet<TermId> = members
                    .iter()
                    .filter(|(_, inv)| !inv)
                    .filter_map(|(iri, _)| self.g.lookup_iri(iri))
                    .collect();
                let has_forward = members.iter().any(|(_, inv)| !inv);
                let inverse: HashSet<TermId> = members
                    .iter()
                    .filter(|(_, inv)| *inv)
                    .filter_map(|(iri, _)| self.g.lookup_iri(iri))
                    .collect();
                let has_inverse = members.iter().any(|(_, inv)| *inv);
                let mut out = Vec::new();
                let mut seen = HashSet::new();
                if has_forward {
                    for [ms, mp, mo] in self.g.match_pattern(s, None, o) {
                        if !forward.contains(&mp) && seen.insert((ms, mo)) {
                            out.push((ms, mo));
                        }
                    }
                }
                if has_inverse {
                    for [ms, mp, mo] in self.g.match_pattern(o, None, s) {
                        if !inverse.contains(&mp) && seen.insert((mo, ms)) {
                            out.push((mo, ms));
                        }
                    }
                }
                out
            }
        }
    }

    /// Pairs related by a zero-length path: every graph node to itself.
    fn zero_length_pairs(&self, s: Option<TermId>, o: Option<TermId>) -> Vec<(TermId, TermId)> {
        match (s, o) {
            (Some(a), Some(b)) => {
                if a == b {
                    vec![(a, a)]
                } else {
                    Vec::new()
                }
            }
            (Some(a), None) => vec![(a, a)],
            (None, Some(b)) => vec![(b, b)],
            (None, None) => self.all_nodes().into_iter().map(|n| (n, n)).collect(),
        }
    }

    fn all_nodes(&self) -> Vec<TermId> {
        let mut out: std::collections::BTreeSet<TermId> = Default::default();
        for [s, _, o] in self.g.iter_ids() {
            out.insert(s);
            out.insert(o);
        }
        out.into_iter().collect()
    }

    /// Transitive closure pairs for `inner*` / `inner+`.
    fn closure_pairs(
        &self,
        inner: &Path,
        s: Option<TermId>,
        o: Option<TermId>,
        include_zero: bool,
    ) -> Vec<(TermId, TermId)> {
        let starts: Vec<TermId> = match (s, o) {
            (Some(a), _) => vec![a],
            (None, Some(_)) => {
                // Walk backward from the object instead.
                let inv = Path::Inverse(Box::new(inner.clone()));
                return self
                    .closure_pairs(&inv, o, s, include_zero)
                    .into_iter()
                    .map(|(a, b)| (b, a))
                    .collect();
            }
            (None, None) => self.all_nodes(),
        };
        let mut out = Vec::new();
        for start in starts {
            if self.guard_tripped() {
                break;
            }
            let mut reached: HashSet<TermId> = HashSet::new();
            let mut frontier = vec![start];
            if include_zero {
                reached.insert(start);
            }
            while let Some(node) = frontier.pop() {
                if self.guard_tripped() {
                    break;
                }
                for (_, next) in self.eval_path(inner, Some(node), None) {
                    if reached.insert(next) {
                        frontier.push(next);
                    }
                }
            }
            for end in reached {
                match o {
                    Some(target) if end != target => {}
                    _ => out.push((start, end)),
                }
            }
        }
        out.sort();
        out
    }

    // ---- expressions ----------------------------------------------------

    /// Evaluates an expression; `None` is the SPARQL "error" value.
    fn eval_expr(&mut self, e: &Expr, b: &Binding) -> Option<Value> {
        match e {
            Expr::Var(v) => self.vars.get(v).and_then(|s| b[s]).map(Value::Term),
            Expr::Iri(iri) => Some(Value::Term(self.g.intern_iri(iri))),
            Expr::Literal(l) => Some(self.literal_value(l)),
            Expr::Or(x, y) => {
                let l = self.eval_expr(x, b).and_then(|v| ebv(&self.g, &v));
                let r = self.eval_expr(y, b).and_then(|v| ebv(&self.g, &v));
                match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            Expr::And(x, y) => {
                let l = self.eval_expr(x, b).and_then(|v| ebv(&self.g, &v));
                let r = self.eval_expr(y, b).and_then(|v| ebv(&self.g, &v));
                match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => None,
                }
            }
            Expr::Not(x) => {
                let v = self.eval_expr(x, b)?;
                ebv(&self.g, &v).map(|t| Value::Bool(!t))
            }
            Expr::Compare(op, x, y) => {
                let l = self.eval_expr(x, b)?;
                let r = self.eval_expr(y, b)?;
                self.compare(*op, &l, &r).map(Value::Bool)
            }
            Expr::Arith(op, x, y) => {
                let l = self.eval_expr(x, b)?;
                let r = self.eval_expr(y, b)?;
                self.arith(*op, &l, &r)
            }
            Expr::UnaryMinus(x) => {
                let v = self.eval_expr(x, b)?;
                match v {
                    Value::Int(i) => Some(Value::Int(-i)),
                    other => as_numeric(&self.g, &other).map(|n| Value::Num(-n)),
                }
            }
            Expr::In(x, list, negated) => {
                let needle = self.eval_expr(x, b)?;
                let mut found = false;
                for item in list {
                    let v = self.eval_expr(item, b)?;
                    if values_equal(&self.g, &needle, &v) == Some(true) {
                        found = true;
                        break;
                    }
                }
                Some(Value::Bool(found != *negated))
            }
            Expr::Call(builtin, args) => self.call(*builtin, args, b),
            Expr::Exists(group, negated) => {
                let exists = self.exists;
                let plan = self.vars.exists_index(group).and_then(|i| exists.get(i))?;
                let found = match self.eval_group(group, vec![b.clone()], plan) {
                    Ok(rows) => !rows.is_empty(),
                    Err(_) => false,
                };
                Some(Value::Bool(found != *negated))
            }
            Expr::Aggregate(_) => None, // only valid in aggregation context
        }
    }

    fn literal_value(&mut self, l: &LiteralPattern) -> Value {
        match (&l.language, &l.datatype) {
            (Some(lang), _) => Value::Str {
                s: l.lexical.clone(),
                lang: Some(lang.clone()),
            },
            (None, None) => Value::Str {
                s: l.lexical.clone(),
                lang: None,
            },
            (None, Some(dt)) if dt == xsd::BOOLEAN => {
                Value::Bool(l.lexical == "true" || l.lexical == "1")
            }
            (None, Some(dt)) if xsd::is_integer_type(dt) => {
                l.lexical.parse().map(Value::Int).unwrap_or(Value::Str {
                    s: l.lexical.clone(),
                    lang: None,
                })
            }
            (None, Some(dt)) if xsd::is_numeric_type(dt) => {
                l.lexical.parse().map(Value::Num).unwrap_or(Value::Str {
                    s: l.lexical.clone(),
                    lang: None,
                })
            }
            (None, Some(dt)) => {
                let term = Term::Literal(feo_rdf::Literal::typed(
                    l.lexical.clone(),
                    feo_rdf::Iri::new(dt.clone()),
                ));
                Value::Term(self.g.intern(&term))
            }
        }
    }

    fn compare(&self, op: CompareOp, l: &Value, r: &Value) -> Option<bool> {
        use std::cmp::Ordering;
        match op {
            CompareOp::Eq => values_equal(&self.g, l, r),
            CompareOp::Ne => values_equal(&self.g, l, r).map(|b| !b),
            _ => {
                let ord = values_compare(&self.g, l, r)?;
                Some(match op {
                    CompareOp::Lt => ord == Ordering::Less,
                    CompareOp::Le => ord != Ordering::Greater,
                    CompareOp::Gt => ord == Ordering::Greater,
                    CompareOp::Ge => ord != Ordering::Less,
                    // Eq/Ne are handled by the outer match arms.
                    CompareOp::Eq | CompareOp::Ne => return None,
                })
            }
        }
    }

    fn arith(&self, op: ArithOp, l: &Value, r: &Value) -> Option<Value> {
        // Integer arithmetic stays integral except division.
        if let (Value::Int(a), Value::Int(b)) = (l, r) {
            return match op {
                ArithOp::Add => Some(Value::Int(a.checked_add(*b)?)),
                ArithOp::Sub => Some(Value::Int(a.checked_sub(*b)?)),
                ArithOp::Mul => Some(Value::Int(a.checked_mul(*b)?)),
                ArithOp::Div => {
                    if *b == 0 {
                        None
                    } else {
                        Some(Value::Num(*a as f64 / *b as f64))
                    }
                }
            };
        }
        let a = as_numeric(&self.g, l)?;
        let b = as_numeric(&self.g, r)?;
        // Preserve integrality when both terms are integer-typed literals.
        let both_int = as_integer(&self.g, l).is_some() && as_integer(&self.g, r).is_some();
        let result = match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => {
                if b == 0.0 {
                    return None;
                }
                a / b
            }
        };
        if both_int && result.fract() == 0.0 && !matches!(op, ArithOp::Div) {
            Some(Value::Int(result as i64))
        } else {
            Some(Value::Num(result))
        }
    }

    fn call(&mut self, builtin: Builtin, args: &[Expr], b: &Binding) -> Option<Value> {
        use Builtin::*;
        // BOUND and COALESCE/IF must control evaluation of their args.
        match builtin {
            Bound => {
                let Expr::Var(v) = &args[0] else { return None };
                let bound = self.vars.get(v).and_then(|s| b[s]).is_some();
                return Some(Value::Bool(bound));
            }
            Coalesce => {
                for a in args {
                    if let Some(v) = self.eval_expr(a, b) {
                        return Some(v);
                    }
                }
                return None;
            }
            If => {
                if args.len() != 3 {
                    return None;
                }
                let c = self.eval_expr(&args[0], b)?;
                return match ebv(&self.g, &c)? {
                    true => self.eval_expr(&args[1], b),
                    false => self.eval_expr(&args[2], b),
                };
            }
            _ => {}
        }

        let vals: Option<Vec<Value>> = args.iter().map(|a| self.eval_expr(a, b)).collect();
        let vals = vals?;
        match builtin {
            // Already returned from the lazy-evaluation block above.
            Bound | Coalesce | If => None,
            Str => str_builtin(&self.g, vals.first()?).map(|s| Value::Str { s, lang: None }),
            Lang => {
                let v = vals.first()?;
                let lang = match v {
                    Value::Term(id) => match self.g.term(*id) {
                        Term::Literal(l) => l.language().unwrap_or("").to_string(),
                        _ => return None,
                    },
                    Value::Str { lang, .. } => lang.clone().unwrap_or_default(),
                    _ => return None,
                };
                Some(Value::Str {
                    s: lang,
                    lang: None,
                })
            }
            LangMatches => {
                let (tag, _) = as_string(&self.g, vals.first()?)?;
                let (range, _) = as_string(&self.g, vals.get(1)?)?;
                let m = if range == "*" {
                    !tag.is_empty()
                } else {
                    tag.eq_ignore_ascii_case(&range)
                        || tag
                            .to_ascii_lowercase()
                            .starts_with(&format!("{}-", range.to_ascii_lowercase()))
                };
                Some(Value::Bool(m))
            }
            Datatype => {
                let v = vals.first()?;
                let dt = match v {
                    Value::Term(id) => match self.g.term(*id) {
                        Term::Literal(l) => l.datatype().as_str().to_string(),
                        _ => return None,
                    },
                    Value::Bool(_) => xsd::BOOLEAN.to_string(),
                    Value::Int(_) => xsd::INTEGER.to_string(),
                    Value::Num(_) => xsd::DOUBLE.to_string(),
                    Value::Str { lang: None, .. } => xsd::STRING.to_string(),
                    Value::Str { lang: Some(_), .. } => {
                        feo_rdf::vocab::rdf::LANG_STRING.to_string()
                    }
                    Value::IriStr(_) => return None,
                };
                Some(Value::IriStr(dt))
            }
            Iri => {
                let s = str_builtin(&self.g, vals.first()?)?;
                Some(Value::IriStr(s))
            }
            BNode => {
                let id = self.g.fresh_bnode();
                Some(Value::Term(id))
            }
            StrLen => {
                let (s, _) = as_string(&self.g, vals.first()?)?;
                Some(Value::Int(s.chars().count() as i64))
            }
            UCase => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                Some(Value::Str {
                    s: s.to_uppercase(),
                    lang,
                })
            }
            LCase => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                Some(Value::Str {
                    s: s.to_lowercase(),
                    lang,
                })
            }
            Contains => {
                let (h, _) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(Value::Bool(h.contains(&n)))
            }
            StrStarts => {
                let (h, _) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(Value::Bool(h.starts_with(&n)))
            }
            StrEnds => {
                let (h, _) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(Value::Bool(h.ends_with(&n)))
            }
            StrBefore => {
                let (h, lang) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(match h.find(&n) {
                    Some(i) => Value::Str {
                        s: h[..i].to_string(),
                        lang,
                    },
                    None => Value::Str {
                        s: String::new(),
                        lang: None,
                    },
                })
            }
            StrAfter => {
                let (h, lang) = as_string(&self.g, vals.first()?)?;
                let (n, _) = as_string(&self.g, vals.get(1)?)?;
                Some(match h.find(&n) {
                    Some(i) => Value::Str {
                        s: h[i + n.len()..].to_string(),
                        lang,
                    },
                    None => Value::Str {
                        s: String::new(),
                        lang: None,
                    },
                })
            }
            SubStr => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                let start = as_integer(&self.g, vals.get(1)?)?;
                let chars: Vec<char> = s.chars().collect();
                let from = (start.max(1) - 1) as usize;
                let taken: String = match vals.get(2) {
                    Some(len_v) => {
                        let len = as_integer(&self.g, len_v)?.max(0) as usize;
                        chars.iter().skip(from).take(len).collect()
                    }
                    None => chars.iter().skip(from).collect(),
                };
                Some(Value::Str { s: taken, lang })
            }
            Replace => {
                let (s, lang) = as_string(&self.g, vals.first()?)?;
                let (pat, _) = as_string(&self.g, vals.get(1)?)?;
                let (rep, _) = as_string(&self.g, vals.get(2)?)?;
                let flags = match vals.get(3) {
                    Some(v) => as_string(&self.g, v)?.0,
                    None => String::new(),
                };
                let re = crate::regexlite::Regex::new(&pat, &flags).ok()?;
                Some(Value::Str {
                    s: re.replace_all(&s, &rep),
                    lang,
                })
            }
            Concat => {
                let mut out = String::new();
                for v in &vals {
                    out.push_str(&str_builtin(&self.g, v)?);
                }
                Some(Value::Str { s: out, lang: None })
            }
            Regex => {
                let (text, _) = as_string(&self.g, vals.first()?)?;
                let (pat, _) = as_string(&self.g, vals.get(1)?)?;
                let flags = match vals.get(2) {
                    Some(v) => as_string(&self.g, v)?.0,
                    None => String::new(),
                };
                let re = crate::regexlite::Regex::new(&pat, &flags).ok()?;
                Some(Value::Bool(re.is_match(&text)))
            }
            Abs => as_numeric(&self.g, vals.first()?).map(|n| Value::Num(n.abs())),
            Ceil => as_numeric(&self.g, vals.first()?).map(|n| Value::Num(n.ceil())),
            Floor => as_numeric(&self.g, vals.first()?).map(|n| Value::Num(n.floor())),
            Round => as_numeric(&self.g, vals.first()?).map(|n| Value::Num(n.round())),
            SameTerm => {
                let a = vals.first()?;
                let c = vals.get(1)?;
                match (a, c) {
                    (Value::Term(x), Value::Term(y)) => Some(Value::Bool(x == y)),
                    _ => values_equal(&self.g, a, c).map(Value::Bool),
                }
            }
            IsIri => Some(Value::Bool(match vals.first()? {
                Value::Term(id) => self.g.term(*id).is_iri(),
                Value::IriStr(_) => true,
                _ => false,
            })),
            IsBlank => Some(Value::Bool(match vals.first()? {
                Value::Term(id) => self.g.term(*id).is_blank(),
                _ => false,
            })),
            IsLiteral => Some(Value::Bool(match vals.first()? {
                Value::Term(id) => self.g.term(*id).is_literal(),
                Value::Bool(_) | Value::Int(_) | Value::Num(_) | Value::Str { .. } => true,
                Value::IriStr(_) => false,
            })),
            IsNumeric => Some(Value::Bool(as_numeric(&self.g, vals.first()?).is_some())),
        }
    }

    // ---- SELECT finalization ---------------------------------------------

    fn select(
        &mut self,
        q: &Query,
        projection: &Projection,
        distinct: bool,
        rows: Vec<Binding>,
    ) -> Result<QueryResult> {
        let aggregating = !q.modifiers.group_by.is_empty()
            || matches!(projection, Projection::Items(items)
                if items.iter().any(|i| matches!(i, ProjectionItem::Expr(e, _) if contains_aggregate(e))));

        let rows = if aggregating {
            self.aggregate_rows(q, projection, rows)?
        } else {
            // Extend rows with SELECT expression results.
            let mut rows = rows;
            if let Projection::Items(items) = projection {
                for item in items {
                    if let ProjectionItem::Expr(e, v) = item {
                        let slot = self.vars.get(v).ok_or_else(|| {
                            SparqlError::eval(format!(
                                "SELECT expression variable ?{v} is not registered"
                            ))
                        })?;
                        for b in &mut rows {
                            if let Some(val) = self.eval_expr(e, &b.clone()) {
                                b[slot] = Some(val.into_term_id(&mut self.g));
                            }
                        }
                    }
                }
            }
            rows
        };

        // ORDER BY over full bindings.
        let mut rows = rows;
        if !q.modifiers.order_by.is_empty() {
            let mut keyed: Vec<(Vec<crate::value::OrderKey>, BoolMask, Binding)> = Vec::new();
            for b in rows {
                let mut keys = Vec::new();
                let mut descs = Vec::new();
                for oc in &q.modifiers.order_by {
                    let v = self.eval_expr(&oc.expr, &b);
                    keys.push(order_key(&self.g, v.as_ref()));
                    descs.push(oc.descending);
                }
                keyed.push((keys, descs, b));
            }
            keyed.sort_by(|(ka, da, _), (kb, _, _)| {
                for ((a, b), desc) in ka.iter().zip(kb.iter()).zip(da.iter()) {
                    let ord = a.cmp(b);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows = keyed.into_iter().map(|(_, _, b)| b).collect();
        }

        // Projection.
        let (names, slots): (Vec<String>, Vec<usize>) = match projection {
            Projection::All => {
                let mut pairs: Vec<(String, usize)> = self
                    .vars
                    .names
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| !n.starts_with("_:"))
                    .map(|(i, n)| (n.clone(), i))
                    .collect();
                pairs.sort_by_key(|a| a.1);
                pairs.into_iter().unzip()
            }
            Projection::Items(items) => {
                let pairs: Vec<(String, usize)> = items
                    .iter()
                    .map(|i| {
                        let name = match i {
                            ProjectionItem::Var(v) => v.clone(),
                            ProjectionItem::Expr(_, v) => v.clone(),
                        };
                        let slot = self.vars.get(&name).ok_or_else(|| {
                            SparqlError::eval(format!(
                                "projected variable ?{name} is not registered"
                            ))
                        })?;
                        Ok((name, slot))
                    })
                    .collect::<Result<_>>()?;
                pairs.into_iter().unzip()
            }
        };

        let mut projected: Vec<Vec<Option<TermId>>> = rows
            .into_iter()
            .map(|b| slots.iter().map(|&s| b[s]).collect())
            .collect();

        if distinct {
            let mut seen = HashSet::new();
            projected.retain(|r| seen.insert(r.clone()));
        }

        let offset = q.modifiers.offset.unwrap_or(0);
        let limit = q.modifiers.limit.unwrap_or(usize::MAX);
        let sliced: Vec<Vec<Option<TermId>>> =
            projected.into_iter().skip(offset).take(limit).collect();

        let table = SolutionTable {
            vars: names,
            rows: sliced
                .into_iter()
                .map(|r| {
                    r.into_iter()
                        .map(|c| c.map(|id| self.g.term(id).clone()))
                        .collect()
                })
                .collect(),
        };
        Ok(QueryResult::Solutions(table))
    }

    fn aggregate_rows(
        &mut self,
        q: &Query,
        projection: &Projection,
        rows: Vec<Binding>,
    ) -> Result<Vec<Binding>> {
        // Compute group keys.
        let mut groups: Vec<(Vec<Option<TermId>>, Vec<Binding>)> = Vec::new();
        let mut index: HashMap<Vec<Option<TermId>>, usize> = HashMap::new();
        for b in rows {
            let mut key = Vec::new();
            for gc in &q.modifiers.group_by {
                let v = match gc {
                    GroupCondition::Var(v) => self.vars.get(v).and_then(|s| b[s]),
                    GroupCondition::Expr(e, _) => {
                        self.eval_expr(e, &b).map(|v| v.into_term_id(&mut self.g))
                    }
                };
                key.push(v);
            }
            match index.get(&key) {
                Some(&i) => groups[i].1.push(b),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![b]));
                }
            }
        }
        // With no GROUP BY but aggregates present: one implicit group.
        if q.modifiers.group_by.is_empty() && groups.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        } else if q.modifiers.group_by.is_empty() {
            let all: Vec<Binding> = groups.drain(..).flat_map(|(_, v)| v).collect();
            groups.push((Vec::new(), all));
        }

        let mut out = Vec::new();
        'group: for (key, members) in groups {
            let mut row: Binding = vec![None; self.vars.len()];
            // Bind group keys.
            for (gc, k) in q.modifiers.group_by.iter().zip(key.iter()) {
                match gc {
                    GroupCondition::Var(v) => {
                        if let Some(slot) = self.vars.get(v) {
                            row[slot] = *k;
                        }
                    }
                    GroupCondition::Expr(_, Some(alias)) => {
                        if let Some(slot) = self.vars.get(alias) {
                            row[slot] = *k;
                        }
                    }
                    GroupCondition::Expr(_, None) => {}
                }
            }
            // HAVING.
            for h in &q.modifiers.having {
                let v = self.eval_group_expr(h, &members, &row);
                if v.and_then(|v| ebv(&self.g, &v)) != Some(true) {
                    continue 'group;
                }
            }
            // Projection expressions.
            if let Projection::Items(items) = projection {
                for item in items {
                    if let ProjectionItem::Expr(e, v) = item {
                        let slot = self.vars.get(v).ok_or_else(|| {
                            SparqlError::eval(format!(
                                "aggregate projection variable ?{v} is not registered"
                            ))
                        })?;
                        if let Some(val) = self.eval_group_expr(e, &members, &row) {
                            row[slot] = Some(val.into_term_id(&mut self.g));
                        }
                    }
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Expression evaluation inside a group: aggregates compute over the
    /// member rows, plain variables resolve from the group-key row.
    fn eval_group_expr(
        &mut self,
        e: &Expr,
        members: &[Binding],
        keyrow: &Binding,
    ) -> Option<Value> {
        match e {
            Expr::Aggregate(agg) => self.eval_aggregate(agg, members),
            Expr::Or(a, x) => {
                let l = self
                    .eval_group_expr(a, members, keyrow)
                    .and_then(|v| ebv(&self.g, &v));
                let r = self
                    .eval_group_expr(x, members, keyrow)
                    .and_then(|v| ebv(&self.g, &v));
                match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            Expr::And(a, x) => {
                let l = self
                    .eval_group_expr(a, members, keyrow)
                    .and_then(|v| ebv(&self.g, &v));
                let r = self
                    .eval_group_expr(x, members, keyrow)
                    .and_then(|v| ebv(&self.g, &v));
                match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => None,
                }
            }
            Expr::Not(a) => {
                let v = self.eval_group_expr(a, members, keyrow)?;
                ebv(&self.g, &v).map(|t| Value::Bool(!t))
            }
            Expr::Compare(op, a, x) => {
                let l = self.eval_group_expr(a, members, keyrow)?;
                let r = self.eval_group_expr(x, members, keyrow)?;
                self.compare(*op, &l, &r).map(Value::Bool)
            }
            Expr::Arith(op, a, x) => {
                let l = self.eval_group_expr(a, members, keyrow)?;
                let r = self.eval_group_expr(x, members, keyrow)?;
                self.arith(*op, &l, &r)
            }
            other => self.eval_expr(other, keyrow),
        }
    }

    fn eval_aggregate(&mut self, agg: &AggregateExpr, members: &[Binding]) -> Option<Value> {
        let mut values: Vec<Value> = Vec::new();
        match &agg.expr {
            None => {
                // COUNT(*)
                return Some(Value::Int(members.len() as i64));
            }
            Some(e) => {
                for m in members {
                    if let Some(v) = self.eval_expr(e, m) {
                        values.push(v);
                    }
                }
            }
        }
        if agg.distinct {
            let mut seen: Vec<Value> = Vec::new();
            values.retain(|v| {
                if seen
                    .iter()
                    .any(|s| values_equal(&self.g, s, v) == Some(true))
                {
                    false
                } else {
                    seen.push(v.clone());
                    true
                }
            });
        }
        match agg.kind {
            AggregateKind::Count => Some(Value::Int(values.len() as i64)),
            AggregateKind::Sum => {
                let mut acc = 0.0;
                for v in &values {
                    acc += as_numeric(&self.g, v)?;
                }
                Some(if acc.fract() == 0.0 {
                    Value::Int(acc as i64)
                } else {
                    Value::Num(acc)
                })
            }
            AggregateKind::Avg => {
                if values.is_empty() {
                    return Some(Value::Int(0));
                }
                let mut acc = 0.0;
                for v in &values {
                    acc += as_numeric(&self.g, v)?;
                }
                Some(Value::Num(acc / values.len() as f64))
            }
            AggregateKind::Min => {
                let mut best: Option<Value> = None;
                for v in values {
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            if values_compare(&self.g, &v, &b) == Some(std::cmp::Ordering::Less) {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                best
            }
            AggregateKind::Max => {
                let mut best: Option<Value> = None;
                for v in values {
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            if values_compare(&self.g, &v, &b) == Some(std::cmp::Ordering::Greater)
                            {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                best
            }
            AggregateKind::Sample => values.into_iter().next(),
            AggregateKind::GroupConcat => {
                let sep = agg.separator.clone().unwrap_or_else(|| " ".to_string());
                let parts: Option<Vec<String>> =
                    values.iter().map(|v| str_builtin(&self.g, v)).collect();
                Some(Value::Str {
                    s: parts?.join(&sep),
                    lang: None,
                })
            }
        }
    }

    // ---- CONSTRUCT --------------------------------------------------------

    fn construct(&mut self, template: &[TriplePattern], rows: Vec<Binding>) -> Result<QueryResult> {
        let mut out = Graph::new();
        for (row_idx, b) in rows.iter().enumerate() {
            for tp in template {
                let s = self.template_term(&tp.subject, b, row_idx);
                let p = match &tp.path {
                    Path::Iri(iri) => Some(Term::iri(iri.clone())),
                    Path::Var(v) => self
                        .vars
                        .get(v)
                        .and_then(|slot| b[slot])
                        .map(|id| self.g.term(id).clone()),
                    _ => None,
                };
                let o = self.template_term(&tp.object, b, row_idx);
                if let (Some(s), Some(p), Some(o)) = (s, p, o) {
                    if s.is_resource() && p.is_iri() {
                        out.insert(&Triple {
                            subject: s,
                            predicate: p,
                            object: o,
                        });
                    }
                }
            }
        }
        Ok(QueryResult::Graph(Box::new(out)))
    }

    fn template_term(&self, tp: &TermPattern, b: &Binding, row: usize) -> Option<Term> {
        match tp {
            TermPattern::Var(v) => self
                .vars
                .get(v)
                .and_then(|s| b[s])
                .map(|id| self.g.term(id).clone()),
            TermPattern::Blank(l) => Some(Term::bnode(format!("c{row}_{l}"))),
            TermPattern::Iri(i) => Some(Term::iri(i.clone())),
            TermPattern::Literal(l) => Some(literal_pattern_to_term(l)),
        }
    }
}

/// Row-sort helper alias (descending flags per ORDER BY condition).
type BoolMask = Vec<bool>;

/// Binds `val` into `slot` (when the position is a variable), reporting
/// false on a conflict with an existing binding — the shared-variable
/// case (`?x p ?x`) and probe-side rebinding both funnel through here.
fn bind(b: &mut Binding, slot: Option<usize>, val: TermId) -> bool {
    let Some(slot) = slot else { return true };
    match b[slot] {
        None => {
            b[slot] = Some(val);
            true
        }
        Some(existing) => existing == val,
    }
}

/// The scan column a merge join keys on, given which endpoints the scan
/// was narrowed by: per-subject `spo` scans sort by object, per-object
/// (and full-predicate `pos`) scans sort by subject and object
/// respectively — mirroring the planner's `merge_worthwhile` analysis
/// of the hexastore permutations.
fn merge_key_col(s_ground: Option<TermId>, o_ground: Option<TermId>) -> usize {
    if s_ground.is_some() {
        2
    } else if o_ground.is_some() {
        0
    } else {
        2
    }
}

/// Sorted key directory over one column of a predicate scan: distinct
/// keys ascending, `hits(key)` returning that key's scan positions in
/// ascending order. Single-layer scans arrive presorted and keep their
/// identity order for free; layered concatenations (overlay deltas,
/// ledger layers) get one stable sort, which preserves per-key
/// ascending scan positions — the invariant that keeps merge-join
/// output byte-identical to the hash path's index-map probes.
struct KeyDirectory {
    keys: Vec<TermId>,
    starts: Vec<usize>,
    order: Vec<usize>,
}

impl KeyDirectory {
    fn build(scan: &[[TermId; 3]], col: usize) -> KeyDirectory {
        let mut order: Vec<usize> = (0..scan.len()).collect();
        if scan.windows(2).any(|w| w[0][col] > w[1][col]) {
            order.sort_by_key(|&i| scan[i][col]);
        }
        let mut keys: Vec<TermId> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        for (pos, &i) in order.iter().enumerate() {
            let k = scan[i][col];
            if keys.last() != Some(&k) {
                keys.push(k);
                starts.push(pos);
            }
        }
        starts.push(order.len());
        KeyDirectory {
            keys,
            starts,
            order,
        }
    }

    fn hits(&self, key: TermId) -> &[usize] {
        match self.keys.binary_search(&key) {
            Ok(k) => &self.order[self.starts[k]..self.starts[k + 1]],
            Err(_) => &[],
        }
    }
}

/// Solution charging is batched: a guard call per input binding costs
/// ~2% on small queries, so produced rows accumulate locally and are
/// charged every `CHARGE_BATCH` rows (bounding overshoot to one batch
/// plus one binding's matches per charging thread).
const CHARGE_BATCH: usize = 256;

/// Flushes a chunk's accumulated row count into the shared guard.
fn charge(guard: Option<&Guard>, uncharged: &mut usize) -> std::result::Result<(), Exhausted> {
    let n = std::mem::take(uncharged);
    match guard {
        Some(g) if n > 0 => g.add_solutions(n as u64),
        _ => Ok(()),
    }
}

/// The row loop under [`Ctx::join_rows`]: feeds each row to `probe`,
/// polls the guard's clock per row, and charges produced rows every
/// [`CHARGE_BATCH`]. A trip stops the loop and comes back beside the
/// rows produced so far.
fn probe_rows<F>(
    guard: Option<&Guard>,
    rows: impl IntoIterator<Item = Binding>,
    probe: F,
) -> (Vec<Binding>, Option<Exhausted>)
where
    F: Fn(Binding, &mut Vec<Binding>),
{
    let mut out = Vec::new();
    let mut uncharged = 0usize;
    for b in rows {
        if let Some(e) = guard.and_then(|g| g.check_time().err()) {
            return (out, Some(e));
        }
        let before = out.len();
        probe(b, &mut out);
        uncharged += out.len() - before;
        if uncharged >= CHARGE_BATCH {
            if let Err(e) = charge(guard, &mut uncharged) {
                return (out, Some(e));
            }
        }
    }
    let trip = charge(guard, &mut uncharged).err();
    (out, trip)
}

/// Extends `b` once per scan hit, binding the hit's `col` term into
/// `slot`; a hit that conflicts with an existing binding is skipped.
fn extend_hits(
    out: &mut Vec<Binding>,
    b: &Binding,
    scan: &[[TermId; 3]],
    hits: impl IntoIterator<Item = usize>,
    slot: Option<usize>,
    col: usize,
) {
    for i in hits {
        let mut nb = b.clone();
        if bind(&mut nb, slot, scan[i][col]) {
            out.push(nb);
        }
    }
}

/// Extends `b` with every scan triple's subject and object.
fn extend_scan(
    out: &mut Vec<Binding>,
    b: &Binding,
    scan: &[[TermId; 3]],
    s_slot: Option<usize>,
    o_slot: Option<usize>,
) {
    for t in scan {
        let mut nb = b.clone();
        if bind(&mut nb, s_slot, t[0]) && bind(&mut nb, o_slot, t[2]) {
            out.push(nb);
        }
    }
}

/// `key`'s scan positions across [`build_shards`]' shards, ascending.
fn shard_hits(
    shards: &[HashMap<TermId, Vec<usize>>],
    key: TermId,
) -> impl Iterator<Item = usize> + '_ {
    shards
        .iter()
        .filter_map(move |m| m.get(&key))
        .flatten()
        .copied()
}

/// Hash index over one column of a scan (0 = subject, 2 = object),
/// built as one shard per worker: each hashes one contiguous chunk of
/// the scan, keying hits by **global** scan index. Probing the shards
/// in chunk order yields hit indices in ascending order, the sequence a
/// single map would hold; at one worker there is exactly one shard.
fn build_shards(
    workers: usize,
    scan: &[[TermId; 3]],
    col: usize,
) -> Vec<HashMap<TermId, Vec<usize>>> {
    map_chunks(workers, PARALLEL_MIN_INPUT, scan, |start, chunk| {
        let mut map: HashMap<TermId, Vec<usize>> = HashMap::new();
        for (i, t) in chunk.iter().enumerate() {
            map.entry(t[col]).or_default().push(start + i);
        }
        map
    })
}

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Aggregate(_) => true,
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(_, a, b) | Expr::Arith(_, a, b) => {
            contains_aggregate(a) || contains_aggregate(b)
        }
        Expr::Not(a) | Expr::UnaryMinus(a) => contains_aggregate(a),
        Expr::In(a, list, _) => contains_aggregate(a) || list.iter().any(contains_aggregate),
        Expr::Call(_, args) => args.iter().any(contains_aggregate),
        _ => false,
    }
}

fn ground_to_term(tp: &TermPattern) -> Option<Term> {
    match tp {
        TermPattern::Iri(i) => Some(Term::iri(i.clone())),
        TermPattern::Blank(l) => Some(Term::bnode(l.clone())),
        TermPattern::Literal(l) => Some(literal_pattern_to_term(l)),
        TermPattern::Var(_) => None,
    }
}

fn literal_pattern_to_term(l: &LiteralPattern) -> Term {
    match (&l.language, &l.datatype) {
        (Some(lang), _) => Term::Literal(feo_rdf::Literal::lang(l.lexical.clone(), lang.clone())),
        (None, Some(dt)) => Term::Literal(feo_rdf::Literal::typed(
            l.lexical.clone(),
            feo_rdf::Iri::new(dt.clone()),
        )),
        (None, None) => Term::simple(l.lexical.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::governor::{Budget, Resource};

    const EX: &str = "http://example.org/";

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Nested,
        Hash,
        Merge,
        Leapfrog,
    }

    const OPS: [Op; 4] = [Op::Nested, Op::Hash, Op::Merge, Op::Leapfrog];

    fn iri(local: &str) -> String {
        format!("{EX}{local}")
    }

    /// 40 subjects, each with three `ex:p` objects out of seven and
    /// `ex:a ex:A`; every second subject also has `ex:tag ex:B`.
    fn fixture() -> Graph {
        let mut g = Graph::new();
        for i in 0..40 {
            let s = iri(&format!("s{i}"));
            for k in 0..3 {
                g.insert_iris(&s, &iri("p"), &iri(&format!("o{}", (i + k) % 7)));
            }
            g.insert_iris(&s, &iri("a"), &iri("A"));
            if i % 2 == 0 {
                g.insert_iris(&s, &iri("tag"), &iri("B"));
            }
        }
        g
    }

    /// `n` input rows over slots `?s` (0) and `?o` (1) that mix every
    /// boundness an operator branches on: subject only, object only,
    /// both, and neither (the cross-product rows).
    fn input_rows(g: &Graph, n: usize) -> Vec<Binding> {
        let id = |local: String| g.lookup_iri(&iri(&local));
        (0..n)
            .map(|i| {
                let s = id(format!("s{}", i % 40));
                let o = id(format!("o{}", i % 7));
                match (i % 5, i % 11, i % 13) {
                    (_, _, 4) => vec![None, None],
                    (_, 3, _) => vec![s, o],
                    (1, _, _) => vec![None, o],
                    _ => vec![s, None],
                }
            })
            .collect()
    }

    fn var(name: &str) -> TermPattern {
        TermPattern::Var(name.to_string())
    }

    fn pattern(p: &str, object: TermPattern) -> TriplePattern {
        TriplePattern {
            subject: var("s"),
            path: Path::Iri(iri(p)),
            object,
        }
    }

    /// Runs `op` directly, with `par` set, on `n` input rows.
    fn run(
        g: &Graph,
        op: Op,
        n: usize,
        workers: usize,
        guard: Option<&Guard>,
    ) -> Result<Vec<Binding>> {
        let mut vars = VarTable::default();
        vars.slot("s");
        vars.slot("o");
        let mut ctx = Ctx {
            g: Overlay::new(g),
            vars,
            exists: &[],
            force: None,
            guard,
            tripped: Cell::new(None),
            workers,
        };
        let rows = input_rows(g, n);
        let join = pattern("p", var("o"));
        match op {
            Op::Nested => ctx.match_triple_pattern(&join, rows, true),
            Op::Hash => ctx.match_triple_pattern_hash(&join, rows, true),
            Op::Merge => ctx.match_triple_pattern_merge(&join, rows, true),
            Op::Leapfrog => {
                let a = pattern("a", TermPattern::Iri(iri("A")));
                let tag = pattern("tag", TermPattern::Iri(iri("B")));
                ctx.match_star_leapfrog(&[&a, &tag], rows, true)
            }
        }
    }

    #[test]
    fn row_driver_is_identical_at_one_and_many_workers() {
        let g = fixture();
        let sizes = [
            0,
            1,
            PARALLEL_MIN_INPUT - 1,
            PARALLEL_MIN_INPUT,
            PARALLEL_MIN_INPUT + 1,
        ];
        for op in OPS {
            for n in sizes {
                let one = run(&g, op, n, 1, None).unwrap();
                let four = run(&g, op, n, 4, None).unwrap();
                assert_eq!(one, four, "{op:?} at {n} rows");
                assert_eq!(one.is_empty(), n == 0, "{op:?} at {n} rows");
            }
            // 130 rows over 3 workers split 44 / 44 / 42.
            let n = PARALLEL_MIN_INPUT + 2;
            let one = run(&g, op, n, 1, None).unwrap();
            let three = run(&g, op, n, 3, None).unwrap();
            assert_eq!(one, three, "{op:?} at {n} rows, 3 workers");
        }
    }

    #[test]
    fn row_driver_surfaces_a_budget_trip_inside_a_chunk() {
        let g = fixture();
        let n = PARALLEL_MIN_INPUT + 1;
        const BUDGET: u64 = 100;
        for op in OPS {
            // The first of four chunks alone overshoots the budget, so
            // the trip lands inside a chunk at either worker count.
            let first_chunk = run(&g, op, n.div_ceil(4), 1, None).unwrap().len();
            assert!(
                first_chunk > BUDGET as usize,
                "{op:?} produced {first_chunk}"
            );
            for workers in [1, 4] {
                let guard = Budget::new().with_max_solutions(BUDGET).start();
                match run(&g, op, n, workers, Some(&guard)) {
                    Err(SparqlError::Exhausted(e)) => {
                        assert_eq!(e.resource, Resource::Solutions, "{op:?}")
                    }
                    other => panic!("{op:?} at {workers} workers: {other:?}"),
                }
            }
        }
    }
}
