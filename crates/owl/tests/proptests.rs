//! Property tests for the reasoner: idempotence, monotonicity, closure
//! correctness against a reference transitive-closure computation,
//! soundness of inverse/symmetric rules on random graphs, and complex
//! class membership against a naive reference classifier.

use std::collections::{BTreeSet, HashMap};

use feo_owl::{Reasoner, ReasonerOptions};
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{Graph, GraphStore, GraphView, Overlay, TermId};
use proptest::prelude::*;

const N_CLASSES: u8 = 8;
const N_NODES: u8 = 10;

fn class_iri(i: u8) -> String {
    format!("http://t/C{i}")
}

fn node_iri(i: u8) -> String {
    format!("http://t/n{i}")
}

/// Random schema: subclass edges among N_CLASSES classes.
fn arb_subclass_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0..N_CLASSES, 0..N_CLASSES), 0..16)
}

/// Random instance typings.
fn arb_typings() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0..N_NODES, 0..N_CLASSES), 0..20)
}

/// Random property edges among nodes.
fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0..N_NODES, 0..N_NODES), 0..25)
}

fn build(sub: &[(u8, u8)], typings: &[(u8, u8)], edges: &[(u8, u8)], prop_axioms: &str) -> Graph {
    let mut g = Graph::new();
    for (a, b) in sub {
        g.insert_iris(&class_iri(*a), rdfs::SUB_CLASS_OF, &class_iri(*b));
    }
    for (n, c) in typings {
        g.insert_iris(&node_iri(*n), rdf::TYPE, &class_iri(*c));
    }
    for (x, y) in edges {
        g.insert_iris(&node_iri(*x), "http://t/p", &node_iri(*y));
    }
    match prop_axioms {
        "transitive" => {
            g.insert_iris("http://t/p", rdf::TYPE, owl::TRANSITIVE_PROPERTY);
        }
        "symmetric" => {
            g.insert_iris("http://t/p", rdf::TYPE, owl::SYMMETRIC_PROPERTY);
        }
        "inverse" => {
            g.insert_iris("http://t/p", owl::INVERSE_OF, "http://t/q");
        }
        _ => {}
    }
    g
}

/// Reference: reachability closure over the subclass DAG (may be cyclic).
fn reference_superclasses(sub: &[(u8, u8)]) -> HashMap<u8, BTreeSet<u8>> {
    let mut out: HashMap<u8, BTreeSet<u8>> = HashMap::new();
    for c in 0..N_CLASSES {
        let mut seen = BTreeSet::new();
        let mut stack = vec![c];
        while let Some(x) = stack.pop() {
            for (a, b) in sub {
                if *a == x && *b != c && seen.insert(*b) {
                    stack.push(*b);
                }
            }
        }
        out.insert(c, seen);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn idempotent(sub in arb_subclass_edges(), ty in arb_typings(), e in arb_edges()) {
        let mut g = build(&sub, &ty, &e, "transitive");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let second = Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        prop_assert_eq!(second.added, 0);
    }

    #[test]
    fn type_closure_matches_reference(sub in arb_subclass_edges(), ty in arb_typings()) {
        let mut g = build(&sub, &ty, &[], "");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let reference = reference_superclasses(&sub);
        let rdf_type = g.lookup_iri(rdf::TYPE).unwrap();
        for (n, c) in &ty {
            for sup in &reference[c] {
                let node = g.lookup_iri(&node_iri(*n)).unwrap();
                let class = g.lookup_iri(&class_iri(*sup)).unwrap();
                prop_assert!(
                    g.contains_ids(node, rdf_type, class),
                    "n{n} should be typed C{sup} (asserted C{c})"
                );
            }
        }
    }

    #[test]
    fn transitive_closure_sound_and_complete(e in arb_edges()) {
        let mut g = build(&[], &[], &e, "transitive");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        // Reference reachability.
        let mut reach: BTreeSet<(u8, u8)> = e.iter().copied().collect();
        loop {
            let mut grew = false;
            let snapshot: Vec<(u8, u8)> = reach.iter().copied().collect();
            for (a, b) in &snapshot {
                for (c, d) in &snapshot {
                    if b == c && reach.insert((*a, *d)) {
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let p = g.lookup_iri("http://t/p").unwrap();
        // Completeness.
        for (a, b) in &reach {
            let x = g.lookup_iri(&node_iri(*a)).unwrap();
            let y = g.lookup_iri(&node_iri(*b)).unwrap();
            prop_assert!(g.contains_ids(x, p, y), "missing {a}->{b}");
        }
        // Soundness: every derived p-edge is in the reference closure.
        for [s, _, o] in g.match_pattern(None, Some(p), None) {
            let sn: u8 = g.term_name(s).trim_start_matches('n').parse().unwrap();
            let on: u8 = g.term_name(o).trim_start_matches('n').parse().unwrap();
            prop_assert!(reach.contains(&(sn, on)), "unsound edge {sn}->{on}");
        }
    }

    #[test]
    fn symmetric_rule_sound(e in arb_edges()) {
        let mut g = build(&[], &[], &e, "symmetric");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let p = g.lookup_iri("http://t/p").unwrap();
        let mut expected: BTreeSet<(feo_rdf::TermId, feo_rdf::TermId)> = BTreeSet::new();
        for [s, _, o] in g.match_pattern(None, Some(p), None) {
            expected.insert((s, o));
        }
        for &(s, o) in &expected {
            prop_assert!(expected.contains(&(o, s)), "missing mirror edge");
        }
    }

    #[test]
    fn inverse_rule_bijective(e in arb_edges()) {
        let mut g = build(&[], &[], &e, "inverse");
        Reasoner::new().materialize(&mut g, &Default::default()).expect("materialize");
        let p = g.lookup_iri("http://t/p").unwrap();
        let q = g.lookup_iri("http://t/q");
        let p_edges: BTreeSet<_> = g
            .match_pattern(None, Some(p), None)
            .into_iter()
            .map(|t| (t[0], t[2]))
            .collect();
        if let Some(q) = q {
            let q_edges: BTreeSet<_> = g
                .match_pattern(None, Some(q), None)
                .into_iter()
                .map(|t| (t[2], t[0]))
                .collect();
            prop_assert_eq!(p_edges, q_edges, "q must be exactly p-inverse");
        } else {
            prop_assert!(e.is_empty());
        }
    }

    /// Monotonicity on random graphs: derived triples survive additions.
    #[test]
    fn monotone(sub in arb_subclass_edges(), ty in arb_typings(), extra in (0..N_NODES, 0..N_CLASSES)) {
        let mut small = build(&sub, &ty, &[], "");
        Reasoner::new().materialize(&mut small, &Default::default()).expect("materialize");

        let mut ty_big = ty.clone();
        ty_big.push(extra);
        let mut big = build(&sub, &ty_big, &[], "");
        Reasoner::new().materialize(&mut big, &Default::default()).expect("materialize");

        for t in small.iter_triples() {
            prop_assert!(big.contains(&t));
        }
    }
}

// ---- Complex-axiom membership against a naive reference ---------------
//
// The full and the delta closure share one membership check, so only an
// independent classifier can catch a wrong answer from it. The graphs
// have hubs whose fan-out lies far above or far below the size of the
// classes their axioms test, so both sides of every existential's walk
// get exercised.

const M_NODES: u8 = 40;
/// Classes `C4`..`C6` are axiom targets (`C(M_FILLERS + t)`); any class
/// may be asserted or appear inside an axiom's left-hand side.
const M_CLASSES: u8 = 7;
const M_FILLERS: u8 = 4;
const M_PROPS: u8 = 2;

fn m_node(i: u8) -> String {
    format!("http://m/n{i}")
}

fn m_class(i: u8) -> String {
    format!("http://m/C{i}")
}

fn m_prop(i: u8) -> String {
    format!("http://m/p{i}")
}

#[derive(Debug, Clone)]
enum Expr {
    Named(u8),
    HasValue(u8, u8),
    Exists(u8, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

fn byte(codes: &mut impl Iterator<Item = u8>) -> u8 {
    codes.next().unwrap_or(0)
}

/// Decodes bytes into an expression tree: each byte picks a constructor
/// or an argument, and an exhausted stream reads as zeros (a named
/// class). Conjunctions and disjunctions take half the constructor
/// bytes; from depth 3 on only leaves and `∃p.C` are built.
fn decode(codes: &mut impl Iterator<Item = u8>, depth: u8) -> Expr {
    let op = byte(codes) % 8;
    match if depth >= 3 { op % 3 } else { op } {
        0 => Expr::Named(byte(codes) % M_CLASSES),
        1 => Expr::HasValue(byte(codes) % M_PROPS, byte(codes) % M_NODES),
        2 => Expr::Exists(
            byte(codes) % M_PROPS,
            Box::new(Expr::Named(byte(codes) % M_CLASSES)),
        ),
        3 => Expr::Exists(byte(codes) % M_PROPS, Box::new(decode(codes, depth + 1))),
        4 | 5 => Expr::And(
            Box::new(decode(codes, depth + 1)),
            Box::new(decode(codes, depth + 1)),
        ),
        _ => Expr::Or(
            Box::new(decode(codes, depth + 1)),
            Box::new(decode(codes, depth + 1)),
        ),
    }
}

/// A run of node indexes: `count` steps of `stride` from `start`.
fn node_run(start: u8, stride: u8, count: usize) -> impl Iterator<Item = u8> {
    (0..count).map(move |i| ((start as usize + i * stride as usize) % M_NODES as usize) as u8)
}

/// Either a handful or a large share of the graph: hub fan-outs and
/// class sizes drawn this way land far on both sides of each other.
fn arb_count() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..6, 12usize..40]
}

/// Fans `(hub, property, start, stride, count)`.
fn arb_fans() -> impl Strategy<Value = Vec<(u8, u8, u8, u8, usize)>> {
    prop::collection::vec(
        (0..M_NODES, 0..M_PROPS, 0..M_NODES, 1..M_NODES, arb_count()),
        1..10,
    )
}

/// Class extents `(class, start, stride, count)`.
fn arb_extents() -> impl Strategy<Value = Vec<(u8, u8, u8, usize)>> {
    prop::collection::vec((0..M_CLASSES, 0..M_NODES, 1..M_NODES, arb_count()), 1..7)
}

/// Axioms `lhs ⊑ C(M_FILLERS + target)`, the left-hand side given as
/// code bytes for [`decode`].
fn arb_axioms() -> impl Strategy<Value = Vec<(Vec<u8>, u8)>> {
    prop::collection::vec(
        (
            prop::collection::vec(any::<u8>(), 4..24),
            0..M_CLASSES - M_FILLERS,
        ),
        1..5,
    )
}

struct World {
    edges: BTreeSet<(u8, u8, u8)>,
    types: BTreeSet<(u8, u8)>,
    axioms: Vec<(Expr, u8)>,
}

fn world(
    fans: &[(u8, u8, u8, u8, usize)],
    extents: &[(u8, u8, u8, usize)],
    axioms: &[(Vec<u8>, u8)],
) -> World {
    World {
        edges: fans
            .iter()
            .flat_map(|&(h, p, start, stride, n)| {
                node_run(start, stride, n).map(move |o| (h, p, o))
            })
            .collect(),
        types: extents
            .iter()
            .flat_map(|&(c, start, stride, n)| node_run(start, stride, n).map(move |x| (x, c)))
            .collect(),
        axioms: axioms
            .iter()
            .map(|(codes, t)| (decode(&mut codes.iter().copied(), 0), M_FILLERS + t))
            .collect(),
    }
}

/// Writes `e` as OWL restriction / boolean-class nodes; returns its id.
fn write_expr(g: &mut Graph, e: &Expr) -> TermId {
    let node = |g: &mut Graph, triples: &[(&str, TermId)]| {
        let b = g.fresh_bnode();
        for (p, o) in triples {
            let p = g.intern_iri(p);
            g.insert_ids(b, p, *o);
        }
        b
    };
    let restriction = |g: &mut Graph, p: u8, key: &str, o: TermId| {
        let kind = g.intern_iri(owl::RESTRICTION);
        let prop = g.intern_iri(&m_prop(p));
        node(g, &[(rdf::TYPE, kind), (owl::ON_PROPERTY, prop), (key, o)])
    };
    match e {
        Expr::Named(c) => g.intern_iri(&m_class(*c)),
        Expr::HasValue(p, v) => {
            let v = g.intern_iri(&m_node(*v));
            restriction(g, *p, owl::HAS_VALUE, v)
        }
        Expr::Exists(p, f) => {
            let f = write_expr(g, f);
            restriction(g, *p, owl::SOME_VALUES_FROM, f)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            let items = [write_expr(g, a), write_expr(g, b)];
            let list = g.write_list(&items);
            let key = if matches!(e, Expr::And(..)) {
                owl::INTERSECTION_OF
            } else {
                owl::UNION_OF
            };
            node(g, &[(key, list)])
        }
    }
}

fn tbox(w: &World) -> Graph {
    let mut g = Graph::new();
    for (lhs, target) in &w.axioms {
        let sub = write_expr(&mut g, lhs);
        let sub_class_of = g.intern_iri(rdfs::SUB_CLASS_OF);
        let sup = g.intern_iri(&m_class(*target));
        g.insert_ids(sub, sub_class_of, sup);
    }
    g
}

/// The ABox as IRI triples, in a fixed order.
fn abox(w: &World) -> Vec<[String; 3]> {
    let edges = w
        .edges
        .iter()
        .map(|&(s, p, o)| [m_node(s), m_prop(p), m_node(o)]);
    let types = w
        .types
        .iter()
        .map(|&(x, c)| [m_node(x), rdf::TYPE.to_string(), m_class(c)]);
    edges.chain(types).collect()
}

/// Naive membership: walks every edge, in no particular order.
fn ref_sat(w: &World, types: &BTreeSet<(u8, u8)>, x: u8, e: &Expr) -> bool {
    match e {
        Expr::Named(c) => types.contains(&(x, *c)),
        Expr::HasValue(p, v) => w.edges.contains(&(x, *p, *v)),
        Expr::Exists(p, f) => w
            .edges
            .iter()
            .any(|&(s, q, o)| s == x && q == *p && ref_sat(w, types, o, f)),
        Expr::And(a, b) => ref_sat(w, types, x, a) && ref_sat(w, types, x, b),
        Expr::Or(a, b) => ref_sat(w, types, x, a) || ref_sat(w, types, x, b),
    }
}

/// Reference closure of the typings: apply every axiom to every node
/// until nothing changes.
fn reference_types(w: &World) -> BTreeSet<(u8, u8)> {
    let mut types = w.types.clone();
    loop {
        let mut grew = false;
        for (lhs, target) in &w.axioms {
            for x in 0..M_NODES {
                if !types.contains(&(x, *target)) && ref_sat(w, &types, x, lhs) {
                    types.insert((x, *target));
                    grew = true;
                }
            }
        }
        if !grew {
            return types;
        }
    }
}

fn closed_types(g: &impl GraphView) -> BTreeSet<(u8, u8)> {
    let ty = g.lookup_iri(rdf::TYPE);
    let mut out = BTreeSet::new();
    for x in 0..M_NODES {
        for c in 0..M_CLASSES {
            let ids = (ty, g.lookup_iri(&m_node(x)), g.lookup_iri(&m_class(c)));
            if let (Some(ty), Some(xi), Some(ci)) = ids {
                if g.contains_ids(xi, ty, ci) {
                    out.insert((x, c));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full closure (with and without derivation tracking, which take
    /// the plain and the witness-collecting check) and delta closure
    /// (half the ABox in a materialized base, half in an overlay) all
    /// type exactly the nodes the reference classifier does.
    #[test]
    fn complex_membership_matches_reference(
        fans in arb_fans(),
        extents in arb_extents(),
        axioms in arb_axioms(),
    ) {
        let w = world(&fans, &extents, &axioms);
        let want = reference_types(&w);
        let facts = abox(&w);
        for track_derivations in [false, true] {
            let reasoner = Reasoner::with_options(ReasonerOptions {
                track_derivations,
                ..Default::default()
            });
            let mut full = tbox(&w);
            for [s, p, o] in &facts {
                full.insert_iris(s, p, o);
            }
            reasoner.materialize(&mut full, &Default::default()).expect("materialize");
            prop_assert_eq!(
                closed_types(&full),
                want.clone(),
                "full closure, tracking {}, axioms {:?}",
                track_derivations,
                w.axioms
            );

            let mut base = tbox(&w);
            for [s, p, o] in facts.iter().step_by(2) {
                base.insert_iris(s, p, o);
            }
            reasoner.materialize(&mut base, &Default::default()).expect("materialize");
            let mut overlay = Overlay::new(&base);
            for [s, p, o] in facts.iter().skip(1).step_by(2) {
                overlay.insert_iris(s, p, o);
            }
            reasoner.materialize_delta(&mut overlay, &Default::default()).expect("materialize");
            prop_assert_eq!(
                closed_types(&overlay),
                want.clone(),
                "delta closure, tracking {}, axioms {:?}",
                track_derivations,
                w.axioms
            );
        }
    }
}
