//! Epoch-keyed SPARQL plan cache.
//!
//! The engine answers every question by instantiating a handful of
//! SPARQL templates, so the same query text recurs across sessions over
//! one [`crate::EngineBase`]. Parsing and cost-based planning are pure
//! functions of (query text, graph statistics), and with the epoch
//! ledger every epoch's graph is immutable forever — so entries are
//! keyed by `(EpochId, query text)` and each entry is a pure function
//! of its key.
//!
//! This keying also closes the race the old design documented: entries
//! used to be stamped with an epoch read *before* planning, so a lookup
//! racing an invalidate could insert a plan computed against new
//! statistics under an old stamp. Now the caller passes the epoch and
//! the matching epoch view together; whatever interleaving occurs, an
//! entry under key `(e, q)` always holds the plan for epoch `e`'s
//! statistics. Commits invalidate nothing — the head moves to a fresh
//! key, while entries for older epochs stay retained so time-travel
//! queries keep hitting cached plans.
//!
//! The cache holds at most `MAX_ENTRIES` (256) plans. A full stripe
//! first drops the epoch furthest from the head; when all its entries
//! are at the key being inserted — the usual case between two commits,
//! when every question is a new text at the head epoch — it drops its
//! oldest-inserted entry, so the bound holds however long the head
//! stays put.
//!
//! Branches partition the key space: a [`PlanKey`] is `(chain, epoch,
//! query)`, where chain 0 is the main commit chain and each named
//! branch gets a stable non-zero id at creation. A branch epoch's
//! statistics differ from the main epoch with the same number, so
//! without the chain component the keys would collide; with it, branch
//! sessions reuse cached plans exactly like main-chain sessions —
//! which is what keeps branch-heavy multi-tenant serving from
//! re-planning every request.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use feo_rdf::GraphView;
use feo_sparql::ast::Query;
use feo_sparql::{parse_query, plan_query, Plan, SparqlError};

/// Entries retained across all epochs before eviction kicks in.
const MAX_ENTRIES: usize = 256;

/// Lock stripes: a lookup hashes its query text to one of these
/// independent shards, so concurrent sessions replaying *different*
/// templates never serialize on one lock — not even on the write path,
/// where a freshly planned entry previously blocked every reader of the
/// single map while it was inserted.
const STRIPES: usize = 16;

/// FNV-1a over the query text picks the stripe: cheap, allocation-free,
/// stable across runs, and spreads the engine's template set evenly.
fn stripe_of(text: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % STRIPES as u64) as usize
}

/// The commit chain and epoch a cached plan was computed against.
/// `chain` 0 is the main ledger chain; named branches get stable
/// non-zero ids so their epochs never collide with main epochs of the
/// same number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub chain: u64,
    pub epoch: u64,
}

impl PlanKey {
    /// A key on the main commit chain.
    pub fn main(epoch: u64) -> Self {
        PlanKey { chain: 0, epoch }
    }

    /// A key on a named branch's chain (`branch` ids start at 1).
    pub fn branch(branch: u64, epoch: u64) -> Self {
        PlanKey {
            chain: branch,
            epoch,
        }
    }
}

/// Hit/miss counters and current state of a [`crate::EngineBase`]'s plan
/// cache — exposed so tests (and curious callers) can verify that
/// repeated questions reuse cached plans and that commits re-key the
/// head without disturbing older epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache without re-parsing or re-planning.
    pub hits: u64,
    /// Lookups that had to parse and plan (first sight of a
    /// (epoch, query) pair).
    pub misses: u64,
    /// Entries currently cached, across all retained epochs.
    pub entries: usize,
    /// The head epoch last announced via [`PlanCache::advance_head`] —
    /// the ledger's newest commit.
    pub epoch: u64,
}

struct CachedPlan {
    query: Arc<Query>,
    plan: Arc<Plan>,
    /// Cache-wide insertion order: eviction's tie-break when every
    /// entry in a stripe sits at the key being inserted.
    seq: u64,
}

/// Interior-mutable cache living on the shared, otherwise-immutable
/// [`crate::EngineBase`]. All operations take `&self`, so any number of
/// concurrent sessions can share one cache through an `Arc`d base.
///
/// The map is sharded into [`STRIPES`] independently locked stripes
/// keyed by a hash of the query text: hits take only their stripe's
/// read lock, and an insert's write lock stalls only lookups of texts
/// that hash to the same stripe. The capacity bound applies per stripe
/// (`MAX_ENTRIES / STRIPES`), so the global bound still holds while
/// eviction decisions stay local to one lock.
#[derive(Default)]
pub(crate) struct PlanCache {
    stripes: [RwLock<HashMap<(PlanKey, String), CachedPlan>>; STRIPES],
    head: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    next_seq: AtomicU64,
}

impl PlanCache {
    /// Returns the parsed query and its plan for `key`, reusing a
    /// cached pair when one exists; otherwise parses `text`, plans it
    /// against `view`'s statistics, and caches the result under
    /// `(key, text)`.
    ///
    /// Correctness contract: `view` must be the graph view *of*
    /// `key`'s chain and epoch. The key and the statistics travel
    /// together, so a concurrent commit can never smuggle a plan for
    /// one epoch under another epoch's key.
    pub(crate) fn get_or_insert<G: GraphView>(
        &self,
        text: &str,
        key: PlanKey,
        view: G,
    ) -> Result<(Arc<Query>, Arc<Plan>), SparqlError> {
        let stripe = &self.stripes[stripe_of(text)];
        {
            // A poisoned lock only means another thread panicked while
            // holding it; the map is still structurally sound, so keep
            // serving rather than propagate the panic.
            let entries = stripe.read().unwrap_or_else(|e| e.into_inner());
            if let Some(hit) = entries.get(&(key, text.to_string())) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&hit.query), Arc::clone(&hit.plan)));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let query = Arc::new(parse_query(text)?);
        let plan = Arc::new(plan_query(&view, &query));
        let mut entries = stripe.write().unwrap_or_else(|e| e.into_inner());
        if entries.len() >= MAX_ENTRIES / STRIPES {
            Self::evict(&mut entries, self.head.load(Ordering::Acquire), key);
        }
        entries.insert(
            (key, text.to_string()),
            CachedPlan {
                query: Arc::clone(&query),
                plan: Arc::clone(&plan),
                seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            },
        );
        Ok((query, plan))
    }

    /// Makes room in one stripe: drops the entries whose epoch lies
    /// furthest from the main-chain head, sparing the key currently
    /// being inserted. Branch entries compete on their epoch number like
    /// main-chain ones — the head distance is a recency proxy either
    /// way. When every entry already sits at the inserting key (many
    /// distinct texts between two commits), the stripe's oldest-inserted
    /// entry goes instead, so the bound holds within one epoch too.
    fn evict(entries: &mut HashMap<(PlanKey, String), CachedPlan>, head: u64, inserting: PlanKey) {
        let victim = entries
            .keys()
            .map(|(k, _)| *k)
            .filter(|&k| k != inserting)
            .max_by_key(|k| head.abs_diff(k.epoch));
        if let Some(victim) = victim {
            entries.retain(|(k, _), _| *k != victim);
        } else if let Some(oldest) = entries
            .iter()
            .min_by_key(|(_, e)| e.seq)
            .map(|(k, _)| k.clone())
        {
            entries.remove(&oldest);
        }
    }

    /// Announces a new head epoch after a commit. Nothing is dropped:
    /// older epochs' plans remain valid for time-travel queries and stay
    /// cached; only lookups at the new head will miss (fresh keys).
    pub(crate) fn advance_head(&self, head: u64) {
        self.head.fetch_max(head, Ordering::AcqRel);
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .stripes
                .iter()
                .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
                .sum(),
            epoch: self.head.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::Graph;

    fn graph() -> Graph {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g
    }

    const Q: &str = "SELECT ?s WHERE { ?s <http://e/p> ?o }";

    #[test]
    fn repeated_lookup_hits() {
        let cache = PlanCache::default();
        let g = graph();
        cache
            .get_or_insert(Q, PlanKey::main(0), &g)
            .expect("parses");
        cache
            .get_or_insert(Q, PlanKey::main(0), &g)
            .expect("parses");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn commits_retain_old_epochs() {
        let cache = PlanCache::default();
        let g = graph();
        cache
            .get_or_insert(Q, PlanKey::main(0), &g)
            .expect("parses");
        cache.advance_head(1);
        // Head lookups re-plan under the new key…
        cache
            .get_or_insert(Q, PlanKey::main(1), &g)
            .expect("parses");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
        // …but time-travel back to epoch 0 still hits.
        cache
            .get_or_insert(Q, PlanKey::main(0), &g)
            .expect("parses");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1, "epoch-0 plan must survive the commit");
        assert_eq!(stats.epoch, 1);
    }

    #[test]
    fn branch_keys_partition_from_main() {
        let cache = PlanCache::default();
        let g = graph();
        // Same epoch number, different chains: distinct entries.
        cache
            .get_or_insert(Q, PlanKey::main(3), &g)
            .expect("parses");
        cache
            .get_or_insert(Q, PlanKey::branch(1, 3), &g)
            .expect("parses");
        assert_eq!(cache.stats().entries, 2, "chains must not collide");
        // Each chain hits its own entry on replay.
        cache
            .get_or_insert(Q, PlanKey::main(3), &g)
            .expect("parses");
        cache
            .get_or_insert(Q, PlanKey::branch(1, 3), &g)
            .expect("parses");
        assert_eq!(cache.stats().hits, 2);
        // A second branch is a third partition.
        cache
            .get_or_insert(Q, PlanKey::branch(2, 3), &g)
            .expect("parses");
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = PlanCache::default();
        let g = graph();
        assert!(cache
            .get_or_insert("SELEKT nonsense", PlanKey::main(0), &g)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn distinct_texts_get_distinct_entries() {
        let cache = PlanCache::default();
        let g = graph();
        cache
            .get_or_insert(Q, PlanKey::main(0), &g)
            .expect("parses");
        cache
            .get_or_insert("ASK { ?s ?p ?o }", PlanKey::main(0), &g)
            .expect("parses");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn eviction_drops_epochs_furthest_from_head() {
        let cache = PlanCache::default();
        let g = graph();
        // Fill the cache across many epochs with distinct texts.
        let mut epoch = 0u64;
        while cache.stats().entries < MAX_ENTRIES {
            cache
                .get_or_insert(
                    &format!("SELECT ?s WHERE {{ ?s ?p {epoch} }}"),
                    PlanKey::main(epoch),
                    &g,
                )
                .expect("parses");
            epoch += 1;
        }
        cache.advance_head(epoch);
        cache
            .get_or_insert(Q, PlanKey::main(epoch), &g)
            .expect("parses");
        let stats = cache.stats();
        assert!(
            stats.entries <= MAX_ENTRIES,
            "capacity bound holds: {stats:?}"
        );
        // The head insert itself survived.
        cache
            .get_or_insert(Q, PlanKey::main(epoch), &g)
            .expect("parses");
        assert!(cache.stats().hits >= 1);
    }

    /// Between commits every question is a new text at the head key, so
    /// no entry is at another epoch: the stripe must give up its
    /// oldest-inserted plan rather than grow past the bound.
    #[test]
    fn capacity_bound_holds_within_one_epoch() {
        let cache = PlanCache::default();
        let g = graph();
        let text = |i: usize| format!("SELECT ?s WHERE {{ ?s ?p {i} }}");
        for i in 0..2 * MAX_ENTRIES {
            cache
                .get_or_insert(&text(i), PlanKey::main(0), &g)
                .expect("parses");
            let stats = cache.stats();
            assert!(
                stats.entries <= MAX_ENTRIES,
                "bound broken after {} inserts: {stats:?}",
                i + 1
            );
        }
        let misses = cache.stats().misses;
        cache
            .get_or_insert(&text(2 * MAX_ENTRIES - 1), PlanKey::main(0), &g)
            .expect("parses");
        assert_eq!(cache.stats().misses, misses, "the newest plan stays");
        cache
            .get_or_insert(&text(0), PlanKey::main(0), &g)
            .expect("parses");
        assert_eq!(cache.stats().misses, misses + 1, "the oldest plan went");
    }

    /// The race the old design documented: lookups racing a commit. With
    /// `(epoch, query)` keys an entry is a pure function of its key, so
    /// hammering lookups across epochs while the head advances must
    /// never produce a cross-epoch mix-up — every returned plan equals a
    /// freshly computed plan for the same key.
    #[test]
    fn concurrent_lookups_across_epochs_never_cross_contaminate() {
        let cache = PlanCache::default();
        // Two graphs with deliberately different statistics so a plan
        // computed against the wrong view is distinguishable.
        let small = graph();
        let mut big = Graph::new();
        for i in 0..64 {
            big.insert_iris(
                &format!("http://e/s{i}"),
                "http://e/p",
                &format!("http://e/o{}", i % 4),
            );
            big.insert_iris(&format!("http://e/s{i}"), "http://e/q", "http://e/x");
        }
        let texts = [
            "SELECT ?s WHERE { ?s <http://e/p> ?o . ?s <http://e/q> ?x }",
            "SELECT ?s WHERE { ?s <http://e/q> ?x . ?s <http://e/p> ?o }",
            Q,
        ];
        let expect = |epoch: u64, text: &str| {
            let view: &Graph = if epoch.is_multiple_of(2) {
                &small
            } else {
                &big
            };
            let q = parse_query(text).expect("parses");
            format!("{:?}", plan_query(&view, &q))
        };

        std::thread::scope(|s| {
            for worker in 0..8 {
                let cache = &cache;
                let small = &small;
                let big = &big;
                let texts = &texts;
                let expect = &expect;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let epoch = (worker as u64 + i) % 6;
                        let view: &Graph = if epoch.is_multiple_of(2) { small } else { big };
                        let text = texts[(i as usize + worker) % texts.len()];
                        let (_, plan) = cache
                            .get_or_insert(text, PlanKey::main(epoch), view)
                            .expect("parses");
                        assert_eq!(
                            format!("{plan:?}"),
                            expect(epoch, text),
                            "plan under key ({epoch}, {text:?}) diverged"
                        );
                        if i % 50 == 0 {
                            cache.advance_head(epoch);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
    }
}
