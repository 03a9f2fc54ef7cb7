//! Standing queries: exact incremental match maintenance over
//! batch-dynamic catalog graphs.
//!
//! A standing query registers a pattern against a catalog graph
//! ([`crate::Service::register_standing`]) and receives one
//! [`MatchDelta`] per applied [`tdfs_graph::EdgeBatch`]: how many
//! matches the batch created and how many it destroyed, optionally with
//! the concrete embeddings. The deltas are **exact**, not approximate —
//! they satisfy the maintenance identity
//!
//! ```text
//! count(G')  =  count(G)  −  removed  +  added
//! ```
//!
//! where `removed` is the number of pattern matches of the *pre-batch*
//! view that use at least one effectively deleted edge, and `added` is
//! the number of matches of the *post-batch* view that use at least one
//! effectively inserted edge. (Effective = after `DeltaCsr::apply`
//! normalizes the batch against what was actually present; an insert of
//! an existing edge or a delete of a missing one contributes nothing.)
//!
//! ## Why anchored enumeration is exact
//!
//! Every match counted in `removed`/`added` contains a changed edge, so
//! instead of re-scanning the graph the maintainer enumerates only
//! matches *through* changed edges: for each undirected pattern-edge
//! orbit representative `r = (a, b)` (see
//! [`tdfs_query::automorphism::edge_orbit_reps`]) it runs a **rooted
//! plan** ([`tdfs_query::plan::QueryPlan::build_rooted`]) whose first
//! two levels are pinned to `a, b`, seeded with both orientations of
//! each changed data edge. Any match `m` that maps some pattern edge
//! `{p, q}` onto a changed data edge has an automorphic image mapping
//! the orbit representative of `{p, q}` onto that edge, so the sweep
//! reaches every match class.
//!
//! **Attribution** removes the repeats across changed edges. The batch
//! side's changed edges are ranked in ascending endpoint order, and a
//! pass anchored at changed edge `e` keeps a match only if no other
//! pattern edge of the match lands on a changed edge ranked before `e`
//! ([`tdfs_core::attribution::ChangedEdges::owns`], checked in the leaf
//! predicate every engine shares). A class is then kept only in the
//! pass of the representative `r` whose orbit holds the pattern edge
//! mapped onto its smallest changed edge `e*`, and only by embeddings
//! that map `r` onto `e*`.
//!
//! **Stabilizer constraints** remove the rest. Those embeddings differ
//! by an element of `Stab(r)`, the automorphisms mapping the undirected
//! edge `r` onto itself, so there are `|Stab(r)|` of them. The rooted
//! plan breaks `Stab(r)` by orbit fixing, which keeps exactly one image
//! of each such class (the argument of [`tdfs_query::symmetry`], with
//! `Stab(r)` in place of `Aut`), and `owns` gives every one of them the
//! same answer, since it reads only the match's data edges, which they
//! share. So each pass counts each class it owns once, and a side's
//! distinct-match count is the plain sum of its passes' counts. When
//! `Stab(r)` swaps `a` and `b`, the first constraint is position 0 <
//! position 1, and the seed filter drops the other orientation of every
//! changed edge before any walk starts.
//!
//! The counts are the durable run's, published once per shard by its
//! epoch-fenced acks, so a reclaimed or re-leased shard never counts
//! twice. A count-only subscription therefore runs plain engine counts:
//! no sink, no shard buffer, no canonicalization and no set. Only a
//! subscription that asked for embeddings feeds its passes into a
//! `DedupSink`, which canonicalizes each class's tuple and folds the
//! repeats of a reclaimed shard's emissions; its distinct count equals
//! the summed count.
//!
//! Deletions are counted against the pre-batch view (the matches being
//! destroyed still exist there); insertions against the not-yet-
//! published post-batch view. `Service::apply` computes both *before*
//! committing the new version, so a crash between compute and commit
//! (fault point `graph.apply.midbatch`) leaves nothing observable.

use std::collections::HashSet;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use tdfs_core::{MatchSink, MatcherConfig};
use tdfs_query::automorphism::{automorphisms, edge_orbit_reps, Permutation};
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;

/// What one applied batch did to one standing query's match set.
///
/// Counts are in subgraph units (automorphism classes), matching the
/// symmetry-broken full-query counts. Embeddings, when requested, are
/// pattern-vertex-indexed (`m[u]` = data vertex for pattern vertex `u`)
/// and canonicalized (lexicographic minimum over the pattern's
/// automorphisms), so the same subgraph always reports the same tuple.
#[derive(Debug, Clone)]
pub struct MatchDelta {
    /// Catalog name of the mutated graph.
    pub graph: String,
    /// The [`tdfs_graph::GraphVersion`] the graph reached with this
    /// batch. Strictly increasing across the deltas a subscriber sees:
    /// each version is delivered once, by one call.
    pub version: u64,
    /// Matches present in the new version that were not in the old.
    pub added: u64,
    /// Matches present in the old version that are not in the new.
    pub removed: u64,
    /// The added embeddings, when the registration asked for them.
    pub added_embeddings: Option<Vec<Vec<u32>>>,
    /// The removed embeddings, when the registration asked for them.
    pub removed_embeddings: Option<Vec<Vec<u32>>>,
}

/// Registration parameters for [`crate::Service::register_standing`].
#[derive(Clone)]
pub struct StandingRequest {
    /// Catalog name of the graph to watch.
    pub graph: String,
    /// Pattern whose match set is maintained.
    pub pattern: Pattern,
    /// Engine configuration for the maintenance runs. The cancel token
    /// and time limit are stripped at registration: a maintenance pass
    /// that stops early would break the exactness identity.
    pub config: MatcherConfig,
    /// When set, deltas carry the concrete embeddings, not just counts.
    pub report_embeddings: bool,
}

impl StandingRequest {
    /// A counting subscription with the default T-DFS engine.
    pub fn new(graph: impl Into<String>, pattern: Pattern) -> Self {
        Self {
            graph: graph.into(),
            pattern,
            config: MatcherConfig::tdfs(),
            report_embeddings: false,
        }
    }

    /// Sets the engine configuration used by maintenance passes.
    pub fn with_config(mut self, config: MatcherConfig) -> Self {
        self.config = config;
        self
    }

    /// Requests concrete embeddings in each delta.
    pub fn with_embeddings(mut self) -> Self {
        self.report_embeddings = true;
        self
    }
}

/// Subscriber callback. Invoked synchronously from
/// [`crate::Service::apply`], once per applied batch, after commit. A
/// callback that panics is unregistered.
pub type NotifyFn = dyn Fn(&MatchDelta) + Send + Sync;

/// A registered standing query (internal registry entry).
pub(crate) struct StandingQuery {
    /// Catalog name of the watched graph.
    pub(crate) graph: String,
    /// The maintained pattern.
    pub(crate) pattern: Pattern,
    /// Sanitized engine config (no cancel, no time limit).
    pub(crate) config: MatcherConfig,
    /// Whether deltas carry embeddings.
    pub(crate) report_embeddings: bool,
    /// The pattern's full automorphism group (canonicalization key).
    pub(crate) aut: Arc<Vec<Permutation>>,
    /// One pass per undirected pattern-edge orbit representative `r`:
    /// the plan rooted at `r`, which pins `r` to matching-order positions
    /// 0 and 1, where the changed-edge seeds land, and breaks `Stab(r)`.
    pub(crate) plans: Vec<Arc<QueryPlan>>,
    /// Where deltas go.
    pub(crate) callback: Arc<NotifyFn>,
    /// Highest graph version already delivered: a delta at or below it
    /// is never delivered.
    pub(crate) last_version: AtomicU64,
}

impl StandingQuery {
    /// Compiles a registration: automorphism group, edge-orbit
    /// representatives, and one rooted plan per representative.
    /// `registered_at` is the watched graph's current version; deltas
    /// are only produced for versions beyond it.
    pub(crate) fn build(
        request: StandingRequest,
        callback: Arc<NotifyFn>,
        registered_at: u64,
    ) -> Self {
        let mut config = request.config;
        config.cancel = None;
        config.time_limit = None;
        let aut = Arc::new(automorphisms(&request.pattern));
        let plans = edge_orbit_reps(&request.pattern)
            .into_iter()
            .map(|(a, b)| Arc::new(QueryPlan::build_rooted(&request.pattern, a, b, config.plan)))
            .collect();
        Self {
            graph: request.graph,
            pattern: request.pattern,
            config,
            report_embeddings: request.report_embeddings,
            aut,
            plans,
            callback,
            last_version: AtomicU64::new(registered_at),
        }
    }
}

/// Both orientations of each changed (normalized `u < v`) data edge.
///
/// A rooted plan pins pattern vertices `(a, b)` onto the seed endpoints
/// in order, and a match may put either endpoint of the data edge at
/// `a` — so every changed edge seeds both `(u, v)` and `(v, u)`.
pub(crate) fn oriented_seeds(changed: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(changed.len() * 2);
    for &(u, v) in changed {
        out.push((u, v));
        out.push((v, u));
    }
    out
}

/// One side of a delta: the distinct match count, plus the sorted
/// embeddings when the subscription tracks them.
pub(crate) type DeltaSide = (u64, Option<Vec<Vec<u32>>>);

/// Canonicalizing match collector shared by every maintenance pass of
/// one (standing query with embeddings × batch side). A pass emits each
/// class it owns as one embedding, in its rooted order's vertex
/// assignment, and a reclaimed shard's emissions may arrive twice
/// (emissions are at-least-once under lease reclaim races; see
/// [`crate::durable`]); this sink maps each embedding to its class's
/// canonical tuple and folds the repeats. Count-only subscriptions
/// never build one.
///
/// Receives **pattern-vertex-indexed** assignments: the durable run
/// remaps matching-order positions before it feeds a client sink.
pub(crate) struct DedupSink {
    aut: Arc<Vec<Permutation>>,
    seen: Mutex<HashSet<Vec<u32>>>,
}

impl DedupSink {
    pub(crate) fn new(aut: Arc<Vec<Permutation>>) -> Self {
        Self {
            aut,
            seen: Mutex::new(HashSet::new()),
        }
    }

    /// Lexicographically smallest automorphic image of `m` — the class
    /// representative. The group always contains the identity, so the
    /// fold never comes up empty.
    fn canonical(&self, m: &[u32]) -> Vec<u32> {
        let mut best: Option<Vec<u32>> = None;
        for sigma in self.aut.iter() {
            let img: Vec<u32> = sigma.iter().map(|&s| m[s]).collect();
            if best.as_ref().is_none_or(|b| img < *b) {
                best = Some(img);
            }
        }
        best.unwrap_or_else(|| m.to_vec())
    }

    /// The distinct classes collected, sorted. Consumes the collected
    /// state.
    pub(crate) fn take(&self) -> Vec<Vec<u32>> {
        let mut seen = self
            .seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut classes: Vec<Vec<u32>> = seen.drain().collect();
        classes.sort_unstable();
        classes
    }
}

impl MatchSink for DedupSink {
    fn emit(&self, m: &[u32]) {
        let key = self.canonical(m);
        self.seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_collapses_automorphic_images_of_one_triangle() {
        let tri = Pattern::clique(3);
        let aut = Arc::new(automorphisms(&tri));
        assert_eq!(aut.len(), 6);
        let sink = DedupSink::new(aut);
        // All 6 images of the same data triangle {7, 8, 9} …
        for m in [
            [7u32, 8, 9],
            [7, 9, 8],
            [8, 7, 9],
            [8, 9, 7],
            [9, 7, 8],
            [9, 8, 7],
        ] {
            sink.emit(&m);
        }
        // … plus a genuinely different one.
        sink.emit(&[9, 8, 10]);
        assert_eq!(sink.take(), vec![vec![7, 8, 9], vec![8, 9, 10]]);
        assert!(sink.take().is_empty(), "take drains");
    }

    #[test]
    fn oriented_seeds_doubles_each_edge() {
        assert_eq!(
            oriented_seeds(&[(1, 2), (3, 5)]),
            vec![(1, 2), (2, 1), (3, 5), (5, 3)]
        );
    }

    #[test]
    fn build_compiles_one_rooted_plan_per_orbit_and_strips_limits() {
        let house = Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]);
        let mut cfg = MatcherConfig::tdfs();
        cfg.time_limit = Some(std::time::Duration::from_millis(1));
        let req = StandingRequest::new("g", house.clone()).with_config(cfg);
        let sq = StandingQuery::build(req, Arc::new(|_d: &MatchDelta| {}), 3);
        assert_eq!(sq.plans.len(), 4, "house has four edge orbits");
        assert!(sq.config.time_limit.is_none());
        assert!(sq.config.cancel.is_none());
        // The house's one non-trivial automorphism mirrors it across the
        // axis through the roof: it reverses edges {0,1} and {2,3}, so
        // those two orbits have stabilizers of 2, and it swaps the walls
        // and the roof's sides, whose stabilizers are trivial. Each
        // rooted plan breaks its anchor's stabilizer, and the anchor's
        // pair constraint appears exactly where that stabilizer reverses
        // the anchor.
        let sizes: Vec<usize> = sq.plans.iter().map(|plan| plan.aut_size).collect();
        assert_eq!(sizes, vec![2, 1, 1, 2]);
        for plan in &sq.plans {
            let pair = plan.levels[1].greater_than == [0];
            assert_eq!(pair, plan.aut_size == 2);
            let constraints: usize = plan
                .levels
                .iter()
                .map(|l| l.greater_than.len() + l.less_than.len())
                .sum();
            assert_eq!(constraints, usize::from(pair));
        }
        assert_eq!(
            sq.last_version.load(std::sync::atomic::Ordering::Relaxed),
            3
        );
    }
}
