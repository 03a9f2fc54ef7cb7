//! The graph catalog: named, shared, versioned data graphs.
//!
//! Queries address graphs by name; the catalog hands out `Arc` clones so
//! a graph stays alive for every in-flight query even if it is
//! unregistered (or replaced) mid-run. Registration is cheap — graphs
//! are never copied.
//!
//! Since the batch-dynamic subsystem, entries are [`DeltaCsr`] *views*
//! rather than raw CSR: an immutable base plus copy-on-write edge
//! deltas, stamped with a monotone [`GraphVersion`](tdfs_graph::GraphVersion). A static workload
//! is just the version-0 view over its base (zero overlay, zero extra
//! indirection in the engines thanks to `GraphView` monomorphization).
//! Mutation never edits an entry in place — `Service::apply` builds the
//! successor view and [`swap`](GraphCatalog::swap)s it in, so in-flight
//! queries keep enumerating their own frozen snapshot.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use tdfs_graph::{CsrGraph, DeltaCsr};

/// Thread-safe name → versioned-graph registry.
#[derive(Default)]
pub struct GraphCatalog {
    graphs: RwLock<HashMap<String, Arc<DeltaCsr>>>,
}

impl GraphCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `graph` under `name`, returning the previous graph with
    /// that name, if any. In-flight queries against a replaced graph
    /// keep their own `Arc` and finish against the old snapshot.
    pub fn register(&self, name: impl Into<String>, graph: Arc<DeltaCsr>) -> Option<Arc<DeltaCsr>> {
        self.graphs
            .write()
            .expect("catalog poisoned")
            .insert(name.into(), graph)
    }

    /// Registers an immutable CSR as the version-0 view under `name`.
    pub fn register_base(
        &self,
        name: impl Into<String>,
        base: Arc<CsrGraph>,
    ) -> Option<Arc<DeltaCsr>> {
        self.register(name, Arc::new(DeltaCsr::from_base(base)))
    }

    /// Atomically replaces the entry named `name` with `next` *iff* the
    /// entry still is `expected` (pointer identity) — the commit step of
    /// `Service::apply`. Returns `false` without modifying anything if
    /// the entry was concurrently unregistered or replaced.
    pub fn swap(&self, name: &str, expected: &Arc<DeltaCsr>, next: Arc<DeltaCsr>) -> bool {
        let mut map = self.graphs.write().expect("catalog poisoned");
        match map.get_mut(name) {
            Some(slot) if Arc::ptr_eq(slot, expected) => {
                *slot = next;
                true
            }
            _ => false,
        }
    }

    /// Removes the graph named `name`, returning it if it was present.
    pub fn unregister(&self, name: &str) -> Option<Arc<DeltaCsr>> {
        self.graphs.write().expect("catalog poisoned").remove(name)
    }

    /// Looks up a graph by name.
    pub fn get(&self, name: &str) -> Option<Arc<DeltaCsr>> {
        self.graphs
            .read()
            .expect("catalog poisoned")
            .get(name)
            .cloned()
    }

    /// Whether a graph named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.graphs
            .read()
            .expect("catalog poisoned")
            .contains_key(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .graphs
            .read()
            .expect("catalog poisoned")
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().expect("catalog poisoned").len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfs_graph::{EdgeBatch, GraphBuilder, GraphView};

    fn triangle() -> Arc<CsrGraph> {
        let mut b = GraphBuilder::new();
        b.push_edge(0, 1);
        b.push_edge(1, 2);
        b.push_edge(0, 2);
        Arc::new(b.build())
    }

    #[test]
    fn register_get_unregister() {
        let c = GraphCatalog::new();
        assert!(c.is_empty());
        assert!(c.register_base("t", triangle()).is_none());
        assert!(c.contains("t"));
        assert_eq!(c.names(), vec!["t".to_string()]);
        let g = c.get("t").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.version(), 0);
        assert!(c.unregister("t").is_some());
        assert!(c.get("t").is_none());
    }

    #[test]
    fn replacement_returns_old_and_old_arcs_survive() {
        let c = GraphCatalog::new();
        c.register_base("g", triangle());
        let held = c.get("g").unwrap();
        let old = c.register_base("g", triangle()).unwrap();
        assert!(Arc::ptr_eq(&held, &old));
        assert!(!Arc::ptr_eq(&held, &c.get("g").unwrap()));
        assert_eq!(held.num_vertices(), 3);
    }

    #[test]
    fn swap_is_conditional_on_identity() {
        let c = GraphCatalog::new();
        c.register_base("g", triangle());
        let cur = c.get("g").unwrap();
        let (next, _) = cur.apply(&EdgeBatch::new().delete(0, 2)).unwrap();
        let next = Arc::new(next);

        // A stale expectation must not clobber a concurrent replacement.
        let stale = Arc::new(DeltaCsr::from_base(triangle()));
        assert!(!c.swap("g", &stale, next.clone()));
        assert_eq!(c.get("g").unwrap().version(), 0);

        assert!(c.swap("g", &cur, next));
        let now = c.get("g").unwrap();
        assert_eq!(now.version(), 1);
        assert_eq!(now.num_edges(), 2);

        // Swapping an unregistered name is a no-op.
        assert!(!c.swap("missing", &cur, Arc::new(DeltaCsr::from_base(triangle()))));
    }
}
