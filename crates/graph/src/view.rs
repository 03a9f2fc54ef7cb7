//! The [`GraphView`] abstraction over base-or-delta adjacency.
//!
//! Every engine in `tdfs-core` (and every warp-level intersection in
//! `tdfs-gpu`) consumes a data graph through exactly the same narrow
//! surface: sorted neighbor slices, labels, degrees and the directed-arc
//! stream. `GraphView` names that surface so the engines run unmodified
//! over either the immutable [`CsrGraph`] or the
//! batch-dynamic [`DeltaCsr`](crate::DeltaCsr) — the warp kernels only
//! ever see `&[u32]` slices, so a view that can hand out sorted slices
//! is indistinguishable from device-resident CSR.
//!
//! The trait is deliberately *not* dyn-compatible (`neighbors` returns a
//! borrowed slice and [`GraphView::arcs`] is an RPITIT); engines are
//! generic over `V: GraphView`, which monomorphizes the hot loops
//! exactly as before — the static-graph path pays nothing for the
//! abstraction.

use crate::csr::{CsrGraph, Label, VertexId};

/// Read-only adjacency view consumed by the matching engines.
///
/// Invariants implementors must uphold (the engines rely on them the
/// same way they rely on the CSR invariants):
///
/// - [`neighbors`](Self::neighbors) is strictly increasing, self-loop
///   free, and symmetric (`u ∈ N(v) ⇔ v ∈ N(u)`);
/// - [`num_arcs`](Self::num_arcs) equals the summed neighbor-list
///   lengths and [`num_edges`](Self::num_edges) is half of it;
/// - [`max_degree`](Self::max_degree) is an *upper bound* on every
///   degree — stack-capacity sizing needs "at least", not "exactly";
/// - [`arc`](Self::arc) enumerates arcs in row-major CSR order (vertex
///   by vertex, neighbors ascending), consistent with
///   [`arcs`](Self::arcs).
pub trait GraphView: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges (each stored twice as arcs).
    fn num_edges(&self) -> usize;

    /// Number of directed arcs (`2 * num_edges`).
    fn num_arcs(&self) -> usize;

    /// Upper bound on the maximum vertex degree (exact for `CsrGraph`).
    fn max_degree(&self) -> usize;

    /// Sorted neighbor list of `v`.
    fn neighbors(&self, v: VertexId) -> &[VertexId];

    /// Whether the graph carries vertex labels.
    fn is_labeled(&self) -> bool;

    /// Label of `v` (0 for unlabeled graphs).
    fn label(&self, v: VertexId) -> Label;

    /// Number of distinct labels (`1` for unlabeled graphs).
    fn num_labels(&self) -> usize;

    /// The `i`-th directed arc in row-major order, `i < num_arcs()`.
    fn arc(&self, i: usize) -> (VertexId, VertexId);

    /// Degree of vertex `v`.
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// O(log d) adjacency test.
    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates every directed arc `(u, v)` in row-major order;
    /// undirected edges appear in both directions. This is the
    /// initial-task stream of the engine.
    fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        CsrGraph::num_arcs(self)
    }

    #[inline]
    fn max_degree(&self) -> usize {
        CsrGraph::max_degree(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        CsrGraph::neighbors(self, v)
    }

    #[inline]
    fn is_labeled(&self) -> bool {
        CsrGraph::is_labeled(self)
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        CsrGraph::label(self, v)
    }

    #[inline]
    fn num_labels(&self) -> usize {
        CsrGraph::num_labels(self)
    }

    #[inline]
    fn arc(&self, i: usize) -> (VertexId, VertexId) {
        CsrGraph::arc(self, i)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    #[inline]
    fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        CsrGraph::arcs(self)
    }
}

/// Shared-ownership views are views: callers holding an
/// `Arc<CsrGraph>`/`Arc<DeltaCsr>` (the catalog's currency) can pass
/// `&arc` straight to a generic engine without deref gymnastics.
impl<V: GraphView + Send> GraphView for std::sync::Arc<V> {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        (**self).num_arcs()
    }

    #[inline]
    fn max_degree(&self) -> usize {
        (**self).max_degree()
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        (**self).neighbors(v)
    }

    #[inline]
    fn is_labeled(&self) -> bool {
        (**self).is_labeled()
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        (**self).label(v)
    }

    #[inline]
    fn num_labels(&self) -> usize {
        (**self).num_labels()
    }

    #[inline]
    fn arc(&self, i: usize) -> (VertexId, VertexId) {
        (**self).arc(i)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        (**self).has_edge(u, v)
    }

    #[inline]
    fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (**self).arcs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn view_arc_sum<V: GraphView>(g: &V) -> (usize, u64) {
        let mut n = 0usize;
        let mut sum = 0u64;
        for (u, v) in g.arcs() {
            assert_eq!(g.arc(n), (u, v));
            n += 1;
            sum += u as u64 + v as u64;
        }
        (n, sum)
    }

    #[test]
    fn csr_satisfies_the_view_contract() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (0, 2), (2, 3)])
            .build();
        let (arcs, _) = view_arc_sum(&g);
        assert_eq!(arcs, GraphView::num_arcs(&g));
        assert_eq!(GraphView::num_edges(&g), 4);
        assert_eq!(GraphView::degree(&g, 2), 3);
        assert!(GraphView::has_edge(&g, 0, 2));
        assert!(!GraphView::has_edge(&g, 0, 3));
        assert_eq!(GraphView::label(&g, 0), 0);
        assert!(GraphView::max_degree(&g) >= 3);
    }
}
