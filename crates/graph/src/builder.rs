//! Edge-list → CSR construction.
//!
//! The builder accepts arbitrary (possibly duplicated, self-looped,
//! one-directional) edge lists and produces a clean undirected CSR graph:
//! self-loops dropped, duplicates merged, adjacency symmetrized and sorted.

use crate::csr::{CsrGraph, Label, VertexId};

/// Incremental builder for [`CsrGraph`].
///
/// ```
/// use tdfs_graph::GraphBuilder;
/// let g = GraphBuilder::new()
///     .edges([(0, 1), (1, 2), (2, 0)])
///     .build();
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    labels: Vec<Label>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves capacity for `n` edges up front.
    pub fn with_edge_capacity(n: usize) -> Self {
        Self {
            edges: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Ensures the graph has at least `n` vertices even if some have no
    /// incident edges.
    pub fn num_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds one undirected edge. Self-loops are silently dropped at build
    /// time; duplicates are merged.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Adds many undirected edges.
    pub fn edges(mut self, it: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        self.edges.extend(it);
        self
    }

    /// Mutable-reference edge push for loops that cannot consume the
    /// builder.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Sets vertex labels. Must cover every vertex at build time.
    pub fn labels(mut self, labels: Vec<Label>) -> Self {
        self.labels = labels;
        self
    }

    /// Finalizes into a [`CsrGraph`].
    ///
    /// Panics if labels were supplied but do not cover every vertex.
    pub fn build(self) -> CsrGraph {
        let GraphBuilder {
            mut edges,
            labels,
            min_vertices,
        } = self;

        let mut n = min_vertices;
        for &(u, v) in &edges {
            n = n.max(u as usize + 1).max(v as usize + 1);
        }
        if !labels.is_empty() {
            assert!(
                labels.len() >= n,
                "labels ({}) must cover every vertex ({n})",
                labels.len()
            );
            n = n.max(labels.len());
        }

        // Normalize: drop self-loops, canonicalize direction, dedup.
        edges.retain(|&(u, v)| u != v);
        for e in &mut edges {
            if e.0 > e.1 {
                *e = (e.1, e.0);
            }
        }
        edges.sort_unstable();
        edges.dedup();

        // Counting sort into CSR (both directions).
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut acc = 0usize;
        for &d in &degree {
            acc += d;
            row_ptr.push(acc);
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0 as VertexId; acc];
        for &(u, v) in &edges {
            col_idx[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            col_idx[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each list is already sorted because we inserted edges in
        // lexicographic (u, v) order: for a fixed u, the v's arrive
        // ascending, and for a fixed v the u's arrive ascending too.
        CsrGraph::from_parts(row_ptr, col_idx, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_selfloop_removal() {
        let g = GraphBuilder::new()
            .edges([(1, 0), (0, 1), (1, 1), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn direction_canonicalized() {
        let g = GraphBuilder::new().edges([(3, 1), (2, 0)]).build();
        assert!(g.has_edge(1, 3) && g.has_edge(3, 1));
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
    }

    #[test]
    fn min_vertices_respected() {
        let g = GraphBuilder::new().num_vertices(10).edges([(0, 1)]).build();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn labels_extend_vertex_count() {
        let g = GraphBuilder::new()
            .edges([(0, 1)])
            .labels(vec![0, 1, 2])
            .build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.label(2), 2);
    }

    #[test]
    #[should_panic(expected = "must cover every vertex")]
    fn short_labels_panic() {
        let _ = GraphBuilder::new()
            .edges([(0, 5)])
            .labels(vec![0, 1])
            .build();
    }

    #[test]
    fn adjacency_sorted() {
        let g = GraphBuilder::new()
            .edges([(0, 5), (0, 2), (0, 9), (0, 1)])
            .build();
        assert_eq!(g.neighbors(0), &[1, 2, 5, 9]);
    }
}
