//! Immutable compressed-sparse-row graph.
//!
//! This mirrors the device-memory layout the paper uses: `row_ptr` holds
//! `n + 1` offsets into the flat `col_idx` adjacency array, and each
//! vertex's neighbor list is sorted ascending so that warp-level binary
//! search (and hence coalesced intersection) works directly on it.

use std::fmt;

/// Vertex identifier. The paper encodes tasks as `i32` triples with `-1`
/// and `-2` sentinels, so data-graph vertex ids must fit in `i32`; we use
/// `u32` for indexing and convert at the task-queue boundary.
pub type VertexId = u32;

/// Vertex label. Unlabeled graphs use label `0` for every vertex.
pub type Label = u32;

/// Upper bound on vertex ids and label values: both cross the task-queue
/// / device boundary as `i32`, so anything `>= 2^31` is unrepresentable.
pub const MAX_VERTEX_ID: u32 = i32::MAX as u32;

/// A violated CSR invariant, reported instead of a panic when building a
/// graph from untrusted parts ([`CsrGraph::try_from_parts`]) or loading
/// one from external input ([`crate::io`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// `row_ptr` is empty (must hold `n + 1` offsets).
    EmptyRowPtr,
    /// `row_ptr[0]` is not `0`.
    BadFirstOffset(usize),
    /// `row_ptr[n]` does not equal `col_idx.len()`.
    BadLastOffset {
        /// The offset found at `row_ptr[n]`.
        got: usize,
        /// The adjacency length it must equal.
        arcs: usize,
    },
    /// `row_ptr[v] > row_ptr[v + 1]` — offsets must be monotone.
    NonMonotoneOffsets {
        /// The vertex whose range is negative.
        vertex: usize,
    },
    /// More vertices than ids representable at the device boundary
    /// ([`MAX_VERTEX_ID`]).
    TooManyVertices {
        /// The vertex count found.
        got: usize,
    },
    /// A neighbor list is not strictly increasing (unsorted or
    /// duplicated entries).
    UnsortedAdjacency {
        /// The vertex whose list is malformed.
        vertex: usize,
    },
    /// A neighbor id is `>= n`.
    NeighborOutOfRange {
        /// The vertex whose list contains the bad entry.
        vertex: usize,
        /// The out-of-range neighbor id.
        neighbor: VertexId,
    },
    /// A vertex lists itself as a neighbor.
    SelfLoop {
        /// The offending vertex.
        vertex: usize,
    },
    /// `u ∈ N(v)` but `v ∉ N(u)` — the adjacency is not symmetric.
    AsymmetricAdjacency {
        /// The endpoint with the dangling arc.
        u: VertexId,
        /// The endpoint missing the reverse arc.
        v: VertexId,
    },
    /// `labels.len()` is neither `0` nor the vertex count.
    LabelCountMismatch {
        /// The vertex count labels must cover.
        expected: usize,
        /// The label count found.
        got: usize,
    },
    /// A label value exceeds [`MAX_VERTEX_ID`] (labels also cross the
    /// device boundary as `i32`).
    LabelOutOfRange {
        /// The vertex carrying the bad label.
        vertex: usize,
        /// The out-of-range label value.
        label: Label,
    },
    /// A persisted delta overlay contradicts its base: it inserts an edge
    /// the base already has, or deletes one the base lacks.
    OverlayMismatch {
        /// The smaller endpoint.
        u: VertexId,
        /// The larger endpoint.
        v: VertexId,
        /// Whether the edge is listed as an insert (else as a delete).
        insert: bool,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyRowPtr => write!(f, "row_ptr is empty"),
            GraphError::BadFirstOffset(o) => write!(f, "row_ptr[0] = {o}, expected 0"),
            GraphError::BadLastOffset { got, arcs } => {
                write!(f, "row_ptr[n] = {got}, expected col_idx.len() = {arcs}")
            }
            GraphError::NonMonotoneOffsets { vertex } => {
                write!(f, "row_ptr not monotone at vertex {vertex}")
            }
            GraphError::TooManyVertices { got } => {
                write!(f, "{got} vertices exceed the i32 device-id range")
            }
            GraphError::UnsortedAdjacency { vertex } => {
                write!(f, "neighbor list of vertex {vertex} not strictly sorted")
            }
            GraphError::NeighborOutOfRange { vertex, neighbor } => {
                write!(f, "vertex {vertex} lists out-of-range neighbor {neighbor}")
            }
            GraphError::SelfLoop { vertex } => write!(f, "vertex {vertex} lists itself"),
            GraphError::AsymmetricAdjacency { u, v } => {
                write!(f, "arc {u}->{v} has no reverse arc")
            }
            GraphError::LabelCountMismatch { expected, got } => {
                write!(f, "{got} labels for {expected} vertices")
            }
            GraphError::LabelOutOfRange { vertex, label } => {
                write!(f, "label {label} of vertex {vertex} exceeds the i32 range")
            }
            GraphError::OverlayMismatch { u, v, insert: true } => {
                write!(
                    f,
                    "overlay inserts edge ({u}, {v}), which the base already has"
                )
            }
            GraphError::OverlayMismatch {
                u,
                v,
                insert: false,
            } => {
                write!(f, "overlay deletes edge ({u}, {v}), which the base lacks")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable undirected graph in CSR form with optional vertex labels.
///
/// Invariants (checked by `debug_assert!` on construction and relied upon
/// throughout the engine):
/// - `row_ptr.len() == n + 1`, `row_ptr[0] == 0`,
///   `row_ptr[n] == col_idx.len()`;
/// - each neighbor list `col_idx[row_ptr[v]..row_ptr[v+1]]` is strictly
///   increasing (sorted, no duplicates, no self-loop);
/// - the adjacency is symmetric: `u ∈ N(v) ⇔ v ∈ N(u)`;
/// - `labels.len() == n` when labels are present.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    row_ptr: Vec<usize>,
    col_idx: Vec<VertexId>,
    /// Empty for unlabeled graphs.
    labels: Vec<Label>,
    max_degree: usize,
    num_labels: usize,
}

impl CsrGraph {
    /// Builds a CSR graph from prevalidated parts.
    ///
    /// `labels` may be empty (unlabeled). Panics in debug builds if the
    /// CSR invariants do not hold.
    pub(crate) fn from_parts(
        row_ptr: Vec<usize>,
        col_idx: Vec<VertexId>,
        labels: Vec<Label>,
    ) -> Self {
        debug_assert!(!row_ptr.is_empty());
        debug_assert_eq!(*row_ptr.first().unwrap(), 0);
        debug_assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        let n = row_ptr.len() - 1;
        debug_assert!(labels.is_empty() || labels.len() == n);
        let mut max_degree = 0;
        for v in 0..n {
            let list = &col_idx[row_ptr[v]..row_ptr[v + 1]];
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "neighbor list of {v} not strictly sorted"
            );
            debug_assert!(list.iter().all(|&u| (u as usize) < n && u as usize != v));
            max_degree = max_degree.max(list.len());
        }
        let num_labels = labels.iter().copied().max().map_or(1, |m| m as usize + 1);
        Self {
            row_ptr,
            col_idx,
            labels,
            max_degree,
            num_labels,
        }
    }

    /// Builds a CSR graph from *untrusted* parts, checking every
    /// invariant `from_parts` only debug-asserts —
    /// monotone offsets, sorted in-range adjacency, symmetry, label
    /// coverage and the `i32` device-id range — and returning a typed
    /// [`GraphError`] instead of panicking (or silently accepting) on
    /// malformed input. This is the path all external loaders take.
    pub fn try_from_parts(
        row_ptr: Vec<usize>,
        col_idx: Vec<VertexId>,
        labels: Vec<Label>,
    ) -> Result<Self, GraphError> {
        if row_ptr.is_empty() {
            return Err(GraphError::EmptyRowPtr);
        }
        let first = *row_ptr.first().unwrap();
        if first != 0 {
            return Err(GraphError::BadFirstOffset(first));
        }
        let last = *row_ptr.last().unwrap();
        if last != col_idx.len() {
            return Err(GraphError::BadLastOffset {
                got: last,
                arcs: col_idx.len(),
            });
        }
        let n = row_ptr.len() - 1;
        if n > MAX_VERTEX_ID as usize {
            return Err(GraphError::TooManyVertices { got: n });
        }
        if let Some(v) = row_ptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::NonMonotoneOffsets { vertex: v });
        }
        if !labels.is_empty() && labels.len() != n {
            return Err(GraphError::LabelCountMismatch {
                expected: n,
                got: labels.len(),
            });
        }
        if let Some((v, &l)) = labels.iter().enumerate().find(|(_, &l)| l > MAX_VERTEX_ID) {
            return Err(GraphError::LabelOutOfRange {
                vertex: v,
                label: l,
            });
        }
        for v in 0..n {
            let list = &col_idx[row_ptr[v]..row_ptr[v + 1]];
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(GraphError::UnsortedAdjacency { vertex: v });
            }
            for &u in list {
                if u as usize >= n {
                    return Err(GraphError::NeighborOutOfRange {
                        vertex: v,
                        neighbor: u,
                    });
                }
                if u as usize == v {
                    return Err(GraphError::SelfLoop { vertex: v });
                }
            }
        }
        // Symmetry: every arc must have its reverse. Per-list binary
        // search keeps this O(m log d) without extra allocation.
        for v in 0..n {
            for &u in &col_idx[row_ptr[v]..row_ptr[v + 1]] {
                let back = &col_idx[row_ptr[u as usize]..row_ptr[u as usize + 1]];
                if back.binary_search(&(v as VertexId)).is_err() {
                    return Err(GraphError::AsymmetricAdjacency {
                        u: v as VertexId,
                        v: u,
                    });
                }
            }
        }
        Ok(Self::from_parts(row_ptr, col_idx, labels))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of undirected edges (each stored twice in CSR).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_idx.len() / 2
    }

    /// Number of directed arcs, i.e. `col_idx.len()`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.col_idx.len()
    }

    /// Maximum vertex degree `d_max` — the capacity the array-stack
    /// baseline must provision per level (paper §III).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col_idx[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// Whether the graph carries vertex labels.
    #[inline]
    pub fn is_labeled(&self) -> bool {
        !self.labels.is_empty()
    }

    /// Label of `v` (0 for unlabeled graphs).
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        if self.labels.is_empty() {
            0
        } else {
            self.labels[v as usize]
        }
    }

    /// Number of distinct labels (`1` for unlabeled graphs).
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// O(log d) adjacency test.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates every directed arc `(u, v)`; undirected edges appear in
    /// both directions. This is the initial-task stream of the engine
    /// (the paper creates initial tasks from edges, i.e. the first two
    /// levels of the state-space tree).
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// The `i`-th directed arc in CSR order, `i < num_arcs()`.
    /// O(log n) via binary search over `row_ptr`.
    pub fn arc(&self, i: usize) -> (VertexId, VertexId) {
        debug_assert!(i < self.col_idx.len());
        // partition_point returns the first v with row_ptr[v+1] > i.
        let u = self.row_ptr[1..].partition_point(|&end| end <= i);
        (u as VertexId, self.col_idx[i])
    }

    /// Replaces the label array (used by the label-selectivity experiment
    /// which re-labels the same topology with a varying `|L|`).
    ///
    /// Panics if `labels.len()` is neither 0 nor `num_vertices()`.
    pub fn with_labels(mut self, labels: Vec<Label>) -> Self {
        assert!(
            labels.is_empty() || labels.len() == self.num_vertices(),
            "label array length mismatch"
        );
        self.num_labels = labels.iter().copied().max().map_or(1, |m| m as usize + 1);
        self.labels = labels;
        self
    }

    /// Raw CSR parts `(row_ptr, col_idx, labels)`, for serialization.
    pub fn parts(&self) -> (&[usize], &[VertexId], &[Label]) {
        (&self.row_ptr, &self.col_idx, &self.labels)
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .field("max_degree", &self.max_degree)
            .field("labeled", &self.is_labeled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 0-2 triangle; 2-3 tail.
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (0, 2), (2, 3)])
            .build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        for (u, v) in g.arcs() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn has_edge_works() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn arc_indexing_matches_iteration() {
        let g = triangle_plus_tail();
        let collected: Vec<_> = g.arcs().collect();
        for (i, &(u, v)) in collected.iter().enumerate() {
            assert_eq!(g.arc(i), (u, v));
        }
    }

    #[test]
    fn unlabeled_defaults() {
        let g = triangle_plus_tail();
        assert!(!g.is_labeled());
        assert_eq!(g.label(0), 0);
        assert_eq!(g.num_labels(), 1);
    }

    #[test]
    fn with_labels_roundtrip() {
        let g = triangle_plus_tail().with_labels(vec![0, 1, 2, 1]);
        assert!(g.is_labeled());
        assert_eq!(g.label(2), 2);
        assert_eq!(g.num_labels(), 3);
    }

    #[test]
    #[should_panic(expected = "label array length mismatch")]
    fn with_labels_rejects_bad_len() {
        let _ = triangle_plus_tail().with_labels(vec![0, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().num_vertices(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new().num_vertices(5).edges([(0, 1)]).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
    }
}
