//! Batch-dynamic graphs: an immutable CSR base plus a dense overlay of
//! merged rows, monotonically versioned.
//!
//! [`DeltaCsr`] is the serving-tier mutation story (after
//! "GPU-Accelerated Batch-Dynamic Subgraph Matching"): the graph in the
//! catalog stays an immutable [`CsrGraph`] base, and a batch of edge
//! insertions/deletions is *applied* copy-on-write — [`apply`] returns a
//! **new** `DeltaCsr` at version `v + 1` while every in-flight query
//! keeps matching against the old value it holds.
//!
//! The overlay is indexed, never hashed. A vertex whose adjacency differs
//! from the base owns one merged, sorted row (an `Arc<[u32]>`) that a
//! per-vertex slot index points at; versions share every row a batch
//! leaves alone, so an apply allocates only the rows it re-merges. The
//! view's row offsets, rebuilt with the slots on every apply, give each
//! degree and the row-major arc order. So on a touched view
//! `neighbors` is one slot load plus the row (or base) read, `degree` is
//! two offset loads and `arc` a binary search over the offsets, and the
//! engines (via [`GraphView`]) and the warp intersection kernels still
//! consume plain sorted `&[u32]` slices. A compact view — no vertex
//! touched — holds no slots, rows or offsets and reads the base
//! directly. Periodic [`compact`] folds the overlay into a fresh base.
//!
//! Batch semantics are `G' = (G \ D) ∪ I` with self-loops and
//! duplicates ignored: within one batch, deletes apply before inserts,
//! so an edge listed in both ends up present. [`apply`] reports the
//! *effective* batch — `deleted = (D ∩ E(G)) \ I`, `inserted = I \
//! E(G)` — which is exactly the edge set incremental match maintenance
//! must seed from (`tdfs-service`'s standing-query registry).
//!
//! [`apply`]: DeltaCsr::apply
//! [`compact`]: DeltaCsr::compact

use std::fmt;
use std::mem::{size_of, size_of_val};
use std::sync::Arc;

use crate::csr::{CsrGraph, GraphError, Label, VertexId};
use crate::mapped::{MmapGraph, PinScope};
use crate::view::GraphView;

/// The immutable adjacency a [`DeltaCsr`] layers its overlay over:
/// either a heap [`CsrGraph`] or a disk-resident [`MmapGraph`] served
/// from a `TDFSGRPH` container. Engines never see the distinction —
/// both read through [`GraphView`] — but the storage tier does: a
/// mapped base keeps the catalog's resident footprint at
/// `O(overlay + decode cache)` instead of `O(graph)`.
#[derive(Clone, Debug)]
pub enum GraphBase {
    /// Fully heap-resident CSR.
    Heap(Arc<CsrGraph>),
    /// Mmap'd container with an on-demand decode cache.
    Mapped(Arc<MmapGraph>),
}

impl GraphBase {
    /// The heap CSR, when this base is heap-resident.
    pub fn as_heap(&self) -> Option<&Arc<CsrGraph>> {
        match self {
            GraphBase::Heap(g) => Some(g),
            GraphBase::Mapped(_) => None,
        }
    }

    /// The mapped container, when this base is disk-resident.
    pub fn as_mapped(&self) -> Option<&Arc<MmapGraph>> {
        match self {
            GraphBase::Heap(_) => None,
            GraphBase::Mapped(m) => Some(m),
        }
    }

    /// Copies out the label array (empty when unlabeled) — what
    /// compaction feeds to the rebuilt base.
    pub fn labels_vec(&self) -> Vec<Label> {
        match self {
            GraphBase::Heap(g) => g.parts().2.to_vec(),
            GraphBase::Mapped(m) => {
                if m.is_labeled() {
                    (0..m.num_vertices() as VertexId)
                        .map(|v| m.label(v))
                        .collect()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Opens a cache-reclamation pin scope when the base is mapped (see
    /// [`MmapGraph::pin_scope`]); `None` for heap bases, whose neighbor
    /// slices are unconditionally stable.
    pub fn pin_scope(&self) -> Option<PinScope> {
        match self {
            GraphBase::Heap(_) => None,
            GraphBase::Mapped(m) => Some(m.pin_scope()),
        }
    }
}

impl GraphView for GraphBase {
    #[inline]
    fn num_vertices(&self) -> usize {
        match self {
            GraphBase::Heap(g) => g.num_vertices(),
            GraphBase::Mapped(m) => m.num_vertices(),
        }
    }

    #[inline]
    fn num_edges(&self) -> usize {
        match self {
            GraphBase::Heap(g) => g.num_edges(),
            GraphBase::Mapped(m) => GraphView::num_edges(&**m),
        }
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        match self {
            GraphBase::Heap(g) => g.num_arcs(),
            GraphBase::Mapped(m) => GraphView::num_arcs(&**m),
        }
    }

    #[inline]
    fn max_degree(&self) -> usize {
        match self {
            GraphBase::Heap(g) => g.max_degree(),
            GraphBase::Mapped(m) => GraphView::max_degree(&**m),
        }
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self {
            GraphBase::Heap(g) => g.neighbors(v),
            GraphBase::Mapped(m) => GraphView::neighbors(&**m, v),
        }
    }

    #[inline]
    fn is_labeled(&self) -> bool {
        match self {
            GraphBase::Heap(g) => g.is_labeled(),
            GraphBase::Mapped(m) => GraphView::is_labeled(&**m),
        }
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        match self {
            GraphBase::Heap(g) => g.label(v),
            GraphBase::Mapped(m) => GraphView::label(&**m, v),
        }
    }

    #[inline]
    fn num_labels(&self) -> usize {
        match self {
            GraphBase::Heap(g) => g.num_labels(),
            GraphBase::Mapped(m) => GraphView::num_labels(&**m),
        }
    }

    #[inline]
    fn arc(&self, i: usize) -> (VertexId, VertexId) {
        match self {
            GraphBase::Heap(g) => g.arc(i),
            GraphBase::Mapped(m) => GraphView::arc(&**m, i),
        }
    }

    /// Forwarded so a mapped base answers from its offsets section
    /// instead of decoding the row.
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        match self {
            GraphBase::Heap(g) => g.degree(v),
            GraphBase::Mapped(m) => GraphView::degree(&**m, v),
        }
    }
}

/// A normalized undirected edge list (`u < v`, sorted, deduplicated).
pub type EdgeList = Vec<(VertexId, VertexId)>;

/// Monotone graph version: `0` for a freshly wrapped base, `+1` per
/// applied batch (no-op batches included — a version uniquely names one
/// `apply` call, which is what notification dedup keys on).
pub type GraphVersion = u64;

/// A batch of edge mutations to apply atomically.
///
/// Endpoint order does not matter (the graph is undirected) and the
/// batch may freely contain duplicates, self-loops, already-present
/// inserts and absent deletes — [`DeltaCsr::apply`] normalizes all of
/// that and reports what actually changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    inserts: Vec<(VertexId, VertexId)>,
    deletes: Vec<(VertexId, VertexId)>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues the undirected edge `{u, v}` for insertion.
    pub fn insert(mut self, u: VertexId, v: VertexId) -> Self {
        self.inserts.push((u, v));
        self
    }

    /// Queues the undirected edge `{u, v}` for deletion.
    pub fn delete(mut self, u: VertexId, v: VertexId) -> Self {
        self.deletes.push((u, v));
        self
    }

    /// A batch inserting every listed edge.
    pub fn inserting<I: IntoIterator<Item = (VertexId, VertexId)>>(edges: I) -> Self {
        Self {
            inserts: edges.into_iter().collect(),
            deletes: Vec::new(),
        }
    }

    /// A batch deleting every listed edge.
    pub fn deleting<I: IntoIterator<Item = (VertexId, VertexId)>>(edges: I) -> Self {
        Self {
            inserts: Vec::new(),
            deletes: edges.into_iter().collect(),
        }
    }

    /// Queued insert edges (unnormalized).
    pub fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.inserts
    }

    /// Queued delete edges (unnormalized).
    pub fn deletes(&self) -> &[(VertexId, VertexId)] {
        &self.deletes
    }

    /// Whether the batch queues no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// What an [`DeltaCsr::apply`] call actually changed, normalized:
/// `u < v`, sorted, deduplicated, and *effective* — deletes of absent
/// edges, inserts of present edges, self-loops and intra-batch
/// cancellations are filtered out. These are precisely the edges whose
/// incident matches changed between the two versions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedBatch {
    /// Edges present in the new version and absent from the old.
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Edges present in the old version and absent from the new.
    pub deleted: Vec<(VertexId, VertexId)>,
}

impl AppliedBatch {
    /// Whether the batch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Total effective mutations.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }
}

/// Slot of a vertex that reads its base row.
const BASE_ROW: u32 = u32::MAX;

/// One directed adjacency change `(vertex, neighbor, insert)`.
type Change = (VertexId, VertexId, bool);

/// An immutable CSR base plus a dense overlay of merged rows,
/// monotonically versioned. See the module docs for semantics.
///
/// The vertex set is fixed by the base (edge churn, not vertex churn, is
/// the serving workload); labels are inherited from the base unchanged.
#[derive(Clone)]
pub struct DeltaCsr {
    base: GraphBase,
    version: GraphVersion,
    /// Per-vertex index into `rows`, [`BASE_ROW`] where the view reads
    /// the base row; empty while the view is compact.
    slots: Vec<u32>,
    /// The rows that differ from the base, sorted, in vertex order —
    /// what [`GraphView::neighbors`] hands to the warp kernels. Versions
    /// share the rows a batch did not touch.
    rows: Vec<Arc<[VertexId]>>,
    /// Row offsets of the view (`n + 1` entries), rebuilt per apply;
    /// empty while the view is compact.
    offsets: Vec<usize>,
    arcs: usize,
    /// The view's maximum degree (the base's while compact).
    max_degree: usize,
}

impl DeltaCsr {
    /// Wraps an immutable heap base at version 0 with no deltas.
    pub fn from_base(base: Arc<CsrGraph>) -> Self {
        Self::from_graph_base(GraphBase::Heap(base))
    }

    /// Wraps a disk-resident container base at version 0 with no deltas.
    pub fn from_mapped(base: Arc<MmapGraph>) -> Self {
        Self::from_graph_base(GraphBase::Mapped(base))
    }

    /// Wraps either kind of base at version 0 with no deltas.
    pub fn from_graph_base(base: GraphBase) -> Self {
        let arcs = GraphView::num_arcs(&base);
        let max_degree = GraphView::max_degree(&base);
        Self {
            base,
            version: 0,
            slots: Vec::new(),
            rows: Vec::new(),
            offsets: Vec::new(),
            arcs,
            max_degree,
        }
    }

    /// Wraps `base` compact but already at `version` — how the disk
    /// catalog rehydrates a graph whose deltas were folded into the
    /// container before shutdown.
    pub fn at_version(base: GraphBase, version: GraphVersion) -> Self {
        let mut d = Self::from_graph_base(base);
        d.version = version;
        d
    }

    /// Rebuilds a delta view over `base` from a persisted cumulative
    /// overlay: `inserts`/`deletes` are the effective edge sets vs the
    /// base (disjoint, as [`overlay_edges`](Self::overlay_edges)
    /// produces them), and the result reads identically to the
    /// `DeltaCsr` they were captured from, at `version`.
    ///
    /// Errors with [`GraphError::NeighborOutOfRange`] if an endpoint
    /// exceeds the base's vertex set, and with
    /// [`GraphError::OverlayMismatch`] if an insert is already in the
    /// base or a delete is missing from it — a persisted overlay that
    /// does not match its container must be rejected, not trusted.
    pub fn with_overlay(
        base: GraphBase,
        version: GraphVersion,
        inserts: &[(VertexId, VertexId)],
        deletes: &[(VertexId, VertexId)],
    ) -> Result<DeltaCsr, GraphError> {
        let d = Self::at_version(base, version);
        let mut changes = Vec::with_capacity(2 * (inserts.len() + deletes.len()));
        for (edges, insert) in [(deletes, false), (inserts, true)] {
            for &(u, v) in edges {
                d.check_endpoints(u, v)?;
                if u == v {
                    continue;
                }
                if d.base.has_edge(u, v) == insert {
                    return Err(GraphError::OverlayMismatch {
                        u: u.min(v),
                        v: u.max(v),
                        insert,
                    });
                }
                changes.extend([(u, v, insert), (v, u, insert)]);
            }
        }
        changes.sort_unstable();
        changes.dedup();
        Ok(d.with_changes(&changes))
    }

    /// The cumulative effective overlay vs the base as normalized
    /// (`u < v`, sorted, deduplicated) edge lists `(inserted, deleted)`
    /// — what the disk catalog persists so
    /// [`with_overlay`](Self::with_overlay) can rebuild this view. Each
    /// touched row is diffed against its base row.
    pub fn overlay_edges(&self) -> (EdgeList, EdgeList) {
        let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
        for (u, &slot) in self.slots.iter().enumerate() {
            if slot == BASE_ROW {
                continue;
            }
            let u = u as VertexId;
            let (row, base) = (&self.rows[slot as usize][..], self.base.neighbors(u));
            let (mut i, mut j) = (0, 0);
            loop {
                match (row.get(i), base.get(j)) {
                    (Some(r), Some(b)) if r == b => (i, j) = (i + 1, j + 1),
                    (Some(&r), b) if b.is_none_or(|&b| r < b) => {
                        if u < r {
                            inserted.push((u, r));
                        }
                        i += 1;
                    }
                    (_, Some(&b)) => {
                        if u < b {
                            deleted.push((u, b));
                        }
                        j += 1;
                    }
                    _ => break,
                }
            }
        }
        (inserted, deleted)
    }

    /// The immutable base this view layers its deltas over.
    pub fn base(&self) -> &GraphBase {
        &self.base
    }

    /// Opens a decode-cache pin scope when the base is disk-resident
    /// (see [`GraphBase::pin_scope`]). Callers that hold neighbor
    /// slices across calls — an engine run, a batch apply — keep the
    /// scope alive for the duration.
    pub fn pin_scope(&self) -> Option<PinScope> {
        self.base.pin_scope()
    }

    /// Current version (0 = pristine base).
    pub fn version(&self) -> GraphVersion {
        self.version
    }

    /// Whether the view carries no deltas (reads go straight to base).
    pub fn is_compact(&self) -> bool {
        self.rows.is_empty()
    }

    /// Vertices whose adjacency differs from the base.
    pub fn touched_vertices(&self) -> usize {
        self.rows.len()
    }

    /// Heap bytes the view holds beyond its base: the slot index, the
    /// offsets, and every row's allocation (its reference counts, entries
    /// and padding) — what a serving tier charges against its memory
    /// budget between compactions. A row shared with other versions
    /// counts in full for each of them. Zero while compact.
    pub fn overlay_bytes(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .map(|r| {
                (2 * size_of::<usize>() + size_of_val(&**r)).next_multiple_of(size_of::<usize>())
            })
            .sum();
        rows + self.rows.capacity() * size_of::<Arc<[VertexId]>>()
            + self.slots.capacity() * size_of::<u32>()
            + self.offsets.capacity() * size_of::<usize>()
    }

    /// Number of vertices (fixed by the base).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Number of undirected edges in the view.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.arcs / 2
    }

    /// Number of directed arcs in the view.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs
    }

    /// The view's maximum degree: rebuilt with the offsets on every
    /// apply, the base's own figure while compact.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Sorted neighbor list of `v` in the view.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.slots.get(v as usize) {
            Some(&slot) if slot != BASE_ROW => &self.rows[slot as usize],
            _ => self.base.neighbors(v),
        }
    }

    /// Degree of `v` in the view, from the row offsets.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        match self.offsets.get(v as usize..v as usize + 2) {
            Some(&[start, end]) => end - start,
            _ => self.base.degree(v),
        }
    }

    /// O(log d) adjacency test against the view.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether the base carries labels.
    #[inline]
    pub fn is_labeled(&self) -> bool {
        self.base.is_labeled()
    }

    /// Label of `v` (labels are immutable across batches).
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.base.label(v)
    }

    /// Number of distinct labels.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.base.num_labels()
    }

    /// The `i`-th directed arc of the view in row-major order.
    pub fn arc(&self, i: usize) -> (VertexId, VertexId) {
        if self.offsets.is_empty() {
            return self.base.arc(i);
        }
        debug_assert!(i < self.arcs);
        let u = self.offsets[1..].partition_point(|&end| end <= i);
        let row = self.neighbors(u as VertexId);
        (u as VertexId, row[i - self.offsets[u]])
    }

    /// Applies `batch` copy-on-write: returns the graph at version
    /// `v + 1` plus the [`AppliedBatch`] of effective changes, leaving
    /// `self` (and every clone held by in-flight queries) untouched.
    ///
    /// Cost is O(n + changed-row lengths) per call: each vertex the batch
    /// changes gets a re-merged row, every other row is shared with
    /// `self`, and the slots and offsets are rebuilt in one pass; the
    /// base is never copied.
    ///
    /// Errors with [`GraphError::NeighborOutOfRange`] if any endpoint is
    /// `>= num_vertices()` (the vertex set is fixed by the base).
    pub fn apply(&self, batch: &EdgeBatch) -> Result<(DeltaCsr, AppliedBatch), GraphError> {
        let ins_req = self.normalize(&batch.inserts)?;
        let del_req = self.normalize(&batch.deletes)?;

        // Effective sets under `G' = (G \ D) ∪ I`: an edge in both lists
        // nets out to "present", so it only counts as an insert when it
        // was absent before.
        let applied = AppliedBatch {
            inserted: ins_req
                .iter()
                .copied()
                .filter(|&(u, v)| !self.has_edge(u, v))
                .collect(),
            deleted: del_req
                .into_iter()
                .filter(|&(u, v)| self.has_edge(u, v) && ins_req.binary_search(&(u, v)).is_err())
                .collect(),
        };

        let mut changes = Vec::with_capacity(2 * applied.len());
        for (edges, insert) in [(&applied.inserted, true), (&applied.deleted, false)] {
            for &(u, v) in edges {
                changes.extend([(u, v, insert), (v, u, insert)]);
            }
        }
        changes.sort_unstable();
        let mut next = self.with_changes(&changes);
        next.version += 1;
        Ok((next, applied))
    }

    /// Errors with [`GraphError::NeighborOutOfRange`] unless both
    /// endpoints are vertices of the base.
    fn check_endpoints(&self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        let n = self.num_vertices();
        if u as usize >= n || v as usize >= n {
            return Err(GraphError::NeighborOutOfRange {
                vertex: u.min(v) as usize,
                neighbor: u.max(v),
            });
        }
        Ok(())
    }

    /// `edges` as `u < v` pairs, sorted and deduplicated, with self-loops
    /// dropped (ignored, as in `GraphBuilder`).
    fn normalize(&self, edges: &[(VertexId, VertexId)]) -> Result<EdgeList, GraphError> {
        let mut out = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            self.check_endpoints(u, v)?;
            if u != v {
                out.push((u.min(v), u.max(v)));
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// This view with `changes` applied, at the same version. `changes`
    /// is sorted, names each `(vertex, neighbor)` once and lists both
    /// arcs of every edge. One pass over the vertices re-merges each
    /// changed row from its current row (dropping it when it equals the
    /// base row again), shares every other row, and rebuilds the slots,
    /// offsets and maximum degree.
    fn with_changes(&self, changes: &[Change]) -> DeltaCsr {
        let n = self.num_vertices();
        let mut slots = Vec::with_capacity(n);
        let mut rows: Vec<Arc<[VertexId]>> = Vec::with_capacity(self.rows.len() + changes.len());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut max_degree = 0;
        let mut merged = Vec::new();
        let mut rest = changes;
        for v in 0..n as VertexId {
            let mine = rest.iter().take_while(|c| c.0 == v).count();
            let row = if mine == 0 {
                self.slots
                    .get(v as usize)
                    .filter(|&&slot| slot != BASE_ROW)
                    .map(|&slot| Arc::clone(&self.rows[slot as usize]))
            } else {
                merge_row(self.neighbors(v), &rest[..mine], &mut merged);
                rest = &rest[mine..];
                let is_base =
                    merged.len() == self.base.degree(v) && merged == self.base.neighbors(v);
                (!is_base).then(|| Arc::from(&merged[..]))
            };
            let degree = match row {
                Some(row) => {
                    slots.push(rows.len() as u32);
                    let degree = row.len();
                    rows.push(row);
                    degree
                }
                None => {
                    slots.push(BASE_ROW);
                    self.base.degree(v)
                }
            };
            max_degree = max_degree.max(degree);
            offsets.push(offsets[v as usize] + degree);
        }
        debug_assert!(rest.is_empty(), "every change names a vertex");
        if rows.is_empty() {
            return DeltaCsr::at_version(self.base.clone(), self.version);
        }
        rows.shrink_to_fit();
        DeltaCsr {
            base: self.base.clone(),
            version: self.version,
            slots,
            rows,
            arcs: offsets[n],
            offsets,
            max_degree,
        }
    }

    /// Folds every delta into a fresh immutable base, preserving the
    /// version: the result is the same graph value (same version, same
    /// adjacency) with [`is_compact`](Self::is_compact) true and base
    /// read performance restored.
    pub fn compact(&self) -> DeltaCsr {
        if self.rows.is_empty() {
            return self.clone();
        }
        let n = self.num_vertices();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.arcs);
        row_ptr.push(0);
        for v in 0..n as VertexId {
            col_idx.extend_from_slice(self.neighbors(v));
            row_ptr.push(col_idx.len());
        }
        let labels = self.base.labels_vec();
        let base = CsrGraph::try_from_parts(row_ptr, col_idx, labels)
            .expect("delta view upholds the CSR invariants");
        let mut fresh = DeltaCsr::from_base(Arc::new(base));
        fresh.version = self.version;
        fresh
    }
}

/// `(row \ deletes) ∪ inserts` into `out`, for `changes` sorted by
/// neighbor with each neighbor once. A set operation: the result is the
/// same whether or not an insert is already in `row` or a delete absent.
fn merge_row(row: &[VertexId], changes: &[Change], out: &mut Vec<VertexId>) {
    out.clear();
    let mut i = 0;
    for &(_, w, insert) in changes {
        let below = i + row[i..].partition_point(|&x| x < w);
        out.extend_from_slice(&row[i..below]);
        i = below + usize::from(row.get(below) == Some(&w));
        if insert {
            out.push(w);
        }
    }
    out.extend_from_slice(&row[i..]);
}

impl fmt::Debug for DeltaCsr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaCsr")
            .field("version", &self.version)
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .field("touched", &self.rows.len())
            .field("compact", &self.is_compact())
            .finish()
    }
}

impl GraphView for DeltaCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        DeltaCsr::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        DeltaCsr::num_edges(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        DeltaCsr::num_arcs(self)
    }

    #[inline]
    fn max_degree(&self) -> usize {
        DeltaCsr::max_degree(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        DeltaCsr::neighbors(self, v)
    }

    #[inline]
    fn is_labeled(&self) -> bool {
        DeltaCsr::is_labeled(self)
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        DeltaCsr::label(self, v)
    }

    #[inline]
    fn num_labels(&self) -> usize {
        DeltaCsr::num_labels(self)
    }

    #[inline]
    fn arc(&self, i: usize) -> (VertexId, VertexId) {
        DeltaCsr::arc(self, i)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        DeltaCsr::degree(self, v)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        DeltaCsr::has_edge(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn square() -> DeltaCsr {
        // 0-1-2-3-0 cycle.
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 3), (3, 0)])
            .build();
        DeltaCsr::from_base(Arc::new(g))
    }

    #[test]
    fn pristine_base_reads_through() {
        let d = square();
        assert_eq!(d.version(), 0);
        assert!(d.is_compact());
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.neighbors(0), &[1, 3]);
        assert_eq!(d.arc(0), (0, 1));
    }

    #[test]
    fn insert_and_delete_update_the_view() {
        let d = square();
        let (d, a) = d
            .apply(&EdgeBatch::new().insert(0, 2).delete(2, 3))
            .unwrap();
        assert_eq!(d.version(), 1);
        assert_eq!(a.inserted, vec![(0, 2)]);
        assert_eq!(a.deleted, vec![(2, 3)]);
        assert_eq!(d.neighbors(0), &[1, 2, 3]);
        assert_eq!(d.neighbors(2), &[0, 1]);
        assert_eq!(d.num_edges(), 4);
        assert!(d.has_edge(0, 2));
        assert!(!d.has_edge(2, 3));
        assert_eq!(d.degree(0), 3);
        assert_eq!(d.degree(3), 1);
        assert_eq!(d.touched_vertices(), 3, "0, 2 and 3 differ from the base");
        assert_eq!(d.overlay_edges(), (vec![(0, 2)], vec![(2, 3)]));
    }

    #[test]
    fn apply_is_copy_on_write() {
        let old = square();
        let (new, _) = old.apply(&EdgeBatch::new().delete(0, 1)).unwrap();
        assert!(old.has_edge(0, 1), "old version untouched");
        assert!(!new.has_edge(0, 1));
        assert_eq!(old.version(), 0);
        assert_eq!(new.version(), 1);
    }

    #[test]
    fn self_loops_duplicates_and_noops_are_filtered() {
        let d = square();
        let batch = EdgeBatch::new()
            .insert(1, 1) // self-loop: ignored
            .insert(0, 1) // already present: no-op
            .insert(0, 2)
            .insert(2, 0) // duplicate (reversed): one effective insert
            .delete(1, 3) // absent: no-op
            .delete(3, 3); // self-loop: ignored
        let (d, a) = d.apply(&batch).unwrap();
        assert_eq!(a.inserted, vec![(0, 2)]);
        assert!(a.deleted.is_empty());
        assert_eq!(d.num_edges(), 5);
    }

    #[test]
    fn delete_then_insert_in_one_batch_nets_to_present() {
        let d = square();
        let (d, a) = d
            .apply(&EdgeBatch::new().delete(0, 1).insert(0, 1))
            .unwrap();
        assert!(a.is_empty(), "present edge deleted and re-inserted: no-op");
        assert!(d.has_edge(0, 1));
        // Absent edge in both lists: net insert.
        let (d, a) = d
            .apply(&EdgeBatch::new().delete(0, 2).insert(0, 2))
            .unwrap();
        assert_eq!(a.inserted, vec![(0, 2)]);
        assert!(d.has_edge(0, 2));
    }

    #[test]
    fn deltas_cancel_back_to_compact() {
        let d = square();
        let (d, _) = d.apply(&EdgeBatch::new().insert(0, 2)).unwrap();
        assert!(!d.is_compact());
        let (d, a) = d.apply(&EdgeBatch::new().delete(0, 2)).unwrap();
        assert_eq!(a.deleted, vec![(0, 2)]);
        assert!(d.is_compact(), "insert+delete across batches cancels");
        assert_eq!(d.version(), 2, "version still advances monotonically");
        assert_eq!(d.neighbors(0), &[1, 3]);
    }

    #[test]
    fn arc_indexing_matches_iteration_with_overlay() {
        let d = square();
        let (d, _) = d
            .apply(&EdgeBatch::new().insert(0, 2).insert(1, 3).delete(3, 0))
            .unwrap();
        let collected: Vec<_> = d.arcs().collect();
        assert_eq!(collected.len(), d.num_arcs());
        for (i, &(u, v)) in collected.iter().enumerate() {
            assert_eq!(d.arc(i), (u, v));
        }
        // Row-major and per-row sorted, like CSR.
        assert!(collected
            .windows(2)
            .all(|w| w[0] < w[1] || w[0].0 == w[1].0));
    }

    #[test]
    fn compact_preserves_value_and_version() {
        let d = square();
        let (d, _) = d
            .apply(&EdgeBatch::new().insert(0, 2).delete(1, 2))
            .unwrap();
        let c = d.compact();
        assert!(c.is_compact());
        assert_eq!(c.version(), d.version());
        assert_eq!(c.num_edges(), d.num_edges());
        for v in 0..d.num_vertices() as VertexId {
            assert_eq!(c.neighbors(v), d.neighbors(v));
        }
    }

    #[test]
    fn labels_survive_mutation_and_compaction() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 3), (3, 0)])
            .build()
            .with_labels(vec![0, 1, 0, 1]);
        let d = DeltaCsr::from_base(Arc::new(g));
        let (d, _) = d.apply(&EdgeBatch::new().insert(0, 2)).unwrap();
        assert!(d.is_labeled());
        assert_eq!(d.label(1), 1);
        assert_eq!(d.num_labels(), 2);
        let c = d.compact();
        assert_eq!(c.label(3), 1);
        assert_eq!(c.num_labels(), 2);
    }

    #[test]
    fn out_of_range_endpoint_is_a_typed_error() {
        let d = square();
        let err = d.apply(&EdgeBatch::new().insert(0, 9)).unwrap_err();
        assert!(matches!(err, GraphError::NeighborOutOfRange { .. }));
    }

    #[test]
    fn max_degree_is_exact() {
        let d = square();
        let (d, _) = d
            .apply(&EdgeBatch::new().insert(0, 2).insert(1, 3))
            .unwrap();
        let true_max = (0..4).map(|v| d.degree(v)).max().unwrap();
        assert_eq!(d.max_degree(), true_max);
        // Deleting around vertex 0 lowers the maximum too.
        let (d, _) = d
            .apply(&EdgeBatch::new().delete(0, 1).delete(0, 2).delete(0, 3))
            .unwrap();
        let true_max = (0..4).map(|v| d.degree(v)).max().unwrap();
        assert_eq!(d.max_degree(), true_max);
        assert_eq!(d.compact().max_degree(), true_max);
    }

    #[test]
    fn untouched_rows_are_shared_across_versions() {
        let (v1, _) = square().apply(&EdgeBatch::new().insert(0, 2)).unwrap();
        let (v2, _) = v1.apply(&EdgeBatch::new().insert(1, 3)).unwrap();
        assert!(std::ptr::eq(v1.neighbors(0), v2.neighbors(0)));
        assert!(!std::ptr::eq(v1.neighbors(1), v2.neighbors(1)));
    }

    #[test]
    fn with_overlay_rejects_a_sidecar_that_contradicts_the_base() {
        let path = || {
            let g = GraphBuilder::new().edges([(0, 1), (1, 2), (2, 3)]).build();
            GraphBase::Heap(Arc::new(g))
        };
        let err = DeltaCsr::with_overlay(path(), 1, &[(1, 0)], &[]).unwrap_err();
        assert_eq!(
            err,
            GraphError::OverlayMismatch {
                u: 0,
                v: 1,
                insert: true
            }
        );
        let err = DeltaCsr::with_overlay(path(), 1, &[], &[(0, 3)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::OverlayMismatch { insert: false, .. }
        ));
        let d = DeltaCsr::with_overlay(path(), 4, &[(0, 3)], &[(1, 2)]).unwrap();
        assert_eq!(d.version(), 4);
        assert_eq!(d.neighbors(0), &[1, 3]);
        assert_eq!(d.num_edges(), 3);
    }

    #[test]
    fn overlay_bytes_tracks_touched_rows() {
        let d = square();
        assert_eq!(d.overlay_bytes(), 0);
        let (d, _) = d.apply(&EdgeBatch::new().insert(0, 2)).unwrap();
        assert!(d.overlay_bytes() > 0);
        assert_eq!(d.compact().overlay_bytes(), 0);
    }
}
