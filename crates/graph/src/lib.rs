//! # tdfs-graph
//!
//! Graph substrate for the T-DFS subgraph-matching engine.
//!
//! The data graph is stored in [compressed sparse row](csr::CsrGraph) (CSR)
//! form, exactly as the paper keeps it in GPU device memory: a `row_ptr`
//! offset array plus a flat, per-vertex-sorted `col_idx` adjacency array,
//! with an optional vertex-label array for labeled matching.
//!
//! The crate also provides:
//! - [`builder`] — edge-list ingestion (dedup, self-loop removal,
//!   undirected symmetrization) into CSR;
//! - [`generators`] — seeded synthetic graph generators (Barabási–Albert,
//!   Erdős–Rényi, RMAT, LDBC-datagen-like) used as offline stand-ins for
//!   the paper's 12 real datasets;
//! - [`io`] — SNAP-style edge-list text I/O;
//! - [`datasets`] — the registry of synthetic stand-in datasets with the
//!   paper's Table I shape targets;
//! - [`intersect`] — scalar sorted-set intersection kernels that serve as
//!   the ground truth for the warp-level kernels in `tdfs-gpu`;
//! - [`rng`] — the self-contained deterministic PRNG behind the
//!   generators (the workspace builds offline with no external crates);
//! - [`view`] — the [`GraphView`] trait the matching engines are generic
//!   over, so they run unmodified on base-or-delta adjacency;
//! - [`delta`] — [`DeltaCsr`], the batch-dynamic graph: immutable CSR
//!   base + a slot-indexed overlay of merged rows, monotonically
//!   versioned, with copy-on-write [`apply`](DeltaCsr::apply) and
//!   periodic [`compact`](DeltaCsr::compact);
//! - [`container`] — the `TDFSGRPH` binary container format (versioned
//!   header, varint/delta-coded adjacency segments, per-segment CRC32):
//!   the on-disk tier for graphs that dwarf RAM;
//! - [`mapped`] — [`MmapGraph`], the mmap-backed container reader: a
//!   [`GraphView`] over a disk-resident graph with a budget-charged,
//!   epoch-reclaimed decode cache.

pub mod builder;
pub mod container;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod generators;
pub mod intersect;
pub mod io;
pub mod mapped;
pub mod rng;
pub mod stats;
pub mod vfs;
pub mod view;

pub use builder::GraphBuilder;
pub use container::{
    write_container, write_container_file, write_container_file_with, ContainerError,
    ContainerOptions,
};
pub use csr::{CsrGraph, GraphError, Label, VertexId, MAX_VERTEX_ID};
pub use datasets::{Dataset, DatasetId};
pub use delta::{AppliedBatch, DeltaCsr, EdgeBatch, GraphBase, GraphVersion};
pub use mapped::{CacheCharge, CacheStats, MapOptions, MmapGraph, PinScope, Verify};
pub use stats::GraphStats;
pub use vfs::{RealFs, Vfs, VfsFile, WriteSeek};
pub use view::GraphView;
