//! # tdfs-gpu
//!
//! Warp-level GPU execution model in Rust — the substrate the T-DFS
//! engine runs on instead of CUDA (see DESIGN.md for the substitution
//! rationale).
//!
//! The model preserves the granularity the paper's techniques operate at:
//! a **warp** is the basic processing unit (one OS worker thread
//! executing SIMT-style operations in 32-lane batches, with its own DFS
//! stack), a **device** groups warps and owns the shared lock-free task
//! queue and the chunked initial-task cursor, and CUDA atomics map to
//! `std::sync::atomic` with identical RMW semantics.
//!
//! - [`queue`] — the lock-free circular task queue `Q_task` (paper
//!   Algorithm 3, line-by-line);
//! - [`warp`] — 32-lane warp primitives: size-adaptive batched
//!   intersection (merge / binary-search / gallop lane kernels) with
//!   ballot compaction, per-warp statistics;
//! - [`device`] — device configuration, chunked edge cursor, multi-device
//!   round-robin partitioning;
//! - [`simd`] — host AVX2 vector lanes for the warp kernels (chosen at
//!   run time), software prefetch, dispatch telemetry;
//! - [`clock`] — the timeout clock (real or mocked for tests).

pub mod clock;
pub mod device;
pub mod lease;
pub mod queue;
pub mod simd;
pub mod warp;

/// `chaos_inject!("name")` evaluates to `true` when the named fault point
/// should take its failure path. With the `chaos` feature off it is a
/// compile-time `false`, so the branch folds away entirely and release
/// builds pay nothing.
///
/// Callers must bind the result with `let` before combining it into larger
/// boolean expressions (`let oom = chaos_inject!(..); if oom || real_oom`),
/// otherwise the no-op expansion trips clippy's `nonminimal_bool` lint.
#[cfg(feature = "chaos")]
macro_rules! chaos_inject {
    ($name:literal) => {
        ::tdfs_testkit::fault::fire($name) == ::tdfs_testkit::fault::Outcome::Inject
    };
}
#[cfg(not(feature = "chaos"))]
macro_rules! chaos_inject {
    ($name:literal) => {
        false
    };
}

/// `chaos_point!("name")` marks a pass-through fault point: it can stall or
/// panic per the installed script but never redirects control flow at the
/// call site. No-op without the `chaos` feature.
#[cfg(feature = "chaos")]
macro_rules! chaos_point {
    ($name:literal) => {
        let _ = ::tdfs_testkit::fault::fire($name);
    };
}
#[cfg(not(feature = "chaos"))]
macro_rules! chaos_point {
    ($name:literal) => {};
}

pub(crate) use {chaos_inject, chaos_point};

pub use clock::Clock;
pub use device::Device;
pub use lease::{AckOutcome, Backlog, Lease, LeaseCheckpoint, LeaseStats, LeaseTable};
pub use queue::{DequeueOp, EnqueueOp, OpStep, Task, TaskQueue, SPIN_LIMIT};
pub use simd::DispatchCounts;
pub use warp::{select_kind, IntersectKind, WarpOps, WarpStats, WARP_SIZE};
