//! # tdfs-service
//!
//! A concurrent, multi-tenant query-serving layer over the T-DFS
//! subgraph-matching engine ([`tdfs_core`]).
//!
//! The engine crates answer *one* question ("how many embeddings of this
//! pattern exist in this graph, fast?"); this crate answers the
//! deployment question around it: many clients, many graphs, recurring
//! patterns, bounded resources. It provides:
//!
//! - a [`GraphCatalog`] of named, shared, immutable data graphs
//!   ([`catalog`]);
//! - an LRU [`PlanCache`] keyed by (graph, *canonical* pattern, plan
//!   options), so isomorphic patterns presented with different vertex
//!   numberings share one compiled plan slot ([`cache`], [`canon`]);
//! - a worker pool behind a **bounded** admission queue with explicit
//!   [`Rejected::QueueFull`] backpressure — submission never blocks
//!   ([`service`]);
//! - per-query deadlines (measured from submission, so queueing counts)
//!   and cooperative cancellation via [`tdfs_core::CancelFlag`], threaded
//!   through every engine's periodic poll sites;
//! - a blocking/polling [`QueryHandle`], streamed matches through
//!   [`tdfs_core::MatchSink`], and a [`ServiceMetrics`] snapshot
//!   aggregating engine [`tdfs_core::RunStats`] across queries.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use tdfs_graph::GraphBuilder;
//! use tdfs_query::Pattern;
//! use tdfs_service::{QueryRequest, Service, ServiceConfig};
//!
//! let svc = Service::new(ServiceConfig::default());
//! let mut b = GraphBuilder::new();
//! for u in 0..5u32 {
//!     for v in (u + 1)..5 {
//!         b.push_edge(u, v);
//!     }
//! }
//! svc.register_graph("k5", Arc::new(b.build()));
//!
//! // C(5,3) = 10 triangles in K5.
//! let handle = svc.submit(QueryRequest::new("k5", Pattern::clique(3))).unwrap();
//! assert_eq!(handle.wait().result.unwrap().matches, 10);
//! ```

/// `chaos_point!("name")` runs the named fault point's scripted action
/// (stall, panic) when the `chaos` feature is on; compiles to nothing
/// without it.
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

pub(crate) use chaos_point;

/// `chaos_inject!("name")` is `true` when the named fault point should
/// take its failure path; compile-time `false` without the `chaos`
/// feature. Used where the fault is a forced *condition* (e.g. the
/// governor seeing phantom memory pressure) rather than a stall/panic.
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

pub(crate) use chaos_inject;

pub mod cache;
pub mod canon;
pub mod catalog;
pub mod codec;
pub mod disk;
pub mod durable;
pub mod fsck;
pub mod governor;
pub mod service;
pub mod snapshot;
pub mod standing;

pub use cache::{PlanCache, PlanCacheKey, PlanCacheStats};
pub use canon::PatternKey;
pub use catalog::GraphCatalog;
pub use disk::{DiskCatalog, Intent, PersistedDelta, Recovery, StorageError};
pub use durable::{shard_cuts, DurableConfig, QueryProgress, Shard};
pub use fsck::{fsck, fsck_with, Finding, FindingKind, FsckReport, Severity};
pub use governor::{
    estimate_cost, BreakerConfig, BreakerState, GovernorConfig, Priority, ShedPolicy,
};
pub use service::{
    ApplyError, ApplyReport, PartialResult, QueryHandle, QueryOutcome, QueryRequest, Rejected,
    ResumeError, Service, ServiceConfig, ServiceMetrics, SnapshotError,
};
pub use snapshot::{DecodeError, QuerySnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use standing::{MatchDelta, StandingRequest};
