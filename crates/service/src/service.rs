//! The query service: admission, scheduling, execution, metrics.
//!
//! A [`Service`] owns a [`GraphCatalog`], a [`PlanCache`] and a pool of
//! worker threads fed by a **bounded** admission queue. Submission is
//! `try`-semantics throughout: a full queue returns
//! [`Rejected::QueueFull`] immediately — the service never blocks a
//! client to create backpressure, it *reports* it and lets the client
//! decide (retry, shed, or reroute).
//!
//! Every admitted query gets a fresh [`CancelFlag`] threaded into the
//! engine's [`MatcherConfig`], so [`QueryHandle::cancel`] stops the run
//! cooperatively at the engines' periodic poll sites; the query then
//! completes `Ok` with a partial count and `stats.cancelled` set.
//! Deadlines are measured **from submission**, so time spent waiting in
//! the queue counts against the budget; a query whose deadline expires
//! while queued completes with [`EngineError::TimeLimit`] without ever
//! touching the engine.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdfs_core::attribution::ChangedEdges;
use tdfs_core::budgeted_map_options;
use tdfs_core::engine::edge_admitted;
use tdfs_core::retry::{retry, BackoffPolicy, Retry};
use tdfs_core::{
    host_filter_edges, CancelFlag, CollectSink, EngineError, MatchSink, MatcherConfig,
    MemoryBudget, RunResult, RunStats,
};
use tdfs_gpu::lease::LeaseStats;
use tdfs_graph::mapped::DEFAULT_CACHE_BYTES;
use tdfs_graph::{
    write_container, ContainerOptions, CsrGraph, DeltaCsr, EdgeBatch, GraphBase, GraphError,
    MapOptions, MmapGraph,
};
use tdfs_mem::PAGE_BYTES;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;

use crate::cache::{PlanCache, PlanCacheStats};
use crate::catalog::GraphCatalog;
use crate::disk::{self, DiskCatalog, PersistedDelta, Recovery, StorageError};
use crate::durable::{self, DurableConfig, DurableJob, DurableState, QueryProgress};
use crate::governor::{estimate_cost, Breaker, BreakerState, GovernorConfig, Priority, ShedPolicy};
use crate::snapshot::{self, DecodeError, QuerySnapshot};
use crate::standing::{
    oriented_seeds, DedupSink, DeltaSide, MatchDelta, NotifyFn, StandingQuery, StandingRequest,
};

/// Completed durable queries kept registered (snapshot-able and visible
/// to [`Service::progress`]) before their lease counters are folded into
/// the service-lifetime base and the state is dropped.
const DURABLE_RETAIN: usize = 256;

/// Service sizing knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing queries (each runs one query at a time;
    /// the engine's own warp parallelism is inside the query).
    pub workers: usize,
    /// Admission-queue capacity in queries; a submit beyond it is
    /// rejected with [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Plan-cache capacity in plans.
    pub plan_cache_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Durable-execution knobs (leases, watchdog, sharding). Every query
    /// runs durably, which recovers worker panics and stalls per shard; a
    /// panic outside shard execution fails only its own query with
    /// [`EngineError::WorkerPanicked`], and the worker keeps serving.
    pub durability: DurableConfig,
    /// Overload-governor knobs: global memory budget with
    /// snapshot-suspension, cost-aware admission, queue shedding, and
    /// the brownout circuit breaker. Every mechanism is off by default
    /// (see [`GovernorConfig`]).
    pub governor: GovernorConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: tdfs_core::config::default_warps().min(8),
            queue_capacity: 64,
            plan_cache_capacity: 64,
            default_deadline: None,
            durability: DurableConfig::default(),
            governor: GovernorConfig::default(),
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue is at capacity — backpressure; retry later.
    QueueFull,
    /// No graph with this name is registered in the catalog.
    UnknownGraph(String),
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// Cost-aware admission (see [`GovernorConfig::cost_per_ms`])
    /// estimated the query cannot finish inside its deadline under the
    /// current load — running it would only burn a worker on a doomed
    /// query. Raise the deadline or retry off-peak.
    DeadlineUnmeetable {
        /// The [`estimate_cost`] value the gate computed.
        estimated_cost: u64,
    },
    /// The circuit breaker is open (brownout): recent outcomes show a
    /// failure/shed spike, and only [`Priority::High`] work is admitted
    /// until a recovery probe succeeds.
    BrownedOut,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "admission queue full"),
            Rejected::UnknownGraph(name) => write!(f, "unknown graph {name:?}"),
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
            Rejected::DeadlineUnmeetable { estimated_cost } => write!(
                f,
                "deadline unmeetable under current load (estimated cost {estimated_cost})"
            ),
            Rejected::BrownedOut => write!(f, "service is browned out (circuit breaker open)"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Why [`Service::snapshot`] could not produce a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// No query with this id is registered (unknown id, or evicted from
    /// the completed-query retention window).
    UnknownQuery(u64),
    /// The query is admitted but still waiting in the queue; it has no
    /// execution state yet. Retry once it starts (or cancel it — an
    /// unstarted query has nothing worth checkpointing).
    NotStarted(u64),
    /// [`Service::suspend_to_disk`] could not persist the checkpoint
    /// (no state directory, or the write failed). The query *is*
    /// suspended in memory; retry the persist or use
    /// [`Service::unsuspend`].
    Storage(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnknownQuery(id) => write!(f, "no durable query with id {id}"),
            SnapshotError::NotStarted(id) => write!(f, "query {id} has not started executing"),
            SnapshotError::Storage(e) => write!(f, "checkpoint not persisted: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why [`Service::resume`] rejected a snapshot.
#[derive(Debug)]
pub enum ResumeError {
    /// The byte buffer is not a valid snapshot (bad magic, unknown
    /// version, truncation, or corrupt payload).
    Decode(DecodeError),
    /// The snapshot references a graph not in this service's catalog.
    UnknownGraph(String),
    /// The catalog's graph disagrees with the snapshot: its admitted
    /// initial-edge list has a different length, so the snapshot's shard
    /// ranges do not describe this graph.
    GraphMismatch {
        /// Admitted-edge count recorded in the snapshot.
        expected: u64,
        /// Admitted-edge count of the registered graph under the
        /// snapshot's plan.
        actual: u64,
    },
    /// The catalog's graph is at a different [`tdfs_graph::GraphVersion`]
    /// than the one the snapshot was taken against. The snapshot's shard
    /// ranges index that exact version's admitted-edge space, and a
    /// batch may reorder or resize it even when the total edge count
    /// happens to agree — resuming would silently skip or double-count
    /// edges. Re-run the query instead (or restore the graph to the
    /// snapshot's version first).
    GraphVersionMismatch {
        /// Graph version recorded in the snapshot.
        expected: u64,
        /// Current version of the registered graph.
        actual: u64,
    },
    /// Admission failed (queue full / shutting down).
    Rejected(Rejected),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Decode(e) => write!(f, "invalid snapshot: {e}"),
            ResumeError::UnknownGraph(name) => write!(f, "snapshot graph {name:?} not registered"),
            ResumeError::GraphMismatch { expected, actual } => write!(
                f,
                "graph mismatch: snapshot has {expected} admitted edges, catalog graph has {actual}"
            ),
            ResumeError::GraphVersionMismatch { expected, actual } => write!(
                f,
                "graph version mismatch: snapshot taken at version {expected}, catalog graph is at {actual}"
            ),
            ResumeError::Rejected(r) => write!(f, "resume not admitted: {r}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<DecodeError> for ResumeError {
    fn from(e: DecodeError) -> Self {
        ResumeError::Decode(e)
    }
}

/// Why [`Service::apply`] (or [`Service::compact_graph`]) failed.
#[derive(Debug)]
pub enum ApplyError {
    /// No graph with this name is registered in the catalog.
    UnknownGraph(String),
    /// The batch references vertices outside the graph
    /// ([`tdfs_graph::GraphError`]); nothing was changed.
    Graph(GraphError),
    /// The catalog entry was replaced or unregistered while the batch
    /// was being prepared (e.g. a concurrent `register_graph` under the
    /// same name); nothing was changed. Re-fetch and retry if the new
    /// entry is still the intended target.
    Conflict(String),
    /// A standing query's maintenance pass failed (for example, its
    /// stack configuration overflowed), so its delta for this batch
    /// cannot be exact; nothing was changed. The same batch fails again
    /// until that standing query is unregistered.
    Maintenance(EngineError),
    /// The in-memory commit succeeded but persisting to the state
    /// directory failed: the catalog serves the new version, the disk
    /// still holds the previous one. A later successful
    /// [`Service::apply`]/[`Service::compact_graph`] (the sidecar is
    /// cumulative) or a retry heals it; a restart before then reopens
    /// at the last persisted version.
    Storage(StorageError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::UnknownGraph(name) => write!(f, "unknown graph {name:?}"),
            ApplyError::Graph(e) => write!(f, "invalid batch: {e}"),
            ApplyError::Conflict(name) => {
                write!(
                    f,
                    "graph {name:?} was concurrently replaced; batch not applied"
                )
            }
            ApplyError::Maintenance(e) => {
                write!(
                    f,
                    "standing-query maintenance failed; batch not applied: {e}"
                )
            }
            ApplyError::Storage(e) => {
                write!(f, "committed in memory but not persisted: {e}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<GraphError> for ApplyError {
    fn from(e: GraphError) -> Self {
        ApplyError::Graph(e)
    }
}

impl From<StorageError> for ApplyError {
    fn from(e: StorageError) -> Self {
        ApplyError::Storage(e)
    }
}

/// What [`Service::apply`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyReport {
    /// Catalog name of the mutated graph.
    pub graph: String,
    /// The version the graph reached.
    pub version: u64,
    /// Effectively inserted edges (absent before, present after).
    pub inserted: usize,
    /// Effectively deleted edges (present before, absent after).
    pub deleted: usize,
    /// Standing-query deltas delivered for this batch.
    pub notifications: usize,
    /// Standing queries whose callback panicked on this batch's delta.
    /// They are unregistered, so none of them sees a gap in its version
    /// sequence; the batch itself is committed.
    pub removed_standing: Vec<u64>,
}

/// One query to run.
///
/// Cloning is cheap (the sink is shared behind an `Arc`); it is what
/// lets [`Service::submit_with_retry`] resubmit the same request after
/// transient backpressure.
#[derive(Clone)]
pub struct QueryRequest {
    /// Catalog name of the data graph.
    pub graph: String,
    /// Query pattern.
    pub pattern: Pattern,
    /// Engine configuration (strategy, warps, stacks, plan options).
    pub config: MatcherConfig,
    /// Deadline measured from submission; `None` uses the service
    /// default.
    pub deadline: Option<Duration>,
    /// When set, collect up to this many concrete matches into the
    /// outcome (the run stops early once they are collected, as in
    /// [`tdfs_core::find_matches`]).
    pub collect_limit: Option<usize>,
    /// Optional streaming sink. Receives **pattern-vertex-indexed**
    /// assignments (`m[u]` = data vertex for pattern vertex `u`),
    /// concurrently from the engine's warps.
    pub sink: Option<Arc<dyn MatchSink + Send + Sync>>,
    /// Scheduling priority: under overload the governor sheds `Low`
    /// work first, and an open circuit breaker admits only `High`.
    pub priority: Priority,
    /// Restrict the search to matches rooted at these initial edges
    /// (`None` = the full graph). Counts over disjoint seed subsets are
    /// additive (every match is rooted at exactly one admitted initial
    /// edge), which is what lets a cluster node run one
    /// coordinator-granted shard of a query as an ordinary service
    /// submission. Edges not admitted by the plan's filter are skipped.
    pub seed_edges: Option<Vec<(u32, u32)>>,
}

impl QueryRequest {
    /// A counting query against `graph` with the default T-DFS engine.
    pub fn new(graph: impl Into<String>, pattern: Pattern) -> Self {
        Self {
            graph: graph.into(),
            pattern,
            config: MatcherConfig::tdfs(),
            deadline: None,
            collect_limit: None,
            sink: None,
            priority: Priority::Normal,
            seed_edges: None,
        }
    }

    /// Sets the engine configuration.
    pub fn with_config(mut self, config: MatcherConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets a per-query deadline (from submission).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Collects up to `limit` concrete matches into the outcome.
    pub fn with_collect_limit(mut self, limit: usize) -> Self {
        self.collect_limit = Some(limit);
        self
    }

    /// Streams matches to `sink` as they are found.
    pub fn with_sink(mut self, sink: Arc<dyn MatchSink + Send + Sync>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Sets the scheduling priority (default [`Priority::Normal`]).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Roots the search at exactly these initial edges (a shard of the
    /// admitted edge list) instead of the whole graph.
    pub fn with_seed_edges(mut self, edges: Vec<(u32, u32)>) -> Self {
        self.seed_edges = Some(edges);
        self
    }
}

/// Exact progress accounting attached to a durable query that ended
/// early (deadline hit or shed mid-run).
///
/// `lower_bound` is the sum of the counts published by **accepted**
/// shard acks — revoked and unfinished shards never publish, so the
/// true total is at least `lower_bound`, exactly. It is a verifiable
/// claim, not an extrapolation: re-running only the unfinished shards
/// (e.g. by resuming a [`Service::suspend`] checkpoint) and adding
/// their counts reproduces the full answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialResult {
    /// Matches published by accepted shard acks before the query ended.
    pub lower_bound: u64,
    /// Shards whose counts are included in `lower_bound`.
    pub shards_done: u64,
    /// Total shards of the query (done + unfinished).
    pub shards_total: u64,
}

/// Final state of a finished query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Service-assigned query id (matches [`QueryHandle::id`]).
    pub query_id: u64,
    /// Engine result: `Ok` carries the count (partial iff
    /// `stats.cancelled`); a missed deadline — in queue or mid-run — is
    /// `Err(TimeLimit)`.
    pub result: Result<RunResult, EngineError>,
    /// Collected matches when the request set a `collect_limit`
    /// (pattern-vertex-indexed).
    pub matches: Option<Vec<Vec<u32>>>,
    /// Exact partial-progress accounting when a query ended early
    /// (`result` is `Err(TimeLimit)` or `Err(Shed)`): the counted lower
    /// bound and the shard completion ratio. `None` for complete queries
    /// and for queries that expired or were shed before starting.
    pub partial: Option<PartialResult>,
    /// Submission-to-completion wall time (queueing included).
    pub latency: Duration,
}

impl QueryOutcome {
    /// Whether the run stopped early on its cancel token (count is
    /// partial).
    pub fn cancelled(&self) -> bool {
        matches!(&self.result, Ok(r) if r.stats.cancelled)
    }
}

/// Client-side handle to an admitted query.
#[derive(Debug)]
pub struct QueryHandle {
    id: u64,
    cancel: CancelFlag,
    rx: mpsc::Receiver<QueryOutcome>,
}

impl QueryHandle {
    /// Service-assigned query id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation; the query still completes (with
    /// a partial count) and must be waited on as usual.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the query finishes.
    ///
    /// Every admitted query is guaranteed an outcome (shutdown drains
    /// the queue), so this cannot block forever on a live service.
    pub fn wait(self) -> QueryOutcome {
        self.rx.recv().expect("worker dropped without an outcome")
    }

    /// Non-blocking poll; `Some` exactly once, when the query finished.
    pub fn try_wait(&mut self) -> Option<QueryOutcome> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the outcome.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<QueryOutcome> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// Point-in-time service counters.
#[derive(Debug, Default, Clone)]
pub struct ServiceMetrics {
    /// Queries admitted to the queue.
    pub admitted: u64,
    /// Submissions rejected with [`Rejected::QueueFull`].
    pub rejected_queue_full: u64,
    /// Submissions rejected with [`Rejected::UnknownGraph`].
    pub rejected_unknown_graph: u64,
    /// Submissions rejected with [`Rejected::ShuttingDown`].
    pub rejected_shutdown: u64,
    /// Submissions rejected with [`Rejected::DeadlineUnmeetable`].
    pub rejected_unmeetable: u64,
    /// Submissions rejected with [`Rejected::BrownedOut`].
    pub rejected_brownout: u64,
    /// Queries that finished `Ok` (including cancelled partials).
    pub completed: u64,
    /// Subset of `completed` that stopped on their cancel token.
    pub cancelled: u64,
    /// Queries that missed their deadline (in queue or mid-run).
    pub deadline_expired: u64,
    /// Queries that failed with a non-deadline engine error.
    pub failed: u64,
    /// Admitted queries shed by the overload governor before or during
    /// execution ([`EngineError::Shed`] outcomes).
    pub queries_shed: u64,
    /// Outcomes that carried a [`PartialResult`] (durable queries ended
    /// early with an exact counted lower bound).
    pub partials_served: u64,
    /// Snapshot-suspensions performed by the memory governor (plus
    /// manual [`Service::suspend`] calls).
    pub suspends: u64,
    /// Circuit-breaker transitions (closed → open → half-open → …).
    pub breaker_state_changes: u64,
    /// Circuit-breaker state at snapshot time.
    pub breaker_state: BreakerState,
    /// Pages of the service memory budget in use right now (0 when no
    /// budget is configured).
    pub budget_in_use_pages: usize,
    /// High-water mark of `budget_in_use_pages` over the service
    /// lifetime.
    pub budget_peak_pages: usize,
    /// Configured budget capacity (0 when no budget is configured).
    pub budget_capacity_pages: usize,
    /// Queries waiting in the admission queue right now.
    pub queue_depth: usize,
    /// Resubmissions performed by [`Service::submit_with_retry`] after a
    /// [`Rejected::QueueFull`] (each counted rejection that was retried).
    pub admission_retries: u64,
    /// Panics that reached a service worker outside shard execution
    /// (shard panics are recovered per lease and counted in
    /// `leases_reclaimed`). The query fails with
    /// [`EngineError::WorkerPanicked`]; the worker keeps serving.
    pub worker_panics: u64,
    /// Queries that started executing (every query runs on the durable,
    /// leased-shard path). Maintenance passes are not queries and are
    /// not counted here.
    pub durable_queries: u64,
    /// Shard leases granted across all durable runs: client queries and
    /// maintenance passes.
    pub leases_granted: u64,
    /// Leases reclaimed (expired stalls reaped + panicked shards
    /// failed).
    pub leases_reclaimed: u64,
    /// Zombie acks rejected by the epoch fence (each one a count that
    /// would otherwise have landed twice).
    pub leases_fenced: u64,
    /// Shard tasks whose counts were published (accepted acks).
    pub tasks_acked: u64,
    /// Checkpoints taken via [`Service::snapshot`].
    pub snapshots_taken: u64,
    /// Total encoded bytes across those checkpoints.
    pub snapshot_bytes: u64,
    /// Queries admitted via [`Service::resume`].
    pub resumes: u64,
    /// Edge batches committed via [`Service::apply`].
    pub batches_applied: u64,
    /// Standing-query deltas delivered (one per standing query per
    /// applied batch).
    pub standing_notifications: u64,
    /// Maintenance passes run by [`Service::apply`] (one per standing
    /// query × batch side × rooted plan).
    pub maintenance_jobs: u64,
    /// Always 0: every maintenance pass runs on the applying thread, so
    /// there is no queued pass to fall back from. Kept only because the
    /// benchmark reads it.
    pub maintenance_inline_fallbacks: u64,
    /// Intersections executed on the AVX2 vector lane path, process
    /// lifetime (from `tdfs_gpu::simd::dispatch_counts`). Each warp adds
    /// its count when it exits, so warps still running are not in it.
    pub simd_intersections: u64,
    /// Intersections executed on the scalar lane path, process lifetime,
    /// counted like `simd_intersections`.
    pub scalar_intersections: u64,
    /// Engine counters merged across all completed queries.
    pub engine: RunStats,
    /// Sum of completion latencies (queueing + execution).
    pub total_latency: Duration,
    /// Largest single completion latency.
    pub max_latency: Duration,
    /// Plan-cache counters.
    pub plan_cache: PlanCacheStats,
}

impl ServiceMetrics {
    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let finished = self.completed + self.deadline_expired + self.failed + self.queries_shed;
        let mean_ms = if finished > 0 {
            self.total_latency.as_secs_f64() * 1e3 / finished as f64
        } else {
            0.0
        };
        format!(
            "admission: {} admitted, {} queue-full, {} unknown-graph, {} shutdown, \
             {} unmeetable, {} browned-out; depth {}\n\
             outcomes: {} completed ({} cancelled), {} deadline-expired, {} failed, {} shed\n\
             latency: {:.2} ms mean, {:.2} ms max\n\
             faults: {} admission retries, {} worker panics\n\
             governor: {} suspends, {} partials served, {} breaker changes ({:?}); \
             budget {}/{} pages (peak {})\n\
             durable: {} queries, {} resumes; leases {} granted / {} reclaimed / {} fenced; \
             {} shards acked; {} snapshots ({} bytes)\n\
             dynamic: {} batches applied, {} standing notifications, \
             {} maintenance jobs\n\
             engine kernels: {} merge, {} bsearch, {} gallop\n\
             engine traffic: {:.3} MB touched; dispatch {} simd / {} scalar\n\
             plan cache: {} hits, {} misses, {} evictions, {} presentation rebuilds",
            self.admitted,
            self.rejected_queue_full,
            self.rejected_unknown_graph,
            self.rejected_shutdown,
            self.rejected_unmeetable,
            self.rejected_brownout,
            self.queue_depth,
            self.completed,
            self.cancelled,
            self.deadline_expired,
            self.failed,
            self.queries_shed,
            mean_ms,
            self.max_latency.as_secs_f64() * 1e3,
            self.admission_retries,
            self.worker_panics,
            self.suspends,
            self.partials_served,
            self.breaker_state_changes,
            self.breaker_state,
            self.budget_in_use_pages,
            self.budget_capacity_pages,
            self.budget_peak_pages,
            self.durable_queries,
            self.resumes,
            self.leases_granted,
            self.leases_reclaimed,
            self.leases_fenced,
            self.tasks_acked,
            self.snapshots_taken,
            self.snapshot_bytes,
            self.batches_applied,
            self.standing_notifications,
            self.maintenance_jobs,
            self.engine.warp.merge_kernels,
            self.engine.warp.bsearch_kernels,
            self.engine.warp.gallop_kernels,
            self.engine.warp.bytes_touched as f64 / (1 << 20) as f64,
            self.simd_intersections,
            self.scalar_intersections,
            self.plan_cache.hits,
            self.plan_cache.misses,
            self.plan_cache.evictions,
            self.plan_cache.presentation_rebuilds,
        )
    }
}

/// What one durable run executes ([`run_durable`]): a client query's
/// [`Job`], or one standing query's maintenance passes over one side of
/// a batch.
struct RunSpec {
    /// Service-assigned query id; 0 for maintenance passes, which are
    /// not queries and never enter the durable registry.
    id: u64,
    graph_name: String,
    /// The exact graph *view* this run enumerates. Client queries get
    /// the catalog entry at submission; maintenance passes may run on a
    /// not-yet-published successor view (insert-side counting runs
    /// before `Service::apply` commits).
    graph: Arc<DeltaCsr>,
    pattern: Pattern,
    config: MatcherConfig,
    sink: Option<Arc<dyn MatchSink + Send + Sync>>,
    cancel: CancelFlag,
    /// When set, the run enumerates only from these directed seed edges
    /// (filtered by plan admission) instead of the graph's full
    /// admitted-edge list — the delta-edge-anchored maintenance sweep.
    seed_edges: Option<Vec<(u32, u32)>>,
    /// A maintenance pass's attribution order over its batch side's
    /// changed edges; `None` for client queries.
    changed: Option<Arc<ChangedEdges>>,
    /// Per-run scope of the service memory budget (when configured):
    /// attached to the engine config at execution so arena pages are
    /// charged against the global budget, and readable by the governor
    /// to rank in-flight queries by footprint.
    scope: Option<MemoryBudget>,
    /// Set when this run continues a checkpointed query.
    resume: Option<QuerySnapshot>,
}

/// A client query in the admission queue.
struct Job {
    run: RunSpec,
    deadline: Option<Duration>,
    collect_limit: Option<usize>,
    priority: Priority,
    submitted: Instant,
    tx: mpsc::Sender<QueryOutcome>,
}

/// Queue state guarded by one mutex so admission and shutdown cannot
/// interleave into a stranded job (a push after the workers decided the
/// queue was drained).
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// Live and recently-completed durable query states. Lease counters of
/// evicted states fold into `base` so service-lifetime metrics survive
/// the bounded retention window.
#[derive(Default)]
struct DurableRegistry {
    states: HashMap<u64, Arc<DurableState>>,
    finished: VecDeque<u64>,
    base: LeaseStats,
}

struct Inner {
    catalog: GraphCatalog,
    cache: PlanCache,
    queue: Mutex<QueueState>,
    available: Condvar,
    /// The service's own counters, bumped in place. The live fields
    /// (queue depth, lease totals, breaker state, budget gauges,
    /// dispatch counts, plan cache) stay at their defaults here and are
    /// filled in by [`Service::metrics`].
    metrics: Mutex<ServiceMetrics>,
    next_id: Mutex<u64>,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    durable_cfg: DurableConfig,
    durable: Mutex<DurableRegistry>,
    num_workers: usize,
    governor_cfg: GovernorConfig,
    /// The service-wide page budget (set iff
    /// `governor_cfg.memory_budget_pages` is). Queries charge it through
    /// per-query [`MemoryBudget::scoped`] children.
    budget: Option<MemoryBudget>,
    breaker: Mutex<Breaker>,
    governor_stop: AtomicBool,
    governor: Mutex<Option<JoinHandle<()>>>,
    /// Registered standing queries by id.
    standing: Mutex<HashMap<u64, Arc<StandingQuery>>>,
    next_standing: Mutex<u64>,
    /// Serializes [`Service::apply`]/[`Service::compact_graph`] commits:
    /// version succession per service is linear, so standing deltas
    /// compose (`count` telescopes across batches) and the catalog swap
    /// can only lose to an external `register_graph` race, never to
    /// another apply.
    apply_lock: Mutex<()>,
    /// On-disk state directory (present iff the service was started
    /// with [`Service::open`]). Graph/sidecar writes are serialized by
    /// `apply_lock`; snapshot writes are per-file atomic.
    disk: Option<DiskState>,
}

/// The persistence half of [`Inner`]: the state directory plus the set
/// of catalog names that live in it (graphs registered with
/// [`Service::register_graph_persistent`] or reloaded by
/// [`Service::open`] — plain [`Service::register_graph`] entries stay
/// memory-only even on a disk-backed service).
struct DiskState {
    catalog: DiskCatalog,
    names: Mutex<Vec<String>>,
}

impl DiskState {
    fn is_persistent(&self, name: &str) -> bool {
        self.names
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .any(|n| n == name)
    }
}

/// Apply lock that survives a `graph.apply.midbatch` panic: the aborted
/// apply changed nothing observable, so the next apply proceeds from
/// clean state.
fn lock_apply(inner: &Inner) -> std::sync::MutexGuard<'_, ()> {
    inner
        .apply_lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Standing-registry lock, panic-tolerant for the same reason as
/// [`lock_metrics`].
fn lock_standing(inner: &Inner) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<StandingQuery>>> {
    inner
        .standing
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Durable-registry lock that survives worker panics (same reasoning as
/// [`lock_metrics`]: no cross-field invariant spans a lock acquisition).
fn lock_durable(inner: &Inner) -> std::sync::MutexGuard<'_, DurableRegistry> {
    inner
        .durable
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Metrics lock that survives worker panics: the counters are
/// independent `u64`s with no cross-field invariant, so a lock poisoned
/// mid-update is still safe to read and bump.
fn lock_metrics(inner: &Inner) -> std::sync::MutexGuard<'_, ServiceMetrics> {
    inner
        .metrics
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Breaker lock, panic-tolerant for the same reason.
fn lock_breaker(inner: &Inner) -> std::sync::MutexGuard<'_, Breaker> {
    inner
        .breaker
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The multi-tenant query service.
///
/// `Service` is `Sync`: share it behind an `Arc` and submit from any
/// number of client threads. Dropping it shuts down gracefully (drains
/// the queue, joins the workers).
pub struct Service {
    inner: Arc<Inner>,
}

/// What [`Service::open`] restored from a state directory.
pub struct OpenedService {
    /// The running service, with every persisted graph re-registered at
    /// its last persisted version (mmap-backed, decode cache charged
    /// against the memory budget when one is configured).
    pub service: Service,
    /// Handles for suspended queries that were re-admitted; each runs to
    /// the exact count the uninterrupted original would have produced.
    /// Their snapshot files were consumed (deleted) on admission.
    pub resumed: Vec<QueryHandle>,
    /// Snapshots that could not be resumed (graph gone, version moved,
    /// queue full, torn file), keyed by persisted query id. Their files
    /// are kept on disk for inspection or a later [`Service::resume`].
    pub failed: Vec<(u64, ResumeError)>,
    /// What the intent-journal recovery found at open: `Clean` when the
    /// previous process finished its last catalog transition, otherwise
    /// the interrupted intent and whether it was rolled forward (past
    /// its commit point) or rolled back.
    pub recovery: Recovery,
}

impl Service {
    /// Starts a service with `config.workers` worker threads (plus the
    /// background governor thread when any [`GovernorConfig`] mechanism
    /// is enabled).
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_disk(config, None)
    }

    fn with_disk(config: ServiceConfig, disk: Option<DiskState>) -> Self {
        let workers = config.workers.max(1);
        let budget = config.governor.memory_budget_pages.map(MemoryBudget::new);
        let breaker = Breaker::new(config.governor.breaker.clone());
        let inner = Arc::new(Inner {
            catalog: GraphCatalog::new(),
            cache: PlanCache::new(config.plan_cache_capacity),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            available: Condvar::new(),
            metrics: Mutex::new(ServiceMetrics::default()),
            next_id: Mutex::new(0),
            queue_capacity: config.queue_capacity.max(1),
            default_deadline: config.default_deadline,
            workers: Mutex::new(Vec::new()),
            durable_cfg: config.durability,
            durable: Mutex::new(DurableRegistry::default()),
            num_workers: workers,
            governor_cfg: config.governor,
            budget,
            breaker: Mutex::new(breaker),
            governor_stop: AtomicBool::new(false),
            governor: Mutex::new(None),
            standing: Mutex::new(HashMap::new()),
            next_standing: Mutex::new(0),
            apply_lock: Mutex::new(()),
            disk,
        });
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("tdfs-service-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        *inner.workers.lock().expect("workers poisoned") = handles;
        if inner.governor_cfg.needs_thread() {
            let arc = inner.clone();
            let handle = std::thread::Builder::new()
                .name("tdfs-governor".into())
                .spawn(move || governor_loop(&arc))
                .expect("spawn governor");
            *inner.governor.lock().expect("governor poisoned") = Some(handle);
        }
        Self { inner }
    }

    /// Opens (or creates) a service state directory and restores its
    /// contents: every graph in the on-disk catalog is re-registered
    /// from its `TDFSGRPH` container — mmap-resident, adjacency decoded
    /// on demand into a budget-charged cache, never fully materialized —
    /// with its persisted delta overlay rebuilt on top so the view is at
    /// the exact [`tdfs_graph::GraphVersion`] it had before the restart.
    /// Every persisted suspended-query snapshot is then re-admitted
    /// through [`Service::resume`].
    ///
    /// The directory is the one [`Service::register_graph_persistent`],
    /// [`Service::apply`] (sidecar updates), [`Service::compact_graph`]
    /// (container rewrites) and [`Service::suspend_to_disk`] write into.
    pub fn open(
        dir: impl Into<std::path::PathBuf>,
        config: ServiceConfig,
    ) -> Result<OpenedService, StorageError> {
        Self::open_with_vfs(dir, config, tdfs_graph::vfs::RealFs::arc())
    }

    /// [`Service::open`] in salvage mode: runs `tdfsck` repair on the
    /// state directory first — quarantining whatever fails validation,
    /// rebuilding the manifest from the containers that verify — then
    /// opens normally and returns the repair report alongside the
    /// service. The "get me back up and tell me what was lost" entry
    /// point for directories a strict [`Service::open`] refuses.
    pub fn open_salvage(
        dir: impl Into<std::path::PathBuf>,
        config: ServiceConfig,
    ) -> Result<(OpenedService, crate::fsck::FsckReport), StorageError> {
        Self::open_salvage_with_vfs(dir, config, tdfs_graph::vfs::RealFs::arc())
    }

    /// [`Service::open_salvage`] with an injected filesystem seam.
    pub fn open_salvage_with_vfs(
        dir: impl Into<std::path::PathBuf>,
        config: ServiceConfig,
        vfs: Arc<dyn tdfs_graph::vfs::Vfs>,
    ) -> Result<(OpenedService, crate::fsck::FsckReport), StorageError> {
        let dir = dir.into();
        let report = crate::fsck::fsck_with(&dir, vfs.clone(), true)?;
        let opened = Self::open_with_vfs(dir, config, vfs)?;
        Ok((opened, report))
    }

    /// [`Service::open`] with an injected filesystem seam: every byte
    /// the service persists flows through `vfs`, so the crash-point
    /// harness can run the full workload under the testkit's
    /// simulated-power-loss filesystem.
    pub fn open_with_vfs(
        dir: impl Into<std::path::PathBuf>,
        config: ServiceConfig,
        vfs: Arc<dyn tdfs_graph::vfs::Vfs>,
    ) -> Result<OpenedService, StorageError> {
        let catalog = DiskCatalog::open_with(dir, vfs)?;
        let recovery = catalog.recovery().clone();
        let names = catalog.read_manifest()?;
        let service = Self::with_disk(
            config,
            Some(DiskState {
                catalog,
                names: Mutex::new(names.clone()),
            }),
        );
        let disk = service.inner.disk.as_ref().expect("just installed");
        for name in &names {
            let view = service.load_persistent(disk, name)?;
            service.inner.catalog.register(name.clone(), Arc::new(view));
        }
        let mut resumed = Vec::new();
        let mut failed = Vec::new();
        for (id, bytes) in disk.catalog.read_snapshots()? {
            match service.resume(&bytes) {
                Ok(handle) => {
                    disk.catalog.remove_snapshot(id)?;
                    resumed.push(handle);
                }
                Err(e) => failed.push((id, e)),
            }
        }
        Ok(OpenedService {
            service,
            resumed,
            failed,
            recovery,
        })
    }

    /// Map options for opening containers: decode-cache residency is
    /// charged against the service budget when one is configured, with
    /// the cache capacity never exceeding the budget itself.
    fn mapped_options(&self) -> MapOptions {
        match &self.inner.budget {
            Some(budget) => {
                let budget_bytes = self
                    .inner
                    .governor_cfg
                    .memory_budget_pages
                    .map_or(usize::MAX, |p| p.saturating_mul(PAGE_BYTES));
                budgeted_map_options(budget, DEFAULT_CACHE_BYTES.min(budget_bytes))
            }
            None => MapOptions::default(),
        }
    }

    /// Rehydrates one persisted graph: container mapped, sidecar overlay
    /// replayed on top (see [`DeltaCsr::with_overlay`]).
    fn load_persistent(&self, disk: &DiskState, name: &str) -> Result<DeltaCsr, StorageError> {
        let mapped = MmapGraph::open_with(disk.catalog.graph_path(name), &self.mapped_options())?;
        let base = GraphBase::Mapped(Arc::new(mapped));
        match disk.catalog.read_delta(name)? {
            None => Ok(DeltaCsr::from_graph_base(base)),
            Some(d) if d.inserts.is_empty() && d.deletes.is_empty() => {
                Ok(DeltaCsr::at_version(base, d.version))
            }
            Some(d) => DeltaCsr::with_overlay(base, d.version, &d.inserts, &d.deletes)
                .map_err(|e| StorageError::Overlay(format!("{name}: {e}"))),
        }
    }

    /// The graph catalog (register/unregister data graphs here).
    pub fn catalog(&self) -> &GraphCatalog {
        &self.inner.catalog
    }

    /// Registers an immutable `graph` under `name` as the version-0
    /// view of a batch-dynamic entry (convenience for
    /// `catalog().register_base`). Mutate it with [`Service::apply`].
    pub fn register_graph(&self, name: impl Into<String>, graph: Arc<CsrGraph>) {
        self.inner.catalog.register_base(name, graph);
    }

    /// Registers `graph` under `name` *and* persists it to the state
    /// directory: the graph is written as a `TDFSGRPH` container, then
    /// the catalog serves the **mapped** container — the heap copy is
    /// dropped, adjacency decodes on demand — so a graph far larger than
    /// the memory budget stays queryable. Subsequent [`Service::apply`]
    /// batches persist their cumulative overlay to the sidecar, and a
    /// later [`Service::open`] restores the graph at its final version.
    ///
    /// Requires a service started with [`Service::open`].
    pub fn register_graph_persistent(
        &self,
        name: impl Into<String>,
        graph: Arc<CsrGraph>,
    ) -> Result<(), StorageError> {
        let name = name.into();
        let Some(disk) = &self.inner.disk else {
            return Err(StorageError::Io(
                "service has no state directory (use Service::open)".into(),
            ));
        };
        disk::validate_name(&name)?;
        // Under the apply lock: the container, sidecar and manifest must
        // not interleave with a concurrent apply/compact on this name.
        let _guard = lock_apply(&self.inner);
        // One journaled transition: container + sidecar + manifest land
        // together or (after crash recovery) not at all.
        disk.catalog.install_graph(&name, 0, |mut w| {
            write_container(&*graph, &mut w, &ContainerOptions::default())
                .map(drop)
                .map_err(StorageError::from)
        })?;
        let path = disk.catalog.graph_path(&name);
        let mapped = MmapGraph::open_with(&path, &self.mapped_options())?;
        let view = DeltaCsr::from_mapped(Arc::new(mapped));
        {
            let mut names = disk
                .names
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !names.contains(&name) {
                names.push(name.clone());
                names.sort_unstable();
            }
        }
        self.inner.catalog.register(name, Arc::new(view));
        Ok(())
    }

    /// Unregisters `name`, drops its cached plans and its standing
    /// queries. In-flight queries against the graph finish on their own
    /// `Arc`.
    pub fn unregister_graph(&self, name: &str) -> Option<Arc<DeltaCsr>> {
        let g = self.inner.catalog.unregister(name);
        if g.is_some() {
            self.inner.cache.invalidate_graph(name);
            lock_standing(&self.inner).retain(|_, sq| sq.graph != name);
        }
        g
    }

    /// Tries to admit `request`. Never blocks: a full queue, an unknown
    /// graph, or a shutting-down service reject immediately.
    pub fn submit(&self, request: QueryRequest) -> Result<QueryHandle, Rejected> {
        let Some(graph) = self.inner.catalog.get(&request.graph) else {
            lock_metrics(&self.inner).rejected_unknown_graph += 1;
            return Err(Rejected::UnknownGraph(request.graph));
        };
        // Brownout gate: an open breaker admits only High priority (the
        // half-open state admits everything — those are the recovery
        // probes).
        if self.inner.governor_cfg.breaker.enabled && request.priority < Priority::High {
            let open = {
                let mut b = lock_breaker(&self.inner);
                if b.tick(Instant::now()) {
                    // Cooldown elapsed right at this submit; count the
                    // transition and admit the probe.
                    drop(b);
                    lock_metrics(&self.inner).breaker_state_changes += 1;
                    false
                } else {
                    b.state() == BreakerState::Open
                }
            };
            if open {
                lock_metrics(&self.inner).rejected_brownout += 1;
                return Err(Rejected::BrownedOut);
            }
        }
        let deadline = request.deadline.or(self.inner.default_deadline);
        // Cost-aware admission: reject a deadline the load-scaled cost
        // estimate says cannot be met, instead of burning a worker on it.
        if let (Some(rate), Some(d)) = (self.inner.governor_cfg.cost_per_ms, deadline) {
            let cost = estimate_cost(&*graph, request.pattern.num_vertices());
            let depth = self.inner.queue.lock().expect("queue poisoned").jobs.len();
            let load = 1 + (depth / self.inner.num_workers) as u64;
            let est_ms = (cost / rate.max(1)).saturating_mul(load);
            if est_ms > d.as_millis() as u64 {
                lock_metrics(&self.inner).rejected_unmeetable += 1;
                return Err(Rejected::DeadlineUnmeetable {
                    estimated_cost: cost,
                });
            }
        }
        let cancel = request.config.cancel.clone().unwrap_or_default();
        let (tx, rx) = mpsc::channel();
        let id = {
            let mut next = self.inner.next_id.lock().expect("id poisoned");
            *next += 1;
            *next
        };
        let job = Job {
            run: RunSpec {
                id,
                graph_name: request.graph,
                graph,
                pattern: request.pattern,
                config: request.config,
                sink: request.sink,
                cancel: cancel.clone(),
                seed_edges: request.seed_edges,
                changed: None,
                scope: self.inner.budget.as_ref().map(MemoryBudget::scoped),
                resume: None,
            },
            deadline,
            collect_limit: request.collect_limit,
            priority: request.priority,
            submitted: Instant::now(),
            tx,
        };
        self.enqueue_job(job)?;
        Ok(QueryHandle { id, cancel, rx })
    }

    /// Pushes an already-built job through admission control.
    fn enqueue_job(&self, job: Job) -> Result<(), Rejected> {
        {
            let mut q = self.inner.queue.lock().expect("queue poisoned");
            if q.shutting_down {
                drop(q);
                lock_metrics(&self.inner).rejected_shutdown += 1;
                return Err(Rejected::ShuttingDown);
            }
            if q.jobs.len() >= self.inner.queue_capacity {
                drop(q);
                lock_metrics(&self.inner).rejected_queue_full += 1;
                return Err(Rejected::QueueFull);
            }
            q.jobs.push_back(job);
        }
        self.inner.available.notify_one();
        lock_metrics(&self.inner).admitted += 1;
        Ok(())
    }

    /// Serializes a running (or recently completed) durable query into a
    /// versioned byte buffer that [`Service::resume`] — on this service
    /// or another process entirely — can continue from.
    ///
    /// The checkpoint is crash-consistent by construction: shards under
    /// a live lease are demoted back to unfinished tasks in the image
    /// (their counts have not been published, so re-executing them is
    /// exactly-once safe), and the live run is not disturbed. Resuming
    /// re-runs only unfinished shards and starts the count from the
    /// published partial sum.
    pub fn snapshot(&self, query_id: u64) -> Result<Vec<u8>, SnapshotError> {
        let state = lock_durable(&self.inner).states.get(&query_id).cloned();
        if let Some(state) = state {
            let bytes = state.to_snapshot();
            let mut m = lock_metrics(&self.inner);
            m.snapshots_taken += 1;
            m.snapshot_bytes += bytes.len() as u64;
            return Ok(bytes);
        }
        let queued = self
            .inner
            .queue
            .lock()
            .expect("queue poisoned")
            .jobs
            .iter()
            .any(|j| j.run.id == query_id);
        Err(if queued {
            SnapshotError::NotStarted(query_id)
        } else {
            SnapshotError::UnknownQuery(query_id)
        })
    }

    /// Snapshot-suspends a running durable query in place: takes a
    /// [`Service::snapshot`]-equivalent checkpoint, revokes the query's
    /// in-flight shard leases (their counts were never published, so
    /// exactness is preserved), and parks its shard workers so the
    /// query holds no arena pages. [`Service::unsuspend`] continues it
    /// from where it stopped; the returned checkpoint additionally
    /// works with [`Service::resume`] as a recovery artifact.
    ///
    /// This is the manual form of what the memory governor does
    /// automatically above [`GovernorConfig::suspend_high_water`].
    pub fn suspend(&self, query_id: u64) -> Result<Vec<u8>, SnapshotError> {
        let state = lock_durable(&self.inner).states.get(&query_id).cloned();
        let Some(state) = state else {
            let queued = self
                .inner
                .queue
                .lock()
                .expect("queue poisoned")
                .jobs
                .iter()
                .any(|j| j.run.id == query_id);
            return Err(if queued {
                SnapshotError::NotStarted(query_id)
            } else {
                SnapshotError::UnknownQuery(query_id)
            });
        };
        Ok(suspend_state(&self.inner, &state))
    }

    /// [`Service::suspend`] plus persistence: the checkpoint is written
    /// to the state directory under the query id, so a subsequent
    /// [`Service::open`] of the same directory re-admits the query and
    /// runs it to the exact count the uninterrupted original would have
    /// produced. The file is consumed on successful resume.
    pub fn suspend_to_disk(&self, query_id: u64) -> Result<Vec<u8>, SnapshotError> {
        let Some(disk) = &self.inner.disk else {
            return Err(SnapshotError::Storage(
                "service has no state directory (use Service::open)".into(),
            ));
        };
        let bytes = self.suspend(query_id)?;
        disk.catalog
            .write_snapshot(query_id, &bytes)
            .map_err(|e| SnapshotError::Storage(e.to_string()))?;
        Ok(bytes)
    }

    /// Clears a [`Service::suspend`]ed (or governor-suspended) query's
    /// suspension so its shard workers resume leasing. Returns whether
    /// the query existed and was suspended.
    pub fn unsuspend(&self, query_id: u64) -> bool {
        let state = lock_durable(&self.inner).states.get(&query_id).cloned();
        match state {
            Some(s) => {
                let was = s.suspended.swap(false, Ordering::AcqRel);
                if was {
                    s.ledger.poke();
                }
                was
            }
            None => false,
        }
    }

    /// Admits a query that continues from a [`Service::snapshot`] byte
    /// buffer: already-published shard counts are kept, unfinished
    /// shards re-execute, and the outcome's count equals what the
    /// uninterrupted query would have returned.
    ///
    /// The snapshot names its graph; the catalog's graph under that name
    /// must produce the same admitted-edge list length, or the shard
    /// ranges would index a different edge space
    /// ([`ResumeError::GraphMismatch`]). Streaming sinks and collect
    /// limits are not part of the checkpoint; the resumed query counts
    /// only.
    pub fn resume(&self, bytes: &[u8]) -> Result<QueryHandle, ResumeError> {
        let snap = snapshot::decode(bytes)?;
        let Some(graph) = self.inner.catalog.get(&snap.graph) else {
            return Err(ResumeError::UnknownGraph(snap.graph));
        };
        // Version gate first: the shard ranges index the admitted-edge
        // space of the exact graph version the snapshot was taken
        // against, and a later batch can reorder that space even when
        // the edge *count* below happens to agree.
        if graph.version() != snap.graph_version {
            return Err(ResumeError::GraphVersionMismatch {
                expected: snap.graph_version,
                actual: graph.version(),
            });
        }
        let plan = self.inner.cache.get_or_build(
            &snap.graph,
            graph.version(),
            &snap.pattern,
            snap.config.plan,
        );
        let actual = {
            let _scope = graph.pin_scope();
            host_filter_edges(&*graph, &plan).len() as u64
        };
        if actual != snap.edge_count {
            return Err(ResumeError::GraphMismatch {
                expected: snap.edge_count,
                actual,
            });
        }
        let cancel = CancelFlag::new();
        let (tx, rx) = mpsc::channel();
        let id = {
            let mut next = self.inner.next_id.lock().expect("id poisoned");
            *next += 1;
            *next
        };
        let job = Job {
            run: RunSpec {
                id,
                graph_name: snap.graph.clone(),
                graph,
                pattern: snap.pattern.clone(),
                config: snap.config.clone(),
                sink: None,
                cancel: cancel.clone(),
                seed_edges: None,
                changed: None,
                scope: self.inner.budget.as_ref().map(MemoryBudget::scoped),
                resume: Some(snap),
            },
            deadline: self.inner.default_deadline,
            collect_limit: None,
            priority: Priority::Normal,
            submitted: Instant::now(),
            tx,
        };
        self.enqueue_job(job).map_err(ResumeError::Rejected)?;
        lock_metrics(&self.inner).resumes += 1;
        Ok(QueryHandle { id, cancel, rx })
    }

    /// Registers a standing query: `callback` receives one exact
    /// [`MatchDelta`] per batch subsequently committed to the watched
    /// graph by [`Service::apply`]. Returns the subscription id for
    /// [`Service::unregister_standing`].
    ///
    /// Deltas are computed incrementally — only matches through changed
    /// edges are enumerated (see [`crate::standing`]) — and delivered
    /// synchronously from the applying thread, after commit, in version
    /// order, exactly once per version. The callback must not call back
    /// into [`Service::apply`] (it runs under the apply lock) and
    /// should return quickly; offload heavy reactions to a channel. A
    /// callback that panics is unregistered; the apply still completes,
    /// delivers to the other subscribers, and lists the id in
    /// [`ApplyReport::removed_standing`].
    pub fn register_standing<F>(
        &self,
        request: StandingRequest,
        callback: F,
    ) -> Result<u64, Rejected>
    where
        F: Fn(&MatchDelta) + Send + Sync + 'static,
    {
        let Some(graph) = self.inner.catalog.get(&request.graph) else {
            lock_metrics(&self.inner).rejected_unknown_graph += 1;
            return Err(Rejected::UnknownGraph(request.graph));
        };
        let sq = Arc::new(StandingQuery::build(
            request,
            Arc::new(callback) as Arc<NotifyFn>,
            graph.version(),
        ));
        let id = {
            let mut next = self
                .inner
                .next_standing
                .lock()
                .expect("standing id poisoned");
            *next += 1;
            *next
        };
        lock_standing(&self.inner).insert(id, sq);
        Ok(id)
    }

    /// Removes a standing query; returns whether it existed. An apply
    /// already in flight may still deliver one last delta.
    pub fn unregister_standing(&self, id: u64) -> bool {
        lock_standing(&self.inner).remove(&id).is_some()
    }

    /// Applies an edge batch to the named graph: builds the successor
    /// [`DeltaCsr`] view, computes every standing query's exact match
    /// delta (deletions against the pre-batch view, insertions against
    /// the not-yet-published successor), then atomically commits —
    /// catalog swap, stale plan-cache generation dropped, overlay
    /// memory re-charged — and notifies subscribers.
    ///
    /// The maintenance passes run on the calling thread, through the
    /// same durable shard loop as client queries but not through the
    /// admission queue: `apply` holds the apply lock, so a pass queued
    /// behind client work would hold every later apply behind it too.
    ///
    /// The batch is all-or-nothing: a failure — a failed maintenance
    /// pass ([`ApplyError::Maintenance`]), or a crash at the
    /// `graph.apply.midbatch` fault point, which fires *after* the
    /// deltas are computed and *before* the commit — leaves the catalog,
    /// cache, budget and subscribers exactly as they were. In-flight
    /// queries keep enumerating the view they started on.
    pub fn apply(&self, name: &str, batch: &EdgeBatch) -> Result<ApplyReport, ApplyError> {
        let _guard = lock_apply(&self.inner);
        let Some(pre) = self.inner.catalog.get(name) else {
            return Err(ApplyError::UnknownGraph(name.to_owned()));
        };
        // Disk-resident base: pin the decode cache for the whole apply —
        // row merges, maintenance passes and overlay capture all hold
        // neighbor slices (`next` shares the same base, so one scope
        // covers both views).
        let _scope = pre.pin_scope();
        let (next, applied) = pre.apply(batch)?;
        let next = Arc::new(next);
        let version = next.version();
        // Incremental maintenance, pre-commit. The removed side counts
        // on the still-published pre view; the added side counts on the
        // successor no client can reach yet. A failed pass fails the
        // apply here, before anything commits.
        let standing: Vec<(u64, Arc<StandingQuery>)> = lock_standing(&self.inner)
            .iter()
            .filter(|(_, sq)| sq.graph == name)
            .map(|(&id, sq)| (id, sq.clone()))
            .collect();
        let mut deltas = Vec::with_capacity(standing.len());
        for (id, sq) in standing {
            let (removed, removed_embeddings) = self
                .maintain(&sq, &pre, &applied.deleted)
                .map_err(ApplyError::Maintenance)?;
            let (added, added_embeddings) = self
                .maintain(&sq, &next, &applied.inserted)
                .map_err(ApplyError::Maintenance)?;
            let delta = MatchDelta {
                graph: name.to_owned(),
                version,
                added,
                removed,
                added_embeddings,
                removed_embeddings,
            };
            deltas.push((id, sq, delta));
        }
        // Kill point between compute and commit: a panic here must be
        // invisible — nothing below has run, nothing above published.
        crate::chaos_point!("graph.apply.midbatch");
        if !self.inner.catalog.swap(name, &pre, next.clone()) {
            return Err(ApplyError::Conflict(name.to_owned()));
        }
        self.inner.cache.invalidate_graph_below(name, version);
        if let Some(b) = &self.inner.budget {
            // Overlay re-charge is unchecked: the rows already reside,
            // so growth must become *visible* pressure (the governor's
            // job), not a refusable allocation. Charge before release
            // so a concurrent pressure read never under-counts.
            b.charge_bytes_unchecked(next.overlay_bytes());
            b.release_bytes(pre.overlay_bytes());
        }
        lock_metrics(&self.inner).batches_applied += 1;
        // One call per subscriber, each behind its own unwind boundary:
        // the batch is already committed, so a panicking callback must
        // not cost the other subscribers their delta or skip the sidecar
        // write below. The panicking subscription is removed, so it never
        // sees a gap in its version sequence.
        let mut notifications = 0usize;
        let mut removed_standing = Vec::new();
        for (id, sq, delta) in &deltas {
            if sq.last_version.load(Ordering::Acquire) >= version {
                continue;
            }
            sq.last_version.store(version, Ordering::Release);
            match std::panic::catch_unwind(AssertUnwindSafe(|| (sq.callback)(delta))) {
                Ok(()) => notifications += 1,
                Err(_) => removed_standing.push(*id),
            }
        }
        if !removed_standing.is_empty() {
            let mut registry = lock_standing(&self.inner);
            for id in &removed_standing {
                registry.remove(id);
            }
        }
        lock_metrics(&self.inner).standing_notifications += notifications as u64;
        // Persist the cumulative overlay *after* the commit: the batch
        // is already live in memory either way, and the sidecar write is
        // atomic (tmp + rename), so a crash at any point leaves disk at
        // some prefix version — never a torn file. A write failure
        // surfaces as [`ApplyError::Storage`] with the commit intact.
        if let Some(disk) = self.inner.disk.as_ref().filter(|d| d.is_persistent(name)) {
            let (inserts, deletes) = next.overlay_edges();
            disk.catalog.write_delta(
                name,
                &PersistedDelta {
                    version,
                    inserts,
                    deletes,
                },
            )?;
        }
        Ok(ApplyReport {
            graph: name.to_owned(),
            version,
            inserted: applied.inserted.len(),
            deleted: applied.deleted.len(),
            notifications,
            removed_standing,
        })
    }

    /// Rebuilds the named graph's overlay into a fresh compact base
    /// (see [`DeltaCsr::compact`]) and swaps it in. The version does
    /// **not** change — compaction is representation-only — so cached
    /// plans stay valid and standing queries see no delta. Returns the
    /// (unchanged) version.
    pub fn compact_graph(&self, name: &str) -> Result<u64, ApplyError> {
        let _guard = lock_apply(&self.inner);
        let Some(pre) = self.inner.catalog.get(name) else {
            return Err(ApplyError::UnknownGraph(name.to_owned()));
        };
        if pre.is_compact() {
            return Ok(pre.version());
        }
        let next = match self.inner.disk.as_ref().filter(|d| d.is_persistent(name)) {
            Some(disk) => {
                // Persistent graph: stream the compacted container
                // straight off the live view — `write_container` walks
                // `GraphView` rows, so the merged base+overlay adjacency
                // goes to disk without ever materializing a heap CSR —
                // then serve the *new* container, mapped, with an empty
                // sidecar that still records the version. The journaled
                // install makes container-swap + sidecar-reset atomic: a
                // crash between them can never leave the new container
                // shadowed by the stale pre-compaction overlay.
                let _scope = pre.pin_scope();
                disk.catalog.install_graph(name, pre.version(), |mut w| {
                    write_container(&*pre, &mut w, &ContainerOptions::default())
                        .map(drop)
                        .map_err(StorageError::from)
                })?;
                let mapped =
                    MmapGraph::open_with(disk.catalog.graph_path(name), &self.mapped_options())
                        .map_err(StorageError::from)?;
                Arc::new(DeltaCsr::at_version(
                    GraphBase::Mapped(Arc::new(mapped)),
                    pre.version(),
                ))
            }
            None => Arc::new(pre.compact()),
        };
        if !self.inner.catalog.swap(name, &pre, next.clone()) {
            return Err(ApplyError::Conflict(name.to_owned()));
        }
        if let Some(b) = &self.inner.budget {
            debug_assert_eq!(next.overlay_bytes(), 0);
            b.release_bytes(pre.overlay_bytes());
        }
        Ok(next.version())
    }

    /// One side of a standing query's delta: the number of distinct
    /// `sq.pattern` matches in `view` through at least one `changed`
    /// edge, with their embeddings when the subscription asked for them.
    /// Runs one anchored pass per rooted plan, on the calling thread,
    /// through the durable run client queries use ([`run_durable`]).
    /// Each pass keeps only the matches whose smallest changed edge is
    /// its anchor and breaks its anchor's stabilizer, so it counts every
    /// class it owns once, and the side's count is the sum of the
    /// passes' counts (see [`crate::standing`]). Only a subscription with
    /// embeddings feeds its passes into a [`DedupSink`].
    fn maintain(
        &self,
        sq: &StandingQuery,
        view: &Arc<DeltaCsr>,
        changed: &[(u32, u32)],
    ) -> Result<DeltaSide, EngineError> {
        let dedup = sq
            .report_embeddings
            .then(|| Arc::new(DedupSink::new(sq.aut.clone())));
        if changed.is_empty() {
            return Ok((0, dedup.map(|_| Vec::new())));
        }
        let run = RunSpec {
            id: 0,
            graph_name: sq.graph.clone(),
            graph: view.clone(),
            pattern: sq.pattern.clone(),
            config: sq.config.clone(),
            sink: dedup.clone().map(|d| d as Arc<dyn MatchSink + Send + Sync>),
            cancel: CancelFlag::new(),
            seed_edges: Some(oriented_seeds(changed)),
            changed: Some(Arc::new(ChangedEdges::new(changed))),
            scope: self.inner.budget.as_ref().map(MemoryBudget::scoped),
            resume: None,
        };
        let mut count = 0;
        for plan in &sq.plans {
            lock_metrics(&self.inner).maintenance_jobs += 1;
            let now = Instant::now();
            count += run_durable(&self.inner, &run, plan, None, None, now, false)
                .1?
                .matches;
        }
        let embeddings = dedup.map(|d| d.take());
        debug_assert!(embeddings.as_ref().is_none_or(|e| e.len() as u64 == count));
        Ok((count, embeddings))
    }

    /// Live progress of a query (pending/outstanding/acked shards,
    /// published counts, lease counters, wedge diagnostics); `None` for
    /// unknown ids, queries not yet started, and queries evicted from
    /// the completed-query retention window.
    pub fn progress(&self, query_id: u64) -> Option<QueryProgress> {
        lock_durable(&self.inner)
            .states
            .get(&query_id)
            .map(|s| s.progress())
    }

    /// [`Service::submit`] with bounded retry on transient
    /// [`Rejected::QueueFull`] backpressure: sleeps `policy`'s jittered,
    /// exponentially growing backoff between attempts (the shared
    /// [`tdfs_core::retry()`] loop) and gives up —
    /// returning the final `QueueFull` — after `policy.max_retries`
    /// resubmissions. Non-transient rejections (unknown graph, shutdown)
    /// are returned immediately, never retried. Each resubmission bumps
    /// [`ServiceMetrics::admission_retries`].
    ///
    /// This blocks the caller for up to the summed backoff, which is the
    /// point: it converts the service's report-don't-block backpressure
    /// into a bounded wait at the edge, where blocking is the client's
    /// explicit choice.
    pub fn submit_with_retry(
        &self,
        request: QueryRequest,
        policy: &BackoffPolicy,
    ) -> Result<QueryHandle, Rejected> {
        retry(policy, |attempt| {
            if attempt > 0 {
                lock_metrics(&self.inner).admission_retries += 1;
            }
            match self.submit(request.clone()) {
                Ok(handle) => Retry::Done(handle),
                Err(Rejected::QueueFull) => Retry::Again(Rejected::QueueFull),
                Err(other) => Retry::Fatal(other),
            }
        })
    }

    /// Snapshot of the service counters.
    ///
    /// All outcome and governor counters (`completed`, `failed`,
    /// `queries_shed`, `partials_served`, `suspends`, …) live under one
    /// mutex and are read in a single acquisition, so the snapshot is
    /// internally consistent: invariants like *every finished query is
    /// counted exactly once across completed / deadline-expired /
    /// failed / shed* hold in every snapshot, even taken mid-storm.
    /// Queue depth, lease counters, breaker state, budget gauges,
    /// dispatch counts and plan-cache counters are instantaneous reads
    /// of live structures, filled in after that acquisition.
    pub fn metrics(&self) -> ServiceMetrics {
        let mut m = lock_metrics(&self.inner).clone();
        m.queue_depth = self.inner.queue.lock().expect("queue poisoned").jobs.len();
        let leases = {
            let reg = lock_durable(&self.inner);
            let mut agg = reg.base;
            for s in reg.states.values() {
                agg.merge(&s.lease_stats());
            }
            agg
        };
        m.leases_granted = leases.granted;
        m.leases_reclaimed = leases.reclaimed;
        m.leases_fenced = leases.fenced;
        m.tasks_acked = leases.acked;
        m.breaker_state = lock_breaker(&self.inner).state();
        if let Some(b) = &self.inner.budget {
            m.budget_in_use_pages = b.in_use_pages();
            m.budget_peak_pages = b.peak_pages();
            m.budget_capacity_pages = b.capacity_pages();
        }
        let dispatch = tdfs_gpu::simd::dispatch_counts();
        m.simd_intersections = dispatch.simd;
        m.scalar_intersections = dispatch.scalar;
        m.plan_cache = self.inner.cache.stats();
        m
    }

    /// Stops admitting work, drains the queue, and joins the workers.
    /// Queued queries still run (cancel them first for a fast stop).
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().expect("queue poisoned");
            q.shutting_down = true;
        }
        self.inner.available.notify_all();
        // Stop the governor first, then wake every suspended query: a
        // suspended query's shard workers would otherwise park forever
        // and the drain below would never join its service worker.
        self.inner.governor_stop.store(true, Ordering::Release);
        let governor = self
            .inner
            .governor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(h) = governor {
            let _ = h.join();
        }
        for s in lock_durable(&self.inner).states.values() {
            if s.suspended.swap(false, Ordering::AcqRel) {
                s.ledger.poke();
            }
        }
        let handles = std::mem::take(
            &mut *self
                .inner
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for w in handles {
            let _ = w.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("queue poisoned");
            loop {
                if let Some(j) = q.jobs.pop_front() {
                    break Some(j);
                }
                if q.shutting_down {
                    break None;
                }
                q = inner.available.wait(q).expect("queue poisoned");
            }
        };
        let Some(job) = job else { return };
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| run_job(inner, &job))).is_err();
        if panicked {
            // Shard panics are recovered inside the run; this is a panic
            // outside shard execution. The query dies with it, not the
            // worker: fail it explicitly so the client's `wait` returns,
            // and keep serving on this thread, which holds no per-query
            // state past the unwind.
            lock_metrics(inner).worker_panics += 1;
            finish(inner, &job, Err(EngineError::WorkerPanicked), None, None);
        }
    }
}

/// Suspends one durable query: checkpoint first (crash consistency),
/// then revoke its in-flight shard leases so their pages come back and
/// its workers park on the suspension flag. Returns the checkpoint.
fn suspend_state(inner: &Inner, state: &Arc<DurableState>) -> Vec<u8> {
    state.suspended.store(true, Ordering::Release);
    let bytes = state.to_snapshot();
    state.revoke_all();
    let mut m = lock_metrics(inner);
    m.suspends += 1;
    m.snapshots_taken += 1;
    m.snapshot_bytes += bytes.len() as u64;
    bytes
}

/// Mutable state the governor keeps across ticks.
struct GovernorLocal {
    /// When the oldest queued query's sojourn first exceeded the CoDel
    /// target without recovering since; `None` while under target.
    sojourn_over_since: Option<Instant>,
}

fn governor_loop(inner: &Arc<Inner>) {
    let mut local = GovernorLocal {
        sojourn_over_since: None,
    };
    let tick = inner.governor_cfg.tick.max(Duration::from_micros(100));
    while !inner.governor_stop.load(Ordering::Acquire) {
        govern_once(inner, &mut local, Instant::now());
        std::thread::sleep(tick);
    }
}

/// One governor tick: shed expired queued queries, apply the sojourn
/// shed policy, act on memory pressure, advance the breaker cooldown.
fn govern_once(inner: &Arc<Inner>, local: &mut GovernorLocal, now: Instant) {
    // (a) Queue aging: a queued query whose deadline already expired can
    // only ever produce Err(TimeLimit) — fail it now instead of letting
    // it occupy a worker first. (Workers still check at dequeue, so
    // this is a latency optimization, not a correctness gate.)
    let expired: Vec<Job> = {
        let mut q = inner.queue.lock().expect("queue poisoned");
        let mut keep = VecDeque::with_capacity(q.jobs.len());
        let mut out = Vec::new();
        for j in q.jobs.drain(..) {
            let dead = j
                .deadline
                .is_some_and(|d| now.duration_since(j.submitted) > d);
            if dead {
                out.push(j);
            } else {
                keep.push_back(j);
            }
        }
        q.jobs = keep;
        out
    };
    for job in &expired {
        finish(inner, job, Err(EngineError::TimeLimit), None, None);
    }

    // (b) CoDel-style sojourn shedding: once the oldest queued query has
    // waited past the target *continuously for at least the target*,
    // shed the newest Low-priority queued query (one per tick). Newest-
    // first preserves the work the service has already waited on.
    if let ShedPolicy::Sojourn { target } = inner.governor_cfg.shed_policy {
        let victim: Option<Job> = {
            let mut q = inner.queue.lock().expect("queue poisoned");
            let oldest_over = q
                .jobs
                .front()
                .is_some_and(|j| now.duration_since(j.submitted) > target);
            if !oldest_over {
                local.sojourn_over_since = None;
                None
            } else {
                let since = *local.sojourn_over_since.get_or_insert(now);
                if now.duration_since(since) >= target {
                    q.jobs
                        .iter()
                        .rposition(|j| j.priority == Priority::Low)
                        .and_then(|i| q.jobs.remove(i))
                } else {
                    None
                }
            }
        };
        if let Some(job) = victim {
            finish(inner, &job, Err(EngineError::Shed), None, None);
        }
    }

    // (c) Memory pressure: above the high water, snapshot-suspend the
    // heaviest in-flight durable query; at or below the low water,
    // resume one suspended query per tick.
    if let Some(budget) = &inner.budget {
        let mut pressure = budget.pressure();
        // Fault point: the governor sees saturating pressure regardless
        // of real occupancy, driving the suspend path deterministically.
        if crate::chaos_inject!("service.governor.pressure") {
            pressure = 1.0;
        }
        let cfg = &inner.governor_cfg;
        if pressure >= cfg.suspend_high_water {
            let heaviest = {
                let reg = lock_durable(inner);
                reg.states
                    .values()
                    .filter(|s| {
                        !s.done.load(Ordering::Relaxed) && !s.suspended.load(Ordering::Relaxed)
                    })
                    .max_by_key(|s| s.scope.as_ref().map_or(0, MemoryBudget::in_use_pages))
                    .cloned()
            };
            // Suspending a query that holds no pages frees nothing;
            // only act on one with real footprint.
            if let Some(state) = heaviest {
                if state.scope.as_ref().map_or(0, MemoryBudget::in_use_pages) > 0 {
                    suspend_state(inner, &state);
                }
            }
        } else if pressure <= cfg.resume_low_water {
            let parked = {
                let reg = lock_durable(inner);
                reg.states
                    .values()
                    .find(|s| {
                        !s.done.load(Ordering::Relaxed) && s.suspended.load(Ordering::Relaxed)
                    })
                    .cloned()
            };
            if let Some(state) = parked {
                state.suspended.store(false, Ordering::Release);
                state.ledger.poke();
            }
        }
    }

    // (d) Breaker cooldown: an open breaker half-opens after cooldown
    // even if no submit arrives to observe it.
    if inner.governor_cfg.breaker.enabled {
        let changed = lock_breaker(inner).tick(now);
        if changed {
            lock_metrics(inner).breaker_state_changes += 1;
        }
    }
}

/// Executes a client query: plan from the cache, then one durable run
/// (see [`crate::durable`]) whose outcome goes to the client.
fn run_job(inner: &Inner, job: &Job) {
    let run = &job.run;
    // Disk-resident graph: pin the decode cache for the whole run — the
    // engines hold neighbor slices across deep DFS descents, and the
    // scope lets concurrent eviction reclaim *other* queries' segments
    // without invalidating this one's.
    let _scope = run.graph.pin_scope();
    let start = Instant::now();
    // The engine time limit and the from-submission deadline combine
    // into one absolute instant each shard derives its remaining budget
    // from.
    let mut deadline_at = run.config.time_limit.map(|l| start + l);
    if let Some(d) = job.deadline {
        let abs = job.submitted + d;
        if Instant::now() > abs {
            // Expired while queued: no planning, no execution.
            finish(inner, job, Err(EngineError::TimeLimit), None, None);
            return;
        }
        deadline_at = Some(deadline_at.map_or(abs, |x| x.min(abs)));
    }
    let plan = inner.cache.get_or_build(
        &run.graph_name,
        run.graph.version(),
        &run.pattern,
        run.config.plan,
    );
    let collector = job
        .collect_limit
        .map(|limit| CollectSink::with_cancel(limit, run.cancel.clone()));
    let (state, result) = run_durable(
        inner,
        run,
        &plan,
        deadline_at,
        collector.as_ref(),
        start,
        true,
    );
    let matches = collector.map(|c| c.into_matches().iter().map(|m| plan.by_vertex(m)).collect());
    // A query that ran out of time (or was shed mid-run) still has an
    // exact counted lower bound: the sum published by accepted
    // acks, with the shard completion ratio alongside it. Computed after
    // the run returned, so the ledger is quiescent.
    let partial = match &result {
        Err(EngineError::TimeLimit) | Err(EngineError::Shed) => Some(PartialResult {
            lower_bound: state.matches.load(Ordering::Relaxed),
            shards_done: state.tasks_acked.load(Ordering::Relaxed),
            shards_total: state.tasks_acked.load(Ordering::Relaxed)
                + state.ledger.pending_len() as u64
                + state.ledger.outstanding_len() as u64,
        }),
        _ => None,
    };
    finish(inner, job, result, matches, partial);
}

/// The one durable run behind every engine call in the service, for a
/// client query ([`run_job`]) and for a maintenance pass
/// (`Service::maintain`): shards the run's admitted edges into a fresh
/// lease ledger (or continues its checkpoint's), then runs the shard
/// workers under the per-run watchdog and publishes counts through
/// epoch-fenced acks. A `register`ed run is in the durable registry
/// from before its first shard until it leaves the retention window,
/// so snapshots, suspends and progress probes reach it.
fn run_durable(
    inner: &Inner,
    run: &RunSpec,
    plan: &QueryPlan,
    deadline: Option<Instant>,
    collector: Option<&CollectSink>,
    start: Instant,
    register: bool,
) -> (Arc<DurableState>, Result<RunResult, EngineError>) {
    // Seed edges pass the plan's first-two-level admission predicate —
    // the same gate `host_filter_edges` applies to a full scan — so the
    // engines only ever see admissible initial tasks.
    let edges = match &run.seed_edges {
        Some(seeds) => seeds
            .iter()
            .copied()
            .filter(|&(u, v)| edge_admitted(&*run.graph, plan, u, v))
            .collect(),
        None => host_filter_edges(&*run.graph, plan),
    };
    let state = match &run.resume {
        Some(snap) => durable::resumed_state(run.id, snap, &inner.durable_cfg, run.scope.clone()),
        None => {
            // The state's stored config is what a snapshot serializes:
            // the run-scoped cancel token, time limit and budget scope
            // are not part of the query's durable identity.
            let mut stored = run.config.clone();
            stored.cancel = None;
            stored.time_limit = None;
            stored.memory_budget = None;
            durable::fresh_state(
                run.id,
                run.graph_name.clone(),
                run.graph.version(),
                run.pattern.clone(),
                stored,
                &*run.graph,
                &edges,
                &inner.durable_cfg,
                run.scope.clone(),
            )
        }
    };
    if register {
        lock_durable(inner)
            .states
            .insert(run.id, Arc::clone(&state));
        lock_metrics(inner).durable_queries += 1;
    }
    // The execution config (unlike the stored one) carries the budget
    // scope, so every shard's arena pages charge the service budget.
    let mut exec_config = run.config.clone();
    if run.scope.is_some() {
        exec_config.memory_budget = run.scope.clone();
    }
    let djob = DurableJob {
        graph: &*run.graph,
        plan,
        config: &exec_config,
        edges: &edges,
        cancel: &run.cancel,
        deadline,
        collector,
        client: run.sink.as_deref().map(|s| s as &dyn MatchSink),
        changed: run.changed.as_ref(),
    };
    let result = durable::execute(&state, &djob, &inner.durable_cfg, start);
    state.done.store(true, Ordering::Relaxed);
    // Retain a registered state (bounded) so post-completion snapshots
    // and progress probes still resolve; fold evicted ledgers, and a
    // pass's at once, into the lifetime base counters.
    let mut reg = lock_durable(inner);
    if register {
        reg.finished.push_back(run.id);
        while reg.finished.len() > DURABLE_RETAIN {
            let evicted = reg.finished.pop_front().expect("non-empty");
            if let Some(s) = reg.states.remove(&evicted) {
                let stats = s.lease_stats();
                reg.base.merge(&stats);
            }
        }
    } else {
        reg.base.merge(&state.lease_stats());
    }
    drop(reg);
    (state, result)
}

fn finish(
    inner: &Inner,
    job: &Job,
    result: Result<RunResult, EngineError>,
    matches: Option<Vec<Vec<u32>>>,
    partial: Option<PartialResult>,
) {
    let latency = job.submitted.elapsed();
    {
        let mut m = lock_metrics(inner);
        match &result {
            Ok(r) => {
                m.completed += 1;
                if r.stats.cancelled {
                    m.cancelled += 1;
                }
                m.engine.merge(&r.stats);
            }
            Err(EngineError::TimeLimit) => m.deadline_expired += 1,
            Err(EngineError::Shed) => m.queries_shed += 1,
            Err(_) => m.failed += 1,
        }
        if partial.is_some() {
            m.partials_served += 1;
        }
        m.total_latency += latency;
        m.max_latency = m.max_latency.max(latency);
    }
    // Feed the breaker after the metrics lock is released (independent
    // locks, never held together). Client cancels are not "bad" — only
    // genuine failures, deadline misses and sheds count toward brownout.
    if inner.governor_cfg.breaker.enabled {
        let changed = lock_breaker(inner).record(result.is_err(), Instant::now());
        if changed {
            lock_metrics(inner).breaker_state_changes += 1;
        }
    }
    // The client may have dropped its handle; the outcome is then simply
    // discarded.
    let _ = job.tx.send(QueryOutcome {
        query_id: job.run.id,
        result,
        matches,
        partial,
        latency,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfs_core::reference_count;
    use tdfs_graph::generators::barabasi_albert;
    use tdfs_graph::GraphBuilder;
    use tdfs_query::plan::QueryPlan;
    use tdfs_query::PatternId;

    fn k5() -> Arc<CsrGraph> {
        let mut b = GraphBuilder::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                b.push_edge(u, v);
            }
        }
        Arc::new(b.build())
    }

    fn small_service() -> Service {
        Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            plan_cache_capacity: 8,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn counts_agree_with_the_reference() {
        let svc = small_service();
        let g = Arc::new(barabasi_albert(100, 3, 1));
        svc.register_graph("ba", g.clone());
        let p = PatternId(1).pattern();
        let want = reference_count(&*g, &QueryPlan::build_with(&p, Default::default()));
        let h = svc.submit(QueryRequest::new("ba", p)).unwrap();
        let out = h.wait();
        assert_eq!(out.result.unwrap().matches, want);
        assert!(out.matches.is_none(), "no collect_limit, no matches");
    }

    #[test]
    fn collect_limit_returns_pattern_indexed_matches() {
        let svc = small_service();
        svc.register_graph("k5", k5());
        let h = svc
            .submit(QueryRequest::new("k5", PatternId(2).pattern()).with_collect_limit(100))
            .unwrap();
        let out = h.wait();
        let matches = out.matches.unwrap();
        assert_eq!(out.result.unwrap().matches, 5);
        assert_eq!(matches.len(), 5);
        for m in &matches {
            assert_eq!(m.len(), 4);
        }
    }

    #[test]
    fn unknown_graph_is_rejected() {
        let svc = small_service();
        let err = svc
            .submit(QueryRequest::new("nope", Pattern::clique(3)))
            .unwrap_err();
        assert_eq!(err, Rejected::UnknownGraph("nope".into()));
        assert_eq!(svc.metrics().rejected_unknown_graph, 1);
    }

    /// A sink that signals when the engine first emits, then blocks until
    /// released — pins a worker deterministically.
    struct BlockingSink {
        entered: Arc<(Mutex<bool>, Condvar)>,
        release: Arc<(Mutex<bool>, Condvar)>,
    }

    impl MatchSink for BlockingSink {
        fn emit(&self, _m: &[u32]) {
            {
                let (m, c) = &*self.entered;
                *m.lock().unwrap() = true;
                c.notify_all();
            }
            let (m, c) = &*self.release;
            let mut g = m.lock().unwrap();
            while !*g {
                g = c.wait(g).unwrap();
            }
        }
    }

    fn wait_flag(pair: &(Mutex<bool>, Condvar)) {
        let (m, c) = pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = c.wait(g).unwrap();
        }
    }

    fn raise_flag(pair: &(Mutex<bool>, Condvar)) {
        let (m, c) = pair;
        *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        c.notify_all();
    }

    /// Raises a pinned worker's release flag when dropped, so a test
    /// that panics while the worker is pinned fails instead of hanging
    /// in `Service`'s drop, which joins the worker. Declare it after the
    /// service: locals drop in reverse order.
    struct ReleaseOnDrop(Arc<(Mutex<bool>, Condvar)>);

    impl Drop for ReleaseOnDrop {
        fn drop(&mut self) {
            raise_flag(&self.0);
        }
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            plan_cache_capacity: 4,
            ..ServiceConfig::default()
        });
        svc.register_graph("k5", k5());
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        let release = ReleaseOnDrop(Arc::new((Mutex::new(false), Condvar::new())));
        let sink = Arc::new(BlockingSink {
            entered: entered.clone(),
            release: release.0.clone(),
        });
        let blocker = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)).with_sink(sink))
            .unwrap();
        // The single worker is now pinned inside emit.
        wait_flag(&entered);
        let queued = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)))
            .unwrap();
        let err = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)))
            .unwrap_err();
        assert_eq!(err, Rejected::QueueFull);
        drop(release);
        assert!(blocker.wait().result.is_ok());
        assert!(queued.wait().result.is_ok());
        let m = svc.metrics();
        assert_eq!(m.admitted, 2);
        assert_eq!(m.rejected_queue_full, 1);
        assert_eq!(m.completed, 2);
    }

    #[test]
    fn submit_with_retry_gives_up_after_bounded_attempts() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            plan_cache_capacity: 4,
            ..ServiceConfig::default()
        });
        svc.register_graph("k5", k5());
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        let release = ReleaseOnDrop(Arc::new((Mutex::new(false), Condvar::new())));
        let sink = Arc::new(BlockingSink {
            entered: entered.clone(),
            release: release.0.clone(),
        });
        let blocker = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)).with_sink(sink))
            .unwrap();
        wait_flag(&entered);
        let queued = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)))
            .unwrap();
        // The worker is pinned and the queue is full: every attempt of a
        // bounded retry fails, and each resubmission is counted.
        let policy = BackoffPolicy::new(3, Duration::from_micros(200), Duration::from_millis(1));
        let err = svc
            .submit_with_retry(QueryRequest::new("k5", Pattern::clique(3)), &policy)
            .unwrap_err();
        assert_eq!(err, Rejected::QueueFull);
        assert_eq!(svc.metrics().admission_retries, 3);
        assert_eq!(
            svc.metrics().rejected_queue_full,
            4,
            "all 4 attempts rejected"
        );
        drop(release);
        assert!(blocker.wait().result.is_ok());
        assert!(queued.wait().result.is_ok());
    }

    #[test]
    fn submit_with_retry_recovers_from_transient_backpressure() {
        let svc = Arc::new(Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            plan_cache_capacity: 4,
            ..ServiceConfig::default()
        }));
        svc.register_graph("k5", k5());
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        let release = ReleaseOnDrop(Arc::new((Mutex::new(false), Condvar::new())));
        let sink = Arc::new(BlockingSink {
            entered: entered.clone(),
            release: release.0.clone(),
        });
        let blocker = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)).with_sink(sink))
            .unwrap();
        wait_flag(&entered);
        let queued = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)))
            .unwrap();
        // Retry from another thread against the full queue; once at least
        // one attempt has been rejected, unpin the worker so the queue
        // drains and a later attempt is admitted.
        let retrier = {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let policy = BackoffPolicy::new(
                    10_000,
                    Duration::from_micros(200),
                    Duration::from_millis(1),
                );
                svc.submit_with_retry(QueryRequest::new("k5", Pattern::clique(3)), &policy)
            })
        };
        while svc.metrics().admission_retries == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        drop(release);
        let handle = retrier.join().unwrap().expect("retry should be admitted");
        assert!(blocker.wait().result.is_ok());
        assert!(queued.wait().result.is_ok());
        assert!(handle.wait().result.is_ok());
        let m = svc.metrics();
        assert!(m.admission_retries >= 1);
        assert_eq!(m.completed, 3);
    }

    #[test]
    fn submit_with_retry_does_not_retry_final_rejections() {
        let svc = small_service();
        let err = svc
            .submit_with_retry(
                QueryRequest::new("nope", Pattern::clique(3)),
                &BackoffPolicy::default(),
            )
            .unwrap_err();
        assert_eq!(err, Rejected::UnknownGraph("nope".into()));
        assert_eq!(svc.metrics().admission_retries, 0);
    }

    #[test]
    fn deadline_expired_in_queue_skips_execution() {
        let svc = small_service();
        svc.register_graph("k5", k5());
        let h = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)).with_deadline(Duration::ZERO))
            .unwrap();
        let out = h.wait();
        assert!(matches!(out.result, Err(EngineError::TimeLimit)));
        assert_eq!(svc.metrics().deadline_expired, 1);
    }

    #[test]
    fn repeated_patterns_hit_the_plan_cache() {
        let svc = small_service();
        svc.register_graph("k5", k5());
        for _ in 0..3 {
            svc.submit(QueryRequest::new("k5", PatternId(2).pattern()))
                .unwrap()
                .wait();
        }
        let s = svc.metrics().plan_cache;
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn cancelled_query_completes_partial() {
        let svc = small_service();
        svc.register_graph("ba", Arc::new(barabasi_albert(2000, 12, 21)));
        let h = svc
            .submit(
                QueryRequest::new("ba", PatternId(8).pattern())
                    .with_config(MatcherConfig::tdfs().with_warps(2)),
            )
            .unwrap();
        h.cancel();
        let out = h.wait();
        let r = out.result.unwrap();
        // Either the run was genuinely interrupted or it beat the cancel;
        // both are legal, but a cancelled run must say so.
        assert_eq!(r.stats.cancelled, svc.metrics().cancelled == 1);
    }

    #[test]
    fn shutdown_rejects_new_work_and_drains() {
        let svc = small_service();
        svc.register_graph("k5", k5());
        let h = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)))
            .unwrap();
        svc.shutdown();
        let err = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)))
            .unwrap_err();
        assert_eq!(err, Rejected::ShuttingDown);
        // The job admitted before shutdown still completed.
        assert!(h.wait().result.is_ok());
    }

    #[test]
    fn metrics_summary_mentions_counters() {
        let svc = small_service();
        svc.register_graph("k5", k5());
        svc.submit(QueryRequest::new("k5", Pattern::clique(3)))
            .unwrap()
            .wait();
        let s = svc.metrics().summary();
        for needle in ["admitted", "completed", "latency", "plan cache"] {
            assert!(s.contains(needle), "summary missing {needle:?}:\n{s}");
        }
    }
}
