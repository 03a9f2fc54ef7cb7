//! Durable query execution: leased shards, epoch-fenced exactly-once
//! counting, watchdog-driven recovery, checkpoint/resume.
//!
//! # Model
//!
//! A durable query's admitted initial-edge list (the same
//! [`tdfs_core::host_filter_edges`] space every engine enumerates) is
//! split into contiguous **edge-range shards**. Each shard is a
//! self-describing task in a [`LeaseTable`]: shard workers lease one,
//! run the query's configured engine over exactly that edge range
//! ([`tdfs_core::match_plan_on_edges`]), and `ack` the shard's match
//! count. Because every match is rooted at exactly one admitted initial
//! edge, shard counts are additive over the disjoint ranges — the sum
//! of accepted acks is exactly the uninterrupted count, for all five
//! engines.
//!
//! # Exactly-once counting
//!
//! A count is published only by an **accepted ack**, and the lease
//! table's epoch fence accepts at most one ack per task:
//!
//! - a worker that panics mid-shard has its lease failed immediately —
//!   the shard requeues (split in half when possible) with a bumped
//!   epoch, and the dead attempt never acks;
//! - a worker that merely *stalls* past the lease deadline is reaped by
//!   the watchdog: the shard requeues, the zombie's per-lease cancel
//!   token is raised, and if the zombie completes anyway its ack
//!   carries a stale epoch and is **fenced** (discarded);
//! - a worker that observes a query-level cancel releases its lease
//!   unexecuted and publishes nothing.
//!
//! Match **emissions** (sinks / collected matches) are flushed before
//! the ack with a fence pre-check, so they are exactly-once in the
//! fault-free case and at-least-once under reclaim races — counts stay
//! exact either way. The contract is deliberate: a count is a sum
//! (double-adding corrupts it silently); an emission is a row a
//! downstream consumer can deduplicate.
//!
//! # Watchdog
//!
//! One thread per durable query drives recovery and the heartbeat:
//! reap expired leases (straggler → requeue **split in half**, the
//! lease-level analogue of the paper's timeout decomposition), revoke
//! zombies, propagate query-level cancellation into running shards,
//! and fail the query with [`EngineError::Wedged`] when a task's epoch
//! exceeds the configured bound (a shard that dies under every worker
//! assigned to it). Progress is observable via
//! [`crate::Service::progress`].

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdfs_core::engine::{run_on_device, InitialSource};
use tdfs_core::stack::StackFactory;
use tdfs_core::{
    match_plan_on_edges, CancelFlag, CollectSink, EngineError, MatchSink, MatcherConfig,
    MemoryBudget, RunResult, RunStats, Strategy,
};
use tdfs_gpu::device::Device;
use tdfs_gpu::lease::{AckOutcome, Lease, LeaseStats, LeaseTable};
use tdfs_gpu::Clock;
use tdfs_graph::GraphView;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;

use crate::snapshot::{self, QuerySnapshot};

/// Durable-execution knobs, per service. Every query runs durably: it is
/// sharded over leased edge ranges, worker panics and stalls are
/// recovered instead of failing the query, and
/// [`crate::Service::snapshot`] / [`crate::Service::resume`] work.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Admitted edges per shard task, at most. Smaller shards mean finer
    /// recovery granularity and more lease traffic. A query with fewer
    /// than `num_warps × shard_edges` admitted edges gets smaller shards,
    /// one or more per shard worker, but none below four engine chunks
    /// (see `shard_target`).
    pub shard_edges: usize,
    /// Lease duration; a shard not acked within it is considered
    /// stalled and reclaimed. Reclaiming a *live* worker is safe (its
    /// ack is fenced, its run revoked) — the timeout trades wasted work
    /// against recovery latency, never correctness.
    pub lease_timeout: Duration,
    /// Watchdog period: reap/revoke/heartbeat cadence.
    pub watchdog_interval: Duration,
    /// Fail the query as [`EngineError::Wedged`] once any task's epoch
    /// exceeds this bound (it was reclaimed this many times without
    /// ever acking).
    pub max_task_epochs: u32,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            shard_edges: 512,
            lease_timeout: Duration::from_millis(500),
            watchdog_interval: Duration::from_millis(10),
            max_task_epochs: 16,
        }
    }
}

/// A contiguous range of the query's admitted initial-edge list —
/// the durable layer's task payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First edge index (inclusive).
    pub start: u32,
    /// One past the last edge index.
    pub end: u32,
}

impl Shard {
    fn len(self) -> u32 {
        self.end - self.start
    }

    /// Straggler decomposition: halve when possible. Public so the
    /// cluster coordinator reaps its remote ledger with the exact
    /// in-process policy.
    pub fn split(&self) -> Vec<Shard> {
        if self.len() > 1 {
            let mid = self.start + self.len() / 2;
            vec![
                Shard {
                    start: self.start,
                    end: mid,
                },
                Shard {
                    start: mid,
                    end: self.end,
                },
            ]
        } else {
            vec![*self]
        }
    }
}

/// Point-in-time progress of a durable query.
#[derive(Debug, Clone)]
pub struct QueryProgress {
    /// Service-assigned query id.
    pub query_id: u64,
    /// Unclaimed shard tasks.
    pub tasks_pending: usize,
    /// Shards under a live lease right now.
    pub tasks_outstanding: usize,
    /// Shards acked (published) so far, including before any resume.
    pub tasks_acked: u64,
    /// Matches published so far.
    pub matches: u64,
    /// Embeddings emitted to sinks so far.
    pub emitted: u64,
    /// Highest lease epoch any task reached (wedge indicator).
    pub max_epoch: u32,
    /// How many times this query has been resumed.
    pub resumes: u32,
    /// Lifetime lease counters of this query's ledger.
    pub leases: LeaseStats,
    /// Whether the query has finished.
    pub done: bool,
    /// Failure diagnostics attached by the watchdog (wedged queries).
    pub diagnostics: Option<String>,
}

/// Shared state of one durable query: the ledger plus everything a
/// snapshot or progress probe needs. Registered with the service when
/// the job starts and retained after completion (bounded; see
/// `DURABLE_RETAIN` in `service.rs`) so post-completion snapshots work.
pub struct DurableState {
    pub(crate) query_id: u64,
    pub(crate) graph_name: String,
    /// Catalog graph version the shards were carved against (shard
    /// ranges index that version's admitted-edge space).
    pub(crate) graph_version: u64,
    pub(crate) pattern: Pattern,
    /// Engine configuration as serialized (no cancel / time limit).
    pub(crate) config: MatcherConfig,
    pub(crate) edge_count: u64,
    pub(crate) ledger: LeaseTable<Shard>,
    /// Matches published by accepted acks (including resumed base).
    pub(crate) matches: AtomicU64,
    /// Embeddings emitted to sinks (including resumed base).
    pub(crate) emitted: AtomicU64,
    /// Accepted acks (including resumed base).
    pub(crate) tasks_acked: AtomicU64,
    pub(crate) resumes: u32,
    /// Engine stats merged over accepted shards.
    pub(crate) run_stats: Mutex<RunStats>,
    /// First fatal error (TimeLimit / Stack / Wedged) wins.
    pub(crate) error: Mutex<Option<EngineError>>,
    /// Cancel token of each live lease, keyed by task id — raised on
    /// reclaim (zombie revocation) and on query-level cancel.
    active: Mutex<HashMap<u64, CancelFlag>>,
    /// Set by the overload governor: shard workers park (lease nothing
    /// new) while the flag holds; in-flight shards are revoked so their
    /// arena pages come back. Cleared on resume with a ledger poke.
    pub(crate) suspended: AtomicBool,
    /// The query's scope of the service memory budget, when one is
    /// configured — the governor ranks in-flight queries by its
    /// `in_use_pages()` to pick a suspension victim.
    pub(crate) scope: Option<MemoryBudget>,
    pub(crate) done: AtomicBool,
    /// Human-readable diagnostics attached by the watchdog on failure.
    pub(crate) diagnostics: Mutex<Option<String>>,
    /// Serializes ack publication (ledger ack + counter adds) against
    /// snapshot capture, so a snapshot never sees a task acked with its
    /// matches not yet added — that image would resume to an undercount.
    publish: Mutex<()>,
}

impl DurableState {
    fn record_error(&self, e: EngineError) {
        self.error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_or_insert(e);
    }

    fn failed(&self) -> bool {
        self.error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some()
    }

    fn revoke(&self, task_id: u64) {
        if let Some(flag) = self
            .active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&task_id)
        {
            flag.cancel();
        }
    }

    pub(crate) fn revoke_all(&self) {
        for flag in self
            .active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            flag.cancel();
        }
    }

    /// Point-in-time progress.
    pub(crate) fn progress(&self) -> QueryProgress {
        QueryProgress {
            query_id: self.query_id,
            tasks_pending: self.ledger.pending_len(),
            tasks_outstanding: self.ledger.outstanding_len(),
            tasks_acked: self.tasks_acked.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
            emitted: self.emitted.load(Ordering::Relaxed),
            max_epoch: self.ledger.max_epoch(),
            resumes: self.resumes,
            leases: self.ledger.stats(),
            done: self.done.load(Ordering::Relaxed),
            diagnostics: self
                .diagnostics
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
        }
    }

    /// Serializes the recoverable state. Outstanding leases are demoted
    /// back to pending tasks in the image — taking a snapshot never
    /// disturbs the live run.
    pub(crate) fn to_snapshot(&self) -> Vec<u8> {
        let _publish = self
            .publish
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let cp = self.ledger.checkpoint();
        snapshot::encode(&QuerySnapshot {
            graph: self.graph_name.clone(),
            graph_version: self.graph_version,
            pattern: self.pattern.clone(),
            config: self.config.clone(),
            edge_count: self.edge_count,
            matches: self.matches.load(Ordering::Relaxed),
            emitted: self.emitted.load(Ordering::Relaxed),
            tasks_acked: self.tasks_acked.load(Ordering::Relaxed),
            resumes: self.resumes,
            next_task_id: cp.next_id,
            acked: cp.acked,
            pending: cp.pending,
        })
    }

    pub(crate) fn lease_stats(&self) -> LeaseStats {
        self.ledger.stats()
    }
}

/// Per-shard emission buffer: the engine emits position-indexed
/// matches into it; they are flushed to the real sinks only after the
/// fence pre-check, so a recovered shard's emissions are not duplicated
/// in the fault-free path.
struct ShardBuffer {
    rows: Mutex<Vec<Vec<u32>>>,
}

impl MatchSink for ShardBuffer {
    fn emit(&self, m: &[u32]) {
        self.rows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(m.to_vec());
    }
}

/// Everything a durable run needs from the job, borrowed for the scope
/// of the worker threads.
pub(crate) struct DurableJob<'a, V: GraphView> {
    pub graph: &'a V,
    pub plan: &'a QueryPlan,
    /// Base engine configuration (cancel token *not* attached — shards
    /// get private tokens).
    pub config: &'a MatcherConfig,
    /// The full admitted-edge list shards index into.
    pub edges: &'a [(u32, u32)],
    /// Query-level cancellation (client handle / collect limit).
    pub cancel: &'a CancelFlag,
    /// Absolute deadline, if any.
    pub deadline: Option<Instant>,
    /// Bounded match collector (from `collect_limit`).
    pub collector: Option<&'a CollectSink>,
    /// Client streaming sink (pattern-vertex indexing).
    pub client: Option<&'a dyn MatchSink>,
}

/// Builds the shared state for a fresh durable query, sharding the
/// admitted edge list.
///
/// Shard boundaries equalize *estimated work*, not edge count: a walk
/// rooted at a hub edge is far heavier than one rooted at the fringe,
/// and on scale-free graphs equal-count shards leave one worker
/// grinding a hub shard long after the rest drained. Endpoint degree
/// sum is the first-order work estimate; the shard count still follows
/// `shard_edges` so recovery granularity is unchanged on average.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fresh_state<V: GraphView>(
    query_id: u64,
    graph_name: String,
    graph_version: u64,
    pattern: Pattern,
    config: MatcherConfig,
    graph: &V,
    edges: &[(u32, u32)],
    dcfg: &DurableConfig,
    scope: Option<MemoryBudget>,
) -> Arc<DurableState> {
    let ledger = LeaseTable::new(dcfg.lease_timeout);
    let edge_count = edges.len() as u64;
    let target = shard_target(
        edges.len(),
        shard_workers(&config),
        config.chunk_size,
        dcfg.shard_edges,
    );
    for shard in shard_cuts(graph, edges, target) {
        ledger.submit(shard);
    }
    Arc::new(state_with(
        query_id,
        graph_name,
        graph_version,
        pattern,
        config,
        edge_count,
        ledger,
        0,
        0,
        0,
        0,
        scope,
    ))
}

/// Shard workers a query runs: one per warp of its configuration. They
/// race on the lease table, and each runs its shards single-warp.
fn shard_workers(config: &MatcherConfig) -> usize {
    config.num_warps.max(1)
}

/// Admitted edges per shard for a query of `n` admitted edges run by
/// `workers` shard workers: `shard_edges`, lowered so that every worker
/// gets a shard, but never below four engine chunks of `chunk_size`
/// edges, so a query of a few seeds stays one shard instead of paying a
/// second lease and device for a handful of walks.
fn shard_target(n: usize, workers: usize, chunk_size: usize, shard_edges: usize) -> usize {
    shard_edges.min(n.div_ceil(workers).max(4 * chunk_size))
}

/// Cuts an admitted edge list into degree-weighted [`Shard`]s of
/// roughly `shard_edges` edges each.
///
/// Shard boundaries equalize *estimated work*, not edge count: a walk
/// rooted at a hub edge is far heavier than one rooted at the fringe.
/// Endpoint degree sum is the first-order work estimate; the shard
/// count still follows `shard_edges`, so recovery granularity is
/// unchanged on average. This is the single cutting policy for both the
/// in-process durable path (`fresh_state`) and the cluster
/// coordinator partitioning a query across nodes — identical cuts mean
/// a shipped snapshot's shard ranges mean the same thing everywhere.
pub fn shard_cuts<V: GraphView>(graph: &V, edges: &[(u32, u32)], shard_edges: usize) -> Vec<Shard> {
    let shards = (edges.len() as u64).div_ceil(shard_edges.max(1) as u64);
    let mut out = Vec::new();
    if shards == 0 {
        return out;
    }
    let weight = |&(u, v): &(u32, u32)| (graph.degree(u) + graph.degree(v)) as u64 + 1;
    let total: u64 = edges.iter().map(weight).sum();
    let mut acc = 0u64;
    let mut cut = 0u64;
    let mut start = 0usize;
    for (i, e) in edges.iter().enumerate() {
        acc += weight(e);
        // Cut once this shard holds its proportional share of the
        // total weight (saturating at one edge per shard).
        if acc.saturating_mul(shards) >= (cut + 1) * total && i + 1 > start {
            out.push(Shard {
                start: start as u32,
                end: (i + 1) as u32,
            });
            start = i + 1;
            cut += 1;
        }
    }
    if start < edges.len() {
        out.push(Shard {
            start: start as u32,
            end: edges.len() as u32,
        });
    }
    out
}

/// Rebuilds the shared state from a decoded snapshot.
pub(crate) fn resumed_state(
    query_id: u64,
    snap: &QuerySnapshot,
    dcfg: &DurableConfig,
    scope: Option<MemoryBudget>,
) -> Arc<DurableState> {
    let ledger = LeaseTable::new(dcfg.lease_timeout);
    for &(id, epoch, shard) in &snap.pending {
        ledger.restore(id, epoch, shard);
    }
    for &id in &snap.acked {
        ledger.restore_acked(id);
    }
    Arc::new(state_with(
        query_id,
        snap.graph.clone(),
        snap.graph_version,
        snap.pattern.clone(),
        snap.config.clone(),
        snap.edge_count,
        ledger,
        snap.matches,
        snap.emitted,
        snap.tasks_acked,
        snap.resumes + 1,
        scope,
    ))
}

#[allow(clippy::too_many_arguments)]
fn state_with(
    query_id: u64,
    graph_name: String,
    graph_version: u64,
    pattern: Pattern,
    config: MatcherConfig,
    edge_count: u64,
    ledger: LeaseTable<Shard>,
    matches: u64,
    emitted: u64,
    tasks_acked: u64,
    resumes: u32,
    scope: Option<MemoryBudget>,
) -> DurableState {
    DurableState {
        query_id,
        graph_name,
        graph_version,
        pattern,
        config,
        edge_count,
        ledger,
        matches: AtomicU64::new(matches),
        emitted: AtomicU64::new(emitted),
        tasks_acked: AtomicU64::new(tasks_acked),
        resumes,
        run_stats: Mutex::new(RunStats::default()),
        error: Mutex::new(None),
        active: Mutex::new(HashMap::new()),
        suspended: AtomicBool::new(false),
        scope,
        done: AtomicBool::new(false),
        diagnostics: Mutex::new(None),
        publish: Mutex::new(()),
    }
}

/// Runs a durable query to completion: spawns the shard workers, drives
/// the watchdog on the calling thread, and returns the assembled
/// result. The caller — a service worker for a client query, the
/// applying thread for a maintenance pass — owns the bookkeeping and
/// what happens to the result.
pub(crate) fn execute<V: GraphView>(
    state: &Arc<DurableState>,
    job: &DurableJob<'_, V>,
    dcfg: &DurableConfig,
    start: Instant,
) -> Result<RunResult, EngineError> {
    let workers = shard_workers(job.config);
    // A worker's resident task queue is sized for the query's full
    // shard: a shard seeds at most that many walks, so the full-query
    // queue is outsized for it, and queue-full still degrades to
    // in-place processing.
    let full_shard = shard_target(
        job.edges.len(),
        workers,
        job.config.chunk_size,
        dcfg.shard_edges,
    );
    let queue = job.config.queue_capacity.min(shard_queue(full_shard));
    let live = AtomicUsize::new(workers);

    std::thread::scope(|scope| {
        for wid in 0..workers {
            let state = Arc::clone(state);
            let live = &live;
            scope.spawn(move || {
                // Decrement through a drop guard: the watchdog's exit
                // condition must hold even if a shard worker unwinds
                // through a path no catch_unwind covers. The poke wakes
                // the watchdog out of its ledger wait immediately.
                struct LiveGuard<'a>(&'a AtomicUsize, &'a DurableState);
                impl Drop for LiveGuard<'_> {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::Release);
                        self.1.ledger.poke();
                    }
                }
                let _live = LiveGuard(live, &state);
                shard_worker(&state, job, wid as u32, queue);
            });
        }
        watchdog(state, job, dcfg, &live);
    });

    if let Some(e) = *state
        .error
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }
    let mut stats = state
        .run_stats
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    stats.cancelled = job.cancel.is_cancelled();
    Ok(RunResult {
        matches: state.matches.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        stats,
    })
}

/// The task-queue capacity the durable layer gives a shard of `edges`
/// admitted edges.
fn shard_queue(edges: usize) -> usize {
    (edges * 4).max(1024)
}

/// A shard worker's resident one-warp device: `Q_task` with its chunk
/// cursor, and the stack arena, built once and reused by every T-DFS
/// shard the worker runs, as the paper's warps reuse the memory
/// allocated for them up front. Each run rewinds the cursor and restarts the queue
/// counters and arena peak (`run_on_device`), so its stats are
/// those of a fresh device.
struct ShardDevice {
    device: Device,
    stacks: StackFactory,
}

impl ShardDevice {
    /// `queue` is the task-queue capacity, sized for the query's full
    /// shard.
    fn new<V: GraphView>(job: &DurableJob<'_, V>, queue: usize) -> Self {
        let cfg = job.config;
        Self {
            device: Device::in_group(0, 1, cfg.chunk_size, queue),
            stacks: StackFactory::for_config(cfg, job.graph.max_degree()),
        }
    }
}

fn shard_worker<V: GraphView>(
    state: &Arc<DurableState>,
    job: &DurableJob<'_, V>,
    wid: u32,
    queue: usize,
) {
    // Built at the first T-DFS lease. Dropped after a shard whose run did
    // not end cleanly, which can leave tasks in its queue, and while
    // parked.
    let mut device: Option<ShardDevice> = None;
    loop {
        if state.failed() || job.cancel.is_cancelled() {
            return;
        }
        if let Some(d) = job.deadline {
            if Instant::now() > d {
                state.record_error(EngineError::TimeLimit);
                return;
            }
        }
        // Suspended by the overload governor: park without leasing, and
        // without a device, so the paused query holds no arena, but keep
        // honoring cancel / deadline / failure above. Resume pokes the
        // condvar.
        if state.suspended.load(Ordering::Acquire) {
            device = None;
            state.ledger.wait_change(Duration::from_millis(1), |_| {
                !state.suspended.load(Ordering::Acquire)
            });
            continue;
        }
        let Some(lease) = state.ledger.lease(wid) else {
            if state.ledger.drained() {
                return;
            }
            // Wake for a requeued shard or the last ack.
            state.ledger.wait_change(Duration::from_millis(1), |b| {
                b.pending > 0 || b.outstanding == 0
            });
            continue;
        };
        if matches!(job.config.strategy, Strategy::Timeout { .. }) && device.is_none() {
            device = Some(ShardDevice::new(job, queue));
        }
        if !run_shard(state, job, &lease, device.as_ref()) {
            device = None;
        }
    }
}

/// Runs one leased shard, on `device` when given and on a fresh device
/// otherwise, and publishes or requeues it. Returns whether the engine
/// run ended cleanly (no panic, error or cancel), so its device is
/// reusable.
fn run_shard<V: GraphView>(
    state: &Arc<DurableState>,
    job: &DurableJob<'_, V>,
    lease: &Lease<Shard>,
    device: Option<&ShardDevice>,
) -> bool {
    // Private cancel token: raised by the watchdog on reclaim (zombie
    // revocation) or when the query-level token / a fatal error fires.
    let flag = CancelFlag::new();
    state
        .active
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(lease.task_id, flag.clone());

    let mut cfg = job.config.clone().with_cancel(flag).with_warps(1);
    if let Some(d) = job.deadline {
        cfg.time_limit = Some(d.saturating_duration_since(Instant::now()));
    }
    // A shard seeds at most `shard.len()` walks, so the full-query task
    // queue is outsized for it; a smaller ring keeps per-shard setup
    // cheap, and queue-full still degrades to in-place processing.
    cfg.queue_capacity = cfg
        .queue_capacity
        .min(shard_queue(lease.task.len() as usize));
    let shard = lease.task;
    let edges = job.edges[shard.start as usize..shard.end as usize].to_vec();
    let buffer = (job.collector.is_some() || job.client.is_some()).then(|| ShardBuffer {
        rows: Mutex::new(Vec::new()),
    });
    let sink_opt = buffer.as_ref().map(|b| b as &dyn MatchSink);

    // The acceptance-test kill point, inside the unwind boundary so a
    // scripted panic models a worker dying mid-shard (and a stall a
    // straggler) without unwinding the shard-worker thread itself.
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        crate::chaos_point!("service.worker.run");
        match device {
            Some(d) => run_on_device(
                job.graph,
                job.plan,
                &cfg,
                &d.device,
                &d.stacks,
                Clock::real(),
                sink_opt,
                InitialSource::Edges(edges),
            ),
            None => match_plan_on_edges(job.graph, job.plan, &cfg, edges, sink_opt),
        }
    }));

    state
        .active
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&lease.task_id);

    let clean = matches!(&run, Ok(Ok(r)) if !r.stats.cancelled);
    match run {
        Err(_panic) => {
            // Dead worker (the thread survived, the shard attempt did
            // not): reclaim the lease now, splitting the shard so a
            // poisonous range narrows with every recovery.
            state.ledger.fail(lease, |s| s.split());
        }
        Ok(Err(e)) => {
            // Engine failure (stack / time limit) fails the query; put
            // the shard back so a snapshot still sees it as unfinished.
            state.ledger.release(lease);
            state.record_error(e);
        }
        Ok(Ok(r)) => {
            if r.stats.cancelled {
                // Query-level cancel or zombie revocation interrupted
                // the shard: its partial count must never publish.
                state.ledger.release(lease);
                return clean;
            }
            // The zombie window between completing the work and
            // publishing it — where a stalled worker races its reaper.
            crate::chaos_point!("service.durable.ack");
            // Flush emissions before the ack (fence pre-check keeps the
            // fault-free path exactly-once; see module docs). A client
            // sink that panics is a recovered fault like any other —
            // the lease fails, the shard retries, and a deterministic
            // panicker wedges the query instead of killing workers.
            if let Some(buffer) = &buffer {
                let flushed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if state.ledger.is_current(lease) {
                        flush_emissions(state, job, buffer);
                    }
                }));
                if flushed.is_err() {
                    state.ledger.fail(lease, |s| s.split());
                    return clean;
                }
            }
            let publish = state
                .publish
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if state.ledger.ack(lease) == AckOutcome::Accepted {
                state.matches.fetch_add(r.matches, Ordering::Relaxed);
                state.tasks_acked.fetch_add(1, Ordering::Relaxed);
                state
                    .run_stats
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .merge(&r.stats);
            }
            drop(publish);
            // A fenced ack discards the count: the reclaimed copy of
            // this shard publishes instead.
        }
    }
    clean
}

fn flush_emissions<V: GraphView>(
    state: &DurableState,
    job: &DurableJob<'_, V>,
    buffer: &ShardBuffer,
) {
    let rows = std::mem::take(
        &mut *buffer
            .rows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    for m in &rows {
        if let Some(c) = job.collector {
            c.emit(m);
        }
        if let Some(client) = job.client {
            client.emit(&job.plan.by_vertex(m));
        }
    }
    state
        .emitted
        .fetch_add(rows.len() as u64, Ordering::Relaxed);
}

/// The per-query watchdog, run on the calling thread while the shard
/// workers execute. Each tick: propagate cancellation, reap
/// expired leases (straggler decomposition + zombie revocation), and
/// check the wedge bound.
fn watchdog<V: GraphView>(
    state: &Arc<DurableState>,
    job: &DurableJob<'_, V>,
    dcfg: &DurableConfig,
    live: &AtomicUsize,
) {
    // Park on the ledger's condvar rather than sleep-polling: any
    // grant/ack/requeue wakes the watchdog, and an exiting worker pokes
    // it, so query completion is never gated on the reap cadence and an
    // idle watchdog costs no timeslices (which matters when shard
    // workers and watchdog share cores).
    let tick = dcfg.watchdog_interval.min(Duration::from_millis(50));
    while live.load(Ordering::Acquire) > 0 {
        // The last worker's exit is checked under the ledger lock, so its
        // poke cannot land between this loop's check and the park.
        state
            .ledger
            .wait_change(tick, |_| live.load(Ordering::Acquire) == 0);
        if job.cancel.is_cancelled() || state.failed() {
            state.revoke_all();
            continue;
        }
        for task_id in state.ledger.reap(Instant::now(), |s| s.split()) {
            state.revoke(task_id);
        }
        let max_epoch = state.ledger.max_epoch();
        if max_epoch > dcfg.max_task_epochs {
            *state
                .diagnostics
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(format!(
                "wedged: a shard reached lease epoch {max_epoch} (limit {}); {} pending, {} \
                 outstanding, {} acked",
                dcfg.max_task_epochs,
                state.ledger.pending_len(),
                state.ledger.outstanding_len(),
                state.tasks_acked.load(Ordering::Relaxed),
            ));
            state.record_error(EngineError::Wedged);
            state.revoke_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh 2-warp query runs 2 shard workers, and its shards follow
    /// the cap rule: `shard_edges` (512), lowered so both workers get a
    /// shard, but never below four 8-edge chunks.
    #[test]
    fn fresh_state_gives_each_worker_a_shard_down_to_four_chunks() {
        // A ring: every vertex has degree 2, so the degree-weighted cuts
        // fall at even edge counts.
        let n = 5000u32;
        let mut b = tdfs_graph::GraphBuilder::new();
        for v in 0..n {
            b.push_edge(v, (v + 1) % n);
        }
        let g = b.build();
        let ring: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let dcfg = DurableConfig::default();
        let config = MatcherConfig::tdfs().with_warps(2);
        for (edges, shards) in [(8, 1), (32, 1), (33, 2), (80, 2), (5000, 10)] {
            let state = fresh_state(
                0,
                "ring".into(),
                0,
                Pattern::clique(3),
                config.clone(),
                &g,
                &ring[..edges],
                &dcfg,
                None,
            );
            assert_eq!(state.ledger.pending_len(), shards, "{edges} edges");
        }
    }
}
