//! The warp backtracking engine (paper Algorithms 2 & 4).
//!
//! Each warp loops: dequeue a task from `Q_task` if one exists (the
//! queue-first idle policy that keeps `|Q_task|` small), otherwise claim
//! the next chunk of initial edge tasks; then run iterative DFS with its
//! private stack. Under the timeout strategy, once a task has run longer
//! than `τ`, every further descent at matched depth ≤ 3 is converted into
//! a `⟨v1,v2,v3⟩` task pushed to `Q_task` (and remaining chunk edges into
//! `⟨v1,v2,−2⟩` tasks) instead of being executed in place — Fig. 5. If
//! `Q_task` fills up, `t0` is reset and in-place execution resumes
//! (Alg. 4 lines 18–20).
//!
//! The same loop also serves the EGSM-style new-kernel strategy: instead
//! of the timeout/queue path, a fanout larger than the threshold
//! dispatches a child "kernel" (fresh worker threads with newly allocated
//! stacks) over the oversized level.
//!
//! The module also holds what all five engines share: [`InitialSource`]
//! (where initial tasks come from, and how their edges are counted), the
//! edge filter, and `Run` — the inputs, first-error cell, deadline and
//! warp launcher that every warp of a run reads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

use tdfs_gpu::device::Device;
use tdfs_gpu::queue::{Task, PAD};
use tdfs_gpu::Clock;
use tdfs_graph::GraphView;
use tdfs_mem::{ArrayLevel, LevelStore, PagedLevel, StackError};
use tdfs_query::plan::{LevelPlan, QueryPlan};

use crate::candidates::{accept, count_leaf, fill_level, Workspace};
use crate::config::{MatcherConfig, Strategy};
use crate::sink::MatchSink;
use crate::stack::{FactoryLevel, StackFactory, WarpStack};
use crate::stats::{RunResult, RunStats};

/// Engine failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// Stack exhaustion (paged arena or array overflow) — the paper's
    /// "ERR"/"OOM" outcomes.
    Stack(StackError),
    /// The configured time budget expired — the paper's "T" outcome
    /// (Fig. 11: "'T' means > 1000 s").
    TimeLimit,
    /// A worker thread executing the query panicked. Raised by the
    /// service layer when a panic escapes shard execution, where no
    /// lease recovers it. Inside an engine run a panicking warp's drop
    /// guard records it so the other warps stop, but the run itself
    /// still panics: the panic propagates.
    WorkerPanicked,
    /// The query made no progress despite repeated lease reclaims — a
    /// task kept being re-granted past the durable layer's epoch limit.
    /// Raised by the service watchdog, never by the engines.
    Wedged,
    /// The query was shed by an overload governor (memory pressure,
    /// sustained queue sojourn, or brownout). Raised by the service
    /// layer, never by the engines.
    Shed,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Stack(e) => write!(f, "engine stack failure: {e}"),
            EngineError::TimeLimit => write!(f, "time limit exceeded"),
            EngineError::WorkerPanicked => write!(f, "worker thread panicked during the query"),
            EngineError::Wedged => {
                write!(f, "query wedged: a task exceeded the lease epoch limit")
            }
            EngineError::Shed => write!(f, "query shed by the overload governor"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StackError> for EngineError {
    fn from(e: StackError) -> Self {
        EngineError::Stack(e)
    }
}

/// Locks `m`, recovering the data of a mutex that a panicking warp
/// poisoned. The one poison policy of every engine: the panic is already
/// the run's error (see [`PanicGuard`]) and the scope re-raises it, so
/// no result is ever built from data the panic interrupted.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A run's first-error cell, alone on its cache line. Half-steal warps
/// lock it on every step; sharing a line with the inputs every warp
/// reads made 2-warp half-steal runs about a fifth slower (youtube_s
/// P8 on a 2-core x86-64 host).
#[repr(align(64))]
struct ErrorCell(Mutex<Option<EngineError>>);

impl ErrorCell {
    fn lock(&self) -> MutexGuard<'_, Option<EngineError>> {
        lock(&self.0)
    }
}

/// Records [`EngineError::WorkerPanicked`] in a run's error cell when the
/// warp holding it unwinds. The other warps then see a failed run and
/// leave their termination wait, which counts on every warp turning
/// idle, and the enclosing thread scope re-raises the panic once they
/// have exited.
struct PanicGuard<'a>(&'a ErrorCell);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().get_or_insert(EngineError::WorkerPanicked);
        }
    }
}

/// Where a run's initial tasks come from. [`InitialSource::choose`]
/// makes this choice once for all five engines, and
/// `InitialSource::account` counts its edges by one rule.
pub enum InitialSource {
    /// The raw arc stream, edge-filtered in-warp (T-DFS default).
    Arcs,
    /// A pre-admitted edge list from the caller (a durable shard, or
    /// seed edges), which no warp re-filters.
    Edges(Vec<(u32, u32)>),
    /// The host filter's admitted edges (STMatch's preprocessing step).
    HostFiltered {
        /// [`host_filter_edges`]' list.
        edges: Vec<(u32, u32)>,
        /// How long the filter took.
        took: Duration,
    },
    /// Materialized partial matches of a fixed prefix length — the
    /// BFS→DFS switch-over frontier of the hybrid engine. Partials were
    /// produced under full plan semantics, so no re-filtering happens.
    Partials {
        /// Flat position-indexed prefixes, `stride` entries each.
        data: Vec<u32>,
        /// Matched prefix length (≥ 2).
        stride: usize,
    },
}

impl InitialSource {
    /// The source a run under `cfg` starts from: the caller's `edges`
    /// when given, else the host filter's list when
    /// `cfg.host_edge_filter` is set, else the arc stream.
    pub fn choose<V: GraphView>(
        g: &V,
        plan: &QueryPlan,
        cfg: &MatcherConfig,
        edges: Option<Vec<(u32, u32)>>,
    ) -> Self {
        match edges {
            Some(edges) => Self::Edges(edges),
            None if cfg.host_edge_filter => {
                let t = Instant::now();
                let edges = host_filter_edges(g, plan);
                Self::HostFiltered {
                    edges,
                    took: t.elapsed(),
                }
            }
            None => Self::Arcs,
        }
    }

    /// Number of initial tasks.
    pub(crate) fn len<V: GraphView>(&self, g: &V) -> usize {
        match self {
            Self::Arcs => g.num_arcs(),
            Self::Edges(edges) | Self::HostFiltered { edges, .. } => edges.len(),
            Self::Partials { data, stride } => data.len() / stride,
        }
    }

    /// Loads task `i`'s prefix into `m` and returns its length, or
    /// `None` when the edge filter rejects arc `i` (counted in `stats`).
    pub(crate) fn seed<V: GraphView>(
        &self,
        g: &V,
        plan: &QueryPlan,
        i: usize,
        m: &mut [u32],
        stats: &mut RunStats,
    ) -> Option<usize> {
        let (v1, v2) = match self {
            Self::Arcs => Some(g.arc(i)).filter(|&arc| admit(g, plan, arc, stats))?,
            Self::Edges(edges) | Self::HostFiltered { edges, .. } => edges[i],
            Self::Partials { data, stride } => {
                m[..*stride].copy_from_slice(&data[i * stride..(i + 1) * stride]);
                return Some(*stride);
            }
        };
        m[0] = v1;
        m[1] = v2;
        Some(2)
    }

    /// Every initial task as one flat frontier, with its stride — the
    /// first level of the BFS engines. Arcs the edge filter rejects are
    /// counted in `stats`.
    pub(crate) fn frontier<V: GraphView>(
        &self,
        g: &V,
        plan: &QueryPlan,
        stats: &mut RunStats,
    ) -> (Vec<u32>, usize) {
        let frontier = match self {
            Self::Arcs => g
                .arcs()
                .filter(|&arc| admit(g, plan, arc, stats))
                .flat_map(|(v1, v2)| [v1, v2])
                .collect(),
            Self::Edges(edges) | Self::HostFiltered { edges, .. } => {
                edges.iter().flat_map(|&(v1, v2)| [v1, v2]).collect()
            }
            Self::Partials { data, stride } => return (data.clone(), *stride),
        };
        (frontier, 2)
    }

    /// The one edge-counting rule, applied to every finished run. The
    /// arc stream's counters are what the in-warp filter counted as it
    /// ran. A list is all admitted: a caller's list filters none, and
    /// the host filter's list filtered the arcs it left out, in time
    /// that counts as preprocessing inside `elapsed`.
    pub(crate) fn account<V: GraphView>(&self, g: &V, result: &mut RunResult) {
        let stats = &mut result.stats;
        match self {
            Self::Arcs | Self::Partials { .. } => {}
            Self::Edges(edges) => stats.edges_admitted += edges.len() as u64,
            Self::HostFiltered { edges, took } => {
                stats.edges_admitted += edges.len() as u64;
                stats.edges_filtered += (g.num_arcs() - edges.len()) as u64;
                stats.host_preprocess += *took;
                result.elapsed += *took;
            }
        }
    }
}

/// The in-warp edge filter on one arc, counted in `stats`.
fn admit<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    (v1, v2): (u32, u32),
    stats: &mut RunStats,
) -> bool {
    let admitted = edge_admitted(g, plan, v1, v2);
    if admitted {
        stats.edges_admitted += 1;
    } else {
        stats.edges_filtered += 1;
    }
    admitted
}

/// The four edge-filter conditions of §III ("Algorithm Optimizations"),
/// plus the position-0/1 symmetry constraint when one exists. The checks
/// that read no graph run first, then `v1`'s, then `v2`'s.
#[inline]
pub fn edge_admitted<V: GraphView>(g: &V, plan: &QueryPlan, v1: u32, v2: u32) -> bool {
    pair_admitted(plan, v1, v2)
        && vertex_admitted(g, plan, 0, v1)
        && vertex_admitted(g, plan, 1, v2)
}

/// Distinct endpoints in the order the position-0/1 symmetry constraint
/// asks for, if there is one.
#[inline]
fn pair_admitted(plan: &QueryPlan, v1: u32, v2: u32) -> bool {
    let l1 = &plan.levels[1];
    v1 != v2
        && l1.greater_than.iter().all(|&j| {
            debug_assert_eq!(j, 0);
            v1 < v2
        })
        && l1.less_than.iter().all(|&j| {
            debug_assert_eq!(j, 0);
            v2 < v1
        })
}

/// Plan level `level`'s degree and label test on `v`.
#[inline]
fn vertex_admitted<V: GraphView>(g: &V, plan: &QueryPlan, level: usize, v: u32) -> bool {
    let l = &plan.levels[level];
    g.degree(v) >= l.degree && g.label(v) == l.label
}

/// Host-side single-threaded edge filtering (STMatch's preprocessing
/// step, "it can become a bottleneck on big graphs", §IV-B): the
/// admitted arcs in row-major order, the same list [`edge_admitted`]
/// gives arc by arc.
///
/// One pass over the vertices settles the plan's level-0 and level-1
/// degree and label tests, so the arc loop reads one byte per endpoint.
/// A row whose source fails level 0 is skipped whole, and the
/// position-0/1 symmetry constraint, when there is one, cuts each sorted
/// row at `v1` (rows hold no self-loops, so the cut also drops
/// `v2 == v1`).
pub fn host_filter_edges<V: GraphView>(g: &V, plan: &QueryPlan) -> Vec<(u32, u32)> {
    const LEVEL0: u8 = 1;
    const LEVEL1: u8 = 2;
    let (l0, l1) = (&plan.levels[0], &plan.levels[1]);
    let admits: Vec<u8> = (0..g.num_vertices() as u32)
        .map(|v| {
            let (degree, label) = (g.degree(v), g.label(v));
            let admits_at = |l: &LevelPlan| u8::from(degree >= l.degree && label == l.label);
            (admits_at(l0) * LEVEL0) | (admits_at(l1) * LEVEL1)
        })
        .collect();
    let (above, below) = (!l1.greater_than.is_empty(), !l1.less_than.is_empty());
    let mut edges = Vec::new();
    for (v1, &admit) in (0u32..).zip(&admits) {
        if admit & LEVEL0 == 0 {
            continue;
        }
        let row = g.neighbors(v1);
        let lo = if above {
            row.partition_point(|&v2| v2 <= v1)
        } else {
            0
        };
        let hi = if below {
            row.partition_point(|&v2| v2 < v1)
        } else {
            row.len()
        };
        edges.extend(
            row[lo..hi.max(lo)]
                .iter()
                .filter(|&&v2| admits[v2 as usize] & LEVEL1 != 0)
                .map(|&v2| (v1, v2)),
        );
    }
    edges
}

/// What every warp of a run reads, whichever engine runs it: the
/// inputs, the initial-task source, the match total and the first-error
/// cell, with the deadline and stop checks and the warp launcher.
pub(crate) struct Run<'a, V: GraphView> {
    pub(crate) g: &'a V,
    pub(crate) plan: &'a QueryPlan,
    pub(crate) cfg: &'a MatcherConfig,
    pub(crate) device: &'a Device,
    pub(crate) source: InitialSource,
    /// Optional match consumer shared by all warps.
    pub(crate) sink: Option<&'a dyn MatchSink>,
    /// Warps waiting for work; the run ends once all of them are.
    pub(crate) idle: AtomicUsize,
    pub(crate) matches: AtomicU64,
    error: ErrorCell,
    start: Instant,
    /// Wall-clock budget expiry.
    deadline: Option<Instant>,
}

impl<'a, V: GraphView> Run<'a, V> {
    pub(crate) fn new(
        g: &'a V,
        plan: &'a QueryPlan,
        cfg: &'a MatcherConfig,
        device: &'a Device,
        source: InitialSource,
        sink: Option<&'a dyn MatchSink>,
    ) -> Self {
        let start = Instant::now();
        Self {
            g,
            plan,
            cfg,
            device,
            source,
            sink,
            idle: AtomicUsize::new(0),
            matches: AtomicU64::new(0),
            error: ErrorCell(Mutex::new(None)),
            start,
            deadline: cfg.time_limit.map(|l| start + l),
        }
    }

    /// Keeps the run's first error.
    pub(crate) fn record_error(&self, e: EngineError) {
        self.error.lock().get_or_insert(e);
    }

    pub(crate) fn failed(&self) -> bool {
        self.error.lock().is_some()
    }

    /// Deadline check; records `TimeLimit` and returns `true` if expired.
    pub(crate) fn over_deadline(&self) -> bool {
        match self.deadline {
            Some(d) if Instant::now() > d => {
                self.record_error(EngineError::TimeLimit);
                true
            }
            _ => false,
        }
    }

    /// External-cancellation check (no error is recorded: a cancelled
    /// run completes with `Ok` and partial counts).
    #[inline]
    pub(crate) fn cancelled(&self) -> bool {
        self.cfg.cancel_requested()
    }

    /// Emits a completed match to the sink, if any.
    #[inline]
    pub(crate) fn emit(&self, m: &[u32]) {
        if let Some(sink) = self.sink {
            sink.emit(m);
        }
    }

    /// Runs `warp(w, scope)` for every warp `w` of the run and returns
    /// their outputs in warp order. With several warps each gets a thread
    /// and a [`PanicGuard`]; a single warp runs on the calling thread, so
    /// a fine-grained caller (the durable layer runs one warp per shard)
    /// pays no spawn. The scope outlives the warps, so they can spawn
    /// child warps into it.
    pub(crate) fn launch<'env, T, F>(&'env self, warp: &'env F) -> Vec<T>
    where
        T: Send + 'env,
        F: for<'scope> Fn(usize, &'scope Scope<'scope, 'env>) -> T + Sync,
    {
        std::thread::scope(|scope| {
            if self.cfg.num_warps == 1 {
                return vec![warp(0, scope)];
            }
            let handles: Vec<_> = (0..self.cfg.num_warps)
                .map(|w| {
                    scope.spawn(move || {
                        let _guard = PanicGuard(&self.error);
                        warp(w, scope)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warp panicked"))
                .collect()
        })
    }

    /// Ends the run: its first error, or its result, with every warp's
    /// share folded into `stats` (merged lane-op counters, the busiest
    /// warp's work as the makespan) and the source's edges counted.
    pub(crate) fn finish(
        self,
        warps: &[RunStats],
        mut stats: RunStats,
    ) -> Result<RunResult, EngineError> {
        if let Some(e) = self
            .error
            .0
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e);
        }
        for w in warps {
            stats.merge(w);
        }
        stats.cancelled = self.cfg.cancel_requested();
        let mut result = RunResult {
            matches: self.matches.into_inner(),
            elapsed: self.start.elapsed(),
            stats,
        };
        self.source.account(self.g, &mut result);
        Ok(result)
    }
}

/// A warp's share of its run's stats: `counted` holds what it counted
/// as it ran (the arcs its edge filter admitted and rejected); added
/// here are its lane-op counters, its work units as both makespan and
/// total, and its stack levels' counters.
pub(crate) fn warp_share<L: LevelStore>(
    mut counted: RunStats,
    ws: &Workspace,
    levels: &[L],
) -> RunStats {
    let units = ws.warp.stats.work_units();
    counted.warp = ws.warp.stats.clone();
    counted.warp_makespan = units;
    counted.warp_work_total = units;
    counted.candidates_truncated = levels.iter().map(LevelStore::truncated).sum();
    counted.page_faults = levels.iter().map(LevelStore::page_faults).sum();
    counted.pages_spilled = levels.iter().map(LevelStore::spill_events).sum();
    counted.candidates_spilled = levels.iter().map(LevelStore::spilled).sum();
    counted
}

/// The timeout / new-kernel engine's run state: the shared [`Run`] plus
/// the strategy's hooks and counters.
struct SharedRun<'a, V: GraphView> {
    run: Run<'a, V>,
    stacks: &'a StackFactory,
    clock: Clock,
    tau_ns: Option<u64>,
    fanout_threshold: Option<usize>,
    timeouts: AtomicU64,
    kernels: AtomicU64,
    /// Work units of child-kernel warps (EGSM model), as stats shares.
    children: Mutex<RunStats>,
    /// Live child-kernel warps (bounded: a kernel storm would otherwise
    /// exhaust OS threads; the cap itself models the paper's "many
    /// active kernels … add burden to warp scheduling").
    active_children: AtomicUsize,
}

/// Runs the timeout / no-steal / new-kernel strategies on one device
/// over `source`. `HalfSteal` and `Bfs` have engines of their own.
///
/// The run starts by rewinding `device` and restarting the arena's peak,
/// so a device reused after a clean run reports exactly what a fresh one
/// would (durable shard workers run every shard they lease on one
/// resident device and stack arena). `stacks` must be resolved for a
/// maximum degree of at least `g.max_degree()`, which sizes array
/// stacks.
#[allow(clippy::too_many_arguments)]
pub fn run_on_device<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    stacks: &StackFactory,
    clock: Clock,
    sink: Option<&dyn MatchSink>,
    source: InitialSource,
) -> Result<RunResult, EngineError> {
    device.reset();
    if let Some(arena) = stacks.arena() {
        debug_assert_eq!(arena.pages_in_use(), 0, "arena pages held across runs");
        arena.restart_peak();
    }
    let (tau_ns, fanout_threshold) = match cfg.strategy {
        Strategy::Timeout { tau } => (tau.map(|t| t.as_nanos() as u64), None),
        Strategy::NewKernel { fanout_threshold } => (None, Some(fanout_threshold)),
        ref s => panic!("run_on_device cannot execute strategy {s:?}"),
    };
    // Queue decomposition encodes ≤ 3-vertex prefixes; a deeper partial
    // prefix cannot be decomposed, so the timeout hook is disabled.
    let tau_ns = match &source {
        InitialSource::Partials { stride, .. } if *stride > 2 => None,
        _ => tau_ns,
    };
    let shared = SharedRun {
        run: Run::new(g, plan, cfg, device, source, sink),
        stacks,
        clock,
        tau_ns,
        fanout_threshold,
        timeouts: AtomicU64::new(0),
        kernels: AtomicU64::new(0),
        children: Mutex::new(RunStats::default()),
        active_children: AtomicUsize::new(0),
    };
    let k = plan.k();
    let warps = shared.run.launch(&|_, scope| match stacks {
        StackFactory::Array { .. } => warp_main(&shared, stacks.stack::<ArrayLevel>(k), scope),
        StackFactory::Paged { .. } => warp_main(&shared, stacks.stack::<PagedLevel>(k), scope),
    });

    let SharedRun {
        run,
        timeouts,
        kernels,
        children,
        ..
    } = shared;
    let mut stats = children
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    stats.tasks_enqueued = device.queue.total_enqueued();
    stats.tasks_dequeued = device.queue.total_dequeued();
    stats.queue_rejections = device.queue.total_rejected_full();
    stats.queue_peak = device.queue.peak_tasks();
    stats.timeouts_fired = timeouts.into_inner();
    stats.kernels_launched = kernels.into_inner();
    stats.queue_stall_yields = device.queue.total_stall_yields();
    stats.stack_bytes_peak = match stacks {
        StackFactory::Array { capacity, .. } => cfg.num_warps * k * capacity * 4,
        StackFactory::Paged {
            arena, table_len, ..
        } => arena.peak_bytes() + cfg.num_warps * k * table_len * 4,
    };
    // Every warp stack has been dropped (the scope joined), so any page
    // still checked out of the arena has leaked.
    stats.pages_leaked = stacks.arena().map_or(0, |a| a.pages_in_use() as u64);
    run.finish(&warps, stats)
}

/// One unit of acquired work.
enum Work {
    FromQueue(Task),
    Chunk(std::ops::Range<usize>),
}

fn warp_main<'scope, 'env, V: GraphView, L: FactoryLevel>(
    shared: &'env SharedRun<'_, V>,
    mut stack: WarpStack<L>,
    scope: &'scope Scope<'scope, 'env>,
) -> RunStats {
    let run = &shared.run;
    let mut ws = Workspace::for_config(run.cfg);
    let mut m = vec![0u32; run.plan.k()];
    let mut local_matches = 0u64;
    let mut counted = RunStats::default();
    let num_warps = run.cfg.num_warps;
    let total = run.source.len(run.g);
    let mut registered_idle = false;

    'outer: loop {
        if run.failed() || run.over_deadline() || run.cancelled() {
            break;
        }
        // ---- Work acquisition: queue first, then initial chunks. ----
        let work = loop {
            if let Some(t) = run.device.queue.dequeue() {
                if registered_idle {
                    run.idle.fetch_sub(1, Ordering::SeqCst);
                    registered_idle = false;
                }
                break Work::FromQueue(t);
            }
            if let Some(r) = run.device.next_chunk(total) {
                if registered_idle {
                    run.idle.fetch_sub(1, Ordering::SeqCst);
                    registered_idle = false;
                }
                break Work::Chunk(r);
            }
            if !registered_idle {
                run.idle.fetch_add(1, Ordering::SeqCst);
                registered_idle = true;
            } else if run.idle.load(Ordering::SeqCst) == num_warps && run.device.queue.is_empty() {
                break 'outer;
            }
            if run.failed() || run.cancelled() {
                break 'outer;
            }
            std::thread::yield_now();
        };

        // ---- Process the acquired work (Alg. 4 lines 1–6). ----
        let mut t0 = shared.clock.now_ns();
        match work {
            Work::FromQueue(task) => {
                m[0] = task.v1 as u32;
                m[1] = task.v2 as u32;
                let start_level = if task.v3 == PAD {
                    2
                } else {
                    let v3 = task.v3 as u32;
                    if !accept(run.g, run.plan, 2, v3, &m, run.cfg.fused_injectivity) {
                        continue;
                    }
                    m[2] = v3;
                    3
                };
                if let Err(e) = dfs(
                    shared,
                    &mut stack,
                    &mut ws,
                    &mut m,
                    start_level,
                    &mut t0,
                    &mut local_matches,
                    scope,
                ) {
                    run.record_error(e.into());
                }
            }
            Work::Chunk(range) => {
                let mut decomposing = false;
                for local in range {
                    if run.cancelled() {
                        break;
                    }
                    let global = run.device.global_index(local);
                    let Some(start_level) =
                        run.source
                            .seed(run.g, run.plan, global, &mut m, &mut counted)
                    else {
                        continue;
                    };
                    // Timed-out chunk: push the remaining edges as
                    // 2-prefix tasks instead of running them (Fig. 5's
                    // backtrack-to-root decomposition). Only 2-prefix
                    // tasks are queue-encodable.
                    if start_level == 2
                        && (decomposing
                            || shared
                                .tau_ns
                                .is_some_and(|tau| shared.clock.now_ns() - t0 > tau))
                    {
                        if !decomposing {
                            shared.timeouts.fetch_add(1, Ordering::Relaxed);
                            decomposing = true;
                        }
                        if run.device.queue.enqueue(Task::pair(m[0], m[1])) {
                            continue;
                        }
                        // Queue full: reset t0, resume in place.
                        decomposing = false;
                        t0 = shared.clock.now_ns();
                    }
                    if let Err(e) = dfs(
                        shared,
                        &mut stack,
                        &mut ws,
                        &mut m,
                        start_level,
                        &mut t0,
                        &mut local_matches,
                        scope,
                    ) {
                        run.record_error(e.into());
                        break;
                    }
                }
            }
        }
    }

    run.matches.fetch_add(local_matches, Ordering::Relaxed);
    warp_share(counted, &ws, &stack.levels)
}

/// Iterative DFS from `start_level` with the timeout and new-kernel
/// hooks. `m[..start_level]` must already hold the task prefix.
#[allow(clippy::too_many_arguments)]
fn dfs<'scope, 'env, V: GraphView, L: FactoryLevel>(
    shared: &'env SharedRun<'_, V>,
    stack: &mut WarpStack<L>,
    ws: &mut Workspace,
    m: &mut [u32],
    start_level: usize,
    t0: &mut u64,
    local_matches: &mut u64,
    scope: &'scope Scope<'scope, 'env>,
) -> Result<(), StackError> {
    let run = &shared.run;
    let k = run.plan.k();
    if start_level == k {
        // The task prefix is already a complete match (k ≤ 3 patterns).
        *local_matches += 1;
        run.emit(&m[..k]);
        return Ok(());
    }
    if run.cfg.fused_leaf && start_level + 1 == k {
        // The whole task is one leaf: a single fused intersection counts
        // and emits without ever materializing `stack[k-1]`.
        *local_matches += count_leaf(run.g, run.plan, m, &stack.levels, ws, start_level, run.sink);
        return Ok(());
    }

    let mut level = start_level;
    // One in-place descent is guaranteed after a queue-full event so a
    // tiny tau cannot livelock on a persistently full queue.
    let mut grace = false;
    fill_level(
        run.g,
        run.plan,
        level,
        m,
        &mut stack.levels,
        ws,
        start_level,
    )?;
    stack.iters[level] = 0;

    // EGSM model: oversized fanout at the entry level dispatches a child
    // kernel that processes this whole level, and the parent backtracks.
    if let Some(threshold) = shared.fanout_threshold {
        if stack.levels[level].len() > threshold
            && launch_child_kernel(shared, m, level, &stack.levels[level], scope)
        {
            return Ok(());
        }
    }

    let mut steps = 0u32;
    loop {
        // Periodic stop poll (cheap: one branch per candidate, one
        // atomic load every 1 Ki candidates for cancellation, one clock
        // read every 64 Ki candidates for the deadline).
        steps = steps.wrapping_add(1);
        if steps & 0x3FF == 0 {
            if run.cancelled() {
                return Ok(());
            }
            if steps & 0xFFFF == 0 && run.over_deadline() {
                return Ok(());
            }
        }
        if stack.iters[level] < stack.levels[level].len() {
            let v = stack.levels[level].get(stack.iters[level]);
            stack.iters[level] += 1;
            if !accept(run.g, run.plan, level, v, m, run.cfg.fused_injectivity) {
                continue;
            }
            m[level] = v;
            // Locality: while v's subtree is processed, pull the next
            // sibling candidate's adjacency row toward the cache — it
            // is the very next Eq. (1) operand this level will read.
            // No-op off x86-64.
            if stack.iters[level] < stack.levels[level].len() {
                tdfs_gpu::simd::prefetch_read(
                    run.g.neighbors(stack.levels[level].get(stack.iters[level])),
                );
            }
            if level + 1 == k {
                *local_matches += 1;
                run.emit(&m[..k]);
                continue;
            }
            // ---- Timeout hook (Alg. 4 lines 12–21): decompose instead
            // of descending while ≤ 3 vertices are matched. ----
            if level <= 2 {
                if let Some(tau) = shared.tau_ns {
                    // Fault point: force this warp to look like a
                    // straggler, triggering decomposition regardless of
                    // the clock.
                    let forced_straggle = crate::chaos_inject!("core.dfs.straggler");
                    if grace {
                        grace = false;
                    } else if forced_straggle || shared.clock.now_ns() - *t0 > tau {
                        shared.timeouts.fetch_add(1, Ordering::Relaxed);
                        // Put the current candidate back and enqueue the
                        // remainder of this level. If `Q_task` fills up,
                        // `t0` is reset inside, a grace descent is
                        // granted, and the loop resumes in-place
                        // processing; otherwise the level is drained and
                        // the exhausted branch backtracks.
                        stack.iters[level] -= 1;
                        grace = !decompose_level(shared, stack, m, level, t0);
                        continue;
                    }
                }
            }
            // ---- Fused leaf (after the timeout hook so decomposition
            // still fires at shallow depths): the deepest level is one
            // filtered intersection instead of a fill + second pass. ----
            if run.cfg.fused_leaf && level + 2 == k {
                *local_matches +=
                    count_leaf(run.g, run.plan, m, &stack.levels, ws, start_level, run.sink);
                if run.cancelled() {
                    return Ok(());
                }
                continue;
            }
            level += 1;
            fill_level(
                run.g,
                run.plan,
                level,
                m,
                &mut stack.levels,
                ws,
                start_level,
            )?;
            stack.iters[level] = 0;
            if let Some(threshold) = shared.fanout_threshold {
                if stack.levels[level].len() > threshold
                    && launch_child_kernel(shared, m, level, &stack.levels[level], scope)
                {
                    // Parent treats the level as handled and backtracks.
                    level -= 1;
                    continue;
                }
            }
        } else {
            if level == start_level {
                return Ok(());
            }
            level -= 1;
        }
    }
}

/// Enqueues every remaining candidate at `level` (starting from
/// `iters[level]`) as a 3-prefix task — Fig. 5. If `Q_task` fills up,
/// the offending candidate is put back and `t0` is reset so the caller
/// resumes in-place execution (Alg. 4 lines 18–20).
fn decompose_level<V: GraphView, L: LevelStore>(
    shared: &SharedRun<'_, V>,
    stack: &mut WarpStack<L>,
    m: &[u32],
    level: usize,
    t0: &mut u64,
) -> bool {
    debug_assert!(level == 2, "decomposition happens at matched depth 3");
    let run = &shared.run;
    while stack.iters[level] < stack.levels[level].len() {
        let w = stack.levels[level].get(stack.iters[level]);
        stack.iters[level] += 1;
        if !accept(run.g, run.plan, level, w, m, run.cfg.fused_injectivity) {
            continue;
        }
        if !run.device.queue.enqueue(Task::triple(m[0], m[1], w)) {
            // Queue full: put w back, reset t0, resume in place.
            stack.iters[level] -= 1;
            *t0 = shared.clock.now_ns();
            return false;
        }
    }
    true
}

/// Maximum simultaneously live child-kernel warps.
const MAX_CHILD_WARPS: usize = 64;

/// EGSM's new-kernel dispatch: split the oversized level across fresh
/// child workers, each with a newly allocated stack (the allocation is
/// the measured launch cost the paper criticizes). Returns `false` —
/// telling the caller to process the level in place — when the child
/// budget is exhausted or the run has already failed.
fn launch_child_kernel<'scope, 'env, V: GraphView, L: FactoryLevel>(
    shared: &'env SharedRun<'_, V>,
    m: &[u32],
    level: usize,
    candidates: &L,
    scope: &'scope Scope<'scope, 'env>,
) -> bool {
    let run = &shared.run;
    if run.failed() {
        return false;
    }
    let k = run.plan.k();
    let n = candidates.len();
    // One child warp per 32 candidates, capped at 32 warps (the paper's
    // example: fanout 1024 → 32 warps × 32 vertices).
    let child_warps = n.div_ceil(32).clamp(1, 32);
    // Claim thread budget; refuse the launch if the device is saturated.
    let prev = shared
        .active_children
        .fetch_add(child_warps, Ordering::AcqRel);
    if prev + child_warps > MAX_CHILD_WARPS {
        shared
            .active_children
            .fetch_sub(child_warps, Ordering::AcqRel);
        return false;
    }
    shared.kernels.fetch_add(1, Ordering::Relaxed);
    let prefix: Vec<u32> = m[..level].to_vec();
    let cands = candidates.to_vec();
    let per_child = n.div_ceil(child_warps);
    for chunk in cands.chunks(per_child) {
        let chunk = chunk.to_vec();
        let prefix = prefix.clone();
        scope.spawn(move || {
            let _guard = PanicGuard(&run.error);
            // The launch cost: a brand-new stack allocation per child.
            let mut stack: WarpStack<L> = shared.stacks.stack(k);
            let mut ws = Workspace::for_config(run.cfg);
            let mut m = vec![0u32; k];
            m[..prefix.len()].copy_from_slice(&prefix);
            let mut local = 0u64;
            let mut t0 = shared.clock.now_ns();
            for v in chunk {
                if run.cancelled() {
                    break;
                }
                if !accept(run.g, run.plan, level, v, &m, run.cfg.fused_injectivity) {
                    continue;
                }
                m[level] = v;
                if level + 1 == k {
                    local += 1;
                    run.emit(&m[..k]);
                    continue;
                }
                if let Err(e) = dfs(
                    shared,
                    &mut stack,
                    &mut ws,
                    &mut m,
                    level + 1,
                    &mut t0,
                    &mut local,
                    scope,
                ) {
                    run.record_error(e.into());
                    break;
                }
            }
            run.matches.fetch_add(local, Ordering::Relaxed);
            // A child's work counts toward the makespan and the total;
            // its lane-op counters stay its own.
            let units = ws.warp.stats.work_units();
            lock(&shared.children).merge(&RunStats {
                warp_makespan: units,
                warp_work_total: units,
                ..RunStats::default()
            });
            shared.active_children.fetch_sub(1, Ordering::AcqRel);
        });
    }
    true
}
