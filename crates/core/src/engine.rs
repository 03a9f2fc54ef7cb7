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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use tdfs_gpu::device::Device;
use tdfs_gpu::queue::{Task, PAD};
use tdfs_gpu::Clock;
use tdfs_graph::GraphView;
use tdfs_mem::{ArrayLevel, LevelStore, PagedLevel, StackError};
use tdfs_query::plan::{LevelPlan, QueryPlan};

use crate::candidates::{
    accept, fill_level, fuse_leaf_level, separate_injectivity_pass, Workspace,
};
use crate::config::{MatcherConfig, Strategy};
use crate::sink::MatchSink;
use crate::stack::{StackFactory, WarpStack};
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
    /// service layer's poisoned-worker recovery. Inside an engine run a
    /// panicking warp's drop guard records it so the other warps stop,
    /// but the run itself still panics: the panic propagates.
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

/// Records [`EngineError::WorkerPanicked`] in a run's error cell when the
/// warp holding it unwinds. The other warps then see a failed run and
/// leave their termination wait, which counts on every warp turning
/// idle, and the enclosing thread scope re-raises the panic once they
/// have exited.
pub(crate) struct PanicGuard<'a>(pub(crate) &'a Mutex<Option<EngineError>>);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(EngineError::WorkerPanicked);
        }
    }
}

/// Shared run-wide state visible to every warp.
struct SharedRun<'a, V: GraphView> {
    g: &'a V,
    plan: &'a QueryPlan,
    cfg: &'a MatcherConfig,
    device: &'a Device,
    clock: Clock,
    tau_ns: Option<u64>,
    fanout_threshold: Option<usize>,
    idle: AtomicUsize,
    matches: AtomicU64,
    timeouts: AtomicU64,
    kernels: AtomicU64,
    error: Mutex<Option<EngineError>>,
    /// Where initial tasks come from.
    source: InitialSource,
    /// Wall-clock budget expiry.
    deadline: Option<Instant>,
    /// Optional match consumer shared by all warps.
    sink: Option<&'a dyn MatchSink>,
    /// Work units reported by child-kernel warps (EGSM model).
    child_work: Mutex<Vec<u64>>,
    /// Live child-kernel warps (bounded: a kernel storm would otherwise
    /// exhaust OS threads; the cap itself models the paper's "many
    /// active kernels … add burden to warp scheduling").
    active_children: AtomicUsize,
}

impl<V: GraphView> SharedRun<'_, V> {
    fn record_error(&self, e: EngineError) {
        let mut guard = self.error.lock().expect("error mutex poisoned");
        guard.get_or_insert(e);
    }

    fn failed(&self) -> bool {
        self.error.lock().expect("error mutex poisoned").is_some()
    }

    /// Emits a completed match to the sink, if any.
    #[inline]
    fn emit(&self, m: &[u32]) {
        if let Some(sink) = self.sink {
            sink.emit(m);
        }
    }

    /// Deadline check; records `TimeLimit` and returns `true` if expired.
    fn over_deadline(&self) -> bool {
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
    fn cancelled(&self) -> bool {
        self.cfg.cancel_requested()
    }

    /// Number of initial tasks for the device cursor.
    fn initial_total(&self) -> usize {
        match &self.source {
            InitialSource::Arcs => self.g.num_arcs(),
            InitialSource::Edges(v) => v.len(),
            InitialSource::Partials { data, stride } => data.len() / stride,
        }
    }
}

/// Where a run's initial tasks come from.
pub enum InitialSource {
    /// The raw arc stream, edge-filtered in-warp (T-DFS default).
    Arcs,
    /// A host-prefiltered edge list (STMatch's preprocessing step).
    Edges(Vec<(u32, u32)>),
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

/// Runs the timeout / no-steal / new-kernel strategies on one device.
///
/// `HalfSteal` and `Bfs` are dispatched by the crate-root `match_plan`
/// to their own engines.
pub fn run_on_device<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    clock: Clock,
) -> Result<RunResult, EngineError> {
    run_on_device_with_sink(g, plan, cfg, device, clock, None)
}

/// [`run_on_device`] with an optional match sink.
pub fn run_on_device_with_sink<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    clock: Clock,
    sink: Option<&dyn MatchSink>,
) -> Result<RunResult, EngineError> {
    let mut host_preprocess = std::time::Duration::ZERO;
    let source = if cfg.host_edge_filter {
        let t = Instant::now();
        let edges = host_filter_edges(g, plan);
        host_preprocess = t.elapsed();
        InitialSource::Edges(edges)
    } else {
        InitialSource::Arcs
    };
    let factory = StackFactory::for_config(cfg, g.max_degree());
    run_on_device_from(
        g,
        plan,
        cfg,
        device,
        &factory,
        clock,
        sink,
        source,
        host_preprocess,
    )
}

/// Runs the warp engine over an explicit initial-task source (used by
/// the hybrid BFS→DFS engine to hand over its switch-over frontier, and
/// by durable shard workers, which run every shard they lease on one
/// resident device and stack arena).
///
/// The run starts by rewinding `device` and restarting the arena's peak,
/// so a device reused after a clean run reports exactly what a fresh one
/// would. `factory` must be resolved for a maximum degree of at least
/// `g.max_degree()`, which sizes array stacks.
#[allow(clippy::too_many_arguments)]
pub fn run_on_device_from<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    factory: &StackFactory,
    clock: Clock,
    sink: Option<&dyn MatchSink>,
    source: InitialSource,
    host_preprocess: std::time::Duration,
) -> Result<RunResult, EngineError> {
    let start = Instant::now();
    device.reset();
    if let Some(arena) = factory.arena() {
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
        g,
        plan,
        cfg,
        device,
        clock,
        tau_ns,
        fanout_threshold,
        idle: AtomicUsize::new(0),
        matches: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
        kernels: AtomicU64::new(0),
        error: Mutex::new(None),
        source,
        deadline: cfg.time_limit.map(|l| start + l),
        sink,
        child_work: Mutex::new(Vec::new()),
        active_children: AtomicUsize::new(0),
    };

    let k = plan.k();

    let mut stats = RunStats {
        host_preprocess,
        ..RunStats::default()
    };

    let warp_outputs: Vec<WarpOutput> = std::thread::scope(|scope| {
        // A single-warp run executes on the calling thread — the scope
        // exists only so timeout decomposition can still spawn child
        // warps. This keeps fine-grained callers (the durable layer
        // runs one engine warp per shard) free of a per-run spawn.
        if cfg.num_warps == 1 {
            let out = match factory {
                StackFactory::Array { .. } => {
                    let stack = WarpStack::<ArrayLevel>::new_array(factory, k);
                    warp_main(&shared, factory, stack, scope)
                }
                StackFactory::Paged { .. } => {
                    let stack = WarpStack::<PagedLevel>::new_paged(factory, k);
                    warp_main(&shared, factory, stack, scope)
                }
            };
            return vec![out];
        }
        let mut handles = Vec::with_capacity(cfg.num_warps);
        for _ in 0..cfg.num_warps {
            let shared = &shared;
            handles.push(scope.spawn(move || {
                let _guard = PanicGuard(&shared.error);
                match factory {
                    StackFactory::Array { .. } => {
                        let stack = WarpStack::<ArrayLevel>::new_array(factory, k);
                        warp_main(shared, factory, stack, scope)
                    }
                    StackFactory::Paged { .. } => {
                        let stack = WarpStack::<PagedLevel>::new_paged(factory, k);
                        warp_main(shared, factory, stack, scope)
                    }
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("warp panicked"))
            .collect()
    });

    if let Some(e) = shared.error.into_inner().expect("error mutex poisoned") {
        return Err(e);
    }

    for out in &warp_outputs {
        stats.warp.merge(&out.warp_stats);
        stats.edges_admitted += out.edges_admitted;
        stats.edges_filtered += out.edges_filtered;
        stats.candidates_truncated += out.truncated;
        stats.page_faults += out.page_faults;
        stats.pages_spilled += out.spill_events;
        stats.candidates_spilled += out.spilled;
    }
    if let InitialSource::Edges(edges) = &shared.source {
        stats.edges_admitted = edges.len() as u64;
        stats.edges_filtered = (g.num_arcs() - edges.len()) as u64;
    }
    {
        let child = shared.child_work.lock().expect("child work poisoned");
        let main_units = warp_outputs.iter().map(|o| o.warp_stats.work_units());
        stats.warp_makespan = main_units.chain(child.iter().copied()).max().unwrap_or(0);
        stats.warp_work_total = warp_outputs
            .iter()
            .map(|o| o.warp_stats.work_units())
            .sum::<u64>()
            + child.iter().sum::<u64>();
    }
    stats.cancelled = cfg.cancel_requested();
    stats.tasks_enqueued = device.queue.total_enqueued();
    stats.tasks_dequeued = device.queue.total_dequeued();
    stats.queue_rejections = device.queue.total_rejected_full();
    stats.queue_peak = device.queue.peak_tasks();
    stats.timeouts_fired = shared.timeouts.load(Ordering::Relaxed);
    stats.kernels_launched = shared.kernels.load(Ordering::Relaxed);
    stats.queue_stall_yields = device.queue.total_stall_yields();
    stats.stack_bytes_peak = match factory {
        StackFactory::Array { capacity, .. } => cfg.num_warps * k * capacity * 4,
        StackFactory::Paged {
            arena, table_len, ..
        } => arena.peak_bytes() + cfg.num_warps * k * table_len * 4,
    };
    // Every warp stack has been dropped (the scope joined), so any page
    // still checked out of the arena has leaked.
    stats.pages_leaked = factory.arena().map_or(0, |a| a.pages_in_use() as u64);

    Ok(RunResult {
        matches: shared.matches.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        stats,
    })
}

/// Per-warp return payload.
struct WarpOutput {
    warp_stats: tdfs_gpu::warp::WarpStats,
    edges_admitted: u64,
    edges_filtered: u64,
    truncated: u64,
    page_faults: u64,
    spill_events: u64,
    spilled: u64,
}

/// One unit of acquired work.
enum Work {
    FromQueue(Task),
    Chunk(std::ops::Range<usize>),
}

fn warp_main<'scope, 'env, V: GraphView, L: LevelStore + StackMetrics>(
    shared: &'scope SharedRun<'env, V>,
    factory: &'scope StackFactory,
    mut stack: WarpStack<L>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) -> WarpOutput
where
    StackFactory: MakeStack<L>,
{
    let mut ws = Workspace::with_simd(shared.cfg.simd);
    let mut m = vec![0u32; shared.plan.k()];
    let mut local_matches = 0u64;
    let mut edges_admitted = 0u64;
    let mut edges_filtered = 0u64;
    let num_warps = shared.cfg.num_warps;
    let total = shared.initial_total();
    let mut registered_idle = false;

    'outer: loop {
        if shared.failed() || shared.over_deadline() || shared.cancelled() {
            break;
        }
        // ---- Work acquisition: queue first, then initial chunks. ----
        let work = loop {
            if let Some(t) = shared.device.queue.dequeue() {
                if registered_idle {
                    shared.idle.fetch_sub(1, Ordering::SeqCst);
                    registered_idle = false;
                }
                break Work::FromQueue(t);
            }
            if let Some(r) = shared.device.next_chunk(total) {
                if registered_idle {
                    shared.idle.fetch_sub(1, Ordering::SeqCst);
                    registered_idle = false;
                }
                break Work::Chunk(r);
            }
            if !registered_idle {
                shared.idle.fetch_add(1, Ordering::SeqCst);
                registered_idle = true;
            } else if shared.idle.load(Ordering::SeqCst) == num_warps
                && shared.device.queue.is_empty()
            {
                break 'outer;
            }
            if shared.failed() || shared.cancelled() {
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
                    if !accept(
                        shared.g,
                        shared.plan,
                        2,
                        v3,
                        &m,
                        shared.cfg.fused_injectivity,
                    ) {
                        continue;
                    }
                    m[2] = v3;
                    3
                };
                if let Err(e) = dfs(
                    shared,
                    factory,
                    &mut stack,
                    &mut ws,
                    &mut m,
                    start_level,
                    &mut t0,
                    &mut local_matches,
                    scope,
                ) {
                    shared.record_error(e.into());
                }
            }
            Work::Chunk(range) => {
                let mut decomposing = false;
                for local in range {
                    if shared.cancelled() {
                        break;
                    }
                    let global = shared.device.global_index(local);
                    let start_level = match &shared.source {
                        InitialSource::Arcs => {
                            let (v1, v2) = shared.g.arc(global);
                            if !edge_admitted(shared.g, shared.plan, v1, v2) {
                                edges_filtered += 1;
                                continue;
                            }
                            edges_admitted += 1;
                            m[0] = v1;
                            m[1] = v2;
                            2
                        }
                        InitialSource::Edges(edges) => {
                            let (v1, v2) = edges[global];
                            edges_admitted += 1;
                            m[0] = v1;
                            m[1] = v2;
                            2
                        }
                        InitialSource::Partials { data, stride } => {
                            m[..*stride]
                                .copy_from_slice(&data[global * stride..(global + 1) * stride]);
                            *stride
                        }
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
                        if shared.device.queue.enqueue(Task::pair(m[0], m[1])) {
                            continue;
                        }
                        // Queue full: reset t0, resume in place.
                        decomposing = false;
                        t0 = shared.clock.now_ns();
                    }
                    if let Err(e) = dfs(
                        shared,
                        factory,
                        &mut stack,
                        &mut ws,
                        &mut m,
                        start_level,
                        &mut t0,
                        &mut local_matches,
                        scope,
                    ) {
                        shared.record_error(e.into());
                        break;
                    }
                }
            }
        }
    }

    shared.matches.fetch_add(local_matches, Ordering::Relaxed);
    WarpOutput {
        warp_stats: ws.warp.stats.clone(),
        edges_admitted,
        edges_filtered,
        truncated: stack_truncated(&stack),
        page_faults: stack_page_faults(&stack),
        spill_events: stack_metric_sum(&stack, |l| l.level_spill_events()),
        spilled: stack_metric_sum(&stack, |l| l.level_spilled()),
    }
}

/// Iterative DFS from `start_level` with the timeout and new-kernel
/// hooks. `m[..start_level]` must already hold the task prefix.
#[allow(clippy::too_many_arguments)]
fn dfs<'scope, 'env, V: GraphView, L: LevelStore + StackMetrics>(
    shared: &'scope SharedRun<'env, V>,
    factory: &'scope StackFactory,
    stack: &mut WarpStack<L>,
    ws: &mut Workspace,
    m: &mut [u32],
    start_level: usize,
    t0: &mut u64,
    local_matches: &mut u64,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) -> Result<(), StackError>
where
    StackFactory: MakeStack<L>,
{
    let k = shared.plan.k();
    if start_level == k {
        // The task prefix is already a complete match (k ≤ 3 patterns).
        *local_matches += 1;
        shared.emit(&m[..k]);
        return Ok(());
    }
    if shared.cfg.fused_leaf && start_level + 1 == k {
        // The whole task is one leaf: a single fused intersection counts
        // and emits without ever materializing `stack[k-1]`.
        fused_leaf_task(shared, &stack.levels, ws, m, start_level, local_matches);
        return Ok(());
    }

    let mut level = start_level;
    // One in-place descent is guaranteed after a queue-full event so a
    // tiny tau cannot livelock on a persistently full queue.
    let mut grace = false;
    fill_level(
        shared.g,
        shared.plan,
        level,
        m,
        &mut stack.levels,
        ws,
        shared.cfg.ct_index,
        start_level,
    )?;
    if !shared.cfg.fused_injectivity {
        separate_injectivity_pass(&mut stack.levels[level], &m[..level], ws)?;
    }
    stack.iters[level] = 0;

    // EGSM model: oversized fanout at the entry level dispatches a child
    // kernel that processes this whole level, and the parent backtracks.
    if let Some(threshold) = shared.fanout_threshold {
        if stack.levels[level].len() > threshold
            && launch_child_kernel(shared, factory, m, level, &stack.levels[level], scope)
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
            if shared.cancelled() {
                return Ok(());
            }
            if steps & 0xFFFF == 0 && shared.over_deadline() {
                return Ok(());
            }
        }
        if stack.iters[level] < stack.levels[level].len() {
            let v = stack.levels[level].get(stack.iters[level]);
            stack.iters[level] += 1;
            if !accept(
                shared.g,
                shared.plan,
                level,
                v,
                m,
                shared.cfg.fused_injectivity,
            ) {
                continue;
            }
            m[level] = v;
            // Locality: while v's subtree is processed, pull the next
            // sibling candidate's adjacency row toward the cache — it
            // is the very next Eq. (1) operand this level will read.
            // No-op without the `simd` feature.
            if stack.iters[level] < stack.levels[level].len() {
                tdfs_gpu::simd::prefetch_read(
                    shared
                        .g
                        .neighbors(stack.levels[level].get(stack.iters[level])),
                );
            }
            if level + 1 == k {
                *local_matches += 1;
                shared.emit(&m[..k]);
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
            if shared.cfg.fused_leaf && level + 2 == k {
                fused_leaf_task(shared, &stack.levels, ws, m, start_level, local_matches);
                if shared.cancelled() {
                    return Ok(());
                }
                continue;
            }
            level += 1;
            fill_level(
                shared.g,
                shared.plan,
                level,
                m,
                &mut stack.levels,
                ws,
                shared.cfg.ct_index,
                start_level,
            )?;
            if !shared.cfg.fused_injectivity {
                separate_injectivity_pass(&mut stack.levels[level], &m[..level], ws)?;
            }
            stack.iters[level] = 0;
            if let Some(threshold) = shared.fanout_threshold {
                if stack.levels[level].len() > threshold
                    && launch_child_kernel(shared, factory, m, level, &stack.levels[level], scope)
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

/// Runs the fused leaf for the full prefix `m[..k-1]`: one filtered
/// intersection with the consumption predicate folded into the lanes,
/// counting (and emitting) matches without materializing `stack[k-1]`.
/// `valid_from` carries the same reuse-staleness meaning as in
/// [`fill_level`].
fn fused_leaf_task<V: GraphView, L: LevelStore>(
    shared: &SharedRun<'_, V>,
    levels: &[L],
    ws: &mut Workspace,
    m: &[u32],
    valid_from: usize,
    local_matches: &mut u64,
) {
    let k = shared.plan.k();
    let head = &levels[..k - 1];
    if shared.sink.is_some() {
        // Assemble emitted matches in a workspace-resident buffer (taken
        // out for the duration of the call — `ws` is busy inside).
        let mut buf = std::mem::take(&mut ws.leaf_buf);
        buf.clear();
        buf.extend_from_slice(&m[..k - 1]);
        buf.push(0);
        fuse_leaf_level(
            shared.g,
            shared.plan,
            m,
            head,
            ws,
            shared.cfg.ct_index,
            valid_from,
            |v| {
                *local_matches += 1;
                buf[k - 1] = v;
                shared.emit(&buf);
            },
        );
        ws.leaf_buf = buf;
    } else {
        fuse_leaf_level(
            shared.g,
            shared.plan,
            m,
            head,
            ws,
            shared.cfg.ct_index,
            valid_from,
            |_| *local_matches += 1,
        );
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
    while stack.iters[level] < stack.levels[level].len() {
        let w = stack.levels[level].get(stack.iters[level]);
        stack.iters[level] += 1;
        if !accept(
            shared.g,
            shared.plan,
            level,
            w,
            m,
            shared.cfg.fused_injectivity,
        ) {
            continue;
        }
        if !shared.device.queue.enqueue(Task::triple(m[0], m[1], w)) {
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
fn launch_child_kernel<'scope, 'env, V: GraphView, L: LevelStore + StackMetrics>(
    shared: &'scope SharedRun<'env, V>,
    factory: &'scope StackFactory,
    m: &[u32],
    level: usize,
    candidates: &L,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) -> bool
where
    StackFactory: MakeStack<L>,
{
    if shared.failed() {
        return false;
    }
    let k = shared.plan.k();
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
            let _guard = PanicGuard(&shared.error);
            // The launch cost: a brand-new stack allocation per child.
            let mut stack: WarpStack<L> = factory.make_stack(k);
            let mut ws = Workspace::with_simd(shared.cfg.simd);
            let mut m = vec![0u32; k];
            m[..prefix.len()].copy_from_slice(&prefix);
            let mut local = 0u64;
            let mut t0 = shared.clock.now_ns();
            for v in chunk {
                if shared.cancelled() {
                    break;
                }
                if !accept(
                    shared.g,
                    shared.plan,
                    level,
                    v,
                    &m,
                    shared.cfg.fused_injectivity,
                ) {
                    continue;
                }
                m[level] = v;
                if level + 1 == k {
                    local += 1;
                    shared.emit(&m[..k]);
                    continue;
                }
                if let Err(e) = dfs(
                    shared,
                    factory,
                    &mut stack,
                    &mut ws,
                    &mut m,
                    level + 1,
                    &mut t0,
                    &mut local,
                    scope,
                ) {
                    shared.record_error(e.into());
                    break;
                }
            }
            shared.matches.fetch_add(local, Ordering::Relaxed);
            shared
                .child_work
                .lock()
                .expect("child work poisoned")
                .push(ws.warp.stats.work_units());
            shared.active_children.fetch_sub(1, Ordering::AcqRel);
        });
    }
    true
}

/// Uniform metric access across stack-level backends.
pub trait StackMetrics {
    /// Candidates silently dropped by this level (truncating arrays).
    fn level_truncated(&self) -> u64 {
        0
    }
    /// Page faults served by this level (paged levels).
    fn level_page_faults(&self) -> u64 {
        0
    }
    /// Times this level degraded to its heap spill (paged levels with
    /// spill enabled).
    fn level_spill_events(&self) -> u64 {
        0
    }
    /// Candidates written to the heap spill (paged levels).
    fn level_spilled(&self) -> u64 {
        0
    }
}

impl StackMetrics for ArrayLevel {
    fn level_truncated(&self) -> u64 {
        self.truncated()
    }
}

impl StackMetrics for PagedLevel {
    fn level_page_faults(&self) -> u64 {
        self.page_faults()
    }
    fn level_spill_events(&self) -> u64 {
        self.spill_events()
    }
    fn level_spilled(&self) -> u64 {
        self.spilled()
    }
}

/// Sums a metric across a stack's levels.
fn stack_truncated<L: LevelStore + StackMetrics>(stack: &WarpStack<L>) -> u64 {
    stack.levels.iter().map(StackMetrics::level_truncated).sum()
}

fn stack_page_faults<L: LevelStore + StackMetrics>(stack: &WarpStack<L>) -> u64 {
    stack
        .levels
        .iter()
        .map(StackMetrics::level_page_faults)
        .sum()
}

fn stack_metric_sum<L: LevelStore + StackMetrics>(
    stack: &WarpStack<L>,
    metric: fn(&L) -> u64,
) -> u64 {
    stack.levels.iter().map(metric).sum()
}

/// Factory trait tying a [`StackFactory`] to a concrete level type.
pub trait MakeStack<L: LevelStore> {
    /// Builds a `k`-level stack.
    fn make_stack(&self, k: usize) -> WarpStack<L>;
}

impl MakeStack<ArrayLevel> for StackFactory {
    fn make_stack(&self, k: usize) -> WarpStack<ArrayLevel> {
        WarpStack::new_array(self, k)
    }
}

impl MakeStack<PagedLevel> for StackFactory {
    fn make_stack(&self, k: usize) -> WarpStack<PagedLevel> {
        WarpStack::new_paged(self, k)
    }
}
