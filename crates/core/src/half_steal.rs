//! The STMatch-style half-stealing engine (paper Fig. 2).
//!
//! Every warp's DFS stack lives behind a mutex. The owning warp locks it
//! for *every* step of its own backtracking — the paper's central
//! criticism: "not only the other warps but also Warp i itself need to
//! frequently lock and unlock the stack each time it is accessed,
//! creating a lot of overheads", with the owner stalled while a thief
//! copies ("Warp i busy-waits on its stack when another warp is
//! stealing"). An idle warp probes victims round-robin, locks one, finds
//! the shallowest level that still has unprocessed candidates, and takes
//! half of them (plus the path prefix above that level).
//!
//! Stacks are fixed-capacity arrays, as in STMatch.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tdfs_gpu::device::Device;
use tdfs_graph::GraphView;
use tdfs_mem::{ArrayLevel, LevelStore, OverflowPolicy, StackError};
use tdfs_query::plan::QueryPlan;

use crate::candidates::{
    accept, fill_level, fuse_leaf_level, separate_injectivity_pass, Workspace,
};
use crate::config::{ArrayCapacity, MatcherConfig, StackConfig};
use crate::engine::{edge_admitted, host_filter_edges, EngineError, PanicGuard};
use crate::sink::MatchSink;
use crate::stats::{RunResult, RunStats};

/// One warp's lockable DFS state.
struct VictimState {
    /// Unprocessed initial edges of the warp's current chunk ("level 1").
    roots: Vec<(u32, u32)>,
    root_iter: usize,
    /// Candidate levels (index = matching position; 0 and 1 unused).
    levels: Vec<ArrayLevel>,
    iters: Vec<usize>,
    /// Current partial match.
    m: Vec<u32>,
    /// Level currently being iterated; 0 = no active DFS path.
    depth: usize,
    /// Level at which the current task entered (2 for own roots; the
    /// stolen level for stolen work).
    entry: usize,
}

impl VictimState {
    fn new(k: usize, capacity: usize, policy: OverflowPolicy) -> Self {
        Self {
            roots: Vec::new(),
            root_iter: 0,
            levels: (0..k).map(|_| ArrayLevel::new(capacity, policy)).collect(),
            iters: vec![0; k],
            m: vec![0; k],
            depth: 0,
            entry: 2,
        }
    }

    fn has_work(&self) -> bool {
        self.depth != 0 || self.root_iter < self.roots.len()
    }
}

/// Loot taken from a victim.
enum Loot {
    Roots(Vec<(u32, u32)>),
    Level {
        level: usize,
        prefix: Vec<u32>,
        candidates: Vec<u32>,
    },
}

/// Runs the half-steal engine on one device.
pub fn run<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
) -> Result<RunResult, EngineError> {
    run_with_sink(g, plan, cfg, device, None)
}

/// [`run`] with an optional match sink.
pub fn run_with_sink<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    sink: Option<&dyn MatchSink>,
) -> Result<RunResult, EngineError> {
    run_inner(g, plan, cfg, device, sink, None)
}

/// [`run_with_sink`] over an explicit pre-admitted edge list instead of
/// the full arc stream — the durable layer's shard entry point. The
/// edges must already satisfy [`edge_admitted`]; no re-filtering
/// happens (mirrors the `host_edge_filter` path).
pub fn run_on_edges_with_sink<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    edges: Vec<(u32, u32)>,
    sink: Option<&dyn MatchSink>,
) -> Result<RunResult, EngineError> {
    run_inner(g, plan, cfg, device, sink, Some(edges))
}

fn run_inner<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    sink: Option<&dyn MatchSink>,
    edges_override: Option<Vec<(u32, u32)>>,
) -> Result<RunResult, EngineError> {
    let start = Instant::now();
    let k = plan.k();
    let (capacity, policy) = match cfg.stack {
        StackConfig::Array { capacity, policy } => (
            match capacity {
                ArrayCapacity::DMax => g.max_degree().max(1),
                ArrayCapacity::Fixed(n) => n,
            },
            policy,
        ),
        // STMatch always uses array stacks; a paged config falls back to
        // correct d_max arrays.
        StackConfig::Paged { .. } => (g.max_degree().max(1), OverflowPolicy::Error),
    };

    let mut host_preprocess = std::time::Duration::ZERO;
    let overridden = edges_override.is_some();
    let host_edges = if let Some(edges) = edges_override {
        Some(edges)
    } else if cfg.host_edge_filter {
        let t = Instant::now();
        let e = host_filter_edges(g, plan);
        host_preprocess = t.elapsed();
        Some(e)
    } else {
        None
    };
    let total = host_edges.as_ref().map_or(g.num_arcs(), |e| e.len());

    // Levels that seed intersection reuse for deeper levels must keep
    // their full candidate sets: a thief truncating such a level would
    // corrupt the victim's later reuse seeds and lose matches.
    let mut steal_forbidden = vec![false; k];
    for lvl in &plan.levels {
        if let Some(step) = &lvl.reuse {
            steal_forbidden[step.source] = true;
        }
    }
    let steal_forbidden = &steal_forbidden;

    let states: Vec<Mutex<VictimState>> = (0..cfg.num_warps)
        .map(|_| Mutex::new(VictimState::new(k, capacity, policy)))
        .collect();
    let matches = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let idle = AtomicUsize::new(0);
    let error: Mutex<Option<EngineError>> = Mutex::new(None);
    let deadline = cfg.time_limit.map(|l| start + l);
    let edges_admitted = AtomicU64::new(0);
    let edges_filtered = AtomicU64::new(0);

    let warp_stats: Vec<tdfs_gpu::warp::WarpStats> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for wid in 0..cfg.num_warps {
            let states = &states;
            let matches = &matches;
            let steals = &steals;
            let idle = &idle;
            let error = &error;
            let host_edges = &host_edges;
            let edges_admitted = &edges_admitted;
            let edges_filtered = &edges_filtered;
            handles.push(scope.spawn(move || {
                let _guard = PanicGuard(error);
                warp_loop(
                    g,
                    plan,
                    cfg,
                    device,
                    wid,
                    states,
                    matches,
                    steals,
                    idle,
                    error,
                    host_edges.as_deref(),
                    total,
                    edges_admitted,
                    edges_filtered,
                    deadline,
                    steal_forbidden,
                    sink,
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("warp panicked"))
            .collect()
    });

    if let Some(e) = error.into_inner().expect("poisoned") {
        return Err(e);
    }

    let mut stats = RunStats {
        steals: steals.load(Ordering::Relaxed),
        stack_bytes_peak: cfg.num_warps * k * capacity * 4,
        host_preprocess,
        cancelled: cfg.cancel_requested(),
        ..RunStats::default()
    };
    for w in &warp_stats {
        stats.warp.merge(w);
    }
    stats.warp_makespan = warp_stats.iter().map(|w| w.work_units()).max().unwrap_or(0);
    stats.warp_work_total = warp_stats.iter().map(|w| w.work_units()).sum();
    stats.edges_admitted = edges_admitted.load(Ordering::Relaxed);
    stats.edges_filtered = edges_filtered.load(Ordering::Relaxed);
    if let Some(e) = &host_edges {
        stats.edges_admitted = e.len() as u64;
        // A shard override is a subset of the admitted edges: the edges
        // it does not contain were not *filtered*, they belong to other
        // shards.
        stats.edges_filtered = if overridden {
            0
        } else {
            (g.num_arcs() - e.len()) as u64
        };
    }
    for s in &states {
        stats.candidates_truncated += s
            .lock()
            .expect("stack lock poisoned")
            .levels
            .iter()
            .map(|l| l.truncated())
            .sum::<u64>();
    }

    Ok(RunResult {
        matches: matches.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        stats,
    })
}

#[allow(clippy::too_many_arguments)]
fn warp_loop<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    wid: usize,
    states: &[Mutex<VictimState>],
    matches: &AtomicU64,
    steals: &AtomicU64,
    idle: &AtomicUsize,
    error: &Mutex<Option<EngineError>>,
    host_edges: Option<&[(u32, u32)]>,
    total: usize,
    edges_admitted: &AtomicU64,
    edges_filtered: &AtomicU64,
    deadline: Option<Instant>,
    steal_forbidden: &[bool],
    sink: Option<&dyn MatchSink>,
) -> tdfs_gpu::warp::WarpStats {
    let mut ws = Workspace::with_simd(cfg.simd);
    let mut local_matches = 0u64;
    let num_warps = cfg.num_warps;
    let mut registered_idle = false;
    let mut steps = 0u32;

    'outer: loop {
        steps = steps.wrapping_add(1);
        if steps & 0x3FF == 0 {
            if cfg.cancel_requested() {
                break;
            }
            if let Some(d) = deadline {
                if Instant::now() > d {
                    error
                        .lock()
                        .expect("poisoned")
                        .get_or_insert(EngineError::TimeLimit);
                    break;
                }
            }
        }
        if error.lock().expect("poisoned").is_some() {
            break;
        }
        // ---- One DFS step under the stack lock (the measured cost). ----
        let outcome = {
            let mut s = states[wid].lock().expect("stack lock poisoned");
            step(g, plan, cfg, &mut s, &mut ws, &mut local_matches, sink)
        };
        match outcome {
            Ok(true) => continue, // worked a step
            Ok(false) => {}       // need new work
            Err(e) => {
                error.lock().expect("poisoned").get_or_insert(e.into());
                break;
            }
        }

        // ---- Acquire work: own chunk first, then steal. ----
        if let Some(range) = device.next_chunk(total) {
            if registered_idle {
                idle.fetch_sub(1, Ordering::SeqCst);
                registered_idle = false;
            }
            let mut roots = Vec::with_capacity(range.len());
            for local in range {
                let global = device.global_index(local);
                let (v1, v2) = match host_edges {
                    Some(e) => e[global],
                    None => g.arc(global),
                };
                if host_edges.is_some() || edge_admitted(g, plan, v1, v2) {
                    roots.push((v1, v2));
                    edges_admitted.fetch_add(1, Ordering::Relaxed);
                } else {
                    edges_filtered.fetch_add(1, Ordering::Relaxed);
                }
            }
            let mut s = states[wid].lock().expect("stack lock poisoned");
            debug_assert!(!s.has_work());
            s.roots = roots;
            s.root_iter = 0;
            s.entry = 2;
            continue;
        }

        // Steal scan: probe other warps round-robin.
        let mut stolen = None;
        for off in 1..num_warps {
            let victim = (wid + off) % num_warps;
            let mut v = states[victim].lock().expect("stack lock poisoned");
            if let Some(loot) = try_steal(&mut v, steal_forbidden) {
                stolen = Some(loot);
                break;
            }
        }
        match stolen {
            Some(loot) => {
                if registered_idle {
                    idle.fetch_sub(1, Ordering::SeqCst);
                    registered_idle = false;
                }
                steals.fetch_add(1, Ordering::Relaxed);
                let mut s = states[wid].lock().expect("stack lock poisoned");
                match loot {
                    Loot::Roots(r) => {
                        s.roots = r;
                        s.root_iter = 0;
                        s.entry = 2;
                        s.depth = 0;
                    }
                    Loot::Level {
                        level,
                        prefix,
                        candidates,
                    } => {
                        s.m[..level].copy_from_slice(&prefix);
                        s.levels[level].clear();
                        let mut failed = None;
                        for c in candidates {
                            if let Err(e) = s.levels[level].push(c) {
                                failed = Some(e);
                                break;
                            }
                        }
                        if let Some(e) = failed {
                            error
                                .lock()
                                .expect("poisoned")
                                .get_or_insert(EngineError::Stack(e));
                            break 'outer;
                        }
                        s.iters[level] = 0;
                        s.depth = level;
                        s.entry = level;
                    }
                }
            }
            None => {
                if !registered_idle {
                    idle.fetch_add(1, Ordering::SeqCst);
                    registered_idle = true;
                } else if idle.load(Ordering::SeqCst) == num_warps {
                    break 'outer;
                }
                std::thread::yield_now();
            }
        }
    }

    matches.fetch_add(local_matches, Ordering::Relaxed);
    ws.warp.stats.clone()
}

/// One DFS step. Returns `Ok(true)` if progress was made, `Ok(false)` if
/// the warp needs new work.
#[allow(clippy::too_many_arguments)]
fn step<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    s: &mut VictimState,
    ws: &mut Workspace,
    local_matches: &mut u64,
    sink: Option<&dyn MatchSink>,
) -> Result<bool, StackError> {
    let k = plan.k();
    if s.depth == 0 {
        // Start the next root edge.
        if s.root_iter >= s.roots.len() {
            return Ok(false);
        }
        let (v1, v2) = s.roots[s.root_iter];
        s.root_iter += 1;
        s.m[0] = v1;
        s.m[1] = v2;
        if k == 2 {
            *local_matches += 1;
            if let Some(sink) = sink {
                sink.emit(&s.m[..2]);
            }
            return Ok(true);
        }
        if cfg.fused_leaf && k == 3 {
            // The root edge's one remaining level is the leaf: fuse it.
            fused_leaf_step(g, plan, cfg, s, ws, 2, local_matches, sink);
            return Ok(true);
        }
        fill_level(g, plan, 2, &s.m, &mut s.levels, ws, cfg.ct_index, s.entry)?;
        if !cfg.fused_injectivity {
            separate_injectivity_pass(&mut s.levels[2], &s.m[..2], ws)?;
        }
        s.iters[2] = 0;
        s.depth = 2;
        s.entry = 2;
        return Ok(true);
    }

    let level = s.depth;
    if s.iters[level] < s.levels[level].len() {
        let v = s.levels[level].get(s.iters[level]);
        s.iters[level] += 1;
        if !accept(g, plan, level, v, &s.m, cfg.fused_injectivity) {
            return Ok(true);
        }
        s.m[level] = v;
        // Locality: warm the next sibling candidate's adjacency row
        // while v's subtree runs (no-op without the `simd` feature).
        if s.iters[level] < s.levels[level].len() {
            tdfs_gpu::simd::prefetch_read(g.neighbors(s.levels[level].get(s.iters[level])));
        }
        if level + 1 == k {
            *local_matches += 1;
            if let Some(sink) = sink {
                sink.emit(&s.m[..k]);
            }
            return Ok(true);
        }
        if cfg.fused_leaf && level + 2 == k {
            // Consume the leaf in place — no `stack[k-1]` fill, and the
            // level never becomes steal bait (a fused leaf is gone before
            // a thief could lock the stack anyway).
            fused_leaf_step(g, plan, cfg, s, ws, s.entry, local_matches, sink);
            return Ok(true);
        }
        fill_level(
            g,
            plan,
            level + 1,
            &s.m,
            &mut s.levels,
            ws,
            cfg.ct_index,
            s.entry,
        )?;
        if !cfg.fused_injectivity {
            separate_injectivity_pass(&mut s.levels[level + 1], &s.m[..level + 1], ws)?;
        }
        s.iters[level + 1] = 0;
        s.depth = level + 1;
    } else if level == s.entry {
        s.depth = 0; // task finished
    } else {
        s.depth = level - 1;
    }
    Ok(true)
}

/// Fused leaf under the stack lock: one filtered intersection counts and
/// emits the matches of the full prefix `s.m[..k-1]` without
/// materializing `levels[k-1]`.
#[allow(clippy::too_many_arguments)]
fn fused_leaf_step<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    s: &VictimState,
    ws: &mut Workspace,
    valid_from: usize,
    local_matches: &mut u64,
    sink: Option<&dyn MatchSink>,
) {
    let k = plan.k();
    let head = &s.levels[..k - 1];
    if let Some(sink) = sink {
        let mut buf = std::mem::take(&mut ws.leaf_buf);
        buf.clear();
        buf.extend_from_slice(&s.m[..k - 1]);
        buf.push(0);
        fuse_leaf_level(g, plan, &s.m, head, ws, cfg.ct_index, valid_from, |v| {
            *local_matches += 1;
            buf[k - 1] = v;
            sink.emit(&buf);
        });
        ws.leaf_buf = buf;
    } else {
        fuse_leaf_level(g, plan, &s.m, head, ws, cfg.ct_index, valid_from, |_| {
            *local_matches += 1;
        });
    }
}

/// STMatch's half steal: from the shallowest stealable position —
/// unprocessed root edges first, then the shallowest level with
/// unconsumed candidates — take half of what remains.
fn try_steal(v: &mut VictimState, steal_forbidden: &[bool]) -> Option<Loot> {
    // Roots ("level 1").
    let remaining_roots = v.roots.len() - v.root_iter;
    if remaining_roots >= 2 {
        let take = remaining_roots / 2;
        let stolen = v.roots.split_off(v.roots.len() - take);
        return Some(Loot::Roots(stolen));
    }
    if v.depth == 0 {
        return None;
    }
    // Shallowest level with ≥ 2 unconsumed candidates (stealing a single
    // candidate is not worth the copy).
    #[allow(clippy::needless_range_loop)] // indexes three parallel arrays
    for level in v.entry..=v.depth {
        if steal_forbidden[level] {
            continue;
        }
        let len = v.levels[level].len();
        let remaining = len - v.iters[level];
        if remaining >= 2 {
            let take = remaining / 2;
            let mut candidates = Vec::with_capacity(take);
            for i in (len - take)..len {
                candidates.push(v.levels[level].get(i));
            }
            v.levels[level].truncate(len - take);
            return Some(Loot::Level {
                level,
                prefix: v.m[..level].to_vec(),
                candidates,
            });
        }
    }
    None
}
