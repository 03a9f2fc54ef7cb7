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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tdfs_gpu::device::Device;
use tdfs_graph::GraphView;
use tdfs_mem::{ArrayLevel, LevelStore, OverflowPolicy, StackError};
use tdfs_query::plan::QueryPlan;

use crate::candidates::{accept, fill_level, Workspace};
use crate::config::{ArrayCapacity, MatcherConfig, StackConfig};
use crate::engine::{lock, warp_share, ArcCursor, EngineError, InitialSource, Run};
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

/// The half-steal run state: the shared [`Run`] plus every warp's
/// lockable stack.
struct HalfSteal<'a, V: GraphView> {
    run: Run<'a, V>,
    states: Vec<Mutex<VictimState>>,
    steals: AtomicU64,
}

/// Runs the half-steal engine on one device over `source`.
pub fn run<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    device: &Device,
    source: InitialSource,
    sink: Option<&dyn MatchSink>,
) -> Result<RunResult, EngineError> {
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
    let shared = HalfSteal {
        run: Run::new(g, plan, cfg, device, source, sink),
        states: (0..cfg.num_warps)
            .map(|_| Mutex::new(VictimState::new(k, capacity, policy)))
            .collect(),
        steals: AtomicU64::new(0),
    };
    let warps = shared.run.launch(&|wid, _| warp_loop(&shared, wid));
    let stats = RunStats {
        steals: shared.steals.into_inner(),
        stack_bytes_peak: cfg.num_warps * k * capacity * 4,
        ..RunStats::default()
    };
    shared.run.finish(&warps, stats)
}

fn warp_loop<V: GraphView>(shared: &HalfSteal<'_, V>, wid: usize) -> RunStats {
    let run = &shared.run;
    let mut ws = Workspace::for_config(run.cfg);
    let mut local_matches = 0u64;
    let mut counted = RunStats::default();
    let mut m = vec![0u32; run.plan.k()];
    let num_warps = run.cfg.num_warps;
    let total = run.source.len(run.g);
    let mut registered_idle = false;
    let mut steps = 0u32;
    let mut cursor = ArcCursor::default();

    'outer: loop {
        steps = steps.wrapping_add(1);
        if steps & 0x3FF == 0 && (run.cancelled() || run.over_deadline()) {
            break;
        }
        if run.failed() {
            break;
        }
        // ---- One DFS step under the stack lock (the measured cost). ----
        let outcome = step(
            run,
            &mut lock(&shared.states[wid]),
            &mut ws,
            &mut local_matches,
        );
        match outcome {
            Ok(true) => continue, // worked a step
            Ok(false) => {}       // need new work
            Err(e) => {
                run.record_error(e.into());
                break;
            }
        }

        // ---- Acquire work: own chunk first, then steal. ----
        if let Some(range) = run.device.next_chunk(total) {
            if registered_idle {
                run.idle.fetch_sub(1, Ordering::SeqCst);
                registered_idle = false;
            }
            let mut roots = Vec::with_capacity(range.len());
            for local in range {
                let i = run.device.global_index(local);
                if run.seed(i, &mut m, &mut counted, &mut cursor).is_some() {
                    roots.push((m[0], m[1]));
                }
            }
            let mut s = lock(&shared.states[wid]);
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
            let mut v = lock(&shared.states[victim]);
            if let Some(loot) = try_steal(&mut v, run.plan) {
                stolen = Some(loot);
                break;
            }
        }
        match stolen {
            Some(loot) => {
                if registered_idle {
                    run.idle.fetch_sub(1, Ordering::SeqCst);
                    registered_idle = false;
                }
                shared.steals.fetch_add(1, Ordering::Relaxed);
                let mut s = lock(&shared.states[wid]);
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
                            run.record_error(EngineError::Stack(e));
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
                    run.idle.fetch_add(1, Ordering::SeqCst);
                    registered_idle = true;
                } else if run.idle.load(Ordering::SeqCst) == num_warps {
                    break 'outer;
                }
                std::thread::yield_now();
            }
        }
    }

    run.matches.fetch_add(local_matches, Ordering::Relaxed);
    warp_share(counted, &ws, &lock(&shared.states[wid]).levels)
}

/// One DFS step. Returns `Ok(true)` if progress was made, `Ok(false)` if
/// the warp needs new work.
fn step<V: GraphView>(
    run: &Run<'_, V>,
    s: &mut VictimState,
    ws: &mut Workspace,
    local_matches: &mut u64,
) -> Result<bool, StackError> {
    let (g, plan, cfg) = (run.g, run.plan, run.cfg);
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
            run.leaf(&s.m, local_matches);
            return Ok(true);
        }
        if cfg.fused_leaf && k == 3 {
            // The root edge's one remaining level is the leaf: fuse it.
            *local_matches += run.count_leaf(&s.m, &s.levels, ws, 2);
            return Ok(true);
        }
        fill_level(g, plan, 2, &s.m, &mut s.levels, ws, s.entry)?;
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
        // while v's subtree runs (no-op off x86-64).
        if s.iters[level] < s.levels[level].len() {
            tdfs_gpu::simd::prefetch_read(g.neighbors(s.levels[level].get(s.iters[level])));
        }
        if level + 1 == k {
            run.leaf(&s.m, local_matches);
            return Ok(true);
        }
        if cfg.fused_leaf && level + 2 == k {
            // Consume the leaf in place — no `stack[k-1]` fill, and the
            // level never becomes steal bait (a fused leaf is gone before
            // a thief could lock the stack anyway).
            *local_matches += run.count_leaf(&s.m, &s.levels, ws, s.entry);
            return Ok(true);
        }
        fill_level(g, plan, level + 1, &s.m, &mut s.levels, ws, s.entry)?;
        s.iters[level + 1] = 0;
        s.depth = level + 1;
    } else if level == s.entry {
        s.depth = 0; // task finished
    } else {
        s.depth = level - 1;
    }
    Ok(true)
}

/// STMatch's half steal: from the shallowest stealable position —
/// unprocessed root edges first, then the shallowest level with
/// unconsumed candidates — take half of what remains. A level that seeds
/// intersection reuse for deeper levels ([`LevelPlan::reused`]) keeps
/// its full candidate set: a thief truncating it would corrupt the
/// victim's later reuse seeds and lose matches.
///
/// [`LevelPlan::reused`]: tdfs_query::plan::LevelPlan::reused
fn try_steal(v: &mut VictimState, plan: &QueryPlan) -> Option<Loot> {
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
        if plan.levels[level].reused {
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
