//! The hybrid BFS→DFS engine — the paper's stated future work (§V):
//! "explore using BFS subgraph extension initially when the extended
//! subgraphs fit in the device memory, and switch to DFS processing when
//! the next level of subgraphs cannot fit in device memory", dividing
//! device memory between subgraph buffers and DFS stacks.
//!
//! Phase 1 expands levels breadth-first (coalesced, like EGSM's BFS
//! mode) while the PBE-style upper bound says the next frontier fits in
//! the budget. Phase 2 hands the materialized frontier to the warp
//! engine as initial tasks: each partial is claimed through the chunked
//! cursor and finished by depth-first backtracking with the configured
//! stacks. Queue decomposition is disabled past prefix length 2 (tasks
//! in `Q_task` encode at most 3 matched vertices); the fine granularity
//! of the frontier provides the load balancing instead.

use std::time::Instant;

use tdfs_gpu::device::Device;
use tdfs_gpu::Clock;
use tdfs_graph::GraphView;
use tdfs_query::plan::QueryPlan;

use crate::bfs::{extend, upper_bound};
use crate::candidates::Workspace;
use crate::config::{MatcherConfig, Strategy, DEFAULT_TAU};
use crate::engine::{run_on_device, EngineError, InitialSource};
use crate::sink::MatchSink;
use crate::stack::StackFactory;
use crate::stats::{RunResult, RunStats};

/// Runs the hybrid engine over `source`: BFS while the next level fits
/// in `budget_bytes`, then DFS over the frontier.
pub fn run<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    budget_bytes: usize,
    source: InitialSource,
    sink: Option<&dyn MatchSink>,
) -> Result<RunResult, EngineError> {
    let start = Instant::now();
    let k = plan.k();
    let deadline = cfg.time_limit.map(|l| start + l);

    // ---- Phase 1: BFS expansion under the memory budget. ----
    let mut bfs_stats = RunStats::default();
    let (mut frontier, mut stride) = source.frontier(g, plan, &mut bfs_stats);
    let mut ws = Workspace::for_config(cfg);

    while stride < k {
        // Cancellation during the BFS phase: fall through to the DFS
        // phase, which observes the same token immediately and returns
        // the partial result with `stats.cancelled` set.
        if cfg.cancel_requested() {
            break;
        }
        if let Some(d) = deadline {
            if Instant::now() > d {
                return Err(EngineError::TimeLimit);
            }
        }
        // PBE-style upper bound for the next frontier.
        let mut est_bytes = 0usize;
        for m in frontier.chunks_exact(stride) {
            est_bytes += upper_bound(g, plan, m) * (stride + 1) * 4;
            if est_bytes > budget_bytes {
                break;
            }
        }
        if est_bytes > budget_bytes || stride + 1 == k {
            // Next level may not fit (or is the output level):
            // switch to DFS.
            break;
        }
        // Materialize the next level breadth-first.
        let mut next = Vec::new();
        let num_partials = frontier.len() / stride;
        for p in 0..num_partials {
            let m = &frontier[p * stride..(p + 1) * stride];
            // Locality: warm the next partial's newest vertex row while
            // this one's candidates are intersected.
            if p + 1 < num_partials {
                tdfs_gpu::simd::prefetch_read(g.neighbors(frontier[(p + 2) * stride - 1]));
            }
            extend(g, plan, m, &mut ws, None, |v| {
                next.extend_from_slice(m);
                next.push(v);
            });
        }
        frontier = next;
        stride += 1;
        bfs_stats.bfs_batches += 1;
        if frontier.is_empty() {
            break;
        }
    }

    // ---- Phase 2: DFS over the frontier as initial tasks. ----
    let device = Device::in_group(0, 1, cfg.chunk_size, cfg.queue_capacity);
    // Remaining time budget only.
    let dfs_cfg = MatcherConfig {
        time_limit: cfg.time_limit.map(|l| l.saturating_sub(start.elapsed())),
        strategy: Strategy::Timeout {
            tau: match cfg.strategy {
                Strategy::Timeout { tau } => tau,
                _ => Some(DEFAULT_TAU),
            },
        },
        ..cfg.clone()
    };
    let mut result = run_on_device(
        g,
        plan,
        &dfs_cfg,
        &device,
        &StackFactory::for_config(&dfs_cfg, g.max_degree()),
        Clock::real(),
        sink,
        InitialSource::Partials {
            data: frontier,
            stride,
            changed: source.changed().cloned(),
        },
    )?;
    result.elapsed = start.elapsed();
    bfs_stats.warp = ws.warp.stats.clone();
    result.stats.merge(&bfs_stats);
    source.account(g, &mut result);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_count;
    use tdfs_graph::generators::barabasi_albert;
    use tdfs_query::PatternId;

    fn check(budget: usize, pid: u8) {
        let g = barabasi_albert(300, 4, 17);
        let plan = QueryPlan::build(&PatternId(pid).pattern());
        let cfg = MatcherConfig::tdfs().with_warps(3);
        let r = run(&g, &plan, &cfg, budget, InitialSource::Arcs, None).unwrap();
        assert_eq!(r.matches, reference_count(&g, &plan), "P{pid} @ {budget}");
    }

    #[test]
    fn tiny_budget_degenerates_to_pure_dfs() {
        // Budget 0: switch immediately, stride stays 2.
        check(0, 4);
    }

    #[test]
    fn huge_budget_runs_bfs_until_last_level() {
        check(usize::MAX, 4);
        check(usize::MAX, 8);
    }

    #[test]
    fn mid_budget_switches_partway() {
        for budget in [1 << 10, 1 << 14, 1 << 18] {
            check(budget, 5);
        }
    }

    #[test]
    fn labeled_hybrid_is_correct() {
        let g = barabasi_albert(250, 5, 18);
        let n = g.num_vertices();
        let g = g.with_labels(tdfs_graph::generators::random_labels(n, 4, 19));
        let plan = QueryPlan::build(&PatternId(14).pattern());
        let cfg = MatcherConfig::tdfs().with_warps(2);
        let r = run(&g, &plan, &cfg, 1 << 12, InitialSource::Arcs, None).unwrap();
        assert_eq!(r.matches, reference_count(&g, &plan));
    }
}
