//! The PBE-style BFS engine (paper §II, "GPU Solutions to Subgraph
//! Matching").
//!
//! Level-synchronous expansion under a device-memory budget: before
//! extending the frontier, PBE "estimates an upper bound of the number of
//! candidate vertices (e.g., by the smallest set size before set
//! intersection) and cuts the subgraphs into some small batches", then
//! for each batch computes "the next-level subgraphs once to get the
//! exact space needed … followed by another pass of subgraph computation
//! to populate these subgraphs" — the count-then-fill double computation
//! and per-batch allocate/release cycle whose overheads the paper
//! contrasts with T-DFS's bounded stacks.
//!
//! The engine applies the same plan semantics as the DFS engines
//! (symmetry breaking, labels, injectivity), so counts agree.

use std::time::Instant;

use tdfs_graph::GraphView;
use tdfs_query::plan::QueryPlan;

use crate::attribution::ChangedEdges;
use crate::candidates::{accept, walk, Interval, Operands, Workspace};
use crate::config::MatcherConfig;
use crate::engine::{EngineError, InitialSource};
use crate::sink::MatchSink;
use crate::stats::{RunResult, RunStats};

/// Runs the BFS engine over `source`, which seeds the first frontier.
pub fn run<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    budget_bytes: usize,
    source: InitialSource,
    sink: Option<&dyn MatchSink>,
) -> Result<RunResult, EngineError> {
    let start = Instant::now();
    let deadline = cfg.time_limit.map(|l| start + l);
    let k = plan.k();
    let mut stats = RunStats::default();
    let (mut frontier, mut stride) = source.frontier(g, plan, &mut stats);
    let mut peak_bytes = frontier.len() * 4;
    let mut matches = 0u64;

    if stride == k {
        matches = (frontier.len() / k) as u64;
        if let Some(sink) = sink {
            for m in frontier.chunks_exact(k) {
                sink.emit(m);
            }
        }
    }

    while stride < k {
        if cfg.cancel_requested() {
            break;
        }
        let num_partials = frontier.len() / stride;
        if num_partials == 0 {
            break;
        }
        let last_level = stride + 1 == k;
        let new_stride = stride + 1;

        // ---- Upper-bound estimate and batching. ----
        let mut batches: Vec<std::ops::Range<usize>> = Vec::new();
        let mut batch_start = 0usize;
        let mut batch_bytes = 0usize;
        for (p, m) in frontier.chunks_exact(stride).enumerate() {
            let cost = upper_bound(g, plan, m) * new_stride * 4;
            if p > batch_start && batch_bytes + cost > budget_bytes {
                batches.push(batch_start..p);
                batch_start = p;
                batch_bytes = 0;
            }
            batch_bytes += cost;
        }
        batches.push(batch_start..num_partials);
        stats.bfs_batches += batches.len() as u64;

        let mut next_frontier: Vec<u32> = Vec::new();
        for batch in batches {
            if cfg.cancel_requested() {
                break;
            }
            if let Some(d) = deadline {
                if Instant::now() > d {
                    return Err(EngineError::TimeLimit);
                }
            }
            // ---- Pass 1: count (exact sizes); the last level also
            // emits completed matches to the sink. ----
            let counts = parallel_pass(
                g,
                plan,
                cfg,
                &frontier,
                stride,
                batch.clone(),
                None,
                if last_level { sink } else { None },
                source.changed().map(|c| &**c),
            );
            let total: usize = counts.iter().sum();
            if last_level {
                matches += total as u64;
                continue;
            }
            // ---- Exact allocation + Pass 2: fill. ----
            let mut offsets = Vec::with_capacity(counts.len() + 1);
            offsets.push(0usize);
            for c in &counts {
                offsets.push(offsets.last().unwrap() + c);
            }
            let mut out = vec![0u32; total * new_stride];
            parallel_pass(
                g,
                plan,
                cfg,
                &frontier,
                stride,
                batch.clone(),
                Some((&mut out, &offsets)),
                None,
                None,
            );
            peak_bytes =
                peak_bytes.max(frontier.len() * 4 + next_frontier.len() * 4 + out.len() * 4);
            next_frontier.extend_from_slice(&out);
            // `out` released here — PBE's per-batch release/alloc cycle.
        }

        if last_level {
            break;
        }
        peak_bytes = peak_bytes.max(frontier.len() * 4 + next_frontier.len() * 4);
        frontier = next_frontier;
        stride = new_stride;
    }

    stats.stack_bytes_peak = peak_bytes;
    stats.cancelled = cfg.cancel_requested();
    let mut result = RunResult {
        matches,
        elapsed: start.elapsed(),
        stats,
    };
    source.account(g, &mut result);
    Ok(result)
}

/// PBE's upper bound on the candidates for the position after the
/// partial `m`: "the smallest set size before set intersection", the
/// smallest backward row.
pub(crate) fn upper_bound<V: GraphView>(g: &V, plan: &QueryPlan, m: &[u32]) -> usize {
    plan.levels[m.len()]
        .backward
        .iter()
        .map(|&b| g.degree(m[b]))
        .min()
        .unwrap_or(0)
}

/// Walks Eq. (1) for the position after the partial `m` from scratch
/// (BFS keeps no stored levels to seed from), inside the position's
/// symmetry interval, and hands each candidate that passes the full
/// consumption predicate to `emit`, in ascending order. At the leaf,
/// `changed` (a maintenance pass's attribution order) also drops every
/// match the pass does not own.
pub(crate) fn extend<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    m: &[u32],
    ws: &mut Workspace,
    changed: Option<&ChangedEdges>,
    emit: impl FnMut(u32),
) {
    let level = m.len();
    let changed = changed.filter(|_| level + 1 == plan.k());
    let keep =
        |v: u32| accept(g, plan, level, v, m, true) && changed.is_none_or(|c| c.owns(plan, m, v));
    let ops = Operands::rows(&plan.levels[level].backward, Interval::of(plan, level, m));
    walk(g, m, ops, ws, keep, emit);
}

/// Runs one batch pass across `cfg.num_warps` workers, extending each
/// partial of the batch by one position. Without an output target it
/// returns per-partial candidate counts (emitting full matches to
/// `sink`, and keeping only the matches `changed` attributes to the
/// run, when given); with one it writes the extended partials at the
/// given offsets.
#[allow(clippy::too_many_arguments)]
fn parallel_pass<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    frontier: &[u32],
    stride: usize,
    batch: std::ops::Range<usize>,
    fill: Option<(&mut Vec<u32>, &[usize])>,
    sink: Option<&dyn MatchSink>,
    changed: Option<&ChangedEdges>,
) -> Vec<usize> {
    let n = batch.len();
    let workers = cfg.num_warps.min(n.max(1));
    let chunk = n.div_ceil(workers);
    let mut counts = vec![0usize; n];
    // Locality: warm the next partial's newest vertex row while this
    // one is expanded.
    let prefetch_after = |p: usize| {
        if (p + 2) * stride <= frontier.len() {
            tdfs_gpu::simd::prefetch_read(g.neighbors(frontier[(p + 2) * stride - 1]));
        }
    };

    match fill {
        None => {
            std::thread::scope(|scope| {
                for (widx, counts_chunk) in counts.chunks_mut(chunk).enumerate() {
                    let batch = batch.clone();
                    scope.spawn(move || {
                        let mut ws = Workspace::for_config(cfg);
                        let mut full = vec![0u32; stride + 1];
                        for (i, slot) in counts_chunk.iter_mut().enumerate() {
                            let p = batch.start + widx * chunk + i;
                            let m = &frontier[p * stride..(p + 1) * stride];
                            prefetch_after(p);
                            if sink.is_some() {
                                full[..stride].copy_from_slice(m);
                            }
                            let mut found = 0usize;
                            extend(g, plan, m, &mut ws, changed, |v| {
                                found += 1;
                                if let Some(sink) = sink {
                                    full[stride] = v;
                                    sink.emit(&full);
                                }
                            });
                            *slot = found;
                        }
                    });
                }
            });
        }
        Some((out, offsets)) => {
            let out_chunks = split_by_offsets(out, offsets, chunk, stride + 1);
            std::thread::scope(|scope| {
                for (widx, out_chunk) in out_chunks.into_iter().enumerate() {
                    let batch = batch.clone();
                    scope.spawn(move || {
                        let mut ws = Workspace::for_config(cfg);
                        let mut cursor = 0usize;
                        let lo = widx * chunk;
                        let hi = ((widx + 1) * chunk).min(batch.len());
                        for i in lo..hi {
                            let p = batch.start + i;
                            let m = &frontier[p * stride..(p + 1) * stride];
                            prefetch_after(p);
                            extend(g, plan, m, &mut ws, None, |v| {
                                out_chunk[cursor..cursor + stride].copy_from_slice(m);
                                out_chunk[cursor + stride] = v;
                                cursor += stride + 1;
                            });
                        }
                        debug_assert_eq!(cursor, out_chunk.len());
                    });
                }
            });
        }
    }
    counts
}

/// Splits the output buffer into per-worker disjoint mutable regions
/// aligned with the per-partial offsets.
fn split_by_offsets<'a>(
    out: &'a mut [u32],
    offsets: &[usize],
    chunk: usize,
    new_stride: usize,
) -> Vec<&'a mut [u32]> {
    let n = offsets.len() - 1;
    let mut regions = Vec::new();
    let mut rest = out;
    let mut consumed = 0usize;
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        let bytes = (offsets[end] - offsets[start]) * new_stride;
        let (head, tail) = rest.split_at_mut(bytes);
        debug_assert_eq!(consumed, offsets[start] * new_stride);
        consumed += bytes;
        regions.push(head);
        rest = tail;
        start = end;
    }
    regions
}
