//! # tdfs-core
//!
//! The T-DFS subgraph-matching engine (reproduction of *Faster
//! Depth-First Subgraph Matching on GPUs*, ICDE 2024) plus the baseline
//! systems the paper compares against, all inside one framework:
//!
//! - the **timeout** strategy with the lock-free task queue — T-DFS
//!   itself ([`engine`]);
//! - **half stealing** with lockable per-warp stacks — the STMatch model
//!   ([`half_steal`]);
//! - **new-kernel** splitting of oversized fanouts — the EGSM model
//!   (hooked into [`engine`]);
//! - **BFS** with pipelined memory batching — the PBE model ([`bfs`]);
//! - the **hybrid** BFS→DFS engine of the paper's future work
//!   ([`hybrid`]);
//! - a serial recursive [`mod@reference`] matcher (ground truth);
//! - [`multi`]-device round-robin execution.
//!
//! The five engines share one scaffold, so each differs only where the
//! paper says it does (load balancing, stack layout, and PBE's
//! count-then-fill): one Eq. (1) walk ([`candidates`]), one
//! initial-task source with one edge-counting rule
//! ([`engine::InitialSource`]), and one warp harness in [`engine`]
//! (first-error cell, deadline, and a launcher that runs a single warp
//! inline).
//!
//! ## Quickstart
//!
//! ```
//! use tdfs_core::{match_pattern, MatcherConfig};
//! use tdfs_graph::GraphBuilder;
//! use tdfs_query::PatternId;
//!
//! // A K5 data graph contains C(5,4) = 5 distinct K4 subgraphs.
//! let mut b = GraphBuilder::new();
//! for u in 0..5 {
//!     for v in (u + 1)..5 {
//!         b.push_edge(u, v);
//!     }
//! }
//! let g = b.build();
//! let result = match_pattern(&g, &PatternId(2).pattern(), &MatcherConfig::tdfs()).unwrap();
//! assert_eq!(result.matches, 5);
//! ```

/// `chaos_inject!("name")` is `true` when the named fault point should
/// take its failure path; compile-time `false` without the `chaos`
/// feature. Bind the result with `let` before using it in a larger
/// boolean expression (clippy `nonminimal_bool`).
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

pub mod bfs;
pub mod cancel;
pub mod candidates;
pub mod config;
pub mod engine;
pub mod half_steal;
pub mod hybrid;
pub mod multi;
pub mod reference;
pub mod retry;
pub mod sink;
pub mod stack;
pub mod stats;
pub mod storage;

pub use cancel::CancelFlag;
pub use config::{ArrayCapacity, MatcherConfig, StackConfig, Strategy};
pub use engine::{host_filter_edges, EngineError};
pub use multi::{run_multi_device, MultiDeviceResult};
pub use reference::{reference_count, reference_count_pattern};
pub use retry::{retry, Backoff, BackoffPolicy, Retry};
pub use sink::{CollectSink, FnSink, MatchSink};
pub use stats::{RunResult, RunStats};
pub use storage::{budgeted_map_options, BudgetCharge};
// Re-exported so downstream crates (e.g. the service's snapshot codec)
// can name every part of a `MatcherConfig` without depending on
// `tdfs-mem` directly.
pub use tdfs_mem::{MemoryBudget, OverflowPolicy};

use tdfs_gpu::device::Device;
use tdfs_gpu::Clock;
use tdfs_graph::GraphView;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;

/// Matches `pattern` against `g` under `cfg`, building the query plan
/// with the configuration's plan options.
pub fn match_pattern<V: GraphView>(
    g: &V,
    pattern: &Pattern,
    cfg: &MatcherConfig,
) -> Result<RunResult, EngineError> {
    let plan = QueryPlan::build_with(pattern, cfg.plan);
    match_plan(g, &plan, cfg)
}

/// Matches a precompiled `plan` against `g` under `cfg`, dispatching to
/// the strategy's engine.
pub fn match_plan<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
) -> Result<RunResult, EngineError> {
    run_engine(g, plan, cfg, None, None)
}

/// [`match_plan`] that additionally streams every match to `sink`
/// (position-indexed assignments; see [`sink::MatchSink`]).
pub fn match_plan_with_sink<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    sink: Option<&dyn sink::MatchSink>,
) -> Result<RunResult, EngineError> {
    run_engine(g, plan, cfg, None, sink)
}

/// [`match_plan_with_sink`] restricted to an explicit initial-edge
/// list — the durable layer's shard entry point.
///
/// `edges` must be a subset of [`engine::host_filter_edges`]`(g, plan)`
/// (already admitted under the plan's filter and symmetry constraints);
/// no re-filtering happens. Because every match is rooted at exactly
/// one admitted initial edge, counts are **additive over disjoint edge
/// subsets**: running this over a partition of the admitted edge list
/// and summing yields exactly [`match_plan`]'s count, for every
/// strategy.
pub fn match_plan_on_edges<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    edges: Vec<(u32, u32)>,
    sink: Option<&dyn sink::MatchSink>,
) -> Result<RunResult, EngineError> {
    run_engine(g, plan, cfg, Some(edges), sink)
}

/// The one place a [`Strategy`] picks its engine, and the initial tasks
/// pick their [`engine::InitialSource`]. `edges` is an optional
/// pre-admitted initial-edge list (`None` = the whole graph).
fn run_engine<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    edges: Option<Vec<(u32, u32)>>,
    sink: Option<&dyn sink::MatchSink>,
) -> Result<RunResult, EngineError> {
    let device = || Device::in_group(0, 1, cfg.chunk_size, cfg.queue_capacity);
    let source = engine::InitialSource::choose(g, plan, cfg, edges);
    match cfg.strategy {
        Strategy::Timeout { .. } | Strategy::NewKernel { .. } => engine::run_on_device(
            g,
            plan,
            cfg,
            &device(),
            &stack::StackFactory::for_config(cfg, g.max_degree()),
            Clock::real(),
            sink,
            source,
        ),
        Strategy::HalfSteal => half_steal::run(g, plan, cfg, &device(), source, sink),
        Strategy::Bfs { budget_bytes } => bfs::run(g, plan, cfg, budget_bytes, source, sink),
        Strategy::Hybrid { budget_bytes, .. } => {
            hybrid::run(g, plan, cfg, budget_bytes, source, sink)
        }
    }
}

/// Finds up to `limit` concrete matches (plus the match count).
///
/// Returned assignments are **pattern-vertex indexed**: `m[u]` is the
/// data vertex matched to pattern vertex `u`. Order across matches is
/// nondeterministic (warps race).
///
/// Once `limit` matches are collected the run is cancelled cooperatively
/// instead of enumerating the rest of the space: the returned count is
/// then *partial* (at least `limit`) and `result.stats.cancelled` is
/// set. A run that finishes under the limit reports the exact count with
/// `cancelled` unset. The early exit reuses the caller's
/// [`MatcherConfig::cancel`] token when one is attached (so an external
/// cancel also stops the collection), and a private token otherwise.
pub fn find_matches<V: GraphView>(
    g: &V,
    pattern: &Pattern,
    cfg: &MatcherConfig,
    limit: usize,
) -> Result<(RunResult, Vec<Vec<u32>>), EngineError> {
    let plan = QueryPlan::build_with(pattern, cfg.plan);
    let flag = cfg.cancel.clone().unwrap_or_default();
    let collector = CollectSink::with_cancel(limit, flag.clone());
    let cfg = cfg.clone().with_cancel(flag);
    let result = match_plan_with_sink(g, &plan, &cfg, Some(&collector))?;
    let matches = collector
        .into_matches()
        .iter()
        .map(|by_pos| plan.by_vertex(by_pos))
        .collect();
    Ok((result, matches))
}

/// Convenience: count matches with the default T-DFS configuration.
///
/// Panics on engine failure (stack exhaustion), which cannot happen with
/// the default paged configuration unless the arena is undersized for
/// the graph.
pub fn count_matches<V: GraphView>(g: &V, pattern: &Pattern) -> u64 {
    match_pattern(g, pattern, &MatcherConfig::tdfs())
        .expect("default configuration failed")
        .matches
}
