//! A resident device: one task queue and one stack arena reused across
//! the shards of a query, as a durable shard worker runs them. Every
//! shard run on it must report exactly what a fresh device reports.

use std::sync::Arc;
use std::time::Duration;

use tdfs_core::config::{MatcherConfig, StackConfig};
use tdfs_core::engine::{run_on_device, InitialSource};
use tdfs_core::stack::StackFactory;
use tdfs_core::{host_filter_edges, reference_count, FnSink, MatchSink, RunResult};
use tdfs_gpu::device::Device;
use tdfs_gpu::Clock;
use tdfs_graph::generators::barabasi_albert;
use tdfs_graph::CsrGraph;
use tdfs_query::plan::QueryPlan;
use tdfs_query::PatternId;

/// The patterns of the benchmark's `motif_mix` workload.
const MOTIFS: [u8; 9] = [1, 2, 3, 4, 5, 6, 7, 9, 10];

type Edges = [(u32, u32)];

fn device(cfg: &MatcherConfig) -> Device {
    Device::in_group(0, 1, cfg.chunk_size, cfg.queue_capacity)
}

fn stacks(g: &CsrGraph, cfg: &MatcherConfig) -> StackFactory {
    StackFactory::for_config(cfg, g.max_degree())
}

/// One single-warp shard run. With `ticking`, every match moves a mock
/// clock one nanosecond on, so under τ = 0 the walk decomposes into
/// queue tasks at the same points on every run.
fn run_shard(
    g: &CsrGraph,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    (device, stacks): (&Device, &StackFactory),
    shard: &Edges,
    ticking: bool,
) -> RunResult {
    let clock = Clock::mock();
    let tick = clock.clone();
    let sink = FnSink(move |_: &[u32]| tick.advance(1));
    run_on_device(
        g,
        plan,
        cfg,
        device,
        stacks,
        clock,
        ticking.then_some(&sink as &dyn MatchSink),
        InitialSource::Edges(shard.to_vec()),
    )
    .expect("shard run failed")
}

/// Runs `shards` in order on one device and arena, and each on a fresh
/// device and arena, and asserts the two agree shard by shard. Returns
/// the reused device's results.
fn compare(
    g: &CsrGraph,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    shards: &[&Edges],
    ticking: bool,
) -> Vec<RunResult> {
    let (dev, st) = (device(cfg), stacks(g, cfg));
    let arena = Arc::clone(st.arena().expect("paged stacks"));
    let mut out = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let allocs = arena.total_allocs();
        let reused = run_shard(g, plan, cfg, (&dev, &st), shard, ticking);
        let fresh_stacks = stacks(g, cfg);
        let fresh = run_shard(g, plan, cfg, (&device(cfg), &fresh_stacks), shard, ticking);
        assert_eq!(reused.matches, fresh.matches, "shard {i}: count");
        assert_eq!(reused.stats, fresh.stats, "shard {i}: stats");
        assert_eq!(reused.stats.pages_leaked, 0, "shard {i}: leaked pages");
        // Every page the run faulted in came from the one arena.
        assert!(Arc::ptr_eq(st.arena().unwrap(), &arena));
        assert_eq!(arena.total_allocs() - allocs, reused.stats.page_faults);
        assert_eq!(arena.pages_in_use(), 0);
        assert!(dev.queue.is_empty());
        out.push(reused);
    }
    out
}

fn motif_plan(id: u8, cfg: &MatcherConfig) -> QueryPlan {
    QueryPlan::build_with(&PatternId(id).pattern(), cfg.plan)
}

#[test]
fn shards_on_a_reused_device_match_fresh_devices() {
    let g = barabasi_albert(400, 5, 21);
    let cfg = MatcherConfig::tdfs().with_warps(1).with_tau(None);
    for id in MOTIFS {
        let plan = motif_plan(id, &cfg);
        let edges = host_filter_edges(&g, &plan);
        let shards: Vec<&Edges> = edges.chunks(64).collect();
        assert!(shards.len() > 1, "P{id}: one shard tests no reuse");
        let results = compare(&g, &plan, &cfg, &shards, false);
        let total: u64 = results.iter().map(|r| r.matches).sum();
        assert_eq!(total, reference_count(&g, &plan), "P{id}");
    }
}

/// τ = 0 with a clock that ticks per match puts tasks through the queue,
/// so its counters and peak must restart between runs too.
#[test]
fn queue_counters_restart_between_runs_on_one_device() {
    let g = barabasi_albert(400, 5, 21);
    let cfg = MatcherConfig::tdfs()
        .with_warps(1)
        .with_tau(Some(Duration::ZERO));
    let mut enqueued = 0;
    for id in MOTIFS {
        let plan = motif_plan(id, &cfg);
        let edges = host_filter_edges(&g, &plan);
        let shards: Vec<&Edges> = edges.chunks(64).collect();
        let results = compare(&g, &plan, &cfg, &shards, true);
        let total: u64 = results.iter().map(|r| r.matches).sum();
        assert_eq!(total, reference_count(&g, &plan), "P{id}");
        enqueued += results.iter().map(|r| r.stats.tasks_enqueued).sum::<u64>();
    }
    assert!(enqueued > 0, "no run decomposed into queue tasks");
}

/// A shard that spills out of a tiny arena, then one that fits: the
/// second reports its own arena peak and no spill, as on a fresh device.
#[test]
fn a_spill_does_not_follow_the_device_into_the_next_shard() {
    let g = barabasi_albert(400, 5, 21);
    let mut cfg = MatcherConfig::tdfs().with_warps(1).with_tau(None);
    cfg.stack = StackConfig::Paged {
        arena_pages: 2,
        table_len: 40,
        spill: true,
    };
    for id in MOTIFS {
        let plan = motif_plan(id, &cfg);
        let edges = host_filter_edges(&g, &plan);
        let fresh = |shard: &Edges| {
            let (dev, st) = (device(&cfg), stacks(&g, &cfg));
            run_shard(&g, &plan, &cfg, (&dev, &st), shard, false).stats
        };
        // A BA graph's hub rows come first and its fringe rows last.
        let hubs = &edges[..edges.len().min(64)];
        let hub = fresh(hubs);
        if hub.pages_spilled == 0 {
            continue;
        }
        let Some(fringe) = edges.iter().rev().map(std::slice::from_ref).find(|e| {
            let s = fresh(e);
            s.pages_spilled == 0 && s.stack_bytes_peak < hub.stack_bytes_peak
        }) else {
            continue;
        };
        let results = compare(&g, &plan, &cfg, &[hubs, fringe], false);
        assert!(results[0].stats.pages_spilled > 0);
        assert_eq!(results[1].stats.pages_spilled, 0);
        assert!(results[1].stats.stack_bytes_peak < results[0].stats.stack_bytes_peak);
        return;
    }
    panic!("no motif spilled on a 2-page arena");
}
