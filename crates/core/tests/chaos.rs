//! Engine-level chaos tests (requires `--features chaos`): straggler
//! storms, clock skew storms, and arena-OOM storms injected into full
//! matching runs. Every storm must leave the match count exactly equal
//! to the serial reference, surface its recovery in the run's counters,
//! and leak nothing.
//!
//! Every test holds a `ChaosGuard` because the fault-point registry is
//! process-global; the guard serializes chaos tests within one binary.

use std::time::{Duration, Instant};

use tdfs_core::config::StackConfig;
use tdfs_core::engine::TAU_WINDOW;
use tdfs_core::{
    find_matches, host_filter_edges, match_pattern, match_plan_on_edges, reference_count,
    EngineError, MatcherConfig,
};
use tdfs_graph::generators::barabasi_albert;
use tdfs_mem::StackError;
use tdfs_query::plan::QueryPlan;
use tdfs_query::{Pattern, PatternId};

fn expected(g: &tdfs_graph::CsrGraph, id: PatternId, cfg: &MatcherConfig) -> u64 {
    reference_count(g, &QueryPlan::build_with(&id.pattern(), cfg.plan))
}

/// `core.dfs.straggler` on every eligible check: each shallow candidate
/// is treated as a straggler and decomposed into `Q_task`. The paper's
/// grace descent keeps the warps progressing, every timeout is counted,
/// and the count still matches the reference exactly.
#[test]
fn straggler_storm_decomposes_everything_and_stays_correct() {
    use tdfs_testkit::fault::{self, ChaosScript, Trigger};
    let _chaos = ChaosScript::new()
        .inject("core.dfs.straggler", Trigger::Always)
        .install();
    let g = barabasi_albert(300, 4, 11);
    let cfg = MatcherConfig::tdfs().with_warps(4);
    for id in [2u8, 8] {
        let r = match_pattern(&g, &PatternId(id).pattern(), &cfg).unwrap();
        assert_eq!(r.matches, expected(&g, PatternId(id), &cfg), "P{id}");
        assert!(
            r.stats.timeouts_fired > 0,
            "P{id}: storm must fire timeouts"
        );
        assert!(
            r.stats.tasks_enqueued > 0,
            "P{id}: decomposition must enqueue"
        );
        assert_eq!(r.stats.tasks_enqueued, r.stats.tasks_dequeued, "P{id}");
        assert_eq!(r.stats.pages_leaked, 0, "P{id}");
    }
    assert!(fault::injections("core.dfs.straggler") > 0);
}

/// `gpu.clock.storm`: random forward clock skew makes in-flight walks
/// look slow, tripping the timeout decomposition through the *clock*
/// path (not the forced-straggle flag). Monotonicity of the skewed clock
/// keeps `now - t0` well-defined and the run exact.
#[test]
fn clock_skew_storm_trips_timeouts_and_stays_correct() {
    use tdfs_testkit::fault::{self, ChaosScript, Trigger};
    let _chaos = ChaosScript::new()
        .inject("gpu.clock.storm", Trigger::Probability(0.5))
        .seed(23)
        .install();
    let g = barabasi_albert(300, 4, 12);
    let cfg = MatcherConfig::tdfs().with_warps(4);
    let r = match_pattern(&g, &PatternId(8).pattern(), &cfg).unwrap();
    assert_eq!(r.matches, expected(&g, PatternId(8), &cfg));
    assert!(
        r.stats.timeouts_fired > 0,
        "skew must trip the timeout path"
    );
    assert!(fault::injections("gpu.clock.storm") > 0);
    assert_eq!(r.stats.pages_leaked, 0);
}

/// The τ test's clock budget. `gpu.clock.storm` counts every clock
/// read, scripted or not. A one-warp run may read the clock once per
/// task (a chunk of `chunk_size` edges) and once per [`TAU_WINDOW`] lane
/// probes, not before every initial edge and every shallow descent: on
/// this graph, reading at every check costs about 20,000 reads, and the
/// budget is about 2,450.
#[test]
fn tau_test_reads_the_clock_once_per_window_of_warp_work() {
    use tdfs_testkit::fault::{self, ChaosScript};
    let _chaos = ChaosScript::new().install();
    let g = barabasi_albert(3000, 6, 13);
    let cfg = MatcherConfig::tdfs()
        .with_warps(1)
        .with_tau(Some(Duration::from_millis(10)));
    let plan = QueryPlan::build_with(&Pattern::clique(3), cfg.plan);
    let edges = host_filter_edges(&g, &plan);
    let tasks = (edges.len() as u64).div_ceil(cfg.chunk_size as u64);
    let r = match_plan_on_edges(&g, &plan, &cfg, edges, None).unwrap();
    assert_eq!(r.matches, reference_count(&g, &plan));
    let probes = r.stats.warp.elements_probed;
    let budget = tasks + probes.div_ceil(TAU_WINDOW) + 1;
    let reads = fault::hits("gpu.clock.storm");
    assert!(
        reads <= budget,
        "{reads} clock reads for {tasks} chunks and {probes} probes (budget {budget})"
    );
}

/// `mem.arena.oom` on every allocation: the whole run executes on heap
/// spills. The count stays exact, the degradation is visible in
/// `pages_spilled` / `candidates_spilled`, and no arena page leaks.
#[test]
fn arena_oom_storm_spills_and_stays_correct() {
    use tdfs_testkit::fault::{self, ChaosScript, Trigger};
    let _chaos = ChaosScript::new()
        .inject("mem.arena.oom", Trigger::Always)
        .install();
    let g = barabasi_albert(300, 4, 13);
    let cfg = MatcherConfig::tdfs().with_warps(4);
    let r = match_pattern(&g, &PatternId(2).pattern(), &cfg).unwrap();
    assert_eq!(r.matches, expected(&g, PatternId(2), &cfg));
    assert!(r.stats.pages_spilled > 0, "storm must force spill events");
    assert!(r.stats.candidates_spilled > 0);
    assert_eq!(r.stats.pages_leaked, 0);
    assert!(fault::injections("mem.arena.oom") > 0);
}

/// The same OOM storm with spill disabled is a hard failure: the run
/// surfaces `OutOfPages` instead of silently degrading.
#[test]
fn arena_oom_storm_without_spill_fails_the_run() {
    use tdfs_testkit::fault::{ChaosScript, Trigger};
    let _chaos = ChaosScript::new()
        .inject("mem.arena.oom", Trigger::Always)
        .install();
    let g = barabasi_albert(300, 4, 13);
    let mut cfg = MatcherConfig::tdfs().with_warps(2);
    cfg.stack = StackConfig::Paged {
        arena_pages: 64,
        table_len: 40,
        spill: false,
    };
    assert!(matches!(
        match_pattern(&g, &PatternId(2).pattern(), &cfg),
        Err(EngineError::Stack(StackError::OutOfPages))
    ));
}

/// Satellite: cancellation under combined chaos. With a straggler storm,
/// clock skew, and arena OOM all active, `find_matches(limit)` must
/// still stop cleanly once the limit is collected: prompt return, `Ok`
/// with `stats.cancelled` set, exactly `limit` assignments, and no
/// leaked pages.
#[test]
fn cancellation_is_clean_under_combined_chaos() {
    use tdfs_testkit::fault::{ChaosScript, Trigger};
    let _chaos = ChaosScript::new()
        .inject("core.dfs.straggler", Trigger::Probability(0.3))
        .inject("gpu.clock.storm", Trigger::Probability(0.2))
        .inject("mem.arena.oom", Trigger::Probability(0.3))
        .seed(31)
        .install();
    let g = barabasi_albert(1000, 8, 17);
    let cfg = MatcherConfig::tdfs().with_warps(4);
    let limit = 50;
    let start = Instant::now();
    let (r, matches) = find_matches(&g, &PatternId(8).pattern(), &cfg, limit).unwrap();
    let elapsed = start.elapsed();
    assert!(
        r.stats.cancelled,
        "the limit must cancel the run (graph has far more matches)"
    );
    assert_eq!(matches.len(), limit);
    assert!(r.matches >= limit as u64, "count covers collected matches");
    assert_eq!(r.stats.pages_leaked, 0, "cancel must not leak pages");
    assert!(
        elapsed < Duration::from_secs(30),
        "cancelled chaos run took {elapsed:?} to wind down"
    );
    // Every collected assignment is a valid embedding: correct arity,
    // pairwise-distinct vertices.
    let k = PatternId(8).pattern().num_vertices();
    for m in &matches {
        assert_eq!(m.len(), k);
        let mut s = m.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), k, "repeated vertex in {m:?}");
    }
}

/// An expired hard deadline still surfaces as `Err(TimeLimit)` while the
/// storms rage — degradation paths never mask the time budget.
#[test]
fn expired_deadline_errors_even_under_chaos() {
    use tdfs_testkit::fault::{ChaosScript, Trigger};
    let _chaos = ChaosScript::new()
        .inject("core.dfs.straggler", Trigger::Probability(0.3))
        .inject("mem.arena.oom", Trigger::Probability(0.3))
        .seed(37)
        .install();
    let g = barabasi_albert(500, 8, 14);
    let cfg = MatcherConfig::tdfs()
        .with_warps(2)
        .with_time_limit(Some(Duration::ZERO));
    let start = Instant::now();
    assert!(matches!(
        match_pattern(&g, &PatternId(8).pattern(), &cfg),
        Err(EngineError::TimeLimit)
    ));
    assert!(start.elapsed() < Duration::from_secs(30));
}

/// `gpu.warp.intersect` stall storm: intersections randomly yield
/// mid-kernel. Coverage of the point is assertable via its hit counter,
/// and the result is unchanged.
#[test]
fn warp_intersect_stall_storm_is_harmless() {
    use tdfs_testkit::fault::{self, Action, ChaosScript, Trigger};
    let _chaos = ChaosScript::new()
        .on(
            "gpu.warp.intersect",
            Trigger::Probability(0.1),
            Action::Stall { yields: 3 },
        )
        .seed(41)
        .install();
    let g = barabasi_albert(300, 4, 11);
    let cfg = MatcherConfig::tdfs().with_warps(4);
    let r = match_pattern(&g, &PatternId(2).pattern(), &cfg).unwrap();
    assert_eq!(r.matches, expected(&g, PatternId(2), &cfg));
    assert!(
        fault::hits("gpu.warp.intersect") > 0,
        "point must be reached"
    );
}
