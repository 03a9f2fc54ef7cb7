//! Full-stack chaos run (requires `--features chaos`): every layer's
//! fault points storm at once — queue claim stalls, clock skew, arena
//! OOM, forced stragglers, and one mid-shard worker crash — while
//! concurrent clients push queries through the service with admission
//! retries. Every query must end in one of the documented outcomes
//! (exact count, or a clean partial), and every recovery must be
//! visible in the metrics.
//!
//! The tests hold a `ChaosGuard` because the fault-point registry is
//! process-global; the guard serializes chaos tests within one binary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tdfs::core::{reference_count, BackoffPolicy, MatcherConfig};
use tdfs::graph::generators::barabasi_albert;
use tdfs::query::plan::QueryPlan;
use tdfs::query::Pattern;
use tdfs::service::{QueryRequest, Service, ServiceConfig};
use tdfs_testkit::fault::{self, Action, ChaosScript, Trigger};

#[test]
fn service_survives_a_combined_chaos_storm() {
    let _chaos = ChaosScript::new()
        .on(
            "gpu.queue.enqueue.claimed",
            Trigger::Probability(0.05),
            Action::Stall { yields: 10 },
        )
        .on(
            "gpu.queue.dequeue.claimed",
            Trigger::Probability(0.05),
            Action::Stall { yields: 10 },
        )
        .inject("gpu.clock.storm", Trigger::Probability(0.1))
        .inject("mem.arena.oom", Trigger::Probability(0.2))
        .inject("core.dfs.straggler", Trigger::Probability(0.2))
        .on(
            "service.worker.run",
            Trigger::Nth(3),
            Action::Panic("injected mid-storm worker crash"),
        )
        .seed(47)
        .install();

    let g = Arc::new(barabasi_albert(250, 4, 31));
    // A 4-clique: deep enough that the paged levels actually allocate
    // (the fused leaf computes the deepest level in-lane, so a triangle
    // query would never touch the arena).
    let pattern = Pattern::clique(4);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, Default::default()));

    let svc = Arc::new(Service::new(ServiceConfig {
        workers: 3,
        // Tiny admission queue: the storm's stalls produce real
        // backpressure, driving the retry path.
        queue_capacity: 2,
        plan_cache_capacity: 8,
        ..ServiceConfig::default()
    }));
    svc.register_graph("ba", g.clone());

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 5;
    let policy = BackoffPolicy::new(10_000, Duration::from_micros(200), Duration::from_millis(5));
    let mut completed = 0u64;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let svc = svc.clone();
            let pattern = pattern.clone();
            let policy = policy.clone();
            handles.push(s.spawn(move || {
                let mut outcomes = Vec::new();
                for _ in 0..PER_CLIENT {
                    let req = QueryRequest::new("ba", pattern.clone())
                        .with_config(MatcherConfig::tdfs().with_warps(2));
                    let out = svc
                        .submit_with_retry(req, &policy)
                        .expect("retries absorb transient backpressure")
                        .wait();
                    outcomes.push(out);
                }
                outcomes
            }));
        }
        for h in handles {
            for out in h.join().unwrap() {
                let r = out.result.expect("chaos must not fail a query");
                assert_eq!(r.matches, want, "chaos must not corrupt a count");
                assert!(!r.stats.cancelled);
                assert_eq!(r.stats.pages_leaked, 0);
                completed += 1;
            }
        }
    });

    // The scripted crash kills one shard attempt; its lease is
    // reclaimed and the shard re-runs, so every query still counts
    // exactly.
    let total = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(completed, total);

    let m = svc.metrics();
    assert_eq!(m.admitted, total);
    assert_eq!(m.completed, completed);
    assert_eq!(m.failed, 0);
    assert_eq!(m.worker_panics, 0);
    assert!(m.leases_reclaimed >= 1, "the crashed shard was reclaimed");
    assert_eq!(m.queue_depth, 0);
    // The storm's fault points were all genuinely reached.
    assert_eq!(fault::injections("service.worker.run"), 1);
    assert!(fault::injections("mem.arena.oom") > 0);
    assert!(fault::injections("core.dfs.straggler") > 0);
    assert!(fault::hits("gpu.queue.enqueue.claimed") > 0);
    svc.shutdown();
}

/// Collection with a limit stays a clean partial under the same storms:
/// the outcome is `Ok` + cancelled with exactly `limit` assignments, and
/// it arrives promptly.
#[test]
fn collect_limit_cancels_cleanly_under_chaos() {
    let _chaos = ChaosScript::new()
        .inject("gpu.clock.storm", Trigger::Probability(0.1))
        .inject("mem.arena.oom", Trigger::Probability(0.3))
        .inject("core.dfs.straggler", Trigger::Probability(0.3))
        .seed(53)
        .install();

    let g = Arc::new(barabasi_albert(1000, 8, 17));
    let svc = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        plan_cache_capacity: 4,
        ..ServiceConfig::default()
    });
    svc.register_graph("ba", g);

    let limit = 25;
    let start = Instant::now();
    let out = svc
        .submit(
            QueryRequest::new("ba", Pattern::clique(4))
                .with_config(MatcherConfig::tdfs().with_warps(2))
                .with_collect_limit(limit),
        )
        .unwrap()
        .wait();
    let elapsed = start.elapsed();

    assert!(out.cancelled(), "the limit must cancel the run early");
    let r = out.result.unwrap();
    assert!(r.stats.cancelled && r.matches >= limit as u64);
    assert_eq!(r.stats.pages_leaked, 0);
    let matches = out.matches.expect("collect_limit fills outcome.matches");
    assert_eq!(matches.len(), limit);
    assert!(
        elapsed < Duration::from_secs(30),
        "partial collection took {elapsed:?} under chaos"
    );
    let m = svc.metrics();
    assert_eq!(m.completed, 1);
    assert_eq!(m.cancelled, 1);
    svc.shutdown();
}
