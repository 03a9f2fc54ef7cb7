//! Durable-path chaos tests (requires `--features chaos`): injected
//! worker kills are recovered by lease reclaim, zombie acks are fenced
//! by the epoch, seeded random kill/stall schedules never corrupt the
//! count (including across a snapshot/resume cut), and a permanently
//! failing shard wedges the query with diagnostics instead of looping.
//!
//! Every test holds a `ChaosGuard`: the fault-point registry is
//! process-global, so chaos tests serialize within one binary.

use std::sync::Arc;
use std::time::Duration;

use tdfs_core::{reference_count, EngineError, MatcherConfig};
use tdfs_graph::generators::barabasi_albert;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;
use tdfs_service::{DurableConfig, QueryRequest, Service, ServiceConfig, SnapshotError};
use tdfs_testkit::fault::{self, Action, ChaosScript, Trigger};

fn durable_service(d: DurableConfig) -> Service {
    Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        plan_cache_capacity: 16,
        durability: d,
        ..ServiceConfig::default()
    })
}

fn engines() -> Vec<(&'static str, MatcherConfig)> {
    vec![
        ("tdfs", MatcherConfig::tdfs().with_warps(2)),
        ("no_steal", MatcherConfig::no_steal().with_warps(2)),
        ("stmatch", MatcherConfig::stmatch_like().with_warps(2)),
        ("egsm", MatcherConfig::egsm_like().with_warps(2)),
        ("pbe", MatcherConfig::pbe_like().with_warps(2)),
    ]
}

fn patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("k3", Pattern::clique(3)),
        ("k4", Pattern::clique(4)),
        (
            "house",
            Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
        ),
    ]
}

/// The headline acceptance test: a worker killed mid-query via the
/// `service.worker.run` fault point. The panic costs one shard, not
/// the query — the lease fails over, the shard
/// re-executes, and the final count is identical to a fault-free run.
#[test]
fn killed_worker_mid_query_completes_with_the_exact_count() {
    let _chaos = ChaosScript::new()
        .on(
            "service.worker.run",
            Trigger::Nth(1),
            Action::Panic("injected shard kill"),
        )
        .install();
    let g = Arc::new(barabasi_albert(300, 5, 7));
    let svc = durable_service(DurableConfig {
        shard_edges: 32,
        ..DurableConfig::default()
    });
    svc.register_graph("ba", g.clone());
    let pattern = Pattern::clique(4);
    let cfg = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));

    let out = svc
        .submit(QueryRequest::new("ba", pattern).with_config(cfg))
        .unwrap()
        .wait();
    assert_eq!(
        out.result.expect("kill must be recovered").matches,
        want,
        "recovered count differs from the fault-free run"
    );
    assert_eq!(fault::injections("service.worker.run"), 1);

    let m = svc.metrics();
    assert!(m.leases_reclaimed > 0, "the killed shard was reclaimed");
    assert_eq!(m.failed, 0);
    assert_eq!(
        m.worker_panics, 0,
        "the service worker itself must survive a shard kill"
    );
    svc.shutdown();
}

/// A warp that panics mid-shard, with the straggler storm keeping tasks
/// in its queue, leaves its worker's device unfit for reuse. The one
/// shard worker drops that device and builds a new one, so the shards
/// it runs after the panic still add up to the exact count.
#[test]
fn worker_rebuilds_its_device_after_a_mid_shard_warp_panic() {
    let _chaos = ChaosScript::new()
        .inject("core.dfs.straggler", Trigger::Always)
        .on(
            "gpu.warp.intersect",
            Trigger::Nth(200),
            Action::Panic("injected warp panic"),
        )
        .install();
    let g = Arc::new(barabasi_albert(300, 5, 7));
    let svc = durable_service(DurableConfig {
        shard_edges: 32,
        ..DurableConfig::default()
    });
    svc.register_graph("ba", g.clone());
    let pattern = Pattern::clique(4);
    let cfg = MatcherConfig::tdfs().with_warps(1);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));
    let h = svc
        .submit(QueryRequest::new("ba", pattern).with_config(cfg))
        .unwrap();
    let id = h.id();
    let out = h.wait();
    assert_eq!(
        out.result
            .expect("the warp panic must be recovered")
            .matches,
        want
    );
    assert_eq!(fault::injections("gpu.warp.intersect"), 1);
    let p = svc.progress(id).expect("retained progress");
    assert!(p.leases.reclaimed >= 1, "the panicked shard was reclaimed");
    assert!(p.tasks_acked > 2, "shards ran after the panic");
    assert_eq!(svc.metrics().worker_panics, 0);
    svc.shutdown();
}

/// Epoch fencing: a worker that finishes its shard but stalls past the
/// lease deadline before acking (the `service.durable.ack` point sleeps
/// through the wall-clock timeout) is a zombie. The watchdog reclaims
/// its lease and the shard re-executes; when the zombie wakes its ack
/// carries a stale epoch and is fenced, so the shard's count still
/// lands exactly once.
#[test]
fn zombie_ack_is_fenced_and_the_count_lands_exactly_once() {
    let _chaos = ChaosScript::new()
        .on(
            "service.durable.ack",
            Trigger::Nth(1),
            Action::Sleep { millis: 150 },
        )
        .install();
    let g = Arc::new(barabasi_albert(300, 5, 8));
    let svc = durable_service(DurableConfig {
        shard_edges: 32,
        lease_timeout: Duration::from_millis(10),
        watchdog_interval: Duration::from_millis(1),
        ..DurableConfig::default()
    });
    svc.register_graph("ba", g.clone());
    let pattern = Pattern::clique(3);
    let cfg = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));

    let out = svc
        .submit(QueryRequest::new("ba", pattern).with_config(cfg))
        .unwrap()
        .wait();
    assert_eq!(out.result.unwrap().matches, want, "zombie double-counted");

    let zombies = fault::injections("service.durable.ack");
    assert_eq!(zombies, 1);
    let m = svc.metrics();
    assert!(
        m.leases_fenced >= zombies,
        "every zombie ack must be fenced: {} fenced, {} zombies",
        m.leases_fenced,
        zombies
    );
    assert!(m.leases_reclaimed >= 1, "the stalled lease was reclaimed");
    assert_eq!(m.failed, 0);
    svc.shutdown();
}

/// Seeded random kill/stall schedules, every engine x K3/K4/house:
/// shards die with probability 0.15 and zombie-stall with probability
/// 0.1, a snapshot is cut mid-run, the original is cancelled, and the
/// resumed query must land on the uninterrupted count. The seed varies
/// per (engine, pattern) so each case sees a different schedule, yet
/// stays reproducible.
#[test]
fn seeded_kill_stall_schedules_preserve_counts_across_resume() {
    let g = Arc::new(barabasi_albert(250, 4, 9));
    for (pi, (pname, pattern)) in patterns().into_iter().enumerate() {
        for (ei, (ename, cfg)) in engines().into_iter().enumerate() {
            let seed = 1000 + (pi * 10 + ei) as u64;
            let _chaos = ChaosScript::new()
                .on(
                    "service.worker.run",
                    Trigger::Probability(0.15),
                    Action::Panic("scheduled shard kill"),
                )
                .on(
                    "service.durable.ack",
                    Trigger::Probability(0.10),
                    Action::Sleep { millis: 30 },
                )
                .seed(seed)
                .install();
            let svc = durable_service(DurableConfig {
                shard_edges: 16,
                lease_timeout: Duration::from_millis(10),
                watchdog_interval: Duration::from_millis(1),
                max_task_epochs: 64,
            });
            svc.register_graph("ba", g.clone());
            let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));

            let h = svc
                .submit(QueryRequest::new("ba", pattern.clone()).with_config(cfg))
                .unwrap();
            // Cut a snapshot mid-run (or just after completion — both
            // must resume to the same total), then kill the original.
            let id = h.id();
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            let bytes = loop {
                match svc.snapshot(id) {
                    Ok(b) => break b,
                    Err(SnapshotError::NotStarted(_) | SnapshotError::UnknownQuery(_))
                        if std::time::Instant::now() < deadline =>
                    {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    Err(e) => panic!("{ename}/{pname} seed {seed}: snapshot failed: {e}"),
                }
            };
            h.cancel();
            let _ = h.wait();

            // The resumed run keeps absorbing the same chaos schedule.
            let out = svc.resume(&bytes).unwrap().wait();
            assert_eq!(
                out.result
                    .unwrap_or_else(|e| panic!("{ename}/{pname} seed {seed}: {e}"))
                    .matches,
                want,
                "{ename}/{pname} seed {seed}: resumed count diverged"
            );
            svc.shutdown();
        }
    }
}

/// A shard that dies on every attempt makes no progress; once its epoch
/// exceeds `max_task_epochs` the watchdog fails the query as `Wedged`
/// with diagnostics naming the stuck task, instead of reclaiming
/// forever.
#[test]
fn permanently_dying_shard_wedges_the_query_with_diagnostics() {
    let _chaos = ChaosScript::new()
        .on(
            "service.worker.run",
            Trigger::Always,
            Action::Panic("unrecoverable shard"),
        )
        .install();
    let g = Arc::new(barabasi_albert(100, 3, 10));
    let svc = durable_service(DurableConfig {
        shard_edges: 64,
        max_task_epochs: 3,
        watchdog_interval: Duration::from_millis(1),
        ..DurableConfig::default()
    });
    svc.register_graph("ba", g.clone());

    let h = svc
        .submit(QueryRequest::new("ba", Pattern::clique(3)))
        .unwrap();
    let id = h.id();
    let out = h.wait();
    assert!(
        matches!(out.result, Err(EngineError::Wedged)),
        "expected Wedged, got {:?}",
        out.result
    );
    let p = svc.progress(id).expect("wedged query stays inspectable");
    assert!(p.done);
    let diag = p.diagnostics.expect("wedge carries diagnostics");
    assert!(
        diag.contains("epoch"),
        "diagnostics should name the epoch bound: {diag}"
    );
    assert!(p.max_epoch > 3);
    assert_eq!(svc.metrics().failed, 1);
    svc.shutdown();
}
