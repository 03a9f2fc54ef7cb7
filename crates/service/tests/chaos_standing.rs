//! Batch-dynamic chaos tests (requires `--features chaos`): a crash at
//! the `graph.apply.midbatch` point must leave nothing observable (the
//! apply is all-or-nothing), a panicking subscriber must be unregistered
//! while every other subscriber still gets its delta, and a kill/stall
//! storm over the maintenance path must still produce exact match
//! deltas — the headline acceptance test for the standing subsystem.
//!
//! Every test holds a `ChaosGuard`: the fault-point registry is
//! process-global, so chaos tests serialize within one binary.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tdfs_core::reference_count;
use tdfs_graph::generators::barabasi_albert;
use tdfs_graph::rng::Rng;
use tdfs_graph::{DeltaCsr, EdgeBatch, GraphView};
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;
use tdfs_service::{DurableConfig, MatchDelta, Service, ServiceConfig, StandingRequest};
use tdfs_testkit::fault::{self, Action, ChaosScript, Trigger};
use tdfs_testkit::TempDir;

fn dynamic_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        plan_cache_capacity: 16,
        durability: DurableConfig {
            shard_edges: 16,
            lease_timeout: Duration::from_millis(10),
            watchdog_interval: Duration::from_millis(1),
            ..DurableConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn dynamic_service() -> Service {
    Service::new(dynamic_config())
}

fn watch(svc: &Service, pattern: &Pattern) -> Arc<Mutex<Vec<MatchDelta>>> {
    let seen: Arc<Mutex<Vec<MatchDelta>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    svc.register_standing(StandingRequest::new("g", pattern.clone()), move |d| {
        sink.lock().unwrap().push(d.clone())
    })
    .unwrap();
    seen
}

fn random_batch(view: &DeltaCsr, rng: &mut Rng, ins: usize, del: usize) -> EdgeBatch {
    let n = view.num_vertices() as u32;
    let mut batch = EdgeBatch::new();
    for _ in 0..ins {
        batch = batch.insert(rng.gen_range_u32(0..n), rng.gen_range_u32(0..n));
    }
    let edges: Vec<(u32, u32)> = view.arcs().filter(|&(u, v)| u < v).collect();
    for _ in 0..del.min(edges.len()) {
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        batch = batch.delete(u, v);
    }
    batch
}

/// A panic between delta computation and commit leaves no trace: the
/// catalog version, the match count, and the notification log are all
/// unchanged, and the very next apply of the same batch succeeds with
/// the exact delta.
#[test]
fn midbatch_crash_is_invisible_and_the_retry_lands_exactly() {
    let _chaos = ChaosScript::new()
        .on(
            "graph.apply.midbatch",
            Trigger::Nth(1),
            Action::Panic("injected midbatch crash"),
        )
        .install();
    let svc = dynamic_service();
    svc.register_graph("g", Arc::new(barabasi_albert(100, 4, 21)));
    let pattern = Pattern::clique(3);
    let plan = QueryPlan::build_with(&pattern, Default::default());
    let seen = watch(&svc, &pattern);

    let pre = svc.catalog().get("g").unwrap();
    let pre_count = reference_count(&*pre, &plan) as i64;
    let batch = EdgeBatch::new().insert(0, 70).insert(1, 71).delete(0, 1);

    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = svc.apply("g", &batch);
    }));
    assert!(crashed.is_err(), "the scripted panic must fire");
    assert_eq!(fault::injections("graph.apply.midbatch"), 1);

    // Nothing observable moved.
    let now = svc.catalog().get("g").unwrap();
    assert_eq!(
        now.version(),
        pre.version(),
        "version leaked past the crash"
    );
    assert_eq!(reference_count(&*now, &plan) as i64, pre_count);
    assert!(
        seen.lock().unwrap().is_empty(),
        "no delta for an aborted apply"
    );
    assert_eq!(svc.metrics().batches_applied, 0);

    // The retry goes through cleanly and the delta is exact.
    let report = svc.apply("g", &batch).unwrap();
    let post = svc.catalog().get("g").unwrap();
    assert_eq!(post.version(), report.version);
    let post_count = reference_count(&*post, &plan) as i64;
    let deltas = seen.lock().unwrap();
    let d = deltas.last().expect("retried apply notifies");
    assert_eq!(post_count - pre_count, d.added as i64 - d.removed as i64);
    svc.shutdown();
}

/// A subscriber whose callback panics is unregistered, and nothing else
/// notices: the apply commits and returns `Ok` naming the removed
/// subscription, the other subscriber gets every version's exact delta
/// (this one's included), and the persistent graph's sidecar is still
/// written, so a reopen finds the last committed version.
#[test]
fn a_panicking_callback_is_unregistered_and_the_others_still_get_their_delta() {
    // No faults scripted; the guard only keeps the other tests' scripts
    // out of this one.
    let _chaos = ChaosScript::new().install();
    let dir = TempDir::new("tdfs-standing-panic").unwrap();
    let pattern = Pattern::clique(3);
    let plan = QueryPlan::build_with(&pattern, Default::default());
    {
        let svc = Service::open(dir.path(), dynamic_config()).unwrap().service;
        svc.register_graph_persistent("g", Arc::new(barabasi_albert(80, 3, 22)))
            .unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let panicker = {
            let calls = calls.clone();
            svc.register_standing(StandingRequest::new("g", pattern.clone()), move |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("injected subscriber panic");
            })
            .unwrap()
        };
        let seen = watch(&svc, &pattern);
        let mut running = reference_count(&*svc.catalog().get("g").unwrap(), &plan) as i64;

        let first = svc
            .apply(
                "g",
                &EdgeBatch::new().insert(0, 40).insert(1, 41).delete(0, 1),
            )
            .unwrap();
        assert_eq!(first.version, 1);
        assert_eq!(first.removed_standing, vec![panicker]);
        assert_eq!(first.notifications, 1);
        let second = svc.apply("g", &EdgeBatch::new().delete(0, 40)).unwrap();
        assert!(second.removed_standing.is_empty());
        assert_eq!(second.notifications, 1);

        assert_eq!(calls.load(Ordering::SeqCst), 1, "called once, then removed");
        assert!(!svc.unregister_standing(panicker), "already unregistered");
        let deltas = seen.lock().unwrap();
        let versions: Vec<u64> = deltas.iter().map(|d| d.version).collect();
        assert_eq!(versions, vec![1, 2], "one delivery per version, no gap");
        for d in deltas.iter() {
            running += d.added as i64 - d.removed as i64;
        }
        let post = svc.catalog().get("g").unwrap();
        assert_eq!(running, reference_count(&*post, &plan) as i64);
        assert_eq!(svc.metrics().standing_notifications, 2);
    }
    let reopened = Service::open(dir.path(), dynamic_config()).unwrap().service;
    let view = reopened.catalog().get("g").unwrap();
    assert_eq!(view.version(), 2, "the sidecar holds the last commit");
}

/// The storm: maintenance passes run the durable shard loop while
/// shards are being killed and acks stalled at random, and midbatch
/// crashes abort some applies outright. Through all of it, the
/// surviving applies' deltas must telescope exactly onto full rescans
/// of the committed views — killed maintenance work resumes through
/// lease reclaim to the same answer.
#[test]
fn kill_stall_storm_over_maintenance_still_yields_exact_deltas() {
    let pattern = Pattern::clique(3);
    let plan = QueryPlan::build_with(&pattern, Default::default());
    for seed in [31u64, 32, 33] {
        let _chaos = ChaosScript::new()
            .on(
                "service.worker.run",
                Trigger::Probability(0.2),
                Action::Panic("storm shard kill"),
            )
            .on(
                "service.durable.ack",
                Trigger::Probability(0.1),
                Action::Sleep { millis: 20 },
            )
            .on(
                "graph.apply.midbatch",
                Trigger::Probability(0.2),
                Action::Panic("storm midbatch crash"),
            )
            .seed(seed)
            .install();
        let svc = dynamic_service();
        svc.register_graph("g", Arc::new(barabasi_albert(120, 4, seed)));
        let seen = watch(&svc, &pattern);

        let mut rng = Rng::seed_from_u64(seed * 17);
        let mut running = {
            let v = svc.catalog().get("g").unwrap();
            reference_count(&*v, &plan) as i64
        };
        let mut committed = 0u64;
        for _ in 0..8 {
            let pre = svc.catalog().get("g").unwrap();
            let batch = random_batch(&pre, &mut rng, 8, 5);
            let applied =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.apply("g", &batch)));
            match applied {
                Ok(Ok(report)) => {
                    committed += 1;
                    let post = svc.catalog().get("g").unwrap();
                    assert_eq!(post.version(), report.version, "seed {seed}");
                    let post_count = reference_count(&*post, &plan) as i64;
                    let deltas = seen.lock().unwrap();
                    let d = deltas.last().expect("committed apply notifies");
                    assert_eq!(d.version, report.version, "seed {seed}");
                    running += d.added as i64 - d.removed as i64;
                    assert_eq!(
                        running, post_count,
                        "seed {seed}: delta diverged from rescan after storm"
                    );
                }
                Ok(Err(e)) => panic!("seed {seed}: unexpected apply error: {e}"),
                Err(_) => {
                    // Midbatch crash: the apply must be invisible.
                    let now = svc.catalog().get("g").unwrap();
                    assert_eq!(now.version(), pre.version(), "seed {seed}: torn apply");
                    assert_eq!(
                        reference_count(&*now, &plan) as i64,
                        running,
                        "seed {seed}: aborted apply mutated the graph"
                    );
                }
            }
        }
        let deltas = seen.lock().unwrap();
        assert_eq!(
            deltas.len() as u64,
            committed,
            "seed {seed}: exactly one delta per committed batch"
        );
        drop(deltas);
        assert_eq!(svc.metrics().batches_applied, committed, "seed {seed}");
        svc.shutdown();
    }
}
