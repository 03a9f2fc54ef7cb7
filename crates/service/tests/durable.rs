//! Durable-execution integration tests (no chaos feature needed):
//! exactness of leased-shard counting across every engine, checkpoint /
//! resume equivalence with the uninterrupted run, recovery of poisonous
//! client sinks, and the resume-validation error paths.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdfs_core::{reference_count, MatchSink, MatcherConfig};
use tdfs_graph::generators::barabasi_albert;
use tdfs_graph::CsrGraph;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;
use tdfs_service::snapshot::{self, QuerySnapshot};
use tdfs_service::{
    DurableConfig, QueryRequest, ResumeError, Service, ServiceConfig, Shard, SnapshotError,
};

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
        // The house: a 4-cycle with a roof triangle.
        (
            "house",
            Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
        ),
    ]
}

fn durable_service(shard_edges: usize) -> Service {
    Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        plan_cache_capacity: 16,
        durability: DurableConfig {
            shard_edges,
            ..DurableConfig::default()
        },
        ..ServiceConfig::default()
    })
}

/// Fault-free durable runs count exactly, for every engine and pattern,
/// with the fine sharding the recovery machinery operates on.
#[test]
fn durable_counts_agree_with_reference_for_every_engine() {
    let g = Arc::new(barabasi_albert(200, 4, 41));
    let svc = durable_service(16);
    svc.register_graph("ba", g.clone());
    for (pname, pattern) in patterns() {
        for (ename, config) in engines() {
            // Each preset carries its own plan options (symmetry
            // breaking differs), so the reference is per engine.
            let want = reference_count(&g, &QueryPlan::build_with(&pattern, config.plan));
            let out = svc
                .submit(QueryRequest::new("ba", pattern.clone()).with_config(config))
                .unwrap()
                .wait();
            let r = out.result.expect("durable run failed");
            assert_eq!(r.matches, want, "{ename}/{pname}: wrong durable count");
            assert!(!r.stats.cancelled);
        }
    }
    let m = svc.metrics();
    assert_eq!(m.durable_queries, 15);
    assert_eq!(m.leases_fenced, 0, "no faults, no zombies");
    assert_eq!(
        m.leases_granted, m.tasks_acked,
        "fault-free: every grant acks"
    );
    assert!(m.tasks_acked > 15, "sharding actually happened");
}

/// A hand-built mid-query checkpoint — first shard acked with its exact
/// partial count, the rest pending — resumes to the uninterrupted count
/// on every engine. This is the deterministic core of resume
/// correctness: the resumed run starts from the published partial sum
/// and re-executes only unfinished shards.
#[test]
fn resume_from_mid_query_snapshot_matches_uninterrupted_count() {
    let g = Arc::new(barabasi_albert(200, 4, 42));
    let svc = durable_service(64);
    svc.register_graph("ba", g.clone());
    for (pname, pattern) in patterns() {
        for (ename, config) in engines() {
            let plan = QueryPlan::build_with(&pattern, config.plan);
            let want = reference_count(&g, &plan);
            let edges = tdfs_core::host_filter_edges(&g, &plan);
            let split = edges.len() / 3;
            let head =
                tdfs_core::match_plan_on_edges(&g, &plan, &config, edges[..split].to_vec(), None)
                    .unwrap()
                    .matches;
            let snap = QuerySnapshot {
                graph: "ba".into(),
                graph_version: 0,
                pattern: pattern.clone(),
                config: config.clone(),
                edge_count: edges.len() as u64,
                matches: head,
                emitted: 0,
                tasks_acked: 1,
                resumes: 0,
                next_task_id: 2,
                acked: vec![0],
                pending: vec![(
                    1,
                    0,
                    Shard {
                        start: split as u32,
                        end: edges.len() as u32,
                    },
                )],
            };
            let out = svc.resume(&snapshot::encode(&snap)).unwrap().wait();
            let r = out.result.expect("resumed run failed");
            assert_eq!(r.matches, want, "{ename}/{pname}: resume lost counts");
        }
    }
    assert_eq!(svc.metrics().resumes, 15);
}

/// Snapshot a *live* query mid-run, cancel the original, resume the
/// image: the resumed run must land on the exact uninterrupted count —
/// the acked prefix carries over, in-flight shards (demoted in the
/// image) re-execute.
#[test]
fn live_snapshot_then_cancel_then_resume_recovers_the_exact_count() {
    let g = Arc::new(barabasi_albert(1200, 8, 43));
    let svc = durable_service(8);
    svc.register_graph("ba", g.clone());
    let pattern = Pattern::clique(4);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, Default::default()));
    let h = svc
        .submit(QueryRequest::new("ba", pattern).with_config(MatcherConfig::tdfs().with_warps(2)))
        .unwrap();
    // Let some shards publish, then checkpoint whatever state exists.
    // `NotStarted` while queued and `UnknownQuery` in the tiny window
    // between dequeue and durable-state registration are both transient.
    let id = h.id();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let bytes = loop {
        match svc.snapshot(id) {
            Ok(b) => break b,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("snapshot failed: {e}"),
        }
    };
    h.cancel();
    let _ = h.wait();
    let decoded = snapshot::decode(&bytes).unwrap();
    assert_eq!(decoded.graph, "ba");
    assert!(
        decoded.matches <= want,
        "partial count exceeds the full count"
    );
    let out = svc.resume(&bytes).unwrap().wait();
    assert_eq!(out.result.unwrap().matches, want);
    let p = svc
        .progress(out.query_id)
        .expect("resumed query registered");
    assert!(p.done);
    assert_eq!(p.resumes, 1);
    assert_eq!(p.matches, want);
}

/// Snapshots survive query completion (bounded retention): a finished
/// query still serializes, and resuming the finished image is a no-op
/// run returning the same count.
#[test]
fn completed_query_snapshot_resumes_to_the_same_count() {
    let g = Arc::new(barabasi_albert(150, 4, 44));
    let svc = durable_service(32);
    svc.register_graph("ba", g.clone());
    let pattern = Pattern::clique(3);
    let out = svc.submit(QueryRequest::new("ba", pattern)).unwrap().wait();
    let want = out.result.unwrap().matches;
    let bytes = svc.snapshot(out.query_id).expect("completed yet retained");
    let snap = snapshot::decode(&bytes).unwrap();
    assert_eq!(snap.matches, want);
    assert!(snap.pending.is_empty(), "nothing unfinished");
    let resumed = svc.resume(&bytes).unwrap().wait();
    assert_eq!(resumed.result.unwrap().matches, want);
}

/// A client sink that panics is a recovered per-shard fault on the
/// durable path: the query completes with the exact count, the lease is
/// reclaimed, and no service worker dies.
struct PanicOnceSink(AtomicBool);

impl MatchSink for PanicOnceSink {
    fn emit(&self, _m: &[u32]) {
        if self.0.swap(false, Ordering::SeqCst) {
            panic!("sink panic (injected by test)");
        }
    }
}

#[test]
fn poisonous_client_sink_is_recovered_per_shard() {
    let g = Arc::new(barabasi_albert(200, 4, 45));
    let svc = durable_service(16);
    svc.register_graph("ba", g.clone());
    let pattern = Pattern::clique(3);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, Default::default()));
    let out = svc
        .submit(
            QueryRequest::new("ba", pattern)
                .with_sink(Arc::new(PanicOnceSink(AtomicBool::new(true)))),
        )
        .unwrap()
        .wait();
    assert_eq!(out.result.expect("panic must be recovered").matches, want);
    let m = svc.metrics();
    assert!(m.leases_reclaimed >= 1, "the poisoned shard was reclaimed");
    assert_eq!(m.worker_panics, 0, "no service worker died");
    assert_eq!(m.failed, 0);
}

/// One shard worker runs every shard of a query on its resident device.
/// A shard whose emissions panic is requeued, and the shards after it,
/// on the same worker, still add up to the exact count.
#[test]
fn shards_after_a_panicked_shard_on_one_worker_count_exactly() {
    let g = Arc::new(barabasi_albert(200, 4, 45));
    let svc = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        plan_cache_capacity: 16,
        durability: DurableConfig {
            shard_edges: 16,
            workers: 1,
            ..DurableConfig::default()
        },
        ..ServiceConfig::default()
    });
    svc.register_graph("ba", g.clone());
    for (name, pattern) in patterns() {
        let config = MatcherConfig::tdfs().with_warps(1);
        let want = reference_count(&g, &QueryPlan::build_with(&pattern, config.plan));
        let h = svc
            .submit(
                QueryRequest::new("ba", pattern)
                    .with_config(config)
                    .with_sink(Arc::new(PanicOnceSink(AtomicBool::new(true)))),
            )
            .unwrap();
        let id = h.id();
        let out = h.wait();
        assert_eq!(
            out.result.expect("panic must be recovered").matches,
            want,
            "{name}"
        );
        let p = svc.progress(id).expect("retained progress");
        assert!(
            p.tasks_acked > 2,
            "{name}: too few shards to reuse a device"
        );
        assert!(
            p.leases.reclaimed >= 1,
            "{name}: the panicked shard was reclaimed"
        );
    }
    let m = svc.metrics();
    assert_eq!(m.worker_panics, 0, "no service worker died");
    assert_eq!(m.failed, 0);
}

/// Resume validation: garbage bytes, unknown graphs, and a graph whose
/// admitted-edge space disagrees with the snapshot are all rejected
/// before admission.
#[test]
fn resume_rejects_invalid_and_mismatched_snapshots() {
    let g = Arc::new(barabasi_albert(100, 3, 46));
    let svc = durable_service(32);
    svc.register_graph("ba", g.clone());
    let out = svc
        .submit(QueryRequest::new("ba", Pattern::clique(3)))
        .unwrap()
        .wait();
    let bytes = svc.snapshot(out.query_id).unwrap();

    assert!(matches!(
        svc.resume(b"not a snapshot"),
        Err(ResumeError::Decode(_))
    ));

    // Unregister the graph: the snapshot now names nothing.
    svc.unregister_graph("ba");
    assert!(matches!(
        svc.resume(&bytes),
        Err(ResumeError::UnknownGraph(_))
    ));

    // Re-register a *different* graph under the same name: the admitted
    // edge list no longer matches the snapshot's shard space.
    let other: Arc<CsrGraph> = Arc::new(barabasi_albert(120, 4, 47));
    svc.register_graph("ba", other);
    assert!(matches!(
        svc.resume(&bytes),
        Err(ResumeError::GraphMismatch { .. })
    ));

    assert!(matches!(
        svc.snapshot(9999),
        Err(SnapshotError::UnknownQuery(9999))
    ));
}
