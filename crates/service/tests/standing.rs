//! Standing-query integration tests: incremental match deltas must
//! equal a full pre/post rescan — across every engine strategy, for
//! unlabeled and labeled patterns, over randomized mutation schedules —
//! and the version machinery (snapshot resume fencing, plan-cache
//! discrimination, compaction) must hold around them.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tdfs_core::{
    find_matches, reference_count, ArrayCapacity, EngineError, MatchSink, MatcherConfig,
    OverflowPolicy, StackConfig,
};
use tdfs_graph::generators::barabasi_albert;
use tdfs_graph::rng::Rng;
use tdfs_graph::{DeltaCsr, EdgeBatch, GraphView};
use tdfs_query::automorphism::automorphisms;
use tdfs_query::plan::QueryPlan;
use tdfs_query::{Pattern, PatternId};
use tdfs_service::{
    ApplyError, MatchDelta, QueryRequest, Rejected, ResumeError, Service, ServiceConfig,
    StandingRequest,
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

fn house() -> Pattern {
    Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
}

fn small_service() -> Service {
    Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        plan_cache_capacity: 16,
        ..ServiceConfig::default()
    })
}

/// A random batch against the current view: `ins` uniform vertex pairs
/// (some will be present already — effective no-ops) and `del` edges
/// drawn from the live edge set (plus the odd phantom pair).
fn random_batch(view: &DeltaCsr, rng: &mut Rng, ins: usize, del: usize) -> EdgeBatch {
    let n = view.num_vertices() as u32;
    let mut batch = EdgeBatch::new();
    for _ in 0..ins {
        let u = rng.gen_range_u32(0..n);
        let v = rng.gen_range_u32(0..n);
        batch = batch.insert(u, v);
    }
    let edges: Vec<(u32, u32)> = view.arcs().filter(|&(u, v)| u < v).collect();
    for _ in 0..del {
        if edges.is_empty() {
            break;
        }
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        batch = batch.delete(u, v);
    }
    // A phantom delete exercises effective-batch normalization.
    batch = batch.delete(rng.gen_range_u32(0..n), rng.gen_range_u32(0..n));
    batch
}

/// The maintenance identity, checked per batch against a full rescan:
/// `count(post) − count(pre) == added − removed`, and the telescoped
/// running count stays exact across the whole schedule.
#[test]
fn incremental_deltas_equal_full_rescan_for_every_engine() {
    let cases: Vec<(&str, Pattern, bool)> = vec![
        ("k3", Pattern::clique(3), false),
        ("k4", PatternId(2).pattern(), false),
        ("house", house(), false),
        ("diamond_labeled", PatternId(12).pattern(), true),
    ];
    for (ename, cfg) in engines() {
        for (pname, pattern, labeled) in &cases {
            let svc = small_service();
            let base = barabasi_albert(120, 4, 7);
            let base = if *labeled {
                let n = base.num_vertices();
                base.with_labels((0..n as u32).map(|v| v % 4).collect())
            } else {
                base
            };
            svc.register_graph("g", Arc::new(base));
            let seen: Arc<Mutex<Vec<MatchDelta>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = seen.clone();
            svc.register_standing(
                StandingRequest::new("g", pattern.clone()).with_config(cfg.clone()),
                move |d| sink.lock().unwrap().push(d.clone()),
            )
            .unwrap();

            let plan = QueryPlan::build_with(pattern, Default::default());
            let mut rng = Rng::seed_from_u64(0xD15C0 + pattern.num_vertices() as u64);
            let mut running = reference_count(&*svc.catalog().get("g").unwrap(), &plan) as i64;
            for round in 0..5 {
                let pre = svc.catalog().get("g").unwrap();
                let batch = random_batch(&pre, &mut rng, 10, 6);
                let report = svc.apply("g", &batch).unwrap();
                let post = svc.catalog().get("g").unwrap();
                assert_eq!(post.version(), report.version, "{ename}/{pname}");

                let pre_count = reference_count(&*pre, &plan) as i64;
                let post_count = reference_count(&*post, &plan) as i64;
                let deltas = seen.lock().unwrap();
                let d = deltas.last().expect("one delta per batch");
                assert_eq!(d.version, report.version);
                assert_eq!(
                    post_count - pre_count,
                    d.added as i64 - d.removed as i64,
                    "{ename}/{pname} round {round}: rescan {pre_count}→{post_count}, \
                     delta +{} −{}",
                    d.added,
                    d.removed,
                );
                running += d.added as i64 - d.removed as i64;
                assert_eq!(
                    running, post_count,
                    "{ename}/{pname} telescoped count drifted"
                );
            }
            let m = svc.metrics();
            assert_eq!(m.batches_applied, 5);
            assert_eq!(m.standing_notifications, 5, "exactly one delta per batch");
            assert!(m.maintenance_jobs > 0, "maintenance rode the queue");
        }
    }
}

/// Canonical form of a pattern-vertex-indexed assignment: lexicographic
/// minimum over the pattern's automorphism group.
fn canonical(aut: &[Vec<usize>], m: &[u32]) -> Vec<u32> {
    aut.iter()
        .map(|sigma| sigma.iter().map(|&s| m[s]).collect::<Vec<u32>>())
        .min()
        .unwrap_or_else(|| m.to_vec())
}

/// Requested embeddings are the exact set difference of the pre/post
/// match sets, in canonical form.
#[test]
fn reported_embeddings_are_the_exact_set_difference() {
    use std::collections::BTreeSet;
    let pattern = Pattern::clique(3);
    let aut = automorphisms(&pattern);
    let cfg = MatcherConfig::tdfs().with_warps(2);

    let svc = small_service();
    svc.register_graph("g", Arc::new(barabasi_albert(60, 3, 11)));
    let seen: Arc<Mutex<Vec<MatchDelta>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    svc.register_standing(
        StandingRequest::new("g", pattern.clone())
            .with_config(cfg.clone())
            .with_embeddings(),
        move |d| sink.lock().unwrap().push(d.clone()),
    )
    .unwrap();

    let all_matches = |view: &DeltaCsr| -> BTreeSet<Vec<u32>> {
        let (_, ms) = find_matches(view, &pattern, &cfg, usize::MAX).unwrap();
        ms.iter().map(|m| canonical(&aut, m)).collect()
    };

    let mut rng = Rng::seed_from_u64(99);
    for _ in 0..4 {
        let pre = svc.catalog().get("g").unwrap();
        let before = all_matches(&pre);
        let batch = random_batch(&pre, &mut rng, 12, 8);
        svc.apply("g", &batch).unwrap();
        let after = all_matches(&svc.catalog().get("g").unwrap());

        let deltas = seen.lock().unwrap();
        let d = deltas.last().unwrap();
        let added: BTreeSet<Vec<u32>> = d.added_embeddings.clone().unwrap().into_iter().collect();
        let removed: BTreeSet<Vec<u32>> =
            d.removed_embeddings.clone().unwrap().into_iter().collect();
        assert_eq!(added, after.difference(&before).cloned().collect());
        assert_eq!(removed, before.difference(&after).cloned().collect());
        assert_eq!(added.len() as u64, d.added);
        assert_eq!(removed.len() as u64, d.removed);
    }
}

/// A snapshot taken at one graph version must not resume against
/// another: the shard ranges index that version's admitted-edge space.
#[test]
fn resume_is_fenced_to_the_snapshot_graph_version() {
    let svc = small_service();
    svc.register_graph("g", Arc::new(barabasi_albert(200, 4, 3)));
    let pattern = Pattern::clique(3);
    let h = svc.submit(QueryRequest::new("g", pattern.clone())).unwrap();
    let id = h.id();
    let want = h.wait().result.unwrap().matches;
    let bytes = svc.snapshot(id).unwrap();

    // Same version: the checkpoint resumes and reproduces the count.
    let out = svc.resume(&bytes).unwrap().wait();
    assert_eq!(out.result.unwrap().matches, want);

    // Any committed batch moves the version; the same bytes now refuse.
    svc.apply("g", &EdgeBatch::new().insert(0, 199)).unwrap();
    match svc.resume(&bytes) {
        Err(ResumeError::GraphVersionMismatch { expected, actual }) => {
            assert_eq!((expected, actual), (0, 1));
        }
        other => panic!("expected GraphVersionMismatch, got {other:?}"),
    }
}

/// Queries racing an apply each run against a frozen view: counts match
/// either the pre- or the post-batch graph, never a torn in-between.
#[test]
fn inflight_queries_are_snapshot_isolated_and_cache_discriminates_versions() {
    let svc = small_service();
    svc.register_graph("g", Arc::new(barabasi_albert(80, 3, 5)));
    let pattern = Pattern::clique(3);
    let plan = QueryPlan::build_with(&pattern, Default::default());

    let pre_count = reference_count(&*svc.catalog().get("g").unwrap(), &plan);
    let want = svc
        .submit(QueryRequest::new("g", pattern.clone()))
        .unwrap()
        .wait()
        .result
        .unwrap()
        .matches;
    assert_eq!(want, pre_count);

    for i in 0..3 {
        svc.apply("g", &EdgeBatch::new().insert(i, i + 40)).unwrap();
        let post_count = reference_count(&*svc.catalog().get("g").unwrap(), &plan);
        let got = svc
            .submit(QueryRequest::new("g", pattern.clone()))
            .unwrap()
            .wait()
            .result
            .unwrap()
            .matches;
        assert_eq!(got, post_count, "query after apply sees the new version");
    }
    // One plan per surviving (graph, version) generation, never a stale
    // hit: each applied batch invalidated the superseded generation.
    let stats = svc.metrics().plan_cache;
    assert!(stats.misses >= 4, "each version compiles its own plan");

    // Compaction changes representation, not content or version.
    let before = svc.catalog().get("g").unwrap();
    assert!(!before.is_compact());
    let v = svc.compact_graph("g").unwrap();
    let after = svc.catalog().get("g").unwrap();
    assert_eq!(v, before.version());
    assert_eq!(after.version(), before.version());
    assert!(after.is_compact());
    assert_eq!(
        reference_count(&*after, &plan),
        reference_count(&*before, &plan)
    );
}

/// Lifecycle: unknown graphs are rejected, unregistering a standing
/// query stops its deltas, and unregistering a graph drops its standing
/// queries.
#[test]
fn standing_lifecycle_and_rejections() {
    let svc = small_service();
    let err = svc
        .register_standing(StandingRequest::new("nope", Pattern::clique(3)), |_| {})
        .unwrap_err();
    assert_eq!(err, Rejected::UnknownGraph("nope".into()));

    svc.register_graph("g", Arc::new(barabasi_albert(40, 3, 1)));
    let seen: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let sink = seen.clone();
    let id = svc
        .register_standing(StandingRequest::new("g", Pattern::clique(3)), move |_| {
            *sink.lock().unwrap() += 1;
        })
        .unwrap();
    svc.apply("g", &EdgeBatch::new().insert(0, 1)).unwrap();
    assert_eq!(*seen.lock().unwrap(), 1);

    assert!(svc.unregister_standing(id));
    assert!(!svc.unregister_standing(id), "second removal is a no-op");
    svc.apply("g", &EdgeBatch::new().delete(0, 1)).unwrap();
    assert_eq!(*seen.lock().unwrap(), 1, "no deltas after unregister");

    // Standing queries die with their graph.
    let sink2 = seen.clone();
    svc.register_standing(StandingRequest::new("g", Pattern::clique(3)), move |_| {
        *sink2.lock().unwrap() += 100;
    })
    .unwrap();
    svc.unregister_graph("g").unwrap();
    let err = svc.apply("g", &EdgeBatch::new().insert(0, 1)).unwrap_err();
    assert!(matches!(err, tdfs_service::ApplyError::UnknownGraph(_)));
    assert_eq!(*seen.lock().unwrap(), 1);
}

/// A sink that signals when the engine first emits, then blocks until
/// released — pins a worker deterministically.
struct BlockingSink {
    entered: Arc<(Mutex<bool>, Condvar)>,
    release: Arc<(Mutex<bool>, Condvar)>,
}

impl MatchSink for BlockingSink {
    fn emit(&self, _m: &[u32]) {
        raise_flag(&self.entered);
        wait_flag(&self.release);
    }
}

fn wait_flag((m, c): &(Mutex<bool>, Condvar)) {
    let mut g = m.lock().unwrap();
    while !*g {
        g = c.wait(g).unwrap();
    }
}

fn raise_flag((m, c): &(Mutex<bool>, Condvar)) {
    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
    c.notify_all();
}

/// Raises a pinned worker's release flag when dropped, so a test that
/// panics while the worker is pinned fails instead of hanging in
/// `Service`'s drop, which joins the worker. Declare it after the
/// service: locals drop in reverse order.
struct ReleaseOnDrop(Arc<(Mutex<bool>, Condvar)>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        raise_flag(&self.0);
    }
}

/// Maintenance runs on the applying thread, not through the admission
/// queue: with the only worker pinned and the queue full, `apply` still
/// returns with an exact delta while the pinned query is unfinished.
#[test]
fn maintenance_runs_while_the_only_worker_is_pinned() {
    let svc = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        plan_cache_capacity: 8,
        default_deadline: Some(Duration::from_secs(30)),
        ..ServiceConfig::default()
    });
    svc.register_graph("g", Arc::new(barabasi_albert(100, 4, 9)));
    let pattern = Pattern::clique(3);
    let plan = QueryPlan::build_with(&pattern, Default::default());
    let seen: Arc<Mutex<Vec<MatchDelta>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    svc.register_standing(StandingRequest::new("g", pattern.clone()), move |d| {
        sink.lock().unwrap().push(d.clone())
    })
    .unwrap();

    // Saturate: a query pinned inside its sink occupies the single worker
    // while a second fills the one queue slot.
    let entered = Arc::new((Mutex::new(false), Condvar::new()));
    let release = ReleaseOnDrop(Arc::new((Mutex::new(false), Condvar::new())));
    let blocker = Arc::new(BlockingSink {
        entered: entered.clone(),
        release: release.0.clone(),
    });
    let q1 = svc
        .submit(QueryRequest::new("g", pattern.clone()).with_sink(blocker))
        .unwrap();
    wait_flag(&entered);
    let q2 = svc.submit(QueryRequest::new("g", pattern.clone())).unwrap();

    let pre = svc.catalog().get("g").unwrap();
    let pre_count = reference_count(&*pre, &plan) as i64;
    svc.apply(
        "g",
        &EdgeBatch::new().insert(0, 50).insert(1, 51).delete(0, 1),
    )
    .unwrap();
    assert!(
        q1.wait_timeout(Duration::ZERO).is_none(),
        "apply returned while the worker was still pinned"
    );
    let post_count = reference_count(&*svc.catalog().get("g").unwrap(), &plan) as i64;

    let deltas = seen.lock().unwrap();
    let d = deltas.last().expect("delta delivered despite saturation");
    assert_eq!(post_count - pre_count, d.added as i64 - d.removed as i64);
    drop(deltas);

    drop(release);
    assert!(q1.wait().result.is_ok());
    assert!(q2.wait().result.is_ok());
    svc.shutdown();
}

/// A maintenance pass that fails fails the apply before anything
/// commits: a K4 standing query whose array stacks overflow on this
/// batch gets no delta, and the graph stays at its version, instead of
/// a silently wrong `+0 −0` for a batch that removes K4s.
#[test]
fn a_failed_maintenance_pass_fails_the_apply_before_commit() {
    let svc = small_service();
    svc.register_graph("g", Arc::new(barabasi_albert(400, 6, 7)));
    let pattern = Pattern::clique(4);
    let config = MatcherConfig {
        stack: StackConfig::Array {
            capacity: ArrayCapacity::Fixed(4),
            policy: OverflowPolicy::Error,
        },
        ..MatcherConfig::tdfs().with_warps(1)
    };
    let seen: Arc<Mutex<Vec<MatchDelta>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    svc.register_standing(
        StandingRequest::new("g", pattern).with_config(config),
        move |d| sink.lock().unwrap().push(d.clone()),
    )
    .unwrap();

    let mut batch = EdgeBatch::new();
    for (u, v) in [
        (0, 1),
        (0, 2),
        (1, 2),
        (0, 3),
        (1, 3),
        (2, 3),
        (0, 4),
        (1, 4),
    ] {
        batch = batch.delete(u, v);
    }
    for (u, v) in [(10, 11), (10, 12), (11, 12)] {
        batch = batch.insert(u, v);
    }
    let pre = svc.catalog().get("g").unwrap().version();
    match svc.apply("g", &batch) {
        Err(ApplyError::Maintenance(EngineError::Stack(_))) => {}
        other => panic!("expected a stack overflow in maintenance, got {other:?}"),
    }
    assert_eq!(svc.catalog().get("g").unwrap().version(), pre);
    assert!(
        seen.lock().unwrap().is_empty(),
        "no delta for a failed apply"
    );
    assert_eq!(svc.metrics().batches_applied, 0);
}
