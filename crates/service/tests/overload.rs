//! Overload-governor integration tests: storm survival under a tiny
//! memory budget, suspend/resume exactness across every engine,
//! deadline shedding before execution, cost-aware admission, sojourn
//! shedding, brownout, and metrics-snapshot consistency.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tdfs_core::{reference_count, EngineError, MatchSink, MatcherConfig};
use tdfs_graph::generators::barabasi_albert;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;
use tdfs_service::{
    BreakerConfig, BreakerState, DurableConfig, GovernorConfig, Priority, QueryRequest, Rejected,
    Service, ServiceConfig, ShedPolicy,
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

/// A sink that signals when the engine first emits, then blocks until
/// released — pins a worker deterministically.
struct BlockingSink {
    entered: Arc<(Mutex<bool>, Condvar)>,
    release: Arc<(Mutex<bool>, Condvar)>,
}

impl MatchSink for BlockingSink {
    fn emit(&self, _m: &[u32]) {
        {
            let (m, c) = &*self.entered;
            *m.lock().unwrap() = true;
            c.notify_all();
        }
        let (m, c) = &*self.release;
        let mut g = m.lock().unwrap();
        while !*g {
            g = c.wait(g).unwrap();
        }
    }
}

fn wait_flag(pair: &(Mutex<bool>, Condvar)) {
    let (m, c) = pair;
    let mut g = m.lock().unwrap();
    while !*g {
        g = c.wait(g).unwrap();
    }
}

fn raise_flag(pair: &(Mutex<bool>, Condvar)) {
    let (m, c) = pair;
    *m.lock().unwrap() = true;
    c.notify_all();
}

fn k5() -> Arc<tdfs_graph::CsrGraph> {
    let mut b = tdfs_graph::GraphBuilder::new();
    for u in 0..5 {
        for v in (u + 1)..5 {
            b.push_edge(u, v);
        }
    }
    Arc::new(b.build())
}

/// The tentpole stress test: 2× queue capacity of concurrent clients
/// against a deliberately tiny service memory budget, with sojourn
/// shedding armed and a live metrics sampler. Every accepted query must
/// terminate with a complete result, an exact partial, or a typed shed;
/// nothing may fail, panic, or leak budget pages — and every `Ok`
/// outcome must carry the *exact* count despite suspends and spills.
#[test]
fn storm_terminates_every_accepted_query_and_leaks_nothing() {
    let g = Arc::new(barabasi_albert(300, 5, 7));
    let pattern = Pattern::clique(4);
    let config = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, config.plan));

    const QUEUE_CAP: usize = 8;
    let svc = Arc::new(Service::new(ServiceConfig {
        workers: 3,
        queue_capacity: QUEUE_CAP,
        plan_cache_capacity: 8,
        durability: DurableConfig {
            shard_edges: 32,
            ..DurableConfig::default()
        },
        governor: GovernorConfig {
            memory_budget_pages: Some(16),
            suspend_high_water: 0.75,
            resume_low_water: 0.25,
            shed_policy: ShedPolicy::Sojourn {
                target: Duration::from_millis(20),
            },
            tick: Duration::from_millis(1),
            ..GovernorConfig::default()
        },
        ..ServiceConfig::default()
    }));
    svc.register_graph("ba", g);

    // Live sampler: every metrics snapshot must be internally
    // consistent, even taken mid-storm.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let svc = svc.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let m = svc.metrics();
                let finished = m.completed + m.deadline_expired + m.failed + m.queries_shed;
                assert!(
                    finished <= m.admitted,
                    "finished {finished} > admitted {}",
                    m.admitted
                );
                assert!(
                    m.partials_served <= m.deadline_expired + m.queries_shed,
                    "partials {} without matching early endings",
                    m.partials_served
                );
                assert!(m.cancelled <= m.completed);
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };

    let clients = QUEUE_CAP * 2;
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let svc = svc.clone();
            let pattern = pattern.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                let mut req = QueryRequest::new("ba", pattern).with_config(config);
                if i % 2 == 0 {
                    req = req.with_deadline(Duration::from_millis(400));
                }
                if i % 3 == 0 {
                    req = req.with_priority(Priority::Low);
                }
                svc.submit(req).map(|h| h.wait())
            })
        })
        .collect();

    let mut accepted = 0u64;
    let mut ok = 0u64;
    for h in handles {
        match h.join().expect("client thread panicked") {
            Ok(out) => {
                accepted += 1;
                match &out.result {
                    Ok(r) => {
                        ok += 1;
                        assert!(!r.stats.cancelled, "nobody cancelled");
                        assert_eq!(r.matches, want, "suspend/spill storm broke exactness");
                        assert!(out.partial.is_none());
                    }
                    Err(EngineError::TimeLimit) | Err(EngineError::Shed) => {
                        if let Some(p) = &out.partial {
                            assert!(p.lower_bound <= want, "partial bound exceeds the answer");
                            assert!(p.shards_done <= p.shards_total);
                        }
                    }
                    Err(e) => panic!("query died with untyped error {e}"),
                }
            }
            Err(r) => assert!(
                matches!(r, Rejected::QueueFull),
                "unexpected rejection {r:?}"
            ),
        }
    }
    assert!(ok >= 1, "storm completed nothing");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    sampler.join().expect("metrics sampler found inconsistency");

    let m = svc.metrics();
    assert_eq!(m.admitted, accepted);
    assert_eq!(
        m.completed + m.deadline_expired + m.failed + m.queries_shed,
        accepted,
        "an accepted query never terminated"
    );
    assert_eq!(m.failed, 0, "no untyped failures under overload");
    assert_eq!(
        m.budget_in_use_pages, 0,
        "budget pages leaked after all queries ended"
    );
    assert!(m.budget_peak_pages > 0, "the budget was never exercised");
    svc.shutdown();
}

/// Manual snapshot-suspension mid-run, then resume-in-place: the final
/// count is exact for every engine. Suspension revokes in-flight shard
/// leases whose counts were never published, so parking and resuming a
/// query cannot change its answer.
#[test]
fn suspend_then_unsuspend_preserves_exact_counts_for_every_engine() {
    let g = Arc::new(barabasi_albert(600, 5, 11));
    for (ename, config) in engines() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            plan_cache_capacity: 8,
            durability: DurableConfig {
                shard_edges: 4,
                ..DurableConfig::default()
            },
            // A budget far above this query's needs charges every arena
            // page without pressure; pressure never falls below zero,
            // so the governor leaves the resume to the test.
            governor: GovernorConfig {
                memory_budget_pages: Some(1 << 20),
                resume_low_water: -1.0,
                ..GovernorConfig::default()
            },
            ..ServiceConfig::default()
        });
        svc.register_graph("ba", g.clone());
        let pattern = Pattern::clique(4);
        let want = reference_count(&g, &QueryPlan::build_with(&pattern, config.plan));
        let h = svc
            .submit(QueryRequest::new("ba", pattern).with_config(config))
            .unwrap();
        let id = h.id();
        // `NotStarted` while queued and `UnknownQuery` in the tiny
        // window before durable-state registration are transient.
        let deadline = Instant::now() + Duration::from_secs(10);
        let bytes = loop {
            match svc.suspend(id) {
                Ok(b) => break b,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                Err(e) => panic!("{ename}: suspend failed: {e}"),
            }
        };
        // The checkpoint taken at suspension is a valid recovery
        // artifact with a partial count bounded by the answer.
        let snap = tdfs_service::snapshot::decode(&bytes).expect("suspension checkpoint decodes");
        assert!(snap.matches <= want, "{ename}: checkpoint overcounts");
        // The suspension the governor applies revokes the in-flight
        // shards; once they unwind, the parked workers hold no arena
        // pages.
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.metrics().budget_in_use_pages > 0 {
            assert!(
                Instant::now() < deadline,
                "{ename}: parked workers still hold arena pages"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            svc.metrics().budget_in_use_pages,
            0,
            "{ename}: a parked worker took arena pages"
        );
        assert!(
            svc.unsuspend(id) || svc.progress(id).is_some_and(|p| p.done),
            "{ename}: suspended query neither resumable nor finished"
        );
        let out = h.wait();
        assert_eq!(
            out.result.expect("suspended run failed").matches,
            want,
            "{ename}: suspend/resume lost counts"
        );
        let m = svc.metrics();
        assert_eq!(m.suspends, 1);
        assert!(m.snapshots_taken >= 1, "suspension checkpointed");
        svc.shutdown();
    }
}

/// Regression: a query whose deadline expired while queued fails with
/// `TimeLimit` *before* any execution work — discriminated by the plan
/// cache, which must never see the expired query's pattern.
#[test]
fn deadline_expired_in_queue_never_builds_a_plan() {
    let svc = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        plan_cache_capacity: 8,
        ..ServiceConfig::default()
    });
    svc.register_graph("k5", k5());
    let entered = Arc::new((Mutex::new(false), Condvar::new()));
    let release = Arc::new((Mutex::new(false), Condvar::new()));
    let blocker = svc
        .submit(
            QueryRequest::new("k5", Pattern::clique(3)).with_sink(Arc::new(BlockingSink {
                entered: entered.clone(),
                release: release.clone(),
            })),
        )
        .unwrap();
    wait_flag(&entered);
    // Queued behind the pinned worker with an already-expired deadline;
    // its pattern (K4) shares no plan with the blocker (K3).
    let doomed = svc
        .submit(QueryRequest::new("k5", Pattern::clique(4)).with_deadline(Duration::ZERO))
        .unwrap();
    raise_flag(&release);
    assert!(blocker.wait().result.is_ok());
    assert!(matches!(doomed.wait().result, Err(EngineError::TimeLimit)));
    let m = svc.metrics();
    assert_eq!(m.deadline_expired, 1);
    assert_eq!(
        m.plan_cache.misses, 1,
        "the expired query must never have built a plan"
    );
    assert_eq!(m.plan_cache.hits, 0);
}

/// Cost-aware admission: with a calibrated cost rate, a deadline the
/// estimate says is unmeetable is rejected up front; the same query
/// with a generous deadline (or no deadline) is admitted.
#[test]
fn cost_gate_rejects_unmeetable_deadlines() {
    let svc = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        plan_cache_capacity: 8,
        governor: GovernorConfig {
            // 1 cost unit per ms: even K5 queries "cost" hundreds of ms.
            cost_per_ms: Some(1),
            ..GovernorConfig::default()
        },
        ..ServiceConfig::default()
    });
    svc.register_graph("k5", k5());
    let err = svc
        .submit(QueryRequest::new("k5", Pattern::clique(3)).with_deadline(Duration::from_millis(1)))
        .unwrap_err();
    match err {
        Rejected::DeadlineUnmeetable { estimated_cost } => assert!(estimated_cost > 0),
        other => panic!("expected DeadlineUnmeetable, got {other:?}"),
    }
    let out = svc
        .submit(QueryRequest::new("k5", Pattern::clique(3)).with_deadline(Duration::from_secs(60)))
        .unwrap()
        .wait();
    assert_eq!(out.result.unwrap().matches, 10);
    let m = svc.metrics();
    assert_eq!(m.rejected_unmeetable, 1);
    assert_eq!(m.completed, 1);
}

/// CoDel-style sojourn shedding: under sustained queue delay the
/// governor sheds the newest Low-priority queued query with a typed
/// `Shed` outcome; Normal-priority work is never sojourn-shed.
#[test]
fn sojourn_shedding_drops_newest_low_priority_work() {
    let svc = Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        plan_cache_capacity: 8,
        governor: GovernorConfig {
            shed_policy: ShedPolicy::Sojourn {
                target: Duration::from_millis(15),
            },
            tick: Duration::from_millis(2),
            ..GovernorConfig::default()
        },
        ..ServiceConfig::default()
    });
    svc.register_graph("k5", k5());
    let entered = Arc::new((Mutex::new(false), Condvar::new()));
    let release = Arc::new((Mutex::new(false), Condvar::new()));
    let blocker = svc
        .submit(
            QueryRequest::new("k5", Pattern::clique(3)).with_sink(Arc::new(BlockingSink {
                entered: entered.clone(),
                release: release.clone(),
            })),
        )
        .unwrap();
    wait_flag(&entered);
    let normal = svc
        .submit(QueryRequest::new("k5", Pattern::clique(3)))
        .unwrap();
    let low = svc
        .submit(QueryRequest::new("k5", Pattern::clique(3)).with_priority(Priority::Low))
        .unwrap();
    // Sojourn exceeds the target continuously: the Low query is shed
    // from the queue while the worker is still pinned.
    let mut low = Some(low);
    let deadline = Instant::now() + Duration::from_secs(10);
    let shed_out = loop {
        if let Some(out) = low.as_mut().unwrap().try_wait() {
            break out;
        }
        assert!(Instant::now() < deadline, "low-priority query never shed");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(matches!(shed_out.result, Err(EngineError::Shed)));
    assert!(shed_out.partial.is_none(), "never started: no partial");
    raise_flag(&release);
    assert!(blocker.wait().result.is_ok());
    assert_eq!(
        normal.wait().result.unwrap().matches,
        10,
        "normal-priority work survived the shed"
    );
    let m = svc.metrics();
    assert_eq!(m.queries_shed, 1);
    assert_eq!(m.completed, 2);
}

/// Brownout lifecycle: a failure spike opens the breaker (Normal
/// rejected, High admitted), cooldown half-opens it, a good probe
/// closes it again.
#[test]
fn breaker_browns_out_and_recovers() {
    let svc = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        plan_cache_capacity: 8,
        governor: GovernorConfig {
            breaker: BreakerConfig {
                enabled: true,
                window: 8,
                min_samples: 4,
                trip_ratio: 0.5,
                cooldown: Duration::from_millis(300),
            },
            tick: Duration::from_millis(2),
            ..GovernorConfig::default()
        },
        ..ServiceConfig::default()
    });
    svc.register_graph("k5", k5());
    // Four straight deadline misses trip the breaker.
    for _ in 0..4 {
        let out = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)).with_deadline(Duration::ZERO))
            .unwrap()
            .wait();
        assert!(matches!(out.result, Err(EngineError::TimeLimit)));
    }
    // Browned out: Normal priority is rejected, High still runs.
    let err = svc
        .submit(QueryRequest::new("k5", Pattern::clique(3)))
        .unwrap_err();
    assert_eq!(err, Rejected::BrownedOut);
    let vip = svc
        .submit(QueryRequest::new("k5", Pattern::clique(3)).with_priority(Priority::High))
        .unwrap()
        .wait();
    assert_eq!(vip.result.unwrap().matches, 10);
    // After the cooldown the breaker half-opens; the next submission is
    // the recovery probe, and its success closes the breaker.
    let deadline = Instant::now() + Duration::from_secs(10);
    let probe = loop {
        match svc.submit(QueryRequest::new("k5", Pattern::clique(3))) {
            Ok(h) => break h,
            Err(Rejected::BrownedOut) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected rejection {e:?}"),
        }
    };
    assert_eq!(probe.wait().result.unwrap().matches, 10);
    let m = svc.metrics();
    assert_eq!(m.breaker_state, BreakerState::Closed);
    assert!(m.rejected_brownout >= 1);
    assert!(
        m.breaker_state_changes >= 3,
        "closed → open → half-open → closed"
    );
}
