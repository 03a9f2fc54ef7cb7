//! Service-layer chaos tests (requires `--features chaos`): scripted
//! fault points drive the governor's suspend path, the brownout
//! breaker and shard recovery from the outside — no cooperating sink
//! required.
//!
//! Every test holds a `ChaosGuard` because the fault-point registry is
//! process-global; the guard serializes chaos tests within one binary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tdfs_core::{reference_count, EngineError, MatcherConfig};
use tdfs_graph::GraphBuilder;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;
use tdfs_service::{
    BreakerConfig, BreakerState, DurableConfig, GovernorConfig, QueryRequest, Rejected, Service,
    ServiceConfig,
};
use tdfs_testkit::fault::{self, Action, ChaosScript, Trigger};

fn k5() -> Arc<tdfs_graph::CsrGraph> {
    let mut b = GraphBuilder::new();
    for u in 0..5 {
        for v in (u + 1)..5 {
            b.push_edge(u, v);
        }
    }
    Arc::new(b.build())
}

/// `service.governor.pressure` forces the governor to see phantom
/// memory pressure for the first N ticks: the in-flight durable query
/// is snapshot-suspended even though the real budget is nearly idle,
/// then resumes on the first honest pressure reading — and still
/// produces the exact count.
#[test]
fn phantom_pressure_suspends_then_resumes_with_exact_count() {
    let _chaos = ChaosScript::new()
        .on(
            "service.governor.pressure",
            Trigger::FirstN(400),
            Action::Inject,
        )
        .install();
    let svc = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        plan_cache_capacity: 4,
        durability: DurableConfig {
            shard_edges: 4,
            ..DurableConfig::default()
        },
        governor: GovernorConfig {
            // Ample budget: any real pressure reading is ~0, so the
            // suspension below is attributable only to the fault point.
            memory_budget_pages: Some(1_000_000),
            tick: Duration::from_millis(1),
            ..GovernorConfig::default()
        },
        ..ServiceConfig::default()
    });
    let g = Arc::new(tdfs_graph::generators::barabasi_albert(800, 6, 13));
    svc.register_graph("ba", g.clone());
    let pattern = Pattern::clique(4);
    let config = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, config.plan));

    let out = svc
        .submit(QueryRequest::new("ba", pattern).with_config(config))
        .unwrap()
        .wait();
    assert_eq!(out.result.unwrap().matches, want, "suspension lost counts");

    let m = svc.metrics();
    assert!(
        m.suspends >= 1,
        "phantom pressure never suspended the query"
    );
    assert!(m.snapshots_taken >= 1, "suspension must checkpoint first");
    assert_eq!(
        m.budget_in_use_pages, 0,
        "pages leaked across suspend/resume"
    );
    assert!(fault::injections("service.governor.pressure") >= 1);
    svc.shutdown();
}

/// The half-open probe *fails* — a scripted stall at
/// `service.worker.run` holds the probe past its deadline — and the
/// breaker re-opens instead of closing (the BAD-probe arm of the
/// half-open state; the happy-path lifecycle is covered in
/// `overload.rs`). A second cooldown then half-opens it again and a
/// clean probe finally closes the circuit.
#[test]
fn breaker_half_open_bad_probe_reopens_then_recovers() {
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
                cooldown: Duration::from_millis(250),
            },
            tick: Duration::from_millis(2),
            ..GovernorConfig::default()
        },
        ..ServiceConfig::default()
    });
    svc.register_graph("k5", k5());
    // Four straight deadline misses trip the breaker: Closed → Open.
    for _ in 0..4 {
        let out = svc
            .submit(QueryRequest::new("k5", Pattern::clique(3)).with_deadline(Duration::ZERO))
            .unwrap()
            .wait();
        assert!(matches!(out.result, Err(EngineError::TimeLimit)));
    }
    assert_eq!(
        svc.submit(QueryRequest::new("k5", Pattern::clique(3)))
            .unwrap_err(),
        Rejected::BrownedOut
    );
    // Arm the stall: the next job a worker picks up — the half-open
    // recovery probe — sleeps well past its deadline and records a BAD
    // outcome.
    let _chaos = ChaosScript::new()
        .on(
            "service.worker.run",
            Trigger::Nth(1),
            Action::Delay { millis: 200 },
        )
        .install();
    let deadline = Instant::now() + Duration::from_secs(10);
    let probe = loop {
        match svc.submit(
            QueryRequest::new("k5", Pattern::clique(3)).with_deadline(Duration::from_millis(20)),
        ) {
            Ok(h) => break h,
            Err(Rejected::BrownedOut) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("unexpected rejection {e:?}"),
        }
    };
    let out = probe.wait();
    assert!(
        matches!(out.result, Err(EngineError::TimeLimit)),
        "the stalled probe must miss its deadline, got {:?}",
        out.result
    );
    assert_eq!(fault::injections("service.worker.run"), 1);
    // The bad probe re-opens the circuit: transition #3
    // (Closed → Open → HalfOpen → Open).
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics().breaker_state_changes < 3 {
        assert!(
            Instant::now() < deadline,
            "the bad probe never re-opened the breaker: {:?}",
            svc.metrics()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Second cooldown, second probe — unscripted this time, so it
    // succeeds and closes the circuit for good.
    let deadline = Instant::now() + Duration::from_secs(10);
    let probe = loop {
        match svc.submit(QueryRequest::new("k5", Pattern::clique(3))) {
            Ok(h) => break h,
            Err(Rejected::BrownedOut) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("unexpected rejection {e:?}"),
        }
    };
    assert_eq!(probe.wait().result.unwrap().matches, 10);
    let m = svc.metrics();
    assert_eq!(m.breaker_state, BreakerState::Closed);
    assert!(
        m.breaker_state_changes >= 5,
        "closed → open → half-open → open → half-open → closed, got {}",
        m.breaker_state_changes
    );
    assert!(m.deadline_expired >= 5, "four trips plus the bad probe");
    assert!(m.rejected_brownout >= 1);
    svc.shutdown();
}

/// A governor-suspended durable query survives a restart with an exact
/// count: phantom pressure makes the governor suspend it,
/// `suspend_to_disk` persists that checkpoint, the service is dropped
/// mid-query (the "kill"), and a fresh [`Service::open`] of the same
/// state directory re-admits it — where the still-lying governor
/// suspends it *again*, so a manual `unsuspend` once the chaos clears
/// is what releases it to completion.
#[test]
fn reopened_service_resumes_a_governor_suspended_query_exactly() {
    let dir = tdfs_testkit::TempDir::new("tdfs-chaos-govresume").unwrap();
    let g = Arc::new(tdfs_graph::generators::barabasi_albert(800, 6, 13));
    let pattern = Pattern::clique(4);
    let config = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, config.plan));
    let service_config = || ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        plan_cache_capacity: 4,
        durability: DurableConfig {
            shard_edges: 8,
            ..DurableConfig::default()
        },
        governor: GovernorConfig {
            memory_budget_pages: Some(1_000_000),
            // Auto-resume is impossible (pressure is never negative):
            // only `unsuspend` — or shutdown's drain — may clear a
            // suspension, which makes every step below deterministic.
            resume_low_water: -1.0,
            tick: Duration::from_millis(1),
            ..GovernorConfig::default()
        },
        ..ServiceConfig::default()
    };

    {
        let chaos = ChaosScript::new()
            .on(
                "service.governor.pressure",
                Trigger::FirstN(1_000_000),
                Action::Inject,
            )
            .install();
        let svc = Service::open(dir.path(), service_config()).unwrap().service;
        svc.register_graph_persistent("ba", g.clone()).unwrap();
        let h = svc
            .submit(QueryRequest::new("ba", pattern.clone()).with_config(config.clone()))
            .unwrap();
        let id = h.id();
        let deadline = Instant::now() + Duration::from_secs(20);
        while svc.metrics().suspends == 0 {
            assert!(
                Instant::now() < deadline,
                "phantom pressure never suspended the query"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Persist the governor's checkpoint (transient `NotStarted` /
        // `UnknownQuery` while the query sits queued).
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match svc.suspend_to_disk(id) {
                Ok(_) => break,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("suspend_to_disk failed: {e}"),
            }
        }
        // The "kill": drop the service with the query suspended. (Stop
        // lying first; shutdown unsuspends and drains in-process, but
        // the persisted checkpoint stays on disk regardless.)
        drop(chaos);
        drop(svc);
    }

    let chaos = ChaosScript::new()
        .on(
            "service.governor.pressure",
            Trigger::FirstN(1_000_000),
            Action::Inject,
        )
        .install();
    let opened = Service::open(dir.path(), service_config()).unwrap();
    assert!(opened.failed.is_empty(), "{:?}", opened.failed);
    assert_eq!(opened.resumed.len(), 1, "the checkpoint must re-admit");
    let svc = opened.service;
    let h = opened.resumed.into_iter().next().unwrap();
    let id = h.id();
    // The reopened service's governor sees the same phantom pressure
    // and suspends the resumed query too.
    let deadline = Instant::now() + Duration::from_secs(20);
    while svc.metrics().suspends == 0 {
        assert!(
            Instant::now() < deadline,
            "the resumed query was never governor-suspended"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(chaos); // honest pressure again — but resume_low_water keeps it parked
    assert!(
        svc.unsuspend(id),
        "the resumed query must still be suspended"
    );
    // A governor tick that read the phantom pressure before the script
    // was dropped may still pick the query and suspend it again, and
    // nothing resumes it on its own: unsuspend it until it finishes.
    let deadline = Instant::now() + Duration::from_secs(20);
    let out = loop {
        if let Some(out) = h.wait_timeout(Duration::from_millis(10)) {
            break out;
        }
        assert!(
            Instant::now() < deadline,
            "the unsuspended query did not finish within 20 s"
        );
        svc.unsuspend(id);
    };
    assert_eq!(
        out.result.unwrap().matches,
        want,
        "suspend → kill → open → unsuspend lost counts"
    );
    let m = svc.metrics();
    assert_eq!(m.resumes, 1);
    assert!(m.suspends >= 1);
    // No zero-page assertion here: the persistent graph is disk-resident
    // and its decode cache retains a few budget pages by design.
    svc.shutdown();
}
