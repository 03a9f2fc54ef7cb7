//! Cluster chaos suite (requires `--features chaos`): node kills,
//! network partitions, frame drop/duplicate storms — every schedule
//! seeded, every final count compared against the single-process
//! reference. The acceptance sweep runs all five engines over K3, K4
//! and the house pattern under both a mid-query `kill -9` and a
//! coordinator-visible partition of one node, with failover completing
//! via snapshot shipping to a replacement node.
//!
//! Every test holds a `ChaosGuard`: the fault-point registry is
//! process-global, so chaos tests serialize within one binary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tdfs_cluster::{ClusterConfig, Coordinator, NodeConfig, NodeHandle};
use tdfs_core::{reference_count, MatcherConfig};
use tdfs_graph::generators::barabasi_albert;
use tdfs_graph::CsrGraph;
use tdfs_query::plan::QueryPlan;
use tdfs_query::Pattern;
use tdfs_service::ServiceConfig;
use tdfs_testkit::fault::{self, Action, ChaosScript, Trigger};

const WAIT: Duration = Duration::from_secs(120);

fn chaos_config() -> ClusterConfig {
    ClusterConfig {
        lease_timeout: Duration::from_millis(120),
        shard_edges: 32,
        grant_batch: 4,
        wait_millis: 1,
        watchdog_interval: Duration::from_millis(5),
        read_timeout: Duration::from_millis(20),
        ..ClusterConfig::default()
    }
}

fn node_config(coord: &Coordinator, node_id: u64, dir: &std::path::Path) -> NodeConfig {
    NodeConfig {
        service: ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            plan_cache_capacity: 16,
            ..ServiceConfig::default()
        },
        ..NodeConfig::new(coord.addr().to_string(), node_id, dir)
    }
}

/// The survivor's pause before each ack while a kill test waits for
/// its replacement node.
const SURVIVOR_ACK_DELAY_MS: u64 = 40;

/// Holds a kill test's query open until the replacement node has
/// joined: the survivor (node 2, spawned with [`survivor_config`]) takes
/// one shard at a time and sleeps [`SURVIVOR_ACK_DELAY_MS`] before each
/// ack. Every lease it holds is still acked well inside the 120 ms lease
/// timeout, but alone it needs about 30 shards x 40 ms to drain the
/// query, far longer than the replacement takes to receive the graph
/// and poll again. Without the hold a fast survivor can finish first,
/// and no snapshot ships.
fn hold_survivor(script: ChaosScript) -> ChaosScript {
    script.on_keyed(
        "cluster.node.ack",
        2,
        Trigger::Always,
        Action::Delay {
            millis: SURVIVOR_ACK_DELAY_MS,
        },
    )
}

/// Node 2 for a kill test: one shard in flight, so each ack waits out
/// only its own hold, never a queue of them.
fn survivor_config(coord: &Coordinator, dir: &std::path::Path) -> NodeConfig {
    NodeConfig {
        poll_capacity: 1,
        ..node_config(coord, 2, dir)
    }
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

fn wait_for_death(node: &NodeHandle) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while node.is_alive() {
        assert!(Instant::now() < deadline, "chaos kill never fired");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The headline failover test: node 1 is killed (`Action::Kill` at the
/// `cluster.node.ack` point — it dies *holding a computed result*, the
/// worst moment). Its leases expire, the watchdog reaps them, a
/// replacement node joins mid-query via a shipped snapshot (the
/// survivor is held, see [`hold_survivor`]), and the final count is
/// exact.
#[test]
fn killed_node_mid_query_fails_over_via_snapshot_with_the_exact_count() {
    let _chaos = hold_survivor(ChaosScript::new().on_keyed(
        "cluster.node.ack",
        1,
        Trigger::Nth(1),
        Action::Kill,
    ))
    .install();
    let dir = tempdir("kill");
    let coord = Coordinator::bind("127.0.0.1:0", chaos_config()).unwrap();
    let g = Arc::new(barabasi_albert(250, 4, 21));
    coord.register_graph("ba", 0, g.clone()).unwrap();
    let mut doomed = NodeHandle::spawn(node_config(&coord, 1, &dir));
    let survivor = NodeHandle::spawn(survivor_config(&coord, &dir));

    let pattern = Pattern::clique(3);
    let cfg = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));
    let handle = coord.start_query("ba", pattern, cfg).unwrap();

    wait_for_death(&doomed);
    doomed.join();
    let before = coord.metrics().snapshots_shipped;
    // Boot the replacement *after* the kill: it must receive the graph
    // container and a mid-query snapshot to contribute at all.
    let replacement = NodeHandle::spawn(node_config(&coord, 3, &dir));

    assert_eq!(handle.wait(WAIT).unwrap(), want, "failover count diverged");
    assert!(
        coord.metrics().snapshots_shipped > before,
        "replacement node joined via snapshot shipping"
    );
    let stats = handle.lease_stats();
    assert!(
        stats.reclaimed >= 1,
        "the dead node's leases were reclaimed: {stats:?}"
    );
    assert!(survivor.is_alive());
    drop(replacement);
}

/// A coordinator-visible partition: node 1 goes silent (a scripted
/// delay far past the lease timeout) while holding computed results.
/// The watchdog reaps its leases and re-grants them; when the
/// partition heals, the node's late acks carry stale epochs and every
/// one is fenced — the count lands exactly once.
#[test]
fn partitioned_node_is_fenced_and_the_count_lands_exactly_once() {
    let _chaos = ChaosScript::new()
        .on_keyed(
            "cluster.node.ack",
            1,
            Trigger::Nth(1),
            // Far past the 120 ms lease timeout, with margin for a
            // scheduling stall of the watchdog itself: the reap must
            // win this race or no partition happened at all.
            Action::Delay { millis: 1200 },
        )
        .install();
    let dir = tempdir("partition");
    let coord = Coordinator::bind("127.0.0.1:0", chaos_config()).unwrap();
    let g = Arc::new(barabasi_albert(250, 4, 22));
    coord.register_graph("ba", 0, g.clone()).unwrap();
    let _n1 = NodeHandle::spawn(node_config(&coord, 1, &dir));
    let _n2 = NodeHandle::spawn(node_config(&coord, 2, &dir));

    let pattern = Pattern::clique(3);
    let cfg = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));
    let handle = coord.start_query("ba", pattern, cfg).unwrap();
    assert_eq!(handle.wait(WAIT).unwrap(), want, "partition count diverged");

    assert!(fault::hits("cluster.node.ack") >= 1, "the delay fired");
    // The query finishes while the partitioned node is still inside its
    // scripted delay; its late (fenced) ack lands only after it wakes.
    let deadline = Instant::now() + Duration::from_secs(10);
    while coord.metrics().acks_fenced == 0 {
        assert!(
            Instant::now() < deadline,
            "the partitioned node's late ack was never fenced: {:?}",
            coord.metrics()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = handle.lease_stats();
    assert!(stats.reclaimed >= 1, "partitioned leases reclaimed");
    assert!(stats.fenced >= 1);
}

/// The acceptance sweep: all 5 engines x K3/K4/house, each under (a) a
/// `kill -9` of one node mid-query with a snapshot-shipped replacement,
/// and (b) a coordinator-visible partition of one node. Every case must
/// land on the exact single-process reference count.
#[test]
fn seeded_chaos_sweep_every_engine_and_pattern_kill_and_partition() {
    let g = Arc::new(barabasi_albert(250, 4, 9));
    let dir = tempdir("sweep");
    for (pi, (pname, pattern)) in patterns().into_iter().enumerate() {
        for (ei, (ename, cfg)) in engines().into_iter().enumerate() {
            let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));
            for mode in ["kill", "partition"] {
                let seed = 5000 + (pi * 100 + ei * 10) as u64;
                // The partition delay must outlast the lease timeout by
                // a wide margin: if a scheduling stall keeps the
                // watchdog from reaping before the node wakes, the "late"
                // ack is accepted and no partition happened at all.
                let action = match mode {
                    "kill" => Action::Kill,
                    _ => Action::Delay { millis: 900 },
                };
                let mut script =
                    ChaosScript::new().on_keyed("cluster.node.ack", 1, Trigger::Nth(1), action);
                if mode == "kill" {
                    script = hold_survivor(script);
                }
                let _chaos = script.seed(seed).install();
                let got = run_case(&g, mode, pattern.clone(), cfg.clone(), &dir);
                assert_eq!(
                    got, want,
                    "{ename}/{pname}/{mode} seed {seed}: count diverged"
                );
            }
        }
    }
}

/// One sweep case: fresh coordinator, a doomed node (id 1) and a
/// survivor (id 2); in kill mode the survivor is held and a replacement
/// (id 3) boots after the death and must join via snapshot shipping.
fn run_case(
    g: &Arc<CsrGraph>,
    mode: &str,
    pattern: Pattern,
    cfg: MatcherConfig,
    dir: &std::path::Path,
) -> u64 {
    let coord = Coordinator::bind("127.0.0.1:0", chaos_config()).unwrap();
    coord.register_graph("ba", 0, Arc::clone(g)).unwrap();
    let mut doomed = NodeHandle::spawn(node_config(&coord, 1, dir));
    let _survivor = NodeHandle::spawn(if mode == "kill" {
        survivor_config(&coord, dir)
    } else {
        node_config(&coord, 2, dir)
    });
    let handle = coord.start_query("ba", pattern, cfg).unwrap();
    if mode == "kill" {
        wait_for_death(&doomed);
        doomed.join();
        let before = coord.metrics().snapshots_shipped;
        let _replacement = NodeHandle::spawn(node_config(&coord, 3, dir));
        let got = handle.wait(WAIT).unwrap();
        assert!(
            coord.metrics().snapshots_shipped > before,
            "kill mode: replacement joined via snapshot"
        );
        return got;
    }
    let got = handle.wait(WAIT).unwrap();
    assert!(
        handle.lease_stats().reclaimed >= 1,
        "partition mode: silent node's leases reclaimed"
    );
    got
}

/// A lossy, duplicating wire: node 1's frames are dropped with
/// probability 0.2 in both directions (forcing same-seq retransmission
/// through the shared retry policy), node 2 duplicates every 5th send
/// (exercising the coordinator's dedup cache). The count stays exact
/// and duplicates are answered from cache, not re-executed.
#[test]
fn frame_drop_and_duplicate_storm_preserves_exactness() {
    let _chaos = ChaosScript::new()
        .on_keyed(
            "cluster.net.send",
            1,
            Trigger::Probability(0.2),
            Action::Drop,
        )
        .on_keyed(
            "cluster.net.recv",
            1,
            Trigger::Probability(0.2),
            Action::Drop,
        )
        .on_keyed(
            "cluster.net.send",
            2,
            Trigger::EveryNth(5),
            Action::Duplicate,
        )
        .seed(0xC1A05)
        .install();
    let dir = tempdir("storm");
    let coord = Coordinator::bind("127.0.0.1:0", chaos_config()).unwrap();
    let g = Arc::new(barabasi_albert(250, 4, 23));
    coord.register_graph("ba", 0, g.clone()).unwrap();
    let n1 = NodeHandle::spawn(node_config(&coord, 1, &dir));
    let _n2 = NodeHandle::spawn(node_config(&coord, 2, &dir));

    let pattern = Pattern::clique(3);
    let cfg = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));
    let handle = coord.start_query("ba", pattern, cfg).unwrap();
    assert_eq!(handle.wait(WAIT).unwrap(), want, "storm count diverged");

    let m = coord.metrics();
    assert!(
        m.replies_resent >= 1,
        "duplicates/retransmissions hit the dedup cache: {m:?}"
    );
    assert!(
        fault::hits("cluster.net.send") > 0 && fault::hits("cluster.net.recv") > 0,
        "the storm actually fired"
    );
    assert!(n1.is_alive(), "a lossy wire must not kill the node");
}

/// A node killed at the *poll* point (between grants, possibly holding
/// adopted queries but no computed results) disappears silently — no
/// `Bye`. The cluster completes with the exact count regardless of
/// which protocol state the node died in.
#[test]
fn node_killed_between_polls_is_survivable() {
    let _chaos = ChaosScript::new()
        .on_keyed("cluster.node.poll", 1, Trigger::Nth(4), Action::Kill)
        .install();
    let dir = tempdir("pollkill");
    let coord = Coordinator::bind("127.0.0.1:0", chaos_config()).unwrap();
    let g = Arc::new(barabasi_albert(250, 4, 24));
    coord.register_graph("ba", 0, g.clone()).unwrap();
    let mut doomed = NodeHandle::spawn(node_config(&coord, 1, &dir));
    let _survivor = NodeHandle::spawn(node_config(&coord, 2, &dir));

    let pattern = Pattern::clique(4);
    let cfg = MatcherConfig::hybrid().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));
    let handle = coord.start_query("ba", pattern, cfg).unwrap();
    wait_for_death(&doomed);
    doomed.join();
    assert_eq!(handle.wait(WAIT).unwrap(), want);
}

/// Crash-consistency satellite: a node killed *mid-adoption* — inside
/// the journaled container install, after the rename commit point but
/// before the sidecar and manifest land — leaves a stale intent on its
/// slice of the state directory. `tdfsck` classifies it; rebooting the
/// same node id over the same directory rolls the committed install
/// forward through the journal, the node rejoins cleanly, the query
/// completes on the exact count, and a final `tdfsck` pass is clean.
#[test]
fn node_killed_mid_adoption_rejoins_cleanly_from_its_journal() {
    // `Action::Panic`, not `Kill`: the storage chaos points fire-and-
    // forget, and the unwind kills the node thread mid-transition with
    // no cleanup — the journal and the renamed container stay behind.
    let _chaos = ChaosScript::new()
        .on(
            "catalog.install.postrename",
            Trigger::Nth(1),
            Action::Panic("mid-adoption power cut"),
        )
        .install();
    let dir = tempdir("adopt");
    let coord = Coordinator::bind("127.0.0.1:0", chaos_config()).unwrap();
    let g = Arc::new(barabasi_albert(250, 4, 25));
    coord.register_graph("ba", 0, g.clone()).unwrap();
    // The node adopts the registered graph at its first poll; the kill
    // fires between the container's rename commit and its sidecar.
    let mut doomed = NodeHandle::spawn(node_config(&coord, 1, &dir));
    wait_for_death(&doomed);
    doomed.join();

    let root = dir.join("node1");
    let report = tdfs_service::fsck::fsck(&root, false).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.kind == tdfs_service::FindingKind::StaleIntent),
        "mid-adoption kill must leave a stale intent journal:\n{report}"
    );

    let pattern = Pattern::clique(3);
    let cfg = MatcherConfig::tdfs().with_warps(2);
    let want = reference_count(&g, &QueryPlan::build_with(&pattern, cfg.plan));
    let reborn = NodeHandle::spawn(node_config(&coord, 1, &dir));
    let handle = coord.start_query("ba", pattern, cfg).unwrap();
    assert_eq!(
        handle.wait(WAIT).unwrap(),
        want,
        "post-rejoin count diverged"
    );
    assert!(reborn.is_alive(), "the rejoined node must still serve");
    drop(reborn);

    let after = tdfs_service::fsck::fsck(&root, false).unwrap();
    assert_eq!(
        after.errors(),
        0,
        "rejoined node's state dir must audit clean:\n{after}"
    );
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tdfs-cluster-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
