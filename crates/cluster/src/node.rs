//! A cluster node: an embedded [`Service`] driven by the coordinator's
//! poll ladder.
//!
//! The node is deliberately stateless across restarts: everything it
//! knows — graphs, queries, leases — arrives over the wire, so a
//! replacement node booted after a `kill -9` converges to a working
//! replica by simply polling. Shipped `TDFSGRPH` containers are
//! installed into the node's state dir through the same journaled
//! atomic-write path the service catalog uses ([`DiskCatalog`] — a
//! crash mid-adoption recovers to pre- or post-adoption state at the
//! next boot, never a torn container) and served *mapped*, with the parallel
//! open-time verification pass ([`MapOptions::verify_threads`]) running
//! `Verify::Full` before a single query touches the bytes — a corrupted
//! ship is a typed refusal, never a wrong count. Shipped `TDFSSNAP`
//! checkpoints are validated `Service::open`-style: the node recomputes
//! its own admitted-edge list against the exact
//! [`GraphVersion`](tdfs_graph::GraphVersion) and refuses the query on
//! any mismatch, because a shard range over a different edge space
//! would silently count the wrong edges.
//!
//! Each granted shard runs as an ordinary [`Service`] submission seeded
//! with that shard's edge slice ([`QueryRequest::with_seed_edges`]), on
//! the service's durable shard workers like any other query; counts are
//! additive over the disjoint shards, and the coordinator's epoch fence
//! makes publishing them exactly-once. Shard runs are *pipelined*: the
//! node keeps up to `poll_capacity` shards in flight, publishes each ack
//! the moment its run completes, and polls for more grants with
//! whatever capacity is free — execution, acking, and polling overlap
//! instead of convoying batch-by-batch, so skewed shard runtimes never
//! idle the workers.
//!
//! ## Chaos points (keyed by `node_id`)
//!
//! | point | effect |
//! |---|---|
//! | `cluster.node.poll` | `Kill` — the node thread abandons all work and exits without a `Bye` (a modeled `kill -9`) |
//! | `cluster.node.ack` | fired *after* a shard's count is computed, *before* the `Ack` RPC; `Kill` dies holding the result, `Drop` loses the ack silently, a scripted `Delay` past the lease timeout models a network partition whose late ack is then fenced |
//!
//! plus the transport-level `cluster.net.send` / `cluster.net.recv`
//! points documented in [`crate::transport`].

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tdfs_core::retry::BackoffPolicy;
use tdfs_core::MatcherConfig;
use tdfs_graph::{DeltaCsr, GraphBase, MapOptions, MmapGraph, Verify};
use tdfs_query::Pattern;
use tdfs_service::snapshot;
use tdfs_service::{
    DiskCatalog, PlanCacheKey, QueryHandle, QueryOutcome, QueryRequest, Service, ServiceConfig,
    Shard, StorageError,
};

use crate::transport::{net_fault, Client, NetFault};
use crate::wire::Message;

/// Node-side knobs.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Coordinator address to dial (e.g. `coordinator.addr().to_string()`).
    pub addr: String,
    /// This node's cluster-unique id (also the chaos key).
    pub node_id: u64,
    /// Directory for shipped containers (served mmap'd from here).
    pub state_dir: PathBuf,
    /// Max shard leases requested per poll.
    pub poll_capacity: u32,
    /// Retry policy for every RPC (shared `tdfs_core::retry` semantics).
    pub rpc: BackoffPolicy,
    /// Per-attempt reply timeout.
    pub rpc_timeout: Duration,
    /// Threads for open-time container verification (0 = auto).
    pub verify_threads: usize,
    /// Configuration of the embedded query service.
    pub service: ServiceConfig,
}

impl NodeConfig {
    /// A node dialing `addr` with defaults sized for loopback tests.
    pub fn new(addr: impl Into<String>, node_id: u64, state_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: addr.into(),
            node_id,
            state_dir: state_dir.into(),
            poll_capacity: 4,
            rpc: BackoffPolicy::new(6, Duration::from_millis(1), Duration::from_millis(20)),
            rpc_timeout: Duration::from_millis(200),
            verify_threads: 0,
            service: ServiceConfig::default(),
        }
    }
}

/// Node activity counters (readable from tests while the node runs).
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Containers received, verified, and registered.
    pub graphs_received: AtomicU64,
    /// Snapshots adopted (`StartAck { ok: true }`).
    pub queries_started: AtomicU64,
    /// Snapshots refused (`StartAck { ok: false }`).
    pub queries_refused: AtomicU64,
    /// Shards executed to completion locally.
    pub shards_executed: AtomicU64,
    /// Acks the coordinator accepted.
    pub acks_accepted: AtomicU64,
    /// Acks the coordinator fenced (this node was a zombie for them).
    pub acks_fenced: AtomicU64,
    /// Shard runs that failed locally and were reported back.
    pub shard_failures: AtomicU64,
    /// RPCs that exhausted their retry budget.
    pub rpc_failures: AtomicU64,
}

/// A running node thread.
pub struct NodeHandle {
    node_id: u64,
    stop: Arc<AtomicBool>,
    stats: Arc<NodeStats>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl NodeHandle {
    /// Boots a node in a background thread. It says `Hello`, then polls
    /// until told to `Shutdown`, stopped, or chaos-killed.
    pub fn spawn(config: NodeConfig) -> NodeHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NodeStats::default());
        let node_id = config.node_id;
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name(format!("tdfs-node-{node_id}"))
                .spawn(move || run(config, stop, stats))
                .expect("spawn node thread")
        };
        NodeHandle {
            node_id,
            stop,
            stats,
            thread: Some(thread),
        }
    }

    /// The node's cluster id.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// Activity counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Whether the node thread is still running (false after a chaos
    /// kill or shutdown).
    pub fn is_alive(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Asks the node to exit gracefully (it sends `Bye`) and joins it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Joins a node that already exited (e.g. chaos-killed) without
    /// requesting a stop first.
    pub fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One adopted query: everything needed to run granted shards locally.
struct NodeQuery {
    graph: String,
    pattern: Pattern,
    config: MatcherConfig,
    /// This node's own admitted-edge list (validated against the
    /// snapshot's `edge_count`); shard ranges index into it.
    edges: Arc<Vec<(u32, u32)>>,
}

/// One granted shard currently running (or failed to submit) on the
/// embedded service. `handle` is `None` when the submission itself was
/// rejected — published as `ShardFailed` on the next reap.
struct InFlight {
    query_id: u64,
    task_id: u64,
    epoch: u32,
    shard: Shard,
    handle: Option<QueryHandle>,
}

fn run(cfg: NodeConfig, stop: Arc<AtomicBool>, stats: Arc<NodeStats>) {
    let service = Service::new(cfg.service.clone());
    // The node's slice of the state dir is a real catalog: opening it
    // recovers any intent journaled by a mid-adoption crash (roll
    // forward or roll back), so a chaos-killed node rejoins from a
    // consistent directory. Nodes namespace by id — a shared state_dir
    // must never mean a shared journal or staging area. If strict open
    // refuses (corrupt state), salvage it: a node is a replica, and
    // everything quarantined here gets re-shipped.
    let root = cfg.state_dir.join(format!("node{}", cfg.node_id));
    let catalog = match DiskCatalog::open(&root) {
        Ok(c) => c,
        Err(_) => {
            let repaired = tdfs_service::fsck::fsck(&root, true);
            match repaired.and_then(|_| DiskCatalog::open(&root)) {
                Ok(c) => c,
                Err(_) => return, // unusable disk; die visibly, don't serve
            }
        }
    };
    let chaos = cfg!(feature = "chaos");
    let mut client = Client::new(
        cfg.addr.clone(),
        cfg.node_id,
        chaos,
        cfg.rpc.clone(),
        cfg.rpc_timeout,
    );
    // BTreeMaps so PollWork reports (and replays) in a stable order.
    let mut graphs: BTreeMap<String, u64> = BTreeMap::new();
    let mut queries: BTreeMap<u64, NodeQuery> = BTreeMap::new();
    // Admitted-edge lists memoized across adopted queries: recurring
    // patterns skip the full-graph filter that validation otherwise
    // recomputes per snapshot (the validation itself still happens —
    // the cached list was produced by it, for the exact same key).
    let mut edge_cache: HashMap<PlanCacheKey, Arc<Vec<(u32, u32)>>> = HashMap::new();
    if client
        .rpc(&Message::Hello {
            node_id: cfg.node_id,
        })
        .is_err()
    {
        stats.rpc_failures.fetch_add(1, Ordering::Relaxed);
    }
    // Shards in flight on the embedded service, oldest first. The node
    // publishes each the moment its run completes and only asks the
    // coordinator for as many new grants as it has free capacity.
    let mut running: Vec<InFlight> = Vec::new();
    loop {
        if stop.load(Ordering::Acquire) {
            // Abandon in-flight shards (drop detaches the handles); the
            // leases expire and the shards are re-granted elsewhere.
            running.clear();
            let _ = client.rpc(&Message::Bye {
                node_id: cfg.node_id,
            });
            return;
        }
        // The modeled `kill -9`: abandon graphs, queries, and any leases
        // currently held; the coordinator's watchdog cleans up after us.
        if net_fault("cluster.node.poll", cfg.node_id) == NetFault::Sever {
            return;
        }
        // Publish everything that finished since the last pass.
        if !reap_finished(&cfg, &mut client, &stats, &mut running) {
            return; // chaos-killed at an ack
        }
        let capacity = cfg.poll_capacity.saturating_sub(running.len() as u32);
        if capacity == 0 {
            // Pipeline full: block on the oldest shard, publish it, and
            // come back around with a free slot.
            if !publish_oldest(&cfg, &mut client, &stats, &mut running) {
                return;
            }
            continue;
        }
        let poll = Message::PollWork {
            node_id: cfg.node_id,
            graphs: graphs.iter().map(|(n, v)| (n.clone(), *v)).collect(),
            queries: queries.keys().copied().collect(),
            capacity,
        };
        let reply = match client.rpc(&poll) {
            Ok(r) => r,
            Err(_) => {
                stats.rpc_failures.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        match reply {
            Message::Shutdown => return,
            Message::Wait { millis } => {
                if running.is_empty() {
                    std::thread::sleep(Duration::from_millis(millis.min(100)));
                } else if !publish_oldest(&cfg, &mut client, &stats, &mut running) {
                    // No new work, but shards are still running: finish
                    // (and publish) the oldest instead of sleeping.
                    return;
                }
            }
            Message::ShipGraph {
                name,
                version,
                container,
            } => {
                // On failure (corrupt ship, disk error): report nothing;
                // the next poll shows the graph still missing and the
                // coordinator ships it again.
                let received = receive_graph(&cfg, &catalog, &service, &name, version, &container);
                if received.is_ok() {
                    stats.graphs_received.fetch_add(1, Ordering::Relaxed);
                    graphs.insert(name, version);
                }
            }
            Message::StartQuery { query_id, snapshot } => {
                let adopted = adopt_query(&service, &snapshot, &mut edge_cache);
                let (ok, edge_count) = match &adopted {
                    Some(q) => (true, q.edges.len() as u64),
                    None => (false, 0),
                };
                if let Some(q) = adopted {
                    queries.insert(query_id, q);
                    stats.queries_started.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats.queries_refused.fetch_add(1, Ordering::Relaxed);
                }
                if client
                    .rpc(&Message::StartAck {
                        node_id: cfg.node_id,
                        query_id,
                        ok,
                        edge_count,
                    })
                    .is_err()
                {
                    stats.rpc_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
            Message::Retire { query_id } => {
                queries.remove(&query_id);
                // Any shards of the retired query still in flight are
                // moot (the query is done); detach them unpublished.
                running.retain(|f| f.query_id != query_id);
            }
            Message::Grants { query_id, grants } => {
                let Some(q) = queries.get(&query_id) else {
                    continue; // retired between poll and grant; leases expire
                };
                submit_grants(&service, query_id, q, grants, &mut running);
            }
            // Ok / AckReply / anything else as a poll reply: ignore.
            _ => {}
        }
    }
}

/// Adopts a shipped container: installed into the node's state-dir
/// catalog through the journaled atomic-write path (staging + fsync +
/// rename + directory fsync, intent journal bracketing the transition —
/// a crash mid-adoption leaves the catalog at exactly the pre- or
/// post-adoption state), then registered mapped after the full
/// (parallel) open-time verification pass.
fn receive_graph(
    cfg: &NodeConfig,
    catalog: &DiskCatalog,
    service: &Service,
    name: &str,
    version: u64,
    container: &[u8],
) -> Result<(), StorageError> {
    let local = format!("node{}-{name}.v{version}", cfg.node_id);
    catalog.install_graph(&local, version, |w| Ok(w.write_all(container)?))?;
    let mapped = MmapGraph::open_with(
        catalog.graph_path(&local),
        &MapOptions {
            verify: Verify::Full,
            verify_threads: cfg.verify_threads,
            ..MapOptions::default()
        },
    )
    .map_err(StorageError::from)?;
    let view = DeltaCsr::at_version(GraphBase::Mapped(Arc::new(mapped)), version);
    service.catalog().register(name, Arc::new(view));
    Ok(())
}

/// Validates a shipped snapshot against the locally registered graph
/// (`Service::open`-style) and returns the adopted query, or `None` to
/// refuse it. The admitted-edge list is memoized per (graph, version,
/// pattern, plan options): the filter is pure in that key, so a cached
/// list carries its validation with it and only `edge_count` needs
/// re-checking.
fn adopt_query(
    service: &Service,
    snapshot_bytes: &[u8],
    edge_cache: &mut HashMap<PlanCacheKey, Arc<Vec<(u32, u32)>>>,
) -> Option<NodeQuery> {
    let snap = snapshot::decode(snapshot_bytes).ok()?;
    let view = service.catalog().get(&snap.graph)?;
    if view.version() != snap.graph_version {
        return None;
    }
    let key = PlanCacheKey::of(
        &snap.graph,
        snap.graph_version,
        &snap.pattern,
        snap.config.plan,
    );
    let edges = match edge_cache.get(&key) {
        Some(edges) => Arc::clone(edges),
        None => {
            let plan = tdfs_query::QueryPlan::build_with(&snap.pattern, snap.config.plan);
            let edges = Arc::new(tdfs_core::host_filter_edges(&*view, &plan));
            if edge_cache.len() >= EDGE_CACHE_CAPACITY {
                edge_cache.clear();
            }
            edge_cache.insert(key, Arc::clone(&edges));
            edges
        }
    };
    if edges.len() as u64 != snap.edge_count {
        return None;
    }
    Some(NodeQuery {
        graph: snap.graph,
        pattern: snap.pattern,
        config: snap.config,
        edges,
    })
}

/// Bound on the node's memoized admitted-edge lists; a flush on
/// overflow is fine because recomputation is only a slow path.
const EDGE_CACHE_CAPACITY: usize = 16;

/// Submits a batch of granted shards to the embedded service and adds
/// them to the in-flight set; results are published as they complete.
fn submit_grants(
    service: &Service,
    query_id: u64,
    q: &NodeQuery,
    grants: Vec<(u64, u32, Shard)>,
    running: &mut Vec<InFlight>,
) {
    for (task_id, epoch, shard) in grants {
        let start = (shard.start as usize).min(q.edges.len());
        let end = (shard.end as usize).min(q.edges.len());
        let request = QueryRequest::new(q.graph.clone(), q.pattern.clone())
            .with_config(q.config.clone())
            .with_seed_edges(q.edges[start..end].to_vec());
        running.push(InFlight {
            query_id,
            task_id,
            epoch,
            shard,
            handle: service.submit(request).ok(),
        });
    }
}

/// Publishes every in-flight shard that has already finished, without
/// blocking on the rest. Returns `false` when chaos killed the node.
fn reap_finished(
    cfg: &NodeConfig,
    client: &mut Client,
    stats: &NodeStats,
    running: &mut Vec<InFlight>,
) -> bool {
    let mut i = 0;
    while i < running.len() {
        let outcome = match &mut running[i].handle {
            None => None, // submission was rejected: finished (failed)
            Some(h) => match h.try_wait() {
                Some(o) => Some(o),
                None => {
                    i += 1;
                    continue;
                }
            },
        };
        let shard = running.remove(i);
        if !publish_one(cfg, client, stats, shard, outcome) {
            return false;
        }
    }
    true
}

/// Blocks until the oldest in-flight shard completes and publishes it.
/// Returns `false` when chaos killed the node.
fn publish_oldest(
    cfg: &NodeConfig,
    client: &mut Client,
    stats: &NodeStats,
    running: &mut Vec<InFlight>,
) -> bool {
    if running.is_empty() {
        return true;
    }
    let mut shard = running.remove(0);
    let outcome = shard.handle.take().map(|h| h.wait());
    publish_one(cfg, client, stats, shard, outcome)
}

/// Publishes one completed shard: an `Ack` carrying the count, or a
/// `ShardFailed` when the run failed (or was never admitted). Returns
/// `false` when chaos killed the node at the ack point.
fn publish_one(
    cfg: &NodeConfig,
    client: &mut Client,
    stats: &NodeStats,
    shard: InFlight,
    outcome: Option<QueryOutcome>,
) -> bool {
    let InFlight {
        query_id,
        task_id,
        epoch,
        shard,
        ..
    } = shard;
    let count = match outcome {
        Some(o) => match o.result {
            Ok(r) => Some(r.matches),
            Err(_) => None,
        },
        None => None,
    };
    let publish = match count {
        Some(count) => {
            stats.shards_executed.fetch_add(1, Ordering::Relaxed);
            // The shard is computed but unpublished: the window where
            // a kill loses the result (safely — the lease expires and
            // the shard is re-granted) and where a scripted partition
            // delay turns this node into a fenced zombie.
            match net_fault("cluster.node.ack", cfg.node_id) {
                NetFault::Sever => return false,
                NetFault::Drop => return true, // ack lost; lease expires
                NetFault::Pass | NetFault::Duplicate => {}
            }
            Message::Ack {
                node_id: cfg.node_id,
                query_id,
                task_id,
                epoch,
                shard,
                count,
            }
        }
        None => {
            stats.shard_failures.fetch_add(1, Ordering::Relaxed);
            Message::ShardFailed {
                node_id: cfg.node_id,
                query_id,
                task_id,
                epoch,
                reason: "local shard run failed".into(),
            }
        }
    };
    match client.rpc(&publish) {
        Ok(Message::AckReply { accepted }) => {
            if accepted {
                stats.acks_accepted.fetch_add(1, Ordering::Relaxed);
            } else {
                stats.acks_fenced.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(_) => {}
        Err(_) => {
            // The ack is lost; the lease expires and someone (maybe
            // us, next grant) recomputes the shard. Exactness holds.
            stats.rpc_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
    true
}
