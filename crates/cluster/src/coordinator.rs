//! The cluster coordinator: authoritative ledgers, shard leasing, and
//! container/snapshot shipping over the wire.
//!
//! The coordinator owns, per query, the *same* epoch-fenced
//! [`LeaseTable`] the in-process durable path uses — the wire changes
//! where acks come from, not how they are fenced. A node that goes
//! silent (killed, partitioned, stalled) simply stops acking; the
//! watchdog reaps its leases with the exact in-process straggler-split
//! policy ([`Shard::split`]), re-grants them to live nodes, and any
//! late ack from the zombie carries a stale epoch and is
//! [`Fenced`](tdfs_gpu::lease::AckOutcome::Fenced). Exactly-once global
//! counts therefore need no agreement protocol at all — the fence *is*
//! the agreement.
//!
//! State shipping is pull-driven: a node's `PollWork` reports what it
//! holds, and the coordinator's reply priority is
//!
//! 1. `Shutdown` — the cluster is closing;
//! 2. `ShipGraph` — the node lacks a registered graph (`TDFSGRPH`
//!    container bytes, verified on arrival by the node's parallel
//!    open-time scan);
//! 3. `Retire` — the node holds a finished query;
//! 4. `StartQuery` — an active query the node has not joined yet, as a
//!    `TDFSSNAP` checkpoint of the live ledger (a replacement node
//!    joining mid-query is just a late `Service::open`-style resume);
//! 5. `Grants` — a batch of shard leases ([`LeaseTable::lease_batch`],
//!    one round trip feeding every worker the node has);
//! 6. `Wait` — nothing to do.
//!
//! Because the node re-polls after every instruction, a replacement
//! node walks this ladder automatically: graph, then snapshot, then
//! work. Failover is not a special code path.

use std::collections::HashMap;
use std::io::Cursor;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdfs_core::MatcherConfig;
use tdfs_gpu::lease::{AckOutcome, Lease, LeaseStats, LeaseTable};
use tdfs_graph::container::{write_container, ContainerOptions};
use tdfs_graph::CsrGraph;
use tdfs_query::Pattern;
use tdfs_service::snapshot::{self, QuerySnapshot};
use tdfs_service::{shard_cuts, PlanCache, PlanCacheKey, Shard};

use crate::transport::{Conn, RpcError};
use crate::wire::{encode_payload, frame, Message};

/// Cluster-wide knobs. Defaults suit loopback tests; production tuning
/// mirrors [`tdfs_service::DurableConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Remote lease expiry: a node silent this long forfeits its shards.
    pub lease_timeout: Duration,
    /// Target admitted edges per shard (degree-weighted cuts).
    pub shard_edges: usize,
    /// Wedge bound: a query whose ledger reaches an epoch beyond this
    /// is failed (mirrors the in-process watchdog).
    pub max_task_epochs: u32,
    /// Upper bound on leases granted per poll regardless of the node's
    /// advertised capacity.
    pub grant_batch: usize,
    /// Idle-poll backoff handed to nodes in `Wait` replies.
    pub wait_millis: u64,
    /// Reap cadence for the remote ledger.
    pub watchdog_interval: Duration,
    /// Per-connection read timeout on the coordinator side (bounds how
    /// long a handler thread sleeps between shutdown checks).
    pub read_timeout: Duration,
    /// Plan-cache slots (cluster queries share compiled plans).
    pub plan_cache_capacity: usize,
    /// Target decoded arcs per segment in shipped containers.
    pub seg_target_arcs: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            lease_timeout: Duration::from_millis(500),
            shard_edges: 512,
            max_task_epochs: 16,
            grant_batch: 8,
            wait_millis: 2,
            watchdog_interval: Duration::from_millis(10),
            read_timeout: Duration::from_millis(50),
            plan_cache_capacity: 64,
            seg_target_arcs: 4096,
        }
    }
}

/// Why a cluster query (or the cluster itself) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// `start_query` named a graph never registered.
    UnknownGraph(String),
    /// A node refused the shipped snapshot (graph-version or edge-count
    /// mismatch) — coordinator-side state is inconsistent; failing loud
    /// beats silently wrong counts.
    NodeRefused { node_id: u64, edge_count: u64 },
    /// A shard was reclaimed past the epoch bound without ever acking.
    Wedged { max_epoch: u32 },
    /// `wait` gave up before the query finished.
    TimedOut,
    /// The listener socket could not be set up.
    Io(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownGraph(g) => write!(f, "unknown graph {g:?}"),
            ClusterError::NodeRefused {
                node_id,
                edge_count,
            } => write!(
                f,
                "node {node_id} refused snapshot (its admitted edge count: {edge_count})"
            ),
            ClusterError::Wedged { max_epoch } => {
                write!(f, "wedged: a shard reached lease epoch {max_epoch}")
            }
            ClusterError::TimedOut => write!(f, "timed out waiting for the cluster"),
            ClusterError::Io(e) => write!(f, "cluster i/o: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Point-in-time counters of coordinator activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Distinct node ids that ever said `Hello`.
    pub nodes_seen: u64,
    /// `PollWork` requests served.
    pub polls: u64,
    /// `TDFSGRPH` containers shipped to nodes.
    pub graphs_shipped: u64,
    /// `TDFSSNAP` checkpoints shipped to nodes (initial joins *and*
    /// failover resumes — a replacement node shows up here).
    pub snapshots_shipped: u64,
    /// Shard leases granted over the wire.
    pub grants: u64,
    /// Acks that passed the epoch fence (counts credited).
    pub acks_accepted: u64,
    /// Acks rejected by the fence (zombie publishes discarded).
    pub acks_fenced: u64,
    /// `ShardFailed` reports (engine-level failures requeued).
    pub shard_failures: u64,
    /// Duplicate requests answered from the per-connection dedup cache.
    pub replies_resent: u64,
}

struct GraphEntry {
    version: u64,
    /// The serialized `TDFSGRPH` container shipped to nodes.
    container: Arc<Vec<u8>>,
    /// The coordinator's own view (planning + shard cutting).
    view: Arc<CsrGraph>,
}

struct ClusterQuery {
    graph: String,
    graph_version: u64,
    pattern: Pattern,
    config: MatcherConfig,
    edge_count: u64,
    ledger: LeaseTable<Shard>,
    matches: AtomicU64,
    done: AtomicBool,
    failure: Mutex<Option<ClusterError>>,
    /// Times a snapshot of this query was shipped (doubles as the
    /// snapshot's `resumes` counter).
    ships: AtomicU64,
    /// Serializes fence-check + count credit: `ledger.ack` and the
    /// `matches` update must be one atomic step, otherwise a concurrent
    /// ack can observe the ledger drained — and declare the query done —
    /// between another handler's fence pass and its credit, publishing a
    /// total that is missing that shard's count.
    ack_gate: Mutex<()>,
}

impl ClusterQuery {
    fn fail(&self, err: ClusterError) {
        let mut f = self
            .failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if f.is_none() {
            *f = Some(err);
        }
        drop(f);
        self.done.store(true, Ordering::Release);
        self.ledger.poke();
    }

    fn failure(&self) -> Option<ClusterError> {
        self.failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// A memoized sharding of one (graph, version, pattern, plan options)
/// tuple: the admitted-edge count the snapshot advertises and the
/// degree-weighted shard cuts the ledger is seeded with. Both are pure
/// in the key, so they are shared across queries exactly like plans.
struct CutPlan {
    edge_count: u64,
    shards: Vec<Shard>,
}

struct CoordInner {
    config: ClusterConfig,
    shutdown: AtomicBool,
    graphs: Mutex<HashMap<String, GraphEntry>>,
    queries: Mutex<Vec<(u64, Arc<ClusterQuery>)>>,
    next_query_id: AtomicU64,
    plans: PlanCache,
    /// Memoized admitted-edge lists + degree-weighted shard cuts, keyed
    /// like plans. Recurring patterns skip the full-graph edge filter —
    /// the dominant fixed CPU cost of starting a distributed query.
    cuts: Mutex<HashMap<PlanCacheKey, Arc<CutPlan>>>,
    nodes_seen: Mutex<std::collections::HashSet<u64>>,
    polls: AtomicU64,
    graphs_shipped: AtomicU64,
    snapshots_shipped: AtomicU64,
    grants: AtomicU64,
    acks_accepted: AtomicU64,
    acks_fenced: AtomicU64,
    shard_failures: AtomicU64,
    replies_resent: AtomicU64,
}

/// Handle on one distributed query; cheap to clone.
#[derive(Clone)]
pub struct ClusterQueryHandle {
    id: u64,
    query: Arc<ClusterQuery>,
}

impl ClusterQueryHandle {
    /// The coordinator-assigned query id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the query has finished (successfully or not).
    pub fn is_done(&self) -> bool {
        self.query.done.load(Ordering::Acquire)
    }

    /// The query's ledger counters (fenced acks, reclaims, splits).
    pub fn lease_stats(&self) -> LeaseStats {
        self.query.ledger.stats()
    }

    /// Blocks until the query completes, returning the exact global
    /// match count, or the failure / [`ClusterError::TimedOut`].
    pub fn wait(&self, timeout: Duration) -> Result<u64, ClusterError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.query.done.load(Ordering::Acquire) {
                return match self.query.failure() {
                    Some(err) => Err(err),
                    None => Ok(self.query.matches.load(Ordering::Acquire)),
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ClusterError::TimedOut);
            }
            self.query
                .ledger
                .wait_change((deadline - now).min(Duration::from_millis(50)), |_| {
                    self.query.done.load(Ordering::Acquire)
                });
        }
    }
}

/// The coordinator process: a listener, per-connection handler threads,
/// and a reaper watchdog (see module docs).
pub struct Coordinator {
    inner: Arc<CoordInner>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Coordinator {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and starts
    /// serving.
    pub fn bind(addr: &str, config: ClusterConfig) -> Result<Self, ClusterError> {
        let listener = TcpListener::bind(addr).map_err(|e| ClusterError::Io(e.to_string()))?;
        let local = listener
            .local_addr()
            .map_err(|e| ClusterError::Io(e.to_string()))?;
        let plan_cache_capacity = config.plan_cache_capacity;
        let watchdog_interval = config.watchdog_interval;
        let inner = Arc::new(CoordInner {
            config,
            shutdown: AtomicBool::new(false),
            graphs: Mutex::new(HashMap::new()),
            queries: Mutex::new(Vec::new()),
            next_query_id: AtomicU64::new(1),
            plans: PlanCache::new(plan_cache_capacity),
            cuts: Mutex::new(HashMap::new()),
            nodes_seen: Mutex::new(std::collections::HashSet::new()),
            polls: AtomicU64::new(0),
            graphs_shipped: AtomicU64::new(0),
            snapshots_shipped: AtomicU64::new(0),
            grants: AtomicU64::new(0),
            acks_accepted: AtomicU64::new(0),
            acks_fenced: AtomicU64::new(0),
            shard_failures: AtomicU64::new(0),
            replies_resent: AtomicU64::new(0),
        });
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let inner = Arc::clone(&inner);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("tdfs-coord-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if inner.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let inner2 = Arc::clone(&inner);
                        if let Ok(h) = std::thread::Builder::new()
                            .name("tdfs-coord-conn".into())
                            .spawn(move || handle_conn(inner2, stream))
                        {
                            handlers
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(h);
                        }
                    }
                })
                .expect("spawn accept thread")
        };
        let watchdog_thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("tdfs-coord-watchdog".into())
                .spawn(move || {
                    while !inner.shutdown.load(Ordering::Acquire) {
                        inner.reap_all();
                        std::thread::sleep(watchdog_interval);
                    }
                })
                .expect("spawn watchdog thread")
        };
        Ok(Self {
            inner,
            addr: local,
            accept_thread: Some(accept_thread),
            watchdog_thread: Some(watchdog_thread),
            handlers,
        })
    }

    /// The bound address nodes should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a data graph: serialized once into a `TDFSGRPH`
    /// container (what gets shipped to nodes) while the heap view stays
    /// for planning and shard cutting.
    pub fn register_graph(
        &self,
        name: impl Into<String>,
        version: u64,
        graph: Arc<CsrGraph>,
    ) -> Result<(), ClusterError> {
        let mut cursor = Cursor::new(Vec::new());
        write_container(
            &*graph,
            &mut cursor,
            &ContainerOptions {
                seg_target_arcs: self.inner.config.seg_target_arcs,
            },
        )
        .map_err(|e| ClusterError::Io(e.to_string()))?;
        self.inner
            .graphs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(
                name.into(),
                GraphEntry {
                    version,
                    container: Arc::new(cursor.into_inner()),
                    view: graph,
                },
            );
        Ok(())
    }

    /// Starts a distributed query: plans it, carves the admitted-edge
    /// space into degree-weighted shards with the in-process
    /// [`shard_cuts`] policy, and submits every shard to a fresh
    /// epoch-fenced ledger. Nodes pick the work up on their next poll.
    pub fn start_query(
        &self,
        graph: &str,
        pattern: Pattern,
        config: MatcherConfig,
    ) -> Result<ClusterQueryHandle, ClusterError> {
        let (version, view) = {
            let graphs = self
                .inner
                .graphs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let entry = graphs
                .get(graph)
                .ok_or_else(|| ClusterError::UnknownGraph(graph.to_string()))?;
            (entry.version, Arc::clone(&entry.view))
        };
        let key = PlanCacheKey::of(graph, version, &pattern, config.plan);
        let cached = {
            let cuts = self
                .inner
                .cuts
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cuts.get(&key).cloned()
        };
        let cut = match cached {
            Some(cut) => cut,
            None => {
                let plan = self
                    .inner
                    .plans
                    .get_or_build(graph, version, &pattern, config.plan);
                let edges = tdfs_core::host_filter_edges(&*view, &plan);
                let cut = Arc::new(CutPlan {
                    edge_count: edges.len() as u64,
                    shards: shard_cuts(&*view, &edges, self.inner.config.shard_edges),
                });
                let mut cuts = self
                    .inner
                    .cuts
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                // Same bound as the plan cache; a flush on overflow is
                // fine because recomputation is only a slow path.
                if cuts.len() >= self.inner.config.plan_cache_capacity.max(1) {
                    cuts.clear();
                }
                cuts.insert(key, Arc::clone(&cut));
                cut
            }
        };
        let ledger = LeaseTable::new(self.inner.config.lease_timeout);
        for shard in &cut.shards {
            ledger.submit(*shard);
        }
        let query = Arc::new(ClusterQuery {
            graph: graph.to_string(),
            graph_version: version,
            pattern,
            config,
            edge_count: cut.edge_count,
            ledger,
            matches: AtomicU64::new(0),
            done: AtomicBool::new(false),
            failure: Mutex::new(None),
            ships: AtomicU64::new(0),
            ack_gate: Mutex::new(()),
        });
        if query.ledger.drained() {
            // No admitted edges: the exact answer is zero, no node needed.
            query.done.store(true, Ordering::Release);
        }
        let id = self.inner.next_query_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .queries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((id, Arc::clone(&query)));
        Ok(ClusterQueryHandle { id, query })
    }

    /// Activity counters.
    pub fn metrics(&self) -> ClusterMetrics {
        let i = &self.inner;
        ClusterMetrics {
            nodes_seen: i
                .nodes_seen
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len() as u64,
            polls: i.polls.load(Ordering::Relaxed),
            graphs_shipped: i.graphs_shipped.load(Ordering::Relaxed),
            snapshots_shipped: i.snapshots_shipped.load(Ordering::Relaxed),
            grants: i.grants.load(Ordering::Relaxed),
            acks_accepted: i.acks_accepted.load(Ordering::Relaxed),
            acks_fenced: i.acks_fenced.load(Ordering::Relaxed),
            shard_failures: i.shard_failures.load(Ordering::Relaxed),
            replies_resent: i.replies_resent.load(Ordering::Relaxed),
        }
    }

    /// Merged ledger counters across every query started so far.
    pub fn lease_stats(&self) -> LeaseStats {
        let queries = self
            .inner
            .queries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = LeaseStats::default();
        for (_, q) in queries.iter() {
            out.merge(&q.ledger.stats());
        }
        out
    }

    /// Stops serving: future polls answer `Shutdown`, the listener and
    /// watchdog exit, and handler threads drain. Called by `Drop`.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog_thread.take() {
            let _ = h.join();
        }
        let handlers = std::mem::take(
            &mut *self
                .handlers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl CoordInner {
    fn query(&self, id: u64) -> Option<Arc<ClusterQuery>> {
        self.queries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .find(|(qid, _)| *qid == id)
            .map(|(_, q)| Arc::clone(q))
    }

    /// One watchdog tick: reap expired remote leases (straggler split,
    /// epoch bump) and check the wedge bound — the in-process policy,
    /// applied to the remote ledger.
    fn reap_all(&self) {
        let queries: Vec<Arc<ClusterQuery>> = {
            let qs = self
                .queries
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            qs.iter().map(|(_, q)| Arc::clone(q)).collect()
        };
        for q in queries {
            if q.done.load(Ordering::Acquire) {
                continue;
            }
            q.ledger.reap(Instant::now(), |s: &Shard| s.split());
            let max_epoch = q.ledger.max_epoch();
            if max_epoch > self.config.max_task_epochs {
                q.fail(ClusterError::Wedged { max_epoch });
            }
        }
    }

    fn snapshot_bytes(&self, q: &ClusterQuery) -> Vec<u8> {
        // Under the ack gate so the checkpoint's acked set and the
        // `matches` field agree (no acked task with an uncredited count).
        let (cp, matches) = {
            let _g = q
                .ack_gate
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (q.ledger.checkpoint(), q.matches.load(Ordering::Acquire))
        };
        let ships = q.ships.fetch_add(1, Ordering::Relaxed);
        snapshot::encode(&QuerySnapshot {
            graph: q.graph.clone(),
            graph_version: q.graph_version,
            pattern: q.pattern.clone(),
            config: q.config.clone(),
            edge_count: q.edge_count,
            matches,
            emitted: 0,
            tasks_acked: cp.acked.len() as u64,
            resumes: ships.min(u64::from(u32::MAX)) as u32,
            next_task_id: cp.next_id,
            acked: cp.acked,
            pending: cp.pending,
        })
    }

    /// Computes the reply to one request (the poll ladder from the
    /// module docs).
    fn handle(&self, msg: Message) -> Message {
        match msg {
            Message::Hello { node_id } => {
                self.nodes_seen
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(node_id);
                Message::Ok
            }
            Message::Bye { .. } => Message::Ok,
            Message::PollWork {
                node_id,
                graphs,
                queries,
                capacity,
            } => self.poll(node_id, &graphs, &queries, capacity),
            Message::StartAck {
                node_id,
                query_id,
                ok,
                edge_count,
            } => {
                if !ok {
                    if let Some(q) = self.query(query_id) {
                        q.fail(ClusterError::NodeRefused {
                            node_id,
                            edge_count,
                        });
                    }
                }
                Message::Ok
            }
            Message::Ack {
                node_id,
                query_id,
                task_id,
                epoch,
                shard,
                count,
            } => {
                let Some(q) = self.query(query_id) else {
                    return Message::AckReply { accepted: false };
                };
                // Reconstruct the lease from the wire; the fence checks
                // only (task_id, epoch) against the outstanding table.
                let lease = Lease {
                    task: shard,
                    task_id,
                    worker_id: node_id as u32,
                    epoch,
                    deadline: Instant::now(),
                };
                // Fence-check, credit, and drain-detect under one gate:
                // `drained()` may only read true once every accepted
                // count has been added (see `ack_gate`).
                let (outcome, drained) = {
                    let _g = q
                        .ack_gate
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let outcome = q.ledger.ack(&lease);
                    let drained = if outcome == AckOutcome::Accepted {
                        q.matches.fetch_add(count, Ordering::AcqRel);
                        q.ledger.drained()
                    } else {
                        false
                    };
                    (outcome, drained)
                };
                match outcome {
                    AckOutcome::Accepted => {
                        self.acks_accepted.fetch_add(1, Ordering::Relaxed);
                        if drained {
                            q.done.store(true, Ordering::Release);
                            q.ledger.poke();
                        }
                        Message::AckReply { accepted: true }
                    }
                    AckOutcome::Fenced => {
                        self.acks_fenced.fetch_add(1, Ordering::Relaxed);
                        Message::AckReply { accepted: false }
                    }
                }
            }
            Message::ShardFailed {
                query_id,
                task_id,
                epoch,
                ..
            } => {
                if let Some(q) = self.query(query_id) {
                    self.shard_failures.fetch_add(1, Ordering::Relaxed);
                    let lease = Lease {
                        task: Shard { start: 0, end: 0 },
                        task_id,
                        worker_id: 0,
                        epoch,
                        deadline: Instant::now(),
                    };
                    // `fail` requeues the *outstanding* entry's shard
                    // (not the dummy above) through the splitter.
                    q.ledger.fail(&lease, |s: &Shard| s.split());
                }
                Message::Ok
            }
            // A node sending a reply-tag is a protocol violation; answer
            // with a shutdown so a confused peer stops.
            _ => Message::Shutdown,
        }
    }

    fn poll(
        &self,
        node_id: u64,
        node_graphs: &[(String, u64)],
        node_queries: &[u64],
        capacity: u32,
    ) -> Message {
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.nodes_seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(node_id);
        if self.shutdown.load(Ordering::Acquire) {
            return Message::Shutdown;
        }
        // 2. Ship any graph the node lacks (name+version must match).
        {
            let graphs = self
                .graphs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut names: Vec<&String> = graphs.keys().collect();
            names.sort(); // deterministic ship order
            for name in names {
                let entry = &graphs[name];
                let has = node_graphs
                    .iter()
                    .any(|(n, v)| n == name && *v == entry.version);
                if !has {
                    self.graphs_shipped.fetch_add(1, Ordering::Relaxed);
                    return Message::ShipGraph {
                        name: name.clone(),
                        version: entry.version,
                        container: entry.container.as_ref().clone(),
                    };
                }
            }
        }
        let queries: Vec<(u64, Arc<ClusterQuery>)> = {
            let qs = self
                .queries
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            qs.iter().map(|(id, q)| (*id, Arc::clone(q))).collect()
        };
        // 3. Retire anything the node holds that is finished or unknown.
        for &qid in node_queries {
            let finished = match queries.iter().find(|(id, _)| *id == qid) {
                Some((_, q)) => q.done.load(Ordering::Acquire),
                None => true,
            };
            if finished {
                return Message::Retire { query_id: qid };
            }
        }
        // 4. Ship a snapshot of an active query the node hasn't joined.
        for (id, q) in &queries {
            if q.done.load(Ordering::Acquire) || node_queries.contains(id) {
                continue;
            }
            self.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
            return Message::StartQuery {
                query_id: *id,
                snapshot: self.snapshot_bytes(q),
            };
        }
        // 5. Grant shard leases from the oldest active query with work.
        let max = (capacity as usize).min(self.config.grant_batch).max(1);
        for (id, q) in &queries {
            if q.done.load(Ordering::Acquire) || !node_queries.contains(id) {
                continue;
            }
            let batch = q.ledger.lease_batch(node_id as u32, max);
            if !batch.is_empty() {
                self.grants.fetch_add(batch.len() as u64, Ordering::Relaxed);
                return Message::Grants {
                    query_id: *id,
                    grants: batch
                        .into_iter()
                        .map(|l| (l.task_id, l.epoch, l.task))
                        .collect(),
                };
            }
        }
        // 6. Nothing to hand out.
        Message::Wait {
            millis: self.config.wait_millis,
        }
    }
}

/// Serves one node connection: recv → dedup → handle → reply.
///
/// The dedup cache is per-connection and depth-one: a retransmission of
/// the *last* request (the only one a lock-step client can retransmit)
/// is answered from cache. Requests older than that are ignored, and a
/// reconnect resets the cache — harmless, because every request is
/// either idempotent or epoch-fenced.
fn handle_conn(inner: Arc<CoordInner>, stream: TcpStream) {
    let mut conn = Conn::new(stream, None, inner.config.read_timeout);
    let mut last_seq: u64 = 0;
    let mut last_reply: Vec<u8> = Vec::new();
    loop {
        match conn.recv() {
            Ok((seq, msg)) => {
                if seq == last_seq && !last_reply.is_empty() {
                    inner.replies_resent.fetch_add(1, Ordering::Relaxed);
                    if conn.send_raw(&last_reply).is_err() {
                        break;
                    }
                    continue;
                }
                if seq < last_seq {
                    continue; // stale retransmit already superseded
                }
                let reply = inner.handle(msg);
                let framed = frame(&encode_payload(seq, &reply));
                last_seq = seq;
                last_reply.clone_from(&framed);
                if conn.send_raw(&framed).is_err() {
                    break;
                }
            }
            Err(RpcError::Timeout) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}
