//! # tdfs-cluster
//!
//! Fault-tolerant multi-node execution for T-DFS: a [`Coordinator`]
//! partitioning the degree-weighted shard space of each query across N
//! node processes ([`NodeHandle`]) over a loopback-TCP transport with
//! length-prefixed, CRC-framed, versioned messages ([`wire`]).
//!
//! The design re-uses the single-process durability machinery wholesale
//! rather than inventing a distributed one:
//!
//! - **Leases, not consensus.** The coordinator holds, per query, the
//!   same epoch-fenced [`LeaseTable`](tdfs_gpu::lease::LeaseTable) the
//!   in-process durable path uses, with [`Shard`](tdfs_service::Shard)
//!   tasks cut by the same [`shard_cuts`](tdfs_service::shard_cuts)
//!   policy. A node's `Ack` carries its lease's `(task_id, epoch)`
//!   fencing token across the wire; a node that was killed, partitioned
//!   or stalled has its leases reaped (straggler-split, epoch-bumped)
//!   and any late ack is `Fenced`. Partial counts therefore merge into
//!   an **exactly-once** global answer with no agreement protocol.
//! - **Shipping, not replication protocols.** Rebalance and failover
//!   move state as the storage tier's own artifacts: whole `TDFSGRPH`
//!   containers (verified on arrival by the parallel open-time scan)
//!   and `TDFSSNAP` checkpoints of the live ledger, which a replacement
//!   node resumes `Service::open`-style at the exact `GraphVersion`.
//!   A node joining mid-query and a node recovering from a crash are
//!   the same code path.
//! - **One retry policy.** Every RPC goes through
//!   [`tdfs_core::retry`](mod@tdfs_core::retry) — the same
//!   bounded-backoff-with-jitter utility the service's admission
//!   retry uses — with typed [`RpcError`]s; retransmissions reuse their
//!   seq so the coordinator's dedup cache absorbs duplicates.
//! - **Chaos-testable by construction.** The transport and node fire
//!   `tdfs-testkit` fault points keyed by `node_id` (`cluster.net.*`,
//!   `cluster.node.*`) supporting drop / delay / duplicate / partition
//!   / node-kill scripts, so the failover guarantees are asserted by
//!   seeded tests rather than claimed.

pub mod coordinator;
pub mod node;
pub mod transport;
pub mod wire;

pub use coordinator::{
    ClusterConfig, ClusterError, ClusterMetrics, ClusterQueryHandle, Coordinator,
};
pub use node::{NodeConfig, NodeHandle, NodeStats};
pub use transport::{Client, Conn, RpcError};
pub use wire::{Message, WireError, PROTO_VERSION};
