//! The versioned query-snapshot wire format.
//!
//! [`Service::snapshot`](crate::Service::snapshot) serializes a durable
//! query's recoverable state — pattern, engine configuration, unfinished
//! edge-range shards (outstanding leases demoted back to tasks), the
//! acked-task set and the accumulated partial count — into a
//! self-contained byte buffer that
//! [`Service::resume`](crate::Service::resume) can reconstruct in the
//! same process or after a full restart.
//!
//! The bytes are a sealed record of the shared [`codec`](crate::codec):
//! magic, version, little-endian body, CRC-32 trailer, so a flipped bit
//! in a persisted snapshot is a typed error, not a wrong count. A decoder
//! **rejects** unknown versions, bad checksums and trailing garbage
//! instead of guessing — schema evolution must bump [`SNAPSHOT_VERSION`]
//! and keep a decode path for the old one. The exact bytes are pinned by
//! a golden test so accidental format changes are caught in review.
//!
//! What is *not* serialized, by design:
//! - the data graph (snapshots name it; the resuming service must have
//!   a graph registered under the same name — a mismatch is caught by
//!   comparing admitted-edge counts);
//! - deadlines, sinks and collect limits (properties of a *request*,
//!   not of the partial work; a resumed query gets fresh ones);
//! - cancellation tokens (a snapshot of a cancelled query resumes
//!   un-cancelled — that is the point of suspend/resume).

use std::time::Duration;

use tdfs_core::{ArrayCapacity, MatcherConfig, OverflowPolicy, StackConfig, Strategy};
use tdfs_query::Pattern;

pub use crate::codec::DecodeError;
use crate::codec::{Reader, Writer};
use crate::durable::Shard;

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TDFSSNAP";

/// Current wire-format version. Version 2 added `graph_version` (the
/// batch-dynamic catalog version the shards were carved against);
/// version 3 seals the version-2 body with a CRC-32 trailer. Version-1
/// buffers still decode, with `graph_version = 0`, and version-2 ones
/// without a checksum.
pub const SNAPSHOT_VERSION: u16 = 3;

/// A decoded (or to-be-encoded) durable-query snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySnapshot {
    /// Catalog name of the data graph.
    pub graph: String,
    /// Catalog [`GraphVersion`](tdfs_graph::GraphVersion) the query was
    /// running against. Shard ranges index the admitted-edge space of
    /// *this* version; resuming against any other version is refused
    /// (`ResumeError::GraphVersionMismatch`) because the same range
    /// would cover different edges.
    pub graph_version: u64,
    /// The query pattern.
    pub pattern: Pattern,
    /// Engine configuration (without cancel token / time limit).
    pub config: MatcherConfig,
    /// Admitted-edge count at snapshot time — the resume-side sanity
    /// check that the named graph still produces the same edge space.
    pub edge_count: u64,
    /// Matches already published by acked tasks.
    pub matches: u64,
    /// Embeddings emitted to sinks so far (heartbeat bookkeeping).
    pub emitted: u64,
    /// Tasks acked so far (including before earlier resumes).
    pub tasks_acked: u64,
    /// How many times this query has been resumed already.
    pub resumes: u32,
    /// Ledger id-allocator position.
    pub next_task_id: u64,
    /// Ids of acked (published) tasks.
    pub acked: Vec<u64>,
    /// Unfinished shards as `(task_id, epoch, shard)` — unclaimed
    /// pending tasks plus outstanding leases demoted back to tasks.
    pub pending: Vec<(u64, u32, Shard)>,
}

// ---- Config codec ----

/// `None` durations are encoded as `u64::MAX` nanoseconds.
const NONE_NS: u64 = u64::MAX;

fn opt_duration_ns(d: Option<Duration>) -> u64 {
    d.map_or(NONE_NS, |d| d.as_nanos().min(NONE_NS as u128 - 1) as u64)
}

fn ns_opt_duration(ns: u64) -> Option<Duration> {
    (ns != NONE_NS).then(|| Duration::from_nanos(ns))
}

fn write_config(w: &mut Writer, cfg: &MatcherConfig) {
    match cfg.strategy {
        Strategy::Timeout { tau } => {
            w.u8(0);
            w.u64(opt_duration_ns(tau));
        }
        Strategy::HalfSteal => w.u8(1),
        Strategy::NewKernel { fanout_threshold } => {
            w.u8(2);
            w.u64(fanout_threshold as u64);
        }
        Strategy::Bfs { budget_bytes } => {
            w.u8(3);
            w.u64(budget_bytes as u64);
        }
        Strategy::Hybrid { budget_bytes, tau } => {
            w.u8(4);
            w.u64(budget_bytes as u64);
            w.u64(opt_duration_ns(tau));
        }
    }
    w.u32(cfg.num_warps as u32);
    match cfg.stack {
        StackConfig::Paged {
            arena_pages,
            table_len,
            spill,
        } => {
            w.u8(0);
            w.u64(arena_pages as u64);
            w.u32(table_len as u32);
            w.bool(spill);
        }
        StackConfig::Array { capacity, policy } => {
            w.u8(1);
            match capacity {
                ArrayCapacity::DMax => w.u8(0),
                ArrayCapacity::Fixed(n) => {
                    w.u8(1);
                    w.u64(n as u64);
                }
            }
            w.u8(match policy {
                OverflowPolicy::Error => 0,
                OverflowPolicy::Truncate => 1,
            });
        }
    }
    w.bool(cfg.plan.symmetry_breaking);
    w.bool(cfg.plan.intersection_reuse);
    w.bool(cfg.fused_injectivity);
    w.bool(cfg.fused_leaf);
    w.bool(cfg.host_edge_filter);
    w.bool(cfg.ct_index);
    w.u64(cfg.chunk_size as u64);
    w.u64(cfg.queue_capacity as u64);
}

fn read_config(r: &mut Reader) -> Result<MatcherConfig, DecodeError> {
    let strategy = match r.u8()? {
        0 => Strategy::Timeout {
            tau: ns_opt_duration(r.u64()?),
        },
        1 => Strategy::HalfSteal,
        2 => Strategy::NewKernel {
            fanout_threshold: r.u64()? as usize,
        },
        3 => Strategy::Bfs {
            budget_bytes: r.u64()? as usize,
        },
        4 => {
            let budget_bytes = r.u64()? as usize;
            Strategy::Hybrid {
                budget_bytes,
                tau: ns_opt_duration(r.u64()?),
            }
        }
        _ => return Err(DecodeError::Corrupt("strategy tag")),
    };
    let num_warps = r.u32()? as usize;
    if num_warps == 0 {
        return Err(DecodeError::Corrupt("zero warps"));
    }
    let stack = match r.u8()? {
        0 => StackConfig::Paged {
            arena_pages: r.u64()? as usize,
            table_len: r.u32()? as usize,
            spill: r.bool("spill flag")?,
        },
        1 => {
            let capacity = match r.u8()? {
                0 => ArrayCapacity::DMax,
                1 => ArrayCapacity::Fixed(r.u64()? as usize),
                _ => return Err(DecodeError::Corrupt("capacity tag")),
            };
            let policy = match r.u8()? {
                0 => OverflowPolicy::Error,
                1 => OverflowPolicy::Truncate,
                _ => return Err(DecodeError::Corrupt("policy tag")),
            };
            StackConfig::Array { capacity, policy }
        }
        _ => return Err(DecodeError::Corrupt("stack tag")),
    };
    let mut cfg = MatcherConfig::tdfs();
    cfg.strategy = strategy;
    cfg.num_warps = num_warps;
    cfg.stack = stack;
    cfg.plan.symmetry_breaking = r.bool("symmetry flag")?;
    cfg.plan.intersection_reuse = r.bool("reuse flag")?;
    cfg.fused_injectivity = r.bool("fused-injectivity flag")?;
    cfg.fused_leaf = r.bool("fused-leaf flag")?;
    cfg.host_edge_filter = r.bool("host-filter flag")?;
    cfg.ct_index = r.bool("ct-index flag")?;
    cfg.chunk_size = r.u64()? as usize;
    cfg.queue_capacity = r.u64()? as usize;
    cfg.time_limit = None;
    cfg.cancel = None;
    Ok(cfg)
}

// ---- Snapshot codec ----

/// Encodes `snap` into the versioned wire format.
pub fn encode(snap: &QuerySnapshot) -> Vec<u8> {
    let mut w = Writer::record(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    w.str(&snap.graph);
    w.u64(snap.graph_version);
    // Pattern: n, labels, edges.
    let n = snap.pattern.num_vertices();
    w.u32(n as u32);
    for u in 0..n {
        w.u32(snap.pattern.label(u));
    }
    let edges = snap.pattern.edges();
    w.u32(edges.len() as u32);
    for (u, v) in edges {
        w.u8(u as u8);
        w.u8(v as u8);
    }
    write_config(&mut w, &snap.config);
    w.u64(snap.edge_count);
    w.u64(snap.matches);
    w.u64(snap.emitted);
    w.u64(snap.tasks_acked);
    w.u32(snap.resumes);
    w.u64(snap.next_task_id);
    w.u32(snap.acked.len() as u32);
    for &id in &snap.acked {
        w.u64(id);
    }
    w.u32(snap.pending.len() as u32);
    for &(id, epoch, shard) in &snap.pending {
        w.u64(id);
        w.u32(epoch);
        w.u64(shard.start as u64);
        w.u64(shard.end as u64);
    }
    w.seal()
}

/// Decodes a snapshot, rejecting bad magic, unknown versions, a bad
/// checksum (version 3), truncation and trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<QuerySnapshot, DecodeError> {
    let mut r = Reader::new(bytes);
    let version = r.header(&SNAPSHOT_MAGIC, 1..=SNAPSHOT_VERSION)?;
    // Versions 1 and 2 predate the checksum trailer.
    if version >= 3 {
        r.check_seal()?;
    }
    let graph = r.str()?;
    // Version 1 predates the batch-dynamic catalog: every graph was
    // immutable, i.e. pinned at version 0.
    let graph_version = if version >= 2 { r.u64()? } else { 0 };
    let n = r.u32()?;
    if !(1..=32).contains(&n) {
        return Err(DecodeError::Corrupt("pattern size"));
    }
    let labels = r.list(n.into(), 4, Reader::u32)?;
    let num_edges = r.u32()?;
    let edges = r.list(num_edges.into(), 2, |r| {
        let (u, v) = (r.u8()? as u32, r.u8()? as u32);
        if u >= n || v >= n || u == v {
            return Err(DecodeError::Corrupt("pattern edge"));
        }
        Ok((u as usize, v as usize))
    })?;
    let pattern = Pattern::from_edges_labeled(n as usize, &edges, labels);
    let config = read_config(&mut r)?;
    let edge_count = r.u64()?;
    let matches = r.u64()?;
    let emitted = r.u64()?;
    let tasks_acked = r.u64()?;
    let resumes = r.u32()?;
    let next_task_id = r.u64()?;
    let num_acked = r.u32()?;
    let acked = r.list(num_acked.into(), 8, Reader::u64)?;
    let num_pending = r.u32()?;
    let pending = r.list(num_pending.into(), 28, |r| {
        let (id, epoch, start, end) = (r.u64()?, r.u32()?, r.u64()?, r.u64()?);
        if start > end || end > edge_count {
            return Err(DecodeError::Corrupt("shard range"));
        }
        let shard = Shard {
            start: start as u32,
            end: end as u32,
        };
        Ok((id, epoch, shard))
    })?;
    r.done()?;
    Ok(QuerySnapshot {
        graph,
        graph_version,
        pattern,
        config,
        edge_count,
        matches,
        emitted,
        tasks_acked,
        resumes,
        next_task_id,
        acked,
        pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QuerySnapshot {
        QuerySnapshot {
            graph: "ba".to_owned(),
            graph_version: 9,
            pattern: Pattern::clique(3),
            config: MatcherConfig::tdfs().with_warps(4),
            edge_count: 100,
            matches: 42,
            emitted: 7,
            tasks_acked: 3,
            resumes: 1,
            next_task_id: 5,
            acked: vec![0, 2, 4],
            pending: vec![
                (1, 0, Shard { start: 20, end: 40 }),
                (3, 2, Shard { start: 60, end: 80 }),
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let snap = sample();
        let decoded = decode(&encode(&snap)).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn round_trips_every_preset_config() {
        for cfg in [
            MatcherConfig::tdfs(),
            MatcherConfig::tdfs_array(),
            MatcherConfig::no_steal(),
            MatcherConfig::stmatch_like(),
            MatcherConfig::egsm_like(),
            MatcherConfig::pbe_like(),
            MatcherConfig::hybrid(),
        ] {
            let snap = QuerySnapshot {
                config: cfg.clone(),
                ..sample()
            };
            assert_eq!(decode(&encode(&snap)).unwrap().config, cfg);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_unknown_version() {
        let mut bytes = encode(&sample());
        bytes[8] = 0x63; // version 99
        bytes[9] = 0x00;
        assert_eq!(decode(&bytes), Err(DecodeError::UnsupportedVersion(99)));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated | DecodeError::BadMagic | DecodeError::Corrupt(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        // Version 2 has no trailer: the extra byte is left unread.
        let mut v2 = golden_v2();
        v2.push(0);
        assert_eq!(decode(&v2), Err(DecodeError::Corrupt("trailing bytes")));
        // Version 3: the extra byte shifts the trailer, so the checksum
        // no longer matches.
        let mut v3 = encode(&sample());
        v3.push(0);
        assert_eq!(decode(&v3), Err(DecodeError::Corrupt("checksum mismatch")));
    }

    /// A count field set to `u32::MAX` claims more elements than there
    /// are bytes left: it is refused before anything is allocated, on
    /// the sealed layout (trailer recomputed, so the checksum does not
    /// mask the count) and on the unsealed version-2 one.
    #[test]
    fn huge_counts_are_rejected_before_allocating() {
        let snap = sample();
        let sealed = encode(&snap);
        let body_end = sealed.len() - 4;
        let pending_at = body_end - 28 * snap.pending.len() - 4;
        let acked_at = pending_at - 8 * snap.acked.len() - 4;
        let edges_at = 10 + 4 + snap.graph.len() + 8 + 4 + 4 * snap.pattern.num_vertices();
        assert_eq!(
            (sealed[edges_at], sealed[acked_at], sealed[pending_at]),
            (3, 3, 2),
            "pattern edges, acked ids, pending shards"
        );
        for at in [edges_at, acked_at, pending_at] {
            let mut v3 = sealed.clone();
            v3[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let crc = tdfs_graph::container::crc32(&v3[..body_end]);
            v3[body_end..].copy_from_slice(&crc.to_le_bytes());
            let mut v2 = v3[..body_end].to_vec();
            v2[8] = 2;
            for bytes in [v3, v2] {
                assert_eq!(decode(&bytes), Err(DecodeError::Truncated), "count at {at}");
            }
        }
    }

    #[test]
    fn rejects_out_of_range_shard() {
        let snap = QuerySnapshot {
            pending: vec![(
                1,
                0,
                Shard {
                    start: 90,
                    end: 200, // past edge_count = 100
                },
            )],
            ..sample()
        };
        assert_eq!(
            decode(&encode(&snap)),
            Err(DecodeError::Corrupt("shard range"))
        );
    }

    fn golden_snap(graph_version: u64) -> QuerySnapshot {
        QuerySnapshot {
            graph: "g".to_owned(),
            graph_version,
            pattern: Pattern::clique(3),
            config: MatcherConfig::tdfs().with_warps(2),
            edge_count: 10,
            matches: 5,
            emitted: 0,
            tasks_acked: 1,
            resumes: 0,
            next_task_id: 2,
            acked: vec![0],
            pending: vec![(1, 1, Shard { start: 4, end: 10 })],
        }
    }

    /// The body shared by both golden buffers: everything after the
    /// graph-version point (pattern onward).
    fn golden_tail() -> Vec<u8> {
        vec![
            // pattern: n=3, labels [0,0,0]
            0x03, 0x00, 0x00, 0x00, //
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            // 3 edges: (0,1) (0,2) (1,2)
            0x03, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x01, 0x02, //
            // strategy Timeout, tau = 10 ms = 10_000_000 ns
            0x00, 0x80, 0x96, 0x98, 0x00, 0x00, 0x00, 0x00, 0x00, //
            // num_warps = 2
            0x02, 0x00, 0x00, 0x00, //
            // stack Paged { arena_pages: 8192, table_len: 40, spill: true }
            0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x28, 0x00, 0x00, 0x00, 0x01, //
            // plan: symmetry on, reuse on; fused_injectivity, fused_leaf,
            // host_edge_filter off, ct_index off
            0x01, 0x01, 0x01, 0x01, 0x00, 0x00, //
            // chunk_size = 8, queue_capacity = 16384
            0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            // edge_count 10, matches 5, emitted 0, tasks_acked 1
            0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            // resumes 0, next_task_id 2
            0x00, 0x00, 0x00, 0x00, //
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            // acked: [0]
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            // pending: [(id 1, epoch 1, shard 4..10)]
            0x01, 0x00, 0x00, 0x00, //
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x01, 0x00, 0x00, 0x00, //
            0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        ]
    }

    /// Version-1 buffers (no graph-version field) must keep decoding
    /// forever, resolving to `graph_version = 0`.
    #[test]
    fn golden_wire_format_v1_still_decodes() {
        let mut golden: Vec<u8> = vec![
            // magic "TDFSSNAP"
            0x54, 0x44, 0x46, 0x53, 0x53, 0x4e, 0x41, 0x50, //
            // version 1
            0x01, 0x00, //
            // graph name: len 1, "g"
            0x01, 0x00, 0x00, 0x00, 0x67, //
        ];
        golden.extend_from_slice(&golden_tail());
        assert_eq!(decode(&golden).unwrap(), golden_snap(0));
    }

    /// The version-2 buffer of [`golden_snap`]`(3)`: no checksum.
    fn golden_v2() -> Vec<u8> {
        let mut golden: Vec<u8> = vec![
            // magic "TDFSSNAP"
            0x54, 0x44, 0x46, 0x53, 0x53, 0x4e, 0x41, 0x50, //
            // version 2
            0x02, 0x00, //
            // graph name: len 1, "g"
            0x01, 0x00, 0x00, 0x00, 0x67, //
            // graph_version 3
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        ];
        golden.extend_from_slice(&golden_tail());
        golden
    }

    /// Version-2 buffers (no checksum trailer) must keep decoding
    /// forever.
    #[test]
    fn golden_wire_format_v2_still_decodes() {
        assert_eq!(decode(&golden_v2()).unwrap(), golden_snap(3));
    }

    /// Pins the exact wire bytes of version 3: the version-2 body sealed
    /// with a CRC-32 trailer. If this test fails you changed the format:
    /// bump [`SNAPSHOT_VERSION`], keep a decoder for versions 1 to 3,
    /// and re-pin.
    #[test]
    fn golden_wire_format_v3() {
        let snap = golden_snap(3);
        let mut golden = golden_v2();
        golden[8] = 0x03; // version 3
        golden.extend_from_slice(&[0xf7, 0x77, 0x5b, 0x35]); // CRC-32 trailer
        let bytes = encode(&snap);
        assert_eq!(
            bytes, golden,
            "wire format changed — bump SNAPSHOT_VERSION and re-pin"
        );
        assert_eq!(decode(&golden).unwrap(), snap);
        let mut flipped = golden.clone();
        flipped[20] ^= 0x01; // one bit of graph_version
        assert_eq!(
            decode(&flipped),
            Err(DecodeError::Corrupt("checksum mismatch"))
        );
    }
}
