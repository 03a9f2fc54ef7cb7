//! Seeded mutation tests for every stream-parsed byte format: `TDFSSNAP`
//! snapshots (sealed v3 and the unsealed v2 layout), every `JOURNAL`
//! intent, `MANIFEST`, `DELTA` sidecars and every cluster wire message.
//! Random byte overwrites, and every 2-, 4- and 8-byte window set to all
//! ones (which covers each length prefix and count), must decode to `Ok`
//! or the format's typed error: never a panic, never an allocation
//! abort. Sealed records are tried twice, as damaged (the CRC should
//! catch it) and with a recomputed trailer, so the parser behind the
//! CRC sees the same damage.

use tdfs::core::MatcherConfig;
use tdfs::graph::container::crc32;
use tdfs::graph::rng::Rng;
use tdfs::query::Pattern;
use tdfs::service::snapshot::{self, QuerySnapshot};
use tdfs::service::{DiskCatalog, Intent, PersistedDelta, Shard, StorageError};
use tdfs_cluster::wire::{decode_payload, encode_payload, Message};
use tdfs_testkit::TempDir;

const CASES: u64 = 64;

/// `CASES` seeded overwrites of 1-4 random bytes, then every 2-, 4- and
/// 8-byte window of `bytes` set to all ones.
fn mutations(bytes: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..CASES {
        let mut m = bytes.to_vec();
        for _ in 0..rng.gen_range(1..5) {
            let at = rng.gen_range(0..m.len());
            m[at] = rng.next_u32() as u8;
        }
        out.push(m);
    }
    for width in [2, 4, 8] {
        for at in 0..=bytes.len() - width {
            let mut m = bytes.to_vec();
            m[at..at + width].fill(0xFF);
            out.push(m);
        }
    }
    out
}

/// [`mutations`] of a sealed record, each as damaged and resealed.
fn sealed_mutations(bytes: &[u8], seed: u64) -> Vec<Vec<u8>> {
    mutations(bytes, seed)
        .into_iter()
        .flat_map(|m| {
            let mut resealed = m.clone();
            let body = resealed.len() - 4;
            let crc = crc32(&resealed[..body]);
            resealed[body..].copy_from_slice(&crc.to_le_bytes());
            [m, resealed]
        })
        .collect()
}

#[test]
fn snapshots_decode_or_fail_typed() {
    let base = QuerySnapshot {
        graph: "ba".to_owned(),
        graph_version: 9,
        pattern: Pattern::cycle(4).with_mod_labels(2),
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
    };
    let snaps = [
        base.clone(),
        QuerySnapshot {
            config: MatcherConfig::tdfs_array(),
            ..base.clone()
        },
        QuerySnapshot {
            config: MatcherConfig::hybrid(),
            ..base
        },
    ];
    for (i, snap) in snaps.iter().enumerate() {
        let sealed = snapshot::encode(snap);
        // The v2 layout is the same body with no trailer.
        let mut legacy = sealed[..sealed.len() - 4].to_vec();
        legacy[8] = 2;
        assert_eq!(snapshot::decode(&legacy).unwrap(), *snap);
        let seed = 0x5AA9 + i as u64;
        for bytes in sealed_mutations(&sealed, seed)
            .into_iter()
            .chain(mutations(&legacy, seed))
        {
            // The signature makes any error a `DecodeError`; what this
            // checks is that no input panics or aborts.
            let _ = snapshot::decode(&bytes);
        }
    }
}

#[test]
fn journal_intents_decode_or_fail_typed() {
    let intents = [
        Intent::InstallGraph {
            name: "g".to_owned(),
            version: 3,
            container_len: 1234,
            header_crc: 0xDEAD_BEEF,
        },
        Intent::ApplyDelta {
            name: "graph.v2".to_owned(),
            version: 4,
        },
        Intent::PutSnapshot { id: 17 },
        Intent::DropSnapshot { id: 17 },
    ];
    for (i, intent) in intents.iter().enumerate() {
        for bytes in sealed_mutations(&intent.encode(), 0x10 + i as u64) {
            let decoded = Intent::decode(&bytes);
            assert!(
                matches!(decoded, Ok(_) | Err(StorageError::Journal(_))),
                "{decoded:?}"
            );
        }
    }
}

#[test]
fn manifests_decode_or_fail_typed() {
    let dir = TempDir::new("tdfs-malformed-manifest").unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_manifest(&["alpha".to_owned(), "g2".to_owned(), "x-y_z".to_owned()])
        .unwrap();
    let path = dir.path().join("MANIFEST");
    let intact = std::fs::read(&path).unwrap();
    for bytes in sealed_mutations(&intact, 0x20) {
        std::fs::write(&path, &bytes).unwrap();
        let decoded = cat.read_manifest();
        assert!(
            matches!(decoded, Ok(_) | Err(StorageError::Manifest(_))),
            "{decoded:?}"
        );
    }
}

#[test]
fn delta_sidecars_decode_or_fail_typed() {
    let dir = TempDir::new("tdfs-malformed-delta").unwrap();
    let cat = DiskCatalog::open(dir.path()).unwrap();
    cat.write_delta(
        "g",
        &PersistedDelta {
            version: 7,
            inserts: vec![(0, 3), (1, 2)],
            deletes: vec![(2, 9)],
        },
    )
    .unwrap();
    let path = cat.delta_path("g");
    let intact = std::fs::read(&path).unwrap();
    for bytes in sealed_mutations(&intact, 0x30) {
        std::fs::write(&path, &bytes).unwrap();
        let decoded = cat.read_delta("g");
        assert!(
            matches!(decoded, Ok(_) | Err(StorageError::Delta { .. })),
            "{decoded:?}"
        );
    }
}

#[test]
fn wire_messages_decode_or_fail_typed() {
    let shard = Shard { start: 10, end: 20 };
    let messages = [
        Message::Hello { node_id: 7 },
        Message::PollWork {
            node_id: 7,
            graphs: vec![("ba".into(), 3), ("rmat".into(), 0)],
            queries: vec![1, 9],
            capacity: 4,
        },
        Message::StartAck {
            node_id: 7,
            query_id: 9,
            ok: true,
            edge_count: 1234,
        },
        Message::Ack {
            node_id: 7,
            query_id: 9,
            task_id: 3,
            epoch: 2,
            shard,
            count: 99,
        },
        Message::ShardFailed {
            node_id: 7,
            query_id: 9,
            task_id: 3,
            epoch: 2,
            reason: "stack exhausted".into(),
        },
        Message::Bye { node_id: 7 },
        Message::Ok,
        Message::ShipGraph {
            name: "ba".into(),
            version: 3,
            container: vec![1, 2, 3, 4, 5],
        },
        Message::StartQuery {
            query_id: 9,
            snapshot: vec![9, 8, 7],
        },
        Message::Grants {
            query_id: 9,
            grants: vec![(1, 0, shard), (2, 1, shard)],
        },
        Message::AckReply { accepted: false },
        Message::Wait { millis: 5 },
        Message::Retire { query_id: 9 },
        Message::Shutdown,
    ];
    for (i, msg) in messages.iter().enumerate() {
        for bytes in mutations(&encode_payload(42, msg), 0x40 + i as u64) {
            // Any error is a `WireError` by signature: this checks that
            // no input panics or aborts.
            let _ = decode_payload(&bytes);
        }
    }
}
