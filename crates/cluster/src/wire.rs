//! Wire format: length-prefixed, CRC-framed, versioned messages.
//!
//! A frame on the socket is
//!
//! ```text
//! [payload_len: u32 LE][payload_crc32: u32 LE][payload]
//! ```
//!
//! and the payload is
//!
//! ```text
//! [proto_version: u16][seq: u64][tag: u8][body…]
//! ```
//!
//! The CRC (the `TDFSGRPH` container's CRC-32 over the whole payload)
//! makes a torn or bit-flipped frame a typed [`WireError`], never a
//! misparse. `seq` is a per-connection monotone counter assigned by the
//! node: a retransmitted request reuses its seq, replies echo it, and
//! the coordinator's per-connection dedup cache turns duplicate
//! delivery (chaos `Action::Duplicate`,
//! retransmission after a lost reply) into a resent reply instead of a
//! re-executed request. Exactness never *depends* on that cache —
//! a re-executed `Ack` is fenced by the ledger's epoch — it exists so
//! duplicates are cheap, not just safe.
//!
//! Frames and bodies are written and read with
//! [`tdfs_service::codec`], the codec behind `TDFSSNAP` snapshots and
//! the state-directory records, so every count is bounded by the bytes
//! that follow it. Golden byte tests pin the layout.

use std::fmt;

use tdfs_graph::container::crc32;
use tdfs_service::codec::{DecodeError, Reader, Writer};
use tdfs_service::Shard;

/// Protocol version spoken by this build. A frame with any other
/// version is rejected ([`WireError::UnsupportedVersion`]) before its
/// body is touched.
pub const PROTO_VERSION: u16 = 1;

/// Hard cap on a payload (largest legitimate frame is a shipped graph
/// container). A length field beyond this is corruption or abuse, not
/// a frame worth allocating for.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Frame header bytes on the wire ahead of the payload.
pub const FRAME_HEADER: usize = 8;

/// Why a frame or payload failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload length field exceeds [`MAX_PAYLOAD`].
    Oversized { len: u32 },
    /// Payload CRC mismatch — the frame was damaged in flight.
    Checksum { stored: u32, computed: u32 },
    /// The payload's protocol version is not [`PROTO_VERSION`].
    UnsupportedVersion(u16),
    /// Unknown message tag.
    UnknownTag(u8),
    /// The payload ended before the message did.
    Truncated,
    /// A field held an impossible value.
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized { len } => write!(f, "frame payload of {len} bytes over cap"),
            WireError::Checksum { stored, computed } => write!(
                f,
                "frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Truncated => write!(f, "message truncated"),
            WireError::Corrupt(what) => write!(f, "message corrupt: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            // Payloads carry no magic or sealed version.
            _ => WireError::Corrupt(e.reason()),
        }
    }
}

/// Every message either side can put on the wire.
///
/// Node→coordinator messages are *requests* (carry the sender's
/// `node_id`); coordinator→node messages are *replies*. The node drives
/// the whole protocol — the coordinator holds no connection state
/// beyond the dedup cache, so a replacement node joining mid-query is
/// indistinguishable from a first boot.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // ---- node → coordinator ----
    /// First message on a connection.
    Hello { node_id: u64 },
    /// "Give me work": the node reports what it already holds, the
    /// coordinator replies with the next instruction (ship, start,
    /// grants, retire, wait).
    PollWork {
        node_id: u64,
        /// `(name, version)` of every graph the node has registered.
        graphs: Vec<(String, u64)>,
        /// Ids of every query the node has started.
        queries: Vec<u64>,
        /// Max leases the node wants granted in one reply.
        capacity: u32,
    },
    /// Outcome of a `StartQuery` instruction: the node either resumed
    /// the shipped snapshot (validated graph version + admitted edge
    /// count) or refused it.
    StartAck {
        node_id: u64,
        query_id: u64,
        ok: bool,
        /// The node's own admitted-edge count (diagnostic on mismatch).
        edge_count: u64,
    },
    /// A shard's result, carrying the lease's fencing token. The
    /// coordinator accepts it exactly once per task via the epoch
    /// fence; late acks from a reaped (partitioned, zombie) node come
    /// back as an `AckReply` with `accepted: false`.
    Ack {
        node_id: u64,
        query_id: u64,
        task_id: u64,
        epoch: u32,
        shard: Shard,
        count: u64,
    },
    /// The shard's engine run failed on the node; the coordinator
    /// requeues it (with straggler split) for someone else.
    ShardFailed {
        node_id: u64,
        query_id: u64,
        task_id: u64,
        epoch: u32,
        reason: String,
    },
    /// Graceful goodbye (leases the node still holds will expire).
    Bye { node_id: u64 },

    // ---- coordinator → node ----
    /// Generic acknowledgement (reply to `Hello`, `StartAck`, `Bye`,
    /// `ShardFailed`).
    Ok,
    /// Rebalance/failover shipping: a whole `TDFSGRPH` container. The
    /// node writes it to its state dir and serves the mapped file.
    ShipGraph {
        name: String,
        version: u64,
        container: Vec<u8>,
    },
    /// Start (or adopt) a query: a whole `TDFSSNAP` checkpoint of the
    /// coordinator's ledger. The node resumes `Service::open`-style —
    /// validates the exact `GraphVersion`, recomputes its admitted
    /// edges, and must arrive at the snapshot's `edge_count`.
    StartQuery { query_id: u64, snapshot: Vec<u8> },
    /// Shard leases granted to this node, `(task_id, epoch, shard)`
    /// each. Batched so one poll round-trip can feed every worker the
    /// node has.
    Grants {
        query_id: u64,
        grants: Vec<(u64, u32, Shard)>,
    },
    /// Reply to an `Ack`: whether the epoch fence accepted it.
    AckReply { accepted: bool },
    /// Nothing to do; poll again in `millis`.
    Wait { millis: u64 },
    /// The query is finished (or failed); drop its state.
    Retire { query_id: u64 },
    /// The coordinator is shutting down; the node should exit.
    Shutdown,
}

fn write_shard(w: &mut Writer, s: Shard) {
    w.u32(s.start);
    w.u32(s.end);
}

fn read_shard(r: &mut Reader) -> Result<Shard, DecodeError> {
    let start = r.u32()?;
    let end = r.u32()?;
    if end < start {
        return Err(DecodeError::Corrupt("shard end < start"));
    }
    Ok(Shard { start, end })
}

// ---- message codec ----

const TAG_HELLO: u8 = 1;
const TAG_POLL: u8 = 2;
const TAG_START_ACK: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_SHARD_FAILED: u8 = 5;
const TAG_BYE: u8 = 6;
const TAG_OK: u8 = 32;
const TAG_SHIP_GRAPH: u8 = 33;
const TAG_START_QUERY: u8 = 34;
const TAG_GRANTS: u8 = 35;
const TAG_ACK_REPLY: u8 = 36;
const TAG_WAIT: u8 = 37;
const TAG_RETIRE: u8 = 38;
const TAG_SHUTDOWN: u8 = 39;

/// Encodes `msg` as a payload: `[proto_version][seq][tag][body]`.
pub fn encode_payload(seq: u64, msg: &Message) -> Vec<u8> {
    let mut w = Writer::default();
    w.u16(PROTO_VERSION);
    w.u64(seq);
    match msg {
        Message::Hello { node_id } => {
            w.u8(TAG_HELLO);
            w.u64(*node_id);
        }
        Message::PollWork {
            node_id,
            graphs,
            queries,
            capacity,
        } => {
            w.u8(TAG_POLL);
            w.u64(*node_id);
            w.u32(graphs.len() as u32);
            for (name, version) in graphs {
                w.str(name);
                w.u64(*version);
            }
            w.u32(queries.len() as u32);
            for q in queries {
                w.u64(*q);
            }
            w.u32(*capacity);
        }
        Message::StartAck {
            node_id,
            query_id,
            ok,
            edge_count,
        } => {
            w.u8(TAG_START_ACK);
            w.u64(*node_id);
            w.u64(*query_id);
            w.bool(*ok);
            w.u64(*edge_count);
        }
        Message::Ack {
            node_id,
            query_id,
            task_id,
            epoch,
            shard,
            count,
        } => {
            w.u8(TAG_ACK);
            w.u64(*node_id);
            w.u64(*query_id);
            w.u64(*task_id);
            w.u32(*epoch);
            write_shard(&mut w, *shard);
            w.u64(*count);
        }
        Message::ShardFailed {
            node_id,
            query_id,
            task_id,
            epoch,
            reason,
        } => {
            w.u8(TAG_SHARD_FAILED);
            w.u64(*node_id);
            w.u64(*query_id);
            w.u64(*task_id);
            w.u32(*epoch);
            w.str(reason);
        }
        Message::Bye { node_id } => {
            w.u8(TAG_BYE);
            w.u64(*node_id);
        }
        Message::Ok => w.u8(TAG_OK),
        Message::ShipGraph {
            name,
            version,
            container,
        } => {
            w.u8(TAG_SHIP_GRAPH);
            w.str(name);
            w.u64(*version);
            w.bytes(container);
        }
        Message::StartQuery { query_id, snapshot } => {
            w.u8(TAG_START_QUERY);
            w.u64(*query_id);
            w.bytes(snapshot);
        }
        Message::Grants { query_id, grants } => {
            w.u8(TAG_GRANTS);
            w.u64(*query_id);
            w.u32(grants.len() as u32);
            for (task_id, epoch, shard) in grants {
                w.u64(*task_id);
                w.u32(*epoch);
                write_shard(&mut w, *shard);
            }
        }
        Message::AckReply { accepted } => {
            w.u8(TAG_ACK_REPLY);
            w.bool(*accepted);
        }
        Message::Wait { millis } => {
            w.u8(TAG_WAIT);
            w.u64(*millis);
        }
        Message::Retire { query_id } => {
            w.u8(TAG_RETIRE);
            w.u64(*query_id);
        }
        Message::Shutdown => w.u8(TAG_SHUTDOWN),
    }
    w.finish()
}

/// Decodes a payload back into `(seq, Message)`.
pub fn decode_payload(payload: &[u8]) -> Result<(u64, Message), WireError> {
    let mut r = Reader::new(payload);
    let version = r.u16()?;
    if version != PROTO_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let seq = r.u64()?;
    let tag = r.u8()?;
    let msg = match tag {
        TAG_HELLO => Message::Hello { node_id: r.u64()? },
        TAG_POLL => {
            let node_id = r.u64()?;
            let num_graphs = r.u32()?;
            let graphs = r.list(num_graphs.into(), 12, |r| Ok((r.str()?, r.u64()?)))?;
            let num_queries = r.u32()?;
            let queries = r.list(num_queries.into(), 8, Reader::u64)?;
            Message::PollWork {
                node_id,
                graphs,
                queries,
                capacity: r.u32()?,
            }
        }
        TAG_START_ACK => Message::StartAck {
            node_id: r.u64()?,
            query_id: r.u64()?,
            ok: r.bool("start-ack flag")?,
            edge_count: r.u64()?,
        },
        TAG_ACK => Message::Ack {
            node_id: r.u64()?,
            query_id: r.u64()?,
            task_id: r.u64()?,
            epoch: r.u32()?,
            shard: read_shard(&mut r)?,
            count: r.u64()?,
        },
        TAG_SHARD_FAILED => Message::ShardFailed {
            node_id: r.u64()?,
            query_id: r.u64()?,
            task_id: r.u64()?,
            epoch: r.u32()?,
            reason: r.str()?,
        },
        TAG_BYE => Message::Bye { node_id: r.u64()? },
        TAG_OK => Message::Ok,
        TAG_SHIP_GRAPH => Message::ShipGraph {
            name: r.str()?,
            version: r.u64()?,
            container: r.bytes()?.to_vec(),
        },
        TAG_START_QUERY => Message::StartQuery {
            query_id: r.u64()?,
            snapshot: r.bytes()?.to_vec(),
        },
        TAG_GRANTS => {
            let query_id = r.u64()?;
            let num_grants = r.u32()?;
            let grants = r.list(num_grants.into(), 20, |r| {
                Ok((r.u64()?, r.u32()?, read_shard(r)?))
            })?;
            Message::Grants { query_id, grants }
        }
        TAG_ACK_REPLY => Message::AckReply {
            accepted: r.bool("ack-reply flag")?,
        },
        TAG_WAIT => Message::Wait { millis: r.u64()? },
        TAG_RETIRE => Message::Retire { query_id: r.u64()? },
        TAG_SHUTDOWN => Message::Shutdown,
        other => return Err(WireError::UnknownTag(other)),
    };
    r.done()?;
    Ok((seq, msg))
}

/// Wraps a payload in the on-socket frame: `[len][crc32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(payload.len() as u32);
    w.u32(crc32(payload));
    w.raw(payload);
    w.finish()
}

/// Validates a frame header, returning the payload length to read.
pub fn frame_len(header: &[u8; FRAME_HEADER]) -> Result<(u32, u32), WireError> {
    let mut r = Reader::new(header);
    let (len, crc) = (r.u32()?, r.u32()?);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    Ok((len, crc))
}

/// Validates a received payload against the header's CRC.
pub fn check_crc(payload: &[u8], stored: u32) -> Result<(), WireError> {
    let computed = crc32(payload);
    if computed != stored {
        return Err(WireError::Checksum { stored, computed });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let payload = encode_payload(42, &msg);
        let (seq, back) = decode_payload(&payload).expect("decodes");
        assert_eq!(seq, 42);
        assert_eq!(back, msg);
        // And through the frame layer.
        let framed = frame(&payload);
        let (len, crc) = frame_len(framed[..FRAME_HEADER].try_into().unwrap()).unwrap();
        assert_eq!(len as usize, payload.len());
        check_crc(&framed[FRAME_HEADER..], crc).unwrap();
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(Message::Hello { node_id: 7 });
        roundtrip(Message::PollWork {
            node_id: 7,
            graphs: vec![("ba".into(), 3), ("rmat".into(), 0)],
            queries: vec![1, 9],
            capacity: 4,
        });
        roundtrip(Message::StartAck {
            node_id: 7,
            query_id: 9,
            ok: true,
            edge_count: 1234,
        });
        roundtrip(Message::Ack {
            node_id: 7,
            query_id: 9,
            task_id: 3,
            epoch: 2,
            shard: Shard { start: 10, end: 20 },
            count: 99,
        });
        roundtrip(Message::ShardFailed {
            node_id: 7,
            query_id: 9,
            task_id: 3,
            epoch: 2,
            reason: "stack exhausted".into(),
        });
        roundtrip(Message::Bye { node_id: 7 });
        roundtrip(Message::Ok);
        roundtrip(Message::ShipGraph {
            name: "ba".into(),
            version: 3,
            container: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Message::StartQuery {
            query_id: 9,
            snapshot: vec![9, 8, 7],
        });
        roundtrip(Message::Grants {
            query_id: 9,
            grants: vec![
                (1, 0, Shard { start: 0, end: 8 }),
                (2, 1, Shard { start: 8, end: 9 }),
            ],
        });
        roundtrip(Message::AckReply { accepted: false });
        roundtrip(Message::Wait { millis: 5 });
        roundtrip(Message::Retire { query_id: 9 });
        roundtrip(Message::Shutdown);
    }

    /// Golden bytes: the layout is an on-wire contract; a refactor that
    /// changes it must bump [`PROTO_VERSION`], not silently move bytes.
    #[test]
    fn golden_ack_payload() {
        let payload = encode_payload(
            5,
            &Message::Ack {
                node_id: 2,
                query_id: 1,
                task_id: 3,
                epoch: 4,
                shard: Shard { start: 6, end: 7 },
                count: 8,
            },
        );
        let mut expected = Vec::new();
        expected.extend_from_slice(&1u16.to_le_bytes()); // proto version
        expected.extend_from_slice(&5u64.to_le_bytes()); // seq
        expected.push(4); // TAG_ACK
        expected.extend_from_slice(&2u64.to_le_bytes()); // node_id
        expected.extend_from_slice(&1u64.to_le_bytes()); // query_id
        expected.extend_from_slice(&3u64.to_le_bytes()); // task_id
        expected.extend_from_slice(&4u32.to_le_bytes()); // epoch
        expected.extend_from_slice(&6u32.to_le_bytes()); // shard.start
        expected.extend_from_slice(&7u32.to_le_bytes()); // shard.end
        expected.extend_from_slice(&8u64.to_le_bytes()); // count
        assert_eq!(payload, expected);
    }

    #[test]
    fn golden_frame_header() {
        let framed = frame(b"abc");
        assert_eq!(&framed[0..4], &3u32.to_le_bytes());
        assert_eq!(
            &framed[4..8],
            &tdfs_graph::container::crc32(b"abc").to_le_bytes()
        );
        assert_eq!(&framed[8..], b"abc");
    }

    #[test]
    fn damage_is_typed_never_a_misparse() {
        let payload = encode_payload(1, &Message::Wait { millis: 50 });
        // Version gate fires before anything else.
        let mut wrong_version = payload.clone();
        wrong_version[0] = 99;
        assert!(matches!(
            decode_payload(&wrong_version),
            Err(WireError::UnsupportedVersion(_))
        ));
        // Unknown tag.
        let mut bad_tag = payload.clone();
        bad_tag[10] = 250;
        assert_eq!(decode_payload(&bad_tag), Err(WireError::UnknownTag(250)));
        // Truncation at every length.
        for cut in 0..payload.len() {
            assert!(decode_payload(&payload[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut extended = payload.clone();
        extended.push(0);
        assert_eq!(
            decode_payload(&extended),
            Err(WireError::Corrupt("trailing bytes"))
        );
        // CRC catches any payload flip at the frame layer.
        let framed = frame(&payload);
        let (_, crc) = frame_len(framed[..FRAME_HEADER].try_into().unwrap()).unwrap();
        let mut flipped = framed[FRAME_HEADER..].to_vec();
        flipped[3] ^= 0x10;
        assert!(matches!(
            check_crc(&flipped, crc),
            Err(WireError::Checksum { .. })
        ));
        // Oversized length field is refused before allocation.
        let mut header = [0u8; FRAME_HEADER];
        header[0..4].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            frame_len(&header),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn shard_with_end_before_start_is_corrupt() {
        let mut payload = encode_payload(
            1,
            &Message::Ack {
                node_id: 1,
                query_id: 1,
                task_id: 1,
                epoch: 0,
                shard: Shard { start: 5, end: 9 },
                count: 0,
            },
        );
        // Overwrite shard.end (4 bytes before the final count u64).
        let end_at = payload.len() - 8 - 4;
        payload[end_at..end_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode_payload(&payload),
            Err(WireError::Corrupt("shard end < start"))
        );
    }
}
