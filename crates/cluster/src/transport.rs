//! Framed loopback-TCP transport with chaos-injectable faults.
//!
//! [`Conn`] moves whole [`Message`]s over a `TcpStream` using the
//! [`wire`](crate::wire) frame; [`Client`] layers the node-side RPC
//! discipline on top: one monotone `seq` per request, retransmission of
//! the *same* seq through the shared
//! [`tdfs_core::retry`](mod@tdfs_core::retry) backoff on timeout, reconnection on a severed
//! stream, and skipping of stale replies. The coordinator's dedup cache
//! (keyed by that seq) makes retransmission idempotent, and the
//! ledger's epoch fence makes even a re-executed `Ack` harmless.
//!
//! ## Chaos points
//!
//! Node-side connections fire keyed fault points (key = `node_id`):
//!
//! | point | actions honoured |
//! |---|---|
//! | `cluster.net.send` | `Drop` (frame vanishes), `Duplicate` (frame sent twice), `Delay` (sleeps in the fire), `Kill`/`Inject` (stream severed) |
//! | `cluster.net.recv` | `Drop` (frame discarded, keep reading), `Delay`, `Kill`/`Inject` (severed) |
//!
//! Only the node side fires them: a dropped coordinator reply is
//! indistinguishable from a `Drop` at the node's recv, so one side
//! suffices and scripted `Nth`/`Range` triggers count deterministically.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tdfs_core::retry::{retry, BackoffPolicy, Retry};

use crate::wire::{
    check_crc, decode_payload, encode_payload, frame, frame_len, Message, WireError, FRAME_HEADER,
};

/// Why an RPC (or a single frame) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The socket failed or the peer vanished; the connection is gone.
    Io(String),
    /// The stream closed (or a chaos `Kill` severed it) mid-exchange.
    Severed,
    /// No reply arrived inside the RPC timeout; the stream is still
    /// aligned, so the same seq can be retransmitted.
    Timeout,
    /// A frame failed its CRC or a payload failed to parse. The byte
    /// stream can no longer be trusted, so the connection is dropped.
    Wire(WireError),
    /// The peer answered with something the protocol forbids.
    Protocol(&'static str),
}

impl RpcError {
    /// Whether the connection must be re-established before retrying.
    pub fn severs(&self) -> bool {
        !matches!(self, RpcError::Timeout)
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "socket error: {e}"),
            RpcError::Severed => write!(f, "connection severed"),
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::Wire(e) => write!(f, "wire error: {e}"),
            RpcError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<WireError> for RpcError {
    fn from(e: WireError) -> Self {
        RpcError::Wire(e)
    }
}

fn io_err(e: std::io::Error) -> RpcError {
    RpcError::Io(e.to_string())
}

/// What a keyed chaos point asked for, mirrored locally so non-`chaos`
/// builds compile without `tdfs-testkit`. `Sever` covers both `Kill`
/// and `Inject`: at the net layer it severs the stream, at the node
/// layer it kills the node outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// Without the chaos feature only `Pass` is ever constructed.
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
pub(crate) enum NetFault {
    Pass,
    Drop,
    Duplicate,
    Sever,
}

#[cfg(feature = "chaos")]
pub(crate) fn net_fault(name: &'static str, key: u64) -> NetFault {
    use tdfs_testkit::fault::Outcome;
    match tdfs_testkit::fault::fire_keyed(name, key) {
        Outcome::Drop => NetFault::Drop,
        Outcome::Duplicate => NetFault::Duplicate,
        // `Kill` severs the stream; `Inject` is treated the same at the
        // net layer (a forced I/O fault).
        Outcome::Kill | Outcome::Inject => NetFault::Sever,
        Outcome::Pass => NetFault::Pass,
    }
}

#[cfg(not(feature = "chaos"))]
pub(crate) fn net_fault(_name: &'static str, _key: u64) -> NetFault {
    NetFault::Pass
}

/// A framed, message-oriented connection over one `TcpStream`.
pub struct Conn {
    stream: TcpStream,
    /// `Some(node_id)` on node-side connections: net chaos points fire
    /// keyed by it. Coordinator-side connections pass `None`.
    chaos_key: Option<u64>,
}

impl Conn {
    /// Wraps a connected stream. `read_timeout` bounds how long
    /// [`recv`](Self::recv) waits for a frame to *begin* arriving.
    pub fn new(stream: TcpStream, chaos_key: Option<u64>, read_timeout: Duration) -> Self {
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))
            .ok();
        Self { stream, chaos_key }
    }

    /// Encodes, frames, and writes one message. Under chaos, the frame
    /// may be silently dropped, duplicated, delayed, or the stream
    /// severed — exactly the failures a real network exhibits.
    pub fn send(&mut self, seq: u64, msg: &Message) -> Result<(), RpcError> {
        let bytes = frame(&encode_payload(seq, msg));
        let mut writes = 1usize;
        if let Some(key) = self.chaos_key {
            match net_fault("cluster.net.send", key) {
                NetFault::Pass => {}
                NetFault::Drop => return Ok(()), // vanished in flight
                NetFault::Duplicate => writes = 2,
                NetFault::Sever => return Err(RpcError::Severed),
            }
        }
        for _ in 0..writes {
            self.stream.write_all(&bytes).map_err(io_err)?;
        }
        self.stream.flush().map_err(io_err)?;
        Ok(())
    }

    /// Writes pre-framed bytes verbatim (the coordinator's dedup cache
    /// resends a cached reply without re-encoding it).
    pub fn send_raw(&mut self, framed: &[u8]) -> Result<(), RpcError> {
        self.stream.write_all(framed).map_err(io_err)?;
        self.stream.flush().map_err(io_err)?;
        Ok(())
    }

    /// Reads the next message. `Err(Timeout)` means no frame started
    /// arriving — the stream is still frame-aligned and the caller may
    /// retransmit; every other error severs the connection. Frames the
    /// chaos layer `Drop`s are discarded and the read continues.
    pub fn recv(&mut self) -> Result<(u64, Message), RpcError> {
        loop {
            let mut header = [0u8; FRAME_HEADER];
            self.read_full(&mut header, true)?;
            let (len, crc) = frame_len(&header)?;
            let mut payload = vec![0u8; len as usize];
            // A timeout mid-payload would desync the stream: not clean.
            self.read_full(&mut payload, false)?;
            check_crc(&payload, crc)?;
            if let Some(key) = self.chaos_key {
                match net_fault("cluster.net.recv", key) {
                    NetFault::Drop => continue, // frame lost before us
                    NetFault::Sever => return Err(RpcError::Severed),
                    NetFault::Pass | NetFault::Duplicate => {}
                }
            }
            return Ok(decode_payload(&payload)?);
        }
    }

    /// Fills `buf` from the stream. When `clean_timeout` is set, a
    /// timeout before the first byte reports [`RpcError::Timeout`]
    /// (retryable); a timeout after partial data always severs.
    fn read_full(&mut self, buf: &mut [u8], clean_timeout: bool) -> Result<(), RpcError> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => return Err(RpcError::Severed),
                Ok(n) => filled += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if filled == 0 && clean_timeout {
                        return Err(RpcError::Timeout);
                    }
                    return Err(RpcError::Severed);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(e)),
            }
        }
        Ok(())
    }
}

/// Node-side RPC client: one outstanding request at a time, monotone
/// seq numbers, shared-policy retries, reconnect on sever.
pub struct Client {
    addr: String,
    node_id: u64,
    chaos: bool,
    policy: BackoffPolicy,
    read_timeout: Duration,
    conn: Option<Conn>,
    seq: u64,
}

impl Client {
    /// `read_timeout` is the per-attempt wait for a reply; `policy`
    /// bounds how many times a request is retransmitted/reconnected
    /// before the RPC reports its last error.
    pub fn new(
        addr: impl Into<String>,
        node_id: u64,
        chaos: bool,
        policy: BackoffPolicy,
        read_timeout: Duration,
    ) -> Self {
        Self {
            addr: addr.into(),
            node_id,
            chaos,
            policy,
            read_timeout,
            conn: None,
            seq: 0,
        }
    }

    /// Sends `msg` and blocks for its reply, retrying through the
    /// shared backoff policy. Retransmissions reuse the request's seq,
    /// so the coordinator's dedup cache answers duplicates from cache
    /// instead of re-executing them.
    pub fn rpc(&mut self, msg: &Message) -> Result<Message, RpcError> {
        self.seq += 1;
        let seq = self.seq;
        let policy = self.policy.clone();
        retry(&policy, |_| match self.attempt(seq, msg) {
            Ok(reply) => Retry::Done(reply),
            Err(err) => {
                if err.severs() {
                    self.conn = None;
                }
                Retry::Again(err)
            }
        })
    }

    fn attempt(&mut self, seq: u64, msg: &Message) -> Result<Message, RpcError> {
        let node_id = self.node_id;
        let chaos = self.chaos;
        let read_timeout = self.read_timeout;
        let conn = match &mut self.conn {
            Some(c) => c,
            slot @ None => {
                let stream = TcpStream::connect(&self.addr).map_err(io_err)?;
                slot.insert(Conn::new(stream, chaos.then_some(node_id), read_timeout))
            }
        };
        conn.send(seq, msg)?;
        loop {
            match conn.recv()? {
                (rseq, reply) if rseq == seq => return Ok(reply),
                // A reply to an earlier attempt whose timeout already
                // fired; the retransmitted request's reply follows.
                (rseq, _) if rseq < seq => continue,
                _ => return Err(RpcError::Protocol("reply seq from the future")),
            }
        }
    }
}
