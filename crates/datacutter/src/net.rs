//! TCP transport for logical streams (distributed DataCutter).
//!
//! The in-process runtime connects filter copies through bounded channels
//! ([`crate::stream`]). This module extends one logical stream across a
//! process boundary with length-prefixed frames over TCP, *without*
//! re-implementing any stream semantics: both sides of the socket are
//! bridged onto ordinary local streams, so batching, backpressure,
//! cancellation, deadlines, fault injection, and ack/replay recovery all
//! keep working unchanged.
//!
//! ## Topology
//!
//! One logical link `stage s → stage s+1` split across two processes:
//!
//! ```text
//!  producer process                      consumer process
//!  ┌──────────────┐  local 1→1 stream   ┌──────────────────────────────┐
//!  │ filter copy c ├──▶ egress pump c ──TCP──▶ ingress handler p ──┐   │
//!  └──────────────┘   (one socket per         (one per upstream    │   │
//!                      producer copy)          producer copy)      ▼   │
//!                                              local P→C stream, writer│
//!                                              p staggered like the    │
//!                                              in-process round robin  │
//!                                         ┌──────────────┐◀────────────┘
//!                                         │ filter copies │
//!                                         └──────────────┘
//! ```
//!
//! Each producer copy gets its own connection, so per-producer FIFO order
//! is the socket's FIFO order. The consumer side feeds a local
//! [`StreamWriter`] with the *same* producer index and stagger the
//! in-process run would use; round-robin routing is a pure function of the
//! sequence number, so packet→consumer-copy routing is reproduced exactly
//! and results stay byte-identical to the in-process run.
//!
//! ## Wire format
//!
//! Every frame is `tag: u8` followed by a fixed header and (for data) a
//! length-prefixed payload, all little-endian:
//!
//! | frame      | layout                                                  |
//! |------------|---------------------------------------------------------|
//! | `Hello`    | magic `CGPN`, `version: u16`, `link: u32`, `producer: u32` |
//! | `HelloAck` | `resume_seq: u64` (consumer's cumulative-ack watermark)  |
//! | `Data`     | `from: u32`, `seq: u64`, `len: u32`, payload             |
//! | `End`      | `from: u32` (producer finished its unit of work)         |
//! | `Close`    | — (orderly connection shutdown)                          |
//! | `Telemetry`| `len: u32`, payload (JSON telemetry update)              |
//!
//! `Telemetry` frames travel on their own connections — worker →
//! launcher, handshaken with the sentinel link id [`TELEMETRY_LINK`] —
//! never interleaved with data links, so the data plane's framing and
//! ordering are untouched when telemetry is on.
//!
//! Decoding is hardened: declared payload lengths are validated against
//! [`MAX_FRAME_PAYLOAD`] *before* any allocation, unknown tags / bad magic
//! / version mismatches are [`ErrorKind::Malformed`] errors, and EOF in
//! the middle of a frame is malformed rather than silently truncated.
//!
//! ## Recovery across the socket
//!
//! Within each process, filter-copy restarts use the local streams'
//! ack/replay machinery exactly as in-process runs do. Across the socket,
//! the consumer publishes its cumulative per-producer watermark in
//! `HelloAck` whenever a producer (re)connects: a reconnecting producer
//! resumes past the acknowledged prefix, and any duplicated in-flight
//! frame is discarded by the same sequence watermark
//! ([`IngressFeeder::feed`]) — the watermark never regresses across a
//! reconnect because it lives in the serve loop's slot table, not in the
//! per-connection handler.
//!
//! [`ErrorKind::Malformed`]: crate::error::ErrorKind

use crate::error::{FilterError, FilterResult};
use crate::fault::RunControl;
use crate::link::{
    ingest, write_payload, BytePipe, Filled, Ingested, IngressCounts, IngressFeeder, LinkOptions,
};
use crate::stream::StreamWriter;
use cgp_obs::plock;
use cgp_obs::trace::{self, PID_RUNTIME};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Connection magic: first bytes of every `Hello` frame.
pub const NET_MAGIC: [u8; 4] = *b"CGPN";
/// Wire-protocol version (checked during the handshake).
pub const NET_VERSION: u16 = 1;
/// Hard cap on a single data frame's payload. A `Data` frame declaring
/// more than this is malformed and rejected before any allocation.
pub const MAX_FRAME_PAYLOAD: usize = 64 * 1024 * 1024;

/// Socket read/write timeout: the granularity at which blocked socket
/// operations notice run cancellation.
const POLL: Duration = Duration::from_millis(100);
/// Accept-loop poll interval (nonblocking listener).
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Default overall budget for [`connect_with_retry`].
const CONNECT_BUDGET: Duration = Duration::from_secs(10);

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_DATA: u8 = 3;
const TAG_END: u8 = 4;
const TAG_CLOSE: u8 = 5;
const TAG_TELEMETRY: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;

/// Fixed header length (bytes after the tag) for each frame tag, or
/// `None` for an unknown tag. Read by the one frame reader
/// ([`crate::link::BytePipe::read_incoming`]) that both transports use.
pub(crate) fn frame_header_len(tag: u8) -> Option<usize> {
    match tag {
        TAG_HELLO => Some(14),
        TAG_HELLO_ACK => Some(8),
        TAG_DATA => Some(16),
        TAG_END => Some(4),
        TAG_CLOSE => Some(0),
        TAG_TELEMETRY => Some(4),
        TAG_HEARTBEAT => Some(0),
        _ => None,
    }
}

/// Offset of the `len: u32` field within the fixed header (tag included)
/// for frames that carry a variable payload.
pub(crate) fn frame_len_field_at(tag: u8) -> Option<usize> {
    match tag {
        TAG_DATA => Some(13),
        TAG_TELEMETRY => Some(1),
        _ => None,
    }
}

/// Encode a `Data` frame's fixed header (the payload follows verbatim).
pub(crate) fn encode_data_header(from: u32, seq: u64, len: usize) -> [u8; 17] {
    let mut header = [0u8; 17];
    header[0] = TAG_DATA;
    header[1..5].copy_from_slice(&from.to_le_bytes());
    header[5..13].copy_from_slice(&seq.to_le_bytes());
    header[13..17].copy_from_slice(&(len as u32).to_le_bytes());
    header
}

/// Sentinel link id carried in the `Hello` of telemetry connections, so
/// they share the data plane's versioned handshake while remaining
/// unmistakable for a data link.
pub const TELEMETRY_LINK: u32 = u32::MAX;

/// One frame of the stream protocol (see the module docs for the wire
/// layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection opener: which logical link and which producer copy this
    /// connection carries.
    Hello { link: u32, producer: u32 },
    /// Handshake reply: the consumer's cumulative-ack watermark for this
    /// producer; the producer suppresses frames with `seq < resume_seq`.
    HelloAck { resume_seq: u64 },
    /// One packet: the `seq`-th the producer copy `from` ever sent on
    /// this link.
    Data {
        from: u32,
        seq: u64,
        payload: Vec<u8>,
    },
    /// Producer copy `from` finished its unit of work.
    End { from: u32 },
    /// Orderly connection shutdown (reconnection stays possible until
    /// `End` was seen).
    Close,
    /// One telemetry update (JSON payload; see
    /// [`crate::telemetry::decode_telemetry_payload`]). Only valid on
    /// connections handshaken with [`TELEMETRY_LINK`].
    Telemetry { payload: Vec<u8> },
    /// Liveness beacon on an otherwise idle link: carries no data and is
    /// consumed transparently by the frame reader (it only refreshes the
    /// per-peer silence deadline). Emitted by egress pumps when
    /// [`NetTuning::heartbeat`] is configured.
    Heartbeat,
}

/// Encode one frame to bytes (the socket path writes data payloads
/// without this intermediate copy; this form is for tests and small
/// control frames).
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    match f {
        Frame::Hello { link, producer } => {
            let mut out = Vec::with_capacity(15);
            out.push(TAG_HELLO);
            out.extend_from_slice(&NET_MAGIC);
            out.extend_from_slice(&NET_VERSION.to_le_bytes());
            out.extend_from_slice(&link.to_le_bytes());
            out.extend_from_slice(&producer.to_le_bytes());
            out
        }
        Frame::HelloAck { resume_seq } => {
            let mut out = Vec::with_capacity(9);
            out.push(TAG_HELLO_ACK);
            out.extend_from_slice(&resume_seq.to_le_bytes());
            out
        }
        Frame::Data { from, seq, payload } => {
            let mut out = Vec::with_capacity(17 + payload.len());
            out.push(TAG_DATA);
            out.extend_from_slice(&from.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
            out
        }
        Frame::End { from } => {
            let mut out = Vec::with_capacity(5);
            out.push(TAG_END);
            out.extend_from_slice(&from.to_le_bytes());
            out
        }
        Frame::Close => vec![TAG_CLOSE],
        Frame::Heartbeat => vec![TAG_HEARTBEAT],
        Frame::Telemetry { payload } => {
            let mut out = Vec::with_capacity(5 + payload.len());
            out.push(TAG_TELEMETRY);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
            out
        }
    }
}

fn get<const N: usize>(buf: &[u8], pos: usize, who: &str) -> FilterResult<[u8; N]> {
    buf.get(pos..pos + N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| FilterError::malformed(who, "truncated frame"))
}

/// Decode one frame from the front of `buf`, returning it and the bytes
/// consumed. Hardened: payload lengths are validated against
/// [`MAX_FRAME_PAYLOAD`] and the remaining buffer before allocation;
/// unknown tags, bad magic, and version mismatches are `Malformed`.
pub fn decode_frame(buf: &[u8]) -> FilterResult<(Frame, usize)> {
    let who = "net";
    let tag = *buf
        .first()
        .ok_or_else(|| FilterError::malformed(who, "empty frame"))?;
    match tag {
        TAG_HELLO => {
            let magic: [u8; 4] = get(buf, 1, who)?;
            if magic != NET_MAGIC {
                return Err(FilterError::malformed(
                    who,
                    format!("bad magic {magic:02x?} (expected {NET_MAGIC:02x?})"),
                ));
            }
            let version = u16::from_le_bytes(get(buf, 5, who)?);
            if version != NET_VERSION {
                return Err(FilterError::malformed(
                    who,
                    format!("protocol version {version} (expected {NET_VERSION})"),
                ));
            }
            let link = u32::from_le_bytes(get(buf, 7, who)?);
            let producer = u32::from_le_bytes(get(buf, 11, who)?);
            Ok((Frame::Hello { link, producer }, 15))
        }
        TAG_HELLO_ACK => {
            let resume_seq = u64::from_le_bytes(get(buf, 1, who)?);
            Ok((Frame::HelloAck { resume_seq }, 9))
        }
        TAG_DATA => {
            let from = u32::from_le_bytes(get(buf, 1, who)?);
            let seq = u64::from_le_bytes(get(buf, 5, who)?);
            let len = u32::from_le_bytes(get(buf, 13, who)?) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(FilterError::malformed(
                    who,
                    format!("data frame declares {len} bytes (cap {MAX_FRAME_PAYLOAD})"),
                ));
            }
            let payload = buf
                .get(17..17 + len)
                .ok_or_else(|| FilterError::malformed(who, "truncated data payload"))?
                .to_vec();
            Ok((Frame::Data { from, seq, payload }, 17 + len))
        }
        TAG_END => {
            let from = u32::from_le_bytes(get(buf, 1, who)?);
            Ok((Frame::End { from }, 5))
        }
        TAG_CLOSE => Ok((Frame::Close, 1)),
        TAG_HEARTBEAT => Ok((Frame::Heartbeat, 1)),
        TAG_TELEMETRY => {
            let len = u32::from_le_bytes(get(buf, 1, who)?) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(FilterError::malformed(
                    who,
                    format!("telemetry frame declares {len} bytes (cap {MAX_FRAME_PAYLOAD})"),
                ));
            }
            let payload = buf
                .get(5..5 + len)
                .ok_or_else(|| FilterError::malformed(who, "truncated telemetry payload"))?
                .to_vec();
            Ok((Frame::Telemetry { payload }, 5 + len))
        }
        t => Err(FilterError::malformed(
            who,
            format!("unknown frame tag {t}"),
        )),
    }
}

/// Per-link transfer counters, reported into `cgp_obs` metrics by the
/// executor (`net.link<id>.frames` / `.bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetLinkStats {
    /// Data frames moved across the socket(s).
    pub frames: u64,
    /// Payload bytes moved across the socket(s).
    pub bytes: u64,
    /// Duplicated in-flight frames discarded by the sequence watermark
    /// after a reconnect (ingress side only).
    pub deduped: u64,
    /// Heartbeat-deadline verdicts: a peer went silent past the liveness
    /// deadline (ingress side only; under supervision this is a dirty
    /// disconnect awaiting a respawned peer, otherwise it fails the link).
    pub timeouts: u64,
    /// Times a producer reconnected to this link after a disconnect
    /// (ingress side only): a respawned worker process rejoining.
    pub reconnects: u64,
}

/// Liveness knobs for one link's endpoints.
///
/// `heartbeat` turns the protocol on: egress pumps emit
/// [`Frame::Heartbeat`] whenever the link has been idle that long, and
/// readers fail (or, supervised, declare a dirty disconnect) when a peer
/// is silent past [`NetTuning::deadline`]. `supervised` makes the ingress
/// side *lenient*: a dead connection parks the producer's slot instead of
/// failing the link, waiting up to `reconnect` for a respawned process to
/// rejoin (the launcher's supervision layer guarantees one is coming, or
/// kills the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTuning {
    /// Emit a heartbeat after this much idle time, and derive the silence
    /// deadline from it. `None` disables the liveness protocol entirely
    /// (the pre-supervision behavior: a dead peer blocks reads until the
    /// run watchdog fires).
    pub heartbeat: Option<Duration>,
    /// Lenient ingress: treat dead connections as dirty disconnects and
    /// wait (bounded) for the producer to be respawned and reconnect.
    pub supervised: bool,
    /// How long a supervised ingress waits for a disconnected producer to
    /// reconnect before declaring the link dead.
    pub reconnect: Duration,
}

impl Default for NetTuning {
    fn default() -> Self {
        NetTuning {
            heartbeat: None,
            supervised: false,
            reconnect: Duration::from_secs(10),
        }
    }
}

impl NetTuning {
    /// Silence deadline: a peer that has sent nothing (not even a
    /// heartbeat) for this long is presumed dead or hung. Several missed
    /// beats, floored so scheduling jitter never fires it spuriously.
    pub fn deadline(&self) -> Option<Duration> {
        self.heartbeat
            .map(|every| (every * 4).max(Duration::from_secs(1)))
    }
}

/// A framed, cancellation-aware connection: blocking reads and writes
/// poll the socket at [`POLL`] granularity so a cancelled run unwedges
/// promptly even while a peer is silent.
pub(crate) struct FrameConn {
    stream: TcpStream,
    control: Option<Arc<RunControl>>,
    who: String,
    /// Fail a read when the peer has been silent this long (heartbeats
    /// count as traffic). `None` = wait forever (the run watchdog is the
    /// only backstop).
    deadline: Option<Duration>,
    /// Last time any byte arrived from the peer.
    last_rx: Instant,
    /// Last time a write completed (the heartbeat's idleness clock).
    last_tx: Instant,
}

/// Marker prefix for silence-deadline errors, so callers can count them
/// as heartbeat timeouts without a dedicated error kind.
const HEARTBEAT_TIMEOUT_MSG: &str = "heartbeat deadline exceeded";

/// Whether an error is a liveness verdict from [`FrameConn`]'s silence
/// deadline (vs. an ordinary socket/framing failure).
pub fn is_heartbeat_timeout(e: &FilterError) -> bool {
    e.message.starts_with(HEARTBEAT_TIMEOUT_MSG)
}

impl FrameConn {
    fn new(stream: TcpStream, control: Option<Arc<RunControl>>, who: String) -> FilterResult<Self> {
        let err = |e: std::io::Error| FilterError::new(who.clone(), format!("socket setup: {e}"));
        stream.set_nodelay(true).map_err(err)?;
        stream.set_read_timeout(Some(POLL)).map_err(err)?;
        stream.set_write_timeout(Some(POLL)).map_err(err)?;
        Ok(FrameConn {
            stream,
            control,
            who,
            deadline: None,
            last_rx: Instant::now(),
            last_tx: Instant::now(),
        })
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
        self.last_rx = Instant::now();
    }

    fn cancelled(&self) -> Option<FilterError> {
        self.control
            .as_ref()
            .filter(|c| c.is_cancelled())
            .map(|_| FilterError::cancelled(self.who.clone(), "run cancelled during socket I/O"))
    }

    /// Half-close: the peer reads EOF after the frames already written.
    pub(crate) fn shutdown_write(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

impl BytePipe for FrameConn {
    fn who(&self) -> &str {
        &self.who
    }

    fn fill(&mut self, buf: &mut [u8], allow_eof: bool) -> FilterResult<Filled> {
        let mut off = 0;
        while off < buf.len() {
            match self.stream.read(&mut buf[off..]) {
                Ok(0) => {
                    if off == 0 && allow_eof {
                        return Ok(Filled::Eof);
                    }
                    return Err(FilterError::malformed(
                        self.who.clone(),
                        "connection closed mid-frame",
                    ));
                }
                Ok(n) => {
                    off += n;
                    self.last_rx = Instant::now();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if let Some(c) = self.cancelled() {
                        return Err(c);
                    }
                    if let Some(d) = self.deadline {
                        let silent = self.last_rx.elapsed();
                        if silent > d {
                            return Err(FilterError::stalled(
                                self.who.clone(),
                                format!(
                                    "{HEARTBEAT_TIMEOUT_MSG}: peer silent for \
                                     {silent:?} (deadline {d:?})"
                                ),
                            ));
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(FilterError::new(
                        self.who.clone(),
                        format!("socket read: {e}"),
                    ))
                }
            }
        }
        Ok(Filled::Full)
    }

    fn write_all(&mut self, mut buf: &[u8]) -> FilterResult<()> {
        while !buf.is_empty() {
            match self.stream.write(buf) {
                Ok(0) => {
                    return Err(FilterError::new(
                        self.who.clone(),
                        "socket write returned 0 bytes",
                    ))
                }
                Ok(n) => buf = &buf[n..],
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if let Some(c) = self.cancelled() {
                        return Err(c);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(FilterError::new(
                        self.who.clone(),
                        format!("socket write: {e}"),
                    ))
                }
            }
        }
        self.last_tx = Instant::now();
        Ok(())
    }
}

/// Whether a failed `connect` is worth retrying: the listener may not be
/// accepting yet (the launcher spawns workers concurrently), the peer may
/// have dropped a backlogged attempt, or the kernel was momentarily out
/// of ephemeral ports. Anything else — an unparseable or unroutable
/// address, permission denied — fails identically on every attempt, so
/// retrying only burns the whole budget before reporting it.
fn connect_error_is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        ConnectionRefused
            | ConnectionReset
            | ConnectionAborted
            | NotConnected
            | TimedOut
            | WouldBlock
            | Interrupted
            | AddrNotAvailable
    )
}

/// Ceiling for the exponential backoff between connect attempts.
const MAX_CONNECT_DELAY: Duration = Duration::from_millis(500);

/// Double the backoff without overflowing, capped at
/// [`MAX_CONNECT_DELAY`].
fn next_connect_delay(delay: Duration) -> Duration {
    delay.saturating_mul(2).min(MAX_CONNECT_DELAY)
}

/// Connect to `addr` with bounded retry and backoff (the peer worker may
/// not have bound its listener yet). Cancellable; emits a `net.connect`
/// trace span covering the whole attempt sequence.
pub fn connect_with_retry(
    addr: &str,
    control: Option<&Arc<RunControl>>,
    who: &str,
) -> FilterResult<TcpStream> {
    let _span = trace::span(format!("net.connect {addr}"), "net", PID_RUNTIME, 0);
    let start = Instant::now();
    let mut delay = Duration::from_millis(10);
    let mut attempts = 0u32;
    loop {
        if control.is_some_and(|c| c.is_cancelled()) {
            return Err(FilterError::cancelled(
                who.to_string(),
                "run cancelled while connecting",
            ));
        }
        attempts += 1;
        match TcpStream::connect(addr) {
            Ok(s) => {
                if trace::enabled() && attempts > 1 {
                    trace::instant(
                        "net.connect.retries",
                        "net",
                        PID_RUNTIME,
                        0,
                        vec![("attempts", u64::from(attempts).into())],
                    );
                }
                return Ok(s);
            }
            Err(e) => {
                if !connect_error_is_transient(&e) {
                    return Err(FilterError::new(
                        who.to_string(),
                        format!("connect to {addr} failed (not retryable): {e}"),
                    ));
                }
                if start.elapsed() >= CONNECT_BUDGET {
                    return Err(FilterError::new(
                        who.to_string(),
                        format!("connect to {addr} failed after {attempts} attempts: {e}"),
                    ));
                }
                std::thread::sleep(delay);
                delay = next_connect_delay(delay);
            }
        }
    }
}

/// Read a handshake reply: the `HelloAck` watermark, or a named error.
fn read_hello_ack(conn: &mut FrameConn) -> FilterResult<u64> {
    match conn.read_frame()? {
        Some(Frame::HelloAck { resume_seq }) => Ok(resume_seq),
        Some(f) => Err(FilterError::malformed(
            conn.who.clone(),
            format!("expected HelloAck, got {f:?}"),
        )),
        None => Err(FilterError::malformed(
            conn.who.clone(),
            "connection closed during handshake",
        )),
    }
}

/// Producer side of a TCP link: connect (with retry) and handshake as
/// `producer` on `link`. Returns the connection and the consumer's
/// resume watermark from `HelloAck`. A consumer that accepted but never
/// replies cannot hang the producer: the handshake is bounded by the
/// silence deadline.
pub(crate) fn open_egress(
    addr: &str,
    link: u32,
    producer: u32,
    opts: &LinkOptions,
) -> FilterResult<(FrameConn, u64)> {
    let who = format!("net.egress[{producer}]");
    let stream = connect_with_retry(addr, opts.control.as_ref(), &who)?;
    let mut conn = FrameConn::new(stream, opts.control.clone(), who)?;
    conn.set_deadline(opts.tuning.deadline());
    conn.write_frame(&Frame::Hello { link, producer })?;
    let resume = read_hello_ack(&mut conn)?;
    Ok((conn, resume))
}

/// The egress heartbeat sidecar: it shares the connection (frame-granular
/// mutex, so a heartbeat never interleaves inside a data frame) and emits
/// [`Frame::Heartbeat`] whenever the link has been idle for one interval,
/// so a blocked or slow producer stage does not look dead to the
/// consumer's silence deadline. Stopped on drop.
pub(crate) struct Heartbeat {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    pub(crate) fn spawn(conn: Arc<Mutex<FrameConn>>, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let slice = every.min(Duration::from_millis(50));
            while !stop2.load(Ordering::Acquire) {
                std::thread::sleep(slice);
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let mut conn = plock(&conn);
                // Stop on write errors: the data path surfaces the same
                // failure with full context.
                if conn.last_tx.elapsed() >= every && conn.write_frame(&Frame::Heartbeat).is_err() {
                    break;
                }
            }
        });
        Heartbeat {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Consumer side of a TCP handshake: validate the accepted connection's
/// `Hello` against this link and reply with the producer's resume
/// watermark. Returns the connection, renamed `net.ingress[p]`, and `p`.
fn accept_handshake(
    stream: TcpStream,
    link: u32,
    producers: usize,
    resume_seq_of: impl Fn(u32) -> u64,
    opts: &LinkOptions,
) -> FilterResult<(FrameConn, usize)> {
    let mut conn = FrameConn::new(stream, opts.control.clone(), "net.ingress".to_string())?;
    conn.set_deadline(opts.tuning.deadline());
    let producer = match conn.read_frame()? {
        Some(Frame::Hello {
            link: got_link,
            producer,
        }) => {
            if got_link != link {
                return Err(FilterError::malformed(
                    conn.who,
                    format!("connection for link {got_link} arrived at link {link}"),
                ));
            }
            if producer as usize >= producers {
                return Err(FilterError::malformed(
                    conn.who,
                    format!("producer {producer} out of range (link has {producers})"),
                ));
            }
            producer
        }
        Some(f) => {
            return Err(FilterError::malformed(
                conn.who,
                format!("expected Hello, got {f:?}"),
            ))
        }
        None => {
            return Err(FilterError::malformed(
                conn.who,
                "connection closed during handshake",
            ))
        }
    };
    conn.who = format!("net.ingress[{producer}]");
    conn.write_frame(&Frame::HelloAck {
        resume_seq: resume_seq_of(producer),
    })?;
    Ok((conn, producer as usize))
}

/// Slot table entry for one upstream producer copy. The feeder (and its
/// watermark) live here between connections.
struct Slot {
    feeder: Option<IngressFeeder>,
    /// Shared view of the feeder's watermark, readable even while the
    /// feeder is checked out to a handler.
    watermark: Arc<AtomicU64>,
    /// When the producer's connection died without `End` (supervised
    /// mode): the reconnect deadline runs from here.
    parked_at: Option<Instant>,
    /// Whether this producer ever completed a handshake (distinguishes a
    /// first connect from a respawned process rejoining).
    connected_once: bool,
}

/// Serve one logical link's ingress side: accept one connection per
/// upstream producer copy on `listener`, handshake, and bridge frames
/// onto the local `writers` (writer `p` plays producer copy `p`, keeping
/// the in-process round-robin routing). Returns when every producer has
/// sent `End`, or with the first error (cancelling the run so blocked
/// filter copies unwedge).
///
/// Producers may disconnect cleanly (`Close` or EOF at a frame boundary)
/// and reconnect; the sequence watermark in the slot table dedups any
/// re-sent in-flight frames. EOF mid-frame is malformed and fails the
/// link.
///
/// With `opts.tuning.supervised` the link becomes crash-tolerant: a
/// connection that dies without `End` — reset, EOF mid-frame, or silence
/// past the heartbeat deadline — parks the producer's slot instead of
/// failing the link, and a respawned process may reconnect (within
/// `tuning.reconnect`) and resume from the `HelloAck` watermark; a
/// reconnect after `End` is drained and discarded (the respawned prefix
/// deterministically regenerates everything, so its tail duplicates are
/// expected, not corruption).
pub fn serve_ingress(
    listener: TcpListener,
    link: u32,
    writers: Vec<StreamWriter>,
    opts: &LinkOptions,
) -> FilterResult<NetLinkStats> {
    let tuning = opts.tuning;
    let producers = writers.len();
    let slots: Vec<Mutex<Slot>> = writers
        .into_iter()
        .enumerate()
        .map(|(p, w)| {
            let feeder = IngressFeeder::new(w, format!("net.ingress[{p}]"));
            Mutex::new(Slot {
                watermark: feeder.watermark(),
                feeder: Some(feeder),
                parked_at: None,
                connected_once: false,
            })
        })
        .collect();
    let slots = &slots;
    let remaining = AtomicUsize::new(producers);
    let remaining = &remaining;
    let counts = IngressCounts::new(opts.probe.clone());
    let counts = &counts;
    let timeouts = AtomicU64::new(0);
    let timeouts = &timeouts;
    let reconnects = AtomicU64::new(0);
    let errors: Mutex<Vec<FilterError>> = Mutex::new(Vec::new());
    listener
        .set_nonblocking(true)
        .map_err(|e| FilterError::new("net.ingress", format!("listener: {e}")))?;
    let cancelled = || opts.cancelled();
    let fail = |e: FilterError, errs: &Mutex<Vec<FilterError>>| {
        if let Some(c) = &opts.control {
            c.cancel(format!("ingress link {link} failed: {e}"));
        }
        plock(errs).push(e);
    };

    std::thread::scope(|scope| {
        loop {
            if remaining.load(Ordering::Acquire) == 0 || cancelled() {
                break;
            }
            if !plock(&errors).is_empty() {
                break;
            }
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Supervised: a parked producer whose replacement
                    // never arrives must fail in bounded time, not block
                    // the link until the run watchdog.
                    if tuning.supervised {
                        let expired = slots.iter().position(|s| {
                            plock(s)
                                .parked_at
                                .is_some_and(|t| t.elapsed() > tuning.reconnect)
                        });
                        if let Some(p) = expired {
                            fail(
                                FilterError::stalled(
                                    "net.ingress",
                                    format!(
                                        "producer {p} disconnected and no replacement \
                                         reconnected within {:?} (worker presumed dead; \
                                         restart budget exhausted?)",
                                        tuning.reconnect
                                    ),
                                ),
                                &errors,
                            );
                            break;
                        }
                    }
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    fail(
                        FilterError::new("net.ingress", format!("accept: {e}")),
                        &errors,
                    );
                    break;
                }
            };
            // Handshake inline (it is bounded by the socket timeouts),
            // then hand the connection + feeder to a handler thread so
            // every producer streams concurrently. The watermark is read
            // through the slot's shared handle: it stays correct even
            // while the feeder is checked out to a dying connection.
            let (conn, p) = match accept_handshake(
                stream,
                link,
                producers,
                |p| plock(&slots[p as usize]).watermark.load(Ordering::Acquire),
                opts,
            ) {
                Ok(accepted) => accepted,
                Err(e) => {
                    fail(e, &errors);
                    break;
                }
            };
            // A respawned producer can handshake while the dead
            // connection's handler is still timing out its read; wait
            // (bounded) for the handler to park the feeder.
            let wait_budget = Instant::now();
            let mut feeder = loop {
                if let Some(f) = plock(&slots[p]).feeder.take() {
                    break Some(f);
                }
                if !tuning.supervised || wait_budget.elapsed() > tuning.reconnect || cancelled() {
                    break None;
                }
                std::thread::sleep(ACCEPT_POLL);
            };
            let Some(feeder) = feeder.take() else {
                fail(
                    FilterError::malformed(
                        "net.ingress",
                        format!("producer {p} connected twice concurrently"),
                    ),
                    &errors,
                );
                break;
            };
            if feeder.ended() {
                plock(&slots[p]).feeder = Some(feeder);
                if tuning.supervised {
                    // A respawned prefix regenerates its full output; the
                    // tail past this link's End is duplicate by
                    // construction. Drain and discard it.
                    scope.spawn(move || {
                        let mut conn = conn;
                        while let Ok(Some(f)) = conn.read_frame() {
                            if matches!(f, Frame::End { .. } | Frame::Close) {
                                break;
                            }
                        }
                    });
                    continue;
                }
                fail(
                    FilterError::malformed(
                        "net.ingress",
                        format!("producer {p} reconnected after End"),
                    ),
                    &errors,
                );
                break;
            }
            {
                let mut slot = plock(&slots[p]);
                slot.parked_at = None;
                if slot.connected_once {
                    reconnects.fetch_add(1, Ordering::Relaxed);
                }
                slot.connected_once = true;
            }
            let errors = &errors;
            let fail = &fail;
            scope.spawn(move || {
                let mut conn = conn;
                let mut feeder = feeder;
                // Whether this connection died without `End` (supervised:
                // park the slot and await a respawned producer).
                let mut parked = false;
                match ingest(&mut conn, p, &mut feeder, counts, |_, _| {}) {
                    Ok(Ingested::End) => {
                        remaining.fetch_sub(1, Ordering::AcqRel);
                    }
                    // Clean disconnect: the producer may reconnect (its
                    // process restarted); the watermark in the slot table
                    // survives.
                    Ok(Ingested::Closed | Ingested::Reset) => parked = tuning.supervised,
                    // Supervised: a dead connection — reset, EOF
                    // mid-frame, heartbeat timeout — is a dirty
                    // disconnect, not link failure. The partial frame (if
                    // any) was never fed, so the watermark is consistent
                    // and a respawned producer resumes exactly past it.
                    Ok(Ingested::Broken(e))
                        if tuning.supervised && e.kind != crate::error::ErrorKind::Cancelled =>
                    {
                        if is_heartbeat_timeout(&e) {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        parked = true;
                    }
                    Ok(Ingested::Broken(e)) | Err(e) => fail(e, errors),
                }
                // Return the feeder (and its watermark) to the slot for a
                // possible reconnect; start the reconnect clock if the
                // connection died without End.
                let mut slot = plock(&slots[p]);
                if parked {
                    slot.parked_at = Some(Instant::now());
                }
                slot.feeder = Some(feeder);
            });
        }
    });

    // Close any local writer still open (error/cancel paths), so
    // downstream readers see end-of-work instead of blocking forever.
    let mut deduped = 0;
    for slot in slots {
        if let Some(f) = &mut plock(slot).feeder {
            deduped += f.deduped();
            f.abandon();
        }
    }
    if let Some(e) = plock(&errors).first() {
        return Err(e.clone());
    }
    if cancelled() && remaining.load(Ordering::Acquire) > 0 {
        return Err(FilterError::cancelled(
            "net.ingress",
            "run cancelled before all producers finished",
        ));
    }
    Ok(NetLinkStats {
        timeouts: timeouts.load(Ordering::Relaxed),
        reconnects: reconnects.load(Ordering::Relaxed),
        ..counts.stats(deduped)
    })
}

/// Worker-side telemetry connection to the launcher's aggregator.
///
/// Handshakes with [`TELEMETRY_LINK`] (so version mismatches are caught
/// exactly like on data links), then ships opaque telemetry payloads.
/// All sends are best-effort from the caller's perspective: losing
/// telemetry must never fail a run, so callers typically drop the client
/// on the first error.
pub struct TelemetryClient {
    conn: FrameConn,
}

impl TelemetryClient {
    /// Connect (single attempt — the launcher binds its aggregator
    /// before spawning workers, and a retry budget here would stall a
    /// worker whose launcher died; telemetry is best-effort) and
    /// handshake as `worker`.
    pub fn connect(
        addr: &str,
        worker: u32,
        control: Option<Arc<RunControl>>,
    ) -> FilterResult<Self> {
        let who = format!("net.telemetry[{worker}]");
        if control.as_ref().is_some_and(|c| c.is_cancelled()) {
            return Err(FilterError::cancelled(
                who,
                "run cancelled while connecting",
            ));
        }
        let stream = TcpStream::connect(addr)
            .map_err(|e| FilterError::new(who.clone(), format!("connect to {addr} failed: {e}")))?;
        let mut conn = FrameConn::new(stream, control, who)?;
        conn.write_frame(&Frame::Hello {
            link: TELEMETRY_LINK,
            producer: worker,
        })?;
        read_hello_ack(&mut conn)?;
        Ok(TelemetryClient { conn })
    }

    /// Ship one telemetry payload.
    pub fn send(&mut self, payload: &[u8]) -> FilterResult<()> {
        let mut header = [TAG_TELEMETRY; 5];
        header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        write_payload(&mut self.conn, &header, payload)
    }

    /// Orderly shutdown; errors are ignored (the aggregator treats EOF
    /// and `Close` the same).
    pub fn close(mut self) {
        let _ = self.conn.write_frame(&Frame::Close);
        self.conn.shutdown_write();
    }
}

/// Serve the launcher side of the telemetry plane: accept worker
/// connections on `listener` and hand every decoded payload to
/// `on_update(worker, payload)`. Returns once `expected` connections
/// have terminated (cleanly or not), or when `control` is cancelled —
/// the launcher cancels after its worker processes exit, which also
/// covers workers that crash before ever connecting.
///
/// Telemetry is best-effort: per-connection decode errors end that
/// connection but are not propagated (a run must never fail because its
/// telemetry did). Only listener setup errors are returned.
///
/// `on_disconnect(worker)` fires when a worker's connection ends (cleanly
/// or not), after its last update was delivered. Aggregators use it to
/// retire the worker's live state — without it, a crashed worker's final
/// sample haunts every merged status line.
pub fn serve_telemetry<F, D>(
    listener: TcpListener,
    expected: usize,
    control: Option<Arc<RunControl>>,
    on_update: F,
    on_disconnect: D,
) -> FilterResult<()>
where
    F: Fn(u32, Vec<u8>) + Send + Sync,
    D: Fn(u32) + Send + Sync,
{
    listener
        .set_nonblocking(true)
        .map_err(|e| FilterError::new("net.telemetry", format!("listener: {e}")))?;
    let finished = AtomicUsize::new(0);
    let finished = &finished;
    let cancelled = || control.as_ref().is_some_and(|c| c.is_cancelled());
    let on_update = &on_update;
    let on_disconnect = &on_disconnect;
    std::thread::scope(|scope| {
        while finished.load(Ordering::Acquire) < expected && !cancelled() {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            let control = control.clone();
            scope.spawn(move || {
                let worker = (|| -> FilterResult<(FrameConn, u32)> {
                    let mut conn = FrameConn::new(stream, control, "net.telemetry".to_string())?;
                    match conn.read_frame()? {
                        Some(Frame::Hello { link, producer }) if link == TELEMETRY_LINK => {
                            conn.who = format!("net.telemetry[{producer}]");
                            conn.write_frame(&Frame::HelloAck { resume_seq: 0 })?;
                            Ok((conn, producer))
                        }
                        _ => Err(FilterError::malformed(
                            "net.telemetry",
                            "expected telemetry Hello",
                        )),
                    }
                })();
                let Ok((mut conn, worker)) = worker else {
                    finished.fetch_add(1, Ordering::AcqRel);
                    return;
                };
                // Close, EOF, an unexpected frame, or a decode error
                // all just end the connection.
                while let Ok(Some(Frame::Telemetry { payload })) = conn.read_frame() {
                    on_update(worker, payload);
                }
                on_disconnect(worker);
                finished.fetch_add(1, Ordering::AcqRel);
            });
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::stream::logical_stream;

    #[test]
    fn frames_roundtrip() {
        let frames = [
            Frame::Hello {
                link: 3,
                producer: 7,
            },
            Frame::HelloAck { resume_seq: 42 },
            Frame::Data {
                from: 1,
                seq: 99,
                payload: vec![1, 2, 3, 4, 5],
            },
            Frame::Data {
                from: 0,
                seq: 0,
                payload: vec![],
            },
            Frame::End { from: 2 },
            Frame::Close,
            Frame::Telemetry {
                payload: b"{\"source\":\"w0\"}".to_vec(),
            },
            Frame::Telemetry { payload: vec![] },
        ];
        for f in &frames {
            let bytes = encode_frame(f);
            let (back, used) = decode_frame(&bytes).unwrap();
            assert_eq!(&back, f);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocating() {
        // Header declares ~4 GiB with a 0-byte body: must be rejected by
        // the cap check, never by an allocation attempt.
        let mut bytes = vec![TAG_DATA];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&bytes).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        assert!(err.message.contains("cap"), "{err}");
    }

    #[test]
    fn truncated_frames_are_malformed_at_every_cut() {
        for f in [
            Frame::Hello {
                link: 1,
                producer: 0,
            },
            Frame::Data {
                from: 0,
                seq: 5,
                payload: vec![9; 32],
            },
            Frame::End { from: 0 },
        ] {
            let bytes = encode_frame(&f);
            for cut in 0..bytes.len() {
                let err = decode_frame(&bytes[..cut]).unwrap_err();
                assert_eq!(
                    err.kind,
                    crate::error::ErrorKind::Malformed,
                    "cut={cut} of {f:?}"
                );
            }
        }
    }

    #[test]
    fn bad_magic_version_and_tag_are_malformed() {
        let mut hello = encode_frame(&Frame::Hello {
            link: 0,
            producer: 0,
        });
        hello[1] = b'X';
        assert!(decode_frame(&hello).unwrap_err().message.contains("magic"));

        let mut hello = encode_frame(&Frame::Hello {
            link: 0,
            producer: 0,
        });
        hello[5] = 0xff;
        assert!(decode_frame(&hello)
            .unwrap_err()
            .message
            .contains("version"));

        assert!(decode_frame(&[200u8])
            .unwrap_err()
            .message
            .contains("unknown frame tag"));
    }

    #[test]
    fn oversized_telemetry_payload_is_rejected_before_allocating() {
        let mut bytes = vec![TAG_TELEMETRY];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&bytes).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        assert!(err.message.contains("cap"), "{err}");
    }

    #[test]
    fn truncated_telemetry_payload_is_malformed() {
        let bytes = encode_frame(&Frame::Telemetry {
            payload: vec![7; 16],
        });
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind, crate::error::ErrorKind::Malformed, "cut={cut}");
        }
    }

    #[test]
    fn telemetry_client_ships_payloads_to_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let got: Mutex<Vec<(u32, Vec<u8>)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                serve_telemetry(listener, 2, None, |w, p| plock(&got).push((w, p)), |_| {})
                    .unwrap();
            });
            for w in 0..2u32 {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = TelemetryClient::connect(&addr, w, None).unwrap();
                    client.send(format!("update-{w}-a").as_bytes()).unwrap();
                    client.send(format!("update-{w}-b").as_bytes()).unwrap();
                    client.close();
                });
            }
        });
        let mut got = plock(&got).clone();
        got.sort();
        assert_eq!(
            got,
            vec![
                (0, b"update-0-a".to_vec()),
                (0, b"update-0-b".to_vec()),
                (1, b"update-1-a".to_vec()),
                (1, b"update-1-b".to_vec()),
            ]
        );
    }

    #[test]
    fn ingress_feeder_dedups_and_rejects_gaps() {
        let (ws, mut rs) = logical_stream(1, 1, 16, &LinkOptions::default());
        let mut feeder = IngressFeeder::new(ws.into_iter().next().unwrap(), "net.ingress[0]");
        for seq in 0..3 {
            assert!(feeder.feed(seq, Buffer::from_vec(vec![seq as u8])).unwrap());
        }
        // Duplicated in-flight frames after a reconnect: dropped.
        assert!(!feeder.feed(1, Buffer::from_vec(vec![1])).unwrap());
        assert!(!feeder.feed(2, Buffer::from_vec(vec![2])).unwrap());
        assert_eq!(feeder.deduped(), 2);
        assert_eq!(feeder.resume_seq(), 3, "watermark never regresses");
        // Next fresh frame is delivered.
        assert!(feeder.feed(3, Buffer::from_vec(vec![3])).unwrap());
        // A gap is corruption.
        let err = feeder.feed(9, Buffer::from_vec(vec![9])).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Malformed);
        assert_eq!(err.filter, "net.ingress[0]", "the error names its endpoint");
        feeder.end();
        let seen: Vec<u8> = std::iter::from_fn(|| rs[0].read())
            .map(|b| b.as_slice()[0])
            .collect();
        assert_eq!(seen, vec![0, 1, 2, 3], "each frame delivered exactly once");
    }

    #[test]
    fn connect_error_classification() {
        use std::io::{Error, ErrorKind};
        // Listener-not-up-yet races are retryable.
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::TimedOut,
            ErrorKind::AddrNotAvailable,
        ] {
            assert!(
                connect_error_is_transient(&Error::from(kind)),
                "{kind:?} should be retryable"
            );
        }
        // Config mistakes fail the same way on every attempt.
        for kind in [
            ErrorKind::InvalidInput,
            ErrorKind::PermissionDenied,
            ErrorKind::NotFound,
            ErrorKind::Unsupported,
        ] {
            assert!(
                !connect_error_is_transient(&Error::from(kind)),
                "{kind:?} should fail fast"
            );
        }
    }

    #[test]
    fn connect_backoff_saturates_instead_of_overflowing() {
        assert_eq!(
            next_connect_delay(Duration::from_millis(10)),
            Duration::from_millis(20)
        );
        assert_eq!(next_connect_delay(MAX_CONNECT_DELAY), MAX_CONNECT_DELAY);
        // A pathological starting delay must not panic in the doubling.
        assert_eq!(next_connect_delay(Duration::MAX), MAX_CONNECT_DELAY);
    }

    #[test]
    fn connect_fails_fast_on_an_unparseable_address() {
        let start = std::time::Instant::now();
        let err = match connect_with_retry("definitely not an address", None, "test") {
            Err(e) => e,
            Ok(_) => panic!("nonsense address must not connect"),
        };
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "non-transient errors must not consume the 10s retry budget \
             (took {:?})",
            start.elapsed()
        );
        assert!(
            err.message.contains("not retryable"),
            "error says why it gave up immediately: {err}"
        );
    }
}
