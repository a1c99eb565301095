//! One frame layer for the links that cross a process boundary.
//!
//! The TCP link ([`crate::net`]) and the same-host shm ring
//! ([`crate::shm`]) carry the identical frame format. Everything above
//! the raw byte pipe is written once, here:
//!
//! - [`BytePipe`] is the transport primitive: `fill` a buffer completely
//!   (or report a clean EOF, or a ring reset) and `write_all`. Its
//!   provided methods are the one frame reader ([`BytePipe::read_incoming`])
//!   and the frame writers; the [`MAX_FRAME_PAYLOAD`] cap is checked once
//!   per direction.
//! - [`IngressFeeder`] and `ingest` are the per-producer ingress loop:
//!   sequence dedup, `from` checks on `Data` and `End`, and the link
//!   counters.
//! - [`egress_pump`] drains one producer copy's local stream into a link
//!   of either transport.
//! - [`Ingress`] is a worker's consumer endpoint; [`Ingress::serve`]
//!   runs whichever transport it holds.
//!
//! What stays per transport is what really differs: TCP's accept loop,
//! handshake and slot parking ([`crate::net::serve_ingress`]), and shm's
//! in-ring `Hello`, ring reset and resume publishing
//! ([`ShmIngress::serve`]).

use crate::buffer::Buffer;
use crate::error::{FilterError, FilterResult};
use crate::fault::RunControl;
use crate::net::{
    decode_frame, encode_data_header, encode_frame, frame_header_len, frame_len_field_at,
    open_egress, serve_ingress, Frame, Heartbeat, NetLinkStats, NetTuning, MAX_FRAME_PAYLOAD,
};
use crate::shm::{ShmIngress, SHM_PREFIX};
use crate::stream::{StreamReader, StreamWriter};
use crate::telemetry::LinkProbe;
use cgp_obs::plock;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Optional inputs of the link entry points ([`crate::logical_stream`],
/// [`serve_ingress`], [`ShmIngress::serve`], [`egress_pump`]). Each entry
/// point reads the fields that apply to it.
#[derive(Clone)]
pub struct LinkOptions {
    /// Run-wide control: cancellation unwedges blocked endpoints, and
    /// in-process streams report progress to the stall detector. A failed
    /// cross-process link cancels it.
    pub control: Option<Arc<RunControl>>,
    /// Live frame/byte/dedup counters of a cross-process link, read by the
    /// telemetry sampler mid-run.
    pub probe: Option<Arc<LinkProbe>>,
    /// Liveness and supervision of a cross-process link.
    pub tuning: NetTuning,
    /// Attach ack/replay state to an in-process stream (the recovery
    /// protocol in [`crate::stream`]).
    pub recovering: bool,
    /// Let 1→1 non-recovering in-process streams use the lock-free SPSC
    /// ring (the default); `false` forces the mutex channel everywhere.
    pub same_host_rings: bool,
}

impl Default for LinkOptions {
    fn default() -> Self {
        LinkOptions {
            control: None,
            probe: None,
            tuning: NetTuning::default(),
            recovering: false,
            same_host_rings: true,
        }
    }
}

impl LinkOptions {
    pub(crate) fn cancelled(&self) -> bool {
        self.control.as_ref().is_some_and(|c| c.is_cancelled())
    }
}

/// What one [`BytePipe::fill`] call produced.
pub enum Filled {
    /// The buffer is completely filled.
    Full,
    /// The peer closed at a frame boundary, before any byte (only when the
    /// caller allowed EOF).
    Eof,
    /// A rejoining producer requested a ring reset (shm only); any partial
    /// fill was abandoned and the ring drained.
    Reset,
}

/// One result of [`BytePipe::read_incoming`].
#[derive(Debug, PartialEq, Eq)]
pub enum Incoming {
    /// A complete frame.
    Frame(Frame),
    /// The peer closed at a frame boundary.
    Eof,
    /// A respawned producer re-attached and the ring was drained; expect a
    /// fresh `Hello` next (shm only).
    Reset,
}

/// A byte pipe that carries frames: implemented by the TCP connection and
/// by both halves of a shm ring.
pub trait BytePipe {
    /// Endpoint name used in errors (`net.ingress[2]`, `shm.egress[0]`).
    fn who(&self) -> &str;

    /// Fill `buf` completely. [`Filled::Eof`] means the peer closed before
    /// the first byte and `allow_eof` was set; a close mid-frame is
    /// malformed. TCP never returns [`Filled::Reset`].
    fn fill(&mut self, buf: &mut [u8], allow_eof: bool) -> FilterResult<Filled>;

    /// Write all of `buf`.
    fn write_all(&mut self, buf: &[u8]) -> FilterResult<()>;

    /// Read the next frame. Declared payload lengths are checked against
    /// [`MAX_FRAME_PAYLOAD`] before allocating, and the bytes are parsed
    /// by [`decode_frame`]. Heartbeats are consumed here: their only
    /// effect, refreshing a silence deadline, happened in `fill`.
    fn read_incoming(&mut self) -> FilterResult<Incoming> {
        loop {
            let mut tag = [0u8; 1];
            match self.fill(&mut tag, true)? {
                Filled::Full => {}
                Filled::Eof => return Ok(Incoming::Eof),
                Filled::Reset => return Ok(Incoming::Reset),
            }
            let Some(header_len) = frame_header_len(tag[0]) else {
                return Err(FilterError::malformed(
                    self.who(),
                    format!("unknown frame tag {}", tag[0]),
                ));
            };
            let mut frame = vec![0u8; 1 + header_len];
            frame[0] = tag[0];
            if let Filled::Reset = self.fill(&mut frame[1..], false)? {
                return Ok(Incoming::Reset);
            }
            if let Some(at) = frame_len_field_at(tag[0]) {
                let len =
                    u32::from_le_bytes(frame[at..at + 4].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME_PAYLOAD {
                    return Err(FilterError::malformed(
                        self.who(),
                        format!("frame declares {len} bytes (cap {MAX_FRAME_PAYLOAD})"),
                    ));
                }
                let at = frame.len();
                frame.resize(at + len, 0);
                if let Filled::Reset = self.fill(&mut frame[at..], false)? {
                    return Ok(Incoming::Reset);
                }
            }
            match decode_frame(&frame) {
                Ok((Frame::Heartbeat, _)) => continue,
                Ok((f, _)) => return Ok(Incoming::Frame(f)),
                Err(e) => {
                    return Err(FilterError {
                        filter: self.who().to_string(),
                        ..e
                    })
                }
            }
        }
    }

    /// Read one frame; `Ok(None)` when the peer closed at a frame
    /// boundary. A ring reset is an error here: only a supervised shm
    /// ingress expects rejoins.
    fn read_frame(&mut self) -> FilterResult<Option<Frame>> {
        match self.read_incoming()? {
            Incoming::Frame(f) => Ok(Some(f)),
            Incoming::Eof => Ok(None),
            Incoming::Reset => Err(FilterError::malformed(
                self.who(),
                "unexpected ring reset (second producer attached to an unsupervised ring)",
            )),
        }
    }

    /// Write one frame.
    fn write_frame(&mut self, f: &Frame) -> FilterResult<()> {
        self.write_all(&encode_frame(f))
    }

    /// Write a `Data` frame without copying the payload into an
    /// intermediate encoding.
    fn write_data(&mut self, from: u32, seq: u64, payload: &[u8]) -> FilterResult<()> {
        write_payload(self, &encode_data_header(from, seq, payload.len()), payload)
    }
}

/// Write a frame's fixed `header` and then its variable payload verbatim,
/// after the one send-side check of the [`MAX_FRAME_PAYLOAD`] cap.
pub(crate) fn write_payload<P: BytePipe + ?Sized>(
    pipe: &mut P,
    header: &[u8],
    payload: &[u8],
) -> FilterResult<()> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(FilterError::new(
            pipe.who(),
            format!(
                "payload of {} bytes exceeds the frame cap {MAX_FRAME_PAYLOAD}",
                payload.len()
            ),
        ));
    }
    pipe.write_all(header)?;
    pipe.write_all(payload)
}

/// Seq-deduplicating bridge from one remote producer onto its local
/// [`StreamWriter`]. The next-expected watermark lives in a shared atomic
/// that outlives any one connection, so a reconnecting producer can never
/// regress it: duplicated in-flight frames are dropped, gaps are
/// malformed.
pub struct IngressFeeder {
    writer: StreamWriter,
    /// Endpoint named in sequence errors (`net.ingress[p]`,
    /// `shm.ingress[p]`).
    who: String,
    next_seq: Arc<AtomicU64>,
    deduped: u64,
    ended: bool,
}

impl IngressFeeder {
    pub fn new(writer: StreamWriter, who: impl Into<String>) -> Self {
        IngressFeeder {
            writer,
            who: who.into(),
            next_seq: Arc::new(AtomicU64::new(0)),
            deduped: 0,
            ended: false,
        }
    }

    /// The cumulative watermark: the next sequence number this producer
    /// owes. A (re)connecting producer resumes from it.
    pub fn resume_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    /// Shared handle on the watermark, readable while the feeder itself
    /// is checked out to a connection handler (a respawned producer may
    /// handshake before the dead connection's handler has returned it).
    pub fn watermark(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.next_seq)
    }

    /// Duplicated frames discarded so far.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Whether this producer already sent `End`.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Deliver frame `seq`: `Ok(true)` if forwarded to the local stream,
    /// `Ok(false)` if it was a duplicate below the watermark. A sequence
    /// *gap* means frames were lost on a path that guarantees FIFO —
    /// that's corruption, not reordering, and is malformed.
    pub fn feed(&mut self, seq: u64, buf: Buffer) -> FilterResult<bool> {
        let expect = self.next_seq.load(Ordering::Acquire);
        if seq < expect {
            self.deduped += 1;
            return Ok(false);
        }
        if seq > expect {
            return Err(FilterError::malformed(
                self.who.clone(),
                format!("sequence gap: got {seq}, expected {expect}"),
            ));
        }
        self.writer.write(buf)?;
        self.next_seq.store(expect + 1, Ordering::Release);
        Ok(true)
    }

    /// The producer finished its unit of work: propagate end-of-work to
    /// the local stream.
    pub fn end(&mut self) {
        self.ended = true;
        self.writer.close();
    }

    /// Close the local stream without the producer's `End` (error and
    /// cancel paths), so downstream readers see end-of-work instead of
    /// blocking forever.
    pub(crate) fn abandon(&mut self) {
        self.writer.close();
    }
}

/// Link-wide ingress counters: every producer's loop ticks the same
/// totals and, with telemetry on, the live probe. Duplicates are tallied
/// per feeder.
pub(crate) struct IngressCounts {
    frames: AtomicU64,
    bytes: AtomicU64,
    probe: Option<Arc<LinkProbe>>,
}

impl IngressCounts {
    pub(crate) fn new(probe: Option<Arc<LinkProbe>>) -> Self {
        IngressCounts {
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            probe,
        }
    }

    /// The link's stats once every producer is done; `deduped` sums the
    /// feeders.
    pub(crate) fn stats(&self, deduped: u64) -> NetLinkStats {
        NetLinkStats {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            deduped,
            ..Default::default()
        }
    }
}

/// How one producer's frame stream ended in [`ingest`].
pub(crate) enum Ingested {
    /// The producer sent `End`; its local writer is closed.
    End,
    /// `Close`, or EOF at a frame boundary, before `End`.
    Closed,
    /// A respawned producer reset the ring (shm only).
    Reset,
    /// Reading failed: a dead connection, a truncated frame, a silence
    /// deadline, bytes that do not decode. Whether that fails the link
    /// is the transport's call (a supervised TCP slot parks instead).
    Broken(FilterError),
}

/// The per-producer ingress loop shared by both transports: feed
/// producer `p`'s `Data` into its feeder until the stream ends. `Data` or
/// `End` naming another producer, a sequence gap, and any frame other
/// than `Data`/`End`/`Close` are protocol errors. `fed` runs after every
/// `Data` frame with the feeder's new watermark.
pub(crate) fn ingest<P: BytePipe>(
    pipe: &mut P,
    p: usize,
    feeder: &mut IngressFeeder,
    counts: &IngressCounts,
    fed: impl Fn(&P, u64),
) -> FilterResult<Ingested> {
    let wrong_producer = |pipe: &P, what: &str, from: u32| {
        FilterError::malformed(
            pipe.who(),
            format!("{what} from producer {from} on producer {p}'s link"),
        )
    };
    loop {
        let frame = match pipe.read_incoming() {
            Ok(Incoming::Frame(f)) => f,
            Ok(Incoming::Eof) => return Ok(Ingested::Closed),
            Ok(Incoming::Reset) => return Ok(Ingested::Reset),
            Err(e) => return Ok(Ingested::Broken(e)),
        };
        match frame {
            Frame::Data { from, seq, payload } => {
                if from as usize != p {
                    return Err(wrong_producer(pipe, "Data", from));
                }
                let n = payload.len() as u64;
                if feeder.feed(seq, Buffer::from_vec(payload))? {
                    counts.frames.fetch_add(1, Ordering::Relaxed);
                    counts.bytes.fetch_add(n, Ordering::Relaxed);
                    if let Some(probe) = &counts.probe {
                        probe.count_frame(n);
                    }
                } else if let Some(probe) = &counts.probe {
                    probe.deduped.fetch_add(1, Ordering::Relaxed);
                }
                fed(pipe, feeder.resume_seq());
            }
            Frame::End { from } => {
                if from as usize != p {
                    return Err(wrong_producer(pipe, "End", from));
                }
                feeder.end();
                return Ok(Ingested::End);
            }
            Frame::Close => return Ok(Ingested::Closed),
            f => {
                return Err(FilterError::malformed(
                    pipe.who(),
                    format!("unexpected frame mid-stream: {f:?}"),
                ))
            }
        }
    }
}

/// The consumer endpoint of a worker's upstream link: a bound TCP
/// listener (cross-host, or the same-host fallback) or pre-created shm
/// rings (the same-host fast path).
#[derive(Debug)]
pub enum Ingress {
    Tcp(TcpListener),
    Shm(ShmIngress),
}

impl Ingress {
    /// Bridge every upstream producer onto the local `writers` (writer `p`
    /// plays producer copy `p`, keeping the in-process round-robin
    /// routing), over whichever transport this endpoint holds.
    pub fn serve(
        self,
        link: u32,
        writers: Vec<StreamWriter>,
        opts: &LinkOptions,
    ) -> FilterResult<NetLinkStats> {
        match self {
            Ingress::Tcp(listener) => serve_ingress(listener, link, writers, opts),
            Ingress::Shm(rings) => rings.serve(link, writers, opts),
        }
    }
}

/// Drain one local 1→1 stream (the one behind producer copy `producer`)
/// into link `link` at `addr`: the ring at `<base>.<producer>` for a
/// `shm:<base>` address, a TCP connection otherwise. Each transmitted
/// packet is acknowledged on the local stream, so the producer side's
/// replay buffers stay bounded and a restarted filter copy replays only
/// untransmitted packets.
///
/// Packets below the consumer's resume watermark (a respawned producer
/// rejoining a surviving consumer) are suppressed at the source. They
/// are already delivered, so they count toward no stat: `deduped` counts
/// only duplicates the ingress watermark discards.
pub fn egress_pump(
    reader: StreamReader,
    addr: &str,
    link: u32,
    producer: u32,
    opts: &LinkOptions,
) -> FilterResult<NetLinkStats> {
    if let Some(base) = addr.strip_prefix(SHM_PREFIX) {
        let (tx, resume) = crate::shm::open_egress(base, link, producer, opts)?;
        return pump(reader, &Mutex::new(tx), producer, resume, opts);
    }
    let (conn, resume) = open_egress(addr, link, producer, opts)?;
    let conn = Arc::new(Mutex::new(conn));
    let beat = opts
        .tuning
        .heartbeat
        .map(|every| Heartbeat::spawn(Arc::clone(&conn), every));
    let pumped = pump(reader, &*conn, producer, resume, opts);
    drop(beat);
    plock(&conn).shutdown_write();
    pumped
}

/// The egress loop over an open, handshaken pipe. The pipe sits behind a
/// mutex so a TCP heartbeat thread can share it at frame granularity.
fn pump<P: BytePipe>(
    mut reader: StreamReader,
    pipe: &Mutex<P>,
    producer: u32,
    resume: u64,
    opts: &LinkOptions,
) -> FilterResult<NetLinkStats> {
    let mut stats = NetLinkStats::default();
    let mut seq = 0u64;
    while let Some(buf) = reader.read() {
        if seq >= resume {
            plock(pipe).write_data(producer, seq, buf.as_slice())?;
            let n = buf.len() as u64;
            stats.frames += 1;
            stats.bytes += n;
            if let Some(probe) = &opts.probe {
                probe.count_frame(n);
            }
        }
        seq += 1;
        reader.commit_acks();
    }
    let mut pipe = plock(pipe);
    if opts.cancelled() {
        return Err(FilterError::cancelled(
            pipe.who(),
            "run cancelled during transmit",
        ));
    }
    pipe.write_frame(&Frame::End { from: producer })?;
    pipe.write_frame(&Frame::Close)?;
    Ok(stats)
}
