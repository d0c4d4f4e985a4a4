//! The fork-serve wire protocol: compact length-prefixed frames, sealed
//! with the sim's own transport integrity.
//!
//! Every message on the socket is one frame:
//!
//! ```text
//! [u32 LE sealed length][4-byte truncated-keccak checksum][payload ...]
//!                        `---------- seal_frame ---------------------'
//! ```
//!
//! The checksum is [`fork_net::frame_checksum`], verified by
//! [`fork_net::open_frame`] — the same machinery that protects gossip frames
//! in the simulator — so a corrupted frame dies at the transport with
//! [`FrameError::Corrupt`] instead of decoding into a wrong-but-plausible
//! message. A frame is laid out in **one buffer** ([`append_frame_with`])
//! and leaves in **one write** ([`write_frame_with`]): a length prefix written
//! on its own is a tiny segment that Nagle's algorithm and the peer's delayed
//! ACK turn into a fixed ~40 ms stall per response. A declared length above
//! [`MAX_FRAME_LEN`] is rejected *before* any allocation
//! ([`FrameError::Oversized`]): a hostile or desynced peer cannot make the
//! server buffer unbounded bytes.
//!
//! Payloads are fixed-layout little-endian (tag bytes + LE integers +
//! length-prefixed strings); block/tx records reuse the archive's own
//! `ArchiveRecord` codec so the storage and wire layers cannot drift apart.
//! Decoding is total: any input either yields a typed message or a typed
//! [`DecodeError`] — never a panic, never trailing-garbage acceptance.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use fork_analytics::{BlockRecord, TimeSeries, TxRecord};
use fork_archive::format::CHECKSUM_LEN;
use fork_archive::ArchiveRecord;
use fork_net::{frame_checksum, open_frame};
use fork_primitives::H256;
use fork_query::{
    FoundRecord, HeaderChain, Lookup, LookupOutput, Projection, Query, QueryOutput, QueryRange,
    ReorgEvent, SealedHeader, SideTip, TipHistoryOutput,
};
use fork_replay::Side;
use fork_telemetry::{HistogramSnapshot, SeriesRing, SeriesSample, BUCKETS};

/// Hard cap on one sealed frame. Full-archive block scans at paper scale
/// are a few MiB; 64 MiB leaves headroom while bounding what one peer can
/// make the other side buffer.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// A request as carried on the wire: a client-chosen correlation id plus
/// the request body. Responses echo the id; with pipelining they may come
/// back in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// What is being asked.
    pub body: RequestBody,
}

/// The request variants the daemon understands.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Evaluate a [`Query`] against the served archive.
    Query(Query),
    /// Evaluate a point [`Lookup`] (hash/number lookups, tip history,
    /// header chains) against the served archive.
    Lookup(Lookup),
    /// Return a JSON telemetry snapshot (the `/stats`-style control call).
    Stats,
    /// Return archive shape metadata (totals plus block-number/timestamp
    /// ranges) so load generators can build workloads without disk access.
    Meta,
    /// Liveness no-op.
    Ping,
    /// Ask the daemon to shut down gracefully (drain, then exit).
    Shutdown,
    /// Return the daemon's sampled time-series ring (see
    /// [`fork_telemetry::SeriesRing`]).
    ObsSeries,
    /// Return the slow-query log: the worst-latency requests the daemon has
    /// served, each with its per-stage waterfall.
    ObsSlowLog,
    /// Return the current registry snapshot rendered in the Prometheus text
    /// exposition format (see [`fork_telemetry::prometheus_text`]).
    Metrics,
}

/// Typed error classes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The global in-flight admission cap is reached; retry later.
    Overloaded,
    /// This connection's own in-flight cap is reached (per-client
    /// backpressure); drain responses before sending more.
    Backpressure,
    /// The daemon is draining and takes no new queries.
    ShuttingDown,
    /// The query shape is invalid ([`fork_query::QueryError::Unsupported`]).
    Unsupported,
    /// The archive failed underneath the query.
    Archive,
    /// The request frame decoded but made no sense.
    BadRequest,
}

impl ErrorKind {
    /// Stable lowercase label (used in logs and load reports).
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Backpressure => "backpressure",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Archive => "archive",
            ErrorKind::BadRequest => "bad_request",
        }
    }
}

/// A typed server-side error response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

/// Archive shape metadata returned by [`RequestBody::Meta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeMeta {
    /// Total block records across both sides.
    pub blocks: u64,
    /// Total transaction records across both sides.
    pub txs: u64,
    /// Min/max block number across both sides, if any blocks exist.
    pub block_range: Option<(u64, u64)>,
    /// Min/max record timestamp across both sides, if known.
    pub time_range: Option<(u64, u64)>,
    /// Archive format version needed to read the served archive (see
    /// `fork_archive::archive_format_version`).
    pub format_version: u16,
    /// Archive content checksum — `fork_archive::archive_fingerprint` as a
    /// little-endian `u32`. Changes whenever segment bytes change.
    pub checksum: u32,
}

/// Per-stage timing of one served request, in microseconds, plus the cache
/// traffic its evaluation caused. The stages partition the request's life:
/// frame read/decode → admission → queue wait → execute → encode/write, so
/// [`StageBreakdown::stage_sum_us`] approximates the end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageBreakdown {
    /// First frame byte seen → request decoded.
    pub read_us: u64,
    /// Admission control (cap checks) around enqueueing.
    pub admit_us: u64,
    /// Sat in the job queue waiting for a worker.
    pub queue_us: u64,
    /// Query/lookup evaluation on the worker thread.
    pub execute_us: u64,
    /// Waiting for the writer plus response encode and socket write.
    pub write_us: u64,
    /// Frame-cache hits attributed to this request's evaluation.
    pub cache_hits: u64,
    /// Frame-cache misses attributed to this request's evaluation.
    pub cache_misses: u64,
}

impl StageBreakdown {
    /// Sum of the five stage durations (µs) — the traced account of the
    /// request's end-to-end latency.
    pub fn stage_sum_us(&self) -> u64 {
        self.read_us + self.admit_us + self.queue_us + self.execute_us + self.write_us
    }
}

/// One entry of the slow-query log: a served request's identity and its
/// full stage waterfall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// The client's wire correlation id.
    pub id: u64,
    /// The daemon's own monotonic request sequence number (unique per
    /// daemon lifetime, unlike client-chosen ids).
    pub seq: u64,
    /// Endpoint label (one of the `serve.latency.*` endpoint names).
    pub endpoint: String,
    /// Measured end-to-end latency (first frame byte → response written).
    pub total_us: u64,
    /// Where that time went.
    pub stages: StageBreakdown,
}

/// A response as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Correlation id copied from the request (0 when the request id could
    /// not be decoded).
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// The response variants.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // short-lived, one per answered request
pub enum ResponseBody {
    /// Successful query evaluation.
    Output(QueryOutput),
    /// Successful lookup evaluation.
    Lookup(LookupOutput),
    /// JSON telemetry snapshot (see [`fork_telemetry::Snapshot::to_json`]).
    Stats(String),
    /// Archive shape metadata.
    Meta(ServeMeta),
    /// Liveness reply.
    Pong,
    /// Shutdown acknowledged; the daemon drains and exits.
    ShutdownAck,
    /// A typed failure.
    Error(WireError),
    /// The sampled time-series ring.
    ObsSeries(SeriesRing),
    /// The slow-query log, worst request first.
    ObsSlowLog(Vec<SlowQueryRecord>),
    /// Prometheus text exposition of the registry snapshot.
    Metrics(String),
}

/// Transport-level failure while reading a frame off a socket.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(io::Error),
    /// The checksum did not open: bytes were corrupted or the stream
    /// desynced. The connection is unrecoverable.
    Corrupt,
    /// Declared length exceeds [`MAX_FRAME_LEN`]; rejected pre-allocation.
    Oversized(u32),
    /// Clean end-of-stream.
    Closed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::Corrupt => write!(f, "frame checksum failed"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Structured failure while decoding a frame payload into a typed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the message did.
    Truncated,
    /// An unknown discriminant byte.
    UnknownTag(u8),
    /// Structurally invalid content (bad record payload, trailing bytes…).
    Malformed(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            DecodeError::Malformed(d) => write!(f, "malformed payload: {d}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// --- framing ---------------------------------------------------------------

/// Bytes in front of every payload: the `u32` length prefix plus the checksum.
const FRAME_HEADER_LEN: usize = 4 + fork_net::CHECKSUM_LEN;

/// Appends one complete frame to `out`, letting `encode` write the payload
/// straight into `out` behind a reserved header that is patched once the
/// payload's length and checksum are known — no intermediate payload or
/// sealed buffer. Bytes already in `out` are left alone.
pub fn append_frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    encode(out);
    let payload_at = start + FRAME_HEADER_LEN;
    let sealed_len = out.len() - start - 4;
    debug_assert!(sealed_len <= MAX_FRAME_LEN as usize);
    let checksum = frame_checksum(&out[payload_at..]);
    out[start..start + 4].copy_from_slice(&(sealed_len as u32).to_le_bytes());
    out[start + 4..payload_at].copy_from_slice(&checksum);
}

/// Appends `payload` to `out` as one complete frame: length prefix, checksum
/// and payload, contiguous.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    append_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Encodes one frame into `buf` (replacing its contents, keeping its
/// capacity for the next call) and sends it in a single `write_all` — the
/// one place a frame meets a socket (see the module docs for why never two
/// writes).
pub fn write_frame_with<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    buf.clear();
    append_frame_with(buf, encode);
    w.write_all(buf)?;
    w.flush()
}

/// Seals `payload` and writes it as one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    write_frame_with(w, &mut frame, |out| out.extend_from_slice(payload))
}

/// Reads one frame, blocking until it fully arrives (client side; the
/// server uses [`FrameReader`] so read-timeout ticks don't tear frames).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Closed),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut sealed = vec![0u8; len as usize];
    r.read_exact(&mut sealed).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Closed
        } else {
            FrameError::Io(e)
        }
    })?;
    if open_frame(&sealed).is_none() {
        return Err(FrameError::Corrupt);
    }
    // The buffer is ours: strip the checksum in place instead of copying
    // the payload out into a second allocation.
    sealed.drain(..fork_net::CHECKSUM_LEN);
    Ok(sealed)
}

/// Incremental frame reader for sockets with a read timeout: partial bytes
/// accumulate across timeout ticks instead of desyncing the stream, so the
/// server can poll for idleness/shutdown without tearing frames.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    stalled_since: Option<Instant>,
    /// When the first byte of the frame currently accumulating arrived.
    started: Option<Instant>,
    /// When the first byte of the most recently extracted frame arrived.
    last_started: Option<Instant>,
}

impl FrameReader {
    /// Fresh reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when a frame has started arriving but is not complete yet.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// When the first byte of the most recently extracted frame arrived —
    /// the start-of-request instant for stage tracing. `None` until
    /// [`poll_frame`](Self::poll_frame) has returned a frame.
    pub fn last_frame_started(&self) -> Option<Instant> {
        self.last_started
    }

    /// Pulls the next complete frame. `Ok(None)` means the read timed out
    /// with no progress (an idle tick for the caller to act on); a peer
    /// stalled mid-frame longer than `stall_limit` reads as [`FrameError::Closed`].
    pub fn poll_frame<R: Read>(
        &mut self,
        r: &mut R,
        stall_limit: Duration,
    ) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            if let Some(frame) = self.try_extract()? {
                self.stalled_since = None;
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 16 * 1024];
            match r.read(&mut chunk) {
                Ok(0) => return Err(FrameError::Closed),
                Ok(n) => {
                    self.stalled_since = None;
                    if self.buf.is_empty() {
                        self.started = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.mid_frame() {
                        let since = *self.stalled_since.get_or_insert_with(Instant::now);
                        if since.elapsed() > stall_limit {
                            return Err(FrameError::Closed);
                        }
                    }
                    return Ok(None);
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    fn try_extract(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized(len));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = match open_frame(&self.buf[4..total]) {
            Some(p) => p.to_vec(),
            None => return Err(FrameError::Corrupt),
        };
        self.buf.drain(..total);
        // This frame started when its first byte arrived; a pipelined
        // follow-up frame already sitting in the buffer starts "now" (its
        // bytes arrived in the same read, and extraction is immediate).
        self.last_started = self.started.take();
        if !self.buf.is_empty() {
            self.started = Some(Instant::now());
        }
        Ok(Some(payload))
    }
}

// --- payload cursor --------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| DecodeError::Malformed("non-utf8 string".into()))
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, raw: &[u8]) {
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    out.extend_from_slice(raw);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

// --- request codec ---------------------------------------------------------

const REQ_QUERY: u8 = 0;
const REQ_STATS: u8 = 1;
const REQ_META: u8 = 2;
const REQ_PING: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_LOOKUP: u8 = 5;
const REQ_OBS_SERIES: u8 = 6;
const REQ_OBS_SLOWLOG: u8 = 7;
const REQ_METRICS: u8 = 8;

fn side_tag(side: Option<Side>) -> u8 {
    match side {
        None => 0,
        Some(Side::Eth) => 1,
        Some(Side::Etc) => 2,
    }
}

fn side_from(tag: u8) -> Result<Option<Side>, DecodeError> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(Side::Eth)),
        2 => Ok(Some(Side::Etc)),
        t => Err(DecodeError::UnknownTag(t)),
    }
}

fn encode_query(out: &mut Vec<u8>, q: &Query) {
    out.push(side_tag(q.side));
    match q.range {
        QueryRange::All => out.push(0),
        QueryRange::Blocks { first, last } => {
            out.push(1);
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&last.to_le_bytes());
        }
        QueryRange::Time { start, end } => {
            out.push(2);
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&end.to_le_bytes());
        }
    }
    match q.projection {
        Projection::Blocks => out.push(0),
        Projection::Txs => out.push(1),
        Projection::InterArrival => out.push(2),
        Projection::Difficulty => out.push(3),
        Projection::TxRatioPerDay => out.push(4),
        Projection::Echoes { window_days } => {
            out.push(5);
            out.extend_from_slice(&window_days.to_le_bytes());
        }
    }
}

fn decode_query(c: &mut Cursor<'_>) -> Result<Query, DecodeError> {
    let side = side_from(c.u8()?)?;
    let range = match c.u8()? {
        0 => QueryRange::All,
        1 => QueryRange::Blocks {
            first: c.u64()?,
            last: c.u64()?,
        },
        2 => QueryRange::Time {
            start: c.u64()?,
            end: c.u64()?,
        },
        t => return Err(DecodeError::UnknownTag(t)),
    };
    let projection = match c.u8()? {
        0 => Projection::Blocks,
        1 => Projection::Txs,
        2 => Projection::InterArrival,
        3 => Projection::Difficulty,
        4 => Projection::TxRatioPerDay,
        5 => Projection::Echoes {
            window_days: c.u64()?,
        },
        t => return Err(DecodeError::UnknownTag(t)),
    };
    Ok(Query {
        side,
        range,
        projection,
    })
}

/// Decodes a side byte that must name a concrete side (the "both sides"
/// tag 0 is invalid here).
fn one_side(c: &mut Cursor<'_>) -> Result<Side, DecodeError> {
    side_from(c.u8()?)?.ok_or(DecodeError::UnknownTag(0))
}

const LOOKUP_BLOCK_BY_HASH: u8 = 0;
const LOOKUP_TX_BY_HASH: u8 = 1;
const LOOKUP_BLOCK_BY_NUMBER: u8 = 2;
const LOOKUP_TIP_HISTORY: u8 = 3;
const LOOKUP_HEADERS: u8 = 4;

fn encode_lookup(out: &mut Vec<u8>, l: &Lookup) {
    match *l {
        Lookup::BlockByHash { hash } => {
            out.push(LOOKUP_BLOCK_BY_HASH);
            out.extend_from_slice(&hash.0);
        }
        Lookup::TxByHash { hash } => {
            out.push(LOOKUP_TX_BY_HASH);
            out.extend_from_slice(&hash.0);
        }
        Lookup::BlockByNumber { side, number } => {
            out.push(LOOKUP_BLOCK_BY_NUMBER);
            out.push(side_tag(Some(side)));
            out.extend_from_slice(&number.to_le_bytes());
        }
        Lookup::TipHistory => out.push(LOOKUP_TIP_HISTORY),
        Lookup::Headers { side, first, last } => {
            out.push(LOOKUP_HEADERS);
            out.push(side_tag(Some(side)));
            out.extend_from_slice(&first.to_le_bytes());
            out.extend_from_slice(&last.to_le_bytes());
        }
    }
}

fn decode_hash(c: &mut Cursor<'_>) -> Result<H256, DecodeError> {
    let raw = c.take(32)?;
    let mut hash = [0u8; 32];
    hash.copy_from_slice(raw);
    Ok(H256(hash))
}

fn decode_lookup(c: &mut Cursor<'_>) -> Result<Lookup, DecodeError> {
    Ok(match c.u8()? {
        LOOKUP_BLOCK_BY_HASH => Lookup::BlockByHash {
            hash: decode_hash(c)?,
        },
        LOOKUP_TX_BY_HASH => Lookup::TxByHash {
            hash: decode_hash(c)?,
        },
        LOOKUP_BLOCK_BY_NUMBER => Lookup::BlockByNumber {
            side: one_side(c)?,
            number: c.u64()?,
        },
        LOOKUP_TIP_HISTORY => Lookup::TipHistory,
        LOOKUP_HEADERS => Lookup::Headers {
            side: one_side(c)?,
            first: c.u64()?,
            last: c.u64()?,
        },
        t => return Err(DecodeError::UnknownTag(t)),
    })
}

/// Serializes a request into a frame payload (pre-seal).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_request_into(&mut out, req);
    out
}

/// Appends the payload [`encode_request`] returns to `out` (pair with
/// [`write_frame_with`] to encode straight into a frame buffer).
pub fn encode_request_into(out: &mut Vec<u8>, req: &Request) {
    out.extend_from_slice(&req.id.to_le_bytes());
    match &req.body {
        RequestBody::Query(q) => {
            out.push(REQ_QUERY);
            encode_query(out, q);
        }
        RequestBody::Lookup(l) => {
            out.push(REQ_LOOKUP);
            encode_lookup(out, l);
        }
        RequestBody::Stats => out.push(REQ_STATS),
        RequestBody::Meta => out.push(REQ_META),
        RequestBody::Ping => out.push(REQ_PING),
        RequestBody::Shutdown => out.push(REQ_SHUTDOWN),
        RequestBody::ObsSeries => out.push(REQ_OBS_SERIES),
        RequestBody::ObsSlowLog => out.push(REQ_OBS_SLOWLOG),
        RequestBody::Metrics => out.push(REQ_METRICS),
    }
}

/// Parses a frame payload as a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let body = match c.u8()? {
        REQ_QUERY => RequestBody::Query(decode_query(&mut c)?),
        REQ_LOOKUP => RequestBody::Lookup(decode_lookup(&mut c)?),
        REQ_STATS => RequestBody::Stats,
        REQ_META => RequestBody::Meta,
        REQ_PING => RequestBody::Ping,
        REQ_SHUTDOWN => RequestBody::Shutdown,
        REQ_OBS_SERIES => RequestBody::ObsSeries,
        REQ_OBS_SLOWLOG => RequestBody::ObsSlowLog,
        REQ_METRICS => RequestBody::Metrics,
        t => return Err(DecodeError::UnknownTag(t)),
    };
    c.finish()?;
    Ok(Request { id, body })
}

// --- response codec --------------------------------------------------------

const RESP_OUTPUT: u8 = 0;
const RESP_STATS: u8 = 1;
const RESP_META: u8 = 2;
const RESP_PONG: u8 = 3;
const RESP_SHUTDOWN_ACK: u8 = 4;
const RESP_ERROR: u8 = 5;
const RESP_LOOKUP: u8 = 6;
const RESP_OBS_SERIES: u8 = 7;
const RESP_OBS_SLOWLOG: u8 = 8;
const RESP_METRICS: u8 = 9;

const OUT_BLOCKS: u8 = 0;
const OUT_TXS: u8 = 1;
const OUT_HISTOGRAM: u8 = 2;
const OUT_SERIES: u8 = 3;

fn err_kind_tag(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::Overloaded => 0,
        ErrorKind::Backpressure => 1,
        ErrorKind::ShuttingDown => 2,
        ErrorKind::Unsupported => 3,
        ErrorKind::Archive => 4,
        ErrorKind::BadRequest => 5,
    }
}

fn err_kind_from(tag: u8) -> Result<ErrorKind, DecodeError> {
    Ok(match tag {
        0 => ErrorKind::Overloaded,
        1 => ErrorKind::Backpressure,
        2 => ErrorKind::ShuttingDown,
        3 => ErrorKind::Unsupported,
        4 => ErrorKind::Archive,
        5 => ErrorKind::BadRequest,
        t => return Err(DecodeError::UnknownTag(t)),
    })
}

fn encode_block(out: &mut Vec<u8>, b: &BlockRecord) {
    out.push(side_tag(Some(b.network)));
    put_bytes(out, &ArchiveRecord::Block(b.clone()).encode_payload(0));
}

fn encode_tx(out: &mut Vec<u8>, t: &TxRecord) {
    out.push(side_tag(Some(t.network)));
    put_bytes(out, &ArchiveRecord::Tx(t.clone()).encode_payload(0));
}

fn decode_record(c: &mut Cursor<'_>) -> Result<ArchiveRecord, DecodeError> {
    let side = side_from(c.u8()?)?.ok_or(DecodeError::UnknownTag(0))?;
    let payload = c.bytes()?;
    let (_seq, rec) =
        ArchiveRecord::decode_payload(side, payload).map_err(DecodeError::Malformed)?;
    Ok(rec)
}

fn encode_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    out.extend_from_slice(&h.count.to_le_bytes());
    out.extend_from_slice(&h.sum.to_le_bytes());
    out.extend_from_slice(&h.min.to_le_bytes());
    out.extend_from_slice(&h.max.to_le_bytes());
    let nonzero = h.buckets.iter().filter(|&&n| n > 0).count() as u32;
    out.extend_from_slice(&nonzero.to_le_bytes());
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            out.push(i as u8);
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

fn decode_histogram(c: &mut Cursor<'_>) -> Result<HistogramSnapshot, DecodeError> {
    let mut h = HistogramSnapshot {
        count: c.u64()?,
        sum: c.u64()?,
        min: c.u64()?,
        max: c.u64()?,
        ..HistogramSnapshot::default()
    };
    let pairs = c.u32()?;
    if pairs as usize > BUCKETS {
        return Err(DecodeError::Malformed(format!(
            "{pairs} bucket pairs > {BUCKETS}"
        )));
    }
    for _ in 0..pairs {
        let idx = c.u8()? as usize;
        if idx >= BUCKETS {
            return Err(DecodeError::Malformed(format!("bucket index {idx}")));
        }
        h.buckets[idx] = c.u64()?;
    }
    Ok(h)
}

fn encode_series(out: &mut Vec<u8>, s: &TimeSeries) {
    put_str(out, &s.label);
    out.extend_from_slice(&(s.points.len() as u32).to_le_bytes());
    for &(t, v) in &s.points {
        out.extend_from_slice(&t.to_le_bytes());
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn decode_series(c: &mut Cursor<'_>) -> Result<TimeSeries, DecodeError> {
    let label = c.string()?;
    let n = c.u32()?;
    let mut points = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        let t = c.u64()?;
        let v = f64::from_bits(c.u64()?);
        points.push((t, v));
    }
    Ok(TimeSeries { label, points })
}

fn encode_output(out: &mut Vec<u8>, o: &QueryOutput) {
    match o {
        QueryOutput::Blocks(blocks) => {
            out.push(OUT_BLOCKS);
            out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
            for b in blocks {
                encode_block(out, b);
            }
        }
        QueryOutput::Txs(txs) => {
            out.push(OUT_TXS);
            out.extend_from_slice(&(txs.len() as u32).to_le_bytes());
            for t in txs {
                encode_tx(out, t);
            }
        }
        QueryOutput::Histogram(h) => {
            out.push(OUT_HISTOGRAM);
            encode_histogram(out, h);
        }
        QueryOutput::Series(s) => {
            out.push(OUT_SERIES);
            encode_series(out, s);
        }
    }
}

fn decode_output(c: &mut Cursor<'_>) -> Result<QueryOutput, DecodeError> {
    match c.u8()? {
        OUT_BLOCKS => {
            let n = c.u32()?;
            let mut blocks = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                match decode_record(c)? {
                    ArchiveRecord::Block(b) => blocks.push(b),
                    ArchiveRecord::Tx(_) => {
                        return Err(DecodeError::Malformed("tx record in Blocks output".into()))
                    }
                }
            }
            Ok(QueryOutput::Blocks(blocks))
        }
        OUT_TXS => {
            let n = c.u32()?;
            let mut txs = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                match decode_record(c)? {
                    ArchiveRecord::Tx(t) => txs.push(t),
                    ArchiveRecord::Block(_) => {
                        return Err(DecodeError::Malformed("block record in Txs output".into()))
                    }
                }
            }
            Ok(QueryOutput::Txs(txs))
        }
        OUT_HISTOGRAM => Ok(QueryOutput::Histogram(Box::new(decode_histogram(c)?))),
        OUT_SERIES => Ok(QueryOutput::Series(decode_series(c)?)),
        t => Err(DecodeError::UnknownTag(t)),
    }
}

// --- lookup output codec ---------------------------------------------------

const LOOKUP_OUT_NONE: u8 = 0;
const LOOKUP_OUT_FOUND: u8 = 1;
const LOOKUP_OUT_TIPS: u8 = 2;
const LOOKUP_OUT_HEADERS: u8 = 3;

/// Encodes a record with its real seq stamped into the payload, so the
/// decoder can cross-check the framing seq against the archive codec's.
fn encode_seq_record(out: &mut Vec<u8>, seq: u64, side: Side, record: &ArchiveRecord) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(side_tag(Some(side)));
    put_bytes(out, &record.encode_payload(seq));
}

fn decode_seq_record(c: &mut Cursor<'_>) -> Result<(u64, Side, ArchiveRecord), DecodeError> {
    let seq = c.u64()?;
    let side = one_side(c)?;
    let payload = c.bytes()?;
    let (payload_seq, record) =
        ArchiveRecord::decode_payload(side, payload).map_err(DecodeError::Malformed)?;
    if payload_seq != seq {
        return Err(DecodeError::Malformed(format!(
            "payload seq {payload_seq} != framed seq {seq}"
        )));
    }
    Ok((seq, side, record))
}

fn encode_side_tip(out: &mut Vec<u8>, t: &SideTip) {
    out.push(side_tag(Some(t.side)));
    match (&t.tip, t.tip_seq) {
        (Some(b), Some(seq)) => {
            out.push(1);
            encode_seq_record(out, seq, t.side, &ArchiveRecord::Block(b.clone()));
        }
        _ => out.push(0),
    }
    out.extend_from_slice(&t.blocks.to_le_bytes());
    out.extend_from_slice(&t.reorgs.to_le_bytes());
}

fn decode_side_tip(c: &mut Cursor<'_>) -> Result<SideTip, DecodeError> {
    let side = one_side(c)?;
    let (tip, tip_seq) = match c.u8()? {
        0 => (None, None),
        1 => match decode_seq_record(c)? {
            (seq, s, ArchiveRecord::Block(b)) if s == side => (Some(b), Some(seq)),
            (_, s, ArchiveRecord::Block(_)) => {
                return Err(DecodeError::Malformed(format!(
                    "tip side {s:?} != {side:?}"
                )))
            }
            _ => return Err(DecodeError::Malformed("tip record is not a block".into())),
        },
        t => return Err(DecodeError::UnknownTag(t)),
    };
    Ok(SideTip {
        side,
        tip,
        tip_seq,
        blocks: c.u64()?,
        reorgs: c.u64()?,
    })
}

fn encode_lookup_output(out: &mut Vec<u8>, o: &LookupOutput) {
    match o {
        LookupOutput::Found(None) => out.push(LOOKUP_OUT_NONE),
        LookupOutput::Found(Some(f)) => {
            out.push(LOOKUP_OUT_FOUND);
            encode_seq_record(out, f.seq, f.side, &f.record);
        }
        LookupOutput::Tips(t) => {
            out.push(LOOKUP_OUT_TIPS);
            encode_side_tip(out, &t.eth);
            encode_side_tip(out, &t.etc);
            out.extend_from_slice(&(t.reorgs.len() as u32).to_le_bytes());
            for ev in &t.reorgs {
                out.push(side_tag(Some(ev.side)));
                out.extend_from_slice(&ev.seq.to_le_bytes());
                out.extend_from_slice(&ev.number.to_le_bytes());
                out.extend_from_slice(&ev.depth.to_le_bytes());
                out.extend_from_slice(&ev.timestamp.to_le_bytes());
            }
        }
        LookupOutput::Headers(chain) => {
            out.push(LOOKUP_OUT_HEADERS);
            out.push(side_tag(Some(chain.side)));
            out.extend_from_slice(&chain.first.to_le_bytes());
            out.extend_from_slice(&chain.last.to_le_bytes());
            out.extend_from_slice(&(chain.headers.len() as u32).to_le_bytes());
            for h in &chain.headers {
                out.extend_from_slice(&h.seq.to_le_bytes());
                put_bytes(out, &h.payload);
                out.extend_from_slice(&h.checksum);
            }
        }
    }
}

fn decode_lookup_output(c: &mut Cursor<'_>) -> Result<LookupOutput, DecodeError> {
    match c.u8()? {
        LOOKUP_OUT_NONE => Ok(LookupOutput::Found(None)),
        LOOKUP_OUT_FOUND => {
            let (seq, side, record) = decode_seq_record(c)?;
            Ok(LookupOutput::Found(Some(FoundRecord { seq, side, record })))
        }
        LOOKUP_OUT_TIPS => {
            let eth = decode_side_tip(c)?;
            let etc = decode_side_tip(c)?;
            let n = c.u32()?;
            let mut reorgs = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                reorgs.push(ReorgEvent {
                    side: one_side(c)?,
                    seq: c.u64()?,
                    number: c.u64()?,
                    depth: c.u64()?,
                    timestamp: c.u64()?,
                });
            }
            Ok(LookupOutput::Tips(TipHistoryOutput { eth, etc, reorgs }))
        }
        LOOKUP_OUT_HEADERS => {
            let side = one_side(c)?;
            let first = c.u64()?;
            let last = c.u64()?;
            let n = c.u32()?;
            let mut headers = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                let seq = c.u64()?;
                let payload = c.bytes()?.to_vec();
                let mut checksum = [0u8; CHECKSUM_LEN];
                checksum.copy_from_slice(c.take(CHECKSUM_LEN)?);
                headers.push(SealedHeader {
                    seq,
                    payload,
                    checksum,
                });
            }
            Ok(LookupOutput::Headers(HeaderChain {
                side,
                first,
                last,
                headers,
            }))
        }
        t => Err(DecodeError::UnknownTag(t)),
    }
}

// --- obs codec -------------------------------------------------------------

fn encode_series_ring(out: &mut Vec<u8>, ring: &SeriesRing) {
    out.extend_from_slice(&(ring.capacity() as u32).to_le_bytes());
    out.extend_from_slice(&ring.next_tick().to_le_bytes());
    out.extend_from_slice(&(ring.len() as u32).to_le_bytes());
    for sample in ring.samples() {
        out.extend_from_slice(&sample.tick.to_le_bytes());
        out.extend_from_slice(&(sample.values.len() as u32).to_le_bytes());
        for (name, &v) in &sample.values {
            put_str(out, name);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

fn decode_series_ring(c: &mut Cursor<'_>) -> Result<SeriesRing, DecodeError> {
    let capacity = c.u32()? as usize;
    let next_tick = c.u64()?;
    let n = c.u32()?;
    let mut samples = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        let tick = c.u64()?;
        let m = c.u32()?;
        let mut values = std::collections::BTreeMap::new();
        for _ in 0..m {
            let name = c.string()?;
            let v = f64::from_bits(c.u64()?);
            if values.insert(name, v).is_some() {
                return Err(DecodeError::Malformed("duplicate series name".into()));
            }
        }
        samples.push(SeriesSample { tick, values });
    }
    SeriesRing::from_parts(capacity, next_tick, samples).map_err(DecodeError::Malformed)
}

fn encode_slow_log(out: &mut Vec<u8>, log: &[SlowQueryRecord]) {
    out.extend_from_slice(&(log.len() as u32).to_le_bytes());
    for r in log {
        out.extend_from_slice(&r.id.to_le_bytes());
        out.extend_from_slice(&r.seq.to_le_bytes());
        put_str(out, &r.endpoint);
        out.extend_from_slice(&r.total_us.to_le_bytes());
        for v in [
            r.stages.read_us,
            r.stages.admit_us,
            r.stages.queue_us,
            r.stages.execute_us,
            r.stages.write_us,
            r.stages.cache_hits,
            r.stages.cache_misses,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn decode_slow_log(c: &mut Cursor<'_>) -> Result<Vec<SlowQueryRecord>, DecodeError> {
    let n = c.u32()?;
    let mut log = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        log.push(SlowQueryRecord {
            id: c.u64()?,
            seq: c.u64()?,
            endpoint: c.string()?,
            total_us: c.u64()?,
            stages: StageBreakdown {
                read_us: c.u64()?,
                admit_us: c.u64()?,
                queue_us: c.u64()?,
                execute_us: c.u64()?,
                write_us: c.u64()?,
                cache_hits: c.u64()?,
                cache_misses: c.u64()?,
            },
        });
    }
    Ok(log)
}

fn encode_meta(out: &mut Vec<u8>, m: &ServeMeta) {
    out.extend_from_slice(&m.blocks.to_le_bytes());
    out.extend_from_slice(&m.txs.to_le_bytes());
    for range in [m.block_range, m.time_range] {
        match range {
            None => out.push(0),
            Some((lo, hi)) => {
                out.push(1);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&m.format_version.to_le_bytes());
    out.extend_from_slice(&m.checksum.to_le_bytes());
}

fn decode_meta(c: &mut Cursor<'_>) -> Result<ServeMeta, DecodeError> {
    let blocks = c.u64()?;
    let txs = c.u64()?;
    let mut ranges = [None, None];
    for slot in &mut ranges {
        *slot = match c.u8()? {
            0 => None,
            1 => Some((c.u64()?, c.u64()?)),
            t => return Err(DecodeError::UnknownTag(t)),
        };
    }
    Ok(ServeMeta {
        blocks,
        txs,
        block_range: ranges[0],
        time_range: ranges[1],
        format_version: c.u16()?,
        checksum: c.u32()?,
    })
}

/// Serializes a response into a frame payload (pre-seal).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_response_into(&mut out, resp);
    out
}

/// Appends the payload [`encode_response`] returns to `out` (pair with
/// [`write_frame_with`] to encode straight into a frame buffer).
pub fn encode_response_into(out: &mut Vec<u8>, resp: &Response) {
    out.extend_from_slice(&resp.id.to_le_bytes());
    match &resp.body {
        ResponseBody::Output(o) => {
            out.push(RESP_OUTPUT);
            encode_output(out, o);
        }
        ResponseBody::Lookup(o) => {
            out.push(RESP_LOOKUP);
            encode_lookup_output(out, o);
        }
        ResponseBody::Stats(json) => {
            out.push(RESP_STATS);
            put_str(out, json);
        }
        ResponseBody::Meta(m) => {
            out.push(RESP_META);
            encode_meta(out, m);
        }
        ResponseBody::Pong => out.push(RESP_PONG),
        ResponseBody::ShutdownAck => out.push(RESP_SHUTDOWN_ACK),
        ResponseBody::Error(e) => {
            out.push(RESP_ERROR);
            out.push(err_kind_tag(e.kind));
            put_str(out, &e.detail);
        }
        ResponseBody::ObsSeries(ring) => {
            out.push(RESP_OBS_SERIES);
            encode_series_ring(out, ring);
        }
        ResponseBody::ObsSlowLog(log) => {
            out.push(RESP_OBS_SLOWLOG);
            encode_slow_log(out, log);
        }
        ResponseBody::Metrics(text) => {
            out.push(RESP_METRICS);
            put_str(out, text);
        }
    }
}

/// Parses a frame payload as a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let body = match c.u8()? {
        RESP_OUTPUT => ResponseBody::Output(decode_output(&mut c)?),
        RESP_LOOKUP => ResponseBody::Lookup(decode_lookup_output(&mut c)?),
        RESP_STATS => ResponseBody::Stats(c.string()?),
        RESP_META => ResponseBody::Meta(decode_meta(&mut c)?),
        RESP_PONG => ResponseBody::Pong,
        RESP_SHUTDOWN_ACK => ResponseBody::ShutdownAck,
        RESP_ERROR => ResponseBody::Error(WireError {
            kind: err_kind_from(c.u8()?)?,
            detail: c.string()?,
        }),
        RESP_OBS_SERIES => ResponseBody::ObsSeries(decode_series_ring(&mut c)?),
        RESP_OBS_SLOWLOG => ResponseBody::ObsSlowLog(decode_slow_log(&mut c)?),
        RESP_METRICS => ResponseBody::Metrics(c.string()?),
        t => return Err(DecodeError::UnknownTag(t)),
    };
    c.finish()?;
    Ok(Response { id, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts everything it is given and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The frame as the two-write `write_frame` put it on the wire.
    fn golden_frame(payload: &[u8]) -> Vec<u8> {
        let sealed = fork_net::seal_frame(payload);
        let mut frame = (sealed.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&sealed);
        frame
    }

    #[test]
    fn a_frame_is_one_write_even_through_a_reused_buffer() {
        let mut w = CountingWriter::default();
        let mut buf = Vec::new();
        let mut expected = Vec::new();
        // Big before small: a reused buffer must not leak the earlier frame.
        for (i, len) in [64 * 1024usize, 1500, 9, 1, 0].into_iter().enumerate() {
            let payload = vec![0xA5; len];
            write_frame_with(&mut w, &mut buf, |out| out.extend_from_slice(&payload)).unwrap();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(
                w.writes,
                2 * (i + 1),
                "a {len}-byte payload took extra writes"
            );
            expected.extend_from_slice(&golden_frame(&payload));
            expected.extend_from_slice(&golden_frame(&payload));
        }
        assert_eq!(w.bytes, expected);
    }

    #[test]
    fn append_frame_matches_the_golden_wire_bytes() {
        let big: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for payload in [&[][..], &[0x7F], &big] {
            let mut alone = Vec::new();
            append_frame(&mut alone, payload);
            assert_eq!(alone, golden_frame(payload));

            let mut written = CountingWriter::default();
            write_frame(&mut written, payload).unwrap();
            assert_eq!(written.bytes, alone);

            // Appending leaves earlier frames in the buffer untouched.
            append_frame(&mut stream, payload);
            expected.extend_from_slice(&alone);
            assert_eq!(stream, expected);
        }
    }

    fn every_response_body() -> Vec<ResponseBody> {
        let block = BlockRecord {
            network: Side::Etc,
            number: 1_920_001,
            hash: H256([7; 32]),
            timestamp: 1_469_020_840,
            difficulty: fork_primitives::U256::from_u64(62_413_376_722_602),
            beneficiary: fork_primitives::Address([3; 20]),
            gas_used: 21_000,
            tx_count: 1,
            ommer_count: 0,
        };
        let mut ring = SeriesRing::new(4);
        ring.push([("connections".to_string(), 3.0)].into_iter().collect());
        vec![
            ResponseBody::Output(QueryOutput::Blocks(vec![block.clone(); 3])),
            ResponseBody::Lookup(LookupOutput::Found(Some(FoundRecord {
                seq: 11,
                side: Side::Etc,
                record: ArchiveRecord::Block(block),
            }))),
            ResponseBody::Stats("{\"schema\": \"fork-telemetry/v1\"}".into()),
            ResponseBody::Meta(ServeMeta {
                blocks: 9,
                txs: 4,
                block_range: Some((1, 9)),
                time_range: None,
                format_version: 2,
                checksum: 0xDEAD_BEEF,
            }),
            ResponseBody::Pong,
            ResponseBody::ShutdownAck,
            ResponseBody::Error(WireError {
                kind: ErrorKind::Overloaded,
                detail: "server has 1024 queries in flight".into(),
            }),
            ResponseBody::ObsSeries(ring),
            ResponseBody::ObsSlowLog(vec![SlowQueryRecord {
                id: 5,
                seq: 6,
                endpoint: "blocks".into(),
                total_us: 700,
                stages: StageBreakdown {
                    read_us: 1,
                    admit_us: 2,
                    queue_us: 3,
                    execute_us: 4,
                    write_us: 5,
                    cache_hits: 6,
                    cache_misses: 7,
                },
            }]),
            ResponseBody::Metrics("# TYPE serve_queries counter\nserve_queries 1\n".into()),
        ]
    }

    #[test]
    fn encoding_into_a_frame_buffer_matches_encode_then_frame() {
        let mut tags = Vec::new();
        for (id, body) in every_response_body().into_iter().enumerate() {
            let resp = Response {
                id: id as u64,
                body,
            };
            let payload = encode_response(&resp);
            let mut into = vec![0xEE; 3];
            encode_response_into(&mut into, &resp);
            assert_eq!(into[..3], [0xEE; 3], "bytes already in the buffer moved");
            assert_eq!(into[3..], payload[..]);
            tags.push(payload[8]);

            let mut frame = Vec::new();
            append_frame_with(&mut frame, |out| encode_response_into(out, &resp));
            assert_eq!(frame, golden_frame(&payload));
            let opened = read_frame(&mut frame.as_slice()).expect("frame opens");
            assert_eq!(decode_response(&opened), Ok(resp));
        }
        tags.sort_unstable();
        let every_tag: Vec<u8> = (RESP_OUTPUT..=RESP_METRICS).collect();
        assert_eq!(tags, every_tag, "a ResponseBody variant is not covered");

        let req = Request {
            id: 77,
            body: RequestBody::Lookup(Lookup::BlockByHash {
                hash: H256([9; 32]),
            }),
        };
        let mut frame = Vec::new();
        append_frame_with(&mut frame, |out| encode_request_into(out, &req));
        assert_eq!(frame, golden_frame(&encode_request(&req)));
    }
}
