//! The `fork-served` daemon core: one shared [`ReaderPool`] + frame cache,
//! thread-per-connection TCP serving, and real operational behavior.
//!
//! ## Who answers and who writes
//!
//! Each connection has a reader thread and a writer thread. They share the
//! socket's write half under one lock, held across each whole frame write,
//! so their frames never interleave.
//!
//! - The **reader** answers a request itself when the connection has no
//!   admitted work in flight: a point lookup (`BlockByHash`, `TxByHash`,
//!   `BlockByNumber`) runs through [`QueryExecutor::run_lookup`] on the
//!   reader thread, and a control request (ping, stats, meta, metrics, the
//!   obs requests, shutdown) or a rejection is built there. The reader
//!   writes the reply with one `write_frame_with`.
//! - **Workers** run queries, `Headers` and `TipHistory`, plus any lookup
//!   that arrives while the connection has admitted work in flight; the
//!   **writer** thread writes their replies, and any control reply or
//!   rejection made while that work is in flight.
//!
//! "No admitted work in flight" means the per-connection counter was 0 at
//! admission. Since an admitted reply releases its slot only after its
//! write, the reader never waits on the lock behind a large response, and a
//! pipelined lookup never overtakes an earlier query's reply.
//!
//! ## Backpressure and admission control
//!
//! Two counters bound every queue in the server:
//!
//! - **Per-connection in-flight cap** ([`ServeConfig::per_conn_inflight`]):
//!   a connection may have at most this many admitted-but-unwritten
//!   requests. The counter is decremented only when the *response hits the
//!   socket* (by the writer, or by the reader for a reply it wrote), so a
//!   slow reader cannot grow its response queue past the cap — excess
//!   requests get a typed `Backpressure` error instead of unbounded
//!   buffering.
//! - **Global in-flight cap** ([`ServeConfig::global_inflight`]): bounds
//!   queued-plus-executing requests across all connections. Past it, new
//!   ones are refused with a typed `Overloaded` error *without being
//!   executed* — load sheds at admission, not by stalling.
//!
//! Inline point lookups are admitted like any other request. Control
//! requests bypass admission, so they stay responsive under flood.
//!
//! ## Timeouts, idle reaping, shutdown
//!
//! Connection sockets run with a short read timeout so reader threads tick:
//! each tick checks the shutdown flag and the idle clock (a connection with
//! no traffic and no in-flight work for [`ServeConfig::idle_timeout`] is
//! reaped; a peer stalled mid-frame is cut off as a dead sender). Writes
//! carry [`ServeConfig::write_timeout`]; a client that stops draining
//! responses is disconnected rather than blocking the reader or the writer
//! forever. A zero timeout cannot be armed, so [`Server::start`] refuses
//! it, and a connection whose socket options cannot be set is closed, not
//! served. Each response leaves as one buffer in one write with
//! `TCP_NODELAY` set, so a small reply never waits in the kernel for the
//! client's delayed ACK.
//!
//! Graceful shutdown (the wire `Shutdown` request, or
//! [`ServerHandle::shutdown`]) stops accepting, lets every admitted query
//! finish, flushes its response, then joins all threads — in-flight work
//! drains, new work is refused.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fork_query::{
    take_thread_cache_delta, FrameCache, Lookup, Projection, Query, QueryError, QueryExecutor,
    ReaderPool, DEFAULT_CACHE_BYTES, DEFAULT_CACHE_SHARDS,
};
use fork_replay::Side;
use fork_telemetry::{
    prometheus_text, Counter, Gauge, Histogram, MetricsRegistry, SeriesRing, TimingMode,
};

use crate::wire::{
    decode_request, encode_response_into, write_frame_with, ErrorKind, FrameError, FrameReader,
    RequestBody, Response, ResponseBody, ServeMeta, SlowQueryRecord, StageBreakdown, WireError,
};

/// How often blocked reads wake to check idle/shutdown state.
const READ_TICK: Duration = Duration::from_millis(50);
/// Extra writer-queue slots beyond the in-flight cap, for control replies
/// and rejections made while the connection has admitted work in flight.
const CONTROL_SLACK: usize = 64;
/// A connection's reader and writer each reuse one frame buffer across
/// responses; past this capacity it is released after the write, so one
/// multi-MiB scan does not stay pinned for the life of every connection
/// that ever served one.
const FRAME_BUF_RETAIN: usize = 256 * 1024;

/// Stage labels; `serve.stage.<label>` histograms (µs) are registered for
/// each, plus `serve.stage.total` for the traced end-to-end latency.
pub const STAGES: [&str; 5] = ["read", "admit", "queue", "execute", "write"];

/// Endpoint labels, one per projection and lookup shape;
/// `serve.latency.<label>` histograms are registered for each at startup.
pub const ENDPOINTS: [&str; 11] = [
    "blocks",
    "txs",
    "interarrival",
    "difficulty",
    "tx_ratio",
    "echoes",
    "block_by_hash",
    "tx_by_hash",
    "block_by_number",
    "tip_history",
    "headers",
];

/// The `serve.latency.*` histogram index for a projection.
pub fn endpoint_index(projection: &Projection) -> usize {
    match projection {
        Projection::Blocks => 0,
        Projection::Txs => 1,
        Projection::InterArrival => 2,
        Projection::Difficulty => 3,
        Projection::TxRatioPerDay => 4,
        Projection::Echoes { .. } => 5,
    }
}

/// The `serve.latency.*` histogram index for a lookup.
pub fn lookup_endpoint_index(lookup: &Lookup) -> usize {
    match lookup {
        Lookup::BlockByHash { .. } => 6,
        Lookup::TxByHash { .. } => 7,
        Lookup::BlockByNumber { .. } => 8,
        Lookup::TipHistory => 9,
        Lookup::Headers { .. } => 10,
    }
}

/// Daemon configuration. `ServeConfig::new(dir)` gives production-shaped
/// defaults; tests shrink the caps to force the admission paths.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Archive directory to serve.
    pub archive_dir: PathBuf,
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Query worker threads (0 = one per available core, clamped to 2..=16).
    pub workers: usize,
    /// Max admitted-but-unwritten queries per connection.
    pub per_conn_inflight: usize,
    /// Max queued-plus-executing queries across all connections.
    pub global_inflight: usize,
    /// Frame cache budget in bytes.
    pub cache_bytes: u64,
    /// Frame cache shard count.
    pub cache_shards: usize,
    /// Reap connections idle (no traffic, nothing in flight) this long.
    pub idle_timeout: Duration,
    /// Max time one response write may take before the client is dropped.
    pub write_timeout: Duration,
    /// Per-request stage tracing (stage histograms + slow-query log). On by
    /// default; the traced numbers must never change query results, only
    /// observe them.
    pub tracing: bool,
    /// Slow-query log capacity: the N worst-latency requests retained.
    pub slow_log: usize,
    /// Time-series ring capacity (samples retained; one per
    /// [`ServeConfig::sample_interval`] — 600 ≈ ten minutes at 1 s).
    pub series_capacity: usize,
    /// How often the accept loop samples gauges into the series ring.
    pub sample_interval: Duration,
}

impl ServeConfig {
    /// Defaults for serving `archive_dir` on an ephemeral local port.
    pub fn new(archive_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            archive_dir: archive_dir.into(),
            addr: "127.0.0.1:0".into(),
            workers: 0,
            per_conn_inflight: 64,
            global_inflight: 1024,
            cache_bytes: DEFAULT_CACHE_BYTES,
            cache_shards: DEFAULT_CACHE_SHARDS,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            tracing: true,
            slow_log: 32,
            series_capacity: 600,
            sample_interval: Duration::from_secs(1),
        }
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers.min(64);
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 16)
    }
}

/// Failure starting the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept setup).
    Io(io::Error),
    /// The archive would not open.
    Archive(String),
    /// A [`ServeConfig`] value the daemon cannot honour.
    InvalidConfig(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o: {e}"),
            ServeError::Archive(e) => write!(f, "archive: {e}"),
            ServeError::InvalidConfig(e) => write!(f, "invalid config: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

// --- job queue -------------------------------------------------------------

/// A closable FIFO the worker pool drains. `std::sync::mpsc` serializes
/// consumers behind one receiver lock, so this is a plain
/// `Mutex<VecDeque>` + condvar: push never blocks (admission control
/// already bounds depth), pop blocks until work or close-and-empty.
struct JobQueue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut inner = self.inner.lock().expect("job queue");
        inner.0.push_back(job);
        drop(inner);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("job queue");
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            inner = self.ready.wait(inner).expect("job queue");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("job queue").1 = true;
        self.ready.notify_all();
    }
}

/// What the writer thread sends. `Query` responses decrement the
/// connection's in-flight counter once written and finish their trace (when
/// tracing is on).
enum WriterMsg {
    Control(Response),
    Query(Response, Option<Box<WriteTrace>>),
}

/// One admitted unit of work: a full query or a lookup.
enum Work {
    Query(Query),
    Lookup(Lookup),
}

impl Work {
    /// Hash and number lookups: an index probe and a frame read, cheap
    /// enough to answer on the reader thread.
    fn is_point_lookup(&self) -> bool {
        matches!(
            self,
            Work::Lookup(
                Lookup::BlockByHash { .. } | Lookup::TxByHash { .. } | Lookup::BlockByNumber { .. }
            )
        )
    }
}

/// Trace state carried with an admitted job (tracing on): the stage
/// boundaries passed so far. Each boundary is one `Instant` that ends one
/// stage and starts the next, so the stages tile the request's lifetime.
struct JobTrace {
    /// First frame byte arrived: the read stage starts.
    t0: Instant,
    /// Daemon-lifetime request sequence number.
    seq: u64,
    /// The read stage ends and admission starts.
    read_end: Instant,
    /// Admission ends and the queue wait starts; `None` for an inline
    /// lookup, which never waits in the queue: its admission ends when
    /// execution starts.
    queued_at: Option<Instant>,
}

/// Trace state handed from execution to the write: every stage boundary
/// up to the end of execution (the write stage, response-queue wait +
/// encode + socket write, runs from there).
struct WriteTrace {
    t0: Instant,
    seq: u64,
    id: u64,
    endpoint: usize,
    read_end: Instant,
    admit_end: Instant,
    started: Instant,
    finished: Instant,
    cache_hits: u64,
    cache_misses: u64,
}

/// Whole microseconds from `from` to `to`, floored: stages floored this
/// way never sum past the floored total they tile.
fn micros_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

struct Job {
    id: u64,
    work: Work,
    reply: SyncSender<WriterMsg>,
    conn: Arc<ConnShared>,
    trace: Option<JobTrace>,
}

/// Bounded keep-the-worst slow-query log. `offer` is O(capacity) — called
/// once per served request against a small (default 32) ring.
struct SlowLog {
    cap: usize,
    entries: Vec<SlowQueryRecord>,
}

impl SlowLog {
    fn new(cap: usize) -> Self {
        SlowLog {
            cap,
            entries: Vec::with_capacity(cap.min(1024)),
        }
    }

    fn offer(&mut self, rec: SlowQueryRecord) {
        if self.cap == 0 {
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.push(rec);
            return;
        }
        if let Some((idx, floor)) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.total_us)
            .map(|(i, r)| (i, r.total_us))
        {
            if rec.total_us > floor {
                self.entries[idx] = rec;
            }
        }
    }

    /// Worst request first; ties break on the daemon's own sequence number
    /// so the snapshot order is deterministic.
    fn snapshot(&self) -> Vec<SlowQueryRecord> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.seq.cmp(&b.seq)));
        out
    }
}

/// What a connection's reader and writer threads share.
struct ConnShared {
    /// Admitted requests whose responses have not yet hit the socket.
    inflight: AtomicUsize,
    /// The socket's write half, locked across each whole frame write so the
    /// two threads' frames never interleave; `None` once a write failed.
    out: Mutex<Option<TcpStream>>,
}

impl ConnShared {
    /// Writes one response through `frame` (the calling thread's reusable
    /// buffer), releases its connection slot if it was `admitted`, and
    /// finishes its trace. A failed write (slow or dead client) cuts the
    /// socket so the reader unblocks, and every later write on this
    /// connection is skipped. Returns whether the response was written.
    fn write(
        &self,
        state: &State,
        frame: &mut Vec<u8>,
        resp: &Response,
        trace: Option<&WriteTrace>,
        admitted: bool,
    ) -> bool {
        let mut out = self.out.lock().expect("connection write half");
        let written = out.as_mut().is_some_and(|stream| {
            write_frame_with(stream, frame, |buf| encode_response_into(buf, resp)).is_ok()
        });
        if !written {
            if let Some(stream) = out.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        drop(out);
        if admitted {
            // Released as soon as the bytes are out: the client may already
            // be sending its next request, which should find the slot free.
            self.inflight.fetch_sub(1, Ordering::SeqCst);
        }
        if frame.capacity() > FRAME_BUF_RETAIN {
            *frame = Vec::new();
        }
        // Only written responses are traced: a dead connection has no
        // meaningful end-to-end latency.
        if let Some(trace) = trace.filter(|_| written) {
            state.finish_trace(trace);
        }
        written
    }
}

struct State {
    pool: ReaderPool,
    exec: QueryExecutor,
    registry: MetricsRegistry,
    meta: ServeMeta,
    shutdown: AtomicBool,
    global_inflight: AtomicUsize,
    cfg: ServeConfig,
    latency: Vec<Arc<Histogram>>,
    /// One histogram per [`STAGES`] entry, plus `serve.stage.total` last.
    stage: Vec<Arc<Histogram>>,
    queries: Arc<Counter>,
    /// Admitted requests answered on the reader thread.
    inline: Arc<Counter>,
    overloaded: Arc<Counter>,
    backpressure: Arc<Counter>,
    control: Arc<Counter>,
    connections: Arc<Gauge>,
    /// Daemon-lifetime request sequence (traced requests only).
    request_seq: AtomicU64,
    slow: Mutex<SlowLog>,
    series: Mutex<SeriesRing>,
}

impl State {
    fn stats_json(&self) -> String {
        self.registry.snapshot().to_json(TimingMode::Wall)
    }

    /// Finishes one traced request after its write: the write stage is
    /// response-queue wait + encode + socket write, total is first byte in
    /// → last byte out. Both end at the same instant.
    fn finish_trace(&self, t: &WriteTrace) {
        let written = Instant::now();
        let total_us = micros_between(t.t0, written);
        let stages = StageBreakdown {
            read_us: micros_between(t.t0, t.read_end),
            admit_us: micros_between(t.read_end, t.admit_end),
            queue_us: micros_between(t.admit_end, t.started),
            execute_us: micros_between(t.started, t.finished),
            write_us: micros_between(t.finished, written),
            cache_hits: t.cache_hits,
            cache_misses: t.cache_misses,
        };
        for (h, v) in self.stage.iter().zip([
            stages.read_us,
            stages.admit_us,
            stages.queue_us,
            stages.execute_us,
            stages.write_us,
            total_us,
        ]) {
            h.record(v);
        }
        self.slow.lock().expect("slow log").offer(SlowQueryRecord {
            id: t.id,
            seq: t.seq,
            endpoint: ENDPOINTS[t.endpoint].to_string(),
            total_us,
            stages,
        });
    }
}

/// Derives the wire [`ServeMeta`] an archive advertises: record totals plus
/// overall block-number and timestamp ranges folded across both sides'
/// segment scans.
pub fn archive_meta(pool: &ReaderPool) -> ServeMeta {
    let reader = pool.reader();
    let (blocks, txs) = reader.totals();
    let mut block_range: Option<(u64, u64)> = None;
    let mut time_range: Option<(u64, u64)> = None;
    for side in [Side::Eth, Side::Etc] {
        for (_, scan) in reader.segments(side) {
            for (acc, seen) in [
                (&mut block_range, scan.block_range),
                (&mut time_range, scan.time_range),
            ] {
                if let Some((lo, hi)) = seen {
                    *acc = Some(match *acc {
                        None => (lo, hi),
                        Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                    });
                }
            }
        }
    }
    ServeMeta {
        blocks,
        txs,
        block_range,
        time_range,
        format_version: fork_archive::archive_format_version(reader),
        checksum: u32::from_le_bytes(fork_archive::archive_fingerprint(reader)),
    }
}

/// A running daemon. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] (or send the wire `Shutdown` request and
/// [`ServerHandle::wait`]).
pub struct Server;

/// Join/inspect handle for a running [`Server`].
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    queue: Arc<JobQueue>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens the archive, binds the listener, and spawns the accept loop
    /// plus the query worker pool.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        if cfg.write_timeout.is_zero() {
            // `set_write_timeout(Some(0))` is an error, and a writer with no
            // timeout blocks on a stalled client forever.
            return Err(ServeError::InvalidConfig(
                "write_timeout must be non-zero".into(),
            ));
        }
        let cache = FrameCache::new(cfg.cache_bytes, cfg.cache_shards);
        let registry = MetricsRegistry::new();
        let cache = cache.with_telemetry(&registry);
        let reader = fork_archive::ArchiveReader::open(&cfg.archive_dir)
            .map_err(|e| ServeError::Archive(e.to_string()))?;
        let pool = ReaderPool::new(reader, cache);
        let workers = cfg.effective_workers();
        let exec = QueryExecutor::new(workers).with_telemetry(&registry);
        let meta = archive_meta(&pool);

        let latency = ENDPOINTS
            .iter()
            .map(|ep| registry.histogram(&format!("serve.latency.{ep}")))
            .collect();
        let stage = STAGES
            .iter()
            .copied()
            .chain(["total"])
            .map(|s| registry.histogram(&format!("serve.stage.{s}")))
            .collect();
        let state = Arc::new(State {
            meta,
            exec,
            pool,
            latency,
            stage,
            queries: registry.counter("serve.queries"),
            inline: registry.counter("serve.inline"),
            overloaded: registry.counter("serve.rejected.overloaded"),
            backpressure: registry.counter("serve.rejected.backpressure"),
            control: registry.counter("serve.control"),
            connections: registry.gauge("serve.connections"),
            registry,
            shutdown: AtomicBool::new(false),
            global_inflight: AtomicUsize::new(0),
            request_seq: AtomicU64::new(0),
            slow: Mutex::new(SlowLog::new(cfg.slow_log)),
            series: Mutex::new(SeriesRing::new(cfg.series_capacity.max(1))),
            cfg,
        });

        let listener = TcpListener::bind(&state.cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let queue = Arc::new(JobQueue::new());
        let worker_handles = (0..workers)
            .map(|i| {
                let (state, queue) = (Arc::clone(&state), Arc::clone(&queue));
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&state, &queue))
                    .expect("spawn worker")
            })
            .collect();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (state, queue, conns) =
                (Arc::clone(&state), Arc::clone(&queue), Arc::clone(&conns));
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &state, &queue, &conns))
                .expect("spawn accept loop")
        };

        Ok(ServerHandle {
            addr,
            state,
            queue,
            accept: Some(accept),
            conns,
            workers: worker_handles,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Archive shape served by this daemon.
    pub fn meta(&self) -> ServeMeta {
        self.state.meta
    }

    /// The daemon's metrics registry (latency histograms, admission
    /// counters, connection gauge).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.state.registry
    }

    /// Requests shutdown and drains: stops accepting, finishes every
    /// admitted query, flushes responses, joins all threads.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.wait();
    }

    /// Blocks until the daemon shuts down (e.g. a wire `Shutdown` request),
    /// then drains and joins exactly like [`ServerHandle::shutdown`].
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Accept loop only exits on the shutdown flag; make local waits
        // (which reach here via `shutdown`) and remote ones equivalent.
        self.state.shutdown.store(true, Ordering::SeqCst);
        loop {
            let handle = self.conns.lock().expect("conn registry").pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // All producers are gone; let the workers drain what remains.
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Samples daemon gauges into the series ring on the accept loop's cadence
/// (the loop ticks every ~10 ms while idle, so a 1 s interval holds).
/// Shed rate, cache hit rate and inline share are *windowed*: deltas since
/// the previous sample, not lifetime totals — the series shows what is
/// happening now.
struct Sampler {
    last: Instant,
    prev_shed: u64,
    prev_hits: u64,
    prev_misses: u64,
    prev_queries: u64,
    prev_inline: u64,
}

impl Sampler {
    fn new(state: &State) -> Self {
        let (prev_hits, prev_misses) = state.pool.cache().counters();
        Sampler {
            last: Instant::now(),
            prev_shed: shed_total(state),
            prev_hits,
            prev_misses,
            prev_queries: state.queries.get(),
            prev_inline: state.inline.get(),
        }
    }

    fn maybe_sample(&mut self, state: &State) {
        let elapsed = self.last.elapsed();
        if elapsed < state.cfg.sample_interval {
            return;
        }
        self.last = Instant::now();
        let secs = elapsed.as_secs_f64().max(1e-9);

        let mut values = BTreeMap::new();
        values.insert("connections".to_string(), state.connections.get() as f64);
        values.insert(
            "inflight".to_string(),
            state.global_inflight.load(Ordering::SeqCst) as f64,
        );
        let shed = shed_total(state);
        values.insert(
            "shed_per_sec".to_string(),
            (shed - self.prev_shed) as f64 / secs,
        );
        self.prev_shed = shed;
        let (hits, misses) = state.pool.cache().counters();
        let (dh, dm) = (hits - self.prev_hits, misses - self.prev_misses);
        (self.prev_hits, self.prev_misses) = (hits, misses);
        let hit_rate = if dh + dm == 0 {
            0.0
        } else {
            dh as f64 / (dh + dm) as f64
        };
        values.insert("cache_hit_rate".to_string(), hit_rate);
        // A request counts in `serve.queries` before `serve.inline`.
        let inline = state.inline.get();
        let queries = state.queries.get();
        let (dq, di) = (queries - self.prev_queries, inline - self.prev_inline);
        (self.prev_queries, self.prev_inline) = (queries, inline);
        let inline_share = if dq == 0 { 0.0 } else { di as f64 / dq as f64 };
        values.insert("inline_share".to_string(), inline_share);
        for (i, ep) in ENDPOINTS.iter().enumerate() {
            let snap = state.latency[i].snapshot();
            if snap.count > 0 {
                values.insert(format!("p50_us.{ep}"), snap.p50() as f64);
                values.insert(format!("p99_us.{ep}"), snap.p99() as f64);
            }
        }
        state.series.lock().expect("series ring").push(values);
    }
}

fn shed_total(state: &State) -> u64 {
    state.overloaded.get() + state.backpressure.get()
}

fn accept_loop(
    listener: TcpListener,
    state: &Arc<State>,
    queue: &Arc<JobQueue>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut sampler = Sampler::new(state);
    while !state.shutdown.load(Ordering::SeqCst) {
        sampler.maybe_sample(state);
        match listener.accept() {
            Ok((stream, _)) => {
                let (state, queue) = (Arc::clone(state), Arc::clone(queue));
                let handle = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || conn_loop(stream, &state, &queue));
                match handle {
                    Ok(h) => conns.lock().expect("conn registry").push(h),
                    Err(_) => std::thread::sleep(READ_TICK), // thread exhaustion: back off
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(READ_TICK),
        }
    }
}

fn worker_loop(state: &State, queue: &JobQueue) {
    while let Some(job) = queue.pop() {
        let (resp, trace) = execute(state, job.id, &job.work, job.trace);
        if job.reply.send(WriterMsg::Query(resp, trace)).is_err() {
            // Writer is gone (dead connection); release its in-flight slot.
            job.conn.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Runs one admitted unit of work on the calling thread (a worker, or the
/// reader for an inline point lookup), releases its global slot, and turns
/// the result or error into the response plus the trace its write finishes.
fn execute(
    state: &State,
    id: u64,
    work: &Work,
    trace: Option<JobTrace>,
) -> (Response, Option<Box<WriteTrace>>) {
    if trace.is_some() {
        // Evaluation runs on this thread; drain the thread-local cache
        // delta so the post-run take attributes exactly this request.
        let _ = take_thread_cache_delta();
    }
    let started = Instant::now();
    let (endpoint, result) = match work {
        Work::Query(query) => (
            endpoint_index(&query.projection),
            state.exec.run(&state.pool, query).map(ResponseBody::Output),
        ),
        Work::Lookup(lookup) => (
            lookup_endpoint_index(lookup),
            state
                .exec
                .run_lookup(&state.pool, lookup)
                .map(ResponseBody::Lookup),
        ),
    };
    let finished = Instant::now();
    let trace = trace.map(|t| {
        let (cache_hits, cache_misses) = take_thread_cache_delta();
        Box::new(WriteTrace {
            t0: t.t0,
            seq: t.seq,
            id,
            endpoint,
            read_end: t.read_end,
            admit_end: t.queued_at.unwrap_or(started),
            started,
            finished,
            cache_hits,
            cache_misses,
        })
    });
    state.latency[endpoint].record(micros_between(started, finished));
    state.global_inflight.fetch_sub(1, Ordering::SeqCst);
    let body = match result {
        Ok(body) => body,
        Err(QueryError::Unsupported { detail }) => ResponseBody::Error(WireError {
            kind: ErrorKind::Unsupported,
            detail,
        }),
        Err(err) => ResponseBody::Error(WireError {
            kind: ErrorKind::Archive,
            detail: err.to_string(),
        }),
    };
    (Response { id, body }, trace)
}

/// Writes, in arrival order, what the workers and the reader queue for one
/// connection.
fn writer_loop(rx: Receiver<WriterMsg>, conn: Arc<ConnShared>, state: Arc<State>) {
    let mut frame = Vec::new();
    for msg in rx {
        let (resp, trace, admitted) = match msg {
            WriterMsg::Control(resp) => (resp, None, false),
            WriterMsg::Query(resp, trace) => (resp, trace, true),
        };
        conn.write(&state, &mut frame, &resp, trace.as_deref(), admitted);
    }
}

fn conn_loop(stream: TcpStream, state: &Arc<State>, queue: &JobQueue) {
    // Socket options are per socket, not per handle: set before the clone,
    // they hold for the write half too. Without `TCP_NODELAY` a response
    // can sit in the kernel waiting for the client's delayed ACK (~40 ms);
    // without the write timeout a stalled client blocks a write forever.
    if stream.set_read_timeout(Some(READ_TICK)).is_err()
        || stream.set_nodelay(true).is_err()
        || stream
            .set_write_timeout(Some(state.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };

    let conn = Arc::new(ConnShared {
        inflight: AtomicUsize::new(0),
        out: Mutex::new(Some(write_half)),
    });
    let (tx, rx) = sync_channel::<WriterMsg>(state.cfg.per_conn_inflight + CONTROL_SLACK);
    let writer = {
        let conn = Arc::clone(&conn);
        let state = Arc::clone(state);
        std::thread::Builder::new()
            .name("serve-writer".into())
            .spawn(move || writer_loop(rx, conn, state))
    };
    let writer = match writer {
        Ok(w) => w,
        Err(_) => return,
    };

    state.connections.add(1);
    let mut reader = Reader {
        stream,
        state,
        queue,
        conn: &conn,
        tx,
        frame: Vec::new(),
    };
    reader.serve();
    state.connections.add(-1);

    // Dropping our sender lets the writer drain: it exits once the jobs
    // still holding clones (in-flight queries) finish and are flushed.
    drop(reader);
    let _ = writer.join();
}

/// A connection's reader thread: decodes requests, answers point lookups
/// and control requests itself while nothing admitted is in flight, and
/// queues everything else for the workers and the writer.
struct Reader<'a> {
    /// The socket's read half.
    stream: TcpStream,
    state: &'a State,
    queue: &'a JobQueue,
    conn: &'a Arc<ConnShared>,
    tx: SyncSender<WriterMsg>,
    /// Frame buffer for the replies the reader writes itself.
    frame: Vec<u8>,
}

impl Reader<'_> {
    /// Serves requests until the peer goes away, the connection idles out, a
    /// reply cannot be delivered, or the daemon shuts down.
    fn serve(&mut self) {
        let state = self.state;
        let mut frames = FrameReader::new();
        let mut last_activity = Instant::now();
        while !state.shutdown.load(Ordering::SeqCst) {
            let payload = match frames.poll_frame(&mut self.stream, state.cfg.idle_timeout) {
                Ok(Some(payload)) => payload,
                Ok(None) => {
                    let idle =
                        self.conn.inflight.load(Ordering::SeqCst) == 0 && !frames.mid_frame();
                    if idle && last_activity.elapsed() >= state.cfg.idle_timeout {
                        return; // idle reap
                    }
                    continue;
                }
                Err(FrameError::Oversized(len)) => {
                    self.reply(bad_request(format!("frame length {len} exceeds cap")));
                    return; // stream position is unrecoverable
                }
                Err(_) => return, // closed / corrupt / io: transport death
            };
            last_activity = Instant::now();
            // Start of the read stage: when this frame's first byte arrived.
            let t0 = frames.last_frame_started().unwrap_or(last_activity);

            let delivered = match decode_request(&payload) {
                // Framing was intact, so the stream stays in sync; reject
                // just this request and keep serving.
                Err(err) => self.reply(bad_request(err.to_string())),
                Ok(req) => match control_reply(state, req.body) {
                    Ok(body) => {
                        state.control.incr();
                        self.reply(Response { id: req.id, body })
                    }
                    Err(work) => self.submit(req.id, work, t0),
                },
            };
            if !delivered {
                return;
            }
        }
    }

    /// Admits one query or lookup. A point lookup on a connection with
    /// nothing else admitted in flight runs and is written right here;
    /// anything else goes to the worker queue and the writer thread.
    fn submit(&mut self, id: u64, work: Work, t0: Instant) -> bool {
        let state = self.state;
        let read_end = Instant::now();
        let earlier = match admit(state, self.conn) {
            Ok(earlier) => earlier,
            Err(rejection) => {
                let body = ResponseBody::Error(rejection);
                return self.reply(Response { id, body });
            }
        };
        state.queries.incr();
        let inline = earlier == 0 && work.is_point_lookup();
        let trace = job_trace(state, t0, read_end, !inline);
        if !inline {
            self.queue.push(Job {
                id,
                work,
                reply: self.tx.clone(),
                conn: Arc::clone(self.conn),
                trace,
            });
            return true;
        }
        state.inline.incr();
        let (resp, trace) = execute(state, id, &work, trace);
        self.conn
            .write(state, &mut self.frame, &resp, trace.as_deref(), true)
    }

    /// Sends a reply that holds no admission slot (a control reply or a
    /// rejection): written here when nothing admitted is in flight, else
    /// queued behind the writer. A full queue means the client ignored
    /// `CONTROL_SLACK` such replies in a row, so the connection is cut.
    fn reply(&mut self, resp: Response) -> bool {
        if self.conn.inflight.load(Ordering::SeqCst) == 0 {
            return self
                .conn
                .write(self.state, &mut self.frame, &resp, None, false);
        }
        if self.tx.try_send(WriterMsg::Control(resp)).is_ok() {
            return true;
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        false
    }
}

/// A `BadRequest` rejection of a frame whose request id is unknown.
fn bad_request(detail: String) -> Response {
    Response {
        id: 0,
        body: ResponseBody::Error(WireError {
            kind: ErrorKind::BadRequest,
            detail,
        }),
    }
}

/// The reply to a control request, built on the reader thread. Queries and
/// lookups are admitted work, handed back as `Err`. `Shutdown` flips the
/// daemon's flag; the reader stops once the acknowledgement is sent.
fn control_reply(state: &State, body: RequestBody) -> Result<ResponseBody, Work> {
    Ok(match body {
        RequestBody::Query(query) => return Err(Work::Query(query)),
        RequestBody::Lookup(lookup) => return Err(Work::Lookup(lookup)),
        RequestBody::Ping => ResponseBody::Pong,
        RequestBody::Stats => ResponseBody::Stats(state.stats_json()),
        RequestBody::Meta => ResponseBody::Meta(state.meta),
        RequestBody::ObsSeries => {
            ResponseBody::ObsSeries(state.series.lock().expect("series ring").clone())
        }
        RequestBody::ObsSlowLog => {
            ResponseBody::ObsSlowLog(state.slow.lock().expect("slow log").snapshot())
        }
        RequestBody::Metrics => ResponseBody::Metrics(prometheus_text(&state.registry.snapshot())),
        RequestBody::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            ResponseBody::ShutdownAck
        }
    })
}

/// Builds the trace an admitted job carries (`None` with tracing off);
/// `queued` ends its admission here and starts its queue-wait clock.
fn job_trace(state: &State, t0: Instant, read_end: Instant, queued: bool) -> Option<JobTrace> {
    if !state.cfg.tracing {
        return None;
    }
    Some(JobTrace {
        t0,
        seq: state.request_seq.fetch_add(1, Ordering::Relaxed),
        read_end,
        queued_at: queued.then(Instant::now),
    })
}

/// Runs admission control for one request. `Ok` admits (both counters
/// incremented) and carries how many requests the connection already had
/// admitted in flight; `Err` is the typed rejection.
fn admit(state: &State, conn: &ConnShared) -> Result<usize, WireError> {
    let reject = |kind: ErrorKind, detail: String| Err(WireError { kind, detail });
    if state.shutdown.load(Ordering::SeqCst) {
        return reject(ErrorKind::ShuttingDown, "daemon is draining".into());
    }
    let per_conn = conn.inflight.fetch_add(1, Ordering::SeqCst);
    if per_conn >= state.cfg.per_conn_inflight {
        conn.inflight.fetch_sub(1, Ordering::SeqCst);
        state.backpressure.incr();
        return reject(
            ErrorKind::Backpressure,
            format!(
                "connection already has {per_conn} queries in flight (cap {})",
                state.cfg.per_conn_inflight
            ),
        );
    }
    let global = state.global_inflight.fetch_add(1, Ordering::SeqCst);
    if global >= state.cfg.global_inflight {
        state.global_inflight.fetch_sub(1, Ordering::SeqCst);
        conn.inflight.fetch_sub(1, Ordering::SeqCst);
        state.overloaded.incr();
        return reject(
            ErrorKind::Overloaded,
            format!(
                "server has {global} queries in flight (cap {})",
                state.cfg.global_inflight
            ),
        );
    }
    Ok(per_conn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_write_timeout_is_rejected_before_anything_is_opened() {
        // The archive directory does not exist: the config check must come
        // first, so the error names the config, not the archive.
        let mut cfg = ServeConfig::new("/nonexistent/fork-serve-zero-write-timeout");
        cfg.write_timeout = Duration::ZERO;
        match Server::start(cfg) {
            Err(ServeError::InvalidConfig(detail)) => assert!(detail.contains("write_timeout")),
            Err(other) => panic!("expected InvalidConfig, got {other}"),
            Ok(_) => panic!("a zero write_timeout must not start a daemon"),
        }
    }

    #[test]
    fn floored_stages_never_sum_past_the_total() {
        // Five contiguous stages with sub-microsecond remainders: each
        // floors down, so their sum can fall short of the total but never
        // pass it.
        let t0 = Instant::now();
        let mut bounds = vec![t0];
        for ns in [1_999u64, 999, 1_001, 2_500_999, 999] {
            let last = *bounds.last().unwrap();
            bounds.push(last + Duration::from_nanos(ns));
        }
        let sum: u64 = bounds.windows(2).map(|w| micros_between(w[0], w[1])).sum();
        let total = micros_between(t0, *bounds.last().unwrap());
        assert_eq!((sum, total), (2_502, 2_505));
        // A boundary read out of order saturates to zero, never panics.
        assert_eq!(micros_between(bounds[2], bounds[1]), 0);
    }
}
