//! The `fork-served` daemon core: one shared [`ReaderPool`] + frame cache,
//! thread-per-connection TCP serving, and real operational behavior.
//!
//! ## Backpressure and admission control
//!
//! Two counters bound every queue in the server:
//!
//! - **Per-connection in-flight cap** ([`ServeConfig::per_conn_inflight`]):
//!   a connection may have at most this many admitted-but-unwritten
//!   queries. The counter is decremented only when the *response hits the
//!   socket*, so a slow reader cannot grow its response queue past the cap
//!   — excess requests get a typed `Backpressure` error instead of
//!   unbounded buffering.
//! - **Global in-flight cap** ([`ServeConfig::global_inflight`]): bounds
//!   queued-plus-executing queries across all connections. Past it, new
//!   queries are refused with a typed `Overloaded` error *without being
//!   executed* — load sheds at admission, not by stalling.
//!
//! Control requests (stats/meta/ping) are answered inline on the reader
//! thread and bypass admission; they stay responsive under flood.
//!
//! ## Timeouts, idle reaping, shutdown
//!
//! Connection sockets run with a short read timeout so reader threads tick:
//! each tick checks the shutdown flag and the idle clock (a connection with
//! no traffic and no in-flight work for [`ServeConfig::idle_timeout`] is
//! reaped; a peer stalled mid-frame is cut off as a dead sender). Writes
//! carry [`ServeConfig::write_timeout`]; a client that stops draining
//! responses is disconnected rather than blocking a writer forever. A
//! zero timeout cannot be armed, so [`Server::start`] refuses it, and a
//! connection whose socket options cannot be set is closed, not served.
//! Each response leaves as one buffer in one write with `TCP_NODELAY` set,
//! so a small reply never waits in the kernel for the client's delayed ACK.
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
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
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
/// Extra writer-queue slots beyond the in-flight cap, for inline control
/// replies and backpressure rejections.
const CONTROL_SLACK: usize = 64;
/// A connection's writer reuses one frame buffer across responses; past this
/// capacity it is released after the write, so one multi-MiB scan does not
/// stay pinned for the life of every connection that ever served one.
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

/// One admitted unit of work: a full query or a point lookup.
enum Work {
    Query(Query),
    Lookup(Lookup),
}

/// Trace state carried with an admitted job (tracing on): stage timings
/// accumulated so far plus the instants later stages measure from.
struct JobTrace {
    /// First frame byte arrived.
    t0: Instant,
    /// Daemon-lifetime request sequence number.
    seq: u64,
    read_us: u64,
    admit_us: u64,
    /// When the job entered the queue (queue wait measures from here).
    queued_at: Instant,
}

/// Trace state handed from the worker to the writer: everything known
/// before the write stage, plus when execution finished (write wait + the
/// actual socket write measure from there).
struct WriteTrace {
    t0: Instant,
    seq: u64,
    id: u64,
    endpoint: usize,
    read_us: u64,
    admit_us: u64,
    queue_us: u64,
    execute_us: u64,
    cache_hits: u64,
    cache_misses: u64,
    finished_at: Instant,
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

struct ConnShared {
    /// Admitted queries whose responses have not yet hit the socket.
    inflight: AtomicUsize,
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

    /// Finishes one traced request on the writer thread: the write stage is
    /// response-queue wait + encode + socket write, total is first byte in
    /// → last byte out.
    fn finish_trace(&self, t: &WriteTrace) {
        let write_us = t.finished_at.elapsed().as_micros() as u64;
        let total_us = t.t0.elapsed().as_micros() as u64;
        let stages = StageBreakdown {
            read_us: t.read_us,
            admit_us: t.admit_us,
            queue_us: t.queue_us,
            execute_us: t.execute_us,
            write_us,
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

    /// True once shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
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
/// Shed rate and cache hit rate are *windowed*: deltas since the previous
/// sample, not lifetime totals — the series shows what is happening now.
struct Sampler {
    last: Instant,
    prev_shed: u64,
    prev_hits: u64,
    prev_misses: u64,
}

impl Sampler {
    fn new(state: &State) -> Self {
        let (prev_hits, prev_misses) = state.pool.cache().counters();
        Sampler {
            last: Instant::now(),
            prev_shed: shed_total(state),
            prev_hits,
            prev_misses,
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

fn worker_loop(state: &Arc<State>, queue: &Arc<JobQueue>) {
    while let Some(job) = queue.pop() {
        let queue_us = job
            .trace
            .as_ref()
            .map(|t| t.queued_at.elapsed().as_micros() as u64);
        if job.trace.is_some() {
            // Evaluation runs on this thread; drain the thread-local cache
            // delta so the post-run take attributes exactly this request.
            let _ = take_thread_cache_delta();
        }
        let started = Instant::now();
        let (endpoint, result) = match &job.work {
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
        let micros = started.elapsed().as_micros() as u64;
        let trace = job.trace.map(|t| {
            let (cache_hits, cache_misses) = take_thread_cache_delta();
            Box::new(WriteTrace {
                t0: t.t0,
                seq: t.seq,
                id: job.id,
                endpoint,
                read_us: t.read_us,
                admit_us: t.admit_us,
                queue_us: queue_us.unwrap_or(0),
                execute_us: micros,
                cache_hits,
                cache_misses,
                finished_at: Instant::now(),
            })
        });
        state.latency[endpoint].record(micros);
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
        let resp = Response { id: job.id, body };
        if job.reply.send(WriterMsg::Query(resp, trace)).is_err() {
            // Writer is gone (dead connection); release its in-flight slot.
            job.conn.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn writer_loop(
    mut stream: TcpStream,
    rx: Receiver<WriterMsg>,
    conn: Arc<ConnShared>,
    state: Arc<State>,
) {
    let mut dead = false;
    let mut frame = Vec::new();
    for msg in rx {
        let (resp, admitted, trace) = match msg {
            WriterMsg::Control(r) => (r, false, None),
            WriterMsg::Query(r, t) => (r, true, t),
        };
        if !dead {
            let encode = |out: &mut Vec<u8>| encode_response_into(out, &resp);
            if write_frame_with(&mut stream, &mut frame, encode).is_err() {
                // Slow/dead client: cut the socket so the reader unblocks,
                // then keep draining messages to release in-flight slots.
                dead = true;
                let _ = stream.shutdown(Shutdown::Both);
            } else if let Some(trace) = trace {
                // Only successfully written responses are traced: a dead
                // connection has no meaningful end-to-end latency.
                state.finish_trace(&trace);
            }
            if frame.capacity() > FRAME_BUF_RETAIN {
                frame = Vec::new();
            }
        }
        if admitted {
            conn.inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Sends an inline (non-admitted) reply; a full queue here means the
/// client ignored `CONTROL_SLACK` rejections in a row, so give up on it.
fn send_control(tx: &SyncSender<WriterMsg>, stream: &TcpStream, resp: Response) -> bool {
    match tx.try_send(WriterMsg::Control(resp)) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
            let _ = stream.shutdown(Shutdown::Both);
            false
        }
    }
}

fn conn_loop(stream: TcpStream, state: &Arc<State>, queue: &Arc<JobQueue>) {
    // Socket options are per socket, not per handle: set before the clone,
    // they hold for the writer's half too. Without `TCP_NODELAY` a response
    // can sit in the kernel waiting for the client's delayed ACK (~40 ms);
    // without the write timeout a stalled client blocks its writer forever.
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
    });
    let (tx, rx) = sync_channel::<WriterMsg>(state.cfg.per_conn_inflight + CONTROL_SLACK);
    let writer = {
        let conn = Arc::clone(&conn);
        let state = Arc::clone(state);
        std::thread::Builder::new()
            .name("serve-writer".into())
            .spawn(move || writer_loop(write_half, rx, conn, state))
    };
    let writer = match writer {
        Ok(w) => w,
        Err(_) => return,
    };

    state.connections.add(1);
    serve_requests(stream, state, queue, &conn, &tx);
    state.connections.add(-1);

    // Dropping our sender lets the writer drain: it exits once the jobs
    // still holding clones (in-flight queries) finish and are flushed.
    drop(tx);
    let _ = writer.join();
}

fn serve_requests(
    mut stream: TcpStream,
    state: &Arc<State>,
    queue: &Arc<JobQueue>,
    conn: &Arc<ConnShared>,
    tx: &SyncSender<WriterMsg>,
) {
    let mut frames = FrameReader::new();
    let mut last_activity = Instant::now();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match frames.poll_frame(&mut stream, state.cfg.idle_timeout) {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                let idle = conn.inflight.load(Ordering::SeqCst) == 0 && !frames.mid_frame();
                if idle && last_activity.elapsed() >= state.cfg.idle_timeout {
                    return; // idle reap
                }
                continue;
            }
            Err(FrameError::Oversized(len)) => {
                let resp = Response {
                    id: 0,
                    body: ResponseBody::Error(WireError {
                        kind: ErrorKind::BadRequest,
                        detail: format!("frame length {len} exceeds cap"),
                    }),
                };
                send_control(tx, &stream, resp);
                return; // stream position is unrecoverable
            }
            Err(_) => return, // closed / corrupt / io: transport death
        };
        last_activity = Instant::now();
        // Start of the read stage: when this frame's first byte arrived.
        let t0 = frames.last_frame_started().unwrap_or(last_activity);

        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(err) => {
                let resp = Response {
                    id: 0,
                    body: ResponseBody::Error(WireError {
                        kind: ErrorKind::BadRequest,
                        detail: err.to_string(),
                    }),
                };
                // Framing was intact, so the stream stays in sync; reject
                // just this request and keep serving.
                if !send_control(tx, &stream, resp) {
                    return;
                }
                continue;
            }
        };

        match req.body {
            RequestBody::Ping => {
                state.control.incr();
                if !send_control(
                    tx,
                    &stream,
                    Response {
                        id: req.id,
                        body: ResponseBody::Pong,
                    },
                ) {
                    return;
                }
            }
            RequestBody::Stats => {
                state.control.incr();
                let resp = Response {
                    id: req.id,
                    body: ResponseBody::Stats(state.stats_json()),
                };
                if !send_control(tx, &stream, resp) {
                    return;
                }
            }
            RequestBody::Meta => {
                state.control.incr();
                let resp = Response {
                    id: req.id,
                    body: ResponseBody::Meta(state.meta),
                };
                if !send_control(tx, &stream, resp) {
                    return;
                }
            }
            RequestBody::Shutdown => {
                state.control.incr();
                let resp = Response {
                    id: req.id,
                    body: ResponseBody::ShutdownAck,
                };
                send_control(tx, &stream, resp);
                state.shutdown.store(true, Ordering::SeqCst);
                return;
            }
            RequestBody::ObsSeries => {
                state.control.incr();
                let ring = state.series.lock().expect("series ring").clone();
                let resp = Response {
                    id: req.id,
                    body: ResponseBody::ObsSeries(ring),
                };
                if !send_control(tx, &stream, resp) {
                    return;
                }
            }
            RequestBody::ObsSlowLog => {
                state.control.incr();
                let log = state.slow.lock().expect("slow log").snapshot();
                let resp = Response {
                    id: req.id,
                    body: ResponseBody::ObsSlowLog(log),
                };
                if !send_control(tx, &stream, resp) {
                    return;
                }
            }
            RequestBody::Metrics => {
                state.control.incr();
                let resp = Response {
                    id: req.id,
                    body: ResponseBody::Metrics(prometheus_text(&state.registry.snapshot())),
                };
                if !send_control(tx, &stream, resp) {
                    return;
                }
            }
            RequestBody::Query(query) => {
                let read_us = t0.elapsed().as_micros() as u64;
                let admit_started = Instant::now();
                if let Some(rejection) = admit(state, conn, req.id) {
                    if !send_control(tx, &stream, rejection) {
                        return;
                    }
                    continue;
                }
                state.queries.incr();
                queue.push(Job {
                    id: req.id,
                    work: Work::Query(query),
                    reply: tx.clone(),
                    conn: Arc::clone(conn),
                    trace: job_trace(state, t0, read_us, admit_started),
                });
            }
            RequestBody::Lookup(lookup) => {
                let read_us = t0.elapsed().as_micros() as u64;
                let admit_started = Instant::now();
                if let Some(rejection) = admit(state, conn, req.id) {
                    if !send_control(tx, &stream, rejection) {
                        return;
                    }
                    continue;
                }
                state.queries.incr();
                queue.push(Job {
                    id: req.id,
                    work: Work::Lookup(lookup),
                    reply: tx.clone(),
                    conn: Arc::clone(conn),
                    trace: job_trace(state, t0, read_us, admit_started),
                });
            }
        }
    }
}

/// Builds the trace an admitted job carries (`None` with tracing off).
fn job_trace(state: &State, t0: Instant, read_us: u64, admit_started: Instant) -> Option<JobTrace> {
    if !state.cfg.tracing {
        return None;
    }
    Some(JobTrace {
        t0,
        seq: state.request_seq.fetch_add(1, Ordering::Relaxed),
        read_us,
        admit_us: admit_started.elapsed().as_micros() as u64,
        queued_at: Instant::now(),
    })
}

/// Runs admission control for one query. `None` admits (both counters
/// incremented); `Some(resp)` rejects with the typed reason.
fn admit(state: &State, conn: &ConnShared, id: u64) -> Option<Response> {
    let reject = |kind: ErrorKind, detail: String| {
        Some(Response {
            id,
            body: ResponseBody::Error(WireError { kind, detail }),
        })
    };
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
    None
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
}
