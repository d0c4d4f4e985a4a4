//! Load generation against a running `fork-served` daemon.
//!
//! [`run_load`] opens [`LoadConfig::connections`] TCP connections, each on
//! its own thread, and drives a mixed query workload (full scans,
//! block-number ranges, time windows, every aggregate projection) built
//! from the daemon's own `Meta` response — no archive access needed on the
//! client side. Each connection pipelines up to
//! [`LoadConfig::pipeline_depth`] requests and matches responses by
//! correlation id, recording *client-side* latency per request into a
//! plain [`HistogramSnapshot`] — the same type, bucketing, and
//! [`HistogramSnapshot::percentile`] estimator the server's own telemetry
//! uses, so client and server percentiles share one code path.
//!
//! The workload runs in phases (default two: a cold pass that faults the
//! daemon's frame cache in, then a warm pass over the same queries), all
//! connections barrier-synchronized at phase boundaries so per-phase
//! throughput numbers mean something.
//!
//! `Overloaded` rejections are not terminal: the generator re-queues the
//! shed request with bounded exponential backoff plus jitter (up to
//! [`LoadConfig::max_retries`] attempts, each delay capped at
//! [`RETRY_BACKOFF_CAP`]) and reports the extra attempts as
//! [`PhaseStats::retries`]. Only a request still shed after its whole
//! budget counts as [`PhaseStats::overloaded`]. A request in backoff keeps
//! its pipeline slot, so backing off lowers the offered load.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use fork_query::{Projection, Query, QueryRange};
use fork_replay::Side;
use fork_telemetry::HistogramSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{ClientError, ServeClient};
use crate::server::{endpoint_index, ENDPOINTS};
use crate::wire::{ErrorKind, RequestBody, ResponseBody, ServeMeta};

/// Phase names in order; phase 0 runs against a cold daemon cache.
pub const PHASE_NAMES: [&str; 2] = ["cold", "warm"];

/// Load run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address, e.g. `"127.0.0.1:4077"`.
    pub addr: String,
    /// Concurrent connections (one OS thread each).
    pub connections: usize,
    /// Requests per connection per phase.
    pub requests_per_conn: usize,
    /// Max unanswered requests per connection: sent and awaiting a response,
    /// or shed and waiting out a retry backoff.
    pub pipeline_depth: usize,
    /// Number of phases (2 = the standard cold + warm pair).
    pub phases: usize,
    /// Workload seed: per-connection query sequences derive from it.
    pub seed: u64,
    /// How long to retry the initial connects.
    pub connect_timeout: Duration,
    /// Resend attempts granted to a request the server rejects with
    /// `Overloaded` before it counts as terminally shed. 0 restores the
    /// old shed-on-first-rejection behavior.
    pub max_retries: u32,
    /// Base backoff before the first retry; attempt `n` waits
    /// `retry_backoff × 2ⁿ` plus uniform jitter of up to one base unit,
    /// capped at [`RETRY_BACKOFF_CAP`].
    pub retry_backoff: Duration,
}

/// Ceiling on a single retry backoff, jitter included: bounded patience —
/// a load generator that waits seconds per retry measures nothing.
pub const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(50);

impl LoadConfig {
    /// Defaults: 128 connections × 20 requests × 2 phases, depth 4, up to
    /// 4 retries backing off from 2 ms.
    pub fn new(addr: impl Into<String>) -> Self {
        LoadConfig {
            addr: addr.into(),
            connections: 128,
            requests_per_conn: 20,
            pipeline_depth: 4,
            phases: 2,
            seed: 6,
            connect_timeout: Duration::from_secs(10),
            max_retries: 4,
            retry_backoff: Duration::from_millis(2),
        }
    }
}

/// Aggregated results for one phase across all connections.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Phase label (`"cold"`, `"warm"`, `"phase2"`, …).
    pub name: String,
    /// Distinct requests issued (a retried request counts once here).
    pub requests: u64,
    /// Successful query outputs.
    pub ok: u64,
    /// Requests terminally shed by the global admission cap: still
    /// `Overloaded` after exhausting the retry budget.
    pub overloaded: u64,
    /// Extra send attempts spent retrying `Overloaded` rejections.
    pub retries: u64,
    /// Typed `Backpressure` rejections (per-connection cap).
    pub backpressure: u64,
    /// Other typed server errors plus transport failures.
    pub errors: u64,
    /// Client-side latency of successful requests, microseconds.
    pub latency: HistogramSnapshot,
    /// Latency broken down by served endpoint (same names the daemon uses
    /// for its `serve.latency.*` histograms); only endpoints the workload
    /// actually hit appear.
    pub endpoints: BTreeMap<String, HistogramSnapshot>,
    /// Wall time of the phase (barrier to barrier).
    pub wall: Duration,
}

impl PhaseStats {
    /// Successful queries per second over the phase wall time.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }

    fn absorb(&mut self, other: &PhaseStats) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.retries += other.retries;
        self.backpressure += other.backpressure;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
        for (name, hist) in &other.endpoints {
            self.endpoints.entry(name.clone()).or_default().merge(hist);
        }
        self.wall = self.wall.max(other.wall);
    }
}

/// Full results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections that participated.
    pub connections: usize,
    /// Pipeline depth used.
    pub pipeline_depth: usize,
    /// The served archive's shape (from the daemon's `Meta` response).
    pub meta: ServeMeta,
    /// Per-phase aggregates, in phase order.
    pub phases: Vec<PhaseStats>,
    /// All phases folded together (latency merged, counts summed, wall
    /// summed).
    pub overall: PhaseStats,
}

impl LoadReport {
    /// Machine-readable JSON (`fork-load/v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"fork-load/v1\",\n");
        out.push_str(&format!(
            "  \"connections\": {},\n  \"pipeline_depth\": {},\n",
            self.connections, self.pipeline_depth
        ));
        out.push_str(&format!(
            "  \"archive\": {{\"blocks\": {}, \"txs\": {}, \"format_version\": {}, \"checksum\": \"{:08x}\"}},\n",
            self.meta.blocks, self.meta.txs, self.meta.format_version, self.meta.checksum
        ));
        out.push_str("  \"phases\": [\n");
        for (i, phase) in self.phases.iter().enumerate() {
            let sep = if i + 1 == self.phases.len() { "" } else { "," };
            out.push_str(&format!("    {}{sep}\n", phase_json(phase)));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"overall\": {}\n}}\n",
            phase_json(&self.overall)
        ));
        out
    }

    /// Human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "load: {} connections, depth {}, archive {} blocks / {} txs (format v{}, checksum {:08x})\n",
            self.connections,
            self.pipeline_depth,
            self.meta.blocks,
            self.meta.txs,
            self.meta.format_version,
            self.meta.checksum
        ));
        out.push_str(
            "phase      requests       ok  overl  retry  backp   err      q/s      p50      p90      p99\n",
        );
        for phase in self.phases.iter().chain([&self.overall]) {
            out.push_str(&format!(
                "{:<9} {:>9} {:>8} {:>6} {:>6} {:>6} {:>5} {:>8.1} {:>7}us {:>7}us {:>7}us\n",
                phase.name,
                phase.requests,
                phase.ok,
                phase.overloaded,
                phase.retries,
                phase.backpressure,
                phase.errors,
                phase.queries_per_sec(),
                phase.latency.p50(),
                phase.latency.p90(),
                phase.latency.p99(),
            ));
        }
        if !self.overall.endpoints.is_empty() {
            out.push_str("\nendpoint           count      p50      p90      p99\n");
            for (name, hist) in &self.overall.endpoints {
                out.push_str(&format!(
                    "{:<16} {:>7} {:>7}us {:>7}us {:>7}us\n",
                    name,
                    hist.count,
                    hist.p50(),
                    hist.p90(),
                    hist.p99(),
                ));
            }
        }
        out
    }
}

fn phase_json(phase: &PhaseStats) -> String {
    let mut endpoints = String::from("{");
    for (i, (name, hist)) in phase.endpoints.iter().enumerate() {
        if i > 0 {
            endpoints.push_str(", ");
        }
        endpoints.push_str(&format!(
            "\"{name}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            hist.count,
            hist.p50(),
            hist.p90(),
            hist.p99(),
        ));
    }
    endpoints.push('}');
    format!(
        "{{\"name\": \"{}\", \"requests\": {}, \"ok\": {}, \"overloaded\": {}, \
         \"retries\": {}, \"backpressure\": {}, \"errors\": {}, \"wall_ms\": {}, \
         \"queries_per_sec\": {:.1}, \"latency_us\": {{\"p50\": {}, \"p90\": {}, \
         \"p99\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.1}}}, \
         \"endpoints\": {endpoints}}}",
        phase.name,
        phase.requests,
        phase.ok,
        phase.overloaded,
        phase.retries,
        phase.backpressure,
        phase.errors,
        phase.wall.as_millis(),
        phase.queries_per_sec(),
        phase.latency.p50(),
        phase.latency.p90(),
        phase.latency.p99(),
        phase.latency.min,
        phase.latency.max,
        phase.latency.mean(),
    )
}

/// Builds the mixed workload from archive shape metadata: per-side full
/// scans, quarter-width block-number and time windows, and every aggregate
/// projection — the serving-era analogue of the paper's re-analysis mix.
pub fn workload_queries(meta: &ServeMeta) -> Vec<Query> {
    let mut queries = Vec::new();
    let mut ranges = vec![QueryRange::All];
    let mut time_ranges = vec![QueryRange::All];
    if let Some((lo, hi)) = meta.block_range {
        ranges.push(QueryRange::Blocks {
            first: lo + (hi - lo) / 4,
            last: hi - (hi - lo) / 4,
        });
    }
    if let Some((lo, hi)) = meta.time_range {
        let mid = QueryRange::Time {
            start: lo + (hi - lo) / 4,
            end: hi - (hi - lo) / 4,
        };
        ranges.push(mid);
        time_ranges.push(mid);
    }
    for side in [Side::Eth, Side::Etc] {
        for &range in &ranges {
            for projection in [
                Projection::Blocks,
                Projection::InterArrival,
                Projection::Difficulty,
            ] {
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection,
                });
            }
        }
        for &range in &time_ranges {
            for projection in [
                Projection::Txs,
                Projection::Echoes { window_days: 1 },
                Projection::Echoes { window_days: 7 },
            ] {
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection,
                });
            }
        }
    }
    for &range in &time_ranges {
        queries.push(Query {
            side: None,
            range,
            projection: Projection::TxRatioPerDay,
        });
    }
    queries
}

/// Load-run failure (setup-level; per-request failures are counted in the
/// report instead).
#[derive(Debug)]
pub enum LoadError {
    /// Could not connect or fetch metadata.
    Setup(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Setup(d) => write!(f, "load setup: {d}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn phase_name(i: usize) -> String {
    PHASE_NAMES
        .get(i)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("phase{i}"))
}

/// Runs the workload; see the [module docs](self).
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, LoadError> {
    let mut control = ServeClient::connect_retry(&cfg.addr, cfg.connect_timeout)
        .map_err(|e| LoadError::Setup(format!("connect {}: {e}", cfg.addr)))?;
    let meta = control
        .meta()
        .map_err(|e| LoadError::Setup(format!("meta: {e}")))?;
    let workload = Arc::new(workload_queries(&meta));
    if workload.is_empty() {
        return Err(LoadError::Setup("archive produced no workload".into()));
    }

    let connections = cfg.connections.max(1);
    let phases = cfg.phases.max(1);
    // All worker threads plus the coordinator meet at each phase edge.
    let barrier = Arc::new(Barrier::new(connections + 1));
    let results: Arc<Mutex<Vec<Vec<PhaseStats>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut phase_walls = vec![Duration::ZERO; phases];

    std::thread::scope(|scope| {
        for conn_idx in 0..connections {
            let (cfg, workload, barrier, results) = (
                cfg.clone(),
                Arc::clone(&workload),
                Arc::clone(&barrier),
                Arc::clone(&results),
            );
            scope.spawn(move || {
                let stats = drive_connection(&cfg, conn_idx, phases, &workload, &barrier);
                results.lock().expect("load results").push(stats);
            });
        }
        for wall in phase_walls.iter_mut().take(phases) {
            barrier.wait(); // phase start
            let started = Instant::now();
            barrier.wait(); // phase end
            *wall = started.elapsed();
        }
    });

    let per_conn = Arc::try_unwrap(results)
        .expect("threads joined")
        .into_inner()
        .expect("load results");
    let mut phase_stats: Vec<PhaseStats> = (0..phases)
        .map(|i| PhaseStats {
            name: phase_name(i),
            wall: phase_walls[i],
            ..PhaseStats::default()
        })
        .collect();
    for conn in &per_conn {
        for (i, stats) in conn.iter().enumerate() {
            let wall = phase_stats[i].wall;
            phase_stats[i].absorb(stats);
            phase_stats[i].wall = wall; // keep the coordinator's clock
        }
    }
    let mut overall = PhaseStats {
        name: "overall".into(),
        ..PhaseStats::default()
    };
    let mut total_wall = Duration::ZERO;
    for phase in &phase_stats {
        overall.absorb(phase);
        total_wall += phase.wall;
    }
    overall.wall = total_wall;

    Ok(LoadReport {
        connections,
        pipeline_depth: cfg.pipeline_depth.max(1),
        meta,
        phases: phase_stats,
        overall,
    })
}

/// One connection's life: connect, then per phase send/receive with
/// pipelining, recording client-observed latency per correlation id.
fn drive_connection(
    cfg: &LoadConfig,
    conn_idx: usize,
    phases: usize,
    workload: &[Query],
    barrier: &Barrier,
) -> Vec<PhaseStats> {
    let mut stats: Vec<PhaseStats> = (0..phases)
        .map(|i| PhaseStats {
            name: phase_name(i),
            ..PhaseStats::default()
        })
        .collect();
    let mut client = ServeClient::connect_retry(&cfg.addr, cfg.connect_timeout).ok();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (conn_idx as u64).wrapping_mul(0x9E37_79B9));

    for phase in stats.iter_mut() {
        barrier.wait(); // phase start
        let started = Instant::now();
        if let Some(c) = client.as_mut() {
            run_phase(c, cfg, workload, &mut rng, phase);
        } else {
            phase.errors += cfg.requests_per_conn as u64;
        }
        phase.wall = started.elapsed();
        barrier.wait(); // phase end
    }
    stats
}

/// An in-flight request: what was asked, how many times, and when this
/// attempt left the socket (latency is per-attempt, so percentile gates
/// measure the server, not the client's backoff sleeps).
struct InFlight {
    query: Query,
    attempts: u32,
    sent_at: Instant,
}

/// A request waiting out its backoff before re-entering the pipeline.
struct QueuedRetry {
    due: Instant,
    query: Query,
    attempts: u32,
}

/// Exponential backoff with uniform jitter, bounded by
/// [`RETRY_BACKOFF_CAP`]: `base × 2ⁿ + U(0, base)`.
fn retry_backoff(base: Duration, attempt: u32, rng: &mut StdRng) -> Duration {
    let backoff = base
        .saturating_mul(1u32 << attempt.min(16))
        .min(RETRY_BACKOFF_CAP);
    let jitter_us = rng.gen_range(0..=base.as_micros().min(u64::MAX as u128) as u64);
    (backoff + Duration::from_micros(jitter_us)).min(RETRY_BACKOFF_CAP)
}

fn run_phase(
    client: &mut ServeClient,
    cfg: &LoadConfig,
    workload: &[Query],
    rng: &mut StdRng,
    phase: &mut PhaseStats,
) {
    let requests = cfg.requests_per_conn;
    let depth = cfg.pipeline_depth.max(1);
    let mut pending: HashMap<u64, InFlight> = HashMap::new();
    let mut retry_queue: Vec<QueuedRetry> = Vec::new();
    let mut sent = 0usize;
    loop {
        // Fill the pipeline: due retries first (a shed request re-queues
        // ahead of fresh traffic), then fresh requests. A request waiting
        // out its backoff keeps its pipeline slot: if fresh traffic took
        // it, backing off would shed no load at all, and against a daemon
        // that rejects in microseconds the whole phase would pile into
        // the retry queue and time out together.
        loop {
            let now = Instant::now();
            let (query, attempts) = if let Some(i) = retry_queue.iter().position(|r| r.due <= now) {
                let r = retry_queue.swap_remove(i);
                phase.retries += 1;
                (r.query, r.attempts)
            } else if sent < requests && pending.len() + retry_queue.len() < depth {
                sent += 1;
                phase.requests += 1;
                (workload[rng.gen_range(0..workload.len())], 0)
            } else {
                break;
            };
            match client.send(RequestBody::Query(query)) {
                Ok(id) => {
                    pending.insert(
                        id,
                        InFlight {
                            query,
                            attempts,
                            sent_at: Instant::now(),
                        },
                    );
                }
                Err(_) => {
                    // Connection is gone; charge the rest as errors.
                    phase.errors += (requests - sent) as u64
                        + pending.len() as u64
                        + retry_queue.len() as u64
                        + 1;
                    return;
                }
            }
        }
        if pending.is_empty() {
            if let Some(due) = retry_queue.iter().map(|r| r.due).min() {
                // Nothing in flight, everything backing off: sleep to the
                // earliest due time instead of spinning.
                let now = Instant::now();
                if due > now {
                    std::thread::sleep((due - now).min(RETRY_BACKOFF_CAP));
                }
                continue;
            }
            if sent >= requests {
                return;
            }
            continue;
        }
        match client.recv() {
            Ok(resp) => {
                let inflight = pending.remove(&resp.id);
                match (&resp.body, inflight) {
                    (ResponseBody::Output(_), Some(f)) => {
                        phase.ok += 1;
                        let us = f.sent_at.elapsed().as_micros() as u64;
                        phase.latency.record(us);
                        let endpoint = ENDPOINTS[endpoint_index(&f.query.projection)];
                        phase
                            .endpoints
                            .entry(endpoint.to_string())
                            .or_default()
                            .record(us);
                    }
                    (ResponseBody::Error(e), inflight) => match e.kind {
                        ErrorKind::Overloaded => match inflight {
                            // Shed, but with retry budget left: back off and
                            // re-queue rather than counting it lost.
                            Some(f) if f.attempts < cfg.max_retries => {
                                retry_queue.push(QueuedRetry {
                                    due: Instant::now()
                                        + retry_backoff(cfg.retry_backoff, f.attempts, rng),
                                    query: f.query,
                                    attempts: f.attempts + 1,
                                });
                            }
                            _ => phase.overloaded += 1,
                        },
                        ErrorKind::Backpressure => phase.backpressure += 1,
                        _ => phase.errors += 1,
                    },
                    _ => phase.errors += 1,
                }
            }
            Err(ClientError::Server(_)) => phase.errors += 1,
            Err(_) => {
                phase.errors +=
                    pending.len() as u64 + retry_queue.len() as u64 + (requests - sent) as u64;
                return;
            }
        }
    }
}
