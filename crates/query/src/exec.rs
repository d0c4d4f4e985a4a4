//! Batch query execution over a worker pool.
//!
//! [`QueryExecutor`] fans a batch of queries out across OS threads — each
//! worker claims queries off a shared index and evaluates them over its own
//! streams, so the only shared mutable state is the frame cache
//! (internally synchronized, and touched only by bounded ranges and point
//! reads). Results land in
//! **input-order slots**: whatever order workers finish in, the returned
//! vector lines up with the submitted batch, and each individual result is
//! identical to a single-threaded evaluation of the same query.
//!
//! Every evaluation's wall time is recorded (in microseconds) into a
//! `query.latency` histogram; bind it to a registry with
//! [`QueryExecutor::with_telemetry`] to see it in snapshots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fork_archive::ArchiveReader;
use fork_telemetry::{Histogram, HistogramSnapshot, MetricsRegistry};

use crate::error::QueryError;
use crate::lookup::{evaluate_lookup, lookup_indexed, Lookup, LookupOutput};
use crate::pool::ReaderPool;
use crate::query::{evaluate, NaiveSource, PooledSource, Query, QueryOutput};

/// A fixed-width worker pool for query batches. See the [module
/// docs](self).
pub struct QueryExecutor {
    workers: usize,
    latency: Arc<Histogram>,
}

impl QueryExecutor {
    /// An executor running batches on up to `workers` threads (clamped to
    /// at least 1).
    pub fn new(workers: usize) -> QueryExecutor {
        QueryExecutor {
            workers: workers.max(1),
            latency: Arc::new(Histogram::new()),
        }
    }

    /// Records per-query latency into `registry`'s `query.latency`
    /// histogram (microseconds).
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> Self {
        self.latency = registry.histogram("query.latency");
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The `query.latency` histogram recorded so far (microseconds).
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    fn timed(&self, pool: &ReaderPool, query: &Query) -> Result<QueryOutput, QueryError> {
        let started = Instant::now();
        let out = evaluate(&PooledSource(pool), query);
        self.latency.record(started.elapsed().as_micros() as u64);
        out
    }

    /// Evaluates one query on the calling thread (through the pool, with
    /// latency recorded).
    pub fn run(&self, pool: &ReaderPool, query: &Query) -> Result<QueryOutput, QueryError> {
        self.timed(pool, query)
    }

    /// Evaluates a batch across the worker pool. `results[i]` is always the
    /// outcome of `queries[i]`, regardless of completion order.
    pub fn run_batch(
        &self,
        pool: &ReaderPool,
        queries: &[Query],
    ) -> Vec<Result<QueryOutput, QueryError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let threads = self.workers.min(queries.len());
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<QueryOutput, QueryError>>>> =
            Mutex::new((0..queries.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= queries.len() {
                        break;
                    }
                    let result = self.timed(pool, &queries[i]);
                    slots.lock().expect("result slots")[i] = Some(result);
                });
            }
        });
        slots
            .into_inner()
            .expect("result slots")
            .into_iter()
            .map(|slot| slot.expect("every index was claimed"))
            .collect()
    }

    /// Reference evaluation: the same query answered by a plain
    /// single-threaded full scan through `reader` — no pool, no cache, no
    /// seek. Tests diff [`QueryExecutor::run`] output against this.
    pub fn run_naive(reader: &ArchiveReader, query: &Query) -> Result<QueryOutput, QueryError> {
        evaluate(&NaiveSource(reader), query)
    }

    /// Evaluates one lookup on the calling thread through the sidecar fast
    /// path (hash lookups) or the pooled streams (the rest), with latency
    /// recorded into `query.latency`.
    pub fn run_lookup(
        &self,
        pool: &ReaderPool,
        lookup: &Lookup,
    ) -> Result<LookupOutput, QueryError> {
        let started = Instant::now();
        let out = lookup_indexed(pool, lookup);
        self.latency.record(started.elapsed().as_micros() as u64);
        out
    }

    /// Reference lookup evaluation: answered by plain full scans through
    /// `reader` — no pool, no cache, no hash index. Tests diff
    /// [`QueryExecutor::run_lookup`] output against this.
    pub fn run_lookup_naive(
        reader: &ArchiveReader,
        lookup: &Lookup,
    ) -> Result<LookupOutput, QueryError> {
        evaluate_lookup(&NaiveSource(reader), lookup)
    }
}

impl std::fmt::Debug for QueryExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryExecutor")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}
