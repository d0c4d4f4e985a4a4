//! Batch query execution over a worker pool.
//!
//! [`QueryExecutor::run_batch`] first groups the batch into units of work.
//! A valid query whose stream is a whole side — range `All`, or any
//! `Echoes` — joins the group of its side-set ({ETH}, {ETC} or both);
//! every other query (bounded windows, invalid shapes) is a group of one.
//! Each group is evaluated in one pass: one stream, one fold per query, one
//! echo detector, so a batch reads, checksums and decodes each whole side
//! at most twice (once alone, once merged) however many full-range queries
//! it holds. Workers claim whole groups off a shared index, the both-sides
//! group first, and evaluate them over their own streams, so the only
//! shared mutable state is the frame cache (internally synchronized, and
//! touched only by bounded ranges and point reads). Results land in
//! **input-order slots**: whatever order workers finish in, the returned
//! vector lines up with the submitted batch, and each individual result is
//! identical to a single-threaded evaluation of the same query. A group
//! whose scan meets an error re-evaluates each of its queries alone, so
//! every error is the one that query reports on its own.
//!
//! Every query's wall time is recorded (in microseconds) into a
//! `query.latency` histogram — a grouped query's is its group's; bind it
//! to a registry with [`QueryExecutor::with_telemetry`] to see it in
//! snapshots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fork_archive::ArchiveReader;
use fork_telemetry::{Histogram, HistogramSnapshot, MetricsRegistry};

use crate::error::QueryError;
use crate::lookup::{evaluate_lookup, lookup_indexed, Lookup, LookupOutput};
use crate::pool::ReaderPool;
use crate::query::{
    evaluate, evaluate_group, NaiveSource, PooledSource, Query, QueryOutput, QueryRange, Sides,
};

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

    /// Evaluates a batch across the worker pool, one pass per group (see
    /// the [module docs](self)). `results[i]` is always the outcome of
    /// `queries[i]`, regardless of completion order.
    pub fn run_batch(
        &self,
        pool: &ReaderPool,
        queries: &[Query],
    ) -> Vec<Result<QueryOutput, QueryError>> {
        let groups = plan(queries);
        let threads = self.workers.min(groups.len());
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<QueryOutput, QueryError>>>> =
            Mutex::new((0..queries.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(g) else {
                        break;
                    };
                    let results = self.run_group(pool, queries, group);
                    let mut slots = slots.lock().expect("result slots");
                    for (&i, result) in group.iter().zip(results) {
                        slots[i] = Some(result);
                    }
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

    /// Evaluates the queries `group` indexes in one pass, recording the
    /// group's wall time once per query. A failed pass re-evaluates each
    /// query alone: `ArchiveError` holds an `io::Error` and is not `Clone`,
    /// and this keeps each error exactly what that query meets by itself.
    fn run_group(
        &self,
        pool: &ReaderPool,
        queries: &[Query],
        group: &[usize],
    ) -> Vec<Result<QueryOutput, QueryError>> {
        let started = Instant::now();
        let source = PooledSource(pool);
        let members: Vec<&Query> = group.iter().map(|&i| &queries[i]).collect();
        let results = match evaluate_group(&source, &members) {
            Ok(outputs) => outputs.into_iter().map(Ok).collect(),
            Err(err) if members.len() == 1 => vec![Err(err)],
            Err(_) => members.iter().map(|q| evaluate(&source, q)).collect(),
        };
        let micros = started.elapsed().as_micros() as u64;
        for _ in group {
            self.latency.record(micros);
        }
        results
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

/// Splits a batch into groups of query indices, each evaluated in one
/// pass. A valid query that streams whole sides joins the group of its
/// [`Sides`]; any other query is a group of one. The both-sides group
/// comes first (it also runs the echo detector), the rest follow in order
/// of their first query.
fn plan(queries: &[Query]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_sides: Vec<(Sides, usize)> = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        let whole = query.validate().is_ok() && query.scan_range() == QueryRange::All;
        if !whole {
            groups.push(vec![i]);
            continue;
        }
        let sides = query.sides();
        match by_sides.iter().find(|(s, _)| *s == sides) {
            Some(&(_, g)) => groups[g].push(i),
            None => {
                by_sides.push((sides, groups.len()));
                groups.push(vec![i]);
            }
        }
    }
    if let Some(&(_, g)) = by_sides.iter().find(|(s, _)| *s == Sides::Both) {
        let both = groups.remove(g);
        groups.insert(0, both);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Projection;
    use fork_replay::Side;

    #[test]
    fn plan_groups_whole_side_queries_by_side_set() {
        let q = |side, range, projection| Query {
            side,
            range,
            projection,
        };
        let window = QueryRange::Time { start: 0, end: 9 };
        let queries = [
            q(Some(Side::Eth), QueryRange::All, Projection::Blocks), // 0: {ETH}
            q(Some(Side::Etc), QueryRange::All, Projection::Txs),    // 1: {ETC}
            q(Some(Side::Eth), window, Projection::Difficulty),      // 2: alone
            q(None, QueryRange::All, Projection::TxRatioPerDay),     // 3: both
            q(
                Some(Side::Etc),
                window,
                Projection::Echoes { window_days: 1 },
            ), // 4: both
            q(Some(Side::Eth), QueryRange::All, Projection::Txs),    // 5: {ETH}
            q(
                Some(Side::Eth),
                QueryRange::Blocks { first: 0, last: 1 },
                Projection::Txs,
            ), // 6: invalid
            q(None, window, Projection::TxRatioPerDay),              // 7: alone
        ];
        assert_eq!(
            plan(&queries),
            vec![vec![3, 4], vec![0, 5], vec![1], vec![2], vec![6], vec![7]]
        );
        assert!(plan(&[]).is_empty());
    }
}
