//! Typed queries over an archive and their evaluation.
//!
//! A [`Query`] names a side, a range, and a [`Projection`]; evaluation
//! turns the matching slice of the archive into raw records or one of the
//! paper's aggregates — **without re-running the simulation**. The same
//! evaluation code runs over any [`RecordSource`]: the pooled source used
//! by the executor (cached windows for bounded ranges, the reader's own
//! stream for `All`) and the naive single-threaded full-scan source used as
//! the correctness reference. Because only the record
//! *iteration* differs (and both iterations yield the same per-side record
//! sequence in write order), pooled and naive results are identical by
//! construction — the concurrency tests assert this byte-for-byte.
//!
//! Each query is one `Fold`: it is pushed the records of a stream and
//! keeps those its own side and range select. `evaluate_group` feeds one
//! stream to many folds, so a batch reads each whole side once however
//! many queries it holds; `evaluate` is a group of one. Aggregates stream
//! into the very folds the live pipeline uses (`fork_analytics::aggregate`,
//! one fold per aggregate; the inter-arrival fold buckets as the engine's
//! telemetry histograms do), so a full-range query reproduces the live
//! run's series and histograms bit-identically.

use fork_analytics::{
    echo_windows, ratio, BlockRecord, DailyDifficulty, DailyTxs, InterArrival, TimeSeries, TxRecord,
};
use fork_archive::{merge_by_seq, ArchiveError, ArchiveReader, ArchiveRecord};
use fork_replay::{EchoDetector, Side};
use fork_telemetry::HistogramSnapshot;

use crate::error::QueryError;
use crate::pool::{Bounds, ReaderPool};

/// Which slice of the archive a query covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRange {
    /// Everything.
    All,
    /// Blocks with numbers in `[first, last]` (inclusive). Only valid for
    /// block-shaped projections: transaction frames carry no block number.
    Blocks {
        /// First block number, inclusive.
        first: u64,
        /// Last block number, inclusive.
        last: u64,
    },
    /// Records with timestamps in `[start, end]` (inclusive unix seconds).
    /// Transactions carry their including block's timestamp.
    Time {
        /// Window start, inclusive.
        start: u64,
        /// Window end, inclusive.
        end: u64,
    },
}

/// What to compute over the covered records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// The raw block records, in write order.
    Blocks,
    /// The raw transaction records, in write order.
    Txs,
    /// Histogram of inter-block arrival times (seconds), bucketed exactly
    /// like the live `meso.interarrival.{eth,etc}` telemetry histograms.
    InterArrival,
    /// Mean difficulty per day — the live pipeline's `daily_difficulty`.
    Difficulty,
    /// Pointwise ETH:ETC transactions-per-day ratio (cross-side; leave
    /// `side` as `None`).
    TxRatioPerDay,
    /// Echo (cross-chain rebroadcast) counts into `side`, summed over
    /// consecutive `window_days`-day windows.
    Echoes {
        /// Window width in days (`1` = the pipeline's `echoes_per_day`).
        window_days: u64,
    },
}

/// One typed query. Construct directly; shape errors surface from
/// [`Query::validate`] (and from evaluation) as
/// [`QueryError::Unsupported`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// The network side, for per-side projections. Cross-side projections
    /// ([`Projection::TxRatioPerDay`]) take `None`.
    pub side: Option<Side>,
    /// The archive slice to cover.
    pub range: QueryRange,
    /// What to compute.
    pub projection: Projection,
}

/// What a query evaluates to.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Raw block records ([`Projection::Blocks`]).
    Blocks(Vec<BlockRecord>),
    /// Raw transaction records ([`Projection::Txs`]).
    Txs(Vec<TxRecord>),
    /// A histogram ([`Projection::InterArrival`]). Boxed: the snapshot's
    /// fixed bucket array dwarfs the other variants.
    Histogram(Box<HistogramSnapshot>),
    /// A time series (all remaining projections).
    Series(TimeSeries),
}

impl Query {
    /// Checks that the query's shape is answerable. Evaluation calls this
    /// first, so callers only need it for early feedback.
    pub fn validate(&self) -> Result<(), QueryError> {
        let needs_side = !matches!(self.projection, Projection::TxRatioPerDay);
        if needs_side && self.side.is_none() {
            return Err(QueryError::unsupported(format!(
                "{:?} is a per-side projection; set `side`",
                self.projection
            )));
        }
        if !needs_side && self.side.is_some() {
            return Err(QueryError::unsupported(
                "TxRatioPerDay is cross-side; leave `side` as None",
            ));
        }
        let tx_based = matches!(
            self.projection,
            Projection::Txs | Projection::TxRatioPerDay | Projection::Echoes { .. }
        );
        if tx_based && matches!(self.range, QueryRange::Blocks { .. }) {
            return Err(QueryError::unsupported(
                "transaction frames carry no block number; use a time range",
            ));
        }
        if let Projection::Echoes { window_days: 0 } = self.projection {
            return Err(QueryError::unsupported("echo window must be >= 1 day"));
        }
        Ok(())
    }
}

/// Anything that can stream one side's records in write (= seq) order.
/// Implementations may over-approximate the range (evaluation re-filters),
/// but must never drop or reorder in-range records.
pub(crate) trait RecordSource {
    /// Records of `side` covering at least `range`, as `(seq, record)`.
    fn stream<'a>(
        &'a self,
        side: Side,
        range: &QueryRange,
    ) -> Box<dyn Iterator<Item = Result<(u64, ArchiveRecord), ArchiveError>> + 'a>;
}

/// The production source: seek-optimized cached streams for bounded
/// ranges, and the reader's own stream — the naive source's sequence —
/// for `All`, so a full scan never churns the cache.
pub(crate) struct PooledSource<'a>(pub &'a ReaderPool);

impl RecordSource for PooledSource<'_> {
    fn stream<'a>(
        &'a self,
        side: Side,
        range: &QueryRange,
    ) -> Box<dyn Iterator<Item = Result<(u64, ArchiveRecord), ArchiveError>> + 'a> {
        let bounds = match *range {
            QueryRange::All => return Box::new(self.0.records(side)),
            QueryRange::Blocks { first, last } => Bounds::Numbers { first, last },
            QueryRange::Time { start, end } => Bounds::Times { start, end },
        };
        Box::new(self.0.stream(side, bounds))
    }
}

/// The reference source: a plain single-threaded full scan through the
/// reader, no seek, no cache. Deliberately the dumbest correct thing.
pub(crate) struct NaiveSource<'a>(pub &'a ArchiveReader);

impl RecordSource for NaiveSource<'_> {
    fn stream<'a>(
        &'a self,
        side: Side,
        _range: &QueryRange,
    ) -> Box<dyn Iterator<Item = Result<(u64, ArchiveRecord), ArchiveError>> + 'a> {
        Box::new(self.0.records(side))
    }
}

fn block_in_range(range: &QueryRange, b: &BlockRecord) -> bool {
    match *range {
        QueryRange::All => true,
        QueryRange::Blocks { first, last } => (first..=last).contains(&b.number),
        QueryRange::Time { start, end } => (start..=end).contains(&b.timestamp),
    }
}

fn ts_in_range(range: &QueryRange, ts: u64) -> bool {
    match *range {
        QueryRange::All => true,
        QueryRange::Blocks { .. } => false, // rejected by validate()
        QueryRange::Time { start, end } => (start..=end).contains(&ts),
    }
}

fn day_in_range(range: &QueryRange, day: u64) -> bool {
    match *range {
        QueryRange::All => true,
        QueryRange::Blocks { .. } => false, // rejected by validate()
        // A day qualifies when any of its seconds fall inside the window.
        QueryRange::Time { start, end } => day * 86_400 <= end && (day + 1) * 86_400 > start,
    }
}

/// The sides whose streams a query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sides {
    /// One side's stream.
    One(Side),
    /// Both sides, merged into global order by [`merge_by_seq`].
    Both,
}

impl Query {
    /// The sides this query's stream covers. `TxRatioPerDay` needs both;
    /// so does every `Echoes`, because echo-ness depends on which side saw
    /// a hash first.
    pub(crate) fn sides(&self) -> Sides {
        match (self.projection, self.side) {
            (Projection::TxRatioPerDay | Projection::Echoes { .. }, _) | (_, None) => Sides::Both,
            (_, Some(side)) => Sides::One(side),
        }
    }

    /// The range this query's stream must cover. The echo detector sees
    /// both whole sides whatever the query range; the range only restricts
    /// which days are emitted.
    pub(crate) fn scan_range(&self) -> QueryRange {
        match self.projection {
            Projection::Echoes { .. } => QueryRange::All,
            _ => self.range,
        }
    }
}

/// What one query's [`Fold`] accumulates.
enum Acc {
    Blocks(Vec<BlockRecord>),
    Txs(Vec<TxRecord>),
    /// Boxed: the histogram's fixed bucket array dwarfs the other folds.
    InterArrival(Box<InterArrival>),
    Difficulty(DailyDifficulty),
    /// ETH's, then ETC's transactions per day.
    TxRatio([DailyTxs; 2]),
    /// Finished from the group's one [`EchoDetector`]; pushes nothing.
    Echoes {
        window_days: u64,
    },
}

/// One query's running evaluation. It may be pushed every record of a
/// stream that covers more than the query reads (the other side, or a
/// whole side for a window) and keeps the ones its own side and range
/// select, in stream order. Each aggregate streams into the live
/// pipeline's own fold (`fork_analytics::aggregate`) and finishes it.
pub(crate) struct Fold {
    side: Option<Side>,
    range: QueryRange,
    acc: Acc,
}

impl Fold {
    /// A fresh fold for a valid `query`.
    pub(crate) fn new(query: &Query) -> Fold {
        let acc = match query.projection {
            Projection::Blocks => Acc::Blocks(Vec::new()),
            Projection::Txs => Acc::Txs(Vec::new()),
            Projection::InterArrival => Acc::InterArrival(Box::default()),
            Projection::Difficulty => Acc::Difficulty(DailyDifficulty::default()),
            Projection::TxRatioPerDay => Acc::TxRatio(Default::default()),
            Projection::Echoes { window_days } => Acc::Echoes { window_days },
        };
        Fold {
            side: query.side,
            range: query.range,
            acc,
        }
    }

    /// Folds in `record` if the query's side and range select it.
    pub(crate) fn push(&mut self, record: &ArchiveRecord) {
        match record {
            ArchiveRecord::Block(b)
                if self.side.is_none_or(|s| s == b.network) && block_in_range(&self.range, b) =>
            {
                match &mut self.acc {
                    Acc::Blocks(out) => out.push(b.clone()),
                    Acc::InterArrival(fold) => {
                        fold.push(b);
                    }
                    Acc::Difficulty(fold) => fold.push(b),
                    _ => {}
                }
            }
            ArchiveRecord::Tx(t)
                if self.side.is_none_or(|s| s == t.network)
                    && ts_in_range(&self.range, t.timestamp) =>
            {
                match &mut self.acc {
                    Acc::Txs(out) => out.push(t.clone()),
                    Acc::TxRatio([eth, _]) if t.network == Side::Eth => eth.push(t),
                    Acc::TxRatio([_, etc]) => etc.push(t),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    /// The query's output. `echoes` is the group's detector, present
    /// whenever the group holds an `Echoes` query.
    pub(crate) fn finish(self, echoes: Option<&EchoDetector>) -> QueryOutput {
        match self.acc {
            Acc::Blocks(out) => QueryOutput::Blocks(out),
            Acc::Txs(out) => QueryOutput::Txs(out),
            Acc::InterArrival(fold) => QueryOutput::Histogram(Box::new(fold.histogram().clone())),
            Acc::Difficulty(fold) => {
                QueryOutput::Series(fold.series(self.side.expect("validated").label()))
            }
            Acc::TxRatio([eth, etc]) => QueryOutput::Series(ratio(
                &eth.series(Side::Eth.label()),
                &etc.series(Side::Etc.label()),
                "ETH:ETC",
            )),
            Acc::Echoes { window_days } => QueryOutput::Series(echo_windows(
                echoes.expect("an Echoes query's group holds a detector"),
                self.side.expect("validated"),
                window_days,
                |day| day_in_range(&self.range, day),
            )),
        }
    }
}

/// Evaluates `queries` against `source` in one pass: one stream covering
/// every query's [`Query::sides`] and [`Query::scan_range`] (`All` when
/// their ranges differ; each fold re-filters), fed to one [`Fold`] per
/// query. A group with an `Echoes` query holds one [`EchoDetector`] that
/// every such query finishes from. The first invalid query or stream
/// error fails the whole group; outputs are in `queries` order.
pub(crate) fn evaluate_group(
    source: &dyn RecordSource,
    queries: &[&Query],
) -> Result<Vec<QueryOutput>, QueryError> {
    for query in queries {
        query.validate()?;
    }
    let Some((first, rest)) = queries.split_first() else {
        return Ok(Vec::new());
    };
    let mut sides = first.sides();
    let mut range = first.scan_range();
    for query in rest {
        if query.sides() != sides {
            sides = Sides::Both;
        }
        if query.scan_range() != range {
            range = QueryRange::All;
        }
    }
    let stream: Box<dyn Iterator<Item = _>> = match sides {
        Sides::One(side) => source.stream(side, &range),
        Sides::Both => Box::new(merge_by_seq(
            source.stream(Side::Eth, &range),
            source.stream(Side::Etc, &range),
        )),
    };
    let mut folds: Vec<Fold> = queries.iter().map(|q| Fold::new(q)).collect();
    let mut detector = queries
        .iter()
        .any(|q| matches!(q.projection, Projection::Echoes { .. }))
        .then(EchoDetector::new);
    for item in stream {
        let (_, record) = item?;
        if let (Some(detector), ArchiveRecord::Tx(t)) = (&mut detector, &record) {
            detector.observe(t.network, t.hash, t.day());
        }
        for fold in &mut folds {
            fold.push(&record);
        }
    }
    Ok(folds
        .into_iter()
        .map(|fold| fold.finish(detector.as_ref()))
        .collect())
}

/// Evaluates `query` against `source`: a group of one. This is the single
/// evaluation path: the executor and the naive reference differ only in
/// the `source` they pass in.
pub(crate) fn evaluate(
    source: &dyn RecordSource,
    query: &Query,
) -> Result<QueryOutput, QueryError> {
    let mut out = evaluate_group(source, &[query])?;
    Ok(out.pop().expect("one output per query"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(side: Option<Side>, range: QueryRange, projection: Projection) -> Query {
        Query {
            side,
            range,
            projection,
        }
    }

    #[test]
    fn per_side_projections_require_a_side() {
        for p in [
            Projection::Blocks,
            Projection::InterArrival,
            Projection::Difficulty,
        ] {
            assert!(q(None, QueryRange::All, p).validate().is_err());
            assert!(q(Some(Side::Eth), QueryRange::All, p).validate().is_ok());
        }
    }

    #[test]
    fn tx_projections_reject_block_ranges() {
        let blocks = QueryRange::Blocks { first: 0, last: 10 };
        assert!(q(Some(Side::Eth), blocks, Projection::Txs)
            .validate()
            .is_err());
        assert!(q(None, blocks, Projection::TxRatioPerDay)
            .validate()
            .is_err());
        assert!(q(
            Some(Side::Etc),
            blocks,
            Projection::Echoes { window_days: 7 }
        )
        .validate()
        .is_err());
        let time = QueryRange::Time { start: 0, end: 10 };
        assert!(q(Some(Side::Eth), time, Projection::Txs).validate().is_ok());
    }

    #[test]
    fn ratio_is_cross_side_only() {
        assert!(
            q(Some(Side::Eth), QueryRange::All, Projection::TxRatioPerDay)
                .validate()
                .is_err()
        );
        assert!(q(None, QueryRange::All, Projection::TxRatioPerDay)
            .validate()
            .is_ok());
    }

    #[test]
    fn zero_day_echo_window_rejected() {
        assert!(q(
            Some(Side::Eth),
            QueryRange::All,
            Projection::Echoes { window_days: 0 }
        )
        .validate()
        .is_err());
    }

    #[test]
    fn day_in_range_uses_overlap() {
        let r = QueryRange::Time {
            start: 86_400 + 10,
            end: 3 * 86_400 - 1,
        };
        assert!(!day_in_range(&r, 0));
        assert!(day_in_range(&r, 1), "partial overlap at the start counts");
        assert!(day_in_range(&r, 2));
        assert!(!day_in_range(&r, 3));
    }
}
