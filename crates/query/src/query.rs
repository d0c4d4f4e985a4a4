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
//! Aggregates stream into the very folds the live pipeline uses
//! (`fork_analytics::aggregate`, one fold per aggregate; the inter-arrival
//! fold buckets as the engine's telemetry histograms do), so a full-range
//! query reproduces the live run's series and histograms bit-identically.

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

/// Streams the in-range blocks of `side` into `f`, in write order.
fn for_each_block(
    source: &dyn RecordSource,
    side: Side,
    range: &QueryRange,
    mut f: impl FnMut(BlockRecord),
) -> Result<(), QueryError> {
    for item in source.stream(side, range) {
        if let (_, ArchiveRecord::Block(b)) = item? {
            if block_in_range(range, &b) {
                f(b);
            }
        }
    }
    Ok(())
}

/// Streams the in-range transactions of `side` into `f`, in write order.
fn for_each_tx(
    source: &dyn RecordSource,
    side: Side,
    range: &QueryRange,
    mut f: impl FnMut(TxRecord),
) -> Result<(), QueryError> {
    for item in source.stream(side, range) {
        if let (_, ArchiveRecord::Tx(t)) = item? {
            if ts_in_range(range, t.timestamp) {
                f(t);
            }
        }
    }
    Ok(())
}

/// Evaluates `query` against `source`. This is the single evaluation path:
/// the executor and the naive reference differ only in the `source` they
/// pass in. Each aggregate streams its in-range records into the live
/// pipeline's own fold (`fork_analytics::aggregate`) and finishes it.
pub(crate) fn evaluate(
    source: &dyn RecordSource,
    query: &Query,
) -> Result<QueryOutput, QueryError> {
    query.validate()?;
    let range = &query.range;
    match query.projection {
        Projection::Blocks => {
            let mut out = Vec::new();
            for_each_block(source, query.side.expect("validated"), range, |b| {
                out.push(b)
            })?;
            Ok(QueryOutput::Blocks(out))
        }
        Projection::Txs => {
            let mut out = Vec::new();
            for_each_tx(source, query.side.expect("validated"), range, |t| {
                out.push(t)
            })?;
            Ok(QueryOutput::Txs(out))
        }
        Projection::InterArrival => {
            let mut fold = InterArrival::default();
            for_each_block(source, query.side.expect("validated"), range, |b| {
                fold.push(&b);
            })?;
            Ok(QueryOutput::Histogram(Box::new(fold.histogram().clone())))
        }
        Projection::Difficulty => {
            let side = query.side.expect("validated");
            let mut fold = DailyDifficulty::default();
            for_each_block(source, side, range, |b| fold.push(&b))?;
            Ok(QueryOutput::Series(fold.series(side.label())))
        }
        Projection::TxRatioPerDay => {
            let [mut eth, mut etc] = [DailyTxs::default(), DailyTxs::default()];
            for_each_tx(source, Side::Eth, range, |t| eth.push(&t))?;
            for_each_tx(source, Side::Etc, range, |t| etc.push(&t))?;
            Ok(QueryOutput::Series(ratio(
                &eth.series(Side::Eth.label()),
                &etc.series(Side::Etc.label()),
                "ETH:ETC",
            )))
        }
        Projection::Echoes { window_days } => {
            // Echo-ness depends on which side saw a hash *first*, so the
            // detector sees both whole sides in the original global order
            // whatever the query range; the range only restricts which days
            // are emitted. Both streams are `All`, so echo queries of any
            // range read past the frame cache.
            let mut detector = EchoDetector::new();
            let eth = source.stream(Side::Eth, &QueryRange::All);
            let etc = source.stream(Side::Etc, &QueryRange::All);
            for item in merge_by_seq(eth, etc) {
                if let (_, ArchiveRecord::Tx(t)) = item? {
                    detector.observe(t.network, t.hash, t.day());
                }
            }
            let side = query.side.expect("validated");
            Ok(QueryOutput::Series(echo_windows(
                &detector,
                side,
                window_days,
                |day| day_in_range(range, day),
            )))
        }
    }
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
