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
//! Aggregates reuse the exact fold code the live pipeline uses
//! (`fork_analytics::aggregate`) and the exact bucketing the telemetry
//! histograms use (`fork_telemetry::bucket_index`), so a full-range query
//! reproduces the live run's series and histograms bit-identically.

use std::collections::BTreeMap;

use fork_analytics::{
    count_series, mean_series, ratio, BlockRecord, MeanCell, TimeSeries, TxRecord,
};
use fork_archive::{ArchiveError, ArchiveReader, ArchiveRecord};
use fork_primitives::SimTime;
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

/// Evaluates `query` against `source`. This is the single evaluation path:
/// the executor and the naive reference differ only in the `source` they
/// pass in.
pub(crate) fn evaluate(
    source: &dyn RecordSource,
    query: &Query,
) -> Result<QueryOutput, QueryError> {
    query.validate()?;
    match query.projection {
        Projection::Blocks => {
            let side = query.side.expect("validated");
            let mut out = Vec::new();
            for item in source.stream(side, &query.range) {
                if let (_, ArchiveRecord::Block(b)) = item? {
                    if block_in_range(&query.range, &b) {
                        out.push(b);
                    }
                }
            }
            Ok(QueryOutput::Blocks(out))
        }
        Projection::Txs => {
            let side = query.side.expect("validated");
            let mut out = Vec::new();
            for item in source.stream(side, &query.range) {
                if let (_, ArchiveRecord::Tx(t)) = item? {
                    if ts_in_range(&query.range, t.timestamp) {
                        out.push(t);
                    }
                }
            }
            Ok(QueryOutput::Txs(out))
        }
        Projection::InterArrival => {
            let side = query.side.expect("validated");
            // `HistogramSnapshot::record` mirrors the live histogram's
            // bucketing without the live type, so results are identical
            // whether or not the build enables the `enabled` feature.
            let mut h = HistogramSnapshot::default();
            let mut prev: Option<u64> = None;
            for item in source.stream(side, &query.range) {
                if let (_, ArchiveRecord::Block(b)) = item? {
                    if !block_in_range(&query.range, &b) {
                        continue;
                    }
                    if let Some(p) = prev {
                        h.record(b.timestamp.saturating_sub(p));
                    }
                    prev = Some(b.timestamp);
                }
            }
            Ok(QueryOutput::Histogram(Box::new(h)))
        }
        Projection::Difficulty => {
            let side = query.side.expect("validated");
            let mut cells: BTreeMap<u64, MeanCell> = BTreeMap::new();
            for item in source.stream(side, &query.range) {
                if let (_, ArchiveRecord::Block(b)) = item? {
                    if block_in_range(&query.range, &b) {
                        cells
                            .entry(b.timestamp / 86_400)
                            .or_default()
                            .push(b.difficulty.to_f64_lossy());
                    }
                }
            }
            Ok(QueryOutput::Series(mean_series(
                side.label(),
                &cells,
                86_400,
            )))
        }
        Projection::TxRatioPerDay => {
            let mut daily = [BTreeMap::<u64, u64>::new(), BTreeMap::new()];
            for (i, side) in [Side::Eth, Side::Etc].into_iter().enumerate() {
                for item in source.stream(side, &query.range) {
                    if let (_, ArchiveRecord::Tx(t)) = item? {
                        if ts_in_range(&query.range, t.timestamp) {
                            *daily[i].entry(t.timestamp / 86_400).or_default() += 1;
                        }
                    }
                }
            }
            let eth = count_series(Side::Eth.label(), &daily[0], 86_400);
            let etc = count_series(Side::Etc.label(), &daily[1], 86_400);
            Ok(QueryOutput::Series(ratio(&eth, &etc, "ETH:ETC")))
        }
        Projection::Echoes { window_days } => {
            let side = query.side.expect("validated");
            // Echo-ness depends on which side saw a hash *first*, so the
            // detector must see the whole cross-side stream in the original
            // global order regardless of the query range; the range only
            // restricts which days are emitted.
            let detector = run_echo_detector(source)?;
            let mut windows: BTreeMap<u64, u64> = BTreeMap::new();
            for (day, stats) in detector.daily(side) {
                if day_in_range(&query.range, day) {
                    *windows.entry(day / window_days).or_default() += stats.echoes;
                }
            }
            let mut s = TimeSeries::new(side.label());
            for (w, echoes) in windows {
                s.push(SimTime::from_unix(w * window_days * 86_400), echoes as f64);
            }
            Ok(QueryOutput::Series(s))
        }
    }
}

/// Replays every transaction on both sides through an [`EchoDetector`] in
/// the original global ingestion order (merge by sequence number — the same
/// merge `ArchiveReader::replay_into` performs). Both streams are `All`, so
/// echo queries of any range read past the frame cache.
fn run_echo_detector(source: &dyn RecordSource) -> Result<EchoDetector, QueryError> {
    let mut eth = source.stream(Side::Eth, &QueryRange::All).peekable();
    let mut etc = source.stream(Side::Etc, &QueryRange::All).peekable();
    let mut detector = EchoDetector::new();
    loop {
        let take_eth = match (peek_seq(&mut eth)?, peek_seq(&mut etc)?) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(b)) => a <= b,
        };
        let stream = if take_eth { &mut eth } else { &mut etc };
        let (_, record) = stream.next().expect("peeked Some")?;
        if let ArchiveRecord::Tx(t) = record {
            detector.observe(t.network, t.hash, t.timestamp / 86_400);
        }
    }
    Ok(detector)
}

pub(crate) type RecordIter<'a> =
    Box<dyn Iterator<Item = Result<(u64, ArchiveRecord), ArchiveError>> + 'a>;

pub(crate) fn peek_seq(
    it: &mut std::iter::Peekable<RecordIter<'_>>,
) -> Result<Option<u64>, QueryError> {
    match it.peek() {
        None => Ok(None),
        Some(Ok((seq, _))) => Ok(Some(*seq)),
        Some(Err(_)) => {
            let err = it.next().expect("peeked Some").expect_err("peeked Err");
            Err(err.into())
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
