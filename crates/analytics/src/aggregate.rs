//! The paper aggregates, each as one fold.
//!
//! The live [`crate::Pipeline`] and fork-query's archive-backed projections
//! both compute daily difficulty, transactions per day, block inter-arrival
//! histograms and echo windows. Each of those has exactly one fold here —
//! the cell, the per-day bucketing and the series it finishes into — and
//! both consumers push records into it. Floating-point addition is not
//! associative, so "the same numbers in the same order" is the *only* way
//! two consumers produce bit-identical series; one fold fed in per-side
//! ingestion order makes that equality hold by construction instead of by
//! tolerance.

use std::collections::BTreeMap;

use fork_primitives::SimTime;
use fork_replay::{EchoDetector, Side};
use fork_telemetry::HistogramSnapshot;

use crate::record::{BlockRecord, TxRecord};
use crate::series::TimeSeries;

/// Mean-accumulator cell: a running `sum / n` fold in insertion order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanCell {
    sum: f64,
    n: u64,
}

impl MeanCell {
    /// Folds one value into the mean.
    pub fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// The mean so far (`NaN` when no values were pushed).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.sum / self.n as f64
        }
    }

    /// Number of values folded in.
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// Builds a time series of per-bucket means. Bucket keys are multiples of
/// `bucket_secs` (hours → `3_600`, days → `86_400`).
pub fn mean_series(
    label: impl Into<String>,
    cells: &BTreeMap<u64, MeanCell>,
    bucket_secs: u64,
) -> TimeSeries {
    let mut s = TimeSeries::new(label);
    for (bucket, cell) in cells {
        s.push(SimTime::from_unix(bucket * bucket_secs), cell.mean());
    }
    s
}

/// Builds a time series of per-bucket counts.
pub fn count_series(
    label: impl Into<String>,
    counts: &BTreeMap<u64, u64>,
    bucket_secs: u64,
) -> TimeSeries {
    let mut s = TimeSeries::new(label);
    for (bucket, n) in counts {
        s.push(SimTime::from_unix(bucket * bucket_secs), *n as f64);
    }
    s
}

/// Mean block difficulty per day: Figure 2's top panel and the
/// `Difficulty` projection.
#[derive(Debug, Clone, Default)]
pub struct DailyDifficulty(BTreeMap<u64, MeanCell>);

impl DailyDifficulty {
    /// Folds one block's difficulty into its day's mean.
    pub fn push(&mut self, b: &BlockRecord) {
        self.0
            .entry(b.day())
            .or_default()
            .push(b.difficulty.to_f64_lossy());
    }

    /// The per-day cells, ascending by day.
    pub fn days(&self) -> &BTreeMap<u64, MeanCell> {
        &self.0
    }

    /// The per-day means as a series.
    pub fn series(&self, label: impl Into<String>) -> TimeSeries {
        mean_series(label, &self.0, 86_400)
    }
}

/// Transactions per day: Figure 2's middle panel and each side of the
/// `TxRatioPerDay` projection.
#[derive(Debug, Clone, Default)]
pub struct DailyTxs(BTreeMap<u64, u64>);

impl DailyTxs {
    /// Counts one transaction into its day.
    pub fn push(&mut self, t: &TxRecord) {
        *self.0.entry(t.day()).or_default() += 1;
    }

    /// The per-day counts, ascending by day.
    pub fn days(&self) -> &BTreeMap<u64, u64> {
        &self.0
    }

    /// The per-day counts as a series.
    pub fn series(&self, label: impl Into<String>) -> TimeSeries {
        count_series(label, &self.0, 86_400)
    }
}

/// Block inter-arrival times of one side: the seconds between consecutive
/// blocks' timestamps, log2-bucketed exactly as the engine's
/// `meso.interarrival.*` histograms. The `InterArrival` projection.
#[derive(Debug, Clone, Default)]
pub struct InterArrival {
    histogram: HistogramSnapshot,
    prev: Option<u64>,
}

impl InterArrival {
    /// Folds one block in; returns its gap to the previous block, if any.
    pub fn push(&mut self, b: &BlockRecord) -> Option<u64> {
        let gap = self.prev.map(|p| b.timestamp.saturating_sub(p));
        if let Some(gap) = gap {
            self.histogram.record(gap);
        }
        self.prev = Some(b.timestamp);
        gap
    }

    /// The histogram so far.
    pub fn histogram(&self) -> &HistogramSnapshot {
        &self.histogram
    }
}

/// Echoes into `side`, summed over consecutive `window_days`-day windows of
/// the days `keep_day` admits. The detector must have seen both sides'
/// transactions in global ingestion order. One-day windows over every day
/// are Figure 4's echoes per day.
pub fn echo_windows(
    detector: &EchoDetector,
    side: Side,
    window_days: u64,
    keep_day: impl Fn(u64) -> bool,
) -> TimeSeries {
    let mut windows = BTreeMap::new();
    for (day, stats) in detector.daily(side) {
        if keep_day(day) {
            *windows.entry(day / window_days).or_default() += stats.echoes;
        }
    }
    count_series(side.label(), &windows, window_days * 86_400)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_cell_folds_in_order() {
        let mut cell = MeanCell::default();
        assert!(cell.mean().is_nan());
        cell.push(1.0);
        cell.push(2.0);
        cell.push(4.0);
        assert_eq!(cell.mean(), (1.0 + 2.0 + 4.0) / 3.0);
        assert_eq!(cell.count(), 3);
    }

    #[test]
    fn series_builders_scale_buckets() {
        let mut cells = BTreeMap::new();
        cells
            .entry(2u64)
            .or_insert_with(MeanCell::default)
            .push(10.0);
        let s = mean_series("m", &cells, 86_400);
        assert_eq!(s.points, vec![(2 * 86_400, 10.0)]);

        let mut counts = BTreeMap::new();
        counts.insert(3u64, 7u64);
        let c = count_series("c", &counts, 3_600);
        assert_eq!(c.points, vec![(3 * 3_600, 7.0)]);
    }

    #[test]
    fn interarrival_records_gaps_between_consecutive_blocks() {
        use fork_primitives::{Address, H256, U256};
        let block = |timestamp| BlockRecord {
            network: Side::Eth,
            number: 0,
            hash: H256::default(),
            timestamp,
            difficulty: U256::ONE,
            beneficiary: Address::ZERO,
            gas_used: 0,
            tx_count: 0,
            ommer_count: 0,
        };
        let mut fold = InterArrival::default();
        let gaps: Vec<_> = [100, 114, 114, 1_314]
            .into_iter()
            .map(|ts| fold.push(&block(ts)))
            .collect();
        assert_eq!(gaps, vec![None, Some(14), Some(0), Some(1_200)]);
        let mut want = HistogramSnapshot::default();
        for gap in [14, 0, 1_200] {
            want.record(gap);
        }
        assert_eq!(fold.histogram(), &want);
    }

    #[test]
    fn echo_windows_sum_kept_days() {
        use fork_primitives::H256;
        let mut detector = EchoDetector::new();
        // One echo into ETC on each of days 0, 1, 6, 7 and 9.
        for (id, day) in [0u64, 1, 6, 7, 9].into_iter().enumerate() {
            detector.observe(Side::Eth, H256([id as u8; 32]), day);
            detector.observe(Side::Etc, H256([id as u8; 32]), day);
        }
        let daily = echo_windows(&detector, Side::Etc, 1, |_| true);
        assert_eq!(daily.points.len(), 5);
        let weekly = echo_windows(&detector, Side::Etc, 7, |_| true);
        assert_eq!(weekly.points, vec![(0, 3.0), (7 * 86_400, 2.0)]);
        let kept = echo_windows(&detector, Side::Etc, 7, |day| day >= 1);
        assert_eq!(kept.points, vec![(0, 2.0), (7 * 86_400, 2.0)]);
        assert!(echo_windows(&detector, Side::Eth, 1, |_| true)
            .points
            .iter()
            .all(|&(_, n)| n == 0.0));
    }
}
