//! Counters, gauges, and log-scale histograms.
//!
//! All types are `const`-constructible (usable as crate-level `static`s) and
//! use relaxed atomics: readers only ever see totals via [`Histogram::snapshot`]
//! and friends, so no ordering stronger than `Relaxed` is needed.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero (usable in `static` initialisers).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// A signed instantaneous value (queue depths, balances).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// New gauge at zero (usable in `static` initialisers).
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }

    /// Back to zero.
    pub fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// Fixed-bucket log2 histogram of `u64` samples.
///
/// 65 buckets cover the full `u64` domain, so recording never saturates
/// or clips; merges of snapshots are exact (bucket-wise sums).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram (usable in `static` initialisers).
    pub const fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        self.buckets[super::bucket_index(v)].fetch_add(1, Relaxed);
    }

    /// Plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Relaxed);
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Relaxed);
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Relaxed)
            },
            max: self.max.load(Relaxed),
            buckets,
        }
    }

    /// Back to empty.
    pub fn reset(&self) {
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
    }
}

/// Bucket for a sample: 0 for zero, else `64 - leading_zeros` (so bucket `i`
/// spans `[2^(i-1), 2^i)`). Public so downstream consumers (fork-query's
/// archive-derived histograms) can bucket identically to [`Histogram`].
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive-exclusive value range `[lo, hi)` covered by a bucket index.
/// Downstream exporters use this to turn bucket counts back into value-axis
/// series (e.g. inter-arrival histograms → figure data).
pub fn bucket_range(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        (1u64 << (i - 1), if i == 64 { u64::MAX } else { 1u64 << i })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn counter_semantics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_semantics() {
        let g = Gauge::new();
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
        g.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().min, 0, "empty histogram reports min 0");
        for v in [0u64, 1, 3, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 3 + 1000).wrapping_add(u64::MAX)
        );
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
        h.reset();
        assert_eq!(h.snapshot().count, 0);
    }
}
