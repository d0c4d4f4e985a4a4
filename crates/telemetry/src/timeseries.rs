//! A fixed-capacity, 1 s-resolution time-series ring of sampled gauges,
//! plus a Prometheus text-exposition rendering of a registry [`Snapshot`].
//!
//! Like the snapshot types, everything here is **plain data**: a daemon
//! samples whatever numbers it has into a [`SeriesRing`], and the ring
//! itself never touches atomics or clocks. Ticks are assigned by the producer
//! (`push` hands out consecutive tick numbers), so a ring decoded from the
//! wire re-renders byte-identically to the producer's own.

use std::collections::{BTreeMap, VecDeque};

use crate::snapshot::Snapshot;
use crate::{bucket_range, BUCKETS};

/// One sampling instant: a tick number plus named gauge values.
///
/// Value names are free-form (`"connections"`, `"p99_us.blocks"`); a sample
/// carries only the series that had data at that tick, so consumers must
/// treat a missing name as "no observation", not zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesSample {
    /// Monotonic tick number assigned by [`SeriesRing::push`].
    pub tick: u64,
    /// Sampled values, keyed by series name (sorted, deterministic).
    pub values: BTreeMap<String, f64>,
}

/// A bounded ring of [`SeriesSample`]s: pushing past capacity drops the
/// oldest sample. Tick numbers keep increasing, so consumers can tell "ring
/// wrapped" from "daemon restarted".
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRing {
    capacity: usize,
    next_tick: u64,
    samples: VecDeque<SeriesSample>,
}

impl SeriesRing {
    /// New empty ring holding at most `capacity` samples (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SeriesRing {
            capacity: capacity.max(1),
            next_tick: 0,
            samples: VecDeque::new(),
        }
    }

    /// Reassembles a ring from decoded parts (the wire path). Rejects
    /// inconsistent parts instead of constructing an impossible ring.
    pub fn from_parts(
        capacity: usize,
        next_tick: u64,
        samples: Vec<SeriesSample>,
    ) -> Result<Self, String> {
        if capacity == 0 {
            return Err("ring capacity must be non-zero".into());
        }
        if samples.len() > capacity {
            return Err(format!(
                "ring holds {} samples but claims capacity {capacity}",
                samples.len()
            ));
        }
        if samples.iter().any(|s| s.tick >= next_tick) {
            return Err("sample tick at or past next_tick".into());
        }
        Ok(SeriesRing {
            capacity,
            next_tick,
            samples: samples.into(),
        })
    }

    /// Appends one sample, assigning and returning its tick number. Drops
    /// the oldest sample when full.
    pub fn push(&mut self, values: BTreeMap<String, f64>) -> u64 {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.samples.push_back(SeriesSample { tick, values });
        while self.samples.len() > self.capacity {
            self.samples.pop_front();
        }
        tick
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been pushed (or all have been dropped).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Maximum number of samples the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The tick the next [`push`](Self::push) will be assigned (equals the
    /// total number of samples ever pushed).
    pub fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &SeriesSample> {
        self.samples.iter()
    }

    /// Every series name appearing in any retained sample, sorted.
    pub fn series_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .samples
            .iter()
            .flat_map(|s| s.values.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The `(tick, value)` points of one named series, oldest first. Ticks
    /// where the series had no observation are skipped.
    pub fn series(&self, name: &str) -> Vec<(u64, f64)> {
        self.samples
            .iter()
            .filter_map(|s| s.values.get(name).map(|&v| (s.tick, v)))
            .collect()
    }
}

/// Sanitizes a metric name into the Prometheus charset: `[a-zA-Z0-9_:]`,
/// everything else becomes `_` (so `serve.latency.blocks` exposes as
/// `serve_latency_blocks`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders a registry [`Snapshot`] in the Prometheus text exposition format
/// (version 0.0.4): counters and gauges as single samples, histograms as
/// cumulative `_bucket{le="..."}` samples plus `_sum`/`_count`, spans as a
/// `_count` counter and a `_ns_total` counter.
///
/// Log2 buckets map to `le` bounds of `2^i − 1` (bucket `i` holds values in
/// `[2^(i-1), 2^i)`, i.e. `≤ 2^i − 1`); the top bucket folds into `+Inf`.
/// Rendering is deterministic: `BTreeMap` order, integer-exact values.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for (i, &count) in h.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            if i + 1 == BUCKETS {
                // The top bucket's upper bound is u64::MAX: fold into +Inf.
                continue;
            }
            let le = bucket_range(i).1 - 1;
            out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{n}_bucket{{le=\"+Inf\"}} {count}\n{n}_sum {sum}\n{n}_count {count}\n",
            count = h.count,
            sum = h.sum,
        ));
    }
    for (name, s) in &snap.spans {
        let n = prom_name(name);
        out.push_str(&format!(
            "# TYPE {n}_count counter\n{n}_count {}\n# TYPE {n}_ns_total counter\n{n}_ns_total {}\n",
            s.count, s.total_ns,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::HistogramSnapshot;

    fn sample(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn ring_drops_oldest_and_keeps_ticks_monotonic() {
        let mut ring = SeriesRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5u64 {
            let tick = ring.push(sample(&[("x", i as f64)]));
            assert_eq!(tick, i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.next_tick(), 5);
        assert_eq!(
            ring.series("x"),
            vec![(2, 2.0), (3, 3.0), (4, 4.0)],
            "the two oldest samples must be gone"
        );
    }

    #[test]
    fn series_extraction_skips_missing_observations() {
        let mut ring = SeriesRing::new(8);
        ring.push(sample(&[("a", 1.0), ("b", 10.0)]));
        ring.push(sample(&[("a", 2.0)]));
        ring.push(sample(&[("b", 30.0)]));
        assert_eq!(ring.series_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(ring.series("a"), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(ring.series("b"), vec![(0, 10.0), (2, 30.0)]);
        assert!(ring.series("c").is_empty());
    }

    #[test]
    fn from_parts_validates_and_roundtrips() {
        let mut ring = SeriesRing::new(4);
        for i in 0..6u64 {
            ring.push(sample(&[("x", i as f64)]));
        }
        let rebuilt = SeriesRing::from_parts(
            ring.capacity(),
            ring.next_tick(),
            ring.samples().cloned().collect(),
        )
        .unwrap();
        assert_eq!(rebuilt, ring);

        assert!(SeriesRing::from_parts(0, 0, vec![]).is_err(), "zero cap");
        assert!(
            SeriesRing::from_parts(
                1,
                2,
                vec![sample(&[]), sample(&[])]
                    .into_iter()
                    .enumerate()
                    .map(|(i, values)| SeriesSample {
                        tick: i as u64,
                        values
                    })
                    .collect()
            )
            .is_err(),
            "more samples than capacity"
        );
        assert!(
            SeriesRing::from_parts(
                4,
                1,
                vec![SeriesSample {
                    tick: 3,
                    values: sample(&[])
                }]
            )
            .is_err(),
            "tick past next_tick"
        );
    }

    #[test]
    fn prometheus_text_is_valid_and_cumulative() {
        let mut snap = Snapshot::default();
        snap.counters.insert("serve.queries".into(), 42);
        snap.gauges.insert("serve.connections".into(), -3);
        let mut h = HistogramSnapshot::default();
        for v in [1u64, 1, 3, 3, 3, 900] {
            h.record(v);
        }
        snap.histograms.insert("serve.latency.blocks".into(), h);

        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE serve_queries counter\nserve_queries 42\n"));
        assert!(text.contains("# TYPE serve_connections gauge\nserve_connections -3\n"));
        assert!(text.contains("# TYPE serve_latency_blocks histogram\n"));
        // 1,1 → bucket [1,2) le=1; 3,3,3 → bucket [2,4) le=3; 900 → [512,1024) le=1023.
        assert!(text.contains("serve_latency_blocks_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("serve_latency_blocks_bucket{le=\"3\"} 5\n"));
        assert!(text.contains("serve_latency_blocks_bucket{le=\"1023\"} 6\n"));
        assert!(text.contains("serve_latency_blocks_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("serve_latency_blocks_sum 911\n"));
        assert!(text.contains("serve_latency_blocks_count 6\n"));
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
            let bare = name.split('{').next().unwrap();
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "unsanitized name {bare}"
            );
        }
    }

    #[test]
    fn top_bucket_folds_into_inf() {
        let mut h = HistogramSnapshot::default();
        h.record(u64::MAX);
        let mut snap = Snapshot::default();
        snap.histograms.insert("big".into(), h);
        let text = prometheus_text(&snap);
        assert!(text.contains("big_bucket{le=\"+Inf\"} 1\n"));
        assert!(!text.contains("le=\"18446744073709551614\""));
    }
}
