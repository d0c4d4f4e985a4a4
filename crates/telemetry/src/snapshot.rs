//! Plain-data snapshots of metrics, with merge, table, and JSON export.
//!
//! These types carry no atomics and exist so results can flow through APIs
//! (`StudyResult`, figure tools) without holding live metrics.

use crate::metrics::{bucket_index, bucket_range, BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Frozen state of a [`crate::Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Wrapping sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts; bucket 0 holds zeros, bucket `i` holds
    /// values in `[2^(i-1), 2^i)`.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self`. Bucket-wise addition: associative,
    /// commutative, and total-count preserving.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.min = match (self.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean sample value (0.0 when empty). Approximate once `sum` wraps.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Records one sample into this plain-data snapshot, with the same
    /// bucketing as the live `Histogram::record`, so client-side latency
    /// collection and archive-derived histograms share one code path with
    /// server-side metrics.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
        } else {
            self.min = self.min.min(v);
        }
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Estimated value at percentile `p` (clamped to `0..=100`): walks the
    /// log2 buckets to the one covering the target rank and interpolates at
    /// the rank's midpoint — over the bucket's span *intersected with* the
    /// observed `[min, max]` envelope, so estimates never leave the range of
    /// values actually recorded. Pinned exact cases: an empty histogram is
    /// 0 at every percentile; a constant stream (including a single sample)
    /// is that constant; `p <= 0` is `min` and `p >= 100` is `max`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if self.min == self.max {
            // Single sample or a constant stream: the answer is exact.
            return self.min;
        }
        let p = p.clamp(0.0, 100.0);
        if p <= 0.0 {
            return self.min;
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (blo, bhi) = bucket_range(i);
                // Interpolate only over the part of the bucket the observed
                // envelope allows; a fully clamped bucket is a point. `hi`
                // is exclusive, so the envelope's top is `max + 1`.
                let lo = blo.max(self.min);
                let hi = bhi.min(self.max.saturating_add(1));
                if lo >= hi {
                    return lo.clamp(self.min, self.max);
                }
                // Midpoint of the rank's slot: (0, 1), never the bucket
                // edges — a lone sample estimates the bucket middle, not
                // its top.
                let into = ((rank - seen) as f64 - 0.5) / n as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median estimate; see [`HistogramSnapshot::percentile`].
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th-percentile estimate; see [`HistogramSnapshot::percentile`].
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th-percentile estimate; see [`HistogramSnapshot::percentile`].
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// Frozen state of a [`crate::SpanStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall time, including children.
    pub total_ns: u64,
    /// Wall time attributed to nested child spans.
    pub child_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Wall time excluding nested children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Folds `other` into `self` (counts and times add, max takes max).
    pub fn merge(&mut self, other: &SpanSnapshot) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.child_ns += other.child_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// How span timings appear in JSON export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// Real wall-clock nanoseconds.
    Wall,
    /// All nanosecond fields written as zero; span *counts* remain. Used by
    /// determinism tests, where timings are the only nondeterministic data.
    Zeroed,
}

/// A frozen, mergeable view of a whole registry (plus any crate-static
/// metrics folded in via `snapshot_into` helpers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timings by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// Folds `other` into `self`: counters/gauges add, histograms and spans
    /// merge element-wise.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (name, s) in &other.spans {
            self.spans.entry(name.clone()).or_default().merge(s);
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Human-readable table of every metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(
                "SPANS                                    count     total      self       max\n",
            );
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<38} {:>7} {:>9} {:>9} {:>9}",
                    name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.self_ns()),
                    fmt_ns(s.max_ns),
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("COUNTERS\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<38} {v:>15}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("GAUGES\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<38} {v:>15}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "HISTOGRAMS                                 count       min      mean       max\n",
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<38} {:>7} {:>9} {:>9.1} {:>9}",
                    name,
                    h.count,
                    h.min,
                    h.mean(),
                    h.max,
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Machine-readable JSON. Integer-exact, key-ordered (`BTreeMap`), and —
    /// with [`TimingMode::Zeroed`] — byte-identical across identical seeded
    /// runs.
    pub fn to_json(&self, timing: TimingMode) -> String {
        let mut out = String::from("{\n  \"schema\": \"fork-telemetry/v1\",\n");

        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {v}", crate::json::quote(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(out, "{sep}    {}: {v}", crate::json::quote(name));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let (total, child, self_ns, max) = match timing {
                TimingMode::Wall => (s.total_ns, s.child_ns, s.self_ns(), s.max_ns),
                TimingMode::Zeroed => (0, 0, 0, 0),
            };
            let _ = write!(
                out,
                "{sep}    {}: {{\"count\": {}, \"total_ns\": {total}, \"self_ns\": {self_ns}, \"child_ns\": {child}, \"max_ns\": {max}}}",
                crate::json::quote(name),
                s.count,
            );
        }
        out.push_str(if self.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                crate::json::quote(name),
                h.count,
                h.sum,
                h.min,
                h.max,
            );
            let mut first = true;
            for (idx, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    let (lo, _) = bucket_range(idx);
                    let _ = write!(out, "{}[{lo}, {n}]", if first { "" } else { ", " });
                    first = false;
                }
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });

        out.push_str("}\n");
        out
    }

    /// Parses a snapshot previously written by [`Snapshot::to_json`] (a
    /// `--telemetry-out` file). The inverse up to histogram `min`/`max`
    /// fields, which round-trip exactly, and bucket placement, which is
    /// reconstructed from each bucket's lower bound.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let value = crate::json::Value::parse(text).map_err(|e| e.to_string())?;
        if value["schema"].as_str() != Some("fork-telemetry/v1") {
            return Err("not a fork-telemetry/v1 snapshot".into());
        }
        let mut snap = Snapshot::default();
        if let Some(crate::json::Value::Obj(fields)) = value.get("counters") {
            for (name, v) in fields {
                let v = v.as_u64().ok_or_else(|| format!("counter {name}"))?;
                snap.counters.insert(name.clone(), v);
            }
        }
        if let Some(crate::json::Value::Obj(fields)) = value.get("gauges") {
            for (name, v) in fields {
                let v = v.as_f64().ok_or_else(|| format!("gauge {name}"))?;
                snap.gauges.insert(name.clone(), v as i64);
            }
        }
        if let Some(crate::json::Value::Obj(fields)) = value.get("spans") {
            for (name, s) in fields {
                let field = |k: &str| s[k].as_u64().ok_or_else(|| format!("span {name}.{k}"));
                snap.spans.insert(
                    name.clone(),
                    SpanSnapshot {
                        count: field("count")?,
                        total_ns: field("total_ns")?,
                        child_ns: field("child_ns")?,
                        max_ns: field("max_ns")?,
                    },
                );
            }
        }
        if let Some(crate::json::Value::Obj(fields)) = value.get("histograms") {
            for (name, h) in fields {
                let field = |k: &str| h[k].as_u64().ok_or_else(|| format!("histogram {name}.{k}"));
                let mut hs = HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    buckets: [0; BUCKETS],
                };
                let buckets = h["buckets"]
                    .as_array()
                    .ok_or_else(|| format!("histogram {name}.buckets"))?;
                for pair in buckets {
                    let (lo, n) = match (pair[0].as_u64(), pair[1].as_u64()) {
                        (Some(lo), Some(n)) => (lo, n),
                        _ => return Err(format!("histogram {name}: bad bucket entry")),
                    };
                    hs.buckets[bucket_index(lo)] += n;
                }
                snap.histograms.insert(name.clone(), hs);
            }
        }
        Ok(snap)
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{}us", ns / 1_000)
    } else if ns < 10_000_000_000 {
        format!("{}ms", ns / 1_000_000)
    } else {
        format!("{:.1}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: &[u64]) -> HistogramSnapshot {
        let h = crate::Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h.snapshot()
    }

    #[test]
    fn snapshot_merge_adds_and_maxes() {
        let mut a = Snapshot::default();
        a.counters.insert("x".into(), 2);
        a.spans.insert(
            "s".into(),
            SpanSnapshot {
                count: 1,
                total_ns: 10,
                child_ns: 4,
                max_ns: 10,
            },
        );
        let mut b = Snapshot::default();
        b.counters.insert("x".into(), 3);
        b.counters.insert("y".into(), 1);
        b.spans.insert(
            "s".into(),
            SpanSnapshot {
                count: 2,
                total_ns: 30,
                child_ns: 0,
                max_ns: 25,
            },
        );
        a.merge(&b);
        assert_eq!(a.counters["x"], 5);
        assert_eq!(a.counters["y"], 1);
        let s = &a.spans["s"];
        assert_eq!((s.count, s.total_ns, s.max_ns), (3, 40, 25));
        assert_eq!(s.self_ns(), 36);
    }

    #[test]
    fn json_shape_and_zeroed_timing() {
        let mut snap = Snapshot::default();
        snap.counters.insert("net.frames_sealed".into(), 7);
        snap.spans.insert(
            "meso.mine".into(),
            SpanSnapshot {
                count: 5,
                total_ns: 123,
                child_ns: 23,
                max_ns: 99,
            },
        );
        let wall = snap.to_json(TimingMode::Wall);
        assert!(wall.contains("\"net.frames_sealed\": 7"));
        assert!(wall.contains("\"total_ns\": 123"));
        let zeroed = snap.to_json(TimingMode::Zeroed);
        assert!(zeroed.contains("\"total_ns\": 0"));
        assert!(
            zeroed.contains("\"count\": 5"),
            "span counts survive zeroing"
        );
        let parsed = crate::json::Value::parse(&wall).expect("export parses");
        assert_eq!(parsed["counters"]["net.frames_sealed"].as_u64(), Some(7));
        assert_eq!(parsed["schema"].as_str(), Some("fork-telemetry/v1"));
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let mut snap = Snapshot::default();
        snap.counters.insert("a.b".into(), 42);
        snap.gauges.insert("depth".into(), -3);
        snap.spans.insert(
            "phase".into(),
            SpanSnapshot {
                count: 9,
                total_ns: 1_234,
                child_ns: 200,
                max_ns: 500,
            },
        );
        let mut h = HistogramSnapshot::default();
        for v in [0u64, 1, 3, 3, 1000] {
            h.buckets[bucket_index(v)] += 1;
            h.count += 1;
            h.sum += v;
            h.max = h.max.max(v);
        }
        snap.histograms.insert("sizes".into(), h);

        let parsed = Snapshot::from_json(&snap.to_json(TimingMode::Wall)).unwrap();
        assert_eq!(parsed, snap);

        assert!(Snapshot::from_json("{}").is_err(), "schema required");
        assert!(Snapshot::from_json("not json").is_err());
    }

    #[test]
    fn record_matches_manual_bucketing_and_merge() {
        let mut h = HistogramSnapshot::default();
        for v in [0u64, 1, 3, 3, 1000, 7] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1014);
        assert_eq!((h.min, h.max), (0, 1000));
        assert_eq!(h.buckets.iter().sum::<u64>(), 6);
        assert_eq!(h.buckets[bucket_index(3)], 2);

        // record() agrees with what the live histogram would have produced.
        assert_eq!(h, hist(&[0, 1, 3, 3, 1000, 7]));
    }

    #[test]
    fn percentiles_interpolate_within_log2_buckets() {
        assert_eq!(HistogramSnapshot::default().percentile(99.0), 0);

        // Constant stream: every percentile is that constant (the clamp to
        // [min, max] makes bucket interpolation exact here).
        let mut constant = HistogramSnapshot::default();
        for _ in 0..100 {
            constant.record(42);
        }
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(constant.percentile(p), 42);
        }

        // Uniform 1..=1000: estimates land within the covering power-of-two
        // bucket and stay monotone in p.
        let mut uniform = HistogramSnapshot::default();
        for v in 1..=1000u64 {
            uniform.record(v);
        }
        let (p50, p90, p99) = (uniform.p50(), uniform.p90(), uniform.p99());
        assert!((256..=1024).contains(&p50), "p50 estimate {p50}");
        assert!((512..=1024).contains(&p90), "p90 estimate {p90}");
        assert!((900..=1000).contains(&p99), "p99 estimate {p99}");
        assert!(p50 <= p90 && p90 <= p99, "{p50} <= {p90} <= {p99}");
        assert_eq!(uniform.percentile(100.0), uniform.max);
        assert_eq!(uniform.percentile(-3.0), uniform.percentile(0.0));

        // Tail-heavy: p99 must sit in the tail, p50 in the body.
        let mut tail = HistogramSnapshot::default();
        for _ in 0..980 {
            tail.record(10);
        }
        for _ in 0..20 {
            tail.record(1_000_000);
        }
        assert!(
            tail.p50() < 16,
            "p50 {} should be in the body bucket",
            tail.p50()
        );
        assert!(
            tail.p99() >= 524_288,
            "p99 {} should be in the tail",
            tail.p99()
        );
    }

    #[test]
    fn percentile_edge_cases_pin_clamped_interpolation() {
        // Empty: every percentile is 0 (no data, no envelope).
        let empty = HistogramSnapshot::default();
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(empty.percentile(p), 0);
        }

        // Single sample: exact at every percentile, including p = 0.
        let mut one = HistogramSnapshot::default();
        one.record(777);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(one.percentile(p), 777, "single sample is exact at {p}");
        }
        let mut zero = HistogramSnapshot::default();
        zero.record(0);
        assert_eq!(zero.percentile(50.0), 0);

        // Single-bucket saturation: all samples in [512, 1024) but the
        // observed envelope is [600, 700] — interpolation must stay inside
        // the envelope, not the full power-of-two bucket.
        let mut narrow = HistogramSnapshot::default();
        for v in [600u64, 640, 660, 700] {
            narrow.record(v);
        }
        let mut last = 0;
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let est = narrow.percentile(p);
            assert!(
                (600..=700).contains(&est),
                "p{p} estimate {est} escaped the observed [600, 700] envelope"
            );
            assert!(est >= last, "estimates must be monotone in p");
            last = est;
        }
        assert_eq!(narrow.percentile(100.0), narrow.max);

        // Two far-apart samples: each percentile half resolves to the
        // nearer observed value's bucket, clamped into [min, max].
        let mut pair = HistogramSnapshot::default();
        pair.record(3);
        pair.record(1_000_000);
        assert_eq!(pair.percentile(0.0), 3);
        assert_eq!(pair.percentile(50.0), 3);
        assert!(pair.percentile(51.0) >= 524_288);
        assert_eq!(pair.percentile(100.0), 1_000_000);
    }

    #[test]
    fn empty_snapshot_exports() {
        let snap = Snapshot::default();
        assert!(snap.is_empty());
        let json = snap.to_json(TimingMode::Wall);
        assert!(crate::json::Value::parse(&json).is_ok());
        assert_eq!(snap.render_table(), "(no metrics recorded)\n");
    }

    #[test]
    fn histogram_merge_preserves_shape() {
        let mut a = hist(&[1, 5, 5, 1000]);
        let b = hist(&[0, 2, u64::MAX]);
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a, ba, "merge is commutative");
        assert_eq!(a.count, 7);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, u64::MAX);
        assert_eq!(a.buckets.iter().sum::<u64>(), 7);
    }

    mod proptests {
        use super::hist;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn merge_is_associative_commutative_count_preserving(
                xs in proptest::collection::vec(any::<u64>(), 0..20),
                ys in proptest::collection::vec(any::<u64>(), 0..20),
                zs in proptest::collection::vec(any::<u64>(), 0..20),
            ) {
                let (a, b, c) = (hist(&xs), hist(&ys), hist(&zs));

                // Commutative: a+b == b+a.
                let mut ab = a.clone();
                ab.merge(&b);
                let mut ba = b.clone();
                ba.merge(&a);
                prop_assert_eq!(&ab, &ba);

                // Associative: (a+b)+c == a+(b+c).
                let mut ab_c = ab.clone();
                ab_c.merge(&c);
                let mut bc = b.clone();
                bc.merge(&c);
                let mut a_bc = a.clone();
                a_bc.merge(&bc);
                prop_assert_eq!(&ab_c, &a_bc);

                // Count-preserving, in total and per bucket.
                prop_assert_eq!(ab_c.count, (xs.len() + ys.len() + zs.len()) as u64);
                prop_assert_eq!(ab_c.buckets.iter().sum::<u64>(), ab_c.count);

                // Merging matches recording everything into one histogram.
                let mut all = Vec::new();
                all.extend_from_slice(&xs);
                all.extend_from_slice(&ys);
                all.extend_from_slice(&zs);
                prop_assert_eq!(&ab_c, &hist(&all));
            }
        }
    }
}
