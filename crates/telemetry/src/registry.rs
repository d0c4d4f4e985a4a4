//! Name → metric registry.
//!
//! Hot paths call `registry.counter("name")` once and cache the returned
//! `Arc`; the registry itself is only locked at registration and snapshot
//! time, never per event.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::Snapshot;
use crate::span::SpanStats;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A set of named metrics with snapshot/reset over the whole set.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    spans: BTreeMap<String, Arc<SpanStats>>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`. Cache the `Arc` on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .counters
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .gauges
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Gets or creates the span stats `name`.
    pub fn span(&self, name: &str) -> Arc<SpanStats> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .spans
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(SpanStats::new())),
        )
    }

    /// Freezes the current state of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let mut snap = Snapshot::default();
        for (name, c) in &inner.counters {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in &inner.gauges {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in &inner.histograms {
            snap.histograms.insert(name.clone(), h.snapshot());
        }
        for (name, s) in &inner.spans {
            snap.spans.insert(name.clone(), s.snapshot());
        }
        snap
    }

    /// Zeroes every registered metric (registrations survive).
    pub fn reset(&self) {
        let inner = self.inner.lock().unwrap();
        inner.counters.values().for_each(|c| c.reset());
        inner.gauges.values().for_each(|g| g.reset());
        inner.histograms.values().for_each(|h| h.reset());
        inner.spans.values().for_each(|s| s.reset());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_deduplicates_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.incr();
        b.incr();
        assert_eq!(reg.snapshot().counters["hits"], 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_covers_all_kinds_and_reset_zeroes() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(-2);
        reg.histogram("h").record(100);
        {
            let span = reg.span("s");
            let _guard = span.enter();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(snap.gauges["g"], -2);
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.spans["s"].count, 1);

        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 0);
        assert_eq!(snap.histograms["h"].count, 0);
        assert_eq!(snap.spans["s"].count, 0);
    }
}
