//! Scoped span timers with parent/child attribution.
//!
//! A [`SpanStats`] accumulates timings for one named phase; entering it
//! returns a [`Span`] guard that records on drop. Guards nest through a
//! thread-local stack: when an inner span closes, its wall time is also
//! added to the enclosing span's `child_ns`, so a snapshot can report *self*
//! time (`total - child`) per phase without the phases knowing about each
//! other.

use crate::snapshot::SpanSnapshot;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<Arc<SpanStats>>> = const { RefCell::new(Vec::new()) };
}

/// Accumulated timings for one named phase.
#[derive(Debug, Default)]
pub struct SpanStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    /// New empty stats (usable in `static` initialisers).
    pub const fn new() -> Self {
        SpanStats {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            child_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Starts a timed span; the returned guard records on drop.
    pub fn enter(self: &Arc<Self>) -> Span {
        SPAN_STACK.with(|stack| stack.borrow_mut().push(Arc::clone(self)));
        Span {
            start: Instant::now(),
        }
    }

    /// Plain-data copy of the current state.
    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            count: self.count.load(Relaxed),
            total_ns: self.total_ns.load(Relaxed),
            child_ns: self.child_ns.load(Relaxed),
            max_ns: self.max_ns.load(Relaxed),
        }
    }

    /// Back to empty.
    pub fn reset(&self) {
        self.count.store(0, Relaxed);
        self.total_ns.store(0, Relaxed);
        self.child_ns.store(0, Relaxed);
        self.max_ns.store(0, Relaxed);
    }
}

/// Guard for an in-flight span; records its elapsed time when dropped.
#[derive(Debug)]
pub struct Span {
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(stats) = stack.pop() {
                stats.count.fetch_add(1, Relaxed);
                stats.total_ns.fetch_add(elapsed, Relaxed);
                stats.max_ns.fetch_max(elapsed, Relaxed);
            }
            if let Some(parent) = stack.last() {
                parent.child_ns.fetch_add(elapsed, Relaxed);
            }
        });
    }
}

/// Times `f` under `stats` and returns its result.
pub fn timed<T>(stats: &Arc<SpanStats>, f: impl FnOnce() -> T) -> T {
    let _span = stats.enter();
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_count_and_time() {
        let stats = Arc::new(SpanStats::new());
        for _ in 0..3 {
            let _span = stats.enter();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.count, 3);
        assert!(snap.max_ns <= snap.total_ns || snap.total_ns == 0);
        stats.reset();
        assert_eq!(stats.snapshot().count, 0);
    }

    #[test]
    fn nested_spans_attribute_child_time() {
        let outer = Arc::new(SpanStats::new());
        let inner = Arc::new(SpanStats::new());
        {
            let _o = outer.enter();
            for _ in 0..2 {
                let _i = inner.enter();
                std::hint::black_box((0..1000).sum::<u64>());
            }
        }
        let o = outer.snapshot();
        let i = inner.snapshot();
        assert_eq!(o.count, 1);
        assert_eq!(i.count, 2);
        assert_eq!(o.child_ns, i.total_ns, "outer child time is inner total");
        assert!(o.total_ns >= o.child_ns, "self time never negative");
        assert_eq!(i.child_ns, 0);
    }

    #[test]
    fn timed_returns_value() {
        let stats = Arc::new(SpanStats::new());
        let v = timed(&stats, || 7u32);
        assert_eq!(v, 7);
        assert_eq!(stats.snapshot().count, 1);
    }
}
