//! Crate-global networking telemetry: frame integrity counters, seen-filter
//! hit rate, and gossip fan-out histograms.
//!
//! Same design as `fork_evm::telemetry`: crate-level `static`s recorded with
//! relaxed atomics, so `seal_frame`/`open_frame` and the gossip helpers
//! carry no registry in their signatures.

use fork_telemetry::{Counter, Histogram, Snapshot};

/// Frames wrapped by [`crate::seal_frame`].
static FRAMES_SEALED: Counter = Counter::new();
/// Frames successfully verified by [`crate::open_frame`].
static FRAMES_OPENED: Counter = Counter::new();
/// Frames rejected (bad checksum or truncated).
static FRAMES_CORRUPT: Counter = Counter::new();

/// Seen-filter lookups that found a duplicate (insert returned `false`).
static SEEN_HITS: Counter = Counter::new();
/// Seen-filter lookups that admitted a fresh item.
static SEEN_MISSES: Counter = Counter::new();

/// Relay plans computed by [`crate::plan_block_relay`].
static RELAY_PLANS: Counter = Counter::new();
/// Peers receiving the full block, per relay plan.
static RELAY_FULL_FANOUT: Histogram = Histogram::new();
/// Peers receiving only the hash announcement, per relay plan.
static RELAY_ANNOUNCE_FANOUT: Histogram = Histogram::new();

#[inline]
pub(crate) fn record_seal() {
    FRAMES_SEALED.incr();
}

#[inline]
pub(crate) fn record_open(ok: bool) {
    if ok {
        FRAMES_OPENED.incr();
    } else {
        FRAMES_CORRUPT.incr();
    }
}

#[inline]
pub(crate) fn record_seen_lookup(fresh: bool) {
    if fresh {
        SEEN_MISSES.incr();
    } else {
        SEEN_HITS.incr();
    }
}

#[inline]
pub(crate) fn record_relay_plan(full: usize, announce: usize) {
    RELAY_PLANS.incr();
    RELAY_FULL_FANOUT.record(full as u64);
    RELAY_ANNOUNCE_FANOUT.record(announce as u64);
}

/// Copies the crate-global totals into `snap` under `net.*` names. Zero
/// counters and empty histograms are skipped.
pub fn snapshot_into(snap: &mut Snapshot) {
    let counters = [
        ("net.frames.sealed", FRAMES_SEALED.get()),
        ("net.frames.opened", FRAMES_OPENED.get()),
        ("net.frames.corrupt", FRAMES_CORRUPT.get()),
        ("net.seen_filter.hits", SEEN_HITS.get()),
        ("net.seen_filter.misses", SEEN_MISSES.get()),
        ("net.relay.plans", RELAY_PLANS.get()),
    ];
    for (name, v) in counters {
        if v > 0 {
            snap.counters.insert(name.into(), v);
        }
    }
    for (name, h) in [
        ("net.relay.full_fanout", RELAY_FULL_FANOUT.snapshot()),
        (
            "net.relay.announce_fanout",
            RELAY_ANNOUNCE_FANOUT.snapshot(),
        ),
    ] {
        if h.count > 0 {
            snap.histograms.insert(name.into(), h);
        }
    }
}

/// Resets every crate-global networking metric to zero.
pub fn reset() {
    for c in [
        &FRAMES_SEALED,
        &FRAMES_OPENED,
        &FRAMES_CORRUPT,
        &SEEN_HITS,
        &SEEN_MISSES,
        &RELAY_PLANS,
    ] {
        c.reset();
    }
    RELAY_FULL_FANOUT.reset();
    RELAY_ANNOUNCE_FANOUT.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single test for the whole cycle: the statics are process-global and
    // other tests in this crate seal frames / plan relays concurrently, so
    // assertions are lower bounds taken from deltas.
    #[test]
    fn net_metrics_flow_into_snapshot() {
        let frame = crate::seal_frame(b"payload");
        assert!(crate::open_frame(&frame).is_some());
        assert!(crate::open_frame(&frame[..3]).is_none());
        let mut snap = Snapshot::default();
        snapshot_into(&mut snap);
        assert!(snap.counters["net.frames.sealed"] >= 1);
        assert!(snap.counters["net.frames.opened"] >= 1);
        assert!(snap.counters["net.frames.corrupt"] >= 1);
    }
}
