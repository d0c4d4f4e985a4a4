//! Per-store chain telemetry: import outcome counters, reorg depth, and
//! import/validation span timing.
//!
//! Unlike the crate-global counters in `fork_evm::telemetry` (one interpreter
//! per process is a fine assumption), a simulation runs *many* [`ChainStore`]s
//! — two macro chains, dozens of micro-net nodes — so chain metrics live on
//! the store itself as shared-`Arc` handles. A store starts *detached*
//! (counting into private, unobserved metrics) and can be attached to a
//! [`MetricsRegistry`] under a name prefix with
//! [`ChainStore::with_telemetry`], after which the registry's snapshots see
//! its totals.
//!
//! [`ChainStore`]: crate::store::ChainStore
//! [`ChainStore::with_telemetry`]: crate::store::ChainStore::with_telemetry

use std::sync::Arc;

use fork_primitives::H256;
use fork_telemetry::{Counter, Histogram, MetricsRegistry, SpanStats, TraceEventKind, TraceSink};

/// Shared metric handles for one [`crate::store::ChainStore`].
///
/// Cloning shares the underlying atomics (clones of a store keep counting
/// into the same metrics, matching how the simulators fork stores).
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    /// Blocks that extended the canonical head.
    pub extended: Arc<Counter>,
    /// Blocks stored on side branches.
    pub side_chain: Arc<Counter>,
    /// Imports that triggered a reorg.
    pub reorged: Arc<Counter>,
    /// Duplicate imports.
    pub already_known: Arc<Counter>,
    /// Imports rejected with an error.
    pub rejected: Arc<Counter>,
    /// Blocks proposed (and sealed) by this store.
    pub proposed: Arc<Counter>,
    /// Canonical blocks rolled back, per reorg.
    pub reorg_depth: Arc<Histogram>,
    /// Wall time of [`crate::store::ChainStore::import`].
    pub import_span: Arc<SpanStats>,
    /// Wall time of header/ommer/body validation (nested inside the import
    /// span, so import self-time excludes it).
    pub validate_span: Arc<SpanStats>,
}

impl StoreMetrics {
    /// Private metrics not attached to any registry.
    pub fn detached() -> Self {
        StoreMetrics {
            extended: Arc::new(Counter::new()),
            side_chain: Arc::new(Counter::new()),
            reorged: Arc::new(Counter::new()),
            already_known: Arc::new(Counter::new()),
            rejected: Arc::new(Counter::new()),
            proposed: Arc::new(Counter::new()),
            reorg_depth: Arc::new(Histogram::new()),
            import_span: Arc::new(SpanStats::new()),
            validate_span: Arc::new(SpanStats::new()),
        }
    }

    /// Metrics registered in `registry` under `<prefix>.…` names
    /// (e.g. prefix `chain.eth` yields `chain.eth.imports.extended`).
    pub fn registered(registry: &MetricsRegistry, prefix: &str) -> Self {
        StoreMetrics {
            extended: registry.counter(&format!("{prefix}.imports.extended")),
            side_chain: registry.counter(&format!("{prefix}.imports.side_chain")),
            reorged: registry.counter(&format!("{prefix}.imports.reorged")),
            already_known: registry.counter(&format!("{prefix}.imports.already_known")),
            rejected: registry.counter(&format!("{prefix}.imports.rejected")),
            proposed: registry.counter(&format!("{prefix}.proposed")),
            reorg_depth: registry.histogram(&format!("{prefix}.reorg_depth")),
            import_span: registry.span(&format!("{prefix}.import")),
            validate_span: registry.span(&format!("{prefix}.validate")),
        }
    }
}

impl Default for StoreMetrics {
    fn default() -> Self {
        Self::detached()
    }
}

/// A store's handle into a shared [`TraceSink`], tagged with the node id the
/// store belongs to. Detached by default: emission is a single `None` check.
///
/// The same sink is shared by every node of a simulation (the sim owns the
/// `Arc`); the tracer adds only the *who* so the store can emit
/// [`TraceEventKind::Validated`] / `Imported` / `Orphaned` / `ReorgedOut`
/// events without knowing it lives inside a simulated network.
#[derive(Debug, Clone, Default)]
pub struct ChainTracer {
    sink: Option<(Arc<TraceSink>, u32)>,
}

impl ChainTracer {
    /// A tracer that emits nothing (the default).
    pub fn detached() -> Self {
        ChainTracer { sink: None }
    }

    /// A tracer emitting into `sink` as node `node`.
    pub fn attached(sink: Arc<TraceSink>, node: u32) -> Self {
        ChainTracer {
            sink: Some((sink, node)),
        }
    }

    /// Whether emits reach an active sink (false when detached or when the
    /// sink was constructed disabled).
    pub fn is_active(&self) -> bool {
        match &self.sink {
            Some((s, _)) => s.is_active(),
            None => false,
        }
    }

    /// Emits a lifecycle event for `block` at this tracer's node.
    #[inline]
    pub fn emit(&self, kind: TraceEventKind, block: H256, number: u64) {
        if let Some((s, node)) = &self.sink {
            s.record(*node, block.0, number, kind);
        }
    }

    /// Emits a lifecycle event with a qualifier (import outcome, drop
    /// reason…).
    #[inline]
    pub fn emit_detail(
        &self,
        kind: TraceEventKind,
        block: H256,
        number: u64,
        detail: &'static str,
    ) {
        if let Some((s, node)) = &self.sink {
            s.record_full(*node, block.0, number, kind, None, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_metrics_share_registry_atomics() {
        let reg = MetricsRegistry::new();
        let a = StoreMetrics::registered(&reg, "chain.x");
        let b = a.clone();
        a.extended.incr();
        b.extended.incr();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["chain.x.imports.extended"], 2);
    }

    #[test]
    fn chain_tracer_tags_events_with_its_node() {
        let sink = Arc::new(TraceSink::new());
        let tracer = ChainTracer::attached(Arc::clone(&sink), 7);
        assert!(tracer.is_active());
        tracer.emit(TraceEventKind::Imported, H256([3; 32]), 42);
        tracer.emit_detail(TraceEventKind::Imported, H256([4; 32]), 43, "reorged");
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, 7);
        assert_eq!(events[0].number, 42);
        assert_eq!(events[1].detail, "reorged");

        let off = ChainTracer::detached();
        assert!(!off.is_active());
        off.emit(TraceEventKind::Mined, H256([5; 32]), 1);
        assert_eq!(sink.len(), 2, "detached tracer emits nothing");
    }

    #[test]
    fn detached_metrics_are_invisible_to_registries() {
        let reg = MetricsRegistry::new();
        let m = StoreMetrics::detached();
        m.extended.incr();
        assert!(reg.snapshot().counters.is_empty());
        assert_eq!(m.extended.get(), 1);
    }
}
