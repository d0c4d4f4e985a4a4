//! `fork-telemetry`: a dependency-light metrics and span-timing subsystem.
//!
//! The paper this workspace reproduces is a measurement study; this crate is
//! the instrument the reproduction points at itself. It provides:
//!
//! - [`Counter`] / [`Gauge`] — relaxed atomics, monotonic and signed;
//! - [`Histogram`] — 65 fixed log2 buckets with a deterministic
//!   [`HistogramSnapshot::merge`];
//! - [`SpanStats`] / [`Span`] — scoped timers whose thread-local nesting
//!   attributes child time to parents, yielding per-phase self/total
//!   breakdowns;
//! - [`MetricsRegistry`] — a name → metric map producing a plain-data
//!   [`Snapshot`] that renders as a human table or machine-readable JSON;
//! - [`json`] — a tiny JSON value/parser/writer module used for all exports;
//! - [`SeriesRing`] — a plain-data, fixed-capacity time-series ring of
//!   sampled gauges, plus [`prometheus_text`] rendering a
//!   [`Snapshot`] in the Prometheus text exposition format;
//! - [`TraceSink`] / [`FlightRecorder`] — structured block-lifecycle
//!   tracing on simulated time (Chrome-trace exportable, deterministic per
//!   seed) with a bounded last-N-per-node flight recorder for chaos
//!   post-mortems.
//!
//! # Ownership model
//!
//! Engine-scoped metrics (simulation phases, chain stores) live in an
//! `Arc<MetricsRegistry>` owned by the engine, which keeps runs isolated and
//! makes determinism testable. Stateless hot paths (EVM dispatch, net
//! framing) use crate-level `static` metrics — [`Counter::new`] and friends
//! are `const fn` — and export via a `snapshot_into` helper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod diff;
pub mod json;
mod metrics;
mod recorder;
mod registry;
mod snapshot;
mod span;
mod timeseries;
mod trace;

pub use diff::{diff_snapshots, render_diff, MetricDelta, SnapshotDiff};
pub use metrics::{bucket_index, bucket_range, Counter, Gauge, Histogram, BUCKETS};
pub use recorder::{FlightDump, FlightRecorder};
pub use registry::MetricsRegistry;
pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot, TimingMode};
pub use span::{timed, Span, SpanStats};
pub use timeseries::{prometheus_text, SeriesRing, SeriesSample};
pub use trace::{
    chrome_trace_json, propagation_rows, BlockTag, PropagationRow, TraceEvent, TraceEventKind,
    TraceSink, NO_BLOCK,
};
