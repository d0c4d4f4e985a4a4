//! Structured block-lifecycle tracing (`fork-trace`).
//!
//! Aggregates (counters, histograms, spans) answer "how many" and "how
//! long"; they cannot answer "where did block N spend its time between
//! being mined on one side and imported on every node?". A [`TraceSink`]
//! collects timestamped, causally-linked lifecycle events keyed by
//! *(block, node)* — [`TraceEventKind::Mined`] through
//! [`TraceEventKind::ReorgedOut`] — emitted by the chain store, the gossip
//! layer, and the simulators. Causality is carried by the `peer` field:
//! a `GossipSent` from node *i* to *j* and the matching `GossipRecv` at *j*
//! from *i* link one hop of a block's propagation tree.
//!
//! Timestamps are **simulated** milliseconds (the event loop calls
//! [`TraceSink::set_now`]), so a trace is exactly as deterministic as the
//! simulation that produced it: same seed, byte-identical
//! [`chrome_trace_json`] output.

use crate::json::Value;
use crate::recorder::{FlightDump, FlightRecorder};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// A 32-byte block identifier (the block hash). A local alias rather than a
/// hash type import: this crate has no dependencies by design.
pub type BlockTag = [u8; 32];

/// The all-zero tag used by node-scoped events that concern no particular
/// block (crashes, restarts, fault markers).
pub const NO_BLOCK: BlockTag = [0; 32];

/// What happened to a block (or node) at one point of its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceEventKind {
    /// A miner sealed this block (`node` is the miner).
    Mined,
    /// A gossip frame carrying this block left `node` toward `peer`.
    GossipSent,
    /// A gossip frame carrying this block was dropped by the link (or by
    /// the receiver's seen-filter; see `detail`).
    GossipDropped,
    /// This block arrived at `node` from `peer` and passed the seen-filter.
    GossipRecv,
    /// The block passed header/ommer/body validation at `node`.
    Validated,
    /// The block entered `node`'s store (extended the head, joined a side
    /// branch, or won a reorg; see `detail`).
    Imported,
    /// The block's parent is unknown at `node`; it was orphan-buffered.
    Orphaned,
    /// A reorg evicted this block from `node`'s canonical chain.
    ReorgedOut,
    /// The node went dark (scripted crash).
    NodeCrashed,
    /// The node came back online.
    NodeRestarted,
    /// A chaos fault fired at `node` (see `detail` for the behavior).
    FaultInjected,
    /// A safety invariant was violated (emitted just before a dump).
    InvariantViolated,
}

impl TraceEventKind {
    /// Stable name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceEventKind::Mined => "Mined",
            TraceEventKind::GossipSent => "GossipSent",
            TraceEventKind::GossipDropped => "GossipDropped",
            TraceEventKind::GossipRecv => "GossipRecv",
            TraceEventKind::Validated => "Validated",
            TraceEventKind::Imported => "Imported",
            TraceEventKind::Orphaned => "Orphaned",
            TraceEventKind::ReorgedOut => "ReorgedOut",
            TraceEventKind::NodeCrashed => "NodeCrashed",
            TraceEventKind::NodeRestarted => "NodeRestarted",
            TraceEventKind::FaultInjected => "FaultInjected",
            TraceEventKind::InvariantViolated => "InvariantViolated",
        }
    }
}

/// One timestamped lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time, milliseconds (the sink's clock at emission).
    pub at_ms: u64,
    /// Emission order, 1-based — a total order within one sink, breaking
    /// `at_ms` ties deterministically.
    pub seq: u64,
    /// The node this event happened at.
    pub node: u32,
    /// The block concerned ([`NO_BLOCK`] for node-scoped events).
    pub block: BlockTag,
    /// The block's height (0 for node-scoped events).
    pub number: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// The causal counterpart: the receiver of a `GossipSent`, the sender
    /// of a `GossipRecv`.
    pub peer: Option<u32>,
    /// Free-form qualifier (`"reorged"`, `"duplicate"`, a fault label…).
    pub detail: &'static str,
}

#[derive(Debug)]
struct Inner {
    events: Vec<TraceEvent>,
    recorder: Option<FlightRecorder>,
    keep_all: bool,
    seq: u64,
}

/// Collects [`TraceEvent`]s. Event time comes from an internal clock the
/// event loop advances via [`TraceSink::set_now`] — never from the wall
/// clock, so traces are deterministic per seed.
///
/// An *inactive* sink ([`TraceSink::disabled`]) records nothing at the
/// cost of one branch per call.
#[derive(Debug)]
pub struct TraceSink {
    inner: Option<Mutex<Inner>>,
    now_ms: AtomicU64,
}

impl TraceSink {
    fn active(keep_all: bool, recorder: Option<FlightRecorder>) -> Self {
        TraceSink {
            inner: Some(Mutex::new(Inner {
                events: Vec::new(),
                recorder,
                keep_all,
                seq: 0,
            })),
            now_ms: AtomicU64::new(0),
        }
    }

    /// An active sink retaining every event.
    pub fn new() -> Self {
        Self::active(true, None)
    }

    /// An active sink retaining every event **and** feeding a bounded
    /// per-node flight recorder of the given capacity.
    pub fn with_recorder(capacity_per_node: usize) -> Self {
        Self::active(true, Some(FlightRecorder::new(capacity_per_node)))
    }

    /// An active sink that keeps **only** the flight recorder's bounded
    /// ring buffers — constant memory on arbitrarily long runs.
    pub fn recorder_only(capacity_per_node: usize) -> Self {
        Self::active(false, Some(FlightRecorder::new(capacity_per_node)))
    }

    /// An inactive sink: every record call returns after one branch.
    pub fn disabled() -> Self {
        TraceSink {
            inner: None,
            now_ms: AtomicU64::new(0),
        }
    }

    /// Whether this sink records anything at all.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the sink's clock (simulated milliseconds).
    #[inline]
    pub fn set_now(&self, ms: u64) {
        self.now_ms.store(ms, Relaxed);
    }

    /// Records an event with no peer and no detail.
    #[inline]
    pub fn record(&self, node: u32, block: BlockTag, number: u64, kind: TraceEventKind) {
        self.record_full(node, block, number, kind, None, "");
    }

    /// Records an event with full causal context.
    pub fn record_full(
        &self,
        node: u32,
        block: BlockTag,
        number: u64,
        kind: TraceEventKind,
        peer: Option<u32>,
        detail: &'static str,
    ) {
        let Some(m) = &self.inner else { return };
        let mut inner = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.seq += 1;
        let ev = TraceEvent {
            at_ms: self.now_ms.load(Relaxed),
            seq: inner.seq,
            node,
            block,
            number,
            kind,
            peer,
            detail,
        };
        if let Some(r) = inner.recorder.as_mut() {
            r.record(&ev);
        }
        if inner.keep_all {
            inner.events.push(ev);
        }
    }

    /// A copy of every retained event, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(m) => m
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .events
                .clone(),
            None => Vec::new(),
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(m) => m
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .events
                .len(),
            None => 0,
        }
    }

    /// True when no event is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flight recorder's bounded last-N-per-node view, if this sink
    /// carries one. The dump's telemetry snapshot slot is left empty for
    /// the caller to fill.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        let m = self.inner.as_ref()?;
        m.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recorder
            .as_ref()
            .map(FlightRecorder::dump)
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

/// Lower-case hex of a block tag, `0x`-prefixed.
pub(crate) fn hex_tag(tag: &BlockTag) -> String {
    let mut s = String::with_capacity(66);
    s.push_str("0x");
    for b in tag {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
    }
    s
}

/// Renders events as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto "JSON Array" flavor): one instant event per [`TraceEvent`] with
/// `pid` = node, `ts` in microseconds of simulated time, plus a
/// `process_name` metadata record per entry of `node_labels`. Output is a
/// pure function of the input slice — byte-identical for identical traces.
pub fn chrome_trace_json(events: &[TraceEvent], node_labels: &[String]) -> String {
    let names = node_labels.iter().enumerate().map(|(pid, label)| {
        Value::obj([
            ("name", Value::from("process_name")),
            ("ph", "M".into()),
            ("ts", 0u64.into()),
            ("pid", pid.into()),
            ("tid", 0u64.into()),
            ("args", Value::obj([("name", label.as_str())])),
        ])
    });
    let instants = events.iter().map(|ev| {
        let mut args = vec![("seq", Value::from(ev.seq))];
        if ev.block != NO_BLOCK {
            args.push(("block", hex_tag(&ev.block).into()));
            args.push(("number", ev.number.into()));
        }
        args.extend(ev.peer.map(|p| ("peer", p.into())));
        if !ev.detail.is_empty() {
            args.push(("detail", ev.detail.into()));
        }
        Value::obj([
            ("name", Value::from(ev.kind.as_str())),
            ("ph", "i".into()),
            ("s", "t".into()),
            ("ts", (ev.at_ms * 1_000).into()),
            ("pid", ev.node.into()),
            ("tid", 0u64.into()),
            ("args", Value::obj(args)),
        ])
    });
    Value::obj([
        ("displayTimeUnit", Value::from("ms")),
        ("traceEvents", Value::Arr(names.chain(instants).collect())),
    ])
    .to_json()
}

/// One row of the per-side propagation-delay table: how long blocks of one
/// side and fork phase took to reach *every* same-side node that eventually
/// imported them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationRow {
    /// The side's display name.
    pub side: String,
    /// `"pre-fork"` (block number below the fork height) or `"post-fork"`.
    pub phase: &'static str,
    /// Blocks measured (mined on this side, imported by ≥ 1 node of it).
    pub blocks: u64,
    /// Median time-to-full-coverage, milliseconds.
    pub p50_ms: u64,
    /// 90th-percentile time-to-full-coverage, milliseconds.
    pub p90_ms: u64,
    /// Worst time-to-full-coverage, milliseconds.
    pub max_ms: u64,
}

/// Computes per-side, per-fork-phase propagation statistics from a trace.
///
/// `side_of[node]` indexes into `side_names`; a block belongs to its
/// *miner's* side, and its coverage time is the delay from its `Mined`
/// event to the **last** `Imported` event among that side's nodes. Blocks
/// numbered below `fork_height` count as pre-fork (they propagate across
/// the whole network), the rest as post-fork (each side on its own).
/// Returns one row per `(side, phase)` in `side_names` order, pre-fork
/// first; rows with zero blocks are kept so tables stay rectangular.
pub fn propagation_rows(
    events: &[TraceEvent],
    side_of: &[usize],
    side_names: &[&str],
    fork_height: u64,
) -> Vec<PropagationRow> {
    use std::collections::HashMap;
    // block tag → (miner side, number, mined at, last same-side import at).
    let mut blocks: HashMap<BlockTag, (usize, u64, u64, Option<u64>)> = HashMap::new();
    for ev in events {
        match ev.kind {
            TraceEventKind::Mined => {
                let side = side_of.get(ev.node as usize).copied().unwrap_or(0);
                blocks
                    .entry(ev.block)
                    .or_insert((side, ev.number, ev.at_ms, None));
            }
            TraceEventKind::Imported => {
                if let Some((side, _, _, last)) = blocks.get_mut(&ev.block) {
                    if side_of.get(ev.node as usize).copied().unwrap_or(0) == *side {
                        *last = Some(last.map_or(ev.at_ms, |t| t.max(ev.at_ms)));
                    }
                }
            }
            _ => {}
        }
    }
    let percentile = |sorted: &[u64], p: u64| -> u64 {
        if sorted.is_empty() {
            0
        } else {
            sorted[((sorted.len() - 1) as u64 * p / 100) as usize]
        }
    };
    let mut rows = Vec::new();
    for (side_idx, side) in side_names.iter().enumerate() {
        for phase in ["pre-fork", "post-fork"] {
            let mut delays: Vec<u64> = blocks
                .values()
                .filter(|(s, number, _, last)| {
                    *s == side_idx
                        && last.is_some()
                        && (*number < fork_height) == (phase == "pre-fork")
                })
                .map(|(_, _, mined, last)| last.unwrap_or(*mined).saturating_sub(*mined))
                .collect();
            delays.sort_unstable();
            rows.push(PropagationRow {
                side: (*side).to_string(),
                phase,
                blocks: delays.len() as u64,
                p50_ms: percentile(&delays, 50),
                p90_ms: percentile(&delays, 90),
                max_ms: percentile(&delays, 100),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(b: u8) -> BlockTag {
        let mut t = [0u8; 32];
        t[0] = b;
        t
    }

    #[test]
    fn sink_records_in_order_with_sim_time() {
        let sink = TraceSink::new();
        assert!(sink.is_active() && sink.is_empty());
        sink.set_now(10);
        sink.record(0, tag(1), 1, TraceEventKind::Mined);
        sink.set_now(25);
        sink.record_full(1, tag(1), 1, TraceEventKind::GossipRecv, Some(0), "");
        sink.record(1, tag(1), 1, TraceEventKind::Imported);
        let evs = sink.events();
        assert_eq!(sink.len(), 3);
        assert_eq!(evs[0].at_ms, 10);
        assert_eq!(evs[1].at_ms, 25);
        assert_eq!(evs[1].peer, Some(0));
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "seq is a total emission order"
        );
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_active());
        sink.set_now(5);
        sink.record(0, tag(1), 1, TraceEventKind::Mined);
        assert!(sink.is_empty());
        assert!(sink.flight_dump().is_none());
    }

    #[test]
    fn chrome_export_is_wellformed_and_pure() {
        let events = vec![
            TraceEvent {
                at_ms: 10,
                seq: 1,
                node: 0,
                block: tag(1),
                number: 1,
                kind: TraceEventKind::Mined,
                peer: None,
                detail: "",
            },
            TraceEvent {
                at_ms: 12,
                seq: 2,
                node: 1,
                block: NO_BLOCK,
                number: 0,
                kind: TraceEventKind::NodeCrashed,
                peer: None,
                detail: "scripted",
            },
        ];
        let labels = vec!["node 0 (eth)".to_string()];
        let a = chrome_trace_json(&events, &labels);
        let b = chrome_trace_json(&events, &labels);
        assert_eq!(a, b, "pure function of its input");
        let parsed = crate::json::Value::parse(&a).expect("valid JSON");
        let list = parsed["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(list.len(), 3, "1 metadata + 2 events");
        for ev in list {
            assert!(ev["name"].as_str().is_some());
            assert!(ev["ph"].as_str().is_some());
            assert!(ev["ts"].as_u64().is_some());
            assert!(ev["pid"].as_u64().is_some());
            assert!(ev["tid"].as_u64().is_some());
        }
        assert_eq!(
            list[1]["args"]["block"].as_str(),
            Some(hex_tag(&tag(1)).as_str())
        );
        assert_eq!(list[2]["args"]["detail"].as_str(), Some("scripted"));
    }

    #[test]
    fn propagation_rows_split_by_side_and_phase() {
        let mk = |seq, node, block, number, at_ms, kind| TraceEvent {
            at_ms,
            seq,
            node,
            block,
            number,
            kind,
            peer: None,
            detail: "",
        };
        // Nodes 0,1 on side 0; node 2 on side 1. Fork at height 2.
        let side_of = [0usize, 0, 1];
        let events = vec![
            // Pre-fork block on side 0, covered after 30 ms.
            mk(1, 0, tag(1), 1, 100, TraceEventKind::Mined),
            mk(2, 0, tag(1), 1, 100, TraceEventKind::Imported),
            mk(3, 1, tag(1), 1, 130, TraceEventKind::Imported),
            mk(4, 2, tag(1), 1, 999, TraceEventKind::Imported), // other side: ignored
            // Post-fork block on side 1, covered instantly (miner only).
            mk(5, 2, tag(2), 2, 500, TraceEventKind::Mined),
            mk(6, 2, tag(2), 2, 500, TraceEventKind::Imported),
        ];
        let rows = propagation_rows(&events, &side_of, &["eth", "etc"], 2);
        assert_eq!(rows.len(), 4);
        let find = |side: &str, phase: &str| {
            rows.iter()
                .find(|r| r.side == side && r.phase == phase)
                .unwrap()
        };
        let r = find("eth", "pre-fork");
        assert_eq!((r.blocks, r.p50_ms, r.max_ms), (1, 30, 30));
        let r = find("etc", "post-fork");
        assert_eq!((r.blocks, r.max_ms), (1, 0));
        assert_eq!(find("eth", "post-fork").blocks, 0);
        assert_eq!(find("etc", "pre-fork").blocks, 0);
    }

    #[test]
    fn hex_tag_formats() {
        let mut t = [0u8; 32];
        t[0] = 0xab;
        t[31] = 0x01;
        let h = hex_tag(&t);
        assert_eq!(h.len(), 66);
        assert!(h.starts_with("0xab00"));
        assert!(h.ends_with("01"));
    }
}
