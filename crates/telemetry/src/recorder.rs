//! The flight recorder: bounded last-N-events-per-node ring buffers.
//!
//! A full trace of a long chaos run is unbounded; what a failure
//! post-mortem actually needs is *the recent history of every node* at the
//! moment an invariant tripped. A [`FlightRecorder`] rides along a
//! [`crate::TraceSink`] (see [`crate::TraceSink::with_recorder`] /
//! [`crate::TraceSink::recorder_only`]) keeping at most N events per node;
//! [`FlightRecorder::dump`] freezes that view into a [`FlightDump`], which
//! call sites annotate with the run's telemetry [`Snapshot`] and render
//! next to the violation message.

use crate::snapshot::Snapshot;
use crate::trace::{hex_tag, TraceEvent, NO_BLOCK};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Bounded per-node ring buffers of the most recent [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    per_node: BTreeMap<u32, VecDeque<TraceEvent>>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity_per_node` events per node
    /// (clamped to ≥ 1).
    pub fn new(capacity_per_node: usize) -> Self {
        FlightRecorder {
            capacity: capacity_per_node.max(1),
            per_node: BTreeMap::new(),
        }
    }

    /// The per-node ring size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event to its node's ring, evicting the oldest entry once
    /// the ring is full.
    pub fn record(&mut self, ev: &TraceEvent) {
        let ring = self.per_node.entry(ev.node).or_default();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(*ev);
    }

    /// The retained events for one node, oldest first.
    pub fn node_events(&self, node: u32) -> Vec<TraceEvent> {
        self.per_node
            .get(&node)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Freezes the recorder into a plain [`FlightDump`] (telemetry snapshot
    /// slot left empty for the caller).
    pub fn dump(&self) -> FlightDump {
        FlightDump {
            capacity: self.capacity,
            events: self
                .per_node
                .iter()
                .map(|(n, r)| (*n, r.iter().copied().collect()))
                .collect(),
            snapshot: None,
        }
    }
}

/// A frozen flight-recorder view: the last N events per node, optionally
/// annotated with the run's telemetry snapshot. This is what gets written
/// to disk when a chaos invariant fails.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// The ring size the recorder ran with.
    pub capacity: usize,
    /// Per-node events, oldest first (key order = node id).
    pub events: BTreeMap<u32, Vec<TraceEvent>>,
    /// The run's aggregate telemetry at dump time, when the caller attached
    /// one.
    pub snapshot: Option<Snapshot>,
}

impl FlightDump {
    /// Total events across all nodes.
    pub fn len(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }

    /// True when no node retained any event.
    pub fn is_empty(&self) -> bool {
        self.events.values().all(Vec::is_empty)
    }

    /// Human-readable post-mortem text: a per-node event log followed by
    /// the telemetry table (when attached). Deterministic for identical
    /// dumps.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "FLIGHT RECORDER DUMP (last {} events per node, {} events total)",
            self.capacity,
            self.len(),
        );
        for (node, events) in &self.events {
            let _ = writeln!(out, "node {node}:");
            for ev in events {
                let _ = write!(
                    out,
                    "  t={:>8}ms #{:<6} {:<17}",
                    ev.at_ms,
                    ev.seq,
                    ev.kind.as_str(),
                );
                if ev.block != NO_BLOCK {
                    let hex = hex_tag(&ev.block);
                    let _ = write!(out, " block={}.. n={}", &hex[..18], ev.number);
                }
                if let Some(p) = ev.peer {
                    let _ = write!(out, " peer={p}");
                }
                if !ev.detail.is_empty() {
                    let _ = write!(out, " [{}]", ev.detail);
                }
                out.push('\n');
            }
        }
        if let Some(snap) = &self.snapshot {
            out.push_str("\nTELEMETRY AT DUMP TIME\n");
            out.push_str(&snap.render_table());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{BlockTag, TraceEventKind};

    fn ev(seq: u64, node: u32, kind: TraceEventKind) -> TraceEvent {
        let mut block: BlockTag = [0; 32];
        block[0] = seq as u8;
        TraceEvent {
            at_ms: seq * 10,
            seq,
            node,
            block,
            number: seq,
            kind,
            peer: None,
            detail: "",
        }
    }

    #[test]
    fn ring_buffer_is_bounded_and_keeps_the_tail() {
        let mut rec = FlightRecorder::new(3);
        for seq in 1..=10 {
            rec.record(&ev(seq, 0, TraceEventKind::Imported));
            rec.record(&ev(seq + 100, 1, TraceEventKind::GossipRecv));
        }
        assert_eq!(rec.capacity(), 3);
        let n0 = rec.node_events(0);
        assert_eq!(n0.len(), 3, "ring never exceeds capacity");
        assert_eq!(
            n0.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![8, 9, 10],
            "the last N survive, oldest evicted first"
        );
        assert_eq!(rec.node_events(1).len(), 3);
        assert!(rec.node_events(7).is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut rec = FlightRecorder::new(0);
        rec.record(&ev(1, 0, TraceEventKind::Mined));
        rec.record(&ev(2, 0, TraceEventKind::Imported));
        assert_eq!(rec.node_events(0).len(), 1);
        assert_eq!(rec.node_events(0)[0].seq, 2);
    }

    #[test]
    fn dump_renders_events_and_snapshot() {
        let mut rec = FlightRecorder::new(4);
        rec.record(&ev(1, 2, TraceEventKind::Mined));
        rec.record(&{
            let mut e = ev(2, 2, TraceEventKind::GossipSent);
            e.peer = Some(5);
            e.detail = "corrupt_frames";
            e
        });
        let mut dump = rec.dump();
        assert_eq!(dump.len(), 2);
        assert!(!dump.is_empty());
        let mut snap = Snapshot::default();
        snap.counters.insert("micro.mined".into(), 11);
        dump.snapshot = Some(snap);

        let text = dump.render();
        assert!(text.contains("last 4 events per node"));
        assert!(text.contains("node 2:"));
        assert!(text.contains("Mined"));
        assert!(text.contains("peer=5"));
        assert!(text.contains("[corrupt_frames]"));
        assert!(text.contains("micro.mined"));
        assert_eq!(text, dump.render(), "render is deterministic");
    }

    #[test]
    fn empty_dump() {
        let dump = FlightRecorder::new(8).dump();
        assert!(dump.is_empty());
        assert_eq!(dump.len(), 0);
        assert!(dump.render().contains("0 events total"));
    }
}
