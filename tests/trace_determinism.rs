//! fork-trace end-to-end: determinism, inertness, and dump-on-violation.
//!
//! The tracing layer's contract has three legs:
//!
//! * **Determinism** — a trace is a pure function of the seed: the same
//!   `trace_scenario` run twice exports byte-identical, well-formed Chrome
//!   trace JSON, across multiple seeds.
//! * **Inertness** — attaching a tracer must not perturb the simulation
//!   (identical `MicroReport` with and without it), and a net without one
//!   carries a disabled sink that records nothing.
//! * **Post-mortem** — a run with a flight recorder attached produces, on a
//!   forced invariant violation, a dump whose per-node rings are bounded
//!   and end with the stamped `InvariantViolated` event.

use std::collections::BTreeSet;
use std::sync::Arc;

use stick_a_fork::sim::micro::{MicroNet, MicroReport};
use stick_a_fork::sim::scenario::{trace_scenario, TRACE_FORK_BLOCK};
use stick_a_fork::sim::{check_side_agreement, violation_report};
use stick_a_fork::telemetry::json::Value;
use stick_a_fork::telemetry::{chrome_trace_json, propagation_rows, TraceEventKind, TraceSink};

/// Runs the trace preset (optionally truncated) with `sink` attached.
fn run_traced(seed: u64, duration_secs: u64, sink: TraceSink) -> (MicroNet, MicroReport) {
    let mut scenario = trace_scenario(seed);
    scenario.config.duration_secs = duration_secs;
    let mut net = MicroNet::new(scenario.config.clone());
    net.attach_tracer(Arc::new(sink));
    let report = net.run();
    (net, report)
}

#[test]
fn same_seed_traces_are_byte_identical_across_seeds() {
    let labels: Vec<String> = (0..20).map(|i| format!("node{i:02}")).collect();
    for seed in [1u64, 7, 2016] {
        let (net_a, _) = run_traced(seed, 900, TraceSink::new());
        let (net_b, _) = run_traced(seed, 900, TraceSink::new());
        let a = chrome_trace_json(&net_a.tracer().events(), &labels);
        let b = chrome_trace_json(&net_b.tracer().events(), &labels);
        assert!(
            !net_a.tracer().is_empty(),
            "seed {seed}: trace is non-empty"
        );
        assert_eq!(a, b, "seed {seed}: same seed, byte-identical trace");
        assert_chrome_trace_schema(&a);
    }
}

/// The Chrome trace-event shape the viewers need: process-name metadata
/// plus instant events, with integer, non-negative timestamps and ids.
fn assert_chrome_trace_schema(json: &str) {
    let doc = Value::parse(json).expect("trace is valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(
        events.len() > 100,
        "suspiciously small trace: {}",
        events.len()
    );
    let mut phases = BTreeSet::new();
    for ev in events {
        assert!(ev["name"].as_str().is_some_and(|n| !n.is_empty()), "{ev:?}");
        let ph = ev["ph"].as_str().expect("ph is a string");
        assert!(ph == "M" || ph == "i", "unexpected phase in {ev:?}");
        phases.insert(ph);
        assert!(
            ev["ts"].as_u64().is_some(),
            "ts not a non-negative integer: {ev:?}"
        );
        assert!(ev["pid"].as_u64().is_some(), "pid not an integer: {ev:?}");
        assert!(ev["tid"].as_u64().is_some(), "tid not an integer: {ev:?}");
    }
    assert_eq!(phases, BTreeSet::from(["M", "i"]));
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let scenario = trace_scenario(3);
    let mut plain = MicroNet::new(scenario.config.clone());
    let untraced = plain.run();
    let (_, traced) = run_traced(3, scenario.config.duration_secs, TraceSink::new());
    assert_eq!(untraced, traced, "tracer attached vs not: identical run");

    // A net nobody attached to carries a runtime-disabled sink.
    assert!(!plain.tracer().is_active());
    assert!(plain.tracer().events().is_empty());
    assert!(plain.flight_dump().is_none());
}

#[test]
fn trace_covers_the_block_lifecycle_with_causal_links() {
    let (net, report) = run_traced(5, 1_800, TraceSink::new());
    let events = net.tracer().events();
    let has = |k: TraceEventKind| events.iter().any(|e| e.kind == k);
    for kind in [
        TraceEventKind::Mined,
        TraceEventKind::GossipSent,
        TraceEventKind::GossipRecv,
        TraceEventKind::Validated,
        TraceEventKind::Imported,
    ] {
        assert!(has(kind), "{kind:?} missing from a full run");
    }
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Mined)
            .count() as u64,
        report.mined.iter().sum::<u64>() + report.equivocations,
        "one Mined event per sealed block (twins included)"
    );

    // Causality: every GossipRecv at node n from peer p has a matching
    // GossipSent at p toward n carrying the same block.
    let recv = events
        .iter()
        .find(|e| e.kind == TraceEventKind::GossipRecv)
        .expect("at least one hop");
    let from = recv.peer.expect("receives carry their sender");
    assert!(
        events.iter().any(|e| e.kind == TraceEventKind::GossipSent
            && e.node == from
            && e.peer == Some(recv.node)
            && e.block == recv.block),
        "GossipRecv links back to its GossipSent"
    );

    // The preset forks at TRACE_FORK_BLOCK, so both propagation regimes are
    // populated for both sides.
    let mut side_of = vec![0usize; 20];
    for s in side_of.iter_mut().skip(10) {
        *s = 1;
    }
    let rows = propagation_rows(&events, &side_of, &["eth", "etc"], TRACE_FORK_BLOCK);
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert!(row.blocks > 0, "{} {} row is empty", row.side, row.phase);
        assert!(row.p50_ms <= row.p90_ms && row.p90_ms <= row.max_ms);
    }
}

#[test]
fn forced_violation_dumps_the_flight_recorder() {
    const CAP: usize = 8;
    let (net, _) = run_traced(11, 1_800, TraceSink::recorder_only(CAP));

    // Constant memory: every ring respects the per-node bound mid-flight.
    let dump = net.flight_dump().expect("recorder-carrying sink");
    assert_eq!(dump.capacity, CAP);
    assert!(!dump.is_empty());
    for (node, ring) in &dump.events {
        assert!(ring.len() <= CAP, "node {node} ring over capacity");
    }

    // Nodes 0 and 19 sit on opposite sides of the fork, so demanding they
    // agree on canonical hashes (unbounded head tolerance skips the spread
    // check) is a deterministic SideDisagreement.
    let v =
        check_side_agreement(&net, &[0, 19], u64::MAX).expect_err("cross-side agreement must fail");
    let offending = match &v {
        stick_a_fork::sim::InvariantViolation::SideDisagreement { b, .. } => *b,
        other => panic!("expected SideDisagreement, got {other}"),
    };
    let report = violation_report(&net, &v);
    assert!(report.contains("INVARIANT VIOLATED"));
    assert!(report.contains("disagree on the canonical block"));
    assert!(report.contains(&format!("FLIGHT RECORDER DUMP (last {CAP} events per node")));
    assert!(
        report.contains(&format!("node {offending}:")),
        "offending node's history is in the dump"
    );
    assert!(
        report.contains("InvariantViolated"),
        "the violation itself is stamped into the offending node's ring"
    );
    assert!(report.contains("TELEMETRY AT DUMP TIME"));
    assert!(
        report.contains("Imported"),
        "recent lifecycle events survive in the rings"
    );
}
