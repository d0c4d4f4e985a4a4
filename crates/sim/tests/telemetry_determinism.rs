//! Two identical seeded engine runs must export byte-identical telemetry
//! JSON once timings are zeroed: the metrics layer may not perturb the
//! simulation, and nothing in the snapshot may depend on wall-clock or on
//! unordered iteration.

use fork_sim::{scenario, CountingSink, TwoChainEngine};
use fork_telemetry::json::Value;
use fork_telemetry::TimingMode;

fn run_json(seed: u64) -> String {
    let mut engine = TwoChainEngine::new(scenario::dao_scenario(seed, 1));
    let mut sink = CountingSink::default();
    let summary = engine.run(&mut sink);
    assert!(summary.blocks[0] > 0, "run must produce ETH blocks");
    engine.telemetry().snapshot().to_json(TimingMode::Zeroed)
}

/// Every metric name in an exported snapshot, across all four sections.
fn metric_names(json: &str) -> Vec<String> {
    let doc = Value::parse(json).expect("telemetry export parses");
    let mut names = Vec::new();
    for section in ["counters", "gauges", "spans", "histograms"] {
        let Value::Obj(fields) = &doc[section] else {
            panic!("{section} is not an object")
        };
        names.extend(fields.iter().map(|(name, _)| name.clone()));
    }
    names
}

#[test]
fn identical_runs_export_identical_telemetry_json() {
    let a = run_json(7);
    let b = run_json(7);
    assert_eq!(a, b, "telemetry must be deterministic across reruns");
    let doc = Value::parse(&a).expect("telemetry export parses");
    assert_eq!(doc["schema"].as_str(), Some("fork-telemetry/v1"));
    // Zeroed mode keeps counts but erases durations.
    let Value::Obj(spans) = &doc["spans"] else {
        panic!("spans is not an object")
    };
    assert!(spans.iter().any(|(_, s)| s["count"].as_u64() > Some(0)));
    for (name, s) in spans {
        for key in ["total_ns", "self_ns", "child_ns", "max_ns"] {
            assert_eq!(s[key].as_u64(), Some(0), "wall-clock leak in {name}.{key}");
        }
    }
}

/// A chaos-enabled micro run is exactly as deterministic as a clean one:
/// crashes, bans, retries, and the recovery histogram must export
/// byte-identically across reruns of the same seed.
#[test]
fn chaos_run_telemetry_is_deterministic() {
    let run = |seed: u64| {
        let mut net = fork_sim::MicroNet::new(scenario::chaos_scenario(seed).config);
        let report = net.run();
        assert!(report.crashes > 0, "chaos plan must fire");
        net.telemetry_snapshot().to_json(TimingMode::Zeroed)
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "chaos telemetry must be deterministic across reruns");
    let names = metric_names(&a);
    for key in [
        "micro.chaos.crashes",
        "micro.chaos.restarts",
        "micro.chaos.equivocations",
        "micro.chaos.recovery_ms",
        "micro.sync.timeouts",
        "micro.sync.retries",
        "micro.peers.banned",
    ] {
        assert!(names.iter().any(|n| n == key), "missing {key} in {a}");
    }
}

#[test]
fn telemetry_json_carries_engine_metrics() {
    let json = run_json(11);
    let names = metric_names(&json);
    for key in [
        "chain.eth.imports.extended",
        "chain.etc.imports.extended",
        "meso.step",
        "meso.step.mine",
        "chain.eth.propose.select",
        "chain.eth.propose.execute",
        "chain.eth.propose.roots",
        "chain.eth.propose.seal",
        "chain.etc.propose.commit",
    ] {
        assert!(names.iter().any(|n| n == key), "missing {key} in {json}");
    }
}
