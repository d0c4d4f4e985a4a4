//! Two identical seeded engine runs must export byte-identical telemetry
//! JSON once timings are zeroed: the metrics layer may not perturb the
//! simulation, and nothing in the snapshot may depend on wall-clock or on
//! unordered iteration.

use fork_sim::{scenario, CountingSink, TwoChainEngine};
use fork_telemetry::TimingMode;

fn run_json(seed: u64) -> String {
    let mut engine = TwoChainEngine::new(scenario::dao_scenario(seed, 1));
    let mut sink = CountingSink::default();
    let summary = engine.run(&mut sink);
    assert!(summary.blocks[0] > 0, "run must produce ETH blocks");
    engine.telemetry().snapshot().to_json(TimingMode::Zeroed)
}

#[test]
fn identical_runs_export_identical_telemetry_json() {
    let a = run_json(7);
    let b = run_json(7);
    assert_eq!(a, b, "telemetry must be deterministic across reruns");
    assert!(a.contains("\"schema\": \"fork-telemetry/v1\""));
    // Zeroed mode keeps counts but erases durations.
    assert!(!a.contains("\"total_ns\": 1"), "no wall-clock leaks");
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
    for key in [
        "micro.chaos.crashes",
        "micro.chaos.restarts",
        "micro.chaos.equivocations",
        "micro.chaos.recovery_ms",
        "micro.sync.timeouts",
        "micro.sync.retries",
        "micro.peers.banned",
    ] {
        assert!(a.contains(key), "missing {key} in {a}");
    }
}

#[test]
fn telemetry_json_carries_engine_metrics() {
    let json = run_json(11);
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
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
