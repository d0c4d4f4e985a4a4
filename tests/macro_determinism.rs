//! Macro-scale determinism and invariants.
//!
//! The macro engine steps each round on the calling thread, and only the
//! nodes with a delivery or a find due. Its load-bearing promise is that
//! the reports and zeroed telemetry of a `(config, seed)` never change:
//! `tests/data/macro_reports.txt` records them for the shipped presets and
//! midsize runs with a lossy window and an isolation, and
//! `reports_match_the_pre_change_engine` holds the engine to it. The
//! other tests check that `MacroConfig::n_shards`, which the engine no
//! longer reads, stays invisible, run the 1,000-node acceptance scenario
//! (two-cluster partition/heal) through the macro convergence invariants,
//! and sanity-check the topology generator's statistical shape under a
//! fixed seed.

use stick_a_fork::net::FaultPlan;
use stick_a_fork::sim::macroscale::{
    macro_partition, macro_propagation, MacroConfig, MacroError, MacroNet, TopologyGenConfig,
};
use stick_a_fork::sim::{check_heal_convergence, check_reorg_depth, ChaosPlan, DegradationWindow};
use stick_a_fork::telemetry::json::Value;
use stick_a_fork::telemetry::TimingMode;

fn with_shards(mut config: MacroConfig, n_shards: usize) -> MacroConfig {
    config.n_shards = n_shards;
    config
}

/// A mid-size propagation-style run: hundreds of nodes and thousands of
/// messages, small enough to run three seeds × three shard counts quickly.
fn midsize(seed: u64) -> MacroConfig {
    MacroConfig {
        seed,
        topology: TopologyGenConfig {
            n_nodes: 240,
            ..TopologyGenConfig::default()
        },
        duration_secs: 240,
        block_every_secs: 8.0,
        fork_at_secs: Some(120),
        etc_share: 0.2,
        ..MacroConfig::default()
    }
}

/// The runs `tests/data/macro_reports.txt` records, by name: the shipped
/// propagation preset at 2,500 nodes, the 1,000-node partition/heal, the
/// three midsize seeds, a midsize run under a lossy degradation window
/// (the sender's drop draw) and one with an isolation and a rejoin.
fn golden_runs() -> Vec<(String, MacroConfig)> {
    let mut runs = Vec::new();
    for seed in [2016u64, 7] {
        let config = macro_propagation(seed, 2_500).config;
        runs.push((format!("propagation-2500-s{seed}"), config));
    }
    for seed in [7u64, 8, 9] {
        let config = macro_partition(seed, 1_000).config;
        runs.push((format!("partition-1000-s{seed}"), config));
    }
    for seed in [101u64, 202, 303] {
        runs.push((format!("midsize-s{seed}"), midsize(seed)));
    }
    let mut lossy = midsize(404);
    lossy.chaos.degradations.push(DegradationWindow {
        from_secs: 60,
        until_secs: 180,
        faults: FaultPlan::new(0.1, 0.0, 0.0).expect("valid fault plan"),
    });
    runs.push(("midsize-lossy-s404".into(), lossy));
    let mut isolated = midsize(505);
    isolated.chaos = ChaosPlan::NONE
        .isolate_node(0, 40_000)
        .rejoin(0, 100_000)
        .isolate_node(17, 150_000);
    runs.push(("midsize-isolated-s505".into(), isolated));
    runs
}

/// One fixture line: the run's name, its report's `Debug` form and its
/// zeroed telemetry snapshot as one-line JSON, tab-separated.
fn golden_line(name: &str, config: MacroConfig) -> String {
    let mut net = MacroNet::new(config).expect("golden config is valid");
    let report = net.run();
    let pretty = net.telemetry_snapshot().to_json(TimingMode::Zeroed);
    let telemetry = Value::parse(&pretty)
        .expect("snapshot JSON parses")
        .to_json();
    format!("{name}\t{report:?}\t{telemetry}")
}

/// Names the first field where two fixture lines differ: the column
/// (report or telemetry) and its first differing comma-separated chunk.
fn first_difference(want: &str, got: &str) -> String {
    let columns = ["name", "report", "telemetry"];
    for (column, (w, g)) in columns.iter().zip(want.split('\t').zip(got.split('\t'))) {
        if w == g {
            continue;
        }
        let sep = if *column == "telemetry" { "," } else { ", " };
        for (w, g) in w.split(sep).zip(g.split(sep)) {
            if w != g {
                return format!("{column}: want `{w}`, got `{g}`");
            }
        }
        return format!("{column}: one is a prefix of the other");
    }
    "column count differs".into()
}

#[test]
fn reports_match_the_pre_change_engine() {
    let fixture = include_str!("data/macro_reports.txt");
    let want: Vec<&str> = fixture.lines().collect();
    let runs = golden_runs();
    assert_eq!(want.len(), runs.len(), "one fixture line per golden run");
    for ((name, config), want) in runs.into_iter().zip(want) {
        let got = golden_line(&name, config);
        assert!(
            got == want,
            "{name} diverged from the recorded engine: {}",
            first_difference(want, &got)
        );
    }
}

#[test]
fn shard_count_is_invisible_across_seeds() {
    for seed in [101u64, 202, 303] {
        let mut runs = Vec::new();
        for shards in [1usize, 2, 8] {
            let mut net =
                MacroNet::new(with_shards(midsize(seed), shards)).expect("midsize config is valid");
            let report = net.run();
            let snapshot = net.telemetry_snapshot().to_json(TimingMode::Zeroed);
            runs.push((shards, format!("{report:?}"), snapshot));
        }
        let (_, ref report0, ref snap0) = runs[0];
        for (shards, report, snap) in &runs[1..] {
            assert_eq!(
                report, report0,
                "seed {seed}: {shards}-shard report diverged from serial"
            );
            assert_eq!(
                snap, snap0,
                "seed {seed}: {shards}-shard telemetry diverged from serial"
            );
        }
        assert!(report0.contains("mined_prefork"), "report is populated");
    }
}

#[test]
fn thousand_node_partition_heal_is_deterministic_and_convergent() {
    for seed in [7u64, 8, 9] {
        let preset = macro_partition(seed, 1_000);
        let serial = MacroNet::new(with_shards(preset.config.clone(), 1))
            .expect("preset valid")
            .run();
        let mut sharded_net =
            MacroNet::new(with_shards(preset.config.clone(), 8)).expect("preset valid");
        let sharded = sharded_net.run();
        assert_eq!(
            format!("{serial:?}"),
            format!("{sharded:?}"),
            "seed {seed}: 1,000-node sharded run must be byte-identical to serial"
        );
        assert_eq!(sharded.partitions_started, 1);
        assert_eq!(sharded.partitions_healed, 1);
        assert!(sharded.edges_cut > 0, "the partition cut real edges");
        assert_eq!(sharded.edges_cut, sharded.edges_restored);
        check_heal_convergence(&sharded_net, preset.expected_groups)
            .expect("heal must reconverge the macro census");
        check_reorg_depth(&sharded_net, preset.reorg_depth_bound)
            .expect("reorg bounded by partition duration");
        assert!(
            sharded.max_reorg_depth > 0,
            "seed {seed}: the heal produced a reorg"
        );
    }
}

#[test]
fn generated_topology_has_realistic_shape() {
    let config = TopologyGenConfig {
        n_nodes: 1_000,
        ..TopologyGenConfig::default()
    };
    let net = MacroNet::new(MacroConfig {
        seed: 42,
        topology: config.clone(),
        duration_secs: 1, // topology-only: no need to simulate
        ..MacroConfig::default()
    })
    .expect("valid config");
    let stats = net.topology().stats();
    assert_eq!(stats.n_nodes, 1_000);
    assert!(
        net.topology().is_connected(),
        "repair guarantees connectivity"
    );
    // Power-law tail: the p99 degree must sit well above the median.
    assert!(
        stats.p99_degree >= 2 * stats.median_degree,
        "degree tail too thin: p99 {} vs median {}",
        stats.p99_degree,
        stats.median_degree
    );
    assert!(stats.mean_degree >= config.min_degree as f64);
    // Geo structure: every configured cluster is populated, roughly per
    // its weight (the quotas are exact by construction).
    assert_eq!(stats.cluster_sizes.len(), 3);
    assert!(stats.cluster_sizes.iter().all(|&s| s > 100));
    // RTT bands: intra draws stay inside the per-cluster bands' envelope
    // and inter draws inside the inter band.
    let (intra_lo, intra_hi) = stats.intra_rtt_span;
    assert!(
        intra_lo >= 10 && intra_hi <= 80,
        "intra span {intra_lo}..{intra_hi}"
    );
    let (inter_lo, inter_hi) = stats.inter_rtt_span;
    assert!(
        inter_lo >= 80 && inter_hi <= 300,
        "inter span {inter_lo}..{inter_hi}"
    );
    // Client diversity: all three labels present, majority client dominant.
    assert_eq!(stats.client_counts.len(), 3);
    let geth = stats.client_counts[0].1;
    assert!(geth > 500, "majority client holds a majority: {geth}");
}

#[test]
fn oversized_chaos_plan_is_rejected_before_the_run() {
    // A plan written for a 2,000-node topology, applied to 100 nodes: the
    // engine must fail construction with a typed error, not panic deep in
    // the run or silently no-op.
    let config = MacroConfig {
        seed: 1,
        topology: TopologyGenConfig {
            n_nodes: 100,
            ..TopologyGenConfig::default()
        },
        chaos: ChaosPlan::NONE
            .create_partition(10_000, vec![(0..50).collect(), (50..2_000).collect()]),
        ..MacroConfig::default()
    };
    match MacroNet::new(config) {
        Err(MacroError::Chaos(e)) => {
            let msg = e.to_string();
            assert!(
                msg.contains("100"),
                "error names the real node count: {msg}"
            );
        }
        Err(other) => panic!("expected a chaos validation error, got {other:?}"),
        Ok(_) => panic!("expected a chaos validation error, got a working net"),
    }
}
