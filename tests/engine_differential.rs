//! Micro vs macro on the scenarios both engines can run.
//!
//! The micro engine models every node's chain store, gossip and sync; the
//! macro engine trades that detail for scale. Where both can run the same
//! `ChaosPlan` at the same node count they must reach the same *verdicts*:
//! who converges, who stays split, and whether a heal's reorg stays inside
//! the bound the partition duration justifies.
//!
//! Census *shapes* are deliberately not compared. The census is greedy (see
//! `partition_census`): a node fewer than 8 blocks past the split height
//! agrees with both sides at the comparison height and joins whichever
//! group reaches it first, so an unhealed macro run can read `[9, 7]` or
//! `[8, 7, 1]` where micro reads `[8, 8]`. Both are "still split".
//!
//! The macro twin of a micro config uses one geo cluster whose fixed
//! one-way latency is micro's base latency, micro's jitter, every node
//! mining, a degree band of 4 (2 at three nodes) to min(n − 1, 8), and the
//! same seed, duration and plan.

use stick_a_fork::sim::invariants::{
    check_heal_convergence, check_reorg_depth, InvariantViolation,
};
use stick_a_fork::sim::macroscale::{GeoCluster, MacroConfig, MacroNet, TopologyGenConfig};
use stick_a_fork::sim::micro::{MicroConfig, MicroNet};
use stick_a_fork::sim::scenario::{atlas_flash, atlas_geo, atlas_three_way};
use stick_a_fork::sim::{atlas_never_healed, atlas_reorg_bound, ChaosPlan};

const SEEDS: [u64; 3] = [1, 2, 3];

/// The macro configuration running the same scenario as `micro`.
fn macro_twin(micro: &MicroConfig) -> MacroConfig {
    let n = micro.n_nodes;
    MacroConfig {
        seed: micro.seed,
        topology: TopologyGenConfig {
            n_nodes: n,
            clusters: vec![GeoCluster {
                name: "one",
                weight: 1.0,
                intra_rtt_ms: (micro.latency.base_ms, micro.latency.base_ms),
            }],
            min_degree: if n == 3 { 2 } else { 4 },
            max_degree: (n - 1).min(8),
            ..TopologyGenConfig::default()
        },
        duration_secs: micro.duration_secs,
        miner_fraction: 1.0,
        jitter_ms: micro.latency.jitter_ms,
        chaos: micro.chaos.clone(),
        ..MacroConfig::default()
    }
}

/// Runs `config` to its end on both engines.
fn run_both(config: &MicroConfig) -> (MicroNet, MacroNet) {
    let mut micro = MicroNet::new(config.clone());
    micro.run();
    let mut macro_net = MacroNet::new(macro_twin(config)).expect("twin config is valid");
    macro_net.run();
    (micro, macro_net)
}

/// Every node of a uniform network mining on equal hashpower.
fn uniform(seed: u64, n_nodes: usize, duration_secs: u64, chaos: ChaosPlan) -> MicroConfig {
    MicroConfig {
        seed,
        n_nodes,
        n_miners: n_nodes,
        duration_secs,
        chaos,
        ..MicroConfig::default()
    }
}

#[test]
fn three_node_mesh_converges_on_both_engines() {
    for seed in SEEDS {
        let (micro, macro_net) = run_both(&uniform(seed, 3, 1_800, ChaosPlan::NONE));
        assert_eq!(micro.partition_census(), vec![3], "micro seed {seed}");
        assert_eq!(macro_net.partition_census(), vec![3], "macro seed {seed}");
    }
}

#[test]
fn isolated_node_rejoins_the_longest_chain_on_both_engines() {
    let plan = ChaosPlan::NONE.isolate_node(2, 300_000).rejoin(2, 900_000);
    let bound = atlas_reorg_bound(600);
    for seed in SEEDS {
        let (micro, macro_net) = run_both(&uniform(seed, 3, 1_800, plan.clone()));
        assert_eq!(micro.partition_census(), vec![3], "micro seed {seed}");
        assert_eq!(macro_net.partition_census(), vec![3], "macro seed {seed}");
        check_reorg_depth(&micro, bound).unwrap_or_else(|v| panic!("micro seed {seed}: {v}"));
        check_reorg_depth(&macro_net, bound).unwrap_or_else(|v| panic!("macro seed {seed}: {v}"));
    }
}

#[test]
fn healed_atlas_plans_pass_the_same_checks_on_both_engines() {
    for seed in SEEDS {
        for preset in [atlas_flash(seed), atlas_three_way(seed), atlas_geo(seed)] {
            let (micro, macro_net) = run_both(&preset.config);
            let (name, groups, bound) = (
                preset.name,
                preset.expected_groups,
                preset.reorg_depth_bound,
            );
            check_heal_convergence(&micro, groups)
                .unwrap_or_else(|v| panic!("{name} micro seed {seed}: {v}"));
            check_heal_convergence(&macro_net, groups)
                .unwrap_or_else(|v| panic!("{name} macro seed {seed}: {v}"));
            check_reorg_depth(&micro, bound)
                .unwrap_or_else(|v| panic!("{name} micro seed {seed}: {v}"));
            check_reorg_depth(&macro_net, bound)
                .unwrap_or_else(|v| panic!("{name} macro seed {seed}: {v}"));
        }
    }
}

#[test]
fn never_healed_plan_fails_convergence_on_both_engines() {
    for seed in SEEDS {
        let control = atlas_never_healed(seed);
        let (micro, macro_net) = run_both(&control.config);
        for (engine, verdict) in [
            (
                "micro",
                check_heal_convergence(&micro, control.expected_groups),
            ),
            (
                "macro",
                check_heal_convergence(&macro_net, control.expected_groups),
            ),
        ] {
            match verdict {
                Err(InvariantViolation::HealConvergenceFailed { groups, .. }) => {
                    assert!(groups.len() >= 2, "{engine} seed {seed}: census {groups:?}")
                }
                other => panic!("{engine} seed {seed}: never-healed run converged: {other:?}"),
            }
        }
    }
}
