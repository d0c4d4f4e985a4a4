//! Scenario presets: the calibrated DAO-fork timeline.
//!
//! The engine takes *mechanism* from the chain rules and *behavior* from
//! these schedules. Behavior — who pointed hashpower where, how many
//! transactions users sent — is exactly what the paper measured, so we
//! parameterize it from the paper's own measured shapes and the historical
//! narrative, and let everything downstream (block rates, difficulty
//! trajectories, echo series, pool concentration) emerge.
//!
//! ## Height mapping
//!
//! The simulated genesis is the last *pre-fork* block, at height 0 — so the
//! fork block is height 1, and every real mainnet height `H` maps to
//! `H − 1,920,000 + 1`. Both chains targeted 14-second blocks, so the
//! calendar dates of the later forks land where they did in reality
//! (ETH's replay fork ≈ day 125 ≈ Nov 22; ETC's ≈ day 177 ≈ Jan 13).

use fork_chain::{BombConfig, ChainSpec};
use fork_market::{HashpowerAllocator, HashpowerSplit, TotalHashpowerPath};
use fork_pools::PoolSet;
use fork_primitives::time::DAO_FORK_TIMESTAMP;
use fork_primitives::{units::ether, Address, ChainId, SimTime, U256};
use fork_replay::{etc_adoption, eth_adoption};

use crate::chaos::{
    ByzantineBehavior, ByzantineNode, ChaosPlan, CrashEvent, DegradationWindow, RecoveryMode,
};
use crate::meso::{MesoConfig, NetworkParams};
use crate::micro::{MicroConfig, SpecAssignment};
use crate::rng::SimRng;
use crate::schedule::StepSeries;
use crate::workload::WorkloadParams;
use fork_net::FaultPlan;

/// Maps a real mainnet block height into simulation heights.
pub fn sim_height(real: u64) -> u64 {
    real - fork_chain::DAO_FORK_BLOCK + 1
}

/// The fork block in simulation numbering.
pub const SIM_FORK_BLOCK: u64 = 1;

/// Workload scale divisor: simulated transaction volumes are 1/20 of the
/// measured 2016–17 volumes (documented in DESIGN.md; every per-day count in
/// EXPERIMENTS.md is compared after multiplying back by this factor).
pub const TX_SCALE: f64 = 20.0;

/// Pre-fork operating point: ETH mainnet difficulty at block 1,920,000.
pub fn fork_difficulty() -> U256 {
    U256::from_u128(62_000_000_000_000)
}

/// The DAO vault address used across scenarios.
pub fn dao_vault_address() -> Address {
    Address([0xDA; 20])
}

/// The withdraw/refund contract address.
pub fn dao_refund_address() -> Address {
    Address([0xFD; 20])
}

/// ETH protocol rules in simulation heights.
pub fn sim_spec_eth() -> ChainSpec {
    let mut spec = ChainSpec::eth(vec![dao_vault_address()], dao_refund_address());
    if let Some(d) = spec.dao_fork.as_mut() {
        d.block = SIM_FORK_BLOCK;
    }
    spec.eip150_block = Some(sim_height(fork_chain::spec::ETH_EIP150_BLOCK));
    spec.eip155 = Some((
        sim_height(fork_chain::spec::ETH_REPLAY_FORK_BLOCK),
        ChainId::ETH,
    ));
    spec
}

/// ETC protocol rules in simulation heights.
pub fn sim_spec_etc() -> ChainSpec {
    let mut spec = ChainSpec::etc(vec![dao_vault_address()], dao_refund_address());
    if let Some(d) = spec.dao_fork.as_mut() {
        d.block = SIM_FORK_BLOCK;
    }
    spec.eip150_block = Some(sim_height(fork_chain::spec::ETC_REPLAY_FORK_BLOCK));
    spec.eip155 = Some((
        sim_height(fork_chain::spec::ETC_REPLAY_FORK_BLOCK),
        ChainId::ETC,
    ));
    spec.difficulty.bomb = BombConfig::PausedAt {
        pause_block: sim_height(fork_chain::spec::ETC_REPLAY_FORK_BLOCK),
    };
    spec
}

/// The ETC hashpower *fraction* timeline around and after the fork:
/// near-total collapse at the fork (observation 1), a ramp over the first
/// two days as holdout miners spin up (observation 2), and the
/// switchback wave in days 10–16 that Figure 1's mirror-image difficulty
/// curves reveal.
pub fn etc_fraction_schedule(start: SimTime) -> StepSeries {
    StepSeries::constant(0.004)
        .then(start.plus_secs(6 * 3_600), 0.008)
        .then(start.plus_secs(12 * 3_600), 0.014)
        .then(start.plus_secs(24 * 3_600), 0.018)
        .then(start.plus_secs(36 * 3_600), 0.032)
        .then(start.plus_secs(48 * 3_600), 0.050)
        .then(start.plus_secs(60 * 3_600), 0.065)
        .then(start.plus_secs(72 * 3_600), 0.070)
        .then(start.plus_days(10), 0.078)
        .then(start.plus_days(12), 0.088)
        .then(start.plus_days(14), 0.098)
        .then(start.plus_days(16), 0.105)
}

/// Builds both networks' absolute hashrate schedules over `days`:
/// the transient allegiance shape above for the first ~16 days, then daily
/// rational reallocation against the calibrated USD prices, all multiplied
/// by the total-hashpower path (growth + the Zcash exodus).
pub fn hashrate_schedules(start: SimTime, days: u64, seed: u64) -> (StepSeries, StepSeries) {
    let total_path = TotalHashpowerPath::default();
    let allocator = HashpowerAllocator::default();
    let mut price_rng = SimRng::new(seed).fork("prices");
    let (eth_usd, etc_usd) = fork_market::calibrated_pair(&mut price_rng);

    let transient = etc_fraction_schedule(start);
    let mut split = HashpowerSplit {
        eth_fraction: 1.0 - 0.105,
    };

    let mut eth_knots = Vec::new();
    let mut etc_knots = Vec::new();
    // Sub-daily knots for the fork window, daily afterwards.
    let mut knot_times: Vec<SimTime> = vec![start];
    for h in [6u64, 12, 24, 36, 48] {
        knot_times.push(start.plus_secs(h * 3_600));
    }
    for d in 3..=days {
        knot_times.push(start.plus_days(d));
    }

    for t in knot_times {
        let day = t.secs_since(start) / 86_400;
        let total = total_path.at_day(day);
        let etc_frac = if t < start.plus_days(17) {
            transient.at(t)
        } else {
            split = allocator.step(split, eth_usd.usd_at(t), etc_usd.usd_at(t));
            split.etc_fraction()
        };
        etc_knots.push((t, total * etc_frac));
        eth_knots.push((t, total * (1.0 - etc_frac)));
    }
    (
        StepSeries::from_knots(eth_knots),
        StepSeries::from_knots(etc_knots),
    )
}

/// ETH transactions-per-second schedule (scaled by [`TX_SCALE`]), shaped to
/// Figure 2's middle panel: ~25k/day post-fork, slow growth, then the March
/// 2017 speculation surge toward ~100k/day.
pub fn eth_tx_rate(start: SimTime) -> StepSeries {
    let per_day = |v: f64| v / 86_400.0 / TX_SCALE;
    StepSeries::constant(per_day(25_000.0))
        .then(start.plus_days(60), per_day(30_000.0))
        .then(start.plus_days(120), per_day(38_000.0))
        .then(start.plus_days(200), per_day(45_000.0))
        .then(start.plus_days(225), per_day(70_000.0))
        .then(start.plus_days(240), per_day(100_000.0))
        .then(start.plus_days(265), per_day(95_000.0))
}

/// ETC transactions-per-second schedule: depressed in the chaotic first two
/// days, then the ~2.5:1 ETH:ETC ratio the paper reports, drifting to ~5:1
/// by late March as ETH surges.
pub fn etc_tx_rate(start: SimTime) -> StepSeries {
    let per_day = |v: f64| v / 86_400.0 / TX_SCALE;
    StepSeries::constant(per_day(2_000.0))
        .then(start.plus_days(2), per_day(10_000.0))
        .then(start.plus_days(60), per_day(12_000.0))
        .then(start.plus_days(120), per_day(15_000.0))
        .then(start.plus_days(200), per_day(18_000.0))
        .then(start.plus_days(240), per_day(20_000.0))
}

/// Contract-call fraction schedules — similar on both chains for most of the
/// study, with ETH pulling ahead only at the very end (Figure 2 bottom).
pub fn contract_fraction(start: SimTime, is_eth: bool) -> StepSeries {
    let base = StepSeries::constant(0.10)
        .then(start.plus_days(60), 0.18)
        .then(start.plus_days(120), 0.25)
        .then(start.plus_days(200), 0.33);
    if is_eth {
        base.then(start.plus_days(235), 0.45)
            .then(start.plus_days(255), 0.55)
    } else {
        base.then(start.plus_days(235), 0.35)
    }
}

/// Rebroadcast eagerness over time: the initial spike (shared wallets,
/// greedy recipients), decay as users split funds, small persistent tail
/// (paper: "hundreds of daily rebroadcast transactions even today").
pub fn replay_eagerness(start: SimTime) -> StepSeries {
    StepSeries::constant(0.45)
        .then(start.plus_days(3), 0.30)
        .then(start.plus_days(14), 0.15)
        .then(start.plus_days(60), 0.08)
        .then(start.plus_days(90), 0.12) // the Oct/Nov contract-linked bumps
        .then(start.plus_days(130), 0.05)
        .then(start.plus_days(200), 0.03)
}

/// The full DAO-fork scenario over `days`, at the real difficulty scale.
pub fn dao_scenario(seed: u64, days: u64) -> MesoConfig {
    let start = SimTime::from_unix(DAO_FORK_TIMESTAMP);
    let (eth_hash, etc_hash) = hashrate_schedules(start, days.max(17), seed);

    let eth = NetworkParams {
        spec: sim_spec_eth(),
        hashrate: eth_hash,
        pools: PoolSet::converged("eth"),
        pool_churn_per_day: 0.004,
        workload: WorkloadParams {
            tx_rate: eth_tx_rate(start),
            contract_fraction: contract_fraction(start, true),
            adoption: eth_adoption(start.plus_days(125).day_bucket()),
            chain_id: ChainId::ETH,
        },
    };
    let etc = NetworkParams {
        spec: sim_spec_etc(),
        hashrate: etc_hash,
        pools: PoolSet::fragmented("etc", 16),
        pool_churn_per_day: 0.035,
        workload: WorkloadParams {
            tx_rate: etc_tx_rate(start),
            contract_fraction: contract_fraction(start, false),
            adoption: etc_adoption(start.plus_days(177).day_bucket()),
            chain_id: ChainId::ETC,
        },
    };

    MesoConfig {
        seed,
        start,
        end: start.plus_days(days),
        genesis_difficulty: fork_difficulty(),
        users: 400,
        eth_user_fraction: 0.7,
        user_funding: ether(10_000),
        replay_eagerness: replay_eagerness(start),
        retention: 64,
        eth,
        etc,
    }
}

/// The chaos harness preset: a fork-split micro network plus the metadata
/// the harness needs to judge it.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// The micro-engine configuration, chaos plan included.
    pub config: MicroConfig,
    /// Pro-fork node indices (the first half).
    pub eth_nodes: Vec<usize>,
    /// Anti-fork node indices (the second half).
    pub etc_nodes: Vec<usize>,
    /// Seconds into the run by which every scripted fault has ended (crashes
    /// recovered, degradation window closed, byzantine nodes turned honest).
    pub faults_clear_secs: u64,
    /// The per-side target block interval the scenario is tuned for.
    pub target_block_secs: f64,
}

impl ChaosScenario {
    /// The same run with the chaos plan stripped — the byte-identical
    /// baseline a chaos run is diffed against.
    pub fn base_without_chaos(&self) -> MicroConfig {
        MicroConfig {
            chaos: ChaosPlan::NONE,
            ..self.config.clone()
        }
    }
}

/// The standard chaos scenario: a 20-node fork-split network (half pro-,
/// half anti-fork, all mining) hit — entirely in the first 25 simulated
/// minutes — by two node crashes (one restarting intact, one with a
/// truncated store tail), a 10-minute 15%-drop link storm, and three
/// byzantine peers (an equivocating miner, a corrupt-frame sender, and a
/// stale/fake-hash spammer). Nodes 0 and 19 are never touched by the plan,
/// so each side keeps a clean representative. Hashrate and genesis
/// difficulty are tuned so each side starts at the paper's 14-second block
/// target; the long fault-free tail after `faults_clear_secs` is where the
/// harness measures recovery and convergence.
pub fn chaos_scenario(seed: u64) -> ChaosScenario {
    let mut eth = ChainSpec::eth(vec![dao_vault_address()], dao_refund_address());
    let mut etc = ChainSpec::etc(vec![dao_vault_address()], dao_refund_address());
    // Test scale: fork at block 1, fast-retarget difficulty, light PoW.
    for spec in [&mut eth, &mut etc] {
        spec.difficulty = ChainSpec::test().difficulty;
        spec.pow_work_factor = 2;
        if let Some(d) = spec.dao_fork.as_mut() {
            d.block = SIM_FORK_BLOCK;
        }
        spec.eip150_block = None;
        spec.eip155 = None;
    }

    let chaos = ChaosPlan {
        crashes: vec![
            CrashEvent {
                node: 3,
                at_secs: 600,
                down_secs: 300,
                recovery: RecoveryMode::Intact,
            },
            CrashEvent {
                node: 15,
                at_secs: 800,
                down_secs: 240,
                recovery: RecoveryMode::TruncatedTail { depth: 4 },
            },
        ],
        degradations: vec![DegradationWindow {
            from_secs: 900,
            until_secs: 1_500,
            faults: FaultPlan::new(0.15, 0.0, 0.0).expect("static chances are valid"),
        }],
        byzantine: vec![
            ByzantineNode {
                node: 2,
                behavior: ByzantineBehavior::Equivocate,
                until_secs: Some(1_200),
            },
            ByzantineNode {
                node: 5,
                behavior: ByzantineBehavior::CorruptFrames,
                until_secs: Some(1_500),
            },
            ByzantineNode {
                node: 16,
                behavior: ByzantineBehavior::StaleSpam {
                    period_secs: 15,
                    fake_hashes: 4,
                },
                until_secs: Some(1_500),
            },
        ],
        ..ChaosPlan::NONE
    };

    // 1,000 h/s split evenly across 20 mining nodes → 500 h/s per side;
    // genesis difficulty 7,000 → 14-second blocks on each side from the
    // start (no slow Homestead retarget transient to wait out).
    ChaosScenario {
        config: MicroConfig {
            seed,
            n_nodes: 20,
            n_miners: 20,
            total_hashrate: 1_000.0,
            genesis_difficulty: U256::from_u64(7_000),
            duration_secs: 4_800,
            specs: SpecAssignment::ForkSplit {
                eth,
                etc,
                eth_fraction: 0.5,
            },
            chaos,
            ..MicroConfig::default()
        },
        eth_nodes: (0..10).collect(),
        etc_nodes: (10..20).collect(),
        faults_clear_secs: 1_500,
        target_block_secs: 14.0,
    }
}

/// Where the trace preset forks (vs. block 1 in the chaos preset): late
/// enough that the shared pre-fork regime produces a measurable propagation
/// sample before the network splits.
pub const TRACE_FORK_BLOCK: u64 = 15;

/// The tracing preset: the chaos scenario's 20-node fork-split network with
/// the chaos plan stripped and the fork moved from block 1 to
/// [`TRACE_FORK_BLOCK`]. Below that height the whole network mines one
/// shared chain, so a trace records both the *pre-fork* propagation regime
/// (blocks cover the full 20-node graph) and the *post-fork* regime (each
/// block only covers its own side) — the before/after rows of the
/// propagation table.
pub fn trace_scenario(seed: u64) -> ChaosScenario {
    let mut scenario = chaos_scenario(seed);
    scenario.config.chaos = ChaosPlan::NONE;
    scenario.config.duration_secs = 1_800;
    if let SpecAssignment::ForkSplit { eth, etc, .. } = &mut scenario.config.specs {
        for spec in [eth, etc] {
            if let Some(d) = spec.dao_fork.as_mut() {
                d.block = TRACE_FORK_BLOCK;
            }
        }
    }
    scenario.faults_clear_secs = 0;
    scenario
}

/// One fork-atlas preset: a partition scenario plus the metadata the atlas
/// harness (`make-figures atlas`, `tests/partition_atlas.rs`) uses to judge
/// it against the convergence invariants.
#[derive(Debug, Clone)]
pub struct AtlasPreset {
    /// Stable preset name (figure rows and the CI grep key on them).
    pub name: &'static str,
    /// The micro-engine configuration, partition plan included.
    pub config: MicroConfig,
    /// Census groups expected once converged: one per spec in the run.
    pub expected_groups: usize,
    /// Simulated time from which
    /// [`crate::invariants::check_heal_convergence`] must hold: the last
    /// heal plus a propagation/resync grace (or, for the spec-driven split,
    /// a grace past the fork block).
    pub converge_by_ms: u64,
    /// Maximum justifiable reorg depth, blocks — see [`atlas_reorg_bound`].
    pub reorg_depth_bound: u64,
    /// Longest scripted partition window, seconds (0 = the split is
    /// spec-driven by client diversity, not scripted).
    pub partition_secs: u64,
}

/// The reorg-depth bound a partition of `partition_secs` justifies: the
/// losing side can mine at most ~one block per 14 s target while split
/// (in reality fewer — its difficulty still reflects the whole network),
/// doubled for retarget drift, plus the 8-block transient-fork margin.
pub fn atlas_reorg_bound(partition_secs: u64) -> u64 {
    2 * partition_secs / 14 + 8
}

/// Flash partition: a uniform 16-node network splits clean in half for
/// 300 s — each side keeps mining on half the hashpower — and heals while
/// the sides' tips disagree, forcing the minority branch through a
/// mid-reorg collapse (the arXiv:1804.07356 "heal-time reorg storm" case).
pub fn atlas_flash(seed: u64) -> AtlasPreset {
    let heal_ms = 900_000;
    AtlasPreset {
        name: "flash_two_way",
        config: MicroConfig {
            seed,
            n_nodes: 16,
            n_miners: 16,
            duration_secs: 2_400,
            chaos: ChaosPlan::NONE
                .create_partition(600_000, vec![(0..8).collect(), (8..16).collect()])
                .heal_partition(heal_ms),
            ..MicroConfig::default()
        },
        expected_groups: 1,
        converge_by_ms: heal_ms + 300_000,
        reorg_depth_bound: atlas_reorg_bound(300),
        partition_secs: 300,
    }
}

/// Three-way split: 18 nodes shatter into three equal groups for 400 s.
/// Three histories diverge; at heal, total difficulty must pick one winner
/// and fold the other two back.
pub fn atlas_three_way(seed: u64) -> AtlasPreset {
    let heal_ms = 1_000_000;
    AtlasPreset {
        name: "three_way",
        config: MicroConfig {
            seed,
            n_nodes: 18,
            n_miners: 18,
            duration_secs: 2_700,
            chaos: ChaosPlan::NONE
                .create_partition(
                    600_000,
                    vec![(0..6).collect(), (6..12).collect(), (12..18).collect()],
                )
                .heal_partition(heal_ms),
            ..MicroConfig::default()
        },
        expected_groups: 1,
        converge_by_ms: heal_ms + 400_000,
        reorg_depth_bound: atlas_reorg_bound(400),
        partition_secs: 400,
    }
}

/// Geo-partition: a 20-node network on slow, jittery WAN links (the
/// arXiv:2005.06356 geo-distribution motivation) loses its "transatlantic"
/// edges for 600 s, stranding a 6-node minority continent. The longest
/// outage in the atlas, with the deepest justified heal reorg; the high
/// link latency also stretches the post-heal resync, hence the longer
/// grace.
pub fn atlas_geo(seed: u64) -> AtlasPreset {
    let heal_ms = 1_200_000;
    AtlasPreset {
        name: "geo_continents",
        config: MicroConfig {
            seed,
            n_nodes: 20,
            n_miners: 20,
            duration_secs: 3_000,
            latency: fork_net::LatencyModel {
                base_ms: 150,
                jitter_ms: 75,
            },
            chaos: ChaosPlan::NONE
                .create_partition(600_000, vec![(0..14).collect(), (14..20).collect()])
                .heal_partition(heal_ms),
            ..MicroConfig::default()
        },
        expected_groups: 1,
        converge_by_ms: heal_ms + 600_000,
        reorg_depth_bound: atlas_reorg_bound(600),
        partition_secs: 600,
    }
}

/// Client-diversity split: no scripted partition at all — a 65/35
/// pro-/anti-fork rules split severs the network at the fork block, the
/// mechanism behind the paper's Nov 2016 / Jan 2017 resolved forks (and
/// `resolved.rs`). The census must settle at exactly two groups and stay
/// there: this is the one preset whose steady state is a partition. The
/// topology is denser than default so the 7-node minority's induced
/// subgraph stays connected once every cross-spec edge drops at the
/// handshake (a sparse graph can strand a minority node with only
/// incompatible peers — a real hazard, but not the one this preset
/// measures).
pub fn atlas_client_split(seed: u64) -> AtlasPreset {
    let mut eth = ChainSpec::eth(vec![dao_vault_address()], dao_refund_address());
    let mut etc = ChainSpec::etc(vec![dao_vault_address()], dao_refund_address());
    for spec in [&mut eth, &mut etc] {
        spec.difficulty = ChainSpec::test().difficulty;
        spec.pow_work_factor = 2;
        if let Some(d) = spec.dao_fork.as_mut() {
            d.block = SIM_FORK_BLOCK;
        }
        spec.eip150_block = None;
        spec.eip155 = None;
    }
    AtlasPreset {
        name: "client_split",
        config: MicroConfig {
            seed,
            n_nodes: 20,
            n_miners: 20,
            total_hashrate: 1_000.0,
            genesis_difficulty: U256::from_u64(7_000),
            duration_secs: 2_400,
            specs: SpecAssignment::ForkSplit {
                eth,
                etc,
                eth_fraction: 0.65,
            },
            topology: fork_net::TopologyConfig {
                target_degree: 12,
                bootstrap_contacts: 5,
                lookup_rounds: 3,
            },
            ..MicroConfig::default()
        },
        expected_groups: 2,
        converge_by_ms: 600_000,
        reorg_depth_bound: atlas_reorg_bound(0),
        partition_secs: 0,
    }
}

/// The full fork atlas, in figure-row order.
pub fn atlas_presets(seed: u64) -> Vec<AtlasPreset> {
    vec![
        atlas_flash(seed),
        atlas_three_way(seed),
        atlas_geo(seed),
        atlas_client_split(seed),
    ]
}

/// One point of the atlas's lifetime-vs-duration scaling curve: the flash
/// two-way topology with a *parametric* partition window. The partition
/// opens at 600 s (well past warm-up) and heals `partition_secs` later;
/// the run continues 600 s past the heal so census convergence is
/// checkable at every point of the sweep. Sweeping `partition_secs` over
/// a range of durations (× several seeds) traces how long the minority
/// branch survives as a function of how long the network was split.
pub fn atlas_duration_sweep(seed: u64, partition_secs: u64) -> AtlasPreset {
    let start_ms = 600_000;
    let heal_ms = start_ms + partition_secs * 1_000;
    AtlasPreset {
        name: "duration_sweep",
        config: MicroConfig {
            seed,
            n_nodes: 16,
            n_miners: 16,
            duration_secs: heal_ms / 1_000 + 600,
            chaos: ChaosPlan::NONE
                .create_partition(start_ms, vec![(0..8).collect(), (8..16).collect()])
                .heal_partition(heal_ms),
            ..MicroConfig::default()
        },
        expected_groups: 1,
        converge_by_ms: heal_ms + 300_000,
        reorg_depth_bound: atlas_reorg_bound(partition_secs),
        partition_secs,
    }
}

/// The atlas's negative control: the flash partition with its heal removed.
/// The network never reconverges, so
/// [`crate::invariants::check_heal_convergence`] MUST fail past
/// `converge_by_ms` — proving the invariant can actually catch a
/// non-convergence, not just bless healthy runs.
pub fn atlas_never_healed(seed: u64) -> AtlasPreset {
    let mut preset = atlas_flash(seed);
    preset.name = "never_healed";
    preset.config.chaos.partitions[0].heal_at_ms = None;
    preset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_mapping_lands_on_calendar() {
        assert_eq!(sim_height(1_920_000), 1);
        // ETH replay fork: ~125 days of 14s blocks after the fork.
        let d = sim_height(fork_chain::spec::ETH_REPLAY_FORK_BLOCK) * 14 / 86_400;
        assert!((120..130).contains(&d), "{d} days");
        // ETC replay fork: ~175 days.
        let d = sim_height(fork_chain::spec::ETC_REPLAY_FORK_BLOCK) * 14 / 86_400;
        assert!((170..182).contains(&d), "{d} days");
    }

    #[test]
    fn specs_fork_at_block_one() {
        let eth = sim_spec_eth();
        let etc = sim_spec_etc();
        assert_eq!(eth.dao_fork.as_ref().unwrap().block, 1);
        assert_eq!(etc.dao_fork.as_ref().unwrap().block, 1);
        assert!(eth.dao_fork.as_ref().unwrap().support);
        assert!(!etc.dao_fork.as_ref().unwrap().support);
    }

    #[test]
    fn etc_fraction_shape() {
        let start = SimTime::from_unix(DAO_FORK_TIMESTAMP);
        let s = etc_fraction_schedule(start);
        assert!(s.at(start) < 0.01, "near-total initial collapse");
        let at_2d = s.at(start.plus_days(2));
        assert!((0.04..0.08).contains(&at_2d), "{at_2d}");
        let late = s.at(start.plus_days(20));
        assert!(
            (0.10..0.11).contains(&late),
            "~90% net loss persists: {late}"
        );
    }

    #[test]
    fn hashrate_schedules_partition_total() {
        let start = SimTime::from_unix(DAO_FORK_TIMESTAMP);
        let (eth, etc) = hashrate_schedules(start, 40, 1);
        let path = TotalHashpowerPath::default();
        for d in [0u64, 1, 5, 20, 39] {
            let t = start.plus_days(d).plus_secs(100);
            let sum = eth.at(t) + etc.at(t);
            let total = path.at_day(d);
            assert!(
                (sum - total).abs() / total < 1e-6,
                "day {d}: {sum} vs {total}"
            );
        }
    }

    #[test]
    fn tx_ratio_moves_from_2_5_to_5() {
        let start = SimTime::from_unix(DAO_FORK_TIMESTAMP);
        let eth = eth_tx_rate(start);
        let etc = etc_tx_rate(start);
        let early = eth.at(start.plus_days(30)) / etc.at(start.plus_days(30));
        let late = eth.at(start.plus_days(250)) / etc.at(start.plus_days(250));
        assert!((2.2..2.8).contains(&early), "early ratio {early}");
        assert!((4.2..5.6).contains(&late), "late ratio {late}");
    }

    #[test]
    fn first_month_config_sane() {
        let c = dao_scenario(1, 31);
        assert_eq!(c.end.secs_since(c.start), 31 * 86_400);
        assert_eq!(c.genesis_difficulty, fork_difficulty());
        // ETH hashrate at start sustains ~14s blocks on the genesis
        // difficulty.
        let h = c.eth.hashrate.at(c.start);
        let block_time = c.genesis_difficulty.to_f64_lossy() / h;
        assert!((12.0..17.0).contains(&block_time), "{block_time}");
        // ETC at start is in crisis: >30 minute expected blocks.
        let h_etc = c.etc.hashrate.at(c.start);
        let etc_time = c.genesis_difficulty.to_f64_lossy() / h_etc;
        assert!(etc_time > 1_800.0, "{etc_time}");
    }

    #[test]
    fn replay_eagerness_decays_but_persists() {
        let start = SimTime::from_unix(DAO_FORK_TIMESTAMP);
        let s = replay_eagerness(start);
        assert!(s.at(start) > 0.4);
        assert!(s.at(start.plus_days(250)) >= 0.02, "persistent tail");
        assert!(s.at(start.plus_days(250)) < s.at(start) / 5.0);
    }

    #[test]
    fn atlas_presets_are_well_formed() {
        let presets = atlas_presets(7);
        assert_eq!(presets.len(), 4);
        let names: std::collections::HashSet<_> = presets.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 4, "preset names must be unique");
        for p in &presets {
            p.config
                .chaos
                .validate(p.config.n_nodes)
                .unwrap_or_else(|e| panic!("{}: invalid chaos plan: {e}", p.name));
            assert!(p.expected_groups >= 1, "{}", p.name);
            assert!(
                p.converge_by_ms < p.config.duration_secs * 1_000,
                "{}: convergence deadline must land inside the run",
                p.name
            );
            assert_eq!(p.reorg_depth_bound, atlas_reorg_bound(p.partition_secs));
            // Scripted presets heal before the convergence deadline.
            for part in &p.config.chaos.partitions {
                let heal = part.heal_at_ms.expect("atlas partitions heal");
                assert!(heal <= p.converge_by_ms, "{}", p.name);
                assert_eq!((heal - part.at_ms) / 1_000, p.partition_secs, "{}", p.name);
            }
            // The client-diversity preset is the only spec-driven one.
            let forked = matches!(p.config.specs, SpecAssignment::ForkSplit { .. });
            assert_eq!(forked, p.partition_secs == 0, "{}", p.name);
            assert_eq!(forked, p.expected_groups == 2, "{}", p.name);
        }
    }

    #[test]
    fn atlas_negative_control_never_heals() {
        let control = atlas_never_healed(7);
        assert_eq!(control.name, "never_healed");
        assert_eq!(control.config.chaos.partitions.len(), 1);
        assert_eq!(control.config.chaos.partitions[0].heal_at_ms, None);
        // Still a valid plan: never-healing partitions are legal, just
        // guaranteed to fail the convergence invariant.
        control
            .config
            .chaos
            .validate(control.config.n_nodes)
            .expect("never-healed plan validates");
        // Everything else matches the flash preset it was derived from.
        let flash = atlas_flash(7);
        assert_eq!(control.config.n_nodes, flash.config.n_nodes);
        assert_eq!(control.converge_by_ms, flash.converge_by_ms);
    }
}
