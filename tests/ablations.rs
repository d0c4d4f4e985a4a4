//! Ablations of the design choices called out in DESIGN.md §4. Each test
//! isolates one mechanism and checks the direction of its effect:
//!
//! * bounded difficulty adjustment and the −99 cap (recovery after the crash),
//! * the difficulty bomb (block-time drift at 2017 heights),
//! * EIP-155 adoption (echo volume),
//! * gossip latency (transient-fork rate),
//! * pool payout schemes (miner income variance).

use rand::Rng;
use stick_a_fork::chain::{BombConfig, DifficultyConfig};
use stick_a_fork::core::ForkStudy;
use stick_a_fork::net::LatencyModel;
use stick_a_fork::pools::{distribute, income_coefficient_of_variation, PayoutScheme, ShareLedger};
use stick_a_fork::primitives::{units::ether, Address, U256};
use stick_a_fork::replay::{AdoptionCurve, Side};
use stick_a_fork::sim::micro::{MicroConfig, MicroNet};
use stick_a_fork::sim::SimRng;

/// Pre-fork difficulty at the DAO fork.
const FORK_DIFFICULTY: f64 = 6.2e13;

/// Hashrate left after ETC's ~99.5% collapse.
const COLLAPSED_HASHRATE: f64 = FORK_DIFFICULTY / 14.0 * 0.005;

/// Deterministic recovery after ETC's actual collapse (the −99 cap binds
/// only when blocks are slower than ~1,000 s, so the ablation must use the
/// real collapse depth, not a mild one). Returns `(blocks, seconds)` until
/// the expected block time re-enters the target band.
fn recovery(capped: bool) -> (u64, f64) {
    let cfg = DifficultyConfig {
        bomb: BombConfig::Disabled,
        ..DifficultyConfig::default()
    };
    let h = COLLAPSED_HASHRATE;
    let mut d = FORK_DIFFICULTY;
    let mut blocks = 0u64;
    let mut elapsed = 0.0f64;
    while d / h >= 20.0 {
        let bt = d / h;
        elapsed += bt;
        if capped {
            let next =
                cfg.next_difficulty(U256::from_u128(d as u128), 0, bt as u64, 1_920_000 + blocks);
            d = next.to_f64_lossy();
        } else {
            // Uncapped: sigma = 1 - bt/10 with no floor.
            let sigma = 1.0 - (bt / 10.0).floor();
            d += d / 2048.0 * sigma;
            d = d.max(131_072.0);
        }
        blocks += 1;
        assert!(blocks < 100_000);
    }
    (blocks, elapsed)
}

/// The −99 cap itself is a minor effect: it binds only while blocks are
/// slower than ~1,000 s. The hours-long recovery comes from the bounded
/// proportional rule; an instant retarget (difficulty := hashrate ×
/// target) would recover in one slow block.
#[test]
fn bounded_adjustment_not_the_cap_sets_the_recovery_time() {
    let (_, capped_secs) = recovery(true);
    let (_, uncapped_secs) = recovery(false);
    assert!(
        capped_secs > uncapped_secs,
        "cap must cost wall-clock: {capped_secs:.0}s vs {uncapped_secs:.0}s"
    );
    let instant_retarget_secs = FORK_DIFFICULTY / COLLAPSED_HASHRATE;
    assert!(
        capped_secs > 10.0 * instant_retarget_secs,
        "bounded adjustment must dominate instant retarget: \
         {capped_secs:.0}s vs {instant_retarget_secs:.0}s"
    );
}

#[test]
fn difficulty_bomb_slows_blocks_at_2017_heights() {
    // At a fixed hashrate, walk difficulty to equilibrium with and without
    // the bomb at a year-2017 block number.
    let h = FORK_DIFFICULTY / 14.0;
    let walk = |bomb: BombConfig, number: u64| -> f64 {
        let cfg = DifficultyConfig {
            bomb,
            ..DifficultyConfig::default()
        };
        let mut d = FORK_DIFFICULTY;
        for i in 0..2_000u64 {
            let bt = (d / h).max(1.0);
            d = cfg
                .next_difficulty(U256::from_u128(d as u128), 0, bt as u64, number + i)
                .to_f64_lossy();
        }
        d / h // equilibrium block time
    };
    let with_bomb = walk(BombConfig::Active, 3_700_000);
    let without = walk(BombConfig::Disabled, 3_700_000);
    assert!(
        with_bomb > without,
        "bomb must slow blocks: {with_bomb} vs {without}"
    );
}

#[test]
fn eip155_adoption_cuts_echoes() {
    let echoes_into_etc = |ceiling: f64, seed: u64| {
        let mut study = ForkStudy::quick(seed);
        let cfg = study.config_mut();
        // Replay protection active from the start, adoption at the given
        // ceiling with a fast ramp.
        for net in [&mut cfg.eth, &mut cfg.etc] {
            net.spec.eip155 = net.spec.eip155.map(|(_, id)| (1, id));
            net.workload.adoption = AdoptionCurve {
                activation_day: 0,
                halflife_days: 0.01,
                ceiling,
            };
        }
        study.run().pipeline.total_echoes(Side::Etc)
    };
    for seed in 1..=3 {
        let unprotected = echoes_into_etc(0.0, seed);
        let protected = echoes_into_etc(0.95, seed);
        assert!(
            protected * 3 < unprotected.max(1) * 2,
            "seed {seed}: adoption must cut echoes by a third: {unprotected} -> {protected}"
        );
    }
}

#[test]
fn gossip_latency_raises_transient_forks() {
    let transient_forks = |base_ms: u64, seed: u64| {
        let mut net = MicroNet::new(MicroConfig {
            seed,
            n_nodes: 16,
            n_miners: 8,
            duration_secs: 1_800,
            latency: LatencyModel {
                base_ms,
                jitter_ms: base_ms / 2,
            },
            ..MicroConfig::default()
        });
        let r = net.run();
        r.side_blocks + r.reorgs
    };
    for seed in 1..=3 {
        let fast: u64 = (0..2).map(|k| transient_forks(50, seed * 10 + k)).sum();
        let slow: u64 = (0..2).map(|k| transient_forks(4_000, seed * 10 + k)).sum();
        assert!(
            slow > fast,
            "seed {seed}: latency must raise transient forks: {fast} at 50 ms vs {slow} at 4 s"
        );
    }
}

#[test]
fn pooling_slashes_income_variance() {
    let mut rng = SimRng::new(7);
    let miners: Vec<Address> = (0..40).map(|i| Address([i as u8 + 1; 20])).collect();
    let mut solo = vec![0.0f64; miners.len()];
    let mut proportional = vec![0.0f64; miners.len()];
    let mut pplns = vec![0.0f64; miners.len()];
    let mut ledger = ShareLedger::new();
    for _ in 0..2_000 {
        // Everyone submits one share per round; one lottery winner.
        for m in &miners {
            ledger.submit(*m, 1);
        }
        solo[rng.gen_range(0..miners.len())] += 5.0;
        for (scheme, income) in [
            (PayoutScheme::Proportional, &mut proportional),
            (PayoutScheme::Pplns { window: 40 }, &mut pplns),
        ] {
            for (m, v) in distribute(scheme, ether(5), &ledger) {
                let i = miners.iter().position(|x| *x == m).unwrap();
                income[i] += v.to_f64_lossy();
            }
        }
        ledger.clear();
    }
    let cv_solo = income_coefficient_of_variation(&solo);
    let cv_prop = income_coefficient_of_variation(&proportional);
    let cv_pplns = income_coefficient_of_variation(&pplns);
    assert!(
        cv_solo > 5.0 * cv_prop.max(1e-12),
        "pooling must slash variance: solo {cv_solo}, proportional {cv_prop}"
    );
    assert!(
        cv_solo > 5.0 * cv_pplns.max(1e-12),
        "pooling must slash variance: solo {cv_solo}, PPLNS {cv_pplns}"
    );
}
