//! # fork-replay
//!
//! The replay ("rebroadcast"/"echo") attack machinery of the paper's
//! Figure 4: the cross-chain replayability predicate, streaming echo
//! detection with per-day/per-direction statistics, and the EIP-155
//! adoption curve that gradually closes the hole while leaving the long
//! legacy tail the paper observes. Who rebroadcasts, and how eagerly, is
//! the meso engine's `replay_eagerness`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod echo;
pub mod protection;
pub mod replayable;

pub use echo::{DayStats, EchoDetector, Side};
pub use protection::{etc_adoption, eth_adoption, AdoptionCurve};
pub use replayable::{check_replay, Replayability};

#[cfg(test)]
mod integration {
    use super::*;
    use fork_chain::{ChainSpec, Transaction};
    use fork_crypto::Keypair;
    use fork_evm::WorldState;
    use fork_primitives::{units::ether, Address, U256};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// End-to-end shape test: a population of legacy transactions on ETH,
    /// each replayed into ETC once it validates there, and the detector
    /// counting only ETH→ETC echoes — the paper's observed asymmetry.
    #[test]
    fn replay_pipeline_shape() {
        let etc_spec = ChainSpec::etc(vec![], Address::ZERO);
        let mut detector = EchoDetector::new();

        // Shared pre-fork world: 50 funded users, mirrored on both chains.
        let mut etc_state = WorldState::new();
        let users: Vec<Keypair> = (0..50).map(|i| Keypair::from_seed("user", i)).collect();
        for u in &users {
            etc_state.set_balance(u.address(), ether(100));
        }

        let mut echoes = 0;
        for (i, u) in users.iter().enumerate() {
            let tx = Transaction::transfer(
                u,
                0,
                Address([0xEE; 20]),
                U256::from_u64(1_000),
                U256::ONE,
                None,
            );
            // Original inclusion on ETH.
            detector.observe(Side::Eth, tx.hash(), 0);
            // The recipient lifts it into ETC whenever it validates there.
            if check_replay(&tx, &etc_spec, 2_000_000, &etc_state).is_replayable() {
                let is_echo = detector.observe(Side::Etc, tx.hash(), 0);
                assert!(is_echo, "user {i}");
                echoes += 1;
            }
        }

        // Every user is funded on ETC and signs a legacy transfer, so every
        // transfer replays.
        assert_eq!(echoes, users.len() as u64);
        assert_eq!(detector.total_echoes(Side::Etc), echoes);
        assert_eq!(detector.total_echoes(Side::Eth), 0);
        let etc_day = detector.daily(Side::Etc)[0].1;
        // Every ETC inclusion in this scenario is an echo (100%), matching
        // the initial post-fork spike shape.
        assert!((etc_day.echo_percent() - 100.0).abs() < 1e-9);
    }

    /// Adoption reduces replayable traffic over time.
    #[test]
    fn adoption_closes_the_hole_gradually() {
        let curve = eth_adoption(120);
        let mut rng = StdRng::seed_from_u64(7);
        let rate_at = |day: u64, rng: &mut StdRng| {
            let f = curve.fraction_protected(day);
            let n = 2_000;
            let mut replayable = 0;
            for _ in 0..n {
                let protected = rng.gen_bool(f);
                if !protected {
                    replayable += 1;
                }
            }
            replayable as f64 / n as f64
        };
        use rand::Rng;
        let early = rate_at(121, &mut rng);
        let late = rate_at(360, &mut rng);
        assert!(early > 0.9, "{early}");
        assert!(late < 0.35, "{late}");
        assert!(late > 0.10, "legacy tail persists: {late}");
    }
}
