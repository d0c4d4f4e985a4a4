//! # fork-chain
//!
//! Ethereum-fidelity chain rules for the fork study: headers, transactions
//! (legacy + EIP-155), receipts, the Homestead difficulty algorithm with its
//! −99 cap and difficulty bomb, proof-of-work seals, block validation
//! (including the DAO extra-data rule whose disagreement *is* the ETH/ETC
//! partition), block execution with mining rewards, and a total-difficulty
//! fork-choice store with reorg handling and a sliding finalization window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod difficulty;
pub mod error;
pub mod executor;
pub mod genesis;
pub mod header;
pub mod pow;
pub mod receipt;
pub mod spec;
pub mod store;
pub mod telemetry;
pub mod transaction;
pub mod validation;

pub use block::Block;
pub use difficulty::{BombConfig, DifficultyConfig, DifficultyRule};
pub use error::ChainError;
pub use executor::{apply_block, ExecutedBlock};
pub use genesis::GenesisBuilder;
pub use header::Header;
pub use receipt::Receipt;
pub use spec::{ChainSpec, DaoForkConfig, DAO_FORK_BLOCK};
pub use store::{ChainStore, CommittedBlock, FinalizedBlock, ImportOutcome, ImportResult};
pub use telemetry::{ChainTracer, StoreMetrics};
pub use transaction::Transaction;

#[cfg(test)]
mod proptests {
    use super::*;
    use fork_crypto::Keypair;
    use fork_primitives::{Address, U256};
    use proptest::prelude::*;

    proptest! {
        /// The difficulty algorithm never leaves the valid range and moves in
        /// the right direction.
        #[test]
        fn difficulty_monotone_in_block_time(
            parent_diff in 131_072u64..u64::MAX / 4,
            dt_fast in 1u64..10,
            dt_slow in 20u64..5_000,
        ) {
            let cfg = DifficultyConfig {
                bomb: BombConfig::Disabled,
                ..DifficultyConfig::default()
            };
            let p = U256::from_u64(parent_diff);
            let fast = cfg.next_difficulty(p, 0, dt_fast, 100);
            let slow = cfg.next_difficulty(p, 0, dt_slow, 100);
            prop_assert!(fast >= p, "fast blocks raise difficulty");
            prop_assert!(slow <= p, "slow blocks lower difficulty");
            // Bounded movement: at most parent/2048 * 99 + floor effects.
            let max_step = p / U256::from_u64(2048) * U256::from_u64(99);
            prop_assert!(p.saturating_sub(slow) <= max_step);
        }

        /// Header RLP decoding is the inverse of encoding for arbitrary
        /// field values.
        #[test]
        fn header_rlp_roundtrip(
            number in any::<u64>(),
            ts in any::<u64>(),
            gas_limit in any::<u64>(),
            gas_used in any::<u64>(),
            nonce in any::<u64>(),
            diff in any::<u128>(),
            extra in proptest::collection::vec(any::<u8>(), 0..32),
            seed in any::<[u8; 32]>(),
        ) {
            let h = Header {
                parent_hash: fork_primitives::H256(seed),
                beneficiary: Address(seed[..20].try_into().unwrap()),
                difficulty: U256::from_u128(diff),
                number,
                gas_limit,
                gas_used,
                timestamp: ts,
                extra_data: extra,
                nonce,
                ..Header::default()
            };
            prop_assert_eq!(Header::decode_bytes(&h.rlp()).unwrap(), h);
        }

        /// Transaction RLP roundtrip with sender preservation.
        #[test]
        fn transaction_rlp_roundtrip(
            nonce in 0u64..1_000_000,
            value in any::<u64>(),
            gas_price in 1u64..1_000,
            key_idx in 0u64..50,
            chain_pick in 0u8..3,
            data in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let chain_id = match chain_pick {
                0 => None,
                1 => Some(fork_primitives::ChainId::ETH),
                _ => Some(fork_primitives::ChainId::ETC),
            };
            let kp = Keypair::from_seed("prop-chain", key_idx);
            let tx = Transaction::sign(
                &kp, nonce, U256::from_u64(gas_price), 90_000,
                Some(Address([9; 20])), U256::from_u64(value), data, chain_id,
            );
            let back = Transaction::decode_bytes(&tx.rlp()).unwrap();
            prop_assert_eq!(&back, &tx);
            prop_assert_eq!(back.sender(), Some(kp.address()));
        }

        /// Importing any prefix of a proposed chain leaves the store
        /// consistent: head number equals blocks imported.
        #[test]
        fn chain_growth_consistency(n_blocks in 1usize..20, dt in 5u64..60) {
            let (genesis, state) = GenesisBuilder::new()
                .difficulty(U256::from_u64(1 << 16))
                .timestamp(1_000_000)
                .build();
            let mut store = ChainStore::new(ChainSpec::test(), genesis, state)
                .with_retention(64);
            let mut t = 1_000_000u64;
            for i in 0..n_blocks {
                t += dt;
                let b = store.propose(Address([1; 20]), t, vec![], &[]);
                let r = store.import(b).unwrap();
                prop_assert_eq!(r.outcome, ImportOutcome::Extended);
                prop_assert_eq!(store.head_number(), (i + 1) as u64);
            }
            // Total difficulty strictly dominates every block's difficulty.
            prop_assert!(store.head_total_difficulty() > store.head_header().difficulty);
        }
    }
}
