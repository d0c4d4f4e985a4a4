//! # fork-crypto
//!
//! Cryptographic substrate for the fork study: a from-scratch Keccak-256
//! (test-vectored against the published constants), a deterministic,
//! recoverable signature scheme that preserves the two properties the study
//! depends on — sender recovery and EIP-155 signing-domain separation — and
//! the workspace's one integrity checksum, [`crc32c()`]. See the substitution
//! note in [`signature`] and DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32c;
pub mod keccak;
pub mod signature;

pub use crc32c::crc32c;
pub use keccak::{keccak256, keccak256_concat, Keccak256};
pub use signature::{Keypair, Signature};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn incremental_equals_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            splits in proptest::collection::vec(1usize..64, 0..8),
        ) {
            let oneshot = keccak256(&data);
            let mut h = Keccak256::new();
            let mut rest: &[u8] = &data;
            for s in splits {
                if rest.is_empty() { break; }
                let take = s.min(rest.len());
                h.update(&rest[..take]);
                rest = &rest[take..];
            }
            h.update(rest);
            prop_assert_eq!(h.finalize(), oneshot);
        }

        #[test]
        fn digests_separate_inputs(
            a in proptest::collection::vec(any::<u8>(), 0..64),
            b in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assume!(a != b);
            prop_assert_ne!(keccak256(&a), keccak256(&b));
        }

        #[test]
        fn sign_recover_roundtrip(label in "[a-z]{1,8}", idx in 0u64..1000, msg in any::<[u8; 32]>()) {
            let kp = Keypair::from_seed(&label, idx);
            let h = fork_primitives::H256(msg);
            let sig = kp.sign(h);
            prop_assert_eq!(sig.recover(h), Some(kp.address()));
        }

        #[test]
        fn transplanted_signature_rejected(msg1 in any::<[u8; 32]>(), msg2 in any::<[u8; 32]>()) {
            prop_assume!(msg1 != msg2);
            let kp = Keypair::from_seed("prop", 1);
            let sig = kp.sign(fork_primitives::H256(msg1));
            prop_assert_eq!(sig.recover(fork_primitives::H256(msg2)), None);
        }
    }
}
