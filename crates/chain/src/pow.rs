//! Proof-of-work seals.
//!
//! # Substitution note (DESIGN.md)
//!
//! Real Ethereum seals blocks with Ethash at network difficulty (~6×10^13
//! hashes per block in July 2016) — ungrindable in a simulation. We keep the
//! *difficulty field and its adjustment dynamics exact* (they drive every
//! Figure 1/2 series) but decouple the **verification hardness**: a seal is
//! valid when `keccak(seal_preimage ‖ nonce) ≤ 2^256 / work_factor`, where
//! `work_factor` is a small per-spec constant (default 4). Grinding therefore
//! costs a handful of hashes while preserving what the study relies on:
//!
//! * the seal commits to the full header content (tamper-evidence), and
//! * *when* blocks are found is controlled by the simulator's hashrate model
//!   against the *real* difficulty field, so block intervals and difficulty
//!   trajectories match the protocol's.

use fork_crypto::Keccak256;
use fork_primitives::{H256, U256};

use crate::header::Header;

/// The verification target for a given work factor: `2^256 / work_factor`,
/// expressed via `U256::MAX / wf` (the one-off rounding is irrelevant here).
pub fn target_for(work_factor: u64) -> U256 {
    U256::MAX / U256::from_u64(work_factor.max(1))
}

/// The seal value of `(preimage, nonce)`.
pub fn seal_value(seal_preimage: &[u8], nonce: u64) -> U256 {
    let mut h = Keccak256::new();
    h.update(seal_preimage);
    h.update(&nonce.to_be_bytes());
    h.finalize().into_u256()
}

/// Checks a header's seal against the spec's work factor.
pub fn check_seal(header: &Header, work_factor: u64) -> bool {
    seal_value(&header.seal_preimage(), header.nonce) <= target_for(work_factor)
}

/// Grinds a valid nonce for `header` (expected `work_factor` attempts),
/// starting the search from `start_nonce` so distinct miners find distinct
/// seals. Returns the found nonce: the first one [`seal_value`] accepts.
///
/// The preimage is absorbed once; each attempt clones that sponge state and
/// absorbs only the nonce. A header preimage (~240 bytes) spans two Keccak
/// blocks, so an attempt costs one permutation instead of two.
pub fn mine_seal(header: &Header, work_factor: u64, start_nonce: u64) -> u64 {
    let mut absorbed = Keccak256::new();
    absorbed.update(&header.seal_preimage());
    let target = target_for(work_factor);
    let mut nonce = start_nonce;
    loop {
        let mut h = absorbed.clone();
        h.update(&nonce.to_be_bytes());
        if h.finalize().into_u256() <= target {
            return nonce;
        }
        nonce = nonce.wrapping_add(1);
    }
}

/// Seals a header in place.
pub fn seal(header: &mut Header, work_factor: u64, start_nonce: u64) {
    header.nonce = mine_seal(header, work_factor, start_nonce);
}

/// Expected hashes to *actually* mine a block at `difficulty` — used by the
/// analytics layer for the hashes-per-USD metric (Figure 3), which must use
/// the real difficulty semantics, not the capped verification target.
pub fn expected_hashes(difficulty: U256) -> f64 {
    difficulty.to_f64_lossy()
}

/// A deterministic pseudo-hash value in `[0, 1)` derived from a header hash,
/// used by tests that need reproducible "randomness" tied to a block.
pub fn hash_fraction(h: H256) -> f64 {
    let v = u64::from_be_bytes(h.0[..8].try_into().expect("8 bytes"));
    (v as f64) / (u64::MAX as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            number: 42,
            difficulty: U256::from_u128(62_000_000_000_000),
            timestamp: 1_469_020_839,
            ..Header::default()
        }
    }

    #[test]
    fn mined_seal_verifies() {
        let mut h = header();
        seal(&mut h, 4, 0);
        assert!(check_seal(&h, 4));
    }

    #[test]
    fn tampering_invalidates_seal() {
        let mut h = header();
        seal(&mut h, 64, 0); // higher factor => tampering almost surely breaks it
        assert!(check_seal(&h, 64));
        let mut tampered = h.clone();
        tampered.timestamp += 1;
        // Re-check without re-mining: overwhelmingly invalid.
        // (probability of accidental validity = 1/64; with three independent
        // tamperings the chance all pass is ~4e-6 — assert at least one fails)
        let mut t2 = h.clone();
        t2.gas_used += 1;
        let mut t3 = h.clone();
        t3.beneficiary = fork_primitives::Address([9; 20]);
        let any_invalid =
            !check_seal(&tampered, 64) || !check_seal(&t2, 64) || !check_seal(&t3, 64);
        assert!(any_invalid);
    }

    #[test]
    fn work_factor_one_accepts_everything() {
        let h = header();
        assert!(check_seal(&h, 1));
        assert!(check_seal(&h, 0), "zero clamps to one");
    }

    #[test]
    fn distinct_start_nonces_find_seals() {
        let mut a = header();
        let mut b = header();
        seal(&mut a, 4, 0);
        seal(&mut b, 4, 1_000_000);
        assert!(check_seal(&a, 4));
        assert!(check_seal(&b, 4));
    }

    #[test]
    fn mine_seal_matches_reference_grind() {
        // The verifier's own loop: the first nonce whose seal value meets
        // the target.
        let reference = |h: &Header, wf: u64, start: u64| {
            let preimage = h.seal_preimage();
            let mut nonce = start;
            while seal_value(&preimage, nonce) > target_for(wf) {
                nonce = nonce.wrapping_add(1);
            }
            nonce
        };
        let mut long_extra = header();
        long_extra.extra_data = vec![0xEE; 200]; // three Keccak blocks
        for h in [header(), long_extra] {
            for wf in [1, 2, 4, 16] {
                for start in [0, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX - 3] {
                    assert_eq!(
                        mine_seal(&h, wf, start),
                        reference(&h, wf, start),
                        "wf={wf} start={start:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn expected_hashes_tracks_difficulty_field() {
        let d = U256::from_u128(62_000_000_000_000);
        assert!((expected_hashes(d) - 6.2e13).abs() / 6.2e13 < 1e-9);
    }

    #[test]
    fn hash_fraction_in_unit_interval() {
        for i in 0..32u8 {
            let f = hash_fraction(H256([i; 32]));
            assert!((0.0..1.0).contains(&f));
        }
    }
}
