//! Transaction receipts.

use std::sync::OnceLock;

use fork_crypto::keccak256;
use fork_evm::Log;
use fork_primitives::{Address, H256};

/// The outcome record of one included transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Whether execution succeeded (post-fact status; pre-Byzantium clients
    /// exposed this via the intermediate state root — we keep the boolean).
    pub success: bool,
    /// Gas consumed by this transaction.
    pub gas_used: u64,
    /// Cumulative gas used in the block up to and including this tx.
    pub cumulative_gas_used: u64,
    /// Logs emitted.
    pub logs: Vec<Log>,
    /// Address of the deployed contract for creation transactions.
    pub contract_address: Option<Address>,
}

impl Receipt {
    /// A stable digest of the receipt (feeds the header's receipts root).
    pub fn digest(&self) -> H256 {
        let mut h = fork_crypto::Keccak256::new();
        h.update(&[self.success as u8]);
        h.update(&self.gas_used.to_be_bytes());
        h.update(&self.cumulative_gas_used.to_be_bytes());
        for log in &self.logs {
            h.update(log.address.as_bytes());
            for t in &log.topics {
                h.update(t.as_bytes());
            }
            h.update(&keccak256(&log.data).0);
        }
        if let Some(a) = self.contract_address {
            h.update(a.as_bytes());
        }
        h.finalize()
    }
}

/// Commitment over an ordered receipt list.
///
/// **Substitution note:** a Keccak chain over receipt digests instead of a
/// Merkle-Patricia trie; preserves "same receipts ⇔ same root" which is all
/// the study needs (see DESIGN.md).
pub fn receipts_root(receipts: &[Receipt]) -> H256 {
    static EMPTY: OnceLock<H256> = OnceLock::new();
    crate::block::keccak_chain(
        b"receipts-root/v1",
        &EMPTY,
        receipts.iter().map(Receipt::digest),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fork_primitives::U256;

    fn receipt(success: bool, gas: u64) -> Receipt {
        Receipt {
            success,
            gas_used: gas,
            cumulative_gas_used: gas,
            logs: vec![],
            contract_address: None,
        }
    }

    #[test]
    fn digest_distinguishes_outcomes() {
        assert_ne!(
            receipt(true, 21_000).digest(),
            receipt(false, 21_000).digest()
        );
        assert_ne!(
            receipt(true, 21_000).digest(),
            receipt(true, 21_001).digest()
        );
    }

    #[test]
    fn digest_covers_logs() {
        let mut a = receipt(true, 1);
        let b = a.clone();
        a.logs.push(Log {
            address: Address([1; 20]),
            topics: vec![H256([2; 32])],
            data: vec![3],
        });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn root_is_order_sensitive() {
        let a = receipt(true, 1);
        let b = receipt(true, 2);
        assert_ne!(
            receipts_root(&[a.clone(), b.clone()]),
            receipts_root(&[b, a])
        );
    }

    #[test]
    fn empty_root_is_stable() {
        assert_eq!(receipts_root(&[]), receipts_root(&[]));
    }

    #[test]
    fn digest_covers_contract_address() {
        let mut a = receipt(true, 1);
        let b = a.clone();
        a.contract_address = Some(Address([7; 20]));
        assert_ne!(a.digest(), b.digest());
        let _ = U256::ZERO; // keep import used in all cfgs
    }
}
