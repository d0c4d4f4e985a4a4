//! Blocks: header + transaction list + ommers.

use std::sync::OnceLock;

use fork_primitives::H256;
use fork_rlp::{expect_fields, RlpError};

use crate::header::Header;
use crate::transaction::Transaction;

/// Keccak chain `keccak(tag ‖ item₀ ‖ item₁ ‖ …)`: the commitment behind the
/// transactions root, ommers hash and receipts root. Nearly every simulated
/// block has an empty list, so the empty chain (`keccak(tag)`) is computed
/// once per process into `empty`.
pub(crate) fn keccak_chain(
    tag: &[u8],
    empty: &OnceLock<H256>,
    items: impl IntoIterator<Item = H256>,
) -> H256 {
    let mut items = items.into_iter().peekable();
    if items.peek().is_none() {
        return *empty.get_or_init(|| fork_crypto::keccak256(tag));
    }
    let mut h = fork_crypto::Keccak256::new();
    h.update(tag);
    for item in items {
        h.update(&item.0);
    }
    h.finalize()
}

/// A full block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The sealed header.
    pub header: Header,
    /// Included transactions, in execution order.
    pub transactions: Vec<Transaction>,
    /// Ommer (uncle) headers — stale siblings rewarded to discourage
    /// transient-fork waste (paper §2.1 "transient forks").
    pub ommers: Vec<Header>,
}

impl Block {
    /// The block hash (the header's hash).
    pub fn hash(&self) -> H256 {
        self.header.hash()
    }

    /// Commitment over the ordered transaction list.
    ///
    /// **Substitution note:** Keccak chain over transaction hashes instead of
    /// a Merkle-Patricia trie; preserves "same transactions ⇔ same root".
    pub fn transactions_root(transactions: &[Transaction]) -> H256 {
        Self::transactions_root_of(transactions.iter().map(Transaction::hash))
    }

    /// [`Block::transactions_root`] over already-known transaction hashes, in
    /// block order (a proposer folds its mempool's cached hashes).
    pub fn transactions_root_of(tx_hashes: impl IntoIterator<Item = H256>) -> H256 {
        static EMPTY: OnceLock<H256> = OnceLock::new();
        keccak_chain(b"transactions-root/v1", &EMPTY, tx_hashes)
    }

    /// Commitment over the ommer headers.
    pub fn ommers_hash(ommers: &[Header]) -> H256 {
        static EMPTY: OnceLock<H256> = OnceLock::new();
        keccak_chain(b"ommers-hash/v1", &EMPTY, ommers.iter().map(Header::hash))
    }

    /// Full block RLP: `[header, [tx...], [ommer...]]`.
    pub fn rlp(&self) -> Vec<u8> {
        fork_rlp::encode_list(|s| {
            s.append_raw(&self.header.rlp());
            let txs = s.begin_list();
            for tx in &self.transactions {
                s.append_raw(&tx.rlp());
            }
            s.finish_list(txs);
            let oms = s.begin_list();
            for o in &self.ommers {
                s.append_raw(&o.rlp());
            }
            s.finish_list(oms);
        })
    }

    /// Decodes a block.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Block, RlpError> {
        let item = fork_rlp::decode(bytes)?;
        let f = expect_fields(&item, 3)?;
        let header = Header::decode(&f[0])?;
        let mut transactions = Vec::new();
        for tx in f[1].list()? {
            transactions.push(Transaction::decode(&tx?)?);
        }
        let mut ommers = Vec::new();
        for o in f[2].list()? {
            ommers.push(Header::decode(&o?)?);
        }
        Ok(Block {
            header,
            transactions,
            ommers,
        })
    }
}

/// Helper used by tests and the miner: checks the header's body commitments
/// match the body.
pub fn body_commitments_match(block: &Block) -> bool {
    block.header.transactions_root == Block::transactions_root(&block.transactions)
        && block.header.ommers_hash == Block::ommers_hash(&block.ommers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fork_crypto::Keypair;
    use fork_primitives::{Address, U256};

    fn sample_block(n_txs: usize) -> Block {
        let kp = Keypair::from_seed("blocktest", 0);
        let transactions: Vec<Transaction> = (0..n_txs)
            .map(|i| {
                Transaction::transfer(
                    &kp,
                    i as u64,
                    Address([2u8; 20]),
                    U256::from_u64(100),
                    U256::ONE,
                    None,
                )
            })
            .collect();
        let mut header = Header {
            number: 5,
            timestamp: 1_469_020_839,
            difficulty: U256::from_u64(1 << 20),
            ..Header::default()
        };
        header.transactions_root = Block::transactions_root(&transactions);
        header.ommers_hash = Block::ommers_hash(&[]);
        Block {
            header,
            transactions,
            ommers: vec![],
        }
    }

    #[test]
    fn rlp_roundtrip() {
        for n in [0, 1, 5] {
            let b = sample_block(n);
            let back = Block::decode_bytes(&b.rlp()).unwrap();
            assert_eq!(back, b, "n={n}");
            assert_eq!(back.hash(), b.hash());
        }
    }

    #[test]
    fn commitments_detect_tampering() {
        let mut b = sample_block(3);
        assert!(body_commitments_match(&b));
        b.transactions.pop();
        assert!(!body_commitments_match(&b));
    }

    #[test]
    fn transactions_root_is_order_sensitive() {
        let b = sample_block(2);
        let mut rev = b.transactions.clone();
        rev.reverse();
        assert_ne!(
            Block::transactions_root(&b.transactions),
            Block::transactions_root(&rev)
        );
    }

    /// The streaming Keccak over a domain tag alone: an empty list's root.
    fn streamed(tag: &[u8]) -> H256 {
        let mut h = fork_crypto::Keccak256::new();
        h.update(tag);
        h.finalize()
    }

    #[test]
    fn empty_roots_equal_streamed_domain_tags() {
        // The first pass fills the per-process constants, the second reads
        // them back.
        for _ in 0..2 {
            assert_eq!(
                Block::transactions_root(&[]),
                streamed(b"transactions-root/v1")
            );
            assert_eq!(
                Block::transactions_root_of(std::iter::empty()),
                streamed(b"transactions-root/v1")
            );
            assert_eq!(Block::ommers_hash(&[]), streamed(b"ommers-hash/v1"));
            assert_eq!(
                crate::receipt::receipts_root(&[]),
                streamed(b"receipts-root/v1")
            );
        }
    }

    #[test]
    fn ommers_roundtrip() {
        let mut b = sample_block(1);
        let uncle = Header {
            number: 4,
            extra_data: b"uncle".to_vec(),
            ..Header::default()
        };
        b.ommers.push(uncle);
        b.header.ommers_hash = Block::ommers_hash(&b.ommers);
        let back = Block::decode_bytes(&b.rlp()).unwrap();
        assert_eq!(back.ommers.len(), 1);
        assert!(body_commitments_match(&back));
    }

    #[test]
    fn decode_garbage_errors() {
        assert!(Block::decode_bytes(&[0x01, 0x02]).is_err());
        assert!(Block::decode_bytes(&[]).is_err());
    }
}
