//! Block execution: the DAO irregular state change, transaction application,
//! and mining rewards.

use fork_evm::{BlockContext, WorldState};
use fork_primitives::{Address, U256};

use crate::block::Block;
use crate::error::ChainError;
use crate::receipt::{receipts_root, Receipt};
use crate::spec::ChainSpec;

/// Result of executing a block's body against a parent state.
#[derive(Debug, Clone)]
pub struct ExecutedBlock {
    /// One receipt per transaction.
    pub receipts: Vec<Receipt>,
    /// Total gas consumed.
    pub gas_used: u64,
}

/// The static block reward of the study period (5 ether), in wei.
pub fn block_reward() -> U256 {
    fork_primitives::units::block_reward()
}

/// Reward for including one ommer: 1/32 of the block reward.
pub fn nephew_reward() -> U256 {
    block_reward() / U256::from_u64(32)
}

/// Reward paid to an ommer's own miner:
/// `(8 + ommer_number − block_number) / 8 × block_reward`.
pub fn ommer_reward(block_number: u64, ommer_number: u64) -> U256 {
    let depth = block_number.saturating_sub(ommer_number);
    if depth == 0 || depth > 7 {
        return U256::ZERO;
    }
    block_reward() * U256::from_u64(8 - depth) / U256::from_u64(8)
}

/// Applies the DAO fork's irregular state change: move the listed accounts'
/// balances to the refund address. Run by pro-fork chains at the fork block,
/// *before* transactions — exactly as mainnet's client did.
pub fn apply_dao_irregular_state_change(state: &mut WorldState, spec: &ChainSpec) {
    let Some(dao) = &spec.dao_fork else { return };
    if !dao.support {
        return;
    }
    for addr in &dao.dao_accounts {
        let balance = state.balance(*addr);
        if !balance.is_zero() {
            let moved = state.transfer(*addr, dao.refund_address, balance);
            debug_assert!(moved, "moving an account's own balance cannot fail");
        }
    }
}

/// Executes a block's transactions and pays rewards, mutating `state`.
///
/// The caller is responsible for checkpoint/rollback around this (the chain
/// store does); on `Err` the state is left mid-way and must be rolled back.
pub fn apply_block(
    state: &mut WorldState,
    spec: &ChainSpec,
    block: &Block,
) -> Result<ExecutedBlock, ChainError> {
    let header = &block.header;

    if let Some(dao) = &spec.dao_fork {
        if dao.support && header.number == dao.block {
            apply_dao_irregular_state_change(state, spec);
        }
    }

    let schedule = spec.gas_schedule(header.number);
    let block_ctx = BlockContext {
        coinbase: header.beneficiary,
        number: header.number,
        timestamp: header.timestamp,
        difficulty: header.difficulty,
        gas_limit: header.gas_limit,
    };

    let mut receipts = Vec::with_capacity(block.transactions.len());
    let mut cumulative_gas = 0u64;

    for (index, tx) in block.transactions.iter().enumerate() {
        let sender = tx
            .sender()
            .ok_or(ChainError::UnrecoverableSender { index })?;
        if !spec.accepts_chain_id(tx.chain_id, header.number) {
            return Err(ChainError::WrongChainId { index });
        }
        let expected_nonce = state.nonce(sender);
        if tx.nonce != expected_nonce {
            return Err(ChainError::BadNonce {
                index,
                expected: expected_nonce,
                got: tx.nonce,
            });
        }
        if cumulative_gas.saturating_add(tx.gas_limit) > header.gas_limit {
            return Err(ChainError::BlockGasExceeded);
        }

        let outcome = fork_evm::transact(
            state,
            schedule,
            block_ctx,
            sender,
            tx.to,
            tx.value,
            &tx.data,
            tx.gas_limit,
            tx.gas_price,
        )
        .map_err(|e| ChainError::InvalidTransaction {
            index,
            reason: e.to_string(),
        })?;

        cumulative_gas += outcome.gas_used;
        receipts.push(Receipt {
            success: outcome.success,
            gas_used: outcome.gas_used,
            cumulative_gas_used: cumulative_gas,
            logs: outcome.logs,
            contract_address: outcome.contract_address,
        });
    }

    // Rewards: 5 ETH to the beneficiary plus 1/32 per included ommer, and
    // the sliding ommer reward to each ommer's own miner. Figure 5 counts
    // beneficiaries, so this is where pool income originates.
    let mut coinbase_reward = block_reward();
    for ommer in &block.ommers {
        coinbase_reward += nephew_reward();
        let r = ommer_reward(header.number, ommer.number);
        if !r.is_zero() {
            state.credit(ommer.beneficiary, r);
        }
    }
    state.credit(header.beneficiary, coinbase_reward);

    Ok(ExecutedBlock {
        receipts,
        gas_used: cumulative_gas,
    })
}

/// Checks an executed block against its header's declared roots.
pub fn check_execution_against_header(
    state: &WorldState,
    block: &Block,
    executed: &ExecutedBlock,
) -> Result<(), ChainError> {
    if executed.gas_used != block.header.gas_used {
        return Err(ChainError::GasUsedMismatch {
            declared: block.header.gas_used,
            actual: executed.gas_used,
        });
    }
    let root = state.state_root();
    if root != block.header.state_root {
        return Err(ChainError::StateRootMismatch {
            expected: block.header.state_root,
            got: root,
        });
    }
    if receipts_root(&executed.receipts) != block.header.receipts_root {
        return Err(ChainError::ReceiptsRootMismatch);
    }
    Ok(())
}

/// Greedily selects valid transactions from `candidates` for a new block:
/// correct nonce per sender (allowing consecutive sequences), acceptable
/// chain id, within the remaining gas budget. Invalid candidates are
/// skipped, not errors.
///
/// Candidates are mempool entries with precomputed identity (no signature
/// recovery per candidate per block). Returns the indices of the selected
/// candidates, in order, so the caller keeps each one's cached hash and
/// sender.
pub fn select_transactions_pooled(
    state: &WorldState,
    spec: &ChainSpec,
    number: u64,
    gas_limit: u64,
    candidates: &[crate::transaction::PooledTx],
) -> Vec<usize> {
    let mut selected = Vec::new();
    let mut gas_budget = gas_limit;
    let mut next_nonce: std::collections::HashMap<Address, u64> = std::collections::HashMap::new();

    for (index, entry) in candidates.iter().enumerate() {
        let tx = &entry.tx;
        let Some(sender) = entry.sender else { continue };
        if !spec.accepts_chain_id(tx.chain_id, number) {
            continue;
        }
        let expected = *next_nonce
            .entry(sender)
            .or_insert_with(|| state.nonce(sender));
        if tx.nonce != expected {
            continue;
        }
        if tx.gas_limit > gas_budget {
            continue;
        }
        // Rough funds check (upfront gas + value) against current state;
        // in-block balance effects of earlier selected txs are approximated,
        // matching real miners' optimistic selection.
        let upfront = U256::from_u64(tx.gas_limit)
            .saturating_mul(tx.gas_price)
            .saturating_add(tx.value);
        if state.balance(sender) < upfront {
            continue;
        }
        gas_budget -= tx.gas_limit;
        next_nonce.insert(sender, expected + 1);
        selected.push(index);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Header;
    use crate::spec::DAO_FORK_BLOCK;
    use crate::transaction::Transaction;
    use fork_crypto::Keypair;
    use fork_primitives::units::ether;

    fn kp(i: u64) -> Keypair {
        Keypair::from_seed("exec", i)
    }

    fn funded_state(users: u64) -> WorldState {
        let mut s = WorldState::new();
        for i in 0..users {
            s.set_balance(kp(i).address(), ether(100));
        }
        s.commit();
        s
    }

    fn block_with(txs: Vec<Transaction>, number: u64) -> Block {
        let mut header = Header {
            number,
            timestamp: 1_469_020_839,
            gas_limit: 4_700_000,
            beneficiary: Address([0xC0; 20]),
            ..Header::default()
        };
        header.transactions_root = Block::transactions_root(&txs);
        header.ommers_hash = Block::ommers_hash(&[]);
        Block {
            header,
            transactions: txs,
            ommers: vec![],
        }
    }

    #[test]
    fn simple_block_executes_and_rewards() {
        let mut state = funded_state(2);
        let tx = Transaction::transfer(
            &kp(0),
            0,
            kp(1).address(),
            U256::from_u64(123),
            U256::ONE,
            None,
        );
        let block = block_with(vec![tx], 10);
        let spec = ChainSpec::test();
        let executed = apply_block(&mut state, &spec, &block).unwrap();
        assert_eq!(executed.receipts.len(), 1);
        assert!(executed.receipts[0].success);
        assert_eq!(executed.gas_used, 21_000);
        // Beneficiary got the 5 ETH reward plus fees.
        let expect = ether(5) + U256::from_u64(21_000);
        assert_eq!(state.balance(Address([0xC0; 20])), expect);
    }

    #[test]
    fn wrong_nonce_rejects_block() {
        let mut state = funded_state(2);
        let tx = Transaction::transfer(
            &kp(0),
            5, // account is at nonce 0
            kp(1).address(),
            U256::ONE,
            U256::ONE,
            None,
        );
        let block = block_with(vec![tx], 10);
        let err = apply_block(&mut state, &ChainSpec::test(), &block).unwrap_err();
        assert!(matches!(err, ChainError::BadNonce { index: 0, .. }));
    }

    #[test]
    fn eip155_chain_id_rejected_where_inactive() {
        let mut state = funded_state(2);
        let tx = Transaction::transfer(
            &kp(0),
            0,
            kp(1).address(),
            U256::ONE,
            U256::ONE,
            Some(fork_primitives::ChainId::ETH),
        );
        let block = block_with(vec![tx], 10);
        // test spec has no EIP-155.
        let err = apply_block(&mut state, &ChainSpec::test(), &block).unwrap_err();
        assert!(matches!(err, ChainError::WrongChainId { index: 0 }));
    }

    #[test]
    fn dao_irregular_state_change_moves_funds() {
        let dao_account = Address([0xDA; 20]);
        let refund = Address([0xFD; 20]);
        let mut state = funded_state(1);
        state.set_balance(dao_account, ether(3_600_000)); // the DAO's ~$50M
        state.commit();

        let spec = ChainSpec::eth(vec![dao_account], refund);
        let mut block = block_with(vec![], DAO_FORK_BLOCK);
        block.header.extra_data = crate::spec::DAO_EXTRA_DATA.to_vec();

        apply_block(&mut state, &spec, &block).unwrap();
        assert_eq!(state.balance(dao_account), U256::ZERO);
        assert_eq!(state.balance(refund), ether(3_600_000));
    }

    #[test]
    fn etc_does_not_apply_irregular_change() {
        let dao_account = Address([0xDA; 20]);
        let refund = Address([0xFD; 20]);
        let mut state = funded_state(1);
        state.set_balance(dao_account, ether(1_000));
        state.commit();

        let spec = ChainSpec::etc(vec![dao_account], refund);
        let block = block_with(vec![], DAO_FORK_BLOCK);
        apply_block(&mut state, &spec, &block).unwrap();
        // "code is law": the attacker's loot stays where it is on ETC.
        assert_eq!(state.balance(dao_account), ether(1_000));
        assert_eq!(state.balance(refund), U256::ZERO);
    }

    #[test]
    fn ommer_rewards_scale_with_depth() {
        assert_eq!(
            ommer_reward(10, 9),
            ether(5) * U256::from_u64(7) / U256::from_u64(8)
        );
        assert_eq!(
            ommer_reward(10, 8),
            ether(5) * U256::from_u64(6) / U256::from_u64(8)
        );
        assert_eq!(ommer_reward(10, 3), ether(5) / U256::from_u64(8));
        assert_eq!(ommer_reward(10, 2), U256::ZERO, "too deep");
        assert_eq!(ommer_reward(10, 10), U256::ZERO, "same height");
    }

    #[test]
    fn block_with_ommer_pays_both_parties() {
        let mut state = funded_state(1);
        let uncle_miner = Address([0xAB; 20]);
        let uncle = Header {
            number: 9,
            beneficiary: uncle_miner,
            ..Header::default()
        };
        let mut block = block_with(vec![], 10);
        block.ommers.push(uncle);
        block.header.ommers_hash = Block::ommers_hash(&block.ommers);

        apply_block(&mut state, &ChainSpec::test(), &block).unwrap();
        assert_eq!(
            state.balance(uncle_miner),
            ether(5) * U256::from_u64(7) / U256::from_u64(8)
        );
        assert_eq!(
            state.balance(Address([0xC0; 20])),
            ether(5) + ether(5) / U256::from_u64(32)
        );
    }

    #[test]
    fn select_transactions_filters_and_orders() {
        let state = funded_state(3);
        let spec = ChainSpec::test();
        let good0 = Transaction::transfer(&kp(0), 0, kp(1).address(), U256::ONE, U256::ONE, None);
        let good1 = Transaction::transfer(&kp(0), 1, kp(1).address(), U256::ONE, U256::ONE, None);
        let bad_nonce =
            Transaction::transfer(&kp(1), 7, kp(2).address(), U256::ONE, U256::ONE, None);
        let bad_chain = Transaction::transfer(
            &kp(2),
            0,
            kp(1).address(),
            U256::ONE,
            U256::ONE,
            Some(fork_primitives::ChainId::ETH),
        );
        let selected = select_transactions_pooled(
            &state,
            &spec,
            10,
            4_700_000,
            &[
                good0.into(),
                bad_nonce.into(),
                good1.into(),
                bad_chain.into(),
            ],
        );
        assert_eq!(selected, vec![0, 2]);
    }

    #[test]
    fn select_respects_gas_budget() {
        let state = funded_state(2);
        let spec = ChainSpec::test();
        let t0 = Transaction::transfer(&kp(0), 0, kp(1).address(), U256::ONE, U256::ONE, None);
        let t1 = Transaction::transfer(&kp(0), 1, kp(1).address(), U256::ONE, U256::ONE, None);
        let selected =
            select_transactions_pooled(&state, &spec, 10, 30_000, &[t0.into(), t1.into()]);
        assert_eq!(selected, vec![0], "only one 21k tx fits in 30k");
    }

    #[test]
    fn check_execution_catches_mismatched_roots() {
        let mut state = funded_state(1);
        let block = block_with(vec![], 10);
        let executed = apply_block(&mut state, &ChainSpec::test(), &block).unwrap();
        // Header declared zero roots — mismatch expected.
        assert!(check_execution_against_header(&state, &block, &executed).is_err());
    }
}
