//! The block store: total-difficulty fork choice, reorg handling, and a
//! sliding finalization window.
//!
//! Design (see DESIGN.md): the store keeps full state only at the head,
//! plus a per-block [`Checkpoint`] into the world-state journal for the last
//! `retention` canonical blocks. A reorg rolls the journal back to the common
//! ancestor and replays the winning branch; blocks that fall out of the
//! window are *finalized* — returned to the caller (the simulator streams
//! them into the analytics pipeline) and pruned from memory, which is what
//! makes nine-month simulated ledgers tractable.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use fork_evm::{Checkpoint, WorldState};
use fork_primitives::{Address, H256, U256};

use crate::block::{body_commitments_match, Block};
use crate::error::ChainError;
use crate::executor::{apply_block, check_execution_against_header, select_transactions_pooled};
use crate::header::Header;
use crate::receipt::{receipts_root, Receipt};
use crate::spec::{ChainSpec, DAO_EXTRA_DATA, DAO_EXTRA_DATA_RANGE};
use crate::telemetry::{ChainTracer, StoreMetrics};
use crate::transaction::{PooledTx, Transaction};
use crate::validation::{validate_header, validate_ommers, GAS_LIMIT_BOUND_DIVISOR};

/// Default number of canonical blocks kept reorg-able.
pub const DEFAULT_RETENTION: usize = 64;

/// A block retained in the store.
#[derive(Debug, Clone)]
struct Entry {
    block: Block,
    total_difficulty: U256,
}

/// A canonical-window entry: the checkpoint is the state *before* this block
/// executed.
#[derive(Debug, Clone)]
struct CanonEntry {
    hash: H256,
    checkpoint: Checkpoint,
    receipts: Vec<Receipt>,
}

/// How an import changed the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportOutcome {
    /// The block extended the canonical head.
    Extended,
    /// Stored as a side-chain block; head unchanged.
    SideChain,
    /// The block's branch overtook the head; `reverted` canonical blocks were
    /// undone. Transient forks (paper §2.1) resolve through this path.
    Reorged {
        /// Number of canonical blocks rolled back.
        reverted: usize,
    },
    /// Duplicate of a block already stored.
    AlreadyKnown,
}

/// A block that left the reorg window, with its receipts — the unit streamed
/// into analytics.
#[derive(Debug, Clone)]
pub struct FinalizedBlock {
    /// The finalized block.
    pub block: Block,
    /// `block.hash()`, taken from the store's key rather than recomputed.
    pub hash: H256,
    /// Its execution receipts.
    pub receipts: Vec<Receipt>,
    /// Total difficulty at this block.
    pub total_difficulty: U256,
}

/// A self-mined block that [`ChainStore::propose_and_commit_pooled`] made
/// the new head.
#[derive(Debug, Clone)]
pub struct CommittedBlock {
    /// The sealed block.
    pub block: Block,
    /// Indices of the included transactions in the candidate slice, in
    /// block order, so the caller reuses its entries' cached hash and
    /// sender.
    pub included: Vec<usize>,
    /// Blocks finalized by the head advance, oldest first.
    pub finalized: Vec<FinalizedBlock>,
}

/// A block built on the head with the state left after it (see
/// [`ChainStore::build`]).
struct Built {
    block: Block,
    included: Vec<usize>,
    /// The state before the block.
    checkpoint: Checkpoint,
    receipts: Vec<Receipt>,
}

/// Result of a successful import.
#[derive(Debug, Clone)]
pub struct ImportResult {
    /// What happened to the head.
    pub outcome: ImportOutcome,
    /// Blocks finalized (pruned from the window) by this import, oldest
    /// first.
    pub finalized: Vec<FinalizedBlock>,
}

/// The chain store for one node / one network.
#[derive(Debug, Clone)]
pub struct ChainStore {
    spec: ChainSpec,
    entries: HashMap<H256, Entry>,
    by_number: BTreeMap<u64, Vec<H256>>,
    /// Canonical window, oldest first; never empty.
    recent: VecDeque<CanonEntry>,
    state: WorldState,
    retention: usize,
    used_ommers: HashSet<H256>,
    /// Monotone counter handed to the PoW grinder so repeated proposals
    /// search fresh nonce ranges.
    seal_counter: u64,
    /// Shared metric handles (detached by default; see
    /// [`ChainStore::with_telemetry`]). Clones keep counting into the same
    /// atomics.
    metrics: StoreMetrics,
    /// Lifecycle-event tracer (detached by default; see
    /// [`ChainStore::with_tracer`]). Emits Validated / Imported / Orphaned /
    /// ReorgedOut into a shared [`fork_telemetry::TraceSink`].
    tracer: ChainTracer,
}

impl ChainStore {
    /// Creates a store over a genesis block and its state.
    pub fn new(spec: ChainSpec, genesis: Block, mut state: WorldState) -> Self {
        state.commit();
        let checkpoint = state.checkpoint();
        let hash = genesis.hash();
        let td = genesis.header.difficulty;
        let mut entries = HashMap::new();
        entries.insert(
            hash,
            Entry {
                block: genesis,
                total_difficulty: td,
            },
        );
        let mut by_number = BTreeMap::new();
        by_number.insert(0u64, vec![hash]);
        let mut recent = VecDeque::new();
        recent.push_back(CanonEntry {
            hash,
            checkpoint,
            receipts: Vec::new(),
        });
        ChainStore {
            spec,
            entries,
            by_number,
            recent,
            state,
            retention: DEFAULT_RETENTION,
            used_ommers: HashSet::new(),
            seal_counter: 0,
            metrics: StoreMetrics::detached(),
            tracer: ChainTracer::detached(),
        }
    }

    /// Sets the reorg-window length (must cover the deepest expected reorg).
    pub fn with_retention(mut self, retention: usize) -> Self {
        self.retention = retention.max(1);
        self
    }

    /// Attaches this store's metrics to `registry` under `<prefix>.…` names,
    /// so registry snapshots include its import counts and timings.
    pub fn with_telemetry(
        mut self,
        registry: &fork_telemetry::MetricsRegistry,
        prefix: &str,
    ) -> Self {
        self.metrics = StoreMetrics::registered(registry, prefix);
        self
    }

    /// Attaches a lifecycle-event tracer (see [`ChainTracer::attached`]), so
    /// imports emit Validated / Imported / Orphaned / ReorgedOut events.
    pub fn with_tracer(mut self, tracer: ChainTracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Replaces the tracer in place — used when a simulator clones a peer's
    /// store during snap-sync and must re-tag events with the new owner.
    pub fn set_tracer(&mut self, tracer: ChainTracer) {
        self.tracer = tracer;
    }

    /// This store's tracer handle.
    pub fn tracer(&self) -> &ChainTracer {
        &self.tracer
    }

    /// This store's metric handles.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The protocol rules this store validates against.
    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// Switches the protocol rules — models a node operator upgrading their
    /// client (how the paper's *resolved* forks eventually die off).
    pub fn set_spec(&mut self, spec: ChainSpec) {
        self.spec = spec;
    }

    /// Current head hash.
    pub fn head_hash(&self) -> H256 {
        self.recent.back().expect("recent never empty").hash
    }

    /// Current head header.
    pub fn head_header(&self) -> &Header {
        &self.entries[&self.head_hash()].block.header
    }

    /// Current head number.
    pub fn head_number(&self) -> u64 {
        self.head_header().number
    }

    /// Total difficulty at the head (the fork-choice score).
    pub fn head_total_difficulty(&self) -> U256 {
        self.entries[&self.head_hash()].total_difficulty
    }

    /// The world state at the head.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// Whether `hash` is stored (canonical or side).
    pub fn contains(&self, hash: H256) -> bool {
        self.entries.contains_key(&hash)
    }

    /// A stored block by hash.
    pub fn block(&self, hash: H256) -> Option<&Block> {
        self.entries.get(&hash).map(|e| &e.block)
    }

    /// Canonical block hash at `number`, if still in the window.
    pub fn canonical_hash(&self, number: u64) -> Option<H256> {
        let oldest = self.oldest_retained_number();
        let head = self.head_number();
        if number < oldest || number > head {
            return None;
        }
        let idx = (number - oldest) as usize;
        self.recent.get(idx).map(|e| e.hash)
    }

    /// Receipts of a canonical block still in the window.
    pub fn canonical_receipts(&self, number: u64) -> Option<&[Receipt]> {
        let oldest = self.oldest_retained_number();
        if number < oldest || number > self.head_number() {
            return None;
        }
        self.recent
            .get((number - oldest) as usize)
            .map(|e| e.receipts.as_slice())
    }

    fn oldest_retained_number(&self) -> u64 {
        let oldest_hash = self.recent.front().expect("recent never empty").hash;
        self.entries[&oldest_hash].block.header.number
    }

    /// Imports a block, advancing / reorging the head per total difficulty.
    pub fn import(&mut self, block: Block) -> Result<ImportResult, ChainError> {
        // The guard only holds a start time (the stats Arc lives on a
        // thread-local stack), so it does not borrow `self`.
        let _span = self.metrics.import_span.enter();
        // Hash here is a keccak; only pay it when a sink is listening.
        let traced = self
            .tracer
            .is_active()
            .then(|| (block.hash(), block.header.number));
        let result = self.import_inner(block);
        match &result {
            Ok(r) => match &r.outcome {
                ImportOutcome::Extended => self.metrics.extended.incr(),
                ImportOutcome::SideChain => self.metrics.side_chain.incr(),
                ImportOutcome::Reorged { reverted } => {
                    self.metrics.reorged.incr();
                    self.metrics.reorg_depth.record(*reverted as u64);
                }
                ImportOutcome::AlreadyKnown => self.metrics.already_known.incr(),
            },
            Err(_) => self.metrics.rejected.incr(),
        }
        if let Some((hash, number)) = traced {
            use fork_telemetry::TraceEventKind as K;
            match &result {
                Ok(r) => match &r.outcome {
                    ImportOutcome::Extended => {
                        self.tracer
                            .emit_detail(K::Imported, hash, number, "extended")
                    }
                    ImportOutcome::SideChain => {
                        self.tracer
                            .emit_detail(K::Imported, hash, number, "side_chain")
                    }
                    ImportOutcome::Reorged { .. } => {
                        self.tracer
                            .emit_detail(K::Imported, hash, number, "reorged")
                    }
                    ImportOutcome::AlreadyKnown => {}
                },
                Err(ChainError::UnknownParent { .. }) => {
                    self.tracer.emit(K::Orphaned, hash, number)
                }
                Err(_) => self
                    .tracer
                    .emit_detail(K::GossipDropped, hash, number, "rejected"),
            }
        }
        result
    }

    fn import_inner(&mut self, block: Block) -> Result<ImportResult, ChainError> {
        let hash = block.hash();
        if self.entries.contains_key(&hash) {
            return Ok(ImportResult {
                outcome: ImportOutcome::AlreadyKnown,
                finalized: Vec::new(),
            });
        }
        let parent_hash = block.header.parent_hash;
        let parent = self
            .entries
            .get(&parent_hash)
            .ok_or(ChainError::UnknownParent {
                parent: parent_hash,
            })?;
        {
            let _validate = self.metrics.validate_span.enter();
            validate_header(&self.spec, &block.header, &parent.block.header)?;
            validate_ommers(&self.spec, &block.header, &block.ommers)?;
            if !body_commitments_match(&block) {
                return Err(ChainError::BodyMismatch);
            }
        }
        if self.tracer.is_active() {
            self.tracer.emit(
                fork_telemetry::TraceEventKind::Validated,
                hash,
                block.header.number,
            );
        }
        let total_difficulty = parent
            .total_difficulty
            .saturating_add(block.header.difficulty);

        if parent_hash == self.head_hash() {
            // Fast path: extend the canonical chain.
            let checkpoint = self.state.checkpoint();
            let receipts = match apply_block(&mut self.state, &self.spec, &block).and_then(|ex| {
                check_execution_against_header(&self.state, &block, &ex).map(|()| ex)
            }) {
                Ok(ex) => ex.receipts,
                Err(e) => {
                    self.state.rollback_to(checkpoint);
                    return Err(e);
                }
            };
            self.insert_entry(hash, block, total_difficulty);
            self.recent.push_back(CanonEntry {
                hash,
                checkpoint,
                receipts,
            });
            let finalized = self.prune();
            return Ok(ImportResult {
                outcome: ImportOutcome::Extended,
                finalized,
            });
        }

        // Side-chain block.
        if total_difficulty <= self.head_total_difficulty() {
            self.insert_entry(hash, block, total_difficulty);
            return Ok(ImportResult {
                outcome: ImportOutcome::SideChain,
                finalized: Vec::new(),
            });
        }

        // The side branch wins: reorg. Collect the new branch from this block
        // back to a canonical ancestor.
        self.insert_entry(hash, block, total_difficulty);
        match self.reorg_to(hash) {
            Ok(reverted) => {
                let finalized = self.prune();
                Ok(ImportResult {
                    outcome: ImportOutcome::Reorged { reverted },
                    finalized,
                })
            }
            Err(e) => {
                self.remove_entry(hash);
                Err(e)
            }
        }
    }

    /// Performs the reorg onto `new_head`; returns how many canonical blocks
    /// were reverted. On error the original canonical chain is restored.
    fn reorg_to(&mut self, new_head: H256) -> Result<usize, ChainError> {
        // Walk the new branch back to the canonical window.
        let canon_set: HashMap<H256, usize> = self
            .recent
            .iter()
            .enumerate()
            .map(|(i, e)| (e.hash, i))
            .collect();
        let mut branch = Vec::new(); // new blocks, child-most first
        let mut cursor = new_head;
        let ancestor_idx = loop {
            if let Some(&idx) = canon_set.get(&cursor) {
                break idx;
            }
            let entry = self.entries.get(&cursor).ok_or(ChainError::ReorgTooDeep {
                depth: branch.len(),
                retention: self.retention,
            })?;
            branch.push(cursor);
            cursor = entry.block.header.parent_hash;
        };
        branch.reverse(); // oldest new block first

        let reverted = self.recent.len() - 1 - ancestor_idx;
        if reverted == 0 && branch.is_empty() {
            return Ok(0);
        }

        // Save the old branch (for restoration on failure).
        let old_tail: Vec<CanonEntry> = self.recent.drain(ancestor_idx + 1..).collect();
        if let Some(first_old) = old_tail.first() {
            self.state.rollback_to(first_old.checkpoint);
        }

        // Execute the new branch.
        let mut applied: Vec<CanonEntry> = Vec::with_capacity(branch.len());
        let mut failure: Option<ChainError> = None;
        for h in &branch {
            let block = self.entries[h].block.clone();
            let checkpoint = self.state.checkpoint();
            match apply_block(&mut self.state, &self.spec, &block).and_then(|ex| {
                check_execution_against_header(&self.state, &block, &ex).map(|()| ex)
            }) {
                Ok(ex) => applied.push(CanonEntry {
                    hash: *h,
                    checkpoint,
                    receipts: ex.receipts,
                }),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }

        match failure {
            None => {
                if self.tracer.is_active() {
                    for old in &old_tail {
                        let number = self.entries[&old.hash].block.header.number;
                        self.tracer.emit(
                            fork_telemetry::TraceEventKind::ReorgedOut,
                            old.hash,
                            number,
                        );
                    }
                }
                self.recent.extend(applied);
                Ok(reverted)
            }
            Some(e) => {
                // Unwind whatever applied, then replay the old branch, which
                // executed before and must execute again.
                if let Some(first) = applied.first() {
                    self.state.rollback_to(first.checkpoint);
                } else if let Some(first_old) = old_tail.first() {
                    self.state.rollback_to(first_old.checkpoint);
                }
                for old in &old_tail {
                    let block = self.entries[&old.hash].block.clone();
                    let checkpoint = self.state.checkpoint();
                    let ex = apply_block(&mut self.state, &self.spec, &block)
                        .expect("old branch executed before");
                    self.recent.push_back(CanonEntry {
                        hash: old.hash,
                        checkpoint,
                        receipts: ex.receipts,
                    });
                }
                Err(e)
            }
        }
    }

    fn insert_entry(&mut self, hash: H256, block: Block, total_difficulty: U256) {
        for ommer in &block.ommers {
            self.used_ommers.insert(ommer.hash());
        }
        self.by_number
            .entry(block.header.number)
            .or_default()
            .push(hash);
        self.entries.insert(
            hash,
            Entry {
                block,
                total_difficulty,
            },
        );
    }

    fn remove_entry(&mut self, hash: H256) {
        if let Some(e) = self.entries.remove(&hash) {
            if let Some(v) = self.by_number.get_mut(&e.block.header.number) {
                v.retain(|h| *h != hash);
            }
        }
    }

    /// Finalizes blocks beyond the retention window.
    fn prune(&mut self) -> Vec<FinalizedBlock> {
        let mut finalized = Vec::new();
        while self.recent.len() > self.retention {
            let old = self.recent.pop_front().expect("len checked");
            let entry = self.entries.remove(&old.hash).expect("canonical entry");
            let number = entry.block.header.number;
            // Drop side blocks at or below the finalized height.
            let stale: Vec<u64> = self.by_number.range(..=number).map(|(n, _)| *n).collect();
            for n in stale {
                if let Some(hashes) = self.by_number.remove(&n) {
                    for h in hashes {
                        if h != old.hash {
                            self.entries.remove(&h);
                        }
                    }
                }
            }
            // The journal before the new oldest checkpoint is now permanent.
            if let Some(front) = self.recent.front() {
                self.state.discard_until(front.checkpoint);
            }
            finalized.push(FinalizedBlock {
                block: entry.block,
                hash: old.hash,
                receipts: old.receipts,
                total_difficulty: entry.total_difficulty,
            });
        }
        finalized
    }

    /// Drains the remaining canonical window as finalized blocks (called at
    /// the end of a simulation so analytics sees the full ledger). The store
    /// keeps only the head afterwards.
    pub fn drain_window(&mut self) -> Vec<FinalizedBlock> {
        let keep = self.retention;
        self.retention = 1;
        let out = self.prune();
        self.retention = keep;
        out
    }

    /// Side-chain headers eligible as ommers for a block at `number`.
    fn eligible_ommers(&self, number: u64) -> Vec<Header> {
        let mut out = Vec::new();
        let low = number.saturating_sub(7);
        for (&n, hashes) in self.by_number.range(low..number) {
            let canonical = self.canonical_hash(n);
            for h in hashes {
                if canonical == Some(*h) || self.used_ommers.contains(h) {
                    continue;
                }
                out.push(self.entries[h].block.header.clone());
                if out.len() == 2 {
                    return out;
                }
            }
        }
        out
    }

    /// Builds, executes and seals a block on top of the head, leaving the
    /// state *after* it (the caller rolls back to the returned checkpoint or
    /// commits). The one proposer body behind [`ChainStore::propose`] and
    /// [`ChainStore::propose_and_commit_pooled`].
    ///
    /// Nothing is hashed twice: the parent hash is the head's store key,
    /// the transactions root folds the candidates' cached hashes, empty
    /// roots are per-process constants, and the seal grinds over one
    /// absorbed preimage.
    fn build(
        &mut self,
        beneficiary: Address,
        timestamp: u64,
        extra_data: Vec<u8>,
        candidates: &[PooledTx],
    ) -> Built {
        let parent_hash = self.head_hash();
        let parent = &self.entries[&parent_hash].block.header;
        let number = parent.number + 1;
        let timestamp = timestamp.max(parent.timestamp + 1);
        let difficulty = self.spec.difficulty.next_difficulty(
            parent.difficulty,
            parent.timestamp,
            timestamp,
            number,
        );
        // Hold the gas limit steady (well-behaved miners in the study
        // period); stay within the 1/1024 band by construction.
        let gas_limit = parent
            .gas_limit
            .max(self.spec.min_gas_limit + GAS_LIMIT_BOUND_DIVISOR);

        let select = self.metrics.propose.select.enter();
        let extra_data = self.apply_dao_marker_rule(number, extra_data);
        let included =
            select_transactions_pooled(&self.state, &self.spec, number, gas_limit, candidates);
        let ommers = self.eligible_ommers(number);
        drop(select);

        let mut block = Block {
            header: Header {
                parent_hash,
                beneficiary,
                difficulty,
                number,
                gas_limit,
                timestamp,
                extra_data,
                ..Header::default()
            },
            transactions: included.iter().map(|&i| candidates[i].tx.clone()).collect(),
            ommers,
        };

        // Provisional execution to learn the roots.
        let execute = self.metrics.propose.execute.enter();
        let checkpoint = self.state.checkpoint();
        let executed = apply_block(&mut self.state, &self.spec, &block)
            .expect("proposer selected only valid transactions");
        drop(execute);

        let roots = self.metrics.propose.roots.enter();
        let header = &mut block.header;
        header.transactions_root =
            Block::transactions_root_of(included.iter().map(|&i| candidates[i].hash));
        header.ommers_hash = Block::ommers_hash(&block.ommers);
        header.gas_used = executed.gas_used;
        header.state_root = self.state.state_root();
        header.receipts_root = receipts_root(&executed.receipts);
        drop(roots);

        let _seal = self.metrics.propose.seal.enter();
        self.seal_counter = self.seal_counter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        crate::pow::seal(header, self.spec.pow_work_factor, self.seal_counter);
        self.metrics.proposed.incr();
        Built {
            block,
            included,
            checkpoint,
            receipts: executed.receipts,
        }
    }

    /// Builds and seals a block on top of the head.
    ///
    /// Selects valid transactions from `candidates`, includes up to two
    /// eligible ommers, computes the post-state roots by provisional
    /// execution, applies the spec's DAO extra-data rule, and grinds the
    /// proof-of-work seal. The returned block passes [`ChainStore::import`]
    /// on any store with the same spec and head.
    pub fn propose(
        &mut self,
        beneficiary: Address,
        timestamp: u64,
        extra_data: Vec<u8>,
        candidates: &[Transaction],
    ) -> Block {
        let pooled: Vec<PooledTx> = candidates.iter().cloned().map(Into::into).collect();
        let built = self.build(beneficiary, timestamp, extra_data, &pooled);
        self.state.rollback_to(built.checkpoint);
        built.block
    }

    /// [`ChainStore::propose`] over cached mempool entries, followed by an
    /// immediate self-import that executes the block's transactions once
    /// instead of twice — the path a miner takes for its own blocks, and the
    /// simulation engines' hot path. Behavior (ledger, state, TD) is
    /// identical to `propose` + `import`; the equivalence is locked by a
    /// test below.
    pub fn propose_and_commit_pooled(
        &mut self,
        beneficiary: Address,
        timestamp: u64,
        extra_data: Vec<u8>,
        candidates: &[PooledTx],
    ) -> CommittedBlock {
        let parent_td = self.head_total_difficulty();
        let Built {
            block,
            included,
            checkpoint,
            receipts,
        } = self.build(beneficiary, timestamp, extra_data, candidates);

        // Commit directly: state is already post-block.
        let _commit = self.metrics.propose.commit.enter();
        let hash = block.hash();
        let total_difficulty = parent_td.saturating_add(block.header.difficulty);
        self.insert_entry(hash, block.clone(), total_difficulty);
        self.recent.push_back(CanonEntry {
            hash,
            checkpoint,
            receipts,
        });
        let finalized = self.prune();
        self.metrics.extended.incr();
        CommittedBlock {
            block,
            included,
            finalized,
        }
    }

    fn apply_dao_marker_rule(&self, number: u64, provided: Vec<u8>) -> Vec<u8> {
        let Some(dao) = &self.spec.dao_fork else {
            return provided;
        };
        let in_range = number >= dao.block && number < dao.block + DAO_EXTRA_DATA_RANGE;
        if !in_range {
            return provided;
        }
        if dao.support {
            DAO_EXTRA_DATA.to_vec()
        } else if provided == DAO_EXTRA_DATA {
            Vec::new()
        } else {
            provided
        }
    }

    /// Total difficulty of a stored block (canonical or side), if retained.
    pub fn total_difficulty(&self, hash: H256) -> Option<U256> {
        self.entries.get(&hash).map(|e| e.total_difficulty)
    }

    /// Crash-recovery model: drops the newest `depth` canonical blocks — a
    /// corrupted or half-written tail discovered on restart — rolling world
    /// state back to before the oldest dropped block. The dropped blocks
    /// leave the store entirely, so a resync can re-import them from peers.
    /// At least one canonical entry is always kept. Returns how many blocks
    /// were actually dropped.
    pub fn truncate_tail(&mut self, depth: usize) -> usize {
        let removable = self.recent.len().saturating_sub(1);
        let n = depth.min(removable);
        if n == 0 {
            return 0;
        }
        let keep = self.recent.len() - n;
        let removed: Vec<CanonEntry> = self.recent.drain(keep..).collect();
        // Checkpoints record the state *before* their block; rolling back to
        // the oldest removed checkpoint undoes the whole tail at once.
        self.state.rollback_to(removed[0].checkpoint);
        for e in &removed {
            self.remove_entry(e.hash);
        }
        n
    }

    /// Number of retained entries (diagnostics / memory tests).
    pub fn retained_blocks(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genesis::GenesisBuilder;
    use fork_crypto::Keypair;
    use fork_primitives::units::ether;

    fn kp(i: u64) -> Keypair {
        Keypair::from_seed("store", i)
    }

    fn new_store() -> ChainStore {
        let (genesis, state) = GenesisBuilder::new()
            .difficulty(U256::from_u64(1 << 16))
            .timestamp(1_000_000)
            .alloc(kp(0).address(), ether(1_000))
            .alloc(kp(1).address(), ether(1_000))
            .build();
        ChainStore::new(ChainSpec::test(), genesis, state)
    }

    fn miner() -> Address {
        Address([0xC0; 20])
    }

    #[test]
    fn propose_import_extends_head() {
        let mut store = new_store();
        let t0 = store.head_header().timestamp;
        let block = store.propose(miner(), t0 + 14, vec![], &[]);
        let result = store.import(block.clone()).unwrap();
        assert_eq!(result.outcome, ImportOutcome::Extended);
        assert_eq!(store.head_number(), 1);
        assert_eq!(store.head_hash(), block.hash());
    }

    #[test]
    fn import_outcomes_counted_in_registry() {
        let reg = fork_telemetry::MetricsRegistry::new();
        let mut store = new_store().with_telemetry(&reg, "chain.test");
        let t0 = store.head_header().timestamp;
        let b1 = store.propose(miner(), t0 + 14, vec![], &[]);
        store.import(b1.clone()).unwrap();
        store.import(b1).unwrap(); // AlreadyKnown

        let mut orphan = store.propose(miner(), t0 + 28, vec![], &[]);
        orphan.header.parent_hash = H256([9; 32]);
        crate::pow::seal(&mut orphan.header, store.spec().pow_work_factor, 0);
        assert!(store.import(orphan).is_err());

        let snap = reg.snapshot();
        assert_eq!(snap.counters["chain.test.imports.extended"], 1);
        assert_eq!(snap.counters["chain.test.imports.already_known"], 1);
        assert_eq!(snap.counters["chain.test.imports.rejected"], 1);
        assert_eq!(snap.counters["chain.test.proposed"], 2);
        let import = snap.spans["chain.test.import"];
        assert_eq!(import.count, 3);
        let validate = snap.spans["chain.test.validate"];
        // The duplicate short-circuits before validation; the orphan fails
        // before it too (unknown parent).
        assert_eq!(validate.count, 1);
        assert!(import.child_ns >= validate.total_ns);
        // Each proposal runs every build phase once; only a self-commit
        // runs the commit phase.
        for phase in ["select", "execute", "roots", "seal"] {
            assert_eq!(snap.spans[&format!("chain.test.propose.{phase}")].count, 2);
        }
        assert_eq!(snap.spans["chain.test.propose.commit"].count, 0);
        store.propose_and_commit_pooled(miner(), t0 + 42, vec![], &[]);
        let snap = reg.snapshot();
        assert_eq!(snap.spans["chain.test.propose.seal"].count, 3);
        assert_eq!(snap.spans["chain.test.propose.commit"].count, 1);
    }

    #[test]
    fn import_duplicate_is_known() {
        let mut store = new_store();
        let t0 = store.head_header().timestamp;
        let block = store.propose(miner(), t0 + 14, vec![], &[]);
        store.import(block.clone()).unwrap();
        let again = store.import(block).unwrap();
        assert_eq!(again.outcome, ImportOutcome::AlreadyKnown);
    }

    #[test]
    fn transactions_execute_on_import() {
        let mut store = new_store();
        let t0 = store.head_header().timestamp;
        let tx = Transaction::transfer(
            &kp(0),
            0,
            kp(1).address(),
            U256::from_u64(12345),
            U256::ONE,
            None,
        );
        let block = store.propose(miner(), t0 + 14, vec![], &[tx]);
        assert_eq!(block.transactions.len(), 1);
        store.import(block).unwrap();
        assert_eq!(
            store.state().balance(kp(1).address()),
            ether(1_000) + U256::from_u64(12345)
        );
    }

    #[test]
    fn orphan_rejected_with_unknown_parent() {
        let mut store = new_store();
        let t0 = store.head_header().timestamp;
        let mut block = store.propose(miner(), t0 + 14, vec![], &[]);
        block.header.parent_hash = H256([9; 32]);
        crate::pow::seal(&mut block.header, store.spec().pow_work_factor, 0);
        assert!(matches!(
            store.import(block),
            Err(ChainError::UnknownParent { .. })
        ));
    }

    /// Builds two stores from the same genesis so one can produce competing
    /// branches for the other.
    fn twin_stores() -> (ChainStore, ChainStore) {
        (new_store(), new_store())
    }

    #[test]
    fn fork_choice_prefers_higher_total_difficulty() {
        let (mut a, mut b) = twin_stores();
        let t0 = a.head_header().timestamp;

        // Store A mines one block; store B mines two (faster blocks => its
        // branch may have different difficulty; two blocks still win on TD).
        let a1 = a.propose(Address([0xAA; 20]), t0 + 20, vec![], &[]);
        a.import(a1.clone()).unwrap();

        let b1 = b.propose(Address([0xBB; 20]), t0 + 14, vec![], &[]);
        b.import(b1.clone()).unwrap();
        let b2 = b.propose(Address([0xBB; 20]), t0 + 28, vec![], &[]);
        b.import(b2.clone()).unwrap();

        // Feed B's branch into A. Depending on the difficulty of b1 vs a1,
        // the reorg fires on the first or second import — exactly one of
        // them must revert A's block, and B's branch must win.
        let r1 = a.import(b1).unwrap();
        let r2 = a.import(b2.clone()).unwrap();
        assert_eq!(a.head_hash(), b2.hash());
        let reorgs: Vec<usize> = [&r1.outcome, &r2.outcome]
            .iter()
            .filter_map(|o| match o {
                ImportOutcome::Reorged { reverted } => Some(*reverted),
                _ => None,
            })
            .collect();
        assert_eq!(reorgs, vec![1], "r1={:?} r2={:?}", r1.outcome, r2.outcome);
    }

    #[test]
    fn reorg_rolls_state_back_and_forward() {
        let (mut a, mut b) = twin_stores();
        let t0 = a.head_header().timestamp;

        // A's branch pays kp(1); B's branch pays kp(0)->kp(1) differently.
        let tx_a = Transaction::transfer(
            &kp(0),
            0,
            kp(1).address(),
            U256::from_u64(111),
            U256::ONE,
            None,
        );
        let a1 = a.propose(Address([0xAA; 20]), t0 + 20, vec![], &[tx_a]);
        a.import(a1).unwrap();
        assert_eq!(
            a.state().balance(kp(1).address()),
            ether(1_000) + U256::from_u64(111)
        );

        let tx_b = Transaction::transfer(
            &kp(0),
            0,
            kp(1).address(),
            U256::from_u64(222),
            U256::ONE,
            None,
        );
        let b1 = b.propose(Address([0xBB; 20]), t0 + 14, vec![], &[tx_b]);
        b.import(b1.clone()).unwrap();
        let b2 = b.propose(Address([0xBB; 20]), t0 + 28, vec![], &[]);
        b.import(b2.clone()).unwrap();

        a.import(b1).unwrap();
        a.import(b2).unwrap();
        // After the reorg, A's state reflects B's branch: 222, not 111.
        assert_eq!(
            a.state().balance(kp(1).address()),
            ether(1_000) + U256::from_u64(222)
        );
        assert_eq!(a.state().nonce(kp(0).address()), 1);
    }

    #[test]
    fn finalization_streams_old_blocks() {
        let mut store = new_store().with_retention(4);
        let mut finalized_count = 0;
        let mut t = store.head_header().timestamp;
        for i in 0..10 {
            t += 14;
            let block = store.propose(miner(), t, vec![], &[]);
            let result = store.import(block).unwrap();
            finalized_count += result.finalized.len();
            // Finalized blocks arrive oldest-first and contiguously, keyed
            // by their own hash.
            for f in &result.finalized {
                assert!(f.block.header.number <= i);
                assert_eq!(f.hash, f.block.hash());
            }
        }
        // 11 canonical blocks (incl. genesis), window of 4 -> 7 finalized.
        assert_eq!(finalized_count, 7);
        assert!(store.retained_blocks() <= 5);
    }

    #[test]
    fn drain_window_flushes_everything_but_head() {
        let mut store = new_store().with_retention(8);
        let mut t = store.head_header().timestamp;
        for _ in 0..5 {
            t += 14;
            let b = store.propose(miner(), t, vec![], &[]);
            store.import(b).unwrap();
        }
        let drained = store.drain_window();
        assert_eq!(drained.len(), 5); // genesis..block4, head stays
        assert_eq!(store.head_number(), 5);
        // Numbers are contiguous ascending.
        let numbers: Vec<u64> = drained.iter().map(|f| f.block.header.number).collect();
        assert_eq!(numbers, vec![0, 1, 2, 3, 4]);
        assert!(drained.iter().all(|f| f.hash == f.block.hash()));
    }

    #[test]
    fn reorg_past_retention_rejected() {
        let (mut a, mut b) = twin_stores();
        a = a.with_retention(3);
        let mut t = a.head_header().timestamp;
        // A builds 8 blocks; B independently builds 9 from genesis.
        for _ in 0..8 {
            t += 14;
            let blk = a.propose(Address([0xAA; 20]), t, vec![], &[]);
            a.import(blk).unwrap();
        }
        let mut tb = b.head_header().timestamp;
        let mut b_blocks = Vec::new();
        for _ in 0..9 {
            tb += 13;
            let blk = b.propose(Address([0xBB; 20]), tb, vec![], &[]);
            b.import(blk.clone()).unwrap();
            b_blocks.push(blk);
        }
        // Feeding B's branch into A fails early: its fork point (genesis) is
        // already finalized on A, so even the first B block has no parent.
        let err = a.import(b_blocks[0].clone());
        assert!(err.is_err(), "deep fork must be rejected");
    }

    #[test]
    fn canonical_lookup_in_window() {
        let mut store = new_store().with_retention(16);
        let mut t = store.head_header().timestamp;
        let mut hashes = vec![store.head_hash()];
        for _ in 0..5 {
            t += 14;
            let b = store.propose(miner(), t, vec![], &[]);
            hashes.push(b.hash());
            store.import(b).unwrap();
        }
        for (n, h) in hashes.iter().enumerate() {
            assert_eq!(store.canonical_hash(n as u64), Some(*h));
        }
        assert_eq!(store.canonical_hash(99), None);
    }

    #[test]
    fn ommers_included_and_rewarded() {
        let (mut a, mut b) = twin_stores();
        let t0 = a.head_header().timestamp;

        // Competing block at height 1 from B becomes A's side block.
        let uncle_block = b.propose(Address([0xBB; 20]), t0 + 13, vec![], &[]);
        b.import(uncle_block.clone()).unwrap();

        let a1 = a.propose(Address([0xAA; 20]), t0 + 14, vec![], &[]);
        a.import(a1).unwrap();
        a.import(uncle_block.clone()).unwrap(); // side chain

        // Next proposal should pick the side block up as an ommer.
        let a2 = a.propose(Address([0xAA; 20]), t0 + 28, vec![], &[]);
        assert_eq!(a2.ommers.len(), 1);
        assert_eq!(a2.ommers[0].hash(), uncle_block.header.hash());
        a.import(a2).unwrap();
        // Uncle miner got the 7/8 reward.
        assert_eq!(
            a.state().balance(Address([0xBB; 20])),
            ether(5) * U256::from_u64(7) / U256::from_u64(8)
        );
        // And it is not re-included later.
        let a3 = a.propose(Address([0xAA; 20]), t0 + 42, vec![], &[]);
        assert!(a3.ommers.is_empty());
    }

    #[test]
    fn propose_and_commit_equivalent_to_propose_import() {
        // Two identical stores, same transactions: one uses propose+import,
        // the other the fast path. Ledgers and state must match bit-exact.
        let mut slow = new_store();
        let mut fast = new_store();
        let mut t = slow.head_header().timestamp;
        for round in 0..6u64 {
            t += 14;
            let tx = Transaction::transfer(
                &kp(0),
                round,
                kp(1).address(),
                U256::from_u64(100 + round),
                U256::ONE,
                None,
            );
            let b_slow = slow.propose(miner(), t, vec![], std::slice::from_ref(&tx));
            slow.import(b_slow).unwrap();
            let b_fast = fast
                .propose_and_commit_pooled(miner(), t, vec![], &[tx.into()])
                .block;
            // One builder and the same seal counter: the blocks are
            // identical, seal nonce included.
            assert_eq!(&b_fast, slow.block(slow.head_hash()).unwrap());
        }
        assert_eq!(slow.head_number(), fast.head_number());
        assert_eq!(
            slow.state().state_root(),
            fast.state().state_root(),
            "fast path must land on the identical state"
        );
        assert_eq!(slow.head_total_difficulty(), fast.head_total_difficulty());
    }

    #[test]
    fn propose_and_commit_blocks_accepted_by_peers() {
        // A block produced by the fast path must import cleanly on a replica
        // that validates it the slow way.
        let mut producer = new_store();
        let mut replica = new_store();
        let mut t = producer.head_header().timestamp;
        for round in 0..4u64 {
            t += 14;
            let tx = Transaction::transfer(
                &kp(0),
                round,
                kp(1).address(),
                U256::from_u64(7),
                U256::ONE,
                None,
            );
            let committed = producer.propose_and_commit_pooled(miner(), t, vec![], &[tx.into()]);
            assert_eq!(committed.included, vec![0]);
            let block = committed.block;
            let result = replica.import(block).unwrap();
            assert_eq!(result.outcome, ImportOutcome::Extended);
        }
        assert_eq!(replica.head_hash(), producer.head_hash());
    }

    #[test]
    fn truncate_tail_rolls_back_and_allows_reimport() {
        let mut store = new_store();
        let mut t = store.head_header().timestamp;
        let mut blocks = Vec::new();
        for round in 0..6u64 {
            t += 14;
            let tx = Transaction::transfer(
                &kp(0),
                round,
                kp(1).address(),
                U256::from_u64(50 + round),
                U256::ONE,
                None,
            );
            let b = store.propose(miner(), t, vec![], &[tx]);
            store.import(b.clone()).unwrap();
            blocks.push(b);
        }
        let snapshot = store.clone(); // the intact six-block chain
        assert_eq!(store.truncate_tail(2), 2);
        assert_eq!(store.head_number(), 4);
        assert_eq!(store.head_hash(), blocks[3].hash());
        // The dropped blocks are gone entirely, not side-chained.
        assert!(!store.contains(blocks[4].hash()));
        assert!(!store.contains(blocks[5].hash()));
        // World state rolled back with the tail.
        assert_eq!(store.state().nonce(kp(0).address()), 4);
        // Resync: re-importing the dropped tail restores the exact chain.
        for b in &blocks[4..] {
            assert_eq!(
                store.import(b.clone()).unwrap().outcome,
                ImportOutcome::Extended
            );
        }
        assert_eq!(store.head_hash(), snapshot.head_hash());
        assert_eq!(store.state().state_root(), snapshot.state().state_root());
        assert_eq!(
            store.head_total_difficulty(),
            snapshot.head_total_difficulty()
        );
    }

    #[test]
    fn truncate_tail_bounds() {
        let mut store = new_store();
        let mut t = store.head_header().timestamp;
        for _ in 0..3 {
            t += 14;
            let b = store.propose(miner(), t, vec![], &[]);
            store.import(b).unwrap();
        }
        assert_eq!(store.truncate_tail(0), 0);
        assert_eq!(store.head_number(), 3);
        // Deeper than the window: everything but the oldest retained entry
        // goes; the store never empties.
        assert_eq!(store.truncate_tail(100), 3);
        assert_eq!(store.head_number(), 0);
        assert_eq!(store.truncate_tail(1), 0);
    }

    #[test]
    fn total_difficulty_accessor_tracks_entries() {
        let mut store = new_store();
        let genesis_td = store.head_total_difficulty();
        assert_eq!(store.total_difficulty(store.head_hash()), Some(genesis_td));
        let t0 = store.head_header().timestamp;
        let b = store.propose(miner(), t0 + 14, vec![], &[]);
        store.import(b.clone()).unwrap();
        let td = store.total_difficulty(b.hash()).unwrap();
        assert_eq!(td, genesis_td.saturating_add(b.header.difficulty));
        assert_eq!(store.total_difficulty(H256([9; 32])), None);
    }

    #[test]
    fn tampered_block_rejected_cleanly() {
        let mut store = new_store();
        let t0 = store.head_header().timestamp;
        let root_before = store.state().state_root();
        let mut block = store.propose(miner(), t0 + 14, vec![], &[]);
        // Declare a bogus state root; reseal so the seal is not the failure.
        block.header.state_root = H256([7; 32]);
        crate::pow::seal(&mut block.header, store.spec().pow_work_factor, 0);
        let err = store.import(block).unwrap_err();
        assert!(matches!(err, ChainError::StateRootMismatch { .. }));
        assert_eq!(store.head_number(), 0);
        assert_eq!(store.state().state_root(), root_before, "state untouched");
    }
}
