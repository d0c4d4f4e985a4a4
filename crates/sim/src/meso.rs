//! The two-chain ("meso-scale") simulation engine.
//!
//! One [`ChainStore`] per network, driven block-by-block: block discovery is
//! a non-homogeneous Poisson process with rate `hashrate(t) / difficulty`,
//! sampled exactly over the piecewise-constant hashrate schedule (memoryless
//! restart at knots). Every block is *really* proposed, sealed, imported and
//! executed under the network's [`ChainSpec`], so the Figure 1 dynamics —
//! the post-fork stall, the capped difficulty bleed-off, the two-day
//! recovery — are emergent, not scripted.
//!
//! Transactions come from the shared [`UserPopulation`]; included legacy
//! transactions may be rebroadcast into the other chain's mempool (the
//! Figure 4 echo channel); pool winners are sampled per block and the pool
//! ecosystem drifts daily (Figure 5).

use std::collections::HashSet;
use std::sync::Arc;

use fork_analytics::{BlockRecord, TxRecord};
use fork_chain::transaction::PooledTx;
use fork_chain::{Block, ChainSpec, ChainStore, FinalizedBlock, GenesisBuilder};
use fork_evm::contracts as evm_contracts;
use fork_pools::PoolSet;
use fork_primitives::{Address, SimTime, H256, U256};
use fork_replay::Side;
use fork_telemetry::{Histogram, MetricsRegistry, SpanStats};
use rand::Rng;

use crate::observer::LedgerSink;
use crate::rng::SimRng;
use crate::schedule::StepSeries;
use crate::workload::{UserPopulation, WorkloadParams};

/// Per-network simulation parameters.
#[derive(Debug, Clone)]
pub struct NetworkParams {
    /// Protocol rules (fork stance, difficulty config, replay fork heights —
    /// expressed in *simulation* block numbers).
    pub spec: ChainSpec,
    /// Hashpower pointed at this chain, hashes/second.
    pub hashrate: StepSeries,
    /// The pool ecosystem winning this chain's blocks.
    pub pools: PoolSet,
    /// Daily preferential-attachment churn fraction.
    pub pool_churn_per_day: f64,
    /// Transaction workload.
    pub workload: WorkloadParams,
}

/// Whole-run configuration.
#[derive(Debug, Clone)]
pub struct MesoConfig {
    /// Root seed; identical configs + seeds give identical ledgers.
    pub seed: u64,
    /// Simulation start (the shared genesis's timestamp).
    pub start: SimTime,
    /// Simulation end.
    pub end: SimTime,
    /// Genesis difficulty (the pre-fork network's operating point).
    pub genesis_difficulty: U256,
    /// Number of user accounts (funded identically on both chains).
    pub users: usize,
    /// Fraction of users active on the ETH side.
    pub eth_user_fraction: f64,
    /// Wei funded per user at genesis.
    pub user_funding: U256,
    /// Probability an included legacy transaction gets rebroadcast into the
    /// other chain, as a schedule (high right after the fork, decaying).
    pub replay_eagerness: StepSeries,
    /// Reorg-window retention per store.
    pub retention: usize,
    /// ETH-side parameters.
    pub eth: NetworkParams,
    /// ETC-side parameters.
    pub etc: NetworkParams,
}

/// Counters returned by a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Canonical blocks per side at the end.
    pub blocks: [u64; 2],
    /// Transactions included per side.
    pub txs: [u64; 2],
    /// Rebroadcast attempts pushed into the other chain's mempool.
    pub replay_pushes: u64,
    /// Final head difficulty per side.
    pub final_difficulty: [U256; 2],
}

struct NetSim {
    side: Side,
    store: ChainStore,
    pools: PoolSet,
    pool_churn: f64,
    workload: WorkloadParams,
    hashrate: StepSeries,
    mempool: Vec<PooledTx>,
    /// Cleanup-epoch at which each mempool entry arrived (parallel to
    /// `mempool`); entries surviving several epochs are wedged replays and
    /// get evicted to keep the pool bounded.
    mempool_ages: Vec<u32>,
    mempool_hashes: HashSet<H256>,
    cleanup_epoch: u32,
    next_block_at: f64,
    last_txgen: SimTime,
    last_pool_day: u64,
    eip155_block: Option<u64>,
    blocks_since_cleanup: u32,
}

impl NetSim {
    fn eip155_active(&self) -> bool {
        match self.eip155_block {
            Some(b) => self.store.head_number() + 1 >= b,
            None => false,
        }
    }

    fn push_mempool(&mut self, tx: PooledTx) -> bool {
        if self.mempool_hashes.insert(tx.hash) {
            self.mempool.push(tx);
            self.mempool_ages.push(self.cleanup_epoch);
            true
        } else {
            false
        }
    }
}

/// Cached span handles for the engine's step phases (cached so the hot loop
/// never touches the registry's lock).
#[derive(Clone)]
struct StepSpans {
    step: Arc<SpanStats>,
    sample: Arc<SpanStats>,
    generate: Arc<SpanStats>,
    mine: Arc<SpanStats>,
    mempool: Arc<SpanStats>,
    replay: Arc<SpanStats>,
    pools: Arc<SpanStats>,
    emit: Arc<SpanStats>,
}

impl StepSpans {
    fn new(registry: &MetricsRegistry) -> Self {
        StepSpans {
            step: registry.span("meso.step"),
            sample: registry.span("meso.sample"),
            generate: registry.span("meso.step.generate"),
            mine: registry.span("meso.step.mine"),
            mempool: registry.span("meso.step.mempool"),
            replay: registry.span("meso.step.replay"),
            pools: registry.span("meso.step.pools"),
            emit: registry.span("meso.step.emit"),
        }
    }
}

/// One heartbeat emitted by [`TwoChainEngine::run_with_progress`] each time
/// the simulation crosses a simulated-day boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressEvent {
    /// Completed simulated days since the run started (1-based: the first
    /// heartbeat fires when day 1 finishes).
    pub day: u64,
    /// Simulated unix time (seconds) of the step that crossed the boundary.
    pub sim_unix: u64,
    /// Canonical blocks mined so far per side (`[eth, etc]`).
    pub blocks: [u64; 2],
    /// Engine steps per wall-clock second since the previous heartbeat.
    pub events_per_sec: f64,
}

/// The engine.
pub struct TwoChainEngine {
    nets: [NetSim; 2],
    population: UserPopulation,
    replay_eagerness: StepSeries,
    rng_mining: SimRng,
    rng_users: SimRng,
    rng_replay: SimRng,
    rng_pools: SimRng,
    start: SimTime,
    end: SimTime,
    summary: RunSummary,
    /// Every metric this run produces: the per-phase spans below, plus the
    /// two stores' import counters/timings. A table is printed at the end of
    /// `run` when `FORK_MESO_PROF` is set.
    telemetry: Arc<MetricsRegistry>,
    spans: StepSpans,
    /// Block inter-arrival histograms per side
    /// (`meso.interarrival.{eth,etc}`): seconds between consecutive emitted
    /// blocks' timestamps, exportable via telemetry snapshots.
    interarrival: [Arc<Histogram>; 2],
    /// Timestamp of the last emitted block per side.
    last_emit_ts: [Option<u64>; 2],
}

impl TwoChainEngine {
    /// Builds the shared genesis (users, utility contracts, the DAO vault)
    /// and the two network stores.
    pub fn new(config: MesoConfig) -> Self {
        let root = SimRng::new(config.seed);
        let mut population =
            UserPopulation::new("meso-user", config.users, config.eth_user_fraction);

        // Shared genesis: identical on both chains — the replay precondition.
        let churner_a = Address([0xC1; 20]);
        let churner_b = Address([0xC2; 20]);
        population.add_contract(churner_a);
        population.add_contract(churner_b);

        let mut genesis = GenesisBuilder::new()
            .difficulty(config.genesis_difficulty)
            .timestamp(config.start.as_unix())
            .gas_limit(4_712_388)
            .contract(churner_a, evm_contracts::storage_churner())
            .contract(churner_b, evm_contracts::storage_churner());
        for addr in population.addresses() {
            genesis = genesis.alloc(*addr, config.user_funding);
        }
        // Fund any DAO accounts the ETH spec will drain at the fork block.
        if let Some(dao) = &config.eth.spec.dao_fork {
            for acct in &dao.dao_accounts {
                genesis = genesis.alloc(*acct, fork_primitives::units::ether(3_600_000));
            }
        }
        let (genesis_block, genesis_state) = genesis.build();

        let telemetry = Arc::new(MetricsRegistry::new());
        let mk_net = |side: Side, params: &NetworkParams| -> NetSim {
            let eip155_block = params.spec.eip155.map(|(b, _)| b);
            let prefix = match side {
                Side::Eth => "chain.eth",
                Side::Etc => "chain.etc",
            };
            NetSim {
                side,
                store: ChainStore::new(
                    params.spec.clone(),
                    genesis_block.clone(),
                    genesis_state.clone(),
                )
                .with_retention(config.retention)
                .with_telemetry(&telemetry, prefix),
                pools: params.pools.clone(),
                pool_churn: params.pool_churn_per_day,
                workload: params.workload.clone(),
                hashrate: params.hashrate.clone(),
                mempool: Vec::new(),
                mempool_ages: Vec::new(),
                mempool_hashes: HashSet::new(),
                cleanup_epoch: 0,
                next_block_at: f64::INFINITY,
                last_txgen: config.start,
                last_pool_day: config.start.day_bucket(),
                eip155_block,
                blocks_since_cleanup: 0,
            }
        };

        let nets = [
            mk_net(Side::Eth, &config.eth),
            mk_net(Side::Etc, &config.etc),
        ];

        let mut engine = TwoChainEngine {
            nets,
            population,
            replay_eagerness: config.replay_eagerness,
            rng_mining: root.fork("mining"),
            rng_users: root.fork("users"),
            rng_replay: root.fork("replay"),
            rng_pools: root.fork("pools"),
            start: config.start,
            end: config.end,
            summary: RunSummary::default(),
            spans: StepSpans::new(&telemetry),
            interarrival: [
                telemetry.histogram("meso.interarrival.eth"),
                telemetry.histogram("meso.interarrival.etc"),
            ],
            last_emit_ts: [None, None],
            telemetry,
        };
        let t0 = config.start.as_unix() as f64;
        for i in 0..2 {
            engine.nets[i].next_block_at = engine.sample_next_block(i, t0);
        }
        engine
    }

    /// Samples the next block-discovery time for network `i`, starting the
    /// exponential clock at `from` (seconds). Exact for piecewise-constant
    /// hashrate via memoryless restarts at knots.
    fn sample_next_block(&mut self, i: usize, from: f64) -> f64 {
        let Self {
            nets, rng_mining, ..
        } = self;
        let net = &nets[i];
        let parent = net.store.head_header();
        let (p_diff, p_ts, number) = (parent.difficulty, parent.timestamp, parent.number + 1);
        let spec_diff = net.store.spec().difficulty;
        let mut t = from;
        loop {
            let st = SimTime::from_unix(t as u64);
            let h = net.hashrate.at(st).max(1.0);
            let child_ts = (t as u64).max(p_ts + 1);
            let d_est = spec_diff.next_difficulty(p_diff, p_ts, child_ts, number);
            let mean = d_est.to_f64_lossy() / h;
            let dt = rng_mining.exp(mean);
            if let Some(knot) = net.hashrate.next_knot_after(st) {
                let knot_f = knot.as_unix() as f64;
                if knot_f < t + dt {
                    t = knot_f;
                    continue;
                }
            }
            return t + dt;
        }
    }

    /// Runs to the configured end time, streaming finalized blocks into
    /// `sink`. Returns run counters.
    pub fn run(&mut self, sink: &mut impl LedgerSink) -> RunSummary {
        self.run_with_progress(sink, None)
    }

    /// Like [`TwoChainEngine::run`], but invokes `progress` once per
    /// completed simulated day. The heartbeat is pure observation: it reads
    /// counters the run already maintains and never touches the RNG streams,
    /// so a run with a progress callback produces byte-identical results to
    /// one without.
    pub fn run_with_progress(
        &mut self,
        sink: &mut impl LedgerSink,
        mut progress: Option<&mut dyn FnMut(ProgressEvent)>,
    ) -> RunSummary {
        let end_f = self.end.as_unix() as f64;
        let run_start = self.start.as_unix();
        let mut next_day: u64 = 1;
        let mut day_steps: u64 = 0;
        let mut day_wall = std::time::Instant::now();
        loop {
            let i = if self.nets[0].next_block_at <= self.nets[1].next_block_at {
                0
            } else {
                1
            };
            let t = self.nets[i].next_block_at;
            if t >= end_f {
                break;
            }
            self.step_network(i, t, sink);
            day_steps += 1;
            if let Some(cb) = progress.as_deref_mut() {
                let sim_unix = t as u64;
                if sim_unix >= run_start + next_day * 86_400 {
                    let day = (sim_unix - run_start) / 86_400;
                    let elapsed = day_wall.elapsed().as_secs_f64();
                    let events_per_sec = if elapsed > 0.0 {
                        day_steps as f64 / elapsed
                    } else {
                        0.0
                    };
                    cb(ProgressEvent {
                        day,
                        sim_unix,
                        blocks: self.summary.blocks,
                        events_per_sec,
                    });
                    next_day = day + 1;
                    day_steps = 0;
                    day_wall = std::time::Instant::now();
                }
            }
            let span = self.spans.sample.enter();
            let next = self.sample_next_block(i, t);
            drop(span);
            self.nets[i].next_block_at = next;
        }
        if std::env::var_os("FORK_MESO_PROF").is_some() {
            eprint!("{}", self.telemetry.snapshot().render_table());
        }
        // Flush both windows so analytics sees the complete ledgers —
        // including the head block, which the store must keep.
        for i in 0..2 {
            let finalized = self.nets[i].store.drain_window();
            for f in finalized {
                self.emit(i, f, sink);
            }
            let head_hash = self.nets[i].store.head_hash();
            if let Some(head) = self.nets[i].store.block(head_hash).cloned() {
                let receipts = self.nets[i]
                    .store
                    .canonical_receipts(head.header.number)
                    .map(<[fork_chain::Receipt]>::to_vec)
                    .unwrap_or_default();
                let td = self.nets[i].store.head_total_difficulty();
                self.emit(
                    i,
                    FinalizedBlock {
                        block: head,
                        hash: head_hash,
                        receipts,
                        total_difficulty: td,
                    },
                    sink,
                );
            }
            self.summary.final_difficulty[i] = self.nets[i].store.head_header().difficulty;
        }
        self.summary.clone()
    }

    /// Mines one block on network `i` at absolute time `t`.
    fn step_network(&mut self, i: usize, t: f64, sink: &mut impl LedgerSink) {
        let t_sim = SimTime::from_unix(t as u64);
        let side = self.nets[i].side;
        // Phase guards hold only a start time (the stats Arc lives on a
        // thread-local stack), so they don't borrow `self`; the phase spans
        // nest inside the step span, which reports their sum as child time.
        let _step = self.spans.step.enter();

        // 1. Transactions that arrived since this side's last generation.
        let s = self.spans.generate.enter();
        let eip155_active = self.nets[i].eip155_active();
        let from = self.nets[i].last_txgen;
        let workload = self.nets[i].workload.clone();
        let new_txs = self.population.generate(
            side,
            from,
            t_sim,
            &workload,
            eip155_active,
            &mut self.rng_users,
        );
        self.nets[i].last_txgen = t_sim;
        for tx in new_txs {
            self.nets[i].push_mempool(tx.into());
        }
        drop(s);

        // 2. Mine: pool winner + single-execution propose-and-commit (the
        //    miner does not re-validate its own block; equivalence with
        //    propose+import is locked by a chain-crate test).
        let s = self.spans.mine.enter();
        let beneficiary = self.nets[i].pools.sample_winner(&mut self.rng_pools);
        let mempool = std::mem::take(&mut self.nets[i].mempool);
        let committed = self.nets[i].store.propose_and_commit_pooled(
            beneficiary,
            t_sim.as_unix(),
            Vec::new(),
            &mempool,
        );
        self.summary.blocks[i] += 1;
        self.summary.txs[i] += committed.included.len() as u64;
        drop(s);

        // 3. Mempool upkeep: move the included entries out (cached hash and
        //    sender with them), keep the rest in order.
        let s = self.spans.mempool.enter();
        let net = &mut self.nets[i];
        let mut included = Vec::with_capacity(committed.included.len());
        if committed.included.is_empty() {
            net.mempool = mempool;
        } else {
            let ages = std::mem::take(&mut net.mempool_ages);
            let mut chosen = committed.included.iter().copied().peekable();
            for (index, (entry, age)) in mempool.into_iter().zip(ages).enumerate() {
                if chosen.next_if_eq(&index).is_some() {
                    net.mempool_hashes.remove(&entry.hash);
                    included.push(entry);
                } else {
                    net.mempool.push(entry);
                    net.mempool_ages.push(age);
                }
            }
        }
        net.blocks_since_cleanup += 1;
        if net.blocks_since_cleanup >= 200 {
            self.cleanup_mempool(i);
        }
        drop(s);

        // 4. The echo channel: included legacy transactions may be lifted
        //    into the other chain's mempool verbatim.
        let s = self.spans.replay.enter();
        let eagerness = self.replay_eagerness.at(t_sim).clamp(0.0, 1.0);
        if eagerness > 0.0 {
            let other = 1 - i;
            for entry in included {
                if entry.tx.chain_id.is_none()
                    && self.rng_replay.gen_bool(eagerness)
                    && self.nets[other].push_mempool(entry)
                {
                    self.summary.replay_pushes += 1;
                }
            }
        }
        drop(s);

        // 5. Daily pool-ecosystem drift.
        let s = self.spans.pools.enter();
        let day = t_sim.day_bucket();
        while self.nets[i].last_pool_day < day {
            self.nets[i].last_pool_day += 1;
            let churn = self.nets[i].pool_churn;
            self.nets[i]
                .pools
                .step_preferential(churn, &mut self.rng_pools);
        }
        drop(s);

        // 6. Stream finalized blocks to the sink.
        let s = self.spans.emit.enter();
        for f in committed.finalized {
            self.emit(i, f, sink);
        }
        drop(s);
    }

    /// Evicts mempool transactions that can never apply (nonce already used
    /// on this chain) and re-aligns the population's counters when one of
    /// its own pending transactions was dropped.
    fn cleanup_mempool(&mut self, i: usize) {
        self.nets[i].blocks_since_cleanup = 0;
        let side = self.nets[i].side;
        self.nets[i].cleanup_epoch += 1;
        let epoch = self.nets[i].cleanup_epoch;
        let mempool = std::mem::take(&mut self.nets[i].mempool);
        let ages = std::mem::take(&mut self.nets[i].mempool_ages);
        let mut kept = Vec::with_capacity(mempool.len());
        let mut kept_ages = Vec::with_capacity(ages.len());
        for (entry, born) in mempool.into_iter().zip(ages) {
            let tx = &entry.tx;
            // Wedged entries (waiting on a predecessor that will never
            // come — broken replay chains) age out after a few epochs.
            let aged_out = epoch.saturating_sub(born) >= 3;
            let stale = aged_out
                || match entry.sender {
                    Some(sender) => {
                        let state = self.nets[i].store.state();
                        let used = tx.nonce < state.nonce(sender);
                        // A next-in-line transaction the sender can no longer
                        // fund wedges the account's whole queue — evict it too.
                        let upfront = U256::from_u64(tx.gas_limit)
                            .saturating_mul(tx.gas_price)
                            .saturating_add(tx.value);
                        let unfundable =
                            tx.nonce == state.nonce(sender) && state.balance(sender) < upfront;
                        used || unfundable
                    }
                    None => true,
                };
            if stale {
                self.nets[i].mempool_hashes.remove(&entry.hash);
                if let Some(sender) = entry.sender {
                    let n = self.nets[i].store.state().nonce(sender);
                    self.population.resync_nonce(side, sender, n);
                }
            } else {
                kept.push(entry);
                kept_ages.push(born);
            }
        }
        self.nets[i].mempool = kept;
        self.nets[i].mempool_ages = kept_ages;
    }

    /// Converts a finalized block into analytics records. The synthetic
    /// genesis (number 0, never mined) is not part of the measured ledger.
    fn emit(&mut self, i: usize, f: FinalizedBlock, sink: &mut impl LedgerSink) {
        if f.block.header.number == 0 {
            return;
        }
        let side = self.nets[i].side;
        let header = &f.block.header;
        if let Some(prev) = self.last_emit_ts[i] {
            self.interarrival[i].record(header.timestamp.saturating_sub(prev));
        }
        self.last_emit_ts[i] = Some(header.timestamp);
        sink.block(BlockRecord {
            network: side,
            number: header.number,
            hash: f.hash,
            timestamp: header.timestamp,
            difficulty: header.difficulty,
            beneficiary: header.beneficiary,
            gas_used: header.gas_used,
            tx_count: f.block.transactions.len() as u32,
            ommer_count: f.block.ommers.len() as u32,
        });
        for tx in &f.block.transactions {
            let is_contract = tx.to.is_none()
                || !tx.data.is_empty()
                || tx
                    .to
                    .map(|a| self.population.is_contract(&a))
                    .unwrap_or(false);
            sink.tx(TxRecord {
                network: side,
                hash: tx.hash(),
                timestamp: header.timestamp,
                is_contract,
                has_chain_id: tx.chain_id.is_some(),
                value: tx.value,
            });
        }
    }

    /// Read access to a network's store (tests and observations).
    pub fn store(&self, side: Side) -> &ChainStore {
        match side {
            Side::Eth => &self.nets[0].store,
            Side::Etc => &self.nets[1].store,
        }
    }

    /// Read access to a network's pool ecosystem.
    pub fn pools(&self, side: Side) -> &PoolSet {
        match side {
            Side::Eth => &self.nets[0].pools,
            Side::Etc => &self.nets[1].pools,
        }
    }

    /// Mempool depth (diagnostics).
    pub fn mempool_len(&self, side: Side) -> usize {
        match side {
            Side::Eth => self.nets[0].mempool.len(),
            Side::Etc => self.nets[1].mempool.len(),
        }
    }

    /// The produced block / included tx counters so far.
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// The engine's metrics registry: per-phase step spans plus both stores'
    /// import counters and timings.
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.telemetry
    }

    /// Demonstrates the partition at the chain-rule level: a block proposed
    /// by one network is rejected by the other's store (used by tests and
    /// the quickstart example).
    pub fn cross_import_head(&mut self, from: Side) -> Result<(), fork_chain::ChainError> {
        let (src, dst) = match from {
            Side::Eth => (0, 1),
            Side::Etc => (1, 0),
        };
        let head_hash = self.nets[src].store.head_hash();
        let block: Option<Block> = self.nets[src].store.block(head_hash).cloned();
        match block {
            Some(b) => self.nets[dst].store.import(b).map(|_| ()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CountingSink;
    use fork_primitives::units::ether;
    use fork_replay::AdoptionCurve;

    /// A small, fast config: test-scale difficulty, both networks healthy.
    fn small_config(seed: u64, hours: u64) -> MesoConfig {
        let start = SimTime::from_unix(1_469_020_839);
        let wl = |chain_id| WorkloadParams {
            tx_rate: StepSeries::constant(0.03),
            contract_fraction: StepSeries::constant(0.25),
            adoption: AdoptionCurve {
                activation_day: u64::MAX,
                halflife_days: 1.0,
                ceiling: 1.0,
            },
            chain_id,
        };
        let net = |name: &'static str, chain_id, hashrate: f64| {
            let mut spec = ChainSpec::test();
            spec.name = name;
            NetworkParams {
                spec,
                hashrate: StepSeries::constant(hashrate),
                pools: PoolSet::converged(name),
                pool_churn_per_day: 0.01,
                workload: wl(chain_id),
            }
        };
        MesoConfig {
            seed,
            start,
            end: start.plus_secs(hours * 3_600),
            genesis_difficulty: U256::from_u64(14_000), // 14s blocks at 1 kH/s
            users: 40,
            eth_user_fraction: 0.7,
            user_funding: ether(1_000),
            replay_eagerness: StepSeries::constant(0.5),
            retention: 32,
            eth: net("ETH", fork_primitives::ChainId::ETH, 1_000.0),
            etc: net("ETC", fork_primitives::ChainId::ETC, 100.0),
        }
    }

    #[test]
    fn engine_produces_blocks_at_poisson_rate() {
        let mut engine = TwoChainEngine::new(small_config(1, 4));
        let mut sink = CountingSink::default();
        let summary = engine.run(&mut sink);
        // ETH at equilibrium ~14-17s: ~850-1000 blocks in 4h.
        assert!(
            (700..1_200).contains(&summary.blocks[0]),
            "ETH blocks {}",
            summary.blocks[0]
        );
        // ETC starts 10x underpowered on the same genesis difficulty; it
        // recovers as difficulty adjusts but mines far fewer blocks.
        assert!(
            summary.blocks[1] < summary.blocks[0] / 2,
            "ETC {} vs ETH {}",
            summary.blocks[1],
            summary.blocks[0]
        );
        assert_eq!(
            sink.blocks,
            summary.blocks[0] + summary.blocks[1],
            "every canonical block reaches the sink"
        );
    }

    #[test]
    fn transactions_flow_and_replays_cross() {
        let mut engine = TwoChainEngine::new(small_config(2, 4));
        let mut sink = CountingSink::default();
        let summary = engine.run(&mut sink);
        assert!(summary.txs[0] > 100, "ETH txs {}", summary.txs[0]);
        assert!(summary.replay_pushes > 10, "{}", summary.replay_pushes);
        assert_eq!(sink.txs, summary.txs[0] + summary.txs[1]);
    }

    #[test]
    fn determinism_same_seed_same_ledgers() {
        let run = |seed| {
            let mut engine = TwoChainEngine::new(small_config(seed, 2));
            let mut sink = CountingSink::default();
            let summary = engine.run(&mut sink);
            (
                summary,
                engine.store(Side::Eth).head_hash(),
                engine.store(Side::Etc).head_hash(),
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        let c = run(8);
        assert_ne!(a.1, c.1, "different seed, different ledger");
    }

    #[test]
    fn difficulty_adjusts_toward_hashrate() {
        let mut engine = TwoChainEngine::new(small_config(3, 12));
        let mut sink = CountingSink::default();
        let summary = engine.run(&mut sink);
        // ETH: 1000 H/s. The stochastic equilibrium of the Homestead rule
        // under exponential block times is ~14.4 s (E[σ] = 0 at
        // 10/ln 2 s), so difficulty settles near 14.4k.
        let d_eth = summary.final_difficulty[0].to_f64_lossy();
        assert!(
            (10_000.0..22_000.0).contains(&d_eth),
            "ETH difficulty {d_eth}"
        );
        // ETC: 100 H/s, starting 10x over-difficult; after 12 h it is still
        // gliding down toward ~1.4k but must be well below ETH.
        let d_etc = summary.final_difficulty[1].to_f64_lossy();
        assert!(d_etc < d_eth / 2.5, "ETC {d_etc} vs ETH {d_eth}");
    }

    #[test]
    fn cross_import_rejected_between_forked_specs() {
        // Give the two networks real fork stances at block 1.
        let mut config = small_config(4, 1);
        let dao = vec![Address([0xDA; 20])];
        let refund = Address([0xFD; 20]);
        let mut eth_spec = ChainSpec::eth(dao.clone(), refund);
        eth_spec.difficulty = config.eth.spec.difficulty;
        eth_spec.pow_work_factor = 2;
        if let Some(d) = eth_spec.dao_fork.as_mut() {
            d.block = 1;
        }
        let mut etc_spec = ChainSpec::etc(dao, refund);
        etc_spec.difficulty = config.etc.spec.difficulty;
        etc_spec.pow_work_factor = 2;
        if let Some(d) = etc_spec.dao_fork.as_mut() {
            d.block = 1;
        }
        config.eth.spec = eth_spec;
        config.etc.spec = etc_spec;

        let mut engine = TwoChainEngine::new(config);
        let mut sink = CountingSink::default();
        engine.run(&mut sink);
        // Both sides mined past the fork; each other's head is invalid here.
        assert!(engine.store(Side::Eth).head_number() >= 1);
        assert!(engine.store(Side::Etc).head_number() >= 1);
        assert!(engine.cross_import_head(Side::Eth).is_err());
        assert!(engine.cross_import_head(Side::Etc).is_err());
    }

    #[test]
    fn mempool_stays_bounded() {
        let mut engine = TwoChainEngine::new(small_config(5, 6));
        let mut sink = CountingSink::default();
        engine.run(&mut sink);
        assert!(engine.mempool_len(Side::Eth) < 2_000);
        assert!(engine.mempool_len(Side::Etc) < 2_000);
    }
}
