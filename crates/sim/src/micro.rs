//! The fully networked ("micro-scale") engine.
//!
//! Every node runs its own [`ChainStore`] and gossip state; blocks propagate
//! as encoded [`Message`]s over latency/fault-injected links across a
//! Kademlia-built topology. This is where the partition is demonstrated at
//! the *message* level: after the fork block, pro- and anti-fork nodes
//! reject each other's blocks during import **and** drop each other during
//! the Status re-handshake (the fork-block-hash check), splitting the once
//! connected gossip graph into the two networks the paper measures.
//!
//! The micro engine also measures transient-fork behavior — side blocks,
//! ommer inclusion, propagation delay — feeding the gossip-latency ablation
//! bench.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use fork_chain::{
    Block, ChainError, ChainSpec, ChainStore, ChainTracer, GenesisBuilder, ImportOutcome,
};
use fork_net::{
    plan_block_relay, FaultPlan, GossipState, LatencyModel, Link, Message, NodeId, SeenFilter,
    Status, Topology, TopologyConfig, PROTOCOL_VERSION,
};
use fork_primitives::{Address, SimTime, H256, U256};
use fork_telemetry::{FlightDump, TraceEventKind, TraceSink, NO_BLOCK};

use crate::chaos::{
    pair_key, ByzantineBehavior, ChaosPlan, CutChange, CutSet, RecoveryMode, ResilienceConfig,
    SCORE_CORRUPT_FRAME, SCORE_INVALID_BLOCK, SCORE_TIMEOUT,
};
use crate::invariants::NetView;
use crate::rng::SimRng;
use rand::{Rng as _, RngCore as _};

/// How protocol rules are assigned across nodes.
#[derive(Debug, Clone)]
pub enum SpecAssignment {
    /// Every node runs the same rules (healthy network).
    Uniform(ChainSpec),
    /// The DAO-fork split: the first `eth_fraction` of nodes run `eth`
    /// rules, the rest `etc` rules.
    ForkSplit {
        /// Pro-fork rules.
        eth: ChainSpec,
        /// Anti-fork rules.
        etc: ChainSpec,
        /// Fraction of nodes (and hashpower) on the pro-fork side.
        eth_fraction: f64,
    },
}

/// Micro-engine configuration.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// Root seed.
    pub seed: u64,
    /// Number of nodes.
    pub n_nodes: usize,
    /// The first `n_miners` nodes mine, with equal hashrate shares.
    pub n_miners: usize,
    /// Total hashpower, hashes/second.
    pub total_hashrate: f64,
    /// Genesis difficulty.
    pub genesis_difficulty: U256,
    /// Genesis timestamp.
    pub start: SimTime,
    /// Wall-clock length of the run, seconds.
    pub duration_secs: u64,
    /// Link latency model.
    pub latency: LatencyModel,
    /// Link fault injection.
    pub faults: FaultPlan,
    /// Topology construction parameters.
    pub topology: TopologyConfig,
    /// Protocol-rule assignment.
    pub specs: SpecAssignment,
    /// Store retention window.
    pub retention: usize,
    /// Nodes that start offline and join later: `(node index, join time in
    /// seconds)`. On join a node snap-syncs (clones the store of a
    /// spec-compatible online peer — the fast-sync model) and begins mining
    /// and gossiping. This is the node-level form of the paper's
    /// "influx of nodes re-joined ETC over the subsequent two weeks".
    pub late_joiners: Vec<(usize, u64)>,
    /// Scripted fault schedule (crashes, degradation windows, byzantine
    /// peers). [`ChaosPlan::NONE`] schedules nothing and consumes no RNG
    /// draws: a clean run with the chaos layer compiled in is byte-identical
    /// to one without it.
    pub chaos: ChaosPlan,
    /// Sync resilience tunables (request timeouts, retries, peer scoring).
    pub resilience: ResilienceConfig,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            seed: 0,
            n_nodes: 24,
            n_miners: 8,
            total_hashrate: 1_000.0,
            genesis_difficulty: U256::from_u64(14_000),
            start: SimTime::from_unix(1_469_020_839),
            duration_secs: 3_600,
            latency: LatencyModel::default(),
            faults: FaultPlan::NONE,
            topology: TopologyConfig::default(),
            specs: SpecAssignment::Uniform(ChainSpec::test()),
            retention: 64,
            late_joiners: Vec::new(),
            chaos: ChaosPlan::NONE,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Run statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MicroReport {
    /// Blocks mined per node.
    pub mined: Vec<u64>,
    /// Total canonical head height per node at the end.
    pub head_numbers: Vec<u64>,
    /// Side-chain imports observed (transient forks).
    pub side_blocks: u64,
    /// Reorgs observed.
    pub reorgs: u64,
    /// Ommers included in canonical blocks (measured on node 0's ledger).
    pub ommers_included: u64,
    /// Frames that failed to decode (corruption casualties).
    pub corrupted_frames: u64,
    /// Mean block propagation delay in milliseconds (mined → imported,
    /// averaged over all (block, node) pairs that imported it).
    pub mean_propagation_ms: f64,
    /// Sizes of the chain-agreement groups at the end (see
    /// [`MicroNet::partition_census`]): nodes sharing a canonical block a
    /// few blocks below the lower of each pair's heads cluster together.
    /// One group = no partition.
    pub partition_groups: Vec<usize>,
    /// Messages delivered.
    pub delivered: u64,
    /// Peer links dropped by the status re-handshake after the fork.
    pub handshake_drops: u64,
    /// Late joiners that came online during the run.
    pub joined: u64,
    /// Scripted node crashes executed.
    pub crashes: u64,
    /// Scripted restarts executed.
    pub restarts: u64,
    /// Sync requests that timed out (including retried attempts).
    pub sync_timeouts: u64,
    /// Sync requests retried after a timeout.
    pub sync_retries: u64,
    /// Peer links severed by the misbehavior score.
    pub peer_bans: u64,
    /// Per-crash recovery time: restart → head caught up to the best
    /// compatible online peer's head at restart time, milliseconds.
    pub recovery_ms: Vec<u64>,
    /// Conflicting same-height twins minted by equivocating miners.
    pub equivocations: u64,
    /// Scripted partitions that began.
    pub partitions_started: u64,
    /// Scripted partitions that healed.
    pub partitions_healed: u64,
    /// Scripted single-node isolations that began.
    pub isolations: u64,
    /// Scripted isolation rejoins executed.
    pub rejoins: u64,
    /// Topology edges severed by partition/isolation cuts.
    pub partition_edges_cut: u64,
    /// Edges given back by partition heals and rejoins (pairs held apart by
    /// an active ban or a failing handshake are not counted).
    pub partition_edges_restored: u64,
    /// Deepest reorg observed anywhere: the most canonical blocks any
    /// single import rolled back. The heal-convergence invariants bound
    /// this by the partition duration.
    pub max_reorg_depth: u64,
}

struct Node {
    id: NodeId,
    store: ChainStore,
    gossip: GossipState,
    /// Bumped on every head change; stale mining events are discarded.
    epoch: u64,
    hashrate: f64,
    /// Orphan pool: parent hash → blocks waiting for it.
    orphans: HashMap<H256, Vec<Block>>,
    /// Offline nodes neither mine nor receive gossip (late joiners).
    online: bool,
    /// The chain's genesis hash (immutable; the store prunes genesis out of
    /// its window, but the Status handshake still advertises it).
    genesis_hash: H256,
    /// Hashes this node has already requested bodies for — bounds the
    /// request stream under hash-announcement spam.
    requested: SeenFilter<H256>,
}

#[derive(Debug)]
enum EventKind {
    BlockFound {
        node: usize,
        epoch: u64,
    },
    Deliver {
        from: usize,
        to: usize,
        bytes: Vec<u8>,
    },
    NodeJoins {
        node: usize,
    },
    /// Scripted crash: the node loses its volatile state and goes dark.
    NodeCrashes {
        node: usize,
    },
    /// Scripted restart after a crash.
    NodeRestarts {
        node: usize,
        recovery: RecoveryMode,
    },
    /// Periodic action of a stale-spam byzantine node.
    ByzantineTick {
        node: usize,
        period_ms: u64,
    },
    /// A sync request's timeout fired; retry or give up if still pending.
    RequestTimeout {
        req_id: u64,
    },
    /// A backed-off retry comes due; re-send if still pending.
    SyncRetry {
        req_id: u64,
    },
    /// A peer ban expired; the edge heals if the handshake still passes.
    BanExpires {
        a: usize,
        b: usize,
    },
    /// A scripted partition or isolation starts or ends.
    Cut(CutChange),
}

struct Event {
    at_ms: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at_ms == other.at_ms && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ms, self.seq).cmp(&(other.at_ms, other.seq))
    }
}

/// What a pending sync request asked for (used to match responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Headers,
    Bodies,
}

/// A tracked header/body request awaiting its response.
#[derive(Debug, Clone)]
struct PendingRequest {
    node: usize,
    peer: usize,
    msg: Message,
    attempts: u32,
    /// Sticky requests always retry the same peer — used for
    /// announce-driven fetches so the cost of a bogus announcement lands on
    /// the announcer, never on an innocent third peer.
    sticky_peer: bool,
    kind: ReqKind,
}

/// A peer's misbehavior score with linear time decay.
#[derive(Debug, Clone, Copy, Default)]
struct PeerScore {
    points: u32,
    updated_ms: u64,
}

/// The networked simulation.
pub struct MicroNet {
    nodes: Vec<Node>,
    topology: Topology,
    id_index: HashMap<NodeId, usize>,
    link: Link,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now_ms: u64,
    end_ms: u64,
    start: SimTime,
    rng: SimRng,
    report: MicroReport,
    fork_height: Option<u64>,
    /// (block hash → mined-at ms) for propagation measurements.
    mined_at: HashMap<H256, u64>,
    propagation_sum_ms: f64,
    propagation_samples: u64,
    /// Messages sent per type tag (diagnostics).
    sent_by_type: [u64; 10],
    chaos: ChaosPlan,
    resilience: ResilienceConfig,
    /// Effective request timeout: the configured one, raised to cover the
    /// link's worst-case round trip so high-latency runs don't self-inflict
    /// spurious retries.
    request_timeout_ms: u64,
    /// Chaos-only RNG stream (forked off the root seed): byzantine and
    /// crash decisions draw from here so an empty plan perturbs nothing.
    chaos_rng: SimRng,
    /// Per-node active byzantine behavior and its end time (ms).
    behaviors: Vec<Option<(ByzantineBehavior, Option<u64>)>>,
    /// In-flight sync requests by id (BTreeMap: deterministic iteration).
    pending: BTreeMap<u64, PendingRequest>,
    next_req_id: u64,
    /// (observer, peer) → misbehavior score.
    scores: HashMap<(usize, usize), PeerScore>,
    /// Active partition/isolation cuts per normalized node pair. A pair may
    /// be covered by several overlapping cuts; its edge may only come back
    /// once the last of them lifts.
    cuts: CutSet<(usize, usize)>,
    /// Pairs whose topology edge the partition layer owes back: the edge
    /// existed when the first cut landed (or its ban expired mid-cut) and
    /// is restored when the last covering cut lifts.
    cut_edges: HashSet<(usize, usize)>,
    /// Pairs severed by a still-active misbehavior ban. A partition heal
    /// must not clear an active ban, and a ban expiry must not resurrect a
    /// partitioned edge — this set plus `cuts` arbitrate.
    banned_pairs: HashSet<(usize, usize)>,
    /// Per-node crash recovery in progress: (restart time ms, target head).
    recovering: Vec<Option<(u64, u64)>>,
    /// Store retention window (bounds how far behind header-walk sync can
    /// reach before snap sync is the only recovery).
    retention: usize,
    /// Events processed so far (debug pacing; survives windowed runs).
    processed: u64,
    /// Shared lifecycle-event sink (a disabled sink by default; see
    /// [`MicroNet::attach_tracer`]). The event loop drives its clock, so
    /// traces carry simulated — deterministic — timestamps.
    tracer: Arc<TraceSink>,
}

impl MicroNet {
    /// Builds nodes, topology and the initial mining schedule.
    pub fn new(config: MicroConfig) -> Self {
        let rng = SimRng::new(config.seed);
        let ids: Vec<NodeId> = (0..config.n_nodes as u64)
            .map(|i| NodeId::from_seed("micro", i))
            .collect();
        let topology = fork_net::build_topology(&ids, config.topology, &mut rng.fork("topo"));

        let (genesis, state) = GenesisBuilder::new()
            .difficulty(config.genesis_difficulty)
            .timestamp(config.start.as_unix())
            .build();

        let spec_for = |i: usize| -> ChainSpec {
            match &config.specs {
                SpecAssignment::Uniform(s) => s.clone(),
                SpecAssignment::ForkSplit {
                    eth,
                    etc,
                    eth_fraction,
                } => {
                    if (i as f64) < config.n_nodes as f64 * eth_fraction {
                        eth.clone()
                    } else {
                        etc.clone()
                    }
                }
            }
        };
        let fork_height = match &config.specs {
            SpecAssignment::ForkSplit { eth, .. } => eth.dao_fork.as_ref().map(|d| d.block),
            SpecAssignment::Uniform(_) => None,
        };

        let per_miner = config.total_hashrate / config.n_miners.max(1) as f64;
        let offline: std::collections::HashSet<usize> =
            config.late_joiners.iter().map(|(i, _)| *i).collect();
        let nodes: Vec<Node> = (0..config.n_nodes)
            .map(|i| Node {
                id: ids[i],
                store: ChainStore::new(spec_for(i), genesis.clone(), state.clone())
                    .with_retention(config.retention),
                gossip: GossipState::new(),
                epoch: 0,
                hashrate: if i < config.n_miners { per_miner } else { 0.0 },
                orphans: HashMap::new(),
                online: !offline.contains(&i),
                genesis_hash: genesis.hash(),
                requested: SeenFilter::new(4_096),
            })
            .collect();
        let id_index = ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();

        config
            .chaos
            .validate(config.n_nodes)
            .expect("invalid chaos plan");
        let worst_rtt = 2 * (config.latency.base_ms + config.latency.jitter_ms);
        let request_timeout_ms = config.resilience.request_timeout_ms.max(2 * worst_rtt);
        let chaos_rng = rng.fork("chaos");

        let mut net = MicroNet {
            report: MicroReport {
                mined: vec![0; config.n_nodes],
                head_numbers: vec![0; config.n_nodes],
                ..MicroReport::default()
            },
            nodes,
            topology,
            id_index,
            link: Link {
                latency: config.latency,
                faults: config.faults,
            },
            queue: BinaryHeap::new(),
            seq: 0,
            now_ms: 0,
            end_ms: config.duration_secs * 1_000,
            start: config.start,
            rng,
            fork_height,
            mined_at: HashMap::new(),
            propagation_sum_ms: 0.0,
            propagation_samples: 0,
            sent_by_type: [0; 10],
            behaviors: vec![None; config.n_nodes],
            recovering: vec![None; config.n_nodes],
            retention: config.retention,
            chaos: config.chaos,
            resilience: config.resilience,
            request_timeout_ms,
            chaos_rng,
            pending: BTreeMap::new(),
            next_req_id: 0,
            scores: HashMap::new(),
            cuts: CutSet::default(),
            cut_edges: HashSet::new(),
            banned_pairs: HashSet::new(),
            processed: 0,
            tracer: Arc::new(TraceSink::disabled()),
        };
        for i in 0..net.nodes.len() {
            if net.nodes[i].hashrate > 0.0 && net.nodes[i].online {
                net.schedule_mining(i);
            }
        }
        for (node, at_secs) in &config.late_joiners {
            net.push_event(at_secs * 1_000, EventKind::NodeJoins { node: *node });
        }
        // Script the chaos plan into the event queue up front: the schedule
        // is part of the configuration, not of the stochastic run.
        let crashes = net.chaos.crashes.clone();
        for c in &crashes {
            net.push_event(c.at_secs * 1_000, EventKind::NodeCrashes { node: c.node });
            net.push_event(
                (c.at_secs + c.down_secs) * 1_000,
                EventKind::NodeRestarts {
                    node: c.node,
                    recovery: c.recovery,
                },
            );
        }
        let byzantine = net.chaos.byzantine.clone();
        for b in &byzantine {
            net.behaviors[b.node] = Some((b.behavior, b.until_secs.map(|s| s * 1_000)));
            if let ByzantineBehavior::StaleSpam { period_secs, .. } = b.behavior {
                let period_ms = period_secs * 1_000;
                net.push_event(
                    period_ms,
                    EventKind::ByzantineTick {
                        node: b.node,
                        period_ms,
                    },
                );
            }
        }
        for (at_ms, change) in net.chaos.cut_schedule() {
            net.push_event(at_ms, EventKind::Cut(change));
        }
        net
    }

    /// Brings a late joiner online: snap-sync (clone a spec-compatible
    /// online peer's store, keeping our own rules), then start mining.
    fn join_node(&mut self, i: usize) {
        if self.nodes[i].online {
            return;
        }
        self.nodes[i].online = true;
        self.report.joined += 1;
        self.snap_sync(i);
        if self.nodes[i].hashrate > 0.0 {
            self.schedule_mining(i);
        }
    }

    /// Snap sync (the fast-sync model): clone a spec-compatible online
    /// peer's store wholesale, keeping our own rules. Used by late joiners
    /// and by nodes that fell further behind than the retention window —
    /// there, block-by-block sync is impossible forever, because every peer
    /// has pruned the needed ancestors. Returns whether a bootstrap peer was
    /// found; does NOT schedule mining (callers own that, exactly once).
    fn snap_sync(&mut self, i: usize) -> bool {
        // Find a compatible online peer to bootstrap from: same basic
        // handshake fields, and its chain valid under OUR rules (its
        // fork-height block, if it has one, must satisfy our DAO stance).
        let my_id = self.nodes[i].id;
        let peers: Vec<NodeId> = self.topology.peers(&my_id).to_vec();
        let bootstrap = peers
            .iter()
            .map(|p| self.id_index[p])
            .find(|&j| self.nodes[j].online && self.handshake_compatible(i, j));
        let Some(j) = bootstrap else {
            return false;
        };
        let own_spec = self.nodes[i].store.spec().clone();
        let mut synced = self.nodes[j].store.clone();
        synced.set_spec(own_spec);
        // The clone carries the peer's tracer tag; re-attach as ourselves so
        // post-sync events are attributed to the right node.
        synced.set_tracer(ChainTracer::attached(Arc::clone(&self.tracer), i as u32));
        self.nodes[i].store = synced;
        self.nodes[i].epoch += 1;
        // Buffered orphans are retried against the new store (most land as
        // AlreadyKnown; stragglers extend it) lowest first, not in map order.
        let mut orphans: Vec<Block> = std::mem::take(&mut self.nodes[i].orphans)
            .into_values()
            .flatten()
            .collect();
        orphans.sort_by_cached_key(|b| (b.header.number, b.hash()));
        for b in orphans {
            self.process_block(i, b, None);
        }
        // A snap can complete a crash recovery.
        if let Some((t0, target)) = self.recovering[i] {
            if self.nodes[i].store.head_number() >= target {
                self.report.recovery_ms.push(self.now_ms - t0);
                self.recovering[i] = None;
            }
        }
        true
    }

    fn push_event(&mut self, at_ms: u64, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at_ms,
            seq: self.seq,
            kind,
        }));
    }

    /// Samples this node's next block-discovery time and queues it.
    fn schedule_mining(&mut self, i: usize) {
        let node = &self.nodes[i];
        if node.hashrate <= 0.0 {
            return;
        }
        let parent = node.store.head_header();
        let child_ts = (self.start.as_unix() + self.now_ms / 1_000).max(parent.timestamp + 1);
        let d = node.store.spec().difficulty.next_difficulty(
            parent.difficulty,
            parent.timestamp,
            child_ts,
            parent.number + 1,
        );
        let mean_secs = d.to_f64_lossy() / node.hashrate;
        let dt_ms = (self.rng.exp(mean_secs) * 1_000.0) as u64;
        let epoch = self.nodes[i].epoch;
        self.push_event(
            self.now_ms + dt_ms.max(1),
            EventKind::BlockFound { node: i, epoch },
        );
    }

    /// The node's current handshake status.
    fn status_of(&self, i: usize) -> Status {
        let node = &self.nodes[i];
        Status {
            protocol_version: PROTOCOL_VERSION,
            network_id: node.store.spec().network_id,
            total_difficulty: node.store.head_total_difficulty(),
            head_hash: node.store.head_hash(),
            genesis_hash: node.genesis_hash,
            fork_block_hash: self.fork_height.and_then(|h| node.store.canonical_hash(h)),
        }
    }

    /// Whether peers `i` and `j` would keep their connection through a
    /// handshake: basic `Status` fields must match, and each side's
    /// fork-height block (once it has one) must be acceptable under the
    /// *other's* DAO stance. The stance check deliberately does NOT compare
    /// fork-block hashes directly — a transient same-rules fork at the fork
    /// height is an ordinary chain race to be resolved by difficulty, not a
    /// partition; hash comparison would freeze it permanently. This mirrors
    /// the DAO challenge real clients shipped: fetch the peer's header at
    /// 1,920,000 and validate its extra-data under local rules.
    fn handshake_compatible(&self, i: usize, j: usize) -> bool {
        let (a, b) = (self.status_of(i), self.status_of(j));
        if a.protocol_version != b.protocol_version
            || a.network_id != b.network_id
            || a.genesis_hash != b.genesis_hash
        {
            return false;
        }
        let Some(fh) = self.fork_height else {
            return true;
        };
        let stance_ok = |local: usize, remote: usize| -> bool {
            match self.nodes[remote]
                .store
                .canonical_hash(fh)
                .and_then(|h| self.nodes[remote].store.block(h))
            {
                Some(blk) => self.nodes[local]
                    .store
                    .spec()
                    .dao_extra_data_ok(blk.header.number, &blk.header.extra_data),
                // Peer has not reached the fork height (or pruned past it):
                // it cannot be told apart yet.
                None => true,
            }
        };
        stance_ok(i, j) && stance_ok(j, i)
    }

    /// Drops peerships whose statuses became incompatible (run after a
    /// node's head crosses the fork height).
    fn prune_incompatible_peers(&mut self, i: usize) {
        let my_id = self.nodes[i].id;
        let peers: Vec<NodeId> = self.topology.peers(&my_id).to_vec();
        for p in peers {
            let j = self.id_index[&p];
            if !self.handshake_compatible(i, j) {
                self.sever_edge(i, j);
                self.report.handshake_drops += 1;
            }
        }
    }

    /// The byzantine behavior node `i` is currently acting out, if any.
    fn byz_active(&self, i: usize) -> Option<ByzantineBehavior> {
        match self.behaviors[i] {
            Some((b, until)) if until.is_none_or(|u| self.now_ms < u) => Some(b),
            _ => None,
        }
    }

    /// Removes the topology edge between `i` and `j` (both directions).
    /// Returns whether an edge existed.
    fn sever_edge(&mut self, i: usize, j: usize) -> bool {
        let (a, b) = (self.nodes[i].id, self.nodes[j].id);
        let mut existed = false;
        for (from, to) in [(a, b), (b, a)] {
            if let Some(adj) = self.topology.adjacency.get_mut(&from) {
                let before = adj.len();
                adj.retain(|x| *x != to);
                existed |= adj.len() != before;
            }
        }
        existed
    }

    /// Re-adds the edge between `i` and `j` (both directions, no
    /// duplicates).
    fn restore_edge(&mut self, i: usize, j: usize) {
        self.topology.connect(self.nodes[i].id, self.nodes[j].id);
    }

    /// Adds a partition/isolation cut over the pair `(a, b)` and severs its
    /// edge when this is the first covering cut. Pairs with no edge (never
    /// peers, handshake-dropped, or ban-severed) are still counted — the
    /// count is what stops a later ban expiry from resurrecting a
    /// partitioned pair.
    fn cut_pair(&mut self, (a, b): (usize, usize)) {
        if self.cuts.cut((a, b)) && self.sever_edge(a, b) {
            self.cut_edges.insert((a, b));
            self.report.partition_edges_cut += 1;
        }
    }

    /// Lifts one cut over `(a, b)`. When no cut covers the pair any more,
    /// the edge the partition layer severed comes back — unless an active
    /// ban holds the pair apart (a heal must not clear an active ban;
    /// `BanExpires` will restore it later) or the pair no longer passes the
    /// handshake (cross-fork pairs stay cut).
    fn lift_pair(&mut self, (a, b): (usize, usize)) {
        if self.cuts.lift((a, b))
            && self.cut_edges.remove(&(a, b))
            && !self.banned_pairs.contains(&(a, b))
            && self.handshake_compatible(a, b)
        {
            self.restore_edge(a, b);
            self.report.partition_edges_restored += 1;
        }
    }

    /// Applies one scripted cut change, counts it, and stamps it into the
    /// trace at the node it concerns (a partition's first member).
    fn on_cut(&mut self, change: CutChange) {
        for pair in self.chaos.cut_pairs(change, self.nodes.len()) {
            if change.lifts() {
                self.lift_pair(pair);
            } else {
                self.cut_pair(pair);
            }
        }
        // A valid plan's partition has at least two groups.
        let lead = |idx: usize| *self.chaos.partitions[idx].groups[0].first().unwrap_or(&0);
        let node = |idx: usize| self.chaos.isolations[idx].node;
        let r = &mut self.report;
        let (tally, label, witness) = match change {
            CutChange::PartitionStarts(i) => (&mut r.partitions_started, "partition", lead(i)),
            CutChange::PartitionHeals(i) => (&mut r.partitions_healed, "partition_heal", lead(i)),
            CutChange::NodeIsolated(i) => (&mut r.isolations, "isolation", node(i)),
            CutChange::NodeRejoins(i) => (&mut r.rejoins, "rejoin", node(i)),
        };
        *tally += 1;
        self.tracer.record_full(
            witness as u32,
            NO_BLOCK,
            0,
            TraceEventKind::FaultInjected,
            None,
            label,
        );
    }

    /// A misbehavior ban expired: the edge heals — permanent graph damage
    /// would outlive the fault that caused it — unless a partition now
    /// covers the pair (the edge becomes the partition's to give back at
    /// heal time) or the pair no longer passes a fresh handshake.
    fn on_ban_expires(&mut self, a: usize, b: usize) {
        let key = pair_key(a, b);
        self.banned_pairs.remove(&key);
        if self.cuts.is_cut(&key) {
            self.cut_edges.insert(key);
        } else if self.handshake_compatible(a, b) {
            self.restore_edge(a, b);
        }
    }

    /// Charges `points` of misbehavior against `peer` as observed by
    /// `observer`. Scores decay linearly with time so isolated accidents on
    /// lossy links are forgiven; crossing the budget severs the edge for
    /// `ban_secs` (with a scheduled heal that re-checks the handshake).
    fn penalize(&mut self, observer: usize, peer: usize, points: u32) {
        if observer == peer {
            return;
        }
        let entry = self.scores.entry((observer, peer)).or_default();
        let elapsed = self.now_ms.saturating_sub(entry.updated_ms);
        let decayed = (elapsed / self.resilience.decay_ms_per_point.max(1)) as u32;
        entry.points = entry.points.saturating_sub(decayed).saturating_add(points);
        entry.updated_ms = self.now_ms;
        if entry.points > self.resilience.misbehavior_budget {
            self.scores.remove(&(observer, peer));
            if self.sever_edge(observer, peer) {
                self.report.peer_bans += 1;
                self.banned_pairs.insert(pair_key(observer, peer));
                self.push_event(
                    self.now_ms + self.resilience.ban_secs * 1_000,
                    EventKind::BanExpires {
                        a: observer,
                        b: peer,
                    },
                );
            }
        }
    }

    /// Sends a tracked sync request and arms its timeout.
    fn send_request(&mut self, node: usize, peer: usize, msg: Message, sticky_peer: bool) {
        let kind = match msg {
            Message::GetBlockHeaders { .. } => ReqKind::Headers,
            _ => ReqKind::Bodies,
        };
        self.next_req_id += 1;
        let req_id = self.next_req_id;
        self.pending.insert(
            req_id,
            PendingRequest {
                node,
                peer,
                msg: msg.clone(),
                attempts: 1,
                sticky_peer,
                kind,
            },
        );
        self.send(node, peer, &msg);
        self.push_event(
            self.now_ms + self.request_timeout_ms,
            EventKind::RequestTimeout { req_id },
        );
    }

    /// Marks the oldest matching pending request as answered (called when a
    /// response arrives at `node` from `peer`).
    fn complete_request(&mut self, node: usize, peer: usize, kind: ReqKind) {
        let done = self
            .pending
            .iter()
            .find(|(_, p)| p.node == node && p.peer == peer && p.kind == kind)
            .map(|(id, _)| *id);
        if let Some(id) = done {
            self.pending.remove(&id);
        }
    }

    /// A request's timeout fired: retry with exponential backoff + jitter,
    /// or give up and charge the peer once the retry budget is spent.
    fn on_request_timeout(&mut self, req_id: u64) {
        let Some(req) = self.pending.get(&req_id).cloned() else {
            return; // answered in time
        };
        self.report.sync_timeouts += 1;
        self.penalize(req.node, req.peer, SCORE_TIMEOUT);
        if req.attempts > self.resilience.max_retries || !self.nodes[req.node].online {
            self.pending.remove(&req_id);
            return;
        }
        // Non-sticky requests rotate to a different online peer; sticky
        // ones (announce-driven fetches) keep hammering the announcer so
        // the penalty for bogus announcements stays on it.
        if !req.sticky_peer {
            let my_id = self.nodes[req.node].id;
            let candidates: Vec<usize> = self
                .topology
                .peers(&my_id)
                .iter()
                .map(|p| self.id_index[p])
                .filter(|&j| self.nodes[j].online && j != req.node)
                .collect();
            if !candidates.is_empty() {
                let pick = candidates[self.rng.gen_range(0..candidates.len())];
                if let Some(p) = self.pending.get_mut(&req_id) {
                    p.peer = pick;
                }
            }
        }
        let attempts = req.attempts;
        if let Some(p) = self.pending.get_mut(&req_id) {
            p.attempts += 1;
        }
        let backoff = self.resilience.backoff_base_ms << (attempts - 1).min(16);
        let jitter = if self.resilience.backoff_jitter_ms > 0 {
            self.rng.gen_range(0..=self.resilience.backoff_jitter_ms)
        } else {
            0
        };
        self.push_event(
            self.now_ms + backoff + jitter,
            EventKind::SyncRetry { req_id },
        );
    }

    /// A backed-off retry comes due: re-send and re-arm the timeout.
    fn on_sync_retry(&mut self, req_id: u64) {
        let Some(req) = self.pending.get(&req_id).cloned() else {
            return;
        };
        if !self.nodes[req.node].online {
            self.pending.remove(&req_id);
            return;
        }
        self.report.sync_retries += 1;
        self.send(req.node, req.peer, &req.msg);
        self.push_event(
            self.now_ms + self.request_timeout_ms,
            EventKind::RequestTimeout { req_id },
        );
    }

    /// Scripted crash: all volatile state is lost — gossip filters, orphan
    /// pool, in-flight requests — and the node goes dark. The persisted
    /// `ChainStore` survives for the restart.
    fn crash_node(&mut self, i: usize) {
        if !self.nodes[i].online {
            return;
        }
        self.nodes[i].online = false;
        self.nodes[i].epoch += 1; // discard scheduled mining
        self.nodes[i].gossip = GossipState::new();
        self.nodes[i].requested = SeenFilter::new(4_096);
        self.nodes[i].orphans.clear();
        self.recovering[i] = None;
        let dead: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.node == i)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.pending.remove(&id);
        }
        self.report.crashes += 1;
        self.tracer
            .record(i as u32, NO_BLOCK, 0, TraceEventKind::NodeCrashed);
    }

    /// Scripted restart: recover the persisted store (optionally truncating
    /// a corrupted tail), measure the gap to the best compatible online
    /// peer, and start resyncing toward it.
    fn restart_node(&mut self, i: usize, recovery: RecoveryMode) {
        if self.nodes[i].online {
            return;
        }
        self.nodes[i].online = true;
        self.nodes[i].epoch += 1;
        self.report.restarts += 1;
        self.tracer
            .record(i as u32, NO_BLOCK, 0, TraceEventKind::NodeRestarted);
        if let RecoveryMode::TruncatedTail { depth } = recovery {
            self.nodes[i].store.truncate_tail(depth);
        }
        // Resync target: the best head among online handshake-compatible
        // peers right now (the honest measure of how far behind we are).
        let my_id = self.nodes[i].id;
        let peers: Vec<usize> = self
            .topology
            .peers(&my_id)
            .iter()
            .map(|p| self.id_index[p])
            .filter(|&j| self.nodes[j].online && self.handshake_compatible(i, j))
            .collect();
        let target = peers
            .iter()
            .map(|&j| self.nodes[j].store.head_number())
            .max()
            .unwrap_or(0);
        let own_head = self.nodes[i].store.head_number();
        if target > own_head {
            self.recovering[i] = Some((self.now_ms, target));
            let peer = peers[self.rng.gen_range(0..peers.len())];
            let count = (target - own_head).min(192);
            self.send_request(
                i,
                peer,
                Message::GetBlockHeaders {
                    start: own_head + 1,
                    count,
                },
                false,
            );
        }
        if self.nodes[i].hashrate > 0.0 {
            self.schedule_mining(i);
        }
    }

    /// One round of a stale-spam byzantine node: re-gossip the (stale) head
    /// to every peer and announce a batch of nonexistent hashes.
    fn spam_tick(&mut self, i: usize, period_ms: u64) {
        let Some(behavior) = self.byz_active(i) else {
            return; // behavior expired (or node crashed out of it)
        };
        let ByzantineBehavior::StaleSpam { fake_hashes, .. } = behavior else {
            return;
        };
        if self.nodes[i].online {
            self.tracer.record_full(
                i as u32,
                NO_BLOCK,
                0,
                TraceEventKind::FaultInjected,
                None,
                behavior.label(),
            );
            let head = self.nodes[i]
                .store
                .block(self.nodes[i].store.head_hash())
                .cloned();
            let td = self.nodes[i].store.head_total_difficulty();
            let mut fakes = Vec::with_capacity(fake_hashes);
            for _ in 0..fake_hashes {
                let mut h = [0u8; 32];
                self.chaos_rng.fill_bytes(&mut h);
                fakes.push(H256(h));
            }
            let peers: Vec<usize> = self
                .topology
                .peers(&self.nodes[i].id)
                .iter()
                .map(|p| self.id_index[p])
                .collect();
            for j in peers {
                if let Some(b) = &head {
                    self.send(
                        i,
                        j,
                        &Message::NewBlock {
                            block: b.clone(),
                            total_difficulty: td,
                        },
                    );
                }
                self.send(i, j, &Message::NewBlockHashes(fakes.clone()));
            }
        }
        // Keep ticking while the behavior can still be active.
        let next = self.now_ms + period_ms;
        let still_active = match self.behaviors[i] {
            Some((_, Some(until))) => next < until,
            Some((_, None)) => true,
            None => false,
        };
        if still_active && next <= self.end_ms {
            self.push_event(next, EventKind::ByzantineTick { node: i, period_ms });
        }
    }

    /// Sends `msg` from node `i` to peer node `j` through the faulty link.
    fn send(&mut self, i: usize, j: usize, msg: &Message) {
        let tag = match msg {
            Message::Status(_) => 0,
            Message::NewBlock { .. } => 1,
            Message::NewBlockHashes(_) => 2,
            Message::Transactions(_) => 3,
            Message::GetBlockHeaders { .. } => 4,
            Message::BlockHeaders(_) => 5,
            Message::GetBlockBodies(_) => 6,
            Message::BlockBodies(_) => 7,
            Message::Ping(_) => 8,
            Message::Pong(_) => 9,
        };
        self.sent_by_type[tag] += 1;
        // Frames carry a checksum (the RLPx MAC's role): corruption kills a
        // frame instead of mutating consensus data.
        let mut frame = fork_net::seal_frame(&msg.encode());
        if matches!(self.byz_active(i), Some(ByzantineBehavior::CorruptFrames)) {
            // A corrupt-frame byzantine sender: flip one byte of everything
            // it emits (drawing only from the chaos stream).
            let idx = self.chaos_rng.gen_range(0..frame.len());
            let mask = self.chaos_rng.gen_range(1..=255u8);
            frame[idx] ^= mask;
            if self.tracer.is_active() {
                self.tracer.record_full(
                    i as u32,
                    NO_BLOCK,
                    0,
                    TraceEventKind::FaultInjected,
                    Some(j as u32),
                    ByzantineBehavior::CorruptFrames.label(),
                );
            }
        }
        // Degradation windows override the baseline fault plan for their
        // duration; an empty plan never matches and costs nothing.
        let link = match self.chaos.link_faults_at(self.now_ms) {
            Some(faults) => Link {
                latency: self.link.latency,
                faults,
            },
            None => self.link.clone(),
        };
        let plan = link.transmit(&frame, &mut self.rng);
        if self.tracer.is_active() {
            // Only full-block frames carry trace context (the trace is a
            // block-lifecycle record); announcement-driven body fetches show
            // up through their Validated/Imported events instead.
            let block_ctx = match msg {
                Message::NewBlock { block, .. } => Some((block.hash().0, block.header.number)),
                _ => None,
            };
            fork_net::trace_transmit(&self.tracer, &plan, i as u32, j as u32, block_ctx);
        }
        for delivery in plan {
            self.push_event(
                self.now_ms + delivery.delay_ms.max(1),
                EventKind::Deliver {
                    from: i,
                    to: j,
                    bytes: delivery.bytes,
                },
            );
        }
    }

    /// Gossips a block from node `i` (excluding the peer it came from).
    fn relay_block(&mut self, i: usize, block: &Block, exclude: Option<usize>) {
        let my_id = self.nodes[i].id;
        let peers = self.topology.peers(&my_id).to_vec();
        let exclude_id = exclude.map(|e| self.nodes[e].id);
        let plan = plan_block_relay(&peers, exclude_id, &mut self.rng);
        let td = self.nodes[i].store.head_total_difficulty();
        for p in plan.full_block {
            let j = self.id_index[&p];
            self.send(
                i,
                j,
                &Message::NewBlock {
                    block: block.clone(),
                    total_difficulty: td,
                },
            );
        }
        if !plan.announce.is_empty() {
            let hashes = vec![block.hash()];
            for p in plan.announce {
                let j = self.id_index[&p];
                self.send(i, j, &Message::NewBlockHashes(hashes.clone()));
            }
        }
    }

    /// Attempts to import a block at node `i`; handles orphans, epoch bumps,
    /// relaying and statistics. `from` is the delivering peer (None = mined
    /// locally).
    fn import_at(&mut self, i: usize, block: Block, from: Option<usize>) {
        let hash = block.hash();
        let fresh = self.nodes[i].gossip.blocks.insert(hash);
        if self.tracer.is_active() {
            if let Some(f) = from {
                fork_net::trace_block_seen(
                    &self.tracer,
                    i as u32,
                    Some(f as u32),
                    hash.0,
                    block.header.number,
                    fresh,
                );
            }
        }
        if !fresh {
            return; // already seen via gossip
        }
        self.process_block(i, block, from);
    }

    /// The import path proper — also used to retry buffered orphans, which
    /// are already in the seen-filter and must bypass it.
    fn process_block(&mut self, i: usize, block: Block, from: Option<usize>) {
        let hash = block.hash();
        match self.nodes[i].store.import(block.clone()) {
            Ok(result) => {
                // Propagation measurement.
                if let Some(t0) = self.mined_at.get(&hash) {
                    self.propagation_sum_ms += (self.now_ms - t0) as f64;
                    self.propagation_samples += 1;
                }
                match result.outcome {
                    ImportOutcome::Extended | ImportOutcome::Reorged { .. } => {
                        if let ImportOutcome::Reorged { reverted } = result.outcome {
                            self.report.reorgs += 1;
                            self.report.max_reorg_depth =
                                self.report.max_reorg_depth.max(reverted as u64);
                        }
                        self.nodes[i].epoch += 1;
                        if let Some(fh) = self.fork_height {
                            if block.header.number >= fh {
                                self.prune_incompatible_peers(i);
                            }
                        }
                        self.schedule_mining(i);
                        // Crash recovery completes when the head reaches the
                        // target measured at restart.
                        if let Some((t0, target)) = self.recovering[i] {
                            if self.nodes[i].store.head_number() >= target {
                                self.report.recovery_ms.push(self.now_ms - t0);
                                self.recovering[i] = None;
                            }
                        }
                    }
                    ImportOutcome::SideChain => {
                        self.report.side_blocks += 1;
                    }
                    ImportOutcome::AlreadyKnown => return,
                }
                self.relay_block(i, &block, from);
                // Any orphans waiting for this block can now be tried
                // (bypassing the seen-filter, which already holds them).
                if let Some(children) = self.nodes[i].orphans.remove(&hash) {
                    for child in children {
                        self.process_block(i, child, None);
                    }
                }
            }
            Err(ChainError::UnknownParent { parent }) => {
                // Buffer (dedup — re-fetches come through here again) and
                // ask the sender for the parent; the buffered block is
                // retried by `process_block` when it arrives. If the parent
                // is itself already orphan-buffered, a walk is in flight —
                // re-requesting would only amplify traffic.
                let number = block.header.number;
                let parent_walk_active = self.nodes[i].orphans.contains_key(&parent);
                let bucket = self.nodes[i].orphans.entry(parent).or_default();
                if !bucket.iter().any(|b| b.hash() == hash) {
                    bucket.push(block);
                }
                if let (Some(f), false) = (from, parent_walk_active) {
                    let head = self.nodes[i].store.head_number();
                    if number >= head + self.retention as u64 {
                        // The gap exceeds every peer's retained window: the
                        // needed ancestors are pruned network-wide, so no
                        // amount of header-walking can ever close it. Snap
                        // sync is the only recovery (what fast sync is for).
                        if self.snap_sync(i) {
                            self.schedule_mining(i);
                        }
                    } else if number > head + 8 {
                        // Large gap: header-first sync instead of walking
                        // one ancestor per round trip.
                        self.send_request(
                            i,
                            f,
                            Message::GetBlockHeaders {
                                start: head + 1,
                                count: number - head,
                            },
                            false,
                        );
                    } else {
                        self.send_request(i, f, Message::GetBlockBodies(vec![parent]), false);
                    }
                }
            }
            Err(_) => {
                // Invalid under this node's rules — the partition mechanism
                // (and, under chaos, the equivocation/garbage path). The
                // sender is charged for wasting our validation time.
                if let Some(f) = from {
                    self.penalize(i, f, SCORE_INVALID_BLOCK);
                }
            }
        }
    }

    fn handle_message(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        self.report.delivered += 1;
        let payload = match fork_net::open_frame(&bytes) {
            Some(p) => p,
            None => {
                self.report.corrupted_frames += 1;
                self.penalize(to, from, SCORE_CORRUPT_FRAME);
                return;
            }
        };
        let msg = match Message::decode(payload) {
            Ok(m) => m,
            Err(_) => {
                self.report.corrupted_frames += 1;
                self.penalize(to, from, SCORE_CORRUPT_FRAME);
                return;
            }
        };
        match msg {
            Message::NewBlock { block, .. } => self.import_at(to, block, Some(from)),
            Message::NewBlockHashes(hashes) => {
                // Fetch each announced hash at most once per filter window —
                // under announcement spam the request stream stays bounded
                // and the timeout/scoring path handles the fakes.
                let node = &mut self.nodes[to];
                let unknown: Vec<H256> = hashes
                    .into_iter()
                    .filter(|h| !node.store.contains(*h))
                    .filter(|h| node.requested.insert(*h))
                    .collect();
                if !unknown.is_empty() {
                    // Sticky: a bogus announcement must cost the announcer.
                    self.send_request(to, from, Message::GetBlockBodies(unknown), true);
                }
            }
            Message::GetBlockBodies(hashes) => {
                let blocks: Vec<Block> = hashes
                    .iter()
                    .filter_map(|h| self.nodes[to].store.block(*h).cloned())
                    .collect();
                if !blocks.is_empty() {
                    self.send(to, from, &Message::BlockBodies(blocks));
                }
            }
            Message::BlockBodies(blocks) => {
                self.complete_request(to, from, ReqKind::Bodies);
                for b in blocks {
                    // Requested blocks bypass the seen-filter: they are
                    // usually re-fetches of ancestors first seen (and
                    // orphan-buffered) long ago.
                    self.process_block(to, b, Some(from));
                }
            }
            Message::GetBlockHeaders { start, count } => {
                // Serve canonical headers from the retained window.
                let mut headers = Vec::new();
                for n in start..start.saturating_add(count.min(192)) {
                    match self.nodes[to]
                        .store
                        .canonical_hash(n)
                        .and_then(|h| self.nodes[to].store.block(h))
                    {
                        Some(b) => headers.push(b.header.clone()),
                        None => break,
                    }
                }
                if !headers.is_empty() {
                    self.send(to, from, &Message::BlockHeaders(headers));
                }
            }
            Message::BlockHeaders(headers) => {
                self.complete_request(to, from, ReqKind::Headers);
                // Header-first sync: request the bodies we lack.
                let unknown: Vec<H256> = headers
                    .iter()
                    .map(fork_chain::Header::hash)
                    .filter(|h| !self.nodes[to].store.contains(*h))
                    .collect();
                if !unknown.is_empty() {
                    // Sticky: the header server has the bodies by
                    // construction, so rotating peers would only misattribute
                    // a failure.
                    self.send_request(to, from, Message::GetBlockBodies(unknown), true);
                }
            }
            Message::Ping(n) => self.send(to, from, &Message::Pong(n)),
            // Status / transactions / pong: no-ops in this engine.
            _ => {}
        }
    }

    fn mine_block(&mut self, i: usize) {
        let ts = self.start.as_unix() + self.now_ms / 1_000;
        let beneficiary = Address(self.nodes[i].id.0 .0[..20].try_into().expect("20 bytes"));
        // An equivocating miner seals a second, conflicting block at the
        // same height (the twin is built first, while the store's head is
        // still the shared parent) and feeds it to half its peers.
        let twin = if matches!(self.byz_active(i), Some(ByzantineBehavior::Equivocate)) {
            Some(
                self.nodes[i]
                    .store
                    .propose(beneficiary, ts + 1, Vec::new(), &[]),
            )
        } else {
            None
        };
        let block = self.nodes[i]
            .store
            .propose(beneficiary, ts, Vec::new(), &[]);
        self.report.mined[i] += 1;
        self.report.ommers_included += block.ommers.len() as u64;
        let hash = block.hash();
        self.mined_at.insert(hash, self.now_ms);
        if self.tracer.is_active() {
            self.tracer
                .record(i as u32, hash.0, block.header.number, TraceEventKind::Mined);
        }
        self.import_at(i, block, None);
        if let Some(twin) = twin {
            self.report.equivocations += 1;
            if self.tracer.is_active() {
                self.tracer.record_full(
                    i as u32,
                    twin.hash().0,
                    twin.header.number,
                    TraceEventKind::Mined,
                    None,
                    ByzantineBehavior::Equivocate.label(),
                );
            }
            self.nodes[i].gossip.blocks.insert(twin.hash());
            let peers: Vec<usize> = self
                .topology
                .peers(&self.nodes[i].id)
                .iter()
                .map(|p| self.id_index[p])
                .collect();
            let td = self.nodes[i].store.head_total_difficulty();
            for j in peers.into_iter().skip(1).step_by(2) {
                self.send(
                    i,
                    j,
                    &Message::NewBlock {
                        block: twin.clone(),
                        total_difficulty: td,
                    },
                );
            }
        }
    }

    /// Runs the simulation to completion and returns statistics.
    pub fn run(&mut self) -> MicroReport {
        self.run_until(self.end_ms);
        self.finalize_report()
    }

    /// Advances the event loop up to simulated time `t_ms` (capped at the
    /// configured duration). The chaos harness steps a run in windows,
    /// checking invariants between them; `run_until(end)` followed by
    /// [`MicroNet::finalize_report`] is exactly [`MicroNet::run`].
    pub fn run_until(&mut self, t_ms: u64) {
        let cap = t_ms.min(self.end_ms);
        while let Some(Reverse(peeked)) = self.queue.peek() {
            if peeked.at_ms > cap {
                break;
            }
            let Some(Reverse(event)) = self.queue.pop() else {
                break;
            };
            self.processed += 1;
            if self.processed.is_multiple_of(200_000)
                && std::env::var_os("FORK_MICRO_DEBUG").is_some()
            {
                let orphans: usize = (0..self.nodes.len()).map(|i| self.orphan_count(i)).sum();
                let heads: Vec<u64> = self.nodes.iter().map(|n| n.store.head_number()).collect();
                eprintln!(
                    "micro: {} events, t={}ms, queue={}, sent={:?}, orphans={orphans}, heads={heads:?}",
                    self.processed,
                    event.at_ms,
                    self.queue.len(),
                    self.sent_by_type,
                );
            }
            self.now_ms = event.at_ms;
            self.tracer.set_now(self.now_ms);
            match event.kind {
                EventKind::BlockFound { node, epoch } => {
                    if self.nodes[node].epoch != epoch {
                        continue; // stale: head changed since scheduling
                    }
                    self.mine_block(node);
                    // `import_at` bumped the epoch and rescheduled.
                }
                EventKind::Deliver { from, to, bytes } => {
                    if self.nodes[to].online {
                        self.handle_message(from, to, bytes);
                    }
                }
                EventKind::NodeJoins { node } => {
                    self.join_node(node);
                }
                EventKind::NodeCrashes { node } => {
                    self.crash_node(node);
                }
                EventKind::NodeRestarts { node, recovery } => {
                    self.restart_node(node, recovery);
                }
                EventKind::ByzantineTick { node, period_ms } => {
                    self.spam_tick(node, period_ms);
                }
                EventKind::RequestTimeout { req_id } => {
                    self.on_request_timeout(req_id);
                }
                EventKind::SyncRetry { req_id } => {
                    self.on_sync_retry(req_id);
                }
                EventKind::BanExpires { a, b } => {
                    self.on_ban_expires(a, b);
                }
                EventKind::Cut(change) => {
                    self.on_cut(change);
                }
            }
        }
        self.now_ms = cap.max(self.now_ms);
    }

    /// Fills in the end-of-run derived statistics and returns the report.
    pub fn finalize_report(&mut self) -> MicroReport {
        for (i, node) in self.nodes.iter().enumerate() {
            self.report.head_numbers[i] = node.store.head_number();
        }
        self.report.mean_propagation_ms = if self.propagation_samples == 0 {
            0.0
        } else {
            self.propagation_sum_ms / self.propagation_samples as f64
        };
        self.report.partition_groups = self.partition_census();
        self.report.clone()
    }

    /// The chain-agreement census ([`crate::invariants::partition_census`]).
    pub fn partition_census(&self) -> Vec<usize> {
        crate::invariants::partition_census(self)
    }

    /// A node's store (inspection).
    pub fn node_store(&self, i: usize) -> &ChainStore {
        &self.nodes[i].store
    }

    /// Attaches a lifecycle-event sink: every node's store gets a
    /// [`ChainTracer`] tagged with its index, and the event loop starts
    /// driving the sink's clock. Attaching consumes no RNG draws and
    /// schedules nothing, so a traced run is event-for-event identical to an
    /// untraced one.
    pub fn attach_tracer(&mut self, sink: Arc<TraceSink>) {
        sink.set_now(self.now_ms);
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.store
                .set_tracer(ChainTracer::attached(Arc::clone(&sink), i as u32));
        }
        self.tracer = sink;
    }

    /// The attached trace sink (a disabled sink when none was attached).
    pub fn tracer(&self) -> &TraceSink {
        &self.tracer
    }

    /// The flight recorder's bounded last-N-events-per-node view with the
    /// run's telemetry snapshot attached — the post-mortem written when an
    /// invariant fails. `None` unless a recorder-carrying sink is attached.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        let mut dump = self.tracer.flight_dump()?;
        dump.snapshot = Some(self.telemetry_snapshot());
        Some(dump)
    }

    /// The run's gossip and consensus counters as a telemetry snapshot
    /// (`micro.*` names). Built from the event loop's own counters, so it is
    /// exact and deterministic.
    pub fn telemetry_snapshot(&self) -> fork_telemetry::Snapshot {
        const TAG_NAMES: [&str; 10] = [
            "status",
            "new_block",
            "new_block_hashes",
            "transactions",
            "get_block_headers",
            "block_headers",
            "get_block_bodies",
            "block_bodies",
            "ping",
            "pong",
        ];
        let mut snap = fork_telemetry::Snapshot::default();
        for (name, n) in TAG_NAMES.iter().zip(self.sent_by_type) {
            if n > 0 {
                snap.counters.insert(format!("micro.sent.{name}"), n);
            }
        }
        let r = &self.report;
        for (name, v) in [
            ("micro.sent.total", self.sent_by_type.iter().sum()),
            ("micro.delivered", r.delivered),
            ("micro.corrupted_frames", r.corrupted_frames),
            ("micro.mined", r.mined.iter().sum()),
            ("micro.side_blocks", r.side_blocks),
            ("micro.reorgs", r.reorgs),
            ("micro.handshake_drops", r.handshake_drops),
            ("micro.joined", r.joined),
            ("micro.chaos.crashes", r.crashes),
            ("micro.chaos.restarts", r.restarts),
            ("micro.chaos.equivocations", r.equivocations),
            ("micro.sync.timeouts", r.sync_timeouts),
            ("micro.sync.retries", r.sync_retries),
            ("micro.peers.banned", r.peer_bans),
            ("micro.chaos.partitions", r.partitions_started),
            ("micro.chaos.partition_heals", r.partitions_healed),
            ("micro.chaos.isolations", r.isolations),
            ("micro.chaos.rejoins", r.rejoins),
            ("micro.chaos.partition_edges_cut", r.partition_edges_cut),
            (
                "micro.chaos.partition_edges_restored",
                r.partition_edges_restored,
            ),
            ("micro.reorg.max_depth", r.max_reorg_depth),
        ] {
            if v > 0 {
                snap.counters.insert(name.into(), v);
            }
        }
        if !r.recovery_ms.is_empty() {
            let mut h = fork_telemetry::HistogramSnapshot::default();
            for &v in &r.recovery_ms {
                h.record(v);
            }
            snap.histograms.insert("micro.chaos.recovery_ms".into(), h);
        }
        snap.gauges
            .insert("micro.nodes".into(), self.nodes.len() as i64);
        snap
    }

    /// Number of orphan blocks a node is holding (diagnostics).
    pub fn orphan_count(&self, i: usize) -> usize {
        self.nodes[i].orphans.values().map(Vec::len).sum()
    }

    /// Whether node `i` is currently online.
    pub fn is_online(&self, i: usize) -> bool {
        self.nodes[i].online
    }

    /// The configured fork height, when running a fork-split assignment.
    pub fn fork_height(&self) -> Option<u64> {
        self.fork_height
    }

    /// Whether a topology edge currently links nodes `i` and `j`.
    pub fn are_connected(&self, i: usize, j: usize) -> bool {
        self.topology
            .peers(&self.nodes[i].id)
            .contains(&self.nodes[j].id)
    }

    /// Current simulated time, milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Events waiting in the queue (bounded-memory invariant input).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// In-flight tracked sync requests.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// A node's gossip dedup state (inspection).
    pub fn gossip_state(&self, i: usize) -> &GossipState {
        &self.nodes[i].gossip
    }

    /// A node's requested-hashes dedup filter (inspection).
    pub fn requested_filter(&self, i: usize) -> &SeenFilter<H256> {
        &self.nodes[i].requested
    }
}

impl NetView for MicroNet {
    type Hash = H256;

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn head_number(&self, i: usize) -> u64 {
        self.nodes[i].store.head_number()
    }

    fn canonical_hash(&self, i: usize, number: u64) -> Option<H256> {
        self.nodes[i].store.canonical_hash(number)
    }

    fn census_floor(&self) -> u64 {
        self.fork_height.unwrap_or(0)
    }

    fn max_reorg_depth(&self) -> u64 {
        self.report.max_reorg_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_network_converges_to_one_chain() {
        let mut net = MicroNet::new(MicroConfig {
            seed: 1,
            n_nodes: 16,
            n_miners: 6,
            duration_secs: 1_800,
            ..MicroConfig::default()
        });
        let report = net.run();
        let total_mined: u64 = report.mined.iter().sum();
        assert!(total_mined > 50, "{total_mined}");
        // Everyone near the same height (no partition): heads within the
        // propagation window of each other.
        let max = *report.head_numbers.iter().max().unwrap();
        let min = *report.head_numbers.iter().min().unwrap();
        assert!(max - min <= 2, "heads diverged: {min}..{max}");
        assert_eq!(
            report.partition_groups.len(),
            1,
            "{:?}",
            report.partition_groups
        );
        assert!(report.mean_propagation_ms > 0.0);

        // The same run's counters surface as a telemetry snapshot.
        let snap = net.telemetry_snapshot();
        assert_eq!(snap.counters["micro.mined"], total_mined);
        assert_eq!(snap.counters["micro.delivered"], report.delivered);
        assert!(snap.counters["micro.sent.new_block"] > 0);
        assert!(snap.counters["micro.sent.total"] > 0);
        assert_eq!(snap.gauges["micro.nodes"], 16);
    }

    #[test]
    fn fork_split_partitions_network() {
        let dao = vec![Address([0xDA; 20])];
        let refund = Address([0xFD; 20]);
        let mut eth = ChainSpec::eth(dao.clone(), refund);
        let mut etc = ChainSpec::etc(dao, refund);
        // Test scale: fork at block 1, low difficulty.
        for spec in [&mut eth, &mut etc] {
            spec.difficulty = ChainSpec::test().difficulty;
            spec.pow_work_factor = 2;
            if let Some(d) = spec.dao_fork.as_mut() {
                d.block = 1;
            }
            spec.eip150_block = None;
            spec.eip155 = None;
        }
        let mut net = MicroNet::new(MicroConfig {
            seed: 2,
            n_nodes: 20,
            // Every node mines so both cohorts have hashpower (the ETH
            // cohort holds 60% of nodes and thus 60% of the hashrate).
            n_miners: 20,
            duration_secs: 1_800,
            specs: SpecAssignment::ForkSplit {
                eth,
                etc,
                eth_fraction: 0.6,
            },
            ..MicroConfig::default()
        });
        let report = net.run();
        // Exactly two head-agreement groups: the partition.
        assert_eq!(
            report.partition_groups.len(),
            2,
            "{:?}",
            report.partition_groups
        );
        assert_eq!(report.partition_groups.iter().sum::<usize>(), 20);
        assert!(report.partition_groups[0] >= 10);
        // The handshake check severed cross-fork peerships.
        assert!(report.handshake_drops > 0);
        // Both sides kept mining.
        let eth_head = report.head_numbers[0];
        let etc_head = report.head_numbers[19];
        assert!(eth_head > 5, "{eth_head}");
        assert!(etc_head > 1, "{etc_head}");
    }

    #[test]
    fn lossy_links_still_converge() {
        let mut net = MicroNet::new(MicroConfig {
            seed: 3,
            n_nodes: 12,
            n_miners: 4,
            duration_secs: 1_200,
            faults: FaultPlan::new(0.10, 0.05, 0.10).unwrap(),
            ..MicroConfig::default()
        });
        let report = net.run();
        assert!(report.corrupted_frames > 0, "fault injection active");
        // Despite faults, the request/response recovery path keeps heads
        // close.
        let max = *report.head_numbers.iter().max().unwrap();
        let min = *report.head_numbers.iter().min().unwrap();
        let orphans: Vec<usize> = (0..12).map(|i| net.orphan_count(i)).collect();
        assert!(
            max - min <= 4,
            "heads diverged: {min}..{max}, heads {:?}, orphans {orphans:?}",
            report.head_numbers
        );
    }

    #[test]
    fn higher_latency_raises_transient_forks() {
        let run = |base_ms: u64, seed: u64| {
            let mut net = MicroNet::new(MicroConfig {
                seed,
                n_nodes: 16,
                n_miners: 8,
                duration_secs: 2_400,
                latency: LatencyModel {
                    base_ms,
                    jitter_ms: base_ms / 2,
                },
                ..MicroConfig::default()
            });
            let r = net.run();
            (r.side_blocks + r.reorgs, r.mined.iter().sum::<u64>())
        };
        // Aggregate over a few seeds to beat noise.
        let mut slow_forks = 0;
        let mut fast_forks = 0;
        for seed in 0..3 {
            let (fast, _) = run(50, seed);
            let (slow, _) = run(4_000, seed);
            fast_forks += fast;
            slow_forks += slow;
        }
        assert!(
            slow_forks > fast_forks,
            "latency should breed transient forks: fast={fast_forks} slow={slow_forks}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut net = MicroNet::new(MicroConfig {
                seed,
                n_nodes: 10,
                n_miners: 4,
                duration_secs: 600,
                ..MicroConfig::default()
            });
            let r = net.run();
            (r.mined, r.head_numbers, r.delivered)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn late_joiners_snap_sync_and_catch_up() {
        // Nodes 10 and 11 join mid-run; by the end they must be at the
        // common head, and the joining miner contributes blocks.
        let mut net = MicroNet::new(MicroConfig {
            seed: 12,
            n_nodes: 12,
            n_miners: 11, // node 10 mines after joining, node 11 never mines
            duration_secs: 1_800,
            late_joiners: vec![(10, 600), (11, 900)],
            ..MicroConfig::default()
        });
        let report = net.run();
        assert_eq!(report.joined, 2);
        let max = *report.head_numbers.iter().max().unwrap();
        assert!(
            max - report.head_numbers[10] <= 2,
            "joiner 10 behind: {} vs {max}",
            report.head_numbers[10]
        );
        assert!(
            max - report.head_numbers[11] <= 2,
            "joiner 11 behind: {} vs {max}",
            report.head_numbers[11]
        );
        assert!(report.mined[10] > 0, "joining miner never mined");
        assert_eq!(report.partition_groups.len(), 1);
    }

    #[test]
    fn rejoin_wave_lands_on_the_right_side_of_the_fork() {
        // A fork-split network where three nodes (with ETC rules) rejoin
        // days... minutes later — the node-level analogue of the paper's
        // two-week ETC rejoin influx. They must bootstrap onto the ETC
        // branch, never the ETH one.
        let dao = vec![Address([0xDA; 20])];
        let refund = Address([0xFD; 20]);
        let mut eth = ChainSpec::eth(dao.clone(), refund);
        let mut etc = ChainSpec::etc(dao, refund);
        for spec in [&mut eth, &mut etc] {
            spec.difficulty = ChainSpec::test().difficulty;
            spec.pow_work_factor = 2;
            if let Some(d) = spec.dao_fork.as_mut() {
                d.block = 1;
            }
            spec.eip150_block = None;
            spec.eip155 = None;
        }
        let mut net = MicroNet::new(MicroConfig {
            seed: 13,
            n_nodes: 20,
            n_miners: 20,
            duration_secs: 1_800,
            specs: SpecAssignment::ForkSplit {
                eth,
                etc,
                eth_fraction: 0.6, // nodes 0..11 ETH, 12..19 ETC
            },
            // Three ETC-rules nodes rejoin later.
            late_joiners: vec![(17, 400), (18, 700), (19, 1_000)],
            ..MicroConfig::default()
        });
        let report = net.run();
        assert_eq!(report.joined, 3);
        // The rejoiners ended on the same fork-height block as the ETC
        // cohort's always-online members.
        let etc_anchor = net.node_store(12).canonical_hash(1);
        assert!(etc_anchor.is_some());
        for i in [17usize, 18, 19] {
            assert_eq!(
                net.node_store(i).canonical_hash(1),
                etc_anchor,
                "rejoiner {i} on the wrong branch"
            );
        }
        let eth_anchor = net.node_store(0).canonical_hash(1);
        assert_ne!(etc_anchor, eth_anchor);
    }

    #[test]
    fn crashed_nodes_restart_and_catch_up() {
        use crate::chaos::{ChaosPlan, CrashEvent, RecoveryMode};
        let mut net = MicroNet::new(MicroConfig {
            seed: 20,
            n_nodes: 10,
            n_miners: 4,
            duration_secs: 1_800,
            chaos: ChaosPlan {
                crashes: vec![
                    CrashEvent {
                        node: 1,
                        at_secs: 300,
                        down_secs: 120,
                        recovery: RecoveryMode::Intact,
                    },
                    CrashEvent {
                        node: 2,
                        at_secs: 400,
                        down_secs: 120,
                        recovery: RecoveryMode::TruncatedTail { depth: 3 },
                    },
                ],
                ..ChaosPlan::NONE
            },
            ..MicroConfig::default()
        });
        let report = net.run();
        assert_eq!(report.crashes, 2);
        assert_eq!(report.restarts, 2);
        // Both restarts were behind (≈8 blocks of downtime each, plus the
        // truncated tail) and measurably recovered.
        assert_eq!(report.recovery_ms.len(), 2, "{:?}", report.recovery_ms);
        assert!(report.recovery_ms.iter().all(|&ms| ms > 0));
        // By the end, the whole network is back on one chain.
        let max = *report.head_numbers.iter().max().unwrap();
        let min = *report.head_numbers.iter().min().unwrap();
        assert!(max - min <= 2, "heads diverged: {:?}", report.head_numbers);
        assert_eq!(report.partition_groups.len(), 1);
        // Counters surface in telemetry.
        let snap = net.telemetry_snapshot();
        assert_eq!(snap.counters["micro.chaos.crashes"], 2);
        assert_eq!(snap.counters["micro.chaos.restarts"], 2);
        assert_eq!(snap.histograms["micro.chaos.recovery_ms"].count, 2);
    }

    #[test]
    fn corrupt_frame_byzantine_is_banned_then_rejoins() {
        use crate::chaos::{ByzantineBehavior, ByzantineNode, ChaosPlan};
        let mut net = MicroNet::new(MicroConfig {
            seed: 21,
            n_nodes: 10,
            n_miners: 4,
            duration_secs: 2_400,
            chaos: ChaosPlan {
                byzantine: vec![ByzantineNode {
                    node: 1,
                    behavior: ByzantineBehavior::CorruptFrames,
                    until_secs: Some(600),
                }],
                ..ChaosPlan::NONE
            },
            ..MicroConfig::default()
        });
        let report = net.run();
        assert!(report.corrupted_frames > 0, "byzantine sender was active");
        assert!(
            report.peer_bans > 0,
            "persistent corruption must trip the misbehavior score"
        );
        // After turning honest at t=600s, bans expire and the node rejoins:
        // it finishes on the common chain.
        let max = *report.head_numbers.iter().max().unwrap();
        assert!(
            max - report.head_numbers[1] <= 2,
            "reformed node still behind: {} vs {max}",
            report.head_numbers[1]
        );
        assert_eq!(report.partition_groups.len(), 1);
    }

    #[test]
    fn stale_spam_is_bounded_and_costs_the_spammer() {
        use crate::chaos::{ByzantineBehavior, ByzantineNode, ChaosPlan};
        let mut net = MicroNet::new(MicroConfig {
            seed: 22,
            n_nodes: 10,
            n_miners: 4,
            duration_secs: 2_400,
            chaos: ChaosPlan {
                byzantine: vec![ByzantineNode {
                    node: 1,
                    behavior: ByzantineBehavior::StaleSpam {
                        period_secs: 15,
                        fake_hashes: 3,
                    },
                    until_secs: Some(900),
                }],
                ..ChaosPlan::NONE
            },
            ..MicroConfig::default()
        });
        let report = net.run();
        // Fake announcements are fetched, time out, and get retried a
        // bounded number of times; the spammer pays in score.
        assert!(report.sync_timeouts > 0, "fake hashes must time out");
        assert!(report.peer_bans > 0, "the spammer must get banned");
        // The per-node requested filter (not the spam) bounds request
        // amplification.
        for i in 0..net.node_count() {
            let f = net.requested_filter(i);
            assert!(f.len() <= 2 * f.capacity());
        }
        // Honest nodes were never disturbed off the common chain.
        let max = *report.head_numbers.iter().max().unwrap();
        let min = *report.head_numbers.iter().min().unwrap();
        assert!(max - min <= 2, "heads diverged: {:?}", report.head_numbers);
    }

    #[test]
    fn equivocating_miner_is_counted_and_survivable() {
        use crate::chaos::{ByzantineBehavior, ByzantineNode, ChaosPlan};
        let mut net = MicroNet::new(MicroConfig {
            seed: 23,
            n_nodes: 10,
            n_miners: 10, // the byzantine node must mine to equivocate
            duration_secs: 2_400,
            chaos: ChaosPlan {
                byzantine: vec![ByzantineNode {
                    node: 1,
                    behavior: ByzantineBehavior::Equivocate,
                    until_secs: Some(1_200),
                }],
                ..ChaosPlan::NONE
            },
            ..MicroConfig::default()
        });
        let report = net.run();
        assert!(report.equivocations > 0, "equivocating miner found blocks");
        // Twins breed transient forks, but total difficulty resolves them.
        let max = *report.head_numbers.iter().max().unwrap();
        let min = *report.head_numbers.iter().min().unwrap();
        assert!(max - min <= 2, "heads diverged: {:?}", report.head_numbers);
        assert_eq!(report.partition_groups.len(), 1);
    }

    #[test]
    fn degradation_window_exercises_the_retry_path() {
        use crate::chaos::{ChaosPlan, DegradationWindow};
        let mut net = MicroNet::new(MicroConfig {
            seed: 24,
            n_nodes: 10,
            n_miners: 4,
            duration_secs: 2_400,
            chaos: ChaosPlan {
                degradations: vec![DegradationWindow {
                    from_secs: 300,
                    until_secs: 900,
                    faults: FaultPlan::new(0.25, 0.0, 0.0).unwrap(),
                }],
                ..ChaosPlan::NONE
            },
            ..MicroConfig::default()
        });
        let report = net.run();
        assert!(
            report.sync_timeouts > 0,
            "a 25% drop storm must produce request timeouts"
        );
        assert!(report.sync_retries > 0, "timeouts must be retried");
        // Once the window closes, retry/backoff heals the gaps.
        let max = *report.head_numbers.iter().max().unwrap();
        let min = *report.head_numbers.iter().min().unwrap();
        assert!(max - min <= 2, "heads diverged: {:?}", report.head_numbers);
        assert_eq!(report.partition_groups.len(), 1);
    }

    #[test]
    fn inert_chaos_plan_changes_nothing() {
        use crate::chaos::{
            ByzantineBehavior, ByzantineNode, ChaosPlan, CrashEvent, DegradationWindow,
            RecoveryMode,
        };
        let base = MicroConfig {
            seed: 25,
            n_nodes: 10,
            n_miners: 4,
            duration_secs: 900,
            ..MicroConfig::default()
        };
        let mut clean = MicroNet::new(base.clone());
        let clean_report = clean.run();
        // A plan whose every entry lies beyond the run (or is already
        // expired) must not perturb a single event or RNG draw — including
        // partitions and isolations.
        let mut inert = MicroNet::new(MicroConfig {
            chaos: ChaosPlan {
                crashes: vec![CrashEvent {
                    node: 1,
                    at_secs: 100_000,
                    down_secs: 60,
                    recovery: RecoveryMode::Intact,
                }],
                degradations: vec![DegradationWindow {
                    from_secs: 100_000,
                    until_secs: 200_000,
                    faults: FaultPlan::stress(),
                }],
                byzantine: vec![ByzantineNode {
                    node: 2,
                    behavior: ByzantineBehavior::Equivocate,
                    until_secs: Some(0), // expired before the run starts
                }],
                ..ChaosPlan::NONE
            }
            .create_partition(100_000_000, vec![vec![0, 1], vec![2, 3]])
            .heal_partition(200_000_000)
            .isolate_node(3, 150_000_000),
            ..base
        });
        let inert_report = inert.run();
        assert_eq!(clean_report, inert_report);
        assert_eq!(
            clean
                .telemetry_snapshot()
                .to_json(fork_telemetry::TimingMode::Zeroed),
            inert
                .telemetry_snapshot()
                .to_json(fork_telemetry::TimingMode::Zeroed),
        );
    }

    #[test]
    fn partition_severs_heals_and_reconverges() {
        use crate::chaos::ChaosPlan;
        let left: Vec<usize> = (0..5).collect();
        let right: Vec<usize> = (5..10).collect();
        let mut net = MicroNet::new(MicroConfig {
            seed: 26,
            n_nodes: 10,
            n_miners: 10, // both sides keep mining while split
            duration_secs: 1_800,
            chaos: ChaosPlan::NONE
                .create_partition(300_000, vec![left.clone(), right.clone()])
                .heal_partition(600_000),
            ..MicroConfig::default()
        });
        // Mid-partition: no cross-group edge exists.
        net.run_until(400_000);
        for &a in &left {
            for &b in &right {
                assert!(!net.are_connected(a, b), "edge {a}-{b} survived the cut");
            }
        }
        let report = net.run();
        assert_eq!(report.partitions_started, 1);
        assert_eq!(report.partitions_healed, 1);
        assert!(report.partition_edges_cut > 0, "the split severed edges");
        assert!(
            report.partition_edges_restored > 0,
            "the heal restored edges"
        );
        // After the heal, difficulty resolves the divergence: one census
        // group, one deep reorg on the losing side.
        assert_eq!(
            report.partition_groups.len(),
            1,
            "{:?}",
            report.partition_groups
        );
        assert!(report.reorgs > 0);
        assert!(report.max_reorg_depth > 0);
        let snap = net.telemetry_snapshot();
        assert_eq!(snap.counters["micro.chaos.partitions"], 1);
        assert_eq!(snap.counters["micro.chaos.partition_heals"], 1);
        assert!(snap.counters["micro.reorg.max_depth"] > 0);
    }

    #[test]
    fn isolated_node_drops_out_and_rejoins() {
        use crate::chaos::ChaosPlan;
        let mut net = MicroNet::new(MicroConfig {
            seed: 27,
            n_nodes: 10,
            n_miners: 4,
            duration_secs: 1_800,
            chaos: ChaosPlan::NONE.isolate_node(2, 300_000).rejoin(2, 600_000),
            ..MicroConfig::default()
        });
        net.run_until(400_000);
        for j in 0..10 {
            if j != 2 {
                assert!(!net.are_connected(2, j), "edge 2-{j} survived isolation");
            }
        }
        let report = net.run();
        assert_eq!(report.isolations, 1);
        assert_eq!(report.rejoins, 1);
        assert!(report.partition_edges_cut > 0);
        assert!(report.partition_edges_restored > 0);
        // Back on the common chain by the end.
        let max = *report.head_numbers.iter().max().unwrap();
        assert!(
            max - report.head_numbers[2] <= 2,
            "rejoined node behind: {} vs {max}",
            report.head_numbers[2]
        );
        assert_eq!(report.partition_groups.len(), 1);
    }

    #[test]
    fn ban_and_partition_edge_state_compose() {
        // Drives the edge-state machine directly (no event loop): a heal
        // must not clear an active ban, and a ban expiry must not
        // resurrect a partitioned edge.
        let mut net = MicroNet::new(MicroConfig {
            seed: 28,
            n_nodes: 6,
            n_miners: 0,
            duration_secs: 10,
            ..MicroConfig::default()
        });
        let mut connected = Vec::new();
        for a in 0..6 {
            for b in a + 1..6 {
                if net.are_connected(a, b) {
                    connected.push((a, b));
                }
            }
        }
        let (a, b) = connected[0];
        let (c, d) = *connected
            .iter()
            .find(|(x, y)| ![a, b].contains(x) && ![a, b].contains(y))
            .expect("a second, disjoint connected pair");

        // Case 1: ban first, partition second, heal during the ban. The
        // heal must not restore; the later expiry must.
        net.penalize(a, b, 1_000);
        assert!(!net.are_connected(a, b), "ban severs");
        let key = pair_key(a, b);
        net.cut_pair(key);
        net.lift_pair(key);
        assert!(
            !net.are_connected(a, b),
            "heal must not clear an active ban"
        );
        net.on_ban_expires(a, b);
        assert!(net.are_connected(a, b), "expiry after heal restores");

        // Case 2: ban expires while the pair is still partitioned — the
        // edge stays severed until the heal gives it back.
        net.penalize(a, b, 1_000);
        net.cut_pair(key);
        net.on_ban_expires(a, b);
        assert!(
            !net.are_connected(a, b),
            "expiry must not resurrect a partitioned edge"
        );
        net.lift_pair(key);
        assert!(net.are_connected(a, b), "the heal owes the edge back");

        // Case 3: partition first — a ban then has nothing to sever, and
        // the heal still restores the edge.
        let key_cd = pair_key(c, d);
        net.cut_pair(key_cd);
        assert!(!net.are_connected(c, d));
        let bans_before = net.report.peer_bans;
        net.penalize(c, d, 1_000);
        assert_eq!(net.report.peer_bans, bans_before, "no edge, no ban");
        net.on_ban_expires(c, d);
        assert!(!net.are_connected(c, d), "stray expiry resurrects nothing");
        net.lift_pair(key_cd);
        assert!(net.are_connected(c, d));
    }

    #[test]
    fn overlapping_cuts_compose() {
        use crate::chaos::ChaosPlan;
        // An isolation inside a partition window: the shared pairs stay cut
        // until BOTH lift. Node 0 is in the left group and also isolated
        // for a window straddling the partition heal.
        let mut net = MicroNet::new(MicroConfig {
            seed: 29,
            n_nodes: 8,
            n_miners: 4,
            duration_secs: 1_800,
            chaos: ChaosPlan::NONE
                .create_partition(300_000, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]])
                .heal_partition(600_000)
                .isolate_node(0, 500_000)
                .rejoin(0, 900_000),
            ..MicroConfig::default()
        });
        // After the partition heal, node 0 is still isolated...
        net.run_until(700_000);
        for j in 1..8 {
            assert!(!net.are_connected(0, j), "edge 0-{j} during isolation");
        }
        // ...while the other cross-group pairs healed.
        let report = net.run();
        assert_eq!(report.partitions_started, 1);
        assert_eq!(report.partitions_healed, 1);
        assert_eq!(report.isolations, 1);
        assert_eq!(report.rejoins, 1);
        assert_eq!(
            report.partition_groups.len(),
            1,
            "{:?}",
            report.partition_groups
        );
    }

    #[test]
    fn chaos_runs_repeat_exactly() {
        // Crash recovery snap-syncs and replays the orphan pool. Every map
        // gets its own hash seed, so an unsorted replay made the same
        // configuration land on different propagation means.
        let config = crate::scenario::chaos_scenario(2).config;
        let first = MicroNet::new(config.clone()).run();
        for _ in 0..3 {
            assert_eq!(MicroNet::new(config.clone()).run(), first);
        }
        // Partitions, heals and never-healed splits walk other maps; each
        // atlas plan runs twice in this process and must agree.
        let mut atlas = crate::scenario::atlas_presets(2);
        atlas.push(crate::scenario::atlas_never_healed(2));
        for preset in atlas {
            let first = MicroNet::new(preset.config.clone()).run();
            let second = MicroNet::new(preset.config).run();
            assert_eq!(first, second, "{} repeats differently", preset.name);
        }
    }

    #[test]
    fn windowed_stepping_matches_one_shot_run() {
        // The chaos harness steps the net window by window to interleave
        // invariant checks; that must not change the simulation.
        let scenario = crate::scenario::chaos_scenario(6);
        let mut one_shot = MicroNet::new(scenario.config.clone());
        let one_report = one_shot.run();

        let mut stepped = MicroNet::new(scenario.config.clone());
        let end_ms = scenario.config.duration_secs * 1_000;
        let mut t = 0;
        while t < end_ms {
            t += 60_000;
            stepped.run_until(t.min(end_ms));
        }
        let stepped_report = stepped.finalize_report();
        assert_eq!(one_report, stepped_report);
        assert_eq!(
            one_shot
                .telemetry_snapshot()
                .to_json(fork_telemetry::TimingMode::Zeroed),
            stepped
                .telemetry_snapshot()
                .to_json(fork_telemetry::TimingMode::Zeroed),
        );
    }
}
