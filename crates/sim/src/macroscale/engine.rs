//! The macro-scale lock-step engine.
//!
//! [`MacroNet`] runs 1,000+ lightweight nodes over a generated
//! [`MacroTopology`]. Unlike the micro engine's single global event heap,
//! time advances in fixed *rounds* of `round_ms`. In-flight messages wait
//! in one delivery bucket per future round, and a round costs what it
//! delivers. On the calling thread, it has two phases:
//!
//! 1. **Step** — the round takes its bucket and stable-sorts it by
//!    destination, so each destination sees its messages in the order the
//!    merge pushed them (by send round, then ascending sender, then send
//!    order). It then steps, in ascending id, only the nodes with work:
//!    the bucket's destinations and the miners whose next find falls
//!    inside the round. A stepped node consumes its messages, mines,
//!    imports, and emits outbound messages into one `StepOut` shared by
//!    the round, each send tagged with its sender. Any other node's step
//!    would be a no-op: it has no messages, draws no randomness and mines
//!    nothing.
//! 2. **Merge** — the round's output is folded in the order it was
//!    stepped: births and propagation samples are recorded, counters
//!    accumulate, and every send is pushed into the bucket of its delivery
//!    round, at least one round ahead.
//!
//! Determinism argument: all randomness flows through per-node
//! [`SimRng`] streams forked as `macro-node-{i}` (a pure function of the
//! seed), a node's step reads only its own state, its messages and
//! read-only round context, the step and merge orders are fixed, and round
//! skipping is computed from merged state only. `tests/macro_determinism.rs`
//! holds the reports and zeroed telemetry to a recorded fixture.
//!
//! Chaos integration: [`ChaosPlan`] cut changes update a `CutSet` of
//! topology edges at round boundaries, before the round steps; degradation
//! windows apply their drop chance per send from the *sender's* stream, and
//! the plan is validated against the generated topology's node count up
//! front — a typed [`MacroError`], not a panic deep in the engine. Messages
//! already in flight when an edge is cut still deliver (they left the wire
//! before the cut), mirroring the micro engine's semantics.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use fork_telemetry::{Counter, MetricsRegistry, SpanStats};
use rand::Rng;

use crate::chaos::{pair_key, ChaosPlan, ChaosPlanError, CutChange, CutSet};
use crate::invariants::NetView;
use crate::meso::ProgressEvent;
use crate::rng::SimRng;

use super::topology::{self, ClientKind, MacroTopology, TopologyError, TopologyGenConfig};

/// Whole-run configuration for [`MacroNet`].
#[derive(Debug, Clone, PartialEq)]
pub struct MacroConfig {
    /// Root seed; identical configs + seeds give byte-identical reports.
    pub seed: u64,
    /// Topology generation parameters (node count lives here).
    pub topology: TopologyGenConfig,
    /// Simulated run length, seconds.
    pub duration_secs: u64,
    /// Lock-step round quantum, milliseconds (must be > 0).
    pub round_ms: u64,
    /// Accepted and no longer read: every round steps on the calling
    /// thread. Kept only while the benchmark still sets it.
    pub n_shards: usize,
    /// Network-wide mean block interval, seconds (14 for mainnet).
    pub block_every_secs: f64,
    /// Fraction of nodes that mine (each an independent Poisson process;
    /// their sum is the network process).
    pub miner_fraction: f64,
    /// Uniform per-message jitter on top of the edge base latency, ms.
    pub jitter_ms: u64,
    /// When set, blocks mined at or after this simulated time carry their
    /// miner's fork side, and nodes reject blocks from the other side —
    /// the protocol-level partition.
    pub fork_at_secs: Option<u64>,
    /// Overall share of nodes adopting the minority (ETC) side at the
    /// fork. Per-node probability is biased by client label (arXiv
    /// 2501.16236: client implementation correlates with chain
    /// membership).
    pub etc_share: f64,
    /// The fault schedule. Crashes and byzantine behaviors are not
    /// modeled at macro scale and are rejected by [`MacroNet::new`].
    pub chaos: ChaosPlan,
}

impl Default for MacroConfig {
    fn default() -> Self {
        MacroConfig {
            seed: 0,
            topology: TopologyGenConfig::default(),
            duration_secs: 600,
            round_ms: 50,
            n_shards: 1,
            block_every_secs: 14.0,
            miner_fraction: 0.10,
            jitter_ms: 20,
            fork_at_secs: None,
            etc_share: 0.0,
            chaos: ChaosPlan::NONE,
        }
    }
}

/// Relative minority-side propensity per client label. The absolute
/// per-node probability is `etc_share` rescaled by these factors so the
/// *network-wide* expected minority share stays `etc_share` while the
/// minority skews toward the minority client, per arXiv 2501.16236.
const ETC_PROPENSITY: [(ClientKind, f64); 3] = [
    (ClientKind::Geth, 0.6),
    (ClientKind::Parity, 2.2),
    (ClientKind::Other, 1.0),
];

/// A rejected [`MacroConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum MacroError {
    /// The chaos plan failed validation against the generated topology.
    Chaos(ChaosPlanError),
    /// The topology config failed validation.
    Topology(TopologyError),
    /// The plan schedules a fault class the macro engine does not model.
    UnsupportedChaos {
        /// Which class ("crashes" or "byzantine").
        what: &'static str,
    },
    /// `round_ms` was zero.
    ZeroRound,
    /// No longer returned: [`MacroConfig::n_shards`] is accepted and not
    /// read. Kept only while the benchmark still sets the field.
    ZeroShards,
}

impl std::fmt::Display for MacroError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MacroError::Chaos(e) => write!(f, "invalid chaos plan: {e}"),
            MacroError::Topology(e) => write!(f, "invalid topology config: {e}"),
            MacroError::UnsupportedChaos { what } => {
                write!(f, "macro engine does not model {what}")
            }
            MacroError::ZeroRound => write!(f, "round_ms must be > 0"),
            MacroError::ZeroShards => write!(f, "n_shards must be > 0"),
        }
    }
}

impl std::error::Error for MacroError {}

impl From<ChaosPlanError> for MacroError {
    fn from(e: ChaosPlanError) -> Self {
        MacroError::Chaos(e)
    }
}

impl From<TopologyError> for MacroError {
    fn from(e: TopologyError) -> Self {
        MacroError::Topology(e)
    }
}

/// A lightweight block: identity, lineage, height, and fork side (0 =
/// pre-fork/shared, 1 = majority, 2 = minority).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MacroBlock {
    hash: u64,
    parent: u64,
    number: u64,
    side: u8,
    miner: u32,
}

#[derive(Debug, Clone)]
enum MacroMsg {
    Block(MacroBlock),
    /// Ask the sender for `hash` and its ancestors (orphan repair).
    Request {
        hash: u64,
    },
    /// Oldest-first ancestor segment answering a `Request`.
    Ancestors(Vec<MacroBlock>),
}

#[derive(Debug, Clone)]
struct Envelope {
    from: u32,
    msg: MacroMsg,
}

/// splitmix64 — the block-identity mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn block_hash(parent: u64, miner: u32, nonce: u64) -> u64 {
    mix64(parent ^ mix64((miner as u64) << 32 | nonce))
}

struct NodeState {
    id: u32,
    rng: SimRng,
    /// Post-fork side this node follows (1 or 2); only consulted against
    /// sided blocks, so it is inert pre-fork and when no fork is set.
    stance: u8,
    miner: bool,
    /// Absolute simulated ms of this miner's next find (`u64::MAX` for
    /// non-miners).
    next_block_ms: u64,
    nonce: u64,
    blocks: HashMap<u64, MacroBlock>,
    /// Blocks waiting for a missing parent, keyed by that parent hash.
    orphans: HashMap<u64, Vec<MacroBlock>>,
    /// Parent hashes with an in-flight ancestor request.
    requested: HashSet<u64>,
    /// Gossip dedup: hashes seen (imported, orphaned, or rejected).
    seen: HashSet<u64>,
    /// Canonical hash by height; index 0 is genesis.
    canonical: Vec<u64>,
    max_reorg: u64,
}

/// Read-only context shared by every node within one round.
struct RoundCtx<'a> {
    round: u64,
    round_ms: u64,
    end_ms: u64,
    fork_at_ms: Option<u64>,
    adjacency: &'a [Vec<u32>],
    /// Base latency of each edge, aligned with `adjacency`.
    adj_rtt: &'a [Vec<u64>],
    cut: &'a CutSet<(u32, u32)>,
    faults_drop: f64,
    jitter_ms: u64,
    block_gap_ms: f64,
}

/// One round's output, shared by every node the round steps and reused
/// across rounds.
#[derive(Default)]
struct StepOut {
    /// `(from, dest, deliver_round, msg)` in step order.
    sends: Vec<(u32, u32, u64, MacroMsg)>,
    mined: Vec<MacroBlock>,
    imports: Vec<(u64, u8)>,
    delivered: u64,
    duplicates: u64,
    rejected: u64,
    drops_cut: u64,
    drops_link: u64,
    requests: u64,
    replies: u64,
}

/// Sends `msg` over the edge to `dest`, whose base latency is `base`.
fn send(
    node: &mut NodeState,
    ctx: &RoundCtx,
    out: &mut StepOut,
    dest: u32,
    base: u64,
    msg: MacroMsg,
) {
    let key = pair_key(node.id, dest);
    if ctx.cut.is_cut(&key) {
        out.drops_cut += 1;
        return;
    }
    // The `> 0.0` guard keeps clean runs draw-for-draw identical to runs
    // without degradation code (same contract as `Link::transmit`).
    if ctx.faults_drop > 0.0 && node.rng.gen_bool(ctx.faults_drop) {
        out.drops_link += 1;
        return;
    }
    let jitter = if ctx.jitter_ms > 0 {
        node.rng.gen_range(0..=ctx.jitter_ms)
    } else {
        0
    };
    let delay = base + jitter;
    // At least one round ahead: intra-round delivery would make a node's
    // step depend on nodes stepped before it in the same round.
    let deliver = ctx.round + (delay.div_ceil(ctx.round_ms)).max(1);
    out.sends.push((node.id, dest, deliver, msg));
}

/// Sends `msg` back to `dest`, a neighbour that messaged this node.
fn reply(node: &mut NodeState, ctx: &RoundCtx, out: &mut StepOut, dest: u32, msg: MacroMsg) {
    let id = node.id as usize;
    let slot = ctx.adjacency[id]
        .binary_search(&dest)
        .expect("messages travel topology edges");
    send(node, ctx, out, dest, ctx.adj_rtt[id][slot], msg);
}

fn gossip(
    node: &mut NodeState,
    ctx: &RoundCtx,
    out: &mut StepOut,
    b: MacroBlock,
    from: Option<u32>,
) {
    let id = node.id as usize;
    for (&peer, &base) in ctx.adjacency[id].iter().zip(&ctx.adj_rtt[id]) {
        if Some(peer) == from {
            continue;
        }
        send(node, ctx, out, peer, base, MacroMsg::Block(b));
    }
}

/// Adopts `b` into the canonical chain when it is strictly longer than the
/// current head (ties keep first-seen). Returns nothing; updates
/// `max_reorg` when a branch switch reverts canonical blocks.
fn adopt(node: &mut NodeState, b: MacroBlock) {
    let head_number = node.canonical.len() as u64 - 1;
    if b.parent == *node.canonical.last().expect("genesis always present") {
        node.canonical.push(b.hash);
        return;
    }
    if b.number <= head_number {
        return;
    }
    // Walk b's ancestry (all present: imports require known parents) down
    // to the deepest block already canonical.
    let mut segment = vec![b.hash];
    let mut cur = b;
    let ancestor_number = loop {
        let parent = node.blocks[&cur.parent];
        if (parent.number as usize) < node.canonical.len()
            && node.canonical[parent.number as usize] == parent.hash
        {
            break parent.number;
        }
        segment.push(parent.hash);
        cur = parent;
    };
    let depth = head_number - ancestor_number;
    node.max_reorg = node.max_reorg.max(depth);
    node.canonical.truncate(ancestor_number as usize + 1);
    segment.reverse();
    node.canonical.extend(segment);
}

fn handle_block(
    node: &mut NodeState,
    b: MacroBlock,
    from: Option<u32>,
    ctx: &RoundCtx,
    out: &mut StepOut,
) {
    if !node.seen.insert(b.hash) {
        out.duplicates += 1;
        return;
    }
    if b.side != 0 && b.side != node.stance {
        out.rejected += 1;
        return;
    }
    node.requested.remove(&b.hash);
    if !node.blocks.contains_key(&b.parent) {
        node.orphans.entry(b.parent).or_default().push(b);
        if let Some(peer) = from {
            if node.requested.insert(b.parent) {
                out.requests += 1;
                reply(node, ctx, out, peer, MacroMsg::Request { hash: b.parent });
            }
        }
        return;
    }
    // Import b, then cascade any orphans it unblocks (oldest-first).
    let mut queue = std::collections::VecDeque::from([b]);
    while let Some(x) = queue.pop_front() {
        node.blocks.insert(x.hash, x);
        adopt(node, x);
        out.imports.push((x.hash, x.side));
        gossip(
            node,
            ctx,
            out,
            x,
            if x.hash == b.hash { from } else { None },
        );
        if let Some(waiters) = node.orphans.remove(&x.hash) {
            queue.extend(waiters);
        }
    }
}

/// Steps one node through the round: consumes `inbox` (its deliveries
/// for the round, in merge order), then mines every find due before the
/// round ends.
fn step_node(
    node: &mut NodeState,
    inbox: impl Iterator<Item = Envelope>,
    ctx: &RoundCtx,
    out: &mut StepOut,
) {
    let round_end = (ctx.round + 1) * ctx.round_ms;
    for env in inbox {
        out.delivered += 1;
        match env.msg {
            MacroMsg::Block(b) => handle_block(node, b, Some(env.from), ctx, out),
            MacroMsg::Request { hash } => {
                let mut seg = Vec::new();
                let mut h = hash;
                while let Some(&blk) = node.blocks.get(&h) {
                    seg.push(blk);
                    if blk.number == 0 || seg.len() >= 32 {
                        break;
                    }
                    h = blk.parent;
                }
                if !seg.is_empty() {
                    out.replies += 1;
                    seg.reverse();
                    reply(node, ctx, out, env.from, MacroMsg::Ancestors(seg));
                }
            }
            MacroMsg::Ancestors(list) => {
                for blk in list {
                    node.requested.remove(&blk.hash);
                    handle_block(node, blk, Some(env.from), ctx, out);
                }
            }
        }
    }
    if node.miner {
        while node.next_block_ms < round_end && node.next_block_ms < ctx.end_ms {
            let side = match ctx.fork_at_ms {
                Some(f) if node.next_block_ms >= f => node.stance,
                _ => 0,
            };
            let parent = *node.canonical.last().expect("genesis always present");
            let b = MacroBlock {
                hash: block_hash(parent, node.id, node.nonce),
                parent,
                number: node.canonical.len() as u64,
                side,
                miner: node.id,
            };
            node.nonce += 1;
            node.seen.insert(b.hash);
            node.blocks.insert(b.hash, b);
            node.canonical.push(b.hash);
            out.mined.push(b);
            gossip(node, ctx, out, b, None);
            let gap = node.rng.exp(ctx.block_gap_ms).max(1.0);
            node.next_block_ms += gap as u64;
        }
    }
}

/// Pre/post-fork propagation percentiles (delay from mining round to each
/// remote import, quantized to rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PropagationStats {
    /// Remote-import samples.
    pub samples: u64,
    /// Median delay, ms.
    pub p50_ms: u64,
    /// 90th-percentile delay, ms.
    pub p90_ms: u64,
    /// Worst delay, ms.
    pub max_ms: u64,
}

fn prop_stats(delays: &mut [u32]) -> PropagationStats {
    if delays.is_empty() {
        return PropagationStats::default();
    }
    delays.sort_unstable();
    let pick = |p: usize| delays[(delays.len() - 1) * p / 100] as u64;
    PropagationStats {
        samples: delays.len() as u64,
        p50_ms: pick(50),
        p90_ms: pick(90),
        max_ms: *delays.last().expect("non-empty") as u64,
    }
}

/// End-of-run report. Byte-identical across runs of one `(config, seed)`;
/// the determinism suite compares its `Debug` form to a recorded fixture.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroReport {
    /// Node count.
    pub n_nodes: u64,
    /// Undirected topology edges.
    pub n_edges: u64,
    /// Miner count.
    pub n_miners: u64,
    /// Rounds actually stepped (rounds with no delivery, find or chaos
    /// boundary are skipped).
    pub rounds_executed: u64,
    /// Blocks mined before the fork (or all, when no fork is set).
    pub mined_prefork: u64,
    /// Majority-side blocks mined post-fork.
    pub mined_majority: u64,
    /// Minority-side blocks mined post-fork.
    pub mined_minority: u64,
    /// Messages scheduled for delivery.
    pub messages_sent: u64,
    /// Messages processed by receivers.
    pub messages_delivered: u64,
    /// Sends suppressed by a cut (partitioned/isolated) edge.
    pub drops_cut: u64,
    /// Sends dropped by a degradation window's fault plan.
    pub drops_link: u64,
    /// Deliveries deduplicated.
    pub duplicates: u64,
    /// Sided blocks rejected by the other side.
    pub rejected_cross_side: u64,
    /// Ancestor requests issued (orphan repair).
    pub requests: u64,
    /// Ancestor segments served.
    pub ancestor_replies: u64,
    /// Block imports (remote blocks accepted into a store).
    pub imports: u64,
    /// Partitions that started.
    pub partitions_started: u64,
    /// Partitions that healed.
    pub partitions_healed: u64,
    /// Isolations that started.
    pub isolations: u64,
    /// Isolations that rejoined.
    pub rejoins: u64,
    /// Edges newly severed by chaos events.
    pub edges_cut: u64,
    /// Edges restored by heals/rejoins.
    pub edges_restored: u64,
    /// Deepest reorg any node performed.
    pub max_reorg_depth: u64,
    /// Lowest head height at the end.
    pub head_min: u64,
    /// Highest head height at the end.
    pub head_max: u64,
    /// Chain-agreement census at the end: cluster sizes, descending.
    pub partition_groups: Vec<usize>,
    /// Pre-fork propagation percentiles.
    pub pre_fork: PropagationStats,
    /// Post-fork propagation percentiles.
    pub post_fork: PropagationStats,
}

#[derive(Default)]
struct Counters {
    rounds: u64,
    sent: u64,
    delivered: u64,
    drops_cut: u64,
    drops_link: u64,
    duplicates: u64,
    rejected: u64,
    requests: u64,
    replies: u64,
    imports: u64,
    mined_prefork: u64,
    mined_majority: u64,
    mined_minority: u64,
    partitions_started: u64,
    partitions_healed: u64,
    isolations: u64,
    rejoins: u64,
    edges_cut: u64,
    edges_restored: u64,
}

/// Live step-phase spans and counters, attached via
/// [`MacroNet::attach_registry`]. None of them feed back into simulation
/// state.
struct MacroSpans {
    step: Arc<SpanStats>,
    merge: Arc<SpanStats>,
    chaos: Arc<SpanStats>,
    rounds: Arc<Counter>,
    messages: Arc<Counter>,
    /// Nodes stepped, summed over rounds (registry only: not in
    /// [`MacroNet::telemetry_snapshot`]).
    stepped: Arc<Counter>,
}

/// The macro-scale network.
pub struct MacroNet {
    topology: MacroTopology,
    /// Base latency of each edge, aligned with `topology.adjacency`.
    adj_rtt: Vec<Vec<u64>>,
    nodes: Vec<NodeState>,
    miner_ids: Vec<u32>,
    plan: ChaosPlan,
    boundaries: VecDeque<(u64, CutChange)>,
    cuts: CutSet<(u32, u32)>,
    /// In-flight messages as `(dest, envelope)`, one bucket per delivery
    /// round, each in merge order.
    deliveries: BTreeMap<u64, Vec<(u32, Envelope)>>,
    /// The round output buffer, reused across rounds.
    out: StepOut,
    births: HashMap<u64, u64>,
    pre_delays: Vec<u32>,
    post_delays: Vec<u32>,
    counters: Counters,
    fork_floor: Option<u64>,
    now_ms: u64,
    end_ms: u64,
    round_ms: u64,
    fork_at_ms: Option<u64>,
    jitter_ms: u64,
    block_gap_ms: f64,
    spans: Option<MacroSpans>,
}

impl MacroNet {
    /// Generates the topology, validates the chaos plan against its node
    /// count (the typed-error replacement for "caught deep in the
    /// engine"), and builds the node population.
    pub fn new(config: MacroConfig) -> Result<MacroNet, MacroError> {
        if config.round_ms == 0 {
            return Err(MacroError::ZeroRound);
        }
        let root = SimRng::new(config.seed);
        let topology = topology::generate(&config.topology, &root)?;
        config.chaos.validate(topology.len())?;
        if !config.chaos.crashes.is_empty() {
            return Err(MacroError::UnsupportedChaos { what: "crashes" });
        }
        if !config.chaos.byzantine.is_empty() {
            return Err(MacroError::UnsupportedChaos { what: "byzantine" });
        }

        let n = topology.len();
        let n_miners = ((n as f64 * config.miner_fraction).round() as usize).clamp(1, n);
        let miner_set: HashSet<usize> = (0..n_miners).map(|k| k * n / n_miners).collect();
        let block_gap_ms = config.block_every_secs * miner_set.len() as f64 * 1_000.0;

        // Per-client minority probability, rescaled so the network-wide
        // expectation stays `etc_share` under the *realized* client mix.
        let share = |kind: ClientKind| {
            topology.client_of.iter().filter(|&&k| k == kind).count() as f64 / n as f64
        };
        let expectation: f64 = ETC_PROPENSITY
            .iter()
            .map(|&(kind, f)| share(kind) * f)
            .sum();
        let etc_prob = |kind: ClientKind| {
            let f = ETC_PROPENSITY
                .iter()
                .find(|&&(k, _)| k == kind)
                .map(|&(_, f)| f)
                .unwrap_or(1.0);
            if expectation > 0.0 {
                (config.etc_share * f / expectation).clamp(0.0, 1.0)
            } else {
                0.0
            }
        };

        let genesis = MacroBlock {
            hash: mix64(config.seed ^ 0x0067_656E_6573_6973), // "genesis"
            parent: 0,
            number: 0,
            side: 0,
            miner: u32::MAX,
        };
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let mut rng = root.fork(&format!("macro-node-{i}"));
            let roll: f64 = rng.gen_range(0.0..1.0);
            let stance = if roll < etc_prob(topology.client_of[i]) {
                2
            } else {
                1
            };
            let miner = miner_set.contains(&i);
            let next_block_ms = if miner {
                rng.exp(block_gap_ms).max(1.0) as u64
            } else {
                u64::MAX
            };
            nodes.push(NodeState {
                id: i as u32,
                rng,
                stance,
                miner,
                next_block_ms,
                nonce: 0,
                blocks: HashMap::from([(genesis.hash, genesis)]),
                orphans: HashMap::new(),
                requested: HashSet::new(),
                seen: HashSet::from([genesis.hash]),
                canonical: vec![genesis.hash],
                max_reorg: 0,
            });
        }
        let mut miner_ids: Vec<u32> = miner_set.into_iter().map(|i| i as u32).collect();
        miner_ids.sort_unstable();

        let adj_rtt = topology
            .adjacency
            .iter()
            .enumerate()
            .map(|(a, peers)| {
                let a = a as u32;
                let rtt = |&b: &u32| topology.edge_rtt_ms[&pair_key(a, b)];
                peers.iter().map(rtt).collect()
            })
            .collect();

        let mut boundaries = config.chaos.cut_schedule();
        boundaries.sort_by_key(|&(ms, _)| ms);

        Ok(MacroNet {
            topology,
            adj_rtt,
            nodes,
            miner_ids,
            plan: config.chaos,
            boundaries: boundaries.into(),
            cuts: CutSet::default(),
            deliveries: BTreeMap::new(),
            out: StepOut::default(),
            births: HashMap::new(),
            pre_delays: Vec::new(),
            post_delays: Vec::new(),
            counters: Counters::default(),
            fork_floor: None,
            now_ms: 0,
            end_ms: config.duration_secs * 1_000,
            round_ms: config.round_ms,
            fork_at_ms: config.fork_at_secs.map(|s| s * 1_000),
            jitter_ms: config.jitter_ms,
            block_gap_ms,
            spans: None,
        })
    }

    /// Attaches live step-phase spans (`macro.step.*`) and round counters
    /// to `registry`, and publishes the `macro.topology.*` gauges. Pure
    /// observation: attaching never changes simulation results.
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        registry
            .gauge("macro.topology.nodes")
            .set(self.topology.len() as i64);
        registry
            .gauge("macro.topology.edges")
            .set(self.topology.edge_count() as i64);
        registry
            .gauge("macro.topology.clusters")
            .set(self.topology.clusters.len() as i64);
        registry
            .gauge("macro.topology.miners")
            .set(self.miner_ids.len() as i64);
        self.spans = Some(MacroSpans {
            step: registry.span("macro.step.nodes"),
            merge: registry.span("macro.step.merge"),
            chaos: registry.span("macro.step.chaos"),
            rounds: registry.counter("macro.round.rounds"),
            messages: registry.counter("macro.round.messages"),
            stepped: registry.counter("macro.round.stepped"),
        });
    }

    /// The generated topology (inspection).
    pub fn topology(&self) -> &MacroTopology {
        &self.topology
    }

    /// The chain-agreement census ([`crate::invariants::partition_census`]).
    pub fn partition_census(&self) -> Vec<usize> {
        crate::invariants::partition_census(self)
    }

    /// Applies every cut change due by `round_start_ms` to the plan's pairs
    /// that are topology edges.
    fn apply_chaos_upto(&mut self, round_start_ms: u64) {
        while let Some(&(at_ms, change)) = self.boundaries.front() {
            if at_ms > round_start_ms {
                break;
            }
            self.boundaries.pop_front();
            let c = &mut self.counters;
            *match change {
                CutChange::PartitionStarts(_) => &mut c.partitions_started,
                CutChange::PartitionHeals(_) => &mut c.partitions_healed,
                CutChange::NodeIsolated(_) => &mut c.isolations,
                CutChange::NodeRejoins(_) => &mut c.rejoins,
            } += 1;
            for (a, b) in self.plan.cut_pairs(change, self.nodes.len()) {
                let key = (a as u32, b as u32);
                if !self.topology.edge_rtt_ms.contains_key(&key) {
                    continue;
                }
                if change.lifts() {
                    c.edges_restored += u64::from(self.cuts.lift(key));
                } else {
                    c.edges_cut += u64::from(self.cuts.cut(key));
                }
            }
        }
    }

    /// The next absolute ms worth waking for: the earliest queued
    /// delivery, miner find, or chaos boundary. Computed from merged
    /// state only.
    fn next_wake(&self) -> Option<u64> {
        let mut wake: Option<u64> = None;
        let mut cand = |ms: u64| {
            wake = Some(wake.map_or(ms, |w: u64| w.min(ms)));
        };
        if let Some((&r, _)) = self.deliveries.first_key_value() {
            cand(r * self.round_ms);
        }
        for &m in &self.miner_ids {
            let t = self.nodes[m as usize].next_block_ms;
            if t < self.end_ms {
                cand(t);
            }
        }
        if let Some(&(at_ms, _)) = self.boundaries.front() {
            cand(at_ms);
        }
        wake.map(|w| w.max(self.now_ms))
    }

    /// Steps the nodes with work in `round`, then merges their output.
    fn step_round(&mut self, round: u64) {
        self.counters.rounds += 1;
        let mut bucket = match self.deliveries.first_entry() {
            Some(entry) if *entry.key() == round => entry.remove(),
            _ => Vec::new(),
        };
        // Stable: each destination keeps the order the merge pushed its
        // messages in (by send round, then ascending sender, then send order).
        bucket.sort_by_key(|&(dest, _)| dest);

        let faults_drop = self
            .plan
            .link_faults_at(round * self.round_ms)
            .map_or(0.0, |f| f.drop_chance());
        let ctx = RoundCtx {
            round,
            round_ms: self.round_ms,
            end_ms: self.end_ms,
            fork_at_ms: self.fork_at_ms,
            adjacency: &self.topology.adjacency,
            adj_rtt: &self.adj_rtt,
            cut: &self.cuts,
            faults_drop,
            jitter_ms: self.jitter_ms,
            block_gap_ms: self.block_gap_ms,
        };
        // The miners with a find due this round; every other node without
        // a delivery would step as a no-op.
        let find_by = ((round + 1) * self.round_ms).min(self.end_ms);
        let due: Vec<u32> = self
            .miner_ids
            .iter()
            .copied()
            .filter(|&m| self.nodes[m as usize].next_block_ms < find_by)
            .collect();

        let step_timer = self.spans.as_ref().map(|s| s.step.enter());
        let mut out = std::mem::take(&mut self.out);
        let mut msgs = bucket.into_iter().peekable();
        let mut miners = due.into_iter().peekable();
        let mut stepped = 0u64;
        loop {
            let id = match (msgs.peek().map(|&(dest, _)| dest), miners.peek().copied()) {
                (None, None) => break,
                (Some(dest), Some(miner)) => dest.min(miner),
                (Some(id), None) | (None, Some(id)) => id,
            };
            miners.next_if_eq(&id);
            let inbox =
                std::iter::from_fn(|| msgs.next_if(|&(dest, _)| dest == id).map(|(_, env)| env));
            step_node(&mut self.nodes[id as usize], inbox, &ctx, &mut out);
            stepped += 1;
        }
        drop(step_timer);

        let merge_timer = self.spans.as_ref().map(|s| s.merge.enter());
        let c = &mut self.counters;
        c.delivered += std::mem::take(&mut out.delivered);
        c.duplicates += std::mem::take(&mut out.duplicates);
        c.rejected += std::mem::take(&mut out.rejected);
        c.drops_cut += std::mem::take(&mut out.drops_cut);
        c.drops_link += std::mem::take(&mut out.drops_link);
        c.requests += std::mem::take(&mut out.requests);
        c.replies += std::mem::take(&mut out.replies);
        for b in out.mined.drain(..) {
            self.births.insert(b.hash, round);
            match b.side {
                0 => c.mined_prefork += 1,
                1 => c.mined_majority += 1,
                _ => c.mined_minority += 1,
            }
            if b.side != 0 {
                self.fork_floor = Some(self.fork_floor.map_or(b.number, |f| f.min(b.number)));
            }
        }
        for (hash, side) in out.imports.drain(..) {
            c.imports += 1;
            let delay = ((round - self.births[&hash]) * self.round_ms) as u32;
            if side == 0 {
                self.pre_delays.push(delay);
            } else {
                self.post_delays.push(delay);
            }
        }
        let round_messages = out.sends.len() as u64;
        c.sent += round_messages;
        for (from, dest, deliver_round, msg) in out.sends.drain(..) {
            self.deliveries
                .entry(deliver_round)
                .or_default()
                .push((dest, Envelope { from, msg }));
        }
        self.out = out;
        drop(merge_timer);
        if let Some(spans) = &self.spans {
            spans.rounds.incr();
            spans.messages.add(round_messages);
            spans.stepped.add(stepped);
        }
    }

    /// Runs to the end of the configured duration.
    pub fn run(&mut self) -> MacroReport {
        self.run_with_progress(None)
    }

    /// Runs to the end, emitting a [`ProgressEvent`] heartbeat each time a
    /// simulated *minute* completes (macro runs span minutes-to-hours, not
    /// the meso engine's days; `day` counts completed simulated minutes
    /// and `sim_unix` carries elapsed simulated seconds). Callbacks are
    /// pure observation — a run with progress attached is byte-identical
    /// to one without.
    pub fn run_with_progress(
        &mut self,
        mut progress: Option<&mut dyn FnMut(ProgressEvent)>,
    ) -> MacroReport {
        let mut last_beat_min = 0u64;
        let mut beat_wall = std::time::Instant::now();
        let mut beat_delivered = 0u64;
        while let Some(wake_ms) = self.next_wake() {
            if wake_ms >= self.end_ms {
                break;
            }
            let round = wake_ms / self.round_ms;
            let chaos_timer = self.spans.as_ref().map(|s| s.chaos.enter());
            self.apply_chaos_upto(round * self.round_ms);
            drop(chaos_timer);
            self.step_round(round);
            self.now_ms = (round + 1) * self.round_ms;
            if let Some(cb) = progress.as_deref_mut() {
                let sim_min = self.now_ms / 60_000;
                if sim_min > last_beat_min {
                    last_beat_min = sim_min;
                    let elapsed = beat_wall.elapsed().as_secs_f64();
                    let delivered = self.counters.delivered;
                    let events_per_sec = if elapsed > 0.0 {
                        (delivered - beat_delivered) as f64 / elapsed
                    } else {
                        0.0
                    };
                    beat_wall = std::time::Instant::now();
                    beat_delivered = delivered;
                    cb(ProgressEvent {
                        day: sim_min,
                        sim_unix: self.now_ms / 1_000,
                        blocks: [
                            self.counters.mined_prefork + self.counters.mined_majority,
                            self.counters.mined_minority,
                        ],
                        events_per_sec,
                    });
                }
            }
        }
        self.finalize_report()
    }

    fn finalize_report(&mut self) -> MacroReport {
        let c = &self.counters;
        let heads: Vec<u64> = (0..self.nodes.len()).map(|i| self.head_number(i)).collect();
        MacroReport {
            n_nodes: self.nodes.len() as u64,
            n_edges: self.topology.edge_count() as u64,
            n_miners: self.miner_ids.len() as u64,
            rounds_executed: c.rounds,
            mined_prefork: c.mined_prefork,
            mined_majority: c.mined_majority,
            mined_minority: c.mined_minority,
            messages_sent: c.sent,
            messages_delivered: c.delivered,
            drops_cut: c.drops_cut,
            drops_link: c.drops_link,
            duplicates: c.duplicates,
            rejected_cross_side: c.rejected,
            requests: c.requests,
            ancestor_replies: c.replies,
            imports: c.imports,
            partitions_started: c.partitions_started,
            partitions_healed: c.partitions_healed,
            isolations: c.isolations,
            rejoins: c.rejoins,
            edges_cut: c.edges_cut,
            edges_restored: c.edges_restored,
            max_reorg_depth: self.max_reorg_depth(),
            head_min: heads.iter().copied().min().unwrap_or(0),
            head_max: heads.iter().copied().max().unwrap_or(0),
            partition_groups: self.partition_census(),
            pre_fork: prop_stats(&mut self.pre_delays),
            post_fork: prop_stats(&mut self.post_delays),
        }
    }

    /// The run's counters as a telemetry snapshot (`macro.*` names).
    /// Built from the engine's own counters — exact and deterministic, like
    /// the micro engine's.
    pub fn telemetry_snapshot(&self) -> fork_telemetry::Snapshot {
        let mut snap = fork_telemetry::Snapshot::default();
        let c = &self.counters;
        for (name, v) in [
            ("macro.round.rounds", c.rounds),
            ("macro.round.messages", c.sent),
            ("macro.delivered", c.delivered),
            ("macro.duplicates", c.duplicates),
            ("macro.rejected_cross_side", c.rejected),
            ("macro.drops.cut", c.drops_cut),
            ("macro.drops.link", c.drops_link),
            ("macro.sync.requests", c.requests),
            ("macro.sync.ancestor_replies", c.replies),
            ("macro.imports", c.imports),
            ("macro.mined.prefork", c.mined_prefork),
            ("macro.mined.majority", c.mined_majority),
            ("macro.mined.minority", c.mined_minority),
            ("macro.chaos.partitions", c.partitions_started),
            ("macro.chaos.partition_heals", c.partitions_healed),
            ("macro.chaos.isolations", c.isolations),
            ("macro.chaos.rejoins", c.rejoins),
            ("macro.chaos.partition_edges_cut", c.edges_cut),
            ("macro.chaos.partition_edges_restored", c.edges_restored),
            ("macro.reorg.max_depth", self.max_reorg_depth()),
        ] {
            if v > 0 {
                snap.counters.insert(name.into(), v);
            }
        }
        for (name, delays) in [
            ("macro.propagation.pre_ms", &self.pre_delays),
            ("macro.propagation.post_ms", &self.post_delays),
        ] {
            if delays.is_empty() {
                continue;
            }
            let mut h = fork_telemetry::HistogramSnapshot::default();
            for &v in delays.iter() {
                h.record(u64::from(v));
            }
            snap.histograms.insert(name.into(), h);
        }
        snap.gauges
            .insert("macro.topology.nodes".into(), self.topology.len() as i64);
        snap.gauges.insert(
            "macro.topology.edges".into(),
            self.topology.edge_count() as i64,
        );
        snap.gauges.insert(
            "macro.topology.clusters".into(),
            self.topology.clusters.len() as i64,
        );
        snap.gauges
            .insert("macro.topology.miners".into(), self.miner_ids.len() as i64);
        snap
    }
}

impl NetView for MacroNet {
    type Hash = u64;

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn head_number(&self, i: usize) -> u64 {
        self.nodes[i].canonical.len() as u64 - 1
    }

    fn canonical_hash(&self, i: usize, number: u64) -> Option<u64> {
        self.nodes[i].canonical.get(number as usize).copied()
    }

    fn census_floor(&self) -> u64 {
        self.fork_floor.unwrap_or(0)
    }

    fn max_reorg_depth(&self) -> u64 {
        self.nodes.iter().map(|n| n.max_reorg).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlanError;

    fn small_config(seed: u64, n_shards: usize) -> MacroConfig {
        MacroConfig {
            seed,
            topology: TopologyGenConfig {
                n_nodes: 60,
                max_degree: 16,
                ..TopologyGenConfig::default()
            },
            duration_secs: 120,
            block_every_secs: 6.0,
            miner_fraction: 0.2,
            n_shards,
            ..MacroConfig::default()
        }
    }

    #[test]
    fn serial_and_sharded_agree() {
        for seed in [1u64, 2] {
            let serial = MacroNet::new(small_config(seed, 1)).unwrap().run();
            let sharded = MacroNet::new(small_config(seed, 4)).unwrap().run();
            assert_eq!(serial, sharded, "seed {seed}");
            assert!(serial.mined_prefork > 0);
            assert!(serial.messages_delivered > 0);
        }
    }

    #[test]
    fn progress_heartbeat_is_pure_observation() {
        let plain = MacroNet::new(small_config(3, 2)).unwrap().run();
        let mut beats = Vec::new();
        let mut net = MacroNet::new(small_config(3, 2)).unwrap();
        let mut cb = |ev: ProgressEvent| beats.push(ev);
        let observed = net.run_with_progress(Some(&mut cb));
        assert_eq!(plain, observed);
        assert!(!beats.is_empty(), "a 2-minute run crosses minute marks");
        assert!(beats.iter().all(|b| b.day >= 1));
    }

    #[test]
    fn unhealed_partition_splits_the_census() {
        let mut config = small_config(5, 2);
        config.chaos =
            ChaosPlan::NONE.create_partition(20_000, vec![(0..30).collect(), (30..60).collect()]);
        let report = MacroNet::new(config).unwrap().run();
        assert_eq!(report.partitions_started, 1);
        assert_eq!(report.partitions_healed, 0);
        assert!(report.edges_cut > 0);
        assert_eq!(
            report.partition_groups.len(),
            2,
            "census {:?}",
            report.partition_groups
        );
    }

    #[test]
    fn healed_partition_reconverges() {
        let mut config = small_config(6, 2);
        config.duration_secs = 180;
        config.chaos = ChaosPlan::NONE
            .create_partition(20_000, vec![(0..30).collect(), (30..60).collect()])
            .heal_partition(80_000);
        let report = MacroNet::new(config).unwrap().run();
        assert_eq!(report.partitions_healed, 1);
        assert_eq!(report.edges_cut, report.edges_restored);
        assert_eq!(
            report.partition_groups,
            vec![60],
            "census {:?}",
            report.partition_groups
        );
        assert!(report.max_reorg_depth > 0, "heal should force a reorg");
    }

    #[test]
    fn chaos_plan_checked_against_generated_topology() {
        let mut config = small_config(7, 1);
        // A plan written for a bigger topology: node 99 does not exist.
        config.chaos = ChaosPlan::NONE.create_partition(10_000, vec![vec![0, 1], vec![2, 99]]);
        let err = MacroNet::new(config).err().expect("must be rejected");
        assert_eq!(
            err,
            MacroError::Chaos(ChaosPlanError::NodeOutOfRange {
                node: 99,
                n_nodes: 60
            })
        );
    }

    #[test]
    fn unsupported_chaos_classes_are_rejected_up_front() {
        let mut config = small_config(8, 1);
        config.chaos.crashes.push(crate::chaos::CrashEvent {
            node: 0,
            at_secs: 10,
            down_secs: 5,
            recovery: crate::chaos::RecoveryMode::Intact,
        });
        assert_eq!(
            MacroNet::new(config).err().expect("must be rejected"),
            MacroError::UnsupportedChaos { what: "crashes" }
        );
    }

    #[test]
    fn fork_split_rejects_cross_side_blocks() {
        let mut config = small_config(9, 2);
        config.duration_secs = 240;
        config.fork_at_secs = Some(60);
        config.etc_share = 0.4;
        let report = MacroNet::new(config).unwrap().run();
        assert!(report.mined_majority > 0);
        assert!(report.mined_minority > 0);
        assert!(report.rejected_cross_side > 0);
        assert_eq!(report.partition_groups.len(), 2);
        assert!(report.post_fork.samples > 0);
    }

    #[test]
    fn idle_nodes_are_never_stepped() {
        let registry = MetricsRegistry::new();
        let mut net = MacroNet::new(small_config(11, 1)).unwrap();
        net.attach_registry(&registry);
        let report = net.run();
        let stepped = registry.counter("macro.round.stepped").get();
        let mined = report.mined_prefork + report.mined_majority + report.mined_minority;
        // Every stepped node consumed a delivery or mined a block.
        assert!(stepped > 0);
        assert!(
            stepped <= report.messages_delivered + mined,
            "stepped {stepped}, delivered {}, mined {mined}",
            report.messages_delivered
        );
        assert!(
            stepped < report.rounds_executed * report.n_nodes,
            "stepped {stepped} of {} rounds x {} nodes",
            report.rounds_executed,
            report.n_nodes
        );
        assert!(!net
            .telemetry_snapshot()
            .counters
            .contains_key("macro.round.stepped"));
    }

    #[test]
    fn snapshot_mirrors_report() {
        let mut net = MacroNet::new(small_config(10, 1)).unwrap();
        let report = net.run();
        let snap = net.telemetry_snapshot();
        assert_eq!(snap.counters["macro.imports"], report.imports);
        assert_eq!(snap.counters["macro.round.rounds"], report.rounds_executed);
        assert_eq!(snap.gauges["macro.topology.nodes"], 60);
    }
}
