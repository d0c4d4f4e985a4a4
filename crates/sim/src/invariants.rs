//! Safety invariants for chaos runs.
//!
//! A chaos run is only meaningful if the system it stresses stays *sound*
//! while it degrades: a crashed node may fall behind, a banned peer may slow
//! sync, but no store may ever hold an inconsistent canonical chain, accept a
//! block its own rules forbid, or grow without bound. [`check_invariants`]
//! encodes those conditions over a [`MicroNet`]; the chaos harness calls it
//! after every step window so a violation is caught near the event that
//! caused it rather than at the end of a multi-hour simulated run.
//!
//! The checks are read-only and deterministic: they inspect store contents,
//! gossip dedup filters, and event-queue sizes through the micro engine's
//! public accessors and never perturb the run.
//!
//! [`partition_census`], [`check_heal_convergence`] and
//! [`check_reorg_depth`] serve both engines through [`NetView`].

use std::fmt;

use fork_primitives::H256;

use crate::micro::MicroNet;

/// Upper bound on buffered orphan blocks per node. Orphans are bounded in
/// practice by the seen-filter capacity feeding them (4,096); this is a
/// generous multiple so the check only fires on real leaks.
pub const ORPHAN_BOUND: usize = 8_192;

/// Upper bound on blocks retained per store (canonical window plus side
/// blocks at retained heights). The micro engine's default retention is 64;
/// a store holding thousands of entries is leaking finalized blocks.
pub const RETAINED_BLOCKS_BOUND: usize = 4_096;

/// Upper bound on the discrete-event queue. Scales with in-flight messages;
/// a queue past this size means events are being scheduled faster than they
/// drain (e.g. a retry loop re-arming itself unconditionally).
pub const EVENT_QUEUE_BOUND: usize = 2_000_000;

/// Upper bound on tracked in-flight sync requests. Each live request should
/// resolve (response, timeout, or give-up) before long; an ever-growing
/// pending map means timeouts are not firing.
pub const PENDING_REQUESTS_BOUND: usize = 10_000;

/// A broken safety condition, with enough context to locate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Canonical block at `number` does not link to the canonical block at
    /// `number - 1` by parent hash.
    BrokenParentLink {
        /// Node whose store is inconsistent.
        node: usize,
        /// Height of the block with the dangling parent.
        number: u64,
    },
    /// Canonical hash at `number` has no stored block body.
    MissingCanonicalBlock {
        /// Node whose store is inconsistent.
        node: usize,
        /// Height missing its block.
        number: u64,
    },
    /// Stored block's header number disagrees with its canonical height.
    NumberMismatch {
        /// Node whose store is inconsistent.
        node: usize,
        /// Canonical height inspected.
        number: u64,
        /// Number the header claims.
        header_number: u64,
    },
    /// Total difficulty failed to strictly increase along the canonical
    /// chain (fork choice would be meaningless).
    NonIncreasingTotalDifficulty {
        /// Node whose store is inconsistent.
        node: usize,
        /// Height at which TD did not increase over its parent.
        number: u64,
    },
    /// A canonical block violates the node's *own* DAO-marker rule — the
    /// store accepted a block from the other side of the partition.
    CrossSpecAcceptance {
        /// Node holding the foreign block.
        node: usize,
        /// Height of the offending block.
        number: u64,
    },
    /// A gossip/request dedup filter exceeded its two-generation bound.
    SeenFilterOverCapacity {
        /// Node owning the filter.
        node: usize,
        /// Which filter: `"blocks"`, `"transactions"`, or `"requested"`.
        filter: &'static str,
        /// Observed length.
        len: usize,
        /// Maximum allowed (2 × capacity).
        bound: usize,
    },
    /// A node's orphan buffer grew past [`ORPHAN_BOUND`].
    OrphanBufferOverflow {
        /// Node owning the buffer.
        node: usize,
        /// Observed orphan count.
        count: usize,
    },
    /// A store retained more blocks than [`RETAINED_BLOCKS_BOUND`].
    RetainedBlocksOverflow {
        /// Node owning the store.
        node: usize,
        /// Observed retained-block count.
        count: usize,
    },
    /// The event queue grew past [`EVENT_QUEUE_BOUND`].
    EventQueueOverflow {
        /// Observed queue length.
        len: usize,
    },
    /// The in-flight request map grew past [`PENDING_REQUESTS_BOUND`].
    PendingRequestsOverflow {
        /// Observed pending-request count.
        len: usize,
    },
    /// Two nodes that should share a partition side disagree about the
    /// canonical block at a height both retain (reported by
    /// [`check_side_agreement`], not by [`check_invariants`]).
    SideDisagreement {
        /// First node.
        a: usize,
        /// Second node.
        b: usize,
        /// Height at which their canonical hashes differ.
        number: u64,
    },
    /// Head heights within one partition side spread wider than the allowed
    /// tolerance (reported by [`check_side_agreement`]).
    SideHeadSpread {
        /// Node with the lowest head.
        lo_node: usize,
        /// Its head height.
        lo_head: u64,
        /// Node with the highest head.
        hi_node: usize,
        /// Its head height.
        hi_head: u64,
        /// Maximum allowed spread.
        tolerance: u64,
    },
    /// After a partition heal (plus grace) the pairwise census did not
    /// collapse to the expected per-spec agreement groups (reported by
    /// [`check_heal_convergence`]).
    HealConvergenceFailed {
        /// Observed census group sizes, descending.
        groups: Vec<usize>,
        /// Expected number of groups (one per spec in the run).
        expected: usize,
    },
    /// A reorg rolled back more canonical blocks than the partition that
    /// caused it can justify (reported by [`check_reorg_depth`]).
    ReorgDepthExceeded {
        /// Deepest observed reorg, blocks.
        depth: u64,
        /// Maximum depth the partition duration justifies.
        bound: u64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use InvariantViolation::*;
        match self {
            BrokenParentLink { node, number } => {
                write!(f, "node {node}: canonical block {number} does not link to canonical parent")
            }
            MissingCanonicalBlock { node, number } => {
                write!(f, "node {node}: canonical hash at height {number} has no stored block")
            }
            NumberMismatch { node, number, header_number } => write!(
                f,
                "node {node}: canonical height {number} holds a header claiming number {header_number}"
            ),
            NonIncreasingTotalDifficulty { node, number } => write!(
                f,
                "node {node}: total difficulty did not increase at canonical height {number}"
            ),
            CrossSpecAcceptance { node, number } => write!(
                f,
                "node {node}: canonical block {number} violates the node's own DAO-marker rule"
            ),
            SeenFilterOverCapacity { node, filter, len, bound } => write!(
                f,
                "node {node}: {filter} seen-filter holds {len} entries, bound {bound}"
            ),
            OrphanBufferOverflow { node, count } => write!(
                f,
                "node {node}: {count} buffered orphans, bound {ORPHAN_BOUND}"
            ),
            RetainedBlocksOverflow { node, count } => write!(
                f,
                "node {node}: store retains {count} blocks, bound {RETAINED_BLOCKS_BOUND}"
            ),
            EventQueueOverflow { len } => {
                write!(f, "event queue holds {len} events, bound {EVENT_QUEUE_BOUND}")
            }
            PendingRequestsOverflow { len } => write!(
                f,
                "{len} in-flight sync requests, bound {PENDING_REQUESTS_BOUND}"
            ),
            SideDisagreement { a, b, number } => write!(
                f,
                "nodes {a} and {b} disagree on the canonical block at height {number}"
            ),
            SideHeadSpread { lo_node, lo_head, hi_node, hi_head, tolerance } => write!(
                f,
                "head spread {}..{} (nodes {lo_node}/{hi_node}) exceeds tolerance {tolerance}",
                lo_head, hi_head
            ),
            HealConvergenceFailed { groups, expected } => write!(
                f,
                "census groups {groups:?} after heal + grace, expected {expected} group(s)"
            ),
            ReorgDepthExceeded { depth, bound } => write!(
                f,
                "reorg rolled back {depth} blocks, partition justifies at most {bound}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

impl InvariantViolation {
    /// The node the violation is localized to, when it names one.
    pub fn node(&self) -> Option<usize> {
        use InvariantViolation::*;
        match self {
            BrokenParentLink { node, .. }
            | MissingCanonicalBlock { node, .. }
            | NumberMismatch { node, .. }
            | NonIncreasingTotalDifficulty { node, .. }
            | CrossSpecAcceptance { node, .. }
            | SeenFilterOverCapacity { node, .. }
            | OrphanBufferOverflow { node, .. }
            | RetainedBlocksOverflow { node, .. } => Some(*node),
            SideDisagreement { b, .. } => Some(*b),
            SideHeadSpread { lo_node, .. } => Some(*lo_node),
            EventQueueOverflow { .. }
            | PendingRequestsOverflow { .. }
            | HealConvergenceFailed { .. }
            | ReorgDepthExceeded { .. } => None,
        }
    }
}

/// Renders a failure post-mortem for `v`: the violation message, the flight
/// recorder's last-N events per node (when the run carries a recorder), and
/// the run's telemetry snapshot. The violation is first stamped into the
/// trace as an [`fork_telemetry::TraceEventKind::InvariantViolated`] event
/// at the offending node, so the dump's event history ends with it. This is
/// the text the chaos harness writes to disk before panicking.
pub fn violation_report(net: &MicroNet, v: &InvariantViolation) -> String {
    net.tracer().record_full(
        v.node().unwrap_or(0) as u32,
        fork_telemetry::NO_BLOCK,
        0,
        fork_telemetry::TraceEventKind::InvariantViolated,
        None,
        "",
    );
    let mut out = format!("INVARIANT VIOLATED at t={}ms\n  {v}\n\n", net.now_ms());
    match net.flight_dump() {
        Some(dump) => out.push_str(&dump.render()),
        None => {
            out.push_str(
                "(no flight recorder attached — attach a recorder-carrying \
                 TraceSink for per-node event history)\n\nTELEMETRY AT DUMP TIME\n",
            );
            out.push_str(&net.telemetry_snapshot().render_table());
        }
    }
    out
}

/// Checks every safety invariant over the current state of `net`.
///
/// Covers, for each node (online or not — a crashed node's persisted store
/// must stay consistent too):
///
/// 1. **Store consistency** — the retained canonical window is parent-linked,
///    each height's hash resolves to a block carrying that height, and total
///    difficulty strictly increases along it.
/// 2. **No cross-spec acceptance** — every retained canonical block passes
///    the node's *own* DAO-marker rule; after the fork no store holds a
///    canonical block from the other side.
/// 3. **Bounded memory** — seen filters respect their two-generation bound,
///    orphan buffers and retained blocks stay under generous caps.
///
/// Plus, globally: the event queue and the in-flight request map are bounded.
///
/// Returns the first violation found (checks are ordered deterministically),
/// or `Ok(())`.
pub fn check_invariants(net: &MicroNet) -> Result<(), InvariantViolation> {
    for node in 0..net.node_count() {
        check_store(net, node)?;
        check_memory(net, node)?;
    }
    if net.queue_len() > EVENT_QUEUE_BOUND {
        return Err(InvariantViolation::EventQueueOverflow {
            len: net.queue_len(),
        });
    }
    if net.pending_requests() > PENDING_REQUESTS_BOUND {
        return Err(InvariantViolation::PendingRequestsOverflow {
            len: net.pending_requests(),
        });
    }
    Ok(())
}

/// Store consistency + cross-spec checks for one node.
fn check_store(net: &MicroNet, node: usize) -> Result<(), InvariantViolation> {
    let store = net.node_store(node);
    let head = store.head_number();

    // Walk the retained canonical window newest-first. `canonical_hash`
    // answers only inside the window, so the walk self-terminates.
    let mut prev: Option<(u64, H256)> = None; // child (higher) entry
    let mut number = head;
    while let Some(hash) = store.canonical_hash(number) {
        let Some(block) = store.block(hash) else {
            return Err(InvariantViolation::MissingCanonicalBlock { node, number });
        };
        if block.header.number != number {
            return Err(InvariantViolation::NumberMismatch {
                node,
                number,
                header_number: block.header.number,
            });
        }
        if let Some((child_number, child_parent)) = prev {
            if child_parent != hash {
                return Err(InvariantViolation::BrokenParentLink {
                    node,
                    number: child_number,
                });
            }
            let child_hash = store.canonical_hash(child_number).expect("just walked");
            let td_child = store.total_difficulty(child_hash);
            let td_parent = store.total_difficulty(hash);
            if td_child <= td_parent {
                return Err(InvariantViolation::NonIncreasingTotalDifficulty {
                    node,
                    number: child_number,
                });
            }
        }
        // Cross-spec: the node's own rules must bless every canonical block
        // it retains. (`dao_extra_data_ok` is vacuously true outside the
        // marker window, so checking the whole window is cheap and exact.)
        if net.fork_height().is_some()
            && !store
                .spec()
                .dao_extra_data_ok(number, &block.header.extra_data)
        {
            return Err(InvariantViolation::CrossSpecAcceptance { node, number });
        }
        prev = Some((number, block.header.parent_hash));
        if number == 0 {
            break;
        }
        number -= 1;
    }
    Ok(())
}

/// Bounded-memory checks for one node.
fn check_memory(net: &MicroNet, node: usize) -> Result<(), InvariantViolation> {
    let gossip = net.gossip_state(node);
    let filters: [(&'static str, usize, usize); 3] = [
        ("blocks", gossip.blocks.len(), gossip.blocks.capacity()),
        (
            "transactions",
            gossip.transactions.len(),
            gossip.transactions.capacity(),
        ),
        (
            "requested",
            net.requested_filter(node).len(),
            net.requested_filter(node).capacity(),
        ),
    ];
    for (name, len, capacity) in filters {
        // Two-generation rotation: current + previous generation.
        let bound = 2 * capacity;
        if len > bound {
            return Err(InvariantViolation::SeenFilterOverCapacity {
                node,
                filter: name,
                len,
                bound,
            });
        }
    }
    let orphans = net.orphan_count(node);
    if orphans > ORPHAN_BOUND {
        return Err(InvariantViolation::OrphanBufferOverflow {
            node,
            count: orphans,
        });
    }
    let retained = net.node_store(node).retained_blocks();
    if retained > RETAINED_BLOCKS_BOUND {
        return Err(InvariantViolation::RetainedBlocksOverflow {
            node,
            count: retained,
        });
    }
    Ok(())
}

/// Checks that the *online* nodes in `nodes` (one partition side) agree:
/// head heights within `tolerance` of each other, and identical canonical
/// hashes at the lowest common head. This is the "eventual per-side
/// convergence" condition — meaningful only after faults have cleared and
/// propagation has settled, so it is a separate call rather than part of
/// [`check_invariants`].
pub fn check_side_agreement(
    net: &MicroNet,
    nodes: &[usize],
    tolerance: u64,
) -> Result<(), InvariantViolation> {
    let online: Vec<usize> = nodes
        .iter()
        .copied()
        .filter(|&i| net.is_online(i))
        .collect();
    let Some(&first) = online.first() else {
        return Ok(());
    };
    let (mut lo, mut hi) = (first, first);
    for &i in &online[1..] {
        let h = net.node_store(i).head_number();
        if h < net.node_store(lo).head_number() {
            lo = i;
        }
        if h > net.node_store(hi).head_number() {
            hi = i;
        }
    }
    let (lo_head, hi_head) = (
        net.node_store(lo).head_number(),
        net.node_store(hi).head_number(),
    );
    if hi_head - lo_head > tolerance {
        return Err(InvariantViolation::SideHeadSpread {
            lo_node: lo,
            lo_head,
            hi_node: hi,
            hi_head,
            tolerance,
        });
    }
    // Everyone must agree on the chain a few blocks below the lowest head —
    // at the tip itself an ordinary transient fork (a chain race difficulty
    // will resolve) is not divergence. One height suffices: store
    // consistency (checked elsewhere) links everything below it.
    let cmp = lo_head.saturating_sub(8);
    let reference = net.node_store(lo).canonical_hash(cmp);
    for &i in &online {
        if net.node_store(i).canonical_hash(cmp) != reference {
            return Err(InvariantViolation::SideDisagreement {
                a: lo,
                b: i,
                number: cmp,
            });
        }
    }
    Ok(())
}

/// What the census and the heal/reorg checks read from either engine.
pub trait NetView {
    /// A canonical block identity, compared for equality only.
    type Hash: PartialEq;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Head height of node `i`.
    fn head_number(&self, i: usize) -> u64;

    /// Node `i`'s canonical hash at height `number`, if it holds one.
    fn canonical_hash(&self, i: usize, number: u64) -> Option<Self::Hash>;

    /// The lowest height the census compares at: the fork height, above
    /// which split rules differ at every block (0 without a fork).
    fn census_floor(&self) -> u64;

    /// Deepest reorg observed so far (canonical blocks rolled back at once).
    fn max_reorg_depth(&self) -> u64;
}

/// The chain-agreement census: cluster sizes, descending. Two nodes share a
/// group when they hold the same canonical hash 8 blocks below the lower of
/// their heads (so a tip race doesn't read as a partition), compared no
/// lower than [`NetView::census_floor`] (the fork block itself leaves micro
/// stores' retention window). One group = a connected, agreeing network.
///
/// The grouping is greedy: each unclaimed node opens a group and claims
/// every later unclaimed node that agrees with it. A node fewer than 8
/// blocks past a split agrees with *both* sides at the comparison height and
/// joins whichever group reaches it first, so a never-healed two-way split
/// can read `[9, 7]` or `[8, 7, 1]` as well as `[8, 8]`.
pub fn partition_census<N: NetView>(net: &N) -> Vec<usize> {
    let floor = net.census_floor();
    let n = net.node_count();
    let mut group = vec![usize::MAX; n];
    let mut count = Vec::new();
    for i in 0..n {
        if group[i] != usize::MAX {
            continue;
        }
        group[i] = count.len();
        count.push(1usize);
        let head_i = net.head_number(i);
        for j in i + 1..n {
            if group[j] != usize::MAX {
                continue;
            }
            let m = head_i.min(net.head_number(j));
            let cmp = m.saturating_sub(8).max(floor.min(m));
            let a = net.canonical_hash(i, cmp);
            if a.is_some() && a == net.canonical_hash(j, cmp) {
                group[j] = group[i];
                count[group[i]] += 1;
            }
        }
    }
    count.sort_unstable_by(|a, b| b.cmp(a));
    count
}

/// Checks that the network has converged back to its per-spec agreement
/// groups: the pairwise census ([`partition_census`]) must hold exactly
/// `expected_groups` clusters — one for a uniform-spec run, two for a fork
/// split. Meaningful only after every scripted partition has healed and a
/// propagation/resync grace has elapsed, so — like
/// [`check_side_agreement`] — it is a separate call, sampled window by
/// window by the atlas harness rather than folded into
/// [`check_invariants`]. A deliberately never-healed partition fails this
/// check: that is the atlas's negative control.
pub fn check_heal_convergence<N: NetView>(
    net: &N,
    expected_groups: usize,
) -> Result<(), InvariantViolation> {
    let groups = partition_census(net);
    if groups.len() != expected_groups {
        return Err(InvariantViolation::HealConvergenceFailed {
            groups,
            expected: expected_groups,
        });
    }
    Ok(())
}

/// Checks that the deepest reorg observed so far is explainable by the
/// scripted partitions: a heal can revert at most the blocks the losing
/// side mined while split, so `bound` is derived from the longest partition
/// duration (plus a transient-fork margin — the caller owns the scaling;
/// atlas presets use `2 × duration / target_block_time + 8`).
pub fn check_reorg_depth<N: NetView>(net: &N, bound: u64) -> Result<(), InvariantViolation> {
    let depth = net.max_reorg_depth();
    if depth > bound {
        return Err(InvariantViolation::ReorgDepthExceeded { depth, bound });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{MicroConfig, MicroNet};

    #[test]
    fn healthy_run_upholds_every_invariant() {
        let mut net = MicroNet::new(MicroConfig {
            seed: 11,
            n_nodes: 8,
            n_miners: 8,
            duration_secs: 600,
            ..MicroConfig::default()
        });
        // Check at several points mid-run, then at the end.
        for window in 1..=5u64 {
            net.run_until(window * 120_000);
            check_invariants(&net).expect("invariant violated mid-run");
        }
        let all: Vec<usize> = (0..net.node_count()).collect();
        check_side_agreement(&net, &all, 3).expect("uniform network should converge");
    }

    #[test]
    fn side_agreement_flags_disjoint_sides() {
        // A fork-split network: the two sides *must* disagree with each
        // other, while each side agrees internally.
        let mut net = MicroNet::new(crate::scenario::chaos_scenario(5).base_without_chaos());
        net.run_until(1_200_000);
        check_invariants(&net).expect("fork split violates no safety invariant");
        let n = net.node_count();
        let eth: Vec<usize> = (0..n / 2).collect();
        let etc: Vec<usize> = (n / 2..n).collect();
        check_side_agreement(&net, &eth, 3).expect("pro-fork side agrees internally");
        check_side_agreement(&net, &etc, 3).expect("anti-fork side agrees internally");
        let mixed: Vec<usize> = vec![0, n - 1];
        assert!(
            check_side_agreement(&net, &mixed, u64::MAX).is_err(),
            "opposite sides must not agree"
        );
    }

    #[test]
    fn heal_convergence_tracks_the_census() {
        use crate::chaos::ChaosPlan;
        let mut net = MicroNet::new(MicroConfig {
            seed: 14,
            n_nodes: 10,
            n_miners: 10,
            duration_secs: 2_400,
            chaos: ChaosPlan::NONE
                .create_partition(300_000, vec![(0..5).collect(), (5..10).collect()])
                .heal_partition(900_000),
            ..MicroConfig::default()
        });
        // Deep into the partition the sides have diverged: the convergence
        // check fails (which is exactly what the negative control relies
        // on)...
        net.run_until(880_000);
        assert!(matches!(
            check_heal_convergence(&net, 1),
            Err(InvariantViolation::HealConvergenceFailed { .. })
        ));
        // ...and safety invariants still hold throughout.
        check_invariants(&net).expect("a partition is divergence, not unsoundness");
        // After heal + grace, the census collapses back to one group and
        // the reorg depth is explainable by the partition duration.
        net.run_until(2_400_000);
        check_heal_convergence(&net, 1).expect("heal must reconverge the census");
        let bound = 2 * 600 / 14 + 8;
        check_reorg_depth(&net, bound).expect("reorg bounded by partition duration");
        assert!(net.max_reorg_depth() > 0, "the heal produced a reorg");
        assert!(check_reorg_depth(&net, net.max_reorg_depth() - 1).is_err());
    }

    #[test]
    fn violations_render_with_context() {
        let v = InvariantViolation::BrokenParentLink {
            node: 3,
            number: 17,
        };
        assert!(v.to_string().contains("node 3"));
        assert!(v.to_string().contains("17"));
        let v = InvariantViolation::SeenFilterOverCapacity {
            node: 1,
            filter: "blocks",
            len: 9000,
            bound: 8192,
        };
        assert!(v.to_string().contains("blocks"));
        assert!(v.to_string().contains("9000"));
        let v = InvariantViolation::EventQueueOverflow { len: 3_000_000 };
        assert!(v.to_string().contains("3000000"));
    }
}
