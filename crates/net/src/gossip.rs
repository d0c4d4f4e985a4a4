//! Gossip relay policy and duplicate suppression.
//!
//! Mirrors the eth-protocol's propagation shape: a node that learns a new
//! block sends the **full block** to `⌈√n⌉` of its peers and the **hash
//! announcement** to the rest; transactions flood to all peers not known to
//! have them. Duplicate suppression uses a two-generation rotating set so
//! memory stays bounded over month-long simulations.

use std::collections::HashSet;
use std::hash::Hash;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::node_id::NodeId;
use fork_primitives::H256;
use fork_telemetry::{BlockTag, TraceEventKind, TraceSink};

/// A bounded "have I seen this" filter: two generations of hash sets; when
/// the current generation fills, it becomes the previous one. Lookups check
/// both, so an item is remembered for at least `capacity` and at most
/// `2 × capacity` subsequent insertions.
#[derive(Debug, Clone)]
pub struct SeenFilter<T: Eq + Hash> {
    current: HashSet<T>,
    previous: HashSet<T>,
    capacity: usize,
}

impl<T: Eq + Hash> SeenFilter<T> {
    /// A filter that remembers at least `capacity` recent items.
    pub fn new(capacity: usize) -> Self {
        SeenFilter {
            current: HashSet::new(),
            previous: HashSet::new(),
            capacity: capacity.max(1),
        }
    }

    /// Inserts; returns `true` if the item was NOT seen before (i.e. fresh).
    pub fn insert(&mut self, item: T) -> bool {
        if self.contains(&item) {
            crate::telemetry::record_seen_lookup(false);
            return false;
        }
        crate::telemetry::record_seen_lookup(true);
        if self.current.len() >= self.capacity {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(item);
        true
    }

    /// Membership test over both generations.
    pub fn contains(&self, item: &T) -> bool {
        self.current.contains(item) || self.previous.contains(item)
    }

    /// Number of items currently remembered.
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// The configured generation capacity: `len() <= 2 * capacity()` always
    /// holds (the bound the chaos invariant checker asserts).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-node gossip bookkeeping.
#[derive(Debug, Clone)]
pub struct GossipState {
    /// Blocks this node has seen (by hash).
    pub blocks: SeenFilter<H256>,
    /// Transactions this node has seen (by hash).
    pub transactions: SeenFilter<H256>,
}

impl Default for GossipState {
    fn default() -> Self {
        GossipState {
            blocks: SeenFilter::new(4_096),
            transactions: SeenFilter::new(65_536),
        }
    }
}

impl GossipState {
    /// Fresh state with default capacities.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The relay plan for a newly learned block: full block to `⌈√n⌉` randomly
/// chosen peers, hash announcement to the remainder. `exclude` (typically
/// the peer we got it from) receives nothing.
pub fn plan_block_relay<R: Rng>(
    peers: &[NodeId],
    exclude: Option<NodeId>,
    rng: &mut R,
) -> BlockRelayPlan {
    let mut eligible: Vec<NodeId> = peers
        .iter()
        .filter(|p| Some(**p) != exclude)
        .copied()
        .collect();
    eligible.shuffle(rng);
    let n_full = (eligible.len() as f64).sqrt().ceil() as usize;
    let announce = eligible.split_off(n_full.min(eligible.len()));
    crate::telemetry::record_relay_plan(eligible.len(), announce.len());
    BlockRelayPlan {
        full_block: eligible,
        announce,
    }
}

/// Emits the receive-side trace event for a block that just hit a node's
/// seen-filter: [`TraceEventKind::GossipRecv`] when `fresh` (the node will
/// go on to validate/import it), [`TraceEventKind::GossipDropped`] with
/// detail `"duplicate"` when the filter had already seen it. `from` is the
/// sending peer (`None` for locally mined blocks, which skip the recv
/// event — mining emits its own [`TraceEventKind::Mined`]).
pub fn trace_block_seen(
    sink: &TraceSink,
    node: u32,
    from: Option<u32>,
    block: BlockTag,
    number: u64,
    fresh: bool,
) {
    if fresh {
        sink.record_full(node, block, number, TraceEventKind::GossipRecv, from, "");
    } else {
        sink.record_full(
            node,
            block,
            number,
            TraceEventKind::GossipDropped,
            from,
            "duplicate",
        );
    }
}

/// Output of [`plan_block_relay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRelayPlan {
    /// Peers receiving the full block immediately.
    pub full_block: Vec<NodeId>,
    /// Peers receiving only the hash announcement.
    pub announce: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn seen_filter_basics() {
        let mut f = SeenFilter::new(10);
        assert!(f.insert(1));
        assert!(!f.insert(1), "duplicate rejected");
        assert!(f.contains(&1));
        assert!(!f.contains(&2));
    }

    #[test]
    fn seen_filter_bounded_memory() {
        let mut f = SeenFilter::new(100);
        for i in 0..10_000 {
            f.insert(i);
        }
        assert!(f.len() <= 200, "len {}", f.len());
        // Recent items are still remembered.
        assert!(f.contains(&9_999));
        assert!(f.contains(&9_950));
        // Ancient items have been forgotten.
        assert!(!f.contains(&0));
    }

    #[test]
    fn seen_filter_remembers_at_least_capacity() {
        let mut f = SeenFilter::new(50);
        for i in 0..50 {
            f.insert(i);
        }
        // Insert one more, rotating generations.
        f.insert(50);
        for i in 0..=50 {
            assert!(f.contains(&i), "item {i} forgotten too early");
        }
    }

    #[test]
    fn seen_filter_eviction_order_at_small_capacity() {
        // Capacity 2: generations rotate on the insert that overflows the
        // current set, so eviction proceeds oldest-generation-first.
        let mut f = SeenFilter::new(2);
        assert_eq!(f.capacity(), 2);
        assert!(f.insert(1));
        assert!(f.insert(2)); // current = {1, 2} (full)
        assert!(f.insert(3)); // rotate: previous = {1, 2}, current = {3}
        for i in [1, 2, 3] {
            assert!(f.contains(&i), "item {i} evicted too early");
        }
        assert!(f.insert(4)); // current = {3, 4} (full)
        assert!(f.insert(5)); // rotate: previous = {3, 4}, current = {5}
        assert!(!f.contains(&1), "oldest generation must be evicted");
        assert!(!f.contains(&2), "oldest generation must be evicted");
        for i in [3, 4, 5] {
            assert!(f.contains(&i), "item {i} evicted too early");
        }
        assert!(f.len() <= 2 * f.capacity());
        // Re-inserting an evicted item reports it as fresh again.
        assert!(f.insert(1));
    }

    #[test]
    fn trace_block_seen_splits_fresh_from_duplicate() {
        let sink = TraceSink::new();
        let tag: BlockTag = [7; 32];
        trace_block_seen(&sink, 3, Some(1), tag, 9, true);
        trace_block_seen(&sink, 3, Some(2), tag, 9, false);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceEventKind::GossipRecv);
        assert_eq!(events[0].peer, Some(1));
        assert_eq!(events[1].kind, TraceEventKind::GossipDropped);
        assert_eq!(events[1].detail, "duplicate");
    }

    #[test]
    fn relay_plan_sqrt_split() {
        let peers: Vec<NodeId> = (0..25).map(|i| NodeId::from_seed("g", i)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let plan = plan_block_relay(&peers, None, &mut rng);
        assert_eq!(plan.full_block.len(), 5); // ceil(sqrt(25))
        assert_eq!(plan.announce.len(), 20);
        // No overlap.
        for p in &plan.full_block {
            assert!(!plan.announce.contains(p));
        }
    }

    #[test]
    fn relay_excludes_source_peer() {
        let peers: Vec<NodeId> = (0..9).map(|i| NodeId::from_seed("g", i)).collect();
        let source = peers[3];
        let mut rng = StdRng::seed_from_u64(2);
        let plan = plan_block_relay(&peers, Some(source), &mut rng);
        assert_eq!(plan.full_block.len() + plan.announce.len(), 8);
        assert!(!plan.full_block.contains(&source));
        assert!(!plan.announce.contains(&source));
    }

    #[test]
    fn relay_with_few_peers_sends_full_to_all() {
        let peers: Vec<NodeId> = (0..2).map(|i| NodeId::from_seed("g", i)).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let plan = plan_block_relay(&peers, None, &mut rng);
        assert_eq!(plan.full_block.len(), 2); // ceil(sqrt(2)) = 2
        assert!(plan.announce.is_empty());
    }

    #[test]
    fn relay_deterministic_under_seed() {
        let peers: Vec<NodeId> = (0..16).map(|i| NodeId::from_seed("g", i)).collect();
        let a = plan_block_relay(&peers, None, &mut StdRng::seed_from_u64(9));
        let b = plan_block_relay(&peers, None, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
