//! Peer-graph construction over the Kademlia overlay.
//!
//! Nodes bootstrap from a seed set, run iterative lookups to populate their
//! routing tables, then dial a mix of XOR-near and random peers — yielding
//! the low-diameter graphs real discv4 deployments produce. The result is a
//! symmetric adjacency map the simulator turns into links.

use std::collections::{HashMap, HashSet};

use rand::seq::SliceRandom;
use rand::Rng;

use crate::kademlia::{iterative_lookup, RoutingTable};
use crate::node_id::NodeId;

/// Configuration for topology construction.
#[derive(Debug, Clone, Copy)]
pub struct TopologyConfig {
    /// Target outbound connections per node (geth's default was 25 total;
    /// we default lower because simulated networks are smaller).
    pub target_degree: usize,
    /// How many bootstrap contacts each node starts with.
    pub bootstrap_contacts: usize,
    /// Lookup rounds per node while populating tables.
    pub lookup_rounds: usize,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            target_degree: 8,
            bootstrap_contacts: 3,
            lookup_rounds: 2,
        }
    }
}

/// A symmetric peer graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Adjacency lists; guaranteed symmetric and self-loop free.
    pub adjacency: HashMap<NodeId, Vec<NodeId>>,
}

impl Topology {
    /// Peers of `node` (empty slice if unknown).
    pub fn peers(&self, node: &NodeId) -> &[NodeId] {
        self.adjacency.get(node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Total undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(Vec::len).sum::<usize>() / 2
    }

    /// Checks whether every node can reach every other (BFS from the first).
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.adjacency.keys().next() else {
            return true;
        };
        let mut visited = HashSet::new();
        let mut queue = vec![*start];
        visited.insert(*start);
        while let Some(n) = queue.pop() {
            for p in self.peers(&n) {
                if visited.insert(*p) {
                    queue.push(*p);
                }
            }
        }
        visited.len() == self.adjacency.len()
    }

    /// Adds a symmetric edge.
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        let ea = self.adjacency.entry(a).or_default();
        if !ea.contains(&b) {
            ea.push(b);
        }
        let eb = self.adjacency.entry(b).or_default();
        if !eb.contains(&a) {
            eb.push(a);
        }
    }
}

/// Builds a topology over `ids` using Kademlia lookups plus random dials.
pub fn build_topology<R: Rng>(ids: &[NodeId], config: TopologyConfig, rng: &mut R) -> Topology {
    let mut tables: HashMap<NodeId, RoutingTable> =
        ids.iter().map(|id| (*id, RoutingTable::new(*id))).collect();

    // Bootstrap: everyone learns a few random contacts.
    for id in ids {
        for _ in 0..config.bootstrap_contacts {
            let other = ids[rng.gen_range(0..ids.len())];
            tables.get_mut(id).expect("own table").insert(other);
        }
    }

    // Lookup rounds: each node looks up random targets and learns the paths.
    for _ in 0..config.lookup_rounds {
        for id in ids {
            let target = ids[rng.gen_range(0..ids.len())];
            let seeds: Vec<NodeId> = tables[id].nearest(&target, 3);
            if seeds.is_empty() {
                continue;
            }
            let learned = iterative_lookup(
                &target,
                &seeds,
                |q| {
                    tables
                        .get(q)
                        .map(|t| t.nearest(&target, 8))
                        .unwrap_or_default()
                },
                8,
            );
            let own = tables.get_mut(id).expect("own table");
            for n in learned {
                if n != *id {
                    own.insert(n);
                }
            }
        }
    }

    // Dial: half the degree to XOR-nearest, half to random table entries.
    let mut topo = Topology::default();
    for id in ids {
        topo.adjacency.entry(*id).or_default();
        let table = &tables[id];
        let mut targets: Vec<NodeId> = table.nearest(id, config.target_degree / 2);
        let mut pool: Vec<NodeId> = table.iter().copied().collect();
        pool.shuffle(rng);
        for p in pool {
            if targets.len() >= config.target_degree {
                break;
            }
            if !targets.contains(&p) {
                targets.push(p);
            }
        }
        for t in targets {
            topo.connect(*id, t);
        }
    }

    // Safety net: stitch any isolated nodes to a random peer so gossip has a
    // path (real nodes would keep dialing bootnodes).
    let isolated: Vec<NodeId> = topo
        .adjacency
        .iter()
        .filter(|(_, peers)| peers.is_empty())
        .map(|(n, _)| *n)
        .collect();
    for n in isolated {
        let other = ids[rng.gen_range(0..ids.len())];
        if other != n {
            topo.connect(n, other);
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ids(n: u64) -> Vec<NodeId> {
        (0..n).map(|i| NodeId::from_seed("topo", i)).collect()
    }

    #[test]
    fn builds_connected_graph() {
        let ids = ids(100);
        let mut rng = StdRng::seed_from_u64(5);
        let topo = build_topology(&ids, TopologyConfig::default(), &mut rng);
        assert_eq!(topo.len(), 100);
        assert!(topo.is_connected(), "graph must be connected for gossip");
        // Mean degree near the target.
        let mean = 2.0 * topo.edge_count() as f64 / topo.len() as f64;
        assert!(mean >= 4.0, "mean degree {mean}");
    }

    #[test]
    fn adjacency_symmetric_and_loop_free() {
        let ids = ids(50);
        let mut rng = StdRng::seed_from_u64(6);
        let topo = build_topology(&ids, TopologyConfig::default(), &mut rng);
        for (node, peers) in &topo.adjacency {
            assert!(!peers.contains(node), "self loop at {node:?}");
            for p in peers {
                assert!(
                    topo.peers(p).contains(node),
                    "asymmetric edge {node:?} -> {p:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let ids = ids(40);
        let a = build_topology(
            &ids,
            TopologyConfig::default(),
            &mut StdRng::seed_from_u64(7),
        );
        let b = build_topology(
            &ids,
            TopologyConfig::default(),
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(a.adjacency, b.adjacency);
    }
}
