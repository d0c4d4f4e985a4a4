//! Seeded macro-scale topology generation.
//!
//! The micro engine wires a handful of nodes through Kademlia lookups; at
//! 1,000+ nodes the interesting structure is statistical, so this layer
//! generates it directly from three measured ingredients:
//!
//! * **Degree distribution** — Ethna (arXiv 2010.01373) measures the
//!   Ethereum overlay as a power law with a heavy hub tail. Target degrees
//!   are sampled from a truncated discrete power law `P(k) ∝ k^-α` on
//!   `[min_degree, max_degree]` and realized with a biased configuration
//!   model.
//! * **Geo-latency clusters** — the geo study (arXiv 2005.06356) finds
//!   nodes concentrated in a few regions with tight intra-region RTTs and
//!   a wide inter-region band. Every node belongs to one [`GeoCluster`];
//!   each edge gets a one-way base latency drawn from the intra- or
//!   inter-cluster band.
//! * **Client diversity** — arXiv 2501.16236 shows client implementation
//!   correlates with chain membership during splits. Nodes carry a
//!   [`ClientKind`] label sampled from a configured mix; the macro engine
//!   biases fork-stance assignment by it.
//!
//! Generation is a pure function of `(seed, config)`: every draw comes from
//! one forked [`SimRng`] stream, edges are kept in a `BTreeSet` so
//! iteration order never depends on hash-map layout, and the result is
//! validated (connected, non-trivial) before the engine accepts it.

use std::collections::{BTreeSet, HashMap};

use rand::Rng;

use crate::rng::SimRng;

/// A client implementation label (arXiv 2501.16236's diversity axis,
/// collapsed to the fork-era population).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClientKind {
    /// go-ethereum — the majority client in Nov 2016.
    Geth,
    /// Parity — the large minority client.
    Parity,
    /// Everything else (cpp-ethereum, pyethereum, ...).
    Other,
}

impl ClientKind {
    /// Short stable label for figure rows and counters.
    pub const fn label(self) -> &'static str {
        match self {
            ClientKind::Geth => "geth",
            ClientKind::Parity => "parity",
            ClientKind::Other => "other",
        }
    }
}

/// One geographic latency cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoCluster {
    /// Stable cluster name (figure rows).
    pub name: &'static str,
    /// Fraction of all nodes placed in this cluster (weights are
    /// normalized; they need not sum to 1).
    pub weight: f64,
    /// One-way base-latency band for links *within* the cluster,
    /// milliseconds (inclusive).
    pub intra_rtt_ms: (u64, u64),
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyGenConfig {
    /// Number of nodes.
    pub n_nodes: usize,
    /// Geographic clusters (node counts are apportioned by weight, largest
    /// remainder, and assigned as contiguous index ranges — see
    /// [`cluster_quotas`]).
    pub clusters: Vec<GeoCluster>,
    /// One-way base-latency band for links *between* clusters, ms.
    pub inter_rtt_ms: (u64, u64),
    /// Power-law exponent α of the target-degree distribution (Ethna
    /// measures the overlay tail near 2.2).
    pub degree_exponent: f64,
    /// Smallest target degree (≥ 2 so the repair pass has slack).
    pub min_degree: usize,
    /// Largest target degree (the hub cap; realized degrees may exceed it
    /// by the few edges the connectivity repair adds).
    pub max_degree: usize,
    /// Probability a stub prefers a same-cluster peer (geo assortativity).
    pub intra_affinity: f64,
    /// Client mix as `(kind, weight)` (normalized).
    pub client_mix: Vec<(ClientKind, f64)>,
}

impl Default for TopologyGenConfig {
    /// 3 regions per the geo study, α = 2.2 degree tail per Ethna, and the
    /// fork-era client split (≈72% geth / 22% parity) per the methodology
    /// of arXiv 2501.16236.
    fn default() -> Self {
        TopologyGenConfig {
            n_nodes: 1_000,
            clusters: vec![
                GeoCluster {
                    name: "na",
                    weight: 0.40,
                    intra_rtt_ms: (15, 60),
                },
                GeoCluster {
                    name: "eu",
                    weight: 0.35,
                    intra_rtt_ms: (10, 50),
                },
                GeoCluster {
                    name: "ap",
                    weight: 0.25,
                    intra_rtt_ms: (25, 80),
                },
            ],
            inter_rtt_ms: (80, 300),
            degree_exponent: 2.2,
            min_degree: 4,
            max_degree: 64,
            intra_affinity: 0.7,
            client_mix: vec![
                (ClientKind::Geth, 0.72),
                (ClientKind::Parity, 0.22),
                (ClientKind::Other, 0.06),
            ],
        }
    }
}

/// A rejected [`TopologyGenConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// Fewer than two nodes.
    TooSmall {
        /// Configured node count.
        n_nodes: usize,
    },
    /// No clusters, or a cluster with a non-positive weight.
    BadClusters,
    /// `min_degree < 2`, `min_degree > max_degree`, or `max_degree ≥ n`.
    BadDegreeBand {
        /// Configured minimum.
        min_degree: usize,
        /// Configured maximum.
        max_degree: usize,
    },
    /// Non-finite or ≤ 1 power-law exponent.
    BadExponent {
        /// The offending value.
        exponent: f64,
    },
    /// An RTT band with `lo > hi`.
    BadRttBand {
        /// Band low edge, ms.
        lo: u64,
        /// Band high edge, ms.
        hi: u64,
    },
    /// `intra_affinity` outside `[0, 1]`.
    BadAffinity {
        /// The offending value.
        value: f64,
    },
    /// Empty client mix, or a non-positive weight.
    BadClientMix,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::TooSmall { n_nodes } => {
                write!(f, "topology needs at least 2 nodes, got {n_nodes}")
            }
            TopologyError::BadClusters => {
                write!(f, "topology needs at least one positively weighted cluster")
            }
            TopologyError::BadDegreeBand {
                min_degree,
                max_degree,
            } => write!(f, "bad degree band [{min_degree}, {max_degree}]"),
            TopologyError::BadExponent { exponent } => {
                write!(f, "power-law exponent {exponent} must be finite and > 1")
            }
            TopologyError::BadRttBand { lo, hi } => {
                write!(f, "RTT band {lo}..{hi} ms is inverted")
            }
            TopologyError::BadAffinity { value } => {
                write!(f, "intra-cluster affinity {value} must be in [0, 1]")
            }
            TopologyError::BadClientMix => {
                write!(f, "client mix needs at least one positively weighted kind")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A generated macro topology.
#[derive(Debug, Clone)]
pub struct MacroTopology {
    /// Sorted neighbor lists, indexed by node.
    pub adjacency: Vec<Vec<u32>>,
    /// One-way base latency per undirected edge, keyed `(lo, hi)` node
    /// indices.
    pub edge_rtt_ms: HashMap<(u32, u32), u64>,
    /// Cluster index per node (contiguous ranges, see [`cluster_quotas`]).
    pub cluster_of: Vec<u16>,
    /// The clusters, as configured.
    pub clusters: Vec<GeoCluster>,
    /// Client label per node.
    pub client_of: Vec<ClientKind>,
}

/// Summary statistics over a generated topology (figure rows and the
/// statistical-sanity tests).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyStats {
    /// Node count.
    pub n_nodes: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Mean realized degree.
    pub mean_degree: f64,
    /// Median realized degree.
    pub median_degree: usize,
    /// 99th-percentile realized degree (the hub tail).
    pub p99_degree: usize,
    /// Maximum realized degree.
    pub max_degree: usize,
    /// Per-cluster node counts, in cluster order.
    pub cluster_sizes: Vec<usize>,
    /// Observed intra-cluster base-latency span, ms (`(0, 0)` when no
    /// intra-cluster edge exists).
    pub intra_rtt_span: (u64, u64),
    /// Observed inter-cluster base-latency span, ms.
    pub inter_rtt_span: (u64, u64),
    /// Per-client node counts, keyed by [`ClientKind::label`] order of the
    /// configured mix.
    pub client_counts: Vec<(ClientKind, usize)>,
}

impl MacroTopology {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True when empty (never, for a generated topology).
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_rtt_ms.len()
    }

    /// True when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut visited = 1;
        while let Some(i) = stack.pop() {
            for &j in &self.adjacency[i as usize] {
                if !seen[j as usize] {
                    seen[j as usize] = true;
                    visited += 1;
                    stack.push(j);
                }
            }
        }
        visited == n
    }

    /// Summary statistics (deterministic for a given topology).
    pub fn stats(&self) -> TopologyStats {
        let n = self.len();
        let mut degrees: Vec<usize> = self.adjacency.iter().map(Vec::len).collect();
        degrees.sort_unstable();
        let mean_degree = if n == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / n as f64
        };
        let pick = |p: usize| degrees[((n - 1) * p + 50) / 100];
        let mut cluster_sizes = vec![0usize; self.clusters.len()];
        for &c in &self.cluster_of {
            cluster_sizes[c as usize] += 1;
        }
        let mut intra: Option<(u64, u64)> = None;
        let mut inter: Option<(u64, u64)> = None;
        for (&(a, b), &rtt) in &self.edge_rtt_ms {
            let span = if self.cluster_of[a as usize] == self.cluster_of[b as usize] {
                &mut intra
            } else {
                &mut inter
            };
            *span = Some(match *span {
                None => (rtt, rtt),
                Some((lo, hi)) => (lo.min(rtt), hi.max(rtt)),
            });
        }
        let mut client_counts: Vec<(ClientKind, usize)> = Vec::new();
        for &kind in &self.client_of {
            match client_counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, c)) => *c += 1,
                None => client_counts.push((kind, 1)),
            }
        }
        client_counts.sort_by_key(|&(k, _)| k);
        TopologyStats {
            n_nodes: n,
            edges: self.edge_count(),
            mean_degree,
            median_degree: pick(50),
            p99_degree: pick(99),
            max_degree: degrees.last().copied().unwrap_or(0),
            cluster_sizes,
            intra_rtt_span: intra.unwrap_or((0, 0)),
            inter_rtt_span: inter.unwrap_or((0, 0)),
            client_counts,
        }
    }
}

/// Largest-remainder apportionment of `config.n_nodes` across the cluster
/// weights. Clusters own *contiguous* node-index ranges in declaration
/// order, so partition plans can be built from quotas alone, before the
/// topology itself is generated.
pub fn cluster_quotas(config: &TopologyGenConfig) -> Vec<usize> {
    let total: f64 = config.clusters.iter().map(|c| c.weight).sum();
    let n = config.n_nodes;
    let mut quotas: Vec<usize> = Vec::with_capacity(config.clusters.len());
    let mut remainders: Vec<(usize, f64)> = Vec::new();
    let mut assigned = 0usize;
    for (i, c) in config.clusters.iter().enumerate() {
        let exact = n as f64 * c.weight / total;
        let floor = exact.floor() as usize;
        quotas.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    // Ties broken by declaration order (stable sort on descending
    // remainder) — deterministic.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for (i, _) in remainders.into_iter().take(n - assigned) {
        quotas[i] += 1;
    }
    quotas
}

fn validate(config: &TopologyGenConfig) -> Result<(), TopologyError> {
    if config.n_nodes < 2 {
        return Err(TopologyError::TooSmall {
            n_nodes: config.n_nodes,
        });
    }
    if config.clusters.is_empty()
        || config
            .clusters
            .iter()
            .any(|c| !c.weight.is_finite() || c.weight <= 0.0)
    {
        return Err(TopologyError::BadClusters);
    }
    if config.min_degree < 2
        || config.min_degree > config.max_degree
        || config.max_degree >= config.n_nodes
    {
        return Err(TopologyError::BadDegreeBand {
            min_degree: config.min_degree,
            max_degree: config.max_degree,
        });
    }
    if !config.degree_exponent.is_finite() || config.degree_exponent <= 1.0 {
        return Err(TopologyError::BadExponent {
            exponent: config.degree_exponent,
        });
    }
    for &(lo, hi) in config
        .clusters
        .iter()
        .map(|c| &c.intra_rtt_ms)
        .chain(std::iter::once(&config.inter_rtt_ms))
    {
        if lo > hi {
            return Err(TopologyError::BadRttBand { lo, hi });
        }
    }
    if !config.intra_affinity.is_finite() || !(0.0..=1.0).contains(&config.intra_affinity) {
        return Err(TopologyError::BadAffinity {
            value: config.intra_affinity,
        });
    }
    if config.client_mix.is_empty()
        || config
            .client_mix
            .iter()
            .any(|(_, w)| !w.is_finite() || *w <= 0.0)
    {
        return Err(TopologyError::BadClientMix);
    }
    Ok(())
}

/// Generates a validated topology. Pure in `(root seed, config)`: calling
/// twice with the same inputs yields identical structures.
pub fn generate(config: &TopologyGenConfig, root: &SimRng) -> Result<MacroTopology, TopologyError> {
    validate(config)?;
    let mut rng = root.fork("macro-topology");
    let n = config.n_nodes;

    // 1. Cluster assignment: contiguous ranges by largest-remainder quota.
    let quotas = cluster_quotas(config);
    let mut cluster_of: Vec<u16> = Vec::with_capacity(n);
    for (c, &q) in quotas.iter().enumerate() {
        cluster_of.resize(cluster_of.len() + q, c as u16);
    }
    let members: Vec<Vec<u32>> = {
        let mut m = vec![Vec::new(); config.clusters.len()];
        for (i, &c) in cluster_of.iter().enumerate() {
            m[c as usize].push(i as u32);
        }
        m
    };

    // 2. Target degrees: inverse-CDF draw from P(k) ∝ k^-α on
    //    [min_degree, max_degree].
    let weights: Vec<f64> = (config.min_degree..=config.max_degree)
        .map(|k| (k as f64).powf(-config.degree_exponent))
        .collect();
    let total_w: f64 = weights.iter().sum();
    let targets: Vec<usize> = (0..n)
        .map(|_| {
            let mut u = rng.gen_range(0.0..1.0f64) * total_w;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    return config.min_degree + i;
                }
                u -= w;
            }
            config.max_degree
        })
        .collect();

    // 3. Biased configuration model: each node fills its target degree
    //    with intra-cluster peers `intra_affinity` of the time. Saturated
    //    or duplicate picks are retried a bounded number of times, so the
    //    realized distribution keeps the sampled tail without looping.
    let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut degree = vec![0usize; n];
    for i in 0..n {
        let mut attempts = 0usize;
        let budget = targets[i] * 20;
        while degree[i] < targets[i] && attempts < budget {
            attempts += 1;
            let home = &members[cluster_of[i] as usize];
            let j = if config.intra_affinity > 0.0
                && home.len() > 1
                && rng.gen_bool(config.intra_affinity)
            {
                home[rng.gen_range(0..home.len())] as usize
            } else {
                rng.gen_range(0..n)
            };
            if j == i || degree[j] >= config.max_degree {
                continue;
            }
            let key = ((i.min(j)) as u32, (i.max(j)) as u32);
            if edges.insert(key) {
                degree[i] += 1;
                degree[j] += 1;
            }
        }
    }

    // 4. Connectivity repair: splice every stranded component onto the
    //    main one (lowest-index members), in ascending index order. The
    //    handful of repair edges may push a node past `max_degree`; the
    //    cap is a distribution target, not an invariant.
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
    let rebuild = |edges: &BTreeSet<(u32, u32)>, adjacency: &mut Vec<Vec<u32>>| {
        for a in adjacency.iter_mut() {
            a.clear();
        }
        for &(a, b) in edges {
            adjacency[a as usize].push(b);
            adjacency[b as usize].push(a);
        }
    };
    rebuild(&edges, &mut adjacency);
    let mut seen = vec![false; n];
    let mut stack = vec![0u32];
    seen[0] = true;
    while let Some(i) = stack.pop() {
        for &j in &adjacency[i as usize] {
            if !seen[j as usize] {
                seen[j as usize] = true;
                stack.push(j);
            }
        }
    }
    for u in 0..n {
        if seen[u] {
            continue;
        }
        // Attach u's whole component through u itself.
        edges.insert((0, u as u32));
        let mut stack = vec![u as u32];
        seen[u] = true;
        while let Some(i) = stack.pop() {
            for &j in &adjacency[i as usize] {
                if !seen[j as usize] {
                    seen[j as usize] = true;
                    stack.push(j);
                }
            }
        }
    }
    rebuild(&edges, &mut adjacency);
    for a in adjacency.iter_mut() {
        a.sort_unstable();
    }

    // 5. Edge base latencies, drawn in BTreeSet (= deterministic) order.
    let mut edge_rtt_ms = HashMap::with_capacity(edges.len());
    for &(a, b) in &edges {
        let (lo, hi) = if cluster_of[a as usize] == cluster_of[b as usize] {
            config.clusters[cluster_of[a as usize] as usize].intra_rtt_ms
        } else {
            config.inter_rtt_ms
        };
        let rtt = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
        edge_rtt_ms.insert((a, b), rtt);
    }

    // 6. Client labels from the normalized mix.
    let mix_total: f64 = config.client_mix.iter().map(|(_, w)| w).sum();
    let client_of: Vec<ClientKind> = (0..n)
        .map(|_| {
            let mut u = rng.gen_range(0.0..1.0f64) * mix_total;
            for &(kind, w) in &config.client_mix {
                if u < w {
                    return kind;
                }
                u -= w;
            }
            config.client_mix.last().expect("non-empty mix").0
        })
        .collect();

    Ok(MacroTopology {
        adjacency,
        edge_rtt_ms,
        cluster_of,
        clusters: config.clusters.clone(),
        client_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(config: &TopologyGenConfig, seed: u64) -> MacroTopology {
        generate(config, &SimRng::new(seed)).expect("valid config")
    }

    #[test]
    fn generation_is_deterministic() {
        let config = TopologyGenConfig {
            n_nodes: 300,
            ..TopologyGenConfig::default()
        };
        let a = gen(&config, 7);
        let b = gen(&config, 7);
        assert_eq!(a.adjacency, b.adjacency);
        assert_eq!(a.cluster_of, b.cluster_of);
        assert_eq!(a.client_of, b.client_of);
        let mut ra: Vec<_> = a.edge_rtt_ms.iter().collect();
        let mut rb: Vec<_> = b.edge_rtt_ms.iter().collect();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
        // A different seed rewires.
        let c = gen(&config, 8);
        assert_ne!(a.adjacency, c.adjacency);
    }

    #[test]
    fn connected_with_degree_tail() {
        let config = TopologyGenConfig {
            n_nodes: 500,
            ..TopologyGenConfig::default()
        };
        let t = gen(&config, 42);
        assert!(t.is_connected());
        let stats = t.stats();
        assert!(stats.mean_degree >= config.min_degree as f64);
        assert!(
            stats.p99_degree >= 2 * stats.median_degree,
            "no hub tail: p99 {} vs median {}",
            stats.p99_degree,
            stats.median_degree
        );
    }

    #[test]
    fn cluster_quotas_apportion_exactly() {
        let config = TopologyGenConfig {
            n_nodes: 101,
            ..TopologyGenConfig::default()
        };
        let quotas = cluster_quotas(&config);
        assert_eq!(quotas.iter().sum::<usize>(), 101);
        let t = gen(&config, 3);
        assert_eq!(t.stats().cluster_sizes, quotas);
    }

    #[test]
    fn rtt_bands_respected() {
        let config = TopologyGenConfig {
            n_nodes: 200,
            ..TopologyGenConfig::default()
        };
        let t = gen(&config, 11);
        for (&(a, b), &rtt) in &t.edge_rtt_ms {
            let (lo, hi) = if t.cluster_of[a as usize] == t.cluster_of[b as usize] {
                t.clusters[t.cluster_of[a as usize] as usize].intra_rtt_ms
            } else {
                (80, 300)
            };
            assert!(
                (lo..=hi).contains(&rtt),
                "edge ({a},{b}) rtt {rtt} outside {lo}..{hi}"
            );
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let base = TopologyGenConfig::default();
        let cases: Vec<(TopologyGenConfig, TopologyError)> = vec![
            (
                TopologyGenConfig {
                    n_nodes: 1,
                    ..base.clone()
                },
                TopologyError::TooSmall { n_nodes: 1 },
            ),
            (
                TopologyGenConfig {
                    clusters: vec![],
                    ..base.clone()
                },
                TopologyError::BadClusters,
            ),
            (
                TopologyGenConfig {
                    min_degree: 1,
                    ..base.clone()
                },
                TopologyError::BadDegreeBand {
                    min_degree: 1,
                    max_degree: 64,
                },
            ),
            (
                TopologyGenConfig {
                    degree_exponent: 1.0,
                    ..base.clone()
                },
                TopologyError::BadExponent { exponent: 1.0 },
            ),
            (
                TopologyGenConfig {
                    inter_rtt_ms: (300, 80),
                    ..base.clone()
                },
                TopologyError::BadRttBand { lo: 300, hi: 80 },
            ),
            (
                TopologyGenConfig {
                    intra_affinity: 1.5,
                    ..base.clone()
                },
                TopologyError::BadAffinity { value: 1.5 },
            ),
            (
                TopologyGenConfig {
                    client_mix: vec![],
                    ..base.clone()
                },
                TopologyError::BadClientMix,
            ),
        ];
        for (config, want) in cases {
            let got = generate(&config, &SimRng::new(1)).unwrap_err();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn client_mix_tracks_configured_shares() {
        let config = TopologyGenConfig {
            n_nodes: 1_000,
            ..TopologyGenConfig::default()
        };
        let t = gen(&config, 9);
        let stats = t.stats();
        let geth = stats
            .client_counts
            .iter()
            .find(|(k, _)| *k == ClientKind::Geth)
            .map(|&(_, c)| c)
            .unwrap_or(0);
        let share = geth as f64 / 1_000.0;
        assert!((share - 0.72).abs() < 0.05, "geth share {share}");
    }
}
