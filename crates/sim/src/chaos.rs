//! Deterministic fault schedules for the simulation engines.
//!
//! A [`ChaosPlan`] scripts *when* faults happen — node crashes and restarts,
//! mid-run link-degradation windows, byzantine peers, network partitions
//! that sever and later heal topology edges — while the micro engine's
//! [`ResilienceConfig`] governs *how* honest nodes survive them: per-request
//! timeouts, bounded retries with exponential backoff and jitter, and a
//! decaying per-peer misbehavior score that disconnects peers exceeding a
//! budget. Everything is a pure function of the plan and the run's seed, so
//! a chaos run is exactly as reproducible as a clean one — and
//! [`ChaosPlan::NONE`] adds zero events and zero RNG draws, leaving the
//! clean figures byte-identical.
//! Both engines run partitions through the same three pieces:
//! [`ChaosPlan::cut_schedule`], [`ChaosPlan::cut_pairs`] and `CutSet`.

use std::collections::HashMap;
use std::hash::Hash;

use fork_net::FaultPlan;

/// How a crashed node's store comes back at restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// The persisted store survived intact; only the downtime must be
    /// resynced.
    Intact,
    /// The newest `depth` canonical blocks were lost (a corrupted or
    /// half-written tail): the store is truncated via
    /// `ChainStore::truncate_tail` before resync.
    TruncatedTail {
        /// Canonical blocks dropped from the tail.
        depth: usize,
    },
}

/// One scripted crash: the node goes dark at `at_secs` losing all volatile
/// state (gossip filters, orphan pool, in-flight requests), and restarts
/// `down_secs` later from its persisted [`fork_chain::ChainStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Index of the crashing node.
    pub node: usize,
    /// Crash time, seconds into the run.
    pub at_secs: u64,
    /// Downtime before the restart, seconds.
    pub down_secs: u64,
    /// Store condition at restart.
    pub recovery: RecoveryMode,
}

/// A window during which every link runs a harsher [`FaultPlan`] than the
/// run's baseline (e.g. a 15%-drop storm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationWindow {
    /// Window start, seconds into the run (inclusive).
    pub from_secs: u64,
    /// Window end, seconds into the run (exclusive).
    pub until_secs: u64,
    /// Fault plan replacing the baseline inside the window.
    pub faults: FaultPlan,
}

/// What a byzantine node does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineBehavior {
    /// An equivocating miner: every block it finds, it also mines and sends
    /// a *conflicting twin* at the same height to half its peers, feeding
    /// both sides of a transient fork.
    Equivocate,
    /// Re-announces its stale head to all peers every `period_secs`
    /// (exercising gossip dedup) and announces `fake_hashes` nonexistent
    /// blocks per round (exercising the request/timeout/scoring path).
    StaleSpam {
        /// Seconds between spam rounds.
        period_secs: u64,
        /// Nonexistent block hashes announced per round.
        fake_hashes: usize,
    },
    /// Flips one byte of every frame it sends — detected by the frame
    /// checksum at every receiver, so its traffic is pure waste.
    CorruptFrames,
}

impl ByzantineBehavior {
    /// Short stable label used in trace events and reports.
    pub const fn label(self) -> &'static str {
        match self {
            ByzantineBehavior::Equivocate => "equivocation",
            ByzantineBehavior::StaleSpam { .. } => "stale_spam",
            ByzantineBehavior::CorruptFrames => "corrupt_frames",
        }
    }
}

/// A node scripted to misbehave, optionally until a deadline (after which it
/// acts honestly — letting convergence-after-faults be tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineNode {
    /// Index of the misbehaving node.
    pub node: usize,
    /// The behavior.
    pub behavior: ByzantineBehavior,
    /// Seconds into the run at which the node turns honest (`None` =
    /// misbehaves for the whole run).
    pub until_secs: Option<u64>,
}

/// A scripted network partition: at `at_ms` every topology edge whose
/// endpoints fall in *different* `groups` is severed; at `heal_at_ms` (when
/// set) those edges are restored — except edges under a still-active
/// misbehavior ban, and edges whose endpoints no longer pass the Status
/// handshake (cross-fork pairs stay apart). Nodes absent from every group
/// are unaffected. `heal_at_ms: None` means the partition never heals,
/// which is the negative control for the convergence invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEvent {
    /// Partition start, milliseconds into the run.
    pub at_ms: u64,
    /// Disjoint node groups; edges *between* groups are severed, edges
    /// within a group are untouched.
    pub groups: Vec<Vec<usize>>,
    /// Heal time, milliseconds into the run (`None` = never heals).
    pub heal_at_ms: Option<u64>,
}

/// A scripted single-node isolation: at `at_ms` every edge touching `node`
/// is severed; at `rejoin_at_ms` (when set) they are restored under the same
/// ban/handshake caveats as [`PartitionEvent`] heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsolationEvent {
    /// The isolated node.
    pub node: usize,
    /// Isolation start, milliseconds into the run.
    pub at_ms: u64,
    /// Rejoin time, milliseconds into the run (`None` = never rejoins).
    pub rejoin_at_ms: Option<u64>,
}

/// One step of a plan's cut timeline (see [`ChaosPlan::cut_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutChange {
    /// Partition `idx` starts: its cross-group pairs are cut.
    PartitionStarts(usize),
    /// Partition `idx` heals: its cuts lift.
    PartitionHeals(usize),
    /// Isolation `idx` starts: every pair touching its node is cut.
    NodeIsolated(usize),
    /// Isolation `idx` ends: its cuts lift.
    NodeRejoins(usize),
}

impl CutChange {
    /// Whether the change lifts cuts (a heal or rejoin) rather than adding
    /// them.
    pub const fn lifts(self) -> bool {
        matches!(self, Self::PartitionHeals(_) | Self::NodeRejoins(_))
    }
}

/// An invalid [`ChaosPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosPlanError {
    /// A crash/byzantine entry names a node index outside the network.
    NodeOutOfRange {
        /// The offending index.
        node: usize,
        /// Network size.
        n_nodes: usize,
    },
    /// A crash has zero downtime (restart would coincide with the crash).
    ZeroDowntime {
        /// The crashing node.
        node: usize,
    },
    /// A degradation window is empty or inverted.
    EmptyWindow {
        /// Window start (seconds).
        from_secs: u64,
        /// Window end (seconds).
        until_secs: u64,
    },
    /// A stale-spam behavior with a zero period would fire unboundedly.
    ZeroSpamPeriod {
        /// The spamming node.
        node: usize,
    },
    /// A partition heals at (or before) the instant it starts.
    EmptyPartitionWindow {
        /// Partition start (milliseconds).
        at_ms: u64,
        /// Scripted heal time (milliseconds).
        heal_at_ms: u64,
    },
    /// A partition with fewer than two non-empty groups severs nothing.
    DegeneratePartition {
        /// Partition start (milliseconds).
        at_ms: u64,
    },
    /// The same node appears twice across one partition's groups.
    DuplicatePartitionNode {
        /// The duplicated node.
        node: usize,
    },
    /// An isolation rejoins at (or before) the instant it starts.
    EmptyIsolationWindow {
        /// The isolated node.
        node: usize,
    },
    /// The same node appears in more than one byzantine entry.
    DuplicateByzantineNode {
        /// The duplicated node.
        node: usize,
    },
    /// A crash is scripted while its target is isolated: the node is already
    /// dark to the network, so the crash would test nothing and the restart
    /// resync would hang against zero peers.
    CrashWhileIsolated {
        /// The crashing (and isolated) node.
        node: usize,
        /// Crash time (seconds).
        at_secs: u64,
    },
}

impl std::fmt::Display for ChaosPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosPlanError::NodeOutOfRange { node, n_nodes } => {
                write!(
                    f,
                    "chaos plan names node {node} but the network has {n_nodes} nodes"
                )
            }
            ChaosPlanError::ZeroDowntime { node } => {
                write!(f, "crash of node {node} has zero downtime")
            }
            ChaosPlanError::EmptyWindow {
                from_secs,
                until_secs,
            } => {
                write!(f, "degradation window {from_secs}s..{until_secs}s is empty")
            }
            ChaosPlanError::ZeroSpamPeriod { node } => {
                write!(f, "stale-spam node {node} has a zero period")
            }
            ChaosPlanError::EmptyPartitionWindow { at_ms, heal_at_ms } => {
                write!(
                    f,
                    "partition window {at_ms}ms..{heal_at_ms}ms is empty or inverted"
                )
            }
            ChaosPlanError::DegeneratePartition { at_ms } => {
                write!(
                    f,
                    "partition at {at_ms}ms needs at least two non-empty groups"
                )
            }
            ChaosPlanError::DuplicatePartitionNode { node } => {
                write!(f, "node {node} appears twice in one partition's groups")
            }
            ChaosPlanError::EmptyIsolationWindow { node } => {
                write!(f, "isolation of node {node} rejoins at or before its start")
            }
            ChaosPlanError::DuplicateByzantineNode { node } => {
                write!(f, "node {node} has more than one byzantine behavior")
            }
            ChaosPlanError::CrashWhileIsolated { node, at_secs } => {
                write!(
                    f,
                    "crash of node {node} at {at_secs}s lands inside its isolation window"
                )
            }
        }
    }
}

impl std::error::Error for ChaosPlanError {}

/// A deterministic fault schedule for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Scripted crash/restart cycles.
    pub crashes: Vec<CrashEvent>,
    /// Link-degradation windows (the first window containing `now` wins).
    pub degradations: Vec<DegradationWindow>,
    /// Scripted byzantine peers (at most one behavior per node; later
    /// entries for the same node are rejected by [`ChaosPlan::validate`]).
    pub byzantine: Vec<ByzantineNode>,
    /// Scripted network partitions (overlapping windows compose: an edge
    /// stays severed until every partition covering it has healed).
    pub partitions: Vec<PartitionEvent>,
    /// Scripted single-node isolations.
    pub isolations: Vec<IsolationEvent>,
}

impl ChaosPlan {
    /// The empty plan: no crashes, no windows, no byzantine peers, no
    /// partitions. A run with this plan is event-for-event identical to a
    /// run without the chaos layer.
    pub const NONE: ChaosPlan = ChaosPlan {
        crashes: Vec::new(),
        degradations: Vec::new(),
        byzantine: Vec::new(),
        partitions: Vec::new(),
        isolations: Vec::new(),
    };

    /// True when the plan schedules nothing.
    pub fn is_none(&self) -> bool {
        self.crashes.is_empty()
            && self.degradations.is_empty()
            && self.byzantine.is_empty()
            && self.partitions.is_empty()
            && self.isolations.is_empty()
    }

    /// Appends a partition of the topology into `groups` starting at
    /// `at_ms`, initially never healing. Chain with
    /// [`ChaosPlan::heal_partition`] to script the heal; leave unhealed for
    /// the convergence-invariant negative control.
    pub fn create_partition(mut self, at_ms: u64, groups: Vec<Vec<usize>>) -> Self {
        self.partitions.push(PartitionEvent {
            at_ms,
            groups,
            heal_at_ms: None,
        });
        self
    }

    /// Sets the heal time of the most recently created partition.
    ///
    /// # Panics
    /// Panics when no partition has been created yet — that is builder
    /// misuse, not a data error (plan *data* is checked by
    /// [`ChaosPlan::validate`]).
    pub fn heal_partition(mut self, heal_at_ms: u64) -> Self {
        self.partitions
            .last_mut()
            .expect("heal_partition without create_partition")
            .heal_at_ms = Some(heal_at_ms);
        self
    }

    /// Appends an isolation of `node` starting at `at_ms`, initially never
    /// rejoining. Chain with [`ChaosPlan::rejoin`] to script the rejoin.
    pub fn isolate_node(mut self, node: usize, at_ms: u64) -> Self {
        self.isolations.push(IsolationEvent {
            node,
            at_ms,
            rejoin_at_ms: None,
        });
        self
    }

    /// Sets the rejoin time of the most recent isolation of `node`.
    ///
    /// # Panics
    /// Panics when `node` has no isolation yet (builder misuse).
    pub fn rejoin(mut self, node: usize, rejoin_at_ms: u64) -> Self {
        self.isolations
            .iter_mut()
            .rev()
            .find(|i| i.node == node)
            .unwrap_or_else(|| panic!("rejoin({node}, ..) without isolate_node"))
            .rejoin_at_ms = Some(rejoin_at_ms);
        self
    }

    /// Checks the plan against a network of `n_nodes` nodes.
    pub fn validate(&self, n_nodes: usize) -> Result<(), ChaosPlanError> {
        let check_node = |node: usize| -> Result<(), ChaosPlanError> {
            if node >= n_nodes {
                return Err(ChaosPlanError::NodeOutOfRange { node, n_nodes });
            }
            Ok(())
        };
        for c in &self.crashes {
            check_node(c.node)?;
            if c.down_secs == 0 {
                return Err(ChaosPlanError::ZeroDowntime { node: c.node });
            }
            // A crash landing inside an isolation window would restart into
            // a peerless resync; the half-open window mirrors the heal
            // semantics (a crash *at* the rejoin instant is fine).
            let at_ms = c.at_secs * 1_000;
            for i in &self.isolations {
                let rejoins = i.rejoin_at_ms.map_or(u64::MAX, |r| r);
                if i.node == c.node && i.at_ms <= at_ms && at_ms < rejoins {
                    return Err(ChaosPlanError::CrashWhileIsolated {
                        node: c.node,
                        at_secs: c.at_secs,
                    });
                }
            }
        }
        for w in &self.degradations {
            if w.from_secs >= w.until_secs {
                return Err(ChaosPlanError::EmptyWindow {
                    from_secs: w.from_secs,
                    until_secs: w.until_secs,
                });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for b in &self.byzantine {
            check_node(b.node)?;
            if !seen.insert(b.node) {
                return Err(ChaosPlanError::DuplicateByzantineNode { node: b.node });
            }
            if let ByzantineBehavior::StaleSpam { period_secs: 0, .. } = b.behavior {
                return Err(ChaosPlanError::ZeroSpamPeriod { node: b.node });
            }
        }
        for p in &self.partitions {
            if let Some(heal_at_ms) = p.heal_at_ms {
                if heal_at_ms <= p.at_ms {
                    return Err(ChaosPlanError::EmptyPartitionWindow {
                        at_ms: p.at_ms,
                        heal_at_ms,
                    });
                }
            }
            if p.groups.iter().filter(|g| !g.is_empty()).count() < 2 {
                return Err(ChaosPlanError::DegeneratePartition { at_ms: p.at_ms });
            }
            let mut members = std::collections::HashSet::new();
            for &node in p.groups.iter().flatten() {
                check_node(node)?;
                if !members.insert(node) {
                    return Err(ChaosPlanError::DuplicatePartitionNode { node });
                }
            }
        }
        for i in &self.isolations {
            check_node(i.node)?;
            if let Some(rejoin_at_ms) = i.rejoin_at_ms {
                if rejoin_at_ms <= i.at_ms {
                    return Err(ChaosPlanError::EmptyIsolationWindow { node: i.node });
                }
            }
        }
        Ok(())
    }

    /// The fault plan governing links at `now_ms`, if a degradation window
    /// is active (the baseline plan applies otherwise).
    pub fn link_faults_at(&self, now_ms: u64) -> Option<FaultPlan> {
        self.degradations
            .iter()
            .find(|w| w.from_secs * 1_000 <= now_ms && now_ms < w.until_secs * 1_000)
            .map(|w| w.faults)
    }

    /// The cut timeline as `(at_ms, change)`: each partition's start and
    /// heal in plan order, then each isolation's start and rejoin. Both
    /// engines keep this order among changes at the same instant.
    pub fn cut_schedule(&self) -> Vec<(u64, CutChange)> {
        let mut schedule = Vec::new();
        for (idx, p) in self.partitions.iter().enumerate() {
            schedule.push((p.at_ms, CutChange::PartitionStarts(idx)));
            if let Some(heal) = p.heal_at_ms {
                schedule.push((heal, CutChange::PartitionHeals(idx)));
            }
        }
        for (idx, i) in self.isolations.iter().enumerate() {
            schedule.push((i.at_ms, CutChange::NodeIsolated(idx)));
            if let Some(rejoin) = i.rejoin_at_ms {
                schedule.push((rejoin, CutChange::NodeRejoins(idx)));
            }
        }
        schedule
    }

    /// Every `(lo, hi)` node pair `change` cuts or lifts among `n_nodes`,
    /// edge or not, in plan order: heals restore edges in this order, and
    /// adjacency-list order shapes gossip fan-out.
    pub fn cut_pairs(&self, change: CutChange, n_nodes: usize) -> Vec<(usize, usize)> {
        match change {
            CutChange::PartitionStarts(idx) | CutChange::PartitionHeals(idx) => {
                let groups = &self.partitions[idx].groups;
                let mut pairs = Vec::new();
                for (gi, ga) in groups.iter().enumerate() {
                    for gb in &groups[gi + 1..] {
                        for &a in ga {
                            pairs.extend(gb.iter().map(|&b| pair_key(a, b)));
                        }
                    }
                }
                pairs
            }
            CutChange::NodeIsolated(idx) | CutChange::NodeRejoins(idx) => {
                let node = self.isolations[idx].node;
                (0..n_nodes)
                    .filter(|&j| j != node)
                    .map(|j| pair_key(node, j))
                    .collect()
            }
        }
    }
}

/// The normalized `(lo, hi)` key of an undirected node pair.
pub(crate) fn pair_key<T: Ord + Copy>(a: T, b: T) -> (T, T) {
    (a.min(b), a.max(b))
}

/// The node pairs currently cut, as a multiset: a pair under overlapping
/// cuts stays cut until the last of them lifts.
#[derive(Debug, Clone, Default)]
pub(crate) struct CutSet<K> {
    count: HashMap<K, u32>,
}

impl<K: Hash + Eq> CutSet<K> {
    /// Adds one cut over `pair`; true when it is the pair's first.
    pub fn cut(&mut self, pair: K) -> bool {
        let c = self.count.entry(pair).or_insert(0);
        *c += 1;
        *c == 1
    }

    /// Lifts one cut over `pair`; true when it was the pair's last. Lifting
    /// a pair that is not cut does nothing.
    pub fn lift(&mut self, pair: K) -> bool {
        match self.count.get_mut(&pair) {
            Some(1) => {
                self.count.remove(&pair);
                true
            }
            Some(c) => {
                *c -= 1;
                false
            }
            None => false,
        }
    }

    /// Whether any cut covers `pair`.
    pub fn is_cut(&self, pair: &K) -> bool {
        self.count.contains_key(pair)
    }
}

/// Misbehavior score added when a peer's frame fails the checksum.
pub const SCORE_CORRUPT_FRAME: u32 = 3;
/// Misbehavior score added when a peer's block fails validation.
pub const SCORE_INVALID_BLOCK: u32 = 4;
/// Misbehavior score added when a request to a peer times out past its
/// retry budget (per timeout, including the final give-up).
pub const SCORE_TIMEOUT: u32 = 2;

/// Tunables for the resilient sync path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// How long a header/body request may stay unanswered before a retry,
    /// in milliseconds. The engine raises this automatically to cover the
    /// configured link round trip.
    pub request_timeout_ms: u64,
    /// Retries per request before giving up (total attempts = retries + 1).
    pub max_retries: u32,
    /// Base backoff before the first retry, milliseconds; doubles per
    /// subsequent retry.
    pub backoff_base_ms: u64,
    /// Uniform jitter added on top of each backoff, milliseconds.
    pub backoff_jitter_ms: u64,
    /// Misbehavior points a peer may accumulate before being banned.
    pub misbehavior_budget: u32,
    /// Score decay: one point forgiven per this many milliseconds, so
    /// sparse accidents (lossy links) never accumulate into a ban.
    pub decay_ms_per_point: u64,
    /// Ban length, seconds. Expired bans re-admit the peer if (and only if)
    /// the Status handshake still passes.
    pub ban_secs: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            request_timeout_ms: 3_000,
            max_retries: 3,
            backoff_base_ms: 500,
            backoff_jitter_ms: 250,
            misbehavior_budget: 12,
            decay_ms_per_point: 10_000,
            ban_secs: 120,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_empty_and_valid() {
        assert!(ChaosPlan::NONE.is_none());
        assert!(ChaosPlan::default().is_none());
        assert_eq!(ChaosPlan::NONE, ChaosPlan::default());
        ChaosPlan::NONE.validate(0).unwrap();
        assert_eq!(ChaosPlan::NONE.link_faults_at(0), None);
    }

    #[test]
    fn validate_rejects_out_of_range_nodes() {
        let plan = ChaosPlan {
            crashes: vec![CrashEvent {
                node: 5,
                at_secs: 10,
                down_secs: 5,
                recovery: RecoveryMode::Intact,
            }],
            ..ChaosPlan::default()
        };
        plan.validate(6).unwrap();
        assert_eq!(
            plan.validate(5),
            Err(ChaosPlanError::NodeOutOfRange {
                node: 5,
                n_nodes: 5
            })
        );
        // Every event class must be range-checked — a plan written for a
        // bigger topology fails fast instead of silently no-opping or
        // panicking mid-run.
        let iso = ChaosPlan::NONE.isolate_node(9, 1_000);
        iso.validate(10).unwrap();
        assert_eq!(
            iso.validate(9),
            Err(ChaosPlanError::NodeOutOfRange {
                node: 9,
                n_nodes: 9
            })
        );
        let byz = ChaosPlan {
            byzantine: vec![ByzantineNode {
                node: 4,
                behavior: ByzantineBehavior::Equivocate,
                until_secs: None,
            }],
            ..ChaosPlan::default()
        };
        byz.validate(5).unwrap();
        assert_eq!(
            byz.validate(4),
            Err(ChaosPlanError::NodeOutOfRange {
                node: 4,
                n_nodes: 4
            })
        );
    }

    #[test]
    fn validate_rejects_zero_downtime_and_duplicates() {
        let plan = ChaosPlan {
            crashes: vec![CrashEvent {
                node: 0,
                at_secs: 10,
                down_secs: 0,
                recovery: RecoveryMode::Intact,
            }],
            ..ChaosPlan::default()
        };
        assert_eq!(
            plan.validate(4),
            Err(ChaosPlanError::ZeroDowntime { node: 0 })
        );

        let twice = ChaosPlan {
            byzantine: vec![
                ByzantineNode {
                    node: 1,
                    behavior: ByzantineBehavior::Equivocate,
                    until_secs: None,
                },
                ByzantineNode {
                    node: 1,
                    behavior: ByzantineBehavior::CorruptFrames,
                    until_secs: None,
                },
            ],
            ..ChaosPlan::default()
        };
        assert!(twice.validate(4).is_err(), "one behavior per node");
    }

    #[test]
    fn validate_rejects_empty_windows_and_zero_periods() {
        let window = ChaosPlan {
            degradations: vec![DegradationWindow {
                from_secs: 100,
                until_secs: 100,
                faults: FaultPlan::NONE,
            }],
            ..ChaosPlan::default()
        };
        assert!(matches!(
            window.validate(1),
            Err(ChaosPlanError::EmptyWindow { .. })
        ));

        let spam = ChaosPlan {
            byzantine: vec![ByzantineNode {
                node: 0,
                behavior: ByzantineBehavior::StaleSpam {
                    period_secs: 0,
                    fake_hashes: 1,
                },
                until_secs: None,
            }],
            ..ChaosPlan::default()
        };
        assert_eq!(
            spam.validate(1),
            Err(ChaosPlanError::ZeroSpamPeriod { node: 0 })
        );
    }

    #[test]
    fn degradation_window_boundaries_are_half_open() {
        let storm = FaultPlan::new(0.15, 0.0, 0.0).unwrap();
        let plan = ChaosPlan {
            degradations: vec![DegradationWindow {
                from_secs: 60,
                until_secs: 120,
                faults: storm,
            }],
            ..ChaosPlan::default()
        };
        plan.validate(1).unwrap();
        assert_eq!(plan.link_faults_at(59_999), None);
        assert_eq!(plan.link_faults_at(60_000), Some(storm));
        assert_eq!(plan.link_faults_at(119_999), Some(storm));
        assert_eq!(plan.link_faults_at(120_000), None);
    }

    #[test]
    fn partition_builders_compose() {
        let plan = ChaosPlan::NONE
            .create_partition(60_000, vec![vec![0, 1], vec![2, 3]])
            .heal_partition(120_000)
            .isolate_node(1, 200_000)
            .rejoin(1, 260_000);
        plan.validate(4).unwrap();
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.partitions[0].heal_at_ms, Some(120_000));
        assert_eq!(plan.isolations.len(), 1);
        assert_eq!(plan.isolations[0].rejoin_at_ms, Some(260_000));
        assert!(!plan.is_none());

        // An unhealed partition is legal: it is the negative control.
        ChaosPlan::NONE
            .create_partition(0, vec![vec![0], vec![1]])
            .validate(2)
            .unwrap();
    }

    #[test]
    fn validate_rejects_bad_partitions() {
        // heal <= start, boundary inclusive.
        let flat = ChaosPlan::NONE
            .create_partition(60_000, vec![vec![0], vec![1]])
            .heal_partition(60_000);
        assert_eq!(
            flat.validate(2),
            Err(ChaosPlanError::EmptyPartitionWindow {
                at_ms: 60_000,
                heal_at_ms: 60_000
            })
        );
        let inverted = ChaosPlan::NONE
            .create_partition(60_000, vec![vec![0], vec![1]])
            .heal_partition(59_999);
        assert!(inverted.validate(2).is_err());
        // heal = start + 1 is the smallest legal window.
        ChaosPlan::NONE
            .create_partition(60_000, vec![vec![0], vec![1]])
            .heal_partition(60_001)
            .validate(2)
            .unwrap();

        // Duplicate node within a group and across groups.
        let dup_in_group = ChaosPlan::NONE.create_partition(0, vec![vec![0, 0], vec![1]]);
        assert_eq!(
            dup_in_group.validate(2),
            Err(ChaosPlanError::DuplicatePartitionNode { node: 0 })
        );
        let dup_across = ChaosPlan::NONE.create_partition(0, vec![vec![0, 1], vec![1, 2]]);
        assert_eq!(
            dup_across.validate(3),
            Err(ChaosPlanError::DuplicatePartitionNode { node: 1 })
        );

        // Unknown node, fewer than two non-empty groups.
        let unknown = ChaosPlan::NONE.create_partition(0, vec![vec![0], vec![7]]);
        assert_eq!(
            unknown.validate(3),
            Err(ChaosPlanError::NodeOutOfRange {
                node: 7,
                n_nodes: 3
            })
        );
        let lone = ChaosPlan::NONE.create_partition(0, vec![vec![0, 1], vec![]]);
        assert_eq!(
            lone.validate(2),
            Err(ChaosPlanError::DegeneratePartition { at_ms: 0 })
        );
    }

    #[test]
    fn validate_rejects_bad_isolations_and_crash_overlap() {
        let inverted = ChaosPlan::NONE.isolate_node(0, 10_000).rejoin(0, 10_000);
        assert_eq!(
            inverted.validate(1),
            Err(ChaosPlanError::EmptyIsolationWindow { node: 0 })
        );

        let crash = CrashEvent {
            node: 2,
            at_secs: 100,
            down_secs: 30,
            recovery: RecoveryMode::Intact,
        };
        let overlapping = ChaosPlan {
            crashes: vec![crash],
            ..ChaosPlan::NONE
        }
        .isolate_node(2, 90_000)
        .rejoin(2, 150_000);
        assert_eq!(
            overlapping.validate(4),
            Err(ChaosPlanError::CrashWhileIsolated {
                node: 2,
                at_secs: 100
            })
        );
        // Crash exactly at the rejoin instant is legal (half-open window),
        // as is crashing a different node during the isolation.
        let at_rejoin = ChaosPlan {
            crashes: vec![CrashEvent {
                at_secs: 150,
                ..crash
            }],
            ..ChaosPlan::NONE
        }
        .isolate_node(2, 90_000)
        .rejoin(2, 150_000);
        at_rejoin.validate(4).unwrap();
        let other_node = ChaosPlan {
            crashes: vec![CrashEvent { node: 3, ..crash }],
            ..ChaosPlan::NONE
        }
        .isolate_node(2, 90_000)
        .rejoin(2, 150_000);
        other_node.validate(4).unwrap();
        // Crashing a node under a never-ending isolation is always rejected.
        let never_rejoins = ChaosPlan {
            crashes: vec![CrashEvent {
                at_secs: 9_999,
                ..crash
            }],
            ..ChaosPlan::NONE
        }
        .isolate_node(2, 0);
        assert!(matches!(
            never_rejoins.validate(4),
            Err(ChaosPlanError::CrashWhileIsolated { node: 2, .. })
        ));
    }

    #[test]
    fn cut_schedule_and_pairs_follow_plan_order() {
        let plan = ChaosPlan::NONE
            .create_partition(60_000, vec![vec![3, 0], vec![1], vec![2]])
            .heal_partition(120_000)
            .isolate_node(1, 30_000)
            .create_partition(90_000, vec![vec![0], vec![1]]);
        assert_eq!(
            plan.cut_schedule(),
            vec![
                (60_000, CutChange::PartitionStarts(0)),
                (120_000, CutChange::PartitionHeals(0)),
                (90_000, CutChange::PartitionStarts(1)),
                (30_000, CutChange::NodeIsolated(0)),
            ]
        );
        let heal = CutChange::PartitionHeals(0);
        assert!(heal.lifts() && !CutChange::PartitionStarts(0).lifts());
        assert_eq!(
            plan.cut_pairs(heal, 4),
            vec![(1, 3), (0, 1), (2, 3), (0, 2), (1, 2)]
        );
        assert_eq!(
            plan.cut_pairs(CutChange::NodeIsolated(0), 4),
            vec![(0, 1), (1, 2), (1, 3)]
        );
    }

    #[test]
    fn cut_set_counts_overlapping_cuts() {
        let mut cuts = CutSet::default();
        assert!(!cuts.lift((0, 1)), "lifting an uncut pair is a no-op");
        assert!(cuts.cut((0, 1)), "first cut");
        assert!(!cuts.cut((0, 1)), "second, overlapping cut");
        assert!(!cuts.lift((0, 1)) && cuts.is_cut(&(0, 1)));
        assert!(cuts.lift((0, 1)), "last lift");
        assert!(!cuts.is_cut(&(0, 1)));
    }

    #[test]
    fn resilience_defaults_are_sane() {
        let r = ResilienceConfig::default();
        assert!(r.request_timeout_ms > 0);
        assert!(r.max_retries > 0);
        assert!(r.misbehavior_budget >= SCORE_INVALID_BLOCK);
        assert!(r.decay_ms_per_point > 0);
        assert!(r.ban_secs > 0);
    }
}
