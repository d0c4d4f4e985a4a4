//! # fork-sim
//!
//! The simulation engines driving every experiment:
//!
//! * [`meso`] — the two-chain block-by-block engine (one [`fork_chain::ChainStore`]
//!   per network, exact non-homogeneous Poisson block discovery, real
//!   transaction execution, the echo channel, pool dynamics). Generates
//!   Figures 1–5 and the in-text observations.
//! * [`micro`] — the fully networked engine (per-node stores, Kademlia
//!   topology, gossip with latency and fault injection) demonstrating *how*
//!   the partition happens at the message level, and measuring uncle rates
//!   for the gossip ablation.
//! * [`resolved`] — the resolved-fork experiment reproducing the paper's
//!   86-block (ETH) vs 3,583-block (ETC) minority-branch comparison.
//! * [`scenario`] — calibrated presets binding the historical timeline.
//! * [`chaos`] — deterministic fault-injection plans (node crashes and
//!   restarts, link-degradation windows, byzantine peers, network partitions
//!   and node isolations with scripted heals, cut the same way in both
//!   engines) and the micro engine's resilience knobs.
//! * [`invariants`] — the safety conditions a chaos run must never violate,
//!   and the census and heal/reorg checks both engines share.
//! * [`macroscale`] — the 1,000+ node macro-scale engine: seeded realistic
//!   topology generation (power-law degrees, geo-latency clusters, client
//!   diversity) and a deterministic lock-step round engine that steps only
//!   the nodes with work each round, running the same chaos plans and
//!   convergence invariants at production scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod invariants;
pub mod macroscale;
pub mod meso;
pub mod micro;
pub mod observer;
pub mod resolved;
pub mod rng;
pub mod scenario;
pub mod schedule;
pub mod workload;

pub use chaos::{
    ByzantineBehavior, ByzantineNode, ChaosPlan, ChaosPlanError, CrashEvent, DegradationWindow,
    IsolationEvent, PartitionEvent, RecoveryMode, ResilienceConfig,
};
pub use invariants::{
    check_heal_convergence, check_invariants, check_reorg_depth, check_side_agreement,
    partition_census, violation_report, InvariantViolation, NetView,
};
pub use macroscale::{
    macro_partition, macro_propagation, ClientKind, GeoCluster, MacroConfig, MacroError, MacroNet,
    MacroPreset, MacroReport, MacroTopology, PropagationStats, TopologyError, TopologyGenConfig,
    TopologyStats,
};
pub use meso::{MesoConfig, NetworkParams, ProgressEvent, RunSummary, TwoChainEngine};
pub use micro::{MicroConfig, MicroNet, MicroReport};
pub use observer::{CountingSink, LedgerSink, MeteredSink, NullSink, TeeSink};
pub use resolved::{ResolvedForkConfig, ResolvedForkOutcome};
pub use rng::SimRng;
pub use scenario::{
    atlas_duration_sweep, atlas_never_healed, atlas_presets, atlas_reorg_bound, AtlasPreset,
};
pub use schedule::StepSeries;
pub use workload::{UserPopulation, WorkloadParams};
