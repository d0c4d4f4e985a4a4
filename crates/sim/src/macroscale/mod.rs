//! # fork-macro — the macro-scale simulation subsystem
//!
//! The micro engine demonstrates *how* the partition happens at the message
//! level on a handful of fully modeled nodes; this module family scales the
//! same questions to 1,000+ nodes on *realistic* topologies so propagation
//! figures carry production-shaped structure:
//!
//! * [`topology`] — seeded, validated topology generation: Ethna-style
//!   power-law degree distributions (arXiv 2010.01373), geo-latency
//!   clusters with intra/inter-cluster RTT bands (arXiv 2005.06356), and
//!   client-diversity node labels (arXiv 2501.16236).
//! * [`engine`] — the deterministic lock-step engine ([`MacroNet`]):
//!   per-node forked RNG streams, one delivery bucket per future round,
//!   a one-thread round that steps only the nodes with a delivery or a
//!   find due, fixed step and merge order, and first-class
//!   [`crate::chaos::ChaosPlan`] partition/isolation/degradation support
//!   shared with the micro engine. `tests/macro_determinism.rs` holds its
//!   reports to a recorded fixture.
//! * [`presets`] — calibrated scenarios: the two-cluster partition/heal
//!   acceptance run and the pre/post-fork propagation measurement.

pub mod engine;
pub mod presets;
pub mod topology;

pub use engine::{MacroConfig, MacroError, MacroNet, MacroReport, PropagationStats};
pub use presets::{macro_partition, macro_propagation, MacroPreset};
pub use topology::{
    cluster_quotas, generate, ClientKind, GeoCluster, MacroTopology, TopologyError,
    TopologyGenConfig, TopologyStats,
};
