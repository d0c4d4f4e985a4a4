//! # stick-a-fork
//!
//! A from-scratch Rust reproduction of *"Stick a fork in it: Analyzing the
//! Ethereum network partition"* (Kiffer, Levin, Mislove — HotNets 2017).
//!
//! The workspace implements the paper's entire measured world as a
//! simulator — chain rules (difficulty adjustment, proof-of-work seals, the
//! DAO extra-data rule), a gas-metered EVM subset, a devp2p-style p2p layer
//! with Kademlia discovery, mining pools, a market model, the replay-attack
//! machinery — plus the paper's measurement pipeline, so that **every figure
//! and every in-text observation can be regenerated**.
//!
//! ## Quickstart
//!
//! ```
//! use stick_a_fork::core::{observations, ForkStudy};
//!
//! // Test-scale run (seconds). Use ForkStudy::days(seed, 280) for the
//! // paper-scale study (see the `make-figures` binary).
//! let result = ForkStudy::quick(42).run();
//! println!("{}", stick_a_fork::core::summary_text(&result));
//! let obs = observations::short_term(&result);
//! for o in &obs.observations {
//!     println!("[{}] {} -> {}", o.id, o.paper, o.measured);
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`primitives`] | `fork-primitives` | U256, hashes, addresses, time |
//! | [`crypto`] | `fork-crypto` | Keccak-256, recoverable signatures |
//! | [`rlp`] | `fork-rlp` | canonical RLP |
//! | [`chain`] | `fork-chain` | headers, transactions, difficulty, store |
//! | [`evm`] | `fork-evm` | gas-metered EVM subset, world state |
//! | [`net`] | `fork-net` | Kademlia, messages, gossip, fault injection |
//! | [`sim`] | `fork-sim` | two-chain + networked engines, scenarios |
//! | [`market`] | `fork-market` | prices, rational hashpower allocation |
//! | [`pools`] | `fork-pools` | payouts, pool dynamics, concentration |
//! | [`replay`] | `fork-replay` | echo detection, replay protection |
//! | [`analytics`] | `fork-analytics` | the measurement pipeline |
//! | [`archive`] | `fork-archive` | durable block/tx archive, replay, verify |
//! | [`query`] | `fork-query` | concurrent cached query engine over archives |
//! | [`serve`] | `fork-serve` | archive query daemon + load generator |
//! | [`explorer`] | `fork-explorer` | hash-indexed lookups, explorer pages |
//! | [`core`] | `fork-core` | `ForkStudy`, figures, observations |
//! | [`telemetry`] | `fork-telemetry` | counters, histograms, span timers |

#![forbid(unsafe_code)]

pub use fork_analytics as analytics;
pub use fork_archive as archive;
pub use fork_chain as chain;
pub use fork_core as core;
pub use fork_crypto as crypto;
pub use fork_evm as evm;
pub use fork_explorer as explorer;
pub use fork_market as market;
pub use fork_net as net;
pub use fork_pools as pools;
pub use fork_primitives as primitives;
pub use fork_query as query;
pub use fork_replay as replay;
pub use fork_rlp as rlp;
pub use fork_serve as serve;
pub use fork_sim as sim;
pub use fork_telemetry as telemetry;
