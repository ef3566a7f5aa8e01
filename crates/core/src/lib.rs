//! # dmis-core
//!
//! The primary contribution of *Optimal Dynamic Distributed MIS*
//! (Censor-Hillel, Haramaty, Karnin, PODC 2016): maintaining a maximal
//! independent set under fully dynamic topology changes by simulating the
//! greedy sequential MIS algorithm over a uniformly random node order π.
//!
//! The paper's central guarantee (Theorem 1) is that the *influenced set*
//! `S` — the nodes that change output as a consequence of a single topology
//! change — has expected size at most 1, over the randomness of π. This
//! crate provides:
//!
//! - [`Priority`] / [`PriorityMap`]: the random order π, realized as a
//!   uniformly random 64-bit key per node with identifier tie-break;
//!   every settle loop drains a [`dmis_graph::SettleFront`] keyed by π
//!   itself, so inserting a node moves no other node's position;
//! - [`MisEngine`]: an efficient incremental maintainer of the random-greedy
//!   MIS (the "sequential dynamic" realization of the paper's template,
//!   Algorithm 1), reporting per-update [`UpdateReceipt`]s with the
//!   adjustment set and work counters;
//! - [`sharding`]: the engine's optional settle schedule over K shards by
//!   `NodeId` range ([`dmis_graph::ShardLayout`]) — the same tables,
//!   settled shard by shard in barrier-synchronized epochs that exchange
//!   cross-shard cascades as handoffs: bit-identical output, with the
//!   coordination traffic audited on every receipt;
//! - [`MisReader`] / [`MisSnapshot`] ([`snapshot`]): the epoch-versioned
//!   concurrent read path — every settle publishes the quiesced membership
//!   at its flush boundary, and cheaply-cloneable `Send + Sync` reader
//!   handles observe exactly those published states from other threads;
//! - [`durability`]: checkpoint/WAL persistence over an injectable
//!   storage trait, crash recovery that replays the log suffix to a
//!   bit-identical engine, and the in-memory
//!   [`verify_and_repair`](DynamicMis::verify_and_repair) healing tier;
//! - [`template`]: a faithful round-by-round simulation of the template,
//!   which records the full influenced set `S` including nodes that flip and
//!   flip back (the `u₂` example of Section 3), the number of parallel
//!   rounds, and the total number of state changes;
//! - [`static_greedy`]: the from-scratch greedy oracle used for
//!   history-independence checks;
//! - [`invariant`]: verifiers for the MIS invariant;
//! - [`theory`]: the `S'` construction of Section 3 (v* forced minimal),
//!   enabling machine-checking of Lemma 2 on random instances.
//!
//! # The MIS invariant
//!
//! A node `v` is in the MIS **iff** none of its neighbors `u` with
//! `π(u) < π(v)` is in the MIS. The unique assignment satisfying this is the
//! output of sequential greedy on π, which makes the algorithm *history
//! independent* (Section 5): the output distribution on a graph `G` depends
//! only on `G`, never on the change sequence that produced it.
//!
//! # Example
//!
//! ```
//! use dmis_core::Engine;
//! use dmis_graph::generators;
//!
//! let (g, ids) = generators::path(5);
//! let mut engine = Engine::builder().graph(g).seed(42).build_unsharded();
//! assert!(engine.check_invariant().is_ok());
//!
//! // A single change adjusts, in expectation, a single node.
//! let receipt = engine.remove_edge(ids[1], ids[2])?;
//! assert!(engine.check_invariant().is_ok());
//! println!("adjustments: {}", receipt.adjustments());
//! # Ok::<(), dmis_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod priority;
mod receipt;
mod state;

pub mod api;
pub mod durability;
pub mod invariant;
pub mod policy;
pub mod sharding;
pub mod snapshot;
pub mod static_greedy;
pub mod template;
pub mod theory;

pub use api::{
    ChangeCoalescer, DynamicMis, Engine, EngineBuilder, IngestReceipt, IngestSession,
    SettleStrategy,
};
pub use engine::MisEngine;
pub use policy::{AdaptiveConfig, Clock, FlushPolicy, ManualClock, MonotonicClock, QueueDelay};
pub use priority::{Priority, PriorityMap};
pub use receipt::{BatchReceipt, UpdateReceipt};
pub use snapshot::{MisReader, MisSnapshot, SnapshotIter};
pub use state::MisState;
