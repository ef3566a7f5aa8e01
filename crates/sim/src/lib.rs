//! # dmis-sim
//!
//! A discrete message-passing simulator realizing the distributed model of
//! *Optimal Dynamic Distributed MIS* (Section 2 of the paper):
//!
//! - an undirected communication graph whose nodes exchange **broadcast**
//!   messages (a message sent by a node is heard by all of its neighbors; a
//!   node cannot send different messages to different neighbors in the same
//!   round);
//! - **synchronous** rounds ([`SyncNetwork`]) and an **asynchronous** mode
//!   ([`AsyncNetwork`]) where message delays are arbitrary and the round
//!   complexity is the longest causal chain of messages;
//! - **topology changes** between stable periods: edge insertion,
//!   graceful/abrupt edge deletion, node insertion, node unmuting, and
//!   graceful/abrupt node deletion ([`dmis_graph::DistributedChange`]);
//! - the three complexity measures of the paper: **adjustments** (output
//!   changes), **rounds** (to re-stabilization), and **broadcasts** (number
//!   of `O(log n)`-bit broadcast messages), plus exact **bit** accounting;
//! - a **sharded-deployment harness** ([`ShardedRun`]) metering the
//!   K-shard engine of `dmis-core` in the same vocabulary: barrier epochs
//!   as rounds, cross-shard handoffs as broadcasts;
//! - an **ingestion harness** ([`IngestRun`]) putting the coalescing
//!   change queue of `dmis-core`'s unified API in front of any
//!   [`dmis_core::DynamicMis`] engine, metering the queue-depth
//!   (latency) vs settle-work (broadcasts/rounds) trade-off end to end;
//! - a **serving harness** ([`ServeRun`]) replaying an ingest stream on
//!   a writer thread while R concurrent [`dmis_core::MisReader`]
//!   threads sample the epoch-versioned snapshot channel — metering
//!   read throughput, snapshot staleness, flush (update) latency, and
//!   the queue-delay SLO percentiles — optionally made durable
//!   ([`ServeRun::with_durability`]) with log-then-publish WAL appends
//!   and periodic checkpoints from `dmis-core`'s durability layer;
//! - a **crash-restart drill** ([`crash_restart_drill`]) killing a
//!   durable writer at a seeded byte, recovering, resuming the stream,
//!   and asserting the result is bit-identical to an uncrashed twin
//!   with no reader-visible epoch regression;
//! - a shared **deployment builder** ([`RunConfig`]) both harnesses
//!   boot from, so a sweep varies one axis (flush policy, shard count,
//!   readers) with every other held fixed.
//!
//! This crate is the *substitution* for the paper's (purely abstract)
//! distributed environment — see the repository-level `DESIGN.md`
//! ("Simulator as the distributed environment"). Protocols plug in via the
//! [`Protocol`]/[`Automaton`] traits (synchronous) and [`AsyncAutomaton`]
//! (asynchronous); the paper's algorithms themselves live in
//! `dmis-protocol`.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

mod async_net;
mod config;
mod drill;
mod event;
mod ingest;
mod metrics;
mod protocol;
mod serve;
mod sharded;
mod sync;

pub use async_net::{
    AsyncAutomaton, AsyncNetwork, AsyncOutcome, DelaySchedule, RandomDelays, UnitDelays,
};
pub use config::RunConfig;
pub use drill::{crash_restart_drill, DrillReport};
pub use event::{LocalEvent, NeighborInfo};
pub use ingest::IngestRun;
pub use metrics::{ChangeOutcome, Metrics};
pub use protocol::{Automaton, MessageBits, Protocol};
pub use serve::{ServeReport, ServeRun};
pub use sharded::ShardedRun;
pub use sync::{SyncNetwork, TraceEvent};
