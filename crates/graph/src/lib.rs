//! # dmis-graph
//!
//! Dynamic undirected graph substrate for the *Optimal Dynamic Distributed
//! MIS* reproduction (Censor-Hillel, Haramaty, Karnin, PODC 2016).
//!
//! The paper's dynamic distributed model is a sequence of single topology
//! changes (edge/node × insertion/deletion) applied to an undirected
//! communication graph, with enough quiet time between changes for the
//! system to stabilize. This crate provides:
//!
//! - [`DynGraph`]: an undirected graph supporting O(1) expected-time edge and
//!   node insertion/deletion, the exact operations the paper's adversary may
//!   perform;
//! - [`NodeMap`] / [`NodeSet`]: the dense node-indexed storage layer —
//!   flat slot containers keyed directly by [`NodeId`] that back every
//!   per-node table in the workspace (see `DESIGN.md`),
//!   [`SettleFront`]: the `(key, id)` min-queue every settle loop drains,
//!   and [`EdgeSlotIndex`]: the edge-keyed table the ingestion queue
//!   coalesces through;
//! - [`ShardLayout`]: range partitioning of the dense identifier space
//!   behind `dmis-core`'s sharded settle schedule — maps every node to
//!   its owning shard;
//! - [`TopologyChange`]: the four template-level change types of Section 3 of
//!   the paper, plus [`DistributedChange`] refining them into the seven
//!   distributed variants of Section 2 (graceful/abrupt deletions, unmuting);
//! - [`generators`]: graph families used throughout the paper's examples and
//!   our experiments (stars, complete bipartite graphs, disjoint 3-paths,
//!   Erdős–Rényi, Barabási–Albert, grids, ...);
//! - [`CliqueBlowup`]: the (Δ+1)-coloring reduction of Section 5 (the
//!   clique blow-up);
//! - [`stream`]: random update-stream generators driving long-lived dynamic
//!   executions.
//!
//! # Example
//!
//! ```
//! use dmis_graph::{DynGraph, NodeId};
//!
//! let mut g = DynGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! g.insert_edge(a, b)?;
//! assert!(g.has_edge(a, b));
//! assert_eq!(g.degree(a), Some(1));
//! g.remove_node(b)?;
//! assert_eq!(g.degree(a), Some(0));
//! # Ok::<(), dmis_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

mod blowup;
mod change;
mod error;
mod graph;
mod id;
mod shard;
mod storage;
mod traversal;

pub mod generators;
pub mod stream;

pub use blowup::CliqueBlowup;
pub use change::{ChangeKind, DistributedChange, TopologyChange};
pub use error::GraphError;
pub use graph::{DynGraph, EdgeKey};
pub use id::NodeId;
pub use shard::ShardLayout;
pub use storage::{EdgeSlotIndex, NodeMap, NodeSet, SettleFront};
pub use traversal::{bfs_order, connected_components, is_connected, shortest_path_len};
