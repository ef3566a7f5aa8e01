//! The unified engine API: one trait, one builder, one ingestion queue.
//!
//! Before this layer existed, the paper's update/query surface was
//! hand-copied three times — once per engine — and every consumer (the
//! equivalence suites, the bench harnesses, the simulator runners) was
//! monomorphized against one concrete engine by copy-paste. This module
//! collapses that:
//!
//! - [`DynamicMis`] is the object-safe trait capturing the full
//!   update/receipt/query surface shared by [`crate::MisEngine`] and
//!   [`crate::ShardedMisEngine`]. The convenience layer that used to be
//!   copied per engine (`apply` dispatch, `insert_node` key draws,
//!   [`DynamicMis::mis`]'s ordered-set materialization, `state`) lives
//!   here once, as provided methods over the engines' primitives.
//! - [`Engine`] / [`EngineBuilder`] is the one way to construct an
//!   engine: every engine flavor is a point in (seed, graph, π,
//!   sharding, capacity) space, and [`EngineBuilder::build`] picks the
//!   cheapest engine that realizes the configured axes behind a
//!   `Box<dyn DynamicMis>`.
//! - [`IngestSession`] is the change-ingestion queue the ROADMAP's
//!   async-batching item asked for: [`IngestSession::push`] coalesces the
//!   adversary's stream (opposing changes on the same edge cancel,
//!   duplicate changes collapse last-writer-wins), and
//!   [`IngestSession::flush`] settles one merged batch, returning a
//!   [`BatchReceipt`] extended with the number of coalesced-away changes
//!   and the window's queue-delay accounting ([`IngestReceipt`]). *When*
//!   a session auto-flushes is a pluggable [`FlushPolicy`] — depth
//!   watermark, deadline, either, or the adaptive smoother — evaluated
//!   against an injectable [`crate::policy::Clock`]; see [`crate::policy`]
//!   for the decision semantics and determinism story. The queue-depth
//!   axis is what experiment E12 sweeps.
//!
//! # Why receipts stay comparable
//!
//! Coalescing never changes the net topology of a flush: an
//! insert+delete pair on the same edge is a topological no-op, and the
//! maintained MIS is *history independent* (Section 5 of the paper), so
//! the settled output — and hence the receipt's flip log, which reports
//! net first-touch-vs-final flips — depends only on the net topology.
//! What coalescing does change is the *work counters* (fewer settle pops,
//! fewer counter updates): that delta is exactly the measurement the
//! ingestion queue exists to expose, and the property suite
//! (`crates/core/tests/ingest_session.rs`) pins both halves — flips
//! identical to the raw stream, work identical to `apply_batch` of the
//! coalesced stream — for K ∈ {1, 2, 4} shards.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use dmis_graph::{DynGraph, EdgeKey, GraphError, NodeId, ShardLayout, TopologyChange};

use crate::invariant::InvariantViolation;
use crate::policy::{Clock, FlushController, FlushPolicy, MonotonicClock, QueueDelay};
use crate::{BatchReceipt, MisEngine, MisState, PriorityMap, ShardedMisEngine, UpdateReceipt};

/// The realization of the π-ordered dirty queue a settle loop drains.
///
/// Every engine drains one word-parallel rank front
/// ([`dmis_graph::RankFront`] over [`crate::RankIndex`] ranks), so this
/// has a single variant. It survives only so that external
/// [`DynamicMis`] implementations written against the two-strategy API
/// keep compiling; see [`DynamicMis::settle_strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SettleStrategy {
    /// The word-parallel rank-bitset front: no per-update allocation,
    /// whole-word scans, `u32` rank compares on the neighbor filter.
    #[default]
    RankFront,
}

/// The full surface of a dynamic-MIS maintainer: topology updates that
/// return auditable [`UpdateReceipt`]s, batched updates, and the query
/// side (membership, iteration, invariant checks).
///
/// The trait is **object safe** — `Box<dyn DynamicMis>` is a first-class
/// engine, which is what lets one equivalence suite, one bench harness,
/// and one simulator runner drive both engines through a single code
/// path. Iterator-returning queries box their iterators for that reason;
/// [`DynamicMis::mis`]'s `BTreeSet` materialization is a convenience
/// built on [`DynamicMis::mis_iter`] (metering loops should prefer
/// `mis_iter`/[`DynamicMis::mis_len`], which never allocate).
///
/// Both engines are implementations; they are observationally
/// equivalent on every change stream (same seed ⇒ same MIS, same
/// adjustment sets), which the trait-conformance suite
/// (`crates/core/tests/trait_conformance.rs`) pins through `dyn
/// DynamicMis` alone.
///
/// # Example
///
/// ```
/// use dmis_core::{DynamicMis, Engine};
/// use dmis_graph::{generators, ShardLayout};
///
/// let (g, ids) = generators::cycle(8);
/// let mut engine = Engine::builder().graph(g).seed(7).sharding(ShardLayout::striped(2)).build();
/// let receipt = engine.insert_edge(ids[0], ids[2])?;
/// assert!(engine.check_invariant().is_ok());
/// assert_eq!(engine.mis().len(), engine.mis_len());
/// println!("adjustments: {}", receipt.adjustments());
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
pub trait DynamicMis: std::fmt::Debug {
    /// Inserts the edge `{u, v}` and restores the MIS invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the underlying graph operation; on
    /// error the engine is unchanged.
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError>;

    /// Removes the edge `{u, v}` and restores the MIS invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the underlying graph operation; on
    /// error the engine is unchanged.
    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError>;

    /// Inserts a new node wired to `neighbors` with a *prescribed* random
    /// key (derandomized baselines and adversarial tests); see
    /// [`DynamicMis::insert_node`] for the drawing entry point.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if a neighbor is missing or repeated; on
    /// error the engine is unchanged.
    fn insert_node_with_key(
        &mut self,
        neighbors: &[NodeId],
        key: u64,
    ) -> Result<(NodeId, UpdateReceipt), GraphError>;

    /// Removes node `v` and restores the MIS invariant. The receipt's
    /// flips cover the *remaining* nodes; the departure of `v` itself is
    /// implied by the change.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if `v` does not exist.
    fn remove_node(&mut self, v: NodeId) -> Result<UpdateReceipt, GraphError>;

    /// Applies a **batch** of topology changes atomically: all graph
    /// mutations land first, then a single propagation pass restores the
    /// MIS invariant (see [`crate::MisEngine::apply_batch`] for the full
    /// contract).
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] encountered. Changes before the
    /// failing one remain applied and the invariant is restored for
    /// them; the failing and subsequent changes are not applied.
    fn apply_batch(&mut self, changes: &[TopologyChange]) -> Result<BatchReceipt, GraphError>;

    /// Draws the next random priority key from the engine's seeded
    /// stream — the draw [`DynamicMis::insert_node`] consumes. Exposed so
    /// the key-drawing convenience can live on the trait once instead of
    /// being copied into every implementation; same seed ⇒ same draw
    /// sequence across all engines, which is what keeps them
    /// step-for-step comparable. Hidden from the documented surface:
    /// calling it directly consumes a draw and desynchronizes the engine
    /// from any same-seed twin — it exists only to feed
    /// [`DynamicMis::insert_node`].
    #[doc(hidden)]
    fn draw_key(&mut self) -> u64;

    /// Returns the current graph.
    fn graph(&self) -> &DynGraph;

    /// Returns the priority assignment π.
    fn priorities(&self) -> &PriorityMap;

    /// Iterates over the current MIS in identifier order without
    /// allocating a set.
    fn mis_iter(&self) -> Box<dyn Iterator<Item = NodeId> + '_>;

    /// Size of the current MIS without materializing it.
    fn mis_len(&self) -> usize;

    /// Returns whether `v` is in the MIS, or `None` if `v` does not
    /// exist.
    fn is_in_mis(&self, v: NodeId) -> Option<bool>;

    /// Which dirty-queue realization the settle loop drains: always
    /// [`SettleStrategy::RankFront`]. No engine stores or forwards it;
    /// the method remains only because implementations outside this
    /// workspace still override it.
    fn settle_strategy(&self) -> SettleStrategy {
        SettleStrategy::RankFront
    }

    /// Does nothing: every engine has one settle drain. The method
    /// remains only because implementations outside this workspace
    /// still override it.
    fn set_settle_strategy(&mut self, _strategy: SettleStrategy) {}

    /// Returns a cheaply-cloneable, `Send + Sync` concurrent read
    /// handle over the engine's published MIS snapshots, attaching the
    /// epoch-versioned publication layer on first call: the current
    /// membership becomes epoch 0, and every subsequent settle — each
    /// single change, `apply_batch`, or [`IngestSession`] flush —
    /// publishes the next epoch at its quiesced flush boundary. Readers
    /// on other threads observe exactly those published states, never a
    /// half-settled intermediate; see [`crate::snapshot`] for the full
    /// contract. Until first call, the settle path pays nothing.
    fn reader(&mut self) -> crate::MisReader;

    /// Scans every live node for corrupted membership/counter state and
    /// heals what it finds with the template's self-stabilizing local
    /// rule — O(k·Δ) settle work beyond one O(n + m) detection sweep
    /// for k corrupted nodes, instead of a full rebuild, and the healed
    /// state is bit-identical to an engine that was never corrupted.
    /// See [`crate::MisEngine::verify_and_repair`] for the algorithm
    /// and convergence argument; the returned report meters the
    /// repair-vs-rebuild trade that E13's engine tier plots.
    fn verify_and_repair(&mut self) -> crate::durability::RepairReport;

    /// Test-only fault injector behind the repair tier: flips the
    /// membership bit of each live victim *without* touching counters —
    /// the E13 corruption model at the engine tier. Returns how many
    /// victims were live (and therefore flipped). Hidden: corrupting
    /// state is only meaningful to the fault-injection suites.
    #[doc(hidden)]
    fn corrupt_in_mis(&mut self, victims: &[NodeId]) -> usize;

    /// Checkpoint-time metadata — flavor, shard layout, RNG position,
    /// published epoch — that [`crate::durability::Checkpoint`]
    /// serializes. Hidden: only the durability layer consumes it.
    #[doc(hidden)]
    fn durability_meta(&self) -> crate::durability::DurabilityMeta;

    /// Recovery-time re-attach of the snapshot publication channel at a
    /// prescribed epoch (instead of the usual 0), so readers resuming
    /// after a crash never observe a regressed epoch. Hidden: only
    /// [`crate::durability::recover`] calls it, on a freshly built
    /// engine before [`DynamicMis::reader`].
    #[doc(hidden)]
    fn restore_epoch(&mut self, epoch: u64);

    /// Verifies the MIS invariant over the whole graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    fn check_invariant(&self) -> Result<(), InvariantViolation>;

    /// Verifies every internal bookkeeping structure against a
    /// from-scratch recomputation. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if any counter, rank, or state diverged.
    fn assert_internally_consistent(&self);

    /// [`Self::check_invariant`] restricted to a deterministic sample of
    /// roughly `sample` nodes (see [`crate::invariant::sampled_nodes`]) —
    /// O(sample · avg-degree) instead of O(n + m), so a per-update debug
    /// assertion stays affordable at 10^6 nodes. A violation at a
    /// sampled node is a genuine violation; a passing sample is
    /// evidence, not proof — vary `seed` across updates to sweep the
    /// whole graph over time.
    ///
    /// # Errors
    ///
    /// Returns the first violation found among sampled nodes.
    fn check_invariant_sampled(&self, sample: usize, seed: u64) -> Result<(), InvariantViolation> {
        let members: dmis_graph::NodeSet = self.mis_iter().collect();
        crate::invariant::check_mis_invariant_sampled(
            self.graph(),
            self.priorities(),
            &members,
            sample,
            seed,
        )
    }

    /// Sampled counterpart of [`Self::assert_internally_consistent`]:
    /// cheap global facts are checked exactly, expensive per-node
    /// recomputation only for ~`sample` deterministically chosen nodes.
    /// Engines override this with checks against their native
    /// bookkeeping; the default verifies the sampled invariant.
    ///
    /// # Panics
    ///
    /// Panics if a sampled node violates the invariant.
    fn assert_internally_consistent_sampled(&self, sample: usize, seed: u64) {
        if let Err(violation) = self.check_invariant_sampled(sample, seed) {
            panic!("sampled invariant check failed: {violation}");
        }
    }

    /// Inserts a new node wired to `neighbors`, drawing its priority from
    /// the engine's seeded stream, and restores the MIS invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if a neighbor is missing or repeated; on
    /// error the engine is unchanged (the drawn key is still consumed).
    fn insert_node(&mut self, neighbors: &[NodeId]) -> Result<(NodeId, UpdateReceipt), GraphError> {
        let key = self.draw_key();
        self.insert_node_with_key(neighbors, key)
    }

    /// Applies a described [`TopologyChange`] — the dispatch that used to
    /// be hand-copied into every engine.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]; for [`TopologyChange::InsertNode`] the
    /// pre-assigned identifier must equal [`DynGraph::peek_next_id`],
    /// else [`GraphError::MissingNode`] is returned.
    fn apply(&mut self, change: &TopologyChange) -> Result<UpdateReceipt, GraphError> {
        match change {
            TopologyChange::InsertEdge(u, v) => self.insert_edge(*u, *v),
            TopologyChange::DeleteEdge(u, v) => self.remove_edge(*u, *v),
            TopologyChange::InsertNode { id, edges } => {
                if self.graph().peek_next_id() != *id {
                    return Err(GraphError::MissingNode(*id));
                }
                self.insert_node(edges).map(|(_, r)| r)
            }
            TopologyChange::DeleteNode(v) => self.remove_node(*v),
        }
    }

    /// Returns the current MIS as an ordered set of node identifiers — a
    /// convenience over [`DynamicMis::mis_iter`]. Allocates; metering
    /// loops that only need the members or the cardinality should use
    /// `mis_iter`/[`DynamicMis::mis_len`].
    fn mis(&self) -> BTreeSet<NodeId> {
        self.mis_iter().collect()
    }

    /// Returns the output state of `v`, or `None` if `v` does not exist.
    fn state(&self, v: NodeId) -> Option<MisState> {
        self.is_in_mis(v).map(MisState::from_membership)
    }
}

/// Implements [`DynamicMis`] for an engine by forwarding every required
/// method to the engine's inherent method of the same name. This macro
/// is what keeps the trait's required surface from being hand-copied per
/// engine (the pre-trait state of the codebase).
macro_rules! forward_dynamic_mis {
    ($ty:ty) => {
        impl crate::DynamicMis for $ty {
            fn insert_edge(
                &mut self,
                u: dmis_graph::NodeId,
                v: dmis_graph::NodeId,
            ) -> Result<crate::UpdateReceipt, dmis_graph::GraphError> {
                self.insert_edge(u, v)
            }
            fn remove_edge(
                &mut self,
                u: dmis_graph::NodeId,
                v: dmis_graph::NodeId,
            ) -> Result<crate::UpdateReceipt, dmis_graph::GraphError> {
                self.remove_edge(u, v)
            }
            fn insert_node_with_key(
                &mut self,
                neighbors: &[dmis_graph::NodeId],
                key: u64,
            ) -> Result<(dmis_graph::NodeId, crate::UpdateReceipt), dmis_graph::GraphError> {
                self.insert_node_with_key(neighbors.iter().copied(), key)
            }
            fn remove_node(
                &mut self,
                v: dmis_graph::NodeId,
            ) -> Result<crate::UpdateReceipt, dmis_graph::GraphError> {
                self.remove_node(v)
            }
            fn apply_batch(
                &mut self,
                changes: &[dmis_graph::TopologyChange],
            ) -> Result<crate::BatchReceipt, dmis_graph::GraphError> {
                self.apply_batch(changes)
            }
            fn draw_key(&mut self) -> u64 {
                self.draw_key()
            }
            fn graph(&self) -> &dmis_graph::DynGraph {
                self.graph()
            }
            fn priorities(&self) -> &crate::PriorityMap {
                self.priorities()
            }
            fn mis_iter(&self) -> Box<dyn Iterator<Item = dmis_graph::NodeId> + '_> {
                Box::new(self.mis_iter())
            }
            fn mis_len(&self) -> usize {
                self.mis_len()
            }
            fn is_in_mis(&self, v: dmis_graph::NodeId) -> Option<bool> {
                self.is_in_mis(v)
            }
            fn reader(&mut self) -> crate::MisReader {
                self.reader()
            }
            fn verify_and_repair(&mut self) -> crate::durability::RepairReport {
                self.verify_and_repair()
            }
            fn corrupt_in_mis(&mut self, victims: &[dmis_graph::NodeId]) -> usize {
                self.corrupt_in_mis(victims)
            }
            fn durability_meta(&self) -> crate::durability::DurabilityMeta {
                self.durability_meta()
            }
            fn restore_epoch(&mut self, epoch: u64) {
                self.restore_epoch(epoch);
            }
            fn check_invariant(&self) -> Result<(), crate::invariant::InvariantViolation> {
                self.check_invariant()
            }
            fn assert_internally_consistent(&self) {
                self.assert_internally_consistent();
            }
            fn check_invariant_sampled(
                &self,
                sample: usize,
                seed: u64,
            ) -> Result<(), crate::invariant::InvariantViolation> {
                self.check_invariant_sampled(sample, seed)
            }
            fn assert_internally_consistent_sampled(&self, sample: usize, seed: u64) {
                self.assert_internally_consistent_sampled(sample, seed);
            }
        }
    };
}
pub(crate) use forward_dynamic_mis;

/// Forwards [`DynamicMis`] through a smart-pointer-like wrapper (`&mut
/// T`, `Box<T>`): what lets [`IngestSession`] own its engine *or* borrow
/// one, depending on how it was opened, behind a single type parameter.
/// The deref targets may themselves be unsized (`dyn DynamicMis`), so
/// boxed engines from [`EngineBuilder::build`] plug in directly.
macro_rules! forward_dynamic_mis_deref {
    ($(<$generic:ident> $ty:ty),+ $(,)?) => {$(
        impl<$generic: DynamicMis + ?Sized> DynamicMis for $ty {
            fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError> {
                (**self).insert_edge(u, v)
            }
            fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError> {
                (**self).remove_edge(u, v)
            }
            fn insert_node_with_key(
                &mut self,
                neighbors: &[NodeId],
                key: u64,
            ) -> Result<(NodeId, UpdateReceipt), GraphError> {
                (**self).insert_node_with_key(neighbors, key)
            }
            fn remove_node(&mut self, v: NodeId) -> Result<UpdateReceipt, GraphError> {
                (**self).remove_node(v)
            }
            fn apply_batch(
                &mut self,
                changes: &[TopologyChange],
            ) -> Result<BatchReceipt, GraphError> {
                (**self).apply_batch(changes)
            }
            fn draw_key(&mut self) -> u64 {
                (**self).draw_key()
            }
            fn graph(&self) -> &DynGraph {
                (**self).graph()
            }
            fn priorities(&self) -> &PriorityMap {
                (**self).priorities()
            }
            fn mis_iter(&self) -> Box<dyn Iterator<Item = NodeId> + '_> {
                (**self).mis_iter()
            }
            fn mis_len(&self) -> usize {
                (**self).mis_len()
            }
            fn is_in_mis(&self, v: NodeId) -> Option<bool> {
                (**self).is_in_mis(v)
            }
            fn reader(&mut self) -> crate::MisReader {
                (**self).reader()
            }
            fn verify_and_repair(&mut self) -> crate::durability::RepairReport {
                (**self).verify_and_repair()
            }
            fn corrupt_in_mis(&mut self, victims: &[NodeId]) -> usize {
                (**self).corrupt_in_mis(victims)
            }
            fn durability_meta(&self) -> crate::durability::DurabilityMeta {
                (**self).durability_meta()
            }
            fn restore_epoch(&mut self, epoch: u64) {
                (**self).restore_epoch(epoch);
            }
            fn check_invariant(&self) -> Result<(), InvariantViolation> {
                (**self).check_invariant()
            }
            fn assert_internally_consistent(&self) {
                (**self).assert_internally_consistent();
            }
            fn check_invariant_sampled(
                &self,
                sample: usize,
                seed: u64,
            ) -> Result<(), InvariantViolation> {
                (**self).check_invariant_sampled(sample, seed)
            }
            fn assert_internally_consistent_sampled(&self, sample: usize, seed: u64) {
                (**self).assert_internally_consistent_sampled(sample, seed);
            }
        }
    )+};
}

forward_dynamic_mis_deref!(<T> &mut T, <T> Box<T>);

/// Namespace for [`Engine::builder`] — the single entry point for
/// constructing every engine flavor (see the README migration table for
/// the retired per-engine constructors).
#[derive(Debug, Clone, Copy)]
pub struct Engine;

impl Engine {
    /// Starts building an engine; see [`EngineBuilder`].
    #[must_use]
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }
}

/// Axis-based engine construction.
///
/// Every engine flavor in the workspace is a point in the configuration
/// space (seed, graph, π, sharding, capacity), and the builder is its one
/// fluent construction path:
///
/// ```
/// use dmis_core::{DynamicMis, Engine};
/// use dmis_graph::{generators, ShardLayout};
///
/// let (g, _) = generators::cycle(12);
/// // Boxed: the builder picks the cheapest engine realizing the axes.
/// let engine = Engine::builder()
///     .graph(g.clone())
///     .seed(9)
///     .sharding(ShardLayout::striped(4))
///     .build();
/// assert_eq!(engine.mis_len(), Engine::builder().graph(g).seed(9).build().mis_len());
/// ```
///
/// Typed escape hatches ([`EngineBuilder::build_unsharded`],
/// [`EngineBuilder::build_sharded`]) return concrete engines when the
/// caller needs engine-specific knobs; `build_unsharded` panics on a
/// sharding axis instead of silently ignoring it.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    seed: u64,
    graph: Option<DynGraph>,
    priorities: Option<PriorityMap>,
    sharding: Option<ShardLayout>,
    capacity: Option<usize>,
}

impl EngineBuilder {
    /// Seed determinizing all priority draws. Same seed ⇒ same draws on
    /// every engine flavor. Defaults to 0.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Initial graph; fresh priorities are drawn for all its nodes
    /// unless [`EngineBuilder::priorities`] prescribes them. Defaults to
    /// the empty graph.
    #[must_use]
    pub fn graph(mut self, graph: DynGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Prescribed priorities for the initial graph (tests and
    /// adversarial constructions). Requires [`EngineBuilder::graph`].
    #[must_use]
    pub fn priorities(mut self, priorities: PriorityMap) -> Self {
        self.priorities = Some(priorities);
        self
    }

    /// Partitions the engine's per-node state into the layout's shards
    /// ([`crate::ShardedMisEngine`]).
    #[must_use]
    pub fn sharding(mut self, layout: ShardLayout) -> Self {
        self.sharding = Some(layout);
        self
    }

    /// Inert: returns the builder unchanged. Every engine drains its
    /// settle epochs inline, so there is no thread axis to set. Kept only
    /// because the serving benchmark (`servebench/src/run.rs`) still
    /// passes a thread count of 1 here; the next benchmark change drops
    /// that call and deletes this method. Nothing else may call it.
    #[doc(hidden)]
    #[must_use]
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Pre-sizes every per-node structure for `n` nodes, so a bootstrap
    /// of up to `n` insertions performs no incremental regrows (verified
    /// by the engines' `storage_regrows()` debug counter). Purely a
    /// performance knob: outputs and receipts are unaffected. Defaults
    /// to no pre-sizing.
    #[must_use]
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = Some(n);
        self
    }

    /// Builds the cheapest engine realizing every configured axis, as a
    /// trait object: sharded if `sharding` was set, unsharded otherwise.
    /// The box is `Send`, so built engines can migrate across threads.
    #[must_use]
    pub fn build(self) -> Box<dyn DynamicMis + Send> {
        if self.sharding.is_some() {
            Box::new(self.build_sharded())
        } else {
            Box::new(self.build_unsharded())
        }
    }

    /// [`EngineBuilder::build`] plus an attached [`crate::MisReader`]:
    /// the boxed engine with its snapshot publication layer already
    /// live (the initial state published as epoch 0) and one read
    /// handle onto it. Clone the handle for additional reader threads;
    /// `engine.reader()` hands out more at any time.
    #[must_use]
    pub fn build_with_reader(self) -> (Box<dyn DynamicMis + Send>, crate::MisReader) {
        let mut engine = self.build();
        let reader = engine.reader();
        (engine, reader)
    }

    /// [`EngineBuilder::build`] wrapped in a configured
    /// [`IngestSession`]: the boxed engine and its change-ingestion
    /// queue come from one call (mirroring
    /// [`EngineBuilder::build_with_reader`]), with `policy` deciding
    /// when windows flush. The session **owns** the engine; reach it
    /// through [`IngestSession::engine`] / [`IngestSession::engine_mut`]
    /// (e.g. to attach a [`crate::MisReader`]) or reclaim it with
    /// [`IngestSession::into_engine`].
    #[must_use]
    pub fn build_with_session(
        self,
        policy: FlushPolicy,
    ) -> IngestSession<Box<dyn DynamicMis + Send>> {
        IngestSession::with_policy(self.build(), policy)
    }

    /// Builds the unsharded [`MisEngine`].
    ///
    /// # Panics
    ///
    /// Panics if a sharding axis was set (that requires
    /// [`EngineBuilder::build_sharded`]), or if priorities were given
    /// without a graph.
    #[must_use]
    pub fn build_unsharded(self) -> MisEngine {
        assert!(
            self.sharding.is_none(),
            "sharding axis set: build_sharded() realizes it"
        );
        let mut engine = match (self.graph, self.priorities) {
            (None, None) => MisEngine::new_impl(self.seed),
            (Some(g), None) => MisEngine::from_graph_impl(g, self.seed),
            (Some(g), Some(p)) => MisEngine::from_parts_impl(g, p, self.seed),
            (None, Some(_)) => panic!("priorities prescribed without a graph"),
        };
        if let Some(n) = self.capacity {
            engine.reserve_nodes(n);
        }
        engine
    }

    /// Builds the [`ShardedMisEngine`] (layout defaults to
    /// [`ShardLayout::single`]).
    ///
    /// # Panics
    ///
    /// Panics if priorities were given without a graph.
    #[must_use]
    pub fn build_sharded(self) -> ShardedMisEngine {
        let layout = self.sharding.unwrap_or_else(ShardLayout::single);
        let mut engine = match (self.graph, self.priorities) {
            (None, None) => ShardedMisEngine::new_impl(layout, self.seed),
            (Some(g), None) => ShardedMisEngine::from_graph_impl(g, layout, self.seed),
            (Some(g), Some(p)) => ShardedMisEngine::from_parts_impl(g, p, layout, self.seed),
            (None, Some(_)) => panic!("priorities prescribed without a graph"),
        };
        if let Some(n) = self.capacity {
            engine.reserve_nodes(n);
        }
        engine
    }
}

/// The pure coalescing queue behind [`IngestSession`]: an order-preserving
/// buffer of [`TopologyChange`]s that merges redundant edge changes as
/// they arrive.
///
/// Rules (the "coalescing rules" of DESIGN.md's unified-API section):
///
/// - **Opposing edge changes cancel.** An insert and a delete of the same
///   edge queued since the last barrier annihilate: both leave the queue,
///   because their net topological effect is nil and the maintained
///   structures are history independent.
/// - **Same-direction edge changes collapse, last writer wins.** Pushing
///   the same edge change twice keeps one copy (at the first push's queue
///   position — edge changes on distinct edges commute, so position
///   within a barrier-free run is immaterial).
/// - **Node changes are barriers.** `InsertNode`/`DeleteNode` entries are
///   kept verbatim and stop edge coalescing across them: a node deletion
///   implicitly removes incident edges, so edge changes must not be
///   merged across it.
///
/// The queue never consults an engine, and it is deliberately
/// *forgiving*: cancelled pairs and collapsed duplicates are never
/// validated, so a raw sequence that `apply_batch` would reject (e.g. a
/// delete of a missing edge followed by its insert, or a duplicate
/// insert) can coalesce into a sequence that applies cleanly. Only the
/// *surviving* changes are judged — by `apply_batch`, at flush time. A
/// caller that needs malformed adversary streams rejected must validate
/// before pushing.
#[derive(Debug, Clone, Default)]
pub struct ChangeCoalescer {
    /// Queued changes in arrival order; cancelled entries become `None`
    /// tombstones so positions stay stable for the edge index.
    pending: Vec<Option<TopologyChange>>,
    /// Live queue position per edge, for the current barrier-free run
    /// only (cleared by node changes).
    edge_slot: BTreeMap<EdgeKey, usize>,
    /// Live (non-tombstoned) entries — the queue depth watermarks meter.
    live: usize,
    /// Changes pushed since the last drain, including coalesced-away
    /// ones.
    pushed: usize,
}

impl ChangeCoalescer {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of changes currently queued (after coalescing).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.live
    }

    /// Number of changes pushed since the last [`Self::drain`],
    /// including ones coalescing has already eliminated.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Returns `true` if no change is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Queues one change, applying the coalescing rules.
    pub fn push(&mut self, change: TopologyChange) {
        self.pushed += 1;
        let key = match &change {
            TopologyChange::InsertEdge(u, v) | TopologyChange::DeleteEdge(u, v) => {
                Some(EdgeKey::new(*u, *v))
            }
            TopologyChange::InsertNode { .. } | TopologyChange::DeleteNode(_) => None,
        };
        let Some(key) = key else {
            // Node change: a coalescing barrier. Later edge changes must
            // not merge with anything queued before it.
            self.edge_slot.clear();
            self.pending.push(Some(change));
            self.live += 1;
            return;
        };
        if let Some(&slot) = self.edge_slot.get(&key) {
            let prev = self.pending[slot].as_ref().expect("indexed slot is live");
            if prev.kind() == change.kind() {
                // Last writer wins (the entries are equal up to endpoint
                // order); keep the original queue position.
                self.pending[slot] = Some(change);
            } else {
                // Opposing pair: net topological no-op — cancel both.
                self.pending[slot] = None;
                self.edge_slot.remove(&key);
                self.live -= 1;
            }
        } else {
            self.edge_slot.insert(key, self.pending.len());
            self.pending.push(Some(change));
            self.live += 1;
        }
    }

    /// Takes the coalesced sequence (arrival order, tombstones dropped)
    /// and the total push count it absorbed, resetting the queue.
    pub fn drain(&mut self) -> (Vec<TopologyChange>, usize) {
        let batch: Vec<TopologyChange> = self.pending.drain(..).flatten().collect();
        self.edge_slot.clear();
        self.live = 0;
        (batch, std::mem::take(&mut self.pushed))
    }
}

/// Outcome of one [`IngestSession::flush`]: the merged batch's
/// [`BatchReceipt`] extended with the ingestion-side accounting — how
/// many changes were pushed into the window, how many coalescing
/// eliminated before any settle work was done, and how long the
/// window's pushes waited between arrival and flush ([`QueueDelay`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReceipt {
    pushed: usize,
    coalesced_changes: usize,
    batch: BatchReceipt,
    delay: QueueDelay,
}

impl IngestReceipt {
    /// Changes pushed into the flushed window (before coalescing).
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// The window's queue-delay accounting: per-push arrival→flush
    /// waits (sorted; p50/p99/max/mean accessors) and the flush's settle
    /// duration, all measured on the session's [`Clock`].
    #[must_use]
    pub fn queue_delay(&self) -> &QueueDelay {
        &self.delay
    }

    /// The most *pushes* any change of this window waited before its
    /// flush: the window's first arrival sat behind `pushed − 1` later
    /// pushes. A clock-free latency measure (exact, not sampled) that
    /// stays meaningful under a never-advanced manual clock.
    #[must_use]
    pub fn max_pushes_waited(&self) -> usize {
        self.pushed.saturating_sub(1)
    }

    /// Mean pushes-waited over the window's changes: the i-th of `p`
    /// arrivals waits `p − 1 − i` later pushes, so the mean is
    /// `(p − 1)/2`.
    #[must_use]
    pub fn mean_pushes_waited(&self) -> f64 {
        self.pushed.saturating_sub(1) as f64 / 2.0
    }

    /// Changes coalescing eliminated: `pushed() - applied-or-attempted`.
    /// Every one of these is a settle pass the engine never paid for.
    #[must_use]
    pub fn coalesced_changes(&self) -> usize {
        self.coalesced_changes
    }

    /// The merged batch's receipt.
    #[must_use]
    pub fn batch(&self) -> &BatchReceipt {
        &self.batch
    }

    /// Consumes the receipt, returning the inner [`BatchReceipt`].
    #[must_use]
    pub fn into_batch(self) -> BatchReceipt {
        self.batch
    }

    /// Changes successfully applied by the flush.
    #[must_use]
    pub fn applied(&self) -> usize {
        self.batch.applied()
    }

    /// Nodes whose output changed across the flush.
    #[must_use]
    pub fn adjustments(&self) -> usize {
        self.batch.adjustments()
    }
}

/// A change-ingestion session over any [`DynamicMis`] engine: the
/// async-batching layer of the ROADMAP.
///
/// Pushes are queued and coalesced ([`ChangeCoalescer`] documents the
/// rules); [`IngestSession::flush`] applies the surviving changes as one
/// merged `apply_batch` — one settle pass for the whole window — and
/// reports the coalescing win plus the window's queue-delay accounting
/// on the [`IngestReceipt`]. *When* a window auto-flushes is a
/// [`FlushPolicy`]: a depth watermark (the latency-vs-work axis
/// experiment E12 sweeps), a deadline on the oldest queued change, both,
/// or the adaptive smoother of [`crate::policy`]. All timing is read
/// from an injectable [`Clock`], so policies are deterministic under a
/// [`crate::ManualClock`].
///
/// The engine parameter `E` is anything that [`DynamicMis`] forwards
/// through: a mutable borrow (`IngestSession::new(&mut engine)` — the
/// session releases the engine when dropped) or an owned box
/// ([`EngineBuilder::build_with_session`], which hands the whole
/// deployment over as one value).
///
/// # Example
///
/// ```
/// use dmis_core::{Engine, IngestSession};
/// use dmis_graph::{generators, TopologyChange};
///
/// let (g, ids) = generators::cycle(8);
/// let mut engine = Engine::builder().graph(g).seed(3).build_unsharded();
/// let mut session = IngestSession::new(&mut engine);
/// // An opposing pair cancels before any settle work happens…
/// session.push(TopologyChange::DeleteEdge(ids[0], ids[1]))?;
/// session.push(TopologyChange::InsertEdge(ids[0], ids[1]))?;
/// let receipt = session.flush()?;
/// assert_eq!(receipt.coalesced_changes(), 2);
/// assert_eq!(receipt.batch().heap_pops(), 0, "zero settle work");
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
///
/// Deadline-driven flushing under a deterministic clock:
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use dmis_core::{Engine, FlushPolicy, IngestSession, ManualClock};
/// use dmis_graph::{generators, TopologyChange};
///
/// let (g, ids) = generators::cycle(8);
/// let clock = ManualClock::new();
/// let mut session = IngestSession::with_policy_and_clock(
///     Engine::builder().graph(g).seed(3).build(),
///     FlushPolicy::Deadline(Duration::from_millis(5)),
///     Arc::new(clock.clone()),
/// );
/// session.push(TopologyChange::DeleteEdge(ids[0], ids[1]))?;
/// clock.advance(Duration::from_millis(4));
/// assert!(session.poll()?.is_none(), "deadline not reached");
/// clock.advance(Duration::from_millis(1));
/// let receipt = session.poll()?.expect("deadline fires exactly at the boundary");
/// assert_eq!(receipt.queue_delay().max_delay(), Duration::from_millis(5));
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct IngestSession<E: DynamicMis> {
    engine: E,
    queue: ChangeCoalescer,
    controller: FlushController,
    clock: Arc<dyn Clock>,
    /// Session-clock arrival stamp of every push in the open window
    /// (coalesced-away pushes included: their latency was still paid).
    arrivals: Vec<Duration>,
    /// Optional write-ahead sink: when set, every flush persists its
    /// coalesced window *before* applying it (log-then-publish) — see
    /// [`Self::set_wal_sink`].
    wal: Option<Box<dyn crate::durability::WalSink>>,
}

impl<E: DynamicMis> IngestSession<E> {
    /// Opens a session that never auto-flushes
    /// ([`FlushPolicy::Manual`]): changes queue until an explicit
    /// [`Self::flush`].
    pub fn new(engine: E) -> Self {
        Self::with_policy(engine, FlushPolicy::Manual)
    }

    /// Opens a session that auto-flushes whenever `watermark` changes
    /// have been pushed since the last flush — a thin shim for
    /// [`Self::with_policy`] with [`FlushPolicy::Depth`]`(watermark)`,
    /// kept for the PR-5 call sites. Counting *pushes* — not the
    /// coalesced depth — bounds both the pending buffer and the time a
    /// change waits before its window settles, even on cancel-heavy
    /// streams where the coalesced depth hovers near zero; a window
    /// therefore holds at most `watermark` pushes, and a change waits at
    /// most `watermark − 1` arrivals. A watermark of 1 degenerates to
    /// unbatched per-change application.
    pub fn with_watermark(engine: E, watermark: usize) -> Self {
        Self::with_policy(engine, FlushPolicy::Depth(watermark))
    }

    /// Opens a session flushing per `policy`, timed by the default
    /// [`MonotonicClock`]. Tests that need deterministic deadlines or
    /// adaptive observations should inject a [`crate::ManualClock`] via
    /// [`Self::with_policy_and_clock`].
    pub fn with_policy(engine: E, policy: FlushPolicy) -> Self {
        Self::with_policy_and_clock(engine, policy, Arc::new(MonotonicClock::new()))
    }

    /// Opens a session flushing per `policy`, reading all arrival
    /// stamps, deadline checks, and settle-cost observations from
    /// `clock`.
    pub fn with_policy_and_clock(engine: E, policy: FlushPolicy, clock: Arc<dyn Clock>) -> Self {
        IngestSession {
            engine,
            queue: ChangeCoalescer::new(),
            controller: FlushController::new(policy),
            clock,
            arrivals: Vec::new(),
            wal: None,
        }
    }

    /// Installs a write-ahead sink: from now on every flush **persists
    /// its coalesced window before applying it**. This is the
    /// log-then-publish ordering durability requires — a window's
    /// effects (the settled MIS, and through it any published snapshot
    /// epoch) can reach an observer only after the window is on stable
    /// storage, so a recovered log always covers every epoch a reader
    /// ever saw. Empty windows are persisted too: one record per flush
    /// keeps the log's record count equal to the number of published
    /// epochs since attach, which is what lets recovery re-attach
    /// readers at exactly the right epoch.
    ///
    /// If the sink fails, the flush returns
    /// [`GraphError::PersistFailed`] and the window is consumed but
    /// **neither logged nor applied** — the engine still matches the
    /// persisted prefix, so a caller can recover from the sink's
    /// storage and resume from the last acked window.
    pub fn set_wal_sink(&mut self, sink: Box<dyn crate::durability::WalSink>) {
        self.wal = Some(sink);
    }

    /// Whether a write-ahead sink is installed.
    #[must_use]
    pub fn has_wal_sink(&self) -> bool {
        self.wal.is_some()
    }

    /// Replaces the flush policy. Takes effect on the next push/poll;
    /// adaptive smoother state restarts from its agnostic initial
    /// point. The open window (queued changes and their arrival stamps)
    /// carries over.
    pub fn set_policy(&mut self, policy: FlushPolicy) {
        self.controller = FlushController::new(policy);
    }

    /// The flush policy in force.
    #[must_use]
    pub fn policy(&self) -> &FlushPolicy {
        self.controller.policy()
    }

    /// Reconfigures (or removes) the auto-flush depth watermark — a
    /// shim for [`Self::set_policy`] mapping `Some(w)` to
    /// [`FlushPolicy::Depth`] and `None` to [`FlushPolicy::Manual`].
    pub fn set_watermark(&mut self, watermark: Option<usize>) {
        self.set_policy(match watermark {
            Some(w) => FlushPolicy::Depth(w),
            None => FlushPolicy::Manual,
        });
    }

    /// The depth watermark currently in force, if the policy has one:
    /// the configured depth for [`FlushPolicy::Depth`]/
    /// [`FlushPolicy::Either`], the smoother's current choice for
    /// [`FlushPolicy::Adaptive`], `None` for the depthless policies.
    #[must_use]
    pub fn watermark(&self) -> Option<usize> {
        self.controller.effective_depth()
    }

    /// Current (coalesced) queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Read access to the engine. Note that queued changes are **not**
    /// visible in the engine until a flush.
    #[must_use]
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the engine — e.g. to attach a
    /// [`crate::MisReader`] on an owned session. Changes applied
    /// directly bypass the queue: they settle immediately, *ahead of*
    /// everything still queued in the open window.
    #[must_use]
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Consumes the session, returning the engine. Queued (unflushed)
    /// changes are discarded — call [`Self::flush`] first to settle the
    /// open window.
    #[must_use]
    pub fn into_engine(self) -> E {
        self.engine
    }

    /// Queues one change, stamping its arrival on the session clock and
    /// coalescing it against the queue; flushes if the policy trips
    /// (window reached its depth watermark, or the oldest queued change
    /// reached the deadline).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from an auto-flush (see
    /// [`Self::flush`]); pushes that do not flush cannot fail.
    pub fn push(&mut self, change: TopologyChange) -> Result<Option<IngestReceipt>, GraphError> {
        let now = self.clock.now();
        self.arrivals.push(now);
        self.queue.push(change);
        if self
            .controller
            .should_flush(self.queue.pushed(), self.oldest_age(now))
        {
            self.flush().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Re-evaluates the policy against the session clock *without*
    /// pushing: how deadline-bearing policies fire between pushes. A
    /// driver loop calls this on its idle ticks; flushes (returning the
    /// receipt) iff the window is non-empty and the oldest queued change
    /// has reached the deadline.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] exactly as [`Self::flush`] does.
    pub fn poll(&mut self) -> Result<Option<IngestReceipt>, GraphError> {
        let now = self.clock.now();
        if self
            .controller
            .should_flush(self.queue.pushed(), self.oldest_age(now))
        {
            self.flush().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Age of the open window's oldest push at `now`.
    fn oldest_age(&self, now: Duration) -> Option<Duration> {
        self.arrivals.first().map(|&t| now.saturating_sub(t))
    }

    /// Settles the queued window as **one merged batch** and returns the
    /// extended receipt, feeding the flush's coalesce fraction and
    /// clocked settle cost to the policy (the adaptive smoother's
    /// observation). Flushing an empty queue applies an empty batch
    /// (all receipt counters zero).
    ///
    /// # Errors
    ///
    /// Propagates the first [`GraphError`] from the underlying
    /// `apply_batch`. The queue is consumed either way — the window's
    /// push/coalesce/delay accounting is dropped with the error and the
    /// policy observes nothing — and the engine is left with the valid
    /// prefix applied exactly as `apply_batch` documents.
    ///
    /// With a [`Self::set_wal_sink`] installed, the window is persisted
    /// **before** `apply_batch` runs (log-then-publish); a sink failure
    /// returns [`GraphError::PersistFailed`] with the window consumed
    /// but neither logged nor applied.
    pub fn flush(&mut self) -> Result<IngestReceipt, GraphError> {
        let (batch, pushed) = self.queue.drain();
        if let Some(wal) = self.wal.as_mut() {
            if wal.persist(&batch).is_err() {
                // The engine (and every published epoch) still matches
                // the persisted prefix; only the unlogged window is
                // lost, which is exactly what recovery can replay
                // around.
                self.arrivals.clear();
                return Err(GraphError::PersistFailed);
            }
        }
        let flushed_at = self.clock.now();
        let delays: Vec<Duration> = self
            .arrivals
            .drain(..)
            .map(|t| flushed_at.saturating_sub(t))
            .collect();
        let receipt = self.engine.apply_batch(&batch)?;
        let settle = self.clock.now().saturating_sub(flushed_at);
        self.controller.observe_flush(pushed, batch.len(), settle);
        Ok(IngestReceipt {
            pushed,
            coalesced_changes: pushed - batch.len(),
            batch: receipt,
            delay: QueueDelay::new(delays, settle),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmis_graph::generators;

    #[test]
    fn coalescer_cancels_opposing_pairs() {
        let (_, ids) = DynGraphFixture::path3();
        let mut q = ChangeCoalescer::new();
        q.push(TopologyChange::InsertEdge(ids[0], ids[2]));
        q.push(TopologyChange::DeleteEdge(ids[2], ids[0])); // endpoint order irrelevant
        assert!(q.is_empty());
        assert_eq!(q.pushed(), 2);
        let (batch, pushed) = q.drain();
        assert!(batch.is_empty());
        assert_eq!(pushed, 2);
        assert_eq!(q.pushed(), 0, "drain resets the push counter");
    }

    #[test]
    fn coalescer_last_writer_wins_on_duplicates() {
        let (_, ids) = DynGraphFixture::path3();
        let mut q = ChangeCoalescer::new();
        q.push(TopologyChange::DeleteEdge(ids[0], ids[1]));
        q.push(TopologyChange::DeleteEdge(ids[1], ids[0]));
        assert_eq!(q.depth(), 1);
        let (batch, pushed) = q.drain();
        assert_eq!(pushed, 2);
        assert_eq!(batch, vec![TopologyChange::DeleteEdge(ids[1], ids[0])]);
    }

    #[test]
    fn coalescer_cancel_then_repush_survives() {
        let (_, ids) = DynGraphFixture::path3();
        let mut q = ChangeCoalescer::new();
        q.push(TopologyChange::InsertEdge(ids[0], ids[2]));
        q.push(TopologyChange::DeleteEdge(ids[0], ids[2])); // cancels
        q.push(TopologyChange::InsertEdge(ids[0], ids[2])); // fresh entry
        assert_eq!(q.depth(), 1);
        let (batch, _) = q.drain();
        assert_eq!(batch, vec![TopologyChange::InsertEdge(ids[0], ids[2])]);
    }

    #[test]
    fn node_changes_are_coalescing_barriers() {
        let (g, ids) = DynGraphFixture::path3();
        let mut q = ChangeCoalescer::new();
        q.push(TopologyChange::DeleteEdge(ids[0], ids[1]));
        q.push(TopologyChange::InsertNode {
            id: g.peek_next_id(),
            edges: vec![ids[0]],
        });
        // Same edge after the barrier: must NOT cancel the pre-barrier
        // delete.
        q.push(TopologyChange::InsertEdge(ids[0], ids[1]));
        assert_eq!(q.depth(), 3);
        let (batch, _) = q.drain();
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn capacity_axis_makes_bootstrap_regrow_free() {
        // A pre-sized engine bootstraps thousands of nodes — a
        // scaled-down image of the 10^6 load the scale tier benches —
        // without a single table reallocation; the identical unsized
        // bootstrap regrows (the counter actually counts). The bench's
        // scale rows repeat this check at n = 10^5/10^6 in release mode.
        let n = 6_000usize;
        let bootstrap = |mut engine: MisEngine| {
            let mut last: Option<dmis_graph::NodeId> = None;
            for i in 0..n {
                let nbrs: Vec<dmis_graph::NodeId> = match last {
                    Some(p) if i % 3 == 0 => vec![p],
                    _ => Vec::new(),
                };
                let (v, _) = engine.insert_node(&nbrs).unwrap();
                last = Some(v);
            }
            engine
        };
        let sized = bootstrap(Engine::builder().capacity(n).build_unsharded());
        assert_eq!(sized.storage_regrows(), 0, "pre-sized bootstrap regrew");
        let unsized_ = bootstrap(Engine::builder().build_unsharded());
        assert!(unsized_.storage_regrows() > 0, "regrow counter is live");
        assert_eq!(sized.mis_len(), unsized_.mis_len(), "sizing is inert");

        let mut sharded = Engine::builder()
            .capacity(n)
            .sharding(ShardLayout::striped(4))
            .build_sharded();
        let mut last = None;
        for i in 0..n {
            let nbrs: Vec<dmis_graph::NodeId> = match last {
                Some(p) if i % 3 == 0 => vec![p],
                _ => Vec::new(),
            };
            let (v, _) = sharded.insert_node(&nbrs).unwrap();
            last = Some(v);
        }
        assert_eq!(sharded.storage_regrows(), 0, "sharded bootstrap regrew");
        assert_eq!(sharded.mis_len(), sized.mis_len());
    }

    #[test]
    fn builder_flavors_agree_on_outputs() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let (g, _) = generators::erdos_renyi(24, 0.2, &mut rng);
        let unsharded = Engine::builder()
            .graph(g.clone())
            .seed(11)
            .build_unsharded();
        let sharded = Engine::builder()
            .graph(g.clone())
            .seed(11)
            .sharding(ShardLayout::striped(3))
            .build_sharded();
        assert_eq!(unsharded.mis(), sharded.mis());
        // The boxed path picks the sharded flavor when a sharding axis is
        // set.
        let boxed = Engine::builder()
            .graph(g)
            .seed(11)
            .sharding(ShardLayout::striped(3))
            .build();
        assert_eq!(
            boxed.durability_meta().flavor,
            crate::durability::EngineFlavor::Sharded
        );
        assert_eq!(boxed.mis(), unsharded.mis());
    }

    #[test]
    #[should_panic(expected = "build_sharded()")]
    fn unsharded_build_rejects_sharding_axis() {
        let _ = Engine::builder()
            .sharding(ShardLayout::striped(2))
            .build_unsharded();
    }

    #[test]
    fn session_watermark_auto_flushes() {
        let (g, ids) = generators::cycle(8);
        let mut engine = Engine::builder().graph(g).seed(3).build_unsharded();
        let mut session = IngestSession::with_watermark(&mut engine, 2);
        assert_eq!(session.watermark(), Some(2));
        assert!(session
            .push(TopologyChange::DeleteEdge(ids[0], ids[1]))
            .unwrap()
            .is_none());
        let receipt = session
            .push(TopologyChange::DeleteEdge(ids[2], ids[3]))
            .unwrap()
            .expect("watermark reached");
        assert_eq!(receipt.applied(), 2);
        assert_eq!(receipt.coalesced_changes(), 0);
        assert_eq!(session.queue_depth(), 0);
        assert!(!session.engine().graph().has_edge(ids[0], ids[1]));
    }

    /// Tiny fixture helper so coalescer tests do not need an engine.
    struct DynGraphFixture;
    impl DynGraphFixture {
        fn path3() -> (DynGraph, Vec<NodeId>) {
            generators::path(3)
        }
    }
}
