//! The engine: one set of per-node tables, settled in increasing π.
//!
//! [`MisEngine`] is the repo's realization of the paper's template
//! (Algorithm 1): it owns the graph, the random order π, each node's
//! membership bit and lower-MIS counter, and restores the MIS invariant
//! after every topology change by settling dirty nodes in increasing π
//! order. A [`ShardLayout`], set through
//! [`crate::EngineBuilder::sharding`], changes only *when* nodes settle:
//! the sharded schedule ([`crate::sharding`]) drains each shard's dirty
//! nodes in barrier-synchronized epochs over the same tables, and lands
//! on the same output bit for bit. Every other maintainer in the
//! workspace is defined against this engine — the BTree baseline mirrors
//! its behavior on the old storage layout.

use dmis_graph::{
    ChangeKind, DynGraph, GraphError, NodeId, NodeMap, NodeSet, SettleFront, ShardLayout,
    TopologyChange,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::durability::{DurabilityMeta, EngineFlavor, RepairReport};
use crate::invariant::{self, InvariantViolation};
use crate::sharding::{NodeTables, ShardSchedule};
use crate::snapshot::{MisPublisher, MisReader, PublishSlot};
use crate::{BatchReceipt, DynamicMis, MisState, Priority, PriorityMap, UpdateReceipt};

/// Work and traffic counters accumulated over one recovery. The
/// unsharded drain fills only `pops` and `counter_updates`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SettleStats {
    pub(crate) pops: usize,
    pub(crate) counter_updates: usize,
    pub(crate) handoffs: usize,
    pub(crate) shard_runs: usize,
    pub(crate) epochs: usize,
}

/// Incremental maintainer of the random-greedy MIS — the paper's template
/// (Algorithm 1) realized as an efficient sequential data structure.
///
/// The engine owns the graph, the random order π (drawn lazily, one priority
/// per node at insertion time, which keeps the algorithm history
/// independent), and for every node `v` a counter of its *lower-order MIS
/// neighbors*. The MIS invariant is then simply
/// `v ∈ M ⟺ lower_mis_count(v) == 0`.
///
/// A topology change perturbs the counters of at most the changed node(s)
/// and their neighbors; the engine restores the invariant by settling dirty
/// nodes in increasing π order (a [`SettleFront`] keyed by the priorities
/// themselves), so each node's final state is decided exactly once. The
/// set of nodes whose output flips is the paper's adjustment set: by
/// Theorem 1 its expected size is at most 1 for any single change, under
/// the oblivious-adversary assumption.
///
/// The per-update sequential cost is `O(1 + Σ_{v flipped} deg(v))` plus
/// O(log k) front work per dirty node for k pending ones, which does not
/// grow with n — the O(Δ) factor per adjusted node the paper's Section 6
/// predicts for sequential implementations. A node insertion costs
/// O(degree): no other node's position in π moves.
///
/// Built with a [`ShardLayout`], the engine settles through the sharded
/// schedule instead ([`crate::sharding`]): same tables, same output, and
/// receipts that also audit the cross-shard traffic
/// ([`UpdateReceipt::cross_shard_handoffs`], [`UpdateReceipt::shard_runs`],
/// [`UpdateReceipt::settle_epochs`]).
///
/// # Example
///
/// ```
/// use dmis_core::{DynamicMis, Engine};
/// use dmis_graph::generators;
///
/// let (g, ids) = generators::star(6);
/// let mut engine = Engine::builder().graph(g).seed(7).build_unsharded();
/// let before = engine.mis();
/// let receipt = engine.insert_edge(ids[1], ids[2])?;
/// assert!(engine.check_invariant().is_ok());
/// // The adjustment set is exactly the symmetric difference of outputs.
/// let after = engine.mis();
/// let diff: Vec<_> = before.symmetric_difference(&after).collect();
/// assert_eq!(diff.len(), receipt.adjustments());
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MisEngine {
    graph: DynGraph,
    priorities: PriorityMap,
    /// Dense membership bitset: `v ∈ M ⟺ in_mis.contains(v)`.
    in_mis: NodeSet,
    /// Dense counter table: number of lower-π MIS neighbors per node.
    lower_mis_count: NodeMap<usize>,
    rng: StdRng,
    /// The value that seeded `rng` — checkpointed by the durability
    /// layer so recovery can rebuild the identical priority stream.
    seed: u64,
    /// Priority keys drawn from `rng` since construction. A restored
    /// engine replays exactly this many draws on a fresh `seed`-ed RNG
    /// to park the stream at the checkpointed position.
    draws: u64,
    /// Scratch bitset marking nodes currently enqueued in a settle
    /// front; deduplicates pushes so each node is popped at most once per
    /// drain.
    enqueued: NodeSet,
    /// Persistent π-keyed dirty queue of the unsharded drain: empty
    /// between updates, like `enqueued`, and it keeps its capacity, so
    /// steady-state settles never allocate. Unused under a layout.
    front: SettleFront,
    /// The sharded settle schedule, if the engine was built with a
    /// [`ShardLayout`]: one front and outbox per shard plus the net-flip
    /// log. `None` settles through [`Self::propagate`].
    sharding: Option<ShardSchedule>,
    /// Snapshot publication slot: empty (and free on the settle path)
    /// until [`Self::reader`] attaches a read path; then every settle
    /// publishes the quiesced membership. Cloning an engine detaches —
    /// see [`crate::snapshot`].
    publisher: PublishSlot,
}

impl MisEngine {
    /// An engine over `graph`, drawing fresh random priorities for all
    /// its nodes in identifier order and computing the initial greedy
    /// MIS; `seed` determinizes all priority draws, so same seed ⇒ same
    /// draws under every schedule. Reached through
    /// [`crate::EngineBuilder`].
    pub(crate) fn from_graph_impl(
        graph: DynGraph,
        sharding: Option<ShardSchedule>,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut priorities = PriorityMap::new();
        let mut draws = 0u64;
        for v in graph.nodes() {
            priorities.assign(v, &mut rng);
            draws += 1;
        }
        Self::with_priorities(graph, priorities, sharding, rng, seed, draws)
    }

    /// An engine over an existing graph with prescribed priorities (tests,
    /// the theory checks, which need a fixed π, and checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if some node of the graph has no priority, or if a
    /// priority names a node the graph does not hold.
    pub(crate) fn from_parts_impl(
        graph: DynGraph,
        priorities: PriorityMap,
        sharding: Option<ShardSchedule>,
        seed: u64,
    ) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        Self::with_priorities(graph, priorities, sharding, rng, seed, 0)
    }

    fn with_priorities(
        graph: DynGraph,
        priorities: PriorityMap,
        sharding: Option<ShardSchedule>,
        rng: StdRng,
        seed: u64,
        draws: u64,
    ) -> Self {
        let (in_mis, lower_mis_count) = seed_greedy(&graph, &priorities);
        MisEngine {
            graph,
            priorities,
            in_mis,
            lower_mis_count,
            rng,
            seed,
            draws,
            enqueued: NodeSet::new(),
            front: SettleFront::new(),
            sharding,
            publisher: PublishSlot::default(),
        }
    }

    fn count_lower_mis(&self, v: NodeId) -> usize {
        self.graph
            .neighbors(v)
            .expect("live node")
            .filter(|&u| self.in_mis.contains(u) && self.priorities.before(u, v))
            .count()
    }

    /// Sets the output bit of `v`.
    fn set_in_mis(&mut self, v: NodeId, member: bool) {
        if member {
            self.in_mis.insert(v);
        } else {
            self.in_mis.remove(v);
        }
    }

    /// Returns the current graph.
    #[must_use]
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// Returns the priority assignment π.
    #[must_use]
    pub fn priorities(&self) -> &PriorityMap {
        &self.priorities
    }

    /// Iterates over the current MIS in identifier order without
    /// allocating a set.
    pub fn mis_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.in_mis.iter()
    }

    /// Size of the current MIS — O(1) on the membership bitset, no
    /// per-call allocation, unlike [`crate::DynamicMis::mis`].
    #[must_use]
    pub fn mis_len(&self) -> usize {
        self.in_mis.len()
    }

    /// Returns whether `v` is in the MIS, or `None` if `v` does not exist.
    #[must_use]
    pub fn is_in_mis(&self, v: NodeId) -> Option<bool> {
        self.graph.has_node(v).then(|| self.in_mis.contains(v))
    }

    /// Returns a concurrent read handle over the engine's published
    /// snapshots, attaching the publication layer on first call: the
    /// current membership is published as epoch 0, and every subsequent
    /// settle publishes the next epoch at its flush boundary. Later
    /// calls hand out additional handles onto the same channel. See
    /// [`crate::snapshot`] for the consistency and epoch guarantees;
    /// until first call, the settle path pays nothing for this feature.
    pub fn reader(&mut self) -> MisReader {
        if !self.publisher.is_attached() {
            self.publisher
                .set(MisPublisher::attach(self.in_mis.clone()));
        }
        self.publisher.get().expect("just attached").reader()
    }

    /// Draws the next priority key from the engine's seeded stream (the
    /// draw behind [`crate::DynamicMis::insert_node`]).
    pub(crate) fn draw_key(&mut self) -> u64 {
        self.draws += 1;
        self.rng.random()
    }

    /// Marks `v` dirty: it enters its settle front at once (its shard's,
    /// under a layout), keyed by its priority, and only once however many
    /// changes or flipping neighbors mark it before it pops. A priority
    /// never moves, so no later change of the update can invalidate the
    /// entry.
    fn mark(&mut self, v: NodeId) {
        if self.enqueued.insert(v) {
            let key = self.priorities.of(v).key();
            match &mut self.sharding {
                None => self.front.push(key, v),
                Some(schedule) => schedule.push(key, v),
            }
        }
    }

    /// Applies a counter delta to `v` and marks it dirty. A delta is one
    /// message from `origin`, the node whose membership it reflects:
    /// under a layout it counts as a cross-shard handoff when `v` lives
    /// on another shard. A delta-free call (`delta == 0`) is a
    /// conservative dirty mark the batch path seeds for parity with the
    /// single-change path; it carries no state and counts nothing.
    fn bump(&mut self, v: NodeId, delta: isize, origin: NodeId, stats: &mut SettleStats) {
        if delta != 0 {
            if let Some(schedule) = &self.sharding {
                let layout = schedule.layout();
                stats.handoffs += usize::from(layout.shard_of(v) != layout.shard_of(origin));
            }
            let c = self.lower_mis_count.get_mut(v).expect("live node");
            *c = c.checked_add_signed(delta).expect("counter in range");
            stats.counter_updates += 1;
        }
        self.mark(v);
    }

    /// Inserts the edge `{u, v}` and restores the MIS invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the underlying graph operation; on
    /// error the engine is unchanged.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        self.graph.insert_edge(u, v)?;
        let (lo, hi) = self.order_pair(u, v);
        let mut stats = SettleStats::default();
        if self.in_mis.contains(lo) {
            self.bump(hi, 1, lo, &mut stats);
        }
        Ok(self.settle(ChangeKind::EdgeInsert, stats))
    }

    /// Removes the edge `{u, v}` and restores the MIS invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the underlying graph operation; on
    /// error the engine is unchanged.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        self.graph.remove_edge(u, v)?;
        let (lo, hi) = self.order_pair(u, v);
        let mut stats = SettleStats::default();
        if self.in_mis.contains(lo) {
            self.bump(hi, -1, lo, &mut stats);
        }
        Ok(self.settle(ChangeKind::EdgeDelete, stats))
    }

    /// Inserts a new node with a *prescribed* random key instead of drawing
    /// one — used by baselines that derandomize the order (e.g. the
    /// deterministic greedy-by-identifier algorithm of the Section 1.1 lower
    /// bound) and by tests that need adversarial orders.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if a neighbor is missing or repeated; on
    /// error the engine is unchanged.
    pub fn insert_node_with_key<I>(
        &mut self,
        neighbors: I,
        key: u64,
    ) -> Result<(NodeId, UpdateReceipt), GraphError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let v = self.graph.add_node_with_edges(neighbors)?;
        self.priorities.insert(v, Priority::new(key, v));
        self.enter(v);
        let receipt = self.settle(ChangeKind::NodeInsert, SettleStats::default());
        Ok((v, receipt))
    }

    /// Gives the just-added node `v` its counter and marks it dirty. The
    /// newcomer starts with the paper's temporary state M̄ (§4.1), so no
    /// neighbor counter is affected by its arrival; its membership bit is
    /// simply left unset.
    fn enter(&mut self, v: NodeId) {
        let count = self.count_lower_mis(v);
        self.lower_mis_count.insert(v, count);
        self.mark(v);
    }

    /// Removes node `v` and restores the MIS invariant.
    ///
    /// The receipt's flips cover the *remaining* nodes; the departure of `v`
    /// itself is implied by the change. (The paper's influenced set counts
    /// `v*` too when it was an MIS node; use [`crate::template`] to observe
    /// that accounting.)
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if `v` does not exist.
    pub fn remove_node(&mut self, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        let mut stats = SettleStats::default();
        self.delete_node(v, false, &mut stats)?;
        Ok(self.settle(ChangeKind::NodeDelete, stats))
    }

    /// Deletes `v` and decrements the counter of each higher-π neighbor
    /// if `v` was a member. Those neighbors are marked dirty only then,
    /// unless `mark_all` asks for every higher-π neighbor (the batch
    /// path's conservative seeds).
    fn delete_node(
        &mut self,
        v: NodeId,
        mark_all: bool,
        stats: &mut SettleStats,
    ) -> Result<(), GraphError> {
        if !self.graph.has_node(v) {
            return Err(GraphError::MissingNode(v));
        }
        let was_in = self.in_mis.contains(v);
        let prio_v = self.priorities.of(v);
        let nbrs = self.graph.remove_node(v)?;
        self.priorities.remove(v);
        self.in_mis.remove(v);
        self.lower_mis_count.remove(v);
        if was_in {
            // Departures are not flips (receipts cover the *remaining*
            // nodes), so the publish log learns of them here.
            self.publisher.record(v, false);
        }
        // If `v` itself was marked by an earlier change of a batch, its
        // front entry is now stale and pops with no counter.
        if was_in || mark_all {
            for w in nbrs {
                if self.priorities.of(w) > prio_v {
                    self.bump(w, -isize::from(was_in), v, stats);
                }
            }
        }
        Ok(())
    }

    /// Applies a **batch** of topology changes atomically: all graph
    /// mutations land first, then a single propagation pass restores the
    /// MIS invariant.
    ///
    /// This addresses the paper's first open question ("whether our
    /// analysis can be extended to cope with more than a single failure at
    /// a time"): the template generalizes mechanically — every violated
    /// node seeds the same priority-ordered settlement — and experiment
    /// E12 measures how the influenced set grows with the batch size
    /// (trivially at most the sum of the per-change bounds, i.e. `≤ k` in
    /// expectation for `k` changes, because the batch recovery flips a
    /// subset of the union of the sequential recoveries' flips).
    ///
    /// Changes are interpreted sequentially for *validity* (a batch may
    /// insert a node and immediately connect it), but the invariant is only
    /// restored once.
    ///
    /// # Example
    ///
    /// ```
    /// use dmis_core::{DynamicMis, Engine};
    /// use dmis_graph::{generators, TopologyChange};
    ///
    /// let (g, ids) = generators::cycle(6);
    /// let mut engine = Engine::builder().graph(g).seed(11).build_unsharded();
    /// // Two simultaneous deletions recover through ONE settle pass.
    /// let receipt = engine.apply_batch(&[
    ///     TopologyChange::DeleteEdge(ids[0], ids[1]),
    ///     TopologyChange::DeleteEdge(ids[3], ids[4]),
    /// ])?;
    /// assert_eq!(receipt.applied(), 2);
    /// assert!(engine.check_invariant().is_ok());
    /// # Ok::<(), dmis_graph::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] encountered. Changes before the
    /// failing one remain applied and the invariant is restored for them,
    /// so the engine stays consistent; the failing and subsequent changes
    /// are not applied.
    pub fn apply_batch(&mut self, changes: &[TopologyChange]) -> Result<BatchReceipt, GraphError> {
        let mut stats = SettleStats::default();
        let mut applied = 0usize;
        let mut failure: Option<GraphError> = None;
        for change in changes {
            match self.mutate_only(change, &mut stats) {
                Ok(()) => applied += 1,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let receipt = self.settle(
            changes
                .first()
                .map_or(ChangeKind::EdgeInsert, TopologyChange::kind),
            stats,
        );
        match failure {
            Some(e) => Err(e),
            None => Ok(BatchReceipt::new(applied, receipt)),
        }
    }

    /// Applies one change's graph mutation and counter fix-ups against the
    /// *frozen* output states, marking dirty nodes but deferring
    /// propagation.
    fn mutate_only(
        &mut self,
        change: &TopologyChange,
        stats: &mut SettleStats,
    ) -> Result<(), GraphError> {
        match change {
            TopologyChange::InsertEdge(u, v) => {
                self.graph.insert_edge(*u, *v)?;
                let (lo, hi) = self.order_pair(*u, *v);
                self.bump(hi, isize::from(self.in_mis.contains(lo)), lo, stats);
            }
            TopologyChange::DeleteEdge(u, v) => {
                self.graph.remove_edge(*u, *v)?;
                let (lo, hi) = self.order_pair(*u, *v);
                self.bump(hi, -isize::from(self.in_mis.contains(lo)), lo, stats);
            }
            TopologyChange::InsertNode { id, edges } => {
                if self.graph.peek_next_id() != *id {
                    return Err(GraphError::MissingNode(*id));
                }
                let v = self.graph.add_node_with_edges(edges.iter().copied())?;
                self.priorities.assign(v, &mut self.rng);
                self.draws += 1;
                self.enter(v);
            }
            TopologyChange::DeleteNode(v) => self.delete_node(*v, true, stats)?,
        }
        Ok(())
    }

    /// Verifies the MIS invariant over the whole graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_invariant(&self) -> Result<(), InvariantViolation> {
        // Dense path: the membership bitset is checked in place, no
        // ordered-set materialization.
        invariant::check_mis_invariant_dense(&self.graph, &self.priorities, &self.in_mis)
    }

    /// Scans every live node for corrupted membership/counter state and
    /// heals what it finds with the template's self-stabilizing local
    /// rule — the engine-tier realization of the paper's
    /// super-stabilization story (E13) and the RAM-fault half of the
    /// durability layer (see [`crate::durability`]).
    ///
    /// Detection is one O(n + m) sweep: for each node the true
    /// lower-MIS count is recomputed from the *current* (possibly
    /// corrupt) membership; any node whose stored counter or membership
    /// bit contradicts it is a violation. Counters are fixed in place,
    /// and the violated set seeds the standard priority-ordered settle
    /// drain, which converges to the unique greedy fixed point for
    /// (graph, π) — so healing costs O(k·Δ) beyond the scan for k
    /// corrupted nodes, instead of an O(n + m) rebuild, and the result
    /// is bit-identical to an engine that was never corrupted. Under a
    /// layout the heal runs through the ordinary epoch schedule, so
    /// cross-shard cascades and receipts behave exactly like a settle.
    ///
    /// If a read path is attached, a repair that found anything
    /// publishes a **fresh** epoch (never a regressed one), exactly
    /// like a settle.
    pub fn verify_and_repair(&mut self) -> RepairReport {
        let nodes: Vec<NodeId> = self.graph.nodes().collect();
        let scanned = nodes.len();
        let mut counters_fixed = 0usize;
        let mut memberships_violated = 0usize;
        for v in nodes {
            let truth = self.count_lower_mis(v);
            let mut violated = false;
            if self.lower_mis_count[v] != truth {
                *self.lower_mis_count.get_mut(v).expect("live node") = truth;
                counters_fixed += 1;
                violated = true;
            }
            if self.in_mis.contains(v) != (truth == 0) {
                memberships_violated += 1;
                violated = true;
            }
            if violated {
                self.mark(v);
            }
        }
        if counters_fixed + memberships_violated == 0 {
            return RepairReport::clean(scanned);
        }
        // The settle drain *is* the local rule: it pops the violated set
        // in increasing π, finalizing each node against its (now
        // truthful) counter. `EdgeInsert` is only the receipt's label —
        // repair is not a topology change.
        let stats = SettleStats {
            counter_updates: counters_fixed,
            ..SettleStats::default()
        };
        let receipt = self.settle(ChangeKind::EdgeInsert, stats);
        RepairReport::new(scanned, counters_fixed, memberships_violated, &receipt)
    }

    /// Test-only fault injector: flips the membership bit of each live
    /// victim *without* touching the counters — exactly the corruption
    /// model of E13, now at the engine tier. Returns how many victims
    /// were live (and therefore flipped). Each flip also enters the
    /// publish log, so the next published snapshot equals the engine's
    /// membership even if no settle ever flips the bit back.
    #[doc(hidden)]
    pub fn corrupt_in_mis(&mut self, victims: &[NodeId]) -> usize {
        let mut flipped = 0;
        for &v in victims {
            if !self.graph.has_node(v) {
                continue;
            }
            let member = !self.in_mis.contains(v);
            self.set_in_mis(v, member);
            self.publisher.record(v, member);
            flipped += 1;
        }
        flipped
    }

    /// Checkpoint-time metadata: flavor (sharded iff a layout is set),
    /// layout, RNG position, epoch.
    #[doc(hidden)]
    #[must_use]
    pub fn durability_meta(&self) -> DurabilityMeta {
        let (flavor, layout) = match &self.sharding {
            None => (EngineFlavor::Unsharded, ShardLayout::single()),
            Some(schedule) => (EngineFlavor::Sharded, schedule.layout()),
        };
        DurabilityMeta {
            flavor,
            shards: layout.shards(),
            block: layout.block(),
            seed: self.seed,
            draws: self.draws,
            epoch: self.publisher.get().map(MisPublisher::epoch),
        }
    }

    /// Recovery-time re-attach: installs the publication channel at a
    /// prescribed epoch (instead of the usual 0) so readers resuming
    /// after a crash never observe a regressed epoch. Must be called on
    /// a freshly built engine, before [`Self::reader`].
    #[doc(hidden)]
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.publisher
            .set(MisPublisher::attach_at(self.in_mis.clone(), epoch));
    }

    /// Verifies every internal bookkeeping structure against a from-scratch
    /// recomputation. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if any counter, priority, or state diverged.
    pub fn assert_internally_consistent(&self) {
        self.graph.assert_consistent();
        self.assert_tables_settled();
        let ground_truth = crate::static_greedy::greedy_mis_dense(&self.graph, &self.priorities);
        assert_eq!(
            self.in_mis.len(),
            ground_truth.len(),
            "membership bitset holds stale bits"
        );
        for v in self.graph.nodes() {
            assert_eq!(
                self.in_mis.contains(v),
                ground_truth.contains(v),
                "state of {v} diverged from static greedy"
            );
            assert_eq!(
                self.lower_mis_count[v],
                self.count_lower_mis(v),
                "counter of {v} diverged"
            );
        }
    }

    /// The whole-table facts both consistency checks assert exactly:
    /// table sizes, the cached `mis_len` against a membership popcount,
    /// and drained settle scratch.
    fn assert_tables_settled(&self) {
        assert_eq!(self.lower_mis_count.len(), self.graph.node_count());
        assert_eq!(self.priorities.len(), self.graph.node_count());
        assert_eq!(
            self.in_mis.len(),
            self.in_mis.popcount(),
            "cached mis_len diverged from the membership words"
        );
        assert!(self.enqueued.is_empty(), "enqueue scratch leaked bits");
        assert!(self.front.is_empty(), "settle front leaked entries");
        if let Some(schedule) = &self.sharding {
            schedule.assert_drained();
        }
    }

    /// Pre-sizes every per-node structure (adjacency slots, priorities,
    /// membership and scratch bitsets, counters, and under a layout the
    /// first-touch bitset) for `n` nodes, so a bootstrap of up to `n`
    /// insertions performs no incremental regrows — the difference
    /// between one upfront allocation per table and log(n)
    /// reallocation-plus-copy cycles during a 10^6-node load. The settle
    /// fronts are not per-node tables: they grow with the largest dirty
    /// set seen and keep that capacity.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.graph.reserve_nodes(n);
        self.priorities.reserve_nodes(n);
        self.in_mis.reserve_nodes(n);
        self.lower_mis_count.reserve_slots(n);
        self.enqueued.reserve_nodes(n);
        if let Some(schedule) = &mut self.sharding {
            schedule.reserve_nodes(n);
        }
    }

    /// Total times any per-node structure grew past its capacity
    /// (reallocated) since construction. 0 after an adequate
    /// [`Self::reserve_nodes`] — the debug counter behind the no-regrow
    /// bootstrap guarantee.
    #[must_use]
    pub fn storage_regrows(&self) -> u64 {
        self.graph.regrows()
            + self.priorities.regrows()
            + self.in_mis.regrows()
            + self.lower_mis_count.regrows()
            + self.enqueued.regrows()
            + self.sharding.as_ref().map_or(0, ShardSchedule::regrows)
    }

    /// [`Self::check_invariant`] restricted to ~`sample` deterministically
    /// chosen nodes — O(sample · avg-degree) instead of O(n + m). See
    /// [`invariant::check_mis_invariant_sampled`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found among sampled nodes.
    pub fn check_invariant_sampled(
        &self,
        sample: usize,
        seed: u64,
    ) -> Result<(), InvariantViolation> {
        invariant::check_mis_invariant_sampled(
            &self.graph,
            &self.priorities,
            &self.in_mis,
            sample,
            seed,
        )
    }

    /// Sampled counterpart of [`Self::assert_internally_consistent`]:
    /// global facts stay exact (cached `mis_len` against a membership
    /// popcount, table sizes, drained settle scratch), while per-node
    /// counters and membership are recomputed only for ~`sample`
    /// deterministically chosen nodes — so a per-update assertion on a
    /// 10^6-node test costs O(sample · avg-degree), not O(n + m) greedy
    /// recomputation.
    ///
    /// # Panics
    ///
    /// Panics if any checked structure diverged.
    pub fn assert_internally_consistent_sampled(&self, sample: usize, seed: u64) {
        self.assert_tables_settled();
        for v in invariant::sampled_nodes(&self.graph, sample, seed) {
            assert_eq!(
                self.lower_mis_count[v],
                self.count_lower_mis(v),
                "counter of {v} diverged"
            );
            assert_eq!(
                self.in_mis.contains(v),
                self.lower_mis_count[v] == 0,
                "membership of {v} contradicts its counter"
            );
        }
    }

    fn order_pair(&self, u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if self.priorities.before(u, v) {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Restores the invariant after an update's mutations — through
    /// [`Self::propagate`], or the sharded schedule's epoch loop under a
    /// layout — then publishes the flips and builds the receipt.
    fn settle(&mut self, kind: ChangeKind, mut stats: SettleStats) -> UpdateReceipt {
        let flips = match &mut self.sharding {
            None => self.propagate(&mut stats),
            Some(schedule) => schedule.settle(
                NodeTables {
                    graph: &self.graph,
                    priorities: &self.priorities,
                    in_mis: &mut self.in_mis,
                    lower_mis_count: &mut self.lower_mis_count,
                    enqueued: &mut self.enqueued,
                },
                &mut stats,
            ),
        };
        // Global quiescence: the flips carry this flush boundary.
        if let Some(p) = self.publisher.get_mut() {
            p.publish(&flips);
        }
        UpdateReceipt::new(kind, flips, stats.pops, stats.counter_updates).with_shard_stats(
            stats.handoffs,
            stats.shard_runs,
            stats.epochs,
        )
    }

    /// Settles dirty nodes in increasing π order and returns the flips in
    /// that order. Every node is finalized at its first pop because all
    /// lower-order dirty nodes settle first, so each node flips at most
    /// once per update.
    ///
    /// Dirty nodes wait in the persistent [`SettleFront`], keyed by their
    /// priorities, and the neighbor filter compares priorities read from
    /// the dense key table. Seeds were pushed as they were marked: no
    /// node's key moves when another node arrives or leaves, so nothing
    /// parked in the front can go out of date — except a batch seed whose
    /// node a later change deleted, which pops with no counter and is
    /// dropped without counting a pop.
    ///
    /// The `enqueued` bitset deduplicates the dirty set: a node seeded by
    /// several changes of a batch — or pushed by several flipping
    /// neighbors — enters the front once. Deduplication is sound because
    /// pops are non-decreasing in π (a flip at priority `p` only ever
    /// pushes strictly higher priorities), so a popped node can never
    /// need re-settling within the same propagation.
    fn propagate(&mut self, stats: &mut SettleStats) -> Vec<(NodeId, MisState)> {
        let mut flips = Vec::new();
        let mut pops = 0usize;
        let mut counter_updates = 0usize;
        while let Some((key, v)) = self.front.pop() {
            let p = Priority::new(key, v);
            // Safe to free the bit: a popped node can never be re-pushed
            // (all later pushes carry strictly higher priorities).
            self.enqueued.remove(v);
            let Some(&count) = self.lower_mis_count.get(v) else {
                continue;
            };
            pops += 1;
            let desired = count == 0;
            let current = self.in_mis.contains(v);
            if desired == current {
                continue;
            }
            self.set_in_mis(v, desired);
            flips.push((v, MisState::from_membership(desired)));
            let graph = &self.graph;
            let priorities = &self.priorities;
            let lower = &mut self.lower_mis_count;
            let enqueued = &mut self.enqueued;
            let front = &mut self.front;
            for chunk in graph.neighbor_chunks(v).expect("live node") {
                for &w in chunk {
                    let pw = priorities.of(w);
                    if pw > p {
                        let c = lower.get_mut(w).expect("live node");
                        if desired {
                            *c += 1;
                        } else {
                            *c -= 1;
                        }
                        counter_updates += 1;
                        if enqueued.insert(w) {
                            front.push(pw.key(), w);
                        }
                    }
                }
            }
        }
        stats.pops += pops;
        stats.counter_updates += counter_updates;
        flips
    }
}

/// An engine's initial state over `graph` under the order `priorities`
/// realizes: the membership bitset and every node's lower-MIS counter,
/// from one sweep in increasing π. A node joins the MIS iff its counter
/// is still 0 when its turn comes, since every lower-π neighbor is
/// decided by then; a joining node increments the counter of each
/// higher-π neighbor. So the sweep reads only the members' adjacency,
/// O(n log n + Σ_{v ∈ MIS} deg v) with the one sort into π order, and
/// its result is the greedy fixed point
/// [`crate::static_greedy::greedy_mis_dense`] computes. Every engine
/// seeds from it, whatever its settle schedule.
///
/// # Panics
///
/// Panics if `priorities` does not cover exactly the graph's nodes.
fn seed_greedy(graph: &DynGraph, priorities: &PriorityMap) -> (NodeSet, NodeMap<usize>) {
    let watermark = graph.peek_next_id().index() as usize;
    let mut lower = NodeMap::with_capacity(watermark);
    for v in graph.nodes() {
        assert!(priorities.get(v).is_some(), "node {v} has no priority");
        lower.insert(v, 0);
    }
    assert_eq!(
        priorities.len(),
        graph.node_count(),
        "priorities assigned to nodes the graph does not hold"
    );
    let mut in_mis = NodeSet::with_capacity(watermark);
    for v in priorities.nodes_by_priority() {
        if lower[v] != 0 {
            continue;
        }
        in_mis.insert(v);
        let pv = priorities.of(v);
        for chunk in graph.neighbor_chunks(v).expect("live node") {
            for &w in chunk {
                if priorities.of(w) > pv {
                    lower[w] += 1;
                }
            }
        }
    }
    (in_mis, lower)
}

// The shared convenience layer (`apply` dispatch, `insert_node` key
// draws, `mis`, `state`) is provided once by `DynamicMis`; the required
// primitives forward to the inherent methods above.
impl DynamicMis for MisEngine {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        self.insert_edge(u, v)
    }
    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        self.remove_edge(u, v)
    }
    fn insert_node_with_key(
        &mut self,
        neighbors: &[NodeId],
        key: u64,
    ) -> Result<(NodeId, UpdateReceipt), GraphError> {
        self.insert_node_with_key(neighbors.iter().copied(), key)
    }
    fn remove_node(&mut self, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        self.remove_node(v)
    }
    fn apply_batch(&mut self, changes: &[TopologyChange]) -> Result<BatchReceipt, GraphError> {
        self.apply_batch(changes)
    }
    fn draw_key(&mut self) -> u64 {
        self.draw_key()
    }
    fn graph(&self) -> &DynGraph {
        self.graph()
    }
    fn priorities(&self) -> &PriorityMap {
        self.priorities()
    }
    fn mis_iter(&self) -> Box<dyn Iterator<Item = NodeId> + '_> {
        Box::new(self.mis_iter())
    }
    fn mis_len(&self) -> usize {
        self.mis_len()
    }
    fn is_in_mis(&self, v: NodeId) -> Option<bool> {
        self.is_in_mis(v)
    }
    fn reader(&mut self) -> MisReader {
        self.reader()
    }
    fn verify_and_repair(&mut self) -> RepairReport {
        self.verify_and_repair()
    }
    fn corrupt_in_mis(&mut self, victims: &[NodeId]) -> usize {
        self.corrupt_in_mis(victims)
    }
    fn durability_meta(&self) -> DurabilityMeta {
        self.durability_meta()
    }
    fn restore_epoch(&mut self, epoch: u64) {
        self.restore_epoch(epoch);
    }
    fn check_invariant(&self) -> Result<(), InvariantViolation> {
        self.check_invariant()
    }
    fn assert_internally_consistent(&self) {
        self.assert_internally_consistent();
    }
    fn check_invariant_sampled(&self, sample: usize, seed: u64) -> Result<(), InvariantViolation> {
        self.check_invariant_sampled(sample, seed)
    }
    fn assert_internally_consistent_sampled(&self, sample: usize, seed: u64) {
        self.assert_internally_consistent_sampled(sample, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicMis;
    use dmis_graph::generators;
    use dmis_graph::stream::{self, ChurnConfig};
    use std::collections::BTreeSet;

    #[test]
    fn empty_engine() {
        let engine = crate::Engine::builder().seed(0).build_unsharded();
        assert!(engine.mis().is_empty());
        assert!(engine.check_invariant().is_ok());
    }

    #[test]
    fn from_graph_matches_static_greedy() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = generators::erdos_renyi(40, 0.15, &mut rng);
        let engine = crate::Engine::builder().graph(g).seed(99).build_unsharded();
        engine.assert_internally_consistent();
        assert!(engine.check_invariant().is_ok());
    }

    #[test]
    fn edge_insert_between_two_mis_nodes_evicts_higher() {
        let (g, ids) = DynGraph::with_nodes(2);
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(0)
            .build_unsharded();
        assert!(engine.is_in_mis(ids[0]).unwrap());
        assert!(engine.is_in_mis(ids[1]).unwrap());
        let receipt = engine.insert_edge(ids[0], ids[1]).unwrap();
        assert_eq!(receipt.adjustments(), 1);
        assert_eq!(receipt.flips(), &[(ids[1], MisState::Out)]);
        assert!(engine.is_in_mis(ids[0]).unwrap());
        assert!(!engine.is_in_mis(ids[1]).unwrap());
        engine.assert_internally_consistent();
    }

    #[test]
    fn edge_insert_without_conflict_adjusts_nothing() {
        let (mut g, ids) = DynGraph::with_nodes(3);
        g.insert_edge(ids[0], ids[1]).unwrap();
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(0)
            .build_unsharded();
        // ids[1] is out; connecting it to ids[2] (in) — wait, ids[2] is in
        // the MIS and higher, so inserting {1,2} evicts nobody: lower
        // endpoint ids[1] is out.
        let receipt = engine.insert_edge(ids[1], ids[2]).unwrap();
        assert_eq!(receipt.adjustments(), 0);
        engine.assert_internally_consistent();
    }

    #[test]
    fn edge_delete_lets_uncovered_node_in() {
        let (mut g, ids) = DynGraph::with_nodes(2);
        g.insert_edge(ids[0], ids[1]).unwrap();
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(0)
            .build_unsharded();
        assert!(!engine.is_in_mis(ids[1]).unwrap());
        let receipt = engine.remove_edge(ids[0], ids[1]).unwrap();
        assert_eq!(receipt.flips(), &[(ids[1], MisState::In)]);
        engine.assert_internally_consistent();
    }

    #[test]
    fn cascade_propagates_along_priority_path() {
        // Path p0 - p1 - p2 - p3 with increasing priorities: greedy MIS is
        // {p0, p2}. Deleting edge {p0, p1} lets p1 in, which evicts p2,
        // which lets p3 in: a 3-adjustment cascade.
        let (mut g, ids) = DynGraph::with_nodes(4);
        for w in ids.windows(2) {
            g.insert_edge(w[0], w[1]).unwrap();
        }
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(0)
            .build_unsharded();
        assert_eq!(engine.mis(), [ids[0], ids[2]].into_iter().collect());
        let receipt = engine.remove_edge(ids[0], ids[1]).unwrap();
        assert_eq!(
            receipt.flips(),
            &[
                (ids[1], MisState::In),
                (ids[2], MisState::Out),
                (ids[3], MisState::In)
            ]
        );
        engine.assert_internally_consistent();
    }

    #[test]
    fn node_insert_and_remove_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, ids) = generators::erdos_renyi(10, 0.3, &mut rng);
        let mut engine = crate::Engine::builder().graph(g).seed(3).build_unsharded();
        let (v, receipt) = engine.insert_node(&[ids[0], ids[1], ids[2]]).unwrap();
        assert!(engine.graph().has_node(v));
        let _ = receipt;
        engine.assert_internally_consistent();
        engine.remove_node(v).unwrap();
        assert!(!engine.graph().has_node(v));
        engine.assert_internally_consistent();
    }

    #[test]
    fn removing_mis_node_promotes_neighbor() {
        let (g, ids) = generators::star(4);
        // Center first: MIS = {center}.
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(0)
            .build_unsharded();
        assert_eq!(engine.mis(), [ids[0]].into_iter().collect());
        let receipt = engine.remove_node(ids[0]).unwrap();
        assert_eq!(receipt.adjustments(), 3, "all leaves join");
        assert_eq!(engine.mis_len(), 3);
        engine.assert_internally_consistent();
    }

    #[test]
    fn removing_non_mis_node_is_silent() {
        let (g, ids) = generators::star(4);
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(0)
            .build_unsharded();
        let receipt = engine.remove_node(ids[3]).unwrap();
        assert_eq!(receipt.adjustments(), 0);
        engine.assert_internally_consistent();
    }

    #[test]
    fn errors_leave_engine_untouched() {
        let (g, ids) = generators::path(3);
        let mut engine = crate::Engine::builder().graph(g).seed(0).build_unsharded();
        let snapshot = engine.mis();
        assert!(engine.insert_edge(ids[0], ids[1]).is_err());
        assert!(engine.remove_edge(ids[0], ids[2]).is_err());
        assert!(engine.remove_node(NodeId(50)).is_err());
        assert!(engine.insert_node(&[NodeId(50)]).is_err());
        assert_eq!(engine.mis(), snapshot);
        engine.assert_internally_consistent();
    }

    #[test]
    fn apply_dispatches_all_change_kinds() {
        let (g, ids) = generators::path(3);
        let mut engine = crate::Engine::builder().graph(g).seed(1).build_unsharded();
        let fresh = engine.graph().peek_next_id();
        engine
            .apply(&TopologyChange::InsertNode {
                id: fresh,
                edges: vec![ids[0]],
            })
            .unwrap();
        engine
            .apply(&TopologyChange::InsertEdge(fresh, ids[2]))
            .unwrap();
        engine
            .apply(&TopologyChange::DeleteEdge(fresh, ids[2]))
            .unwrap();
        engine.apply(&TopologyChange::DeleteNode(fresh)).unwrap();
        engine.assert_internally_consistent();
        // Stale pre-assigned identifier is rejected.
        let err = engine
            .apply(&TopologyChange::InsertNode {
                id: NodeId(0),
                edges: vec![],
            })
            .unwrap_err();
        assert_eq!(err, GraphError::MissingNode(NodeId(0)));
    }

    #[test]
    fn long_random_churn_stays_equal_to_static_greedy() {
        let mut rng = StdRng::seed_from_u64(12);
        let (g, _) = generators::erdos_renyi(25, 0.2, &mut rng);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .seed(100)
            .build_unsharded();
        let cfg = ChurnConfig::default();
        for step in 0..500 {
            let Some(change) = stream::random_change(engine.graph(), &cfg, &mut rng) else {
                continue;
            };
            engine.apply(&change).unwrap();
            if step % 50 == 0 {
                engine.assert_internally_consistent();
            }
        }
        engine.assert_internally_consistent();
    }

    #[test]
    fn adjustment_set_equals_output_symmetric_difference() {
        let mut rng = StdRng::seed_from_u64(21);
        let (g, _) = generators::erdos_renyi(30, 0.15, &mut rng);
        let mut engine = crate::Engine::builder().graph(g).seed(8).build_unsharded();
        for _ in 0..200 {
            let Some(change) =
                stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
            else {
                continue;
            };
            let before = engine.mis();
            let is_node_delete = matches!(change, TopologyChange::DeleteNode(_));
            let deleted = match change {
                TopologyChange::DeleteNode(v) => Some(v),
                _ => None,
            };
            let receipt = engine.apply(&change).unwrap();
            let after = engine.mis();
            let mut diff: BTreeSet<NodeId> = before.symmetric_difference(&after).copied().collect();
            if is_node_delete {
                // The departed node leaves the output by definition, not by
                // adjustment.
                if let Some(v) = deleted {
                    diff.remove(&v);
                }
            }
            assert_eq!(diff, receipt.adjusted_nodes());
        }
    }

    #[test]
    fn sampled_checks_pass_wherever_full_checks_pass() {
        let mut rng = StdRng::seed_from_u64(17);
        let (g, _) = generators::erdos_renyi(80, 0.08, &mut rng);
        let mut engine = crate::Engine::builder().graph(g).seed(9).build_unsharded();
        for step in 0..120u64 {
            let Some(change) =
                stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
            else {
                continue;
            };
            engine.apply(&change).unwrap();
            // Varying the seed sweeps different residue classes.
            engine.assert_internally_consistent_sampled(8, step);
            assert!(engine.check_invariant_sampled(8, step).is_ok());
        }
        // Sample >= n degenerates to the full per-node sweep.
        engine.assert_internally_consistent_sampled(usize::MAX, 0);
        assert_eq!(
            engine.check_invariant_sampled(usize::MAX, 0),
            engine.check_invariant()
        );
    }

    #[test]
    fn seeded_engines_are_reproducible() {
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(4);
            let (g, _) = generators::erdos_renyi(15, 0.3, &mut rng);
            let mut engine = crate::Engine::builder()
                .graph(g)
                .seed(seed)
                .build_unsharded();
            let mut outputs = Vec::new();
            for _ in 0..30 {
                if let Some(change) =
                    stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
                {
                    engine.apply(&change).unwrap();
                    outputs.push(engine.mis());
                }
            }
            outputs
        };
        assert_eq!(build(5), build(5));
    }

    #[test]
    fn average_adjustments_are_small() {
        // A smoke-level statistical check of Theorem 1 (the full statistical
        // experiment lives in dmis-bench): mean adjustments over random edge
        // churn should be below 1.5 with ample slack.
        let mut rng = StdRng::seed_from_u64(3);
        let (g, _) = generators::erdos_renyi(60, 0.08, &mut rng);
        let mut engine = crate::Engine::builder().graph(g).seed(10).build_unsharded();
        let mut total = 0usize;
        let trials = 400;
        for _ in 0..trials {
            let change =
                stream::random_change(engine.graph(), &ChurnConfig::edges_only(), &mut rng)
                    .expect("edge churn always possible here");
            total += engine.apply(&change).unwrap().adjustments();
        }
        let mean = total as f64 / f64::from(trials);
        assert!(mean < 1.5, "mean adjustments {mean} suspiciously high");
    }

    #[test]
    fn work_counters_are_reported() {
        let (g, ids) = generators::star(10);
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(0)
            .build_unsharded();
        let receipt = engine.remove_node(ids[0]).unwrap();
        assert!(receipt.heap_pops() >= receipt.adjustments());
        assert!(receipt.counter_updates() >= 9, "all leaves decremented");
    }

    #[test]
    fn batch_equals_sequential_final_state() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, _) = generators::erdos_renyi(20, 0.25, &mut rng);
            // Build a valid batch of edge changes on an evolving shadow.
            let mut shadow = g.clone();
            let mut batch = Vec::new();
            for _ in 0..6 {
                if let Some(change) =
                    stream::random_change(&shadow, &ChurnConfig::edges_only(), &mut rng)
                {
                    change.apply(&mut shadow).unwrap();
                    batch.push(change);
                }
            }
            let mut batched = crate::Engine::builder()
                .graph(g.clone())
                .seed(99 + seed)
                .build_unsharded();
            let mut sequential = batched.clone();
            batched.apply_batch(&batch).unwrap();
            for change in &batch {
                sequential.apply(change).unwrap();
            }
            assert_eq!(batched.mis(), sequential.mis());
            batched.assert_internally_consistent();
        }
    }

    #[test]
    fn batch_can_insert_and_wire_a_node() {
        let (g, ids) = generators::path(3);
        let mut engine = crate::Engine::builder().graph(g).seed(4).build_unsharded();
        let fresh = engine.graph().peek_next_id();
        let receipt = engine
            .apply_batch(&[
                TopologyChange::InsertNode {
                    id: fresh,
                    edges: vec![ids[0]],
                },
                TopologyChange::InsertEdge(fresh, ids[2]),
                TopologyChange::DeleteEdge(ids[0], ids[1]),
            ])
            .unwrap();
        assert_eq!(receipt.applied(), 3);
        engine.assert_internally_consistent();
        assert!(engine.graph().has_edge(fresh, ids[2]));
    }

    #[test]
    fn batch_can_delete_a_just_inserted_node() {
        let (g, ids) = generators::path(3);
        let mut engine = crate::Engine::builder().graph(g).seed(4).build_unsharded();
        let fresh = engine.graph().peek_next_id();
        engine
            .apply_batch(&[
                TopologyChange::InsertNode {
                    id: fresh,
                    edges: vec![ids[0], ids[2]],
                },
                TopologyChange::DeleteNode(fresh),
            ])
            .unwrap();
        assert!(!engine.graph().has_node(fresh));
        engine.assert_internally_consistent();
    }

    #[test]
    fn batch_failure_keeps_engine_consistent() {
        let (g, ids) = generators::path(4);
        let mut engine = crate::Engine::builder().graph(g).seed(4).build_unsharded();
        let err = engine
            .apply_batch(&[
                TopologyChange::DeleteEdge(ids[0], ids[1]),
                TopologyChange::DeleteEdge(ids[0], ids[3]), // not an edge
                TopologyChange::DeleteEdge(ids[2], ids[3]),
            ])
            .unwrap_err();
        assert_eq!(err, GraphError::MissingEdge(ids[0], ids[3]));
        // The applied prefix (first deletion) is in effect and the
        // invariant is restored for it; the tail was not applied.
        assert!(!engine.graph().has_edge(ids[0], ids[1]));
        assert!(engine.graph().has_edge(ids[2], ids[3]));
        engine.assert_internally_consistent();
    }

    #[test]
    fn batch_of_simultaneous_failures_recovers() {
        // The paper's open question: several deletions at once. Delete
        // three MIS nodes of a cycle simultaneously.
        let (g, ids) = generators::cycle(9);
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(0)
            .build_unsharded();
        let mis = engine.mis();
        let victims: Vec<NodeId> = mis.into_iter().take(3).collect();
        let batch: Vec<TopologyChange> = victims
            .iter()
            .map(|&v| TopologyChange::DeleteNode(v))
            .collect();
        engine.apply_batch(&batch).unwrap();
        engine.assert_internally_consistent();
        assert!(engine.check_invariant().is_ok());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (g, _) = generators::path(3);
        let mut engine = crate::Engine::builder().graph(g).seed(1).build_unsharded();
        let before = engine.mis();
        let receipt = engine.apply_batch(&[]).unwrap();
        assert_eq!(receipt.applied(), 0);
        assert_eq!(receipt.adjustments(), 0);
        assert_eq!(engine.mis(), before);
    }

    #[test]
    fn verify_and_repair_heals_membership_and_counter_corruption() {
        let mut rng = StdRng::seed_from_u64(31);
        let (g, ids) = generators::erdos_renyi(40, 0.15, &mut rng);
        let mut engine = crate::Engine::builder().graph(g).seed(13).build_unsharded();
        let twin = engine.clone();
        assert_eq!(engine.corrupt_in_mis(&[ids[0], ids[7], ids[13]]), 3);
        *engine.lower_mis_count.get_mut(ids[20]).unwrap() += 5;
        assert_ne!(engine.mis(), twin.mis(), "corruption must be visible");
        let report = engine.verify_and_repair();
        assert!(!report.is_clean());
        assert!(report.memberships_violated() >= 3);
        assert!(report.counters_fixed() >= 1);
        assert_eq!(engine.mis(), twin.mis(), "repair restores the fixed point");
        engine.assert_internally_consistent();
        let second = engine.verify_and_repair();
        assert!(second.is_clean(), "second pass finds nothing: {second:?}");
        assert_eq!(second.scanned(), engine.graph().node_count());
    }

    #[test]
    fn repair_publishes_a_fresh_epoch_never_a_regressed_one() {
        let mut rng = StdRng::seed_from_u64(32);
        let (g, ids) = generators::erdos_renyi(30, 0.2, &mut rng);
        let mut engine = crate::Engine::builder().graph(g).seed(14).build_unsharded();
        let reader = engine.reader();
        engine.insert_node(&[ids[0]]).unwrap();
        let before = reader.epoch();
        engine.corrupt_in_mis(&[ids[2]]);
        engine.verify_and_repair();
        assert!(reader.epoch() > before, "heal publishes a new epoch");
        let snap = reader.snapshot();
        let published: Vec<NodeId> = snap.iter().collect();
        let live: Vec<NodeId> = engine.mis_iter().collect();
        assert_eq!(published, live);
        // A clean pass publishes nothing: the epoch holds still.
        let settled = reader.epoch();
        engine.verify_and_repair();
        assert_eq!(reader.epoch(), settled);
    }

    #[test]
    fn priorities_are_stable_across_unrelated_changes() {
        let mut rng = StdRng::seed_from_u64(6);
        let (g, ids) = generators::erdos_renyi(10, 0.4, &mut rng);
        let mut engine = crate::Engine::builder().graph(g).seed(2).build_unsharded();
        let p_before = engine.priorities().of(ids[3]);
        let _ = engine.insert_node(&[ids[0]]).unwrap();
        let _ = rng.random::<u64>();
        assert_eq!(engine.priorities().of(ids[3]), p_before);
    }
}
