//! Sharded settle: the MIS engine partitioned into K independent shards.
//!
//! PR 1 made [`NodeId`] a dense slot index; this module exploits that to
//! partition *all* per-node state — membership bits, lower-MIS counters,
//! dirty sets — by index range ([`ShardLayout`]) into `K` shards. Each
//! shard runs the exact settle loop of [`crate::MisEngine`] over its own
//! dense [`NodeMap`]/[`NodeSet`] tables (keyed by shard-*local* slots, so
//! per-shard memory is proportional to the nodes it owns). The graph and
//! the priority order π are shared read-only, mirroring the paper's model
//! where every node knows the random IDs of its neighbors.
//!
//! # Handoff protocol
//!
//! Settling a node is a purely local decision (`lower_mis_count == 0`),
//! but a *flip* must notify every higher-π neighbor. Neighbors in the same
//! shard are updated in place, exactly as in the unsharded engine;
//! neighbors owned by another shard receive a **cross-shard handoff** — a
//! message carrying the counter delta plus a dirty mark — which the shard
//! appends to its **outbox** instead of touching foreign state. The
//! [`UpdateReceipt::cross_shard_handoffs`] counter audits this traffic;
//! the paper's bounded-adjustment guarantee (Theorem 1: expected ≤ 1 flip
//! per change) is what makes it rare, so almost all work stays
//! shard-local.
//!
//! # The epoch barrier
//!
//! Recovery proceeds in **epochs**. In each epoch every shard with a
//! non-empty dirty front drains it to completion against a *frozen* view
//! of the other shards — it reads only the shared graph and π, mutates
//! only its own tables, and buffers every outbound handoff. At the
//! barrier closing the epoch the coordinator merges all outboxes in
//! shard-index order (and, within a shard, emission order), applying
//! counter deltas and re-seeding target fronts; the next epoch runs the
//! shards that became dirty. The loop ends when every front and outbox is
//! empty.
//!
//! Epochs are the paper's synchronous rounds and handoffs its messages:
//! a shard acts on what the others announced at the previous barrier,
//! never on their in-flight state. Because a shard run reads only the
//! frozen view and writes only its own tables and outbox, the order in
//! which the coordinator visits an epoch's dirty shards (shard-index
//! order) cannot change the outcome; the fixed merge order at the
//! barrier is what pins the receipts.
//!
//! # Quiescence and correctness
//!
//! Termination and correctness follow from π being a strict total order:
//! a flip at priority `p` only ever dirties strictly higher priorities,
//! so influence flows one way and, by induction along π, every node's
//! state converges to the unique fixed point of the MIS invariant — the
//! same greedy MIS the unsharded engine maintains. Within one epoch a
//! shard's drain settles each node at most once (pops are non-decreasing
//! in π, pushes strictly increasing), but across epochs a node *can*
//! settle twice — a shard may settle a node against a stale counter and
//! be overturned when a lower-π delta lands at the barrier — so receipts
//! report **net** flips: first-touch state vs final state. The final
//! output is bit-identical to [`crate::MisEngine`] for every layout,
//! which `crates/core/tests/sharded_equivalence.rs` pins over thousands
//! of random sequences.

use dmis_graph::{
    ChangeKind, DynGraph, GraphError, NodeId, NodeMap, NodeSet, RankFront, ShardLayout,
    TopologyChange,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::invariant::{self, InvariantViolation};
use crate::snapshot::{MisPublisher, MisReader, PublishSlot};
use crate::{BatchReceipt, MisState, Priority, PriorityMap, RankIndex, UpdateReceipt};

/// One shard's slice of the per-node state, keyed by shard-local slots.
///
/// The dirty set is the word-parallel `front` of global ranks, seeded
/// directly by single-change routes and via `seeds`/`stale` at settle
/// start for batches; it drains in global-π order.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// Membership bits of the nodes this shard owns.
    in_mis: NodeSet,
    /// Lower-π MIS neighbor counters of the nodes this shard owns.
    lower_mis_count: NodeMap<usize>,
    /// The dirty set: pending **global ranks**. Persistent — empty
    /// between updates, never reallocated per update.
    front: RankFront,
    /// Staging area: nodes routed dirty while an update's mutations are
    /// still landing. Converted to ranks at settle start, *after* all
    /// mutations, so batch re-ranks cannot invalidate a parked rank.
    seeds: Vec<NodeId>,
    /// Seeds whose node a later batch change deleted before the settle
    /// began. They carry no state, but each costs one settle pop, so a
    /// batch's `heap_pops` counts every node it marked dirty.
    stale: Vec<NodeId>,
    /// Dedup bitset for the dirty set (local slots), empty between
    /// updates.
    enqueued: NodeSet,
    /// Outbound handoffs buffered during the current epoch: counter
    /// deltas for remote nodes, drained at the barrier. Emission order is
    /// preserved, which keeps per-neighbor delta streams in order.
    outbox: Vec<(NodeId, isize)>,
    /// First-touch dedup for `log` (local slots), empty between updates.
    touched: NodeSet,
    /// First-touch flip log: `(node, membership before its first flip)`,
    /// drained when the receipt is built.
    log: Vec<(NodeId, bool)>,
}

impl Shard {
    /// Pending dirty entries, stale seeds included — the epoch
    /// scheduler's unit of work.
    fn pending(&self) -> usize {
        self.front.len() + self.stale.len()
    }
}

/// Work/traffic counters accumulated over one recovery.
#[derive(Debug, Default, Clone, Copy)]
struct SettleStats {
    pops: usize,
    counter_updates: usize,
    handoffs: usize,
    shard_runs: usize,
    epochs: usize,
}

/// Drains shard `s`'s dirty set to completion against the frozen view —
/// the shared read-only graph and π ranks — as the unsharded settle loop
/// confined to one shard. Pops are whole-word scans over pending global
/// ranks and the neighbor filter compares dense `u32` ranks. Same-shard
/// neighbors of a flip are updated in place; remote neighbors' deltas are
/// buffered in the shard's outbox for the epoch barrier.
fn run_shard_epoch(
    graph: &DynGraph,
    ranks: &RankIndex,
    layout: ShardLayout,
    s: usize,
    shard: &mut Shard,
    stats: &mut SettleStats,
) {
    stats.shard_runs += 1;
    // Stale seeds first: a stale pop touches no state, so popping them
    // up front is the same as meeting them mid-drain.
    for v in shard.stale.drain(..) {
        stats.pops += 1;
        shard.enqueued.remove(layout.local_slot(v));
    }
    while let Some(rank) = shard.front.pop_min() {
        stats.pops += 1;
        let v = ranks.node_at(rank);
        debug_assert!(graph.has_node(v), "front ranks are always live");
        let local = layout.local_slot(v);
        shard.enqueued.remove(local);
        let desired = shard.lower_mis_count[local] == 0;
        let current = shard.in_mis.contains(local);
        if desired == current {
            continue;
        }
        if shard.touched.insert(local) {
            shard.log.push((v, current));
        }
        if desired {
            shard.in_mis.insert(local);
        } else {
            shard.in_mis.remove(local);
        }
        let delta: isize = if desired { 1 } else { -1 };
        for chunk in graph.neighbor_chunks(v).expect("live node") {
            for &w in chunk {
                let rw = ranks.rank_of(w);
                if rw > rank {
                    if layout.shard_of(w) == s {
                        let lw = layout.local_slot(w);
                        let c = shard.lower_mis_count.get_mut(lw).expect("live node");
                        *c = c.checked_add_signed(delta).expect("counter in range");
                        stats.counter_updates += 1;
                        if shard.enqueued.insert(lw) {
                            shard.front.insert(rw);
                        }
                    } else {
                        shard.outbox.push((w, delta));
                    }
                }
            }
        }
    }
}

/// [`crate::MisEngine`] partitioned into K shards by `NodeId` range.
///
/// Observationally equivalent to the unsharded engine — same seed, same
/// change sequence, bit-identical MIS — while keeping every per-node table
/// shard-local and auditing the coordination cost through
/// [`UpdateReceipt::cross_shard_handoffs`] / [`UpdateReceipt::shard_runs`].
/// See the [module docs](self) for the handoff protocol and the quiescence
/// argument.
///
/// # Example
///
/// ```
/// use dmis_core::{DynamicMis, Engine};
/// use dmis_graph::{generators, ShardLayout};
///
/// let (g, ids) = generators::cycle(12);
/// let mut sharded = Engine::builder().graph(g.clone()).sharding(ShardLayout::striped(4)).seed(9).build_sharded();
/// let mut plain = Engine::builder().graph(g).seed(9).build_unsharded();
/// assert_eq!(sharded.mis(), plain.mis());
///
/// // The same change lands on the same output, and the receipt reports
/// // how much of the cascade crossed shard boundaries.
/// let receipt = sharded.remove_edge(ids[0], ids[1])?;
/// plain.remove_edge(ids[0], ids[1])?;
/// assert_eq!(sharded.mis(), plain.mis());
/// println!("handoffs: {}", receipt.cross_shard_handoffs());
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedMisEngine {
    graph: DynGraph,
    priorities: PriorityMap,
    /// Dense rank realization of π, shared read-only across shards like
    /// the priorities themselves.
    ranks: RankIndex,
    layout: ShardLayout,
    shards: Vec<Shard>,
    rng: StdRng,
    /// The value that seeded `rng` — checkpointed by the durability
    /// layer so recovery can rebuild the identical priority stream.
    seed: u64,
    /// Priority keys drawn from `rng` since construction; a restored
    /// engine replays exactly this many draws to park the stream.
    draws: u64,
    /// Snapshot publication slot: empty (and free on the settle path)
    /// until [`Self::reader`] attaches a read path. Cloning detaches —
    /// see [`crate::snapshot`].
    publisher: PublishSlot,
}

impl ShardedMisEngine {
    /// An engine over an empty graph. `seed` determinizes all priority
    /// draws exactly as in the unsharded [`crate::MisEngine`]. Reached
    /// through [`crate::EngineBuilder::build_sharded`].
    pub(crate) fn new_impl(layout: ShardLayout, seed: u64) -> Self {
        ShardedMisEngine {
            graph: DynGraph::new(),
            priorities: PriorityMap::new(),
            ranks: RankIndex::new(),
            layout,
            shards: vec![Shard::default(); layout.shards()],
            rng: StdRng::seed_from_u64(seed),
            seed,
            draws: 0,
            publisher: PublishSlot::default(),
        }
    }

    /// An engine over an existing graph, drawing fresh random priorities
    /// for all its nodes — the same draws, in the same order, as the
    /// unsharded [`crate::MisEngine`] with the same seed, so the two
    /// engines stay step-for-step comparable.
    pub(crate) fn from_graph_impl(graph: DynGraph, layout: ShardLayout, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut priorities = PriorityMap::new();
        let mut draws = 0u64;
        for v in graph.nodes() {
            priorities.assign(v, &mut rng);
            draws += 1;
        }
        Self::with_priorities(graph, priorities, layout, rng, seed, draws)
    }

    /// An engine over an existing graph with prescribed priorities (tests
    /// and adversarial constructions).
    ///
    /// # Panics
    ///
    /// Panics if some node of the graph has no priority.
    pub(crate) fn from_parts_impl(
        graph: DynGraph,
        priorities: PriorityMap,
        layout: ShardLayout,
        seed: u64,
    ) -> Self {
        Self::with_priorities(
            graph,
            priorities,
            layout,
            StdRng::seed_from_u64(seed),
            seed,
            0,
        )
    }

    fn with_priorities(
        graph: DynGraph,
        priorities: PriorityMap,
        layout: ShardLayout,
        rng: StdRng,
        seed: u64,
        draws: u64,
    ) -> Self {
        let mis = crate::static_greedy::greedy_mis_dense(&graph, &priorities);
        let ranks = RankIndex::from_priorities(&priorities);
        let mut engine = ShardedMisEngine {
            graph,
            priorities,
            ranks,
            layout,
            shards: vec![Shard::default(); layout.shards()],
            rng,
            seed,
            draws,
            publisher: PublishSlot::default(),
        };
        for v in engine.graph.nodes() {
            if mis.contains(v) {
                engine.shards[layout.shard_of(v)]
                    .in_mis
                    .insert(layout.local_slot(v));
            }
        }
        for v in engine.graph.nodes() {
            let count = engine.count_lower_mis(v);
            engine.shards[layout.shard_of(v)]
                .lower_mis_count
                .insert(layout.local_slot(v), count);
        }
        engine
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

    /// Returns the dense rank realization of π (see [`RankIndex`]).
    #[must_use]
    pub fn ranks(&self) -> &RankIndex {
        &self.ranks
    }

    /// Returns the shard layout.
    #[must_use]
    pub fn layout(&self) -> ShardLayout {
        self.layout
    }

    /// Number of shards K.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.layout.shards()
    }

    /// Iterates over the current MIS in identifier order without
    /// allocating a set.
    pub fn mis_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes().filter(|&v| self.output(v))
    }

    /// Size of the current MIS, summed over the shards' membership bits
    /// in O(K) — no per-call allocation, unlike [`crate::DynamicMis::mis`].
    #[must_use]
    pub fn mis_len(&self) -> usize {
        self.shards.iter().map(|s| s.in_mis.len()).sum()
    }

    /// Returns whether `v` is in the MIS, or `None` if `v` does not exist.
    #[must_use]
    pub fn is_in_mis(&self, v: NodeId) -> Option<bool> {
        self.graph.has_node(v).then(|| self.output(v))
    }

    /// Returns a concurrent read handle over the engine's published
    /// snapshots, attaching the publication layer on first call — the
    /// same contract as [`crate::MisEngine::reader`]. Attach pays one
    /// O(n) scan to gather the global membership (shard membership is
    /// stored per-shard in local slots); each settle then publishes its
    /// net flips in O(flips).
    pub fn reader(&mut self) -> MisReader {
        if !self.publisher.is_attached() {
            self.publisher.set(MisPublisher::attach(
                self.mis_iter().collect(),
                self.ranks.compactions(),
            ));
        }
        self.publisher.get().expect("just attached").reader()
    }

    /// Draws the next priority key from the engine's seeded stream (the
    /// draw behind [`crate::DynamicMis::insert_node`]); same seed ⇒ same
    /// draws as [`crate::MisEngine`].
    pub(crate) fn draw_key(&mut self) -> u64 {
        self.draws += 1;
        self.rng.random()
    }

    /// Membership bit of `v`, read from its owning shard.
    fn output(&self, v: NodeId) -> bool {
        self.shards[self.layout.shard_of(v)]
            .in_mis
            .contains(self.layout.local_slot(v))
    }

    fn count_lower_mis(&self, v: NodeId) -> usize {
        self.graph
            .neighbors(v)
            .expect("live node")
            .filter(|&u| self.output(u) && self.priorities.before(u, v))
            .count()
    }

    fn order_pair(&self, u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if self.priorities.before(u, v) {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Routes a counter delta plus a dirty mark to `v`'s owning shard.
    /// One delta-carrying call is one message: a real delta leaving the
    /// `origin` shard counts as one cross-shard handoff. Delta-free calls
    /// (`delta == 0`) are conservative dirty marks the batch path seeds
    /// for parity with [`crate::MisEngine::apply_batch`]; they carry no
    /// state and are not counted, keeping handoff metrics identical
    /// between the single-change and batch APIs.
    ///
    /// `direct` says no further mutation can precede the settle — true
    /// for the single-change entry points, whose routes are their last
    /// mutating act. A direct route parks the *rank* in the shard's
    /// front immediately (the rank cannot be invalidated: only a
    /// later node insertion of the same update could force a re-rank,
    /// and only a later deletion could kill the node). Batch routes pass
    /// `direct = false` and stage the node id instead, converted at
    /// settle start once all mutations have landed.
    fn route(
        &mut self,
        v: NodeId,
        delta: isize,
        origin: usize,
        stats: &mut SettleStats,
        direct: bool,
    ) {
        let target = self.layout.shard_of(v);
        let local = self.layout.local_slot(v);
        let shard = &mut self.shards[target];
        if delta != 0 {
            if target != origin {
                stats.handoffs += 1;
            }
            let c = shard.lower_mis_count.get_mut(local).expect("live node");
            *c = c.checked_add_signed(delta).expect("counter in range");
            stats.counter_updates += 1;
        }
        if shard.enqueued.insert(local) {
            if direct {
                shard.front.insert(self.ranks.rank_of(v));
            } else {
                shard.seeds.push(v);
            }
        }
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
        if self.output(lo) {
            self.route(hi, 1, self.layout.shard_of(lo), &mut stats, true);
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
        if self.output(lo) {
            self.route(hi, -1, self.layout.shard_of(lo), &mut stats, true);
        }
        Ok(self.settle(ChangeKind::EdgeDelete, stats))
    }

    /// Inserts a new node with a *prescribed* random key (baselines and
    /// adversarial tests; see
    /// [`crate::MisEngine::insert_node_with_key`]).
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
        self.ranks.insert(v, &self.priorities);
        let origin = self.layout.shard_of(v);
        let count = self.count_lower_mis(v);
        self.shards[origin]
            .lower_mis_count
            .insert(self.layout.local_slot(v), count);
        // The newcomer starts in the temporary state M̄ (§4.1): membership
        // bit unset, no neighbor counter perturbed by its arrival.
        let mut stats = SettleStats::default();
        self.route(v, 0, origin, &mut stats, false);
        let receipt = self.settle(ChangeKind::NodeInsert, stats);
        Ok((v, receipt))
    }

    /// Removes node `v` and restores the MIS invariant. As in the
    /// unsharded engine, the receipt covers the *remaining* nodes.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if `v` does not exist.
    pub fn remove_node(&mut self, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        if !self.graph.has_node(v) {
            return Err(GraphError::MissingNode(v));
        }
        let was_in = self.output(v);
        let prio_v = self.priorities.of(v);
        let origin = self.layout.shard_of(v);
        let nbrs = self.graph.remove_node(v)?;
        self.priorities.remove(v);
        self.ranks.remove(v);
        let local = self.layout.local_slot(v);
        self.shards[origin].in_mis.remove(local);
        self.shards[origin].lower_mis_count.remove(local);
        if was_in {
            // Departures never appear in the flip log (receipts cover
            // the *remaining* nodes), so the publish log learns of them
            // here.
            self.publisher.record(v, false);
        }
        let mut stats = SettleStats::default();
        if was_in {
            for w in nbrs {
                if self.priorities.of(w) > prio_v {
                    self.route(w, -1, origin, &mut stats, true);
                }
            }
        }
        Ok(self.settle(ChangeKind::NodeDelete, stats))
    }

    /// Applies a **batch** of topology changes atomically, with the same
    /// semantics as [`crate::MisEngine::apply_batch`]: all graph mutations
    /// land first (seeding every shard's dirty set), then one coordinated
    /// settle restores the invariant across all shards.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] encountered. Changes before the
    /// failing one remain applied and the invariant is restored for them;
    /// the failing and subsequent changes are not applied.
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
    /// *frozen* outputs, seeding dirty sets but deferring the settle.
    fn mutate_only(
        &mut self,
        change: &TopologyChange,
        stats: &mut SettleStats,
    ) -> Result<(), GraphError> {
        match change {
            TopologyChange::InsertEdge(u, v) => {
                self.graph.insert_edge(*u, *v)?;
                let (lo, hi) = self.order_pair(*u, *v);
                let delta = isize::from(self.output(lo));
                self.route(hi, delta, self.layout.shard_of(lo), stats, false);
            }
            TopologyChange::DeleteEdge(u, v) => {
                self.graph.remove_edge(*u, *v)?;
                let (lo, hi) = self.order_pair(*u, *v);
                let delta = -isize::from(self.output(lo));
                self.route(hi, delta, self.layout.shard_of(lo), stats, false);
            }
            TopologyChange::InsertNode { id, edges } => {
                if self.graph.peek_next_id() != *id {
                    return Err(GraphError::MissingNode(*id));
                }
                let v = self.graph.add_node_with_edges(edges.iter().copied())?;
                self.priorities.assign(v, &mut self.rng);
                self.draws += 1;
                // Re-ranking is legal mid-batch: dirty marks are still
                // node ids; ranks enter the fronts only at settle start.
                self.ranks.insert(v, &self.priorities);
                let origin = self.layout.shard_of(v);
                let count = self.count_lower_mis(v);
                self.shards[origin]
                    .lower_mis_count
                    .insert(self.layout.local_slot(v), count);
                self.route(v, 0, origin, stats, false);
            }
            TopologyChange::DeleteNode(v) => {
                if !self.graph.has_node(*v) {
                    return Err(GraphError::MissingNode(*v));
                }
                let was_in = self.output(*v);
                let prio_v = self.priorities.of(*v);
                let origin = self.layout.shard_of(*v);
                let nbrs = self.graph.remove_node(*v)?;
                self.priorities.remove(*v);
                self.ranks.remove(*v);
                let local = self.layout.local_slot(*v);
                self.shards[origin].in_mis.remove(local);
                self.shards[origin].lower_mis_count.remove(local);
                if was_in {
                    // As in `remove_node`: departures are not flips.
                    self.publisher.record(*v, false);
                }
                for w in nbrs {
                    if self.priorities.of(w) > prio_v {
                        self.route(w, -isize::from(was_in), origin, stats, false);
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs the epoch coordinator to global quiescence and builds the
    /// receipt.
    ///
    /// Each epoch drains every dirty shard to local completion against a
    /// frozen view of the others, in shard-index order (see the
    /// [module docs](self)); the barrier then merges all buffered
    /// handoffs in shard-index order, seeding the next epoch.
    fn settle(&mut self, kind: ChangeKind, mut stats: SettleStats) -> UpdateReceipt {
        // All of this update's mutations have landed: one coalesced
        // re-rank covers every node the update inserted out of π order.
        // It also keeps the pending list bounded by a single update's
        // inserts (so `RankIndex::remove` stays O(batch)) and every live
        // node ranked between updates, which is what lets
        // [`Self::route`] park ranks directly for single-change updates.
        self.ranks.flush(&self.priorities);
        self.convert_seeds();
        while self.shards.iter().any(|sh| sh.pending() > 0) {
            stats.epochs += 1;
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if shard.pending() > 0 {
                    run_shard_epoch(&self.graph, &self.ranks, self.layout, s, shard, &mut stats);
                }
            }
            self.merge_outboxes(&mut stats);
        }
        // Global quiescence: every shard front has drained, so no rank
        // is parked anywhere and compaction is legal. Keeps the rank
        // span within 2× the live count under deletion-heavy churn.
        self.ranks.maybe_compact();
        // Net flips: nodes whose final state differs from their state at
        // first touch. Collection order across shards is irrelevant —
        // the report is sorted by π (the unsharded settle order).
        let mut flips: Vec<(NodeId, MisState)> = Vec::new();
        for s in 0..self.shards.len() {
            let log = std::mem::take(&mut self.shards[s].log);
            for &(v, before) in &log {
                self.shards[s].touched.remove(self.layout.local_slot(v));
                let now = self.output(v);
                if now != before {
                    flips.push((v, MisState::from_membership(now)));
                }
            }
        }
        flips.sort_by_key(|&(v, _)| self.priorities.of(v));
        // Publication comes strictly after compaction (the snapshot's
        // compaction stamp is the witness): the net flips carry this
        // flush boundary.
        if let Some(p) = self.publisher.get_mut() {
            debug_assert!(self.ranks.is_flushed(), "publishing before rank quiescence");
            p.publish(&flips, self.ranks.compactions());
        }
        UpdateReceipt::new(kind, flips, stats.pops, stats.counter_updates).with_shard_stats(
            stats.handoffs,
            stats.shard_runs,
            stats.epochs,
        )
    }

    /// Converts every shard's staged dirty marks (node ids, buffered by
    /// [`Self::route`] while the update's mutations were landing) into
    /// pending front ranks. Runs once, at settle start, when the node set
    /// — and hence the rank assignment — is final for this update. Seeds
    /// whose node a later change deleted become `stale` entries, which
    /// the drain pops (and counts) without touching any state.
    fn convert_seeds(&mut self) {
        debug_assert!(self.ranks.is_flushed(), "settle() flushes first");
        let ShardedMisEngine {
            graph,
            ranks,
            shards,
            ..
        } = self;
        for shard in shards.iter_mut() {
            if shard.seeds.is_empty() {
                continue;
            }
            // Take the buffer so its capacity survives the drain.
            let mut seeds = std::mem::take(&mut shard.seeds);
            for v in seeds.drain(..) {
                if graph.has_node(v) {
                    shard.front.insert(ranks.rank_of(v));
                } else {
                    shard.stale.push(v);
                }
            }
            shard.seeds = seeds;
        }
    }

    /// The epoch barrier: applies every shard's buffered handoffs —
    /// counter deltas plus dirty marks — in shard-index order, then
    /// emission order, re-seeding target fronts for the next epoch. Each
    /// outbox entry is one cross-shard message: one handoff, one counter
    /// update.
    fn merge_outboxes(&mut self, stats: &mut SettleStats) {
        for s in 0..self.shards.len() {
            if self.shards[s].outbox.is_empty() {
                continue;
            }
            let mut outbox = std::mem::take(&mut self.shards[s].outbox);
            for &(w, delta) in &outbox {
                stats.handoffs += 1;
                let target = self.layout.shard_of(w);
                let lw = self.layout.local_slot(w);
                let shard = &mut self.shards[target];
                let c = shard.lower_mis_count.get_mut(lw).expect("live node");
                *c = c.checked_add_signed(delta).expect("counter in range");
                stats.counter_updates += 1;
                // Handoff targets are always live, and no re-rank can
                // happen mid-settle: insert the rank directly.
                if shard.enqueued.insert(lw) {
                    shard.front.insert(self.ranks.rank_of(w));
                }
            }
            // Hand the (cleared) buffer back so its capacity is reused.
            outbox.clear();
            self.shards[s].outbox = outbox;
        }
    }

    /// Scans every live node for corrupted membership/counter state and
    /// heals what it finds — the sharded realization of
    /// [`crate::MisEngine::verify_and_repair`], with the identical
    /// detection rule and the identical convergence argument: fixed
    /// counters plus a priority-ordered drain of the violated set land
    /// on the unique greedy fixed point for (graph, π). Healing runs
    /// through the ordinary epoch coordinator, so cross-shard cascades,
    /// receipts, and (if a read path is attached) the published epoch
    /// all behave exactly like a settle.
    pub fn verify_and_repair(&mut self) -> crate::durability::RepairReport {
        let nodes: Vec<NodeId> = self.graph.nodes().collect();
        let scanned = nodes.len();
        let mut counters_fixed = 0usize;
        let mut memberships_violated = 0usize;
        let mut violated = Vec::new();
        for v in nodes {
            let truth = self.count_lower_mis(v);
            let (s, local) = (self.layout.shard_of(v), self.layout.local_slot(v));
            let mut bad = false;
            if self.shards[s].lower_mis_count[local] != truth {
                *self.shards[s]
                    .lower_mis_count
                    .get_mut(local)
                    .expect("live node") = truth;
                counters_fixed += 1;
                bad = true;
            }
            if self.shards[s].in_mis.contains(local) != (truth == 0) {
                memberships_violated += 1;
                bad = true;
            }
            if bad {
                violated.push(v);
            }
        }
        if violated.is_empty() {
            return crate::durability::RepairReport::clean(scanned);
        }
        let mut stats = SettleStats::default();
        stats.counter_updates += counters_fixed;
        for v in violated {
            // Delta-free dirty marks: the counters are already truthful,
            // the drain only needs to re-finalize the violated nodes.
            self.route(v, 0, self.layout.shard_of(v), &mut stats, false);
        }
        let receipt = self.settle(ChangeKind::EdgeInsert, stats);
        crate::durability::RepairReport::new(
            scanned,
            counters_fixed,
            memberships_violated,
            &receipt,
        )
    }

    /// Test-only fault injector: flips the membership bit of each live
    /// victim in its owning shard's local table, leaving counters
    /// untouched — the E13 corruption model at the sharded tier. Returns
    /// how many victims were live. Each flip also enters the publish
    /// log: a later settle may make the corrupted bit the true one
    /// without any net flip, and the next snapshot must still show it.
    #[doc(hidden)]
    pub fn corrupt_in_mis(&mut self, victims: &[NodeId]) -> usize {
        let mut flipped = 0;
        for &v in victims {
            if !self.graph.has_node(v) {
                continue;
            }
            let (s, local) = (self.layout.shard_of(v), self.layout.local_slot(v));
            let member = !self.shards[s].in_mis.contains(local);
            if member {
                self.shards[s].in_mis.insert(local);
            } else {
                self.shards[s].in_mis.remove(local);
            }
            self.publisher.record(v, member);
            flipped += 1;
        }
        flipped
    }

    /// Checkpoint-time metadata: flavor, layout, RNG position, epoch.
    #[doc(hidden)]
    #[must_use]
    pub fn durability_meta(&self) -> crate::durability::DurabilityMeta {
        crate::durability::DurabilityMeta {
            flavor: crate::durability::EngineFlavor::Sharded,
            shards: self.layout.shards(),
            block: self.layout.block(),
            seed: self.seed,
            draws: self.draws,
            epoch: self.publisher.get().map(MisPublisher::epoch),
        }
    }

    /// Recovery-time re-attach at a prescribed epoch; see
    /// [`crate::MisEngine::restore_epoch`]. Must be called on a freshly
    /// built engine, before [`Self::reader`].
    #[doc(hidden)]
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.publisher.set(MisPublisher::attach_at(
            self.mis_iter().collect(),
            self.ranks.compactions(),
            epoch,
        ));
    }

    /// Verifies the MIS invariant over the whole graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_invariant(&self) -> Result<(), InvariantViolation> {
        // Dense path: merge the shards' bits once instead of building an
        // ordered set.
        let members: NodeSet = self.mis_iter().collect();
        invariant::check_mis_invariant_dense(&self.graph, &self.priorities, &members)
    }

    /// Verifies every shard's bookkeeping against a from-scratch
    /// recomputation. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if any counter, bit, or shard assignment diverged.
    pub fn assert_internally_consistent(&self) {
        self.graph.assert_consistent();
        assert_eq!(self.priorities.len(), self.graph.node_count());
        self.ranks.assert_consistent(&self.priorities);
        let total_counters: usize = self.shards.iter().map(|s| s.lower_mis_count.len()).sum();
        assert_eq!(total_counters, self.graph.node_count());
        for shard in &self.shards {
            assert!(shard.front.is_empty(), "settle front leaked ranks");
            assert!(shard.seeds.is_empty(), "staged seeds leaked entries");
            assert!(shard.stale.is_empty(), "stale seeds leaked entries");
            assert!(shard.enqueued.is_empty(), "enqueue scratch leaked bits");
            assert!(shard.outbox.is_empty(), "outbox leaked past the barrier");
            assert!(shard.touched.is_empty(), "flip log leaked touch bits");
            assert!(shard.log.is_empty(), "flip log leaked entries");
        }
        for shard in &self.shards {
            assert_eq!(
                shard.in_mis.len(),
                shard.in_mis.popcount(),
                "cached shard mis_len diverged from its membership words"
            );
        }
        let ground_truth = crate::static_greedy::greedy_mis_dense(&self.graph, &self.priorities);
        let total_bits: usize = self.shards.iter().map(|s| s.in_mis.len()).sum();
        assert_eq!(total_bits, ground_truth.len(), "stale membership bits");
        for v in self.graph.nodes() {
            assert_eq!(
                self.output(v),
                ground_truth.contains(v),
                "state of {v} diverged from static greedy"
            );
            assert_eq!(
                self.shards[self.layout.shard_of(v)].lower_mis_count[self.layout.local_slot(v)],
                self.count_lower_mis(v),
                "counter of {v} diverged"
            );
        }
    }

    /// Pre-sizes every per-node structure for `n` nodes: global tables
    /// (adjacency, priorities, ranks) get `n` slots, each shard's local
    /// tables get its [`ShardLayout::local_span`] share, and each
    /// shard's front gets the full rank span (fronts hold **global**
    /// ranks). A bootstrap of up to `n` insertions then performs no
    /// incremental regrows.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.graph.reserve_nodes(n);
        self.priorities.reserve_nodes(n);
        self.ranks.reserve(n);
        let local = self.layout.local_span(n);
        for shard in &mut self.shards {
            shard.in_mis.reserve_nodes(local);
            shard.lower_mis_count.reserve_slots(local);
            shard.enqueued.reserve_nodes(local);
            shard.touched.reserve_nodes(local);
            shard.front.reserve(n);
        }
    }

    /// Total times any per-node structure grew past its capacity
    /// (reallocated) since construction. 0 after an adequate
    /// [`Self::reserve_nodes`] — the debug counter behind the no-regrow
    /// bootstrap guarantee.
    #[must_use]
    pub fn storage_regrows(&self) -> u64 {
        let shards: u64 = self
            .shards
            .iter()
            .map(|s| {
                s.in_mis.regrows()
                    + s.lower_mis_count.regrows()
                    + s.enqueued.regrows()
                    + s.touched.regrows()
                    + s.front.regrows()
            })
            .sum();
        self.graph.regrows() + self.priorities.regrows() + self.ranks.regrows() + shards
    }

    /// [`Self::check_invariant`] restricted to ~`sample` deterministically
    /// chosen nodes. Merging the shard membership bits costs O(n/64)
    /// words; the expensive neighbor scans run only for sampled nodes.
    ///
    /// # Errors
    ///
    /// Returns the first violation found among sampled nodes.
    pub fn check_invariant_sampled(
        &self,
        sample: usize,
        seed: u64,
    ) -> Result<(), InvariantViolation> {
        let members: NodeSet = self.mis_iter().collect();
        invariant::check_mis_invariant_sampled(
            &self.graph,
            &self.priorities,
            &members,
            sample,
            seed,
        )
    }

    /// Sampled counterpart of [`Self::assert_internally_consistent`]:
    /// per-shard facts stay exact (cached membership counts against
    /// popcounts, drained settle scratch), while per-node counters and
    /// membership are recomputed only for ~`sample` deterministically
    /// chosen nodes.
    ///
    /// # Panics
    ///
    /// Panics if any checked structure diverged.
    pub fn assert_internally_consistent_sampled(&self, sample: usize, seed: u64) {
        assert_eq!(self.priorities.len(), self.graph.node_count());
        let total_counters: usize = self.shards.iter().map(|s| s.lower_mis_count.len()).sum();
        assert_eq!(total_counters, self.graph.node_count());
        for shard in &self.shards {
            assert_eq!(
                shard.in_mis.len(),
                shard.in_mis.popcount(),
                "cached shard mis_len diverged from its membership words"
            );
            assert!(shard.front.is_empty(), "settle front leaked ranks");
            assert!(shard.enqueued.is_empty(), "enqueue scratch leaked bits");
            assert!(shard.outbox.is_empty(), "outbox leaked past the barrier");
        }
        for v in invariant::sampled_nodes(&self.graph, sample, seed) {
            let (s, local) = (self.layout.shard_of(v), self.layout.local_slot(v));
            assert_eq!(
                self.shards[s].lower_mis_count[local],
                self.count_lower_mis(v),
                "counter of {v} diverged"
            );
            assert_eq!(
                self.shards[s].in_mis.contains(local),
                self.shards[s].lower_mis_count[local] == 0,
                "membership of {v} contradicts its counter"
            );
        }
    }
}

// The shared convenience layer (`apply` dispatch, `insert_node` key
// draws, `mis`, `state`) is provided once by `DynamicMis`; the macro
// forwards the trait's required primitives to the methods above.
crate::api::forward_dynamic_mis!(ShardedMisEngine);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicMis;
    use dmis_graph::generators;
    use dmis_graph::stream::{self, ChurnConfig};

    fn layouts() -> Vec<ShardLayout> {
        vec![
            ShardLayout::single(),
            ShardLayout::striped(2),
            ShardLayout::striped(4),
            ShardLayout::blocked(3, 4),
        ]
    }

    #[test]
    fn empty_engine() {
        let engine = crate::Engine::builder()
            .sharding(ShardLayout::striped(4))
            .seed(0)
            .build_sharded();
        assert!(engine.mis().is_empty());
        assert!(engine.check_invariant().is_ok());
        assert_eq!(engine.shard_count(), 4);
    }

    #[test]
    fn from_graph_matches_unsharded_initialization() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = generators::erdos_renyi(40, 0.15, &mut rng);
        let plain = crate::Engine::builder()
            .graph(g.clone())
            .seed(99)
            .build_unsharded();
        for layout in layouts() {
            let engine = crate::Engine::builder()
                .graph(g.clone())
                .sharding(layout)
                .seed(99)
                .build_sharded();
            engine.assert_internally_consistent();
            assert_eq!(engine.mis(), plain.mis(), "{layout:?}");
        }
    }

    #[test]
    fn sampled_checks_pass_on_every_layout_under_churn() {
        let mut rng = StdRng::seed_from_u64(23);
        let (g, _) = generators::erdos_renyi(60, 0.1, &mut rng);
        for layout in layouts() {
            let mut engine = crate::Engine::builder()
                .graph(g.clone())
                .sharding(layout)
                .seed(3)
                .build_sharded();
            for step in 0..60u64 {
                let Some(change) =
                    stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
                else {
                    continue;
                };
                engine.apply(&change).unwrap();
                engine.assert_internally_consistent_sampled(8, step);
                assert!(
                    engine.check_invariant_sampled(8, step).is_ok(),
                    "{layout:?}"
                );
            }
        }
    }

    #[test]
    fn single_shard_has_no_handoffs() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = generators::erdos_renyi(30, 0.2, &mut rng);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .sharding(ShardLayout::single())
            .seed(7)
            .build_sharded();
        for _ in 0..100 {
            let Some(change) =
                stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
            else {
                continue;
            };
            let receipt = engine.apply(&change).unwrap();
            assert_eq!(receipt.cross_shard_handoffs(), 0);
        }
        engine.assert_internally_consistent();
    }

    #[test]
    fn cross_shard_cascade_is_counted_and_correct() {
        // Path 0-1-2-3 striped over 2 shards: every edge crosses the
        // boundary, so the 3-flip cascade of deleting {0,1} is all
        // handoffs.
        let (mut g, ids) = DynGraph::with_nodes(4);
        for w in ids.windows(2) {
            g.insert_edge(w[0], w[1]).unwrap();
        }
        let pm = PriorityMap::from_order(&ids);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .sharding(ShardLayout::striped(2))
            .seed(0)
            .build_sharded();
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
        assert!(receipt.cross_shard_handoffs() >= 2, "cascade crossed twice");
        assert!(receipt.shard_runs() >= 2, "both shards were activated");
        engine.assert_internally_consistent();
    }

    #[test]
    fn node_churn_round_trip_on_all_layouts() {
        for layout in layouts() {
            let mut rng = StdRng::seed_from_u64(2);
            let (g, ids) = generators::erdos_renyi(10, 0.3, &mut rng);
            let mut engine = crate::Engine::builder()
                .graph(g)
                .sharding(layout)
                .seed(3)
                .build_sharded();
            let (v, _) = engine.insert_node(&[ids[0], ids[1], ids[2]]).unwrap();
            engine.assert_internally_consistent();
            engine.remove_node(v).unwrap();
            assert!(!engine.graph().has_node(v));
            engine.assert_internally_consistent();
        }
    }

    #[test]
    fn errors_leave_engine_untouched() {
        let (g, ids) = generators::path(3);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .sharding(ShardLayout::striped(2))
            .seed(0)
            .build_sharded();
        let snapshot = engine.mis();
        assert!(engine.insert_edge(ids[0], ids[1]).is_err());
        assert!(engine.remove_edge(ids[0], ids[2]).is_err());
        assert!(engine.remove_node(NodeId(50)).is_err());
        assert!(engine.insert_node(&[NodeId(50)]).is_err());
        assert_eq!(engine.mis(), snapshot);
        engine.assert_internally_consistent();
    }

    #[test]
    fn batch_matches_unsharded_batch() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, _) = generators::erdos_renyi(20, 0.25, &mut rng);
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
            let mut plain = crate::Engine::builder()
                .graph(g.clone())
                .seed(99 + seed)
                .build_unsharded();
            plain.apply_batch(&batch).unwrap();
            for layout in layouts() {
                let mut sharded = crate::Engine::builder()
                    .graph(g.clone())
                    .sharding(layout)
                    .seed(99 + seed)
                    .build_sharded();
                sharded.apply_batch(&batch).unwrap();
                assert_eq!(sharded.mis(), plain.mis(), "{layout:?}");
                sharded.assert_internally_consistent();
            }
        }
    }

    #[test]
    fn batch_and_single_change_agree_on_handoff_counts() {
        // Boundary edge whose lower endpoint is OUT of the MIS: no state
        // crosses the shards, so both APIs must report zero handoffs.
        let (mut g, ids) = DynGraph::with_nodes(4);
        g.insert_edge(ids[0], ids[1]).unwrap();
        let pm = PriorityMap::from_order(&ids);
        let layout = ShardLayout::striped(2);
        // ids[1] is dominated by ids[0]; edge {ids[1], ids[3]} crosses
        // shards (1 and 1... use ids[1]-ids[2]: shards 1 and 0).
        let mut single = crate::Engine::builder()
            .graph(g.clone())
            .priorities(pm.clone())
            .sharding(layout)
            .seed(0)
            .build_sharded();
        let r1 = single.insert_edge(ids[1], ids[2]).unwrap();
        let mut batched = crate::Engine::builder()
            .graph(g)
            .priorities(pm)
            .sharding(layout)
            .seed(0)
            .build_sharded();
        let r2 = batched
            .apply_batch(&[TopologyChange::InsertEdge(ids[1], ids[2])])
            .unwrap();
        assert_eq!(r1.cross_shard_handoffs(), 0, "no MIS state crossed");
        assert_eq!(
            r2.cross_shard_handoffs(),
            r1.cross_shard_handoffs(),
            "batch metering must match the single-change path"
        );
        assert_eq!(single.mis(), batched.mis());
    }

    #[test]
    fn batch_can_insert_wire_and_delete_nodes() {
        let (g, ids) = generators::path(3);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .sharding(ShardLayout::striped(2))
            .seed(4)
            .build_sharded();
        let fresh = engine.graph().peek_next_id();
        let receipt = engine
            .apply_batch(&[
                TopologyChange::InsertNode {
                    id: fresh,
                    edges: vec![ids[0]],
                },
                TopologyChange::InsertEdge(fresh, ids[2]),
                TopologyChange::DeleteNode(fresh),
            ])
            .unwrap();
        assert_eq!(receipt.applied(), 3);
        assert!(!engine.graph().has_node(fresh));
        engine.assert_internally_consistent();
    }

    #[test]
    fn batch_failure_keeps_engine_consistent() {
        let (g, ids) = generators::path(4);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .sharding(ShardLayout::striped(3))
            .seed(4)
            .build_sharded();
        let err = engine
            .apply_batch(&[
                TopologyChange::DeleteEdge(ids[0], ids[1]),
                TopologyChange::DeleteEdge(ids[0], ids[3]), // not an edge
                TopologyChange::DeleteEdge(ids[2], ids[3]),
            ])
            .unwrap_err();
        assert_eq!(err, GraphError::MissingEdge(ids[0], ids[3]));
        assert!(!engine.graph().has_edge(ids[0], ids[1]));
        assert!(engine.graph().has_edge(ids[2], ids[3]));
        engine.assert_internally_consistent();
    }

    #[test]
    fn long_churn_tracks_unsharded_engine_exactly() {
        let mut rng = StdRng::seed_from_u64(12);
        let (g, _) = generators::erdos_renyi(25, 0.2, &mut rng);
        let mut plain = crate::Engine::builder()
            .graph(g.clone())
            .seed(100)
            .build_unsharded();
        let mut sharded = crate::Engine::builder()
            .graph(g)
            .sharding(ShardLayout::striped(4))
            .seed(100)
            .build_sharded();
        let cfg = ChurnConfig::default();
        for step in 0..400 {
            let Some(change) = stream::random_change(plain.graph(), &cfg, &mut rng) else {
                continue;
            };
            let r1 = plain.apply(&change).unwrap();
            let r2 = sharded.apply(&change).unwrap();
            assert_eq!(plain.mis(), sharded.mis(), "step {step}");
            assert_eq!(r1.adjusted_nodes(), r2.adjusted_nodes(), "step {step}");
            if step % 50 == 0 {
                sharded.assert_internally_consistent();
            }
        }
        sharded.assert_internally_consistent();
    }

    #[test]
    fn verify_and_repair_heals_every_layout() {
        let mut rng = StdRng::seed_from_u64(41);
        let (g, ids) = generators::erdos_renyi(40, 0.15, &mut rng);
        for layout in layouts() {
            let mut engine = crate::Engine::builder()
                .graph(g.clone())
                .sharding(layout)
                .seed(13)
                .build_sharded();
            let reader = engine.reader();
            let twin = engine.clone();
            let before = reader.epoch();
            assert_eq!(engine.corrupt_in_mis(&[ids[0], ids[7], ids[13]]), 3);
            assert_ne!(engine.mis(), twin.mis(), "{layout:?}");
            let report = engine.verify_and_repair();
            assert!(report.memberships_violated() >= 3, "{layout:?}");
            assert_eq!(engine.mis(), twin.mis(), "{layout:?}");
            engine.assert_internally_consistent();
            assert!(reader.epoch() > before, "heal publishes a new epoch");
            let snap = reader.snapshot();
            let published: Vec<NodeId> = snap.iter().collect();
            let live: Vec<NodeId> = engine.mis_iter().collect();
            assert_eq!(published, live, "snapshot matches the engine: {layout:?}");
            assert!(engine.verify_and_repair().is_clean(), "{layout:?}");
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(4);
            let (g, _) = generators::erdos_renyi(15, 0.3, &mut rng);
            let mut engine = crate::Engine::builder()
                .graph(g)
                .sharding(ShardLayout::striped(3))
                .seed(5)
                .build_sharded();
            let mut outputs = Vec::new();
            for _ in 0..30 {
                if let Some(change) =
                    stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
                {
                    let receipt = engine.apply(&change).unwrap();
                    outputs.push((engine.mis(), receipt.cross_shard_handoffs()));
                }
            }
            outputs
        };
        assert_eq!(build(), build());
    }
}
