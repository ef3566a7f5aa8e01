//! Sharded settle: the engine's settle loop scheduled over K shards.
//!
//! A [`crate::MisEngine`] built with a [`ShardLayout`] keeps the same
//! global per-node tables as the unsharded engine — membership bits,
//! lower-MIS counters, the enqueued bitset — and changes only *when* a
//! node settles. The layout deals the dense `NodeId` space out to `K`
//! shards by index range, and each shard gets what the protocol below
//! needs: a π-keyed dirty front and an outbox. A shard's drain is the
//! unsharded settle loop confined to the shard's own nodes: it reads and
//! writes the tables only at those nodes. The graph and the priority
//! order π are shared read-only, mirroring the paper's model where every
//! node knows the random IDs of its neighbors.
//!
//! # Handoff protocol
//!
//! Settling a node is a purely local decision (`lower_mis_count == 0`),
//! but a *flip* must notify every higher-π neighbor. Neighbors in the same
//! shard are updated in place, exactly as in the unsharded engine;
//! neighbors owned by another shard receive a **cross-shard handoff** — a
//! message carrying the counter delta plus a dirty mark — which the shard
//! appends to its **outbox** instead of touching the other shard's nodes.
//! The [`crate::UpdateReceipt::cross_shard_handoffs`] counter audits this
//! traffic; the paper's bounded-adjustment guarantee (Theorem 1: expected
//! ≤ 1 flip per change) is what makes it rare, so almost all work stays
//! shard-local.
//!
//! # The epoch barrier
//!
//! Recovery proceeds in **epochs**. In each epoch every shard with a
//! non-empty dirty front drains it to completion against a *frozen* view
//! of the other shards — it reads only the shared graph and π and its
//! own nodes' entries, mutates only its own nodes' entries and its own
//! front, and buffers every outbound handoff. At the barrier closing the
//! epoch the coordinator merges all outboxes in shard-index order (and,
//! within a shard, emission order), applying counter deltas and
//! re-seeding target fronts; the next epoch runs the shards that became
//! dirty. The loop ends when every front and outbox is empty.
//!
//! Epochs are the paper's synchronous rounds and handoffs its messages:
//! a shard acts on what the others announced at the previous barrier,
//! never on their in-flight state. Because a shard run reads only the
//! frozen view and writes only its own nodes and outbox, the order in
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
//! report **net** flips: first-touch state vs final state, from one
//! first-touch log across all shards, sorted by π. The final output is
//! bit-identical to the unsharded schedule for every layout, which
//! `crates/core/tests/sharded_equivalence.rs` pins over thousands of
//! random sequences.
//!
//! # Example
//!
//! ```
//! use dmis_core::{DynamicMis, Engine};
//! use dmis_graph::{generators, ShardLayout};
//!
//! let (g, ids) = generators::cycle(12);
//! let mut sharded = Engine::builder().graph(g.clone()).sharding(ShardLayout::striped(4)).seed(9).build_sharded();
//! let mut plain = Engine::builder().graph(g).seed(9).build_unsharded();
//! assert_eq!(sharded.mis(), plain.mis());
//!
//! // The same change lands on the same output, and the receipt reports
//! // how much of the cascade crossed shard boundaries.
//! let receipt = sharded.remove_edge(ids[0], ids[1])?;
//! plain.remove_edge(ids[0], ids[1])?;
//! assert_eq!(sharded.mis(), plain.mis());
//! println!("handoffs: {}", receipt.cross_shard_handoffs());
//! # Ok::<(), dmis_graph::GraphError>(())
//! ```

use std::collections::TryReserveError;

use dmis_graph::{DynGraph, NodeId, NodeMap, NodeSet, SettleFront, ShardLayout};

use crate::engine::SettleStats;
use crate::{MisState, Priority, PriorityMap};

/// One shard's settle queue.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// The shard's dirty nodes, keyed by priority. Persistent — empty
    /// between epochs, never reallocated in steady state. A batch seed
    /// whose node a later change deleted stays in it: it carries no
    /// state, but it pops and costs one settle pop, so a batch's
    /// `heap_pops` counts every node it marked dirty.
    front: SettleFront,
    /// Outbound handoffs buffered during the current epoch: counter
    /// deltas for remote nodes, drained at the barrier. Emission order is
    /// preserved, which keeps per-neighbor delta streams in order.
    outbox: Vec<(NodeId, isize)>,
}

/// The engine state a shard drain works on: the graph and π, shared
/// read-only, and the engine's global per-node tables, of which a drain
/// touches only its own shard's entries.
pub(crate) struct NodeTables<'a> {
    pub(crate) graph: &'a DynGraph,
    pub(crate) priorities: &'a PriorityMap,
    pub(crate) in_mis: &'a mut NodeSet,
    pub(crate) lower_mis_count: &'a mut NodeMap<usize>,
    pub(crate) enqueued: &'a mut NodeSet,
}

/// The sharded settle schedule of a [`crate::MisEngine`]: a front and an
/// outbox per shard, and one first-touch log across shards for the net
/// flips. See the [module docs](self) for the protocol.
#[derive(Debug, Clone)]
pub(crate) struct ShardSchedule {
    layout: ShardLayout,
    shards: Vec<Shard>,
    /// First-touch dedup for `log`, empty between updates.
    touched: NodeSet,
    /// First-touch flip log: `(node, membership before its first flip)`,
    /// drained when the receipt is built.
    log: Vec<(NodeId, bool)>,
}

impl ShardSchedule {
    /// The idle schedule of `layout`. Its K shard queues are reserved
    /// fallibly: a restored checkpoint's shard count comes from outside
    /// the program, and a count no allocator can serve is refused, not
    /// aborted on.
    pub(crate) fn new(layout: ShardLayout) -> Result<Self, TryReserveError> {
        let mut shards = Vec::new();
        shards.try_reserve_exact(layout.shards())?;
        shards.resize_with(layout.shards(), Shard::default);
        Ok(ShardSchedule {
            layout,
            shards,
            touched: NodeSet::new(),
            log: Vec::new(),
        })
    }

    pub(crate) fn layout(&self) -> ShardLayout {
        self.layout
    }

    /// Enters `v` in its owning shard's front, keyed by `key`.
    pub(crate) fn push(&mut self, key: u64, v: NodeId) {
        self.shards[self.layout.shard_of(v)].front.push(key, v);
    }

    /// Pre-sizes the first-touch bitset, the schedule's one per-node
    /// table, for `n` nodes.
    pub(crate) fn reserve_nodes(&mut self, n: usize) {
        self.touched.reserve_nodes(n);
    }

    /// Times the first-touch bitset reallocated.
    pub(crate) fn regrows(&self) -> u64 {
        self.touched.regrows()
    }

    /// Asserts that nothing leaked past the last update.
    pub(crate) fn assert_drained(&self) {
        for shard in &self.shards {
            assert!(shard.front.is_empty(), "settle front leaked entries");
            assert!(shard.outbox.is_empty(), "outbox leaked past the barrier");
        }
        assert!(self.touched.is_empty(), "flip log leaked touch bits");
        assert!(self.log.is_empty(), "flip log leaked entries");
    }

    /// Runs the epoch coordinator to global quiescence and returns the
    /// net flips, sorted by π (the unsharded settle order).
    ///
    /// Each epoch drains every dirty shard to local completion against a
    /// frozen view of the others, in shard-index order (see the
    /// [module docs](self)); the barrier then merges all buffered
    /// handoffs in shard-index order, seeding the next epoch.
    pub(crate) fn settle(
        &mut self,
        mut t: NodeTables<'_>,
        stats: &mut SettleStats,
    ) -> Vec<(NodeId, MisState)> {
        let ShardSchedule {
            layout,
            shards,
            touched,
            log,
        } = self;
        while shards.iter().any(|sh| !sh.front.is_empty()) {
            stats.epochs += 1;
            for (s, shard) in shards.iter_mut().enumerate() {
                if !shard.front.is_empty() {
                    run_shard_epoch(&mut t, *layout, s, shard, touched, log, stats);
                }
            }
            merge_outboxes(&mut t, *layout, shards, stats);
        }
        // Net flips: nodes whose final state differs from their state at
        // first touch.
        let mut flips: Vec<(NodeId, MisState)> = Vec::new();
        for (v, before) in log.drain(..) {
            touched.remove(v);
            let now = t.in_mis.contains(v);
            if now != before {
                flips.push((v, MisState::from_membership(now)));
            }
        }
        flips.sort_by_key(|&(v, _)| t.priorities.of(v));
        flips
    }
}

/// Drains shard `s`'s dirty set to completion against the frozen view —
/// the shared read-only graph and π — as the unsharded settle loop
/// confined to one shard. The neighbor filter compares priorities read
/// from the shared key table. Same-shard neighbors of a flip are updated
/// in place; remote neighbors' deltas are buffered in the shard's outbox
/// for the epoch barrier. The drain ends with the front empty, so the
/// barrier's pushes seed the shard's next drain.
fn run_shard_epoch(
    t: &mut NodeTables<'_>,
    layout: ShardLayout,
    s: usize,
    shard: &mut Shard,
    touched: &mut NodeSet,
    log: &mut Vec<(NodeId, bool)>,
    stats: &mut SettleStats,
) {
    stats.shard_runs += 1;
    let (graph, priorities) = (t.graph, t.priorities);
    while let Some((key, v)) = shard.front.pop() {
        stats.pops += 1;
        let p = Priority::new(key, v);
        t.enqueued.remove(v);
        // A stale seed: its node left after it was marked.
        let Some(&count) = t.lower_mis_count.get(v) else {
            continue;
        };
        let desired = count == 0;
        let current = t.in_mis.contains(v);
        if desired == current {
            continue;
        }
        if touched.insert(v) {
            log.push((v, current));
        }
        if desired {
            t.in_mis.insert(v);
        } else {
            t.in_mis.remove(v);
        }
        let delta: isize = if desired { 1 } else { -1 };
        for chunk in graph.neighbor_chunks(v).expect("live node") {
            for &w in chunk {
                let pw = priorities.of(w);
                if pw > p {
                    if layout.shard_of(w) == s {
                        let c = t.lower_mis_count.get_mut(w).expect("live node");
                        *c = c.checked_add_signed(delta).expect("counter in range");
                        stats.counter_updates += 1;
                        if t.enqueued.insert(w) {
                            shard.front.push(pw.key(), w);
                        }
                    } else {
                        shard.outbox.push((w, delta));
                    }
                }
            }
        }
    }
}

/// The epoch barrier: applies every shard's buffered handoffs — counter
/// deltas plus dirty marks — in shard-index order, then emission order,
/// re-seeding target fronts for the next epoch. Each outbox entry is one
/// cross-shard message: one handoff, one counter update.
fn merge_outboxes(
    t: &mut NodeTables<'_>,
    layout: ShardLayout,
    shards: &mut [Shard],
    stats: &mut SettleStats,
) {
    for s in 0..shards.len() {
        if shards[s].outbox.is_empty() {
            continue;
        }
        let mut outbox = std::mem::take(&mut shards[s].outbox);
        for &(w, delta) in &outbox {
            stats.handoffs += 1;
            let c = t.lower_mis_count.get_mut(w).expect("live node");
            *c = c.checked_add_signed(delta).expect("counter in range");
            stats.counter_updates += 1;
            // The target drained its front this epoch, so the push may
            // sit below anything it popped.
            if t.enqueued.insert(w) {
                shards[layout.shard_of(w)]
                    .front
                    .push(t.priorities.of(w).key(), w);
            }
        }
        // Hand the (cleared) buffer back so its capacity is reused.
        outbox.clear();
        shards[s].outbox = outbox;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicMis;
    use dmis_graph::stream::{self, ChurnConfig};
    use dmis_graph::{generators, GraphError, TopologyChange};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert_eq!(engine.durability_meta().shards, 4);
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
