//! Settle-order oracle for the unsharded engine.
//!
//! Every engine settles dirty nodes from a [`dmis_graph::SettleFront`], a
//! priority queue keyed by the priorities themselves, so the front
//! must pop exactly the sequence a `BinaryHeap<Reverse<(Priority,
//! NodeId)>>` would. This suite keeps that
//! heap as a test-local oracle: [`HeapOracle`] is a twin of the unsharded
//! engine — its own graph, priorities, membership and seeded priority
//! stream — that applies each change with the engine's seeding rules and
//! settles it with a heap drain. After every step the engine's receipt
//! must equal the oracle's whole (flip order, `heap_pops`,
//! `counter_updates`, the shard counters, which the unsharded engine
//! reports as zero, and a single change's kind), and membership and π
//! must agree.
//!
//! The replays cover single changes of all four kinds, batches whose node
//! inserts draw keys below the live maximum (they enter the front
//! mid-order, where a dense rank table would have had to re-rank), and
//! batches that seed a node and then delete it.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use dmis_core::{BatchReceipt, DynamicMis, MisEngine, MisState, PriorityMap};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, NodeId, TopologyChange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A receipt's settle record: flips in settle order, pops, counter
/// updates, handoffs, shard runs, epochs.
type Whole = (Vec<(NodeId, MisState)>, usize, usize, usize, usize, usize);

/// Reads a [`Whole`] off either receipt type.
macro_rules! whole {
    ($r:expr) => {{
        let r = $r;
        (
            r.flips().to_vec(),
            r.heap_pops(),
            r.counter_updates(),
            r.cross_shard_handoffs(),
            r.shard_runs(),
            r.settle_epochs(),
        )
    }};
}

/// The reference model: the unsharded engine's state, settled by a heap.
struct HeapOracle {
    graph: DynGraph,
    priorities: PriorityMap,
    in_mis: BTreeSet<NodeId>,
    /// Replays the engine's priority draws: one per initial node in
    /// `graph.nodes()` order, then one per node insertion.
    rng: StdRng,
}

impl HeapOracle {
    fn new(graph: DynGraph, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut priorities = PriorityMap::new();
        for v in graph.nodes() {
            priorities.assign(v, &mut rng);
        }
        let in_mis = dmis_core::static_greedy::greedy_mis(&graph, &priorities);
        HeapOracle {
            graph,
            priorities,
            in_mis,
            rng,
        }
    }

    /// Lower-π MIS neighbors of `v` — the engine's counter, recounted.
    fn lower_mis(&self, v: NodeId) -> usize {
        self.graph
            .neighbors(v)
            .expect("live node")
            .filter(|&u| self.in_mis.contains(&u) && self.priorities.before(u, v))
            .count()
    }

    fn order_pair(&self, u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if self.priorities.before(u, v) {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Applies `change`'s graph mutation against the frozen membership
    /// and returns `(seeds, counter updates)`. `batch` selects the batch
    /// path's seeding, which marks endpoints and higher neighbors dirty
    /// even when no counter moved; single changes seed only what moved.
    fn mutate(&mut self, change: &TopologyChange, batch: bool) -> (Vec<NodeId>, usize) {
        let mut seeds = Vec::new();
        let mut counter_updates = 0;
        match change {
            TopologyChange::InsertEdge(u, v) | TopologyChange::DeleteEdge(u, v) => {
                if matches!(change, TopologyChange::InsertEdge(..)) {
                    self.graph.insert_edge(*u, *v).expect("valid change");
                } else {
                    self.graph.remove_edge(*u, *v).expect("valid change");
                }
                let (lo, hi) = self.order_pair(*u, *v);
                let moved = self.in_mis.contains(&lo);
                counter_updates += usize::from(moved);
                if moved || batch {
                    seeds.push(hi);
                }
            }
            TopologyChange::InsertNode { id, edges } => {
                let v = self
                    .graph
                    .add_node_with_edges(edges.iter().copied())
                    .expect("valid change");
                assert_eq!(v, *id, "identifiers allocate in step");
                self.priorities.assign(v, &mut self.rng);
                seeds.push(v);
            }
            TopologyChange::DeleteNode(v) => {
                let was_in = self.in_mis.remove(v);
                let prio_v = self.priorities.of(*v);
                let nbrs = self.graph.remove_node(*v).expect("valid change");
                self.priorities.remove(*v);
                if was_in || batch {
                    for w in nbrs {
                        if self.priorities.of(w) > prio_v {
                            counter_updates += usize::from(was_in);
                            seeds.push(w);
                        }
                    }
                }
            }
        }
        (seeds, counter_updates)
    }

    /// The heap drain: pops in increasing π, deduplicated, each node
    /// finalized against its recounted lower-MIS count.
    fn settle(&mut self, seeds: Vec<NodeId>, mut counter_updates: usize) -> Whole {
        let mut heap = BinaryHeap::new();
        let mut queued = BTreeSet::new();
        for v in seeds {
            if self.graph.has_node(v) && queued.insert(v) {
                heap.push(Reverse((self.priorities.of(v), v)));
            }
        }
        let mut flips = Vec::new();
        let mut pops = 0;
        while let Some(Reverse((p, v))) = heap.pop() {
            pops += 1;
            queued.remove(&v);
            let desired = self.lower_mis(v) == 0;
            if desired == self.in_mis.contains(&v) {
                continue;
            }
            if desired {
                self.in_mis.insert(v);
            } else {
                self.in_mis.remove(&v);
            }
            flips.push((v, MisState::from_membership(desired)));
            for w in self.graph.neighbors_vec(v).expect("live node") {
                let pw = self.priorities.of(w);
                if pw > p {
                    counter_updates += 1;
                    if queued.insert(w) {
                        heap.push(Reverse((pw, w)));
                    }
                }
            }
        }
        (flips, pops, counter_updates, 0, 0, 0)
    }

    fn apply(&mut self, change: &TopologyChange) -> Whole {
        let (seeds, counter_updates) = self.mutate(change, false);
        self.settle(seeds, counter_updates)
    }

    fn apply_batch(&mut self, changes: &[TopologyChange]) -> Whole {
        let mut seeds = Vec::new();
        let mut counter_updates = 0;
        for change in changes {
            let (s, c) = self.mutate(change, true);
            seeds.extend(s);
            counter_updates += c;
        }
        self.settle(seeds, counter_updates)
    }

    fn assert_agrees_with(&self, engine: &MisEngine, context: &str) {
        assert_eq!(engine.mis(), self.in_mis, "membership diverged ({context})");
        assert_eq!(
            engine.priorities(),
            &self.priorities,
            "π diverged ({context})"
        );
    }
}

/// An engine and its oracle twin over the same graph and seed.
fn twins(g: &DynGraph, seed: u64) -> (MisEngine, HeapOracle) {
    let engine = dmis_core::Engine::builder()
        .graph(g.clone())
        .seed(seed)
        .build_unsharded();
    let oracle = HeapOracle::new(g.clone(), seed);
    oracle.assert_agrees_with(&engine, "construction");
    (engine, oracle)
}

/// Random single changes of all four kinds, replayed through the
/// engine's single-change entry points and the oracle.
#[test]
fn single_changes_of_every_kind_match_the_heap_oracle() {
    let mut kinds_seen = BTreeSet::new();
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(977));
        let n = 2 + (seed as usize % 20);
        let (g, _) = generators::erdos_renyi(n, 0.1 + 0.3 * ((seed % 5) as f64 / 4.0), &mut rng);
        let (mut engine, mut oracle) = twins(&g, seed);
        for step in 0..16 {
            let Some(change) =
                stream::random_change(engine.graph(), &ChurnConfig::default(), &mut rng)
            else {
                break;
            };
            let receipt = engine.apply(&change).expect("valid change");
            let want = oracle.apply(&change);
            let context = format!("seed {seed}, step {step}, {change:?}");
            assert_eq!(receipt.kind(), change.kind(), "kind ({context})");
            assert_eq!(whole!(&receipt), want, "receipt diverged ({context})");
            oracle.assert_agrees_with(&engine, &context);
            kinds_seen.insert(format!("{:?}", change.kind()));
        }
        engine.assert_internally_consistent();
    }
    assert_eq!(
        kinds_seen.len(),
        4,
        "every change kind replayed: {kinds_seen:?}"
    );
}

/// Batches with node inserts — whose random keys mostly land below the
/// highest live priority, so they enter the order mid-way — mixed with
/// edge and node churn, merged into one settle.
#[test]
fn batches_that_rerank_mid_batch_match_the_heap_oracle() {
    let churny = ChurnConfig {
        node_insert: 0.3,
        ..ChurnConfig::default()
    };
    let mut mid_order = 0usize;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(313) + 7);
        let (g, _) = generators::erdos_renyi(14 + (seed as usize % 6), 0.25, &mut rng);
        let (mut engine, mut oracle) = twins(&g, seed);
        for round in 0..4 {
            let mut shadow = engine.graph().clone();
            let mut batch = Vec::new();
            for _ in 0..8 {
                if let Some(change) = stream::random_change(&shadow, &churny, &mut rng) {
                    change.apply(&mut shadow).expect("valid");
                    batch.push(change);
                }
            }
            let top = engine.priorities().iter().map(|(_, p)| p).max();
            let got: BatchReceipt = engine.apply_batch(&batch).expect("valid batch");
            let want = oracle.apply_batch(&batch);
            let context = format!("seed {seed}, round {round}");
            assert_eq!(got.applied(), batch.len(), "{context}");
            assert_eq!(whole!(&got), want, "batch receipt diverged ({context})");
            oracle.assert_agrees_with(&engine, &context);
            // An inserted node whose key lands below the pre-batch
            // maximum entered the order mid-way.
            mid_order += batch
                .iter()
                .filter_map(|c| match c {
                    TopologyChange::InsertNode { id, .. } => engine.priorities().get(*id),
                    _ => None,
                })
                .filter(|&p| top.is_some_and(|t| p < t))
                .count();
        }
        engine.assert_internally_consistent();
    }
    assert!(
        mid_order > 20,
        "batches inserted below the live maximum: {mid_order}"
    );
}

/// A batch that marks nodes dirty and then deletes them: the seed of a
/// deleted node must cost nothing, on the front exactly as on the heap.
/// Covers a fresh node inserted and deleted in one batch, and an old
/// node dirtied by an edge change and then deleted.
#[test]
fn batches_that_seed_then_delete_a_node_match_the_heap_oracle() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919) + 1);
        let (g, _) = generators::erdos_renyi(8 + (seed as usize % 10), 0.3, &mut rng);
        let (mut engine, mut oracle) = twins(&g, seed);
        for round in 0..3 {
            let graph = engine.graph();
            let Some((u, v)) = generators::random_edge(graph, &mut rng) else {
                break;
            };
            let hi = if engine.priorities().before(u, v) {
                v
            } else {
                u
            };
            let fresh = graph.peek_next_id();
            let mut wires: Vec<NodeId> = graph.nodes().filter(|&w| w != hi).collect();
            wires.truncate(1 + rng.random_range(0..3usize));
            let batch = vec![
                TopologyChange::DeleteEdge(u, v),
                TopologyChange::InsertNode {
                    id: fresh,
                    edges: wires,
                },
                TopologyChange::DeleteNode(fresh),
                TopologyChange::DeleteNode(hi),
            ];
            let got = engine.apply_batch(&batch).expect("valid batch");
            let want = oracle.apply_batch(&batch);
            let context = format!("seed {seed}, round {round}");
            assert_eq!(
                whole!(&got),
                want,
                "stale-seed receipt diverged ({context})"
            );
            oracle.assert_agrees_with(&engine, &context);
        }
        engine.assert_internally_consistent();
    }
}
