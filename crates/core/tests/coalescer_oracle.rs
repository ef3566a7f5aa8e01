//! Differential suite for [`ChangeCoalescer`] against an ordered-map
//! oracle.
//!
//! The oracle is the coalescer as it was before the dense edge index:
//! the same queue of tombstoned `Option`s, but a `BTreeMap<EdgeKey,
//! usize>` that deletes a cancelled pair's entry and is rebuilt empty at
//! every barrier and drain. After every push, `depth()`, `pushed()` and
//! `is_empty()` must equal the oracle's, and every drained window must be
//! the oracle's, change for change and endpoint order included. The
//! streams cover the index's three shortcuts: cancel → re-push → cancel
//! chains over small flapping pools (an entry that points at a
//! tombstone), node barriers (the O(1) clear), and one deep window over
//! 10⁴ distinct edges (the table grows and rehashes many times).

use std::collections::BTreeMap;

use dmis_core::ChangeCoalescer;
use dmis_graph::{generators, stream, DynGraph, EdgeKey, NodeId, TopologyChange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The window depths the streams are cut at.
const DEPTHS: [usize; 3] = [1, 16, 64];

/// The ordered-map coalescer the dense index replaced, kept verbatim.
#[derive(Default)]
struct Oracle {
    pending: Vec<Option<TopologyChange>>,
    edge_slot: BTreeMap<EdgeKey, usize>,
    live: usize,
    pushed: usize,
}

impl Oracle {
    fn push(&mut self, change: TopologyChange) {
        self.pushed += 1;
        let key = match &change {
            TopologyChange::InsertEdge(u, v) | TopologyChange::DeleteEdge(u, v) => {
                Some(EdgeKey::new(*u, *v))
            }
            TopologyChange::InsertNode { .. } | TopologyChange::DeleteNode(_) => None,
        };
        let Some(key) = key else {
            self.edge_slot.clear();
            self.pending.push(Some(change));
            self.live += 1;
            return;
        };
        if let Some(&slot) = self.edge_slot.get(&key) {
            let prev = self.pending[slot].as_ref().expect("indexed slot is live");
            if prev.kind() == change.kind() {
                self.pending[slot] = Some(change);
            } else {
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

    fn drain(&mut self) -> (Vec<TopologyChange>, usize) {
        let batch: Vec<TopologyChange> = self.pending.drain(..).flatten().collect();
        self.edge_slot.clear();
        self.live = 0;
        (batch, std::mem::take(&mut self.pushed))
    }
}

/// Pushes `stream` through one coalescer and the oracle, checking both
/// after every push, and drains both every `depth` pushes and at the end.
/// One coalescer serves every window, so its index carries over.
fn agree(stream: &[TopologyChange], depth: usize, label: &str) {
    let mut queue = ChangeCoalescer::new();
    let mut oracle = Oracle::default();
    let mut windows = 0;
    for (i, change) in stream.iter().enumerate() {
        queue.push(change.clone());
        oracle.push(change.clone());
        assert_eq!(
            (queue.depth(), queue.pushed(), queue.is_empty()),
            (oracle.live, oracle.pushed, oracle.live == 0),
            "{label}, depth {depth}: push {i} ({change:?})"
        );
        if queue.pushed() == depth {
            windows += 1;
            assert_eq!(
                queue.drain(),
                oracle.drain(),
                "{label}, depth {depth}: window {windows}"
            );
        }
    }
    assert_eq!(
        queue.drain(),
        oracle.drain(),
        "{label}, depth {depth}: tail"
    );
}

fn graph(seed: u64) -> (DynGraph, Vec<NodeId>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (g, ids) = generators::gnm(400, 1200, &mut rng);
    (g, ids, rng)
}

#[test]
fn flapping_pools_agree_through_cancel_chains() {
    for seed in 0..4 {
        for pool_size in [4, 32] {
            let (g, _, mut rng) = graph(seed);
            let pool = stream::random_pair_pool(&g, pool_size, &mut rng);
            let raw = stream::flapping_stream(&g, &pool, 3000, false, &mut rng);
            for depth in DEPTHS {
                agree(&raw, depth, &format!("seed {seed}, {pool_size}-pair pool"));
            }
        }
    }
}

#[test]
fn barrier_churn_agrees_across_node_barriers() {
    for seed in 0..4 {
        for barrier_every in [3, 9] {
            let (g, _, mut rng) = graph(seed);
            let pool = stream::random_pair_pool(&g, 8, &mut rng);
            let raw = stream::barrier_churn(&g, &pool, barrier_every, 4, 3000, &mut rng);
            for depth in DEPTHS {
                agree(
                    &raw,
                    depth,
                    &format!("seed {seed}, barrier every {barrier_every}"),
                );
            }
        }
    }
}

#[test]
fn power_law_toggles_agree() {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, ids) = generators::chung_lu(300, 4.0, 2.5, &mut rng);
        let raw = stream::power_law_churn(&g, &ids, 2.5, 3000, &mut rng);
        for depth in DEPTHS {
            agree(&raw, depth, &format!("seed {seed}, power law"));
        }
    }
}

#[test]
fn endpoint_swapped_duplicates_agree() {
    // A flapping stream where every change may arrive with its endpoints
    // swapped and may be pushed again at once, swapped or not: the
    // duplicate collapses, and the last writer's endpoint order survives.
    for seed in 0..4 {
        let (g, _, mut rng) = graph(seed);
        let pool = stream::random_pair_pool(&g, 16, &mut rng);
        let mut raw = Vec::new();
        for change in stream::flapping_stream(&g, &pool, 2000, false, &mut rng) {
            let swapped = |c: &TopologyChange| match *c {
                TopologyChange::InsertEdge(u, v) => TopologyChange::InsertEdge(v, u),
                TopologyChange::DeleteEdge(u, v) => TopologyChange::DeleteEdge(v, u),
                ref other => other.clone(),
            };
            let first = if rng.random_bool(0.5) {
                swapped(&change)
            } else {
                change.clone()
            };
            raw.push(first);
            if rng.random_bool(0.4) {
                raw.push(if rng.random_bool(0.5) {
                    swapped(&change)
                } else {
                    change
                });
            }
        }
        for depth in DEPTHS {
            agree(&raw, depth, &format!("seed {seed}, swapped duplicates"));
        }
    }
}

#[test]
fn one_deep_window_over_ten_thousand_edges_agrees() {
    // 120,000 pushes over 20,000 distinct edges in a single window: the
    // index grows from 16 buckets past 2^15, rehashing its run each time,
    // while cancel chains keep rewriting entries.
    let mut rng = StdRng::seed_from_u64(11);
    let pool: Vec<(NodeId, NodeId)> = (0..20_000u64)
        .map(|i| (NodeId(i % 1_000), NodeId(1_000 + i)))
        .collect();
    let raw: Vec<TopologyChange> = (0..120_000)
        .map(|_| {
            let (u, v) = pool[rng.random_range(0..pool.len())];
            let (u, v) = if rng.random_bool(0.5) { (u, v) } else { (v, u) };
            if rng.random_bool(0.5) {
                TopologyChange::InsertEdge(u, v)
            } else {
                TopologyChange::DeleteEdge(u, v)
            }
        })
        .collect();
    agree(&raw, usize::MAX, "deep window");
}
