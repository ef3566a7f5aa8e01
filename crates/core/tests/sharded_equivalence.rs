//! Sharding-equivalence property suite — **generic over
//! [`DynamicMis`]**.
//!
//! Two settle schedules must be observationally identical on every change
//! stream: the unsharded [`dmis_core::MisEngine`] (the oracle for outputs
//! and adjustment sets) and the same engine on a K-shard layout.
//! Since the unified-API redesign the suite drives every engine through
//! one code path: each is built by [`Engine::builder`] as a
//! `Box<dyn DynamicMis>`, and the replay loop only ever sees the trait —
//! its per-engine copies are gone. The sharded engines must agree with
//! the oracle on the MIS and the adjustment set after every prefix. The sequences are biased toward *boundary churn* —
//! random edge/node insert/delete streams whose edges overwhelmingly span
//! shard boundaries under striping, plus adversarial stars whose leaves
//! are dealt across all shards — because cross-shard handoffs and the
//! epoch barrier that merges them are exactly where a divergence would
//! hide.

use std::collections::BTreeSet;

use dmis_core::{DynamicMis, Engine, PriorityMap};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, NodeId, ShardLayout, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// One engine under test: the boxed trait object plus a failure label
/// naming the axes it was built with.
struct Subject {
    label: String,
    engine: Box<dyn DynamicMis + Send>,
}

/// Builds the engine matrix for one stream: the unsharded oracle and one
/// sharded engine per K — all through [`Engine::builder`], all driven as
/// `dyn DynamicMis`.
fn subjects(
    g: &DynGraph,
    priorities: Option<&PriorityMap>,
    seed: u64,
) -> (Box<dyn DynamicMis + Send>, Vec<Subject>) {
    let base = |k: Option<usize>| {
        let mut b = Engine::builder().graph(g.clone()).seed(seed);
        if let Some(p) = priorities {
            b = b.priorities(p.clone());
        }
        if let Some(k) = k {
            b = b.sharding(ShardLayout::striped(k));
        }
        b
    };
    let oracle = base(None).build();
    let list = SHARD_COUNTS
        .iter()
        .map(|&k| Subject {
            label: format!("K={k}"),
            engine: base(Some(k)).build(),
        })
        .collect();
    (oracle, list)
}

/// Drives the same change stream through the whole engine matrix,
/// asserting agreement with the oracle on outputs and adjustment sets
/// after every single change.
fn assert_equivalent_on_stream(
    g: &DynGraph,
    seed: u64,
    steps: usize,
    cfg: &ChurnConfig,
    rng: &mut StdRng,
) {
    let (mut plain, mut matrix) = subjects(g, None, seed);
    for s in &matrix {
        assert_eq!(
            s.engine.mis(),
            plain.mis(),
            "{} initial greedy MIS diverged",
            s.label
        );
    }
    for _ in 0..steps {
        let Some(change) = stream::random_change(plain.graph(), cfg, rng) else {
            break;
        };
        let receipt = plain.apply(&change).expect("valid change");
        for s in &mut matrix {
            let r = s.engine.apply(&change).expect("valid change");
            assert_eq!(
                s.engine.mis(),
                plain.mis(),
                "{} output diverged (seed {seed})",
                s.label
            );
            assert_eq!(
                r.adjusted_nodes(),
                receipt.adjusted_nodes(),
                "{} adjustment set diverged (seed {seed})",
                s.label
            );
        }
    }
    for s in &matrix {
        assert_eq!(s.engine.mis(), plain.mis(), "{} final MIS", s.label);
        s.engine.assert_internally_consistent();
    }
}

/// ≥ 1000 random insert/delete sequences across K ∈ {1, 2, 4, 7}: after
/// every change, every sharded engine's MIS and adjustment set are
/// bit-identical to the unsharded engine's.
#[test]
fn sharded_engines_match_unsharded_over_random_sequences() {
    let per_stream = SHARD_COUNTS.len() as u32;
    let mut sequences = 0u32;
    for seed in 0..250u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 2 + (seed as usize % 18);
        let p = 0.05 + 0.4 * ((seed % 7) as f64 / 6.0);
        let (g, _) = generators::erdos_renyi(n, p, &mut rng);
        let steps = 3 + (seed as usize % 10);
        assert_equivalent_on_stream(&g, seed ^ 0x5AAD, steps, &ChurnConfig::default(), &mut rng);
        // One stream is checked against 4 sharded layouts, each an
        // engine-vs-oracle sequence.
        sequences += per_stream;
    }
    assert!(sequences >= 1000, "ran only {sequences} sequences");
}

/// Stars spanning shard boundaries: under striping every leaf of a star
/// centered at node 0 lives on a rotating shard, so deleting the center
/// is the worst-case all-handoff promotion cascade; rebuilding it
/// exercises boundary-crossing inserts. The whole matrix (including the
/// prescribed-π axis) runs through the builder's `priorities` axis.
#[test]
fn boundary_spanning_stars_settle_identically() {
    for leaves in [5usize, 8, 13, 21] {
        let (g, ids) = generators::star(leaves + 1);
        // Center first in π: MIS = {center}; all leaves promote on its
        // deletion, each promotion notified across a boundary.
        let pm = PriorityMap::from_order(&ids);
        let (mut plain, mut matrix) = subjects(&g, Some(&pm), 0);
        let oracle_receipt = plain.remove_node(ids[0]).expect("center exists");
        assert_eq!(oracle_receipt.adjustments(), leaves, "all leaves join");
        for s in &mut matrix {
            let r = s.engine.remove_node(ids[0]).expect("center exists");
            assert_eq!(r.adjustments(), leaves, "all leaves join ({})", s.label);
            if s.label != "K=1" {
                assert!(
                    r.cross_shard_handoffs() > 0,
                    "star cascade must cross boundaries ({})",
                    s.label
                );
            }
            assert_eq!(s.engine.mis(), plain.mis(), "{}", s.label);
            s.engine.assert_internally_consistent();
        }
    }
}

/// A star wired up edge by edge *through* the engines (crossing a shard
/// boundary on every insert), then torn down: outputs agree on every
/// prefix.
#[test]
fn incremental_star_churn_agrees_on_every_prefix() {
    for &k in &SHARD_COUNTS {
        let (g, ids) = DynGraph::with_nodes(9);
        let pm = PriorityMap::from_order(&ids);
        let mut plain = Engine::builder()
            .graph(g.clone())
            .priorities(pm.clone())
            .seed(1)
            .build();
        let mut engine = Engine::builder()
            .graph(g)
            .priorities(pm)
            .seed(1)
            .sharding(ShardLayout::striped(k))
            .build();
        for &leaf in &ids[1..] {
            plain.insert_edge(ids[0], leaf).expect("valid");
            engine.insert_edge(ids[0], leaf).expect("valid");
            assert_eq!(engine.mis(), plain.mis(), "grow, K={k}");
        }
        for &leaf in &ids[1..] {
            plain.remove_edge(ids[0], leaf).expect("valid");
            engine.remove_edge(ids[0], leaf).expect("valid");
            assert_eq!(engine.mis(), plain.mis(), "shrink, K={k}");
        }
        engine.assert_internally_consistent();
    }
}

/// Batched boundary churn (including node inserts wired across shards and
/// deletes of just-inserted nodes) lands on the same output as the
/// unsharded engine's batch path.
#[test]
fn batched_boundary_churn_matches_unsharded() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131));
        let (g, _) = generators::erdos_renyi(12 + (seed as usize % 8), 0.25, &mut rng);
        // Build a valid batch against a shadow copy.
        let mut shadow = g.clone();
        let mut batch = Vec::new();
        for _ in 0..6 {
            if let Some(change) = stream::random_change(&shadow, &ChurnConfig::default(), &mut rng)
            {
                change.apply(&mut shadow).expect("valid");
                batch.push(change);
            }
        }
        let (mut plain, mut matrix) = subjects(&g, None, seed);
        plain.apply_batch(&batch).expect("valid batch");
        for s in &mut matrix {
            s.engine.apply_batch(&batch).expect("valid batch");
            assert_eq!(s.engine.mis(), plain.mis(), "{} seed={seed}", s.label);
            s.engine.assert_internally_consistent();
        }
    }
}

/// Blocked layouts (ranges of consecutive identifiers per shard) are
/// equivalent too — the layout only moves the boundaries, never the
/// output.
#[test]
fn blocked_layouts_are_equivalent_as_well() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::erdos_renyi(20, 0.2, &mut rng);
        let mut plain = Engine::builder().graph(g.clone()).seed(seed).build();
        let layouts = [(2usize, 3u64), (4, 2), (3, 5)];
        let mut engines: Vec<Box<dyn DynamicMis + Send>> = layouts
            .iter()
            .map(|&(k, b)| {
                Engine::builder()
                    .graph(g.clone())
                    .seed(seed)
                    .sharding(ShardLayout::blocked(k, b))
                    .build()
            })
            .collect();
        for _ in 0..8 {
            let Some(change) =
                stream::random_change(plain.graph(), &ChurnConfig::default(), &mut rng)
            else {
                break;
            };
            plain.apply(&change).expect("valid");
            for (engine, layout) in engines.iter_mut().zip(&layouts) {
                engine.apply(&change).expect("valid");
                assert_eq!(engine.mis(), plain.mis(), "layout {layout:?}");
            }
        }
    }
}

/// The handoff counter is exact on a hand-built two-shard cascade.
#[test]
fn handoff_accounting_is_exact_on_a_path() {
    // Path n0-n1-n2-n3, priorities in id order, striped over 2 shards:
    // shard 0 owns {n0, n2}, shard 1 owns {n1, n3}. Deleting {n0, n1}
    // flips n1 (in), n2 (out), n3 (in); every notification crosses the
    // boundary, and the initial seed routing of n1 from n0's shard does
    // too.
    let (mut g, ids) = DynGraph::with_nodes(4);
    for w in ids.windows(2) {
        g.insert_edge(w[0], w[1]).unwrap();
    }
    let pm = PriorityMap::from_order(&ids);
    let mut engine = Engine::builder()
        .graph(g)
        .priorities(pm)
        .seed(0)
        .sharding(ShardLayout::striped(2))
        .build();
    let receipt = engine.remove_edge(ids[0], ids[1]).unwrap();
    let expected: BTreeSet<NodeId> = [ids[1], ids[2], ids[3]].into_iter().collect();
    assert_eq!(receipt.adjusted_nodes(), expected);
    // Seed n1 (cross), n1→n2 (cross), n2→n3 (cross): three handoffs.
    assert_eq!(receipt.cross_shard_handoffs(), 3);
    assert!(receipt.shard_runs() >= 2);
    engine.assert_internally_consistent();
}

/// Work totals of one replay: flips, settle pops, counter updates,
/// cross-shard handoffs, shard runs, settle epochs.
type Totals = [usize; 6];

/// Replays `changes` through 16-change `apply_batch` windows and sums
/// every receipt's work counters.
fn window_totals(engine: &mut dyn DynamicMis, changes: &[TopologyChange]) -> Totals {
    let mut totals = [0usize; 6];
    for window in changes.chunks(16) {
        let r = engine.apply_batch(window).expect("valid window");
        for (t, x) in totals.iter_mut().zip([
            r.adjustments(),
            r.heap_pops(),
            r.counter_updates(),
            r.cross_shard_handoffs(),
            r.shard_runs(),
            r.settle_epochs(),
        ]) {
            *t += x;
        }
    }
    totals
}

/// Receipt pin: a seeded barrier-churn stream (`node_churn_sharded`'s
/// mix: every 8th change inserts a node with up to 8 edges or deletes
/// one the stream inserted, the rest toggle pool pairs) replayed through
/// 16-change windows on the unsharded engine, on `striped(4)` and on
/// `blocked(3, 4)`. The summed work counters are constants recorded
/// from the engines; a change to the settle schedule — pop order,
/// stale-seed accounting, handoff routing, epoch count — moves at least
/// one of them. Windows that insert a node and delete it again are
/// counted too, so the stream provably exercises stale batch seeds.
#[test]
fn barrier_churn_window_totals_are_pinned() {
    let mut rng = StdRng::seed_from_u64(21);
    let (g, _) = generators::gnm(400, 1600, &mut rng);
    let pool = stream::random_pair_pool(&g, 256, &mut rng);
    let changes = stream::barrier_churn(&g, &pool, 8, 8, 4096, &mut rng);
    let stale_windows = changes
        .chunks(16)
        .filter(|w| {
            w.iter().any(|c| match c {
                TopologyChange::InsertNode { id, .. } => w
                    .iter()
                    .any(|d| matches!(d, TopologyChange::DeleteNode(v) if v == id)),
                _ => false,
            })
        })
        .count();
    assert!(stale_windows > 0, "no window deletes a node it inserted");
    let mut plain = Engine::builder().graph(g.clone()).seed(5).build();
    let mut sharded = Engine::builder()
        .graph(g.clone())
        .seed(5)
        .sharding(ShardLayout::striped(4))
        .build();
    let mut blocked = Engine::builder()
        .graph(g)
        .seed(5)
        .sharding(ShardLayout::blocked(3, 4))
        .build();
    let plain_totals = window_totals(&mut *plain, &changes);
    let sharded_totals = window_totals(&mut *sharded, &changes);
    let blocked_totals = window_totals(&mut *blocked, &changes);
    assert_eq!(plain.mis(), sharded.mis());
    assert_eq!(plain.mis(), blocked.mis());
    assert_eq!(plain_totals, [687, 6493, 4124, 0, 0, 0], "unsharded totals");
    assert_eq!(
        sharded_totals,
        [687, 6718, 4168, 3165, 1797, 559],
        "striped(4) totals"
    );
    assert_eq!(
        blocked_totals,
        [687, 6719, 4184, 2837, 1357, 543],
        "blocked(3, 4) totals"
    );
}

/// A batch that inserts a node and deletes it again leaves a stale seed:
/// the sharded engine still pops it (and counts the pop), the unsharded
/// engine drops it before its drain.
#[test]
fn stale_batch_seeds_pop_on_the_sharded_engine_only() {
    let (g, ids) = generators::path(6);
    let fresh = g.peek_next_id();
    let batch = [
        TopologyChange::InsertNode {
            id: fresh,
            edges: vec![ids[0], ids[3]],
        },
        TopologyChange::DeleteNode(fresh),
    ];
    let pm = PriorityMap::from_order(&ids);
    let mut plain = Engine::builder()
        .graph(g.clone())
        .priorities(pm.clone())
        .seed(3)
        .build();
    let mut sharded = Engine::builder()
        .graph(g)
        .priorities(pm)
        .seed(3)
        .sharding(ShardLayout::striped(2))
        .build();
    let p = plain.apply_batch(&batch).expect("valid batch");
    let s = sharded.apply_batch(&batch).expect("valid batch");
    assert_eq!(plain.mis(), sharded.mis());
    assert_eq!(p.adjusted_nodes(), s.adjusted_nodes());
    assert_eq!(s.heap_pops(), p.heap_pops() + 1, "the stale seed pops once");
    sharded.assert_internally_consistent();
}
