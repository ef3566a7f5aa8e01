//! Trait-conformance suite: every engine flavor, driven **only** through
//! `dyn DynamicMis`.
//!
//! The unified API's promise is that a `Box<dyn DynamicMis>` is a
//! complete engine — the full update/query/receipt surface, including the
//! provided conveniences (`apply` dispatch, `insert_node` key draws,
//! `mis`, `state`), behaves identically whether the caller holds the
//! concrete type or the trait object, and identically *across* the
//! flavors for the same seed. CI runs this target in a dedicated
//! `trait-conformance` job so an engine drifting out of the shared
//! contract is attributed immediately.

use std::sync::Arc;

use dmis_core::{DynamicMis, Engine, MisSnapshot, MisState};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, GraphError, NodeId, ShardLayout, TopologyChange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All engine flavors over the same graph and seed, as trait objects.
fn flavors(g: &DynGraph, seed: u64) -> Vec<(&'static str, Box<dyn DynamicMis + Send>)> {
    vec![
        (
            "unsharded",
            Engine::builder().graph(g.clone()).seed(seed).build(),
        ),
        (
            "sharded",
            Engine::builder()
                .graph(g.clone())
                .seed(seed)
                .sharding(ShardLayout::striped(3))
                .build(),
        ),
    ]
}

/// Every flavor agrees with every other on outputs after every change of
/// a random mixed stream, with all traffic going through the trait —
/// including the provided `apply` dispatch and the key-drawing
/// `insert_node`.
#[test]
fn all_flavors_agree_through_the_trait_object() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::erdos_renyi(16, 0.25, &mut rng);
        let mut engines = flavors(&g, 1000 + seed);
        for step in 0..30 {
            let Some(change) =
                stream::random_change(engines[0].1.graph(), &ChurnConfig::default(), &mut rng)
            else {
                break;
            };
            let mut first = None;
            for (name, e) in &mut engines {
                let receipt = e.apply(&change).expect("valid change");
                match &first {
                    None => first = Some((receipt.adjusted_nodes(), e.mis())),
                    Some((adjusted, mis)) => {
                        assert_eq!(
                            &receipt.adjusted_nodes(),
                            adjusted,
                            "{name} step {step} seed {seed}"
                        );
                        assert_eq!(&e.mis(), mis, "{name} step {step} seed {seed}");
                    }
                }
            }
        }
        for (name, e) in &engines {
            assert!(e.check_invariant().is_ok(), "{name}");
            e.assert_internally_consistent();
        }
    }
}

/// The provided query conveniences are consistent with the primitives on
/// every flavor: `mis()` materializes `mis_iter()`, `mis_len()` counts
/// it, and `state()`/`is_in_mis()` agree pointwise.
#[test]
fn provided_queries_are_consistent_with_primitives() {
    let mut rng = StdRng::seed_from_u64(3);
    let (g, _) = generators::erdos_renyi(30, 0.2, &mut rng);
    for (name, e) in flavors(&g, 8) {
        let mis = e.mis();
        let from_iter: Vec<NodeId> = e.mis_iter().collect();
        assert_eq!(mis.iter().copied().collect::<Vec<_>>(), from_iter, "{name}");
        assert_eq!(mis.len(), e.mis_len(), "{name}");
        for v in e.graph().nodes() {
            let member = e.is_in_mis(v).expect("live node");
            assert_eq!(member, mis.contains(&v), "{name}");
            assert_eq!(
                e.state(v),
                Some(MisState::from_membership(member)),
                "{name}"
            );
        }
        assert_eq!(e.is_in_mis(NodeId(9999)), None, "{name}");
        assert_eq!(e.state(NodeId(9999)), None, "{name}");
    }
}

/// `insert_node` draws from the same seeded stream on every flavor: the
/// outputs stay aligned after trait-side node insertion, and the drawn
/// priorities are literally equal.
#[test]
fn key_draws_are_seed_aligned_across_flavors() {
    let (g, ids) = generators::cycle(9);
    let mut engines = flavors(&g, 42);
    let mut inserted = Vec::new();
    for (_, e) in &mut engines {
        let (v, _) = e.insert_node(&[ids[0], ids[3]]).expect("valid neighbors");
        inserted.push((v, e.priorities().of(v)));
    }
    for w in inserted.windows(2) {
        assert_eq!(w[0], w[1], "same seed must draw the same key");
    }
    let mis = engines[0].1.mis();
    for (name, e) in &engines[1..] {
        assert_eq!(e.mis(), mis, "{name}");
    }
}

/// Errors propagate identically through the trait object and leave every
/// flavor untouched.
#[test]
fn errors_are_uniform_across_flavors() {
    let (g, ids) = generators::path(3);
    for (name, mut e) in flavors(&g, 0) {
        let snapshot = e.mis();
        assert!(e.insert_edge(ids[0], ids[1]).is_err(), "{name}");
        assert!(e.remove_edge(ids[0], ids[2]).is_err(), "{name}");
        assert!(e.remove_node(NodeId(50)).is_err(), "{name}");
        assert!(e.insert_node(&[NodeId(50)]).is_err(), "{name}");
        let err = e
            .apply(&TopologyChange::InsertNode {
                id: NodeId(0),
                edges: vec![],
            })
            .unwrap_err();
        assert_eq!(err, GraphError::MissingNode(NodeId(0)), "{name}");
        assert_eq!(e.mis(), snapshot, "{name}");
        e.assert_internally_consistent();
    }
}

/// The snapshot read path through the trait: after every settle — a
/// single change through `apply` or a batch through `apply_batch` — the
/// quiesced engine's `MisReader` agrees with `mis_iter`/`is_in_mis`/
/// `mis_len` exactly, for every flavor, under node delete/recycle churn
/// (deletes evict rank slots, inserts recycle them), with one epoch
/// published per settle. Snapshots are pinned and released at seeded
/// points, which forces the publisher's copy path whenever a reader
/// holds its spare buffer; every pinned snapshot must keep showing the
/// membership of its own epoch.
#[test]
fn reader_agrees_with_the_quiesced_engine_on_every_flavor() {
    // Node-heavy churn so rank slots are actually tombstoned and
    // recycled under the attached read path.
    let churny = ChurnConfig {
        edge_insert: 0.25,
        edge_delete: 0.25,
        node_insert: 0.25,
        node_delete: 0.25,
        max_new_degree: 4,
    };
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let (g, _) = generators::erdos_renyi(20, 0.25, &mut rng);
        for (name, mut e) in flavors(&g, 700 + seed) {
            let reader = e.reader();
            assert_eq!(reader.epoch(), 0, "{name}: attach is epoch 0");
            let mut pinned: Vec<(Arc<MisSnapshot>, Vec<NodeId>)> = Vec::new();
            let mut settles = 0u64;
            for _ in 0..40 {
                let mut shadow = e.graph().clone();
                let mut batch = Vec::new();
                for _ in 0..rng.random_range(1..=4) {
                    if let Some(c) = stream::random_change(&shadow, &churny, &mut rng) {
                        c.apply(&mut shadow).expect("valid");
                        batch.push(c);
                    }
                }
                match batch.as_slice() {
                    [] => continue,
                    [one] => drop(e.apply(one).expect("valid change")),
                    _ => drop(e.apply_batch(&batch).expect("valid batch")),
                }
                settles += 1;
                assert_eq!(reader.epoch(), settles, "{name}: one epoch per settle");
                let snap = reader.snapshot();
                assert_eq!(snap.epoch(), settles, "{name}");
                assert_eq!(snap.mis_len(), e.mis_len(), "{name}");
                let published: Vec<NodeId> = snap.iter().collect();
                let mut quiesced: Vec<NodeId> = e.mis_iter().collect();
                quiesced.sort_unstable();
                assert_eq!(published, quiesced, "{name} settle {settles}");
                for v in e.graph().nodes() {
                    assert_eq!(
                        Some(snap.contains(v)),
                        e.is_in_mis(v),
                        "{name}: pointwise membership"
                    );
                }
                // Convenience queries on the reader handle agree too.
                assert_eq!(reader.mis_len(), e.mis_len(), "{name}");
                assert_eq!(reader.mis_iter().collect::<Vec<_>>(), published, "{name}");
                match rng.random_range(0..4) {
                    0 => pinned.push((snap, published)),
                    1 if !pinned.is_empty() => {
                        let (held, at) = pinned.swap_remove(rng.random_range(0..pinned.len()));
                        assert_eq!(held.iter().collect::<Vec<_>>(), at, "{name}: pinned");
                    }
                    _ => {}
                }
            }
            assert!(settles > 0, "{name}: churn produced work");
            for (held, at) in pinned {
                assert_eq!(held.iter().collect::<Vec<_>>(), at, "{name}: pinned");
            }
            e.assert_internally_consistent();
        }
    }
}

/// Batches through the trait: `apply_batch` equals per-change `apply` on
/// final outputs for every flavor.
#[test]
fn batches_match_sequential_application_per_flavor() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::erdos_renyi(18, 0.25, &mut rng);
        let mut shadow = g.clone();
        let mut batch = Vec::new();
        for _ in 0..8 {
            if let Some(c) = stream::random_change(&shadow, &ChurnConfig::default(), &mut rng) {
                c.apply(&mut shadow).expect("valid");
                batch.push(c);
            }
        }
        for (name, mut batched) in flavors(&g, 500 + seed) {
            let mut sequential = flavors(&g, 500 + seed)
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, e)| e)
                .expect("same flavor");
            let receipt = batched.apply_batch(&batch).expect("valid batch");
            assert_eq!(receipt.applied(), batch.len(), "{name}");
            for c in &batch {
                sequential.apply(c).expect("valid change");
            }
            assert_eq!(batched.mis(), sequential.mis(), "{name} seed={seed}");
            batched.assert_internally_consistent();
        }
    }
}
