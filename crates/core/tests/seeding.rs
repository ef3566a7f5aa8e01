//! Engine construction seeds membership and every lower-MIS counter in
//! one sweep in increasing π. This suite pins that sweep to the
//! independent greedy oracle ([`static_greedy::greedy_mis_dense`]) on
//! every engine flavor and every way an engine is built: priorities
//! drawn from the seed, prescribed, or restored from a checkpoint.
//!
//! The graphs are Chung–Lu power laws with id holes, big enough that
//! the hubs' adjacency is chunked; the prescribed order ranks the hubs
//! first, so they join the MIS and the sweep has to raise counters
//! across every chunk of a hub's list.

use dmis_core::durability::Checkpoint;
use dmis_core::{static_greedy, DynamicMis, Engine, EngineBuilder, PriorityMap};
use dmis_graph::{generators, DynGraph, NodeId, ShardLayout};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Chung–Lu graph (n = 20 000, mean degree 8, β = 2.5: hub degrees
/// near 400, past the 256-entry chunking threshold) with every 11th
/// non-hub node deleted, so the ids have holes below the watermark.
fn hub_graph(seed: u64) -> DynGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut g, ids) = generators::chung_lu(20_000, 8.0, 2.5, &mut rng);
    for &v in ids.iter().skip(50).step_by(11) {
        g.remove_node(v).unwrap();
    }
    g
}

/// The three engine flavors, as builders over `g`.
fn flavors(g: &DynGraph) -> [(&'static str, EngineBuilder); 3] {
    let builder = || Engine::builder().graph(g.clone());
    [
        ("unsharded", builder()),
        (
            "sharded striped(4)",
            builder().sharding(ShardLayout::striped(4)),
        ),
        (
            "sharded blocked(3, 64)",
            builder().sharding(ShardLayout::blocked(3, 64)),
        ),
    ]
}

/// The order that makes hubs members: nodes by decreasing degree.
fn hubs_first(g: &DynGraph) -> PriorityMap {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    PriorityMap::from_order(&order)
}

fn assert_at_the_greedy_fixed_point(what: &str, engine: &mut dyn DynamicMis) {
    let oracle = static_greedy::greedy_mis_dense(engine.graph(), engine.priorities());
    assert!(
        engine.mis_iter().eq(oracle.iter()),
        "{what}: membership differs from the greedy oracle"
    );
    let report = engine.verify_and_repair();
    assert!(
        report.is_clean(),
        "{what}: a counter or membership bit needed repair: {report:?}"
    );
}

#[test]
fn seeding_equals_the_greedy_oracle_on_every_flavor() {
    for seed in [3u64, 11] {
        let g = hub_graph(seed);
        let max_degree = g.max_degree();
        assert!(
            max_degree >= 256,
            "seed {seed}: no chunked hub (Δ = {max_degree})"
        );
        let prescribed = hubs_first(&g);
        for (flavor, builder) in flavors(&g) {
            let built = [
                ("drawn", builder.clone().seed(seed).build()),
                (
                    "prescribed",
                    builder.clone().priorities(prescribed.clone()).build(),
                ),
            ];
            for (how, mut engine) in built {
                let hub_in_mis = engine
                    .mis_iter()
                    .any(|v| engine.graph().degree(v) >= Some(256));
                if how == "prescribed" {
                    assert!(hub_in_mis, "{flavor}: the hubs-first order seats a hub");
                }
                let what = format!("{flavor}, {how}, seed {seed}");
                assert_at_the_greedy_fixed_point(&what, engine.as_mut());
                let image = Checkpoint::capture(engine.as_ref(), 0).encode();
                let mut restored = Checkpoint::decode(&image).unwrap().restore().unwrap();
                assert!(restored.graph() == engine.graph(), "{what}: restored graph");
                assert_at_the_greedy_fixed_point(&format!("{what}, restored"), restored.as_mut());
            }
        }
    }
}

#[test]
#[should_panic(expected = "has no priority")]
fn an_unprioritized_node_panics_the_unsharded_build() {
    let g = hub_graph(5);
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.pop();
    let _ = Engine::builder()
        .graph(g)
        .priorities(PriorityMap::from_order(&order))
        .build_unsharded();
}

#[test]
#[should_panic(expected = "has no priority")]
fn an_unprioritized_node_panics_the_sharded_build() {
    let g = hub_graph(5);
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.remove(0);
    let _ = Engine::builder()
        .graph(g)
        .priorities(PriorityMap::from_order(&order))
        .sharding(ShardLayout::striped(4))
        .build_sharded();
}
