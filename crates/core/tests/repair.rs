//! Self-healing through the trait: `verify_and_repair` on every engine
//! flavor, against the in-RAM corruption model the durability files
//! can't see (bit flips in live membership/counter state).
//!
//! The healing rule is the template's own self-stabilization: recompute
//! truthful lower-priority-MIS counters, then drain the violated nodes
//! in π order. Truthful counters + the π-ordered drain converge to the
//! *unique* greedy fixed point, so a healed engine must be bit-identical
//! to an uncorrupted twin — which is exactly what this suite asserts,
//! for every flavor, via `dyn DynamicMis` only.

use dmis_core::{DynamicMis, Engine, EngineBuilder, PriorityMap};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, NodeId, ShardLayout, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn flavors(g: &DynGraph, seed: u64) -> Vec<(&'static str, Box<dyn DynamicMis + Send>)> {
    vec![
        (
            "unsharded",
            Engine::builder().graph(g.clone()).seed(seed).build(),
        ),
        (
            "sharded-k4",
            Engine::builder()
                .graph(g.clone())
                .seed(seed)
                .sharding(ShardLayout::striped(4))
                .build(),
        ),
        (
            "parallel-k4",
            Engine::builder()
                .graph(g.clone())
                .seed(seed)
                .sharding(ShardLayout::striped(4))
                .threads(2)
                .spawn_threshold(0)
                .build(),
        ),
    ]
}

#[test]
fn repair_restores_the_twin_state_on_every_flavor() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(13_100 + seed);
        let (g, ids) = generators::erdos_renyi(36, 0.15, &mut rng);
        for (name, mut engine) in flavors(&g, 40 + seed) {
            // Identical construction ⇒ identical state: the twin is the
            // ground truth the healed engine must return to.
            let twin = flavors(&g, 40 + seed)
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, e)| e)
                .expect("same flavor");

            let k = 3 + (seed as usize % 3);
            let victims: Vec<NodeId> = ids.iter().step_by(5).take(k).copied().collect();
            assert_eq!(engine.corrupt_in_mis(&victims), victims.len(), "{name}");
            assert_ne!(engine.mis(), twin.mis(), "{name}: corruption took hold");

            let report = engine.verify_and_repair();
            assert!(!report.is_clean(), "{name}");
            assert_eq!(report.scanned(), engine.graph().node_count(), "{name}");
            assert!(report.memberships_violated() > 0, "{name}");
            assert_eq!(
                engine.mis(),
                twin.mis(),
                "{name} seed={seed}: healed to twin"
            );
            assert!(engine.check_invariant().is_ok(), "{name}");
            engine.assert_internally_consistent();

            let second = engine.verify_and_repair();
            assert!(second.is_clean(), "{name}: healing converged in one pass");
            assert_eq!(second.scanned(), engine.graph().node_count(), "{name}");
        }
    }
}

#[test]
fn repair_then_churn_stays_aligned_with_the_twin() {
    // A healed engine is not just pointwise-correct — it keeps producing
    // bit-identical receipts under further churn (counters, flip order,
    // RNG draws all intact).
    let mut rng = StdRng::seed_from_u64(77);
    let (g, ids) = generators::erdos_renyi(30, 0.2, &mut rng);
    for (name, mut engine) in flavors(&g, 9) {
        let mut twin = flavors(&g, 9)
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, e)| e)
            .expect("same flavor");
        engine.corrupt_in_mis(&[ids[1], ids[8], ids[15]]);
        engine.verify_and_repair();
        for _ in 0..60 {
            let Some(change) =
                stream::random_change(twin.graph(), &ChurnConfig::default(), &mut rng)
            else {
                continue;
            };
            let rt = twin.apply(&change).expect("valid");
            let rh = engine.apply(&change).expect("valid");
            assert_eq!(rt, rh, "{name}: receipts diverged after healing");
        }
        assert_eq!(engine.mis(), twin.mis(), "{name}");
    }
}

#[test]
fn a_clean_pass_publishes_no_epoch_a_healing_pass_publishes_one() {
    for (name, mut engine) in flavors(&generators::cycle(12).0, 4) {
        let reader = engine.reader();
        assert_eq!(reader.epoch(), 0, "{name}");

        let clean = engine.verify_and_repair();
        assert!(clean.is_clean(), "{name}");
        assert_eq!(reader.epoch(), 0, "{name}: clean sweeps are invisible");

        let victim = engine.mis_iter().next().expect("cycle MIS is non-empty");
        engine.corrupt_in_mis(&[victim]);
        let healed = engine.verify_and_repair();
        assert!(!healed.is_clean(), "{name}");
        assert_eq!(
            reader.epoch(),
            1,
            "{name}: healing publishes a fresh epoch, never a regressed one"
        );
        let snap = reader.snapshot();
        let mut quiesced: Vec<NodeId> = engine.mis_iter().collect();
        quiesced.sort_unstable();
        assert_eq!(
            snap.iter().collect::<Vec<_>>(),
            quiesced,
            "{name}: the published snapshot is the healed membership"
        );
    }
}

#[test]
fn a_corruption_a_settle_absorbs_still_reaches_the_snapshot() {
    // Path n0–n1 with π(n0) < π(n1): n0 is in, n1 is out. Corrupt n1 in,
    // then delete the edge: the settle finds n1 already where it belongs,
    // so no net flip reports it and the repair pass that follows is
    // clean. The snapshot must still show n1, as the engine does.
    let (mut g, ids) = DynGraph::with_nodes(2);
    g.insert_edge(ids[0], ids[1]).expect("fresh edge");
    let base = || {
        Engine::builder()
            .graph(g.clone())
            .priorities(PriorityMap::from_order(&ids))
            .seed(3)
    };
    let builders: [(&str, EngineBuilder); 3] = [
        ("unsharded", base()),
        ("sharded-k2", base().sharding(ShardLayout::striped(2))),
        (
            "parallel-k2",
            base()
                .sharding(ShardLayout::striped(2))
                .threads(2)
                .spawn_threshold(0),
        ),
    ];
    for (name, builder) in builders {
        let (mut engine, reader) = builder.build_with_reader();
        assert_eq!(
            engine.mis_iter().collect::<Vec<_>>(),
            vec![ids[0]],
            "{name}"
        );
        assert_eq!(engine.corrupt_in_mis(&[ids[1]]), 1, "{name}");
        engine
            .apply(&TopologyChange::DeleteEdge(ids[0], ids[1]))
            .expect("live edge");
        assert!(engine.verify_and_repair().is_clean(), "{name}");
        let live: Vec<NodeId> = engine.mis_iter().collect();
        assert_eq!(live, ids, "{name}: both endpoints are isolated members");
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), 1, "{name}");
        assert_eq!(
            snap.iter().collect::<Vec<_>>(),
            live,
            "{name}: the published snapshot equals the engine's membership"
        );
    }
}

#[test]
fn repair_work_scales_with_corruption_not_graph_size() {
    // The E13 engine-tier claim at test scale: healing k corrupted nodes
    // costs O(k) settle work (pops bounded by touched neighborhoods),
    // not O(n) — the sweep scans everything, but the *drain* stays local.
    let mut rng = StdRng::seed_from_u64(5);
    let (g, ids) = generators::erdos_renyi(400, 0.01, &mut rng);
    let mut engine = Engine::builder().graph(g).seed(2).build();
    engine.corrupt_in_mis(&[ids[7]]);
    let report = engine.verify_and_repair();
    assert!(!report.is_clean());
    assert_eq!(report.memberships_violated(), 1);
    let degree_bound = 1 + engine
        .graph()
        .nodes()
        .map(|v| engine.graph().degree(v).unwrap_or(0))
        .max()
        .unwrap_or(0);
    assert!(
        report.heap_pops() <= 2 * degree_bound,
        "one flipped bit must heal with neighborhood-local work \
         (pops {} vs degree bound {degree_bound})",
        report.heap_pops()
    );
}
