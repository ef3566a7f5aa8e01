//! Integration of the derived structures: matching, coloring (both
//! reductions) and clustering maintained side by side over one shared
//! change stream, with every structural guarantee checked at every step;
//! plus the matching engine checked against the line-graph reduction it
//! implements, rebuilt from scratch after every change.

use std::collections::{BTreeMap, BTreeSet};

use dynamic_mis::cluster::DynamicClustering;
use dynamic_mis::core::{static_greedy, Priority, PriorityMap};
use dynamic_mis::derived::{verify, BlowupColoring, ColoringEngine, NativeMatching};
use dynamic_mis::graph::{generators, DynGraph, EdgeKey, NodeId, TopologyChange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One stream of edge changes drives four structures simultaneously.
#[test]
fn all_structures_survive_one_shared_edge_stream() {
    let mut rng = StdRng::seed_from_u64(42);
    let (g, _) = generators::cycle(12);
    // Degree cap 4 for the blow-up (palette 5).
    let mut matching = NativeMatching::new(g.clone(), 1);
    let mut coloring = ColoringEngine::from_graph(g.clone(), 2);
    let mut blowup = BlowupColoring::new(g.clone(), 5, 3);
    let mut clustering = DynamicClustering::new(g.clone(), 4);
    let mut shadow = g;

    for _ in 0..120 {
        let insert = rng.random_bool(0.5);
        let change = if insert {
            let Some((u, v)) = generators::random_non_edge(&shadow, &mut rng) else {
                continue;
            };
            if shadow.degree(u).unwrap() >= 4 || shadow.degree(v).unwrap() >= 4 {
                continue; // respect the blow-up degree cap
            }
            TopologyChange::InsertEdge(u, v)
        } else {
            let Some((u, v)) = generators::random_edge(&shadow, &mut rng) else {
                continue;
            };
            TopologyChange::DeleteEdge(u, v)
        };
        change.apply(&mut shadow).expect("valid");
        match &change {
            TopologyChange::InsertEdge(u, v) => {
                matching.insert_edge(*u, *v).expect("valid");
                coloring.insert_edge(*u, *v).expect("valid");
                blowup.insert_edge(*u, *v).expect("valid");
            }
            TopologyChange::DeleteEdge(u, v) => {
                matching.remove_edge(*u, *v).expect("valid");
                coloring.remove_edge(*u, *v).expect("valid");
                blowup.remove_edge(*u, *v).expect("valid");
            }
            _ => unreachable!(),
        }
        clustering.apply(&change).expect("valid");

        assert!(verify::is_maximal_matching(
            matching.graph(),
            &matching.matching()
        ));
        assert!(verify::is_proper_coloring(
            coloring.graph(),
            &coloring.colors()
        ));
        assert!(verify::is_proper_coloring(
            blowup.base_graph(),
            &blowup.colors()
        ));
        clustering.assert_consistent();
    }
}

/// The two coloring routes (greedy-by-π and clique blow-up) both stay
/// within the Δ+1 palette on the same graphs.
#[test]
fn both_coloring_routes_respect_palette() {
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::erdos_renyi(12, 0.25, &mut rng);
        let delta = g.max_degree();
        let greedy = ColoringEngine::from_graph(g.clone(), seed);
        assert!(greedy.palette_size() <= delta + 1);
        let blowup = BlowupColoring::new(g.clone(), delta + 1, seed);
        let colors = blowup.colors();
        assert!(verify::is_proper_coloring(&g, &colors));
        assert!(verify::palette_size(&colors) <= delta + 1);
    }
}

/// Matching under node churn on bipartite graphs — the dispatch scenario.
#[test]
fn matching_under_bipartite_node_churn() {
    let mut rng = StdRng::seed_from_u64(6);
    let (g, _, right) = generators::random_bipartite(8, 8, 0.3, &mut rng);
    let mut nm = NativeMatching::new(g, 7);
    for _ in 0..40 {
        // A right-side node leaves; a fresh one joins with random links.
        if let Some(&victim) = right.iter().find(|v| nm.graph().has_node(**v)) {
            nm.remove_node(victim).expect("valid");
            nm.assert_consistent();
        }
        let targets: Vec<NodeId> = nm
            .graph()
            .nodes()
            .filter(|_| rng.random_bool(0.25))
            .collect();
        let joined = nm.add_node();
        for t in targets {
            nm.insert_edge(joined, t).expect("valid");
            nm.assert_consistent();
        }
    }
}

/// Clustering cost tracks the graph: on disjoint cliques it is always 0.
#[test]
fn clustering_is_exact_on_clique_unions() {
    for seed in 0..10u64 {
        let (mut g, ids) = DynGraph::with_nodes(9);
        for chunk in ids.chunks(3) {
            for i in 0..chunk.len() {
                for j in (i + 1)..chunk.len() {
                    g.insert_edge(chunk[i], chunk[j]).expect("fresh");
                }
            }
        }
        let dc = DynamicClustering::new(g, seed);
        assert_eq!(dc.cost(), 0, "pivot clustering is exact on clique unions");
        assert_eq!(dc.clustering().clusters().len(), 3);
    }
}

/// Matching receipts account exactly for the change in matched edges:
/// every flip is reported once, and the only silent change is a removed
/// edge leaving the matching with itself.
#[test]
fn matching_changes_are_bounded_by_receipts() {
    let mut rng = StdRng::seed_from_u64(11);
    let (g, _) = generators::erdos_renyi(12, 0.3, &mut rng);
    let mut nm = NativeMatching::new(g, 13);
    for _ in 0..60 {
        let before = nm.matching();
        if rng.random_bool(0.5) {
            if let Some((u, v)) = generators::random_non_edge(nm.graph(), &mut rng) {
                let receipt = nm.insert_edge(u, v).expect("valid");
                let diff = before.symmetric_difference(&nm.matching()).count();
                assert_eq!(diff, receipt.adjustments());
            }
        } else if let Some((u, v)) = generators::random_edge(nm.graph(), &mut rng) {
            let was_matched = nm.is_matched(u, v);
            let receipt = nm.remove_edge(u, v).expect("valid");
            let diff = before.symmetric_difference(&nm.matching()).count();
            assert_eq!(diff, receipt.adjustments() + usize::from(was_matched));
        }
    }
}

/// The line-graph reduction of Section 5, rebuilt from scratch: `L(G)`
/// has one node per edge of `g`, carrying that edge's key, and two line
/// nodes are adjacent iff their edges share an endpoint. Returns the
/// edges of the static greedy MIS of `L(G)`.
fn line_graph_greedy_matching(g: &DynGraph, keys: &BTreeMap<EdgeKey, u64>) -> BTreeSet<EdgeKey> {
    let edges: Vec<EdgeKey> = g.edges().collect();
    let (mut line, line_ids) = DynGraph::with_nodes(edges.len());
    let mut order = PriorityMap::new();
    for (i, &e) in edges.iter().enumerate() {
        order.insert(line_ids[i], Priority::new(keys[&e], line_ids[i]));
        let (a, b) = e.endpoints();
        for (j, f) in edges.iter().enumerate().skip(i + 1) {
            if f.contains(a) || f.contains(b) {
                line.insert_edge(line_ids[i], line_ids[j]).expect("fresh");
            }
        }
    }
    let edge_of: BTreeMap<NodeId, EdgeKey> = line_ids.into_iter().zip(edges).collect();
    static_greedy::greedy_mis(&line, &order)
        .into_iter()
        .map(|ln| edge_of[&ln])
        .collect()
}

/// Inserts `{u, v}` under a test-drawn key and records the key.
fn insert_keyed(
    nm: &mut NativeMatching,
    keys: &mut BTreeMap<EdgeKey, u64>,
    rng: &mut StdRng,
    u: NodeId,
    v: NodeId,
) {
    let key = rng.random();
    keys.insert(EdgeKey::new(u, v), key);
    nm.insert_edge_with_key(u, v, key).expect("valid");
}

/// Oracle test: `NativeMatching` is the line-graph reduction run over
/// edges. Edges enter with test-drawn keys, and after every edge and node
/// change the maintained matching must equal the static greedy MIS of a
/// freshly built `L(G)` whose line nodes carry those keys.
#[test]
fn native_and_reduction_matchings_are_identical() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::erdos_renyi(14, 0.25, &mut rng);
        let (empty, _) = DynGraph::with_nodes(g.node_count());
        let mut nm = NativeMatching::new(empty, seed);
        let mut keys = BTreeMap::new();
        let check = |nm: &NativeMatching, keys: &BTreeMap<EdgeKey, u64>, step: &str| {
            assert_eq!(
                nm.matching(),
                line_graph_greedy_matching(nm.graph(), keys),
                "seed {seed}: diverged from the L(G) oracle after {step}"
            );
        };
        for e in g.edges() {
            let (u, v) = e.endpoints();
            insert_keyed(&mut nm, &mut keys, &mut rng, u, v);
            check(&nm, &keys, "build");
        }
        // Edge churn.
        for _ in 0..100 {
            if rng.random_bool(0.5) {
                if let Some((u, v)) = generators::random_non_edge(nm.graph(), &mut rng) {
                    insert_keyed(&mut nm, &mut keys, &mut rng, u, v);
                    check(&nm, &keys, "edge insert");
                }
            } else if let Some((u, v)) = generators::random_edge(nm.graph(), &mut rng) {
                keys.remove(&EdgeKey::new(u, v));
                nm.remove_edge(u, v).expect("valid");
                check(&nm, &keys, "edge removal");
            }
        }
        // Node churn: a node leaves with all its edges, or a fresh one
        // joins with links to random live nodes.
        for _ in 0..50 {
            if rng.random_bool(0.5) {
                if let Some(v) = generators::random_node(nm.graph(), &mut rng) {
                    keys.retain(|e, _| !e.contains(v));
                    nm.remove_node(v).expect("valid");
                    check(&nm, &keys, "node removal");
                }
            } else {
                let targets: Vec<NodeId> = nm
                    .graph()
                    .nodes()
                    .filter(|_| rng.random_bool(0.3))
                    .collect();
                let joined = nm.add_node();
                for t in targets {
                    insert_keyed(&mut nm, &mut keys, &mut rng, joined, t);
                    check(&nm, &keys, "node join");
                }
            }
        }
        nm.assert_consistent();
    }
}
