//! Dynamic task–worker matching: the MIS of the line graph, run over edges.
//!
//! ```text
//! cargo run --example task_matching
//! ```
//!
//! Scenario: a dispatch system where edges are *compatible (worker, task)
//! pairs* and we continuously maintain a **maximal matching** — no
//! compatible pair is left idle while both sides are free. Section 5 of
//! the paper: a maximal matching is an MIS of the line graph, and
//! `NativeMatching` runs that random-greedy order directly over edges,
//! without building the line graph. The result is history independent,
//! so the matching quality cannot be degraded by the order in which
//! compatibilities appear; on the paper's 3-path workload the expected
//! matching is 5n/12, beating the n/4 worst case.

use dynamic_mis::derived::{verify, NativeMatching};
use dynamic_mis::graph::{generators, DynGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    // A bipartite compatibility graph: 30 workers × 30 tasks.
    let (graph, workers, tasks) = generators::random_bipartite(30, 30, 0.12, &mut rng);
    let mut nm = NativeMatching::new(graph, 5);
    println!(
        "dispatch: {} workers, {} tasks, {} compatible pairs, {} matched",
        workers.len(),
        tasks.len(),
        nm.graph().edge_count(),
        nm.matching().len()
    );

    // Live updates: compatibilities appear and expire; workers churn.
    let mut matched_deltas = 0usize;
    let events = 200;
    for _ in 0..events {
        let roll: f64 = rng.random();
        let before = nm.matching().len();
        if roll < 0.4 {
            // New compatibility discovered.
            if let Some((u, v)) = random_cross_pair(nm.graph(), &workers, &tasks, &mut rng) {
                if !nm.graph().has_edge(u, v) {
                    nm.insert_edge(u, v).expect("valid");
                }
            }
        } else if roll < 0.8 {
            // A compatibility expires.
            if let Some((u, v)) = generators::random_edge(nm.graph(), &mut rng) {
                nm.remove_edge(u, v).expect("valid");
            }
        } else {
            // A worker disconnects and reconnects with fresh compatibilities.
            if let Some(&w) = workers.get(rng.random_range(0..workers.len())) {
                if nm.graph().has_node(w) {
                    nm.remove_node(w).expect("valid");
                    let nbrs: Vec<NodeId> = tasks
                        .iter()
                        .copied()
                        .filter(|_| rng.random_bool(0.1))
                        .collect();
                    let rejoined = nm.add_node();
                    for t in nbrs {
                        nm.insert_edge(rejoined, t).expect("valid");
                    }
                }
            }
        }
        matched_deltas += nm.matching().len().abs_diff(before);
    }
    assert!(verify::is_maximal_matching(nm.graph(), &nm.matching()));
    println!(
        "after {events} events: {} matched pairs (maximality verified ✓), \
         mean |matching| change per event: {:.2}",
        nm.matching().len(),
        matched_deltas as f64 / f64::from(events)
    );

    // The paper's worked example: expected matching on disjoint 3-paths.
    let k = 25;
    let trials = 400;
    let mut total = 0usize;
    for t in 0..trials {
        let (g, _) = generators::disjoint_three_paths(k);
        total += NativeMatching::new(g, t).matching().len();
    }
    let n = 4 * k;
    println!(
        "\n3-path benchmark (n = {n}): mean matching {:.2}, paper expectation 5n/12 = {:.2}, worst case n/4 = {}",
        total as f64 / f64::from(trials as u32),
        5.0 * n as f64 / 12.0,
        n / 4
    );
}

fn random_cross_pair(
    g: &DynGraph,
    workers: &[NodeId],
    tasks: &[NodeId],
    rng: &mut StdRng,
) -> Option<(NodeId, NodeId)> {
    for _ in 0..64 {
        let w = workers[rng.random_range(0..workers.len())];
        let t = tasks[rng.random_range(0..tasks.len())];
        if g.has_node(w) && g.has_node(t) && !g.has_edge(w, t) {
            return Some((w, t));
        }
    }
    None
}
