//! E13 (extension) — recovery from state corruption.
//!
//! The paper situates itself next to the self-stabilization literature
//! (super-stabilization: recover fast from a single change AND eventually
//! from any state). The template relaxation *is* a self-stabilizing rule —
//! the greedy configuration is the unique fixed point of the local
//! invariant — so we measure how recovery cost scales when an adversary
//! corrupts the outputs of k nodes without touching the topology.

use dmis_core::{template, Engine};
use dmis_graph::generators;
use rand::seq::SliceRandom;

use super::common::{random_priorities, trial_rng};
use super::Report;
use crate::stats::Summary;
use crate::table::Table;

/// Runs experiment E13.
#[must_use]
pub fn run(quick: bool) -> Report {
    let n = if quick { 60 } else { 200 };
    let trials = if quick { 80 } else { 300 };
    let ks: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let mut table = Table::new(vec![
        "k corrupted",
        "influenced (mean ± CI)",
        "rounds (mean ± CI)",
        "state changes (mean ± CI)",
    ]);
    for &k in ks {
        let mut influenced = Vec::with_capacity(trials);
        let mut rounds = Vec::with_capacity(trials);
        let mut changes = Vec::with_capacity(trials);
        for trial in 0..trials {
            let mut rng = trial_rng(13_000 + k as u64, trial as u64);
            let (g, mut ids) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
            let pm = random_priorities(&g, &mut rng);
            ids.shuffle(&mut rng);
            let corrupted = &ids[..k.min(ids.len())];
            let trace = template::simulate_corruption(&g, &pm, corrupted);
            influenced.push(trace.s_size());
            rounds.push(trace.rounds);
            changes.push(trace.total_state_changes);
        }
        table.row(vec![
            k.to_string(),
            Summary::of_counts(&influenced).mean_ci(),
            Summary::of_counts(&rounds).mean_ci(),
            Summary::of_counts(&changes).mean_ci(),
        ]);
    }
    // Engine tier: the same adversary against the *production* engine —
    // flip `in_mis` on k live nodes, then let `verify_and_repair` heal
    // with the template's local rule instead of rebuilding. The settle
    // work (settle pops + counter updates beyond the fixed detection
    // sweep) is what scales with k; `n + 2m` is the floor any
    // from-scratch rebuild pays just to re-derive the counters.
    let engine_trials = trials / 4;
    let mut engine_table = Table::new(vec![
        "k corrupted",
        "repair pops (mean ± CI)",
        "repair counter updates (mean ± CI)",
        "healed (mean ± CI)",
        "rebuild floor (n + 2m)",
    ]);
    let mut rebuild_floor = 0usize;
    for &k in ks {
        let mut pops = Vec::with_capacity(engine_trials);
        let mut counter_updates = Vec::with_capacity(engine_trials);
        let mut healed = Vec::with_capacity(engine_trials);
        for trial in 0..engine_trials {
            let mut rng = trial_rng(13_500 + k as u64, trial as u64);
            let (g, mut ids) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
            rebuild_floor = g.node_count() + 2 * g.edge_count();
            let mut engine = Engine::builder()
                .graph(g)
                .seed(13_600 + trial as u64)
                .build();
            ids.shuffle(&mut rng);
            engine.corrupt_in_mis(&ids[..k.min(ids.len())]);
            let report = engine.verify_and_repair();
            pops.push(report.heap_pops());
            counter_updates.push(report.counter_updates());
            healed.push(report.memberships_violated());
        }
        engine_table.row(vec![
            k.to_string(),
            Summary::of_counts(&pops).mean_ci(),
            Summary::of_counts(&counter_updates).mean_ci(),
            Summary::of_counts(&healed).mean_ci(),
            rebuild_floor.to_string(),
        ]);
    }
    let body = format!(
        "Outputs of k random nodes inverted on a stable ER(n={n}, 8/n) \
         system; {trials} trials per k; the template relaxes back to the \
         valid configuration.\n\n{table}\n\
         Reading: recovery is **local** — the influenced set and total work \
         grow linearly in k (roughly the corrupted nodes plus an O(1)-size \
         halo each; note a corrupted node whose lie is locally consistent \
         still has to flip back, so influenced ≈ k + overflow), and the \
         round count stays bounded by the longest priority-increasing \
         cascade, not by n. This is the super-stabilization flavor the \
         related-work section aims at: fast recovery from bounded faults, \
         eventual recovery from any state (the k = n column of the unit \
         tests).\n\n\
         Engine tier ({engine_trials} trials per k): `verify_and_repair` \
         on a live `MisEngine` with k `in_mis` bits flipped — the \
         undetectable-RAM-corruption case the checksummed durability \
         files cannot catch.\n\n{engine_table}\n\
         Reading: the heal's settle work (pops, counter updates) scales \
         with k while the rebuild floor is fixed at n + 2m — for small k \
         the local rule beats recomputation by orders of magnitude, and \
         the healed engine is bit-identical to one that was never \
         corrupted (the uniqueness of the greedy fixed point, pinned by \
         `crates/core/tests/repair.rs`).\n"
    );
    Report {
        id: "E13",
        title: "Extension: recovery from k corrupted outputs",
        claim: "The template's local rule is self-stabilizing (the greedy MIS \
                is its unique fixed point); recovery cost from k corrupted \
                outputs should scale with k, not with n.",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_quick_recovery_is_linear_in_k() {
        let report = run(true);
        let get = |k: &str| -> f64 {
            let row = report
                .body
                .lines()
                .find(|l| l.starts_with(&format!("| {k} ")))
                .unwrap_or_else(|| panic!("row for k={k}"));
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            cells[2].split_whitespace().next().unwrap().parse().unwrap()
        };
        let at1 = get("1");
        let at16 = get("16");
        assert!(at1 <= 4.0, "single corruption should stay tiny, got {at1}");
        assert!(
            at16 <= 16.0 * 4.0,
            "k=16 recovery {at16} should be O(k), not O(n)"
        );
    }

    #[test]
    fn e13_engine_repair_beats_the_rebuild_floor() {
        let report = run(true);
        let engine = report
            .body
            .split("Engine tier")
            .nth(1)
            .expect("engine-tier table present");
        let cell = |k: &str, col: usize| -> f64 {
            let row = engine
                .lines()
                .find(|l| l.starts_with(&format!("| {k} ")))
                .unwrap_or_else(|| panic!("engine row for k={k}"));
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            cells[col]
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let pops1 = cell("1", 2);
        let pops16 = cell("16", 2);
        let floor = cell("1", 5);
        assert!(
            pops1 <= 30.0,
            "k=1 heal should be neighborhood-local: {pops1}"
        );
        assert!(
            pops16 <= 16.0 * 30.0,
            "k=16 heal {pops16} should be O(k), not O(n)"
        );
        assert!(
            pops16 < floor,
            "healing 16 nodes ({pops16} pops) must undercut the n+2m rebuild \
             floor ({floor})"
        );
    }
}
