//! E8 — Section 5, Example 2: maximal matching of disjoint 3-edge paths.
//!
//! The random-greedy MIS of the line graph, which `NativeMatching` runs
//! directly over edges, gives each 3-path independently a matching of
//! size 2 with probability 2/3 and size 1 with probability 1/3, so the
//! expected matching size is `5n/12` for `n = 4k` nodes — versus the
//! worst-case maximal matching of `n/4` (all middle edges).

use dmis_derived::NativeMatching;
use dmis_graph::generators;

use super::Report;
use crate::stats::Summary;
use crate::table::Table;

/// Runs experiment E8.
#[must_use]
pub fn run(quick: bool) -> Report {
    let ks: &[usize] = if quick { &[3, 12] } else { &[3, 12, 48] };
    let trials = if quick { 300 } else { 1200 };
    let mut table = Table::new(vec![
        "k (paths)",
        "n",
        "measured mean size",
        "5n/12",
        "worst case n/4",
    ]);
    for &k in ks {
        let n = 4 * k;
        let mut sizes = Vec::with_capacity(trials);
        for trial in 0..trials {
            let (g, _) = generators::disjoint_three_paths(k);
            let nm = NativeMatching::new(g, 0xE8_0000 + trial as u64);
            sizes.push(nm.matching().len());
        }
        table.row(vec![
            k.to_string(),
            n.to_string(),
            Summary::of_counts(&sizes).mean_ci(),
            format!("{:.3}", 5.0 * n as f64 / 12.0),
            format!("{}", n / 4),
        ]);
    }
    let body = format!(
        "Random-greedy maximal matching (MIS on the line graph) of k \
         disjoint 3-edge paths; {trials} seeds per k.\n\n{table}\n\
         Expected: measured mean ≈ 5n/12 (per path: 2 with prob 2/3, 1 \
         with prob 1/3), strictly better than the worst-case maximal \
         matching n/4 an adversary could force on a history-dependent \
         algorithm.\n"
    );
    Report {
        id: "E8",
        title: "3-path matching: expected size 5n/12",
        claim: "The history-independent maximal matching on n/4 disjoint \
                3-paths has expected size 5n/12, versus worst case n/4.",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_quick_matches_formula() {
        let report = run(true);
        let row = report
            .body
            .lines()
            .find(|l| l.starts_with("| 12 "))
            .expect("k=12 row");
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let measured: f64 = cells[3].split_whitespace().next().unwrap().parse().unwrap();
        let expected = 5.0 * 48.0 / 12.0; // 20
        assert!(
            (measured - expected).abs() < 1.0,
            "measured {measured}, formula {expected}"
        );
    }
}
