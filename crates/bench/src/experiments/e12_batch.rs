//! E12 (extension) — batched changes: the paper's first open question.
//!
//! "An immediate open question is whether our analysis can be extended to
//! cope with more than a single failure at a time." (Section 6.) We apply
//! `k` simultaneous random changes and measure the influenced set of the
//! combined recovery. Theorem 1 gives a trivial upper bound of `k` by
//! union over sequential applications; the measurement shows the batch
//! recovery is in fact *cheaper* than k sequential recoveries (overlapping
//! cascades merge, and a node flipped twice by consecutive changes is
//! settled once by the batch).
//!
//! A second table adds the **shard-count axis**: the same batches run on
//! the K-shard [`ShardedMisEngine`], measuring how much of the merged
//! recovery crosses shard boundaries. Because the influenced set is small
//! (first table), handoff traffic stays a small multiple of the batch
//! size even though under striping most edges span shards.
//!
//! A third table adds the **queue-depth axis** (the ROADMAP's
//! async-batching measurement): the adversary's change stream is fed
//! through [`dmis_sim::IngestRun`] — the coalescing ingestion queue in
//! front of a K = 4 sharded engine — at watermarks Q ∈ {1, 4, 16, 64}.
//! Deeper queues amortize settle passes (fewer flushes, fewer settle
//! epochs = rounds) and cancel opposing churn outright (coalesced
//! changes never cost a single settle pop), at the price of queueing
//! latency: a change waits, on average, ~(Q−1)/2 arrivals before its
//! flush makes it visible. That latency-vs-work trade-off is exactly
//! what the table sweeps, and outputs are watermark-invariant (checked
//! per trial against unbatched application).
//!
//! A fourth table sweeps the **flush policy** over two adversarial
//! stream shapes (coalescing-friendly flapping, anti-coalescing fresh
//! pairs) on a manual clock, so its delay percentiles are exact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dmis_core::{template, DynamicMis, FlushPolicy, ManualClock};
use dmis_graph::stream::{self, ChurnConfig};
use dmis_graph::{generators, DynGraph, ShardLayout, TopologyChange};
use dmis_sim::RunConfig;

use super::common::{random_priorities, trial_rng};
use super::Report;
use crate::stats::Summary;
use crate::table::Table;

/// Builds a `k`-change batch valid against `g` by drawing random changes
/// against an evolving shadow copy. `None` when the change stream dries
/// up before `k` draws (the trial is skipped).
fn build_batch(
    g: &dmis_graph::DynGraph,
    k: usize,
    rng: &mut rand::rngs::StdRng,
) -> Option<Vec<TopologyChange>> {
    let mut shadow = g.clone();
    let mut batch = Vec::with_capacity(k);
    for _ in 0..k {
        let c = stream::random_change(&shadow, &ChurnConfig::default(), rng)?;
        c.apply(&mut shadow).expect("valid");
        batch.push(c);
    }
    Some(batch)
}

/// A length-`len` flapping stream over a bounded pool of 24 candidate
/// edges of `g` ([`stream::flapping_stream`]): nearby changes regularly
/// hit the same edge — the workload shape where a coalescing queue can
/// cancel work.
fn toggle_pool_stream(
    g: &DynGraph,
    len: usize,
    rng: &mut rand::rngs::StdRng,
) -> Vec<TopologyChange> {
    let pool = stream::random_pair_pool(g, 24, rng);
    stream::flapping_stream(g, &pool, len, false, rng)
}

/// Runs experiment E12.
#[must_use]
pub fn run(quick: bool) -> Report {
    let n = if quick { 60 } else { 150 };
    let trials = if quick { 100 } else { 400 };
    let ks: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let mut table = Table::new(vec![
        "k (batch size)",
        "batch |S| (mean ± CI)",
        "sequential Σ|S| (mean ± CI)",
        "bound k",
    ]);
    for &k in ks {
        let mut batch_sizes = Vec::with_capacity(trials);
        let mut seq_sizes = Vec::with_capacity(trials);
        for trial in 0..trials {
            let mut rng = trial_rng(12_000 + k as u64, trial as u64);
            let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
            let mut pm = random_priorities(&g, &mut rng);
            // Build a valid batch against an evolving shadow.
            let mut shadow = g.clone();
            let mut batch = Vec::with_capacity(k);
            for _ in 0..k {
                let Some(c) = stream::random_change(&shadow, &ChurnConfig::default(), &mut rng)
                else {
                    break;
                };
                if let TopologyChange::InsertNode { id, .. } = &c {
                    pm.assign(*id, &mut rng);
                }
                c.apply(&mut shadow).expect("valid");
                batch.push(c);
            }
            if batch.len() < k {
                continue;
            }
            // Batched recovery.
            let trace = template::simulate_batch(&g, &pm, &batch);
            batch_sizes.push(trace.s_size());
            // Sequential recoveries, summed.
            let mut total = 0usize;
            let mut g_cur = g.clone();
            for c in &batch {
                let mut g_next = g_cur.clone();
                c.apply(&mut g_next).expect("valid");
                total += template::simulate_change(&g_cur, &g_next, &pm, c).s_size();
                g_cur = g_next;
            }
            seq_sizes.push(total);
        }
        table.row(vec![
            k.to_string(),
            Summary::of_counts(&batch_sizes).mean_ci(),
            Summary::of_counts(&seq_sizes).mean_ci(),
            k.to_string(),
        ]);
    }
    // Shard-count axis: the same kind of batches, recovered by the
    // K-shard engine; handoffs audit the cross-shard share of the merged
    // cascade, and every output is checked bit-identical to the
    // unsharded engine.
    let shard_trials = trials / 2;
    let mut shard_table = Table::new(vec![
        "k (batch size)",
        "handoffs K=2 (mean ± CI)",
        "handoffs K=4 (mean ± CI)",
        "shard runs K=4 (mean ± CI)",
        "bit-identical",
    ]);
    for &k in ks {
        let mut handoffs2 = Vec::with_capacity(shard_trials);
        let mut handoffs4 = Vec::with_capacity(shard_trials);
        let mut runs4 = Vec::with_capacity(shard_trials);
        let mut identical = true;
        for trial in 0..shard_trials {
            let mut rng = trial_rng(12_500 + k as u64, trial as u64);
            let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
            let Some(batch) = build_batch(&g, k, &mut rng) else {
                continue;
            };
            let seed = 7_000 + trial as u64;
            let mut plain = dmis_core::Engine::builder()
                .graph(g.clone())
                .seed(seed)
                .build_unsharded();
            plain.apply_batch(&batch).expect("valid batch");
            for &shards in &[2usize, 4] {
                let mut engine = dmis_core::Engine::builder()
                    .graph(g.clone())
                    .sharding(ShardLayout::striped(shards))
                    .seed(seed)
                    .build_sharded();
                let receipt = engine.apply_batch(&batch).expect("valid batch");
                identical &= engine.mis() == plain.mis();
                if shards == 2 {
                    handoffs2.push(receipt.cross_shard_handoffs());
                } else {
                    handoffs4.push(receipt.cross_shard_handoffs());
                    runs4.push(receipt.shard_runs());
                }
            }
        }
        shard_table.row(vec![
            k.to_string(),
            Summary::of_counts(&handoffs2).mean_ci(),
            Summary::of_counts(&handoffs4).mean_ci(),
            Summary::of_counts(&runs4).mean_ci(),
            if identical { "yes".into() } else { "NO".into() },
        ]);
    }
    // Queue-depth axis: the ingestion queue in front of the K=4 sharded
    // engine. The stream is a toggle stream over a bounded edge pool so
    // windows revisit edges (realistic flapping churn) and the coalescer
    // has real cancel opportunities.
    let ingest_trials = (trials / 8).max(8);
    let ingest_stream_len = if quick { 192 } else { 512 };
    let depths: &[usize] = &[1, 4, 16, 64];
    let mut ingest_table = Table::new(vec![
        "queue depth Q",
        "flushes",
        "coalesced %",
        "rounds total",
        "broadcasts total",
        "mean queue delay",
        "wall µs/change (mean ± CI)",
        "invariant outputs",
    ]);
    for &q in depths {
        let mut flushes = Vec::with_capacity(ingest_trials);
        let mut coalesced_pct = Vec::with_capacity(ingest_trials);
        let mut rounds = Vec::with_capacity(ingest_trials);
        let mut broadcasts = Vec::with_capacity(ingest_trials);
        let mut delays = Vec::with_capacity(ingest_trials);
        let mut wall_us = Vec::with_capacity(ingest_trials);
        let mut invariant = true;
        for trial in 0..ingest_trials {
            let mut rng = trial_rng(12_900, trial as u64);
            let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
            let stream = toggle_pool_stream(&g, ingest_stream_len, &mut rng);
            let seed = 8_000 + trial as u64;
            // Oracle: unbatched application of the same stream.
            let mut oracle = RunConfig::new(g.clone())
                .layout(ShardLayout::striped(4))
                .watermark(1)
                .seed(seed)
                .ingest();
            for c in &stream {
                oracle.push(c).expect("valid stream");
            }
            let mut run = RunConfig::new(g)
                .layout(ShardLayout::striped(4))
                .watermark(q)
                .seed(seed)
                .ingest();
            let start = Instant::now();
            for c in &stream {
                run.push(c).expect("valid stream");
            }
            run.flush().expect("valid tail");
            wall_us.push(start.elapsed().as_secs_f64() * 1e6 / stream.len() as f64);
            invariant &= run.mis() == oracle.mis();
            flushes.push(run.flushes());
            coalesced_pct.push((100 * run.coalesced_changes()) / stream.len());
            rounds.push(run.lifetime_metrics().rounds);
            broadcasts.push(run.lifetime_metrics().broadcasts);
            delays.push(run.mean_queue_delay() as usize);
        }
        ingest_table.row(vec![
            q.to_string(),
            Summary::of_counts(&flushes).mean_ci(),
            Summary::of_counts(&coalesced_pct).mean_ci(),
            Summary::of_counts(&rounds).mean_ci(),
            Summary::of_counts(&broadcasts).mean_ci(),
            Summary::of_counts(&delays).mean_ci(),
            Summary::of(&wall_us).mean_ci(),
            if invariant { "yes".into() } else { "NO".into() },
        ]);
    }
    // Flush-policy axis: the same ingestion deployment under the four
    // FlushPolicy variants, on the two adversarial stream shapes — the
    // coalescing-friendly flapping pool and the anti-coalescing
    // fresh-pair stream (no edge key ever revisited). A manual clock
    // advanced one tick per push makes the deadline and adaptive
    // policies fully deterministic; delay percentiles are in ticks.
    let policy_trials = (trials / 12).max(4);
    let policy_stream_len = if quick { 192 } else { 384 };
    let policies: &[(&str, FlushPolicy)] = &[
        ("depth:4", FlushPolicy::Depth(4)),
        ("depth:64", FlushPolicy::Depth(64)),
        (
            "deadline:8",
            FlushPolicy::Deadline(Duration::from_millis(8)),
        ),
        (
            "either:64:8",
            FlushPolicy::Either(64, Duration::from_millis(8)),
        ),
        ("adaptive", FlushPolicy::adaptive()),
    ];
    let mut policy_table = Table::new(vec![
        "policy",
        "stream",
        "flushes",
        "coalesced %",
        "delay p50 (ticks)",
        "delay p99 (ticks)",
        "invariant outputs",
    ]);
    for (name, policy) in policies {
        for kind in ["flapping", "fresh-pair"] {
            let mut flushes = Vec::with_capacity(policy_trials);
            let mut coalesced_pct = Vec::with_capacity(policy_trials);
            let mut p50s = Vec::with_capacity(policy_trials);
            let mut p99s = Vec::with_capacity(policy_trials);
            let mut invariant = true;
            for trial in 0..policy_trials {
                let mut rng = trial_rng(13_000, trial as u64);
                let (g, ids) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
                let stream = if kind == "flapping" {
                    toggle_pool_stream(&g, policy_stream_len, &mut rng)
                } else {
                    stream::fresh_pair_stream(&g, &ids, policy_stream_len, &mut rng)
                };
                let seed = 8_500 + trial as u64;
                let mut oracle = RunConfig::new(g.clone())
                    .layout(ShardLayout::striped(4))
                    .watermark(1)
                    .seed(seed)
                    .ingest();
                for c in &stream {
                    oracle.push(c).expect("valid stream");
                }
                let clock = ManualClock::new();
                let mut run = RunConfig::new(g)
                    .layout(ShardLayout::striped(4))
                    .policy(policy.clone())
                    .clock(Arc::new(clock.clone()))
                    .seed(seed)
                    .ingest();
                for c in &stream {
                    run.push(c).expect("valid stream");
                    clock.advance(Duration::from_millis(1));
                    run.poll().expect("valid stream");
                }
                run.flush().expect("valid tail");
                invariant &= run.mis() == oracle.mis();
                flushes.push(run.flushes());
                coalesced_pct.push((100 * run.coalesced_changes()) / stream.len());
                p50s.push(run.delay_p50().as_millis() as usize);
                p99s.push(run.delay_p99().as_millis() as usize);
            }
            policy_table.row(vec![
                (*name).to_string(),
                kind.to_string(),
                Summary::of_counts(&flushes).mean_ci(),
                Summary::of_counts(&coalesced_pct).mean_ci(),
                Summary::of_counts(&p50s).mean_ci(),
                Summary::of_counts(&p99s).mean_ci(),
                if invariant { "yes".into() } else { "NO".into() },
            ]);
        }
    }
    let body = format!(
        "k simultaneous random changes on ER(n={n}, 8/n); {trials} fresh \
         orders per k; the same batch is also replayed one change at a \
         time.\n\n{table}\n\
         Reading: the batched influenced set tracks the sequential total \
         (both ≈ linear in k with slope E[|S|] ≤ 1 per change) and never \
         exceeds it — merging cascades only helps. This extends Theorem 1 \
         empirically to multi-failure events; the engine handles them \
         natively via `MisEngine::apply_batch`.\n\n\
         Shard-count axis ({shard_trials} trials per k, same batch \
         construction, `ShardedMisEngine` with striped layouts):\n\n\
         {shard_table}\n\
         Reading: cross-shard traffic grows with the batch size but stays \
         a small multiple of k — the bounded influenced set keeps almost \
         all settle work shard-local, which is what makes range-sharding \
         viable; outputs are bit-identical to the unsharded engine in \
         every trial.\n\n\
         Queue-depth axis ({ingest_trials} trials per Q, \
         {ingest_stream_len}-change flapping streams through \
         `dmis_sim::IngestRun`, K = 4 striped):\n\n{ingest_table}\n\
         Reading: deeper queues flush less often, cancel a growing share \
         of the churn before any settle work (coalesced %), and shrink \
         the total settle rounds and cross-shard broadcasts — while the \
         mean queue delay grows ≈ (Q−1)/2, the latency price of \
         batching. Outputs are invariant across the whole axis (the MIS \
         is history independent, so a coalesced window settles to the \
         same output as unbatched application).\n\n\
         Flush-policy axis ({policy_trials} trials per cell, \
         {policy_stream_len}-change streams, manual clock advanced one \
         tick per push, K = 4 striped):\n\n{policy_table}\n\
         Reading: on the flapping stream a deep fixed watermark buys the \
         most coalescing at the worst tail delay; the deadline policy \
         caps the tail at its bound regardless of depth; and the \
         adaptive smoother converges near the deep-watermark coalesce \
         fraction. On the fresh-pair stream — where *no* change ever \
         coalesces — the smoother shallows toward per-change flushing, \
         beating `depth:64`'s p99 tail by an order of magnitude while \
         fixed policies pay full price. Outputs are invariant across \
         every cell (history independence again).\n"
    );
    Report {
        id: "E12",
        title: "Extension: batched (simultaneous) topology changes",
        claim: "Open question of Section 6: more than a single failure at a \
                time. Expected: influenced set ≤ k for a k-batch (union \
                bound over Theorem 1), with batching no worse than \
                sequential recovery.",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_quick_batch_no_worse_than_sequential() {
        let report = run(true);
        for k in ["1", "4", "16"] {
            let row = report
                .body
                .lines()
                .find(|l| l.starts_with(&format!("| {k} ")))
                .unwrap_or_else(|| panic!("row for k={k}"));
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let batch: f64 = cells[2].split_whitespace().next().unwrap().parse().unwrap();
            let seq: f64 = cells[3].split_whitespace().next().unwrap().parse().unwrap();
            let bound: f64 = k.parse().unwrap();
            assert!(
                batch <= seq + 0.75,
                "batch {batch} should not exceed sequential {seq} (k={k})"
            );
            assert!(
                batch <= bound * 1.6 + 0.8,
                "batch mean {batch} far above union bound {bound}"
            );
        }
    }

    #[test]
    fn e12_quick_queue_depth_axis_trades_latency_for_work() {
        let report = run(true);
        // Parse the queue-depth table rows: Q, flushes, coalesced %, …
        let row = |q: &str| -> Vec<String> {
            report
                .body
                .lines()
                .rfind(|l| l.starts_with(&format!("| {q} ")))
                .unwrap_or_else(|| panic!("row for Q={q}"))
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        };
        let first =
            |cell: &str| -> f64 { cell.split_whitespace().next().unwrap().parse().unwrap() };
        let (q1, q64) = (row("1"), row("64"));
        assert_eq!(q1.last().map(String::as_str), Some(""), "table shape");
        // Outputs invariant across the axis.
        assert_eq!(q1[q1.len() - 2], "yes");
        assert_eq!(q64[q64.len() - 2], "yes");
        // Deeper queue: fewer flushes, more coalescing, more delay.
        assert!(first(&q64[2]) < first(&q1[2]), "flushes must drop with Q");
        assert!(
            first(&q64[3]) > first(&q1[3]),
            "coalesced % must grow with Q ({} vs {})",
            q64[3],
            q1[3]
        );
        assert!(first(&q64[6]) > first(&q1[6]), "queue delay grows with Q");
    }

    #[test]
    fn e12_quick_policy_axis_adapts_to_the_stream() {
        let report = run(true);
        let row = |policy: &str, kind: &str| -> Vec<String> {
            report
                .body
                .lines()
                .map(|l| {
                    l.split('|')
                        .map(|c| c.trim().to_string())
                        .collect::<Vec<_>>()
                })
                .find(|cells| cells.len() > 2 && cells[1] == policy && cells[2] == kind)
                .unwrap_or_else(|| panic!("row for {policy} × {kind}"))
        };
        let first =
            |cell: &str| -> f64 { cell.split_whitespace().next().unwrap().parse().unwrap() };
        // Anti-coalescing stream: the smoother shallows, so its p99 tail
        // beats the deep fixed watermark's.
        let adaptive = row("adaptive", "fresh-pair");
        let deep = row("depth:64", "fresh-pair");
        assert!(
            first(&adaptive[6]) < first(&deep[6]),
            "adaptive p99 {} must beat depth:64 p99 {} on fresh pairs",
            adaptive[6],
            deep[6]
        );
        // Flapping stream: the smoother recovers most of the deep
        // watermark's coalescing win.
        let adaptive = row("adaptive", "flapping");
        let deep = row("depth:64", "flapping");
        assert!(
            first(&adaptive[4]) >= 0.5 * first(&deep[4]),
            "adaptive coalesce {} must recover the deep watermark's {}",
            adaptive[4],
            deep[4]
        );
    }

    #[test]
    fn e12_quick_sharded_axis_is_bit_identical() {
        let report = run(true);
        let identical_rows: Vec<&str> = report
            .body
            .lines()
            .filter(|l| l.split('|').count() >= 6 && l.contains("yes"))
            .collect();
        // One bit-identical shard row per batch size, one
        // invariant-output row per queue depth, and one per
        // policy × stream cell in the flush-policy table.
        assert_eq!(
            identical_rows.len(),
            3 + 4 + 10,
            "every shard/queue/policy row must be bit-identical: {report}"
        );
    }
}
