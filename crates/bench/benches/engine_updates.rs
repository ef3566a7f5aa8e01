//! Wall-clock cost of a single dynamic update vs recomputing from scratch
//! — the sequential-cost side of the paper's separation (Section 6: a
//! direct sequential implementation pays O(Δ) per adjusted node, versus
//! Θ(n + m) for any from-scratch recomputation) — plus the dense-storage
//! ablation: the same settle loop over `NodeMap`/`NodeSet` versus the
//! `BTreeMap`/`BTreeSet` layout it replaced.
//!
//! Running this bench also writes a `BENCH_engine.json` snapshot (into the
//! current directory, or `$BENCH_SNAPSHOT_DIR` if set) recording the dense
//! vs BTree per-update latency on random-graph churn, plus the
//! `engine_sharding` scaling sweep (per-update latency and cross-shard
//! handoff counts of the K-shard engine for K ∈ {1, 2, 4}; the
//! `"sharding"` section, whose n=1000 K=4 over K=1 ratio
//! `tools/bench_gate.sh` bounds via `BENCH_GATE_SHARD_MAX_RATIO`), and
//! the `engine_ingest` sweep: a flapping change stream through the
//! coalescing ingestion queue at watermarks Q ∈ {1, 16, 64}
//! (`"ingest"` section — per-change latency, flush counts, and the
//! coalesce fraction `tools/bench_gate.sh` checks via
//! `BENCH_GATE_INGEST_MIN_COALESCE`), and the `"scale"` section: sustained
//! churn on 10^5-node (smoke) up to 10^6-node (full) ER and Chung–Lu
//! instances through a pre-sized engine, with peak-RSS bytes/node, the
//! storage-regrow counter, and the same churn's cost with a reader
//! attached per row (gated via `BENCH_GATE_SCALE_MAX_RATIO` and
//! `BENCH_GATE_SCALE_MAX_BYTES_PER_NODE`), and the `"serve"` section:
//! the concurrent snapshot read path — what per-settle publication costs
//! the writer on the n=4096 batched-toggle row (interleaved plain vs
//! published engine, gated via `BENCH_GATE_SERVE_MAX_OVERHEAD`), plus a
//! full `ServeRun` row (writer replaying a flapping stream against R=2
//! reader threads) reporting read throughput, snapshot staleness, and
//! flush-latency percentiles, and the `"recovery"` section: the
//! durability layer's price — live log-then-publish ingest vs
//! checkpoint restore + WAL replay of the same history, plus the
//! checkpoint image's bytes/node (gated via
//! `BENCH_GATE_RECOVERY_MAX_REPLAY_RATIO` and
//! `BENCH_GATE_RECOVERY_MAX_BYTES_PER_NODE`). The engine rows all drive
//! `dyn DynamicMis` through one shared metering loop
//! (`measure_engine_toggle_ns`) built by `Engine::builder` — the
//! per-engine copies of the toggle harness are gone. `cargo bench
//! --bench engine_updates -- --test` runs everything in single-pass smoke
//! mode and still emits the snapshot (with reduced iteration counts).

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use dmis_bench::baseline_btree::BTreeMisEngine;
use dmis_core::durability::{Checkpoint, MemIo, StorageIo, WriteAheadLog};
use dmis_core::{static_greedy, DynamicMis, Engine, FlushPolicy, ManualClock};
use dmis_graph::{generators, NodeId, ShardLayout, TopologyChange};
use dmis_sim::RunConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Changes per direction in the `"serve"` section's batched toggle: large
/// enough that the settle front (not the graph mutation) dominates the
/// update.
const FRONT_BATCH: usize = 64;

/// Shard counts swept by the `engine_sharding` group and the snapshot.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn bench_update_vs_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_update_vs_recompute");
    for &n in &[100usize, 1000, 5000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
        let engine = dmis_core::Engine::builder()
            .graph(g.clone())
            .seed(42)
            .build_unsharded();

        group.bench_with_input(BenchmarkId::new("dynamic_edge_toggle", n), &n, |b, _| {
            // Toggle one random edge per iteration (delete + reinsert keeps
            // the graph statistically stationary).
            let mut engine = engine.clone();
            // Pre-sample the toggled edges so the timed loop measures the
            // engine, not the O(m) uniform edge sampler.
            let mut rng = StdRng::seed_from_u64(7);
            let edges: Vec<_> = (0..256)
                .map(|_| generators::random_edge(engine.graph(), &mut rng).expect("has edges"))
                .collect();
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = edges[i % edges.len()];
                i += 1;
                black_box(engine.remove_edge(u, v).expect("valid"));
                black_box(engine.insert_edge(u, v).expect("valid"));
            });
        });

        group.bench_with_input(
            BenchmarkId::new("static_greedy_recompute", n),
            &n,
            |b, _| {
                b.iter(|| {
                    black_box(static_greedy::greedy_mis(
                        engine.graph(),
                        engine.priorities(),
                    ))
                });
            },
        );
    }
    group.finish();
}

fn bench_node_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_node_churn");
    for &n in &[100usize, 1000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let (g, ids) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::new("insert_delete_node", n), &n, |b, _| {
            let mut engine = dmis_core::Engine::builder()
                .graph(g.clone())
                .seed(3)
                .build_unsharded();
            b.iter(|| {
                let (v, _) = engine
                    .insert_node(&[ids[0], ids[1], ids[2]])
                    .expect("valid");
                black_box(engine.remove_node(v).expect("valid"));
            });
        });
    }
    group.finish();
}

/// Shared dense-vs-BTree workload: ER(n, 8/n) plus 256 pre-sampled edges
/// to toggle. Used by both the criterion group and the snapshot writer so
/// the committed `BENCH_engine.json` measures exactly what the bench runs.
fn toggle_workload(
    n: usize,
) -> (
    dmis_graph::DynGraph,
    Vec<(dmis_graph::NodeId, dmis_graph::NodeId)>,
) {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
    let mut rng = StdRng::seed_from_u64(7);
    let edges: Vec<_> = (0..256)
        .map(|_| generators::random_edge(&g, &mut rng).expect("has edges"))
        .collect();
    (g, edges)
}

/// Dense `NodeMap`/`NodeSet` engine vs the BTree-backed baseline on the
/// identical edge-toggle workload — the storage-layout ablation.
fn bench_dense_vs_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_storage_layout");
    for &n in &[100usize, 1000, 5000] {
        let (g, edges) = toggle_workload(n);

        group.bench_with_input(BenchmarkId::new("dense_edge_toggle", n), &n, |b, _| {
            let mut engine = dmis_core::Engine::builder()
                .graph(g.clone())
                .seed(42)
                .build_unsharded();
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = edges[i % edges.len()];
                i += 1;
                black_box(engine.remove_edge(u, v).expect("valid"));
                black_box(engine.insert_edge(u, v).expect("valid"));
            });
        });

        group.bench_with_input(BenchmarkId::new("btree_edge_toggle", n), &n, |b, _| {
            let mut engine = BTreeMisEngine::from_graph(&g, 42);
            let mut i = 0usize;
            b.iter(|| {
                let (u, v) = edges[i % edges.len()];
                i += 1;
                black_box(engine.remove_edge(u, v));
                black_box(engine.insert_edge(u, v));
            });
        });
    }
    group.finish();
}

/// Shard-scaling: the K-shard engine on the identical edge-toggle
/// workload, with K=1 as the sharding-overhead baseline. This group
/// times the larger sizes (n ∈ {1000, 5000}); the snapshot's "sharding"
/// section re-measures the same workload generator at the CI sizes
/// (n ∈ {100, 1000}) and adds cross-shard handoff counts.
fn bench_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_sharding");
    for &n in &[1000usize, 5000] {
        let (g, edges) = toggle_workload(n);
        for &k in &SHARD_COUNTS {
            let name = format!("sharded_edge_toggle_k{k}");
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                let mut engine = dmis_core::Engine::builder()
                    .graph(g.clone())
                    .sharding(ShardLayout::striped(k))
                    .seed(42)
                    .build_sharded();
                let mut i = 0usize;
                b.iter(|| {
                    let (u, v) = edges[i % edges.len()];
                    i += 1;
                    black_box(engine.remove_edge(u, v).expect("valid"));
                    black_box(engine.insert_edge(u, v).expect("valid"));
                });
            });
        }
    }
    group.finish();
}

/// Batched-settle workload: `batch` distinct edges of ER(n, 8/n), to be
/// toggled off and back on through two `apply_batch` calls, so one
/// settle carries the whole batch's cascade.
fn batch_workload(n: usize, batch: usize) -> (dmis_graph::DynGraph, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let (g, _) = generators::erdos_renyi(n, 8.0 / n as f64, &mut rng);
    let mut rng = StdRng::seed_from_u64(11);
    let mut seen = std::collections::BTreeSet::new();
    let mut edges = Vec::with_capacity(batch);
    while edges.len() < batch {
        let (u, v) = generators::random_edge(&g, &mut rng).expect("has edges");
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            edges.push((u, v));
        }
    }
    (g, edges)
}

/// The ingestion queue on the flapping-stream workload: a 256-change
/// window pushed through `IngestRun` per iteration, swept over the
/// auto-flush watermark. Q=1 is unbatched per-change application; deeper
/// queues amortize settle passes and cancel opposing churn before any
/// settle work. The snapshot's `"ingest"` section re-measures this
/// workload and `tools/bench_gate.sh` checks the deep-queue coalesce
/// fraction (`BENCH_GATE_INGEST_MIN_COALESCE`).
fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_ingest");
    let n = 1000usize;
    let (g, edges) = toggle_workload(n);
    let pool: Vec<(NodeId, NodeId)> = edges.iter().copied().take(32).collect();
    let stream = flapping_stream(&g, &pool, 256);
    for &q in &[1usize, 16, 64] {
        let name = format!("ingest_flapping_q{q}");
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            let mut run = RunConfig::new(g.clone())
                .layout(ShardLayout::striped(4))
                .watermark(q)
                .seed(42)
                .ingest();
            b.iter(|| {
                for change in &stream {
                    black_box(run.push(change).expect("valid"));
                }
                black_box(run.flush().expect("valid"));
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_update_vs_recompute, bench_node_churn, bench_dense_vs_btree, bench_sharding, bench_ingest
}

/// Median wall-clock nanoseconds per toggle over `iters` toggles.
fn measure_toggle_ns(mut step: impl FnMut(), iters: usize, samples: usize) -> f64 {
    let mut per_sample: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                step();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_sample.sort_by(f64::total_cmp);
    per_sample[per_sample.len() / 2]
}

/// Per-sample **minima** of two step functions sampled interleaved
/// (a, b, a, b, …). Interleaving lands slow machine drift — thermal
/// throttling, noisy neighbors — on both sides equally, and the minimum
/// is the least-contended observation of each side, so scheduler noise
/// cancels out of the ratio instead of flipping its sign run to run
/// (medians were observed swinging a parity-true ratio between 0.80x
/// and 1.01x across identical full-fidelity runs on a busy host). Use
/// whenever the *ratio* of the two numbers is what downstream consumers
/// (the bench gate) act on.
fn measure_interleaved_ns(
    mut a: impl FnMut(),
    mut b: impl FnMut(),
    iters: usize,
    samples: usize,
) -> (f64, f64) {
    let mut a_ns = f64::MAX;
    let mut b_ns = f64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            a();
        }
        a_ns = a_ns.min(start.elapsed().as_nanos() as f64 / iters as f64);
        let start = Instant::now();
        for _ in 0..iters {
            b();
        }
        b_ns = b_ns.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    (a_ns, b_ns)
}

/// Median ns per edge toggle of any [`DynamicMis`] engine — the shared
/// metering loop behind the snapshot's dense and scale rows. One harness,
/// every engine flavor: the per-engine copies of this loop were deleted
/// when the unified API landed.
fn measure_engine_toggle_ns(
    engine: &mut dyn DynamicMis,
    edges: &[(NodeId, NodeId)],
    iters: usize,
    samples: usize,
) -> f64 {
    let mut i = 0usize;
    measure_toggle_ns(
        || {
            let (u, v) = edges[i % edges.len()];
            i += 1;
            black_box(engine.remove_edge(u, v).expect("valid"));
            black_box(engine.insert_edge(u, v).expect("valid"));
        },
        iters,
        samples,
    )
}

/// The bench's flapping workload: a **closed** toggle stream
/// ([`dmis_graph::stream::flapping_stream`]) over a bounded pool of
/// `g`'s own edges, so replaying it per bench iteration / snapshot
/// sample stays valid indefinitely.
fn flapping_stream(
    g: &dmis_graph::DynGraph,
    pool: &[(NodeId, NodeId)],
    len: usize,
) -> Vec<TopologyChange> {
    let mut rng = StdRng::seed_from_u64(29);
    dmis_graph::stream::flapping_stream(g, pool, len, true, &mut rng)
}

/// Resets the process's peak-RSS high-water mark (`VmHWM`) to the
/// current RSS, so each scale row's peak reading is its own and not a
/// leftover from an earlier, larger row. Linux-only; elsewhere the scale
/// rows report 0 bytes/node and the gate's memory check is vacuous.
fn reset_peak_rss() {
    #[cfg(target_os = "linux")]
    {
        // "5" is the documented clear_refs command for resetting VmHWM.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where that interface does not exist.
fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
    }
    0
}

/// Writes the dense-vs-BTree latency snapshot consumed by CI.
fn write_snapshot(test_mode: bool) {
    let (iters, samples) = if test_mode { (16, 3) } else { (512, 9) };
    let mut entries = Vec::new();
    // Snapshot covers the CI-sized prefix of the bench group's n sweep.
    for &n in &[100usize, 1000] {
        let (g, edges) = toggle_workload(n);

        let mut dense = Engine::builder().graph(g.clone()).seed(42).build();
        let dense_ns = measure_engine_toggle_ns(&mut *dense, &edges, iters, samples);

        let mut btree = BTreeMisEngine::from_graph(&g, 42);
        let mut j = 0usize;
        let btree_ns = measure_toggle_ns(
            || {
                let (u, v) = edges[j % edges.len()];
                j += 1;
                black_box(btree.remove_edge(u, v));
                black_box(btree.insert_edge(u, v));
            },
            iters,
            samples,
        );

        entries.push(format!(
            "  {{\"n\": {n}, \"dense_ns_per_toggle\": {dense_ns:.1}, \
             \"btree_ns_per_toggle\": {btree_ns:.1}, \"speedup\": {:.2}}}",
            btree_ns / dense_ns
        ));
    }
    // Shard-scaling section: per-update latency and cross-shard handoff
    // traffic for each K on the same toggle workload. tools/bench_gate.sh
    // fails CI when the n=1000 K=4 row drifts beyond
    // BENCH_GATE_SHARD_MAX_RATIO times the K=1 row: the price of the
    // epoch barrier and its handoffs on the paper's tiny-cascade case.
    let mut shard_entries = Vec::new();
    for &n in &[100usize, 1000] {
        let (g, edges) = toggle_workload(n);
        for &k in &SHARD_COUNTS {
            let mut engine = Engine::builder()
                .graph(g.clone())
                .seed(42)
                .sharding(ShardLayout::striped(k))
                .build();
            let mut i = 0usize;
            let mut handoffs = 0usize;
            let mut toggles = 0usize;
            let ns = measure_toggle_ns(
                || {
                    let (u, v) = edges[i % edges.len()];
                    i += 1;
                    let r1 = engine.remove_edge(u, v).expect("valid");
                    let r2 = engine.insert_edge(u, v).expect("valid");
                    handoffs += r1.cross_shard_handoffs() + r2.cross_shard_handoffs();
                    toggles += 1;
                    black_box(());
                },
                iters,
                samples,
            );
            shard_entries.push(format!(
                "  {{\"n\": {n}, \"shards\": {k}, \"ns_per_toggle\": {ns:.1}, \
                 \"handoffs_per_toggle\": {:.3}}}",
                handoffs as f64 / toggles as f64
            ));
        }
    }
    // Ingestion sweep: the flapping stream (bounded edge pool, so
    // windows revisit edges) through the coalescing queue at increasing
    // watermarks. ns_per_change prices the amortization win;
    // coalesce_fraction is the share of pushed changes the queue
    // eliminated before any settle work — the quantity the bench gate
    // checks at the deepest queue.
    let mut ingest_entries = Vec::new();
    {
        let n = 1000usize;
        let (g, edges) = toggle_workload(n);
        let pool: Vec<(NodeId, NodeId)> = edges.iter().copied().take(32).collect();
        let stream_len = if test_mode { 512 } else { 4096 };
        let stream = flapping_stream(&g, &pool, stream_len);
        for &q in &[1usize, 16, 64] {
            let mut run = RunConfig::new(g.clone())
                .layout(ShardLayout::striped(4))
                .watermark(q)
                .seed(42)
                .ingest();
            let mut per_sample: Vec<f64> = (0..samples)
                .map(|_| {
                    let start = Instant::now();
                    for change in &stream {
                        black_box(run.push(change).expect("valid"));
                    }
                    black_box(run.flush().expect("valid"));
                    start.elapsed().as_nanos() as f64 / stream.len() as f64
                })
                .collect();
            per_sample.sort_by(f64::total_cmp);
            let ns = per_sample[per_sample.len() / 2];
            let fraction = run.coalesced_changes() as f64 / run.pushed() as f64;
            ingest_entries.push(format!(
                "  {{\"n\": {n}, \"queue_depth\": {q}, \"ns_per_change\": {ns:.1}, \
                 \"coalesce_fraction\": {fraction:.3}, \"flushes\": {}, \
                 \"pushed\": {}}}",
                run.flushes(),
                run.pushed()
            ));
        }
    }
    // Flush-policy sweep: policy × adversarial-stream cells, fully
    // deterministic — a manual clock advanced one tick (1 ms) per push
    // times everything, so the coalesce fractions and delay percentiles
    // are pure functions of the streams and identical on every host.
    // "flapping" is the bounded-pool toggle stream (coalescing-friendly);
    // "trickle" is the fresh-pair anti-coalescing stream (no edge key
    // revisited, so batching buys delay and nothing else). The gate
    // checks that the adaptive smoother recovers the deep watermark's
    // coalescing win on flapping (BENCH_GATE_INGEST_ADAPTIVE_MIN_RATIO)
    // while beating depth-64's p99 queue delay on trickle
    // (BENCH_GATE_INGEST_P99_MAX_DELAY, in ticks).
    let mut policy_entries = Vec::new();
    {
        let n = 1000usize;
        let (g, edges) = toggle_workload(n);
        let ids: Vec<NodeId> = g.nodes().collect();
        let pool: Vec<(NodeId, NodeId)> = edges.iter().copied().take(32).collect();
        let stream_len = if test_mode { 512 } else { 4096 };
        let mut rng = StdRng::seed_from_u64(31);
        let trickle = dmis_graph::stream::fresh_pair_stream(&g, &ids, stream_len, &mut rng);
        let streams: &[(&str, Vec<TopologyChange>)] = &[
            ("flapping", flapping_stream(&g, &pool, stream_len)),
            ("trickle", trickle),
        ];
        let policies: &[(&str, FlushPolicy)] = &[
            ("depth:1", FlushPolicy::Depth(1)),
            ("depth:16", FlushPolicy::Depth(16)),
            ("depth:64", FlushPolicy::Depth(64)),
            ("adaptive", FlushPolicy::adaptive()),
        ];
        for (stream_name, stream) in streams {
            for (policy_name, policy) in policies {
                let clock = ManualClock::new();
                let mut run = RunConfig::new(g.clone())
                    .layout(ShardLayout::striped(4))
                    .policy(policy.clone())
                    .clock(std::sync::Arc::new(clock.clone()))
                    .seed(42)
                    .ingest();
                for change in stream {
                    run.push(change).expect("valid");
                    clock.advance(std::time::Duration::from_millis(1));
                }
                run.flush().expect("valid");
                let fraction = run.coalesced_changes() as f64 / run.pushed() as f64;
                policy_entries.push(format!(
                    "  {{\"n\": {n}, \"stream\": \"{stream_name}\", \
                     \"policy\": \"{policy_name}\", \
                     \"coalesce_fraction\": {fraction:.3}, \"flushes\": {}, \
                     \"pushed\": {}, \"delay_p50_ticks\": {}, \
                     \"delay_p99_ticks\": {}}}",
                    run.flushes(),
                    run.pushed(),
                    run.delay_p50().as_millis(),
                    run.delay_p99().as_millis()
                ));
            }
        }
    }
    // Scale-tier section: sustained edge-toggle churn on million-node-class
    // instances of the two families whose memory layout stresses diverge —
    // uniform-degree ER (G(n, m=4n)) and Chung–Lu with √n-degree hubs (the
    // chunked-adjacency regime). Each row prices one (n, family) cell:
    // ns/change at steady state, peak-RSS bytes/node for the whole
    // graph+engine working set (VmHWM delta around the row, reset between
    // rows), the engine's storage-regrow count across the measured
    // churn — pre-sized arenas make that exactly 0 — and
    // published_ns_per_change: the same churn on the same engine with a
    // `MisReader` held, so every toggle also publishes a snapshot. The
    // gate (tools/bench_gate.sh, BENCH_GATE_SCALE_*) holds both 10^5/10^6
    // figures to a fixed multiple of the family's n=4096 figure, which is
    // what catches a publish that copies O(n) words. Smoke mode stops at
    // 10^5; the committed snapshot (BENCH_SNAPSHOT_FULL) carries the 10^6
    // rows.
    let mut scale_entries = Vec::new();
    {
        let sizes: &[usize] = if test_mode {
            &[4096, 100_000]
        } else {
            &[4096, 100_000, 1_000_000]
        };
        for &n in sizes {
            for family in ["er", "chung_lu"] {
                reset_peak_rss();
                let rss_before = peak_rss_bytes();
                let mut rng = StdRng::seed_from_u64(n as u64);
                let (g, _) = match family {
                    "er" => generators::gnm(n, 4 * n, &mut rng),
                    _ => generators::chung_lu(n, 8.0, 2.5, &mut rng),
                };
                let edge_count = g.edge_count();
                let max_degree = g.max_degree();
                // Pre-sample the toggled edges from one O(m) edge scan —
                // per-call `random_edge` would put an O(m) sampler inside
                // the row setup 256 times over.
                let all: Vec<(NodeId, NodeId)> = g.edges().map(|k| k.endpoints()).collect();
                let mut rng = StdRng::seed_from_u64(7);
                let edges: Vec<(NodeId, NodeId)> = (0..256)
                    .map(|_| all[rng.random_range(0..all.len())])
                    .collect();
                drop(all);
                let mut engine = Engine::builder()
                    .graph(g)
                    .seed(42)
                    .capacity(n)
                    .build_unsharded();
                let regrows_before = engine.storage_regrows();
                let ns = measure_engine_toggle_ns(&mut engine, &edges, iters, samples);
                let regrows = engine.storage_regrows() - regrows_before;
                let peak = peak_rss_bytes().saturating_sub(rss_before);
                let bytes_per_node = peak as f64 / n as f64;
                let reader = engine.reader();
                let published_ns = measure_engine_toggle_ns(&mut engine, &edges, iters, samples);
                assert!(reader.epoch() > 0, "published engine actually published");
                engine.assert_internally_consistent_sampled(1024, n as u64);
                scale_entries.push(format!(
                    "  {{\"n\": {n}, \"family\": \"{family}\", \"edges\": {edge_count}, \
                     \"max_degree\": {max_degree}, \"ns_per_change\": {ns:.1}, \
                     \"published_ns_per_change\": {published_ns:.1}, \
                     \"bytes_per_node\": {bytes_per_node:.1}, \"churn_regrows\": {regrows}}}"
                ));
            }
        }
    }
    // Serve-tier section: the concurrent snapshot read path. The first
    // row prices what per-settle publication costs the writer — 64 edge
    // deletions settled in one `apply_batch`, then the 64 reinsertions,
    // on ER(4096, 8/n), run interleaved on a plain engine and on one
    // with its snapshot channel attached (a live `MisReader` held
    // through the measurement). One
    // settle publishes once, so the batch shape is the production shape;
    // `tools/bench_gate.sh` fails CI when the overhead ratio exceeds
    // BENCH_GATE_SERVE_MAX_OVERHEAD (default 1.10). The second row runs
    // the full `ServeRun` harness — writer flushing a flapping stream at
    // watermark 8 against R=2 reader threads — and records read
    // throughput, snapshot staleness, epoch regressions (always 0 unless
    // the channel is broken), and flush-latency percentiles.
    let mut serve_entries = Vec::new();
    {
        let n = 4096usize;
        let (g, bedges) = batch_workload(n, FRONT_BATCH);
        let deletes: Vec<TopologyChange> = bedges
            .iter()
            .map(|&(u, v)| TopologyChange::DeleteEdge(u, v))
            .collect();
        let inserts: Vec<TopologyChange> = bedges
            .iter()
            .map(|&(u, v)| TopologyChange::InsertEdge(u, v))
            .collect();
        let changes = 2 * FRONT_BATCH;
        let mut plain = dmis_core::Engine::builder()
            .graph(g.clone())
            .seed(42)
            .build_unsharded();
        let mut published = dmis_core::Engine::builder()
            .graph(g.clone())
            .seed(42)
            .build_unsharded();
        let reader = published.reader();
        let (plain_ns, published_ns) = measure_interleaved_ns(
            || {
                black_box(plain.apply_batch(&deletes).expect("valid"));
                black_box(plain.apply_batch(&inserts).expect("valid"));
            },
            || {
                black_box(published.apply_batch(&deletes).expect("valid"));
                black_box(published.apply_batch(&inserts).expect("valid"));
            },
            iters,
            samples,
        );
        assert!(reader.epoch() > 0, "published engine actually published");
        let (plain_ns, published_ns) = (plain_ns / changes as f64, published_ns / changes as f64);
        serve_entries.push(format!(
            "  {{\"n\": {n}, \"plain_ns_per_change\": {plain_ns:.1}, \
             \"published_ns_per_change\": {published_ns:.1}, \
             \"publish_overhead\": {:.3}}}",
            published_ns / plain_ns
        ));
    }
    {
        let n = 1000usize;
        let (g, edges) = toggle_workload(n);
        let pool: Vec<(NodeId, NodeId)> = edges.iter().copied().take(32).collect();
        let stream_len = if test_mode { 512 } else { 4096 };
        let stream = flapping_stream(&g, &pool, stream_len);
        let readers = 2usize;
        let mut run = RunConfig::new(g)
            .layout(ShardLayout::striped(4))
            .watermark(8)
            .seed(42)
            .readers(readers)
            .probes(32)
            .serve();
        let report = run.run(&stream).expect("valid serve run");
        serve_entries.push(format!(
            "  {{\"n\": {n}, \"readers\": {readers}, \"reads_per_sec\": {:.0}, \
             \"staleness_mean\": {:.3}, \"staleness_max\": {}, \
             \"epoch_regressions\": {}, \"update_p50_ns\": {}, \
             \"update_p99_ns\": {}, \"flushes\": {}}}",
            report.reads_per_sec,
            report.staleness_mean,
            report.staleness_max,
            report.epoch_regressions,
            report.update_p50_ns,
            report.update_p99_ns,
            report.flushes
        ));
    }
    // Recovery-tier section: what the durability layer costs. One run
    // streams C single-change windows through the log-then-publish path
    // (WAL append before every apply — the production write path), then
    // recovers from the resulting store with the two recovery phases
    // timed separately: `restore_ns` is checkpoint decode + engine
    // rebuild + witness check (O(n + m), paid once), and
    // `replay_ns_per_change` is the WAL scan + re-apply of the logged
    // suffix (O(touched) per change, same asymptotics as live ingest).
    // tools/bench_gate.sh holds `replay_ratio` (replayed ns/change over
    // live ns/change) under BENCH_GATE_RECOVERY_MAX_REPLAY_RATIO and the
    // checkpoint image's bytes/node under
    // BENCH_GATE_RECOVERY_MAX_BYTES_PER_NODE.
    let mut recovery_entries = Vec::new();
    {
        let n = 4096usize;
        let changes = 512usize;
        let rsamples = if test_mode { 2 } else { 3 };
        let (g, edges) = toggle_workload(n);
        let pool: Vec<(NodeId, NodeId)> = edges.iter().copied().take(32).collect();
        let stream = flapping_stream(&g, &pool, changes);
        let (mut live_ns, mut restore_ns, mut replay_ns) = (f64::MAX, f64::MAX, f64::MAX);
        let mut checkpoint_bytes = 0usize;
        for _ in 0..rsamples {
            let store = MemIo::new();
            let io: std::sync::Arc<dyn StorageIo> = std::sync::Arc::new(store);
            let mut engine = Engine::builder().graph(g.clone()).seed(42).build();
            Checkpoint::capture(&*engine, 0)
                .save(io.as_ref())
                .expect("mem io");
            let mut wal = WriteAheadLog::create(std::sync::Arc::clone(&io)).expect("mem io");
            let start = Instant::now();
            for change in &stream {
                let window = std::slice::from_ref(change);
                wal.append(window).expect("mem io");
                black_box(engine.apply_batch(window).expect("valid"));
            }
            live_ns = live_ns.min(start.elapsed().as_nanos() as f64 / changes as f64);
            checkpoint_bytes = Checkpoint::capture(&*engine, changes as u64).encode().len();

            let start = Instant::now();
            let image = Checkpoint::load(io.as_ref())
                .expect("mem io")
                .expect("saved");
            let mut recovered = image.restore().expect("valid image");
            restore_ns = restore_ns.min(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            let (_wal, records) = WriteAheadLog::open(std::sync::Arc::clone(&io)).expect("mem io");
            for record in &records {
                black_box(recovered.apply_batch(record.changes()).expect("valid"));
            }
            replay_ns = replay_ns.min(start.elapsed().as_nanos() as f64 / changes as f64);
            assert_eq!(recovered.mis(), engine.mis(), "recovery is bit-identical");
        }
        recovery_entries.push(format!(
            "  {{\"n\": {n}, \"changes\": {changes}, \
             \"live_ns_per_change\": {live_ns:.1}, \
             \"replay_ns_per_change\": {replay_ns:.1}, \
             \"replay_ratio\": {:.3}, \"restore_ns\": {restore_ns:.0}, \
             \"checkpoint_bytes\": {checkpoint_bytes}, \
             \"bytes_per_node\": {:.1}}}",
            replay_ns / live_ns,
            checkpoint_bytes as f64 / n as f64
        ));
    }
    let dir = std::env::var("BENCH_SNAPSHOT_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/BENCH_engine.json");
    let body = format!(
        "{{\"bench\": \"engine_updates\", \"workload\": \"er_random_edge_toggle\", \
         \"mode\": \"{}\", \"results\": [\n{}\n],\n \
         \"sharding\": [\n{}\n],\n \
         \"ingest\": [\n{}\n],\n \"ingest_policy\": [\n{}\n],\n \
         \"scale\": [\n{}\n],\n \"serve\": [\n{}\n],\n \"recovery\": [\n{}\n]}}\n",
        if test_mode { "smoke" } else { "full" },
        entries.join(",\n"),
        shard_entries.join(",\n"),
        ingest_entries.join(",\n"),
        policy_entries.join(",\n"),
        scale_entries.join(",\n"),
        serve_entries.join(",\n"),
        recovery_entries.join(",\n")
    );
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    benches();
    let test_mode = std::env::args().any(|a| a == "--test");
    // CI runs the criterion groups in smoke mode but still wants
    // full-fidelity snapshot numbers for the regression gate
    // (tools/bench_gate.sh compares against the committed snapshot, so
    // both sides must use the same iteration counts).
    let full_forced = std::env::var_os("BENCH_SNAPSHOT_FULL").is_some();
    write_snapshot(test_mode && !full_forced);
}
