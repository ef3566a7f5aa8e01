//! Parallel settle: the epoch coordinator on worker threads.
//!
//! The sharded engine's recovery is a sequence of **epochs** (see
//! [`crate::sharding`]): every dirty shard drains its front against a
//! frozen view of the others, then a barrier merges the buffered
//! handoffs. Shard runs within an epoch touch disjoint state — each run
//! mutates only its own `Shard` and reads the shared graph/π — so the
//! epoch is embarrassingly parallel *by construction*, and executing it
//! on 1, 2, or 64 threads cannot change a single bit of the outcome:
//! same flip log, same receipt counters, same MIS.
//!
//! [`ParallelShardedMisEngine`] exposes that freedom as an execution
//! knob. Per epoch, `execute_epoch` partitions the dirty shards over at
//! most `threads` scoped workers ([`std::thread::scope`]) and joins them
//! at the barrier; per-worker `SettleStats` are pure sums, so merging
//! them is order-independent. A **spawn threshold** keeps the paper's
//! common case fast: Theorem 1 makes single-change cascades tiny
//! (expected ≤ 1 flip), and spawning OS threads for three settle pops costs
//! orders of magnitude more than the pops — so epochs whose total pending
//! work is below the threshold drain inline on the calling thread.
//! Threads are harvested where the work actually is: batched recoveries
//! ([`crate::DynamicMis::apply_batch`]) that seed many shards at
//! once.
//!
//! Determinism does **not** rely on the threshold, the thread count, or
//! the scheduler: `crates/core/tests/sharded_equivalence.rs` drives the
//! three-way property suite (unsharded vs sequential-sharded vs parallel)
//! across K × threads with the threshold forced to zero, and the CI
//! `parallel-determinism` matrix re-runs it under `DMIS_PAR_THREADS`
//! ∈ {1, 2, 8}.

use dmis_graph::ShardLayout;

use crate::sharding::{run_shard_epoch, SettleCtx, SettleStats, Shard};
use crate::ShardedMisEngine;

/// Executes one settle epoch over `shards`: every shard with pending
/// dirty work is drained to local completion via
/// [`run_shard_epoch`] (a frozen-view drain of the shard's rank front).
/// With `threads > 1`, enough independent dirty shards, and at least
/// `spawn_threshold` pending dirty entries, the drains run on scoped
/// worker threads; otherwise inline, in shard-index order. Both paths
/// compute the identical result — shard runs share no mutable state and
/// the accumulated [`SettleStats`] are order-free sums.
pub(crate) fn execute_epoch(
    ctx: SettleCtx<'_>,
    shards: &mut [Shard],
    threads: usize,
    spawn_threshold: usize,
    stats: &mut SettleStats,
) {
    let active = shards.iter().filter(|sh| sh.pending() > 0).count();
    let pending: usize = shards.iter().map(Shard::pending).sum();
    if threads <= 1 || active < 2 || pending < spawn_threshold {
        for (s, shard) in shards.iter_mut().enumerate() {
            if shard.pending() > 0 {
                run_shard_epoch(ctx, s, shard, stats);
            }
        }
        return;
    }
    let mut jobs: Vec<(usize, &mut Shard)> = shards
        .iter_mut()
        .enumerate()
        .filter(|(_, sh)| sh.pending() > 0)
        .collect();
    let workers = threads.min(jobs.len());
    let chunk = jobs.len().div_ceil(workers);
    let worker_stats = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks_mut(chunk)
            .map(|batch| {
                scope.spawn(move || {
                    let mut local = SettleStats::default();
                    for (s, shard) in batch.iter_mut() {
                        run_shard_epoch(ctx, *s, shard, &mut local);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect::<Vec<_>>()
    });
    for local in worker_stats {
        stats.absorb(local);
    }
}

/// [`ShardedMisEngine`] with the epoch executor running on worker
/// threads — deterministically.
///
/// Construction mirrors the sequential engine with one extra `threads`
/// axis ([`crate::EngineBuilder::build_parallel`], or
/// [`Self::from_engine`] on a built sequential engine). Every operation delegates to the wrapped [`ShardedMisEngine`];
/// the only difference is *who executes* an epoch's independent shard
/// runs, never *what* they compute, so the MIS, the flip log, and every
/// receipt counter are bit-identical to the sequential engine for every
/// [`ShardLayout`], thread count, and spawn threshold. The type is `Send`
/// (pinned by a compile-time assertion in `crates/core/tests/`), so whole
/// engines can migrate across threads too.
///
/// Single-change cascades are tiny (Theorem 1), so by default threads
/// only engage when an epoch has at least
/// [`Self::spawn_threshold`] pending dirty nodes — batched recoveries,
/// not single toggles. Lower the threshold (tests use 0) to force the
/// threaded path.
///
/// # Example
///
/// ```
/// use dmis_core::{DynamicMis, Engine};
/// use dmis_graph::{generators, ShardLayout};
///
/// let (g, ids) = generators::cycle(12);
/// let layout = ShardLayout::striped(4);
/// let mut sequential = Engine::builder().graph(g.clone()).sharding(layout).seed(9).build_sharded();
/// let mut parallel = Engine::builder().graph(g).sharding(layout).threads(4).seed(9).build_parallel();
/// parallel.set_spawn_threshold(0); // force worker threads even on tiny cascades
///
/// let r_seq = sequential.remove_edge(ids[0], ids[1])?;
/// let r_par = parallel.remove_edge(ids[0], ids[1])?;
/// assert_eq!(r_par, r_seq, "receipts are bit-identical");
/// assert_eq!(parallel.mis(), sequential.mis());
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelShardedMisEngine {
    inner: ShardedMisEngine,
}

impl ParallelShardedMisEngine {
    /// Promotes a sequential engine to parallel execution in place — the
    /// state is reused verbatim, so outputs continue bit-for-bit.
    #[must_use]
    pub fn from_engine(mut inner: ShardedMisEngine, threads: usize) -> Self {
        let (_, threshold) = inner.execution();
        inner.set_execution(threads, threshold);
        ParallelShardedMisEngine { inner }
    }

    /// Demotes back to the sequential engine (threads reset to 1).
    #[must_use]
    pub fn into_engine(mut self) -> ShardedMisEngine {
        let (_, threshold) = self.inner.execution();
        self.inner.set_execution(1, threshold);
        self.inner
    }

    /// Worker threads used per epoch (≥ 1; 1 means inline execution).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.inner.execution().0
    }

    /// Reconfigures the worker-thread count. Purely an execution knob:
    /// outputs and receipts are unchanged for any value.
    pub fn set_threads(&mut self, threads: usize) {
        let (_, threshold) = self.inner.execution();
        self.inner.set_execution(threads, threshold);
    }

    /// Pending-work floor (total dirty-front entries in an epoch) below
    /// which the epoch drains inline even when threads are configured.
    #[must_use]
    pub fn spawn_threshold(&self) -> usize {
        self.inner.execution().1
    }

    /// Reconfigures the spawn threshold. Purely an execution knob: any
    /// value — including 0, which forces threads whenever two shards are
    /// dirty — yields bit-identical outputs and receipts.
    pub fn set_spawn_threshold(&mut self, threshold: usize) {
        let (threads, _) = self.inner.execution();
        self.inner.set_execution(threads, threshold);
    }

    /// The wrapped sequential engine (read-only).
    #[must_use]
    pub fn engine(&self) -> &ShardedMisEngine {
        &self.inner
    }

    /// Pre-sizes every per-node structure for `n` nodes; see
    /// [`ShardedMisEngine::reserve_nodes`].
    pub fn reserve_nodes(&mut self, n: usize) {
        self.inner.reserve_nodes(n);
    }

    /// Total per-node structure reallocations since construction; see
    /// [`ShardedMisEngine::storage_regrows`].
    #[must_use]
    pub fn storage_regrows(&self) -> u64 {
        self.inner.storage_regrows()
    }

    /// Returns the shard layout.
    #[must_use]
    pub fn layout(&self) -> ShardLayout {
        self.inner.layout()
    }

    /// Number of shards K.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
}

// The whole update/query surface — formerly ~20 hand-copied delegation
// bodies — forwards to the wrapped sequential engine through the shared
// `DynamicMis` macro; only the execution knobs above are parallel-specific.
crate::api::forward_dynamic_mis!(ParallelShardedMisEngine, |s| s.inner);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchReceipt, DynamicMis};
    use dmis_graph::generators;
    use dmis_graph::stream::{self, ChurnConfig};
    use dmis_graph::{NodeId, TopologyChange};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_engine_reports_configuration() {
        let mut engine = crate::Engine::builder()
            .sharding(ShardLayout::striped(4))
            .threads(0)
            .seed(0)
            .build_parallel();
        assert_eq!(engine.threads(), 1, "thread count is clamped to ≥ 1");
        assert_eq!(engine.shard_count(), 4);
        assert!(engine.mis().is_empty());
        assert_eq!(engine.mis_len(), 0);
        engine.set_threads(8);
        assert_eq!(engine.threads(), 8);
        engine.set_spawn_threshold(0);
        assert_eq!(engine.spawn_threshold(), 0);
    }

    #[test]
    fn promote_demote_round_trip_preserves_state() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, _) = generators::erdos_renyi(30, 0.2, &mut rng);
        let sequential = crate::Engine::builder()
            .graph(g)
            .sharding(ShardLayout::striped(3))
            .seed(5)
            .build_sharded();
        let mis = sequential.mis();
        let parallel = ParallelShardedMisEngine::from_engine(sequential, 4);
        assert_eq!(parallel.mis(), mis);
        let back = parallel.into_engine();
        assert_eq!(back.mis(), mis);
        assert_eq!(back.execution().0, 1, "demotion resets to inline");
    }

    #[test]
    fn threaded_churn_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(17);
        let (g, _) = generators::erdos_renyi(40, 0.15, &mut rng);
        let mut sequential = crate::Engine::builder()
            .graph(g.clone())
            .sharding(ShardLayout::striped(4))
            .seed(8)
            .build_sharded();
        let mut parallel = crate::Engine::builder()
            .graph(g)
            .sharding(ShardLayout::striped(4))
            .threads(4)
            .seed(8)
            .build_parallel();
        parallel.set_spawn_threshold(0);
        for _ in 0..150 {
            let Some(change) =
                stream::random_change(sequential.graph(), &ChurnConfig::default(), &mut rng)
            else {
                continue;
            };
            let r_seq = sequential.apply(&change).unwrap();
            let r_par = parallel.apply(&change).unwrap();
            assert_eq!(r_par, r_seq, "receipts diverged");
        }
        assert_eq!(parallel.mis(), sequential.mis());
        parallel.assert_internally_consistent();
    }

    #[test]
    fn spawn_threshold_never_changes_outputs() {
        // The same batch on thresholds 0 (always spawn), 4, and usize::MAX
        // (never spawn): bit-identical receipts.
        let (g, ids) = generators::star(13);
        let pm = crate::PriorityMap::from_order(&ids);
        let batch = vec![TopologyChange::DeleteNode(ids[0])];
        let mut receipts = Vec::new();
        for threshold in [0usize, 4, usize::MAX] {
            let mut engine = crate::Engine::builder()
                .graph(g.clone())
                .priorities(pm.clone())
                .sharding(ShardLayout::striped(4))
                .threads(3)
                .seed(0)
                .build_parallel();
            engine.set_spawn_threshold(threshold);
            receipts.push(engine.apply_batch(&batch).unwrap());
            engine.assert_internally_consistent();
        }
        assert_eq!(receipts[0], receipts[1]);
        assert_eq!(receipts[1], receipts[2]);
    }

    #[test]
    fn thread_counts_agree_on_batches() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, _) = generators::erdos_renyi(25, 0.2, &mut rng);
            let mut shadow = g.clone();
            let mut batch = Vec::new();
            for _ in 0..10 {
                if let Some(change) =
                    stream::random_change(&shadow, &ChurnConfig::default(), &mut rng)
                {
                    change.apply(&mut shadow).unwrap();
                    batch.push(change);
                }
            }
            let mut reference: Option<BatchReceipt> = None;
            for threads in [1usize, 2, 4, 7] {
                let mut engine = crate::Engine::builder()
                    .graph(g.clone())
                    .sharding(ShardLayout::striped(4))
                    .threads(threads)
                    .seed(seed)
                    .build_parallel();
                engine.set_spawn_threshold(0);
                let receipt = engine.apply_batch(&batch).unwrap();
                if let Some(expected) = &reference {
                    assert_eq!(&receipt, expected, "threads={threads} seed={seed}");
                } else {
                    reference = Some(receipt);
                }
                engine.assert_internally_consistent();
            }
        }
    }

    #[test]
    fn errors_propagate_and_leave_engine_untouched() {
        let (g, ids) = generators::path(3);
        let mut engine = crate::Engine::builder()
            .graph(g)
            .sharding(ShardLayout::striped(2))
            .threads(2)
            .seed(0)
            .build_parallel();
        let snapshot = engine.mis();
        assert!(engine.insert_edge(ids[0], ids[1]).is_err());
        assert!(engine.remove_edge(ids[0], ids[2]).is_err());
        assert!(engine.remove_node(NodeId(50)).is_err());
        assert_eq!(engine.mis(), snapshot);
        engine.assert_internally_consistent();
    }
}
