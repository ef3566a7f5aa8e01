//! Ingestion harness: queue depth as a simulator axis.
//!
//! [`IngestRun`] wires `dmis-core`'s change-ingestion session
//! ([`dmis_core::IngestSession`]) into the simulator's metering
//! vocabulary: the adversary's change stream is pushed into a coalescing
//! queue and settled one merged batch per **flush** — the window
//! boundaries chosen by any [`dmis_core::FlushPolicy`] — so the run
//! meters the ROADMAP's async-batching trade-off end to end —
//!
//! - **rounds** — settle epochs of the flushed recoveries (synchronous
//!   rounds, amortized over the whole window);
//! - **broadcasts** — cross-shard handoffs of the flushed recoveries;
//! - **bits** — handoff payload, as in [`crate::ShardedRun`];
//! - **coalesced changes** — stream entries the queue eliminated before
//!   any settle work happened (opposing-pair cancels, duplicate merges);
//! - **queue delay** — the latency price of batching, in both
//!   clock-free pushes-waited units ([`IngestRun::mean_queue_delay`])
//!   and session-clock wall time ([`IngestRun::delay_p50`] /
//!   [`IngestRun::delay_p99`] — the SLO columns the bench gate bounds).
//!
//! The harness is generic over the engine: it drives a boxed
//! [`DynamicMis`], so the same run works unsharded or sharded —
//! experiment E12's queue-depth table sweeps the
//! watermark against a K-sharded engine built through
//! [`crate::RunConfig`].

use std::collections::BTreeSet;
use std::time::Duration;

use dmis_core::{DynamicMis, IngestReceipt, IngestSession};
use dmis_graph::{GraphError, NodeId, TopologyChange};

use crate::metrics::{ChangeOutcome, Metrics};

/// A metered ingestion deployment: a coalescing change queue in front of
/// any [`DynamicMis`] engine, auto-flushed by a
/// [`dmis_core::FlushPolicy`]. Boot one through
/// [`crate::RunConfig::ingest`].
///
/// # Example
///
/// ```
/// use dmis_core::FlushPolicy;
/// use dmis_graph::{generators, ShardLayout, TopologyChange};
/// use dmis_sim::RunConfig;
///
/// let (g, ids) = generators::cycle(10);
/// let mut run = RunConfig::new(g)
///     .layout(ShardLayout::striped(4))
///     .policy(FlushPolicy::Depth(2))
///     .seed(3)
///     .ingest();
/// // First push queues; the second reaches the watermark and flushes.
/// assert!(run.push(&TopologyChange::DeleteEdge(ids[0], ids[1]))?.is_none());
/// let outcome = run.push(&TopologyChange::DeleteEdge(ids[5], ids[6]))?;
/// assert!(outcome.is_some(), "watermark 2 flushed the window");
/// assert_eq!(run.flushes(), 1);
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct IngestRun {
    session: IngestSession<Box<dyn DynamicMis + Send>>,
    lifetime: Metrics,
    flushes: usize,
    pushed_total: usize,
    coalesced_total: usize,
    applied_total: usize,
    /// Σ over flushed changes of their wait (changes that entered the
    /// queue after them within the same window): the total queueing
    /// delay, in change-arrivals, batching imposed.
    queue_delay_total: usize,
    /// Every flushed push's arrival→flush wait on the session clock, in
    /// flush order. Unsorted: appending is O(1) per push, and the
    /// percentile SLO columns select their rank only when read.
    clock_delays: Vec<Duration>,
}

impl IngestRun {
    /// Wraps a change-ingestion session. The engine may be any
    /// [`DynamicMis`] flavor; metrics sections that are
    /// sharding-specific (broadcasts, rounds) read zero on the unsharded
    /// engine.
    #[must_use]
    pub fn from_session(session: IngestSession<Box<dyn DynamicMis + Send>>) -> Self {
        IngestRun {
            session,
            lifetime: Metrics::new(),
            flushes: 0,
            pushed_total: 0,
            coalesced_total: 0,
            applied_total: 0,
            queue_delay_total: 0,
            clock_delays: Vec::new(),
        }
    }

    /// The underlying engine. Queued changes are not visible in it until
    /// a flush.
    #[must_use]
    pub fn engine(&self) -> &dyn DynamicMis {
        &**self.session.engine()
    }

    /// The depth watermark in force, if the flush policy has one (the
    /// smoother's current choice for an adaptive policy).
    #[must_use]
    pub fn watermark(&self) -> Option<usize> {
        self.session.watermark()
    }

    /// Current (coalesced) queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.session.queue_depth()
    }

    /// Windows flushed so far.
    #[must_use]
    pub fn flushes(&self) -> usize {
        self.flushes
    }

    /// Changes pushed so far (including still-queued and coalesced-away
    /// ones).
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed_total
    }

    /// Changes the queue eliminated before any settle work.
    #[must_use]
    pub fn coalesced_changes(&self) -> usize {
        self.coalesced_total
    }

    /// Changes applied by flushed windows.
    #[must_use]
    pub fn applied(&self) -> usize {
        self.applied_total
    }

    /// Mean queueing delay per flushed change, in change-arrivals: 0 for
    /// watermark 1 (every change settles immediately), approaching
    /// (watermark − 1)/2 as windows fill — the latency half of the
    /// trade-off.
    #[must_use]
    pub fn mean_queue_delay(&self) -> f64 {
        if self.applied_total + self.coalesced_total == 0 {
            return 0.0;
        }
        self.queue_delay_total as f64 / (self.applied_total + self.coalesced_total) as f64
    }

    /// Median arrival→flush wait over every flushed push, on the
    /// session clock (deterministic under a manual clock).
    #[must_use]
    pub fn delay_p50(&self) -> Duration {
        percentile(&self.clock_delays, 50)
    }

    /// 99th-percentile arrival→flush wait over every flushed push — the
    /// tail-latency SLO column the bench gate bounds.
    #[must_use]
    pub fn delay_p99(&self) -> Duration {
        percentile(&self.clock_delays, 99)
    }

    /// Size of the current MIS without allocating a set.
    #[must_use]
    pub fn mis_len(&self) -> usize {
        self.engine().mis_len()
    }

    /// The current MIS.
    #[must_use]
    pub fn mis(&self) -> BTreeSet<NodeId> {
        self.engine().mis()
    }

    /// Metrics accumulated over every flushed recovery so far.
    #[must_use]
    pub fn lifetime_metrics(&self) -> Metrics {
        self.lifetime
    }

    /// Bits per handoff message, as in [`crate::ShardedRun`].
    fn handoff_bits(&self) -> usize {
        let ids = self.engine().graph().peek_next_id().index().max(1);
        1 + (64 - ids.leading_zeros() as usize)
    }

    /// Pushes one change into the queue; the session flushes when its
    /// policy trips (depth watermark reached, or the oldest queued
    /// change hit the deadline), and the flush's outcome is returned
    /// when one happened.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from an auto-flush; the queue is
    /// consumed as by [`Self::flush`].
    pub fn push(&mut self, change: &TopologyChange) -> Result<Option<ChangeOutcome>, GraphError> {
        self.pushed_total += 1;
        match self.session.push(change.clone())? {
            Some(receipt) => Ok(Some(self.meter(&receipt))),
            None => Ok(None),
        }
    }

    /// Re-evaluates the flush policy against the session clock without
    /// pushing — how deadline-bearing policies fire between pushes.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] exactly as [`Self::flush`] does.
    pub fn poll(&mut self) -> Result<Option<ChangeOutcome>, GraphError> {
        match self.session.poll()? {
            Some(receipt) => Ok(Some(self.meter(&receipt))),
            None => Ok(None),
        }
    }

    /// Flushes the queued window as one merged recovery and meters it.
    /// Flushing an empty queue is a metered no-op recovery.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GraphError`]. The queue is consumed either
    /// way; an errored window is dropped from the lifetime metering (the
    /// engine keeps the valid prefix applied, but no receipt exists to
    /// meter it), so `pushed()` can exceed
    /// `applied() + coalesced_changes() + queue_depth()` after an error.
    pub fn flush(&mut self) -> Result<ChangeOutcome, GraphError> {
        let receipt = self.session.flush()?;
        Ok(self.meter(&receipt))
    }

    /// Folds one flush's [`IngestReceipt`] into the lifetime accounting.
    fn meter(&mut self, receipt: &IngestReceipt) -> ChangeOutcome {
        let window = receipt.pushed();
        self.flushes += 1;
        self.coalesced_total += receipt.coalesced_changes();
        self.applied_total += receipt.applied();
        // Each of the window's changes waited for the ones arriving after
        // it: total delay of a w-change window is w(w−1)/2 arrivals.
        self.queue_delay_total += window * window.saturating_sub(1) / 2;
        self.clock_delays
            .extend_from_slice(receipt.queue_delay().waits());
        let handoffs = receipt.batch().cross_shard_handoffs();
        let metrics = Metrics {
            rounds: receipt.batch().settle_epochs(),
            broadcasts: handoffs,
            bits: handoffs * self.handoff_bits(),
        };
        self.lifetime += metrics;
        ChangeOutcome {
            metrics,
            adjusted: receipt.batch().adjusted_nodes(),
        }
    }
}

/// Nearest-rank percentile of an unsorted slice, selected in O(len) on
/// a copy; zero when empty.
fn percentile(delays: &[Duration], p: usize) -> Duration {
    if delays.is_empty() {
        return Duration::ZERO;
    }
    let mut scratch = delays.to_vec();
    *scratch.select_nth_unstable((delays.len() - 1) * p / 100).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunConfig;
    use dmis_core::FlushPolicy;
    use dmis_graph::{generators, ShardLayout};

    #[test]
    fn watermark_one_matches_per_change_sharded_run() {
        let (g, ids) = generators::cycle(12);
        let mut run = RunConfig::new(g.clone())
            .layout(ShardLayout::striped(4))
            .policy(FlushPolicy::Depth(1))
            .seed(7)
            .ingest();
        let mut reference = crate::ShardedRun::bootstrap(g, ShardLayout::striped(4), 7);
        for w in ids.windows(2).take(6) {
            let change = TopologyChange::DeleteEdge(w[0], w[1]);
            let outcome = run.push(&change).unwrap().expect("watermark 1 flushes");
            let expected = reference.apply_change(&change).unwrap();
            assert_eq!(outcome.adjusted, expected.adjusted);
            assert_eq!(outcome.metrics.broadcasts, expected.metrics.broadcasts);
        }
        assert_eq!(run.flushes(), 6);
        assert_eq!(run.coalesced_changes(), 0);
        assert!(run.mean_queue_delay().abs() < f64::EPSILON);
        assert_eq!(run.mis(), reference.mis());
    }

    #[test]
    fn opposing_pairs_cancel_inside_the_window() {
        let (g, ids) = generators::cycle(10);
        let mut run = RunConfig::new(g)
            .layout(ShardLayout::striped(2))
            .policy(FlushPolicy::Depth(4))
            .seed(5)
            .ingest();
        let before = run.mis_len();
        assert!(run
            .push(&TopologyChange::DeleteEdge(ids[0], ids[1]))
            .unwrap()
            .is_none());
        assert!(run
            .push(&TopologyChange::InsertEdge(ids[0], ids[1]))
            .unwrap()
            .is_none());
        assert_eq!(run.queue_depth(), 0, "pair cancelled");
        let outcome = run.flush().unwrap();
        assert!(outcome.adjusted.is_empty());
        assert_eq!(outcome.metrics.rounds, 0, "zero settle work");
        assert_eq!(run.coalesced_changes(), 2);
        assert_eq!(run.mis_len(), before);
    }

    #[test]
    fn deeper_queues_trade_latency_for_fewer_flushes() {
        let run_with = |watermark: usize| {
            let (g, ids) = generators::cycle(16);
            let mut run = RunConfig::new(g)
                .layout(ShardLayout::striped(4))
                .policy(FlushPolicy::Depth(watermark))
                .seed(9)
                .ingest();
            // Toggle a rotating edge: off, on, off, on, … so deep windows
            // cancel churn outright.
            for i in 0..24usize {
                let (u, v) = (ids[i % 16], ids[(i + 1) % 16]);
                run.push(&TopologyChange::DeleteEdge(u, v)).unwrap();
                run.push(&TopologyChange::InsertEdge(u, v)).unwrap();
            }
            run.flush().unwrap();
            (
                run.flushes(),
                run.coalesced_changes(),
                run.mean_queue_delay(),
                run.mis(),
            )
        };
        let (f1, c1, d1, mis1) = run_with(1);
        let (f8, c8, d8, mis8) = run_with(8);
        assert_eq!(mis1, mis8, "outputs are watermark-independent");
        assert!(f8 < f1, "deeper queue flushes less often ({f8} !< {f1})");
        assert!(c8 > c1, "deeper queue cancels more churn ({c8} !> {c1})");
        assert!(d8 > d1, "latency is the price ({d8} !> {d1})");
    }

    #[test]
    fn manual_clock_makes_delay_percentiles_exact() {
        use dmis_core::ManualClock;
        use std::sync::Arc;
        use std::time::Duration;

        let (g, ids) = generators::cycle(8);
        let clock = ManualClock::new();
        let mut run = RunConfig::new(g)
            .policy(FlushPolicy::Depth(4))
            .clock(Arc::new(clock.clone()))
            .seed(2)
            .ingest();
        // One push per tick: at the watermark-4 flush the four arrivals
        // have waited 3, 2, 1, 0 ticks. Nearest-rank over 4 samples puts
        // p99 at index (4−1)·99/100 = 2 and p50 at index 1.
        for i in 0..4usize {
            let (u, v) = (ids[i], ids[i + 1]);
            run.push(&TopologyChange::DeleteEdge(u, v)).unwrap();
            clock.advance(Duration::from_millis(1));
        }
        assert_eq!(run.flushes(), 1);
        assert_eq!(run.delay_p99(), Duration::from_millis(2));
        assert_eq!(run.delay_p50(), Duration::from_millis(1));
    }

    #[test]
    fn adaptive_policy_reports_its_moving_watermark() {
        let (g, ids) = generators::cycle(16);
        let mut run = RunConfig::new(g)
            .policy(FlushPolicy::adaptive())
            .seed(4)
            .ingest();
        let before = run.watermark().expect("adaptive policy has a depth");
        // Anti-coalescing trickle: fresh edge deletions, no key reuse.
        for w in ids.windows(2) {
            run.push(&TopologyChange::DeleteEdge(w[0], w[1])).unwrap();
        }
        run.flush().unwrap();
        let after = run.watermark().expect("adaptive policy has a depth");
        assert!(
            after < before,
            "uncoalescible stream shallows the smoother ({after} !< {before})"
        );
    }
}
