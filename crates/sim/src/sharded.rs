//! Sharded-engine harness: shard count as a simulator axis.
//!
//! The broadcast networks in this crate simulate the paper's *per-node*
//! distributed model. [`ShardedRun`] covers the complementary deployment
//! the ROADMAP targets: `K` engine shards (think: cores or machines)
//! cooperating through cross-shard handoffs, as implemented by
//! [`dmis_core::MisEngine`]'s sharded settle schedule
//! ([`dmis_core::sharding`]). The harness translates every receipt
//! into the simulator's [`Metrics`] vocabulary so experiments can sweep
//! shard counts exactly like they sweep graph families:
//!
//! - **rounds** — barrier-synchronized settle epochs until global
//!   quiescence (a shard acts on what the previous barrier delivered, as
//!   a node acts on the previous round's messages);
//! - **broadcasts** — cross-shard handoff messages;
//! - **bits** — handoff payload, one node identifier plus one counter
//!   delta per message.

use std::collections::BTreeSet;

use dmis_core::{DynamicMis, MisEngine};
use dmis_graph::{DynGraph, GraphError, NodeId, ShardLayout, TopologyChange};

use crate::metrics::{ChangeOutcome, Metrics};

/// A dynamic execution of an engine on a [`ShardLayout`], with
/// per-change and lifetime [`Metrics`] in simulator terms.
///
/// # Example
///
/// ```
/// use dmis_graph::{generators, ShardLayout, TopologyChange};
/// use dmis_sim::ShardedRun;
///
/// let (g, ids) = generators::cycle(10);
/// let mut run = ShardedRun::bootstrap(g, ShardLayout::striped(4), 3);
/// let outcome = run.apply_change(&TopologyChange::DeleteEdge(ids[0], ids[1]))?;
/// println!(
///     "{} adjustments, {}",
///     outcome.adjustments(),
///     outcome.metrics
/// );
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedRun {
    engine: MisEngine,
    lifetime: Metrics,
}

impl ShardedRun {
    /// Boots an engine on `layout` over `graph` (drawing priorities from
    /// `seed`) and starts metering.
    #[must_use]
    pub fn bootstrap(graph: DynGraph, layout: ShardLayout, seed: u64) -> Self {
        ShardedRun {
            engine: dmis_core::Engine::builder()
                .graph(graph)
                .sharding(layout)
                .seed(seed)
                .build_sharded(),
            lifetime: Metrics::new(),
        }
    }

    /// The underlying engine.
    #[must_use]
    pub fn engine(&self) -> &MisEngine {
        &self.engine
    }

    /// The current MIS.
    #[must_use]
    pub fn mis(&self) -> BTreeSet<NodeId> {
        self.engine.mis()
    }

    /// Size of the current MIS without allocating a set — the
    /// per-tick measurement the experiments poll.
    #[must_use]
    pub fn mis_len(&self) -> usize {
        self.engine.mis_len()
    }

    /// Metrics accumulated over every change applied so far.
    #[must_use]
    pub fn lifetime_metrics(&self) -> Metrics {
        self.lifetime
    }

    /// Bits per handoff message: one node identifier (the paper's
    /// `O(log n)` word) plus one counter-delta bit.
    fn handoff_bits(&self) -> usize {
        let ids = self.engine.graph().peek_next_id().index().max(1);
        1 + (64 - ids.leading_zeros() as usize)
    }

    fn outcome(
        &mut self,
        adjusted: BTreeSet<NodeId>,
        epochs: usize,
        handoffs: usize,
    ) -> ChangeOutcome {
        let metrics = Metrics {
            rounds: epochs,
            broadcasts: handoffs,
            bits: handoffs * self.handoff_bits(),
        };
        self.lifetime += metrics;
        ChangeOutcome { metrics, adjusted }
    }

    /// Applies one topology change and meters its recovery.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the engine; on error nothing is
    /// metered.
    pub fn apply_change(&mut self, change: &TopologyChange) -> Result<ChangeOutcome, GraphError> {
        let receipt = self.engine.apply(change)?;
        Ok(self.outcome(
            receipt.adjusted_nodes(),
            receipt.settle_epochs(),
            receipt.cross_shard_handoffs(),
        ))
    }

    /// Applies a batch of changes as one coordinated recovery and meters
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GraphError`]. Nothing is metered then, but
    /// the changes before the failing one stay applied: the engine
    /// settles that prefix and drops its receipt (see
    /// [`DynamicMis::apply_batch`]).
    pub fn apply_batch(&mut self, changes: &[TopologyChange]) -> Result<ChangeOutcome, GraphError> {
        let receipt = self.engine.apply_batch(changes)?;
        Ok(self.outcome(
            receipt.adjusted_nodes(),
            receipt.settle_epochs(),
            receipt.cross_shard_handoffs(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmis_graph::generators;
    use dmis_graph::stream::{self, ChurnConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn meters_accumulate_over_changes() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = generators::erdos_renyi(30, 0.2, &mut rng);
        let mut run = ShardedRun::bootstrap(g, ShardLayout::striped(4), 9);
        let mut total_broadcasts = 0;
        for _ in 0..50 {
            let Some(change) =
                stream::random_change(run.engine().graph(), &ChurnConfig::default(), &mut rng)
            else {
                continue;
            };
            let outcome = run.apply_change(&change).unwrap();
            total_broadcasts += outcome.metrics.broadcasts;
            assert!(outcome.metrics.bits >= outcome.metrics.broadcasts);
        }
        assert_eq!(run.lifetime_metrics().broadcasts, total_broadcasts);
        run.engine().assert_internally_consistent();
    }

    #[test]
    fn single_shard_run_broadcasts_nothing() {
        let (g, ids) = generators::cycle(8);
        let mut run = ShardedRun::bootstrap(g, ShardLayout::single(), 2);
        let outcome = run
            .apply_change(&TopologyChange::DeleteEdge(ids[0], ids[1]))
            .unwrap();
        assert_eq!(outcome.metrics.broadcasts, 0);
        assert_eq!(run.lifetime_metrics().bits, 0);
    }

    #[test]
    fn batch_outcome_is_one_recovery() {
        let (g, ids) = generators::cycle(9);
        let mut run = ShardedRun::bootstrap(g, ShardLayout::striped(3), 5);
        let before = run.mis();
        let outcome = run
            .apply_batch(&[
                TopologyChange::DeleteEdge(ids[0], ids[1]),
                TopologyChange::DeleteEdge(ids[4], ids[5]),
            ])
            .unwrap();
        let diff: BTreeSet<NodeId> = before.symmetric_difference(&run.mis()).copied().collect();
        assert_eq!(outcome.adjusted, diff, "one merged recovery, net flips");
        run.engine().assert_internally_consistent();
    }

    #[test]
    fn a_failed_batch_meters_nothing_and_keeps_its_prefix() {
        let (g, ids) = generators::cycle(8);
        let mut run = ShardedRun::bootstrap(g, ShardLayout::striped(2), 6);
        run.apply_change(&TopologyChange::DeleteEdge(ids[2], ids[3]))
            .unwrap();
        let before = run.lifetime_metrics();
        let result = run.apply_batch(&[
            TopologyChange::DeleteEdge(ids[0], ids[1]),
            TopologyChange::DeleteEdge(ids[2], ids[3]),
        ]);
        assert!(result.is_err(), "the second edge is already gone");
        assert_eq!(run.lifetime_metrics(), before, "nothing is metered");
        assert!(
            !run.engine().graph().has_edge(ids[0], ids[1]),
            "the valid prefix stays applied"
        );
        run.engine().assert_internally_consistent();
    }

    #[test]
    fn mis_len_matches_mis() {
        let (g, _) = generators::cycle(12);
        let run = ShardedRun::bootstrap(g, ShardLayout::striped(2), 4);
        assert_eq!(run.mis_len(), run.mis().len());
    }
}
