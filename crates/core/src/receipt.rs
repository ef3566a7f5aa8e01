//! Receipts: the auditable outcome of every engine update.
//!
//! Each mutating call on [`crate::MisEngine`] or
//! [`crate::ShardedMisEngine`] returns an [`UpdateReceipt`] (batches wrap
//! it in a [`BatchReceipt`]) recording *what the recovery did*: the
//! adjustment set (the paper's central complexity measure), the settle
//! work performed (settle pops, neighbor-counter updates), and — for the
//! sharded engine — how much of the cascade crossed shard boundaries
//! ([`UpdateReceipt::cross_shard_handoffs`]), how many shard activations
//! the coordinator scheduled ([`UpdateReceipt::shard_runs`]), and how
//! many barrier-synchronized epochs the recovery took
//! ([`UpdateReceipt::settle_epochs`] — the cascade's depth in
//! synchronous rounds). Receipts are how experiments and benches observe the
//! engines without reaching into their internals.

use std::collections::BTreeSet;

use dmis_graph::{ChangeKind, NodeId};

use crate::MisState;

/// Outcome of applying one topology change to a [`crate::MisEngine`].
///
/// The *adjustment set* is the set of nodes whose final output differs from
/// their output before the change — the quantity the paper calls the
/// adjustment complexity and bounds by 1 in expectation (Theorem 1; note the
/// influenced set `S` of the template may be a superset, because a node can
/// flip and flip back — use [`crate::template`] to observe that).
///
/// Work counters expose the sequential cost discussed in Section 6 of the
/// paper: a direct sequential implementation pays O(Δ) per adjusted node to
/// update neighbor bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReceipt {
    kind: ChangeKind,
    flips: Vec<(NodeId, MisState)>,
    heap_pops: usize,
    counter_updates: usize,
    cross_shard_handoffs: usize,
    shard_runs: usize,
    settle_epochs: usize,
}

impl UpdateReceipt {
    pub(crate) fn new(
        kind: ChangeKind,
        flips: Vec<(NodeId, MisState)>,
        heap_pops: usize,
        counter_updates: usize,
    ) -> Self {
        UpdateReceipt {
            kind,
            flips,
            heap_pops,
            counter_updates,
            cross_shard_handoffs: 0,
            shard_runs: 0,
            settle_epochs: 0,
        }
    }

    /// Attaches sharding statistics (set by [`crate::ShardedMisEngine`];
    /// the unsharded engine reports zeros).
    pub(crate) fn with_shard_stats(
        mut self,
        handoffs: usize,
        shard_runs: usize,
        epochs: usize,
    ) -> Self {
        self.cross_shard_handoffs = handoffs;
        self.shard_runs = shard_runs;
        self.settle_epochs = epochs;
        self
    }

    /// The kind of change this receipt describes.
    #[must_use]
    pub fn kind(&self) -> ChangeKind {
        self.kind
    }

    /// The nodes whose output changed, with their new state, in the order
    /// they were settled (increasing priority).
    #[must_use]
    pub fn flips(&self) -> &[(NodeId, MisState)] {
        &self.flips
    }

    /// The adjustment set as a set of node identifiers.
    #[must_use]
    pub fn adjusted_nodes(&self) -> BTreeSet<NodeId> {
        self.flips.iter().map(|&(v, _)| v).collect()
    }

    /// Number of nodes whose output changed (the paper's adjustment
    /// complexity for this change).
    #[must_use]
    pub fn adjustments(&self) -> usize {
        self.flips.len()
    }

    /// Number of settle pops: dirty nodes drained from the settle front
    /// (≥ adjustments). The name predates the rank front, which replaced
    /// a binary heap.
    #[must_use]
    pub fn heap_pops(&self) -> usize {
        self.heap_pops
    }

    /// Number of neighbor-counter updates performed — the O(Δ·|S|)
    /// sequential work term of Section 6.
    #[must_use]
    pub fn counter_updates(&self) -> usize {
        self.counter_updates
    }

    /// Number of counter updates that crossed a shard boundary — the
    /// coordination cost of a sharded recovery. Always zero for the
    /// unsharded [`crate::MisEngine`], and for any cascade fully contained
    /// in one shard; the paper's bounded-adjustment guarantee is what
    /// keeps this small on random inputs.
    #[must_use]
    pub fn cross_shard_handoffs(&self) -> usize {
        self.cross_shard_handoffs
    }

    /// Number of shard settle-runs the coordinator scheduled before
    /// global quiescence (zero for the unsharded engine; at least one per
    /// sharded recovery that had any dirty node).
    #[must_use]
    pub fn shard_runs(&self) -> usize {
        self.shard_runs
    }

    /// Number of barrier-synchronized settle epochs the coordinator ran
    /// before global quiescence — the recovery's depth in the paper's
    /// synchronous rounds: shard runs within one epoch act only on what
    /// the previous barrier delivered, as nodes in one round act only on
    /// the previous round's messages. Zero for the unsharded engine and
    /// for recoveries with no dirty node.
    #[must_use]
    pub fn settle_epochs(&self) -> usize {
        self.settle_epochs
    }
}

/// Outcome of applying a **batch** of topology changes via
/// [`crate::MisEngine::apply_batch`]: how many changes landed, plus the
/// combined propagation receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReceipt {
    applied: usize,
    receipt: UpdateReceipt,
}

impl BatchReceipt {
    pub(crate) fn new(applied: usize, receipt: UpdateReceipt) -> Self {
        BatchReceipt { applied, receipt }
    }

    /// Number of changes successfully applied.
    #[must_use]
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Nodes whose output changed across the whole batch, with their new
    /// state.
    #[must_use]
    pub fn flips(&self) -> &[(NodeId, MisState)] {
        self.receipt.flips()
    }

    /// The batch's adjustment set.
    #[must_use]
    pub fn adjusted_nodes(&self) -> BTreeSet<NodeId> {
        self.receipt.adjusted_nodes()
    }

    /// Number of nodes whose output changed.
    #[must_use]
    pub fn adjustments(&self) -> usize {
        self.receipt.adjustments()
    }

    /// Settle pops performed by the combined propagation.
    #[must_use]
    pub fn heap_pops(&self) -> usize {
        self.receipt.heap_pops()
    }

    /// Neighbor-counter updates performed.
    #[must_use]
    pub fn counter_updates(&self) -> usize {
        self.receipt.counter_updates()
    }

    /// Counter updates that crossed a shard boundary (zero unless the
    /// batch ran on a [`crate::ShardedMisEngine`]).
    #[must_use]
    pub fn cross_shard_handoffs(&self) -> usize {
        self.receipt.cross_shard_handoffs()
    }

    /// Shard settle-runs scheduled by the coordinator for this batch.
    #[must_use]
    pub fn shard_runs(&self) -> usize {
        self.receipt.shard_runs()
    }

    /// Barrier-synchronized settle epochs of the batch recovery (zero
    /// unless the batch ran on a sharded engine).
    #[must_use]
    pub fn settle_epochs(&self) -> usize {
        self.receipt.settle_epochs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_receipt_delegates() {
        let inner = UpdateReceipt::new(
            ChangeKind::EdgeDelete,
            vec![(NodeId(1), MisState::In)],
            3,
            5,
        );
        let b = BatchReceipt::new(4, inner);
        assert_eq!(b.applied(), 4);
        assert_eq!(b.adjustments(), 1);
        assert_eq!(b.heap_pops(), 3);
        assert_eq!(b.counter_updates(), 5);
        assert!(b.adjusted_nodes().contains(&NodeId(1)));
        assert_eq!(b.flips().len(), 1);
    }

    #[test]
    fn accessors() {
        let r = UpdateReceipt::new(
            ChangeKind::EdgeInsert,
            vec![(NodeId(3), MisState::Out), (NodeId(5), MisState::In)],
            4,
            7,
        );
        assert_eq!(r.kind(), ChangeKind::EdgeInsert);
        assert_eq!(r.adjustments(), 2);
        assert_eq!(r.heap_pops(), 4);
        assert_eq!(r.counter_updates(), 7);
        assert!(r.adjusted_nodes().contains(&NodeId(5)));
        assert_eq!(r.flips()[0], (NodeId(3), MisState::Out));
    }

    #[test]
    fn shard_stats_default_to_zero_and_attach() {
        let r = UpdateReceipt::new(ChangeKind::EdgeInsert, vec![], 0, 0);
        assert_eq!(r.cross_shard_handoffs(), 0);
        assert_eq!(r.shard_runs(), 0);
        assert_eq!(r.settle_epochs(), 0);
        let r = r.with_shard_stats(6, 3, 2);
        assert_eq!(r.cross_shard_handoffs(), 6);
        assert_eq!(r.shard_runs(), 3);
        assert_eq!(r.settle_epochs(), 2);
        let b = BatchReceipt::new(1, r);
        assert_eq!(b.cross_shard_handoffs(), 6);
        assert_eq!(b.shard_runs(), 3);
        assert_eq!(b.settle_epochs(), 2);
    }
}
