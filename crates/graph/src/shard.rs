//! Shard layout: partitioning the dense `NodeId` index space.
//!
//! [`NodeId`]s are slot indices (see [`crate::storage`]), which makes
//! *range partitioning* of the nodes a pure index computation: a
//! [`ShardLayout`] cuts the identifier space into blocks of consecutive
//! indices and deals the blocks out to `K` shards round-robin. The layout
//! decides only which shard owns a node: per-node state stays in global
//! dense [`NodeMap`](crate::NodeMap) / [`NodeSet`](crate::NodeSet) tables
//! indexed by `NodeId`. `dmis-core`'s sharded settle schedule asks it
//! which shard settles a node and which counter updates cross a shard
//! boundary.
//!
//! Two layouts matter in practice:
//!
//! - [`ShardLayout::striped`] (block = 1): node `i` lives on shard
//!   `i mod K`. Because the graph assigns identifiers monotonically, this
//!   balances load even under heavy node churn.
//! - [`ShardLayout::blocked`]: runs of `block` consecutive identifiers
//!   stay together. Insertion-order locality (a node and the neighbors
//!   created around the same time) then tends to stay shard-local, which
//!   trades balance for fewer cross-shard cascades.
//!
//! The layout is pure arithmetic — no table, no allocation — so
//! `shard_of` is cheap enough for the settle loop's inner edge scan.

use crate::NodeId;

/// A partition of the `NodeId` index space into `K` shards by index range.
///
/// Blocks of `block` consecutive indices are assigned to shards
/// round-robin: node `i` belongs to shard `(i / block) mod K`.
///
/// # Example
///
/// ```
/// use dmis_graph::{NodeId, ShardLayout};
///
/// let layout = ShardLayout::striped(4);
/// assert_eq!(layout.shard_of(NodeId(6)), 2);
///
/// let blocked = ShardLayout::blocked(2, 3);
/// // Indices 0,1,2 → shard 0; 3,4,5 → shard 1; 6,7,8 → shard 0 again.
/// assert_eq!(blocked.shard_of(NodeId(7)), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    shards: usize,
    block: u64,
}

impl ShardLayout {
    /// A layout dealing single indices round-robin: node `i` on shard
    /// `i mod shards`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn striped(shards: usize) -> Self {
        Self::blocked(shards, 1)
    }

    /// A layout dealing blocks of `block` consecutive indices round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `block` is zero.
    #[must_use]
    pub fn blocked(shards: usize, block: u64) -> Self {
        assert!(shards > 0, "a layout needs at least one shard");
        assert!(block > 0, "blocks must hold at least one index");
        ShardLayout { shards, block }
    }

    /// The degenerate single-shard layout (everything local, no
    /// cross-shard traffic) — the unsharded baseline as a layout.
    #[must_use]
    pub fn single() -> Self {
        Self::striped(1)
    }

    /// Number of shards `K`.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Block length of the range partition.
    #[must_use]
    pub fn block(&self) -> u64 {
        self.block
    }

    /// The shard owning `id`.
    #[must_use]
    pub fn shard_of(&self, id: NodeId) -> usize {
        ((id.index() / self.block) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_deals_round_robin() {
        let layout = ShardLayout::striped(3);
        let shards: Vec<usize> = (0..9).map(|i| layout.shard_of(NodeId(i))).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn blocked_keeps_runs_together() {
        let layout = ShardLayout::blocked(2, 4);
        assert_eq!(layout.shard_of(NodeId(3)), 0);
        assert_eq!(layout.shard_of(NodeId(4)), 1);
        assert_eq!(layout.shard_of(NodeId(9)), 0);
    }

    #[test]
    fn single_shard_is_identity() {
        let layout = ShardLayout::single();
        assert_eq!(layout.shards(), 1);
        for i in [0u64, 1, 63, 64, 1000] {
            assert_eq!(layout.shard_of(NodeId(i)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardLayout::striped(0);
    }

    #[test]
    #[should_panic(expected = "at least one index")]
    fn zero_block_rejected() {
        let _ = ShardLayout::blocked(2, 0);
    }
}
