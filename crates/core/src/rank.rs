//! Dense ranks over the random order π — the bridge between
//! [`PriorityMap`] and the word-parallel [`dmis_graph::RankFront`].
//!
//! Priorities are 128-bit-wide `(key, id)` pairs drawn once per node
//! lifetime; what the settle loop actually needs from them is only their
//! *relative order*. [`RankIndex`] compresses that order into a dense
//! `u32` rank per live node (`rank_of`) plus the inverse table
//! (`node_at_rank`), so the settle front can be a plain bitset over ranks
//! and the hot neighbor filter `π(w) > π(v)` becomes a single `u32`
//! compare against an 8-byte-per-slot table instead of a 24-byte
//! `Option<Priority>` load.
//!
//! # Rank maintenance under churn
//!
//! A node's priority never changes while it lives, so its rank can only
//! be invalidated by *other* nodes arriving or departing:
//!
//! - **Deletion** never re-ranks. The departed node's slot in
//!   `node_at_rank` becomes a tombstone (blanked to a sentinel id, so a
//!   tombstone stays distinguishable from a live entry even for callers
//!   that *recycle* identifiers, like the matching engine's line-id
//!   arena) and the relative order of the survivors is untouched.
//! - **Insertion** appends in O(1) when the newcomer's priority exceeds
//!   every ranked priority; otherwise the newcomer is parked as
//!   *pending* and the index **re-ranks** at the next [`RankIndex::flush`]:
//!   ranked slots are already in rank order, so one merge with the
//!   priority-sorted pending list rewrites the dense tables in
//!   O(live + k log k) for k insertions — compacting accumulated
//!   tombstones on the way. Re-ranking is only legal while no rank is
//!   parked in a settle front, which the engines guarantee by seeding
//!   fronts with node ids and flushing + converting to ranks at settle
//!   start (after all of a batch's mutations).
//!
//! Pop order is unaffected either way: for live nodes,
//! `rank(u) < rank(v) ⟺ π(u) < π(v)` is an invariant, so draining a
//! rank front is bit-identical to draining a `(Priority, NodeId)` min-heap.

use dmis_graph::{NodeId, NodeMap};

use crate::{Priority, PriorityMap};

/// Sentinel id marking a deleted rank slot. Real identifiers are
/// allocator-sequential and can never reach it.
const TOMBSTONE: NodeId = NodeId(u64::MAX);

/// Dense rank assignment realizing the order of a [`PriorityMap`].
///
/// See the [module docs](self) for the maintenance rules. The engines
/// keep one `RankIndex` alongside their `PriorityMap` and update both at
/// every node insertion/deletion; ranks are what the settle loop and the
/// [`dmis_graph::RankFront`] consume.
///
/// # Example
///
/// ```
/// use dmis_core::{PriorityMap, RankIndex};
/// use dmis_graph::NodeId;
///
/// let pm = PriorityMap::from_order(&[NodeId(4), NodeId(0), NodeId(2)]);
/// let ranks = RankIndex::from_priorities(&pm);
/// assert_eq!(ranks.rank_of(NodeId(4)), 0);
/// assert_eq!(ranks.rank_of(NodeId(2)), 2);
/// assert_eq!(ranks.node_at(1), NodeId(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RankIndex {
    /// Rank of every live node; absent for departed nodes.
    rank_of: NodeMap<u32>,
    /// Inverse table. A deleted node's slot is blanked to [`TOMBSTONE`]
    /// — kept until the next re-rank compacts the table. Blanking (not
    /// merely orphaning) is what makes identifier recycling safe: a
    /// recycled id re-entering the index can never be confused with its
    /// previous life's slot.
    node_at_rank: Vec<NodeId>,
    /// Highest live rank, if any node is live. Appends compare against
    /// it; deletions walk it down past tombstones (amortized O(1): every
    /// tombstone is stepped over at most once).
    max_rank: Option<u32>,
    /// Live nodes inserted *out of π order* since the last [`Self::flush`]:
    /// they hold no rank yet. Coalescing them makes a batch of k node
    /// insertions cost one O(live + k log k) re-rank at the next flush
    /// instead of k O(live) rewrites.
    pending: Vec<NodeId>,
    /// Re-rank scratch (persistent capacity).
    scratch: Vec<NodeId>,
    /// Tombstoned slots currently in `node_at_rank`. When they outnumber
    /// the live ranks, the next [`Self::flush`] compacts the whole table
    /// (so the span stays within 2× the live count under churn).
    tombstones: u32,
    /// Times `node_at_rank` grew past its capacity (reallocation); 0
    /// after [`Self::reserve`] with an adequate bound.
    table_regrows: u64,
    /// Settle-end compactions performed by [`Self::maybe_compact`] —
    /// the ordering witness the snapshot read path records: engines
    /// publish strictly *after* compaction, so every published
    /// [`crate::MisSnapshot`] carries the compaction count current at
    /// its flush boundary (pinned by the snapshot-consistency tier).
    compactions: u64,
}

impl RankIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the dense ranks of every node in `priorities`.
    #[must_use]
    pub fn from_priorities(priorities: &PriorityMap) -> Self {
        let mut index = RankIndex::new();
        let mut order: Vec<(Priority, NodeId)> = priorities.iter().map(|(id, p)| (p, id)).collect();
        order.sort_unstable();
        index.scratch.extend(order.into_iter().map(|(_, id)| id));
        index.rewrite_from_scratch();
        index
    }

    /// Number of live nodes tracked (ranked plus pending).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rank_of.len() + self.pending.len()
    }

    /// Returns `true` if no node is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rank_of.is_empty() && self.pending.is_empty()
    }

    /// Returns `true` if every tracked node holds a rank — i.e. rank
    /// queries currently reflect the full live set. The engines
    /// [`Self::flush`] at settle start, so their settle loops always
    /// read a flushed index.
    #[must_use]
    pub fn is_flushed(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of settle-end compactions [`Self::maybe_compact`] has
    /// performed (no-op calls not counted). Monotone. The snapshot
    /// read path stamps this onto every published
    /// [`crate::MisSnapshot`], which is how the concurrency tier
    /// proves publication happens strictly after compaction — a
    /// reader can never observe a state containing a tombstoned
    /// `NodeId::MAX` slot mid-drop.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Size of the rank space (live ranks plus trailing/interior
    /// tombstones) — the span a [`dmis_graph::RankFront`] must cover.
    #[must_use]
    pub fn span(&self) -> usize {
        self.node_at_rank.len()
    }

    /// Pre-sizes both dense tables for `n` nodes, so a bootstrap of up
    /// to `n` insertions performs no incremental regrows.
    pub fn reserve(&mut self, n: usize) {
        self.rank_of.reserve_slots(n);
        if n > self.node_at_rank.capacity() {
            self.node_at_rank.reserve(n - self.node_at_rank.len());
        }
    }

    /// Times a dense table grew past its capacity (reallocated) since
    /// construction. 0 after an adequate [`Self::reserve`].
    #[must_use]
    pub fn regrows(&self) -> u64 {
        self.rank_of.regrows() + self.table_regrows
    }

    /// Appends `v` as the next rank slot, counting capacity overruns.
    fn push_slot(&mut self, v: NodeId) {
        self.table_regrows += u64::from(self.node_at_rank.len() + 1 > self.node_at_rank.capacity());
        self.node_at_rank.push(v);
    }

    /// Rank of `v`, if live.
    #[must_use]
    pub fn get(&self, v: NodeId) -> Option<usize> {
        self.rank_of.get(v).map(|&r| r as usize)
    }

    /// Rank of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no rank (departed or never inserted).
    #[must_use]
    pub fn rank_of(&self, v: NodeId) -> usize {
        self.rank_of[v] as usize
    }

    /// The live node holding `rank`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `rank` is a tombstone; out-of-span
    /// ranks panic always.
    #[must_use]
    pub fn node_at(&self, rank: usize) -> NodeId {
        let v = self.node_at_rank[rank];
        debug_assert_eq!(self.get(v), Some(rank), "rank {rank} is a tombstone");
        v
    }

    /// Tracks `v`, which must already hold a priority in `priorities`.
    ///
    /// O(1) either way: when π(v) exceeds every *ranked* priority `v` is
    /// appended with the next rank (the common stream-ordered case and
    /// the only case a rank-reading settle can produce mid-update);
    /// otherwise `v` is parked as *pending* and ranked by the next
    /// [`Self::flush`], so a batch of k out-of-order insertions costs
    /// one coalesced re-rank, not k.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already tracked or has no priority.
    pub fn insert(&mut self, v: NodeId, priorities: &PriorityMap) {
        assert!(self.rank_of.get(v).is_none(), "{v} is already ranked");
        debug_assert!(!self.pending.contains(&v), "{v} is already pending");
        // Appending only has to preserve π order among *ranked* nodes
        // (pending ones are merged in at flush), so with no ranked node
        // live any append is trivially in order.
        let appends = match self.max_rank {
            None => true,
            Some(mr) => priorities.of(v) > priorities.of(self.node_at_rank[mr as usize]),
        };
        if appends {
            let rank = u32::try_from(self.node_at_rank.len()).expect("rank fits in u32");
            self.push_slot(v);
            self.rank_of.insert(v, rank);
            self.max_rank = Some(rank);
        } else {
            self.pending.push(v);
        }
    }

    /// Untracks a departed node. Never re-ranks the survivors: a ranked
    /// slot becomes a tombstone, compacted by the next re-rank.
    pub fn remove(&mut self, v: NodeId) {
        let Some(rank) = self.rank_of.remove(v) else {
            self.pending.retain(|&w| w != v);
            return;
        };
        self.node_at_rank[rank as usize] = TOMBSTONE;
        self.tombstones += 1;
        if self.max_rank == Some(rank) {
            let mut r = rank;
            self.max_rank = loop {
                if r == 0 {
                    break None;
                }
                r -= 1;
                if self.node_at_rank[r as usize] != TOMBSTONE {
                    break Some(r);
                }
            };
        }
    }

    /// Ranks every pending node: the coalesced **re-rank**. Ranked slots
    /// are already in π order, so one merge with the priority-sorted
    /// pending list rewrites the dense tables — but only from the
    /// *lowest insertion point* down: ranks below the smallest pending
    /// priority are provably unchanged by the merge and are left in
    /// place, so a flush costs O(suffix + k log k) for k pending nodes,
    /// where `suffix` is the number of slots at or above where the
    /// lowest newcomer lands (found by binary search), not the full live
    /// count. Suffix tombstones are compacted on the way; prefix
    /// tombstones survive until they outnumber the live ranks, at which
    /// point the flush compacts the whole table — keeping the rank span
    /// (what a [`dmis_graph::RankFront`] must cover) within 2× the live
    /// count under sustained churn (deletion-only churn, which never
    /// pends, is compacted by [`Self::maybe_compact`] instead). A no-op
    /// when nothing is pending — engines park ranks directly in their
    /// fronts for single-change updates *because* an empty-pending flush
    /// is guaranteed not to move ranks. The engines call this at settle
    /// start, after all of an update's mutations, which is the one point
    /// where re-ranking is legal (no rank is parked in a settle front).
    ///
    /// # Panics
    ///
    /// Panics if a pending node lost its priority (the engines remove
    /// deleted nodes from the index, so this indicates a bookkeeping
    /// bug).
    pub fn flush(&mut self, priorities: &PriorityMap) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by_key(|&v| priorities.of(v));
        let cut = if self.tombstones as usize > self.rank_of.len() {
            0
        } else {
            self.suffix_cut(priorities.of(pending[0]), priorities)
        };
        let suffix_len = self.node_at_rank.len() - cut;
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut next = pending.iter().copied().peekable();
        for &w in &self.node_at_rank[cut..] {
            if w != TOMBSTONE {
                let pw = priorities.of(w);
                while next.peek().is_some_and(|&p| priorities.of(p) < pw) {
                    scratch.push(next.next().expect("peeked"));
                }
                scratch.push(w);
            }
        }
        scratch.extend(next);
        let suffix_live = scratch.len() - pending.len();
        self.tombstones -= u32::try_from(suffix_len - suffix_live).expect("count fits");
        self.node_at_rank.truncate(cut);
        for &v in &scratch {
            let rank = u32::try_from(self.node_at_rank.len()).expect("rank fits in u32");
            self.push_slot(v);
            self.rank_of.insert(v, rank);
        }
        self.max_rank = match self.node_at_rank.len() {
            0 => None,
            n => Some((n - 1) as u32),
        };
        debug_assert!(
            self.max_rank
                .is_none_or(|mr| self.node_at_rank[mr as usize] != TOMBSTONE),
            "rewrite left a trailing tombstone"
        );
        scratch.clear();
        self.scratch = scratch;
        pending.clear();
        self.pending = pending; // keep the capacity
    }

    /// Compacts the rank table if tombstones outnumber the live ranks,
    /// keeping the span (what a [`dmis_graph::RankFront`] must cover)
    /// within 2× the live count under deletion-heavy churn — which never
    /// pends and so is never compacted by [`Self::flush`]. Compaction
    /// drops tombstoned slots without reordering the survivors, so it
    /// needs no priorities; it *does* re-rank, so it is only legal while
    /// no rank is parked in a settle front — the engines call it at
    /// settle **end**, after every front has drained to quiescence.
    /// A no-op below the threshold or while insertions are pending
    /// (the next flush compacts those for free).
    pub fn maybe_compact(&mut self) {
        if self.tombstones as usize <= self.rank_of.len() || !self.pending.is_empty() {
            return;
        }
        self.compactions += 1;
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.extend(
            self.node_at_rank
                .iter()
                .copied()
                .filter(|&w| w != TOMBSTONE),
        );
        self.scratch = scratch;
        self.rewrite_from_scratch();
    }

    /// Smallest slot index `c` such that every live entry below `c` has
    /// priority below `p_min` — the prefix a suffix rewrite may keep.
    /// Binary search over the rank table; a probe landing on a tombstone
    /// run scans forward to the nearest live entry, which stays cheap
    /// because compaction keeps tombstones from outnumbering live ranks.
    fn suffix_cut(&self, p_min: Priority, priorities: &PriorityMap) -> usize {
        let (mut lo, mut hi) = (0usize, self.node_at_rank.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let live = self.node_at_rank[mid..]
                .iter()
                .position(|&w| w != TOMBSTONE);
            match live {
                Some(off) if priorities.of(self.node_at_rank[mid + off]) < p_min => {
                    lo = mid + off + 1;
                }
                _ => hi = mid,
            }
        }
        lo
    }

    /// Rebuilds both tables from the rank-ordered node list in `scratch`,
    /// consuming it (its capacity is kept for the next re-rank).
    fn rewrite_from_scratch(&mut self) {
        self.node_at_rank.clear();
        self.rank_of.clear();
        let scratch = std::mem::take(&mut self.scratch);
        for (rank, &v) in scratch.iter().enumerate() {
            self.table_regrows +=
                u64::from(self.node_at_rank.len() + 1 > self.node_at_rank.capacity());
            self.node_at_rank.push(v);
            self.rank_of
                .insert(v, u32::try_from(rank).expect("rank fits in u32"));
        }
        self.scratch = scratch;
        self.scratch.clear();
        self.tombstones = 0;
        self.max_rank = match self.node_at_rank.len() {
            0 => None,
            n => Some((n - 1) as u32),
        };
    }

    /// Verifies both tables against `priorities`. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if a rank is missing, duplicated, or out of order.
    pub fn assert_consistent(&self, priorities: &PriorityMap) {
        assert_eq!(self.len(), priorities.len(), "rank count diverged from π");
        let mut last: Option<(u32, Priority)> = None;
        for (rank, &v) in self.node_at_rank.iter().enumerate() {
            let rank = rank as u32;
            if v == TOMBSTONE {
                continue;
            }
            match self.rank_of.get(v) {
                Some(&r) if r == rank => {
                    let p = priorities.of(v);
                    if let Some((lr, lp)) = last {
                        assert!(lp < p, "ranks {lr} and {rank} out of π order");
                    }
                    last = Some((rank, p));
                }
                Some(&r) => panic!("slot {rank} holds {v}, which is live at rank {r}"),
                None => panic!("slot {rank} holds dead id {v} instead of a tombstone"),
            }
        }
        assert_eq!(
            self.max_rank,
            last.map(|(r, _)| r),
            "max_rank diverged from the highest live slot"
        );
        let blanks = self
            .node_at_rank
            .iter()
            .filter(|&&v| v == TOMBSTONE)
            .count();
        assert_eq!(
            self.tombstones as usize, blanks,
            "tombstone counter diverged from the table"
        );
        for (v, &r) in self.rank_of.iter() {
            assert_eq!(
                self.node_at_rank.get(r as usize),
                Some(&v),
                "rank_of({v}) = {r} does not point back"
            );
        }
        for (i, &v) in self.pending.iter().enumerate() {
            assert!(self.rank_of.get(v).is_none(), "{v} pending AND ranked");
            assert!(priorities.get(v).is_some(), "pending {v} has no priority");
            assert!(
                !self.pending[..i].contains(&v),
                "{v} pending more than once"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn from_priorities_realizes_pi_order() {
        let pm = PriorityMap::from_order(&[NodeId(9), NodeId(3), NodeId(7)]);
        let ranks = RankIndex::from_priorities(&pm);
        assert_eq!(ranks.len(), 3);
        assert_eq!(ranks.span(), 3);
        assert_eq!(ranks.rank_of(NodeId(9)), 0);
        assert_eq!(ranks.rank_of(NodeId(3)), 1);
        assert_eq!(ranks.rank_of(NodeId(7)), 2);
        assert_eq!(ranks.node_at(0), NodeId(9));
        ranks.assert_consistent(&pm);
    }

    #[test]
    fn append_fast_path_keeps_order_without_rewrite() {
        let mut pm = PriorityMap::from_order(&[NodeId(0), NodeId(1)]);
        let mut ranks = RankIndex::from_priorities(&pm);
        // Key 2 exceeds keys 0 and 1: pure append.
        pm.insert(NodeId(2), Priority::new(2, NodeId(2)));
        ranks.insert(NodeId(2), &pm);
        assert_eq!(ranks.rank_of(NodeId(2)), 2);
        assert_eq!(ranks.span(), 3);
        ranks.assert_consistent(&pm);
    }

    #[test]
    fn out_of_order_insert_is_pending_until_flush_compacts() {
        let mut pm = PriorityMap::from_order(&[NodeId(0), NodeId(1), NodeId(2)]);
        let mut ranks = RankIndex::from_priorities(&pm);
        pm.remove(NodeId(1));
        ranks.remove(NodeId(1));
        assert_eq!(ranks.span(), 3, "tombstone keeps the span");
        // Key between 0's and 2's: parks as pending until the flush.
        pm.insert(NodeId(5), Priority::new(1, NodeId(5)));
        ranks.insert(NodeId(5), &pm);
        assert!(!ranks.is_flushed());
        assert_eq!(ranks.len(), 3, "pending nodes are tracked");
        ranks.assert_consistent(&pm);
        ranks.flush(&pm);
        assert!(ranks.is_flushed());
        assert_eq!(ranks.span(), 3, "compacted: 3 live, no tombstones");
        assert_eq!(ranks.rank_of(NodeId(0)), 0);
        assert_eq!(ranks.rank_of(NodeId(5)), 1);
        assert_eq!(ranks.rank_of(NodeId(2)), 2);
        ranks.assert_consistent(&pm);
    }

    #[test]
    fn flush_coalesces_a_batch_of_out_of_order_inserts() {
        // 4 ranked nodes with even keys; insert 3 odd-keyed nodes plus a
        // past-the-max one, remove one pending again, then flush once.
        let mut pm = PriorityMap::new();
        for (key, id) in [(0u64, 0u64), (2, 1), (4, 2), (6, 3)] {
            pm.insert(NodeId(id), Priority::new(key, NodeId(id)));
        }
        let mut ranks = RankIndex::from_priorities(&pm);
        for (key, id) in [(3u64, 10u64), (1, 11), (5, 12), (9, 13)] {
            pm.insert(NodeId(id), Priority::new(key, NodeId(id)));
            ranks.insert(NodeId(id), &pm);
        }
        assert_eq!(ranks.rank_of(NodeId(13)), 4, "past-the-max appends");
        pm.remove(NodeId(12));
        ranks.remove(NodeId(12));
        ranks.assert_consistent(&pm);
        ranks.flush(&pm);
        let by_rank: Vec<NodeId> = (0..ranks.len()).map(|r| ranks.node_at(r)).collect();
        assert_eq!(
            by_rank,
            [0u64, 11, 1, 10, 2, 3, 13].map(NodeId).to_vec(),
            "merge realizes key order 0,1,2,3,4,6,9"
        );
        ranks.assert_consistent(&pm);
    }

    #[test]
    fn flush_is_a_suffix_rewrite_below_the_lowest_newcomer() {
        // 100 ranked nodes keyed 0,10,20,…; a newcomer keyed 955 lands
        // between ranks 95 and 96, so ranks 0..=95 must survive the
        // flush untouched (same slot, same table entry — not merely the
        // same order).
        let mut pm = PriorityMap::new();
        for id in 0..100u64 {
            pm.insert(NodeId(id), Priority::new(id * 10, NodeId(id)));
        }
        let mut ranks = RankIndex::from_priorities(&pm);
        pm.insert(NodeId(500), Priority::new(955, NodeId(500)));
        ranks.insert(NodeId(500), &pm);
        assert!(!ranks.is_flushed());
        ranks.flush(&pm);
        for id in 0..=95u64 {
            assert_eq!(ranks.rank_of(NodeId(id)), id as usize, "prefix rank moved");
        }
        assert_eq!(ranks.rank_of(NodeId(500)), 96);
        assert_eq!(ranks.rank_of(NodeId(99)), 100);
        ranks.assert_consistent(&pm);
    }

    #[test]
    fn maybe_compact_bounds_the_span_under_deletion_churn() {
        // 100 appends then 80 removals: the span stays at 100 (deletion
        // never re-ranks, and deletion-only churn never pends so flush
        // is a no-op) until `maybe_compact` notices tombstones > live.
        let mut pm = PriorityMap::new();
        let mut ranks = RankIndex::new();
        for id in 0..100u64 {
            pm.insert(NodeId(id), Priority::new(id, NodeId(id)));
            ranks.insert(NodeId(id), &pm);
        }
        for id in 0..80u64 {
            pm.remove(NodeId(id));
            ranks.remove(NodeId(id));
        }
        assert_eq!(ranks.span(), 100, "deletion keeps the span");
        ranks.flush(&pm);
        assert_eq!(ranks.span(), 100, "empty-pending flush must not move ranks");
        ranks.maybe_compact();
        assert_eq!(ranks.span(), 20, "compaction drops every tombstone");
        assert_eq!(ranks.rank_of(NodeId(80)), 0);
        assert_eq!(ranks.rank_of(NodeId(99)), 19);
        ranks.assert_consistent(&pm);
        // Below the threshold compaction stays a no-op.
        pm.remove(NodeId(80));
        ranks.remove(NodeId(80));
        ranks.maybe_compact();
        assert_eq!(ranks.span(), 20, "one tombstone in twenty stays put");
        ranks.assert_consistent(&pm);
    }

    #[test]
    fn flush_with_pending_compacts_when_tombstones_dominate() {
        // Heavy deletion plus one out-of-order insert: the flush that
        // ranks the newcomer rewrites from rank 0 and compacts, because
        // a suffix rewrite above the tombstone mass would keep the span
        // bloated.
        let mut pm = PriorityMap::new();
        let mut ranks = RankIndex::new();
        for id in 0..100u64 {
            pm.insert(NodeId(id), Priority::new(10 * id, NodeId(id)));
            ranks.insert(NodeId(id), &pm);
        }
        for id in 0..80u64 {
            pm.remove(NodeId(id));
            ranks.remove(NodeId(id));
        }
        pm.insert(NodeId(200), Priority::new(805, NodeId(200)));
        ranks.insert(NodeId(200), &pm);
        ranks.flush(&pm);
        assert_eq!(ranks.span(), 21, "full rewrite: 20 survivors + newcomer");
        assert_eq!(ranks.rank_of(NodeId(80)), 0);
        assert_eq!(ranks.rank_of(NodeId(200)), 1);
        ranks.assert_consistent(&pm);
    }

    #[test]
    fn reserved_index_never_regrows_during_bootstrap() {
        let mut pm = PriorityMap::new();
        let mut ranks = RankIndex::new();
        ranks.reserve(512);
        for id in 0..512u64 {
            pm.insert(NodeId(id), Priority::new(id, NodeId(id)));
            ranks.insert(NodeId(id), &pm);
        }
        assert_eq!(ranks.regrows(), 0, "pre-sized tables must not regrow");
        let mut cold = RankIndex::new();
        for id in 0..512u64 {
            cold.insert(NodeId(id), &pm);
        }
        assert!(cold.regrows() > 0, "unsized tables regrow (sanity)");
    }

    #[test]
    fn removing_the_maximum_walks_down_past_tombstones() {
        let pm = PriorityMap::from_order(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let mut ranks = RankIndex::from_priorities(&pm);
        ranks.remove(NodeId(2));
        ranks.remove(NodeId(3)); // max: walk down over n2's tombstone
        let mut pm2 = pm.clone();
        pm2.remove(NodeId(2));
        pm2.remove(NodeId(3));
        ranks.assert_consistent(&pm2);
        // An append now compares against n1, the surviving maximum.
        let mut pm3 = pm2.clone();
        pm3.insert(NodeId(4), Priority::new(100, NodeId(4)));
        ranks.insert(NodeId(4), &pm3);
        assert_eq!(ranks.rank_of(NodeId(4)), 4, "appended past the span");
        ranks.assert_consistent(&pm3);
        // Draining everything resets max_rank.
        ranks.remove(NodeId(4));
        ranks.remove(NodeId(1));
        ranks.remove(NodeId(0));
        assert!(ranks.is_empty());
        let pm4 = PriorityMap::new();
        ranks.assert_consistent(&pm4);
    }

    #[test]
    fn remove_of_unranked_node_is_a_no_op() {
        let pm = PriorityMap::from_order(&[NodeId(0)]);
        let mut ranks = RankIndex::from_priorities(&pm);
        ranks.remove(NodeId(50));
        assert_eq!(ranks.len(), 1);
        ranks.assert_consistent(&pm);
    }

    #[test]
    #[should_panic(expected = "already ranked")]
    fn double_insert_panics() {
        let pm = PriorityMap::from_order(&[NodeId(0)]);
        let mut ranks = RankIndex::from_priorities(&pm);
        ranks.insert(NodeId(0), &pm);
    }

    #[test]
    fn random_churn_always_matches_pi_order() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut pm = PriorityMap::new();
        let mut ranks = RankIndex::new();
        let mut live: Vec<NodeId> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..600 {
            if live.is_empty() || rng.random_bool(0.6) {
                let v = NodeId(next_id);
                next_id += 1;
                pm.assign(v, &mut rng);
                ranks.insert(v, &pm);
                live.push(v);
            } else {
                let i = rng.random_range(0..live.len() as u64) as usize;
                let v = live.swap_remove(i);
                pm.remove(v);
                ranks.remove(v);
            }
            if step % 7 == 0 {
                ranks.assert_consistent(&pm);
            }
            if step % 11 == 0 {
                // Engine cadence: a flush at every settle boundary.
                ranks.flush(&pm);
                ranks.assert_consistent(&pm);
            }
        }
        ranks.flush(&pm);
        ranks.assert_consistent(&pm);
        // Rank order equals priority order on the live set.
        let mut by_rank = live.clone();
        by_rank.sort_unstable_by_key(|&v| ranks.rank_of(v));
        assert_eq!(by_rank, pm.nodes_by_priority());
    }
}
