//! Epoch-versioned snapshot publication: the concurrent read path.
//!
//! The paper's synchronous broadcast-round model hands every node a
//! consistent view of the MIS at each round boundary. This module gives
//! the *engines* the same guarantee for concurrent readers: the writer
//! publishes the settled membership bitset (the `NodeSet` words plus the
//! cached `mis_len`) at every flush boundary — the end of each settle
//! pass, i.e. each `insert_edge`/`apply_batch`/`IngestSession::flush`
//! quiescence point — and readers on other threads observe exactly those
//! published states, never a half-settled intermediate.
//!
//! # Shape
//!
//! - [`MisSnapshot`] — one immutable published state: membership words,
//!   cached cardinality, and the epoch counter stamped at publication.
//! - [`MisReader`] — a cheaply-cloneable `Send + Sync` handle. Each
//!   [`MisReader::snapshot`] call acquires the current [`MisSnapshot`]
//!   behind an `Arc`; every query on the acquired snapshot is then a
//!   pure read with no synchronization at all, so a reader holding a
//!   snapshot is wait-free no matter what the writer does.
//! - `MisPublisher` (crate-private) — the writer side, owned by an
//!   engine. It builds the next `Arc<MisSnapshot>` *outside* the swap
//!   lock and installs it with an O(1) pointer swap; the replaced `Arc`
//!   leaves the lock alive (it becomes the next spare), so the
//!   reader-visible critical section never scales with the graph and
//!   never frees a buffer.
//!
//! # Publish cost: O(flips), not O(n)
//!
//! Engines do not hand the publisher their membership set. They log
//! **absolute** `(NodeId, member)` assignments — settle flips, departed
//! members, injected corruption — and the publisher replays them into a
//! recycled buffer. It keeps two buffers: the installed snapshot and a
//! spare, the buffer published one epoch earlier, plus the assignments
//! of the last two epochs. When no reader holds the spare
//! (`Arc::get_mut` succeeds) it is brought current by replaying both
//! epochs' assignments and installed, so a publish costs O(membership
//! changes) — Theorem 1's O(1) expected per change. Only while a reader
//! pins the spare does a publish fall back to copying the installed
//! snapshot (O(n/64) words) and replaying this epoch's assignments. A
//! snapshot a reader holds is never written: writes go through
//! `Arc::get_mut` alone. Assignments are absolute, never toggles,
//! because corruption and repair re-assert bits a toggle would invert.
//!
//! # Epoch semantics
//!
//! Epoch 0 is the state at attach time ([`DynamicMis::reader`]'s first
//! call); every subsequent settle publishes epoch `e + 1`. Epochs are
//! monotone: [`MisReader::epoch`] (a lock-free atomic load) never
//! decreases, and a snapshot's own epoch never exceeds what `epoch()`
//! returned before it was acquired. The concurrency tier
//! (`crates/core/tests/snapshot_consistency.rs`) pins both properties,
//! plus the bit-match guarantee: every observed snapshot equals the
//! writer's quiesced membership at *some* flush boundary.
//!
//! [`DynamicMis::reader`]: crate::DynamicMis::reader

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dmis_graph::{NodeId, NodeSet};

use crate::MisState;

/// One immutable published MIS state: the membership bitset, its
/// cardinality, and the epoch stamped by the writer at publication.
///
/// Snapshots are acquired from a [`MisReader`] and shared via `Arc`;
/// every query is a pure read on frozen data, so holding a snapshot
/// never blocks — and never observes — the writer.
#[derive(Debug, Clone)]
pub struct MisSnapshot {
    /// Membership at the publishing flush boundary.
    members: NodeSet,
    /// Publication counter: 0 at attach, +1 per settle.
    epoch: u64,
}

impl MisSnapshot {
    /// The epoch this snapshot was published at (0 = attach state).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Size of the published MIS — O(1), cached at publication.
    #[must_use]
    pub fn mis_len(&self) -> usize {
        self.members.len()
    }

    /// Returns whether `v` was in the MIS at this snapshot's flush
    /// boundary. Total: unknown identifiers are simply not members.
    #[must_use]
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.contains(v)
    }

    /// Iterates over the published MIS in identifier order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter()
    }

    /// The published membership bitset.
    #[must_use]
    pub fn members(&self) -> &NodeSet {
        &self.members
    }

    /// Raw membership words (bit `i % 64` of word `i / 64` ⟺
    /// `NodeId(i)` published as a member) — what the consistency tier
    /// bit-matches against its per-epoch oracle.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        self.members.words()
    }

    /// Replays absolute membership assignments, in order.
    fn assign(&mut self, log: &[(NodeId, bool)]) {
        for &(v, member) in log {
            if member {
                self.members.insert(v);
            } else {
                self.members.remove(v);
            }
        }
    }
}

/// The shared cell between one publisher and its readers.
#[derive(Debug)]
struct SnapshotCell {
    /// Latest published epoch, readable without the swap lock.
    epoch: AtomicU64,
    /// Swap point. Held only for an O(1) `Arc` swap (writer) or
    /// clone (reader) — never while a snapshot is being built or freed.
    current: Mutex<Arc<MisSnapshot>>,
}

impl SnapshotCell {
    /// Clones out the current snapshot. Recovers from poisoning: the
    /// guarded value is always a fully-built `Arc`, installed by a
    /// single pointer swap, so a writer panicking elsewhere cannot
    /// leave it torn.
    fn load(&self) -> Arc<MisSnapshot> {
        match self.current.lock() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Installs `snap` and returns the snapshot it replaced, still
    /// alive: whoever drops that `Arc` — possibly freeing its buffer —
    /// does so after the lock is released, never while readers wait.
    fn swap(&self, snap: Arc<MisSnapshot>) -> Arc<MisSnapshot> {
        let epoch = snap.epoch;
        let replaced = match self.current.lock() {
            Ok(mut guard) => std::mem::replace(&mut *guard, snap),
            Err(poisoned) => std::mem::replace(&mut *poisoned.into_inner(), snap),
        };
        // Readers may learn the new epoch only after the snapshot
        // carrying it is reachable.
        self.epoch.store(epoch, Ordering::Release);
        replaced
    }
}

/// Writer side of the snapshot channel; owned by an engine, one per
/// attached read path. Publishes at every settle-end quiescence point,
/// recycling a two-buffer ring (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct MisPublisher {
    cell: Arc<SnapshotCell>,
    /// The buffer published one epoch before the installed snapshot,
    /// held for reuse; `None` until the first publish.
    spare: Option<Arc<MisSnapshot>>,
    /// The assignments that carried `spare` to the installed snapshot.
    behind: Vec<(NodeId, bool)>,
    /// The assignments logged since the installed snapshot was
    /// published.
    pending: Vec<(NodeId, bool)>,
}

impl MisPublisher {
    /// Creates the channel and publishes the attach-time state as
    /// epoch 0.
    pub(crate) fn attach(members: NodeSet) -> Self {
        Self::attach_at(members, 0)
    }

    /// Creates the channel at a prescribed epoch instead of 0: the
    /// recovery path re-attaches a restored engine's read channel at
    /// the epoch its checkpoint + replayed WAL suffix reconstructed, so
    /// readers resuming after a crash never observe a regressed epoch.
    pub(crate) fn attach_at(members: NodeSet, epoch: u64) -> Self {
        let snap = Arc::new(MisSnapshot { members, epoch });
        MisPublisher {
            cell: Arc::new(SnapshotCell {
                epoch: AtomicU64::new(epoch),
                current: Mutex::new(snap),
            }),
            spare: None,
            behind: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Latest published epoch (the writer's own last store).
    pub(crate) fn epoch(&self) -> u64 {
        // Single-writer: the publisher is reached through `&mut` on the
        // engine, so the relaxed read of our own last store is exact.
        self.cell.epoch.load(Ordering::Relaxed)
    }

    /// Logs the absolute assignment `v ↦ member` for the next publish.
    pub(crate) fn record(&mut self, v: NodeId, member: bool) {
        self.pending.push((v, member));
    }

    /// Publishes the next flush boundary at epoch `latest + 1`: the
    /// installed membership with every logged assignment and then
    /// `flips` applied. The snapshot is built before the swap lock is
    /// taken, so readers only ever wait for a pointer swap.
    pub(crate) fn publish(&mut self, flips: &[(NodeId, MisState)]) {
        self.pending
            .extend(flips.iter().map(|&(v, state)| (v, state.is_in())));
        // An unpinned spare is one epoch behind: replaying `behind`
        // makes it equal to the installed snapshot. A pinned one is left
        // to its readers, and a copy of the installed snapshot takes its
        // place.
        let recycled = self.spare.take().and_then(|mut spare| {
            Arc::get_mut(&mut spare)?.assign(&self.behind);
            Some(spare)
        });
        let mut next = recycled.unwrap_or_else(|| Arc::new(MisSnapshot::clone(&self.cell.load())));
        let snap = Arc::get_mut(&mut next).expect("no reader can reach an unpublished buffer");
        snap.assign(&self.pending);
        snap.epoch = self.epoch() + 1;
        self.spare = Some(self.cell.swap(next));
        std::mem::swap(&mut self.behind, &mut self.pending);
        self.pending.clear();
    }

    /// Hands out a read handle onto this publisher's channel.
    pub(crate) fn reader(&self) -> MisReader {
        MisReader {
            cell: Arc::clone(&self.cell),
        }
    }
}

/// A concurrent read handle over an engine's published MIS snapshots.
///
/// Obtained from [`crate::DynamicMis::reader`] (or
/// [`crate::EngineBuilder::build_with_reader`]); cheap to clone — one
/// `Arc` bump — and `Send + Sync`, so one handle per reader thread is
/// the intended shape. See the [module docs](self) for the epoch and
/// consistency guarantees.
///
/// The convenience queries ([`MisReader::is_in_mis`],
/// [`MisReader::mis_len`], [`MisReader::mis_iter`]) each acquire the
/// *current* snapshot; correlated multi-query reads (e.g. a membership
/// probe plus the cardinality it should be consistent with) should
/// acquire one [`MisReader::snapshot`] and query that.
#[derive(Debug, Clone)]
pub struct MisReader {
    cell: Arc<SnapshotCell>,
}

impl MisReader {
    /// Latest published epoch — a lock-free atomic load. Monotone.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.cell.epoch.load(Ordering::Acquire)
    }

    /// Acquires the current snapshot: an O(1) `Arc` clone under the
    /// swap mutex (held by the writer only for a pointer store, never
    /// while building a snapshot). All queries on the returned
    /// [`MisSnapshot`] are synchronization-free.
    #[must_use]
    pub fn snapshot(&self) -> Arc<MisSnapshot> {
        self.cell.load()
    }

    /// Whether `v` is a member of the *current* snapshot's MIS.
    #[must_use]
    pub fn is_in_mis(&self, v: NodeId) -> bool {
        self.snapshot().contains(v)
    }

    /// Size of the *current* snapshot's MIS.
    #[must_use]
    pub fn mis_len(&self) -> usize {
        self.snapshot().mis_len()
    }

    /// Iterates the *current* snapshot's MIS in identifier order. The
    /// iterator owns its snapshot, so it stays internally consistent
    /// even while the writer keeps publishing.
    #[must_use]
    pub fn mis_iter(&self) -> SnapshotIter {
        SnapshotIter::new(self.snapshot())
    }
}

/// Identifier-order iterator over one owned [`MisSnapshot`] — see
/// [`MisReader::mis_iter`].
#[derive(Debug)]
pub struct SnapshotIter {
    snap: Arc<MisSnapshot>,
    /// Next word index to refill from.
    word: usize,
    /// Unconsumed bits of the current word (bit k ⟺ id `base + k`).
    bits: u64,
    /// Node-id base of the current word.
    base: u64,
}

impl SnapshotIter {
    fn new(snap: Arc<MisSnapshot>) -> Self {
        SnapshotIter {
            snap,
            word: 0,
            bits: 0,
            base: 0,
        }
    }
}

impl Iterator for SnapshotIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            let words = self.snap.words();
            if self.word >= words.len() {
                return None;
            }
            self.bits = words[self.word];
            self.base = 64 * self.word as u64;
            self.word += 1;
        }
        let k = self.bits.trailing_zeros() as u64;
        self.bits &= self.bits - 1;
        Some(NodeId(self.base + k))
    }
}

/// Engine-side slot for an optional publisher.
///
/// `Clone` **detaches**: a cloned engine starts with no publisher, so
/// existing readers keep following the engine they were created from
/// and the clone's settles publish nowhere until `reader()` is called
/// on the clone itself. (Anything else would mean two writers racing
/// one epoch counter.)
#[derive(Debug, Default)]
pub(crate) struct PublishSlot {
    publisher: Option<MisPublisher>,
}

impl Clone for PublishSlot {
    fn clone(&self) -> Self {
        PublishSlot::default()
    }
}

impl PublishSlot {
    /// Whether a read path is attached (i.e. settles must publish).
    pub(crate) fn is_attached(&self) -> bool {
        self.publisher.is_some()
    }

    /// Installs the publisher; at most once per slot.
    pub(crate) fn set(&mut self, publisher: MisPublisher) {
        debug_assert!(self.publisher.is_none(), "publisher attached twice");
        self.publisher = Some(publisher);
    }

    /// The attached publisher, if any.
    pub(crate) fn get(&self) -> Option<&MisPublisher> {
        self.publisher.as_ref()
    }

    /// Mutable access to the attached publisher, if any.
    pub(crate) fn get_mut(&mut self) -> Option<&mut MisPublisher> {
        self.publisher.as_mut()
    }

    /// Logs a membership assignment the settle's flips will not carry
    /// (a departed member, an injected fault) for the next publish; a
    /// no-op while no read path is attached.
    pub(crate) fn record(&mut self, v: NodeId, member: bool) {
        if let Some(p) = self.publisher.as_mut() {
            p.record(v, member);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(ids: &[u64]) -> NodeSet {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn ins(ids: &[u64]) -> Vec<(NodeId, MisState)> {
        ids.iter().map(|&i| (NodeId(i), MisState::In)).collect()
    }

    fn ids(snap: &MisSnapshot) -> Vec<u64> {
        snap.iter().map(NodeId::index).collect()
    }

    #[test]
    fn reader_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MisReader>();
        assert_send_sync::<Arc<MisSnapshot>>();
        assert_send_sync::<SnapshotIter>();
    }

    #[test]
    fn attach_publishes_epoch_zero() {
        let publisher = MisPublisher::attach(set_of(&[1, 5, 64]));
        let reader = publisher.reader();
        assert_eq!(reader.epoch(), 0);
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.mis_len(), 3);
        assert!(snap.contains(NodeId(64)));
        assert!(!snap.contains(NodeId(2)));
        assert!(!snap.contains(NodeId(1_000_000)), "total on unknown ids");
    }

    #[test]
    fn publish_bumps_the_epoch_and_swaps_the_members() {
        let mut publisher = MisPublisher::attach(set_of(&[0]));
        let reader = publisher.reader();
        let held = reader.snapshot();
        let mut flips = ins(&[2, 3]);
        flips.push((NodeId(0), MisState::Out));
        publisher.publish(&flips);
        assert_eq!(reader.epoch(), 1);
        let now = reader.snapshot();
        assert_eq!(now.epoch(), 1);
        assert_eq!(ids(&now), vec![2, 3]);
        // The previously-acquired snapshot is frozen, not retracted.
        assert_eq!(held.epoch(), 0);
        assert_eq!(ids(&held), vec![0]);
    }

    #[test]
    fn recorded_assignments_land_before_the_flips() {
        let mut publisher = MisPublisher::attach(set_of(&[4, 8]));
        let reader = publisher.reader();
        // A departed member, then an injected fault the settle later
        // re-asserts: absolute assignments, applied in log order.
        publisher.record(NodeId(4), false);
        publisher.record(NodeId(6), true);
        publisher.publish(&[(NodeId(6), MisState::Out)]);
        assert_eq!(ids(&reader.snapshot()), vec![8]);
        // Re-asserting a bit the snapshot already holds changes nothing.
        publisher.record(NodeId(8), true);
        publisher.publish(&[]);
        let snap = reader.snapshot();
        assert_eq!(ids(&snap), vec![8]);
        assert_eq!(snap.mis_len(), 1);
    }

    #[test]
    fn snapshot_iter_matches_identifier_order() {
        let mut publisher = MisPublisher::attach(NodeSet::new());
        publisher.publish(&ins(&[190, 0, 63, 64, 7]));
        let reader = publisher.reader();
        let ids: Vec<u64> = reader.mis_iter().map(NodeId::index).collect();
        assert_eq!(ids, vec![0, 7, 63, 64, 190]);
        assert_eq!(reader.mis_len(), 5);
        assert!(reader.is_in_mis(NodeId(63)));
        assert!(!reader.is_in_mis(NodeId(62)));
    }

    #[test]
    fn clones_share_the_channel() {
        let mut publisher = MisPublisher::attach(NodeSet::new());
        let a = publisher.reader();
        let b = a.clone();
        publisher.publish(&ins(&[9]));
        assert_eq!(a.epoch(), 1);
        assert_eq!(b.epoch(), 1);
        assert!(b.snapshot().contains(NodeId(9)));
    }

    #[test]
    fn attach_at_resumes_from_a_prescribed_epoch() {
        let mut publisher = MisPublisher::attach_at(set_of(&[3]), 41);
        assert_eq!(publisher.epoch(), 41);
        let reader = publisher.reader();
        assert_eq!(reader.epoch(), 41);
        assert_eq!(reader.snapshot().epoch(), 41);
        publisher.publish(&ins(&[5]));
        assert_eq!(reader.epoch(), 42);
        assert_eq!(publisher.epoch(), 42);
        publisher.publish(&ins(&[9]));
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), 43);
        assert_eq!(ids(&snap), vec![3, 5, 9]);
    }

    #[test]
    fn unpinned_buffers_are_recycled_every_other_epoch() {
        let mut publisher = MisPublisher::attach(set_of(&[1]));
        let reader = publisher.reader();
        publisher.publish(&ins(&[2]));
        // Remember each epoch's buffer address without holding it: a
        // held `Arc` (or `Weak`) would pin the buffer.
        let e1 = Arc::as_ptr(&reader.snapshot());
        publisher.publish(&ins(&[3]));
        let e2 = Arc::as_ptr(&reader.snapshot());
        assert_ne!(e1, e2, "consecutive epochs use distinct buffers");
        for e in 3..9u64 {
            publisher.publish(&ins(&[e + 1]));
            let snap = reader.snapshot();
            let expect = if e % 2 == 1 { e1 } else { e2 };
            assert!(
                std::ptr::eq(Arc::as_ptr(&snap), expect),
                "epoch {e} reuses the buffer of epoch {}",
                e - 2
            );
            assert_eq!(snap.epoch(), e);
            assert_eq!(ids(&snap), (1..=e + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn held_snapshots_keep_their_epoch_and_bits() {
        let mut publisher = MisPublisher::attach(set_of(&[0, 10]));
        let reader = publisher.reader();
        let held = reader.snapshot();
        let before: Vec<u64> = ids(&held);
        let mut model = set_of(&[0, 10]);
        // Every publish rewrites the held snapshot's bits; the first two
        // must copy (no spare, then a pinned spare), the rest recycle.
        for e in 1..=5u64 {
            let flips = [
                (NodeId(0), MisState::from_membership(e % 2 == 0)),
                (NodeId(10), MisState::from_membership(e % 2 == 0)),
                (NodeId(20 + e), MisState::In),
            ];
            for &(v, s) in &flips {
                model_assign(&mut model, v, s.is_in());
            }
            publisher.publish(&flips);
            assert_eq!(held.epoch(), 0, "a held snapshot keeps its epoch");
            assert_eq!(ids(&held), before, "a held snapshot keeps its bits");
            assert_eq!(held.mis_len(), 2);
            let now = reader.snapshot();
            assert_eq!(now.epoch(), e);
            assert_eq!(now.members(), &model, "epoch {e}");
        }
    }

    #[test]
    fn ids_beyond_the_buffer_grow_it() {
        let mut publisher = MisPublisher::attach(set_of(&[1]));
        let reader = publisher.reader();
        assert_eq!(reader.snapshot().words().len(), 1);
        publisher.publish(&ins(&[10_000]));
        // Both ring buffers meet the far id: the copy at epoch 1, the
        // recycled attach buffer (replaying epoch 1) at epoch 2.
        publisher.publish(&ins(&[640]));
        publisher.publish(&[(NodeId(1), MisState::Out)]);
        let snap = reader.snapshot();
        assert_eq!(ids(&snap), vec![640, 10_000]);
        assert_eq!(snap.words().len(), 10_000 / 64 + 1);
        assert!(!snap.contains(NodeId(20_000)));
    }

    fn model_assign(model: &mut NodeSet, v: NodeId, member: bool) {
        if member {
            model.insert(v);
        } else {
            model.remove(v);
        }
    }

    #[test]
    fn seeded_pins_never_change_what_a_snapshot_shows() {
        // Mixed assignments (re-asserts included) under seeded pin and
        // release patterns: every current snapshot equals the model, and
        // every held one still equals the model of its epoch.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut model = NodeSet::new();
        let mut publisher = MisPublisher::attach(model.clone());
        let reader = publisher.reader();
        let mut held: Vec<(Arc<MisSnapshot>, NodeSet)> = Vec::new();
        for e in 1..=400u64 {
            // Recorded assignments precede the settle's flips in the log.
            for _ in 0..next(3) {
                let (v, member) = (NodeId(next(300)), next(2) == 0);
                publisher.record(v, member);
                model_assign(&mut model, v, member);
            }
            let flips: Vec<(NodeId, MisState)> = (0..next(6))
                .map(|_| (NodeId(next(300)), MisState::from_membership(next(2) == 0)))
                .collect();
            for &(v, s) in &flips {
                model_assign(&mut model, v, s.is_in());
            }
            publisher.publish(&flips);
            let now = reader.snapshot();
            assert_eq!((now.epoch(), now.members()), (e, &model), "epoch {e}");
            assert_eq!(now.mis_len(), model.popcount());
            match next(3) {
                0 => held.push((now, model.clone())),
                1 if !held.is_empty() => {
                    let (snap, at) = held.swap_remove(next(held.len() as u64) as usize);
                    assert_eq!(snap.members(), &at, "a held snapshot kept its bits");
                }
                _ => {}
            }
        }
        for (snap, at) in held {
            assert_eq!(snap.members(), &at);
        }
    }

    #[test]
    fn publish_slot_clone_detaches() {
        let mut slot = PublishSlot::default();
        slot.set(MisPublisher::attach(NodeSet::new()));
        assert!(slot.is_attached());
        assert!(!slot.clone().is_attached());
    }

    #[test]
    fn a_detached_slot_records_nothing() {
        let mut slot = PublishSlot::default();
        slot.record(NodeId(3), true);
        slot.set(MisPublisher::attach(NodeSet::new()));
        let reader = slot.get().expect("attached").reader();
        slot.record(NodeId(5), true);
        slot.get_mut().expect("attached").publish(&[]);
        assert_eq!(ids(&reader.snapshot()), vec![5]);
    }
}
