//! Dense node-indexed storage: the containers behind every per-node table
//! in the workspace.
//!
//! [`NodeId`]s are slot indices: the graph assigns them monotonically, so a
//! `NodeId` doubles as an index into flat arrays. [`NodeMap`] and
//! [`NodeSet`] exploit this to replace `BTreeMap<NodeId, T>` /
//! `BTreeSet<NodeId>` with O(1) direct-indexed accesses — the difference
//! between a pointer-chasing tree walk and a single cache line on the
//! engine's settle loop.
//!
//! Deleted nodes leave *vacant* slots. Slots are **not** recycled for new
//! nodes, by design: the paper's dynamic model requires a node that leaves
//! and later rejoins to be a fresh node with fresh randomness (history
//! independence, Section 5), so identifiers — and hence slots — are never
//! reused. Containers therefore grow with the total number of nodes ever
//! inserted; the graph keeps a free list of the *allocations* (neighbor
//! vectors) vacated by deletions and recycles those instead.
//!
//! Iteration order over both containers is ascending `NodeId`, matching the
//! ordered-map containers they replaced, so all replay-determinism
//! guarantees are preserved.
//!
//! [`SettleFront`] is the queue the engines' settle loops drain: dirty
//! items keyed by a `(key, id)` pair, which the engines fill with the
//! priority π itself. [`EdgeSlotIndex`] is the edge-keyed table the
//! ingestion queue coalesces through.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, TryReserveError};
use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{EdgeKey, NodeId};

#[inline]
fn slot(id: NodeId) -> usize {
    usize::try_from(id.index()).expect("node index fits in usize")
}

/// A map from [`NodeId`] to `T`, backed by a flat slot vector.
///
/// Semantically a drop-in replacement for `BTreeMap<NodeId, T>` over
/// graph-assigned identifiers: O(1) `get`/`insert`/`remove`, iteration in
/// ascending identifier order. Vacant slots (deleted or never-assigned
/// nodes) cost one `Option` discriminant each.
///
/// Equality compares *contents* — two maps holding the same entries are
/// equal even if their slot vectors trail off differently.
///
/// # Example
///
/// ```
/// use dmis_graph::{NodeId, NodeMap};
///
/// let mut m: NodeMap<&str> = NodeMap::new();
/// m.insert(NodeId(2), "two");
/// m.insert(NodeId(0), "zero");
/// assert_eq!(m.get(NodeId(2)), Some(&"two"));
/// assert_eq!(m.len(), 2);
/// let keys: Vec<_> = m.keys().collect();
/// assert_eq!(keys, vec![NodeId(0), NodeId(2)]);
/// ```
#[derive(Clone)]
pub struct NodeMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
    /// Times an insert-driven slot growth had to reallocate the backing
    /// vector. Stays 0 for the lifetime of a map pre-sized past every id
    /// it will ever see — the scale tier's no-regrow bootstrap contract.
    regrows: u64,
}

impl<T> Default for NodeMap<T> {
    fn default() -> Self {
        NodeMap {
            slots: Vec::new(),
            len: 0,
            regrows: 0,
        }
    }
}

impl<T> NodeMap<T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with room for identifiers below `n` without
    /// reallocation.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        NodeMap {
            slots: Vec::with_capacity(n),
            len: 0,
            regrows: 0,
        }
    }

    /// [`Self::with_capacity`] for an `n` read from outside the program:
    /// a reservation the allocator refuses is returned, not aborted on.
    pub(crate) fn try_with_capacity(n: usize) -> Result<Self, TryReserveError> {
        let mut slots = Vec::new();
        slots.try_reserve_exact(n)?;
        Ok(NodeMap {
            slots,
            len: 0,
            regrows: 0,
        })
    }

    /// Ensures identifiers below `n` can be inserted without the slot
    /// vector reallocating (and hence without counting a regrow).
    pub fn reserve_slots(&mut self, n: usize) {
        if n > self.slots.capacity() {
            self.slots.reserve(n - self.slots.len());
        }
    }

    /// Times an insert had to *reallocate* the slot vector to reach its
    /// id. Growth within a prior reservation is not a regrow.
    #[must_use]
    pub fn regrows(&self) -> u64 {
        self.regrows
    }

    /// Number of present entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entry is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `id` has an entry.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.slots.get(slot(id)).is_some_and(Option::is_some)
    }

    /// Returns a reference to the value of `id`, if present.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.slots.get(slot(id)).and_then(Option::as_ref)
    }

    /// Returns a mutable reference to the value of `id`, if present.
    #[must_use]
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        self.slots.get_mut(slot(id)).and_then(Option::as_mut)
    }

    /// Inserts a value for `id`, returning the previous value if any.
    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        let i = slot(id);
        if i >= self.slots.len() {
            self.regrows += u64::from(i + 1 > self.slots.capacity());
            self.slots.resize_with(i + 1, || None);
        }
        let prev = self.slots[i].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the value of `id`, leaving its slot vacant.
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let removed = self.slots.get_mut(slot(id)).and_then(Option::take);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Iterates over `(id, &value)` pairs in ascending identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((NodeId(i as u64), v.as_ref()?)))
    }

    /// Iterates over `(id, &mut value)` pairs in ascending identifier
    /// order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> + '_ {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, v)| Some((NodeId(i as u64), v.as_mut()?)))
    }

    /// Iterates over present identifiers in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Iterates over present values in ascending identifier order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<T> Index<NodeId> for NodeMap<T> {
    type Output = T;

    fn index(&self, id: NodeId) -> &T {
        self.get(id)
            .unwrap_or_else(|| panic!("no entry for node {id}"))
    }
}

impl<T> IndexMut<NodeId> for NodeMap<T> {
    fn index_mut(&mut self, id: NodeId) -> &mut T {
        self.get_mut(id)
            .unwrap_or_else(|| panic!("no entry for node {id}"))
    }
}

impl<T: PartialEq> PartialEq for NodeMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq> Eq for NodeMap<T> {}

impl<T: fmt::Debug> fmt::Debug for NodeMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<(NodeId, T)> for NodeMap<T> {
    fn from_iter<I: IntoIterator<Item = (NodeId, T)>>(iter: I) -> Self {
        let mut map = NodeMap::new();
        for (id, v) in iter {
            map.insert(id, v);
        }
        map
    }
}

impl<T> Extend<(NodeId, T)> for NodeMap<T> {
    fn extend<I: IntoIterator<Item = (NodeId, T)>>(&mut self, iter: I) {
        for (id, v) in iter {
            self.insert(id, v);
        }
    }
}

/// A set of [`NodeId`]s, backed by a bit vector.
///
/// Semantically a drop-in replacement for `BTreeSet<NodeId>` over
/// graph-assigned identifiers: O(1) `insert`/`remove`/`contains`, one bit
/// per identifier in the live range, iteration in ascending order via word
/// scans.
///
/// # Example
///
/// ```
/// use dmis_graph::{NodeId, NodeSet};
///
/// let mut s = NodeSet::new();
/// assert!(s.insert(NodeId(70)));
/// assert!(s.insert(NodeId(3)));
/// assert!(!s.insert(NodeId(3)), "already present");
/// assert!(s.contains(NodeId(70)));
/// let v: Vec<_> = s.iter().collect();
/// assert_eq!(v, vec![NodeId(3), NodeId(70)]);
/// ```
#[derive(Clone, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
    /// Times an insert-driven word growth had to reallocate the backing
    /// vector (see [`NodeMap::regrows`]).
    regrows: u64,
}

impl NodeSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with room for identifiers below `n` without
    /// reallocation.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        NodeSet {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
            regrows: 0,
        }
    }

    /// Ensures identifiers below `n` can be inserted without the word
    /// vector reallocating (and hence without counting a regrow).
    pub fn reserve_nodes(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if words > self.words.capacity() {
            self.words.reserve(words - self.words.len());
        }
    }

    /// Times an insert had to *reallocate* the word vector to reach its
    /// id. Growth within a prior reservation is not a regrow.
    #[must_use]
    pub fn regrows(&self) -> u64 {
        self.regrows
    }

    /// Number of members — O(1), maintained incrementally by every
    /// mutating operation (single-bit edits adjust by the flip, word
    /// kernels popcount only the touched words).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Recounts the membership by popcounting every backing word — the
    /// O(words) ground truth the cached [`Self::len`] is asserted against
    /// in the engines' consistency checks.
    #[must_use]
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `id` is a member.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        let i = slot(id);
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Adds `id`; returns `true` if it was not already a member.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let i = slot(id);
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.words.len() {
            self.regrows += u64::from(word + 1 > self.words.capacity());
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; returns `true` if it was a member.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let i = slot(id);
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes all members, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&rem| {
                let next = rem & (rem - 1);
                (next != 0).then_some(next)
            })
            .map(move |rem| NodeId((wi * 64 + rem.trailing_zeros() as usize) as u64))
        })
    }

    /// The raw 64-bit words backing the set: bit `i % 64` of word `i / 64`
    /// is set iff `NodeId(i)` is a member. Trailing words may be zero.
    ///
    /// This is the escape hatch for word-parallel kernels that want to
    /// combine several sets without going through per-bit accessors.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place union: `self ← self ∪ other`, whole words at a time.
    ///
    /// Cost is O(words of `other`) regardless of how many members change;
    /// the cardinality is maintained by popcounting only the touched words.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.regrows += u64::from(other.words.len() > self.words.capacity());
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let grown = b & !*a;
            if grown != 0 {
                *a |= b;
                self.len += grown.count_ones() as usize;
            }
        }
    }

    /// In-place intersection: `self ← self ∩ other`, whole words at a time.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        for (wi, a) in self.words.iter_mut().enumerate() {
            let b = other.words.get(wi).copied().unwrap_or(0);
            let lost = *a & !b;
            if lost != 0 {
                *a &= b;
                self.len -= lost.count_ones() as usize;
            }
        }
    }

    /// In-place difference: `self ← self \ other`, whole words at a time.
    pub fn difference_with(&mut self, other: &NodeSet) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let lost = *a & b;
            if lost != 0 {
                *a &= !b;
                self.len -= lost.count_ones() as usize;
            }
        }
    }

    /// Inserts every id of an **ascending sorted** slice — the shape of a
    /// [`crate::DynGraph`] neighbor slice — by building each 64-bit chunk
    /// of the implied neighbor mask and OR-ing it in as one word.
    ///
    /// For a high-degree node this replaces `deg` bounds-checked per-bit
    /// inserts with one read-modify-write per *occupied word*, which is
    /// what makes candidate-front unions word-parallel.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `ids` is sorted ascending (duplicates allowed).
    pub fn insert_sorted_slice(&mut self, ids: &[NodeId]) {
        debug_assert!(ids.windows(2).all(|w| w[0] <= w[1]), "slice not sorted");
        let mut i = 0;
        while i < ids.len() {
            let word = slot(ids[i]) / 64;
            let mut mask = 0u64;
            while i < ids.len() && slot(ids[i]) / 64 == word {
                mask |= 1u64 << (slot(ids[i]) % 64);
                i += 1;
            }
            if word >= self.words.len() {
                self.regrows += u64::from(word + 1 > self.words.capacity());
                self.words.resize(word + 1, 0);
            }
            let grown = mask & !self.words[word];
            if grown != 0 {
                self.words[word] |= mask;
                self.len += grown.count_ones() as usize;
            }
        }
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for NodeSet {}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = NodeSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// The settle front: a min-queue of `(key, id)` pairs in lexicographic
/// order.
///
/// Every settle drain in the workspace — `dmis-core`'s `MisEngine` and
/// each shard of its sharded schedule, and `dmis-derived`'s coloring and
/// matching engines — pops its dirty set in increasing π, and pushes the
/// priority `(key, id)` itself. No node ever needs a position in a global
/// table, so inserting a node moves nothing else, and a seed can enter
/// the front the moment it is marked dirty. An entry is the pair packed
/// into one `u128` (key in the high half, so integer order is pair
/// order).
///
/// The front is a binary heap with one fast path for the shape of a
/// settle. A drain starts from a batch of seeds pushed between drains, in
/// arbitrary order, and then only pushes entries above the one just
/// popped (a flip at priority `p` dirties neighbors above `p`), few of
/// them, since by Theorem 1 a change flips O(1) nodes in expectation. So
/// the front keeps the seeds in a plain run, sorts it once when the
/// drain's first pop comes, and sends only the in-drain pushes through
/// the heap; a pop takes the smaller of the run's end and the heap's top.
/// On 64 random seeds this costs about half of what a heap costs per
/// entry (see `DESIGN.md`). A drain ends when [`Self::pop`] returns
/// `None`; pushes after that seed the next drain, so a shard's front
/// takes the epoch barrier's handoffs as the next epoch's seeds. Both
/// containers keep their capacity, so steady-state settles allocate
/// nothing.
///
/// Duplicates are kept (the MIS engines deduplicate with their
/// `enqueued` bitsets; the coloring and matching drains skip a pop equal
/// to the previous one), and equal entries pop consecutively.
///
/// # Example
///
/// ```
/// use dmis_graph::{NodeId, SettleFront};
///
/// let mut front = SettleFront::new();
/// front.push(9, NodeId(1));
/// front.push(4, NodeId(7));
/// front.push(4, NodeId(2));
/// assert_eq!(front.pop(), Some((4, NodeId(2))), "ties break by id");
/// front.push(6, NodeId(3)); // mid-drain: above the last pop
/// assert_eq!(front.pop(), Some((4, NodeId(7))));
/// assert_eq!(front.pop(), Some((6, NodeId(3))));
/// assert_eq!(front.pop(), Some((9, NodeId(1))));
/// assert_eq!(front.pop(), None);
/// // Drained: the next pushes seed a new drain, in any order.
/// front.push(1, NodeId(5));
/// assert_eq!(front.pop(), Some((1, NodeId(5))));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SettleFront {
    /// Entries pushed between drains; sorted descending (minimum last)
    /// by the first pop of a drain.
    run: Vec<u128>,
    /// Entries pushed during a drain.
    heap: BinaryHeap<Reverse<u128>>,
    /// Whether a drain is under way: set by its first pop, cleared when
    /// a pop finds the front empty.
    draining: bool,
}

impl SettleFront {
    /// Creates an empty front.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending entries, duplicates included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Returns `true` if nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Marks `(key, id)` pending: as a seed of the next drain, or, during
    /// a drain, through the heap.
    #[inline]
    pub fn push(&mut self, key: u64, id: NodeId) {
        let x = (u128::from(key) << 64) | u128::from(id.index());
        if self.draining {
            self.heap.push(Reverse(x));
        } else {
            self.run.push(x);
        }
    }

    /// Removes and returns the minimum pending `(key, id)`. Returns `None`
    /// once the front is drained, which ends the drain.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, NodeId)> {
        if !self.draining {
            self.run.sort_unstable_by(|a, b| b.cmp(a));
            self.draining = true;
        }
        let x = match (self.run.last(), self.heap.peek()) {
            (None, None) => {
                self.draining = false;
                return None;
            }
            (Some(&r), Some(&Reverse(h))) if h < r => self.heap.pop()?.0,
            (Some(_), _) => self.run.pop()?,
            (None, Some(_)) => self.heap.pop()?.0,
        };
        // Low half: the node id; high half: the key.
        Some(((x >> 64) as u64, NodeId(x as u64)))
    }
}

/// Buckets of a fresh [`EdgeSlotIndex`]'s first table.
const MIN_EDGE_BUCKETS: usize = 16;

/// A dense open-addressing index from [`EdgeKey`] to a queue position,
/// holding one run of entries at a time.
///
/// `dmis-core`'s `ChangeCoalescer` looks every queued edge change up here
/// to find the earlier change on the same edge. A bucket holds the packed
/// `(lo, hi)` key, the position and the stamp of the run that wrote it.
/// A fixed integer mixer picks a key's home bucket and a miss probes
/// linearly. [`Self::clear`] starts a new run by bumping the stamp, so it
/// costs O(1) however many entries the old run left: a bucket with an
/// older stamp reads as empty. The capacity is a power of two that
/// doubles once a run fills half of it and never shrinks, so a warm index
/// serves run after run without allocating, and its size is bounded by
/// the largest run it has held.
///
/// There is no delete. A caller that retires an entry rewrites its
/// position instead (the coalescer leaves a cancelled pair's entry
/// pointing at the tombstone it queued). The table is never iterated, so
/// its layout cannot leak into any output.
///
/// A lookup costs O(1) expected. The mixer is fixed and unkeyed, so keys
/// chosen against it can share one probe run and degrade a lookup to
/// O(entries in the run).
///
/// # Example
///
/// ```
/// use dmis_graph::{EdgeKey, EdgeSlotIndex, NodeId};
///
/// let mut index = EdgeSlotIndex::new();
/// let key = EdgeKey::new(NodeId(4), NodeId(1));
/// assert_eq!(index.find_or_insert(key, 0), None, "absent: records 0");
/// let twin = EdgeKey::new(NodeId(1), NodeId(4));
/// let slot = index.find_or_insert(twin, 9).expect("present");
/// assert_eq!(*slot, 0);
/// *slot = 3; // entries are rewritten in place
/// assert_eq!(index.find_or_insert(key, 9).copied(), Some(3));
/// index.clear();
/// assert_eq!(index.find_or_insert(key, 5), None, "a clear forgets the run");
/// ```
#[derive(Debug, Clone)]
pub struct EdgeSlotIndex {
    /// Power-of-two table (empty until the first insert).
    buckets: Vec<EdgeBucket>,
    /// `64 − log2(buckets.len())`: the mixer's top bits pick the home
    /// bucket.
    shift: u32,
    /// Stamp of the current run. A bucket is occupied iff it carries this
    /// stamp; fresh buckets carry 0 and runs start at 1. A `u64` bumped
    /// once per clear does not wrap.
    run: u64,
    /// Buckets occupied by the current run.
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct EdgeBucket {
    /// `lo` in the high half, `hi` in the low half.
    key: u128,
    slot: usize,
    run: u64,
}

impl Default for EdgeSlotIndex {
    fn default() -> Self {
        EdgeSlotIndex {
            buckets: Vec::new(),
            shift: 64,
            run: 1,
            len: 0,
        }
    }
}

impl EdgeSlotIndex {
    /// Creates an empty index; its first insert allocates.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the position recorded for `key` in the current run, for
    /// the caller to read or rewrite, or records `slot` for it and returns
    /// `None`.
    #[inline]
    pub fn find_or_insert(&mut self, key: EdgeKey, slot: usize) -> Option<&mut usize> {
        if 2 * (self.len + 1) > self.buckets.len() {
            self.grow();
        }
        let (lo, hi) = key.endpoints();
        let key = (u128::from(lo.index()) << 64) | u128::from(hi.index());
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        loop {
            let bucket = self.buckets[i];
            if bucket.run != self.run {
                self.buckets[i] = EdgeBucket {
                    key,
                    slot,
                    run: self.run,
                };
                self.len += 1;
                return None;
            }
            if bucket.key == key {
                return Some(&mut self.buckets[i].slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Forgets every entry in O(1), keeping the capacity.
    pub fn clear(&mut self) {
        self.run += 1;
        self.len = 0;
    }

    /// Home bucket of a packed key: the top bits of a two-multiply mix.
    #[inline]
    fn home(&self, key: u128) -> usize {
        let lo = (key >> 64) as u64;
        let mixed = (lo.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key as u64)
            .wrapping_mul(0xD6E8_FEB8_6659_FD93);
        (mixed >> self.shift) as usize
    }

    /// Doubles the table and re-inserts the current run's entries.
    #[cold]
    fn grow(&mut self) {
        let capacity = (2 * self.buckets.len()).max(MIN_EDGE_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![EdgeBucket::default(); capacity]);
        self.shift = 64 - capacity.trailing_zeros();
        let mask = capacity - 1;
        for bucket in old.into_iter().filter(|b| b.run == self.run) {
            let mut i = self.home(bucket.key);
            while self.buckets[i].run == self.run {
                i = (i + 1) & mask;
            }
            self.buckets[i] = bucket;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_remove() {
        let mut m: NodeMap<u32> = NodeMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId(5), 50), None);
        assert_eq!(m.insert(NodeId(5), 55), Some(50));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(NodeId(5)), Some(&55));
        assert_eq!(m.get(NodeId(4)), None);
        assert_eq!(m.get(NodeId(99)), None, "past the slot vector");
        *m.get_mut(NodeId(5)).unwrap() += 1;
        assert_eq!(m[NodeId(5)], 56);
        assert_eq!(m.remove(NodeId(5)), Some(56));
        assert_eq!(m.remove(NodeId(5)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn map_iterates_in_id_order() {
        let m: NodeMap<char> = [(NodeId(9), 'c'), (NodeId(0), 'a'), (NodeId(4), 'b')]
            .into_iter()
            .collect();
        let pairs: Vec<_> = m.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(
            pairs,
            vec![(NodeId(0), 'a'), (NodeId(4), 'b'), (NodeId(9), 'c')]
        );
        assert_eq!(m.values().copied().collect::<String>(), "abc");
    }

    #[test]
    fn map_equality_ignores_trailing_vacancy() {
        let mut a: NodeMap<u8> = NodeMap::new();
        let mut b: NodeMap<u8> = NodeMap::new();
        a.insert(NodeId(1), 7);
        b.insert(NodeId(1), 7);
        b.insert(NodeId(60), 9);
        b.remove(NodeId(60));
        assert_eq!(a, b, "same contents, different slot vectors");
        b.insert(NodeId(2), 7);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "no entry for node n3")]
    fn map_index_panics_on_vacant() {
        let m: NodeMap<u8> = NodeMap::new();
        let _ = m[NodeId(3)];
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.insert(NodeId(0)));
        assert!(s.insert(NodeId(63)));
        assert!(s.insert(NodeId(64)));
        assert!(!s.insert(NodeId(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId(63)));
        assert!(!s.contains(NodeId(62)));
        assert!(!s.contains(NodeId(1000)), "past the word vector");
        assert!(s.remove(NodeId(63)));
        assert!(!s.remove(NodeId(63)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_iterates_in_ascending_order() {
        let ids = [200u64, 0, 64, 63, 1, 128];
        let s: NodeSet = ids.iter().map(|&i| NodeId(i)).collect();
        let got: Vec<u64> = s.iter().map(NodeId::index).collect();
        assert_eq!(got, vec![0, 1, 63, 64, 128, 200]);
    }

    #[test]
    fn set_equality_ignores_trailing_zero_words() {
        let mut a = NodeSet::new();
        let mut b = NodeSet::new();
        a.insert(NodeId(3));
        b.insert(NodeId(3));
        b.insert(NodeId(500));
        b.remove(NodeId(500));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "{n3}");
    }

    #[test]
    fn set_word_ops_match_per_bit_reference() {
        let build = |ids: &[u64]| ids.iter().map(|&i| NodeId(i)).collect::<NodeSet>();
        let a_ids = [0u64, 5, 63, 64, 130, 200];
        let b_ids = [5u64, 64, 65, 129, 130, 512];
        let reference = |op: fn(&u64, &[u64]) -> bool| {
            a_ids
                .iter()
                .filter(|i| op(i, &b_ids))
                .copied()
                .collect::<Vec<_>>()
        };

        let mut u = build(&a_ids);
        u.union_with(&build(&b_ids));
        let mut want: Vec<u64> = a_ids.iter().chain(&b_ids).copied().collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(u.iter().map(NodeId::index).collect::<Vec<_>>(), want);
        assert_eq!(u.len(), want.len(), "popcount len after union");

        let mut i = build(&a_ids);
        i.intersect_with(&build(&b_ids));
        let want = reference(|i, b| b.contains(i));
        assert_eq!(i.iter().map(NodeId::index).collect::<Vec<_>>(), want);
        assert_eq!(i.len(), want.len(), "popcount len after intersect");

        let mut d = build(&a_ids);
        d.difference_with(&build(&b_ids));
        let want = reference(|i, b| !b.contains(i));
        assert_eq!(d.iter().map(NodeId::index).collect::<Vec<_>>(), want);
        assert_eq!(d.len(), want.len(), "popcount len after difference");

        // Asymmetric word lengths: the shorter operand acts as zeros.
        let mut small = build(&[1]);
        small.intersect_with(&build(&[1, 1000]));
        assert_eq!(small.len(), 1);
        let mut small = build(&[1, 1000]);
        small.intersect_with(&build(&[1]));
        assert_eq!(small.iter().collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn set_insert_sorted_slice_is_per_bit_equivalent() {
        let ids: Vec<NodeId> = [3u64, 4, 5, 63, 64, 64, 127, 128, 500]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        let mut batched = NodeSet::new();
        batched.insert(NodeId(4));
        batched.insert(NodeId(700));
        let mut per_bit = batched.clone();
        batched.insert_sorted_slice(&ids);
        per_bit.extend(ids.iter().copied());
        assert_eq!(batched, per_bit);
        assert_eq!(batched.len(), per_bit.len());
        batched.insert_sorted_slice(&[]);
        assert_eq!(batched, per_bit);
    }

    #[test]
    fn set_words_expose_backing_bits() {
        let s: NodeSet = [0u64, 1, 64].iter().map(|&i| NodeId(i)).collect();
        assert_eq!(s.words(), &[0b11, 0b1]);
    }

    #[test]
    fn popcount_matches_cached_len_through_word_kernels() {
        let mut s: NodeSet = [0u64, 63, 64, 130, 500]
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        assert_eq!(s.popcount(), s.len());
        s.union_with(&[64u64, 65, 1000].iter().map(|&i| NodeId(i)).collect());
        assert_eq!(s.popcount(), s.len());
        s.insert_sorted_slice(&[NodeId(2), NodeId(3), NodeId(2000)]);
        assert_eq!(s.popcount(), s.len());
        s.difference_with(&[63u64, 65].iter().map(|&i| NodeId(i)).collect());
        assert_eq!(s.popcount(), s.len());
        s.remove(NodeId(0));
        assert_eq!(s.popcount(), s.len());
    }

    #[test]
    fn pre_sized_containers_never_regrow() {
        let mut m: NodeMap<u32> = NodeMap::with_capacity(200);
        let mut s = NodeSet::with_capacity(200);
        for i in 0..200 {
            m.insert(NodeId(i), 0);
            s.insert(NodeId(i));
        }
        assert_eq!(m.regrows(), 0, "map was pre-sized");
        assert_eq!(s.regrows(), 0, "set was pre-sized");
        // Past the reservation: growth now counts.
        m.insert(NodeId(100_000), 0);
        s.insert(NodeId(100_000));
        assert_eq!(m.regrows(), 1);
        assert_eq!(s.regrows(), 1);
        // reserve_* then grow again within the new reservation: no count.
        m.reserve_slots(200_000);
        s.reserve_nodes(200_000);
        m.insert(NodeId(199_999), 0);
        s.insert(NodeId(199_999));
        assert_eq!(m.regrows(), 1);
        assert_eq!(s.regrows(), 1);
    }

    #[test]
    fn set_clear_keeps_allocation_semantics() {
        let mut s: NodeSet = (0..130).map(NodeId).collect();
        assert_eq!(s.len(), 130);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(NodeId(5)));
        assert!(s.insert(NodeId(5)));
    }

    fn p(key: u64, id: u64) -> (u64, NodeId) {
        (key, NodeId(id))
    }

    fn drain(front: &mut SettleFront) -> Vec<(u64, NodeId)> {
        std::iter::from_fn(|| front.pop()).collect()
    }

    #[test]
    fn front_pops_in_key_then_id_order() {
        let mut front = SettleFront::new();
        let pushed = [
            p(u64::MAX, 0),
            p(0, 9),
            p(7, 3),
            p(7, 1),
            p(0, 2),
            p(1 << 63, 5),
            p(7, u64::MAX),
        ];
        for &(key, id) in &pushed {
            front.push(key, id);
        }
        assert_eq!(front.len(), pushed.len());
        let mut want = pushed.to_vec();
        want.sort_unstable();
        assert_eq!(drain(&mut front), want, "(key, id) order, ties by id");
        assert!(front.is_empty());
        assert_eq!(front.pop(), None);
    }

    #[test]
    fn drained_front_accepts_a_push_below_its_last_pop() {
        // A shard drains its front, then the epoch barrier hands it
        // deltas for nodes below anything it popped: they seed the next
        // drain.
        let mut front = SettleFront::new();
        front.push(500, NodeId(1));
        front.push(900, NodeId(2));
        assert_eq!(front.pop(), Some(p(500, 1)));
        front.push(700, NodeId(3)); // mid-drain: above the last pop
        assert_eq!(drain(&mut front), vec![p(700, 3), p(900, 2)]);
        front.push(10, NodeId(4));
        front.push(600, NodeId(5));
        front.push(10, NodeId(0));
        assert_eq!(drain(&mut front), vec![p(10, 0), p(10, 4), p(600, 5)]);
    }

    #[test]
    fn front_duplicates_pop_consecutively() {
        let mut front = SettleFront::new();
        for (key, id) in [p(3, 3), p(8, 1), p(3, 3), p(5, 0), p(8, 1)] {
            front.push(key, id);
        }
        assert_eq!(
            drain(&mut front),
            vec![p(3, 3), p(3, 3), p(5, 0), p(8, 1), p(8, 1)]
        );
    }

    #[test]
    fn front_matches_heap_on_random_interleavings() {
        // Settle-loop shape: seeds in arbitrary order, pushes during a
        // drain strictly above the last pop, drains run to `None`.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut front = SettleFront::new();
        for _ in 0..300 {
            let mut heap = BinaryHeap::new();
            for _ in 0..next() % 12 {
                // Narrow keys force id tie-breaks; wide ones span the range.
                let key = if next() % 2 == 0 { next() % 4 } else { next() };
                let q = p(key, next() % 64);
                front.push(q.0, q.1);
                heap.push(Reverse(q));
            }
            let mut pushes = 0;
            while let Some(Reverse(want)) = heap.pop() {
                assert_eq!(front.pop(), Some(want));
                while pushes < 40 && next() % 3 != 0 {
                    pushes += 1;
                    let q = p(want.0.saturating_add(next() % 1000), next() % 64);
                    if q > want {
                        front.push(q.0, q.1);
                        heap.push(Reverse(q));
                    }
                }
                assert_eq!(front.len(), heap.len());
            }
            assert_eq!(front.pop(), None);
        }
    }

    #[test]
    fn capacity_persists_so_a_warm_front_never_reallocates() {
        let run = |front: &mut SettleFront| {
            for round in 0..50u64 {
                for i in 0..40u64 {
                    front.push(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round, NodeId(i));
                }
                let mut last = None;
                while let Some(q) = front.pop() {
                    assert!(last < Some(q), "pops ascend");
                    // A flip at q dirties one node above it.
                    let (key, id) = q;
                    if id.index() % 5 == 0 && key < u64::MAX - 8 {
                        front.push(key + 1 + round % 7, NodeId(id.index() + 1));
                    }
                    last = Some(q);
                }
            }
        };
        let mut front = SettleFront::new();
        run(&mut front);
        let warm = (front.run.capacity(), front.heap.capacity());
        assert!(warm.0 >= 40 && warm.1 > 0, "the first pass allocates");
        let buffer = front.run.as_ptr();
        run(&mut front);
        assert_eq!((front.run.capacity(), front.heap.capacity()), warm);
        assert_eq!(front.run.as_ptr(), buffer, "a warm front never reallocates");
    }

    fn edge(a: u64, b: u64) -> EdgeKey {
        EdgeKey::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn edge_index_matches_btreemap_across_runs() {
        // Random finds, rewrites and clears over a narrow id range (many
        // repeats) against an ordered-map oracle.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut index = EdgeSlotIndex::new();
        let mut oracle = std::collections::BTreeMap::new();
        for step in 0..20_000usize {
            if next() % 500 == 0 {
                index.clear();
                oracle.clear();
                continue;
            }
            let a = next() % 48;
            let b = (a + 1 + next() % 47) % 48;
            let (key, twin) = (edge(a, b), edge(b, a));
            let found = index.find_or_insert(if step % 2 == 0 { key } else { twin }, step);
            match oracle.get_mut(&key) {
                Some(slot) => {
                    let got = found.expect("oracle holds the key");
                    assert_eq!(*got, *slot, "step {step}");
                    if next() % 2 == 0 {
                        *got = step;
                        *slot = step;
                    }
                }
                None => {
                    assert_eq!(found, None, "step {step}");
                    oracle.insert(key, step);
                }
            }
            assert_eq!(index.len, oracle.len());
        }
    }

    #[test]
    fn edge_index_grows_by_rehashing_and_keeps_its_capacity_across_clears() {
        let mut index = EdgeSlotIndex::new();
        let keys: Vec<EdgeKey> = (0..10_000u64).map(|i| edge(i / 7, 5_000 + i)).collect();
        for (slot, &key) in keys.iter().enumerate() {
            assert_eq!(index.find_or_insert(key, slot), None);
            assert!(
                2 * index.len <= index.buckets.len(),
                "load stays at most 1/2"
            );
        }
        assert_eq!(index.buckets.len(), 1 << 15, "grew from 16 to 2^15");
        for (slot, &key) in keys.iter().enumerate() {
            assert_eq!(index.find_or_insert(key, 0).copied(), Some(slot), "{key:?}");
        }
        let buffer = index.buckets.as_ptr();
        for round in 0..3 {
            index.clear();
            assert_eq!(index.len, 0);
            for (slot, &key) in keys.iter().enumerate().skip(round) {
                assert_eq!(index.find_or_insert(key, slot), None, "cleared: {key:?}");
            }
        }
        assert_eq!(
            index.buckets.as_ptr(),
            buffer,
            "a warm index never reallocates"
        );
    }
}
