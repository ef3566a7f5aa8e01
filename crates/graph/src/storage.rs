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

use std::collections::TryReserveError;
use std::fmt;
use std::ops::{Index, IndexMut};

use crate::NodeId;

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

/// A two-level bitset min-queue over a dense *rank* space — the
/// word-parallel replacement for a `BinaryHeap` whose keys are a fixed
/// permutation of a dense id space.
///
/// The pending set lives in leaf words (bit `r % 64` of `words[r / 64]`);
/// a summary level keeps one bit per non-zero leaf word (bit `w % 64` of
/// `summary[w / 64]`), so [`Self::pop_min`] finds the minimum pending
/// rank with two `trailing_zeros` instructions once the scan cursor sits
/// on a non-empty summary word. [`Self::insert`] touches exactly one word
/// per level and can only *lower* the cursor, and every pop either stays
/// on the cursor's summary word or advances it — so a full
/// insert-all/pop-all cycle costs O(inserts + summary words spanned), not
/// O(pending · log pending) like the heap it replaces, and performs **no
/// allocation** once the backing words have grown to the rank span
/// (capacity persists across [`Self::pop_min`] draining the queue).
///
/// Ranks must order-match the priority the caller settles by; producing
/// them from a priority map is the engine crate's job (its `RankIndex`).
/// Unlike a heap, inserting a rank already pending is a no-op (the queue
/// is a *set*), which is exactly the settle loop's dedup semantics.
///
/// # Example
///
/// ```
/// use dmis_graph::RankFront;
///
/// let mut front = RankFront::new();
/// front.insert(130);
/// front.insert(7);
/// assert!(!front.insert(7), "already pending");
/// assert_eq!(front.pop_min(), Some(7));
/// front.insert(2); // lower than anything popped so far: cursor rewinds
/// assert_eq!(front.pop_min(), Some(2));
/// assert_eq!(front.pop_min(), Some(130));
/// assert_eq!(front.pop_min(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RankFront {
    /// Leaf level: bit `r % 64` of `words[r / 64]` ⟺ rank `r` pending.
    words: Vec<u64>,
    /// Summary level: bit `w % 64` of `summary[w / 64]` ⟺ `words[w] ≠ 0`.
    summary: Vec<u64>,
    /// Lowest summary-word index that may hold a set bit. Monotone during
    /// a drain; rewound by inserts below it.
    cursor: usize,
    /// Number of pending ranks.
    len: usize,
    /// Times an insert-driven word growth had to reallocate either level
    /// (see [`NodeMap::regrows`]).
    regrows: u64,
}

impl RankFront {
    /// Creates an empty front.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty front with room for ranks below `span` without
    /// reallocation.
    #[must_use]
    pub fn with_capacity(span: usize) -> Self {
        RankFront {
            words: Vec::with_capacity(span.div_ceil(64)),
            summary: Vec::with_capacity(span.div_ceil(64 * 64)),
            cursor: 0,
            len: 0,
            regrows: 0,
        }
    }

    /// Ensures ranks below `span` can be inserted without either level
    /// reallocating (and hence without counting a regrow).
    pub fn reserve(&mut self, span: usize) {
        let words = span.div_ceil(64);
        if words > self.words.capacity() {
            self.words.reserve(words - self.words.len());
        }
        let swords = span.div_ceil(64 * 64);
        if swords > self.summary.capacity() {
            self.summary.reserve(swords - self.summary.len());
        }
    }

    /// Times an insert had to *reallocate* a level's word vector to reach
    /// its rank. Growth within a prior reservation is not a regrow.
    #[must_use]
    pub fn regrows(&self) -> u64 {
        self.regrows
    }

    /// Number of pending ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no rank is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `rank` is pending.
    #[must_use]
    pub fn contains(&self, rank: usize) -> bool {
        self.words
            .get(rank / 64)
            .is_some_and(|w| w >> (rank % 64) & 1 == 1)
    }

    /// Marks `rank` pending; returns `true` if it was not already.
    pub fn insert(&mut self, rank: usize) -> bool {
        let (word, bit) = (rank / 64, 1u64 << (rank % 64));
        if word >= self.words.len() {
            self.regrows += u64::from(word + 1 > self.words.capacity());
            self.words.resize(word + 1, 0);
        }
        if self.words[word] & bit != 0 {
            return false;
        }
        self.words[word] |= bit;
        let (sword, sbit) = (word / 64, 1u64 << (word % 64));
        if sword >= self.summary.len() {
            self.regrows += u64::from(sword + 1 > self.summary.capacity());
            self.summary.resize(sword + 1, 0);
        }
        self.summary[sword] |= sbit;
        self.cursor = self.cursor.min(sword);
        self.len += 1;
        true
    }

    /// Removes and returns the minimum pending rank, if any.
    pub fn pop_min(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        while self.summary[self.cursor] == 0 {
            self.cursor += 1;
        }
        let sbit = self.summary[self.cursor].trailing_zeros() as usize;
        let word = self.cursor * 64 + sbit;
        let bit = self.words[word].trailing_zeros() as usize;
        self.words[word] &= self.words[word] - 1;
        if self.words[word] == 0 {
            self.summary[self.cursor] &= !(1u64 << sbit);
        }
        self.len -= 1;
        Some(word * 64 + bit)
    }

    /// Removes `rank` if pending; returns `true` if it was.
    pub fn remove(&mut self, rank: usize) -> bool {
        let (word, bit) = (rank / 64, 1u64 << (rank % 64));
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                if *w == 0 {
                    self.summary[word / 64] &= !(1u64 << (word % 64));
                }
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes all pending ranks, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.summary.iter_mut().for_each(|w| *w = 0);
        self.cursor = 0;
        self.len = 0;
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
    fn front_pops_in_ascending_rank_order() {
        let mut front = RankFront::new();
        for r in [4096usize, 0, 63, 64, 65, 4095, 70000] {
            assert!(front.insert(r));
        }
        assert!(!front.insert(63), "insert is idempotent");
        assert_eq!(front.len(), 7);
        assert!(front.contains(4095) && !front.contains(1));
        let mut popped = Vec::new();
        while let Some(r) = front.pop_min() {
            popped.push(r);
        }
        assert_eq!(popped, vec![0, 63, 64, 65, 4095, 4096, 70000]);
        assert!(front.is_empty());
        assert_eq!(front.pop_min(), None);
    }

    #[test]
    fn front_cursor_rewinds_on_lower_insert() {
        let mut front = RankFront::new();
        front.insert(10_000);
        assert_eq!(front.pop_min(), Some(10_000));
        // The cursor sits deep in the summary; a low insert must rewind it.
        front.insert(3);
        front.insert(20_000);
        assert_eq!(front.pop_min(), Some(3));
        assert_eq!(front.pop_min(), Some(20_000));
        assert_eq!(front.pop_min(), None);
    }

    #[test]
    fn front_matches_heap_on_random_interleavings() {
        // Settle-loop shape: pushes during a drain are strictly above the
        // last pop, plus arbitrary re-seeding between drains.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut front = RankFront::with_capacity(1 << 14);
        let mut heap = std::collections::BinaryHeap::new();
        let mut pending = std::collections::BTreeSet::new();
        for _ in 0..200 {
            for _ in 0..(next() % 8) {
                let r = (next() % (1 << 14)) as usize;
                let fresh = pending.insert(r);
                assert_eq!(front.insert(r), fresh, "insert at {r}");
                if fresh {
                    heap.push(std::cmp::Reverse(r));
                }
            }
            for _ in 0..(next() % 10) {
                let want = heap.pop().map(|std::cmp::Reverse(r)| {
                    assert!(pending.remove(&r), "models agree on membership");
                    r
                });
                assert_eq!(front.pop_min(), want);
            }
            assert_eq!(front.len(), pending.len());
        }
    }

    #[test]
    fn front_remove_and_clear() {
        let mut front = RankFront::new();
        front.insert(5);
        front.insert(900);
        assert!(front.remove(5));
        assert!(!front.remove(5));
        assert!(!front.remove(4000), "past the word vector");
        assert_eq!(front.pop_min(), Some(900));
        front.insert(1);
        front.clear();
        assert!(front.is_empty());
        assert_eq!(front.pop_min(), None);
        front.insert(64);
        assert_eq!(front.pop_min(), Some(64));
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
        let mut f = RankFront::with_capacity(200);
        for i in 0..200 {
            m.insert(NodeId(i), 0);
            s.insert(NodeId(i));
            f.insert(i as usize);
        }
        assert_eq!(m.regrows(), 0, "map was pre-sized");
        assert_eq!(s.regrows(), 0, "set was pre-sized");
        assert_eq!(f.regrows(), 0, "front was pre-sized");
        // Past the reservation: growth now counts.
        m.insert(NodeId(100_000), 0);
        s.insert(NodeId(100_000));
        f.insert(100_000);
        assert_eq!(m.regrows(), 1);
        assert_eq!(s.regrows(), 1);
        assert!(f.regrows() >= 1, "leaf (and possibly summary) regrew");
        // reserve_* then grow again within the new reservation: no count.
        m.reserve_slots(200_000);
        s.reserve_nodes(200_000);
        f.reserve(200_000);
        m.insert(NodeId(199_999), 0);
        s.insert(NodeId(199_999));
        f.insert(199_999);
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
}
