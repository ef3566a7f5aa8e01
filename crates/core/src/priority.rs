use std::fmt;

use dmis_graph::{NodeId, NodeMap};
use rand::Rng;

/// A node's position in the random order π.
///
/// The paper assumes "each node v ∈ V has a uniformly random and independent
/// ID ℓ_v ∈ [0, 1]" (Section 4). We realize ℓ as a uniform `u64` key; ties
/// (probability ≈ 2⁻⁶⁴ per pair) are broken by node identifier, so priorities
/// always form a strict total order — a uniformly random permutation of the
/// nodes.
///
/// Lower priority = earlier in π = inspected earlier by sequential greedy.
///
/// # Example
///
/// ```
/// use dmis_core::Priority;
/// use dmis_graph::NodeId;
///
/// let a = Priority::new(10, NodeId(0));
/// let b = Priority::new(20, NodeId(1));
/// assert!(a < b);
/// let tie = Priority::new(10, NodeId(1));
/// assert!(a < tie, "ties break by node identifier");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority {
    key: u64,
    id: NodeId,
}

impl Priority {
    /// Creates a priority with an explicit key (mainly for tests that need
    /// a prescribed order).
    #[must_use]
    pub const fn new(key: u64, id: NodeId) -> Self {
        Priority { key, id }
    }

    /// Draws a uniformly random priority for node `id`.
    pub fn random<R: Rng + ?Sized>(id: NodeId, rng: &mut R) -> Self {
        Priority {
            key: rng.random(),
            id,
        }
    }

    /// Returns the random key (the paper's ℓ value).
    #[must_use]
    pub const fn key(self) -> u64 {
        self.key
    }

    /// Returns the node this priority belongs to.
    #[must_use]
    pub const fn id(self) -> NodeId {
        self.id
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π({}, {:#x})", self.id, self.key)
    }
}

/// Assignment of priorities to the live nodes: the random order π.
///
/// History independence requires that a node's priority is drawn exactly
/// once, at insertion, and never redrawn; `PriorityMap` enforces this by
/// refusing to overwrite an existing assignment.
///
/// Backed by a dense [`NodeMap`] of keys alone — a slot's index is the
/// priority's id — so the `of`/`before` lookups on the settle loop's
/// neighbor filter are direct slot accesses into 16-byte slots.
///
/// # Example
///
/// ```
/// use dmis_core::{Priority, PriorityMap};
/// use dmis_graph::NodeId;
///
/// let mut pm = PriorityMap::from_order(&[NodeId(4), NodeId(0)]);
/// pm.insert(NodeId(2), Priority::new(0, NodeId(2)));
/// assert_eq!(pm.of(NodeId(0)), Priority::new(1, NodeId(0)));
/// // Keys order π; equal keys break by identifier.
/// assert_eq!(pm.nodes_by_priority(), [NodeId(2), NodeId(4), NodeId(0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PriorityMap {
    keys: NodeMap<u64>,
}

impl PriorityMap {
    /// Creates an empty assignment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the backing table for `n` nodes, so a bootstrap of up
    /// to `n` assignments performs no incremental regrows.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.keys.reserve_slots(n);
    }

    /// Times the backing table grew past its capacity (reallocated)
    /// since construction. 0 after an adequate [`Self::reserve_nodes`].
    #[must_use]
    pub fn regrows(&self) -> u64 {
        self.keys.regrows()
    }

    /// Draws and records a fresh random priority for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` already has a priority — redrawing would break history
    /// independence.
    pub fn assign<R: Rng + ?Sized>(&mut self, id: NodeId, rng: &mut R) -> Priority {
        let p = Priority::random(id, rng);
        self.insert(id, p);
        p
    }

    /// Records an explicit priority (for tests constructing prescribed
    /// orders).
    ///
    /// # Panics
    ///
    /// Panics if `id` already has a priority, or if the priority was built
    /// for a different node.
    pub fn insert(&mut self, id: NodeId, p: Priority) {
        assert_eq!(p.id(), id, "priority belongs to a different node");
        let prev = self.keys.insert(id, p.key());
        assert!(prev.is_none(), "priority of {id} must not be redrawn");
    }

    /// Removes the priority of a deleted node, returning it if present.
    pub fn remove(&mut self, id: NodeId) -> Option<Priority> {
        self.keys.remove(id).map(|key| Priority::new(key, id))
    }

    /// Returns the priority of `id`, if assigned.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<Priority> {
        self.keys.get(id).map(|&key| Priority::new(key, id))
    }

    /// Returns `true` if `a` is ordered before `b` in π.
    ///
    /// # Panics
    ///
    /// Panics if either node has no priority.
    #[must_use]
    pub fn before(&self, a: NodeId, b: NodeId) -> bool {
        self.of(a) < self.of(b)
    }

    /// Returns the priority of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node has no priority.
    #[must_use]
    pub fn of(&self, id: NodeId) -> Priority {
        self.get(id)
            .unwrap_or_else(|| panic!("node {id} has no priority"))
    }

    /// Number of assigned priorities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no priority is assigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over `(node, priority)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Priority)> + '_ {
        self.keys
            .iter()
            .map(|(id, &key)| (id, Priority::new(key, id)))
    }

    /// Returns the live nodes sorted by increasing priority — the order in
    /// which sequential greedy inspects them. Sorts 16-byte `(key, id)`
    /// pairs, which order exactly as the priorities do.
    #[must_use]
    pub fn nodes_by_priority(&self) -> Vec<NodeId> {
        let mut v: Vec<(u64, u64)> = self
            .keys
            .iter()
            .map(|(id, &key)| (key, id.index()))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, id)| NodeId(id)).collect()
    }

    /// Builds a map that realizes the given explicit order: `order[0]` gets
    /// the smallest priority, and so on. For tests and adversarial
    /// constructions.
    #[must_use]
    pub fn from_order(order: &[NodeId]) -> Self {
        let mut map = PriorityMap::new();
        for (rank, &id) in order.iter().enumerate() {
            map.insert(id, Priority::new(rank as u64, id));
        }
        map
    }
}

impl FromIterator<(NodeId, Priority)> for PriorityMap {
    fn from_iter<T: IntoIterator<Item = (NodeId, Priority)>>(iter: T) -> Self {
        let mut map = PriorityMap::new();
        for (id, p) in iter {
            map.insert(id, p);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ordering_is_strict_and_key_major() {
        let a = Priority::new(5, NodeId(9));
        let b = Priority::new(6, NodeId(0));
        assert!(a < b);
        assert!(Priority::new(5, NodeId(1)) < Priority::new(5, NodeId(2)));
    }

    #[test]
    fn assign_and_query() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pm = PriorityMap::new();
        let p = pm.assign(NodeId(3), &mut rng);
        assert_eq!(pm.get(NodeId(3)), Some(p));
        assert_eq!(pm.of(NodeId(3)), p);
        assert_eq!(pm.len(), 1);
        assert!(!pm.is_empty());
        assert_eq!(pm.remove(NodeId(3)), Some(p));
        assert!(pm.is_empty());
        assert_eq!(pm.remove(NodeId(3)), None);
    }

    #[test]
    fn random_churn_keeps_nodes_by_priority_in_pi_order() {
        // Insertions draw uniform keys (so most land mid-order) and
        // removals leave vacant slots; the pair sort must still realize
        // π over exactly the live nodes.
        let mut rng = StdRng::seed_from_u64(42);
        let mut pm = PriorityMap::new();
        let mut live: Vec<NodeId> = Vec::new();
        for step in 0..600u64 {
            if live.is_empty() || rng.random_bool(0.6) {
                let v = NodeId(step);
                pm.assign(v, &mut rng);
                live.push(v);
            } else {
                let v = live.swap_remove(rng.random_range(0..live.len() as u64) as usize);
                assert!(pm.remove(v).is_some());
            }
            if step % 50 == 0 {
                let mut want = live.clone();
                want.sort_unstable_by_key(|&v| pm.of(v));
                assert_eq!(pm.nodes_by_priority(), want, "step {step}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not be redrawn")]
    fn redraw_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pm = PriorityMap::new();
        pm.assign(NodeId(1), &mut rng);
        pm.assign(NodeId(1), &mut rng);
    }

    #[test]
    #[should_panic(expected = "different node")]
    fn mismatched_insert_panics() {
        let mut pm = PriorityMap::new();
        pm.insert(NodeId(1), Priority::new(0, NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "no priority")]
    fn missing_of_panics() {
        let pm = PriorityMap::new();
        let _ = pm.of(NodeId(0));
    }

    #[test]
    fn from_order_realizes_order() {
        let order = [NodeId(5), NodeId(2), NodeId(9)];
        let pm = PriorityMap::from_order(&order);
        assert!(pm.before(NodeId(5), NodeId(2)));
        assert!(pm.before(NodeId(2), NodeId(9)));
        assert_eq!(pm.nodes_by_priority(), order.to_vec());
    }

    #[test]
    fn nodes_by_priority_realizes_pi_with_id_tie_breaks() {
        let mut pm = PriorityMap::new();
        for (key, id) in [(7u64, 9u64), (3, 4), (7, 2), (u64::MAX, 0), (3, 1)] {
            pm.insert(NodeId(id), Priority::new(key, NodeId(id)));
        }
        assert_eq!(
            pm.nodes_by_priority(),
            [1u64, 4, 2, 9, 0].map(NodeId).to_vec(),
            "key-major, identifier-minor"
        );
        let mut by_of: Vec<NodeId> = pm.iter().map(|(id, _)| id).collect();
        by_of.sort_unstable_by_key(|&v| pm.of(v));
        assert_eq!(pm.nodes_by_priority(), by_of);
    }

    #[test]
    fn random_assignment_is_seed_deterministic() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pm = PriorityMap::new();
            for i in 0..10 {
                pm.assign(NodeId(i), &mut rng);
            }
            pm.nodes_by_priority()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds give different orders");
    }

    #[test]
    fn collect_from_iterator() {
        let pm: PriorityMap = (0..3)
            .map(|i| (NodeId(i), Priority::new(100 - i, NodeId(i))))
            .collect();
        assert_eq!(
            pm.nodes_by_priority(),
            vec![NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn debug_formats() {
        let p = Priority::new(255, NodeId(1));
        assert_eq!(format!("{p:?}"), "π(n1, 0xff)");
    }
}
