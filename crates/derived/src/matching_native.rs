use std::collections::{BTreeMap, BTreeSet};

use dmis_core::{Priority, PriorityMap};
use dmis_graph::{DynGraph, EdgeKey, GraphError, NodeId, NodeMap, NodeSet, SettleFront};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense identifier of a live edge in the [`NativeMatching`] arena — the
/// edge's *line-graph id*: the node it would be in `L(G)`, without `L(G)`
/// ever being materialized. Freed ids are recycled (an edge's random
/// *key* is redrawn on every insertion, so recycling ids cannot leak
/// history), which keeps the arena — and the matched bitset over it —
/// as compact as the live edge set.
type LineId = NodeId;

/// A matched/unmatched flip of one edge, reported by
/// [`NativeMatching`] receipts.
pub type EdgeFlip = (EdgeKey, bool);

/// Outcome of one native-matching update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchingReceipt {
    /// Edges whose matched-status changed, in settlement order, with the
    /// new status.
    pub flips: Vec<EdgeFlip>,
}

impl MatchingReceipt {
    /// Number of edges whose matched-status changed — the matching
    /// adjustment complexity of this change (expected O(1) per base-graph
    /// edge change, by Theorem 1 applied to the line graph).
    #[must_use]
    pub fn adjustments(&self) -> usize {
        self.flips.len()
    }
}

/// Dynamic maximal matching implemented **natively over edges** — the
/// random-greedy MIS of the line graph `L(G)` (Section 5), without ever
/// building `L(G)`: each edge draws a random priority at insertion, and an
/// edge is matched iff no incident edge of lower priority is matched.
///
/// The facade's `tests/reductions.rs` checks it against the reduction
/// itself: after every change, the matching equals the static greedy MIS
/// of a freshly built `L(G)` whose line nodes carry the same keys. The
/// engine stores `O(n + m)` state instead of the line graph's
/// `O(m + Σ deg²)` adjacency, which matters on dense graphs.
///
/// # Example
///
/// ```
/// use dmis_derived::{verify, NativeMatching};
/// use dmis_graph::generators;
///
/// let (g, ids) = generators::cycle(8);
/// let mut nm = NativeMatching::new(g, 9);
/// assert!(verify::is_maximal_matching(nm.graph(), &nm.matching()));
/// nm.remove_edge(ids[0], ids[1])?;
/// assert!(verify::is_maximal_matching(nm.graph(), &nm.matching()));
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NativeMatching {
    graph: DynGraph,
    /// Live edge → its dense arena id (the first slice of the edge-keyed
    /// dense storage story: the *state* behind an edge is slot-indexed;
    /// only this lookup still walks a tree).
    line_id: BTreeMap<EdgeKey, LineId>,
    /// The arena: line id → `(edge, random key)`. Vacant after deletion;
    /// vacated ids are recycled through `free`.
    slots: NodeMap<(EdgeKey, u64)>,
    /// Recycled line ids, reused LIFO.
    free: Vec<LineId>,
    /// Next never-used line id when `free` is empty.
    next_line: u64,
    /// Matched-status bitset keyed by line id — one bit per live edge,
    /// replacing the `BTreeSet<EdgeKey>` of matched keys.
    matched: NodeSet,
    /// Per node: the matched edge covering it, if any. An edge is matched
    /// iff both its endpoints point at it; this doubles as the
    /// lower-matched-neighbor oracle.
    cover: NodeMap<EdgeKey>,
    /// The edge order as a [`PriorityMap`] keyed by **line id**:
    /// `Priority::new(key, line_id)`, i.e. random key major, dense line
    /// id as the tie-break. This is the canonical settle order.
    line_prio: PriorityMap,
    /// Persistent dirty queue of line ids, keyed by `line_prio`.
    front: SettleFront,
    rng: StdRng,
}

impl NativeMatching {
    /// Creates the structure over `graph`, drawing a random priority per
    /// edge from `seed` and computing the initial greedy matching.
    ///
    /// O(m log m): every edge is admitted with its key drawn in
    /// `graph.edges()` order — the same draws and line ids that m
    /// [`Self::insert_edge`] calls would make — then the greedy matching
    /// is taken in the edges' priority order.
    #[must_use]
    pub fn new(graph: DynGraph, seed: u64) -> Self {
        let mut nm = Self::empty(seed);
        let mut id_map: NodeMap<NodeId> = NodeMap::new();
        for v in graph.nodes() {
            id_map.insert(v, nm.graph.add_node());
        }
        debug_assert!(
            graph.nodes().all(|v| id_map.get(v) == Some(&v)),
            "fresh ids align"
        );
        for e in graph.edges() {
            let (u, v) = e.endpoints();
            nm.graph.insert_edge(u, v).expect("valid source graph");
            let key = nm.rng.random();
            nm.alloc_line(e, key);
        }
        for id in nm.line_prio.nodes_by_priority() {
            let e = nm.slots[id].0;
            let (u, v) = e.endpoints();
            if nm.cover.get(u).is_none() && nm.cover.get(v).is_none() {
                nm.apply_flip(id, e, true);
            }
        }
        nm
    }

    /// An empty structure (no nodes, no edges) seeded for key draws.
    fn empty(seed: u64) -> Self {
        NativeMatching {
            graph: DynGraph::new(),
            line_id: BTreeMap::new(),
            slots: NodeMap::new(),
            free: Vec::new(),
            next_line: 0,
            matched: NodeSet::new(),
            cover: NodeMap::new(),
            line_prio: PriorityMap::new(),
            front: SettleFront::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Admits a live edge into the arena, recycling a vacated id when one
    /// is available.
    fn alloc_line(&mut self, e: EdgeKey, key: u64) -> LineId {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = NodeId(self.next_line);
            self.next_line += 1;
            id
        });
        debug_assert!(!self.matched.contains(id), "recycled id carries a bit");
        self.slots.insert(id, (e, key));
        self.line_id.insert(e, id);
        // Recycled ids re-enter π with a fresh key: the old priority was
        // removed at release, so the no-redraw invariant holds per
        // id-lifetime exactly as for graph nodes.
        self.line_prio.insert(id, Priority::new(key, id));
        id
    }

    /// Retires a deleted edge's id, clearing its matched bit first so the
    /// recycled slot starts clean. Returns `(id, was_matched)`.
    fn release_line(&mut self, e: EdgeKey) -> (LineId, bool) {
        let id = self.line_id.remove(&e).expect("live edge");
        let was_matched = self.matched.remove(id);
        self.slots.remove(id);
        self.line_prio.remove(id);
        self.free.push(id);
        (id, was_matched)
    }

    /// The base graph.
    #[must_use]
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The current maximal matching, as sorted edge keys (the arena's
    /// bitset is the storage; this materializes the stable public view).
    #[must_use]
    pub fn matching(&self) -> BTreeSet<EdgeKey> {
        self.matched.iter().map(|id| self.slots[id].0).collect()
    }

    /// Number of matched edges — a popcount on the arena bitset, no
    /// materialization.
    #[must_use]
    pub fn matching_len(&self) -> usize {
        self.matched.len()
    }

    /// Returns `true` if the edge `{u, v}` is currently matched.
    #[must_use]
    pub fn is_matched(&self, u: NodeId, v: NodeId) -> bool {
        self.line_id
            .get(&EdgeKey::new(u, v))
            .is_some_and(|&id| self.matched.contains(id))
    }

    fn priority_of(&self, e: EdgeKey) -> Priority {
        self.line_prio.of(self.line_id[&e])
    }

    /// An edge wants to be matched iff neither endpoint is covered by a
    /// matched edge of lower priority.
    fn desired(&self, e: EdgeKey) -> bool {
        let (u, v) = e.endpoints();
        for endpoint in [u, v] {
            if let Some(&cov) = self.cover.get(endpoint) {
                if cov != e && self.priority_of(cov) < self.priority_of(e) {
                    return false;
                }
            }
        }
        true
    }

    /// Incident live edges of `e` (sharing an endpoint).
    fn incident(&self, e: EdgeKey) -> Vec<EdgeKey> {
        let (u, v) = e.endpoints();
        let mut out = Vec::new();
        for endpoint in [u, v] {
            if let Some(nbrs) = self.graph.neighbors(endpoint) {
                for w in nbrs {
                    let k = EdgeKey::new(endpoint, w);
                    if k != e {
                        out.push(k);
                    }
                }
            }
        }
        out
    }

    /// Applies one flip's matched-set and cover-map mutation.
    fn apply_flip(&mut self, id: LineId, e: EdgeKey, desired: bool) {
        let (u, v) = e.endpoints();
        if desired {
            self.matched.insert(id);
            self.cover.insert(u, e);
            self.cover.insert(v, e);
        } else {
            self.matched.remove(id);
            for endpoint in [u, v] {
                if self.cover.get(endpoint) == Some(&e) {
                    self.cover.remove(endpoint);
                }
            }
        }
    }

    /// Settles dirty edges in increasing priority order — the edge-level
    /// image of the MIS engine's propagation: an edge's final status is
    /// decided at its first pop, because every lower-priority flip
    /// precedes it. Dirty line ids wait in the persistent
    /// [`SettleFront`], keyed by `line_prio`, and the incident filter
    /// compares priorities. The front keeps duplicate pushes, which pop
    /// consecutively, so a pop equal to the previous one is skipped: each
    /// dirty edge settles once.
    fn propagate(&mut self, seeds: Vec<EdgeKey>) -> MatchingReceipt {
        debug_assert!(self.front.is_empty(), "settle front leaked entries");
        for e in seeds {
            // A deletion may seed edges it also removed; only live edges
            // hold a priority.
            if let Some(&id) = self.line_id.get(&e) {
                self.front.push(self.line_prio.of(id).key(), id);
            }
        }
        let mut flips = Vec::new();
        let mut last = None;
        while let Some((key, id)) = self.front.pop() {
            let p = Priority::new(key, id);
            if last.replace(p) == Some(p) {
                continue;
            }
            let e = self.slots[id].0;
            let desired = self.desired(e);
            if desired == self.matched.contains(id) {
                continue;
            }
            self.apply_flip(id, e, desired);
            flips.push((e, desired));
            for other in self.incident(e) {
                let po = self.line_prio.of(self.line_id[&other]);
                if po > p {
                    self.front.push(po.key(), po.id());
                }
            }
        }
        MatchingReceipt { flips }
    }

    /// Adds an isolated node.
    pub fn add_node(&mut self) -> NodeId {
        self.graph.add_node()
    }

    /// Inserts a base edge, drawing its random priority, and restores the
    /// matching invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]; on error the structure is unchanged.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<MatchingReceipt, GraphError> {
        // Draw only once the graph has accepted the edge, so a rejected
        // insert leaves the key stream where it was.
        self.graph.insert_edge(u, v)?;
        let key = self.rng.random();
        Ok(self.admit_edge(EdgeKey::new(u, v), key))
    }

    /// Inserts an edge with a prescribed key (for tests that check the
    /// matching against an oracle built from the same keys).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]; on error the structure is unchanged.
    pub fn insert_edge_with_key(
        &mut self,
        u: NodeId,
        v: NodeId,
        key: u64,
    ) -> Result<MatchingReceipt, GraphError> {
        self.graph.insert_edge(u, v)?;
        Ok(self.admit_edge(EdgeKey::new(u, v), key))
    }

    /// Gives an edge the graph just accepted its line id and key, then
    /// settles from it.
    fn admit_edge(&mut self, e: EdgeKey, key: u64) -> MatchingReceipt {
        self.alloc_line(e, key);
        self.propagate(vec![e])
    }

    /// Removes a base edge and restores the matching invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]; on error the structure is unchanged.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<MatchingReceipt, GraphError> {
        self.graph.remove_edge(u, v)?;
        let e = EdgeKey::new(u, v);
        let (_, was_matched) = self.release_line(e);
        let seeds = if was_matched {
            for endpoint in [u, v] {
                if self.cover.get(endpoint) == Some(&e) {
                    self.cover.remove(endpoint);
                }
            }
            // `e` has left the graph, so these are every edge at either
            // endpoint: the ones that may now be matchable.
            self.incident(e)
        } else {
            Vec::new()
        };
        Ok(self.propagate(seeds))
    }

    /// Removes a node and all incident edges.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if the node does not exist.
    pub fn remove_node(&mut self, v: NodeId) -> Result<MatchingReceipt, GraphError> {
        let nbrs = self.graph.neighbors_vec(v)?;
        let mut all_flips = Vec::new();
        for u in nbrs {
            let receipt = self.remove_edge(v, u)?;
            all_flips.extend(receipt.flips);
        }
        self.graph.remove_node(v)?;
        self.cover.remove(v);
        Ok(MatchingReceipt { flips: all_flips })
    }

    /// Verifies the maintained matching against a from-scratch greedy
    /// recomputation with the same edge priorities, plus maximality.
    ///
    /// # Panics
    ///
    /// Panics on divergence.
    pub fn assert_consistent(&self) {
        // Arena integrity: the lookup table and the slot table are
        // mutually inverse, the free list is disjoint from the live ids,
        // and no vacant slot carries a matched bit.
        assert_eq!(self.line_id.len(), self.slots.len(), "arena tables skewed");
        assert_eq!(self.line_id.len(), self.graph.edge_count());
        assert_eq!(self.line_prio.len(), self.slots.len(), "edge π skewed");
        assert!(self.front.is_empty(), "settle front leaked entries");
        for (&e, &id) in &self.line_id {
            assert_eq!(self.slots.get(id).map(|s| s.0), Some(e), "slot mismatch");
        }
        for &id in &self.free {
            assert!(self.slots.get(id).is_none(), "freed id {id} still live");
            assert!(!self.matched.contains(id), "freed id {id} still matched");
        }
        assert_eq!(
            self.matching_len(),
            self.matching().len(),
            "popcount diverged from materialized matching"
        );
        // From-scratch greedy: edges by increasing (key, edge).
        let mut order: Vec<EdgeKey> = self.line_id.keys().copied().collect();
        order.sort_unstable_by_key(|&e| self.priority_of(e));
        let mut truth: BTreeSet<EdgeKey> = BTreeSet::new();
        let mut covered = NodeSet::new();
        for e in order {
            let (u, v) = e.endpoints();
            if !covered.contains(u) && !covered.contains(v) {
                truth.insert(e);
                covered.insert(u);
                covered.insert(v);
            }
        }
        let matching = self.matching();
        assert_eq!(matching, truth, "matching diverged from greedy");
        assert!(
            crate::verify::is_maximal_matching(&self.graph, &matching),
            "matching is not maximal"
        );
        // Cover map agrees with the matched set.
        for &e in &matching {
            let (u, v) = e.endpoints();
            assert_eq!(self.cover.get(u), Some(&e));
            assert_eq!(self.cover.get(v), Some(&e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmis_graph::generators;

    #[test]
    fn initial_matching_is_greedy_and_maximal() {
        let mut rng = StdRng::seed_from_u64(0);
        for n in [2usize, 6, 15, 30] {
            let (g, _) = generators::erdos_renyi(n, 0.3, &mut rng);
            let nm = NativeMatching::new(g, n as u64);
            nm.assert_consistent();
        }
    }

    #[test]
    fn single_edge_is_matched() {
        let (mut g, ids) = DynGraph::with_nodes(2);
        g.insert_edge(ids[0], ids[1]).unwrap();
        let nm = NativeMatching::new(g, 1);
        assert!(nm.is_matched(ids[0], ids[1]));
    }

    #[test]
    fn removing_matched_edge_promotes_alternative() {
        // Path p0-p1-p2-p3 with keys forcing {p0p1, p2p3}: remove p0p1 →
        // p1p2 becomes matchable → p2p3 unmatches... depends on keys; use
        // prescribed keys: p1p2 has the middle priority.
        let (mut g, ids) = DynGraph::with_nodes(4);
        g.insert_edge(ids[0], ids[1]).unwrap();
        g.insert_edge(ids[1], ids[2]).unwrap();
        g.insert_edge(ids[2], ids[3]).unwrap();
        let mut nm = NativeMatching::empty(0);
        for _ in 0..4 {
            nm.add_node();
        }
        nm.insert_edge_with_key(ids[0], ids[1], 10).unwrap();
        nm.insert_edge_with_key(ids[1], ids[2], 20).unwrap();
        nm.insert_edge_with_key(ids[2], ids[3], 30).unwrap();
        assert!(nm.is_matched(ids[0], ids[1]));
        assert!(nm.is_matched(ids[2], ids[3]));
        let receipt = nm.remove_edge(ids[0], ids[1]).unwrap();
        // p1p2 (key 20) now matchable; p2p3 (key 30) must unmatch.
        assert!(nm.is_matched(ids[1], ids[2]));
        assert!(!nm.is_matched(ids[2], ids[3]));
        assert_eq!(receipt.adjustments(), 2);
        nm.assert_consistent();
    }

    #[test]
    fn churn_stays_consistent() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = generators::erdos_renyi(12, 0.3, &mut rng);
        let mut nm = NativeMatching::new(g, 7);
        for _ in 0..200 {
            if rng.random_bool(0.5) {
                if let Some((u, v)) = generators::random_non_edge(nm.graph(), &mut rng) {
                    nm.insert_edge(u, v).unwrap();
                }
            } else if let Some((u, v)) = generators::random_edge(nm.graph(), &mut rng) {
                nm.remove_edge(u, v).unwrap();
            }
            nm.assert_consistent();
        }
    }

    #[test]
    fn node_removal() {
        let (g, ids) = generators::star(5);
        let mut nm = NativeMatching::new(g, 3);
        nm.remove_node(ids[0]).unwrap();
        assert!(nm.matching().is_empty(), "no edges remain");
        nm.assert_consistent();
    }

    #[test]
    fn three_path_statistics_match_reduction() {
        // Native matching must reproduce the 5/3-per-path expectation.
        let trials = 600u64;
        let mut total = 0usize;
        for t in 0..trials {
            let (g, _) = generators::disjoint_three_paths(1);
            total += NativeMatching::new(g, t).matching().len();
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 5.0 / 3.0).abs() < 0.12, "mean {mean} ≠ 5/3");
    }

    #[test]
    fn rejected_inserts_draw_no_key() {
        // Twin engines from one seed: one also sees rejected inserts (a
        // duplicate edge, a missing endpoint). Neither may draw a key, so
        // the twins stay identical on the valid stream that follows.
        for seed in 0..20u64 {
            let (g, ids) = generators::path(6);
            let mut plain = NativeMatching::new(g.clone(), seed);
            let mut twin = NativeMatching::new(g, seed);
            assert!(twin.insert_edge(ids[0], ids[1]).is_err());
            assert!(twin.insert_edge(ids[0], NodeId(99)).is_err());
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..60 {
                let receipts = if rng.random_bool(0.5) {
                    let Some((u, v)) = generators::random_non_edge(plain.graph(), &mut rng) else {
                        continue;
                    };
                    (plain.insert_edge(u, v), twin.insert_edge(u, v))
                } else {
                    let Some((u, v)) = generators::random_edge(plain.graph(), &mut rng) else {
                        continue;
                    };
                    (plain.remove_edge(u, v), twin.remove_edge(u, v))
                };
                assert_eq!(receipts.0.unwrap(), receipts.1.unwrap(), "seed {seed}");
            }
            assert_eq!(plain.matching(), twin.matching(), "seed {seed}");
        }
    }

    #[test]
    fn errors_leave_structure_unchanged() {
        let (g, ids) = generators::path(3);
        let mut nm = NativeMatching::new(g, 0);
        let snapshot = nm.matching();
        assert!(nm.insert_edge(ids[0], ids[1]).is_err());
        assert!(nm.remove_edge(ids[0], ids[2]).is_err());
        assert!(nm.remove_node(NodeId(99)).is_err());
        assert_eq!(nm.matching(), snapshot);
        nm.assert_consistent();
    }
}
