use std::collections::{BTreeMap, BTreeSet};

use dmis_core::{Priority, PriorityMap};
use dmis_graph::{DynGraph, GraphError, NodeId, NodeMap, SettleFront, TopologyChange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one dynamic recoloring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringReceipt {
    /// Nodes whose color changed, with the new color, in settlement order.
    pub recolored: Vec<(NodeId, usize)>,
}

impl ColoringReceipt {
    /// Number of color adjustments.
    #[must_use]
    pub fn adjustments(&self) -> usize {
        self.recolored.len()
    }
}

/// Dynamic **random greedy coloring**: every node holds the smallest color
/// not used by any lower-π neighbor (first-fit in the random order).
///
/// This simulates the sequential random greedy coloring the paper's
/// Section 5, Example 3 discusses: on the complete bipartite graph minus a
/// perfect matching it 2-colors with probability `1 − 1/n`, so its expected
/// palette is within a constant factor of optimal — while any worst-case
/// (history-dependent) greedy can be forced to Θ(Δ) colors.
///
/// The paper also notes the cost of dynamically maintaining this structure:
/// a single topology change may recolor `O(Δ)` nodes (it asks, as an open
/// question, whether O(1) is possible). Experiment E9 measures exactly this
/// adjustment count; the engine itself settles dirty nodes in increasing π
/// order, so each recolored node is final when popped.
///
/// # Example
///
/// ```
/// use dmis_derived::{verify, ColoringEngine};
/// use dmis_graph::generators;
///
/// let (g, ids) = generators::cycle(7);
/// let mut ce = ColoringEngine::from_graph(g, 4);
/// assert!(verify::is_proper_coloring(ce.graph(), &ce.colors()));
/// ce.remove_edge(ids[0], ids[1])?;
/// assert!(verify::is_proper_coloring(ce.graph(), &ce.colors()));
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ColoringEngine {
    graph: DynGraph,
    priorities: PriorityMap,
    /// Dense per-node color table.
    color: NodeMap<usize>,
    /// Persistent π-keyed dirty queue (empty between updates).
    front: SettleFront,
    rng: StdRng,
}

impl ColoringEngine {
    /// Creates an engine over an existing graph with fresh random
    /// priorities.
    #[must_use]
    pub fn from_graph(graph: DynGraph, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut priorities = PriorityMap::new();
        for v in graph.nodes() {
            priorities.assign(v, &mut rng);
        }
        Self::from_parts_inner(graph, priorities, rng)
    }

    /// Creates an engine with prescribed priorities (tests, adversarial
    /// orders).
    ///
    /// # Panics
    ///
    /// Panics if some node has no priority.
    #[must_use]
    pub fn from_parts(graph: DynGraph, priorities: PriorityMap, seed: u64) -> Self {
        Self::from_parts_inner(graph, priorities, StdRng::seed_from_u64(seed))
    }

    fn from_parts_inner(graph: DynGraph, priorities: PriorityMap, rng: StdRng) -> Self {
        let coloring = dmis_core::static_greedy::greedy_coloring(&graph, &priorities);
        ColoringEngine {
            graph,
            priorities,
            color: coloring.into_iter().collect(),
            front: SettleFront::new(),
            rng,
        }
    }

    /// The current graph.
    #[must_use]
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The random order π.
    #[must_use]
    pub fn priorities(&self) -> &PriorityMap {
        &self.priorities
    }

    /// The current coloring.
    #[must_use]
    pub fn colors(&self) -> BTreeMap<NodeId, usize> {
        self.color.iter().map(|(id, &c)| (id, c)).collect()
    }

    /// The color of `v`, if it exists.
    #[must_use]
    pub fn color_of(&self, v: NodeId) -> Option<usize> {
        self.color.get(v).copied()
    }

    /// Number of distinct colors in use.
    #[must_use]
    pub fn palette_size(&self) -> usize {
        self.color.values().copied().collect::<BTreeSet<_>>().len()
    }

    fn mex_of_lower(&self, v: NodeId) -> usize {
        let used: BTreeSet<usize> = self
            .graph
            .neighbors(v)
            .expect("live node")
            .filter(|&u| self.priorities.before(u, v))
            .filter_map(|u| self.color.get(u).copied())
            .collect();
        (0..).find(|c| !used.contains(c)).expect("mex exists")
    }

    /// Settles dirty nodes in increasing π order: a recolored node's
    /// final color is decided at its first pop, because every lower-π
    /// recolor precedes it. Dirty nodes wait in the persistent
    /// [`SettleFront`], keyed by priority, and the neighbor filter
    /// compares priorities. The front keeps duplicate pushes, which pop
    /// consecutively, so a pop equal to the previous one is skipped: each
    /// dirty node settles once.
    fn propagate(&mut self, seeds: Vec<NodeId>) -> ColoringReceipt {
        debug_assert!(self.front.is_empty(), "settle front leaked entries");
        for v in seeds {
            // All seeds are live here: the coloring engine has no batch
            // API, so no seed can refer to a node a later change deleted.
            self.front.push(self.priorities.of(v).key(), v);
        }
        let mut recolored = Vec::new();
        let mut last = None;
        while let Some((key, v)) = self.front.pop() {
            let p = Priority::new(key, v);
            if last.replace(p) == Some(p) {
                continue;
            }
            let desired = self.mex_of_lower(v);
            if self.color.get(v) == Some(&desired) {
                continue;
            }
            self.color.insert(v, desired);
            recolored.push((v, desired));
            let graph = &self.graph;
            let priorities = &self.priorities;
            let front = &mut self.front;
            for chunk in graph.neighbor_chunks(v).expect("live node") {
                for &w in chunk {
                    let pw = priorities.of(w);
                    if pw > p {
                        front.push(pw.key(), w);
                    }
                }
            }
        }
        ColoringReceipt { recolored }
    }

    /// Inserts an edge and restores the first-fit invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]; on error the engine is unchanged.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<ColoringReceipt, GraphError> {
        self.graph.insert_edge(u, v)?;
        let hi = if self.priorities.before(u, v) { v } else { u };
        Ok(self.propagate(vec![hi]))
    }

    /// Removes an edge and restores the first-fit invariant.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]; on error the engine is unchanged.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<ColoringReceipt, GraphError> {
        self.graph.remove_edge(u, v)?;
        let hi = if self.priorities.before(u, v) { v } else { u };
        Ok(self.propagate(vec![hi]))
    }

    /// Inserts a node with a fresh random priority.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]; on error the engine is unchanged.
    pub fn insert_node<I>(&mut self, neighbors: I) -> Result<(NodeId, ColoringReceipt), GraphError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let v = self.graph.add_node_with_edges(neighbors)?;
        let key = self.rng.random();
        self.priorities.insert(v, Priority::new(key, v));
        // Sentinel forces the propagation to assign a real color.
        self.color.insert(v, usize::MAX);
        let receipt = self.propagate(vec![v]);
        Ok((v, receipt))
    }

    /// Removes a node.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] if the node does not exist.
    pub fn remove_node(&mut self, v: NodeId) -> Result<ColoringReceipt, GraphError> {
        let prio_v = self.priorities.get(v).ok_or(GraphError::MissingNode(v))?;
        let nbrs = self.graph.remove_node(v)?;
        self.priorities.remove(v);
        self.color.remove(v);
        let seeds: Vec<NodeId> = nbrs
            .into_iter()
            .filter(|&w| self.priorities.of(w) > prio_v)
            .collect();
        Ok(self.propagate(seeds))
    }

    /// Applies a described change.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`]; stale insertion identifiers are rejected.
    pub fn apply(&mut self, change: &TopologyChange) -> Result<ColoringReceipt, GraphError> {
        match change {
            TopologyChange::InsertEdge(u, v) => self.insert_edge(*u, *v),
            TopologyChange::DeleteEdge(u, v) => self.remove_edge(*u, *v),
            TopologyChange::InsertNode { id, edges } => {
                if self.graph.peek_next_id() != *id {
                    return Err(GraphError::MissingNode(*id));
                }
                self.insert_node(edges.iter().copied()).map(|(_, r)| r)
            }
            TopologyChange::DeleteNode(v) => self.remove_node(*v),
        }
    }

    /// Verifies the coloring against a from-scratch recomputation (history
    /// independence at fixed π) and properness.
    ///
    /// # Panics
    ///
    /// Panics on divergence.
    pub fn assert_consistent(&self) {
        assert!(self.front.is_empty(), "settle front leaked entries");
        let fresh: NodeMap<usize> =
            dmis_core::static_greedy::greedy_coloring(&self.graph, &self.priorities)
                .into_iter()
                .collect();
        assert_eq!(self.color, fresh, "coloring diverged from static greedy");
        assert!(
            crate::verify::is_proper_coloring(&self.graph, &self.colors()),
            "coloring is not proper"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmis_graph::generators;
    use dmis_graph::stream::{self, ChurnConfig};

    #[test]
    fn initial_coloring_is_greedy() {
        let mut rng = StdRng::seed_from_u64(0);
        let (g, _) = generators::erdos_renyi(20, 0.25, &mut rng);
        let ce = ColoringEngine::from_graph(g, 3);
        ce.assert_consistent();
        assert!(ce.palette_size() <= ce.graph().max_degree() + 1);
    }

    #[test]
    fn churn_preserves_greedy_coloring() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, _) = generators::erdos_renyi(14, 0.3, &mut rng);
        let mut ce = ColoringEngine::from_graph(g, 9);
        for _ in 0..250 {
            let Some(change) = stream::random_change(ce.graph(), &ChurnConfig::default(), &mut rng)
            else {
                continue;
            };
            ce.apply(&change).unwrap();
            ce.assert_consistent();
        }
    }

    #[test]
    fn recoloring_cascade_on_ordered_path() {
        // Path with increasing priorities: colors alternate 0,1,0,1,…
        let (g, ids) = generators::path(6);
        let pm = PriorityMap::from_order(&ids);
        let mut ce = ColoringEngine::from_parts(g, pm, 0);
        assert_eq!(ce.color_of(ids[0]), Some(0));
        assert_eq!(ce.color_of(ids[1]), Some(1));
        // Deleting the first edge shifts the whole parity: Θ(n) recolors —
        // the O(Δ)-or-worse adjustment behavior the paper warns about.
        let receipt = ce.remove_edge(ids[0], ids[1]).unwrap();
        assert_eq!(receipt.adjustments(), 5);
        ce.assert_consistent();
    }

    #[test]
    fn node_churn() {
        let (g, ids) = generators::cycle(5);
        let mut ce = ColoringEngine::from_graph(g, 2);
        let (v, _) = ce.insert_node(vec![ids[0], ids[2]]).unwrap();
        ce.assert_consistent();
        ce.remove_node(v).unwrap();
        ce.assert_consistent();
        ce.remove_node(ids[0]).unwrap();
        ce.assert_consistent();
    }

    #[test]
    fn bipartite_minus_matching_two_colors_with_good_order() {
        // Put one left node first, then a non-matched right node: random
        // greedy 2-colors the graph (Example 3's high-probability event).
        let k = 5;
        let (g, left, right) = generators::bipartite_minus_matching(k);
        let mut order = vec![left[0], right[1]];
        order.extend(left[1..].iter().copied());
        order.extend(
            right
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != 1)
                .map(|(_, &v)| v),
        );
        let ce = ColoringEngine::from_parts(g, PriorityMap::from_order(&order), 0);
        assert_eq!(ce.palette_size(), 2);
        ce.assert_consistent();
    }

    #[test]
    fn stale_insert_id_rejected() {
        let (g, _) = generators::path(2);
        let mut ce = ColoringEngine::from_graph(g, 0);
        assert!(ce
            .apply(&TopologyChange::InsertNode {
                id: NodeId(0),
                edges: vec![]
            })
            .is_err());
    }
}
