use crate::{GraphError, NodeId, NodeMap, NodeSet};

/// Canonical (unordered) key of an undirected edge: the endpoints sorted.
///
/// Used wherever an edge must serve as a map key, such as the edge
/// presence sets of the [`crate::stream`] generators.
///
/// # Example
///
/// ```
/// use dmis_graph::{EdgeKey, NodeId};
///
/// let k1 = EdgeKey::new(NodeId(5), NodeId(2));
/// let k2 = EdgeKey::new(NodeId(2), NodeId(5));
/// assert_eq!(k1, k2);
/// assert_eq!(k1.endpoints(), (NodeId(2), NodeId(5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeKey {
    lo: NodeId,
    hi: NodeId,
}

impl EdgeKey {
    /// Creates the canonical key for the edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`; self-loops are not representable.
    #[must_use]
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loop cannot form an edge key");
        if u < v {
            EdgeKey { lo: u, hi: v }
        } else {
            EdgeKey { lo: v, hi: u }
        }
    }

    /// Returns the endpoints in sorted order `(lo, hi)`.
    #[must_use]
    pub const fn endpoints(self) -> (NodeId, NodeId) {
        (self.lo, self.hi)
    }

    /// Returns the endpoint different from `v`, or `None` if `v` is not an
    /// endpoint.
    #[must_use]
    pub fn other(self, v: NodeId) -> Option<NodeId> {
        if v == self.lo {
            Some(self.hi)
        } else if v == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Returns `true` if `v` is one of the endpoints.
    #[must_use]
    pub fn contains(self, v: NodeId) -> bool {
        v == self.lo || v == self.hi
    }
}

/// Degree at which a flat neighbor vector is split into chunks.
const CHUNK_PROMOTE: usize = 256;
/// Chunk size right after a promotion or split.
const CHUNK_TARGET: usize = 128;
/// Degree ceiling per chunk; a chunk reaching it splits in two.
const CHUNK_MAX: usize = 2 * CHUNK_TARGET;

/// One node's adjacency: a sorted flat vector for the common low-degree
/// case, promoted to a sequence of bounded sorted chunks once the degree
/// crosses [`CHUNK_PROMOTE`].
///
/// Power-law hubs are the motivation: with a single `Vec`, every edge
/// toggle at a degree-10^4 hub pays an O(deg) memmove and the binary
/// search spans hundreds of cache lines. Chunking caps both at
/// [`CHUNK_MAX`] entries (2 KiB): an insert memmoves within one chunk,
/// and neighbor filtering walks chunk-sized slices that stay
/// cache-resident. Chunks partition the sorted order (every id in chunk
/// `i` precedes every id in chunk `i+1`) and are never empty, so
/// ascending iteration — the determinism contract — is chunk
/// concatenation. A node's list never demotes while populated; the
/// chunked shape is a pure function of the operation history, keeping
/// replays bit-identical.
#[derive(Debug, Clone)]
enum AdjList {
    /// Sorted neighbor vector, degree < [`CHUNK_PROMOTE`].
    Flat(Vec<NodeId>),
    /// Sorted non-empty chunks of at most [`CHUNK_MAX`] ids each, plus
    /// the cached total degree.
    Chunked {
        chunks: Vec<Vec<NodeId>>,
        len: usize,
    },
}

impl AdjList {
    /// The list holding an ascending, duplicate-free neighbor vector:
    /// flat below [`CHUNK_PROMOTE`], otherwise split into
    /// [`CHUNK_TARGET`]-entry chunks with room to grow to [`CHUNK_MAX`].
    fn from_sorted(nbrs: Vec<NodeId>) -> Self {
        if nbrs.len() < CHUNK_PROMOTE {
            return AdjList::Flat(nbrs);
        }
        let chunks = nbrs
            .chunks(CHUNK_TARGET)
            .map(|c| {
                let mut chunk = Vec::with_capacity(CHUNK_MAX);
                chunk.extend_from_slice(c);
                chunk
            })
            .collect();
        AdjList::Chunked {
            chunks,
            len: nbrs.len(),
        }
    }

    /// Degree — O(1) in both shapes.
    fn len(&self) -> usize {
        match self {
            AdjList::Flat(v) => v.len(),
            AdjList::Chunked { len, .. } => *len,
        }
    }

    /// Index of the chunk whose range covers `w` (for lookups), clamped
    /// to the last chunk for past-the-end inserts.
    fn chunk_of(chunks: &[Vec<NodeId>], w: NodeId) -> usize {
        chunks
            .partition_point(|c| *c.last().expect("chunks are never empty") < w)
            .min(chunks.len() - 1)
    }

    /// Returns `true` if `w` is a neighbor.
    fn contains(&self, w: NodeId) -> bool {
        match self {
            AdjList::Flat(v) => v.binary_search(&w).is_ok(),
            AdjList::Chunked { chunks, .. } => {
                chunks[Self::chunk_of(chunks, w)].binary_search(&w).is_ok()
            }
        }
    }

    /// Inserts `w` keeping sorted order; returns `false` if already
    /// present. Promotes / splits when size bounds are crossed.
    fn insert_sorted(&mut self, w: NodeId) -> bool {
        match self {
            AdjList::Flat(v) => {
                let Err(pos) = v.binary_search(&w) else {
                    return false;
                };
                v.insert(pos, w);
                if v.len() >= CHUNK_PROMOTE {
                    *self = AdjList::from_sorted(std::mem::take(v));
                }
                true
            }
            AdjList::Chunked { chunks, len } => {
                let i = Self::chunk_of(chunks, w);
                let Err(pos) = chunks[i].binary_search(&w) else {
                    return false;
                };
                chunks[i].insert(pos, w);
                *len += 1;
                if chunks[i].len() >= CHUNK_MAX {
                    let tail = chunks[i].split_off(CHUNK_TARGET);
                    chunks.insert(i + 1, tail);
                }
                true
            }
        }
    }

    /// Removes `w`; returns `false` if absent. An emptied chunk is
    /// dropped; an emptied list reverts to the flat shape.
    fn remove_sorted(&mut self, w: NodeId) -> bool {
        match self {
            AdjList::Flat(v) => {
                let Ok(pos) = v.binary_search(&w) else {
                    return false;
                };
                v.remove(pos);
                true
            }
            AdjList::Chunked { chunks, len } => {
                let i = Self::chunk_of(chunks, w);
                let Ok(pos) = chunks[i].binary_search(&w) else {
                    return false;
                };
                chunks[i].remove(pos);
                *len -= 1;
                if chunks[i].is_empty() {
                    let empty = chunks.remove(i);
                    if chunks.is_empty() {
                        // Reuse the emptied chunk's allocation as the
                        // flat vector.
                        *self = AdjList::Flat(empty);
                    }
                }
                true
            }
        }
    }

    /// The sorted neighbor sequence as contiguous slices: one slice for
    /// the flat shape, the chunk sequence otherwise. Concatenation is
    /// ascending; this is the hot settle loops' iteration surface.
    fn chunk_slices(&self) -> AdjChunks<'_> {
        match self {
            AdjList::Flat(v) => AdjChunks {
                flat: Some(v.as_slice()),
                chunks: [].iter(),
            },
            AdjList::Chunked { chunks, .. } => AdjChunks {
                flat: None,
                chunks: chunks.iter(),
            },
        }
    }

    /// Ascending iteration over all neighbor ids.
    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.chunk_slices().flatten().copied()
    }

    /// Consumes the list into its backing allocations (for recycling).
    fn into_vecs(self) -> Vec<Vec<NodeId>> {
        match self {
            AdjList::Flat(v) => vec![v],
            AdjList::Chunked { chunks, .. } => chunks,
        }
    }
}

/// Two chunkings of the same neighbor set are equal: equality is the
/// logical sorted sequence, not the chunk layout.
impl PartialEq for AdjList {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for AdjList {}

/// Iterator over one node's adjacency as sorted contiguous slices; see
/// [`DynGraph::neighbor_chunks`].
struct AdjChunks<'a> {
    flat: Option<&'a [NodeId]>,
    chunks: std::slice::Iter<'a, Vec<NodeId>>,
}

impl<'a> Iterator for AdjChunks<'a> {
    type Item = &'a [NodeId];

    fn next(&mut self) -> Option<&'a [NodeId]> {
        if let Some(s) = self.flat.take() {
            return Some(s);
        }
        self.chunks.next().map(Vec::as_slice)
    }
}

/// A fully dynamic undirected simple graph.
///
/// This is the substrate on which every algorithm of the reproduction runs.
/// It supports the exact operation set of the paper's adversary — node
/// insertion (with or without initial edges), node deletion, edge insertion
/// and edge deletion — and nothing more exotic (no self-loops, no parallel
/// edges, no weights).
///
/// Adjacency is stored densely — a [`NodeMap`] of **sorted neighbor
/// vectors**, indexed directly by [`NodeId`] — so the hot operations
/// (`neighbors`, `degree`, `has_edge`) are direct slot accesses instead of
/// tree walks. Neighbor vectors are kept sorted, so all iteration orders
/// are deterministic (ascending identifier), exactly as with the ordered
/// sets this layout replaced; determinism matters because the paper's
/// guarantees are *distributional* over the algorithm's internal
/// randomness only, and tests must be able to replay executions
/// bit-for-bit from a seed.
///
/// Identifiers are never reused (the paper's model: a departed node that
/// rejoins is a *new* node), so a deleted node leaves a vacant slot. The
/// graph recycles the vacated neighbor-vector *allocations* through a free
/// list, and maintains a degree histogram so [`DynGraph::max_degree`] is
/// O(1) instead of a full scan.
///
/// # Example
///
/// ```
/// use dmis_graph::DynGraph;
///
/// let mut g = DynGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.insert_edge(a, b)?;
/// g.insert_edge(b, c)?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbors(b).unwrap().count(), 2);
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynGraph {
    adj: NodeMap<AdjList>,
    next_id: u64,
    edge_count: usize,
    /// `degree_hist[d]` = number of live nodes with degree `d`.
    degree_hist: Vec<usize>,
    /// Cached maximum degree; kept exact by [`DynGraph::shift_degree`].
    max_degree: usize,
    /// Recycled neighbor-vector allocations from deleted nodes.
    spare: Vec<Vec<NodeId>>,
}

impl PartialEq for DynGraph {
    fn eq(&self, other: &Self) -> bool {
        // The histogram and max degree are derived from `adj`, and the
        // spare pool is an allocation cache — none carry graph identity.
        self.next_id == other.next_id
            && self.edge_count == other.edge_count
            && self.adj == other.adj
    }
}

impl Eq for DynGraph {}

impl DynGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph and immediately adds `n` isolated nodes,
    /// returning their identifiers in insertion order.
    ///
    /// # Example
    ///
    /// ```
    /// use dmis_graph::DynGraph;
    ///
    /// let (g, ids) = DynGraph::with_nodes(4);
    /// assert_eq!(g.node_count(), 4);
    /// assert_eq!(ids.len(), 4);
    /// ```
    #[must_use]
    pub fn with_nodes(n: usize) -> (Self, Vec<NodeId>) {
        let mut g = Self::with_node_capacity(n);
        let ids = (0..n).map(|_| g.add_node()).collect();
        (g, ids)
    }

    /// Creates an empty graph whose adjacency arena is pre-sized for
    /// identifiers below `n`: no slot regrow (see [`Self::regrows`])
    /// occurs until node `n` is inserted.
    #[must_use]
    pub fn with_node_capacity(n: usize) -> Self {
        DynGraph {
            adj: NodeMap::with_capacity(n),
            ..Self::default()
        }
    }

    /// Ensures identifiers below `n` can be inserted without the
    /// adjacency arena reallocating (and hence without counting a
    /// regrow).
    pub fn reserve_nodes(&mut self, n: usize) {
        self.adj.reserve_slots(n);
    }

    /// Reconstructs a graph from its serialized parts: the identifier
    /// watermark ([`Self::peek_next_id`] of the original), the live node
    /// ids, and the edge list — the inverse of walking [`Self::nodes`]
    /// and [`Self::edges`]. The durability checkpoint's restore builds
    /// its graph here: identifiers are never reused, so deleted nodes
    /// leave holes and `nodes` may be sparse below `next_id`.
    ///
    /// Nodes and edges may come in any order, each edge in either
    /// orientation; the result equals the graph that inserting the edges
    /// one by one would build. The build is in bulk: one pass over the
    /// edges counts degrees, every node gets a list of exactly its
    /// degree, a second pass fills both endpoints' lists, and a list is
    /// sorted only if its entries arrived out of order. That costs
    /// O(n + m) for edges in ascending [`EdgeKey`] order (the order
    /// [`Self::edges`] yields) and O(n + m log Δ) otherwise, with no
    /// list ever reallocated.
    ///
    /// # Errors
    ///
    /// - [`GraphError::MissingNode`] if a node id is at or above the
    ///   watermark (it could never have been allocated), or if an edge
    ///   endpoint is not a listed node. It carries the watermark itself
    ///   if the slot arena for the ids below it cannot be reserved: no
    ///   graph in this process could have reached that watermark;
    /// - [`GraphError::DuplicateEdge`] if a node id repeats (reported as
    ///   a self-pair, matching [`Self::add_node_with_edges`]) or an edge
    ///   repeats in either orientation;
    /// - [`GraphError::SelfLoop`] if an edge joins a node to itself.
    ///
    /// Defects of the node list are reported before defects of the edge
    /// list; which of several defects in one list is reported is
    /// unspecified.
    pub fn from_adjacency(
        next_id: NodeId,
        nodes: &[NodeId],
        edges: &[(NodeId, NodeId)],
    ) -> Result<Self, GraphError> {
        // Degree-scratch entry of a slot that no listed node holds.
        const UNLISTED: usize = usize::MAX;
        let unreservable = GraphError::MissingNode(next_id);
        let watermark = usize::try_from(next_id.index()).map_err(|_| unreservable)?;
        let mut adj = NodeMap::try_with_capacity(watermark).map_err(|_| unreservable)?;
        // Every listed id is below the watermark, so it fits in usize.
        let slot = |v: NodeId| v.index() as usize;
        let mut span = 0;
        for &v in nodes {
            if v >= next_id {
                return Err(GraphError::MissingNode(v));
            }
            span = span.max(slot(v) + 1);
        }
        let mut degree = Vec::new();
        degree.try_reserve_exact(span).map_err(|_| unreservable)?;
        degree.resize(span, UNLISTED);
        for &v in nodes {
            let d = &mut degree[slot(v)];
            if *d != UNLISTED {
                return Err(GraphError::DuplicateEdge(v, v));
            }
            *d = 0;
        }
        for &(u, v) in edges {
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            for w in [u, v] {
                let d = usize::try_from(w.index())
                    .ok()
                    .and_then(|i| degree.get_mut(i));
                match d {
                    Some(d) if *d != UNLISTED => *d += 1,
                    _ => return Err(GraphError::MissingNode(w)),
                }
            }
        }
        for &v in nodes {
            adj.insert(v, AdjList::Flat(Vec::with_capacity(degree[slot(v)])));
        }
        drop(degree);
        for &(u, v) in edges {
            for (w, x) in [(u, v), (v, u)] {
                match adj.get_mut(w) {
                    Some(AdjList::Flat(list)) => list.push(x),
                    _ => unreachable!("every endpoint holds a flat list until the fill ends"),
                }
            }
        }
        let mut g = DynGraph {
            next_id: next_id.index(),
            edge_count: edges.len(),
            ..Self::default()
        };
        for (v, list) in adj.iter_mut() {
            let AdjList::Flat(nbrs) = list else {
                unreachable!("every node holds a flat list until the fill ends")
            };
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                nbrs.sort_unstable();
                if let Some(w) = nbrs.windows(2).find(|w| w[0] == w[1]) {
                    return Err(GraphError::DuplicateEdge(w[0], v));
                }
            }
            g.enter_degree(nbrs.len());
            if nbrs.len() >= CHUNK_PROMOTE {
                *list = AdjList::from_sorted(std::mem::take(nbrs));
            }
        }
        g.adj = adj;
        Ok(g)
    }

    /// Times an insert had to *reallocate* the adjacency slot arena to
    /// reach its id — the scale tier's pre-sizing verification counter.
    /// Growth of individual neighbor vectors is not counted: chunking
    /// bounds those at `CHUNK_MAX` entries per allocation.
    #[must_use]
    pub fn regrows(&self) -> u64 {
        self.adj.regrows()
    }

    /// Adds a new isolated node and returns its fresh identifier.
    ///
    /// Identifiers are never reused, even after deletions.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let nbrs = self.spare.pop().unwrap_or_default();
        self.adj.insert(id, AdjList::Flat(nbrs));
        self.enter_degree(0);
        id
    }

    /// Adds a new node along with edges to every node in `neighbors`.
    ///
    /// This is the paper's "node insertion, possibly with multiple edges".
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] if any listed neighbor does not
    /// exist, or [`GraphError::DuplicateEdge`] if `neighbors` lists the same
    /// node twice. On error the graph is left unchanged.
    pub fn add_node_with_edges<I>(&mut self, neighbors: I) -> Result<NodeId, GraphError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let neighbors: Vec<NodeId> = neighbors.into_iter().collect();
        let mut seen = NodeSet::new();
        for &u in &neighbors {
            if !self.has_node(u) {
                return Err(GraphError::MissingNode(u));
            }
            if !seen.insert(u) {
                return Err(GraphError::DuplicateEdge(u, u));
            }
        }
        let id = self.add_node();
        for u in neighbors {
            self.insert_edge(id, u)
                .expect("edges from a fresh node are always insertable");
        }
        Ok(id)
    }

    /// Removes a node and all its incident edges, returning the set of
    /// neighbors it had at the moment of deletion.
    ///
    /// The returned neighbor set is exactly the information a distributed
    /// implementation needs to react to the deletion (Section 4.2 of the
    /// paper starts the recovery at those neighbors).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] if the node does not exist.
    pub fn remove_node(&mut self, v: NodeId) -> Result<Vec<NodeId>, GraphError> {
        let nbrs = self.adj.remove(v).ok_or(GraphError::MissingNode(v))?;
        let out: Vec<NodeId> = nbrs.iter().collect();
        for &u in &out {
            let list = self
                .adj
                .get_mut(u)
                .expect("adjacency is symmetric by construction");
            let removed = list.remove_sorted(v);
            debug_assert!(removed, "adjacency is symmetric by construction");
            let d = list.len();
            self.shift_degree(d + 1, d);
        }
        self.edge_count -= out.len();
        self.leave_degree(out.len());
        // Recycle the allocations: identifiers are never reused, but the
        // heap memory behind them is.
        for mut chunk in nbrs.into_vecs() {
            chunk.clear();
            self.spare.push(chunk);
        }
        Ok(out)
    }

    /// Inserts the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// - [`GraphError::SelfLoop`] if `u == v`;
    /// - [`GraphError::MissingNode`] if either endpoint does not exist;
    /// - [`GraphError::DuplicateEdge`] if the edge is already present.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !self.has_node(u) {
            return Err(GraphError::MissingNode(u));
        }
        if !self.has_node(v) {
            return Err(GraphError::MissingNode(v));
        }
        let list_u = self.adj.get_mut(u).expect("checked above");
        if !list_u.insert_sorted(v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let du = list_u.len();
        let list_v = self.adj.get_mut(v).expect("checked above");
        let fresh = list_v.insert_sorted(u);
        debug_assert!(fresh, "symmetric edge cannot pre-exist");
        let dv = list_v.len();
        self.shift_degree(du - 1, du);
        self.shift_degree(dv - 1, dv);
        self.edge_count += 1;
        Ok(())
    }

    /// Removes the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] if either endpoint does not exist
    /// and [`GraphError::MissingEdge`] if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if !self.has_node(u) {
            return Err(GraphError::MissingNode(u));
        }
        if !self.has_node(v) {
            return Err(GraphError::MissingNode(v));
        }
        let list_u = self.adj.get_mut(u).expect("checked above");
        if !list_u.remove_sorted(v) {
            return Err(GraphError::MissingEdge(u, v));
        }
        let du = list_u.len();
        let list_v = self.adj.get_mut(v).expect("checked above");
        let removed = list_v.remove_sorted(u);
        debug_assert!(removed, "adjacency is symmetric by construction");
        let dv = list_v.len();
        self.shift_degree(du + 1, du);
        self.shift_degree(dv + 1, dv);
        self.edge_count -= 1;
        Ok(())
    }

    /// Returns the identifier the next inserted node will receive, without
    /// inserting it.
    ///
    /// Useful for describing a [`crate::TopologyChange::InsertNode`] before
    /// applying it.
    #[must_use]
    pub fn peek_next_id(&self) -> NodeId {
        NodeId(self.next_id)
    }

    /// Returns `true` if the node exists.
    #[must_use]
    pub fn has_node(&self, v: NodeId) -> bool {
        self.adj.contains(v)
    }

    /// Returns `true` if the edge `{u, v}` exists.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj.get(u).is_some_and(|list| list.contains(v))
    }

    /// Returns the degree of `v`, or `None` if the node does not exist.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.adj.get(v).map(AdjList::len)
    }

    /// Returns the maximal degree Δ over all nodes (0 for an empty graph).
    ///
    /// O(1): maintained incrementally through a degree histogram instead
    /// of the full scan the ordered-map layout required.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Returns the number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Returns the number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Iterates over all node identifiers in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.keys()
    }

    /// Iterates over the neighbors of `v` in ascending identifier order, or
    /// `None` if the node does not exist.
    pub fn neighbors(&self, v: NodeId) -> Option<impl Iterator<Item = NodeId> + '_> {
        self.adj.get(v).map(AdjList::iter)
    }

    /// Returns the neighbors of `v` as **ascending sorted contiguous
    /// slices** — one slice for the common low-degree case, a sequence of
    /// cache-resident chunks (≤ 2 KiB each) for promoted hubs. This is
    /// the settle loops' zero-copy iteration surface; concatenating the
    /// slices yields exactly [`Self::neighbors`]' order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] if the node does not exist.
    pub fn neighbor_chunks(
        &self,
        v: NodeId,
    ) -> Result<impl Iterator<Item = &[NodeId]> + '_, GraphError> {
        self.adj
            .get(v)
            .map(AdjList::chunk_slices)
            .ok_or(GraphError::MissingNode(v))
    }

    /// Returns the neighbors of `v` collected into a vector.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingNode`] if the node does not exist.
    pub fn neighbors_vec(&self, v: NodeId) -> Result<Vec<NodeId>, GraphError> {
        self.adj
            .get(v)
            .map(|list| list.iter().collect())
            .ok_or(GraphError::MissingNode(v))
    }

    /// Iterates over all edges, each reported once as an [`EdgeKey`], in
    /// ascending order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        self.adj.iter().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&v| u < v)
                .map(move |v| EdgeKey::new(u, v))
        })
    }

    /// Verifies internal consistency (symmetric adjacency, accurate edge
    /// count, no self-loops). Intended for tests and debugging.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if any invariant is violated.
    pub fn assert_consistent(&self) {
        let mut count = 0usize;
        let mut max_seen = 0usize;
        for (u, nbrs) in self.adj.iter() {
            if let AdjList::Chunked { chunks, len } = nbrs {
                assert!(
                    chunks.iter().all(|c| !c.is_empty() && c.len() < CHUNK_MAX),
                    "chunk size bounds violated at {u}"
                );
                assert_eq!(
                    chunks.iter().map(Vec::len).sum::<usize>(),
                    *len,
                    "cached chunked degree of {u} drifted"
                );
            }
            let mut degree = 0usize;
            let mut prev: Option<NodeId> = None;
            for v in nbrs.iter() {
                assert!(
                    prev.is_none_or(|p| p < v),
                    "neighbor sequence of {u} not sorted/deduplicated"
                );
                prev = Some(v);
                degree += 1;
                assert_ne!(u, v, "self-loop at {u}");
                let back = self
                    .adj
                    .get(v)
                    .unwrap_or_else(|| panic!("dangling neighbor {v} of {u}"));
                assert!(back.contains(u), "asymmetric edge ({u}, {v})");
                count += 1;
            }
            assert_eq!(degree, nbrs.len(), "cached degree of {u} drifted");
            max_seen = max_seen.max(degree);
            assert!(
                self.degree_hist.get(degree).copied().unwrap_or(0) > 0,
                "degree histogram missing degree {degree} of {u}"
            );
        }
        assert_eq!(count % 2, 0, "odd directed-edge count");
        assert_eq!(count / 2, self.edge_count, "edge count drifted");
        assert_eq!(self.max_degree, max_seen, "cached max degree drifted");
        assert_eq!(
            self.degree_hist.iter().sum::<usize>(),
            self.adj.len(),
            "degree histogram mass drifted"
        );
    }

    /// Records a node entering the degree histogram at degree `d`.
    fn enter_degree(&mut self, d: usize) {
        if d >= self.degree_hist.len() {
            self.degree_hist.resize(d + 1, 0);
        }
        self.degree_hist[d] += 1;
        self.max_degree = self.max_degree.max(d);
    }

    /// Records a node leaving the histogram from degree `d`.
    fn leave_degree(&mut self, d: usize) {
        self.degree_hist[d] -= 1;
        while self.max_degree > 0 && self.degree_hist[self.max_degree] == 0 {
            self.max_degree -= 1;
        }
    }

    /// Moves one node from degree `from` to degree `to`.
    ///
    /// Amortized O(1): the downward scan in [`DynGraph::leave_degree`] is
    /// paid for by the increments that raised the maximum.
    fn shift_degree(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        if to >= self.degree_hist.len() {
            self.degree_hist.resize(to + 1, 0);
        }
        self.degree_hist[to] += 1;
        self.max_degree = self.max_degree.max(to);
        self.leave_degree(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (DynGraph, Vec<NodeId>) {
        let (mut g, ids) = DynGraph::with_nodes(3);
        g.insert_edge(ids[0], ids[1]).unwrap();
        g.insert_edge(ids[1], ids[2]).unwrap();
        g.insert_edge(ids[2], ids[0]).unwrap();
        (g, ids)
    }

    #[test]
    fn fresh_graph_is_empty() {
        let g = DynGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_and_remove_nodes() {
        let mut g = DynGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(g.has_node(a) && g.has_node(b));
        let nbrs = g.remove_node(a).unwrap();
        assert!(nbrs.is_empty());
        assert!(!g.has_node(a));
        assert_eq!(g.remove_node(a), Err(GraphError::MissingNode(a)));
        g.assert_consistent();
    }

    #[test]
    fn ids_are_never_reused() {
        let mut g = DynGraph::new();
        let a = g.add_node();
        g.remove_node(a).unwrap();
        let b = g.add_node();
        assert_ne!(a, b);
    }

    #[test]
    fn edge_insertion_and_errors() {
        let (mut g, ids) = DynGraph::with_nodes(2);
        let (a, b) = (ids[0], ids[1]);
        g.insert_edge(a, b).unwrap();
        assert_eq!(g.insert_edge(a, b), Err(GraphError::DuplicateEdge(a, b)));
        assert_eq!(g.insert_edge(b, a), Err(GraphError::DuplicateEdge(b, a)));
        assert_eq!(g.insert_edge(a, a), Err(GraphError::SelfLoop(a)));
        assert_eq!(
            g.insert_edge(a, NodeId(99)),
            Err(GraphError::MissingNode(NodeId(99)))
        );
        assert!(g.has_edge(b, a), "edges are undirected");
        g.assert_consistent();
    }

    #[test]
    fn edge_removal_and_errors() {
        let (mut g, ids) = DynGraph::with_nodes(3);
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        g.insert_edge(a, b).unwrap();
        g.remove_edge(b, a).unwrap();
        assert!(!g.has_edge(a, b));
        assert_eq!(g.remove_edge(a, b), Err(GraphError::MissingEdge(a, b)));
        assert_eq!(g.remove_edge(a, c), Err(GraphError::MissingEdge(a, c)));
        assert_eq!(
            g.remove_edge(NodeId(42), a),
            Err(GraphError::MissingNode(NodeId(42)))
        );
        g.assert_consistent();
    }

    #[test]
    fn node_removal_detaches_edges() {
        let (mut g, ids) = triangle();
        let removed_nbrs = g.remove_node(ids[1]).unwrap();
        assert_eq!(removed_nbrs, vec![ids[0], ids[2]]);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(ids[0], ids[2]));
        assert_eq!(g.degree(ids[0]), Some(1));
        g.assert_consistent();
    }

    #[test]
    fn add_node_with_edges_validates_first() {
        let (mut g, ids) = DynGraph::with_nodes(2);
        let ghost = NodeId(777);
        let before = g.clone();
        assert_eq!(
            g.add_node_with_edges([ids[0], ghost]),
            Err(GraphError::MissingNode(ghost))
        );
        assert_eq!(g, before, "failed insertion must not mutate");
        assert_eq!(
            g.add_node_with_edges([ids[0], ids[0]]),
            Err(GraphError::DuplicateEdge(ids[0], ids[0]))
        );
        let v = g.add_node_with_edges(ids.iter().copied()).unwrap();
        assert_eq!(g.degree(v), Some(2));
        g.assert_consistent();
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let (g, ids) = triangle();
        let edges: Vec<EdgeKey> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&EdgeKey::new(ids[0], ids[2])));
    }

    #[test]
    fn degree_and_max_degree() {
        let (mut g, ids) = DynGraph::with_nodes(4);
        for &other in &ids[1..] {
            g.insert_edge(ids[0], other).unwrap();
        }
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degree(ids[0]), Some(3));
        assert_eq!(g.degree(NodeId(1234)), None);
    }

    #[test]
    fn edge_key_canonicalizes() {
        let k = EdgeKey::new(NodeId(9), NodeId(3));
        assert_eq!(k.endpoints(), (NodeId(3), NodeId(9)));
        assert_eq!(k.other(NodeId(3)), Some(NodeId(9)));
        assert_eq!(k.other(NodeId(9)), Some(NodeId(3)));
        assert_eq!(k.other(NodeId(5)), None);
        assert!(k.contains(NodeId(9)));
        assert!(!k.contains(NodeId(5)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_key_rejects_self_loop() {
        let _ = EdgeKey::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn cached_max_degree_tracks_churn() {
        let (mut g, ids) = DynGraph::with_nodes(6);
        assert_eq!(g.max_degree(), 0);
        for &other in &ids[1..] {
            g.insert_edge(ids[0], other).unwrap();
        }
        assert_eq!(g.max_degree(), 5);
        // Deleting the hub must walk the cached maximum back down.
        g.remove_node(ids[0]).unwrap();
        assert_eq!(g.max_degree(), 0);
        g.insert_edge(ids[1], ids[2]).unwrap();
        g.insert_edge(ids[2], ids[3]).unwrap();
        assert_eq!(g.max_degree(), 2);
        g.remove_edge(ids[2], ids[3]).unwrap();
        assert_eq!(g.max_degree(), 1);
        g.assert_consistent();
    }

    #[test]
    fn dense_layout_survives_long_churn() {
        // Interleave node/edge insertions and deletions so vacant slots,
        // the spare free list, and the degree histogram all get exercised.
        let mut g = DynGraph::new();
        let mut live: Vec<NodeId> = Vec::new();
        for round in 0..200u64 {
            if round % 3 == 0 && live.len() > 4 {
                let v = live.remove((round as usize * 7) % live.len());
                g.remove_node(v).unwrap();
            } else {
                let peers: Vec<NodeId> = live.iter().copied().take((round as usize) % 4).collect();
                let v = g.add_node_with_edges(peers).unwrap();
                live.push(v);
            }
            if round % 17 == 0 {
                g.assert_consistent();
            }
        }
        g.assert_consistent();
        assert_eq!(g.node_count(), live.len());
    }

    #[test]
    fn neighbor_chunks_are_sorted_views() {
        let (mut g, ids) = DynGraph::with_nodes(4);
        g.insert_edge(ids[2], ids[0]).unwrap();
        g.insert_edge(ids[2], ids[3]).unwrap();
        g.insert_edge(ids[2], ids[1]).unwrap();
        let chunks: Vec<&[NodeId]> = g.neighbor_chunks(ids[2]).unwrap().collect();
        assert_eq!(chunks, vec![&[ids[0], ids[1], ids[3]][..]]);
        assert!(g.neighbor_chunks(NodeId(99)).is_err());
    }

    #[test]
    fn hub_adjacency_promotes_to_chunks_and_stays_equivalent() {
        // Degree crosses CHUNK_PROMOTE: the hub's list must chunk, keep
        // every query/iteration surface identical, and survive removal
        // churn back down to the flat shape.
        let n = CHUNK_PROMOTE + 200;
        let (mut g, ids) = DynGraph::with_nodes(n + 1);
        let hub = ids[n];
        // Insert in a scrambled order so mid-chunk inserts happen.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|i| (i * 2_654_435_761) % n);
        for &i in &order {
            g.insert_edge(hub, ids[i]).unwrap();
        }
        assert_eq!(g.degree(hub), Some(n));
        g.assert_consistent();
        // Ascending iteration across chunk boundaries.
        let nbrs = g.neighbors_vec(hub).unwrap();
        assert_eq!(nbrs, ids[..n].to_vec());
        let concat: Vec<NodeId> = g.neighbor_chunks(hub).unwrap().flatten().copied().collect();
        assert_eq!(concat, nbrs, "chunk concatenation is the iteration");
        let chunk_count = g.neighbor_chunks(hub).unwrap().count();
        assert!(chunk_count > 1, "hub should be chunked");
        assert!(g.has_edge(hub, ids[0]) && g.has_edge(hub, ids[n - 1]));
        assert!(!g.has_edge(hub, hub));
        // Remove most edges: chunks drain, merge away, and the list
        // eventually reverts to flat without losing consistency.
        for &i in order.iter().take(n - 3) {
            g.remove_edge(ids[i], hub).unwrap();
        }
        assert_eq!(g.degree(hub), Some(3));
        g.assert_consistent();
        // A chunked and a flat realization of the same neighbor set
        // compare equal: equality is logical content.
        let (mut flat_g, fids) = DynGraph::with_nodes(CHUNK_PROMOTE + 1);
        let (mut chunked_g, cids) = DynGraph::with_nodes(CHUNK_PROMOTE + 1);
        assert_eq!(fids, cids);
        let center = fids[0];
        for &leaf in &fids[1..CHUNK_PROMOTE] {
            flat_g.insert_edge(center, leaf).unwrap();
        }
        for &leaf in fids[1..].iter() {
            chunked_g.insert_edge(center, leaf).unwrap();
        }
        chunked_g.remove_edge(center, fids[CHUNK_PROMOTE]).unwrap();
        assert_eq!(flat_g, chunked_g, "chunk layout is not graph identity");
    }

    #[test]
    fn hub_node_removal_recycles_chunk_allocations() {
        let n = CHUNK_PROMOTE + 50;
        let (mut g, ids) = DynGraph::with_nodes(n + 1);
        let hub = ids[n];
        for &leaf in &ids[..n] {
            g.insert_edge(hub, leaf).unwrap();
        }
        let nbrs = g.remove_node(hub).unwrap();
        assert_eq!(nbrs, ids[..n].to_vec());
        assert_eq!(g.edge_count(), 0);
        g.assert_consistent();
    }

    #[test]
    fn pre_sized_graph_does_not_regrow() {
        let mut g = DynGraph::with_node_capacity(500);
        for _ in 0..500 {
            g.add_node();
        }
        assert_eq!(g.regrows(), 0, "bootstrap stayed within the reservation");
        g.add_node();
        // 501 nodes against a 500-slot reservation: one realloc.
        assert!(g.regrows() >= 1);
        g.reserve_nodes(2000);
        let before = g.regrows();
        for _ in 0..1400 {
            g.add_node();
        }
        assert_eq!(g.regrows(), before, "reserve_nodes covered the growth");
    }

    #[test]
    fn from_adjacency_round_trips_with_holes() {
        // Build a churned graph (deleted node => id hole), serialize its
        // parts, reconstruct, and compare for full equality.
        let (mut g, ids) = DynGraph::with_nodes(5);
        g.insert_edge(ids[0], ids[1]).unwrap();
        g.insert_edge(ids[1], ids[2]).unwrap();
        g.insert_edge(ids[3], ids[4]).unwrap();
        g.remove_node(ids[2]).unwrap();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(EdgeKey::endpoints).collect();
        let rebuilt = DynGraph::from_adjacency(g.peek_next_id(), &nodes, &edges).unwrap();
        assert_eq!(rebuilt, g);
        assert_eq!(rebuilt.peek_next_id(), g.peek_next_id());
        assert_eq!(rebuilt.max_degree(), g.max_degree());
        rebuilt.assert_consistent();
    }

    #[test]
    fn from_adjacency_rejects_malformed_parts() {
        let a = NodeId(0);
        let b = NodeId(1);
        assert_eq!(
            DynGraph::from_adjacency(NodeId(1), &[a, b], &[]),
            Err(GraphError::MissingNode(b)),
            "ids at or above the watermark were never allocated"
        );
        assert_eq!(
            DynGraph::from_adjacency(NodeId(2), &[a, a], &[]),
            Err(GraphError::DuplicateEdge(a, a)),
            "repeated node id"
        );
        assert_eq!(
            DynGraph::from_adjacency(NodeId(2), &[a, b], &[(a, b), (b, a)]),
            Err(GraphError::DuplicateEdge(b, a)),
            "repeated edge"
        );
        assert_eq!(
            DynGraph::from_adjacency(NodeId(2), &[a], &[(a, b)]),
            Err(GraphError::MissingNode(b)),
            "edge endpoint must be a listed node"
        );
    }

    /// The per-edge construction the bulk `from_adjacency` replaced: the
    /// oracle its graphs and errors are checked against.
    fn incremental_build(
        next_id: NodeId,
        nodes: &[NodeId],
        edges: &[(NodeId, NodeId)],
    ) -> Result<DynGraph, GraphError> {
        let mut g = DynGraph::with_node_capacity(next_id.index() as usize);
        for &v in nodes {
            if v >= next_id {
                return Err(GraphError::MissingNode(v));
            }
            if g.adj.contains(v) {
                return Err(GraphError::DuplicateEdge(v, v));
            }
            g.adj.insert(v, AdjList::Flat(Vec::new()));
            g.enter_degree(0);
        }
        g.next_id = next_id.index();
        for &(u, v) in edges {
            g.insert_edge(u, v)?;
        }
        Ok(g)
    }

    /// Hub degrees straddling the promotion threshold, plus one hub
    /// spanning more than two full chunks.
    const HUB_DEGREES: [usize; 4] = [
        CHUNK_PROMOTE - 1,
        CHUNK_PROMOTE,
        CHUNK_PROMOTE + 1,
        2 * CHUNK_MAX + 37,
    ];

    /// The arguments of [`DynGraph::from_adjacency`], owned.
    type Parts = (NodeId, Vec<NodeId>, Vec<(NodeId, NodeId)>);

    /// A seeded graph's parts: a watermark with id holes below it, the
    /// live ids shuffled, and a shuffled edge list with each edge in a
    /// random orientation. Four hubs, returned second, get exactly
    /// [`HUB_DEGREES`]; the other nodes share random background edges.
    fn random_parts(seed: u64) -> (Parts, Vec<NodeId>) {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let next_id = 1200u64;
        let mut nodes: Vec<NodeId> = (0..next_id)
            .filter(|i| i % 7 != 3 && *i != next_id - 1)
            .map(NodeId)
            .collect();
        nodes.shuffle(&mut rng);
        let (hubs, rest) = nodes.split_at(HUB_DEGREES.len());
        let mut keys = std::collections::BTreeSet::new();
        for (&hub, &degree) in hubs.iter().zip(&HUB_DEGREES) {
            let mut leaves = rest.to_vec();
            leaves.shuffle(&mut rng);
            keys.extend(leaves[..degree].iter().map(|&w| EdgeKey::new(hub, w)));
        }
        for _ in 0..3 * rest.len() {
            let u = rest[rng.random_range(0..rest.len())];
            let v = rest[rng.random_range(0..rest.len())];
            if u != v {
                keys.insert(EdgeKey::new(u, v));
            }
        }
        let mut edges: Vec<(NodeId, NodeId)> = keys
            .into_iter()
            .map(|k| {
                let (u, v) = k.endpoints();
                if rng.random_bool(0.5) {
                    (u, v)
                } else {
                    (v, u)
                }
            })
            .collect();
        edges.shuffle(&mut rng);
        let hubs = hubs.to_vec();
        ((NodeId(next_id), nodes, edges), hubs)
    }

    #[test]
    fn from_adjacency_equals_the_incremental_build() {
        for seed in 0..6 {
            let ((next_id, nodes, edges), hubs) = random_parts(seed);
            let bulk = DynGraph::from_adjacency(next_id, &nodes, &edges).unwrap();
            let oracle = incremental_build(next_id, &nodes, &edges).unwrap();
            bulk.assert_consistent();
            assert_eq!(bulk, oracle, "seed {seed}");
            assert_eq!(bulk.max_degree(), oracle.max_degree(), "seed {seed}");
            assert_eq!(bulk.edge_count(), oracle.edge_count(), "seed {seed}");
            assert_eq!(bulk.peek_next_id(), next_id);
            for (&hub, &degree) in hubs.iter().zip(&HUB_DEGREES) {
                assert_eq!(bulk.degree(hub), Some(degree), "seed {seed}");
                let chunks = bulk.neighbor_chunks(hub).unwrap().count();
                assert_eq!(
                    chunks > 1,
                    degree >= CHUNK_PROMOTE,
                    "hub of degree {degree}"
                );
            }
            // Ascending edge order takes the path that sorts nothing.
            let sorted: Vec<(NodeId, NodeId)> = bulk.edges().map(EdgeKey::endpoints).collect();
            let again = DynGraph::from_adjacency(next_id, &nodes, &sorted).unwrap();
            again.assert_consistent();
            assert_eq!(again, oracle, "seed {seed}, ascending edges");
            // The bulk-built chunks take later churn like grown ones.
            let (mut bulk, mut oracle) = (bulk, oracle);
            let hub = hubs[HUB_DEGREES.len() - 1];
            let nbrs = oracle.neighbors_vec(hub).unwrap();
            for &w in nbrs.iter().step_by(3) {
                bulk.remove_edge(hub, w).unwrap();
                oracle.remove_edge(hub, w).unwrap();
            }
            for &w in &nodes {
                if w != hub && !oracle.has_edge(hub, w) && w.index() % 5 == 0 {
                    bulk.insert_edge(w, hub).unwrap();
                    oracle.insert_edge(w, hub).unwrap();
                }
            }
            bulk.assert_consistent();
            assert_eq!(bulk, oracle, "seed {seed}, after churn");
            assert_eq!(bulk.max_degree(), oracle.max_degree());
        }
    }

    #[test]
    fn from_adjacency_errors_match_the_incremental_build() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        type Defect = fn(&mut Parts, &mut StdRng);
        let defects: [(&str, Defect); 7] = [
            ("self-loop", |(_, nodes, edges), rng| {
                let v = nodes[rng.random_range(0..nodes.len())];
                edges.insert(rng.random_range(0..=edges.len()), (v, v));
            }),
            ("endpoint in an id hole", |(_, nodes, edges), rng| {
                let v = nodes[rng.random_range(0..nodes.len())];
                edges.insert(rng.random_range(0..=edges.len()), (v, NodeId(3)));
            }),
            (
                "endpoint at the watermark",
                |(next_id, nodes, edges), rng| {
                    let v = nodes[rng.random_range(0..nodes.len())];
                    edges.insert(rng.random_range(0..=edges.len()), (*next_id, v));
                },
            ),
            ("node id at the watermark", |(next_id, nodes, _), rng| {
                nodes.insert(rng.random_range(0..=nodes.len()), *next_id);
            }),
            ("node id repeated", |(_, nodes, _), rng| {
                let v = nodes[rng.random_range(0..nodes.len())];
                nodes.insert(rng.random_range(0..=nodes.len()), v);
            }),
            ("edge repeated", |(_, _, edges), rng| {
                let e = edges[rng.random_range(0..edges.len())];
                edges.insert(rng.random_range(0..=edges.len()), e);
            }),
            ("edge repeated reversed", |(_, _, edges), rng| {
                let (u, v) = edges[rng.random_range(0..edges.len())];
                edges.insert(rng.random_range(0..=edges.len()), (v, u));
            }),
        ];
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let (parts, _) = random_parts(seed);
            for (what, inject) in &defects {
                let mut parts = parts.clone();
                inject(&mut parts, &mut rng);
                let (next_id, nodes, edges) = parts;
                let bulk = DynGraph::from_adjacency(next_id, &nodes, &edges).unwrap_err();
                let oracle = incremental_build(next_id, &nodes, &edges).unwrap_err();
                assert_eq!(
                    std::mem::discriminant(&bulk),
                    std::mem::discriminant(&oracle),
                    "{what}, seed {seed}: {bulk:?} vs {oracle:?}"
                );
            }
        }
    }

    #[test]
    fn from_adjacency_refuses_an_unreservable_watermark() {
        for watermark in [1u64 << 62, u64::MAX] {
            assert_eq!(
                DynGraph::from_adjacency(NodeId(watermark), &[NodeId(0)], &[]),
                Err(GraphError::MissingNode(NodeId(watermark)))
            );
        }
    }

    #[test]
    fn neighbors_vec_errors_on_missing() {
        let g = DynGraph::new();
        assert_eq!(
            g.neighbors_vec(NodeId(0)),
            Err(GraphError::MissingNode(NodeId(0)))
        );
    }
}
