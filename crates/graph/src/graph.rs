//! Core undirected graph type.

use crate::Rows;
use std::fmt;

/// Identifier of a node inside a [`Graph`].
///
/// Node ids are dense indices assigned in insertion order; they are only
/// meaningful relative to the graph that created them.
///
/// # Example
///
/// ```
/// use oneq_graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// This does not validate that the index exists in any particular graph;
    /// use [`Graph::contains_node`] for that.
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the raw index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

/// An undirected edge between two nodes.
///
/// Edges are stored in normalized form: `a <= b`. Two `Edge` values compare
/// equal regardless of the endpoint order they were built with.
///
/// # Example
///
/// ```
/// use oneq_graph::{Edge, NodeId};
///
/// let e1 = Edge::new(NodeId::new(3), NodeId::new(1));
/// let e2 = Edge::new(NodeId::new(1), NodeId::new(3));
/// assert_eq!(e1, e2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    a: NodeId,
    b: NodeId,
}

impl Edge {
    /// Creates a normalized edge between `a` and `b`.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            Edge { a, b }
        } else {
            Edge { a: b, b: a }
        }
    }

    /// The smaller endpoint.
    pub fn a(self) -> NodeId {
        self.a
    }

    /// The larger endpoint.
    pub fn b(self) -> NodeId {
        self.b
    }

    /// Returns the endpoint opposite to `n`, or `None` when `n` is not an
    /// endpoint of this edge.
    pub fn other(self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Returns both endpoints as a tuple `(a, b)` with `a <= b`.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}-{})", self.a, self.b)
    }
}

/// Errors returned by graph mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An operation referenced a node id not present in the graph.
    InvalidNode(NodeId),
    /// An edge insertion would create a self-loop, which simple graphs
    /// disallow.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidNode(n) => write!(f, "node {n} does not exist in the graph"),
            GraphError::SelfLoop(n) => write!(f, "self-loop on node {n} is not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph (no self-loops, no parallel edges) with dense
/// node ids.
///
/// This is the workhorse structure of the compiler: graph states and fusion
/// graphs are both `Graph`s (plus side tables owned by the respective
/// crates). Neighbor lists preserve insertion order, which the
/// embedding code relies on for deterministic output.
///
/// The adjacency lists are the only edge store: [`Graph::has_edge`] scans
/// the shorter of the two endpoints' lists, and every edge iteration walks
/// the lists, so no operation hashes and every order is a function of the
/// insertion sequence alone. The lists are [`Rows`] of one shared buffer,
/// so a graph allocates per doubling of its size, not per node.
///
/// # Example
///
/// ```
/// use oneq_graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.add_edge(a, b).unwrap();
/// g.add_edge(b, c).unwrap();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(b), 2);
/// assert!(g.has_edge(a, b));
/// assert!(!g.has_edge(a, c));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Rows,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adj: Rows::with_rows(n),
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list over nodes `0..n`.
    ///
    /// `n` must be at least one greater than the largest endpoint index.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n` or is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::with_nodes(n);
        for &(a, b) in edges {
            g.add_edge(NodeId::new(a), NodeId::new(b))
                .expect("edge endpoints must be < n and distinct");
        }
        g
    }

    /// Adds a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        NodeId::new(self.adj.push_row())
    }

    /// Returns `true` if `n` is a valid node of this graph.
    pub fn contains_node(&self, n: NodeId) -> bool {
        n.index() < self.adj.len()
    }

    /// Inserts the undirected edge `(a, b)`.
    ///
    /// Returns `Ok(true)` if the edge was newly inserted and `Ok(false)` if
    /// it was already present.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidNode`] when either endpoint does not
    /// exist and [`GraphError::SelfLoop`] when `a == b`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        if !self.contains_node(a) {
            return Err(GraphError::InvalidNode(a));
        }
        if !self.contains_node(b) {
            return Err(GraphError::InvalidNode(b));
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if self.has_edge(a, b) {
            return Ok(false);
        }
        self.push_edge(a, b);
        Ok(true)
    }

    /// Appends the edge `(a, b)`, which the caller knows joins two distinct
    /// nodes of this graph and is not present yet.
    fn push_edge(&mut self, a: NodeId, b: NodeId) {
        debug_assert!(a != b && !self.has_edge(a, b), "edge ({a}, {b}) is new");
        self.adj.push(a.index(), b);
        self.adj.push(b.index(), a);
        self.edge_count += 1;
    }

    /// Removes the undirected edge `(a, b)` if present; returns whether an
    /// edge was removed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.has_edge(a, b) {
            return false;
        }
        self.adj.remove(a.index(), b);
        self.adj.remove(b.index(), a);
        self.edge_count -= 1;
        true
    }

    /// Returns `true` if the edge `(a, b)` exists; `false` when either id
    /// is not a node of this graph.
    ///
    /// Scans the shorter of the two neighbor lists: O(min degree).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        match (self.adj.get(a.index()), self.adj.get(b.index())) {
            (Some(na), Some(nb)) if na.len() <= nb.len() => na.contains(&b),
            (Some(_), Some(nb)) => nb.contains(&a),
            _ => false,
        }
    }

    /// Neighbors of `n` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this graph.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        self.adj.row(n.index())
    }

    /// Degree (number of incident edges) of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this graph.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj.row_len(n.index())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Removes every node and edge, keeping the allocated capacity for the
    /// next graph built in this one.
    pub fn clear(&mut self) {
        self.adj.clear();
        self.edge_count = 0;
    }

    /// Iterator over all node ids, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::new)
    }

    /// Iterator over all edges, each once: by ascending smaller endpoint
    /// `a`, and for one `a` in the order of `a`'s neighbor list (insertion
    /// order). Use [`Graph::sorted_edges`] when fully sorted edges are
    /// needed.
    ///
    /// # Example
    ///
    /// ```
    /// use oneq_graph::Graph;
    ///
    /// let g = Graph::from_edges(4, &[(0, 3), (2, 1), (0, 1)]);
    /// let edges: Vec<(usize, usize)> =
    ///     g.edges().map(|e| (e.a().index(), e.b().index())).collect();
    /// assert_eq!(edges, [(0, 3), (0, 1), (1, 2)]);
    /// ```
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, row)| {
            let a = NodeId::new(a);
            row.iter()
                .filter(move |&&b| a < b)
                .map(move |&b| Edge { a, b })
        })
    }

    /// All edges sorted by endpoints; use for deterministic iteration.
    pub fn sorted_edges(&self) -> Vec<Edge> {
        let mut v: Vec<Edge> = self.edges().collect();
        v.sort_unstable();
        v
    }

    /// The maximum degree over all nodes, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(<[NodeId]>::len).max().unwrap_or(0)
    }

    /// Builds the subgraph induced by `nodes`.
    ///
    /// Returns the new graph together with the mapping from old node ids to
    /// new node ids (position `i` of `nodes` becomes node `i`).
    ///
    /// Edges are inserted in ascending order of their endpoints in `self`,
    /// which fixes every node's [`Graph::neighbors`] order. Only the edges
    /// among `nodes` are collected (from their adjacency lists) and
    /// sorted, so the cost is linear in their degrees, not in the size of
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains an invalid or duplicate id.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut map = vec![usize::MAX; self.node_count()];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(self.contains_node(old), "invalid node {old}");
            assert!(map[old.index()] == usize::MAX, "duplicate node {old}");
            map[old.index()] = new;
        }
        let mut inner: Vec<Edge> = Vec::new();
        for &a in nodes {
            for &b in self.neighbors(a) {
                if a < b && map[b.index()] != usize::MAX {
                    inner.push(Edge { a, b });
                }
            }
        }
        inner.sort_unstable();
        // Each row gets exactly its degree, so no row ever moves.
        let mut degree = vec![0usize; nodes.len()];
        for e in &inner {
            degree[map[e.a().index()]] += 1;
            degree[map[e.b().index()]] += 1;
        }
        let mut g = Graph::new();
        for d in degree {
            g.adj.push_row_with_capacity(d);
        }
        for edge in inner {
            let (a, b) = edge.endpoints();
            g.push_edge(NodeId::new(map[a.index()]), NodeId::new(map[b.index()]));
        }
        (g, nodes.to_vec())
    }

    /// Merges `other` into `self` as a disjoint union.
    ///
    /// Returns the offset to add to `other`'s node indices to find them in
    /// `self`.
    pub fn disjoint_union(&mut self, other: &Graph) -> usize {
        let offset = self.node_count();
        for _ in 0..other.node_count() {
            self.add_node();
        }
        for edge in other.sorted_edges() {
            let (a, b) = edge.endpoints();
            self.push_edge(
                NodeId::new(a.index() + offset),
                NodeId::new(b.index() + offset),
            );
        }
        offset
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.node_count(), self.edge_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn add_node_assigns_dense_ids() {
        let mut g = Graph::new();
        assert_eq!(g.add_node().index(), 0);
        assert_eq!(g.add_node().index(), 1);
        assert_eq!(g.add_node().index(), 2);
    }

    #[test]
    fn add_edge_is_undirected_and_idempotent() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(g.add_edge(a, b), Ok(true));
        assert_eq!(g.add_edge(b, a), Ok(false));
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut g = Graph::with_nodes(1);
        let a = NodeId::new(0);
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn invalid_node_is_rejected() {
        let mut g = Graph::with_nodes(1);
        let bad = NodeId::new(7);
        assert_eq!(
            g.add_edge(NodeId::new(0), bad),
            Err(GraphError::InvalidNode(bad))
        );
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.remove_edge(NodeId::new(1), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(g.degree(NodeId::new(1)), 1);
        assert!(!g.remove_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn edge_normalizes_endpoints() {
        let e = Edge::new(NodeId::new(5), NodeId::new(2));
        assert_eq!(e.a().index(), 2);
        assert_eq!(e.b().index(), 5);
        assert_eq!(e.other(NodeId::new(2)), Some(NodeId::new(5)));
        assert_eq!(e.other(NodeId::new(5)), Some(NodeId::new(2)));
        assert_eq!(e.other(NodeId::new(9)), None);
    }

    #[test]
    fn degree_counts_incident_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree(NodeId::new(0)), 3);
        assert_eq!(g.degree(NodeId::new(1)), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (sub, map) = g.induced_subgraph(&[NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // 0-1, 1-2; edge 4-0 dropped
        assert_eq!(map.len(), 3);
        assert!(sub.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(sub.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    /// `induced_subgraph` as it was before it collected edges from the
    /// adjacency lists: filter the whole graph's sorted edge set.
    fn induced_by_sorting_everything(g: &Graph, nodes: &[NodeId]) -> Graph {
        let mut map = vec![usize::MAX; g.node_count()];
        for (new, &old) in nodes.iter().enumerate() {
            map[old.index()] = new;
        }
        let mut sub = Graph::with_nodes(nodes.len());
        for edge in g.sorted_edges() {
            let (a, b) = edge.endpoints();
            let (na, nb) = (map[a.index()], map[b.index()]);
            if na != usize::MAX && nb != usize::MAX {
                sub.add_edge(NodeId::new(na), NodeId::new(nb)).unwrap();
            }
        }
        sub
    }

    #[test]
    fn induced_subgraph_matches_the_sort_everything_version() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let n = rng.gen_range(1..60);
            let m = rng.gen_range(0..n * 4);
            let g = crate::generators::gnm(n, m, &mut rng);
            let mut nodes: Vec<NodeId> = g.nodes().collect();
            for i in (1..n).rev() {
                nodes.swap(i, rng.gen_range(0..=i));
            }
            nodes.truncate(rng.gen_range(0..=n));
            let (sub, map) = g.induced_subgraph(&nodes);
            let reference = induced_by_sorting_everything(&g, &nodes);
            assert_eq!(map, nodes);
            assert_eq!(sub.sorted_edges(), reference.sorted_edges());
            for v in sub.nodes() {
                assert_eq!(sub.neighbors(v), reference.neighbors(v), "node {v}");
            }
        }
    }

    #[test]
    fn disjoint_union_offsets_ids() {
        let mut g = Graph::from_edges(2, &[(0, 1)]);
        let h = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let offset = g.disjoint_union(&h);
        assert_eq!(offset, 2);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(NodeId::new(2), NodeId::new(3)));
        assert!(g.has_edge(NodeId::new(3), NodeId::new(4)));
    }

    #[test]
    fn sorted_edges_is_deterministic() {
        let g = Graph::from_edges(4, &[(2, 3), (0, 1), (1, 2)]);
        let e: Vec<(usize, usize)> = g
            .sorted_edges()
            .iter()
            .map(|e| (e.a().index(), e.b().index()))
            .collect();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn edges_walk_ascending_a_then_adjacency_order() {
        let mut g = Graph::from_edges(5, &[(3, 0), (0, 2), (4, 1), (1, 0), (2, 4), (1, 3)]);
        let pairs = |g: &Graph| -> Vec<(usize, usize)> {
            g.edges().map(|e| (e.a().index(), e.b().index())).collect()
        };
        // Node 0's list is [3, 2, 1], node 1's [4, 0, 3], node 2's [0, 4].
        assert_eq!(pairs(&g), [(0, 3), (0, 2), (0, 1), (1, 4), (1, 3), (2, 4)]);
        assert!(g.remove_edge(NodeId::new(2), NodeId::new(0)));
        g.add_edge(NodeId::new(2), NodeId::new(0)).unwrap();
        // A removed and re-added edge moves to the end of both lists.
        assert_eq!(pairs(&g), [(0, 3), (0, 1), (0, 2), (1, 4), (1, 3), (2, 4)]);
        let mut sorted = pairs(&g);
        sorted.sort_unstable();
        let from_sorted: Vec<(usize, usize)> = g
            .sorted_edges()
            .iter()
            .map(|e| (e.a().index(), e.b().index()))
            .collect();
        assert_eq!(from_sorted, sorted);
    }

    #[test]
    fn has_edge_is_false_for_ids_outside_the_graph() {
        let mut g = Graph::from_edges(2, &[(0, 1)]);
        let (a, bad) = (NodeId::new(0), NodeId::new(9));
        assert!(!g.has_edge(a, bad));
        assert!(!g.has_edge(bad, a));
        assert!(!g.has_edge(bad, bad));
        assert!(!g.has_edge(a, a));
        assert!(!g.remove_edge(a, bad));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn display_formats() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert_eq!(format!("{g}"), "Graph(n=2, m=1)");
        assert_eq!(format!("{}", NodeId::new(3)), "n3");
        assert_eq!(
            format!("{}", Edge::new(NodeId::new(1), NodeId::new(0))),
            "(n0-n1)"
        );
    }
}
