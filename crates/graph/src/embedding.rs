//! Combinatorial planar embeddings (rotation systems) and face traversal.
//!
//! A *rotation system* assigns to every node a cyclic order of its incident
//! edges. A rotation system is a **planar** embedding exactly when the number
//! of faces it induces satisfies Euler's formula `n - m + f = 1 + c`.
//! OneQ's fusion-graph generation (paper §5) consumes the clockwise edge
//! orders stored here to keep fusion graphs planar, and the planarity-aware
//! mapper (paper §6) follows them when reserving grid positions.

use crate::{Graph, NodeId, Rows};
use std::collections::HashMap;

/// A face of an embedded graph, stored as a directed closed walk.
///
/// The walk lists each node once per visit; the edge from the last node back
/// to the first is implicit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Face {
    nodes: Vec<NodeId>,
}

impl Face {
    /// Creates a face from a directed node walk.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        Face { nodes }
    }

    /// The nodes of the walk in traversal order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of edge traversals on the boundary (walk length).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for a degenerate empty walk.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` if `n` lies on this face's boundary.
    pub fn contains(&self, n: NodeId) -> bool {
        self.nodes.contains(&n)
    }
}

/// A rotation system: for each node, the cyclic order of its neighbors,
/// kept as [`Rows`] of one pooled buffer.
///
/// # Example
///
/// ```
/// use oneq_graph::{Embedding, Graph, NodeId};
///
/// // A triangle has one valid embedding (up to reflection): 2 faces.
/// let g = oneq_graph::generators::cycle(3);
/// let emb = Embedding::from_rotations(vec![
///     vec![NodeId::new(1), NodeId::new(2)],
///     vec![NodeId::new(2), NodeId::new(0)],
///     vec![NodeId::new(0), NodeId::new(1)],
/// ]);
/// assert_eq!(emb.faces(&g).len(), 2);
/// assert!(emb.verify(&g));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    order: Rows,
}

impl Embedding {
    /// Builds an embedding from explicit per-node neighbor orders.
    pub fn from_rotations(order: Vec<Vec<NodeId>>) -> Self {
        let mut rows = Rows::new();
        for rotation in &order {
            rows.push_row_from(rotation);
        }
        Embedding { order: rows }
    }

    /// An embedding whose rotations are `order`'s rows.
    pub(crate) fn from_rows(order: Rows) -> Self {
        Embedding { order }
    }

    /// The default embedding that uses each node's adjacency-list order.
    ///
    /// This is *not* necessarily planar; it is the starting point for
    /// algorithms and a valid embedding for forests, paths and cycles.
    pub fn from_adjacency(graph: &Graph) -> Self {
        let mut rows = Rows::new();
        for n in graph.nodes() {
            rows.push_row_from(graph.neighbors(n));
        }
        Embedding { order: rows }
    }

    /// Number of nodes covered by this embedding.
    pub fn node_count(&self) -> usize {
        self.order.len()
    }

    /// Cyclic neighbor order around `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn rotation(&self, n: NodeId) -> &[NodeId] {
        self.order.row(n.index())
    }

    /// The neighbor that follows `prev` in the cyclic order around `n`, or
    /// `None` if `prev` is not a neighbor of `n`.
    pub fn next_after(&self, n: NodeId, prev: NodeId) -> Option<NodeId> {
        let rot = self.order.row(n.index());
        let pos = rot.iter().position(|&x| x == prev)?;
        Some(rot[(pos + 1) % rot.len()])
    }

    /// Traces all faces induced by this rotation system.
    ///
    /// Faces are the orbits of the next-edge map
    /// `(u, v) -> (v, rotation_v.next_after(u))` over directed edges.
    ///
    /// # Panics
    ///
    /// Panics if the embedding does not cover every node of `graph` or the
    /// rotations are not permutations of the neighbor sets.
    pub fn faces(&self, graph: &Graph) -> Vec<Face> {
        assert_eq!(
            self.order.len(),
            graph.node_count(),
            "embedding must cover every node"
        );
        let mut visited: HashMap<(NodeId, NodeId), bool> = HashMap::new();
        for e in graph.edges() {
            visited.insert((e.a(), e.b()), false);
            visited.insert((e.b(), e.a()), false);
        }
        let mut darts: Vec<(NodeId, NodeId)> = visited.keys().copied().collect();
        darts.sort();
        let mut faces = Vec::new();
        for start in darts {
            if visited[&start] {
                continue;
            }
            let mut walk = Vec::new();
            let (mut u, mut v) = start;
            loop {
                *visited
                    .get_mut(&(u, v))
                    .expect("dart exists by construction") = true;
                walk.push(u);
                let w = self
                    .next_after(v, u)
                    .expect("rotation must contain every neighbor");
                u = v;
                v = w;
                if (u, v) == start {
                    break;
                }
            }
            faces.push(Face::new(walk));
        }
        faces
    }

    /// Checks that this embedding is a *planar* embedding of `graph`:
    /// every rotation is a permutation of the node's neighbor set and the
    /// face-orbit count satisfies Euler's formula per component, i.e.
    /// `n - m + f = 2c` (each component's outer face is its own orbit).
    pub fn verify(&self, graph: &Graph) -> bool {
        if self.order.len() != graph.node_count() {
            return false;
        }
        for n in graph.nodes() {
            let mut rot: Vec<NodeId> = self.rotation(n).to_vec();
            let mut adj: Vec<NodeId> = graph.neighbors(n).to_vec();
            rot.sort();
            adj.sort();
            if rot != adj {
                return false;
            }
        }
        let c = crate::traversal::connected_components(graph).len();
        let f = self.faces(graph).len();
        let isolated = graph.nodes().filter(|&n| graph.degree(n) == 0).count();
        // Isolated nodes induce no face orbit; they sit inside some face.
        let n = graph.node_count() - isolated;
        let c_eff = c - isolated;
        let m = graph.edge_count();
        if n == 0 {
            return m == 0;
        }
        n + f == m + 2 * c_eff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_default_embedding_has_one_face() {
        let g = generators::path(5);
        let emb = Embedding::from_adjacency(&g);
        assert_eq!(emb.faces(&g).len(), 1);
        assert!(emb.verify(&g));
    }

    #[test]
    fn cycle_default_embedding_has_two_faces() {
        let g = generators::cycle(6);
        let emb = Embedding::from_adjacency(&g);
        assert_eq!(emb.faces(&g).len(), 2);
        assert!(emb.verify(&g));
    }

    #[test]
    fn tree_any_rotation_is_planar() {
        let g = generators::star(6);
        let mut order: Vec<Vec<NodeId>> = g.nodes().map(|n| g.neighbors(n).to_vec()).collect();
        order[0].reverse(); // any hub rotation works for a tree
        let emb = Embedding::from_rotations(order);
        assert_eq!(emb.faces(&g).len(), 1);
        assert!(emb.verify(&g));
    }

    #[test]
    fn k4_planar_rotation_verifies() {
        // K4 embedding: outer triangle 0-1-2 with 3 in the center.
        let g = generators::complete(4);
        let n = |i| NodeId::new(i);
        let emb = Embedding::from_rotations(vec![
            vec![n(1), n(3), n(2)],
            vec![n(2), n(3), n(0)],
            vec![n(0), n(3), n(1)],
            vec![n(0), n(1), n(2)],
        ]);
        assert_eq!(emb.faces(&g).len(), 4);
        assert!(emb.verify(&g));
    }

    #[test]
    fn k4_bad_rotation_fails_euler() {
        // Swapping one rotation makes the system toroidal (fewer faces).
        let g = generators::complete(4);
        let n = |i| NodeId::new(i);
        let emb = Embedding::from_rotations(vec![
            vec![n(1), n(2), n(3)],
            vec![n(2), n(3), n(0)],
            vec![n(0), n(3), n(1)],
            vec![n(0), n(1), n(2)],
        ]);
        assert!(!emb.verify(&g));
    }

    #[test]
    fn rotation_mismatching_neighbors_fails_verify() {
        let g = generators::path(3);
        let emb = Embedding::from_rotations(vec![
            vec![NodeId::new(1)],
            vec![NodeId::new(0)], // missing neighbor 2
            vec![NodeId::new(1)],
        ]);
        assert!(!emb.verify(&g));
    }

    #[test]
    fn next_after_walks_the_rotation() {
        let g = generators::star(5);
        let emb = Embedding::from_adjacency(&g);
        let hub = NodeId::new(0);
        let rot = emb.rotation(hub);
        for (i, &u) in rot.iter().enumerate() {
            assert_eq!(emb.next_after(hub, u), Some(rot[(i + 1) % rot.len()]));
        }
        assert_eq!(emb.next_after(hub, NodeId::new(99)), None);
    }

    #[test]
    fn isolated_nodes_are_tolerated() {
        let mut g = generators::path(3);
        g.add_node();
        let emb = Embedding::from_adjacency(&g);
        assert!(emb.verify(&g));
    }

    #[test]
    fn face_contains_and_len() {
        let g = generators::cycle(4);
        let emb = Embedding::from_adjacency(&g);
        let faces = emb.faces(&g);
        for f in &faces {
            assert_eq!(f.len(), 4);
            assert!(f.contains(NodeId::new(0)));
            assert!(!f.is_empty());
        }
    }

    #[test]
    fn two_by_two_grid_is_a_quadrilateral() {
        // A 2x2 grid is a 4-cycle; all nodes have degree 2, so the
        // adjacency-order rotation is the unique embedding.
        let g = generators::grid(2, 2);
        let emb = Embedding::from_adjacency(&g);
        assert!(emb.verify(&g));
        assert_eq!(emb.faces(&g).len(), 2);
    }
}
