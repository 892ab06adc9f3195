//! Biconnectivity analysis: bridges, articulation points and biconnected
//! components (Hopcroft–Tarjan lowlink algorithm, iterative form).
//!
//! The fusion mapper (paper §6) traverses edges in a *cycle-prioritized*
//! breadth-first order: edges that participate in cycles are mapped before
//! tree edges. An edge lies on a cycle exactly when it is **not** a bridge,
//! so the mapper consumes [`bridges`] from this module.

use crate::{Edge, Graph, NodeId};

/// The result of a single biconnectivity sweep over a graph.
#[derive(Debug, Clone)]
pub struct Biconnectivity {
    /// Edges whose removal disconnects their component, sorted.
    pub bridges: Vec<Edge>,
    /// Nodes whose removal disconnects their component, in ascending order.
    pub articulation_points: Vec<NodeId>,
    /// Edge sets of the biconnected components (bridges form singleton
    /// components).
    pub components: Vec<Vec<Edge>>,
}

/// The blocks (biconnected components) of a graph from one iterative
/// Hopcroft–Tarjan sweep, as a flat edge list: block `i` is
/// `edges[ends[i - 1]..ends[i]]` (from 0 for the first), with its edges in
/// the order the sweep pops them off its edge stack. A bridge is a
/// one-edge block.
///
/// This is the crate's one biconnectivity DFS: [`analyze`] and the
/// planarity test both read its blocks.
pub(crate) struct Blocks {
    edges: Vec<Edge>,
    ends: Vec<usize>,
    /// Whether each node separates its component (swept nodes only).
    articulation: Vec<bool>,
}

impl Blocks {
    /// Each block's edges, in the order the sweep closed the blocks.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Edge]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.edges[start..end])
    }
}

/// Sweeps every component that holds one of `roots`, starting a DFS from
/// each root not reached yet, in the order given. Nodes are visited in
/// neighbor-list order, so the blocks and their edge order are a
/// function of `adjacency` and the root order alone.
pub(crate) fn blocks(adjacency: &[Vec<NodeId>], roots: impl IntoIterator<Item = NodeId>) -> Blocks {
    const UNSEEN: usize = usize::MAX;
    let n = adjacency.len();
    let mut disc = vec![UNSEEN; n]; // discovery time
    let mut low = vec![UNSEEN; n]; // lowlink
    let mut parent = vec![UNSEEN; n];
    let mut articulation = vec![false; n];
    let mut timer = 0usize;
    let mut edges: Vec<Edge> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut edge_stack: Vec<Edge> = Vec::new();
    // Iterative DFS frame: (node, index into neighbor list).
    let mut stack: Vec<(usize, usize)> = Vec::new();

    for root in roots {
        let root = root.index();
        if disc[root] != UNSEEN {
            continue;
        }
        stack.push((root, 0));
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        let mut root_children = 0usize;

        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if let Some(&v) = adjacency[u].get(*i) {
                let v = v.index();
                *i += 1;
                if disc[v] == UNSEEN {
                    // Tree edge.
                    parent[v] = u;
                    edge_stack.push(Edge::new(NodeId::new(u), NodeId::new(v)));
                    if u == root {
                        root_children += 1;
                    }
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, 0));
                } else if v != parent[u] && disc[v] < disc[u] {
                    // Back edge (counted once, toward the ancestor).
                    edge_stack.push(Edge::new(NodeId::new(u), NodeId::new(v)));
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    if low[u] >= disc[p] {
                        // p separates u's subtree: pop one block ending
                        // with the tree edge (p, u).
                        let sep = Edge::new(NodeId::new(p), NodeId::new(u));
                        while let Some(e) = edge_stack.pop() {
                            edges.push(e);
                            if e == sep {
                                break;
                            }
                        }
                        ends.push(edges.len());
                        if p != root {
                            articulation[p] = true;
                        }
                    }
                }
            }
        }
        if root_children > 1 {
            articulation[root] = true;
        }
    }

    Blocks {
        edges,
        ends,
        articulation,
    }
}

/// Runs the Hopcroft–Tarjan algorithm and returns bridges, articulation
/// points and biconnected components in one pass.
///
/// # Example
///
/// ```
/// use oneq_graph::{Graph, biconnected};
///
/// // Two triangles sharing node 2: node 2 is an articulation point,
/// // there are no bridges, and there are two biconnected components.
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
/// let b = biconnected::analyze(&g);
/// assert!(b.bridges.is_empty());
/// assert_eq!(b.articulation_points.len(), 1);
/// assert_eq!(b.components.len(), 2);
/// ```
pub fn analyze(graph: &Graph) -> Biconnectivity {
    let blocks = blocks(graph.adjacency(), graph.nodes());
    let components: Vec<Vec<Edge>> = blocks.iter().map(<[Edge]>::to_vec).collect();
    Biconnectivity {
        bridges: sorted_bridges(&blocks),
        articulation_points: graph
            .nodes()
            .filter(|n| blocks.articulation[n.index()])
            .collect(),
        components,
    }
}

fn sorted_bridges(blocks: &Blocks) -> Vec<Edge> {
    let mut bridges: Vec<Edge> = blocks
        .iter()
        .filter_map(|block| match block {
            [bridge] => Some(*bridge),
            _ => None,
        })
        .collect();
    bridges.sort_unstable();
    bridges
}

/// Edges whose removal disconnects their component (the one-edge blocks),
/// sorted, so membership is a `binary_search`.
pub fn bridges(graph: &Graph) -> Vec<Edge> {
    sorted_bridges(&blocks(graph.adjacency(), graph.nodes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn tree_edges_are_all_bridges() {
        let g = generators::path(6);
        let b = analyze(&g);
        assert_eq!(b.bridges.len(), 5);
        assert_eq!(b.components.len(), 5);
        // All interior nodes are articulation points.
        assert_eq!(b.articulation_points.len(), 4);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = generators::cycle(7);
        let b = analyze(&g);
        assert!(b.bridges.is_empty());
        assert!(b.articulation_points.is_empty());
        assert_eq!(b.components.len(), 1);
        assert_eq!(b.components[0].len(), 7);
    }

    #[test]
    fn lollipop_has_one_bridge() {
        // Triangle 0-1-2 plus a tail 2-3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let b = analyze(&g);
        assert_eq!(b.bridges.len(), 1);
        assert!(b
            .bridges
            .contains(&Edge::new(NodeId::new(2), NodeId::new(3))));
        assert_eq!(b.articulation_points.len(), 1);
        assert!(b.articulation_points.contains(&NodeId::new(2)));
        assert_eq!(b.components.len(), 2);
    }

    #[test]
    fn two_triangles_sharing_a_node() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let b = analyze(&g);
        assert!(b.bridges.is_empty());
        assert_eq!(b.articulation_points, [NodeId::new(2)]);
        assert_eq!(b.components.len(), 2);
        for comp in &b.components {
            assert_eq!(comp.len(), 3);
        }
    }

    #[test]
    fn disconnected_graph_is_analyzed_per_component() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]);
        let b = analyze(&g);
        assert_eq!(b.bridges.len(), 2);
        assert_eq!(b.components.len(), 3);
    }

    #[test]
    fn complete_graph_is_one_component() {
        let g = generators::complete(5);
        let b = analyze(&g);
        assert!(b.bridges.is_empty());
        assert!(b.articulation_points.is_empty());
        assert_eq!(b.components.len(), 1);
        assert_eq!(b.components[0].len(), 10);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let b = analyze(&Graph::new());
        assert!(b.components.is_empty());
        let b = analyze(&Graph::with_nodes(3));
        assert!(b.components.is_empty());
        assert!(b.bridges.is_empty());
    }

    #[test]
    fn grid_has_no_bridges() {
        let g = generators::grid(3, 3);
        assert!(bridges(&g).is_empty());
    }
}
