//! Biconnectivity analysis: bridges, articulation points and biconnected
//! components (Hopcroft–Tarjan lowlink algorithm, iterative form).
//!
//! The fusion mapper (paper §6) traverses edges in a *cycle-prioritized*
//! breadth-first order: edges that participate in cycles are mapped before
//! tree edges. An edge lies on a cycle exactly when it is **not** a bridge,
//! so the mapper asks [`bridge_marks`] from this module.

use crate::{Edge, Graph, NodeId};
use std::cmp::Ordering;

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

/// One step of [`lowlink_walk`], in DFS order.
enum Step {
    /// The walk crossed edge `(u, v)` from `u`: a tree edge, with `v` just
    /// discovered, or a back edge to an ancestor `v`.
    Edge(usize, usize),
    /// The walk backed out of `child` into its tree parent `parent`, with
    /// `child`'s lowlink final; `low` is `low[child]` compared with
    /// `disc[parent]`. Unless it is `Less`, `parent` separates `child`'s
    /// subtree, and the tree edge is a bridge exactly when it is `Greater`.
    Retreat {
        parent: usize,
        child: usize,
        low: Ordering,
    },
}

/// The buffers of [`lowlink_walk`], reusable from one walk to the next.
#[derive(Debug, Default)]
pub(crate) struct Walk {
    /// Discovery time per node.
    disc: Vec<usize>,
    /// Lowlink per node; read only after the node is discovered.
    low: Vec<usize>,
    /// DFS tree parent per node; read only after the node is discovered.
    parent: Vec<usize>,
    /// Iterative DFS frames: (node, index into its neighbor list).
    stack: Vec<(usize, usize)>,
}

/// The crate's one biconnectivity DFS: an iterative Hopcroft–Tarjan
/// lowlink walk over every component that holds one of `roots`, started
/// from each root not reached yet, in the order given. Nodes are visited
/// in neighbor-list order, so the steps are a function of the graph's
/// adjacency and the root order alone. [`Blocks::find`] and
/// [`bridge_marks`] consume them.
///
/// The walk skips the edge back to a node's tree parent by the parent's
/// id, which is exact because the graphs it walks have no parallel edges.
fn lowlink_walk(
    graph: &Graph,
    roots: impl IntoIterator<Item = NodeId>,
    walk: &mut Walk,
    mut step: impl FnMut(Step),
) {
    const UNSEEN: usize = usize::MAX;
    let n = graph.node_count();
    let Walk {
        disc,
        low,
        parent,
        stack,
    } = walk;
    disc.clear();
    disc.resize(n, UNSEEN);
    if low.len() < n {
        low.resize(n, UNSEEN);
        parent.resize(n, UNSEEN);
    }
    stack.clear();
    let mut timer = 0usize;

    for root in roots {
        let root = root.index();
        if disc[root] != UNSEEN {
            continue;
        }
        stack.push((root, 0));
        disc[root] = timer;
        low[root] = timer;
        parent[root] = UNSEEN;
        timer += 1;

        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if let Some(&v) = graph.neighbors(NodeId::new(u)).get(*i) {
                let v = v.index();
                *i += 1;
                if disc[v] == UNSEEN {
                    parent[v] = u;
                    step(Step::Edge(u, v));
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, 0));
                } else if v != parent[u] && disc[v] < disc[u] {
                    // Back edge (counted once, toward the ancestor).
                    step(Step::Edge(u, v));
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    step(Step::Retreat {
                        parent: p,
                        child: u,
                        low: low[u].cmp(&disc[p]),
                    });
                }
            }
        }
    }
}

fn edge(u: usize, v: usize) -> Edge {
    Edge::new(NodeId::new(u), NodeId::new(v))
}

/// The blocks (biconnected components) of a graph from one
/// [`lowlink_walk`], as a flat edge list: block `i` is
/// `edges[ends[i - 1]..ends[i]]` (from 0 for the first), with its edges in
/// the order the walk pops them off its edge stack. A bridge is a
/// one-edge block.
///
/// [`analyze`] and the planarity test both read these blocks; the
/// planarity test refills one `Blocks` per test, so its buffers are
/// reused.
#[derive(Debug, Default)]
pub(crate) struct Blocks {
    edges: Vec<Edge>,
    ends: Vec<usize>,
    /// The walk's edge stack.
    pending: Vec<Edge>,
}

impl Blocks {
    /// Replaces the blocks with those of every component of `graph` that
    /// holds one of `roots`, from a [`lowlink_walk`] in that root order.
    pub(crate) fn find(
        &mut self,
        graph: &Graph,
        roots: impl IntoIterator<Item = NodeId>,
        walk: &mut Walk,
    ) {
        let Blocks {
            edges,
            ends,
            pending,
        } = self;
        edges.clear();
        ends.clear();
        pending.clear();
        lowlink_walk(graph, roots, walk, |step| match step {
            Step::Edge(u, v) => pending.push(edge(u, v)),
            Step::Retreat { parent, child, low } => {
                if low != Ordering::Less {
                    // `parent` separates `child`'s subtree: pop one block
                    // ending with the tree edge (parent, child).
                    let sep = edge(parent, child);
                    while let Some(e) = pending.pop() {
                        edges.push(e);
                        if e == sep {
                            break;
                        }
                    }
                    ends.push(edges.len());
                }
            }
        });
    }

    /// Each block's edges, in the order the sweep closed the blocks.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Edge]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.edges[start..end])
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
    let mut blocks = Blocks::default();
    blocks.find(graph, graph.nodes(), &mut Walk::default());
    let mut bridges: Vec<Edge> = Vec::new();
    // A node separates its component exactly when it lies in two or more
    // blocks; `last_block[v]` keeps each block from counting `v` twice.
    let mut block_count = vec![0usize; graph.node_count()];
    let mut last_block = vec![usize::MAX; graph.node_count()];
    for (i, block) in blocks.iter().enumerate() {
        if let [bridge] = block {
            bridges.push(*bridge);
        }
        for v in block.iter().flat_map(|e| [e.a().index(), e.b().index()]) {
            if last_block[v] != i {
                last_block[v] = i;
                block_count[v] += 1;
            }
        }
    }
    bridges.sort_unstable();
    Biconnectivity {
        bridges,
        articulation_points: graph
            .nodes()
            .filter(|n| block_count[n.index()] > 1)
            .collect(),
        components: blocks.iter().map(<[Edge]>::to_vec).collect(),
    }
}

/// The bridges of a graph as marks on the DFS tree of its lowlink walk:
/// the tree edge from a parent `p` down to a child `c` is a bridge iff
/// `low[c] > disc[p]`, and every bridge is a tree edge. Built by
/// [`bridge_marks`].
#[derive(Debug, Clone)]
pub struct BridgeMarks {
    /// `Some(p)` at a child `c` whose tree edge `(p, c)` is a bridge.
    bridge_parent: Vec<Option<NodeId>>,
}

impl BridgeMarks {
    /// Whether the edge `(u, w)` of the marked graph is a bridge: O(1),
    /// one mark read per endpoint. A graph without parallel edges has one
    /// edge per node pair, so a tree edge between `u` and `w` is that
    /// edge.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `w` is not a node of the marked graph.
    pub fn is_bridge(&self, u: NodeId, w: NodeId) -> bool {
        self.bridge_parent[w.index()] == Some(u) || self.bridge_parent[u.index()] == Some(w)
    }
}

/// Marks the bridges of `graph` from one lowlink walk over every
/// component.
///
/// # Example
///
/// ```
/// use oneq_graph::{biconnected, Graph, NodeId};
///
/// // Triangle 0-1-2 plus the tail 2-3: only the tail is a bridge.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// let marks = biconnected::bridge_marks(&g);
/// assert!(marks.is_bridge(NodeId::new(3), NodeId::new(2)));
/// assert!(!marks.is_bridge(NodeId::new(0), NodeId::new(1)));
/// ```
pub fn bridge_marks(graph: &Graph) -> BridgeMarks {
    let mut bridge_parent = vec![None; graph.node_count()];
    lowlink_walk(graph, graph.nodes(), &mut Walk::default(), |step| {
        if let Step::Retreat {
            parent,
            child,
            low: Ordering::Greater,
        } = step
        {
            bridge_parent[child] = Some(NodeId::new(parent));
        }
    });
    BridgeMarks { bridge_parent }
}

/// Edges whose removal disconnects their component, sorted, read off
/// [`bridge_marks`].
pub fn bridges(graph: &Graph) -> Vec<Edge> {
    let marks = bridge_marks(graph);
    let mut bridges: Vec<Edge> = graph
        .nodes()
        .filter_map(|c| marks.bridge_parent[c.index()].map(|p| Edge::new(p, c)))
        .collect();
    bridges.sort_unstable();
    bridges
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
