//! Maximal planar subgraph extraction.
//!
//! When a single dependency layer of a graph state is non-planar, OneQ's
//! partitioner (paper §4) decomposes it "by repeatedly finding the maximal
//! planar subgraph from its remaining graph", where *maximal* means that
//! adding any remaining edge would break planarity. We implement the
//! standard greedy construction: seed with a spanning forest (always
//! planar), then try the remaining edges one by one and keep each edge that
//! preserves planarity.

use crate::{planarity, Edge, Graph, NodeId};

/// A maximal planar subgraph together with the edges left out.
#[derive(Debug, Clone)]
pub struct MaximalPlanarSubgraph {
    /// The planar subgraph, over the same node ids as the input.
    pub subgraph: Graph,
    /// Input edges that could not be added without breaking planarity.
    pub removed_edges: Vec<Edge>,
}

/// Extracts a maximal planar subgraph of `graph` (same node set).
///
/// The result is *maximal* (no removed edge can be re-added while staying
/// planar) but not necessarily *maximum* (finding the planar subgraph with
/// the most edges is NP-hard, which the paper acknowledges by using the
/// greedy repeated-extraction scheme).
///
/// # Example
///
/// ```
/// use oneq_graph::{generators, mps, planarity};
///
/// let k5 = generators::complete(5);
/// let result = mps::maximal_planar_subgraph(&k5);
/// assert!(planarity::is_planar(&result.subgraph));
/// assert_eq!(result.removed_edges.len(), 1); // K5 minus one edge is planar
/// ```
pub fn maximal_planar_subgraph(graph: &Graph) -> MaximalPlanarSubgraph {
    let n = graph.node_count();
    let mut sub = Graph::with_nodes(n);
    let mut removed = Vec::new();

    // Seed with a spanning forest: forests are always planar.
    let mut visited = vec![false; n];
    let mut deferred: Vec<Edge> = Vec::new();
    for root in graph.nodes() {
        if visited[root.index()] {
            continue;
        }
        visited[root.index()] = true;
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            for &v in graph.neighbors(u) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    sub.add_edge(u, v).expect("forest edges are valid");
                    stack.push(v);
                }
            }
        }
    }
    for e in graph.sorted_edges() {
        if !sub.has_edge(e.a(), e.b()) {
            deferred.push(e);
        }
    }

    // Greedily add the remaining edges.
    let mut scratch = planarity::Scratch::new();
    for e in deferred {
        sub.add_edge(e.a(), e.b()).expect("edge endpoints valid");
        if !scratch.is_planar(&sub) {
            sub.remove_edge(e.a(), e.b());
            removed.push(e);
        }
    }

    MaximalPlanarSubgraph {
        subgraph: sub,
        removed_edges: removed,
    }
}

/// Convenience predicate: can `edge` be added to `graph` while keeping it
/// planar? (`graph` itself is assumed planar.)
pub fn edge_addition_keeps_planar(graph: &Graph, a: NodeId, b: NodeId) -> bool {
    let mut g = graph.clone();
    match g.add_edge(a, b) {
        Ok(true) => planarity::is_planar(&g),
        Ok(false) => true, // already present, nothing changes
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn planar_input_is_returned_whole() {
        let g = generators::grid(4, 4);
        let r = maximal_planar_subgraph(&g);
        assert_eq!(r.subgraph.edge_count(), g.edge_count());
        assert!(r.removed_edges.is_empty());
    }

    #[test]
    fn k5_loses_exactly_one_edge() {
        let r = maximal_planar_subgraph(&generators::complete(5));
        assert_eq!(r.removed_edges.len(), 1);
        assert!(planarity::is_planar(&r.subgraph));
    }

    #[test]
    fn k33_loses_exactly_one_edge() {
        let r = maximal_planar_subgraph(&generators::complete_bipartite(3, 3));
        assert_eq!(r.removed_edges.len(), 1);
        assert!(planarity::is_planar(&r.subgraph));
    }

    #[test]
    fn result_is_maximal() {
        let g = generators::complete(6);
        let r = maximal_planar_subgraph(&g);
        assert!(planarity::is_planar(&r.subgraph));
        for e in &r.removed_edges {
            assert!(
                !edge_addition_keeps_planar(&r.subgraph, e.a(), e.b()),
                "removed edge {e} could be re-added: not maximal"
            );
        }
    }

    #[test]
    fn k6_keeps_euler_bound_edges() {
        // K6 has 15 edges; a maximal planar subgraph on 6 nodes has at most
        // 3*6-6 = 12 edges, and the greedy always reaches a triangulation
        // from a complete graph.
        let r = maximal_planar_subgraph(&generators::complete(6));
        assert_eq!(r.subgraph.edge_count(), 12);
        assert_eq!(r.removed_edges.len(), 3);
    }
}
