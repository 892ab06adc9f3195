//! Graph generators used by tests, benches and workload construction.

use crate::{Graph, NodeId};
use rand::Rng;

/// Path graph `0 - 1 - ... - (n-1)`.
///
/// # Example
///
/// ```
/// let p = oneq_graph::generators::path(4);
/// assert_eq!(p.edge_count(), 3);
/// ```
pub fn path(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId::new(i - 1), NodeId::new(i))
            .expect("path edges are valid");
    }
    g
}

/// Cycle graph on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut g = path(n);
    g.add_edge(NodeId::new(n - 1), NodeId::new(0))
        .expect("closing edge is valid");
    g
}

/// Star graph: node 0 is the hub connected to `n - 1` leaves.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "a star needs at least the hub node");
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId::new(0), NodeId::new(i))
            .expect("star edges are valid");
    }
    g
}

/// Complete graph K_n.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId::new(i), NodeId::new(j))
                .expect("complete edges are valid");
        }
    }
    g
}

/// Complete bipartite graph K_{a,b}; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::with_nodes(a + b);
    for i in 0..a {
        for j in 0..b {
            g.add_edge(NodeId::new(i), NodeId::new(a + j))
                .expect("bipartite edges are valid");
        }
    }
    g
}

/// `rows x cols` grid graph; node `(r, c)` has index `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::with_nodes(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = NodeId::new(r * cols + c);
            if c + 1 < cols {
                g.add_edge(id, NodeId::new(r * cols + c + 1))
                    .expect("grid edges are valid");
            }
            if r + 1 < rows {
                g.add_edge(id, NodeId::new((r + 1) * cols + c))
                    .expect("grid edges are valid");
            }
        }
    }
    g
}

/// Erdős–Rényi G(n, m): a graph with `n` nodes and exactly `m` distinct
/// random edges (clamped to the maximum possible).
pub fn gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut g = Graph::with_nodes(n);
    while g.edge_count() < m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            g.add_edge(NodeId::new(a), NodeId::new(b))
                .expect("random edge endpoints are in range");
        }
    }
    g
}

/// Random tree on `n` nodes (uniform attachment).
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(NodeId::new(parent), NodeId::new(i))
            .expect("tree edges are valid");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
    }

    #[test]
    fn single_node_path_has_no_edges() {
        let g = path(1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(4);
        assert_eq!(g.edge_count(), 4);
        for n in g.nodes() {
            assert_eq!(g.degree(n), 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_panics() {
        cycle(2);
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.degree(NodeId::new(0)), 4);
        for i in 1..5 {
            assert_eq!(g.degree(NodeId::new(i)), 1);
        }
    }

    #[test]
    fn complete_edge_count() {
        assert_eq!(complete(5).edge_count(), 10);
        assert_eq!(complete(1).edge_count(), 0);
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 3);
        assert_eq!(g.edge_count(), 9);
        assert!(crate::traversal::is_bipartite(&g));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.degree(NodeId::new(0)), 2); // corner
        assert_eq!(g.degree(NodeId::new(5)), 4); // interior (1,1)
    }

    #[test]
    fn gnm_has_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gnm(10, 20, &mut rng);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 20);
    }

    #[test]
    fn gnm_clamps_to_max() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gnm(4, 100, &mut rng);
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_tree(20, &mut rng);
        assert_eq!(g.edge_count(), 19);
        assert!(crate::traversal::is_connected(&g));
        assert!(!crate::traversal::has_cycle(&g));
    }
}
