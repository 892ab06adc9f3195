//! Traversal utilities: BFS order, connected components, shortest paths.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Breadth-first order of the nodes reachable from `start`.
///
/// # Example
///
/// ```
/// use oneq_graph::{Graph, NodeId, traversal};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 3)]);
/// let order = traversal::bfs_order(&g, NodeId::new(0));
/// assert_eq!(order[0], NodeId::new(0));
/// assert_eq!(order.len(), 4);
/// ```
pub fn bfs_order(graph: &Graph, start: NodeId) -> Vec<NodeId> {
    let mut visited = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in graph.neighbors(u) {
            if !visited[v.index()] {
                visited[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// Connected components; each component lists its nodes in BFS order, and
/// components appear in order of their smallest node id.
pub fn connected_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut visited = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for s in graph.nodes() {
        if visited[s.index()] {
            continue;
        }
        let comp = bfs_order(graph, s);
        for &n in &comp {
            visited[n.index()] = true;
        }
        components.push(comp);
    }
    components
}

/// Returns `true` when the graph has a single connected component (an empty
/// graph counts as connected).
pub fn is_connected(graph: &Graph) -> bool {
    connected_components(graph).len() <= 1
}

/// BFS distances from `start`; unreachable nodes get `None`.
pub fn bfs_distances(graph: &Graph, start: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &v in graph.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Shortest path between `from` and `to` as a node sequence including both
/// endpoints, or `None` when unreachable.
pub fn shortest_path(graph: &Graph, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; graph.node_count()];
    let mut visited = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    visited[from.index()] = true;
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if !visited[v.index()] {
                visited[v.index()] = true;
                prev[v.index()] = Some(u);
                if v == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = prev[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(v);
            }
        }
    }
    None
}

/// Returns `true` if the graph contains at least one cycle.
pub fn has_cycle(graph: &Graph) -> bool {
    // A forest has exactly n - c edges where c is the number of components.
    let c = connected_components(graph).len();
    graph.edge_count() > graph.node_count().saturating_sub(c)
}

/// Returns `true` if the graph is bipartite (2-colorable).
pub fn is_bipartite(graph: &Graph) -> bool {
    let mut color: Vec<Option<bool>> = vec![None; graph.node_count()];
    for s in graph.nodes() {
        if color[s.index()].is_some() {
            continue;
        }
        color[s.index()] = Some(false);
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            let cu = color[u.index()].expect("queued nodes are colored");
            for &v in graph.neighbors(u) {
                match color[v.index()] {
                    None => {
                        color[v.index()] = Some(!cu);
                        queue.push_back(v);
                    }
                    Some(cv) if cv == cu => return false,
                    Some(_) => {}
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_visits_all_reachable_nodes() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let order = bfs_order(&g, NodeId::new(0));
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], NodeId::new(0));
    }

    #[test]
    fn components_are_split_correctly() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].len(), 2);
        assert_eq!(comps[1].len(), 2);
        assert_eq!(comps[2], vec![NodeId::new(4)]);
        assert!(!is_connected(&g));
        assert!(is_connected(&generators::path(4)));
    }

    #[test]
    fn distances_grow_along_a_path() {
        let g = generators::path(5);
        let dist = bfs_distances(&g, NodeId::new(0));
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn unreachable_distance_is_none() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let dist = bfs_distances(&g, NodeId::new(0));
        assert_eq!(dist[2], None);
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = generators::cycle(6);
        let p = shortest_path(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(p.len(), 4); // 0-1-2-3 or 0-5-4-3
        assert_eq!(p[0], NodeId::new(0));
        assert_eq!(p[3], NodeId::new(3));
    }

    #[test]
    fn shortest_path_same_node_is_trivial() {
        let g = generators::path(3);
        assert_eq!(
            shortest_path(&g, NodeId::new(1), NodeId::new(1)),
            Some(vec![NodeId::new(1)])
        );
    }

    #[test]
    fn shortest_path_disconnected_is_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(shortest_path(&g, NodeId::new(0), NodeId::new(3)), None);
    }

    #[test]
    fn cycle_detection() {
        assert!(!has_cycle(&generators::path(5)));
        assert!(has_cycle(&generators::cycle(3)));
        let mut forest = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!has_cycle(&forest));
        forest.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        forest.add_edge(NodeId::new(3), NodeId::new(0)).unwrap();
        assert!(has_cycle(&forest));
    }

    #[test]
    fn bipartite_detection() {
        assert!(is_bipartite(&generators::path(5)));
        assert!(is_bipartite(&generators::cycle(4)));
        assert!(!is_bipartite(&generators::cycle(5)));
        assert!(!is_bipartite(&generators::complete(3)));
        assert!(is_bipartite(&generators::grid(3, 4)));
    }
}
