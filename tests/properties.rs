//! Property-based tests (proptest) over the core data structures and the
//! invariants DESIGN.md commits to, equivalence tests of the
//! index-addressed graph and edge orders against the hashed code they
//! replaced, kept here as references, and a seeded fuzz of the compile
//! request parsers.

use oneq_graph::{
    biconnected, generators, mps, planarity, traversal, Edge, Embedding, Graph, GraphError, NodeId,
};
use oneq_hardware::{fusion, ExtendedLayer, LayerGeometry, Position, ResourceKind};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// Strategy: a random simple graph as (n, edge list).
fn graph_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m).prop_map(move |pairs| {
            let mut g = Graph::with_nodes(n);
            for (a, b) in pairs {
                if a != b {
                    let _ = g.add_edge(NodeId::new(a), NodeId::new(b));
                }
            }
            g
        })
    })
}

/// Strategy: a random *connected* simple graph — a random spanning tree
/// (each node attaches to a random earlier node) plus extra random edges.
fn connected_graph_strategy(max_n: usize, max_extra: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        (
            proptest::collection::vec(0..usize::MAX, n - 1),
            proptest::collection::vec((0..n, 0..n), 0..max_extra),
        )
            .prop_map(move |(parents, extra)| {
                let mut g = Graph::with_nodes(n);
                for (i, &r) in parents.iter().enumerate() {
                    let child = i + 1;
                    let _ = g.add_edge(NodeId::new(child), NodeId::new(r % child));
                }
                for (a, b) in extra {
                    if a != b {
                        let _ = g.add_edge(NodeId::new(a), NodeId::new(b));
                    }
                }
                g
            })
    })
}

proptest! {
    #[test]
    fn planar_embeddings_verify(g in graph_strategy(12, 30)) {
        if let Some(embedding) = planarity::planar_embedding(&g) {
            prop_assert!(embedding.verify(&g), "embedding must satisfy Euler");
        } else {
            // Non-planar graphs must exceed the forest bound at least.
            prop_assert!(g.edge_count() > g.node_count().saturating_sub(1));
        }
    }

    #[test]
    fn planarity_is_monotone_under_edge_removal(g in graph_strategy(10, 25)) {
        if planarity::is_planar(&g) {
            let mut h = g.clone();
            if let Some(e) = h.sorted_edges().first().copied() {
                h.remove_edge(e.a(), e.b());
                prop_assert!(planarity::is_planar(&h));
            }
        }
    }

    #[test]
    fn maximal_planar_subgraph_is_planar_and_maximal(g in graph_strategy(9, 30)) {
        let r = mps::maximal_planar_subgraph(&g);
        prop_assert!(planarity::is_planar(&r.subgraph));
        prop_assert_eq!(
            r.subgraph.edge_count() + r.removed_edges.len(),
            g.edge_count()
        );
        for e in &r.removed_edges {
            prop_assert!(
                !mps::edge_addition_keeps_planar(&r.subgraph, e.a(), e.b()),
                "removed edge could be re-added"
            );
        }
    }

    #[test]
    fn bridges_disconnect_their_component(g in graph_strategy(10, 20)) {
        let before = traversal::connected_components(&g).len();
        for bridge in biconnected::bridges(&g) {
            let mut h = g.clone();
            h.remove_edge(bridge.a(), bridge.b());
            let after = traversal::connected_components(&h).len();
            prop_assert_eq!(after, before + 1, "removing a bridge splits exactly one component");
        }
    }

    #[test]
    fn non_bridges_preserve_connectivity(g in graph_strategy(10, 20)) {
        let before = traversal::connected_components(&g).len();
        let bridges = biconnected::bridges(&g);
        for e in g.sorted_edges() {
            if !bridges.contains(&e) {
                let mut h = g.clone();
                h.remove_edge(e.a(), e.b());
                prop_assert_eq!(
                    traversal::connected_components(&h).len(),
                    before,
                    "cycle edges never disconnect"
                );
            }
        }
    }

    #[test]
    fn bridge_marks_match_the_one_edge_blocks(g in graph_strategy(40, 90)) {
        assert_bridge_marks_match_the_blocks(&g, &format!("{g}"));
    }

    #[test]
    fn bfs_reaches_exactly_the_component(g in graph_strategy(12, 24)) {
        let comps = traversal::connected_components(&g);
        for comp in comps {
            let order = traversal::bfs_order(&g, comp[0]);
            prop_assert_eq!(order.len(), comp.len());
        }
    }

    #[test]
    fn shortest_paths_are_consistent_with_distances(g in graph_strategy(10, 20)) {
        let dist = traversal::bfs_distances(&g, NodeId::new(0));
        for v in g.nodes() {
            match (dist[v.index()], traversal::shortest_path(&g, NodeId::new(0), v)) {
                (Some(d), Some(p)) => prop_assert_eq!(p.len(), d + 1),
                (None, None) => {}
                _ => prop_assert!(false, "distance and path disagree"),
            }
        }
    }

    #[test]
    fn fusion_size_arithmetic(m in 2usize..50, n in 2usize..50) {
        // m+n-2: each fusion destroys exactly the two measured photons.
        let s = fusion::fused_size(m, n);
        prop_assert_eq!(s, m + n - 2);
        prop_assert!(s >= m.max(n) || m.min(n) <= 2);
    }

    #[test]
    fn chain_capacity_covers_degree(d in 1usize..40) {
        // The paper's synthesis law: chains host every incident edge.
        for kind in [ResourceKind::LINE3, ResourceKind::LINE4,
                     ResourceKind::STAR4, ResourceKind::RING4] {
            let k = kind.chain_nodes(d);
            prop_assert!(k >= 1);
            if kind == ResourceKind::LINE3 && d >= 2 {
                prop_assert_eq!(k, d - 1);
            }
        }
    }

    #[test]
    fn extended_layer_roundtrip(rows in 1usize..9, cols in 1usize..9, factor in 1usize..5) {
        let ext = ExtendedLayer::new(LayerGeometry::new(rows, cols), factor);
        for p in ext.geometry().positions() {
            let (sub, phys) = ext.to_physical(p);
            prop_assert_eq!(ext.from_physical(sub, phys), p);
        }
    }

    #[test]
    fn manhattan_is_a_metric(a in 0usize..30, b in 0usize..30,
                             c in 0usize..30, d in 0usize..30,
                             e in 0usize..30, f in 0usize..30) {
        let (p, q, r) = (Position::new(a, b), Position::new(c, d), Position::new(e, f));
        prop_assert_eq!(p.manhattan(q), q.manhattan(p));
        prop_assert!(p.manhattan(r) <= p.manhattan(q) + q.manhattan(r));
        prop_assert_eq!(p.manhattan(p), 0);
    }

    #[test]
    fn grid_subgraphs_are_planar(keep in proptest::collection::vec(any::<bool>(), 40)) {
        let full = generators::grid(5, 5);
        let mut g = Graph::with_nodes(25);
        for (i, e) in full.sorted_edges().iter().enumerate() {
            if keep.get(i).copied().unwrap_or(false) {
                g.add_edge(e.a(), e.b()).unwrap();
            }
        }
        prop_assert!(planarity::is_planar(&g));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mapping_accounts_every_edge(g in graph_strategy(14, 20)) {
        use oneq::mapping::{map_graph, MappingOptions};
        let r = map_graph(&g, LayerGeometry::new(8, 8), &MappingOptions::default());
        prop_assert!(r.total_fusions() >= g.edge_count());
        prop_assert_eq!(r.placement.len(), g.node_count());
    }

    #[test]
    fn fusion_graph_connection_edges_match(g in graph_strategy(12, 16)) {
        use oneq::fusion_graph::generate;
        let degrees: Vec<usize> = g.nodes().map(|n| g.degree(n)).collect();
        let fg = generate(&g, &degrees, ResourceKind::LINE3);
        prop_assert_eq!(fg.connection_fusions(), g.edge_count());
        prop_assert_eq!(
            fg.fusion_count(),
            fg.intra_node_fusions() + fg.connection_fusions()
        );
    }

    #[test]
    fn mapping_realizes_every_connected_edge(g in connected_graph_strategy(16, 14)) {
        use oneq::mapping::{map_graph, MappingOptions};
        let r = map_graph(&g, LayerGeometry::new(8, 8), &MappingOptions::default());
        // Every input edge is realized exactly once — as a direct fusion,
        // an in-layer routed path, or a planned shuffle.
        let mut realized = r.realized_edges.clone();
        realized.sort();
        prop_assert_eq!(realized, g.sorted_edges());
        // Shuffled edges are a subset of the realized set, and each
        // contributes to the shuffle fusion tally.
        for s in &r.shuffled {
            prop_assert!(r.realized_edges.contains(&s.edge));
        }
        prop_assert!(r.shuffled.is_empty() || r.shuffle_fusions > 0);
        // Every node lands somewhere, exactly once across layers.
        let placed_total: usize = r.layouts.iter().map(|l| l.placed_count()).sum();
        prop_assert_eq!(placed_total, g.node_count());
        prop_assert_eq!(r.placement.len(), g.node_count());
    }

    #[test]
    fn mapping_grid_occupancy_is_conserved(g in connected_graph_strategy(14, 10)) {
        use oneq::mapping::{map_graph, MappingOptions};
        let r = map_graph(&g, LayerGeometry::new(7, 7), &MappingOptions::default());
        // Layout bookkeeping: per layer, occupied cells = placed fusion
        // nodes + auxiliary routing cells, each on a distinct cell of the
        // layer. Nothing leaks, nothing is double-counted.
        for layout in &r.layouts {
            let cells: Vec<_> = layout.cells().map(|(p, _)| p).collect();
            prop_assert_eq!(
                layout.occupied_cells(),
                layout.placed_count() + layout.routing_cells()
            );
            let distinct: HashSet<_> = cells.iter().collect();
            prop_assert_eq!(distinct.len(), cells.len());
            prop_assert!(cells.iter().all(|&p| layout.geometry().contains(p)));
            // The recorded bounding box matches a full recount.
            let area = layout.occupied_area();
            if cells.is_empty() {
                prop_assert_eq!(area, 0);
            } else {
                let rmin = cells.iter().map(|p| p.row).min().unwrap();
                let rmax = cells.iter().map(|p| p.row).max().unwrap();
                let cmin = cells.iter().map(|p| p.col).min().unwrap();
                let cmax = cells.iter().map(|p| p.col).max().unwrap();
                prop_assert_eq!(area, (rmax - rmin + 1) * (cmax - cmin + 1));
            }
        }
    }
}

/// `Graph` as it was before it dropped its edge set: the same adjacency
/// lists plus a `HashSet<Edge>` that answered `has_edge` and sized the
/// edge count. The reference the index-addressed `Graph` must match.
struct HashedGraph {
    adj: Vec<Vec<NodeId>>,
    edges: HashSet<Edge>,
}

impl HashedGraph {
    fn with_nodes(n: usize) -> Self {
        HashedGraph {
            adj: vec![Vec::new(); n],
            edges: HashSet::new(),
        }
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        for n in [a, b] {
            if n.index() >= self.adj.len() {
                return Err(GraphError::InvalidNode(n));
            }
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if !self.edges.insert(Edge::new(a, b)) {
            return Ok(false);
        }
        self.adj[a.index()].push(b);
        self.adj[b.index()].push(a);
        Ok(true)
    }

    fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.edges.remove(&Edge::new(a, b)) {
            return false;
        }
        self.adj[a.index()].retain(|&x| x != b);
        self.adj[b.index()].retain(|&x| x != a);
        true
    }

    fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edges.contains(&Edge::new(a, b))
    }

    fn sorted_edges(&self) -> Vec<Edge> {
        let mut v: Vec<Edge> = self.edges.iter().copied().collect();
        v.sort();
        v
    }
}

/// One mutation or query of the graph model test: `(kind, on_hub, a, b)`.
/// Kinds: 0 add, 1 remove, 2 toggle (as `Pattern::add_entangling_edge`
/// does: remove when present, else add), 3 `has_edge`, 4 `add_node`
/// (translation grows nodes and edges together). With `on_hub`, `a` is
/// node 0, the hub.
type GraphOp = (usize, bool, usize, usize);

/// Strategy: `n` in 65..80 nodes and a random op sequence over ids
/// `0..n + 40`: ids past the current node count are invalid until enough
/// `add_node`s arrive, and ops name self-loops too.
fn graph_ops_strategy() -> impl Strategy<Value = (usize, Vec<GraphOp>)> {
    (65usize..80).prop_flat_map(|n| {
        proptest::collection::vec((0usize..5, any::<bool>(), 0..n + 40, 0..n + 40), 0..400)
            .prop_map(move |ops| (n, ops))
    })
}

/// `mapping::edge_order` as it was before it dropped its hashed sets:
/// bridges looked up in a `HashSet` inside the sort, and emitted edges
/// tracked in a `HashSet`.
fn hashed_edge_order(graph: &Graph) -> Vec<Edge> {
    let bridges: HashSet<Edge> = biconnected::bridges(graph).into_iter().collect();
    let mut order = Vec::with_capacity(graph.edge_count());
    let mut seen_edges: HashSet<Edge> = HashSet::new();
    let mut visited = vec![false; graph.node_count()];
    let mut components: Vec<NodeId> = graph.nodes().collect();
    components.sort_by_key(|&n| std::cmp::Reverse(graph.degree(n)));
    let mut incident: Vec<NodeId> = Vec::new();
    for seed in components {
        if visited[seed.index()] {
            continue;
        }
        visited[seed.index()] = true;
        let mut queue = VecDeque::from([seed]);
        while let Some(u) = queue.pop_front() {
            incident.clear();
            incident.extend_from_slice(graph.neighbors(u));
            incident.sort_by_key(|&w| {
                (
                    bridges.contains(&Edge::new(u, w)),
                    std::cmp::Reverse(graph.degree(w)),
                    w,
                )
            });
            for &w in &incident {
                let e = Edge::new(u, w);
                if seen_edges.insert(e) {
                    order.push(e);
                }
                if !visited[w.index()] {
                    visited[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    let (cycles, trees): (Vec<Edge>, Vec<Edge>) =
        order.into_iter().partition(|e| !bridges.contains(e));
    cycles.into_iter().chain(trees).collect()
}

/// `mapping::plain_bfs_edge_order` as it was, with its `HashSet` of
/// emitted edges.
fn hashed_plain_bfs_edge_order(graph: &Graph) -> Vec<Edge> {
    let mut order = Vec::with_capacity(graph.edge_count());
    let mut seen_edges: HashSet<Edge> = HashSet::new();
    let mut visited = vec![false; graph.node_count()];
    let mut seeds: Vec<NodeId> = graph.nodes().collect();
    seeds.sort_by_key(|&n| std::cmp::Reverse(graph.degree(n)));
    for seed in seeds {
        if visited[seed.index()] {
            continue;
        }
        visited[seed.index()] = true;
        let mut queue = VecDeque::from([seed]);
        while let Some(u) = queue.pop_front() {
            for &w in graph.neighbors(u) {
                let e = Edge::new(u, w);
                if seen_edges.insert(e) {
                    order.push(e);
                }
                if !visited[w.index()] {
                    visited[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order
}

/// Both edge orders equal their hashed references on `g`.
fn assert_edge_orders_match(g: &Graph, what: &str) {
    use oneq::mapping::{edge_order, plain_bfs_edge_order};
    assert_eq!(edge_order(g), hashed_edge_order(g), "edge_order on {what}");
    assert_eq!(
        plain_bfs_edge_order(g),
        hashed_plain_bfs_edge_order(g),
        "plain_bfs_edge_order on {what}"
    );
}

proptest! {
    #[test]
    fn graph_matches_the_hashed_model(case in graph_ops_strategy()) {
        let (n, ops) = case;
        let mut g = Graph::with_nodes(n);
        let mut model = HashedGraph::with_nodes(n);
        // Start from a star on node 0, so the hub has degree n - 1 >= 64.
        for leaf in 1..n {
            let (a, b) = (NodeId::new(0), NodeId::new(leaf));
            prop_assert_eq!(g.add_edge(a, b), model.add_edge(a, b));
        }
        // The same ops, each followed by adding and removing one absent
        // edge: every row ends where `g`'s does, but rows move in the
        // pooled buffer at other times.
        let mut detour = g.clone();
        for (kind, on_hub, a, b) in ops {
            let (a, b) = (NodeId::new(if on_hub { 0 } else { a }), NodeId::new(b));
            match kind {
                0 => prop_assert_eq!(g.add_edge(a, b), model.add_edge(a, b), "add {} {}", a, b),
                1 => prop_assert_eq!(g.remove_edge(a, b), model.remove_edge(a, b), "remove {} {}", a, b),
                2 => {
                    let present = g.has_edge(a, b);
                    prop_assert_eq!(present, model.has_edge(a, b));
                    if present {
                        prop_assert!(g.remove_edge(a, b) && model.remove_edge(a, b));
                    } else {
                        prop_assert_eq!(g.add_edge(a, b), model.add_edge(a, b), "toggle {} {}", a, b);
                    }
                }
                3 => {
                    prop_assert_eq!(g.has_edge(a, b), model.has_edge(a, b), "has_edge {} {}", a, b);
                    prop_assert_eq!(g.has_edge(b, a), model.has_edge(b, a));
                }
                _ => {
                    prop_assert_eq!(g.add_node().index(), model.adj.len());
                    model.adj.push(Vec::new());
                }
            }
            prop_assert_eq!(g.edge_count(), model.edges.len());
            prop_assert_eq!(g.node_count(), model.adj.len());
            // The touched rows, order included, after every op.
            for x in [a, b] {
                if let Some(row) = model.adj.get(x.index()) {
                    prop_assert_eq!(g.neighbors(x), &row[..], "neighbors of {} after op {}", x, kind);
                    prop_assert_eq!(g.degree(x), row.len());
                }
            }
            match kind {
                0 => {
                    let _ = detour.add_edge(a, b);
                }
                1 => {
                    detour.remove_edge(a, b);
                }
                2 if !detour.remove_edge(a, b) => {
                    let _ = detour.add_edge(a, b);
                }
                4 => {
                    detour.add_node();
                }
                _ => {}
            }
            if detour.add_edge(b, a) == Ok(true) {
                prop_assert!(detour.remove_edge(a, b));
            }
        }
        prop_assert_eq!(&detour, &g);
        let mut grown = g.clone();
        grown.add_node();
        prop_assert!(grown != g, "one more node must compare unequal");
        prop_assert_eq!(g.sorted_edges(), model.sorted_edges());
        for v in g.nodes() {
            prop_assert_eq!(g.neighbors(v), &model.adj[v.index()][..], "neighbors of {}", v);
            prop_assert_eq!(g.degree(v), model.adj[v.index()].len());
        }
        // `edges()`: ascending `a`, then `a`'s neighbor-list order.
        let walk: Vec<Edge> = model
            .adj
            .iter()
            .enumerate()
            .flat_map(|(a, row)| {
                let a = NodeId::new(a);
                row.iter().filter(move |&&b| a < b).map(move |&b| Edge::new(a, b))
            })
            .collect();
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), walk);
        prop_assert_eq!(g.max_degree(), model.adj.iter().map(Vec::len).max().unwrap_or(0));
        // Embeddings keep their rows the same way: `from_rotations` packs
        // the model's rows, `from_adjacency` copies the pooled ones.
        let embedding = Embedding::from_rotations(model.adj.clone());
        prop_assert_eq!(embedding.node_count(), model.adj.len());
        for v in g.nodes() {
            prop_assert_eq!(embedding.rotation(v), &model.adj[v.index()][..], "rotation of {}", v);
        }
        prop_assert_eq!(&embedding, &Embedding::from_adjacency(&g));
        prop_assert_eq!(&embedding, &Embedding::from_adjacency(&detour));
        prop_assert!(embedding != Embedding::from_adjacency(&grown));
    }

    #[test]
    fn edge_orders_match_the_hashed_originals(g in graph_strategy(40, 90)) {
        assert_edge_orders_match(&g, &format!("{g}"));
    }

    #[test]
    fn edge_orders_match_on_connected_graphs(g in connected_graph_strategy(40, 30)) {
        assert_edge_orders_match(&g, &format!("{g}"));
    }
}

#[test]
fn edge_orders_match_on_the_generator_families() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(5);
    let mut families = vec![
        ("path(1)", generators::path(1)),
        ("path(9)", generators::path(9)),
        ("cycle(12)", generators::cycle(12)),
        ("star(70)", generators::star(70)),
        ("complete(9)", generators::complete(9)),
        (
            "complete_bipartite(3, 7)",
            generators::complete_bipartite(3, 7),
        ),
        ("grid(6, 7)", generators::grid(6, 7)),
    ];
    for n in [2, 10, 33, 80] {
        families.push(("random_tree", generators::random_tree(n, &mut rng)));
        families.push(("gnm", generators::gnm(n, 2 * n, &mut rng)));
    }
    for (what, g) in &families {
        assert_edge_orders_match(g, what);
    }
}

/// The fusion graphs the compiler maps for the 12 Table 2 instances on the
/// baseline-sized square and on the square with x2 extended layers, built
/// the way `Compiler::compile_pattern` builds them, each with a label.
fn paper_fusion_graphs() -> Vec<(String, Graph)> {
    use oneq::{fusion_graph, partition, CompilerOptions};
    use oneq_bench::{BenchKind, SEED};
    let mut graphs = Vec::new();
    for kind in BenchKind::ALL {
        for &n in kind.paper_sizes() {
            let circuit = kind.circuit(n, SEED);
            let pattern = oneq_mbqc::translate::from_circuit(&circuit);
            let side = oneq_baseline::physical_side(n, ResourceKind::LINE3);
            for extension in [1, 2] {
                let opt =
                    CompilerOptions::new(LayerGeometry::square(side)).with_extension(extension);
                let parts = partition::partition(&pattern, &opt.partition_options());
                for (i, part) in parts.partitions.iter().enumerate() {
                    let fg = fusion_graph::generate_embedded(
                        &part.subgraph,
                        part.embedding.as_ref(),
                        &part.full_degree,
                        opt.resource_kind,
                    );
                    let what = format!("{}-{n} x{extension} partition {i}", kind.name());
                    graphs.push((what, fg.graph().clone()));
                }
            }
        }
    }
    assert!(graphs.len() >= 24, "only {} fusion graphs", graphs.len());
    graphs
}

#[test]
fn edge_orders_match_on_the_paper_fusion_graphs() {
    for (what, g) in &paper_fusion_graphs() {
        assert_edge_orders_match(g, what);
    }
}

/// `biconnected::bridges` and the marks it is read off agree with the
/// one-edge blocks of `analyze`, the block sweep's other consumer.
fn assert_bridge_marks_match_the_blocks(g: &Graph, what: &str) {
    let blocks = biconnected::analyze(g).bridges;
    assert_eq!(biconnected::bridges(g), blocks, "bridges of {what}");
    let marks = biconnected::bridge_marks(g);
    for e in g.edges() {
        let expected = blocks.binary_search(&e).is_ok();
        assert_eq!(marks.is_bridge(e.a(), e.b()), expected, "{e:?} of {what}");
        assert_eq!(marks.is_bridge(e.b(), e.a()), expected, "{e:?} of {what}");
    }
}

#[test]
fn bridge_marks_match_the_blocks_on_the_paper_fusion_graphs() {
    for (what, g) in &paper_fusion_graphs() {
        assert_bridge_marks_match_the_blocks(g, what);
    }
}

/// Knob names the compile request parsers know, and one they do not.
const KNOB_NAMES: [&str; 9] = [
    "side",
    "rows",
    "cols",
    "extension",
    "resource",
    "timings",
    "bypass",
    "file",
    "colour",
];

/// Knob values: a valid dimension, zero, a signed number, the cell bound
/// and one past it, one past `u64`, a resource, a flag, nothing, a good
/// and a bad percent escape, a bare `+` and non-ASCII text.
const KNOB_VALUES: [&str; 13] = [
    "7",
    "0",
    "+5",
    "1048576",
    "1048577",
    "18446744073709551616",
    "line4",
    "true",
    "",
    "%41",
    "%zz",
    "+",
    "ψ·量子",
];

/// The transports' separators: a query's `=` and `&`, a JSONL line's
/// punctuation and a flag's `--`.
const KNOB_SEPARATORS: [&str; 8] = ["=", "&", "{", "}", ":", ",", "\"", "--"];

/// Every piece of the vocabulary: the names, the values, the separators.
fn knob_pieces() -> Vec<&'static str> {
    KNOB_NAMES
        .iter()
        .chain(&KNOB_VALUES)
        .chain(&KNOB_SEPARATORS)
        .copied()
        .collect()
}

/// `parse` returns (no panic), and a request it accepts comes back equal
/// through its `/v1/compile` query target and the query parser.
fn check_knob_parser(
    input: &dyn std::fmt::Debug,
    parse: impl FnOnce() -> Result<oneq_service::request::CompileRequest, String>
        + std::panic::UnwindSafe,
) -> Result<(), TestCaseError> {
    use oneq_service::{http, request::CompileRequest};
    let Ok(parsed) = std::panic::catch_unwind(parse) else {
        return Err(TestCaseError::fail(format!(
            "a parser panicked on {input:?}"
        )));
    };
    let Ok(request) = parsed else {
        return Ok(());
    };
    let target = request.query_target("/v1/compile");
    let query = target.strip_prefix("/v1/compile?").expect("a query target");
    let back = CompileRequest::from_query(&http::parse_query(query), &request.source);
    prop_assert_eq!(back, Ok(request), "{} from {:?}", target, input);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Each case parses its knobs as a query string, a JSONL line and an
    /// argument vector, once well formed and once as a soup of the
    /// vocabulary's pieces.
    #[test]
    fn fuzzed_knobs_never_panic_the_request_parsers(
        knobs in proptest::collection::vec(
            (0..KNOB_NAMES.len(), 0..KNOB_VALUES.len(), any::<bool>()),
            0..5usize,
        ),
        picks in proptest::collection::vec(0..knob_pieces().len(), 0..16usize),
    ) {
        use oneq_service::request::CompileRequest;
        let pieces = knob_pieces();
        let soup: Vec<&str> = picks.iter().map(|&i| pieces[i]).collect();
        let knobs: Vec<(&str, &str, bool)> =
            knobs.iter().map(|&(n, v, raw)| (KNOB_NAMES[n], KNOB_VALUES[v], raw)).collect();

        let pairs: Vec<String> = knobs.iter().map(|(n, v, _)| format!("{n}={v}")).collect();
        for query in [pairs.join("&"), soup.concat()] {
            let parsed = oneq_service::http::parse_query(&query);
            check_knob_parser(&query, || CompileRequest::from_query(&parsed, "OPENQASM 2.0;"))?;
        }

        // Raw members are JSON literals where the value is one (`7`,
        // `true`) and malformed lines where it is not.
        let members = knobs.iter().map(|(n, v, raw)| {
            if *raw {
                format!(", \"{n}\": {v}")
            } else {
                format!(", \"{n}\": \"{v}\"")
            }
        });
        let line = format!("{{\"source\": \"OPENQASM 2.0;\"{}}}", members.collect::<String>());
        for line in [line, soup.concat()] {
            check_knob_parser(&line, || CompileRequest::from_jsonl_line(&line))?;
        }

        // A raw flag goes without its value (`--timings` needs none).
        let mut flags = Vec::new();
        for (n, v, raw) in &knobs {
            flags.push(format!("--{n}"));
            if !raw {
                flags.push(v.to_string());
            }
        }
        let words: Vec<String> = soup
            .iter()
            .map(|w| {
                if KNOB_NAMES.contains(w) {
                    format!("--{w}")
                } else {
                    w.to_string()
                }
            })
            .collect();
        for args in [flags, words] {
            check_knob_parser(&args, || CompileRequest::from_args(&args).map(|(r, _)| r))?;
        }
    }
}
