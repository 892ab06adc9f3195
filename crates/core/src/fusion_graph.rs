//! Fusion graph generation (paper §5).
//!
//! Resource states contain only low-degree qubits, so a high-degree
//! graph-state node must be *synthesized* by fusing a chain of resource
//! states (degree-increment pattern, paper Fig. 7a/8), lines are built by
//! line extension (Fig. 7b), and structures are joined by graph connection
//! (Fig. 7c). The resulting strategy is *coupling-agnostic* and recorded as
//! a **fusion graph**: one node per resource state, one edge per fusion.
//!
//! Planarity preservation (paper Fig. 9): when the partition subgraph is
//! planar we take a planar embedding and attach each graph-state edge to
//! the chain in the embedding's rotation order, so the fusion graph stays
//! planar.

use oneq_graph::{planarity, Embedding, Graph, NodeId};
use oneq_hardware::ResourceKind;

/// The fusion strategy for one partition.
///
/// Fusion-graph nodes (`⊗` in the paper's figures) are resource states;
/// edges are fusion operations. *Chain* edges synthesize one graph-state
/// node; *connection* edges realize graph-state edges.
#[derive(Debug, Clone)]
pub struct FusionGraph {
    graph: Graph,
    /// For each fusion node: the local graph-state node it helps
    /// synthesize, and its index along that node's chain.
    owner: Vec<(usize, usize)>,
    /// First fusion node of each graph-state node's chain.
    chain_start: Vec<NodeId>,
    /// Chain length per graph-state node.
    chain_len: Vec<usize>,
    /// Port table: graph-state node `v`'s ports are
    /// `ports[port_start[v]..port_start[v + 1]]`, one `(neighbor, fusion
    /// node hosting that graph-state edge)` per subgraph edge of `v`, in
    /// the rotation order they were assigned. Cross-partition edges are
    /// not listed here; they attach to the chain head (see
    /// [`FusionGraph::representative`]).
    ports: Vec<(usize, NodeId)>,
    port_start: Vec<usize>,
    intra_edges: usize,
    inter_edges: usize,
}

impl FusionGraph {
    /// The fusion graph topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of resource states consumed by node synthesis.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Total fusions required by this strategy (one per edge).
    pub fn fusion_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Fusions used to synthesize nodes (chain edges).
    pub fn intra_node_fusions(&self) -> usize {
        self.intra_edges
    }

    /// Fusions realizing graph-state edges (connection edges).
    pub fn connection_fusions(&self) -> usize {
        self.inter_edges
    }

    /// The graph-state node a fusion node belongs to, with its chain index.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn owner_of(&self, n: NodeId) -> (usize, usize) {
        self.owner[n.index()]
    }

    /// Chain length used to synthesize local graph-state node `v`.
    pub fn chain_length(&self, v: usize) -> usize {
        self.chain_len[v]
    }

    /// The fusion node hosting the edge from local node `v` toward local
    /// neighbor `w`, if that edge is part of this partition. Scans `v`'s
    /// ports: O(degree of `v`).
    pub fn port(&self, v: usize, w: usize) -> Option<NodeId> {
        find_port(&self.ports, &self.port_start, v, w)
    }

    /// The fusion node representing local graph-state node `v` (the head
    /// of its chain): used when cross-partition edges attach to `v`.
    pub fn representative(&self, v: usize) -> NodeId {
        self.chain_start[v]
    }
}

/// Generates the fusion graph of one partition subgraph.
///
/// `full_degree[v]` is the degree of local node `v` in the *full* graph
/// state (chains must provision slots for cross-partition edges too; the
/// partition subgraph only shows the internal ones). When the subgraph is
/// planar the chain ports follow a planar embedding's rotation order,
/// keeping the fusion graph planar (paper Fig. 9d).
///
/// # Panics
///
/// Panics if `full_degree` is shorter than the subgraph's node count or
/// any full degree is below the subgraph degree.
///
/// # Example
///
/// ```
/// use oneq::fusion_graph::generate;
/// use oneq_graph::generators;
/// use oneq_hardware::ResourceKind;
///
/// // A 4-star graph state: hub degree 4 needs a 3-node chain (Fig. 8).
/// let star = generators::star(5);
/// let degrees: Vec<usize> = star.nodes().map(|n| star.degree(n)).collect();
/// let fg = generate(&star, &degrees, ResourceKind::LINE3);
/// assert_eq!(fg.chain_length(0), 3);
/// // 4 leaves (1 state each) + hub chain of 3 = 7 resource states.
/// assert_eq!(fg.node_count(), 7);
/// // 2 chain fusions + 4 connection fusions.
/// assert_eq!(fg.fusion_count(), 6);
/// ```
pub fn generate(subgraph: &Graph, full_degree: &[usize], kind: ResourceKind) -> FusionGraph {
    let embedding = planarity::planar_embedding(subgraph);
    generate_embedded(subgraph, embedding.as_ref(), full_degree, kind)
}

/// [`generate`] with the subgraph's embedding already computed:
/// `embedding` must be `planarity::planar_embedding(subgraph)` (`None`
/// for a non-planar subgraph, whose ports then follow adjacency order).
/// The partitioner hands over the embedding it computed, so the pipeline
/// embeds each partition once.
///
/// # Panics
///
/// As [`generate`].
pub fn generate_embedded(
    subgraph: &Graph,
    embedding: Option<&Embedding>,
    full_degree: &[usize],
    kind: ResourceKind,
) -> FusionGraph {
    assert!(
        full_degree.len() >= subgraph.node_count(),
        "full_degree must cover every subgraph node"
    );

    let n = subgraph.node_count();
    let q = kind.effective().qubit_count();
    let mut graph = Graph::new();
    let chain_len: Vec<usize> = full_degree[..n]
        .iter()
        .enumerate()
        .map(|(v, &degree_in_full)| {
            feasible_chain_len(kind, degree_in_full.max(subgraph.degree(NodeId::new(v))))
        })
        .collect();
    let mut owner = Vec::with_capacity(chain_len.iter().sum());
    let mut chain_start = Vec::with_capacity(n);

    // 1. Build a chain of resource states per graph-state node.
    for (v, &k) in chain_len.iter().enumerate() {
        let mut prev: Option<NodeId> = None;
        for i in 0..k {
            let fnode = graph.add_node();
            owner.push((v, i));
            if let Some(p) = prev {
                graph.add_edge(p, fnode).expect("fresh chain edge");
            } else {
                chain_start.push(fnode);
            }
            prev = Some(fnode);
        }
    }
    let intra_edges = graph.edge_count();

    // 2. Assign ports: each incident graph-state edge of node v gets a
    //    slot on v's chain, walking the chain head-to-tail while the
    //    neighbor order follows the planar rotation when available.
    let mut ports: Vec<(usize, NodeId)> = Vec::with_capacity(2 * subgraph.edge_count());
    let mut port_start: Vec<usize> = Vec::with_capacity(n + 1);
    for v in 0..n {
        port_start.push(ports.len());
        let vid = NodeId::new(v);
        let neighbors = match embedding {
            Some(emb) => emb.rotation(vid),
            None => subgraph.neighbors(vid),
        };
        let k = chain_len[v];
        // Fill the chain head-to-tail up to each state's photon budget
        // (head/tail spend one photon on a chain link, interiors two),
        // attaching neighbors in rotation order — the paper's sequential
        // clockwise attachment (Fig. 9).
        let mut chain_cursor = 0usize;
        let mut used = 0usize;
        for &w in neighbors {
            while used == chain_cap(q, k, chain_cursor) {
                chain_cursor += 1;
                used = 0;
            }
            used += 1;
            let fnode = NodeId::new(chain_start[v].index() + chain_cursor);
            ports.push((w.index(), fnode));
        }
    }
    port_start.push(ports.len());

    // 3. Connect ports across each graph-state edge (graph connection
    //    pattern, Fig. 7c).
    let port = |v, w| find_port(&ports, &port_start, v, w).expect("every subgraph edge has a port");
    let mut inter_edges = 0usize;
    for e in subgraph.sorted_edges() {
        let (u, w) = (e.a().index(), e.b().index());
        if graph
            .add_edge(port(u, w), port(w, u))
            .expect("ports are distinct chains")
        {
            inter_edges += 1;
        }
    }

    FusionGraph {
        graph,
        owner,
        chain_start,
        chain_len,
        ports,
        port_start,
        intra_edges,
        inter_edges,
    }
}

/// The fusion node in `v`'s slice of the port table that hosts the edge
/// toward `w`.
fn find_port(
    ports: &[(usize, NodeId)],
    port_start: &[usize],
    v: usize,
    w: usize,
) -> Option<NodeId> {
    let own = ports.get(*port_start.get(v)?..*port_start.get(v + 1)?)?;
    own.iter().find(|&&(x, _)| x == w).map(|&(_, f)| f)
}

/// Free-photon capacity of state `i` along a `k`-chain of `q`-photon
/// states: every fusion consumes one photon, chain links take one from
/// each side.
fn chain_cap(q: usize, k: usize, i: usize) -> usize {
    if k == 1 {
        q
    } else if i == 0 || i == k - 1 {
        q - 1
    } else {
        q - 2
    }
}

/// Total free-photon capacity of a `k`-chain of `q`-photon states: the
/// sum of [`chain_cap`] over the chain.
fn chain_capacity(q: usize, k: usize) -> usize {
    if k == 1 {
        q
    } else {
        2 * (q - 1) + (k - 2) * (q - 2)
    }
}

/// Chain length actually used: the paper's count
/// ([`ResourceKind::chain_nodes`]) bumped until the photon budget can host
/// all `d` ports.
fn feasible_chain_len(kind: ResourceKind, d: usize) -> usize {
    let q = kind.effective().qubit_count();
    let mut k = kind.chain_nodes(d);
    while chain_capacity(q, k) < d {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneq_graph::generators;

    fn degrees(g: &Graph) -> Vec<usize> {
        g.nodes().map(|n| g.degree(n)).collect()
    }

    #[test]
    fn line_graph_state_is_one_to_one() {
        // Low-degree nodes need exactly one resource state each.
        let line = generators::path(6);
        let fg = generate(&line, &degrees(&line), ResourceKind::LINE3);
        assert_eq!(fg.node_count(), 6);
        assert_eq!(fg.intra_node_fusions(), 0);
        assert_eq!(fg.connection_fusions(), 5);
        assert_eq!(fg.fusion_count(), 5);
    }

    #[test]
    fn high_degree_hub_grows_a_chain() {
        let star = generators::star(7); // hub degree 6
        let fg = generate(&star, &degrees(&star), ResourceKind::LINE3);
        assert_eq!(fg.chain_length(0), 5); // d - 1
        assert_eq!(fg.node_count(), 5 + 6);
        assert_eq!(fg.fusion_count(), 4 + 6);
    }

    #[test]
    fn star4_kind_uses_shorter_chains() {
        let star = generators::star(7);
        let fg3 = generate(&star, &degrees(&star), ResourceKind::LINE3);
        let fg4 = generate(&star, &degrees(&star), ResourceKind::STAR4);
        assert!(fg4.node_count() < fg3.node_count());
        assert!(fg4.fusion_count() < fg3.fusion_count());
    }

    #[test]
    fn planar_input_gives_planar_fusion_graph() {
        for g in [
            generators::grid(3, 4),
            generators::cycle(8),
            generators::star(9),
            generators::path(5),
        ] {
            let fg = generate(&g, &degrees(&g), ResourceKind::LINE3);
            assert!(
                planarity::is_planar(fg.graph()),
                "fusion graph of planar input must stay planar"
            );
        }
    }

    #[test]
    fn wheel_fusion_graph_stays_planar() {
        // Wheel graphs have a high-degree hub inside a cycle: the rotation
        // order matters for planarity (paper Fig. 9d vs 9e).
        for k in 4..9 {
            let mut g = generators::cycle(k);
            let hub = g.add_node();
            for i in 0..k {
                g.add_edge(hub, NodeId::new(i)).unwrap();
            }
            let fg = generate(&g, &degrees(&g), ResourceKind::LINE3);
            assert!(
                planarity::is_planar(fg.graph()),
                "wheel W{k} fusion graph must stay planar"
            );
        }
    }

    #[test]
    fn external_degree_reserves_chain_slots() {
        // A single node with subgraph degree 0 but full degree 5 still
        // builds a chain able to host 5 external edges.
        let g = Graph::with_nodes(1);
        let fg = generate(&g, &[5], ResourceKind::LINE3);
        assert_eq!(fg.chain_length(0), 4);
        assert_eq!(fg.fusion_count(), 3); // chain edges only
    }

    #[test]
    fn fusion_node_degree_respects_photon_budget() {
        // Every fusion node has at most `qubit_count` incident fusions:
        // each fusion consumes one photon of the resource state.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        for _ in 0..5 {
            let g = generators::random_tree(30, &mut rng);
            for kind in [
                ResourceKind::LINE3,
                ResourceKind::STAR4,
                ResourceKind::LINE4,
            ] {
                let fg = generate(&g, &degrees(&g), kind);
                let budget = kind.effective().qubit_count();
                for fnode in fg.graph().nodes() {
                    assert!(
                        fg.graph().degree(fnode) <= budget,
                        "fusion node exceeds {kind} photon budget"
                    );
                }
            }
        }
    }

    #[test]
    fn ports_cover_every_subgraph_edge() {
        let g = generators::grid(3, 3);
        let fg = generate(&g, &degrees(&g), ResourceKind::LINE3);
        for e in g.sorted_edges() {
            let (u, w) = (e.a().index(), e.b().index());
            let pu = fg.port(u, w).expect("port exists");
            let pw = fg.port(w, u).expect("port exists");
            assert!(fg.graph().has_edge(pu, pw));
            assert_eq!(fg.owner_of(pu).0, u);
            assert_eq!(fg.owner_of(pw).0, w);
        }
    }

    /// Free-photon capacity of each state along a `k`-chain, as a vector:
    /// the form the port walk read before it computed capacities.
    fn chain_caps(kind: ResourceKind, k: usize) -> Vec<usize> {
        let q = kind.effective().qubit_count();
        if k == 1 {
            return vec![q];
        }
        (0..k)
            .map(|i| if i == 0 || i == k - 1 { q - 1 } else { q - 2 })
            .collect()
    }

    #[test]
    fn chain_capacities_match_the_capacity_vector() {
        for kind in [
            ResourceKind::LINE3,
            ResourceKind::LINE4,
            ResourceKind::STAR4,
            ResourceKind::RING4,
        ] {
            let q = kind.effective().qubit_count();
            for k in 1..40 {
                let caps = chain_caps(kind, k);
                for (i, &cap) in caps.iter().enumerate() {
                    assert_eq!(chain_cap(q, k, i), cap, "{kind} k={k} i={i}");
                }
                assert_eq!(
                    chain_capacity(q, k),
                    caps.iter().sum::<usize>(),
                    "{kind} k={k}"
                );
            }
        }
    }

    /// The port table as it was before the per-node slices: a `HashMap`
    /// filled by the same head-to-tail walk over each node's rotation.
    fn hashed_ports(
        subgraph: &Graph,
        kind: ResourceKind,
        fg: &FusionGraph,
    ) -> std::collections::HashMap<(usize, usize), NodeId> {
        let embedding = planarity::planar_embedding(subgraph);
        let mut port = std::collections::HashMap::new();
        for v in 0..subgraph.node_count() {
            let vid = NodeId::new(v);
            let neighbors = match &embedding {
                Some(emb) => emb.rotation(vid),
                None => subgraph.neighbors(vid),
            };
            let mut slots = chain_caps(kind, fg.chain_length(v));
            let mut chain_cursor = 0usize;
            for &w in neighbors {
                while slots[chain_cursor] == 0 {
                    chain_cursor += 1;
                }
                slots[chain_cursor] -= 1;
                let fnode = NodeId::new(fg.representative(v).index() + chain_cursor);
                port.insert((v, w.index()), fnode);
            }
        }
        port
    }

    #[test]
    fn ports_match_the_hashed_port_table() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
        let mut graphs = vec![
            generators::grid(4, 5),
            generators::star(12),
            generators::complete(6), // non-planar: ports follow adjacency
            generators::cycle(9),
        ];
        for _ in 0..20 {
            let n = rand::Rng::gen_range(&mut rng, 2..40);
            let m = rand::Rng::gen_range(&mut rng, 0..3 * n);
            graphs.push(generators::gnm(n, m, &mut rng));
        }
        for g in &graphs {
            for kind in [ResourceKind::LINE3, ResourceKind::STAR4] {
                let fg = generate(g, &degrees(g), kind);
                let reference = hashed_ports(g, kind, &fg);
                for v in 0..g.node_count() + 1 {
                    for w in 0..g.node_count() + 1 {
                        assert_eq!(
                            fg.port(v, w),
                            reference.get(&(v, w)).copied(),
                            "{g} {kind} port({v}, {w})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fusion_count_decomposes() {
        let g = generators::grid(4, 4);
        let fg = generate(&g, &degrees(&g), ResourceKind::LINE3);
        assert_eq!(
            fg.fusion_count(),
            fg.intra_node_fusions() + fg.connection_fusions()
        );
        assert_eq!(fg.connection_fusions(), g.edge_count());
    }

    #[test]
    fn representative_is_chain_head() {
        let star = generators::star(5);
        let fg = generate(&star, &degrees(&star), ResourceKind::LINE3);
        let rep = fg.representative(0);
        assert_eq!(fg.owner_of(rep), (0, 0));
    }

    #[test]
    fn empty_graph_produces_empty_fusion_graph() {
        let g = Graph::new();
        let fg = generate(&g, &[], ResourceKind::LINE3);
        assert_eq!(fg.node_count(), 0);
        assert_eq!(fg.fusion_count(), 0);
    }
}
