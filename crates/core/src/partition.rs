//! Graph partition & scheduling (paper §4).
//!
//! The graph state is too large for one batch of physical layers, so the
//! partitioner groups the causal-flow *dependency layers* (Lemma 1) into
//! *partitions*, each later scheduled onto a dynamically allocated run of
//! physical layers. Grouping is coarse-grained: a partition may span
//! several dependency layers (delay lines tolerate the mismatch), which
//! preserves local geometry and improves layout compactness. For small
//! resource states a planarity check gates the grouping, and a
//! single non-planar layer is reduced to its maximal planar subgraph with
//! the leftover edges deferred to inter-layer shuffling.

use oneq_graph::{mps, planarity, Embedding, Graph, NodeId};
use oneq_hardware::ResourceKind;
use oneq_mbqc::{flow, Pattern};

/// Tuning knobs for the partitioner.
#[derive(Debug, Clone, Copy)]
pub struct PartitionOptions {
    /// Maximum consecutive dependency layers per partition (bounded by the
    /// delay-line reach; paper §4).
    pub max_dependency_layers: usize,
    /// Soft budget of fusion-graph nodes per partition; `None` disables
    /// the capacity check. Usually set to a fraction of the layer area.
    pub capacity_hint: Option<usize>,
    /// Enforce that every partition's subgraph is planar (required for
    /// small resource states; paper §4 "Graph Planarization").
    pub enforce_planarity: bool,
    /// Resource state used to estimate synthesis cost.
    pub resource_kind: ResourceKind,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            max_dependency_layers: 8,
            capacity_hint: None,
            enforce_planarity: true,
            resource_kind: ResourceKind::LINE3,
        }
    }
}

/// One partition: a set of graph-state nodes scheduled together.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Pattern node ids in this partition (local index `i` of
    /// [`Partition::subgraph`] is `global_nodes[i]`).
    pub global_nodes: Vec<NodeId>,
    /// Induced subgraph over the partition's nodes (possibly missing edges
    /// removed by planarization — those are deferred to cross edges).
    pub subgraph: Graph,
    /// Degree of each local node in the **full** graph state: node
    /// synthesis must provision fusion slots for cross-partition edges too.
    pub full_degree: Vec<usize>,
    /// `planarity::planar_embedding(&subgraph)`: the rotation order
    /// fusion-graph generation attaches edges in (paper §5). `None` only
    /// when planarity is not enforced and the subgraph is non-planar.
    pub embedding: Option<Embedding>,
}

impl Partition {
    /// Estimated fusion-graph node count for this partition.
    pub fn synthesis_cost(&self, kind: ResourceKind) -> usize {
        self.full_degree.iter().map(|&d| kind.chain_nodes(d)).sum()
    }
}

/// Output of the partitioning stage.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Partitions in executability order.
    pub partitions: Vec<Partition>,
    /// Graph-state edges not contained in any partition subgraph: edges
    /// between partitions plus edges dropped by planarization. They are
    /// realized later by inter-layer shuffling (paper §6).
    pub cross_edges: Vec<(NodeId, NodeId)>,
    /// Number of causal-flow dependency layers (Lemma 1) of the pattern,
    /// i.e. `flow::dependency_layers(pattern).len()`.
    pub dependency_layers: usize,
}

impl PartitionResult {
    /// Total nodes across partitions (equals the pattern's node count).
    pub fn node_count(&self) -> usize {
        self.partitions.iter().map(|p| p.global_nodes.len()).sum()
    }
}

/// Partitions `pattern`'s graph state.
///
/// Dependency layers are computed per Lemma 1 (outputs form a final
/// pseudo-layer so they are scheduled too), then grouped greedily in
/// executability order subject to the layer-count limit, the capacity
/// hint, and (optionally) planarity of the accumulated subgraph.
///
/// # Example
///
/// ```
/// use oneq_circuit::benchmarks;
/// use oneq_mbqc::translate;
/// use oneq::partition::{partition, PartitionOptions};
///
/// let pattern = translate::from_circuit(&benchmarks::qft(4));
/// let result = partition(&pattern, &PartitionOptions::default());
/// assert!(!result.partitions.is_empty());
/// assert_eq!(result.node_count(), pattern.node_count());
/// ```
pub fn partition(pattern: &Pattern, options: &PartitionOptions) -> PartitionResult {
    // Scheduled layers: executability order with measurements postponed to
    // keep wires layer-monotone (see `oneq_mbqc::flow::scheduled_layers`).
    let earliest = flow::dependency_layers(pattern);
    let mut layers = flow::scheduled_layers_from(pattern, &earliest);
    let dependency_layers = earliest.len();
    let outputs: Vec<NodeId> = pattern.outputs().to_vec();
    if !outputs.is_empty() {
        layers.push(outputs);
    }
    if layers.is_empty() {
        return PartitionResult {
            partitions: Vec::new(),
            cross_edges: Vec::new(),
            dependency_layers,
        };
    }

    let full_graph = pattern.graph();
    let enforce = options.enforce_planarity;
    let mut partitions: Vec<Partition> = Vec::new();
    let mut running = Running::new(full_graph.node_count());

    for layer in layers {
        let layer_cost = match options.capacity_hint {
            Some(_) => layer
                .iter()
                .map(|&n| options.resource_kind.chain_nodes(full_graph.degree(n)))
                .sum(),
            None => 0,
        };
        let held = running.nodes.len();
        let fits = held > 0
            && running.layers < options.max_dependency_layers
            && options
                .capacity_hint
                .map_or(true, |cap| running.cost + layer_cost <= cap);
        if fits {
            running.push(full_graph, &layer, enforce);
            if !enforce || running.stays_planar() {
                running.cost += layer_cost;
                running.layers += 1;
                continue;
            }
        }
        // Close the running partition and start fresh with this layer.
        // A single layer that is itself non-planar keeps all of its nodes
        // but only a maximal planar subgraph of its edges — the trimming
        // happens inside build_partition (paper §4, graph planarization).
        if held > 0 {
            partitions.push(build_partition(full_graph, &running.nodes[..held], enforce));
        }
        running.clear();
        running.push(full_graph, &layer, enforce);
        running.cost = layer_cost;
        running.layers = 1;
    }
    partitions.push(build_partition(full_graph, &running.nodes, enforce));

    let cross_edges = cross_edges(full_graph, &partitions);
    PartitionResult {
        partitions,
        cross_edges,
        dependency_layers,
    }
}

/// The partition being grown: its nodes, their synthesis cost and layer
/// count, and — when planarity is enforced — the adjacency of the
/// subgraph they induce, which layers only ever append to.
struct Running {
    /// Pattern nodes in the order their layers arrived; a node's local id
    /// is its position here.
    nodes: Vec<NodeId>,
    /// Local id of each pattern node in the running partition, or
    /// `usize::MAX`.
    local: Vec<usize>,
    /// Induced adjacency over local ids; rows from `nodes.len()` on are
    /// spare, kept for their capacity.
    adjacency: Vec<Vec<NodeId>>,
    /// Nodes `0..planar_prefix` induce a subgraph already found planar.
    planar_prefix: usize,
    cost: usize,
    layers: usize,
}

impl Running {
    fn new(pattern_nodes: usize) -> Self {
        Running {
            nodes: Vec::new(),
            local: vec![usize::MAX; pattern_nodes],
            adjacency: Vec::new(),
            planar_prefix: 0,
            cost: 0,
            layers: 0,
        }
    }

    /// Appends `layer`'s nodes and, with `edges`, every graph edge that
    /// joins a new node to a node already held or to an earlier new node.
    fn push(&mut self, graph: &Graph, layer: &[NodeId], edges: bool) {
        let first = self.nodes.len();
        for &x in layer {
            self.local[x.index()] = self.nodes.len();
            self.nodes.push(x);
        }
        if !edges {
            return;
        }
        if self.adjacency.len() < self.nodes.len() {
            self.adjacency.resize_with(self.nodes.len(), Vec::new);
        }
        for lx in first..self.nodes.len() {
            for &y in graph.neighbors(self.nodes[lx]) {
                let ly = self.local[y.index()];
                if ly < lx {
                    self.adjacency[lx].push(NodeId::new(ly));
                    self.adjacency[ly].push(NodeId::new(lx));
                }
            }
        }
    }

    /// Whether the held nodes still induce a planar subgraph: only the
    /// blocks that hold an edge added since the last planar verdict are
    /// tested.
    fn stays_planar(&mut self) -> bool {
        let held = self.nodes.len();
        let planar = planarity::is_planar_extension(&self.adjacency[..held], self.planar_prefix);
        if planar {
            self.planar_prefix = held;
        }
        planar
    }

    fn clear(&mut self) {
        for row in self.adjacency.iter_mut().take(self.nodes.len()) {
            row.clear();
        }
        for x in self.nodes.drain(..) {
            self.local[x.index()] = usize::MAX;
        }
        self.planar_prefix = 0;
    }
}

/// Builds one partition's canonical subgraph (`induced_subgraph` fixes its
/// neighbor order) and embeds it once, after planarization if needed.
fn build_partition(full_graph: &Graph, nodes: &[NodeId], enforce_planarity: bool) -> Partition {
    let (mut subgraph, global_nodes) = full_graph.induced_subgraph(nodes);
    let mut embedding = planarity::planar_embedding(&subgraph);
    // Planarity safety net (small resource states only): if the induced
    // subgraph is non-planar — possible for a single oversized/non-planar
    // dependency layer — keep a maximal planar subgraph.
    if enforce_planarity && embedding.is_none() {
        subgraph = mps::maximal_planar_subgraph(&subgraph).subgraph;
        embedding = planarity::planar_embedding(&subgraph);
    }
    let full_degree = global_nodes.iter().map(|&g| full_graph.degree(g)).collect();
    Partition {
        global_nodes,
        subgraph,
        full_degree,
        embedding,
    }
}

/// Every full-graph edge not inside some partition's subgraph, sorted by
/// endpoints: edges between partitions, and edges planarization dropped.
fn cross_edges(full_graph: &Graph, partitions: &[Partition]) -> Vec<(NodeId, NodeId)> {
    // (partition, local id) of every node.
    let mut home = vec![(usize::MAX, 0); full_graph.node_count()];
    for (i, p) in partitions.iter().enumerate() {
        for (local, &g) in p.global_nodes.iter().enumerate() {
            home[g.index()] = (i, local);
        }
    }
    let same_partition = |a: NodeId, b: NodeId| {
        let (pa, pb) = (home[a.index()].0, home[b.index()].0);
        (pa != usize::MAX && pa == pb).then_some(pa)
    };
    // Only a partition that planarization trimmed needs its edge set
    // probed; every other one holds all the edges its nodes induce.
    let mut induced = vec![0usize; partitions.len()];
    for a in full_graph.nodes() {
        for &b in full_graph.neighbors(a) {
            if let Some(p) = same_partition(a, b).filter(|_| a < b) {
                induced[p] += 1;
            }
        }
    }
    let inside = |a: NodeId, b: NodeId| match same_partition(a, b) {
        Some(p) => {
            let subgraph = &partitions[p].subgraph;
            subgraph.edge_count() == induced[p]
                || subgraph.has_edge(
                    NodeId::new(home[a.index()].1),
                    NodeId::new(home[b.index()].1),
                )
        }
        None => false,
    };
    let mut cross = Vec::new();
    let mut row: Vec<NodeId> = Vec::new();
    for a in full_graph.nodes() {
        row.clear();
        row.extend(
            full_graph
                .neighbors(a)
                .iter()
                .copied()
                .filter(|&b| a < b && !inside(a, b)),
        );
        row.sort_unstable();
        cross.extend(row.iter().map(|&b| (a, b)));
    }
    cross
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneq_circuit::{benchmarks, Circuit};
    use oneq_mbqc::translate;
    use std::collections::HashSet;

    fn total_edges(result: &PartitionResult) -> usize {
        result
            .partitions
            .iter()
            .map(|p| p.subgraph.edge_count())
            .sum::<usize>()
            + result.cross_edges.len()
    }

    #[test]
    fn nodes_are_partitioned_exactly_once() {
        let pattern = translate::from_circuit(&benchmarks::qft(5));
        let result = partition(&pattern, &PartitionOptions::default());
        let mut seen = HashSet::new();
        for p in &result.partitions {
            for &n in &p.global_nodes {
                assert!(seen.insert(n), "node {n} in two partitions");
            }
        }
        assert_eq!(seen.len(), pattern.node_count());
    }

    #[test]
    fn every_edge_is_accounted_for() {
        let pattern = translate::from_circuit(&benchmarks::qft(5));
        let result = partition(&pattern, &PartitionOptions::default());
        assert_eq!(total_edges(&result), pattern.edge_count());
    }

    #[test]
    fn clifford_circuit_collapses_to_few_partitions() {
        let pattern = translate::from_circuit(&benchmarks::bv(&[true; 8]));
        let result = partition(&pattern, &PartitionOptions::default());
        // One measured layer + the output pseudo-layer, planar: 1 partition.
        assert_eq!(result.partitions.len(), 1);
        assert!(result.cross_edges.is_empty());
    }

    #[test]
    fn partitions_respect_layer_limit() {
        let mut c = Circuit::new(1);
        for _ in 0..12 {
            c.j(0, 0.3); // 12 chained adaptive layers
        }
        let pattern = translate::from_circuit(&c);
        let opts = PartitionOptions {
            max_dependency_layers: 3,
            ..PartitionOptions::default()
        };
        let result = partition(&pattern, &opts);
        assert!(
            result.partitions.len() >= 4,
            "expected >= 4 partitions, got {}",
            result.partitions.len()
        );
    }

    #[test]
    fn capacity_hint_limits_partition_size() {
        let pattern = translate::from_circuit(&benchmarks::qft(5));
        let small = partition(
            &pattern,
            &PartitionOptions {
                capacity_hint: Some(20),
                ..PartitionOptions::default()
            },
        );
        let big = partition(
            &pattern,
            &PartitionOptions {
                capacity_hint: None,
                ..PartitionOptions::default()
            },
        );
        assert!(small.partitions.len() > big.partitions.len());
        // Single layers can exceed the hint, but multi-layer unions only
        // form while under it: an over-hint partition is exactly one
        // scheduled layer, or the output pseudo-layer.
        let mut layers = flow::scheduled_layers(&pattern);
        layers.push(pattern.outputs().to_vec());
        let mut over_hint = 0;
        for hint in [10, 20, 40] {
            let result = partition(
                &pattern,
                &PartitionOptions {
                    capacity_hint: Some(hint),
                    ..PartitionOptions::default()
                },
            );
            for p in &result.partitions {
                if p.synthesis_cost(ResourceKind::LINE3) > hint {
                    over_hint += 1;
                    assert!(
                        layers.contains(&p.global_nodes),
                        "hint {hint}: an over-hint partition spans several layers"
                    );
                }
            }
        }
        assert!(
            over_hint > 0,
            "no partition exceeded a hint: the check is vacuous"
        );
    }

    #[test]
    fn non_planar_lone_layer_is_planarized_and_embedded() {
        // H on 6 qubits, then CZ on every pair: the output layer induces
        // K6, which no partition can hold whole.
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        for a in 0..6 {
            for b in a + 1..6 {
                c.cz(a, b);
            }
        }
        let pattern = translate::from_circuit(&c);
        let result = partition(&pattern, &PartitionOptions::default());
        let trimmed = result
            .partitions
            .iter()
            .filter(|p| {
                let induced = pattern.graph().induced_subgraph(&p.global_nodes).0;
                p.subgraph.edge_count() < induced.edge_count()
            })
            .count();
        assert_eq!(trimmed, 1, "exactly one partition loses edges to MPS");
        for p in &result.partitions {
            let embedding = p
                .embedding
                .as_ref()
                .expect("enforced partitions are planar");
            assert!(embedding.verify(&p.subgraph));
        }
        assert!(!result.cross_edges.is_empty());
        assert_eq!(total_edges(&result), pattern.edge_count());
    }

    /// The grouping loop as it ran before partitions grew incrementally:
    /// every layer rebuilds the union's induced subgraph and retests its
    /// planarity in full, and cross edges come from a binary search over
    /// every partition's sorted edges.
    fn reference_partition(pattern: &Pattern, options: &PartitionOptions) -> PartitionResult {
        let mut layers = flow::scheduled_layers(pattern);
        let outputs: Vec<NodeId> = pattern.outputs().to_vec();
        if !outputs.is_empty() {
            layers.push(outputs);
        }
        let dependency_layers = flow::dependency_layers(pattern).len();
        let full_graph = pattern.graph();
        let build = |nodes: &[NodeId]| {
            let (mut subgraph, global_nodes) = full_graph.induced_subgraph(nodes);
            if options.enforce_planarity && !planarity::is_planar(&subgraph) {
                subgraph = mps::maximal_planar_subgraph(&subgraph).subgraph;
            }
            let full_degree = global_nodes.iter().map(|&g| full_graph.degree(g)).collect();
            let embedding = planarity::planar_embedding(&subgraph);
            Partition {
                global_nodes,
                subgraph,
                full_degree,
                embedding,
            }
        };
        let mut partitions: Vec<Partition> = Vec::new();
        let mut current: Vec<NodeId> = Vec::new();
        let mut current_layers = 0usize;
        for layer in layers {
            let fits = |acc: &[NodeId], extra: &[NodeId]| -> bool {
                let mut nodes: Vec<NodeId> = acc.to_vec();
                nodes.extend_from_slice(extra);
                if let Some(cap) = options.capacity_hint {
                    let cost: usize = nodes
                        .iter()
                        .map(|&n| options.resource_kind.chain_nodes(full_graph.degree(n)))
                        .sum();
                    if cost > cap {
                        return false;
                    }
                }
                if options.enforce_planarity {
                    let (sub, _) = full_graph.induced_subgraph(&nodes);
                    if !planarity::is_planar(&sub) {
                        return false;
                    }
                }
                true
            };
            if current_layers < options.max_dependency_layers
                && !current.is_empty()
                && fits(&current, &layer)
            {
                current.extend_from_slice(&layer);
                current_layers += 1;
                continue;
            }
            if !current.is_empty() {
                partitions.push(build(&current));
            }
            current = layer;
            current_layers = 1;
        }
        if !current.is_empty() {
            partitions.push(build(&current));
        }
        let mut in_partition_edges: Vec<(usize, usize)> = Vec::new();
        for p in &partitions {
            for e in p.subgraph.sorted_edges() {
                let (a, b) = (p.global_nodes[e.a().index()], p.global_nodes[e.b().index()]);
                in_partition_edges.push((a.index().min(b.index()), a.index().max(b.index())));
            }
        }
        in_partition_edges.sort_unstable();
        let cross_edges = full_graph
            .sorted_edges()
            .into_iter()
            .filter(|e| {
                in_partition_edges
                    .binary_search(&(e.a().index(), e.b().index()))
                    .is_err()
            })
            .map(|e| (e.a(), e.b()))
            .collect();
        PartitionResult {
            partitions,
            cross_edges,
            dependency_layers,
        }
    }

    #[test]
    fn incremental_partition_matches_the_reference_loop() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(601);
        let mut circuits = vec![
            benchmarks::qft(6),
            benchmarks::rca(8),
            benchmarks::bv(&[true, false, true, true, false, true]),
            oneq_circuit::extra::grover(4, 1),
        ];
        for n in [6, 8, 10] {
            circuits.push(benchmarks::qaoa_maxcut_random(n, &mut rng));
        }
        let mut dense = Circuit::new(6);
        for q in 0..6 {
            dense.h(q);
        }
        for a in 0..6 {
            for b in a + 1..6 {
                dense.cz(a, b).t(b);
            }
        }
        circuits.push(dense);
        let mut multi_layer = 0;
        for circuit in &circuits {
            let pattern = translate::from_circuit(circuit);
            let layer_count = flow::scheduled_layers(&pattern).len() + 1;
            for max_dependency_layers in [1, 3, 8] {
                for capacity_hint in [None, Some(30)] {
                    for enforce_planarity in [true, false] {
                        let options = PartitionOptions {
                            max_dependency_layers,
                            capacity_hint,
                            enforce_planarity,
                            resource_kind: ResourceKind::LINE3,
                        };
                        let got = partition(&pattern, &options);
                        let want = reference_partition(&pattern, &options);
                        let case = format!("{options:?}");
                        assert_eq!(got.dependency_layers, want.dependency_layers, "{case}");
                        assert_eq!(got.cross_edges, want.cross_edges, "{case}");
                        assert_eq!(got.partitions.len(), want.partitions.len(), "{case}");
                        for (g, w) in got.partitions.iter().zip(&want.partitions) {
                            assert_eq!(g.global_nodes, w.global_nodes, "{case}");
                            assert_eq!(g.subgraph.sorted_edges(), w.subgraph.sorted_edges());
                            for v in g.subgraph.nodes() {
                                assert_eq!(g.subgraph.neighbors(v), w.subgraph.neighbors(v));
                            }
                            assert_eq!(g.full_degree, w.full_degree, "{case}");
                            assert_eq!(g.embedding, w.embedding, "{case}");
                        }
                        multi_layer += usize::from(got.partitions.len() < layer_count);
                    }
                }
            }
        }
        assert!(multi_layer > 0, "no case grouped several layers");
    }

    #[test]
    fn planarity_enforced_partitions_are_planar() {
        use oneq_graph::planarity::is_planar;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let pattern = translate::from_circuit(&benchmarks::qaoa_maxcut_random(8, &mut rng));
        let result = partition(&pattern, &PartitionOptions::default());
        for p in &result.partitions {
            assert!(is_planar(&p.subgraph));
        }
        assert_eq!(total_edges(&result), pattern.edge_count());
    }

    #[test]
    fn full_degree_counts_cross_partition_edges() {
        let pattern = translate::from_circuit(&benchmarks::qft(4));
        let opts = PartitionOptions {
            max_dependency_layers: 1,
            ..PartitionOptions::default()
        };
        let result = partition(&pattern, &opts);
        for p in &result.partitions {
            for (i, &g) in p.global_nodes.iter().enumerate() {
                assert_eq!(p.full_degree[i], pattern.graph().degree(g));
                assert!(p.full_degree[i] >= p.subgraph.degree(oneq_graph::NodeId::new(i)));
            }
        }
    }

    #[test]
    fn empty_pattern_yields_no_partitions() {
        let pattern = oneq_mbqc::Pattern::new();
        let result = partition(&pattern, &PartitionOptions::default());
        assert!(result.partitions.is_empty());
        assert!(result.cross_edges.is_empty());
    }

    #[test]
    fn synthesis_cost_uses_chain_rule() {
        let pattern = translate::from_circuit(&benchmarks::qft(4));
        let result = partition(&pattern, &PartitionOptions::default());
        for p in &result.partitions {
            let expected: usize = p
                .full_degree
                .iter()
                .map(|&d| ResourceKind::LINE3.chain_nodes(d))
                .sum();
            assert_eq!(p.synthesis_cost(ResourceKind::LINE3), expected);
        }
    }
}
