//! The traced replay of one compile: the body parsed and compiled through
//! each stage's public entry point, in `Compiler::compile_pattern`'s
//! order, one span per call, with each stage's work counters.

use crate::inputs::Input;
use crate::trace::Tracer;
use oneq::{fusion_graph, mapping, partition, CompilerOptions, PartitionOptions};
use oneq_hardware::{ExtendedLayer, LayerGeometry};
use oneq_mbqc::{flow, translate};
use oneq_service::compile::GeometryChoice;
use std::collections::HashMap;

/// Names of the stage spans, in pipeline order.
pub const STAGES: [&str; 7] = [
    "frontend.parse",
    "mbqc.translate",
    "partition",
    "mbqc.flow",
    "fusion_graph",
    "mapping",
    "shuffle",
];

/// Deterministic work counters of one or more compiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Graph-state nodes after translation.
    pub graph_nodes: u64,
    /// Graph-state edges after translation.
    pub graph_edges: u64,
    /// Partitions scheduled.
    pub partitions: u64,
    /// Cross-partition edges.
    pub cross_edges: u64,
    /// Fusion-graph nodes.
    pub fusion_nodes: u64,
    /// Mapper BFS searches.
    pub bfs_searches: u64,
    /// Cells the mapper's BFS expanded.
    pub bfs_expansions: u64,
    /// Seed-cell ring scans.
    pub seed_scans: u64,
    /// Grid cells used for routing.
    pub routing_cells: u64,
    /// Largest occupancy of any layer.
    pub occupancy_peak: u64,
    /// Cross-partition pairs handed to the shuffle planner.
    pub shuffle_pairs: u64,
    /// Shuffle layers the planner allocated.
    pub shuffle_layers: u64,
    /// Fusions the shuffle planner added.
    pub shuffle_fusions: u64,
}

impl Counters {
    /// Adds `other` (occupancy peaks take the maximum).
    pub fn add(&mut self, other: &Counters) {
        self.graph_nodes += other.graph_nodes;
        self.graph_edges += other.graph_edges;
        self.partitions += other.partitions;
        self.cross_edges += other.cross_edges;
        self.fusion_nodes += other.fusion_nodes;
        self.bfs_searches += other.bfs_searches;
        self.bfs_expansions += other.bfs_expansions;
        self.seed_scans += other.seed_scans;
        self.routing_cells += other.routing_cells;
        self.occupancy_peak = self.occupancy_peak.max(other.occupancy_peak);
        self.shuffle_pairs += other.shuffle_pairs;
        self.shuffle_layers += other.shuffle_layers;
        self.shuffle_fusions += other.shuffle_fusions;
    }
}

/// What the replay computed: the paper's two metrics and the counters.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    /// Physical depth.
    pub depth: u64,
    /// Total fusions.
    pub fusions: u64,
    /// Work counters.
    pub counters: Counters,
}

/// Replays the compile of `input` through the stage entry points, each
/// call inside its own span (children of the caller's open span).
pub fn replay(input: &Input, tracer: &mut Tracer, item: usize) -> Result<Replayed, String> {
    let circuit = tracer
        .span("frontend.parse", item, |_| {
            oneq_frontend::parse_circuit(&input.source)
        })
        .map_err(|e| format!("{}: {}", input.label, e.to_line()))?;
    let config = &input.config;
    let geometry = match config.geometry {
        GeometryChoice::Auto => LayerGeometry::square(oneq_baseline::physical_side(
            circuit.n_qubits(),
            config.resource,
        )),
        GeometryChoice::Square(s) => LayerGeometry::square(s),
        GeometryChoice::Rect(r, c) => LayerGeometry::new(r, c),
    };
    let opt = CompilerOptions::new(geometry)
        .with_resource_kind(config.resource)
        .with_extension(config.extension);
    let ext_geometry = ExtendedLayer::new(opt.geometry, opt.extension_factor).geometry();
    let capacity = ext_geometry
        .area()
        .saturating_mul(opt.fill_percent)
        .saturating_mul(8)
        / 100;

    let pattern = tracer.span("mbqc.translate", item, |_| {
        translate::from_circuit(&circuit)
    });
    let part_opts = PartitionOptions {
        max_dependency_layers: opt.max_dependency_layers,
        capacity_hint: Some(capacity.max(64)),
        enforce_planarity: opt.enforce_planarity,
        resource_kind: opt.resource_kind,
    };
    let parts = tracer.span("partition", item, |_| {
        partition::partition(&pattern, &part_opts)
    });
    tracer.span("mbqc.flow", item, |_| {
        flow::dependency_layers(&pattern).len()
    });

    let mut c = Counters {
        graph_nodes: pattern.node_count() as u64,
        graph_edges: pattern.edge_count() as u64,
        partitions: parts.partitions.len() as u64,
        cross_edges: parts.cross_edges.len() as u64,
        ..Counters::default()
    };
    let mut depth = 0usize;
    let mut fusions = 0usize;
    let mut global_place = HashMap::new();
    let mut global_layer_base = 0usize;
    for part in &parts.partitions {
        let fg = tracer.span("fusion_graph", item, |_| {
            fusion_graph::generate(&part.subgraph, &part.full_degree, opt.resource_kind)
        });
        let map = tracer.span("mapping", item, |_| {
            mapping::map_graph(fg.graph(), ext_geometry, &opt.mapping)
        });
        c.fusion_nodes += fg.node_count() as u64;
        c.bfs_searches += map.profile.bfs_searches;
        c.bfs_expansions += map.profile.bfs_expansions;
        c.seed_scans += map.profile.seed_scans;
        c.routing_cells += map.profile.routing_cells;
        c.occupancy_peak = c.occupancy_peak.max(map.profile.occupancy_peak);
        fusions += map.total_fusions();
        for (local, &global) in part.global_nodes.iter().enumerate() {
            if let Some(&(layer, pos)) = map.placement.get(&fg.representative(local)) {
                global_place.insert(global, (global_layer_base + layer, pos));
            }
        }
        depth += map.layouts.len() * opt.extension_factor + map.shuffle_layers;
        global_layer_base += map.layouts.len();
    }
    if !parts.cross_edges.is_empty() {
        let (pairs, layers, extra) = tracer.span("shuffle", item, |_| {
            let pairs: Vec<_> = parts
                .cross_edges
                .iter()
                .filter_map(|(u, v)| match (global_place.get(u), global_place.get(v)) {
                    (Some(&(_, pu)), Some(&(_, pv))) => Some((pu, pv)),
                    _ => None,
                })
                .collect();
            let (layers, extra) = mapping::plan_position_shuffles(&pairs, ext_geometry);
            (pairs.len(), layers, extra)
        });
        c.shuffle_pairs = pairs as u64;
        c.shuffle_layers = layers as u64;
        c.shuffle_fusions = extra as u64;
        depth += layers;
        fusions += extra;
    }
    Ok(Replayed {
        depth: depth.max(1) as u64,
        fusions: fusions as u64,
        counters: c,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use oneq::Compiler;

    #[test]
    fn the_replay_reproduces_the_compilers_depth_and_fusions() {
        let stream = inputs::ServeStream::new(3, inputs::ServeShape::default());
        for k in 0..8 {
            let input = stream.input(k);
            let mut tracer = Tracer::default();
            let got = tracer
                .span("item", k, |t| replay(&input, t, k))
                .expect("replay");
            let circuit = oneq_frontend::parse_circuit(&input.source).expect("parse");
            let side = oneq_baseline::physical_side(circuit.n_qubits(), input.config.resource);
            let program =
                Compiler::new(CompilerOptions::new(LayerGeometry::square(side))).compile(&circuit);
            assert_eq!(got.depth, program.depth as u64, "{}", input.label);
            assert_eq!(got.fusions, program.fusions as u64, "{}", input.label);
            assert_eq!(got.counters.partitions, program.stats.partitions as u64);
            let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
            assert_eq!(names[0], "item");
            assert_eq!(names[1], "frontend.parse");
            assert!(names.iter().all(|n| *n == "item" || STAGES.contains(n)));
        }
    }
}
