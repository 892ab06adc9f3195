//! End-to-end compilation pipeline (paper Fig. 1).

use crate::fusion_graph;
use crate::mapping::{self, LayerLayout, MappingOptions};
use crate::partition::{self, PartitionOptions};
use oneq_circuit::Circuit;
use oneq_hardware::{ExtendedLayer, LayerGeometry, Position, ResourceKind, Topology};
use oneq_mbqc::{translate, Pattern};
use std::fmt;
use std::time::Instant;

/// Compiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompilerOptions {
    /// Per-cycle RSG array geometry.
    pub geometry: LayerGeometry,
    /// Resource state emitted by each RSG.
    pub resource_kind: ResourceKind,
    /// Consecutive physical layers merged into one extended layer for
    /// mapping (1 = no extension; paper Fig. 5b/14).
    pub extension_factor: usize,
    /// Maximum dependency layers per partition (delay-line bound).
    pub max_dependency_layers: usize,
    /// Enforce partition planarity (required for small resource states).
    pub enforce_planarity: bool,
    /// Fraction of the (extended) layer area targeted by each partition's
    /// fusion-node budget, in percent.
    pub fill_percent: usize,
    /// Mapper switches (cycle priority, in-layer routing).
    pub mapping: MappingOptions,
}

impl CompilerOptions {
    /// Defaults tuned for 3-qubit resource states on the given geometry.
    pub fn new(geometry: LayerGeometry) -> Self {
        CompilerOptions {
            geometry,
            resource_kind: ResourceKind::LINE3,
            extension_factor: 1,
            max_dependency_layers: 8,
            enforce_planarity: true,
            fill_percent: 50,
            mapping: MappingOptions::default(),
        }
    }

    /// Sets the resource-state kind.
    pub fn with_resource_kind(mut self, kind: ResourceKind) -> Self {
        self.resource_kind = kind;
        self
    }

    /// Sets the extended-layer factor.
    pub fn with_extension(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "extension factor must be >= 1");
        self.extension_factor = factor;
        self
    }

    fn extended_geometry(&self) -> LayerGeometry {
        ExtendedLayer::new(self.geometry, self.extension_factor).geometry()
    }
}

/// Per-stage statistics of one compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Graph-state nodes after translation.
    pub graph_state_nodes: usize,
    /// Graph-state edges after translation.
    pub graph_state_edges: usize,
    /// Causal-flow dependency layers.
    pub dependency_layers: usize,
    /// Partitions scheduled.
    pub partitions: usize,
    /// Cross-partition edges resolved by shuffling.
    pub cross_edges: usize,
    /// Total fusion-graph nodes (resource states for synthesis).
    pub fusion_graph_nodes: usize,
    /// Fusions from fusion-graph edges mapped directly.
    pub direct_fusions: usize,
    /// Fusions from in-layer routing paths.
    pub routed_fusions: usize,
    /// Fusions from inter-layer shuffling.
    pub shuffle_fusions: usize,
}

/// Wall-clock time spent in each pipeline stage, in nanoseconds.
///
/// Timings are measurement artifacts, deliberately kept *outside*
/// [`StageStats`]: two compiles of the same circuit must produce identical
/// `StageStats` (the determinism guarantee) while their timings naturally
/// differ.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Circuit → measurement-pattern translation.
    pub translate_ns: u128,
    /// Dependency-layer grouping & scheduling (paper §4).
    pub partition_ns: u128,
    /// Fusion-graph generation across all partitions (paper §5).
    pub fusion_graph_ns: u128,
    /// In-layer mapping & routing across all partitions (paper §6).
    pub mapping_ns: u128,
    /// Cross-partition shuffle planning.
    pub shuffle_ns: u128,
}

impl StageTimings {
    /// Sum of all stage timings.
    pub fn total_ns(&self) -> u128 {
        self.translate_ns
            + self.partition_ns
            + self.fusion_graph_ns
            + self.mapping_ns
            + self.shuffle_ns
    }

    /// The stages as `(name, nanoseconds)` pairs, in pipeline order.
    ///
    /// The names are stable identifiers (`translate`, `partition`,
    /// `fusion_graph`, `mapping`, `shuffle`) shared by the JSONL
    /// `timings_ns` record field and the service's per-stage latency
    /// histograms, so consumers can iterate instead of naming each field.
    pub fn stages(&self) -> [(&'static str, u128); 5] {
        [
            ("translate", self.translate_ns),
            ("partition", self.partition_ns),
            ("fusion_graph", self.fusion_graph_ns),
            ("mapping", self.mapping_ns),
            ("shuffle", self.shuffle_ns),
        ]
    }
}

/// Per-partition compiler-internals profile: where one partition's fusion
/// graph and mapping spent their time and effort.
///
/// Like [`StageTimings`], profiles are measurement artifacts kept outside
/// [`StageStats`]: the timing fields differ between identical compiles
/// while every counter (nodes, BFS expansions, radii, occupancy) is
/// deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionProfile {
    /// Fusion-graph generation time for this partition.
    pub fusion_graph_ns: u128,
    /// Mapping & routing time for this partition.
    pub mapping_ns: u128,
    /// Fusion-graph nodes this partition contributed.
    pub nodes: usize,
    /// The mapper's effort and congestion counters.
    pub map: mapping::MapProfile,
}

/// Compiler-internals profile for one whole compilation: one entry per
/// partition, in schedule order. Rides out-of-band next to [`StageTimings`]
/// — record bytes and [`StageStats`] never include it.
#[derive(Debug, Clone, Default)]
pub struct CompileProfile {
    /// Per-partition profiles in the order partitions were compiled.
    pub partitions: Vec<PartitionProfile>,
}

impl CompileProfile {
    /// The mapper counters summed across partitions — the shape the
    /// service's `oneqd_compile_*` counter families want.
    pub fn totals(&self) -> mapping::MapProfile {
        let mut total = mapping::MapProfile::default();
        for p in &self.partitions {
            total.bfs_searches += p.map.bfs_searches;
            total.bfs_expansions += p.map.bfs_expansions;
            total.scratch_grows += p.map.scratch_grows;
            total.scratch_reuses += p.map.scratch_reuses;
            total.seed_scans += p.map.seed_scans;
            total.seed_scan_radius_max = total.seed_scan_radius_max.max(p.map.seed_scan_radius_max);
            total.occupancy_peak = total.occupancy_peak.max(p.map.occupancy_peak);
            total.routing_cells += p.map.routing_cells;
        }
        total
    }
}

/// The compiled program: the paper's two metrics plus the layouts.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Physical depth: total physical layers consumed (paper §3.2).
    pub depth: usize,
    /// Total fusion operations (paper §3.2).
    pub fusions: usize,
    /// Stage breakdown.
    pub stats: StageStats,
    /// In-layer layouts (extended layers) of every partition in schedule
    /// order, for inspection and visualization. Each is a sparse record
    /// of one layer: its geometry, its placed nodes, its routing cells
    /// and their bounding box, so it costs memory in proportion to what
    /// was placed; the mapper's dense grids are gone once a partition is
    /// mapped.
    pub layouts: Vec<LayerLayout>,
    /// Per-stage wall-clock timings of this compilation.
    pub timings: StageTimings,
    /// Per-partition compiler-internals profile.
    pub profile: CompileProfile,
}

impl fmt::Display for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "depth={} layers, fusions={}, partitions={}",
            self.depth, self.fusions, self.stats.partitions
        )
    }
}

/// The OneQ compiler.
///
/// # Example
///
/// ```
/// use oneq::{Compiler, CompilerOptions};
/// use oneq_circuit::benchmarks;
/// use oneq_hardware::LayerGeometry;
///
/// let program = Compiler::new(CompilerOptions::new(LayerGeometry::new(8, 8)))
///     .compile(&benchmarks::qft(4));
/// assert!(program.fusions > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    options: CompilerOptions,
}

impl Compiler {
    /// Creates a compiler with the given options.
    ///
    /// # Panics
    ///
    /// Panics if `options.extension_factor > 1` on a triangular or
    /// hexagonal layer. An extended layer mirrors every odd sub-layer
    /// (paper Fig. 5b), which keeps orthogonal couplings only, so the
    /// mapper would fuse physically uncoupled pairs.
    pub fn new(options: CompilerOptions) -> Self {
        assert!(
            options.extension_factor <= 1 || options.geometry.topology() == Topology::Orthogonal,
            "extended layers need an orthogonal base layer, not {:?}",
            options.geometry.topology()
        );
        Compiler { options }
    }

    /// The active options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Compiles a circuit end to end (translation → partition → fusion
    /// graph → mapping & routing).
    pub fn compile(&self, circuit: &Circuit) -> CompiledProgram {
        let t0 = Instant::now();
        let pattern = translate::from_circuit(circuit);
        let translate_ns = t0.elapsed().as_nanos();
        let mut program = self.compile_pattern(&pattern);
        program.timings.translate_ns = translate_ns;
        program
    }

    /// Compiles an already-translated measurement pattern.
    pub fn compile_pattern(&self, pattern: &Pattern) -> CompiledProgram {
        let opt = &self.options;
        let ext_geometry = opt.extended_geometry();
        // Partitions are bounded by the delay-line reach (dependency
        // layers) and planarity, not by area: the mapper allocates as many
        // physical layers per partition as the fusion graph needs (paper
        // §4, dynamic scheduling). A loose capacity cap keeps a single
        // partition from ballooning past what `fill_percent` says several
        // layers can absorb.
        let capacity = ext_geometry
            .area()
            .saturating_mul(opt.fill_percent)
            .saturating_mul(8)
            / 100;

        let mut timings = StageTimings::default();

        // Stage 1: partition & schedule.
        let part_opts = PartitionOptions {
            max_dependency_layers: opt.max_dependency_layers,
            capacity_hint: Some(capacity.max(64)),
            enforce_planarity: opt.enforce_planarity,
            resource_kind: opt.resource_kind,
        };
        let t_part = Instant::now();
        let parts = partition::partition(pattern, &part_opts);
        timings.partition_ns = t_part.elapsed().as_nanos();

        let mut stats = StageStats {
            graph_state_nodes: pattern.node_count(),
            graph_state_edges: pattern.edge_count(),
            dependency_layers: parts.dependency_layers,
            partitions: parts.partitions.len(),
            cross_edges: parts.cross_edges.len(),
            ..StageStats::default()
        };

        let mut depth = 0usize;
        let mut fusions = 0usize;
        let mut layouts = Vec::new();
        // Where each *global* graph-state node's representative fusion
        // node landed: (global layer index, position), indexed by pattern
        // node.
        let mut global_place: Vec<Option<(usize, Position)>> = vec![None; pattern.node_count()];
        let mut global_layer_base = 0usize;

        let mut profile = CompileProfile::default();
        // Every partition maps onto the same geometry: one neighbour table
        // serves them all.
        let table = mapping::NeighborTable::new(ext_geometry);

        // Stages 2 & 3 per partition; each partition is dropped once it
        // is mapped.
        for part in parts.partitions {
            let t_fg = Instant::now();
            let fg = fusion_graph::generate_embedded(
                &part.subgraph,
                part.embedding.as_ref(),
                &part.full_degree,
                opt.resource_kind,
            );
            let fg_ns = t_fg.elapsed().as_nanos();
            timings.fusion_graph_ns += fg_ns;
            stats.fusion_graph_nodes += fg.node_count();

            let t_map = Instant::now();
            let map = mapping::map_graph_on(fg.graph(), &table, &opt.mapping);
            let map_ns = t_map.elapsed().as_nanos();
            timings.mapping_ns += map_ns;
            stats.direct_fusions += map.direct_fusions;
            stats.routed_fusions += map.routed_fusions;
            stats.shuffle_fusions += map.shuffle_fusions;
            fusions += map.total_fusions();
            profile.partitions.push(PartitionProfile {
                fusion_graph_ns: fg_ns,
                mapping_ns: map_ns,
                nodes: fg.node_count(),
                map: map.profile,
            });

            // Record representative placements for cross-partition edges.
            for (local, &global) in part.global_nodes.iter().enumerate() {
                let rep = fg.representative(local);
                if let Some(&(layer_idx, pos)) = map.placement.get(&rep) {
                    global_place[global.index()] = Some((global_layer_base + layer_idx, pos));
                }
            }

            let partition_layers = map.layouts.len() * opt.extension_factor + map.shuffle_layers;
            depth += partition_layers;
            global_layer_base += map.layouts.len();
            layouts.extend(map.layouts);
        }

        // Cross-partition edges: inter-layer shuffling between the
        // partitions' layouts (paper §4/§6).
        if !parts.cross_edges.is_empty() {
            let t_shuffle = Instant::now();
            let pairs: Vec<(Position, Position)> = parts
                .cross_edges
                .iter()
                .filter_map(
                    |&(u, v)| match (global_place[u.index()], global_place[v.index()]) {
                        (Some((_, pu)), Some((_, pv))) => Some((pu, pv)),
                        _ => None,
                    },
                )
                .collect();
            let (extra_layers, extra_fusions) =
                mapping::plan_position_shuffles(&pairs, ext_geometry);
            depth += extra_layers;
            fusions += extra_fusions;
            stats.shuffle_fusions += extra_fusions;
            timings.shuffle_ns = t_shuffle.elapsed().as_nanos();
        }

        CompiledProgram {
            depth: depth.max(1),
            fusions,
            stats,
            layouts,
            timings,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneq_circuit::benchmarks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_compiler() -> Compiler {
        Compiler::new(CompilerOptions::new(LayerGeometry::new(8, 8)))
    }

    #[test]
    fn bv_compiles_to_shallow_depth() {
        let program = small_compiler().compile(&benchmarks::bv(&[true, false, true, true]));
        // BV is Clifford and planar: everything lands in very few layers.
        assert!(program.depth <= 3, "depth {}", program.depth);
        assert!(program.fusions > 0);
        assert_eq!(program.stats.dependency_layers, 1);
    }

    #[test]
    fn qft_compiles_with_all_nodes_synthesized() {
        let program = small_compiler().compile(&benchmarks::qft(4));
        assert!(program.stats.fusion_graph_nodes >= program.stats.graph_state_nodes);
        assert!(program.fusions >= program.stats.graph_state_edges);
        assert!(program.depth >= 1);
    }

    #[test]
    fn fusion_totals_are_consistent() {
        let program = small_compiler().compile(&benchmarks::qft(4));
        assert_eq!(
            program.fusions,
            program.stats.direct_fusions
                + program.stats.routed_fusions
                + program.stats.shuffle_fusions
        );
    }

    #[test]
    fn larger_area_never_hurts_depth() {
        let c = benchmarks::qft(5);
        let small = Compiler::new(CompilerOptions::new(LayerGeometry::new(6, 6))).compile(&c);
        let large = Compiler::new(CompilerOptions::new(LayerGeometry::new(16, 16))).compile(&c);
        assert!(
            large.depth <= small.depth,
            "larger area should not increase depth ({} vs {})",
            large.depth,
            small.depth
        );
    }

    #[test]
    fn resource_kinds_all_compile() {
        let c = benchmarks::qft(4);
        for kind in [
            ResourceKind::LINE3,
            ResourceKind::LINE4,
            ResourceKind::STAR4,
            ResourceKind::RING4,
        ] {
            let program = Compiler::new(
                CompilerOptions::new(LayerGeometry::new(8, 8)).with_resource_kind(kind),
            )
            .compile(&c);
            assert!(program.fusions > 0, "{kind} failed");
        }
    }

    #[test]
    #[should_panic(expected = "extended layers need an orthogonal base layer, not Triangular")]
    fn extended_triangular_layers_are_refused() {
        let geometry = LayerGeometry::new(8, 8).with_topology(Topology::Triangular);
        Compiler::new(CompilerOptions::new(geometry).with_extension(2));
    }

    #[test]
    #[should_panic(expected = "extended layers need an orthogonal base layer, not Hexagonal")]
    fn extended_hexagonal_layers_are_refused() {
        let geometry = LayerGeometry::new(8, 8).with_topology(Topology::Hexagonal);
        Compiler::new(CompilerOptions::new(geometry).with_extension(2));
    }

    #[test]
    fn extension_factor_scales_depth_units() {
        let c = benchmarks::qft(4);
        let base = CompilerOptions::new(LayerGeometry::new(6, 6));
        let p1 = Compiler::new(base).compile(&c);
        let p3 = Compiler::new(base.with_extension(3)).compile(&c);
        // Depth is measured in physical layers in both cases.
        assert!(p1.depth >= 1 && p3.depth >= 1);
    }

    #[test]
    fn qaoa_random_compiles_with_planarization() {
        let mut rng = StdRng::seed_from_u64(7);
        let c = benchmarks::qaoa_maxcut_random(6, &mut rng);
        let program = small_compiler().compile(&c);
        assert!(program.fusions > 0);
        assert!(program.depth >= 1);
    }

    #[test]
    fn non_orthogonal_topologies_compile() {
        let c = benchmarks::qft(4);
        let ortho = small_compiler().compile(&c);
        for topo in [Topology::Triangular, Topology::Hexagonal] {
            let geometry = LayerGeometry::new(8, 8).with_topology(topo);
            let program = Compiler::new(CompilerOptions::new(geometry)).compile(&c);
            assert!(program.fusions > 0, "{topo:?}");
            assert!(program.depth >= 1, "{topo:?}");
            if topo == Topology::Triangular {
                // Richer coupling never maps worse than the square grid.
                assert!(program.depth <= ortho.depth + 2, "{topo:?}");
            }
        }
    }

    #[test]
    fn display_mentions_depth() {
        let program = small_compiler().compile(&benchmarks::bv(&[true, true]));
        assert!(format!("{program}").contains("depth"));
    }
}
