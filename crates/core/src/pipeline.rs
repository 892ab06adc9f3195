//! End-to-end compilation pipeline (paper Fig. 1).

use crate::fusion_graph;
use crate::mapping::{self, LayerLayout, MappingOptions};
use crate::partition::{self, PartitionOptions};
use oneq_circuit::Circuit;
use oneq_graph::NodeId;
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

    /// The partitioner's options under this configuration.
    ///
    /// Partitions are bounded by the delay-line reach (dependency layers)
    /// and planarity, not by area: the mapper allocates as many physical
    /// layers per partition as the fusion graph needs (paper §4, dynamic
    /// scheduling). A loose capacity cap, the extended area ×
    /// `fill_percent` × 8 / 100 floored at 64, keeps a single partition
    /// from ballooning past what `fill_percent` says several layers can
    /// absorb.
    pub fn partition_options(&self) -> PartitionOptions {
        let capacity = self
            .extended_geometry()
            .area()
            .saturating_mul(self.fill_percent)
            .saturating_mul(8)
            / 100;
        PartitionOptions {
            max_dependency_layers: self.max_dependency_layers,
            capacity_hint: Some(capacity.max(64)),
            enforce_planarity: self.enforce_planarity,
            resource_kind: self.resource_kind,
        }
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

/// A timed stage of the pipeline. This is the one list of the stages,
/// their names and their order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Circuit → measurement-pattern translation.
    Translate,
    /// Dependency-layer grouping & scheduling (paper §4).
    Partition,
    /// Fusion-graph generation across all partitions (paper §5).
    FusionGraph,
    /// In-layer mapping & routing across all partitions (paper §6),
    /// including the neighbour table they share and the bookkeeping of
    /// each partition's placements.
    Mapping,
    /// Cross-partition shuffle planning.
    Shuffle,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Translate,
        Stage::Partition,
        Stage::FusionGraph,
        Stage::Mapping,
        Stage::Shuffle,
    ];

    /// The stage's stable identifier: its `oneqc --timings` key and its
    /// `stage` label in the service's latency histograms.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Translate => "translate",
            Stage::Partition => "partition",
            Stage::FusionGraph => "fusion_graph",
            Stage::Mapping => "mapping",
            Stage::Shuffle => "shuffle",
        }
    }
}

/// Per-partition compiler-internals profile: where one partition's fusion
/// graph and mapping spent their time and effort.
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

/// What one compilation measured about itself: the wall-clock time of
/// each [`Stage`] and one [`PartitionProfile`] per partition, in
/// schedule order.
///
/// Profiles are measurement artifacts, deliberately kept *outside*
/// [`StageStats`] and the record bytes: two compiles of the same circuit
/// must produce identical `StageStats` (the determinism guarantee) while
/// their clocks differ. Every counter (nodes, BFS expansions, radii,
/// occupancy) is deterministic.
///
/// The stage clocks are laps of one clock: each stage's time runs from
/// the end of the one before, so no work between two stages goes
/// unaccounted.
#[derive(Debug, Clone, Default)]
pub struct CompileProfile {
    stage_ns: [u128; Stage::ALL.len()],
    /// Per-partition profiles in the order partitions were compiled.
    pub partitions: Vec<PartitionProfile>,
}

impl CompileProfile {
    /// Every stage with its wall-clock nanoseconds, in pipeline order.
    pub fn stages(&self) -> impl Iterator<Item = (Stage, u128)> {
        Stage::ALL.into_iter().zip(self.stage_ns)
    }

    /// The mapper counters folded across partitions (see
    /// [`MapProfile::fold`](mapping::MapProfile::fold)).
    pub fn totals(&self) -> mapping::MapProfile {
        let mut total = mapping::MapProfile::default();
        for p in &self.partitions {
            total.fold(&p.map);
        }
        total
    }

    /// The compile's counters as `(name, fold, value)`: `partitions`, then
    /// the [`totals`](Self::totals) in [`MapProfile::counters`] order.
    ///
    /// [`MapProfile::counters`]: mapping::MapProfile::counters
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, mapping::Fold, u64)> {
        let partitions = (
            "partitions",
            mapping::Fold::Sum,
            self.partitions.len() as u64,
        );
        std::iter::once(partitions).chain(self.totals().counters())
    }

    /// Charges the time since `clock` to `stage`, restarts `clock`, and
    /// returns the charge.
    fn lap(&mut self, stage: Stage, clock: &mut Instant) -> u128 {
        let now = Instant::now();
        let ns = now.duration_since(*clock).as_nanos();
        self.stage_ns[stage as usize] += ns;
        *clock = now;
        ns
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
    /// Stage clocks and per-partition counters of this compilation.
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
        let mut clock = Instant::now();
        let mut profile = CompileProfile::default();
        let pattern = translate::from_circuit(circuit);
        profile.lap(Stage::Translate, &mut clock);
        self.compile_timed(&pattern, profile, clock)
    }

    /// Compiles an already-translated measurement pattern.
    pub fn compile_pattern(&self, pattern: &Pattern) -> CompiledProgram {
        self.compile_timed(pattern, CompileProfile::default(), Instant::now())
    }

    /// The stages after translation, each charged to `profile` as a lap
    /// of `clock`.
    fn compile_timed(
        &self,
        pattern: &Pattern,
        mut profile: CompileProfile,
        mut clock: Instant,
    ) -> CompiledProgram {
        let opt = &self.options;
        let ext_geometry = opt.extended_geometry();

        // Stage 1: partition & schedule.
        let parts = partition::partition(pattern, &opt.partition_options());
        profile.lap(Stage::Partition, &mut clock);

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

        // Every partition maps onto the same geometry: one neighbour table
        // serves them all.
        let table = mapping::NeighborTable::new(ext_geometry);
        profile.lap(Stage::Mapping, &mut clock);

        // Stages 2 & 3 per partition; each partition is dropped once it
        // is mapped.
        for part in parts.partitions {
            let fg = fusion_graph::generate_embedded(
                &part.subgraph,
                part.embedding.as_ref(),
                &part.full_degree,
                opt.resource_kind,
            );
            let fg_ns = profile.lap(Stage::FusionGraph, &mut clock);
            stats.fusion_graph_nodes += fg.node_count();

            let map = mapping::map_graph_on(fg.graph(), &table, &opt.mapping);
            stats.direct_fusions += map.direct_fusions;
            stats.routed_fusions += map.routed_fusions;
            stats.shuffle_fusions += map.shuffle_fusions;
            fusions += map.total_fusions();

            // Record representative placements for cross-partition edges.
            for (local, &global) in part.global_nodes.iter().enumerate() {
                let &(layer_idx, pos) = map
                    .placement
                    .get(&fg.representative(local))
                    .expect("map_graph places every fusion node");
                global_place[global.index()] = Some((global_layer_base + layer_idx, pos));
            }

            let partition_layers = map.layouts.len() * opt.extension_factor + map.shuffle_layers;
            depth += partition_layers;
            global_layer_base += map.layouts.len();
            layouts.extend(map.layouts);
            let map_ns = profile.lap(Stage::Mapping, &mut clock);
            profile.partitions.push(PartitionProfile {
                fusion_graph_ns: fg_ns,
                mapping_ns: map_ns,
                nodes: fg.node_count(),
                map: map.profile,
            });
        }

        // Cross-partition edges: inter-layer shuffling between the
        // partitions' layouts (paper §4/§6).
        if !parts.cross_edges.is_empty() {
            let place = |n: NodeId| {
                global_place[n.index()]
                    .expect("partitions cover every pattern node")
                    .1
            };
            let pairs: Vec<(Position, Position)> = parts
                .cross_edges
                .iter()
                .map(|&(u, v)| (place(u), place(v)))
                .collect();
            let (extra_layers, extra_fusions) =
                mapping::plan_position_shuffles(&pairs, ext_geometry);
            depth += extra_layers;
            fusions += extra_fusions;
            stats.shuffle_fusions += extra_fusions;
        }
        profile.lap(Stage::Shuffle, &mut clock);

        CompiledProgram {
            depth: depth.max(1),
            fusions,
            stats,
            layouts,
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
