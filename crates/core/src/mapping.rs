//! Fusion mapping & routing (paper §6).
//!
//! Embeds the irregular fusion graph into the regular RSG grid. The
//! in-layer mapper traverses edges in a *cycle-prioritized breadth-first
//! order* (cycle edges before tree edges), places nodes greedily, and
//! evaluates candidates with the paper's heuristic cost
//!
//! ```text
//! H = occupied_area + #partially_blocked_nodes + α · #totally_blocked_nodes
//! ```
//!
//! Edges between non-adjacent positions are *routed*: a path of auxiliary
//! resource states performs consecutive fusions (path length ≥ 2 cells in
//! real hardware; paper Fig. 6d/11). When a layer fills up, remaining work
//! moves to a freshly allocated layer and the nodes left with unmapped
//! edges become *incomplete nodes*, later connected by **inter-layer
//! shuffling** on dedicated layers between the 2-D layouts (paper
//! Fig. 10).
//!
//! # Memory
//!
//! While a graph maps, each of its layers is its sparse [`LayerLayout`]
//! (placements, routing cells and bounding box, grown as cells fill) plus
//! one `u32` a cell, row-major: the index of the node on the cell, or a
//! free or a routing marker. The placement and routing probes read that
//! array in O(1). A finished layer is never mapped again, so
//! [`map_graph`] returns the records and drops the arrays: what outlives
//! a partition grows with what was placed, not with the layer's area.
//!
//! # Determinism
//!
//! The entire placement path runs on dense, row-major cell arrays and on
//! vectors indexed by node id or by flat cell index: no hashed container
//! anywhere, so compiling the same circuit twice always yields
//! bit-identical layouts, depth, and fusion counts. Tie-breaks are fixed
//! and documented: edges are ordered by sorted keys, candidate cells are
//! scored in coupling-neighbourhood order, BFS frontiers expand in that
//! same order, and nearest-free-cell searches scan Manhattan rings in
//! row-major order (see the private `Mapper::pick_seed_cell`). The
//! coupling-neighbourhood order is the order of a row of the mapper's
//! neighbour table, which a compile builds once from
//! [`LayerGeometry::neighbors`] (a [`map_graph`] call on its own builds
//! its own); a test holds every row to that order.

use oneq_graph::{biconnected, Edge, Graph, NodeId};
use oneq_hardware::{LayerGeometry, Position, MAX_NEIGHBORS};
use std::cmp::Reverse;
use std::collections::VecDeque;

/// What occupies a grid cell in a layer layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellUse {
    /// A fusion-graph node (a resource state carrying graph-state qubits).
    Node(NodeId),
    /// An auxiliary resource state forwarding a routed fusion path.
    Routing(Edge),
}

/// Weight of totally blocked nodes in the cost function (`α`; the paper
/// suggests the maximum degree of the physical layer).
const ALPHA: f64 = 64.0;
/// Maximum routed-path length explored by the in-layer router.
const MAX_ROUTE_LEN: usize = 14;
/// Number of placement candidates scored per node.
const CANDIDATE_LIMIT: usize = 24;

/// Mapper switches the ablation study flips.
#[derive(Debug, Clone, Copy)]
pub struct MappingOptions {
    /// Traverse cycle edges before tree edges (paper §6); disable for the
    /// plain-BFS ablation.
    pub cycle_priority: bool,
    /// Allow in-layer routing through auxiliary resource states; disable
    /// for the routing ablation (everything non-adjacent then shuffles).
    pub allow_routing: bool,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            cycle_priority: true,
            allow_routing: true,
        }
    }
}

/// The record of one finished (possibly extended) physical layer: which
/// node or routing state occupies which cell. It holds only the occupied
/// cells, so it costs memory in proportion to what was placed, not to
/// the layer's area.
#[derive(Debug, Clone)]
pub struct LayerLayout {
    geometry: LayerGeometry,
    /// Placements in placement order.
    placed: Vec<(NodeId, Position)>,
    /// Auxiliary routing cells in fill order, with the edge each forwards.
    routing: Vec<(Position, Edge)>,
    /// `(rmin, rmax, cmin, cmax)` of every occupied cell; `None` when the
    /// layer is empty.
    bbox: Option<(usize, usize, usize, usize)>,
}

impl LayerLayout {
    /// Grid geometry of this layout.
    pub fn geometry(&self) -> LayerGeometry {
        self.geometry
    }

    /// Occupant of `p` (`None` when free or outside the layer). Scans the
    /// occupied cells.
    pub fn cell(&self, p: Position) -> Option<CellUse> {
        self.cells().find(|&(q, _)| q == p).map(|(_, c)| c)
    }

    /// Every occupied cell with its occupant: the placed nodes in
    /// placement order, then the routing cells in fill order.
    pub fn cells(&self) -> impl Iterator<Item = (Position, CellUse)> + '_ {
        let nodes = self.placed.iter().map(|&(n, p)| (p, CellUse::Node(n)));
        nodes.chain(self.routing.iter().map(|&(p, e)| (p, CellUse::Routing(e))))
    }

    /// Placements in placement order.
    pub fn placed_nodes(&self) -> &[(NodeId, Position)] {
        &self.placed
    }

    /// Number of fusion-graph nodes placed on this layer.
    pub fn placed_count(&self) -> usize {
        self.placed.len()
    }

    /// Number of auxiliary routing cells consumed.
    pub fn routing_cells(&self) -> usize {
        self.routing.len()
    }

    /// Number of occupied cells: placed nodes plus routing cells.
    pub fn occupied_cells(&self) -> usize {
        self.placed.len() + self.routing.len()
    }

    /// Bounding-box area of everything mapped on this layer (the cost
    /// function's `occupied_area`; 0 when the layer is empty).
    pub fn occupied_area(&self) -> usize {
        self.bbox.map_or(0, |(rmin, rmax, cmin, cmax)| {
            (rmax - rmin + 1) * (cmax - cmin + 1)
        })
    }
}

/// The mark of a working layer's free cell.
const FREE: u32 = u32::MAX;
/// The mark of a working layer's routing cell; the edge it forwards is in
/// the layer's record.
const ROUTING: u32 = u32::MAX - 1;

/// A layer of the graph being mapped: its record, grown as cells fill,
/// plus one `u32` a cell (row-major) that the placement and routing
/// probes read: the index of the node on the cell, [`FREE`] or
/// [`ROUTING`]. The mapper keeps every layer of the graph as one of these
/// until the graph is mapped, since in-layer routing may still run on an
/// older layer.
struct WorkingLayer {
    layout: LayerLayout,
    cells: Vec<u32>,
}

impl WorkingLayer {
    fn new(geometry: LayerGeometry) -> Self {
        WorkingLayer {
            layout: LayerLayout {
                geometry,
                placed: Vec::new(),
                routing: Vec::new(),
                bbox: None,
            },
            cells: vec![FREE; geometry.area()],
        }
    }

    /// Whether `p` lies on the layer and is free.
    fn is_free(&self, p: Position) -> bool {
        let geometry = self.layout.geometry;
        geometry.contains(p) && self.cells[geometry.index_of(p)] == FREE
    }

    /// The node on cell `i`, if a node occupies it.
    fn node_at(&self, i: usize) -> Option<NodeId> {
        let c = self.cells[i];
        (c < ROUTING).then(|| NodeId::new(c as usize))
    }

    fn place(&mut self, n: NodeId, p: Position) {
        assert!(
            n.index() < ROUTING as usize,
            "node {} has no room below the cell marks",
            n.index()
        );
        self.occupy(p, n.index() as u32);
        self.layout.placed.push((n, p));
    }

    fn add_routing(&mut self, p: Position, edge: Edge) {
        self.occupy(p, ROUTING);
        self.layout.routing.push((p, edge));
    }

    /// Marks the free cell `p` with `mark` and grows the bounding box.
    fn occupy(&mut self, p: Position, mark: u32) {
        let cell = &mut self.cells[self.layout.geometry.index_of(p)];
        debug_assert_eq!(*cell, FREE, "cell {p} already used");
        *cell = mark;
        let bbox = &mut self.layout.bbox;
        *bbox = Some(match *bbox {
            None => (p.row, p.row, p.col, p.col),
            Some((rmin, rmax, cmin, cmax)) => (
                rmin.min(p.row),
                rmax.max(p.row),
                cmin.min(p.col),
                cmax.max(p.col),
            ),
        });
    }

    /// The layer's record; the cell array is dropped.
    fn finish(self) -> LayerLayout {
        self.layout
    }
}

/// The coupled neighbours of every cell of one geometry, as row-major cell
/// indices: row `i` lists cell `i`'s neighbours in
/// [`LayerGeometry::neighbors`] order, which is the order candidate
/// scoring and BFS expansion break ties by. It depends on the geometry
/// alone, so a compile builds one table and every partition's mapping
/// reads it (25 bytes per cell); [`map_graph`] builds its own.
pub(crate) struct NeighborTable {
    geometry: LayerGeometry,
    cols: usize,
    /// Each cell's neighbours; the first `len[i]` entries of row `i` hold
    /// them.
    rows: Vec<[u32; MAX_NEIGHBORS]>,
    /// Each cell's neighbour count, which is also its free-neighbour count
    /// on an empty layer.
    len: Vec<u8>,
}

impl NeighborTable {
    pub(crate) fn new(geometry: LayerGeometry) -> Self {
        let area = geometry.area();
        assert!(
            u32::try_from(area).is_ok(),
            "{geometry} has more cells than u32 indices address"
        );
        let mut rows = Vec::with_capacity(area);
        let mut len = Vec::with_capacity(area);
        for p in geometry.positions() {
            let (nbuf, nn) = geometry.neighbors_array(p);
            let mut row = [0u32; MAX_NEIGHBORS];
            for (slot, &q) in row.iter_mut().zip(&nbuf[..nn]) {
                *slot = geometry.index_of(q) as u32;
            }
            rows.push(row);
            len.push(nn as u8);
        }
        NeighborTable {
            geometry,
            cols: geometry.cols(),
            rows,
            len,
        }
    }

    /// Cell `i`'s coupled neighbours, in neighbourhood order.
    fn row(&self, i: usize) -> &[u32] {
        &self.rows[i][..usize::from(self.len[i])]
    }

    /// Whether cells `a` and `b` are coupled.
    fn coupled(&self, a: usize, b: usize) -> bool {
        self.row(a).contains(&(b as u32))
    }

    /// Row-major index of `p`, which must lie on the table's geometry.
    fn index(&self, p: Position) -> usize {
        p.row * self.cols + p.col
    }

    /// Position of the row-major cell index `i`.
    fn position(&self, i: usize) -> Position {
        Position::new(i / self.cols, i % self.cols)
    }
}

/// An edge mapped across layers, resolved by shuffling.
#[derive(Debug, Clone, Copy)]
pub struct ShuffleEdge {
    /// The fusion-graph edge (or cross-partition edge id pair).
    pub edge: Edge,
    /// Source layer index and position.
    pub from: (usize, Position),
    /// Target layer index and position.
    pub to: (usize, Position),
}

/// Profiling counters from one [`map_graph`] run: where the mapper spent
/// its effort, how congested the grid got, and whether scratch buffers were
/// reused or reallocated. Pure observation — collecting these never changes
/// a placement or routing decision, so mapping stays bit-identical with
/// profiling on (the determinism suite pins this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapProfile {
    /// BFS searches started by the in-layer router.
    pub bfs_searches: u64,
    /// Cells expanded (newly visited) across all BFS searches.
    pub bfs_expansions: u64,
    /// Router scratch re-arms that had to grow the buffers.
    pub scratch_grows: u64,
    /// Router scratch re-arms that reused the buffers allocation-free.
    pub scratch_reuses: u64,
    /// Manhattan ring scans for seed/forced placements.
    pub seed_scans: u64,
    /// Largest ring radius a seed scan had to reach before finding a free
    /// cell — a congestion signal: 0 means the target itself was free.
    pub seed_scan_radius_max: u64,
    /// High-water mark of occupied cells on any single layer.
    pub occupancy_peak: u64,
    /// Total cells consumed by routed fusion paths across all layers.
    pub routing_cells: u64,
}

/// How a profile counter combines across partitions and compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// A work count: the parts add up.
    Sum,
    /// A high-water mark: the largest part wins.
    Max,
}

impl MapProfile {
    /// Every counter as `(name, fold, value)`, in the order the service's
    /// `compile.mapping.partition` span attributes list them.
    pub fn counters(&self) -> [(&'static str, Fold, u64); 8] {
        let mut copy = *self;
        copy.slots().map(|(name, fold, value)| (name, fold, *value))
    }

    /// Folds another run's counters into these, each by its [`Fold`].
    pub fn fold(&mut self, other: &MapProfile) {
        for ((_, fold, mine), (_, _, theirs)) in self.slots().into_iter().zip(other.counters()) {
            *mine = match fold {
                Fold::Sum => *mine + theirs,
                Fold::Max => (*mine).max(theirs),
            };
        }
    }

    /// The one list of counters: name, fold and field.
    fn slots(&mut self) -> [(&'static str, Fold, &mut u64); 8] {
        [
            ("bfs_searches", Fold::Sum, &mut self.bfs_searches),
            ("bfs_expansions", Fold::Sum, &mut self.bfs_expansions),
            ("seed_scans", Fold::Sum, &mut self.seed_scans),
            (
                "seed_scan_radius_max",
                Fold::Max,
                &mut self.seed_scan_radius_max,
            ),
            ("occupancy_peak", Fold::Max, &mut self.occupancy_peak),
            ("scratch_grows", Fold::Sum, &mut self.scratch_grows),
            ("scratch_reuses", Fold::Sum, &mut self.scratch_reuses),
            ("routing_cells", Fold::Sum, &mut self.routing_cells),
        ]
    }
}

/// Where each fusion node landed: `(layout index, position)`, indexed by
/// node id. Every node of the mapped graph is placed by the end of
/// [`map_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement(Vec<Option<(usize, Position)>>);

impl Placement {
    /// The layout index and position of `n`, or `None` when `n` is not a
    /// placed node of the mapped graph.
    pub fn get(&self, n: &NodeId) -> Option<&(usize, Position)> {
        self.0.get(n.index())?.as_ref()
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.0.iter().flatten().count()
    }

    /// Returns `true` if no node is placed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The placed nodes' `(layout index, position)`, in node-id order.
    pub fn values(&self) -> impl Iterator<Item = &(usize, Position)> + '_ {
        self.0.iter().flatten()
    }
}

/// The result of mapping one fusion graph.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// In-layer layouts in allocation order.
    pub layouts: Vec<LayerLayout>,
    /// Edges realized by inter-layer shuffling.
    pub shuffled: Vec<ShuffleEdge>,
    /// Extra physical layers consumed by shuffling.
    pub shuffle_layers: usize,
    /// Fusions from directly mapped edges (1 each).
    pub direct_fusions: usize,
    /// Fusions from in-layer routed paths (path cells + 1 each).
    pub routed_fusions: usize,
    /// Fusions from shuffling (path cells + 1 each, includes the two
    /// temporal hops).
    pub shuffle_fusions: usize,
    /// Node placements: fusion node -> (layout index, position).
    pub placement: Placement,
    /// Every input edge the mapper realized, in realization order: first
    /// the directly mapped / in-layer routed edges, then the shuffled
    /// ones. Contains each input edge exactly once.
    pub realized_edges: Vec<Edge>,
    /// Effort and congestion counters from this run.
    pub profile: MapProfile,
}

impl MappingResult {
    /// Total fusions performed by this mapping.
    pub fn total_fusions(&self) -> usize {
        self.direct_fusions + self.routed_fusions + self.shuffle_fusions
    }

    /// Physical layers consumed (each layout is one layer here; extended
    /// layers are accounted by the pipeline) plus shuffle layers.
    pub fn depth(&self) -> usize {
        self.layouts.len() + self.shuffle_layers
    }
}

/// Maps `fusion_graph` onto layers of `geometry`.
///
/// # Example
///
/// ```
/// use oneq::mapping::{map_graph, MappingOptions};
/// use oneq_graph::generators;
/// use oneq_hardware::LayerGeometry;
///
/// let g = generators::cycle(6);
/// let result = map_graph(&g, LayerGeometry::new(8, 8), &MappingOptions::default());
/// assert_eq!(result.layouts.len(), 1);
/// assert_eq!(result.total_fusions() >= 6, true);
/// ```
pub fn map_graph(
    fusion_graph: &Graph,
    geometry: LayerGeometry,
    options: &MappingOptions,
) -> MappingResult {
    map_graph_on(fusion_graph, &NeighborTable::new(geometry), options)
}

/// [`map_graph`] onto the geometry of `table`, a table the caller built
/// once for every graph it maps onto that geometry.
pub(crate) fn map_graph_on(
    fusion_graph: &Graph,
    table: &NeighborTable,
    options: &MappingOptions,
) -> MappingResult {
    Mapper::new(fusion_graph, table, *options).run()
}

struct Mapper<'g> {
    graph: &'g Graph,
    geometry: LayerGeometry,
    options: MappingOptions,
    /// Remaining unmapped edge count per node (the `r` of the blocking
    /// definition).
    remaining: Vec<usize>,
    /// Realized edges in realization order. Each edge is tried until it
    /// is realized and never after, so its length is the progress count.
    realized: Vec<Edge>,
    /// The graph's layers so far; the last one is the current layer.
    layers: Vec<WorkingLayer>,
    /// Node -> (layout index, position), indexed by `NodeId::index`.
    node_place: Vec<Option<(usize, Position)>>,
    direct_fusions: usize,
    routed_fusions: usize,
    /// Reusable BFS buffers for the in-layer router.
    scratch: BfsScratch,
    /// Reusable buffer of the cells of the last path the router found.
    path: Vec<usize>,
    /// Where the current layer's seed search around the grid centre
    /// resumes.
    seed_cursor: RingCursor,
    seed_scans: u64,
    seed_scan_radius_max: u64,
    /// Blocking class of each node placed on the current layer, under the
    /// layer's committed occupancy (stale for nodes on older layers).
    blocking: Vec<Blocking>,
    /// How many of the current layer's nodes are in each class, indexed
    /// by `Blocking as usize`.
    blocked: [usize; 3],
    /// Reusable buffer of the placed nodes a candidate's tentative cells
    /// touch, with their cells: a node appears once per tentative cell
    /// coupled to it.
    touched: Vec<(NodeId, u32)>,
    /// The coupled neighbours of every cell.
    table: &'g NeighborTable,
    /// Free coupled neighbours of each cell of the current layer, indexed
    /// by cell: a cell's row length on a fresh layer, decremented each
    /// time one of its neighbours fills.
    free: Vec<u8>,
}

/// A placed node's blocking class (paper §6): with `r` unmapped edges and
/// `f` free coupled neighbours, it is totally blocked when `r > 0` and
/// `f == 0`, partially blocked when `r > f > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocking {
    Unblocked,
    Partially,
    Totally,
}

impl Blocking {
    fn classify(remaining: usize, free: usize) -> Blocking {
        if remaining == 0 {
            Blocking::Unblocked
        } else if free == 0 {
            Blocking::Totally
        } else if remaining > free {
            Blocking::Partially
        } else {
            Blocking::Unblocked
        }
    }
}

impl<'g> Mapper<'g> {
    fn new(graph: &'g Graph, table: &'g NeighborTable, options: MappingOptions) -> Self {
        let remaining = graph.nodes().map(|n| graph.degree(n)).collect();
        let n = graph.node_count();
        let geometry = table.geometry;
        let free = table.len.clone();
        Mapper {
            graph,
            geometry,
            options,
            remaining,
            realized: Vec::with_capacity(graph.edge_count()),
            layers: vec![WorkingLayer::new(geometry)],
            node_place: vec![None; n],
            direct_fusions: 0,
            routed_fusions: 0,
            scratch: BfsScratch::default(),
            path: Vec::new(),
            seed_cursor: RingCursor::new(center_of(geometry)),
            seed_scans: 0,
            seed_scan_radius_max: 0,
            blocking: vec![Blocking::Unblocked; n],
            blocked: [0; 3],
            touched: Vec::new(),
            table,
            free,
        }
    }

    fn run(mut self) -> MappingResult {
        let shuffled = self.map_edges();
        self.finish(shuffled)
    }

    /// Realizes every edge of the graph: on a layer where possible, the
    /// rest as the returned shuffle edges, with both endpoints placed.
    fn map_edges(&mut self) -> Vec<ShuffleEdge> {
        let order = if self.options.cycle_priority {
            edge_order(self.graph)
        } else {
            plain_bfs_edge_order(self.graph)
        };
        let mut deferred: Vec<Edge> = Vec::new();

        for edge in order {
            if !self.try_map_edge(edge) {
                deferred.push(edge);
            }
        }

        // Re-try deferred edges on fresh layers until no progress is
        // possible; whatever remains becomes shuffle work.
        let mut pending = deferred;
        while !pending.is_empty() {
            self.push_layer();
            let mut next = Vec::new();
            let before = self.realized.len();
            for edge in pending {
                if !self.try_map_edge(edge) {
                    next.push(edge);
                }
            }
            if self.realized.len() == before {
                // No in-layer progress: everything left shuffles.
                pending = next;
                break;
            }
            pending = next;
        }

        // Nodes without any in-partition edge (their edges are all
        // cross-partition) were never touched by the edge loop: place them
        // now — near a placed neighbor when one exists — so cross-edge
        // shuffling has coordinates for them.
        let unplaced: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|n| self.node_place[n.index()].is_none())
            .collect();
        for n in unplaced {
            if self.node_place[n.index()].is_some() {
                continue; // placed as a neighbor hint target meanwhile
            }
            let hint = self
                .graph
                .neighbors(n)
                .iter()
                .find_map(|nb| self.node_place[nb.index()].map(|(_, p)| p));
            self.force_place(n, hint);
        }

        // Shuffle resolution for the remaining edges: both endpoints must
        // be placed somewhere first; stragglers land near their partner's
        // grid position so the shuffle path stays short.
        let mut shuffled = Vec::new();
        for edge in pending {
            let hint = self.node_place[edge.a().index()]
                .or(self.node_place[edge.b().index()])
                .map(|(_, p)| p);
            for n in [edge.a(), edge.b()] {
                if self.node_place[n.index()].is_none() {
                    self.force_place(n, hint);
                }
            }
            let (la, pa) = self.node_place[edge.a().index()].expect("endpoint placed");
            let (lb, pb) = self.node_place[edge.b().index()].expect("endpoint placed");
            shuffled.push(ShuffleEdge {
                edge,
                from: (la, pa),
                to: (lb, pb),
            });
            self.realized.push(edge);
        }
        shuffled
    }

    /// Plans the shuffles and turns every layer into its record, dropping
    /// the cell arrays.
    fn finish(self, shuffled: Vec<ShuffleEdge>) -> MappingResult {
        // The records first, so the cell arrays are gone before the
        // shuffle planner sizes its own words by the area.
        let layouts: Vec<LayerLayout> = self.layers.into_iter().map(WorkingLayer::finish).collect();
        // The mapper only ever adds cells, so the end-of-run occupancy of
        // each layer IS its high-water mark.
        let profile = MapProfile {
            bfs_searches: self.scratch.searches,
            bfs_expansions: self.scratch.visits,
            scratch_grows: self.scratch.grows,
            scratch_reuses: self.scratch.reuses,
            seed_scans: self.seed_scans,
            seed_scan_radius_max: self.seed_scan_radius_max,
            occupancy_peak: layouts
                .iter()
                .map(|l| l.occupied_cells() as u64)
                .max()
                .unwrap_or(0),
            routing_cells: layouts.iter().map(|l| l.routing_cells() as u64).sum(),
        };

        let pairs: Vec<(Position, Position)> =
            shuffled.iter().map(|s| (s.from.1, s.to.1)).collect();
        let (shuffle_layers, shuffle_fusions) = plan_position_shuffles(&pairs, self.geometry);
        MappingResult {
            layouts,
            shuffled,
            shuffle_layers,
            direct_fusions: self.direct_fusions,
            routed_fusions: self.routed_fusions,
            shuffle_fusions,
            placement: Placement(self.node_place),
            realized_edges: self.realized,
            profile,
        }
    }

    /// Current layer index (always the last one).
    fn cur(&self) -> usize {
        self.layers.len() - 1
    }

    fn push_layer(&mut self) {
        self.layers.push(WorkingLayer::new(self.geometry));
        self.blocked = [0; 3];
        self.free.copy_from_slice(&self.table.len);
        self.seed_cursor = RingCursor::new(center_of(self.geometry));
    }

    fn try_map_edge(&mut self, edge: Edge) -> bool {
        let (u, v) = (edge.a(), edge.b());
        let pu = self.node_place[u.index()];
        let pv = self.node_place[v.index()];
        let cur = self.cur();

        let ok = match (pu, pv) {
            (None, None) => {
                if let Some(seed) = self.pick_seed_cell() {
                    self.place_node(u, seed);
                    self.attach_new_node(v, u, edge)
                } else {
                    false
                }
            }
            (Some((lu, _)), None) => {
                if lu == cur {
                    self.attach_new_node(v, u, edge)
                } else {
                    // u lives on an older layer: place v on the current
                    // layer; the edge itself shuffles.
                    false
                }
            }
            (None, Some((lv, _))) => {
                if lv == cur {
                    self.attach_new_node(u, v, edge)
                } else {
                    false
                }
            }
            (Some((lu, qu)), Some((lv, qv))) => {
                if lu == lv {
                    // Both on one layer, the current or a finished one:
                    // fuse or route there if possible.
                    self.connect_on_layer(lu, qu, qv, edge)
                } else {
                    false
                }
            }
        };
        if ok {
            self.mark_mapped(edge);
        }
        ok
    }

    fn mark_mapped(&mut self, edge: Edge) {
        self.realized.push(edge);
        self.remaining[edge.a().index()] -= 1;
        self.remaining[edge.b().index()] -= 1;
        self.reclassify(edge.a());
        self.reclassify(edge.b());
    }

    /// Re-derives `n`'s blocking class and the current layer's class
    /// counts; a no-op for nodes that are unplaced or on an older layer.
    fn reclassify(&mut self, n: NodeId) {
        let cur = self.cur();
        let Some((layer, p)) = self.node_place[n.index()] else {
            return;
        };
        if layer != cur {
            return;
        }
        let free = usize::from(self.free[self.table.index(p)]);
        debug_assert_eq!(
            free,
            self.geometry
                .neighbors(p)
                .into_iter()
                .filter(|&q| self.layers[cur].is_free(q))
                .count(),
            "free count of {p} diverged from a recount"
        );
        let class = Blocking::classify(self.remaining[n.index()], free);
        self.blocked[self.blocking[n.index()] as usize] -= 1;
        self.blocked[class as usize] += 1;
        self.blocking[n.index()] = class;
    }

    /// Accounts for cell `i` of the current layer having just filled: its
    /// neighbours lose a free neighbour, and the nodes among them are
    /// reclassified (coupling is symmetric, so the nodes coupled to `i`
    /// are its neighbours).
    fn fill_current(&mut self, i: usize) {
        let (row, len) = (self.table.rows[i], usize::from(self.table.len[i]));
        for &q in &row[..len] {
            self.free[q as usize] -= 1;
        }
        let cur = self.cur();
        for &q in &row[..len] {
            if let Some(n) = self.layers[cur].node_at(q as usize) {
                self.reclassify(n);
            }
        }
    }

    /// Occupies cell `i` of layer `layer` with a routing state for `edge`.
    fn add_routing(&mut self, layer: usize, i: usize, edge: Edge) {
        self.layers[layer].add_routing(self.table.position(i), edge);
        if layer == self.cur() {
            self.fill_current(i);
        }
    }

    /// Seed position for a fresh component: the nearest free cell to the
    /// grid center, in [`nearest_free_cell`]'s ring order (see there for
    /// the tie-break rule).
    ///
    /// A layer only gains cells, so every cell the ring walk has passed on
    /// the current layer stays occupied: the search resumes at the
    /// layer's [`RingCursor`] instead of rescanning the occupied rings,
    /// and the cursor only moves forward. It is counted as a scan like
    /// any other.
    fn pick_seed_cell(&mut self) -> Option<Position> {
        let layer = &self.layers[self.cur()];
        let found = self.seed_cursor.next_free(layer);
        debug_assert_eq!(
            found,
            nearest_free_cell(layer, self.seed_cursor.target),
            "the seed cursor diverged from the ring scan"
        );
        self.count_scan(self.seed_cursor.target, found)
    }

    /// [`nearest_free_cell`] on the current layer, counted as a scan.
    fn tracked_nearest_free(&mut self, target: Position) -> Option<Position> {
        let found = nearest_free_cell(&self.layers[self.cur()], target);
        self.count_scan(target, found)
    }

    /// Counts one seed scan and folds its ring radius into the congestion
    /// high-water mark; returns `found`.
    fn count_scan(&mut self, target: Position, found: Option<Position>) -> Option<Position> {
        self.seed_scans += 1;
        if let Some(p) = found {
            self.seed_scan_radius_max = self.seed_scan_radius_max.max(p.manhattan(target) as u64);
        }
        found
    }

    fn place_node(&mut self, n: NodeId, p: Position) {
        let cur = self.cur();
        self.layers[cur].place(n, p);
        self.node_place[n.index()] = Some((cur, p));
        self.blocking[n.index()] = Blocking::Unblocked;
        self.blocked[Blocking::Unblocked as usize] += 1;
        self.reclassify(n);
        self.fill_current(self.table.index(p));
    }

    /// Places `node` connected to the already-placed `anchor`, directly
    /// adjacent when possible, else at the end of a routed path. Candidate
    /// cells are scored with the paper's cost function.
    fn attach_new_node(&mut self, node: NodeId, anchor: NodeId, edge: Edge) -> bool {
        let cur = self.cur();
        let (al, ap) = self.node_place[anchor.index()].expect("anchor placed");
        if al != cur {
            return false;
        }
        let a = self.table.index(ap);
        // Direct candidates: free neighbors of the anchor, scored in
        // neighbourhood order with strict improvement — ties keep the
        // earliest candidate.
        let mut direct = [0usize; MAX_NEIGHBORS];
        let mut nd = 0;
        for &q in self.table.row(a) {
            if self.layers[cur].cells[q as usize] == FREE {
                direct[nd] = q as usize;
                nd += 1;
            }
        }
        let direct = &direct[..nd];
        // The best `(cost, cell)` so far, and whether it ends the path in
        // `self.path`.
        let mut best: Option<(f64, usize)> = None;
        let mut routed = false;
        for &cand in direct.iter().take(CANDIDATE_LIMIT) {
            let cost = self.score_placement(node, cand, &[]);
            if best.map_or(true, |(b, _)| cost < b) {
                best = Some((cost, cand));
            }
        }
        // Routed candidates when the anchor is partially blocked: route to
        // a roomier area (paper Fig. 11b). Only explored when direct
        // placement is impossible or the node still has many edges.
        let need_room = self.remaining[node.index()] > direct.len();
        if self.options.allow_routing && (direct.is_empty() || need_room) {
            // Destination test: the paper requires routed paths of length
            // >= 2 (at least one auxiliary state between the endpoints),
            // ending on a cell with room for the node's other edges.
            let open = self.remaining[node.index()].saturating_sub(1).min(3);
            let free = &self.free;
            let found = bfs_free_path(
                &self.layers[cur],
                self.table,
                a,
                &mut self.scratch,
                &mut self.path,
                |p, depth| depth >= 2 && usize::from(free[p]) >= open,
            );
            if found {
                let dest = self.path.pop().expect("a found path ends at its goal");
                let path = std::mem::take(&mut self.path);
                let cost = self.score_placement(node, dest, &path);
                self.path = path;
                if best.map_or(true, |(b, _)| cost < b) {
                    best = Some((cost, dest));
                    routed = true;
                }
            }
        }
        let Some((_, dest)) = best else {
            return false;
        };
        if routed {
            self.route_path(cur, edge);
        } else {
            self.direct_fusions += 1;
        }
        self.place_node(node, self.table.position(dest));
        true
    }

    /// Connects two nodes placed on layer `layer`: one fusion when their
    /// cells are coupled, else a routed fusion path between them.
    fn connect_on_layer(&mut self, layer: usize, pa: Position, pb: Position, edge: Edge) -> bool {
        let table = self.table;
        let (a, b) = (table.index(pa), table.index(pb));
        if table.coupled(a, b) {
            self.direct_fusions += 1;
            return true;
        }
        if !self.options.allow_routing {
            return false;
        }
        // The cells strictly between `pa` and `pb`: at least one, so the
        // routed path has the length >= 2 the hardware requires. It ends
        // on a cell coupled to `pb`.
        let found = bfs_free_path(
            &self.layers[layer],
            table,
            a,
            &mut self.scratch,
            &mut self.path,
            |p, _| table.coupled(p, b),
        );
        if found {
            self.route_path(layer, edge);
        }
        found
    }

    /// Fills the cells of `self.path` on layer `layer` with routing states
    /// for `edge`: a fusion chain of `path.len() + 1` fusions.
    fn route_path(&mut self, layer: usize, edge: Edge) {
        let path = std::mem::take(&mut self.path);
        for &cell in &path {
            self.add_routing(layer, cell, edge);
        }
        self.routed_fusions += path.len() + 1;
        self.path = path;
    }

    /// The paper's heuristic cost of a tentative placement.
    ///
    /// All terms run on the layer's cell array and record: the area term
    /// extends the record's bounding box with the tentative cells
    /// (O(path)). The blocking terms start from the current layer's class
    /// counts, which `Mapper` keeps up to date as cells fill and edges
    /// map, and re-assess only the placed nodes coupled to a tentative
    /// cell (the candidate cell plus the routed path) and the candidate
    /// itself: no other node's free-neighbour count can change.
    fn score_placement(&mut self, node: NodeId, cand: usize, path: &[usize]) -> f64 {
        let layer = &self.layers[self.cur()];
        let table = self.table;
        // Occupied-area term with the tentative cells added.
        let c = table.position(cand);
        let (mut rmin, mut rmax, mut cmin, mut cmax) =
            layer.layout.bbox.unwrap_or((c.row, c.row, c.col, c.col));
        for p in std::iter::once(cand)
            .chain(path.iter().copied())
            .map(|i| table.position(i))
        {
            rmin = rmin.min(p.row);
            rmax = rmax.max(p.row);
            cmin = cmin.min(p.col);
            cmax = cmax.max(p.col);
        }
        let area = (rmax - rmin + 1) * (cmax - cmin + 1);

        // Blocking terms with the tentative occupancy. Every tentative
        // cell is free now, so each one coupled to a cell takes one off
        // that cell's free count: a placed node loses one per time it
        // appears in `touched`, and the candidate one per path cell among
        // its neighbours.
        let touched = &mut self.touched;
        touched.clear();
        let mut cand_free = usize::from(self.free[cand]);
        for t in std::iter::once(cand).chain(path.iter().copied()) {
            for &q in table.row(t) {
                match layer.node_at(q as usize) {
                    Some(n) => touched.push((n, q)),
                    None if q as usize == cand => cand_free -= 1,
                    None => {}
                }
            }
        }
        touched.sort_unstable();
        let mut blocked = self.blocked;
        for run in touched.chunk_by(|x, y| x == y) {
            let (n, q) = run[0];
            let free = usize::from(self.free[q as usize]) - run.len();
            blocked[self.blocking[n.index()] as usize] -= 1;
            blocked[Blocking::classify(self.remaining[n.index()], free) as usize] += 1;
        }
        let r = self.remaining[node.index()].saturating_sub(1);
        blocked[Blocking::classify(r, cand_free) as usize] += 1;
        let partially = blocked[Blocking::Partially as usize];
        let totally = blocked[Blocking::Totally as usize];
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            (partially, totally),
            self.recount_blocking(node, cand, path),
            "incremental blocking terms diverged from the full recount"
        );

        area as f64 + partially as f64 + ALPHA * totally as f64
    }

    /// The blocking terms recounted from scratch over every node placed on
    /// the current layer: the reference the incremental counts in
    /// [`Mapper::score_placement`] are checked against in debug builds.
    #[cfg(debug_assertions)]
    fn recount_blocking(&self, node: NodeId, cand: usize, path: &[usize]) -> (usize, usize) {
        let layer = &self.layers[self.cur()];
        let cand = self.table.position(cand);
        let tentatively_free = |q: Position| {
            layer.is_free(q) && q != cand && !path.iter().any(|&i| self.table.position(i) == q)
        };
        let geometry = self.geometry;
        let mut partially = 0usize;
        let mut totally = 0usize;
        let mut assess = |p: Position, r: usize| {
            if r == 0 {
                return;
            }
            let (nbuf, nn) = geometry.neighbors_array(p);
            let free = nbuf[..nn].iter().filter(|&&q| tentatively_free(q)).count();
            if free == 0 {
                totally += 1;
            } else if r > free {
                partially += 1;
            }
        };
        for &(n, p) in &layer.layout.placed {
            assess(p, self.remaining[n.index()]);
        }
        assess(cand, self.remaining[node.index()].saturating_sub(1));
        (partially, totally)
    }

    /// Places a node anywhere (used before shuffling so every endpoint has
    /// coordinates), preferring cells near `hint`. Allocates a new layer
    /// when everything is full.
    fn force_place(&mut self, n: NodeId, hint: Option<Position>) {
        let found = match hint {
            Some(target) => self.tracked_nearest_free(target),
            None => self.pick_seed_cell(),
        };
        if let Some(p) = found {
            self.place_node(n, p);
            return;
        }
        self.push_layer();
        let seed = self.pick_seed_cell().expect("fresh layer always has room");
        self.place_node(n, seed);
    }
}

/// The grid centre, where every layer's first component is seeded.
fn center_of(geometry: LayerGeometry) -> Position {
    Position::new(geometry.rows() / 2, geometry.cols() / 2)
}

/// The free cell nearest to `target` by Manhattan distance, or `None` when
/// the layer is full.
///
/// Scans Manhattan rings of increasing radius around `target`; within a
/// ring, cells are visited in row-major order. The tie-break rule is
/// therefore: **smallest distance first, then smallest row, then smallest
/// column** — fixed by construction, independent of any container's
/// iteration order, and O(cells visited) instead of a full-area scan.
fn nearest_free_cell(layer: &WorkingLayer, target: Position) -> Option<Position> {
    let geom = layer.layout.geometry;
    // Any in-grid cell is within rows+cols of any in-grid target.
    let max_d = geom.rows() + geom.cols();
    for d in 0..=max_d {
        let rlo = target.row.saturating_sub(d);
        let rhi = (target.row + d).min(geom.rows() - 1);
        for r in rlo..=rhi {
            let k = d - target.row.abs_diff(r);
            if let Some(c) = target.col.checked_sub(k) {
                let p = Position::new(r, c);
                if layer.is_free(p) {
                    return Some(p);
                }
            }
            if k > 0 {
                let c = target.col + k;
                if c < geom.cols() {
                    let p = Position::new(r, c);
                    if layer.is_free(p) {
                        return Some(p);
                    }
                }
            }
        }
    }
    None
}

/// A resumable walk over [`nearest_free_cell`]'s ring order around a
/// fixed `target`: `(radius, row, side)` of the next cell to probe. The
/// cells it has passed were occupied when it passed them, so on a layer
/// that only gains cells it answers every later query from where it
/// stopped: all queries on one layer together walk the ring order at
/// most once, where each scan from the target walks it up to its answer.
#[derive(Debug, Clone, Copy)]
struct RingCursor {
    target: Position,
    /// Ring radius (Manhattan distance to `target`).
    radius: usize,
    /// Row within the ring.
    row: usize,
    /// Whether the row's west cell has been passed (its east cell next).
    east: bool,
}

impl RingCursor {
    fn new(target: Position) -> Self {
        RingCursor {
            target,
            radius: 0,
            row: target.row,
            east: false,
        }
    }

    /// The first free cell at or after the cursor in ring order, or `None`
    /// when the layer is full. The cursor stays on the cell it returns:
    /// the cell is free until someone occupies it.
    fn next_free(&mut self, layer: &WorkingLayer) -> Option<Position> {
        let geom = layer.layout.geometry;
        let t = self.target;
        while self.radius <= geom.rows() + geom.cols() {
            let last_row = (t.row + self.radius).min(geom.rows() - 1);
            while self.row <= last_row {
                let k = self.radius - t.row.abs_diff(self.row);
                if !self.east {
                    if let Some(c) = t.col.checked_sub(k) {
                        let p = Position::new(self.row, c);
                        if layer.is_free(p) {
                            return Some(p);
                        }
                    }
                    self.east = true;
                }
                if k > 0 && t.col + k < geom.cols() {
                    let p = Position::new(self.row, t.col + k);
                    if layer.is_free(p) {
                        return Some(p);
                    }
                }
                self.row += 1;
                self.east = false;
            }
            self.radius += 1;
            self.row = t.row.saturating_sub(self.radius);
        }
        None
    }
}

/// Cycle-prioritized breadth-first edge order (paper §6): starting from a
/// highest-degree node, BFS the graph; at each node emit unvisited cycle
/// edges before tree edges.
///
/// At node `u` the incident edges go in ascending
/// `(is_bridge, Reverse(degree(w)), w)` order of the far end `w`, and
/// `(u, w)` is emitted unless `w` was dequeued before `u` (then `w`
/// already emitted it). All cycle edges are then put before all bridges,
/// each class in emission order.
pub fn edge_order(graph: &Graph) -> Vec<Edge> {
    let bridges = biconnected::bridge_marks(graph);
    let mut cycles = Vec::with_capacity(graph.edge_count());
    let mut trees = Vec::new();
    // One scratch buffer reused across every BFS step: each node's
    // incident edges are sorted by precomputed keys before emission, and
    // allocating per node would put a heap round-trip in the innermost
    // compile loop.
    let mut incident: Vec<(bool, Reverse<usize>, NodeId)> = Vec::new();
    bfs_by_degree(graph, |u, done, next| {
        incident.clear();
        incident.extend(
            graph
                .neighbors(u)
                .iter()
                .map(|&w| (bridges.is_bridge(u, w), Reverse(graph.degree(w)), w)),
        );
        incident.sort_unstable();
        for &(bridge, _, w) in &incident {
            if !done[w.index()] {
                // Global cycle priority: all cycle edges (in BFS discovery
                // order) before all tree edges (same order) — tree edges
                // are flexible and can attach later without hurting
                // compactness (paper §6).
                let class = if bridge { &mut trees } else { &mut cycles };
                class.push(Edge::new(u, w));
            }
        }
        next.extend(incident.iter().map(|&(_, _, w)| w));
    });
    cycles.append(&mut trees);
    cycles
}

/// Plain breadth-first edge order without cycle priority (the ablation
/// counterpart of [`edge_order`]): at node `u` the incident edges go in
/// neighbor-list order.
pub fn plain_bfs_edge_order(graph: &Graph) -> Vec<Edge> {
    let mut order = Vec::with_capacity(graph.edge_count());
    bfs_by_degree(graph, |u, done, next| {
        let near = graph.neighbors(u);
        order.extend(
            near.iter()
                .filter(|w| !done[w.index()])
                .map(|&w| Edge::new(u, w)),
        );
        next.extend_from_slice(near);
    });
    order
}

/// Breadth-first search of every component of `graph`, each started from
/// its highest-degree node (ties: the smaller id). `visit(u, done, next)`
/// runs when `u` is dequeued, with `done[x]` telling whether `x` was
/// dequeued earlier (`u` included), and appends `u`'s neighbors to the
/// empty `next` in the order to enqueue them.
fn bfs_by_degree(graph: &Graph, mut visit: impl FnMut(NodeId, &[bool], &mut Vec<NodeId>)) {
    let mut seeds: Vec<NodeId> = graph.nodes().collect();
    // Highest-degree seeds first for deterministic, hub-centric layouts.
    seeds.sort_by_key(|&n| Reverse(graph.degree(n)));
    let mut visited = vec![false; graph.node_count()];
    let mut done = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    let mut next: Vec<NodeId> = Vec::new();
    for seed in seeds {
        if visited[seed.index()] {
            continue;
        }
        visited[seed.index()] = true;
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            done[u.index()] = true;
            next.clear();
            visit(u, &done, &mut next);
            for &w in &next {
                if !visited[w.index()] {
                    visited[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
    }
}

/// Reusable breadth-first-search bookkeeping over a layer's cells: visited
/// marks, predecessor links and the queue, as flat buffers sized to the
/// area. [`BfsScratch::begin`] re-arms it in O(1) (an epoch bump), so a
/// mapper running thousands of searches allocates the buffers once. The
/// counters are lifetime totals, reported in [`MapProfile`].
#[derive(Debug, Default)]
struct BfsScratch {
    mark: Vec<u32>,
    prev: Vec<u32>,
    epoch: u32,
    /// The frontier as `(cell index, depth)` pairs.
    queue: VecDeque<(u32, u32)>,
    /// Searches started (`begin` calls).
    searches: u64,
    /// Cells newly visited (successful `try_visit` calls): the BFS
    /// expansion count.
    visits: u64,
    /// `begin` calls that had to grow the buffers.
    grows: u64,
    /// `begin` calls that reused the buffers as they were.
    reuses: u64,
}

impl BfsScratch {
    /// Starts a fresh search over `area` cells: clears the queue and
    /// invalidates all marks in O(1).
    fn begin(&mut self, area: usize) {
        self.searches += 1;
        if self.mark.len() < area {
            self.mark.resize(area, 0);
            self.prev.resize(area, 0);
            self.grows += 1;
        } else {
            self.reuses += 1;
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
    }

    /// Marks `cell` as visited with predecessor `prev`; returns `false`
    /// when the cell was already visited this search.
    fn try_visit(&mut self, cell: usize, prev: usize) -> bool {
        if self.mark[cell] == self.epoch {
            return false;
        }
        self.mark[cell] = self.epoch;
        self.prev[cell] = prev as u32;
        self.visits += 1;
        true
    }

    /// `true` when `cell` was visited this search.
    fn is_visited(&self, cell: usize) -> bool {
        self.mark[cell] == self.epoch
    }

    /// Predecessor of a visited `cell`.
    fn prev(&self, cell: usize) -> usize {
        debug_assert!(self.is_visited(cell));
        self.prev[cell] as usize
    }
}

/// BFS through free cells of `layer` from cell `from`'s free neighbours to
/// the first cell that passes `goal(cell, depth)`, where depth 1 is a
/// neighbour of `from`, expanding each cell's `table` row in order.
/// Fills `path` with the cells from `from` (exclusive) to that cell
/// (inclusive) and returns `true`; returns `false`, `path` untouched,
/// when no goal lies within [`MAX_ROUTE_LEN`] cells. Runs entirely on
/// flat cell indices with the reusable [`BfsScratch`] and the caller's
/// path buffer: no per-call allocation.
fn bfs_free_path(
    layer: &WorkingLayer,
    table: &NeighborTable,
    from: usize,
    bfs: &mut BfsScratch,
    path: &mut Vec<usize>,
    goal: impl Fn(usize, u32) -> bool,
) -> bool {
    bfs.begin(layer.cells.len());
    bfs.try_visit(from, from);
    for &q in table.row(from) {
        if layer.cells[q as usize] == FREE {
            bfs.try_visit(q as usize, from);
            bfs.queue.push_back((q, 1));
        }
    }
    while let Some((p, depth)) = bfs.queue.pop_front() {
        let p = p as usize;
        if goal(p, depth) {
            // One cell per BFS level, so the path is `depth` cells long:
            // size it once and fill it back from the goal.
            path.clear();
            path.resize(depth as usize, p);
            for i in (0..path.len() - 1).rev() {
                path[i] = bfs.prev(path[i + 1]);
            }
            debug_assert_eq!(bfs.prev(path[0]), from, "the path starts next to `from`");
            return true;
        }
        if depth as usize >= MAX_ROUTE_LEN {
            continue;
        }
        for &q in table.row(p) {
            if layer.cells[q as usize] == FREE && bfs.try_visit(q as usize, p) {
                bfs.queue.push_back((q, depth + 1));
            }
        }
    }
    false
}

/// Plans shuffle layers for raw position pairs: used both for in-mapping
/// leftovers and for cross-partition edges (paper §4, dynamic allocation
/// of additional physical layers between partitions).
///
/// Pairs are connected by shortest coupled paths in ascending distance
/// order (stable sort: equal-distance pairs stay in input order); a fresh
/// layer is allocated whenever a path would overlap cells already used on
/// the current shuffle layer. Returns `(layers, fusions)` where each path
/// costs `cells + 1` fusions (the spatial chain plus the two temporal
/// hops into and out of the shuffle layer).
pub fn plan_position_shuffles(
    pairs: &[(Position, Position)],
    geometry: LayerGeometry,
) -> (usize, usize) {
    if pairs.is_empty() {
        return (0, 0);
    }
    let mut sorted: Vec<&(Position, Position)> = pairs.iter().collect();
    sorted.sort_by_key(|(a, b)| a.manhattan(*b));

    // First-fit packing of paths onto shuffle layers. Interior path cells
    // must be disjoint per layer; the endpoint cells may be shared (each
    // deferred edge spends a different photon of the endpoint's chain on
    // its temporal hop).
    //
    // Occupancy is kept as per-cell layer bitsets: bit `j` of
    // `used[k][cell]` is set when shuffle layer `64k + j` routes through
    // `cell`. OR-ing the interior cells' words gives the layers the path
    // would collide on, and the lowest zero bit is the first layer that
    // fits. Bits of layers not yet allocated are zero, so when every
    // allocated layer collides the lowest zero bit is the next new layer.
    let mut used: Vec<Vec<u64>> = vec![vec![0; geometry.area()]];
    let mut layers = 1usize;
    let mut fusions = 0usize;
    let mut cells: Vec<Position> = Vec::new();
    for (pa, pb) in sorted {
        geometry.path_between_into(*pa, *pb, &mut cells);
        let interior: &[Position] = if cells.len() > 2 {
            &cells[1..cells.len() - 1]
        } else {
            &[]
        };
        let mut slot = 64 * used.len();
        for (k, words) in used.iter().enumerate() {
            let busy = interior
                .iter()
                .fold(0u64, |acc, &c| acc | words[geometry.index_of(c)]);
            if busy != u64::MAX {
                slot = 64 * k + (!busy).trailing_zeros() as usize;
                break;
            }
        }
        if slot == 64 * used.len() {
            used.push(vec![0; geometry.area()]);
        }
        layers = layers.max(slot + 1);
        let (words, bit) = (&mut used[slot / 64], 1u64 << (slot % 64));
        for &c in interior {
            words[geometry.index_of(c)] |= bit;
        }
        // Fusions: temporal hop in, spatial along the path, temporal out.
        fusions += cells.len() + 1;
    }
    (layers, fusions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneq_graph::generators;
    use oneq_hardware::{ExtendedLayer, Topology};
    use std::collections::HashSet;

    fn opts() -> MappingOptions {
        MappingOptions::default()
    }

    #[test]
    fn small_cycle_fits_one_layer() {
        let g = generators::cycle(8);
        let r = map_graph(&g, LayerGeometry::new(8, 8), &opts());
        assert_eq!(r.layouts.len(), 1);
        assert_eq!(r.shuffle_layers, 0);
        assert!(r.total_fusions() >= 8);
        // Every node placed exactly once.
        assert_eq!(r.placement.len(), 8);
    }

    #[test]
    fn path_graph_maps_with_exact_fusions() {
        let g = generators::path(6);
        let r = map_graph(&g, LayerGeometry::new(8, 8), &opts());
        // A path can always be laid out contiguously: 5 direct fusions.
        assert_eq!(r.total_fusions(), 5);
        assert_eq!(r.routed_fusions, 0);
    }

    #[test]
    fn every_edge_is_realized() {
        for g in [
            generators::grid(3, 4),
            generators::star(9),
            generators::cycle(12),
            generators::complete(4),
        ] {
            let r = map_graph(&g, LayerGeometry::new(10, 10), &opts());
            // Each edge costs at least one fusion, and every node is placed.
            assert!(r.total_fusions() >= g.edge_count());
            assert_eq!(r.placement.len(), g.node_count());
            // The realized-edge ledger covers the input edge set exactly.
            let mut realized = r.realized_edges.clone();
            realized.sort();
            let mut input = g.sorted_edges();
            input.sort();
            assert_eq!(realized, input);
        }
    }

    #[test]
    fn star_hub_triggers_routing_or_more_layers() {
        // A degree-12 hub cannot keep all leaves adjacent on a grid: the
        // mapper must route (pink auxiliary dots of paper Fig. 11).
        let g = generators::star(13);
        let r = map_graph(&g, LayerGeometry::new(10, 10), &opts());
        assert!(r.total_fusions() > 12 || r.shuffle_layers > 0);
    }

    #[test]
    fn tiny_grid_forces_multiple_layers() {
        let g = generators::grid(5, 5); // 25 nodes
        let r = map_graph(&g, LayerGeometry::new(3, 3), &opts()); // 9 cells
        assert!(r.layouts.len() > 1, "25 nodes cannot fit 9 cells");
        assert_eq!(r.placement.len(), 25);
    }

    #[test]
    fn shuffle_edges_connect_across_layers() {
        let g = generators::grid(4, 4);
        let r = map_graph(&g, LayerGeometry::new(3, 3), &opts());
        if !r.shuffled.is_empty() {
            assert!(r.shuffle_layers >= 1);
            assert!(r.shuffle_fusions > 0);
        }
    }

    #[test]
    fn edge_order_prioritizes_cycles() {
        // Lollipop: triangle 0-1-2 with tail 2-3; the bridge must come
        // after the cycle edges.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let order = edge_order(&g);
        let bridge = Edge::new(NodeId::new(2), NodeId::new(3));
        let bridge_pos = order.iter().position(|&e| e == bridge).unwrap();
        assert_eq!(bridge_pos, 3, "bridge should be ordered last: {order:?}");
    }

    #[test]
    fn edge_order_covers_all_edges_once() {
        let g = generators::grid(4, 5);
        let order = edge_order(&g);
        assert_eq!(order.len(), g.edge_count());
        let unique: HashSet<Edge> = order.iter().copied().collect();
        assert_eq!(unique.len(), order.len());
    }

    #[test]
    fn routed_paths_have_min_length() {
        // Routing to an open area only returns paths with >= 1
        // intermediate cell (total length >= 2), per the paper's hardware
        // constraint.
        let g = generators::star(10);
        let r = map_graph(&g, LayerGeometry::new(12, 12), &opts());
        // All fusions accounted: direct are 1 each; routed are >= 2 each.
        assert!(r.routed_fusions == 0 || r.routed_fusions >= 2);
    }

    #[test]
    fn occupied_area_tracks_bounding_box() {
        let cells = [Position::new(2, 2), Position::new(4, 5)];
        for (k, area) in [0, 1, 12].into_iter().enumerate() {
            let mut layer = WorkingLayer::new(LayerGeometry::new(8, 8));
            for (i, &p) in cells[..k].iter().enumerate() {
                layer.place(NodeId::new(i), p);
            }
            assert_eq!(layer.finish().occupied_area(), area, "{k} cells");
        }
    }

    #[test]
    fn larger_area_reduces_layer_count() {
        let g = generators::grid(6, 6);
        let small = map_graph(&g, LayerGeometry::new(5, 5), &opts());
        let large = map_graph(&g, LayerGeometry::new(12, 12), &opts());
        assert!(large.layouts.len() <= small.layouts.len());
        assert!(large.depth() <= small.depth());
    }

    #[test]
    fn plain_bfs_order_covers_all_edges() {
        let g = generators::grid(4, 4);
        let order = plain_bfs_edge_order(&g);
        assert_eq!(order.len(), g.edge_count());
        let unique: HashSet<Edge> = order.iter().copied().collect();
        assert_eq!(unique.len(), order.len());
    }

    #[test]
    fn position_shuffles_pack_disjoint_paths_on_one_layer() {
        // Two far-apart, non-overlapping pairs fit one shuffle layer.
        let pairs = [
            (Position::new(0, 0), Position::new(0, 3)),
            (Position::new(5, 0), Position::new(5, 3)),
        ];
        let (layers, fusions) = plan_position_shuffles(&pairs, LayerGeometry::new(8, 8));
        assert_eq!(layers, 1);
        assert_eq!(fusions, 2 * (4 + 1));
    }

    #[test]
    fn position_shuffles_split_overlapping_paths() {
        // Identical pairs overlap in the interior: second path needs a new
        // layer.
        let pairs = [
            (Position::new(0, 0), Position::new(0, 5)),
            (Position::new(0, 0), Position::new(0, 5)),
        ];
        let (layers, _) = plan_position_shuffles(&pairs, LayerGeometry::new(8, 8));
        assert_eq!(layers, 2);
    }

    #[test]
    fn position_shuffles_share_endpoints() {
        // Paths that only touch at an endpoint cell share a layer (the
        // temporal hops come from different photons of the chain).
        let pairs = [
            (Position::new(2, 2), Position::new(2, 0)),
            (Position::new(2, 2), Position::new(0, 2)),
        ];
        let (layers, _) = plan_position_shuffles(&pairs, LayerGeometry::new(8, 8));
        assert_eq!(layers, 1);
    }

    /// `plan_position_shuffles` as it was before the per-cell layer
    /// bitsets: scan one occupancy array per shuffle layer for each pair.
    fn first_fit_on_cell_grids(
        pairs: &[(Position, Position)],
        geometry: LayerGeometry,
    ) -> (usize, usize) {
        if pairs.is_empty() {
            return (0, 0);
        }
        let mut sorted: Vec<&(Position, Position)> = pairs.iter().collect();
        sorted.sort_by_key(|(a, b)| a.manhattan(*b));
        let mut layers: Vec<Vec<bool>> = vec![vec![false; geometry.area()]];
        let mut fusions = 0usize;
        for (pa, pb) in sorted {
            let cells = geometry.path_between(*pa, *pb);
            let interior: &[Position] = if cells.len() > 2 {
                &cells[1..cells.len() - 1]
            } else {
                &[]
            };
            let slot = layers
                .iter()
                .position(|used| interior.iter().all(|&c| !used[geometry.index_of(c)]));
            let slot = match slot {
                Some(s) => s,
                None => {
                    layers.push(vec![false; geometry.area()]);
                    layers.len() - 1
                }
            };
            for &c in interior {
                layers[slot][geometry.index_of(c)] = true;
            }
            fusions += cells.len() + 1;
        }
        (layers.len(), fusions)
    }

    #[test]
    fn position_shuffles_match_the_cell_grid_first_fit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let mut deepest = 0;
        // (rows, cols, pairs): the 4x4 case piles hundreds of pairs onto
        // 16 cells, so the plan runs past 128 layers and the bitsets grow
        // a third word vector.
        for (rows, cols, count) in [(9, 9, 40), (12, 17, 300), (23, 11, 120), (4, 4, 600)] {
            for topo in [
                Topology::Orthogonal,
                Topology::Triangular,
                Topology::Hexagonal,
            ] {
                let geometry = LayerGeometry::new(rows, cols).with_topology(topo);
                let mut cell = || Position::new(rng.gen_range(0..rows), rng.gen_range(0..cols));
                let pairs: Vec<(Position, Position)> =
                    (0..count).map(|_| (cell(), cell())).collect();
                let plan = plan_position_shuffles(&pairs, geometry);
                assert_eq!(
                    plan,
                    first_fit_on_cell_grids(&pairs, geometry),
                    "{topo:?} {geometry}, {count} pairs"
                );
                deepest = deepest.max(plan.0);
            }
        }
        assert!(deepest > 128, "no case grew past two words: {deepest}");
    }

    #[test]
    fn empty_shuffle_plan_is_free() {
        let (layers, fusions) = plan_position_shuffles(&[], LayerGeometry::new(4, 4));
        assert_eq!((layers, fusions), (0, 0));
    }

    #[test]
    fn disabled_routing_defers_instead() {
        let g = generators::star(10);
        let opts = MappingOptions {
            allow_routing: false,
            ..Default::default()
        };
        let r = map_graph(&g, LayerGeometry::new(10, 10), &opts);
        assert_eq!(r.routed_fusions, 0);
        assert_eq!(r.placement.len(), 10);
    }

    #[test]
    fn empty_graph_maps_trivially() {
        let g = Graph::new();
        let r = map_graph(&g, LayerGeometry::new(4, 4), &opts());
        assert_eq!(r.total_fusions(), 0);
        assert_eq!(r.depth(), 1); // one (empty) layer allocated
    }

    #[test]
    fn nearest_free_cell_breaks_ties_row_major() {
        // All four distance-1 neighbours of the target free: smallest row
        // wins; with the north cell occupied, west (same row as target,
        // smaller column) wins over east and south.
        let mut layer = WorkingLayer::new(LayerGeometry::new(5, 5));
        let target = Position::new(2, 2);
        layer.place(NodeId::new(0), target);
        assert_eq!(
            nearest_free_cell(&layer, target),
            Some(Position::new(1, 2)),
            "smallest row first"
        );
        layer.place(NodeId::new(1), Position::new(1, 2));
        assert_eq!(
            nearest_free_cell(&layer, target),
            Some(Position::new(2, 1)),
            "then smallest column"
        );
    }

    #[test]
    fn nearest_free_cell_on_full_layer_is_none() {
        let geom = LayerGeometry::new(2, 2);
        let mut layer = WorkingLayer::new(geom);
        for (i, p) in geom.positions().enumerate() {
            layer.place(NodeId::new(i), p);
        }
        assert_eq!(nearest_free_cell(&layer, Position::new(0, 0)), None);
    }

    #[test]
    fn nearest_free_cell_clips_rings_at_the_border() {
        // Target in a corner: rings extend off-grid and must be clipped.
        let mut layer = WorkingLayer::new(LayerGeometry::new(3, 3));
        layer.place(NodeId::new(0), Position::new(0, 0));
        assert_eq!(
            nearest_free_cell(&layer, Position::new(0, 0)),
            Some(Position::new(0, 1))
        );
    }

    #[test]
    fn the_seed_cursor_matches_the_ring_scan_on_randomly_filled_layers() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for (rows, cols) in [
            (1, 1),
            (1, 7),
            (7, 1),
            (2, 2),
            (5, 5),
            (6, 9),
            (9, 6),
            (13, 13),
        ] {
            let geometry = LayerGeometry::new(rows, cols);
            let random = Position::new(rng.gen_range(0..rows), rng.gen_range(0..cols));
            let targets = [
                center_of(geometry),
                Position::new(0, 0),
                Position::new(rows - 1, cols - 1),
                random,
            ];
            for target in targets {
                for _ in 0..4 {
                    let mut order: Vec<Position> = geometry.positions().collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    let mut layer = WorkingLayer::new(geometry);
                    let mut cursor = RingCursor::new(target);
                    for (i, &p) in order.iter().enumerate() {
                        // Ask a varying number of times between fills: a
                        // query must not move the cursor past a free cell.
                        for _ in 0..rng.gen_range(0..3) {
                            assert_eq!(
                                cursor.next_free(&layer),
                                nearest_free_cell(&layer, target),
                                "{geometry} around {target}, {i} cells filled"
                            );
                        }
                        layer.place(NodeId::new(i), p);
                    }
                    assert_eq!(cursor.next_free(&layer), None);
                    assert_eq!(nearest_free_cell(&layer, target), None);
                }
            }
        }
    }

    const TOPOLOGIES: [Topology; 3] = [
        Topology::Orthogonal,
        Topology::Triangular,
        Topology::Hexagonal,
    ];

    #[test]
    fn neighbor_table_rows_follow_the_geometry_order() {
        for topo in TOPOLOGIES {
            let extended = ExtendedLayer::new(LayerGeometry::new(4, 3).with_topology(topo), 2);
            let mut shapes: Vec<LayerGeometry> = [(1, 1), (1, 7), (7, 1), (5, 6)]
                .iter()
                .map(|&(rows, cols)| LayerGeometry::new(rows, cols).with_topology(topo))
                .collect();
            shapes.push(extended.geometry());
            for geometry in shapes {
                let table = NeighborTable::new(geometry);
                for p in geometry.positions() {
                    let i = geometry.index_of(p);
                    assert_eq!(table.index(p), i);
                    assert_eq!(table.position(i), p);
                    let row: Vec<Position> = table
                        .row(i)
                        .iter()
                        .map(|&q| table.position(q as usize))
                        .collect();
                    assert_eq!(row, geometry.neighbors(p), "{topo:?} {geometry} at {p}");
                }
            }
        }
    }

    #[test]
    fn free_counts_match_a_recount_as_random_cells_fill() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..60 {
            let topo = TOPOLOGIES[case % 3];
            let (rows, cols) = (rng.gen_range(1..10), rng.gen_range(1..10));
            let geometry = LayerGeometry::new(rows, cols).with_topology(topo);
            let graph = Graph::with_nodes(geometry.area());
            let table = NeighborTable::new(geometry);
            let mut mapper = Mapper::new(&graph, &table, MappingOptions::default());
            let edge = Edge::new(NodeId::new(0), NodeId::new(1));
            // Two layers: the second starts from the counts `push_layer`
            // resets.
            for layer in 0..2 {
                let mut order: Vec<usize> = (0..geometry.area()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                for (step, &i) in order.iter().enumerate() {
                    if rng.gen_bool(0.5) {
                        mapper.place_node(NodeId::new(i), mapper.table.position(i));
                    } else {
                        mapper.add_routing(mapper.cur(), i, edge);
                    }
                    let working = &mapper.layers[mapper.cur()];
                    for p in geometry.positions() {
                        let recount = geometry
                            .neighbors(p)
                            .into_iter()
                            .filter(|&q| working.is_free(q))
                            .count();
                        assert_eq!(
                            usize::from(mapper.free[geometry.index_of(p)]),
                            recount,
                            "{topo:?} {geometry}, layer {layer}, step {step}, at {p}"
                        );
                    }
                }
                mapper.push_layer();
            }
        }
    }

    #[test]
    fn placed_pairs_fuse_directly_only_when_coupled() {
        // (the topology, two placed cells, whether they are coupled)
        let cases = [
            (Topology::Orthogonal, (2, 2), (2, 3), true),
            (Topology::Orthogonal, (2, 2), (1, 3), false),
            // The NE/SW diagonals couple on triangular layers.
            (Topology::Triangular, (2, 2), (1, 3), true),
            (Topology::Triangular, (2, 2), (3, 1), true),
            (Topology::Triangular, (2, 2), (3, 3), false),
            // (2, 2) has an even parity and couples north, not south.
            (Topology::Hexagonal, (2, 2), (1, 2), true),
            (Topology::Hexagonal, (2, 2), (3, 2), false),
        ];
        for (topo, a, b, coupled) in cases {
            let geometry = LayerGeometry::new(6, 6).with_topology(topo);
            let graph = Graph::from_edges(2, &[(0, 1)]);
            let table = NeighborTable::new(geometry);
            let mut mapper = Mapper::new(&graph, &table, MappingOptions::default());
            let (pa, pb) = (Position::new(a.0, a.1), Position::new(b.0, b.1));
            mapper.place_node(NodeId::new(0), pa);
            mapper.place_node(NodeId::new(1), pb);
            assert!(mapper.try_map_edge(Edge::new(NodeId::new(0), NodeId::new(1))));
            let what = format!("{topo:?} {pa} {pb}");
            assert_eq!(mapper.direct_fusions, usize::from(coupled), "{what}");
            assert_eq!(mapper.routed_fusions > 0, !coupled, "{what}");
        }
    }

    #[test]
    fn mapping_twice_is_bit_identical() {
        for g in [
            generators::grid(5, 5),
            generators::star(12),
            generators::complete(5),
        ] {
            let a = map_graph(&g, LayerGeometry::new(7, 7), &opts());
            let b = map_graph(&g, LayerGeometry::new(7, 7), &opts());
            assert_eq!(a.placement, b.placement);
            assert_eq!(a.realized_edges, b.realized_edges);
            assert_eq!(a.profile, b.profile, "profile counters are deterministic");
            assert_eq!(a.total_fusions(), b.total_fusions());
            assert_eq!(a.depth(), b.depth());
            assert_eq!(a.layouts.len(), b.layouts.len());
            for (la, lb) in a.layouts.iter().zip(&b.layouts) {
                assert_eq!(la.placed_nodes(), lb.placed_nodes());
                let cells_a: Vec<(Position, CellUse)> = la.cells().collect();
                let cells_b: Vec<(Position, CellUse)> = lb.cells().collect();
                assert_eq!(cells_a, cells_b);
            }
        }
    }

    #[test]
    fn map_profile_reflects_the_work_done() {
        let g = generators::grid(5, 5);
        let r = map_graph(&g, LayerGeometry::new(7, 7), &opts());
        let p = r.profile;
        assert!(p.seed_scans >= 1, "at least the first seed placement scans");
        assert!(
            p.occupancy_peak >= g.node_count() as u64 / r.layouts.len() as u64,
            "peak occupancy covers the placed nodes: {p:?}"
        );
        assert_eq!(
            p.routing_cells,
            r.layouts
                .iter()
                .map(|l| l.routing_cells() as u64)
                .sum::<u64>()
        );
        assert_eq!(
            p.bfs_searches,
            p.scratch_grows + p.scratch_reuses,
            "every search either grew or reused the scratch"
        );
        if p.bfs_searches > 0 {
            assert!(
                p.bfs_expansions >= p.bfs_searches,
                "each search visits ≥ 1 cell"
            );
        }
    }

    #[test]
    fn grid_occupancy_equals_nodes_plus_routing() {
        let g = generators::star(12);
        let r = map_graph(&g, LayerGeometry::new(10, 10), &opts());
        for layout in &r.layouts {
            // Each occupied cell appears once: a cell holds one node or
            // one routing state, never both.
            let cells: HashSet<Position> = layout.cells().map(|(p, _)| p).collect();
            assert_eq!(cells.len(), layout.occupied_cells());
            assert_eq!(
                layout.occupied_cells(),
                layout.placed_count() + layout.routing_cells()
            );
        }
    }

    /// Maps `g` and returns the result with a copy of every working
    /// layer's cell array as it stood when the graph was mapped.
    fn map_keeping_cells(g: &Graph, geometry: LayerGeometry) -> (MappingResult, Vec<Vec<u32>>) {
        let table = NeighborTable::new(geometry);
        let mut mapper = Mapper::new(g, &table, opts());
        let shuffled = mapper.map_edges();
        let cells = mapper.layers.iter().map(|l| l.cells.clone()).collect();
        (mapper.finish(shuffled), cells)
    }

    #[test]
    fn sparse_records_hold_what_the_working_grids_held() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(53);
        let mut geometries: Vec<LayerGeometry> = TOPOLOGIES
            .iter()
            .map(|&topo| LayerGeometry::new(6, 7).with_topology(topo))
            .collect();
        geometries.push(ExtendedLayer::new(LayerGeometry::new(4, 4), 2).geometry());
        let (mut layers, mut routed) = (0, 0);
        for geometry in geometries {
            for case in 0..12 {
                let n = rng.gen_range(2..80);
                let m = rng.gen_range(n - 1..=2 * n);
                let g = generators::gnm(n, m, &mut rng);
                let (r, arrays) = map_keeping_cells(&g, geometry);
                assert_eq!(r.layouts.len(), arrays.len());
                for (i, (layout, cells)) in r.layouts.iter().zip(&arrays).enumerate() {
                    let what = format!("{geometry}, case {case}, layer {i}");
                    assert_eq!(layout.geometry(), geometry, "{what}");
                    assert_eq!(cells.len(), geometry.area(), "{what}");
                    for p in geometry.positions() {
                        let mark = match layout.cell(p) {
                            None => FREE,
                            Some(CellUse::Node(n)) => n.index() as u32,
                            Some(CellUse::Routing(_)) => ROUTING,
                        };
                        assert_eq!(mark, cells[geometry.index_of(p)], "{what} at {p}");
                    }
                    let occupied = cells.iter().filter(|&&c| c != FREE).count();
                    assert_eq!(layout.occupied_cells(), occupied, "{what}");
                    assert_eq!(
                        layout.occupied_cells(),
                        layout.placed_count() + layout.routing_cells(),
                        "{what}"
                    );
                    routed += layout.routing_cells();
                }
                layers += arrays.len();
                // The record is what `map_graph` returns.
                let direct = map_graph(&g, geometry, &opts());
                assert_eq!(direct.placement, r.placement);
                assert_eq!(direct.profile, r.profile);
            }
        }
        assert!(layers > 48, "no case spilled onto a second layer");
        assert!(routed > 0, "no case routed");
    }

    #[test]
    fn bfs_scratch_epochs_invalidate() {
        let mut bfs = BfsScratch::default();
        bfs.begin(9);
        assert!(bfs.try_visit(3, 1));
        assert!(bfs.is_visited(3));
        bfs.begin(9);
        assert!(!bfs.is_visited(3), "new search forgets old marks");
        assert!(bfs.try_visit(3, 2));
        assert_eq!(bfs.prev(3), 2);
    }

    #[test]
    fn bfs_scratch_grows_to_larger_areas() {
        let mut bfs = BfsScratch::default();
        bfs.begin(4);
        assert!(bfs.try_visit(3, 0));
        bfs.begin(100);
        assert!(bfs.try_visit(99, 98));
        assert_eq!(bfs.prev(99), 98);
    }

    #[test]
    fn bfs_scratch_profiling_counters_track_lifetime_activity() {
        let mut bfs = BfsScratch::default();
        bfs.begin(16); // first begin allocates
        assert!(bfs.try_visit(0, 0));
        assert!(bfs.try_visit(1, 0));
        assert!(!bfs.try_visit(1, 0), "revisit does not count");
        bfs.begin(16); // same area: reuse
        assert!(bfs.try_visit(2, 0));
        bfs.begin(64); // larger area: grow
        assert_eq!(bfs.searches, 3);
        assert_eq!(bfs.visits, 3);
        assert_eq!(bfs.grows, 2);
        assert_eq!(bfs.reuses, 1);
    }
}
