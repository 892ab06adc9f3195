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
//! # Determinism
//!
//! The entire placement path runs on dense, row-major grids
//! ([`oneq_hardware::CellGrid`]) — no hashed-map iteration anywhere, so
//! compiling the same circuit twice always yields bit-identical layouts,
//! depth, and fusion counts. The only hashed containers left are
//! lookup-only sets (`mapped_edges`) whose iteration order is never
//! observed. Tie-breaks are fixed and documented: candidate cells are
//! scored in coupling-neighbourhood order, BFS frontiers expand in that
//! same order, and nearest-free-cell searches scan Manhattan rings in
//! row-major order (see the private `Mapper::pick_seed_cell`).

use oneq_graph::{biconnected, Edge, Graph, NodeId};
use oneq_hardware::{BfsScratch, CellGrid, LayerGeometry, Position};
use std::collections::{HashMap, HashSet, VecDeque};

/// What occupies a grid cell in a layer layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellUse {
    /// A fusion-graph node (a resource state carrying graph-state qubits).
    Node(NodeId),
    /// An auxiliary resource state forwarding a routed fusion path.
    Routing(Edge),
}

/// Mapper tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct MappingOptions {
    /// Weight of totally blocked nodes in the cost function (`α`; the
    /// paper suggests the maximum degree of the physical layer).
    pub alpha: f64,
    /// Maximum routed-path length explored by the in-layer router.
    pub max_route_len: usize,
    /// Number of placement candidates scored per node.
    pub candidate_limit: usize,
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
            alpha: 64.0,
            max_route_len: 14,
            candidate_limit: 24,
            cycle_priority: true,
            allow_routing: true,
        }
    }
}

/// The layout of one (possibly extended) physical layer, backed by a
/// dense row-major [`CellGrid`].
#[derive(Debug, Clone)]
pub struct LayerLayout {
    grid: CellGrid<CellUse>,
    /// Placements in placement order.
    placed: Vec<(NodeId, Position)>,
    /// Auxiliary routing cells consumed (tracked incrementally).
    routing: usize,
}

impl LayerLayout {
    fn new(geometry: LayerGeometry) -> Self {
        LayerLayout {
            grid: CellGrid::new(geometry),
            placed: Vec::new(),
            routing: 0,
        }
    }

    /// Grid geometry of this layout.
    pub fn geometry(&self) -> LayerGeometry {
        self.grid.geometry()
    }

    /// The dense occupancy grid.
    pub fn grid(&self) -> &CellGrid<CellUse> {
        &self.grid
    }

    /// Occupant of `p` (`None` when free or outside the layer).
    pub fn cell(&self, p: Position) -> Option<CellUse> {
        self.grid.get(p).copied()
    }

    /// Placements in placement order.
    pub fn placed_nodes(&self) -> &[(NodeId, Position)] {
        &self.placed
    }

    /// Number of fusion-graph nodes placed on this layer.
    pub fn placed_count(&self) -> usize {
        self.placed.len()
    }

    fn is_free(&self, p: Position) -> bool {
        self.grid.is_free(p)
    }

    /// Free cells of `p`'s coupling neighbourhood, in neighbourhood order.
    fn free_neighbors_array(
        &self,
        p: Position,
    ) -> ([Position; oneq_hardware::MAX_NEIGHBORS], usize) {
        let (nbuf, nn) = self.geometry().neighbors_array(p);
        let mut out = [Position::new(0, 0); oneq_hardware::MAX_NEIGHBORS];
        let mut k = 0;
        for &q in &nbuf[..nn] {
            if self.is_free(q) {
                out[k] = q;
                k += 1;
            }
        }
        (out, k)
    }

    fn count_free_neighbors(&self, p: Position) -> usize {
        let (nbuf, nn) = self.geometry().neighbors_array(p);
        nbuf[..nn].iter().filter(|&&q| self.is_free(q)).count()
    }

    fn place(&mut self, n: NodeId, p: Position) {
        debug_assert!(self.is_free(p), "cell {p} already used");
        self.grid.set(p, CellUse::Node(n));
        self.placed.push((n, p));
    }

    fn add_routing(&mut self, p: Position, edge: Edge) {
        debug_assert!(self.is_free(p), "cell {p} already used");
        self.grid.set(p, CellUse::Routing(edge));
        self.routing += 1;
    }

    /// Number of auxiliary routing cells consumed.
    pub fn routing_cells(&self) -> usize {
        self.routing
    }

    /// Bounding-box area of everything mapped so far (the cost function's
    /// `occupied_area`); O(1) via the grid's incremental bounding box.
    pub fn occupied_area(&self) -> usize {
        self.grid.bounding_box_area()
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
    pub placement: HashMap<NodeId, (usize, Position)>,
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
    Mapper::new(fusion_graph, geometry, *options).run()
}

struct Mapper<'g> {
    graph: &'g Graph,
    geometry: LayerGeometry,
    options: MappingOptions,
    /// Remaining unmapped edge count per node (the `r` of the blocking
    /// definition).
    remaining: Vec<usize>,
    /// Lookup-only membership set; never iterated (determinism).
    mapped_edges: HashSet<Edge>,
    /// Realized edges in realization order.
    realized: Vec<Edge>,
    layouts: Vec<LayerLayout>,
    /// Node -> (layout index, position), indexed by `NodeId::index`.
    node_place: Vec<Option<(usize, Position)>>,
    direct_fusions: usize,
    routed_fusions: usize,
    /// Reusable BFS buffers for the in-layer router.
    scratch: BfsScratch,
    seed_scans: u64,
    seed_scan_radius_max: u64,
    /// Blocking class of each node placed on the current layer, under the
    /// layer's committed occupancy (stale for nodes on older layers).
    blocking: Vec<Blocking>,
    /// How many of the current layer's nodes are in each class, indexed
    /// by `Blocking as usize`.
    blocked: [usize; 3],
    /// Reusable buffer of the placed nodes a candidate's tentative cells
    /// touch (deduplicated per score).
    touched: Vec<(NodeId, Position)>,
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
    fn new(graph: &'g Graph, geometry: LayerGeometry, options: MappingOptions) -> Self {
        let remaining = graph.nodes().map(|n| graph.degree(n)).collect();
        let n = graph.node_count();
        Mapper {
            graph,
            geometry,
            options,
            remaining,
            mapped_edges: HashSet::new(),
            realized: Vec::with_capacity(graph.edge_count()),
            layouts: vec![LayerLayout::new(geometry)],
            node_place: vec![None; n],
            direct_fusions: 0,
            routed_fusions: 0,
            scratch: BfsScratch::new(),
            seed_scans: 0,
            seed_scan_radius_max: 0,
            blocking: vec![Blocking::Unblocked; n],
            blocked: [0; 3],
            touched: Vec::new(),
        }
    }

    fn run(mut self) -> MappingResult {
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
            let before = self.mapped_edges.len();
            for edge in pending {
                if !self.try_map_edge(edge) {
                    next.push(edge);
                }
            }
            if self.mapped_edges.len() == before {
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
            self.mapped_edges.insert(edge);
            self.realized.push(edge);
        }

        let pairs: Vec<(Position, Position)> =
            shuffled.iter().map(|s| (s.from.1, s.to.1)).collect();
        let (shuffle_layers, shuffle_fusions) = plan_position_shuffles(&pairs, self.geometry);

        let placement: HashMap<NodeId, (usize, Position)> = self
            .node_place
            .iter()
            .enumerate()
            .filter_map(|(i, &slot)| slot.map(|lp| (NodeId::new(i), lp)))
            .collect();

        // The mapper only ever adds cells, so the end-of-run occupancy of
        // each layer IS its high-water mark.
        let profile = MapProfile {
            bfs_searches: self.scratch.searches(),
            bfs_expansions: self.scratch.visits(),
            scratch_grows: self.scratch.grows(),
            scratch_reuses: self.scratch.reuses(),
            seed_scans: self.seed_scans,
            seed_scan_radius_max: self.seed_scan_radius_max,
            occupancy_peak: self
                .layouts
                .iter()
                .map(|l| l.grid().occupied_cells() as u64)
                .max()
                .unwrap_or(0),
            routing_cells: self.layouts.iter().map(|l| l.routing_cells() as u64).sum(),
        };

        MappingResult {
            layouts: self.layouts,
            shuffled,
            shuffle_layers,
            direct_fusions: self.direct_fusions,
            routed_fusions: self.routed_fusions,
            shuffle_fusions,
            placement,
            realized_edges: self.realized,
            profile,
        }
    }

    /// Current working layout index (always the last one).
    fn cur(&self) -> usize {
        self.layouts.len() - 1
    }

    fn push_layer(&mut self) {
        self.layouts.push(LayerLayout::new(self.geometry));
        self.blocked = [0; 3];
    }

    fn try_map_edge(&mut self, edge: Edge) -> bool {
        if self.mapped_edges.contains(&edge) {
            return true;
        }
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
                if lu == lv && lu == cur {
                    self.connect_placed(qu, qv, edge)
                } else if lu == lv {
                    // Both on a finished layer: route there if possible.
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
        self.mapped_edges.insert(edge);
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
        let free = self.layouts[cur].count_free_neighbors(p);
        let class = Blocking::classify(self.remaining[n.index()], free);
        self.blocked[self.blocking[n.index()] as usize] -= 1;
        self.blocked[class as usize] += 1;
        self.blocking[n.index()] = class;
    }

    /// Reclassifies the current layer's nodes coupled to `p`, whose cell
    /// was just occupied (coupling is symmetric, so they are `p`'s
    /// neighbours).
    fn reclassify_around(&mut self, p: Position) {
        let (nbuf, nn) = self.geometry.neighbors_array(p);
        for &q in &nbuf[..nn] {
            if let Some(CellUse::Node(n)) = self.layouts[self.cur()].cell(q) {
                self.reclassify(n);
            }
        }
    }

    /// Occupies `cell` of layer `layer` with a routing state for `edge`.
    fn add_routing(&mut self, layer: usize, cell: Position, edge: Edge) {
        self.layouts[layer].add_routing(cell, edge);
        if layer == self.cur() {
            self.reclassify_around(cell);
        }
    }

    /// Seed position for a fresh component: the nearest free cell to the
    /// grid center, found by a deterministic Manhattan ring scan
    /// (see [`nearest_free_cell`] for the tie-break rule).
    fn pick_seed_cell(&mut self) -> Option<Position> {
        let center = Position::new(self.geometry.rows() / 2, self.geometry.cols() / 2);
        self.tracked_nearest_free(center)
    }

    /// [`nearest_free_cell`] on the current layer, with the scan counted
    /// and its ring radius folded into the congestion high-water mark.
    fn tracked_nearest_free(&mut self, target: Position) -> Option<Position> {
        self.seed_scans += 1;
        let found = nearest_free_cell(&self.layouts[self.cur()], target);
        if let Some(p) = found {
            self.seed_scan_radius_max = self.seed_scan_radius_max.max(p.manhattan(target) as u64);
        }
        found
    }

    fn place_node(&mut self, n: NodeId, p: Position) {
        let cur = self.cur();
        self.layouts[cur].place(n, p);
        self.node_place[n.index()] = Some((cur, p));
        self.blocking[n.index()] = Blocking::Unblocked;
        self.blocked[Blocking::Unblocked as usize] += 1;
        self.reclassify(n);
        self.reclassify_around(p);
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
        // Direct candidates: free neighbors of the anchor, scored in
        // neighbourhood order with strict improvement — ties keep the
        // earliest candidate.
        let (nbuf, nn) = self.layouts[cur].free_neighbors_array(ap);
        let direct = &nbuf[..nn];
        let mut best: Option<(f64, Position, Option<Vec<Position>>)> = None;
        for &cand in direct.iter().take(self.options.candidate_limit) {
            let cost = self.score_placement(node, cand, &[]);
            if best.as_ref().map_or(true, |(b, _, _)| cost < *b) {
                best = Some((cost, cand, None));
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
            let layout = &self.layouts[cur];
            let routed = bfs_free_path(
                layout,
                ap,
                self.options.max_route_len,
                &mut self.scratch,
                |p, depth| depth >= 2 && layout.count_free_neighbors(p) >= open,
            );
            if let Some(mut path) = routed {
                let dest = path.pop().expect("a found path ends at its goal");
                let cost = self.score_placement(node, dest, &path);
                if best.as_ref().map_or(true, |(b, _, _)| cost < *b) {
                    best = Some((cost, dest, Some(path)));
                }
            }
        }
        match best {
            Some((_, dest, maybe_path)) => {
                if let Some(path) = maybe_path {
                    let cur = self.cur();
                    for &cell in &path {
                        self.add_routing(cur, cell, edge);
                    }
                    self.routed_fusions += path.len() + 1;
                } else {
                    self.direct_fusions += 1;
                }
                self.place_node(node, dest);
                true
            }
            None => false,
        }
    }

    /// Connects two nodes already placed on the current layer.
    fn connect_placed(&mut self, pa: Position, pb: Position, edge: Edge) -> bool {
        if pa.manhattan(pb) == 1 {
            self.direct_fusions += 1;
            return true;
        }
        self.connect_on_layer(self.cur(), pa, pb, edge)
    }

    /// Routes a fusion path between two positions on layer `layer`.
    fn connect_on_layer(&mut self, layer: usize, pa: Position, pb: Position, edge: Edge) -> bool {
        if pa.manhattan(pb) == 1 {
            self.direct_fusions += 1;
            return true;
        }
        if !self.options.allow_routing {
            return false;
        }
        // The cells strictly between `pa` and `pb`: at least one, so the
        // routed path has the length >= 2 the hardware requires.
        let path = bfs_free_path(
            &self.layouts[layer],
            pa,
            self.options.max_route_len,
            &mut self.scratch,
            |p, _| p.manhattan(pb) == 1,
        );
        match path {
            Some(cells) => {
                for &cell in &cells {
                    self.add_routing(layer, cell, edge);
                }
                self.routed_fusions += cells.len() + 1;
                true
            }
            None => false,
        }
    }

    /// The paper's heuristic cost of a tentative placement.
    ///
    /// All terms run on the dense grid: the area term extends the grid's
    /// incremental bounding box with the tentative cells (O(path)). The
    /// blocking terms start from the current layer's class counts, which
    /// `Mapper` keeps up to date as cells fill and edges map, and
    /// re-assess only the placed nodes coupled to a tentative cell (the
    /// candidate cell plus the routed path) and the candidate itself: no
    /// other node's free-neighbour count can change.
    fn score_placement(&mut self, node: NodeId, cand: Position, path: &[Position]) -> f64 {
        let layout = &self.layouts[self.cur()];
        // Occupied-area term with the tentative cells added.
        let (mut rmin, mut rmax, mut cmin, mut cmax) = layout
            .grid()
            .bounding_box()
            .unwrap_or((cand.row, cand.row, cand.col, cand.col));
        let mut consider = |p: Position| {
            rmin = rmin.min(p.row);
            rmax = rmax.max(p.row);
            cmin = cmin.min(p.col);
            cmax = cmax.max(p.col);
        };
        consider(cand);
        for &p in path {
            consider(p);
        }
        let area = (rmax - rmin + 1) * (cmax - cmin + 1);

        // Blocking terms with the tentative occupancy.
        let geometry = self.geometry;
        let tentatively_free = |q: Position| layout.is_free(q) && q != cand && !path.contains(&q);
        let classify = |p: Position, r: usize| {
            let (nbuf, nn) = geometry.neighbors_array(p);
            let free = nbuf[..nn].iter().filter(|&&q| tentatively_free(q)).count();
            Blocking::classify(r, free)
        };
        let touched = &mut self.touched;
        touched.clear();
        for &t in std::iter::once(&cand).chain(path) {
            let (nbuf, nn) = geometry.neighbors_array(t);
            for &q in &nbuf[..nn] {
                if let Some(CellUse::Node(n)) = layout.cell(q) {
                    touched.push((n, q));
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let mut blocked = self.blocked;
        for &(n, p) in touched.iter() {
            blocked[self.blocking[n.index()] as usize] -= 1;
            blocked[classify(p, self.remaining[n.index()]) as usize] += 1;
        }
        blocked[classify(cand, self.remaining[node.index()].saturating_sub(1)) as usize] += 1;
        let partially = blocked[Blocking::Partially as usize];
        let totally = blocked[Blocking::Totally as usize];
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            (partially, totally),
            self.recount_blocking(node, cand, path),
            "incremental blocking terms diverged from the full recount"
        );

        area as f64 + partially as f64 + self.options.alpha * totally as f64
    }

    /// The blocking terms recounted from scratch over every node placed on
    /// the current layer: the reference the incremental counts in
    /// [`Mapper::score_placement`] are checked against in debug builds.
    #[cfg(debug_assertions)]
    fn recount_blocking(&self, node: NodeId, cand: Position, path: &[Position]) -> (usize, usize) {
        let layout = &self.layouts[self.cur()];
        let tentatively_free = |q: Position| layout.is_free(q) && q != cand && !path.contains(&q);
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
        for &(n, p) in layout.placed_nodes() {
            assess(p, self.remaining[n.index()]);
        }
        assess(cand, self.remaining[node.index()].saturating_sub(1));
        (partially, totally)
    }

    /// Places a node anywhere (used before shuffling so every endpoint has
    /// coordinates), preferring cells near `hint`. Allocates a new layer
    /// when everything is full.
    fn force_place(&mut self, n: NodeId, hint: Option<Position>) {
        let target = hint.unwrap_or(Position::new(
            self.geometry.rows() / 2,
            self.geometry.cols() / 2,
        ));
        if let Some(p) = self.tracked_nearest_free(target) {
            self.place_node(n, p);
            return;
        }
        self.push_layer();
        let seed = self.pick_seed_cell().expect("fresh layer always has room");
        self.place_node(n, seed);
    }
}

/// The free cell nearest to `target` by Manhattan distance, or `None` when
/// the layer is full.
///
/// Scans Manhattan rings of increasing radius around `target`; within a
/// ring, cells are visited in row-major order. The tie-break rule is
/// therefore: **smallest distance first, then smallest row, then smallest
/// column** — fixed by construction, independent of any container's
/// iteration order, and O(cells visited) instead of a full-area scan.
fn nearest_free_cell(layout: &LayerLayout, target: Position) -> Option<Position> {
    let geom = layout.geometry();
    // Any in-grid cell is within rows+cols of any in-grid target.
    let max_d = geom.rows() + geom.cols();
    for d in 0..=max_d {
        let rlo = target.row.saturating_sub(d);
        let rhi = (target.row + d).min(geom.rows() - 1);
        for r in rlo..=rhi {
            let k = d - target.row.abs_diff(r);
            if let Some(c) = target.col.checked_sub(k) {
                let p = Position::new(r, c);
                if layout.is_free(p) {
                    return Some(p);
                }
            }
            if k > 0 {
                let c = target.col + k;
                if c < geom.cols() {
                    let p = Position::new(r, c);
                    if layout.is_free(p) {
                        return Some(p);
                    }
                }
            }
        }
    }
    None
}

/// Cycle-prioritized breadth-first edge order (paper §6): starting from a
/// highest-degree node, BFS the graph; at each node emit unvisited cycle
/// edges before tree edges.
pub fn edge_order(graph: &Graph) -> Vec<Edge> {
    let bridges = biconnected::bridges(graph);
    let mut order = Vec::with_capacity(graph.edge_count());
    let mut seen_edges: HashSet<Edge> = HashSet::new();
    let mut visited = vec![false; graph.node_count()];

    let mut components: Vec<NodeId> = graph.nodes().collect();
    // Highest-degree seeds first for deterministic, hub-centric layouts.
    components.sort_by_key(|&n| std::cmp::Reverse(graph.degree(n)));

    // One scratch buffer reused across every BFS step: neighbor lists must
    // be sorted before emission, but allocating per node would put a heap
    // round-trip in the innermost compile loop.
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
    // Global cycle priority: all cycle edges (in BFS discovery order)
    // before all tree edges (same order) — tree edges are flexible and
    // can attach later without hurting compactness (paper §6).
    let (cycles, trees): (Vec<Edge>, Vec<Edge>) =
        order.into_iter().partition(|e| !bridges.contains(e));
    cycles.into_iter().chain(trees).collect()
}

/// Plain breadth-first edge order without cycle priority (the ablation
/// counterpart of [`edge_order`]).
pub fn plain_bfs_edge_order(graph: &Graph) -> Vec<Edge> {
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

/// Row-major position of a flat cell index.
fn pos_at(geometry: LayerGeometry, idx: usize) -> Position {
    Position::new(idx / geometry.cols(), idx % geometry.cols())
}

/// BFS through free cells from `from`'s free neighbours to the first cell
/// that passes `goal(cell, depth)`, where depth 1 is a neighbour of
/// `from`. Returns the cells from `from` (exclusive) to that cell
/// (inclusive); `None` when no goal lies within `max_len` cells. Runs
/// entirely on the dense grid with the reusable [`BfsScratch`] — no
/// per-call maps.
fn bfs_free_path(
    layout: &LayerLayout,
    from: Position,
    max_len: usize,
    bfs: &mut BfsScratch,
    goal: impl Fn(Position, u32) -> bool,
) -> Option<Vec<Position>> {
    let geom = layout.geometry();
    bfs.begin(geom.area());
    let from_idx = geom.index_of(from);
    bfs.try_visit(from_idx, from_idx);
    let (nbuf, nn) = geom.neighbors_array(from);
    for &q in &nbuf[..nn] {
        if layout.is_free(q) {
            let qi = geom.index_of(q);
            bfs.try_visit(qi, from_idx);
            bfs.queue.push_back((qi as u32, 1));
        }
    }
    while let Some((pi, depth)) = bfs.queue.pop_front() {
        let pi = pi as usize;
        let p = pos_at(geom, pi);
        if goal(p, depth) {
            let mut path = vec![p];
            let mut cur = pi;
            while bfs.prev(cur) != from_idx {
                cur = bfs.prev(cur);
                path.push(pos_at(geom, cur));
            }
            path.reverse();
            return Some(path);
        }
        if depth as usize >= max_len {
            continue;
        }
        let (nbuf, nn) = geom.neighbors_array(p);
        for &q in &nbuf[..nn] {
            if layout.is_free(q) {
                let qi = geom.index_of(q);
                if bfs.try_visit(qi, pi) {
                    bfs.queue.push_back((qi as u32, depth + 1));
                }
            }
        }
    }
    None
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
    for (pa, pb) in sorted {
        let cells = geometry.path_between(*pa, *pb);
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
        let mut layout = LayerLayout::new(LayerGeometry::new(8, 8));
        assert_eq!(layout.occupied_area(), 0);
        layout.place(NodeId::new(0), Position::new(2, 2));
        assert_eq!(layout.occupied_area(), 1);
        layout.place(NodeId::new(1), Position::new(4, 5));
        assert_eq!(layout.occupied_area(), 12);
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
    /// bitsets: scan one occupancy grid per shuffle layer for each pair.
    fn first_fit_on_cell_grids(
        pairs: &[(Position, Position)],
        geometry: LayerGeometry,
    ) -> (usize, usize) {
        if pairs.is_empty() {
            return (0, 0);
        }
        let mut sorted: Vec<&(Position, Position)> = pairs.iter().collect();
        sorted.sort_by_key(|(a, b)| a.manhattan(*b));
        let mut layers: Vec<CellGrid<()>> = vec![CellGrid::new(geometry)];
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
                .position(|used| interior.iter().all(|&c| used.is_free(c)));
            let slot = match slot {
                Some(s) => s,
                None => {
                    layers.push(CellGrid::new(geometry));
                    layers.len() - 1
                }
            };
            for &c in interior {
                layers[slot].set(c, ());
            }
            fusions += cells.len() + 1;
        }
        (layers.len(), fusions)
    }

    #[test]
    fn position_shuffles_match_the_cell_grid_first_fit() {
        use oneq_hardware::Topology;
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
        let mut layout = LayerLayout::new(LayerGeometry::new(5, 5));
        let target = Position::new(2, 2);
        layout.place(NodeId::new(0), target);
        assert_eq!(
            nearest_free_cell(&layout, target),
            Some(Position::new(1, 2)),
            "smallest row first"
        );
        layout.place(NodeId::new(1), Position::new(1, 2));
        assert_eq!(
            nearest_free_cell(&layout, target),
            Some(Position::new(2, 1)),
            "then smallest column"
        );
    }

    #[test]
    fn nearest_free_cell_on_full_layer_is_none() {
        let geom = LayerGeometry::new(2, 2);
        let mut layout = LayerLayout::new(geom);
        for (i, p) in geom.positions().enumerate() {
            layout.place(NodeId::new(i), p);
        }
        assert_eq!(nearest_free_cell(&layout, Position::new(0, 0)), None);
    }

    #[test]
    fn nearest_free_cell_clips_rings_at_the_border() {
        // Target in a corner: rings extend off-grid and must be clipped.
        let mut layout = LayerLayout::new(LayerGeometry::new(3, 3));
        layout.place(NodeId::new(0), Position::new(0, 0));
        assert_eq!(
            nearest_free_cell(&layout, Position::new(0, 0)),
            Some(Position::new(0, 1))
        );
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
                let cells_a: Vec<(Position, CellUse)> =
                    la.grid().iter().map(|(p, &c)| (p, c)).collect();
                let cells_b: Vec<(Position, CellUse)> =
                    lb.grid().iter().map(|(p, &c)| (p, c)).collect();
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
            assert_eq!(
                layout.grid().occupied_cells(),
                layout.placed_count() + layout.routing_cells()
            );
        }
    }
}
