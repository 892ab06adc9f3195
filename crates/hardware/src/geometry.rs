//! Physical-layer geometry: the RSG grid and extended layers.

use std::fmt;

/// Largest neighbourhood size across all topologies (triangular: 6).
pub const MAX_NEIGHBORS: usize = 6;

/// A grid coordinate inside a physical layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
}

impl Position {
    /// Creates a position.
    pub fn new(row: usize, col: usize) -> Self {
        Position { row, col }
    }

    /// Manhattan distance to `other`.
    pub fn manhattan(&self, other: Position) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// The coupling structure between neighbouring RSGs within a layer.
///
/// The paper evaluates the orthogonal grid but notes its optimizations
/// "are also applicable when the coupling structure between RSGs are not
/// orthogonal (e.g., triangular, hexagonal)" (§7.2); this enum makes those
/// variants first-class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// 4-neighbour square grid (the paper's default).
    #[default]
    Orthogonal,
    /// 6-neighbour triangular lattice (adds the NE/SW diagonals).
    Triangular,
    /// 3-neighbour honeycomb: each site couples E/W plus N or S depending
    /// on the cell parity.
    Hexagonal,
}

/// The rectangular RSG array producing one physical layer per clock cycle.
///
/// # Example
///
/// ```
/// use oneq_hardware::{LayerGeometry, Position};
///
/// let g = LayerGeometry::new(3, 4);
/// assert_eq!(g.area(), 12);
/// assert_eq!(g.neighbors(Position::new(0, 0)).len(), 2);
/// assert_eq!(g.neighbors(Position::new(1, 1)).len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerGeometry {
    rows: usize,
    cols: usize,
    topology: Topology,
}

impl LayerGeometry {
    /// Creates a `rows x cols` layer with orthogonal coupling.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "layer dimensions must be positive");
        LayerGeometry {
            rows,
            cols,
            topology: Topology::Orthogonal,
        }
    }

    /// A square layer of the given side.
    pub fn square(side: usize) -> Self {
        LayerGeometry::new(side, side)
    }

    /// Returns the same array with a different coupling topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The coupling topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The rectangular layer closest to `area` with `length/width ≈ ratio`
    /// (paper Fig. 13 uses ratio ∈ {1, 1.5, 2.1, 2.6} at area ≈ 256).
    pub fn from_area_and_ratio(area: usize, ratio: f64) -> Self {
        assert!(area > 0, "area must be positive");
        assert!(ratio >= 1.0, "ratio is length/width >= 1");
        let width = ((area as f64) / ratio).sqrt().round().max(1.0) as usize;
        let length = area.div_ceil(width);
        LayerGeometry::new(width, length)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of RSG sites (the paper's *physical area*).
    pub fn area(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` when `p` lies inside the layer.
    pub fn contains(&self, p: Position) -> bool {
        p.row < self.rows && p.col < self.cols
    }

    /// The fusion-coupled neighbourhood of `p` (topology-dependent),
    /// clipped to the layer.
    pub fn neighbors(&self, p: Position) -> Vec<Position> {
        let (buf, n) = self.neighbors_array(p);
        buf[..n].to_vec()
    }

    /// Allocation-free variant of [`LayerGeometry::neighbors`] for hot
    /// loops: returns a fixed buffer plus the valid count. Order matches
    /// `neighbors` exactly (routers rely on it for stable tie-breaking).
    pub fn neighbors_array(&self, p: Position) -> ([Position; MAX_NEIGHBORS], usize) {
        let mut out = [Position::new(0, 0); MAX_NEIGHBORS];
        let mut n = 0usize;
        let mut push = |r: isize, c: isize| {
            if r >= 0 && c >= 0 && (r as usize) < self.rows && (c as usize) < self.cols {
                out[n] = Position::new(r as usize, c as usize);
                n += 1;
            }
        };
        let (r, c) = (p.row as isize, p.col as isize);
        match self.topology {
            Topology::Orthogonal => {
                push(r - 1, c);
                push(r + 1, c);
                push(r, c - 1);
                push(r, c + 1);
            }
            Topology::Triangular => {
                push(r - 1, c);
                push(r + 1, c);
                push(r, c - 1);
                push(r, c + 1);
                push(r - 1, c + 1);
                push(r + 1, c - 1);
            }
            Topology::Hexagonal => {
                push(r, c - 1);
                push(r, c + 1);
                if (p.row + p.col) % 2 == 0 {
                    push(r - 1, c);
                } else {
                    push(r + 1, c);
                }
            }
        }
        (out, n)
    }

    /// A shortest coupled path from `a` to `b`, inclusive of both
    /// endpoints (used by shuffle-layer planning).
    ///
    /// The path is the one a breadth-first search from `a` finds when it
    /// expands neighbours in [`LayerGeometry::neighbors`] order. On the
    /// orthogonal grid that is always the L-path that runs along `a`'s
    /// column to `b`'s row, then along `b`'s row, so it is built directly
    /// in O(path). Triangular and hexagonal layers run the search on a
    /// dense row-major predecessor array.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint lies outside the layer or, for the
    /// hexagonal topology, if the honeycomb is disconnected at size 1.
    pub fn path_between(&self, a: Position, b: Position) -> Vec<Position> {
        let mut path = Vec::new();
        self.path_between_into(a, b, &mut path);
        path
    }

    /// [`LayerGeometry::path_between`] written into `path` (cleared
    /// first), so a caller that plans many paths reuses one buffer.
    ///
    /// # Panics
    ///
    /// As [`LayerGeometry::path_between`].
    pub fn path_between_into(&self, a: Position, b: Position, path: &mut Vec<Position>) {
        assert!(self.contains(a) && self.contains(b), "endpoints on layer");
        path.clear();
        match self.topology {
            Topology::Orthogonal => column_then_row(a, b, path),
            Topology::Triangular | Topology::Hexagonal => self.bfs_path(a, b, path),
        }
    }

    /// Breadth-first shortest path in neighbourhood order (FIFO queue,
    /// first discovery wins), over a dense predecessor array, written
    /// into the empty `path`.
    fn bfs_path(&self, a: Position, b: Position, path: &mut Vec<Position>) {
        const UNSEEN: usize = usize::MAX;
        let (ia, ib) = (self.index_of(a), self.index_of(b));
        let mut prev = vec![UNSEEN; self.area()];
        prev[ia] = ia;
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(p) = queue.pop_front() {
            let ip = self.index_of(p);
            if ip == ib {
                break;
            }
            let (nbuf, nn) = self.neighbors_array(p);
            for &q in &nbuf[..nn] {
                let iq = self.index_of(q);
                if prev[iq] == UNSEEN {
                    prev[iq] = ip;
                    queue.push_back(q);
                }
            }
        }
        assert!(prev[ib] != UNSEEN, "layer topology must be connected");
        path.push(b);
        let mut cur = ib;
        while prev[cur] != cur {
            cur = prev[cur];
            path.push(Position::new(cur / self.cols, cur % self.cols));
        }
        path.reverse();
    }

    /// Row-major iterator over all positions.
    pub fn positions(&self) -> impl Iterator<Item = Position> + '_ {
        let cols = self.cols;
        (0..self.rows * self.cols).map(move |i| Position::new(i / cols, i % cols))
    }

    /// Row-major linear index of `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the layer.
    pub fn index_of(&self, p: Position) -> usize {
        assert!(self.contains(p), "{p} outside {self}");
        p.row * self.cols + p.col
    }
}

impl fmt::Display for LayerGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// The orthogonal-grid shuffle path from `a` to `b`, inclusive, written
/// into the empty `path`: along `a`'s column to `b`'s row, then along
/// `b`'s row.
fn column_then_row(a: Position, b: Position, path: &mut Vec<Position>) {
    path.reserve(a.manhattan(b) + 1);
    path.push(a);
    let mut row = a.row;
    while row != b.row {
        row = if row < b.row { row + 1 } else { row - 1 };
        path.push(Position::new(row, a.col));
    }
    let mut col = a.col;
    while col != b.col {
        col = if col < b.col { col + 1 } else { col - 1 };
        path.push(Position::new(b.row, col));
    }
}

/// An *extended physical layer* (paper §3.1, Fig. 5b): `factor` consecutive
/// physical layers treated as one wide 2-D grid by keeping the boundary
/// temporal connections; every second sub-layer is mirrored so the
/// serpentine stays contiguous.
///
/// # Example
///
/// ```
/// use oneq_hardware::{ExtendedLayer, LayerGeometry, Position};
///
/// let ext = ExtendedLayer::new(LayerGeometry::new(13, 13), 3);
/// assert_eq!(ext.geometry().cols(), 39); // Fig. 14: a 13x39 grid
/// let (sub, p) = ext.to_physical(Position::new(2, 20));
/// assert_eq!(sub, 1);
/// assert!(p.col < 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendedLayer {
    base: LayerGeometry,
    factor: usize,
}

impl ExtendedLayer {
    /// Combines `factor` consecutive layers of `base` geometry.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn new(base: LayerGeometry, factor: usize) -> Self {
        assert!(factor > 0, "extension factor must be positive");
        ExtendedLayer { base, factor }
    }

    /// The base (single-cycle) layer geometry.
    pub fn base(&self) -> LayerGeometry {
        self.base
    }

    /// Number of physical layers merged into this extended layer.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// The combined 2-D grid: same rows, `factor`× the columns, same
    /// coupling topology as the base layer.
    pub fn geometry(&self) -> LayerGeometry {
        LayerGeometry::new(self.base.rows(), self.base.cols() * self.factor)
            .with_topology(self.base.topology())
    }

    /// Maps an extended-grid position to `(sub_layer, physical position)`,
    /// mirroring odd sub-layers in the column direction (paper Fig. 5b).
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the extended grid.
    pub fn to_physical(&self, p: Position) -> (usize, Position) {
        assert!(self.geometry().contains(p), "{p} outside extended layer");
        let sub = p.col / self.base.cols();
        let local = p.col % self.base.cols();
        let col = if sub % 2 == 1 {
            self.base.cols() - 1 - local
        } else {
            local
        };
        (sub, Position::new(p.row, col))
    }

    /// Inverse of [`ExtendedLayer::to_physical`].
    ///
    /// # Panics
    ///
    /// Panics if `sub >= factor` or the position is outside the base layer.
    pub fn from_physical(&self, sub: usize, p: Position) -> Position {
        assert!(sub < self.factor, "sub-layer out of range");
        assert!(self.base.contains(p), "{p} outside base layer");
        let local = if sub % 2 == 1 {
            self.base.cols() - 1 - p.col
        } else {
            p.col
        };
        Position::new(p.row, sub * self.base.cols() + local)
    }
}

impl fmt::Display for ExtendedLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(x{})", self.base, self.factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn manhattan_distance() {
        assert_eq!(Position::new(1, 2).manhattan(Position::new(4, 0)), 5);
        assert_eq!(Position::new(3, 3).manhattan(Position::new(3, 3)), 0);
    }

    #[test]
    fn area_and_bounds() {
        let g = LayerGeometry::new(4, 5);
        assert_eq!(g.area(), 20);
        assert!(g.contains(Position::new(3, 4)));
        assert!(!g.contains(Position::new(4, 0)));
        assert!(!g.contains(Position::new(0, 5)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        LayerGeometry::new(0, 5);
    }

    #[test]
    fn neighbor_counts() {
        let g = LayerGeometry::new(3, 3);
        assert_eq!(g.neighbors(Position::new(0, 0)).len(), 2);
        assert_eq!(g.neighbors(Position::new(0, 1)).len(), 3);
        assert_eq!(g.neighbors(Position::new(1, 1)).len(), 4);
    }

    #[test]
    fn positions_cover_grid() {
        let g = LayerGeometry::new(2, 3);
        let all: Vec<Position> = g.positions().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], Position::new(0, 0));
        assert_eq!(all[5], Position::new(1, 2));
        assert_eq!(g.index_of(all[4]), 4);
    }

    #[test]
    fn ratio_variants_match_figure_13() {
        // Paper Fig. 13: 16x16 (1), 20x13 (1.5), 23x11 (2.1), 26x10 (2.6).
        let cases = [
            (1.0, (16, 16)),
            (1.5, (13, 20)),
            (2.1, (11, 24)),
            (2.6, (10, 26)),
        ];
        for (ratio, (rows, cols)) in cases {
            let g = LayerGeometry::from_area_and_ratio(256, ratio);
            assert_eq!(g.rows(), rows, "ratio {ratio}");
            // Allow one column of slack from rounding; area stays >= 256.
            assert!(g.cols().abs_diff(cols) <= 1, "ratio {ratio}: got {g}");
            assert!(g.area() >= 256);
        }
    }

    #[test]
    fn extended_layer_dimensions() {
        let ext = ExtendedLayer::new(LayerGeometry::new(13, 13), 3);
        let g = ext.geometry();
        assert_eq!((g.rows(), g.cols()), (13, 39));
        assert_eq!(ext.factor(), 3);
    }

    #[test]
    fn extended_mapping_roundtrip() {
        let ext = ExtendedLayer::new(LayerGeometry::new(4, 5), 3);
        for p in ext.geometry().positions() {
            let (sub, phys) = ext.to_physical(p);
            assert!(sub < 3);
            assert!(ext.base().contains(phys));
            assert_eq!(ext.from_physical(sub, phys), p);
        }
    }

    #[test]
    fn odd_sublayers_are_mirrored() {
        let ext = ExtendedLayer::new(LayerGeometry::new(2, 4), 2);
        // Column 4 is the first column of the mirrored sub-layer 1, which
        // maps to the *last* physical column so the boundary is contiguous.
        let (sub, phys) = ext.to_physical(Position::new(0, 4));
        assert_eq!(sub, 1);
        assert_eq!(phys, Position::new(0, 3));
    }

    #[test]
    fn triangular_topology_has_six_interior_neighbors() {
        let g = LayerGeometry::new(4, 4).with_topology(Topology::Triangular);
        assert_eq!(g.neighbors(Position::new(1, 1)).len(), 6);
        // Corner (0,0): E and S survive; NE and SW clip off-grid.
        assert_eq!(g.neighbors(Position::new(0, 0)).len(), 2);
        assert_eq!(g.topology(), Topology::Triangular);
    }

    #[test]
    fn hexagonal_topology_has_three_neighbors() {
        let g = LayerGeometry::new(4, 4).with_topology(Topology::Hexagonal);
        for p in g.positions() {
            assert!(g.neighbors(p).len() <= 3, "{p}");
        }
        // Interior parity: (1,1) even sum -> couples N; (1,2) odd -> S.
        assert!(g
            .neighbors(Position::new(1, 1))
            .contains(&Position::new(0, 1)));
        assert!(g
            .neighbors(Position::new(1, 2))
            .contains(&Position::new(2, 2)));
    }

    #[test]
    fn neighbors_are_symmetric_in_every_topology() {
        for topo in [
            Topology::Orthogonal,
            Topology::Triangular,
            Topology::Hexagonal,
        ] {
            let g = LayerGeometry::new(5, 6).with_topology(topo);
            for p in g.positions() {
                for q in g.neighbors(p) {
                    assert!(
                        g.neighbors(q).contains(&p),
                        "{topo:?}: {p} -> {q} not symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn path_between_follows_the_topology() {
        for topo in [
            Topology::Orthogonal,
            Topology::Triangular,
            Topology::Hexagonal,
        ] {
            let g = LayerGeometry::new(6, 6).with_topology(topo);
            let path = g.path_between(Position::new(0, 0), Position::new(5, 5));
            assert_eq!(path[0], Position::new(0, 0));
            assert_eq!(*path.last().unwrap(), Position::new(5, 5));
            for w in path.windows(2) {
                assert!(
                    g.neighbors(w[0]).contains(&w[1]),
                    "{topo:?}: step {} -> {} not coupled",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn triangular_paths_are_no_longer_than_orthogonal() {
        let ortho = LayerGeometry::new(8, 8);
        let tri = ortho.with_topology(Topology::Triangular);
        let (a, b) = (Position::new(0, 7), Position::new(7, 0));
        assert!(tri.path_between(a, b).len() <= ortho.path_between(a, b).len());
    }

    /// The hashed-map search `path_between` ran before the O(path) L-path
    /// and the dense-array search replaced it, run to exhaustion from `a`.
    /// That search stopped when it dequeued `b`, but a predecessor never
    /// changes after its first discovery, so its path to `b` is the path
    /// to `b` in this tree.
    fn hashed_bfs_tree(g: &LayerGeometry, a: Position) -> HashMap<Position, Position> {
        let mut prev: HashMap<Position, Position> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([a]);
        prev.insert(a, a);
        while let Some(p) = queue.pop_front() {
            for q in g.neighbors(p) {
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(q) {
                    e.insert(p);
                    queue.push_back(q);
                }
            }
        }
        prev
    }

    /// The path from the tree's root to `b`, or `None` where the old
    /// search panicked (disconnected honeycombs).
    fn tree_path(prev: &HashMap<Position, Position>, b: Position) -> Option<Vec<Position>> {
        let mut path = vec![b];
        let mut cur = b;
        while *prev.get(&cur)? != cur {
            cur = prev[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    #[test]
    fn path_between_matches_the_hashed_bfs_on_every_pair() {
        let shapes = [
            (1, 1),
            (1, 9),
            (9, 1),
            (2, 2),
            (5, 7),
            (9, 9),
            (12, 17),
            (17, 12),
            (23, 11),
        ];
        for topo in [
            Topology::Orthogonal,
            Topology::Triangular,
            Topology::Hexagonal,
        ] {
            for (rows, cols) in shapes {
                let g = LayerGeometry::new(rows, cols).with_topology(topo);
                for a in g.positions() {
                    let tree = hashed_bfs_tree(&g, a);
                    for b in g.positions() {
                        match tree_path(&tree, b) {
                            Some(path) => {
                                assert_eq!(g.path_between(a, b), path, "{topo:?} {g}: {a} -> {b}")
                            }
                            // Only single-column honeycombs are disconnected.
                            None => assert!(topo == Topology::Hexagonal && cols == 1),
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn path_between_panics_on_a_disconnected_honeycomb() {
        // A single-column honeycomb couples only rows (1,2), (3,4), ...
        let g = LayerGeometry::new(9, 1).with_topology(Topology::Hexagonal);
        g.path_between(Position::new(0, 0), Position::new(8, 0));
    }

    #[test]
    fn path_between_same_cell_is_singleton() {
        let g = LayerGeometry::new(3, 3);
        assert_eq!(
            g.path_between(Position::new(1, 1), Position::new(1, 1))
                .len(),
            1
        );
    }

    #[test]
    fn single_factor_extension_is_identity() {
        let ext = ExtendedLayer::new(LayerGeometry::new(3, 3), 1);
        for p in ext.geometry().positions() {
            assert_eq!(ext.to_physical(p), (0, p));
        }
    }

    /// `(couplings inside one sub-layer, those uncoupled once mapped
    /// through to_physical)` on a 16x16 x2 extended layer of `topology`.
    fn sub_layer_couplings(topology: Topology) -> (usize, usize) {
        let base = LayerGeometry::new(16, 16).with_topology(topology);
        let ext = ExtendedLayer::new(base, 2);
        let (mut inside, mut uncoupled) = (0, 0);
        for p in ext.geometry().positions() {
            for q in ext.geometry().neighbors(p) {
                let ((sp, pp), (sq, pq)) = (ext.to_physical(p), ext.to_physical(q));
                if sp != sq {
                    continue;
                }
                inside += 1;
                if !base.neighbors(pp).contains(&pq) {
                    uncoupled += 1;
                }
            }
        }
        (inside, uncoupled)
    }

    /// The premise of extended layers: the mirrored sub-layers keep every
    /// orthogonal coupling. Triangular and hexagonal couplings are not
    /// mirror-symmetric, which is why `Compiler::new` refuses extension on
    /// them.
    #[test]
    fn mirrored_sub_layers_keep_orthogonal_couplings_only() {
        assert_eq!(sub_layer_couplings(Topology::Orthogonal), (1920, 0));
        assert_eq!(sub_layer_couplings(Topology::Triangular), (2820, 450));
        assert_eq!(sub_layer_couplings(Topology::Hexagonal), (1440, 240));
    }
}
