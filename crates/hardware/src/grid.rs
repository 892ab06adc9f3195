//! Dense, row-major occupancy grids for layer layouts.
//!
//! The mapping engine (paper §6) tracks which grid cell holds what on
//! each layer it builds. Hashed cell maps make those queries O(1) but give
//! up two things a compiler hot path needs: *deterministic order*
//! (hashed order varies between otherwise identical runs, so tie-breaking
//! — and therefore layouts and reported metrics — drifts) and *cache
//! locality*. [`CellGrid`] stores cells in a flat `Vec` indexed
//! `row * cols + col`: queries stay O(1), and because a layer only gains
//! cells, its bounding box grows with each set and the mapper's
//! `occupied_area` cost term is O(1) per candidate.
//!
//! [`BfsScratch`] is the companion: reusable breadth-first-search
//! bookkeeping (visited marks, predecessor links, queue) that the in-layer
//! router re-arms in O(1) between searches via an epoch counter instead of
//! reallocating per call.

use crate::geometry::{LayerGeometry, Position};
use std::collections::VecDeque;

/// A dense, row-major, add-only occupancy grid over a [`LayerGeometry`].
///
/// Each cell is either free or holds a `T`; a set cell is never freed
/// again (a placed layer only gains cells), so the bounding box of the
/// occupied cells is a plain field that [`CellGrid::set`] grows.
///
/// # Example
///
/// ```
/// use oneq_hardware::{CellGrid, LayerGeometry, Position};
///
/// let mut grid: CellGrid<u32> = CellGrid::new(LayerGeometry::new(3, 4));
/// grid.set(Position::new(1, 2), 7);
/// assert!(grid.is_free(Position::new(0, 0)));
/// assert_eq!(grid.get(Position::new(1, 2)), Some(&7));
/// assert_eq!(grid.at(6), Some(&7)); // row-major: 1 * 4 + 2
/// assert_eq!(grid.occupied_cells(), 1);
/// assert_eq!(grid.bounding_box_area(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CellGrid<T> {
    geometry: LayerGeometry,
    cells: Vec<Option<T>>,
    occupied: usize,
    bbox: Option<(usize, usize, usize, usize)>,
}

impl<T> CellGrid<T> {
    /// An empty grid over `geometry`.
    pub fn new(geometry: LayerGeometry) -> Self {
        let mut cells = Vec::new();
        cells.resize_with(geometry.area(), || None);
        CellGrid {
            geometry,
            cells,
            occupied: 0,
            bbox: None,
        }
    }

    /// The underlying geometry.
    pub fn geometry(&self) -> LayerGeometry {
        self.geometry
    }

    /// The occupant of `p`, or `None` when the cell is free or outside the
    /// grid.
    pub fn get(&self, p: Position) -> Option<&T> {
        if !self.geometry.contains(p) {
            return None;
        }
        self.cells[self.geometry.index_of(p)].as_ref()
    }

    /// The occupant of the cell at row-major index `i` (`row * cols +
    /// col`), or `None` when it is free: the by-index probe for callers
    /// that already hold a cell index, with no position arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the grid's area.
    pub fn at(&self, i: usize) -> Option<&T> {
        self.cells[i].as_ref()
    }

    /// `true` when `p` lies inside the grid and is unoccupied.
    pub fn is_free(&self, p: Position) -> bool {
        self.geometry.contains(p) && self.cells[self.geometry.index_of(p)].is_none()
    }

    /// Occupies `p` with `value`, returning the previous occupant.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside the grid.
    pub fn set(&mut self, p: Position, value: T) -> Option<T> {
        let idx = self.geometry.index_of(p);
        let old = self.cells[idx].replace(value);
        if old.is_none() {
            self.occupied += 1;
            self.bbox = Some(match self.bbox {
                None => (p.row, p.row, p.col, p.col),
                Some((rmin, rmax, cmin, cmax)) => (
                    rmin.min(p.row),
                    rmax.max(p.row),
                    cmin.min(p.col),
                    cmax.max(p.col),
                ),
            });
        }
        old
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.occupied
    }

    /// `true` when no cell is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Area of the bounding box of all occupied cells (0 when empty).
    pub fn bounding_box_area(&self) -> usize {
        match self.bounding_box() {
            None => 0,
            Some((rmin, rmax, cmin, cmax)) => (rmax - rmin + 1) * (cmax - cmin + 1),
        }
    }

    /// Bounding box of all occupied cells as `(rmin, rmax, cmin, cmax)`,
    /// `None` when empty.
    pub fn bounding_box(&self) -> Option<(usize, usize, usize, usize)> {
        self.bbox
    }
}

/// Reusable breadth-first-search bookkeeping over a dense grid.
///
/// Holds visited marks, predecessor links, and the BFS queue as flat
/// buffers sized to the grid area. [`BfsScratch::begin`] re-arms the
/// scratch in O(1) (epoch bump) so a router performing thousands of
/// searches per compile allocates these buffers once.
///
/// # Example
///
/// ```
/// use oneq_hardware::BfsScratch;
///
/// let mut bfs = BfsScratch::new();
/// bfs.begin(16);
/// assert!(bfs.try_visit(5, 0));  // cell 5 discovered from cell 0
/// assert!(!bfs.try_visit(5, 3)); // already visited
/// assert_eq!(bfs.prev(5), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    mark: Vec<u32>,
    prev: Vec<u32>,
    epoch: u32,
    /// The BFS frontier as `(cell index, depth)` pairs.
    pub queue: VecDeque<(u32, u32)>,
    searches: u64,
    visits: u64,
    grows: u64,
    reuses: u64,
}

impl BfsScratch {
    /// An empty scratch; buffers grow on first [`BfsScratch::begin`].
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Starts a fresh search over `area` cells: clears the queue and
    /// invalidates all marks in O(1).
    pub fn begin(&mut self, area: usize) {
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
    pub fn try_visit(&mut self, cell: usize, prev: usize) -> bool {
        if self.mark[cell] == self.epoch {
            return false;
        }
        self.mark[cell] = self.epoch;
        self.prev[cell] = prev as u32;
        self.visits += 1;
        true
    }

    /// `true` when `cell` was visited this search.
    pub fn is_visited(&self, cell: usize) -> bool {
        self.mark[cell] == self.epoch
    }

    /// Predecessor of a visited `cell`.
    pub fn prev(&self, cell: usize) -> usize {
        debug_assert!(self.is_visited(cell));
        self.prev[cell] as usize
    }

    /// Lifetime number of searches started ([`BfsScratch::begin`] calls).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Lifetime number of cells newly visited (successful
    /// [`BfsScratch::try_visit`] calls) — the BFS expansion count.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Lifetime number of `begin` calls that had to grow the buffers.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Lifetime number of `begin` calls that reused the buffers as-is.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut grid: CellGrid<char> = CellGrid::new(LayerGeometry::new(4, 4));
        let p = Position::new(2, 3);
        assert!(grid.is_free(p));
        assert_eq!(grid.set(p, 'a'), None);
        assert!(!grid.is_free(p));
        assert_eq!(grid.get(p), Some(&'a'));
        assert_eq!(grid.set(p, 'b'), Some('a'));
        assert_eq!(grid.get(p), Some(&'b'));
        assert_eq!(grid.occupied_cells(), 1);
    }

    #[test]
    fn out_of_bounds_queries_are_free_of_occupants() {
        let grid: CellGrid<u8> = CellGrid::new(LayerGeometry::new(2, 2));
        let outside = Position::new(5, 5);
        assert_eq!(grid.get(outside), None);
        assert!(!grid.is_free(outside), "outside cells are not placeable");
    }

    #[test]
    fn bounding_box_grows_with_each_set() {
        let mut grid: CellGrid<()> = CellGrid::new(LayerGeometry::new(8, 8));
        assert_eq!(grid.bounding_box_area(), 0);
        assert!(grid.is_empty());
        grid.set(Position::new(2, 2), ());
        assert_eq!(grid.bounding_box_area(), 1);
        grid.set(Position::new(4, 5), ());
        assert_eq!(grid.bounding_box_area(), 12);
        grid.set(Position::new(3, 3), ());
        assert_eq!(grid.bounding_box(), Some((2, 4, 2, 5)), "an interior set");
    }

    #[test]
    fn bbox_matches_brute_force_under_random_churn() {
        // Deterministic LCG so the sequence is reproducible without the
        // rand shim; sets land on free and occupied cells alike.
        let mut state = 0x2023_cafe_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut grid: CellGrid<u8> = CellGrid::new(LayerGeometry::new(17, 19));
        let mut set = Vec::new();
        for step in 0..400 {
            let p = Position::new(next() % 17, next() % 19);
            grid.set(p, 1);
            set.push(p);
            let naive = (
                set.iter().map(|p| p.row).min().unwrap(),
                set.iter().map(|p| p.row).max().unwrap(),
                set.iter().map(|p| p.col).min().unwrap(),
                set.iter().map(|p| p.col).max().unwrap(),
            );
            assert_eq!(grid.bounding_box(), Some(naive), "step {step}");
        }
        set.sort_by_key(|p| (p.row, p.col));
        set.dedup();
        assert_eq!(grid.occupied_cells(), set.len());
    }

    #[test]
    fn bfs_scratch_epochs_invalidate() {
        let mut bfs = BfsScratch::new();
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
        let mut bfs = BfsScratch::new();
        bfs.begin(4);
        assert!(bfs.try_visit(3, 0));
        bfs.begin(100);
        assert!(bfs.try_visit(99, 98));
        assert_eq!(bfs.prev(99), 98);
    }

    #[test]
    fn bfs_scratch_profiling_counters_track_lifetime_activity() {
        let mut bfs = BfsScratch::new();
        bfs.begin(16); // first begin allocates
        assert!(bfs.try_visit(0, 0));
        assert!(bfs.try_visit(1, 0));
        assert!(!bfs.try_visit(1, 0), "revisit does not count");
        bfs.begin(16); // same area: reuse
        assert!(bfs.try_visit(2, 0));
        bfs.begin(64); // larger area: grow
        assert_eq!(bfs.searches(), 3);
        assert_eq!(bfs.visits(), 3);
        assert_eq!(bfs.grows(), 2);
        assert_eq!(bfs.reuses(), 1);
    }
}
