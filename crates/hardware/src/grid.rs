//! Dense, row-major occupancy grids for layer layouts.
//!
//! The mapping engine (paper §6) and the baseline router both track which
//! grid cell holds what. Hashed cell maps make those queries O(1) but give
//! up two things a compiler hot path needs: *deterministic iteration*
//! (hashed order varies between otherwise identical runs, so tie-breaking
//! — and therefore layouts and reported metrics — drifts) and *cache
//! locality*. [`CellGrid`] stores cells in a flat `Vec` indexed
//! `row * cols + col`: queries stay O(1), iteration is row-major and
//! deterministic by construction, and the incremental bounding box makes
//! the mapper's `occupied_area` cost term O(1) per candidate.
//!
//! [`BfsScratch`] is the companion: reusable breadth-first-search
//! bookkeeping (visited marks, predecessor links, queue) that the in-layer
//! router re-arms in O(1) between searches via an epoch counter instead of
//! reallocating per call.

use crate::geometry::{LayerGeometry, Position};
use std::cell::Cell;
use std::collections::VecDeque;

/// Cached bounding-box state: either an up-to-date `(rmin, rmax, cmin,
/// cmax)` of the occupied cells (`None` when empty), or dirty after a
/// boundary-cell removal — recomputed lazily on the next read, so users
/// that never read the bounding box (e.g. the baseline SWAP router, which
/// moves occupants constantly) never pay the O(area) rescan.
#[derive(Debug, Clone, Copy)]
enum BboxCache {
    Clean(Option<(usize, usize, usize, usize)>),
    Dirty,
}

/// A dense, row-major occupancy grid over a [`LayerGeometry`].
///
/// Each cell is either free or holds a `T`. Iteration order is row-major
/// (row 0 left to right, then row 1, …) and therefore identical across
/// runs — the property the hashed predecessor of this type lacked.
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
    bbox: Cell<BboxCache>,
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
            bbox: Cell::new(BboxCache::Clean(None)),
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
            if let BboxCache::Clean(bbox) = self.bbox.get() {
                self.bbox.set(BboxCache::Clean(Some(match bbox {
                    None => (p.row, p.row, p.col, p.col),
                    Some((rmin, rmax, cmin, cmax)) => (
                        rmin.min(p.row),
                        rmax.max(p.row),
                        cmin.min(p.col),
                        cmax.max(p.col),
                    ),
                })));
            }
        }
        old
    }

    /// Frees `p`, returning its occupant. Removing a cell on the bounding
    /// box's edge only marks the box dirty; the O(area) rescan happens
    /// lazily on the next [`CellGrid::bounding_box`] read, so
    /// movement-style users that never read it (the baseline router) keep
    /// O(1) removal.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside the grid.
    pub fn remove(&mut self, p: Position) -> Option<T> {
        let idx = self.geometry.index_of(p);
        let old = self.cells[idx].take();
        if old.is_some() {
            self.occupied -= 1;
            if let BboxCache::Clean(Some((rmin, rmax, cmin, cmax))) = self.bbox.get() {
                if p.row == rmin || p.row == rmax || p.col == cmin || p.col == cmax {
                    self.bbox.set(BboxCache::Dirty);
                }
            }
        }
        old
    }

    fn recompute_bbox(&self) -> Option<(usize, usize, usize, usize)> {
        let mut bbox: Option<(usize, usize, usize, usize)> = None;
        for (p, _) in self.iter() {
            bbox = Some(match bbox {
                None => (p.row, p.row, p.col, p.col),
                Some((rmin, rmax, cmin, cmax)) => (
                    rmin.min(p.row),
                    rmax.max(p.row),
                    cmin.min(p.col),
                    cmax.max(p.col),
                ),
            });
        }
        bbox
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

    /// Bounding box of all occupied cells as `(rmin, rmax, cmin, cmax)`.
    /// O(1) while cells are only added; the first read after a
    /// boundary-cell removal rescans the grid.
    pub fn bounding_box(&self) -> Option<(usize, usize, usize, usize)> {
        match self.bbox.get() {
            BboxCache::Clean(bbox) => bbox,
            BboxCache::Dirty => {
                let bbox = self.recompute_bbox();
                self.bbox.set(BboxCache::Clean(bbox));
                bbox
            }
        }
    }

    /// Row-major iterator over the occupied cells — the deterministic
    /// replacement for hashed-map iteration.
    pub fn iter(&self) -> impl Iterator<Item = (Position, &T)> + '_ {
        let cols = self.geometry.cols();
        self.cells
            .iter()
            .enumerate()
            .filter_map(move |(i, c)| c.as_ref().map(|v| (Position::new(i / cols, i % cols), v)))
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
    fn set_get_remove_roundtrip() {
        let mut grid: CellGrid<char> = CellGrid::new(LayerGeometry::new(4, 4));
        let p = Position::new(2, 3);
        assert!(grid.is_free(p));
        assert_eq!(grid.set(p, 'a'), None);
        assert!(!grid.is_free(p));
        assert_eq!(grid.get(p), Some(&'a'));
        assert_eq!(grid.set(p, 'b'), Some('a'));
        assert_eq!(grid.occupied_cells(), 1);
        assert_eq!(grid.remove(p), Some('b'));
        assert!(grid.is_free(p));
        assert_eq!(grid.occupied_cells(), 0);
    }

    #[test]
    fn out_of_bounds_queries_are_free_of_occupants() {
        let grid: CellGrid<u8> = CellGrid::new(LayerGeometry::new(2, 2));
        let outside = Position::new(5, 5);
        assert_eq!(grid.get(outside), None);
        assert!(!grid.is_free(outside), "outside cells are not placeable");
    }

    #[test]
    fn iteration_is_row_major() {
        let mut grid: CellGrid<u32> = CellGrid::new(LayerGeometry::new(3, 3));
        // Insert in scrambled order; iteration must come back row-major.
        for p in [
            Position::new(2, 0),
            Position::new(0, 1),
            Position::new(1, 2),
            Position::new(0, 0),
        ] {
            grid.set(p, (p.row * 3 + p.col) as u32);
        }
        let order: Vec<Position> = grid.iter().map(|(p, _)| p).collect();
        assert_eq!(
            order,
            vec![
                Position::new(0, 0),
                Position::new(0, 1),
                Position::new(1, 2),
                Position::new(2, 0),
            ]
        );
    }

    #[test]
    fn bounding_box_grows_and_shrinks() {
        let mut grid: CellGrid<()> = CellGrid::new(LayerGeometry::new(8, 8));
        assert_eq!(grid.bounding_box_area(), 0);
        grid.set(Position::new(2, 2), ());
        assert_eq!(grid.bounding_box_area(), 1);
        grid.set(Position::new(4, 5), ());
        assert_eq!(grid.bounding_box_area(), 12);
        grid.remove(Position::new(4, 5));
        assert_eq!(grid.bounding_box_area(), 1);
        grid.remove(Position::new(2, 2));
        assert_eq!(grid.bounding_box_area(), 0);
        assert!(grid.is_empty());
    }

    #[test]
    fn interior_removal_keeps_bbox() {
        let mut grid: CellGrid<()> = CellGrid::new(LayerGeometry::new(5, 5));
        for p in [
            Position::new(0, 0),
            Position::new(2, 2),
            Position::new(4, 4),
        ] {
            grid.set(p, ());
        }
        grid.remove(Position::new(2, 2));
        assert_eq!(grid.bounding_box(), Some((0, 4, 0, 4)));
    }

    /// Brute-force reference bounding box.
    fn naive_bbox(grid: &CellGrid<u8>) -> Option<(usize, usize, usize, usize)> {
        let mut bbox: Option<(usize, usize, usize, usize)> = None;
        for (p, _) in grid.iter() {
            bbox = Some(match bbox {
                None => (p.row, p.row, p.col, p.col),
                Some((rmin, rmax, cmin, cmax)) => (
                    rmin.min(p.row),
                    rmax.max(p.row),
                    cmin.min(p.col),
                    cmax.max(p.col),
                ),
            });
        }
        bbox
    }

    #[test]
    fn bbox_shrinks_then_regrows_through_vacate_reoccupy() {
        // The mapping hot path vacates boundary cells (node shuffles) and
        // re-occupies nearby, repeatedly; the incremental box must track
        // every shrink-then-regrow exactly.
        let mut grid: CellGrid<u8> = CellGrid::new(LayerGeometry::new(10, 10));
        for p in [
            Position::new(1, 1),
            Position::new(1, 8),
            Position::new(8, 1),
            Position::new(8, 8),
            Position::new(4, 4),
        ] {
            grid.set(p, 0);
        }
        assert_eq!(grid.bounding_box(), Some((1, 8, 1, 8)));
        // Vacate one extreme corner: the box shrinks on the next read.
        grid.remove(Position::new(8, 8));
        assert_eq!(
            grid.bounding_box(),
            Some((1, 8, 1, 8)),
            "other extremes hold the box"
        );
        grid.remove(Position::new(8, 1));
        assert_eq!(
            grid.bounding_box(),
            Some((1, 4, 1, 8)),
            "bottom row vacated"
        );
        grid.remove(Position::new(1, 8));
        assert_eq!(grid.bounding_box(), Some((1, 4, 1, 4)));
        // Re-occupy beyond the shrunken box: it must regrow incrementally.
        grid.set(Position::new(9, 2), 0);
        assert_eq!(grid.bounding_box(), Some((1, 9, 1, 4)));
        // Vacate + immediately re-occupy the same boundary cell.
        grid.remove(Position::new(9, 2));
        grid.set(Position::new(9, 2), 0);
        assert_eq!(grid.bounding_box(), Some((1, 9, 1, 4)));
        assert_eq!(grid.bounding_box(), naive_bbox(&grid));
    }

    #[test]
    fn bbox_set_while_dirty_is_counted_on_the_next_read() {
        // Removing a boundary cell marks the cached box dirty; a set that
        // lands while it is dirty must still be reflected by the rescan.
        let mut grid: CellGrid<u8> = CellGrid::new(LayerGeometry::new(8, 8));
        grid.set(Position::new(2, 2), 0);
        grid.set(Position::new(5, 5), 0);
        assert_eq!(grid.bounding_box(), Some((2, 5, 2, 5)));
        grid.remove(Position::new(5, 5)); // dirties the cache...
        grid.set(Position::new(7, 0), 0); // ...and this set sees it dirty
        grid.set(Position::new(0, 7), 0);
        assert_eq!(grid.bounding_box(), Some((0, 7, 0, 7)));
        assert_eq!(grid.bounding_box(), naive_bbox(&grid));
    }

    #[test]
    fn bbox_empty_regrow_cycles() {
        let mut grid: CellGrid<u8> = CellGrid::new(LayerGeometry::new(6, 6));
        for _ in 0..3 {
            grid.set(Position::new(3, 2), 0);
            grid.set(Position::new(1, 4), 0);
            assert_eq!(grid.bounding_box(), Some((1, 3, 2, 4)));
            grid.remove(Position::new(3, 2));
            grid.remove(Position::new(1, 4));
            assert_eq!(grid.bounding_box(), None, "fully vacated grid has no box");
            assert_eq!(grid.bounding_box_area(), 0);
        }
    }

    #[test]
    fn bbox_matches_brute_force_under_random_churn() {
        // Deterministic LCG so the sequence is reproducible without the
        // rand shim; interleave reads at varying cadences so both the
        // incremental path and the lazy rescan path are exercised.
        let mut state = 0x2023_cafe_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let geometry = LayerGeometry::new(7, 9);
        let mut grid: CellGrid<u8> = CellGrid::new(geometry);
        for step in 0..2000 {
            let p = Position::new(next() % 7, next() % 9);
            if next() % 2 == 0 {
                grid.set(p, 1);
            } else {
                grid.remove(p);
            }
            // Read on a varying cadence: sometimes right after a dirtying
            // remove, sometimes after a burst of writes.
            if step % (1 + next() % 5) == 0 {
                assert_eq!(grid.bounding_box(), naive_bbox(&grid), "step {step}");
            }
        }
        assert_eq!(grid.bounding_box(), naive_bbox(&grid));
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
