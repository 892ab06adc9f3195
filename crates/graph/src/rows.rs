//! Pooled rows: many short, growable lists of node ids in one buffer.
//!
//! Graphs, embeddings and measurement patterns keep one short list per
//! node (neighbors, rotations, dependencies). A `Vec` per node costs an
//! allocation per node and another per growth step; [`Rows`] carves every
//! list out of one shared buffer instead, so building a graph allocates
//! O(log) times in its size, not once per node.

use crate::NodeId;
use std::fmt;

/// Capacity a row gets when its first entry arrives.
const FIRST_CAP: u32 = 4;

/// Where one row lives in the shared buffer: `buf[start..start + len]`
/// holds its entries, and `buf[start..start + cap]` is reserved for it.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: u32,
    cap: u32,
}

/// An indexed sequence of rows, each an ordered list of [`NodeId`]s, all
/// stored in one buffer.
///
/// A row that is full when an entry arrives grows in place when its
/// reserved space ends the buffer, and otherwise moves to the buffer's
/// end with doubled capacity (its old slots are left unused). Entries keep
/// their insertion order through every move, and [`Rows::remove`] keeps
/// the order of the entries that stay. Two `Rows` are equal when they hold
/// equal rows, whatever their buffer layout.
///
/// # Example
///
/// ```
/// use oneq_graph::{NodeId, Rows};
///
/// let mut rows = Rows::with_rows(2);
/// for i in 0..6 {
///     rows.push(i % 2, NodeId::new(i));
/// }
/// assert_eq!(rows.row(0), [NodeId::new(0), NodeId::new(2), NodeId::new(4)]);
/// assert!(rows.remove(0, NodeId::new(2)));
/// assert_eq!(rows.row(0), [NodeId::new(0), NodeId::new(4)]);
/// assert_eq!(rows.row(1).len(), 3);
/// ```
#[derive(Clone, Default)]
pub struct Rows {
    buf: Vec<NodeId>,
    spans: Vec<Span>,
}

impl Rows {
    /// No rows.
    pub fn new() -> Self {
        Rows::default()
    }

    /// `n` empty rows.
    pub fn with_rows(n: usize) -> Self {
        Rows {
            buf: Vec::new(),
            spans: vec![
                Span {
                    start: 0,
                    len: 0,
                    cap: 0,
                };
                n
            ],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Appends an empty row and returns its index.
    pub fn push_row(&mut self) -> usize {
        self.push_row_with_capacity(0)
    }

    /// Appends an empty row with room for `cap` entries before it has to
    /// move, and returns its index.
    pub fn push_row_with_capacity(&mut self, cap: usize) -> usize {
        let start = self.buf.len();
        self.buf.resize(start + cap, NodeId::new(0));
        self.spans.push(Span {
            start,
            len: 0,
            cap: u32::try_from(cap).expect("row capacity fits in u32"),
        });
        self.spans.len() - 1
    }

    /// Appends a row holding a copy of `row`, and returns its index.
    pub fn push_row_from(&mut self, row: &[NodeId]) -> usize {
        let start = self.buf.len();
        self.buf.extend_from_slice(row);
        let len = u32::try_from(row.len()).expect("row length fits in u32");
        self.spans.push(Span {
            start,
            len,
            cap: len,
        });
        self.spans.len() - 1
    }

    /// The entries of row `r`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a row index.
    pub fn row(&self, r: usize) -> &[NodeId] {
        let s = self.spans[r];
        &self.buf[s.start..s.start + s.len as usize]
    }

    /// Row `r`, or `None` when `r` is not a row index.
    pub fn get(&self, r: usize) -> Option<&[NodeId]> {
        self.spans
            .get(r)
            .map(|s| &self.buf[s.start..s.start + s.len as usize])
    }

    /// Number of entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a row index.
    pub fn row_len(&self, r: usize) -> usize {
        self.spans[r].len as usize
    }

    /// Appends `x` to row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a row index.
    pub fn push(&mut self, r: usize, x: NodeId) {
        let s = &mut self.spans[r];
        if s.len == s.cap {
            let cap = if s.cap == 0 {
                FIRST_CAP
            } else {
                s.cap.checked_mul(2).expect("row capacity fits in u32")
            };
            if s.start + s.cap as usize != self.buf.len() {
                // Move the row to the end; its old slots stay unused.
                let old = s.start;
                s.start = self.buf.len();
                self.buf.extend_from_within(old..old + s.len as usize);
            }
            self.buf.resize(s.start + cap as usize, x);
            s.cap = cap;
        }
        self.buf[s.start + s.len as usize] = x;
        s.len += 1;
    }

    /// Removes the first `x` from row `r`, keeping the order of the other
    /// entries; returns whether `x` was there.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a row index.
    pub fn remove(&mut self, r: usize, x: NodeId) -> bool {
        let s = &mut self.spans[r];
        let end = s.start + s.len as usize;
        match self.buf[s.start..end].iter().position(|&y| y == x) {
            Some(i) => {
                self.buf.copy_within(s.start + i + 1..end, s.start + i);
                s.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Removes every row, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.spans.clear();
    }

    /// Every row, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.spans
            .iter()
            .map(|s| &self.buf[s.start..s.start + s.len as usize])
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Rows {}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn interleaved_pushes_keep_each_rows_order() {
        let mut rows = Rows::with_rows(3);
        let mut model: Vec<Vec<NodeId>> = vec![Vec::new(); 3];
        for i in 0..100 {
            let r = (i * 7 + i / 5) % 3;
            rows.push(r, NodeId::new(i));
            model[r].push(NodeId::new(i));
            for (r, want) in model.iter().enumerate() {
                assert_eq!(rows.row(r), &want[..]);
            }
        }
    }

    #[test]
    fn the_last_row_grows_in_place() {
        let mut rows = Rows::new();
        rows.push_row();
        let r = rows.push_row();
        for i in 0..20 {
            rows.push(r, NodeId::new(i));
        }
        // Moving at each doubling would have left 4 + 8 + 16 unused slots
        // behind the row's 32; growing in place leaves none.
        assert_eq!(rows.buf.len(), 32);
        assert_eq!(rows.row(r), &ids(&(0..20).collect::<Vec<_>>())[..]);
    }

    #[test]
    fn remove_keeps_the_remaining_order() {
        let mut rows = Rows::new();
        let r = rows.push_row_from(&ids(&[5, 3, 9, 3, 1]));
        assert!(rows.remove(r, NodeId::new(3)));
        assert_eq!(rows.row(r), &ids(&[5, 9, 3, 1])[..]);
        assert!(!rows.remove(r, NodeId::new(7)));
        assert!(rows.remove(r, NodeId::new(1)));
        rows.push(r, NodeId::new(8));
        assert_eq!(rows.row(r), &ids(&[5, 9, 3, 8])[..]);
    }

    #[test]
    fn equality_ignores_the_buffer_layout() {
        let mut a = Rows::with_rows(2);
        let mut b = Rows::new();
        b.push_row_with_capacity(8);
        b.push_row_from(&ids(&[2]));
        for i in 0..6 {
            a.push(0, NodeId::new(i));
            a.push(1, NodeId::new(10 + i));
        }
        for i in 0..6 {
            b.push(0, NodeId::new(i));
        }
        assert!(b.remove(1, NodeId::new(2)));
        for i in 0..6 {
            b.push(1, NodeId::new(10 + i));
        }
        assert_eq!(a, b);
        b.push_row();
        assert_ne!(a, b);
        a.push_row();
        assert_eq!(a, b);
        a.push(2, NodeId::new(0));
        assert_ne!(a, b);
        assert_eq!(
            format!("{b:?}"),
            format!("{:?}", b.iter().collect::<Vec<_>>())
        );
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut rows = Rows::with_rows(4);
        for i in 0..40 {
            rows.push(i % 4, NodeId::new(i));
        }
        let cap = rows.buf.capacity();
        rows.clear();
        assert!(rows.is_empty());
        assert_eq!(rows.buf.capacity(), cap);
        assert_eq!(rows.get(0), None);
    }
}
