//! Planarity testing with embedding extraction.
//!
//! OneQ needs planarity in three places: graph planarization during
//! partitioning (paper §4), planarity preservation in fusion-graph
//! generation (paper §5) and the planarity-aware in-layer search (paper §6).
//! All three need not just a yes/no answer but a *planar embedding*
//! (clockwise edge orders), so we implement **Demoucron's face-insertion
//! algorithm**: start from a cycle, repeatedly pick a fragment of the
//! remaining graph, and embed one of its paths into a face containing all of
//! the fragment's attachment points. If some fragment has no such face the
//! graph is non-planar. The algorithm is O(n·m) per biconnected component,
//! which is ample for the partition-sized graphs the compiler tests.
//!
//! General graphs are handled by decomposing into biconnected components
//! (a graph is planar iff all its biconnected components are) and merging
//! the per-component rotations at the cut vertices. The same fact lets
//! [`is_planar_extension`] retest a grown graph block by block: only the
//! blocks that hold a new edge can have become non-planar.
//!
//! Each block is copied into dense scratch (local ids, a CSR adjacency,
//! per-node and per-edge flags) that is reused across blocks, so the
//! face-insertion loop hashes nothing. A [`Scratch`] keeps that state,
//! with the biconnectivity sweep's, from one call to the next.

use crate::biconnected::{Blocks, Walk};
use crate::{Edge, Embedding, Graph, NodeId, Rows};

/// Result of [`check_planarity`].
#[derive(Debug, Clone)]
pub enum PlanarityResult {
    /// The graph is planar; a planar embedding (rotation system) is attached.
    Planar(Embedding),
    /// The graph is not planar.
    NonPlanar,
}

impl PlanarityResult {
    /// Returns `true` for the planar case.
    pub fn is_planar(&self) -> bool {
        matches!(self, PlanarityResult::Planar(_))
    }

    /// Extracts the embedding, if planar.
    pub fn into_embedding(self) -> Option<Embedding> {
        match self {
            PlanarityResult::Planar(e) => Some(e),
            PlanarityResult::NonPlanar => None,
        }
    }
}

/// Returns `true` if `graph` is planar.
///
/// # Example
///
/// ```
/// use oneq_graph::{generators, planarity};
///
/// assert!(planarity::is_planar(&generators::grid(4, 4)));
/// assert!(!planarity::is_planar(&generators::complete(5)));
/// assert!(!planarity::is_planar(&generators::complete_bipartite(3, 3)));
/// ```
pub fn is_planar(graph: &Graph) -> bool {
    Scratch::new().is_planar(graph)
}

/// Computes a planar embedding, or `None` when the graph is non-planar.
pub fn planar_embedding(graph: &Graph) -> Option<Embedding> {
    check_planarity(graph).into_embedding()
}

/// Tests planarity and extracts an embedding in one call.
///
/// The embedding merges per-biconnected-component embeddings; at a cut
/// vertex the rotations of the incident components are concatenated, which
/// preserves planarity.
pub fn check_planarity(graph: &Graph) -> PlanarityResult {
    Scratch::new().check_planarity(graph)
}

/// Decides whether a grown graph is planar, given that the subgraph
/// induced by its first `planar_prefix` nodes is planar.
///
/// Only the blocks holding an edge with an endpoint at index
/// `planar_prefix` or later are tested: a graph is planar iff its blocks
/// are, and a block made of old edges only lies inside a block of the
/// planar prefix. With `planar_prefix` of 0 this is a plain planarity
/// test, and the verdict always equals [`is_planar`]'s on the same graph.
///
/// # Example
///
/// ```
/// use oneq_graph::{generators, planarity, NodeId};
///
/// // K4 on nodes 0..4, then node 4 joined to all of them: K5.
/// let mut g = generators::complete(4);
/// assert!(planarity::is_planar_extension(&g, 0));
/// let hub = g.add_node();
/// for v in 0..4 {
///     g.add_edge(NodeId::new(v), hub).unwrap();
/// }
/// assert!(!planarity::is_planar_extension(&g, 4));
/// ```
pub fn is_planar_extension(graph: &Graph, planar_prefix: usize) -> bool {
    Scratch::new().is_planar_extension(graph, planar_prefix)
}

/// The buffers of planarity tests and embeddings, reusable from one call
/// to the next: the lowlink walk, the block list and the per-block
/// Demoucron state (CSR adjacency, flags, stamps, faces, rotation
/// corners). A caller that tests many graphs, as the partitioner does
/// for every layer it grows a partition by, keeps one `Scratch` and
/// passes it to each call; after the first few calls they allocate
/// nothing but the embeddings they return. A call's result never depends
/// on what the scratch held before.
///
/// # Example
///
/// ```
/// use oneq_graph::{generators, planarity};
///
/// let mut scratch = planarity::Scratch::new();
/// for n in 3..8 {
///     let g = generators::complete(n);
///     assert_eq!(scratch.is_planar(&g), n <= 4);
///     assert_eq!(scratch.check_planarity(&g).is_planar(), n <= 4);
/// }
/// ```
#[derive(Debug, Default)]
pub struct Scratch {
    walk: Walk,
    blocks: Blocks,
    block: Block,
}

impl Scratch {
    /// Empty buffers; they grow to the largest graph tested.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// [`is_planar`] on these buffers.
    pub fn is_planar(&mut self, graph: &Graph) -> bool {
        self.is_planar_extension(graph, 0)
    }

    /// [`check_planarity`] on these buffers.
    pub fn check_planarity(&mut self, graph: &Graph) -> PlanarityResult {
        let n = graph.node_count();
        // Quick Euler-bound rejection for simple graphs.
        if n >= 3 && graph.edge_count() > 3 * n - 6 {
            return PlanarityResult::NonPlanar;
        }
        // Rotation under construction: per node, a list of blocks (one per
        // biconnected component touching the node) concatenated at the
        // end. Each row ends up holding exactly the node's neighbors.
        let mut rotation = Rows::new();
        for v in graph.nodes() {
            rotation.push_row_with_capacity(graph.degree(v));
        }
        self.blocks.find(graph, graph.nodes(), &mut self.walk);
        self.block.fit(n);
        for edges in self.blocks.iter() {
            if let [bridge] = edges {
                // A bridge: both endpoints just get each other appended.
                rotation.push(bridge.a().index(), bridge.b());
                rotation.push(bridge.b().index(), bridge.a());
                continue;
            }
            self.block.load(edges);
            if !self.block.demoucron() {
                return PlanarityResult::NonPlanar;
            }
            self.block.append_rotations(&mut rotation);
        }
        PlanarityResult::Planar(Embedding::from_rows(rotation))
    }

    /// [`is_planar_extension`] on these buffers.
    pub fn is_planar_extension(&mut self, graph: &Graph, planar_prefix: usize) -> bool {
        let n = graph.node_count();
        // Quick Euler-bound rejection for simple graphs.
        if n >= 3 && graph.edge_count() > 3 * n - 6 {
            return false;
        }
        // Blocks holding a new edge lie in components holding a new node,
        // so the sweep starts from the new nodes only.
        let roots = (planar_prefix.min(n)..n).map(NodeId::new);
        self.blocks.find(graph, roots, &mut self.walk);
        self.block.fit(n);
        let block = &mut self.block;
        self.blocks
            .iter()
            .filter(|edges| edges.len() > 1 && edges.iter().any(|e| e.b().index() >= planar_prefix))
            .all(|edges| {
                block.load(edges);
                block.demoucron()
            })
    }
}

/// No local id: the node is not in the loaded block.
const NONE: usize = usize::MAX;

/// A fragment of the not-yet-embedded part of a block relative to the
/// embedded subgraph H: either a single chord between embedded nodes, or a
/// connected component of unembedded nodes together with its attachment
/// edges.
#[derive(Debug, Clone, Copy)]
enum Fragment {
    /// An unembedded edge between two embedded nodes.
    Chord(usize),
    /// A component of unembedded nodes, marked `id` in `Block::component`,
    /// whose smallest attachment is `start`.
    Component { id: usize, start: usize },
}

/// The faces a fragment fits in: none, exactly one, or several (the
/// first of them given).
#[derive(Debug, Clone, Copy)]
enum Fit {
    None,
    One(usize),
    Many(usize),
}

/// Dense scratch for one biconnected block at a time, reused across the
/// blocks of a graph and, inside a [`Scratch`], across graphs: local node
/// ids follow ascending global ids, and the adjacency keeps the order in
/// which the block's edges were handed in. Every buffer is rewritten
/// before it is read, so nothing carries over from one block to the next.
#[derive(Debug, Default)]
struct Block {
    /// Global id of each local node, ascending.
    nodes: Vec<NodeId>,
    /// Local id of each global node while a block loads, else [`NONE`]
    /// (between loads every entry is [`NONE`]).
    local: Vec<usize>,
    /// Endpoints of each local edge (smaller first), in load order.
    ends: Vec<(usize, usize)>,
    /// Edge ids in ascending endpoint order.
    sorted: Vec<usize>,
    /// CSR adjacency: node `v`'s `(neighbor, edge)` slots are
    /// `adj[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    adj: Vec<(usize, usize)>,
    /// Per-node write cursors into a CSR-sized array.
    fill: Vec<usize>,
    /// Faces as directed node cycles.
    faces: Vec<Vec<usize>>,
    /// Face vectors no longer in use, kept for their capacity.
    spare_faces: Vec<Vec<usize>>,
    embedded_node: Vec<bool>,
    embedded_edge: Vec<bool>,
    /// Fragment id of each unembedded node, for the round it was last
    /// grouped in; ids grow across rounds, so old marks never match.
    component: Vec<usize>,
    next_component: usize,
    /// Stamps for attachment sets and path searches.
    mark: Vec<usize>,
    next_mark: usize,
    /// BFS tree of the latest path search: `(predecessor, edge)`.
    prev: Vec<(usize, usize)>,
    queue: Vec<usize>,
    attachments: Vec<usize>,
    /// The latest fragment path, attachment to attachment.
    path: Vec<usize>,
    /// `find_cycle`'s DFS: `(parent, tree edge)` and state per node (0
    /// unvisited, 1 on the stack path, 2 done), and its frames.
    dfs_parent: Vec<(usize, usize)>,
    dfs_state: Vec<u8>,
    dfs_stack: Vec<(usize, usize)>,
    /// `append_rotations`' corner and successor tables, CSR-indexed, and
    /// each neighbor's slot in the current node's adjacency.
    corners: Vec<(usize, usize)>,
    next: Vec<usize>,
    position: Vec<usize>,
}

impl Block {
    /// Makes room for the global ids of a graph with `global_nodes` nodes.
    fn fit(&mut self, global_nodes: usize) {
        if self.local.len() < global_nodes {
            self.local.resize(global_nodes, NONE);
        }
    }

    /// Copies one block's edges into local ids.
    fn load(&mut self, edges: &[Edge]) {
        self.nodes.clear();
        for e in edges {
            for x in [e.a(), e.b()] {
                if self.local[x.index()] == NONE {
                    // Seen; the real id follows once the nodes are sorted.
                    self.local[x.index()] = 0;
                    self.nodes.push(x);
                }
            }
        }
        self.nodes.sort_unstable();
        for (i, &x) in self.nodes.iter().enumerate() {
            self.local[x.index()] = i;
        }
        let k = self.nodes.len();
        self.ends.clear();
        self.ends.extend(
            edges
                .iter()
                .map(|e| (self.local[e.a().index()], self.local[e.b().index()])),
        );
        for x in &self.nodes {
            self.local[x.index()] = NONE;
        }

        // CSR, filled in load order so each node's neighbor order is the
        // order its edges were handed in.
        self.start.clear();
        self.start.resize(k + 1, 0);
        for &(a, b) in &self.ends {
            self.start[a + 1] += 1;
            self.start[b + 1] += 1;
        }
        for v in 0..k {
            self.start[v + 1] += self.start[v];
        }
        self.adj.clear();
        self.adj.resize(2 * self.ends.len(), (0, 0));
        self.fill.clear();
        self.fill.extend_from_slice(&self.start[..k]);
        for (e, &(a, b)) in self.ends.iter().enumerate() {
            self.adj[self.fill[a]] = (b, e);
            self.fill[a] += 1;
            self.adj[self.fill[b]] = (a, e);
            self.fill[b] += 1;
        }
        self.sorted.clear();
        self.sorted.extend(0..self.ends.len());
        let ends = &self.ends;
        self.sorted.sort_unstable_by_key(|&e| ends[e]);

        self.mark.clear();
        self.mark.resize(k, 0);
        self.next_mark = 1;
        self.component.clear();
        self.component.resize(k, 0);
        self.next_component = 1;
        self.prev.resize(k, (0, 0));
    }

    /// Runs Demoucron's algorithm on the loaded block (biconnected, at
    /// least 3 nodes). Returns `false` when it is non-planar; otherwise
    /// `faces` holds the final face set.
    fn demoucron(&mut self) -> bool {
        let k = self.nodes.len();
        let m = self.ends.len();
        debug_assert!(k >= 3);
        if m > 3 * k - 6 {
            return false;
        }
        self.embedded_node.clear();
        self.embedded_node.resize(k, false);
        self.embedded_edge.clear();
        self.embedded_edge.resize(m, false);
        self.spare_faces.append(&mut self.faces);
        let mut cycle = take_face(&mut self.spare_faces);
        self.find_cycle(&mut cycle);
        let mut embedded = cycle.len();

        // Faces as directed node cycles: the cycle and its mirror.
        let mut mirror = take_face(&mut self.spare_faces);
        mirror.extend(cycle.iter().rev());
        self.faces.push(cycle);
        self.faces.push(mirror);

        while embedded < m {
            let Some((fragment, face)) = self.choose_fragment() else {
                return false;
            };
            // An alpha-path through the fragment between two attachments;
            // record it as embedded.
            embedded += self.fragment_path(fragment);
            for &v in &self.path[1..self.path.len() - 1] {
                self.embedded_node[v] = true;
            }
            self.split_face(face);
        }
        true
    }

    /// Finds a cycle by DFS (roots and neighbors in local order), marks
    /// its nodes and edges embedded and writes it into `cycle` as a node
    /// sequence.
    fn find_cycle(&mut self, cycle: &mut Vec<usize>) {
        let k = self.nodes.len();
        self.dfs_parent.clear();
        self.dfs_parent.resize(k, (NONE, NONE));
        self.dfs_state.clear();
        self.dfs_state.resize(k, 0);
        self.dfs_stack.clear();
        for root in 0..k {
            if self.dfs_state[root] != 0 {
                continue;
            }
            self.dfs_stack.push((root, 0));
            self.dfs_state[root] = 1;
            while let Some(&mut (u, ref mut i)) = self.dfs_stack.last_mut() {
                if let Some(&(v, e)) = self.adj[self.start[u]..self.start[u + 1]].get(*i) {
                    *i += 1;
                    if v == self.dfs_parent[u].0 {
                        continue;
                    }
                    if self.dfs_state[v] == 1 {
                        // Found a cycle: walk u back to v.
                        self.embedded_edge[e] = true;
                        cycle.push(u);
                        let mut cur = u;
                        while cur != v {
                            let (p, pe) = self.dfs_parent[cur];
                            self.embedded_edge[pe] = true;
                            cycle.push(p);
                            cur = p;
                        }
                        for &x in cycle.iter() {
                            self.embedded_node[x] = true;
                        }
                        return;
                    }
                    if self.dfs_state[v] == 0 {
                        self.dfs_parent[v] = (u, e);
                        self.dfs_state[v] = 1;
                        self.dfs_stack.push((v, 0));
                    }
                } else {
                    self.dfs_state[u] = 2;
                    self.dfs_stack.pop();
                }
            }
        }
        unreachable!("a biconnected graph with >=3 nodes has a cycle")
    }
    /// Picks the fragment to embed next and its face, scanning fragments
    /// in order (chords by endpoints, then components by smallest node):
    /// the first fragment that fits exactly one face, else the first
    /// fragment with its first admissible face. Returns `None` when a
    /// fragment met before the pick fits no face (non-planar).
    fn choose_fragment(&mut self) -> Option<(Fragment, usize)> {
        let mut fallback: Option<(Fragment, usize)> = None;

        // Chords: unembedded edges between embedded nodes.
        for i in 0..self.sorted.len() {
            let e = self.sorted[i];
            let (a, b) = self.ends[e];
            if self.embedded_edge[e] || !self.embedded_node[a] || !self.embedded_node[b] {
                continue;
            }
            self.attachments.clear();
            self.attachments.extend([a, b]);
            match self.admissible_faces() {
                Fit::None => return None,
                Fit::One(face) => return Some((Fragment::Chord(e), face)),
                Fit::Many(face) => {
                    fallback.get_or_insert((Fragment::Chord(e), face));
                }
            }
        }

        // Components of unembedded nodes.
        let first_id = self.next_component;
        for s in 0..self.nodes.len() {
            if self.embedded_node[s] || self.component[s] >= first_id {
                continue;
            }
            let id = self.next_component;
            self.next_component += 1;
            let stamp = self.next_mark;
            self.next_mark += 1;
            self.attachments.clear();
            self.queue.clear();
            self.queue.push(s);
            self.component[s] = id;
            let mut head = 0;
            while let Some(&u) = self.queue.get(head) {
                head += 1;
                for slot in self.start[u]..self.start[u + 1] {
                    let v = self.adj[slot].0;
                    if self.embedded_node[v] {
                        if self.mark[v] != stamp {
                            self.mark[v] = stamp;
                            self.attachments.push(v);
                        }
                    } else if self.component[v] != id {
                        self.component[v] = id;
                        self.queue.push(v);
                    }
                }
            }
            self.attachments.sort_unstable();
            let fragment = Fragment::Component {
                id,
                start: self.attachments[0],
            };
            match self.admissible_faces() {
                Fit::None => return None,
                Fit::One(face) => return Some((fragment, face)),
                Fit::Many(face) => {
                    fallback.get_or_insert((fragment, face));
                }
            }
        }
        fallback
    }

    /// Finds the faces holding every node of `attachments`, stopping at
    /// the second.
    fn admissible_faces(&mut self) -> Fit {
        let stamp = self.next_mark;
        self.next_mark += 1;
        for &a in &self.attachments {
            self.mark[a] = stamp;
        }
        let need = self.attachments.len();
        let mut count = 0;
        let mut first = 0;
        for (i, face) in self.faces.iter().enumerate() {
            // Faces of a biconnected embedding are simple cycles, so a
            // face holds every attachment iff it meets `need` marks.
            let mut hits = 0;
            for &v in face {
                if self.mark[v] == stamp {
                    hits += 1;
                    if hits == need {
                        break;
                    }
                }
            }
            if hits == need {
                if count == 0 {
                    first = i;
                }
                count += 1;
                if count == 2 {
                    break;
                }
            }
        }
        match count {
            0 => Fit::None,
            1 => Fit::One(first),
            _ => Fit::Many(first),
        }
    }

    /// Writes a path through `fragment` between two distinct attachments
    /// into `path`, marks its edges embedded and returns their number.
    fn fragment_path(&mut self, fragment: Fragment) -> usize {
        self.path.clear();
        let (id, start) = match fragment {
            Fragment::Chord(e) => {
                let (a, b) = self.ends[e];
                self.embedded_edge[e] = true;
                self.path.extend([a, b]);
                return 1;
            }
            Fragment::Component { id, start } => (id, start),
        };
        // BFS from `start` through the fragment's nodes until another
        // attachment is hit.
        let stamp = self.next_mark;
        self.next_mark += 1;
        self.queue.clear();
        for slot in self.start[start]..self.start[start + 1] {
            let (v, e) = self.adj[slot];
            if self.component[v] == id && self.mark[v] != stamp {
                self.mark[v] = stamp;
                self.prev[v] = (start, e);
                self.queue.push(v);
            }
        }
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for slot in self.start[u]..self.start[u + 1] {
                let (v, e) = self.adj[slot];
                if self.embedded_node[v] && v != start {
                    // Reached another attachment: reconstruct.
                    self.embedded_edge[e] = true;
                    self.path.extend([v, u]);
                    let mut cur = u;
                    while cur != start {
                        let (p, pe) = self.prev[cur];
                        self.embedded_edge[pe] = true;
                        self.path.push(p);
                        cur = p;
                    }
                    self.path.reverse();
                    return self.path.len() - 1;
                }
                if self.component[v] == id && self.mark[v] != stamp {
                    self.mark[v] = stamp;
                    self.prev[v] = (u, e);
                    self.queue.push(v);
                }
            }
        }
        unreachable!("biconnected graphs always yield a second attachment");
    }

    /// Splits `faces[face_idx]` along `path` (whose endpoints lie on the
    /// face): the face leaves by `swap_remove`, and its two halves are
    /// pushed after the others.
    fn split_face(&mut self, face_idx: usize) {
        let face = self.faces.swap_remove(face_idx);
        let path = &self.path;
        let a = path[0];
        let b = *path.last().expect("paths are non-empty");
        let pa = face
            .iter()
            .position(|&x| x == a)
            .expect("path endpoint lies on the face");
        let pb = face
            .iter()
            .position(|&x| x == b)
            .expect("path endpoint lies on the face");
        let interior = &path[1..path.len() - 1];

        // Face 1: a ->(face)-> b ->(reversed path)-> a.
        let mut f1 = take_face(&mut self.spare_faces);
        extend_cyclic_segment(&mut f1, &face, pa, pb);
        f1.extend(interior.iter().rev().copied());
        // Face 2: b ->(face)-> a ->(forward path)-> b.
        let mut f2 = take_face(&mut self.spare_faces);
        extend_cyclic_segment(&mut f2, &face, pb, pa);
        f2.extend(interior.iter().copied());

        self.faces.push(f1);
        self.faces.push(f2);
        self.spare_faces.push(face);
    }

    /// Reconstructs the rotation system from the consistently oriented
    /// face walks and appends each node's rotation, in global ids, to its
    /// row of `rotation`. Each rotation starts at the node's first
    /// neighbor.
    fn append_rotations(&mut self, rotation: &mut Rows) {
        let k = self.nodes.len();
        // Every corner u -> v -> w, bucketed by v: v has one corner per
        // incident edge, so the CSR offsets size the buckets.
        self.corners.clear();
        self.corners.resize(self.adj.len(), (0, 0));
        self.fill.clear();
        self.fill.extend_from_slice(&self.start[..k]);
        for face in &self.faces {
            let len = face.len();
            for i in 0..len {
                let v = face[i];
                self.corners[self.fill[v]] = (face[(i + len - 1) % len], face[(i + 1) % len]);
                self.fill[v] += 1;
            }
        }
        // next[slot of u at v] = slot of w at v, for every corner u -> v -> w
        // (slots relative to v's adjacency).
        self.next.clear();
        self.next.resize(self.adj.len(), 0);
        if self.position.len() < k {
            self.position.resize(k, 0);
        }
        for v in 0..k {
            let (lo, hi) = (self.start[v], self.start[v + 1]);
            debug_assert_eq!(self.fill[v], hi, "each directed edge lies on one face");
            for (i, &(w, _)) in self.adj[lo..hi].iter().enumerate() {
                self.position[w] = i;
            }
            for &(u, w) in &self.corners[lo..hi] {
                self.next[lo + self.position[u]] = self.position[w];
            }
            let row = self.nodes[v].index();
            let mut i = 0;
            loop {
                rotation.push(row, self.nodes[self.adj[lo + i].0]);
                i = self.next[lo + i];
                if i == 0 {
                    break;
                }
            }
        }
    }
}

/// An empty face vector, recycled from `spare` when one is there.
fn take_face(spare: &mut Vec<Vec<usize>>) -> Vec<usize> {
    let mut face = spare.pop().unwrap_or_default();
    face.clear();
    face
}

/// Appends `face[from..=to]` to `out`, walking forward and wrapping
/// around the end.
fn extend_cyclic_segment(out: &mut Vec<usize>, face: &[usize], from: usize, to: usize) {
    if from <= to {
        out.extend_from_slice(&face[from..=to]);
    } else {
        out.extend_from_slice(&face[from..]);
        out.extend_from_slice(&face[..=to]);
    }
}

/// The `HashSet`/`HashMap` Demoucron this module ran before its dense
/// rewrite (its debug assertions dropped): the reference the dense core
/// must match verdict for verdict and embedding for embedding.
#[cfg(test)]
mod reference {
    use crate::biconnected;
    use crate::{Edge, Embedding, Graph, NodeId};
    use std::collections::{HashMap, HashSet, VecDeque};

    pub(super) fn check_planarity(graph: &Graph) -> Option<Embedding> {
        let n = graph.node_count();
        if n >= 3 && graph.edge_count() > 3 * n - 6 {
            return None;
        }
        let mut rotation: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let bic = biconnected::analyze(graph);
        for comp_edges in &bic.components {
            if comp_edges.len() == 1 {
                let e = comp_edges[0];
                rotation[e.a().index()].push(e.b());
                rotation[e.b().index()].push(e.a());
                continue;
            }
            let mut nodes: Vec<NodeId> = comp_edges
                .iter()
                .flat_map(|e| [e.a(), e.b()])
                .collect::<HashSet<_>>()
                .into_iter()
                .collect();
            nodes.sort();
            let to_local: HashMap<NodeId, NodeId> = nodes
                .iter()
                .enumerate()
                .map(|(i, &old)| (old, NodeId::new(i)))
                .collect();
            let mut sub = Graph::with_nodes(nodes.len());
            for e in comp_edges {
                sub.add_edge(to_local[&e.a()], to_local[&e.b()]).unwrap();
            }
            if sub.node_count() >= 3 && sub.edge_count() > 3 * sub.node_count() - 6 {
                return None;
            }
            let local_rot = demoucron(&sub)?;
            for (local_idx, rot) in local_rot.into_iter().enumerate() {
                let global = nodes[local_idx];
                rotation[global.index()].extend(rot.into_iter().map(|ln| nodes[ln.index()]));
            }
        }
        Some(Embedding::from_rotations(rotation))
    }

    struct Fragment {
        attachments: Vec<NodeId>,
        inner: Vec<NodeId>,
        chord: Option<Edge>,
    }

    fn demoucron(g: &Graph) -> Option<Vec<Vec<NodeId>>> {
        let cycle = find_cycle(g).unwrap();
        let mut embedded_node = vec![false; g.node_count()];
        for &v in &cycle {
            embedded_node[v.index()] = true;
        }
        let mut embedded_edges: HashSet<Edge> = HashSet::new();
        for i in 0..cycle.len() {
            embedded_edges.insert(Edge::new(cycle[i], cycle[(i + 1) % cycle.len()]));
        }
        let mut faces: Vec<Vec<NodeId>> = vec![cycle.clone(), {
            let mut rev = cycle.clone();
            rev.reverse();
            rev
        }];
        while embedded_edges.len() < g.edge_count() {
            let fragments = compute_fragments(g, &embedded_node, &embedded_edges);
            let mut choice: Option<(usize, usize)> = None;
            let mut fallback: Option<(usize, usize)> = None;
            for (fi, frag) in fragments.iter().enumerate() {
                let admissible: Vec<usize> = faces
                    .iter()
                    .enumerate()
                    .filter(|(_, face)| frag.attachments.iter().all(|a| face.contains(a)))
                    .map(|(i, _)| i)
                    .collect();
                match admissible.len() {
                    0 => return None,
                    1 => {
                        choice = Some((fi, admissible[0]));
                        break;
                    }
                    _ => {
                        if fallback.is_none() {
                            fallback = Some((fi, admissible[0]));
                        }
                    }
                }
            }
            let (fi, face_idx) = choice.or(fallback).unwrap();
            let frag = &fragments[fi];
            let path = fragment_path(g, frag, &embedded_node);
            for w in path.windows(2) {
                embedded_edges.insert(Edge::new(w[0], w[1]));
            }
            for &v in &path[1..path.len() - 1] {
                embedded_node[v.index()] = true;
            }
            split_face(&mut faces, face_idx, &path);
        }
        Some(rotation_from_faces(g, &faces))
    }

    fn find_cycle(g: &Graph) -> Option<Vec<NodeId>> {
        let n = g.node_count();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut state = vec![0u8; n];
        for root in g.nodes() {
            if state[root.index()] != 0 {
                continue;
            }
            let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
            state[root.index()] = 1;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                let neigh = g.neighbors(u);
                if *i < neigh.len() {
                    let v = neigh[*i];
                    *i += 1;
                    if Some(v) == parent[u.index()] {
                        continue;
                    }
                    if state[v.index()] == 1 {
                        let mut cyc = vec![u];
                        let mut cur = u;
                        while cur != v {
                            cur = parent[cur.index()].unwrap();
                            cyc.push(cur);
                        }
                        return Some(cyc);
                    }
                    if state[v.index()] == 0 {
                        parent[v.index()] = Some(u);
                        state[v.index()] = 1;
                        stack.push((v, 0));
                    }
                } else {
                    state[u.index()] = 2;
                    stack.pop();
                }
            }
        }
        None
    }

    fn compute_fragments(
        g: &Graph,
        embedded_node: &[bool],
        embedded_edges: &HashSet<Edge>,
    ) -> Vec<Fragment> {
        let mut fragments = Vec::new();
        for e in g.sorted_edges() {
            if !embedded_edges.contains(&e)
                && embedded_node[e.a().index()]
                && embedded_node[e.b().index()]
            {
                fragments.push(Fragment {
                    attachments: vec![e.a(), e.b()],
                    inner: Vec::new(),
                    chord: Some(e),
                });
            }
        }
        let mut seen = vec![false; g.node_count()];
        for s in g.nodes() {
            if embedded_node[s.index()] || seen[s.index()] {
                continue;
            }
            let mut comp = Vec::new();
            let mut attach: HashSet<NodeId> = HashSet::new();
            let mut queue = VecDeque::from([s]);
            seen[s.index()] = true;
            while let Some(u) = queue.pop_front() {
                comp.push(u);
                for &v in g.neighbors(u) {
                    if embedded_node[v.index()] {
                        attach.insert(v);
                    } else if !seen[v.index()] {
                        seen[v.index()] = true;
                        queue.push_back(v);
                    }
                }
            }
            let mut attachments: Vec<NodeId> = attach.into_iter().collect();
            attachments.sort();
            fragments.push(Fragment {
                attachments,
                inner: comp,
                chord: None,
            });
        }
        fragments
    }

    fn fragment_path(g: &Graph, frag: &Fragment, embedded_node: &[bool]) -> Vec<NodeId> {
        if let Some(chord) = frag.chord {
            return vec![chord.a(), chord.b()];
        }
        let start = frag.attachments[0];
        let inner: HashSet<NodeId> = frag.inner.iter().copied().collect();
        let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
        let mut queue = VecDeque::new();
        for &v in g.neighbors(start) {
            if inner.contains(&v) && !prev.contains_key(&v) {
                prev.insert(v, start);
                queue.push_back(v);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if embedded_node[v.index()] && v != start {
                    let mut path = vec![v, u];
                    let mut cur = u;
                    while let Some(&p) = prev.get(&cur) {
                        path.push(p);
                        cur = p;
                        if p == start {
                            break;
                        }
                    }
                    path.reverse();
                    return path;
                }
                if inner.contains(&v) && !prev.contains_key(&v) {
                    prev.insert(v, u);
                    queue.push_back(v);
                }
            }
        }
        unreachable!()
    }

    fn split_face(faces: &mut Vec<Vec<NodeId>>, face_idx: usize, path: &[NodeId]) {
        let face = faces.swap_remove(face_idx);
        let a = path[0];
        let b = *path.last().unwrap();
        let pa = face.iter().position(|&x| x == a).unwrap();
        let pb = face.iter().position(|&x| x == b).unwrap();
        let k = face.len();
        let interior = &path[1..path.len() - 1];
        let mut seg_ab = Vec::new();
        let mut i = pa;
        loop {
            seg_ab.push(face[i]);
            if i == pb {
                break;
            }
            i = (i + 1) % k;
        }
        let mut seg_ba = Vec::new();
        let mut i = pb;
        loop {
            seg_ba.push(face[i]);
            if i == pa {
                break;
            }
            i = (i + 1) % k;
        }
        let mut f1 = seg_ab;
        f1.extend(interior.iter().rev().copied());
        let mut f2 = seg_ba;
        f2.extend(interior.iter().copied());
        faces.push(f1);
        faces.push(f2);
    }

    fn rotation_from_faces(g: &Graph, faces: &[Vec<NodeId>]) -> Vec<Vec<NodeId>> {
        let mut succ: Vec<HashMap<NodeId, NodeId>> = vec![HashMap::new(); g.node_count()];
        for face in faces {
            let k = face.len();
            for i in 0..k {
                let u = face[(i + k - 1) % k];
                let v = face[i];
                let w = face[(i + 1) % k];
                succ[v.index()].insert(u, w);
            }
        }
        let mut rotation = Vec::with_capacity(g.node_count());
        for v in g.nodes() {
            let map = &succ[v.index()];
            let mut rot = Vec::with_capacity(g.degree(v));
            if let Some(&start) = g.neighbors(v).first() {
                let mut cur = start;
                loop {
                    rot.push(cur);
                    cur = map[&cur];
                    if cur == start {
                        break;
                    }
                }
            }
            rotation.push(rot);
        }
        rotation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Same verdict as the reference, the same embedding when planar, and
    /// the same verdict from the decision-only path.
    fn assert_matches_reference(g: &Graph) {
        let dense = check_planarity(g).into_embedding();
        assert_eq!(dense, reference::check_planarity(g), "{g}");
        assert_eq!(is_planar(g), dense.is_some(), "{g}");
        if let Some(embedding) = dense {
            assert!(embedding.verify(g), "{g}");
        }
    }

    /// `g`'s edges inserted in a random order: the same graph with other
    /// neighbor orders, hence other DFS trees, fragments and faces.
    fn shuffled<R: Rng>(g: &Graph, rng: &mut R) -> Graph {
        let mut edges = g.sorted_edges();
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        let mut out = Graph::with_nodes(g.node_count());
        for e in edges {
            let (a, b) = if rng.gen_bool(0.5) {
                (e.a(), e.b())
            } else {
                (e.b(), e.a())
            };
            out.add_edge(a, b).unwrap();
        }
        out
    }

    /// A `rows x cols` grid with one diagonal per cell: a planar
    /// triangulation of the rectangle, dense enough to need many rounds.
    fn triangulated_grid(rows: usize, cols: usize) -> Graph {
        let mut g = generators::grid(rows, cols);
        for r in 1..rows {
            for c in 1..cols {
                g.add_edge(
                    NodeId::new((r - 1) * cols + c - 1),
                    NodeId::new(r * cols + c),
                )
                .unwrap();
            }
        }
        g
    }

    /// K5 with every edge subdivided once.
    fn subdivided_k5() -> Graph {
        let mut g = Graph::with_nodes(5);
        for e in generators::complete(5).sorted_edges() {
            let mid = g.add_node();
            g.add_edge(e.a(), mid).unwrap();
            g.add_edge(mid, e.b()).unwrap();
        }
        g
    }

    /// The `trial`-th graph of the random-graph sweep: `n` from 1 to 40
    /// nodes, cycling through four families.
    fn random_graph<R: Rng>(trial: usize, rng: &mut R) -> Graph {
        let n: usize = rng.gen_range(1..=40);
        match trial % 4 {
            // Sparse to dense G(n, m): edges per node from 0.5 to 3.
            0 | 1 => {
                let max_m = n * (n - 1) / 2;
                let per_node = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0][rng.gen_range(0..6usize)];
                let m = ((n as f64 * per_node) as usize).min(max_m);
                generators::gnm(n, m, rng)
            }
            // A random tree plus a few chords.
            2 => {
                let mut g = generators::random_tree(n, rng);
                for _ in 0..rng.gen_range(0..=n / 2 + 1) {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a != b {
                        g.add_edge(NodeId::new(a), NodeId::new(b)).unwrap();
                    }
                }
                g
            }
            // A random subgraph of a triangulated grid: planar, with
            // many blocks and cut vertices.
            _ => {
                let cols: usize = rng.gen_range(1..=6);
                let rows = (n / cols).max(1);
                let full = triangulated_grid(rows, cols);
                let keep: f64 = rng.gen_range(0.5..1.0);
                let mut g = Graph::with_nodes(full.node_count());
                for e in full.sorted_edges() {
                    if rng.gen_bool(keep) {
                        g.add_edge(e.a(), e.b()).unwrap();
                    }
                }
                shuffled(&g, rng)
            }
        }
    }

    /// A prefix case of the block-local sweep: a random G(n, m) and a
    /// random prefix length, or `None` when the prefix is non-planar
    /// (the extension test's premise fails).
    fn prefix_case<R: Rng>(rng: &mut R) -> Option<(Graph, usize)> {
        let n: usize = rng.gen_range(2..=40);
        let per_node = [1.0, 1.5, 2.0, 2.5, 3.0][rng.gen_range(0..5usize)];
        let m = ((n as f64 * per_node) as usize).min(n * (n - 1) / 2);
        let g = generators::gnm(n, m, rng);
        // Node ids are random, so a prefix is a random old part.
        let prefix = rng.gen_range(0..n);
        let old: Vec<NodeId> = (0..prefix).map(NodeId::new).collect();
        is_planar(&g.induced_subgraph(&old).0).then_some((g, prefix))
    }

    #[test]
    fn dense_core_matches_the_reference_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(2023);
        let mut planar = 0;
        for trial in 0..2400 {
            let g = random_graph(trial, &mut rng);
            if is_planar(&g) {
                planar += 1;
            }
            assert_matches_reference(&g);
        }
        // Both verdicts are exercised in volume.
        assert!(planar > 1000 && planar < 2300, "{planar} planar");
    }

    #[test]
    fn one_scratch_answers_as_fresh_calls_do() {
        // The two random sweeps, interleaved through one scratch: graphs
        // shrink and grow from call to call, embeddings alternate with
        // extension tests, so stale local ids, stamps, component ids or
        // faces would show as a different verdict or embedding.
        let mut scratch = Scratch::new();
        let mut graphs = StdRng::seed_from_u64(2023);
        let mut prefixes = StdRng::seed_from_u64(11);
        let (mut embedded, mut extended) = (0, 0);
        for trial in 0..3000 {
            if trial < 2400 {
                let g = random_graph(trial, &mut graphs);
                let fresh = check_planarity(&g).into_embedding();
                assert_eq!(fresh, reference::check_planarity(&g), "{g}");
                assert_eq!(scratch.check_planarity(&g).into_embedding(), fresh, "{g}");
                assert_eq!(scratch.is_planar(&g), fresh.is_some(), "{g}");
                embedded += 1;
            }
            if let Some((g, prefix)) = prefix_case(&mut prefixes) {
                let full = reference::check_planarity(&g).is_some();
                assert_eq!(is_planar_extension(&g, prefix), full, "{g}");
                assert_eq!(scratch.is_planar_extension(&g, prefix), full, "{g}");
                extended += 1;
            }
        }
        assert!(
            embedded == 2400 && extended > 2000,
            "{embedded} / {extended}"
        );
    }

    #[test]
    fn dense_core_matches_the_reference_on_generator_families() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut family: Vec<Graph> = Vec::new();
        family.extend((1..=8).map(generators::complete));
        family.extend((3..=12).map(generators::cycle));
        for rows in 1..=6 {
            for cols in 1..=6 {
                family.push(generators::grid(rows, cols));
                family.push(triangulated_grid(rows, cols));
            }
        }
        family.push(generators::complete_bipartite(3, 3));
        family.push(generators::complete_bipartite(2, 7));
        family.push(subdivided_k5());
        for g in family {
            assert_matches_reference(&g);
            for _ in 0..3 {
                assert_matches_reference(&shuffled(&g, &mut rng));
            }
        }
    }

    #[test]
    fn block_local_decision_matches_the_full_test() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut checked = 0;
        let mut non_planar = 0;
        for _ in 0..3000 {
            let Some((g, prefix)) = prefix_case(&mut rng) else {
                continue;
            };
            let full = reference::check_planarity(&g).is_some();
            assert_eq!(is_planar_extension(&g, prefix), full, "{g}");
            checked += 1;
            non_planar += usize::from(!full);
        }
        assert!(
            checked > 2000 && non_planar > 300,
            "{checked} / {non_planar}"
        );
    }

    #[test]
    fn extension_retests_only_blocks_with_new_edges() {
        // Old part: K5 (non-planar, so deliberately breaking the premise)
        // plus a pendant path; the new node hangs off the path, so its
        // block never meets K5 and the decision stays "planar".
        let mut g = generators::complete(5);
        let a = g.add_node();
        g.add_edge(NodeId::new(0), a).unwrap();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        assert!(is_planar_extension(&g, 6));
        // A new edge into K5 puts K5's block under test.
        g.add_edge(b, NodeId::new(1)).unwrap();
        assert!(!is_planar_extension(&g, 6));
    }

    fn assert_planar_with_valid_embedding(g: &Graph) {
        match check_planarity(g) {
            PlanarityResult::Planar(emb) => {
                assert!(emb.verify(g), "embedding must satisfy Euler's formula");
            }
            PlanarityResult::NonPlanar => panic!("graph should be planar: {g}"),
        }
    }

    #[test]
    fn trivial_graphs_are_planar() {
        assert_planar_with_valid_embedding(&Graph::new());
        assert_planar_with_valid_embedding(&Graph::with_nodes(5));
        assert_planar_with_valid_embedding(&generators::path(2));
    }

    #[test]
    fn trees_are_planar() {
        assert_planar_with_valid_embedding(&generators::path(10));
        assert_planar_with_valid_embedding(&generators::star(10));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_planar_with_valid_embedding(&generators::random_tree(30, &mut rng));
        }
    }

    #[test]
    fn cycles_and_grids_are_planar() {
        assert_planar_with_valid_embedding(&generators::cycle(3));
        assert_planar_with_valid_embedding(&generators::cycle(12));
        assert_planar_with_valid_embedding(&generators::grid(4, 4));
        assert_planar_with_valid_embedding(&generators::grid(7, 3));
    }

    #[test]
    fn small_complete_graphs() {
        assert_planar_with_valid_embedding(&generators::complete(3));
        assert_planar_with_valid_embedding(&generators::complete(4));
        assert!(!is_planar(&generators::complete(5)));
        assert!(!is_planar(&generators::complete(6)));
    }

    #[test]
    fn k33_is_non_planar() {
        assert!(!is_planar(&generators::complete_bipartite(3, 3)));
        assert!(is_planar(&generators::complete_bipartite(2, 3)));
        assert!(is_planar(&generators::complete_bipartite(2, 10)));
    }

    #[test]
    fn k5_subdivision_is_non_planar() {
        // Subdivide every edge of K5 with one extra node: still non-planar,
        // but passes the Euler bound check, exercising Demoucron proper.
        let k5 = generators::complete(5);
        let mut g = Graph::with_nodes(5);
        for e in k5.sorted_edges() {
            let mid = g.add_node();
            g.add_edge(e.a(), mid).unwrap();
            g.add_edge(mid, e.b()).unwrap();
        }
        assert_eq!(g.node_count(), 15);
        assert!(!is_planar(&g));
    }

    #[test]
    fn k4_with_pendant_trees_is_planar() {
        let mut g = generators::complete(4);
        let t = g.add_node();
        g.add_edge(NodeId::new(0), t).unwrap();
        let t2 = g.add_node();
        g.add_edge(t, t2).unwrap();
        assert_planar_with_valid_embedding(&g);
    }

    #[test]
    fn two_blocks_sharing_a_cut_vertex() {
        // Two K4s glued at node 0.
        let mut g = generators::complete(4);
        let extra: Vec<NodeId> = (0..3).map(|_| g.add_node()).collect();
        let mut block2 = vec![NodeId::new(0)];
        block2.extend(extra);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let _ = g.add_edge(block2[i], block2[j]);
            }
        }
        assert_planar_with_valid_embedding(&g);
    }

    #[test]
    fn wheel_graphs_are_planar() {
        // Wheel = cycle + hub connected to everything.
        for k in 3..8 {
            let mut g = generators::cycle(k);
            let hub = g.add_node();
            for i in 0..k {
                g.add_edge(hub, NodeId::new(i)).unwrap();
            }
            assert_planar_with_valid_embedding(&g);
        }
    }

    #[test]
    fn maximal_planar_triangulation_accepted_and_plus_one_edge_rejected() {
        // Octahedron: 6 nodes, 12 edges, 3n-6 = 12, planar and maximal.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 1),
                (5, 1),
                (5, 2),
                (5, 3),
                (5, 4),
            ],
        );
        assert_planar_with_valid_embedding(&g);
        let mut g2 = g.clone();
        g2.add_edge(NodeId::new(0), NodeId::new(5)).unwrap();
        assert!(!is_planar(&g2)); // now 13 > 3n-6
    }

    #[test]
    fn petersen_graph_is_non_planar() {
        let g = Graph::from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (0, 5),
                (1, 6),
                (2, 7),
                (3, 8),
                (4, 9),
                (5, 7),
                (7, 9),
                (9, 6),
                (6, 8),
                (8, 5),
            ],
        );
        assert!(!is_planar(&g));
    }

    #[test]
    fn random_subgraphs_of_grids_are_planar() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let full = generators::grid(5, 5);
            let mut g = Graph::with_nodes(25);
            for e in full.sorted_edges() {
                if rng.gen_bool(0.7) {
                    g.add_edge(e.a(), e.b()).unwrap();
                }
            }
            match check_planarity(&g) {
                PlanarityResult::Planar(emb) => {
                    assert!(emb.verify(&g), "trial {trial}: embedding must verify")
                }
                PlanarityResult::NonPlanar => {
                    panic!("trial {trial}: grid subgraph must be planar")
                }
            }
        }
    }

    #[test]
    fn disconnected_mixture() {
        let mut g = generators::complete(4);
        g.disjoint_union(&generators::cycle(5));
        g.disjoint_union(&generators::star(4));
        assert_planar_with_valid_embedding(&g);
        g.disjoint_union(&generators::complete(5));
        assert!(!is_planar(&g));
    }

    #[test]
    fn dense_planar_plus_random_nonplanar_edges() {
        // Nested triangles (prism-like), planar.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 3),
                (1, 4),
                (2, 5),
            ],
        );
        assert_planar_with_valid_embedding(&g);
    }
}
