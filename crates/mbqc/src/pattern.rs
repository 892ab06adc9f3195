//! Measurement patterns over graph states.

use crate::basis::Basis;
use oneq_graph::{Graph, GraphError, NodeId, Rows};
use std::fmt;

/// Errors produced when assembling patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternError {
    /// An underlying graph mutation failed.
    Graph(GraphError),
    /// A node id was out of range for this pattern.
    InvalidNode(NodeId),
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Graph(e) => write!(f, "graph error: {e}"),
            PatternError::InvalidNode(n) => write!(f, "node {n} does not exist in the pattern"),
        }
    }
}

impl std::error::Error for PatternError {}

impl From<GraphError> for PatternError {
    fn from(e: GraphError) -> Self {
        PatternError::Graph(e)
    }
}

/// A measurement pattern: a graph state plus per-qubit measurement bases
/// and the classical feed-forward structure (paper §2.2.1).
///
/// Each node is a graph-state qubit. `x_deps(i)` lists the qubits whose
/// measurement outcomes flip the sign of `i`'s measurement angle
/// (X-dependencies); `z_deps(i)` lists the qubits whose outcomes shift it
/// by π (Z-dependencies). Input and output node lists identify the logical
/// wires. Both dependency lists are [`Rows`] of one pooled buffer each, as
/// the graph state's adjacency is.
///
/// # Example
///
/// ```
/// use oneq_mbqc::{Basis, Pattern};
///
/// let mut p = Pattern::new();
/// let a = p.add_node(Basis::x());
/// let b = p.add_node(Basis::Output);
/// p.add_entangling_edge(a, b)?;
/// p.add_x_dependency(b, a)?;
/// assert_eq!(p.node_count(), 2);
/// assert_eq!(p.x_deps(b), &[a]);
/// # Ok::<(), oneq_mbqc::PatternError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pattern {
    graph: Graph,
    basis: Vec<Basis>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    x_deps: Rows,
    z_deps: Rows,
    /// Causal-flow successor per node: the qubit receiving the X-correction
    /// when this node is measured.
    flow: Vec<Option<NodeId>>,
}

impl Pattern {
    /// Creates an empty pattern.
    pub fn new() -> Self {
        Pattern::default()
    }

    /// Adds a qubit with the given basis and returns its node id.
    pub fn add_node(&mut self, basis: Basis) -> NodeId {
        let id = self.graph.add_node();
        self.basis.push(basis);
        self.x_deps.push_row();
        self.z_deps.push_row();
        self.flow.push(None);
        id
    }

    /// Adds (or, since CZ is involutive, *toggles*) an entangling edge.
    ///
    /// Two CZs between the same pair cancel, so inserting an existing edge
    /// removes it.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid endpoints or self-loops.
    pub fn add_entangling_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), PatternError> {
        if self.graph.has_edge(a, b) {
            self.graph.remove_edge(a, b);
            Ok(())
        } else {
            self.graph.add_edge(a, b)?;
            Ok(())
        }
    }

    /// Declares `n` an input node.
    pub fn mark_input(&mut self, n: NodeId) {
        self.inputs.push(n);
    }

    /// Declares `n` an output node (its basis should be [`Basis::Output`]).
    pub fn mark_output(&mut self, n: NodeId) {
        self.outputs.push(n);
    }

    /// Records that `node`'s angle sign depends on `on`'s outcome.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::InvalidNode`] for unknown ids.
    pub fn add_x_dependency(&mut self, node: NodeId, on: NodeId) -> Result<(), PatternError> {
        self.check(node)?;
        self.check(on)?;
        if !self.x_deps.row(node.index()).contains(&on) {
            self.x_deps.push(node.index(), on);
        }
        Ok(())
    }

    /// Records that `node`'s angle shifts by π depending on `on`'s outcome.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::InvalidNode`] for unknown ids.
    pub fn add_z_dependency(&mut self, node: NodeId, on: NodeId) -> Result<(), PatternError> {
        self.check(node)?;
        self.check(on)?;
        if !self.z_deps.row(node.index()).contains(&on) {
            self.z_deps.push(node.index(), on);
        }
        Ok(())
    }

    /// Records that every graph neighbor of `at` other than `on` shifts by
    /// π depending on `on`'s outcome, in `at`'s neighbor order: the
    /// Z-corrections of measuring `on` when `at` is its flow successor.
    /// Both ids must be nodes of the pattern.
    pub(crate) fn add_z_dependencies_around(&mut self, at: NodeId, on: NodeId) {
        for &w in self.graph.neighbors(at) {
            if w != on && !self.z_deps.row(w.index()).contains(&on) {
                self.z_deps.push(w.index(), on);
            }
        }
    }

    /// Sets the causal-flow successor of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::InvalidNode`] for unknown ids.
    pub fn set_flow(&mut self, node: NodeId, successor: NodeId) -> Result<(), PatternError> {
        self.check(node)?;
        self.check(successor)?;
        self.flow[node.index()] = Some(successor);
        Ok(())
    }

    /// Reassigns the basis of an existing node (crate-internal: the
    /// translation fixes a wire node's basis when the wire advances).
    pub(crate) fn set_basis_internal(&mut self, n: NodeId, basis: Basis) {
        self.basis[n.index()] = basis;
    }

    fn check(&self, n: NodeId) -> Result<(), PatternError> {
        if self.graph.contains_node(n) {
            Ok(())
        } else {
            Err(PatternError::InvalidNode(n))
        }
    }

    /// The underlying graph state.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of graph-state qubits.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of entangling edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The measurement basis of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn basis(&self, n: NodeId) -> Basis {
        self.basis[n.index()]
    }

    /// Input nodes in wire order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Output nodes in wire order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// X-dependencies of `n` (outcomes that flip its angle sign).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn x_deps(&self, n: NodeId) -> &[NodeId] {
        self.x_deps.row(n.index())
    }

    /// Z-dependencies of `n` (outcomes that shift its angle by π).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn z_deps(&self, n: NodeId) -> &[NodeId] {
        self.z_deps.row(n.index())
    }

    /// The causal-flow successor of `n`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn flow(&self, n: NodeId) -> Option<NodeId> {
        self.flow[n.index()]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes()
    }

    /// Nodes that are actually measured (everything except outputs).
    pub fn measured_nodes(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|&n| self.basis(n).is_measured())
            .collect()
    }

    /// Number of adaptive (non-Pauli equatorial) measurements.
    pub fn adaptive_count(&self) -> usize {
        self.nodes()
            .filter(|&n| self.basis(n).is_adaptive())
            .count()
    }

    /// Maximum node degree of the graph state — the quantity that forces
    /// node synthesis on low-degree resource states (paper challenge 2).
    pub fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Pattern(nodes={}, edges={}, inputs={}, outputs={}, adaptive={})",
            self.node_count(),
            self.edge_count(),
            self.inputs.len(),
            self.outputs.len(),
            self.adaptive_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_pattern() {
        let mut p = Pattern::new();
        let a = p.add_node(Basis::x());
        let b = p.add_node(Basis::Equatorial(0.7));
        let c = p.add_node(Basis::Output);
        p.add_entangling_edge(a, b).unwrap();
        p.add_entangling_edge(b, c).unwrap();
        p.mark_input(a);
        p.mark_output(c);
        p.add_x_dependency(b, a).unwrap();
        p.add_x_dependency(c, b).unwrap();
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        assert_eq!(p.inputs(), &[a]);
        assert_eq!(p.outputs(), &[c]);
        assert_eq!(p.x_deps(b), &[a]);
        assert_eq!(p.measured_nodes(), vec![a, b]);
        assert_eq!(p.adaptive_count(), 1);
    }

    #[test]
    fn double_cz_cancels() {
        let mut p = Pattern::new();
        let a = p.add_node(Basis::x());
        let b = p.add_node(Basis::x());
        p.add_entangling_edge(a, b).unwrap();
        assert_eq!(p.edge_count(), 1);
        p.add_entangling_edge(a, b).unwrap();
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn dependencies_are_deduplicated() {
        let mut p = Pattern::new();
        let a = p.add_node(Basis::x());
        let b = p.add_node(Basis::Equatorial(0.3));
        p.add_x_dependency(b, a).unwrap();
        p.add_x_dependency(b, a).unwrap();
        assert_eq!(p.x_deps(b).len(), 1);
        p.add_z_dependency(b, a).unwrap();
        p.add_z_dependency(b, a).unwrap();
        assert_eq!(p.z_deps(b).len(), 1);
    }

    #[test]
    fn invalid_node_errors() {
        let mut p = Pattern::new();
        let a = p.add_node(Basis::x());
        let ghost = NodeId::new(9);
        assert!(matches!(
            p.add_x_dependency(a, ghost),
            Err(PatternError::InvalidNode(_))
        ));
        assert!(matches!(
            p.set_flow(ghost, a),
            Err(PatternError::InvalidNode(_))
        ));
    }

    #[test]
    fn flow_roundtrip() {
        let mut p = Pattern::new();
        let a = p.add_node(Basis::x());
        let b = p.add_node(Basis::Output);
        p.set_flow(a, b).unwrap();
        assert_eq!(p.flow(a), Some(b));
        assert_eq!(p.flow(b), None);
    }

    #[test]
    fn display_summarizes() {
        let mut p = Pattern::new();
        p.add_node(Basis::x());
        let s = format!("{p}");
        assert!(s.contains("nodes=1"));
    }
}
