//! Resource-state shapes and the node-synthesis cost model.

use oneq_graph::{Graph, NodeId};
use std::fmt;

/// The entangled state an RSG emits every clock cycle.
///
/// The paper evaluates 3-qubit lines (the default, matching the GHZ states
/// of ballistic schemes \[29\]) and 4-qubit line/star/ring states
/// (Fig. 12). `Ghz(n)` generalizes the star shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// A path of `n` qubits.
    Line(usize),
    /// A star: one center qubit attached to `n - 1` leaves (GHZ-class).
    Star(usize),
    /// A ring (cycle) of `n` qubits.
    Ring(usize),
}

impl ResourceKind {
    /// The paper's default 3-qubit linear resource state.
    pub const LINE3: ResourceKind = ResourceKind::Line(3);
    /// 4-qubit linear resource state.
    pub const LINE4: ResourceKind = ResourceKind::Line(4);
    /// 4-qubit star resource state.
    pub const STAR4: ResourceKind = ResourceKind::Star(4);
    /// 4-qubit ring resource state.
    pub const RING4: ResourceKind = ResourceKind::Ring(4);

    /// Number of photons in one resource state.
    pub fn qubit_count(&self) -> usize {
        match *self {
            ResourceKind::Line(n) | ResourceKind::Star(n) | ResourceKind::Ring(n) => n,
        }
    }

    /// Maximum qubit degree inside the resource state.
    pub fn max_degree(&self) -> usize {
        match *self {
            ResourceKind::Line(n) => match n {
                0 | 1 => 0,
                2 => 1,
                _ => 2,
            },
            ResourceKind::Star(n) => n.saturating_sub(1),
            ResourceKind::Ring(_) => 2,
        }
    }

    /// The entanglement graph of the resource state.
    ///
    /// # Panics
    ///
    /// Panics for rings with fewer than 3 qubits.
    pub fn graph(&self) -> Graph {
        match *self {
            ResourceKind::Line(n) => oneq_graph::generators::path(n),
            ResourceKind::Star(n) => oneq_graph::generators::star(n),
            ResourceKind::Ring(n) => oneq_graph::generators::cycle(n),
        }
    }

    /// Number of resource states chained to synthesize one graph-state
    /// node of the given `degree` (paper §5).
    ///
    /// For 3-qubit states each *degree-increment* fusion adds one free
    /// slot, so a degree-d node needs `d - 1` states (paper Fig. 8). For
    /// richer states, chaining the max-degree qubits merges `k` states
    /// into a node of degree `k·(m-2) + 2`, and rings are first tailored
    /// to lines by a Z-measurement (paper §5), giving the generic
    /// `d/m + 1` scaling the paper quotes.
    pub fn chain_nodes(&self, degree: usize) -> usize {
        if degree <= 1 {
            return 1;
        }
        match self.effective() {
            ResourceKind::Line(3) => degree.saturating_sub(1).max(1),
            kind => {
                let m = kind.max_degree().max(2);
                degree / m + 1
            }
        }
    }

    /// The shape actually used for synthesis: rings are tailored into
    /// lines one qubit shorter by removing a qubit with a Z-measurement
    /// (paper §5).
    pub fn effective(&self) -> ResourceKind {
        match *self {
            ResourceKind::Ring(n) => ResourceKind::Line(n.saturating_sub(1)),
            other => other,
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ResourceKind::Line(n) => write!(f, "{n}-line"),
            ResourceKind::Star(n) => write!(f, "{n}-star"),
            ResourceKind::Ring(n) => write!(f, "{n}-ring"),
        }
    }
}

/// Checks that `graph` (a candidate synthesized structure) respects the
/// degree budget of the resource kind: every node of the fusion graph must
/// host at most `qubit_count` fusions.
pub fn respects_degree_budget(kind: ResourceKind, fusion_graph: &Graph) -> bool {
    let budget = kind.effective().qubit_count();
    fusion_graph
        .nodes()
        .all(|n: NodeId| fusion_graph.degree(n) <= budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_counts() {
        assert_eq!(ResourceKind::LINE3.qubit_count(), 3);
        assert_eq!(ResourceKind::LINE4.qubit_count(), 4);
        assert_eq!(ResourceKind::STAR4.qubit_count(), 4);
        assert_eq!(ResourceKind::RING4.qubit_count(), 4);
    }

    #[test]
    fn max_degrees() {
        assert_eq!(ResourceKind::LINE3.max_degree(), 2);
        assert_eq!(ResourceKind::LINE4.max_degree(), 2);
        assert_eq!(ResourceKind::STAR4.max_degree(), 3);
        assert_eq!(ResourceKind::RING4.max_degree(), 2);
        assert_eq!(ResourceKind::Line(2).max_degree(), 1);
        assert_eq!(ResourceKind::Star(5).max_degree(), 4);
    }

    #[test]
    fn graphs_have_right_shape() {
        assert_eq!(ResourceKind::LINE3.graph().edge_count(), 2);
        assert_eq!(ResourceKind::STAR4.graph().edge_count(), 3);
        assert_eq!(ResourceKind::RING4.graph().edge_count(), 4);
    }

    #[test]
    fn three_qubit_chain_is_degree_minus_one() {
        // Paper Fig. 8: a degree-4 node needs 3 resource states.
        assert_eq!(ResourceKind::LINE3.chain_nodes(4), 3);
        assert_eq!(ResourceKind::LINE3.chain_nodes(2), 1);
        assert_eq!(ResourceKind::LINE3.chain_nodes(1), 1);
        assert_eq!(ResourceKind::LINE3.chain_nodes(6), 5);
    }

    #[test]
    fn star_chain_uses_generic_formula() {
        // m = 3 for 4-star: d/m + 1.
        assert_eq!(ResourceKind::STAR4.chain_nodes(4), 2);
        assert_eq!(ResourceKind::STAR4.chain_nodes(3), 2);
        assert_eq!(ResourceKind::STAR4.chain_nodes(9), 4);
        assert_eq!(ResourceKind::STAR4.chain_nodes(1), 1);
    }

    #[test]
    fn four_line_beats_three_line_on_high_degree() {
        for d in 4..12 {
            assert!(
                ResourceKind::LINE4.chain_nodes(d) <= ResourceKind::LINE3.chain_nodes(d),
                "4-line should need no more states than 3-line at degree {d}"
            );
        }
    }

    #[test]
    fn ring_is_tailored_to_shorter_line() {
        assert_eq!(ResourceKind::RING4.effective(), ResourceKind::Line(3));
        // Tailored to a 3-line, the ring inherits the d-1 law.
        assert_eq!(ResourceKind::RING4.chain_nodes(5), 4);
    }

    #[test]
    fn degree_budget_check() {
        let ok = oneq_graph::generators::path(4);
        assert!(respects_degree_budget(ResourceKind::LINE3, &ok));
        let hub = oneq_graph::generators::star(6); // center degree 5 > 3
        assert!(!respects_degree_budget(ResourceKind::LINE3, &hub));
    }

    #[test]
    fn display_names_match_figure_12_labels() {
        assert_eq!(ResourceKind::LINE3.to_string(), "3-line");
        assert_eq!(ResourceKind::LINE4.to_string(), "4-line");
        assert_eq!(ResourceKind::STAR4.to_string(), "4-star");
        assert_eq!(ResourceKind::RING4.to_string(), "4-ring");
    }
}
