//! Circuit → measurement-pattern translation over `{J(α), CZ}`.
//!
//! The construction (paper §2.2.1, ref \[46\]): every circuit qubit starts as
//! an input node. A `J(α)` on wire `q` appends a fresh node `v` linked to
//! the wire's current node `u`, assigns `u` the measurement `E(-α)` and
//! makes `u → v` the causal flow (so `v` X-depends on `u`). A `CZ` becomes
//! an entangling edge between the two wires' current nodes (two CZs
//! cancel). The wires' final nodes are the outputs.
//!
//! Z-dependencies follow from the flow: measuring `u` applies `X^{s_u}` to
//! `f(u)` and `Z^{s_u}` to every other neighbor of `f(u)`; they are
//! derived after the full graph is known.

use crate::basis::Basis;
use crate::pattern::Pattern;
use oneq_circuit::{Circuit, Gate};
use oneq_graph::NodeId;

/// Translates `circuit` into a measurement pattern.
///
/// The circuit is first lowered to `{J(α), CZ}` via
/// [`oneq_circuit::decompose::to_jcz`]. The resulting pattern has one node
/// per circuit qubit (input) plus one node per J gate.
///
/// # Example
///
/// ```
/// use oneq_circuit::Circuit;
/// use oneq_mbqc::translate;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cz(0, 1);
/// let p = translate::from_circuit(&c);
/// assert_eq!(p.node_count(), 3); // 2 inputs + 1 J node
/// assert_eq!(p.outputs().len(), 2);
/// ```
pub fn from_circuit(circuit: &Circuit) -> Pattern {
    let lowered = oneq_circuit::decompose::to_jcz(circuit);
    from_jcz_circuit(&lowered)
}

/// Translates a circuit that is already in `{J(α), CZ}` form.
///
/// # Panics
///
/// Panics if the circuit contains any other gate kind.
pub fn from_jcz_circuit(circuit: &Circuit) -> Pattern {
    let n = circuit.n_qubits();
    let mut pattern = Pattern::new();

    // One input node per wire; basis fixed when the wire advances.
    let mut current: Vec<NodeId> = (0..n).map(|_| pattern.add_node(Basis::Output)).collect();
    for &input in &current {
        pattern.mark_input(input);
    }

    for gate in circuit.gates() {
        match *gate {
            Gate::J(q, alpha) => {
                let u = current[q.index()];
                let v = pattern.add_node(Basis::Output);
                pattern
                    .add_entangling_edge(u, v)
                    .expect("fresh node edge is valid");
                // u is now measured: J(α) is implemented by E(-α) on u.
                set_basis(&mut pattern, u, Basis::Equatorial(-alpha));
                pattern.set_flow(u, v).expect("nodes exist");
                pattern.add_x_dependency(v, u).expect("nodes exist");
                current[q.index()] = v;
            }
            Gate::Cz(a, b) => {
                let (u, v) = (current[a.index()], current[b.index()]);
                pattern
                    .add_entangling_edge(u, v)
                    .expect("wire nodes are distinct");
            }
            ref other => panic!("circuit must be in {{J, CZ}} form, found {other}"),
        }
    }

    for &out in &current {
        pattern.mark_output(out);
    }

    // Derive Z-dependencies from the flow: measuring u corrects X on f(u)
    // and Z on the other neighbors of f(u).
    for u in (0..pattern.node_count()).map(NodeId::new) {
        if !pattern.basis(u).is_measured() {
            continue;
        }
        if let Some(fu) = pattern.flow(u) {
            pattern.add_z_dependencies_around(fu, u);
        }
    }

    pattern
}

// `Pattern` keeps bases private; re-assignment happens through this helper
// which rebuilds the slot in place.
fn set_basis(pattern: &mut Pattern, node: NodeId, basis: Basis) {
    pattern.set_basis_internal(node, basis);
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneq_circuit::benchmarks;
    use std::f64::consts::PI;

    #[test]
    fn single_h_makes_two_node_chain() {
        let mut c = Circuit::new(1);
        c.h(0);
        let p = from_circuit(&c);
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.edge_count(), 1);
        assert_eq!(p.inputs().len(), 1);
        assert_eq!(p.outputs().len(), 1);
        let input = p.inputs()[0];
        assert_eq!(p.basis(input), Basis::Equatorial(-0.0));
        assert!(p.basis(p.outputs()[0]) == Basis::Output);
    }

    #[test]
    fn j_angle_is_negated() {
        let mut c = Circuit::new(1);
        c.j(0, PI / 4.0);
        let p = from_circuit(&c);
        let input = p.inputs()[0];
        assert_eq!(p.basis(input).angle(), Some(-PI / 4.0));
    }

    #[test]
    fn cz_only_circuit_has_no_measured_nodes() {
        let mut c = Circuit::new(2);
        c.cz(0, 1);
        let p = from_circuit(&c);
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.edge_count(), 1);
        assert!(p.measured_nodes().is_empty());
        // Inputs double as outputs ("in/out" nodes, paper Fig. 3).
        assert_eq!(p.inputs(), p.outputs());
    }

    #[test]
    fn node_count_is_inputs_plus_j_gates() {
        let c = benchmarks::qft(4);
        let lowered = oneq_circuit::decompose::to_jcz(&c);
        let js = lowered
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::J(_, _)))
            .count();
        let p = from_jcz_circuit(&lowered);
        assert_eq!(p.node_count(), 4 + js);
    }

    #[test]
    fn x_dependency_follows_wire() {
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        let p = from_circuit(&c);
        // Chain: input - v1 - v2; v1 x-depends on input, v2 on v1.
        for n in p.nodes() {
            if let Some(f) = p.flow(n) {
                assert_eq!(p.x_deps(f), &[n]);
            }
        }
    }

    #[test]
    fn z_dependency_from_cz_neighbor() {
        // H on both wires then CZ: measuring input a corrects Z on wire b's
        // current node (neighbor of f(a)).
        let mut c = Circuit::new(2);
        c.h(0).h(1).cz(0, 1);
        let p = from_circuit(&c);
        let (a_in, b_in) = (p.inputs()[0], p.inputs()[1]);
        let (a_out, b_out) = (p.outputs()[0], p.outputs()[1]);
        assert!(p.graph().has_edge(a_out, b_out));
        assert!(p.z_deps(b_out).contains(&a_in));
        assert!(p.z_deps(a_out).contains(&b_in));
    }

    #[test]
    fn high_degree_node_from_many_czs() {
        // One wire doing CZ with 3 others after an H each -> degree-4 node
        // (3 CZ edges + 1 wire edge), mirroring node G of paper Fig. 6.
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        c.cz(0, 1).cz(0, 2).cz(0, 3);
        let p = from_circuit(&c);
        assert_eq!(p.max_degree(), 4);
    }

    #[test]
    fn double_cz_cancels_in_pattern() {
        let mut c = Circuit::new(2);
        c.cz(0, 1).cz(0, 1);
        let p = from_circuit(&c);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn adaptive_counts_match_non_clifford_js() {
        let c = benchmarks::qft(4);
        let p = from_circuit(&c);
        assert!(p.adaptive_count() > 0);
        // BV is all-Clifford: no adaptive measurements at all.
        let bv = benchmarks::bv(&[true, false, true]);
        let p = from_circuit(&bv);
        assert_eq!(p.adaptive_count(), 0);
    }

    #[test]
    #[should_panic(expected = "J, CZ")]
    fn from_jcz_rejects_other_gates() {
        let mut c = Circuit::new(1);
        c.h(0);
        from_jcz_circuit(&c);
    }
}
