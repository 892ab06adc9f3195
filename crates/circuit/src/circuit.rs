//! The circuit container and builder API.

use crate::gate::{Angle, Gate, Qubit};
use std::fmt;

/// Errors produced when constructing circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate referenced a qubit outside `0..n_qubits`.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: Qubit,
        /// The circuit width.
        n_qubits: usize,
    },
    /// A multi-qubit gate referenced the same qubit twice.
    DuplicateQubit(Qubit),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, n_qubits } => {
                write!(f, "qubit {qubit} out of range for {n_qubits}-qubit circuit")
            }
            CircuitError::DuplicateQubit(q) => {
                write!(f, "multi-qubit gate uses qubit {q} more than once")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A quantum circuit: an ordered gate list over `n_qubits` wires.
///
/// The builder methods (`h`, `cz`, `cnot`, ...) validate qubit indices and
/// panic on misuse; [`Circuit::push`] is the fallible variant.
///
/// # Example
///
/// ```
/// use oneq_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).t(1);
/// assert_eq!(c.gate_count(), 3);
/// assert_eq!(c.two_qubit_count(), 1);
/// assert_eq!(c.depth(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` wires.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Circuit width.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The gate list in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of gates acting on two or more qubits.
    pub fn two_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_multi_qubit()).count()
    }

    /// Appends a gate after validating its qubits.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] or
    /// [`CircuitError::DuplicateQubit`] when the gate is malformed for this
    /// circuit.
    pub fn push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        let qs = gate.qubits();
        for &q in &qs {
            if q.index() >= self.n_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    n_qubits: self.n_qubits,
                });
            }
        }
        for (i, &q) in qs.iter().enumerate() {
            if qs[i + 1..].contains(&q) {
                return Err(CircuitError::DuplicateQubit(q));
            }
        }
        self.gates.push(gate);
        Ok(())
    }

    fn push_ok(&mut self, gate: Gate) -> &mut Self {
        self.push(gate).expect("builder gate must be valid");
        self
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push_ok(Gate::H(Qubit::new(q)))
    }

    /// Appends a Pauli X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push_ok(Gate::X(Qubit::new(q)))
    }

    /// Appends a Pauli Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push_ok(Gate::Y(Qubit::new(q)))
    }

    /// Appends a Pauli Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push_ok(Gate::Z(Qubit::new(q)))
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push_ok(Gate::S(Qubit::new(q)))
    }

    /// Appends an S† gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push_ok(Gate::Sdg(Qubit::new(q)))
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push_ok(Gate::T(Qubit::new(q)))
    }

    /// Appends a T† gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push_ok(Gate::Tdg(Qubit::new(q)))
    }

    /// Appends an Rz rotation.
    pub fn rz(&mut self, q: usize, angle: Angle) -> &mut Self {
        self.push_ok(Gate::Rz(Qubit::new(q), angle))
    }

    /// Appends an Rx rotation.
    pub fn rx(&mut self, q: usize, angle: Angle) -> &mut Self {
        self.push_ok(Gate::Rx(Qubit::new(q), angle))
    }

    /// Appends a J(α) gate.
    pub fn j(&mut self, q: usize, angle: Angle) -> &mut Self {
        self.push_ok(Gate::J(Qubit::new(q), angle))
    }

    /// Appends a CZ gate.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push_ok(Gate::Cz(Qubit::new(a), Qubit::new(b)))
    }

    /// Appends a CNOT gate.
    pub fn cnot(&mut self, control: usize, target: usize) -> &mut Self {
        self.push_ok(Gate::Cnot {
            control: Qubit::new(control),
            target: Qubit::new(target),
        })
    }

    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push_ok(Gate::Swap(Qubit::new(a), Qubit::new(b)))
    }

    /// Appends a controlled-phase gate.
    pub fn cp(&mut self, a: usize, b: usize, angle: Angle) -> &mut Self {
        self.push_ok(Gate::Cp(Qubit::new(a), Qubit::new(b), angle))
    }

    /// Appends a Toffoli gate.
    pub fn ccx(&mut self, c1: usize, c2: usize, target: usize) -> &mut Self {
        self.push_ok(Gate::Ccx {
            c1: Qubit::new(c1),
            c2: Qubit::new(c2),
            target: Qubit::new(target),
        })
    }

    /// Circuit depth: the length of the longest chain of gates sharing
    /// qubits (each gate occupies one time step on all of its qubits).
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let level = g
                .qubits()
                .iter()
                .map(|q| frontier[q.index()])
                .max()
                .unwrap_or(0)
                + 1;
            for q in g.qubits() {
                frontier[q.index()] = level;
            }
            depth = depth.max(level);
        }
        depth
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.n_qubits)?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cz(1, 2).t(2);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.two_qubit_count(), 2);
        assert_eq!(c.n_qubits(), 3);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut c = Circuit::new(1);
        let err = c.push(Gate::H(Qubit::new(5))).unwrap_err();
        assert_eq!(
            err,
            CircuitError::QubitOutOfRange {
                qubit: Qubit::new(5),
                n_qubits: 1
            }
        );
    }

    #[test]
    fn duplicate_qubit_is_rejected() {
        let mut c = Circuit::new(2);
        let err = c
            .push(Gate::Cnot {
                control: Qubit::new(0),
                target: Qubit::new(0),
            })
            .unwrap_err();
        assert_eq!(err, CircuitError::DuplicateQubit(Qubit::new(0)));
    }

    #[test]
    #[should_panic(expected = "valid")]
    fn builder_panics_on_bad_qubit() {
        Circuit::new(1).cz(0, 3);
    }

    #[test]
    fn depth_tracks_qubit_conflicts() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // parallel: depth 1
        assert_eq!(c.depth(), 1);
        c.cnot(0, 1); // depth 2
        c.cnot(1, 2); // depth 3 (shares qubit 1)
        assert_eq!(c.depth(), 3);
        c.h(0); // fits at level 3
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn empty_circuit_depth_is_zero() {
        assert_eq!(Circuit::new(4).depth(), 0);
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1);
        let s = format!("{c}");
        assert!(s.contains("H q0"));
        assert!(s.contains("CZ q0 q1"));
    }
}
