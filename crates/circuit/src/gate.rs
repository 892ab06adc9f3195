//! Gate set of the circuit IR.

use std::f64::consts::PI;
use std::fmt;
use std::ops::Deref;

/// A qubit index inside a [`crate::Circuit`].
///
/// # Example
///
/// ```
/// use oneq_circuit::Qubit;
///
/// let q = Qubit::new(3);
/// assert_eq!(q.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qubit(usize);

impl Qubit {
    /// Creates a qubit handle from a raw index.
    pub fn new(index: usize) -> Self {
        Qubit(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<usize> for Qubit {
    fn from(i: usize) -> Self {
        Qubit(i)
    }
}

/// A rotation angle in radians.
pub type Angle = f64;

/// Normalizes an angle into `[0, 2π)`.
pub fn normalize_angle(a: Angle) -> Angle {
    let two_pi = 2.0 * PI;
    let mut r = a % two_pi;
    if r < 0.0 {
        r += two_pi;
    }
    // Collapse values that round to 2π back to 0.
    if (r - two_pi).abs() < 1e-12 {
        r = 0.0;
    }
    r
}

/// Returns `true` when `a` is a multiple of π/2 (a *Pauli/Clifford* angle):
/// equatorial measurements at these angles are X- or Y-basis measurements
/// and induce no adaptive dependencies (paper §4).
pub fn is_clifford_angle(a: Angle) -> bool {
    let r = normalize_angle(a);
    let step = r / (PI / 2.0);
    (step - step.round()).abs() < 1e-9
}

/// The gate set of the IR.
///
/// The set is chosen to cover the paper's benchmarks; everything lowers to
/// the universal set `{J(α), CZ}` via [`crate::decompose::to_jcz`], where
/// `J(α) = 1/√2 [[1, e^{iα}], [1, -e^{iα}]]` (paper §2.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Hadamard; equals `J(0)`.
    H(Qubit),
    /// Pauli X.
    X(Qubit),
    /// Pauli Y.
    Y(Qubit),
    /// Pauli Z.
    Z(Qubit),
    /// Phase gate S = diag(1, i).
    S(Qubit),
    /// Inverse phase gate S† = diag(1, -i).
    Sdg(Qubit),
    /// T = diag(1, e^{iπ/4}).
    T(Qubit),
    /// T† = diag(1, e^{-iπ/4}).
    Tdg(Qubit),
    /// Z-rotation: diag(1, e^{iθ}) up to global phase.
    Rz(Qubit, Angle),
    /// X-rotation.
    Rx(Qubit, Angle),
    /// The MBQC-native J gate: `J(α) = H · diag(1, e^{iα})`.
    J(Qubit, Angle),
    /// Controlled-Z (symmetric).
    Cz(Qubit, Qubit),
    /// Controlled-X.
    Cnot {
        /// Control qubit.
        control: Qubit,
        /// Target qubit.
        target: Qubit,
    },
    /// Swap two qubits.
    Swap(Qubit, Qubit),
    /// Controlled-phase: diag(1,1,1,e^{iθ}) (used by QFT).
    Cp(Qubit, Qubit, Angle),
    /// Toffoli (CCX); used by the ripple-carry adder.
    Ccx {
        /// First control.
        c1: Qubit,
        /// Second control.
        c2: Qubit,
        /// Target.
        target: Qubit,
    },
}

/// The qubits of one gate, held inline (a gate acts on at most three):
/// derefs to `&[Qubit]` and iterates by value, so reading a gate's qubits
/// allocates nothing.
///
/// # Example
///
/// ```
/// use oneq_circuit::{Gate, Qubit};
///
/// let g = Gate::Cz(Qubit::new(2), Qubit::new(0));
/// let qs = g.qubits();
/// assert_eq!(qs.len(), 2);
/// assert_eq!(qs[0], Qubit::new(2));
/// assert_eq!(qs.into_iter().map(Qubit::index).sum::<usize>(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateQubits {
    qubits: [Qubit; 3],
    len: u8,
}

impl GateQubits {
    fn new(qubits: &[Qubit]) -> Self {
        let mut inline = [Qubit(0); 3];
        inline[..qubits.len()].copy_from_slice(qubits);
        GateQubits {
            qubits: inline,
            len: qubits.len() as u8,
        }
    }
}

impl Deref for GateQubits {
    type Target = [Qubit];

    fn deref(&self) -> &[Qubit] {
        &self.qubits[..usize::from(self.len)]
    }
}

impl IntoIterator for GateQubits {
    type Item = Qubit;
    type IntoIter = std::iter::Take<std::array::IntoIter<Qubit, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.qubits.into_iter().take(usize::from(self.len))
    }
}

impl<'a> IntoIterator for &'a GateQubits {
    type Item = &'a Qubit;
    type IntoIter = std::slice::Iter<'a, Qubit>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Gate {
    /// The qubits this gate acts on, in a fixed order.
    pub fn qubits(&self) -> GateQubits {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Rz(q, _)
            | Gate::Rx(q, _)
            | Gate::J(q, _) => GateQubits::new(&[q]),
            Gate::Cz(a, b) | Gate::Swap(a, b) | Gate::Cp(a, b, _) => GateQubits::new(&[a, b]),
            Gate::Cnot { control, target } => GateQubits::new(&[control, target]),
            Gate::Ccx { c1, c2, target } => GateQubits::new(&[c1, c2, target]),
        }
    }

    /// Number of qubits the gate acts on.
    pub fn arity(&self) -> usize {
        match self {
            Gate::H(_)
            | Gate::X(_)
            | Gate::Y(_)
            | Gate::Z(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::T(_)
            | Gate::Tdg(_)
            | Gate::Rz(..)
            | Gate::Rx(..)
            | Gate::J(..) => 1,
            Gate::Cz(..) | Gate::Swap(..) | Gate::Cp(..) | Gate::Cnot { .. } => 2,
            Gate::Ccx { .. } => 3,
        }
    }

    /// `true` for gates acting on two or more qubits.
    pub fn is_multi_qubit(&self) -> bool {
        self.arity() > 1
    }

    /// `true` if the gate is already in the `{J(α), CZ}` universal set.
    pub fn is_j_or_cz(&self) -> bool {
        matches!(self, Gate::J(_, _) | Gate::Cz(_, _))
    }

    /// `true` if the gate is a Clifford operation.
    ///
    /// Rotations count as Clifford when their angle is a multiple of π/2.
    pub fn is_clifford(&self) -> bool {
        match *self {
            Gate::T(_) | Gate::Tdg(_) | Gate::Ccx { .. } => false,
            Gate::Rz(_, a) | Gate::Rx(_, a) | Gate::J(_, a) | Gate::Cp(_, _, a) => {
                is_clifford_angle(a)
            }
            _ => true,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::H(q) => write!(f, "H {q}"),
            Gate::X(q) => write!(f, "X {q}"),
            Gate::Y(q) => write!(f, "Y {q}"),
            Gate::Z(q) => write!(f, "Z {q}"),
            Gate::S(q) => write!(f, "S {q}"),
            Gate::Sdg(q) => write!(f, "Sdg {q}"),
            Gate::T(q) => write!(f, "T {q}"),
            Gate::Tdg(q) => write!(f, "Tdg {q}"),
            Gate::Rz(q, a) => write!(f, "Rz({a:.4}) {q}"),
            Gate::Rx(q, a) => write!(f, "Rx({a:.4}) {q}"),
            Gate::J(q, a) => write!(f, "J({a:.4}) {q}"),
            Gate::Cz(a, b) => write!(f, "CZ {a} {b}"),
            Gate::Cnot { control, target } => write!(f, "CNOT {control} {target}"),
            Gate::Swap(a, b) => write!(f, "SWAP {a} {b}"),
            Gate::Cp(a, b, t) => write!(f, "CP({t:.4}) {a} {b}"),
            Gate::Ccx { c1, c2, target } => write!(f, "CCX {c1} {c2} {target}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_roundtrip() {
        assert_eq!(Qubit::from(4).index(), 4);
        assert_eq!(format!("{}", Qubit::new(2)), "q2");
    }

    #[test]
    fn normalize_angle_wraps() {
        assert!((normalize_angle(2.5 * PI) - 0.5 * PI).abs() < 1e-12);
        assert!((normalize_angle(-0.5 * PI) - 1.5 * PI).abs() < 1e-12);
        assert_eq!(normalize_angle(0.0), 0.0);
        assert_eq!(normalize_angle(2.0 * PI), 0.0);
    }

    #[test]
    fn clifford_angles() {
        assert!(is_clifford_angle(0.0));
        assert!(is_clifford_angle(PI / 2.0));
        assert!(is_clifford_angle(PI));
        assert!(is_clifford_angle(-PI / 2.0));
        assert!(is_clifford_angle(7.0 * PI));
        assert!(!is_clifford_angle(PI / 4.0));
        assert!(!is_clifford_angle(0.3));
    }

    #[test]
    fn gate_qubits_and_arity() {
        let g = Gate::Cnot {
            control: Qubit::new(0),
            target: Qubit::new(1),
        };
        assert_eq!(g.arity(), 2);
        assert!(g.is_multi_qubit());
        assert!(!Gate::H(Qubit::new(0)).is_multi_qubit());
        assert_eq!(
            Gate::Ccx {
                c1: Qubit::new(0),
                c2: Qubit::new(1),
                target: Qubit::new(2)
            }
            .arity(),
            3
        );
    }

    #[test]
    fn every_variant_lists_its_qubits_in_order() {
        let (a, b, c) = (Qubit::new(4), Qubit::new(1), Qubit::new(7));
        let cases: Vec<(Gate, Vec<Qubit>)> = vec![
            (Gate::H(a), vec![a]),
            (Gate::X(a), vec![a]),
            (Gate::Y(a), vec![a]),
            (Gate::Z(a), vec![a]),
            (Gate::S(a), vec![a]),
            (Gate::Sdg(a), vec![a]),
            (Gate::T(a), vec![a]),
            (Gate::Tdg(a), vec![a]),
            (Gate::Rz(a, 0.5), vec![a]),
            (Gate::Rx(a, 0.5), vec![a]),
            (Gate::J(a, 0.5), vec![a]),
            (Gate::Cz(a, b), vec![a, b]),
            (
                Gate::Cnot {
                    control: a,
                    target: b,
                },
                vec![a, b],
            ),
            (Gate::Swap(b, a), vec![b, a]),
            (Gate::Cp(a, b, 0.25), vec![a, b]),
            (
                Gate::Ccx {
                    c1: a,
                    c2: b,
                    target: c,
                },
                vec![a, b, c],
            ),
        ];
        for (gate, want) in cases {
            let qs = gate.qubits();
            assert_eq!(&qs[..], &want[..], "{gate}");
            assert_eq!(qs.into_iter().collect::<Vec<_>>(), want, "{gate}");
            assert_eq!((&qs).into_iter().copied().collect::<Vec<_>>(), want);
            assert_eq!(gate.arity(), want.len(), "{gate}");
            assert_eq!(gate.is_multi_qubit(), want.len() > 1, "{gate}");
        }
    }

    #[test]
    fn clifford_classification() {
        assert!(Gate::H(Qubit::new(0)).is_clifford());
        assert!(Gate::Cz(Qubit::new(0), Qubit::new(1)).is_clifford());
        assert!(!Gate::T(Qubit::new(0)).is_clifford());
        assert!(Gate::Rz(Qubit::new(0), PI).is_clifford());
        assert!(!Gate::Rz(Qubit::new(0), PI / 4.0).is_clifford());
        assert!(Gate::J(Qubit::new(0), PI / 2.0).is_clifford());
        assert!(!Gate::Ccx {
            c1: Qubit::new(0),
            c2: Qubit::new(1),
            target: Qubit::new(2)
        }
        .is_clifford());
    }

    #[test]
    fn j_and_cz_detection() {
        assert!(Gate::J(Qubit::new(0), 0.1).is_j_or_cz());
        assert!(Gate::Cz(Qubit::new(0), Qubit::new(1)).is_j_or_cz());
        assert!(!Gate::H(Qubit::new(0)).is_j_or_cz());
    }

    #[test]
    fn display_is_nonempty() {
        for g in [
            Gate::H(Qubit::new(0)),
            Gate::Rz(Qubit::new(1), 0.25),
            Gate::Cnot {
                control: Qubit::new(0),
                target: Qubit::new(1),
            },
        ] {
            assert!(!format!("{g}").is_empty());
        }
    }
}
