//! # oneq-circuit
//!
//! Quantum-circuit intermediate representation for the OneQ compiler
//! (ISCA'23 reproduction).
//!
//! OneQ consumes circuit-model programs and lowers them to measurement
//! patterns. This crate provides:
//!
//! * the gate set and circuit IR ([`Gate`], [`Circuit`]),
//! * decomposition into the universal set `{J(α), CZ}` used by the
//!   circuit→MBQC translation (paper §2.2.1) in [`decompose`],
//! * the paper's benchmark programs (paper §7.1) in [`benchmarks`]:
//!   Quantum Fourier Transform, QAOA for maxcut on random graphs, the
//!   Cuccaro ripple-carry adder, and Bernstein–Vazirani,
//! * a round-trip-exact OpenQASM 2.0 exporter ([`Circuit::to_qasm`]),
//!   the counterpart to the `oneq-frontend` parser.
//!
//! # Example
//!
//! ```
//! use oneq_circuit::{benchmarks, decompose};
//!
//! let qft = benchmarks::qft(4);
//! let lowered = decompose::to_jcz(&qft);
//! assert!(lowered.gates().iter().all(|g| g.is_j_or_cz()));
//! ```

#![warn(missing_docs)]

pub mod benchmarks;
mod circuit;
pub mod decompose;
pub mod extra;
mod gate;
mod qasm;

pub use circuit::{Circuit, CircuitError};
pub use gate::{is_clifford_angle, normalize_angle, Angle, Gate, GateQubits, Qubit};
