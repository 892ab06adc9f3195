//! Lowering to the `{J(α), CZ}` universal gate set.
//!
//! The circuit→measurement-pattern translation (paper §2.2.1, ref \[46\])
//! requires circuits expressed with `J(α) = H · diag(1, e^{iα})` and CZ
//! only. This module rewrites every IR gate into that set, using the
//! identities (gate sequences written left→right in program order):
//!
//! * `H       = J(0)`
//! * `P(θ)    = J(θ) ; J(0)`  (phase gate, so `Z = P(π)`, `S = P(π/2)`,
//!   `T = P(π/4)`, `Rz(θ) ≃ P(θ)` up to global phase)
//! * `X       = J(0) ; J(π)`
//! * `Y       ≃ J(π) ; J(π)`  (up to global phase)
//! * `Rx(θ)   ≃ J(0) ; J(θ)`  (up to global phase)
//! * `CNOT(c,t) = J(0)_t ; CZ(c,t) ; J(0)_t`
//! * `SWAP    = 3 CNOTs`
//! * `CP(θ)   = P(θ/2)_a ; P(θ/2)_b ; CNOT(a,b) ; P(-θ/2)_b ; CNOT(a,b)`
//! * `CCX     = standard 7-T + 2H + 6 CNOT Clifford+T network`
//!
//! A peephole pass cancels adjacent `J(0) ; J(0)` pairs (`H·H = I`), which
//! the CNOT and Rx identities otherwise produce in long runs.

use crate::circuit::Circuit;
use crate::gate::{Gate, Qubit};
use std::f64::consts::PI;

/// Rewrites `circuit` into an equivalent circuit (up to global phase) that
/// contains only [`Gate::J`] and [`Gate::Cz`].
///
/// # Example
///
/// ```
/// use oneq_circuit::{Circuit, decompose};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).t(1);
/// let j = decompose::to_jcz(&c);
/// assert!(j.gates().iter().all(|g| g.is_j_or_cz()));
/// ```
pub fn to_jcz(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.n_qubits());
    for gate in circuit.gates() {
        emit(&mut out, *gate);
    }
    cancel_adjacent_hh(&out)
}

fn emit(out: &mut Circuit, gate: Gate) {
    let j = |out: &mut Circuit, q: Qubit, a: f64| {
        out.push(Gate::J(q, a)).expect("qubit validated upstream");
    };
    let cz = |out: &mut Circuit, a: Qubit, b: Qubit| {
        out.push(Gate::Cz(a, b)).expect("qubit validated upstream");
    };
    let phase = |out: &mut Circuit, q: Qubit, theta: f64| {
        j(out, q, theta);
        j(out, q, 0.0);
    };
    match gate {
        Gate::J(q, a) => j(out, q, a),
        Gate::Cz(a, b) => cz(out, a, b),
        Gate::H(q) => j(out, q, 0.0),
        Gate::Z(q) => phase(out, q, PI),
        Gate::S(q) => phase(out, q, PI / 2.0),
        Gate::Sdg(q) => phase(out, q, -PI / 2.0),
        Gate::T(q) => phase(out, q, PI / 4.0),
        Gate::Tdg(q) => phase(out, q, -PI / 4.0),
        Gate::Rz(q, theta) => phase(out, q, theta),
        Gate::X(q) => {
            j(out, q, 0.0);
            j(out, q, PI);
        }
        Gate::Y(q) => {
            j(out, q, PI);
            j(out, q, PI);
        }
        Gate::Rx(q, theta) => {
            j(out, q, 0.0);
            j(out, q, theta);
        }
        Gate::Cnot { control, target } => {
            j(out, target, 0.0);
            cz(out, control, target);
            j(out, target, 0.0);
        }
        Gate::Swap(a, b) => {
            for g in [
                Gate::Cnot {
                    control: a,
                    target: b,
                },
                Gate::Cnot {
                    control: b,
                    target: a,
                },
                Gate::Cnot {
                    control: a,
                    target: b,
                },
            ] {
                emit(out, g);
            }
        }
        Gate::Cp(a, b, theta) => {
            phase(out, a, theta / 2.0);
            phase(out, b, theta / 2.0);
            emit(
                out,
                Gate::Cnot {
                    control: a,
                    target: b,
                },
            );
            phase(out, b, -theta / 2.0);
            emit(
                out,
                Gate::Cnot {
                    control: a,
                    target: b,
                },
            );
        }
        Gate::Ccx { c1, c2, target } => {
            for g in toffoli_network(c1, c2, target) {
                emit(out, g);
            }
        }
    }
}

/// The standard Clifford+T Toffoli decomposition (7 T gates, 6 CNOTs, 2 H).
fn toffoli_network(c1: Qubit, c2: Qubit, t: Qubit) -> Vec<Gate> {
    let cx = |c: Qubit, t: Qubit| Gate::Cnot {
        control: c,
        target: t,
    };
    vec![
        Gate::H(t),
        cx(c2, t),
        Gate::Tdg(t),
        cx(c1, t),
        Gate::T(t),
        cx(c2, t),
        Gate::Tdg(t),
        cx(c1, t),
        Gate::T(c2),
        Gate::T(t),
        Gate::H(t),
        cx(c1, c2),
        Gate::T(c1),
        Gate::Tdg(c2),
        cx(c1, c2),
    ]
}

/// Removes adjacent `J(0) ; J(0)` pairs on the same qubit with no
/// intervening gate on that qubit (`H·H = I`).
fn cancel_adjacent_hh(circuit: &Circuit) -> Circuit {
    // pending[q] holds the position in `kept` of an uncommitted J(0) gate.
    let mut kept: Vec<Option<Gate>> = Vec::with_capacity(circuit.gate_count());
    let mut pending: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
    for &gate in circuit.gates() {
        match gate {
            Gate::J(q, 0.0) => {
                if let Some(pos) = pending[q.index()].take() {
                    kept[pos] = None; // cancel the pair
                } else {
                    pending[q.index()] = Some(kept.len());
                    kept.push(Some(gate));
                }
            }
            _ => {
                for q in gate.qubits() {
                    pending[q.index()] = None;
                }
                kept.push(Some(gate));
            }
        }
    }
    let mut out = Circuit::new(circuit.n_qubits());
    for gate in kept.into_iter().flatten() {
        out.push(gate).expect("gates already validated");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_jcz(c: &Circuit) -> bool {
        c.gates().iter().all(|g| g.is_j_or_cz())
    }

    #[test]
    fn every_gate_kind_lowers() {
        let mut c = Circuit::new(3);
        c.h(0)
            .x(0)
            .y(1)
            .z(1)
            .s(2)
            .sdg(2)
            .t(0)
            .tdg(0)
            .rz(1, 0.3)
            .rx(1, 0.7)
            .j(2, 0.1)
            .cz(0, 1)
            .cnot(1, 2)
            .swap(0, 2)
            .cp(0, 1, 0.5)
            .ccx(0, 1, 2);
        let lowered = to_jcz(&c);
        assert!(all_jcz(&lowered));
        assert!(lowered.gate_count() > 0);
    }

    #[test]
    fn h_becomes_single_j0() {
        let mut c = Circuit::new(1);
        c.h(0);
        let l = to_jcz(&c);
        assert_eq!(l.gates(), &[Gate::J(Qubit::new(0), 0.0)]);
    }

    #[test]
    fn hh_cancels_to_identity() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        assert_eq!(to_jcz(&c).gate_count(), 0);
    }

    #[test]
    fn hh_does_not_cancel_across_other_gates() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let l = to_jcz(&c);
        // H; (J(pi/4); J(0)); H -> the middle J(0) cancels the trailing H,
        // leaving J(0); J(pi/4).
        assert_eq!(
            l.gates(),
            &[
                Gate::J(Qubit::new(0), 0.0),
                Gate::J(Qubit::new(0), PI / 4.0)
            ]
        );
    }

    #[test]
    fn hh_on_different_qubits_does_not_cancel() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        assert_eq!(to_jcz(&c).gate_count(), 2);
    }

    #[test]
    fn cz_between_hs_blocks_cancellation() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1).h(0);
        assert_eq!(to_jcz(&c).gate_count(), 3);
    }

    #[test]
    fn cnot_lowers_to_three_gates() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let l = to_jcz(&c);
        assert_eq!(l.gate_count(), 3);
        assert!(matches!(l.gates()[1], Gate::Cz(_, _)));
    }

    #[test]
    fn consecutive_cnots_share_cancelled_hs() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(0, 1);
        // J0 CZ J0 J0 CZ J0 -> inner pair cancels -> J0 CZ CZ J0.
        assert_eq!(to_jcz(&c).gate_count(), 4);
    }

    #[test]
    fn toffoli_produces_seven_t_angles() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let l = to_jcz(&c);
        let t_like = l
            .gates()
            .iter()
            .filter(|g| match g {
                Gate::J(_, a) => {
                    let r = crate::gate::normalize_angle(*a);
                    (r - PI / 4.0).abs() < 1e-9 || (r - 7.0 * PI / 4.0).abs() < 1e-9
                }
                _ => false,
            })
            .count();
        assert_eq!(t_like, 7);
    }

    use std::f64::consts::PI;
}
