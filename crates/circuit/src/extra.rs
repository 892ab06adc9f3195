//! Additional benchmark programs beyond the paper's Table 1 set.
//!
//! These are the algorithms the paper's §2.1 cites as the experimentally
//! demonstrated photonic one-way workloads — Grover \[33\], Deutsch–Jozsa
//! \[34\] and Simon's algorithm \[35\] — plus the GHZ-preparation and
//! quantum-phase-estimation building blocks commonly used to exercise
//! MBQC compilers.

use crate::benchmarks::{pow2, qft_no_swaps};
use crate::circuit::Circuit;
use std::f64::consts::PI;

/// GHZ-state preparation on `n` qubits: `H` then a CNOT ladder.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ghz(n: usize) -> Circuit {
    assert!(n > 0, "GHZ needs at least one qubit");
    let mut c = Circuit::new(n);
    c.h(0);
    for i in 1..n {
        c.cnot(i - 1, i);
    }
    c
}

/// Grover search on `n` data qubits for the all-ones marked item, with
/// `iterations` Grover rounds (each: phase oracle + diffusion).
///
/// The oracle marks `|1...1>` with a multi-controlled Z, lowered through
/// Toffoli cascades onto `n - 2` clean ancillas (total width
/// `2n - 2` for `n >= 3`; `n` and `n + 0` qubits for `n <= 2`).
///
/// # Panics
///
/// Panics if `n == 0` or `iterations == 0`.
pub fn grover(n: usize, iterations: usize) -> Circuit {
    assert!(n > 0 && iterations > 0, "need data qubits and >= 1 round");
    let ancillas = n.saturating_sub(2);
    let mut c = Circuit::new(n + ancillas);
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..iterations {
        mcz_all_ones(&mut c, n); // oracle: flip phase of |1...1>
        for q in 0..n {
            c.h(q);
            c.x(q);
        }
        mcz_all_ones(&mut c, n); // diffusion reflection about |0...0>
        for q in 0..n {
            c.x(q);
            c.h(q);
        }
    }
    c
}

/// Multi-controlled Z on qubits `0..n`, using ancillas `n..(2n-2)`.
fn mcz_all_ones(c: &mut Circuit, n: usize) {
    match n {
        1 => {
            c.z(0);
        }
        2 => {
            c.cz(0, 1);
        }
        _ => {
            // Toffoli cascade computes AND of controls into the last
            // ancilla, a CZ applies the phase, then uncompute.
            let anc = |i: usize| n + i;
            c.ccx(0, 1, anc(0));
            for i in 2..n - 1 {
                c.ccx(i, anc(i - 2), anc(i - 1));
            }
            c.cz(n - 1, anc(n - 3));
            for i in (2..n - 1).rev() {
                c.ccx(i, anc(i - 2), anc(i - 1));
            }
            c.ccx(0, 1, anc(0));
        }
    }
}

/// Deutsch–Jozsa with a balanced inner-product oracle defined by `mask`
/// (`f(x) = mask · x`); uses `mask.len() + 1` qubits, ancilla last.
/// A constant oracle is the all-false mask.
pub fn deutsch_jozsa(mask: &[bool]) -> Circuit {
    let n = mask.len();
    let mut c = Circuit::new(n + 1);
    for q in 0..n {
        c.h(q);
    }
    c.x(n).h(n);
    for (i, &bit) in mask.iter().enumerate() {
        if bit {
            c.cnot(i, n);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Simon's algorithm for a period `s`: `2n` qubits (`n = s.len()`), with
/// the oracle `f(x) = f(x ⊕ s)` built as a copy layer plus a masked XOR
/// keyed on the first set bit of `s` (the textbook construction used in
/// the photonic demonstration \[35\]).
///
/// # Panics
///
/// Panics if `s` is empty or all-zero.
pub fn simon(s: &[bool]) -> Circuit {
    let n = s.len();
    assert!(n > 0, "period must be non-empty");
    let pivot = s
        .iter()
        .position(|&b| b)
        .expect("period must be non-zero for Simon's problem");
    let mut c = Circuit::new(2 * n);
    for q in 0..n {
        c.h(q);
    }
    // Copy register: f(x) = x for the base function.
    for q in 0..n {
        c.cnot(q, n + q);
    }
    // XOR s into the output conditioned on x_pivot, collapsing x and x⊕s.
    for (i, &bit) in s.iter().enumerate() {
        if bit {
            c.cnot(pivot, n + i);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Quantum phase estimation of the phase `theta` of a diagonal unitary
/// `U = diag(1, e^{2πi·theta})`, with `bits` counting qubits plus one
/// eigenstate qubit (prepared in `|1>`).
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn phase_estimation(bits: usize, theta: f64) -> Circuit {
    assert!(bits > 0, "need at least one counting qubit");
    let target = bits;
    let mut c = Circuit::new(bits + 1);
    c.x(target); // eigenstate |1> of the diagonal unitary
    for q in 0..bits {
        c.h(q);
    }
    // Controlled-U^(2^k) = controlled-phase of 2π·theta·2^k. With our
    // `qft_no_swaps` convention the inverse transform expects counting
    // qubit q to carry phase weight 2^q; qubit 0 then reads out as the
    // most significant fraction bit of theta.
    for q in 0..bits {
        c.cp(q, target, 2.0 * PI * theta * pow2(q));
    }
    // Inverse QFT on the counting register (angles negated, reversed).
    let mut iqft = inverse_qft(bits);
    remap_and_append(&mut c, &mut iqft);
    c
}

fn inverse_qft(n: usize) -> Circuit {
    let fwd = qft_no_swaps(n);
    let mut inv = Circuit::new(n);
    for gate in fwd.gates().iter().rev() {
        let g = match *gate {
            crate::gate::Gate::H(q) => crate::gate::Gate::H(q),
            crate::gate::Gate::Cp(a, b, t) => crate::gate::Gate::Cp(a, b, -t),
            ref other => panic!("unexpected QFT gate {other}"),
        };
        inv.push(g).expect("inverse gates are valid");
    }
    inv
}

fn remap_and_append(c: &mut Circuit, sub: &mut Circuit) {
    for gate in sub.gates() {
        c.push(*gate)
            .expect("sub-circuit acts on a prefix of the wires");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    #[test]
    fn ghz_structure() {
        let c = ghz(5);
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.two_qubit_count(), 4);
    }

    #[test]
    fn grover_width_and_rounds() {
        let c = grover(4, 2);
        assert_eq!(c.n_qubits(), 6); // 4 data + 2 ancilla
        let ccx = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Ccx { .. }))
            .count();
        // Per round: oracle (3 ccx... 2 up + cz + 2 down = 4) x2 uses.
        assert_eq!(ccx, 2 * 2 * 4);
    }

    #[test]
    fn grover_small_widths() {
        assert_eq!(grover(1, 1).n_qubits(), 1);
        assert_eq!(grover(2, 1).n_qubits(), 2);
    }

    #[test]
    fn deutsch_jozsa_oracle_size() {
        let c = deutsch_jozsa(&[true, true, false, true]);
        assert_eq!(c.n_qubits(), 5);
        let cnots = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Cnot { .. }))
            .count();
        assert_eq!(cnots, 3);
    }

    #[test]
    fn simon_uses_double_register() {
        let c = simon(&[true, false, true]);
        assert_eq!(c.n_qubits(), 6);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn simon_rejects_zero_period() {
        simon(&[false, false]);
    }

    #[test]
    fn phase_estimation_width() {
        let c = phase_estimation(3, 0.125);
        assert_eq!(c.n_qubits(), 4);
        assert!(c.gate_count() > 6);
    }

    #[test]
    fn extras_lower_to_jcz() {
        for c in [
            ghz(4),
            grover(3, 1),
            deutsch_jozsa(&[true, false]),
            simon(&[true, false]),
            phase_estimation(3, 0.3),
        ] {
            let l = crate::decompose::to_jcz(&c);
            assert!(l.gates().iter().all(|g| g.is_j_or_cz()));
        }
    }
}
