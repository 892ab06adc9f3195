//! The paper's benchmark programs (paper §7.1, Table 1).
//!
//! * [`qft`] — Quantum Fourier Transform (building block),
//! * [`qaoa_maxcut`] / [`qaoa_maxcut_random`] — QAOA for graph maxcut on
//!   random graphs with half of all possible edges,
//! * [`rca`] — the Cuccaro ripple-carry adder \[51\],
//! * [`bv`] / [`bv_random`] — Bernstein–Vazirani with an explicit or
//!   random secret string (roughly half ones, as in the paper).

use crate::circuit::Circuit;
use rand::Rng;
use std::f64::consts::PI;

/// `2^k` as an `f64`, exactly: a zero mantissa under the biased exponent
/// `1023 + k` is a normal `f64` for every `k <= 1023` (beyond that the
/// result is `+inf`, and an angle divided by it is 0). Unlike
/// `(1u64 << k) as f64` it does not overflow past `k = 63`; below that
/// the two agree bit for bit.
pub(crate) fn pow2(k: usize) -> f64 {
    if k > 1023 {
        return f64::INFINITY;
    }
    f64::from_bits((1023 + k as u64) << 52)
}

/// Quantum Fourier Transform on `n` qubits, with the final qubit-reversal
/// SWAP network included.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn qft(n: usize) -> Circuit {
    assert!(n > 0, "QFT needs at least one qubit");
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.h(i);
        for j in (i + 1)..n {
            c.cp(j, i, PI / pow2(j - i));
        }
    }
    for i in 0..n / 2 {
        c.swap(i, n - 1 - i);
    }
    c
}

/// QFT without the final SWAP network (useful when the caller reindexes).
pub fn qft_no_swaps(n: usize) -> Circuit {
    assert!(n > 0, "QFT needs at least one qubit");
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.h(i);
        for j in (i + 1)..n {
            c.cp(j, i, PI / pow2(j - i));
        }
    }
    c
}

/// Single-layer (p = 1) QAOA maxcut circuit for an explicit edge list.
///
/// Per edge `(u, v)`: the phase separator `e^{-iγ Z_u Z_v}` as
/// `CNOT(u,v); Rz(2γ)(v); CNOT(u,v)`, followed by the mixer `Rx(2β)` on
/// every qubit. Qubits start in `|+>` via a Hadamard layer.
///
/// # Panics
///
/// Panics if an edge endpoint is `>= n`.
pub fn qaoa_maxcut(n: usize, edges: &[(usize, usize)], gamma: f64, beta: f64) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        c.cnot(u, v);
        c.rz(v, 2.0 * gamma);
        c.cnot(u, v);
    }
    for q in 0..n {
        c.rx(q, 2.0 * beta);
    }
    c
}

/// QAOA maxcut on the paper's random instance family: a graph over `n`
/// nodes with half of all possible edges selected at random.
pub fn qaoa_maxcut_random<R: Rng>(n: usize, rng: &mut R) -> Circuit {
    let max_edges = n * (n - 1) / 2;
    let target = max_edges / 2;
    let mut all: Vec<(usize, usize)> = Vec::with_capacity(max_edges);
    for i in 0..n {
        for j in (i + 1)..n {
            all.push((i, j));
        }
    }
    // Partial Fisher-Yates: draw `target` distinct edges.
    for i in 0..target {
        let pick = rng.gen_range(i..all.len());
        all.swap(i, pick);
    }
    all.truncate(target);
    let gamma = rng.gen_range(0.0..PI);
    let beta = rng.gen_range(0.0..PI);
    qaoa_maxcut(n, &all, gamma, beta)
}

/// Cuccaro ripple-carry adder \[51\] sized to a total budget of `n_qubits`.
///
/// The adder computes `b := a + b` on two `k`-bit registers using one
/// ancilla (input carry) and one carry-out qubit, so it uses `2k + 2`
/// qubits with `k = (n_qubits - 2) / 2`; any remainder qubit is left idle,
/// matching how the paper sizes RCA-16/25/36 by total qubit count.
///
/// Layout: qubit 0 is the input carry, qubits `1..=k` register A, qubits
/// `k+1..=2k` register B, qubit `2k+1` the carry out.
///
/// # Panics
///
/// Panics if `n_qubits < 4` (the smallest adder needs k = 1).
pub fn rca(n_qubits: usize) -> Circuit {
    assert!(n_qubits >= 4, "ripple-carry adder needs at least 4 qubits");
    let k = (n_qubits - 2) / 2;
    let mut c = Circuit::new(n_qubits);
    let a = |i: usize| 1 + i; // a[0..k]
    let b = |i: usize| 1 + k + i; // b[0..k]
    let carry_in = 0;
    let carry_out = 2 * k + 1;

    // MAJ(c, b, a): CNOT a->b; CNOT a->c; CCX(c, b, a).
    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.cnot(z, y);
        c.cnot(z, x);
        c.ccx(x, y, z);
    };
    // UMA(c, b, a): CCX(c, b, a); CNOT a->c; CNOT c->b.
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.cnot(z, x);
        c.cnot(x, y);
    };

    maj(&mut c, carry_in, b(0), a(0));
    for i in 1..k {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.cnot(a(k - 1), carry_out);
    for i in (1..k).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, carry_in, b(0), a(0));
    c
}

/// Bernstein–Vazirani circuit for an explicit secret string.
///
/// Uses `secret.len() + 1` qubits: the last qubit is the oracle ancilla
/// prepared in `|->`; each `true` bit contributes one CNOT into the
/// ancilla.
pub fn bv(secret: &[bool]) -> Circuit {
    let n = secret.len();
    let mut c = Circuit::new(n + 1);
    for q in 0..n {
        c.h(q);
    }
    c.x(n).h(n);
    for (i, &bit) in secret.iter().enumerate() {
        if bit {
            c.cnot(i, n);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Bernstein–Vazirani with a random secret of `len` bits, approximately
/// half of which are 1 (the paper's instance family).
pub fn bv_random<R: Rng>(len: usize, rng: &mut R) -> Circuit {
    let mut secret = vec![false; len];
    let ones = len / 2;
    secret[..ones].fill(true);
    // Fisher-Yates shuffle of the fixed-weight string.
    for i in (1..len).rev() {
        let j = rng.gen_range(0..=i);
        secret.swap(i, j);
    }
    bv(&secret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn qft_gate_counts() {
        let c = qft(4);
        // 4 H + C(4,2)=6 CP + 2 SWAP.
        let h = c.gates().iter().filter(|g| matches!(g, Gate::H(_))).count();
        let cp = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Cp(_, _, _)))
            .count();
        let sw = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Swap(_, _)))
            .count();
        assert_eq!((h, cp, sw), (4, 6, 2));
    }

    #[test]
    fn qft_cp_angles_halve() {
        let c = qft_no_swaps(3);
        let angles: Vec<f64> = c
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::Cp(_, _, a) => Some(*a),
                _ => None,
            })
            .collect();
        assert!((angles[0] - PI / 2.0).abs() < 1e-12);
        assert!((angles[1] - PI / 4.0).abs() < 1e-12);
        assert!((angles[2] - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn qft_angles_stay_exact_past_64_qubits() {
        // Every shift the old `1u64 << k` denominator could express gives
        // the same bits as before.
        for k in 0..=63 {
            assert_eq!(pow2(k).to_bits(), ((1u64 << k) as f64).to_bits());
            assert_eq!(
                (PI / pow2(k)).to_bits(),
                (PI / (1u64 << k) as f64).to_bits(),
                "angle PI / 2^{k}"
            );
        }
        // Past 64 qubits the angles keep halving instead of overflowing.
        let c = qft(80);
        let smallest = c
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::Cp(_, _, a) => Some(*a),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        assert_eq!(smallest.to_bits(), (PI / (1u128 << 79) as f64).to_bits());
    }

    #[test]
    fn qft_single_qubit_is_h() {
        let c = qft(1);
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn qaoa_structure() {
        let c = qaoa_maxcut(3, &[(0, 1), (1, 2)], 0.4, 0.7);
        // 3 H + 2 * (2 CNOT + 1 Rz) + 3 Rx = 12 gates.
        assert_eq!(c.gate_count(), 12);
        assert_eq!(c.two_qubit_count(), 4);
    }

    #[test]
    fn qaoa_random_has_half_edges() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = qaoa_maxcut_random(8, &mut rng);
        let cnots = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Cnot { .. }))
            .count();
        assert_eq!(cnots, 2 * 14); // 14 edges, 2 CNOTs each
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn qaoa_rejects_bad_edge() {
        qaoa_maxcut(2, &[(0, 5)], 0.1, 0.1);
    }

    #[test]
    fn rca_uses_expected_toffolis() {
        let c = rca(16); // k = 7
        let ccx = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Ccx { .. }))
            .count();
        assert_eq!(ccx, 14); // 2 per bit (MAJ + UMA)
        assert_eq!(c.n_qubits(), 16);
    }

    #[test]
    fn rca_odd_width_leaves_idle_qubit() {
        let c = rca(25); // k = 11, uses 24 qubits, one idle
        assert_eq!(c.n_qubits(), 25);
        let max_q = c
            .gates()
            .iter()
            .flat_map(|g| g.qubits())
            .map(|q| q.index())
            .max()
            .unwrap();
        assert_eq!(max_q, 23);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn rca_rejects_tiny_widths() {
        rca(3);
    }

    #[test]
    fn bv_counts_match_secret_weight() {
        let c = bv(&[true, false, true, true]);
        assert_eq!(c.n_qubits(), 5);
        let cnots = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Cnot { .. }))
            .count();
        assert_eq!(cnots, 3);
    }

    #[test]
    fn bv_random_has_half_ones() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = bv_random(10, &mut rng);
        let cnots = c
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Cnot { .. }))
            .count();
        assert_eq!(cnots, 5);
    }

    #[test]
    fn benchmarks_lower_to_jcz() {
        use crate::decompose::to_jcz;
        let mut rng = StdRng::seed_from_u64(4);
        for c in [
            qft(5),
            qaoa_maxcut_random(5, &mut rng),
            rca(8),
            bv_random(5, &mut rng),
        ] {
            let l = to_jcz(&c);
            assert!(l.gates().iter().all(|g| g.is_j_or_cz()));
        }
    }
}
