//! Frontend round-trip and unitary-equivalence tests.
//!
//! * Property: a random QASM-expressible `Circuit` survives
//!   `to_qasm()` → parse → lower with a bit-identical gate list.
//! * The `u1/u2/u3/ry` lowerings reproduce the standard qelib1 matrices
//!   on the state-vector simulator, and the prelude's composite gates
//!   (`crz`, `cu3`, `ch`, `cy`) act as their controlled references.
//! * Fuzz: seeded inputs mixed from QASM tokens, ASCII and multi-byte
//!   characters, and insert/delete/replace mutations of the
//!   `tests/fixtures/qasm` sources, never panic `parse_circuit`, and every
//!   error points inside the source and shows the line it points at.

use oneq_circuit::{Circuit, Gate};
use oneq_frontend::parse_circuit;
use oneq_sim::{Complex, StateVector};
use proptest::prelude::*;
use std::f64::consts::{FRAC_1_SQRT_2, PI};
use std::sync::OnceLock;

/// Strategy: a random circuit over the QASM-exportable gate set (all IR
/// gates except `J`, which exports as its `rz; h` definition). Angles mix
/// exact `pi` fractions (exercising the `p*pi/q` printer) with arbitrary
/// decimals (exercising the shortest-round-trip fallback).
fn qasm_circuit_strategy(max_q: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    (1..max_q).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..15usize, 0..n, 0..n, -10.0..10.0f64, 0..8usize),
            0..max_gates,
        )
        .prop_map(move |specs| {
            let mut c = Circuit::new(n);
            for (kind, a, b, raw_angle, pick) in specs {
                // Half the angles are exact pi fractions (incl. negative).
                let angle = if pick % 2 == 0 {
                    raw_angle
                } else {
                    let signed = if pick >= 4 { -PI } else { PI };
                    let k = 1u32 << (pick % 4);
                    if k == 1 {
                        signed
                    } else {
                        signed / f64::from(k)
                    }
                };
                let b2 = if a == b { (a + 1) % n } else { b };
                match kind {
                    0 => c.h(a),
                    1 => c.x(a),
                    2 => c.y(a),
                    3 => c.z(a),
                    4 => c.s(a),
                    5 => c.sdg(a),
                    6 => c.t(a),
                    7 => c.tdg(a),
                    8 => c.rz(a, angle),
                    9 => c.rx(a, angle),
                    10 if n >= 2 => c.cz(a, b2),
                    11 if n >= 2 => c.cnot(a, b2),
                    12 if n >= 2 => c.swap(a, b2),
                    13 if n >= 2 => c.cp(a, b2, angle),
                    14 if n >= 3 => {
                        let (c1, c2, t) = (a % n, (a + 1) % n, (a + 2) % n);
                        c.ccx(c1, c2, t)
                    }
                    _ => c.h(a), // fallback when the width is too small
                };
            }
            c
        })
    })
}

proptest! {
    #[test]
    fn to_qasm_round_trips_bit_identically(c in qasm_circuit_strategy(7, 40)) {
        let qasm = c.to_qasm();
        let parsed = parse_circuit(&qasm)
            .unwrap_or_else(|e| panic!("export must re-parse, got:\n{e}\n--- qasm:\n{qasm}"));
        prop_assert_eq!(parsed.n_qubits(), c.n_qubits());
        prop_assert_eq!(parsed.gates(), c.gates());
    }
}

#[test]
fn j_gate_exports_as_equivalent_rz_h() {
    let mut c = Circuit::new(1);
    c.j(0, PI / 5.0);
    let parsed = parse_circuit(&c.to_qasm()).unwrap();
    assert_eq!(
        parsed.gates().len(),
        2,
        "J must export as its rz; h definition"
    );
    let a = StateVector::run_circuit(&c);
    let b = StateVector::run_circuit(&parsed);
    assert!(a.approx_eq_up_to_phase(&b, 1e-9));
}

fn parse_1q(body: &str) -> Circuit {
    parse_circuit(&format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\n{body}"
    ))
    .expect("test program must parse")
}

fn parse_2q(body: &str) -> Circuit {
    parse_circuit(&format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n{body}"
    ))
    .expect("test program must parse")
}

/// The standard qelib1 u3 matrix:
/// `[[cos(θ/2), -e^{iλ} sin(θ/2)], [e^{iφ} sin(θ/2), e^{i(φ+λ)} cos(θ/2)]]`.
fn u3_matrix(theta: f64, phi: f64, lambda: f64) -> [[Complex; 2]; 2] {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    [
        [Complex::from(c), -Complex::from_polar(s, lambda)],
        [
            Complex::from_polar(s, phi),
            Complex::from_polar(c, phi + lambda),
        ],
    ]
}

/// Runs `body` on |0> (after an initial `h` to probe both columns) and
/// compares against applying `reference` to the same input.
fn assert_matches_matrix(body: &str, reference: [[Complex; 2]; 2]) {
    let lowered = parse_1q(&format!("h q[0];\n{body}"));
    let got = StateVector::run_circuit(&lowered);
    let mut want = StateVector::zero_state(1);
    want.apply_gate(&Gate::H(oneq_circuit::Qubit::new(0)));
    want.apply_single(0, reference);
    assert!(
        got.approx_eq_up_to_phase(&want, 1e-9),
        "{body} does not match its reference matrix"
    );
}

#[test]
fn u_family_matches_qelib1_matrices() {
    let (theta, phi, lambda) = (0.3, 0.7, 1.1);
    assert_matches_matrix(
        &format!("u3({theta},{phi},{lambda}) q[0];"),
        u3_matrix(theta, phi, lambda),
    );
    assert_matches_matrix(
        &format!("U({theta},{phi},{lambda}) q[0];"),
        u3_matrix(theta, phi, lambda),
    );
    assert_matches_matrix(
        &format!("u2({phi},{lambda}) q[0];"),
        u3_matrix(PI / 2.0, phi, lambda),
    );
    assert_matches_matrix(&format!("u1({lambda}) q[0];"), u3_matrix(0.0, 0.0, lambda));
    // ry(θ) = u3(θ, 0, 0): the real rotation matrix.
    assert_matches_matrix(&format!("ry({theta}) q[0];"), u3_matrix(theta, 0.0, 0.0));
}

fn assert_amps(sv: &StateVector, want: &[(usize, Complex)]) {
    for (i, amp) in sv.amplitudes().iter().enumerate() {
        let expect = want
            .iter()
            .find(|(j, _)| *j == i)
            .map_or(Complex::ZERO, |&(_, a)| a);
        assert!(
            amp.approx_eq(expect, 1e-9),
            "amplitude {i}: got {amp}, want {expect}"
        );
    }
}

#[test]
fn cu3_controls_the_u3_matrix() {
    let (theta, phi, lambda) = (0.9, 0.4, 1.3);
    // Control q[0] in |+>, target q[1] in |0>: the control=1 branch picks
    // up the first u3 column.
    let c = parse_2q(&format!("h q[0];\ncu3({theta},{phi},{lambda}) q[0], q[1];"));
    let sv = StateVector::run_circuit(&c);
    let m = u3_matrix(theta, phi, lambda);
    assert_amps(
        &sv,
        &[
            (0b00, Complex::from(FRAC_1_SQRT_2)),
            (0b01, m[0][0].scale(FRAC_1_SQRT_2)),
            (0b11, m[1][0].scale(FRAC_1_SQRT_2)),
        ],
    );
}

#[test]
fn crz_applies_symmetric_half_phases() {
    let lambda = 0.8;
    let c = parse_2q(&format!("h q[0];\nh q[1];\ncrz({lambda}) q[0], q[1];"));
    let sv = StateVector::run_circuit(&c);
    assert_amps(
        &sv,
        &[
            (0b00, Complex::from(0.5)),
            (0b10, Complex::from(0.5)),
            (0b01, Complex::from_polar(0.5, -lambda / 2.0)),
            (0b11, Complex::from_polar(0.5, lambda / 2.0)),
        ],
    );
}

#[test]
fn ch_and_cy_act_as_controlled_gates() {
    // ch: controlled-H up to a global phase (the qelib1 body carries a
    // uniform e^{i*pi/4}). Reference: exact C-H from
    // `ry(-pi/4); cz; ry(pi/4)` on the target.
    let c = parse_2q("h q[0];\nch q[0], q[1];");
    let got = StateVector::run_circuit(&c);
    let mut want = StateVector::zero_state(2);
    want.apply_gate(&Gate::H(oneq_circuit::Qubit::new(0)));
    let ry = |sv: &mut StateVector, a: f64| {
        let c = Complex::from((a / 2.0).cos());
        let s = Complex::from((a / 2.0).sin());
        sv.apply_single(1, [[c, -s], [s, c]]);
    };
    ry(&mut want, -PI / 4.0);
    want.apply_cz(0, 1);
    ry(&mut want, PI / 4.0);
    assert!(got.approx_eq_up_to_phase(&want, 1e-9), "ch mismatch");

    // cy: |+>|0> -> (|00> + i|11>)/sqrt2.
    let c = parse_2q("h q[0];\ncy q[0], q[1];");
    let got = StateVector::run_circuit(&c);
    assert_amps(
        &got,
        &[
            (0b00, Complex::from(FRAC_1_SQRT_2)),
            (0b11, Complex::new(0.0, FRAC_1_SQRT_2)),
        ],
    );
}

#[test]
fn fixture_style_header_with_comments_parses() {
    let c = parse_circuit(
        "// a comment header\n// another\nOPENQASM 2.0;\ninclude \"qelib1.inc\";\n\
         qreg q[2];\nh q[0]; cx q[0], q[1]; // trailing comment",
    )
    .unwrap();
    assert_eq!(c.gate_count(), 2);
}

/// What the fuzz inputs are mixed from: QASM tokens and keywords, ASCII
/// punctuation and layout, multi-byte characters, and fragments that push
/// the frontend's bounds (deep nesting, huge integers and registers).
const PIECES: &[&str] = &[
    "OPENQASM 2.0;",
    "OPENQASM",
    "2.0",
    "3.0",
    ";",
    ",",
    "include",
    "\"qelib1.inc\"",
    "\"",
    "qreg",
    "creg",
    "gate",
    "measure",
    "barrier",
    "opaque",
    "if",
    "reset",
    "q",
    "c",
    "a",
    "b",
    "g",
    "theta",
    "h",
    "x",
    "cx",
    "ccx",
    "rz",
    "u2",
    "u3",
    "U",
    "CX",
    "cu1",
    "cswap",
    "pi",
    "sin",
    "ln",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    "0",
    "1",
    "7",
    "16",
    ".",
    "0.5",
    "1e3",
    "2.5e-2",
    ".e5",
    "+",
    "-",
    "*",
    "/",
    "^",
    "->",
    "==",
    "=",
    " ",
    "  ",
    "\t",
    "\n",
    "\r\n",
    "\r",
    "//",
    "// note\n",
    "@",
    "$",
    "#",
    "~",
    "é",
    "π",
    "ü",
    "→",
    "😀",
    "\u{2028}",
    "q[0]",
    "q[1]",
    "qreg q[2];",
    "h q;",
    "gate g(t) a { rz(t) a; }",
    "g(pi) q[0];",
    "((((((((",
    "))))))))",
    "--------",
    "18446744073709551615",
    "18446744073709551616",
    "qreg r[18446744073709551615];",
    "1e999",
    "0/0",
];

/// The `tests/fixtures/qasm` sources, read once.
fn fixture_sources() -> &'static [String] {
    static SOURCES: OnceLock<Vec<String>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let mut paths: Vec<_> = std::fs::read_dir(oneq_bench::qasm_fixture_dir())
            .expect("read tests/fixtures/qasm")
            .map(|entry| entry.expect("fixture entry").path())
            .collect();
        paths.sort();
        let sources: Vec<String> = paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("read fixture"))
            .collect();
        assert_eq!(sources.len(), 7, "the seven fixture sources");
        sources
    })
}

/// Applies `(kind, at, piece, len)` edits to `source` at character
/// boundaries, so the result stays valid UTF-8: kind 0 inserts
/// `PIECES[piece]`, kind 1 deletes `len` characters, kind 2 replaces them
/// with the piece, and kind 3 inserts the piece as a line of its own, so
/// whole statements land between statements.
fn mutate(source: &str, edits: &[(usize, usize, usize, usize)]) -> String {
    let mut out = source.to_string();
    for &(kind, at, piece, len) in edits {
        if kind == 3 {
            let starts: Vec<usize> = [0]
                .into_iter()
                .chain(out.match_indices('\n').map(|(i, _)| i + 1))
                .collect();
            out.insert_str(starts[at % starts.len()], &format!("{}\n", PIECES[piece]));
            continue;
        }
        let bounds: Vec<usize> = out
            .char_indices()
            .map(|(i, _)| i)
            .chain([out.len()])
            .collect();
        let first = at % bounds.len();
        let range = bounds[first]..bounds[(first + len).min(bounds.len() - 1)];
        match kind {
            0 => out.insert_str(range.start, PIECES[piece]),
            1 => out.replace_range(range, ""),
            _ => out.replace_range(range, PIECES[piece]),
        }
    }
    out
}

/// `parse_circuit` returns (no panic), and an error's line and column lie
/// inside `source` and its snippet is the line it points at.
fn check_frontend(source: &str) -> Result<(), TestCaseError> {
    let Ok(parsed) = std::panic::catch_unwind(|| parse_circuit(source)) else {
        return Err(TestCaseError::fail(format!(
            "parse_circuit panicked on {source:?}"
        )));
    };
    let Err(e) = parsed else {
        return Ok(());
    };
    let lines: Vec<&str> = source.split('\n').collect();
    prop_assert!(
        (1..=lines.len()).contains(&e.line()),
        "line {} outside 1..={} for {source:?}: {e}",
        e.line(),
        lines.len()
    );
    let width = lines[e.line() - 1].chars().count();
    prop_assert!(
        (1..=width + 1).contains(&e.col()),
        "column {} outside 1..={} for {source:?}: {e}",
        e.col(),
        width + 1
    );
    let line_text = source.lines().nth(e.line() - 1).unwrap_or("");
    let expected = format!(" {} | {line_text}", e.line());
    let rendered = e.to_string();
    prop_assert_eq!(
        rendered.split('\n').nth(3),
        Some(expected.as_str()),
        "snippet for {:?}",
        source
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn fuzzed_token_soup_never_panics_the_frontend(
        picks in proptest::collection::vec(0..PIECES.len(), 0..48usize)
    ) {
        let source: String = picks.iter().map(|&i| PIECES[i]).collect();
        check_frontend(&source)?;
        let headed = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n{source}");
        check_frontend(&headed)?;
    }

    #[test]
    fn fuzzed_fixture_mutations_never_panic_the_frontend(
        case in (
            0..7usize,
            proptest::collection::vec(
                (0..4usize, 0..1_000_000usize, 0..PIECES.len(), 1..24usize),
                1..6usize,
            ),
        )
    ) {
        let (fixture, edits) = case;
        check_frontend(&mutate(&fixture_sources()[fixture], &edits))?;
    }
}
