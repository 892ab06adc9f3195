//! Fixture-parity gate for the QASM frontend.
//!
//! The `.qasm` files under `tests/fixtures/qasm/` are exports of the
//! built-in paper-benchmark constructors (written by the
//! `gen_qasm_fixtures` bin). This suite pins two properties:
//!
//! 1. **No drift** — every fixture on disk is byte-identical to a fresh
//!    render from its constructor (regenerate with the bin if this fails),
//!    and the directory holds no `.qasm` file without a constructor.
//! 2. **Parity** — parsing a fixture yields a bit-identical gate list, and
//!    compiling it on the PR 2 determinism geometry (the Table 2 square
//!    layer) produces bit-identical metrics to compiling the constructor
//!    directly.

use oneq::{Compiler, CompilerOptions};
use oneq_bench::{qasm_fixture_dir, qasm_fixtures, render_qasm_fixture};
use oneq_frontend::parse_circuit;
use oneq_hardware::{LayerGeometry, ResourceKind};
use oneq_service::corpus::qasm_files_flat;

fn read_fixture(name: &str) -> String {
    let path = qasm_fixture_dir().join(format!("{name}.qasm"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run `cargo run -p oneq-bench --bin gen_qasm_fixtures`",
            path.display()
        )
    })
}

#[test]
fn fixtures_on_disk_match_their_constructors() {
    let mut expected = Vec::new();
    for (name, circuit) in qasm_fixtures() {
        assert_eq!(
            read_fixture(name),
            render_qasm_fixture(name, &circuit),
            "{name}.qasm drifted; regenerate with \
             `cargo run -p oneq-bench --bin gen_qasm_fixtures`"
        );
        expected.push(format!("{name}.qasm"));
    }
    // A renamed or removed constructor must not leave an orphan behind
    // that keeps feeding the corpus suites.
    expected.sort();
    let on_disk: Vec<String> = qasm_files_flat(&qasm_fixture_dir())
        .expect("read tests/fixtures/qasm")
        .iter()
        .map(|path| {
            path.file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(
        on_disk, expected,
        "tests/fixtures/qasm must hold exactly the constructor exports; delete orphans"
    );
}

#[test]
fn fixtures_parse_to_bit_identical_gate_lists() {
    for (name, circuit) in qasm_fixtures() {
        let parsed = parse_circuit(&read_fixture(name))
            .unwrap_or_else(|e| panic!("{name}.qasm must parse:\n{e}"));
        assert_eq!(parsed.n_qubits(), circuit.n_qubits(), "{name}: width");
        assert_eq!(parsed.gates(), circuit.gates(), "{name}: gate list");
    }
}

/// Every fixture compiles to the same metrics as its constructor on the
/// determinism-gate geometry (square side from the baseline's physical
/// area, 3-qubit line resources) — the acceptance criterion for `oneqc`.
#[test]
fn fixtures_compile_to_identical_metrics() {
    for (name, circuit) in qasm_fixtures() {
        let parsed = parse_circuit(&read_fixture(name))
            .unwrap_or_else(|e| panic!("{name}.qasm must parse:\n{e}"));
        let side = oneq_baseline::physical_side(circuit.n_qubits(), ResourceKind::LINE3);
        let options = CompilerOptions::new(LayerGeometry::square(side));
        let from_qasm = Compiler::new(options).compile(&parsed);
        let from_ctor = Compiler::new(options).compile(&circuit);
        assert_eq!(from_qasm.depth, from_ctor.depth, "{name}: depth");
        assert_eq!(from_qasm.fusions, from_ctor.fusions, "{name}: #fusions");
        assert_eq!(from_qasm.stats, from_ctor.stats, "{name}: stage stats");
    }
}
