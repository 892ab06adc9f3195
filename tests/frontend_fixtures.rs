//! Fixture-parity gate for the QASM frontend.
//!
//! The `.qasm` files under `tests/fixtures/qasm/` are exports of the
//! built-in paper-benchmark constructors (written by the
//! `gen_qasm_fixtures` bin). This suite pins three properties:
//!
//! 1. **No drift** — every fixture on disk is byte-identical to a fresh
//!    render from its constructor (regenerate with the bin if this fails),
//!    and the directory holds no `.qasm` file without a constructor.
//! 2. **Parity** — parsing a fixture yields a bit-identical gate list, and
//!    compiling it on the PR 2 determinism geometry (the Table 2 square
//!    layer) produces bit-identical metrics to compiling the constructor
//!    directly.
//! 3. **Error renderings** — every error site of the frontend yields its
//!    exact one-line and caret-snippet text (`ERROR_PINS`).

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

/// Every error site of the frontend with its exact one-line (`to_line`)
/// and caret-snippet (`Display`) rendering: lexer, parser and lowering
/// messages, each token's rendering, CRLF and tab layouts, and columns
/// that count characters rather than bytes. The table was produced by the
/// frontend before it scanned bytes; a rewrite must reproduce every entry.
const ERROR_PINS: &[(&str, &str, &str)] = &[
    (
        "OPENQASM 2.0;\nqreg q[1];\n  @",
        "3:3: unexpected character `@`",
        "error: unexpected character `@`\n  --> <qasm>:3:3\n   |\n 3 |   @\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1]; é",
        "2:12: unexpected character `é`",
        "error: unexpected character `é`\n  --> <qasm>:2:12\n   |\n 2 | qreg q[1]; é\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc;\n",
        "2:9: unterminated string literal",
        "error: unterminated string literal\n  --> <qasm>:2:9\n   |\n 2 | include \"qelib1.inc;\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc",
        "2:9: unterminated string literal",
        "error: unterminated string literal\n  --> <qasm>:2:9\n   |\n 2 | include \"qelib1.inc\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c = 1) x q[0];",
        "4:7: stray `=`; did you mean `==`?",
        "error: stray `=`; did you mean `==`?\n  --> <qasm>:4:7\n   |\n 4 | if (c = 1) x q[0];\n   |       ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(.,0,0) q[0];",
        "3:3: expected digits around `.`",
        "error: expected digits around `.`\n  --> <qasm>:3:3\n   |\n 3 | U(.,0,0) q[0];\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(.e5,0,0) q[0];",
        "3:3: malformed real literal `.e5`",
        "error: malformed real literal `.e5`\n  --> <qasm>:3:3\n   |\n 3 | U(.e5,0,0) q[0];\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[18446744073709551616];",
        "2:8: integer literal `18446744073709551616` overflows",
        "error: integer literal `18446744073709551616` overflows\n  --> <qasm>:2:8\n   |\n 2 | qreg q[18446744073709551616];\n   |        ^",
    ),
    (
        "qreg q[1];",
        "1:1: expected `OPENQASM 2.0;` header as the first statement",
        "error: expected `OPENQASM 2.0;` header as the first statement\n  --> <qasm>:1:1\n   |\n 1 | qreg q[1];\n   | ^",
    ),
    (
        "",
        "1:1: expected `OPENQASM 2.0;` header as the first statement",
        "error: expected `OPENQASM 2.0;` header as the first statement\n  --> <qasm>:1:1\n   |\n 1 | \n   | ^",
    ),
    (
        "OPENQASM 3.0;",
        "1:10: unsupported OpenQASM version 3; only 2.0 is supported",
        "error: unsupported OpenQASM version 3; only 2.0 is supported\n  --> <qasm>:1:10\n   |\n 1 | OPENQASM 3.0;\n   |          ^",
    ),
    (
        "OPENQASM 2;",
        "1:10: expected version `2.0`, found integer `2`",
        "error: expected version `2.0`, found integer `2`\n  --> <qasm>:1:10\n   |\n 1 | OPENQASM 2;\n   |          ^",
    ),
    (
        "OPENQASM \"2.0\";",
        "1:10: expected version `2.0`, found string \"2.0\"",
        "error: expected version `2.0`, found string \"2.0\"\n  --> <qasm>:1:10\n   |\n 1 | OPENQASM \"2.0\";\n   |          ^",
    ),
    (
        "OPENQASM 2.0\nqreg q[1];",
        "2:1: expected `;` after statement, found `qreg`",
        "error: expected `;` after statement, found `qreg`\n  --> <qasm>:2:1\n   |\n 2 | qreg q[1];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1]",
        "2:10: expected `;` after statement, found end of input",
        "error: expected `;` after statement, found end of input\n  --> <qasm>:2:10\n   |\n 2 | qreg q[1]\n   |          ^",
    ),
    (
        "OPENQASM 2.0;\n;",
        "2:1: expected a statement, found `;`",
        "error: expected a statement, found `;`\n  --> <qasm>:2:1\n   |\n 2 | ;\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n,",
        "2:1: expected a statement, found `,`",
        "error: expected a statement, found `,`\n  --> <qasm>:2:1\n   |\n 2 | ,\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n(",
        "2:1: expected a statement, found `(`",
        "error: expected a statement, found `(`\n  --> <qasm>:2:1\n   |\n 2 | (\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n)",
        "2:1: expected a statement, found `)`",
        "error: expected a statement, found `)`\n  --> <qasm>:2:1\n   |\n 2 | )\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n[",
        "2:1: expected a statement, found `[`",
        "error: expected a statement, found `[`\n  --> <qasm>:2:1\n   |\n 2 | [\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n]",
        "2:1: expected a statement, found `]`",
        "error: expected a statement, found `]`\n  --> <qasm>:2:1\n   |\n 2 | ]\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n{",
        "2:1: expected a statement, found `{`",
        "error: expected a statement, found `{`\n  --> <qasm>:2:1\n   |\n 2 | {\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n}",
        "2:1: expected a statement, found `}`",
        "error: expected a statement, found `}`\n  --> <qasm>:2:1\n   |\n 2 | }\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n+",
        "2:1: expected a statement, found `+`",
        "error: expected a statement, found `+`\n  --> <qasm>:2:1\n   |\n 2 | +\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n-",
        "2:1: expected a statement, found `-`",
        "error: expected a statement, found `-`\n  --> <qasm>:2:1\n   |\n 2 | -\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n*",
        "2:1: expected a statement, found `*`",
        "error: expected a statement, found `*`\n  --> <qasm>:2:1\n   |\n 2 | *\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n/",
        "2:1: expected a statement, found `/`",
        "error: expected a statement, found `/`\n  --> <qasm>:2:1\n   |\n 2 | /\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n^",
        "2:1: expected a statement, found `^`",
        "error: expected a statement, found `^`\n  --> <qasm>:2:1\n   |\n 2 | ^\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n->",
        "2:1: expected a statement, found `->`",
        "error: expected a statement, found `->`\n  --> <qasm>:2:1\n   |\n 2 | ->\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n==",
        "2:1: expected a statement, found `==`",
        "error: expected a statement, found `==`\n  --> <qasm>:2:1\n   |\n 2 | ==\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n7",
        "2:1: expected a statement, found integer `7`",
        "error: expected a statement, found integer `7`\n  --> <qasm>:2:1\n   |\n 2 | 7\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n2.5",
        "2:1: expected a statement, found real `2.5`",
        "error: expected a statement, found real `2.5`\n  --> <qasm>:2:1\n   |\n 2 | 2.5\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n1e-7",
        "2:1: expected a statement, found real `0.0000001`",
        "error: expected a statement, found real `0.0000001`\n  --> <qasm>:2:1\n   |\n 2 | 1e-7\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n\"s\"",
        "2:1: expected a statement, found string \"s\"",
        "error: expected a statement, found string \"s\"\n  --> <qasm>:2:1\n   |\n 2 | \"s\"\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude qelib1;",
        "2:9: expected include path, found `qelib1`",
        "error: expected include path, found `qelib1`\n  --> <qasm>:2:9\n   |\n 2 | include qelib1;\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"other.inc\";",
        "2:9: unsupported include \"other.inc\"; only \"qelib1.inc\" is available",
        "error: unsupported include \"other.inc\"; only \"qelib1.inc\" is available\n  --> <qasm>:2:9\n   |\n 2 | include \"other.inc\";\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"é\";",
        "2:9: unsupported include \"é\"; only \"qelib1.inc\" is available",
        "error: unsupported include \"é\"; only \"qelib1.inc\" is available\n  --> <qasm>:2:9\n   |\n 2 | include \"é\";\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\"",
        "2:21: expected `;` after statement, found end of input",
        "error: expected `;` after statement, found end of input\n  --> <qasm>:2:21\n   |\n 2 | include \"qelib1.inc\"\n   |                     ^",
    ),
    (
        "OPENQASM 2.0;\nqreg 3;",
        "2:6: expected register name, found integer `3`",
        "error: expected register name, found integer `3`\n  --> <qasm>:2:6\n   |\n 2 | qreg 3;\n   |      ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q;",
        "2:7: expected `[` after register name, found `;`",
        "error: expected `[` after register name, found `;`\n  --> <qasm>:2:7\n   |\n 2 | qreg q;\n   |       ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1.5];",
        "2:8: expected register size, found real `1.5`",
        "error: expected register size, found real `1.5`\n  --> <qasm>:2:8\n   |\n 2 | qreg q[1.5];\n   |        ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[0];",
        "2:8: register `q` must not be empty",
        "error: register `q` must not be empty\n  --> <qasm>:2:8\n   |\n 2 | qreg q[0];\n   |        ^",
    ),
    (
        "OPENQASM 2.0;\ncreg c[2;",
        "2:9: expected `]` after register size, found `;`",
        "error: expected `]` after register size, found `;`\n  --> <qasm>:2:9\n   |\n 2 | creg c[2;\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\ngate 1 a { }",
        "2:6: expected gate name, found integer `1`",
        "error: expected gate name, found integer `1`\n  --> <qasm>:2:6\n   |\n 2 | gate 1 a { }\n   |      ^",
    ),
    (
        "OPENQASM 2.0;\ngate g(a b) q { }",
        "2:10: expected `)` after gate parameters, found `b`",
        "error: expected `)` after gate parameters, found `b`\n  --> <qasm>:2:10\n   |\n 2 | gate g(a b) q { }\n   |          ^",
    ),
    (
        "OPENQASM 2.0;\ngate g(1) q { }",
        "2:8: expected parameter name, found integer `1`",
        "error: expected parameter name, found integer `1`\n  --> <qasm>:2:8\n   |\n 2 | gate g(1) q { }\n   |        ^",
    ),
    (
        "OPENQASM 2.0;\ngate g { }",
        "2:8: expected qubit argument name, found `{`",
        "error: expected qubit argument name, found `{`\n  --> <qasm>:2:8\n   |\n 2 | gate g { }\n   |        ^",
    ),
    (
        "OPENQASM 2.0;\ngate g a, { }",
        "2:11: expected qubit argument name, found `{`",
        "error: expected qubit argument name, found `{`\n  --> <qasm>:2:11\n   |\n 2 | gate g a, { }\n   |           ^",
    ),
    (
        "OPENQASM 2.0;\ngate g a;",
        "2:9: expected `{` before gate body, found `;`",
        "error: expected `{` before gate body, found `;`\n  --> <qasm>:2:9\n   |\n 2 | gate g a;\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\ngate g a { CX a,a;",
        "2:19: unclosed body of gate `g`",
        "error: unclosed body of gate `g`\n  --> <qasm>:2:19\n   |\n 2 | gate g a { CX a,a;\n   |                   ^",
    ),
    (
        "OPENQASM 2.0;\ngate g a { 1 }",
        "2:12: expected gate application, found integer `1`",
        "error: expected gate application, found integer `1`\n  --> <qasm>:2:12\n   |\n 2 | gate g a { 1 }\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ngate g a { measure a; }",
        "2:12: `measure` is not allowed inside the body of gate `g`",
        "error: `measure` is not allowed inside the body of gate `g`\n  --> <qasm>:2:12\n   |\n 2 | gate g a { measure a; }\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ngate g a { barrier 1; }",
        "2:20: expected qubit argument name, found integer `1`",
        "error: expected qubit argument name, found integer `1`\n  --> <qasm>:2:20\n   |\n 2 | gate g a { barrier 1; }\n   |                    ^",
    ),
    (
        "OPENQASM 2.0;\ngate g a { U(0,0,0) a }",
        "2:23: expected `;` after statement, found `}`",
        "error: expected `;` after statement, found `}`\n  --> <qasm>:2:23\n   |\n 2 | gate g a { U(0,0,0) a }\n   |                       ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] c[0];",
        "4:14: expected `->` in measure statement, found `c`",
        "error: expected `->` in measure statement, found `c`\n  --> <qasm>:4:14\n   |\n 4 | measure q[0] c[0];\n   |              ^",
    ),
    (
        "OPENQASM 2.0;\nopaque magic q;",
        "2:1: unsupported construct: `opaque` gates have no body to lower; define the gate with `gate ... { ... }` instead",
        "error: unsupported construct: `opaque` gates have no body to lower; define the gate with `gate ... { ... }` instead\n  --> <qasm>:2:1\n   |\n 2 | opaque magic q;\n   | ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c==1) x q[0];",
        "4:1: unsupported construct: classically-controlled `if` statements (the OneQ pipeline compiles straight-line circuits)",
        "error: unsupported construct: classically-controlled `if` statements (the OneQ pipeline compiles straight-line circuits)\n  --> <qasm>:4:1\n   |\n 4 | if (c==1) x q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nreset q[0];",
        "3:1: unsupported construct: `reset` (mid-circuit re-initialization has no one-way equivalent in this pipeline)",
        "error: unsupported construct: `reset` (mid-circuit re-initialization has no one-way equivalent in this pipeline)\n  --> <qasm>:3:1\n   |\n 3 | reset q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(0,0,0) q[a];",
        "3:12: expected register index, found `a`",
        "error: expected register index, found `a`\n  --> <qasm>:3:12\n   |\n 3 | U(0,0,0) q[a];\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(0,0,0) q[0;",
        "3:13: expected `]` after register index, found `;`",
        "error: expected `]` after register index, found `;`\n  --> <qasm>:3:13\n   |\n 3 | U(0,0,0) q[0;\n   |             ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(0,0,0 q[0];",
        "3:9: expected `)` after gate parameters, found `q`",
        "error: expected `)` after gate parameters, found `q`\n  --> <qasm>:3:9\n   |\n 3 | U(0,0,0 q[0];\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(0,0,0) 1;",
        "3:10: expected register name, found integer `1`",
        "error: expected register name, found integer `1`\n  --> <qasm>:3:10\n   |\n 3 | U(0,0,0) 1;\n   |          ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nbarrier ;",
        "3:9: expected register name, found `;`",
        "error: expected register name, found `;`\n  --> <qasm>:3:9\n   |\n 3 | barrier ;\n   |         ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(;) q[0];",
        "3:3: expected an expression, found `;`",
        "error: expected an expression, found `;`\n  --> <qasm>:3:3\n   |\n 3 | U(;) q[0];\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(\"x\") q[0];",
        "3:3: expected an expression, found string \"x\"",
        "error: expected an expression, found string \"x\"\n  --> <qasm>:3:3\n   |\n 3 | U(\"x\") q[0];\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU((1,0,0) q[0];",
        "3:5: expected `)` closing the expression, found `,`",
        "error: expected `)` closing the expression, found `,`\n  --> <qasm>:3:5\n   |\n 3 | U((1,0,0) q[0];\n   |     ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(sin 1,0,0) q[0];",
        "3:7: expected `(` after function name, found integer `1`",
        "error: expected `(` after function name, found integer `1`\n  --> <qasm>:3:7\n   |\n 3 | U(sin 1,0,0) q[0];\n   |       ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(sin(1,0,0) q[0];",
        "3:8: expected `)` after function argument, found `,`",
        "error: expected `)` after function argument, found `,`\n  --> <qasm>:3:8\n   |\n 3 | U(sin(1,0,0) q[0];\n   |        ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(2^,0,0) q[0];",
        "3:5: expected an expression, found `,`",
        "error: expected an expression, found `,`\n  --> <qasm>:3:5\n   |\n 3 | U(2^,0,0) q[0];\n   |     ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(-,0,0) q[0];",
        "3:4: expected an expression, found `,`",
        "error: expected an expression, found `,`\n  --> <qasm>:3:4\n   |\n 3 | U(-,0,0) q[0];\n   |    ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nh q[0];",
        "3:1: unknown gate `h`; did you forget `include \"qelib1.inc\";`?",
        "error: unknown gate `h`; did you forget `include \"qelib1.inc\";`?\n  --> <qasm>:3:1\n   |\n 3 | h q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nmystery q[0];",
        "3:1: unknown gate `mystery`",
        "error: unknown gate `mystery`\n  --> <qasm>:3:1\n   |\n 3 | mystery q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0], q[1];",
        "4:1: gate `h` acts on 1 qubit(s), got 2",
        "error: gate `h` acts on 1 qubit(s), got 2\n  --> <qasm>:4:1\n   |\n 4 | h q[0], q[1];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz q[0];",
        "4:1: gate `rz` takes 1 parameter(s), got 0",
        "error: gate `rz` takes 1 parameter(s), got 0\n  --> <qasm>:4:1\n   |\n 4 | rz q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz(theta) q[0];",
        "4:4: unknown identifier `theta` in parameter expression (only constants and `pi` are allowed here)",
        "error: unknown identifier `theta` in parameter expression (only constants and `pi` are allowed here)\n  --> <qasm>:4:4\n   |\n 4 | rz(theta) q[0];\n   |    ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate h a { x a; }",
        "3:1: gate `h` is already defined",
        "error: gate `h` is already defined\n  --> <qasm>:3:1\n   |\n 3 | gate h a { x a; }\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g a { x a; }\ngate g a { y a; }",
        "4:1: gate `g` is already defined",
        "error: gate `g` is already defined\n  --> <qasm>:4:1\n   |\n 4 | gate g a { y a; }\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nqreg q[3];",
        "4:1: register `q` is already declared",
        "error: register `q` is already declared\n  --> <qasm>:4:1\n   |\n 4 | qreg q[3];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg q[3];",
        "4:1: register `q` is already declared",
        "error: register `q` is already declared\n  --> <qasm>:4:1\n   |\n 4 | creg q[3];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ncreg c[2];\nqreg c[3];",
        "4:1: register `c` is already declared",
        "error: register `c` is already declared\n  --> <qasm>:4:1\n   |\n 4 | qreg c[3];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nh nope[0];",
        "3:3: unknown quantum register `nope`",
        "error: unknown quantum register `nope`\n  --> <qasm>:3:3\n   |\n 3 | h nope[0];\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ncreg c[2];\nh c[0];",
        "4:3: `c` is a classical register; a quantum register is required",
        "error: `c` is a classical register; a quantum register is required\n  --> <qasm>:4:3\n   |\n 4 | h c[0];\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[5];",
        "4:3: index 5 out of range for register `q` of size 2",
        "error: index 5 out of range for register `q` of size 2\n  --> <qasm>:4:3\n   |\n 4 | h q[5];\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> q[1];",
        "5:17: `q` is a quantum register; a classical register is required",
        "error: `q` is a quantum register; a classical register is required\n  --> <qasm>:5:17\n   |\n 5 | measure q[0] -> q[1];\n   |                 ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nmeasure q[0] -> nope[1];",
        "4:17: unknown classical register `nope`",
        "error: unknown classical register `nope`\n  --> <qasm>:4:17\n   |\n 4 | measure q[0] -> nope[1];\n   |                 ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[2];",
        "5:17: index 2 out of range for register `c` of size 2",
        "error: index 2 out of range for register `c` of size 2\n  --> <qasm>:5:17\n   |\n 5 | measure q[0] -> c[2];\n   |                 ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[3];\nmeasure q -> c;",
        "5:1: measure width mismatch: `q` has 2 qubits, `c` has 3 bits",
        "error: measure width mismatch: `q` has 2 qubits, `c` has 3 bits\n  --> <qasm>:5:1\n   |\n 5 | measure q -> c;\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nmeasure q -> c[0];",
        "5:1: measure must map register -> register or bit -> bit",
        "error: measure must map register -> register or bit -> bit\n  --> <qasm>:5:1\n   |\n 5 | measure q -> c[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c;",
        "5:1: measure must map register -> register or bit -> bit",
        "error: measure must map register -> register or bit -> bit\n  --> <qasm>:5:1\n   |\n 5 | measure q[0] -> c;\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nbarrier q, r;",
        "4:12: unknown quantum register `r`",
        "error: unknown quantum register `r`\n  --> <qasm>:4:12\n   |\n 4 | barrier q, r;\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g(a, a) q { }",
        "3:1: duplicate parameter `a` in gate `g`",
        "error: duplicate parameter `a` in gate `g`\n  --> <qasm>:3:1\n   |\n 3 | gate g(a, a) q { }\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g a, a { }",
        "3:1: duplicate qubit argument `a` in gate `g`",
        "error: duplicate qubit argument `a` in gate `g`\n  --> <qasm>:3:1\n   |\n 3 | gate g a, a { }\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ngate g a { h a; }",
        "2:12: unknown gate `h` in body of `g`; did you forget `include \"qelib1.inc\";`?",
        "error: unknown gate `h` in body of `g`; did you forget `include \"qelib1.inc\";`?\n  --> <qasm>:2:12\n   |\n 2 | gate g a { h a; }\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g a { mystery a; }",
        "3:12: unknown gate `mystery` in body of `g`",
        "error: unknown gate `mystery` in body of `g`\n  --> <qasm>:3:12\n   |\n 3 | gate g a { mystery a; }\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g a { rz a; }",
        "3:12: gate `rz` takes 1 parameter(s), got 0",
        "error: gate `rz` takes 1 parameter(s), got 0\n  --> <qasm>:3:12\n   |\n 3 | gate g a { rz a; }\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g a { cx a; }",
        "3:12: gate `cx` acts on 2 qubit(s), got 1",
        "error: gate `cx` acts on 2 qubit(s), got 1\n  --> <qasm>:3:12\n   |\n 3 | gate g a { cx a; }\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g a { x b; }",
        "3:12: `b` is not a qubit argument of gate `g`",
        "error: `b` is not a qubit argument of gate `g`\n  --> <qasm>:3:12\n   |\n 3 | gate g a { x b; }\n   |            ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g a, b { cx a, a; }",
        "3:15: gate `cx` applied to duplicate qubit `a`",
        "error: gate `cx` applied to duplicate qubit `a`\n  --> <qasm>:3:15\n   |\n 3 | gate g a, b { cx a, a; }\n   |               ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g(theta) a { rz(phi) a; }",
        "3:22: unknown identifier `phi` in body of gate `g`",
        "error: unknown identifier `phi` in body of gate `g`\n  --> <qasm>:3:22\n   |\n 3 | gate g(theta) a { rz(phi) a; }\n   |                      ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ngate g(theta) a { rz(theta + 2*phi) a; }",
        "3:32: unknown identifier `phi` in body of gate `g`",
        "error: unknown identifier `phi` in body of gate `g`\n  --> <qasm>:3:32\n   |\n 3 | gate g(theta) a { rz(theta + 2*phi) a; }\n   |                                ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[2];\nqreg b[3];\ncx a, b;",
        "5:7: broadcast size mismatch: register `b` has 3 qubits, expected 2",
        "error: broadcast size mismatch: register `b` has 3 qubits, expected 2\n  --> <qasm>:5:7\n   |\n 5 | cx a, b;\n   |       ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[2];\nqreg b[3];\nccx a, a[0], b;",
        "5:14: broadcast size mismatch: register `b` has 3 qubits, expected 2",
        "error: broadcast size mismatch: register `b` has 3 qubits, expected 2\n  --> <qasm>:5:14\n   |\n 5 | ccx a, a[0], b;\n   |              ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0], q[0];",
        "4:1: gate `cx` applied to duplicate qubit (wire 0)",
        "error: gate `cx` applied to duplicate qubit (wire 0)\n  --> <qasm>:4:1\n   |\n 4 | cx q[0], q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q, q[1];",
        "4:1: gate `cx` applied to duplicate qubit (wire 1)",
        "error: gate `cx` applied to duplicate qubit (wire 1)\n  --> <qasm>:4:1\n   |\n 4 | cx q, q[1];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz(1/0) q[0];",
        "4:1: gate parameter evaluates to inf; angles must be finite",
        "error: gate parameter evaluates to inf; angles must be finite\n  --> <qasm>:4:1\n   |\n 4 | rz(1/0) q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz(-1/0) q[0];",
        "4:1: gate parameter evaluates to -inf; angles must be finite",
        "error: gate parameter evaluates to -inf; angles must be finite\n  --> <qasm>:4:1\n   |\n 4 | rz(-1/0) q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz(0/0) q[0];",
        "4:1: gate parameter evaluates to NaN; angles must be finite",
        "error: gate parameter evaluates to NaN; angles must be finite\n  --> <qasm>:4:1\n   |\n 4 | rz(0/0) q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ngate g(x) a { rz(1/x) a; }\ng(0) q[0];",
        "5:1: gate parameter evaluates to inf; angles must be finite",
        "error: gate parameter evaluates to inf; angles must be finite\n  --> <qasm>:5:1\n   |\n 5 | g(0) q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ngate g(x) a, b { cx a, b; crz(ln(x)) a, b; }\ng(0) q[1], q[0];",
        "5:1: gate parameter evaluates to -inf; angles must be finite",
        "error: gate parameter evaluates to -inf; angles must be finite\n  --> <qasm>:5:1\n   |\n 5 | g(0) q[1], q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nu2(0, exp(1000)) q[0];",
        "4:1: gate parameter evaluates to inf; angles must be finite",
        "error: gate parameter evaluates to inf; angles must be finite\n  --> <qasm>:4:1\n   |\n 4 | u2(0, exp(1000)) q[0];\n   | ^",
    ),
    (
        "OPENQASM 2.0;\r\ninclude \"qelib1.inc\";\r\nqreg q[1];\r\nh q[3];\r\n",
        "4:3: index 3 out of range for register `q` of size 1",
        "error: index 3 out of range for register `q` of size 1\n  --> <qasm>:4:3\n   |\n 4 | h q[3];\n   |   ^",
    ),
    (
        "OPENQASM 2.0;\r\nqreg q[1];\r\nU(0,0,0) q[0]\r\n",
        "4:1: expected `;` after statement, found end of input",
        "error: expected `;` after statement, found end of input\n  --> <qasm>:4:1\n   |\n 4 | \n   | ^",
    ),
    (
        "OPENQASM 2.0;\r\nqreg q[1];\r\n@\r\n",
        "3:1: unexpected character `@`",
        "error: unexpected character `@`\n  --> <qasm>:3:1\n   |\n 3 | @\n   | ^",
    ),
    (
        "OPENQASM 2.0;\n\tinclude \"qelib1.inc\";\n\tqreg q[1];\n\th\tq[5];",
        "4:4: index 5 out of range for register `q` of size 1",
        "error: index 5 out of range for register `q` of size 1\n  --> <qasm>:4:4\n   |\n 4 | \th\tq[5];\n   | \t \t^",
    ),
    (
        "OPENQASM 2.0;\n\tqreg\tq[1];\t\t$",
        "2:14: unexpected character `$`",
        "error: unexpected character `$`\n  --> <qasm>:2:14\n   |\n 2 | \tqreg\tq[1];\t\t$\n   | \t    \t     \t\t^",
    ),
    (
        "OPENQASM 2.0;\n\t\tqreg q[1]\t\n\tqreg r[1];",
        "3:2: expected `;` after statement, found `qreg`",
        "error: expected `;` after statement, found `qreg`\n  --> <qasm>:3:2\n   |\n 3 | \tqreg r[1];\n   | \t^",
    ),
    (
        "include \"é\"; @",
        "1:14: unexpected character `@`",
        "error: unexpected character `@`\n  --> <qasm>:1:14\n   |\n 1 | include \"é\"; @\n   |              ^",
    ),
    (
        "OPENQASM 2.0;\n// ééé\nqreg q[1]; // ü\nU(0,0,0) q[0]; ü",
        "4:16: unexpected character `ü`",
        "error: unexpected character `ü`\n  --> <qasm>:4:16\n   |\n 4 | U(0,0,0) q[0]; ü\n   |                ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1]; // π comment\nU(0,0,0) q[0] @",
        "3:15: unexpected character `@`",
        "error: unexpected character `@`\n  --> <qasm>:3:15\n   |\n 3 | U(0,0,0) q[0] @\n   |               ^",
    ),
    (
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nh q[0];\nh q[0];\nh q[0];\nh q[0];\nh q[0];\nh q[0];\nh q[0];\nh q[9];",
        "11:3: index 9 out of range for register `q` of size 1",
        "error: index 9 out of range for register `q` of size 1\n  --> <qasm>:11:3\n    |\n 11 | h q[9];\n    |   ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(0,0,0) q[0] // no semicolon",
        "3:30: expected `;` after statement, found end of input",
        "error: expected `;` after statement, found end of input\n  --> <qasm>:3:30\n   |\n 3 | U(0,0,0) q[0] // no semicolon\n   |                              ^",
    ),
    (
        "OPENQASM 2.0;\nqreg q[1];\nU(0,0,0) q[0]\n",
        "4:1: expected `;` after statement, found end of input",
        "error: expected `;` after statement, found end of input\n  --> <qasm>:4:1\n   |\n 4 | \n   | ^",
    ),
];

#[test]
fn every_error_rendering_is_pinned() {
    for &(source, line, display) in ERROR_PINS {
        let err = parse_circuit(source)
            .err()
            .unwrap_or_else(|| panic!("{source:?} must be rejected"));
        assert_eq!(err.to_line(), line, "{source:?}");
        assert_eq!(err.to_string(), display, "{source:?}");
    }
    let err = parse_circuit("OPENQASM 2.0;\nqreg q[1];\nh q[0];")
        .unwrap_err()
        .with_file("bad.qasm");
    assert_eq!(
        err.to_line(),
        "bad.qasm:3:1: unknown gate `h`; did you forget `include \"qelib1.inc\";`?"
    );
    assert_eq!(
        err.to_string(),
        "error: unknown gate `h`; did you forget `include \"qelib1.inc\";`?\n  \
         --> bad.qasm:3:1\n   |\n 3 | h q[0];\n   | ^"
    );
}

/// `gate g0 a { x a; }` and `n` more definitions, each applying the
/// previous one `copies` times, after a one-qubit header.
fn macro_tower(n: usize, copies: usize) -> String {
    let mut src =
        String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ngate g0 a { x a; }\n");
    for i in 1..=n {
        let body = format!("g{} a; ", i - 1).repeat(copies);
        src.push_str(&format!("gate g{i} a {{ {body}}}\n"));
    }
    src
}

/// Inputs that once overflowed a worker's stack or asked for tens of GiB:
/// 10^4 parentheses, 10^5 unary minus signs, a chain of 10^4 one-op
/// macros, and 30 doubling macros (2^30 gates). Each gets its error
/// promptly on a thread with a pool worker's 2 MiB stack.
#[test]
fn hostile_inputs_get_errors_on_a_worker_sized_stack() {
    let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\n";
    let cases = [
        (
            format!(
                "{header}rz({}1{}) q[0];",
                "(".repeat(10_000),
                ")".repeat(10_000)
            ),
            "4:260: expression nests more than 256 levels deep",
        ),
        (
            format!("{header}rz({}1) q[0];", "-".repeat(100_000)),
            "4:260: expression nests more than 256 levels deep",
        ),
        (
            format!("{}g9999 q[0];", macro_tower(9_999, 1)),
            "260:1: gate `g256` nests gate definitions more than 256 levels deep",
        ),
        (
            format!("{}g30 q[0];", macro_tower(30, 2)),
            "35:1: gate `g30` would lower the program to more than 1048576 gates",
        ),
    ];
    for (source, expected) in cases {
        let started = std::time::Instant::now();
        let line = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || match parse_circuit(&source) {
                Ok(c) => format!("lowered to {} gates", c.gate_count()),
                Err(e) => e.to_line(),
            })
            .expect("spawn a 2 MiB thread")
            .join()
            .expect("parse_circuit returns");
        assert_eq!(line, expected);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "{expected}: took {:?}",
            started.elapsed()
        );
    }
}
