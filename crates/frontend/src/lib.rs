//! # oneq-frontend
//!
//! OpenQASM 2.0 frontend for the OneQ compiler (ISCA'23 reproduction):
//! a hand-written lexer, a recursive-descent parser, and a
//! semantic-analysis and lowering pass that turns `.qasm` programs into
//! the [`oneq_circuit::Circuit`] IR the pipeline compiles.
//!
//! Supported subset: `OPENQASM 2.0;`, `include "qelib1.inc";`,
//! `qreg`/`creg`, user `gate` definitions (macros with parameter
//! expressions over `pi`), gate applications with whole-register
//! broadcasting, `barrier` and `measure` (validated, no IR effect).
//! `opaque`, `if` and `reset` are rejected with targeted messages.
//! Every error is a [`ParseError`] carrying a 1-based line/column span
//! (columns count characters, not bytes) and rendering a compiler-style
//! caret snippet via `Display`.
//!
//! Every input gets a circuit or a [`ParseError`], never a stack overflow
//! or an unbounded allocation: an expression may nest at most 256 levels
//! deep (parentheses, unary minus, function calls, `^` operands), so may a
//! gate definition's macros, and a program may lower to at most 2^20 IR
//! gates.
//!
//! The lexer scans bytes and hands out tokens that borrow from the source,
//! the parser pulls them one at a time, and the qelib1 prelude is parsed
//! and checked once per process, so a parse allocates about once per
//! statement.
//!
//! # Example
//!
//! ```
//! let circuit = oneq_frontend::parse_circuit(
//!     r#"OPENQASM 2.0;
//!        include "qelib1.inc";
//!        qreg q[2];
//!        h q[0];
//!        cx q[0], q[1];"#,
//! )
//! .unwrap();
//! assert_eq!(circuit.n_qubits(), 2);
//! assert_eq!(circuit.gate_count(), 2);
//! ```

#![warn(missing_docs)]

mod ast;
pub mod error;
mod lexer;
mod lower;
mod parser;

pub use error::{ParseError, Span};

use oneq_circuit::Circuit;

/// Parses and lowers an OpenQASM 2.0 program into a [`Circuit`].
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error with its
/// source span.
pub fn parse_circuit(source: &str) -> Result<Circuit, ParseError> {
    lower::lower(parser::parse_program(source)?, source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_parse_and_lower() {
        let c = parse_circuit(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q;\nccx q[0], q[1], q[2];",
        )
        .unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.gate_count(), 4);
    }

    #[test]
    fn named_errors_carry_the_file() {
        let err = parse_circuit("OPENQASM 2.0;\nqreg q[1];\nh q[0];")
            .unwrap_err()
            .with_file("bad.qasm");
        assert_eq!(err.file(), Some("bad.qasm"));
        assert!(err.to_line().starts_with("bad.qasm:3:1: "));
        assert!(err.to_string().contains("--> bad.qasm:3:1"));
    }

    #[test]
    fn lowered_circuit_feeds_the_decomposer() {
        let c = parse_circuit(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\nt q[1];",
        )
        .unwrap();
        let j = oneq_circuit::decompose::to_jcz(&c);
        assert!(j.gates().iter().all(oneq_circuit::Gate::is_j_or_cz));
    }
}
