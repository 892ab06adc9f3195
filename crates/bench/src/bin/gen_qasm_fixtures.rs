//! `gen_qasm_fixtures`: (re)generates the `.qasm` fixture corpus under
//! `tests/fixtures/qasm/` from the built-in paper-benchmark constructors.
//!
//! The corpus is the ground truth for the frontend's fixture-parity tests
//! and the `oneqc` and service suites. Because the files are produced by
//! [`oneq_bench::qasm_fixtures`] + [`Circuit::to_qasm`]
//! (round-trip-exact angle formatting), the `frontend_fixtures` test can
//! assert byte equality against a fresh render, and that the directory
//! holds no other `.qasm` file — the fixtures can never silently drift
//! from the constructors.
//!
//! Usage:
//!
//! ```text
//! cargo run -p oneq-bench --bin gen_qasm_fixtures
//! ```
//!
//! [`Circuit::to_qasm`]: oneq_circuit::Circuit::to_qasm

use oneq_bench::{qasm_fixture_dir, qasm_fixtures, render_qasm_fixture};

fn main() {
    let dir = qasm_fixture_dir();
    std::fs::create_dir_all(&dir).expect("create tests/fixtures/qasm");
    for (name, circuit) in qasm_fixtures() {
        let path = dir.join(format!("{name}.qasm"));
        std::fs::write(&path, render_qasm_fixture(name, &circuit)).expect("write fixture");
        println!("wrote   {}", path.display());
    }
}
