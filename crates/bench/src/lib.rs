//! # oneq-bench
//!
//! Benchmark harness regenerating every table and figure of the OneQ
//! paper's evaluation (§7). Each artifact has a dedicated binary:
//!
//! | Artifact | Binary | What it prints |
//! |---|---|---|
//! | Table 1 | `table1` | benchmark sizes, cluster area, physical area |
//! | Table 2 | `table2` | baseline vs OneQ depth/#fusions + improvement factors |
//! | Fig. 12 | `fig12`  | improvement factors per resource-state type |
//! | Fig. 13 | `fig13`  | normalized metrics vs layer aspect ratio |
//! | Fig. 15 | `fig15`  | normalized metrics vs physical area |
//! | §4/§6 ablations | `ablation` | planarity / edge-order / routing / extension |
//! | §7.2 extension | `topology` | orthogonal vs triangular vs hexagonal coupling |
//!
//! (Figs. 11 and 14 are layout visualizations; see `examples/mapping_viz`
//! and `examples/extended_layer`.)
//!
//! Beyond the paper artifacts, `oneqc` batch-compiles arbitrary OpenQASM
//! 2.0 files (via `oneq-frontend`) to JSONL metrics, `sweep` records the
//! perf trajectory, `loadgen` replays the fixture corpus against the
//! `oneqd` compile service and records throughput/latency/cache-hit rate
//! (`BENCH_service.json`), `oneq-top` is a live terminal cockpit over a
//! running daemon's `/v1/metrics` and `/v1/stats` (see [`scrape`]), and
//! `gen_qasm_fixtures` keeps the `.qasm` fixture corpus under
//! `tests/fixtures/qasm/` in sync with the constructors.
//!
//! The crate also owns the workspace's integration tests under the root
//! `tests/`, including the suites that gate the served `/v1` surface.

#![warn(missing_docs)]

pub mod scrape;

use oneq::{Compiler, CompilerOptions};
use oneq_baseline::BaselineResult;
use oneq_circuit::{benchmarks, Circuit};
use oneq_hardware::{LayerGeometry, ResourceKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's four benchmark programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchKind {
    /// Quantum Fourier Transform.
    Qft,
    /// QAOA maxcut on a random half-dense graph.
    Qaoa,
    /// Cuccaro ripple-carry adder.
    Rca,
    /// Bernstein–Vazirani with a random half-ones secret.
    Bv,
}

impl BenchKind {
    /// All benchmarks, in the paper's table order.
    pub const ALL: [BenchKind; 4] = [
        BenchKind::Qft,
        BenchKind::Qaoa,
        BenchKind::Rca,
        BenchKind::Bv,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BenchKind::Qft => "QFT",
            BenchKind::Qaoa => "QAOA",
            BenchKind::Rca => "RCA",
            BenchKind::Bv => "BV",
        }
    }

    /// The qubit sizes the paper evaluates for this benchmark (Table 2).
    pub fn paper_sizes(&self) -> &'static [usize] {
        match self {
            BenchKind::Bv => &[16, 25, 100],
            _ => &[16, 25, 36],
        }
    }

    /// Builds the `n`-qubit instance with a fixed seed (the random
    /// families — QAOA graphs, BV secrets — are deterministic per seed).
    pub fn circuit(&self, n: usize, seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            BenchKind::Qft => benchmarks::qft(n),
            BenchKind::Qaoa => benchmarks::qaoa_maxcut_random(n, &mut rng),
            BenchKind::Rca => benchmarks::rca(n),
            // BV-n means n qubits total: n-1 secret bits + ancilla.
            BenchKind::Bv => benchmarks::bv_random(n - 1, &mut rng),
        }
    }
}

/// One baseline-vs-OneQ comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Label, e.g. `QFT-16`.
    pub label: String,
    /// Baseline metrics.
    pub baseline: BaselineResult,
    /// OneQ depth (physical layers).
    pub depth: usize,
    /// OneQ fusion count.
    pub fusions: usize,
}

impl Comparison {
    /// Baseline depth / OneQ depth.
    pub fn depth_improvement(&self) -> f64 {
        self.baseline.depth as f64 / self.depth.max(1) as f64
    }

    /// Baseline fusions / OneQ fusions.
    pub fn fusion_improvement(&self) -> f64 {
        self.baseline.fusions as f64 / self.fusions.max(1) as f64
    }
}

/// Runs baseline and OneQ on the same physical area (the paper's Table 2
/// protocol) for one benchmark instance.
pub fn compare(kind: BenchKind, n: usize, seed: u64, resource: ResourceKind) -> Comparison {
    let circuit = kind.circuit(n, seed);
    let baseline = oneq_baseline::evaluate(&circuit, resource);
    let geometry = LayerGeometry::square(baseline.physical_side);
    let options = CompilerOptions::new(geometry).with_resource_kind(resource);
    let program = Compiler::new(options).compile(&circuit);
    Comparison {
        label: format!("{}-{}", kind.name(), n),
        baseline,
        depth: program.depth,
        fusions: program.fusions,
    }
}

/// Geometric mean helper (the paper reports geomean improvements).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Renders rows as a fixed-width text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Default RNG seed used by all experiment binaries (reproducibility).
pub const SEED: u64 = 2023;

/// The `.qasm` fixture corpus: file stem and the built-in constructor it
/// was exported from. The `gen_qasm_fixtures` bin writes these under
/// [`qasm_fixture_dir`]; the `frontend_fixtures` integration test asserts
/// the files on disk are exactly these constructors' exports, bit for
/// bit, so the corpus can never drift from the code.
pub fn qasm_fixtures() -> Vec<(&'static str, Circuit)> {
    vec![
        ("bv-16", BenchKind::Bv.circuit(16, SEED)),
        ("bv-25", BenchKind::Bv.circuit(25, SEED)),
        ("bv-100", BenchKind::Bv.circuit(100, SEED)),
        ("qaoa-16", BenchKind::Qaoa.circuit(16, SEED)),
        ("qft-16", benchmarks::qft(16)),
        ("qft_no_swaps-16", benchmarks::qft_no_swaps(16)),
        ("rca-16", BenchKind::Rca.circuit(16, SEED)),
    ]
}

/// Where the `.qasm` fixtures live: `tests/fixtures/qasm/` at the
/// workspace root.
pub fn qasm_fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/qasm")
}

/// Renders one fixture file: a provenance header plus the QASM export.
pub fn render_qasm_fixture(name: &str, circuit: &Circuit) -> String {
    format!(
        "// {name}: exported from the built-in paper-benchmark constructor (seed {SEED}).\n\
         // Generated by `cargo run -p oneq-bench --bin gen_qasm_fixtures` -- do not edit.\n\
         {}",
        circuit.to_qasm()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_at_paper_sizes() {
        for kind in BenchKind::ALL {
            for &n in kind.paper_sizes() {
                let c = kind.circuit(n, SEED);
                assert_eq!(c.n_qubits(), n, "{}-{n}", kind.name());
            }
        }
    }

    #[test]
    fn comparison_improvements_are_positive() {
        let cmp = compare(BenchKind::Bv, 16, SEED, ResourceKind::LINE3);
        assert!(cmp.depth_improvement() >= 1.0);
        assert!(cmp.fusion_improvement() >= 1.0);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
    }
}
