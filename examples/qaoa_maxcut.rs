//! QAOA maxcut workload: compile a problem-graph-driven circuit and
//! compare it against the cluster-state baseline.
//!
//! ```bash
//! cargo run --release -p oneq --example qaoa_maxcut
//! ```

use oneq::{Compiler, CompilerOptions};
use oneq_circuit::benchmarks;
use oneq_hardware::{LayerGeometry, ResourceKind};

fn main() {
    // Maxcut instance: a 8-node ring plus two chords.
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 0),
        (0, 4),
        (2, 6),
    ];
    let circuit = benchmarks::qaoa_maxcut(8, &edges, 0.8, 0.4);

    // Baseline: the basic cluster-state interpreter on the same hardware.
    let baseline = oneq_baseline::evaluate(&circuit, ResourceKind::LINE3);
    println!("{baseline}");

    // OneQ on the same physical area.
    let geometry = LayerGeometry::square(baseline.physical_side);
    let program = Compiler::new(CompilerOptions::new(geometry)).compile(&circuit);
    println!(
        "oneq:     depth={}, fusions={} ({} partitions)",
        program.depth, program.fusions, program.stats.partitions
    );
    println!(
        "improvement: depth {:.0}x, fusions {:.0}x",
        baseline.depth as f64 / program.depth as f64,
        baseline.fusions as f64 / program.fusions as f64
    );
}
