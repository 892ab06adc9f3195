//! Determinism regression gate (PR 2).
//!
//! The mapping hot path used to iterate hashed cell maps, so two compiles
//! of the same circuit could produce different layouts and different
//! reported metrics. The rebuild on flat dense grids fixes that bug class
//! at the root; this suite pins the guarantee: compiling any paper
//! benchmark twice with identical [`CompilerOptions`] yields bit-identical
//! `StageStats`, depth, #fusions, and layouts. CI enforces the same
//! property end to end by running the `table2` binary twice and diffing
//! the outputs.

use oneq::{CompiledProgram, Compiler, CompilerOptions};
use oneq_bench::{BenchKind, SEED};
use oneq_hardware::{LayerGeometry, ResourceKind};

fn assert_identical(a: &CompiledProgram, b: &CompiledProgram, label: &str) {
    assert_eq!(
        a.stats, b.stats,
        "{label}: StageStats must be bit-identical"
    );
    assert_eq!(a.depth, b.depth, "{label}: depth");
    assert_eq!(a.fusions, b.fusions, "{label}: #fusions");
    assert_eq!(a.layouts.len(), b.layouts.len(), "{label}: layout count");
    for (i, (la, lb)) in a.layouts.iter().zip(&b.layouts).enumerate() {
        assert_eq!(
            la.placed_nodes(),
            lb.placed_nodes(),
            "{label}: layer {i} placements"
        );
        let cells_a: Vec<_> = la.cells().collect();
        let cells_b: Vec<_> = lb.cells().collect();
        assert_eq!(cells_a, cells_b, "{label}: layer {i} cells");
    }
}

/// Every paper benchmark (smallest Table 2 size, to stay fast in debug
/// builds) compiles to the same program twice on its Table 2 geometry.
#[test]
fn paper_benchmarks_compile_deterministically() {
    for kind in BenchKind::ALL {
        let n = kind.paper_sizes()[0];
        let circuit = kind.circuit(n, SEED);
        let side = oneq_baseline::physical_side(n, ResourceKind::LINE3);
        let options = CompilerOptions::new(LayerGeometry::square(side));
        let a = Compiler::new(options).compile(&circuit);
        let b = Compiler::new(options).compile(&circuit);
        assert_identical(&a, &b, &format!("{}-{n}", kind.name()));
    }
}

/// BV-100 — the largest paper benchmark — stays deterministic too (it is
/// cheap to compile, so it can ride in debug test runs).
#[test]
fn largest_benchmark_is_deterministic() {
    let circuit = BenchKind::Bv.circuit(100, SEED);
    let side = oneq_baseline::physical_side(100, ResourceKind::LINE3);
    let options = CompilerOptions::new(LayerGeometry::square(side));
    let a = Compiler::new(options).compile(&circuit);
    let b = Compiler::new(options).compile(&circuit);
    assert_identical(&a, &b, "BV-100");
}

/// Non-default geometry knobs (rectangular layers, extension factors,
/// non-orthogonal coupling) do not break the guarantee.
#[test]
fn geometry_variants_are_deterministic() {
    use oneq_hardware::Topology;
    let circuit = BenchKind::Qaoa.circuit(16, SEED);
    let configs = [
        CompilerOptions::new(LayerGeometry::from_area_and_ratio(256, 1.5)),
        CompilerOptions::new(LayerGeometry::new(16, 16)).with_extension(2),
        CompilerOptions::new(LayerGeometry::new(16, 16).with_topology(Topology::Triangular)),
    ];
    for (i, options) in configs.into_iter().enumerate() {
        let a = Compiler::new(options).compile(&circuit);
        let b = Compiler::new(options).compile(&circuit);
        assert_identical(&a, &b, &format!("config {i}"));
    }
}

/// The resource-kind sweep of Fig. 12 is deterministic per kind.
#[test]
fn resource_kinds_are_deterministic() {
    let circuit = BenchKind::Rca.circuit(16, SEED);
    for kind in [
        ResourceKind::LINE3,
        ResourceKind::LINE4,
        ResourceKind::STAR4,
        ResourceKind::RING4,
    ] {
        let options = CompilerOptions::new(LayerGeometry::new(16, 16)).with_resource_kind(kind);
        let a = Compiler::new(options).compile(&circuit);
        let b = Compiler::new(options).compile(&circuit);
        assert_identical(&a, &b, &format!("{kind}"));
    }
}
