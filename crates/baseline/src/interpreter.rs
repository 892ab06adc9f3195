//! The basic MBQC interpreter cost model (paper §2.2.2, §7.1).
//!
//! Gates become measurement patterns joined along the cluster's time axis
//! (paper Fig. 4): a general rotation occupies a 5-qubit line (4 columns
//! of advance), the CNOT block spans 6 columns, a SWAP is three CNOTs.
//! Identity wires are padded with X-measurement pairs, and every qubit of
//! every slice is consumed — measured for computation or removed in the Z
//! basis — which is precisely the waste OneQ eliminates.
//!
//! Depth = slices consumed by the joined patterns (gates on disjoint
//! qubits share columns; the naive interpreter does *not* exploit
//! Clifford simultaneity). Fusions = depth × physical_area: every RSG
//! emits one resource state per cycle and each is fused into the slice
//! being knitted (this reproduces the paper's Table 2 relation exactly).

use crate::cluster;
use crate::router;
use oneq_circuit::{decompose, Circuit, Gate};
use oneq_hardware::ResourceKind;
use std::fmt;

/// Pattern footprints in cluster columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprints {
    /// Columns consumed by a single-qubit J/rotation pattern (5-qubit
    /// line = 4 column advances).
    pub j_cols: usize,
    /// Columns consumed by the two-qubit CZ/CNOT pattern (15-qubit block).
    pub cz_cols: usize,
    /// Columns consumed by a SWAP (three CNOT patterns).
    pub swap_cols: usize,
}

impl Default for Footprints {
    fn default() -> Self {
        Footprints {
            j_cols: 4,
            cz_cols: 6,
            swap_cols: 18,
        }
    }
}

/// Baseline evaluation of one benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineResult {
    /// Circuit width.
    pub n_qubits: usize,
    /// Cluster slice side (paper Table 1 "cluster area" side).
    pub cluster_side: usize,
    /// RSG array side (paper Table 1 "physical area" side).
    pub physical_side: usize,
    /// SWAPs inserted by routing.
    pub swaps: usize,
    /// Physical depth: cluster slices consumed.
    pub depth: usize,
    /// Total fusions: `depth × physical_area`.
    pub fusions: usize,
}

impl BaselineResult {
    /// RSGs in the array.
    pub fn physical_area(&self) -> usize {
        self.physical_side * self.physical_side
    }
}

impl fmt::Display for BaselineResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "baseline: depth={}, fusions={}, cluster {sx}x{sx}, physical {px}x{px}",
            self.depth,
            self.fusions,
            sx = self.cluster_side,
            px = self.physical_side
        )
    }
}

/// Evaluates the baseline on `circuit` with default footprints.
pub fn evaluate(circuit: &Circuit, kind: ResourceKind) -> BaselineResult {
    evaluate_with(circuit, kind, Footprints::default())
}

/// Evaluates the baseline with explicit pattern footprints.
///
/// The circuit is lowered to `{J, CZ}`, routed on the logical grid, and
/// the joined patterns are scheduled into columns with a per-qubit
/// frontier (gates on disjoint qubits overlap in time; gates sharing a
/// qubit serialize).
pub fn evaluate_with(
    circuit: &Circuit,
    kind: ResourceKind,
    footprints: Footprints,
) -> BaselineResult {
    let n = circuit.n_qubits();
    let lowered = decompose::to_jcz(circuit);
    let side = cluster::logical_side(n);
    let routed = router::route_on_grid(&lowered, side);

    // Column scheduling with per-qubit frontiers.
    let mut frontier = vec![0usize; n];
    let mut depth = 0usize;
    for gate in routed.circuit.gates() {
        let cols = match gate {
            Gate::J(_, _) => footprints.j_cols,
            Gate::Cz(_, _) => footprints.cz_cols,
            Gate::Swap(_, _) => footprints.swap_cols,
            other => panic!("unexpected gate {other} after lowering"),
        };
        let qs = gate.qubits();
        let start = qs.iter().map(|q| frontier[q.index()]).max().unwrap_or(0);
        let end = start + cols;
        for q in qs {
            frontier[q.index()] = end;
        }
        depth = depth.max(end);
    }
    // Even an empty circuit consumes the input slice.
    let depth = depth.max(1);

    let physical_side = cluster::physical_side(n, kind);
    BaselineResult {
        n_qubits: n,
        cluster_side: cluster::cluster_side(n),
        physical_side,
        swaps: routed.swap_count,
        depth,
        fusions: depth * physical_side * physical_side,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneq_circuit::benchmarks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fusions_are_depth_times_area() {
        let r = evaluate(&benchmarks::qft(16), ResourceKind::LINE3);
        assert_eq!(r.fusions, r.depth * 256);
        assert_eq!(r.physical_area(), 256);
    }

    #[test]
    fn table1_dimensions_for_all_benchmarks() {
        let mut rng = StdRng::seed_from_u64(1);
        for (circuit, n, cl, ph) in [
            (benchmarks::qft(16), 16, 7, 16),
            (benchmarks::qft(25), 25, 9, 21),
            (benchmarks::rca(36), 36, 11, 25),
            (benchmarks::bv_random(99, &mut rng), 100, 19, 43),
        ] {
            let r = evaluate(&circuit, ResourceKind::LINE3);
            assert_eq!(r.n_qubits, n);
            assert_eq!(r.cluster_side, cl, "n={n}");
            assert_eq!(r.physical_side, ph, "n={n}");
        }
    }

    #[test]
    fn parallel_gates_share_columns() {
        let mut a = Circuit::new(4);
        a.h(0).h(1).h(2).h(3);
        let mut b = Circuit::new(4);
        b.h(0);
        let ra = evaluate(&a, ResourceKind::LINE3);
        let rb = evaluate(&b, ResourceKind::LINE3);
        assert_eq!(ra.depth, rb.depth, "disjoint H gates share columns");
    }

    #[test]
    fn sequential_gates_stack_columns() {
        let mut a = Circuit::new(1);
        a.t(0);
        let mut b = Circuit::new(1);
        b.t(0).t(0);
        let ra = evaluate(&a, ResourceKind::LINE3);
        let rb = evaluate(&b, ResourceKind::LINE3);
        assert!(rb.depth > ra.depth);
    }

    #[test]
    fn deeper_circuits_cost_more_fusions() {
        let shallow = evaluate(&benchmarks::qft(9), ResourceKind::LINE3);
        let deep = evaluate(&benchmarks::qft(16), ResourceKind::LINE3);
        assert!(deep.fusions > shallow.fusions);
    }

    #[test]
    fn empty_circuit_still_consumes_a_slice() {
        let r = evaluate(&Circuit::new(4), ResourceKind::LINE3);
        assert_eq!(r.depth, 1);
        assert!(r.fusions > 0);
    }

    #[test]
    fn custom_footprints_scale_depth() {
        let c = benchmarks::qft(9);
        let small = evaluate_with(
            &c,
            ResourceKind::LINE3,
            Footprints {
                j_cols: 2,
                cz_cols: 3,
                swap_cols: 9,
            },
        );
        let big = evaluate(&c, ResourceKind::LINE3);
        assert!(small.depth < big.depth);
    }

    #[test]
    fn display_reports_depth() {
        let r = evaluate(&benchmarks::bv(&[true, false]), ResourceKind::LINE3);
        assert!(format!("{r}").contains("depth="));
    }
}
