//! Causal-flow executability analysis (paper §4, Lemma 1).
//!
//! MBQC's classical feed-forward induces a partial order between
//! measurements. The paper's Lemma 1 states the executability condition:
//!
//! > A measurement on a qubit is executable if all its X-dependent qubits
//! > are measured and all the Z-dependent qubits of all its X-dependent
//! > qubits are measured.
//!
//! Z-dependencies alone never block execution (a π shift of the basis is a
//! re-interpretation of the outcome), and Pauli-basis measurements are
//! never blocked at all: sign flips and π shifts map X/Y/Z bases to
//! themselves, which is why all Clifford gates execute simultaneously
//! (paper §2.2.2). The *dependency layers* produced here are the unit the
//! partitioner schedules (paper §4).

use crate::pattern::Pattern;
use oneq_graph::NodeId;

/// The effective blocking dependency set of `node` per Lemma 1, after
/// Clifford pruning: empty for Pauli-basis and output nodes, otherwise the
/// X-dependencies plus the Z-dependencies of those X-dependencies.
pub fn blocking_deps(pattern: &Pattern, node: NodeId) -> Vec<NodeId> {
    let mut deps = Vec::new();
    blocking_deps_into(pattern, node, &mut deps);
    deps
}

/// [`blocking_deps`] written into `deps` (cleared first), so a sweep over
/// every node reuses one buffer.
fn blocking_deps_into(pattern: &Pattern, node: NodeId, deps: &mut Vec<NodeId>) {
    deps.clear();
    if !pattern.basis(node).is_adaptive() {
        return;
    }
    for &x in pattern.x_deps(node) {
        if !deps.contains(&x) {
            deps.push(x);
        }
        for &z in pattern.z_deps(x) {
            if z != node && !deps.contains(&z) {
                deps.push(z);
            }
        }
    }
}

/// Groups the measured nodes of `pattern` into *dependency layers*: layer
/// `k` holds measurements that become executable once layers `< k` are
/// done. Output nodes are not included.
///
/// # Panics
///
/// Panics if the dependency relation is cyclic, which cannot happen for
/// patterns produced by [`crate::translate::from_circuit`] (circuits always
/// induce a causal flow).
///
/// # Example
///
/// ```
/// use oneq_circuit::Circuit;
/// use oneq_mbqc::{flow, translate};
///
/// let mut c = Circuit::new(1);
/// c.t(0).t(0); // two dependent non-Clifford measurements
/// let p = translate::from_circuit(&c);
/// let layers = flow::dependency_layers(&p);
/// assert!(layers.len() >= 2);
/// ```
pub fn dependency_layers(pattern: &Pattern) -> Vec<Vec<NodeId>> {
    let measured = pattern.measured_nodes();
    if measured.is_empty() {
        return Vec::new();
    }
    let is_measured: Vec<bool> = {
        let mut v = vec![false; pattern.node_count()];
        for &n in &measured {
            v[n.index()] = true;
        }
        v
    };

    // layer[n] = Some(k) once assigned.
    let mut layer: Vec<Option<usize>> = vec![None; pattern.node_count()];
    let mut remaining: Vec<NodeId> = measured.clone();
    let mut next_remaining: Vec<NodeId> = Vec::new();
    let mut deps: Vec<NodeId> = Vec::new();
    let mut iterations = 0usize;
    while !remaining.is_empty() {
        iterations += 1;
        assert!(
            iterations <= pattern.node_count() + 1,
            "cyclic measurement dependencies: pattern has no causal flow"
        );
        next_remaining.clear();
        let mut progressed = false;
        for &n in &remaining {
            blocking_deps_into(pattern, n, &mut deps);
            let mut ready = true;
            let mut level = 0usize;
            for &d in &deps {
                // Dependencies on output nodes never occur (outputs are
                // unmeasured); dependencies on unmeasured non-output nodes
                // are impossible by construction.
                if !is_measured[d.index()] {
                    continue;
                }
                match layer[d.index()] {
                    Some(k) => level = level.max(k + 1),
                    None => {
                        ready = false;
                        break;
                    }
                }
            }
            if ready {
                layer[n.index()] = Some(level);
                progressed = true;
            } else {
                next_remaining.push(n);
            }
        }
        assert!(
            progressed || next_remaining.is_empty(),
            "cyclic measurement dependencies: pattern has no causal flow"
        );
        std::mem::swap(&mut remaining, &mut next_remaining);
    }

    let max_layer = layer.iter().flatten().copied().max().unwrap_or(0);
    let mut layers: Vec<Vec<NodeId>> = vec![Vec::new(); max_layer + 1];
    for &n in &measured {
        let k = layer[n.index()].expect("all measured nodes were layered");
        layers[k].push(n);
    }
    layers
}

/// *Scheduled* layers: the dependency layers of [`dependency_layers`] with
/// each measurement postponed to at least its causal-flow predecessor's
/// layer.
///
/// Lemma 1 gives the **earliest** time a measurement may run; running it
/// later is always legal (paper §4: "dependency layers within the same
/// partition do not have to be scheduled strictly according to their
/// executability orders"). Pinning every node at its earliest time tears
/// wires apart — a wire alternates Pauli and adaptive measurements, so its
/// Pauli nodes would all sit in layer 0 while their neighbours sit
/// arbitrarily late, and almost every wire edge would cross partitions.
/// Postponing each node to its wire predecessor's layer keeps wires
/// layer-monotone and the partition graphs local, which is what makes the
/// compact layouts of paper §6 possible.
pub fn scheduled_layers(pattern: &Pattern) -> Vec<Vec<NodeId>> {
    scheduled_layers_from(pattern, &dependency_layers(pattern))
}

/// [`scheduled_layers`] from the pattern's already computed
/// [`dependency_layers`] (`earliest`), for callers that need both.
pub fn scheduled_layers_from(pattern: &Pattern, earliest: &[Vec<NodeId>]) -> Vec<Vec<NodeId>> {
    if earliest.is_empty() {
        return Vec::new();
    }
    let mut layer = vec![0usize; pattern.node_count()];
    for (k, l) in earliest.iter().enumerate() {
        for &n in l {
            layer[n.index()] = k;
        }
    }
    // Wire predecessor: u with flow(u) = v.
    let mut pred: Vec<Option<NodeId>> = vec![None; pattern.node_count()];
    for u in pattern.nodes() {
        if let Some(v) = pattern.flow(u) {
            pred[v.index()] = Some(u);
        }
    }
    // Blocking dependencies and wire predecessors are always created
    // earlier than the node itself, so a single forward id-order sweep
    // reaches the fixpoint of
    //   layer(v) >= layer(pred(v))          (wire monotonicity)
    //   layer(v) >  layer(d) for blocking d (Lemma 1 stays satisfied).
    let measured = pattern.measured_nodes();
    let mut deps: Vec<NodeId> = Vec::new();
    for &v in &measured {
        if let Some(u) = pred[v.index()] {
            if pattern.basis(u).is_measured() {
                layer[v.index()] = layer[v.index()].max(layer[u.index()]);
            }
        }
        blocking_deps_into(pattern, v, &mut deps);
        for &d in &deps {
            if pattern.basis(d).is_measured() {
                layer[v.index()] = layer[v.index()].max(layer[d.index()] + 1);
            }
        }
    }
    let max_layer = measured
        .iter()
        .map(|&n| layer[n.index()])
        .max()
        .unwrap_or(0);
    let mut layers = vec![Vec::new(); max_layer + 1];
    for &n in &measured {
        layers[layer[n.index()]].push(n);
    }
    layers.retain(|l| !l.is_empty());
    layers
}

/// Summary statistics of a pattern's feed-forward structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Number of measured qubits.
    pub measured: usize,
    /// Number of adaptive (blocking) measurements.
    pub adaptive: usize,
    /// Number of dependency layers.
    pub layers: usize,
}

/// Computes [`FlowStats`] for a pattern.
pub fn stats(pattern: &Pattern) -> FlowStats {
    FlowStats {
        measured: pattern.measured_nodes().len(),
        adaptive: pattern.adaptive_count(),
        layers: dependency_layers(pattern).len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate;
    use oneq_circuit::{benchmarks, Circuit};

    #[test]
    fn clifford_circuit_is_single_layer() {
        // BV is all-Clifford: every measurement is executable immediately.
        let c = benchmarks::bv(&[true, true, false, true]);
        let p = translate::from_circuit(&c);
        let layers = dependency_layers(&p);
        assert_eq!(layers.len(), 1, "Clifford measurements form one layer");
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, p.measured_nodes().len());
    }

    #[test]
    fn sequential_t_gates_collapse_to_two_layers() {
        // T gates commute: their adaptive measurements X-depend only on the
        // intervening Pauli (X-basis) nodes, so they parallelize.
        let mut c = Circuit::new(1);
        c.t(0).t(0).t(0);
        let p = translate::from_circuit(&c);
        let layers = dependency_layers(&p);
        assert_eq!(layers.len(), 2, "got {} layers", layers.len());
    }

    #[test]
    fn chained_non_clifford_js_stack_layers() {
        // Raw J(0.3) gates produce a chain of adaptive measurements, each
        // X-depending on the previous one: layers grow linearly.
        let mut c = Circuit::new(1);
        c.j(0, 0.3).j(0, 0.3).j(0, 0.3);
        let p = translate::from_circuit(&c);
        let layers = dependency_layers(&p);
        assert_eq!(layers.len(), 3, "got {} layers", layers.len());
    }

    #[test]
    fn parallel_t_gates_share_a_layer() {
        let mut c = Circuit::new(3);
        c.t(0).t(1).t(2);
        let p = translate::from_circuit(&c);
        let layers = dependency_layers(&p);
        // The three adaptive measurements are independent.
        assert!(layers.len() <= 2, "got {} layers", layers.len());
    }

    #[test]
    fn layers_partition_measured_nodes() {
        let c = benchmarks::qft(4);
        let p = translate::from_circuit(&c);
        let layers = dependency_layers(&p);
        let mut seen = std::collections::HashSet::new();
        for l in &layers {
            for &n in l {
                assert!(seen.insert(n), "node appears in two layers");
            }
        }
        assert_eq!(seen.len(), p.measured_nodes().len());
    }

    #[test]
    fn layer_respects_lemma_one() {
        let c = benchmarks::qft(5);
        let p = translate::from_circuit(&c);
        let layers = dependency_layers(&p);
        let mut level = vec![usize::MAX; p.node_count()];
        for (k, l) in layers.iter().enumerate() {
            for &n in l {
                level[n.index()] = k;
            }
        }
        for (k, l) in layers.iter().enumerate() {
            for &n in l {
                for d in blocking_deps(&p, n) {
                    if level[d.index()] != usize::MAX {
                        assert!(
                            level[d.index()] < k,
                            "dependency {d} of {n} not in an earlier layer"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pauli_nodes_have_no_blocking_deps() {
        let c = benchmarks::bv(&[true, false]);
        let p = translate::from_circuit(&c);
        for n in p.measured_nodes() {
            assert!(blocking_deps(&p, n).is_empty());
        }
    }

    #[test]
    fn empty_pattern_has_no_layers() {
        let p = Pattern::new();
        assert!(dependency_layers(&p).is_empty());
    }

    #[test]
    fn scheduled_layers_cover_measured_nodes() {
        let c = benchmarks::qft(4);
        let p = translate::from_circuit(&c);
        let layers = scheduled_layers(&p);
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, p.measured_nodes().len());
        assert!(layers.iter().all(|l| !l.is_empty()));
    }

    #[test]
    fn scheduled_layers_never_precede_earliest() {
        let c = benchmarks::qft(5);
        let p = translate::from_circuit(&c);
        let earliest = dependency_layers(&p);
        let scheduled = scheduled_layers(&p);
        let mut e = vec![usize::MAX; p.node_count()];
        let mut s = vec![usize::MAX; p.node_count()];
        for (k, l) in earliest.iter().enumerate() {
            for &n in l {
                e[n.index()] = k;
            }
        }
        for (k, l) in scheduled.iter().enumerate() {
            for &n in l {
                s[n.index()] = k;
            }
        }
        for n in p.measured_nodes() {
            assert!(
                s[n.index()] >= e[n.index()],
                "postponement only moves measurements later"
            );
        }
    }

    #[test]
    fn scheduled_layers_are_wire_monotone() {
        let c = benchmarks::qft(4);
        let p = translate::from_circuit(&c);
        let scheduled = scheduled_layers(&p);
        let mut s = vec![usize::MAX; p.node_count()];
        for (k, l) in scheduled.iter().enumerate() {
            for &n in l {
                s[n.index()] = k;
            }
        }
        for u in p.measured_nodes() {
            if let Some(v) = p.flow(u) {
                if p.basis(v).is_measured() {
                    assert!(
                        s[v.index()] >= s[u.index()],
                        "wire successor {v} scheduled before {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn scheduled_layers_still_respect_lemma_one() {
        let c = benchmarks::qft(5);
        let p = translate::from_circuit(&c);
        let scheduled = scheduled_layers(&p);
        let mut s = vec![usize::MAX; p.node_count()];
        for (k, l) in scheduled.iter().enumerate() {
            for &n in l {
                s[n.index()] = k;
            }
        }
        for n in p.measured_nodes() {
            for d in blocking_deps(&p, n) {
                if s[d.index()] != usize::MAX {
                    assert!(s[d.index()] < s[n.index()]);
                }
            }
        }
    }

    #[test]
    fn clifford_scheduled_layers_follow_wires() {
        // BV: one dependency layer, but scheduling still spreads wires
        // monotonically without creating extra layers.
        let c = benchmarks::bv(&[true, false, true]);
        let p = translate::from_circuit(&c);
        assert_eq!(scheduled_layers(&p).len(), 1);
    }

    #[test]
    fn stats_reports_counts() {
        let c = benchmarks::qft(3);
        let p = translate::from_circuit(&c);
        let s = stats(&p);
        assert_eq!(s.measured, p.measured_nodes().len());
        assert!(s.adaptive > 0);
        assert!(s.layers >= 1);
    }

    use crate::pattern::Pattern;
}
