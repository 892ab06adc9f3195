//! Structural invariants of the compilation pipeline, checked across the
//! crate boundaries the stages communicate over.

use oneq::fusion_graph;
use oneq::mapping::{map_graph, CellUse, MappingOptions};
use oneq::partition::{partition, PartitionOptions};
use oneq::CompilerOptions;
use oneq_bench::{BenchKind, SEED};
use oneq_graph::{planarity, Edge, NodeId};
use oneq_hardware::{LayerGeometry, Position, ResourceKind, Topology};
use oneq_mbqc::translate;
use std::collections::{HashMap, HashSet};

#[test]
fn partitions_cover_nodes_and_edges_exactly() {
    for kind in BenchKind::ALL {
        let pattern = translate::from_circuit(&kind.circuit(9, SEED));
        let result = partition(&pattern, &PartitionOptions::default());
        let mut nodes = HashSet::new();
        let mut edge_total = 0;
        for p in &result.partitions {
            for &g in &p.global_nodes {
                assert!(nodes.insert(g), "{}: duplicated node {g}", kind.name());
            }
            edge_total += p.subgraph.edge_count();
        }
        assert_eq!(nodes.len(), pattern.node_count(), "{}", kind.name());
        assert_eq!(
            edge_total + result.cross_edges.len(),
            pattern.edge_count(),
            "{}: edges must be partition-internal or cross",
            kind.name()
        );
    }
}

#[test]
fn partition_subgraphs_are_planar_under_enforcement() {
    for kind in BenchKind::ALL {
        let pattern = translate::from_circuit(&kind.circuit(9, SEED));
        let result = partition(&pattern, &PartitionOptions::default());
        for (i, p) in result.partitions.iter().enumerate() {
            assert!(
                planarity::is_planar(&p.subgraph),
                "{} partition {i} must be planar",
                kind.name()
            );
        }
    }
}

#[test]
fn fusion_graphs_of_planar_partitions_stay_planar() {
    for kind in BenchKind::ALL {
        let pattern = translate::from_circuit(&kind.circuit(9, SEED));
        let result = partition(&pattern, &PartitionOptions::default());
        for p in &result.partitions {
            let fg = fusion_graph::generate(&p.subgraph, &p.full_degree, ResourceKind::LINE3);
            assert!(
                planarity::is_planar(fg.graph()),
                "{}: planarity must be preserved by synthesis (paper Fig. 9)",
                kind.name()
            );
        }
    }
}

#[test]
fn fusion_nodes_respect_photon_budget() {
    for kind in BenchKind::ALL {
        let pattern = translate::from_circuit(&kind.circuit(9, SEED));
        let result = partition(&pattern, &PartitionOptions::default());
        for p in &result.partitions {
            for resource in [ResourceKind::LINE3, ResourceKind::STAR4] {
                let fg = fusion_graph::generate(&p.subgraph, &p.full_degree, resource);
                let budget = resource.effective().qubit_count();
                for n in fg.graph().nodes() {
                    assert!(
                        fg.graph().degree(n) <= budget,
                        "{}: node exceeds {resource} photon budget",
                        kind.name()
                    );
                }
            }
        }
    }
}

#[test]
fn mapping_places_every_fusion_node_once() {
    let pattern = translate::from_circuit(&BenchKind::Qft.circuit(9, SEED));
    let result = partition(&pattern, &PartitionOptions::default());
    for p in &result.partitions {
        let fg = fusion_graph::generate(&p.subgraph, &p.full_degree, ResourceKind::LINE3);
        let mapped = map_graph(
            fg.graph(),
            LayerGeometry::new(12, 12),
            &MappingOptions::default(),
        );
        assert_eq!(mapped.placement.len(), fg.node_count());
        // No two nodes share a cell on the same layer.
        let mut seen: HashSet<(usize, oneq_hardware::Position)> = HashSet::new();
        for &slot in mapped.placement.values() {
            assert!(seen.insert(slot), "two nodes share cell {slot:?}");
        }
    }
}

#[test]
fn mapping_fusion_count_lower_bound() {
    // Each fusion-graph edge costs at least one fusion; routing/shuffling
    // only add to that.
    let pattern = translate::from_circuit(&BenchKind::Qaoa.circuit(9, SEED));
    let result = partition(&pattern, &PartitionOptions::default());
    for p in &result.partitions {
        let fg = fusion_graph::generate(&p.subgraph, &p.full_degree, ResourceKind::LINE3);
        let mapped = map_graph(
            fg.graph(),
            LayerGeometry::new(12, 12),
            &MappingOptions::default(),
        );
        assert!(mapped.total_fusions() >= fg.fusion_count());
    }
}

#[test]
fn chain_lengths_match_full_degree() {
    let pattern = translate::from_circuit(&BenchKind::Bv.circuit(16, SEED));
    let result = partition(&pattern, &PartitionOptions::default());
    for p in &result.partitions {
        let fg = fusion_graph::generate(&p.subgraph, &p.full_degree, ResourceKind::LINE3);
        for (local, &d) in p.full_degree.iter().enumerate() {
            let expected = ResourceKind::LINE3.chain_nodes(d).max(1);
            assert!(
                fg.chain_length(local) >= expected.min(fg.chain_length(local)),
                "chain at least the paper's count"
            );
            if d >= 2 {
                assert_eq!(fg.chain_length(local), d - 1, "3-qubit law (paper Fig. 8)");
            }
        }
    }
}

#[test]
fn cross_edges_reference_real_nodes() {
    let pattern = translate::from_circuit(&BenchKind::Rca.circuit(8, SEED));
    let result = partition(&pattern, &PartitionOptions::default());
    let all: HashSet<NodeId> = pattern.nodes().collect();
    for &(u, v) in &result.cross_edges {
        assert!(all.contains(&u) && all.contains(&v));
        assert!(pattern.graph().has_edge(u, v));
    }
}

/// Whether `cells`, in some order, chain `from` to `to` by coupling: each
/// step has exactly one coupled cell left to go to, and the last cell is
/// coupled to `to`.
fn is_coupled_chain(
    geometry: LayerGeometry,
    from: Position,
    cells: &[Position],
    to: Position,
) -> bool {
    let mut left = cells.to_vec();
    let mut at = from;
    while !left.is_empty() {
        let next: Vec<usize> = (0..left.len())
            .filter(|&i| geometry.neighbors(at).contains(&left[i]))
            .collect();
        let [i] = next[..] else {
            return false;
        };
        at = left.swap_remove(i);
    }
    geometry.neighbors(at).contains(&to)
}

/// Every in-layer edge is realized by coupling. Each partition of the
/// four n = 16 benchmarks, partitioned as `Compiler` partitions for a
/// 16x16 layer, is mapped on orthogonal, triangular and hexagonal layers:
/// - an edge that is neither shuffled nor routed joins coupled cells of
///   one layer;
/// - the `CellUse::Routing(e)` cells of a routed edge `e` form a coupled
///   chain from one endpoint to the other.
#[test]
fn in_layer_edges_are_realized_by_coupling() {
    let mut violations = Vec::new();
    let mut checked = 0;
    for topology in [
        Topology::Orthogonal,
        Topology::Triangular,
        Topology::Hexagonal,
    ] {
        let geometry = LayerGeometry::new(16, 16).with_topology(topology);
        let opt = CompilerOptions::new(geometry);
        for kind in BenchKind::ALL {
            let pattern = translate::from_circuit(&kind.circuit(16, SEED));
            let parts = partition(&pattern, &opt.partition_options());
            for (i, part) in parts.partitions.iter().enumerate() {
                let fg = fusion_graph::generate_embedded(
                    &part.subgraph,
                    part.embedding.as_ref(),
                    &part.full_degree,
                    opt.resource_kind,
                );
                let mapped = map_graph(fg.graph(), geometry, &opt.mapping);
                let shuffled: HashSet<Edge> = mapped.shuffled.iter().map(|s| s.edge).collect();
                let mut routes: HashMap<Edge, Vec<(usize, Position)>> = HashMap::new();
                for (layer, layout) in mapped.layouts.iter().enumerate() {
                    for (p, cell) in layout.cells() {
                        if let CellUse::Routing(e) = cell {
                            routes.entry(e).or_default().push((layer, p));
                        }
                    }
                }
                for &e in &mapped.realized_edges {
                    if shuffled.contains(&e) {
                        continue;
                    }
                    checked += 1;
                    let what = format!("{topology:?} {}-16 partition {i} {e:?}", kind.name());
                    let (la, pa) = *mapped.placement.get(&e.a()).expect("endpoint placed");
                    let (lb, pb) = *mapped.placement.get(&e.b()).expect("endpoint placed");
                    let route = routes.get(&e).map_or(&[][..], Vec::as_slice);
                    let cells: Vec<Position> = route.iter().map(|&(_, p)| p).collect();
                    if la != lb || route.iter().any(|&(l, _)| l != la) {
                        violations.push(format!("{what}: spans layers"));
                    } else if route.is_empty() && !geometry.neighbors(pa).contains(&pb) {
                        violations.push(format!("{what}: direct fusion of uncoupled {pa}, {pb}"));
                    } else if !route.is_empty() && !is_coupled_chain(geometry, pa, &cells, pb) {
                        violations.push(format!("{what}: route {cells:?} from {pa} to {pb}"));
                    }
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} in-layer edges checked");
    assert!(
        violations.is_empty(),
        "{} in-layer edges not realized by coupling:\n{}",
        violations.len(),
        violations.join("\n")
    );
}
