//! ASCII rendering of layer layouts (paper Figs. 11 and 14).
//!
//! Blue/green dots of the paper become `o` (complete fusion node) and `x`
//! (incomplete node — some edges unmapped); pink auxiliary routing states
//! become `+`; free RSG sites are `.`.

use crate::mapping::{CellUse, LayerLayout, MappingResult};
use crate::pipeline::CompiledProgram;
use oneq_graph::NodeId;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Renders one layout as a character grid.
///
/// `incomplete` marks fusion nodes whose edges were deferred to shuffling
/// (rendered `x`, the paper's green dots).
///
/// # Example
///
/// ```
/// use oneq::mapping::{map_graph, MappingOptions};
/// use oneq::viz;
/// use oneq_graph::generators;
/// use oneq_hardware::LayerGeometry;
///
/// let r = map_graph(&generators::cycle(4), LayerGeometry::new(4, 4), &MappingOptions::default());
/// let art = viz::render_layout(&r.layouts[0], &Default::default());
/// assert_eq!(art.lines().count(), 4);
/// ```
pub fn render_layout(layout: &LayerLayout, incomplete: &HashSet<NodeId>) -> String {
    let geom = layout.geometry();
    // The layout holds its occupied cells only: paint them onto a
    // row-major canvas of free sites.
    let mut canvas = vec!['.'; geom.area()];
    for (p, cell) in layout.cells() {
        canvas[geom.index_of(p)] = match cell {
            CellUse::Node(n) if incomplete.contains(&n) => 'x',
            CellUse::Node(_) => 'o',
            CellUse::Routing(_) => '+',
        };
    }
    let mut out = String::with_capacity((geom.cols() + 1) * geom.rows());
    for row in canvas.chunks(geom.cols()) {
        out.extend(row);
        out.push('\n');
    }
    out
}

/// Renders every layout of a mapping, labeling layers and marking
/// incomplete nodes from the shuffle list.
pub fn render_mapping(result: &MappingResult) -> String {
    let incomplete: HashSet<NodeId> = result
        .shuffled
        .iter()
        .flat_map(|s| [s.edge.a(), s.edge.b()])
        .collect();
    let mut out = String::new();
    for (i, layout) in result.layouts.iter().enumerate() {
        let _ = writeln!(out, "layer {i}:");
        out.push_str(&render_layout(layout, &incomplete));
    }
    if result.shuffle_layers > 0 {
        let _ = writeln!(
            out,
            "(shuffle layers: {}, shuffle fusions: {})",
            result.shuffle_layers, result.shuffle_fusions
        );
    }
    out
}

/// Renders all layouts of a compiled program.
pub fn render_program(program: &CompiledProgram) -> String {
    let mut out = String::new();
    for (i, layout) in program.layouts.iter().enumerate() {
        let _ = writeln!(out, "layer {i}:");
        out.push_str(&render_layout(layout, &HashSet::new()));
    }
    let _ = writeln!(out, "depth={} fusions={}", program.depth, program.fusions);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{map_graph, MappingOptions};
    use oneq_graph::generators;
    use oneq_hardware::{LayerGeometry, Topology};

    #[test]
    fn grid_dimensions_match_geometry() {
        let r = map_graph(
            &generators::path(4),
            LayerGeometry::new(5, 7),
            &MappingOptions::default(),
        );
        let art = render_layout(&r.layouts[0], &HashSet::new());
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().all(|l| l.chars().count() == 7));
    }

    #[test]
    fn nodes_appear_in_rendering() {
        let r = map_graph(
            &generators::cycle(6),
            LayerGeometry::new(8, 8),
            &MappingOptions::default(),
        );
        let art = render_mapping(&r);
        assert_eq!(art.matches('o').count(), 6);
    }

    #[test]
    fn routing_cells_render_as_plus() {
        let r = map_graph(
            &generators::star(12),
            LayerGeometry::new(10, 10),
            &MappingOptions::default(),
        );
        let art = render_mapping(&r);
        let plus = art.matches('+').count();
        let expected: usize = r.layouts.iter().map(|l| l.routing_cells()).sum();
        assert_eq!(plus, expected);
    }

    #[test]
    fn every_site_renders_its_cell() {
        let r = map_graph(
            &generators::grid(5, 5),
            LayerGeometry::new(3, 4).with_topology(Topology::Triangular),
            &MappingOptions::default(),
        );
        let incomplete: HashSet<NodeId> = r.shuffled.iter().map(|s| s.edge.a()).collect();
        assert!(r.layouts.len() > 1 && !incomplete.is_empty());
        for layout in &r.layouts {
            let geom = layout.geometry();
            let art = render_layout(layout, &incomplete);
            let sites: Vec<char> = art.lines().flat_map(str::chars).collect();
            for p in geom.positions() {
                let want = match layout.cell(p) {
                    Some(CellUse::Node(n)) if incomplete.contains(&n) => 'x',
                    Some(CellUse::Node(_)) => 'o',
                    Some(CellUse::Routing(_)) => '+',
                    None => '.',
                };
                assert_eq!(sites[geom.index_of(p)], want, "at {p}");
            }
        }
    }

    #[test]
    fn program_rendering_includes_metrics() {
        use crate::{Compiler, CompilerOptions};
        let program = Compiler::new(CompilerOptions::new(LayerGeometry::new(8, 8)))
            .compile(&oneq_circuit::benchmarks::bv(&[true, false]));
        let art = render_program(&program);
        assert!(art.contains("depth="));
        assert!(art.contains("fusions="));
    }
}
