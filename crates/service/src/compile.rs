//! Source → JSON metrics record: the one compile path behind `oneqc`
//! batch records and `oneqd` responses.
//!
//! Both front doors promise the same `oneqc/v1` record schema for the
//! same (source, config) pair, bit for bit. Keeping the record emission
//! here — one format string, one escaping helper — is what makes that
//! promise checkable instead of aspirational (`tests/service.rs` diffs
//! the daemon's bytes against the batch driver's).

use crate::json;
use oneq::{CompileProfile, Compiler, CompilerOptions};
use oneq_hardware::{LayerGeometry, ResourceKind};
use std::fmt::Write as _;
use std::time::Instant;

/// How the physical layer is sized for a compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryChoice {
    /// Square layer sized per circuit by the baseline's physical-area
    /// protocol (the Table 2 / determinism-gate geometry).
    Auto,
    /// Explicit square side.
    Square(usize),
    /// Explicit rows × cols rectangle.
    Rect(usize, usize),
}

/// One compile configuration (everything that affects the record besides
/// the source itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileConfig {
    /// Layer sizing.
    pub geometry: GeometryChoice,
    /// Extended-layer factor (≥ 1).
    pub extension: usize,
    /// Resource-state kind.
    pub resource: ResourceKind,
    /// Include per-stage wall-clock timings in the record (breaks
    /// byte determinism and therefore cacheability).
    pub timings: bool,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            geometry: GeometryChoice::Auto,
            extension: 1,
            resource: ResourceKind::LINE3,
            timings: false,
        }
    }
}

impl CompileConfig {
    /// A short, injective fingerprint of the config — one component of
    /// the compile cache key.
    pub fn fingerprint(&self) -> String {
        let geometry = match self.geometry {
            GeometryChoice::Auto => "auto".to_string(),
            GeometryChoice::Square(s) => format!("side{s}"),
            GeometryChoice::Rect(r, c) => format!("rect{r}x{c}"),
        };
        format!(
            "geom={geometry};ext={};res={}",
            self.extension,
            resource_label(self.resource)
        )
    }
}

/// The largest (extended) layer a compile may use, in cells: rows × cols
/// × extension. 2^20 cells is about 130 times the auto-sized layer of a
/// 400-qubit circuit. Larger requests are refused before any grid is
/// allocated: a grid too big for memory aborts the whole process rather
/// than panicking.
pub(crate) const MAX_LAYER_CELLS: usize = 1 << 20;

/// Checks a layer of `rows × cols` cells, extended `extension` times,
/// against [`MAX_LAYER_CELLS`].
pub(crate) fn check_layer_cells(rows: usize, cols: usize, extension: usize) -> Result<(), String> {
    match rows
        .checked_mul(cols)
        .and_then(|a| a.checked_mul(extension))
    {
        Some(cells) if cells <= MAX_LAYER_CELLS => Ok(()),
        _ => Err(format!(
            "a {rows}x{cols} layer extended {extension} times exceeds {MAX_LAYER_CELLS} cells"
        )),
    }
}

/// The CLI/query label for a resource kind.
pub fn resource_label(kind: ResourceKind) -> &'static str {
    match kind {
        k if k == ResourceKind::LINE3 => "line3",
        k if k == ResourceKind::LINE4 => "line4",
        k if k == ResourceKind::STAR4 => "star4",
        k if k == ResourceKind::RING4 => "ring4",
        _ => "custom",
    }
}

/// Parses a resource label (`line3|line4|star4|ring4`).
pub fn parse_resource(label: &str) -> Option<ResourceKind> {
    match label {
        "line3" => Some(ResourceKind::LINE3),
        "line4" => Some(ResourceKind::LINE4),
        "star4" => Some(ResourceKind::STAR4),
        "ring4" => Some(ResourceKind::RING4),
        _ => None,
    }
}

/// Renders an `oneqc/v1` error record.
pub fn error_record(file_label: &str, message: &str) -> String {
    format!(
        "{{\"file\": \"{}\", \"status\": \"error\", \"error\": \"{}\"}}",
        json::escape(file_label),
        json::escape(message)
    )
}

/// Out-of-band measurements of one compile, for telemetry: the two clocks
/// this module reads itself, and the compiler's own [`CompileProfile`]
/// (stage clocks and per-partition counters) when the compiler ran.
///
/// The record string carries timings only when `config.timings` asks for
/// them (at the cost of cacheability); this struct carries the same numbers
/// to the caller regardless, so the daemon can feed per-stage latency
/// histograms without perturbing a single record byte.
#[derive(Debug, Clone, Default)]
pub struct RecordTimings {
    /// QASM parse time in nanoseconds (up to the error, for a source that
    /// fails to parse).
    pub parse_ns: u128,
    /// End-to-end compile wall time (parse included) in nanoseconds.
    pub wall_ns: u128,
    /// What the compile measured about itself; `None` when the source
    /// failed to parse or its layer was refused, so the compiler never ran.
    pub profile: Option<CompileProfile>,
}

/// Compiles `source` under `config` and renders the `oneqc/v1` record
/// labelled `file_label`. Returns `(record, ok)`; parse failures, auto
/// geometry for a program with no qubits and layers of more than 2^20
/// cells (rows × cols × extension) become `"status": "error"` records
/// with `ok = false`, never a panic.
pub fn compile_record(file_label: &str, source: &str, config: &CompileConfig) -> (String, bool) {
    let (record, ok, _) = compile_record_timed(file_label, source, config);
    (record, ok)
}

/// [`compile_record`] plus the wall-clock breakdown of the compile.
///
/// The returned record is byte-identical to `compile_record`'s for the same
/// inputs (it *is* the same code path); timings ride alongside. The parse
/// and wall clocks are always set; the profile only when the compiler ran.
pub fn compile_record_timed(
    file_label: &str,
    source: &str,
    config: &CompileConfig,
) -> (String, bool, RecordTimings) {
    let t0 = Instant::now();
    let parsed = oneq_frontend::parse_circuit(source);
    let parse_ns = t0.elapsed().as_nanos();
    let refused = |message: &str| {
        let timings = RecordTimings {
            parse_ns,
            wall_ns: parse_ns,
            profile: None,
        };
        (error_record(file_label, message), false, timings)
    };
    let circuit = match parsed {
        Ok(c) => c,
        Err(e) => return refused(&e.with_file(file_label).to_line()),
    };

    let geometry = match config.geometry {
        // `physical_side` sizes the layer from the qubit count and
        // panics on zero.
        GeometryChoice::Auto if circuit.n_qubits() == 0 => {
            return refused(
                "the program declares no qubits, so auto geometry has no layer to size",
            );
        }
        GeometryChoice::Auto => LayerGeometry::square(oneq_baseline::physical_side(
            circuit.n_qubits(),
            config.resource,
        )),
        GeometryChoice::Square(s) => LayerGeometry::square(s),
        GeometryChoice::Rect(r, c) => LayerGeometry::new(r, c),
    };
    if let Err(e) = check_layer_cells(geometry.rows(), geometry.cols(), config.extension) {
        return refused(&e);
    }
    let options = CompilerOptions::new(geometry)
        .with_resource_kind(config.resource)
        .with_extension(config.extension);
    let t1 = Instant::now();
    let program = Compiler::new(options).compile(&circuit);
    let wall_ns = parse_ns + t1.elapsed().as_nanos();

    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"file\": \"{}\", \"status\": \"ok\", \"qubits\": {}, \"gates\": {}, \
         \"two_qubit_gates\": {}, \"rows\": {}, \"cols\": {}, \"extension_factor\": {}, \
         \"resource\": \"{}\", \"depth\": {}, \"fusions\": {}, \"partitions\": {}, \
         \"fusion_graph_nodes\": {}, \"graph_state_nodes\": {}",
        json::escape(file_label),
        circuit.n_qubits(),
        circuit.gate_count(),
        circuit.two_qubit_count(),
        geometry.rows(),
        geometry.cols(),
        config.extension,
        resource_label(config.resource),
        program.depth,
        program.fusions,
        program.stats.partitions,
        program.stats.fusion_graph_nodes,
        program.stats.graph_state_nodes,
    );
    if config.timings {
        let _ = write!(line, ", \"timings_ns\": {{\"parse\": {parse_ns}");
        for (stage, ns) in program.profile.stages() {
            let _ = write!(line, ", \"{}\": {ns}", stage.name());
        }
        let _ = write!(line, ", \"wall\": {wall_ns}}}");
    }
    line.push('}');
    let timings = RecordTimings {
        parse_ns,
        wall_ns,
        profile: Some(program.profile),
    };
    (line, true, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BELL: &str =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";

    #[test]
    fn ok_record_has_the_v1_shape() {
        let (record, ok) = compile_record("bell.qasm", BELL, &CompileConfig::default());
        assert!(ok);
        assert!(record.starts_with("{\"file\": \"bell.qasm\", \"status\": \"ok\""));
        assert!(record.contains("\"qubits\": 2"));
        assert!(record.contains("\"resource\": \"line3\""));
        assert!(record.ends_with('}'));
        assert!(!record.contains("timings_ns"));
    }

    #[test]
    fn records_are_deterministic_without_timings() {
        let config = CompileConfig::default();
        let (a, _) = compile_record("bell.qasm", BELL, &config);
        let (b, _) = compile_record("bell.qasm", BELL, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn timings_appear_on_request() {
        let config = CompileConfig {
            timings: true,
            ..CompileConfig::default()
        };
        let (record, ok) = compile_record("bell.qasm", BELL, &config);
        assert!(ok);
        assert!(record.contains("\"timings_ns\": {\"parse\": "));
    }

    #[test]
    fn timings_list_every_stage_once_in_pipeline_order() {
        let config = CompileConfig {
            timings: true,
            ..CompileConfig::default()
        };
        let (record, ok) = compile_record("bell.qasm", BELL, &config);
        assert!(ok);
        let at = record.find("\"timings_ns\": ").expect("timings field") + 14;
        let timings = json::parse_flat_object(&record[at..record.len() - 1]).expect("flat object");
        let keys: Vec<&str> = timings.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "parse",
                "translate",
                "partition",
                "fusion_graph",
                "mapping",
                "shuffle",
                "wall"
            ]
        );
        // No stage clock overlaps another or the parse clock.
        let ns: Vec<u128> = timings.iter().map(|(_, v)| v.parse().unwrap()).collect();
        assert!(ns[..6].iter().sum::<u128>() <= ns[6], "{record}");
    }

    #[test]
    fn timed_variant_returns_identical_bytes_plus_timings() {
        let config = CompileConfig::default();
        let (plain, ok_a) = compile_record("bell.qasm", BELL, &config);
        let (timed, ok_b, timings) = compile_record_timed("bell.qasm", BELL, &config);
        assert_eq!(plain, timed, "timed variant must not perturb record bytes");
        assert_eq!(ok_a, ok_b);
        assert!(timings.wall_ns >= timings.parse_ns);
        let profile = timings.profile.expect("a profile for a successful compile");
        let stages: u128 = profile.stages().map(|(_, ns)| ns).sum();
        assert!(timings.wall_ns >= timings.parse_ns + stages);
        assert!(
            !profile.partitions.is_empty(),
            "profile carries one entry per partition"
        );
        assert!(profile.totals().occupancy_peak > 0);
        let (_, ok, timings) =
            compile_record_timed("bad.qasm", "OPENQASM 2.0;\nnonsense;\n", &config);
        assert!(!ok);
        assert_parse_clock_only(&timings);
    }

    /// A compile the frontend ran but the compiler did not: a parse clock
    /// (the wall clock is that parse) and no profile.
    fn assert_parse_clock_only(timings: &RecordTimings) {
        assert!(timings.parse_ns > 0, "the parse was timed: {timings:?}");
        assert_eq!(timings.wall_ns, timings.parse_ns, "{timings:?}");
        assert!(timings.profile.is_none(), "no profile without a compile");
    }

    #[test]
    fn parse_failures_become_error_records() {
        let (record, ok) = compile_record(
            "bad.qasm",
            "OPENQASM 2.0;\nnonsense;\n",
            &CompileConfig::default(),
        );
        assert!(!ok);
        assert!(record
            .starts_with("{\"file\": \"bad.qasm\", \"status\": \"error\", \"error\": \"bad.qasm:"));
    }

    #[test]
    fn auto_layers_past_the_cell_cap_become_error_records() {
        // The auto-sized side is only known once the circuit is parsed, so
        // the request parsers cannot refuse an oversized extension of it.
        let config = CompileConfig {
            extension: MAX_LAYER_CELLS,
            ..CompileConfig::default()
        };
        let (record, ok, timings) = compile_record_timed("bell.qasm", BELL, &config);
        assert!(!ok);
        assert_parse_clock_only(&timings);
        assert!(
            record.starts_with("{\"file\": \"bell.qasm\", \"status\": \"error\""),
            "{record}"
        );
        assert!(record.contains("exceeds 1048576 cells"), "{record}");
    }

    #[test]
    fn auto_geometry_refuses_a_program_without_qubits() {
        // `physical_side(0, _)` panics, so the refusal must come first.
        for source in ["OPENQASM 2.0;", "OPENQASM 2.0;\ncreg c[2];\n"] {
            let (record, ok, timings) =
                compile_record_timed("none.qasm", source, &CompileConfig::default());
            assert!(!ok, "{source}");
            assert_parse_clock_only(&timings);
            assert!(
                record.starts_with("{\"file\": \"none.qasm\", \"status\": \"error\""),
                "{record}"
            );
            assert!(record.contains("declares no qubits"), "{record}");
        }
        // An explicit layer needs no qubit count and still compiles.
        let config = CompileConfig {
            geometry: GeometryChoice::Square(3),
            ..CompileConfig::default()
        };
        let (record, ok) = compile_record("none.qasm", "OPENQASM 2.0;", &config);
        assert!(ok, "{record}");
        assert!(record.contains("\"qubits\": 0"), "{record}");
    }

    #[test]
    fn explicit_geometries_land_in_the_record() {
        let config = CompileConfig {
            geometry: GeometryChoice::Rect(6, 9),
            ..CompileConfig::default()
        };
        let (record, ok) = compile_record("bell.qasm", BELL, &config);
        assert!(ok);
        assert!(record.contains("\"rows\": 6, \"cols\": 9"));
    }

    #[test]
    fn resource_labels_round_trip() {
        for label in ["line3", "line4", "star4", "ring4"] {
            let kind = parse_resource(label).unwrap();
            assert_eq!(resource_label(kind), label);
        }
        assert!(parse_resource("line5").is_none());
    }

    #[test]
    fn fingerprints_distinguish_configs() {
        let a = CompileConfig::default().fingerprint();
        let b = CompileConfig {
            extension: 2,
            ..CompileConfig::default()
        }
        .fingerprint();
        let c = CompileConfig {
            geometry: GeometryChoice::Square(12),
            ..CompileConfig::default()
        }
        .fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
