//! The one request model behind every compile entrypoint.
//!
//! PR 4 left three hand-rolled parsers producing a [`CompileConfig`]:
//! `oneqc`'s flag loop, `oneqd`'s query-parameter loop, and whatever a
//! future batch line would have grown. They agreed by review, not by
//! construction. [`CompileRequest`] replaces all of them: one knob table
//! (the private `Knobs::apply`) is fed by three thin front-ends —
//!
//! * [`CompileRequest::from_args`] — CLI flags (`oneqc`); unrecognized
//!   flags pass through to the caller,
//! * [`CompileRequest::from_query`] — `/v1/compile` query parameters,
//! * [`CompileRequest::from_jsonl_line`] — one `/v1/compile-batch` line,
//!
//! so a knob added to the table exists everywhere at once, with the same
//! validation message. The cache key is likewise produced by exactly one
//! method, [`CompileRequest::fingerprint`]: entrypoints cannot drift into
//! keying the same compile differently.

use crate::cache::canonicalize_source;
use crate::compile::{self, compile_record, CompileConfig, GeometryChoice, MAX_LAYER_CELLS};
use crate::http::percent_encode;
use crate::json;
use oneq_hardware::ResourceKind;

/// Everything that determines one compile response: the source text, the
/// label embedded in the record bytes, the compile configuration, and
/// whether the cache is bypassed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileRequest {
    /// The label that appears as `"file"` in the record bytes.
    pub label: String,
    /// OpenQASM 2.0 source text.
    pub source: String,
    /// The compile configuration.
    pub config: CompileConfig,
    /// Skip the cache (never read, never written) even without timings.
    pub bypass: bool,
}

/// The default record label when a request does not name its circuit.
pub const DEFAULT_LABEL: &str = "request.qasm";

/// Accumulator for the shared compile knobs. One `apply` call per
/// `(name, value)` pair, whatever the transport spelled them as; `finish`
/// resolves the geometry triplet and yields the request.
#[derive(Debug, Default)]
struct Knobs {
    side: Option<usize>,
    rows: Option<usize>,
    cols: Option<usize>,
    extension: Option<usize>,
    resource: Option<ResourceKind>,
    timings: Option<bool>,
    bypass: Option<bool>,
    label: Option<String>,
}

impl Knobs {
    /// Applies one knob. `name` is the bare knob name (`side`, `file`,
    /// …); returns `Ok(false)` when the name is not a compile knob so
    /// front-ends can route their own parameters.
    fn apply(&mut self, name: &str, value: &str) -> Result<bool, String> {
        match name {
            "side" => self.side = Some(parse_dim(value, "side")?),
            "rows" => self.rows = Some(parse_dim(value, "rows")?),
            "cols" => self.cols = Some(parse_dim(value, "cols")?),
            "extension" => self.extension = Some(parse_dim(value, "extension")?),
            "resource" => {
                self.resource = Some(
                    compile::parse_resource(value)
                        .ok_or_else(|| format!("unknown resource kind `{value}`"))?,
                );
            }
            "timings" => self.timings = Some(parse_bool(value, "timings")?),
            "bypass" => self.bypass = Some(parse_bool(value, "bypass")?),
            "file" => self.label = Some(value.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn finish(self, source: String) -> Result<CompileRequest, String> {
        let geometry = match (self.side, self.rows, self.cols) {
            (None, None, None) => GeometryChoice::Auto,
            (Some(s), None, None) => GeometryChoice::Square(s),
            (None, Some(r), Some(c)) => GeometryChoice::Rect(r, c),
            _ => return Err("use either side or both rows and cols".to_string()),
        };
        let mut config = CompileConfig {
            geometry,
            ..CompileConfig::default()
        };
        if let Some(extension) = self.extension {
            config.extension = extension;
        }
        // An auto-sized layer is checked once the circuit's size is known.
        let (rows, cols) = match geometry {
            GeometryChoice::Auto => (1, 1),
            GeometryChoice::Square(s) => (s, s),
            GeometryChoice::Rect(r, c) => (r, c),
        };
        compile::check_layer_cells(rows, cols, config.extension)?;
        if let Some(resource) = self.resource {
            config.resource = resource;
        }
        config.timings = self.timings.unwrap_or(false);
        Ok(CompileRequest {
            label: self.label.unwrap_or_else(|| DEFAULT_LABEL.to_string()),
            source,
            config,
            bypass: self.bypass.unwrap_or(false),
        })
    }
}

fn parse_dim(value: &str, name: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .ok()
        .filter(|v| (1..=MAX_LAYER_CELLS).contains(v))
        .ok_or_else(|| {
            format!("{name} must be a number from 1 to {MAX_LAYER_CELLS}, got `{value}`")
        })
}

fn parse_bool(value: &str, name: &str) -> Result<bool, String> {
    match value {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("{name} must be 0|1|true|false, got `{other}`")),
    }
}

impl CompileRequest {
    /// A request for `source` under the default configuration, whose
    /// record is labelled `label`.
    pub fn new(label: impl Into<String>, source: impl Into<String>) -> CompileRequest {
        CompileRequest {
            label: label.into(),
            source: source.into(),
            config: CompileConfig::default(),
            bypass: false,
        }
    }

    /// Parses the shared compile flags (`--side`, `--rows`, `--cols`,
    /// `--extension`, `--resource`, `--timings`) out of a CLI argument
    /// list. Returns a template request plus every argument the parser
    /// did not consume, in their original order, for the caller's own
    /// flag loop. There is deliberately no `--file` here: the batch
    /// drivers label each record by its path via
    /// [`CompileRequest::with_source`], so a label flag would be
    /// accepted-but-dead — callers that don't define their own `--file`
    /// reject it as unknown instead. Nor is there a `--bypass`: no CLI
    /// entrypoint has a cache to skip.
    pub fn from_args(args: &[String]) -> Result<(CompileRequest, Vec<String>), String> {
        let mut knobs = Knobs::default();
        let mut rest = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            match arg.strip_prefix("--") {
                // Value-less boolean spelling: `--timings` == `--timings 1`.
                Some("timings") => {
                    knobs.apply("timings", "1")?;
                }
                Some(name) if is_valued_knob(name) => {
                    i += 1;
                    let value = args
                        .get(i)
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    knobs.apply(name, value)?;
                }
                _ => rest.push(arg.clone()),
            }
            i += 1;
        }
        Ok((knobs.finish(String::new())?, rest))
    }

    /// Builds a request from `/v1/compile` query parameters plus the
    /// request body. Rejects unknown parameters — a typoed knob must not
    /// silently compile under defaults.
    pub fn from_query(query: &[(String, String)], body: &str) -> Result<CompileRequest, String> {
        let mut knobs = Knobs::default();
        for (name, value) in query {
            if !knobs.apply(name, value)? {
                return Err(format!("unknown query parameter `{name}`"));
            }
        }
        knobs.finish(body.to_string())
    }

    /// Builds a request from one `/v1/compile-batch` JSONL line: a flat
    /// JSON object with a required `source` member and the same optional
    /// knob members the query string accepts (`file`, `side`, `rows`,
    /// `cols`, `extension`, `resource`, `timings`, `bypass`).
    pub fn from_jsonl_line(line: &str) -> Result<CompileRequest, String> {
        let mut knobs = Knobs::default();
        let mut source = None;
        for (name, value) in json::parse_flat_object(line)? {
            if name == "source" {
                source = Some(value);
            } else if !knobs.apply(&name, &value)? {
                return Err(format!("unknown member `{name}`"));
            }
        }
        let source = source.ok_or_else(|| "missing `source` member".to_string())?;
        knobs.finish(source)
    }

    /// A clone of this request's configuration carrying a new label and
    /// source (the batch drivers parse flags once and stamp per-file
    /// requests from the template).
    pub fn with_source(
        &self,
        label: impl Into<String>,
        source: impl Into<String>,
    ) -> CompileRequest {
        CompileRequest {
            label: label.into(),
            source: source.into(),
            config: self.config.clone(),
            bypass: self.bypass,
        }
    }

    /// The canonical cache key: config fingerprint × length-prefixed
    /// label (it appears in the response bytes; the prefix keeps the
    /// concatenation injective) × canonicalized source. Every entrypoint
    /// keys the cache through this one method.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}\n{}:{}\n{}",
            self.config.fingerprint(),
            self.label.len(),
            self.label,
            canonicalize_source(&self.source)
        )
    }

    /// Whether this request may be served from (and populate) the cache.
    /// Timed compiles are non-deterministic, so `timings` implies bypass.
    pub fn cacheable(&self) -> bool {
        !self.bypass && !self.config.timings
    }

    /// Compiles the request into its `oneqc/v1` record: `(record, ok)`.
    pub fn record(&self) -> (String, bool) {
        compile_record(&self.label, &self.source, &self.config)
    }

    /// [`CompileRequest::record`] plus the out-of-band wall-clock breakdown
    /// (`None` on parse failure). Record bytes are identical to `record`'s.
    pub fn record_timed(&self) -> (String, bool, Option<compile::RecordTimings>) {
        compile::compile_record_timed(&self.label, &self.source, &self.config)
    }

    /// Renders the request as an HTTP request target (`path` plus the
    /// non-default knobs as a query string) — the client-side counterpart
    /// of [`CompileRequest::from_query`], used by `perfbench`.
    pub fn query_target(&self, path: &str) -> String {
        let mut target = format!("{path}?file={}", percent_encode(&self.label));
        match self.config.geometry {
            GeometryChoice::Auto => {}
            GeometryChoice::Square(s) => {
                target.push_str(&format!("&side={s}"));
            }
            GeometryChoice::Rect(r, c) => {
                target.push_str(&format!("&rows={r}&cols={c}"));
            }
        }
        if self.config.extension != 1 {
            target.push_str(&format!("&extension={}", self.config.extension));
        }
        let resource = compile::resource_label(self.config.resource);
        if resource != "line3" {
            target.push_str(&format!("&resource={resource}"));
        }
        if self.config.timings {
            target.push_str("&timings=1");
        }
        if self.bypass {
            target.push_str("&bypass=1");
        }
        target
    }
}

fn is_valued_knob(name: &str) -> bool {
    matches!(name, "side" | "rows" | "cols" | "extension" | "resource")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_query;
    use oneq_hardware::ResourceKind;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn from_args_parses_knobs_and_passes_the_rest_through() {
        let (req, rest) = CompileRequest::from_args(&argv(&[
            "--jobs",
            "4",
            "--side",
            "12",
            "--resource",
            "star4",
            "--extension",
            "2",
            "--timings",
            "a.qasm",
        ]))
        .unwrap();
        assert_eq!(req.config.geometry, GeometryChoice::Square(12));
        assert_eq!(req.config.resource, ResourceKind::STAR4);
        assert_eq!(req.config.extension, 2);
        assert!(req.config.timings);
        assert_eq!(rest, argv(&["--jobs", "4", "a.qasm"]));
    }

    #[test]
    fn from_args_rejects_bad_knobs() {
        assert!(CompileRequest::from_args(&argv(&["--side", "0"])).is_err());
        assert!(CompileRequest::from_args(&argv(&["--side"])).is_err());
        assert!(CompileRequest::from_args(&argv(&["--rows", "4"])).is_err());
        assert!(CompileRequest::from_args(&argv(&["--resource", "line9"])).is_err());
        assert!(
            CompileRequest::from_args(&argv(&["--side", "2", "--rows", "2", "--cols", "2"]))
                .is_err()
        );
    }

    #[test]
    fn from_args_rejects_layers_past_the_cell_cap() {
        // `--side 100000` once asked for a 240 GB grid and aborted.
        assert!(CompileRequest::from_args(&argv(&["--side", "100000"])).is_err());
        assert!(CompileRequest::from_args(&argv(&["--extension", "1048577"])).is_err());
        assert!(CompileRequest::from_args(&argv(&["--rows", "1024", "--cols", "1025"])).is_err());
        assert!(CompileRequest::from_args(&argv(&["--side", "512", "--extension", "5"])).is_err());
        let (at_cap, _) =
            CompileRequest::from_args(&argv(&["--side", "512", "--extension", "4"])).unwrap();
        assert_eq!(at_cap.config.geometry, GeometryChoice::Square(512));
        assert!(CompileRequest::from_args(&argv(&["--extension", "1048576"])).is_ok());
    }

    #[test]
    fn from_query_rejects_layers_past_the_cell_cap() {
        for query in [
            "side=100000",
            "side=18446744073709551615",
            "rows=1048576&cols=2",
            "side=1024&extension=2",
            "extension=1048577",
        ] {
            assert!(
                CompileRequest::from_query(&parse_query(query), "").is_err(),
                "{query}"
            );
        }
        assert!(CompileRequest::from_query(&parse_query("side=1024"), "").is_ok());
    }

    #[test]
    fn from_jsonl_line_rejects_layers_past_the_cell_cap() {
        for line in [
            r#"{"source": "s", "side": 100000}"#,
            r#"{"source": "s", "rows": 2048, "cols": 1024}"#,
            r#"{"source": "s", "side": 1000, "extension": 2}"#,
        ] {
            assert!(CompileRequest::from_jsonl_line(line).is_err(), "{line}");
        }
        assert!(
            CompileRequest::from_jsonl_line(r#"{"source": "s", "rows": 1024, "cols": 1024}"#)
                .is_ok()
        );
    }

    #[test]
    fn from_query_matches_from_args_for_the_same_knobs() {
        let query = parse_query("file=x.qasm&rows=4&cols=6&extension=3&resource=line4");
        let from_query = CompileRequest::from_query(&query, "src").unwrap();
        let (template, _) = CompileRequest::from_args(&argv(&[
            "--rows",
            "4",
            "--cols",
            "6",
            "--extension",
            "3",
            "--resource",
            "line4",
        ]))
        .unwrap();
        let from_args = template.with_source("x.qasm", "src");
        assert_eq!(from_query, from_args);
        assert_eq!(from_query.fingerprint(), from_args.fingerprint());
    }

    #[test]
    fn from_args_passes_file_through_as_unconsumed() {
        // `--file` is a query/batch knob only: the CLI drivers label
        // records by path, so swallowing the flag would make it
        // accepted-but-dead.
        let (req, rest) = CompileRequest::from_args(&argv(&["--file", "x.qasm"])).unwrap();
        assert_eq!(req.label, DEFAULT_LABEL);
        assert_eq!(rest, argv(&["--file", "x.qasm"]));
    }

    #[test]
    fn from_query_rejects_unknown_parameters() {
        let query = parse_query("what=1");
        assert!(CompileRequest::from_query(&query, "").is_err());
    }

    #[test]
    fn from_jsonl_line_matches_the_other_constructors() {
        let line = r#"{"file": "x.qasm", "source": "OPENQASM 2.0;", "side": 9, "bypass": true}"#;
        let req = CompileRequest::from_jsonl_line(line).unwrap();
        assert_eq!(req.label, "x.qasm");
        assert_eq!(req.source, "OPENQASM 2.0;");
        assert_eq!(req.config.geometry, GeometryChoice::Square(9));
        assert!(req.bypass);
        assert!(!req.cacheable());

        let query = parse_query("file=x.qasm&side=9&bypass=1");
        let via_query = CompileRequest::from_query(&query, "OPENQASM 2.0;").unwrap();
        assert_eq!(req, via_query);
        assert_eq!(req.fingerprint(), via_query.fingerprint());
    }

    #[test]
    fn from_jsonl_line_requires_source_and_rejects_unknowns() {
        assert!(CompileRequest::from_jsonl_line(r#"{"file": "x.qasm"}"#).is_err());
        assert!(CompileRequest::from_jsonl_line(r#"{"source": "s", "what": 1}"#).is_err());
        assert!(CompileRequest::from_jsonl_line("not json").is_err());
        // Numbers arrive as literals; a fractional side must not pass.
        assert!(CompileRequest::from_jsonl_line(r#"{"source": "s", "side": 1.5}"#).is_err());
    }

    #[test]
    fn fingerprints_separate_label_config_and_source() {
        let base = CompileRequest::new("a.qasm", "h q[0];\n");
        let mut other_label = base.clone();
        other_label.label = "b.qasm".to_string();
        let mut other_config = base.clone();
        other_config.config.extension = 2;
        let mut other_source = base.clone();
        other_source.source = "x q[0];\n".to_string();
        let prints = [
            base.fingerprint(),
            other_label.fingerprint(),
            other_config.fingerprint(),
            other_source.fingerprint(),
        ];
        for (i, a) in prints.iter().enumerate() {
            for b in prints.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        // Whitespace-only differences canonicalize to the same key.
        let padded = CompileRequest::new("a.qasm", "h q[0]; \r\n");
        assert_eq!(base.fingerprint(), padded.fingerprint());
    }

    #[test]
    fn timings_implies_bypass() {
        let query = parse_query("timings=1");
        let req = CompileRequest::from_query(&query, "").unwrap();
        assert!(!req.cacheable());
    }

    #[test]
    fn query_target_round_trips_through_from_query() {
        let (template, _) = CompileRequest::from_args(&argv(&[
            "--rows",
            "4",
            "--cols",
            "6",
            "--extension",
            "2",
            "--resource",
            "ring4",
        ]))
        .unwrap();
        let mut req = template.with_source("dir/a b.qasm", "src");
        req.bypass = true;
        let target = req.query_target("/v1/compile");
        let (path, query) = target.split_once('?').unwrap();
        assert_eq!(path, "/v1/compile");
        let parsed = CompileRequest::from_query(&parse_query(query), "src").unwrap();
        assert_eq!(parsed, req);

        // Defaults produce the minimal target.
        let plain = CompileRequest::new("a.qasm", "src");
        assert_eq!(plain.query_target("/v1/compile"), "/v1/compile?file=a.qasm");
    }
}
