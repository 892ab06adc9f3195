//! `oneqc`: the batch compiler driver.
//!
//! Compiles one `.qasm` file — or every `.qasm` file under a directory —
//! through the full OneQ pipeline and emits one JSON object per circuit
//! (JSON lines). Files are distributed over a std-thread worker pool, but
//! the output order is always the sorted input order, and with timings
//! disabled (the default) the output is byte-for-byte deterministic across
//! runs — CI compiles the fixture corpus twice and diffs.
//!
//! The compile → record path and the worker pool live in `oneq-service`
//! (`oneq_service::compile`, `oneq_service::pool`) and are shared with the
//! `oneqd` daemon, whose `POST /compile` responses are byte-identical to
//! these records for the same source and config.
//!
//! Usage:
//!
//! ```text
//! oneqc [OPTIONS] PATH...
//!
//!   PATH                 a .qasm file, or a directory scanned recursively
//!   --side N             square layer side (default: auto per circuit from
//!                        the baseline's physical-area protocol)
//!   --rows R --cols C    explicit rectangular layer (overrides --side)
//!   --extension N        extended-layer factor (default 1)
//!   --resource KIND      line3|line4|star4|ring4 (default line3)
//!   --jobs N             worker threads (default: available parallelism)
//!   --out PATH           write JSONL to a file instead of stdout
//!   --timings            include per-stage wall-clock timings (breaks
//!                        run-to-run byte determinism)
//! ```
//!
//! Exit code: 0 when every file compiled, 1 when any file failed (failed
//! files still get a `"status":"error"` record), 2 on usage errors, 3 when
//! an input path does not exist or no `.qasm` files were found under the
//! given paths.
//!
//! JSONL schema (`oneqc/v1`): every record carries `file` and `status`.
//! `ok` records add `qubits`, `gates`, `two_qubit_gates`, `rows`, `cols`,
//! `extension_factor`, `resource`, `depth`, `fusions`, `partitions`,
//! `fusion_graph_nodes`, `graph_state_nodes`, and (with `--timings`)
//! `timings_ns{parse,translate,partition,fusion_graph,mapping,shuffle,wall}`.
//! `error` records add `error` (a `file:line:col: message` one-liner).

use oneq_service::compile::error_record;
use oneq_service::pool::run_indexed;
use oneq_service::request::CompileRequest;
use std::path::{Path, PathBuf};

/// Exit code for input-path problems: a path that does not exist, an
/// unreadable directory, or a scan that found zero `.qasm` files.
/// Distinct from 1 (compile failures) and 2 (usage errors) so callers can
/// tell "bad invocation" from "bad corpus" from "bad circuit".
const EXIT_NO_INPUT: i32 = 3;

struct Options {
    /// Template request carrying the shared compile config; per-file
    /// requests are stamped from it with `with_source`.
    template: CompileRequest,
    jobs: usize,
    out: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: oneqc [--side N | --rows R --cols C] [--extension N] \
         [--resource line3|line4|star4|ring4] [--jobs N] [--out PATH] [--timings] PATH..."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The shared compile knobs (--side/--rows/--cols/--extension/
    // --resource/--timings) are parsed — and validated, with zero
    // dimensions rejected here rather than panicking a worker thread —
    // by the one knob table every entrypoint uses; only oneqc's own
    // flags remain below.
    let (template, rest) = CompileRequest::from_args(&args).unwrap_or_else(|msg| {
        eprintln!("oneqc: {msg}");
        usage();
    });
    let mut jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = None;
    let mut paths = Vec::new();

    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        rest.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("oneqc: {flag} needs a value");
            usage();
        })
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--jobs" => jobs = parse_num(&value(&mut i, "--jobs"), "--jobs"),
            "--out" => out = Some(PathBuf::from(value(&mut i, "--out"))),
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                eprintln!("oneqc: unknown flag {flag}");
                usage();
            }
            path => paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if paths.is_empty() {
        eprintln!("oneqc: no input paths");
        usage();
    }
    Options {
        template,
        jobs: jobs.max(1),
        out,
        paths,
    }
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("oneqc: {flag} expects a number, got `{s}`");
        usage();
    })
}

/// Expands the input paths into a sorted, deduplicated `.qasm` file list.
/// A nonexistent path is an input error (exit [`EXIT_NO_INPUT`]), not a
/// usage error: the command line was well-formed, the filesystem just
/// doesn't match it.
fn collect_files(paths: &[PathBuf]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            walk(path, &mut files);
        } else if path.exists() {
            files.push(path.clone());
        } else {
            eprintln!("oneqc: no such file or directory: {}", path.display());
            std::process::exit(EXIT_NO_INPUT);
        }
    }
    files.sort();
    files.dedup();
    files
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        eprintln!("oneqc: cannot read directory {}", dir.display());
        std::process::exit(EXIT_NO_INPUT);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        // `entry.file_type()` does not follow symlinks, so a symlink loop
        // cannot recurse; symlinked .qasm *files* are still accepted below.
        let is_real_dir = entry.file_type().is_ok_and(|t| t.is_dir());
        if is_real_dir {
            walk(&path, files);
        } else if path.extension().is_some_and(|e| e == "qasm") && path.is_file() {
            files.push(path);
        }
    }
}

/// Compiles one file into its JSONL record. Never panics on bad input:
/// read and parse errors become `"status":"error"` records.
fn run_one(path: &Path, template: &CompileRequest) -> (String, bool) {
    let display = path.display().to_string();
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            return (error_record(&display, &format!("read failed: {e}")), false);
        }
    };
    template.with_source(display, source).record()
}

fn main() {
    let opt = parse_args();
    let files = collect_files(&opt.paths);
    if files.is_empty() {
        eprintln!(
            "oneqc: no .qasm files found under: {}",
            opt.paths
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(EXIT_NO_INPUT);
    }

    // Worker pool (shared with oneqd): a cursor hands out file indices and
    // each record lands in its slot, so the output order is the sorted
    // input order no matter which thread finishes first.
    let records = run_indexed(opt.jobs, &files, |_, path| run_one(path, &opt.template));

    let mut output = String::new();
    let mut failures = 0usize;
    for (line, ok) in &records {
        output.push_str(line);
        output.push('\n');
        if !ok {
            failures += 1;
        }
    }
    match &opt.out {
        Some(path) => {
            std::fs::write(path, &output).unwrap_or_else(|e| {
                eprintln!("oneqc: cannot write {}: {e}", path.display());
                std::process::exit(2);
            });
            eprintln!(
                "oneqc: {} file(s) compiled, {failures} failed -> {}",
                records.len(),
                path.display()
            );
        }
        None => print!("{output}"),
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
