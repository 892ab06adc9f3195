//! `oneq-lint` — run the workspace invariant checker.
//!
//! ```text
//! oneq-lint [--root PATH]      lint the workspace tree (default: auto-detect)
//! oneq-lint --self-test        run the seeded-violation fixture scenarios
//! oneq-lint --print-registry   print a registry skeleton for the current tree
//! ```
//!
//! Exit codes: 0 clean, 1 violations (or failed self-test scenarios),
//! 2 usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use oneq_lint::{lex_tree, observed_counts, registry, run, self_test, walk};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut mode = Mode::Lint;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--self-test" => mode = Mode::SelfTest,
            "--print-registry" => mode = Mode::PrintRegistry,
            "--help" | "-h" => {
                print!("{}", HELP);
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| walk::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => return usage("no workspace root found; pass --root"),
    };

    match mode {
        Mode::Lint => match run(&root) {
            Ok(report) => {
                for v in &report.violations {
                    println!("{v}");
                }
                println!(
                    "oneq-lint: {} file(s), {} unsafe site(s), {} atomic ordering site(s), {} violation(s)",
                    report.files_scanned,
                    report.unsafe_sites,
                    report.atomics_sites,
                    report.violations.len()
                );
                if report.violations.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => fail(&e),
        },
        Mode::SelfTest => {
            // The fixtures live next to the crate, not the invocation
            // directory: resolve through the workspace root.
            let fixtures = root.join("crates/lint/fixtures");
            match self_test(&fixtures) {
                Ok(scenarios) => {
                    let mut failed = 0;
                    for s in &scenarios {
                        println!(
                            "{} {}: {}",
                            if s.passed { "PASS" } else { "FAIL" },
                            s.name,
                            s.detail
                        );
                        if !s.passed {
                            failed += 1;
                        }
                    }
                    println!(
                        "oneq-lint --self-test: {}/{} scenario(s) passed",
                        scenarios.len() - failed,
                        scenarios.len()
                    );
                    if failed == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => fail(&e),
            }
        }
        Mode::PrintRegistry => match lex_tree(&root) {
            Ok(files) => {
                let (carveouts, atomics) = observed_counts(&files);
                let hotpath = vec![
                    "crates/hardware/src/grid.rs".to_string(),
                    "crates/core/src/mapping.rs".to_string(),
                ];
                print!(
                    "{}",
                    registry::render_skeleton(&carveouts, &atomics, &hotpath)
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        },
    }
}

enum Mode {
    Lint,
    SelfTest,
    PrintRegistry,
}

const HELP: &str = "\
oneq-lint: workspace invariant checker (see docs/STATIC_ANALYSIS.md)

USAGE:
    oneq-lint [--root PATH]      lint the workspace tree
    oneq-lint --self-test        run seeded-violation fixture scenarios
    oneq-lint --print-registry   print a registry skeleton with observed counts
";

fn usage(message: &str) -> ExitCode {
    eprintln!("oneq-lint: {message}\n{HELP}");
    ExitCode::from(2)
}

fn fail(message: &str) -> ExitCode {
    eprintln!("oneq-lint: {message}");
    ExitCode::from(2)
}
