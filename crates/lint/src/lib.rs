//! # oneq-lint — the workspace's own static-analysis pass
//!
//! Four rule families over the workspace source tree (everything
//! except `vendor/`, `target/`, and fixture dirs), each backed by a
//! checked-in registry so drift is a build failure instead of a review
//! comment:
//!
//! 1. **Unsafe registry** ([`rules::check_unsafe`]) — every `unsafe`
//!    occurrence must match a `[[carveout]]` entry in
//!    `lint/unsafe_registry.toml` (file, exact count, justification).
//!    The `// SAFETY:` comment on each block is clippy's
//!    `undocumented_unsafe_blocks`, denied workspace-wide.
//! 2. **Atomics-ordering audit** ([`rules::check_atomics`]) — every
//!    atomic `Ordering::*` operand in crate sources must sit in a
//!    registered `[[atomics]]` module and carry an `// ORDERING:`
//!    justification comment.
//! 3. **Observable-surface registry** ([`surface::check_surface`]) —
//!    `oneqd_*` metric families and `/v1/*` routes extracted from
//!    source must round-trip through `docs/OBSERVABILITY.md` /
//!    `README.md`.
//! 4. **Hot-path lint** ([`rules::check_hotpath`]) — registered mapping
//!    hot-path modules may not iterate hashed maps or allocate per
//!    loop iteration (`.to_vec()`, `collect::<Vec<_>>`).
//!
//! The `oneq-lint` binary runs the pass ([`run`]) and a seeded-violation
//! self-test ([`self_test`]) proving each rule actually fires. See
//! `docs/STATIC_ANALYSIS.md` for the rule reference and registry
//! workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod registry;
pub mod rules;
pub mod surface;
pub mod walk;

use std::fs;
use std::path::Path;

use rules::{LexedFile, Violation};
use surface::SurfaceDocs;

/// The outcome of a full lint pass over a workspace tree.
#[derive(Debug)]
pub struct RunReport {
    /// Everything the rules flagged, in rule-family order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total `unsafe` occurrences seen (registered or not).
    pub unsafe_sites: usize,
    /// Total atomic `Ordering::*` operands seen in crate sources.
    pub atomics_sites: usize,
}

/// Reads the registry, walks the tree, and runs all four rule
/// families. `root` is the workspace root (the directory holding
/// `lint/unsafe_registry.toml`).
pub fn run(root: &Path) -> Result<RunReport, String> {
    let registry_path = root.join("lint/unsafe_registry.toml");
    let registry_text = fs::read_to_string(&registry_path)
        .map_err(|e| format!("{}: {e}", registry_path.display()))?;
    let registry = registry::parse(&registry_text).map_err(|e| e.to_string())?;

    let files = lex_tree(root)?;
    let read = |rel: &str| fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"));
    let docs = SurfaceDocs {
        observability_md: read("docs/OBSERVABILITY.md")?,
        readme_md: read("README.md")?,
    };

    let mut violations = Vec::new();
    violations.extend(rules::check_unsafe(&files, &registry));
    violations.extend(rules::check_atomics(&files, &registry));
    violations.extend(surface::check_surface(&files, &docs));
    violations.extend(rules::check_hotpath(&files, &registry));

    let unsafe_sites = files
        .iter()
        .map(|f| rules::unsafe_sites(&f.lexed).len())
        .sum();
    let atomics_sites = files
        .iter()
        .filter(|f| f.rel_path.starts_with("crates/") && f.rel_path.contains("/src/"))
        .map(|f| rules::atomic_ordering_sites(&f.lexed).len())
        .sum();
    Ok(RunReport {
        violations,
        files_scanned: files.len(),
        unsafe_sites,
        atomics_sites,
    })
}

/// Lexes every workspace source file under `root`.
pub fn lex_tree(root: &Path) -> Result<Vec<LexedFile>, String> {
    let sources =
        walk::collect_sources(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    Ok(sources
        .into_iter()
        .map(|s| LexedFile {
            rel_path: s.rel_path,
            lexed: lexer::lex(&s.text),
        })
        .collect())
}

/// Per-file `(rel_path, site_count)` pairs.
pub type FileCounts = Vec<(String, u64)>;

/// Observed per-file counts for the `--print-registry` bootstrap.
pub fn observed_counts(files: &[LexedFile]) -> (FileCounts, FileCounts) {
    let mut carveouts = Vec::new();
    let mut atomics = Vec::new();
    for f in files {
        let u = rules::unsafe_sites(&f.lexed).len() as u64;
        if u > 0 {
            carveouts.push((f.rel_path.clone(), u));
        }
        if f.rel_path.starts_with("crates/") && f.rel_path.contains("/src/") {
            let a = rules::atomic_ordering_sites(&f.lexed).len() as u64;
            if a > 0 {
                atomics.push((f.rel_path.clone(), a));
            }
        }
    }
    (carveouts, atomics)
}

/// One self-test scenario outcome.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario name (stable, used by CI logs).
    pub name: &'static str,
    /// Pass/fail.
    pub passed: bool,
    /// What the scenario observed.
    pub detail: String,
}

/// Runs the seeded-violation self-test against the fixture files in
/// `fixture_dir` (`crates/lint/fixtures`). Every rule family must fire
/// on its fixture; the harness returns one [`Scenario`] per check.
pub fn self_test(fixture_dir: &Path) -> Result<Vec<Scenario>, String> {
    let load = |name: &str| -> Result<String, String> {
        fs::read_to_string(fixture_dir.join(name)).map_err(|e| format!("fixture {name}: {e}"))
    };
    let lexed = |rel: &str, text: &str| LexedFile {
        rel_path: rel.to_string(),
        lexed: lexer::lex(text),
    };
    let entry = |file: &str, count: u64| registry::Entry {
        file: file.to_string(),
        count,
        justification: "self-test".to_string(),
    };
    let mut out = Vec::new();
    let mut scenario = |name: &'static str, violations: &[Violation], needle: &str| {
        let passed = violations.iter().any(|v| v.message.contains(needle));
        out.push(Scenario {
            name,
            passed,
            detail: if passed {
                format!(
                    "fired: {}",
                    violations
                        .iter()
                        .find(|v| v.message.contains(needle))
                        .expect("present")
                )
            } else {
                format!("expected a violation containing `{needle}`, got {violations:?}")
            },
        });
    };

    // --- unsafe registry ---------------------------------------------
    let unregistered = lexed(
        "crates/fixture/src/unregistered.rs",
        &load("unsafe_unregistered.rs")?,
    );
    let empty = registry::Registry::default();
    scenario(
        "unsafe: unregistered block fails",
        &rules::check_unsafe(std::slice::from_ref(&unregistered), &empty),
        "no [[carveout]]",
    );

    let drift = lexed(
        "crates/fixture/src/drift.rs",
        &load("unsafe_count_drift.rs")?,
    );
    let mut reg = registry::Registry::default();
    reg.carveouts.push(entry("crates/fixture/src/drift.rs", 1));
    scenario(
        "unsafe: count drift fails",
        &rules::check_unsafe(std::slice::from_ref(&drift), &reg),
        "registry allows 1",
    );

    let mut reg = registry::Registry::default();
    reg.carveouts
        .push(entry("crates/fixture/src/deleted.rs", 1));
    scenario(
        "unsafe: stale registry entry fails",
        &rules::check_unsafe(&[], &reg),
        "stale [[carveout]]",
    );

    // --- atomics audit -----------------------------------------------
    let atomics_unreg = lexed(
        "crates/fixture/src/atomics_unregistered.rs",
        &load("atomics_unregistered.rs")?,
    );
    scenario(
        "atomics: unregistered module fails",
        &rules::check_atomics(std::slice::from_ref(&atomics_unreg), &empty),
        "no [[atomics]]",
    );

    let atomics_bare = lexed(
        "crates/fixture/src/atomics_missing_comment.rs",
        &load("atomics_missing_comment.rs")?,
    );
    let mut reg = registry::Registry::default();
    reg.atomics
        .push(entry("crates/fixture/src/atomics_missing_comment.rs", 1));
    scenario(
        "atomics: missing ORDERING comment fails",
        &rules::check_atomics(std::slice::from_ref(&atomics_bare), &reg),
        "ORDERING:",
    );

    let mut reg = registry::Registry::default();
    reg.atomics
        .push(entry("crates/fixture/src/atomics_unregistered.rs", 3));
    scenario(
        "atomics: count drift fails",
        &rules::check_atomics(std::slice::from_ref(&atomics_unreg), &reg),
        "re-audit",
    );

    // --- observable surface ------------------------------------------
    let surface_file = lexed(
        "crates/fixture/src/surface.rs",
        &load("surface_violations.rs")?,
    );
    let docs = SurfaceDocs {
        observability_md: load("docs_observability.md")?,
        readme_md: load("docs_readme.md")?,
    };
    let v = surface::check_surface(std::slice::from_ref(&surface_file), &docs);
    scenario(
        "surface: undocumented metric family fails",
        &v,
        "is not documented",
    );
    scenario("surface: undocumented route fails", &v, "route literal");

    // --- hot path ----------------------------------------------------
    let hot = lexed(
        "crates/fixture/src/hotpath.rs",
        &load("hotpath_violations.rs")?,
    );
    let mut reg = registry::Registry::default();
    reg.hotpath.push(registry::Entry {
        file: "crates/fixture/src/hotpath.rs".to_string(),
        count: 0,
        justification: "self-test".to_string(),
    });
    let v = rules::check_hotpath(std::slice::from_ref(&hot), &reg);
    scenario(
        "hot-path: hashed-map iteration fails",
        &v,
        "hashed-map iteration",
    );
    scenario("hot-path: .to_vec() in a loop fails", &v, "to_vec");
    scenario("hot-path: collect::<Vec> in a loop fails", &v, "collect");

    // --- clean fixture stays silent ----------------------------------
    let clean = lexed("crates/fixture/src/clean.rs", &load("clean.rs")?);
    let mut reg = registry::Registry::default();
    reg.carveouts.push(entry("crates/fixture/src/clean.rs", 1));
    reg.atomics.push(entry("crates/fixture/src/clean.rs", 1));
    reg.hotpath.push(registry::Entry {
        file: "crates/fixture/src/clean.rs".to_string(),
        count: 0,
        justification: "self-test".to_string(),
    });
    let mut clean_violations = rules::check_unsafe(std::slice::from_ref(&clean), &reg);
    clean_violations.extend(rules::check_atomics(std::slice::from_ref(&clean), &reg));
    clean_violations.extend(rules::check_hotpath(std::slice::from_ref(&clean), &reg));
    out.push(Scenario {
        name: "clean fixture produces zero violations",
        passed: clean_violations.is_empty(),
        detail: if clean_violations.is_empty() {
            "silent".to_string()
        } else {
            format!("unexpected: {clean_violations:?}")
        },
    });

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> std::path::PathBuf {
        walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above crates/lint")
    }

    #[test]
    fn the_real_tree_is_lint_clean() {
        let report = run(&workspace_root()).expect("lint runs");
        assert!(
            report.violations.is_empty(),
            "workspace lint violations:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files_scanned > 50, "walk found the workspace");
        assert!(report.unsafe_sites >= 3, "the known carve-outs are seen");
        // The audit has scope: it sees every site the registry lists.
        let registry_text =
            std::fs::read_to_string(workspace_root().join("lint/unsafe_registry.toml")).unwrap();
        let registered: u64 = registry::parse(&registry_text)
            .expect("registry parses")
            .atomics
            .iter()
            .map(|e| e.count)
            .sum();
        assert!(registered > 0);
        assert_eq!(report.atomics_sites as u64, registered);
    }

    #[test]
    fn every_self_test_scenario_fires() {
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let scenarios = self_test(&fixtures).expect("fixtures load");
        assert!(scenarios.len() >= 12, "all scenario families present");
        for s in &scenarios {
            assert!(s.passed, "self-test `{}` failed: {}", s.name, s.detail);
        }
    }

    #[test]
    fn deleting_a_carveout_entry_fails_the_run() {
        // The acceptance check, in-process: parse the real registry,
        // drop one carve-out, re-run the unsafe rule on the real tree.
        let root = workspace_root();
        let text = fs::read_to_string(root.join("lint/unsafe_registry.toml")).unwrap();
        let mut reg = registry::parse(&text).unwrap();
        assert!(!reg.carveouts.is_empty());
        reg.carveouts.remove(0);
        let files = lex_tree(&root).unwrap();
        let v = rules::check_unsafe(&files, &reg);
        assert!(
            v.iter().any(|v| v.message.contains("no [[carveout]]")),
            "removing a registry entry must make the pass fail: {v:?}"
        );
    }
}
