//! Source rules that neither rustc nor the output pins can see, checked
//! by plain line scans over `crates/*/src`:
//!
//! - every atomic `Ordering::*` operand has an `// ORDERING:` comment
//!   within the [`ORDERING_WINDOW`] lines above it, and each file holds
//!   exactly the number of operands [`ATOMICS`] lists, so a new atomic is
//!   a deliberate edit here;
//! - every `/v1/...` route the code names is documented in
//!   `docs/OBSERVABILITY.md` or `README.md`;
//! - the non-test code of the compile's hot path ([`HOT_PATH`]: the
//!   mapper's `mapping.rs`, and the planarity buffers of `planarity.rs`
//!   and `biconnected.rs`) has no `.to_vec()` and no `collect::<Vec`;
//! - the non-test code of the compile path from the graph type to the
//!   shuffle planner ([`HASH_FREE`]) names no `HashMap` or `HashSet`:
//!   every key there is a dense index, so state is index-addressed.
//!
//! "Non-test code" is the text before the `#[cfg(test)]` line that opens
//! the file's `mod tests`; a listed file without one fails the rule
//! rather than passing unscoped or unscanned.
//!
//! Where `unsafe` may appear is rustc's `unsafe_code` lint, and the
//! metric families are pinned against the docs on a live server in
//! `tests/stats_schema.rs`.

use std::path::{Path, PathBuf};

/// How far above an atomic operand its `// ORDERING:` comment may sit:
/// one comment can cover a cluster of loads and stores.
const ORDERING_WINDOW: usize = 25;

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Every file under `crates/*/src` that uses atomic orderings, with its
/// operand count.
const ATOMICS: [(&str, usize); 6] = [
    ("crates/obs/src/hist.rs", 6),
    ("crates/obs/src/registry.rs", 6),
    ("crates/obs/src/trace.rs", 3),
    ("crates/service/src/pool.rs", 7),
    ("crates/service/src/server.rs", 3),
    ("crates/service/src/signal.rs", 3),
];

/// The compile's hot path, whose buffers are reused: the mapper's, and
/// the planarity test's that partition runs once per layer.
const HOT_PATH: [&str; 3] = [
    "crates/core/src/mapping.rs",
    "crates/graph/src/planarity.rs",
    "crates/graph/src/biconnected.rs",
];

/// The compile path whose state is index-addressed: no hashed container
/// in its non-test code.
const HASH_FREE: [&str; 6] = [
    "crates/graph/src/graph.rs",
    "crates/core/src/fusion_graph.rs",
    "crates/core/src/mapping.rs",
    "crates/core/src/partition.rs",
    "crates/core/src/pipeline.rs",
    "crates/hardware/src/geometry.rs",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(workspace-relative path, text)` of every `.rs` file under
/// `crates/*/src`, in path order.
fn crate_sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("read crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut files);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root()).expect("under the root");
            let text = std::fs::read_to_string(&path).expect("read source");
            (rel.to_string_lossy().into_owned(), text)
        })
        .collect()
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// The part of `rel`'s `text` before the `#[cfg(test)]` line that opens
/// its `mod tests`. Cutting at the first `#[cfg(test)]` instead would let a
/// `#[cfg(test)] use ...` near the top exempt the whole file.
fn non_test_code<'a>(rel: &str, text: &'a str) -> &'a str {
    let opener = text
        .find("#[cfg(test)]\nmod tests {")
        .unwrap_or_else(|| panic!("{rel}: no `#[cfg(test)]` line opening `mod tests`"));
    &text[..opener]
}

/// Fails on any non-comment line of `files`' non-test code that holds one
/// of `idioms`.
fn forbid_in_non_test_code(files: &[&str], idioms: &[&str], why: &str) {
    for rel in files {
        let text = read(rel);
        let code = non_test_code(rel, &text);
        for (i, line) in code.lines().enumerate() {
            for idiom in idioms {
                assert!(
                    is_comment(line) || !line.contains(idiom),
                    "{rel}:{}: `{idiom}` {why}",
                    i + 1
                );
            }
        }
    }
}

#[test]
fn every_atomic_ordering_is_justified_and_counted() {
    let mut counts = Vec::new();
    for (rel, text) in crate_sources() {
        let lines: Vec<&str> = text.lines().collect();
        let mut count = 0;
        for (i, line) in lines.iter().enumerate() {
            if is_comment(line) {
                continue;
            }
            let uses = line
                .match_indices("Ordering::")
                .filter(|&(at, _)| {
                    let variant = &line[at + "Ordering::".len()..];
                    ORDERINGS.iter().any(|o| variant.starts_with(o))
                })
                .count();
            if uses == 0 {
                continue;
            }
            count += uses;
            let window = &lines[i.saturating_sub(ORDERING_WINDOW)..=i];
            assert!(
                window.iter().any(|l| l.contains("// ORDERING:")),
                "{rel}:{}: atomic ordering without an `// ORDERING:` comment \
                 in the {ORDERING_WINDOW} lines above it",
                i + 1
            );
        }
        if count > 0 {
            counts.push((rel, count));
        }
    }
    let expected: Vec<(String, usize)> = ATOMICS.iter().map(|&(f, n)| (f.to_string(), n)).collect();
    assert_eq!(
        counts, expected,
        "atomic ordering operands per file moved; justify each new one and update ATOMICS"
    );
}

#[test]
fn every_route_in_the_code_is_documented() {
    let docs = read("docs/OBSERVABILITY.md") + &read("README.md");
    for (rel, text) in crate_sources() {
        for (i, line) in text.lines().enumerate() {
            if is_comment(line) {
                continue;
            }
            for (at, _) in line.match_indices("/v1/") {
                let rest = &line[at..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '/' | '_' | '-')))
                    .unwrap_or(rest.len());
                let route = rest[..end].trim_end_matches('/');
                assert!(
                    docs.contains(route),
                    "{rel}:{}: route `{route}` is not documented in \
                     docs/OBSERVABILITY.md or README.md",
                    i + 1
                );
            }
        }
    }
}

#[test]
fn the_mapping_hot_path_does_not_allocate_per_call() {
    forbid_in_non_test_code(
        &HOT_PATH,
        &[".to_vec()", "collect::<Vec"],
        "on the compile's hot path; reuse a buffer",
    );
}

#[test]
fn the_compile_path_is_hash_free() {
    forbid_in_non_test_code(
        &HASH_FREE,
        &["HashMap", "HashSet"],
        "on the index-addressed compile path; key the state by its dense index",
    );
}

#[test]
fn only_the_test_module_is_exempt() {
    let text = "#[cfg(test)]\nuse std::fmt;\n\nfn cur() -> Vec<u8> { V.to_vec() }\n\n\
                #[cfg(test)]\nmod tests {\n    fn t() { W.to_vec(); }\n}\n";
    let code = non_test_code("example.rs", text);
    assert!(
        code.contains("fn cur()"),
        "a `#[cfg(test)] use` ended the scan"
    );
    assert!(!code.contains("fn t()"), "the test module was scanned");
}

#[test]
#[should_panic(expected = "no `#[cfg(test)]` line opening `mod tests`")]
fn a_file_without_a_test_module_fails_the_scan() {
    non_test_code("example.rs", "#[cfg(test)]\nuse std::fmt;\nfn f() {}\n");
}
