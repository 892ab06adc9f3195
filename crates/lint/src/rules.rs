//! The four rule families. Each check consumes lexed sources plus the
//! registry and reports [`Violation`]s; an empty report is a clean
//! tree.

use std::collections::BTreeSet;

use crate::lexer::{Lexed, Tok};
use crate::registry::Registry;

/// How close (in lines, looking upward) an `// ORDERING:` comment must
/// be to an atomic `Ordering::*` operand: wide enough that one
/// justification can cover a cluster of loads and stores on the same
/// atomics.
pub const ORDERING_WINDOW: u32 = 25;

/// The atomic ordering variants the audit counts. `std::cmp::Ordering`
/// variants (`Less`/`Equal`/`Greater`) never collide with these, so
/// sort code is naturally out of scope.
pub const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One finding: the rule family, where, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule family id (`unsafe-registry`, `atomics-audit`,
    /// `surface-registry`, `hot-path`).
    pub rule: &'static str,
    /// Workspace-relative file (or doc) the finding is about.
    pub file: String,
    /// 1-based line, 0 when the finding is file-level.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "[{}] {}: {}", self.rule, self.file, self.message)
        } else {
            write!(
                f,
                "[{}] {}:{}: {}",
                self.rule, self.file, self.line, self.message
            )
        }
    }
}

fn violation(rule: &'static str, file: &str, line: u32, message: String) -> Violation {
    Violation {
        rule,
        file: file.to_string(),
        line,
        message,
    }
}

/// A lexed workspace file, ready for every rule.
#[derive(Debug)]
pub struct LexedFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Token and comment streams.
    pub lexed: Lexed,
}

/// Lines of every `unsafe` keyword token (blocks, fns, impls, traits —
/// all carve-out sites).
pub fn unsafe_sites(lexed: &Lexed) -> Vec<u32> {
    lexed
        .tokens
        .iter()
        .filter(|t| matches!(&t.tok, Tok::Ident(s) if s == "unsafe"))
        .map(|t| t.line)
        .collect()
}

/// Lines of every atomic `Ordering::Variant` path expression.
pub fn atomic_ordering_sites(lexed: &Lexed) -> Vec<u32> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(&t.tok, Tok::Ident(s) if s == "Ordering") {
            continue;
        }
        let is_path = matches!(toks.get(i + 1), Some(a) if a.tok == Tok::Punct(':'))
            && matches!(toks.get(i + 2), Some(b) if b.tok == Tok::Punct(':'));
        if !is_path {
            continue;
        }
        if let Some(Tok::Ident(v)) = toks.get(i + 3).map(|t| &t.tok) {
            if ATOMIC_ORDERINGS.contains(&v.as_str()) {
                out.push(t.line);
            }
        }
    }
    out
}

/// Rule family 1: the unsafe registry.
///
/// Every file containing `unsafe` must have a `[[carveout]]` entry with
/// the exact occurrence count, and every entry must point at a file that
/// still has exactly that many occurrences. (The `// SAFETY:` comment on
/// each block is clippy's `undocumented_unsafe_blocks`, denied in the
/// workspace manifest.)
pub fn check_unsafe(files: &[LexedFile], registry: &Registry) -> Vec<Violation> {
    const RULE: &str = "unsafe-registry";
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for file in files {
        let sites = unsafe_sites(&file.lexed);
        if !sites.is_empty() {
            seen.insert(file.rel_path.clone());
        }
        let entry = registry.carveouts.iter().find(|e| e.file == file.rel_path);
        match (sites.is_empty(), entry) {
            (true, _) | (false, Some(_)) => {}
            (false, None) => out.push(violation(
                RULE,
                &file.rel_path,
                sites[0],
                format!(
                    "{} unsafe occurrence(s) but no [[carveout]] entry in lint/unsafe_registry.toml",
                    sites.len()
                ),
            )),
        }
        if let Some(entry) = entry {
            if sites.len() as u64 != entry.count {
                out.push(violation(
                    RULE,
                    &file.rel_path,
                    sites.first().copied().unwrap_or(0),
                    format!(
                        "registry allows {} unsafe occurrence(s), found {}; update the carve-out deliberately",
                        entry.count,
                        sites.len()
                    ),
                ));
            }
        }
    }
    for entry in &registry.carveouts {
        if !seen.contains(&entry.file) {
            out.push(violation(
                RULE,
                &entry.file,
                0,
                "stale [[carveout]] entry: file is gone or no longer contains unsafe".to_string(),
            ));
        }
    }
    out
}

/// Rule family 2: the atomics-ordering audit.
///
/// Scoped to crate sources (`crates/*/src/**`): every file using an
/// atomic `Ordering::*` operand must have an `[[atomics]]` entry with
/// the exact count, and every use must sit under an `// ORDERING:`
/// justification comment.
pub fn check_atomics(files: &[LexedFile], registry: &Registry) -> Vec<Violation> {
    const RULE: &str = "atomics-audit";
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for file in files {
        if !in_crate_sources(&file.rel_path) {
            continue;
        }
        let sites = atomic_ordering_sites(&file.lexed);
        if !sites.is_empty() {
            seen.insert(file.rel_path.clone());
        }
        let entry = registry.atomics.iter().find(|e| e.file == file.rel_path);
        if !sites.is_empty() && entry.is_none() {
            out.push(violation(
                RULE,
                &file.rel_path,
                sites[0],
                format!(
                    "{} atomic Ordering use(s) but no [[atomics]] entry in lint/unsafe_registry.toml",
                    sites.len()
                ),
            ));
        }
        if let Some(entry) = entry {
            if sites.len() as u64 != entry.count {
                out.push(violation(
                    RULE,
                    &file.rel_path,
                    sites.first().copied().unwrap_or(0),
                    format!(
                        "registry allows {} atomic Ordering use(s), found {}; re-audit and update the entry",
                        entry.count,
                        sites.len()
                    ),
                ));
            }
        }
        for line in sites {
            let from = line.saturating_sub(ORDERING_WINDOW);
            if !file.lexed.comment_in_window(from, line, "ORDERING:") {
                out.push(violation(
                    RULE,
                    &file.rel_path,
                    line,
                    "atomic Ordering use without an `// ORDERING:` comment in the preceding 25 lines"
                        .to_string(),
                ));
            }
        }
    }
    for entry in &registry.atomics {
        if !seen.contains(&entry.file) {
            out.push(violation(
                RULE,
                &entry.file,
                0,
                "stale [[atomics]] entry: file is gone or no longer uses atomic orderings"
                    .to_string(),
            ));
        }
    }
    out
}

pub(crate) fn in_crate_sources(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") && rel_path.contains("/src/")
}

/// Rule family 4: the mapping hot-path lint.
///
/// Inside registry-listed hot-path files (non-test code): no iteration
/// over `HashMap`/`BTreeMap`-typed bindings, and no `.to_vec()` or
/// `collect::<Vec` inside a loop body. Preserves PR 2's dense-grid
/// invariant: the placement path never hashes and never allocates per
/// step.
pub fn check_hotpath(files: &[LexedFile], registry: &Registry) -> Vec<Violation> {
    const RULE: &str = "hot-path";
    let mut out = Vec::new();
    for entry in &registry.hotpath {
        let Some(file) = files.iter().find(|f| f.rel_path == entry.file) else {
            out.push(violation(
                RULE,
                &entry.file,
                0,
                "stale [[hotpath]] entry: file not found".to_string(),
            ));
            continue;
        };
        let toks = &file.lexed.tokens;
        let cutoff = test_module_cutoff(toks);

        // Pass 1: names declared with a map type (`x: HashMap<..>`,
        // `x: &BTreeMap<..>`), including struct fields and parameters.
        let mut map_names: BTreeSet<&str> = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            let Tok::Ident(name) = &t.tok else { continue };
            if toks.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct(':')) {
                continue;
            }
            let mut j = i + 2;
            while matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Punct('&')))
                || matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "mut")
                || matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Lifetime))
            {
                j += 1;
            }
            if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "HashMap" || s == "BTreeMap")
            {
                map_names.insert(name.as_str());
            }
        }

        // Pass 2: loop-body spans by brace depth.
        let loop_spans = loop_body_spans(toks);
        let in_loop = |idx: usize| loop_spans.iter().any(|&(a, b)| idx > a && idx < b);

        for (i, t) in toks.iter().enumerate() {
            if t.line >= cutoff {
                break;
            }
            match &t.tok {
                // `<map>.iter()` and friends.
                Tok::Ident(name)
                    if map_names.contains(name.as_str())
                        && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('.')) =>
                {
                    if let Some(Tok::Ident(m)) = toks.get(i + 2).map(|t| &t.tok) {
                        if matches!(
                            m.as_str(),
                            "iter"
                                | "iter_mut"
                                | "keys"
                                | "values"
                                | "values_mut"
                                | "drain"
                                | "into_iter"
                                | "retain"
                        ) {
                            out.push(violation(
                                RULE,
                                &file.rel_path,
                                t.line,
                                format!(
                                    "hashed-map iteration on `{name}.{m}()` in a hot-path module; use the dense-grid structures"
                                ),
                            ));
                        }
                    }
                }
                // `for .. in <map>`.
                Tok::Ident(kw) if kw == "for" => {
                    if let Some(v) = for_in_map_violation(toks, i, &map_names, &file.rel_path) {
                        out.push(v);
                    }
                }
                // Per-iteration allocation idioms.
                Tok::Ident(m)
                    if m == "to_vec"
                        && in_loop(i)
                        && toks.get(i.wrapping_sub(1)).map(|t| &t.tok)
                            == Some(&Tok::Punct('.')) =>
                {
                    out.push(violation(
                        RULE,
                        &file.rel_path,
                        t.line,
                        "`.to_vec()` inside a loop in a hot-path module; hoist a reusable buffer"
                            .to_string(),
                    ));
                }
                Tok::Ident(m) if m == "collect" && in_loop(i) => {
                    let turbofish_vec = toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                        && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                        && toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::Punct('<'))
                        && matches!(toks.get(i + 4).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "Vec");
                    if turbofish_vec {
                        out.push(violation(
                            RULE,
                            &file.rel_path,
                            t.line,
                            "`collect::<Vec<_>>()` inside a loop in a hot-path module; hoist a reusable buffer"
                                .to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// First line of the file's `#[cfg(test)]` region (tests are exempt
/// from the hot-path rule), or `u32::MAX` when there is none.
fn test_module_cutoff(toks: &[crate::lexer::Token]) -> u32 {
    for (i, t) in toks.iter().enumerate() {
        if t.tok == Tok::Punct('#')
            && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('['))
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "cfg")
            && toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::Punct('('))
            && matches!(toks.get(i + 4).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "test")
        {
            return t.line;
        }
    }
    u32::MAX
}

/// Token-index spans `(open_brace, close_brace)` of every `for` /
/// `while` / `loop` body.
fn loop_body_spans(toks: &[crate::lexer::Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(&t.tok, Tok::Ident(s) if s == "for" || s == "while" || s == "loop") {
            continue;
        }
        // The body is the next `{` at the current nesting level; scan
        // forward to it (loop headers contain no braces in this
        // codebase's style), then to its matching `}`.
        let Some(open) = (i + 1..toks.len()).find(|&j| toks[j].tok == Tok::Punct('{')) else {
            continue;
        };
        let mut depth = 0i32;
        let mut close = None;
        for (j, tok) in toks.iter().enumerate().skip(open) {
            match tok.tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(close) = close {
            spans.push((open, close));
        }
    }
    spans
}

/// Checks a `for .. in ..` header for iteration directly over a
/// map-typed binding.
fn for_in_map_violation(
    toks: &[crate::lexer::Token],
    for_idx: usize,
    map_names: &BTreeSet<&str>,
    rel_path: &str,
) -> Option<Violation> {
    // Find `in` before the body's `{`.
    let mut j = for_idx + 1;
    while j < toks.len() && toks[j].tok != Tok::Punct('{') {
        if matches!(&toks[j].tok, Tok::Ident(s) if s == "in") {
            // Look at the next few tokens (skipping `&`, `mut`, `(`)
            // for a map-typed name used as the iterated expression.
            let mut k = j + 1;
            let mut hops = 0;
            while k < toks.len() && hops < 4 {
                match &toks[k].tok {
                    Tok::Punct('&') | Tok::Punct('(') => k += 1,
                    Tok::Ident(s) if s == "mut" => k += 1,
                    Tok::Ident(name) => {
                        if map_names.contains(name.as_str()) {
                            // Direct iteration only: `for x in map` /
                            // `for x in &map`, not `map.len()` arithmetic.
                            let next = toks.get(k + 1).map(|t| &t.tok);
                            let direct = matches!(next, Some(Tok::Punct('{')))
                                || next.is_none()
                                || matches!(next, Some(Tok::Punct('.')))
                                    && matches!(toks.get(k + 2).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "iter" || m == "keys" || m == "values");
                            if direct {
                                return Some(violation(
                                    "hot-path",
                                    rel_path,
                                    toks[for_idx].line,
                                    format!(
                                        "`for .. in {name}` iterates a hashed map in a hot-path module"
                                    ),
                                ));
                            }
                        }
                        k += 1;
                        hops += 1;
                    }
                    _ => break,
                }
            }
            return None;
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::registry::Entry;

    fn lexed_file(rel_path: &str, src: &str) -> LexedFile {
        LexedFile {
            rel_path: rel_path.to_string(),
            lexed: lex(src),
        }
    }

    fn entry(file: &str, count: u64) -> Entry {
        Entry {
            file: file.to_string(),
            count,
            justification: "test".to_string(),
        }
    }

    #[test]
    fn unregistered_unsafe_fires_and_registered_is_clean() {
        let src = "// SAFETY: fine\nunsafe { x() }\n";
        let files = vec![lexed_file("crates/a/src/lib.rs", src)];
        let empty = Registry::default();
        let v = check_unsafe(&files, &empty);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("no [[carveout]]"));

        let mut reg = Registry::default();
        reg.carveouts.push(entry("crates/a/src/lib.rs", 1));
        assert!(check_unsafe(&files, &reg).is_empty());
    }

    #[test]
    fn count_drift_and_stale_entries_fire() {
        let src = "// SAFETY: a\nunsafe { x() }\n// SAFETY: b\nunsafe { y() }\n";
        let files = vec![lexed_file("crates/a/src/lib.rs", src)];
        let mut reg = Registry::default();
        reg.carveouts.push(entry("crates/a/src/lib.rs", 1));
        reg.carveouts.push(entry("crates/gone/src/lib.rs", 1));
        let v = check_unsafe(&files, &reg);
        assert!(v.iter().any(|v| v.message.contains("registry allows 1")));
        assert!(v.iter().any(|v| v.message.contains("stale")));
    }

    #[test]
    fn atomics_audit_counts_only_atomic_variants() {
        let src = "// ORDERING: relaxed counter\n\
                   a.load(Ordering::Relaxed);\n\
                   match x.cmp(&y) { Ordering::Less => {} _ => {} }\n";
        let files = vec![lexed_file("crates/a/src/lib.rs", src)];
        let mut reg = Registry::default();
        reg.atomics.push(entry("crates/a/src/lib.rs", 1));
        assert!(check_atomics(&files, &reg).is_empty());
    }

    #[test]
    fn atomics_outside_registered_modules_or_without_comment_fire() {
        let bare = vec![lexed_file(
            "crates/a/src/lib.rs",
            "a.store(1, Ordering::Release);\n",
        )];
        let v = check_atomics(&bare, &Registry::default());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("no [[atomics]]")));
        assert!(v.iter().any(|v| v.message.contains("ORDERING:")));
    }

    #[test]
    fn atomics_audit_ignores_files_outside_crate_sources() {
        let files = vec![lexed_file(
            "tests/service.rs",
            "a.load(Ordering::SeqCst);\n",
        )];
        assert!(check_atomics(&files, &Registry::default()).is_empty());
    }

    #[test]
    fn hotpath_flags_map_iteration_and_loop_allocation() {
        let src = "\
struct S { placement: HashMap<u32, u32> }
fn f(s: &S, xs: &[u32]) {
    for (k, v) in s.placement.iter() {}
    for x in xs {
        let v = xs.to_vec();
        let w = xs.iter().copied().collect::<Vec<u32>>();
    }
}
";
        let files = vec![lexed_file("crates/core/src/hot.rs", src)];
        let mut reg = Registry::default();
        reg.hotpath.push(entry("crates/core/src/hot.rs", 0));
        let v = check_hotpath(&files, &reg);
        assert!(
            v.iter().any(|v| v.message.contains("hashed-map iteration")),
            "{v:?}"
        );
        assert!(v.iter().any(|v| v.message.contains("to_vec")), "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("collect")), "{v:?}");
    }

    #[test]
    fn hotpath_allows_allocation_outside_loops_and_in_tests() {
        let src = "\
fn f(xs: &[u32]) -> Vec<u32> {
    let v = xs.to_vec();
    v
}
#[cfg(test)]
mod tests {
    fn g(m: &HashMap<u32, u32>, xs: &[u32]) {
        for x in m.iter() {}
        for x in xs { let _ = xs.to_vec(); }
    }
}
";
        let files = vec![lexed_file("crates/core/src/hot.rs", src)];
        let mut reg = Registry::default();
        reg.hotpath.push(entry("crates/core/src/hot.rs", 0));
        assert!(check_hotpath(&files, &reg).is_empty());
    }
}
