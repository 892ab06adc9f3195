//! Rule family 3: the observable-surface registry.
//!
//! Statically extracts the daemon's externally visible names from
//! source — `oneqd_*` metric families and `/v1/*` route literals — and
//! cross-checks them against `docs/OBSERVABILITY.md` and `README.md`.
//! The `/v1/stats` schema is pinned at runtime instead, by
//! `tests/stats_schema.rs` against a live server.

use std::collections::BTreeSet;

use crate::lexer::Tok;
use crate::rules::{LexedFile, Violation};

const RULE: &str = "surface-registry";

/// Everything the surface rule reads besides workspace sources.
#[derive(Debug, Default)]
pub struct SurfaceDocs {
    /// `docs/OBSERVABILITY.md` contents.
    pub observability_md: String,
    /// `README.md` contents.
    pub readme_md: String,
}

fn violation(file: &str, line: u32, message: String) -> Violation {
    Violation {
        rule: RULE,
        file: file.to_string(),
        line,
        message,
    }
}

/// True when `name` is a well-formed metric family name
/// (`oneqd_` + lowercase/digit/underscore, not ending in `_`).
fn is_metric_name(name: &str) -> bool {
    name.strip_prefix("oneqd_").is_some_and(|rest| {
        !rest.is_empty()
            && !rest.ends_with('_')
            && rest
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// Exposition-derived suffixes a scraper may name directly; stripping
/// one maps the series name back to its family.
const DERIVED_SUFFIXES: [&str; 3] = ["_bucket", "_count", "_sum"];

fn family_of(name: &str) -> &str {
    for suffix in DERIVED_SUFFIXES {
        if let Some(stripped) = name.strip_suffix(suffix) {
            if is_metric_name(stripped) {
                return stripped;
            }
        }
    }
    name
}

/// Extracts documented metric families from markdown: every
/// `oneqd_...` span, with one level of `{a,b,c}` alternation expanded
/// (`oneqd_cache_memory_{hits,misses}_total` names two families).
pub fn doc_metric_families(md: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let bytes = md.as_bytes();
    let mut i = 0;
    while let Some(pos) = md[i..].find("oneqd_") {
        let start = i + pos;
        let mut end = start;
        while end < bytes.len()
            && matches!(bytes[end], b'a'..=b'z' | b'0'..=b'9' | b'_' | b'{' | b'}' | b',')
        {
            end += 1;
        }
        for expanded in expand_braces(&md[start..end]) {
            if is_metric_name(&expanded) {
                out.insert(expanded);
            }
        }
        i = end.max(start + 1);
    }
    out
}

/// Expands `{a,b,c}` alternation groups (recursively, left to right).
fn expand_braces(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let Some(close_rel) = pattern[open..].find('}') else {
        return vec![pattern.to_string()];
    };
    let close = open + close_rel;
    let mut out = Vec::new();
    for alt in pattern[open + 1..close].split(',') {
        let candidate = format!("{}{}{}", &pattern[..open], alt, &pattern[close + 1..]);
        out.extend(expand_braces(&candidate));
    }
    out
}

/// Extracts `/v1/...` route paths from free text (docs) or a string
/// literal: everything from `/v1/` up to the first character that
/// cannot be part of a path, query strings cut, trailing `/` trimmed.
pub fn extract_routes(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find("/v1/") {
        let start = i + pos;
        let rest = &text[start..];
        let end = rest
            .find(|c: char| {
                c.is_whitespace()
                    || matches!(
                        c,
                        '?' | '&'
                            | '='
                            | '#'
                            | '"'
                            | '\''
                            | '`'
                            | '\\'
                            | '{'
                            | '}'
                            | '|'
                            | ')'
                            | '('
                            | ','
                            | '<'
                            | '>'
                    )
            })
            .unwrap_or(rest.len());
        let route = rest[..end].trim_end_matches(['/', '.', ':', ';']);
        if route.len() > "/v1/".len() - 1 {
            out.insert(route.to_string());
        }
        i = start + 1;
    }
    out
}

/// String literals of a lexed file, with lines.
fn string_literals(file: &LexedFile) -> impl Iterator<Item = (u32, &str)> {
    file.lexed.tokens.iter().filter_map(|t| match &t.tok {
        Tok::Str(s) => Some((t.line, s.as_str())),
        _ => None,
    })
}

/// Runs every surface check. `files` is the full workspace walk.
pub fn check_surface(files: &[LexedFile], docs: &SurfaceDocs) -> Vec<Violation> {
    let mut out = Vec::new();
    check_metrics(files, docs, &mut out);
    check_routes(files, docs, &mut out);
    out
}

fn check_metrics(files: &[LexedFile], docs: &SurfaceDocs, out: &mut Vec<Violation>) {
    let documented = doc_metric_families(&docs.observability_md);
    let mut in_source: BTreeSet<String> = BTreeSet::new();
    // Only library/binary sources define the exported surface; test
    // harnesses mint throwaway families (e.g. the obs crate's demo
    // registry) that are not part of it.
    for file in files
        .iter()
        .filter(|f| crate::rules::in_crate_sources(&f.rel_path))
    {
        for (line, lit) in string_literals(file) {
            if !is_metric_name(family_of(lit)) {
                continue;
            }
            let family = family_of(lit).to_string();
            if !documented.contains(&family) {
                out.push(violation(
                    &file.rel_path,
                    line,
                    format!(
                        "metric family `{family}` is not documented in docs/OBSERVABILITY.md's metric reference"
                    ),
                ));
            }
            in_source.insert(family);
        }
    }
    for family in &documented {
        if !in_source.contains(family) {
            out.push(violation(
                "docs/OBSERVABILITY.md",
                0,
                format!("documented metric family `{family}` no longer appears in any source file"),
            ));
        }
    }
}

fn check_routes(files: &[LexedFile], docs: &SurfaceDocs, out: &mut Vec<Violation>) {
    let mut documented = extract_routes(&docs.observability_md);
    documented.extend(extract_routes(&docs.readme_md));
    for file in files {
        for (line, lit) in string_literals(file) {
            for route in extract_routes(lit) {
                let known = documented.iter().any(|d| {
                    *d == route
                        || route.starts_with(&format!("{d}/"))
                        || d.starts_with(&format!("{route}/"))
                });
                if !known {
                    out.push(violation(
                        &file.rel_path,
                        line,
                        format!(
                            "route literal `{route}` is not documented in docs/OBSERVABILITY.md or README.md"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lexed_file(rel_path: &str, src: &str) -> LexedFile {
        LexedFile {
            rel_path: rel_path.to_string(),
            lexed: lex(src),
        }
    }

    #[test]
    fn brace_expansion_names_every_family() {
        let md = "| `oneqd_cache_memory_{hits,misses}_total` | and `oneqd_workers` |";
        let families = doc_metric_families(md);
        assert!(families.contains("oneqd_cache_memory_hits_total"));
        assert!(families.contains("oneqd_cache_memory_misses_total"));
        assert!(families.contains("oneqd_workers"));
        assert_eq!(families.len(), 3);
    }

    #[test]
    fn bare_prefix_mentions_are_not_families() {
        let md = "All metrics are prefixed `oneqd_`.";
        assert!(doc_metric_families(md).is_empty());
    }

    #[test]
    fn route_extraction_handles_queries_ids_and_raw_http() {
        let routes = extract_routes("GET /v1/stats HTTP/1.1\\r\\n");
        assert!(routes.contains("/v1/stats"), "{routes:?}");
        let routes = extract_routes("/v1/compile?file=a.qasm");
        assert!(routes.contains("/v1/compile"));
        let routes = extract_routes("`GET /v1/traces/{id}`");
        assert!(routes.contains("/v1/traces"), "{routes:?}");
    }

    #[test]
    fn undocumented_metric_and_route_fire() {
        // Names assembled so this test file itself stays lint-clean.
        let fake_metric = ["oneqd", "made_up_total"].join("_");
        let fake_route = ["/v1", "nonexistent"].join("/");
        let src = format!("let a = \"{fake_metric}\"; let b = \"{fake_route}\";");
        let files = vec![lexed_file("crates/x/src/lib.rs", &src)];
        let docs = SurfaceDocs {
            observability_md: "`oneqd_requests_total`".to_string(),
            readme_md: "see `/v1/stats`".to_string(),
        };
        let v = check_surface(&files, &docs);
        assert!(v.iter().any(|v| v.message.contains(&fake_metric)), "{v:?}");
        assert!(v.iter().any(|v| v.message.contains(&fake_route)), "{v:?}");
        // The documented-but-unused direction fires too.
        assert!(
            v.iter().any(|v| v.message.contains("oneqd_requests_total")),
            "{v:?}"
        );
    }
}
