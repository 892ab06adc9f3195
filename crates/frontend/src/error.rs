//! Source-span error reporting.
//!
//! Every failure mode of the frontend — lexing, parsing, semantic analysis,
//! lowering — is reported as a [`ParseError`] carrying the 1-based
//! line/column of the offending token plus the source line itself, so the
//! [`std::fmt::Display`] impl can render a compiler-style caret snippet:
//!
//! ```text
//! error: expected ';' after statement
//!   --> adder.qasm:3:10
//!    |
//!  3 | qreg q[4]
//!    |          ^
//! ```

use std::fmt;

/// A location in the source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub col: usize,
}

impl Span {
    /// Creates a span.
    pub fn new(line: usize, col: usize) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A frontend error: what went wrong, where, and the source line it
/// happened on.
///
/// One pointer wide, so every `Result` on the parser's recursive paths
/// stays small and a deeply nested expression fits a worker's stack.
#[derive(Clone, PartialEq, Eq)]
pub struct ParseError(Box<Detail>);

#[derive(Clone, PartialEq, Eq)]
struct Detail {
    message: String,
    span: Span,
    line_text: String,
    file: Option<String>,
}

impl fmt::Debug for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParseError")
            .field("message", &self.0.message)
            .field("span", &self.0.span)
            .field("line_text", &self.0.line_text)
            .field("file", &self.0.file)
            .finish()
    }
}

impl ParseError {
    /// Creates an error at `span`; `line_text` is the full source line the
    /// span points into (used for the caret snippet).
    pub fn new(message: impl Into<String>, span: Span, line_text: impl Into<String>) -> Self {
        ParseError(Box::new(Detail {
            message: message.into(),
            span,
            line_text: line_text.into(),
            file: None,
        }))
    }

    /// Creates an error at `span` of `source`, cutting the source line the
    /// span points into (empty past the last line) for the snippet.
    pub(crate) fn at(source: &str, span: Span, message: impl Into<String>) -> Self {
        let text = source
            .lines()
            .nth(span.line.saturating_sub(1))
            .unwrap_or("");
        ParseError::new(message, span, text)
    }

    /// Attaches a file name, shown in the rendered snippet.
    #[must_use]
    pub fn with_file(mut self, file: impl Into<String>) -> Self {
        self.0.file = Some(file.into());
        self
    }

    /// The error message (no location).
    pub fn message(&self) -> &str {
        &self.0.message
    }

    /// 1-based line of the error.
    pub fn line(&self) -> usize {
        self.0.span.line
    }

    /// 1-based column of the error.
    pub fn col(&self) -> usize {
        self.0.span.col
    }

    /// The source location.
    pub fn span(&self) -> Span {
        self.0.span
    }

    /// The file name, if one was attached.
    pub fn file(&self) -> Option<&str> {
        self.0.file.as_deref()
    }

    /// One-line rendering: `file:line:col: message` (no snippet). Useful
    /// for logs and machine-readable output.
    pub fn to_line(&self) -> String {
        match &self.0.file {
            Some(f) => format!("{f}:{}: {}", self.0.span, self.0.message),
            None => format!("{}: {}", self.0.span, self.0.message),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Detail {
            message,
            span,
            line_text,
            file,
        } = &*self.0;
        writeln!(f, "error: {message}")?;
        let file = file.as_deref().unwrap_or("<qasm>");
        writeln!(f, "  --> {file}:{span}")?;
        // Gutter width follows the line number so the pipes align.
        let num = span.line.to_string();
        let pad = " ".repeat(num.len());
        writeln!(f, " {pad} |")?;
        writeln!(f, " {num} | {line_text}")?;
        // The caret lands under column `col` (1-based). Tabs in the source
        // line are echoed into the pad so the caret stays aligned.
        let mut caret_pad = String::new();
        for ch in line_text.chars().take(span.col.saturating_sub(1)) {
            caret_pad.push(if ch == '\t' { '\t' } else { ' ' });
        }
        write!(f, " {pad} | {caret_pad}^")
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_caret_under_column() {
        let e = ParseError::new("expected ';'", Span::new(3, 10), "qreg q[4]");
        let s = e.to_string();
        assert!(s.contains("error: expected ';'"));
        assert!(s.contains("--> <qasm>:3:10"));
        assert!(s.contains(" 3 | qreg q[4]"));
        let caret_line = s.lines().last().unwrap();
        // " " + 1-char gutter pad + " | " + 9 pad columns + caret.
        assert_eq!(caret_line, "   |          ^");
    }

    #[test]
    fn with_file_shows_in_both_renderings() {
        let e = ParseError::new("boom", Span::new(1, 1), "x").with_file("f.qasm");
        assert!(e.to_string().contains("--> f.qasm:1:1"));
        assert_eq!(e.to_line(), "f.qasm:1:1: boom");
        assert_eq!(e.file(), Some("f.qasm"));
    }

    #[test]
    fn accessors_expose_span() {
        let e = ParseError::new("m", Span::new(7, 2), "line");
        assert_eq!((e.line(), e.col()), (7, 2));
        assert_eq!(e.span(), Span::new(7, 2));
        assert_eq!(e.message(), "m");
        assert_eq!(e.to_line(), "7:2: m");
    }
}
