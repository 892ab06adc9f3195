//! Hand-written OpenQASM 2.0 lexer.
//!
//! Scans the source's bytes one token per call, so the parser reads a
//! stream and no token buffer is built. Identifier and string tokens are
//! slices of the source. Spans are 1-based, and a column counts
//! characters, not bytes: it advances on every byte that does not continue
//! a UTF-8 sequence. The source line an error points into is cut from the
//! source only when the error is built.

use crate::error::{ParseError, Span};
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind<'s> {
    /// Identifier or keyword (`qreg`, `h`, `my_gate`, `U`, `CX`, ...).
    Ident(&'s str),
    /// Unsigned integer literal.
    Int(u64),
    /// Real literal (decimal point and/or exponent).
    Real(f64),
    /// String literal (the text between the quotes).
    Str(&'s str),
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
    /// `->`
    Arrow,
    /// `==`
    EqEq,
    /// End of input (returned by every call once the input is exhausted).
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Real(v) => write!(f, "real `{v}`"),
            TokenKind::Str(s) => write!(f, "string \"{s}\""),
            TokenKind::Semicolon => write!(f, "`;`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Caret => write!(f, "`^`"),
            TokenKind::Arrow => write!(f, "`->`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'s> {
    /// What was lexed.
    pub(crate) kind: TokenKind<'s>,
    /// Where it starts (1-based).
    pub(crate) span: Span,
}

/// Characters in `bytes`: the bytes that do not continue a UTF-8 sequence.
fn char_count(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b & 0xC0 != 0x80).count()
}

/// A cursor over the source that yields one token per
/// [`Lexer::next_token`] call.
pub(crate) struct Lexer<'s> {
    source: &'s str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'s> Lexer<'s> {
    /// A lexer at the start of `source`.
    pub(crate) fn new(source: &'s str) -> Self {
        Lexer {
            source,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// The next token, or [`TokenKind::Eof`] once the input is exhausted.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on an unterminated string, a malformed
    /// number, a stray character, or a lone `=` that does not form `==`.
    /// The lexer is exhausted after an error.
    pub(crate) fn next_token(&mut self) -> Result<Token<'s>, ParseError> {
        let token = self.scan();
        if token.is_err() {
            self.pos = self.source.len();
        }
        token
    }

    /// Lexes the rest of the input and returns its first error, if any.
    pub(crate) fn first_error(&mut self) -> Option<ParseError> {
        loop {
            match self.next_token() {
                Ok(t) if t.kind == TokenKind::Eof => return None,
                Ok(_) => {}
                Err(e) => return Some(e),
            }
        }
    }

    fn error(&self, span: Span, message: impl Into<String>) -> ParseError {
        ParseError::at(self.source, span, message)
    }

    /// Steps over `n` ASCII bytes on the current line.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.col += n;
    }

    fn scan(&mut self) -> Result<Token<'s>, ParseError> {
        let bytes = self.source.as_bytes();
        loop {
            let span = Span::new(self.line, self.col);
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(Token {
                    kind: TokenKind::Eof,
                    span,
                });
            };
            let next = bytes.get(self.pos + 1).copied();
            let (kind, len) = match b {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.advance(1);
                    continue;
                }
                b'/' if next == Some(b'/') => {
                    let rest = &bytes[self.pos..];
                    let len = rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                    self.col += char_count(&rest[..len]);
                    self.pos += len;
                    continue;
                }
                b';' => (TokenKind::Semicolon, 1),
                b',' => (TokenKind::Comma, 1),
                b'(' => (TokenKind::LParen, 1),
                b')' => (TokenKind::RParen, 1),
                b'[' => (TokenKind::LBracket, 1),
                b']' => (TokenKind::RBracket, 1),
                b'{' => (TokenKind::LBrace, 1),
                b'}' => (TokenKind::RBrace, 1),
                b'+' => (TokenKind::Plus, 1),
                b'*' => (TokenKind::Star, 1),
                b'/' => (TokenKind::Slash, 1),
                b'^' => (TokenKind::Caret, 1),
                b'-' if next == Some(b'>') => (TokenKind::Arrow, 2),
                b'-' => (TokenKind::Minus, 1),
                b'=' if next == Some(b'=') => (TokenKind::EqEq, 2),
                b'=' => return Err(self.error(span, "stray `=`; did you mean `==`?")),
                b'"' => return self.string(span),
                b'0'..=b'9' | b'.' => return self.number(span),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let len = bytes[self.pos..]
                        .iter()
                        .position(|c| !(c.is_ascii_alphanumeric() || *c == b'_'))
                        .unwrap_or(bytes.len() - self.pos);
                    let ident = &self.source[self.pos..self.pos + len];
                    (TokenKind::Ident(ident), len)
                }
                _ => {
                    // Every earlier token ended on an ASCII byte, so `pos`
                    // starts a character.
                    let c = self.source[self.pos..].chars().next().unwrap_or('\u{fffd}');
                    return Err(self.error(span, format!("unexpected character `{c}`")));
                }
            };
            self.advance(len);
            return Ok(Token { kind, span });
        }
    }

    fn string(&mut self, span: Span) -> Result<Token<'s>, ParseError> {
        let start = self.pos + 1;
        let rest = &self.source.as_bytes()[start..];
        match rest.iter().position(|&c| c == b'"' || c == b'\n') {
            Some(len) if rest[len] == b'"' => {
                let text = &self.source[start..start + len];
                self.col += char_count(text.as_bytes()) + 2;
                self.pos = start + len + 1;
                Ok(Token {
                    kind: TokenKind::Str(text),
                    span,
                })
            }
            _ => Err(self.error(span, "unterminated string literal")),
        }
    }

    fn number(&mut self, span: Span) -> Result<Token<'s>, ParseError> {
        let bytes = self.source.as_bytes();
        let start = self.pos;
        let mut end = start;
        let mut is_real = false;
        while let Some(&c) = bytes.get(end) {
            if c.is_ascii_digit() {
                end += 1;
            } else if c == b'.' && !is_real {
                is_real = true;
                end += 1;
            } else if (c == b'e' || c == b'E') && end > start {
                // Exponent: consumed only if followed by digits (with an
                // optional sign); otherwise it starts an identifier.
                let mut look = end + 1;
                if matches!(bytes.get(look), Some(b'+' | b'-')) {
                    look += 1;
                }
                if !matches!(bytes.get(look), Some(d) if d.is_ascii_digit()) {
                    break;
                }
                is_real = true;
                end = look;
                while matches!(bytes.get(end), Some(d) if d.is_ascii_digit()) {
                    end += 1;
                }
            } else {
                break;
            }
        }
        let text = &self.source[start..end];
        self.advance(end - start);
        if text == "." {
            return Err(self.error(span, "expected digits around `.`"));
        }
        let kind = if is_real {
            TokenKind::Real(
                text.parse()
                    .map_err(|_| self.error(span, format!("malformed real literal `{text}`")))?,
            )
        } else {
            TokenKind::Int(
                text.parse()
                    .map_err(|_| self.error(span, format!("integer literal `{text}` overflows")))?,
            )
        };
        Ok(Token { kind, span })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let t = lexer.next_token()?;
            tokens.push(t);
            if t.kind == TokenKind::Eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_header_line() {
        assert_eq!(
            kinds("OPENQASM 2.0;"),
            vec![
                TokenKind::Ident("OPENQASM"),
                TokenKind::Real(2.0),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn spans_are_one_based() {
        let tokens = lex("qreg q[4];\nh q[0];").unwrap();
        assert_eq!(tokens[0].span, Span::new(1, 1));
        let h = tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("h"))
            .unwrap();
        assert_eq!(h.span, Span::new(2, 1));
        // Columns count characters: `é` is two bytes but one column.
        let tokens = lex("\"é\" x\n\"\" // ü\ny").unwrap();
        let spans: Vec<Span> = tokens.iter().map(|t| t.span).collect();
        assert_eq!(
            spans,
            vec![
                Span::new(1, 1),
                Span::new(1, 5),
                Span::new(2, 1),
                Span::new(3, 1),
                Span::new(3, 2)
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("// header\nh q; // trailing"),
            vec![
                TokenKind::Ident("h"),
                TokenKind::Ident("q"),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn arrow_and_eqeq() {
        assert_eq!(
            kinds("-> == -"),
            vec![
                TokenKind::Arrow,
                TokenKind::EqEq,
                TokenKind::Minus,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers_reals_and_exponents() {
        assert_eq!(
            kinds("3 0.25 2e3 1.5e-2"),
            vec![
                TokenKind::Int(3),
                TokenKind::Real(0.25),
                TokenKind::Real(2000.0),
                TokenKind::Real(0.015),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn exponent_without_digits_is_identifier_boundary() {
        // `2e` is the integer 2 followed by identifier `e`.
        assert_eq!(
            kinds("2e"),
            vec![TokenKind::Int(2), TokenKind::Ident("e"), TokenKind::Eof]
        );
    }

    #[test]
    fn strings_lex_and_unterminated_fails() {
        assert_eq!(
            kinds("include \"qelib1.inc\";"),
            vec![
                TokenKind::Ident("include"),
                TokenKind::Str("qelib1.inc"),
                TokenKind::Semicolon,
                TokenKind::Eof
            ]
        );
        let err = lex("\"oops").unwrap_err();
        assert!(err.message().contains("unterminated"));
        assert_eq!((err.line(), err.col()), (1, 1));
    }

    #[test]
    fn stray_characters_error_with_position() {
        let err = lex("h q;\n  @").unwrap_err();
        assert!(err.message().contains('@'));
        assert_eq!((err.line(), err.col()), (2, 3));
        // After an error the lexer is exhausted.
        let mut lexer = Lexer::new("@ x");
        assert!(lexer.next_token().is_err());
        assert_eq!(lexer.next_token().unwrap().kind, TokenKind::Eof);
    }

    #[test]
    fn stray_equals_is_rejected() {
        let err = lex("a = b").unwrap_err();
        assert!(err.message().contains("=="));
    }
}
