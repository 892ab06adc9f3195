//! Hand-rolled JSON emission helpers and a flat-object reader.
//!
//! The workspace has no serde: every JSON producer (`oneqc`'s JSONL
//! writer, `oneqd`'s responses) formats records by hand. This module is
//! the single implementation of the parts that are easy to get subtly
//! wrong — string escaping, object layout, and (for the
//! `/v1/compile-batch` JSONL request lines) parsing one *flat* JSON
//! object — so the producers cannot drift apart.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// and all control characters below U+0020). The surrounding quotes are
/// the caller's job, matching how the record format strings are written.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// JSON-escapes `s` into a fresh `String` (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Incremental writer for one JSON object: handles comma placement, key
/// quoting, and value escaping so deeply nested hand-emitted objects
/// (the `/v1/stats` body grew three levels in stats v3) cannot drift
/// into invalid JSON. The rendering matches the repo's hand-written
/// style exactly — `{"k": v, "k2": v2}` with a space after `:` and `,`.
///
/// # Example
///
/// ```
/// use oneq_service::json::ObjWriter;
/// let mut inner = ObjWriter::new();
/// inner.field_u64("hits", 3);
/// let mut out = ObjWriter::new();
/// out.field_str("schema", "demo/v1").field_raw("cache", &inner.finish());
/// assert_eq!(out.finish(), r#"{"schema": "demo/v1", "cache": {"hits": 3}}"#);
/// ```
#[derive(Debug)]
pub struct ObjWriter {
    out: String,
    needs_comma: bool,
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> ObjWriter {
        ObjWriter {
            out: String::from("{"),
            needs_comma: false,
        }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        if self.needs_comma {
            self.out.push_str(", ");
        }
        self.needs_comma = true;
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\": ");
        self
    }

    /// Appends `"key": value` with an unsigned integer value.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Appends `"key": value` with a `true`/`false` value.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Appends `"key": "value"` with the value JSON-escaped.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// Appends `"key": value` with `value` spliced in verbatim — for
    /// nesting an already-rendered object (another writer's
    /// [`finish`](ObjWriter::finish)) or a pre-formatted number.
    pub fn field_raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Closes the object and returns its rendering.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Parses one *flat* JSON object (`{"k": v, ...}`) into `(key, value)`
/// pairs in source order. Values are returned as plain strings: string
/// literals are unescaped, numbers keep their literal spelling, booleans
/// become `"true"`/`"false"`. Nested objects/arrays and `null` are
/// rejected — the only consumer is the `/v1/compile-batch` request line,
/// whose schema is flat by design. Duplicate keys are rejected too, so a
/// request can never silently half-override itself.
pub fn parse_flat_object(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs: Vec<(String, String)> = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.scalar()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err("expected `,` or `}` after value".to_string()),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".to_string());
    }
    Ok(pairs)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            _ => Err(format!("expected `{}`", want as char)),
        }
    }

    /// A JSON string literal, fully unescaped (including `\uXXXX` and
    /// UTF-16 surrogate pairs — QASM sources are plain ASCII, but the
    /// parser must not corrupt a label that is not).
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Consume one UTF-8 scalar at a time so multi-byte characters
            // pass through intact. Slicing the original &str is O(1) (a
            // boundary check, never a re-validation) — re-checking the
            // remaining bytes per character would make large `source`
            // strings quadratic.
            let rest = self
                .text
                .get(self.pos..)
                .ok_or("string not on a character boundary")?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars.next().ok_or("unterminated escape")?;
                    self.pos += esc.len_utf8();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: require `\uXXXX` low half.
                                if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                    return Err("unpaired surrogate".to_string());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{other}`")),
                    }
                }
                c if (c as u32) < 0x20 => return Err("raw control character in string".to_string()),
                c => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.next().ok_or("truncated \\u escape")?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| "bad hex digit in \\u escape".to_string())?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// A scalar value: string, number, or boolean, rendered as a string.
    fn scalar(&mut self) -> Result<String, String> {
        match self.peek() {
            Some(b'"') => self.string(),
            Some(b'{') | Some(b'[') => Err("nested values are not supported".to_string()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => Err("null is not a supported value".to_string()),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let literal = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
                // Validate against the JSON number grammar itself —
                // f64::parse is laxer (it accepts `5.` and `1.e3`, which
                // JSON forbids).
                if !is_json_number(literal) {
                    return Err(format!("bad number `{literal}`"));
                }
                Ok(literal.to_string())
            }
            _ => Err("expected a value".to_string()),
        }
    }

    fn literal(&mut self, word: &str) -> Result<String, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(word.to_string())
        } else {
            Err(format!("expected `{word}`"))
        }
    }
}

/// RFC 8259 number grammar: `-? (0 | [1-9][0-9]*) frac? exp?` with
/// `frac = . [0-9]+` and `exp = [eE] [+-]? [0-9]+`.
fn is_json_number(s: &str) -> bool {
    let mut b = s.as_bytes();
    if let [b'-', rest @ ..] = b {
        b = rest;
    }
    // Integer part: `0` alone, or a non-zero digit run.
    b = match b {
        [b'0', rest @ ..] => rest,
        [b'1'..=b'9', ..] => {
            let n = b.iter().take_while(|c| c.is_ascii_digit()).count();
            &b[n..]
        }
        _ => return false,
    };
    if let [b'.', rest @ ..] = b {
        let n = rest.iter().take_while(|c| c.is_ascii_digit()).count();
        if n == 0 {
            return false;
        }
        b = &rest[n..];
    }
    if let [b'e' | b'E', rest @ ..] = b {
        let rest = match rest {
            [b'+' | b'-', r @ ..] => r,
            r => r,
        };
        let n = rest.iter().take_while(|c| c.is_ascii_digit()).count();
        if n == 0 {
            return false;
        }
        b = &rest[n..];
    }
    b.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }

    #[test]
    fn escapes_named_control_chars() {
        assert_eq!(escape("a\nb\rc\td"), r"a\nb\rc\td");
    }

    #[test]
    fn escapes_other_control_chars_as_unicode() {
        assert_eq!(escape("\u{0}\u{1f}"), "\\u0000\\u001f");
        // U+0020 (space) and above pass through untouched.
        assert_eq!(escape(" ~\u{7f}é"), " ~\u{7f}é");
    }

    #[test]
    fn escape_into_appends() {
        let mut out = String::from("x");
        escape_into(&mut out, "\"");
        assert_eq!(out, "x\\\"");
    }

    #[test]
    fn obj_writer_matches_the_handwritten_style() {
        assert_eq!(ObjWriter::new().finish(), "{}");
        let mut w = ObjWriter::new();
        w.field_str("schema", "x/v1")
            .field_u64("n", 7)
            .field_bool("on", true)
            .field_raw("nested", "{\"k\": 1}");
        assert_eq!(
            w.finish(),
            r#"{"schema": "x/v1", "n": 7, "on": true, "nested": {"k": 1}}"#
        );
        // Escaping runs on both keys and string values.
        let mut w = ObjWriter::new();
        w.field_str("a\"b", "line\nbreak");
        let rendered = w.finish();
        assert_eq!(rendered, "{\"a\\\"b\": \"line\\nbreak\"}");
        parse_flat_object(&rendered).expect("rendering is valid JSON");
    }

    #[test]
    fn flat_object_round_trips_through_escape() {
        let label = "a \"weird\"\\label\nwith\tcontrol\u{1}chars";
        let line = format!(
            "{{\"file\": \"{}\", \"side\": 12, \"timings\": true}}",
            escape(label)
        );
        let pairs = parse_flat_object(&line).unwrap();
        assert_eq!(
            pairs,
            vec![
                ("file".to_string(), label.to_string()),
                ("side".to_string(), "12".to_string()),
                ("timings".to_string(), "true".to_string()),
            ]
        );
    }

    #[test]
    fn flat_object_handles_unicode_escapes_and_empties() {
        assert_eq!(parse_flat_object("{}").unwrap(), vec![]);
        assert_eq!(parse_flat_object("  { }  ").unwrap(), vec![]);
        let pairs = parse_flat_object(r#"{"s": "\u00e9\ud83d\ude00/"}"#).unwrap();
        assert_eq!(pairs, vec![("s".to_string(), "é😀/".to_string())]);
        let pairs = parse_flat_object(r#"{"n": -1.5e3, "b": false}"#).unwrap();
        assert_eq!(pairs[0].1, "-1.5e3");
        assert_eq!(pairs[1].1, "false");
    }

    #[test]
    fn flat_object_rejects_malformed_input() {
        for bad in [
            "",
            "[]",
            "{",
            "{\"a\"}",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "{\"a\": {\"nested\": 1}}",
            "{\"a\": [1]}",
            "{\"a\": null}",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": \"unterminated}",
            "{\"a\": \"bad \\q escape\"}",
            "{\"a\": \"\\ud800 lonely\"}",
            "{\"a\": -.e8}",
            // f64::parse would take these; the JSON grammar must not.
            "{\"a\": 5.}",
            "{\"a\": 1.e3}",
            "{\"a\": .5}",
            "{\"a\": 01}",
            "{\"a\": 1e}",
            "{\"a\": -}",
        ] {
            assert!(parse_flat_object(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn json_number_grammar_accepts_valid_forms() {
        for good in [
            "0", "-0", "7", "123", "1.5", "-0.25", "2e8", "1.5E-3", "9e+2",
        ] {
            let line = format!("{{\"n\": {good}}}");
            assert_eq!(
                parse_flat_object(&line).unwrap(),
                vec![("n".to_string(), good.to_string())],
                "rejected: {good}"
            );
        }
    }
}
