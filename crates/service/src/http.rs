//! A deliberately small HTTP/1.1 implementation over `std::net`.
//!
//! `oneqd` serves a handful of fixed routes to trusted clients (the
//! tests, `oneq-top`, `perfbench`, `curl`); it needs request-line +
//! header + `Content-Length` body parsing, percent-decoding for query
//! strings, and persistent (`Connection: keep-alive`) framing in both
//! directions — nothing more. Pulling in an HTTP stack would break the
//! workspace's vendored-offline policy, so this module implements
//! exactly that subset, with hard limits on line, header, and body
//! sizes.
//!
//! Since the `/v1` redesign, connections are sessions: the server reads
//! many requests off one socket and the client side has a matching
//! reusable [`ClientConn`]. The one-shot [`request`] helper remains for
//! tests and scripts; it opens a connection, sends `Connection: close`,
//! and reads one response.
//!
//! Since the readiness-loop rewrite the server never blocks on a socket,
//! so request parsing is *resumable*: [`RequestParser`] accepts bytes as
//! they arrive (in whatever chunks the kernel delivers) and yields
//! [`Parse::NeedMore`] until a complete `Content-Length`-framed request
//! has been assembled. The blocking [`read_request`] helper is a thin
//! loop over the same parser, so the two entrypoints cannot drift.
//!
//! Header *names* are matched case-insensitively (RFC 9110 §5.1), and so
//! are the connection-option tokens in `Connection` values (`Keep-Alive`
//! and `keep-alive` mean the same thing) — see [`has_connection_token`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on one request line or header line.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 64;
/// Upper bound on a response body the *client* side will buffer. The
/// server enforces its own `max_body` on requests; this is the symmetric
/// guard so a misbehaving endpoint declaring a huge `Content-Length`
/// cannot make a client attempt an absurd allocation.
const MAX_CLIENT_BODY: usize = 64 * 1024 * 1024;
/// Bodies up to this size are copied into one buffer with their head so
/// the message leaves in a single write; larger bodies are written
/// separately rather than paying a full memcpy.
const COALESCE_WRITE_MAX: usize = 8 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-framed; no chunked encoding).
    pub body: Vec<u8>,
    /// `true` for an `HTTP/1.0` request (keep-alive must be opted into).
    pub http10: bool,
}

impl Request {
    /// First header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Whether the client asked for (or defaults to) a persistent
    /// connection: HTTP/1.1 is keep-alive unless `Connection: close`;
    /// HTTP/1.0 is close unless `Connection: keep-alive`. Token matching
    /// is case-insensitive per RFC 9110.
    pub fn wants_keep_alive(&self) -> bool {
        let connection = self.header("connection");
        if self.http10 {
            connection.is_some_and(|v| has_connection_token(v, "keep-alive"))
        } else {
            !connection.is_some_and(|v| has_connection_token(v, "close"))
        }
    }
}

/// Case-insensitive lookup in a `(name, value)` header list. Stored names
/// are already lowercased by the parsers, but the lookup does not rely on
/// that invariant — a hand-built list in a test gets the same semantics.
fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Whether a `Connection` header value contains `token` in its
/// comma-separated option list, ASCII-case-insensitively: `Keep-Alive`,
/// `keep-alive`, and `close, KEEP-ALIVE` all match `keep-alive`.
pub fn has_connection_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Why a request could not be served.
#[derive(Debug)]
pub enum RequestError {
    /// Transport failure (peer went away, timeout); no response owed.
    Io(std::io::Error),
    /// Malformed request → `400 Bad Request`.
    Malformed(String),
    /// Body larger than the server's limit → `413 Content Too Large`.
    /// Raised from the `Content-Length` header alone, *before* any body
    /// byte is buffered.
    BodyTooLarge(usize),
}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Outcome of feeding bytes to a [`RequestParser`].
#[derive(Debug)]
pub enum Parse {
    /// The bytes so far do not complete a request; feed more when they
    /// arrive.
    NeedMore,
    /// One complete request was assembled. Bytes past its end were left
    /// unconsumed (see the `consumed` count) — they belong to the next
    /// pipelined request.
    Request(Request),
}

/// Which part of the message the parser is currently assembling.
enum ParseState {
    /// Accumulating the request line.
    RequestLine,
    /// Accumulating header lines.
    Headers,
    /// Accumulating `Content-Length` body bytes.
    Body,
}

/// An incremental HTTP/1.1 request parser: feed it bytes in whatever
/// chunks the transport delivers and it yields a [`Request`] once the
/// `Content-Length`-framed message is complete.
///
/// This is the parser the readiness loop runs on nonblocking sockets —
/// it never pulls from a stream itself, so a peer that trickles one byte
/// at a time costs one buffered fd, not a blocked thread. The blocking
/// [`read_request`] is a loop over this same type, so both entrypoints
/// enforce identical limits (`MAX_LINE`, `MAX_HEADERS`, `max_body`) and
/// produce identical errors.
///
/// After yielding a request the parser resets itself, ready for the next
/// message on the same connection.
///
/// # Examples
///
/// ```
/// use oneq_service::http::{Parse, RequestParser};
///
/// let mut parser = RequestParser::new(1024);
/// // The request arrives split across two reads.
/// let first: &[u8] = b"POST /v1/compile HTTP/1.1\r\nContent-";
/// let (consumed, parse) = parser.feed(first);
/// assert_eq!(consumed, first.len());
/// assert!(matches!(parse.unwrap(), Parse::NeedMore));
///
/// let (_, parse) = parser.feed(b"Length: 5\r\n\r\nhello");
/// match parse.unwrap() {
///     Parse::Request(req) => {
///         assert_eq!(req.method, "POST");
///         assert_eq!(req.path, "/v1/compile");
///         assert_eq!(req.body, b"hello");
///     }
///     Parse::NeedMore => unreachable!("the request is complete"),
/// }
/// ```
pub struct RequestParser {
    max_body: usize,
    state: ParseState,
    /// The line being accumulated (request line or header line), without
    /// its terminator.
    line: Vec<u8>,
    method: String,
    target: String,
    http10: bool,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    /// Declared `Content-Length`; meaningful in `ParseState::Body`.
    need: usize,
    /// Whether any byte of the current request has been consumed — lets
    /// the server tell an idle keep-alive close (clean) from a peer that
    /// died mid-request.
    started: bool,
}

impl RequestParser {
    /// Creates a parser enforcing `max_body` on the declared
    /// `Content-Length` (checked before any body byte is buffered).
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            max_body,
            state: ParseState::RequestLine,
            line: Vec::with_capacity(128),
            method: String::new(),
            target: String::new(),
            http10: false,
            headers: Vec::new(),
            body: Vec::new(),
            need: 0,
            started: false,
        }
    }

    /// Whether the parser holds a partially assembled request. `false`
    /// between messages — at that point a peer disconnect is a normal
    /// end-of-session, not an error.
    pub fn mid_request(&self) -> bool {
        self.started
    }

    /// Feeds `bytes` to the parser. Always reports how many bytes were
    /// consumed — even on error, so the caller knows exactly where the
    /// stream position stands (the 413 drain path depends on the header
    /// bytes having been consumed). Unconsumed bytes after a complete
    /// request belong to the next message; feed them again.
    pub fn feed(&mut self, bytes: &[u8]) -> (usize, Result<Parse, RequestError>) {
        let mut used = 0;
        while used < bytes.len() {
            if matches!(self.state, ParseState::Body) {
                let take = (self.need - self.body.len()).min(bytes.len() - used);
                self.body.extend_from_slice(&bytes[used..used + take]);
                used += take;
                if self.body.len() == self.need {
                    return (used, Ok(Parse::Request(self.finish())));
                }
                break;
            }
            let byte = bytes[used];
            used += 1;
            self.started = true;
            if byte != b'\n' {
                self.line.push(byte);
                if self.line.len() > MAX_LINE {
                    return (
                        used,
                        Err(RequestError::Malformed("header line too long".into())),
                    );
                }
                continue;
            }
            match self.take_line() {
                Ok(None) => {}
                Ok(Some(request)) => return (used, Ok(Parse::Request(request))),
                Err(e) => return (used, Err(e)),
            }
        }
        (used, Ok(Parse::NeedMore))
    }

    /// Handles one completed line (terminator already consumed). Returns
    /// a request when the line completes a body-less message.
    fn take_line(&mut self) -> Result<Option<Request>, RequestError> {
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        let line = String::from_utf8(std::mem::take(&mut self.line))
            .map_err(|_| RequestError::Malformed("header line not UTF-8".into()))?;
        match self.state {
            ParseState::RequestLine => {
                if line.is_empty() {
                    return Err(RequestError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "empty request",
                    )));
                }
                let mut parts = line.split(' ');
                let (method, target, version) =
                    match (parts.next(), parts.next(), parts.next(), parts.next()) {
                        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
                            (m, t, v)
                        }
                        _ => return Err(RequestError::Malformed("bad request line".into())),
                    };
                if !version.starts_with("HTTP/1.") {
                    return Err(RequestError::Malformed(format!(
                        "unsupported version {version}"
                    )));
                }
                self.http10 = version == "HTTP/1.0";
                self.method = method.to_string();
                self.target = target.to_string();
                self.state = ParseState::Headers;
                Ok(None)
            }
            ParseState::Headers => {
                if !line.is_empty() {
                    if self.headers.len() >= MAX_HEADERS {
                        return Err(RequestError::Malformed("too many headers".into()));
                    }
                    let Some((name, value)) = line.split_once(':') else {
                        return Err(RequestError::Malformed("header without colon".into()));
                    };
                    self.headers
                        .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                    return Ok(None);
                }
                // Blank line: headers are complete.
                if header_lookup(&self.headers, "transfer-encoding").is_some() {
                    return Err(RequestError::Malformed(
                        "chunked transfer encoding is not supported".into(),
                    ));
                }
                let content_length = match header_lookup(&self.headers, "content-length") {
                    None => 0,
                    Some(v) => v
                        .parse::<usize>()
                        .map_err(|_| RequestError::Malformed("bad content-length".into()))?,
                };
                // Enforce the limit from the declared length alone — the
                // body is neither allocated nor read when the client
                // announces too much.
                if content_length > self.max_body {
                    return Err(RequestError::BodyTooLarge(content_length));
                }
                if content_length == 0 {
                    return Ok(Some(self.finish()));
                }
                self.need = content_length;
                self.body = Vec::with_capacity(content_length);
                self.state = ParseState::Body;
                Ok(None)
            }
            ParseState::Body => unreachable!("body bytes are not line-parsed"),
        }
    }

    /// Builds the finished [`Request`] and resets the parser for the next
    /// message on the connection.
    fn finish(&mut self) -> Request {
        let target = std::mem::take(&mut self.target);
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, parse_query(q)),
            None => (target.as_str(), Vec::new()),
        };
        let request = Request {
            method: std::mem::take(&mut self.method),
            path: percent_decode(path),
            query,
            headers: std::mem::take(&mut self.headers),
            body: std::mem::take(&mut self.body),
            http10: self.http10,
        };
        self.state = ParseState::RequestLine;
        self.http10 = false;
        self.need = 0;
        self.started = false;
        request
    }
}

/// Reads one line (LF-terminated, CR stripped) with a length cap. EOF
/// before the terminator is a transport error, never a silently accepted
/// truncated line: a peer that dies mid-header must not have its partial
/// bytes parsed as a complete request.
fn read_line(reader: &mut impl BufRead) -> Result<String, RequestError> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                return Err(RequestError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                )));
            }
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(RequestError::Malformed("header line too long".into()));
                }
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| RequestError::Malformed("header line not UTF-8".into()))
}

/// Reads and parses one request from `reader`, enforcing `max_body`.
///
/// Takes the session's persistent `BufRead` (not the raw stream): under
/// keep-alive, bytes of the *next* request may already sit in the buffer,
/// so the reader must outlive any single call. This is a blocking loop
/// over [`RequestParser`]: it fills the reader's buffer, feeds the bytes
/// to the parser, and consumes exactly what the parser used — bytes past
/// the request's end stay buffered for the next call.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, RequestError> {
    let mut parser = RequestParser::new(max_body);
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(RequestError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-line",
            )));
        }
        let (consumed, parse) = parser.feed(buf);
        reader.consume(consumed);
        if let Parse::Request(request) = parse? {
            return Ok(request);
        }
    }
}

/// Decodes `name=value&…` with percent-decoding and `+` → space.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((n, v)) => (percent_decode(n), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Percent-decodes `s` (`%XX` → byte, `+` → space); invalid escapes pass
/// through literally, invalid UTF-8 is replaced.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        b @ b'0'..=b'9' => Some(b - b'0'),
        b @ b'a'..=b'f' => Some(b - b'a' + 10),
        b @ b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encodes `s` for use inside a query value: unreserved
/// characters (RFC 3986) and `/` stay literal, everything else becomes
/// `%XX`.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b'/' => {
                out.push(b as char);
            }
            b => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// The reason phrase for the status codes this service emits.
fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        _ => "Unknown",
    }
}

/// What the response says about the connection's future.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connection {
    /// `Connection: keep-alive` — the peer may send another request.
    KeepAlive,
    /// `Connection: close` — this response is the last on the socket.
    Close,
}

/// Writes a complete response with explicit `Content-Length` framing and
/// the given `Connection` disposition.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    connection: Connection,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {}\r\n",
        status_reason(status),
        body.len(),
        match connection {
            Connection::KeepAlive => "keep-alive",
            Connection::Close => "close",
        }
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // Small responses go out as one write (one segment, one syscall);
    // large ones are written head-then-body so megabyte batch bodies are
    // not copied wholesale. Both sides of a connection set TCP_NODELAY,
    // so the two-write path cannot stall in Nagle's buffer against the
    // peer's delayed ACK.
    if body.len() <= COALESCE_WRITE_MAX {
        let mut message = head.into_bytes();
        message.extend_from_slice(body);
        stream.write_all(&message)?;
    } else {
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
    }
    stream.flush()
}

/// A parsed client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// Whether the server will keep the connection open after this
    /// response.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| has_connection_token(v, "close"))
    }
}

/// Reads one `Content-Length`-framed response from `reader`. This is the
/// keep-alive-safe framing: it never reads to EOF, so the connection
/// stays usable for the next exchange.
pub fn read_client_response(reader: &mut impl BufRead) -> std::io::Result<ClientResponse> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let status_line = match read_line(reader) {
        Ok(line) => line,
        Err(RequestError::Io(e)) => return Err(e),
        Err(_) => return Err(bad("bad status line")),
    };
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader) {
            Ok(line) => line,
            Err(RequestError::Io(e)) => return Err(e),
            Err(_) => return Err(bad("bad header line")),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("header without colon"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match header_lookup(&headers, "content-length") {
        None => 0,
        Some(v) => v.parse::<usize>().map_err(|_| bad("bad content-length"))?,
    };
    if content_length > MAX_CLIENT_BODY {
        return Err(bad("response body exceeds the client limit"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// A persistent client connection: one socket carrying many
/// request/response exchanges. `oneq-top` and `perfbench`'s `serve`
/// workload each hold one; the integration tests drive interleaved
/// hit/miss sessions and a 1000-connection fleet through it.
pub struct ClientConn {
    reader: BufReader<TcpStream>,
    peer: SocketAddr,
}

impl ClientConn {
    /// Connects to `addr` with `timeout` applied to the connect and to
    /// every subsequent read and write.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<ClientConn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Request/response exchanges are latency-bound: never trade a
        // round trip for Nagle coalescing.
        stream.set_nodelay(true)?;
        Ok(ClientConn {
            reader: BufReader::new(stream),
            peer: addr,
        })
    }

    /// Sends one request and reads its response, leaving the connection
    /// open for the next exchange (the request advertises
    /// `Connection: keep-alive`). If the server replies
    /// `Connection: close` the socket is spent; callers reconnect.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        self.send_with(method, target, &[], body, Connection::KeepAlive)
    }

    fn send_with(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        connection: Connection,
    ) -> std::io::Result<ClientResponse> {
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\
             Connection: {}\r\n",
            self.peer,
            body.len(),
            match connection {
                Connection::KeepAlive => "keep-alive",
                Connection::Close => "close",
            }
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        // Same write-coalescing policy as `write_response`: one write
        // for small messages, head-then-body for large ones (the
        // connection has TCP_NODELAY, so two writes cannot stall).
        let stream = self.reader.get_mut();
        if body.len() <= COALESCE_WRITE_MAX {
            let mut message = head.into_bytes();
            message.extend_from_slice(body);
            stream.write_all(&message)?;
        } else {
            stream.write_all(head.as_bytes())?;
            stream.write_all(body)?;
        }
        stream.flush()?;
        read_client_response(&mut self.reader)
    }
}

/// One-shot HTTP client: opens a connection, sends `method target` with
/// `body` and `Connection: close`, reads the single response. Used by
/// `perfbench` and the integration tests.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut conn = ClientConn::connect(addr, timeout)?;
    conn.send_with(method, target, &[], body, Connection::Close)
}

/// [`request`] with extra request headers.
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let mut conn = ClientConn::connect(addr, timeout)?;
    conn.send_with(method, target, headers, body, Connection::Close)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn query_parsing_decodes() {
        let q = parse_query("file=a%2Fb.qasm&side=12&flag&x=1+2");
        assert_eq!(
            q,
            vec![
                ("file".into(), "a/b.qasm".into()),
                ("side".into(), "12".into()),
                ("flag".into(), String::new()),
                ("x".into(), "1 2".into()),
            ]
        );
    }

    #[test]
    fn percent_roundtrip() {
        let s = "tests/fixtures/qasm/bv-16.qasm with space&=%";
        assert_eq!(percent_decode(&percent_encode(s)), s);
        assert_eq!(percent_decode("%zz%4"), "%zz%4", "bad escapes pass through");
    }

    fn parse_raw_request(raw: &[u8], max_body: usize) -> Result<Request, RequestError> {
        let mut reader = std::io::BufReader::new(raw);
        read_request(&mut reader, max_body)
    }

    #[test]
    fn mixed_case_header_names_are_matched() {
        // RFC 9110 §5.1: field names are case-insensitive. A client that
        // spells `Content-LENGTH` or `CONNECTION` must be framed exactly
        // like a lowercase one.
        let raw =
            b"POST /v1/compile HTTP/1.1\r\nContent-LENGTH: 5\r\nCONNECTION: ClOsE\r\n\r\nhello";
        let req = parse_raw_request(raw, 1024).expect("parse mixed-case request");
        assert_eq!(req.body, b"hello");
        assert_eq!(req.header("content-length"), Some("5"));
        assert_eq!(req.header("Content-Length"), Some("5"), "lookup side too");
        assert!(!req.wants_keep_alive(), "ClOsE value token is recognized");
    }

    #[test]
    fn mixed_case_transfer_encoding_is_still_rejected() {
        let raw = b"POST /x HTTP/1.1\r\nTransfer-ENCODING: chunked\r\n\r\n";
        assert!(matches!(
            parse_raw_request(raw, 1024),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn connection_token_matching_is_case_insensitive_and_listwise() {
        assert!(has_connection_token("Keep-Alive", "keep-alive"));
        assert!(has_connection_token("close, KEEP-ALIVE", "keep-alive"));
        assert!(has_connection_token(" close ", "close"));
        assert!(!has_connection_token("keep-alive-ish", "keep-alive"));
        assert!(!has_connection_token("", "close"));
    }

    #[test]
    fn keep_alive_defaults_follow_the_http_version() {
        let req = |line: &str| {
            parse_raw_request(format!("GET / {line}\r\n\r\n").as_bytes(), 0).expect("parse")
        };
        assert!(
            req("HTTP/1.1").wants_keep_alive(),
            "1.1 defaults to keep-alive"
        );
        assert!(!req("HTTP/1.0").wants_keep_alive(), "1.0 defaults to close");
        let raw = b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(parse_raw_request(raw, 0).unwrap().wants_keep_alive());
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse_raw_request(raw, 0).unwrap().wants_keep_alive());
    }

    #[test]
    fn resumable_parser_survives_byte_at_a_time_delivery() {
        // The slow-loris arrival order: every byte in its own feed call.
        let raw = b"POST /v1/compile?file=a%20b.qasm HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = RequestParser::new(1024);
        for (i, byte) in raw.iter().enumerate() {
            let (consumed, parse) = parser.feed(std::slice::from_ref(byte));
            assert_eq!(consumed, 1);
            match parse.expect("no error mid-request") {
                Parse::NeedMore => {
                    assert!(i < raw.len() - 1, "request must complete on the last byte");
                    assert!(parser.mid_request());
                }
                Parse::Request(req) => {
                    assert_eq!(i, raw.len() - 1);
                    assert_eq!(req.method, "POST");
                    assert_eq!(req.path, "/v1/compile");
                    assert_eq!(req.query, [("file".to_string(), "a b.qasm".to_string())]);
                    assert_eq!(req.body, b"hello");
                    assert!(!parser.mid_request(), "parser reset after completion");
                }
            }
        }
    }

    #[test]
    fn resumable_parser_leaves_pipelined_bytes_unconsumed() {
        let raw = b"GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new(1024);
        let (consumed, parse) = parser.feed(raw);
        let Ok(Parse::Request(first)) = parse else {
            panic!("first request parses");
        };
        assert_eq!(first.path, "/v1/healthz");
        assert_eq!(consumed, 28, "stops exactly at the first request's end");
        let (rest, parse) = parser.feed(&raw[consumed..]);
        let Ok(Parse::Request(second)) = parse else {
            panic!("second request parses from the leftover bytes");
        };
        assert_eq!(second.path, "/v1/stats");
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn resumable_parser_reports_consumed_bytes_on_error() {
        // BodyTooLarge fires at the end of headers; the consumed count
        // must cover the full head so a caller draining the body knows
        // the stream position.
        let raw: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\nbody-bytes";
        let head_len = raw.len() - b"body-bytes".len();
        let mut parser = RequestParser::new(16);
        let (consumed, parse) = parser.feed(raw);
        assert!(matches!(parse, Err(RequestError::BodyTooLarge(9999))));
        assert_eq!(consumed, head_len, "exactly the head was consumed");
    }

    #[test]
    fn client_connections_turn_off_nagle() {
        // A small request held back by Nagle behind the server's delayed
        // ACK stalls each keep-alive exchange by about 40 ms.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn =
            ClientConn::connect(listener.local_addr().unwrap(), Duration::from_secs(5)).unwrap();
        assert!(conn.reader.get_ref().nodelay().unwrap());
    }

    #[test]
    fn oversized_content_length_rejects_before_reading_a_body_byte() {
        // The body bytes are NOT in the input: if the parser tried to
        // buffer the declared length it would hit EOF and report Io
        // instead of BodyTooLarge.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        match parse_raw_request(raw, 1024) {
            Err(RequestError::BodyTooLarge(n)) => assert_eq!(n, 99_999_999),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn client_response_parsing_is_content_length_framed() {
        // Trailing garbage after the framed body must NOT be consumed —
        // that is the property keep-alive depends on.
        let raw: &[u8] =
            b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-LENGTH: 2\r\nX-A: b\r\n\r\n{}NEXT";
        let mut reader = std::io::BufReader::new(raw);
        let resp = read_client_response(&mut reader).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.header("x-a"), Some("b"));
        assert_eq!(resp.header("X-A"), Some("b"));
        assert_eq!(resp.body, b"{}");
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut reader, &mut rest).unwrap();
        assert_eq!(rest, b"NEXT", "bytes after the body stay in the reader");
    }

    #[test]
    fn write_response_is_well_formed() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "application/json",
            &[("X-Oneqd-Cache", "hit".to_string())],
            b"{\"a\": 1}\n",
            Connection::KeepAlive,
        )
        .unwrap();
        let mut reader = std::io::BufReader::new(out.as_slice());
        let resp = read_client_response(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-length"), Some("9"));
        assert_eq!(resp.header("x-oneqd-cache"), Some("hit"));
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        assert!(resp.keep_alive());
        assert_eq!(resp.body, b"{\"a\": 1}\n");

        let mut out = Vec::new();
        write_response(
            &mut out,
            400,
            "application/json",
            &[],
            b"",
            Connection::Close,
        )
        .unwrap();
        let mut reader = std::io::BufReader::new(out.as_slice());
        assert!(!read_client_response(&mut reader).unwrap().keep_alive());
    }

    #[test]
    fn request_against_a_canned_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let req = read_request(&mut reader, 1024).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/compile");
            assert_eq!(req.query, [("file".to_string(), "a b.qasm".to_string())]);
            assert_eq!(req.body, b"hello");
            assert!(!req.wants_keep_alive(), "one-shot client sends close");
            write_response(
                reader.get_mut(),
                200,
                "text/plain",
                &[],
                b"ok",
                Connection::Close,
            )
            .unwrap();
        });
        let resp = request(
            addr,
            "POST",
            "/compile?file=a%20b.qasm",
            b"hello",
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok");
    }

    #[test]
    fn client_conn_carries_many_exchanges_on_one_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Exactly ONE accepted connection serves every request.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            for i in 0..3 {
                let req = read_request(&mut reader, 1024).unwrap();
                assert!(req.wants_keep_alive());
                let body = format!("echo-{i}:{}", String::from_utf8_lossy(&req.body));
                write_response(
                    reader.get_mut(),
                    200,
                    "text/plain",
                    &[],
                    body.as_bytes(),
                    Connection::KeepAlive,
                )
                .unwrap();
            }
        });
        let mut conn = ClientConn::connect(addr, Duration::from_secs(5)).unwrap();
        for i in 0..3 {
            let resp = conn
                .send("POST", "/echo", format!("req-{i}").as_bytes())
                .unwrap();
            assert_eq!(resp.status, 200);
            assert!(resp.keep_alive());
            assert_eq!(resp.body, format!("echo-{i}:req-{i}").into_bytes());
        }
        server.join().unwrap();
    }

    #[test]
    fn truncated_requests_are_io_errors_not_parsed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            match read_request(&mut reader, 1024) {
                Err(RequestError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                }
                other => panic!("expected Io(UnexpectedEof), got {other:?}"),
            }
        });
        {
            let mut client = TcpStream::connect(addr).unwrap();
            client
                .write_all(b"POST /compile HTTP/1.1\r\nContent-Le")
                .unwrap();
            // Dropping the stream closes the connection mid-header.
        }
        server.join().unwrap();
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            match read_request(&mut reader, 4) {
                Err(RequestError::BodyTooLarge(n)) => assert_eq!(n, 5),
                other => panic!("expected BodyTooLarge, got {other:?}"),
            }
        });
        let _ = request(addr, "POST", "/x", b"12345", Duration::from_secs(5));
        server.join().unwrap();
    }
}
