//! Per-connection state for the readiness-driven server core.
//!
//! A [`Conn`] owns one nonblocking accepted socket plus everything the
//! event loop needs to run it without ever blocking: a resumable
//! [`RequestParser`] fed by incremental
//! reads, a buffer of pipelined bytes that arrived past a request's
//! end, a response write buffer flushed as the socket accepts bytes,
//! and a per-state deadline. The state machine is:
//!
//! ```text
//!  Idle ──first byte──▶ Reading ──complete request──▶ Dispatched
//!   ▲                    │    │                           │
//!   │      (parse error) │    └─413─▶ Draining            │ worker done
//!   │                    │              │ budget/EOF      │
//!   │                    ▼              ▼                 ▼
//!   └──keep-alive────── Writing ◀───────┴─────────────────┘
//!                          │
//!                          └──error, 413 or Connection: close──▶ close
//! ```
//!
//! The loop in `server.rs` drives the transitions; this module supplies
//! the nonblocking I/O steps ([`Conn::fill`], [`Conn::flush`],
//! [`Conn::drain_step`]) and holds the bookkeeping. Deadlines are the
//! slow-loris defense: a request gets one fixed budget from its first
//! byte to its last, so a client trickling one byte per second costs a
//! file descriptor for that budget — never a thread, and never longer.

use crate::http::{Parse, Request, RequestError, RequestParser};
use crate::telemetry::PendingTrace;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Bytes read from the socket per `read` call while filling.
const READ_CHUNK: usize = 16 * 1024;
/// Cap on bytes consumed from one socket per [`Conn::fill`] call, so a
/// firehose client cannot starve the rest of the poll set.
const FILL_CAP: usize = 256 * 1024;

/// Where a connection is in its request/response cycle. The stats
/// endpoint exposes a gauge per state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Between requests on a keep-alive session (or freshly accepted):
    /// no byte of the next request has arrived.
    Idle,
    /// Mid-request: some bytes consumed, message not yet complete.
    Reading,
    /// A complete request is with the worker pool; the loop is waiting
    /// for its completion to come back over the channel.
    Dispatched,
    /// A response is buffered and being flushed as the socket drains.
    Writing,
    /// A 413 is queued for an oversized request; the remainder of the
    /// client's body is discarded (bounded) before the response is
    /// written and the connection closes, so the close does not race the
    /// client's own write and clobber the response.
    Draining,
}

/// What a [`Conn::fill`] call produced.
#[derive(Debug)]
pub enum FillOutcome {
    /// One complete request was assembled; leftover bytes (the next
    /// pipelined request, if any) stay buffered on the connection.
    Request(Request),
    /// The socket is drained for now and the request is still
    /// incomplete; poll for more.
    NeedMore,
    /// The peer closed its end. Whether that is a clean session end or
    /// a mid-request abort is [`Conn::mid_request`]'s call.
    Closed,
}

/// One accepted connection owned by the event loop.
pub struct Conn {
    stream: TcpStream,
    id: u64,
    state: ConnState,
    deadline: Option<Instant>,
    parser: RequestParser,
    /// Bytes received past the end of the last parsed request.
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    served: usize,
    close_after_write: bool,
    drain_budget: usize,
    /// When the first byte of the in-flight request arrived — the origin
    /// of the request's trace timeline. Cleared when the request parses.
    read_started: Option<Instant>,
    /// The request's trace, carried across the response flush so the
    /// loop can close it (append the `write` span) on the last byte.
    trace: Option<PendingTrace>,
}

impl Conn {
    /// Takes ownership of an accepted stream, switching it to
    /// nonblocking mode with `TCP_NODELAY` (responses leave in full
    /// writes; never trade a round trip for Nagle coalescing).
    pub fn new(stream: TcpStream, id: u64, max_body: usize) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            id,
            state: ConnState::Idle,
            deadline: None,
            parser: RequestParser::new(max_body),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            served: 0,
            close_after_write: false,
            drain_budget: 0,
            read_started: None,
            trace: None,
        })
    }

    /// The loop-assigned connection id; completions coming back from
    /// workers are matched against it so a recycled slot cannot receive
    /// a stale response.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Moves the connection to `state`.
    pub fn set_state(&mut self, state: ConnState) {
        self.state = state;
    }

    /// The instant after which the current state has taken too long.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Arms (or clears) the state deadline.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Raw fd for the poll set.
    pub fn fd(&self) -> i32 {
        std::os::fd::AsRawFd::as_raw_fd(&self.stream)
    }

    /// Requests served on this connection so far (the keep-alive cap
    /// compares against this).
    pub fn served(&self) -> usize {
        self.served
    }

    /// Records one served request.
    pub fn mark_served(&mut self) {
        self.served += 1;
    }

    /// Whether the parser holds a partially assembled request —
    /// distinguishes an idle keep-alive close (normal) from a peer that
    /// died mid-message.
    pub fn mid_request(&self) -> bool {
        self.parser.mid_request() || !self.inbuf.is_empty()
    }

    /// Whether the connection must close once the buffered response has
    /// been flushed.
    pub fn close_after_write(&self) -> bool {
        self.close_after_write
    }

    /// Takes the in-flight request's first-byte instant (stamped by
    /// [`Conn::fill`]), resetting it for the next request. Called once
    /// per parsed request to anchor its trace timeline.
    pub fn take_read_start(&mut self) -> Option<Instant> {
        self.read_started.take()
    }

    /// Attaches the request's trace to ride along until the response
    /// flush completes.
    pub fn set_trace(&mut self, trace: PendingTrace) {
        self.trace = Some(trace);
    }

    /// Detaches the trace (at flush completion, or on close so an
    /// aborted connection does not leak a half-open trace).
    pub fn take_trace(&mut self) -> Option<PendingTrace> {
        self.trace.take()
    }

    /// Reads whatever the socket has (bounded per call for fairness
    /// across connections) and advances the parser. Buffered pipelined
    /// bytes are consumed before the socket is touched, so a call with
    /// leftovers makes progress even if the socket is quiet.
    pub fn fill(&mut self) -> Result<FillOutcome, RequestError> {
        // First finish any bytes already in hand.
        if !self.inbuf.is_empty() {
            if self.read_started.is_none() {
                self.read_started = Some(Instant::now());
            }
            let buffered = std::mem::take(&mut self.inbuf);
            let (consumed, parse) = self.parser.feed(&buffered);
            self.inbuf = buffered[consumed..].to_vec();
            match parse? {
                Parse::Request(request) => return Ok(FillOutcome::Request(request)),
                Parse::NeedMore => debug_assert!(self.inbuf.is_empty()),
            }
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut taken = 0;
        while taken < FILL_CAP {
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(FillOutcome::Closed),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FillOutcome::NeedMore);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(RequestError::Io(e)),
            };
            taken += n;
            if self.read_started.is_none() {
                self.read_started = Some(Instant::now());
            }
            let (consumed, parse) = self.parser.feed(&chunk[..n]);
            if consumed < n {
                self.inbuf.extend_from_slice(&chunk[consumed..n]);
            }
            match parse? {
                Parse::Request(request) => return Ok(FillOutcome::Request(request)),
                Parse::NeedMore => {}
            }
        }
        Ok(FillOutcome::NeedMore)
    }

    /// Queues a fully rendered response for nonblocking write-out and
    /// records whether the connection closes after it.
    pub fn queue_response(&mut self, bytes: Vec<u8>, close_after: bool) {
        debug_assert!(
            self.outpos == self.outbuf.len(),
            "previous response flushed"
        );
        self.outbuf = bytes;
        self.outpos = 0;
        self.close_after_write = close_after;
    }

    /// Writes as much of the buffered response as the socket accepts.
    /// `Ok(true)` once the buffer is fully flushed.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outbuf = Vec::new();
        self.outpos = 0;
        Ok(true)
    }

    /// Enters the lingering-close drain: up to `budget` bytes of the
    /// peer's in-flight body will be read and discarded before the
    /// queued response is written and the socket closes. Bytes already
    /// buffered count against the budget immediately.
    pub fn begin_drain(&mut self, budget: usize) {
        let buffered = self.inbuf.len().min(budget);
        self.drain_budget = budget - buffered;
        self.inbuf = Vec::new();
        self.state = ConnState::Draining;
    }

    /// One nonblocking drain step: discards available bytes against the
    /// budget. `Ok(true)` when the drain is finished (budget spent or
    /// peer closed) and the connection should be dropped.
    pub fn drain_step(&mut self) -> io::Result<bool> {
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            if self.drain_budget == 0 {
                return Ok(true);
            }
            let want = scratch.len().min(self.drain_budget);
            match self.stream.read(&mut scratch[..want]) {
                Ok(0) => return Ok(true),
                Ok(n) => self.drain_budget -= n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The peer reset mid-drain: the lingering close was for
                // its benefit, so its departure simply ends the drain.
                Err(_) => return Ok(true),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A connected (client, server-side Conn) pair over loopback.
    fn pair(max_body: usize) -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (client, Conn::new(accepted, 7, max_body).unwrap())
    }

    /// Polls `fill` until the bytes written by the test have certainly
    /// arrived (loopback delivery is fast but not synchronous).
    fn fill_until_progress(conn: &mut Conn) -> FillOutcome {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match conn.fill().expect("fill") {
                FillOutcome::NeedMore if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                outcome => return outcome,
            }
        }
    }

    #[test]
    fn accepted_streams_turn_off_nagle() {
        // A small response held back by Nagle behind the client's delayed
        // ACK stalls each keep-alive exchange by about 40 ms.
        let (_client, conn) = pair(1024);
        assert!(conn.stream.nodelay().unwrap());
    }

    #[test]
    fn fill_assembles_a_request_delivered_in_pieces() {
        let (mut client, mut conn) = pair(1024);
        client
            .write_all(b"POST /v1/compile HTTP/1.1\r\nConte")
            .unwrap();
        // Nothing complete yet; fill must report NeedMore, not block.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(conn.fill().unwrap(), FillOutcome::NeedMore));
        assert!(conn.mid_request());
        client.write_all(b"nt-Length: 4\r\n\r\nwxyz").unwrap();
        match fill_until_progress(&mut conn) {
            FillOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.body, b"wxyz");
            }
            other => panic!("expected a request, got {other:?}"),
        }
        assert!(!conn.mid_request());
    }

    #[test]
    fn pipelined_requests_come_out_one_per_fill() {
        let (mut client, mut conn) = pair(1024);
        client
            .write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n")
            .unwrap();
        let first = match fill_until_progress(&mut conn) {
            FillOutcome::Request(req) => req,
            other => panic!("expected first request, got {other:?}"),
        };
        assert_eq!(first.path, "/v1/healthz");
        assert!(conn.mid_request(), "second request is buffered");
        // The second request parses from the buffer alone — no socket
        // readiness involved.
        let second = match conn.fill().expect("fill from buffer") {
            FillOutcome::Request(req) => req,
            other => panic!("expected second request, got {other:?}"),
        };
        assert_eq!(second.path, "/v1/stats");
    }

    #[test]
    fn peer_close_is_reported_not_an_error() {
        let (client, mut conn) = pair(1024);
        drop(client);
        match fill_until_progress(&mut conn) {
            FillOutcome::Closed => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        assert!(!conn.mid_request(), "clean close between requests");
    }

    #[test]
    fn flush_rides_out_a_full_socket_buffer() {
        let (mut client, mut conn) = pair(1024);
        // Far larger than loopback's send+receive buffering, so the
        // first flush attempts must hit WouldBlock while the client is
        // not reading.
        let response = vec![0x5A_u8; 16 * 1024 * 1024];
        conn.queue_response(response.clone(), true);
        assert!(conn.close_after_write());
        let mut saw_partial = false;
        let mut received = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match conn.flush().expect("flush") {
                true => break,
                false => saw_partial = true,
            }
            // Let the client drain so the flush can continue.
            let n = client.read(&mut chunk).unwrap();
            received.extend_from_slice(&chunk[..n]);
        }
        assert!(saw_partial, "a 16MiB response cannot flush in one write");
        // Collect the remainder after the final flush.
        conn_drop_and_read_rest(conn, &mut client, &mut received);
        assert_eq!(received.len(), response.len());
        assert!(received == response, "bytes arrive intact and in order");
    }

    fn conn_drop_and_read_rest(conn: Conn, client: &mut TcpStream, out: &mut Vec<u8>) {
        drop(conn);
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match client.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read remainder: {e}"),
            }
        }
    }

    #[test]
    fn drain_discards_a_bounded_remainder() {
        let (mut client, mut conn) = pair(16);
        // An oversized declaration followed by a body the server will
        // never parse.
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n")
            .unwrap();
        let err = loop {
            match conn.fill() {
                Err(e) => break e,
                Ok(FillOutcome::NeedMore) => {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                }
                Ok(other) => panic!("expected BodyTooLarge, got {other:?}"),
            }
        };
        assert!(matches!(err, RequestError::BodyTooLarge(64)));
        conn.begin_drain(64);
        assert_eq!(conn.state(), ConnState::Draining);
        client.write_all(&[0u8; 64]).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if conn.drain_step().expect("drain step") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "drain never finished");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}
