//! Per-connection state machine for the epoll event loop (DESIGN.md
//! §13).
//!
//! A [`Connection`] owns everything one client socket accumulates —
//! buffered inbound bytes, parsed-but-unanswered requests, and rendered
//! outbound bytes — and *nothing* about how readiness is discovered or
//! how requests are answered. It talks to the outside world through two
//! narrow seams:
//!
//! - bytes move through the [`ConnIo`] trait (implemented by
//!   `TcpStream` for the real loop and by a scripted fake in tests), so
//!   every transition — mid-header EOF, write backpressure, pipelined
//!   bursts, drain-during-in-flight — is unit-testable without sockets;
//! - answers arrive through [`Connection::complete`], keyed by the
//!   sequence number the request was surfaced with, so the scoring pool
//!   may finish out of order while the wire stays strictly in request
//!   order (HTTP/1.1 pipelining).
//!
//! Timeout policy: the anti-slow-loris deadline runs from the *first
//! byte of the current request*, not from the last read — a client
//! dribbling one byte per second never resets it. Idle keep-alive
//! connections (no partial request, nothing owed) are closed separately
//! after `keep_alive_timeout`.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use crate::http::{parse_request, render_response, HttpError, Parsed, Request};

/// How many bytes one readiness event may pull before yielding back to
/// the loop (a fairness bound, not a correctness one: level-triggered
/// epoll re-reports the socket while kernel-buffered bytes remain).
const READ_CHUNK: usize = 8 * 1024;
const MAX_READ_PER_EVENT: usize = 64 * 1024;
/// The `Connection` header lines [`render_response`] writes.
const KEEP_ALIVE: &[u8] = b"Connection: keep-alive\r\n";
const CLOSE: &[u8] = b"Connection: close\r\n";

/// Byte source/sink seam between the state machine and the socket.
/// `WouldBlock` means "no readiness left", `Ok(0)` from `read` means
/// peer EOF — exactly the `TcpStream` nonblocking contract.
pub trait ConnIo {
    /// Reads into `buf`; `Ok(0)` is EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes from `buf`, possibly partially.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
}

impl ConnIo for std::net::TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Write::write(self, buf)
    }
}

/// What a readable socket surfaced. The caller owes every surfaced
/// sequence number exactly one [`Connection::complete`] call.
#[derive(Debug)]
pub enum ConnEvent {
    /// A complete request, to be routed (on the worker pool or inline).
    Request {
        /// Pipeline position; pass back to `complete`.
        seq: u64,
        /// The parsed request.
        request: Request,
    },
    /// A fatal framing error (400/413): answer it, then the connection
    /// closes. Parsing stops — bytes after a framing error are garbage.
    BadRequest {
        /// Pipeline position; pass back to `complete`.
        seq: u64,
        /// What was wrong (drives the error reply's status).
        error: HttpError,
    },
}

/// What [`Connection::check_deadlines`] wants done.
#[derive(Debug, PartialEq, Eq)]
pub enum DeadlineAction {
    /// Nothing due.
    None,
    /// A partial request outlived the read deadline: answer `seq` with a
    /// 408 (via `complete`), after which the connection closes.
    Respond408 {
        /// Pipeline position reserved for the 408 reply.
        seq: u64,
    },
    /// An idle keep-alive connection outlived the idle timeout: close it
    /// silently (nothing is owed).
    CloseIdle,
}

/// One rendered-but-unframed response: everything `complete` needs to
/// put bytes on the wire except the `Connection` header, which the state
/// machine owns (it alone knows about drain and pipeline position).
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional headers (`X-Request-Id`, `X-Cache`).
    pub extra: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Force `Connection: close` regardless of pipeline position (error
    /// replies that poison the stream: 400/408/413).
    pub close: bool,
}

/// Read-interest and write-interest, for the caller to mirror into
/// `EPOLL_CTL_MOD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wants readability callbacks (stops at the pipeline cap —
    /// backpressure — and after close/EOF/framing errors).
    pub read: bool,
    /// Wants writability callbacks (only while flushed bytes remain).
    pub write: bool,
}

/// Per-connection state machine; `T` is an opaque per-response token
/// (the event loop threads observability state through it) returned by
/// [`Connection::complete`] in wire order.
#[derive(Debug)]
pub struct Connection<T> {
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Offset in `write_buf` of the newest rendered response's
    /// `Connection: keep-alive` header, while none of that header is on
    /// the wire yet: a drain that finds nothing else owed rewrites it to
    /// `close`.
    keep_alive_at: Option<usize>,
    /// Next sequence number to assign to a surfaced request.
    next_seq: u64,
    /// Next sequence number to flush onto the wire.
    flush_seq: u64,
    /// Completed-but-not-yet-flushable responses (out-of-order arrivals).
    pending: BTreeMap<u64, (Response, T)>,
    /// The sequence whose response must carry `Connection: close` (set
    /// by `Connection: close` requests, framing errors, and drain).
    close_seq: Option<u64>,
    /// Stop surfacing new requests (close requested, error, or drain).
    reading_stopped: bool,
    peer_eof: bool,
    /// The socket is done once the write buffer empties.
    close_after_flush: bool,
    /// Hard I/O failure: nothing more can be said to this peer.
    broken: bool,
    draining: bool,
    /// Nanos at which the current partial request started arriving.
    request_started: Option<u64>,
    /// Nanos of the last completed activity (for the idle timeout).
    idle_since: u64,
    /// Lifetime bytes pulled off the socket (wire bytes, including any
    /// discarded after a framing error — the registry reports traffic,
    /// not parse success).
    bytes_in: u64,
    /// Lifetime bytes pushed onto the socket.
    bytes_out: u64,
    max_body_bytes: usize,
    max_pipeline: usize,
}

impl<T> Connection<T> {
    /// A fresh connection accepted at `now` (clock nanos).
    pub fn new(now: u64, max_body_bytes: usize, max_pipeline: usize) -> Connection<T> {
        Connection {
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            keep_alive_at: None,
            next_seq: 0,
            flush_seq: 0,
            pending: BTreeMap::new(),
            close_seq: None,
            reading_stopped: false,
            peer_eof: false,
            close_after_flush: false,
            broken: false,
            draining: false,
            request_started: None,
            idle_since: now,
            bytes_in: 0,
            bytes_out: 0,
            max_body_bytes,
            max_pipeline: max_pipeline.max(1),
        }
    }

    /// Requests surfaced but not yet flushed to the wire.
    fn outstanding(&self) -> u64 {
        self.next_seq - self.flush_seq
    }

    /// Whether this connection has answered at least one request (the
    /// keep-alive reuse signal: any request with `seq > 0` reused it).
    pub fn requests_started(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime bytes read off the socket.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Lifetime bytes written to the socket.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Requests surfaced but not yet flushed to the wire — the live
    /// pipeline depth the connection registry reports.
    pub fn pipeline_depth(&self) -> u64 {
        self.outstanding()
    }

    /// Nanos of the last bytes read or response completed — where the
    /// idle timeout counts from.
    pub fn idle_since(&self) -> u64 {
        self.idle_since
    }

    /// Current epoll interest. `read` goes false under backpressure (the
    /// pipeline cap), after `Connection: close`, framing errors, EOF,
    /// and drain; `write` is true only while unflushed bytes remain.
    pub fn interest(&self) -> Interest {
        Interest {
            read: !self.reading_stopped
                && !self.peer_eof
                && !self.broken
                && self.outstanding() < self.max_pipeline as u64,
            write: self.write_pos < self.write_buf.len() && !self.broken,
        }
    }

    /// Whether the socket can be dropped: everything owed has been
    /// flushed and either a close was decided or the peer hung up (or
    /// the socket broke, in which case nothing more can be delivered).
    pub fn finished(&self) -> bool {
        if self.broken {
            return true;
        }
        let write_done = self.write_pos >= self.write_buf.len();
        let nothing_owed = self.outstanding() == 0 && self.pending.is_empty();
        (self.close_after_flush && write_done) || (self.peer_eof && write_done && nothing_owed)
    }

    /// Drains readiness from `io` and surfaces complete requests. Call on
    /// every `EPOLLIN`/`EPOLLRDHUP`; reads until `WouldBlock`, EOF, the
    /// per-event fairness bound, or the pipeline cap.
    pub fn on_readable(&mut self, io: &mut dyn ConnIo, now: u64) -> Vec<ConnEvent> {
        let mut chunk = [0u8; READ_CHUNK];
        let mut pulled = 0usize;
        while pulled < MAX_READ_PER_EVENT && !self.peer_eof && !self.broken {
            match io.read(&mut chunk) {
                Ok(0) => self.peer_eof = true,
                Ok(n) => {
                    pulled += n;
                    self.bytes_in += n as u64;
                    if self.reading_stopped {
                        // Poisoned or closing stream: discard the bytes
                        // (still draining the socket keeps level-triggered
                        // epoll from spinning on them).
                        continue;
                    }
                    if self.read_buf.is_empty() && self.request_started.is_none() {
                        self.request_started = Some(now);
                    }
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    self.idle_since = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    return Vec::new();
                }
            }
        }
        self.parse_buffered(now)
    }

    /// Surfaces complete requests already sitting in the read buffer.
    /// Also called by the loop after `complete` frees pipeline slots, so
    /// capped bursts resume without new socket readiness.
    pub fn parse_buffered(&mut self, now: u64) -> Vec<ConnEvent> {
        let mut events = Vec::new();
        while !self.reading_stopped && self.outstanding() < self.max_pipeline as u64 {
            if self.read_buf.is_empty() {
                self.request_started = None;
                break;
            }
            match parse_request(&self.read_buf, self.max_body_bytes) {
                Ok(Parsed::Complete { request, consumed }) => {
                    self.read_buf.drain(..consumed);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.request_started = if self.read_buf.is_empty() {
                        None
                    } else {
                        Some(now)
                    };
                    if !request.keep_alive {
                        self.stop_reading_at(seq);
                    }
                    events.push(ConnEvent::Request { seq, request });
                }
                Ok(Parsed::Partial) => break,
                Err(error) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.stop_reading_at(seq);
                    self.request_started = None;
                    events.push(ConnEvent::BadRequest { seq, error });
                    break;
                }
            }
        }
        events
    }

    /// No response after `seq` — stop parsing and close once it flushes.
    fn stop_reading_at(&mut self, seq: u64) {
        self.reading_stopped = true;
        self.read_buf.clear();
        self.close_seq = Some(self.close_seq.map_or(seq, |s| s.min(seq)));
    }

    /// Delivers the answer for `seq`. Responses are buffered until every
    /// earlier sequence has been answered, then flushed in request order
    /// (the HTTP/1.1 pipelining contract). Returns the tokens of the
    /// responses that just became wire bytes, in wire order — the
    /// caller's cue to run its per-response bookkeeping (`observe_reply`)
    /// in exactly the order the client sees.
    pub fn complete(&mut self, seq: u64, response: Response, token: T, now: u64) -> Vec<T> {
        debug_assert!(seq >= self.flush_seq && seq < self.next_seq, "unknown seq");
        self.pending.insert(seq, (response, token));
        let mut flushed = Vec::new();
        while let Some((response, token)) = self.pending.remove(&self.flush_seq) {
            let seq = self.flush_seq;
            self.flush_seq += 1;
            let close_here = response.close
                || self.close_seq == Some(seq)
                || (self.draining && self.outstanding() == 0 && self.pending.is_empty());
            let extra: Vec<(&str, &str)> = response
                .extra
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let rendered = render_response(
                response.status,
                response.content_type,
                &extra,
                &response.body,
                !close_here,
            );
            self.keep_alive_at = if close_here {
                None
            } else {
                rendered
                    .windows(KEEP_ALIVE.len())
                    .position(|w| w == KEEP_ALIVE)
                    .map(|at| self.write_buf.len() + at)
            };
            self.write_buf.extend_from_slice(&rendered);
            flushed.push(token);
            if close_here {
                self.close_after_flush = true;
                self.reading_stopped = true;
                // Anything completed later (can't happen with a sane
                // caller) would be after a close; drop it.
                self.pending.clear();
                break;
            }
        }
        self.idle_since = now;
        flushed
    }

    /// Pushes buffered bytes at the socket. Call on `EPOLLOUT` and after
    /// `complete` grew the buffer; stops at `WouldBlock` (backpressure).
    pub fn on_writable(&mut self, io: &mut dyn ConnIo) {
        while self.write_pos < self.write_buf.len() && !self.broken {
            match io.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.broken = true;
                }
                Ok(n) => {
                    self.write_pos += n;
                    self.bytes_out += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.broken = true,
            }
        }
        // A header partly on the wire can no longer be rewritten.
        if self.keep_alive_at.is_some_and(|at| self.write_pos > at) {
            self.keep_alive_at = None;
        }
        if self.write_pos >= self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > 64 * 1024 {
            // Reclaim the flushed prefix of a large, slowly-draining
            // buffer so it cannot grow monotonically.
            self.write_buf.drain(..self.write_pos);
            self.keep_alive_at = self.keep_alive_at.map(|at| at - self.write_pos);
            self.write_pos = 0;
        }
    }

    /// Enters drain: no new requests are surfaced; in-flight pipelined
    /// requests are still answered, and the final response carries
    /// `Connection: close` (the graceful-drain contract — the client
    /// learns the connection is ending instead of seeing a dropped
    /// socket). The `Connection` header is settled when a response's
    /// bytes reach the wire, not when it was completed: a final response
    /// still buffered behind a slow reader is rewritten to `close`. Idle
    /// connections close immediately.
    pub fn begin_drain(&mut self) {
        self.draining = true;
        self.reading_stopped = true;
        self.read_buf.clear();
        self.request_started = None;
        if self.outstanding() == 0 && self.pending.is_empty() {
            if let Some(at) = self.keep_alive_at.take() {
                self.write_buf
                    .splice(at..at + KEEP_ALIVE.len(), CLOSE.iter().copied());
            }
            self.close_after_flush = true;
        } else {
            let last = self.next_seq - 1;
            self.close_seq = Some(self.close_seq.map_or(last, |s| s.min(last)));
        }
    }

    /// Applies the timeout policy at `now`: a partial request older than
    /// `read_timeout` earns a 408 (slow-loris defence — the deadline runs
    /// from the request's first byte); a connection idle longer than
    /// `keep_alive_timeout` with nothing owed closes silently.
    pub fn check_deadlines(
        &mut self,
        now: u64,
        read_timeout_nanos: u64,
        keep_alive_timeout_nanos: u64,
    ) -> DeadlineAction {
        if self.broken || self.close_after_flush {
            return DeadlineAction::None;
        }
        if let Some(started) = self.request_started {
            if !self.reading_stopped && now.saturating_sub(started) >= read_timeout_nanos {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.stop_reading_at(seq);
                self.request_started = None;
                return DeadlineAction::Respond408 { seq };
            }
            return DeadlineAction::None;
        }
        let idle = self.outstanding() == 0
            && self.pending.is_empty()
            && self.write_pos >= self.write_buf.len();
        if idle && now.saturating_sub(self.idle_since) >= keep_alive_timeout_nanos {
            return DeadlineAction::CloseIdle;
        }
        DeadlineAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// One scripted answer to a `read` call.
    enum ReadStep {
        Data(Vec<u8>),
        WouldBlock,
        Eof,
        Reset,
    }

    /// A deterministic fake socket: reads follow the script, writes
    /// accept at most the next scripted capacity (unbounded when the
    /// capacity script runs dry) and land in `written`.
    struct ScriptIo {
        reads: VecDeque<ReadStep>,
        write_caps: VecDeque<usize>,
        written: Vec<u8>,
    }

    impl ScriptIo {
        fn new() -> ScriptIo {
            ScriptIo {
                reads: VecDeque::new(),
                write_caps: VecDeque::new(),
                written: Vec::new(),
            }
        }

        fn feed(mut self, bytes: &[u8]) -> Self {
            self.reads.push_back(ReadStep::Data(bytes.to_vec()));
            self
        }

        fn then_block(mut self) -> Self {
            self.reads.push_back(ReadStep::WouldBlock);
            self
        }

        fn then_eof(mut self) -> Self {
            self.reads.push_back(ReadStep::Eof);
            self
        }

        fn text(&self) -> String {
            String::from_utf8_lossy(&self.written).into_owned()
        }
    }

    impl ConnIo for ScriptIo {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                None | Some(ReadStep::WouldBlock) => {
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "no readiness"))
                }
                Some(ReadStep::Eof) => Ok(0),
                Some(ReadStep::Reset) => {
                    Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset"))
                }
                Some(ReadStep::Data(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.reads.push_front(ReadStep::Data(bytes[n..].to_vec()));
                    }
                    Ok(n)
                }
            }
        }

        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let cap = self.write_caps.pop_front().unwrap_or(usize::MAX);
            if cap == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "send buffer full",
                ));
            }
            let n = buf.len().min(cap);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
    }

    fn conn() -> Connection<&'static str> {
        Connection::new(0, 1 << 20, 32)
    }

    fn ok_response(tag: &str) -> Response {
        Response {
            status: 200,
            content_type: "text/plain",
            extra: vec![("X-Request-Id".to_string(), tag.to_string())],
            body: format!("tag {tag}").into_bytes(),
            close: false,
        }
    }

    fn only_request(events: Vec<ConnEvent>) -> (u64, Request) {
        assert_eq!(events.len(), 1, "{events:?}");
        match events.into_iter().next().unwrap() {
            ConnEvent::Request { seq, request } => (seq, request),
            other => panic!("expected Request, got {other:?}"),
        }
    }

    #[test]
    fn single_request_roundtrip_keeps_alive() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /healthz HTTP/1.1\r\n\r\n")
            .then_block();
        let (seq, request) = only_request(c.on_readable(&mut io, 0));
        assert_eq!(seq, 0);
        assert_eq!(request.path, "/healthz");
        assert!(c.interest().read, "still reading");
        assert!(!c.interest().write, "nothing rendered yet");
        let flushed = c.complete(0, ok_response("a"), "tok-a", 1);
        assert_eq!(flushed, vec!["tok-a"]);
        assert!(c.interest().write);
        c.on_writable(&mut io);
        let text = io.text();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("X-Request-Id: a\r\n"), "{text}");
        assert!(!c.finished(), "keep-alive connection stays open");
        assert!(c.interest().read, "ready for the next request");
    }

    #[test]
    fn pipelined_responses_flush_in_request_order_despite_ooo_completion() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n")
            .then_block();
        let events = c.on_readable(&mut io, 0);
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                ConnEvent::Request { seq, .. } => *seq,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        // Workers finish out of order: 2 first, then 0, then 1.
        assert!(c.complete(2, ok_response("c"), "c", 1).is_empty());
        assert_eq!(c.complete(0, ok_response("a"), "a", 2), vec!["a"]);
        assert_eq!(c.complete(1, ok_response("b"), "b", 3), vec!["b", "c"]);
        c.on_writable(&mut io);
        let text = io.text();
        let (pa, pb, pc) = (
            text.find("X-Request-Id: a").unwrap(),
            text.find("X-Request-Id: b").unwrap(),
            text.find("X-Request-Id: c").unwrap(),
        );
        assert!(pa < pb && pb < pc, "wire order is request order: {text}");
        assert!(!c.finished());
    }

    #[test]
    fn connection_close_request_closes_after_flush() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\nGET /ignored HTTP/1.1\r\n\r\n")
            .then_block();
        let (seq, request) = only_request(c.on_readable(&mut io, 0));
        assert!(!request.keep_alive);
        assert!(!c.interest().read, "no parsing past a close request");
        c.complete(seq, ok_response("a"), "a", 1);
        c.on_writable(&mut io);
        assert!(io.text().contains("Connection: close\r\n"), "{}", io.text());
        assert!(c.finished());
    }

    #[test]
    fn mid_header_eof_closes_without_response() {
        let mut c = conn();
        let mut io = ScriptIo::new().feed(b"GET /a HTT").then_eof();
        let events = c.on_readable(&mut io, 0);
        assert!(events.is_empty(), "{events:?}");
        assert!(c.finished(), "nothing owed, peer gone");
        assert!(io.written.is_empty());
    }

    #[test]
    fn eof_after_complete_request_still_answers_then_closes() {
        // Half-close: the client sent its request and shut down its write
        // side; the response must still be delivered.
        let mut c = conn();
        let mut io = ScriptIo::new().feed(b"GET /a HTTP/1.1\r\n\r\n").then_eof();
        let (seq, _) = only_request(c.on_readable(&mut io, 0));
        assert!(!c.finished(), "response still owed");
        c.complete(seq, ok_response("a"), "a", 1);
        assert!(!c.finished(), "bytes still buffered");
        c.on_writable(&mut io);
        assert!(io.text().contains("X-Request-Id: a"), "{}", io.text());
        assert!(c.finished());
    }

    #[test]
    fn framing_error_surfaces_bad_request_and_poisons_the_stream() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"BOGUS\r\n\r\nGET /after HTTP/1.1\r\n\r\n")
            .then_block();
        let events = c.on_readable(&mut io, 0);
        assert_eq!(events.len(), 1, "{events:?}");
        let seq = match &events[0] {
            ConnEvent::BadRequest { seq, error } => {
                assert!(matches!(error, HttpError::Malformed(_)), "{error:?}");
                *seq
            }
            other => panic!("{other:?}"),
        };
        assert!(!c.interest().read, "stream is poisoned");
        let mut reply = ok_response("err");
        reply.status = 400;
        reply.close = true;
        c.complete(seq, reply, "err", 1);
        c.on_writable(&mut io);
        let text = io.text();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(c.finished());
    }

    #[test]
    fn oversized_body_surfaces_bad_request() {
        let mut c: Connection<()> = Connection::new(0, 16, 32);
        let mut io = ScriptIo::new()
            .feed(b"POST /suggest HTTP/1.1\r\nContent-Length: 999\r\n\r\n")
            .then_block();
        let events = c.on_readable(&mut io, 0);
        assert!(
            matches!(
                events.as_slice(),
                [ConnEvent::BadRequest {
                    error: HttpError::BodyTooLarge { .. },
                    ..
                }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn write_backpressure_flushes_across_multiple_writable_events() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\n")
            .then_block();
        let (seq, _) = only_request(c.on_readable(&mut io, 0));
        c.complete(seq, ok_response("a"), "a", 1);
        // The kernel accepts 7 bytes, then blocks, then 11, then the rest.
        io.write_caps = VecDeque::from([7, 0, 11, 0, usize::MAX]);
        c.on_writable(&mut io);
        assert_eq!(io.written.len(), 7);
        assert!(c.interest().write, "partial write leaves write interest");
        assert!(!c.finished());
        c.on_writable(&mut io);
        assert_eq!(io.written.len(), 18);
        assert!(c.interest().write);
        c.on_writable(&mut io);
        assert!(!c.interest().write, "fully flushed");
        assert!(io.text().starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(!c.finished(), "keep-alive survives backpressure");
    }

    #[test]
    fn pipeline_cap_pauses_reading_and_resumes_after_completion() {
        let mut c: Connection<&str> = Connection::new(0, 1 << 20, 2);
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n")
            .then_block();
        let events = c.on_readable(&mut io, 0);
        assert_eq!(events.len(), 2, "third request held back: {events:?}");
        assert!(!c.interest().read, "backpressure: pipeline is full");
        c.complete(0, ok_response("a"), "a", 1);
        assert!(c.interest().read, "slot freed");
        let (seq, request) = only_request(c.parse_buffered(1));
        assert_eq!(seq, 2);
        assert_eq!(request.path, "/c");
    }

    #[test]
    fn slow_loris_deadline_runs_from_first_byte() {
        let mut c = conn();
        let second = 1_000_000_000u64;
        // One byte per "second"; the header never completes.
        let mut now = 0;
        for (i, byte) in b"GET /a HTTP/1.1\r".iter().enumerate() {
            now = i as u64 * second;
            let mut io = ScriptIo::new().feed(&[*byte]).then_block();
            assert!(c.on_readable(&mut io, now).is_empty());
            // Trickling bytes must NOT reset the deadline…
            if now < 5 * second {
                assert_eq!(
                    c.check_deadlines(now, 5 * second, 60 * second),
                    DeadlineAction::None
                );
            }
        }
        // …so by +5s from the FIRST byte the request has timed out.
        let action = c.check_deadlines(5 * second, 5 * second, 60 * second);
        let DeadlineAction::Respond408 { seq } = action else {
            panic!("expected 408 at {now}, got {action:?}");
        };
        let mut reply = ok_response("t");
        reply.status = 408;
        reply.close = true;
        c.complete(seq, reply, "t", now);
        let mut io = ScriptIo::new();
        c.on_writable(&mut io);
        let text = io.text();
        assert!(
            text.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{text}"
        );
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(c.finished());
    }

    #[test]
    fn idle_keep_alive_connection_times_out_silently() {
        let mut c = conn();
        let second = 1_000_000_000u64;
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\n")
            .then_block();
        let (seq, _) = only_request(c.on_readable(&mut io, 0));
        c.complete(seq, ok_response("a"), "a", second);
        c.on_writable(&mut io);
        // Not idle-closed while a response was pending, and not yet at
        // the idle horizon afterwards.
        assert_eq!(
            c.check_deadlines(30 * second, 5 * second, 60 * second),
            DeadlineAction::None
        );
        assert_eq!(
            c.check_deadlines(61 * second, 5 * second, 60 * second),
            DeadlineAction::CloseIdle
        );
    }

    #[test]
    fn in_flight_request_is_not_idle_closed() {
        let mut c = conn();
        let second = 1_000_000_000u64;
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\n")
            .then_block();
        let _ = only_request(c.on_readable(&mut io, 0));
        // Response not yet completed: the connection is waiting on US,
        // not on the client — never idle-close it.
        assert_eq!(
            c.check_deadlines(600 * second, 5 * second, 60 * second),
            DeadlineAction::None
        );
    }

    #[test]
    fn drain_during_in_flight_answers_everything_and_closes_marked() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .then_block();
        let events = c.on_readable(&mut io, 0);
        assert_eq!(events.len(), 2);
        c.begin_drain();
        assert!(!c.interest().read, "drain stops new requests");
        assert!(!c.finished(), "in-flight work still owed");
        c.complete(0, ok_response("a"), "a", 1);
        c.complete(1, ok_response("b"), "b", 2);
        c.on_writable(&mut io);
        let text = io.text();
        let second_start = text.rfind("HTTP/1.1 200 OK").unwrap();
        let first = &text[..second_start];
        assert!(
            first.contains("Connection: keep-alive\r\n"),
            "non-final response unchanged: {text}"
        );
        let last = &text[second_start..];
        assert!(last.contains("X-Request-Id: b\r\n"), "{text}");
        assert!(
            last.contains("Connection: close\r\n"),
            "final response announces the close: {text}"
        );
        assert!(c.finished());
    }

    /// A final response completed before the drain but still held in
    /// the write buffer (the peer reads slowly) must go out `close`.
    #[test]
    fn drain_rewrites_a_held_final_response_to_close() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .then_block();
        assert_eq!(c.on_readable(&mut io, 0).len(), 2);
        c.complete(0, ok_response("a"), "a", 1);
        c.complete(1, ok_response("b"), "b", 1);
        // The socket takes part of the first response, then blocks.
        io.write_caps = VecDeque::from([20, 0]);
        c.on_writable(&mut io);
        c.begin_drain();
        c.on_writable(&mut io);
        let text = io.text();
        let second = text.rfind("HTTP/1.1 200 OK").unwrap();
        assert!(
            text[..second].contains("Connection: keep-alive\r\n"),
            "{text}"
        );
        assert!(text[second..].contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("tag b"), "body intact: {text}");
        assert!(c.finished());
    }

    /// A header already partly on the wire cannot change: the response
    /// keeps its bytes and the socket still closes after it.
    #[test]
    fn drain_leaves_a_partly_written_header_alone() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\n")
            .then_block();
        let (seq, _) = only_request(c.on_readable(&mut io, 0));
        c.complete(seq, ok_response("a"), "a", 1);
        let head_end = io.written.len() + 80;
        io.write_caps = VecDeque::from([head_end, 0]);
        c.on_writable(&mut io);
        assert!(io.text().contains("Connection: k"), "{}", io.text());
        c.begin_drain();
        c.on_writable(&mut io);
        let text = io.text();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("tag a"), "{text}");
        assert!(c.finished());
    }

    #[test]
    fn drain_of_idle_connection_finishes_immediately() {
        let mut c = conn();
        c.begin_drain();
        assert!(c.finished());
        // Drain with only a partially-flushed response: flush, then done.
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\n")
            .then_block();
        let (seq, _) = only_request(c.on_readable(&mut io, 0));
        c.complete(seq, ok_response("a"), "a", 1);
        io.write_caps = VecDeque::from([5, 0]);
        c.on_writable(&mut io);
        c.begin_drain();
        assert!(!c.finished(), "unflushed bytes remain");
        c.on_writable(&mut io);
        assert!(c.finished());
    }

    #[test]
    fn read_error_breaks_the_connection() {
        let mut c = conn();
        let mut io = ScriptIo::new();
        io.reads.push_back(ReadStep::Reset);
        assert!(c.on_readable(&mut io, 0).is_empty());
        assert!(c.finished(), "reset peer is unanswerable");
        assert!(!c.interest().read);
        assert!(!c.interest().write);
    }

    #[test]
    fn requests_started_counts_pipeline_positions() {
        let mut c = conn();
        let mut io = ScriptIo::new()
            .feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .then_block();
        assert_eq!(c.requests_started(), 0);
        let events = c.on_readable(&mut io, 0);
        assert_eq!(events.len(), 2);
        assert_eq!(c.requests_started(), 2);
    }
}
