//! Property tests for the one HTTP framer (`http::parse_request`) and
//! the connection state machine that drives it (ROADMAP E.3): whatever
//! bytes arrive, and however the kernel happens to slice them into
//! reads, the framer neither panics nor over-consumes, and the
//! connection surfaces the same requests and framing errors.

use proptest::prelude::*;
use xclean_server::conn::{ConnEvent, ConnIo, Connection};
use xclean_server::http::{parse_request, Parsed};

/// Small enough that generated bodies land on both sides of the 413 bound.
const MAX_BODY: usize = 32;
/// Above the generated request count, so backpressure never hides events.
const MAX_PIPELINE: usize = 32;

const METHODS: [&str; 4] = ["GET", "POST", "DELETE", "PUT"];
const TARGETS: [&str; 4] = [
    "/suggest?q=helth+insurance",
    "/healthz",
    "/suggest/dblp",
    "/",
];
const HEADERS: [&str; 5] = [
    "Host: t",
    "X-Request-Id: abc-123",
    "Accept: */*",
    "Connection: keep-alive",
    "Connection: close",
];

/// A pipelined stream of well-formed requests, one per `(kind, headers,
/// body_len)` triple; odd kinds end their lines with a bare `\n`.
fn valid_stream(shapes: &[(usize, usize, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(kind, headers, body_len) in shapes {
        let eol = if kind % 2 == 0 { "\r\n" } else { "\n" };
        let mut head = format!("{} {} HTTP/1.1{eol}", METHODS[kind % 4], TARGETS[kind / 4]);
        for h in &HEADERS[..headers] {
            head.push_str(h);
            head.push_str(eol);
        }
        if body_len > 0 {
            head.push_str(&format!("Content-Length: {body_len}{eol}"));
        }
        head.push_str(eol);
        out.extend_from_slice(head.as_bytes());
        out.resize(out.len() + body_len, b'x');
    }
    out
}

/// Applies `(kind, position, byte)` edits: overwrite, insert, delete,
/// truncate, or splice in a run long enough to overflow the head bound.
fn mutate(stream: &mut Vec<u8>, mutations: &[(usize, usize, u8)]) {
    for &(kind, pos, byte) in mutations {
        let at = pos % (stream.len() + 1);
        match kind {
            0 if at < stream.len() => stream[at] = byte,
            1 => stream.insert(at, byte),
            2 if at < stream.len() => {
                stream.remove(at);
            }
            3 => stream.truncate(at),
            4 => {
                stream.splice(at..at, vec![byte; 17 * 1024]);
            }
            _ => {}
        }
    }
}

/// Splits `stream` into reads of the given lengths; what the lengths do
/// not cover arrives as one last read.
fn chunked<'a>(stream: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut rest = stream;
    for &cut in cuts {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(cut.min(rest.len()));
        chunks.push(chunk);
        rest = tail;
    }
    if !rest.is_empty() {
        chunks.push(rest);
    }
    chunks
}

/// Walks `bytes` the way the connection does — parse, drain, parse again
/// — checking the framer's bounds at every step.
fn check_framer_bounds(bytes: &[u8]) -> Result<(), String> {
    let mut rest = bytes;
    while !rest.is_empty() {
        match parse_request(rest, MAX_BODY) {
            Ok(Parsed::Complete { request, consumed }) => {
                prop_assert!(consumed > 0, "a request occupies bytes");
                prop_assert!(
                    consumed <= rest.len(),
                    "consumed {consumed} of a {}-byte buffer",
                    rest.len()
                );
                prop_assert!(request.body.len() <= MAX_BODY);
                rest = &rest[consumed..];
            }
            Ok(Parsed::Partial) | Err(_) => break,
        }
    }
    Ok(())
}

/// A socket with exactly one read's worth of bytes ready.
struct OneRead<'a>(&'a [u8]);

impl ConnIo for OneRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.0.is_empty() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = self.0.len().min(buf.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
}

/// Every event the connection surfaces when `reads` arrive one readiness
/// notification at a time.
fn events_for(reads: &[&[u8]]) -> Vec<String> {
    let mut conn: Connection<()> = Connection::new(0, MAX_BODY, MAX_PIPELINE);
    let mut events = Vec::new();
    for (now, read) in reads.iter().enumerate() {
        let surfaced: Vec<ConnEvent> = conn.on_readable(&mut OneRead(read), now as u64);
        events.extend(surfaced.iter().map(|e| format!("{e:?}")));
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_over_consume(
        bytes in proptest::collection::vec(0u8..=255u8, 0..600),
        cuts in proptest::collection::vec(1usize..64, 0..12),
    ) {
        check_framer_bounds(&bytes)?;
        let whole = events_for(&[&bytes]);
        prop_assert_eq!(events_for(&chunked(&bytes, &cuts)), whole);
    }

    #[test]
    fn mutated_requests_frame_the_same_however_they_are_chunked(
        shapes in proptest::collection::vec((0usize..16, 0usize..6, 0usize..48), 1..5),
        mutations in proptest::collection::vec((0usize..5, 0usize..1 << 16, 0u8..=255u8), 0..4),
        cuts in proptest::collection::vec(1usize..300, 0..24),
    ) {
        let mut stream = valid_stream(&shapes);
        mutate(&mut stream, &mutations);
        let reads = chunked(&stream, &cuts);
        // Every prefix a read boundary exposes is a buffer the framer sees.
        let mut seen = 0;
        for read in &reads {
            seen += read.len();
            check_framer_bounds(&stream[..seen])?;
        }
        let whole = events_for(&[&stream]);
        if mutations.is_empty() {
            // Unmutated, every request up to the first `Connection: close`
            // or oversized body surfaces, so the stream is not vacuous.
            prop_assert!(!whole.is_empty());
        }
        prop_assert_eq!(events_for(&reads), whole);
    }
}
