//! HTTP/1.1 framing for the epoll event loop (DESIGN.md §13).
//!
//! Just enough of RFC 9112 for a JSON API that `curl` and load
//! generators speak: request-line + headers + `Content-Length` body on
//! the way in, `Content-Length`-delimited responses on the way out.
//! Every input dimension is bounded (request-line/header bytes, header
//! count, body bytes).
//!
//! [`parse_request`] is incremental: given the bytes buffered so far it
//! answers *complete request* (plus how many bytes it consumed, so
//! pipelined successors stay in the buffer), *need more bytes*, or a
//! fatal framing error. It never blocks and never reads a socket — the
//! per-connection state machine ([`crate::conn`]) owns the buffer and
//! the deadlines.
//!
//! Responses are rendered by [`render_response`], which the caller
//! parameterises with the connection disposition (`keep-alive` or
//! `close`).

/// Upper bound on the request line plus all header lines, in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
    /// Whether the client wants the connection kept open after this
    /// request: HTTP/1.1 defaults to `true` unless `Connection: close`;
    /// HTTP/1.0 defaults to `false` unless `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be framed. Each variant maps to one HTTP
/// status so the caller can always answer with a structured JSON error.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers → 400.
    Malformed(&'static str),
    /// Body advertised more bytes than the server allows → 413.
    BodyTooLarge {
        /// The advertised `Content-Length`.
        advertised: usize,
        /// The server's limit.
        limit: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge { advertised, limit } => {
                write!(f, "body of {advertised} bytes exceeds limit of {limit}")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Computes the keep-alive disposition from the protocol version and the
/// (lower-cased) `Connection` header, per RFC 9112 §9.3: the header is a
/// comma-separated option list, matched case-insensitively.
fn keep_alive_for(version: &str, headers: &[(String, String)]) -> bool {
    let default = version != "HTTP/1.0";
    let Some((_, value)) = headers.iter().find(|(k, _)| k == "connection") else {
        return default;
    };
    let mut keep = default;
    for token in value.split(',') {
        let token = token.trim();
        if token.eq_ignore_ascii_case("close") {
            keep = false;
        } else if token.eq_ignore_ascii_case("keep-alive") {
            keep = true;
        }
    }
    keep
}

/// Parses one request line (already split off the head).
fn parse_request_line(line: &str) -> Result<(String, String, String), HttpError> {
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed("bad request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported protocol version"));
    }
    Ok((method.to_string(), path.to_string(), version.to_string()))
}

/// Parses one header line into a lower-cased `(name, value)` pair.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::Malformed("header without ':'"));
    };
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Extracts `Content-Length` (0 when absent), enforcing the body bound.
fn content_length(headers: &[(String, String)], max_body_bytes: usize) -> Result<usize, HttpError> {
    let length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse()
            .map_err(|_| HttpError::Malformed("bad content-length"))?,
    };
    if length > max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            advertised: length,
            limit: max_body_bytes,
        });
    }
    Ok(length)
}

/// Outcome of feeding buffered bytes to the incremental parser.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request; `consumed` bytes of the buffer belong to it
    /// (head + body) and should be drained before re-parsing.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the input buffer this request occupied.
        consumed: usize,
    },
    /// The buffer holds only a prefix of a request; read more bytes.
    Partial,
}

/// Index one past the blank line terminating the head, if present. Lines
/// end in `\r\n` or bare `\n`.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0usize;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let line = &buf[line_start..i];
        let line = if line.last() == Some(&b'\r') {
            &line[..line.len() - 1]
        } else {
            line
        };
        if line.is_empty() {
            return Some(i + 1);
        }
        line_start = i + 1;
    }
    None
}

/// Incrementally parses one request from `buf` (bytes buffered off a
/// nonblocking socket). Returns [`Parsed::Partial`] until the head *and*
/// the advertised body are fully buffered; fatal framing problems
/// (oversized head, bad request line, too many headers, oversized body)
/// are reported as soon as they are detectable, so a hostile client is
/// rejected without waiting for more bytes.
pub fn parse_request(buf: &[u8], max_body_bytes: usize) -> Result<Parsed, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("request head too large"));
        }
        return Ok(Parsed::Partial);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::Malformed("request head too large"));
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("non-utf8 header"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let (method, path, version) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        headers.push(parse_header_line(line)?);
    }
    let body_len = content_length(&headers, max_body_bytes)?;
    if buf.len() < head_end + body_len {
        return Ok(Parsed::Partial);
    }
    let keep_alive = keep_alive_for(&version, &headers);
    Ok(Parsed::Complete {
        request: Request {
            method,
            path,
            headers,
            body: buf[head_end..head_end + body_len].to_vec(),
            keep_alive,
        },
        consumed: head_end + body_len,
    })
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Renders one complete response to bytes. `keep_alive` selects the
/// `Connection` header: the event loop keeps the socket open until the
/// client asks to close, a framing error poisons the stream, or the
/// server drains. `extra_headers` lets handlers attach metadata such as
/// `X-Cache` without it entering the cached body.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `parse_request` over raw bytes holding exactly one request.
    fn parse_raw(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        match parse_request(raw, max_body)? {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, raw.len());
                Ok(request)
            }
            Parsed::Partial => panic!("complete request expected"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse_raw(
            b"POST /suggest HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
            1024,
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/suggest");
        assert_eq!(r.header("content-length"), Some("5"));
        assert_eq!(r.body, b"hello");
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_get_without_body_and_lf_only_lines() {
        let r = parse_raw(b"GET /healthz HTTP/1.0\nAccept: */*\n\n", 1024).unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn connection_header_overrides_version_default() {
        let r = parse_raw(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", 64).unwrap();
        assert!(!r.keep_alive);
        let r = parse_raw(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", 64).unwrap();
        assert!(r.keep_alive);
        let r = parse_raw(b"GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n", 64).unwrap();
        assert!(!r.keep_alive, "list-valued Connection header");
    }

    #[test]
    fn rejects_garbage_and_oversized() {
        assert!(matches!(
            parse_raw(b"not http at all\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: gigantic\r\n\r\n", 16),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 16),
            Err(HttpError::BodyTooLarge {
                advertised: 999,
                limit: 16
            })
        ));
        assert!(matches!(
            parse_raw(b"GET / SPDY/99\r\n\r\n", 16),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn incremental_parser_is_partial_until_body_arrives() {
        let raw: &[u8] = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab";
        // Every strict prefix is Partial.
        for cut in 0..raw.len() {
            assert!(
                matches!(parse_request(&raw[..cut], 64), Ok(Parsed::Partial)),
                "cut at {cut}"
            );
        }
        let full = [raw, b"cd"].concat();
        let Parsed::Complete { request, consumed } = parse_request(&full, 64).unwrap() else {
            panic!("complete");
        };
        assert_eq!(request.body, b"abcd");
        assert_eq!(consumed, full.len());
    }

    #[test]
    fn incremental_parser_leaves_pipelined_successors() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let Parsed::Complete { request, consumed } = parse_request(raw, 64).unwrap() else {
            panic!("complete");
        };
        assert_eq!(request.path, "/a");
        let Parsed::Complete {
            request,
            consumed: c2,
        } = parse_request(&raw[consumed..], 64).unwrap()
        else {
            panic!("second request");
        };
        assert_eq!(request.path, "/b");
        assert_eq!(consumed + c2, raw.len());
    }

    #[test]
    fn incremental_parser_rejects_early() {
        // Oversized head detectable before the blank line arrives.
        let huge = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            parse_request(&huge, 64),
            Err(HttpError::Malformed("request head too large"))
        ));
        // Oversized body detectable from the head alone.
        assert!(matches!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 16),
            Err(HttpError::BodyTooLarge {
                advertised: 999,
                limit: 16
            })
        ));
        assert!(matches!(
            parse_request(b"nonsense\r\n\r\n", 64),
            Err(HttpError::Malformed("bad request line"))
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n", 64),
            Err(HttpError::Malformed("header without ':'"))
        ));
    }

    #[test]
    fn render_response_connection_header_tracks_disposition() {
        let keep = render_response(200, "application/json", &[("X-Cache", "hit")], b"{}", true);
        let keep = String::from_utf8(keep).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        assert!(keep.contains("X-Cache: hit\r\n"), "{keep}");
        let close = render_response(200, "application/json", &[], b"{}", false);
        let close = String::from_utf8(close).unwrap();
        assert!(close.contains("Connection: close\r\n"), "{close}");
    }

    #[test]
    fn response_wire_format() {
        let bytes = render_response(200, "application/json", &[("X-Cache", "hit")], b"{}", false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
