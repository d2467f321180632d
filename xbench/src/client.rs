//! The benchmark's HTTP client: blocking keep-alive connections, one
//! request in flight per connection, no pipelining.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The bytes of `GET /suggest?q=<keywords>` as the benchmark sends it.
pub fn suggest_request(keywords: &[String]) -> Vec<u8> {
    let mut q = String::new();
    for (i, k) in keywords.iter().enumerate() {
        if i > 0 {
            q.push('+');
        }
        for b in k.bytes() {
            if b.is_ascii_alphanumeric() {
                q.push(b as char);
            } else {
                q.push_str(&format!("%{b:02X}"));
            }
        }
    }
    format!("GET /suggest?q={q} HTTP/1.1\r\nHost: xbench\r\n\r\n").into_bytes()
}

/// One parsed reply. `body` borrows the connection's buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Reply<'a> {
    /// HTTP status code.
    pub status: u16,
    /// `X-Cache: hit` → `Some(true)`, `miss` → `Some(false)`.
    pub cache_hit: Option<bool>,
    /// The response body.
    pub body: &'a [u8],
    /// Bytes on the wire: head plus body.
    pub wire_len: usize,
}

/// Splits a complete response into status, `X-Cache` and body; `Ok(None)`
/// while `buf` holds only a prefix of it.
pub fn parse_reply(buf: &[u8]) -> Result<Option<Reply<'_>>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not utf-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut length = None;
    let mut cache_hit = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("x-cache") {
            cache_hit = Some(value == "hit");
        }
    }
    let length = length.ok_or("reply without content-length")?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    if buf.len() > body_start + length {
        return Err("bytes after the reply (nothing was pipelined)".to_string());
    }
    Ok(Some(Reply {
        status,
        cache_hit,
        body: &buf[body_start..],
        wire_len: buf.len(),
    }))
}

/// A keep-alive connection to the server under test.
#[derive(Debug)]
pub struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConn {
    /// Connects with `TCP_NODELAY` and a generous read timeout (a hung
    /// server fails the run instead of hanging it).
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(HttpConn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one request.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Blocks until the reply to the request in flight is complete.
    pub fn recv(&mut self) -> Result<Reply<'_>, String> {
        self.buf.clear();
        let mut chunk = [0u8; 8 * 1024];
        loop {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
            // Borrow-checker friendly: test for completeness first, then
            // re-parse for the borrowed return.
            if parse_reply(&self.buf)?.is_some() {
                break;
            }
        }
        Ok(parse_reply(&self.buf)?.expect("complete reply"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_what_the_server_parses_back_to_the_keywords() {
        let kw = vec!["databse".to_string(), "o'neil".to_string()];
        let bytes = suggest_request(&kw);
        assert_eq!(
            std::str::from_utf8(&bytes).unwrap(),
            "GET /suggest?q=databse+o%27neil HTTP/1.1\r\nHost: xbench\r\n\r\n"
        );
        match xclean_server::http::parse_request(&bytes, 1024).unwrap() {
            xclean_server::http::Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(request.method, "GET");
                assert!(request.keep_alive);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reply_parser_waits_for_the_whole_body_and_reads_x_cache() {
        let full = xclean_server::http::render_response(
            200,
            "application/json",
            &[("X-Cache", "hit")],
            b"{\"query\":\"a\"}",
            true,
        );
        for cut in 0..full.len() {
            assert_eq!(parse_reply(&full[..cut]), Ok(None), "cut at {cut}");
        }
        let reply = parse_reply(&full).unwrap().unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.cache_hit, Some(true));
        assert_eq!(reply.body, b"{\"query\":\"a\"}");
        assert_eq!(reply.wire_len, full.len());
        let mut extra = full.clone();
        extra.push(b'x');
        assert!(parse_reply(&extra).is_err());
        assert!(parse_reply(b"SPDY/9 200\r\n\r\n").is_err());
    }
}
