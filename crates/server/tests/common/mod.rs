//! The raw-socket HTTP client the server integration tests share.
//!
//! One request per socket: every request carries `Connection: close`, so
//! the server (which keeps HTTP/1.1 connections alive by default) ends
//! the stream after its response and the client can read to EOF. Tests
//! that exercise keep-alive or pipelining hold their own sockets.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

/// The workspace's one Prometheus conformance checker, shared with the
/// telemetry crate's unit tests.
#[path = "../../../telemetry/tests/support/conformance.rs"]
pub mod conformance;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Issues one request with no extra headers; returns
/// (status, headers, body) with header names lower-cased.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    request_with(addr, method, path, &[], body)
}

/// [`request`] with extra request headers.
pub fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    write!(stream, "{head}{body}").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, payload.to_string())
}

/// The first value of a (lower-cased) response header.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}
