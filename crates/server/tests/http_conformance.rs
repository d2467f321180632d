//! HTTP/1.1 conformance suite for the epoll event loop (DESIGN.md §13):
//! keep-alive reuse, `Connection: close`, pipelining order,
//! framing-error closes, slow-loris timeouts, load-shedding at the
//! connection cap, graceful drain of in-flight pipelines, and
//! byte-identity of a suggestion however its request reached the loop.
//!
//! Everything here drives real sockets against an in-process server.
//! The suite is Linux-only (the event loop is).

#![cfg(target_os = "linux")]

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xclean::{XCleanConfig, XCleanEngine};
use xclean_server::{DrainReport, ServerConfig, ShutdownFlag, SuggestServer};
use xclean_telemetry::json::{self, Json};
use xclean_xmltree::parse_document;

fn engine() -> Arc<XCleanEngine> {
    let xml = "<dblp>\
        <article><author>jones</author><title>health insurance markets</title></article>\
        <article><author>smith</author><title>program instance analysis</title></article>\
        <article><author>chen</author><title>data integration systems</title></article>\
    </dblp>";
    Arc::new(XCleanEngine::new(
        parse_document(xml).unwrap(),
        XCleanConfig::default(),
    ))
}

struct Running {
    addr: std::net::SocketAddr,
    flag: ShutdownFlag,
    join: std::thread::JoinHandle<DrainReport>,
}

fn two_worker_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        ..Default::default()
    }
}

/// A corpus big enough that a 1024-query batch takes real wall-clock
/// time — the drain test needs a request that is provably still in
/// flight when the shutdown flag trips.
fn big_engine() -> Arc<XCleanEngine> {
    const A: [&str; 20] = [
        "data", "index", "query", "graph", "table", "merge", "parse", "token", "score", "cache",
        "batch", "shard", "trace", "probe", "chunk", "frame", "stack", "queue", "field", "label",
    ];
    const B: [&str; 20] = [
        "wise", "ford", "hart", "lane", "mont", "ship", "ton", "berg", "dale", "wick", "combe",
        "stone", "mark", "path", "well", "gate", "holm", "firth", "moor", "stead",
    ];
    let mut xml = String::from("<dblp>");
    for i in 0..400usize {
        xml.push_str("<article><author>");
        xml.push_str(A[i % 20]);
        xml.push_str(B[(i / 20) % 20]);
        xml.push_str("</author><title>");
        for k in 0..6 {
            if k > 0 {
                xml.push(' ');
            }
            xml.push_str(A[(i + 7 * k) % 20]);
            xml.push_str(B[(i / 3 + 5 * k) % 20]);
        }
        xml.push_str("</title></article>");
    }
    xml.push_str("</dblp>");
    Arc::new(XCleanEngine::new(
        parse_document(&xml).unwrap(),
        XCleanConfig::default(),
    ))
}

/// A 1024-query batch body of distinct misspelled multi-keyword
/// queries over [`big_engine`]'s vocabulary (`salt` keeps separate
/// batches from ever sharing a query).
fn slow_batch_body(salt: usize) -> String {
    const A: [&str; 20] = [
        "data", "index", "query", "graph", "table", "merge", "parse", "token", "score", "cache",
        "batch", "shard", "trace", "probe", "chunk", "frame", "stack", "queue", "field", "label",
    ];
    const B: [&str; 20] = [
        "wise", "ford", "hart", "lane", "mont", "ship", "ton", "berg", "dale", "wick", "combe",
        "stone", "mark", "path", "well", "gate", "holm", "firth", "moor", "stead",
    ];
    let queries: Json = (0..1024usize)
        .map(|i| {
            let n = salt * 1024 + i;
            // Misspell by doubling the first letter: stays within edit
            // distance 1 of a real vocabulary term.
            format!(
                "{}{}{} {}{}{}",
                &A[n % 20][..1],
                A[n % 20],
                B[(n / 20) % 20],
                &A[(n / 3) % 20][..1],
                A[(n / 3) % 20],
                B[(n / 7) % 20]
            )
        })
        .collect();
    Json::object([("queries", queries)]).render()
}

fn start(config: ServerConfig) -> Running {
    start_with(engine(), config)
}

fn start_with(engine: Arc<XCleanEngine>, config: ServerConfig) -> Running {
    let server = SuggestServer::bind(engine, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let join = std::thread::spawn(move || server.run().unwrap());
    Running { addr, flag, join }
}

impl Running {
    fn stop(self) -> DrainReport {
        self.flag.trigger();
        self.join.join().unwrap()
    }
}

/// One parsed response read off an open stream (keep-alive aware:
/// reads exactly head + `Content-Length` bytes, leaving the socket
/// usable for the next response).
#[derive(Debug)]
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one complete response; `None` on clean EOF before any byte.
fn read_response(stream: &mut TcpStream) -> Option<Response> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    // Head first, byte by byte (simple and plenty fast for tests).
    while !buf.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => {
                assert!(
                    buf.is_empty(),
                    "EOF mid-head: {:?}",
                    String::from_utf8_lossy(&buf)
                );
                return None;
            }
            Ok(_) => buf.push(byte[0]),
            Err(e) => panic!("read error mid-head: {e}"),
        }
    }
    let head = String::from_utf8(buf).unwrap();
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    Some(Response {
        status,
        headers,
        body: String::from_utf8(body).unwrap(),
    })
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn get_request(path: &str, extra_headers: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n{extra_headers}\r\n")
}

#[test]
fn keep_alive_reuses_one_socket_for_many_requests() {
    let run = start(two_worker_config());
    let mut stream = connect(run.addr);
    let mut bodies = Vec::new();
    // ≥3 requests over the same socket, strictly request→response.
    for i in 0..4 {
        let path = if i % 2 == 0 {
            "/suggest?q=helth+insurance".to_string()
        } else {
            "/healthz".to_string()
        };
        stream.write_all(get_request(&path, "").as_bytes()).unwrap();
        let response = read_response(&mut stream).expect("keep-alive socket stayed open");
        assert_eq!(response.status, 200, "request {i}");
        assert_eq!(
            response.header("connection"),
            Some("keep-alive"),
            "request {i}"
        );
        bodies.push(response.body);
    }
    assert_eq!(bodies[0], bodies[2], "same query, same bytes");
    let report = run.stop();
    assert!(
        report.keepalive_reuse >= 3,
        "3 of 4 requests reused the connection: {report:?}"
    );
    assert_eq!(report.connections, 1, "{report:?}");
}

#[test]
fn connection_close_is_honored() {
    let run = start(two_worker_config());
    let mut stream = connect(run.addr);
    stream
        .write_all(get_request("/healthz", "Connection: close\r\n").as_bytes())
        .unwrap();
    let response = read_response(&mut stream).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    // The server closes: next read is EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest));
    run.stop();
}

#[test]
fn pipelined_requests_answer_in_order_with_matching_request_ids() {
    let run = start(two_worker_config());
    let mut stream = connect(run.addr);
    // Three requests written back-to-back before reading anything, each
    // tagged with its own X-Request-Id. Mixing cheap (/healthz) and
    // engine-bound (/suggest) paths makes out-of-order completion likely
    // if ordering were broken.
    let mut wire = String::new();
    wire.push_str(&get_request(
        "/suggest?q=helth+insurance",
        "X-Request-Id: pipe-0\r\n",
    ));
    wire.push_str(&get_request("/healthz", "X-Request-Id: pipe-1\r\n"));
    wire.push_str(&get_request(
        "/suggest?q=dta+integration",
        "X-Request-Id: pipe-2\r\n",
    ));
    stream.write_all(wire.as_bytes()).unwrap();
    for i in 0..3 {
        let response = read_response(&mut stream).expect("pipelined response");
        assert_eq!(response.status, 200, "response {i}");
        assert_eq!(
            response.header("x-request-id"),
            Some(format!("pipe-{i}").as_str()),
            "responses must arrive in request order"
        );
    }
    run.stop();
}

#[test]
fn malformed_request_gets_400_and_close() {
    let run = start(two_worker_config());
    let mut stream = connect(run.addr);
    stream
        .write_all(b"utter nonsense\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let response = read_response(&mut stream).unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(read_response(&mut stream).is_none(), "socket closed");
    run.stop();
}

#[test]
fn oversized_body_gets_413_and_close() {
    let run = start(ServerConfig {
        max_body_bytes: 64,
        ..two_worker_config()
    });
    let mut stream = connect(run.addr);
    stream
        .write_all(b"POST /suggest HTTP/1.1\r\nHost: t\r\nContent-Length: 100000\r\n\r\n")
        .unwrap();
    let response = read_response(&mut stream).unwrap();
    assert_eq!(response.status, 413);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(read_response(&mut stream).is_none(), "socket closed");
    run.stop();
}

#[test]
fn slow_loris_times_out_with_408_without_wedging_the_loop() {
    let run = start(ServerConfig {
        read_timeout: Duration::from_millis(500),
        ..two_worker_config()
    });
    // The loris: dribbles one byte at a time, never finishing its head.
    // It stops dribbling before the deadline so the 408 is read off a
    // quiet socket (a write racing the server's close would RST away
    // the buffered response).
    let mut loris = connect(run.addr);
    let partial = b"GET /suggest?q=helth HTTP/1.1\r\nX-Loris: y";
    for chunk in partial[..12].chunks(1) {
        loris.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        // While the loris dribbles, other clients are served normally —
        // the loop is not wedged.
        let mut healthy = connect(run.addr);
        healthy
            .write_all(get_request("/healthz", "").as_bytes())
            .unwrap();
        assert_eq!(read_response(&mut healthy).unwrap().status, 200);
    }
    // The deadline runs from the loris's FIRST byte; dribbling later
    // bytes must not have reset it. ~500 ms after that first byte the
    // 408 arrives (the blocking read below waits for it).
    let response = read_response(&mut loris).expect("a 408, not a dropped socket");
    assert_eq!(response.status, 408);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(read_response(&mut loris).is_none(), "socket closed");
    run.stop();
}

#[test]
fn graceful_drain_completes_in_flight_pipeline_and_announces_close() {
    // One worker thread and a pipeline that opens with genuinely slow
    // requests, so the drain provably begins while responses are still
    // owed on an open keep-alive socket.
    let run = start_with(
        big_engine(),
        ServerConfig {
            threads: 1,
            cache_entries: 0,
            ..two_worker_config()
        },
    );

    // Calibrate: time one slow batch end-to-end, then open the real
    // pipeline with as many copies of it as keep the one worker busy
    // for 200 ms on this build (the cache is off, so each copy is
    // recomputed) and trigger the drain a quarter of the way in.
    // Parsing and dispatch happen on the loop thread within
    // microseconds of the bytes landing, so by then every request is
    // surfaced, and the loop next wakes — and notices the flag — no
    // later than the first copy's completion, with the rest still owed.
    let calibration = {
        let mut stream = connect(run.addr);
        let body = slow_batch_body(0);
        let started = Instant::now();
        write!(
            stream,
            "POST /suggest HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        assert_eq!(read_response(&mut stream).unwrap().status, 200);
        started.elapsed()
    };
    let copies = 200_000u128.div_ceil(calibration.as_micros().max(1)).min(24) as usize;

    let mut stream = connect(run.addr);
    let body = slow_batch_body(1);
    let mut wire = String::new();
    for i in 0..copies {
        wire.push_str(&format!(
            "POST /suggest HTTP/1.1\r\nHost: t\r\nX-Request-Id: drain-{i}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    wire.push_str(&get_request(
        "/healthz",
        &format!("X-Request-Id: drain-{copies}\r\n"),
    ));
    wire.push_str(&get_request(
        "/suggest?q=ddatawise",
        &format!("X-Request-Id: drain-{}\r\n", copies + 1),
    ));
    stream.write_all(wire.as_bytes()).unwrap();
    std::thread::sleep(calibration * copies as u32 / 4);
    run.flag.trigger();

    // Every pipelined response still arrives, in order; the last one
    // carries Connection: close instead of the socket being dropped.
    for i in 0..copies + 2 {
        let response = read_response(&mut stream)
            .unwrap_or_else(|| panic!("drain dropped pipelined response {i}"));
        assert_eq!(response.status, 200, "response {i}");
        assert_eq!(
            response.header("x-request-id"),
            Some(format!("drain-{i}").as_str()),
            "order preserved under drain"
        );
        assert_eq!(
            response.header("connection"),
            Some(if i == copies + 1 {
                "close"
            } else {
                "keep-alive"
            }),
            "response {i}"
        );
    }
    assert!(
        read_response(&mut stream).is_none(),
        "socket closed after final response"
    );
    let report = run.join.join().unwrap();
    assert_eq!(report.requests, copies as u64 + 3, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
}

/// How a request reaches the loop must not change what it is answered:
/// the same six cases fetched one per `Connection: close` socket, one by
/// one on a single keep-alive socket, and pipelined in a single write.
#[test]
fn suggestion_bodies_are_byte_identical_across_connection_dispositions() {
    let run = start(ServerConfig {
        cache_entries: 0, // every answer computed, none replayed
        ..two_worker_config()
    });
    let cases = [
        ("GET", "/suggest?q=helth+insurance", ""),
        ("GET", "/suggest?q=dta+integration", ""),
        ("GET", "/suggest?q=progrm+instance", ""),
        (
            "POST",
            "/suggest",
            r#"{"queries": ["helth insurance", "program instence", "zzz qqq"]}"#,
        ),
        ("POST", "/suggest", r#"{"query": "smith"}"#),
        ("GET", "/suggest?q=...", ""), // error body too
    ];
    let wire = |i: usize, close: bool| {
        let (method, path, body) = cases[i];
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nX-Request-Id: case-{i}\r\n{}Content-Length: {}\r\n\r\n{body}",
            if close { "Connection: close\r\n" } else { "" },
            body.len()
        )
    };
    let answer = |response: Response| {
        let id = response.header("x-request-id").unwrap().to_string();
        (response.status, id, response.body)
    };

    let per_socket: Vec<_> = (0..cases.len())
        .map(|i| {
            let mut stream = connect(run.addr);
            stream.write_all(wire(i, true).as_bytes()).unwrap();
            let response = read_response(&mut stream).unwrap();
            assert_eq!(response.header("connection"), Some("close"));
            answer(response)
        })
        .collect();

    let mut stream = connect(run.addr);
    let kept_alive: Vec<_> = (0..cases.len())
        .map(|i| {
            stream.write_all(wire(i, false).as_bytes()).unwrap();
            let response = read_response(&mut stream).expect("keep-alive socket stayed open");
            assert_eq!(response.header("connection"), Some("keep-alive"));
            answer(response)
        })
        .collect();

    let mut stream = connect(run.addr);
    let burst: String = (0..cases.len()).map(|i| wire(i, false)).collect();
    stream.write_all(burst.as_bytes()).unwrap();
    let pipelined: Vec<_> = (0..cases.len())
        .map(|_| answer(read_response(&mut stream).expect("pipelined response")))
        .collect();

    let statuses: Vec<u16> = per_socket.iter().map(|(status, _, _)| *status).collect();
    assert_eq!(statuses, [200, 200, 200, 200, 200, 400]);
    for (i, (_, id, _)) in per_socket.iter().enumerate() {
        assert_eq!(id, &format!("case-{i}"), "request order");
    }
    assert_eq!(kept_alive, per_socket, "keep-alive vs one socket each");
    assert_eq!(pipelined, per_socket, "pipelined vs one socket each");
    run.stop();
}

/// Cache hits are answered on the loop thread while misses are computed
/// on the pool, yet a pipelined mix of both still comes back in request
/// order, each response with its own request ID and cache outcome, and
/// with the bytes the same query earns on a socket of its own.
#[test]
fn pipelined_hits_and_misses_keep_wire_order() {
    let run = start(two_worker_config());
    let wire = |path: &str, id: &str, close: bool| {
        let close = if close { "Connection: close\r\n" } else { "" };
        get_request(path, &format!("X-Request-Id: {id}\r\n{close}"))
    };
    let (a, b, c) = (
        "/suggest?q=helth+insurance",
        "/suggest?q=progrm+instance",
        "/suggest?q=dta+integration",
    );
    // Warm B, so it is a hit inside the burst.
    let mut warm = connect(run.addr);
    warm.write_all(wire(b, "warm", true).as_bytes()).unwrap();
    assert_eq!(
        read_response(&mut warm).unwrap().header("x-cache"),
        Some("miss")
    );

    let order = [(a, "miss"), (b, "hit"), (c, "miss"), (b, "hit")];
    let mut stream = connect(run.addr);
    let burst: String = order
        .iter()
        .enumerate()
        .map(|(i, (path, _))| wire(path, &format!("mix-{i}"), false))
        .collect();
    stream.write_all(burst.as_bytes()).unwrap();
    let mut bodies = Vec::new();
    for (i, (path, outcome)) in order.iter().enumerate() {
        let response = read_response(&mut stream).expect("pipelined response");
        assert_eq!(response.status, 200, "response {i}");
        assert_eq!(
            response.header("x-request-id"),
            Some(format!("mix-{i}").as_str()),
            "wire order is request order"
        );
        assert_eq!(response.header("x-cache"), Some(*outcome), "response {i}");
        bodies.push((path, response.body));
    }
    for (i, (path, body)) in bodies.iter().enumerate() {
        let mut own = connect(run.addr);
        own.write_all(wire(path, "own", true).as_bytes()).unwrap();
        let response = read_response(&mut own).unwrap();
        assert_eq!(&response.body, body, "response {i} ({path})");
    }
    run.stop();
}

/// Above `max_connections` open sockets the loop answers a new one with
/// a `503` and closes it, without disturbing the sockets it holds, and
/// serves new connections again as soon as one of those leaves.
#[test]
fn connections_over_the_cap_are_shed_with_503_and_the_rest_keep_serving() {
    let run = start(ServerConfig {
        max_connections: 2,
        ..two_worker_config()
    });
    let healthz = |stream: &mut TcpStream| {
        stream
            .write_all(get_request("/healthz", "").as_bytes())
            .unwrap();
        read_response(stream).expect("held socket still answers")
    };
    // A response proves the loop has accepted the socket, not merely the
    // kernel's backlog.
    let mut first = connect(run.addr);
    let mut second = connect(run.addr);
    assert_eq!(healthz(&mut first).status, 200);
    assert_eq!(healthz(&mut second).status, 200);

    let mut third = connect(run.addr);
    let shed = read_response(&mut third).expect("a 503, not a dropped socket");
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("connection"), Some("close"));
    assert!(shed.header("x-request-id").is_some(), "{shed:?}");
    assert!(shed.body.contains("\"code\":503"), "{shed:?}");
    assert!(read_response(&mut third).is_none(), "socket closed");

    assert_eq!(healthz(&mut first).status, 200);
    assert_eq!(healthz(&mut second).status, 200);

    // Free a slot, and wait until the loop has seen the hang-up (its own
    // gauge says so) before asking for it.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !healthz(&mut second)
        .body
        .contains("\"open_connections\":1,")
    {
        assert!(Instant::now() < deadline, "loop never reaped the socket");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut fourth = connect(run.addr);
    assert_eq!(healthz(&mut fourth).status, 200);

    second
        .write_all(get_request("/debug/requests?n=1000", "").as_bytes())
        .unwrap();
    let ring = read_response(&mut second).unwrap();
    assert_eq!(ring.status, 200);
    let ring = json::parse(&ring.body).unwrap();
    let overload: Vec<_> = ring["requests"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|r| r["route"] == "overload")
        .collect();
    assert_eq!(overload.len(), 1, "{overload:?}");
    assert_eq!(overload[0]["status"].as_u64(), Some(503));
    assert_eq!(
        overload[0]["trace_id"].as_str(),
        shed.header("x-request-id")
    );

    let report = run.stop();
    assert_eq!(report.connections, 4, "shed socket included: {report:?}");
    assert_eq!(report.errors, 1, "{report:?}");
}

#[test]
fn half_close_still_gets_its_response() {
    let run = start(two_worker_config());
    let mut stream = connect(run.addr);
    stream
        .write_all(get_request("/healthz", "").as_bytes())
        .unwrap();
    // Client shuts down its writing half immediately (EOF at the
    // server) — the already-sent request must still be answered.
    stream.shutdown(Shutdown::Write).unwrap();
    let response = read_response(&mut stream).expect("half-closed client is still answered");
    assert_eq!(response.status, 200);
    assert!(read_response(&mut stream).is_none());
    run.stop();
}

#[test]
fn idle_keep_alive_connection_is_closed_after_timeout() {
    let run = start(ServerConfig {
        keep_alive_timeout: Duration::from_millis(300),
        ..two_worker_config()
    });
    let mut stream = connect(run.addr);
    stream
        .write_all(get_request("/healthz", "").as_bytes())
        .unwrap();
    assert_eq!(read_response(&mut stream).unwrap().status, 200);
    // Sit idle past the keep-alive horizon: the server closes silently.
    let mut buf = [0u8; 1];
    match stream.read(&mut buf) {
        Ok(0) => {} // clean EOF
        Ok(_) => panic!("unexpected bytes on an idle connection"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{e}"
        ),
    }
    run.stop();
}

#[test]
fn event_loop_sustains_a_thousand_concurrent_keep_alive_connections() {
    let run = start(ServerConfig {
        max_connections: 2048,
        ..two_worker_config()
    });
    // Open 1050 keep-alive connections in waves (the listen backlog is
    // finite), then make two requests on every socket.
    const CONNS: usize = 1050;
    let mut sockets = Vec::with_capacity(CONNS);
    for wave in 0..(CONNS / 50) {
        for _ in 0..50 {
            sockets.push(connect(run.addr));
        }
        // A breath per wave keeps SYN bursts under the backlog.
        if wave % 4 == 3 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    for round in 0..2 {
        for (i, stream) in sockets.iter_mut().enumerate() {
            stream
                .write_all(get_request("/healthz", "").as_bytes())
                .unwrap();
            let response = read_response(stream)
                .unwrap_or_else(|| panic!("conn {i} dropped in round {round}"));
            assert_eq!(response.status, 200, "conn {i} round {round}");
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
    }
    drop(sockets);
    let report = run.stop();
    assert_eq!(report.connections, CONNS as u64, "{report:?}");
    assert_eq!(report.requests, 2 * CONNS as u64, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.keepalive_reuse, CONNS as u64, "{report:?}");
}
