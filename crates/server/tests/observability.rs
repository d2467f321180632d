//! End-to-end tests of the request observability plane over real
//! sockets: `X-Request-Id` echo and generation (on success *and* error
//! replies), the `/debug/requests` ring with stage-nanos accounting,
//! the slow-query log, `/statusz`, the rolling-window `/metrics`
//! series — and the contract that observability never changes a
//! suggestion byte, at 1 and at 8 engine threads.
//!
//! Linux-only, like everything that calls `SuggestServer::run`.

#![cfg(target_os = "linux")]

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use xclean::{XCleanConfig, XCleanEngine};
use xclean_server::{DrainReport, ServerConfig, ShutdownFlag, SuggestServer};
use xclean_telemetry::json::{self, Json};
use xclean_telemetry::Telemetry;
use xclean_xmltree::parse_document;

use common::{header, request_with as request};

fn engine_with(threads: usize, telemetry: Telemetry) -> Arc<XCleanEngine> {
    let xml = "<dblp>\
        <article><author>jones</author><title>health insurance markets</title></article>\
        <article><author>smith</author><title>program instance analysis</title></article>\
        <article><author>brown</author><title>database system internals</title></article>\
    </dblp>";
    let config = XCleanConfig {
        num_threads: threads,
        ..XCleanConfig::default()
    };
    Arc::new(XCleanEngine::new(parse_document(xml).unwrap(), config).with_telemetry(telemetry))
}

struct Running {
    addr: std::net::SocketAddr,
    flag: ShutdownFlag,
    join: std::thread::JoinHandle<DrainReport>,
}

impl Running {
    fn stop(self) -> DrainReport {
        self.flag.trigger();
        self.join.join().unwrap()
    }
}

fn start(engine: Arc<XCleanEngine>, config: ServerConfig) -> Running {
    let server = SuggestServer::bind(engine, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let join = std::thread::spawn(move || server.run().unwrap());
    Running { addr, flag, join }
}

#[test]
fn request_id_is_echoed_generated_and_ringed() {
    let run = start(
        engine_with(1, Telemetry::disabled()),
        ServerConfig::default(),
    );

    // Inbound X-Request-Id is echoed verbatim (the acceptance query).
    let (status, headers, _) = request(
        run.addr,
        "GET",
        "/suggest?q=helth+insurance",
        &[("X-Request-Id", "abc123")],
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("abc123"));

    // Without one, a deterministic seed-worker-counter ID is generated.
    let (_, headers, _) = request(run.addr, "GET", "/healthz", &[], "");
    let generated = header(&headers, "x-request-id")
        .expect("generated id")
        .to_string();
    let parts: Vec<&str> = generated.split('-').collect();
    assert_eq!(parts.len(), 3, "{generated}");
    assert!(u64::from_str_radix(parts[0], 16).is_ok(), "{generated}");

    // Error replies carry one too.
    let (status, headers, _) = request(run.addr, "GET", "/nope", &[], "");
    assert_eq!(status, 404);
    assert!(header(&headers, "x-request-id").is_some());
    let (status, headers, _) = request(
        run.addr,
        "POST",
        "/suggest",
        &[("X-Request-Id", "err-echo")],
        "{broken",
    );
    assert_eq!(status, 400);
    assert_eq!(header(&headers, "x-request-id"), Some("err-echo"));

    // The ring saw all of it, and the suggest record's stage nanos are
    // consistent with its total (stages are a subset of the request).
    let (status, _, body) = request(run.addr, "GET", "/debug/requests?n=10", &[], "");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let requests = v["requests"].as_array().unwrap();
    assert!(requests.len() >= 4, "{body}");
    let ids: Vec<&str> = requests
        .iter()
        .map(|r| r["trace_id"].as_str().unwrap())
        .collect();
    assert!(ids.contains(&"abc123"), "{ids:?}");
    assert!(ids.contains(&"err-echo"), "{ids:?}");
    assert!(ids.contains(&generated.as_str()), "{ids:?}");
    let suggest = requests.iter().find(|r| r["trace_id"] == "abc123").unwrap();
    assert_eq!(suggest["route"], "suggest");
    assert_eq!(suggest["query"], "helth insurance");
    assert_eq!(suggest["cache"], "miss");
    let stages = &suggest["stages"];
    let stage_sum = stages["slot_nanos"].as_u64().unwrap()
        + stages["walk_nanos"].as_u64().unwrap()
        + stages["rank_nanos"].as_u64().unwrap();
    let total = suggest["total_nanos"].as_u64().unwrap();
    assert!(stage_sum > 0, "miss did engine work: {suggest:?}");
    assert!(
        stage_sum <= total,
        "stage nanos {stage_sum} exceed request total {total}"
    );

    let report = run.stop();
    assert_eq!(report.errors, 2, "{report:?}");
}

#[test]
fn statusz_and_window_metrics_reflect_traffic() {
    let run = start(
        engine_with(1, Telemetry::disabled()),
        ServerConfig::default(),
    );
    for _ in 0..3 {
        let (status, _, _) = request(
            run.addr,
            "POST",
            "/suggest",
            &[],
            r#"{"query": "helth insurance"}"#,
        );
        assert_eq!(status, 200);
    }
    let (_, _, _) = request(run.addr, "GET", "/nope", &[], "");

    // The windows are read by `/statusz` only; `/metrics` keeps the
    // lifetime counters they are cut from and no `_window` family.
    let (status, _, metrics) = request(run.addr, "GET", "/metrics", &[], "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("xclean_server_requests_total 4\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("xclean_server_errors_total 1\n"),
        "{metrics}"
    );
    assert!(!metrics.contains("xclean_server_window_"), "{metrics}");

    let (status, _, statusz) = request(run.addr, "GET", "/statusz", &[], "");
    assert_eq!(status, 200);
    assert!(statusz.contains("xclean suggestion server"), "{statusz}");
    assert!(
        statusz.contains("helth insurance"),
        "slowest table: {statusz}"
    );
    let row_1m: Vec<&str> = statusz
        .lines()
        .find(|l| l.starts_with("1m "))
        .expect("1m window row present")
        .split_whitespace()
        .collect();
    let count_1m: u64 = row_1m[1].parse().expect("request count");
    assert!(count_1m >= 5, "{statusz}");
    assert_eq!(row_1m[2], "1", "one error in the window: {statusz}");
    run.stop();
}

#[test]
fn slow_log_captures_requests_over_threshold() {
    let path = std::env::temp_dir().join(format!("xclean_slow_log_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let run = start(
        engine_with(1, Telemetry::disabled()),
        ServerConfig {
            // Zero threshold: every request is "slow" and must be logged.
            slow_threshold: Duration::ZERO,
            slow_log: Some(path.clone()),
            ..ServerConfig::default()
        },
    );
    let (status, _, _) = request(
        run.addr,
        "GET",
        "/suggest?q=helth+insurance",
        &[("X-Request-Id", "slow-1")],
        "",
    );
    assert_eq!(status, 200);
    run.stop();

    let log = std::fs::read_to_string(&path).unwrap();
    let line = log
        .lines()
        .find(|l| l.contains("\"trace_id\":\"slow-1\""))
        .unwrap_or_else(|| panic!("slow-1 not logged: {log}"));
    let v = json::parse(line).expect("slow log line is JSON");
    assert_eq!(v["route"], "suggest");
    assert_eq!(v["query"], "helth insurance");
    assert_eq!(v["status"].as_u64(), Some(200));
    assert!(v["total_nanos"].as_u64().unwrap() >= 1);
    let _ = std::fs::remove_file(&path);
}

/// The acceptance bit-identity check: with the ring, windows, and slow
/// log running (they always are), response bodies must be byte-identical
/// to a server whose engine telemetry is fully disabled — at 1 thread
/// and at 8.
#[test]
fn observability_never_changes_a_suggestion_byte() {
    let queries = [
        "helth insurance",
        "progrm instance",
        "databse system",
        "insurence markets",
    ];
    for threads in [1usize, 8] {
        let plain = start(
            engine_with(threads, Telemetry::disabled()),
            ServerConfig::default(),
        );
        let traced = start(
            engine_with(threads, Telemetry::with_tracing()),
            ServerConfig {
                slow_threshold: Duration::ZERO, // slow-log every request
                slow_log: Some(std::env::temp_dir().join(format!(
                    "xclean_bitid_{}_{threads}.jsonl",
                    std::process::id()
                ))),
                ..ServerConfig::default()
            },
        );
        for q in queries {
            let body = Json::object([("query", q.into())]).render();
            let (s1, _, b1) = request(plain.addr, "POST", "/suggest", &[], &body);
            let (s2, _, b2) = request(traced.addr, "POST", "/suggest", &[], &body);
            assert_eq!((s1, s2), (200, 200));
            assert_eq!(
                b1, b2,
                "observability changed bytes at {threads} threads: {q}"
            );
        }
        // Batch path too (exercises the engine pool + batch-worker spans).
        let batch = Json::object([("queries", queries.into_iter().collect())]).render();
        let (_, _, b1) = request(plain.addr, "POST", "/suggest", &[], &batch);
        let (_, _, b2) = request(traced.addr, "POST", "/suggest", &[], &batch);
        assert_eq!(b1, b2, "batch bytes differ at {threads} threads");
        plain.stop();
        traced.stop();
    }
}

/// The runtime series are exported from the first scrape: every
/// dispatched request stamps a queue wait, and the worker utilization
/// gauges always render.
#[test]
fn runtime_metrics_present_under_the_event_loop() {
    let run = start(
        engine_with(1, Telemetry::disabled()),
        ServerConfig::default(),
    );
    let (status, _, _) = request(run.addr, "GET", "/suggest?q=helth+insurance", &[], "");
    assert_eq!(status, 200);
    let (status, _, metrics) = request(run.addr, "GET", "/metrics", &[], "");
    assert_eq!(status, 200);
    for series in [
        "xclean_loop_lag_seconds_bucket",
        "xclean_queue_wait_seconds_bucket",
        "xclean_events_per_wake_bucket",
        "xclean_worker_utilization{worker=\"0\"}",
    ] {
        assert!(metrics.contains(series), "{series} missing: {metrics}");
    }
    // The suggest request and this /metrics request both waited in the
    // job queue before a worker picked them up.
    let waits = metrics
        .lines()
        .find(|l| l.starts_with("xclean_queue_wait_seconds_count"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("queue-wait count series present");
    assert!(waits >= 2, "{metrics}");
    run.stop();
}

/// Reads one keep-alive response (head + exactly `Content-Length`
/// bytes) off an open stream, leaving the socket usable.
fn read_keep_alive_response(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).unwrap();
        assert!(n > 0, "EOF mid-head: {:?}", String::from_utf8_lossy(&head));
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim().parse().unwrap())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// `/debug/conns` shows the live keep-alive connection with its
/// per-connection request count, the loop-lag and queue-wait series
/// fill, and the flight recorder captures the connection's lifecycle.
#[test]
fn debug_conns_reflects_a_live_keep_alive_connection() {
    let run = start(
        engine_with(1, Telemetry::disabled()),
        ServerConfig::default(),
    );

    // Hold one keep-alive socket open and send two requests on it.
    let mut held = TcpStream::connect(run.addr).unwrap();
    held.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..2 {
        write!(
            held,
            "GET /suggest?q=helth+insurance HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_keep_alive_response(&mut held);
        assert_eq!(status, 200);
        assert!(!body.is_empty());
    }

    // A second connection observes the held one in the registry.
    let (status, _, body) = request(run.addr, "GET", "/debug/conns?n=10", &[], "");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    assert!(v["open"].as_u64().unwrap() >= 1, "{body}");
    let conns = v["conns"].as_array().unwrap();
    let held_entry = conns
        .iter()
        .find(|c| c["requests"].as_u64() == Some(2))
        .unwrap_or_else(|| panic!("held connection not visible: {body}"));
    assert_eq!(held_entry["state"], "open", "{body}");
    assert_eq!(held_entry["reused"], Json::Bool(true), "{body}");

    // Loop wakes and queue waits actually happened.
    let (_, _, metrics) = request(run.addr, "GET", "/metrics", &[], "");
    let wakes = metrics
        .lines()
        .find(|l| l.starts_with("xclean_loop_lag_seconds_count"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("loop-lag count series present");
    assert!(wakes >= 1, "{metrics}");
    let waits = metrics
        .lines()
        .find(|l| l.starts_with("xclean_queue_wait_seconds_count"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("queue-wait count series present");
    assert!(waits >= 2, "{metrics}");

    // The flight recorder saw the connection open and its dispatches.
    let (status, _, flight) = request(run.addr, "GET", "/debug/flight?events=100", &[], "");
    assert_eq!(status, 200);
    assert!(flight.contains("\"conn_open\""), "{flight}");
    assert!(flight.contains("\"dispatch\""), "{flight}");

    // /statusz tracks the open connections (the held one and its own).
    let (_, _, statusz) = request(run.addr, "GET", "/statusz", &[], "");
    assert!(statusz.contains("connections: open=2 "), "{statusz}");

    drop(held);
    run.stop();
}
