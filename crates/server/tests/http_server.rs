//! In-process end-to-end tests: a real `SuggestServer` on an ephemeral
//! port, exercised over real sockets — single and batch suggestions,
//! the cached hot path (bit-identical bodies, hit-counter growth),
//! malformed inputs, oversized bodies, and graceful drain.
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
use xclean_telemetry::json;
use xclean_xmltree::parse_document;

use common::{header, request};

fn engine() -> Arc<XCleanEngine> {
    let xml = "<dblp>\
        <article><author>jones</author><title>health insurance markets</title></article>\
        <article><author>smith</author><title>program instance analysis</title></article>\
    </dblp>";
    Arc::new(XCleanEngine::new(
        parse_document(xml).unwrap(),
        XCleanConfig::default(),
    ))
}

/// A running server plus the handles the tests need.
struct Running {
    addr: std::net::SocketAddr,
    flag: ShutdownFlag,
    join: std::thread::JoinHandle<DrainReport>,
}

fn start(config: ServerConfig) -> Running {
    let server = SuggestServer::bind(engine(), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let join = std::thread::spawn(move || server.run().unwrap());
    Running { addr, flag, join }
}

#[test]
fn serves_suggestions_hits_cache_and_drains() {
    let run = start(ServerConfig {
        threads: 2,
        cache_entries: 64,
        ..Default::default()
    });

    // Health first.
    let (status, _, body) = request(run.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health = json::parse(&body).unwrap();
    assert_eq!(health["status"], "ok");
    assert_eq!(health["cache"]["entries"].as_u64(), Some(0));

    // Cold query: a miss that computes and caches.
    let (status, headers, first) = request(
        run.addr,
        "POST",
        "/suggest",
        r#"{"query": "helth insurance"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("miss"));
    let v = json::parse(&first).unwrap();
    assert_eq!(v["query"], "helth insurance");
    assert_eq!(v["suggestions"][0]["query"], "health insurance");
    assert_eq!(v["suggestions"][0]["terms"][0], "health");
    assert_eq!(v["suggestions"][0]["distances"][0].as_u64(), Some(1));
    assert!(v["suggestions"][0]["entities"].as_u64().unwrap() > 0);
    assert!(v["suggestions"][0]["log_score"].as_f64().unwrap() < 0.0);

    // Repeat: served from cache, byte-identical body.
    let (status, headers, second) = request(
        run.addr,
        "POST",
        "/suggest",
        r#"{"query": "helth insurance"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hit"));
    assert_eq!(first, second, "cached response must be bit-identical");

    // Batch: mixed hit/miss, results in request order.
    let (status, headers, body) = request(
        run.addr,
        "POST",
        "/suggest",
        r#"{"queries": ["helth insurance", "program instence"]}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-cache"), Some("hits=1 misses=1"));
    let v = json::parse(&body).unwrap();
    let results = v["results"].as_array().unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0]["query"], "helth insurance");
    assert_eq!(results[1]["suggestions"][0]["query"], "program instance");

    // Metrics expose the cache counters.
    let (status, _, metrics) = request(run.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("xclean_server_cache_hits_total{corpus=\"default\"} 2\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("xclean_queries_total{corpus=\"default\"} 2\n"),
        "{metrics}"
    );
    assert!(metrics.contains("xclean_server_request_nanos"), "{metrics}");

    // Malformed body: structured JSON error, server keeps going.
    let (status, _, body) = request(run.addr, "POST", "/suggest", "{definitely not json");
    assert_eq!(status, 400);
    let v = json::parse(&body).unwrap();
    assert_eq!(v["error"]["code"].as_u64(), Some(400));
    assert!(v["error"]["message"]
        .as_str()
        .unwrap()
        .contains("invalid JSON"));

    // Unknown endpoint and wrong method.
    let (status, _, _) = request(run.addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, body) = request(run.addr, "GET", "/suggest", "");
    assert_eq!(status, 400, "GET /suggest without ?q= is missing its query");
    assert!(body.contains("missing q parameter"), "{body}");
    let (status, _, _) = request(run.addr, "DELETE", "/suggest", "");
    assert_eq!(status, 405);

    // Graceful drain: trigger the flag, run() returns with totals.
    run.flag.trigger();
    let report = run.join.join().unwrap();
    assert_eq!(report.cache_hits, 2);
    assert_eq!(report.cache_misses, 2); // cold single + batch miss
    assert!(report.requests >= 8, "{report:?}");
    assert!(report.errors >= 3, "{report:?}");

    // After drain the port no longer answers.
    assert!(TcpStream::connect_timeout(&run.addr, Duration::from_millis(300)).is_err());
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let run = start(ServerConfig {
        threads: 1,
        max_body_bytes: 64,
        ..Default::default()
    });
    let big = format!(r#"{{"query": "{}"}}"#, "x".repeat(1024));
    let (status, _, body) = request(run.addr, "POST", "/suggest", &big);
    assert_eq!(status, 413);
    let v = json::parse(&body).unwrap();
    assert_eq!(v["error"]["code"].as_u64(), Some(413));
    run.flag.trigger();
    run.join.join().unwrap();
}

#[test]
fn raw_garbage_connection_gets_400_not_a_crash() {
    let run = start(ServerConfig {
        threads: 1,
        ..Default::default()
    });
    let mut stream = TcpStream::connect(run.addr).unwrap();
    stream
        .write_all(b"\x01\x02 utter nonsense\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    // The server still answers afterwards.
    let (status, _, _) = request(run.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    run.flag.trigger();
    run.join.join().unwrap();
}

#[test]
fn responses_identical_across_cache_and_threads() {
    // The same query answered cold (one server) and warm (another
    // server, after priming) must produce identical bodies — the cache
    // can never change what a client sees.
    let cold = start(ServerConfig {
        threads: 1,
        cache_entries: 0, // cache disabled: always computed
        ..Default::default()
    });
    let warm = start(ServerConfig {
        threads: 4,
        cache_entries: 128,
        ..Default::default()
    });
    for q in ["helth insurance", "program instence", "zzz", "smith"] {
        let body = format!(r#"{{"query": "{q}"}}"#);
        let (_, _, uncached) = request(cold.addr, "POST", "/suggest", &body);
        let (_, h1, warm1) = request(warm.addr, "POST", "/suggest", &body);
        let (_, h2, warm2) = request(warm.addr, "POST", "/suggest", &body);
        assert_eq!(header(&h1, "x-cache"), Some("miss"));
        assert_eq!(header(&h2, "x-cache"), Some("hit"));
        assert_eq!(uncached, warm1, "{q}");
        assert_eq!(warm1, warm2, "{q}");
    }
    for run in [cold, warm] {
        run.flag.trigger();
        run.join.join().unwrap();
    }
}

/// Each request is counted once wherever it is answered: a hit on the
/// loop thread bumps the hit counter, the tenant's request counter and
/// the ring once and never reaches the pool; a miss is counted once, by
/// the worker that computes it, and is the only kind of request that
/// waits in the pool's queue.
#[test]
fn hits_and_misses_are_each_counted_once() {
    let server = SuggestServer::bind(
        engine(),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            cache_entries: 64,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let tenants = Arc::clone(server.tenants());
    let obs = server.observability();
    let join = std::thread::spawn(move || server.run().unwrap());

    let queries = [
        "helth", "smith", "helth", "program", "jones", "smith", "helth", "instence",
    ];
    let n = queries.len() as u64;
    let k = 3; // repeats: helth ×2, smith ×1
    for q in queries {
        let (status, _, _) = request(addr, "GET", &format!("/suggest?q={q}"), "");
        assert_eq!(status, 200, "{q}");
    }
    flag.trigger();
    let report = join.join().unwrap();
    assert_eq!(
        (report.cache_hits, report.cache_misses),
        (k, n - k),
        "{report:?}"
    );
    assert_eq!(tenants.primary().requests().get(), n);
    assert_eq!(report.requests, n, "{report:?}");
    assert_eq!(obs.total_observed(), n);
    assert_eq!(report.queue_waits, n - k, "only misses queue for the pool");
}
