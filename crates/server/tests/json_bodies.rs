//! Every body the server writes, route by route, success and error
//! replies both: each JSON body parses with the strict codec, and the
//! bodies whose bytes are a contract — `/suggest` (GET, POST single,
//! POST batch), `/debug/explain` and every error reply — match
//! `fixtures/served_bodies.txt` byte for byte, score bits included.
//! Explain's wall-clock fields are zeroed before the comparison.
//!
//! The inputs carry `"`, `\`, U+0001, tab and multi-byte UTF-8, in query
//! text, paths, parameters and the `X-Request-Id` header.
//!
//! Linux-only, like everything that calls `SuggestServer::run`.

#![cfg(target_os = "linux")]

mod common;

use std::sync::Arc;

use xclean::{XCleanConfig, XCleanEngine};
use xclean_index::{partition_corpus, CorpusIndex};
use xclean_server::{ServerConfig, SuggestServer};
use xclean_telemetry::json;
use xclean_xmltree::parse_document;

use common::{header, request_with};

const DEFAULT_XML: &str = "<db>\
    <rec><t>health insurance markets</t><a>schütze</a></rec>\
    <rec><t>health policy café</t><a>müller</a></rec>\
    <rec><t>naïve insurance café</t><a>schütze</a></rec>\
</db>";

const DBLP_XML: &str = "<dblp>\
    <article><author>jones</author><title>program instance analysis</title></article>\
    <article><author>smith</author><title>program semantics café</title></article>\
    <article><author>brown</author><title>instance retrieval</title></article>\
    <article><author>müller</author><title>naïve program retrieval</title></article>\
</dblp>";

/// A trace ID with every character class the escaper handles.
const NASTY_ID: &str = "id\"q\\b\u{1}\tend-é";

/// `(label, method, path, body, status, golden)`: one request and the
/// status it must get; `golden` bodies are compared byte for byte with
/// the fixture.
type Case = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    u16,
    bool,
);

const CASES: &[Case] = &[
    // Served suggestions: a miss, the same answer as a hit, a named
    // unsharded and a named sharded corpus, both POST forms.
    (
        "get_miss",
        "GET",
        "/suggest?q=helth+%22insurnce%5C%01%09+sch%C3%BCtz",
        "",
        200,
        true,
    ),
    (
        "get_hit",
        "GET",
        "/suggest?q=helth+%22insurnce%5C%01%09+sch%C3%BCtz",
        "",
        200,
        true,
    ),
    (
        "get_cafe",
        "GET",
        "/suggest/default?q=cafe+polcy",
        "",
        200,
        true,
    ),
    (
        "get_sharded",
        "GET",
        "/suggest/dblp?q=progrm+naive",
        "",
        200,
        true,
    ),
    ("get_none", "GET", "/suggest?q=zzzz+qqqq", "", 200, true),
    (
        "post_single",
        "POST",
        "/suggest",
        r#"{"query": "helth \"insurnce\\ \u0001\t schütz"}"#,
        200,
        true,
    ),
    (
        "post_batch",
        "POST",
        "/suggest/dblp",
        r#"{"queries": ["progrm\tinstanc", "café \"semantcs\"", "\u0001\\", "müler retrival"]}"#,
        200,
        true,
    ),
    (
        "explain",
        "GET",
        "/debug/explain?q=naive+insurnce+cafe",
        "",
        200,
        true,
    ),
    (
        "explain_sharded",
        "GET",
        "/debug/explain?corpus=dblp&q=progrm+caf%C3%A9",
        "",
        200,
        true,
    ),
    // Every error reply.
    ("missing_q", "GET", "/suggest", "", 400, true),
    ("bad_percent", "GET", "/suggest?q=%zz", "", 400, true),
    (
        "no_keywords",
        "GET",
        "/suggest?q=%22%5C%01%09",
        "",
        400,
        true,
    ),
    (
        "bad_json",
        "POST",
        "/suggest",
        "{\"query\": \"a\u{1}\"}",
        400,
        true,
    ),
    (
        "post_no_keywords",
        "POST",
        "/suggest",
        r#"{"query": "\"\\\u0001\t"}"#,
        400,
        true,
    ),
    (
        "both",
        "POST",
        "/suggest",
        r#"{"query": "a", "queries": ["b"]}"#,
        400,
        true,
    ),
    (
        "query_type",
        "POST",
        "/suggest",
        r#"{"query": 7}"#,
        400,
        true,
    ),
    (
        "queries_type",
        "POST",
        "/suggest",
        r#"{"queries": ["a", 1]}"#,
        400,
        true,
    ),
    ("neither", "POST", "/suggest", "[1]", 400, true),
    ("suggest_method", "DELETE", "/suggest", "", 405, true),
    (
        "unknown_corpus",
        "GET",
        "/suggest/a\"b\\c\u{1}é?q=x",
        "",
        404,
        true,
    ),
    ("not_found", "GET", "/nope", "", 404, true),
    ("method", "DELETE", "/metrics", "", 405, true),
    ("bad_count", "GET", "/debug/requests?n=-1", "", 400, true),
    (
        "huge_count",
        "GET",
        "/debug/flight?events=1000001",
        "",
        400,
        true,
    ),
    (
        "requests_corpus",
        "GET",
        "/debug/requests?corpus=a\"b\\\u{1}é",
        "",
        400,
        true,
    ),
    (
        "explain_corpus",
        "GET",
        "/debug/explain?corpus=n\"o\\pe&q=x",
        "",
        404,
        true,
    ),
    (
        "explain_missing_q",
        "GET",
        "/debug/explain?corpus=dblp",
        "",
        400,
        true,
    ),
    ("malformed", "GET", "/x HTTP/2.0", "", 400, true),
    // Bodies whose values move run to run: parsed, not compared.
    ("healthz", "GET", "/healthz", "", 200, false),
    ("requests", "GET", "/debug/requests?n=1000", "", 200, false),
    (
        "requests_dblp",
        "GET",
        "/debug/requests?corpus=dblp",
        "",
        200,
        false,
    ),
    ("conns", "GET", "/debug/conns", "", 200, false),
    ("flight", "GET", "/debug/flight?events=100", "", 200, false),
];

/// Explain keys whose values are wall-clock nanoseconds.
const TIMING_KEYS: [&str; 5] = ["slot", "walk", "rank", "total", "scatter_nanos"];

/// `body` with every timing value replaced by `0`.
fn zero_timings(body: &str) -> String {
    let mut out = body.to_string();
    for key in TIMING_KEYS {
        let needle = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&needle) {
            let start = from + at + needle.len();
            let digits = out[start..].bytes().take_while(u8::is_ascii_digit).count();
            out.replace_range(start..start + digits, "0");
            from = start + 1;
        }
    }
    out
}

fn start() -> (
    std::net::SocketAddr,
    xclean_server::ShutdownFlag,
    std::thread::JoinHandle<()>,
) {
    let default = XCleanEngine::new(
        parse_document(DEFAULT_XML).unwrap(),
        XCleanConfig::default(),
    );
    let dblp = CorpusIndex::build(parse_document(DBLP_XML).unwrap());
    let shards = partition_corpus(&dblp, 2, 7).unwrap();
    let sharded = XCleanEngine::from_shards(shards, XCleanConfig::default()).unwrap();
    let server = SuggestServer::bind_tenants(
        vec![
            ("default".to_string(), Arc::clone(default.pipeline())),
            ("dblp".to_string(), Arc::clone(sharded.pipeline())),
        ],
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let join = std::thread::spawn(move || {
        server.run().unwrap();
    });
    (addr, flag, join)
}

#[test]
fn every_body_is_strict_json_and_the_served_bytes_match_the_goldens() {
    let (addr, flag, join) = start();
    let mut served = String::new();
    for &(label, method, path, request_body, want_status, golden) in CASES {
        let headers = [("X-Request-Id", NASTY_ID)];
        let (status, reply_headers, body) =
            request_with(addr, method, path, &headers, request_body);
        assert_eq!(status, want_status, "{label}: {body}");
        let content_type = header(&reply_headers, "content-type");
        assert_eq!(content_type, Some("application/json"), "{label}");
        let parsed = json::parse(&body).unwrap_or_else(|e| panic!("{label}: {e}: {body}"));
        if status >= 400 {
            assert_eq!(parsed["error"]["code"].as_u64(), Some(u64::from(status)));
            assert!(parsed["error"]["message"].as_str().is_some(), "{body}");
        }
        if golden {
            served.push_str(&format!("{label} {status} {}\n", zero_timings(&body)));
        }
    }

    // The escaped inputs come back as the text that went in.
    let (_, _, body) = request_with(addr, "GET", "/debug/requests?n=1000", &[], "");
    let ring = json::parse(&body).unwrap();
    let records = ring["requests"].as_array().unwrap();
    let nasty = records.iter().filter(|r| r["trace_id"] == NASTY_ID).count();
    // The malformed request's headers are never read, so its ID is generated.
    assert_eq!(nasty, CASES.len() - 1, "{body}");
    let (_, _, body) = request_with(addr, "GET", "/healthz", &[], "");
    let health = json::parse(&body).unwrap();
    let corpora = health["corpora"].as_array().unwrap();
    let names: Vec<&str> = corpora
        .iter()
        .map(|c| c["name"].as_str().unwrap())
        .collect();
    assert_eq!(names, ["default", "dblp"]);

    // The exemplar page was deleted: its path is the plain unknown-path
    // 404 to every method.
    let (_, _, nope) = request_with(addr, "GET", "/nope", &[], "");
    for method in ["GET", "DELETE"] {
        let (status, _, body) = request_with(addr, method, "/debug/exemplars", &[], "");
        assert_eq!((status, body.as_str()), (404, nope.as_str()), "{method}");
    }

    flag.trigger();
    join.join().unwrap();

    let expected = include_str!("fixtures/served_bodies.txt");
    for (line, (got, want)) in served.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {}", line + 1);
    }
    assert_eq!(served.lines().count(), expected.lines().count());
}
