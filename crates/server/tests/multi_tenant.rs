//! End-to-end multi-tenant serving over real sockets (DESIGN.md §16):
//! one `SuggestServer` fronting a catalog of two corpora — one plain,
//! one a shard set — exercised through `/suggest/<name>`
//! routing, the structured unknown-corpus 404, per-corpus response-cache
//! isolation, and the per-corpus observability surfaces (`/healthz`,
//! `/statusz`, `/metrics`).
//!
//! Linux-only, like everything that calls `SuggestServer::run`.

#![cfg(target_os = "linux")]

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use xclean::{XCleanConfig, XCleanEngine};
use xclean_index::{partition_corpus, CorpusIndex};
use xclean_server::{DrainReport, ServerConfig, ShutdownFlag, SuggestServer, TenantSet};
use xclean_telemetry::{json, names, MetricsRegistry};
use xclean_xmltree::parse_document;

use common::conformance::{check_page, series_identities};
use common::{header, request};

/// The primary corpus. Deliberately a different *shape* (token count)
/// from the dblp corpus: engine fingerprints hash corpus shape, and the
/// cache-isolation assertions below rely on the two differing.
fn default_corpus() -> CorpusIndex {
    let xml = "<db>\
        <rec><t>health insurance markets</t></rec>\
        <rec><t>health policy</t></rec>\
    </db>";
    CorpusIndex::build(parse_document(xml).unwrap())
}

fn dblp_corpus() -> CorpusIndex {
    let xml = "<dblp>\
        <article><author>jones</author><title>program instance analysis</title></article>\
        <article><author>smith</author><title>program semantics</title></article>\
        <article><author>brown</author><title>instance retrieval</title></article>\
    </dblp>";
    CorpusIndex::build(parse_document(xml).unwrap())
}

struct Running {
    addr: std::net::SocketAddr,
    flag: ShutdownFlag,
    join: std::thread::JoinHandle<DrainReport>,
    /// What `serve --metrics-json` holds on to across `run`.
    metrics: MetricsRegistry,
    tenants: Arc<TenantSet>,
}

impl Running {
    fn spawn(server: SuggestServer) -> Running {
        Running {
            addr: server.local_addr().unwrap(),
            flag: server.shutdown_flag(),
            metrics: server.metrics().clone(),
            tenants: Arc::clone(server.tenants()),
            join: std::thread::spawn(move || server.run().unwrap()),
        }
    }
}

/// Starts a two-tenant server: `default` unsharded, `dblp` served by a
/// two-shard set.
fn start() -> Running {
    let default_engine = XCleanEngine::from_corpus(default_corpus(), XCleanConfig::default());
    let shards = partition_corpus(&dblp_corpus(), 2, 7).unwrap();
    let dblp_engine = XCleanEngine::from_shards(shards, XCleanConfig::default()).unwrap();
    let server = SuggestServer::bind_tenants(
        vec![
            ("default".to_string(), Arc::new(default_engine)),
            ("dblp".to_string(), Arc::new(dblp_engine)),
        ],
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    Running::spawn(server)
}

fn stop(r: Running) -> DrainReport {
    r.flag.trigger();
    r.join.join().unwrap()
}

#[test]
fn routes_by_corpus_and_isolates_caches() {
    let r = start();

    // Each corpus answers from its own index.
    let (status, _, body) = request(r.addr, "GET", "/suggest/default?q=helth", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("health"), "{body}");
    let (status, _, body) = request(r.addr, "GET", "/suggest/dblp?q=progrm", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("program"), "{body}");
    assert!(
        !body.contains("health"),
        "dblp must not see the default corpus: {body}"
    );

    // Bare /suggest is the primary tenant: same bytes, shared cache —
    // the named route primed it, so the bare route hits.
    let (_, h1, b1) = request(r.addr, "GET", "/suggest/default?q=helth", "");
    assert_eq!(header(&h1, "x-cache"), Some("hit"));
    let (_, h2, b2) = request(r.addr, "GET", "/suggest?q=helth", "");
    assert_eq!(header(&h2, "x-cache"), Some("hit"));
    assert_eq!(
        b1, b2,
        "bare and named primary routes must serve identical bytes"
    );

    // The same query against the other corpus is a miss: caches are
    // partitioned per tenant.
    let (_, h, _) = request(r.addr, "GET", "/suggest/dblp?q=helth", "");
    assert_eq!(header(&h, "x-cache"), Some("miss"));

    // POST batch against a named corpus.
    let (status, _, body) = request(
        r.addr,
        "POST",
        "/suggest/dblp",
        r#"{"queries": ["progrm instanc", "semantcs"]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("results"), "{body}");

    let report = stop(r);
    assert!(report.requests >= 6);
}

#[test]
fn unknown_corpus_is_a_structured_json_404_with_request_id() {
    let r = start();
    for (method, body) in [("GET", ""), ("POST", r#"{"query": "x"}"#)] {
        let (status, headers, payload) = request(r.addr, method, "/suggest/nope?q=x", body);
        assert_eq!(status, 404, "{method}: {payload}");
        let v = json::parse(&payload)
            .unwrap_or_else(|e| panic!("{method}: 404 body must be JSON ({e}): {payload}"));
        assert_eq!(
            v["error"]["code"].as_u64(),
            Some(404),
            "{method}: {payload}"
        );
        assert!(
            v["error"]["message"]
                .as_str()
                .unwrap()
                .contains("no such corpus"),
            "{method}: {payload}"
        );
        assert!(
            header(&headers, "x-request-id").is_some(),
            "{method}: 404 must carry X-Request-Id"
        );
    }
    // A trailing-slash empty name is unknown too, not a crash.
    let (status, _, _) = request(r.addr, "GET", "/suggest/?q=x", "");
    assert_eq!(status, 404);
    stop(r);
}

#[test]
fn observability_surfaces_cover_every_corpus() {
    let r = start();
    let _ = request(r.addr, "GET", "/suggest/dblp?q=progrm", "");
    let _ = request(r.addr, "GET", "/suggest/default?q=helth", "");

    let (status, _, healthz) = request(r.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(healthz.contains("\"corpora\""), "{healthz}");
    assert!(healthz.contains("\"default\""), "{healthz}");
    assert!(healthz.contains("\"dblp\""), "{healthz}");
    // Neither corpus is served from a file: one is built in memory, the
    // other read back from its shard set.
    let health = json::parse(&healthz).unwrap();
    for row in health["corpora"].as_array().unwrap() {
        assert_eq!(row.get("snapshot"), Some(&json::Json::Null), "{healthz}");
    }

    let (status, _, statusz) = request(r.addr, "GET", "/statusz", "");
    assert_eq!(status, 200);
    assert!(statusz.contains("corpus[default]:"), "{statusz}");
    assert!(statusz.contains("corpus[dblp]:"), "{statusz}");

    let (status, _, metrics) = request(r.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for series in [
        "xclean_server_corpus_requests_total{corpus=\"default\"} 1\n",
        "xclean_server_corpus_requests_total{corpus=\"dblp\"} 1\n",
        "xclean_queries_total{corpus=\"dblp\"} 1\n",
        "xclean_server_corpus_cache_entries{corpus=\"dblp\"} 1\n",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }
    stop(r);
}

/// A corpus's request and error counters count exactly the ring records
/// tagged with its name: hits, misses, batches, routed errors and
/// explain traces alike.
#[test]
fn corpus_counters_agree_with_the_ring() {
    let r = start();
    for (corpus, q) in [("default", "helth"), ("dblp", "progrm")] {
        let path = format!("/suggest/{corpus}");
        let traffic = [
            ("GET", format!("{path}?q={q}"), String::new(), 200),
            ("GET", format!("{path}?q={q}"), String::new(), 200),
            (
                "POST",
                path.clone(),
                format!(r#"{{"queries": ["{q}"]}}"#),
                200,
            ),
            ("GET", path.clone(), String::new(), 400),
            ("DELETE", format!("{path}?q={q}"), String::new(), 405),
            (
                "GET",
                format!("/debug/explain?corpus={corpus}&q={q}"),
                String::new(),
                200,
            ),
        ];
        for (method, target, body, want) in traffic {
            let (status, _, reply) = request(r.addr, method, &target, &body);
            assert_eq!(status, want, "{method} {target}: {reply}");
        }
    }
    let (_, _, metrics) = request(r.addr, "GET", "/metrics", "");
    for corpus in ["default", "dblp"] {
        let target = format!("/debug/requests?corpus={corpus}&n=1000");
        let (_, _, body) = request(r.addr, "GET", &target, "");
        let ring = json::parse(&body).unwrap();
        let records = ring["requests"].as_array().unwrap();
        let errors = records
            .iter()
            .filter(|rec| rec["status"].as_u64().unwrap() >= 400)
            .count();
        assert_eq!((records.len(), errors), (6, 2), "{body}");
        for (family, n) in [
            (names::CORPUS_REQUESTS, records.len()),
            (names::CORPUS_ERRORS, errors),
        ] {
            let line = format!("{family}{{corpus=\"{corpus}\"}} {n}\n");
            assert!(metrics.contains(&line), "missing {line:?} in:\n{metrics}");
        }
    }
    stop(r);
}

#[test]
fn sharded_tenant_matches_unsharded_engine_over_http() {
    // The serving layer must not perturb the sharded result: a
    // one-tenant sharded server and a one-tenant unsharded server over
    // the same corpus return byte-identical response bodies.
    let unsharded = SuggestServer::bind(
        Arc::new(XCleanEngine::from_corpus(
            dblp_corpus(),
            XCleanConfig::default(),
        )),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let shards = partition_corpus(&dblp_corpus(), 2, 7).unwrap();
    let sharded = SuggestServer::bind_tenants(
        vec![(
            "default".to_string(),
            Arc::new(XCleanEngine::from_shards(shards, XCleanConfig::default()).unwrap()),
        )],
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let running = [unsharded, sharded].map(Running::spawn);
    for q in ["progrm", "instanc+retrieval", "semantcs"] {
        let (s1, _, b1) = request(running[0].addr, "GET", &format!("/suggest?q={q}"), "");
        let (s2, _, b2) = request(running[1].addr, "GET", &format!("/suggest?q={q}"), "");
        assert_eq!(s1, 200);
        assert_eq!(s2, 200);
        assert_eq!(b1, b2, "q={q}: sharded body diverged");
    }
    for r in running {
        stop(r);
    }
}

#[test]
fn sharded_tenant_records_one_snapshot_open_sample_per_shard() {
    // Cold-start cost must show up for sharded tenants too: every shard
    // snapshot opened contributes one open and one validate sample to
    // the tenant's registry (the one `/metrics` renders).
    let dir = std::env::temp_dir().join(format!("xclean-multi-tenant-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shards = partition_corpus(&dblp_corpus(), 3, 7).unwrap();
    let paths: Vec<_> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let path = dir.join(format!("shard-{i}.xci"));
            xclean_index::storage::save_to_file_v2(shard, &path).unwrap();
            path
        })
        .collect();
    let engine = XCleanEngine::load_snapshots(&paths, XCleanConfig::default()).unwrap();
    let server = SuggestServer::bind_tenants(
        vec![("dblp".to_string(), Arc::new(engine))],
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let tenant = server.tenants().primary();
    for name in [names::SNAPSHOT_OPEN, names::SNAPSHOT_VALIDATE] {
        let samples = tenant.engine().metrics().histogram_summary(name);
        assert_eq!(samples.map(|s| s.count), Some(3), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The scripted traffic the page and record tests share: a miss and a hit on
/// `dblp`, an unknown-corpus 404, and a two-query batch on `default` —
/// four requests, one error, three engine runs.
fn scripted_traffic(r: &Running) {
    let (_, h, _) = request(r.addr, "GET", "/suggest/dblp?q=progrm", "");
    assert_eq!(header(&h, "x-cache"), Some("miss"));
    let (_, h, _) = request(r.addr, "GET", "/suggest/dblp?q=progrm", "");
    assert_eq!(header(&h, "x-cache"), Some("hit"));
    let (status, _, _) = request(r.addr, "GET", "/suggest/nope?q=x", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(
        r.addr,
        "POST",
        "/suggest/default",
        r#"{"queries": ["helth insurnce", "polcy"]}"#,
    );
    assert_eq!(status, 200);
}

/// The live `/metrics` page is one conformant document on which every
/// series has one owner: the server's own families appear once and
/// unlabelled, every engine and cache family once per corpus and never
/// unlabelled, and the per-corpus numbers are the engine's own — the
/// page used to show the first catalog entry's registry only, so a query
/// answered by `dblp` was on no engine counter at all.
#[test]
fn metrics_page_is_one_document_and_keeps_every_series() {
    let r = start();
    scripted_traffic(&r);
    let (status, _, metrics) = request(r.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    stop(r);

    let samples = check_page(&metrics);
    let expected: Vec<&str> = include_str!("fixtures/metrics_series_pr24.txt")
        .lines()
        .collect();
    assert_eq!(expected.len(), 90, "the fixture lost lines");
    assert_eq!(series_identities(&samples), expected, "page:\n{metrics}");
    assert_eq!(metrics.matches("# TYPE ").count(), 34, "page:\n{metrics}");

    // Exact where no `Instant` is involved: the server's families
    // unlabelled, each corpus's engine and cache under its own label.
    for line in [
        "xclean_server_requests_total 4\n",
        "xclean_server_errors_total 1\n",
        "xclean_server_request_nanos_count 4\n",
        "xclean_server_connections_open 1\n",
        "xclean_queries_total{corpus=\"dblp\"} 1\n",
        "xclean_queries_total{corpus=\"default\"} 2\n",
        "xclean_server_cache_hits_total{corpus=\"dblp\"} 1\n",
        "xclean_server_cache_misses_total{corpus=\"dblp\"} 1\n",
        "xclean_server_cache_hits_total{corpus=\"default\"} 0\n",
        "xclean_server_cache_evictions_total{corpus=\"dblp\"} 0\n",
        "xclean_stage_walk_nanos_count{corpus=\"dblp\"} 1\n",
        "xclean_stage_walk_nanos_count{corpus=\"default\"} 2\n",
        "xclean_server_corpus_requests_total{corpus=\"dblp\"} 2\n",
        "xclean_server_corpus_errors_total{corpus=\"default\"} 0\n",
    ] {
        assert!(metrics.contains(line), "missing {line:?} in:\n{metrics}");
    }

    // Every engine run is one cache miss, summed over corpora.
    let sum_of = |family: &str| -> u64 {
        let of_family = samples.iter().filter(|s| s.name == family);
        of_family.map(|s| s.value.parse::<u64>().unwrap()).sum()
    };
    assert_eq!(sum_of(names::QUERIES), 3);
    assert_eq!(sum_of(names::QUERIES), sum_of(names::CACHE_MISSES));

    // One owner per series: no family occurs both with and without a
    // `corpus` label; the server's families never carry one, the engine
    // and cache families always do, once per corpus.
    let mut corpora_of: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for s in &samples {
        let corpus = s.labels.iter().find(|(k, _)| k == "corpus");
        let corpus = corpus.map(|(_, v)| v.as_str());
        corpora_of.entry(&s.name).or_default().insert(corpus);
    }
    let unlabelled = [
        names::SERVER_REQUESTS,
        names::SERVER_ERRORS,
        names::SERVER_REQUEST,
        names::CONNECTIONS_OPENED,
        names::CONNECTIONS_CLOSED,
        names::CONNECTIONS_OPEN,
        names::KEEPALIVE_REUSE,
        names::LOOP_LAG_SECONDS,
        names::QUEUE_WAIT_SECONDS,
        names::EVENTS_PER_WAKE,
        names::WORKER_UTILIZATION,
    ];
    let both: BTreeSet<Option<&str>> = [Some("dblp"), Some("default")].into();
    for (name, corpora) in &corpora_of {
        // A histogram's series are `family_bucket|_sum|_count`.
        if unlabelled.iter().any(|family| name.starts_with(family)) {
            assert_eq!(*corpora, [None].into(), "{name} must be unlabelled");
        } else {
            assert_eq!(*corpora, both, "{name} must appear once per corpus");
        }
    }

    // Every family on the page is written once in `names` (its HELP line
    // is its table row, never the fallback).
    for line in metrics.lines().filter(|l| l.starts_with("# HELP ")) {
        let family = line.split(' ').nth(2).unwrap();
        let help = names::help_for(family);
        assert_ne!(help, "XClean metric.", "{family} has no table row");
        assert_eq!(line, format!("# HELP {family} {help}"));
    }
}

/// `serve --metrics-json` writes the same registries the page collects:
/// the server's own under `server`, every catalog entry under
/// `corpora` — and the server's request count is the drain report's.
#[test]
fn metrics_json_covers_the_server_and_every_catalog_entry() {
    let r = start();
    scripted_traffic(&r);
    let (metrics, tenants) = (r.metrics.clone(), Arc::clone(&r.tenants));
    let report = stop(r);
    let doc = json::parse(&tenants.metrics_json(&metrics).render()).expect("the document is JSON");
    let server = &doc["server"]["counters"];
    assert_eq!(report.requests, 4);
    assert_eq!(
        server[names::SERVER_REQUESTS].as_u64(),
        Some(report.requests)
    );
    assert_eq!(server[names::SERVER_ERRORS].as_u64(), Some(report.errors));
    assert!(doc["server"]["histograms"][names::SERVER_REQUEST]["p99"]
        .as_u64()
        .is_some());
    let json::Json::Obj(corpora) = &doc["corpora"] else {
        panic!("corpora is not an object: {doc:?}");
    };
    let names_seen: Vec<&str> = corpora.iter().map(|(k, _)| k.as_ref()).collect();
    assert_eq!(names_seen, ["default", "dblp"], "catalog order");
    let queries = |corpus: &str| doc["corpora"][corpus]["counters"][names::QUERIES].as_u64();
    assert_eq!(queries("dblp"), Some(1));
    assert_eq!(queries("default"), Some(2));
    let hits: u64 = ["default", "dblp"]
        .iter()
        .map(|c| {
            doc["corpora"][*c]["counters"][names::CACHE_HITS]
                .as_u64()
                .unwrap()
        })
        .sum();
    assert_eq!(hits, report.cache_hits);
    assert!(
        doc["corpora"]["dblp"]["histograms"][names::STAGE_WALK]["count"].as_u64() == Some(1),
        "{doc:?}"
    );
}
