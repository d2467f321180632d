//! The per-layer table: each layer's public functions timed and counted
//! from outside the product crates, on the same corpus and query pool the
//! end-to-end workloads use. Times are means per call unless the name
//! says otherwise, so the pieces of a query add up.
//!
//! Every probe runs in every traced run, whatever the workload: the
//! table is the same shape everywhere, and a change to one layer can be
//! read against all the others from any one of them.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use xclean::walk::walk_gated_subtrees;
use xclean::{run_xclean, KeywordSlot, RunStats, ShardedEngine, VariantGenerator, XCleanEngine};
use xclean_fastss::edit_distance_within;
use xclean_lm::{ErrorModel, LanguageModel};
use xclean_server::conn::{ConnEvent, ConnIo, Connection, Response};
use xclean_server::http::{self, Parsed};
use xclean_server::{json, CacheKey, ResponseCache};
use xclean_telemetry::{
    MetricsRegistry, RequestRecord, RequestRing, RollingWindows, RuntimeEventKind, RuntimeStats,
    WindowEvent,
};

use crate::client::suggest_request;
use crate::error::BenchError;
use crate::registry::Metrics;
use crate::rig::{Pool, Rig, ShardTimings};
use crate::serve::{http_pass, ServerHandle, CACHE_ENTRIES};
use crate::spans::{self_times, Recorder};
use crate::traced::{spanned_http_pass, ServedPool};

/// Request-body cap handed to the HTTP parser (the server's default).
const MAX_BODY_BYTES: usize = 1 << 20;

fn mean(total: f64, n: usize) -> f64 {
    total / n.max(1) as f64
}

/// Mean nanoseconds per call of `f` over `items`.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    mean(t.elapsed().as_nanos() as f64, items.len())
}

/// Cold-path numbers: the offline pipeline's stages as the rig timed
/// them, plus the FastSS build on its own.
pub fn offline(m: &mut Metrics, rig: &Rig, shards: &ShardTimings) {
    let o = &rig.offline;
    m.set("bench.datagen_s", o.datagen_s);
    m.set("xmltree.parse_s", o.parse_s);
    m.set("index.build_s", o.build_s);
    m.set("index.save_s", o.save_s);
    m.set("index.open_ms", o.open_ms);
    m.set("index.open_validate_ms", o.open_validate_ms);
    m.set("index.snapshot_bytes", o.snapshot_bytes as f64);
    m.set("xclean.engine_construct_ms", o.engine_construct_ms);
    m.set("xclean.first_query_ms", o.first_query_ms);
    m.set("bench.ready_s", o.ready_s);
    m.set("index.partition_s", shards.partition_s);
    m.set("xclean.sharded_load_ms", shards.load_ms);

    let config = rig.engine.config();
    let t = Instant::now();
    std::hint::black_box(VariantGenerator::build(
        rig.engine.corpus(),
        config.epsilon,
        config.partition_threshold,
    ));
    m.set("fastss.build_ms", t.elapsed().as_secs_f64() * 1e3);
}

/// What the engine probes hand to the sharded and server probes.
pub struct EngineProbe {
    /// Mean `suggest_keywords` latency over the pool, nanoseconds.
    pub mean_suggest_ns: f64,
}

/// Candidate generation, the bare list walk, scoring and ranking, each
/// over the whole pool.
pub fn engine(m: &mut Metrics, engine: &XCleanEngine, pool: &Pool) -> EngineProbe {
    let corpus = engine.corpus();
    let config = engine.config();
    let generator = engine.variant_generator();
    let n = pool.len();

    // fastss: variants per keyword, and the verification it rests on.
    let keywords: Vec<&String> = pool.dirty.iter().flatten().collect();
    let mut variants = 0usize;
    let per_keyword = mean_ns(&keywords, |k| {
        variants += std::hint::black_box(generator.variants_within(k, config.epsilon)).len();
    });
    m.set("fastss.variants_us_per_keyword", per_keyword / 1e3);
    m.set(
        "fastss.variants_per_keyword",
        mean(variants as f64, keywords.len()),
    );

    let slots: Vec<Vec<KeywordSlot>> = pool.dirty.iter().map(|q| engine.make_slots(q)).collect();
    let pairs: Vec<(&str, &str)> = slots
        .iter()
        .flatten()
        .flat_map(|s| {
            s.variants
                .iter()
                .map(|v| (s.keyword.as_str(), corpus.vocab().term(v.token)))
        })
        .collect();
    m.set(
        "fastss.edit_distance_ns_per_pair",
        mean_ns(&pairs, |(a, b)| {
            std::hint::black_box(edit_distance_within(a, b, config.epsilon));
        }),
    );
    m.set(
        "xclean.make_slots_us",
        mean_ns(&pool.dirty, |q| {
            std::hint::black_box(engine.make_slots(q));
        }) / 1e3,
    );

    // index: the gated anchor walk with nothing to score.
    m.set(
        "index.walk_bare_us",
        mean_ns(&slots, |s| {
            let mut stats = RunStats::default();
            walk_gated_subtrees(corpus, s, config, &mut stats, |_, _, _| {});
            std::hint::black_box(stats);
        }) / 1e3,
    );

    // xclean: Algorithm 1 on prebuilt slots, and the stats it returns.
    let mut total = RunStats::default();
    let run_ns = mean_ns(&slots, |s| {
        let stats = run_xclean(corpus, s, config).stats;
        total.subtrees += stats.subtrees;
        total.candidates_enumerated += stats.candidates_enumerated;
        total.result_type_computations += stats.result_type_computations;
        total.entities_scored += stats.entities_scored;
        total.access += stats.access;
        total.pruning.evictions += stats.pruning.evictions;
        total.pruning.rejected += stats.pruning.rejected;
        total.walk_nanos += stats.walk_nanos;
        total.rank_nanos += stats.rank_nanos;
    });
    let per_query = |v: u64| mean(v as f64, n);
    m.set("xclean.run_us", run_ns / 1e3);
    m.set("xclean.walk_ns", per_query(total.walk_nanos));
    m.set("xclean.rank_ns", per_query(total.rank_nanos));
    m.set("xclean.subtrees", per_query(total.subtrees));
    m.set("xclean.candidates", per_query(total.candidates_enumerated));
    m.set(
        "xclean.result_types",
        per_query(total.result_type_computations),
    );
    m.set("xclean.entities_scored", per_query(total.entities_scored));
    m.set("xclean.gamma_evictions", per_query(total.pruning.evictions));
    m.set("xclean.gamma_rejected", per_query(total.pruning.rejected));
    m.set(
        "xclean.result_type_ratio",
        total.result_type_computations as f64 / total.candidates_enumerated.max(1) as f64,
    );
    m.set("index.postings_read", per_query(total.access.read));
    m.set("index.postings_skipped", per_query(total.access.skipped));
    m.set("index.skip_calls", per_query(total.access.skip_calls));
    m.set(
        "index.skip_ratio",
        total.access.skipped as f64 / (total.access.read + total.access.skipped).max(1) as f64,
    );

    // The whole call: where the slowest 1 % of queries put the pool's time.
    let mut slot_nanos = 0u64;
    let mut latencies: Vec<u64> = pool
        .dirty
        .iter()
        .map(|q| {
            let t = Instant::now();
            let response = engine.suggest_keywords(q);
            let nanos = t.elapsed().as_nanos() as u64;
            slot_nanos += response.stats.slot_nanos;
            nanos
        })
        .collect();
    latencies.sort_unstable();
    let sum: u64 = latencies.iter().sum();
    let slowest: u64 = latencies[n - (n / 100).max(1)..].iter().sum();
    m.set("xclean.slot_ns", per_query(slot_nanos));
    m.set("xclean.top1pct_time_share", slowest as f64 / sum as f64);

    // lm: the two terms every scored contribution pays.
    let error_model = ErrorModel::new(config.beta);
    let language_model = LanguageModel::new(corpus, config.effective_smoothing());
    let terms: Vec<(xclean_index::TokenId, u32)> = slots
        .iter()
        .flatten()
        .flat_map(|s| s.variants.iter().map(|v| (v.token, v.distance)))
        .collect();
    m.set(
        "lm.score_ns_per_call",
        mean_ns(&terms, |&(token, distance)| {
            std::hint::black_box(
                error_model.log_weight(distance) + language_model.log_prob(token, 1, 12),
            );
        }),
    );

    EngineProbe {
        mean_suggest_ns: mean(sum as f64, n),
    }
}

/// Scatter, gather and skew of the 4-shard engine over the whole pool.
pub fn sharded(m: &mut Metrics, engine: &ShardedEngine, pool: &Pool, unsharded: &EngineProbe) {
    let (mut total, mut scatter, mut gather, mut contributions) = (0u64, 0u64, 0u64, 0u64);
    let (mut skew, mut skewed) = (0.0f64, 0usize);
    for q in &pool.dirty {
        let t = Instant::now();
        let response = engine.suggest_keywords(q);
        let nanos = t.elapsed().as_nanos() as u64;
        total += nanos;
        let per_shard: Vec<u64> = response
            .shard_stats
            .iter()
            .map(|s| s.scatter_nanos)
            .collect();
        let sum: u64 = per_shard.iter().sum();
        scatter += sum;
        gather += nanos.saturating_sub(response.stats.slot_nanos + sum);
        contributions += response
            .shard_stats
            .iter()
            .map(|s| s.contributions)
            .sum::<u64>();
        if sum > 0 {
            let max = *per_shard.iter().max().expect("non-empty") as f64;
            skew += max / (sum as f64 / per_shard.len() as f64);
            skewed += 1;
        }
    }
    let n = pool.len();
    m.set("xclean.sharded_scatter_us", mean(scatter as f64, n) / 1e3);
    m.set("xclean.sharded_gather_us", mean(gather as f64, n) / 1e3);
    m.set(
        "xclean.sharded_contributions",
        mean(contributions as f64, n),
    );
    m.set("xclean.shard_skew", mean(skew, skewed));
    m.set(
        "xclean.sharded_overhead_ratio",
        mean(total as f64, n) / unsharded.mean_suggest_ns,
    );
}

/// A `ConnIo` that serves one request's bytes, then `WouldBlock`, and
/// swallows whatever is written.
struct Scripted<'a> {
    unread: &'a [u8],
}

impl ConnIo for Scripted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.unread.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = self.unread.len().min(buf.len());
        buf[..n].copy_from_slice(&self.unread[..n]);
        self.unread = &self.unread[n..];
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
}

/// The headers the server attaches to a `/suggest` reply.
const REPLY_HEADERS: [(&str, &str); 2] =
    [("X-Request-Id", "5ca1ab1e-0-0000002a"), ("X-Cache", "miss")];

/// The in-process pieces of one served request, each timed on its own;
/// the serve workloads' traced windows attribute a round trip to them.
pub struct ShellPieces {
    cache: ResponseCache,
    ring: RequestRing,
    windows: RollingWindows,
    runtime: RuntimeStats,
    epoch: Instant,
    seq: u64,
}

impl ShellPieces {
    /// A response cache sized like the server's, and the telemetry sinks
    /// one served request records into.
    pub fn new() -> ShellPieces {
        ShellPieces {
            cache: ResponseCache::new(CACHE_ENTRIES, 8, &MetricsRegistry::default()),
            ring: RequestRing::new(512, 8),
            windows: RollingWindows::new(),
            runtime: RuntimeStats::new(1, 4096),
            epoch: Instant::now(),
            seq: 0,
        }
    }

    /// `http::parse_request` on the request bytes; nanoseconds.
    pub fn parse(&self, request: &[u8]) -> u64 {
        let t = Instant::now();
        let parsed = http::parse_request(request, MAX_BODY_BYTES);
        let nanos = t.elapsed().as_nanos() as u64;
        assert!(matches!(parsed, Ok(Parsed::Complete { .. })), "{parsed:?}");
        nanos
    }

    /// `ResponseCache::get`; nanoseconds and whether it hit.
    pub fn cache_get(&self, key: &CacheKey) -> (u64, bool) {
        let t = Instant::now();
        let hit = self.cache.get(key).is_some();
        (t.elapsed().as_nanos() as u64, hit)
    }

    /// `ResponseCache::insert` (evicting once the cache is full);
    /// nanoseconds.
    pub fn cache_insert(&self, key: CacheKey, body: &Arc<str>) -> u64 {
        let t = Instant::now();
        self.cache.insert(key, Arc::clone(body));
        t.elapsed().as_nanos() as u64
    }

    /// `http::render_response` around `body`; nanoseconds.
    pub fn render(&self, body: &[u8]) -> u64 {
        let t = Instant::now();
        std::hint::black_box(http::render_response(
            200,
            "application/json",
            &REPLY_HEADERS,
            body,
            true,
        ));
        t.elapsed().as_nanos() as u64
    }

    /// What one served request records: a loop wake, dispatch and
    /// complete flight events, queue wait, worker busy time, a window
    /// event and a ring record; nanoseconds.
    pub fn record(&mut self, query: &str, total_nanos: u64, cache_hit: bool) -> u64 {
        self.seq += 1;
        let seq = self.seq;
        let t = Instant::now();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.runtime.record_loop_wake(1, 500);
        self.runtime
            .flight()
            .push(now, RuntimeEventKind::Dispatch { conn: 1, seq });
        self.runtime.record_queue_wait(1_000);
        self.runtime.record_worker_busy(0, total_nanos);
        self.runtime.flight().push(
            now,
            RuntimeEventKind::Complete {
                conn: 1,
                seq,
                status: 200,
            },
        );
        self.windows.record(
            now,
            &WindowEvent {
                total_nanos,
                error: false,
                cache_hit: Some(cache_hit),
                slo_breach: false,
            },
        );
        self.ring.push(RequestRecord {
            seq,
            trace_id: format!("xbench-{seq}"),
            route: "suggest",
            query: query.to_string(),
            status: 200,
            cache_hit: Some(cache_hit),
            slot_nanos: 0,
            walk_nanos: 0,
            rank_nanos: 0,
            total_nanos,
            candidates: 0,
            entities: 0,
            suggestions: 0,
            arrived_nanos: now,
            corpus: "default".to_string(),
            shards: Vec::new(),
        });
        t.elapsed().as_nanos() as u64
    }
}

impl Default for ShellPieces {
    fn default() -> Self {
        ShellPieces::new()
    }
}

/// The cache key the server would use for `keywords`.
pub fn cache_key(keywords: &[String], fingerprint: u64) -> CacheKey {
    CacheKey {
        query: keywords.join(" "),
        fingerprint,
    }
}

/// The serving shell: its public pieces one by one, then a live server
/// driven over `served_pool` (the workload's own pool on `serve_*`, the
/// full pool elsewhere) for what only a round trip shows.
pub fn server(
    m: &mut Metrics,
    rig: &Rig,
    served_pool: &Pool,
    pass_requests: usize,
) -> Result<(), BenchError> {
    let pool = &rig.pool;
    let fingerprint = rig.engine.fingerprint();
    let requests: Vec<Vec<u8>> = pool.dirty.iter().map(|q| suggest_request(q)).collect();
    let queries: Vec<String> = pool.dirty.iter().map(|q| q.join(" ")).collect();
    let keys: Vec<CacheKey> = pool
        .dirty
        .iter()
        .map(|q| cache_key(q, fingerprint))
        .collect();
    let mut pieces = ShellPieces::new();

    m.set(
        "server.http_parse_ns",
        mean_ns(&requests, |r| {
            pieces.parse(r);
        }),
    );
    m.set(
        "server.json_escape_ns",
        mean_ns(&queries, |q| {
            std::hint::black_box(json::escape(q));
        }),
    );

    // Cache: misses against the empty cache, inserts that fill it and
    // then evict on every call, hits on the entries that survived.
    let body: Arc<str> = Arc::from("{\"query\":\"q\",\"suggestions\":[]}");
    m.set(
        "server.cache_miss_ns",
        mean_ns(&keys, |k| assert!(!pieces.cache_get(k).1)),
    );
    m.set(
        "server.cache_insert_evict_ns",
        mean_ns(&keys, |k| {
            pieces.cache_insert(k.clone(), &body);
        }),
    );
    let resident: Vec<&CacheKey> = keys
        .iter()
        .filter(|k| pieces.cache.get(k).is_some())
        .collect();
    m.set(
        "server.cache_hit_ns",
        mean_ns(&resident, |k| assert!(pieces.cache_get(k).1)),
    );

    // One request through the connection state machine: readable →
    // parse → complete → writable.
    let mut conn: Connection<()> = Connection::new(0, MAX_BODY_BYTES, 32);
    m.set(
        "server.conn_cycle_ns",
        mean_ns(&requests, |r| {
            let mut io = Scripted { unread: r };
            for event in conn.on_readable(&mut io, 0) {
                let ConnEvent::Request { seq, .. } = event else {
                    panic!("scripted request was rejected: {event:?}");
                };
                let response = Response {
                    status: 200,
                    content_type: "application/json",
                    extra: Vec::new(),
                    body: body.as_bytes().to_vec(),
                    close: false,
                };
                conn.complete(seq, response, (), 0);
            }
            conn.on_writable(&mut io);
        }),
    );

    m.set(
        "telemetry.record_ns_per_request",
        mean_ns(&queries, |q| {
            pieces.record(q, 100_000, false);
        }),
    );

    // The live server: a warm-up pass, then one spanned pass in which each
    // round trip is followed at once by the same request's pieces.
    let (live, bind_ms) = ServerHandle::start(rig.engine.clone())?;
    m.set("server.bind_ms", bind_ms);
    let mut conn = live.connect()?;
    let served_requests: Vec<Vec<u8>> = served_pool
        .dirty
        .iter()
        .map(|q| suggest_request(q))
        .collect();
    let mut bodies: Vec<Vec<u8>> = vec![Vec::new(); served_pool.len()];
    let mut wire_bytes = 0usize;
    // Per-layer numbers are raw timings: the kernel never runs here.
    http_pass(
        &mut conn,
        &served_requests,
        served_pool.len(),
        None,
        |q, reply| {
            bodies[q] = reply.body.to_vec();
            wire_bytes += reply.wire_len;
            Ok(())
        },
    )?;
    let warm = live.cache_counters();
    let mut rec = Recorder::new();
    spanned_http_pass(
        &mut rec,
        &mut pieces,
        &mut conn,
        &ServedPool {
            server: &live,
            queries: &served_pool.dirty,
            requests: &served_requests,
            bodies: &bodies,
        },
        0,
        pass_requests,
        None,
    )?;
    let (hits, misses, _) = live.cache_counters();
    let (hits, misses) = (hits - warm.0, misses - warm.1);
    drop(conn);
    let drain = live.stop()?;

    m.set(
        "server.http_render_ns",
        mean_ns(&bodies, |b| {
            pieces.render(b);
        }),
    );
    m.set(
        "server.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    // Per request this client sent: the server's own request counter
    // lives in the engine's registry, which outlives any one server.
    let sent = (served_pool.len() + pass_requests) as f64;
    m.set(
        "server.loop_wakes_per_request",
        drain.loop_wakes as f64 / sent,
    );
    m.set(
        "server.flight_events_per_request",
        drain.flight_events as f64 / sent,
    );
    m.set(
        "server.bytes_out_per_request",
        mean(wire_bytes as f64, served_pool.len()),
    );

    // What is left of a round trip once its pieces are taken out: socket,
    // epoll, worker hand-off, routing.
    let own = self_times(rec.spans());
    let shell: u64 = rec
        .spans()
        .iter()
        .zip(own)
        .filter(|(span, _)| span.name == "round_trip")
        .map(|(_, own)| own)
        .sum();
    m.set("server.shell_us", mean(shell as f64, pass_requests) / 1e3);
    Ok(())
}
