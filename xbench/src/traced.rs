//! The traced pass of each workload: the same requests as the measured
//! pass, with a span around every call into a layer's public function.
//!
//! The spans are recorded here, in the harness — no product crate is
//! instrumented. Where one public call hides several layers, the traced
//! pass makes the calls that call is made of:
//!
//! * `engine_direct`: `suggest_keywords` becomes `variants_within` per
//!   keyword (fastss) inside `make_slots` (xclean), then `run_xclean`,
//!   then the top-k cut, so the spans nest.
//! * `sharded_direct`: `ShardedEngine` exposes no pieces; one span.
//! * `serve_*`: the client side is spanned (the round trip), and the
//!   server side is attributed by timing the same request's public
//!   pieces in-process right after it — parse, cache, engine on a miss,
//!   render, telemetry record — and laying them inside the round trip.
//!   The round trip's self time is then the shell: socket, epoll, worker
//!   hand-off, routing.

use std::sync::Arc;
use std::time::Duration;

use xclean::{run_xclean, KeywordSlot};

use crate::client::HttpConn;
use crate::error::BenchError;
use crate::probes::{cache_key, ShellPieces};
use crate::reference::{Pacer, Reference};
use crate::rig::Answer;
use crate::serve::ServerHandle;
use crate::spans::{Recorder, BENCH_LAYER};
use crate::stats::PassSummary;
use crate::workloads::{Prepared, Served, Target};

impl Prepared {
    /// One traced pass. Latencies are the root spans' durations, so the
    /// summary is comparable with an untraced pass's.
    pub fn traced_pass(
        &mut self,
        kernel: &Reference,
        rec: &mut Recorder,
        pieces: &mut ShellPieces,
    ) -> Result<PassSummary, BenchError> {
        let workload = self.workload.name();
        let first_request = self.attempted;
        let mut pacer = Pacer::new(kernel, self.slice_requests);
        let mut nanos = Vec::with_capacity(self.pass_requests);
        match &mut self.target {
            Target::Engine => {
                let engine = &self.rig.engine;
                let (corpus, config) = (engine.corpus(), engine.config());
                let generator = engine.variant_generator();
                for (query, (q, expected)) in
                    self.pool.dirty.iter().zip(&self.reference).enumerate()
                {
                    let id = first_request + query as u64;
                    let root = rec.begin("request", BENCH_LAYER, id);
                    let slots: Vec<KeywordSlot> = rec.scope("make_slots", "xclean", id, |rec| {
                        q.iter()
                            .map(|k| KeywordSlot {
                                keyword: k.clone(),
                                variants: rec.scope("variants_within", "fastss", id, |_| {
                                    generator.variants_within(k, config.epsilon)
                                }),
                            })
                            .collect()
                    });
                    let out = rec.scope("run_xclean", "xclean", id, |_| {
                        run_xclean(corpus, &slots, config)
                    });
                    let answer = rec.scope("top_k", "xclean", id, |_| {
                        Answer(
                            out.candidates
                                .iter()
                                .take(config.k)
                                .map(|c| {
                                    let terms = c
                                        .tokens
                                        .iter()
                                        .map(|&t| corpus.vocab().term(t).to_string())
                                        .collect();
                                    (terms, c.log_score.to_bits())
                                })
                                .collect(),
                        )
                    });
                    nanos.push(rec.end(root));
                    if answer != *expected {
                        return Err(BenchError::AnswerChanged { workload, query });
                    }
                    pacer.after_request();
                }
            }
            Target::Sharded(sharded, _) => {
                for (query, (q, expected)) in
                    self.pool.dirty.iter().zip(&self.reference).enumerate()
                {
                    let id = first_request + query as u64;
                    let root = rec.begin("request", BENCH_LAYER, id);
                    let response = rec.scope("sharded_suggest", "xclean", id, |_| {
                        sharded.suggest_keywords(q)
                    });
                    nanos.push(rec.end(root));
                    if !expected.matches(&response) {
                        return Err(BenchError::AnswerChanged { workload, query });
                    }
                    pacer.after_request();
                }
            }
            Target::Served(served) => {
                served.rewarm(self.workload)?;
                let Served {
                    server,
                    conn,
                    requests,
                    bodies,
                    ..
                } = &mut **served;
                nanos = spanned_http_pass(
                    rec,
                    pieces,
                    conn,
                    &ServedPool {
                        server,
                        queries: &self.pool.dirty,
                        requests,
                        bodies,
                    },
                    first_request,
                    self.pass_requests,
                    Some(&mut pacer),
                )?;
            }
        }
        self.attempted += nanos.len() as u64;
        let busy = Duration::from_nanos(nanos.iter().sum());
        Ok(PassSummary::from_samples(nanos, busy, pacer.finish()))
    }
}

/// What a spanned HTTP pass cycles through: the server, the queries, and
/// the request bytes and first-seen body of each.
pub struct ServedPool<'a> {
    /// The server under test.
    pub server: &'a ServerHandle,
    /// The queries, tokenised.
    pub queries: &'a [Vec<String>],
    /// `GET /suggest?q=` bytes per query.
    pub requests: &'a [Vec<u8>],
    /// The body the server first answered each query with.
    pub bodies: &'a [Vec<u8>],
}

/// `total` closed-loop requests over `conn`, each a `round_trip` span
/// (layer `server`) under a root span, with the request's server-side
/// pieces attributed to the round trip right after the reply: the
/// shell's public pieces timed in-process on the same bytes, and on a
/// miss the engine's stage times from the server's own record of that
/// request (running the query again in-process would find the caches the
/// server just warmed). Returns the root spans' durations.
pub fn spanned_http_pass(
    rec: &mut Recorder,
    pieces: &mut ShellPieces,
    conn: &mut HttpConn,
    pool: &ServedPool<'_>,
    first_request: u64,
    total: usize,
    mut pacer: Option<&mut Pacer<'_>>,
) -> Result<Vec<u64>, BenchError> {
    let fingerprint = pool.server.fingerprint();
    let mut nanos = Vec::with_capacity(total);
    for i in 0..total {
        let query = i % pool.requests.len();
        let id = first_request + i as u64;
        let failure = |detail: String| BenchError::HttpFailure { query, detail };
        let seen = pool.server.observed();
        let root = rec.begin("request", BENCH_LAYER, id);
        let trip = rec.begin("round_trip", "server", id);
        conn.send(&pool.requests[query])
            .map_err(|e| failure(format!("write: {e}")))?;
        let reply = conn.recv().map_err(failure)?;
        rec.end(trip);
        let round_trip = rec.end(root);
        nanos.push(round_trip);
        if reply.status != 200 {
            return Err(failure(format!("status {}", reply.status)));
        }
        let body = &pool.bodies[query];
        if reply.body != body.as_slice() {
            return Err(BenchError::BodyChanged { query });
        }
        let hit = reply.cache_hit == Some(true);

        let keywords = &pool.queries[query];
        let key = cache_key(keywords, fingerprint);
        let cached = || -> Arc<str> { Arc::from(&*String::from_utf8_lossy(body)) };
        let parse = pieces.parse(&pool.requests[query]);
        let (get, resident) = pieces.cache_get(&key);
        let mut parts = vec![
            ("parse_request", "server", parse),
            ("cache_get", "server", get),
        ];
        if hit {
            // Keep the harness's cache in step with the server's.
            if !resident {
                pieces.cache_insert(key, &cached());
            }
        } else {
            let served = pool.server.record_after(seen)?;
            let engine = served.slot_nanos + served.walk_nanos + served.rank_nanos;
            parts.push(("suggest_keywords", "xclean", engine));
            parts.push((
                "cache_insert",
                "server",
                pieces.cache_insert(key, &cached()),
            ));
        }
        parts.push(("render_response", "server", pieces.render(body)));
        let record = pieces.record(&keywords.join(" "), round_trip, hit);
        parts.push(("record", "telemetry", record));
        rec.attribute(trip, &parts);
        if let Some(pacer) = pacer.as_deref_mut() {
            pacer.after_request();
        }
    }
    Ok(nanos)
}
