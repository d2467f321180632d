//! The four workloads: what each sets up, its untimed warm-up pass (which
//! also produces the reference answers), its measured pass, and the
//! correctness checks and validity guards that run on every invocation.
//!
//! All four are closed loops — a suggestion endpoint's callers each wait
//! for the reply — over one shared pool of dirty queries:
//!
//! * `engine_direct` calls `XCleanEngine::suggest_keywords` in-process:
//!   `fastss`, `index` and `xclean` do all the work, `server` none.
//! * `sharded_direct` sends the same pool through a 4-shard
//!   `ShardedEngine`: the same layers used differently (scatter,
//!   contribution-log replay, gather).
//! * `serve_hot` cycles 16 queries through the HTTP server, so after
//!   warm-up every request is a response-cache hit: `server` and
//!   `telemetry` do all the work, the engine none.
//! * `serve_miss` cycles the whole pool, in order, through the same
//!   server's 256-entry LRU, so every request misses: the full path from
//!   socket to engine and back.

use std::path::Path;
use std::time::{Duration, Instant};

use xclean::ShardedEngine;
use xclean_server::json::{self, Json};

use crate::client::{suggest_request, HttpConn, Reply};
use crate::error::BenchError;
use crate::reference::{Pacer, Reference, SetupClock};
use crate::rig::{
    build_sharded, mean_reciprocal_rank, Answer, Pool, Rig, ShardTimings, HOT_PASS_REQUESTS,
    HOT_POOL_SIZE, HOT_REWARM_REQUESTS,
};
use crate::serve::{http_pass, ServerHandle};
use crate::stats::PassSummary;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process unsharded engine, full pool.
    EngineDirect,
    /// In-process 4-shard engine, full pool.
    ShardedDirect,
    /// HTTP server, 16-query pool: every request a cache hit.
    ServeHot,
    /// HTTP server, full pool in order: every request a cache miss.
    ServeMiss,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EngineDirect,
        Workload::ShardedDirect,
        Workload::ServeHot,
        Workload::ServeMiss,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineDirect => "engine_direct",
            Workload::ShardedDirect => "sharded_direct",
            Workload::ServeHot => "serve_hot",
            Workload::ServeMiss => "serve_miss",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests go through the HTTP server.
    pub fn is_served(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::ServeMiss)
    }
}

/// The comparable part of a `/suggest` body: the same terms and score
/// bits [`Answer::of`] takes from an engine response. `f64`'s `Display`
/// prints the shortest string that parses back to the same bits, so the
/// comparison is exact.
pub fn answer_of_body(body: &[u8]) -> Option<Answer> {
    let parsed = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    parsed
        .get("suggestions")?
        .as_array()?
        .iter()
        .map(|s| {
            let terms = s
                .get("terms")?
                .as_array()?
                .iter()
                .map(|t| t.as_str().map(String::from))
                .collect::<Option<Vec<_>>>()?;
            match s.get("log_score")? {
                Json::Num(score) => Some((terms, score.to_bits())),
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()
        .map(Answer)
}

/// The live server of a `serve_*` workload and what its client holds.
#[derive(Debug)]
pub struct Served {
    pub(crate) server: ServerHandle,
    pub(crate) conn: HttpConn,
    pub(crate) requests: Vec<Vec<u8>>,
    /// The first body seen per query; every later one must equal it.
    pub(crate) bodies: Vec<Vec<u8>>,
    /// Cache counters when the warm-up pass ended.
    warm_counters: (u64, u64, u64),
}

fn same_body(bodies: &[Vec<u8>], query: usize, reply: &Reply<'_>) -> Result<(), BenchError> {
    if reply.body != bodies[query] {
        return Err(BenchError::BodyChanged { query });
    }
    Ok(())
}

impl Served {
    /// Untimed requests at the start of a `serve_hot` pass. The pass
    /// before ended with a run of the reference kernel, which emptied the
    /// CPU's caches; a hot request is a 20 us round trip that lives in
    /// them, so without this the pass's tail would be the harness's own
    /// cold start, not the shell's. (A `serve_miss` request walks
    /// megabytes of index of its own and starts no warmer either way.)
    pub(crate) fn rewarm(&mut self, workload: Workload) -> Result<(), BenchError> {
        if workload != Workload::ServeHot {
            return Ok(());
        }
        let Served {
            conn,
            requests,
            bodies,
            ..
        } = self;
        http_pass(conn, requests, HOT_REWARM_REQUESTS, None, |query, reply| {
            same_body(bodies, query, reply)
        })?;
        Ok(())
    }
}

/// What the requests of a workload are sent to.
#[derive(Debug)]
pub(crate) enum Target {
    Engine,
    Sharded(Box<ShardedEngine>, ShardTimings),
    Served(Box<Served>),
}

/// A workload that is set up, warmed and ready to be measured.
#[derive(Debug)]
pub struct Prepared {
    /// Which workload this is.
    pub workload: Workload,
    /// The common rig.
    pub rig: Rig,
    /// The pool this workload cycles (the rig's, or its 16-query prefix).
    pub pool: Pool,
    /// The in-process unsharded engine's answer per pool query, which the
    /// warm-up pass checked this workload's own path against.
    pub reference: Vec<Answer>,
    /// Mean reciprocal rank of the clean queries in the engine's answers
    /// over the full pool.
    pub mrr: f64,
    /// Requests in one pass.
    pub pass_requests: usize,
    /// Requests between two runs of the reference kernel in a measured
    /// pass — about every 100–200 ms on every workload.
    pub slice_requests: usize,
    /// Requests completed in measured passes so far.
    pub attempted: u64,
    pub(crate) target: Target,
}

impl Prepared {
    /// Sets `workload` up for `seed` under `dir`, including its untimed
    /// warm-up pass; `clock` is told where each stage ends (the caller
    /// ends the last).
    pub fn new(
        workload: Workload,
        seed: u64,
        dir: &Path,
        clock: &mut SetupClock,
    ) -> Result<Prepared, BenchError> {
        let rig = Rig::build(seed, dir, clock)?;
        // The in-process engine's answer to every query of the full pool:
        // the reference the direct workloads are checked against, what
        // every HTTP body must equal, and what `mrr` is computed from (on
        // every workload, so that 16 hot queries do not decide it).
        let mut engine_answers: Vec<Answer> = rig
            .pool
            .dirty
            .iter()
            .map(|q| Answer::of(&rig.engine.suggest_keywords(q)))
            .collect();
        let mrr = mean_reciprocal_rank(&engine_answers, &rig.pool);
        clock.lap();
        let pool = match workload {
            Workload::ServeHot => {
                engine_answers.truncate(HOT_POOL_SIZE);
                rig.pool.prefix(HOT_POOL_SIZE)
            }
            _ => rig.pool.clone(),
        };

        let target = match workload {
            Workload::EngineDirect => Target::Engine,
            Workload::ShardedDirect => {
                let (sharded, timings) = build_sharded(&rig, dir)?;
                clock.lap();
                for (query, (q, expected)) in pool.dirty.iter().zip(&engine_answers).enumerate() {
                    if !expected.matches(&sharded.suggest_keywords(q)) {
                        return Err(BenchError::ShardedMismatch { query });
                    }
                }
                Target::Sharded(Box::new(sharded), timings)
            }
            Workload::ServeHot | Workload::ServeMiss => {
                let (server, _bind_ms) = ServerHandle::start(rig.engine.clone())?;
                let mut conn = server.connect()?;
                let requests: Vec<Vec<u8>> =
                    pool.dirty.iter().map(|q| suggest_request(q)).collect();
                let mut bodies: Vec<Vec<u8>> = vec![Vec::new(); pool.len()];
                http_pass(&mut conn, &requests, pool.len(), None, |query, reply| {
                    if answer_of_body(reply.body).as_ref() != Some(&engine_answers[query]) {
                        return Err(BenchError::BodyMismatch { query });
                    }
                    bodies[query] = reply.body.to_vec();
                    Ok(())
                })?;
                let warm_counters = server.cache_counters();
                let served = Served {
                    server,
                    conn,
                    requests,
                    bodies,
                    warm_counters,
                };
                Target::Served(Box::new(served))
            }
        };

        Ok(Prepared {
            workload,
            mrr,
            pass_requests: match workload {
                Workload::ServeHot => HOT_PASS_REQUESTS,
                _ => pool.len(),
            },
            slice_requests: match workload {
                Workload::ServeHot => HOT_PASS_REQUESTS,
                _ => pool.len() / 8,
            },
            rig,
            pool,
            reference: engine_answers,
            attempted: 0,
            target,
        })
    }

    /// The sharded engine and its set-up timings (`sharded_direct` only).
    pub fn sharded(&self) -> Option<(&ShardedEngine, &ShardTimings)> {
        match &self.target {
            Target::Sharded(engine, timings) => Some((engine, timings)),
            _ => None,
        }
    }

    /// Snapshot bytes this workload serves from: the corpus snapshot, or
    /// the sum over the shard snapshots.
    pub fn snapshot_bytes(&self) -> usize {
        self.sharded()
            .map_or(self.rig.offline.snapshot_bytes, |(_, t)| t.snapshot_bytes)
    }

    /// One measured pass: every request timed, every answer checked
    /// against the reference between timed requests, `kernel` run between
    /// slices.
    pub fn pass(&mut self, kernel: &Reference) -> Result<PassSummary, BenchError> {
        let workload = self.workload.name();
        let mut pacer = Pacer::new(kernel, self.slice_requests);
        let summary = match &mut self.target {
            Target::Engine => {
                let engine = &self.rig.engine;
                direct_pass(workload, &self.pool, &self.reference, pacer, |q| {
                    engine.suggest_keywords(q)
                })?
            }
            Target::Sharded(sharded, _) => {
                direct_pass(workload, &self.pool, &self.reference, pacer, |q| {
                    sharded.suggest_keywords(q)
                })?
            }
            Target::Served(served) => {
                served.rewarm(self.workload)?;
                let Served {
                    conn,
                    requests,
                    bodies,
                    ..
                } = &mut **served;
                let (nanos, wall) = http_pass(
                    conn,
                    requests,
                    self.pass_requests,
                    Some(&mut pacer),
                    |query, reply: &Reply<'_>| same_body(bodies, query, reply),
                )?;
                paced_summary(nanos, wall, pacer)
            }
        };
        self.attempted += summary.requests as u64;
        Ok(summary)
    }

    /// Ends the workload: stops the server and applies the hit-ratio
    /// guards. Returns the cache hit ratio after warm-up (`serve_*` only).
    pub fn finish(self) -> Result<Option<f64>, BenchError> {
        let Target::Served(served) = self.target else {
            return Ok(None);
        };
        let Served {
            server,
            conn,
            warm_counters,
            ..
        } = *served;
        let (hits, misses, _) = server.cache_counters();
        let hits = hits - warm_counters.0;
        let misses = misses - warm_counters.1;
        drop(conn);
        let drain = server.stop()?;
        let ratio = hits as f64 / (hits + misses).max(1) as f64;
        match self.workload {
            Workload::ServeHot if ratio < 0.999 => {
                return Err(BenchError::HitRatioTooLow { ratio });
            }
            Workload::ServeMiss if hits != 0 => {
                return Err(BenchError::HitRatioNotZero { hits });
            }
            _ => {}
        }
        if drain.errors != 0 {
            return Err(BenchError::FailedOperations {
                failed: drain.errors,
                attempted: drain.requests,
            });
        }
        Ok(Some(ratio))
    }
}

/// A pass's summary: `wall` includes the pacer's kernel runs, which are
/// taken out.
pub(crate) fn paced_summary(nanos: Vec<u64>, wall: Duration, pacer: Pacer<'_>) -> PassSummary {
    let kernel_runs = pacer.finish();
    let kernel = Duration::from_nanos(kernel_runs.iter().sum());
    PassSummary::from_samples(nanos, wall.saturating_sub(kernel), kernel_runs)
}

/// One in-process pass over `pool` through `suggest`.
fn direct_pass(
    workload: &'static str,
    pool: &Pool,
    reference: &[Answer],
    mut pacer: Pacer<'_>,
    suggest: impl Fn(&[String]) -> xclean::SuggestResponse,
) -> Result<PassSummary, BenchError> {
    let mut nanos = Vec::with_capacity(pool.len());
    let wall = Instant::now();
    for (query, (q, expected)) in pool.dirty.iter().zip(reference).enumerate() {
        let t = Instant::now();
        let response = suggest(q);
        nanos.push(t.elapsed().as_nanos() as u64);
        if !expected.matches(&response) {
            return Err(BenchError::AnswerChanged { workload, query });
        }
        pacer.after_request();
    }
    Ok(paced_summary(nanos, wall.elapsed(), pacer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("serve_warm"), None);
        assert!(Workload::ServeMiss.is_served() && !Workload::ShardedDirect.is_served());
    }

    #[test]
    fn body_answers_keep_terms_and_exact_score_bits() {
        let score = -12.345678901234567_f64;
        let body = format!(
            "{{\"query\":\"databse systm\",\"suggestions\":[\
             {{\"query\":\"database system\",\"terms\":[\"database\",\"system\"],\
             \"log_score\":{score},\"distances\":[1,1],\"entities\":3}}]}}"
        );
        let answer = answer_of_body(body.as_bytes()).unwrap();
        assert_eq!(
            answer,
            Answer(vec![(
                vec!["database".to_string(), "system".to_string()],
                score.to_bits()
            )])
        );
        assert_eq!(answer_of_body(b"{\"suggestions\":[{\"terms\":[1]}]}"), None);
        assert_eq!(answer_of_body(b"not json"), None);
    }
}
