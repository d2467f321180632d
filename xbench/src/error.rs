//! Why a benchmark invocation refuses to report a result. Every
//! correctness check and workload-validity guard has its own variant, so
//! a failing run names what broke instead of printing a number.

use std::fmt;

/// A failed invocation; `xbench` prints it and exits non-zero.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line.
    Usage(String),
    /// The offline pipeline, a shard set or the server could not be set up.
    Setup(String),
    /// The generator could not supply a full pool of distinct queries: the
    /// pool would measure repeats, not the engine.
    PoolNotDistinct { distinct: usize, pool: usize },
    /// A measured answer differs from the warm-up pass's reference answer
    /// for the same query (terms or score bits).
    AnswerChanged {
        workload: &'static str,
        query: usize,
    },
    /// `ShardedEngine` and `XCleanEngine` disagree on a query — the
    /// repo's bit-identity contract is broken.
    ShardedMismatch { query: usize },
    /// An HTTP reply was not a well-formed `200`.
    HttpFailure { query: usize, detail: String },
    /// An HTTP body's suggestions differ from the in-process engine's.
    BodyMismatch { query: usize },
    /// A later HTTP body for a query differs from its first (hit ≢ miss).
    BodyChanged { query: usize },
    /// `serve_hot` must be answered from the response cache.
    HitRatioTooLow { ratio: f64 },
    /// `serve_miss` must never be answered from the response cache.
    HitRatioNotZero { hits: u64 },
    /// Operations failed during the run.
    FailedOperations { failed: u64, attempted: u64 },
    /// The A/A self-check found sets of runs of the same code disagreeing
    /// beyond a bound, or a spread beyond it.
    SelfcheckBreach { breaches: usize },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(m) => write!(f, "usage: {m}"),
            BenchError::Setup(m) => write!(f, "setup: {m}"),
            BenchError::PoolNotDistinct { distinct, pool } => write!(
                f,
                "pool_not_distinct: only {distinct} distinct queries for a pool of {pool}"
            ),
            BenchError::AnswerChanged { workload, query } => write!(
                f,
                "answer_changed: {workload} query #{query} differs from its reference answer"
            ),
            BenchError::ShardedMismatch { query } => write!(
                f,
                "sharded_mismatch: sharded answer for query #{query} is not bit-identical to the unsharded engine's"
            ),
            BenchError::HttpFailure { query, detail } => {
                write!(f, "http_failure: query #{query}: {detail}")
            }
            BenchError::BodyMismatch { query } => write!(
                f,
                "body_mismatch: HTTP suggestions for query #{query} differ from the in-process engine's"
            ),
            BenchError::BodyChanged { query } => write!(
                f,
                "body_changed: a later HTTP body for query #{query} is not byte-identical to its first"
            ),
            BenchError::HitRatioTooLow { ratio } => write!(
                f,
                "hit_ratio_too_low: serve_hot cache hit ratio {ratio:.6} < 0.999 after warm-up"
            ),
            BenchError::HitRatioNotZero { hits } => write!(
                f,
                "hit_ratio_not_zero: serve_miss saw {hits} cache hit(s) after warm-up"
            ),
            BenchError::FailedOperations { failed, attempted } => {
                write!(f, "failed_operations: {failed} of {attempted} operations failed")
            }
            BenchError::SelfcheckBreach { breaches } => write!(
                f,
                "selfcheck_breach: {breaches} metric/workload pair(s) beyond their bound"
            ),
        }
    }
}

impl std::error::Error for BenchError {}

/// Shorthand for set-up failures wrapping a lower-level error.
pub fn setup<E: fmt::Display>(what: &str) -> impl FnOnce(E) -> BenchError + '_ {
    move |e| BenchError::Setup(format!("{what}: {e}"))
}
