//! Experiment harness: runs a suggester over a query set and aggregates
//! quality and timing.

use std::time::Instant;

use xclean_datagen::QuerySet;
use xclean_telemetry::json::Json;

use crate::metrics::{MetricAccumulator, MetricSummary};
use crate::systems::Suggester;

/// Result of one (system, query set) run.
#[derive(Debug, Clone)]
pub struct SetResult {
    /// System name.
    pub system: String,
    /// Query-set name (e.g. `DBLP-RAND`).
    pub query_set: String,
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// `precision@N`, index 0 = N1.
    pub precision_at: Vec<f64>,
    /// Average per-query wall time in seconds.
    pub avg_time_secs: f64,
    /// Number of queries.
    pub queries: usize,
}

impl SetResult {
    /// The row as it appears in the experiment JSON dumps.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("system", self.system.as_str().into()),
            ("query_set", self.query_set.as_str().into()),
            ("mrr", self.mrr.into()),
            ("precision_at", self.precision_at.iter().copied().collect()),
            ("avg_time_secs", self.avg_time_secs.into()),
            ("queries", self.queries.into()),
        ])
    }
}

/// Runs `system` over `set`, tracking precision up to `max_n`.
pub fn run_set(system: &dyn Suggester, set: &QuerySet, max_n: usize) -> SetResult {
    let mut acc = MetricAccumulator::new(max_n);
    let mut total = 0.0f64;
    for case in &set.cases {
        let start = Instant::now();
        let suggestions = system.suggest(&case.dirty);
        total += start.elapsed().as_secs_f64();
        acc.record(&suggestions, &case.clean);
    }
    let m: MetricSummary = acc.finish();
    SetResult {
        system: system.name().to_string(),
        query_set: set.name.clone(),
        mrr: m.mrr,
        precision_at: m.precision_at,
        avg_time_secs: if set.cases.is_empty() {
            0.0
        } else {
            total / set.cases.len() as f64
        },
        queries: m.queries,
    }
}

/// Parallel variant of [`run_set`] for *quality* experiments: queries are
/// spread over scoped worker threads. Per-query
/// wall times are still measured inside each worker, but under contention
/// they overstate single-query latency — use [`run_set`] for the timing
/// experiments.
pub fn run_set_parallel<S: Suggester + Sync + ?Sized>(
    system: &S,
    set: &QuerySet,
    max_n: usize,
    threads: usize,
) -> SetResult {
    let threads = threads.max(1).min(set.cases.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    /// One query's ranked suggestions plus its wall time.
    type QueryOutcome = (Vec<Vec<String>>, f64);
    // Per-query results, in case order.
    let results: Vec<std::sync::Mutex<Option<QueryOutcome>>> = (0..set.cases.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    // A panicking worker propagates out of `scope` when it joins.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(case) = set.cases.get(i) else { break };
                let start = Instant::now();
                let suggestions = system.suggest(&case.dirty);
                let secs = start.elapsed().as_secs_f64();
                *results[i]
                    .lock()
                    .expect("slot is locked once, by its own worker") = Some((suggestions, secs));
            });
        }
    });
    let mut acc = MetricAccumulator::new(max_n);
    let mut total = 0.0f64;
    for (case, slot) in set.cases.iter().zip(results) {
        let (suggestions, secs) = slot
            .into_inner()
            .expect("a worker panic already propagated")
            .expect("query processed");
        total += secs;
        acc.record(&suggestions, &case.clean);
    }
    let m = acc.finish();
    SetResult {
        system: system.name().to_string(),
        query_set: set.name.clone(),
        mrr: m.mrr,
        precision_at: m.precision_at,
        avg_time_secs: if set.cases.is_empty() {
            0.0
        } else {
            total / set.cases.len() as f64
        },
        queries: m.queries,
    }
}

/// A sensible worker count for parallel experiment runs.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_datagen::{Perturbation, QueryCase};

    struct Echo;
    impl Suggester for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn suggest(&self, keywords: &[String]) -> Vec<Vec<String>> {
            vec![keywords.to_vec()]
        }
    }

    #[test]
    fn echo_system_gets_perfect_clean_scores() {
        let set = QuerySet {
            name: "T-CLEAN".into(),
            perturbation: Perturbation::Clean,
            cases: vec![
                QueryCase {
                    dirty: vec!["a".into()],
                    clean: vec!["a".into()],
                },
                QueryCase {
                    dirty: vec!["b".into(), "c".into()],
                    clean: vec!["b".into(), "c".into()],
                },
            ],
        };
        let r = run_set(&Echo, &set, 10);
        assert_eq!(r.mrr, 1.0);
        assert_eq!(r.precision_at[0], 1.0);
        assert_eq!(r.queries, 2);
        assert_eq!(r.system, "echo");
    }

    #[test]
    fn parallel_matches_serial() {
        let set = QuerySet {
            name: "T-CLEAN".into(),
            perturbation: Perturbation::Clean,
            cases: (0..50)
                .map(|i| QueryCase {
                    dirty: vec![format!("w{i}")],
                    clean: vec![format!("w{i}")],
                })
                .collect(),
        };
        let serial = run_set(&Echo, &set, 10);
        let parallel = run_set_parallel(&Echo, &set, 10, 8);
        assert_eq!(serial.mrr, parallel.mrr);
        assert_eq!(serial.precision_at, parallel.precision_at);
        assert_eq!(serial.queries, parallel.queries);
    }

    #[test]
    fn echo_system_fails_dirty_sets() {
        let set = QuerySet {
            name: "T-RAND".into(),
            perturbation: Perturbation::Rand,
            cases: vec![QueryCase {
                dirty: vec!["helth".into()],
                clean: vec!["health".into()],
            }],
        };
        let r = run_set(&Echo, &set, 10);
        assert_eq!(r.mrr, 0.0);
    }
}
