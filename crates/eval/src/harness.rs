//! Experiment harness: runs a suggester over a query set and aggregates
//! quality and timing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use xclean_datagen::{QueryCase, QuerySet};

use crate::metrics::MetricAccumulator;
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

/// One query's ranked suggestions and its wall time in seconds.
type Outcome = (Vec<Vec<String>>, f64);

/// Runs `system` over `set` on `threads` workers, tracking precision up to
/// `max_n`. The metrics do not depend on `threads`. With 1 the queries run
/// one after another on the calling thread, which the timing experiments
/// need: with more, each query is still timed inside its worker, but
/// contention inflates the time.
pub fn run_set<S: Suggester + Sync + ?Sized>(
    system: &S,
    set: &QuerySet,
    max_n: usize,
    threads: usize,
) -> SetResult {
    let run = |case: &QueryCase| -> Outcome {
        let start = Instant::now();
        let suggestions = system.suggest(&case.dirty);
        (suggestions, start.elapsed().as_secs_f64())
    };
    let outcomes: Vec<Outcome> = if threads <= 1 {
        set.cases.iter().map(run).collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut outcomes: Vec<Option<Outcome>> = vec![None; set.cases.len()];
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(set.cases.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(case) = set.cases.get(i) else {
                                return done;
                            };
                            done.push((i, run(case)));
                        }
                    })
                })
                .collect();
            for worker in workers {
                let done = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, outcome) in done {
                    outcomes[i] = Some(outcome);
                }
            }
        });
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every query ran"))
            .collect()
    };
    let mut acc = MetricAccumulator::new(max_n);
    let mut total = 0.0f64;
    for (case, (suggestions, secs)) in set.cases.iter().zip(&outcomes) {
        total += secs;
        acc.record(suggestions, &case.clean);
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
    use xclean_datagen::Perturbation;

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
        let r = run_set(&Echo, &set, 10, 1);
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
        let serial = run_set(&Echo, &set, 10, 1);
        let parallel = run_set(&Echo, &set, 10, 8);
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
        let r = run_set(&Echo, &set, 10, 1);
        assert_eq!(r.mrr, 0.0);
    }
}
