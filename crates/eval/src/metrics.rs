//! Retrieval-quality metrics (§VII-B): Mean Reciprocal Rank and
//! Precision@N.

/// Reciprocal rank of the ground truth within a ranked suggestion list
/// (1-based); 0 when absent.
pub fn reciprocal_rank(suggestions: &[Vec<String>], truth: &[String]) -> f64 {
    suggestions
        .iter()
        .position(|s| s.as_slice() == truth)
        .map(|i| 1.0 / (i + 1) as f64)
        .unwrap_or(0.0)
}

/// Aggregated quality metrics over a query set.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// `precision@N` for N = 1..=max_n (index 0 holds precision@1).
    pub precision_at: Vec<f64>,
    /// Number of queries aggregated.
    pub queries: usize,
}

/// Accumulates per-query results into a [`MetricSummary`].
#[derive(Debug, Clone)]
pub struct MetricAccumulator {
    rr_sum: f64,
    hits: Vec<usize>,
    queries: usize,
    max_n: usize,
}

impl MetricAccumulator {
    /// Tracks precision up to `max_n`.
    pub fn new(max_n: usize) -> Self {
        MetricAccumulator {
            rr_sum: 0.0,
            hits: vec![0; max_n],
            queries: 0,
            max_n,
        }
    }

    /// Records one query's ranked suggestions against its ground truth.
    pub fn record(&mut self, suggestions: &[Vec<String>], truth: &[String]) {
        self.queries += 1;
        self.rr_sum += reciprocal_rank(suggestions, truth);
        if let Some(pos) = suggestions.iter().position(|s| s.as_slice() == truth) {
            for n in pos..self.max_n {
                self.hits[n] += 1;
            }
        }
    }

    /// Finalises the summary.
    pub fn finish(&self) -> MetricSummary {
        let q = self.queries.max(1) as f64;
        MetricSummary {
            mrr: self.rr_sum / q,
            precision_at: self.hits.iter().map(|&h| h as f64 / q).collect(),
            queries: self.queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn reciprocal_rank_basics() {
        let suggestions = vec![s(&["a", "b"]), s(&["c"]), s(&["d", "e"])];
        assert_eq!(reciprocal_rank(&suggestions, &s(&["a", "b"])), 1.0);
        assert_eq!(reciprocal_rank(&suggestions, &s(&["c"])), 0.5);
        assert!((reciprocal_rank(&suggestions, &s(&["d", "e"])) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(reciprocal_rank(&suggestions, &s(&["x"])), 0.0);
        assert_eq!(reciprocal_rank(&[], &s(&["x"])), 0.0);
    }

    #[test]
    fn accumulator_aggregates() {
        let mut acc = MetricAccumulator::new(3);
        // truth at rank 1
        acc.record(&[s(&["t"])], &s(&["t"]));
        // truth at rank 2
        acc.record(&[s(&["x"]), s(&["t"])], &s(&["t"]));
        // truth missing
        acc.record(&[s(&["x"])], &s(&["t"]));
        let m = acc.finish();
        assert_eq!(m.queries, 3);
        assert!((m.mrr - (1.0 + 0.5 + 0.0) / 3.0).abs() < 1e-12);
        assert!((m.precision_at[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.precision_at[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.precision_at[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn precision_is_monotone_in_n() {
        let mut acc = MetricAccumulator::new(10);
        let lists = [
            vec![s(&["a"]), s(&["t"]), s(&["b"])],
            vec![s(&["t"])],
            vec![s(&["a"]), s(&["b"]), s(&["c"]), s(&["t"])],
        ];
        for l in &lists {
            acc.record(l, &s(&["t"]));
        }
        let m = acc.finish();
        for w in m.precision_at.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let m = MetricAccumulator::new(5).finish();
        assert_eq!(m.mrr, 0.0);
        assert_eq!(m.queries, 0);
    }
}
