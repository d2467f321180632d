//! Score accumulators with probabilistic candidate pruning (§V-D).
//!
//! The engine keeps at most γ in-memory accumulators. Each accumulator
//! holds the partial sum `Σ_j P(C|r_j)` over the entities processed so
//! far. When a new candidate arrives while all γ accumulators are in use,
//! the victim is the candidate whose *estimated* final score — the sample
//! mean of its per-entity scores scaled by its error-model weight, as
//! justified by the Hoeffding bound in the paper — is lowest.

use std::collections::{HashMap, HashSet};

use xclean_index::TokenId;

/// A candidate query: one variant token per query keyword.
pub type CandidateKey = Vec<TokenId>;

/// Where per-entity score contributions land during the accumulate phase.
///
/// One corpus accumulates straight into a γ-bounded [`AccumulatorTable`];
/// a shard walk records the *same* contribution arguments into a replay
/// log instead, so the gather can feed them through a single global table
/// in document order and reproduce the sequential run's eviction
/// decisions exactly (both sinks live in `crate::pipeline`). The
/// contribution stream a scoring run emits is independent of the sink —
/// sinks only observe.
pub(crate) trait ScoreSink {
    /// Records one entity's weighted contribution for `key` (the same
    /// argument tuple as [`AccumulatorTable::add_weighted`]).
    fn accumulate(
        &mut self,
        key: &CandidateKey,
        weighted: f64,
        weight: f64,
        log_error_weight: f64,
        distances: &[u32],
        result_path: xclean_xmltree::PathId,
    );
}

/// Accumulated state for one candidate query.
#[derive(Debug, Clone)]
pub struct Accumulator {
    /// `Σ_r Π_{w∈C} P(w|D(r))` over entities seen so far (linear space).
    pub score_sum: f64,
    /// Number of entities that contributed to `score_sum`.
    pub entity_count: u64,
    /// Total prior weight of contributing entities (equals `entity_count`
    /// under the uniform prior; `Σ |D(r)|` under the doc-length prior).
    pub weight_sum: f64,
    /// Log error-model weight `Σ_j −β·ed(q_j, C[j])` (fixed per candidate).
    pub log_error_weight: f64,
    /// Edit distance of each keyword (for reporting).
    pub distances: Vec<u32>,
    /// The candidate's inferred result type (fixed per candidate).
    pub result_path: xclean_xmltree::PathId,
}

impl Accumulator {
    /// The pruning estimate: sample-mean score times error weight, in log
    /// space. Candidates that have accumulated nothing estimate to −∞.
    pub fn estimated_log_score(&self) -> f64 {
        if self.score_sum <= 0.0 || self.entity_count == 0 {
            f64::NEG_INFINITY
        } else {
            self.log_error_weight + (self.score_sum / self.entity_count as f64).ln()
        }
    }
}

/// One γ-pruning decision, reported to the observer of
/// [`AccumulatorTable::add_weighted_observed`]. The observer sees the
/// decision *after* it has been taken — observation never influences
/// which candidate wins, so an observed run is bit-identical to a plain
/// [`AccumulatorTable::add_weighted`] run (the explain plane depends on
/// this).
#[derive(Debug, Clone, Copy)]
pub enum GammaEvent<'a> {
    /// `victim` held the lowest estimated score in a full table and was
    /// evicted to admit a newcomer.
    Evicted {
        /// The evicted candidate.
        victim: &'a CandidateKey,
        /// Its estimated log score at eviction time.
        estimate: f64,
    },
    /// The newcomer itself lost the estimate contest against a full
    /// table's minimum and was never admitted.
    NewcomerRejected {
        /// The rejected candidate.
        key: &'a CandidateKey,
        /// Its (losing) first-entity estimate.
        estimate: f64,
    },
    /// A contribution arrived for a candidate that was evicted earlier
    /// (re-admission is blocked to keep surviving sums exact).
    TombstoneRejected {
        /// The previously evicted candidate.
        key: &'a CandidateKey,
    },
}

/// Outcome counters of an accumulator table run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PruningStats {
    /// Candidates evicted to make room.
    pub evictions: u64,
    /// Contributions rejected because their candidate had been evicted and
    /// could not re-enter (its estimate was below the current minimum).
    pub rejected: u64,
}

/// Bounded table of candidate accumulators.
#[derive(Debug)]
pub struct AccumulatorTable {
    accs: HashMap<CandidateKey, Accumulator>,
    /// Keys that lost their accumulator (or never got one). Blocking
    /// re-admission keeps every *surviving* accumulator's sum exact: a
    /// candidate that re-entered after eviction would report a partial —
    /// and therefore wrong — score.
    evicted: HashSet<CandidateKey>,
    gamma: Option<usize>,
    stats: PruningStats,
}

impl AccumulatorTable {
    /// Creates a table bounded to `gamma` accumulators (`None` =
    /// unbounded).
    pub fn new(gamma: Option<usize>) -> Self {
        Self::with_storage(gamma, HashMap::new(), HashSet::new())
    }

    /// Like [`Self::new`] but over donated (empty) hash storage — the
    /// query arena lends its recycled maps so a steady-state worker
    /// allocates no table storage per query. The storage flows back to
    /// the arena through [`Self::drain_entries`]. Hash-map capacity never
    /// influences scoring (see `crate::arena` on why bit-identity holds).
    pub fn with_storage(
        gamma: Option<usize>,
        accs: HashMap<CandidateKey, Accumulator>,
        evicted: HashSet<CandidateKey>,
    ) -> Self {
        debug_assert!(
            accs.is_empty() && evicted.is_empty(),
            "donated storage must be reset"
        );
        AccumulatorTable {
            accs,
            evicted,
            gamma,
            stats: PruningStats::default(),
        }
    }

    /// Adds `score` (one entity's `Π P(w|D(r))`) to the candidate's
    /// accumulator, creating it if necessary — possibly evicting the
    /// lowest-estimate victim when the table is full.
    ///
    /// `log_error_weight`/`distances` describe the candidate and are only
    /// used on first insertion.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        key: &CandidateKey,
        score: f64,
        log_error_weight: f64,
        distances: &[u32],
        result_path: xclean_xmltree::PathId,
    ) {
        self.add_weighted(key, score, 1.0, log_error_weight, distances, result_path)
    }

    /// Like [`Self::add`] but with an explicit entity prior weight (the
    /// `score` must already be multiplied by the weight by the caller; the
    /// weight is tracked for candidate-local normalisation).
    #[allow(clippy::too_many_arguments)]
    pub fn add_weighted(
        &mut self,
        key: &CandidateKey,
        score: f64,
        weight: f64,
        log_error_weight: f64,
        distances: &[u32],
        result_path: xclean_xmltree::PathId,
    ) {
        self.add_weighted_observed(
            key,
            score,
            weight,
            log_error_weight,
            distances,
            result_path,
            &mut |_| {},
        )
    }

    /// [`Self::add_weighted`] with a γ-decision observer: every eviction
    /// and rejection is reported as a [`GammaEvent`] right after it is
    /// taken. The observer is passive — `add_weighted` is exactly this
    /// with a no-op closure, which the optimiser erases, so the hot path
    /// pays nothing and an observed run stays bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub fn add_weighted_observed(
        &mut self,
        key: &CandidateKey,
        score: f64,
        weight: f64,
        log_error_weight: f64,
        distances: &[u32],
        result_path: xclean_xmltree::PathId,
        observe: &mut impl FnMut(GammaEvent<'_>),
    ) {
        if let Some(acc) = self.accs.get_mut(key) {
            acc.score_sum += score;
            acc.entity_count += 1;
            acc.weight_sum += weight;
            return;
        }
        if self.evicted.contains(key) {
            // Once out, stay out: re-admitting would restart the sum and
            // report a corrupted partial score for this candidate.
            self.stats.rejected += 1;
            observe(GammaEvent::TombstoneRejected { key });
            return;
        }
        let candidate = Accumulator {
            score_sum: score,
            entity_count: 1,
            weight_sum: weight,
            log_error_weight,
            distances: distances.to_vec(),
            result_path,
        };
        if let Some(gamma) = self.gamma {
            if self.accs.len() >= gamma {
                // Choose the victim among existing accumulators; the new
                // candidate competes with its own first-entity estimate.
                // Ties break on the key so the choice does not depend on
                // HashMap iteration order (which varies between runs).
                let (victim_key, victim_est) = self
                    .accs
                    .iter()
                    .map(|(k, a)| (k, a.estimated_log_score()))
                    .min_by(|a, b| {
                        a.1.partial_cmp(&b.1)
                            .expect("no NaN scores")
                            .then_with(|| a.0.cmp(b.0))
                    })
                    .map(|(k, e)| (k.clone(), e))
                    .expect("table is full, so non-empty");
                let newcomer_est = candidate.estimated_log_score();
                if newcomer_est <= victim_est {
                    // The newcomer itself is the victim.
                    self.evicted.insert(key.clone());
                    self.stats.rejected += 1;
                    observe(GammaEvent::NewcomerRejected {
                        key,
                        estimate: newcomer_est,
                    });
                    return;
                }
                self.accs.remove(&victim_key);
                self.stats.evictions += 1;
                observe(GammaEvent::Evicted {
                    victim: &victim_key,
                    estimate: victim_est,
                });
                self.evicted.insert(victim_key);
            }
        }
        self.accs.insert(key.clone(), candidate);
    }

    /// Look up a candidate's accumulator.
    pub fn get(&self, key: &CandidateKey) -> Option<&Accumulator> {
        self.accs.get(key)
    }

    /// Number of live accumulators.
    pub fn len(&self) -> usize {
        self.accs.len()
    }

    /// `true` when no candidate has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.accs.is_empty()
    }

    /// Pruning statistics.
    pub fn stats(&self) -> PruningStats {
        self.stats
    }

    /// Drains the table into `(candidate, accumulator)` pairs.
    pub fn into_entries(self) -> Vec<(CandidateKey, Accumulator)> {
        self.accs.into_iter().collect()
    }

    /// Drains the table into `(candidate, accumulator)` pairs *and*
    /// returns the emptied hash storage so the caller (the query arena)
    /// can reuse its capacity. Entry order is hash-map iteration order in
    /// both drain paths; callers sort with a total-order comparator, so
    /// the two are interchangeable.
    #[allow(clippy::type_complexity)]
    pub fn drain_entries(
        mut self,
    ) -> (
        Vec<(CandidateKey, Accumulator)>,
        HashMap<CandidateKey, Accumulator>,
        HashSet<CandidateKey>,
    ) {
        let entries = self.accs.drain().collect();
        self.evicted.clear();
        (entries, self.accs, self.evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ids: &[u32]) -> CandidateKey {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    #[test]
    fn accumulates_per_candidate() {
        let mut t = AccumulatorTable::new(None);
        t.add(&key(&[1, 2]), 0.5, -5.0, &[1, 0], xclean_xmltree::PathId(0));
        t.add(
            &key(&[1, 2]),
            0.25,
            -5.0,
            &[1, 0],
            xclean_xmltree::PathId(0),
        );
        t.add(
            &key(&[1, 3]),
            0.1,
            -10.0,
            &[1, 2],
            xclean_xmltree::PathId(0),
        );
        assert_eq!(t.len(), 2);
        let a = t.get(&key(&[1, 2])).unwrap();
        assert_eq!(a.score_sum, 0.75);
        assert_eq!(a.entity_count, 2);
        assert_eq!(a.distances, vec![1, 0]);
    }

    #[test]
    fn eviction_removes_lowest_estimate() {
        let mut t = AccumulatorTable::new(Some(2));
        t.add(&key(&[1]), 0.9, 0.0, &[0], xclean_xmltree::PathId(0)); // strong
        t.add(&key(&[2]), 1e-9, -10.0, &[2], xclean_xmltree::PathId(0)); // weak
        t.add(&key(&[3]), 0.5, 0.0, &[0], xclean_xmltree::PathId(0)); // newcomer beats the weak one
        assert_eq!(t.len(), 2);
        assert!(t.get(&key(&[1])).is_some());
        assert!(t.get(&key(&[2])).is_none());
        assert!(t.get(&key(&[3])).is_some());
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn weak_newcomer_is_rejected() {
        let mut t = AccumulatorTable::new(Some(2));
        t.add(&key(&[1]), 0.9, 0.0, &[0], xclean_xmltree::PathId(0));
        t.add(&key(&[2]), 0.8, 0.0, &[0], xclean_xmltree::PathId(0));
        t.add(&key(&[3]), 1e-12, -20.0, &[2], xclean_xmltree::PathId(0));
        assert_eq!(t.len(), 2);
        assert!(t.get(&key(&[3])).is_none());
        assert_eq!(t.stats().evictions, 0);
        assert_eq!(t.stats().rejected, 1);
    }

    #[test]
    fn existing_candidates_always_accumulate() {
        // A full table never blocks updates to candidates already present.
        let mut t = AccumulatorTable::new(Some(1));
        t.add(&key(&[1]), 0.5, 0.0, &[0], xclean_xmltree::PathId(0));
        t.add(&key(&[1]), 0.5, 0.0, &[0], xclean_xmltree::PathId(0));
        assert_eq!(t.get(&key(&[1])).unwrap().entity_count, 2);
    }

    #[test]
    fn estimate_uses_sample_mean() {
        let a = Accumulator {
            score_sum: 0.5,
            entity_count: 2,
            weight_sum: 2.0,
            log_error_weight: -1.0,
            distances: vec![],
            result_path: xclean_xmltree::PathId(0),
        };
        assert!((a.estimated_log_score() - (-1.0 + 0.25f64.ln())).abs() < 1e-12);
        let zero = Accumulator {
            score_sum: 0.0,
            entity_count: 0,
            weight_sum: 0.0,
            log_error_weight: 0.0,
            distances: vec![],
            result_path: xclean_xmltree::PathId(0),
        };
        assert_eq!(zero.estimated_log_score(), f64::NEG_INFINITY);
    }

    #[test]
    fn observer_sees_gamma_decisions_without_changing_them() {
        // Replay the same contribution stream through a plain table and an
        // observed one: identical outcomes, and the observer sees exactly
        // one event per eviction/rejection counted in the stats.
        let stream: Vec<(CandidateKey, f64, f64)> = vec![
            (key(&[1]), 0.9, 0.0),     // fills slot 1
            (key(&[2]), 1e-9, -10.0),  // fills slot 2 (weak)
            (key(&[3]), 0.5, 0.0),     // evicts [2]
            (key(&[2]), 0.5, 0.0),     // tombstone rejection
            (key(&[4]), 1e-12, -20.0), // newcomer rejected
        ];
        let mut plain = AccumulatorTable::new(Some(2));
        for (k, s, w) in &stream {
            plain.add(k, *s, *w, &[0], xclean_xmltree::PathId(0));
        }
        let mut observed = AccumulatorTable::new(Some(2));
        let mut events: Vec<String> = Vec::new();
        for (k, s, w) in &stream {
            observed.add_weighted_observed(
                k,
                *s,
                1.0,
                *w,
                &[0],
                xclean_xmltree::PathId(0),
                &mut |e| {
                    events.push(match e {
                        GammaEvent::Evicted { victim, .. } => format!("evict:{}", victim[0].0),
                        GammaEvent::NewcomerRejected { key, .. } => {
                            format!("newcomer:{}", key[0].0)
                        }
                        GammaEvent::TombstoneRejected { key } => format!("tombstone:{}", key[0].0),
                    });
                },
            );
        }
        assert_eq!(plain.stats(), observed.stats());
        assert_eq!(plain.len(), observed.len());
        for k in [key(&[1]), key(&[3])] {
            let a = plain.get(&k).unwrap();
            let b = observed.get(&k).unwrap();
            assert_eq!(a.score_sum.to_bits(), b.score_sum.to_bits());
            assert_eq!(a.entity_count, b.entity_count);
        }
        assert_eq!(events, vec!["evict:2", "tombstone:2", "newcomer:4"]);
        assert_eq!(
            events.len() as u64,
            observed.stats().evictions + observed.stats().rejected
        );
    }

    #[test]
    fn unbounded_table_never_evicts() {
        let mut t = AccumulatorTable::new(None);
        for i in 0..10_000 {
            t.add(&key(&[i]), 1e-6, -1.0, &[1], xclean_xmltree::PathId(0));
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.stats().evictions, 0);
    }
}
