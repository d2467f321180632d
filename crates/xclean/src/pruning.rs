//! Score accumulators with probabilistic candidate pruning (§V-D).
//!
//! The engine keeps at most γ in-memory accumulators. Each accumulator
//! holds the partial sum `Σ_j P(C|r_j)` over the entities processed so
//! far. When a new candidate arrives while all γ accumulators are in use,
//! the victim is the candidate whose *estimated* final score — the sample
//! mean of its per-entity scores scaled by its error-model weight, as
//! justified by the Hoeffding bound in the paper — is lowest.

use xclean_index::TokenId;
use xclean_xmltree::PathId;

use crate::candidates::{CandId, CandidateTable};

/// A candidate query: one variant token per query keyword.
pub type CandidateKey = Vec<TokenId>;

/// Where per-entity score contributions land during the accumulate phase.
///
/// Every walk accumulates straight into the query's one γ-bounded [`AccumulatorTable`] (the sink
/// lives in `crate::pipeline`); tests substitute a recording sink. The
/// contribution stream a scoring run emits is independent of the sink —
/// sinks only observe.
pub(crate) trait ScoreSink {
    /// Records one entity's weighted contribution for candidate `id` of
    /// `candidates` (the argument tuple of [`AccumulatorTable::add`]).
    fn accumulate(&mut self, candidates: &CandidateTable, id: CandId, weighted: f64, weight: f64);
}

/// Accumulated state for one candidate query.
#[derive(Debug, Clone)]
pub struct Accumulator {
    /// The candidate, as an id of the table it was added through.
    pub candidate: CandId,
    /// `Σ_r Π_{w∈C} P(w|D(r))` over entities seen so far (linear space).
    pub score_sum: f64,
    /// Number of entities that contributed to `score_sum`.
    pub entity_count: u64,
    /// Total prior weight of contributing entities (equals `entity_count`
    /// under the uniform prior; `Σ |D(r)|` under the doc-length prior).
    pub weight_sum: f64,
    /// Log error-model weight `Σ_j −β·ed(q_j, C[j])` (fixed per candidate).
    pub log_error_weight: f64,
    /// The candidate's inferred result type (fixed per candidate).
    pub result_path: PathId,
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
/// [`AccumulatorTable::add`]. The observer sees the decision *after* it
/// has been taken — observation never influences which candidate wins, so
/// an observed run is bit-identical to one with a no-op observer (the
/// explain plane depends on this). Candidates are reported by key,
/// resolved from their id at the table.
#[derive(Debug, Clone, Copy)]
pub enum GammaEvent<'a> {
    /// `victim` held the lowest estimated score in a full table and was
    /// evicted to admit a newcomer.
    Evicted {
        /// The evicted candidate.
        victim: &'a [TokenId],
        /// Its estimated log score at eviction time.
        estimate: f64,
    },
    /// The newcomer itself lost the estimate contest against a full
    /// table's minimum and was never admitted.
    NewcomerRejected {
        /// The rejected candidate.
        key: &'a [TokenId],
        /// Its (losing) first-entity estimate.
        estimate: f64,
    },
    /// A contribution arrived for a candidate that was evicted earlier
    /// (re-admission is blocked to keep surviving sums exact).
    TombstoneRejected {
        /// The previously evicted candidate.
        key: &'a [TokenId],
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

/// `where_is` entry of a candidate that never had an accumulator.
const ABSENT: u32 = u32::MAX;
/// `where_is` entry of a candidate that lost its accumulator (or never got
/// one). Blocking re-admission keeps every *surviving* accumulator's sum
/// exact: a candidate that re-entered after eviction would report a
/// partial — and therefore wrong — score.
const TOMBSTONE: u32 = u32::MAX - 1;

/// Bounded table of candidate accumulators, addressed by the dense ids of
/// one [`CandidateTable`]: a contribution finds its accumulator through
/// one array read.
#[derive(Debug, Default)]
pub struct AccumulatorTable {
    /// Per candidate id: its position in `live`, [`ABSENT`] or
    /// [`TOMBSTONE`]. Grown on demand; ids beyond it are absent.
    where_is: Vec<u32>,
    live: Vec<Accumulator>,
    gamma: Option<usize>,
    stats: PruningStats,
}

impl AccumulatorTable {
    /// Creates a table bounded to `gamma` accumulators (`None` =
    /// unbounded).
    pub fn new(gamma: Option<usize>) -> Self {
        AccumulatorTable {
            gamma,
            ..Default::default()
        }
    }

    /// Empties the table for a new run bounded to `gamma`, keeping its
    /// storage. Capacity never influences scoring (see `crate::arena`).
    pub fn reset(&mut self, gamma: Option<usize>) {
        self.where_is.clear();
        self.live.clear();
        self.gamma = gamma;
        self.stats = PruningStats::default();
    }

    /// Adds one entity's `score` (its `Π P(w|D(r))`, already multiplied by
    /// the entity's prior `weight`, which is tracked for candidate-local
    /// normalisation) to the accumulator of candidate `id` of
    /// `candidates`, creating it if necessary — possibly evicting the
    /// lowest-estimate victim when the table is full.
    ///
    /// Every eviction and rejection is reported to `observe` as a
    /// [`GammaEvent`] right after it is taken. The observer is passive; a
    /// no-op closure is erased by the optimiser, so the hot path pays
    /// nothing for it.
    pub fn add(
        &mut self,
        candidates: &CandidateTable,
        id: CandId,
        score: f64,
        weight: f64,
        observe: &mut impl FnMut(GammaEvent<'_>),
    ) {
        let slot = id as usize;
        if slot >= self.where_is.len() {
            self.where_is.resize(slot + 1, ABSENT);
        }
        match self.where_is[slot] {
            ABSENT => {}
            TOMBSTONE => {
                // Once out, stay out: re-admitting would restart the sum
                // and report a corrupted partial score for this candidate.
                self.stats.rejected += 1;
                observe(GammaEvent::TombstoneRejected {
                    key: candidates.key(id),
                });
                return;
            }
            at => {
                let acc = &mut self.live[at as usize];
                acc.score_sum += score;
                acc.entity_count += 1;
                acc.weight_sum += weight;
                return;
            }
        }
        let newcomer = Accumulator {
            candidate: id,
            score_sum: score,
            entity_count: 1,
            weight_sum: weight,
            log_error_weight: candidates.log_weight(id),
            result_path: candidates.result_path(id),
        };
        if self.gamma.is_some_and(|gamma| self.live.len() >= gamma) {
            // Choose the victim among existing accumulators; the new
            // candidate competes with its own first-entity estimate. Ties
            // break on the key, so the choice is a property of the
            // table's contents alone, not of where they sit in `live`.
            let (victim_at, victim_est) = self
                .live
                .iter()
                .map(Accumulator::estimated_log_score)
                .enumerate()
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1).expect("no NaN scores").then_with(|| {
                        let key = |at: usize| candidates.key(self.live[at].candidate);
                        key(a.0).cmp(key(b.0))
                    })
                })
                .expect("table is full, so non-empty");
            let newcomer_est = newcomer.estimated_log_score();
            if newcomer_est <= victim_est {
                // The newcomer itself is the victim.
                self.where_is[slot] = TOMBSTONE;
                self.stats.rejected += 1;
                observe(GammaEvent::NewcomerRejected {
                    key: candidates.key(id),
                    estimate: newcomer_est,
                });
                return;
            }
            let victim = self.live.swap_remove(victim_at);
            if let Some(moved) = self.live.get(victim_at) {
                self.where_is[moved.candidate as usize] = victim_at as u32;
            }
            self.where_is[victim.candidate as usize] = TOMBSTONE;
            self.stats.evictions += 1;
            observe(GammaEvent::Evicted {
                victim: candidates.key(victim.candidate),
                estimate: victim_est,
            });
        }
        self.where_is[slot] = self.live.len() as u32;
        self.live.push(newcomer);
    }

    /// Look up a candidate's accumulator.
    pub fn get(&self, id: CandId) -> Option<&Accumulator> {
        match *self.where_is.get(id as usize)? {
            ABSENT | TOMBSTONE => None,
            at => Some(&self.live[at as usize]),
        }
    }

    /// The live accumulators, in no meaningful order.
    pub fn live(&self) -> &[Accumulator] {
        &self.live
    }

    /// Number of live accumulators.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no candidate has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Pruning statistics.
    pub fn stats(&self) -> PruningStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::KeywordSlot;
    use crate::variants::Variant;
    use xclean_lm::ErrorModel;

    /// A compiled table over one slot per `(token, distance)` list, β = 5
    /// (so a keyword at distance `d` weighs `−5·d`).
    fn candidates(slots: &[&[(u32, u32)]]) -> CandidateTable {
        let slots: Vec<KeywordSlot> = slots
            .iter()
            .map(|variants| KeywordSlot {
                keyword: String::new(),
                variants: variants
                    .iter()
                    .map(|&(token, distance)| Variant {
                        token: TokenId(token),
                        distance,
                    })
                    .collect(),
            })
            .collect();
        let mut table = CandidateTable::default();
        table.compile(&slots, ErrorModel::new(5.0));
        table
    }

    fn key(ids: &[u32]) -> CandidateKey {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    /// Interns `ids` and adds one unit-weight contribution, unobserved.
    fn add(t: &mut AccumulatorTable, c: &mut CandidateTable, ids: &[u32], score: f64) -> CandId {
        let id = c.intern(&key(ids));
        t.add(c, id, score, 1.0, &mut |_| {});
        id
    }

    #[test]
    fn accumulates_per_candidate() {
        let mut c = candidates(&[&[(1, 1)], &[(2, 0), (3, 2)]]);
        let mut t = AccumulatorTable::new(None);
        let a = add(&mut t, &mut c, &[1, 2], 0.5);
        add(&mut t, &mut c, &[1, 2], 0.25);
        add(&mut t, &mut c, &[1, 3], 0.1);
        assert_eq!(t.len(), 2);
        let acc = t.get(a).unwrap();
        assert_eq!(acc.score_sum, 0.75);
        assert_eq!(acc.entity_count, 2);
        assert_eq!(acc.log_error_weight, -5.0);
        assert_eq!(c.distances(acc.candidate), &[1, 0]);
    }

    #[test]
    fn eviction_removes_lowest_estimate() {
        let mut c = candidates(&[&[(1, 0), (2, 2), (3, 0)]]);
        let mut t = AccumulatorTable::new(Some(2));
        let strong = add(&mut t, &mut c, &[1], 0.9);
        let weak = add(&mut t, &mut c, &[2], 1e-9);
        let newcomer = add(&mut t, &mut c, &[3], 0.5); // beats the weak one
        assert_eq!(t.len(), 2);
        assert!(t.get(strong).is_some());
        assert!(t.get(weak).is_none());
        assert!(t.get(newcomer).is_some());
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn weak_newcomer_is_rejected() {
        let mut c = candidates(&[&[(1, 0), (2, 0), (3, 4)]]);
        let mut t = AccumulatorTable::new(Some(2));
        add(&mut t, &mut c, &[1], 0.9);
        add(&mut t, &mut c, &[2], 0.8);
        let weak = add(&mut t, &mut c, &[3], 1e-12);
        assert_eq!(t.len(), 2);
        assert!(t.get(weak).is_none());
        assert_eq!(t.stats().evictions, 0);
        assert_eq!(t.stats().rejected, 1);
    }

    #[test]
    fn existing_candidates_always_accumulate() {
        // A full table never blocks updates to candidates already present.
        let mut c = candidates(&[&[(1, 0)]]);
        let mut t = AccumulatorTable::new(Some(1));
        let id = add(&mut t, &mut c, &[1], 0.5);
        add(&mut t, &mut c, &[1], 0.5);
        assert_eq!(t.get(id).unwrap().entity_count, 2);
    }

    #[test]
    fn estimate_uses_sample_mean() {
        let a = Accumulator {
            candidate: 0,
            score_sum: 0.5,
            entity_count: 2,
            weight_sum: 2.0,
            log_error_weight: -1.0,
            result_path: PathId(0),
        };
        assert!((a.estimated_log_score() - (-1.0 + 0.25f64.ln())).abs() < 1e-12);
        let zero = Accumulator {
            candidate: 0,
            score_sum: 0.0,
            entity_count: 0,
            weight_sum: 0.0,
            log_error_weight: 0.0,
            result_path: PathId(0),
        };
        assert_eq!(zero.estimated_log_score(), f64::NEG_INFINITY);
    }

    #[test]
    fn observer_sees_gamma_decisions_without_changing_them() {
        // Feed the same contribution stream through an unobserved table
        // and an observed one: identical outcomes, and the observer sees
        // exactly one event per eviction/rejection counted in the stats.
        let mut c = candidates(&[&[(1, 0), (2, 2), (3, 0), (4, 4)]]);
        let stream: Vec<(CandId, f64)> = [
            (1, 0.9),   // fills slot 1
            (2, 1e-9),  // fills slot 2 (weak)
            (3, 0.5),   // evicts [2]
            (2, 0.5),   // tombstone rejection
            (4, 1e-12), // newcomer rejected
        ]
        .iter()
        .map(|&(token, score)| (c.intern(&key(&[token])), score))
        .collect();
        let mut plain = AccumulatorTable::new(Some(2));
        for &(id, s) in &stream {
            plain.add(&c, id, s, 1.0, &mut |_| {});
        }
        let mut observed = AccumulatorTable::new(Some(2));
        let mut events: Vec<String> = Vec::new();
        for &(id, s) in &stream {
            observed.add(&c, id, s, 1.0, &mut |e| {
                events.push(match e {
                    GammaEvent::Evicted { victim, .. } => format!("evict:{}", victim[0].0),
                    GammaEvent::NewcomerRejected { key, .. } => {
                        format!("newcomer:{}", key[0].0)
                    }
                    GammaEvent::TombstoneRejected { key } => format!("tombstone:{}", key[0].0),
                });
            });
        }
        assert_eq!(plain.stats(), observed.stats());
        assert_eq!(plain.len(), observed.len());
        for id in [stream[0].0, stream[2].0] {
            let a = plain.get(id).unwrap();
            let b = observed.get(id).unwrap();
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
    fn eviction_keeps_every_survivor_addressable() {
        // The victim's place in `live` is refilled from the end; the moved
        // accumulator must stay reachable by id and keep accumulating.
        let mut c = candidates(&[&[(1, 2), (2, 0), (3, 0), (4, 0)]]);
        let mut t = AccumulatorTable::new(Some(3));
        let weak = add(&mut t, &mut c, &[1], 1e-9);
        let b = add(&mut t, &mut c, &[2], 0.5);
        let moved = add(&mut t, &mut c, &[3], 0.6);
        let newcomer = add(&mut t, &mut c, &[4], 0.7); // evicts `weak` at position 0
        assert!(t.get(weak).is_none());
        add(&mut t, &mut c, &[3], 0.1);
        assert_eq!(t.get(moved).unwrap().score_sum, 0.6 + 0.1);
        assert_eq!(t.get(b).unwrap().entity_count, 1);
        assert_eq!(t.get(newcomer).unwrap().entity_count, 1);
        assert_eq!(t.len(), 3);
        // Reset forgets tombstones as well as accumulators.
        t.reset(Some(3));
        assert!(t.is_empty());
        assert_eq!(t.stats(), PruningStats::default());
        add(&mut t, &mut c, &[1], 0.5);
        assert!(t.get(weak).is_some());
    }

    #[test]
    fn unbounded_table_never_evicts() {
        let variants: Vec<(u32, u32)> = (0..10_000).map(|i| (i, 1)).collect();
        let mut c = candidates(&[&variants]);
        let mut t = AccumulatorTable::new(None);
        for i in 0..10_000 {
            add(&mut t, &mut c, &[i], 1e-6);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.stats().evictions, 0);
    }
}
