//! Query-level explain traces (the diagnostics plane).
//!
//! [`ExplainTrace`] answers "why did this query return what it did": the
//! per-keyword variant sets, candidate counts entering and leaving every
//! pipeline stage (slots → variants → walk → score → rank), the
//! γ-eviction events taken by the accumulator table, and per-stage wall
//! times.
//!
//! Explain is the *same run* as serving (the engine's `execute`), observed:
//! it passes a γ-observer that captures the table's decisions and hands
//! the run a private disabled [`Telemetry`] — so it never touches the
//! serving counters, histograms, tracer or caches, which are only ever
//! written by the serving wrapper. The suggestions a trace reports are
//! therefore bit-identical to what `suggest` serves — asserted by the
//! `explain_neutrality` integration tests.

use xclean_telemetry::Telemetry;

use crate::pipeline::{Executed, Suggestion};
use crate::pruning::GammaEvent;
use crate::XCleanEngine;

/// Cap on retained γ-eviction events per explain trace (the total count
/// keeps counting past the cap; only the detail list is bounded).
pub const MAX_EXPLAIN_EVICTIONS: usize = 64;

/// What kind of γ-pruning decision an [`EvictionExplain`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GammaEventKind {
    /// An existing accumulator was evicted for a stronger newcomer.
    Evicted,
    /// The newcomer lost the estimate contest and never entered.
    NewcomerRejected,
    /// A contribution for an already-evicted candidate was dropped.
    TombstoneRejected,
}

impl GammaEventKind {
    /// Stable wire name (used verbatim in the explain JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            GammaEventKind::Evicted => "evicted",
            GammaEventKind::NewcomerRejected => "newcomer_rejected",
            GammaEventKind::TombstoneRejected => "tombstone_rejected",
        }
    }
}

/// One γ-pruning decision, with the candidate resolved to terms.
#[derive(Debug, Clone)]
pub struct EvictionExplain {
    /// What happened.
    pub kind: GammaEventKind,
    /// The affected candidate's terms.
    pub terms: Vec<String>,
    /// The estimated log score that decided the contest (`None` for
    /// tombstone rejections, where no estimate is computed; may be
    /// `-inf` for empty accumulators).
    pub estimate: Option<f64>,
}

/// One keyword's generated variant, resolved to its term.
#[derive(Debug, Clone)]
pub struct VariantExplain {
    /// The variant term.
    pub term: String,
    /// Edit distance from the observed keyword.
    pub distance: u32,
}

/// One query keyword with its full variant set.
#[derive(Debug, Clone)]
pub struct KeywordExplain {
    /// The observed (possibly misspelt) keyword.
    pub keyword: String,
    /// `var_ε(keyword)`, resolved to terms.
    pub variants: Vec<VariantExplain>,
}

/// Candidate counts entering/leaving each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCounts {
    /// Query keywords (slots).
    pub keywords: u64,
    /// Total variants across all slots.
    pub variants: u64,
    /// Upper bound on distinct candidates: `Π_i |var_ε(q_i)|`.
    pub candidate_space: u64,
    /// Depth-`d` gating subtrees processed by the walk.
    pub subtrees: u64,
    /// Candidates enumerated (with multiplicity across subtrees).
    pub candidates_enumerated: u64,
    /// Distinct candidates whose result type was computed.
    pub result_type_computations: u64,
    /// Entity score contributions accumulated.
    pub entities_scored: u64,
    /// `AccumulatorTable::add` calls the walk emitted into the table.
    pub contributions: u64,
    /// Accumulators alive when the walk finished (entering rank).
    pub accumulators: u64,
    /// γ-evictions taken.
    pub evictions: u64,
    /// Contributions rejected by γ (newcomer + tombstone).
    pub rejected: u64,
    /// Candidates surviving finalisation (`score_sum > 0`), pre-top-k.
    pub ranked: u64,
    /// Suggestions returned (top-k).
    pub suggestions: u64,
}

/// Per-stage wall times of the explain run itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageNanos {
    /// Variant-slot construction.
    pub slot: u64,
    /// Walk + accumulate.
    pub walk: u64,
    /// Finalise + rank.
    pub rank: u64,
    /// Whole explain call.
    pub total: u64,
}

/// A full explain trace for one query. See the module docs; the serving
/// layer renders this as the `/debug/explain` JSON body.
#[derive(Debug, Clone)]
pub struct ExplainTrace {
    /// The parsed query keywords with their variant sets.
    pub keywords: Vec<KeywordExplain>,
    /// Entity semantics the engine ran under.
    pub semantics: &'static str,
    /// The γ bound in effect (`None` = unbounded).
    pub gamma: Option<usize>,
    /// Per-stage candidate counts.
    pub stages: StageCounts,
    /// Per-stage wall times.
    pub nanos: StageNanos,
    /// First [`MAX_EXPLAIN_EVICTIONS`] γ-events, in decision order.
    pub evictions: Vec<EvictionExplain>,
    /// Total γ-events taken (can exceed `evictions.len()`).
    pub eviction_events_total: u64,
    /// The served suggestions — bit-identical to what `suggest` returns.
    pub suggestions: Vec<Suggestion>,
}

impl XCleanEngine {
    /// Explains a raw query: runs the query under observation and
    /// returns the structured trace. The reported suggestions are
    /// bit-identical to [`XCleanEngine::suggest`]'s (see the module docs).
    pub fn explain(&self, query: &str) -> ExplainTrace {
        self.explain_keywords(&self.parse_query(query))
    }

    /// [`XCleanEngine::explain`] for an already-tokenised query.
    pub fn explain_keywords(&self, keywords: &[String]) -> ExplainTrace {
        let config = self.config();
        let vocab = self.vocab();
        let terms_of = |key: &[xclean_index::TokenId]| -> Vec<String> {
            key.iter().map(|&t| vocab.term(t).to_string()).collect()
        };
        let mut evictions: Vec<EvictionExplain> = Vec::new();
        let mut eviction_events_total = 0u64;
        let Executed {
            slots,
            response,
            ranked,
            accumulators,
        } = self.execute(keywords, config, &Telemetry::disabled(), &mut |e| {
            eviction_events_total += 1;
            if evictions.len() < MAX_EXPLAIN_EVICTIONS {
                let (kind, key, estimate) = match e {
                    GammaEvent::Evicted { victim, estimate } => {
                        (GammaEventKind::Evicted, victim, Some(estimate))
                    }
                    GammaEvent::NewcomerRejected { key, estimate } => {
                        (GammaEventKind::NewcomerRejected, key, Some(estimate))
                    }
                    GammaEvent::TombstoneRejected { key } => {
                        (GammaEventKind::TombstoneRejected, key, None)
                    }
                };
                evictions.push(EvictionExplain {
                    kind,
                    terms: terms_of(key),
                    estimate,
                });
            }
        });
        let stats = response.stats;
        ExplainTrace {
            keywords: slots
                .iter()
                .map(|s| KeywordExplain {
                    keyword: s.keyword.clone(),
                    variants: s
                        .variants
                        .iter()
                        .map(|v| VariantExplain {
                            term: vocab.term(v.token).to_string(),
                            distance: v.distance,
                        })
                        .collect(),
                })
                .collect(),
            semantics: self.semantics().as_str(),
            gamma: config.gamma,
            stages: StageCounts {
                keywords: slots.len() as u64,
                variants: slots.iter().map(|s| s.variants.len() as u64).sum(),
                candidate_space: slots
                    .iter()
                    .fold(1u64, |acc, s| acc.saturating_mul(s.variants.len() as u64)),
                subtrees: stats.subtrees,
                candidates_enumerated: stats.candidates_enumerated,
                result_type_computations: stats.result_type_computations,
                entities_scored: stats.entities_scored,
                // Every scored entity is exactly one contribution emitted
                // into the sink (the same statement counts both).
                contributions: stats.entities_scored,
                accumulators,
                evictions: stats.pruning.evictions,
                rejected: stats.pruning.rejected,
                ranked,
                suggestions: response.suggestions.len() as u64,
            },
            nanos: StageNanos {
                slot: stats.slot_nanos,
                walk: stats.walk_nanos,
                rank: stats.rank_nanos,
                total: (response.elapsed.as_nanos() as u64).max(1),
            },
            evictions,
            eviction_events_total,
            suggestions: response.suggestions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{XCleanConfig, XCleanEngine};
    use xclean_xmltree::parse_document;

    fn engine() -> XCleanEngine {
        let xml = "<dblp>\
            <article><author>hinrich schutze</author><title>geo tagging entities</title></article>\
            <article><author>jones</author><title>health insurance markets</title></article>\
            <article><author>smith</author><title>program instance analysis</title></article>\
            <article><author>smith</author><title>health policy</title></article>\
        </dblp>";
        XCleanEngine::new(
            parse_document(xml).unwrap(),
            XCleanConfig {
                epsilon: 2,
                ..Default::default()
            },
        )
    }

    #[test]
    fn explain_reports_stage_counts_and_matching_suggestions() {
        let e = engine();
        let served = e.suggest("helth insurance");
        let trace = e.explain("helth insurance");
        assert_eq!(trace.semantics, "node_type");
        assert_eq!(trace.keywords.len(), 2);
        assert_eq!(trace.keywords[0].keyword, "helth");
        assert!(trace.keywords[0]
            .variants
            .iter()
            .any(|v| v.term == "health" && v.distance == 1));
        let s = &trace.stages;
        assert_eq!(s.keywords, 2);
        assert!(s.variants >= 2);
        assert!(s.candidate_space >= s.keywords);
        assert!(s.subtrees > 0);
        assert!(s.candidates_enumerated > 0);
        assert!(s.entities_scored > 0);
        assert!(s.contributions > 0);
        assert!(s.accumulators > 0);
        assert!(s.ranked >= s.suggestions);
        assert_eq!(s.suggestions as usize, trace.suggestions.len());
        assert!(trace.nanos.slot > 0 && trace.nanos.walk > 0 && trace.nanos.rank > 0);
        assert_eq!(served.suggestions.len(), trace.suggestions.len());
        for (a, b) in served.suggestions.iter().zip(&trace.suggestions) {
            assert_eq!(a.terms, b.terms);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
            assert_eq!(a.distances, b.distances);
            assert_eq!(a.entity_count, b.entity_count);
        }
    }

    #[test]
    fn explain_captures_gamma_evictions_under_tight_gamma() {
        // Figure-2-style corpus: the second <c> subtree holds tree, trie
        // and icde at once, so several candidates compete inside one
        // gating subtree — γ=1 must take eviction/rejection decisions.
        let xml = "<a>\
            <c><x>tree</x></c>\
            <c><x>trie</x><x>tree</x><y>icde</y></c>\
            <d><x>trie</x><y>icdt icde</y></d>\
            <d><x>trie</x><y>icde</y></d>\
        </a>";
        let e = XCleanEngine::new(
            parse_document(xml).unwrap(),
            XCleanConfig {
                gamma: Some(1),
                ..Default::default()
            },
        );
        let served = e.suggest("tree icdt");
        let trace = e.explain("tree icdt");
        assert_eq!(trace.gamma, Some(1));
        assert_eq!(
            trace.stages.evictions + trace.stages.rejected,
            trace.eviction_events_total
        );
        assert!(trace.eviction_events_total > 0, "γ=1 must evict here");
        assert!(!trace.evictions.is_empty());
        for ev in &trace.evictions {
            assert_eq!(ev.terms.len(), 2);
            if ev.kind == GammaEventKind::TombstoneRejected {
                assert!(ev.estimate.is_none());
            }
        }
        // Even under pruning, explain's suggestions are the served ones.
        for (a, b) in served.suggestions.iter().zip(&trace.suggestions) {
            assert_eq!(a.terms, b.terms);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
        }
    }

    #[test]
    fn explain_of_hopeless_query_is_well_formed() {
        let e = engine();
        let trace = e.explain("qqqqqqq zzzzzzz");
        assert!(trace.suggestions.is_empty());
        assert_eq!(trace.stages.ranked, 0);
        assert!(trace.nanos.total > 0);
    }
}
