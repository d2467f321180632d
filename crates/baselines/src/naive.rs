//! The naïve XClean evaluator (§V intro): enumerate every candidate query
//! in the Cartesian product of variant sets and score each one with its
//! own passes over the inverted lists.
//!
//! Produces exactly the same ranking as Algorithm 1 (with pruning
//! disabled) — it is the correctness oracle in the integration tests and
//! the efficiency baseline in the benchmarks.

use std::collections::HashMap;

use xclean::config::EntityPrior;
use xclean::{find_result_type, KeywordSlot, ScoredCandidate, XCleanConfig};
use xclean_index::{CorpusIndex, TokenId};
use xclean_lm::{ErrorModel, LanguageModel};
use xclean_xmltree::NodeId;

/// Scores all candidate queries one by one; returns candidates sorted by
/// descending score (same contract as `xclean::run_xclean`).
pub fn run_naive(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
) -> Vec<ScoredCandidate> {
    if slots.is_empty() || slots.iter().any(|s| s.variants.is_empty()) {
        return Vec::new();
    }
    let error_model = ErrorModel::new(config.beta);
    let lm = LanguageModel::new(corpus, config.smoothing);
    let tree = corpus.tree();

    let mut out: Vec<ScoredCandidate> = Vec::new();
    let mut idxs = vec![0usize; slots.len()];
    let mut order = Vec::new();
    'outer: loop {
        let cand: Vec<TokenId> = idxs
            .iter()
            .enumerate()
            .map(|(i, &j)| slots[i].variants[j].token)
            .collect();
        let distances: Vec<u32> = idxs
            .iter()
            .enumerate()
            .map(|(i, &j)| slots[i].variants[j].distance)
            .collect();

        if let Some(rt) = find_result_type(corpus, &cand, config.min_depth, &mut order) {
            let depth = tree.paths().depth(rt.path);
            // Entity scan: group each token's postings by its ancestor of
            // the result type, then keep entities covering all keywords.
            let mut per_entity: HashMap<NodeId, HashMap<TokenId, u64>> = HashMap::new();
            let mut distinct = cand.clone();
            distinct.sort_unstable();
            distinct.dedup();
            for &t in &distinct {
                for p in corpus.postings(t).iter() {
                    let Some(r) = tree.ancestor_at_depth(p.node, depth) else {
                        continue;
                    };
                    if tree.path(r) != rt.path {
                        continue;
                    }
                    *per_entity.entry(r).or_default().entry(t).or_insert(0) += u64::from(p.tf);
                }
            }
            let mut score_sum = 0.0f64;
            let mut entity_count = 0u64;
            for (&r, counts) in &per_entity {
                let dlen = corpus.doc_len(r);
                let mut log_score = 0.0f64;
                let mut ok = true;
                for &t in &cand {
                    match counts.get(&t) {
                        Some(&c) if c > 0 => log_score += lm.log_prob(t, c, dlen),
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let weight = match config.prior {
                        EntityPrior::Uniform => 1.0,
                        EntityPrior::DocLength => dlen.max(1) as f64,
                    };
                    score_sum += log_score.exp() * weight;
                    entity_count += 1;
                }
            }
            if score_sum > 0.0 {
                let normalizer = match config.prior {
                    EntityPrior::Uniform => corpus.count_nodes_of_path(rt.path).max(1) as f64,
                    EntityPrior::DocLength => corpus.path_doc_len_total(rt.path).max(1) as f64,
                };
                out.push(ScoredCandidate {
                    log_score: error_model.log_query_weight(&distances)
                        + (score_sum / normalizer).ln(),
                    tokens: cand,
                    distances,
                    result_path: rt.path,
                    entity_count,
                });
            }
        }

        // Advance the odometer.
        for i in (0..idxs.len()).rev() {
            idxs[i] += 1;
            if idxs[i] < slots[i].variants.len() {
                continue 'outer;
            }
            idxs[i] = 0;
        }
        break;
    }
    out.sort_by(|a, b| {
        b.log_score
            .partial_cmp(&a.log_score)
            .expect("scores are never NaN")
            .then_with(|| a.tokens.cmp(&b.tokens))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean::{run_xclean, VariantGenerator};
    use xclean_xmltree::parse_document;

    fn corpus() -> CorpusIndex {
        let xml = "<a>\
            <c><x>tree</x></c>\
            <c><x>trie</x><x>tree</x><y>icde</y></c>\
            <d><x>trie</x><y>icdt icde</y></d>\
            <d><x>trie</x><y>icde</y></d>\
        </a>";
        CorpusIndex::build(parse_document(xml).unwrap())
    }

    fn slots(c: &CorpusIndex, q: &[&str], eps: usize) -> Vec<KeywordSlot> {
        let gen = VariantGenerator::build(c, eps, 14);
        q.iter()
            .map(|k| KeywordSlot {
                keyword: k.to_string(),
                variants: gen.variants(k),
            })
            .collect()
    }

    /// The naïve evaluator and Algorithm 1 must agree exactly when
    /// pruning is disabled.
    #[test]
    fn agrees_with_algorithm1() {
        let c = corpus();
        let cfg = XCleanConfig {
            gamma: None,
            ..Default::default()
        };
        for query in [
            vec!["tree", "icdt"],
            vec!["trie", "icde"],
            vec!["tree"],
            vec!["tre", "icd"],
        ] {
            let s = slots(&c, &query, 1);
            let fast = run_xclean(&c, &s, &cfg);
            let slow = run_naive(&c, &s, &cfg);
            assert_eq!(fast.candidates.len(), slow.len(), "query {query:?}");
            for (f, s_) in fast.candidates.iter().zip(slow.iter()) {
                assert_eq!(f.tokens, s_.tokens, "query {query:?}");
                assert!(
                    (f.log_score - s_.log_score).abs() < 1e-9,
                    "query {query:?}: {} vs {}",
                    f.log_score,
                    s_.log_score
                );
                assert_eq!(f.entity_count, s_.entity_count);
                assert_eq!(f.result_path, s_.result_path);
            }
        }
    }

    #[test]
    fn empty_when_any_slot_empty() {
        let c = corpus();
        let mut s = slots(&c, &["tree", "icdt"], 1);
        s[0].variants.clear();
        assert!(run_naive(&c, &s, &XCleanConfig::default()).is_empty());
    }
}
