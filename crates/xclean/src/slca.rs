//! SLCA-semantics variant of XClean (§VI-B).
//!
//! Under SLCA semantics each candidate query's entities are its *smallest
//! lowest common ancestors*: nodes containing at least one occurrence of
//! every keyword, none of whose descendants also does. The run shares
//! Algorithm 1's merged-list/anchor/skip machinery; within each gating
//! subtree the SLCAs are computed exactly (the minimal-depth gate `d`
//! excludes root-level connections, consistent with the node-type run).
//!
//! A candidate's prior normalisation uses its own entity count
//! (`N = |SLCA(C)|` in Eq. 8), since SLCA entities are query-specific.

use xclean_index::{CorpusIndex, TokenId};
use xclean_lm::ErrorModel;
use xclean_xmltree::{NodeId, XmlTree};

use crate::algorithm::{prior_weight, KeywordSlot, RunOutput, RunStats};
use crate::arena::QueryArena;
use crate::config::XCleanConfig;
use crate::pipeline::Semantics;
use crate::pruning::ScoreSink;
use crate::view::Scoring;

/// Computes the SLCA set of `lists` — per-keyword sorted, deduplicated
/// node lists — using the indexed-lookup approach: for every node of the
/// smallest list, find the deepest LCA achievable with each other list
/// (via its document-order predecessor/successor), then discard non-minimal
/// results.
///
/// Exposed for testing and for downstream users who want raw SLCA search.
pub fn slca_of_lists(tree: &XmlTree, lists: &[Vec<NodeId>]) -> Vec<NodeId> {
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    let pivot_idx = (0..lists.len())
        .min_by_key(|&i| lists[i].len())
        .expect("non-empty");
    let mut candidates: Vec<NodeId> = Vec::new();
    for &a in &lists[pivot_idx] {
        let mut u = a;
        for (i, list) in lists.iter().enumerate() {
            if i == pivot_idx {
                continue;
            }
            // Closest nodes around `a` in document order.
            let pos = list.partition_point(|&x| x < a);
            let mut best: Option<NodeId> = None;
            if pos < list.len() {
                let l = tree.lca(a, list[pos]);
                best = Some(l);
            }
            if pos > 0 {
                let l = tree.lca(a, list[pos - 1]);
                best = Some(match best {
                    Some(b) if tree.depth(b) >= tree.depth(l) => b,
                    _ => l,
                });
            }
            let b = best.expect("list non-empty");
            // The joint container is the shallower of the per-list results.
            if tree.depth(b) < tree.depth(u) {
                u = b;
            } else {
                u = tree.lca(u, b);
            }
        }
        candidates.push(u);
    }
    candidates.sort_unstable();
    candidates.dedup();
    // Remove ancestors of other candidates (keep the minimal ones). In
    // document order an ancestor immediately precedes its descendants, so
    // one linear pass with the subtree extent suffices.
    let mut out: Vec<NodeId> = Vec::new();
    for &c in candidates.iter().rev() {
        match out.last() {
            Some(&last) if tree.is_ancestor_or_self(c, last) => {}
            _ => out.push(c),
        }
    }
    out.reverse();
    out
}

/// Runs the SLCA-semantics suggestion pipeline: the same run as
/// [`crate::algorithm::run_xclean`] with SLCA entities, each candidate
/// normalised by its own prior mass.
pub fn run_slca(corpus: &CorpusIndex, slots: &[KeywordSlot], config: &XCleanConfig) -> RunOutput {
    crate::pipeline::run_corpus(corpus, Semantics::Slca, slots, config)
}

/// The LCA-family accumulate rule (SLCA, ELCA): within each gating
/// subtree a candidate's entities are the nodes `lca_rule` derives from
/// its keywords' occurrence lists, each scored like a node-type entity and
/// emitted into `sink`. The minimal-depth gate `d` excludes shallower
/// entities, consistent with the node-type run. LCA entities are
/// candidate-specific, so no result type is inferred (contributions carry
/// [`PathId::INVALID`]).
pub(crate) fn accumulate_lca<S: ScoreSink>(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    lca_rule: impl Fn(&XmlTree, &[Vec<NodeId>]) -> Vec<NodeId>,
    stats: &mut RunStats,
    arena: &mut QueryArena,
    sink: &mut S,
) {
    let lm = view.language_model(config.smoothing);
    let tree = view.tree();
    arena.compile(slots, ErrorModel::new(config.beta));
    let QueryArena {
        walk,
        candidate,
        candidates,
        contributions,
        ..
    } = arena;
    contributions.forget();
    let mut candidates_enumerated = 0u64;
    let mut entities_scored = 0u64;

    crate::walk::walk_gated_subtrees_scoped(
        view,
        slots,
        config,
        stats,
        walk,
        |_gate, tokens, occurrences| {
            // Per-token occurrence nodes/counts in this subtree, gathered
            // on the first candidate's request.
            let mut budget = crate::walk::MAX_CANDIDATES_PER_SUBTREE;
            crate::walk::enumerate_candidates_in(
                tokens.slot_tokens(),
                candidate,
                &mut budget,
                &mut |cand| {
                    candidates_enumerated += 1;
                    let mut distinct: Vec<TokenId> = cand.to_vec();
                    distinct.sort_unstable();
                    distinct.dedup();
                    let lists: Vec<Vec<NodeId>> = distinct
                        .iter()
                        .map(|&t| {
                            let nodes = occurrences.of(t).iter();
                            nodes.map(|&(_, n, _)| n).collect()
                        })
                        .collect();
                    let entities = lca_rule(tree, &lists);
                    if entities.is_empty() {
                        return;
                    }
                    let id = candidates.intern(cand);
                    for &r in &entities {
                        if tree.depth(r) < config.min_depth {
                            continue;
                        }
                        let dlen = view.doc_len(r);
                        let count_of = |t| {
                            let within = occurrences.of(t).iter();
                            let within =
                                within.filter(|&&(_, n, _)| tree.is_ancestor_or_self(r, n));
                            Some(within.map(|&(_, _, tf)| u64::from(tf)).sum())
                        };
                        let weighted = contributions
                            .weighted(&lm, config.prior, id, cand, dlen, count_of)
                            .expect("every token has a count");
                        entities_scored += 1;
                        let weight = prior_weight(config.prior, dlen);
                        sink.accumulate(candidates, id, weighted, weight);
                    }
                },
            );
        },
    );
    stats.candidates_enumerated = candidates_enumerated;
    stats.entities_scored = entities_scored;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::VariantGenerator;
    use xclean_xmltree::{parse_document, Dewey};

    fn tree_of(xml: &str) -> XmlTree {
        parse_document(xml).unwrap()
    }

    fn node(tree: &XmlTree, d: &str) -> NodeId {
        tree.node_at(&Dewey::parse(d).unwrap()).unwrap()
    }

    /// Brute-force SLCA oracle: all nodes containing one witness per list,
    /// minus those with a descendant that also does.
    fn brute_slca(tree: &XmlTree, lists: &[Vec<NodeId>]) -> Vec<NodeId> {
        let contains = |v: NodeId| {
            lists
                .iter()
                .all(|l| l.iter().any(|&n| tree.is_ancestor_or_self(v, n)))
        };
        let all: Vec<NodeId> = tree.iter().filter(|&v| contains(v)).collect();
        let mut min: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|&v| {
                !all.iter()
                    .any(|&w| w != v && tree.is_ancestor_or_self(v, w))
            })
            .collect();
        min.sort_unstable();
        min
    }

    #[test]
    fn slca_simple() {
        let t = tree_of("<a><b><x>1</x><y>2</y></b><c><x>3</x></c></a>");
        // list1: both x nodes; list2: the y node.
        let l1 = vec![node(&t, "1.1.1"), node(&t, "1.2.1")];
        let l2 = vec![node(&t, "1.1.2")];
        let s = slca_of_lists(&t, &[l1.clone(), l2.clone()]);
        assert_eq!(s, vec![node(&t, "1.1")]);
        assert_eq!(s, brute_slca(&t, &[l1, l2]));
    }

    #[test]
    fn slca_excludes_ancestors() {
        let t = tree_of("<a><b><x>1</x><y>2</y></b><y>3</y></a>");
        // x in b; y in b and directly under a: SLCA should be b only
        // (a contains both but has descendant b that also does).
        let l1 = vec![node(&t, "1.1.1")];
        let l2 = vec![node(&t, "1.1.2"), node(&t, "1.2")];
        let s = slca_of_lists(&t, &[l1.clone(), l2.clone()]);
        assert_eq!(s, vec![node(&t, "1.1")]);
        assert_eq!(s, brute_slca(&t, &[l1, l2]));
    }

    #[test]
    fn slca_multiple_results() {
        let t = tree_of("<a><r><x>1</x><y>2</y></r><r><x>3</x><y>4</y></r></a>");
        let l1 = vec![node(&t, "1.1.1"), node(&t, "1.2.1")];
        let l2 = vec![node(&t, "1.1.2"), node(&t, "1.2.2")];
        let s = slca_of_lists(&t, &[l1.clone(), l2.clone()]);
        assert_eq!(s, vec![node(&t, "1.1"), node(&t, "1.2")]);
        assert_eq!(s, brute_slca(&t, &[l1, l2]));
    }

    #[test]
    fn slca_empty_inputs() {
        let t = tree_of("<a><x>1</x></a>");
        assert!(slca_of_lists(&t, &[]).is_empty());
        assert!(slca_of_lists(&t, &[vec![node(&t, "1.1")], vec![]]).is_empty());
    }

    #[test]
    fn slca_single_list_is_itself() {
        let t = tree_of("<a><x>1</x><x>2</x></a>");
        let l = vec![node(&t, "1.1"), node(&t, "1.2")];
        assert_eq!(slca_of_lists(&t, std::slice::from_ref(&l)), l);
    }

    #[test]
    fn run_slca_end_to_end() {
        let xml = "<dblp>\
            <article><author>smith</author><title>health insurance</title></article>\
            <article><author>jones</author><title>program instance</title></article>\
        </dblp>";
        let corpus = CorpusIndex::build(parse_document(xml).unwrap());
        let gen = VariantGenerator::build(&corpus, 2, 14);
        let slots: Vec<KeywordSlot> = ["health", "insurrance"]
            .iter()
            .map(|q| KeywordSlot {
                keyword: q.to_string(),
                variants: gen.variants(q),
            })
            .collect();
        let out = run_slca(&corpus, &slots, &XCleanConfig::default());
        assert!(!out.candidates.is_empty());
        let top: Vec<&str> = out.candidates[0]
            .tokens
            .iter()
            .map(|&t| corpus.vocab().term(t))
            .collect();
        assert_eq!(top, vec!["health", "insurance"]);
        // "health instance" is not connected below the root: absent.
        for c in &out.candidates {
            let terms: Vec<&str> = c.tokens.iter().map(|&t| corpus.vocab().term(t)).collect();
            assert_ne!(terms, vec!["health", "instance"]);
        }
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;
    use xclean_xmltree::TreeBuilder;

    /// Random small trees + random lists: indexed SLCA must equal the
    /// brute-force definition.
    fn arbitrary_tree(shape: &[u8]) -> XmlTree {
        let mut b = TreeBuilder::new("r");
        let mut depth = 0usize;
        for &s in shape {
            match s % 3 {
                0 => {
                    b.open("n");
                    depth += 1;
                }
                1 if depth > 0 => {
                    b.close();
                    depth -= 1;
                }
                _ => {
                    b.leaf("m", "x");
                }
            }
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn slca_matches_bruteforce(
            shape in proptest::collection::vec(0u8..3, 0..40),
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..100, 1..6), 1..4),
        ) {
            let tree = arbitrary_tree(&shape);
            let n = tree.len();
            let lists: Vec<Vec<NodeId>> = picks
                .iter()
                .map(|l| {
                    let mut v: Vec<NodeId> =
                        l.iter().map(|&i| NodeId((i % n) as u32)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            let got = slca_of_lists(&tree, &lists);
            // Brute force oracle (duplicated from unit tests).
            let contains = |v: NodeId| {
                lists.iter().all(|l| l.iter().any(|&x| tree.is_ancestor_or_self(v, x)))
            };
            let mut expect: Vec<NodeId> = tree.iter().filter(|&v| contains(v)).collect();
            let snapshot = expect.clone();
            expect.retain(|&v| {
                !snapshot.iter().any(|&w| w != v && tree.is_ancestor_or_self(v, w))
            });
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
