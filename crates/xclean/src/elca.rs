//! ELCA-semantics variant of XClean.
//!
//! The paper notes (§VIII, §VI-B) that the framework "is general enough to
//! accommodate other semantics"; ELCA (exclusive lowest common ancestor,
//! the XRank semantics) is the natural third instantiation next to
//! node-type and SLCA. A node `v` is an ELCA of a candidate query iff for
//! every keyword there is a witness occurrence under `v` that is not
//! "claimed" by any *full* proper descendant of `v` (a descendant whose
//! subtree also contains all keywords).
//!
//! The run reuses the shared gated anchor walk; within one gating subtree
//! occurrence sets are small, so ELCAs are computed with the
//! lowest-full-ancestor characterisation: `v` is an ELCA iff for every
//! keyword some occurrence's *lowest full ancestor* is exactly `v`.

use std::collections::HashMap;

use xclean_index::CorpusIndex;
use xclean_xmltree::{NodeId, XmlTree};

use crate::algorithm::{KeywordSlot, RunOutput};
use crate::config::XCleanConfig;
use crate::pipeline::Semantics;

/// Computes the ELCA set of per-keyword occurrence-node lists (sorted,
/// deduplicated), restricted to ancestors at or below `floor_depth`.
///
/// Exposed for testing; complexity is `O(m · depth + F · m)` where `m` is
/// the total occurrence count and `F` the number of full nodes — fine for
/// the small per-subtree sets the engine feeds it.
pub fn elca_of_lists(tree: &XmlTree, lists: &[Vec<NodeId>], floor_depth: u32) -> Vec<NodeId> {
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return Vec::new();
    }
    // Full nodes: ancestors (not above floor_depth) containing at least
    // one occurrence of every list.
    let mut full: Vec<NodeId> = Vec::new();
    {
        let mut seen: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        for l in lists {
            for &o in l {
                let mut cur = Some(o);
                while let Some(c) = cur {
                    if tree.depth(c) < floor_depth {
                        break;
                    }
                    if !seen.insert(c) {
                        break; // ancestors above already visited
                    }
                    cur = tree.parent(c);
                }
            }
        }
        for &v in &seen {
            let contains_all = lists
                .iter()
                .all(|l| l.iter().any(|&o| tree.is_ancestor_or_self(v, o)));
            if contains_all {
                full.push(v);
            }
        }
        full.sort_unstable();
    }
    if full.is_empty() {
        return Vec::new();
    }
    // Lowest full ancestor per occurrence, per keyword; an ELCA is a full
    // node that is the lowest full ancestor of a witness for every keyword.
    let lowest_full = |o: NodeId| -> Option<NodeId> {
        let mut cur = Some(o);
        while let Some(c) = cur {
            if tree.depth(c) < floor_depth {
                return None;
            }
            if full.binary_search(&c).is_ok() {
                return Some(c);
            }
            cur = tree.parent(c);
        }
        None
    };
    let mut witness_count: HashMap<NodeId, usize> = HashMap::new();
    for l in lists {
        let mut claimed: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        for &o in l {
            if let Some(v) = lowest_full(o) {
                claimed.insert(v);
            }
        }
        for v in claimed {
            *witness_count.entry(v).or_insert(0) += 1;
        }
    }
    let mut out: Vec<NodeId> = witness_count
        .into_iter()
        .filter(|&(_, c)| c == lists.len())
        .map(|(v, _)| v)
        .collect();
    out.sort_unstable();
    out
}

/// Runs the ELCA-semantics suggestion pipeline (same contract as
/// [`crate::run_xclean`] / [`crate::run_slca`]; the entity rule is
/// [`elca_of_lists`] floored at `config.min_depth`).
pub fn run_elca(corpus: &CorpusIndex, slots: &[KeywordSlot], config: &XCleanConfig) -> RunOutput {
    crate::pipeline::run_corpus(corpus, Semantics::Elca, slots, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_xmltree::{parse_document, Dewey};

    fn tree_of(xml: &str) -> XmlTree {
        parse_document(xml).unwrap()
    }

    fn node(tree: &XmlTree, d: &str) -> NodeId {
        tree.node_at(&Dewey::parse(d).unwrap()).unwrap()
    }

    /// Brute-force ELCA oracle from the definition.
    fn brute_elca(tree: &XmlTree, lists: &[Vec<NodeId>], floor: u32) -> Vec<NodeId> {
        let full = |v: NodeId| {
            tree.depth(v) >= floor
                && lists
                    .iter()
                    .all(|l| l.iter().any(|&o| tree.is_ancestor_or_self(v, o)))
        };
        let mut out: Vec<NodeId> = tree
            .iter()
            .filter(|&v| {
                full(v)
                    && lists.iter().all(|l| {
                        l.iter().any(|&o| {
                            if !tree.is_ancestor_or_self(v, o) {
                                return false;
                            }
                            // No full node strictly between v and o.
                            let mut cur = Some(o);
                            while let Some(c) = cur {
                                if c == v {
                                    return true;
                                }
                                if full(c) {
                                    return false;
                                }
                                cur = tree.parent(c);
                            }
                            false
                        })
                    })
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn elca_includes_exclusive_ancestor() {
        // Classic ELCA example: both r1 and the article are ELCAs when the
        // article has its own exclusive witnesses.
        let t = tree_of(
            "<a>\
               <art><x>k1</x><x>k2</x>\
                    <sec><x>k1</x><x>k2</x></sec>\
               </art>\
             </a>",
        );
        let k1 = vec![node(&t, "1.1.1"), node(&t, "1.1.3.1")];
        let k2 = vec![node(&t, "1.1.2"), node(&t, "1.1.3.2")];
        let got = elca_of_lists(&t, &[k1.clone(), k2.clone()], 1);
        // sec (1.1.3) is an ELCA; art (1.1) is too — it has the direct
        // x children as exclusive witnesses.
        assert_eq!(got, vec![node(&t, "1.1"), node(&t, "1.1.3")]);
        assert_eq!(got, brute_elca(&t, &[k1, k2], 1));
    }

    #[test]
    fn elca_excludes_non_exclusive_ancestor() {
        // The article's only witnesses live in the section: the article is
        // NOT an ELCA (all witnesses claimed by the full descendant).
        let t = tree_of("<a><art><meta>x</meta><sec><x>k1</x><x>k2</x></sec></art></a>");
        let k1 = vec![node(&t, "1.1.2.1")];
        let k2 = vec![node(&t, "1.1.2.2")];
        let got = elca_of_lists(&t, &[k1.clone(), k2.clone()], 1);
        assert_eq!(got, vec![node(&t, "1.1.2")]);
        assert_eq!(got, brute_elca(&t, &[k1, k2], 1));
    }

    #[test]
    fn elca_superset_of_slca() {
        // Every SLCA is an ELCA.
        let t =
            tree_of("<a><r><x>1</x><y>2</y></r><r><x>3</x><y>4</y><s><x>5</x><y>6</y></s></r></a>");
        let xs = vec![node(&t, "1.1.1"), node(&t, "1.2.1"), node(&t, "1.2.3.1")];
        let ys = vec![node(&t, "1.1.2"), node(&t, "1.2.2"), node(&t, "1.2.3.2")];
        let elcas = elca_of_lists(&t, &[xs.clone(), ys.clone()], 1);
        let slcas = crate::slca::slca_of_lists(&t, &[xs.clone(), ys.clone()]);
        for s in &slcas {
            assert!(elcas.contains(s), "SLCA {s:?} missing from ELCAs");
        }
        assert_eq!(elcas, brute_elca(&t, &[xs, ys], 1));
    }

    #[test]
    fn floor_depth_excludes_shallow_elcas() {
        let t = tree_of("<a><x>k1</x><y>k2</y></a>");
        let k1 = vec![node(&t, "1.1")];
        let k2 = vec![node(&t, "1.2")];
        assert_eq!(elca_of_lists(&t, &[k1.clone(), k2.clone()], 2), vec![]);
        assert_eq!(elca_of_lists(&t, &[k1, k2], 1), vec![t.root()]);
    }

    #[test]
    fn empty_inputs() {
        let t = tree_of("<a><x>1</x></a>");
        assert!(elca_of_lists(&t, &[], 1).is_empty());
        assert!(elca_of_lists(&t, &[vec![node(&t, "1.1")], vec![]], 1).is_empty());
    }

    #[test]
    fn run_elca_end_to_end() {
        let xml = "<db>\
            <rec><t>health insurance</t></rec>\
            <rec><t>program instance</t></rec>\
        </db>";
        let corpus = CorpusIndex::build(parse_document(xml).unwrap());
        let gen = crate::variants::VariantGenerator::build(&corpus, 2, 14);
        let slots: Vec<KeywordSlot> = ["health", "insurrance"]
            .iter()
            .map(|q| KeywordSlot {
                keyword: q.to_string(),
                variants: gen.variants(q),
            })
            .collect();
        let out = run_elca(&corpus, &slots, &XCleanConfig::default());
        assert!(!out.candidates.is_empty());
        let top: Vec<&str> = out.candidates[0]
            .tokens
            .iter()
            .map(|&t| corpus.vocab().term(t))
            .collect();
        assert_eq!(top, vec!["health", "insurance"]);
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;
    use xclean_xmltree::TreeBuilder;

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
        fn elca_matches_bruteforce(
            shape in proptest::collection::vec(0u8..3, 0..40),
            picks in proptest::collection::vec(
                proptest::collection::vec(0usize..100, 1..6), 1..4),
            floor in 1u32..3,
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
            let got = elca_of_lists(&tree, &lists, floor);
            // Brute-force oracle.
            let full = |v: NodeId| {
                tree.depth(v) >= floor
                    && lists.iter().all(|l| l.iter().any(|&o| tree.is_ancestor_or_self(v, o)))
            };
            let mut expect: Vec<NodeId> = tree
                .iter()
                .filter(|&v| {
                    full(v)
                        && lists.iter().all(|l| {
                            l.iter().any(|&o| {
                                if !tree.is_ancestor_or_self(v, o) {
                                    return false;
                                }
                                let mut cur = Some(o);
                                while let Some(c) = cur {
                                    if c == v {
                                        return true;
                                    }
                                    if full(c) {
                                        return false;
                                    }
                                    cur = tree.parent(c);
                                }
                                false
                            })
                        })
                })
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
