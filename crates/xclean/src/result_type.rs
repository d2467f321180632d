//! Result-type inference: `FindResultType(C)` (§IV-B2 Eq. 7 and §V-B).
//!
//! For a candidate query `C` and label path `p`, the utility of `p` as the
//! result type is
//!
//! ```text
//! U(C, p) = log(1 + Π_{w∈C} f_w^p) · r^depth(p)
//! ```
//!
//! The best result type is the maximising `p` over paths where every
//! keyword has `f_w^p > 0`, restricted to `depth(p) ≥ d` (the minimal
//! depth threshold of §V-B).

use xclean_index::{CorpusIndex, TokenId};
use xclean_xmltree::PathId;

use crate::view::Scoring;

/// Outcome of result-type inference for a candidate query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultType {
    /// The winning label path `p_Q`.
    pub path: PathId,
    /// Its utility `U(C, p)`.
    pub utility: f64,
}

/// Computes the best result type for the candidate query `tokens`, or
/// `None` when no type of depth ≥ `min_depth` contains all keywords.
///
/// Implements the index-intersection strategy of §V-B: each keyword's
/// `(path, f_w^p)` list is intersected (lists are sorted by path id) and
/// Eq. 7 is evaluated on the intersection.
pub fn find_result_type(
    corpus: &CorpusIndex,
    tokens: &[TokenId],
    min_depth: u32,
    depth_decay: f64,
) -> Option<ResultType> {
    find_result_type_scoped(
        &Scoring::unsharded(corpus),
        tokens,
        min_depth,
        depth_decay,
        &mut Vec::new(),
    )
}

/// [`find_result_type`] over a [`Scoring`] view. Under a shard scope the
/// `(path, f)` lists and depths are the reconstructed *global* statistics,
/// so every shard computes the same result type for a candidate as the
/// unsharded engine — utilities, intersection order and the path-id
/// tie-break included. `order` is caller-recycled scratch.
pub(crate) fn find_result_type_scoped(
    view: &Scoring<'_>,
    tokens: &[TokenId],
    min_depth: u32,
    depth_decay: f64,
    order: &mut Vec<usize>,
) -> Option<ResultType> {
    if tokens.is_empty() {
        return None;
    }
    // Intersect starting from the shortest list to minimise work.
    order.clear();
    order.extend(0..tokens.len());
    order.sort_unstable_by_key(|&i| view.paths_of(tokens[i]).len());
    let base = view.paths_of(tokens[order[0]]);

    let mut best: Option<ResultType> = None;
    'paths: for &(path, f0) in base {
        let depth = view.path_depth(path);
        if depth < min_depth {
            continue;
        }
        let mut product = f64::from(f0);
        for &i in &order[1..] {
            let f = view.f(tokens[i], path);
            if f == 0 {
                continue 'paths;
            }
            product *= f64::from(f);
        }
        let utility = (1.0 + product).ln() * depth_decay.powi(depth as i32);
        let better = match &best {
            None => true,
            // Tie-break on smaller path id for determinism.
            Some(b) => utility > b.utility || (utility == b.utility && path < b.path),
        };
        if better {
            best = Some(ResultType { path, utility });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_index::CorpusIndex;
    use xclean_xmltree::parse_document;

    /// The tree of the paper's Example 3, engineered so that
    /// f_trie^{/a/c}=2, f_trie^{/a/c/x}=3, f_trie^{/a/d}=2, f_trie^{/a/d/x}=2,
    /// f_icde^{/a/c}=1, f_icde^{/a/c/x}=1, f_icde^{/a/d}=2, f_icde^{/a/d/x}=2.
    fn example3_corpus() -> CorpusIndex {
        let xml = "<a>\
            <c><x>trie</x><x>trie</x></c>\
            <c><x>trie</x><x>icde</x></c>\
            <d><x>trie icde</x></d>\
            <d><x>trie</x><x>icde</x></d>\
        </a>";
        CorpusIndex::build(parse_document(xml).unwrap())
    }

    fn path_of(c: &CorpusIndex, s: &str) -> PathId {
        c.tree()
            .paths()
            .iter()
            .find(|&p| c.tree().paths().display(p, c.tree().labels()) == s)
            .unwrap()
    }

    #[test]
    fn example3_picks_a_d_with_r_08() {
        let c = example3_corpus();
        let trie = c.vocab().get("trie").unwrap();
        let icde = c.vocab().get("icde").unwrap();
        let rt = find_result_type(&c, &[trie, icde], 2, 0.8).unwrap();
        assert_eq!(rt.path, path_of(&c, "/a/d"));
        // U(C, /a/d) = ln(1 + 2·2) · 0.8² = ln 5 · 0.64
        let expect = 5.0f64.ln() * 0.64;
        assert!((rt.utility - expect).abs() < 1e-12);
    }

    #[test]
    fn example3_utilities_match_formula() {
        let c = example3_corpus();
        let trie = c.vocab().get("trie").unwrap();
        let icde = c.vocab().get("icde").unwrap();
        // With min_depth 3, only the /…/x paths qualify; /a/d/x wins
        // (ln(1+4)·r³ > ln(1+3)·r³).
        let rt = find_result_type(&c, &[trie, icde], 3, 0.8).unwrap();
        assert_eq!(rt.path, path_of(&c, "/a/d/x"));
        let expect = 5.0f64.ln() * 0.8f64.powi(3);
        assert!((rt.utility - expect).abs() < 1e-12);
    }

    #[test]
    fn min_depth_excludes_root() {
        let c = example3_corpus();
        let trie = c.vocab().get("trie").unwrap();
        let icde = c.vocab().get("icde").unwrap();
        // min_depth 1 admits the root path /a; with decay 1.0 the root
        // sees products of full-tree counts but deeper paths can still win
        // on larger products. Just check it returns something ≥ depth 1.
        let rt = find_result_type(&c, &[trie, icde], 1, 1.0).unwrap();
        assert!(c.tree().paths().depth(rt.path) >= 1);
        // min_depth 2 must never return /a.
        let rt = find_result_type(&c, &[trie, icde], 2, 1.0).unwrap();
        assert!(c.tree().paths().depth(rt.path) >= 2);
    }

    #[test]
    fn disconnected_keywords_have_no_type() {
        // alpha only under /r/s, beta only under /r/t: no common path at
        // depth ≥ 2.
        let xml = "<r><s><p>alpha</p></s><t><p>beta</p></t></r>";
        let c = CorpusIndex::build(parse_document(xml).unwrap());
        let a = c.vocab().get("alpha").unwrap();
        let b = c.vocab().get("beta").unwrap();
        assert!(find_result_type(&c, &[a, b], 2, 0.8).is_none());
        // At min_depth 1 they do share the root.
        assert!(find_result_type(&c, &[a, b], 1, 0.8).is_some());
    }

    #[test]
    fn single_keyword_query() {
        let c = example3_corpus();
        let icde = c.vocab().get("icde").unwrap();
        let rt = find_result_type(&c, &[icde], 2, 0.8).unwrap();
        // f_icde is 2 at /a/d and /a/d/x, 1 at /a/c, /a/c/x; /a/d wins
        // (shallower at equal product).
        assert_eq!(rt.path, path_of(&c, "/a/d"));
    }

    #[test]
    fn empty_token_list() {
        let c = example3_corpus();
        assert!(find_result_type(&c, &[], 2, 0.8).is_none());
    }

    #[test]
    fn repeated_token_squares_frequency() {
        let c = example3_corpus();
        let icde = c.vocab().get("icde").unwrap();
        let rt = find_result_type(&c, &[icde, icde], 2, 0.8).unwrap();
        // product = f², /a/d: 4 vs /a/c: 1 → /a/d with ln(5)·0.64.
        assert_eq!(rt.path, path_of(&c, "/a/d"));
        assert!((rt.utility - 5.0f64.ln() * 0.64).abs() < 1e-12);
    }
}
