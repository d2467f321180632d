//! Robustness tests: degenerate, adversarial, and edge-case inputs must
//! never panic and must keep the engine's invariants.

use xclean_suite::xclean::walk::MAX_CANDIDATES_PER_SUBTREE;
use xclean_suite::xclean::{Semantics, XCleanConfig, XCleanEngine};
use xclean_suite::xmltree::parse_document;

fn engine() -> XCleanEngine {
    let xml = "<r>\
        <rec><t>alpha beta gamma</t></rec>\
        <rec><t>delta epsilon</t></rec>\
        <rec><t>schütze tagging</t></rec>\
    </r>";
    XCleanEngine::new(parse_document(xml).unwrap(), XCleanConfig::default())
}

#[test]
fn empty_query() {
    let e = engine();
    let r = e.suggest("");
    assert!(r.suggestions.is_empty());
}

#[test]
fn whitespace_and_punctuation_query() {
    let e = engine();
    assert!(e.suggest("   ").suggestions.is_empty());
    let r = e.suggest("alpha, beta!");
    assert!(!r.suggestions.is_empty());
    assert_eq!(r.suggestions[0].terms, vec!["alpha", "beta"]);
}

#[test]
fn unicode_keywords() {
    let e = engine();
    let r = e.suggest("schütze tagging");
    assert!(!r.suggestions.is_empty());
    // schütze → schütze at distance 0 (indexed as-is).
    assert_eq!(r.suggestions[0].terms[0], "schütze");
    // ASCII-folded variant still finds it within ε = 2.
    let r2 = e.suggest("schutze tagging");
    assert_eq!(r2.suggestions[0].terms[0], "schütze");
}

#[test]
fn very_long_query() {
    let e = engine();
    let q = vec!["alpha".to_string(); 12].join(" ");
    let r = e.suggest(&q);
    // 12 repetitions of the same keyword: each slot resolves to alpha;
    // the candidate must still be connected (all in one entity).
    for s in &r.suggestions {
        assert_eq!(s.terms.len(), 12);
    }
}

#[test]
fn query_of_garbage_tokens() {
    let e = engine();
    let r = e.suggest("zzzzz xxxxx qqqqq");
    assert!(r.suggestions.is_empty());
}

#[test]
fn mixed_known_and_garbage() {
    // One hopeless keyword empties the candidate space (Cartesian
    // product with an empty variant set).
    let e = engine();
    let r = e.suggest("alpha zzzzzzz");
    assert!(r.suggestions.is_empty());
}

#[test]
fn single_character_query() {
    let e = engine();
    let r = e.suggest("a");
    // "a" is within ε=2 of nothing long; may or may not match, but must
    // not panic and all results must be valid.
    for s in &r.suggestions {
        assert!(s.entity_count > 0);
    }
}

#[test]
fn numeric_query() {
    let e = engine();
    let _ = e.suggest("2009 1234");
}

#[test]
fn document_with_single_node() {
    let e = XCleanEngine::new(
        parse_document("<only>word here</only>").unwrap(),
        XCleanConfig::default(),
    );
    // Tokens exist only at depth 1 (the root) — below min_depth, so no
    // valid entity exists. Must not panic; returns nothing.
    let r = e.suggest("word");
    assert!(r.suggestions.is_empty());
}

#[test]
fn min_depth_deeper_than_tree() {
    let e = XCleanEngine::new(
        parse_document("<r><a>token</a></r>").unwrap(),
        XCleanConfig {
            min_depth: 10,
            ..Default::default()
        },
    );
    assert!(e.suggest("token").suggestions.is_empty());
}

#[test]
fn slca_on_degenerate_trees() {
    let e = XCleanEngine::new(
        parse_document("<r><a><b><c>deep token chain</c></b></a></r>").unwrap(),
        XCleanConfig::default(),
    )
    .with_semantics(Semantics::Slca);
    let r = e.suggest("deep token");
    assert!(!r.suggestions.is_empty());
    assert_eq!(r.suggestions[0].terms, vec!["deep", "token"]);
}

#[test]
fn duplicate_keywords() {
    let e = engine();
    let r = e.suggest("alpha alpha");
    if !r.suggestions.is_empty() {
        assert_eq!(r.suggestions[0].terms, vec!["alpha", "alpha"]);
    }
}

/// Four keywords with ten one-substitution variants each, all in one
/// record: 10⁴ candidates there, more than the `|C_eff|` budget. A second
/// record holds the keywords as typed.
fn budget_engine() -> XCleanEngine {
    let variants: Vec<String> = BUDGET_QUERY
        .split(' ')
        .flat_map(|w| ('a'..='j').map(move |c| format!("{}{c}", &w[..4])))
        .collect();
    let xml = format!(
        "<r><rec><t>{}</t></rec><rec><t>{BUDGET_QUERY}</t></rec></r>",
        variants.join(" ")
    );
    XCleanEngine::new(parse_document(&xml).unwrap(), XCleanConfig::default())
}

const BUDGET_QUERY: &str = "kwalm prost vindu zelko";

#[test]
fn candidate_budget_binds_without_panicking() {
    for semantics in [Semantics::NodeType, Semantics::Slca, Semantics::Elca] {
        let e = budget_engine().with_semantics(semantics);
        let r = e.suggest(BUDGET_QUERY);
        // The crowded record stops at the budget; the other adds its one.
        assert_eq!(
            r.stats.candidates_enumerated,
            MAX_CANDIDATES_PER_SUBTREE as u64 + 1,
            "{semantics:?}"
        );
        assert_eq!(
            r.suggestions[0].query_string(),
            BUDGET_QUERY,
            "{semantics:?}"
        );
    }
}

#[test]
fn tight_budget_configs_do_not_panic() {
    let e = engine();
    let budget = budget_engine();
    for gamma in [Some(1), Some(2), None] {
        for k in [1usize, 2, 100] {
            let cfg = XCleanConfig {
                gamma,
                k,
                ..Default::default()
            };
            let kw: Vec<String> = vec!["alpha".into(), "beta".into()];
            let r = e.suggest_keywords_with(&kw, &cfg);
            assert!(r.suggestions.len() <= k);
            let kw: Vec<String> = BUDGET_QUERY.split(' ').map(String::from).collect();
            let r = budget.suggest_keywords_with(&kw, &cfg);
            assert!(!r.suggestions.is_empty() && r.suggestions.len() <= k);
        }
    }
}
