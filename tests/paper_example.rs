//! Integration test reproducing the paper's running example end to end
//! (Figure 2, Examples 2–5, §V-C).
//!
//! The tree: records of types `/a/c` and `/a/d` containing the tokens
//! `tree`, `trees`, `trie`, `icde`, `icdt`. The dirty query `tree icdt`
//! has the candidate space {tree, trees, trie} × {icdt, icde} (Example 2
//! with ε = 1) and XClean must return only *connected* candidates, scored
//! by Eq. 10.

use xclean_suite::xclean::{XCleanConfig, XCleanEngine};
use xclean_suite::xmltree::parse_document;

/// A faithful rendering of Figure 2's sample tree: the anchor walk of
/// Example 5 visits subtrees 1.2, 1.3, 1.4.
fn paper_tree() -> &'static str {
    "<a>\
        <c><x>tree</x><x>trees</x></c>\
        <c><x>trie</x><x>tree</x><y>icde</y></c>\
        <d><x>trie</x><y>icdt icde</y></d>\
        <d><x>trie</x><y>icde</y></d>\
    </a>"
}

fn engine() -> XCleanEngine {
    XCleanEngine::new(
        parse_document(paper_tree()).unwrap(),
        XCleanConfig {
            epsilon: 1,
            min_depth: 2,
            ..Default::default()
        },
    )
}

#[test]
fn example2_variant_sets() {
    let e = engine();
    let gen = e.variant_generator();
    let names = |kw: &str| -> Vec<String> {
        gen.variants(kw)
            .iter()
            .map(|v| e.corpus().vocab().term(v.token).to_string())
            .collect()
    };
    assert_eq!(names("tree"), vec!["tree", "trees", "trie"]);
    assert_eq!(names("icdt"), vec!["icdt", "icde"]);
}

#[test]
fn example5_suggestions_are_valid_and_connected() {
    let e = engine();
    let r = e.suggest("tree icdt");
    assert!(!r.suggestions.is_empty());
    let all: Vec<String> = r.suggestions.iter().map(|s| s.query_string()).collect();
    // Candidates observed in Example 5's walk: C1 = "trie icde" (entities
    // 1.3, 1.4 of type /a/d), C2 = "tree icde" (entity 1.2 of type /a/c),
    // C3 = "trie icdt" (type /a/d).
    assert!(all.contains(&"trie icde".to_string()), "{all:?}");
    assert!(all.contains(&"tree icde".to_string()), "{all:?}");
    assert!(all.contains(&"trie icdt".to_string()), "{all:?}");
    // The literal dirty query has no connected entity: never suggested.
    assert!(!all.contains(&"tree icdt".to_string()), "{all:?}");
    // Every suggestion is valid: at least one supporting entity.
    for s in &r.suggestions {
        assert!(s.entity_count > 0);
    }
}

#[test]
fn example3_result_types() {
    // For candidate "trie icde" the best result type is /a/d (Example 3's
    // computation with r = 0.8 — adapted to this tree's counts).
    let e = engine();
    let r = e.suggest("trie icde");
    let top = &r.suggestions[0];
    assert_eq!(top.terms, vec!["trie", "icde"]);
    let path = top.result_path.expect("node-type semantics sets a path");
    assert_eq!(
        e.corpus()
            .tree()
            .paths()
            .display(path, e.corpus().tree().labels()),
        "/a/d"
    );
}

#[test]
fn min_depth_gate_prunes_root_connections() {
    // "tree icdt" only co-occur via the root (depth 1). With d = 2 the
    // pair is never materialised as a candidate — the paper's key
    // pruning insight (§V-B).
    let e = engine();
    let r = e.suggest("tree icdt");
    assert!(r.rank_of(&["tree", "icdt"]).is_none());
    // Sanity: the same engine with min_depth = 1 does connect them at the
    // root (the root path /a gets result-type status).
    let cfg = XCleanConfig {
        epsilon: 1,
        min_depth: 1,
        ..Default::default()
    };
    let kw: Vec<String> = vec!["tree".into(), "icdt".into()];
    let r1 = e.suggest_keywords_with(&kw, &cfg);
    assert!(r1.rank_of(&["tree", "icdt"]).is_some());
}

#[test]
fn anchor_walk_skips_first_subtree() {
    // Subtree 1.1 contains only "tree" — no icdt/icde variant — so the
    // anchor/skip logic must not enumerate candidates there. Observable
    // effect: postings are skipped.
    let e = engine();
    let r = e.suggest("tree icdt");
    assert!(
        r.stats.subtrees >= 2,
        "visited {} subtrees",
        r.stats.subtrees
    );
    // The passing subtrees were collected: through the merged lists on
    // the linear walk, from the level table's entity columns on the scan.
    let access = r.stats.access;
    assert!(access.read + access.from_columns > 0, "{access:?}");
}
