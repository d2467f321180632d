//! Allocation budget of the serving hot path.
//!
//! The contract (DESIGN.md §15, "Layout of `walk_accumulate`"): on a warm
//! engine — pooled arena grown to its steady state, posting lists decoded
//! — a query allocates for its variant slots and for the `SuggestResponse`
//! it returns, and a fixed few times besides; nothing between slot building
//! and the materialisation of the top-k grows with the work walked, and
//! with skipping on the walk builds nothing per keyword: the scan reads
//! postings through the cursors of its pooled columns. So a query that scans tens of thousands of postings
//! into entity bitmaps and enumerates thousands of candidates allocates
//! exactly as often, slots aside, as a query of the same keyword and
//! suggestion count whose scan hands over a handful of subtrees — with an
//! unbounded γ-table and under a γ that evicts. The scan's per-query
//! bitmaps live in the pooled arena, like every other walk buffer; the
//! bitmaps the level table keeps for frequent terms and the entity lists it
//! keeps for the rest belong to the table and are built by the warm-up's
//! first use of each.
//!
//! The gate's level table (DESIGN.md §15) is part of that warm state from
//! the start: the engine constructor builds it, so not even the first
//! query allocates for it.
//!
//! Slot building has a budget of its own (DESIGN.md §15, "Hashed FastSS
//! probes"): a keyword's lookup allocates its key scratch and the variant
//! vector it returns, whether it probes seven keys or two hundred and
//! verifies one candidate or hundreds.
//!
//! One `#[test]` only: the counting allocator is process-global, and the
//! harness would run a second test on a parallel thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use xclean_suite::datagen::{generate_dblp, DblpConfig};
use xclean_suite::fastss::index::ONE_WALK;
use xclean_suite::fastss::{VariantIndex, VariantIndexConfig};
use xclean_suite::index::{CorpusIndex, TokenId};
use xclean_suite::xclean::variants::PARTITION_THRESHOLD;
use xclean_suite::xclean::{SuggestResponse, XCleanConfig, XCleanEngine};
use xclean_suite::xmltree::NodeId;

mod support;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (`alloc` + `realloc`) `f` makes on this thread's watch.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Allocations of one warm `suggest_keywords` beyond those of building
/// its slots (which depend on the keywords' spelling, not on the corpus
/// walk), and the response.
fn net_allocations(engine: &XCleanEngine, query: &[String]) -> (u64, SuggestResponse) {
    let (slots, _) = allocations(|| engine.make_slots(query));
    let (total, response) = allocations(|| engine.suggest_keywords(query));
    assert!(
        total >= slots,
        "a query builds its slots: {total} < {slots}"
    );
    (total - slots, response)
}

/// The two most frequent vocabulary terms of at least five letters, and
/// the most frequent with one of the rarest, as clean two-keyword queries:
/// the first pair's lists are both long, the second pairs a long list with
/// a short one, so few subtrees pass.
fn heavy_and_light(engine: &XCleanEngine) -> (Vec<String>, Vec<String>) {
    let corpus = engine.corpus();
    let vocab = corpus.vocab();
    let mut terms: Vec<TokenId> = (0..vocab.len() as u32)
        .map(TokenId)
        .filter(|&t| {
            vocab.term(t).len() >= 5 && vocab.term(t).bytes().all(|b| b.is_ascii_lowercase())
        })
        .collect();
    terms.sort_by_key(|&t| (std::cmp::Reverse(vocab.cf(t)), t));
    let heavy = vec![
        vocab.term(terms[0]).to_string(),
        vocab.term(terms[1]).to_string(),
    ];
    // A pair that still shares a publication, so the light query returns a
    // suggestion too: the most frequent term and, of the tail terms sharing
    // one with it, the one whose slot — its variants' lists together — is
    // shortest.
    let tree = corpus.tree();
    let publication = |n| tree.ancestor_at_depth(n, 2);
    let nodes = |t| corpus.postings(t).nodes().iter().copied();
    let frequent: HashSet<NodeId> = nodes(terms[0]).filter_map(publication).collect();
    let slot_postings = |t: TokenId| -> usize {
        let slots = engine.make_slots(&[vocab.term(t).to_string()]);
        let variants = slots[0].variants.iter();
        variants.map(|v| corpus.postings(v.token).len()).sum()
    };
    let rare = terms
        .iter()
        .rev()
        .take(terms.len() / 2)
        .filter(|&&t| nodes(t).any(|n| publication(n).is_some_and(|p| frequent.contains(&p))))
        .min_by_key(|&&t| (slot_postings(t), t))
        .expect("a tail term shares a publication with the most frequent term");
    let mut light = [terms[0], *rare];
    light.sort_unstable();
    (
        heavy,
        light.iter().map(|&t| vocab.term(t).to_string()).collect(),
    )
}

/// Over the mixed-content library (result types at and below the gate,
/// text between entities): constructing an engine leaves the level table
/// of its `min_depth` built, and a warm query allocates the same when
/// repeated.
fn level_tables_are_built_by_the_constructor() {
    let corpus = std::sync::Arc::new(CorpusIndex::build(support::mixed_depth_library(12)));
    let queries: Vec<Vec<String>> = support::LIBRARY_QUERIES
        .iter()
        .map(|q| q.split_whitespace().map(str::to_string).collect())
        .collect();
    for min_depth in [2u32, 3] {
        let engine = XCleanEngine::from_shared(
            corpus.clone(),
            XCleanConfig {
                epsilon: 1,
                min_depth,
                ..XCleanConfig::default()
            },
        );
        let (built, entities) = allocations(|| corpus.level(min_depth).len());
        assert_eq!(built, 0, "min_depth={min_depth}: the constructor builds");
        assert!(entities > 0);
        for q in &queries {
            // Warm on the query itself: the pooled arena sheds per-slot
            // buffers when a query with fewer keywords passes through.
            engine.suggest_keywords(q);
            let (first, _) = net_allocations(&engine, q);
            let (again, _) = net_allocations(&engine, q);
            assert_eq!(first, again, "min_depth={min_depth} {q:?}");
            assert!(
                first < 64,
                "min_depth={min_depth} {q:?}: {first} allocations"
            );
        }
    }
    // The probe does see a build: nothing asked for depth 4 yet.
    let (built, _) = allocations(|| corpus.level(4).len());
    assert!(built > 0, "an unvisited depth builds on first request");
}

/// `make_slots` over one keyword at a time allocates four times — the
/// slot vector, the keyword's copy, the lookup's key scratch, the
/// variants — for a 3-letter word with seven keys and dozens of
/// candidates as for a 14-letter word with 121 keys, a word long enough
/// for the segment probes, or a word whose probe runs hold more ids than
/// the lookup's one walk collects on the stack; three times when no
/// probed slot is occupied and there is nothing to verify.
fn slot_allocations_do_not_grow_with_probes_or_candidates(engine: &XCleanEngine) {
    let vocab = engine.corpus().vocab();
    let lowercase = |t: &&str| t.bytes().all(|b| b.is_ascii_lowercase());
    let mut keywords: Vec<String> = [3, 5, 8, 11, 14]
        .iter()
        .map(|&len| {
            let mut of_len = vocab.iter_terms().filter(|t| t.len() == len);
            of_len.find(lowercase).expect("a term of every length")
        })
        .map(str::to_string)
        .collect();
    // One edit away from a term, so nothing is found at distance 0.
    keywords.push(format!("{}x", keywords[2]));
    // Past the partition threshold: segment keys as well.
    keywords.push("internationalisation".to_string());
    keywords.push("zzzzzzzzzzzzzzzzzzzzzzzz".to_string());
    // The first term whose runs overflow the one-walk buffer: its lookup
    // counts, then fills.
    let config = engine.config();
    let terms: Vec<&str> = vocab.iter_terms().collect();
    let index = VariantIndex::build(
        &terms,
        VariantIndexConfig {
            epsilon: config.epsilon,
            partition_threshold: PARTITION_THRESHOLD,
        },
    );
    let overflows = terms.iter().find(|t| {
        let query: Vec<char> = t.chars().collect();
        index
            .candidates(&index.probe_keys(&query, config.epsilon))
            .len()
            > ONE_WALK
    });
    keywords.push(
        overflows
            .expect("a term past the one-walk buffer")
            .to_string(),
    );
    let mut variants = Vec::new();
    for keyword in keywords {
        let query = [keyword];
        let (calls, slots) = allocations(|| engine.make_slots(&query));
        let found = slots[0].variants.len();
        assert!(
            calls == 4 || (calls == 3 && found == 0),
            "{query:?}: {calls} allocations, {found} variants"
        );
        variants.push(found);
    }
    assert!(
        variants.iter().max() >= Some(&20) && variants.contains(&0),
        "{variants:?}"
    );
}

#[test]
fn hot_path_allocations_do_not_grow_with_the_work_walked() {
    level_tables_are_built_by_the_constructor();
    let tree = generate_dblp(&DblpConfig {
        publications: 30_000,
        ..DblpConfig::default()
    });
    let corpus = std::sync::Arc::new(CorpusIndex::build(tree));
    let default = XCleanEngine::from_shared(corpus.clone(), XCleanConfig::default());
    slot_allocations_do_not_grow_with_probes_or_candidates(&default);
    drop(default);
    // k = 1: both queries return exactly one suggestion, so their
    // responses hold the same number of vectors and strings. ε = 1: at
    // ε = 2 every tail term's slot takes in a frequent neighbour, and the
    // light query passes many subtrees.
    for gamma in [Some(1000), Some(2)] {
        let engine = XCleanEngine::from_shared(
            corpus.clone(),
            XCleanConfig {
                gamma,
                k: 1,
                epsilon: 1,
                ..XCleanConfig::default()
            },
        );
        assert_eq!(engine.config().num_threads, 1);
        let (heavy, light) = heavy_and_light(&engine);
        // Warm: decode posting lists, build the kept entity sets, grow
        // the pooled arena to the heavy query's needs, resolve metric
        // handles.
        for _ in 0..2 {
            engine.suggest_keywords(&heavy);
            engine.suggest_keywords(&light);
        }
        let (heavy_net, heavy_response) = net_allocations(&engine, &heavy);
        let (light_net, light_response) = net_allocations(&engine, &light);
        let (heavy_again, _) = net_allocations(&engine, &heavy);

        let stats = heavy_response.stats;
        assert!(
            stats.access.scan_postings() > 0 && stats.candidates_enumerated >= 1_000,
            "the heavy query must scan: {stats:?}"
        );
        assert!(
            light_response.stats.access.scan_postings() > 0 && light_response.stats.subtrees <= 500,
            "the light query must scan, and hand over few subtrees: {:?}",
            light_response.stats
        );
        assert_eq!(heavy_response.suggestions.len(), 1);
        assert_eq!(light_response.suggestions.len(), 1);
        if gamma == Some(2) {
            assert!(
                stats.pruning.evictions + stats.pruning.rejected > 0,
                "γ = 2 must bind on the heavy query: {stats:?}"
            );
        }
        assert_eq!(
            heavy_net, heavy_again,
            "γ={gamma:?}: a repeated query allocates the same"
        );
        assert!(
            heavy_net == light_net,
            "γ={gamma:?}: {} subtrees / {} candidates / {} contributions cost {heavy_net} \
             allocations beyond slots, {} subtrees cost {light_net}",
            stats.subtrees,
            stats.candidates_enumerated,
            stats.entities_scored,
            light_response.stats.subtrees,
        );
        // Seven, the one-suggestion response among them: nothing per
        // keyword, subtree, candidate or contribution.
        assert_eq!(heavy_net, 7, "γ={gamma:?}: {heavy_net} allocations");
    }
}
