//! Diagnostic — who pays for Algorithm 1's walk.
//!
//! Runs a RAND + RULE pool over the large generated corpus (the shape of
//! the `xbench` pool) and prints, per decile of queries ordered by walk
//! time, what the walk was given (slots, variants, postings) and what it
//! did with it (the postings of members marked from the level table's kept
//! entity lists and the share of their postings its kept bitmaps covered,
//! subtrees passed, the distinct sets of variant tokens they hold — the
//! patterns the scorer enumerates candidates for once each — entities
//! scored, nanoseconds per subtree), where the
//! time went — the scan's marking, the collection of the passing subtrees'
//! tokens, and the scoring of them, which reads the sums it asks for — and
//! the share of passing subtrees the scorer took from the level table's
//! entity columns without gathering a posting.
//! Every query must scan, both ways the scan marks a member and scoring
//! from the columns must be in use, the pool's passing subtrees must hold
//! fewer patterns than there are subtrees, so the scorer replays some, and
//! each query's posting I/O must be what its marking and its passing
//! subtrees account for — the run panics otherwise, so CI's smoke run keeps
//! all of them on trial.
//!
//! Timed **pass-style**: every pass runs each query once, in pool order,
//! and a query's time is its minimum over the passes. Repeating one query
//! back to back instead runs it with its postings and gate entries already
//! in cache and hides exactly the memory latency this table is about
//! (DESIGN.md §15, "Measuring honestly").
//!
//! The stage split times the bare walk (the engine's walk with a scorer
//! that does nothing) in passes of its own: *mark* is the scan's time to
//! its first passing subtree, *collect* the rest of the bare walk, and
//! *score* the engine's walk time less the bare walk's; each is a minimum
//! over the passes, so the three need not add up to the walk exactly.
//!
//! A diagnostic, not a gate: performance claims are made with `xbench`.
//! Run in a release build; the scale scales corpus and pool.

use std::time::Instant;

use xclean::walk::walk_gated_subtrees;
use xclean::{KeywordSlot, RunStats, XCleanConfig, XCleanEngine};
use xclean_datagen::{generate_large_dblp, LargeDblpConfig};
use xclean_index::{AccessStats, CorpusIndex};

use crate::datasets::{profile_pool, profile_publications};
use crate::report::{Cell, Report, Table};

/// Timed passes over the pool.
const PASSES: usize = 5;

/// What one query cost and what it walked.
struct Profile {
    /// Walk + rank time: minimum over the passes.
    nanos: u64,
    slots: usize,
    variants: usize,
    postings: usize,
    /// Postings the scan marked from kept lists.
    scanned: u64,
    /// Postings the scan covered with kept bitmaps.
    cached: u64,
    passed: u64,
    /// Distinct held-token sets among the passing subtrees.
    patterns: u64,
    /// Entity contributions the engine's scorer accumulated.
    entities: u64,
    /// Passing subtrees the engine's scorer took from the columns alone.
    from_columns: u64,
    /// Bare-walk time to the first passing subtree: minimum over the
    /// passes.
    mark_nanos: u64,
    /// The bare walk's time: minimum over the passes.
    bare_nanos: u64,
    /// The engine's walk time: minimum over the passes.
    walk_nanos: u64,
}

/// The posting I/O of a scan over `slots` that handed `passed` subtrees to
/// a scorer that never asked for their occurrences: every member list
/// marked once, by its kept bitmap or its kept list, then each passed
/// subtree served from the columns, so no member moves. Nothing when a
/// slot has no variant, and then the walk does not run.
fn scan_io(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    passed: u64,
) -> AccessStats {
    let mut io = AccessStats::default();
    if slots.is_empty() || slots.iter().any(|s| s.variants.is_empty()) {
        return io;
    }
    for v in slots.iter().flat_map(|s| &s.variants) {
        let postings = corpus.postings(v.token).len() as u64;
        match corpus.entity_bitmap(config.min_depth, v.token) {
            Some(_) => io.cached += postings,
            None => io.scanned += postings,
        }
    }
    io.from_columns = passed;
    io
}

/// Runs the profile at `scale` (1.0 → 100 000 publications, 2048 queries).
pub(super) fn run(scale: f64) -> Report {
    let publications = profile_publications(scale);
    let mut report = Report::new(
        format!(
            "walk profile: large DBLP, {publications} publications, RAND+RULE pool \
             (pass-style, min of {PASSES} passes)"
        ),
        None,
    );
    let engine = XCleanEngine::new(
        generate_large_dblp(&LargeDblpConfig {
            publications,
            ..Default::default()
        }),
        XCleanConfig::default(),
    );
    let corpus = engine.corpus();
    let config = engine.config();
    let pool = profile_pool(corpus, scale);

    // What each query walks.
    let (slots, mut profiles): (Vec<Vec<KeywordSlot>>, Vec<Profile>) = pool
        .iter()
        .map(|query| {
            let slots = engine.make_slots(query);
            let mut stats = RunStats::default();
            let mut held = Vec::new();
            walk_gated_subtrees(corpus, &slots, config, &mut stats, |_, tokens, _| {
                held.push(tokens.held().to_vec())
            });
            let passed = held.len() as u64;
            held.sort_unstable();
            held.dedup();
            let io = scan_io(corpus, &slots, config, passed);
            assert_eq!(io, stats.access, "every query scans: {query:?}");
            let lists = slots.iter().flat_map(|s| &s.variants);
            let scored = engine.suggest_keywords(query).stats;
            let profile = Profile {
                nanos: u64::MAX,
                slots: slots.len(),
                variants: slots.iter().map(|s| s.variants.len()).sum(),
                postings: lists.map(|v| corpus.postings(v.token).len()).sum(),
                scanned: stats.access.scanned,
                cached: stats.access.cached,
                passed,
                patterns: held.len() as u64,
                entities: scored.entities_scored,
                from_columns: scored.access.from_columns,
                mark_nanos: u64::MAX,
                bare_nanos: u64::MAX,
                walk_nanos: u64::MAX,
            };
            (slots, profile)
        })
        .unzip();
    let read: u64 = profiles.iter().map(|p| p.scanned).sum();
    let cached: u64 = profiles.iter().map(|p| p.cached).sum();
    assert!(
        read > 0 && cached > 0,
        "the scan must mark members both ways: {read} postings read, {cached} cached"
    );
    let from_columns: u64 = profiles.iter().map(|p| p.from_columns).sum();
    assert!(
        from_columns > 0,
        "the scorer must take passing subtrees from the columns"
    );
    let passed: u64 = profiles.iter().map(|p| p.passed).sum();
    let patterns: u64 = profiles.iter().map(|p| p.patterns).sum();
    assert!(
        patterns < passed,
        "the scorer must replay patterns: {patterns} patterns over {passed} passing subtrees"
    );

    let mut pass_nanos = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        for (slots, profile) in slots.iter().zip(&mut profiles) {
            let mut stats = RunStats::default();
            let mut first = None;
            let start = Instant::now();
            walk_gated_subtrees(corpus, slots, config, &mut stats, |_, _, _| {
                first.get_or_insert_with(Instant::now);
            });
            let end = Instant::now();
            let mark = (first.unwrap_or(end) - start).as_nanos() as u64;
            profile.mark_nanos = profile.mark_nanos.min(mark);
            profile.bare_nanos = profile.bare_nanos.min((end - start).as_nanos() as u64);
        }
        let mut total = 0;
        for (query, profile) in pool.iter().zip(&mut profiles) {
            let stats = engine.suggest_keywords(query).stats;
            let nanos = stats.walk_nanos + stats.rank_nanos;
            profile.nanos = profile.nanos.min(nanos);
            profile.walk_nanos = profile.walk_nanos.min(stats.walk_nanos);
            total += nanos;
        }
        pass_nanos.push(total);
    }
    let fastest = *pass_nanos.iter().min().expect("PASSES > 0");
    report.line(format!(
        "{} queries; walk + rank per pass: fastest {:.1} ms, slowest {:.1} ms",
        pool.len(),
        fastest as f64 / 1e6,
        *pass_nanos.iter().max().expect("PASSES > 0") as f64 / 1e6,
    ));
    report.line("");

    // Costliest queries first, cut into ten equal groups.
    profiles.sort_by_key(|p| std::cmp::Reverse(p.nanos));
    let total_nanos: u64 = profiles.iter().map(|p| p.nanos).sum();
    let mut deciles = Table::new([
        "decile",
        "time %",
        "us/query",
        "slots",
        "variants",
        "postings",
        "scanned",
        "cached %",
        "passed",
        "patterns",
        "entities",
        "ns/subtree",
        "mark us",
        "collect us",
        "score us",
        "columns %",
    ]);
    for decile in 0..10 {
        let group = &profiles[decile * profiles.len() / 10..(decile + 1) * profiles.len() / 10];
        let n = group.len().max(1) as f64;
        let sum = |f: fn(&Profile) -> u64| group.iter().map(f).sum::<u64>() as f64;
        let nanos = sum(|p| p.nanos);
        let passed = sum(|p| p.passed);
        let scanned = sum(|p| p.scanned);
        let cached = sum(|p| p.cached);
        let mark = sum(|p| p.mark_nanos);
        let bare = sum(|p| p.bare_nanos);
        deciles.push(vec![
            (decile + 1).into(),
            Cell::Wall(100.0 * nanos / total_nanos.max(1) as f64, 1),
            Cell::Wall(nanos / n / 1e3, 1),
            Cell::Num(sum(|p| p.slots as u64) / n, 1),
            Cell::Num(sum(|p| p.variants as u64) / n, 0),
            Cell::Num(sum(|p| p.postings as u64) / n, 0),
            Cell::Num(scanned / n, 0),
            Cell::Num(100.0 * cached / (scanned + cached).max(1.0), 0),
            Cell::Num(passed / n, 0),
            Cell::Num(sum(|p| p.patterns) / n, 1),
            Cell::Num(sum(|p| p.entities) / n, 0),
            Cell::Wall(nanos / passed.max(1.0), 0),
            Cell::Wall(mark / n / 1e3, 1),
            Cell::Wall((bare - mark) / n / 1e3, 1),
            Cell::Wall(
                sum(|p| p.walk_nanos.saturating_sub(p.bare_nanos)) / n / 1e3,
                1,
            ),
            Cell::Num(100.0 * sum(|p| p.from_columns) / passed.max(1.0), 0),
        ]);
    }
    report.table(deciles);
    report
}
