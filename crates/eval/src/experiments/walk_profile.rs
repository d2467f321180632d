//! Diagnostic — who pays for Algorithm 1's walk.
//!
//! Runs a RAND + RULE pool over the large generated corpus (the shape of
//! the `xbench` pool) and prints, per decile of queries ordered by walk
//! time, what the walk was given (slots, variants, postings) and what it
//! did with it (the share of queries that took the scan path, the postings
//! they read one at a time and the share of their postings the level
//! table's kept bitmaps covered, subtrees visited and passed, nanoseconds
//! per subtree), then the distance histogram of merged-list member moves.
//! Both walk paths, and both ways the scan marks a member, must be in use —
//! the run panics otherwise, so CI's smoke run keeps all of them on trial.
//!
//! Timed **pass-style**: every pass runs each query once, in pool order,
//! and a query's time is its minimum over the passes. Repeating one query
//! back to back instead runs it with its postings and gate entries already
//! in cache and hides exactly the memory latency this table is about
//! (DESIGN.md §15, "Measuring honestly").
//!
//! A diagnostic, not a gate: performance claims are made with `xbench`.
//! Run in a release build; the scale scales corpus and pool.

use xclean::walk::walk_gated_subtrees;
use xclean::{KeywordSlot, RunStats, XCleanConfig, XCleanEngine};
use xclean_datagen::{generate_large_dblp, LargeDblpConfig};
use xclean_index::{AccessStats, CorpusIndex, PostingList};
use xclean_xmltree::NodeId;

use crate::datasets::{profile_pool, profile_publications};
use crate::report::{Cell, Report, Table};

/// Timed passes over the pool.
const PASSES: usize = 5;
/// Upper bounds of the member-move distance buckets (the last is open).
const MOVE_BUCKETS: [usize; 5] = [1, 4, 16, 64, usize::MAX];

/// What one query cost and what it walked.
struct Profile {
    /// Walk + rank time: minimum over the passes.
    nanos: u64,
    slots: usize,
    variants: usize,
    postings: usize,
    /// Postings the scan path read one at a time (0 when the query
    /// leapfrogged).
    scanned: u64,
    /// Postings the scan path covered with kept bitmaps.
    cached: u64,
    visited: u64,
    passed: u64,
}

/// Member-move distances of one pass, bucketed by [`MOVE_BUCKETS`], next
/// to the posting I/O the current query's moves add up to.
#[derive(Default)]
struct Moves {
    histogram: [u64; MOVE_BUCKETS.len()],
    io: AccessStats,
}

impl Moves {
    fn record(&mut self, distance: usize) {
        let bucket = MOVE_BUCKETS.iter().position(|&b| distance <= b);
        self.histogram[bucket.expect("last bucket is open")] += 1;
    }
}

/// One variant's posting list with its cursor.
struct Member<'a> {
    list: &'a PostingList,
    pos: usize,
}

impl Member<'_> {
    fn head(&self) -> Option<NodeId> {
        (self.pos < self.list.len()).then(|| self.list.node_at(self.pos))
    }

    /// `next()` on this member: one posting read.
    fn step(&mut self, moves: &mut Moves) {
        self.pos += 1;
        moves.io.read += 1;
        moves.record(1);
    }
}

/// The merged list's head: the smallest member head.
fn head(members: &[Member<'_>]) -> Option<NodeId> {
    members.iter().filter_map(Member::head).min()
}

/// `skip_to(target)` on a merged list: every member behind it gallops.
fn skip_to(members: &mut [Member<'_>], target: NodeId, moves: &mut Moves) {
    moves.io.skip_calls += 1;
    for m in members.iter_mut() {
        if m.head().is_some_and(|n| n < target) {
            let to = m.list.skip_from(m.pos, target);
            moves.io.skipped += (to - m.pos) as u64;
            moves.record(to - m.pos);
            m.pos = to;
        }
    }
}

/// Replays the gated walk of one query member by member, recording the
/// distance of every member move (a `next()` moves one posting, a
/// `skip_to` as many as it jumps). `passed` are the subtrees the walk
/// handed to the scorer; with `scan` the replay follows the scan path —
/// every member list marked once, by its kept bitmap or posting by posting,
/// then each passed subtree collected — otherwise the leapfrog. Returns the
/// posting I/O it performed, which must equal the engine's own counters.
fn member_moves(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    passed: &[NodeId],
    scan: bool,
    moves: &mut Moves,
) -> AccessStats {
    assert!(
        config.enable_skipping,
        "the replay follows the skipping walk"
    );
    moves.io = AccessStats::default();
    let mut lists: Vec<Vec<Member<'_>>> = slots
        .iter()
        .map(|s| {
            let members = s.variants.iter().map(|v| Member {
                list: corpus.postings(v.token),
                pos: 0,
            });
            members.collect()
        })
        .collect();
    let level = corpus.level(config.min_depth);
    let mut cursor = 0;
    if scan {
        for v in slots.iter().flat_map(|s| &s.variants) {
            let postings = corpus.postings(v.token).len() as u64;
            match corpus.entity_bitmap(config.min_depth, v.token) {
                Some(_) => moves.io.cached += postings,
                None => moves.io.scanned += postings,
            }
        }
        for &g in passed {
            cursor = level.seek(cursor, g);
            let (_, g_end) = level.extent(cursor).expect("a passed subtree");
            for members in &mut lists {
                skip_to(members, g, moves);
                for m in members.iter_mut() {
                    while m.head().is_some_and(|n| n.0 < g_end) {
                        m.step(moves);
                    }
                }
            }
        }
        return moves.io;
    }
    loop {
        let mut anchor = None;
        for members in &lists {
            match head(members) {
                Some(n) => anchor = anchor.max(Some(n)),
                None => return moves.io,
            }
        }
        let Some(anchor) = anchor else {
            return moves.io;
        };
        cursor = level.seek(cursor, anchor);
        let gate = level.extent(cursor).filter(|&(g, _)| g <= anchor);
        let Some((g, g_end)) = gate else {
            // A posting shallower than the gate: every member on it steps.
            for m in lists.iter_mut().flatten() {
                if m.head() == Some(anchor) {
                    m.step(moves);
                }
            }
            continue;
        };
        let all_present = lists.iter_mut().all(|members| {
            skip_to(members, g, moves);
            head(members).is_some_and(|n| n.0 < g_end)
        });
        for members in &mut lists {
            if all_present {
                for m in members.iter_mut() {
                    while m.head().is_some_and(|n| n.0 < g_end) {
                        m.step(moves);
                    }
                }
            } else if head(members).is_some_and(|n| n.0 < g_end) {
                skip_to(members, NodeId(g_end), moves);
            }
        }
    }
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

    // What each query walks, and the member moves of one pass.
    let mut moves = Moves::default();
    let mut profiles: Vec<Profile> = pool
        .iter()
        .map(|query| {
            let slots = engine.make_slots(query);
            let mut stats = RunStats::default();
            let mut passed = Vec::new();
            walk_gated_subtrees(corpus, &slots, config, &mut stats, |g, _, _| passed.push(g));
            let scan = stats.access.scan_postings() > 0;
            let replayed = member_moves(corpus, &slots, config, &passed, scan, &mut moves);
            assert_eq!(replayed, stats.access, "replay diverged on {query:?}");
            let lists = slots.iter().flat_map(|s| &s.variants);
            Profile {
                nanos: u64::MAX,
                slots: slots.len(),
                variants: slots.iter().map(|s| s.variants.len()).sum(),
                postings: lists.map(|v| corpus.postings(v.token).len()).sum(),
                scanned: stats.access.scanned,
                cached: stats.access.cached,
                visited: stats.subtrees,
                passed: passed.len() as u64,
            }
        })
        .collect();
    let scans = profiles.iter().filter(|p| p.scanned + p.cached > 0).count();
    assert!(
        scans > 0 && scans < profiles.len(),
        "both walk paths must be in use: {scans} of {} queries scan",
        profiles.len()
    );
    let read: u64 = profiles.iter().map(|p| p.scanned).sum();
    let cached: u64 = profiles.iter().map(|p| p.cached).sum();
    assert!(
        read > 0 && cached > 0,
        "the scan must mark members both ways: {read} postings read, {cached} cached"
    );

    let mut pass_nanos = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let mut total = 0;
        for (query, profile) in pool.iter().zip(&mut profiles) {
            let stats = engine.suggest_keywords(query).stats;
            let nanos = stats.walk_nanos + stats.rank_nanos;
            profile.nanos = profile.nanos.min(nanos);
            total += nanos;
        }
        pass_nanos.push(total);
    }
    let fastest = *pass_nanos.iter().min().expect("PASSES > 0");
    report.line(format!(
        "{} queries, {scans} scanned; walk + rank per pass: fastest {:.1} ms, slowest {:.1} ms",
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
        "scan %",
        "scanned",
        "cached %",
        "visited",
        "passed",
        "pass %",
        "ns/subtree",
    ]);
    for decile in 0..10 {
        let group = &profiles[decile * profiles.len() / 10..(decile + 1) * profiles.len() / 10];
        let n = group.len().max(1) as f64;
        let sum = |f: fn(&Profile) -> u64| group.iter().map(f).sum::<u64>() as f64;
        let nanos = sum(|p| p.nanos);
        let visited = sum(|p| p.visited);
        let passed = sum(|p| p.passed);
        let scans = group.iter().filter(|p| p.scanned + p.cached > 0).count() as f64;
        let scanned = sum(|p| p.scanned);
        let cached = sum(|p| p.cached);
        deciles.push(vec![
            (decile + 1).into(),
            Cell::Wall(100.0 * nanos / total_nanos.max(1) as f64, 1),
            Cell::Wall(nanos / n / 1e3, 1),
            Cell::Num(sum(|p| p.slots as u64) / n, 1),
            Cell::Num(sum(|p| p.variants as u64) / n, 0),
            Cell::Num(sum(|p| p.postings as u64) / n, 0),
            Cell::Num(100.0 * scans / n, 0),
            Cell::Num(scanned / n, 0),
            Cell::Num(100.0 * cached / (scanned + cached).max(1.0), 0),
            Cell::Num(visited / n, 0),
            Cell::Num(passed / n, 0),
            Cell::Num(100.0 * passed / visited.max(1.0), 0),
            Cell::Wall(nanos / visited.max(1.0), 0),
        ]);
    }
    report.table(deciles);

    let histogram = moves.histogram;
    let moves: u64 = histogram.iter().sum();
    report.line(format!("member moves of one pass: {moves}"));
    let mut distances = Table::new(["postings moved", "moves", "%", "cumulative %"]);
    let mut low = 1;
    let mut cumulative = 0;
    for (&high, count) in MOVE_BUCKETS.iter().zip(histogram) {
        let label = match high {
            usize::MAX => format!("{low}+"),
            _ if high == low => format!("{low}"),
            _ => format!("{low}-{high}"),
        };
        low = high.saturating_add(1);
        cumulative += count;
        distances.push(vec![
            label.into(),
            count.into(),
            Cell::Num(100.0 * count as f64 / moves.max(1) as f64, 1),
            Cell::Num(100.0 * cumulative as f64 / moves.max(1) as f64, 1),
        ]);
    }
    report.table(distances);
    report
}
