//! One stream, two paths: the walk's scan against its linear walk
//! (test-only).
//!
//! `crate::walk` finds the subtrees every slot occurs in by ANDing per-slot
//! entity bitmaps when skipping is on, and by walking one cursor set per
//! keyword linearly when it is off. The contract is that `on_subtree` cannot tell
//! which ran: the same `(entry, held tokens, slot_tokens)` sequence, the same per-token
//! sums and the same occurrences whenever it asks for them — the scan's
//! read from the level table's entity sets and sums, the linear walk's
//! derived from the postings it collected — so the same contributions in
//! the same `f64` order, the same γ-decisions and the same answers. This
//! suite runs each path in turn, through `XCleanConfig::enable_skipping`,
//! over builder-generated trees and random slot sets, at every gate depth,
//! over one corpus and under 2- and 3-way shard scopes; it asks for the
//! sums of every subtree, of every second one or of none, and for the
//! occurrences of every subtree, of every second or third one or of none
//! (so the scan's sum and postings cursors skip ahead between reads), in
//! either order. The scan's bitmaps come two ways — kept by the level
//! table for a frequent term, set from the table's kept entity list for
//! the rest — and one fixed corpus makes a slot mix both.

use proptest::prelude::*;
use xclean_index::{partition_corpus, AccessStats, CorpusIndex, LevelEntry, MergedEntry, TokenId};
use xclean_telemetry::Telemetry;
use xclean_xmltree::{PathId, TreeBuilder};

use crate::algorithm::{KeywordSlot, RunStats};
use crate::config::XCleanConfig;
use crate::pipeline::{rank_walked, ArenaPool, Semantics, Walked};
use crate::variants::Variant;
use crate::view::Scoring;
use crate::walk::{walk_gated_subtrees_scoped, WalkScratch};
use crate::ShardedEngine;

const WORDS: [&str; 6] = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];

const GAMMAS: [Option<usize>; 3] = [None, Some(1), Some(3)];

/// One builder step per byte, as the level table's property suite
/// (`xclean_index::level`) builds its trees: open a child, close the
/// current element, add text to the current element itself — the root's
/// too when `root_text` — or append a text leaf, so depths mix and shallow
/// nodes carry indexed text between their children. The words vary with the
/// byte, so the lists differ in length.
fn build(shape: &[u8], root_text: bool) -> CorpusIndex {
    let mut b = TreeBuilder::new("r");
    let mut depth = 0usize;
    for &s in shape {
        let word = |k: u8| WORDS[usize::from(s / k) % WORDS.len()];
        match s % 5 {
            0 => {
                b.open(if s % 2 == 0 { "n" } else { "m" });
                depth += 1;
            }
            1 if depth > 0 => {
                b.close();
                depth -= 1;
            }
            2 if depth > 0 || root_text => b.text(word(1)),
            _ => {
                b.leaf("t", &format!("{} {}", word(1), word(5)));
            }
        }
    }
    CorpusIndex::build(b.finish())
}

/// Slots of variants picked by index from the first `vocab` token ids at
/// distance 0–2, deduplicated and ordered by (distance, token) as the
/// variant generator orders them.
fn slots_of(picks: &[Vec<(usize, u32)>], vocab: usize) -> Vec<KeywordSlot> {
    picks
        .iter()
        .map(|picks| {
            let mut variants: Vec<Variant> = picks
                .iter()
                .map(|&(i, distance)| Variant {
                    token: TokenId((i % vocab) as u32),
                    distance,
                })
                .collect();
            variants.sort_by_key(|v| v.token);
            variants.dedup_by_key(|v| v.token);
            variants.sort_by_key(|v| (v.distance, v.token));
            KeywordSlot {
                keyword: "k".to_string(),
                variants,
            }
        })
        .collect()
}

fn deepest(corpus: &CorpusIndex) -> u32 {
    let tree = corpus.tree();
    tree.iter().map(|n| tree.depth(n)).max().unwrap_or(0)
}

/// What `on_subtree` is told of one passing subtree: its entry, its held
/// tokens, each slot's tokens and — when the stream asked — every token's
/// `Σ tf` and its occurrences.
type Handed = (
    LevelEntry,
    Vec<TokenId>,
    Vec<Vec<TokenId>>,
    Option<Vec<(TokenId, u64)>>,
    Option<Vec<MergedEntry>>,
);

type Stream = Vec<Handed>;

/// Which passing subtrees a stream asks about: every `n`-th one, or none
/// for 0.
#[derive(Debug, Clone, Copy)]
struct Ask {
    sums: usize,
    occurrences: usize,
}

/// `config` with skipping on (the scan) or off (the linear walk).
fn skipping(config: &XCleanConfig, enable_skipping: bool) -> XCleanConfig {
    XCleanConfig {
        enable_skipping,
        ..config.clone()
    }
}

/// Everything `on_subtree` receives, asking for the sums and the
/// occurrences of the subtrees `ask` names — the sums first of every
/// second subtree, the occurrences first of the rest — and the walk's
/// counters. `scratch` is shared across calls, so recycled scratch is on
/// trial too.
fn stream(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    ask: Ask,
    scratch: &mut WalkScratch,
) -> (Stream, RunStats) {
    let mut out = Stream::new();
    let mut stats = RunStats::default();
    walk_gated_subtrees_scoped(
        view,
        slots,
        config,
        &mut stats,
        scratch,
        |gate, tokens, occ| {
            let i = out.len();
            let asked = |every: usize| i.checked_rem(every) == Some(0);
            let (counts, all) = if i.is_multiple_of(2) {
                let counts = asked(ask.sums).then(|| occ.counts().to_vec());
                (counts, asked(ask.occurrences).then(|| occ.all().to_vec()))
            } else {
                let all = asked(ask.occurrences).then(|| occ.all().to_vec());
                (asked(ask.sums).then(|| occ.counts().to_vec()), all)
            };
            let held = tokens.held().to_vec();
            out.push((*gate, held, tokens.slot_tokens().to_vec(), counts, all))
        },
    );
    (out, stats)
}

/// The `(slot tokens, Σ tf per token)` a subtree's distinct occurrences
/// make: per slot, the variant tokens among them; per token, its tfs
/// summed.
fn derived(slots: &[KeywordSlot], occ: &[MergedEntry]) -> (Vec<Vec<TokenId>>, Vec<(TokenId, u64)>) {
    let slot_tokens = slots
        .iter()
        .map(|s| {
            let mut tokens: Vec<TokenId> = occ
                .iter()
                .map(|&(t, _, _)| t)
                .filter(|&t| s.variants.iter().any(|v| v.token == t))
                .collect();
            tokens.sort_unstable();
            tokens.dedup();
            tokens
        })
        .collect();
    let mut counts: Vec<(TokenId, u64)> = Vec::new();
    for &(t, _, tf) in occ {
        match counts.iter_mut().find(|(token, _)| *token == t) {
            Some((_, sum)) => *sum += u64::from(tf),
            None => counts.push((t, u64::from(tf))),
        }
    }
    counts.sort_unstable();
    (slot_tokens, counts)
}

/// Both paths over one view, asking for the sums of every, every second
/// and no subtree, and for the occurrences of every, every second, every
/// third and no subtree: the same stream each time; per subtree, the
/// scan's slot tokens and sums are the ones the linear walk's occurrences
/// make; the scan hands over exactly the subtrees it counts, serves every
/// one it was not asked to gather from the columns, reads every posting of
/// a variant whose bitmap the table does not keep once, counts a kept
/// one's as cached, and reads no posting through its cursors unless asked —
/// and marks nothing over an empty level table or when some slot has no
/// posting in the view. Returns the scan's counters when asked for
/// nothing.
fn assert_one_stream(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    scratch: &mut WalkScratch,
) -> Result<RunStats, String> {
    let mut unasked = RunStats::default();
    for occurrences in [1, 2, 3, 0] {
        for sums in [1, 2, 0] {
            let ask = Ask { sums, occurrences };
            let (linear, walked) = stream(view, slots, &skipping(config, false), ask, scratch);
            let (scan, scanned) = stream(view, slots, &skipping(config, true), ask, scratch);
            prop_assert_eq!(&scan, &linear, "min_depth {} {:?}", config.min_depth, ask);
            prop_assert_eq!(walked.access.scan_postings(), 0);
            prop_assert_eq!(walked.access.from_columns, 0);
            prop_assert_eq!(scanned.subtrees, scan.len() as u64);
            prop_assert!(walked.subtrees >= scanned.subtrees);
            let gathered = scan.iter().filter(|handed| handed.4.is_some()).count() as u64;
            prop_assert_eq!(scanned.access.from_columns, scanned.subtrees - gathered);
            if gathered == 0 {
                prop_assert_eq!((scanned.access.read, scanned.access.skip_calls), (0, 0));
            }
            for (entry, held, slot_tokens, counts, occ) in &scan {
                let mut union: Vec<TokenId> = slot_tokens.concat();
                union.sort_unstable();
                union.dedup();
                prop_assert_eq!(held, &union, "{:?}", entry);
                if let (Some(counts), Some(occ)) = (counts, occ) {
                    let (tokens, sums) = derived(slots, occ);
                    prop_assert_eq!((slot_tokens, counts), (&tokens, &sums), "{:?}", entry);
                }
            }
            let (mut read, mut cached) = (0, 0);
            let every_slot_present = slots.iter().all(|s| {
                s.variants
                    .iter()
                    .any(|v| !view.postings(v.token).is_empty())
            });
            if !view.level(config.min_depth).is_empty() && every_slot_present {
                for v in slots.iter().flat_map(|s| &s.variants) {
                    let postings = view.postings(v.token).len() as u64;
                    match view.entity_bitmap(config.min_depth, v.token) {
                        Some(_) => cached += postings,
                        None => read += postings,
                    }
                }
            }
            prop_assert_eq!(
                (scanned.access.scanned, scanned.access.cached),
                (read, cached)
            );
            unasked = scanned;
        }
    }
    Ok(unasked)
}

/// A view's kept entity lists at `depth` are in its own positions: per
/// global token below `vocab`, the subtrees of the view's level table
/// holding the token's postings in the view, each found by a lookup from
/// the front, then the sentinel `len()` for a shallower posting — so empty
/// for a token the view's shard does not hold.
fn assert_kept_lists(view: &Scoring<'_>, vocab: usize, depth: u32) -> Result<(), String> {
    let level = view.level(depth);
    for t in (0..vocab as u32).map(TokenId) {
        let mut expect: Vec<u32> = Vec::new();
        let mut shallow = false;
        for &n in view.postings(t).nodes() {
            let pos = level.seek(0, n);
            match level.extent(pos) {
                Some((root, _)) if root <= n => expect.push(pos as u32),
                _ => shallow = true,
            }
        }
        expect.dedup();
        if shallow {
            expect.push(level.len() as u32);
        }
        if level.is_empty() {
            expect.clear();
        }
        prop_assert_eq!(
            view.entity_positions(depth, t).set,
            &expect[..],
            "depth {} token {:?}",
            depth,
            t
        );
    }
    Ok(())
}

/// One ranked candidate: tokens, score bits, distances, result type and
/// entity count.
type Answer = (Vec<TokenId>, u64, Vec<u32>, PathId, u64);

/// What a ranked run shows, score and γ-estimate bits included.
#[derive(Debug, PartialEq)]
struct Run {
    candidates: Vec<Answer>,
    /// `Debug` of every γ-decision: `f64` prints round-trip exact.
    decisions: Vec<String>,
    candidates_enumerated: u64,
    entities_scored: u64,
}

/// A ranked run with skipping on (the scan) or off (the linear walk),
/// with its posting I/O.
fn run(
    walked: Walked<'_>,
    semantics: Semantics,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    enable_skipping: bool,
    arenas: &ArenaPool,
) -> (Run, AccessStats) {
    let mut decisions = Vec::new();
    let ranked = rank_walked(
        walked,
        semantics,
        slots,
        &skipping(config, enable_skipping),
        usize::MAX,
        &Telemetry::disabled(),
        arenas,
        &mut |event| decisions.push(format!("{event:?}")),
    );
    let run = Run {
        candidates: ranked
            .candidates
            .into_iter()
            .map(|c| {
                let bits = c.log_score.to_bits();
                (c.tokens, bits, c.distances, c.result_path, c.entity_count)
            })
            .collect(),
        decisions,
        candidates_enumerated: ranked.stats.candidates_enumerated,
        entities_scored: ranked.stats.entities_scored,
    };
    (run, ranked.stats.access)
}

/// The generated trees are small enough that nearly every token keeps its
/// bitmap. Here 300 publications make the bitmaps at depths 2 and 3 five
/// words long, so `alpha` (every publication's leaf, and every tenth
/// publication's own text, above the depth-3 gate) and `charlie` (every
/// third) keep theirs while `bravo` and `delta` (two each) set their bits
/// from their kept lists — within one slot each, over one corpus and per
/// shard. A second slot set shares `alpha` between its slots, so every
/// passing subtree holds a token of both. At the depth-1 gate (the root)
/// the result type sits below the gate, so the node-type scorer asks for
/// the occurrences; at the depth-2 gate it is the publication itself,
/// which the columns serve.
#[test]
fn one_slot_mixes_kept_and_read_bitmaps() -> Result<(), String> {
    let mut b = TreeBuilder::new("r");
    for i in 0..300 {
        let mut words = vec!["alpha"];
        if i % 3 == 0 {
            words.push("charlie");
        }
        if i == 75 || i == 150 {
            words.push("bravo");
        }
        if i == 4 || i == 200 {
            words.push("delta");
        }
        b.open("p");
        if i % 10 == 0 {
            b.text("alpha");
        }
        b.leaf("t", &words.join(" "));
        b.close();
    }
    let corpus = CorpusIndex::build(b.finish());
    let token = |term: &str| corpus.vocab().get(term).expect("a corpus term");
    let slot = |terms: [&str; 2]| KeywordSlot {
        keyword: "k".to_string(),
        variants: terms
            .map(|term| Variant {
                token: token(term),
                distance: 0,
            })
            .to_vec(),
    };
    let mixed = [slot(["alpha", "bravo"]), slot(["charlie", "delta"])];
    let shared = [slot(["alpha", "bravo"]), slot(["alpha", "delta"])];
    let mut scratch = WalkScratch::default();
    let arenas = ArenaPool::default();
    for slots in [&mixed, &shared] {
        // The node-type scan's posting I/O per gate depth.
        let mut scans = Vec::new();
        for min_depth in 0..=deepest(&corpus) + 1 {
            let config = XCleanConfig {
                min_depth,
                ..XCleanConfig::default()
            };
            let scanned =
                assert_one_stream(&Scoring::unsharded(&corpus), slots, &config, &mut scratch)?;
            if (2..=3).contains(&min_depth) {
                prop_assert!(
                    scanned.access.scanned > 0 && scanned.access.cached > 0,
                    "{:?}",
                    scanned.access
                );
            }
            if min_depth == 0 {
                continue;
            }
            for gamma in GAMMAS {
                let config = XCleanConfig {
                    gamma,
                    ..config.clone()
                };
                for semantics in [Semantics::NodeType, Semantics::Slca, Semantics::Elca] {
                    let on = |skip| {
                        run(
                            Walked::Corpus(&corpus),
                            semantics,
                            slots,
                            &config,
                            skip,
                            &arenas,
                        )
                    };
                    let (scan, access) = on(true);
                    prop_assert_eq!(scan, on(false).0);
                    if semantics == Semantics::NodeType && gamma.is_none() {
                        scans.push((min_depth, access));
                    }
                }
            }
        }
        let at = |depth| scans.iter().find(|(d, _)| *d == depth).map(|(_, a)| *a);
        let (root, publication) = (at(1).unwrap(), at(2).unwrap());
        prop_assert!(root.read > 0 && root.from_columns == 0, "{:?}", root);
        prop_assert!(
            publication.read == 0 && publication.from_columns > 0,
            "{:?}",
            publication
        );
        let shards = partition_corpus(&corpus, 2, 7).unwrap();
        let engine = ShardedEngine::from_shards(shards, XCleanConfig::default()).unwrap();
        let views = engine.pipeline().shard_views();
        let config = XCleanConfig::default();
        let mut access = AccessStats::default();
        for view in &views {
            access += assert_one_stream(view, slots, &config, &mut scratch)?.access;
            assert_kept_lists(view, corpus.vocab().len(), 3)?;
        }
        prop_assert!(access.scanned > 0 && access.cached > 0, "{:?}", access);
        for gamma in GAMMAS {
            let config = XCleanConfig {
                gamma,
                ..config.clone()
            };
            let on = |skip| {
                run(
                    Walked::Shards(&views),
                    Semantics::NodeType,
                    slots,
                    &config,
                    skip,
                    &arenas,
                )
            };
            let (scan, access) = on(true);
            prop_assert_eq!(scan, on(false).0);
            prop_assert!(access.from_columns > 0, "{:?}", access);
        }
    }
    Ok(())
}

fn slot_picks() -> impl Strategy<Value = Vec<Vec<(usize, u32)>>> {
    proptest::collection::vec(proptest::collection::vec((0usize..64, 0u32..3), 1..7), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One corpus with text above every gate: at each `min_depth` the two
    /// paths emit one stream, and every semantics ranks the same answers
    /// with the same γ-decisions from it.
    #[test]
    fn both_paths_emit_one_stream_over_one_corpus(
        shape in proptest::collection::vec(0u8..60, 0..70),
        picks in slot_picks(),
    ) {
        let corpus = build(&shape, true);
        let vocab = corpus.vocab().len();
        if vocab == 0 {
            return Ok(());
        }
        let slots = slots_of(&picks, vocab);
        let view = Scoring::unsharded(&corpus);
        let mut scratch = WalkScratch::default();
        let arenas = ArenaPool::default();
        for min_depth in 0..=deepest(&corpus) + 1 {
            let config = XCleanConfig { min_depth, ..XCleanConfig::default() };
            assert_one_stream(&view, &slots, &config, &mut scratch)?;
            if min_depth == 0 {
                continue;
            }
            for gamma in GAMMAS {
                let config = XCleanConfig { gamma, ..config.clone() };
                for semantics in [Semantics::NodeType, Semantics::Slca, Semantics::Elca] {
                    let on = |skip| run(Walked::Corpus(&corpus), semantics, &slots, &config, skip, &arenas);
                    prop_assert_eq!(on(true).0, on(false).0);
                }
            }
        }
    }

    /// Under 2- and 3-way shard scopes every shard view emits one stream
    /// on either path — tokens absent from a shard included — keeps its
    /// entity lists in its own positions, and the shard-by-shard walk
    /// ranks the same answers.
    #[test]
    fn both_paths_emit_one_stream_per_shard(
        shape in proptest::collection::vec(0u8..60, 0..70),
        picks in slot_picks(),
        seed in 0u64..1_000,
    ) {
        let parent = build(&shape, false);
        let vocab = parent.vocab().len();
        if vocab == 0 {
            return Ok(());
        }
        // Slot tokens are global ids, which are the parent's.
        let slots = slots_of(&picks, vocab);
        let mut scratch = WalkScratch::default();
        let arenas = ArenaPool::default();
        for shard_count in [2, 3] {
            let Ok(shards) = partition_corpus(&parent, shard_count, seed) else {
                continue;
            };
            let engine = ShardedEngine::from_shards(shards, XCleanConfig::default()).unwrap();
            let views = engine.pipeline().shard_views();
            for min_depth in 0..=deepest(&parent) + 1 {
                let config = XCleanConfig { min_depth, ..XCleanConfig::default() };
                for view in &views {
                    assert_one_stream(view, &slots, &config, &mut scratch)?;
                    assert_kept_lists(view, vocab, min_depth)?;
                }
                if min_depth < 2 {
                    continue;
                }
                for gamma in GAMMAS {
                    let config = XCleanConfig { gamma, ..config.clone() };
                    let on = |skip| {
                        run(Walked::Shards(&views), Semantics::NodeType, &slots, &config, skip, &arenas)
                    };
                    prop_assert_eq!(on(true).0, on(false).0);
                }
            }
        }
    }
}
