//! Diagnostic — where a `var_ε(q_i)` lookup goes.
//!
//! Builds the FastSS index over the vocabulary of the large generated
//! corpus and looks up every keyword of a RAND + RULE pool (the shape of
//! the `xbench` pool). Prints the probe table's size and shape, then per
//! keyword length what a lookup does (keys probed, candidates raw and
//! distinct, variants kept) and what its three batches cost: collecting
//! the keys ("signatures"), probing the table ("probes"), and verifying
//! the distinct candidates ("verify").
//!
//! Timed **pass-style**, as the walk profile is: the build's time is its
//! minimum over `PASSES` builds, and every pass looks each keyword up
//! once, in pool order, and a keyword's time is its minimum over the
//! passes. Two modes: *warm* runs the lookups back to back (the
//! pool's own 5k lookups are what stands between two visits of a table
//! line); *cold* reads an 8 MB buffer between lookups, so each one starts
//! with the table and the vocabulary out of cache — closer to a lookup
//! that follows a posting walk.
//!
//! A diagnostic, not a gate: performance claims are made with `xbench`.
//! Run in a release build; the scale scales corpus and pool.

use std::time::Instant;

use xclean::variants::PARTITION_THRESHOLD;
use xclean::XCleanConfig;
use xclean_datagen::{generate_large_dblp, LargeDblpConfig};
use xclean_fastss::{VariantIndex, VariantIndexConfig};
use xclean_index::CorpusIndex;

use crate::datasets::{profile_pool, profile_publications};
use crate::report::{Cell, Report, Table};

/// Timed passes over the pool, per mode.
const PASSES: usize = 3;
/// Keywords this long and longer share the last row.
const LONGEST_ROW: usize = 15;
/// Words of the eviction buffer (8 MB), read one per cache line.
const SWEEP_WORDS: usize = 1 << 20;

/// Nanoseconds of the three batches of one lookup.
#[derive(Clone, Copy)]
struct Batches([u64; 3]);

impl Batches {
    const UNTIMED: Self = Batches([u64::MAX; 3]);

    fn min(self, other: Self) -> Self {
        Batches(std::array::from_fn(|i| self.0[i].min(other.0[i])))
    }
}

/// What one keyword's lookup does and costs.
struct Profile {
    chars: usize,
    keys: usize,
    raw: usize,
    distinct: usize,
    kept: usize,
    warm: Batches,
    cold: Batches,
}

/// One lookup, batch by batch, as `VariantIndex::query_within` runs it.
fn lookup(index: &VariantIndex, keyword: &str, max_ed: usize) -> (Batches, [usize; 3]) {
    let t0 = Instant::now();
    let query: Vec<char> = keyword.chars().collect();
    let keys = index.probe_keys(&query, max_ed);
    let t1 = Instant::now();
    let mut matches = index.candidates(&keys);
    let t2 = Instant::now();
    let raw = matches.len();
    index.verify(&query, max_ed, &mut matches);
    let t3 = Instant::now();
    let nanos = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
    (
        Batches([nanos(t0, t1), nanos(t1, t2), nanos(t2, t3)]),
        [keys.len(), raw, std::hint::black_box(matches).len()],
    )
}

/// Runs the profile at `scale` (1.0 → 100 000 publications, 2048 queries).
pub(super) fn run(scale: f64) -> Report {
    let publications = profile_publications(scale);
    let mut report = Report::new(
        format!(
            "variant profile: large DBLP, {publications} publications, RAND+RULE pool \
             (pass-style, min of {PASSES} builds and of {PASSES} passes)"
        ),
        None,
    );
    let corpus = CorpusIndex::build(generate_large_dblp(&LargeDblpConfig {
        publications,
        ..Default::default()
    }));
    let config = XCleanConfig::default();
    let words: Vec<&str> = corpus.vocab().iter_terms().collect();
    let mut build_ms = f64::INFINITY;
    let mut index = None;
    for _ in 0..PASSES {
        let built = Instant::now();
        index = Some(VariantIndex::build(
            &words,
            VariantIndexConfig {
                epsilon: config.epsilon,
                partition_threshold: PARTITION_THRESHOLD,
            },
        ));
        build_ms = build_ms.min(built.elapsed().as_secs_f64() * 1e3);
    }
    let index = index.expect("PASSES is not zero");
    let table = index.table_stats();
    report.line(format!(
        "{} words, ε = {}, partition threshold {}: {} slots of {} B, {} filled (load {:.3}), \
         longest run {}, {:.1} MB, built in {build_ms:.0} ms",
        words.len(),
        config.epsilon,
        PARTITION_THRESHOLD,
        table.slots,
        table.slot_bytes,
        table.filled,
        table.filled as f64 / table.slots as f64,
        table.longest_run,
        table.bytes as f64 / 1e6,
    ));
    report.line("");

    let keywords: Vec<String> = profile_pool(&corpus, scale).into_iter().flatten().collect();

    // What each lookup does; the staged run must be the product's answer.
    let mut profiles: Vec<Profile> = keywords
        .iter()
        .map(|k| {
            let (_, [keys, raw, kept]) = lookup(&index, k, config.epsilon);
            let query: Vec<char> = k.chars().collect();
            let mut distinct = index.candidates(&index.probe_keys(&query, config.epsilon));
            distinct.sort_unstable_by_key(|m| m.word);
            distinct.dedup();
            assert_eq!(
                kept,
                index.query_within(k, config.epsilon).len(),
                "staged lookup diverged on {k:?}"
            );
            Profile {
                chars: query.len(),
                keys,
                raw,
                distinct: distinct.len(),
                kept,
                warm: Batches::UNTIMED,
                cold: Batches::UNTIMED,
            }
        })
        .collect();

    let sweep = vec![1u64; SWEEP_WORDS];
    for cold in [false, true] {
        for _ in 0..PASSES {
            for (k, profile) in keywords.iter().zip(&mut profiles) {
                if cold {
                    let sum: u64 = sweep.iter().step_by(8).sum();
                    std::hint::black_box(sum);
                }
                let (batches, _) = lookup(&index, k, config.epsilon);
                let best = if cold {
                    &mut profile.cold
                } else {
                    &mut profile.warm
                };
                *best = best.min(batches);
            }
        }
    }

    let row = |label: String, group: &[&Profile]| -> Vec<Cell> {
        let n = group.len().max(1) as f64;
        let mean = |f: &dyn Fn(&Profile) -> u64| group.iter().map(|p| f(p)).sum::<u64>() as f64 / n;
        let mut cells = vec![label.into(), group.len().into()];
        cells.extend(
            [
                mean(&|p| p.keys as u64),
                mean(&|p| p.raw as u64),
                mean(&|p| p.distinct as u64),
                mean(&|p| p.kept as u64),
            ]
            .map(|v| Cell::Num(v, 1)),
        );
        for mode in [|p: &Profile| p.warm, |p: &Profile| p.cold] {
            for batch in 0..3 {
                cells.push(Cell::Wall(mean(&|p| mode(p).0[batch]), 0));
            }
            cells.push(Cell::Wall(mean(&|p| mode(p).0.iter().sum()), 0));
        }
        cells
    };
    let mut lengths = Table::new([
        "chars",
        "keywords",
        "keys",
        "raw cand.",
        "distinct",
        "kept",
        "warm: sig ns",
        "probe ns",
        "verify ns",
        "lookup ns",
        "cold: sig ns",
        "probe ns",
        "verify ns",
        "lookup ns",
    ]);
    for len in 1..=LONGEST_ROW {
        let group: Vec<&Profile> = profiles
            .iter()
            .filter(|p| p.chars == len || (len == LONGEST_ROW && p.chars > len))
            .collect();
        let label = match len {
            LONGEST_ROW => format!("{len}+"),
            _ => format!("{len}"),
        };
        if !group.is_empty() {
            lengths.push(row(label, &group));
        }
    }
    lengths.push(row("all".into(), &profiles.iter().collect::<Vec<_>>()));
    report.line(format!(
        "{} keywords; every distinct candidate is verified; ns are means of per-keyword minima",
        keywords.len()
    ));
    report.line("");
    report.table(lengths);
    report
}
