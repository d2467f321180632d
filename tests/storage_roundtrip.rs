//! Snapshot round-trip property tests.
//!
//! The serving path (`xclean serve`, DESIGN.md §10) answers every query
//! from an index loaded off disk, so persistence must be *semantically
//! invisible*: an engine over `open_file(save_to_file_v2(index))` has
//! to return bit-identical suggestions — same terms, same order, same
//! `f64` score bits — to an engine over the freshly built index, and both
//! indexes must save to the same bytes. This suite checks that property
//! over generated corpora of several sizes and perturbed workloads, plus
//! the cheap summary path used by `xclean index inspect`, which must
//! agree with the loaded and the fresh index alike; the committed legacy
//! snapshots are held to the same oracle.

use xclean_suite::datagen::{
    generate_dblp, generate_inex, make_workload, DblpConfig, InexConfig, Perturbation, WorkloadSpec,
};
use xclean_suite::index::{storage, CorpusIndex, OpenOptions};
use xclean_suite::xclean::{XCleanConfig, XCleanEngine};
use xclean_suite::xmltree::parse_document;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xclean_storage_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Saves `fresh`, loads it back, and asserts both engines agree bit-for-bit
/// on every workload query.
fn assert_roundtrip_identical(name: &str, fresh_index: CorpusIndex, queries: &[Vec<String>]) {
    let path = tmp(name);
    storage::save_to_file_v2(&fresh_index, &path).unwrap();
    assert_loaded_matches_fresh(name, &path, fresh_index, queries);
}

/// Opens the snapshot at `path` and asserts it is indistinguishable from
/// `fresh_index`: structure, saved bytes, summary, and every workload
/// answer bit-for-bit.
fn assert_loaded_matches_fresh(
    name: &str,
    path: &std::path::Path,
    fresh_index: CorpusIndex,
    queries: &[Vec<String>],
) {
    let (loaded_index, _) = storage::open_file(path, &OpenOptions::default()).unwrap();

    // Structural equality first — cheaper to diagnose than score drift.
    assert_eq!(
        fresh_index.tree().len(),
        loaded_index.tree().len(),
        "{name}: nodes"
    );
    assert_eq!(
        fresh_index.vocab().len(),
        loaded_index.vocab().len(),
        "{name}: terms"
    );
    assert_eq!(
        fresh_index.vocab().total_tokens(),
        loaded_index.vocab().total_tokens(),
        "{name}: tokens"
    );
    assert_eq!(
        fresh_index.element_count(),
        loaded_index.element_count(),
        "{name}: elements"
    );

    // Both forms frame the same sections.
    let fresh_bytes = storage::to_bytes_v2(&fresh_index);
    assert!(
        storage::to_bytes_v2(&loaded_index) == fresh_bytes,
        "{name}: saved bytes"
    );

    // The summary fast path must agree with the full load and with the
    // fresh build's own bytes.
    let fresh_summary = storage::summarize(&fresh_bytes).unwrap();
    assert_eq!(fresh_summary.nodes, fresh_index.tree().len(), "{name}");
    assert_eq!(fresh_summary.terms, fresh_index.vocab().len(), "{name}");
    let summary = storage::summarize_file(path).unwrap();
    assert_eq!(
        summary.nodes,
        loaded_index.tree().len(),
        "{name}: summary nodes"
    );
    assert_eq!(
        summary.terms,
        loaded_index.vocab().len(),
        "{name}: summary terms"
    );
    assert_eq!(
        summary.total_tokens,
        loaded_index.vocab().total_tokens(),
        "{name}: summary tokens"
    );
    assert_eq!(
        summary.total_bytes as u64,
        std::fs::metadata(path).unwrap().len(),
        "{name}: summary size"
    );

    let fresh = XCleanEngine::from_corpus(fresh_index, XCleanConfig::default());
    let loaded = XCleanEngine::from_corpus(loaded_index, XCleanConfig::default());
    let mut non_empty = 0usize;
    for q in queries {
        let a = fresh.suggest_keywords(q);
        let b = loaded.suggest_keywords(q);
        let label = q.join(" ");
        assert_eq!(
            a.suggestions.len(),
            b.suggestions.len(),
            "{name}: count diverged for {label:?}"
        );
        for (i, (x, y)) in a.suggestions.iter().zip(b.suggestions.iter()).enumerate() {
            assert_eq!(x.terms, y.terms, "{name}: terms at rank {i} for {label:?}");
            assert_eq!(
                x.log_score.to_bits(),
                y.log_score.to_bits(),
                "{name}: score bits at rank {i} for {label:?}"
            );
            assert_eq!(x.distances, y.distances, "{name}: distances for {label:?}");
            assert_eq!(
                x.entity_count, y.entity_count,
                "{name}: entities for {label:?}"
            );
        }
        non_empty += usize::from(!a.suggestions.is_empty());
    }
    assert!(
        non_empty * 2 >= queries.len(),
        "{name}: workload too degenerate — only {non_empty}/{} answered",
        queries.len()
    );
}

/// Perturbed workload over a corpus: both random-noise and rule-based
/// misspellings, so the round-trip is exercised on the paths that touch
/// FastSS variants and postings, not just clean lookups.
fn workload(index: &CorpusIndex, n: usize, seed: u64) -> Vec<Vec<String>> {
    let mut queries = Vec::new();
    for (p, s) in [(Perturbation::Rand, seed), (Perturbation::Rule, seed + 1)] {
        let set = make_workload(
            index,
            &WorkloadSpec {
                n_queries: n / 2,
                seed: s,
                ..WorkloadSpec::dblp(p)
            },
        );
        queries.extend(set.cases.into_iter().map(|c| c.dirty));
    }
    queries
}

#[test]
fn dblp_roundtrip_is_bit_identical_across_sizes() {
    for (publications, n_queries) in [(50, 20), (300, 30), (1000, 40)] {
        let index = CorpusIndex::build(generate_dblp(&DblpConfig {
            publications,
            ..Default::default()
        }));
        let queries = workload(&index, n_queries, 1000 + publications as u64);
        assert_roundtrip_identical(&format!("dblp_{publications}.xci"), index, &queries);
    }
}

#[test]
fn inex_roundtrip_is_bit_identical() {
    let index = CorpusIndex::build(generate_inex(&InexConfig {
        articles: 150,
        ..Default::default()
    }));
    let queries = workload(&index, 30, 77);
    assert_roundtrip_identical("inex_150.xci", index, &queries);
}

/// The committed v1 fixtures must keep loading verbatim: compatibility
/// with already-deployed snapshots is a contract, not an accident of the
/// current reader (CI additionally upgrades one and diffs the answers).
#[test]
fn committed_v1_fixture_stays_loadable() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let path = fixtures.join("tiny_v1.xci");
    let summary = storage::summarize_file(&path).unwrap();
    assert_eq!(summary.format_version, 1);
    assert_eq!(summary.checksum, None);
    let (index, _) = storage::open_file(&path, &OpenOptions::default()).unwrap();
    assert_eq!(index.tree().len(), summary.nodes);
    assert_eq!(index.vocab().len(), summary.terms);
    let engine = XCleanEngine::from_corpus(index, XCleanConfig::default());
    let r = engine.suggest("helth insurance");
    assert_eq!(r.suggestions[0].terms, vec!["health", "insurance"]);

    // A non-trivial one: what the last commit with a v1 writer wrote for
    // `dblp50.xml` must load as the index a fresh build of that XML gives.
    let xml = std::fs::read_to_string(fixtures.join("dblp50.xml")).unwrap();
    let fresh = CorpusIndex::build(parse_document(&xml).unwrap());
    let queries = workload(&fresh, 20, 1050);
    let path = fixtures.join("dblp50_v1.xci");
    assert_eq!(storage::summarize_file(&path).unwrap().format_version, 1);
    assert_loaded_matches_fresh("dblp50_v1.xci", &path, fresh, &queries);
}

/// The same oracle for the v2 snapshot of `dblp50.xml` that the last
/// writer of per-posting label paths and Dewey codes wrote: its legacy
/// POSTINGS_DEWEY section must load as the index a fresh build gives.
#[test]
fn committed_old_layout_v2_fixture_answers_like_a_fresh_build() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let xml = std::fs::read_to_string(fixtures.join("dblp50.xml")).unwrap();
    let fresh = CorpusIndex::build(parse_document(&xml).unwrap());
    let queries = workload(&fresh, 20, 1050);
    let path = fixtures.join("dblp50_v2_pr32.xci");
    assert_eq!(storage::summarize_file(&path).unwrap().format_version, 2);
    assert_loaded_matches_fresh("dblp50_v2_pr32.xci", &path, fresh, &queries);
}

#[test]
fn double_roundtrip_is_byte_stable() {
    // save → load → save must reproduce the identical byte stream: the
    // encoder is canonical, so snapshots can be content-addressed and
    // diffed across deployments.
    let index = CorpusIndex::build(generate_dblp(&DblpConfig {
        publications: 120,
        ..Default::default()
    }));
    let p1 = tmp("stable_1.xci");
    let p2 = tmp("stable_2.xci");
    storage::save_to_file_v2(&index, &p1).unwrap();
    let (loaded, _) = storage::open_file(&p1, &OpenOptions::default()).unwrap();
    storage::save_to_file_v2(&loaded, &p2).unwrap();
    assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
}
