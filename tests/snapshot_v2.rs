//! v2 snapshot bit-identity harness.
//!
//! The contract (ISSUE PR 4, DESIGN.md §11): an engine serving a **v2
//! snapshot through a mapped slab** — postings and path statistics
//! decoded lazily out of the file bytes — returns *bit-identical*
//! responses (same suggestions, same order, same `f64` score bits) to an
//! engine over the **freshly built in-memory index** of the same corpus,
//! on dblp at three scales plus inex, at 1 and 8 worker threads.
//! Laziness, mmap, and the columnar tree encoding must all be
//! semantically invisible.

use xclean_suite::datagen::{
    generate_dblp, generate_inex, make_workload, DblpConfig, InexConfig, Perturbation, WorkloadSpec,
};
use xclean_suite::index::{slab::checksum64, storage, CorpusIndex, OpenOptions, SlabMode};
use xclean_suite::xclean::pipeline::BATCH_CHUNK;
use xclean_suite::xclean::{SuggestResponse, XCleanConfig, XCleanEngine};
use xclean_suite::xmltree::parse_document;

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The index a fresh build of the committed `dblp50.xml` gives.
fn dblp50() -> CorpusIndex {
    let xml = std::fs::read_to_string(fixture("dblp50.xml")).unwrap();
    CorpusIndex::build(parse_document(&xml).unwrap())
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xclean_snapshot_v2");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Perturbed workload (random + rule-based misspellings) over a corpus.
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

/// Bit-level equality of two responses (timings excluded).
fn assert_identical(name: &str, q: &[String], a: &SuggestResponse, b: &SuggestResponse) {
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
            "{name}: score bits at rank {i} for {label:?}: {} vs {}",
            x.log_score,
            y.log_score
        );
        assert_eq!(x.tokens, y.tokens, "{name}: tokens for {label:?}");
        assert_eq!(x.distances, y.distances, "{name}: distances for {label:?}");
        assert_eq!(
            x.entity_count, y.entity_count,
            "{name}: entities for {label:?}"
        );
    }
    assert_eq!(
        a.stats.candidates_enumerated, b.stats.candidates_enumerated,
        "{name}: candidate enumeration diverged for {label:?}"
    );
}

/// Saves `index` as v2, opens it through a mapped slab, and asserts every
/// workload query answers bit-identically to the in-memory `index` it was
/// written from, at 1 and 8 worker threads. Each workload spans more than
/// two `suggest_many` chunks, so at 8 threads several workers read the
/// mapped slab at once.
fn assert_v2_mapped_matches_fresh_build(name: &str, index: CorpusIndex, queries: &[Vec<String>]) {
    assert!(
        queries.len() > 2 * BATCH_CHUNK,
        "{name}: {} queries fit in two chunks",
        queries.len()
    );
    let v2_path = tmp(&format!("{name}.v2.xci"));
    storage::save_to_file_v2(&index, &v2_path).unwrap();
    let (v2_corpus, v2_report) = storage::open_file(&v2_path, &OpenOptions::default()).unwrap();
    assert_eq!(v2_report.format_version, 2, "{name}");
    #[cfg(unix)]
    assert!(v2_report.mapped, "{name}: v2 open should mmap on unix");
    assert!(v2_report.checksum.is_some(), "{name}");

    let fresh_corpus = std::sync::Arc::new(index);
    let v2_corpus = std::sync::Arc::new(v2_corpus);
    let mut non_empty = 0usize;
    for threads in [1usize, 8] {
        let config = XCleanConfig {
            num_threads: threads,
            ..Default::default()
        };
        let fresh_engine = XCleanEngine::from_shared(fresh_corpus.clone(), config.clone());
        let v2_engine = XCleanEngine::from_shared(v2_corpus.clone(), config);
        let a = fresh_engine.suggest_many_keywords(queries);
        let b = v2_engine.suggest_many_keywords(queries);
        assert_eq!(a.len(), queries.len());
        for (q, (x, y)) in queries.iter().zip(a.iter().zip(b.iter())) {
            assert_identical(name, q, x, y);
            non_empty += usize::from(!x.suggestions.is_empty());
        }
    }
    assert!(
        non_empty * 4 >= queries.len(),
        "{name}: workload too degenerate — {non_empty} non-empty answers"
    );
}

#[test]
fn dblp_v2_mapped_matches_v1_across_sizes() {
    // Not multiples of the chunk, so the last chunk is a partial one.
    for (publications, n_queries) in [
        (50, 2 * BATCH_CHUNK + 6),
        (300, 2 * BATCH_CHUNK + 10),
        (1000, 2 * BATCH_CHUNK + 14),
    ] {
        let index = CorpusIndex::build(generate_dblp(&DblpConfig {
            publications,
            ..Default::default()
        }));
        let queries = workload(&index, n_queries, 4000 + publications as u64);
        assert_v2_mapped_matches_fresh_build(&format!("dblp_{publications}"), index, &queries);
    }
}

#[test]
fn inex_v2_mapped_matches_v1() {
    let index = CorpusIndex::build(generate_inex(&InexConfig {
        articles: 150,
        ..Default::default()
    }));
    let queries = workload(&index, 2 * BATCH_CHUNK + 8, 4200);
    assert_v2_mapped_matches_fresh_build("inex_150", index, &queries);
}

/// Fingerprints key the server's response cache, so they must not depend
/// on *how* the snapshot bytes are held (owned copy vs mapping).
#[test]
fn v2_fingerprint_is_slab_mode_invariant() {
    let v2_path = tmp("fp.v2.xci");
    storage::save_to_file_v2(&dblp50(), &v2_path).unwrap();

    let (owned, owned_report) = storage::open_file(
        &v2_path,
        &OpenOptions {
            mode: SlabMode::Owned,
            ..Default::default()
        },
    )
    .unwrap();
    let (mapped, mapped_report) = storage::open_file(&v2_path, &OpenOptions::default()).unwrap();
    assert!(!owned_report.mapped);
    assert_eq!(owned_report.checksum, mapped_report.checksum);

    let owned_engine = XCleanEngine::from_corpus(owned, XCleanConfig::default());
    let mapped_engine = XCleanEngine::from_corpus(mapped, XCleanConfig::default());
    assert_eq!(
        owned_engine.fingerprint(),
        mapped_engine.fingerprint(),
        "slab mode leaked into the fingerprint"
    );

    // A fresh build is the third form of the same bytes: it frames them
    // identically and answers alike (its fingerprint differs only by
    // carrying no snapshot checksum).
    let fresh_engine = XCleanEngine::from_corpus(dblp50(), XCleanConfig::default());
    assert!(storage::to_bytes_v2(fresh_engine.corpus()) == std::fs::read(&v2_path).unwrap());
    assert!(fresh_engine.corpus().provenance().is_none());

    // Sanity: all three engines agree on actual queries.
    let queries = workload(owned_engine.corpus(), 8, 900);
    for q in &queries {
        let owned_answer = owned_engine.suggest_keywords(q);
        assert_identical("fp", q, &owned_answer, &mapped_engine.suggest_keywords(q));
        assert_identical(
            "fp fresh",
            q,
            &owned_answer,
            &fresh_engine.suggest_keywords(q),
        );
    }
}

/// The v2 payload of one small generated corpus, pinned by checksum and
/// length: the tree is stored as preorder columns re-derived from the
/// in-memory layout, so a change to that layout (or to any encoder) that
/// alters a snapshot byte — and with it the benchmark's
/// `snapshot_bytes_per_input_byte` — fails here first. The constants are
/// what the first writer of `(node gap, tf)` posting blobs wrote;
/// regenerate them only for a deliberate format change.
#[test]
fn v2_payload_checksum_is_pinned() {
    const PINNED_CHECKSUM: u64 = 0x7828_43e1_7d7d_45f2;
    const PINNED_BYTES: usize = 67_746;
    let index = CorpusIndex::build(generate_dblp(&DblpConfig {
        publications: 300,
        ..Default::default()
    }));
    let path = tmp("pinned.v2.xci");
    storage::save_to_file_v2(&index, &path).unwrap();
    let (_, report) = storage::open_file(&path, &OpenOptions::default()).unwrap();
    assert_eq!(
        (report.checksum, report.total_bytes),
        (Some(PINNED_CHECKSUM), PINNED_BYTES),
        "v2 snapshot bytes changed"
    );
}

/// The same pin on an input no generator can move: the bytes `to_bytes_v2`
/// writes for the committed `dblp50.xml`, as computed by the first writer
/// of `(node gap, tf)` posting blobs.
#[test]
fn v2_bytes_of_committed_corpus_are_pinned() {
    let bytes = storage::to_bytes_v2(&dblp50());
    assert_eq!(
        (checksum64(&bytes), bytes.len()),
        (0x1431_9901_b8a1_7853, 15_853),
        "v2 snapshot bytes changed"
    );
}
