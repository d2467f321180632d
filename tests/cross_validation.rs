//! Cross-validation of Algorithm 1 against the naïve per-candidate oracle
//! on generated corpora — the strongest end-to-end correctness check in
//! the suite: the single-pass anchor/skip/accumulate machinery must
//! produce exactly the scores of the brute-force evaluator.

use xclean_suite::baselines::run_naive;
use xclean_suite::datagen::{generate_dblp, generate_inex, DblpConfig, InexConfig};
use xclean_suite::index::CorpusIndex;
use xclean_suite::xclean::{run_xclean, KeywordSlot, VariantGenerator, XCleanConfig};

mod support;

fn check_agreement(corpus: &CorpusIndex, queries: &[&str], epsilon: usize) {
    let gen = VariantGenerator::build(corpus, epsilon, 14);
    let cfg = XCleanConfig {
        epsilon,
        gamma: None, // pruning off: the oracle keeps everything
        ..Default::default()
    };
    for q in queries {
        let keywords: Vec<&str> = q.split_whitespace().collect();
        let slots: Vec<KeywordSlot> = keywords
            .iter()
            .map(|k| KeywordSlot {
                keyword: k.to_string(),
                variants: gen.variants(k),
            })
            .collect();
        let fast = run_xclean(corpus, &slots, &cfg);
        let slow = run_naive(corpus, &slots, &cfg);
        assert_eq!(
            fast.candidates.len(),
            slow.len(),
            "query {q:?}: candidate sets differ: fast {:?} vs slow {:?}",
            fast.candidates
                .iter()
                .map(|c| &c.tokens)
                .collect::<Vec<_>>(),
            slow.iter().map(|c| &c.tokens).collect::<Vec<_>>(),
        );
        for (f, s) in fast.candidates.iter().zip(slow.iter()) {
            assert_eq!(f.tokens, s.tokens, "query {q:?}");
            assert!(
                (f.log_score - s.log_score).abs() < 1e-9,
                "query {q:?}: {} vs {}",
                f.log_score,
                s.log_score
            );
            assert_eq!(f.entity_count, s.entity_count, "query {q:?}");
        }
    }
}

#[test]
fn dblp_corpus_agreement() {
    let corpus = CorpusIndex::build(generate_dblp(&DblpConfig {
        publications: 800,
        seed: 99,
        ..Default::default()
    }));
    check_agreement(
        &corpus,
        &[
            "keyword search",
            "keywrd search",
            "databse systems smith",
            "quury optimization",
            "jones indexing",
            "streem procesing",
            "xml",
            "helth insurance",
        ],
        2,
    );
}

#[test]
fn inex_corpus_agreement() {
    let corpus = CorpusIndex::build(generate_inex(&InexConfig {
        articles: 150,
        seed: 77,
        ..Default::default()
    }));
    check_agreement(
        &corpus,
        &[
            "history empire",
            "anciemt history",
            "mountain valey river",
            "religous tradition",
            "skyscrapir",
        ],
        2,
    );
}

#[test]
fn agreement_under_doc_length_prior() {
    use xclean_suite::xclean::EntityPrior;
    let corpus = CorpusIndex::build(generate_dblp(&DblpConfig {
        publications: 400,
        seed: 31,
        ..Default::default()
    }));
    let gen = VariantGenerator::build(&corpus, 2, 14);
    let cfg = XCleanConfig {
        gamma: None,
        prior: EntityPrior::DocLength,
        ..Default::default()
    };
    for q in ["keyword search", "databse systems", "jones indexing"] {
        let slots: Vec<KeywordSlot> = q
            .split_whitespace()
            .map(|k| KeywordSlot {
                keyword: k.to_string(),
                variants: gen.variants(k),
            })
            .collect();
        let fast = run_xclean(&corpus, &slots, &cfg);
        let slow = run_naive(&corpus, &slots, &cfg);
        assert_eq!(fast.candidates.len(), slow.len(), "query {q:?}");
        for (f, s) in fast.candidates.iter().zip(slow.iter()) {
            assert_eq!(f.tokens, s.tokens, "query {q:?}");
            assert!((f.log_score - s.log_score).abs() < 1e-9, "query {q:?}");
        }
    }
}

#[test]
fn agreement_under_jelinek_mercer_smoothing() {
    let corpus = CorpusIndex::build(generate_dblp(&DblpConfig {
        publications: 300,
        seed: 47,
        ..Default::default()
    }));
    let gen = VariantGenerator::build(&corpus, 2, 14);
    let cfg = XCleanConfig {
        gamma: None,
        smoothing: xclean_suite::lm::Smoothing::JelinekMercer { lambda: 0.4 },
        ..Default::default()
    };
    for q in ["keyword search", "databse systems"] {
        let slots: Vec<KeywordSlot> = q
            .split_whitespace()
            .map(|k| KeywordSlot {
                keyword: k.to_string(),
                variants: gen.variants(k),
            })
            .collect();
        let fast = run_xclean(&corpus, &slots, &cfg);
        let slow = run_naive(&corpus, &slots, &cfg);
        assert_eq!(fast.candidates.len(), slow.len(), "query {q:?}");
        for (f, s) in fast.candidates.iter().zip(slow.iter()) {
            assert_eq!(f.tokens, s.tokens, "query {q:?}");
            assert!((f.log_score - s.log_score).abs() < 1e-9, "query {q:?}");
        }
    }
}

/// `min_depth` moves the gate, and with it which table the walk seeks in
/// and which candidates score from the gate's own entry (result type at
/// the gate depth) or from the tree (deeper result types).
#[test]
fn agreement_across_min_depths() {
    let inex = CorpusIndex::build(generate_inex(&InexConfig {
        articles: 80,
        seed: 5,
        ..Default::default()
    }));
    // Indexed text on shelves and books, i.e. shallower than the gate and
    // between entities from `min_depth` 3 up.
    let library = CorpusIndex::build(support::mixed_depth_library(10));
    for (corpus, queries, both_branches) in [
        (&inex, &["history empire"][..], false),
        (&library, &support::LIBRARY_QUERIES[..], true),
    ] {
        let gen = VariantGenerator::build(corpus, 1, 14);
        for d in [1u32, 2, 3, 4] {
            let cfg = XCleanConfig {
                epsilon: 1,
                gamma: None,
                min_depth: d,
                ..Default::default()
            };
            let (mut at_gate, mut below_gate) = (0, 0);
            for q in queries {
                let slots: Vec<KeywordSlot> = q
                    .split_whitespace()
                    .map(|k| KeywordSlot {
                        keyword: k.to_string(),
                        variants: gen.variants(k),
                    })
                    .collect();
                let fast = run_xclean(corpus, &slots, &cfg);
                let slow = run_naive(corpus, &slots, &cfg);
                assert_eq!(fast.candidates.len(), slow.len(), "d={d} {q:?}");
                for (f, s) in fast.candidates.iter().zip(slow.iter()) {
                    assert_eq!(f.tokens, s.tokens, "d={d} {q:?}");
                    assert!((f.log_score - s.log_score).abs() < 1e-9, "d={d} {q:?}");
                    assert_eq!(f.entity_count, s.entity_count, "d={d} {q:?}");
                    if corpus.tree().paths().depth(f.result_path) == d {
                        at_gate += 1;
                    } else {
                        below_gate += 1;
                    }
                }
            }
            if both_branches {
                assert!(
                    at_gate > 0 && below_gate > 0,
                    "d={d}: {at_gate} result types at the gate depth, {below_gate} below it"
                );
            }
        }
    }
}
