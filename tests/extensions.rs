//! Integration tests for the §VI extensions: space-edit expansion and
//! SLCA semantics interplay, plus index codec persistence.

use xclean_suite::index::{codec, CorpusIndex, TokenId};
use xclean_suite::xclean::{expand_space_edits, XCleanConfig, XCleanEngine};
use xclean_suite::xmltree::parse_document;

fn engine() -> XCleanEngine {
    let xml = "<docs>\
        <doc><t>powerpoint slides design</t></doc>\
        <doc><t>power point presentations</t></doc>\
        <doc><t>database systems</t></doc>\
    </docs>";
    XCleanEngine::new(parse_document(xml).unwrap(), XCleanConfig::default())
}

#[test]
fn space_edit_merge_then_suggest() {
    // "power point" should expand to "powerpoint", and the merged query
    // must itself be suggestible (it has entities).
    let e = engine();
    let kws = vec!["power".to_string(), "point".to_string()];
    let variants = expand_space_edits(e.corpus(), &kws, 1);
    assert!(variants.iter().any(|v| v.keywords == vec!["powerpoint"]));
    for v in &variants {
        let resp = e.suggest_keywords(&v.keywords);
        // Each expansion must produce at least one valid suggestion.
        assert!(
            !resp.suggestions.is_empty(),
            "no suggestions for {:?}",
            v.keywords
        );
    }
}

#[test]
fn space_edit_split_then_suggest() {
    let e = engine();
    let kws = vec!["powerpoint".to_string()];
    let variants = expand_space_edits(e.corpus(), &kws, 1);
    assert!(variants
        .iter()
        .any(|v| v.keywords == vec!["power", "point"]));
}

#[test]
fn combining_space_edits_with_typo_correction() {
    // A typo'd merged form: "powerpiont" → (typo fix) "powerpoint";
    // the τ=1 expansion of the *fixed* query reaches "power point".
    let e = engine();
    let r = e.suggest("powerpiont");
    assert_eq!(r.suggestions[0].terms, vec!["powerpoint"]);
    let expanded = expand_space_edits(e.corpus(), &r.suggestions[0].terms, 1);
    assert!(expanded
        .iter()
        .any(|v| v.keywords == vec!["power", "point"]));
}

#[test]
fn posting_lists_roundtrip_through_codec() {
    // The full index of a generated corpus must survive encode/decode —
    // the persistence path of the index.
    let corpus = CorpusIndex::build(xclean_suite::datagen::generate_dblp(
        &xclean_suite::datagen::DblpConfig {
            publications: 300,
            seed: 17,
            ..Default::default()
        },
    ));
    for t in 0..corpus.vocab().len() as u32 {
        let list = corpus.postings(TokenId(t));
        let encoded = codec::encode(list);
        let decoded = codec::decode(&encoded).expect("decode");
        assert_eq!(&decoded, list, "token {t}");
    }
}

#[test]
fn persisted_index_yields_identical_suggestions() {
    use xclean_suite::index::storage;
    let tree = xclean_suite::datagen::generate_dblp(&xclean_suite::datagen::DblpConfig {
        publications: 400,
        seed: 41,
        ..Default::default()
    });
    let original = XCleanEngine::new(tree, XCleanConfig::default());
    let bytes = storage::to_bytes_v2(original.corpus());
    let restored = XCleanEngine::from_corpus(
        storage::from_bytes(&bytes).expect("load index"),
        XCleanConfig::default(),
    );
    for q in [
        "keyword serach",
        "databse systems",
        "jones indexng",
        "smith",
    ] {
        let a = original.suggest(q);
        let b = restored.suggest(q);
        assert_eq!(a.suggestions.len(), b.suggestions.len(), "query {q}");
        for (x, y) in a.suggestions.iter().zip(b.suggestions.iter()) {
            assert_eq!(x.terms, y.terms, "query {q}");
            assert!((x.log_score - y.log_score).abs() < 1e-12, "query {q}");
            assert_eq!(x.entity_count, y.entity_count, "query {q}");
        }
    }
}

#[test]
fn phonetic_variants_rescue_sound_alike_errors() {
    // §VI-A cognitive errors: "famous bouddhist places"-style sound-alike
    // misspellings beyond the edit threshold are recovered phonetically.
    let xml = "<db>\
        <rec><a>robert</a><t>gravitational waves detection</t></rec>\
        <rec><a>rupert</a><t>quantum computing</t></rec>\
    </db>";
    let plain = XCleanEngine::new(
        parse_document(xml).unwrap(),
        XCleanConfig {
            epsilon: 1,
            ..Default::default()
        },
    );
    let phonetic = XCleanEngine::new(
        parse_document(xml).unwrap(),
        XCleanConfig {
            epsilon: 1,
            phonetic_distance: Some(2),
            ..Default::default()
        },
    );
    // "rabard" is ≥2 edits from robert/rupert: invisible at ε=1...
    let kw = vec!["rabard".to_string(), "waves".to_string()];
    assert!(plain.suggest_keywords(&kw).suggestions.is_empty());
    // ...but shares their Soundex code.
    let r = phonetic.suggest_keywords(&kw);
    assert!(!r.suggestions.is_empty());
    assert_eq!(r.suggestions[0].terms, vec!["robert", "waves"]);
}

#[test]
fn storage_rejects_arbitrary_bytes_without_panicking() {
    use xclean_suite::index::storage;
    // Deterministic pseudo-random garbage, including inputs that start
    // with the valid magic.
    let mut seed = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for len in [0usize, 1, 7, 8, 9, 64, 500] {
        for _ in 0..20 {
            let mut data: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            assert!(storage::from_bytes(&data).is_err());
            if data.len() >= 8 {
                data[..8].copy_from_slice(b"XCLIDX1\0");
                // Must error (or in principle succeed) but never panic.
                let _ = storage::from_bytes(&data);
            }
        }
    }
    // The same contract from a realistic seed: the committed v1 snapshot
    // of `dblp50.xml`, truncated and bit-flipped. v1 carries no checksum,
    // so a flip may load — but neither reader may panic, and a truncated
    // file is always an error.
    let v1 = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/dblp50_v1.xci"
    ))
    .unwrap();
    assert!(storage::from_bytes(&v1).is_ok() && storage::summarize(&v1).is_ok());
    for cut in (8..v1.len()).step_by(61) {
        assert!(storage::from_bytes(&v1[..cut]).is_err(), "cut {cut}");
        assert!(storage::summarize(&v1[..cut]).is_err(), "cut {cut}");
    }
    for _ in 0..400 {
        let mut data = v1.clone();
        let at = 8 + (next() as usize) % (v1.len() - 8);
        data[at] ^= 1 << (next() % 8);
        let _ = storage::from_bytes(&data);
        let _ = storage::summarize(&data);
    }
}

#[test]
fn encoded_index_is_smaller_than_flat_representation() {
    let corpus = CorpusIndex::build(xclean_suite::datagen::generate_dblp(
        &xclean_suite::datagen::DblpConfig {
            publications: 500,
            seed: 23,
            ..Default::default()
        },
    ));
    let mut encoded = 0usize;
    let mut entries = 0usize;
    for t in 0..corpus.vocab().len() as u32 {
        let list = corpus.postings(TokenId(t));
        encoded += codec::encode(list).len();
        entries += list.len();
    }
    // Naive flat layout: node 4 + tf 4 = 8 bytes/entry.
    assert!(
        encoded < entries * 8 / 2,
        "encoded {encoded} vs flat {}",
        entries * 8
    );
}
