//! Robustness of the multi-tenant catalog metastore (DESIGN.md §16),
//! mirroring `snapshot_corruption.rs` for the `XCLCAT3` format.
//!
//! Contract (ISSUE PR 9): a catalog file is trusted only after magic,
//! whole-payload checksum, and structural validation all pass; any
//! truncation, bit flip, or hostile varint surfaces as a `CatalogError`
//! — never a panic, never an oversized allocation, never a silently
//! different corpus list. Accepted inputs re-encode byte-for-byte (the
//! canonical-encoding property the `xclean index build --catalog`
//! read-modify-write cycle depends on). A snapshot named by a valid
//! catalog, or a file of a shard set, that went missing must fail engine
//! assembly with an error naming the offending path.

use xclean_suite::datagen::{generate_dblp, DblpConfig};
use xclean_suite::index::slab::checksum64;
use xclean_suite::index::OpenError as ShardedEngineError;
use xclean_suite::index::{partition_corpus, storage, CorpusIndex};
use xclean_suite::xclean::catalog::CATALOG_MAGIC;
use xclean_suite::xclean::telemetry::names;
use xclean_suite::xclean::{
    Catalog, CatalogError, CorpusSpec, Semantics, Telemetry, XCleanConfig, XCleanEngine,
};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("xclean_catalog_robustness")
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_catalog() -> Catalog {
    Catalog {
        corpora: vec![
            CorpusSpec {
                name: "dblp".into(),
                snapshot: "snapshots/dblp.xci".into(),
            },
            CorpusSpec {
                name: "inex-09".into(),
                snapshot: "inex.xci".into(),
            },
        ],
    }
}

/// Reassembles a catalog image around an edited payload, recomputing the
/// checksum so the edit reaches the structural validation layer (with a
/// stale checksum every edit would stop at `CatalogError::Checksum`).
fn with_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(CATALOG_MAGIC);
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn roundtrip_is_byte_stable_through_the_filesystem() {
    let dir = tmp_dir("roundtrip");
    let path = dir.join("catalog.xcc");
    let catalog = sample_catalog();
    catalog.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let back = Catalog::load(&path).unwrap();
    assert_eq!(back, catalog);
    // Saving the loaded catalog reproduces the file byte for byte — the
    // read-modify-write cycle `index build --catalog` runs is stable.
    let path2 = dir.join("catalog2.xcc");
    back.save(&path2).unwrap();
    assert_eq!(std::fs::read(&path2).unwrap(), bytes);
}

#[test]
fn truncation_at_every_length_is_rejected_without_panic() {
    let bytes = sample_catalog().encode().unwrap();
    for cut in 0..bytes.len() {
        assert!(Catalog::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn every_single_byte_flip_is_rejected_by_the_checksum() {
    let bytes = sample_catalog().encode().unwrap();
    for pos in 16..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x01;
        assert!(
            matches!(
                Catalog::decode(&flipped),
                Err(CatalogError::Checksum { .. })
            ),
            "payload flip at {pos} must fail the checksum"
        );
    }
    // Flips in the header fail earlier (magic) or as a checksum mismatch.
    for pos in 0..16 {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x01;
        assert!(Catalog::decode(&flipped).is_err(), "header flip at {pos}");
    }
}

/// The snapshot_corruption.rs discipline applied behind the checksum:
/// every single-byte payload edit, re-checksummed so it reaches the
/// decoder proper, either still decodes to a catalog whose re-encoding
/// is byte-stable, or errors cleanly. Nothing may panic or allocate on
/// hostile counts.
#[test]
fn structural_validation_holds_for_every_rechecksummed_payload_edit() {
    let bytes = sample_catalog().encode().unwrap();
    let payload = &bytes[16..];
    for pos in 0..payload.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut edited = payload.to_vec();
            edited[pos] ^= mask;
            match Catalog::decode(&with_payload(&edited)) {
                Ok(c) => {
                    let re = c.encode().unwrap();
                    assert_eq!(
                        &re[16..],
                        &edited[..],
                        "accepted edit at {pos}^{mask:#04x} must re-encode byte-stably"
                    );
                }
                Err(CatalogError::Checksum { .. }) => {
                    panic!("checksum was recomputed; edit at {pos} cannot fail it")
                }
                Err(_) => {}
            }
        }
    }
}

#[test]
fn hostile_varints_are_rejected_before_allocation() {
    // u64::MAX corpora declared in a 10-byte payload.
    let mut p = vec![0xFF; 9];
    p.push(0x01);
    assert!(matches!(
        Catalog::decode(&with_payload(&p)),
        Err(CatalogError::Corrupt(_))
    ));
    // An 11-byte varint overflows u64.
    let p = vec![0xFF; 11];
    assert!(matches!(
        Catalog::decode(&with_payload(&p)),
        Err(CatalogError::Corrupt("varint overflow"))
    ));
    // Non-minimal encoding of 1 (0x81 0x00): canonical form required.
    let p = vec![0x81, 0x00];
    assert!(matches!(
        Catalog::decode(&with_payload(&p)),
        Err(CatalogError::Corrupt("non-minimal varint"))
    ));
    // Trailing garbage after a valid catalog body.
    let mut bytes = sample_catalog().encode().unwrap();
    let mut payload = bytes.split_off(16);
    payload.push(0x00);
    assert!(matches!(
        Catalog::decode(&with_payload(&payload)),
        Err(CatalogError::Corrupt("trailing bytes after catalog"))
    ));
}

#[test]
fn missing_shard_file_error_names_the_offending_path() {
    let dir = tmp_dir("missing_shard");
    let build = || {
        CorpusIndex::build(generate_dblp(&DblpConfig {
            publications: 30,
            ..Default::default()
        }))
    };
    let parent = build();
    storage::save_to_file_v2(&parent, dir.join("dblp.xci")).unwrap();
    let mut set = Vec::new();
    for shard in &partition_corpus(&parent, 3, 5).unwrap() {
        let meta = shard.shard_meta().unwrap();
        let path = dir.join(format!(
            "dblp-shard{}-of-{}.xci",
            meta.shard_id, meta.shard_count
        ));
        storage::save_to_file_v2(shard, &path).unwrap();
        set.push(path);
    }
    let catalog = Catalog {
        corpora: vec![CorpusSpec {
            name: "dblp".into(),
            snapshot: "dblp.xci".into(),
        }],
    };
    let cat_path = dir.join("catalog.xcc");
    catalog.save(&cat_path).unwrap();

    // Intact files: catalog → resolved path → engine, and the set opened
    // from its paths, answer queries bit-identically to the parent, and
    // each file opened leaves one open sample in its engine's registry.
    let loaded = Catalog::load(&cat_path).unwrap();
    let entry = loaded.corpora[0].resolved_snapshot(&dir);
    let open = |path: &std::path::Path| {
        XCleanEngine::open(
            path,
            XCleanConfig::default(),
            Semantics::NodeType,
            Telemetry::disabled(),
        )
        .map(|(engine, _)| engine)
    };
    let load =
        |paths: &[std::path::PathBuf]| XCleanEngine::load_snapshots(paths, XCleanConfig::default());
    let (engine, sharded) = (open(&entry).unwrap(), load(&set).unwrap());
    for (e, files) in [(&engine, 1), (&sharded, 3)] {
        let opened = e.metrics().histogram_summary(names::SNAPSHOT_OPEN);
        assert_eq!(opened.map(|s| s.count), Some(files));
    }
    let baseline = XCleanEngine::from_corpus(build(), XCleanConfig::default());
    let a = baseline.suggest("databse");
    for b in [engine.suggest("databse"), sharded.suggest("databse")] {
        assert_eq!(a.suggestions.len(), b.suggestions.len());
        for (x, y) in a.suggestions.iter().zip(&b.suggestions) {
            assert_eq!(x.terms, y.terms);
            assert_eq!(x.log_score.to_bits(), y.log_score.to_bits());
        }
    }

    // Delete one shard, then the catalog's snapshot: assembly must fail
    // naming exactly that file.
    std::fs::remove_file(dir.join("dblp-shard1-of-3.xci")).unwrap();
    std::fs::remove_file(&entry).unwrap();
    let failures = [
        ("dblp-shard1-of-3.xci", load(&set).map(drop)),
        ("dblp.xci", open(&entry).map(drop)),
    ];
    for (gone, opened) in failures {
        let err = opened.expect_err("a missing file must fail");
        match &err {
            ShardedEngineError::Snapshot { path, .. } => {
                assert!(path.ends_with(gone), "error names the wrong path: {path}");
            }
            other => panic!("expected Snapshot error, got {other}"),
        }
        assert!(
            err.to_string().contains(gone),
            "display must carry the path: {err}"
        );
    }
}
