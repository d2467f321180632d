//! A shard set reads back as its parent corpus, byte for byte.
//!
//! `ShardedEngine` serves a set as the corpus `reassemble_parent` rebuilds
//! from the shards (DESIGN.md §16), so its bit-identity with the
//! unsharded engine rests on one fact, pinned here: the v2 bytes of the
//! rebuilt corpus equal the parent's, at 1, 2, 3, 4 and 8 shards, over
//! generated corpora and every committed fixture the partitioner accepts,
//! from shards in memory and from shard snapshots opened from disk. A set
//! keeps nothing of the set, its cache key included:
//! `XCleanEngine::fingerprint` of 2- and 3-shard sets of `dblp50.xml` is
//! the parent's, pinned.

use xclean_suite::datagen::{generate_dblp, DblpConfig};
use xclean_suite::index::{
    partition_corpus, reassemble_parent, storage, CorpusIndex, OpenOptions, ShardError,
};
use xclean_suite::xclean::{Semantics, ShardedEngine, XCleanConfig, XCleanEngine};
use xclean_suite::xmltree::parse_document;

#[allow(dead_code)] // the library's queries are sharded_identity's
mod support;

const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

fn fixture(name: &str) -> CorpusIndex {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let xml = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    CorpusIndex::build(parse_document(&xml).unwrap())
}

/// Every shard count the partitioner accepts for `parent` reads back as
/// `parent`'s bytes; returns how many it accepted.
fn assert_reads_back(parent: &CorpusIndex, what: &str) -> usize {
    let bytes = storage::to_bytes_v2(parent);
    let mut accepted = 0;
    for n in SHARD_COUNTS {
        let shards = match partition_corpus(parent, n, 7) {
            Ok(shards) => shards,
            Err(ShardError::TooFewEntities { .. } | ShardError::RootHasDirectText) => continue,
            Err(e) => panic!("{what} at {n} shards: {e}"),
        };
        let back = reassemble_parent(shards).unwrap();
        assert!(back.shard_meta().is_none(), "{what} at {n} shards");
        assert!(
            storage::to_bytes_v2(&back) == bytes,
            "{what} at {n} shards: the rebuilt corpus's v2 bytes differ from the parent's"
        );
        accepted += 1;
    }
    accepted
}

#[test]
fn generated_corpora_read_back_byte_for_byte() {
    let dblp = CorpusIndex::build(generate_dblp(&DblpConfig {
        publications: 1000,
        ..Default::default()
    }));
    assert_eq!(assert_reads_back(&dblp, "dblp-1000"), SHARD_COUNTS.len());
    let library = CorpusIndex::build(support::mixed_depth_library(12));
    assert_eq!(assert_reads_back(&library, "library"), SHARD_COUNTS.len());
    // Root text without an indexed token is kept by shard 0 alone.
    let xml = "<r>the<a><b>alpha</b></a><a><b>beta</b></a><a><b>gamma</b></a></r>";
    let stop_words_at_root = CorpusIndex::build(parse_document(xml).unwrap());
    assert_eq!(
        assert_reads_back(&stop_words_at_root, "stop words at the root"),
        3
    );
}

#[test]
fn committed_fixtures_read_back_byte_for_byte() {
    assert_eq!(
        assert_reads_back(&fixture("dblp50.xml"), "dblp50"),
        SHARD_COUNTS.len()
    );
    // Three records: 1–3 shards.
    assert_eq!(assert_reads_back(&fixture("edge.xml"), "edge"), 3);
}

#[test]
fn shard_snapshots_read_back_byte_for_byte() {
    let parent = fixture("dblp50.xml");
    let dir = std::env::temp_dir().join(format!("xclean-readback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for n in [2usize, 3] {
        let opened: Vec<CorpusIndex> = partition_corpus(&parent, n, 7)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let path = dir.join(format!("dblp50-{n}-{i}.xci"));
                storage::save_to_file_v2(shard, &path).unwrap();
                storage::open_file(&path, &OpenOptions::default())
                    .unwrap()
                    .0
            })
            .collect();
        let back = reassemble_parent(opened).unwrap();
        assert!(
            storage::to_bytes_v2(&back) == storage::to_bytes_v2(&parent),
            "{n} shards"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A set read back is its parent, so the response cache keys it as its
/// parent built in memory: from shards in memory and from snapshots, at
/// 2 and 3 shards, under node-type and SLCA. The parent's own keys are
/// pinned: the key of an engine over a corpus not stored as a set is
/// what the response caches and the benchmark's cache keys hold.
#[test]
fn a_set_keys_like_its_parent() {
    let parent = fixture("dblp50.xml");
    let dir = std::env::temp_dir().join(format!("xclean-fingerprint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pinned = [
        (Semantics::NodeType, 0x1257_60f7_cc34_0ae3u64),
        (Semantics::Slca, 0x7a53_5de4_4d79_b422),
    ];
    for n in [2usize, 3] {
        let paths: Vec<_> = partition_corpus(&parent, n, 7)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let path = dir.join(format!("dblp50-{n}-{i}.xci"));
                storage::save_to_file_v2(shard, &path).unwrap();
                path
            })
            .collect();
        for (semantics, key) in pinned {
            let config = XCleanConfig::default();
            let built = XCleanEngine::from_corpus(fixture("dblp50.xml"), config.clone());
            let mem = ShardedEngine::from_shards(partition_corpus(&parent, n, 7).unwrap(), config)
                .unwrap();
            let disk = ShardedEngine::load_snapshots(&paths, XCleanConfig::default()).unwrap();
            for (engine, what) in [(built, "parent"), (mem, "in memory"), (disk, "from disk")] {
                let engine = engine.with_semantics(semantics);
                let what = format!("{n} shards, {what}, {semantics:?}");
                assert_eq!(engine.fingerprint(), key, "{what}");
                assert_eq!(engine.snapshot(), None, "{what}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
