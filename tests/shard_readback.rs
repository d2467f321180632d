//! A shard set reads back as its parent corpus, byte for byte.
//!
//! `ShardedEngine` serves a set as the corpus `reassemble_parent` rebuilds
//! from the shards (DESIGN.md §16), so its bit-identity with the
//! unsharded engine rests on one fact, pinned here: the v2 bytes of the
//! rebuilt corpus equal the parent's, at 1, 2, 3, 4 and 8 shards, over
//! generated corpora and every committed fixture the partitioner accepts,
//! from shards in memory and from shard snapshots opened from disk. The
//! cache keys of a set are pinned too: `XCleanEngine::fingerprint` of 2- and
//! 3-shard sets of `dblp50.xml` keeps the value it had when a set was
//! walked shard by shard.

use xclean_suite::datagen::{generate_dblp, DblpConfig};
use xclean_suite::index::{
    partition_corpus, reassemble_parent, storage, CorpusIndex, OpenOptions, ShardError,
};
use xclean_suite::xclean::{ShardedEngine, XCleanConfig};
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

/// The response cache keys on `fingerprint()`: a set's must not move when
/// its serving path does, in memory or over snapshots (whose payload
/// checksums it mixes in).
#[test]
fn set_fingerprints_are_unchanged() {
    let parent = fixture("dblp50.xml");
    let dir = std::env::temp_dir().join(format!("xclean-fingerprint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pinned = [
        (2usize, 0x1a87_b9fc_e865_f573u64, 0xbf51_4e32_8841_dc71u64),
        (3, 0x4c1e_a3b6_0935_04b2, 0x67ba_3d81_953a_2ea7),
    ];
    for (n, in_memory, from_disk) in pinned {
        let shards = partition_corpus(&parent, n, 7).unwrap();
        let paths: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let path = dir.join(format!("dblp50-{n}-{i}.xci"));
                storage::save_to_file_v2(shard, &path).unwrap();
                path
            })
            .collect();
        let mem = ShardedEngine::from_shards(shards, XCleanConfig::default()).unwrap();
        let disk = ShardedEngine::load_snapshots(&paths, XCleanConfig::default()).unwrap();
        assert_eq!(mem.fingerprint(), in_memory, "{n} shards in memory");
        assert_eq!(disk.fingerprint(), from_disk, "{n} shards from disk");
        assert_eq!(mem.shard_count(), n as u32);
    }
    std::fs::remove_dir_all(&dir).ok();
}
