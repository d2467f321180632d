//! The persistent index format: v2 (`XCLIDX2\0`, [`v2`]), the one format
//! written and the one read (DESIGN.md §11). It is a columnar,
//! offset-addressed layout with a section table and payload checksum.
//! Postings, the term dictionary, and path statistics stay *in* the file
//! bytes (owned or memory-mapped via [`IndexSlab`]) and are viewed or
//! decoded lazily, so open cost is O(validation). It is also the in-memory
//! form of every [`CorpusIndex`]: the builder encodes its sections and
//! views them, and a save frames the sections an index holds. Any other
//! input — an older format included — is a [`StorageError`] that says to
//! rebuild the snapshot from its XML with `xclean index build`.
//!
//! [`open_file`] is the read path, returning a [`LoadReport`] with
//! open/validate timings. [`save_to_file_v2`] writes a sibling file and
//! renames it over the target ([`replace_file`], which the catalog's save
//! shares), so a process that has the old file mapped keeps reading the
//! old bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xclean_xmltree::{TokenizerConfig, TreeAssemblyError};

use crate::codec::CodecError;
use crate::corpus::CorpusIndex;
use crate::slab::IndexSlab;

pub mod v2;

/// Errors raised while loading a stored index.
#[derive(Debug)]
pub enum StorageError {
    /// The input is not a v2 snapshot in the current layout: its magic
    /// is not `XCLIDX2\0`, or its section table lacks a section this
    /// build reads.
    BadMagic,
    /// A low-level decoding failure.
    Codec(CodecError),
    /// Structural inconsistency in the stored data.
    Corrupt(&'static str),
    /// The stored tree columns violate a structural invariant.
    Tree(TreeAssemblyError),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::BadMagic => write!(
                f,
                "not an xclean v2 snapshot of the current layout; \
                 rebuild it with `xclean index build <data.xml> --out <index.xci>`"
            ),
            StorageError::Codec(e) => write!(f, "decode error: {e}"),
            StorageError::Corrupt(m) => write!(f, "corrupt index: {m}"),
            StorageError::Tree(e) => write!(f, "corrupt index tree: {e}"),
            StorageError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Codec(e)
    }
}

impl From<TreeAssemblyError> for StorageError {
    fn from(e: TreeAssemblyError) -> Self {
        StorageError::Tree(e)
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// One named section of a snapshot, as reported by [`summarize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (`TREE`, `VOCAB`, …).
    pub name: &'static str,
    /// Payload bytes the section occupies.
    pub bytes: u64,
}

/// Cheap structural facts about a stored snapshot, extracted without
/// rebuilding the tree, vocabulary, or posting lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// On-disk format version (always 2).
    pub format_version: u8,
    /// Total snapshot size in bytes.
    pub total_bytes: usize,
    /// Number of distinct element labels.
    pub labels: usize,
    /// Number of tree nodes.
    pub nodes: usize,
    /// Number of vocabulary terms (= number of posting lists).
    pub terms: usize,
    /// Total token occurrences (sum of collection frequencies).
    pub total_tokens: u64,
    /// Bytes occupied by the encoded posting lists.
    pub postings_bytes: usize,
    /// Tokenizer policy the index was built with.
    pub tokenizer: TokenizerConfig,
    /// Payload checksum recorded in the file (verified).
    pub checksum: u64,
    /// Per-section byte sizes in file order.
    pub sections: Vec<SectionInfo>,
}

/// The options [`open_file`] takes. It has none: a snapshot is always
/// mapped where possible and always checksum-verified. The type stays
/// because the benchmark harness (`xbench/`) passes
/// `&OpenOptions::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenOptions {}

/// What [`open_file`] did and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Format version of the snapshot that was opened (always 2).
    pub format_version: u8,
    /// Total snapshot size in bytes.
    pub total_bytes: usize,
    /// `true` when the serving index reads from a memory mapping.
    pub mapped: bool,
    /// Payload checksum recorded in the file (verified).
    pub checksum: u64,
    /// Nanoseconds spent acquiring the bytes (read or mmap).
    pub open_nanos: u64,
    /// Nanoseconds spent validating + assembling the index.
    pub validate_nanos: u64,
}

/// Serialises a corpus index in the v2 columnar format.
pub fn to_bytes_v2(corpus: &CorpusIndex) -> Vec<u8> {
    v2::to_bytes(corpus)
}

/// Restores a corpus index from v2 bytes.
pub fn from_bytes(buf: &[u8]) -> Result<CorpusIndex, StorageError> {
    let slab = Arc::new(IndexSlab::Owned(buf.to_vec()));
    v2::load(slab).map(|(c, _)| c)
}

/// Walks a snapshot's framing and returns a [`SnapshotSummary`] without
/// materialising the index — the fast path behind `xclean index inspect`.
/// Every length field is bounds-checked, so a truncated or hostile file
/// errors instead of panicking.
pub fn summarize(bytes: impl AsRef<[u8]>) -> Result<SnapshotSummary, StorageError> {
    v2::summarize(bytes.as_ref())
}

/// [`summarize`] for a file on disk.
pub fn summarize_file(path: impl AsRef<std::path::Path>) -> Result<SnapshotSummary, StorageError> {
    let data = std::fs::read(path)?;
    summarize(&data)
}

/// Writes the index to a file in the v2 columnar format, replacing the
/// file at `path` (see [`replace_file`]): a reader that has the old
/// snapshot mapped keeps its bytes (see `slab::mmap`).
pub fn save_to_file_v2(
    corpus: &CorpusIndex,
    path: impl AsRef<std::path::Path>,
) -> Result<(), StorageError> {
    Ok(replace_file(path, &to_bytes_v2(corpus))?)
}

/// Writes `bytes` to `path` by replacing the file, never truncating or
/// rewriting it in place: the bytes go to a sibling temporary file
/// (`.<name>.<pid>.<n>.tmp`) that is then renamed over `path`, so a
/// process that has the old file open or mapped keeps reading the old
/// bytes. The temporary file is removed on error. A `path` that is a
/// symlink is written through: the file it resolves to is the one
/// replaced, and the link stays. The replacement takes the permissions of
/// the file it replaces.
pub fn replace_file(path: impl AsRef<std::path::Path>, bytes: &[u8]) -> std::io::Result<()> {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let path = std::fs::canonicalize(path.as_ref()).unwrap_or_else(|_| path.as_ref().into());
    let permissions = std::fs::metadata(&path).ok().map(|m| m.permissions());
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::write(&tmp, bytes)
        .and_then(|()| permissions.map_or(Ok(()), |p| std::fs::set_permissions(&tmp, p)))
        .and_then(|()| std::fs::rename(&tmp, &path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Opens a snapshot for serving: it maps the file where it can
/// ([`IndexSlab::open`]), verifies the payload checksum, and validates in
/// place over the slab. Returns the index plus a [`LoadReport`] with
/// open/validate timings for telemetry.
pub fn open_file(
    path: impl AsRef<std::path::Path>,
    _options: &OpenOptions,
) -> Result<(CorpusIndex, LoadReport), StorageError> {
    let t0 = Instant::now();
    let slab = IndexSlab::open(path)?;
    let open_nanos = t0.elapsed().as_nanos() as u64;
    let total_bytes = slab.len();
    let mapped = slab.is_mapped();
    let t1 = Instant::now();
    let (corpus, checksum) = v2::load(Arc::new(slab))?;
    Ok((
        corpus,
        LoadReport {
            format_version: 2,
            total_bytes,
            mapped,
            checksum,
            open_nanos,
            validate_nanos: t1.elapsed().as_nanos() as u64,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::TokenId;
    use xclean_xmltree::parse_document;

    fn corpus() -> CorpusIndex {
        let xml = "<dblp>\
            <article><title>keyword search systems</title><author>smith</author></article>\
            <article year=\"2009\"><title>keyword cleaning</title><author>jones</author></article>\
        </dblp>";
        CorpusIndex::build(parse_document(xml).unwrap())
    }

    /// A committed fixture under the workspace's `tests/fixtures/`.
    fn fixture(name: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures")
            .join(name)
    }

    /// The index a fresh build of the committed `dblp50.xml` gives today.
    fn dblp50() -> CorpusIndex {
        let xml = std::fs::read_to_string(fixture("dblp50.xml")).unwrap();
        CorpusIndex::build(parse_document(&xml).unwrap())
    }

    fn assert_equivalent(a: &CorpusIndex, b: &CorpusIndex) {
        assert_eq!(a.tree().len(), b.tree().len());
        for n in a.tree().iter() {
            assert_eq!(a.tree().depth(n), b.tree().depth(n));
            assert_eq!(a.tree().label_name(n), b.tree().label_name(n));
            assert_eq!(a.tree().text(n), b.tree().text(n));
            assert_eq!(a.tree().subtree_end(n), b.tree().subtree_end(n));
            assert_eq!(a.tree().path_string(n), b.tree().path_string(n));
            assert_eq!(a.doc_len(n), b.doc_len(n));
        }
        assert_eq!(a.vocab().len(), b.vocab().len());
        for i in 0..a.vocab().len() as u32 {
            let t = TokenId(i);
            assert_eq!(a.vocab().term(t), b.vocab().term(t));
            assert_eq!(a.vocab().cf(t), b.vocab().cf(t));
            assert_eq!(a.vocab().df(t), b.vocab().df(t));
            assert_eq!(a.vocab().get(a.vocab().term(t)), Some(t));
            assert_eq!(a.postings(t), b.postings(t));
            assert_eq!(a.path_stats().paths_of(t), b.path_stats().paths_of(t));
        }
        assert_eq!(a.vocab().total_tokens(), b.vocab().total_tokens());
        assert_eq!(a.element_count(), b.element_count());
    }

    #[test]
    fn v2_roundtrip_preserves_everything() {
        let a = corpus();
        let bytes = to_bytes_v2(&a);
        let b = from_bytes(&bytes).unwrap();
        assert_equivalent(&a, &b);
        let prov = b.provenance().expect("v2 loads carry provenance");
        assert_eq!(prov.format_version, 2);
    }

    #[test]
    fn v2_double_roundtrip_is_byte_stable() {
        let a = corpus();
        let bytes = to_bytes_v2(&a);
        let b = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes_v2(&b), bytes);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            from_bytes(b"NOTANIDX"),
            Err(StorageError::BadMagic)
        ));
        assert!(from_bytes(&[]).is_err());
        // The refusal names the way out.
        let err = from_bytes(b"NOTANIDX").unwrap_err().to_string();
        assert!(err.contains("not an xclean v2 snapshot"), "{err}");
        assert!(err.contains("xclean index build"), "{err}");
    }

    #[test]
    fn truncation_detected() {
        for bytes in [to_bytes_v2(&dblp50()), to_bytes_v2(&corpus())] {
            // Any truncation must error, never panic.
            for cut in (8..bytes.len()).step_by(7) {
                assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn summary_matches_full_load_v2() {
        let a = corpus();
        let bytes = to_bytes_v2(&a);
        let s = summarize(&bytes).unwrap();
        assert_eq!(s.format_version, 2);
        assert_eq!(s.checksum, crate::slab::checksum64(&bytes[17 + 17 * 6..]));
        assert_eq!(s.total_bytes, bytes.len());
        assert_eq!(s.nodes, a.tree().len());
        assert_eq!(s.labels, a.tree().labels().len());
        assert_eq!(s.terms, a.vocab().len());
        assert_eq!(s.total_tokens, a.vocab().total_tokens());
        assert_eq!(s.tokenizer, *a.tokenizer().config());
        assert!(s.postings_bytes > 0 && s.postings_bytes < bytes.len());
        assert_eq!(s.sections.len(), 6);
        let section_sum: u64 = s.sections.iter().map(|x| x.bytes).sum();
        assert_eq!(section_sum as usize + 17 + 17 * 6, bytes.len());
        for cut in (8..bytes.len()).step_by(11) {
            assert!(summarize(&bytes[..cut]).is_err(), "cut {cut}");
        }
        assert!(matches!(
            summarize(b"NOTANIDX".as_slice()),
            Err(StorageError::BadMagic)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let a = corpus();
        let dir = std::env::temp_dir().join("xclean_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.xci");
        save_to_file_v2(&a, &path).unwrap();
        assert_equivalent(&a, &from_bytes(&std::fs::read(&path).unwrap()).unwrap());
        let (c, report) = open_file(&path, &OpenOptions::default()).unwrap();
        assert_equivalent(&a, &c);
        assert_eq!(report.format_version, 2);
        assert_eq!(report.checksum, summarize_file(&path).unwrap().checksum);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_shard_section_roundtrips_and_summarizes() {
        let a = corpus();
        let shards = crate::shard::partition_corpus(&a, 2, 99).unwrap();
        for shard in &shards {
            let bytes = to_bytes_v2(shard);
            let loaded = from_bytes(&bytes).unwrap();
            assert_equivalent(shard, &loaded);
            assert_eq!(loaded.shard_meta(), shard.shard_meta());
            // Re-encoding the loaded shard is byte-stable.
            assert_eq!(to_bytes_v2(&loaded), bytes);
            let s = summarize(&bytes).unwrap();
            assert_eq!(s.sections.len(), 7);
            assert!(s.sections.iter().any(|x| x.name == "SHARD"));
            // Truncations error, never panic, with the SHARD section too.
            for cut in (8..bytes.len()).step_by(13) {
                assert!(from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        // Ordinary snapshots stay shard-free.
        let s = summarize(to_bytes_v2(&a)).unwrap();
        assert!(!s.sections.iter().any(|x| x.name == "SHARD"));
    }

    #[test]
    fn v2_checksum_flip_detected() {
        let a = corpus();
        let mut bytes = to_bytes_v2(&a);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(from_bytes(&bytes).is_err());
    }

    /// A save replaces the file instead of rewriting it: a snapshot still
    /// mapped from the old file keeps its bytes when a different, larger
    /// corpus is saved to the same path. (An in-place rewrite shows the
    /// new bytes through the mapping, and a shorter one raises SIGBUS on
    /// the pages past its end.)
    #[cfg(unix)]
    #[test]
    fn save_replaces_a_mapped_snapshot_instead_of_rewriting_it() {
        let dir = std::env::temp_dir().join("xclean_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replaced.xci");
        save_to_file_v2(&dblp50(), &path).unwrap();
        let original = std::fs::read(&path).unwrap();
        let (a, report) = open_file(&path, &OpenOptions::default()).unwrap();
        assert!(report.mapped);

        let xml = std::fs::read_to_string(fixture("dblp50.xml"))
            .unwrap()
            .replace("<title>", "<title>replacement corpus ");
        let b = CorpusIndex::build(parse_document(&xml).unwrap());
        save_to_file_v2(&b, &path).unwrap();
        let replaced = std::fs::read(&path).unwrap();
        assert!(replaced.len() >= original.len() && replaced != original);

        assert!(
            to_bytes_v2(&a) == original,
            "the mapped snapshot changed under its reader"
        );
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with(".replaced.xci.")
            })
            .count();
        assert_eq!(leftovers, 0, "a temporary file was left beside the target");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_mapped_open_equals_owned() {
        let a = corpus();
        let dir = std::env::temp_dir().join("xclean_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapped.xci");
        save_to_file_v2(&a, &path).unwrap();
        let owned = from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        let (mapped, report) = open_file(&path, &OpenOptions::default()).unwrap();
        assert_equivalent(&owned, &mapped);
        assert_equivalent(&a, &mapped);
        #[cfg(unix)]
        assert!(report.mapped);
        assert_eq!(owned.provenance(), mapped.provenance());
        std::fs::remove_file(&path).ok();
    }
}
