//! Multi-tenant corpus catalog: the serving metastore.
//!
//! A catalog file declares, for each served corpus, its name and the one
//! snapshot file backing it (`xclean index build … --catalog` writes the
//! entries). A server opens each entry with [`crate::XCleanEngine::open`]
//! over its resolved path; every corpus of a server runs with the one
//! configuration the server was started with. The encoding follows the
//! storage/v2 discipline: magic + whole-payload checksum and minimal
//! LEB128 varints, so a decode→encode round trip is **byte-stable** and
//! any flipped bit is caught before a path is trusted.
//!
//! Snapshot paths are stored as written (usually relative); resolve them
//! against the catalog file's parent directory with
//! [`CorpusSpec::resolved_snapshot`].

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use xclean_index::slab::checksum64;
use xclean_index::storage;

/// File magic: 7 ASCII bytes + NUL, mirroring the snapshot magics.
/// Earlier builds wrote `XCLCAT1\0` (entries with an engine configuration)
/// and `XCLCAT2\0` (entries with a list of shard snapshots); such a file
/// is a [`CatalogError::BadMagic`].
pub const CATALOG_MAGIC: &[u8; 8] = b"XCLCAT3\0";

/// Longest permitted corpus name.
pub const MAX_NAME_LEN: usize = 64;

/// Why a catalog failed to decode or validate.
#[derive(Debug)]
pub enum CatalogError {
    /// The file does not start with [`CATALOG_MAGIC`].
    BadMagic,
    /// The payload checksum does not match the stored one.
    Checksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// The payload is structurally invalid (truncated, hostile counts,
    /// non-minimal or overlong varints…).
    Corrupt(&'static str),
    /// A corpus name violates the naming rules (charset `[a-z0-9_-]`,
    /// non-empty, at most [`MAX_NAME_LEN`] bytes).
    BadName(String),
    /// Two corpora share a name.
    DuplicateName(String),
    /// Reading the file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::BadMagic => write!(
                f,
                "not an xclean catalog of the current format (XCLCAT3); an earlier \
                 build's catalog is not read: re-register its corpora in a new catalog \
                 file with `xclean index build <data.xml> --out <index.xci> \
                 --catalog <catalog.xcc> --name <corpus>`"
            ),
            CatalogError::Checksum { stored, actual } => write!(
                f,
                "catalog checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ),
            CatalogError::Corrupt(m) => write!(f, "corrupt catalog: {m}"),
            CatalogError::BadName(n) => write!(
                f,
                "invalid corpus name {n:?}: need 1..={MAX_NAME_LEN} chars from [a-z0-9_-]"
            ),
            CatalogError::DuplicateName(n) => write!(f, "duplicate corpus name {n:?}"),
            CatalogError::Io(e) => write!(f, "catalog io error: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

/// One served corpus: its name and its snapshot path.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Routing name (`/suggest/<name>`), `[a-z0-9_-]{1,64}`.
    pub name: String,
    /// The snapshot file backing the corpus, stored as written; usually
    /// relative to the catalog file.
    pub snapshot: String,
}

impl CorpusSpec {
    /// The snapshot path resolved against `base` (the catalog file's
    /// parent directory); an absolute path passes through unchanged.
    pub fn resolved_snapshot(&self, base: &Path) -> PathBuf {
        base.join(&self.snapshot)
    }
}

/// A validated corpus catalog.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Catalog {
    /// The served corpora, in declaration order.
    pub corpora: Vec<CorpusSpec>,
}

/// `true` iff `name` satisfies the corpus naming rules.
pub fn valid_corpus_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

impl Catalog {
    /// Validates all names (charset + uniqueness) and that every corpus
    /// names a snapshot.
    pub fn validate(&self) -> Result<(), CatalogError> {
        let mut seen = HashSet::new();
        for c in &self.corpora {
            if !valid_corpus_name(&c.name) {
                return Err(CatalogError::BadName(c.name.clone()));
            }
            if !seen.insert(c.name.as_str()) {
                return Err(CatalogError::DuplicateName(c.name.clone()));
            }
            if c.snapshot.is_empty() {
                return Err(CatalogError::Corrupt("corpus names no snapshot"));
            }
        }
        Ok(())
    }

    /// Canonical byte encoding (validating first): magic, payload
    /// checksum, payload. Encoding the decode of any valid file
    /// reproduces it byte for byte.
    pub fn encode(&self) -> Result<Vec<u8>, CatalogError> {
        self.validate()?;
        let mut payload = Vec::new();
        put_varint(&mut payload, self.corpora.len() as u64);
        for c in &self.corpora {
            put_str(&mut payload, &c.name);
            put_str(&mut payload, &c.snapshot);
        }
        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(CATALOG_MAGIC);
        out.extend_from_slice(&checksum64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Decodes and validates a catalog image.
    pub fn decode(bytes: &[u8]) -> Result<Catalog, CatalogError> {
        if bytes.len() < CATALOG_MAGIC.len() + 8 || &bytes[..8] != CATALOG_MAGIC {
            return Err(CatalogError::BadMagic);
        }
        let stored = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let payload = &bytes[16..];
        let actual = checksum64(payload);
        if stored != actual {
            return Err(CatalogError::Checksum { stored, actual });
        }
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        // ≥ 4 bytes per corpus (two length-prefixed, non-empty strings):
        // hostile counts must never drive allocation.
        let n = r.count(4)?;
        let mut corpora = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let snapshot = r.str()?;
            corpora.push(CorpusSpec { name, snapshot });
        }
        if r.pos != r.buf.len() {
            return Err(CatalogError::Corrupt("trailing bytes after catalog"));
        }
        let catalog = Catalog { corpora };
        catalog.validate()?;
        Ok(catalog)
    }

    /// Writes the canonical encoding to `path`, replacing the file
    /// ([`storage::replace_file`]): a reader holding the old catalog open
    /// keeps its bytes. A symlinked `path` is written through, and the new
    /// file keeps the old one's permissions.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CatalogError> {
        Ok(storage::replace_file(path, &self.encode()?)?)
    }

    /// Reads and decodes the catalog at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Catalog, CatalogError> {
        Self::decode(&std::fs::read(path)?)
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn varint(&mut self) -> Result<u64, CatalogError> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let &byte = self
                .buf
                .get(self.pos)
                .ok_or(CatalogError::Corrupt("unexpected end of catalog"))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(CatalogError::Corrupt("varint overflow"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                // Reject non-minimal encodings so re-encoding is
                // byte-stable for every accepted input.
                if byte == 0 && shift != 0 {
                    return Err(CatalogError::Corrupt("non-minimal varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A record count clamped against the remaining bytes, at
    /// `min_record_bytes` each — hostile counts never drive allocation.
    fn count(&mut self, min_record_bytes: usize) -> Result<usize, CatalogError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| CatalogError::Corrupt("count overflows usize"))?;
        if n.saturating_mul(min_record_bytes.max(1)) > self.buf.len() - self.pos {
            return Err(CatalogError::Corrupt("declared count exceeds input"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CatalogError> {
        let len = self.count(1)?;
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(s.to_vec()).map_err(|_| CatalogError::Corrupt("non-UTF-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        Catalog {
            corpora: vec![
                CorpusSpec {
                    name: "dblp".into(),
                    snapshot: "snapshots/dblp.xci".into(),
                },
                CorpusSpec {
                    name: "inex-09".into(),
                    snapshot: "/abs/inex-09.xci".into(),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_byte_stable() {
        let c = sample();
        let bytes = c.encode().unwrap();
        let back = Catalog::decode(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(
            back.encode().unwrap(),
            bytes,
            "re-encode must be byte-identical"
        );
    }

    #[test]
    fn resolves_paths_against_catalog_dir() {
        let c = sample();
        let base = Path::new("/srv/catalogs");
        assert_eq!(
            c.corpora[0].resolved_snapshot(base),
            Path::new("/srv/catalogs/snapshots/dblp.xci")
        );
        assert_eq!(
            c.corpora[1].resolved_snapshot(base),
            Path::new("/abs/inex-09.xci"),
            "absolute passes through"
        );
    }

    #[test]
    fn rejects_bad_and_duplicate_names() {
        for bad in ["", "Capitals", "has space", "ünicode", &"x".repeat(65)] {
            let c = Catalog {
                corpora: vec![CorpusSpec {
                    name: bad.into(),
                    snapshot: "a.xci".into(),
                }],
            };
            assert!(
                matches!(c.encode(), Err(CatalogError::BadName(_))),
                "{bad:?} must be rejected"
            );
        }
        let mut c = sample();
        c.corpora[1].name = "dblp".into();
        assert!(matches!(c.encode(), Err(CatalogError::DuplicateName(_))));
    }

    #[test]
    fn rejects_empty_snapshot_list() {
        let mut c = sample();
        c.corpora[0].snapshot.clear();
        assert!(matches!(c.encode(), Err(CatalogError::Corrupt(_))));
    }

    #[test]
    fn bad_magic_and_checksum_are_caught() {
        let bytes = sample().encode().unwrap();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            Catalog::decode(&wrong_magic),
            Err(CatalogError::BadMagic)
        ));
        // Any single payload bit flip must be caught by the checksum.
        for pos in [16usize, 20, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x04;
            assert!(
                matches!(
                    Catalog::decode(&flipped),
                    Err(CatalogError::Checksum { .. })
                ),
                "flip at {pos} must fail the checksum"
            );
        }
    }

    #[test]
    fn truncations_never_panic() {
        let bytes = sample().encode().unwrap();
        for cut in 0..bytes.len() {
            // Whatever the cut point, decode must return an error — not
            // panic, not succeed.
            assert!(Catalog::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A catalog image around `payload`.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CATALOG_MAGIC);
        bytes.extend_from_slice(&checksum64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A tiny payload declaring u64::MAX corpora.
        let mut payload = Vec::new();
        put_varint(&mut payload, u64::MAX);
        assert!(matches!(
            Catalog::decode(&framed(&payload)),
            Err(CatalogError::Corrupt("declared count exceeds input"))
        ));
    }

    /// The XCLCAT3 encoding of `sample()`.
    const PINNED_CHECKSUM: u64 = 0xde22_eb4f_ab9a_69f0;
    const PINNED_BYTES: usize = 66;

    #[test]
    fn encoding_is_pinned() {
        let bytes = sample().encode().unwrap();
        assert_eq!(&bytes[..8], b"XCLCAT3\0");
        assert_eq!(
            (checksum64(&bytes), bytes.len()),
            (PINNED_CHECKSUM, PINNED_BYTES)
        );
    }

    /// The bytes an earlier build wrote for `sample()` when every entry
    /// also carried an engine configuration (`XCLCAT1`, committed as
    /// `tests/fixtures/catalog_xclcat1.xcc`) are refused, and the message
    /// says how to get a catalog this build reads.
    #[test]
    fn earlier_xclcat1_bytes_are_refused_with_a_re_register_hint() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/catalog_xclcat1.xcc");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            (checksum64(&bytes), bytes.len()),
            (0x8040_f7ba_7b5f_40f2, 178),
            "the fixture is what the earlier build wrote"
        );
        let err = Catalog::load(&path).unwrap_err();
        assert!(matches!(err, CatalogError::BadMagic), "{err:?}");
        assert!(err.to_string().contains("re-register"), "{err}");
        assert!(err.to_string().contains("--catalog"), "{err}");
    }

    /// The catalog an earlier build's `xclean index shard … --catalog`
    /// wrote (`XCLCAT2`, entries with a list of shard snapshots,
    /// committed as `tests/fixtures/catalog_xclcat2.xcc`) is refused the
    /// same way.
    #[test]
    fn earlier_xclcat2_bytes_are_refused_with_a_re_register_hint() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/catalog_xclcat2.xcc");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], b"XCLCAT2\0");
        assert_eq!(
            (checksum64(&bytes), bytes.len()),
            (0x14df_38e3_758d_4c1e, 92),
            "the fixture is what the earlier build wrote"
        );
        let err = Catalog::load(&path).unwrap_err();
        assert!(matches!(err, CatalogError::BadMagic), "{err:?}");
        assert!(err.to_string().contains("xclean index build"), "{err}");
    }

    #[test]
    fn save_replaces_the_file_under_an_open_reader() {
        use std::io::Read;
        let dir =
            std::env::temp_dir().join(format!("xclean-catalog-replace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("catalog.xcc");
        let a = sample();
        a.save(&p).unwrap();
        let mut held = std::fs::File::open(&p).unwrap();
        let b = Catalog {
            corpora: vec![sample().corpora[1].clone()],
        };
        b.save(&p).unwrap();
        let mut read = Vec::new();
        held.read_to_end(&mut read).unwrap();
        assert_eq!(
            read,
            a.encode().unwrap(),
            "the open catalog changed under its reader"
        );
        assert_eq!(Catalog::load(&p).unwrap(), b);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            names,
            ["catalog.xcc"],
            "a temporary file was left beside the target"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn save_writes_through_a_symlink_and_keeps_the_mode() {
        use std::os::unix::fs::PermissionsExt;
        let dir =
            std::env::temp_dir().join(format!("xclean-catalog-symlink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("catalog.xcc");
        let link = dir.join("current.xcc");
        sample().save(&target).unwrap();
        std::fs::set_permissions(&target, std::fs::Permissions::from_mode(0o640)).unwrap();
        std::os::unix::fs::symlink(&target, &link).unwrap();
        let b = Catalog {
            corpora: vec![sample().corpora[1].clone()],
        };
        b.save(&link).unwrap();
        assert!(std::fs::symlink_metadata(&link)
            .unwrap()
            .file_type()
            .is_symlink());
        assert_eq!(Catalog::load(&target).unwrap(), b);
        let mode = std::fs::metadata(&target).unwrap().permissions().mode();
        assert_eq!(mode & 0o777, 0o640);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("xclean-catalog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("catalog.xcc");
        let c = sample();
        c.save(&p).unwrap();
        assert_eq!(Catalog::load(&p).unwrap(), c);
        std::fs::remove_dir_all(&dir).ok();
    }
}
