//! Multi-tenant corpus catalog: the serving metastore.
//!
//! A catalog file declares, for each served corpus, its name, its full
//! [`XCleanConfig`], and the snapshot file(s) backing it — one path for an
//! unsharded corpus, N paths for a shard set (the server decides which
//! engine to build from the shard metadata inside the snapshots). The
//! encoding follows the storage/v2 discipline: magic + whole-payload
//! checksum, minimal LEB128 varints, `f64`s as IEEE bit patterns, explicit
//! `u8` tags for options and enums — so a decode→encode round trip is
//! **byte-stable** and any flipped bit is caught before a config is
//! trusted.
//!
//! Snapshot paths are stored as written (usually relative); resolve them
//! against the catalog file's parent directory with
//! [`CorpusSpec::resolved_snapshots`].

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use xclean_index::slab::checksum64;
use xclean_lm::Smoothing;

use crate::config::{EntityPrior, XCleanConfig};

/// File magic: 7 ASCII bytes + NUL, mirroring the snapshot magics.
pub const CATALOG_MAGIC: &[u8; 8] = b"XCLCAT1\0";

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
    /// non-minimal or overlong varints, bad tags…).
    Corrupt(&'static str),
    /// A corpus name violates the naming rules (charset `[a-z0-9_-]`,
    /// non-empty, at most [`MAX_NAME_LEN`] bytes).
    BadName(String),
    /// Two corpora share a name.
    DuplicateName(String),
    /// A corpus's engine configuration has an out-of-range value.
    BadConfig {
        /// The corpus.
        name: String,
        /// What is out of range ([`XCleanConfig::check`]).
        reason: &'static str,
    },
    /// Reading the file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::BadMagic => write!(f, "not a catalog file (bad magic)"),
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
            CatalogError::BadConfig { name, reason } => write!(f, "corpus {name:?}: {reason}"),
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

/// One served corpus: name, scoring configuration, snapshot paths.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Routing name (`/suggest/<name>`), `[a-z0-9_-]{1,64}`.
    pub name: String,
    /// The full engine configuration for this corpus.
    pub config: XCleanConfig,
    /// Snapshot files backing the corpus: one for an unsharded corpus, N
    /// for a shard set. Stored as written; usually relative to the
    /// catalog file.
    pub snapshots: Vec<String>,
}

impl CorpusSpec {
    /// The snapshot paths resolved against `base` (the catalog file's
    /// parent directory); absolute paths pass through unchanged.
    pub fn resolved_snapshots(&self, base: &Path) -> Vec<PathBuf> {
        self.snapshots
            .iter()
            .map(|s| {
                let p = Path::new(s);
                if p.is_absolute() {
                    p.to_path_buf()
                } else {
                    base.join(p)
                }
            })
            .collect()
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
    /// Validates all names (charset + uniqueness) and every spec's shape
    /// and configuration.
    pub fn validate(&self) -> Result<(), CatalogError> {
        let mut seen = HashSet::new();
        for c in &self.corpora {
            if !valid_corpus_name(&c.name) {
                return Err(CatalogError::BadName(c.name.clone()));
            }
            if !seen.insert(c.name.as_str()) {
                return Err(CatalogError::DuplicateName(c.name.clone()));
            }
            if c.snapshots.is_empty() {
                return Err(CatalogError::Corrupt("corpus declares no snapshots"));
            }
            c.config.check().map_err(|reason| CatalogError::BadConfig {
                name: c.name.clone(),
                reason,
            })?;
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
            encode_config(&mut payload, &c.config);
            put_varint(&mut payload, c.snapshots.len() as u64);
            for s in &c.snapshots {
                put_str(&mut payload, s);
            }
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
        // ≥ 3 bytes per corpus (1-byte name length + 1-byte name + …):
        // hostile counts must never drive allocation.
        let n = r.count(3)?;
        let mut corpora = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let config = decode_config(&mut r)?;
            let paths = r.count(2)?;
            if paths == 0 {
                return Err(CatalogError::Corrupt("corpus declares no snapshots"));
            }
            let mut snapshots = Vec::with_capacity(paths);
            for _ in 0..paths {
                snapshots.push(r.str()?);
            }
            corpora.push(CorpusSpec {
                name,
                config,
                snapshots,
            });
        }
        if r.pos != r.buf.len() {
            return Err(CatalogError::Corrupt("trailing bytes after catalog"));
        }
        let catalog = Catalog { corpora };
        catalog.validate()?;
        Ok(catalog)
    }

    /// Writes the canonical encoding to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CatalogError> {
        std::fs::write(path, self.encode()?)?;
        Ok(())
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

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_opt_varint(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(x) => {
            buf.push(1);
            put_varint(buf, x);
        }
    }
}

/// Canonical [`XCleanConfig`] encoding: every result-relevant field plus
/// the execution knobs, in declaration order.
fn encode_config(buf: &mut Vec<u8>, c: &XCleanConfig) {
    put_varint(buf, c.epsilon as u64);
    put_f64(buf, c.beta);
    put_f64(buf, c.mu);
    put_f64(buf, c.depth_decay);
    put_varint(buf, u64::from(c.min_depth));
    put_opt_varint(buf, c.gamma.map(|g| g as u64));
    put_varint(buf, c.k as u64);
    put_varint(buf, c.max_candidates_per_subtree as u64);
    put_varint(buf, c.partition_threshold as u64);
    buf.push(u8::from(c.enable_skipping));
    buf.push(match c.prior {
        EntityPrior::Uniform => 0,
        EntityPrior::DocLength => 1,
    });
    put_opt_varint(buf, c.phonetic_distance.map(u64::from));
    match c.smoothing {
        None => buf.push(0),
        Some(Smoothing::Dirichlet { mu }) => {
            buf.push(1);
            put_f64(buf, mu);
        }
        Some(Smoothing::JelinekMercer { lambda }) => {
            buf.push(2);
            put_f64(buf, lambda);
        }
    }
    put_varint(buf, c.num_threads as u64);
    put_varint(buf, c.batch_size as u64);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, CatalogError> {
        let &b = self
            .buf
            .get(self.pos)
            .ok_or(CatalogError::Corrupt("unexpected end of catalog"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, CatalogError> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
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

    fn f64(&mut self) -> Result<f64, CatalogError> {
        if self.buf.len() - self.pos < 8 {
            return Err(CatalogError::Corrupt("unexpected end of catalog"));
        }
        let v = f64::from_bits(u64::from_le_bytes(
            self.buf[self.pos..self.pos + 8]
                .try_into()
                .expect("8 bytes"),
        ));
        self.pos += 8;
        if !v.is_finite() {
            return Err(CatalogError::Corrupt("non-finite f64 parameter"));
        }
        Ok(v)
    }

    fn str(&mut self) -> Result<String, CatalogError> {
        let len = self.count(1)?;
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(s.to_vec()).map_err(|_| CatalogError::Corrupt("non-UTF-8 string"))
    }

    fn opt_varint(&mut self) -> Result<Option<u64>, CatalogError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.varint()?)),
            _ => Err(CatalogError::Corrupt("bad option tag")),
        }
    }
}

fn decode_config(r: &mut Reader<'_>) -> Result<XCleanConfig, CatalogError> {
    let to_usize =
        |v: u64| usize::try_from(v).map_err(|_| CatalogError::Corrupt("value overflows usize"));
    let epsilon = to_usize(r.varint()?)?;
    let beta = r.f64()?;
    let mu = r.f64()?;
    let depth_decay = r.f64()?;
    let min_depth =
        u32::try_from(r.varint()?).map_err(|_| CatalogError::Corrupt("min_depth overflows u32"))?;
    let gamma = r.opt_varint()?.map(to_usize).transpose()?;
    let k = to_usize(r.varint()?)?;
    let max_candidates_per_subtree = to_usize(r.varint()?)?;
    let partition_threshold = to_usize(r.varint()?)?;
    let enable_skipping = match r.u8()? {
        0 => false,
        1 => true,
        _ => Err(CatalogError::Corrupt("bad bool tag"))?,
    };
    let prior = match r.u8()? {
        0 => EntityPrior::Uniform,
        1 => EntityPrior::DocLength,
        _ => Err(CatalogError::Corrupt("bad prior tag"))?,
    };
    let phonetic_distance = r
        .opt_varint()?
        .map(|v| u32::try_from(v).map_err(|_| CatalogError::Corrupt("distance overflows u32")))
        .transpose()?;
    let smoothing = match r.u8()? {
        0 => None,
        1 => Some(Smoothing::Dirichlet { mu: r.f64()? }),
        2 => Some(Smoothing::JelinekMercer { lambda: r.f64()? }),
        _ => Err(CatalogError::Corrupt("bad smoothing tag"))?,
    };
    let num_threads = to_usize(r.varint()?)?;
    let batch_size = to_usize(r.varint()?)?;
    Ok(XCleanConfig {
        epsilon,
        beta,
        mu,
        depth_decay,
        min_depth,
        gamma,
        k,
        max_candidates_per_subtree,
        partition_threshold,
        enable_skipping,
        prior,
        phonetic_distance,
        smoothing,
        num_threads,
        batch_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        Catalog {
            corpora: vec![
                CorpusSpec {
                    name: "dblp".into(),
                    config: XCleanConfig {
                        epsilon: 2,
                        gamma: None,
                        smoothing: Some(Smoothing::JelinekMercer { lambda: 0.3 }),
                        ..Default::default()
                    },
                    snapshots: vec!["dblp.xci".into()],
                },
                CorpusSpec {
                    name: "inex-09".into(),
                    config: XCleanConfig {
                        phonetic_distance: Some(2),
                        prior: EntityPrior::DocLength,
                        num_threads: 4,
                        ..Default::default()
                    },
                    snapshots: vec![
                        "shards/inex-0.xci".into(),
                        "shards/inex-1.xci".into(),
                        "/abs/inex-2.xci".into(),
                    ],
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
    fn config_fields_survive_roundtrip() {
        let c = sample();
        let back = Catalog::decode(&c.encode().unwrap()).unwrap();
        let cfg = &back.corpora[0].config;
        assert_eq!(cfg.epsilon, 2);
        assert_eq!(cfg.gamma, None);
        assert!(matches!(
            cfg.smoothing,
            Some(Smoothing::JelinekMercer { lambda }) if lambda == 0.3
        ));
        // Fingerprints agree — the decoded config is result-equivalent.
        assert_eq!(cfg.fingerprint(), c.corpora[0].config.fingerprint());
    }

    #[test]
    fn resolves_paths_against_catalog_dir() {
        let c = sample();
        let base = Path::new("/srv/catalogs");
        let resolved = c.corpora[1].resolved_snapshots(base);
        assert_eq!(resolved[0], Path::new("/srv/catalogs/shards/inex-0.xci"));
        assert_eq!(
            resolved[2],
            Path::new("/abs/inex-2.xci"),
            "absolute passes through"
        );
    }

    #[test]
    fn rejects_bad_and_duplicate_names() {
        for bad in ["", "Capitals", "has space", "ünicode", &"x".repeat(65)] {
            let c = Catalog {
                corpora: vec![CorpusSpec {
                    name: bad.into(),
                    config: XCleanConfig::default(),
                    snapshots: vec!["a.xci".into()],
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
        c.corpora[0].snapshots.clear();
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

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A tiny payload declaring u64::MAX corpora.
        let mut payload = Vec::new();
        put_varint(&mut payload, u64::MAX);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CATALOG_MAGIC);
        bytes.extend_from_slice(&checksum64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Catalog::decode(&bytes),
            Err(CatalogError::Corrupt("declared count exceeds input"))
        ));
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
