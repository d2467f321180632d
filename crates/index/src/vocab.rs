//! The vocabulary: interned tokens with collection statistics, viewed over
//! a v2 snapshot's VOCAB section.
//!
//! There is one form. A `u32` offset table indexes a concatenated UTF-8
//! term blob, and a term-sorted permutation of the ids replaces a hash map
//! for lookups (a binary search). The bytes are the section the index
//! builder writes (`encode`) or a snapshot holds; a view allocates
//! nothing per term, and only `cf`/`df` are decoded into columns.

use std::ops::Range;
use std::sync::Arc;

use crate::codec::{get_count, put_varint, SliceReader};
use crate::slab::IndexSlab;
use crate::storage::StorageError;

/// Interned token id. Ids are dense and start at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The token id as a `usize` table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Writes a VOCAB section body for `terms` (in id order, distinct):
/// `count; (count+1) u32 LE offsets; term blob; cf varints; df varints;
/// count u32 LE ids sorted by term bytes`.
pub(crate) fn encode<S: AsRef<str>>(terms: &[S], cf: &[u64], df: &[u64], out: &mut Vec<u8>) {
    let count = terms.len();
    put_varint(out, count as u64);
    let mut off = 0u32;
    out.extend_from_slice(&off.to_le_bytes());
    for term in terms {
        off = off
            .checked_add(u32::try_from(term.as_ref().len()).expect("term too long"))
            .expect("term blob exceeds 4 GiB");
        out.extend_from_slice(&off.to_le_bytes());
    }
    for term in terms {
        out.extend_from_slice(term.as_ref().as_bytes());
    }
    for &c in cf {
        put_varint(out, c);
    }
    for &d in df {
        put_varint(out, d);
    }
    let mut sorted: Vec<u32> = (0..count as u32).collect();
    sorted.sort_unstable_by(|&a, &b| {
        terms[a as usize]
            .as_ref()
            .as_bytes()
            .cmp(terms[b as usize].as_ref().as_bytes())
    });
    for id in &sorted {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

/// Where the parts of a VOCAB section lie, with its statistics decoded.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// `(count + 1)` little-endian `u32` byte offsets into `blob`.
    offsets: Range<usize>,
    /// Concatenated UTF-8 term bytes.
    blob: Range<usize>,
    /// `count` little-endian `u32` token ids sorted by term bytes.
    sorted: Range<usize>,
    /// Collection frequency: total occurrences of the token.
    cf: Vec<u64>,
    /// Element-document frequency: number of nodes whose *direct* text
    /// contains the token (PY08's `df`).
    df: Vec<u64>,
    /// `Σ cf`, saturating (a hostile section must not overflow it).
    pub(crate) total_tokens: u64,
}

impl Layout {
    /// Number of terms.
    pub(crate) fn len(&self) -> usize {
        self.cf.len()
    }
}

/// Parses the framing of the VOCAB section at `section` of `bytes`: every
/// declared size is clamped against the section before it drives an
/// allocation, and the section must be consumed exactly. The terms
/// themselves are checked by [`Vocabulary::view`].
pub(crate) fn layout(bytes: &[u8], section: Range<usize>) -> Result<Layout, StorageError> {
    let mut r = SliceReader::new(&bytes[section.clone()]);
    let count = get_count(&mut r, 10)?;
    let table_bytes = (count + 1)
        .checked_mul(4)
        .ok_or(StorageError::Corrupt("vocab offset table overflows"))?;
    let off_start = section.start + r.pos();
    r.skip(table_bytes)
        .map_err(|_| StorageError::Corrupt("vocab offset table truncated"))?;
    let blob_len = read_u32(bytes, off_start + table_bytes - 4) as usize;
    let blob_start = section.start + r.pos();
    r.skip(blob_len)
        .map_err(|_| StorageError::Corrupt("vocab term blob truncated"))?;
    let mut cf = Vec::with_capacity(count);
    for _ in 0..count {
        cf.push(r.get_varint()?);
    }
    let mut df = Vec::with_capacity(count);
    for _ in 0..count {
        df.push(r.get_varint()?);
    }
    let sorted_start = section.start + r.pos();
    r.skip(count * 4)
        .map_err(|_| StorageError::Corrupt("vocab permutation truncated"))?;
    if r.remaining() != 0 {
        return Err(StorageError::Corrupt("trailing bytes in VOCAB section"));
    }
    let total_tokens = cf.iter().fold(0u64, |sum, &c| sum.saturating_add(c));
    Ok(Layout {
        offsets: off_start..off_start + table_bytes,
        blob: blob_start..blob_start + blob_len,
        sorted: sorted_start..sorted_start + count * 4,
        cf,
        df,
        total_tokens,
    })
}

/// All distinct tokens of the corpus (§III: "these tokens collectively form
/// the vocabulary V"), with per-token collection statistics.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    slab: Arc<IndexSlab>,
    /// Where the VOCAB section's parts lie in `slab`, and its statistics.
    layout: Layout,
}

impl Vocabulary {
    /// A vocabulary over `terms` (in id order, distinct) with their
    /// collection and element-document frequencies: writes the VOCAB
    /// section the index builder would and views it. Errors when the
    /// terms repeat or the statistics are not parallel to them.
    pub fn encoded<S: AsRef<str>>(
        terms: &[S],
        cf: &[u64],
        df: &[u64],
    ) -> Result<Vocabulary, StorageError> {
        if cf.len() != terms.len() || df.len() != terms.len() {
            return Err(StorageError::Corrupt(
                "vocab statistics arrays have wrong size",
            ));
        }
        let mut bytes = Vec::new();
        encode(terms, cf, df, &mut bytes);
        let len = bytes.len();
        Vocabulary::view(Arc::new(IndexSlab::Owned(bytes)), 0..len)
    }

    /// Views the VOCAB section at `section` of `slab`.
    ///
    /// Validates, in one `O(|V| + blob)` pass that allocates nothing per
    /// term, that the offset table is monotonic and ends at the blob
    /// length, every term is valid UTF-8, and the permutation lists the
    /// ids in strictly increasing term-byte order (which is what the
    /// binary-search lookup relies on).
    pub(crate) fn view(
        slab: Arc<IndexSlab>,
        section: Range<usize>,
    ) -> Result<Vocabulary, StorageError> {
        let vocab = Vocabulary {
            layout: layout(slab.bytes(), section)?,
            slab,
        };
        vocab.validate().map_err(StorageError::Corrupt)?;
        Ok(vocab)
    }

    fn validate(&self) -> Result<(), &'static str> {
        let (bytes, count) = (self.slab.bytes(), self.len());
        let mut prev = 0u32;
        for i in 0..=count {
            let off = read_u32(bytes, self.layout.offsets.start + 4 * i);
            if off < prev {
                return Err("vocab offsets not monotonic");
            }
            prev = off;
        }
        if prev as usize != self.layout.blob.len() {
            return Err("vocab offsets do not cover term blob");
        }
        for i in 0..count {
            if std::str::from_utf8(self.term_bytes(i)).is_err() {
                return Err("vocab term is not valid UTF-8");
            }
        }
        let mut prev_term: Option<&[u8]> = None;
        for k in 0..count {
            let id = read_u32(bytes, self.layout.sorted.start + 4 * k) as usize;
            if id >= count {
                return Err("vocab permutation id out of range");
            }
            let term = self.term_bytes(id);
            if prev_term.is_some_and(|p| p >= term) {
                return Err("vocab permutation not strictly sorted");
            }
            prev_term = Some(term);
        }
        Ok(())
    }

    fn term_bytes(&self, i: usize) -> &[u8] {
        let bytes = self.slab.bytes();
        let start = read_u32(bytes, self.layout.offsets.start + 4 * i) as usize;
        let end = read_u32(bytes, self.layout.offsets.start + 4 * (i + 1)) as usize;
        &bytes[self.layout.blob.start + start..self.layout.blob.start + end]
    }

    /// Looks up an existing token.
    pub fn get(&self, term: &str) -> Option<TokenId> {
        let bytes = self.slab.bytes();
        let needle = term.as_bytes();
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let id = read_u32(bytes, self.layout.sorted.start + 4 * mid) as usize;
            match self.term_bytes(id).cmp(needle) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(TokenId(id as u32)),
            }
        }
        None
    }

    /// The token's surface form.
    pub fn term(&self, id: TokenId) -> &str {
        // UTF-8 was validated once at view time; an invalid term here
        // would be a bug, not bad input, so degrade to "".
        std::str::from_utf8(self.term_bytes(id.index())).unwrap_or("")
    }

    /// Collection frequency (total occurrences).
    pub fn cf(&self, id: TokenId) -> u64 {
        self.layout.cf[id.index()]
    }

    /// Element-document frequency (distinct nodes containing the token
    /// directly).
    pub fn df(&self, id: TokenId) -> u64 {
        self.layout.df[id.index()]
    }

    /// Total token occurrences in the collection (`Σ cf`).
    pub fn total_tokens(&self) -> u64 {
        self.layout.total_tokens
    }

    /// Number of distinct tokens `|V|`.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// `true` when no tokens are interned.
    pub fn is_empty(&self) -> bool {
        self.layout.len() == 0
    }

    /// All terms in id order.
    pub fn iter_terms(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len() as u32).map(move |i| self.term(TokenId(i)))
    }

    /// Background-model probability `P(w|B) = cf(w) / total` (§IV-B2).
    pub fn background_prob(&self, id: TokenId) -> f64 {
        if self.layout.total_tokens == 0 {
            0.0
        } else {
            self.cf(id) as f64 / self.layout.total_tokens as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusIndex;
    use xclean_xmltree::parse_document;

    #[test]
    fn observe_accumulates() {
        // `tree` occurs 2 + 3 times in two elements, `icde` once.
        let xml = "<r><a>tree tree</a><b>icde</b><c>tree tree tree</c></r>";
        let c = CorpusIndex::build(parse_document(xml).unwrap());
        let v = c.vocab();
        let (a, b) = (v.get("tree").unwrap(), v.get("icde").unwrap());
        assert_ne!(a, b);
        assert_eq!(v.cf(a), 5);
        assert_eq!(v.df(a), 2);
        assert_eq!(v.cf(b), 1);
        assert_eq!(v.total_tokens(), 6);
        assert_eq!(v.len(), 2);
        assert_eq!(v.term(a), "tree");
        assert_eq!(v.get("nope"), None);
    }

    #[test]
    fn background_probabilities_sum_to_one() {
        let v = Vocabulary::encoded(&["a", "b", "c"], &[1, 3, 6], &[1, 1, 1]).unwrap();
        let sum: f64 = (0..v.len() as u32)
            .map(|i| v.background_prob(TokenId(i)))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_vocab_background_is_zero() {
        let v = Vocabulary::encoded(&["x"], &[0], &[0]).unwrap();
        assert_eq!(v.background_prob(TokenId(0)), 0.0);
    }

    #[test]
    fn lookup_finds_every_term_and_no_other() {
        let terms = ["tree", "icde", "xml", "query", "a", "zz"];
        let v = Vocabulary::encoded(&terms, &[1; 6], &[1; 6]).unwrap();
        assert_eq!(v.len(), terms.len());
        for (i, t) in terms.iter().enumerate() {
            assert_eq!(v.term(TokenId(i as u32)), *t);
            assert_eq!(v.get(t), Some(TokenId(i as u32)));
        }
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get(""), None);
        let collected: Vec<&str> = v.iter_terms().collect();
        assert_eq!(collected, terms);
    }

    #[test]
    fn slab_rejects_bad_permutation() {
        // A VOCAB section for ["b", "a"] whose permutation is the identity
        // order — "b" then "a", not sorted.
        let mut bytes = vec![2u8];
        for o in [0u32, 1, 2] {
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        bytes.extend_from_slice(b"ba");
        bytes.extend_from_slice(&[1, 1, 1, 1]); // cf, df
        for id in [0u32, 1] {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
        let len = bytes.len();
        let r = Vocabulary::view(Arc::new(IndexSlab::Owned(bytes)), 0..len);
        assert!(r.unwrap_err().to_string().contains("not strictly sorted"));
        // Repeated terms cannot be sorted strictly either.
        assert!(Vocabulary::encoded(&["a", "a"], &[1, 1], &[1, 1]).is_err());
    }
}
