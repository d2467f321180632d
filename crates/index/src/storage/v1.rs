//! Legacy v1 snapshot format (`XCLIDX1\0`), read-only: nothing writes it
//! any more, but deployed snapshots keep loading and `xclean index
//! upgrade` rewrites them as v2.
//!
//! Layout (all integers LEB128 varints):
//!
//! ```text
//! magic "XCLIDX1\0"
//! TREE    : label table (count, strings); node records in preorder
//!           (depth, label id, optional text)
//! VOCAB   : count; per token: term, cf, df
//! POSTINGS: per token: length-prefixed posting-list codec blob
//! TOKENIZER: min_token_len, drop_numbers, drop_stop_words
//! ```
//!
//! The tree is stored as a builder *replay* (depth deltas drive
//! `open`/`close`), so loading reuses the ordinary construction path and
//! every structural invariant is re-established rather than trusted. The
//! price is that load cost is O(corpus); the v2 format ([`super::v2`])
//! exists to avoid exactly that.

use xclean_xmltree::{Tokenizer, TokenizerConfig, TreeBuilder, XmlTree};

use crate::codec::{self, get_count, SliceReader};
use crate::corpus::CorpusIndex;
use crate::posting::PostingList;
use crate::vocab::Vocabulary;

use super::{SectionInfo, SnapshotSummary, StorageError};

pub(crate) const MAGIC: &[u8; 8] = b"XCLIDX1\0";

/// Positions a reader just past the magic.
fn open(bytes: &[u8]) -> Result<SliceReader<'_>, StorageError> {
    if !bytes.starts_with(MAGIC) {
        return Err(StorageError::BadMagic);
    }
    Ok(SliceReader::new(&bytes[MAGIC.len()..]))
}

/// Borrows a length-prefixed byte string; the declared length is clamped
/// against the remaining input.
fn get_blob<'a>(r: &mut SliceReader<'a>) -> Result<&'a [u8], StorageError> {
    let len = get_count(r, 1)?;
    Ok(r.take(len)?)
}

fn get_str(r: &mut SliceReader<'_>) -> Result<String, StorageError> {
    let bytes = get_blob(r)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| StorageError::Corrupt("non-utf8 string"))
}

fn get_tokenizer(r: &mut SliceReader<'_>) -> Result<TokenizerConfig, StorageError> {
    Ok(TokenizerConfig {
        min_token_len: r.get_varint()? as usize,
        drop_numbers: r.get_u8()? == 1,
        drop_stop_words: r.get_u8()? == 1,
    })
}

/// Restores a corpus index from v1 bytes.
pub fn from_bytes(bytes: &[u8]) -> Result<CorpusIndex, StorageError> {
    let mut r = open(bytes)?;

    // TREE.
    let label_count = get_count(&mut r, 1)?;
    let mut label_names = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        label_names.push(get_str(&mut r)?);
    }
    let node_count = get_count(&mut r, 3)?;
    if node_count == 0 {
        return Err(StorageError::Corrupt("empty tree"));
    }
    let mut builder: Option<TreeBuilder> = None;
    let mut prev_depth = 0u64;
    for i in 0..node_count {
        let depth = r.get_varint()?;
        let label = r.get_varint()? as usize;
        let name = label_names
            .get(label)
            .ok_or(StorageError::Corrupt("label id out of range"))?;
        let text = if r.get_u8()? == 1 {
            Some(get_str(&mut r)?)
        } else {
            None
        };
        if i == 0 {
            if depth != 1 {
                return Err(StorageError::Corrupt("root must have depth 1"));
            }
            let mut b = TreeBuilder::new(name);
            if let Some(t) = &text {
                b.text(t);
            }
            builder = Some(b);
        } else {
            let b = builder.as_mut().expect("builder initialised");
            if depth < 2 || depth > prev_depth + 1 {
                return Err(StorageError::Corrupt("invalid depth sequence"));
            }
            // Close back up to the parent depth, then open.
            for _ in 0..(prev_depth + 1 - depth) {
                b.close();
            }
            b.open(name);
            if let Some(t) = &text {
                b.text(t);
            }
        }
        prev_depth = depth;
    }
    let tree: XmlTree = builder.expect("at least the root").finish();

    // VOCAB.
    let vocab_count = get_count(&mut r, 3)?;
    let mut terms = Vec::with_capacity(vocab_count);
    let mut cf = Vec::with_capacity(vocab_count);
    let mut df = Vec::with_capacity(vocab_count);
    for _ in 0..vocab_count {
        terms.push(get_str(&mut r)?);
        cf.push(r.get_varint()?);
        df.push(r.get_varint()?);
    }
    let vocab = Vocabulary::from_parts(terms, cf, df);

    // POSTINGS.
    let mut lists: Vec<PostingList> = Vec::with_capacity(vocab_count);
    for _ in 0..vocab_count {
        let list = codec::decode(get_blob(&mut r)?)?;
        // v1 carries no checksum: a damaged posting must not index past
        // the tree when the derived tables are rebuilt.
        if list
            .iter()
            .any(|p| p.node.index() >= tree.len() || p.path != tree.path(p.node))
        {
            return Err(StorageError::Corrupt("posting disagrees with the tree"));
        }
        lists.push(list);
    }

    let tokenizer = Tokenizer::new(get_tokenizer(&mut r)?);
    Ok(CorpusIndex::from_parts(tree, vocab, lists, tokenizer))
}

/// Walks a v1 snapshot's framing without materialising the index.
pub(crate) fn summarize(bytes: &[u8]) -> Result<SnapshotSummary, StorageError> {
    let mut r = open(bytes)?;
    // Section boundaries as absolute file offsets.
    let at = |r: &SliceReader<'_>| MAGIC.len() + r.pos();
    let tree_start = at(&r);
    let labels = get_count(&mut r, 1)?;
    for _ in 0..labels {
        get_blob(&mut r)?;
    }
    let nodes = get_count(&mut r, 3)?;
    for _ in 0..nodes {
        r.get_varint()?; // depth
        r.get_varint()?; // label id
        if r.get_u8()? == 1 {
            get_blob(&mut r)?;
        }
    }
    let vocab_start = at(&r);
    let terms = get_count(&mut r, 3)?;
    let mut total_tokens = 0u64;
    for _ in 0..terms {
        get_blob(&mut r)?;
        total_tokens = total_tokens.saturating_add(r.get_varint()?); // cf
        r.get_varint()?; // df
    }
    let postings_start = at(&r);
    let mut postings_bytes = 0usize;
    for _ in 0..terms {
        postings_bytes += get_blob(&mut r)?.len();
    }
    let tokenizer_start = at(&r);
    let tokenizer = get_tokenizer(&mut r)?;
    let end = at(&r);
    let sections = vec![
        SectionInfo {
            name: "TREE",
            bytes: (vocab_start - tree_start) as u64,
        },
        SectionInfo {
            name: "VOCAB",
            bytes: (postings_start - vocab_start) as u64,
        },
        SectionInfo {
            name: "POSTINGS",
            bytes: (tokenizer_start - postings_start) as u64,
        },
        SectionInfo {
            name: "TOKENIZER",
            bytes: (end - tokenizer_start) as u64,
        },
    ];
    Ok(SnapshotSummary {
        format_version: 1,
        total_bytes: bytes.len(),
        labels,
        nodes,
        terms,
        total_tokens,
        postings_bytes,
        tokenizer,
        checksum: None,
        sections,
        shard: None,
    })
}
