//! Legacy v1 snapshot format (`XCLIDX1\0`), read-only: nothing writes it
//! any more, but deployed snapshots keep loading and `xclean index
//! upgrade` rewrites them as v2. Its posting blobs are also the layout of
//! a v2 file's legacy POSTINGS_DEWEY section, so `decode_postings`
//! reads both.
//!
//! Layout (all integers LEB128 varints):
//!
//! ```text
//! magic "XCLIDX1\0"
//! TREE    : label table (count, strings); node records in preorder
//!           (depth, label id, optional text)
//! VOCAB   : count; per token: term, cf, df
//! POSTINGS: per token: length-prefixed legacy posting blob
//!           count; per entry: node gap, path id, tf, shared Dewey prefix
//!           length, suffix length, suffix components
//! TOKENIZER: min_token_len, drop_numbers, drop_stop_words
//! ```
//!
//! The tree is stored as a builder *replay* (depth deltas drive
//! `open`/`close`), so loading reuses the ordinary construction path and
//! every structural invariant is re-established rather than trusted. The
//! price is that load cost is O(corpus); the v2 format ([`super::v2`])
//! exists to avoid exactly that.

use xclean_xmltree::{NodeId, TokenizerConfig, TreeBuilder, XmlTree};

use crate::codec::{get_count, CodecError, SliceReader};
use crate::corpus::{CorpusIndex, Parts};
use crate::posting::PostingList;

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

/// Restores a corpus index from v1 bytes: the decoded parts are encoded
/// as v2 sections and viewed, like a fresh build's.
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

    // POSTINGS; a node's direct token count is the sum of its tfs.
    let mut lists: Vec<PostingList> = Vec::with_capacity(vocab_count);
    let mut direct = vec![0u64; tree.len()];
    for _ in 0..vocab_count {
        let list = decode_postings(get_blob(&mut r)?, &tree)?;
        for p in list.iter() {
            direct[p.node.index()] += u64::from(p.tf);
        }
        lists.push(list);
    }

    let tokenizer = get_tokenizer(&mut r)?;
    let parts = Parts {
        terms,
        cf,
        df,
        lists,
        direct,
    };
    super::v2::encode_and_view(tree, parts, &tokenizer, None)
}

/// Reads one legacy `(node gap, path, tf, Dewey prefix + suffix)` posting
/// blob against the tree it indexes, keeping `(node, tf)`. The path and
/// the Dewey code are parsed and checked, then dropped: v1 carries no
/// checksum, so a damaged posting must not index past the tree, name a
/// path the tree disagrees with, or share more Dewey components than the
/// previous entry had.
pub(crate) fn decode_postings(blob: &[u8], tree: &XmlTree) -> Result<PostingList, StorageError> {
    let mut r = SliceReader::new(blob);
    let n = get_count(&mut r, 5)?; // ≥5 bytes per entry (5 varints)
    let mut list = PostingList::new();
    list.reserve(n);
    let (mut node, mut dewey_len) = (0u64, 0usize);
    for i in 0..n {
        let gap = r.get_varint()?;
        if i > 0 && gap == 0 {
            return Err(CodecError::Corrupt("node ids not strictly increasing").into());
        }
        node = node.saturating_add(gap);
        let path = r.get_varint()?;
        let tf = r.get_u32()?;
        let shared = r.get_varint()?;
        if shared > dewey_len as u64 {
            return Err(CodecError::Corrupt("dewey prefix too long").into());
        }
        let suffix = get_count(&mut r, 1)?;
        for _ in 0..suffix {
            r.get_u32()?;
        }
        dewey_len = shared as usize + suffix;
        let id = NodeId(node as u32);
        if node >= tree.len() as u64 || path != u64::from(tree.path(id).0) {
            return Err(StorageError::Corrupt("posting disagrees with the tree"));
        }
        list.push(id, tf);
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes after posting list").into());
    }
    Ok(list)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::put_varint;
    use crate::vocab::TokenId;
    use xclean_xmltree::parse_document;

    /// The legacy blob writer, kept only here: one `(node, path, tf,
    /// Dewey code)` tuple per entry, written as the old encoder did.
    fn encode_legacy(entries: &[(u32, u32, u32, Vec<u32>)]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, entries.len() as u64);
        let (mut prev_node, mut prev_dewey) = (0, &[][..]);
        for (node, path, tf, dewey) in entries {
            let shared = prev_dewey
                .iter()
                .zip(dewey)
                .take_while(|(a, b)| a == b)
                .count();
            for v in [node - prev_node, *path, *tf, shared as u32] {
                put_varint(&mut buf, u64::from(v));
            }
            put_varint(&mut buf, (dewey.len() - shared) as u64);
            for &c in &dewey[shared..] {
                put_varint(&mut buf, u64::from(c));
            }
            (prev_node, prev_dewey) = (*node, dewey);
        }
        buf
    }

    fn corpus() -> CorpusIndex {
        let xml = "<dblp>\
            <article><title>keyword search keyword</title><author>smith</author></article>\
            <article><title>keyword cleaning</title><author>jones smith</author></article>\
        </dblp>";
        CorpusIndex::build(parse_document(xml).unwrap())
    }

    /// Token `t`'s postings as the legacy writer saw them.
    fn legacy_entries(c: &CorpusIndex, t: u32) -> Vec<(u32, u32, u32, Vec<u32>)> {
        let tree = c.tree();
        c.postings(TokenId(t))
            .iter()
            .map(|p| {
                let dewey = tree.dewey(p.node).components().to_vec();
                (p.node.0, tree.path(p.node).0, p.tf, dewey)
            })
            .collect()
    }

    fn rejection(entries: &[(u32, u32, u32, Vec<u32>)]) -> String {
        let c = corpus();
        match decode_postings(&encode_legacy(entries), c.tree()) {
            Ok(list) => panic!("accepted {list:?}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn legacy_blobs_decode_to_node_tf() {
        let c = corpus();
        for t in 0..c.vocab().len() as u32 {
            let blob = encode_legacy(&legacy_entries(&c, t));
            let list = decode_postings(&blob, c.tree()).unwrap();
            assert_eq!(&list, c.postings(TokenId(t)));
            for cut in 0..blob.len() {
                assert!(decode_postings(&blob[..cut], c.tree()).is_err());
            }
        }
    }

    #[test]
    fn legacy_posting_past_the_tree_is_rejected() {
        let c = corpus();
        let mut entries = legacy_entries(&c, 0);
        entries.push((c.tree().len() as u32, 0, 1, vec![1, 9]));
        assert!(rejection(&entries).contains("disagrees with the tree"));
    }

    #[test]
    fn legacy_posting_with_another_path_is_rejected() {
        let c = corpus();
        let mut entries = legacy_entries(&c, 0);
        entries[0].1 += 1;
        assert!(rejection(&entries).contains("disagrees with the tree"));
    }

    #[test]
    fn legacy_dewey_prefix_past_the_previous_code_is_rejected() {
        let c = corpus();
        let entries = legacy_entries(&c, 0);
        assert!(entries.len() >= 2, "keyword occurs twice");
        let mut blob = encode_legacy(&entries);
        // The first entry's shared-prefix length may only be 0: make it 1.
        let at = 1 + 3; // count, gap, path, tf
        assert_eq!(blob[at], 0);
        blob[at] = 1;
        let err = decode_postings(&blob, c.tree()).unwrap_err();
        assert!(err.to_string().contains("dewey prefix too long"), "{err}");
    }

    #[test]
    fn legacy_repeated_node_is_rejected() {
        let c = corpus();
        let mut entries = legacy_entries(&c, 0);
        entries.insert(1, entries[0].clone());
        assert!(rejection(&entries).contains("strictly increasing"));
    }
}
