//! Columnar v2 snapshot format (`XCLIDX2\0`).
//!
//! Layout (DESIGN.md §11):
//!
//! ```text
//! magic "XCLIDX2\0"
//! checksum   : u64 LE — checksum64 (4-lane word-folded FNV-1a, see
//!              `slab::checksum64`) over every byte after the section table
//! section_count : u8
//! section table : per section { id u8, absolute offset u64 LE, len u64 LE }
//! ──────────────────────────── payload ────────────────────────────
//! TREE(1)     : label table (count, len-prefixed strings); node_count;
//!               depth varint column; label-index varint column;
//!               text bitmap (⌈n/8⌉ bytes); text blob (len-prefixed, one
//!               entry per set bitmap bit, in preorder)
//! DIRECT(2)   : per-node direct token counts (node_count varints)
//! VOCAB(3)    : term_count; (count+1) u32 LE term offsets; term blob;
//!               cf varints; df varints; count u32 LE ids sorted by term
//! POSTINGS(8) : count; (count+1) u64 LE offsets; concatenated
//!               `codec::encode` blobs, `count; (node gap, tf)*` each
//! PATHSTATS(5): count; (count+1) u64 LE offsets; concatenated
//!               `encode_stats` blobs
//! TOKENIZER(6): min_token_len varint; drop_numbers u8; drop_stop_words u8
//! ```
//!
//! Files written before postings became `(node, tf)` hold POSTINGS_DEWEY(4)
//! instead: the same offset table over v1's posting blobs, which also
//! store each entry's label path and Dewey code. Such a file still loads:
//! its blobs are decoded eagerly against the tree by
//! [`super::v1::decode_postings`], which checks the two old fields and
//! drops them. A file must carry exactly one of the two sections.
//!
//! Loading never replays construction: the tree is assembled from the
//! flat preorder columns and re-validated by an explicit O(n) pass
//! ([`xclean_xmltree::PreorderAssembler`]), the term dictionary and the
//! postings/path-stats blobs stay in the slab and are viewed or decoded
//! lazily, and the DIRECT column supplies per-node document lengths
//! without touching a single posting list. Every varint-declared size is
//! clamped against the remaining input before it drives an allocation.

use std::ops::Range;
use std::sync::Arc;

use xclean_xmltree::{LabelId, NodeId, PreorderAssembler, Tokenizer, TokenizerConfig};

use crate::codec::{self, get_count, put_varint, SliceReader};
use crate::corpus::{CorpusIndex, PostingStore, SnapshotProvenance};
use crate::path_stats::{self, PathStatsIndex};
use crate::slab::{checksum64, IndexSlab};
use crate::vocab::{TokenId, Vocabulary};

use super::{SectionInfo, SnapshotSummary, StorageError};

pub(crate) const MAGIC: &[u8; 8] = b"XCLIDX2\0";

const SEC_TREE: u8 = 1;
const SEC_DIRECT: u8 = 2;
const SEC_VOCAB: u8 = 3;
/// Legacy: v1 posting blobs (path and Dewey code per entry); read only.
const SEC_POSTINGS_DEWEY: u8 = 4;
const SEC_PATHSTATS: u8 = 5;
const SEC_TOKENIZER: u8 = 6;
/// Optional: shard membership + id-translation maps (partitioned corpora
/// only; absent on ordinary snapshots, tolerated-unknown by old readers).
const SEC_SHARD: u8 = 7;
/// `(node gap, tf)` posting blobs; a new id, so no reader takes the legacy
/// layout for this one.
const SEC_POSTINGS: u8 = 8;

fn section_name(id: u8) -> &'static str {
    match id {
        SEC_TREE => "TREE",
        SEC_DIRECT => "DIRECT",
        SEC_VOCAB => "VOCAB",
        SEC_POSTINGS => "POSTINGS",
        SEC_POSTINGS_DEWEY => "POSTINGS_DEWEY",
        SEC_PATHSTATS => "PATHSTATS",
        SEC_TOKENIZER => "TOKENIZER",
        SEC_SHARD => "SHARD",
        _ => "UNKNOWN",
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Serialises a corpus index to v2 bytes. The section order is fixed
/// (TREE, DIRECT, VOCAB, POSTINGS, PATHSTATS, TOKENIZER), so re-encoding
/// a loaded snapshot is byte-stable.
pub fn to_bytes(corpus: &CorpusIndex) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut table: Vec<(u8, usize, usize)> = Vec::new();
    let mut section = |id: u8, payload: &mut Vec<u8>, start: usize| {
        table.push((id, start, payload.len() - start));
    };

    // TREE.
    let start = payload.len();
    let tree = corpus.tree();
    let labels = tree.labels();
    put_varint(&mut payload, labels.len() as u64);
    for i in 0..labels.len() as u32 {
        put_str(&mut payload, labels.name(LabelId(i)));
    }
    let n = tree.len();
    put_varint(&mut payload, n as u64);
    for node in tree.iter() {
        put_varint(&mut payload, u64::from(tree.depth(node)));
    }
    for node in tree.iter() {
        put_varint(&mut payload, u64::from(tree.label(node).0));
    }
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    for (i, node) in tree.iter().enumerate() {
        if tree.text(node).is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    payload.extend_from_slice(&bitmap);
    for node in tree.iter() {
        if let Some(t) = tree.text(node) {
            put_str(&mut payload, t);
        }
    }
    section(SEC_TREE, &mut payload, start);

    // DIRECT.
    let start = payload.len();
    for i in 0..n {
        put_varint(&mut payload, corpus.direct_len(NodeId(i as u32)));
    }
    section(SEC_DIRECT, &mut payload, start);

    // VOCAB.
    let start = payload.len();
    let vocab = corpus.vocab();
    let count = vocab.len();
    put_varint(&mut payload, count as u64);
    let mut off = 0u32;
    payload.extend_from_slice(&off.to_le_bytes());
    for term in vocab.iter_terms() {
        off = off
            .checked_add(u32::try_from(term.len()).expect("term too long"))
            .expect("term blob exceeds 4 GiB");
        payload.extend_from_slice(&off.to_le_bytes());
    }
    for term in vocab.iter_terms() {
        payload.extend_from_slice(term.as_bytes());
    }
    for i in 0..count as u32 {
        put_varint(&mut payload, vocab.cf(TokenId(i)));
    }
    for i in 0..count as u32 {
        put_varint(&mut payload, vocab.df(TokenId(i)));
    }
    let mut sorted: Vec<u32> = (0..count as u32).collect();
    sorted.sort_unstable_by(|&a, &b| {
        vocab
            .term(TokenId(a))
            .as_bytes()
            .cmp(vocab.term(TokenId(b)).as_bytes())
    });
    for id in &sorted {
        payload.extend_from_slice(&id.to_le_bytes());
    }
    section(SEC_VOCAB, &mut payload, start);

    // POSTINGS.
    let start = payload.len();
    put_varint(&mut payload, count as u64);
    let blobs: Vec<Vec<u8>> = (0..count as u32)
        .map(|i| codec::encode(corpus.postings(TokenId(i))))
        .collect();
    let mut off = 0u64;
    payload.extend_from_slice(&off.to_le_bytes());
    for b in &blobs {
        off += b.len() as u64;
        payload.extend_from_slice(&off.to_le_bytes());
    }
    for b in &blobs {
        payload.extend_from_slice(b);
    }
    section(SEC_POSTINGS, &mut payload, start);

    // PATHSTATS.
    let start = payload.len();
    put_varint(&mut payload, count as u64);
    let mut stats_blob = Vec::new();
    let mut stat_offsets: Vec<u64> = vec![0];
    for i in 0..count as u32 {
        path_stats::encode_stats(corpus.path_stats().paths_of(TokenId(i)), &mut stats_blob);
        stat_offsets.push(stats_blob.len() as u64);
    }
    for o in &stat_offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    payload.extend_from_slice(&stats_blob);
    section(SEC_PATHSTATS, &mut payload, start);

    // TOKENIZER.
    let start = payload.len();
    let tc = corpus.tokenizer().config();
    put_varint(&mut payload, tc.min_token_len as u64);
    payload.push(u8::from(tc.drop_numbers));
    payload.push(u8::from(tc.drop_stop_words));
    section(SEC_TOKENIZER, &mut payload, start);

    // SHARD (optional): membership + local→global id maps.
    if let Some(meta) = corpus.shard_meta() {
        let start = payload.len();
        put_varint(&mut payload, u64::from(meta.shard_id));
        put_varint(&mut payload, u64::from(meta.shard_count));
        payload.extend_from_slice(&meta.seed.to_le_bytes());
        payload.extend_from_slice(&meta.parent_fingerprint.to_le_bytes());
        put_varint(&mut payload, u64::from(meta.global_vocab_len));
        put_varint(&mut payload, u64::from(meta.global_path_len));
        put_varint(&mut payload, meta.token_map.len() as u64);
        for &g in &meta.token_map {
            put_varint(&mut payload, u64::from(g));
        }
        put_varint(&mut payload, meta.path_map.len() as u64);
        for &g in &meta.path_map {
            put_varint(&mut payload, u64::from(g));
        }
        section(SEC_SHARD, &mut payload, start);
    }

    // Header: magic, payload checksum, section table (absolute offsets).
    let header_len = 8 + 8 + 1 + 17 * table.len();
    let checksum = checksum64(&payload);
    let mut out = Vec::with_capacity(header_len + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.push(table.len() as u8);
    for (id, rel, len) in &table {
        out.push(*id);
        out.extend_from_slice(&((header_len + rel) as u64).to_le_bytes());
        out.extend_from_slice(&(*len as u64).to_le_bytes());
    }
    out.extend_from_slice(&payload);
    out
}

/// Parsed v2 header: recorded checksum, section ranges, header end.
struct Header {
    checksum: u64,
    /// Sections in table order.
    sections: Vec<(u8, Range<usize>)>,
    header_end: usize,
}

impl Header {
    fn section(&self, id: u8) -> Result<Range<usize>, StorageError> {
        self.section_opt(id)
            .ok_or(StorageError::Corrupt("missing snapshot section"))
    }

    fn section_opt(&self, id: u8) -> Option<Range<usize>> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, r)| r.clone())
    }

    /// The one posting section a file may carry: its id and range.
    fn postings(&self) -> Result<(u8, Range<usize>), StorageError> {
        match (
            self.section_opt(SEC_POSTINGS),
            self.section_opt(SEC_POSTINGS_DEWEY),
        ) {
            (Some(range), None) => Ok((SEC_POSTINGS, range)),
            (None, Some(range)) => Ok((SEC_POSTINGS_DEWEY, range)),
            _ => Err(StorageError::Corrupt("need exactly one posting section")),
        }
    }
}

fn parse_header(bytes: &[u8]) -> Result<Header, StorageError> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(StorageError::BadMagic);
    }
    if bytes.len() < 17 {
        return Err(StorageError::Corrupt("header truncated"));
    }
    let checksum = read_u64(bytes, 8);
    let section_count = bytes[16] as usize;
    let header_end = 17 + 17 * section_count;
    if bytes.len() < header_end {
        return Err(StorageError::Corrupt("section table truncated"));
    }
    let mut sections = Vec::with_capacity(section_count);
    let mut seen = [false; 256];
    for i in 0..section_count {
        let at = 17 + 17 * i;
        let id = bytes[at];
        if seen[id as usize] {
            return Err(StorageError::Corrupt("duplicate section id"));
        }
        seen[id as usize] = true;
        let offset = usize::try_from(read_u64(bytes, at + 1))
            .map_err(|_| StorageError::Corrupt("section offset overflows"))?;
        let len = usize::try_from(read_u64(bytes, at + 9))
            .map_err(|_| StorageError::Corrupt("section length overflows"))?;
        let end = offset
            .checked_add(len)
            .ok_or(StorageError::Corrupt("section range overflows"))?;
        if offset < header_end || end > bytes.len() {
            return Err(StorageError::Corrupt("section range out of bounds"));
        }
        sections.push((id, offset..end));
    }
    Ok(Header {
        checksum,
        sections,
        header_end,
    })
}

/// Reads a length-prefixed UTF-8 string, clamping the declared length.
fn read_str(r: &mut SliceReader<'_>) -> Result<String, StorageError> {
    Ok(read_str_ref(r)?.to_string())
}

/// Borrowing variant of [`read_str`]: validates UTF-8 in place and hands
/// back a view into the underlying slice — the text hot path of
/// [`load_tree`] copies it straight into the tree's arena without an
/// intermediate allocation.
fn read_str_ref<'a>(r: &mut SliceReader<'a>) -> Result<&'a str, StorageError> {
    let len = get_count(r, 1)?;
    let bytes = r.take(len)?;
    std::str::from_utf8(bytes).map_err(|_| StorageError::Corrupt("non-utf8 string"))
}

/// Parses a `(count+1) × u64 LE` offset table followed by a blob within
/// `section`, returning the absolute byte range of each entry's slice.
fn parse_offset_blob(
    bytes: &[u8],
    section: &Range<usize>,
) -> Result<Vec<Range<usize>>, StorageError> {
    let mut r = SliceReader::new(&bytes[section.clone()]);
    let count = get_count(&mut r, 8)?;
    let table_bytes = (count + 1)
        .checked_mul(8)
        .ok_or(StorageError::Corrupt("offset table overflows"))?;
    let table_start = section.start + r.pos();
    r.skip(table_bytes)
        .map_err(|_| StorageError::Corrupt("offset table truncated"))?;
    let blob_start = section.start + r.pos();
    let blob_len = r.remaining() as u64;
    let mut ranges = Vec::with_capacity(count);
    let mut prev = read_u64(bytes, table_start);
    if prev != 0 {
        return Err(StorageError::Corrupt("first offset must be zero"));
    }
    for i in 0..count {
        let next = read_u64(bytes, table_start + 8 * (i + 1));
        if next < prev || next > blob_len {
            return Err(StorageError::Corrupt("offsets not monotonic"));
        }
        ranges.push(blob_start + prev as usize..blob_start + next as usize);
        prev = next;
    }
    if prev != blob_len {
        return Err(StorageError::Corrupt("offsets do not cover blob"));
    }
    Ok(ranges)
}

/// Parses the TREE section into a validated [`xclean_xmltree::XmlTree`].
fn load_tree(
    bytes: &[u8],
    section: &Range<usize>,
) -> Result<(xclean_xmltree::XmlTree, usize), StorageError> {
    let mut r = SliceReader::new(&bytes[section.clone()]);
    let label_count = get_count(&mut r, 1)?;
    let mut names = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        names.push(read_str(&mut r)?);
    }
    let node_count = get_count(&mut r, 2)?;
    if node_count == 0 {
        return Err(StorageError::Corrupt("empty tree"));
    }
    let mut depths = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let d = r.get_varint()?;
        depths.push(u32::try_from(d).map_err(|_| StorageError::Corrupt("depth overflows u32"))?);
    }
    let mut label_col = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let l = r.get_varint()?;
        label_col
            .push(u32::try_from(l).map_err(|_| StorageError::Corrupt("label id overflows u32"))?);
    }
    let bitmap = r.take(node_count.div_ceil(8))?.to_vec();
    let mut asm = PreorderAssembler::new(&names);
    asm.reserve(node_count);
    for i in 0..node_count {
        let text = if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            Some(read_str_ref(&mut r)?)
        } else {
            None
        };
        asm.push(depths[i], label_col[i], text)?;
    }
    if r.remaining() != 0 {
        return Err(StorageError::Corrupt("trailing bytes in TREE section"));
    }
    Ok((asm.finish()?, node_count))
}

/// Validates a v2 snapshot over `slab` and assembles a [`CorpusIndex`]
/// whose postings, term dictionary, and path statistics remain views into
/// the slab. Returns the index and the payload checksum.
pub(crate) fn load(
    slab: Arc<IndexSlab>,
    verify_checksum: bool,
) -> Result<(CorpusIndex, u64), StorageError> {
    let bytes = slab.bytes();
    let header = parse_header(bytes)?;
    if verify_checksum && checksum64(&bytes[header.header_end..]) != header.checksum {
        return Err(StorageError::Corrupt("payload checksum mismatch"));
    }

    // TREE: flat preorder columns + explicit O(n) validation pass.
    let (tree, node_count) = load_tree(bytes, &header.section(SEC_TREE)?)?;

    // DIRECT: per-node token counts — document lengths without postings.
    let direct_range = header.section(SEC_DIRECT)?;
    let mut r = SliceReader::new(&bytes[direct_range]);
    let mut direct = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        direct.push(r.get_varint()?);
    }
    if r.remaining() != 0 {
        return Err(StorageError::Corrupt("trailing bytes in DIRECT section"));
    }

    // VOCAB: slab-backed term dictionary.
    let vocab_range = header.section(SEC_VOCAB)?;
    let mut r = SliceReader::new(&bytes[vocab_range.clone()]);
    let count = get_count(&mut r, 10)?;
    let table_bytes = (count + 1)
        .checked_mul(4)
        .ok_or(StorageError::Corrupt("vocab offset table overflows"))?;
    let off_start = vocab_range.start + r.pos();
    r.skip(table_bytes)
        .map_err(|_| StorageError::Corrupt("vocab offset table truncated"))?;
    let blob_len = read_u32(bytes, off_start + table_bytes - 4) as usize;
    let blob_start = vocab_range.start + r.pos();
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
    let sorted_start = vocab_range.start + r.pos();
    r.skip(count * 4)
        .map_err(|_| StorageError::Corrupt("vocab permutation truncated"))?;
    if r.remaining() != 0 {
        return Err(StorageError::Corrupt("trailing bytes in VOCAB section"));
    }
    let vocab = Vocabulary::from_slab(
        Arc::clone(&slab),
        off_start..blob_start,
        blob_start..blob_start + blob_len,
        sorted_start..sorted_start + count * 4,
        count,
        cf,
        df,
    )
    .map_err(StorageError::Corrupt)?;

    // POSTINGS / PATHSTATS: offset tables into lazily-decoded blobs; a
    // legacy POSTINGS_DEWEY section decodes now, checked against the tree.
    let (id, range) = header.postings()?;
    let blobs = parse_offset_blob(bytes, &range)?;
    let store = if id == SEC_POSTINGS {
        PostingStore::slab(Arc::clone(&slab), blobs).map_err(StorageError::Corrupt)?
    } else {
        PostingStore::Owned(
            blobs
                .into_iter()
                .map(|blob| super::v1::decode_postings(&bytes[blob], &tree))
                .collect::<Result<_, _>>()?,
        )
    };
    let stats_ranges = parse_offset_blob(bytes, &header.section(SEC_PATHSTATS)?)?;
    let path_stats = PathStatsIndex::from_slab(Arc::clone(&slab), stats_ranges)
        .map_err(StorageError::Corrupt)?;

    let tokenizer = Tokenizer::new(parse_tokenizer(&bytes[header.section(SEC_TOKENIZER)?])?);

    let provenance = SnapshotProvenance {
        format_version: 2,
        checksum: header.checksum,
    };
    let mut corpus = CorpusIndex::from_slab_parts(
        tree, vocab, store, path_stats, direct, tokenizer, provenance,
    )
    .map_err(StorageError::Corrupt)?;

    // SHARD (optional): local→global id maps, fully validated against the
    // sections decoded above.
    if let Some(range) = header.section_opt(SEC_SHARD) {
        let meta = parse_shard(&bytes[range])?;
        if meta.token_map.len() != corpus.vocab().len() {
            return Err(StorageError::Corrupt("shard token map length mismatch"));
        }
        if meta.path_map.len() != corpus.tree().paths().len() {
            return Err(StorageError::Corrupt("shard path map length mismatch"));
        }
        corpus.shard = Some(meta);
    }
    Ok((corpus, header.checksum))
}

fn parse_tokenizer(body: &[u8]) -> Result<TokenizerConfig, StorageError> {
    let mut r = SliceReader::new(body);
    let min_token_len = usize::try_from(r.get_varint()?)
        .map_err(|_| StorageError::Corrupt("min_token_len overflows"))?;
    let config = TokenizerConfig {
        min_token_len,
        drop_numbers: r.get_u8()? == 1,
        drop_stop_words: r.get_u8()? == 1,
    };
    if r.remaining() != 0 {
        return Err(StorageError::Corrupt("trailing bytes in TOKENIZER section"));
    }
    Ok(config)
}

/// Decodes and validates a SHARD section body (everything except the map
/// lengths, which are checked against the assembled corpus by the caller).
fn parse_shard(body: &[u8]) -> Result<crate::shard::ShardMeta, StorageError> {
    let mut r = SliceReader::new(body);
    let shard_id = u32::try_from(r.get_varint()?)
        .map_err(|_| StorageError::Corrupt("shard id overflows u32"))?;
    let shard_count = u32::try_from(r.get_varint()?)
        .map_err(|_| StorageError::Corrupt("shard count overflows u32"))?;
    if shard_count == 0 || shard_id >= shard_count {
        return Err(StorageError::Corrupt("shard id out of range"));
    }
    let seed = u64::from_le_bytes(
        r.take(8)?
            .try_into()
            .map_err(|_| StorageError::Corrupt("shard seed truncated"))?,
    );
    let parent_fingerprint = u64::from_le_bytes(
        r.take(8)?
            .try_into()
            .map_err(|_| StorageError::Corrupt("shard fingerprint truncated"))?,
    );
    let global_vocab_len = u32::try_from(r.get_varint()?)
        .map_err(|_| StorageError::Corrupt("global vocab len overflows u32"))?;
    let global_path_len = u32::try_from(r.get_varint()?)
        .map_err(|_| StorageError::Corrupt("global path len overflows u32"))?;
    let token_count = get_count(&mut r, 1)?;
    let mut token_map = Vec::with_capacity(token_count);
    for _ in 0..token_count {
        let g = u32::try_from(r.get_varint()?)
            .map_err(|_| StorageError::Corrupt("token map entry overflows u32"))?;
        if g >= global_vocab_len {
            return Err(StorageError::Corrupt("token map entry out of range"));
        }
        token_map.push(g);
    }
    let path_count = get_count(&mut r, 1)?;
    let mut path_map = Vec::with_capacity(path_count);
    for _ in 0..path_count {
        let g = u32::try_from(r.get_varint()?)
            .map_err(|_| StorageError::Corrupt("path map entry overflows u32"))?;
        if g >= global_path_len {
            return Err(StorageError::Corrupt("path map entry out of range"));
        }
        path_map.push(g);
    }
    if r.remaining() != 0 {
        return Err(StorageError::Corrupt("trailing bytes in SHARD section"));
    }
    Ok(crate::shard::ShardMeta {
        shard_id,
        shard_count,
        seed,
        parent_fingerprint,
        global_vocab_len,
        global_path_len,
        token_map,
        path_map,
    })
}

/// Walks a v2 snapshot's section table and framing without assembling the
/// index. Verifies the payload checksum (it is cheaper than one posting
/// decode pass and lets `index inspect` vouch for file integrity).
pub(crate) fn summarize(bytes: &[u8]) -> Result<SnapshotSummary, StorageError> {
    let header = parse_header(bytes)?;
    if checksum64(&bytes[header.header_end..]) != header.checksum {
        return Err(StorageError::Corrupt("payload checksum mismatch"));
    }
    let mut r = SliceReader::new(&bytes[header.section(SEC_TREE)?]);
    let labels = get_count(&mut r, 1)?;
    for _ in 0..labels {
        let len = get_count(&mut r, 1)?;
        r.skip(len)?;
    }
    let nodes = get_count(&mut r, 2)?;

    let vocab_range = header.section(SEC_VOCAB)?;
    let mut r = SliceReader::new(&bytes[vocab_range.clone()]);
    let terms = get_count(&mut r, 10)?;
    let table_bytes = (terms + 1)
        .checked_mul(4)
        .ok_or(StorageError::Corrupt("vocab offset table overflows"))?;
    let off_start = vocab_range.start + r.pos();
    r.skip(table_bytes)?;
    let blob_len = read_u32(bytes, off_start + table_bytes - 4) as usize;
    r.skip(blob_len)?;
    let mut total_tokens = 0u64;
    for _ in 0..terms {
        total_tokens = total_tokens.saturating_add(r.get_varint()?);
    }

    let postings_bytes = parse_offset_blob(bytes, &header.postings()?.1)?
        .iter()
        .map(|blob| blob.len())
        .sum();
    let tokenizer = parse_tokenizer(&bytes[header.section(SEC_TOKENIZER)?])?;

    let shard = match header.section_opt(SEC_SHARD) {
        Some(range) => {
            let meta = parse_shard(&bytes[range])?;
            Some(super::ShardSummary {
                shard_id: meta.shard_id,
                shard_count: meta.shard_count,
                seed: meta.seed,
                parent_fingerprint: meta.parent_fingerprint,
            })
        }
        None => None,
    };

    let sections = header
        .sections
        .iter()
        .map(|(id, range)| SectionInfo {
            name: section_name(*id),
            bytes: range.len() as u64,
        })
        .collect();
    Ok(SnapshotSummary {
        format_version: 2,
        total_bytes: bytes.len(),
        labels,
        nodes,
        terms,
        total_tokens,
        postings_bytes,
        tokenizer,
        checksum: Some(header.checksum),
        sections,
        shard,
    })
}
