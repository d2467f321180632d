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
//! A file whose table lacks one of these six sections (one written
//! before postings became `(node, tf)`, say) is not a snapshot this build
//! reads: the error says to rebuild it from its XML.
//!
//! Loading never replays construction: the tree is assembled from the
//! flat preorder columns and re-validated by an explicit O(n) pass
//! ([`xclean_xmltree::PreorderAssembler`]), the term dictionary and the
//! postings/path-stats blobs stay in the slab and are viewed or decoded
//! lazily, and the DIRECT column supplies per-node document lengths
//! without touching a single posting list. Every varint-declared size is
//! clamped against the remaining input before it drives an allocation.
//!
//! Once the tree is assembled and the DIRECT column read, nothing but a
//! save reads the TREE and DIRECT bytes again, so `load` hands their
//! pages back to the kernel (`IndexSlab::release`).
//!
//! The index builder writes its sections with `encode` and views them
//! with the same code (`encode_and_view`), so every [`CorpusIndex`] is
//! a view over v2 bytes, and `write` only frames the sections an index
//! already holds, writing each from where it lies.

use std::io;
use std::ops::Range;
use std::sync::Arc;

use xclean_xmltree::{LabelId, PreorderAssembler, Tokenizer, TokenizerConfig, XmlTree};

use crate::codec::{self, get_count, put_varint, SliceReader};
use crate::corpus::{CorpusIndex, Parts, SnapshotProvenance};
use crate::path_stats::{self, PathStatsIndex, StatsCounter};
use crate::shard::ShardMeta;
use crate::slab::{checksum64, checksum64_of, Blobs, IndexSlab};
use crate::vocab::{self, Vocabulary};

use super::{SectionInfo, SnapshotSummary, StorageError};

pub(crate) const MAGIC: &[u8; 8] = b"XCLIDX2\0";

const SEC_TREE: u8 = 1;
const SEC_DIRECT: u8 = 2;
const SEC_VOCAB: u8 = 3;
const SEC_PATHSTATS: u8 = 5;
const SEC_TOKENIZER: u8 = 6;
/// Optional: shard membership + id-translation maps (partitioned corpora
/// only; absent on ordinary snapshots, tolerated-unknown by old readers).
const SEC_SHARD: u8 = 7;
/// `(node gap, tf)` posting blobs. (Id 4 held an older posting layout,
/// which this build does not read.)
const SEC_POSTINGS: u8 = 8;

/// The sections every index holds, in the order a save writes them (so
/// re-encoding a loaded snapshot is byte-stable); SHARD follows when set.
const SECTION_ORDER: [u8; 6] = [
    SEC_TREE,
    SEC_DIRECT,
    SEC_VOCAB,
    SEC_POSTINGS,
    SEC_PATHSTATS,
    SEC_TOKENIZER,
];

/// The snapshot bytes an index views, and where each section of
/// [`SECTION_ORDER`] lies in them.
#[derive(Debug)]
pub(crate) struct Sections {
    slab: Arc<IndexSlab>,
    ranges: [Range<usize>; 6],
}

fn section_name(id: u8) -> &'static str {
    match id {
        SEC_TREE => "TREE",
        SEC_DIRECT => "DIRECT",
        SEC_VOCAB => "VOCAB",
        SEC_POSTINGS => "POSTINGS",
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

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// The header of a v2 file whose payload is the `sections` bodies laid
/// end to end in order: magic, payload checksum, section table (absolute
/// offsets).
fn header(sections: &[(u8, &[u8])]) -> Vec<u8> {
    let header_len = 8 + 8 + 1 + 17 * sections.len();
    let checksum = checksum64_of(sections.iter().map(|&(_, body)| body));
    let mut header = Vec::with_capacity(header_len);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&checksum.to_le_bytes());
    header.push(u8::try_from(sections.len()).expect("at most 255 sections"));
    let mut offset = header_len;
    for (id, body) in sections {
        header.push(*id);
        header.extend_from_slice(&(offset as u64).to_le_bytes());
        header.extend_from_slice(&(body.len() as u64).to_le_bytes());
        offset += body.len();
    }
    header
}

/// Lays out a v2 file: reserves the header, appends section bodies, and
/// fills in the section table and the payload checksum at the end.
struct Writer {
    out: Vec<u8>,
    table: Vec<(u8, Range<usize>)>,
    header_len: usize,
}

impl Writer {
    /// A writer for exactly `sections` sections.
    fn new(sections: usize) -> Writer {
        let header_len = 8 + 8 + 1 + 17 * sections;
        let out = vec![0; header_len];
        Writer {
            out,
            table: Vec::with_capacity(sections),
            header_len,
        }
    }

    /// Appends one section body, written by `body`.
    fn section(&mut self, id: u8, body: impl FnOnce(&mut Vec<u8>)) {
        let start = self.out.len();
        body(&mut self.out);
        self.table.push((id, start..self.out.len()));
    }

    /// Fills in the [`header`] of the sections appended.
    fn finish(mut self) -> Vec<u8> {
        let sections: Vec<(u8, &[u8])> = (self.table.iter())
            .map(|(id, range)| (*id, &self.out[range.clone()]))
            .collect();
        let header = header(&sections);
        self.out[..self.header_len].copy_from_slice(&header);
        self.out
    }
}

/// Writes `count; (count+1) u64 LE offsets; blobs`, one blob per item.
fn put_blobs<T>(out: &mut Vec<u8>, items: &[T], mut blob: impl FnMut(&T, &mut Vec<u8>)) {
    put_varint(out, items.len() as u64);
    let table = out.len();
    out.resize(table + 8 * (items.len() + 1), 0);
    let start = out.len();
    for (i, item) in items.iter().enumerate() {
        blob(item, out);
        let at = table + 8 * (i + 1);
        let off = (out.len() - start) as u64;
        out[at..at + 8].copy_from_slice(&off.to_le_bytes());
    }
}

/// The TREE section body: label table, preorder depth and label columns,
/// text bitmap, and the texts.
fn encode_tree(tree: &XmlTree, out: &mut Vec<u8>) {
    let labels = tree.labels();
    put_varint(out, labels.len() as u64);
    for i in 0..labels.len() as u32 {
        put_str(out, labels.name(LabelId(i)));
    }
    let n = tree.len();
    put_varint(out, n as u64);
    for node in tree.iter() {
        put_varint(out, u64::from(tree.depth(node)));
    }
    for node in tree.iter() {
        put_varint(out, u64::from(tree.label(node).0));
    }
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    for (i, node) in tree.iter().enumerate() {
        if tree.text(node).is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for node in tree.iter() {
        if let Some(t) = tree.text(node) {
            put_str(out, t);
        }
    }
}

/// The SHARD section body: membership + local→global id maps.
fn encode_shard(meta: &ShardMeta, out: &mut Vec<u8>) {
    put_varint(out, u64::from(meta.shard_id));
    put_varint(out, u64::from(meta.shard_count));
    out.extend_from_slice(&meta.seed.to_le_bytes());
    out.extend_from_slice(&meta.parent_fingerprint.to_le_bytes());
    put_varint(out, u64::from(meta.global_vocab_len));
    put_varint(out, u64::from(meta.global_path_len));
    put_varint(out, meta.token_map.len() as u64);
    for &g in &meta.token_map {
        put_varint(out, u64::from(g));
    }
    put_varint(out, meta.path_map.len() as u64);
    for &g in &meta.path_map {
        put_varint(out, u64::from(g));
    }
}

/// The one v2 section encoder: writes the sections of [`SECTION_ORDER`]
/// for `tree` and the tokenised `parts`, computing each token's path
/// statistics from its postings on the way.
fn encode(tree: &XmlTree, parts: &Parts, tokenizer: &TokenizerConfig) -> Vec<u8> {
    let mut w = Writer::new(SECTION_ORDER.len());
    w.section(SEC_TREE, |out| encode_tree(tree, out));
    w.section(SEC_DIRECT, |out| {
        for &d in &parts.direct {
            put_varint(out, d);
        }
    });
    w.section(SEC_VOCAB, |out| {
        vocab::encode(&parts.terms, &parts.cf, &parts.df, out)
    });
    w.section(SEC_POSTINGS, |out| {
        put_blobs(out, &parts.lists, codec::encode_into)
    });
    w.section(SEC_PATHSTATS, |out| {
        let mut counter = StatsCounter::new(tree);
        put_blobs(out, &parts.lists, |list, out| {
            path_stats::encode_stats(counter.token_stats(tree, list), out)
        })
    });
    w.section(SEC_TOKENIZER, |out| {
        put_varint(out, tokenizer.min_token_len as u64);
        out.push(u8::from(tokenizer.drop_numbers));
        out.push(u8::from(tokenizer.drop_stop_words));
    });
    w.finish()
}

/// Encodes `parts` over `tree` as v2 sections and views them: the index
/// builder's output.
pub(crate) fn encode_and_view(
    tree: XmlTree,
    parts: Parts,
    tokenizer: &TokenizerConfig,
) -> Result<CorpusIndex, StorageError> {
    let bytes = encode(&tree, &parts, tokenizer);
    drop(parts);
    let header = parse_header(&bytes)?;
    view(Arc::new(IndexSlab::Owned(bytes)), &header, tree, None)
}

/// Writes a corpus index to `out` as v2 bytes: the header, then the
/// sections it holds in `SECTION_ORDER`, each straight from the bytes it
/// views, plus its SHARD section when it is one shard of a set. Nothing
/// is decoded or copied first, so re-encoding a loaded snapshot is
/// byte-stable and a save holds no second copy of the payload.
pub(crate) fn write(corpus: &CorpusIndex, out: &mut impl io::Write) -> io::Result<()> {
    let Sections { slab, ranges } = corpus.sections();
    let shard = corpus.shard_meta().map(|meta| {
        let mut body = Vec::new();
        encode_shard(meta, &mut body);
        body
    });
    let mut sections: Vec<(u8, &[u8])> = (SECTION_ORDER.iter().zip(ranges))
        .map(|(&id, range)| (id, &slab[range.clone()]))
        .collect();
    sections.extend(shard.as_deref().map(|body| (SEC_SHARD, body)));
    out.write_all(&header(&sections))?;
    for (_, body) in &sections {
        out.write_all(body)?;
    }
    Ok(())
}

/// The bytes `write` writes, in memory.
pub fn to_bytes(corpus: &CorpusIndex) -> Vec<u8> {
    // A header and every section but SHARD: the size, near enough.
    let mut out = Vec::with_capacity(corpus.sections().slab.len());
    write(corpus, &mut out).expect("writing to a Vec cannot fail");
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
    /// The range of a section of [`SECTION_ORDER`], which
    /// [`parse_header`] has checked is present.
    fn section(&self, id: u8) -> Range<usize> {
        self.section_opt(id).expect("required sections are checked")
    }

    fn section_opt(&self, id: u8) -> Option<Range<usize>> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, r)| r.clone())
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
    // A table without one of the sections this build reads is a file
    // from before that layout: not corrupt, but not readable either.
    if SECTION_ORDER.iter().any(|&id| !seen[id as usize]) {
        return Err(StorageError::BadMagic);
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
fn load_tree(bytes: &[u8], section: &Range<usize>) -> Result<XmlTree, StorageError> {
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
    Ok(asm.finish()?)
}

/// Validates a v2 snapshot over `slab` and assembles a [`CorpusIndex`]
/// whose postings, term dictionary, and path statistics remain views into
/// the slab. The payload checksum is verified before any length field is
/// trusted. Returns the index and the payload checksum.
pub(crate) fn load(slab: Arc<IndexSlab>) -> Result<(CorpusIndex, u64), StorageError> {
    let bytes = slab.bytes();
    let header = parse_header(bytes)?;
    if checksum64(&bytes[header.header_end..]) != header.checksum {
        return Err(StorageError::Corrupt("payload checksum mismatch"));
    }

    // TREE: flat preorder columns + explicit O(n) validation pass.
    let tree = load_tree(bytes, &header.section(SEC_TREE))?;
    let shard = header
        .section_opt(SEC_SHARD)
        .map(|range| parse_shard(&bytes[range]))
        .transpose()?;
    let provenance = Some(SnapshotProvenance {
        format_version: 2,
        checksum: header.checksum,
    });
    let mut corpus = view(Arc::clone(&slab), &header, tree, provenance)?;
    // The tree is assembled and the DIRECT counts are read: only a save
    // reads those bytes again, and it faults them back in from the file.
    for id in [SEC_TREE, SEC_DIRECT] {
        slab.release(header.section(id));
    }

    // SHARD (optional): local→global id maps, validated against the
    // sections viewed above.
    if let Some(meta) = shard {
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

/// Reads the DIRECT section: one token count per node.
fn read_direct(
    bytes: &[u8],
    section: Range<usize>,
    nodes: usize,
) -> Result<Vec<u64>, StorageError> {
    let mut r = SliceReader::new(&bytes[section]);
    let mut direct = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        direct.push(r.get_varint()?);
    }
    if r.remaining() != 0 {
        return Err(StorageError::Corrupt("trailing bytes in DIRECT section"));
    }
    Ok(direct)
}

/// Views the sections of [`SECTION_ORDER`] of the snapshot in `slab`
/// (whose header is `header`) over its already assembled `tree`.
fn view(
    slab: Arc<IndexSlab>,
    header: &Header,
    tree: XmlTree,
    provenance: Option<SnapshotProvenance>,
) -> Result<CorpusIndex, StorageError> {
    let [tree_range, direct, vocab, postings, stats, tokenizer] =
        SECTION_ORDER.map(|id| header.section(id));
    let bytes = slab.bytes();
    let direct_counts = read_direct(bytes, direct.clone(), tree.len())?;
    let vocab_view = Vocabulary::view(Arc::clone(&slab), vocab.clone())?;
    let store = Blobs::new(
        Arc::clone(&slab),
        parse_offset_blob(bytes, &postings)?,
        codec::decode,
    )
    .map_err(StorageError::Corrupt)?;
    let path_stats =
        PathStatsIndex::from_slab(Arc::clone(&slab), parse_offset_blob(bytes, &stats)?)
            .map_err(StorageError::Corrupt)?;
    let tokenizer_config = parse_tokenizer(&bytes[tokenizer.clone()])?;
    let mut corpus = CorpusIndex::from_views(
        tree,
        vocab_view,
        store,
        path_stats,
        Sections {
            slab,
            ranges: [tree_range, direct, vocab, postings, stats, tokenizer],
        },
        direct_counts,
        Tokenizer::new(tokenizer_config),
    )
    .map_err(StorageError::Corrupt)?;
    corpus.provenance = provenance;
    Ok(corpus)
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
fn parse_shard(body: &[u8]) -> Result<ShardMeta, StorageError> {
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
    Ok(ShardMeta {
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
    let mut r = SliceReader::new(&bytes[header.section(SEC_TREE)]);
    let labels = get_count(&mut r, 1)?;
    for _ in 0..labels {
        let len = get_count(&mut r, 1)?;
        r.skip(len)?;
    }
    let nodes = get_count(&mut r, 2)?;

    let vocab = vocab::layout(bytes, header.section(SEC_VOCAB))?;

    let postings_bytes = parse_offset_blob(bytes, &header.section(SEC_POSTINGS))?
        .iter()
        .map(|blob| blob.len())
        .sum();
    let tokenizer = parse_tokenizer(&bytes[header.section(SEC_TOKENIZER)])?;

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
        terms: vocab.len(),
        total_tokens: vocab.total_tokens,
        postings_bytes,
        tokenizer,
        checksum: header.checksum,
        sections,
    })
}
