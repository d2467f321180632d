//! Compact byte encoding of posting lists.
//!
//! A list is `count; (node gap, tf)*`, every value a LEB128 varint: node
//! ids are gap-encoded against the previous entry (the first against 0;
//! document order makes gaps small and positive) and term frequencies are
//! raw. This is the on-disk format of the index's postings and also what
//! the index-size figures in EXPERIMENTS.md are measured on. Snapshots
//! written before this layout carried a label path and a Dewey code per
//! entry; `storage::v1` reads those.

use xclean_xmltree::NodeId;

use crate::posting::PostingList;

/// Errors raised while decoding a posting list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// A varint exceeded the 64-bit range.
    VarintOverflow,
    /// Structural inconsistency (e.g. node ids out of document order).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::Corrupt(m) => write!(f, "corrupt posting list: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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

/// Serialises a posting list.
pub fn encode(list: &PostingList) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(list, &mut buf);
    buf
}

/// [`encode`], appending to `buf`.
pub(crate) fn encode_into(list: &PostingList, buf: &mut Vec<u8>) {
    put_varint(buf, list.len() as u64);
    let mut prev_node = 0;
    for p in list.iter() {
        put_varint(buf, u64::from(p.node.0 - prev_node));
        put_varint(buf, u64::from(p.tf));
        prev_node = p.node.0;
    }
}

/// A borrowing cursor over an encoded byte range: decoders read straight
/// out of the snapshot slab (or any other slice) without copying it.
pub(crate) struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current absolute position within the input.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Reads one byte.
    pub(crate) fn get_u8(&mut self) -> Result<u8, CodecError> {
        let &b = self.buf.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a varint that must fit a `u32`.
    pub(crate) fn get_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.get_varint()?).map_err(|_| CodecError::VarintOverflow)
    }

    /// Skips `n` bytes, erroring (not panicking) past the end.
    pub(crate) fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        self.pos += n;
        Ok(())
    }

    /// Borrows the next `n` bytes and advances past them.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Word-at-a-time LEB128 decode: loads 8 bytes at once, finds the
    /// first byte with its continuation bit clear via one mask +
    /// `trailing_zeros`, and extracts the 7-bit groups branchlessly.
    /// Falls back to the byte loop near the slab tail (fewer than 8
    /// bytes left) and for varints longer than 8 bytes, so EOF/overflow
    /// semantics are byte-for-byte those of the classic loop.
    #[inline]
    pub(crate) fn get_varint(&mut self) -> Result<u64, CodecError> {
        if self.buf.len() - self.pos >= 8 {
            let word = u64::from_le_bytes(
                self.buf[self.pos..self.pos + 8]
                    .try_into()
                    .expect("8-byte window"),
            );
            // A clear top bit marks the last byte of the varint.
            let stops = !word & 0x8080_8080_8080_8080;
            if stops != 0 {
                let len = (stops.trailing_zeros() >> 3) as usize + 1; // 1..=8
                self.pos += len;
                return Ok(extract_7bit_groups(word, len));
            }
            // 8 continuation bytes in a row: a >8-byte varint. Rare and
            // always an encoder bug or hostile input — let the slow path
            // reproduce the historical overflow behavior exactly.
        }
        self.get_varint_slow()
    }

    #[cold]
    fn get_varint_slow(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let &byte = self.buf.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
            self.pos += 1;
            if shift >= 64 {
                return Err(CodecError::VarintOverflow);
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// Compacts the low `len` bytes of `word` (each carrying 7 payload bits,
/// little-endian group order) into one integer, branch-free: three
/// mask-and-shift folds merge byte pairs into 14-bit lanes, 14-bit lanes
/// into 28-bit lanes, and 28-bit lanes into the 56-bit result.
#[inline]
fn extract_7bit_groups(word: u64, len: usize) -> u64 {
    debug_assert!((1..=8).contains(&len));
    // Keep only the varint's bytes, then drop every continuation bit.
    let w = word & (u64::MAX >> (64 - 8 * len)) & 0x7F7F_7F7F_7F7F_7F7F;
    let w = (w & 0x007F_007F_007F_007F) | ((w & 0x7F00_7F00_7F00_7F00) >> 1);
    let w = (w & 0x0000_3FFF_0000_3FFF) | ((w & 0x3FFF_0000_3FFF_0000) >> 2);
    (w & 0x0FFF_FFFF) | ((w & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// Deserialises a posting list produced by [`encode`]. The entire input
/// must be consumed — trailing garbage is a corruption error, which keeps
/// per-token slab ranges honest — and node ids must strictly increase.
pub fn decode(buf: &[u8]) -> Result<PostingList, CodecError> {
    let mut r = SliceReader::new(buf);
    let n = get_count(&mut r, 2)?; // ≥2 bytes per entry (2 varints)
    let mut list = PostingList::new();
    list.reserve(n); // `get_count` has already bounded `n` by the input size
    let mut prev_node = 0u32;
    for i in 0..n {
        let gap = r.get_u32()?;
        if i > 0 && gap == 0 {
            return Err(CodecError::Corrupt("node ids not strictly increasing"));
        }
        prev_node = prev_node
            .checked_add(gap)
            .ok_or(CodecError::VarintOverflow)?;
        list.push(NodeId(prev_node), r.get_u32()?);
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes after posting list"));
    }
    Ok(list)
}

/// Reads a count and clamps it against the remaining input, assuming each
/// record needs at least `min_record_bytes` — hostile length prefixes must
/// never drive allocation.
pub(crate) fn get_count(
    r: &mut SliceReader<'_>,
    min_record_bytes: usize,
) -> Result<usize, CodecError> {
    let n = r.get_varint()?;
    let n = usize::try_from(n).map_err(|_| CodecError::Corrupt("count overflows usize"))?;
    if n.saturating_mul(min_record_bytes.max(1)) > r.remaining() {
        return Err(CodecError::Corrupt("declared count exceeds input"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PostingList {
        let mut l = PostingList::new();
        l.push(NodeId(2), 3);
        l.push(NodeId(5), 1);
        l.push(NodeId(130), 7);
        l.push(NodeId(1_000_000), 1);
        l
    }

    #[test]
    fn layout_is_count_then_gap_tf_pairs() {
        // The last gap, 1_000_000 - 130 = 999_870, takes three bytes.
        let expect = [4, 2, 3, 3, 1, 125, 7, 0xBE, 0x83, 0x3D, 1];
        assert_eq!(encode(&sample()), expect);
    }

    #[test]
    fn out_of_order_and_overflowing_nodes_error() {
        // A second entry with gap 0 repeats a node.
        assert!(matches!(
            decode(&[2, 4, 1, 0, 1]),
            Err(CodecError::Corrupt(_))
        ));
        // A gap that carries the node id past u32.
        let mut bytes = vec![2, 1, 1];
        put_varint(&mut bytes, u64::from(u32::MAX));
        bytes.push(1);
        assert_eq!(decode(&bytes), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn roundtrip() {
        let l = sample();
        let bytes = encode(&l);
        let back = decode(&bytes).unwrap();
        assert_eq!(l, back);
    }

    #[test]
    fn empty_roundtrip() {
        let l = PostingList::new();
        assert_eq!(decode(&encode(&l)).unwrap(), l);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode(&sample());
        for cut in 1..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn encoding_is_compact() {
        // Dense gaps should compress far below the naive 8 bytes/entry
        // representation.
        let mut l = PostingList::new();
        for i in 0..1000u32 {
            l.push(NodeId(i * 2), 1);
        }
        let bytes = encode(&l);
        assert!(
            bytes.len() < 1000 * 8,
            "encoded size {} too large",
            bytes.len()
        );
    }
}

#[cfg(test)]
mod varint_tests {
    use super::*;

    /// The pre-PR byte-at-a-time loop, kept verbatim as the oracle for
    /// the word-at-a-time fast path (EOF, overflow, and the historical
    /// truncate-at-shift-63 quirk for 10-byte varints included).
    fn reference_get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let &byte = buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
            *pos += 1;
            if shift >= 64 {
                return Err(CodecError::VarintOverflow);
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Drains `buf` through both decoders and asserts identical values,
    /// errors, and cursor positions at every step.
    fn assert_decodes_identically(buf: &[u8]) {
        let mut fast = SliceReader::new(buf);
        let mut ref_pos = 0usize;
        loop {
            let expect = reference_get_varint(buf, &mut ref_pos);
            let got = fast.get_varint();
            assert_eq!(got, expect, "value mismatch in {buf:02x?}");
            if expect.is_ok() {
                assert_eq!(fast.pos(), ref_pos, "cursor mismatch in {buf:02x?}");
            }
            if expect.is_err() || ref_pos >= buf.len() {
                return;
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_on_canonical_encodings() {
        // Every varint length 1..=10 bytes, with interesting values at
        // each length boundary.
        let mut buf = Vec::new();
        for k in 0..64 {
            put_varint(&mut buf, 1u64 << k);
            put_varint(&mut buf, (1u64 << k) - 1);
        }
        put_varint(&mut buf, u64::MAX);
        put_varint(&mut buf, 0);
        assert_decodes_identically(&buf);
    }

    #[test]
    fn fast_path_falls_back_at_slab_tail() {
        // A varint that ends exactly at the buffer end, at every distance
        // <8 from the end — the window guard must route these through the
        // byte loop and still agree.
        for val in [0u64, 127, 128, 16_383, 16_384, u64::from(u32::MAX)] {
            let mut buf = Vec::new();
            put_varint(&mut buf, val);
            for pad in 0..8usize {
                let mut padded = vec![0u8; 0];
                padded.extend_from_slice(&buf);
                padded.extend(std::iter::repeat_n(0u8, pad));
                assert_decodes_identically(&padded);
            }
        }
    }

    #[test]
    fn truncated_and_overlong_inputs_error_identically() {
        // All-continuation bytes: EOF when short, overflow when ≥11 long.
        for len in 1..16usize {
            let buf = vec![0x80u8; len];
            assert_decodes_identically(&buf);
        }
        // 10-byte varint (historical truncation quirk) and an 11-byte one
        // (overflow) — both start with ≥8 continuation bytes, so the fast
        // path must defer to the slow loop.
        let mut ten = vec![0xFFu8; 9];
        ten.push(0x01);
        assert_decodes_identically(&ten);
        let mut eleven = vec![0xFFu8; 10];
        eleven.push(0x01);
        assert_decodes_identically(&eleven);
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random byte soup decodes identically through the
        /// word-at-a-time fast path and the byte-loop reference —
        /// values, error kinds, and cursor positions.
        #[test]
        fn fast_varint_matches_reference_on_random_bytes(
            bytes in proptest::collection::vec(0u8..=255u8, 0..40),
        ) {
            let mut fast = SliceReader::new(&bytes);
            let mut ref_pos = 0usize;
            loop {
                let expect = {
                    let mut v: u64 = 0;
                    let mut shift = 0;
                    loop {
                        match bytes.get(ref_pos) {
                            None => break Err(CodecError::UnexpectedEof),
                            Some(&byte) => {
                                ref_pos += 1;
                                if shift >= 64 {
                                    break Err(CodecError::VarintOverflow);
                                }
                                v |= u64::from(byte & 0x7F) << shift;
                                if byte & 0x80 == 0 {
                                    break Ok(v);
                                }
                                shift += 7;
                            }
                        }
                    }
                };
                let got = fast.get_varint();
                prop_assert_eq!(&got, &expect);
                if expect.is_ok() {
                    prop_assert_eq!(fast.pos(), ref_pos);
                }
                if expect.is_err() || ref_pos >= bytes.len() {
                    break;
                }
            }
        }

        #[test]
        fn roundtrip_any_list(
            entries in proptest::collection::btree_map(0u32..100_000, 1u32..20, 0..50)
        ) {
            let mut l = PostingList::new();
            for (&node, &tf) in &entries {
                l.push(NodeId(node), tf);
            }
            prop_assert_eq!(decode(&encode(&l)).unwrap(), l);
        }
    }
}
