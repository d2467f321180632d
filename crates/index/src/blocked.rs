//! Block-compressed posting lists with decode-on-access.
//!
//! The paper's efficiency argument (§V-C) is about *I/O*: `skip_to`
//! avoids reading most of the inverted lists. In-memory struct-of-arrays
//! lists make reads nearly free, hiding that effect. This module provides
//! the storage-oriented representation: postings are varint-encoded in
//! blocks of [`BLOCK_SIZE`] entries with a skip table of `(first node,
//! block)` pairs; a cursor decodes a block only when entered, so
//! `skip_to` genuinely avoids decoding (≈ reading) skipped regions.
//!
//! Equivalence with the plain representation is property-tested. Nothing
//! on the serving path uses this store yet (ROADMAP A(iii) decides it by
//! measurement).

use xclean_xmltree::{NodeId, PathId};

use crate::codec::{put_varint, SliceReader};
use crate::posting::{Posting, PostingList};

/// Entries per block. 128 balances skip granularity against per-block
/// overhead (a common choice in IR systems).
pub const BLOCK_SIZE: usize = 128;

/// An owned, decoded posting (blocked cursors cannot hand out references
/// into a shared Dewey arena, so components are owned here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedPosting {
    /// The node (document-order rank).
    pub node: NodeId,
    /// The node's label path.
    pub path: PathId,
    /// Term frequency in the node's direct text.
    pub tf: u32,
    /// Dewey components.
    pub dewey: Vec<u32>,
}

impl OwnedPosting {
    /// Copies a borrowed [`Posting`] into owned form.
    pub fn from_posting(p: Posting<'_>) -> Self {
        OwnedPosting {
            node: p.node,
            path: p.path,
            tf: p.tf,
            dewey: p.dewey.to_vec(),
        }
    }
}

/// A posting list stored as independently decodable compressed blocks.
#[derive(Debug, Clone)]
pub struct BlockedPostingList {
    /// Encoded blocks (each self-contained: deltas restart per block).
    blocks: Vec<Vec<u8>>,
    /// First node id of each block (the skip table).
    first_nodes: Vec<NodeId>,
    /// Entries per block (all `BLOCK_SIZE` except possibly the last).
    block_lens: Vec<u32>,
    len: usize,
}

impl BlockedPostingList {
    /// Encodes a plain posting list into blocks.
    pub fn from_plain(list: &PostingList) -> Self {
        let mut blocks = Vec::new();
        let mut first_nodes = Vec::new();
        let mut block_lens = Vec::new();
        let mut i = 0usize;
        while i < list.len() {
            let end = (i + BLOCK_SIZE).min(list.len());
            let mut buf = Vec::new();
            let mut prev_node = 0u64;
            let mut prev_dewey: Vec<u32> = Vec::new();
            let mut first = true;
            for j in i..end {
                let p = list.get(j);
                let node = u64::from(p.node.0);
                if first {
                    put_varint(&mut buf, node);
                    first_nodes.push(p.node);
                    first = false;
                } else {
                    put_varint(&mut buf, node - prev_node);
                }
                prev_node = node;
                put_varint(&mut buf, u64::from(p.path.0));
                put_varint(&mut buf, u64::from(p.tf));
                let shared = prev_dewey
                    .iter()
                    .zip(p.dewey.iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                put_varint(&mut buf, shared as u64);
                put_varint(&mut buf, (p.dewey.len() - shared) as u64);
                for &c in &p.dewey[shared..] {
                    put_varint(&mut buf, u64::from(c));
                }
                prev_dewey.clear();
                prev_dewey.extend_from_slice(p.dewey);
            }
            block_lens.push((end - i) as u32);
            blocks.push(buf);
            i = end;
        }
        BlockedPostingList {
            blocks,
            first_nodes,
            block_lens,
            len: list.len(),
        }
    }

    /// Total number of postings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list has no postings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total encoded bytes (the I/O a full read would cost).
    pub fn encoded_bytes(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    fn decode_block(&self, b: usize) -> Vec<OwnedPosting> {
        let mut buf = SliceReader::new(&self.blocks[b]);
        let n = self.block_lens[b] as usize;
        let mut out = Vec::with_capacity(n);
        let mut prev_node = 0u64;
        let mut prev_dewey: Vec<u32> = Vec::new();
        let mut first = true;
        for _ in 0..n {
            let v = buf.get_varint().expect("self-produced block");
            let node = if first { v } else { prev_node + v };
            first = false;
            prev_node = node;
            let path = buf.get_varint().expect("path") as u32;
            let tf = buf.get_varint().expect("tf") as u32;
            let shared = buf.get_varint().expect("shared") as usize;
            let suffix = buf.get_varint().expect("suffix") as usize;
            prev_dewey.truncate(shared);
            for _ in 0..suffix {
                prev_dewey.push(buf.get_varint().expect("component") as u32);
            }
            out.push(OwnedPosting {
                node: NodeId(node as u32),
                path: PathId(path),
                tf,
                dewey: prev_dewey.clone(),
            });
        }
        out
    }

    /// Opens a cursor at the first posting.
    pub fn cursor(&self) -> BlockedCursor<'_> {
        BlockedCursor {
            list: self,
            block: 0,
            decoded: None,
            pos: 0,
            blocks_decoded: 0,
        }
    }
}

/// A forward cursor over a blocked list; decodes blocks lazily.
pub struct BlockedCursor<'a> {
    list: &'a BlockedPostingList,
    /// Current block index.
    block: usize,
    /// Decoded entries of the current block, if any.
    decoded: Option<Vec<OwnedPosting>>,
    /// Position within the current block.
    pos: usize,
    /// How many blocks this cursor has decoded (the "I/O" counter).
    blocks_decoded: u64,
}

impl BlockedCursor<'_> {
    fn ensure_decoded(&mut self) {
        if self.decoded.is_none() && self.block < self.list.blocks.len() {
            self.decoded = Some(self.list.decode_block(self.block));
            self.blocks_decoded += 1;
        }
    }

    /// The current posting, if not exhausted (decodes the current block).
    pub fn current(&mut self) -> Option<OwnedPosting> {
        loop {
            if self.block >= self.list.blocks.len() {
                return None;
            }
            self.ensure_decoded();
            let d = self.decoded.as_ref().expect("just decoded");
            if self.pos < d.len() {
                return Some(d[self.pos].clone());
            }
            self.block += 1;
            self.pos = 0;
            self.decoded = None;
        }
    }

    /// Advances past the current posting.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Positions the cursor at the first posting with node `>= target`,
    /// decoding only the one block that can contain it.
    pub fn skip_to(&mut self, target: NodeId) {
        // `partition_point` gives the first block whose first node is
        // >= target; unless that block starts exactly at the target, the
        // target may live in the previous block.
        let candidate = self.list.first_nodes.partition_point(|&f| f < target);
        let block = if candidate < self.list.first_nodes.len()
            && self.list.first_nodes[candidate] == target
        {
            candidate
        } else {
            candidate.saturating_sub(1)
        };
        if block > self.block || (block == self.block && self.decoded.is_none()) {
            self.block = block;
            self.pos = 0;
            self.decoded = None;
        }
        // Linear scan within at most two blocks.
        while let Some(p) = self.current() {
            if p.node >= target {
                return;
            }
            self.advance();
        }
    }

    /// Number of blocks decoded so far.
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(nodes: &[u32]) -> PostingList {
        let mut l = PostingList::new();
        for &n in nodes {
            l.push(NodeId(n), PathId(n % 7), 1 + n % 3, &[1, n / 10, n]);
        }
        l
    }

    #[test]
    fn roundtrip_matches_plain() {
        let nodes: Vec<u32> = (0..1000).map(|i| i * 3 + (i % 5)).collect();
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let p = plain(&sorted);
        let b = BlockedPostingList::from_plain(&p);
        assert_eq!(b.len(), p.len());
        assert_eq!(b.block_count(), p.len().div_ceil(BLOCK_SIZE));
        let mut c = b.cursor();
        for i in 0..p.len() {
            let got = c.current().expect("entry");
            let want = p.get(i);
            assert_eq!(got, OwnedPosting::from_posting(want), "entry {i}");
            c.advance();
        }
        assert!(c.current().is_none());
    }

    #[test]
    fn skip_to_decodes_only_needed_blocks() {
        let nodes: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        let p = plain(&nodes);
        let b = BlockedPostingList::from_plain(&p);
        let mut c = b.cursor();
        // Jump deep into the list: at most two blocks may be decoded.
        c.skip_to(NodeId(15_000));
        assert_eq!(c.current().unwrap().node, NodeId(15_000));
        assert!(
            c.blocks_decoded() <= 2,
            "decoded {} blocks",
            c.blocks_decoded()
        );
        // A full drain by comparison decodes every block.
        let mut d = b.cursor();
        let mut count = 0;
        while d.current().is_some() {
            d.advance();
            count += 1;
        }
        assert_eq!(count, 10_000);
        assert_eq!(d.blocks_decoded(), b.block_count() as u64);
    }

    #[test]
    fn skip_to_matches_linear_semantics() {
        let nodes: Vec<u32> = (0..500).map(|i| i * 7 % 3001).collect::<Vec<_>>();
        let mut sorted = nodes;
        sorted.sort_unstable();
        sorted.dedup();
        let p = plain(&sorted);
        let b = BlockedPostingList::from_plain(&p);
        for target in [0u32, 1, 500, 1499, 1500, 2999, 3000, 9999] {
            let mut c = b.cursor();
            c.skip_to(NodeId(target));
            let expect = sorted.iter().copied().find(|&n| n >= target);
            assert_eq!(c.current().map(|p| p.node.0), expect, "target {target}");
        }
    }

    #[test]
    fn empty_list() {
        let p = PostingList::new();
        let b = BlockedPostingList::from_plain(&p);
        assert!(b.is_empty());
        let mut c = b.cursor();
        assert!(c.current().is_none());
        c.skip_to(NodeId(5));
        assert!(c.current().is_none());
    }

    #[test]
    fn interleaved_advance_and_skip() {
        let nodes: Vec<u32> = (0..400).map(|i| i * 5).collect();
        let p = plain(&nodes);
        let b = BlockedPostingList::from_plain(&p);
        let mut c = b.cursor();
        assert_eq!(c.current().unwrap().node, NodeId(0));
        c.advance();
        c.skip_to(NodeId(777));
        assert_eq!(c.current().unwrap().node, NodeId(780));
        c.advance();
        assert_eq!(c.current().unwrap().node, NodeId(785));
        c.skip_to(NodeId(100)); // backwards skip is a no-op
        assert_eq!(c.current().unwrap().node, NodeId(785));
    }

    #[test]
    fn compression_is_effective() {
        let nodes: Vec<u32> = (0..5_000).map(|i| i + 1).collect();
        let p = plain(&nodes);
        let b = BlockedPostingList::from_plain(&p);
        // Flat layout would be ≥ 24 bytes/entry.
        assert!(b.encoded_bytes() < p.len() * 10, "{}", b.encoded_bytes());
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn blocked_equals_plain(
            raw in proptest::collection::btree_set(0u32..5_000, 0..400),
            targets in proptest::collection::vec(0u32..5_200, 0..12),
        ) {
            let nodes: Vec<u32> = raw.into_iter().collect();
            let mut p = PostingList::new();
            for &n in &nodes {
                p.push(NodeId(n), PathId(n % 5), 1, &[1, n]);
            }
            let b = BlockedPostingList::from_plain(&p);
            // Interleave skips with reads; compare against the plain list.
            let mut c = b.cursor();
            let mut targets = targets;
            targets.sort_unstable();
            for t in targets {
                c.skip_to(NodeId(t));
                let expect = nodes.iter().copied().find(|&n| n >= t);
                prop_assert_eq!(c.current().map(|p| p.node.0), expect);
            }
        }
    }
}
