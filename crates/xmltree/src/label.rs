//! Interned element labels and label paths.
//!
//! A node's *label path* is the concatenation of element labels from the
//! root down to the node (§III). Label paths act as node *types*: two nodes
//! with the same label path carry the same sort of information. Both labels
//! and label paths are interned to small integer ids so the index can store
//! and compare them cheaply.

use std::collections::HashMap;

/// Interned element label (e.g. `author`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

/// Interned label path (e.g. `/dblp/article/author`), a.k.a. node type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl PathId {
    /// Sentinel used by dense per-path tables before a real id is known.
    pub const INVALID: PathId = PathId(u32::MAX);
}

/// Interner for element labels.
#[derive(Debug, Default, Clone)]
pub struct LabelTable {
    names: Vec<String>,
    by_name: HashMap<String, LabelId, IdBuildHasher>,
}

impl LabelTable {
    /// Creates an empty label table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned label.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// The label's string form.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no labels are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Deterministic multiplicative hasher for the interner maps.
///
/// The interners probe once per node or token while a tree is built or
/// loaded and while an index is tokenised, and their keys are a pair of
/// `u32` ids or a short string — SipHash (the `HashMap` default) costs
/// more than the rest of the probe combined. A multiplicative
/// accumulator over `u32`s and 8-byte words, finished by a
/// splitmix64-style mix, gives the map well-distributed bits at a few
/// cycles per key. No interner iterates its map, so ids never depend on
/// the hash. The keys come from a corpus indexed offline or from its
/// snapshot, never from a request, so the maps need no defence against
/// keys crafted to collide.
#[derive(Debug, Default)]
pub struct IdHasher(u64);

/// The `HashMap` hasher builder of [`IdHasher`].
pub type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // The tail's length goes in its padding, so trailing zero
            // bytes still change the word.
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            w[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// Interner for label paths.
///
/// Paths are stored as parent-pointer pairs `(parent PathId, LabelId)`,
/// which makes extending a path during a tree walk an `O(1)` hash probe and
/// keeps memory proportional to the number of *distinct* paths — small in
/// practice even for deep document-centric data.
#[derive(Debug, Default, Clone)]
pub struct PathTable {
    /// `(parent, label)` per path; the root path's parent is itself.
    entries: Vec<(PathId, LabelId)>,
    depths: Vec<u32>,
    by_key: HashMap<(PathId, LabelId), PathId, IdBuildHasher>,
}

/// Key used for a root-level path: its "parent" is the invalid sentinel.
const ROOT_PARENT: PathId = PathId(u32::MAX);

impl PathTable {
    /// Creates an empty path table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the root-level path `/<label>`.
    pub fn intern_root(&mut self, label: LabelId) -> PathId {
        self.intern_child(ROOT_PARENT, label)
    }

    /// Interns the extension of `parent` by `label`. Passing
    /// `PathId::INVALID` as parent creates a root-level path.
    pub fn intern_child(&mut self, parent: PathId, label: LabelId) -> PathId {
        if let Some(&id) = self.by_key.get(&(parent, label)) {
            return id;
        }
        let id = PathId(self.entries.len() as u32);
        let depth = if parent == ROOT_PARENT {
            1
        } else {
            self.depths[parent.0 as usize] + 1
        };
        self.entries.push((parent, label));
        self.depths.push(depth);
        self.by_key.insert((parent, label), id);
        id
    }

    /// The number of labels on the path (root-level paths have depth 1).
    pub fn depth(&self, id: PathId) -> u32 {
        self.depths[id.0 as usize]
    }

    /// The last label of the path (the label of nodes with this type).
    pub fn label(&self, id: PathId) -> LabelId {
        self.entries[id.0 as usize].1
    }

    /// The parent path, or `None` for root-level paths.
    pub fn parent(&self, id: PathId) -> Option<PathId> {
        let (p, _) = self.entries[id.0 as usize];
        if p == ROOT_PARENT {
            None
        } else {
            Some(p)
        }
    }

    /// The sequence of labels from the root to this path.
    pub fn labels(&self, id: PathId) -> Vec<LabelId> {
        let mut out = Vec::with_capacity(self.depth(id) as usize);
        let mut cur = Some(id);
        while let Some(c) = cur {
            out.push(self.label(c));
            cur = self.parent(c);
        }
        out.reverse();
        out
    }

    /// Renders the path as `/a/b/c` using `labels` for names.
    pub fn display(&self, id: PathId, labels: &LabelTable) -> String {
        let mut s = String::new();
        for l in self.labels(id) {
            s.push('/');
            s.push_str(labels.name(l));
        }
        s
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no paths are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all interned path ids.
    pub fn iter(&self) -> impl Iterator<Item = PathId> {
        (0..self.entries.len() as u32).map(PathId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_interning_is_idempotent() {
        let mut t = LabelTable::new();
        let a = t.intern("author");
        let b = t.intern("title");
        let a2 = t.intern("author");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "author");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("title"), Some(b));
        assert_eq!(t.get("year"), None);
    }

    #[test]
    fn path_depth_and_display() {
        let mut labels = LabelTable::new();
        let (a, c, x) = (labels.intern("a"), labels.intern("c"), labels.intern("x"));
        let mut paths = PathTable::new();
        let pa = paths.intern_root(a);
        let pac = paths.intern_child(pa, c);
        let pacx = paths.intern_child(pac, x);
        assert_eq!(paths.depth(pa), 1);
        assert_eq!(paths.depth(pacx), 3);
        assert_eq!(paths.display(pacx, &labels), "/a/c/x");
        assert_eq!(paths.labels(pacx), vec![a, c, x]);
        assert_eq!(paths.parent(pacx), Some(pac));
        assert_eq!(paths.parent(pa), None);
    }

    #[test]
    fn path_interning_distinguishes_by_parent() {
        let mut labels = LabelTable::new();
        let (a, c, d, x) = (
            labels.intern("a"),
            labels.intern("c"),
            labels.intern("d"),
            labels.intern("x"),
        );
        let mut paths = PathTable::new();
        let pa = paths.intern_root(a);
        let pac = paths.intern_child(pa, c);
        let pad = paths.intern_child(pa, d);
        // /a/c/x and /a/d/x share a label but are distinct types
        let pacx = paths.intern_child(pac, x);
        let padx = paths.intern_child(pad, x);
        assert_ne!(pacx, padx);
        assert_eq!(paths.intern_child(pac, x), pacx);
        assert_eq!(paths.len(), 5);
    }
}
