//! The in-memory XML tree model.
//!
//! An XML document is a rooted, node-labelled, ordered tree (§III).
//! Attribute nodes and PCDATA are treated as element nodes; only leaf nodes
//! carry text. A collection of documents is merged under a virtual root.
//!
//! Nodes live in a preorder (document-order) arena, so a `NodeId` is both a
//! stable handle and a document-order rank, and parent ids are always
//! smaller than child ids.
//!
//! The arena is two parallel columns. Ancestor climbs, subtree gates and
//! type checks — everything the query walk does per posting — read only
//! the 16-byte [`HotNode`]s, so a publication's nodes share one or two
//! cache lines; labels, ordinals, text ranges and child/sibling links sit
//! in the [`ColdNode`] column that only construction, serialisation and
//! display touch. Links are `u32` with [`NIL`] for "none".

use crate::dewey::Dewey;
use crate::label::{LabelId, LabelTable, PathId, PathTable};

/// Index of a node in the tree arena. Doubles as the node's preorder rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// "No node" / "no text" in the `u32` link and offset columns. Never a
/// valid node id or text offset: [`XmlTree::append`] and the text arena
/// both stay below it.
pub(crate) const NIL: u32 = u32::MAX;

fn link(raw: u32) -> Option<NodeId> {
    (raw != NIL).then_some(NodeId(raw))
}

/// What the query walk reads of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HotNode {
    /// Parent id, [`NIL`] for the root.
    pub(crate) parent: u32,
    pub(crate) depth: u32,
    pub(crate) path: PathId,
    /// Exclusive end of this node's subtree in preorder: all ids in
    /// `self.0 .. subtree_end` are descendants-or-self.
    pub(crate) subtree_end: u32,
}

/// The rest of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColdNode {
    pub(crate) label: LabelId,
    /// Ordinal among siblings, 1-based (Dewey component).
    pub(crate) ordinal: u32,
    /// Directly attached text (leaf content) as an `(offset, len)` byte
    /// range into the tree's shared text arena; offset [`NIL`] for none.
    pub(crate) text_off: u32,
    pub(crate) text_len: u32,
    /// First child / next sibling id, [`NIL`] for none.
    pub(crate) first_child: u32,
    pub(crate) next_sibling: u32,
}

/// An element still open during preorder construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenElement {
    node: NodeId,
    next_ordinal: u32,
    /// Last child appended so far, [`NIL`] for none.
    last_child: u32,
}

/// A rooted, labelled, ordered XML tree with interned labels and paths.
///
/// Node text lives in one shared arena (`text_blob`) addressed by
/// `(offset, len)` ranges, so building or loading a tree costs one
/// growing allocation instead of one `String` per text node.
#[derive(Debug, Clone)]
pub struct XmlTree {
    pub(crate) hot: Vec<HotNode>,
    pub(crate) cold: Vec<ColdNode>,
    pub(crate) text_blob: String,
    pub(crate) labels: LabelTable,
    pub(crate) paths: PathTable,
}

impl XmlTree {
    /// A tree with no nodes yet, over an already-filled label table.
    pub(crate) fn empty(labels: LabelTable) -> XmlTree {
        XmlTree {
            hot: Vec::new(),
            cold: Vec::new(),
            text_blob: String::new(),
            labels,
            paths: PathTable::new(),
        }
    }

    /// Appends the next preorder node as the last child of the innermost
    /// open element (as the root when `open` is empty) and opens it.
    /// Derives parent, depth, ordinal, label path and the sibling links;
    /// subtree extents wait for [`XmlTree::seal_extents`].
    pub(crate) fn append(
        &mut self,
        open: &mut Vec<OpenElement>,
        label: LabelId,
        text: Option<(u32, u32)>,
    ) -> NodeId {
        let id = u32::try_from(self.hot.len()).expect("tree exceeds u32 node ids");
        assert!(id != NIL, "tree exceeds u32 node ids");
        let (parent, depth, path, ordinal) = match open.last_mut() {
            None => (NIL, 1, self.paths.intern_root(label), 1),
            Some(top) => {
                let ordinal = top.next_ordinal;
                top.next_ordinal += 1;
                match std::mem::replace(&mut top.last_child, id) {
                    NIL => self.cold[top.node.index()].first_child = id,
                    prev => self.cold[prev as usize].next_sibling = id,
                }
                let p = self.hot[top.node.index()];
                let path = self.paths.intern_child(p.path, label);
                (top.node.0, p.depth + 1, path, ordinal)
            }
        };
        self.hot.push(HotNode {
            parent,
            depth,
            path,
            subtree_end: id + 1,
        });
        let (text_off, text_len) = text.unwrap_or((NIL, 0));
        self.cold.push(ColdNode {
            label,
            ordinal,
            text_off,
            text_len,
            first_child: NIL,
            next_sibling: NIL,
        });
        open.push(OpenElement {
            node: NodeId(id),
            next_ordinal: 1,
            last_child: NIL,
        });
        NodeId(id)
    }

    /// Computes subtree extents once every node is appended. Children have
    /// larger preorder ids than their parents, so one backwards sweep sees
    /// each node's final extent before folding it into its parent's.
    pub(crate) fn seal_extents(&mut self) {
        for i in (1..self.hot.len()).rev() {
            let HotNode {
                parent,
                subtree_end,
                ..
            } = self.hot[i];
            let p = &mut self.hot[parent as usize];
            p.subtree_end = p.subtree_end.max(subtree_end);
        }
    }

    /// Appends `text` to the shared arena and returns its range.
    pub(crate) fn push_text(&mut self, text: &str) -> Option<(u32, u32)> {
        let off = u32::try_from(self.text_blob.len()).ok()?;
        self.text_blob.push_str(text);
        let end = u32::try_from(self.text_blob.len()).ok()?;
        (end != NIL).then_some((off, end - off))
    }
}

/// Builder used by parsers and generators to construct trees in document
/// order.
#[derive(Debug)]
pub struct TreeBuilder {
    tree: XmlTree,
    stack: Vec<OpenElement>,
}

impl TreeBuilder {
    /// Starts a tree whose root element has the given label.
    pub fn new(root_label: &str) -> Self {
        let mut tree = XmlTree::empty(LabelTable::new());
        let mut stack = Vec::new();
        let label = tree.labels.intern(root_label);
        tree.append(&mut stack, label, None);
        TreeBuilder { tree, stack }
    }

    /// Opens a child element of the current node and makes it current.
    pub fn open(&mut self, label: &str) -> NodeId {
        assert!(!self.stack.is_empty(), "builder stack underflow");
        let label = self.tree.labels.intern(label);
        self.tree.append(&mut self.stack, label, None)
    }

    /// Appends text to the current node's content.
    pub fn text(&mut self, text: &str) {
        let id = self.stack.last().expect("builder stack underflow").node;
        let blob = &mut self.tree.text_blob;
        let node = &mut self.tree.cold[id.index()];
        let arena_end = |blob: &String| match u32::try_from(blob.len()) {
            Ok(end) if end != NIL => end,
            _ => panic!("text arena exceeds 4 GiB"),
        };
        if node.text_off == NIL {
            node.text_off = arena_end(blob);
        } else {
            // Mixed content can interleave children between text runs;
            // if this node's text is no longer at the arena's end, move
            // it there so the range stays contiguous.
            let (off, len) = (node.text_off as usize, node.text_len as usize);
            if off + len != blob.len() {
                let moved = blob[off..off + len].to_string();
                node.text_off = arena_end(blob);
                blob.push_str(&moved);
            }
            let existing = &blob[node.text_off as usize..];
            if !existing.is_empty() && !existing.ends_with(char::is_whitespace) {
                blob.push(' ');
            }
        }
        blob.push_str(text);
        node.text_len = arena_end(blob) - node.text_off;
    }

    /// Convenience: `open`, `text`, `close`.
    pub fn leaf(&mut self, label: &str, text: &str) -> NodeId {
        let id = self.open(label);
        self.text(text);
        self.close();
        id
    }

    /// Closes the current element.
    pub fn close(&mut self) {
        assert!(self.stack.len() > 1, "cannot close the root element");
        self.stack.pop();
    }

    /// Finishes the tree. Any still-open elements are closed implicitly.
    /// The finished tree is immutable, so the growth slack of its columns
    /// (up to half their capacity) is handed back.
    pub fn finish(mut self) -> XmlTree {
        self.tree.seal_extents();
        self.tree.hot.shrink_to_fit();
        self.tree.cold.shrink_to_fit();
        self.tree.text_blob.shrink_to_fit();
        self.tree
    }
}

impl XmlTree {
    /// The root node (always id 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// `true` for a tree with no nodes (never constructible via the
    /// builder, which always creates a root).
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// The label interner.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// The label-path interner.
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// The node's element label.
    pub fn label(&self, id: NodeId) -> LabelId {
        self.cold[id.index()].label
    }

    /// The node's label as a string.
    pub fn label_name(&self, id: NodeId) -> &str {
        self.labels.name(self.cold[id.index()].label)
    }

    /// The node's label path (node type).
    pub fn path(&self, id: NodeId) -> PathId {
        self.hot[id.index()].path
    }

    /// The node's label path rendered as `/a/b/c`.
    pub fn path_string(&self, id: NodeId) -> String {
        self.paths.display(self.hot[id.index()].path, &self.labels)
    }

    /// The node's parent, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        link(self.hot[id.index()].parent)
    }

    /// Depth of the node; the root has depth 1 (§III).
    pub fn depth(&self, id: NodeId) -> u32 {
        self.hot[id.index()].depth
    }

    /// Directly attached text, if any.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        let ColdNode {
            text_off, text_len, ..
        } = self.cold[id.index()];
        (text_off != NIL)
            .then(|| &self.text_blob[text_off as usize..(text_off + text_len) as usize])
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            tree: self,
            next: link(self.cold[id.index()].first_child),
        }
    }

    /// All node ids in document (preorder) order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        (0..self.hot.len() as u32).map(NodeId)
    }

    /// The exclusive preorder end of `id`'s subtree; ids in
    /// `id.0..subtree_end(id)` are exactly the descendants-or-self of `id`.
    pub fn subtree_end(&self, id: NodeId) -> u32 {
        self.hot[id.index()].subtree_end
    }

    /// Descendants-or-self of `id`, in document order.
    pub fn subtree(&self, id: NodeId) -> impl Iterator<Item = NodeId> {
        (id.0..self.subtree_end(id)).map(NodeId)
    }

    /// `true` iff `a` is an ancestor-or-self of `b`.
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        a.0 <= b.0 && b.0 < self.subtree_end(a)
    }

    /// Computes the Dewey code of a node by walking parent pointers
    /// (`O(depth)`).
    pub fn dewey(&self, id: NodeId) -> Dewey {
        let mut comps = Vec::with_capacity(self.depth(id) as usize);
        let mut cur = Some(id);
        while let Some(c) = cur {
            comps.push(self.cold[c.index()].ordinal);
            cur = self.parent(c);
        }
        comps.reverse();
        Dewey::from_components(comps)
    }

    /// Resolves a Dewey code back to a node id, if it addresses a node.
    pub fn node_at(&self, dewey: &Dewey) -> Option<NodeId> {
        let comps = dewey.components();
        if comps.is_empty() || comps[0] != 1 {
            return None;
        }
        let mut cur = self.root();
        for &ord in &comps[1..] {
            cur = self.children(cur).nth((ord as usize).checked_sub(1)?)?;
        }
        Some(cur)
    }

    /// The lowest common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a.index(), b.index());
        while self.hot[a].depth > self.hot[b].depth {
            a = self.hot[a].parent as usize;
        }
        while self.hot[b].depth > self.hot[a].depth {
            b = self.hot[b].parent as usize;
        }
        // Equal depths: both climbs reach the root together at the latest.
        while a != b {
            a = self.hot[a].parent as usize;
            b = self.hot[b].parent as usize;
        }
        NodeId(a as u32)
    }

    /// The ancestor of `id` at the given depth (1 = root). Returns `id`
    /// itself if its depth equals `depth`; `None` if `id` is shallower
    /// (or `depth` is 0, which no node has).
    pub fn ancestor_at_depth(&self, id: NodeId, depth: u32) -> Option<NodeId> {
        let d = self.hot[id.index()].depth;
        if depth == 0 || d < depth {
            return None;
        }
        let mut cur = id.0;
        for _ in depth..d {
            cur = self.hot[cur as usize].parent;
        }
        Some(NodeId(cur))
    }

    /// Concatenated text of the whole subtree (the paper's *virtual
    /// document* `D(r)`, §IV-B2), in document order.
    pub fn virtual_document(&self, id: NodeId) -> String {
        let mut s = String::new();
        for n in self.subtree(id) {
            if let Some(t) = self.text(n) {
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(t);
            }
        }
        s
    }
}

/// Iterator over a node's children.
pub struct Children<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = link(self.tree.cold[cur.index()].next_sibling);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the sample tree of the paper's Figure 2 (simplified):
    /// ```text
    /// a(1)
    /// ├── c(1.1) ── x(1.1.1,"tree")
    /// ├── c(1.2) ── x(1.2.1,"trie"), x(1.2.2,"tree"), y(1.2.3,"icde")
    /// ├── d(1.3) ── x(1.3.1,"trie"), y(1.3.2,"icdt icde")
    /// └── d(1.4) ── x(1.4.1,"trie"), y(1.4.2,"icde")
    /// ```
    pub(crate) fn sample_tree() -> XmlTree {
        let mut b = TreeBuilder::new("a");
        b.open("c");
        b.leaf("x", "tree");
        b.close();
        b.open("c");
        b.leaf("x", "trie");
        b.leaf("x", "tree");
        b.leaf("y", "icde");
        b.close();
        b.open("d");
        b.leaf("x", "trie");
        b.leaf("y", "icdt icde");
        b.close();
        b.open("d");
        b.leaf("x", "trie");
        b.leaf("y", "icde");
        b.close();
        b.finish()
    }

    #[test]
    fn builder_produces_document_order() {
        let t = sample_tree();
        assert_eq!(t.len(), 13);
        let root = t.root();
        assert_eq!(t.label_name(root), "a");
        let kids: Vec<_> = t.children(root).collect();
        assert_eq!(kids.len(), 4);
        assert_eq!(t.label_name(kids[0]), "c");
        assert_eq!(t.label_name(kids[2]), "d");
    }

    #[test]
    fn dewey_roundtrip() {
        let t = sample_tree();
        for n in t.iter() {
            let d = t.dewey(n);
            assert_eq!(t.node_at(&d), Some(n), "dewey {d} should resolve");
        }
        assert!(t.node_at(&Dewey::parse("1.9").unwrap()).is_none());
        assert!(t.node_at(&Dewey::parse("2").unwrap()).is_none());
    }

    #[test]
    fn dewey_matches_document_order() {
        let t = sample_tree();
        let deweys: Vec<_> = t.iter().map(|n| t.dewey(n)).collect();
        let mut sorted = deweys.clone();
        sorted.sort();
        assert_eq!(deweys, sorted, "preorder arena must agree with Dewey order");
    }

    #[test]
    fn subtree_extents() {
        let t = sample_tree();
        let root = t.root();
        assert_eq!(t.subtree_end(root), t.len() as u32);
        let c2 = t.node_at(&Dewey::parse("1.2").unwrap()).unwrap();
        let sub: Vec<_> = t.subtree(c2).map(|n| t.dewey(n).to_string()).collect();
        assert_eq!(sub, vec!["1.2", "1.2.1", "1.2.2", "1.2.3"]);
        let leaf = t.node_at(&Dewey::parse("1.2.3").unwrap()).unwrap();
        assert!(t.is_ancestor_or_self(c2, leaf));
        assert!(!t.is_ancestor_or_self(leaf, c2));
    }

    /// Regression test: `subtree_end` of nodes on the "last descendant"
    /// spine used to be computed from parents' not-yet-computed extents.
    #[test]
    fn subtree_end_is_consistent_for_every_node() {
        let t = sample_tree();
        for n in t.iter() {
            let end = t.subtree_end(n);
            assert!(end > n.0, "subtree contains the node itself");
            // Every node in the claimed range must have n as ancestor-or-self.
            for m in t.subtree(n) {
                let mut cur = Some(m);
                let mut found = false;
                while let Some(c) = cur {
                    if c == n {
                        found = true;
                        break;
                    }
                    cur = t.parent(c);
                }
                assert!(found, "{m:?} not a descendant of {n:?}");
            }
            // And the node just past the range must not.
            if (end as usize) < t.len() {
                let m = NodeId(end);
                let mut cur = Some(m);
                while let Some(c) = cur {
                    assert_ne!(c, n, "{m:?} wrongly inside subtree of {n:?}");
                    cur = t.parent(c);
                }
            }
        }
    }

    #[test]
    fn lca_and_ancestor_at_depth() {
        let t = sample_tree();
        let a = t.node_at(&Dewey::parse("1.2.1").unwrap()).unwrap();
        let b = t.node_at(&Dewey::parse("1.2.3").unwrap()).unwrap();
        let c = t.node_at(&Dewey::parse("1.3.1").unwrap()).unwrap();
        assert_eq!(t.dewey(t.lca(a, b)).to_string(), "1.2");
        assert_eq!(t.dewey(t.lca(a, c)).to_string(), "1");
        assert_eq!(
            t.dewey(t.ancestor_at_depth(a, 2).unwrap()).to_string(),
            "1.2"
        );
        assert_eq!(t.ancestor_at_depth(a, 4), None);
        assert_eq!(t.ancestor_at_depth(a, 3), Some(a));
    }

    #[test]
    fn virtual_document_concatenates_subtree_text() {
        let t = sample_tree();
        let d3 = t.node_at(&Dewey::parse("1.3").unwrap()).unwrap();
        assert_eq!(t.virtual_document(d3), "trie icdt icde");
    }

    #[test]
    fn path_strings() {
        let t = sample_tree();
        let x = t.node_at(&Dewey::parse("1.2.1").unwrap()).unwrap();
        assert_eq!(t.path_string(x), "/a/c/x");
        let y = t.node_at(&Dewey::parse("1.3.2").unwrap()).unwrap();
        assert_eq!(t.path_string(y), "/a/d/y");
    }

    #[test]
    fn text_accumulates() {
        let mut b = TreeBuilder::new("r");
        b.open("p");
        b.text("hello");
        b.text("world");
        b.close();
        let t = b.finish();
        let p = t.children(t.root()).next().unwrap();
        assert_eq!(t.text(p), Some("hello world"));
    }
}
