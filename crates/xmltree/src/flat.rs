//! Flat preorder-column tree assembly.
//!
//! The v2 index snapshot stores the tree as parallel preorder columns
//! (depth, label index, optional text) rather than a builder replay.
//! [`PreorderAssembler`] turns those columns back into an [`XmlTree`] in
//! one O(n) pass: labels are interned once up front (not re-hashed per
//! node), and parent/ordinal/path/sibling links are re-derived from the
//! depth sequence with an explicit ancestor stack. Every structural
//! invariant the incremental [`crate::TreeBuilder`] maintains is either
//! re-established here or rejected with a [`TreeAssemblyError`] — a
//! corrupt column stream can never produce a malformed tree.

use crate::label::{LabelId, LabelTable};
use crate::tree::{NodeId, OpenElement, XmlTree, NIL};

/// Structural violation found while assembling a tree from flat columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeAssemblyError {
    /// The column stream contained no nodes.
    EmptyTree,
    /// The first node must be the root at depth 1.
    BadRootDepth(u32),
    /// A non-first node claimed depth 1 (a second root) or depth 0.
    SecondRoot {
        /// Preorder index of the offending node.
        index: usize,
    },
    /// A node's depth exceeded its predecessor's depth + 1: preorder can
    /// descend only one level at a time.
    DepthJump {
        /// Preorder index of the offending node.
        index: usize,
        /// Claimed depth.
        depth: u32,
        /// Depth of the preceding node.
        prev: u32,
    },
    /// A node referenced a label index outside the label table.
    LabelOutOfRange {
        /// Preorder index of the offending node.
        index: usize,
        /// The out-of-range label column value.
        label: u32,
    },
    /// A post-assembly structural invariant did not hold.
    InvariantViolated(&'static str),
}

impl std::fmt::Display for TreeAssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeAssemblyError::EmptyTree => write!(f, "tree has no nodes"),
            TreeAssemblyError::BadRootDepth(d) => write!(f, "root must have depth 1, got {d}"),
            TreeAssemblyError::SecondRoot { index } => {
                write!(f, "node {index} claims root depth")
            }
            TreeAssemblyError::DepthJump { index, depth, prev } => {
                write!(f, "node {index} jumps from depth {prev} to {depth}")
            }
            TreeAssemblyError::LabelOutOfRange { index, label } => {
                write!(f, "node {index} references unknown label {label}")
            }
            TreeAssemblyError::InvariantViolated(m) => write!(f, "tree invariant violated: {m}"),
        }
    }
}

impl std::error::Error for TreeAssemblyError {}

/// Assembles an [`XmlTree`] from flat preorder columns.
///
/// Feed nodes in preorder via [`PreorderAssembler::push`], then call
/// [`PreorderAssembler::finish`]. The assembler re-derives everything the
/// columns do not store: parent links, sibling chains, 1-based ordinals,
/// interned label paths, and subtree extents.
#[derive(Debug)]
pub struct PreorderAssembler {
    tree: XmlTree,
    /// Interned id for each label-column index.
    label_ids: Vec<LabelId>,
    /// The ancestors of the node appended last, itself included.
    stack: Vec<OpenElement>,
}

impl PreorderAssembler {
    /// Starts assembly over the given label table (label-column values
    /// index into `label_names`).
    pub fn new(label_names: &[String]) -> Self {
        let mut labels = LabelTable::new();
        let label_ids = label_names.iter().map(|n| labels.intern(n)).collect();
        PreorderAssembler {
            tree: XmlTree::empty(labels),
            label_ids,
            stack: Vec::new(),
        }
    }

    /// Reserves arena capacity for `nodes` nodes.
    pub fn reserve(&mut self, nodes: usize) {
        self.tree.hot.reserve(nodes);
        self.tree.cold.reserve(nodes);
    }

    /// Appends the next preorder node. Text is copied into the tree's
    /// shared arena, so callers can hand in borrowed slices (e.g. views
    /// into a snapshot) without allocating per node.
    pub fn push(
        &mut self,
        depth: u32,
        label_index: u32,
        text: Option<&str>,
    ) -> Result<NodeId, TreeAssemblyError> {
        let index = self.tree.hot.len();
        let label = *self.label_ids.get(label_index as usize).ok_or(
            TreeAssemblyError::LabelOutOfRange {
                index,
                label: label_index,
            },
        )?;
        if index >= NIL as usize {
            return Err(TreeAssemblyError::InvariantViolated(
                "tree exceeds u32 node ids",
            ));
        }
        let text =
            match text {
                Some(t) => Some(self.tree.push_text(t).ok_or(
                    TreeAssemblyError::InvariantViolated("text arena exceeds 4 GiB"),
                )?),
                None => None,
            };
        if index == 0 {
            if depth != 1 {
                return Err(TreeAssemblyError::BadRootDepth(depth));
            }
        } else {
            let prev = self.stack.len() as u32;
            if depth < 2 {
                return Err(TreeAssemblyError::SecondRoot { index });
            }
            if depth > prev + 1 {
                return Err(TreeAssemblyError::DepthJump { index, depth, prev });
            }
            // Pop back to the parent level: the stack then holds exactly
            // the ancestors of the node being appended.
            self.stack.truncate(depth as usize - 1);
        }
        Ok(self.tree.append(&mut self.stack, label, text))
    }

    /// Finishes assembly: computes subtree extents (one reverse pass) and
    /// re-checks every structural invariant.
    pub fn finish(mut self) -> Result<XmlTree, TreeAssemblyError> {
        if self.tree.hot.is_empty() {
            return Err(TreeAssemblyError::EmptyTree);
        }
        self.tree.seal_extents();
        self.tree.validate_structure()?;
        Ok(self.tree)
    }
}

impl XmlTree {
    /// Explicit O(n) structural validation: checks every invariant the
    /// incremental builder guarantees by construction. Used after
    /// assembling a tree from untrusted flat columns, and available to
    /// tests as an oracle.
    pub fn validate_structure(&self) -> Result<(), TreeAssemblyError> {
        use TreeAssemblyError::InvariantViolated;
        if self.hot.is_empty() {
            return Err(TreeAssemblyError::EmptyTree);
        }
        if self.cold.len() != self.hot.len() {
            return Err(InvariantViolated("node columns differ in length"));
        }
        let root = &self.hot[0];
        if root.parent != NIL || root.depth != 1 || self.cold[0].ordinal != 1 {
            return Err(InvariantViolated("malformed root"));
        }
        if root.subtree_end as usize != self.hot.len() {
            return Err(InvariantViolated("root subtree must span the arena"));
        }
        for (i, node) in self.hot.iter().enumerate().skip(1) {
            if node.parent == NIL {
                return Err(InvariantViolated("non-root without parent"));
            }
            if node.parent as usize >= i {
                return Err(InvariantViolated("parent id must precede child id"));
            }
            let parent = &self.hot[node.parent as usize];
            if parent.depth + 1 != node.depth {
                return Err(InvariantViolated("child depth ≠ parent depth + 1"));
            }
            if self.paths.parent(node.path) != Some(parent.path)
                || self.paths.label(node.path) != self.cold[i].label
            {
                return Err(InvariantViolated("label path disagrees with parentage"));
            }
            if self.cold[i].ordinal == 0 {
                return Err(InvariantViolated("ordinals are 1-based"));
            }
            // Subtrees nest: a child's extent stays inside its parent's.
            if node.subtree_end <= i as u32 || node.subtree_end > parent.subtree_end {
                return Err(InvariantViolated("subtree extents must nest"));
            }
            // Preorder contiguity: the node right after this subtree is
            // never a descendant, so its parent must sit at or above.
            if i as u32 + 1 < node.subtree_end && self.hot[i + 1].parent != i as u32 {
                return Err(InvariantViolated("first descendant must be first child"));
            }
        }
        // Sibling chains and first_child links agree with parent/ordinal.
        for (i, node) in self.cold.iter().enumerate() {
            let mut expected_ord = 1u32;
            let mut cur = node.first_child;
            while cur != NIL {
                let (child, hot) = self
                    .cold
                    .get(cur as usize)
                    .zip(self.hot.get(cur as usize))
                    .ok_or(InvariantViolated("child id out of range"))?;
                if hot.parent != i as u32 {
                    return Err(InvariantViolated("sibling chain crosses parents"));
                }
                if child.ordinal != expected_ord {
                    return Err(InvariantViolated("ordinals must be consecutive"));
                }
                expected_ord += 1;
                cur = child.next_sibling;
                if expected_ord as usize > self.hot.len() {
                    return Err(InvariantViolated("sibling cycle"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    type NodeRow = (u32, u32, Option<String>);

    fn columns_of(tree: &XmlTree) -> (Vec<String>, Vec<NodeRow>) {
        let labels: Vec<String> = (0..tree.labels().len() as u32)
            .map(|i| tree.labels().name(LabelId(i)).to_string())
            .collect();
        let rows = tree
            .iter()
            .map(|n| {
                (
                    tree.depth(n),
                    tree.label(n).0,
                    tree.text(n).map(str::to_string),
                )
            })
            .collect();
        (labels, rows)
    }

    fn reassemble(tree: &XmlTree) -> XmlTree {
        let (labels, rows) = columns_of(tree);
        let mut asm = PreorderAssembler::new(&labels);
        for (depth, label, text) in rows {
            asm.push(depth, label, text.as_deref()).unwrap();
        }
        asm.finish().unwrap()
    }

    fn sample() -> XmlTree {
        let mut b = TreeBuilder::new("a");
        b.open("c");
        b.leaf("x", "tree");
        b.leaf("x", "trie");
        b.close();
        b.open("d");
        b.leaf("x", "trie");
        b.leaf("y", "icdt icde");
        b.close();
        b.leaf("z", "tail");
        b.finish()
    }

    #[test]
    fn reassembly_is_exact() {
        let t = sample();
        let r = reassemble(&t);
        assert_eq!(t.len(), r.len());
        for n in t.iter() {
            assert_eq!(t.depth(n), r.depth(n));
            assert_eq!(t.label_name(n), r.label_name(n));
            assert_eq!(t.text(n), r.text(n));
            assert_eq!(t.parent(n), r.parent(n));
            assert_eq!(t.subtree_end(n), r.subtree_end(n));
            assert_eq!(t.dewey(n), r.dewey(n));
            assert_eq!(t.path_string(n), r.path_string(n));
        }
        assert_eq!(
            t.children(t.root()).collect::<Vec<_>>(),
            r.children(r.root()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn builder_trees_validate() {
        sample().validate_structure().unwrap();
    }

    #[test]
    fn rejects_bad_columns() {
        let labels = vec!["a".to_string(), "b".to_string()];
        // Root depth ≠ 1.
        let mut asm = PreorderAssembler::new(&labels);
        assert_eq!(
            asm.push(2, 0, None),
            Err(TreeAssemblyError::BadRootDepth(2))
        );
        // Depth jump.
        let mut asm = PreorderAssembler::new(&labels);
        asm.push(1, 0, None).unwrap();
        assert_eq!(
            asm.push(3, 1, None),
            Err(TreeAssemblyError::DepthJump {
                index: 1,
                depth: 3,
                prev: 1
            })
        );
        // Second root.
        let mut asm = PreorderAssembler::new(&labels);
        asm.push(1, 0, None).unwrap();
        assert_eq!(
            asm.push(1, 1, None),
            Err(TreeAssemblyError::SecondRoot { index: 1 })
        );
        // Unknown label.
        let mut asm = PreorderAssembler::new(&labels);
        assert!(matches!(
            asm.push(1, 7, None),
            Err(TreeAssemblyError::LabelOutOfRange { label: 7, .. })
        ));
        // Empty stream.
        assert_eq!(
            PreorderAssembler::new(&labels).finish().unwrap_err(),
            TreeAssemblyError::EmptyTree
        );
    }

    #[test]
    fn deep_and_wide_shapes_roundtrip() {
        // Deep chain.
        let mut b = TreeBuilder::new("r");
        for _ in 0..200 {
            b.open("n");
        }
        b.text("leaf");
        let deep = b.finish();
        reassemble(&deep).validate_structure().unwrap();
        // Wide fan-out with mixed text.
        let mut b = TreeBuilder::new("r");
        for i in 0..300 {
            if i % 3 == 0 {
                b.leaf("k", "text here");
            } else {
                b.open("k");
                b.close();
            }
        }
        let wide = b.finish();
        let r = reassemble(&wide);
        assert_eq!(wide.len(), r.len());
        for n in wide.iter() {
            assert_eq!(wide.dewey(n), r.dewey(n));
        }
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use crate::tree::TreeBuilder;
    use proptest::prelude::*;

    /// One builder step per byte: open a child, close the current element
    /// (when one is open), or append a text leaf.
    fn build(shape: &[u8]) -> XmlTree {
        let mut b = TreeBuilder::new("r");
        let mut depth = 0usize;
        for &s in shape {
            match s % 4 {
                0 => {
                    b.open(if s % 8 == 0 { "n" } else { "m" });
                    depth += 1;
                }
                1 if depth > 0 => {
                    b.close();
                    depth -= 1;
                }
                _ => {
                    b.leaf("t", "x y");
                }
            }
        }
        b.finish()
    }

    fn reassemble(tree: &XmlTree) -> XmlTree {
        let labels: Vec<String> = (0..tree.labels().len() as u32)
            .map(|i| tree.labels().name(LabelId(i)).to_string())
            .collect();
        let mut asm = PreorderAssembler::new(&labels);
        for n in tree.iter() {
            asm.push(tree.depth(n), tree.label(n).0, tree.text(n))
                .unwrap();
        }
        asm.finish().unwrap()
    }

    /// Ancestors of `n`, nearest first, from the child → parent relation
    /// recomputed out of the children iterator alone.
    fn naive_ancestors(parents: &[Option<NodeId>], n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = parents[n.index()];
        while let Some(p) = cur {
            out.push(p);
            cur = parents[p.index()];
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The incremental builder and the column assembler fill the same
        /// hot and cold columns for the same document.
        #[test]
        fn builder_and_assembler_fill_identical_columns(
            shape in proptest::collection::vec(0u8..16, 0..60),
        ) {
            let built = build(&shape);
            let assembled = reassemble(&built);
            prop_assert_eq!(&built.hot, &assembled.hot);
            prop_assert_eq!(&built.cold, &assembled.cold);
            prop_assert_eq!(&built.text_blob, &assembled.text_blob);
        }

        /// Every hot-column accessor agrees with a recomputation that
        /// uses only the child lists.
        #[test]
        fn hot_columns_match_naive_recomputation(
            shape in proptest::collection::vec(0u8..16, 0..60),
            picks in proptest::collection::vec((0usize..1000, 0usize..1000, 0u32..8), 1..12),
        ) {
            let tree = build(&shape);
            tree.validate_structure().unwrap();
            let mut parents: Vec<Option<NodeId>> = vec![None; tree.len()];
            for p in tree.iter() {
                for c in tree.children(p) {
                    parents[c.index()] = Some(p);
                }
            }
            for n in tree.iter() {
                let up = naive_ancestors(&parents, n);
                prop_assert_eq!(tree.parent(n), parents[n.index()]);
                prop_assert_eq!(tree.depth(n) as usize, up.len() + 1);
                let expect_path = match parents[n.index()] {
                    None => tree.paths().iter().next().unwrap(),
                    Some(p) => tree
                        .paths()
                        .iter()
                        .find(|&q| {
                            tree.paths().parent(q) == Some(tree.path(p))
                                && tree.paths().label(q) == tree.label(n)
                        })
                        .unwrap(),
                };
                prop_assert_eq!(tree.path(n), expect_path);
                let descendants = tree
                    .iter()
                    .filter(|&m| m == n || naive_ancestors(&parents, m).contains(&n))
                    .count();
                prop_assert_eq!(tree.subtree_end(n), n.0 + descendants as u32);
            }
            for (a, b, depth) in picks {
                let a = NodeId((a % tree.len()) as u32);
                let b = NodeId((b % tree.len()) as u32);
                // Self first, root last: the entry `depth` levels below
                // the root end is the ancestor at that depth.
                let mut chain_a = vec![a];
                chain_a.extend(naive_ancestors(&parents, a));
                let expect = (depth >= 1 && depth as usize <= chain_a.len())
                    .then(|| chain_a[chain_a.len() - depth as usize]);
                prop_assert_eq!(tree.ancestor_at_depth(a, depth), expect);
                let mut chain_b = vec![b];
                chain_b.extend(naive_ancestors(&parents, b));
                let lca = *chain_a.iter().find(|x| chain_b.contains(x)).unwrap();
                prop_assert_eq!(tree.lca(a, b), lca);
            }
        }
    }
}
