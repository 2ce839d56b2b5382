//! Declarative construction of [`DataTree`]s.
//!
//! Building trees node-by-node is verbose in tests and examples. A
//! [`TreeSpec`] describes a tree as a nested literal value:
//!
//! ```
//! use pxml_tree::builder::TreeSpec;
//!
//! // A
//! // ├── B
//! // └── C
//! //     └── D
//! let tree = TreeSpec::node("A", vec![
//!     TreeSpec::leaf("B"),
//!     TreeSpec::node("C", vec![TreeSpec::leaf("D")]),
//! ]).build();
//! assert_eq!(tree.len(), 4);
//! ```

use crate::arena::{DataTree, NodeId};

/// A declarative description of an unordered labeled tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeSpec {
    /// Label of this node.
    pub label: String,
    /// Children specifications (a multiset; order is irrelevant).
    pub children: Vec<TreeSpec>,
}

impl TreeSpec {
    /// A node with the given label and children.
    pub fn node(label: impl Into<String>, children: Vec<TreeSpec>) -> Self {
        TreeSpec {
            label: label.into(),
            children,
        }
    }

    /// A leaf node.
    pub fn leaf(label: impl Into<String>) -> Self {
        TreeSpec {
            label: label.into(),
            children: Vec::new(),
        }
    }

    /// Materializes the specification into a [`DataTree`].
    pub fn build(&self) -> DataTree {
        let mut tree = DataTree::new(&self.label);
        let root = tree.root();
        for child in &self.children {
            child.attach_to(&mut tree, root);
        }
        tree
    }

    fn attach_to(&self, tree: &mut DataTree, parent: NodeId) {
        let id = tree.add_child(parent, &self.label);
        for child in &self.children {
            child.attach_to(tree, id);
        }
    }

    /// Number of nodes described by this specification.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(TreeSpec::size).sum::<usize>()
    }
}

/// Builds a chain `labels[0] / labels[1] / ... / labels[n-1]` where each
/// label is the single child of the previous one. Handy for path-shaped
/// fixtures.
pub fn chain(labels: &[&str]) -> DataTree {
    assert!(!labels.is_empty(), "chain requires at least one label");
    let mut tree = DataTree::new(labels[0]);
    let mut cur = tree.root();
    for label in &labels[1..] {
        cur = tree.add_child(cur, *label);
    }
    tree
}

/// Builds a "star": a root with `n` children all labeled `child_label`.
pub fn star(root_label: &str, child_label: &str, n: usize) -> DataTree {
    let mut tree = DataTree::new(root_label);
    let root = tree.root();
    for _ in 0..n {
        tree.add_child(root, child_label);
    }
    tree
}

/// Builds a complete `arity`-ary tree of the given `depth` (depth 0 is a
/// single root) where every node carries `label`.
pub fn complete(label: &str, arity: usize, depth: usize) -> DataTree {
    let mut tree = DataTree::new(label);
    let mut frontier = vec![tree.root()];
    for _ in 0..depth {
        let mut next = Vec::new();
        for node in frontier {
            for _ in 0..arity {
                next.push(tree.add_child(node, label));
            }
        }
        frontier = next;
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_builds_a_path() {
        let t = chain(&["A", "B", "C"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.height(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn chain_requires_nonempty() {
        chain(&[]);
    }

    #[test]
    fn star_has_n_children() {
        let t = star("A", "C", 5);
        assert_eq!(t.len(), 6);
        assert_eq!(t.children(t.root()).len(), 5);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn complete_tree_size() {
        // arity 2, depth 3: 1 + 2 + 4 + 8 = 15 nodes.
        let t = complete("X", 2, 3);
        assert_eq!(t.len(), 15);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn complete_depth_zero_is_root_only() {
        let t = complete("X", 3, 0);
        assert_eq!(t.len(), 1);
    }
}
