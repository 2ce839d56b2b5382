//! Human-readable rendering of data trees.
//!
//! An indented ASCII outline, used by the examples and by `Display`-style
//! debugging.

use std::fmt::Write as _;

use crate::arena::{DataTree, NodeId};

/// Renders `tree` as an indented ASCII outline, e.g.:
///
/// ```text
/// A
/// ├── B
/// └── C
///     └── D
/// ```
pub fn to_ascii(tree: &DataTree) -> String {
    /// `annotate` lets callers (e.g. the prob-tree renderer) append
    /// per-node decorations; the plain version passes an empty annotation.
    fn rec(
        tree: &DataTree,
        node: NodeId,
        prefix: &str,
        is_last: bool,
        is_root: bool,
        out: &mut String,
        annotate: &dyn Fn(NodeId) -> String,
    ) {
        if is_root {
            let _ = writeln!(out, "{}{}", tree.label(node), annotate(node));
        } else {
            let branch = if is_last { "└── " } else { "├── " };
            let _ = writeln!(
                out,
                "{prefix}{branch}{}{}",
                tree.label(node),
                annotate(node)
            );
        }
        let children = tree.children(node);
        for (i, &child) in children.iter().enumerate() {
            let last = i + 1 == children.len();
            let child_prefix = if is_root {
                String::new()
            } else if is_last {
                format!("{prefix}    ")
            } else {
                format!("{prefix}│   ")
            };
            rec(tree, child, &child_prefix, last, false, out, annotate);
        }
    }
    let mut out = String::new();
    rec(tree, tree.root(), "", true, true, &mut out, &|_| {
        String::new()
    });
    out
}

/// Renders `tree` as an indented ASCII outline with a caller-supplied
/// per-node annotation (the prob-tree renderer uses this to show
/// conditions).
pub fn to_ascii_annotated(tree: &DataTree, annotate: &dyn Fn(NodeId) -> String) -> String {
    fn rec(
        tree: &DataTree,
        node: NodeId,
        prefix: &str,
        is_last: bool,
        is_root: bool,
        out: &mut String,
        annotate: &dyn Fn(NodeId) -> String,
    ) {
        if is_root {
            let _ = writeln!(out, "{}{}", tree.label(node), annotate(node));
        } else {
            let branch = if is_last { "└── " } else { "├── " };
            let _ = writeln!(
                out,
                "{prefix}{branch}{}{}",
                tree.label(node),
                annotate(node)
            );
        }
        let children = tree.children(node);
        for (i, &child) in children.iter().enumerate() {
            let last = i + 1 == children.len();
            let child_prefix = if is_root {
                String::new()
            } else if is_last {
                format!("{prefix}    ")
            } else {
                format!("{prefix}│   ")
            };
            rec(tree, child, &child_prefix, last, false, out, annotate);
        }
    }
    let mut out = String::new();
    rec(tree, tree.root(), "", true, true, &mut out, annotate);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeSpec;

    fn sample() -> DataTree {
        TreeSpec::node(
            "A",
            vec![
                TreeSpec::leaf("B"),
                TreeSpec::node("C", vec![TreeSpec::leaf("D")]),
            ],
        )
        .build()
    }

    #[test]
    fn ascii_contains_every_label_once() {
        let text = to_ascii(&sample());
        for label in ["A", "B", "C", "D"] {
            assert_eq!(
                text.matches(label).count(),
                1,
                "label {label} in output:\n{text}"
            );
        }
        assert!(text.contains("└── C"));
    }

    #[test]
    fn annotated_ascii_appends_annotations() {
        let tree = sample();
        let text = to_ascii_annotated(&tree, &|n| {
            if tree.label(n) == "B" {
                "  [w1]".to_string()
            } else {
                String::new()
            }
        });
        assert!(text.contains("B  [w1]"));
        assert!(!text.contains("A  [w1]"));
    }
}
