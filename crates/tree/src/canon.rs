//! Canonical forms and isomorphism of unordered labeled trees.
//!
//! The paper relies (proof of Theorem 2, citing Aho–Hopcroft–Ullman \[4\]) on
//! the classical canonization of rooted unordered trees: bottom-up, two
//! nodes receive the same code iff they have the same label and the same
//! multiset of child codes, and two trees are isomorphic (Definition 1's
//! `∼`) iff their roots receive the same code.
//!
//! The [`canonical_string`] is that canonization written out: a node's code
//! is the string of its label followed by its children's strings, sorted.
//! Two nodes get the same string iff they have the same label and the same
//! multiset of child strings, so the string needs no interner shared
//! between trees, stays stable across processes, and keys ranking ties and
//! normalization. [`isomorphic`] compares two of them.
//! [`AnnotatedCanonInterner`] keeps AHU's integer codes, optionally with an
//! annotation per node: they are only comparable within one interner, and
//! they key possible worlds in the world fold, which keeps each node's code
//! across the states it walks.
//!
//! Two semantics are supported:
//!
//! * [`Semantics::MultiSet`] — the paper's default: a node with two `B`
//!   children is different from a node with one.
//! * [`Semantics::Set`] — the Section 5 variant: duplicate (isomorphic)
//!   children collapse.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

use crate::arena::{DataTree, NodeId};

/// Which notion of data-tree isomorphism to use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Semantics {
    /// Multiset (bag) semantics — the paper's default (Section 2).
    #[default]
    MultiSet,
    /// Set semantics — the Section 5 variant where duplicate isomorphic
    /// siblings are indistinguishable.
    Set,
}

/// Interner of AHU integer codes for trees whose nodes carry an annotation
/// of type `A` alongside the label, shared across the trees it codes.
/// Prob-trees intern node conditions with it: the simplifier to group
/// mergeable siblings, and `pxml_core::probtree::shape_census` to count
/// equal subtrees. The possible-world fold keys each world by its root's
/// code, with no annotation. The caller walks its tree children first and
/// interns each node with its children's codes.
///
/// Two shapes receive the same code iff they have the same label, equal
/// annotations (`Option<A>` — `None` distinguishes "no annotation" from
/// any real one), and the same **multiset** of child codes: child order
/// never matters here, matching the unordered-tree semantics of
/// [`isomorphic`].
///
/// A label and an annotation are each interned to a `u32` once
/// ([`AnnotatedCanonInterner::label`], [`AnnotatedCanonInterner::annotation`]);
/// a shape is the `u32` key `[label, annotation, sorted child codes]`,
/// built in a buffer the interner keeps and looked up by slice. So a
/// lookup that finds its label, annotation or shape allocates nothing.
#[derive(Clone, Debug)]
pub struct AnnotatedCanonInterner<A> {
    labels: HashMap<String, u32>,
    annotations: HashMap<A, u32>,
    shapes: HashMap<Box<[u32]>, u32>,
    key: Vec<u32>,
}

impl<A: Clone + Eq + Hash> AnnotatedCanonInterner<A> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        AnnotatedCanonInterner {
            labels: HashMap::new(),
            annotations: HashMap::new(),
            shapes: HashMap::new(),
            key: Vec::new(),
        }
    }

    /// Number of distinct annotated shapes seen so far.
    pub fn distinct_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// The code of `label`: equal labels get equal codes.
    pub fn label(&mut self, label: &str) -> u32 {
        if let Some(&code) = self.labels.get(label) {
            return code;
        }
        let code = next_code(self.labels.len());
        self.labels.insert(label.to_owned(), code);
        code
    }

    /// The code of an annotation: `0` for `None`, and equal annotations
    /// get equal codes.
    pub fn annotation(&mut self, annotation: Option<&A>) -> u32 {
        let Some(annotation) = annotation else {
            return 0;
        };
        if let Some(&code) = self.annotations.get(annotation) {
            return code;
        }
        let code = next_code(self.annotations.len() + 1);
        self.annotations.insert(annotation.clone(), code);
        code
    }

    /// Interns the shape of a node whose label and annotation have the
    /// codes `label` and `annotation` and whose children have the codes
    /// `children`, in any order, and returns its canonical code.
    pub fn intern(
        &mut self,
        label: u32,
        annotation: u32,
        children: impl IntoIterator<Item = u32>,
    ) -> u32 {
        let key = &mut self.key;
        key.clear();
        key.extend([label, annotation]);
        key.extend(children);
        key[2..].sort_unstable();
        if let Some(&code) = self.shapes.get(key.as_slice()) {
            return code;
        }
        let code = next_code(self.shapes.len());
        self.shapes.insert(key.as_slice().into(), code);
        code
    }
}

/// The code after `count` codes handed out.
fn next_code(count: usize) -> u32 {
    u32::try_from(count).expect("fewer than 2^32 distinct labels, annotations and shapes")
}

impl<A: Clone + Eq + Hash> Default for AnnotatedCanonInterner<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Decides isomorphism of two unordered labeled trees (Definition 1): the
/// multiset semantics first compares their sizes, then both compare their
/// [`canonical_string`]s.
pub fn isomorphic(a: &DataTree, b: &DataTree, semantics: Semantics) -> bool {
    if semantics == Semantics::MultiSet && a.len() != b.len() {
        return false;
    }
    canonical_string(a, semantics) == canonical_string(b, semantics)
}

/// A canonical *string* for a tree: stable across processes and usable as a
/// hash-map key (e.g. to normalize possible-world sets). Two trees have the
/// same canonical string iff they are isomorphic under the given semantics.
///
/// A node's form is its label in double quotes (`"` and `\` escaped with
/// `\`, so labels cannot collide with the syntax), then its children's
/// forms sorted by their bytes (duplicates dropped under
/// [`Semantics::Set`]), comma-separated in parentheses: `"A"("B"(),"C"())`.
///
/// It is written without recursion into one byte buffer, so any depth is
/// safe.
pub fn canonical_string(tree: &DataTree, semantics: Semantics) -> String {
    let mut writer = CanonWriter::default();
    into_string(writer.write(tree, semantics, |_| true))
}

/// A canonical string's bytes as a `String` of their exact size: the
/// kernel's buffer peaked near twice the string's length, and callers often
/// keep the string as a key.
pub(crate) fn into_string(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("labels are UTF-8 and the syntax is ASCII")
}

/// The buffers of the canonical-string kernel: [`canonical_string`] and
/// `SubDataTree::canonical_string` write through one each.
#[derive(Default, Debug)]
pub(crate) struct CanonWriter {
    /// The kept nodes in pre-order, each with its number of kept children.
    order: Vec<(NodeId, usize)>,
    stack: Vec<NodeId>,
    /// The forms in `buf` whose parent is not written yet, back to back,
    /// the last written on top.
    forms: Vec<Range<usize>>,
    children: Vec<Range<usize>>,
    buf: Vec<u8>,
}

impl CanonWriter {
    /// Writes the canonical string of the tree that `member` induces on
    /// `tree` (the root, and every member child of a kept node: the tree
    /// [`DataTree::extract`] keeps for `member`) and returns its bytes,
    /// which stay valid until the next call. With every node a member this
    /// is [`canonical_string`].
    ///
    /// A walk from the root into member children lists the kept nodes in
    /// pre-order. The forms are then built without recursion, in reverse
    /// pre-order (children before parents), in one byte buffer: a node's
    /// form is written after its children's, which end the buffer, and then
    /// moved down over them. So any depth is safe, and each form is copied
    /// once into each ancestor's form.
    pub(crate) fn write(
        &mut self,
        tree: &DataTree,
        semantics: Semantics,
        member: impl Fn(NodeId) -> bool,
    ) -> &[u8] {
        let CanonWriter {
            order,
            stack,
            forms,
            children,
            buf,
        } = self;
        order.clear();
        stack.push(tree.root());
        while let Some(node) = stack.pop() {
            let before = stack.len();
            let kept = tree.children(node).iter().rev().filter(|&&c| member(c));
            stack.extend(kept);
            order.push((node, stack.len() - before));
        }
        buf.clear();
        // In reverse pre-order the top `kept` forms are the kept children
        // of the node at hand.
        for &(node, kept) in order.iter().rev() {
            let first = forms.len() - kept;
            let start = forms.get(first).map_or(buf.len(), |form| form.start);
            children.clear();
            children.extend(forms.drain(first..));
            children.sort_unstable_by(|a, b| buf[a.clone()].cmp(&buf[b.clone()]));
            if semantics == Semantics::Set {
                children.dedup_by(|a, b| buf[a.clone()] == buf[b.clone()]);
            }
            let form = buf.len();
            buf.push(b'"');
            // `"` and `\` never occur inside a multi-byte UTF-8 sequence, so
            // escaping bytes escapes exactly those characters.
            for &byte in tree.label(node).as_bytes() {
                if byte == b'"' || byte == b'\\' {
                    buf.push(b'\\');
                }
                buf.push(byte);
            }
            buf.extend_from_slice(b"\"(");
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    buf.push(b',');
                }
                buf.extend_from_within(child.clone());
            }
            buf.push(b')');
            let len = buf.len() - form;
            buf.copy_within(form.., start);
            buf.truncate(start + len);
            forms.push(start..start + len);
        }
        forms.clear();
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{star, TreeSpec};
    use crate::testing::{tree_strategy, LABELS};
    use proptest::prelude::*;

    fn t(spec: TreeSpec) -> DataTree {
        spec.build()
    }

    /// The recursive definition of [`canonical_string`], one `String` and
    /// one `Vec` per node: the oracle for the one-buffer version.
    fn recursive_canonical_string(tree: &DataTree, semantics: Semantics) -> String {
        fn rec(tree: &DataTree, node: NodeId, semantics: Semantics) -> String {
            let mut child_strings: Vec<String> = tree
                .children(node)
                .iter()
                .map(|&c| rec(tree, c, semantics))
                .collect();
            child_strings.sort();
            if semantics == Semantics::Set {
                child_strings.dedup();
            }
            let mut out = String::new();
            out.push('"');
            for ch in tree.label(node).chars() {
                if ch == '"' || ch == '\\' {
                    out.push('\\');
                }
                out.push(ch);
            }
            out.push('"');
            out.push('(');
            out.push_str(&child_strings.join(","));
            out.push(')');
            out
        }
        rec(tree, tree.root(), semantics)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn canonical_string_matches_the_recursive_oracle(tree in tree_strategy(40)) {
            for semantics in [Semantics::MultiSet, Semantics::Set] {
                prop_assert_eq!(
                    canonical_string(&tree, semantics),
                    recursive_canonical_string(&tree, semantics)
                );
            }
        }
    }

    #[test]
    fn deep_chains_match_the_recursive_oracle() {
        // A 2 000-deep chain cycling through the awkward labels, with two
        // equal leaves on every tenth node so that sorting and `Set`
        // deduplication run at every depth.
        let mut tree = DataTree::new("root");
        let mut cur = tree.root();
        for i in 0..2000 {
            cur = tree.add_child(cur, LABELS[i % LABELS.len()]);
            if i % 10 == 0 {
                tree.add_child(cur, "leaf");
                tree.add_child(cur, "leaf");
            }
        }
        for semantics in [Semantics::MultiSet, Semantics::Set] {
            let expected = std::thread::scope(|scope| {
                // The oracle recurses once per level: give it room.
                std::thread::Builder::new()
                    .stack_size(64 << 20)
                    .spawn_scoped(scope, || recursive_canonical_string(&tree, semantics))
                    .expect("spawn the oracle thread")
                    .join()
                    .expect("the oracle finishes")
            });
            assert_eq!(canonical_string(&tree, semantics), expected);
        }
    }

    #[test]
    fn single_nodes_isomorphic_iff_same_label() {
        let a = DataTree::new("A");
        let a2 = DataTree::new("A");
        let b = DataTree::new("B");
        assert!(isomorphic(&a, &a2, Semantics::MultiSet));
        assert!(!isomorphic(&a, &b, Semantics::MultiSet));
    }

    #[test]
    fn child_order_is_irrelevant() {
        let x = t(TreeSpec::node(
            "A",
            vec![
                TreeSpec::leaf("B"),
                TreeSpec::node("C", vec![TreeSpec::leaf("D")]),
            ],
        ));
        let y = t(TreeSpec::node(
            "A",
            vec![
                TreeSpec::node("C", vec![TreeSpec::leaf("D")]),
                TreeSpec::leaf("B"),
            ],
        ));
        assert!(isomorphic(&x, &y, Semantics::MultiSet));
        assert_eq!(
            canonical_string(&x, Semantics::MultiSet),
            canonical_string(&y, Semantics::MultiSet)
        );
    }

    #[test]
    fn multiset_semantics_distinguishes_duplicate_children() {
        // The paper's Section 2 example: root with two identical B children
        // vs root with a single B child.
        let two = star("A", "B", 2);
        let one = star("A", "B", 1);
        assert!(!isomorphic(&two, &one, Semantics::MultiSet));
        assert!(isomorphic(&two, &one, Semantics::Set));
    }

    #[test]
    fn set_semantics_collapses_recursively() {
        let a = t(TreeSpec::node(
            "A",
            vec![
                TreeSpec::node("B", vec![TreeSpec::leaf("C"), TreeSpec::leaf("C")]),
                TreeSpec::node("B", vec![TreeSpec::leaf("C")]),
            ],
        ));
        let b = t(TreeSpec::node(
            "A",
            vec![TreeSpec::node("B", vec![TreeSpec::leaf("C")])],
        ));
        assert!(isomorphic(&a, &b, Semantics::Set));
        assert!(!isomorphic(&a, &b, Semantics::MultiSet));
    }

    #[test]
    fn different_shapes_are_not_isomorphic() {
        let path = t(TreeSpec::node(
            "A",
            vec![TreeSpec::node("B", vec![TreeSpec::leaf("C")])],
        ));
        let flat = t(TreeSpec::node(
            "A",
            vec![TreeSpec::leaf("B"), TreeSpec::leaf("C")],
        ));
        assert!(!isomorphic(&path, &flat, Semantics::MultiSet));
        assert!(!isomorphic(&path, &flat, Semantics::Set));
    }

    #[test]
    fn labels_with_special_characters_do_not_collide() {
        let tricky = t(TreeSpec::node("A\"(", vec![TreeSpec::leaf("B")]));
        let plain = t(TreeSpec::node("A", vec![TreeSpec::leaf("B")]));
        assert!(!isomorphic(&tricky, &plain, Semantics::MultiSet));
        assert_ne!(
            canonical_string(&tricky, Semantics::MultiSet),
            canonical_string(&plain, Semantics::MultiSet)
        );
    }

    #[test]
    fn deep_chains_are_isomorphic_without_stack_overflow() {
        // Two 2 000-deep chains whose every tenth node has a leaf before its
        // chain child in one tree and after it in the other: isomorphic
        // under both semantics. Relabelling the bottom node breaks it.
        let chain = |leaf_first: bool, bottom: &str| {
            let mut tree = DataTree::new("root");
            let mut cur = tree.root();
            for i in 0..2000 {
                let label = if i == 1999 { bottom } else { "A" };
                if i % 10 == 0 && leaf_first {
                    tree.add_child(cur, "leaf");
                }
                let next = tree.add_child(cur, label);
                if i % 10 == 0 && !leaf_first {
                    tree.add_child(cur, "leaf");
                }
                cur = next;
            }
            tree
        };
        let (x, y, z) = (chain(true, "A"), chain(false, "A"), chain(false, "B"));
        for semantics in [Semantics::MultiSet, Semantics::Set] {
            assert!(isomorphic(&x, &y, semantics));
            assert!(!isomorphic(&x, &z, semantics));
        }
    }
}
