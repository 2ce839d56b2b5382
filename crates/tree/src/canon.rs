//! Canonical forms and isomorphism of unordered labeled trees.
//!
//! The paper relies (proof of Theorem 2, citing Aho–Hopcroft–Ullman \[4\]) on
//! the classical linear-time canonization of rooted unordered trees: assign
//! integers to leaves by label, then bottom-up assign the same integer to two
//! nodes iff they have the same label and the same multiset of child
//! integers. Two trees are isomorphic (Definition 1's `∼`) iff their roots
//! receive the same integer.
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

/// Interner that assigns canonical integer codes to (label, child-codes)
/// shapes shared across several trees. Comparing root codes obtained from
/// the *same* interner decides isomorphism.
#[derive(Default, Debug)]
pub struct CanonInterner {
    codes: HashMap<(String, Vec<u32>), u32>,
}

impl CanonInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct (label, child-code multiset) shapes seen so far.
    pub fn distinct_shapes(&self) -> usize {
        self.codes.len()
    }

    fn intern(&mut self, label: &str, mut child_codes: Vec<u32>, semantics: Semantics) -> u32 {
        child_codes.sort_unstable();
        if semantics == Semantics::Set {
            child_codes.dedup();
        }
        let next = self.codes.len() as u32;
        *self
            .codes
            .entry((label.to_string(), child_codes))
            .or_insert(next)
    }

    /// Computes canonical codes for every reachable node of `tree`,
    /// returning the per-node codes and the root code.
    pub fn canonize(&mut self, tree: &DataTree, semantics: Semantics) -> CanonCodes {
        // Process nodes children-first: reverse pre-order works because a
        // pre-order pushes parents before children, so the reverse visits
        // children before their parent.
        let order: Vec<NodeId> = tree.iter().collect();
        let mut codes: HashMap<NodeId, u32> = HashMap::with_capacity(order.len());
        for &node in order.iter().rev() {
            let child_codes: Vec<u32> = tree.children(node).iter().map(|c| codes[c]).collect();
            let code = self.intern(tree.label(node), child_codes, semantics);
            codes.insert(node, code);
        }
        let root_code = codes[&tree.root()];
        CanonCodes { codes, root_code }
    }
}

/// [`CanonInterner`] generalized to trees whose nodes carry an annotation
/// of type `A` alongside the label. Prob-trees intern node conditions with
/// it: the simplifier to group mergeable siblings, and
/// `pxml_core::probtree::shape_census` to count equal subtrees.
///
/// Two shapes receive the same code iff they have the same label, equal
/// annotations (`Option<A>` — `None` distinguishes "no annotation" from
/// any real one), and the same **multiset** of child codes: child order
/// never matters here, matching the unordered-tree semantics of
/// [`isomorphic`].
#[derive(Clone, Debug)]
pub struct AnnotatedCanonInterner<A> {
    codes: HashMap<(String, Option<A>, Vec<u32>), u32>,
}

impl<A: Clone + Eq + Hash> AnnotatedCanonInterner<A> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        AnnotatedCanonInterner {
            codes: HashMap::new(),
        }
    }

    /// Number of distinct annotated shapes seen so far.
    pub fn distinct_shapes(&self) -> usize {
        self.codes.len()
    }

    /// Interns an annotated shape, sorting `child_codes` so that child
    /// order is irrelevant, and returns its canonical code.
    pub fn intern(&mut self, label: &str, ann: Option<&A>, mut child_codes: Vec<u32>) -> u32 {
        child_codes.sort_unstable();
        let next = self.codes.len() as u32;
        *self
            .codes
            .entry((label.to_string(), ann.cloned(), child_codes))
            .or_insert(next)
    }
}

impl<A: Clone + Eq + Hash> Default for AnnotatedCanonInterner<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Canonical codes computed for one tree by a [`CanonInterner`].
#[derive(Clone, Debug)]
pub struct CanonCodes {
    /// Code of every reachable node.
    pub codes: HashMap<NodeId, u32>,
    /// Code of the root (the canonical code of the whole tree).
    pub root_code: u32,
}

/// Decides isomorphism of two unordered labeled trees (Definition 1).
///
/// Runs in time linear in the sizes of the two trees (up to hashing).
pub fn isomorphic(a: &DataTree, b: &DataTree, semantics: Semantics) -> bool {
    if semantics == Semantics::MultiSet && a.len() != b.len() {
        return false;
    }
    let mut interner = CanonInterner::new();
    let ca = interner.canonize(a, semantics);
    let cb = interner.canonize(b, semantics);
    ca.root_code == cb.root_code
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
/// This is [`CanonWriter::write`] with every node a member.
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

/// The buffers of the canonical-string kernel, kept between calls: a caller
/// that canonizes many node sets, such as the possible-world fold, writes
/// every key with the same few allocations.
#[derive(Default, Debug)]
pub struct CanonWriter {
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
    pub fn write(
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
    fn interner_is_shared_across_trees() {
        let mut interner = CanonInterner::new();
        let a = star("A", "B", 3);
        let b = star("A", "B", 3);
        let ca = interner.canonize(&a, Semantics::MultiSet);
        let cb = interner.canonize(&b, Semantics::MultiSet);
        assert_eq!(ca.root_code, cb.root_code);
        // Shapes: leaf B, and A with three B children.
        assert_eq!(interner.distinct_shapes(), 2);
    }

    #[test]
    fn deep_trees_canonize_without_stack_overflow_in_interner_path() {
        // Both the interner path and canonical_string are iterative;
        // `deep_chains_match_the_recursive_oracle` takes canonical_string
        // to depth 2 000.
        let mut tree = DataTree::new("A");
        let mut cur = tree.root();
        for _ in 0..500 {
            cur = tree.add_child(cur, "A");
        }
        let mut interner = CanonInterner::new();
        let codes = interner.canonize(&tree, Semantics::MultiSet);
        assert_eq!(codes.codes.len(), 501);
    }
}
