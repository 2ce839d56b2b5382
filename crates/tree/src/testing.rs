//! Random trees for this crate's property tests.

use proptest::prelude::*;

use crate::arena::{DataTree, NodeId};

/// Labels that stress the canonical syntax: its own characters, the escape
/// character, multi-byte UTF-8, the empty label, a mix, and repeats among
/// siblings (the pool is small).
pub(crate) const LABELS: [&str; 9] = ["A", "B", "\"", "\\", ",", "(", "é日本🌲", "", "a\"(b,\\)é"];

/// A random tree of at most `max_steps + 1` arena nodes, grown one step at
/// a time: a step either hangs a node with a random label under a random
/// earlier node (detached ones included) or detaches a random non-root
/// node.
pub(crate) fn tree_strategy(max_steps: usize) -> impl Strategy<Value = DataTree> {
    prop::collection::vec((any::<usize>(), 0..LABELS.len(), 0..6u8), 0..=max_steps).prop_map(
        |steps| {
            let mut tree = DataTree::new(LABELS[0]);
            for (pick, label, kind) in steps {
                let node = NodeId::from_index(pick % tree.arena_len());
                if kind == 0 {
                    if node != tree.root() {
                        tree.detach(node);
                    }
                } else {
                    tree.add_child(node, LABELS[label]);
                }
            }
            tree
        },
    )
}
