//! Random generation of data trees, prob-trees and queries.

use rand::Rng;

use pxml_core::probtree::ProbTree;
use pxml_core::query::pattern::PatternQuery;
use pxml_events::{Condition, Literal};
use pxml_tree::DataTree;

/// Parameters for random data-tree generation.
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Target number of nodes.
    pub nodes: usize,
    /// Maximum number of children per node.
    pub max_fanout: usize,
    /// Number of distinct labels (`L0`, `L1`, …).
    pub labels: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            nodes: 100,
            max_fanout: 5,
            labels: 4,
        }
    }
}

/// Generates a random unordered labeled tree with exactly `config.nodes`
/// nodes by repeatedly attaching new nodes under uniformly random existing
/// nodes (bounded by `max_fanout`).
pub fn random_tree<R: Rng + ?Sized>(config: &TreeConfig, rng: &mut R) -> DataTree {
    assert!(config.nodes >= 1);
    assert!(config.max_fanout >= 1);
    assert!(config.labels >= 1);
    let label = |rng: &mut R| format!("L{}", rng.gen_range(0..config.labels));
    let mut tree = DataTree::new(label(rng));
    let mut attachable = vec![tree.root()];
    for _ in 1..config.nodes {
        let idx = rng.gen_range(0..attachable.len());
        let parent = attachable[idx];
        let child = tree.add_child(parent, label(rng));
        attachable.push(child);
        if tree.children(parent).len() >= config.max_fanout {
            attachable.swap_remove(idx);
        }
    }
    tree
}

/// Parameters for random prob-tree generation.
#[derive(Clone, Copy, Debug)]
pub struct ProbTreeConfig {
    /// Shape of the underlying data tree.
    pub tree: TreeConfig,
    /// Number of event variables.
    pub events: usize,
    /// Fraction of non-root nodes that carry a condition.
    pub annotation_density: f64,
    /// Maximum number of literals per condition.
    pub max_literals: usize,
}

impl Default for ProbTreeConfig {
    fn default() -> Self {
        ProbTreeConfig {
            tree: TreeConfig::default(),
            events: 8,
            annotation_density: 0.4,
            max_literals: 2,
        }
    }
}

/// Generates a random prob-tree.
pub fn random_probtree<R: Rng + ?Sized>(config: &ProbTreeConfig, rng: &mut R) -> ProbTree {
    let data = random_tree(&config.tree, rng);
    let mut tree = ProbTree::from_data_tree(data, pxml_events::EventTable::new());
    let events: Vec<_> = (0..config.events)
        .map(|_| tree.events_mut().fresh(rng.gen_range(0.05..=0.95)))
        .collect();
    let nodes: Vec<_> = tree.tree().iter().collect();
    for node in nodes {
        if node == tree.tree().root() || events.is_empty() {
            continue;
        }
        if rng.gen_bool(config.annotation_density) {
            let count = rng.gen_range(1..=config.max_literals.max(1));
            let condition = Condition::from_literals((0..count).map(|_| Literal {
                event: events[rng.gen_range(0..events.len())],
                positive: rng.gen_bool(0.5),
            }));
            tree.set_condition(node, condition);
        }
    }
    tree
}

/// Builds a deterministic prob-tree whose relevant events partition into
/// exactly `components` co-occurrence components of `events_per` events
/// each — the many-small-components workload of the factorized world
/// engine (`Σ_c 2^{|C_i|}` shard states vs `2^{components · events_per}`
/// joint assignments).
///
/// Component `i` hangs a group node `G{i}` (always present) under the
/// root; its children chain the component's events pairwise
/// (`e_0 ∧ e_1`, `e_1 ∧ e_2`, …, forcing one co-occurrence component)
/// plus one single-literal child per event, so worlds genuinely vary with
/// every event. All probabilities are ½.
pub fn many_components_probtree(components: usize, events_per: usize) -> ProbTree {
    assert!(events_per >= 1);
    let mut tree = ProbTree::new("R");
    let root = tree.tree().root();
    for i in 0..components {
        let events: Vec<_> = (0..events_per)
            .map(|_| tree.events_mut().fresh(0.5))
            .collect();
        let group = tree.add_child(root, format!("G{i}"), Condition::always());
        for pair in events.windows(2) {
            tree.add_child(
                group,
                "P",
                Condition::from_literals([Literal::pos(pair[0]), Literal::pos(pair[1])]),
            );
        }
        for &event in &events {
            tree.add_child(group, "S", Condition::of(Literal::pos(event)));
        }
    }
    tree
}

/// Generates a random tree-pattern query compatible with the label
/// alphabet of [`random_tree`]: a root constraint plus `extra_nodes`
/// child/descendant steps.
pub fn random_pattern_query<R: Rng + ?Sized>(
    labels: usize,
    extra_nodes: usize,
    rng: &mut R,
) -> PatternQuery {
    let label = |rng: &mut R| format!("L{}", rng.gen_range(0..labels));
    let mut query = PatternQuery::new(Some(&label(rng)));
    let mut nodes = vec![query.root()];
    for _ in 0..extra_nodes {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        let node = if rng.gen_bool(0.5) {
            query.add_child(parent, &label(rng))
        } else {
            query.add_descendant(parent, &label(rng))
        };
        nodes.push(node);
    }
    query
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxml_tree::stats::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBEEF)
    }

    #[test]
    fn random_tree_has_requested_size_and_fanout() {
        let mut r = rng();
        for nodes in [1usize, 10, 250] {
            let config = TreeConfig {
                nodes,
                max_fanout: 3,
                labels: 2,
            };
            let t = random_tree(&config, &mut r);
            let s = stats(&t);
            assert_eq!(s.nodes, nodes);
            assert!(s.max_fanout <= 3);
            assert!(s.distinct_labels <= 2);
        }
    }

    #[test]
    fn many_components_probtree_has_the_advertised_partition() {
        let tree = many_components_probtree(8, 3);
        assert_eq!(tree.events().len(), 24);
        let engine = pxml_core::WorldEngine::new(&tree);
        assert_eq!(engine.num_relevant(), 24);
        assert_eq!(engine.components().len(), 8);
        assert!(engine.components().iter().all(|c| c.len() == 3));
        // Every single-literal child makes each event world-relevant.
        let single = many_components_probtree(2, 1);
        assert_eq!(pxml_core::WorldEngine::new(&single).components().len(), 2);
    }

    #[test]
    fn random_probtree_respects_annotation_density_bounds() {
        let mut r = rng();
        let config = ProbTreeConfig {
            tree: TreeConfig {
                nodes: 200,
                max_fanout: 4,
                labels: 3,
            },
            events: 6,
            annotation_density: 0.5,
            max_literals: 2,
        };
        let t = random_probtree(&config, &mut r);
        assert_eq!(t.num_nodes(), 200);
        assert_eq!(t.events().len(), 6);
        let annotated = t
            .tree()
            .iter()
            .filter(|&n| !t.condition(n).is_empty())
            .count();
        assert!(annotated > 40 && annotated < 160, "annotated = {annotated}");
        assert!(t.num_literals() <= 2 * annotated);
    }

    #[test]
    fn random_probtree_with_zero_density_is_certain() {
        let mut r = rng();
        let config = ProbTreeConfig {
            annotation_density: 0.0,
            ..ProbTreeConfig::default()
        };
        let t = random_probtree(&config, &mut r);
        assert_eq!(t.num_literals(), 0);
    }

    #[test]
    fn random_queries_have_requested_shape() {
        let mut r = rng();
        let q = random_pattern_query(3, 4, &mut r);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn generation_is_deterministic_given_a_seed() {
        let config = ProbTreeConfig::default();
        let a = random_probtree(&config, &mut StdRng::seed_from_u64(7));
        let b = random_probtree(&config, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_literals(), b.num_literals());
    }
}
