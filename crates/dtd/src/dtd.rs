//! The unordered DTD model (Definition 12 of the paper).

use std::collections::HashMap;

/// Occurrence bounds for children with one label under one parent label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChildConstraint {
    /// Minimum number of occurrences (`D−`).
    pub min: usize,
    /// Maximum number of occurrences (`D+`); `None` means unbounded (`+∞`).
    pub max: Option<usize>,
}

impl ChildConstraint {
    /// `min..=max` occurrences.
    pub fn between(min: usize, max: usize) -> Self {
        ChildConstraint {
            min,
            max: Some(max),
        }
    }

    /// At least `min` occurrences, unbounded above.
    pub fn at_least(min: usize) -> Self {
        ChildConstraint { min, max: None }
    }

    /// Exactly zero occurrences (the label is forbidden).
    pub fn forbidden() -> Self {
        ChildConstraint {
            min: 0,
            max: Some(0),
        }
    }

    /// `true` if `count` occurrences satisfy the constraint.
    pub fn allows(&self, count: usize) -> bool {
        count >= self.min && self.max.is_none_or(|m| count <= m)
    }
}

/// An unordered DTD: a partial map from parent labels to per-child-label
/// occurrence constraints (Definition 12). Parents whose label is not in
/// the domain are unconstrained; for parents in the domain, child labels
/// without an explicit constraint are **forbidden** (`D− = D+ = 0`, as in
/// the paper's notation).
#[derive(Clone, Debug, Default)]
pub struct Dtd {
    rules: HashMap<String, HashMap<String, ChildConstraint>>,
}

impl Dtd {
    /// The empty DTD (every tree is valid).
    pub fn new() -> Self {
        Dtd::default()
    }

    /// Declares (or extends) the rule for `parent_label`, constraining
    /// children labeled `child_label`.
    pub fn constrain(
        &mut self,
        parent_label: impl Into<String>,
        child_label: impl Into<String>,
        constraint: ChildConstraint,
    ) -> &mut Self {
        self.rules
            .entry(parent_label.into())
            .or_default()
            .insert(child_label.into(), constraint);
        self
    }

    /// Declares a parent label as constrained even if no child constraint
    /// is given (all children are then forbidden under it).
    pub fn constrain_parent(&mut self, parent_label: impl Into<String>) -> &mut Self {
        self.rules.entry(parent_label.into()).or_default();
        self
    }

    /// Whether `label` is in the DTD's domain `N'`.
    pub fn constrains(&self, label: &str) -> bool {
        self.rules.contains_key(label)
    }

    /// The constraint `(D−(parent)(child), D+(parent)(child))`. Returns
    /// `None` if the parent label is unconstrained; returns the forbidden
    /// constraint if the parent is constrained but the child label has no
    /// rule.
    pub fn constraint(&self, parent_label: &str, child_label: &str) -> Option<ChildConstraint> {
        let per_child = self.rules.get(parent_label)?;
        Some(
            per_child
                .get(child_label)
                .copied()
                .unwrap_or_else(ChildConstraint::forbidden),
        )
    }

    /// Iterates over the child constraints declared for one parent label.
    pub fn child_rules(&self, parent_label: &str) -> impl Iterator<Item = (&str, ChildConstraint)> {
        self.rules
            .get(parent_label)
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, v)| (k.as_str(), *v)))
    }

    /// Number of (parent, child) rules.
    pub fn len(&self) -> usize {
        self.rules.values().map(HashMap::len).sum()
    }

    /// `true` if no label is constrained.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_constraint_allows() {
        assert!(ChildConstraint::between(1, 3).allows(2));
        assert!(!ChildConstraint::between(1, 3).allows(0));
        assert!(!ChildConstraint::between(1, 3).allows(4));
        assert!(ChildConstraint::at_least(2).allows(100));
        assert!(!ChildConstraint::at_least(2).allows(1));
        assert!(ChildConstraint::forbidden().allows(0));
        assert!(!ChildConstraint::forbidden().allows(1));
    }

    #[test]
    fn unconstrained_parents_return_none() {
        let mut dtd = Dtd::new();
        dtd.constrain("A", "B", ChildConstraint::between(0, 2));
        assert!(dtd.constrains("A"));
        assert!(!dtd.constrains("B"));
        assert_eq!(dtd.constraint("B", "anything"), None);
    }

    #[test]
    fn constrained_parents_forbid_unlisted_children() {
        let mut dtd = Dtd::new();
        dtd.constrain("A", "B", ChildConstraint::between(0, 2));
        assert_eq!(dtd.constraint("A", "C"), Some(ChildConstraint::forbidden()));
        assert_eq!(
            dtd.constraint("A", "B"),
            Some(ChildConstraint::between(0, 2))
        );
    }

    #[test]
    fn constrain_parent_without_children() {
        let mut dtd = Dtd::new();
        dtd.constrain_parent("A");
        assert!(dtd.constrains("A"));
        assert_eq!(dtd.constraint("A", "B"), Some(ChildConstraint::forbidden()));
        assert_eq!(dtd.len(), 0);
        assert!(!dtd.is_empty());
    }

    #[test]
    fn len_counts_rules() {
        let mut dtd = Dtd::new();
        dtd.constrain("A", "B", ChildConstraint::between(1, 1))
            .constrain("A", "C", ChildConstraint::at_least(0))
            .constrain("B", "D", ChildConstraint::between(0, 5));
        assert_eq!(dtd.len(), 3);
        assert_eq!(dtd.child_rules("A").count(), 2);
    }
}
