//! Tree statistics and the enumeration background of Proposition 1.
//!
//! Proposition 1 of the paper lower-bounds the average representation size
//! of possible-world sets by counting rooted unordered unlabeled trees with
//! at most `n` nodes (Otter's asymptotics `a_n ~ α^{n-1}·β/(2πn^{3/2})`,
//! α ≈ 2.9557). [`rooted_tree_counts`] computes the exact sequence via the
//! standard Euler-transform recurrence, which the E2 experiment uses to
//! report the doubly-exponential count of possible-world sets.

use std::collections::HashMap;

use crate::arena::DataTree;

/// Summary statistics of a data tree.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeStats {
    /// Number of reachable nodes.
    pub nodes: usize,
    /// Height in edges.
    pub height: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Maximum number of children of any node.
    pub max_fanout: usize,
    /// Number of distinct labels.
    pub distinct_labels: usize,
}

/// Computes [`TreeStats`] for a tree.
pub fn stats(tree: &DataTree) -> TreeStats {
    let mut nodes = 0;
    let mut leaves = 0;
    let mut max_fanout = 0;
    let mut labels: HashMap<&str, usize> = HashMap::new();
    for node in tree.iter() {
        nodes += 1;
        let fanout = tree.children(node).len();
        if fanout == 0 {
            leaves += 1;
        }
        max_fanout = max_fanout.max(fanout);
        *labels.entry(tree.label(node)).or_insert(0) += 1;
    }
    TreeStats {
        nodes,
        height: tree.height(),
        leaves,
        max_fanout,
        distinct_labels: labels.len(),
    }
}

/// Number `a_n` of rooted unordered **unlabeled** trees with exactly `n`
/// nodes, for `n = 0..=max_n` (`a_0 = 0`, `a_1 = 1`, `a_2 = 1`, `a_3 = 2`,
/// `a_4 = 4`, `a_5 = 9`, ... — OEIS A000081). Saturates at `u128::MAX` if
/// the value overflows (n ≳ 90).
///
/// The recurrence is
/// `a_{n+1} = (1/n) · Σ_{k=1..n} ( Σ_{d | k} d·a_d ) · a_{n-k+1}`.
#[allow(clippy::needless_range_loop)] // the divisor-sum recurrence reads more clearly with indices
pub fn rooted_tree_counts(max_n: usize) -> Vec<u128> {
    let mut a = vec![0u128; max_n + 1];
    if max_n >= 1 {
        a[1] = 1;
    }
    for n in 1..max_n {
        // Compute a[n+1].
        let mut total: u128 = 0;
        for k in 1..=n {
            // s(k) = sum over divisors d of k of d * a_d
            let mut s: u128 = 0;
            for d in 1..=k {
                if k % d == 0 {
                    s = s.saturating_add((d as u128).saturating_mul(a[d]));
                }
            }
            total = total.saturating_add(s.saturating_mul(a[n - k + 1]));
        }
        a[n + 1] = total / (n as u128);
    }
    a
}

/// Number of rooted unordered unlabeled trees with **at most** `n` nodes:
/// `Σ_{i=1..n} a_i` (saturating).
pub fn rooted_tree_counts_cumulative(max_n: usize) -> Vec<u128> {
    let a = rooted_tree_counts(max_n);
    let mut cum = vec![0u128; max_n + 1];
    for i in 1..=max_n {
        cum[i] = cum[i - 1].saturating_add(a[i]);
    }
    cum
}

/// Lower bound, in bits, on the average representation size of a
/// normalized possible-world set whose worlds have at most `n` nodes
/// (Proposition 1): the number of *sets* of such trees is at least
/// `2^{Σ a_i}`, so identifying one on average needs at least `Σ a_i` bits.
/// Returned as `Σ_{i=1..n} a_i`, saturating.
pub fn proposition1_bit_lower_bound(n: usize) -> u128 {
    *rooted_tree_counts_cumulative(n).last().unwrap_or(&0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{complete, star};

    #[test]
    fn stats_of_star() {
        let t = star("A", "C", 4);
        let s = stats(&t);
        assert_eq!(
            s,
            TreeStats {
                nodes: 5,
                height: 1,
                leaves: 4,
                max_fanout: 4,
                distinct_labels: 2
            }
        );
    }

    #[test]
    fn stats_of_complete_binary_tree() {
        let t = complete("X", 2, 3);
        let s = stats(&t);
        assert_eq!(s.nodes, 15);
        assert_eq!(s.leaves, 8);
        assert_eq!(s.height, 3);
        assert_eq!(s.distinct_labels, 1);
    }

    #[test]
    fn rooted_tree_counts_match_oeis_a000081() {
        // 0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719
        let a = rooted_tree_counts(10);
        assert_eq!(a, vec![0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719]);
    }

    #[test]
    fn cumulative_counts_are_monotone_and_correct() {
        let cum = rooted_tree_counts_cumulative(6);
        assert_eq!(cum, vec![0, 1, 2, 4, 8, 17, 37]);
        for w in cum.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn proposition1_bound_grows_exponentially() {
        let b8 = proposition1_bit_lower_bound(8);
        let b12 = proposition1_bit_lower_bound(12);
        let b16 = proposition1_bit_lower_bound(16);
        assert!(b12 > 4 * b8, "bound should grow faster than polynomially");
        assert!(b16 > 4 * b12);
    }

    #[test]
    fn rooted_tree_counts_handles_small_inputs() {
        assert_eq!(rooted_tree_counts(0), vec![0]);
        assert_eq!(rooted_tree_counts(1), vec![0, 1]);
    }
}
