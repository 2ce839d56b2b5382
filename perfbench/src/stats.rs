//! Order statistics of one op class, and the ratio metrics.
//!
//! Percentiles use the nearest-rank rule on the sorted samples. Ranks are
//! computed in integer per-mille, so no float rounding can move a rank.

use std::time::Duration;

/// Tail percentiles a run may report, in per-mille, highest first.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a reported tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of the `permille` percentile among `n`
/// sorted samples.
pub fn rank(n: usize, permille: usize) -> usize {
    assert!(n > 0, "a percentile needs samples");
    (n * permille).div_ceil(1000).clamp(1, n) - 1
}

/// The highest ladder percentile with at least ten samples strictly beyond
/// its rank; `None` when `n` is too small for any.
pub fn tail_permille(n: usize) -> Option<usize> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// `p99.9`, `p95`, … for a percentile in per-mille.
pub fn percentile_name(permille: usize) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Median and tail latency of one op class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Latency {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: Duration,
    /// The tail percentile's value.
    pub tail: Duration,
    /// The tail percentile, in per-mille.
    pub tail_permille: usize,
    /// Samples strictly beyond the tail's rank.
    pub beyond: usize,
}

impl Latency {
    /// `None` when there are too few samples for a tail.
    pub fn of(samples: &[Duration]) -> Option<Latency> {
        let n = samples.len();
        let tail_permille = tail_permille(n)?;
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let tail = rank(n, tail_permille);
        Some(Latency {
            count: n,
            p50: sorted[rank(n, 500)],
            tail: sorted[tail],
            tail_permille,
            beyond: n - 1 - tail,
        })
    }
}

/// Nearest-rank median of a non-empty sample.
pub fn median(samples: &[Duration]) -> Duration {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[rank(sorted.len(), 500)]
}

/// `part / whole`, or 0 when `whole` is 0 (nothing was done).
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A duration in milliseconds.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_nearest_rank() {
        assert_eq!(rank(1, 500), 0);
        assert_eq!(rank(3, 500), 1);
        assert_eq!(rank(100, 500), 49);
        assert_eq!(rank(100, 900), 89);
        assert_eq!(rank(7, 1000), 6);
        // 99.9% of 10 000 is exactly 9 990: integer per-mille keeps it so.
        assert_eq!(rank(10_000, 999), 9_989);
    }

    #[test]
    fn the_tail_is_the_highest_ladder_step_with_ten_samples_beyond() {
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(39), None);
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(1_000), Some(990));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        for n in 1..5_000 {
            let beyond = |p: usize| n - 1 - rank(n, p);
            let higher_fail = |p: usize| {
                TAIL_LADDER
                    .iter()
                    .filter(|&&q| q > p)
                    .all(|&q| beyond(q) < TAIL_MIN_BEYOND)
            };
            match tail_permille(n) {
                Some(p) => assert!(beyond(p) >= TAIL_MIN_BEYOND && higher_fail(p), "n = {n}"),
                None => assert!(higher_fail(0), "n = {n}"),
            }
        }
    }

    #[test]
    fn latency_of_a_hand_built_sample() {
        let samples: Vec<Duration> = (1..=100).rev().map(Duration::from_micros).collect();
        let latency = Latency::of(&samples).expect("100 samples have a tail");
        assert_eq!(latency.count, 100);
        assert_eq!(latency.p50, Duration::from_micros(50));
        assert_eq!(latency.tail_permille, 900);
        assert_eq!(latency.tail, Duration::from_micros(90));
        assert_eq!(latency.beyond, 10);
        assert_eq!(percentile_name(latency.tail_permille), "p90");
        assert_eq!(percentile_name(999), "p99.9");
        assert!(Latency::of(&samples[..39]).is_none());
    }

    #[test]
    fn medians_and_ratios() {
        let us = Duration::from_micros;
        assert_eq!(median(&[us(5), us(1), us(3)]), us(3));
        assert_eq!(median(&[us(4), us(1), us(3), us(2)]), us(2));
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ms(us(1_500)), 1.5);
    }
}
