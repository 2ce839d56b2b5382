//! The machine's speed beside each timed op, read from a fixed kernel.
//!
//! The benchmark runs on a shared virtual machine. Its speed changes with
//! what the host's other tenants run, by up to about 1.7 times, in spells
//! from tens of milliseconds to tens of minutes: a whole run can fall in a
//! slow stretch. How much a piece of code slows depends on what it uses: a
//! dependent multiply chain keeps its speed, a sort slows by up to 1.6
//! times, and code that misses the core's caches, as `ingest`'s commits do,
//! can slow by more than the sort.
//!
//! So every timed op runs between two runs of a fixed kernel that uses the
//! core the way the library's code does: it sorts integers, fills and
//! probes a hash table larger than the core's own caches, and copies a
//! buffer too large for any cache. Every reported time is scaled to the
//! reference speed, at which the kernel takes [`REFERENCE`]:
//! `time × REFERENCE ÷ kernel`, with `kernel` the mean of the two runs
//! around the op. The kernel uses no code of the library and allocates
//! nothing after its first run, so no change to the library changes it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed, to which every reported time
/// is scaled: about its time on a shared two-vCPU virtual machine in its
/// fast state.
pub const REFERENCE: Duration = Duration::from_micros(2_000);

/// Integers the kernel sorts.
const SORT_LEN: usize = 20_000;
/// Keys the kernel inserts into its hash table, then looks up.
const TABLE_KEYS: usize = 30_000;
/// Capacity of the hash table, above `TABLE_KEYS` so it never grows.
const TABLE_CAPACITY: usize = 40_000;
/// Words the kernel copies: 4 MiB.
const COPY_WORDS: usize = 1 << 19;

/// A hash table with a fixed hasher, so every run probes the same slots.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// Runs the kernel between timed ops and times it.
pub struct Gauge {
    sorted: Vec<u64>,
    table: Table,
    source: Vec<u64>,
    copy: Vec<u64>,
    last: Option<Duration>,
    /// Every kernel time, for the report.
    pub times: Vec<Duration>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            sorted: Vec::with_capacity(SORT_LEN),
            table: Table::with_capacity_and_hasher(TABLE_CAPACITY, Default::default()),
            source: vec![1; COPY_WORDS],
            copy: vec![0; COPY_WORDS],
            last: None,
            times: Vec::new(),
        }
    }
}

impl Gauge {
    /// Runs the kernel once. Returns the mean of this run's time and the
    /// previous run's: the kernel's time around whatever ran in between.
    pub fn next(&mut self) -> Duration {
        let begin = Instant::now();
        black_box(self.kernel());
        let time = begin.elapsed();
        self.times.push(time);
        let around = around(self.last.unwrap_or(time), time);
        self.last = Some(time);
        around
    }

    /// A seeded sort, hash-table fill and probe, and buffer copy, in
    /// buffers that never grow past their first allocation.
    fn kernel(&mut self) -> u64 {
        self.sorted.clear();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        for _ in 0..SORT_LEN {
            x = xorshift(x);
            self.sorted.push(x % 100_000);
        }
        self.sorted.sort_unstable();
        let mut hash = self.sorted.iter().fold(0_u64, |hash, &value| {
            hash.wrapping_mul(31).wrapping_add(value)
        });

        self.table.clear();
        let seed = black_box(0x2545_F491_4F6C_DD1D_u64);
        let mut key = seed;
        for value in 0..TABLE_KEYS as u64 {
            key = xorshift(key);
            self.table.insert(key, value);
        }
        key = seed;
        for _ in 0..TABLE_KEYS {
            key = xorshift(key);
            hash = hash.wrapping_add(self.table.get(&key).copied().unwrap_or(0));
        }

        self.copy.copy_from_slice(&self.source);
        hash ^ self.copy[COPY_WORDS / 2]
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The kernel's time around an op, from its runs before and after it.
fn around(before: Duration, after: Duration) -> Duration {
    (before + after) / 2
}

/// `time` at the reference speed, given the kernel's time around it.
pub fn at_reference(time: Duration, kernel: Duration) -> Duration {
    time.mul_f64(REFERENCE.as_secs_f64() / kernel.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_kernel_against_its_reference() {
        let ms = Duration::from_millis;
        assert_eq!(at_reference(ms(30), REFERENCE), ms(30));
        // A machine at two thirds of the reference speed: the kernel takes
        // 1.5 times as long, and so does the op.
        assert_eq!(at_reference(ms(45), REFERENCE.mul_f64(1.5)), ms(30));
        assert_eq!(around(ms(1), ms(3)), ms(2));
    }

    #[test]
    fn the_kernel_is_fixed_work_in_fixed_buffers() {
        let mut gauge = Gauge::default();
        let first = gauge.kernel();
        let capacities = |gauge: &Gauge| (gauge.sorted.capacity(), gauge.table.capacity());
        let before = capacities(&gauge);
        assert_eq!(gauge.kernel(), first);
        assert_eq!(capacities(&gauge), before);
        assert!(gauge.sorted.is_sorted());
        assert_eq!(gauge.table.len(), TABLE_KEYS);
        // The first run has no run before it: its own time is the mean.
        let own = gauge.next();
        assert_eq!(gauge.times, [own]);
        let second = gauge.next();
        assert_eq!(second, around(gauge.times[0], gauge.times[1]));
    }
}
