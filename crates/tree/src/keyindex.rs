//! A copy-on-write open-addressing index over string keys stored
//! elsewhere.
//!
//! [`KeyIndex`] maps a string key to a small `Copy` value, but never stores
//! the key: the caller keeps it (an event table's name column, a data
//! tree's label arena) and answers, per probe, whether a stored value
//! belongs to the key sought. The buckets are [`Pages`], so a clone shares
//! them and a write copies the one page it lands on.
//!
//! Buckets are a power of two, linearly probed, and doubled once half full.
//! Each occupied bucket carries a 32-bit tag of its key's hash: a probe
//! compares tags before it asks the caller to compare keys, and a doubling
//! re-files every entry by its tag without hashing a key again. Keys may
//! come from parsed input, so the index hashes them with the standard
//! library's randomly keyed hasher; nothing iterates it in bucket order.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::pages::Pages;

/// Buckets of the smallest index that holds an entry.
const MIN_BUCKETS: usize = 8;

/// The tag of a free bucket; an occupied bucket's tag is never 0.
const FREE: u32 = 0;

/// One bucket: a value and its key's tag, or [`FREE`].
#[derive(Clone, Copy, Debug, Default)]
struct Bucket<V> {
    tag: u32,
    value: V,
}

/// Where [`KeyIndex::probe`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The key's bucket, for [`KeyIndex::value`] and [`KeyIndex::set`].
    Found(usize),
    /// The key is absent; [`KeyIndex::fill`] files it here.
    Vacant(Vacancy),
}

/// A probe that found no entry: the key's tag and the free bucket that
/// ended the probe. Valid until the index next changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vacancy {
    tag: u32,
    /// `usize::MAX` when the index has no buckets.
    bucket: usize,
}

/// A copy-on-write open-addressing index from keys stored by the caller
/// to values; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct KeyIndex<V> {
    buckets: Pages<Bucket<V>>,
    entries: usize,
    /// Shared by every clone, so clones file a key alike.
    hasher: RandomState,
}

impl<V: Copy + Default> KeyIndex<V> {
    /// An index with no buckets.
    pub fn new() -> Self {
        KeyIndex {
            buckets: Pages::new(),
            entries: 0,
            hasher: RandomState::new(),
        }
    }

    /// Number of buckets (a power of two, or none).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the index has no buckets.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Looks `key` up. `is_key` tells whether a stored value belongs to
    /// `key`; the index asks it only about values whose tag equals the
    /// key's.
    pub fn probe(&self, key: &str, is_key: impl Fn(V) -> bool) -> Probe {
        let tag = self.tag(key);
        if self.buckets.is_empty() {
            return Probe::Vacant(Vacancy {
                tag,
                bucket: usize::MAX,
            });
        }
        let mask = self.buckets.len() - 1;
        let mut bucket = tag as usize & mask;
        loop {
            let slot = self.buckets[bucket];
            if slot.tag == FREE {
                return Probe::Vacant(Vacancy { tag, bucket });
            }
            if slot.tag == tag && is_key(slot.value) {
                return Probe::Found(bucket);
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// The value filed under `key`; see [`KeyIndex::probe`].
    pub fn get(&self, key: &str, is_key: impl Fn(V) -> bool) -> Option<V> {
        match self.probe(key, is_key) {
            Probe::Found(bucket) => Some(self.value(bucket)),
            Probe::Vacant(_) => None,
        }
    }

    /// The value in a bucket that [`Probe::Found`] named.
    pub fn value(&self, bucket: usize) -> V {
        self.buckets[bucket].value
    }

    /// Replaces the value in a bucket that [`Probe::Found`] named, copying
    /// the bucket's page if a clone shares it.
    pub fn set(&mut self, bucket: usize, value: V) {
        self.buckets.make_mut(bucket).value = value;
    }

    /// Files `value` at `at`, the vacancy a probe for its key returned.
    /// Doubles the buckets first when the new entry would fill half of
    /// them (an empty index gets 8).
    pub fn fill(&mut self, at: Vacancy, value: V) {
        self.entries += 1;
        let bucket = if 2 * self.entries > self.buckets.len() {
            self.refile((2 * self.buckets.len()).max(MIN_BUCKETS));
            self.free_bucket(at.tag)
        } else {
            at.bucket
        };
        *self.buckets.make_mut(bucket) = Bucket { tag: at.tag, value };
    }

    /// Pages of buckets that `base` does not hold; see
    /// [`Pages::unshared_pages`].
    pub fn unshared_pages(&self, base: &KeyIndex<V>) -> usize {
        self.buckets.unshared_pages(&base.buckets)
    }

    /// The tag of `key`: the low half of its hash, never [`FREE`].
    fn tag(&self, key: &str) -> u32 {
        (self.hasher.hash_one(key) as u32).max(1)
    }

    /// The first free bucket of a probe for `tag`. The index must have one.
    fn free_bucket(&self, tag: u32) -> usize {
        let mask = self.buckets.len() - 1;
        let mut bucket = tag as usize & mask;
        while self.buckets[bucket].tag != FREE {
            bucket = (bucket + 1) & mask;
        }
        bucket
    }

    /// Moves every entry into `buckets` buckets, placed by its tag.
    fn refile(&mut self, buckets: usize) {
        let mut next = vec![Bucket::default(); buckets];
        for slot in self.buckets.iter().filter(|slot| slot.tag != FREE) {
            let mut bucket = slot.tag as usize & (buckets - 1);
            while next[bucket].tag != FREE {
                bucket = (bucket + 1) & (buckets - 1);
            }
            next[bucket] = *slot;
        }
        self.buckets = next.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key column and its index, the way callers pair them.
    #[derive(Clone, Default)]
    struct Names {
        keys: Vec<String>,
        index: KeyIndex<u32>,
    }

    impl Names {
        fn find(&self, key: &str) -> Option<u32> {
            self.index.get(key, |id| self.keys[id as usize] == key)
        }

        fn insert(&mut self, key: String) -> u32 {
            let id = self.keys.len() as u32;
            match self.index.probe(&key, |id| self.keys[id as usize] == key) {
                Probe::Found(_) => panic!("{key} is filed"),
                Probe::Vacant(at) => self.index.fill(at, id),
            }
            self.keys.push(key);
            id
        }

        fn assert_complete(&self) {
            assert_eq!(self.index.entries, self.keys.len());
            for (id, key) in self.keys.iter().enumerate() {
                assert_eq!(self.find(key), Some(id as u32), "{key}");
            }
            assert_eq!(self.find("absent"), None);
        }
    }

    #[test]
    fn doubles_once_half_full() {
        let mut names = Names::default();
        assert_eq!(names.find("x"), None);
        assert!(names.index.is_empty());
        let mut growths = Vec::new();
        for i in 0..1_000 {
            let buckets = names.index.len();
            names.insert(format!("k{i}"));
            if names.index.len() != buckets {
                growths.push(names.keys.len());
                names.assert_complete();
            }
        }
        assert_eq!(growths[..4], [1, 5, 9, 17]);
        assert_eq!(names.index.len(), 2_048);
        names.assert_complete();
    }

    #[test]
    fn set_replaces_a_found_value() {
        let mut names = Names::default();
        for i in 0..300 {
            names.insert(format!("k{i}"));
        }
        let Probe::Found(bucket) = names.index.probe("k17", |id| id == 17) else {
            panic!("k17 is filed");
        };
        names.index.set(bucket, 18);
        assert_eq!(names.index.value(bucket), 18);
        assert_eq!(names.index.get("k17", |id| id == 18), Some(18));
        assert_eq!(names.index.get("k17", |id| id == 17), None);
    }

    #[test]
    fn diverging_clones_write_their_own_pages() {
        let mut base = Names::default();
        for i in 0..600 {
            base.insert(format!("k{i}"));
        }
        let mut left = base.clone();
        let right = base.clone();
        left.insert("left".to_owned());
        assert_eq!(right.find("left"), None);
        assert_eq!(base.find("left"), None);
        assert!(left.index.unshared_pages(&base.index) >= 1);
        assert_eq!(right.index.unshared_pages(&base.index), 0);
        left.assert_complete();
        right.assert_complete();
    }
}
