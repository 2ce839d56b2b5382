//! Fixed-size pages shared through `Arc` and copied on write.
//!
//! [`Pages`] is a growable sequence addressed by index, like a `Vec`, that
//! stores its elements in pages of [`PAGE`] slots. Every full page sits
//! behind an `Arc`, so cloning a `Pages` copies one pointer per page and
//! the clones share every full page until one of them writes it:
//! [`Pages::make_mut`] copies the written page if another clone still holds
//! it. The last, partly filled page is owned by its `Pages` and copied by a
//! clone, so pushing never copies a page.
//!
//! A `Pages` of fewer than [`PAGE`] elements is one owned `Vec`: small
//! trees (a possible world, an answer) pay nothing for the paging. The
//! stores of a prob-tree frame — the node arena, the condition column and
//! the event table — are `Pages`, so a commit copies the pages it writes
//! and shares the rest with the frame it came from.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Slots per page.
pub const PAGE: usize = 256;

/// A copy-on-write sequence of fixed-size pages; see the module docs.
pub struct Pages<T> {
    /// Full pages, shared by every clone until one writes them.
    full: Vec<Arc<[T]>>,
    /// The last page, with fewer than [`PAGE`] elements.
    tail: Vec<T>,
}

impl<T> Pages<T> {
    /// An empty sequence.
    pub fn new() -> Self {
        Pages {
            full: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// An empty sequence with room for `capacity` elements before the
    /// first page fills.
    pub fn with_capacity(capacity: usize) -> Self {
        Pages {
            full: Vec::with_capacity(capacity / PAGE),
            tail: Vec::with_capacity(capacity.min(PAGE)),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.full.len() * PAGE + self.tail.len()
    }

    /// Whether the sequence has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.tail.is_empty()
    }

    /// The element at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        match self.full.get(index / PAGE) {
            Some(page) => Some(&page[index % PAGE]),
            None => self.tail.get(index - self.full.len() * PAGE),
        }
    }

    /// Appends `value`. A page that fills is frozen behind an `Arc`.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == PAGE {
            let page = std::mem::replace(&mut self.tail, Vec::with_capacity(PAGE));
            self.full.push(page.into());
        }
    }

    /// The elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.full
            .iter()
            .flat_map(|page| page.iter())
            .chain(&self.tail)
    }

    /// Pages of `self` that `base` does not hold: the full pages whose
    /// allocation differs from `base`'s page at the same position, plus the
    /// owned last page when it is not empty. A clone of `base` that was
    /// only read reports at most one; each page a write copied adds one.
    pub fn unshared_pages(&self, base: &Pages<T>) -> usize {
        let copied = self
            .full
            .iter()
            .enumerate()
            .filter(|&(i, page)| base.full.get(i).is_none_or(|b| !Arc::ptr_eq(page, b)))
            .count();
        copied + usize::from(!self.tail.is_empty())
    }
}

impl<T: Clone> Pages<T> {
    /// Mutable access to the element at `index`, copying its page first if
    /// another clone shares it.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn make_mut(&mut self, index: usize) -> &mut T {
        let full = self.full.len();
        match self.full.get_mut(index / PAGE) {
            Some(page) => &mut Arc::make_mut(page)[index % PAGE],
            None => &mut self.tail[index - full * PAGE],
        }
    }
}

impl<T> Index<usize> for Pages<T> {
    type Output = T;

    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    fn index(&self, index: usize) -> &T {
        match self.full.get(index / PAGE) {
            Some(page) => &page[index % PAGE],
            None => &self.tail[index - self.full.len() * PAGE],
        }
    }
}

impl<T: Clone> Clone for Pages<T> {
    /// Shares every full page and copies the last one: O(pages + [`PAGE`]).
    fn clone(&self) -> Self {
        Pages {
            full: self.full.clone(),
            tail: self.tail.clone(),
        }
    }
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages::new()
    }
}

impl<T> FromIterator<T> for Pages<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut pages = Pages::new();
        for value in iter {
            pages.push(value);
        }
        pages
    }
}

impl<T: fmt::Debug> fmt::Debug for Pages<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Asserts that `pages` holds exactly `model`, through every accessor.
    fn assert_matches(pages: &Pages<String>, model: &[String]) {
        assert_eq!(pages.len(), model.len());
        assert_eq!(pages.is_empty(), model.is_empty());
        assert!(pages.iter().eq(model.iter()));
        for (i, value) in model.iter().enumerate() {
            assert_eq!(&pages[i], value);
            assert_eq!(pages.get(i), Some(value));
        }
        let next_page = (model.len() / PAGE + 1) * PAGE;
        for beyond in [model.len(), next_page, next_page + model.len() % PAGE] {
            assert_eq!(pages.get(beyond), None, "index {beyond} of {}", model.len());
        }
    }

    fn filled(n: usize) -> (Pages<String>, Vec<String>) {
        let model: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        (model.iter().cloned().collect(), model)
    }

    #[test]
    fn page_boundaries_read_and_write_like_a_vec() {
        for n in [0, 1, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 7] {
            let (mut pages, mut model) = filled(n);
            assert_matches(&pages, &model);
            for i in (0..n).step_by(PAGE / 2 + 1).chain(n.checked_sub(1)) {
                *pages.make_mut(i) = format!("w{i}");
                model[i] = format!("w{i}");
            }
            assert_matches(&pages, &model);
        }
    }

    #[test]
    fn a_clone_shares_full_pages_until_one_side_writes() {
        let (base, model) = filled(3 * PAGE + 1);
        let mut copy = base.clone();
        assert_eq!(copy.unshared_pages(&base), 1, "only the owned last page");
        *copy.make_mut(PAGE + 3) = "x".to_owned();
        assert_eq!(copy.unshared_pages(&base), 2);
        *copy.make_mut(PAGE + 4) = "y".to_owned();
        assert_eq!(copy.unshared_pages(&base), 2, "one copy per page");
        assert_matches(&base, &model);
        for _ in 0..PAGE {
            copy.push("z".to_owned());
        }
        assert_eq!(
            copy.unshared_pages(&base),
            3,
            "the copied page, the new full page and the last page"
        );
        assert_eq!(base.unshared_pages(&base), 1);
        let (small, _) = filled(PAGE - 1);
        assert_eq!(small.unshared_pages(&Pages::new()), 1);
        assert_eq!(Pages::<String>::new().unshared_pages(&small), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn writing_past_the_end_panics() {
        let (mut pages, _) = filled(PAGE + 1);
        pages.make_mut(PAGE + 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn reading_past_the_end_panics() {
        let (pages, _) = filled(PAGE);
        let _ = &pages[2 * PAGE + 1];
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pushes, writes, clones and drops over several pages: after
        /// every operation each live clone equals its own `Vec` model, so no
        /// write leaks into another clone.
        #[test]
        fn every_clone_equals_its_own_model(
            start in prop::sample::select(vec![0usize, PAGE - 1, PAGE, PAGE + 1, 2 * PAGE + 5]),
            ops in prop::collection::vec((0..5u8, any::<usize>(), any::<usize>()), 1..40),
        ) {
            let (pages, model) = filled(start);
            let mut live = vec![(pages, model)];
            for (step, (kind, pick, at)) in ops.into_iter().enumerate() {
                let which = pick % live.len();
                match kind {
                    0 if live.len() < 4 => {
                        let copy = live[which].clone();
                        live.push(copy);
                    }
                    1 if live.len() > 1 => {
                        live.swap_remove(which);
                    }
                    2 => {
                        let (pages, model) = &mut live[which];
                        for i in 0..=at % (PAGE + 2) {
                            pages.push(format!("p{step}.{i}"));
                            model.push(format!("p{step}.{i}"));
                        }
                    }
                    _ => {
                        let (pages, model) = &mut live[which];
                        if !model.is_empty() {
                            let i = at % model.len();
                            *pages.make_mut(i) = format!("m{step}");
                            model[i] = format!("m{step}");
                        }
                    }
                }
                for (pages, model) in &live {
                    assert_matches(pages, model);
                }
            }
        }
    }
}
