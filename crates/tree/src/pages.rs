//! Fixed-size pages shared through `Arc` and copied on write.
//!
//! [`Pages`] is a growable sequence addressed by index, like a `Vec`, that
//! stores its elements in pages of [`PAGE`] slots. Every page sits behind
//! an `Arc`, so cloning a `Pages` copies one pointer per page and no
//! element, and the clones share every page until one of them writes it:
//! [`Pages::push`] and [`Pages::make_mut`] copy the page they write if
//! another clone still holds it.
//!
//! The stores of a prob-tree frame — the node arena, the condition column
//! and the event table — are `Pages`, so a commit copies the pages it
//! writes and shares the rest with the frame it came from.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Slots per page.
pub const PAGE: usize = 256;

/// A copy-on-write sequence of fixed-size pages; see the module docs.
pub struct Pages<T> {
    /// Every page but the last holds [`PAGE`] elements, and none is empty.
    pages: Vec<Arc<Vec<T>>>,
}

impl<T> Pages<T> {
    /// An empty sequence.
    pub fn new() -> Self {
        Pages { pages: Vec::new() }
    }

    /// An empty sequence with room for the page pointers of `capacity`
    /// elements; each page grows as its elements arrive.
    pub fn with_capacity(capacity: usize) -> Self {
        Pages {
            pages: Vec::with_capacity(capacity.div_ceil(PAGE)),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |last| (self.pages.len() - 1) * PAGE + last.len())
    }

    /// Whether the sequence has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The element at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.pages.get(index / PAGE)?.get(index % PAGE)
    }

    /// The elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.pages.iter().flat_map(|page| page.iter())
    }

    /// Pages of `self` that `base` does not hold: those whose allocation
    /// differs from `base`'s page at the same position. A clone of `base`
    /// that was only read reports 0; each page a write copied or a push
    /// added adds one.
    pub fn unshared_pages(&self, base: &Pages<T>) -> usize {
        self.pages
            .iter()
            .enumerate()
            .filter(|&(i, page)| base.pages.get(i).is_none_or(|b| !Arc::ptr_eq(page, b)))
            .count()
    }
}

impl<T: Clone> Pages<T> {
    /// Appends `value`, copying the last page first if another clone
    /// shares it.
    pub fn push(&mut self, value: T) {
        match self.pages.last_mut() {
            Some(last) if last.len() < PAGE => Arc::make_mut(last).push(value),
            _ => self.pages.push(Arc::new(vec![value])),
        }
    }

    /// Mutable access to the element at `index`, copying its page first if
    /// another clone shares it.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn make_mut(&mut self, index: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.pages[index / PAGE])[index % PAGE]
    }
}

impl<T> Index<usize> for Pages<T> {
    type Output = T;

    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    fn index(&self, index: usize) -> &T {
        &self.pages[index / PAGE][index % PAGE]
    }
}

impl<T> Clone for Pages<T> {
    /// Shares every page: O(pages), whatever `T` is.
    fn clone(&self) -> Self {
        Pages {
            pages: self.pages.clone(),
        }
    }
}

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages::new()
    }
}

impl<T: Clone> FromIterator<T> for Pages<T> {
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
        assert_eq!(copy.unshared_pages(&base), 0, "a read-only clone");
        *copy.make_mut(PAGE + 3) = "x".to_owned();
        assert_eq!(copy.unshared_pages(&base), 1);
        *copy.make_mut(PAGE + 4) = "y".to_owned();
        assert_eq!(copy.unshared_pages(&base), 1, "one copy per page");
        assert_matches(&base, &model);
        for _ in 0..PAGE {
            copy.push("z".to_owned());
        }
        assert_eq!(
            copy.unshared_pages(&base),
            3,
            "the written page, the last page the pushes copied and the page they added"
        );
        assert_matches(&base, &model);
        assert_eq!(base.unshared_pages(&base), 0);
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

        /// Random pushes, writes, clones and drops over several pages: a
        /// fresh clone shares every page, and after every operation each
        /// live clone equals its own `Vec` model, so no write leaks into
        /// another clone.
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
                        prop_assert_eq!(copy.0.unshared_pages(&live[which].0), 0);
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
