//! [`StepSet`]: the acceptable steps of one state, factored by
//! independent constraint groups.
//!
//! Constraints that share no event (directly or through other
//! constraints) form the connected components of the footprint graph,
//! computed once per [`Program`]. A step of the whole specification is
//! one local step per component, so the step set is the product of the
//! components' own step sets. A `StepSet` keeps that product factored:
//! one sorted local list per component, never the product itself.
//!
//! [`nth`](StepSet::nth) and [`rank`](StepSet::rank) index the product
//! in the `Ord` on [`Step`], which is lexicographic over event bits in
//! priority order: word 0 first, and inside a word the highest bit
//! first (numeric on the bitset for ≤64 events). In a component's
//! sorted list, the local steps that agree on that component's
//! higher-priority bits form one contiguous range, split at its next
//! bit into "absent" then "present". Walking the bits in priority order
//! and counting completions (the product of the other ranges' sizes)
//! therefore unranks and ranks without enumerating the product.

use crate::program::Program;
use moccml_kernel::{EventId, KernelError, Step};
use std::borrow::Cow;

/// The acceptable steps of one configuration, one sorted local list per
/// component of the program's footprint graph. Indexed in the `Ord` on
/// [`Step`]: [`nth`](StepSet::nth)`(i)` is element `i` of the sorted
/// list [`to_vec`](StepSet::to_vec) would build.
///
/// Produced by [`Cursor::steps`](crate::Cursor::steps) and handed to
/// every [`Policy`](crate::Policy) through
/// [`PolicyContext::steps`](crate::PolicyContext::steps).
///
/// # Example
///
/// ```
/// use moccml_ccsl::SubClock;
/// use moccml_engine::{Program, SolverOptions};
/// use moccml_kernel::{Specification, Universe};
///
/// let mut u = Universe::new();
/// let (a, b, x, y) = (u.event("a"), u.event("b"), u.event("x"), u.event("y"));
/// let mut spec = Specification::new("two", u);
/// spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
/// spec.add_constraint(Box::new(SubClock::new("x⊆y", x, y)));
///
/// let program = Program::new(spec);
/// let cursor = program.cursor();
/// let set = cursor.steps(&SolverOptions::default()).expect("9 steps");
/// // 3 × 3 local steps, minus the excluded empty step
/// assert_eq!(set.len(), 8);
/// let all = set.to_vec();
/// for (i, step) in all.iter().enumerate() {
///     assert_eq!(&set.nth(i), step);
///     assert_eq!(set.rank(step), Some(i));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StepSet<'a> {
    program: &'a Program,
    /// Per component: its acceptable local steps (the empty one
    /// included when acceptable), sorted.
    lists: Vec<Cow<'a, [Step]>>,
    /// 1 when the product holds the empty step but the solver options
    /// exclude it: it is the least step, so every index shifts by one.
    skip: usize,
    len: usize,
}

impl<'a> StepSet<'a> {
    /// The set over `program`'s components with the given local lists.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::TooManySteps`] if the product's size does
    /// not fit a `usize`: [`nth`](StepSet::nth) could not index it.
    pub(crate) fn new(
        program: &'a Program,
        lists: Vec<Cow<'a, [Step]>>,
        include_empty: bool,
    ) -> Result<Self, KernelError> {
        // a component without steps empties the product, however large
        // the other factors are
        let product = if lists.iter().any(|l| l.is_empty()) {
            Some(0)
        } else {
            lists.iter().try_fold(1usize, |n, l| n.checked_mul(l.len()))
        };
        let product = product.ok_or(KernelError::TooManySteps {
            components: lists.len(),
        })?;
        let skip = usize::from(
            !include_empty && lists.iter().all(|l| l.first().is_some_and(Step::is_empty)),
        );
        Ok(StepSet {
            program,
            lists,
            skip,
            len: product - skip,
        })
    }

    /// Number of steps in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no step is acceptable (a deadlock).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th step in the `Ord` on [`Step`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn nth(&self, i: usize) -> Step {
        assert!(i < self.len, "step index {i} out of {}", self.len);
        let mut i = i + self.skip;
        if let [list] = self.lists.as_slice() {
            return list[i].clone();
        }
        let mut ranges: Vec<(usize, usize)> = self.lists.iter().map(|l| (0, l.len())).collect();
        let mut total = self.len + self.skip;
        for &(c, e) in self.program.priority() {
            if total == 1 {
                break;
            }
            let ((lo, hi), mid, below) = self.split(&ranges, total, c, e);
            if i < below {
                ranges[c] = (lo, mid);
                total = below;
            } else {
                i -= below;
                ranges[c] = (mid, hi);
                total -= below;
            }
        }
        self.compose(ranges.iter().map(|&(lo, _)| lo))
    }

    /// The index of `step` in the `Ord` on [`Step`] — the inverse of
    /// [`nth`](StepSet::nth) — or `None` if `step` is not in the set.
    #[must_use]
    pub fn rank(&self, step: &Step) -> Option<usize> {
        if self.len + self.skip == 0 {
            return None;
        }
        let index = if let [list] = self.lists.as_slice() {
            list.binary_search(step).ok()?
        } else {
            let mut ranges: Vec<(usize, usize)> = self.lists.iter().map(|l| (0, l.len())).collect();
            let mut total = self.len + self.skip;
            let mut index = 0;
            let mut matched = 0;
            for &(c, e) in self.program.priority() {
                let ((lo, hi), mid, below) = self.split(&ranges, total, c, e);
                if step.contains(e) {
                    matched += 1;
                    index += below;
                    ranges[c] = (mid, hi);
                    total -= below;
                } else {
                    ranges[c] = (lo, mid);
                    total = below;
                }
                if total == 0 {
                    return None;
                }
            }
            if matched != step.len() {
                return None;
            }
            index
        };
        index.checked_sub(self.skip)
    }

    /// Materializes the set as a sorted list.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Step> {
        let mut out = Vec::new();
        self.for_each(|step| out.push(step.clone()));
        out
    }

    /// Materializes the set as a sorted list, reusing a single
    /// component's own list.
    #[must_use]
    pub fn into_vec(mut self) -> Vec<Step> {
        if self.lists.len() != 1 {
            return self.to_vec();
        }
        let mut all = self.lists.pop().expect("one component").into_owned();
        all.drain(..self.skip);
        all
    }

    /// Splits component `c`'s range at event `e`, where its steps
    /// without `e` end: returns the range, the split point, and how many
    /// of the `total` completions of `ranges` lack `e`.
    fn split(
        &self,
        ranges: &[(usize, usize)],
        total: usize,
        c: usize,
        e: EventId,
    ) -> ((usize, usize), usize, usize) {
        let (lo, hi) = ranges[c];
        let absent = self.lists[c][lo..hi].partition_point(|s| !s.contains(e));
        ((lo, hi), lo + absent, total / (hi - lo) * absent)
    }

    /// The components' local lists, in component order.
    pub(crate) fn components(&self) -> impl Iterator<Item = &[Step]> {
        self.lists.iter().map(|l| &**l)
    }

    /// The step made of local step `picks[c]` of every component `c`.
    pub(crate) fn compose(&self, picks: impl IntoIterator<Item = usize>) -> Step {
        let mut step = Step::new();
        for (list, i) in self.lists.iter().zip(picks) {
            step.extend(&list[i]);
        }
        step
    }

    /// Calls `visit` with every step of the set, in the `Ord` on
    /// [`Step`], without listing them: a single component lends its own
    /// list, and a product is walked bit by bit in priority order with
    /// one step buffer.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&Step)) {
        if let [list] = self.lists.as_slice() {
            list[self.skip..].iter().for_each(visit);
            return;
        }
        if self.len + self.skip == 0 {
            return;
        }
        let mut ranges: Vec<(usize, usize)> = self.lists.iter().map(|l| (0, l.len())).collect();
        let mut skip = self.skip;
        let mut visit = |step: &Step| {
            if skip == 0 {
                visit(step);
            } else {
                skip -= 1;
            }
        };
        self.walk(
            self.program.priority(),
            &mut ranges,
            &mut Step::new(),
            &mut visit,
        );
    }

    /// Visits, in order, every completion of `step` (the bits decided
    /// so far) within `ranges` over the bits left in `priority`.
    fn walk(
        &self,
        priority: &[(usize, EventId)],
        ranges: &mut [(usize, usize)],
        step: &mut Step,
        visit: &mut dyn FnMut(&Step),
    ) {
        let Some((&(c, e), rest)) = priority.split_first() else {
            visit(step);
            return;
        };
        let (lo, hi) = ranges[c];
        let mid = lo + self.lists[c][lo..hi].partition_point(|s| !s.contains(e));
        if lo < mid {
            ranges[c] = (lo, mid);
            self.walk(rest, ranges, step, visit);
        }
        if mid < hi {
            ranges[c] = (mid, hi);
            step.insert(e);
            self.walk(rest, ranges, step, visit);
            step.remove(e);
        }
        ranges[c] = (lo, hi);
    }
}
