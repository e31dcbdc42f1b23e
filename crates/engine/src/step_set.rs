//! [`StepSet`]: the acceptable steps of one state, factored by
//! independent constraint groups.
//!
//! Constraints that share no event (directly or through other
//! constraints) form the connected components of the footprint graph,
//! computed once per [`Program`]. A step of the whole specification is
//! one local step per component, so the step set is the product of the
//! components' own step sets. A `StepSet` keeps that product factored:
//! one sorted local list per component, never the product itself, held
//! in place for up to four borrowed lists, so such a step set allocates
//! nothing.
//!
//! [`nth`](StepSet::nth) and [`rank`](StepSet::rank) index the product
//! in the `Ord` on [`Step`], which is lexicographic over event bits in
//! priority order: word 0 first, and inside a word the highest bit
//! first (numeric on the bitset for ≤64 events). The program cuts that
//! priority once into *runs*: maximal stretches of one component in
//! one bitset word. Before a run, each component's candidates form one
//! contiguous range of its sorted list (the local steps that agree on
//! its bits decided so far), and every candidate has the same number of
//! completions, the product of the other ranges' sizes. Inside the
//! range the local steps are sorted by their bits in the run, so
//! unranking index `i` takes element `k = i / completions` of the
//! range, narrows the range to the group of local steps that agree
//! with element `k` on the run's bits, and keeps the remainder of `i`
//! past that group. The last run of a component narrows it to
//! element `k` alone. When every component's events are contiguous in
//! priority (drift, pam, the cube) each component is one run, and
//! unranking is a mixed-radix split: one division per component.
//! Ranking runs the same narrowing with the step's own bits, and the
//! set is walked group by group. A step is composed by OR-ing its local
//! steps' bitset words.

use crate::program::{Program, Run};
use moccml_kernel::{KernelError, Step};
use std::borrow::Cow;

/// Components whose local lists a step set holds inline.
const INLINE: usize = 4;

/// Components whose ranges unranking keeps on the stack.
const STACK: usize = 16;

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
    lists: Lists<'a>,
    /// 1 when the product holds the empty step but the solver options
    /// exclude it: it is the least step, so every index shifts by one.
    skip: usize,
    len: usize,
}

/// The components' local lists: borrowed and in place for up to
/// [`INLINE`] components, on the heap otherwise.
#[derive(Debug, Clone)]
pub(crate) enum Lists<'a> {
    Inline(usize, [&'a [Step]; INLINE]),
    Heap(Vec<Cow<'a, [Step]>>),
}

impl Default for Lists<'_> {
    fn default() -> Self {
        Lists::Inline(0, [&[]; INLINE])
    }
}

impl<'a> Lists<'a> {
    /// Appends the next component's list.
    pub(crate) fn push(&mut self, list: Cow<'a, [Step]>) {
        match (&mut *self, list) {
            (Lists::Inline(len, lists), Cow::Borrowed(list)) if *len < INLINE => {
                lists[*len] = list;
                *len += 1;
            }
            (Lists::Heap(lists), list) => lists.push(list),
            (Lists::Inline(len, lists), list) => {
                let mut heap: Vec<_> = lists[..*len].iter().map(|&l| Cow::Borrowed(l)).collect();
                heap.push(list);
                *self = Lists::Heap(heap);
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Lists::Inline(len, _) => *len,
            Lists::Heap(lists) => lists.len(),
        }
    }

    /// Component `c`'s list.
    fn get(&self, c: usize) -> &[Step] {
        match self {
            Lists::Inline(_, lists) => lists[c],
            Lists::Heap(lists) => &lists[c],
        }
    }

    fn iter(&self) -> impl Iterator<Item = &[Step]> {
        (0..self.len()).map(|c| self.get(c))
    }
}

/// How many completions each candidate of component `comp` has: the
/// product of the other components' range sizes (multiplied, where a
/// quotient of the whole product would cost a division per run).
fn completions(ranges: &[(usize, usize)], comp: usize) -> usize {
    let sizes = ranges.iter().map(|&(lo, hi)| hi - lo);
    let before: usize = sizes.clone().take(comp).product();
    before * sizes.skip(comp + 1).product::<usize>()
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
        lists: Lists<'a>,
        include_empty: bool,
    ) -> Result<Self, KernelError> {
        // a component without steps empties the product, however large
        // the other factors are
        let product = if lists.iter().any(<[Step]>::is_empty) {
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
        if self.lists.len() == 1 {
            return self.lists.get(0)[i].clone();
        }
        self.with_ranges(|ranges| {
            for run in self.program.runs() {
                let (lo, hi) = ranges[run.comp];
                if hi - lo == 1 {
                    continue;
                }
                let completions = completions(ranges, run.comp);
                let k = if completions == 1 { i } else { i / completions };
                let (start, end) = self.group(run, (lo, hi), lo + k);
                i -= (start - lo) * completions;
                ranges[run.comp] = (start, end);
            }
            self.compose(ranges.iter().map(|&(lo, _)| lo))
        })
    }

    /// The index of `step` in the `Ord` on [`Step`] — the inverse of
    /// [`nth`](StepSet::nth) — or `None` if `step` is not in the set.
    #[must_use]
    pub fn rank(&self, step: &Step) -> Option<usize> {
        if self.len + self.skip == 0 {
            return None;
        }
        let index = if self.lists.len() == 1 {
            self.lists.get(0).binary_search(step).ok()?
        } else {
            self.with_ranges(|ranges| {
                let mut index = 0;
                for run in self.program.runs() {
                    let (lo, hi) = ranges[run.comp];
                    let completions = completions(ranges, run.comp);
                    let list = &self.lists.get(run.comp)[lo..hi];
                    let key = run.key(step);
                    let start = lo + list.partition_point(|s| run.key(s) < key);
                    let end = lo + list.partition_point(|s| run.key(s) <= key);
                    if start == end {
                        return None;
                    }
                    index += (start - lo) * completions;
                    ranges[run.comp] = (start, end);
                }
                // every constrained bit matched; no other may be set
                let found = self.compose(ranges.iter().map(|&(lo, _)| lo));
                (found == *step).then_some(index)
            })?
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
        let mut all = match &mut self.lists {
            Lists::Inline(_, lists) => lists[0].to_vec(),
            Lists::Heap(lists) => std::mem::take(&mut lists[0]).into_owned(),
        };
        all.drain(..self.skip);
        all
    }

    /// The group of component `run.comp`'s local steps in `range` that
    /// agree with element `k` on the run's bits: element `k` alone on
    /// the component's last run.
    fn group(&self, run: &Run, (lo, hi): (usize, usize), k: usize) -> (usize, usize) {
        if run.last {
            return (k, k + 1);
        }
        let list = self.lists.get(run.comp);
        let key = run.key(&list[k]);
        let start = lo + list[lo..k].partition_point(|s| run.key(s) < key);
        let end = k + list[k..hi].partition_point(|s| run.key(s) <= key);
        (start, end)
    }

    /// Calls `f` with one range per component, each its whole list:
    /// on the stack for up to [`STACK`] components.
    fn with_ranges<R>(&self, f: impl FnOnce(&mut [(usize, usize)]) -> R) -> R {
        let whole = |list: &[Step]| (0, list.len());
        if self.lists.len() <= STACK {
            let mut ranges = [(0, 0); STACK];
            for (range, list) in ranges.iter_mut().zip(self.lists.iter()) {
                *range = whole(list);
            }
            f(&mut ranges[..self.lists.len()])
        } else {
            f(&mut self.lists.iter().map(whole).collect::<Vec<_>>())
        }
    }

    /// The components' local lists, in component order.
    pub(crate) fn components(&self) -> impl Iterator<Item = &[Step]> {
        self.lists.iter()
    }

    /// The step made of local step `picks[c]` of every component `c`.
    pub(crate) fn compose(&self, picks: impl IntoIterator<Item = usize>) -> Step {
        let mut step = Step::new();
        for (list, i) in self.lists.iter().zip(picks) {
            step.union_with(&list[i]);
        }
        step
    }

    /// Calls `visit` with every step of the set, in the `Ord` on
    /// [`Step`], without listing them: a single component lends its own
    /// list, and a product is walked run by run, group by group.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&Step)) {
        if self.lists.len() == 1 {
            self.lists.get(0)[self.skip..].iter().for_each(visit);
            return;
        }
        if self.len + self.skip == 0 {
            return;
        }
        let mut skip = self.skip;
        let mut visit = |step: &Step| {
            if skip == 0 {
                visit(step);
            } else {
                skip -= 1;
            }
        };
        self.with_ranges(|ranges| self.walk(self.program.runs(), ranges, &mut visit));
    }

    /// Visits, in order, every completion of `ranges` over the runs
    /// left in `runs`.
    fn walk(&self, runs: &[Run], ranges: &mut [(usize, usize)], visit: &mut dyn FnMut(&Step)) {
        let Some((run, rest)) = runs.split_first() else {
            visit(&self.compose(ranges.iter().map(|&(lo, _)| lo)));
            return;
        };
        let (lo, hi) = ranges[run.comp];
        let mut start = lo;
        while start < hi {
            let group = self.group(run, (start, hi), start);
            ranges[run.comp] = group;
            self.walk(rest, ranges, visit);
            start = group.1;
        }
        ranges[run.comp] = (lo, hi);
    }
}
