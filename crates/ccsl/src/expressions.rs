//! Declarative *expressions*: constraints that define a new event in
//! terms of existing ones.
//!
//! In CCSL an expression introduces a fresh clock whose ticks are fully
//! determined (or constrained) by its operands. Here the "result" event
//! must already exist in the universe; the expression constrains it to
//! behave as defined.

use crate::{counter, counter_key};
use moccml_kernel::{Constraint, EventId, StateKey, Step, StepFormula};

/// `result = a + b + …`: the result occurs exactly when at least one
/// operand occurs.
#[derive(Debug, Clone)]
pub struct Union {
    name: String,
    result: EventId,
    operands: Vec<EventId>,
}

impl Union {
    /// Creates `result = union(operands)`.
    ///
    /// # Panics
    ///
    /// Panics if `operands` is empty.
    #[must_use]
    pub fn new<I: IntoIterator<Item = EventId>>(name: &str, result: EventId, operands: I) -> Self {
        let operands: Vec<EventId> = operands.into_iter().collect();
        assert!(!operands.is_empty(), "union needs at least one operand");
        Union {
            name: name.to_owned(),
            result,
            operands,
        }
    }
}

impl Constraint for Union {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        let mut v = vec![self.result];
        v.extend(&self.operands);
        v
    }
    fn initial(&self) -> StateKey {
        StateKey::new()
    }
    fn formula(&self, _local: &StateKey) -> StepFormula {
        StepFormula::iff(
            StepFormula::event(self.result),
            StepFormula::or(
                self.operands
                    .iter()
                    .map(|&e| StepFormula::event(e))
                    .collect(),
            ),
        )
    }
    fn next(&self, local: &StateKey, _step: &Step) -> StateKey {
        local.clone()
    }
}

/// `result = a * b * …`: the result occurs exactly when every operand
/// occurs.
#[derive(Debug, Clone)]
pub struct Intersection {
    name: String,
    result: EventId,
    operands: Vec<EventId>,
}

impl Intersection {
    /// Creates `result = intersection(operands)`.
    ///
    /// # Panics
    ///
    /// Panics if `operands` is empty.
    #[must_use]
    pub fn new<I: IntoIterator<Item = EventId>>(name: &str, result: EventId, operands: I) -> Self {
        let operands: Vec<EventId> = operands.into_iter().collect();
        assert!(
            !operands.is_empty(),
            "intersection needs at least one operand"
        );
        Intersection {
            name: name.to_owned(),
            result,
            operands,
        }
    }
}

impl Constraint for Intersection {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        let mut v = vec![self.result];
        v.extend(&self.operands);
        v
    }
    fn initial(&self) -> StateKey {
        StateKey::new()
    }
    fn formula(&self, _local: &StateKey) -> StepFormula {
        StepFormula::iff(
            StepFormula::event(self.result),
            StepFormula::and(
                self.operands
                    .iter()
                    .map(|&e| StepFormula::event(e))
                    .collect(),
            ),
        )
    }
    fn next(&self, local: &StateKey, _step: &Step) -> StateKey {
        local.clone()
    }
}

/// `result = base $ delay`: the result coincides with every occurrence
/// of `base` except the first `delay` ones.
///
/// The local state counts the skipped `base` occurrences, up to `delay`.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Delay;
/// use moccml_kernel::{Constraint, Step, Universe};
/// let mut u = Universe::new();
/// let (b, r) = (u.event("base"), u.event("res"));
/// let d = Delay::new("d", r, b, 1);
/// let start = d.initial();
/// // first base tick: result must stay silent
/// assert!(!d.formula(&start).eval(&Step::from_events([b, r])));
/// let skipped = d.next(&start, &Step::from_events([b]));
/// // afterwards result coincides with base
/// assert!(d.formula(&skipped).eval(&Step::from_events([b, r])));
/// assert!(!d.formula(&skipped).eval(&Step::from_events([b])));
/// ```
#[derive(Debug, Clone)]
pub struct Delay {
    name: String,
    result: EventId,
    base: EventId,
    delay: u64,
}

impl Delay {
    /// Creates `result = base $ delay`.
    #[must_use]
    pub fn new(name: &str, result: EventId, base: EventId, delay: u64) -> Self {
        Delay {
            name: name.to_owned(),
            result,
            base,
            delay,
        }
    }
}

impl Constraint for Delay {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.result, self.base]
    }
    fn initial(&self) -> StateKey {
        counter_key(0)
    }
    fn formula(&self, local: &StateKey) -> StepFormula {
        if counter(local) < self.delay {
            StepFormula::not(StepFormula::event(self.result))
        } else {
            StepFormula::iff(
                StepFormula::event(self.result),
                StepFormula::event(self.base),
            )
        }
    }
    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        let seen = counter(local);
        if step.contains(self.base) && seen < self.delay {
            counter_key(seen + 1)
        } else {
            local.clone()
        }
    }
}

/// The formula of a filter whose current `base` occurrence is
/// `selected`: the result coincides with `base`, or stays silent.
fn filter_formula(selected: bool, result: EventId, base: EventId) -> StepFormula {
    if selected {
        StepFormula::iff(StepFormula::event(result), StepFormula::event(base))
    } else {
        StepFormula::not(StepFormula::event(result))
    }
}

/// The position after `position` in a word of `head` letters followed
/// by a repeated cycle of `cycle` letters, folded into the cycle once
/// past the head so that the exploration state space stays finite.
fn next_position(position: u64, head: u64, cycle: u64) -> u64 {
    let next = position.saturating_add(1);
    if next >= head {
        head + (next - head) % cycle
    } else {
        next
    }
}

/// `result = base filteredBy (offset, period)`: the result coincides
/// with the occurrences of `base` whose 0-based index `k` satisfies
/// `k ≥ offset` and `(k − offset) mod period = 0`.
///
/// `Periodic::every` is the common `offset = 0` case. The local state is
/// the index of the next `base` occurrence, folded into the period once
/// past the offset.
#[derive(Debug, Clone)]
pub struct Periodic {
    name: String,
    result: EventId,
    base: EventId,
    offset: u64,
    period: u64,
}

impl Periodic {
    /// Creates the filtered clock.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(name: &str, result: EventId, base: EventId, offset: u64, period: u64) -> Self {
        assert!(period > 0, "period must be at least 1");
        Periodic {
            name: name.to_owned(),
            result,
            base,
            offset,
            period,
        }
    }

    /// `result` ticks on every `period`-th occurrence of `base`,
    /// starting with the first.
    #[must_use]
    pub fn every(name: &str, result: EventId, base: EventId, period: u64) -> Self {
        Periodic::new(name, result, base, 0, period)
    }
}

impl Constraint for Periodic {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.result, self.base]
    }
    fn initial(&self) -> StateKey {
        counter_key(0)
    }
    fn formula(&self, local: &StateKey) -> StepFormula {
        let count = counter(local);
        let selected = count >= self.offset && (count - self.offset).is_multiple_of(self.period);
        filter_formula(selected, self.result, self.base)
    }
    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        if step.contains(self.base) {
            counter_key(next_position(counter(local), self.offset, self.period))
        } else {
            local.clone()
        }
    }
}

/// `result = trigger sampledOn base`: the result ticks with the next
/// `base` occurrence following a `trigger` occurrence.
///
/// A trigger arriving *in the same step* as a `base` tick is kept for
/// the following tick (strict sampling). The local state is `1` while a
/// trigger is pending, `0` otherwise.
#[derive(Debug, Clone)]
pub struct SampledOn {
    name: String,
    result: EventId,
    trigger: EventId,
    base: EventId,
}

impl SampledOn {
    /// Creates `result = trigger sampledOn base`.
    #[must_use]
    pub fn new(name: &str, result: EventId, trigger: EventId, base: EventId) -> Self {
        SampledOn {
            name: name.to_owned(),
            result,
            trigger,
            base,
        }
    }
}

impl Constraint for SampledOn {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.result, self.trigger, self.base]
    }
    fn initial(&self) -> StateKey {
        counter_key(0)
    }
    fn formula(&self, local: &StateKey) -> StepFormula {
        filter_formula(counter(local) != 0, self.result, self.base)
    }
    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        let trig = step.contains(self.trigger);
        let pending = if step.contains(self.base) {
            trig
        } else {
            counter(local) != 0 || trig
        };
        counter_key(u64::from(pending))
    }
}

/// `result = base filteredBy w·(v)^ω`: the result coincides with the
/// occurrences of `base` selected by a binary word — a finite prefix
/// `head` followed by the infinite repetition of `cycle`.
///
/// This is the fully general CCSL `filterBy`; [`Periodic`] is the
/// special case `0^offset·(1·0^(period−1))^ω`. The local state is the
/// position in the word, folded into the cycle once past the head.
///
/// # Example
///
/// ```
/// use moccml_ccsl::FilteredBy;
/// use moccml_kernel::{Constraint, Step, Universe};
/// let mut u = Universe::new();
/// let (b, r) = (u.event("base"), u.event("res"));
/// // select occurrences 1, 3, 5, … (skip one, then every other)
/// let f = FilteredBy::new("f", r, b, vec![false], vec![true, false]);
/// assert!(!f.formula(&f.initial()).eval(&Step::from_events([b, r])));
/// ```
#[derive(Debug, Clone)]
pub struct FilteredBy {
    name: String,
    result: EventId,
    base: EventId,
    head: Vec<bool>,
    cycle: Vec<bool>,
}

impl FilteredBy {
    /// Creates the filter `head · cycle^ω` over `base`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is empty (the word must be infinite).
    #[must_use]
    pub fn new(
        name: &str,
        result: EventId,
        base: EventId,
        head: Vec<bool>,
        cycle: Vec<bool>,
    ) -> Self {
        assert!(!cycle.is_empty(), "the periodic part must be non-empty");
        FilteredBy {
            name: name.to_owned(),
            result,
            base,
            head,
            cycle,
        }
    }

    fn selected(&self, position: u64) -> bool {
        let pos = usize::try_from(position).unwrap_or(usize::MAX);
        match self.head.get(pos) {
            Some(&letter) => letter,
            None => self.cycle[(pos - self.head.len()) % self.cycle.len()],
        }
    }
}

impl Constraint for FilteredBy {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.result, self.base]
    }
    fn initial(&self) -> StateKey {
        counter_key(0)
    }
    fn formula(&self, local: &StateKey) -> StepFormula {
        filter_formula(self.selected(counter(local)), self.result, self.base)
    }
    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        if step.contains(self.base) {
            let (head, cycle) = (self.head.len() as u64, self.cycle.len() as u64);
            counter_key(next_position(counter(local), head, cycle))
        } else {
            local.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fire_ok;
    use moccml_kernel::{Specification, Universe};

    fn setup() -> (Universe, EventId, EventId, EventId) {
        let mut u = Universe::new();
        let a = u.event("a");
        let b = u.event("b");
        let r = u.event("r");
        (u, a, b, r)
    }

    #[test]
    fn union_tracks_any_operand() {
        let (_, a, b, r) = setup();
        let u = Union::new("u", r, [a, b]);
        let f = u.formula(&u.initial());
        assert!(f.eval(&Step::from_events([a, r])));
        assert!(f.eval(&Step::from_events([a, b, r])));
        assert!(f.eval(&Step::new()));
        assert!(!f.eval(&Step::from_events([a])));
        assert!(!f.eval(&Step::from_events([r])));
    }

    #[test]
    fn intersection_requires_all_operands() {
        let (_, a, b, r) = setup();
        let i = Intersection::new("i", r, [a, b]);
        let f = i.formula(&i.initial());
        assert!(f.eval(&Step::from_events([a, b, r])));
        assert!(f.eval(&Step::from_events([a])));
        assert!(!f.eval(&Step::from_events([a, r])));
        assert!(!f.eval(&Step::from_events([a, b])));
    }

    #[test]
    fn delay_skips_then_coincides() {
        let (_, base, _, r) = setup();
        let d = Delay::new("d", r, base, 2);
        let mut l = d.initial();
        fire_ok(&d, &mut l, &Step::from_events([base]), "skip 1");
        fire_ok(&d, &mut l, &Step::from_events([base]), "skip 2");
        assert!(!d.formula(&l).eval(&Step::from_events([base]))); // r must tick now
        fire_ok(&d, &mut l, &Step::from_events([base, r]), "coincide");
        assert!(!d.formula(&l).eval(&Step::from_events([r]))); // r without base
    }

    #[test]
    fn delay_zero_is_coincidence() {
        let (_, base, _, r) = setup();
        let d = Delay::new("d", r, base, 0);
        assert!(d.formula(&d.initial()).eval(&Step::from_events([base, r])));
        assert!(!d.formula(&d.initial()).eval(&Step::from_events([base])));
    }

    #[test]
    fn periodic_selects_every_kth() {
        let (_, base, _, r) = setup();
        let p = Periodic::every("p", r, base, 3);
        let mut l = p.initial();
        // occurrence 0 selected, 1 and 2 not, 3 selected…
        fire_ok(&p, &mut l, &Step::from_events([base, r]), "k=0");
        fire_ok(&p, &mut l, &Step::from_events([base]), "k=1");
        fire_ok(&p, &mut l, &Step::from_events([base]), "k=2");
        assert!(!p.formula(&l).eval(&Step::from_events([base])));
        fire_ok(&p, &mut l, &Step::from_events([base, r]), "k=3");
    }

    #[test]
    fn periodic_offset_shifts_selection() {
        let (_, base, _, r) = setup();
        let p = Periodic::new("p", r, base, 1, 2);
        let mut l = p.initial();
        assert!(!p.formula(&l).eval(&Step::from_events([base, r]))); // k=0 not selected
        fire_ok(&p, &mut l, &Step::from_events([base]), "k=0");
        fire_ok(&p, &mut l, &Step::from_events([base, r]), "k=1 selected");
        fire_ok(&p, &mut l, &Step::from_events([base]), "k=2");
        fire_ok(&p, &mut l, &Step::from_events([base, r]), "k=3 selected");
    }

    #[test]
    #[should_panic(expected = "period")]
    fn periodic_zero_period_panics() {
        let (_, base, _, r) = setup();
        let _ = Periodic::every("p", r, base, 0);
    }

    #[test]
    fn sampled_on_holds_until_base() {
        let (_, trig, base, r) = setup();
        let s = SampledOn::new("s", r, trig, base);
        let mut l = s.initial();
        assert!(!s.formula(&l).eval(&Step::from_events([base, r])));
        fire_ok(&s, &mut l, &Step::from_events([trig]), "arm");
        fire_ok(&s, &mut l, &Step::new(), "hold");
        assert!(!s.formula(&l).eval(&Step::from_events([base]))); // must emit
        fire_ok(&s, &mut l, &Step::from_events([base, r]), "emit");
        // consumed: next base tick must be silent
        assert!(!s.formula(&l).eval(&Step::from_events([base, r])));
    }

    #[test]
    fn sampled_on_simultaneous_trigger_counts_for_next_tick() {
        let (_, trig, base, r) = setup();
        let s = SampledOn::new("s", r, trig, base);
        let mut l = s.initial();
        fire_ok(&s, &mut l, &Step::from_events([trig]), "arm");
        fire_ok(
            &s,
            &mut l,
            &Step::from_events([base, r, trig]),
            "emit+rearm",
        );
        // the simultaneous trigger re-armed the sampler
        fire_ok(&s, &mut l, &Step::from_events([base, r]), "emit again");
    }

    #[test]
    fn expression_state_round_trips() {
        let (u, base, trig, r) = setup();
        let mut spec = Specification::new("s", u);
        spec.add_constraint(Box::new(Delay::new("d", r, base, 3)));
        spec.add_constraint(Box::new(SampledOn::new("s", r, trig, base)));
        spec.fire(&Step::from_events([base, trig])).expect("tick");
        let key = spec.state_key();
        spec.reset();
        spec.restore(&key).expect("restore");
        assert_eq!(spec.state_key(), key);
        assert!(spec
            .restore(&StateKey::from_values([1, 1, 2, 1, 0]))
            .is_err());
    }

    #[test]
    fn filtered_by_follows_the_word() {
        let (_, base, _, r) = setup();
        // word: 1 0 (1 1)^ω
        let f = FilteredBy::new("f", r, base, vec![true, false], vec![true, true]);
        let mut l = f.initial();
        fire_ok(&f, &mut l, &Step::from_events([base, r]), "w[0]=1");
        fire_ok(&f, &mut l, &Step::from_events([base]), "w[1]=0");
        fire_ok(&f, &mut l, &Step::from_events([base, r]), "w[2]=1");
        fire_ok(&f, &mut l, &Step::from_events([base, r]), "w[3]=1");
        assert!(!f.formula(&l).eval(&Step::from_events([base]))); // cycle repeats: must tick
    }

    #[test]
    fn filtered_by_matches_periodic_special_case() {
        let (_, base, _, r) = setup();
        let periodic = Periodic::every("p", r, base, 3);
        let filtered = FilteredBy::new("f", r, base, vec![], vec![true, false, false]);
        let (mut lp, mut lf) = (periodic.initial(), filtered.initial());
        for k in 0..9 {
            let step = if k % 3 == 0 {
                Step::from_events([base, r])
            } else {
                Step::from_events([base])
            };
            assert_eq!(
                periodic.formula(&lp).eval(&step),
                filtered.formula(&lf).eval(&step),
                "k = {k}"
            );
            fire_ok(&periodic, &mut lp, &step, "selected");
            fire_ok(&filtered, &mut lf, &step, "selected");
        }
    }

    #[test]
    fn filtered_by_state_key_folds_into_cycle() {
        let (_, base, _, r) = setup();
        let f = FilteredBy::new("f", r, base, vec![false], vec![true, false]);
        let mut l = f.initial();
        fire_ok(&f, &mut l, &Step::from_events([base]), "head");
        let after_head = l.clone();
        fire_ok(&f, &mut l, &Step::from_events([base, r]), "cycle 0");
        fire_ok(&f, &mut l, &Step::from_events([base]), "cycle 1");
        // one full cycle later the folded key repeats
        assert_eq!(l, after_head);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn filtered_by_requires_a_cycle() {
        let (_, base, _, r) = setup();
        let _ = FilteredBy::new("f", r, base, vec![true], vec![]);
    }

    #[test]
    fn periodic_state_key_is_folded() {
        let (_, base, _, r) = setup();
        let p = Periodic::every("p", r, base, 2);
        let k0 = p.initial();
        let mut l = k0.clone();
        fire_ok(&p, &mut l, &Step::from_events([base, r]), "k=0");
        fire_ok(&p, &mut l, &Step::from_events([base]), "k=1");
        // after one full period the folded key returns to the initial one
        assert_eq!(l, k0);
    }
}
