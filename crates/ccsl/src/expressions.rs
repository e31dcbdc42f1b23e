//! Declarative *expressions*: constraints that define a new event in
//! terms of existing ones.
//!
//! In CCSL an expression introduces a fresh clock whose ticks are fully
//! determined (or constrained) by its operands. Here the "result" event
//! must already exist in the universe; the expression constrains it to
//! behave as defined.

use moccml_kernel::{Constraint, EventId, KernelError, StateKey, Step, StepFormula};

fn bad_key(name: &str, reason: &str) -> KernelError {
    KernelError::InvalidStateKey {
        constraint: name.to_owned(),
        reason: reason.to_owned(),
    }
}

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
    fn current_formula(&self) -> StepFormula {
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
    fn state_key(&self) -> StateKey {
        StateKey::new()
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        if key.is_empty() {
            Ok(())
        } else {
            Err(bad_key(
                &self.name,
                "stateless expression expects empty key",
            ))
        }
    }
    fn reset(&mut self) {}
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
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
    fn current_formula(&self) -> StepFormula {
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
    fn state_key(&self) -> StateKey {
        StateKey::new()
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        if key.is_empty() {
            Ok(())
        } else {
            Err(bad_key(
                &self.name,
                "stateless expression expects empty key",
            ))
        }
    }
    fn reset(&mut self) {}
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

/// `result = base $ delay`: the result coincides with every occurrence
/// of `base` except the first `delay` ones.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Delay;
/// use moccml_kernel::{Constraint, Step, Universe};
/// let mut u = Universe::new();
/// let (b, r) = (u.event("base"), u.event("res"));
/// let mut d = Delay::new("d", r, b, 1);
/// // first base tick: result must stay silent
/// assert!(!d.current_formula().eval(&Step::from_events([b, r])));
/// d.fire(&Step::from_events([b])).expect("skip one");
/// // afterwards result coincides with base
/// assert!(d.current_formula().eval(&Step::from_events([b, r])));
/// assert!(!d.current_formula().eval(&Step::from_events([b])));
/// ```
#[derive(Debug, Clone)]
pub struct Delay {
    name: String,
    result: EventId,
    base: EventId,
    delay: u64,
    seen: u64,
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
            seen: 0,
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
    fn current_formula(&self) -> StepFormula {
        if self.seen < self.delay {
            StepFormula::not(StepFormula::event(self.result))
        } else {
            StepFormula::iff(
                StepFormula::event(self.result),
                StepFormula::event(self.base),
            )
        }
    }
    fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if step.contains(self.base) && self.seen < self.delay {
            self.seen += 1;
        }
        Ok(())
    }
    fn state_key(&self) -> StateKey {
        StateKey::from_values([i64::try_from(self.seen).unwrap_or(i64::MAX)])
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        match key.values() {
            [s] if *s >= 0 => {
                self.seen = *s as u64;
                Ok(())
            }
            _ => Err(bad_key(&self.name, "expected one non-negative value")),
        }
    }
    fn reset(&mut self) {
        self.seen = 0;
    }
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

/// `result = base filteredBy (offset, period)`: the result coincides
/// with the occurrences of `base` whose 0-based index `k` satisfies
/// `k ≥ offset` and `(k − offset) mod period = 0`.
///
/// `Periodic::every` is the common `offset = 0` case.
#[derive(Debug, Clone)]
pub struct Periodic {
    name: String,
    result: EventId,
    base: EventId,
    offset: u64,
    period: u64,
    count: u64,
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
            count: 0,
        }
    }

    /// `result` ticks on every `period`-th occurrence of `base`,
    /// starting with the first.
    #[must_use]
    pub fn every(name: &str, result: EventId, base: EventId, period: u64) -> Self {
        Periodic::new(name, result, base, 0, period)
    }

    fn selected_now(&self) -> bool {
        self.count >= self.offset && (self.count - self.offset).is_multiple_of(self.period)
    }
}

impl Constraint for Periodic {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.result, self.base]
    }
    fn current_formula(&self) -> StepFormula {
        if self.selected_now() {
            StepFormula::iff(
                StepFormula::event(self.result),
                StepFormula::event(self.base),
            )
        } else {
            StepFormula::not(StepFormula::event(self.result))
        }
    }
    fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if step.contains(self.base) {
            self.count += 1;
        }
        Ok(())
    }
    fn state_key(&self) -> StateKey {
        // the selection is periodic: store count modulo the cycle once
        // past the offset, keeping the state space finite.
        let folded = if self.count >= self.offset {
            self.offset + (self.count - self.offset) % self.period
        } else {
            self.count
        };
        StateKey::from_values([i64::try_from(folded).unwrap_or(i64::MAX)])
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        match key.values() {
            [c] if *c >= 0 => {
                self.count = *c as u64;
                Ok(())
            }
            _ => Err(bad_key(&self.name, "expected one non-negative value")),
        }
    }
    fn reset(&mut self) {
        self.count = 0;
    }
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

/// `result = trigger sampledOn base`: the result ticks with the next
/// `base` occurrence following a `trigger` occurrence.
///
/// A trigger arriving *in the same step* as a `base` tick is kept for
/// the following tick (strict sampling).
#[derive(Debug, Clone)]
pub struct SampledOn {
    name: String,
    result: EventId,
    trigger: EventId,
    base: EventId,
    pending: bool,
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
            pending: false,
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
    fn current_formula(&self) -> StepFormula {
        if self.pending {
            StepFormula::iff(
                StepFormula::event(self.result),
                StepFormula::event(self.base),
            )
        } else {
            StepFormula::not(StepFormula::event(self.result))
        }
    }
    fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        let trig = step.contains(self.trigger);
        let base = step.contains(self.base);
        self.pending = if base { trig } else { self.pending || trig };
        Ok(())
    }
    fn state_key(&self) -> StateKey {
        StateKey::from_values([i64::from(self.pending)])
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        match key.values() {
            [0] => {
                self.pending = false;
                Ok(())
            }
            [1] => {
                self.pending = true;
                Ok(())
            }
            _ => Err(bad_key(&self.name, "expected one value in {0,1}")),
        }
    }
    fn reset(&mut self) {
        self.pending = false;
    }
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

/// `result = base filteredBy w·(v)^ω`: the result coincides with the
/// occurrences of `base` selected by a binary word — a finite prefix
/// `head` followed by the infinite repetition of `cycle`.
///
/// This is the fully general CCSL `filterBy`; [`Periodic`] is the
/// special case `0^offset·(1·0^(period−1))^ω`.
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
/// assert!(!f.current_formula().eval(&Step::from_events([b, r])));
/// ```
#[derive(Debug, Clone)]
pub struct FilteredBy {
    name: String,
    result: EventId,
    base: EventId,
    head: Vec<bool>,
    cycle: Vec<bool>,
    position: u64,
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
            position: 0,
        }
    }

    fn selected_now(&self) -> bool {
        let pos = self.position as usize;
        if pos < self.head.len() {
            self.head[pos]
        } else {
            self.cycle[(pos - self.head.len()) % self.cycle.len()]
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
    fn current_formula(&self) -> StepFormula {
        if self.selected_now() {
            StepFormula::iff(
                StepFormula::event(self.result),
                StepFormula::event(self.base),
            )
        } else {
            StepFormula::not(StepFormula::event(self.result))
        }
    }
    fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if step.contains(self.base) {
            self.position += 1;
        }
        Ok(())
    }
    fn state_key(&self) -> StateKey {
        // fold the position into the cycle once past the head so the
        // exploration state space stays finite
        let pos = self.position as usize;
        let folded = if pos >= self.head.len() {
            self.head.len() + (pos - self.head.len()) % self.cycle.len()
        } else {
            pos
        };
        StateKey::from_values([i64::try_from(folded).unwrap_or(i64::MAX)])
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        match key.values() {
            [p] if *p >= 0 => {
                self.position = *p as u64;
                Ok(())
            }
            _ => Err(bad_key(&self.name, "expected one non-negative value")),
        }
    }
    fn reset(&mut self) {
        self.position = 0;
    }
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fire_ok;
    use moccml_kernel::Universe;

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
        assert!(u.current_formula().eval(&Step::from_events([a, r])));
        assert!(u.current_formula().eval(&Step::from_events([a, b, r])));
        assert!(u.current_formula().eval(&Step::new()));
        assert!(!u.current_formula().eval(&Step::from_events([a])));
        assert!(!u.current_formula().eval(&Step::from_events([r])));
    }

    #[test]
    fn intersection_requires_all_operands() {
        let (_, a, b, r) = setup();
        let i = Intersection::new("i", r, [a, b]);
        assert!(i.current_formula().eval(&Step::from_events([a, b, r])));
        assert!(i.current_formula().eval(&Step::from_events([a])));
        assert!(!i.current_formula().eval(&Step::from_events([a, r])));
        assert!(!i.current_formula().eval(&Step::from_events([a, b])));
    }

    #[test]
    fn delay_skips_then_coincides() {
        let (_, base, _, r) = setup();
        let mut d = Delay::new("d", r, base, 2);
        fire_ok(&mut d, &Step::from_events([base]), "skip 1");
        fire_ok(&mut d, &Step::from_events([base]), "skip 2");
        assert!(!d.current_formula().eval(&Step::from_events([base]))); // r must tick now
        fire_ok(&mut d, &Step::from_events([base, r]), "coincide");
        assert!(!d.current_formula().eval(&Step::from_events([r]))); // r without base
    }

    #[test]
    fn delay_zero_is_coincidence() {
        let (_, base, _, r) = setup();
        let d = Delay::new("d", r, base, 0);
        assert!(d.current_formula().eval(&Step::from_events([base, r])));
        assert!(!d.current_formula().eval(&Step::from_events([base])));
    }

    #[test]
    fn periodic_selects_every_kth() {
        let (_, base, _, r) = setup();
        let mut p = Periodic::every("p", r, base, 3);
        // occurrence 0 selected, 1 and 2 not, 3 selected…
        fire_ok(&mut p, &Step::from_events([base, r]), "k=0");
        fire_ok(&mut p, &Step::from_events([base]), "k=1");
        fire_ok(&mut p, &Step::from_events([base]), "k=2");
        assert!(!p.current_formula().eval(&Step::from_events([base])));
        fire_ok(&mut p, &Step::from_events([base, r]), "k=3");
    }

    #[test]
    fn periodic_offset_shifts_selection() {
        let (_, base, _, r) = setup();
        let mut p = Periodic::new("p", r, base, 1, 2);
        assert!(!p.current_formula().eval(&Step::from_events([base, r]))); // k=0 not selected
        fire_ok(&mut p, &Step::from_events([base]), "k=0");
        fire_ok(&mut p, &Step::from_events([base, r]), "k=1 selected");
        fire_ok(&mut p, &Step::from_events([base]), "k=2");
        fire_ok(&mut p, &Step::from_events([base, r]), "k=3 selected");
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
        let mut s = SampledOn::new("s", r, trig, base);
        assert!(!s.current_formula().eval(&Step::from_events([base, r])));
        fire_ok(&mut s, &Step::from_events([trig]), "arm");
        fire_ok(&mut s, &Step::new(), "hold");
        assert!(!s.current_formula().eval(&Step::from_events([base]))); // must emit
        fire_ok(&mut s, &Step::from_events([base, r]), "emit");
        // consumed: next base tick must be silent
        assert!(!s.current_formula().eval(&Step::from_events([base, r])));
    }

    #[test]
    fn sampled_on_simultaneous_trigger_counts_for_next_tick() {
        let (_, trig, base, r) = setup();
        let mut s = SampledOn::new("s", r, trig, base);
        fire_ok(&mut s, &Step::from_events([trig]), "arm");
        fire_ok(&mut s, &Step::from_events([base, r, trig]), "emit+rearm");
        // the simultaneous trigger re-armed the sampler
        fire_ok(&mut s, &Step::from_events([base, r]), "emit again");
    }

    #[test]
    fn expression_state_round_trips() {
        let (_, base, trig, r) = setup();
        let mut d = Delay::new("d", r, base, 3);
        fire_ok(&mut d, &Step::from_events([base]), "tick");
        let key = d.state_key();
        d.reset();
        d.restore(&key).expect("restore");
        assert_eq!(d.state_key(), key);

        let mut s = SampledOn::new("s", r, trig, base);
        fire_ok(&mut s, &Step::from_events([trig]), "tick");
        let key = s.state_key();
        s.reset();
        s.restore(&key).expect("restore");
        assert_eq!(s.state_key(), key);
        assert!(s.restore(&StateKey::from_values([5])).is_err());
    }

    #[test]
    fn filtered_by_follows_the_word() {
        let (_, base, _, r) = setup();
        // word: 1 0 (1 1)^ω
        let mut f = FilteredBy::new("f", r, base, vec![true, false], vec![true, true]);
        fire_ok(&mut f, &Step::from_events([base, r]), "w[0]=1");
        fire_ok(&mut f, &Step::from_events([base]), "w[1]=0");
        fire_ok(&mut f, &Step::from_events([base, r]), "w[2]=1");
        fire_ok(&mut f, &Step::from_events([base, r]), "w[3]=1");
        assert!(!f.current_formula().eval(&Step::from_events([base]))); // cycle repeats: must tick
    }

    #[test]
    fn filtered_by_matches_periodic_special_case() {
        let (_, base, _, r) = setup();
        let mut periodic = Periodic::every("p", r, base, 3);
        let mut filtered = FilteredBy::new("f", r, base, vec![], vec![true, false, false]);
        for k in 0..9 {
            let step = if k % 3 == 0 {
                Step::from_events([base, r])
            } else {
                Step::from_events([base])
            };
            assert_eq!(
                periodic.current_formula().eval(&step),
                filtered.current_formula().eval(&step),
                "k = {k}"
            );
            fire_ok(&mut periodic, &step, "selected");
            fire_ok(&mut filtered, &step, "selected");
        }
    }

    #[test]
    fn filtered_by_state_key_folds_into_cycle() {
        let (_, base, _, r) = setup();
        let mut f = FilteredBy::new("f", r, base, vec![false], vec![true, false]);
        fire_ok(&mut f, &Step::from_events([base]), "head");
        let after_head = f.state_key();
        fire_ok(&mut f, &Step::from_events([base, r]), "cycle 0");
        fire_ok(&mut f, &Step::from_events([base]), "cycle 1");
        // one full cycle later the folded key repeats
        assert_eq!(f.state_key(), after_head);
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
        let mut p = Periodic::every("p", r, base, 2);
        let k0 = p.state_key();
        fire_ok(&mut p, &Step::from_events([base, r]), "k=0");
        fire_ok(&mut p, &Step::from_events([base]), "k=1");
        // after one full period the folded key returns to the initial one
        assert_eq!(p.state_key(), k0);
    }
}
