//! Declarative *relations*: constraints restricting existing events.

use crate::{counter, counter_key};
use moccml_kernel::{Constraint, EventId, StateKey, Step, StepFormula};

/// `sub` is a sub-clock of `sup`: whenever `sub` occurs, `sup` occurs.
///
/// Sec. II-C: *"if the sub-event declarative constraint is defined
/// between two events e1 and e2 (…), then the corresponding boolean
/// expression is e1 ⇒ e2"*. The relation is stateless.
///
/// # Example
///
/// ```
/// use moccml_ccsl::SubClock;
/// use moccml_kernel::{Constraint, Step, Universe};
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let c = SubClock::new("sub", a, b);
/// assert!(c.formula(&c.initial()).eval(&Step::new()));
/// assert!(!c.formula(&c.initial()).eval(&Step::from_events([a])));
/// ```
#[derive(Debug, Clone)]
pub struct SubClock {
    name: String,
    sub: EventId,
    sup: EventId,
}

impl SubClock {
    /// Creates the relation `sub ⊆ sup`.
    #[must_use]
    pub fn new(name: &str, sub: EventId, sup: EventId) -> Self {
        SubClock {
            name: name.to_owned(),
            sub,
            sup,
        }
    }
}

impl Constraint for SubClock {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.sub, self.sup]
    }
    fn initial(&self) -> StateKey {
        StateKey::new()
    }
    fn formula(&self, _local: &StateKey) -> StepFormula {
        StepFormula::implies(StepFormula::event(self.sub), StepFormula::event(self.sup))
    }
    fn next(&self, local: &StateKey, _step: &Step) -> StateKey {
        local.clone()
    }
}

/// At most one of the given events occurs per step (n-ary exclusion).
///
/// With two events this is the classical CCSL exclusion `a # b`; with
/// more it models shared exclusive resources — the SDF deployment
/// extension uses it to serialize agents allocated to one processor.
#[derive(Debug, Clone)]
pub struct Exclusion {
    name: String,
    events: Vec<EventId>,
}

impl Exclusion {
    /// Creates an exclusion over `events`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two events are given (the relation would be
    /// vacuous).
    #[must_use]
    pub fn new<I: IntoIterator<Item = EventId>>(name: &str, events: I) -> Self {
        let events: Vec<EventId> = events.into_iter().collect();
        assert!(events.len() >= 2, "exclusion needs at least two events");
        Exclusion {
            name: name.to_owned(),
            events,
        }
    }
}

impl Constraint for Exclusion {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        self.events.clone()
    }
    fn initial(&self) -> StateKey {
        StateKey::new()
    }
    fn formula(&self, _local: &StateKey) -> StepFormula {
        StepFormula::at_most_one(&self.events)
    }
    fn next(&self, local: &StateKey, _step: &Step) -> StateKey {
        local.clone()
    }
}

/// `left` and `right` always occur together (coincidence, `a = b`).
#[derive(Debug, Clone)]
pub struct Coincidence {
    name: String,
    left: EventId,
    right: EventId,
}

impl Coincidence {
    /// Creates the coincidence `left = right`.
    #[must_use]
    pub fn new(name: &str, left: EventId, right: EventId) -> Self {
        Coincidence {
            name: name.to_owned(),
            left,
            right,
        }
    }
}

impl Constraint for Coincidence {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.left, self.right]
    }
    fn initial(&self) -> StateKey {
        StateKey::new()
    }
    fn formula(&self, _local: &StateKey) -> StepFormula {
        StepFormula::iff(
            StepFormula::event(self.left),
            StepFormula::event(self.right),
        )
    }
    fn next(&self, local: &StateKey, _step: &Step) -> StateKey {
        local.clone()
    }
}

/// Precedence `cause ≺ effect`: the n-th occurrence of `effect` needs at
/// least n prior occurrences of `cause`.
///
/// The local state is the *advance* `δ = count(cause) −
/// count(effect) ≥ 0`.
///
/// * **strict** (`strict = true`, CCSL `<`): when `δ = 0` the effect is
///   forbidden, even simultaneously with a new cause.
/// * **weak** (causality, CCSL `≤`): when `δ = 0` the effect may occur
///   only together with a cause.
/// * **bounded** (`max_drift = Some(b)`): when `δ = b` the cause is
///   forbidden unless an effect occurs in the same step — a capacity-`b`
///   buffer between the two events.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Precedence;
/// use moccml_kernel::{Constraint, Step, Universe};
/// let mut u = Universe::new();
/// let (c, e) = (u.event("cause"), u.event("effect"));
/// let p = Precedence::strict("c<e", c, e);
/// let start = p.initial();
/// assert!(!p.formula(&start).eval(&Step::from_events([e])));
/// assert!(p.formula(&start).eval(&Step::from_events([c])));
/// ```
#[derive(Debug, Clone)]
pub struct Precedence {
    name: String,
    cause: EventId,
    effect: EventId,
    strict: bool,
    max_drift: Option<u64>,
}

impl Precedence {
    /// Strict precedence `cause < effect`.
    #[must_use]
    pub fn strict(name: &str, cause: EventId, effect: EventId) -> Self {
        Precedence {
            name: name.to_owned(),
            cause,
            effect,
            strict: true,
            max_drift: None,
        }
    }

    /// Weak precedence (causality) `cause ≤ effect`.
    #[must_use]
    pub fn weak(name: &str, cause: EventId, effect: EventId) -> Self {
        Precedence {
            strict: false,
            ..Precedence::strict(name, cause, effect)
        }
    }

    /// Bounds the advance of `cause` over `effect` to `bound`
    /// (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero for a strict relation (the pair could
    /// never tick).
    #[must_use]
    pub fn with_bound(mut self, bound: u64) -> Self {
        assert!(
            !(self.strict && bound == 0),
            "a strict precedence with bound 0 is unsatisfiable"
        );
        self.max_drift = Some(bound);
        self
    }
}

impl Constraint for Precedence {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.cause, self.effect]
    }
    fn initial(&self) -> StateKey {
        counter_key(0)
    }
    fn formula(&self, local: &StateKey) -> StepFormula {
        let delta = counter(local);
        let mut clauses = Vec::new();
        if delta == 0 {
            if self.strict {
                clauses.push(StepFormula::not(StepFormula::event(self.effect)));
            } else {
                clauses.push(StepFormula::implies(
                    StepFormula::event(self.effect),
                    StepFormula::event(self.cause),
                ));
            }
        }
        if let Some(bound) = self.max_drift {
            if delta >= bound {
                clauses.push(StepFormula::implies(
                    StepFormula::event(self.cause),
                    StepFormula::event(self.effect),
                ));
            }
        }
        StepFormula::and(clauses)
    }
    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        let c = u64::from(step.contains(self.cause));
        let e = u64::from(step.contains(self.effect));
        counter_key((counter(local) + c).saturating_sub(e))
    }
}

/// Strict alternation `first ~ second`: occurrences interleave
/// `first, second, first, second, …`, never simultaneously.
///
/// Equivalent to a strict precedence with bound 1 plus exclusion, kept
/// as its own relation because it is the classical CCSL `alternatesWith`.
/// The local state is `0` while expecting `first`, `1` while expecting
/// `second`.
#[derive(Debug, Clone)]
pub struct Alternation {
    name: String,
    first: EventId,
    second: EventId,
}

impl Alternation {
    /// Creates the alternation `first ~ second` (first goes first).
    #[must_use]
    pub fn new(name: &str, first: EventId, second: EventId) -> Self {
        Alternation {
            name: name.to_owned(),
            first,
            second,
        }
    }
}

impl Constraint for Alternation {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.first, self.second]
    }
    fn initial(&self) -> StateKey {
        counter_key(0)
    }
    fn formula(&self, local: &StateKey) -> StepFormula {
        if counter(local) == 1 {
            StepFormula::not(StepFormula::event(self.first))
        } else {
            StepFormula::not(StepFormula::event(self.second))
        }
    }
    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        let expecting_second = counter(local) == 1;
        let expected = if expecting_second {
            self.second
        } else {
            self.first
        };
        counter_key(u64::from(expecting_second != step.contains(expected)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fire_ok;
    use moccml_kernel::{KernelError, Universe};

    fn setup() -> (Universe, EventId, EventId, EventId) {
        let mut u = Universe::new();
        let a = u.event("a");
        let b = u.event("b");
        let c = u.event("c");
        (u, a, b, c)
    }

    #[test]
    fn subclock_allows_stuttering_and_sup_alone() {
        let (_, a, b, _) = setup();
        let s = SubClock::new("s", a, b);
        let f = s.formula(&s.initial());
        assert!(f.eval(&Step::new()));
        assert!(f.eval(&Step::from_events([b])));
        assert!(f.eval(&Step::from_events([a, b])));
        assert!(!f.eval(&Step::from_events([a])));
    }

    #[test]
    fn exclusion_forbids_simultaneity_pairwise() {
        let (_, a, b, c) = setup();
        let e = Exclusion::new("x", [a, b, c]);
        let f = e.formula(&e.initial());
        assert!(f.eval(&Step::from_events([a])));
        assert!(f.eval(&Step::new()));
        assert!(!f.eval(&Step::from_events([a, c])));
        assert!(!f.eval(&Step::from_events([b, c])));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn exclusion_rejects_singleton() {
        let (_, a, _, _) = setup();
        let _ = Exclusion::new("x", [a]);
    }

    #[test]
    fn coincidence_binds_both_ways() {
        let (_, a, b, _) = setup();
        let c = Coincidence::new("c", a, b);
        let f = c.formula(&c.initial());
        assert!(f.eval(&Step::from_events([a, b])));
        assert!(f.eval(&Step::new()));
        assert!(!f.eval(&Step::from_events([a])));
        assert!(!f.eval(&Step::from_events([b])));
    }

    #[test]
    fn strict_precedence_blocks_effect_until_cause() {
        let (_, c, e, _) = setup();
        let p = Precedence::strict("p", c, e);
        let mut l = p.initial();
        // effect first: rejected, even with simultaneous cause
        assert!(!p.formula(&l).eval(&Step::from_events([e])));
        assert!(!p.formula(&l).eval(&Step::from_events([c, e])));
        fire_ok(&p, &mut l, &Step::from_events([c]), "cause ticks");
        assert_eq!(l.values(), &[1]);
        fire_ok(&p, &mut l, &Step::from_events([e]), "effect after cause");
        assert_eq!(l.values(), &[0]);
    }

    #[test]
    fn weak_precedence_allows_simultaneity() {
        let (_, c, e, _) = setup();
        let p = Precedence::weak("p", c, e);
        let mut l = p.initial();
        assert!(p.formula(&l).eval(&Step::from_events([c, e])));
        assert!(!p.formula(&l).eval(&Step::from_events([e])));
        fire_ok(&p, &mut l, &Step::from_events([c, e]), "simultaneous ok");
        assert_eq!(l.values(), &[0]);
    }

    #[test]
    fn bounded_precedence_back_pressures_cause() {
        let (_, c, e, _) = setup();
        let p = Precedence::strict("p", c, e).with_bound(2);
        let mut l = p.initial();
        fire_ok(&p, &mut l, &Step::from_events([c]), "1st");
        fire_ok(&p, &mut l, &Step::from_events([c]), "2nd");
        // bound reached: a bare cause is rejected
        assert!(!p.formula(&l).eval(&Step::from_events([c])));
        // cause with simultaneous effect keeps the drift at the bound
        fire_ok(&p, &mut l, &Step::from_events([c, e]), "swap");
        assert_eq!(l.values(), &[2]);
    }

    #[test]
    #[should_panic(expected = "unsatisfiable")]
    fn strict_zero_bound_panics() {
        let (_, c, e, _) = setup();
        let _ = Precedence::strict("p", c, e).with_bound(0);
    }

    #[test]
    fn alternation_interleaves() {
        let (_, a, b, _) = setup();
        let alt = Alternation::new("alt", a, b);
        let mut l = alt.initial();
        assert!(!alt.formula(&l).eval(&Step::from_events([b])));
        fire_ok(&alt, &mut l, &Step::from_events([a]), "a first");
        assert!(!alt.formula(&l).eval(&Step::from_events([a])));
        fire_ok(&alt, &mut l, &Step::from_events([b]), "then b");
        fire_ok(&alt, &mut l, &Step::from_events([a]), "a again");
    }

    #[test]
    fn a_specification_names_the_rejecting_relation_before_advancing() {
        let (u, a, b, c) = setup();
        let mut spec = moccml_kernel::Specification::new("s", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(Exclusion::new("a#c", [a, c])));
        let before = spec.state_key();
        let step = Step::from_events([a, c]);
        let rejected = KernelError::StepRejected {
            constraint: "a#c".into(),
            step: step.to_string(),
        };
        assert_eq!(spec.fire(&step), Err(rejected));
        assert_eq!(spec.state_key(), before);
    }

    /// A specification over `u` holding `c` alone.
    fn alone(u: &Universe, c: impl Constraint + 'static) -> moccml_kernel::Specification {
        let mut spec = moccml_kernel::Specification::new("s", u.clone());
        spec.add_constraint(Box::new(c));
        spec
    }

    #[test]
    fn precedence_state_round_trip() {
        let (u, c, e, _) = setup();
        let mut spec = alone(&u, Precedence::strict("p", c, e));
        spec.fire(&Step::from_events([c])).expect("tick");
        let key = spec.state_key();
        spec.reset();
        assert_eq!(spec.locals()[0].values(), &[0]);
        spec.restore(&key).expect("restore");
        assert_eq!(spec.locals()[0].values(), &[1]);
        assert!(spec.restore(&StateKey::from_values([2, 1, 2])).is_err());
    }

    #[test]
    fn alternation_state_round_trip() {
        let (u, a, b, _) = setup();
        let mut spec = alone(&u, Alternation::new("alt", a, b));
        spec.fire(&Step::from_events([a])).expect("tick");
        let key = spec.state_key();
        spec.reset();
        spec.restore(&key).expect("restore");
        assert_eq!(spec.state_key(), key);
        assert!(spec.restore(&StateKey::from_values([0])).is_err());
    }

    #[test]
    fn stateless_relations_reject_nonempty_keys() {
        let (u, a, b, _) = setup();
        let mut spec = alone(&u, SubClock::new("s", a, b));
        assert!(spec.restore(&StateKey::from_values([1, 0])).is_err());
        assert!(spec.restore(&StateKey::from_values([0])).is_ok());
    }
}
