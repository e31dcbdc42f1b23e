//! Declarative *relations*: constraints restricting existing events.

use moccml_kernel::{Constraint, EventId, KernelError, StateKey, Step, StepFormula};

fn bad_key(name: &str, reason: &str) -> KernelError {
    KernelError::InvalidStateKey {
        constraint: name.to_owned(),
        reason: reason.to_owned(),
    }
}

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
/// assert!(c.current_formula().eval(&Step::new()));
/// assert!(!c.current_formula().eval(&Step::from_events([a])));
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
    fn current_formula(&self) -> StepFormula {
        StepFormula::implies(StepFormula::event(self.sub), StepFormula::event(self.sup))
    }
    fn state_key(&self) -> StateKey {
        StateKey::new()
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        if key.is_empty() {
            Ok(())
        } else {
            Err(bad_key(&self.name, "stateless relation expects empty key"))
        }
    }
    fn reset(&mut self) {}
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
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
    fn current_formula(&self) -> StepFormula {
        // pairwise ¬(a ∧ b)
        let mut clauses = Vec::new();
        for (i, &a) in self.events.iter().enumerate() {
            for &b in &self.events[i + 1..] {
                clauses.push(StepFormula::not(StepFormula::and(vec![
                    StepFormula::event(a),
                    StepFormula::event(b),
                ])));
            }
        }
        StepFormula::and(clauses)
    }
    fn state_key(&self) -> StateKey {
        StateKey::new()
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        if key.is_empty() {
            Ok(())
        } else {
            Err(bad_key(&self.name, "stateless relation expects empty key"))
        }
    }
    fn reset(&mut self) {}
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
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
    fn current_formula(&self) -> StepFormula {
        StepFormula::iff(
            StepFormula::event(self.left),
            StepFormula::event(self.right),
        )
    }
    fn state_key(&self) -> StateKey {
        StateKey::new()
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        if key.is_empty() {
            Ok(())
        } else {
            Err(bad_key(&self.name, "stateless relation expects empty key"))
        }
    }
    fn reset(&mut self) {}
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

/// Precedence `cause ≺ effect`: the n-th occurrence of `effect` needs at
/// least n prior occurrences of `cause`.
///
/// The internal state is the *advance* `δ = count(cause) −
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
/// assert!(!p.current_formula().eval(&Step::from_events([e])));
/// assert!(p.current_formula().eval(&Step::from_events([c])));
/// ```
#[derive(Debug, Clone)]
pub struct Precedence {
    name: String,
    cause: EventId,
    effect: EventId,
    strict: bool,
    max_drift: Option<u64>,
    delta: u64,
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
            delta: 0,
        }
    }

    /// Weak precedence (causality) `cause ≤ effect`.
    #[must_use]
    pub fn weak(name: &str, cause: EventId, effect: EventId) -> Self {
        Precedence {
            name: name.to_owned(),
            cause,
            effect,
            strict: false,
            max_drift: None,
            delta: 0,
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

    /// Current advance of the cause over the effect.
    #[must_use]
    pub fn advance(&self) -> u64 {
        self.delta
    }
}

impl Constraint for Precedence {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        vec![self.cause, self.effect]
    }
    fn current_formula(&self) -> StepFormula {
        let mut clauses = Vec::new();
        if self.delta == 0 {
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
            if self.delta >= bound {
                clauses.push(StepFormula::implies(
                    StepFormula::event(self.cause),
                    StepFormula::event(self.effect),
                ));
            }
        }
        StepFormula::and(clauses)
    }
    fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        let c = u64::from(step.contains(self.cause));
        let e = u64::from(step.contains(self.effect));
        self.delta = (self.delta + c).saturating_sub(e);
        Ok(())
    }
    fn state_key(&self) -> StateKey {
        StateKey::from_values([i64::try_from(self.delta).unwrap_or(i64::MAX)])
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        match key.values() {
            [d] if *d >= 0 => {
                self.delta = *d as u64;
                Ok(())
            }
            _ => Err(bad_key(&self.name, "expected one non-negative value")),
        }
    }
    fn reset(&mut self) {
        self.delta = 0;
    }
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

/// Strict alternation `first ~ second`: occurrences interleave
/// `first, second, first, second, …`, never simultaneously.
///
/// Equivalent to a strict precedence with bound 1 plus exclusion, kept
/// as its own relation because it is the classical CCSL `alternatesWith`.
#[derive(Debug, Clone)]
pub struct Alternation {
    name: String,
    first: EventId,
    second: EventId,
    /// `false` ⇒ expecting `first`; `true` ⇒ expecting `second`.
    expecting_second: bool,
}

impl Alternation {
    /// Creates the alternation `first ~ second` (first goes first).
    #[must_use]
    pub fn new(name: &str, first: EventId, second: EventId) -> Self {
        Alternation {
            name: name.to_owned(),
            first,
            second,
            expecting_second: false,
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
    fn current_formula(&self) -> StepFormula {
        if self.expecting_second {
            StepFormula::not(StepFormula::event(self.first))
        } else {
            StepFormula::not(StepFormula::event(self.second))
        }
    }
    fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if self.expecting_second {
            if step.contains(self.second) {
                self.expecting_second = false;
            }
        } else if step.contains(self.first) {
            self.expecting_second = true;
        }
        Ok(())
    }
    fn state_key(&self) -> StateKey {
        StateKey::from_values([i64::from(self.expecting_second)])
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        match key.values() {
            [0] => {
                self.expecting_second = false;
                Ok(())
            }
            [1] => {
                self.expecting_second = true;
                Ok(())
            }
            _ => Err(bad_key(&self.name, "expected one value in {0,1}")),
        }
    }
    fn reset(&mut self) {
        self.expecting_second = false;
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
        let c = u.event("c");
        (u, a, b, c)
    }

    #[test]
    fn subclock_allows_stuttering_and_sup_alone() {
        let (_, a, b, _) = setup();
        let s = SubClock::new("s", a, b);
        assert!(s.current_formula().eval(&Step::new()));
        assert!(s.current_formula().eval(&Step::from_events([b])));
        assert!(s.current_formula().eval(&Step::from_events([a, b])));
        assert!(!s.current_formula().eval(&Step::from_events([a])));
    }

    #[test]
    fn exclusion_forbids_simultaneity_pairwise() {
        let (_, a, b, c) = setup();
        let e = Exclusion::new("x", [a, b, c]);
        assert!(e.current_formula().eval(&Step::from_events([a])));
        assert!(e.current_formula().eval(&Step::new()));
        assert!(!e.current_formula().eval(&Step::from_events([a, c])));
        assert!(!e.current_formula().eval(&Step::from_events([b, c])));
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
        assert!(c.current_formula().eval(&Step::from_events([a, b])));
        assert!(c.current_formula().eval(&Step::new()));
        assert!(!c.current_formula().eval(&Step::from_events([a])));
        assert!(!c.current_formula().eval(&Step::from_events([b])));
    }

    #[test]
    fn strict_precedence_blocks_effect_until_cause() {
        let (_, c, e, _) = setup();
        let mut p = Precedence::strict("p", c, e);
        // effect first: rejected, even with simultaneous cause
        assert!(!p.current_formula().eval(&Step::from_events([e])));
        assert!(!p.current_formula().eval(&Step::from_events([c, e])));
        fire_ok(&mut p, &Step::from_events([c]), "cause ticks");
        assert_eq!(p.advance(), 1);
        fire_ok(&mut p, &Step::from_events([e]), "effect after cause");
        assert_eq!(p.advance(), 0);
    }

    #[test]
    fn weak_precedence_allows_simultaneity() {
        let (_, c, e, _) = setup();
        let mut p = Precedence::weak("p", c, e);
        assert!(p.current_formula().eval(&Step::from_events([c, e])));
        assert!(!p.current_formula().eval(&Step::from_events([e])));
        fire_ok(&mut p, &Step::from_events([c, e]), "simultaneous ok");
        assert_eq!(p.advance(), 0);
    }

    #[test]
    fn bounded_precedence_back_pressures_cause() {
        let (_, c, e, _) = setup();
        let mut p = Precedence::strict("p", c, e).with_bound(2);
        fire_ok(&mut p, &Step::from_events([c]), "1st");
        fire_ok(&mut p, &Step::from_events([c]), "2nd");
        // bound reached: a bare cause is rejected
        assert!(!p.current_formula().eval(&Step::from_events([c])));
        // cause with simultaneous effect keeps the drift at the bound
        fire_ok(&mut p, &Step::from_events([c, e]), "swap");
        assert_eq!(p.advance(), 2);
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
        let mut alt = Alternation::new("alt", a, b);
        assert!(!alt.current_formula().eval(&Step::from_events([b])));
        fire_ok(&mut alt, &Step::from_events([a]), "a first");
        assert!(!alt.current_formula().eval(&Step::from_events([a])));
        fire_ok(&mut alt, &Step::from_events([b]), "then b");
        fire_ok(&mut alt, &Step::from_events([a]), "a again");
    }

    #[test]
    fn precedence_state_round_trip() {
        let (_, c, e, _) = setup();
        let mut p = Precedence::strict("p", c, e);
        fire_ok(&mut p, &Step::from_events([c]), "tick");
        let key = p.state_key();
        p.reset();
        assert_eq!(p.advance(), 0);
        p.restore(&key).expect("restore");
        assert_eq!(p.advance(), 1);
        assert!(p.restore(&StateKey::from_values([-1])).is_err());
        assert!(p.restore(&StateKey::from_values([1, 2])).is_err());
    }

    #[test]
    fn alternation_state_round_trip() {
        let (_, a, b, _) = setup();
        let mut alt = Alternation::new("alt", a, b);
        fire_ok(&mut alt, &Step::from_events([a]), "tick");
        let key = alt.state_key();
        alt.reset();
        alt.restore(&key).expect("restore");
        assert_eq!(alt.state_key(), key);
        assert!(alt.restore(&StateKey::from_values([7])).is_err());
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

    #[test]
    fn stateless_relations_reject_nonempty_keys() {
        let (_, a, b, _) = setup();
        let mut s = SubClock::new("s", a, b);
        assert!(s.restore(&StateKey::from_values([0])).is_err());
        assert!(s.restore(&StateKey::new()).is_ok());
    }
}
