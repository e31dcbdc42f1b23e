//! [`Specification`]: a universe of events plus a conjunction of
//! constraints — the paper's *execution model*.

use crate::constraint::{Constraint, StateKey};
use crate::error::KernelError;
use crate::event::{EventId, Universe};
use crate::formula::StepFormula;
use crate::step::Step;
use std::borrow::Borrow;
use std::sync::Arc;

/// An executable MoCCML specification: events plus constraints.
///
/// In the paper's big picture (Fig. 1), instantiating the MoCC
/// constraints over a specific model yields the *execution model*, "a
/// symbolic representation of all the acceptable schedules". This type is
/// that execution model: it owns the [`Universe`] of events, the
/// [`Constraint`] instances, and one local state per constraint, and
/// exposes the conjunction semantics of Sec. II-C through
/// [`Specification::conjunction`].
///
/// The constraints are immutable and held behind [`Arc`], so cloning a
/// specification copies only its local states. The engine crate
/// compiles it and runs on its own copy of the locals; the thin
/// [`fire`](Specification::fire) / [`restore`](Specification::restore)
/// loops here serve tests and examples.
///
/// # Example
///
/// ```
/// use moccml_kernel::{Specification, Universe};
/// let mut u = Universe::new();
/// u.event("a");
/// let spec = Specification::new("demo", u);
/// assert_eq!(spec.universe().len(), 1);
/// assert!(spec.constraints().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Specification {
    name: String,
    universe: Universe,
    constraints: Vec<Arc<dyn Constraint>>,
    /// One local state per constraint, in constraint order.
    locals: Vec<StateKey>,
}

impl Specification {
    /// Creates a specification with no constraints over `universe`.
    #[must_use]
    pub fn new(name: &str, universe: Universe) -> Self {
        Specification {
            name: name.to_owned(),
            universe,
            constraints: Vec::new(),
            locals: Vec::new(),
        }
    }

    /// The specification's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The event universe.
    #[must_use]
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Mutable access to the universe (to register late events).
    pub fn universe_mut(&mut self) -> &mut Universe {
        &mut self.universe
    }

    /// Adds a constraint to the conjunction, in its initial state.
    pub fn add_constraint(&mut self, constraint: Box<dyn Constraint>) {
        self.locals.push(constraint.initial());
        self.constraints.push(Arc::from(constraint));
    }

    /// Adds constraint `index` of `other` to the conjunction, shared
    /// (not copied) and in its local state in `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` has no constraint `index`.
    pub fn share_constraint(&mut self, other: &Specification, index: usize) {
        self.constraints.push(Arc::clone(&other.constraints[index]));
        self.locals.push(other.locals[index].clone());
    }

    /// The installed constraints.
    #[must_use]
    pub fn constraints(&self) -> &[Arc<dyn Constraint>] {
        &self.constraints
    }

    /// The local state of every constraint, in constraint order — the
    /// keys [`state_key`](Specification::state_key) concatenates, kept
    /// separate.
    #[must_use]
    pub fn locals(&self) -> &[StateKey] {
        &self.locals
    }

    /// Number of installed constraints.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// The formula of every constraint in its local state, in
    /// constraint order.
    fn formulas(&self) -> impl Iterator<Item = (&Arc<dyn Constraint>, StepFormula)> + '_ {
        self.constraints
            .iter()
            .zip(&self.locals)
            .map(|(c, local)| (c, c.formula(local)))
    }

    /// The conjunction of every constraint's formula in its local
    /// state — the boolean expression whose models are the acceptable
    /// next steps (Sec. II-C: "their boolean expressions are put in
    /// conjunction").
    #[must_use]
    pub fn conjunction(&self) -> StepFormula {
        StepFormula::And(self.formulas().map(|(_, f)| f).collect()).simplify()
    }

    /// Per-constraint lowered formulas, in constraint order: each
    /// constraint's [`formula`](Constraint::formula) in its local state,
    /// structurally simplified.
    ///
    /// A step satisfies [`conjunction`](Specification::conjunction) iff
    /// it satisfies every formula of this vector.
    #[must_use]
    pub fn lowered_formulas(&self) -> Vec<StepFormula> {
        self.formulas().map(|(_, f)| f.simplify()).collect()
    }

    /// Per-constraint event footprints, in constraint order: the
    /// [`constrained_events`](Constraint::constrained_events) of each
    /// constraint as a [`Step`] bitset.
    ///
    /// This is the raw material of cone-of-influence slicing: two
    /// constraints interact only if their footprints intersect, because
    /// the stuttering contract makes every constraint indifferent to
    /// steps over foreign events.
    #[must_use]
    pub fn constraint_footprints(&self) -> Vec<Step> {
        self.constraints
            .iter()
            .map(|c| Step::from_events(c.constrained_events()))
            .collect()
    }

    /// The set of events restricted by at least one constraint.
    ///
    /// Events outside this set are *free*: nothing ever forbids or
    /// requires them, so the solver handles them separately (each free
    /// event doubles the acceptable-step count without affecting any
    /// constraint state).
    #[must_use]
    pub fn constrained_events(&self) -> Step {
        let mut s = Step::new();
        for c in &self.constraints {
            s.extend(c.constrained_events());
        }
        s
    }

    /// Events of the universe that no constraint mentions.
    #[must_use]
    pub fn free_events(&self) -> Vec<EventId> {
        let constrained = self.constrained_events();
        self.universe
            .iter()
            .filter(|e| !constrained.contains(*e))
            .collect()
    }

    /// Whether `step` satisfies every constraint in its local state.
    #[must_use]
    pub fn accepts(&self, step: &Step) -> bool {
        self.formulas().all(|(_, f)| f.eval(step))
    }

    /// Fires `step`: checks it against every constraint's formula, then
    /// moves every constraint to its next local state.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::StepRejected`] naming the first constraint
    /// whose formula rejects `step`. Nothing has advanced at that point,
    /// so a rejected step leaves the specification unchanged.
    pub fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if let Some((c, _)) = self.formulas().find(|(_, f)| !f.eval(step)) {
            return Err(KernelError::StepRejected {
                constraint: c.name().to_owned(),
                step: step.to_string(),
            });
        }
        for (c, local) in self.constraints.iter().zip(&mut self.locals) {
            *local = c.next(local, step);
        }
        Ok(())
    }

    /// Snapshot of the global state: every constraint's local state,
    /// laid out by [`compose_key`](Specification::compose_key).
    #[must_use]
    pub fn state_key(&self) -> StateKey {
        Self::compose_key(&self.locals)
    }

    /// Restores a global state produced by
    /// [`state_key`](Specification::state_key).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if the key does not
    /// split into one local state per constraint (see
    /// [`key_segments`](Specification::key_segments)); nothing is
    /// restored then.
    pub fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        let segments = self.key_segments(key)?;
        for (local, segment) in self.locals.iter_mut().zip(segments) {
            *local = StateKey::from_values(segment.iter().copied());
        }
        Ok(())
    }

    /// The global key layout: per-constraint local keys, in constraint
    /// order, each prefixed by its length so the key splits back
    /// unambiguously with [`key_segments`](Specification::key_segments).
    #[must_use]
    pub fn compose_key<K: Borrow<StateKey>>(locals: impl IntoIterator<Item = K>) -> StateKey {
        let mut key = StateKey::new();
        for local in locals {
            let local = local.borrow();
            key.push(i64::try_from(local.len()).expect("state key length fits i64"));
            key.extend_from(local);
        }
        key
    }

    /// Splits a global key laid out by
    /// [`compose_key`](Specification::compose_key) into one local
    /// segment per constraint, in constraint order.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if the key is too short,
    /// has values left over, or has a segment whose width differs from
    /// its constraint's local state (whose width
    /// [`initial`](Constraint::initial) fixes).
    pub fn key_segments<'k>(&self, key: &'k StateKey) -> Result<Vec<&'k [i64]>, KernelError> {
        let mut rest = key.values();
        let mut segments = Vec::with_capacity(self.constraints.len());
        for (c, local) in self.constraints.iter().zip(&self.locals) {
            let invalid = |reason: String| KernelError::InvalidStateKey {
                constraint: c.name().to_owned(),
                reason,
            };
            let (&len, tail) = rest
                .split_first()
                .ok_or_else(|| invalid("global key too short".to_owned()))?;
            if usize::try_from(len) != Ok(local.len()) {
                let width = local.len();
                return Err(invalid(format!("expected {width} values, got {len}")));
            }
            let (segment, tail) = tail
                .split_at_checked(local.len())
                .ok_or_else(|| invalid("global key too short".to_owned()))?;
            segments.push(segment);
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(KernelError::InvalidStateKey {
                constraint: self.name.clone(),
                reason: "trailing values in global key".to_owned(),
            });
        }
        Ok(segments)
    }

    /// Resets every constraint to its initial state.
    pub fn reset(&mut self) {
        for (c, local) in self.constraints.iter().zip(&mut self.locals) {
            *local = c.initial();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal stateful test constraint: allows `e` only `budget` times.
    #[derive(Debug)]
    struct Budget {
        name: String,
        event: EventId,
        budget: i64,
    }

    impl Constraint for Budget {
        fn name(&self) -> &str {
            &self.name
        }
        fn constrained_events(&self) -> Vec<EventId> {
            vec![self.event]
        }
        fn initial(&self) -> StateKey {
            StateKey::from_values([0])
        }
        fn formula(&self, local: &StateKey) -> StepFormula {
            if local.values()[0] < self.budget {
                StepFormula::True
            } else {
                StepFormula::not(StepFormula::event(self.event))
            }
        }
        fn next(&self, local: &StateKey, step: &Step) -> StateKey {
            let used = local.values()[0];
            StateKey::from_values([used + i64::from(step.contains(self.event))])
        }
    }

    fn spec_with_budget(budget: i64) -> (Specification, EventId) {
        let mut u = Universe::new();
        let e = u.event("e");
        u.event("free");
        let mut spec = Specification::new("test", u);
        spec.add_constraint(Box::new(Budget {
            name: "budget".into(),
            event: e,
            budget,
        }));
        (spec, e)
    }

    #[test]
    fn accepts_and_fire_advance_state() {
        let (mut spec, e) = spec_with_budget(1);
        let step = Step::from_events([e]);
        assert!(spec.accepts(&step));
        spec.fire(&step).expect("accepted step fires");
        assert!(!spec.accepts(&step));
        assert!(spec.fire(&step).is_err());
    }

    #[test]
    fn a_rejected_step_advances_no_constraint() {
        // `a` may occur once; `c` never: the step {a, c} satisfies the
        // first constraint and is rejected by the second
        let mut u = Universe::new();
        let (a, c) = (u.event("a"), u.event("c"));
        let mut spec = Specification::new("test", u);
        for (name, event, budget) in [("once(a)", a, 1), ("never(c)", c, 0)] {
            spec.add_constraint(Box::new(Budget {
                name: name.into(),
                event,
                budget,
            }));
        }
        let before = spec.state_key();
        let step = Step::from_events([a, c]);
        let rejected = KernelError::StepRejected {
            constraint: "never(c)".into(),
            step: step.to_string(),
        };
        assert_eq!(spec.fire(&step), Err(rejected));
        assert_eq!(spec.state_key(), before);
    }

    #[test]
    fn free_events_are_reported() {
        let (spec, e) = spec_with_budget(1);
        let free = spec.free_events();
        assert_eq!(free.len(), 1);
        assert!(!free.contains(&e));
    }

    #[test]
    fn state_key_round_trip() {
        let (mut spec, e) = spec_with_budget(2);
        let initial = spec.state_key();
        spec.fire(&Step::from_events([e])).expect("fires");
        let advanced = spec.state_key();
        assert_ne!(initial, advanced);
        spec.restore(&initial).expect("restores");
        assert_eq!(spec.state_key(), initial);
        spec.restore(&advanced).expect("restores");
        assert_eq!(spec.state_key(), advanced);
    }

    #[test]
    fn restore_rejects_malformed_keys() {
        let (mut spec, _) = spec_with_budget(2);
        assert!(spec.restore(&StateKey::new()).is_err());
        assert!(spec.restore(&StateKey::from_values([1, 0, 99])).is_err());
        // a segment wider than the constraint's local state
        let wide = StateKey::from_values([2, 0, 0]);
        let rejected = KernelError::InvalidStateKey {
            constraint: "budget".into(),
            reason: "expected 1 values, got 2".into(),
        };
        assert_eq!(spec.restore(&wide), Err(rejected));
    }

    #[test]
    fn reset_returns_to_initial() {
        let (mut spec, e) = spec_with_budget(1);
        let initial = spec.state_key();
        spec.fire(&Step::from_events([e])).expect("fires");
        spec.reset();
        assert_eq!(spec.state_key(), initial);
    }

    #[test]
    fn conjunction_simplifies() {
        let (spec, _) = spec_with_budget(1);
        // one constraint currently allowing everything ⇒ True
        assert_eq!(spec.conjunction(), StepFormula::True);
    }
}
