//! [`Specification`]: a universe of events plus a conjunction of
//! constraints — the paper's *execution model*.

use crate::constraint::{Constraint, StateKey};
use crate::error::KernelError;
use crate::event::{EventId, Universe};
use crate::formula::StepFormula;
use crate::step::Step;
use std::borrow::Borrow;

/// An executable MoCCML specification: events plus constraints.
///
/// In the paper's big picture (Fig. 1), instantiating the MoCC
/// constraints over a specific model yields the *execution model*, "a
/// symbolic representation of all the acceptable schedules". This type is
/// that execution model: it owns the [`Universe`] of events and the bag
/// of [`Constraint`] instances, and exposes the conjunction semantics of
/// Sec. II-C through [`Specification::conjunction`].
///
/// The engine crate drives it: enumerate acceptable steps, pick one,
/// [`fire`](Specification::fire) it, repeat.
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
    constraints: Vec<Box<dyn Constraint>>,
}

impl Specification {
    /// Creates a specification with no constraints over `universe`.
    #[must_use]
    pub fn new(name: &str, universe: Universe) -> Self {
        Specification {
            name: name.to_owned(),
            universe,
            constraints: Vec::new(),
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

    /// Adds a constraint to the conjunction.
    pub fn add_constraint(&mut self, constraint: Box<dyn Constraint>) {
        self.constraints.push(constraint);
    }

    /// The installed constraints.
    #[must_use]
    pub fn constraints(&self) -> &[Box<dyn Constraint>] {
        &self.constraints
    }

    /// Mutable access to the installed constraints, for a driver that
    /// checks acceptance itself and then advances only the constraints
    /// a step touches (the engine's cursor).
    pub fn constraints_mut(&mut self) -> &mut [Box<dyn Constraint>] {
        &mut self.constraints
    }

    /// Number of installed constraints.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// The conjunction of every constraint's current formula —
    /// the boolean expression whose models are the acceptable next steps
    /// (Sec. II-C: "their boolean expressions are put in conjunction").
    #[must_use]
    pub fn conjunction(&self) -> StepFormula {
        StepFormula::And(
            self.constraints
                .iter()
                .map(|c| c.current_formula())
                .collect(),
        )
        .simplify()
    }

    /// Per-constraint lowered formulas, in constraint order: each
    /// constraint's [`current_formula`](Constraint::current_formula),
    /// structurally simplified.
    ///
    /// A step satisfies [`conjunction`](Specification::conjunction) iff
    /// it satisfies every formula of this vector — the engine's
    /// compiled `Program` memoises these per constraint (keyed by the
    /// local [`state_key`](Constraint::state_key)) so the lowering
    /// happens once per reached constraint state instead of once per
    /// query, shared across all of its cursors.
    #[must_use]
    pub fn lowered_formulas(&self) -> Vec<StepFormula> {
        self.constraints
            .iter()
            .map(|c| c.current_formula().simplify())
            .collect()
    }

    /// Per-constraint state keys, in constraint order — the same
    /// snapshots [`state_key`](Specification::state_key) concatenates,
    /// but kept separate so a caller can detect *which* constraints
    /// changed state.
    #[must_use]
    pub fn constraint_state_keys(&self) -> Vec<StateKey> {
        self.constraints.iter().map(|c| c.state_key()).collect()
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

    /// Whether `step` satisfies every constraint in the current state.
    #[must_use]
    pub fn accepts(&self, step: &Step) -> bool {
        self.constraints
            .iter()
            .all(|c| c.current_formula().eval(step))
    }

    /// Fires `step`: checks it against every constraint's current
    /// formula, then advances every constraint's state.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::StepRejected`] naming the first constraint
    /// whose current formula rejects `step`. Nothing has advanced at
    /// that point, so a rejected step leaves the specification
    /// unchanged.
    pub fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if let Some(c) = self
            .constraints
            .iter()
            .find(|c| !c.current_formula().eval(step))
        {
            return Err(KernelError::StepRejected {
                constraint: c.name().to_owned(),
                step: step.to_string(),
            });
        }
        for c in &mut self.constraints {
            c.fire(step)?;
        }
        Ok(())
    }

    /// Snapshot of the global state: every constraint's state key, laid
    /// out by [`compose_key`](Specification::compose_key).
    #[must_use]
    pub fn state_key(&self) -> StateKey {
        Self::compose_key(self.constraints.iter().map(|c| c.state_key()))
    }

    /// Restores a global state produced by
    /// [`state_key`](Specification::state_key).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if the key does not match
    /// the current constraint population (checked before any constraint
    /// is restored) or a constraint rejects its segment.
    pub fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        let segments = self.key_segments(key)?;
        for (c, segment) in self.constraints.iter_mut().zip(segments) {
            c.restore(&StateKey::from_values(segment.iter().copied()))?;
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
    /// has a negative length prefix, or has values left over.
    pub fn key_segments<'k>(&self, key: &'k StateKey) -> Result<Vec<&'k [i64]>, KernelError> {
        let mut rest = key.values();
        let mut segments = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            let invalid = |reason: &str| KernelError::InvalidStateKey {
                constraint: c.name().to_owned(),
                reason: reason.to_owned(),
            };
            let (&len, tail) = rest
                .split_first()
                .ok_or_else(|| invalid("global key too short"))?;
            let len = usize::try_from(len).map_err(|_| invalid("negative length prefix"))?;
            let (segment, tail) = tail
                .split_at_checked(len)
                .ok_or_else(|| invalid("global key too short"))?;
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
        for c in &mut self.constraints {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal stateful test constraint: allows `e` only `budget` times.
    #[derive(Debug, Clone)]
    struct Budget {
        name: String,
        event: EventId,
        budget: i64,
        used: i64,
    }

    impl Constraint for Budget {
        fn name(&self) -> &str {
            &self.name
        }
        fn constrained_events(&self) -> Vec<EventId> {
            vec![self.event]
        }
        fn current_formula(&self) -> StepFormula {
            if self.used < self.budget {
                StepFormula::True
            } else {
                StepFormula::not(StepFormula::event(self.event))
            }
        }
        fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
            if step.contains(self.event) {
                self.used += 1;
            }
            Ok(())
        }
        fn state_key(&self) -> StateKey {
            StateKey::from_values([self.used])
        }
        fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
            match key.values() {
                [used] => {
                    self.used = *used;
                    Ok(())
                }
                _ => Err(KernelError::InvalidStateKey {
                    constraint: self.name.clone(),
                    reason: "expected one value".to_owned(),
                }),
            }
        }
        fn reset(&mut self) {
            self.used = 0;
        }
        fn boxed_clone(&self) -> Box<dyn Constraint> {
            Box::new(self.clone())
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
            used: 0,
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
                used: 0,
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
