//! The [`Constraint`] trait — the common interface of every MoCCML
//! constraint, declarative (CCSL-style) or automata-based.

use crate::error::KernelError;
use crate::formula::StepFormula;
use crate::step::Step;
use std::fmt;

/// Hashable snapshot of a constraint's internal state.
///
/// Exhaustive exploration (Sec. II of the paper: "analysis tools based on
/// the formal semantics for simulation and exhaustive exploration")
/// identifies global states by the tuple of every constraint's state.
/// A `StateKey` is an explicit encoding — automaton current state index
/// plus variable values, or the counters of a declarative relation — so
/// that two global states collide only when genuinely equal.
///
/// # Example
///
/// ```
/// use moccml_kernel::StateKey;
/// let key = StateKey::from_values([1, 42]);
/// assert_eq!(key.values(), &[1, 42]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey {
    values: Vec<i64>,
}

impl StateKey {
    /// Creates an empty key (for stateless constraints).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a key from explicit values.
    #[must_use]
    pub fn from_values<I: IntoIterator<Item = i64>>(values: I) -> Self {
        StateKey {
            values: values.into_iter().collect(),
        }
    }

    /// Appends one value.
    pub fn push(&mut self, v: i64) {
        self.values.push(v);
    }

    /// Appends all values of `other`.
    pub fn extend_from(&mut self, other: &StateKey) {
        self.values.extend_from_slice(&other.values);
    }

    /// The encoded values.
    #[must_use]
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Number of encoded values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the key encodes nothing (stateless constraint).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(|v| v.to_string()).collect();
        write!(f, "[{}]", parts.join(","))
    }
}

impl FromIterator<i64> for StateKey {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        StateKey::from_values(iter)
    }
}

/// A constraint over events, the unit of composition of a MoCCML
/// specification.
///
/// Every constraint — a declarative CCSL-style relation, a constraint
/// automaton instance, or a platform restriction — follows the same
/// protocol, directly mirroring Sec. II-C of the paper:
///
/// 1. [`current_formula`](Constraint::current_formula) returns the
///    boolean expression over event variables that the constraint
///    contributes *in its current state*. The specification conjoins the
///    formulas of all constraints; a step is acceptable iff the
///    conjunction is satisfied. This is the only place acceptance is
///    decided.
/// 2. When an acceptable step is chosen, [`fire`](Constraint::fire)
///    advances the internal state (automaton transition + actions,
///    counter updates, …). It does not decide acceptance again: the
///    caller ([`Specification::fire`](crate::Specification::fire), or
///    the engine's cursor on its lowered formulas) has already checked
///    the step against the current formula.
/// 3. [`state_key`](Constraint::state_key) snapshots the state for the
///    exploration engine, and [`restore`](Constraint::restore) winds it
///    back.
///
/// Implementations must guarantee that the formula of a constraint only
/// mentions events returned by
/// [`constrained_events`](Constraint::constrained_events), and that any
/// step in which none of those events occur is acceptable and leaves the
/// state unchanged (*stuttering*: a constraint never restricts events it
/// does not know about).
///
/// Constraints are `Send + Sync`: all mutation goes through `&mut self`
/// (`fire`/`restore`/`reset`), never interior mutability. This is what
/// lets the engine share one immutable compiled
/// `Program` — including the template specification — across the worker
/// threads of the parallel state-space explorer.
pub trait Constraint: fmt::Debug + Send + Sync {
    /// Human-readable instance name (used in traces and diagnostics).
    fn name(&self) -> &str;

    /// The events this constraint restricts.
    fn constrained_events(&self) -> Vec<crate::EventId>;

    /// Boolean condition on the next step, given the current state.
    fn current_formula(&self) -> StepFormula;

    /// Advances the internal state after `step` was chosen.
    ///
    /// Precondition: `step` satisfies
    /// [`current_formula`](Constraint::current_formula). The result of
    /// firing a step that violates it is unspecified.
    ///
    /// # Errors
    ///
    /// An implementation that matches the step against its own
    /// structure (an automaton looking for the transition to take) may
    /// return [`KernelError::StepRejected`] when nothing matches. The
    /// default advances nothing, which is all a stateless constraint
    /// does.
    fn fire(&mut self, _step: &Step) -> Result<(), KernelError> {
        Ok(())
    }

    /// Snapshot of the internal state.
    fn state_key(&self) -> StateKey;

    /// Restores a state previously produced by
    /// [`state_key`](Constraint::state_key).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if `key` does not have
    /// the shape this constraint produces.
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError>;

    /// Resets to the initial state.
    fn reset(&mut self);

    /// Clones the constraint behind the trait object.
    fn boxed_clone(&self) -> Box<dyn Constraint>;
}

impl Clone for Box<dyn Constraint> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_key_construction() {
        let mut k = StateKey::new();
        assert!(k.is_empty());
        k.push(3);
        k.push(-1);
        assert_eq!(k.values(), &[3, -1]);
        assert_eq!(k.len(), 2);
        assert_eq!(k.to_string(), "[3,-1]");
    }

    #[test]
    fn state_key_extend_and_collect() {
        let a = StateKey::from_values([1, 2]);
        let mut b = StateKey::from_values([0]);
        b.extend_from(&a);
        assert_eq!(b.values(), &[0, 1, 2]);
        let c: StateKey = [5i64, 6].into_iter().collect();
        assert_eq!(c.values(), &[5, 6]);
    }

    #[test]
    fn state_keys_compare_by_content() {
        assert_eq!(StateKey::from_values([1]), StateKey::from_values([1]));
        assert_ne!(StateKey::from_values([1]), StateKey::from_values([2]));
        assert!(StateKey::from_values([1]) < StateKey::from_values([1, 0]));
    }
}
