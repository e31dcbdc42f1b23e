//! The [`Constraint`] trait — the common interface of every MoCCML
//! constraint, declarative (CCSL-style) or automata-based.

use crate::formula::StepFormula;
use crate::step::{slices_equal, Step};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A constraint's local state, as a hashable tuple of integers.
///
/// Exhaustive exploration (Sec. II of the paper: "analysis tools based on
/// the formal semantics for simulation and exhaustive exploration")
/// identifies global states by the tuple of every constraint's local
/// state. A `StateKey` is an explicit encoding — automaton current state
/// index plus variable values, or the counters of a declarative
/// relation — so that two global states collide only when genuinely
/// equal.
///
/// # Example
///
/// ```
/// use moccml_kernel::StateKey;
/// let key = StateKey::from_values([1, 42]);
/// assert_eq!(key.values(), &[1, 42]);
/// ```
#[derive(Debug, Clone, Default, PartialOrd, Ord)]
pub struct StateKey {
    values: Vec<i64>,
}

/// Compares the values through [`slices_equal`]: the key of a stateless
/// constraint is empty.
impl PartialEq for StateKey {
    fn eq(&self, other: &Self) -> bool {
        slices_equal(&self.values, &other.values)
    }
}

impl Eq for StateKey {}

impl Hash for StateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
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
/// automaton instance, or a platform restriction — is a pure
/// description of a transition system over local states, directly
/// mirroring Sec. II-C of the paper:
///
/// 1. [`initial`](Constraint::initial) is the local state a run starts
///    in.
/// 2. [`formula`](Constraint::formula) is the boolean expression over
///    event variables that the constraint contributes *in a given
///    local state*. A specification conjoins the formulas of all its
///    constraints; a step is acceptable iff the conjunction is
///    satisfied. This is the only place acceptance is decided.
/// 3. [`next`](Constraint::next) is the local state reached when an
///    acceptable step is chosen (automaton transition + actions,
///    counter updates, …). It does not decide acceptance again.
///
/// A constraint holds no run state: the local state is a [`StateKey`]
/// owned by whoever drives the run (a
/// [`Specification`](crate::Specification), or the engine's cursor),
/// and exhaustive exploration identifies global states by the tuple of
/// those local keys.
///
/// Implementations must guarantee that:
///
/// * [`formula`](Constraint::formula) and [`next`](Constraint::next)
///   read only events returned by
///   [`constrained_events`](Constraint::constrained_events) (the
///   *footprint*): the formula mentions no other event, and `next`
///   returns the same local state for two steps that agree on the
///   footprint. The engine relies on this to tabulate both per local
///   state — the formula's models over the footprint, and `next` once
///   per model;
/// * any step in which none of those events occur is acceptable and
///   leaves the local state unchanged (*stuttering*: a constraint never
///   restricts events it does not know about);
/// * [`next`](Constraint::next) keeps the width (number of values) of
///   [`initial`](Constraint::initial), so a global key splits back into
///   local keys unambiguously;
/// * two local states with equal keys behave identically, so a key
///   that folds an unbounded counter (a periodic filter's position)
///   folds it the same way in `next`.
///
/// Constraints are `Send + Sync` and immutable, which is what lets the
/// engine share one compiled `Program` — constraints included — across
/// the worker threads of the parallel state-space explorer.
pub trait Constraint: fmt::Debug + Send + Sync {
    /// Human-readable instance name (used in traces and diagnostics).
    fn name(&self) -> &str;

    /// The events this constraint restricts.
    fn constrained_events(&self) -> Vec<crate::EventId>;

    /// The local state a run starts in.
    fn initial(&self) -> StateKey;

    /// Boolean condition on the next step in local state `local`.
    fn formula(&self, local: &StateKey) -> StepFormula;

    /// The local state after `step` is chosen in local state `local`.
    ///
    /// Precondition: `step` satisfies
    /// [`formula(local)`](Constraint::formula). The result for a step
    /// that violates it is unspecified.
    fn next(&self, local: &StateKey, step: &Step) -> StateKey;
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
