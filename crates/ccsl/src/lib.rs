//! # moccml-ccsl
//!
//! The *declarative definitions* of MoCCML (Sec. II-B of the DATE 2015
//! paper): a library of CCSL-inspired clock constraints. The paper
//! delegates these to the CCSL operational semantics report (reference \[15\]);
//! this crate implements the classical kernel relations and expressions
//! as [`Constraint`]s over kernel events.
//!
//! Two families:
//!
//! * **Relations** restrict existing events: [`SubClock`], [`Exclusion`],
//!   [`Coincidence`], [`Precedence`] (strict/weak/bounded),
//!   [`Alternation`].
//! * **Expressions** *define* a new event from existing ones: [`Union`],
//!   [`Intersection`], [`Delay`], [`Periodic`], [`FilteredBy`],
//!   [`SampledOn`].
//!
//! Every constraint follows the kernel protocol: an initial local state
//! (a [`StateKey`](moccml_kernel::StateKey) of counters), the per-step
//! boolean formula of a local state, and the next local state once a
//! step is chosen. The constraints themselves hold no run state.
//!
//! ## Example: the paper's sub-event relation
//!
//! ```
//! use moccml_ccsl::SubClock;
//! use moccml_kernel::{Constraint, Step, Universe};
//!
//! let mut u = Universe::new();
//! let a = u.event("a");
//! let b = u.event("b");
//! let sub = SubClock::new("a sub b", a, b);
//! // e1 sub-event of e2  ⇒  boolean expression e1 ⇒ e2 (Sec. II-C)
//! let formula = sub.formula(&sub.initial());
//! assert!(formula.eval(&Step::from_events([a, b])));
//! assert!(!formula.eval(&Step::from_events([a])));
//! ```
//!
//! [`Constraint`]: moccml_kernel::Constraint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expressions;
mod relations;

pub use expressions::{Delay, FilteredBy, Intersection, Periodic, SampledOn, Union};
pub use relations::{Alternation, Coincidence, Exclusion, Precedence, SubClock};

/// The one counter of a single-value local state; a malformed or
/// negative value reads as 0.
fn counter(local: &moccml_kernel::StateKey) -> u64 {
    local
        .values()
        .first()
        .map_or(0, |&v| u64::try_from(v).unwrap_or(0))
}

/// The single-value local state holding `value` (saturating at
/// `i64::MAX`).
fn counter_key(value: u64) -> moccml_kernel::StateKey {
    moccml_kernel::StateKey::from_values([i64::try_from(value).unwrap_or(i64::MAX)])
}

#[cfg(test)]
/// Moves `c` from `local` by `step` in a test, first checking that the
/// formula of `local` accepts it (`next` itself only advances).
fn fire_ok(
    c: &dyn moccml_kernel::Constraint,
    local: &mut moccml_kernel::StateKey,
    step: &moccml_kernel::Step,
    what: &str,
) {
    assert!(c.formula(local).eval(step), "{what}: {step} rejected");
    *local = c.next(local, step);
}
