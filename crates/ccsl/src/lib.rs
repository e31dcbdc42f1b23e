//! # moccml-ccsl
//!
//! The *declarative definitions* of MoCCML (Sec. II-B of the DATE 2015
//! paper): a library of CCSL-inspired clock constraints. The paper
//! delegates these to the CCSL operational semantics report (reference \[15\]);
//! this crate implements the classical kernel relations and expressions
//! as stateful [`Constraint`]s over kernel events.
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
//! Every constraint follows the kernel protocol: a per-step boolean
//! formula given the current state, a `fire` transition, and an explicit
//! state key for exhaustive exploration.
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
//! assert!(sub.current_formula().eval(&Step::from_events([a, b])));
//! assert!(!sub.current_formula().eval(&Step::from_events([a])));
//! ```
//!
//! [`Constraint`]: moccml_kernel::Constraint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expressions;
mod relations;

pub use expressions::{Delay, FilteredBy, Intersection, Periodic, SampledOn, Union};
pub use relations::{Alternation, Coincidence, Exclusion, Precedence, SubClock};

#[cfg(test)]
/// Fires `step` on `c` in a test, first checking that `c`'s current
/// formula accepts it (`fire` itself only advances).
fn fire_ok(c: &mut dyn moccml_kernel::Constraint, step: &moccml_kernel::Step, what: &str) {
    assert!(c.current_formula().eval(step), "{what}: {step} rejected");
    c.fire(step).expect(what);
}
