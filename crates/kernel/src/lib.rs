//! # moccml-kernel
//!
//! Core abstractions for the Rust reproduction of *“Towards a
//! Meta-Language for the Concurrency Concern in DSLs”* (Deantoni,
//! Diallo, Teodorov, Champeau, Combemale — DATE 2015).
//!
//! The paper defines the semantics of a MoCCML specification as a set of
//! discrete events constrained by a set of constraints. A *schedule*
//! `σ : N → 2^E` is a possibly infinite sequence of [`Step`]s, where a
//! step is the set of events occurring at that instant. At every step the
//! specification denotes a boolean formula over event-occurrence
//! variables ([`StepFormula`]); any step satisfying the conjunction of
//! all constraint formulas is acceptable.
//!
//! This crate provides:
//!
//! * [`Universe`] — an interning registry of named events;
//! * [`Step`] — a set of simultaneously occurring events (bitset);
//! * [`Schedule`] — a finite prefix of a run, with analysis helpers
//!   and a serde-free text round-trip (`to_lines` / `parse_lines`);
//! * [`StepPred`] — boolean predicates over one step, the atoms the
//!   verification layer's temporal properties quantify over;
//! * [`StepFormula`] — boolean formulas over events with full and
//!   partial evaluation (the engine's solver builds on partial
//!   evaluation);
//! * [`Constraint`] — the object-safe trait every MoCCML constraint
//!   (declarative or automata-based) implements, as pure functions of a
//!   local state ([`StateKey`]): its initial state, its per-step formula
//!   in a state, and the next state once a step is chosen;
//! * [`Specification`] — a universe plus a conjunction of shared
//!   constraints and one local state for each: the *execution model*
//!   of the paper's Fig. 1.
//!
//! ## Example
//!
//! ```
//! use moccml_kernel::{Universe, Step, StepFormula};
//!
//! let mut universe = Universe::new();
//! let a = universe.event("a");
//! let b = universe.event("b");
//!
//! // "a sub-event of b" (Sec. II-C of the paper): a ⇒ b.
//! let formula = StepFormula::implies(StepFormula::event(a), StepFormula::event(b));
//!
//! let mut step = Step::new();
//! step.insert(a);
//! assert!(!formula.eval(&step)); // a alone violates the constraint
//! step.insert(b);
//! assert!(formula.eval(&step)); // a and b together is acceptable
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraint;
mod error;
mod event;
mod formula;
mod pred;
mod schedule;
mod spec;
mod step;

pub use constraint::{Constraint, StateKey};
pub use error::KernelError;
pub use event::{EventId, Universe};
pub use formula::{StepFormula, Ternary};
pub use pred::StepPred;
pub use schedule::Schedule;
pub use spec::Specification;
pub use step::{slices_equal, Step};
