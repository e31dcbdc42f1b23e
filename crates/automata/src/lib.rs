//! # moccml-automata
//!
//! The *constraint automata definitions* of MoCCML — the paper's primary
//! contribution (Fig. 2 metamodel, Fig. 3 example, Sec. II-C semantics).
//!
//! A [`RelationLibrary`] groups [`ConstraintDeclaration`]s (the
//! prototypes: name + typed parameters, `event` or `int`) and
//! [`AutomatonDefinition`]s (the bodies: states, local integer
//! variables, and transitions carrying `trueTriggers`, `falseTriggers`,
//! an integer [`BoolExpr`] guard and assignment [`Action`]s).
//!
//! Instantiating a definition with actual events and integer constants
//! yields an [`AutomatonInstance`], a
//! [`Constraint`](moccml_kernel::Constraint) whose local state is the
//! key `[state index, variable values…]` and whose per-step boolean
//! formula in a local state is, exactly as in Sec. II-C, *the
//! disjunction of the boolean expressions associated to the outgoing
//! transitions of the current state*: for a transition with a true
//! guard, the conjunction of its `trueTriggers` with the negated
//! `falseTriggers`. Choosing a step takes the first matching transition
//! and runs its actions to give the next local state.
//!
//! One deliberate completion of the paper's semantics: an automaton also
//! accepts any step in which **none** of its constrained events occur
//! (*stuttering*), leaving its state unchanged. Without it, the
//! `PlaceConstraint` of Fig. 3 would force a read or write at every
//! step of the whole system, which contradicts the SDF semantics the
//! paper derives; stuttering is the standard convention in CCSL-family
//! tools (TimeSquare).
//!
//! The crate also ships a textual concrete syntax ([`parse_library`]) so
//! that libraries can be written the way Fig. 3's graphical editor
//! displays them, and owns the one front end for all MoCCML text: a
//! single lexer and the [`TokenCursor`] that this crate's library
//! parser and the `.mcc` parser of `moccml-lang` both drive — a `.mcc`
//! specification's `library` blocks are parsed in place on its cursor
//! ([`TokenCursor::library_block`]).
//!
//! ## Example: Fig. 3's `PlaceConstraint`
//!
//! ```
//! use moccml_automata::parse_library;
//! use moccml_kernel::{Constraint, Step, Universe};
//!
//! let lib = parse_library(r#"
//! library SimpleSDFRelationLibrary {
//!   constraint PlaceConstraint(write: event, read: event,
//!                              pushRate: int, popRate: int,
//!                              itsDelay: int, itsCapacity: int)
//!   automaton PlaceConstraintDef implements PlaceConstraint {
//!     var size: int = itsDelay;
//!     initial state S0;
//!     final state S0;
//!     from S0 to S0 when {write} forbid {read}
//!       guard [size <= itsCapacity - pushRate] do size += pushRate;
//!     from S0 to S0 when {read} forbid {write}
//!       guard [size >= popRate] do size -= popRate;
//!   }
//! }"#)?;
//!
//! let mut u = Universe::new();
//! let (w, r) = (u.event("write"), u.event("read"));
//! let place = lib
//!     .instantiate("PlaceConstraint", "p1")?
//!     .bind_event("write", w)
//!     .bind_event("read", r)
//!     .bind_int("pushRate", 1)
//!     .bind_int("popRate", 1)
//!     .bind_int("itsDelay", 0)
//!     .bind_int("itsCapacity", 1)
//!     .finish()?;
//!
//! // empty place: only write (or stuttering) is acceptable
//! let empty = place.initial();
//! assert!(place.formula(&empty).eval(&Step::from_events([w])));
//! assert!(!place.formula(&empty).eval(&Step::from_events([r])));
//! // full place: only read is acceptable
//! let full = place.next(&empty, &Step::from_events([w]));
//! assert_eq!(full.values(), &[0, 1]); // state S0, size 1
//! assert!(!place.formula(&full).eval(&Step::from_events([w])));
//! assert!(place.formula(&full).eval(&Step::from_events([r])));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
mod instance;
mod lexer;
mod metamodel;
mod parser;
mod render;

pub use error::AutomataError;
pub use expr::{Action, BoolExpr, CmpOp, IntExpr};
pub use instance::{AutomatonInstance, InstanceBuilder};
pub use lexer::TokenCursor;
pub use metamodel::{
    AutomatonDefinition, ConstraintDeclaration, ParamKind, RelationLibrary, Transition, VarDecl,
};
pub use parser::parse_library;
pub use render::{automaton_to_dot, library_to_text};
