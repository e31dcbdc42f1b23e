//! # moccml-engine
//!
//! The *generic execution engine* of the paper's Fig. 1: it takes an
//! execution model (a [`Specification`](moccml_kernel::Specification) —
//! events plus instantiated constraints) as its configuration and offers
//! **simulation** and **exhaustive exploration** of any conforming
//! model.
//!
//! The engine is organised around three concepts:
//!
//! * [`Program`] — the *immutable* half of a compiled specification:
//!   the (pure, shared) constraints, interned constrained-event list,
//!   per-constraint event footprints, and per constraint a table of
//!   the local states reached so far (interned to ids, each with its
//!   lowered formula and, once enumerated, its models as masks and its
//!   next-state ids). A
//!   program is `Send + Sync` and shared by every execution over it —
//!   across threads, all cursors fill and read one set of tables.
//! * [`Cursor`] — the *mutable* per-worker half: one execution
//!   position (a local-state id per constraint) with
//!   `fire` / `restore` / `state_key` / `acceptable_steps`, and
//!   `steps`: the acceptable steps as a [`StepSet`], one sorted list
//!   per independent constraint group, indexed without building their
//!   product. Cursors are cheap; the parallel explorer hands one to
//!   every worker.
//! * [`Engine`] — a configured session (a cursor plus policy, solver
//!   options and observers): a pluggable [`Policy`] (open trait;
//!   [`Random`], [`MaxParallel`], [`MinSerial`], [`Lexicographic`] and
//!   [`SafeMaxParallel`] are provided), [`SolverOptions`] for the
//!   pruned/naive ablation, and streaming [`Observer`]s (such as
//!   [`VcdObserver`]) that receive every fired step as it happens.
//!   [`Engine::step`] is the one place a step is chosen and fired:
//!   simulation and the statistical checker's sampling both run on it.
//!   Policies choose on the factored [`StepSet`].
//!
//! [`Program::explore`] / [`Cursor::explore`] / [`Engine::explore`]
//! (or the [`explore`] free function) build the
//! reachable scheduling state-space ([`StateSpace`]) whose quantitative
//! metrics the paper's PAM study reports — breadth first, across
//! [`ExploreOptions::workers`] threads, with a **byte-identical result
//! for every worker count**. [`Program::explore_with`] additionally
//! streams every absorbed transition, deadlock and level boundary to an
//! [`ExploreVisitor`] — in canonical order, worker-count-independent —
//! and lends it the [`StateGraph`] absorbed so far at each boundary;
//! that is the hook the `moccml-verify` crate checks temporal
//! properties through on the fly, with deterministic early stop. The
//! one graph is what the final space holds too: its discovering edges
//! give shortest schedules ([`StateGraph::schedule_to`]), which the
//! analysis queries ([`dead_events`], [`is_event_live`],
//! [`live_events`], [`shortest_path_to`], [`deadlock_witness`]) and
//! every checker's witnesses are read from.
//!
//! ## Example
//!
//! ```
//! use moccml_ccsl::Alternation;
//! use moccml_engine::{Engine, Random};
//! use moccml_kernel::{Specification, Universe};
//!
//! let mut u = Universe::new();
//! let a = u.event("a");
//! let b = u.event("b");
//! let mut spec = Specification::new("alt", u);
//! spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
//!
//! let mut engine = Engine::builder(spec).policy(Random::new(42)).build();
//!
//! // initially only {a} is acceptable (besides the excluded empty step)
//! assert_eq!(engine.acceptable_steps().len(), 1);
//! let report = engine.run(6);
//! assert!(!report.deadlocked);
//! assert_eq!(report.steps_taken, 6);
//! assert_eq!(report.schedule.occurrences(b), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod cursor;
mod engine;
mod explorer;
mod export;
mod observer;
mod policy;
mod program;
mod rng;
mod solver;
mod step_set;

pub use analysis::{
    dead_events, deadlock_witness, is_event_fireable, is_event_live, live_events, shortest_path_to,
    Witness,
};
pub use cursor::Cursor;
pub use engine::{Engine, EngineBuilder, SimulationReport};
pub use explorer::{
    explore, ExploreOptions, ExploreVisitor, StateGraph, StateSpace, StateSpaceStats, Transitions,
    VisitControl, PROGRESS_INTERVAL,
};
pub use export::{schedule_to_vcd, state_space_to_dot};
pub use observer::{Observer, VcdObserver};
pub use policy::{
    Lexicographic, MaxParallel, MinSerial, Policy, PolicyContext, Random, SafeMaxParallel,
};
pub use program::Program;
pub use rng::SplitMix64;
pub use solver::SolverOptions;
pub use step_set::StepSet;
