//! # moccml-verify
//!
//! The verification layer of the MoCCML reproduction: state a property
//! over a specification, get a minimal replayable counterexample — or
//! check a recorded trace / a second specification against it.
//!
//! The paper gives MoCCML an executable operational semantics precisely
//! so models can be *verified* by exhaustive simulation. This crate
//! turns the engine's deterministic parallel explorer into a checker:
//!
//! * **Properties** ([`Prop`]) — safety (`Always`/`Never` over
//!   [`StepPred`](moccml_kernel::StepPred) step predicates), the
//!   bounded-temporal family (`EventuallyWithin(k)`,
//!   `UntilWithin(p, q, k)`, `ReleaseWithin(p, q, k)` — one shared
//!   monitor core, also exposed per trace as [`TraceEvaluator`] for
//!   the statistical checker) and deadlock-freedom, compiled into
//!   observer monitors.
//! * **On-the-fly checking** ([`check`] / [`check_props`]) — every
//!   property's monitor runs *inside* one exploration through the
//!   [`ExploreVisitor`](moccml_engine::ExploreVisitor) hook, so the BFS
//!   stops deterministically once every property is decided instead of
//!   materialising the full state-space. Violations come back as
//!   [`Counterexample`]s: shortest schedules from the initial state,
//!   re-validated through a fresh [`Cursor`](moccml_engine::Cursor)
//!   before they are returned — and byte-identical for every
//!   [`workers`](moccml_engine::ExploreOptions::workers) count.
//! * **Cone-of-influence slicing** ([`check`] with
//!   [`CheckOptions::with_slice`]) — stutter-invariant safety
//!   properties (see [`sliceable_events`]) are checked on
//!   [`Program::slice`](moccml_engine::Program::slice) over their
//!   events, one pass per cone: the verdict is identical, a witness
//!   keeps its shortest length and replays on the full program, and
//!   the BFS visits at most — and on specs with independent parts
//!   strictly fewer — states.
//! * **Minimization** ([`minimize_witness`] / [`is_witness`]) —
//!   greedily shrink any witness schedule (drop steps, thin events out
//!   of steps), re-validating every candidate through a fresh cursor,
//!   until it is *locally minimal*: no single step or event can be
//!   removed without losing the violation.
//! * **Conformance** ([`conformance`]) — replay any recorded
//!   [`Schedule`](moccml_kernel::Schedule) (e.g. parsed from text with
//!   `Schedule::parse_lines`) against a program; the verdict is
//!   [`Verdict::Conforms`] or the first violating step index with the
//!   violated constraints' names.
//! * **Equivalence / refinement** ([`check_equivalence`] /
//!   [`check_refinement`]) — bounded synchronized-product exploration
//!   of two programs over one universe, returning a shortest
//!   distinguishing schedule on failure. The product is compiled into
//!   one program and explored through the **parallel explorer**
//!   ([`EquivOptions::workers`]), with the verdict identical for every
//!   worker count.
//!
//! ## Worked example: safety + conformance
//!
//! ```
//! use moccml_ccsl::{Alternation, Precedence};
//! use moccml_engine::{ExploreOptions, Program};
//! use moccml_kernel::{Schedule, Specification, StepPred, Universe};
//! use moccml_verify::{check_props, conformance, Prop, PropStatus, Verdict};
//!
//! // a tiny producer/consumer protocol: send alternates with ack,
//! // and every ack is preceded by a send
//! let mut u = Universe::new();
//! let (send, ack) = (u.event("send"), u.event("ack"));
//! let mut spec = Specification::new("protocol", u.clone());
//! spec.add_constraint(Box::new(Alternation::new("send~ack", send, ack)));
//! spec.add_constraint(Box::new(Precedence::strict("send<ack", send, ack)));
//! let program = Program::new(spec);
//!
//! // SAFETY: send and ack never coincide — holds, proven on the
//! // fully explored space; and "ack never fires" is violated with the
//! // 2-step witness send ; ack — minimal, and replayable by
//! // construction. One exploration decides both.
//! let safe = Prop::Never(StepPred::and(StepPred::fired(send), StepPred::fired(ack)));
//! let props = [safe, Prop::Never(StepPred::fired(ack))];
//! let mut report = check_props(&program, &props, &ExploreOptions::default());
//! assert_eq!(report.statuses[0], PropStatus::Holds);
//! let PropStatus::Violated(ce) = report.statuses.remove(1) else { unreachable!() };
//! assert_eq!(ce.schedule.len(), 2);
//! assert!(ce.replays_on(&program));
//!
//! // CONFORMANCE: check a recorded log against the spec — the text
//! // format round-trips through Schedule::{to_lines, parse_lines}
//! let log = Schedule::parse_lines("send\nack\nsend\n", &u).expect("parses");
//! assert!(conformance(&program, &log).conforms());
//! let bad = Schedule::parse_lines("send\nsend\n", &u).expect("parses");
//! match conformance(&program, &bad) {
//!     Verdict::Violation { step, violated } => {
//!         assert_eq!(step, 1);
//!         assert_eq!(violated, vec!["send~ack".to_owned()]);
//!     }
//!     Verdict::Conforms => unreachable!("double send breaks alternation"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod conformance;
mod equivalence;
mod minimize;
mod prop;
mod temporal;

pub use check::{
    check, check_props, sliceable_events, CheckOptions, CheckReport, Counterexample, ProgressFn,
    PropStatus,
};
pub use conformance::{conformance, Verdict};
pub use equivalence::{
    check_equivalence, check_refinement, Distinguisher, EquivOptions, EquivalenceVerdict, Side,
    VerifyError,
};
pub use minimize::{is_witness, minimize_witness};
pub use prop::Prop;
pub use temporal::{TraceEvaluator, TraceStatus};
