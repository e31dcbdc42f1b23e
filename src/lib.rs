//! # moccml
//!
//! Facade crate for the Rust reproduction of *"Towards a Meta-Language
//! for the Concurrency Concern in DSLs"* (DeAntoni, Diallo, Teodorov,
//! Champeau, Combemale — DATE 2015).
//!
//! Each layer of the paper's Fig. 1 lives in its own crate; this
//! package re-exports them under one roof and owns the cross-crate
//! integration tests (`tests/`) and runnable walkthroughs
//! (`examples/`).
//!
//! * [`kernel`] — events, steps, schedules, step formulas, the
//!   [`Constraint`](kernel::Constraint) protocol;
//! * [`automata`] — MoCCML constraint automata (Fig. 2/3) and their
//!   textual concrete syntax;
//! * [`ccsl`] — the declarative CCSL relation/expression library;
//! * [`metamodel`] — MOF-lite metamodels, models and the ECL-style
//!   mapping that weaves constraints over a model;
//! * [`engine`] — the generic execution engine: immutable compiled
//!   [`engine::Program`]s with cheap per-worker [`engine::Cursor`]s,
//!   `Engine` sessions with pluggable policies and streaming
//!   observers, and a deterministic parallel explorer;
//! * [`verify`] — the verification layer: temporal properties
//!   ([`verify::Prop`]) checked on the fly — every property decided
//!   in one exploration ([`verify::check`]) — with deterministic early
//!   stop, replayable [`verify::Counterexample`]s
//!   and greedy witness minimization
//!   ([`verify::minimize_witness`]), schedule conformance checking,
//!   and bounded equivalence/refinement between two specifications —
//!   the synchronized product now runs through the parallel explorer;
//! * [`lang`] — the textual frontend: the `.mcc` specification
//!   format and property syntax ([`lang::parse_spec`],
//!   [`lang::parse_prop`], [`lang::compile`]) behind the `moccml`
//!   CLI binary (`check` / `explore` / `simulate` / `conformance` /
//!   `lint`);
//! * [`analyze`] — static analysis: the multi-pass lint engine
//!   behind `moccml lint` ([`analyze::analyze_str`]), with stable
//!   `A…` codes, text/JSON renderers, and the cone-of-influence
//!   report that feeds `verify::check`'s slicing;
//! * [`serve`] — the long-running verification service: an
//!   NDJSON-over-TCP daemon (`moccml serve`) with an LRU
//!   compiled-program cache keyed by the canonical pretty-printed
//!   form, a bounded job queue with per-request budgets and
//!   cooperative cancellation, and the shared machine-readable result
//!   schema behind `--format json`; owns the `moccml` binary;
//! * [`sdf`] — the paper's illustrative DSL (SigPML/SDF) and the PAM
//!   case study.
//!
//! ## Quickstart
//!
//! A specification is compiled once into an [`engine::Engine`] session;
//! the session then drives simulation (under a pluggable
//! [`engine::Policy`]), exploration and streaming observers on the same
//! compiled state:
//!
//! ```
//! use moccml::ccsl::Alternation;
//! use moccml::engine::{Engine, ExploreOptions, Lexicographic, VcdObserver};
//! use moccml::kernel::{Specification, Universe};
//!
//! let mut u = Universe::new();
//! let a = u.event("a");
//! let b = u.event("b");
//! let mut spec = Specification::new("alt", u);
//! spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
//!
//! let vcd = VcdObserver::new("alt");
//! let mut engine = Engine::builder(spec)
//!     .policy(Lexicographic)
//!     .observer(vcd.clone())
//!     .build();
//! let space = engine.explore(&ExploreOptions::default());
//! assert_eq!(space.state_count(), 2); // the alternation two-cycle
//! let report = engine.run(4);
//! assert_eq!(report.steps_taken, 4);
//! assert!(vcd.render().ends_with("#8\n"));
//! ```
//!
//! Exploration runs breadth first across
//! [`engine::ExploreOptions::workers`] threads and is **deterministic**:
//! the resulting state-space is byte-identical for every worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use moccml_analyze as analyze;
pub use moccml_automata as automata;
pub use moccml_ccsl as ccsl;
pub use moccml_engine as engine;
pub use moccml_kernel as kernel;
pub use moccml_lang as lang;
pub use moccml_metamodel as metamodel;
pub use moccml_obs as obs;
pub use moccml_sdf as sdf;
pub use moccml_serve as serve;
pub use moccml_verify as verify;
