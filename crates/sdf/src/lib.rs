//! # moccml-sdf
//!
//! The paper's illustrative DSL (Sec. III): a lightweight extension of
//! Synchronous Data Flow — the authors call the extended language
//! *SigPML*. An application is a set of [`Agent`]s; upon activation an
//! agent reads its input ports, executes `N` processing cycles and
//! writes its output ports; data in transit is stored in bounded
//! [`Place`]s.
//!
//! This crate provides:
//!
//! * [`SdfGraph`] — the abstract syntax (agents, ports with rates,
//!   places with capacity and delay) with a builder API;
//! * [`analysis`] — classical SDF static analysis: topology matrix,
//!   repetition vector, consistency;
//! * [`mocc`] — the SDF MoCC exactly as the paper defines it: the
//!   `PlaceConstraint` automaton of Fig. 3, the agent automaton of
//!   Sec. III-A (`read` simultaneous to `start`, `isExecuting` only
//!   between `start` and `stop`, `stop` at the N-th `isExecuting`,
//!   `write` simultaneous to `stop`), the *multiport memory* variant the
//!   paper mentions, and the generation of the execution model — both
//!   natively and through the metamodel+mapping pipeline;
//! * [`platform`] — the deployment extension sketched in the
//!   conclusion: processors, allocations and the mutual-exclusion
//!   constraint they induce;
//! * [`pam`] — the Passive Acoustic Monitoring case study: the
//!   application under an infinite-resource assumption and three
//!   deployments, evaluated by simulation and exhaustive exploration.
//!
//! ## Example
//!
//! ```
//! use moccml_sdf::SdfGraph;
//! use moccml_engine::{Engine, MaxParallel};
//!
//! // producer → consumer through a 2-slot place
//! let mut g = SdfGraph::new("pc");
//! g.add_agent("prod", 0)?;
//! g.add_agent("cons", 0)?;
//! g.connect("prod", "cons", 1, 1, 2, 0)?;
//!
//! let spec = moccml_sdf::mocc::build_specification(&g)?;
//! let report = Engine::builder(spec).policy(MaxParallel).build().run(8);
//! assert!(!report.deadlocked);
//! # Ok::<(), moccml_sdf::SdfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod error;
mod graph;
pub mod mocc;
pub mod model_bridge;
pub mod pam;
pub mod platform;
pub mod scheduler;

pub use error::SdfError;
pub use graph::{Agent, Place, Port, PortDirection, SdfGraph};
