//! # moccml-serve
//!
//! The long-running verification service of the MoCCML reproduction:
//! a zero-dependency daemon that keeps compiled specifications hot and
//! answers verification requests over a newline-delimited JSON
//! protocol.
//!
//! The paper positions MoCCML as the semantic backbone of a modeling
//! *workbench* (GEMOC): editors and analysis views fire many small
//! verification queries against the same handful of specifications.
//! That workload is exactly what this crate serves:
//!
//! * **Protocol** ([`protocol`]) — one request per line
//!   (`check` / `explore` / `simulate` / `conformance` / `lint` /
//!   `status` / `cancel` / `shutdown`), answered by a stream of
//!   events: `accepted`, periodic `progress` checkpoints (riding the
//!   explorer's [`ExploreVisitor::on_progress`](moccml_engine::ExploreVisitor::on_progress)
//!   hook), and exactly one terminal `result` / `error` / `cancelled`.
//! * **Compiled-program cache** ([`cache`]) — an LRU keyed by the
//!   frontend's *canonical pretty-printed form*
//!   ([`SpecAst::to_text`](moccml_lang::SpecAst)), so reformatted but
//!   equivalent specs share one compiled
//!   [`Program`](moccml_engine::Program) behind an `Arc`.
//! * **Bounded job queue** ([`service`]) — a fixed worker pool behind
//!   a depth-bounded queue (`queue full` rejections instead of
//!   unbounded memory), per-request state/depth/worker budgets clamped
//!   to service caps, wall-clock deadlines, and cooperative
//!   cancellation through
//!   [`VisitControl::Stop`](moccml_engine::VisitControl) — a cancelled
//!   exploration stops at the next checkpoint and the worker lives on.
//! * **Metrics** ([`metrics`]) — per-method log₂ latency histograms
//!   (the shared [`moccml_obs::Histogram`]) and cache/queue counters
//!   behind the `status` method, plus a `metrics` method rendering the
//!   combined explorer/cache/latency view as Prometheus-style text
//!   exposition. Result envelopes carry per-job span summaries, and
//!   `--trace <file>` on the CLI writes Chrome trace-event JSON.
//! * **One command model** ([`ops`]) — the CLI's argument list and
//!   the daemon's requests both become one validated command, one
//!   executor turns it into a typed outcome, and two renderers print
//!   it as the text report or as the JSON result object that serve's
//!   `result` events and the CLI's `--format json` mode share, so the
//!   two never drift.
//!
//! The `moccml` binary lives in this crate (top of the dependency
//! stack): [`cli::run`] parses the argument list, runs `serve` and
//! `client`, and sends every verification subcommand down the same
//! command → executor → renderer path as a daemon job.
//!
//! ## Worked example: an in-process session
//!
//! ```
//! use moccml_serve::service::{Service, ServiceConfig};
//! use moccml_serve::json::Json;
//!
//! let service = Service::new(ServiceConfig::default());
//! let spec = "spec alt {\n  events a, b;\n  constraint alt = alternates(a, b);\n  assert never((a && b));\n}\n";
//! let request = Json::obj([
//!     ("id", Json::str("r1")),
//!     ("method", Json::str("check")),
//!     ("spec", Json::str(spec)),
//! ]);
//! let events = service.call(&request.to_line());
//! let result = events.last().expect("terminal event");
//! assert_eq!(result.get("event").and_then(Json::as_str), Some("result"));
//! let payload = result.get("result").expect("payload");
//! assert_eq!(payload.get("violated").and_then(Json::as_bool), Some(false));
//!
//! // the same spec again — answered from the compiled-program cache
//! let events = service.call(&Json::obj([
//!     ("id", Json::str("r2")),
//!     ("method", Json::str("status")),
//! ]).to_line());
//! let status = events.last().expect("status").get("result").cloned().expect("payload");
//! let hits = status.get("cache").and_then(|c| c.get("misses")).and_then(Json::as_i64);
//! assert_eq!(hits, Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod client;
mod command;
pub mod json;
pub mod metrics;
pub mod ops;
pub mod protocol;
mod render;
pub mod server;
pub mod service;

pub use cache::{CacheStats, SpecCache};
pub use json::{Json, JsonError};
pub use protocol::{Method, Request, RequestOptions};
pub use service::{CollectingSink, Dispatch, EventSink, Service, ServiceConfig};
