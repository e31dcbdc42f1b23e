//! The serve wire protocol: request decoding and event encoding.
//!
//! One request per line, one event per line, both JSON objects. A
//! request names a `method` and carries the full `.mcc` `spec` text
//! inline (plus method-specific options); the daemon answers with a
//! stream of events correlated by the request's `id`:
//!
//! ```text
//! → {"id":"r1","method":"check","spec":"spec s { … }"}
//! ← {"event":"accepted","id":"r1","method":"check"}
//! ← {"event":"progress","id":"r1","states":2048,"transitions":4096,"depth":11,…}
//! ← {"event":"result","id":"r1","result":{"kind":"check", … }}
//! ```
//!
//! Every request terminates with exactly one `result`, `error` or
//! `cancelled` event; `progress` events are best-effort and only
//! emitted for long-running jobs. The `result` payloads are the shared
//! machine-readable objects of [`crate::ops`] — byte-identical to what
//! `moccml <cmd> --format json` prints.

use crate::json::Json;
use crate::ops::{explore_elapsed, gauge, per_sec, Frontier};
use moccml_obs::Snapshot;

/// A protocol method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Verify every `assert`ed property of the spec.
    Check,
    /// Build the state-space and report its metrics.
    Explore,
    /// Run a policy-driven simulation.
    Simulate,
    /// Replay a recorded trace against the spec.
    Conformance,
    /// Statistical model checking: Monte-Carlo trace sampling with
    /// Okamoto/SPRT bounds instead of exhaustive exploration.
    Smc,
    /// Static analysis of the spec.
    Lint,
    /// Service health: uptime, cache and queue counters, latencies.
    Status,
    /// Prometheus-style text exposition of the service's combined
    /// explorer/cache/queue/latency metrics.
    Metrics,
    /// Cooperatively cancel an in-flight request by id.
    Cancel,
    /// Drain in-flight jobs and stop the daemon.
    Shutdown,
}

impl Method {
    /// The wire name of the method.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Method::Check => "check",
            Method::Explore => "explore",
            Method::Simulate => "simulate",
            Method::Conformance => "conformance",
            Method::Smc => "smc",
            Method::Lint => "lint",
            Method::Status => "status",
            Method::Metrics => "metrics",
            Method::Cancel => "cancel",
            Method::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Method> {
        Some(match name {
            "check" => Method::Check,
            "explore" => Method::Explore,
            "simulate" => Method::Simulate,
            "conformance" => Method::Conformance,
            "smc" => Method::Smc,
            "lint" => Method::Lint,
            "status" => Method::Status,
            "metrics" => Method::Metrics,
            "cancel" => Method::Cancel,
            "shutdown" => Method::Shutdown,
            _ => return None,
        })
    }

    /// Whether the method runs on the worker pool (as opposed to being
    /// answered synchronously at dispatch).
    #[must_use]
    pub fn is_job(self) -> bool {
        !matches!(
            self,
            Method::Status | Method::Metrics | Method::Cancel | Method::Shutdown
        )
    }
}

/// Per-request knobs, all optional on the wire and clamped to the
/// service budgets before use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestOptions {
    /// Worker threads for this job's exploration.
    pub workers: Option<usize>,
    /// Exploration state bound.
    pub max_states: Option<usize>,
    /// Exploration depth bound.
    pub max_depth: Option<usize>,
    /// Wall-clock budget for the job, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Simulation steps.
    pub steps: Option<usize>,
    /// Simulation policy name.
    pub policy: Option<String>,
    /// Simulation seed (random policy); also the `smc` base seed.
    pub seed: Option<u64>,
    /// Lint: treat warnings as errors.
    pub deny_warnings: bool,
    /// `smc`: estimation half-width ε.
    pub epsilon: Option<f64>,
    /// `smc`: error bound δ (confidence is `1 - δ`).
    pub delta: Option<f64>,
    /// `smc`: run the sequential SPRT against this violation
    /// probability threshold instead of a fixed-size estimate.
    pub prob_threshold: Option<f64>,
    /// `smc`: per-trace length cap.
    pub max_trace_len: Option<usize>,
}

/// Reads an optional option member: absent (or `null`) is `None`, a
/// value `read` rejects is an error naming the field.
fn option<T>(
    request: &Json,
    key: &str,
    expected: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match request.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be {expected}")),
    }
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on every event.
    pub id: String,
    /// What to do.
    pub method: Method,
    /// The `.mcc` specification text (jobs other than `conformance`
    /// without a spec are rejected at dispatch).
    pub spec: Option<String>,
    /// `conformance`: the recorded trace, `Schedule::parse_lines`
    /// format (literal newlines, so JSON-escaped on the wire).
    pub trace: Option<String>,
    /// `cancel`: the id of the request to cancel.
    pub target: Option<String>,
    /// Budget and policy knobs.
    pub options: RequestOptions,
}

impl Request {
    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the line is not valid
    /// JSON, is missing `id`/`method`, names an unknown method, or
    /// carries an option of the wrong type (a negative count, a string
    /// where a number belongs). Unknown members are ignored.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or("request needs a string `id`")?
            .to_owned();
        let method_name = value
            .get("method")
            .and_then(Json::as_str)
            .ok_or("request needs a string `method`")?;
        let method =
            Method::parse(method_name).ok_or_else(|| format!("unknown method `{method_name}`"))?;
        let str_field = |key: &str| value.get(key).and_then(Json::as_str).map(str::to_owned);
        let count = |key: &str| {
            option(&value, key, "a non-negative integer", |v| {
                v.as_i64().and_then(|n| usize::try_from(n).ok())
            })
        };
        let wide = |key: &str| {
            option(&value, key, "a non-negative integer", |v| {
                v.as_i64().and_then(|n| u64::try_from(n).ok())
            })
        };
        let number = |key: &str| option(&value, key, "a number", Json::as_f64);
        let options = RequestOptions {
            workers: count("workers")?,
            max_states: count("max_states")?,
            max_depth: count("max_depth")?,
            timeout_ms: wide("timeout_ms")?,
            steps: count("steps")?,
            policy: option(&value, "policy", "a string", |v| {
                v.as_str().map(str::to_owned)
            })?,
            seed: wide("seed")?,
            deny_warnings: option(&value, "deny_warnings", "a boolean", Json::as_bool)?
                .unwrap_or(false),
            epsilon: number("epsilon")?,
            delta: number("delta")?,
            prob_threshold: number("prob_threshold")?,
            max_trace_len: count("max_trace_len")?,
        };
        Ok(Request {
            id,
            method,
            spec: str_field("spec"),
            trace: str_field("trace"),
            target: str_field("target"),
            options,
        })
    }
}

/// `accepted`: the request was decoded and queued (or is being
/// answered synchronously).
#[must_use]
pub fn accepted(id: &str, method: Method) -> Json {
    Json::obj([
        ("event", Json::str("accepted")),
        ("id", Json::str(id)),
        ("method", Json::str(method.name())),
    ])
}

/// `progress`: a long-running exploration's periodic checkpoint, read
/// off the explorer's gauges in the job's recorder `explorer` (the
/// explorer publishes them just before it calls the progress hook).
/// `states`/`transitions`/`depth` are the canonical, deterministic
/// totals, and so are the pending, frontier and interner figures after
/// them; only the throughput is timing-dependent. These are the
/// numbers `moccml explore --stats` prints.
#[must_use]
pub fn progress(id: &str, explorer: &Snapshot) -> Json {
    let count = |name| Json::int(gauge(explorer, name));
    let states = gauge(explorer, "explore_states");
    let frontier = Frontier::read(explorer);
    Json::obj([
        ("event", Json::str("progress")),
        ("id", Json::str(id)),
        ("states", Json::int(states)),
        ("transitions", count("explore_transitions")),
        ("depth", count("explore_depth")),
        (
            "states_per_sec",
            Json::Float(per_sec(states, explore_elapsed(explorer))),
        ),
        ("pending", count("explore_pending")),
        ("peak_frontier", Json::int(frontier.peak)),
        ("interned", Json::int(frontier.interned)),
        ("interner_occupancy", Json::Float(frontier.occupancy)),
    ])
}

/// `progress` for a statistical (`smc`) job: consumed traces and
/// violations so far against the planned Okamoto budget (sequential
/// runs usually stop long before `planned`).
#[must_use]
pub fn smc_progress(id: &str, traces: usize, violations: usize, planned: usize) -> Json {
    Json::obj([
        ("event", Json::str("progress")),
        ("id", Json::str(id)),
        ("traces", Json::int(traces)),
        ("violations", Json::int(violations)),
        ("planned", Json::int(planned)),
    ])
}

/// `result`: the job finished; `result` is an [`crate::ops`] object.
#[must_use]
pub fn result(id: &str, payload: Json) -> Json {
    Json::obj([
        ("event", Json::str("result")),
        ("id", Json::str(id)),
        ("result", payload),
    ])
}

/// Attaches a per-job span summary to a terminal event envelope —
/// aggregated by span name in first-opened order, as a **sibling** of
/// the `result` payload so byte-comparisons against the payload (CI
/// greps the `--format json` line inside session transcripts) keep
/// matching. No-op when `spans` is empty.
#[must_use]
pub fn with_spans(event: Json, spans: &[moccml_obs::SpanRecord]) -> Json {
    if spans.is_empty() {
        return event;
    }
    let mut order: Vec<&str> = Vec::new();
    let mut totals: Vec<(u64, u64)> = Vec::new(); // (count, total_us)
    for span in spans {
        let at = match order.iter().position(|n| *n == span.name) {
            Some(at) => at,
            None => {
                order.push(&span.name);
                totals.push((0, 0));
                order.len() - 1
            }
        };
        totals[at].0 += 1;
        totals[at].1 += span.dur_us;
    }
    let summary = order
        .iter()
        .zip(&totals)
        .map(|(name, (count, total_us))| {
            Json::obj([
                ("name", Json::str(name)),
                ("count", Json::int(*count)),
                ("total_us", Json::int(*total_us)),
            ])
        })
        .collect();
    match event {
        Json::Obj(mut members) => {
            members.push(("spans".to_owned(), Json::Arr(summary)));
            Json::Obj(members)
        }
        other => other,
    }
}

/// `error`: the request failed (bad input, budget exhausted, rejected).
#[must_use]
pub fn error(id: &str, message: &str) -> Json {
    Json::obj([
        ("event", Json::str("error")),
        ("id", Json::str(id)),
        ("error", Json::str(message)),
    ])
}

/// `cancelled`: the job was stopped by a `cancel` request before it
/// produced a verdict. No partial result is reported.
#[must_use]
pub fn cancelled(id: &str) -> Json {
    Json::obj([("event", Json::str("cancelled")), ("id", Json::str(id))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_decode_with_all_options() {
        let line = r#"{"id":"r7","method":"check","spec":"spec s {}","workers":2,
                       "max_states":500,"max_depth":9,"timeout_ms":250,"steps":4,
                       "policy":"random","seed":7,"deny_warnings":true,
                       "epsilon":0.05,"delta":0.01,"prob_threshold":0.5,
                       "max_trace_len":128}"#
            .replace('\n', " ");
        let req = Request::parse(&line).expect("decodes");
        assert_eq!(req.id, "r7");
        assert_eq!(req.method, Method::Check);
        assert_eq!(req.spec.as_deref(), Some("spec s {}"));
        assert_eq!(req.options.workers, Some(2));
        assert_eq!(req.options.max_states, Some(500));
        assert_eq!(req.options.max_depth, Some(9));
        assert_eq!(req.options.timeout_ms, Some(250));
        assert_eq!(req.options.steps, Some(4));
        assert_eq!(req.options.policy.as_deref(), Some("random"));
        assert_eq!(req.options.seed, Some(7));
        assert!(req.options.deny_warnings);
        assert_eq!(req.options.epsilon, Some(0.05));
        assert_eq!(req.options.delta, Some(0.01));
        assert_eq!(req.options.prob_threshold, Some(0.5));
        assert_eq!(req.options.max_trace_len, Some(128));
    }

    #[test]
    fn requests_reject_malformed_lines() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"method":"check"}"#).is_err());
        assert!(Request::parse(r#"{"id":"x"}"#).is_err());
        let err = Request::parse(r#"{"id":"x","method":"frobnicate"}"#).expect_err("unknown");
        assert!(err.contains("frobnicate"), "{err}");
    }

    #[test]
    fn method_names_round_trip() {
        for m in [
            Method::Check,
            Method::Explore,
            Method::Simulate,
            Method::Conformance,
            Method::Smc,
            Method::Lint,
            Method::Status,
            Method::Metrics,
            Method::Cancel,
            Method::Shutdown,
        ] {
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        assert!(Method::Check.is_job());
        assert!(Method::Smc.is_job());
        assert!(!Method::Status.is_job());
        assert!(!Method::Metrics.is_job());
        assert!(!Method::Cancel.is_job());
        assert!(!Method::Shutdown.is_job());
    }

    #[test]
    fn events_carry_the_request_id() {
        assert_eq!(
            accepted("r1", Method::Explore).to_line(),
            r#"{"event":"accepted","id":"r1","method":"explore"}"#
        );
        assert_eq!(
            progress("r1", &moccml_obs::Snapshot::default()).get("id"),
            Some(&Json::str("r1"))
        );
        assert_eq!(
            smc_progress("r1", 512, 3, 18_445).to_line(),
            r#"{"event":"progress","id":"r1","traces":512,"violations":3,"planned":18445}"#
        );
        assert_eq!(
            cancelled("r1").to_line(),
            r#"{"event":"cancelled","id":"r1"}"#
        );
        let e = error("r1", "queue full");
        assert_eq!(e.get("error").and_then(Json::as_str), Some("queue full"));
        let r = result("r1", Json::obj([("kind", Json::str("check"))]));
        assert_eq!(
            r.get("result")
                .and_then(|v| v.get("kind"))
                .and_then(Json::as_str),
            Some("check")
        );
    }

    #[test]
    fn with_spans_summarizes_as_an_envelope_sibling() {
        let rec = moccml_obs::Recorder::new();
        {
            let _check = rec.span("check");
            drop(rec.span("explore"));
        }
        drop(rec.span("explore"));
        let payload = Json::obj([("kind", Json::str("check"))]);
        let payload_line = payload.to_line();
        let event = with_spans(result("r1", payload), &rec.snapshot().spans);
        let line = event.to_line();
        // the payload bytes survive untouched inside the envelope
        assert!(line.contains(&payload_line), "{line}");
        let spans = event.get("spans").and_then(Json::as_arr).expect("summary");
        assert_eq!(spans.len(), 2, "aggregated by name");
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("check"));
        assert_eq!(spans[0].get("count").and_then(Json::as_i64), Some(1));
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("explore"));
        assert_eq!(spans[1].get("count").and_then(Json::as_i64), Some(2));
        // the result payload itself has no spans member
        assert!(event.get("result").expect("payload").get("spans").is_none());
        // empty span lists leave the envelope untouched
        let bare = result("r2", Json::obj([("kind", Json::str("simulate"))]));
        assert_eq!(with_spans(bare.clone(), &[]).to_line(), bare.to_line());
    }

    #[test]
    fn progress_reads_the_explorer_gauges() {
        let rec = moccml_obs::Recorder::new();
        for (name, value) in [
            ("explore_states", 10),
            ("explore_transitions", 20),
            ("explore_depth", 3),
            ("explore_pending", 4),
            ("explore_peak_frontier", 6),
            ("explore_interner_keys", 12),
            ("explore_interner_buckets", 8),
            ("explore_elapsed_us", 2_000),
        ] {
            rec.gauge(name).set(value);
        }
        assert_eq!(
            progress("r1", &rec.snapshot()).to_line(),
            r#"{"event":"progress","id":"r1","states":10,"transitions":20,"depth":3,"#.to_owned()
                + r#""states_per_sec":5000.0,"pending":4,"peak_frontier":6,"interned":12,"#
                + r#""interner_occupancy":1.5}"#
        );
    }
}
