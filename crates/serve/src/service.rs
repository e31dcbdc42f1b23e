//! The verification service: a bounded job queue in front of a fixed
//! worker pool, the compiled-program cache, per-request budgets with
//! cooperative cancellation, and the metrics the `status` method
//! reports.
//!
//! The service is transport-agnostic: callers hand request lines to
//! [`Service::handle_line`] together with an [`EventSink`] that
//! receives the response events, and the TCP front end
//! ([`crate::server`]) is one thin caller among others (the bundled
//! client, the tests and the benches drive the same entry point via
//! [`Service::call`]).
//!
//! Every accepted job runs under three budgets — a state bound, a
//! depth bound and a wall-clock deadline, each clamped to the service
//! caps — and checks a cancellation flag at the explorer's periodic
//! progress checkpoints, so a `cancel` request stops a runaway
//! exploration at the next checkpoint without poisoning the worker:
//! the worker thread survives and picks up the next job.

use crate::cache::{CacheStats, SpecCache};
use crate::command::Command;
use crate::json::Json;
use crate::metrics::{self, Histogram};
use crate::ops;
use crate::protocol::{self, Method, Request};
use moccml_engine::VisitControl;
use moccml_obs::Recorder;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Service-wide limits and defaults. Every per-request option is
/// clamped to these caps before a job runs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Compiled-spec cache capacity (entries).
    pub cache_capacity: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond this
    /// are rejected with a `queue full` error.
    pub queue_depth: usize,
    /// Wall-clock budget applied when a request names none (ms).
    pub default_timeout_ms: u64,
    /// Hard wall-clock cap (ms); request timeouts clamp to this.
    pub max_timeout_ms: u64,
    /// Hard cap on a job's exploration state bound.
    pub max_states: usize,
    /// Hard cap on a job's exploration depth bound.
    pub max_depth: usize,
    /// Hard cap on a job's simulation steps.
    pub max_steps: usize,
    /// Hard cap on a job's exploration worker threads.
    pub max_job_workers: usize,
    /// Minimum interval between `progress` events per job (ms); 0
    /// emits one per checkpoint.
    pub progress_interval_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            cache_capacity: 32,
            queue_depth: 64,
            default_timeout_ms: 30_000,
            max_timeout_ms: 300_000,
            max_states: 1_000_000,
            max_depth: usize::MAX,
            max_steps: 100_000,
            max_job_workers: 4,
            progress_interval_ms: 200,
        }
    }
}

/// The job methods in the fixed order `status` and `metrics` list them,
/// so their output is stable.
const JOB_METHODS: [Method; 6] = [
    Method::Check,
    Method::Explore,
    Method::Simulate,
    Method::Conformance,
    Method::Smc,
    Method::Lint,
];

/// Receives response events. Implementations must tolerate being
/// called from worker threads.
pub trait EventSink: Send + Sync {
    /// Delivers one event (one line on the wire).
    fn emit(&self, event: &Json);
}

/// An in-memory sink collecting events, for tests and [`Service::call`].
#[derive(Default)]
pub struct CollectingSink {
    events: Mutex<Vec<Json>>,
    cv: Condvar,
}

impl CollectingSink {
    /// A snapshot of everything emitted so far.
    #[must_use]
    pub fn events(&self) -> Vec<Json> {
        self.events.lock().expect("sink lock").clone()
    }

    /// Blocks until an event with `"event"` ∈ {`result`, `error`,
    /// `cancelled`} and the given id has been emitted, then returns a
    /// snapshot. Panics after `timeout` (tests should never hang).
    #[must_use]
    pub fn wait_terminal(&self, id: &str, timeout: Duration) -> Vec<Json> {
        let deadline = Instant::now() + timeout;
        let mut events = self.events.lock().expect("sink lock");
        loop {
            if events.iter().any(|e| is_terminal_for(e, id)) {
                return events.clone();
            }
            let now = Instant::now();
            assert!(
                now < deadline,
                "no terminal event for `{id}` within {timeout:?}"
            );
            let (guard, _) = self
                .cv
                .wait_timeout(events, deadline - now)
                .expect("sink lock");
            events = guard;
        }
    }
}

fn is_terminal_for(event: &Json, id: &str) -> bool {
    event.get("id").and_then(Json::as_str) == Some(id)
        && matches!(
            event.get("event").and_then(Json::as_str),
            Some("result" | "error" | "cancelled")
        )
}

impl EventSink for CollectingSink {
    fn emit(&self, event: &Json) {
        self.events.lock().expect("sink lock").push(event.clone());
        self.cv.notify_all();
    }
}

/// What [`Service::handle_line`] tells the transport to do next.
#[derive(Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// Keep reading lines.
    Continue,
    /// A `shutdown` request was accepted: drain the service (e.g. via
    /// [`Service::shutdown`]), emit `result` for this id, then stop.
    Shutdown {
        /// The shutdown request's id, for the final `result` event.
        id: String,
    },
}

struct QueuedJob {
    request: Request,
    sink: Arc<dyn EventSink>,
}

/// Mutable queue state, all under one lock so the `queued`/`in_flight`
/// numbers in `status` are a consistent snapshot.
struct QueueState {
    jobs: VecDeque<QueuedJob>,
    in_flight: usize,
    shutting_down: bool,
}

struct JobState {
    cancel: AtomicBool,
}

struct Inner {
    config: ServiceConfig,
    cache: Mutex<SpecCache>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    drain_cv: Condvar,
    jobs: Mutex<HashMap<String, Arc<JobState>>>,
    metrics: Mutex<HashMap<Method, Histogram>>,
    /// Service-wide roll-up of every job's explorer counters and peak
    /// gauges (no spans — those stay per-job), read by the `metrics`
    /// method's exposition.
    obs: Recorder,
    started: Instant,
}

/// The verification service. Dropping it shuts it down gracefully
/// (drains queued jobs, joins the workers).
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Service {
    /// Starts a service with `config.workers` worker threads.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Service {
        let worker_count = config.workers.max(1);
        let inner = Arc::new(Inner {
            cache: Mutex::new(SpecCache::new(config.cache_capacity)),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                shutting_down: false,
            }),
            queue_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            metrics: Mutex::new(HashMap::new()),
            obs: Recorder::new(),
            started: Instant::now(),
            config,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("moccml-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("worker thread spawns")
            })
            .collect();
        Service {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Decodes and dispatches one request line, emitting all response
    /// events to `sink` (synchronously for `status`/`cancel`/rejects,
    /// from a worker thread for jobs).
    pub fn handle_line(&self, line: &str, sink: &Arc<dyn EventSink>) -> Dispatch {
        self.handle(line, sink).1
    }

    /// [`handle_line`](Service::handle_line), also returning the
    /// request's id (best effort for a line that does not decode).
    fn handle(&self, line: &str, sink: &Arc<dyn EventSink>) -> (String, Dispatch) {
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(message) => {
                // best-effort id so the client can correlate the error
                let id = Json::parse(line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_owned))
                    .unwrap_or_default();
                sink.emit(&protocol::error(&id, &message));
                return (id, Dispatch::Continue);
            }
        };
        let id = request.id.clone();
        let dispatch = match request.method {
            Method::Status => {
                sink.emit(&protocol::accepted(&request.id, Method::Status));
                sink.emit(&protocol::result(&request.id, self.status_json()));
                Dispatch::Continue
            }
            Method::Metrics => {
                sink.emit(&protocol::accepted(&request.id, Method::Metrics));
                sink.emit(&protocol::result(&request.id, self.metrics_json()));
                Dispatch::Continue
            }
            Method::Cancel => {
                sink.emit(&protocol::accepted(&request.id, Method::Cancel));
                let target = request.target.clone().unwrap_or_default();
                let found = match self.inner.jobs.lock().expect("jobs lock").get(&target) {
                    Some(state) => {
                        state.cancel.store(true, Ordering::Relaxed);
                        true
                    }
                    None => false,
                };
                let payload = Json::obj([
                    ("kind", Json::str("cancel")),
                    ("target", Json::str(&target)),
                    ("found", Json::Bool(found)),
                ]);
                sink.emit(&protocol::result(&request.id, payload));
                Dispatch::Continue
            }
            Method::Shutdown => {
                sink.emit(&protocol::accepted(&request.id, Method::Shutdown));
                self.begin_shutdown();
                Dispatch::Shutdown { id: request.id }
            }
            _ => {
                self.submit(request, sink);
                Dispatch::Continue
            }
        };
        (id, dispatch)
    }

    /// Enqueues a job request, emitting `accepted` or a rejection
    /// `error` (`queue full`, duplicate id, shutting down).
    fn submit(&self, request: Request, sink: &Arc<dyn EventSink>) {
        {
            let mut jobs = self.inner.jobs.lock().expect("jobs lock");
            if jobs.contains_key(&request.id) {
                sink.emit(&protocol::error(
                    &request.id,
                    &format!(
                        "duplicate id `{}`: a request with this id is in flight",
                        request.id
                    ),
                ));
                return;
            }
            let mut queue = self.inner.queue.lock().expect("queue lock");
            if queue.shutting_down {
                sink.emit(&protocol::error(&request.id, "service is shutting down"));
                return;
            }
            if queue.jobs.len() >= self.inner.config.queue_depth {
                sink.emit(&protocol::error(&request.id, "queue full"));
                return;
            }
            // registered before the job starts so cancel-before-start
            // is honoured at pickup
            jobs.insert(
                request.id.clone(),
                Arc::new(JobState {
                    cancel: AtomicBool::new(false),
                }),
            );
            sink.emit(&protocol::accepted(&request.id, request.method));
            queue.jobs.push_back(QueuedJob {
                request,
                sink: Arc::clone(sink),
            });
        }
        self.inner.queue_cv.notify_one();
    }

    /// Convenience for tests, benches and the CLI: dispatches `line`
    /// with a fresh [`CollectingSink`], blocks until the terminal
    /// event, and returns every event emitted for it.
    #[must_use]
    pub fn call(&self, line: &str) -> Vec<Json> {
        let sink = Arc::new(CollectingSink::default());
        let dyn_sink: Arc<dyn EventSink> = Arc::clone(&sink) as Arc<dyn EventSink>;
        match self.handle(line, &dyn_sink) {
            (id, Dispatch::Continue) => sink.wait_terminal(&id, Duration::from_secs(600)),
            (id, Dispatch::Shutdown { .. }) => {
                self.shutdown();
                dyn_sink.emit(&protocol::result(
                    &id,
                    Json::obj([("kind", Json::str("shutdown"))]),
                ));
                sink.events()
            }
        }
    }

    /// Marks the service as shutting down: no new jobs are accepted,
    /// idle workers exit once the queue drains.
    pub fn begin_shutdown(&self) {
        self.inner.queue.lock().expect("queue lock").shutting_down = true;
        self.inner.queue_cv.notify_all();
    }

    /// Graceful shutdown: stops intake, waits for queued and in-flight
    /// jobs to finish, and joins the worker threads. Idempotent.
    ///
    /// A worker emits a job's terminal event just after the job leaves
    /// `in_flight`, so only the join proves it went out: every caller
    /// returns after the join, the workers' lock held throughout, so a
    /// concurrent second caller waits for it too.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        {
            let mut queue = self.inner.queue.lock().expect("queue lock");
            while !queue.jobs.is_empty() || queue.in_flight > 0 {
                queue = self.inner.drain_cv.wait(queue).expect("queue lock");
            }
        }
        let mut workers = self.workers.lock().expect("workers lock");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// The `status` result payload.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let cache = self.inner.cache.lock().expect("cache lock").stats();
        let (queued, in_flight) = {
            let queue = self.inner.queue.lock().expect("queue lock");
            (queue.jobs.len(), queue.in_flight)
        };
        let metrics = self.inner.metrics.lock().expect("metrics lock");
        let methods = JOB_METHODS
            .iter()
            .filter_map(|m| metrics.get(m).map(|h| (m, h)))
            .map(|(m, h)| {
                Json::obj([
                    ("method", Json::str(m.name())),
                    ("count", Json::int(h.count())),
                    ("mean_us", Json::int(h.mean_us())),
                    ("p50_us", Json::int(h.quantile_us(0.5))),
                    ("p95_us", Json::int(h.quantile_us(0.95))),
                    ("max_us", Json::int(h.max_us())),
                ])
            })
            .collect();
        Json::obj([
            ("kind", Json::str("status")),
            (
                "uptime_ms",
                Json::int(self.inner.started.elapsed().as_millis()),
            ),
            ("cache", cache_json(&cache)),
            (
                "queue",
                Json::obj([
                    ("queued", Json::int(queued)),
                    ("capacity", Json::int(self.inner.config.queue_depth)),
                    ("in_flight", Json::int(in_flight)),
                ]),
            ),
            ("methods", Json::Arr(methods)),
        ])
    }

    /// The combined explorer/cache/queue/latency view as Prometheus
    /// text exposition (format 0.0.4) — what the `metrics` method
    /// wraps. Every line passes [`moccml_obs::expose::validate`].
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let cache = self.inner.cache.lock().expect("cache lock").stats();
        let (queued, in_flight) = {
            let queue = self.inner.queue.lock().expect("queue lock");
            (queue.jobs.len(), queue.in_flight)
        };
        let histograms = self.inner.metrics.lock().expect("metrics lock");
        let methods: Vec<(Method, Histogram)> = JOB_METHODS
            .iter()
            .filter_map(|m| histograms.get(m).map(|h| (*m, h.clone())))
            .collect();
        drop(histograms);
        metrics::exposition(
            u64::try_from(self.inner.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            &cache,
            queued,
            in_flight,
            &methods,
            &self.inner.obs.snapshot(),
        )
    }

    /// The `metrics` result payload: the exposition text wrapped in
    /// one JSON member, so the event stream stays line-oriented.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str("metrics")),
            ("exposition", Json::Str(self.metrics_text())),
        ])
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn cache_json(stats: &CacheStats) -> Json {
    Json::obj([
        ("entries", Json::int(stats.entries)),
        ("capacity", Json::int(stats.capacity)),
        ("hits", Json::int(stats.hits)),
        ("misses", Json::int(stats.misses)),
        ("evictions", Json::int(stats.evictions)),
    ])
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    queue.in_flight += 1;
                    break job;
                }
                if queue.shutting_down {
                    return;
                }
                queue = inner.queue_cv.wait(queue).expect("queue lock");
            }
        };
        let started = Instant::now();
        let method = job.request.method;
        // a job that panics must still answer and release its worker:
        // otherwise `in_flight` stays raised, later jobs starve once the
        // pool is gone, and `shutdown` waits forever
        let run = AssertUnwindSafe(|| execute(inner, &job.request, &job.sink));
        let terminal = std::panic::catch_unwind(run).unwrap_or_else(|panic| {
            let message = panic_message(&*panic);
            protocol::error(&job.request.id, &format!("job panicked: {message}"))
        });
        // metrics, the id registry and `in_flight` settle *before* the
        // terminal event goes out, so a client that saw the result
        // observes the updated `status` and can immediately reuse the
        // id. `shutdown` still sees every terminal event out: it joins
        // this thread after `in_flight` drains
        inner
            .metrics
            .lock()
            .expect("metrics lock")
            .entry(method)
            .or_default()
            .record(started.elapsed());
        inner
            .jobs
            .lock()
            .expect("jobs lock")
            .remove(&job.request.id);
        inner.queue.lock().expect("queue lock").in_flight -= 1;
        inner.drain_cv.notify_all();
        job.sink.emit(&terminal);
    }
}

/// The text a panic carried: what `panic!` formatted, or a stand-in for
/// a payload of another type.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-text panic payload")
}

/// Runs one job and returns its terminal event (`result`, `error` or
/// `cancelled`); the caller emits it after settling metrics and the id
/// registry. Progress events are emitted directly to `sink`.
fn execute(inner: &Arc<Inner>, request: &Request, sink: &Arc<dyn EventSink>) -> Json {
    let id = &request.id;
    let state = inner
        .jobs
        .lock()
        .expect("jobs lock")
        .get(id)
        .cloned()
        .expect("job state registered at submit");
    if state.cancel.load(Ordering::Relaxed) {
        return protocol::cancelled(id);
    }
    let config = &inner.config;
    let command = match Command::from_request(request, config) {
        Ok(command) => command,
        Err(message) => return protocol::error(id, &message),
    };
    // per-job recorder: spans summarize onto this job's result
    // envelope, counters roll up into the service-wide exposition, and
    // the explorer's live gauges feed `progress` events (never the
    // byte-compared result payload); observationally inert either way
    let job_obs = Recorder::new();
    let timeout = Duration::from_millis(
        request
            .options
            .timeout_ms
            .unwrap_or(config.default_timeout_ms)
            .min(config.max_timeout_ms),
    );
    let deadline = Instant::now() + timeout;
    let throttle = Duration::from_millis(config.progress_interval_ms);
    // shared by the explorer's and the sampler's hooks (the sampler's
    // runs on its worker threads): the terminal event of a job stopped
    // early, and whether a progress event is due
    let stopped = OnceLock::new();
    let stop = || {
        let event = if state.cancel.load(Ordering::Relaxed) {
            protocol::cancelled(id)
        } else if Instant::now() >= deadline {
            protocol::error(id, &format!("timed out after {}ms", timeout.as_millis()))
        } else {
            return false;
        };
        let _ = stopped.set(event);
        true
    };
    let last_emit: Mutex<Option<Instant>> = Mutex::new(None);
    let due = || {
        let mut last = last_emit.lock().expect("throttle lock");
        let due = last.is_none_or(|t| t.elapsed() >= throttle);
        if due {
            *last = Some(Instant::now());
        }
        due
    };
    let mut progress = |_: usize, _: usize, _: usize| {
        if stop() {
            return VisitControl::Stop;
        }
        if due() {
            sink.emit(&protocol::progress(id, &job_obs.snapshot()));
        }
        VisitControl::Continue
    };
    let smc_stop = AtomicBool::new(false);
    let on_smc_progress = |p: &moccml_smc::SmcProgress| {
        if stop() {
            smc_stop.store(true, Ordering::Relaxed);
        }
        if due() {
            sink.emit(&protocol::smc_progress(
                id,
                p.traces,
                p.violations,
                p.planned,
            ));
        }
    };
    let run = moccml_smc::SmcRun {
        recorder: &job_obs,
        progress: Some(&on_smc_progress),
        cancel: Some(&smc_stop),
    };
    let mut compile = |source: &str| {
        let mut cache = inner.cache.lock().expect("cache lock");
        cache
            .get_or_compile(source)
            .map(|(compiled, _hit)| compiled)
    };
    let outcome = ops::execute(command, &mut compile, &run, &mut progress);
    let snap = job_obs.snapshot();
    // settle the roll-up before the terminal event goes out, so a
    // client that saw the result observes its job in `metrics`
    for (name, value) in &snap.counters {
        inner.obs.counter(name).add(*value);
    }
    for (name, value) in &snap.gauges {
        inner.obs.gauge(name).raise(*value);
    }
    match (stopped.into_inner(), outcome) {
        (Some(event), _) => event,
        (None, Ok(outcome)) => {
            protocol::with_spans(protocol::result(id, outcome.to_json()), &snap.spans)
        }
        (None, Err(message)) => protocol::error(id, &message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{OnceLock, Weak};

    const ALT: &str = "spec alt {\n  events a, b;\n  constraint alt = alternates(a, b);\n  assert never((a && b));\n  assert never(b);\n}\n";

    fn request(id: &str, method: &str, spec: &str) -> String {
        Json::obj([
            ("id", Json::str(id)),
            ("method", Json::str(method)),
            ("spec", Json::str(spec)),
        ])
        .to_line()
    }

    fn terminal(events: &[Json], id: &str) -> Json {
        events
            .iter()
            .find(|e| is_terminal_for(e, id))
            .unwrap_or_else(|| panic!("no terminal event for {id}: {events:?}"))
            .clone()
    }

    #[test]
    fn check_job_streams_accepted_then_result() {
        let service = Service::new(ServiceConfig::default());
        let events = service.call(&request("r1", "check", ALT));
        assert_eq!(
            events[0].get("event").and_then(Json::as_str),
            Some("accepted")
        );
        let result = terminal(&events, "r1");
        assert_eq!(result.get("event").and_then(Json::as_str), Some("result"));
        let payload = result.get("result").expect("payload");
        assert_eq!(payload.get("kind").and_then(Json::as_str), Some("check"));
        assert_eq!(payload.get("violated").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn smc_job_estimates_with_progress_and_rejects_bad_knobs() {
        let service = Service::new(ServiceConfig {
            progress_interval_ms: 0,
            ..ServiceConfig::default()
        });
        let line = r#"{"id":"s1","method":"smc","spec":SPEC,"epsilon":0.1,"seed":7}"#
            .replace("SPEC", &Json::str(ALT).to_line());
        let events = service.call(&line);
        let result = terminal(&events, "s1");
        assert_eq!(result.get("event").and_then(Json::as_str), Some("result"));
        let payload = result.get("result").expect("payload");
        assert_eq!(payload.get("kind").and_then(Json::as_str), Some("smc"));
        assert_eq!(payload.get("violated").and_then(Json::as_bool), Some(true));
        // the aggregator's final checkpoint always emits a progress event
        assert!(
            events.iter().any(|e| {
                e.get("event").and_then(Json::as_str) == Some("progress")
                    && e.get("traces").is_some()
            }),
            "{events:?}"
        );
        // out-of-range knobs become a protocol error, not a panic
        let bad = r#"{"id":"s2","method":"smc","spec":SPEC,"epsilon":7.0}"#
            .replace("SPEC", &Json::str(ALT).to_line());
        let events = service.call(&bad);
        let e = terminal(&events, "s2");
        assert!(
            e.get("error")
                .and_then(Json::as_str)
                .expect("msg")
                .contains("epsilon"),
            "{e:?}"
        );
        // the smc latency histogram lands in status under its own name
        let events = service.call(r#"{"id":"st","method":"status"}"#);
        let payload = terminal(&events, "st")
            .get("result")
            .cloned()
            .expect("payload");
        let methods = payload
            .get("methods")
            .and_then(Json::as_arr)
            .expect("methods");
        assert!(
            methods
                .iter()
                .any(|m| m.get("method").and_then(Json::as_str) == Some("smc")),
            "{methods:?}"
        );
    }

    #[test]
    fn status_reports_cache_hits_and_latencies() {
        let service = Service::new(ServiceConfig::default());
        let _ = service.call(&request("r1", "explore", ALT));
        let _ = service.call(&request("r2", "explore", ALT));
        let events = service.call(r#"{"id":"s1","method":"status"}"#);
        let payload = terminal(&events, "s1")
            .get("result")
            .cloned()
            .expect("payload");
        let cache = payload.get("cache").expect("cache");
        assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1));
        let methods = payload
            .get("methods")
            .and_then(Json::as_arr)
            .expect("methods");
        assert_eq!(methods.len(), 1);
        assert_eq!(
            methods[0].get("method").and_then(Json::as_str),
            Some("explore")
        );
        assert_eq!(methods[0].get("count").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn metrics_exposition_covers_explorer_cache_and_latency() {
        let service = Service::new(ServiceConfig::default());
        let _ = service.call(&request("r1", "check", ALT));
        let events = service.call(r#"{"id":"m1","method":"metrics"}"#);
        let payload = terminal(&events, "m1")
            .get("result")
            .cloned()
            .expect("payload");
        assert_eq!(payload.get("kind").and_then(Json::as_str), Some("metrics"));
        let text = payload
            .get("exposition")
            .and_then(Json::as_str)
            .expect("exposition text")
            .to_owned();
        moccml_obs::expose::validate(&text).expect("valid exposition");
        assert!(
            text.contains("moccml_requests_total{method=\"check\"} 1"),
            "{text}"
        );
        assert!(text.contains("moccml_cache_misses_total 1"), "{text}");
        let expansions = text
            .lines()
            .find_map(|l| l.strip_prefix("moccml_explore_expansions_total "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("expansions sample");
        assert!(expansions > 0, "job counters rolled up: {text}");
    }

    #[test]
    fn result_envelopes_carry_span_summaries_outside_the_payload() {
        let service = Service::new(ServiceConfig::default());
        let events = service.call(&request("r1", "check", ALT));
        let result = terminal(&events, "r1");
        let spans = result
            .get("spans")
            .and_then(Json::as_arr)
            .expect("span summary on the envelope");
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"check"), "{names:?}");
        assert!(names.contains(&"explore"), "{names:?}");
        // the byte-compared payload stays free of timing data
        assert!(result
            .get("result")
            .expect("payload")
            .get("spans")
            .is_none());
    }

    #[test]
    fn malformed_and_invalid_requests_are_rejected() {
        let service = Service::new(ServiceConfig::default());
        let events = service.call("not json at all");
        assert_eq!(events[0].get("event").and_then(Json::as_str), Some("error"));
        let events = service.call(r#"{"id":"x","method":"check"}"#);
        let e = terminal(&events, "x");
        assert!(
            e.get("error")
                .and_then(Json::as_str)
                .expect("msg")
                .contains("spec"),
            "{e:?}"
        );
        let events = service.call(&request("b1", "check", "spec broken {"));
        let e = terminal(&events, "b1");
        assert!(
            e.get("error")
                .and_then(Json::as_str)
                .expect("msg")
                .contains("spec:"),
            "compile errors carry line:column: {e:?}"
        );
        // wrongly typed or negative knobs are errors naming the field,
        // never a silent fall-back to the default
        for (id, knob, field) in [
            ("t1", r#""steps":"4""#, "steps"),
            ("t2", r#""workers":-3"#, "workers"),
        ] {
            let line = format!(
                r#"{{"id":"{id}","method":"simulate","spec":{},{knob}}}"#,
                Json::str(ALT).to_line()
            );
            let e = terminal(&service.call(&line), id);
            assert_eq!(
                e.get("event").and_then(Json::as_str),
                Some("error"),
                "{e:?}"
            );
            assert!(
                e.get("error")
                    .and_then(Json::as_str)
                    .expect("msg")
                    .contains(field),
                "{e:?}"
            );
        }
    }

    #[test]
    fn timeout_budget_interrupts_a_long_job() {
        let service = Service::new(ServiceConfig::default());
        // two chained unbounded precedences: the space is astronomically
        // large, so only the deadline can end an unbounded exploration
        let big = "spec big {\n  events a, b, c;\n  constraint c1 = precedes(a, b);\n  constraint c2 = precedes(b, c);\n}\n";
        let line =
            r#"{"id":"t1","method":"explore","spec":SPEC,"timeout_ms":50,"max_states":100000000}"#
                .replace("SPEC", &Json::str(big).to_line());
        let events = service.call(&line);
        let e = terminal(&events, "t1");
        assert_eq!(e.get("event").and_then(Json::as_str), Some("error"));
        assert!(
            e.get("error")
                .and_then(Json::as_str)
                .expect("msg")
                .contains("timed out"),
            "{e:?}"
        );
        // the worker survives: the next job runs normally
        let events = service.call(&request("t2", "explore", ALT));
        assert_eq!(
            terminal(&events, "t2").get("event").and_then(Json::as_str),
            Some("result")
        );
    }

    #[test]
    fn cancel_stops_a_running_job_without_poisoning_the_pool() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            progress_interval_ms: 0,
            ..ServiceConfig::default()
        });
        let big = "spec big {\n  events a, b, c;\n  constraint c1 = precedes(a, b);\n  constraint c2 = precedes(b, c);\n}\n";
        let sink = Arc::new(CollectingSink::default());
        let dyn_sink: Arc<dyn EventSink> = Arc::clone(&sink) as Arc<dyn EventSink>;
        let line = r#"{"id":"c1","method":"explore","spec":SPEC,"timeout_ms":60000,"max_states":100000000}"#
            .replace("SPEC", &Json::str(big).to_line());
        assert_eq!(service.handle_line(&line, &dyn_sink), Dispatch::Continue);
        // wait until the job demonstrably runs (first progress event)
        let deadline = Instant::now() + Duration::from_secs(30);
        while !sink
            .events()
            .iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("progress"))
        {
            assert!(Instant::now() < deadline, "job never progressed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let cancel_events = service.call(r#"{"id":"k1","method":"cancel","target":"c1"}"#);
        let cancel_result = terminal(&cancel_events, "k1");
        assert_eq!(
            cancel_result
                .get("result")
                .and_then(|r| r.get("found"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let events = sink.wait_terminal("c1", Duration::from_secs(30));
        let e = terminal(&events, "c1");
        assert_eq!(
            e.get("event").and_then(Json::as_str),
            Some("cancelled"),
            "a cancelled job never reports a verdict"
        );
        // the single worker is healthy afterwards
        let events = service.call(&request("c2", "check", ALT));
        assert_eq!(
            terminal(&events, "c2").get("event").and_then(Json::as_str),
            Some("result")
        );
    }

    #[test]
    fn cancel_before_start_and_unknown_targets() {
        // zero progress interval + 1 worker: occupy the worker, then
        // queue a second job and cancel it before it starts
        let service = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let big = "spec big {\n  events a, b, c;\n  constraint c1 = precedes(a, b);\n  constraint c2 = precedes(b, c);\n}\n";
        let sink = Arc::new(CollectingSink::default());
        let dyn_sink: Arc<dyn EventSink> = Arc::clone(&sink) as Arc<dyn EventSink>;
        let slow =
            r#"{"id":"s","method":"explore","spec":SPEC,"timeout_ms":10000,"max_states":10000000}"#
                .replace("SPEC", &Json::str(big).to_line());
        let _ = service.handle_line(&slow, &dyn_sink);
        let _ = service.handle_line(&request("q", "check", ALT), &dyn_sink);
        let cancel_events = service.call(r#"{"id":"k","method":"cancel","target":"q"}"#);
        assert_eq!(
            terminal(&cancel_events, "k")
                .get("result")
                .and_then(|r| r.get("found"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let events = sink.wait_terminal("q", Duration::from_secs(60));
        assert_eq!(
            terminal(&events, "q").get("event").and_then(Json::as_str),
            Some("cancelled")
        );
        // unblock the slow job so Drop's shutdown is quick
        let _ = service.call(r#"{"id":"k2","method":"cancel","target":"s"}"#);
        let _ = sink.wait_terminal("s", Duration::from_secs(60));
        let not_found = service.call(r#"{"id":"k3","method":"cancel","target":"nope"}"#);
        assert_eq!(
            terminal(&not_found, "k3")
                .get("result")
                .and_then(|r| r.get("found"))
                .and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn duplicate_ids_and_shutdown_rejections() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let big = "spec big {\n  events a, b, c;\n  constraint c1 = precedes(a, b);\n  constraint c2 = precedes(b, c);\n}\n";
        let sink = Arc::new(CollectingSink::default());
        let dyn_sink: Arc<dyn EventSink> = Arc::clone(&sink) as Arc<dyn EventSink>;
        let slow = r#"{"id":"dup","method":"explore","spec":SPEC,"timeout_ms":10000,"max_states":10000000}"#
            .replace("SPEC", &Json::str(big).to_line());
        let _ = service.handle_line(&slow, &dyn_sink);
        let _ = service.handle_line(&slow, &dyn_sink);
        let dup_error = sink
            .events()
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("error"))
            .cloned()
            .expect("duplicate rejected");
        assert!(
            dup_error
                .get("error")
                .and_then(Json::as_str)
                .expect("msg")
                .contains("duplicate id"),
            "{dup_error:?}"
        );
        let _ = service.call(r#"{"id":"k","method":"cancel","target":"dup"}"#);
        let _ = sink.wait_terminal("dup", Duration::from_secs(60));
        service.begin_shutdown();
        let events = service.call(&request("late", "check", ALT));
        assert!(terminal(&events, "late")
            .get("error")
            .and_then(Json::as_str)
            .expect("msg")
            .contains("shutting down"));
        service.shutdown();
    }

    /// Panics on every `progress` event, as a buggy job path would, and
    /// collects every other event.
    struct PanicOnProgress(CollectingSink);

    impl EventSink for PanicOnProgress {
        fn emit(&self, event: &Json) {
            let kind = event.get("event").and_then(Json::as_str);
            assert_ne!(kind, Some("progress"), "sink failure");
            self.0.emit(event);
        }
    }

    #[test]
    fn a_panicking_job_answers_an_error_and_keeps_the_daemon_serving() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            progress_interval_ms: 0,
            ..ServiceConfig::default()
        });
        // thousands of transitions: the first progress checkpoint comes
        // and the sink panics inside the explorer's replay
        let big = "spec big {\n  events a, b, c;\n  constraint c1 = precedes(a, b);\n  constraint c2 = precedes(b, c);\n}\n";
        let sink = Arc::new(PanicOnProgress(CollectingSink::default()));
        let dyn_sink: Arc<dyn EventSink> = Arc::clone(&sink) as Arc<dyn EventSink>;
        let line = r#"{"id":"p1","method":"explore","spec":SPEC,"max_states":100000}"#
            .replace("SPEC", &Json::str(big).to_line());
        assert_eq!(service.handle_line(&line, &dyn_sink), Dispatch::Continue);
        let events = sink.0.wait_terminal("p1", Duration::from_secs(60));
        let e = terminal(&events, "p1");
        assert_eq!(e.get("event").and_then(Json::as_str), Some("error"));
        let message = e.get("error").and_then(Json::as_str).expect("msg");
        assert!(message.contains("sink failure"), "{e:?}");
        // the job id and the worker are released: the id is free again,
        // the one worker still runs jobs, `status` answers, and
        // `shutdown`, which waits for every job in flight, drains
        let events = service.call(&request("p1", "check", ALT));
        assert_eq!(
            terminal(&events, "p1").get("event").and_then(Json::as_str),
            Some("result")
        );
        let status = service.call(r#"{"id":"s","method":"status"}"#);
        assert_eq!(
            terminal(&status, "s").get("event").and_then(Json::as_str),
            Some("result")
        );
        let events = service.call(r#"{"id":"bye","method":"shutdown"}"#);
        assert_eq!(
            terminal(&events, "bye").get("event").and_then(Json::as_str),
            Some("result")
        );
    }

    /// Asks the service for its `status` the moment a `result` goes
    /// out, before the client could, and keeps the replies.
    #[derive(Default)]
    struct StatusOnResult {
        service: OnceLock<Weak<Service>>,
        replies: Mutex<Vec<Json>>,
        sink: CollectingSink,
    }

    impl EventSink for StatusOnResult {
        fn emit(&self, event: &Json) {
            if event.get("event").and_then(Json::as_str) == Some("result") {
                let service = self.service.get().and_then(Weak::upgrade);
                let status = service.expect("service alive").status_json();
                self.replies.lock().expect("replies lock").push(status);
            }
            self.sink.emit(event);
        }
    }

    #[test]
    fn status_right_after_a_result_shows_the_job_settled() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let sink = Arc::new(StatusOnResult::default());
        let _ = sink.service.set(Arc::downgrade(&service));
        let dyn_sink: Arc<dyn EventSink> = Arc::clone(&sink) as Arc<dyn EventSink>;
        for id in ["r1", "r2", "r3"] {
            let line = request(id, "check", ALT);
            assert_eq!(service.handle_line(&line, &dyn_sink), Dispatch::Continue);
            let events = sink.sink.wait_terminal(id, Duration::from_secs(60));
            let result = terminal(&events, id);
            assert_eq!(result.get("event").and_then(Json::as_str), Some("result"));
        }
        let replies = sink.replies.lock().expect("replies lock").clone();
        assert_eq!(replies.len(), 3);
        for status in &replies {
            let queue = status.get("queue").expect("queue");
            assert_eq!(
                queue.get("in_flight").and_then(Json::as_i64),
                Some(0),
                "{status:?}"
            );
        }
    }

    #[test]
    fn shutdown_via_protocol_drains_and_reports() {
        let service = Service::new(ServiceConfig::default());
        let _ = service.call(&request("r1", "explore", ALT));
        let events = service.call(r#"{"id":"bye","method":"shutdown"}"#);
        let result = terminal(&events, "bye");
        assert_eq!(
            result
                .get("result")
                .and_then(|r| r.get("kind"))
                .and_then(Json::as_str),
            Some("shutdown")
        );
    }
}
