//! Service metrics: the shared log₂ latency [`Histogram`] keyed by
//! method, and the Prometheus-style text exposition the `metrics`
//! protocol method returns.
//!
//! The histogram type itself lives in [`moccml_obs`] (it moved there
//! so the daemon, the explorer benches and the CLI share one bucketing
//! scheme); this module re-exports it — same power-of-two microsecond
//! buckets, same cumulative quantile walk — so the `status` payload is
//! byte-compatible with the pre-move output.

pub use moccml_obs::Histogram;

use crate::cache::CacheStats;
use crate::protocol::Method;
use moccml_obs::{Exposition, Snapshot};

/// Per-worker explorer counters rolled up across workers and jobs:
/// `(snapshot prefix, metric name, help)`.
const EXPLORER_COUNTERS: &[(&str, &str, &str)] = &[
    (
        "explore_expansions_w",
        "moccml_explore_expansions_total",
        "States expanded by the explorer, summed over workers and jobs.",
    ),
    (
        "cursor_memo_hits",
        "moccml_cursor_memo_hits_total",
        "Cursor moves to a local state the cursor had already met.",
    ),
    (
        "cursor_memo_misses",
        "moccml_cursor_memo_misses_total",
        "Cursor moves to a local state new to the cursor (program table consulted).",
    ),
    (
        "cursor_join_hits",
        "moccml_cursor_join_hits_total",
        "Expansions that found a component's mask join memoized.",
    ),
    (
        "cursor_join_misses",
        "moccml_cursor_join_misses_total",
        "Expansions that joined a component's masks for a new class tuple.",
    ),
];

/// Peak-valued explorer gauges: `(snapshot name, metric name, help)`.
const EXPLORER_GAUGES: &[(&str, &str, &str)] = &[
    (
        "explore_states",
        "moccml_explore_states_peak",
        "Largest state count any single job explored.",
    ),
    (
        "explore_transitions",
        "moccml_explore_transitions_peak",
        "Largest transition count any single job explored.",
    ),
    (
        "explore_interner_keys",
        "moccml_explore_interner_keys_peak",
        "Peak interned state count across jobs.",
    ),
    (
        "explore_workers",
        "moccml_explore_workers_peak",
        "Largest worker count any job explored with.",
    ),
    (
        "program_join_classes",
        "moccml_program_join_classes_peak",
        "Largest join memo (class tuples) of any explored program.",
    ),
];

/// Renders the combined explorer/cache/queue/latency view as one
/// Prometheus text exposition (format 0.0.4). `methods` are the
/// completed-job latency histograms in a fixed order; `explorer` is
/// the service-wide roll-up of every job's explorer counters.
#[must_use]
pub fn exposition(
    uptime_ms: u64,
    cache: &CacheStats,
    queued: usize,
    in_flight: usize,
    methods: &[(Method, Histogram)],
    explorer: &Snapshot,
) -> String {
    let mut exp = Exposition::new();
    #[allow(clippy::cast_precision_loss)]
    exp.gauge(
        "moccml_uptime_ms",
        "Milliseconds since the service started.",
        &[],
        uptime_ms as f64,
    );
    exp.counter(
        "moccml_cache_hits_total",
        "Compiled-spec cache hits.",
        &[],
        cache.hits,
    );
    exp.counter(
        "moccml_cache_misses_total",
        "Compiled-spec cache misses (compilations).",
        &[],
        cache.misses,
    );
    exp.counter(
        "moccml_cache_evictions_total",
        "Compiled specs evicted from the LRU cache.",
        &[],
        cache.evictions,
    );
    #[allow(clippy::cast_precision_loss)]
    {
        exp.gauge(
            "moccml_cache_entries",
            "Compiled specs currently cached.",
            &[],
            cache.entries as f64,
        );
        exp.gauge(
            "moccml_queue_depth",
            "Jobs queued but not yet running.",
            &[],
            queued as f64,
        );
        exp.gauge(
            "moccml_jobs_in_flight",
            "Jobs currently running on the worker pool.",
            &[],
            in_flight as f64,
        );
    }
    for (method, h) in methods {
        let label = [("method", method.name())];
        exp.counter(
            "moccml_requests_total",
            "Completed jobs per method.",
            &label,
            h.count(),
        );
        exp.histogram(
            "moccml_request_duration_us",
            "Job wall-clock latency in microseconds.",
            &label,
            h,
        );
    }
    for (prefix, name, help) in EXPLORER_COUNTERS {
        exp.counter(name, help, &[], explorer.counter_sum(prefix));
    }
    #[allow(clippy::cast_precision_loss)]
    for (gauge, name, help) in EXPLORER_GAUGES {
        exp.gauge(name, help, &[], explorer.gauge(gauge).unwrap_or(0) as f64);
    }
    exp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn status_compatible_histogram_surface() {
        // the re-exported type answers exactly what status_json reads
        let mut h = Histogram::default();
        for us in [100u64, 100, 50_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean_us(), (100 + 100 + 50_000) / 3);
        assert!(h.quantile_us(0.5) < h.quantile_us(1.0));
        assert_eq!(h.max_us(), 50_000);
    }

    #[test]
    fn exposition_covers_every_section_and_validates() {
        let cache = CacheStats {
            entries: 2,
            capacity: 32,
            hits: 5,
            misses: 3,
            evictions: 1,
        };
        let mut h = Histogram::default();
        h.record(Duration::from_micros(250));
        let obs = moccml_obs::Recorder::new();
        obs.counter("explore_expansions_w0").add(40);
        obs.counter("explore_expansions_w1").add(60);
        obs.gauge("explore_states").raise(100);
        let text = exposition(1234, &cache, 1, 2, &[(Method::Check, h)], &obs.snapshot());
        moccml_obs::expose::validate(&text).expect("well-formed exposition");
        assert!(text.contains("moccml_cache_hits_total 5"), "{text}");
        assert!(text.contains("moccml_queue_depth 1"), "{text}");
        assert!(text.contains("moccml_jobs_in_flight 2"), "{text}");
        assert!(
            text.contains("moccml_requests_total{method=\"check\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("moccml_request_duration_us_count{method=\"check\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("moccml_explore_expansions_total 100"),
            "workers roll up: {text}"
        );
        assert!(text.contains("moccml_explore_states_peak 100"), "{text}");
    }
}
