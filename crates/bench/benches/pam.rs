//! E6 bench target — the PAM study: exploration and simulation cost of
//! the infinite-resource model and the three deployments, plus the
//! serial-vs-parallel exploration pair on the largest deployment
//! state-space.
//!
//! The serial/parallel comparability is *asserted* in-bench (see
//! [`assert_comparable`]), not claimed in prose: on a ≥4-core host the
//! parallel median must not exceed the serial median for any
//! configuration, or the run fails.
//!
//! Runs on the in-repo `Instant`-based harness (criterion is not
//! fetchable offline); emits `BENCH_pam.json` at the workspace root.

use moccml_bench::experiments::e6_configs;
use moccml_bench::harness::BenchGroup;
use moccml_bench::report::BenchRecord;
use moccml_engine::{Engine, ExploreOptions, Program, SafeMaxParallel};
use std::hint::black_box;

fn main() {
    let configs = e6_configs();
    let mut group = BenchGroup::new("pam").with_iters(10);
    for (name, spec) in &configs {
        group.bench(&format!("exploration/{name}"), || {
            Program::compile(black_box(spec)).explore(&ExploreOptions::default())
        });
    }
    for (name, spec) in &configs {
        group.bench(&format!("simulation_30_steps/{name}"), || {
            let mut sim = Engine::builder(spec.clone())
                .policy(SafeMaxParallel)
                .build();
            black_box(sim.run(30))
        });
    }
    // The serial/parallel explorer pair: one shared program per
    // configuration (same warmed local-state tables for both sides), only
    // the worker count differs, and the resulting StateSpaces are
    // byte-identical. The quad-core deployment has the largest
    // reachable space of the four configurations.
    for (name, spec) in &configs {
        let program = Program::compile(spec);
        let serial = program.explore(&ExploreOptions::default().with_workers(1));
        let parallel = program.explore(&ExploreOptions::default().with_workers(4));
        assert!(
            serial == parallel,
            "{name}: parallel exploration diverged from the serial StateSpace"
        );
        group.bench(&format!("explore_serial/{name}"), || {
            black_box(&program).explore(&ExploreOptions::default().with_workers(1))
        });
        group.bench(&format!("explore_parallel/{name}"), || {
            black_box(&program).explore(&ExploreOptions::default().with_workers(4))
        });
    }
    let records = group.finish();
    for (name, _) in &configs {
        assert_comparable(&records, name);
    }
}

/// The in-bench comparability assertion (replaces the old prose
/// footnote): on a ≥4-core host the 4-worker median must not exceed
/// the serial median; on smaller hosts — where oversubscribed worker
/// threads cannot pay for themselves — the assertion degrades to a
/// bounded-overhead check (parallel ≤ 2 × serial) with a printed note.
fn assert_comparable(records: &[BenchRecord], config: &str) {
    let median = |prefix: &str| {
        records
            .iter()
            .find(|r| r.name == format!("{prefix}/{config}"))
            .unwrap_or_else(|| panic!("record {prefix}/{config} measured"))
            .median_ns
    };
    let serial = median("explore_serial");
    let parallel = median("explore_parallel");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores >= 4 {
        assert!(
            parallel <= serial,
            "{config}: on a {cores}-core host the parallel median \
             ({parallel} ns) must not exceed the serial median ({serial} ns)"
        );
    } else {
        assert!(
            parallel <= serial.saturating_mul(2),
            "{config}: even on a {cores}-core host, parallel overhead must \
             stay bounded: {parallel} ns vs serial {serial} ns"
        );
        println!(
            "note: host has {cores} core(s) — asserted bounded overhead \
             (≤ 2× serial) for `{config}` instead of the ≥4-core strict \
             comparison"
        );
    }
}
