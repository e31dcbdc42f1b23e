//! E9 — explorer scaling on the drift-cube workload: one exploration
//! of the three-bounded-precedences-under-exclusion specification
//! ([`e9_scale_spec`]) per requested worker count, with states/sec
//! throughput and a determinism check (every worker count must build
//! the identical `StateSpace` as the serial run).
//!
//! The full workload (bound 46 → 103,823 states) is what
//! `BENCH_explore_scale.json` measures; this binary is the
//! CI-smokeable single-shot version — bounded runs stay fast:
//!
//! ```text
//! exp_e9_explore_scale --workers 2 --max-states 20000
//! ```
//!
//! Flags:
//!
//! * `--workers N` — highest worker count to run (default 4; every
//!   power of two up to `N` is run, always including the serial
//!   baseline);
//! * `--max-states N` — exploration bound (default 150 000: the full
//!   cube, untruncated);
//! * `--bound N` — drift bound per precedence pair (default 46; the
//!   reachable space is `(N + 1)³`).

use moccml_bench::experiments::{e9_scale_spec, parse_flag, table_header, table_row};
use moccml_engine::{ExploreOptions, Program, StateSpace};
use moccml_obs::Recorder;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bound = parse_flag(&args, "--bound").unwrap_or(46) as u64;
    let max_states = parse_flag(&args, "--max-states").unwrap_or(150_000);
    let max_workers = parse_flag(&args, "--workers").unwrap_or(4).max(1);
    let mut worker_counts = vec![1];
    while *worker_counts.last().expect("non-empty") * 2 <= max_workers {
        worker_counts.push(worker_counts.last().expect("non-empty") * 2);
    }
    if *worker_counts.last().expect("non-empty") != max_workers {
        worker_counts.push(max_workers);
    }

    let (spec, expected) = e9_scale_spec(bound);
    let program = Program::compile(&spec);
    let base = ExploreOptions::default().with_max_states(max_states);

    println!("# E9 — explorer scaling on the drift cube");
    println!();
    println!(
        "(bound {bound} → {expected} reachable states; exploring up to \
         {max_states} states)"
    );
    println!();
    table_header(&[
        "workers",
        "states",
        "transitions",
        "truncated",
        "wall-clock",
        "states/sec",
        "identical to serial",
    ]);

    let mut serial: Option<StateSpace> = None;
    for &workers in &worker_counts {
        // throughput comes from the explorer's gauges, whose clock
        // stops at the exploration's terminal record — the outer
        // wall-clock (printed alongside) also pays for pool teardown and
        // arena moves, which used to deflate the states/sec figure at
        // high worker counts
        let recorder = Recorder::new();
        let start = Instant::now();
        let space = program.explore(&base.clone().with_workers(workers).with_recorder(&recorder));
        let elapsed = start.elapsed();
        let identical = serial.as_ref().is_none_or(|s| *s == space);
        let gauges = recorder.snapshot();
        let explored_us = gauges.gauge("explore_elapsed_us").unwrap_or(0);
        let states = gauges.gauge("explore_states").unwrap_or(0);
        let rate = if explored_us == 0 {
            0.0
        } else {
            states as f64 * 1e6 / explored_us as f64
        };
        table_row(&[
            workers.to_string(),
            space.state_count().to_string(),
            space.transition_count().to_string(),
            space.truncated().to_string(),
            format!("{:.3} s", elapsed.as_secs_f64()),
            format!("{rate:.0}"),
            identical.to_string(),
        ]);
        assert!(
            identical,
            "workers={workers} diverged from the serial StateSpace — \
             the canonical-replay determinism contract is broken"
        );
        serial.get_or_insert(space);
    }

    println!();
    println!("Every row must be identical to the serial baseline: worker");
    println!("threads only change who expands a frontier state, never the");
    println!("order in which discoveries are absorbed.");
}
