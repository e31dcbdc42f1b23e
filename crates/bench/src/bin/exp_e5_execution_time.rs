//! E5 — Sec. III-A item 3: execution time.
//!
//! `stop` occurs at the N-th `isExecuting` after `start`; sweeping `N`
//! stretches activations over more steps without changing the dataflow
//! order. Reports throughput (consumer activations per step) for a
//! producer/consumer pair as N grows.

use moccml_bench::experiments::{e5_graph, table_header, table_row};
use moccml_engine::{Engine, ExploreOptions, Program, SafeMaxParallel};
use moccml_sdf::mocc::build_specification;

fn main() {
    println!("# E5 — execution time N stretches schedules");
    println!();
    table_header(&["N", "states", "cons activations / 30 steps", "throughput"]);
    for n in [0u32, 1, 2, 4] {
        let g = e5_graph(n);
        let spec = build_specification(&g).expect("builds");
        let states = Program::compile(&spec)
            .explore(&ExploreOptions::default())
            .state_count();
        let mut sim = Engine::builder(spec).policy(SafeMaxParallel).build();
        let report = sim.run(30);
        assert!(!report.deadlocked, "N={n} must not deadlock");
        let u = sim.specification().universe();
        let fired = report
            .schedule
            .occurrences(u.lookup("cons.start").expect("event"));
        table_row(&[
            n.to_string(),
            states.to_string(),
            fired.to_string(),
            format!("{:.3}", fired as f64 / 30.0),
        ]);
    }
    println!();
    println!("Expected shape: throughput decreases roughly as 1/(N+1);");
    println!("state count grows with N (the Busy counter).");
}
