//! Exhaustive exploration in depth: state-space construction, deadlock
//! detection, schedule counting and the effect of buffer sizing on an
//! SDF ring.
//!
//! Run with: `cargo run -p moccml-bench --example exploration`

use moccml_engine::{ExploreOptions, Program};
use moccml_sdf::mocc::build_specification;
use moccml_sdf::SdfGraph;

fn ring(capacity: u32, delay: u32) -> SdfGraph {
    let mut g = SdfGraph::new("ring");
    g.add_agent("a", 0).expect("fresh graph");
    g.add_agent("b", 0).expect("fresh graph");
    g.connect("a", "b", 1, 1, capacity, 0).expect("valid place");
    g.connect("b", "a", 1, 1, capacity, delay)
        .expect("valid place");
    g
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("SDF ring a⇄b: effect of the return-place delay\n");
    println!(
        "{:<24} {:>7} {:>12} {:>10} {:>16}",
        "configuration", "states", "transitions", "deadlocks", "schedules(len 8)"
    );
    for (label, capacity, delay) in [
        ("cap 1, delay 0 (dead)", 1u32, 0u32),
        ("cap 1, delay 1", 1, 1),
        ("cap 2, delay 1", 2, 1),
        ("cap 2, delay 2", 2, 2),
    ] {
        let spec = build_specification(&ring(capacity, delay))?;
        let space = Program::new(spec).explore(&ExploreOptions::default());
        println!(
            "{label:<24} {:>7} {:>12} {:>10} {:>16}",
            space.state_count(),
            space.transition_count(),
            space.deadlocks().len(),
            space
                .count_schedules(8)
                .map_or_else(|| ">=2^128".to_owned(), |n| n.to_string())
        );
    }

    println!("\nThe delay-0 ring deadlocks immediately (no token anywhere);");
    println!("adding delay tokens unlocks it, and larger capacities admit");
    println!("more concurrent schedules — all derived from the same MoCC.");
    Ok(())
}
