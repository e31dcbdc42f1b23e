//! E3 — Sec. III-A / Listing 1: the woven SDF MoCC reproduces SDF
//! firing semantics.
//!
//! Simulates a multirate graph under the woven execution model and
//! checks token conservation against the repetition vector; prints the
//! simulation trace as a timing diagram (the paper's "simulation
//! traces" artefact).

use moccml_bench::experiments::{e3_graph, table_header, table_row};
use moccml_engine::{Engine, SafeMaxParallel};
use moccml_sdf::analysis::repetition_vector;
use moccml_sdf::mocc::MoccVariant;
use moccml_sdf::model_bridge::weave_specification;

fn main() {
    // a --2:3--> b --1:1--> c, bounded places
    let g = e3_graph();

    let r = repetition_vector(&g).expect("consistent graph");
    println!("# E3 — SDF semantics through the metamodel pipeline");
    println!();
    println!("repetition vector: {r:?} (a fires 3×, b 2×, c 2× per iteration)");
    println!();

    let spec = weave_specification(&g, MoccVariant::Standard).expect("weaves");
    let mut sim = Engine::builder(spec).policy(SafeMaxParallel).build();
    let report = sim.run(24);
    let u = sim.specification().universe();

    println!(
        "simulation trace ({} steps, policy safe-max-parallel):",
        report.steps_taken
    );
    println!();
    println!("{}", report.schedule.render_timing_diagram(u));
    println!();

    table_header(&["agent", "activations", "per-iteration ratio"]);
    let names = ["a", "b", "c"];
    let counts: Vec<usize> = names
        .iter()
        .map(|n| {
            report
                .schedule
                .occurrences(u.lookup(&format!("{n}.start")).expect("event"))
        })
        .collect();
    for (i, name) in names.iter().enumerate() {
        table_row(&[
            (*name).to_owned(),
            counts[i].to_string(),
            format!("{:.2}", counts[i] as f64 / counts[0] as f64 * r[0] as f64),
        ]);
    }
    println!();
    println!(
        "deadlocked: {} — expected false; activation ratios must track {r:?}",
        report.deadlocked
    );
}
