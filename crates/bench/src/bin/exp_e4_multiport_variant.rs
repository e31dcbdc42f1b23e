//! E4 — Sec. III variant remark: the multiport-memory place strictly
//! enlarges the set of acceptable schedules.
//!
//! Compares state-space statistics of the same producer/consumer graph
//! under the Fig. 3 place and the multiport variant.

use moccml_bench::experiments::{e4_graph, table_header, table_row};
use moccml_engine::{ExploreOptions, Program};
use moccml_sdf::mocc::{build_specification_with, MoccVariant};

fn main() {
    let g = e4_graph();

    println!("# E4 — MoCC variation: Fig. 3 place vs multiport memory");
    println!();
    table_header(&[
        "variant",
        "states",
        "transitions",
        "deadlocks",
        "max ∥",
        "schedules(len 6)",
    ]);
    for (label, variant) in [
        ("standard (Fig. 3)", MoccVariant::Standard),
        ("multiport", MoccVariant::Multiport),
    ] {
        let spec = build_specification_with(&g, variant).expect("builds");
        let space = Program::new(spec).explore(&ExploreOptions::default());
        let stats = space.stats();
        table_row(&[
            label.to_owned(),
            stats.states.to_string(),
            stats.transitions.to_string(),
            stats.deadlocks.to_string(),
            stats.max_step_parallelism.to_string(),
            space
                .count_schedules(6)
                .map_or_else(|| ">=2^128".to_owned(), |n| n.to_string()),
        ]);
    }
    println!();
    println!("Expected shape: same states, strictly more transitions and");
    println!("schedules for the multiport variant (it adds read∧write steps).");
}
