//! E1/E3/E4/B2 bench targets — the SDF MoCC under the generic engine.
//!
//! * `place_constraint` (E1): formula construction + next-state
//!   throughput of the Fig. 3 automaton.
//! * `sdf_simulation` (E3): simulation steps/second on pipeline graphs.
//! * `mocc_variants` (E4): exploration cost, standard vs multiport.
//! * `exploration_scaling` (B2): state-space construction vs chain
//!   length and place capacity.
//!
//! Runs on the in-repo `Instant`-based harness (criterion is not
//! fetchable offline); emits `BENCH_sdf.json` at the workspace root.

use moccml_bench::experiments::e1_place;
use moccml_bench::harness::BenchGroup;
use moccml_bench::workloads::{sdf_chain, sdf_diamond};
use moccml_engine::{Engine, ExploreOptions, MaxParallel, Program};
use moccml_kernel::{Constraint, Step};
use moccml_sdf::mocc::{build_specification, build_specification_with, MoccVariant};
use std::hint::black_box;

fn main() {
    let mut group = BenchGroup::new("sdf").with_iters(15);

    let (place, w, r) = e1_place(4, 0);
    let empty = place.initial();
    group.bench("place_constraint/formula", || {
        black_box(&place).formula(black_box(&empty))
    });
    let write = Step::from_events([w]);
    let read = Step::from_events([r]);
    group.bench("place_constraint/fire_cycle", || {
        let full = place.next(&empty, black_box(&write));
        place.next(&full, black_box(&read))
    });

    for stages in [4usize, 8] {
        let spec = build_specification(&sdf_chain(stages, 2)).expect("builds");
        group.bench(&format!("simulation_chain_50_steps/{stages}"), || {
            let mut sim = Engine::builder(spec.clone()).policy(MaxParallel).build();
            sim.run(50)
        });
    }

    let graph = sdf_chain(4, 2);
    for (label, variant) in [
        ("standard", MoccVariant::Standard),
        ("multiport", MoccVariant::Multiport),
    ] {
        let spec = build_specification_with(&graph, variant).expect("builds");
        group.bench(&format!("mocc_variants/{label}"), || {
            Program::compile(black_box(&spec)).explore(&ExploreOptions::default())
        });
    }

    let mut group = group.with_iters(10);
    for stages in [3usize, 5, 7] {
        let spec = build_specification(&sdf_chain(stages, 2)).expect("builds");
        group.bench(&format!("exploration_chain/{stages}"), || {
            Program::compile(black_box(&spec)).explore(&ExploreOptions::default())
        });
    }
    for capacity in [1u32, 2, 4] {
        let spec = build_specification(&sdf_chain(4, capacity)).expect("builds");
        group.bench(&format!("exploration_capacity/{capacity}"), || {
            Program::compile(black_box(&spec)).explore(&ExploreOptions::default())
        });
    }
    let diamond = build_specification(&sdf_diamond(3)).expect("builds");
    group.bench("exploration_diamond/3", || {
        Program::compile(black_box(&diamond)).explore(&ExploreOptions::default())
    });

    group.finish();
}
