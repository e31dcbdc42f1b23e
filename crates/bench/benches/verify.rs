//! E7 bench target — the verification workloads: on-the-fly property
//! checking with early stop vs. full exploration plus a post-hoc scan,
//! schedule conformance replay, and the bounded equivalence check, all
//! over the PAM/SDF specs.
//!
//! Runs on the in-repo `Instant`-based harness; emits
//! `BENCH_verify.json` at the workspace root. The early-stop/full pair
//! encodes its visited-state counts in the benchmark names — the
//! acceptance claim is that on-the-fly checking of the seeded
//! violating PAM workload visits *strictly fewer* states than full
//! exploration, which this bench also asserts outright.

use moccml_bench::experiments::{e4_graph, e7_conformance_trace, e7_violating_pam};
use moccml_bench::harness::BenchGroup;
use moccml_engine::{shortest_path_to, ExploreOptions, Program};
use moccml_verify::{check_equivalence, check_props, conformance, EquivOptions, Prop};
use std::hint::black_box;

fn main() {
    let (spec, prop) = e7_violating_pam();
    let program = Program::compile(&spec);
    let options = ExploreOptions::default();
    let detect_start = spec
        .universe()
        .lookup("detect.start")
        .expect("PAM detector event");

    // the claim under test, measured once before timing: early stop
    // must visit strictly fewer states than the full space
    let report = check_props(&program, std::slice::from_ref(&prop), &options);
    let full = program.explore(&options);
    assert!(report.any_violated(), "the seeded property is violated");
    assert!(
        report.states_visited < full.state_count(),
        "early stop ({}) must visit strictly fewer states than full \
         exploration ({})",
        report.states_visited,
        full.state_count()
    );

    let mut group = BenchGroup::new("verify").with_iters(10);
    group.bench(
        &format!("check_early_stop/pam_quad_states_{}", report.states_visited),
        || check_props(black_box(&program), std::slice::from_ref(&prop), &options),
    );
    group.bench(
        &format!("full_explore_scan/pam_quad_states_{}", full.state_count()),
        || {
            // the post-hoc baseline: materialise the whole space, scan
            // for a violating transition, reconstruct the witness
            let space = black_box(&program).explore(&options);
            let (src, step, _) = space
                .transitions()
                .find(|(_, step, _)| step.contains(detect_start))
                .expect("detector starts somewhere");
            let witness = shortest_path_to(&space, |s| s == src).expect("reachable");
            let mut schedule = witness.schedule;
            schedule.push(step.clone());
            schedule
        },
    );

    // deadlock-freedom on the fly (violated on the quad-core platform)
    group.bench("check_deadlock_free/pam_quad", || {
        check_props(black_box(&program), &[Prop::DeadlockFree], &options)
    });

    // conformance: replay a 60-step recorded trace
    let (conf_spec, trace) = e7_conformance_trace(60);
    let conf_program = Program::compile(&conf_spec);
    assert!(conformance(&conf_program, &trace).conforms());
    group.bench("conformance/pam_quad_60_steps", || {
        conformance(black_box(&conf_program), &trace)
    });

    // bounded equivalence: the standard vs multiport MoCC variants of
    // the E4 producer/consumer graph (they differ: multiport allows
    // simultaneous read+write on one place)
    use moccml_sdf::mocc::{build_specification_with, MoccVariant};
    let standard =
        Program::new(build_specification_with(&e4_graph(), MoccVariant::Standard).expect("builds"));
    let multiport = Program::new(
        build_specification_with(&e4_graph(), MoccVariant::Multiport).expect("builds"),
    );
    let equiv_options = EquivOptions::default().with_max_states(20_000);
    group.bench("equivalence/e4_standard_vs_multiport", || {
        check_equivalence(black_box(&standard), black_box(&multiport), &equiv_options)
            .expect("same universe")
    });

    group.finish();
}
