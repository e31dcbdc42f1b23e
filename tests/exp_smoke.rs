//! Smoke tests: every `exp_e*` binary's workload builder constructs a
//! valid artefact at tiny size and survives a short engine run — so a
//! broken experiment shows up in `cargo test`, not at paper-regeneration
//! time.

use moccml_bench::experiments::{
    e1_place, e2_spec, e3_graph, e4_graph, e5_graph, e6_configs, e7_conformance_trace,
    e7_violating_pam,
};
use moccml_bench::harness::measure;
use moccml_engine::{Engine, Program, SafeMaxParallel, SolverOptions};
use moccml_kernel::{Constraint, Step};
use moccml_sdf::analysis::repetition_vector;
use moccml_sdf::mocc::{build_specification, build_specification_with, MoccVariant};

#[test]
fn e1_place_blocks_read_when_empty_and_write_when_full() {
    let (place, w, r) = e1_place(1, 0);
    let empty = place.initial();
    let f = place.formula(&empty);
    assert!(f.eval(&Step::from_events([w])), "room for one token");
    assert!(!f.eval(&Step::from_events([r])), "no token to read");
    let full = place.next(&empty, &Step::from_events([w]));
    let f = place.formula(&full);
    assert!(!f.eval(&Step::from_events([w])), "full place blocks write");
    assert!(f.eval(&Step::from_events([r])), "token available");
}

#[test]
fn e2_spec_starts_unconstrained() {
    let (spec, events) = e2_spec(3);
    assert_eq!(events.len(), 3);
    assert_eq!(spec.constraint_count(), 0);
    assert_eq!(spec.free_events().len(), 3);
}

#[test]
fn e3_graph_is_consistent_and_runs() {
    let g = e3_graph();
    assert_eq!(repetition_vector(&g).expect("consistent"), vec![3, 2, 2]);
    let spec = build_specification(&g).expect("builds");
    let report = Engine::builder(spec).policy(SafeMaxParallel).build().run(8);
    assert!(!report.deadlocked);
}

#[test]
fn e4_graph_admits_both_variants() {
    let g = e4_graph();
    for variant in [MoccVariant::Standard, MoccVariant::Multiport] {
        let spec = build_specification_with(&g, variant).expect("builds");
        assert!(
            !Program::new(spec)
                .cursor()
                .acceptable_steps(&SolverOptions::default())
                .is_empty(),
            "{variant:?} must offer at least one step"
        );
    }
}

#[test]
fn e5_graph_respects_execution_time_at_tiny_n() {
    for n in [0u32, 1] {
        let spec = build_specification(&e5_graph(n)).expect("builds");
        let report = Engine::builder(spec)
            .policy(SafeMaxParallel)
            .build()
            .run(10);
        assert!(!report.deadlocked, "N={n} must not deadlock");
    }
}

#[test]
fn e6_configs_build_and_simulate() {
    let configs = e6_configs();
    assert_eq!(configs.len(), 4, "infinite + three deployments");
    for (name, spec) in &configs {
        let report = Engine::builder(spec.clone())
            .policy(SafeMaxParallel)
            .build()
            .run(3);
        assert!(!report.deadlocked, "{name}: safe policy must not wedge");
    }
}

#[test]
fn e7_seeded_property_is_violated_with_early_stop() {
    let (spec, prop) = e7_violating_pam();
    let program = Program::compile(&spec);
    let options = moccml_engine::ExploreOptions::default();
    let report = moccml_verify::check_props(&program, std::slice::from_ref(&prop), &options);
    let (_, ce) = report.first_violation().expect("detector does start");
    assert!(ce.replays_on(&program));
    // the BENCH_verify claim, kept under test: early stop beats the
    // full exploration on the seeded workload
    let full = program.explore(&options).state_count();
    assert!(
        report.states_visited < full,
        "early stop ({}) vs full ({full})",
        report.states_visited
    );
}

#[test]
fn e7_conformance_trace_conforms() {
    let (spec, trace) = e7_conformance_trace(6);
    assert_eq!(trace.len(), 6);
    let program = Program::compile(&spec);
    assert!(moccml_verify::conformance(&program, &trace).conforms());
    // and round-trips through the text format
    let text = trace.to_lines(spec.universe()).expect("plain names");
    let parsed = moccml_kernel::Schedule::parse_lines(&text, spec.universe()).expect("parses");
    assert_eq!(parsed, trace);
}

#[test]
fn harness_measures_an_engine_workload() {
    // the bench harness itself is part of the experiment path: one
    // tiny end-to-end measurement through the shared reporting types.
    let (spec, _) = e2_spec(2);
    let compiled = Program::new(spec).cursor();
    let record = measure("smoke", 1, 3, || {
        compiled.acceptable_steps(&SolverOptions::default().with_empty(true))
    });
    assert_eq!(record.iters, 3);
    assert!(record.min_ns <= record.p95_ns);
}
