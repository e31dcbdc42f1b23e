//! End-to-end integration: SDF graph → execution model → engine,
//! checking global SDF invariants along whole runs.

use moccml_engine::{
    Engine, ExploreOptions, Lexicographic, MaxParallel, MinSerial, Policy, Program, Random,
    SafeMaxParallel,
};
use moccml_sdf::analysis::repetition_vector;
use moccml_sdf::mocc::{build_specification, build_specification_with, MoccVariant};
use moccml_sdf::SdfGraph;

fn multirate() -> SdfGraph {
    let mut g = SdfGraph::new("mr");
    g.add_agent("a", 0).expect("fresh");
    g.add_agent("b", 0).expect("fresh");
    g.add_agent("c", 0).expect("fresh");
    g.connect("a", "b", 2, 3, 6, 0).expect("valid");
    g.connect("b", "c", 1, 2, 4, 0).expect("valid");
    g
}

/// Token counts in every place stay within [0, capacity] along any
/// simulated schedule, for several policies.
#[test]
fn place_occupancy_is_invariant_under_all_policies() {
    let g = multirate();
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(Lexicographic),
        Box::new(MaxParallel),
        Box::new(MinSerial),
        Box::new(SafeMaxParallel),
        Box::new(Random::new(11)),
        Box::new(Random::new(99)),
    ];
    for policy in policies {
        let policy_name = policy.name().to_owned();
        let spec = build_specification(&g).expect("builds");
        let mut sim = Engine::builder(spec).policy_boxed(policy).build();
        let report = sim.run(40);
        let u = sim.specification().universe();
        for place in g.places() {
            let w = u
                .lookup(&format!("{}.write", g.ports()[place.output_port].name))
                .expect("event");
            let r = u
                .lookup(&format!("{}.read", g.ports()[place.input_port].name))
                .expect("event");
            let push = i64::from(g.ports()[place.output_port].rate);
            let pop = i64::from(g.ports()[place.input_port].rate);
            let mut size = i64::from(place.delay);
            for step in report.schedule.iter() {
                if step.contains(w) {
                    size += push;
                }
                if step.contains(r) {
                    size -= pop;
                }
                assert!(
                    size >= 0 && size <= i64::from(place.capacity),
                    "policy {policy_name}: occupancy {size} out of bounds"
                );
            }
        }
    }
}

/// Along any schedule, activation counts of connected agents respect
/// the repetition-vector ratio within the buffering slack.
#[test]
fn activation_ratios_follow_repetition_vector() {
    let g = multirate();
    let r = repetition_vector(&g).expect("consistent");
    assert_eq!(r, vec![3, 2, 1]);
    let spec = build_specification(&g).expect("builds");
    let mut sim = Engine::builder(spec).policy(SafeMaxParallel).build();
    let report = sim.run(60);
    assert!(!report.deadlocked);
    let u = sim.specification().universe();
    let counts: Vec<i64> = ["a", "b", "c"]
        .iter()
        .map(|n| {
            report
                .schedule
                .occurrences(u.lookup(&format!("{n}.start")).expect("event")) as i64
        })
        .collect();
    // each agent fired at least one full iteration's worth
    for (i, &c) in counts.iter().enumerate() {
        assert!(c >= r[i] as i64, "agent {i}: {c} < {}", r[i]);
    }
    // bounded divergence: |count_a * r_b - count_b * r_a| stays small
    let slack = 12;
    assert!((counts[0] * r[1] as i64 - counts[1] * r[0] as i64).abs() <= slack);
    assert!((counts[1] * r[2] as i64 - counts[2] * r[1] as i64).abs() <= slack);
}

/// The start/stop/read/write coincidences of the SDF abstraction
/// (N = 0) hold in every step of every acceptable schedule.
#[test]
fn sdf_abstraction_coincidences_hold() {
    let g = multirate();
    let spec = build_specification(&g).expect("builds");
    let mut sim = Engine::builder(spec).policy(Random::new(4)).build();
    let report = sim.run(40);
    let u = sim.specification().universe();
    for (idx, agent) in g.agents().iter().enumerate() {
        let start = u.lookup(&format!("{}.start", agent.name)).expect("event");
        let stop = u.lookup(&format!("{}.stop", agent.name)).expect("event");
        for step in report.schedule.iter() {
            assert_eq!(step.contains(start), step.contains(stop), "N=0 atomicity");
        }
        for p in g.input_ports(idx) {
            let read = u
                .lookup(&format!("{}.read", g.ports()[p].name))
                .expect("event");
            for step in report.schedule.iter() {
                assert_eq!(step.contains(read), step.contains(start), "read=start");
            }
        }
        for p in g.output_ports(idx) {
            let write = u
                .lookup(&format!("{}.write", g.ports()[p].name))
                .expect("event");
            for step in report.schedule.iter() {
                assert_eq!(step.contains(write), step.contains(stop), "write=stop");
            }
        }
    }
}

/// Exploration of the standard variant is a subgraph of the multiport
/// variant's exploration (E4 at full state-space granularity).
#[test]
fn multiport_exploration_contains_standard() {
    let mut g = SdfGraph::new("pc");
    g.add_agent("p", 0).expect("fresh");
    g.add_agent("c", 0).expect("fresh");
    g.connect("p", "c", 1, 1, 2, 1).expect("valid");
    let std_spec = build_specification_with(&g, MoccVariant::Standard).expect("builds");
    let mp_spec = build_specification_with(&g, MoccVariant::Multiport).expect("builds");
    let std_space = Program::new(std_spec).explore(&ExploreOptions::default());
    let mp_space = Program::new(mp_spec).explore(&ExploreOptions::default());
    assert!(mp_space.transition_count() > std_space.transition_count());
    assert!(mp_space.count_schedules(5) > std_space.count_schedules(5));
    assert_eq!(std_space.deadlocks().len(), 0);
    assert_eq!(mp_space.deadlocks().len(), 0);
}

/// A long simulation of a timed graph (N > 0) preserves the activation
/// protocol: start < exec… < stop, never nested.
#[test]
fn timed_agents_never_nest_activations() {
    let mut g = SdfGraph::new("timed");
    g.add_agent("x", 3).expect("fresh");
    g.add_agent("y", 2).expect("fresh");
    g.connect("x", "y", 1, 1, 2, 0).expect("valid");
    let spec = build_specification(&g).expect("builds");
    let mut sim = Engine::builder(spec).policy(Random::new(21)).build();
    let report = sim.run(60);
    let u = sim.specification().universe();
    for agent in ["x", "y"] {
        let start = u.lookup(&format!("{agent}.start")).expect("event");
        let stop = u.lookup(&format!("{agent}.stop")).expect("event");
        let exec = u.lookup(&format!("{agent}.isExecuting")).expect("event");
        let mut executing = false;
        let mut cycles = 0usize;
        for step in report.schedule.iter() {
            if step.contains(start) {
                assert!(!executing, "{agent}: nested start");
                executing = true;
                cycles = 0;
            }
            if step.contains(exec) {
                assert!(executing, "{agent}: isExecuting outside activation");
                cycles += 1;
            }
            if step.contains(stop) {
                assert!(executing, "{agent}: stop without start");
                let n = if agent == "x" { 3 } else { 2 };
                assert_eq!(cycles, n, "{agent}: stop at the N-th isExecuting");
                executing = false;
            }
        }
    }
}
