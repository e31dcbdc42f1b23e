//! Workload builders and reporting helpers shared by the experiment
//! binaries (`exp_e1` … `exp_e6`), the bench targets and the smoke
//! tests.
//!
//! Each `e*` function builds exactly the artefact its binary studies,
//! parameterised so tests can exercise it at tiny sizes.

use moccml_automata::AutomatonInstance;
use moccml_engine::{Engine, ExploreOptions, Program, SafeMaxParallel, StateSpaceStats};
use moccml_kernel::{EventId, Schedule, Specification, StepPred, Universe};
use moccml_sdf::{pam, SdfGraph};
use moccml_verify::Prop;

pub use crate::report::{table_header, table_row};

/// E1 — the Fig. 3 `PlaceConstraint` automaton instantiated over a
/// fresh `write`/`read` pair, with unit rates.
///
/// # Panics
///
/// Panics if the embedded SDF library fails to parse or bind — both
/// would be seed-data bugs.
#[must_use]
pub fn e1_place(capacity: i64, delay: i64) -> (AutomatonInstance, EventId, EventId) {
    let lib = moccml_automata::parse_library(moccml_sdf::mocc::SDF_LIBRARY_SOURCE)
        .expect("embedded library parses");
    let mut u = Universe::new();
    let (w, r) = (u.event("write"), u.event("read"));
    let place = lib
        .instantiate("PlaceConstraint", "fig3")
        .expect("declared")
        .bind_event("write", w)
        .bind_event("read", r)
        .bind_int("pushRate", 1)
        .bind_int("popRate", 1)
        .bind_int("itsDelay", delay)
        .bind_int("itsCapacity", capacity)
        .finish()
        .expect("bindings complete");
    (place, w, r)
}

/// E2 — an unconstrained universe of `n` events (constraints are added
/// incrementally by the binary to show monotone shrinking).
#[must_use]
pub fn e2_spec(n: usize) -> (Specification, Vec<EventId>) {
    let mut u = Universe::new();
    let events: Vec<EventId> = (0..n).map(|i| u.event(&format!("e{i}"))).collect();
    (Specification::new("e2", u), events)
}

/// E3 — the multirate chain `a --2:3--> b --1:1--> c` with bounded
/// places (repetition vector `[3, 2, 2]`: the binary prints the
/// activation ratios it induces).
///
/// # Panics
///
/// Panics if the fixed graph is rejected — a seed-data bug.
#[must_use]
pub fn e3_graph() -> SdfGraph {
    let mut g = SdfGraph::new("e3");
    g.add_agent("a", 0).expect("fresh graph");
    g.add_agent("b", 0).expect("fresh graph");
    g.add_agent("c", 0).expect("fresh graph");
    g.connect("a", "b", 2, 3, 6, 0).expect("valid place");
    g.connect("b", "c", 1, 1, 2, 0).expect("valid place");
    g
}

/// E4 — the producer/consumer pair with one delayed place, compared
/// under the standard and multiport MoCC variants.
///
/// # Panics
///
/// Panics if the fixed graph is rejected — a seed-data bug.
#[must_use]
pub fn e4_graph() -> SdfGraph {
    let mut g = SdfGraph::new("e4");
    g.add_agent("prod", 0).expect("fresh graph");
    g.add_agent("cons", 0).expect("fresh graph");
    g.connect("prod", "cons", 1, 1, 2, 1).expect("valid place");
    g
}

/// E5 — a producer/consumer pair whose agents take `n` execution
/// cycles per activation (`stop` at the n-th `isExecuting`).
///
/// # Panics
///
/// Panics if the fixed graph is rejected — a seed-data bug.
#[must_use]
pub fn e5_graph(n: u32) -> SdfGraph {
    let mut g = SdfGraph::new("e5");
    g.add_agent("prod", n).expect("fresh graph");
    g.add_agent("cons", n).expect("fresh graph");
    g.connect("prod", "cons", 1, 1, 2, 0).expect("valid place");
    g
}

/// E6 — the PAM study's four configurations: infinite resources plus
/// the single/dual/quad-core deployments.
///
/// # Panics
///
/// Panics if the embedded PAM models fail to build — a seed-data bug.
#[must_use]
pub fn e6_configs() -> Vec<(String, Specification)> {
    let mut v = Vec::new();
    v.push((
        "infinite resources".to_owned(),
        pam::infinite_resources().expect("builds"),
    ));
    for (platform, deployment) in [
        pam::deployment_single_core(),
        pam::deployment_dual_core(),
        pam::deployment_quad_core(),
    ] {
        v.push((
            platform.name().to_owned(),
            pam::deployed(&platform, &deployment).expect("deploys"),
        ));
    }
    v
}

/// E7 — the seeded violating verification workload: the quad-core PAM
/// deployment plus a safety property it violates ("the detector never
/// starts"). The shortest counterexample needs the whole pipeline to
/// flow (hydro → filter → fusion → detect), so the violation sits deep
/// enough that on-the-fly early stop visits strictly fewer states than
/// a full exploration — the `BENCH_verify.json` claim.
///
/// # Panics
///
/// Panics if the embedded PAM models fail to build — a seed-data bug.
#[must_use]
pub fn e7_violating_pam() -> (Specification, Prop) {
    let (platform, deployment) = pam::deployment_quad_core();
    let spec = pam::deployed(&platform, &deployment).expect("deploys");
    let detect_start = spec
        .universe()
        .lookup("detect.start")
        .expect("PAM detector event");
    (spec, Prop::Never(StepPred::fired(detect_start)))
}

/// E8 — the seeded slicing workload: the quad-core PAM deployment plus
/// an independent telemetry alternation over two fresh events, with the
/// same local safety property as [`e7_violating_pam`] ("the detector
/// never starts"). The property's cone of influence closes over every
/// PAM constraint but never reaches the telemetry pair, so a sliced
/// `verify::check` run drops exactly one constraint — and explores
/// strictly fewer states, because the alternation's two phases double
/// the interleaved space (the `BENCH_analyze.json` claim).
///
/// # Panics
///
/// Panics if the embedded PAM models fail to build — a seed-data bug.
#[must_use]
pub fn e8_seeded_local_pam() -> (Specification, Prop) {
    let (platform, deployment) = pam::deployment_quad_core();
    let mut spec = pam::deployed(&platform, &deployment).expect("deploys");
    let tick = spec.universe_mut().event("telemetry.tick");
    let tock = spec.universe_mut().event("telemetry.tock");
    spec.add_constraint(Box::new(moccml_ccsl::Alternation::new(
        "telemetry",
        tick,
        tock,
    )));
    let detect_start = spec
        .universe()
        .lookup("detect.start")
        .expect("PAM detector event");
    (spec, Prop::Never(StepPred::fired(detect_start)))
}

/// E9 — the explorer-scaling workload: three independent bounded
/// strict precedences (`c_i < e_i`, drift ≤ `bound`) under one n-ary
/// exclusion over all six events. The exclusion limits every step to a
/// single event, so the reachable space is exactly the drift cube
/// `(bound + 1)³` — `bound = 46` gives the 103,823-state workload of
/// `BENCH_explore_scale.json` — with wide middle BFS levels (the state
/// at drifts `(d₁, d₂, d₃)` sits at depth `d₁ + d₂ + d₃`), which is
/// precisely the shape that keeps the explorer's helpers busy.
///
/// Returns the specification and the expected reachable state count.
#[must_use]
pub fn e9_scale_spec(bound: u64) -> (Specification, usize) {
    let mut u = Universe::new();
    let mut all = Vec::with_capacity(6);
    let mut pairs = Vec::with_capacity(3);
    for i in 0..3 {
        let c = u.event(&format!("c{i}"));
        let e = u.event(&format!("e{i}"));
        all.extend([c, e]);
        pairs.push((c, e));
    }
    let mut spec = Specification::new("e9-scale", u);
    for (i, (c, e)) in pairs.into_iter().enumerate() {
        spec.add_constraint(Box::new(
            moccml_ccsl::Precedence::strict(&format!("c{i}<e{i}"), c, e).with_bound(bound),
        ));
    }
    spec.add_constraint(Box::new(moccml_ccsl::Exclusion::new("one-at-a-time", all)));
    let side = usize::try_from(bound).expect("bound fits usize") + 1;
    (spec, side * side * side)
}

/// E7 — a conforming reference trace for the conformance-checking
/// bench: `steps` steps of the quad-core PAM deployment under the
/// deadlock-avoiding policy.
///
/// # Panics
///
/// Panics if the embedded PAM models fail to build or the simulation
/// wedges — both seed-data bugs.
#[must_use]
pub fn e7_conformance_trace(steps: usize) -> (Specification, Schedule) {
    let (platform, deployment) = pam::deployment_quad_core();
    let spec = pam::deployed(&platform, &deployment).expect("deploys");
    let report = Engine::builder(spec.clone())
        .policy(SafeMaxParallel)
        .build()
        .run(steps);
    assert!(!report.deadlocked, "safe policy completes on PAM");
    (spec, report.schedule)
}

/// Parses a `--flag N` pair from an argument list — the shared CLI
/// convention of the `exp_*` binaries.
///
/// # Panics
///
/// Panics with a usage message if the flag's value is present but not
/// a positive integer.
#[must_use]
pub fn parse_flag(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} expects a positive integer, got '{v}'"))
        })
}

/// Explores `spec` (bounded, on the compiled path, default worker
/// count) and returns the aggregate statistics.
#[must_use]
pub fn explore_stats(spec: &Specification, max_states: usize) -> StateSpaceStats {
    explore_stats_with(spec, &ExploreOptions::default().with_max_states(max_states))
}

/// Explores `spec` under explicit [`ExploreOptions`] — the experiment
/// binaries use this to thread `--workers` / `--max-states` flags
/// through to the parallel explorer.
#[must_use]
pub fn explore_stats_with(spec: &Specification, options: &ExploreOptions) -> StateSpaceStats {
    Program::compile(spec).explore(options).stats()
}

/// Formats statistics as experiment table cells:
/// states, transitions, deadlocks, max parallelism, mean branching.
#[must_use]
pub fn stats_cells(stats: &StateSpaceStats) -> Vec<String> {
    vec![
        stats.states.to_string(),
        stats.transitions.to_string(),
        stats.deadlocks.to_string(),
        stats.max_step_parallelism.to_string(),
        format!("{:.2}", stats.mean_branching),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_ccsl::Alternation;

    #[test]
    fn e9_scale_spec_reaches_exactly_the_drift_cube() {
        let (spec, expected) = e9_scale_spec(2);
        assert_eq!(expected, 27);
        let stats = explore_stats(&spec, 1_000);
        assert_eq!(stats.states, expected);
        assert_eq!(stats.deadlocks, 0);
        // the exclusion caps every step at a single event
        assert_eq!(stats.max_step_parallelism, 1);
    }

    #[test]
    fn stats_cells_have_five_columns() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        let stats = explore_stats(&spec, 100);
        let cells = stats_cells(&stats);
        assert_eq!(cells.len(), 5);
        assert_eq!(cells[0], "2");
    }
}
