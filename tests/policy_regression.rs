//! Regression: the rewritten `SafeMaxParallel` (compiled
//! `state_key()`/`restore()` lookahead) must choose *exactly* the
//! schedule the seed's clone-per-candidate implementation chose.
//!
//! The reference below reimplements the seed algorithm verbatim —
//! sort candidates by descending size (stable), fire each on a cloned
//! specification, take the first whose successor still admits a step,
//! fall back to the largest — enumerating with a throwaway
//! recompile-per-query program, exactly what the seed's (since removed)
//! free-function solver did.

use moccml_engine::{Engine, Program, SafeMaxParallel, SolverOptions};
use moccml_kernel::{Schedule, Specification, Step};
use moccml_sdf::mocc::build_specification;
use moccml_sdf::{pam, SdfGraph};

/// The seed's solver entry point: re-lower every formula, enumerate.
fn acceptable_steps(spec: &Specification, options: &SolverOptions) -> Vec<Step> {
    Program::compile(spec).cursor().acceptable_steps(options)
}

/// The seed's `Policy::SafeMaxParallel` step choice, clone-based.
fn reference_safe_max_step(spec: &mut Specification, options: &SolverOptions) -> Option<Step> {
    let candidates = acceptable_steps(spec, options);
    if candidates.is_empty() {
        return None;
    }
    let mut by_size: Vec<&Step> = candidates.iter().collect();
    by_size.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let chosen = by_size
        .iter()
        .find(|step| {
            let mut peek = spec.clone();
            peek.fire(step).expect("candidate is acceptable");
            !acceptable_steps(&peek, options).is_empty()
        })
        .copied()
        .unwrap_or(by_size[0])
        .clone();
    spec.fire(&chosen).expect("chosen step is acceptable");
    Some(chosen)
}

fn reference_safe_max_run(mut spec: Specification, max_steps: usize) -> Schedule {
    let options = SolverOptions::default();
    let mut schedule = Schedule::new();
    for _ in 0..max_steps {
        match reference_safe_max_step(&mut spec, &options) {
            Some(step) => schedule.push(step),
            None => break,
        }
    }
    schedule
}

fn assert_same_schedule(spec: Specification, steps: usize, label: &str) {
    let expected = reference_safe_max_run(spec.clone(), steps);
    let actual = Engine::builder(spec)
        .policy(SafeMaxParallel)
        .build()
        .run(steps)
        .schedule;
    assert_eq!(actual, expected, "{label}: schedule diverged from seed");
}

/// The three PAM deployments are the workload the seed policy was
/// written for: lookahead actually vetoes greedy choices there.
#[test]
fn safe_max_parallel_schedule_unchanged_on_pam_deployments() {
    for (platform, deployment) in [
        pam::deployment_single_core(),
        pam::deployment_dual_core(),
        pam::deployment_quad_core(),
    ] {
        let spec = pam::deployed(&platform, &deployment).expect("deploys");
        assert_same_schedule(spec, 30, platform.name());
    }
}

/// Multirate SDF chains exercise ties between equal-sized candidates
/// (the stable-sort tie-breaking must match too).
#[test]
fn safe_max_parallel_schedule_unchanged_on_multirate_chain() {
    let mut g = SdfGraph::new("mr");
    g.add_agent("a", 0).expect("fresh");
    g.add_agent("b", 0).expect("fresh");
    g.add_agent("c", 0).expect("fresh");
    g.connect("a", "b", 2, 3, 6, 0).expect("valid");
    g.connect("b", "c", 1, 2, 4, 0).expect("valid");
    let spec = build_specification(&g).expect("builds");
    assert_same_schedule(spec, 40, "multirate chain");
}

/// The infinite-resource PAM model never needs the lookahead veto —
/// the fallback path must still agree.
#[test]
fn safe_max_parallel_schedule_unchanged_without_vetoes() {
    let spec = pam::infinite_resources().expect("builds");
    assert_same_schedule(spec, 20, "infinite resources");
}

/// The lookahead veto must not be blinded by a session that includes
/// the empty step (the stuttering step is acceptable in every state,
/// so counting it would approve every greedy choice): on the
/// single-core PAM deployment the policy must still dodge the wedge
/// and pick the seed's schedule.
#[test]
fn safe_max_parallel_veto_survives_include_empty() {
    use moccml_engine::Engine;
    let (platform, deployment) = pam::deployment_single_core();
    let spec = pam::deployed(&platform, &deployment).expect("deploys");
    let expected = reference_safe_max_run(spec.clone(), 30);
    let report = Engine::builder(spec)
        .policy(SafeMaxParallel)
        .solver(SolverOptions::default().with_empty(true))
        .build()
        .run(30);
    assert_eq!(report.schedule, expected, "veto blinded by empty step");
}
