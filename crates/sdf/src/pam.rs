//! The Passive Acoustic Monitoring (PAM) case study.
//!
//! The paper's conclusion reports: *"the SDF extension is used to model
//! and validate an application from the Passive Acoustic Monitoring
//! (PAM) domain. We first model a PAM system under an infinite resource
//! assumption before studying three different deployments on different
//! platforms. The extended MoCC has been used to evaluate, through
//! simulation traces and exhaustive exploration, the impact of the
//! different allocations on the valid scheduling of the application."*
//!
//! The concrete application lived on a companion website that is no
//! longer available; this module rebuilds a faithful synthetic stand-in
//! (see DESIGN.md): a two-channel hydrophone front-end feeding
//! per-channel band-pass filters, a beamforming/fusion stage, a
//! detector and a reporting sink:
//!
//! ```text
//! hydroA ─▶ filterA ─▶╮
//!                     ├─▶ fusion ─▶ detect ─▶ report
//! hydroB ─▶ filterB ─▶╯
//! ```
//!
//! Three deployments mirror the paper's protocol: a single-core DSP, a
//! dual-core split (front-end vs. back-end) and a quad-core spread.

use crate::error::SdfError;
use crate::graph::SdfGraph;
use crate::platform::{deploy, Deployment, Platform};
use moccml_kernel::Specification;

/// Builds the PAM application graph (6 agents, 5 places).
///
/// All rates are 1 and capacities 1 so that the scheduling state-space
/// stays exhaustively explorable, which is what the paper's study
/// needs; `cycles` is 0 everywhere (infinite-resource abstraction).
///
/// # Example
///
/// ```
/// let g = moccml_sdf::pam::pam_application();
/// assert_eq!(g.agents().len(), 6);
/// assert!(moccml_sdf::analysis::is_consistent(&g));
/// ```
#[must_use]
pub fn pam_application() -> SdfGraph {
    let mut g = SdfGraph::new("pam");
    for name in ["hydroA", "hydroB", "filterA", "filterB", "fusion", "detect"] {
        g.add_agent(name, 0).expect("fresh graph accepts agents");
    }
    // per-channel front-end
    g.connect("hydroA", "filterA", 1, 1, 1, 0)
        .expect("valid place");
    g.connect("hydroB", "filterB", 1, 1, 1, 0)
        .expect("valid place");
    // beamforming fusion of the two channels
    g.connect("filterA", "fusion", 1, 1, 1, 0)
        .expect("valid place");
    g.connect("filterB", "fusion", 1, 1, 1, 0)
        .expect("valid place");
    // detection chain
    g.connect("fusion", "detect", 1, 1, 1, 0)
        .expect("valid place");
    g
}

/// The infinite-resource execution model: the application MoCC alone,
/// no platform constraint (every agent with `N = 0`).
///
/// # Errors
///
/// Propagates [`SdfError::Build`] (does not happen for the embedded
/// application).
pub fn infinite_resources() -> Result<Specification, SdfError> {
    crate::mocc::build_specification(&pam_application())
}

/// Deployment 1: a single-core DSP — every agent on the one processor,
/// one cycle of execution time each.
#[must_use]
pub fn deployment_single_core() -> (Platform, Deployment) {
    let platform = Platform::new("mono-dsp", 1);
    let mut d = Deployment::new();
    for agent in pam_application().agents() {
        d = d.assign(&agent.name, 0, 1);
    }
    (platform, d)
}

/// Deployment 2: a dual-core platform — acquisition front-end
/// (hydrophones + filters) on core 0, fusion/detection back-end on
/// core 1.
#[must_use]
pub fn deployment_dual_core() -> (Platform, Deployment) {
    let platform = Platform::new("dual-core", 2);
    let d = Deployment::new()
        .assign("hydroA", 0, 1)
        .assign("hydroB", 0, 1)
        .assign("filterA", 0, 1)
        .assign("filterB", 0, 1)
        .assign("fusion", 1, 1)
        .assign("detect", 1, 1);
    (platform, d)
}

/// Deployment 3: a quad-core platform — one core per channel chain,
/// one for fusion, one for detection.
#[must_use]
pub fn deployment_quad_core() -> (Platform, Deployment) {
    let platform = Platform::new("quad-core", 4);
    let d = Deployment::new()
        .assign("hydroA", 0, 1)
        .assign("filterA", 0, 1)
        .assign("hydroB", 1, 1)
        .assign("filterB", 1, 1)
        .assign("fusion", 2, 1)
        .assign("detect", 3, 1);
    (platform, d)
}

/// Builds the deployed execution model for one of the three platforms.
///
/// # Errors
///
/// Propagates deployment validation errors from
/// [`deploy`].
pub fn deployed(platform: &Platform, deployment: &Deployment) -> Result<Specification, SdfError> {
    deploy(&pam_application(), platform, deployment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::repetition_vector;
    use moccml_engine::{
        Engine, ExploreOptions, MaxParallel, Program, SafeMaxParallel, StateSpace,
    };
    use moccml_kernel::Specification;

    fn explore(spec: &Specification, options: &ExploreOptions) -> StateSpace {
        Program::compile(spec).explore(options)
    }

    #[test]
    fn application_is_consistent_and_uniform() {
        let g = pam_application();
        assert_eq!(
            repetition_vector(&g).expect("consistent"),
            vec![1; g.agents().len()]
        );
    }

    #[test]
    fn infinite_resources_run_never_deadlocks() {
        let spec = infinite_resources().expect("builds");
        let report = Engine::builder(spec).policy(MaxParallel).build().run(20);
        assert!(!report.deadlocked);
    }

    #[test]
    fn all_deployments_run_with_deadlock_avoidance() {
        // greedy (MaxParallel) scheduling can wedge on the constrained
        // platforms — starting an agent whose output place is full while
        // it holds the processor. The one-step-lookahead policy avoids
        // every such trap in PAM.
        for (platform, deployment) in [
            deployment_single_core(),
            deployment_dual_core(),
            deployment_quad_core(),
        ] {
            let spec = deployed(&platform, &deployment).expect("deploys");
            let report = Engine::builder(spec)
                .policy(SafeMaxParallel)
                .build()
                .run(30);
            assert!(!report.deadlocked, "{} deadlocked", platform.name());
            assert_eq!(report.steps_taken, 30);
        }
    }

    #[test]
    fn greedy_scheduling_wedges_on_the_single_core() {
        let (platform, deployment) = deployment_single_core();
        let spec = deployed(&platform, &deployment).expect("deploys");
        let report = Engine::builder(spec).policy(MaxParallel).build().run(30);
        assert!(report.deadlocked, "greedy schedule hits the wedge");
    }

    #[test]
    fn allocation_restricts_parallelism() {
        // the headline claim of the PAM study: deployments restrict the
        // attainable parallelism, visible in the explored state space.
        let infinite = infinite_resources().expect("builds");
        let space_inf = explore(
            &infinite,
            &ExploreOptions::default().with_max_states(20_000),
        );
        let (p1, d1) = deployment_single_core();
        let mono = deployed(&p1, &d1).expect("deploys");
        let space_mono = explore(&mono, &ExploreOptions::default().with_max_states(20_000));
        let (p4, d4) = deployment_quad_core();
        let quad = deployed(&p4, &d4).expect("deploys");
        let space_quad = explore(&quad, &ExploreOptions::default().with_max_states(20_000));

        let par_inf = space_inf.stats().max_step_parallelism;
        let par_mono = space_mono.stats().max_step_parallelism;
        let par_quad = space_quad.stats().max_step_parallelism;
        assert!(
            par_mono < par_quad && par_quad <= par_inf,
            "mono {par_mono} < quad {par_quad} <= inf {par_inf}"
        );
    }

    #[test]
    fn deadlock_states_shrink_with_core_count() {
        // the quantitative state-space result of the study: allocation
        // introduces reachable deadlock states (blocked writes while
        // holding the processor); more cores mean fewer of them, and the
        // infinite-resource model has none.
        let infinite = infinite_resources().expect("builds");
        let d_inf = explore(&infinite, &ExploreOptions::default())
            .deadlocks()
            .len();
        let mut counts = Vec::new();
        for (platform, deployment) in [
            deployment_single_core(),
            deployment_dual_core(),
            deployment_quad_core(),
        ] {
            let spec = deployed(&platform, &deployment).expect("deploys");
            let space = explore(&spec, &ExploreOptions::default().with_max_states(50_000));
            assert!(!space.truncated());
            counts.push(space.deadlocks().len());
        }
        assert_eq!(d_inf, 0);
        assert!(
            counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > d_inf,
            "mono {} > dual {} > quad {} > inf {}",
            counts[0],
            counts[1],
            counts[2],
            d_inf
        );
    }
}
