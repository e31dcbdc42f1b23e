//! The deployment extension sketched in the paper's conclusion: "we
//! also extended SDF (i.e., the syntax and the MoCC) to define a
//! deployment on a simple platform", taking "into account the
//! unavoidable impacts introduced by the choice of a deployment platform
//! on concurrency and timing".
//!
//! A [`Platform`] is a set of processors; a [`Deployment`] allocates
//! agents to processors and assigns each an execution time (processing
//! cycles). Deploying adds two effects to the application MoCC:
//!
//! * every deployed agent's `N` becomes its platform execution time, so
//!   activations occupy the processor for `N` `isExecuting` cycles;
//! * agents allocated to the same processor are serialized by a
//!   [`ProcessorMutex`] constraint: while one executes, no co-located
//!   agent may start.

use crate::error::SdfError;
use crate::graph::SdfGraph;
use crate::mocc::{agent_event, build_specification_with, MoccVariant};
use moccml_kernel::{Constraint, EventId, Specification, StateKey, Step, StepFormula};
use std::collections::HashMap;

/// An execution platform: a named set of processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Platform {
    name: String,
    processors: Vec<String>,
}

impl Platform {
    /// Creates a platform with `processor_count` processors named
    /// `p0…p{n−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `processor_count` is zero.
    #[must_use]
    pub fn new(name: &str, processor_count: usize) -> Self {
        assert!(
            processor_count > 0,
            "a platform needs at least one processor"
        );
        Platform {
            name: name.to_owned(),
            processors: (0..processor_count).map(|i| format!("p{i}")).collect(),
        }
    }

    /// Platform name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Processor names.
    #[must_use]
    pub fn processors(&self) -> &[String] {
        &self.processors
    }
}

/// An allocation of agents onto a platform, with per-agent execution
/// times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Deployment {
    /// `agent → processor index`.
    allocation: HashMap<String, usize>,
    /// `agent → processing cycles on its processor` (the paper's `N`).
    exec_cycles: HashMap<String, u32>,
}

impl Deployment {
    /// Creates an empty deployment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `agent` to `processor` with `cycles` execution cycles
    /// (builder style).
    #[must_use]
    pub fn assign(mut self, agent: &str, processor: usize, cycles: u32) -> Self {
        self.allocation.insert(agent.to_owned(), processor);
        self.exec_cycles.insert(agent.to_owned(), cycles);
        self
    }

    /// The processor of `agent`, if allocated.
    #[must_use]
    pub fn processor_of(&self, agent: &str) -> Option<usize> {
        self.allocation.get(agent).copied()
    }

    /// The execution time of `agent`, if allocated.
    #[must_use]
    pub fn cycles_of(&self, agent: &str) -> Option<u32> {
        self.exec_cycles.get(agent).copied()
    }

    /// Agents allocated to `processor`, in graph order.
    #[must_use]
    pub fn agents_on(&self, graph: &SdfGraph, processor: usize) -> Vec<String> {
        graph
            .agents()
            .iter()
            .filter(|a| self.allocation.get(&a.name) == Some(&processor))
            .map(|a| a.name.clone())
            .collect()
    }
}

/// Mutual exclusion of agents sharing one processor.
///
/// The constraint watches the `start` and `stop` events of the
/// co-located agents: while agent `i` executes (it has started and not
/// yet stopped), no other co-located agent may start — and two
/// co-located agents can never start in the same step. An atomic
/// activation (`start` and `stop` simultaneous, the `N = 0` case)
/// occupies the processor for that single step only. The local state is
/// the index of the executing agent, or `-1` while the processor is
/// free.
#[derive(Debug, Clone)]
pub struct ProcessorMutex {
    name: String,
    starts: Vec<EventId>,
    stops: Vec<EventId>,
}

impl ProcessorMutex {
    /// Creates a mutex over co-located agents given as
    /// `(start, stop)` event pairs.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are given (the mutex would be
    /// vacuous).
    #[must_use]
    pub fn new(name: &str, agents: &[(EventId, EventId)]) -> Self {
        assert!(agents.len() >= 2, "a mutex needs at least two agents");
        ProcessorMutex {
            name: name.to_owned(),
            starts: agents.iter().map(|(s, _)| *s).collect(),
            stops: agents.iter().map(|(_, t)| *t).collect(),
        }
    }

    /// Index of the agent executing in local state `local`, if any.
    #[must_use]
    pub fn busy_agent(&self, local: &StateKey) -> Option<usize> {
        let busy = local.values().first().copied()?;
        usize::try_from(busy)
            .ok()
            .filter(|&i| i < self.starts.len())
    }
}

impl Constraint for ProcessorMutex {
    fn name(&self) -> &str {
        &self.name
    }

    fn constrained_events(&self) -> Vec<EventId> {
        self.starts.iter().chain(&self.stops).copied().collect()
    }

    fn initial(&self) -> StateKey {
        StateKey::from_values([-1])
    }

    fn formula(&self, local: &StateKey) -> StepFormula {
        match self.busy_agent(local) {
            // the processor is taken: no agent may start
            Some(_) => StepFormula::none_of(self.starts.iter().copied()),
            None => StepFormula::at_most_one(&self.starts),
        }
    }

    fn next(&self, local: &StateKey, step: &Step) -> StateKey {
        let busy = match self.busy_agent(local) {
            Some(i) if !step.contains(self.stops[i]) => Some(i),
            Some(_) => None,
            // an atomic activation (start with simultaneous stop) frees
            // the processor within the step
            None => (0..self.starts.len())
                .find(|&i| step.contains(self.starts[i]))
                .filter(|&i| !step.contains(self.stops[i])),
        };
        StateKey::from_values([busy.map_or(-1, |i| i as i64)])
    }
}

/// Builds the execution model of `graph` deployed on `platform`
/// according to `deployment`.
///
/// The returned specification is the application MoCC (with each
/// agent's `N` replaced by its deployment execution time) conjoined
/// with one [`ProcessorMutex`] per processor hosting at least two
/// agents.
///
/// # Errors
///
/// Returns [`SdfError::UnknownAgent`] if the deployment names an agent
/// missing from the graph, [`SdfError::InvalidParameter`] if an agent is
/// not allocated or its processor is out of range, and [`SdfError::Build`]
/// for lower-level failures.
pub fn deploy(
    graph: &SdfGraph,
    platform: &Platform,
    deployment: &Deployment,
) -> Result<Specification, SdfError> {
    for (agent, &proc) in &deployment.allocation {
        if graph.agent_index(agent).is_none() {
            return Err(SdfError::UnknownAgent {
                name: agent.clone(),
            });
        }
        if proc >= platform.processors().len() {
            return Err(SdfError::InvalidParameter {
                reason: format!(
                    "agent `{agent}` allocated to processor {proc}, platform `{}` has {}",
                    platform.name(),
                    platform.processors().len()
                ),
            });
        }
    }
    // rebuild the graph with the deployment's execution times; every
    // agent must be allocated
    let deployed = {
        let mut g = SdfGraph::new(&format!("{}@{}", graph.name(), platform.name()));
        for agent in graph.agents() {
            let cycles =
                deployment
                    .cycles_of(&agent.name)
                    .ok_or_else(|| SdfError::InvalidParameter {
                        reason: format!("agent `{}` is not allocated", agent.name),
                    })?;
            g.add_agent(&agent.name, cycles)?;
        }
        for place in graph.places() {
            let out = &graph.ports()[place.output_port];
            let inp = &graph.ports()[place.input_port];
            g.connect(
                &graph.agents()[out.agent].name,
                &graph.agents()[inp.agent].name,
                out.rate,
                inp.rate,
                place.capacity,
                place.delay,
            )?;
        }
        g
    };
    let mut spec = build_specification_with(&deployed, MoccVariant::Standard)?;
    for (proc_idx, proc_name) in platform.processors().iter().enumerate() {
        let agents = deployment.agents_on(&deployed, proc_idx);
        if agents.len() < 2 {
            continue;
        }
        let pairs: Vec<(EventId, EventId)> = agents
            .iter()
            .map(|a| {
                let start = spec
                    .universe()
                    .lookup(&agent_event(a, "start"))
                    .expect("agent events generated by build_specification");
                let stop = spec
                    .universe()
                    .lookup(&agent_event(a, "stop"))
                    .expect("agent events generated by build_specification");
                (start, stop)
            })
            .collect();
        spec.add_constraint(Box::new(ProcessorMutex::new(
            &format!("{proc_name}.mutex"),
            &pairs,
        )));
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_engine::{Engine, ExploreOptions, MaxParallel, Program, StateSpace};
    use moccml_kernel::{Specification, Universe};

    fn explore(spec: &Specification, options: &ExploreOptions) -> StateSpace {
        Program::compile(spec).explore(options)
    }

    fn two_agent_graph() -> SdfGraph {
        let mut g = SdfGraph::new("pair");
        g.add_agent("a", 0).expect("a");
        g.add_agent("b", 0).expect("b");
        g
    }

    /// Moves `m` from `local` by `step`, first checking that the formula
    /// of `local` accepts it (`next` itself only advances).
    fn fire_ok(m: &ProcessorMutex, local: &mut StateKey, step: &Step, what: &str) {
        assert!(m.formula(local).eval(step), "{what}: {step} rejected");
        *local = m.next(local, step);
    }

    fn mutex_fixture() -> (ProcessorMutex, EventId, EventId, EventId, EventId) {
        let mut u = Universe::new();
        let sa = u.event("a.start");
        let ta = u.event("a.stop");
        let sb = u.event("b.start");
        let tb = u.event("b.stop");
        let m = ProcessorMutex::new("p0.mutex", &[(sa, ta), (sb, tb)]);
        (m, sa, ta, sb, tb)
    }

    #[test]
    fn mutex_blocks_simultaneous_starts() {
        let (m, sa, _, sb, _) = mutex_fixture();
        assert!(m.formula(&m.initial()).eval(&Step::from_events([sa])));
        assert!(!m.formula(&m.initial()).eval(&Step::from_events([sa, sb])));
    }

    #[test]
    fn mutex_blocks_start_while_busy() {
        let (m, sa, ta, sb, _) = mutex_fixture();
        let mut l = m.initial();
        fire_ok(&m, &mut l, &Step::from_events([sa]), "a starts");
        assert_eq!(m.busy_agent(&l), Some(0));
        assert!(!m.formula(&l).eval(&Step::from_events([sb])));
        fire_ok(&m, &mut l, &Step::from_events([ta]), "a stops");
        assert_eq!(m.busy_agent(&l), None);
        assert!(m.formula(&l).eval(&Step::from_events([sb])));
    }

    #[test]
    fn atomic_activation_does_not_hold_the_processor() {
        let (m, sa, ta, sb, _) = mutex_fixture();
        let mut l = m.initial();
        fire_ok(&m, &mut l, &Step::from_events([sa, ta]), "atomic");
        assert_eq!(m.busy_agent(&l), None);
        assert!(m.formula(&l).eval(&Step::from_events([sb])));
    }

    #[test]
    fn mutex_state_round_trip() {
        let (m, sa, _, _, _) = mutex_fixture();
        let mut u = Universe::new();
        for name in ["a.start", "a.stop", "b.start", "b.stop"] {
            u.event(name);
        }
        let mut spec = Specification::new("s", u);
        spec.add_constraint(Box::new(m.clone()));
        spec.fire(&Step::from_events([sa])).expect("start");
        let key = spec.state_key();
        spec.reset();
        assert_eq!(m.busy_agent(&spec.locals()[0]), None);
        spec.restore(&key).expect("restore");
        assert_eq!(m.busy_agent(&spec.locals()[0]), Some(0));
        assert!(spec.restore(&StateKey::from_values([2, 9, 0])).is_err());
        assert!(spec.restore(&StateKey::new()).is_err());
    }

    #[test]
    fn deployment_requires_full_allocation() {
        let g = two_agent_graph();
        let platform = Platform::new("mono", 1);
        let d = Deployment::new().assign("a", 0, 1); // b missing
        assert!(matches!(
            deploy(&g, &platform, &d),
            Err(SdfError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn deployment_validates_agent_and_processor() {
        let g = two_agent_graph();
        let platform = Platform::new("mono", 1);
        let d = Deployment::new()
            .assign("ghost", 0, 1)
            .assign("a", 0, 1)
            .assign("b", 0, 1);
        assert!(matches!(
            deploy(&g, &platform, &d),
            Err(SdfError::UnknownAgent { .. })
        ));
        let d = Deployment::new().assign("a", 5, 1).assign("b", 0, 1);
        assert!(matches!(
            deploy(&g, &platform, &d),
            Err(SdfError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn colocated_independent_agents_are_serialized() {
        // without a platform both agents can fire in one step; on one
        // processor they cannot — the deployment's impact on
        // parallelism, observable in the state space.
        let g = two_agent_graph();
        let infinite = crate::mocc::build_specification(&g).expect("builds");
        let space_inf = explore(&infinite, &ExploreOptions::default());
        // both port-less agents fire atomically: {start, stop} × 2
        assert_eq!(space_inf.stats().max_step_parallelism, 4);

        let platform = Platform::new("mono", 1);
        let d = Deployment::new().assign("a", 0, 0).assign("b", 0, 0);
        let deployed = deploy(&g, &platform, &d).expect("deploys");
        let space_mono = explore(&deployed, &ExploreOptions::default());
        assert_eq!(space_mono.stats().max_step_parallelism, 2); // one at a time
    }

    #[test]
    fn execution_time_serializes_across_steps() {
        let g = two_agent_graph();
        let platform = Platform::new("mono", 1);
        let d = Deployment::new().assign("a", 0, 2).assign("b", 0, 2);
        let deployed = deploy(&g, &platform, &d).expect("deploys");
        let mut sim = Engine::builder(deployed).policy(MaxParallel).build();
        let report = sim.run(12);
        assert!(!report.deadlocked);
        let u = sim.specification().universe();
        let sa = u.lookup("a.start").expect("e");
        let sb = u.lookup("b.start").expect("e");
        // while one agent executes (2 cycles) the other cannot start:
        // the two starts never coincide
        for step in report.schedule.iter() {
            assert!(!(step.contains(sa) && step.contains(sb)));
        }
        // the processor is never idle for long: activations do happen
        assert!(report.schedule.occurrences(sa) + report.schedule.occurrences(sb) >= 2);
    }

    #[test]
    fn separate_processors_preserve_parallelism() {
        let g = two_agent_graph();
        let platform = Platform::new("dual", 2);
        let d = Deployment::new().assign("a", 0, 0).assign("b", 1, 0);
        let deployed = deploy(&g, &platform, &d).expect("deploys");
        let space = explore(&deployed, &ExploreOptions::default());
        // no mutex instantiated: same parallelism as infinite resources
        assert_eq!(space.stats().max_step_parallelism, 4);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn mutex_needs_two_agents() {
        let mut u = Universe::new();
        let s = u.event("s");
        let t = u.event("t");
        let _ = ProcessorMutex::new("m", &[(s, t)]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn platform_needs_processors() {
        let _ = Platform::new("empty", 0);
    }
}
