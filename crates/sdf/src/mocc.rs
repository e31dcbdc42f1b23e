//! The SDF MoCC, expressed in MoCCML exactly as in the paper.
//!
//! Two constraint automata reproduce the SDF semantics (Sec. III-A):
//!
//! * **`PlaceConstraint`** (Fig. 3) — between the `write` event of an
//!   output port and the `read` event of an input port linked by a
//!   place: `read` cannot occur without enough tokens, `write` cannot
//!   occur without enough room; `size` starts at `itsDelay`.
//! * **`AgentConstraint`** — for every agent: `isExecuting` occurs only
//!   between `start` and `stop`, `stop` occurs at the N-th `isExecuting`
//!   after `start`, and when `N = 0` the activation collapses to a
//!   single instant (`start` and `stop` simultaneous).
//!
//! The couplings "`read` is simultaneous to `start`" and "`stop` is
//! simultaneous to a `write`" are declarative coincidences, part of the
//! mapping.
//!
//! The paper notes the automaton "could be modified to provide variants
//! of the semantics. For instance, one could add a transition to specify
//! that read and write can be done simultaneously (as supported by
//! multiport memories)" — [`MoccVariant::Multiport`] is that variant.

use crate::error::SdfError;
use crate::graph::SdfGraph;
use moccml_automata::{parse_library, RelationLibrary};
use moccml_ccsl::Coincidence;
use moccml_kernel::{Specification, Universe};
use std::sync::Arc;

/// Textual MoCCML source of the SDF relation library.
///
/// `PlaceConstraint` transcribes Fig. 3 of the paper;
/// `PlaceConstraintMultiport` adds the simultaneous read/write
/// transition; `AgentConstraint` implements the four rules of
/// Sec. III-A.
pub const SDF_LIBRARY_SOURCE: &str = r#"
library SimpleSDFRelationLibrary {
  // Fig. 3: bounded place between a writing and a reading port
  constraint PlaceConstraint(write: event, read: event,
                             pushRate: int, popRate: int,
                             itsDelay: int, itsCapacity: int)
  automaton PlaceConstraintDef implements PlaceConstraint {
    var size: int = itsDelay;
    initial state S0;
    final state S0;
    from S0 to S0 when {write} forbid {read}
      guard [size <= itsCapacity - pushRate] do size += pushRate;
    from S0 to S0 when {read} forbid {write}
      guard [size >= popRate] do size -= popRate;
  }

  // Variant: multiport memory, read and write may happen simultaneously
  constraint PlaceConstraintMultiport(write: event, read: event,
                                      pushRate: int, popRate: int,
                                      itsDelay: int, itsCapacity: int)
  automaton PlaceConstraintMultiportDef implements PlaceConstraintMultiport {
    var size: int = itsDelay;
    initial state S0;
    final state S0;
    from S0 to S0 when {write} forbid {read}
      guard [size <= itsCapacity - pushRate] do size += pushRate;
    from S0 to S0 when {read} forbid {write}
      guard [size >= popRate] do size -= popRate;
    from S0 to S0 when {write, read}
      guard [size >= popRate && size + pushRate - popRate <= itsCapacity]
      do size += pushRate - popRate;
  }

  // Sec. III-A: activation protocol of an agent
  constraint AgentConstraint(start: event, stop: event, exec: event, n: int)
  automaton AgentConstraintDef implements AgentConstraint {
    var c: int = 0;
    initial state Idle;
    final state Idle;
    state Busy;
    // N = 0: the SDF abstraction, start and stop are simultaneous
    from Idle to Idle when {start, stop} forbid {exec} guard [n == 0];
    // N > 0: start opens the activation
    from Idle to Busy when {start} forbid {stop, exec} guard [n > 0] do c = 0;
    // processing cycles strictly before the last one
    from Busy to Busy when {exec} forbid {start, stop} guard [c < n - 1] do c += 1;
    // stop occurs at the N-th occurrence of isExecuting after start
    from Busy to Idle when {exec, stop} forbid {start} guard [c == n - 1] do c = 0;
  }
}
"#;

/// Parses [`SDF_LIBRARY_SOURCE`] into a relation library.
///
/// # Panics
///
/// Never panics in practice: the embedded source is covered by tests.
#[must_use]
pub fn sdf_library() -> Arc<RelationLibrary> {
    Arc::new(parse_library(SDF_LIBRARY_SOURCE).expect("embedded SDF library parses"))
}

/// Which place semantics to weave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MoccVariant {
    /// Fig. 3 as printed: a place serves one port per step.
    #[default]
    Standard,
    /// The multiport-memory variant: simultaneous read and write.
    Multiport,
}

impl MoccVariant {
    fn place_constraint_name(self) -> &'static str {
        match self {
            MoccVariant::Standard => "PlaceConstraint",
            MoccVariant::Multiport => "PlaceConstraintMultiport",
        }
    }
}

/// Name of an agent event (`start`, `stop`, `isExecuting`).
#[must_use]
pub fn agent_event(agent: &str, event: &str) -> String {
    format!("{agent}.{event}")
}

/// Name of a port event (`read`, `write`); `port` is already
/// `agent.inK` / `agent.outK`.
#[must_use]
pub fn port_event(port: &str, event: &str) -> String {
    format!("{port}.{event}")
}

/// Builds the execution model of `graph` with the standard (Fig. 3)
/// place semantics.
///
/// # Errors
///
/// Returns [`SdfError::Build`] when constraint instantiation fails
/// (which would indicate an internal inconsistency).
pub fn build_specification(graph: &SdfGraph) -> Result<Specification, SdfError> {
    build_specification_with(graph, MoccVariant::Standard)
}

/// Builds the execution model of `graph` with an explicit MoCC variant.
///
/// Generated events, per agent `a`: `a.start`, `a.stop`,
/// `a.isExecuting`; per port `p`: `p.read` or `p.write`. Instantiated
/// constraints: one `PlaceConstraint` per place, one `AgentConstraint`
/// per agent, and coincidences `read = start` (input ports) and
/// `write = stop` (output ports).
///
/// # Errors
///
/// Returns [`SdfError::Build`] when constraint instantiation fails.
pub fn build_specification_with(
    graph: &SdfGraph,
    variant: MoccVariant,
) -> Result<Specification, SdfError> {
    let library = sdf_library();
    let mut universe = Universe::new();

    for agent in graph.agents() {
        universe.event(&agent_event(&agent.name, "start"));
        universe.event(&agent_event(&agent.name, "stop"));
        universe.event(&agent_event(&agent.name, "isExecuting"));
    }
    for port in graph.ports() {
        match port.direction {
            crate::graph::PortDirection::Input => universe.event(&port_event(&port.name, "read")),
            crate::graph::PortDirection::Output => universe.event(&port_event(&port.name, "write")),
        };
    }

    let mut spec = Specification::new(graph.name(), universe);

    // PlaceConstraint per place (Listing 1's inv PlaceLimitation)
    for place in graph.places() {
        let out = &graph.ports()[place.output_port];
        let inp = &graph.ports()[place.input_port];
        let w = spec
            .universe()
            .lookup(&port_event(&out.name, "write"))
            .expect("event generated above");
        let r = spec
            .universe()
            .lookup(&port_event(&inp.name, "read"))
            .expect("event generated above");
        let instance = library
            .instantiate(
                variant.place_constraint_name(),
                &format!("{}.PlaceLimitation", graph.place_label(place)),
            )?
            .bind_event("write", w)
            .bind_event("read", r)
            .bind_int("pushRate", i64::from(out.rate))
            .bind_int("popRate", i64::from(inp.rate))
            .bind_int("itsDelay", i64::from(place.delay))
            .bind_int("itsCapacity", i64::from(place.capacity))
            .finish()?;
        spec.add_constraint(Box::new(instance));
    }

    // AgentConstraint per agent + read/write coincidences
    for (a, agent) in graph.agents().iter().enumerate() {
        let start = spec
            .universe()
            .lookup(&agent_event(&agent.name, "start"))
            .expect("event generated above");
        let stop = spec
            .universe()
            .lookup(&agent_event(&agent.name, "stop"))
            .expect("event generated above");
        let exec = spec
            .universe()
            .lookup(&agent_event(&agent.name, "isExecuting"))
            .expect("event generated above");
        let instance = library
            .instantiate("AgentConstraint", &format!("{}.Activation", agent.name))?
            .bind_event("start", start)
            .bind_event("stop", stop)
            .bind_event("exec", exec)
            .bind_int("n", i64::from(agent.cycles))
            .finish()?;
        spec.add_constraint(Box::new(instance));

        // Sec. III-A items 1 and 4
        for p in graph.input_ports(a) {
            let read = spec
                .universe()
                .lookup(&port_event(&graph.ports()[p].name, "read"))
                .expect("event generated above");
            spec.add_constraint(Box::new(Coincidence::new(
                &format!("{}.readWithStart", graph.ports()[p].name),
                read,
                start,
            )));
        }
        for p in graph.output_ports(a) {
            let write = spec
                .universe()
                .lookup(&port_event(&graph.ports()[p].name, "write"))
                .expect("event generated above");
            spec.add_constraint(Box::new(Coincidence::new(
                &format!("{}.writeWithStop", graph.ports()[p].name),
                write,
                stop,
            )));
        }
    }

    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_engine::{
        Engine, ExploreOptions, Lexicographic, Program, SolverOptions, StateSpace,
    };
    use moccml_kernel::{Specification, Step};

    fn acceptable_steps(spec: &Specification, options: &SolverOptions) -> Vec<Step> {
        Program::compile(spec).cursor().acceptable_steps(options)
    }

    fn explore(spec: &Specification, options: &ExploreOptions) -> StateSpace {
        Program::compile(spec).explore(options)
    }

    fn producer_consumer(capacity: u32, delay: u32) -> SdfGraph {
        let mut g = SdfGraph::new("pc");
        g.add_agent("prod", 0).expect("prod");
        g.add_agent("cons", 0).expect("cons");
        g.connect("prod", "cons", 1, 1, capacity, delay)
            .expect("place");
        g
    }

    #[test]
    fn library_parses_and_contains_three_constraints() {
        let lib = sdf_library();
        assert!(lib.definition_for("PlaceConstraint").is_some());
        assert!(lib.definition_for("PlaceConstraintMultiport").is_some());
        assert!(lib.definition_for("AgentConstraint").is_some());
        for def in lib.definitions() {
            assert!(
                def.determinism_warnings().is_empty(),
                "{}: {:?}",
                def.name(),
                def.determinism_warnings()
            );
        }
    }

    #[test]
    fn n_zero_collapses_activation_to_one_instant() {
        // Sec. III-A: "In the case where N equals 0 (i.e., the SDF
        // abstraction), then the read, the start, the stop and the
        // write are simultaneous."
        let g = producer_consumer(2, 0);
        let spec = build_specification(&g).expect("builds");
        let steps = acceptable_steps(&spec, &SolverOptions::default());
        let u = spec.universe();
        let prod_fire: Step = [
            u.lookup("prod.start").expect("e"),
            u.lookup("prod.stop").expect("e"),
            u.lookup("prod.out0.write").expect("e"),
        ]
        .into_iter()
        .collect();
        // empty place: the only acceptable step is the producer's
        // atomic activation
        assert_eq!(steps, vec![prod_fire]);
    }

    #[test]
    fn consumer_fires_only_after_producer() {
        let g = producer_consumer(2, 0);
        let mut sim = Engine::builder(build_specification(&g).expect("builds"))
            .policy(Lexicographic)
            .build();
        let report = sim.run(6);
        assert!(!report.deadlocked);
        let u = sim.specification().universe();
        let cons_start = u.lookup("cons.start").expect("e");
        let prod_start = u.lookup("prod.start").expect("e");
        let first_cons = report.schedule.first_occurrence(cons_start).expect("fired");
        let first_prod = report.schedule.first_occurrence(prod_start).expect("fired");
        assert!(first_prod < first_cons);
    }

    #[test]
    fn delay_lets_consumer_fire_first() {
        let g = producer_consumer(2, 1);
        let spec = build_specification(&g).expect("builds");
        let u = spec.universe();
        let cons_fire: Step = [
            u.lookup("cons.start").expect("e"),
            u.lookup("cons.stop").expect("e"),
            u.lookup("cons.in0.read").expect("e"),
        ]
        .into_iter()
        .collect();
        assert!(spec.accepts(&cons_fire));
    }

    #[test]
    fn capacity_back_pressures_producer() {
        let g = producer_consumer(1, 0);
        let mut spec = build_specification(&g).expect("builds");
        let u = spec.universe();
        let prod_fire: Step = [
            u.lookup("prod.start").expect("e"),
            u.lookup("prod.stop").expect("e"),
            u.lookup("prod.out0.write").expect("e"),
        ]
        .into_iter()
        .collect();
        spec.fire(&prod_fire).expect("first activation");
        assert!(!spec.accepts(&prod_fire), "place full: write forbidden");
    }

    #[test]
    fn standard_variant_forbids_simultaneous_read_write() {
        let g = producer_consumer(1, 0);
        let mut spec = build_specification(&g).expect("builds");
        let u = spec.universe();
        let all: Step = [
            u.lookup("prod.start").expect("e"),
            u.lookup("prod.stop").expect("e"),
            u.lookup("prod.out0.write").expect("e"),
            u.lookup("cons.start").expect("e"),
            u.lookup("cons.stop").expect("e"),
            u.lookup("cons.in0.read").expect("e"),
        ]
        .into_iter()
        .collect();
        let prod_fire: Step = [
            u.lookup("prod.start").expect("e"),
            u.lookup("prod.stop").expect("e"),
            u.lookup("prod.out0.write").expect("e"),
        ]
        .into_iter()
        .collect();
        spec.fire(&prod_fire).expect("fill");
        assert!(!spec.accepts(&all), "Fig. 3 place serves one port per step");
    }

    #[test]
    fn multiport_variant_allows_simultaneous_read_write() {
        // E4: the paper's multiport-memory variant strictly enlarges
        // the acceptable steps.
        let g = producer_consumer(1, 0);
        let mut spec = build_specification_with(&g, MoccVariant::Multiport).expect("builds");
        let u = spec.universe();
        let prod_fire: Step = [
            u.lookup("prod.start").expect("e"),
            u.lookup("prod.stop").expect("e"),
            u.lookup("prod.out0.write").expect("e"),
        ]
        .into_iter()
        .collect();
        let all: Step = [
            u.lookup("prod.start").expect("e"),
            u.lookup("prod.stop").expect("e"),
            u.lookup("prod.out0.write").expect("e"),
            u.lookup("cons.start").expect("e"),
            u.lookup("cons.stop").expect("e"),
            u.lookup("cons.in0.read").expect("e"),
        ]
        .into_iter()
        .collect();
        spec.fire(&prod_fire).expect("fill");
        assert!(spec.accepts(&all), "multiport place pipelines");
    }

    #[test]
    fn execution_time_stretches_activations() {
        // E5: N > 0 — stop at the N-th isExecuting after start.
        let mut g = SdfGraph::new("timed");
        g.add_agent("a", 2).expect("a");
        let mut spec = build_specification(&g).expect("builds");
        let u = spec.universe();
        let start = u.lookup("a.start").expect("e");
        let stop = u.lookup("a.stop").expect("e");
        let exec = u.lookup("a.isExecuting").expect("e");
        // atomic activation is now forbidden
        assert!(!spec.accepts(&Step::from_events([start, stop])));
        spec.fire(&Step::from_events([start])).expect("start");
        // first cycle: no stop yet
        assert!(!spec.accepts(&Step::from_events([exec, stop])));
        spec.fire(&Step::from_events([exec])).expect("cycle 1");
        // second (=N-th) cycle must carry the stop
        assert!(!spec.accepts(&Step::from_events([exec])));
        spec.fire(&Step::from_events([exec, stop]))
            .expect("cycle 2 + stop");
    }

    #[test]
    fn is_executing_only_between_start_and_stop() {
        let mut g = SdfGraph::new("timed");
        g.add_agent("a", 1).expect("a");
        let spec = build_specification(&g).expect("builds");
        let u = spec.universe();
        let exec = u.lookup("a.isExecuting").expect("e");
        assert!(!spec.accepts(&Step::from_events([exec])), "not started yet");
    }

    #[test]
    fn multirate_graph_respects_rates() {
        // a pushes 2 per activation, b pops 3: b needs two a-activations
        let mut g = SdfGraph::new("mr");
        g.add_agent("a", 0).expect("a");
        g.add_agent("b", 0).expect("b");
        g.connect("a", "b", 2, 3, 6, 0).expect("place");
        let mut sim = Engine::builder(build_specification(&g).expect("builds"))
            .policy(Lexicographic)
            .build();
        let report = sim.run(10);
        assert!(!report.deadlocked);
        let u = sim.specification().universe();
        let a_start = u.lookup("a.start").expect("e");
        let b_start = u.lookup("b.start").expect("e");
        let a_count = report.schedule.occurrences(a_start);
        let b_count = report.schedule.occurrences(b_start);
        // token conservation: 2·#a − 3·#b must be within [0, capacity]
        let balance = 2 * a_count as i64 - 3 * b_count as i64;
        assert!((0..=6).contains(&balance), "balance = {balance}");
        assert!(b_count >= 1, "consumer fired at least once");
    }

    #[test]
    fn zero_delay_cycle_deadlocks() {
        let mut g = SdfGraph::new("cycle");
        g.add_agent("a", 0).expect("a");
        g.add_agent("b", 0).expect("b");
        g.connect("a", "b", 1, 1, 1, 0).expect("p1");
        g.connect("b", "a", 1, 1, 1, 0).expect("p2");
        let spec = build_specification(&g).expect("builds");
        let space = explore(&spec, &ExploreOptions::default());
        assert_eq!(space.state_count(), 1);
        assert_eq!(space.deadlocks(), &[0], "no delay: classic SDF deadlock");
    }

    #[test]
    fn delayed_cycle_runs_forever() {
        let mut g = SdfGraph::new("ring");
        g.add_agent("a", 0).expect("a");
        g.add_agent("b", 0).expect("b");
        g.connect("a", "b", 1, 1, 1, 0).expect("p1");
        g.connect("b", "a", 1, 1, 1, 1).expect("p2");
        let spec = build_specification(&g).expect("builds");
        let space = explore(&spec, &ExploreOptions::default());
        assert!(space.deadlocks().is_empty());
        assert!(!space.truncated());
    }

    #[test]
    fn exploration_state_count_matches_place_occupancies() {
        // one place, capacity 2, rates 1: states = size ∈ {0,1,2}
        let g = producer_consumer(2, 0);
        let spec = build_specification(&g).expect("builds");
        let space = explore(&spec, &ExploreOptions::default());
        assert_eq!(space.state_count(), 3);
        assert!(!space.truncated());
        assert!(space.deadlocks().is_empty());
    }
}
