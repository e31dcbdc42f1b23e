//! Analyses over explored state spaces: deadlock witnesses, liveness of
//! events, bounded reachability — the "validation" half of the paper's
//! "simulation and analysis" promise.

use crate::explorer::StateSpace;
use moccml_kernel::{EventId, Schedule, Step};
use std::collections::VecDeque;

/// A counterexample: the schedule prefix leading from the initial state
/// to a problematic state.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The steps of the counterexample, in order.
    pub schedule: Schedule,
    /// Index of the reached state in the state space.
    pub state: usize,
}

/// Finds a *shortest* schedule leading to a deadlock state, if any —
/// the counterexample a designer asks for when exploration reports a
/// wedged allocation.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Precedence;
/// use moccml_engine::{deadlock_witness, ExploreOptions, Program};
/// use moccml_kernel::{Specification, Universe};
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("d", u);
/// spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
/// spec.add_constraint(Box::new(Precedence::strict("b<a", b, a)));
/// let space = Program::new(spec).explore(&ExploreOptions::default());
/// let witness = deadlock_witness(&space).expect("deadlocked spec");
/// assert_eq!(witness.schedule.len(), 0); // already dead at the start
/// ```
#[must_use]
pub fn deadlock_witness(space: &StateSpace) -> Option<Witness> {
    let &state = space.deadlocks().first()?;
    Some(witness_to(space, state))
}

/// Finds a shortest schedule to any state satisfying `target`.
///
/// State indices follow BFS discovery order, so the first index that
/// satisfies `target` is a nearest one, and its discovering edges give
/// the schedule.
#[must_use]
pub fn shortest_path_to<F: Fn(usize) -> bool>(space: &StateSpace, target: F) -> Option<Witness> {
    let state = (0..space.state_count()).find(|&s| target(s))?;
    Some(witness_to(space, state))
}

fn witness_to(space: &StateSpace, state: usize) -> Witness {
    Witness {
        schedule: space.graph().schedule_to(state),
        state,
    }
}

/// Whether `event` occurs on at least one transition (it is not dead in
/// the explored fragment). Reads the graph's table of distinct steps,
/// not every transition.
#[must_use]
pub fn is_event_fireable(space: &StateSpace, event: EventId) -> bool {
    space
        .graph()
        .steps()
        .iter()
        .any(|step| step.contains(event))
}

/// Events that never occur on any transition of the explored fragment —
/// dead events usually reveal a mis-wired mapping or an over-constrained
/// MoCC.
///
/// Computed as a single set difference — the union of the graph's
/// distinct steps subtracted from the universe — instead of scanning
/// every transition once per event.
#[must_use]
pub fn dead_events(space: &StateSpace, universe: &moccml_kernel::Universe) -> Vec<EventId> {
    let fired = space
        .graph()
        .steps()
        .iter()
        .fold(Step::new(), |acc, step| acc.union(step));
    let all: Step = universe.iter().collect();
    all.difference(&fired).iter().collect()
}

/// All events that are live in the explored fragment — the memoised
/// all-events variant of [`is_event_live`], answering every event in
/// one fixpoint instead of one full reachability scan per call.
///
/// An event is live iff from *every* state some state with an outgoing
/// transition firing it stays reachable. Equivalently: the event
/// belongs to `F(s)` for every state `s`, where `F(s)` is the set of
/// events occurring on transitions forward-reachable from `s`. `F` is
/// computed as one backward fixpoint over the transition graph with
/// [`Step`] bitsets, so the cost is shared across all events of
/// `universe` — callers that loop over events should use this instead
/// of [`is_event_live`] per event.
#[must_use]
pub fn live_events(space: &StateSpace, universe: &moccml_kernel::Universe) -> Vec<EventId> {
    let n = space.state_count();
    if n == 0 {
        return Vec::new();
    }
    // reverse adjacency (deduplicated predecessor lists)
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut reach: Vec<Step> = vec![Step::new(); n];
    for (src, step, dst) in space.transitions() {
        preds[dst].push(src);
        reach[src] = reach[src].union(step);
    }
    for p in &mut preds {
        p.sort_unstable();
        p.dedup();
    }
    // backward fixpoint: F(src) ⊇ F(dst) for every edge src → dst
    let mut queue: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(state) = queue.pop_front() {
        queued[state] = false;
        let here = reach[state].clone();
        for &p in &preds[state] {
            let merged = reach[p].union(&here);
            if merged != reach[p] {
                reach[p] = merged;
                if !queued[p] {
                    queued[p] = true;
                    queue.push_back(p);
                }
            }
        }
    }
    // live = events in the intersection of every state's F
    let everywhere = reach
        .iter()
        .skip(1)
        .fold(reach[0].clone(), |acc, f| acc.intersection(f));
    universe
        .iter()
        .filter(|e| everywhere.contains(*e))
        .collect()
}

/// Whether every state of the explored fragment can still reach a state
/// from which `event` fires (a weak liveness check; exact on fully
/// explored spaces).
///
/// One full backward-reachability scan per call — when querying several
/// events of one space, use [`live_events`] instead, which amortises
/// the scan across the whole universe.
#[must_use]
pub fn is_event_live(space: &StateSpace, event: EventId) -> bool {
    // states with an outgoing transition firing `event`
    let fire_states: Vec<usize> = space
        .transitions()
        .filter(|(_, step, _)| step.contains(event))
        .map(|(src, _, _)| src)
        .collect();
    if fire_states.is_empty() {
        return false;
    }
    // backward reachability from fire_states
    let n = space.state_count();
    let mut can_reach = vec![false; n];
    let mut queue: VecDeque<usize> = fire_states.into_iter().collect();
    for &s in &queue {
        can_reach[s] = true;
    }
    while let Some(state) = queue.pop_front() {
        for (src, _, dst) in space.transitions() {
            if dst == state && !can_reach[src] {
                can_reach[src] = true;
                queue.push_back(src);
            }
        }
    }
    can_reach.iter().all(|&r| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::ExploreOptions;
    use crate::program::Program;
    use moccml_ccsl::{Alternation, Precedence};
    use moccml_kernel::{Specification, Universe};

    fn explore(spec: &Specification, options: &ExploreOptions) -> StateSpace {
        Program::compile(spec).explore(options)
    }

    fn alternating() -> (Specification, EventId, EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("x", a, b)));
        (spec, a, b)
    }

    #[test]
    fn live_cycle_has_no_witness_and_live_events() {
        let (spec, a, b) = alternating();
        let space = explore(&spec, &ExploreOptions::default());
        assert!(deadlock_witness(&space).is_none());
        assert!(is_event_live(&space, a));
        assert!(is_event_live(&space, b));
        assert!(dead_events(&space, spec.universe()).is_empty());
        assert_eq!(live_events(&space, spec.universe()), vec![a, b]);
    }

    #[test]
    fn live_events_agrees_with_per_event_scans() {
        // a wedgeable spec: some events live, some not
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("wedge", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(1)));
        spec.add_constraint(Box::new(Precedence::strict("c<b", c, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        let space = explore(&spec, &ExploreOptions::default());
        let live = live_events(&space, spec.universe());
        for e in spec.universe().iter() {
            assert_eq!(
                live.contains(&e),
                is_event_live(&space, e),
                "event {e} disagrees"
            );
        }
    }

    #[test]
    fn witness_reaches_a_bounded_deadlock() {
        // a < b with bound 1, and b forbidden entirely via a second
        // constraint ⇒ after one `a` the system wedges.
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("wedge", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(1)));
        // b requires c first, and c requires b first: both dead
        spec.add_constraint(Box::new(Precedence::strict("c<b", c, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        let space = explore(&spec, &ExploreOptions::default());
        let witness = deadlock_witness(&space).expect("wedges after a");
        assert_eq!(witness.schedule.len(), 1);
        assert!(witness.schedule.steps()[0].contains(a));
        assert!(space.deadlocks().contains(&witness.state));
    }

    #[test]
    fn dead_events_are_reported() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("half-dead", u);
        // b strictly precedes a, and a strictly precedes b: both dead —
        // but the space still has its initial state.
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<a", b, a)));
        let space = explore(&spec, &ExploreOptions::default());
        let dead = dead_events(&space, spec.universe());
        assert_eq!(dead.len(), 2);
        assert!(!is_event_fireable(&space, a));
        assert!(!is_event_live(&space, b));
    }

    #[test]
    fn shortest_path_targets_arbitrary_predicates() {
        let (spec, _, _) = alternating();
        let space = explore(&spec, &ExploreOptions::default());
        // reach the non-initial state of the 2-cycle
        let other = (0..space.state_count())
            .find(|&s| s != space.initial())
            .expect("two states");
        let w = shortest_path_to(&space, |s| s == other).expect("reachable");
        assert_eq!(w.schedule.len(), 1);
        assert_eq!(w.state, other);
    }
}
