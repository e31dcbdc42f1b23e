//! Property coverage for the post-hoc analysis queries (ISSUE 4
//! satellites):
//!
//! * every `Witness` returned by `shortest_path_to` and
//!   `deadlock_witness` **replays** via `Cursor::fire` from the initial
//!   state and lands exactly on the reported state;
//! * `deadlock_witness` schedules end in genuinely wedged states and
//!   are shortest (length = BFS depth of the nearest deadlock);
//! * the memoised `live_events` agrees event-by-event with the
//!   original per-event `is_event_live` reachability scan;
//! * `shortest_path_to` and `deadlock_witness`, which read the
//!   explorer's discovering edges, agree exactly — schedule and state —
//!   with a reference BFS over the transition list, at 1 and 2 workers
//!   and on truncated spaces.
//!
//! Runs on the deterministic in-repo `moccml-testkit` harness.

use moccml_engine::{
    deadlock_witness, is_event_live, live_events, shortest_path_to, ExploreOptions, Program,
    SolverOptions, StateSpace, Witness,
};
use moccml_kernel::{Schedule, Step};
use moccml_testkit::{cases, prop_assert, prop_assert_eq};
use std::collections::VecDeque;
use std::sync::Arc;

mod common;
use common::{build, random_recipe};

const CASES: usize = 56;

/// Replays a witness schedule via `Cursor::fire` from the initial
/// state; returns the reached state key.
fn replay(
    program: &Arc<Program>,
    witness: &moccml_engine::Witness,
) -> Result<moccml_kernel::StateKey, String> {
    let mut cursor = program.cursor();
    for (i, step) in witness.schedule.iter().enumerate() {
        if !cursor.accepts(step) {
            return Err(format!("witness step {i} ({step}) rejected"));
        }
        cursor.fire(step).map_err(|e| format!("step {i}: {e}"))?;
    }
    Ok(cursor.state_key())
}

#[test]
fn shortest_path_witnesses_replay_to_their_target() {
    cases(CASES).run("shortest_path_witnesses_replay_to_their_target", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let space: StateSpace = program.explore(&ExploreOptions::default().with_max_states(2_000));
        if space.state_count() == 0 {
            return Ok(());
        }
        // target a random reachable state
        let target = rng.usize_in(0..space.state_count());
        let witness = shortest_path_to(&space, |s| s == target)
            .ok_or_else(|| format!("state {target} was interned but is unreachable"))?;
        prop_assert_eq!(witness.state, target, "recipes {:?}", recipes);
        let reached =
            replay(&program, &witness).map_err(|e| format!("{e} (recipes {recipes:?})"))?;
        prop_assert_eq!(
            &reached,
            &space.states()[target],
            "witness must land on the target key (recipes {:?})",
            recipes
        );
        Ok(())
    });
}

#[test]
fn deadlock_witnesses_replay_into_wedged_states() {
    cases(CASES).run("deadlock_witnesses_replay_into_wedged_states", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let space = program.explore(&ExploreOptions::default().with_max_states(2_000));
        match deadlock_witness(&space) {
            None => {
                prop_assert!(
                    space.deadlocks().is_empty() || space.truncated(),
                    "no witness only without (reachable) deadlocks: {recipes:?}"
                );
            }
            Some(witness) => {
                prop_assert!(
                    space.deadlocks().contains(&witness.state),
                    "witness state is a deadlock (recipes {recipes:?})"
                );
                // replay lands on the deadlock key, and the state is
                // genuinely wedged for a fresh cursor
                let mut cursor = program.cursor();
                for (i, step) in witness.schedule.iter().enumerate() {
                    prop_assert!(
                        cursor.accepts(step),
                        "witness step {i} rejected (recipes {recipes:?})"
                    );
                    cursor.fire(step).map_err(|e| e.to_string())?;
                }
                prop_assert_eq!(
                    &cursor.state_key(),
                    &space.states()[witness.state],
                    "recipes {:?}",
                    recipes
                );
                prop_assert!(
                    cursor
                        .acceptable_steps(&SolverOptions::default())
                        .is_empty(),
                    "deadlock state must admit no non-empty step (recipes {recipes:?})"
                );
                // shortest: no deadlock at a strictly smaller BFS depth
                let shorter = shortest_path_to(&space, |s| space.deadlocks().contains(&s))
                    .expect("same target set");
                prop_assert_eq!(
                    shorter.schedule.len(),
                    witness.schedule.len(),
                    "deadlock_witness must be shortest (recipes {:?})",
                    recipes
                );
            }
        }
        Ok(())
    });
}

#[test]
fn live_events_matches_the_per_event_scan() {
    cases(CASES).run("live_events_matches_the_per_event_scan", |rng| {
        let recipes = rng.vec_of(1..6, random_recipe);
        let spec = build(&recipes);
        let universe = spec.universe().clone();
        let space =
            Program::compile(&spec).explore(&ExploreOptions::default().with_max_states(2_000));
        let live = live_events(&space, &universe);
        for e in universe.iter() {
            prop_assert_eq!(
                live.contains(&e),
                is_event_live(&space, e),
                "event {} (recipes {:?})",
                e,
                recipes
            );
        }
        // the memoised result is sorted in universe order by construction
        let mut sorted = live.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&live, &sorted, "live_events order");
        Ok(())
    });
}

/// Reference oracle: a plain BFS over the transition list with its own
/// predecessor table, returning the first state that satisfies
/// `target` in BFS order and the schedule to it.
fn oracle_path_to(space: &StateSpace, target: impl Fn(usize) -> bool) -> Option<(Schedule, usize)> {
    if target(space.initial()) {
        return Some((Schedule::new(), space.initial()));
    }
    let n = space.state_count();
    let mut predecessor: Vec<Option<(usize, Step)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::from([space.initial()]);
    visited[space.initial()] = true;
    let mut found = None;
    'bfs: while let Some(state) = queue.pop_front() {
        for (src, step, dst) in space.transitions() {
            if src != state || visited[dst] {
                continue;
            }
            visited[dst] = true;
            predecessor[dst] = Some((state, step.clone()));
            if target(dst) {
                found = Some(dst);
                break 'bfs;
            }
            queue.push_back(dst);
        }
    }
    let end = found?;
    let mut steps = Vec::new();
    let mut cursor = end;
    while let Some((prev, step)) = predecessor[cursor].clone() {
        steps.push(step);
        cursor = prev;
    }
    steps.reverse();
    Some((steps.into_iter().collect(), end))
}

fn as_pair(witness: Option<Witness>) -> Option<(Schedule, usize)> {
    witness.map(|w| (w.schedule, w.state))
}

#[test]
fn witnesses_match_the_reference_bfs() {
    cases(CASES).run("witnesses_match_the_reference_bfs", |rng| {
        let recipes = rng.vec_of(1..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        // a third of the draws truncate by states, a third by depth
        let options = match rng.usize_in(0..3) {
            0 => ExploreOptions::default().with_max_states(rng.usize_in(1..80)),
            1 => ExploreOptions::default().with_max_depth(rng.usize_in(0..5)),
            _ => ExploreOptions::default().with_max_states(2_000),
        };
        let subset: Vec<bool> = (0..64).map(|_| rng.usize_in(0..4) == 0).collect();
        for workers in [1, 2] {
            let space = program.explore(&options.clone().with_workers(workers));
            let ctx = format!(
                "workers={workers}, max_states={}, max_depth={}, recipes {recipes:?}",
                options.max_states, options.max_depth
            );
            for t in 0..space.state_count() {
                prop_assert_eq!(
                    as_pair(shortest_path_to(&space, |s| s == t)),
                    oracle_path_to(&space, |s| s == t),
                    "state {t}: {ctx}"
                );
            }
            // a target set: the nearest member, not just any
            let member = |s: usize| subset[s % subset.len()];
            prop_assert_eq!(
                as_pair(shortest_path_to(&space, member)),
                oracle_path_to(&space, member),
                "target set: {ctx}"
            );
            prop_assert_eq!(
                as_pair(deadlock_witness(&space)),
                oracle_path_to(&space, |s| space.deadlocks().contains(&s)),
                "deadlock witness: {ctx}"
            );
        }
        Ok(())
    });
}
