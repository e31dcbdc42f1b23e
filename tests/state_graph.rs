//! Self-consistency of the explored `StateGraph` against the engine's
//! key-based reference path, on random CCSL specifications at workers
//! ∈ {1, 2, 8}: untruncated, under `max_states` and under `max_depth`.
//!
//! The explorer works on tuples of local-state ids and stores each
//! edge as a `(step id, target)` pair; the state keys are composed only
//! when `states()` is asked for. Every state is checked against what
//! the `StateKey` API says about it:
//!
//! * `Cursor::expand(&states()[s])` equals `outgoing(s)` mapped to
//!   `(step, states()[t])` — minus the successors a `max_states` bound
//!   dropped, and empty for a state a bound left unexpanded — and
//!   `expand` itself equals `acceptable_steps`, each step fired with
//!   `Cursor::fire` from `states()[s]`;
//! * `transition(e)` equals item `e` of `transitions()`;
//! * `schedule_to(s)`, fired step by step on a fresh cursor, reaches
//!   `states()[s]`;
//! * `steps()` lists each step on an edge exactly once, in
//!   first-absorption order, and nothing else.

use moccml_engine::{ExploreOptions, Program, SolverOptions, StateSpace};
use moccml_kernel::{StateKey, Step};
use moccml_testkit::{cases, prop_assert, prop_assert_eq};
use std::collections::HashMap;

mod common;
use common::{build, random_recipe};

const CASES: usize = 24;
const WORKERS: [usize; 3] = [1, 2, 8];

/// Checks every oracle above on `space`, explored from `program`'s
/// template state.
fn check_space(program: &Program, space: &StateSpace, ctx: &str) -> Result<(), String> {
    let graph = space.graph();
    let states = space.states();
    prop_assert_eq!(states.len(), space.state_count(), "{ctx}");
    let index: HashMap<&StateKey, usize> = states.iter().enumerate().map(|(i, k)| (k, i)).collect();
    prop_assert_eq!(index.len(), states.len(), "states are distinct: {ctx}");
    prop_assert_eq!(&states[0], program.template_key(), "{ctx}");

    // expansion of every state through the key-based reference path
    let solver = SolverOptions::default().with_empty(false);
    let mut cursor = program.cursor();
    for (s, key) in states.iter().enumerate() {
        let expanded = cursor
            .expand(key, &solver)
            .map_err(|e| format!("state {s} expands: {e}: {ctx}"))?;
        // expand itself against listing the steps and firing each one
        let steps = cursor.acceptable_steps(&solver);
        prop_assert_eq!(steps.len(), expanded.len(), "state {s}: {ctx}");
        for (step, (expanded_step, successor)) in steps.iter().zip(&expanded) {
            prop_assert_eq!(step, expanded_step, "state {s}: {ctx}");
            let mut fired = program.cursor();
            fired.restore(key).map_err(|e| e.to_string())?;
            fired.fire(step).map_err(|e| e.to_string())?;
            prop_assert_eq!(&fired.state_key(), successor, "state {s}, {step}: {ctx}");
        }
        let outgoing: Vec<(Step, StateKey)> = graph
            .outgoing(s)
            .map(|(source, step, t)| {
                assert_eq!(source, s, "outgoing edges leave their state");
                (step.clone(), states[t].clone())
            })
            .collect();
        let kept: Vec<(Step, StateKey)> = expanded
            .iter()
            .filter(|(_, k)| index.contains_key(k))
            .cloned()
            .collect();
        if graph.is_deadlock(s) {
            prop_assert!(expanded.is_empty(), "deadlock {s} has no step: {ctx}");
        } else if outgoing.is_empty() {
            // left unexpanded, or every successor dropped, by a bound
            prop_assert!(space.truncated(), "state {s} has no edge: {ctx}");
        } else {
            prop_assert_eq!(&outgoing, &kept, "outgoing({s}) is its expansion: {ctx}");
        }
        if !space.truncated() {
            prop_assert_eq!(kept.len(), expanded.len(), "no successor lost: {ctx}");
        }
    }

    // random access agrees with the scan, and steps() with the edges
    let mut first_seen: Vec<&Step> = Vec::new();
    for (e, (source, step, target)) in graph.transitions().enumerate() {
        prop_assert_eq!(
            graph.transition(e),
            (source, step, target),
            "edge {e}: {ctx}"
        );
        prop_assert_eq!(&graph.steps()[graph.step_of(e)], step, "edge {e}: {ctx}");
        if !first_seen.contains(&step) {
            first_seen.push(step);
        }
    }
    let listed: Vec<&Step> = graph.steps().iter().collect();
    prop_assert_eq!(
        listed,
        first_seen,
        "steps() in first-absorption order: {ctx}"
    );

    // every discovering path replays to its state
    for (s, key) in states.iter().enumerate() {
        let mut replay = program.cursor();
        for step in graph.schedule_to(s).steps() {
            replay
                .fire(step)
                .map_err(|e| format!("schedule to {s} replays: {e}: {ctx}"))?;
        }
        prop_assert_eq!(&replay.state_key(), key, "schedule_to({s}): {ctx}");
    }
    Ok(())
}

/// Explores `program` under `base` at every worker count and checks
/// each space.
fn check_all_workers(program: &Program, base: &ExploreOptions, ctx: &str) -> Result<(), String> {
    for workers in WORKERS {
        let space = program.explore(&base.clone().with_workers(workers));
        check_space(program, &space, &format!("workers={workers}, {ctx}"))?;
    }
    Ok(())
}

#[test]
fn untruncated_graphs_match_the_reference_path() {
    cases(CASES).run("untruncated_graphs_match_the_reference_path", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let program = Program::compile(&build(&recipes));
        let base = ExploreOptions::default().with_max_states(3_000);
        check_all_workers(&program, &base, &format!("recipes {recipes:?}"))
    });
}

#[test]
fn graphs_truncated_by_max_states_match_the_reference_path() {
    cases(CASES).run(
        "graphs_truncated_by_max_states_match_the_reference_path",
        |rng| {
            let recipes = rng.vec_of(2..6, random_recipe);
            let program = Program::compile(&build(&recipes));
            let max_states = rng.usize_in(1..40);
            let base = ExploreOptions::default().with_max_states(max_states);
            let ctx = format!("max_states={max_states}, recipes {recipes:?}");
            check_all_workers(&program, &base, &ctx)
        },
    );
}

#[test]
fn graphs_truncated_by_max_depth_match_the_reference_path() {
    cases(CASES).run(
        "graphs_truncated_by_max_depth_match_the_reference_path",
        |rng| {
            let recipes = rng.vec_of(2..6, random_recipe);
            let program = Program::compile(&build(&recipes));
            let max_depth = rng.usize_in(0..6);
            let base = ExploreOptions::default()
                .with_max_states(3_000)
                .with_max_depth(max_depth);
            let ctx = format!("max_depth={max_depth}, recipes {recipes:?}");
            check_all_workers(&program, &base, &ctx)
        },
    );
}
