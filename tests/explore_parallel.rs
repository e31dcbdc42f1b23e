//! Property-based determinism of the parallel state-space explorer:
//! `explore` with workers ∈ {1, 2, 8} must build **identical**
//! `StateSpace`s — same interned states in the same order, same
//! transitions, same deadlocks, same truncation flag — on random CCSL
//! specifications, including runs truncated by `max_states`.
//!
//! This is the contract the canonicalization pass of the explorer
//! promises: worker threads only change *who expands* a frontier
//! state, never the order in which discoveries are absorbed.
//!
//! Runs ≥64 cases per property on the deterministic in-repo
//! `moccml-testkit` harness; failures report a replayable case seed.

use moccml_engine::{ExploreOptions, Program, StateSpace};
use moccml_testkit::{cases, prop_assert, prop_assert_eq};

mod common;
use common::{build, random_recipe};

const CASES: usize = 72; // ISSUE 3 requires ≥ 64
const WORKERS: [usize; 3] = [1, 2, 8];

/// Field-by-field identity check with readable failure messages (the
/// `PartialEq` on `StateSpace` covers the same surface; spelling the
/// fields out pinpoints *what* diverged on a failing seed).
fn assert_identical(serial: &StateSpace, parallel: &StateSpace, ctx: &str) -> Result<(), String> {
    prop_assert_eq!(serial.states(), parallel.states(), "states: {ctx}");
    prop_assert_eq!(
        serial.transitions().collect::<Vec<_>>(),
        parallel.transitions().collect::<Vec<_>>(),
        "transitions: {ctx}"
    );
    prop_assert_eq!(serial.deadlocks(), parallel.deadlocks(), "deadlocks: {ctx}");
    prop_assert_eq!(serial.initial(), parallel.initial(), "initial: {ctx}");
    prop_assert_eq!(serial.truncated(), parallel.truncated(), "truncated: {ctx}");
    prop_assert!(serial == parallel, "PartialEq must agree: {ctx}");
    Ok(())
}

/// Full (untruncated-where-finite) exploration is identical for every
/// worker count.
#[test]
fn worker_counts_build_identical_spaces() {
    cases(CASES).run("worker_counts_build_identical_spaces", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        // bounded so that pathological draws stay fast; most cases
        // finish untruncated
        let base = ExploreOptions::default().with_max_states(3_000);
        let serial = program.explore(&base.clone().with_workers(WORKERS[0]));
        for &workers in &WORKERS[1..] {
            let parallel = program.explore(&base.clone().with_workers(workers));
            assert_identical(
                &serial,
                &parallel,
                &format!("workers={workers}, recipes {recipes:?}"),
            )?;
        }
        Ok(())
    });
}

/// `max_states`-truncated exploration — where *which* states get
/// interned depends on the exact discovery order — is also identical
/// for every worker count.
#[test]
fn worker_counts_agree_under_max_states_truncation() {
    cases(CASES).run("worker_counts_agree_under_max_states_truncation", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        // a tight random bound forces truncation on any non-trivial
        // space, right where interning order matters most
        let max_states = rng.usize_in(1..25);
        let base = ExploreOptions::default().with_max_states(max_states);
        let serial = program.explore(&base.clone().with_workers(WORKERS[0]));
        prop_assert!(serial.state_count() <= max_states);
        for &workers in &WORKERS[1..] {
            let parallel = program.explore(&base.clone().with_workers(workers));
            assert_identical(
                &serial,
                &parallel,
                &format!("workers={workers}, max_states={max_states}, recipes {recipes:?}"),
            )?;
        }
        Ok(())
    });
}

/// Depth-bounded exploration agrees too (the other truncation path).
#[test]
fn worker_counts_agree_under_depth_truncation() {
    cases(CASES).run("worker_counts_agree_under_depth_truncation", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let max_depth = rng.usize_in(0..6);
        let base = ExploreOptions::default()
            .with_max_states(3_000)
            .with_max_depth(max_depth);
        let serial = program.explore(&base.clone().with_workers(WORKERS[0]));
        for &workers in &WORKERS[1..] {
            let parallel = program.explore(&base.clone().with_workers(workers));
            assert_identical(
                &serial,
                &parallel,
                &format!("workers={workers}, max_depth={max_depth}, recipes {recipes:?}"),
            )?;
        }
        Ok(())
    });
}
