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

use moccml_bench::experiments::e9_scale_spec;
use moccml_engine::{ExploreOptions, Program, StateSpace};
use moccml_obs::Recorder;
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

/// The helpers are spawned once per exploration, and only when a
/// window holds more than one chunk: none for pam, whose BFS levels are
/// each one chunk at most, even at 8 workers, and `workers − 1` for a
/// drift cube, whose middle levels span several chunks, but never more
/// than the 15 a window of 16 chunks can keep busy. Every state of a
/// complete exploration is expanded exactly once, whoever expands it.
#[test]
fn helpers_are_spawned_once_and_only_for_windows_of_several_chunks() {
    let pam = moccml_lang::compile_str(include_str!("../examples/specs/pam.mcc"))
        .expect("pam.mcc compiles")
        .program;
    // the benchmark's cube (bound 46), shrunk: its widest level still
    // holds 217 states, four chunks
    let cube = Program::new(e9_scale_spec(16).0);
    for (name, program, workers, helpers) in [
        ("pam", &pam, 8, 0),
        ("cube", &cube, 2, 1),
        ("cube", &cube, 8, 7),
        ("cube", &cube, 64, 15),
    ] {
        let recorder = Recorder::new();
        let options = ExploreOptions::default()
            .with_workers(workers)
            .with_recorder(&recorder);
        let space = program.explore(&options);
        let snapshot = recorder.snapshot();
        let ctx = format!("{name}, workers={workers}");
        assert!(!space.truncated(), "{ctx}");
        assert_eq!(snapshot.gauge("explore_helpers"), Some(helpers), "{ctx}");
        assert_eq!(
            snapshot.counter_sum("explore_expansions_w"),
            space.state_count() as u64,
            "{ctx}"
        );
    }
}
