//! Differential suite for the join memo: a component of several
//! constraints takes its local steps from a program-wide memo keyed by
//! its constraints' model classes, joined once per class tuple. At every
//! state of random walks the memoized set must equal the unfactored
//! solver's list ([`Cursor::acceptable_steps_over`]) and the naive
//! enumeration, whether the memo was cold or filled by another cursor,
//! and exploration must build the same space at every worker count.
//!
//! Specs: random multi-constraint specs, a drift cube whose classes
//! repeat across its states, and (walked and explored apart, since the
//! naive enumeration of their wide components is slow) components whose
//! join or whose constraint's models outgrow the mask limit, which are
//! searched jointly instead.

mod common;

use common::{build, random_recipe};
use moccml_ccsl::{Exclusion, Precedence, SubClock, Union};
use moccml_engine::{Cursor, ExploreOptions, Program, SolverOptions};
use moccml_kernel::{EventId, Specification, Universe};
use moccml_obs::Recorder;
use moccml_testkit::{cases, prop_assert, prop_assert_eq, PropResult, TestRng};
use std::sync::Arc;

const CASES: usize = 64;
const WALK: usize = 16;
const WORKERS: [usize; 3] = [1, 2, 8];

/// Three channels `c_i` before `e_i`, at most `bound` ahead, under one
/// exclusion of all six events: the benchmark's cube, smaller. Each
/// precedence has three mask classes (empty, full, in between), the
/// exclusion one, so at most 27 class tuples.
fn cube(bound: u64) -> Specification {
    let mut u = Universe::new();
    let events: Vec<EventId> = ["c0", "e0", "c1", "e1", "c2", "e2"]
        .iter()
        .map(|n| u.event(n))
        .collect();
    let mut spec = Specification::new("cube", u);
    spec.add_constraint(Box::new(Exclusion::new("one", events.iter().copied())));
    for (i, pair) in events.chunks(2).enumerate() {
        spec.add_constraint(Box::new(
            Precedence::strict(&format!("chan{i}"), pair[0], pair[1]).with_bound(bound),
        ));
    }
    spec
}

/// Thirteen `subclock`s onto one event `b`: each has three masks, but
/// their join holds 2^13 + 1 local steps, past the mask limit.
fn star() -> Specification {
    let mut u = Universe::new();
    let b = u.event("b");
    let subs: Vec<EventId> = (0..13).map(|i| u.event(&format!("a{i}"))).collect();
    let mut spec = Specification::new("star", u);
    for (i, &a) in subs.iter().enumerate() {
        spec.add_constraint(Box::new(SubClock::new(&format!("s{i}"), a, b)));
    }
    spec
}

/// `union(u, e1..e13)` beside `exclusion(e1..e13)` and a bounded
/// precedence: the union's 2^13 models are more than the program keeps
/// masks for, so its component is searched on the formulas.
fn union13() -> Specification {
    let mut u = Universe::new();
    let un = u.event("u");
    let es: Vec<EventId> = (1..=13).map(|i| u.event(&format!("e{i}"))).collect();
    let mut spec = Specification::new("union13", u);
    spec.add_constraint(Box::new(Union::new("un", un, es.iter().copied())));
    spec.add_constraint(Box::new(Exclusion::new("ex", es.iter().copied())));
    spec.add_constraint(Box::new(
        Precedence::strict("p", es[0], es[1]).with_bound(2),
    ));
    spec
}

fn random_spec(rng: &mut TestRng) -> Specification {
    match rng.u8_in(0..4) {
        0 => cube(rng.u64_in(1..4)),
        _ => build(&rng.vec_of(2..7, random_recipe)),
    }
}

/// At `cursor`'s state, the memoized step set equals the unfactored
/// list and the naive enumeration, with and without the empty step.
fn agrees(cursor: &Cursor, events: &[EventId]) -> PropResult {
    for options in [
        SolverOptions::default(),
        SolverOptions::default().with_empty(true),
    ] {
        let memoized = cursor.steps(&options).map_err(|e| e.to_string())?.to_vec();
        let naive = SolverOptions::naive().with_empty(options.include_empty);
        prop_assert_eq!(
            &memoized,
            &cursor.acceptable_steps_over(events, &options),
            "{options:?}"
        );
        prop_assert_eq!(
            &memoized,
            &cursor.steps(&naive).map_err(|e| e.to_string())?.to_vec(),
            "{options:?}"
        );
    }
    Ok(())
}

/// Two cursors walk the same program at random, in turn: the first
/// meets most class tuples cold, the second mostly finds them joined.
/// Every state of both walks agrees with the reference solvers.
#[test]
fn memoized_joins_equal_the_unfactored_and_naive_enumerations() {
    cases(CASES).run(
        "memoized_joins_equal_the_unfactored_and_naive_enumerations",
        |rng| {
            let program = Program::new(random_spec(rng));
            let events = program.constrained_events().to_vec();
            let mut cursors = [program.cursor(), program.cursor()];
            for _ in 0..WALK {
                for cursor in &mut cursors {
                    agrees(cursor, &events)?;
                    let steps = cursor.acceptable_steps(&SolverOptions::default());
                    if let Some(step) = steps.get(rng.usize_in(0..steps.len().max(1))) {
                        cursor.fire(step).map_err(|e| e.to_string())?;
                    }
                }
            }
            Ok(())
        },
    );
}

/// Exploring with workers 1, 2 and 8 builds the space the naive solver
/// builds, from a cold memo (a fresh program) and from a warm one (the
/// same program explored again).
#[test]
fn explorations_agree_across_workers_and_memo_temperature() {
    cases(CASES).run(
        "explorations_agree_across_workers_and_memo_temperature",
        |rng| {
            let spec = random_spec(rng);
            let options = ExploreOptions::default().with_max_states(2_000);
            let reference = Program::compile(&spec).explore(
                &options
                    .clone()
                    .with_solver(SolverOptions::naive())
                    .with_workers(1),
            );
            let warm = Program::compile(&spec);
            for workers in WORKERS {
                let options = options.clone().with_workers(workers);
                let cold = Program::compile(&spec).explore(&options);
                prop_assert!(cold == reference, "cold memo, {workers} workers");
                prop_assert!(
                    format!("{cold:?}") == format!("{reference:?}"),
                    "{workers} workers"
                );
                prop_assert!(
                    warm.explore(&options) == reference,
                    "warm memo, {workers} workers"
                );
            }
            Ok(())
        },
    );
}

/// Past the mask limit — a join too large, or a constraint with too
/// many models — a component is searched jointly, and the walks and
/// explorations still agree with the reference solvers.
#[test]
fn components_past_the_mask_limit_are_searched() {
    // the star's one class tuple memoizes the given-up join; the
    // union has no masks, so its component never reaches the memo
    for (spec, memoized) in [(star(), 1), (union13(), 0)] {
        let program = Program::compile(&spec);
        let events = program.constrained_events().to_vec();
        let mut cursor = program.cursor();
        for _ in 0..3 {
            agrees(&cursor, &events).unwrap();
            let steps = cursor.acceptable_steps(&SolverOptions::default());
            cursor.fire(&steps[steps.len() / 2]).unwrap();
        }
        assert_eq!(program.join_class_count(), memoized);
        let naive = ExploreOptions::default().with_solver(SolverOptions::naive());
        let reference = Program::compile(&spec).explore(&naive);
        for workers in WORKERS {
            let options = ExploreOptions::default().with_workers(workers);
            assert_eq!(program.explore(&options), reference, "{workers} workers");
        }
    }
}

/// The cube's 3 × 3 × 3 × 1 classes bound its memo: whatever the bound
/// and the worker count, at most 27 class tuples are joined, where the
/// states number `(bound + 1)^3`. The explorer reports the count, and
/// its hit and miss counters cover one lookup per expanded state, at
/// most two misses per tuple.
#[test]
fn the_cube_joins_once_per_class_tuple() {
    for bound in [2, 5] {
        for workers in WORKERS {
            let program: Arc<Program> = Program::new(cube(bound));
            let recorder = Recorder::new();
            let space = program.explore(
                &ExploreOptions::default()
                    .with_workers(workers)
                    .with_recorder(&recorder),
            );
            let states = (bound + 1).pow(3) as usize;
            assert_eq!(space.state_count(), states);
            assert!(program.join_class_count() <= 27, "{workers} workers");
            let snap = recorder.snapshot();
            assert_eq!(
                snap.gauge("program_join_classes"),
                Some(program.join_class_count() as u64)
            );
            // a class tuple is joined on its first meeting and once
            // more to memoize it, whichever threads meet it
            let (misses, classes) = (
                snap.counter_sum("cursor_join_misses"),
                program.join_class_count() as u64,
            );
            assert!(
                classes <= misses && misses <= 2 * classes,
                "{misses} misses"
            );
            assert_eq!(
                snap.counter_sum("cursor_join_hits") + misses,
                states as u64,
                "{workers} workers"
            );
        }
    }
}
