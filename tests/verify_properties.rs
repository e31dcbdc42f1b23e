//! Property-based contracts of the `moccml-verify` layer (ISSUE 4):
//!
//! * on-the-fly checking returns **byte-identical** reports — statuses,
//!   `Counterexample` schedules, visited-state counts — for `workers`
//!   ∈ {1, 2, 8}, on random CCSL specifications and random properties
//!   (≥ 48 cases);
//! * every returned counterexample **re-validates** step by step
//!   through a fresh `Cursor` from the initial state, and actually
//!   witnesses its violation (a refuted last step, a wedged state, a
//!   pred-free prefix of exact bound length);
//! * conformance agrees with direct cursor replay, on accepted and
//!   corrupted traces alike;
//! * `Schedule::to_lines` / `parse_lines` round-trip every explored
//!   schedule;
//! * a specification strengthened with one extra constraint always
//!   *refines* the original.
//!
//! Runs on the deterministic in-repo `moccml-testkit` harness;
//! failures report a replayable case seed.

use moccml_engine::{ExploreOptions, Program, SolverOptions};
use moccml_kernel::{EventId, Schedule, Step, StepPred};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, TestRng};
use moccml_verify::{
    check_props, check_refinement, conformance, is_witness, CheckReport, Prop, PropStatus, Verdict,
};
use std::sync::Arc;

mod common;
use common::{build, random_recipe};

const CASES: usize = 56; // ISSUE 4 requires ≥ 48
const WORKERS: [usize; 3] = [1, 2, 8];

fn random_pred(rng: &mut TestRng) -> StepPred {
    let e = |rng: &mut TestRng| EventId::from_index(rng.usize_in(0..5));
    match rng.u8_in(0..5) {
        0 => StepPred::fired(e(rng)),
        1 => StepPred::excludes(e(rng), e(rng)),
        2 => StepPred::implies(e(rng), e(rng)),
        3 => StepPred::negate(StepPred::fired(e(rng))),
        _ => StepPred::or(StepPred::fired(e(rng)), StepPred::fired(e(rng))),
    }
}

fn random_prop(rng: &mut TestRng) -> Prop {
    match rng.u8_in(0..8) {
        0 | 1 => Prop::Never(random_pred(rng)),
        2 => Prop::Always(random_pred(rng)),
        3 => Prop::EventuallyWithin(random_pred(rng), rng.usize_in(1..6)),
        4 => Prop::UntilWithin(random_pred(rng), random_pred(rng), rng.usize_in(1..6)),
        5 => Prop::ReleaseWithin(random_pred(rng), random_pred(rng), rng.usize_in(1..6)),
        _ => Prop::DeadlockFree,
    }
}

/// Replays `schedule` through a fresh cursor via `Cursor::fire`,
/// returning the cursor on success — the re-validation contract.
fn replay(program: &Arc<Program>, schedule: &Schedule) -> Result<moccml_engine::Cursor, String> {
    let mut cursor = program.cursor();
    for (i, step) in schedule.iter().enumerate() {
        if !cursor.accepts(step) {
            return Err(format!("step {i} ({step}) rejected"));
        }
        cursor.fire(step).map_err(|e| format!("step {i}: {e}"))?;
    }
    Ok(cursor)
}

/// Checks that a violated prop's counterexample genuinely witnesses
/// the violation after replay.
fn assert_witnesses(
    program: &Arc<Program>,
    prop: &Prop,
    ce: &moccml_verify::Counterexample,
) -> Result<(), String> {
    let cursor = replay(program, &ce.schedule)?;
    match prop {
        Prop::Always(p) => {
            let last = ce.schedule.steps().last().ok_or("empty Always witness")?;
            prop_assert!(!p.eval(last), "last step must refute the predicate");
        }
        Prop::Never(p) => {
            let last = ce.schedule.steps().last().ok_or("empty Never witness")?;
            prop_assert!(p.eval(last), "last step must satisfy the predicate");
        }
        Prop::DeadlockFree => {
            prop_assert!(
                cursor
                    .acceptable_steps(&SolverOptions::default())
                    .is_empty(),
                "deadlock witness must end in a wedged state"
            );
        }
        Prop::EventuallyWithin(p, k) => {
            prop_assert!(
                ce.schedule.iter().all(|s| !p.eval(s)),
                "liveness witness must be predicate-free"
            );
            prop_assert!(ce.schedule.len() <= *k, "witness no longer than the bound");
            if ce.schedule.len() < *k {
                // shorter than the bound ⇒ the run is wedged
                prop_assert!(
                    cursor
                        .acceptable_steps(&SolverOptions::default())
                        .is_empty(),
                    "short liveness witness must end in a wedged state"
                );
            }
        }
        Prop::UntilWithin(..) | Prop::ReleaseWithin(..) => {
            // the bounded binary forms delegate to the shared trace
            // monitor; `is_witness` replays through the same
            // `TraceEvaluator` the checkers use
            prop_assert!(
                is_witness(program, prop, &ce.schedule),
                "bounded-until/release witness must re-validate through the monitor"
            );
        }
    }
    Ok(())
}

/// The acceptance property: byte-identical reports for every worker
/// count, every counterexample replayable and witnessing.
#[test]
fn onthefly_reports_are_identical_across_worker_counts() {
    cases(CASES).run(
        "onthefly_reports_are_identical_across_worker_counts",
        |rng| {
            let recipes = rng.vec_of(1..5, random_recipe);
            let spec = build(&recipes);
            let program = Program::compile(&spec);
            let props: Vec<Prop> = rng.vec_of(1..4, random_prop);
            let base = ExploreOptions::default().with_max_states(2_000);
            let mut reference: Option<CheckReport> = None;
            for &workers in &WORKERS {
                let report = check_props(&program, &props, &base.clone().with_workers(workers));
                match &reference {
                    None => reference = Some(report),
                    Some(r) => prop_assert_eq!(
                        r,
                        &report,
                        "workers={}, recipes {:?}, props {:?}",
                        workers,
                        recipes,
                        props
                    ),
                }
            }
            let report = reference.expect("three runs");
            for (prop, status) in props.iter().zip(&report.statuses) {
                if let PropStatus::Violated(ce) = status {
                    assert_witnesses(&program, prop, ce)
                        .map_err(|e| format!("{e} (prop {prop}, recipes {recipes:?})"))?;
                }
            }
            Ok(())
        },
    );
}

/// Conformance agrees with direct cursor replay: explored schedules
/// conform; corrupting one step makes the verdict point at it.
#[test]
fn conformance_agrees_with_cursor_replay() {
    cases(CASES).run("conformance_agrees_with_cursor_replay", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        // random acceptable walk
        let mut cursor = program.cursor();
        let mut schedule = Schedule::new();
        for _ in 0..rng.usize_in(1..8) {
            let steps = cursor.acceptable_steps(&SolverOptions::default());
            if steps.is_empty() {
                break;
            }
            let step = rng.choice(&steps).clone();
            cursor.fire(&step).expect("acceptable");
            schedule.push(step);
        }
        prop_assert!(
            conformance(&program, &schedule).conforms(),
            "an explored walk must conform (recipes {recipes:?})"
        );
        // corrupt one position with a rejected step, if one exists
        if schedule.is_empty() {
            return Ok(());
        }
        let position = rng.usize_in(0..schedule.len());
        let mut replayer = program.cursor();
        for step in schedule.steps().iter().take(position) {
            replayer.fire(step).expect("prefix replays");
        }
        let all: Vec<EventId> = (0..5).map(EventId::from_index).collect();
        let bad = (1u32..32)
            .map(|mask| {
                Step::from_events(
                    all.iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << *i) != 0)
                        .map(|(_, e)| *e),
                )
            })
            .find(|s| !replayer.accepts(s));
        let Some(bad) = bad else {
            return Ok(()); // everything acceptable here: nothing to corrupt
        };
        let corrupted: Schedule = schedule
            .steps()
            .iter()
            .take(position)
            .cloned()
            .chain([bad.clone()])
            .collect();
        match conformance(&program, &corrupted) {
            Verdict::Violation { step, violated } => {
                prop_assert_eq!(step, position, "first violating index");
                prop_assert!(!violated.is_empty(), "at least one constraint named");
            }
            Verdict::Conforms => {
                return Err(format!(
                    "corrupted schedule conforms (bad step {bad}, recipes {recipes:?})"
                ))
            }
        }
        Ok(())
    });
}

/// Every schedule produced by a random walk round-trips through the
/// text format.
#[test]
fn schedules_round_trip_through_text() {
    cases(CASES).run("schedules_round_trip_through_text", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let universe = spec.universe().clone();
        let program = Program::compile(&spec);
        let mut cursor = program.cursor();
        let mut schedule = Schedule::new();
        for _ in 0..rng.usize_in(0..10) {
            let steps = cursor.acceptable_steps(&SolverOptions::default());
            if steps.is_empty() {
                break;
            }
            let step = rng.choice(&steps).clone();
            cursor.fire(&step).expect("acceptable");
            schedule.push(step);
            if rng.bool() {
                schedule.push(Step::new()); // interleave stuttering
                cursor.fire(&Step::new()).expect("stuttering is acceptable");
            }
        }
        let text = schedule.to_lines(&universe).map_err(|e| e.to_string())?;
        let parsed = Schedule::parse_lines(&text, &universe).map_err(|e| e.to_string())?;
        prop_assert_eq!(&parsed, &schedule, "round trip (recipes {:?})", recipes);
        Ok(())
    });
}

/// Adding a constraint can only remove behaviour: the strengthened
/// specification refines the original.
#[test]
fn strengthening_a_spec_refines_it() {
    cases(CASES).run("strengthening_a_spec_refines_it", |rng| {
        let recipes = rng.vec_of(1..4, random_recipe);
        let base_spec = build(&recipes);
        let extra = rng.vec_of(1..3, random_recipe);
        let mut strong_spec = build(&recipes);
        for r in &extra {
            // reuse the builder: lift the extra recipe's constraint out
            // of a throwaway spec over the same 5-event universe
            let tmp = build(std::slice::from_ref(r));
            if tmp.constraint_count() > 0 {
                strong_spec.share_constraint(&tmp, 0);
            }
        }
        let base = Program::new(base_spec);
        let strong = Program::new(strong_spec);
        let verdict = check_refinement(
            &strong,
            &base,
            &moccml_verify::EquivOptions::default().with_max_states(2_000),
        )
        .map_err(|e| e.to_string())?;
        prop_assert!(
            !matches!(verdict, moccml_verify::EquivalenceVerdict::Distinguished(_)),
            "strengthened spec must refine the base (recipes {recipes:?}, extra {extra:?})"
        );
        Ok(())
    });
}

/// The equivalence/refinement product runs through the parallel
/// explorer (ISSUE 5): on random specification pairs over one
/// universe, the verdict — `Equivalent` pair counts, `Unknown`
/// bounds and `Distinguished` schedules/steps/sides alike — is
/// identical for workers ∈ {1, 2, 8}.
#[test]
fn equivalence_verdicts_are_identical_across_worker_counts() {
    cases(CASES).run(
        "equivalence_verdicts_are_identical_across_worker_counts",
        |rng| {
            let left_recipes = rng.vec_of(1..4, random_recipe);
            let right_recipes = rng.vec_of(1..4, random_recipe);
            let left = Program::new(build(&left_recipes));
            let right = Program::new(build(&right_recipes));
            let base = moccml_verify::EquivOptions::default().with_max_states(500);
            let mut reference = None;
            for &workers in &WORKERS {
                let equivalence = moccml_verify::check_equivalence(
                    &left,
                    &right,
                    &base.clone().with_workers(workers),
                )
                .map_err(|e| e.to_string())?;
                let refinement = moccml_verify::check_refinement(
                    &left,
                    &right,
                    &base.clone().with_workers(workers),
                )
                .map_err(|e| e.to_string())?;
                match &reference {
                    None => {
                        // a distinguishing schedule must replay on both
                        // sides, and the step on exactly the named one
                        if let moccml_verify::EquivalenceVerdict::Distinguished(d) = &equivalence {
                            prop_assert!(
                                conformance(&left, &d.schedule).conforms()
                                    && conformance(&right, &d.schedule).conforms(),
                                "the common prefix replays on both sides \
                                 (left {left_recipes:?}, right {right_recipes:?})"
                            );
                            let mut extended = d.schedule.clone();
                            extended.push(d.step.clone());
                            let (accepting, rejecting) = match d.only_accepted_by {
                                moccml_verify::Side::Left => (&left, &right),
                                moccml_verify::Side::Right => (&right, &left),
                            };
                            prop_assert!(
                                conformance(accepting, &extended).conforms(),
                                "the named side accepts the distinguishing step"
                            );
                            prop_assert!(
                                !conformance(rejecting, &extended).conforms(),
                                "the other side rejects the distinguishing step"
                            );
                        }
                        reference = Some((equivalence, refinement));
                    }
                    Some((e0, r0)) => {
                        prop_assert_eq!(
                            e0,
                            &equivalence,
                            "equivalence workers={} (left {:?}, right {:?})",
                            workers,
                            left_recipes,
                            right_recipes
                        );
                        prop_assert_eq!(r0, &refinement, "refinement workers={}", workers);
                    }
                }
            }
            Ok(())
        },
    );
}
