//! Property-based tests on the CCSL declarative constraints: every
//! schedule produced by the engine satisfies the defining invariant of
//! each relation, for arbitrary seeds and parameters — and every
//! constraint kind keeps the pure `initial`/`formula`/`next` protocol
//! along random walks.
//!
//! Ported from `proptest` (48 cases per property) to the deterministic
//! in-repo `moccml-testkit` harness at 64 cases per property; failures
//! report a replayable case seed.

mod common;

use moccml::lang::ast::Item;
use moccml::sdf::platform::ProcessorMutex;
use moccml_ccsl::{Alternation, Delay, Exclusion, Periodic, Precedence, SubClock, Union};
use moccml_engine::{Engine, Program, Random, SolverOptions};
use moccml_kernel::{EventId, Schedule, Specification, StateKey, Step, Universe};
use moccml_testkit::{cases, prop_assert, prop_assert_eq};

const CASES: usize = 64; // seed suite ran 48

fn three_event_spec() -> (Universe, EventId, EventId, EventId) {
    let mut u = Universe::new();
    let a = u.event("a");
    let b = u.event("b");
    let c = u.event("c");
    (u, a, b, c)
}

fn run(spec: Specification, seed: u64, steps: usize) -> Schedule {
    Engine::builder(spec)
        .policy(Random::new(seed))
        .build()
        .run(steps)
        .schedule
}

/// Sub-clock: every step containing `a` also contains `b`.
#[test]
fn subclock_invariant() {
    cases(CASES).run("subclock_invariant", |rng| {
        let seed = rng.any_u64();
        let (u, a, b, _) = three_event_spec();
        let mut spec = Specification::new("t", u);
        spec.add_constraint(Box::new(SubClock::new("s", a, b)));
        for step in run(spec, seed, 30).iter() {
            prop_assert!(!step.contains(a) || step.contains(b));
        }
        Ok(())
    });
}

/// Exclusion: no step contains two of the excluded events.
#[test]
fn exclusion_invariant() {
    cases(CASES).run("exclusion_invariant", |rng| {
        let seed = rng.any_u64();
        let (u, a, b, c) = three_event_spec();
        let mut spec = Specification::new("t", u);
        spec.add_constraint(Box::new(Exclusion::new("x", [a, b, c])));
        for step in run(spec, seed, 30).iter() {
            let hits = [a, b, c].iter().filter(|e| step.contains(**e)).count();
            prop_assert!(hits <= 1);
        }
        Ok(())
    });
}

/// Strict precedence: the cause count strictly dominates; with a
/// bound, the drift never exceeds it.
#[test]
fn bounded_precedence_invariant() {
    cases(CASES).run("bounded_precedence_invariant", |rng| {
        let seed = rng.any_u64();
        let bound = rng.u64_in(1..4);
        let (u, a, b, _) = three_event_spec();
        let mut spec = Specification::new("t", u);
        spec.add_constraint(Box::new(Precedence::strict("p", a, b).with_bound(bound)));
        let schedule = run(spec, seed, 40);
        let mut ca = 0i64;
        let mut cb = 0i64;
        for step in schedule.iter() {
            // within a step the new cause is counted before the effect
            if step.contains(a) {
                ca += 1;
            }
            if step.contains(b) {
                cb += 1;
            }
            prop_assert!(cb <= ca, "effect ahead of cause");
            prop_assert!(ca - cb <= bound as i64, "drift exceeds bound");
        }
        Ok(())
    });
}

/// Alternation: occurrences of `a` and `b` strictly interleave.
#[test]
fn alternation_invariant() {
    cases(CASES).run("alternation_invariant", |rng| {
        let seed = rng.any_u64();
        let (u, a, b, _) = three_event_spec();
        let mut spec = Specification::new("t", u);
        spec.add_constraint(Box::new(Alternation::new("alt", a, b)));
        let mut expect_a = true;
        for step in run(spec, seed, 30).iter() {
            prop_assert!(!(step.contains(a) && step.contains(b)));
            if step.contains(a) {
                prop_assert!(expect_a);
                expect_a = false;
            }
            if step.contains(b) {
                prop_assert!(!expect_a);
                expect_a = true;
            }
        }
        Ok(())
    });
}

/// Union: the result ticks exactly when an operand ticks.
#[test]
fn union_invariant() {
    cases(CASES).run("union_invariant", |rng| {
        let seed = rng.any_u64();
        let (u, a, b, r) = three_event_spec();
        let mut spec = Specification::new("t", u);
        spec.add_constraint(Box::new(Union::new("u", r, [a, b])));
        for step in run(spec, seed, 30).iter() {
            prop_assert_eq!(step.contains(r), step.contains(a) || step.contains(b));
        }
        Ok(())
    });
}

/// Delay: the result's k-th tick coincides with the base's
/// (k+delay)-th tick.
#[test]
fn delay_invariant() {
    cases(CASES).run("delay_invariant", |rng| {
        let seed = rng.any_u64();
        let delay = rng.u64_in(0..4);
        let (u, base, _, r) = three_event_spec();
        let mut spec = Specification::new("t", u);
        spec.add_constraint(Box::new(Delay::new("d", r, base, delay)));
        let mut base_count = 0u64;
        for step in run(spec, seed, 40).iter() {
            if step.contains(base) {
                base_count += 1;
            }
            if step.contains(r) {
                prop_assert!(step.contains(base), "result only with base");
                prop_assert!(base_count > delay, "result before the delay elapsed");
            } else if step.contains(base) {
                prop_assert!(base_count <= delay, "result missed a due tick");
            }
        }
        Ok(())
    });
}

/// Periodic: the result selects exactly the occurrences of the base
/// whose index matches the period.
#[test]
fn periodic_invariant() {
    cases(CASES).run("periodic_invariant", |rng| {
        let seed = rng.any_u64();
        let period = rng.u64_in(1..5);
        let (u, base, _, r) = three_event_spec();
        let mut spec = Specification::new("t", u);
        spec.add_constraint(Box::new(Periodic::every("p", r, base, period)));
        let mut k = 0u64;
        for step in run(spec, seed, 40).iter() {
            if step.contains(base) {
                prop_assert_eq!(step.contains(r), k.is_multiple_of(period));
                k += 1;
            } else {
                prop_assert!(!step.contains(r));
            }
        }
        Ok(())
    });
}

/// State snapshots round-trip at every instant of a random run.
#[test]
fn state_keys_round_trip_along_runs() {
    cases(CASES).run("state_keys_round_trip_along_runs", |rng| {
        let seed = rng.any_u64();
        let (u, a, b, _) = three_event_spec();
        let mut spec = Specification::new("t", u);
        spec.add_constraint(Box::new(Precedence::strict("p", a, b).with_bound(3)));
        spec.add_constraint(Box::new(Alternation::new("alt", a, b)));
        let mut sim = Engine::builder(spec.clone())
            .policy(Random::new(seed))
            .build();
        for _ in 0..20 {
            if sim.step().is_none() {
                break;
            }
            let key = sim.cursor().state_key();
            let mut copy = spec.clone();
            copy.restore(&key).expect("restores");
            prop_assert_eq!(copy.state_key(), key);
        }
        Ok(())
    });
}

/// One `next` call of a walk: constraint, local state, step.
type Move = (usize, StateKey, Step);

/// The pure constraint protocol along random walks over random specs
/// that use every constraint kind: the eleven CCSL relations and
/// expressions and library automata (from `tests/common`), plus a
/// processor mutex.
///
/// * stuttering: `next(l, s) == l` when `s` misses the footprint;
/// * fixed width: `next` keeps the width of `initial()`;
/// * determinism: the same `(l, s)` gives the same state on two threads
///   sharing one `Program`;
/// * a periodic or word filter's formula on its folded local state
///   equals its formula at the unfolded position.
#[test]
fn constraints_are_pure_functions_of_their_local_state() {
    cases(CASES).run(
        "constraints_are_pure_functions_of_their_local_state",
        |rng| {
            let ast = common::random_spec(rng);
            let compiled = moccml::lang::compile(&ast).map_err(|e| e.to_string())?;
            let ctors: Vec<String> = ast
                .items
                .iter()
                .filter_map(|item| match item {
                    Item::Constraint(decl) => Some(decl.ctor.text.clone()),
                    _ => None,
                })
                .collect();
            let mut spec = compiled.program.specification().clone();
            let e = |i: usize| spec.universe().lookup(&format!("e{i}")).expect("declared");
            let mutex = ProcessorMutex::new("mutex", &[(e(0), e(1)), (e(2), e(3))]);
            spec.add_constraint(Box::new(mutex));
            let program = Program::new(spec);
            let constraints = program.specification().constraints();
            let events: Vec<EventId> = program.specification().universe().iter().collect();
            let mut locals = program.specification().locals().to_vec();
            // base occurrences so far, for the filters among the constraints
            let mut positions = vec![0i64; constraints.len()];
            let mut cursor = program.cursor();
            let mut moves: Vec<Move> = Vec::new();
            for _ in 0..12 {
                let steps = cursor.acceptable_steps(&SolverOptions::default().with_empty(true));
                let step = steps[rng.usize_in(0..steps.len())].clone();
                for (i, c) in constraints.iter().enumerate() {
                    let footprint = Step::from_events(c.constrained_events());
                    // a step of foreign events only: stuttering
                    let foreign: Step = events
                        .iter()
                        .copied()
                        .filter(|&e| !footprint.contains(e) && rng.bool())
                        .collect();
                    prop_assert_eq!(
                        c.next(&locals[i], &foreign),
                        locals[i].clone(),
                        "{}",
                        c.name()
                    );
                    let next = c.next(&locals[i], &step);
                    prop_assert_eq!(
                        next.len(),
                        c.initial().len(),
                        "{} keeps its width",
                        c.name()
                    );
                    if ctors
                        .get(i)
                        .is_some_and(|k| k == "periodic" || k == "filtered")
                    {
                        let unfolded = StateKey::from_values([positions[i]]);
                        prop_assert_eq!(
                            c.formula(&locals[i]),
                            c.formula(&unfolded),
                            "{}",
                            c.name()
                        );
                        positions[i] += i64::from(step.contains(c.constrained_events()[1]));
                    }
                    moves.push((i, locals[i].clone(), step.clone()));
                    locals[i] = next;
                }
                cursor.fire(&step).map_err(|e| e.to_string())?;
                prop_assert_eq!(cursor.state_key(), Specification::compose_key(&locals));
            }
            let replay = |moves: &[Move]| -> Vec<StateKey> {
                let constraints = program.specification().constraints();
                moves
                    .iter()
                    .map(|(i, l, s)| constraints[*i].next(l, s))
                    .collect()
            };
            let (left, right) = std::thread::scope(|scope| {
                let left = scope.spawn(|| replay(&moves));
                let right = scope.spawn(|| replay(&moves));
                (left.join().expect("joins"), right.join().expect("joins"))
            });
            prop_assert_eq!(left, right);
            Ok(())
        },
    );
}
