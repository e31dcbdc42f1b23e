//! Differential suite for the factored [`StepSet`]: on the states of
//! bounded random walks, the set must index exactly like the sorted
//! list the unfactored solver builds over every constrained event at
//! once ([`Cursor::acceptable_steps_over`]), and every provided policy
//! must choose on it the step it chooses on that list.
//!
//! Specs come from the shared random generator, and from independent
//! random groups spread over a wide universe: their event ids
//! interleave across groups, and with `wide` they reach past 64, where
//! the `Ord` on [`Step`] compares a second bitset word.

mod common;

use common::{add_recipes, random_recipe, EVENTS};
use moccml_engine::{
    Engine, Lexicographic, MaxParallel, MinSerial, Policy, Program, Random, SafeMaxParallel,
    SolverOptions, SplitMix64, StepSet,
};
use moccml_kernel::{EventId, Specification, Step, Universe};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, PropResult, TestRng};

const CASES: usize = 96;
const WALK: usize = 12;

/// Up to three independent groups of random constraints, each over its
/// own [`EVENTS`] event ids drawn from a universe of 24 (or, `wide`,
/// 150) events, so groups interleave and ids pass 64.
fn grouped_spec(rng: &mut TestRng, wide: bool) -> Specification {
    let size = if wide { 150 } else { 24 };
    let mut u = Universe::new();
    let mut pool: Vec<EventId> = (0..size).map(|i| u.event(&format!("e{i}"))).collect();
    let mut spec = Specification::new("grouped", u);
    for g in 0..rng.usize_in(1..4) {
        let events: Vec<EventId> = (0..EVENTS)
            .map(|_| pool.swap_remove(rng.usize_in(0..pool.len())))
            .collect();
        let recipes = rng.vec_of(1..3, random_recipe);
        add_recipes(&mut spec, &recipes, &events, &format!("g{g}c"));
    }
    spec
}

fn random_spec(rng: &mut TestRng) -> Specification {
    match rng.u8_in(0..3) {
        0 => common::build(&rng.vec_of(1..6, random_recipe)),
        1 => grouped_spec(rng, false),
        _ => grouped_spec(rng, true),
    }
}

fn solver_variants() -> [SolverOptions; 4] {
    [
        SolverOptions::default(),
        SolverOptions::default().with_empty(true),
        SolverOptions::naive(),
        SolverOptions::naive().with_empty(true),
    ]
}

/// `set` indexes exactly like `list`, and ranks nothing else.
fn indexes_like(set: &StepSet<'_>, list: &[Step], rng: &mut TestRng) -> PropResult {
    prop_assert_eq!(set.len(), list.len());
    prop_assert_eq!(set.is_empty(), list.is_empty());
    prop_assert_eq!(&set.to_vec(), list);
    prop_assert_eq!(&set.clone().into_vec(), list);
    for (i, step) in list.iter().enumerate() {
        prop_assert_eq!(&set.nth(i), step, "nth({i})");
        prop_assert_eq!(set.rank(step), Some(i), "rank of {step}");
    }
    // random subsets of the constrained events outside the list, and a
    // step with an event no constraint mentions, have no rank
    let events: Vec<EventId> = list.iter().flat_map(|s| s.iter()).collect();
    for _ in 0..8 {
        let probe: Step = events.iter().copied().filter(|_| rng.bool()).collect();
        if !list.contains(&probe) {
            prop_assert_eq!(set.rank(&probe), None, "rank of non-member {probe}");
        }
    }
    let stray = Step::from_events([EventId::from_index(200)]);
    prop_assert_eq!(set.rank(&stray), None);
    Ok(())
}

/// Along a random walk, the factored set of every state indexes like
/// the unfactored solver's sorted list, under every solver option.
#[test]
fn step_sets_index_like_the_unfactored_list() {
    cases(CASES).run("step_sets_index_like_the_unfactored_list", |rng| {
        let spec = random_spec(rng);
        let program = Program::new(spec);
        let events = program.constrained_events().to_vec();
        let mut cursor = program.cursor();
        for _ in 0..WALK {
            for options in solver_variants() {
                let list = cursor.acceptable_steps_over(&events, &options);
                prop_assert_eq!(&cursor.acceptable_steps(&options), &list, "{options:?}");
                indexes_like(
                    &cursor.steps(&options).map_err(|e| e.to_string())?,
                    &list,
                    rng,
                )?;
            }
            let steps = cursor.acceptable_steps(&SolverOptions::default());
            if steps.is_empty() {
                break;
            }
            let step = &steps[rng.usize_in(0..steps.len())];
            cursor.fire(step).map_err(|e| e.to_string())?;
        }
        Ok(())
    });
}

/// A provided policy's choice over the materialized candidate list, as
/// the policies chose before the step set was factored.
#[derive(Debug)]
enum Reference {
    Random(SplitMix64),
    MaxParallel,
    MinSerial,
    Lexicographic,
}

impl Reference {
    fn choose(&mut self, candidates: &[Step]) -> usize {
        let sized = candidates.iter().enumerate();
        match self {
            Reference::Random(rng) => rng.next_below(candidates.len()),
            Reference::MaxParallel => sized.max_by_key(|(_, s)| s.len()).expect("non-empty").0,
            Reference::MinSerial => sized
                .filter(|(_, s)| !s.is_empty())
                .min_by_key(|(_, s)| s.len())
                .map_or(0, |(i, _)| i),
            Reference::Lexicographic => 0,
        }
    }
}

/// Each provided policy, run by an [`Engine`] on the factored set,
/// fires the step its reference picks from the unfactored list at every
/// state of the walk, and stops where the list is empty.
#[test]
fn policies_choose_on_the_set_what_they_chose_on_the_list() {
    cases(CASES).run(
        "policies_choose_on_the_set_what_they_chose_on_the_list",
        |rng| {
            let spec = random_spec(rng);
            let program = Program::new(spec);
            let events = program.constrained_events().to_vec();
            let seed = rng.any_u64();
            let solver = if rng.bool() {
                SolverOptions::default()
            } else {
                SolverOptions::default().with_empty(true)
            };
            let policies: [(Box<dyn Policy>, Reference); 4] = [
                (
                    Box::new(Random::new(seed)),
                    Reference::Random(SplitMix64::new(seed)),
                ),
                (Box::new(MaxParallel), Reference::MaxParallel),
                (Box::new(MinSerial), Reference::MinSerial),
                (Box::new(Lexicographic), Reference::Lexicographic),
            ];
            for (policy, mut reference) in policies {
                let name = policy.name().to_owned();
                let report = Engine::from_program(&program)
                    .policy_boxed(policy)
                    .solver(solver.clone())
                    .build()
                    .run(WALK);
                let mut cursor = program.cursor();
                for step in report.schedule.iter() {
                    let list = cursor.acceptable_steps_over(&events, &solver);
                    prop_assert!(!list.is_empty(), "{name} stepped out of a deadlock");
                    prop_assert_eq!(step, &list[reference.choose(&list)], "{name}");
                    cursor.fire(step).map_err(|e| e.to_string())?;
                }
                let stuck = cursor.acceptable_steps_over(&events, &solver).is_empty();
                // a walk that ran all its steps never looked at the
                // state it ended in, so it reports no deadlock there
                if report.steps_taken < WALK {
                    prop_assert_eq!(report.deadlocked, stuck, "{name}");
                } else {
                    prop_assert!(!report.deadlocked, "{name}");
                }
                prop_assert!(stuck || report.steps_taken == WALK, "{name}");
            }
            Ok(())
        },
    );
}

/// The one policy that still reads the materialized list runs on the
/// same steps as a lookahead over the unfactored list: the largest
/// candidate (first of its size) whose successor admits a non-empty
/// step, else the largest.
#[test]
fn safe_max_parallel_chooses_as_on_the_list() {
    cases(CASES).run("safe_max_parallel_chooses_as_on_the_list", |rng| {
        let spec = random_spec(rng);
        let program = Program::new(spec);
        let events = program.constrained_events().to_vec();
        let solver = SolverOptions::default();
        let report = Engine::from_program(&program)
            .policy(SafeMaxParallel)
            .build()
            .run(WALK);
        let mut cursor = program.cursor();
        for step in report.schedule.iter() {
            let list = cursor.acceptable_steps_over(&events, &solver);
            let mut by_size: Vec<&Step> = list.iter().collect();
            by_size.sort_by_key(|s| std::cmp::Reverse(s.len()));
            let admits = |s: &Step| {
                let mut probe = cursor.clone();
                probe.fire(s).expect("acceptable");
                !probe.acceptable_steps_over(&events, &solver).is_empty()
            };
            let expected = by_size
                .iter()
                .find(|s| admits(s))
                .or(by_size.first())
                .expect("a step was taken");
            prop_assert_eq!(step, *expected);
            cursor.fire(step).map_err(|e| e.to_string())?;
        }
        Ok(())
    });
}
