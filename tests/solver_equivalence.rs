//! Property-based equivalence of the pruned step solver against the
//! naive `2^n` enumeration, over randomly generated constraint sets —
//! the correctness side of the B3 ablation.
//!
//! Ported from `proptest` (64 cases per property) to the deterministic
//! in-repo `moccml-testkit` harness at 96 cases per property; failures
//! report a replayable case seed.

use moccml_ccsl::{Coincidence, Exclusion, Precedence, SubClock, Union};
use moccml_engine::{Engine, Program, Random, SolverOptions};
use moccml_kernel::{Constraint, EventId, Specification, Universe};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, TestRng};

const CASES: usize = 96; // seed suite ran 64

/// A recipe for one random constraint over a small event universe.
#[derive(Debug, Clone)]
enum Recipe {
    Sub(u8, u8),
    Excl(u8, u8, u8),
    Coinc(u8, u8),
    Prec(u8, u8, u8),
    Union(u8, u8, u8),
}

fn random_recipe(rng: &mut TestRng) -> Recipe {
    match rng.u8_in(0..5) {
        0 => Recipe::Sub(rng.u8_in(0..6), rng.u8_in(0..6)),
        1 => Recipe::Excl(rng.u8_in(0..6), rng.u8_in(0..6), rng.u8_in(0..6)),
        2 => Recipe::Coinc(rng.u8_in(0..6), rng.u8_in(0..6)),
        3 => Recipe::Prec(rng.u8_in(0..6), rng.u8_in(0..6), rng.u8_in(1..4)),
        _ => Recipe::Union(rng.u8_in(0..6), rng.u8_in(0..6), rng.u8_in(0..6)),
    }
}

fn build(recipes: &[Recipe]) -> Specification {
    let mut u = Universe::new();
    let events: Vec<EventId> = (0..6).map(|i| u.event(&format!("e{i}"))).collect();
    let mut spec = Specification::new("random", u);
    for (i, r) in recipes.iter().enumerate() {
        let name = format!("c{i}");
        let c: Option<Box<dyn Constraint>> = match *r {
            Recipe::Sub(a, b) if a != b => Some(Box::new(SubClock::new(
                &name,
                events[a as usize],
                events[b as usize],
            ))),
            Recipe::Excl(a, b, c2) if a != b && b != c2 && a != c2 => {
                Some(Box::new(Exclusion::new(
                    &name,
                    [events[a as usize], events[b as usize], events[c2 as usize]],
                )))
            }
            Recipe::Coinc(a, b) if a != b => Some(Box::new(Coincidence::new(
                &name,
                events[a as usize],
                events[b as usize],
            ))),
            Recipe::Prec(a, b, k) if a != b => Some(Box::new(
                Precedence::strict(&name, events[a as usize], events[b as usize])
                    .with_bound(u64::from(k)),
            )),
            Recipe::Union(a, b, c2) if a != b && a != c2 => Some(Box::new(Union::new(
                &name,
                events[a as usize],
                [events[b as usize], events[c2 as usize]],
            ))),
            _ => None, // degenerate draws are skipped
        };
        if let Some(c) = c {
            spec.add_constraint(c);
        }
    }
    spec
}

/// Pruned and naive enumerations agree on arbitrary constraint sets
/// in the initial state.
#[test]
fn pruned_equals_naive_initially() {
    cases(CASES).run("pruned_equals_naive_initially", |rng| {
        let recipes = rng.vec_of(1..6, random_recipe);
        let compiled = Program::new(build(&recipes)).cursor();
        let pruned = compiled.acceptable_steps(&SolverOptions::default());
        let naive = compiled.acceptable_steps(&SolverOptions::naive());
        prop_assert_eq!(pruned, naive, "recipes: {recipes:?}");
        Ok(())
    });
}

/// They also agree after advancing the state along a random run.
#[test]
fn pruned_equals_naive_along_runs() {
    cases(CASES).run("pruned_equals_naive_along_runs", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let seed = rng.any_u64();
        let spec = build(&recipes);
        let mut sim = Engine::builder(spec).policy(Random::new(seed)).build();
        for _ in 0..6 {
            if sim.step().is_none() {
                break;
            }
            let compiled = sim.cursor();
            let pruned = compiled.acceptable_steps(&SolverOptions::default());
            let naive = compiled.acceptable_steps(&SolverOptions::naive());
            prop_assert_eq!(pruned, naive, "recipes: {recipes:?}");
        }
        Ok(())
    });
}

/// Every enumerated step really satisfies the conjunction, and the
/// specification's `accepts` agrees.
#[test]
fn enumerated_steps_are_accepted() {
    cases(CASES).run("enumerated_steps_are_accepted", |rng| {
        let recipes = rng.vec_of(1..6, random_recipe);
        let spec = build(&recipes);
        let formula = spec.conjunction();
        for step in Program::compile(&spec)
            .cursor()
            .acceptable_steps(&SolverOptions::default())
        {
            prop_assert!(formula.eval(&step));
            prop_assert!(spec.accepts(&step));
        }
        Ok(())
    });
}
