//! Property-based equivalence of the compiled `Program`/`Cursor` path
//! against an independent brute-force oracle, over randomly generated
//! CCSL constraint sets — the correctness side of the compilation
//! split: memoising per-constraint lowered formulas (and sharing the
//! memo across cursors) must change *no* step semantics.
//!
//! The oracle enumerates every subset of the constrained events and
//! evaluates the specification's own `conjunction()` — no engine code
//! on that side at all. (It replaces the 0.1 `acceptable_steps` free
//! function, which PR 3 removed after its one-release deprecation.)
//!
//! Runs ≥64 cases per property on the deterministic in-repo
//! `moccml-testkit` harness; failures report a replayable case seed.

use moccml_ccsl::{Alternation, Coincidence, Exclusion, Precedence, SubClock, Union};
use moccml_engine::{Cursor, Program, SolverOptions};
use moccml_kernel::{Constraint, EventId, Specification, Step, Universe};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, TestRng};

const CASES: usize = 96; // ISSUE 2 required ≥ 64

/// A recipe for one random constraint over a small event universe.
#[derive(Debug, Clone)]
enum Recipe {
    Sub(u8, u8),
    Excl(u8, u8, u8),
    Coinc(u8, u8),
    Prec(u8, u8, u8),
    Union(u8, u8, u8),
    Alt(u8, u8),
}

fn random_recipe(rng: &mut TestRng) -> Recipe {
    match rng.u8_in(0..6) {
        0 => Recipe::Sub(rng.u8_in(0..6), rng.u8_in(0..6)),
        1 => Recipe::Excl(rng.u8_in(0..6), rng.u8_in(0..6), rng.u8_in(0..6)),
        2 => Recipe::Coinc(rng.u8_in(0..6), rng.u8_in(0..6)),
        3 => Recipe::Prec(rng.u8_in(0..6), rng.u8_in(0..6), rng.u8_in(1..4)),
        4 => Recipe::Union(rng.u8_in(0..6), rng.u8_in(0..6), rng.u8_in(0..6)),
        _ => Recipe::Alt(rng.u8_in(0..6), rng.u8_in(0..6)),
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
            Recipe::Alt(a, b) if a != b => Some(Box::new(Alternation::new(
                &name,
                events[a as usize],
                events[b as usize],
            ))),
            _ => None, // degenerate draws are skipped
        };
        if let Some(c) = c {
            spec.add_constraint(c);
        }
    }
    spec
}

/// Every subset of the specification's constrained events.
fn all_steps(spec: &Specification) -> Vec<Step> {
    let events: Vec<EventId> = spec.constrained_events().iter().collect();
    assert!(events.len() < 20, "oracle is exponential");
    (0u64..(1u64 << events.len()))
        .map(|mask| {
            events
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect()
        })
        .collect()
}

/// Brute-force oracle: every subset of the constrained events that the
/// specification's own conjunction accepts, sorted like the solver
/// sorts — computed without any engine code.
fn oracle_steps(spec: &Specification, options: &SolverOptions) -> Vec<Step> {
    let formula = spec.conjunction();
    let mut out: Vec<Step> = all_steps(spec)
        .into_iter()
        .filter(|step| (options.include_empty || !step.is_empty()) && formula.eval(step))
        .collect();
    out.sort();
    out
}

/// Fires one random step the specification rejects on both sides
/// (when the current state rejects any): both must return the same
/// error, naming the same first violated constraint, and neither state
/// may move.
fn reject_on_both(
    cursor: &mut Cursor,
    spec: &mut Specification,
    rng: &mut TestRng,
) -> Result<(), String> {
    let rejected: Vec<Step> = all_steps(spec)
        .into_iter()
        .filter(|step| !spec.accepts(step))
        .collect();
    if rejected.is_empty() {
        return Ok(());
    }
    let step = &rejected[rng.usize_in(0..rejected.len())];
    let before = spec.state_key();
    let from_cursor = cursor.fire(step);
    prop_assert!(from_cursor.is_err(), "cursor accepted {step}");
    prop_assert_eq!(from_cursor, spec.fire(step));
    prop_assert_eq!(cursor.state_key(), before.clone());
    prop_assert_eq!(spec.state_key(), before);
    Ok(())
}

fn solver_variants() -> [SolverOptions; 3] {
    [
        SolverOptions::default(),
        SolverOptions::naive(),
        SolverOptions::default().with_empty(true),
    ]
}

/// In the initial state, the compiled path yields step sets
/// byte-identical to the brute-force oracle, for every solver
/// configuration.
#[test]
fn program_equals_oracle_initially() {
    cases(CASES).run("program_equals_oracle_initially", |rng| {
        let recipes = rng.vec_of(1..6, random_recipe);
        let spec = build(&recipes);
        let cursor = Program::compile(&spec).cursor();
        for options in solver_variants() {
            prop_assert_eq!(
                cursor.acceptable_steps(&options),
                oracle_steps(&spec, &options),
                "options {options:?}, recipes {recipes:?}"
            );
        }
        Ok(())
    });
}

/// The agreement holds along random runs: both sides fire the same
/// (randomly chosen) acceptable step and must keep identical answers
/// and identical state keys — this exercises the incremental slot
/// refresh after `fire` and the key the cursor composes from its slots.
/// At every state, a rejected step must fail alike on both sides and
/// leave both where they were.
#[test]
fn program_equals_oracle_along_runs() {
    cases(CASES).run("program_equals_oracle_along_runs", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let mut spec = build(&recipes);
        let mut cursor = Program::compile(&spec).cursor();
        let options = SolverOptions::default();
        for _ in 0..8 {
            let fast = cursor.acceptable_steps(&options);
            let slow = oracle_steps(&spec, &options);
            prop_assert_eq!(&fast, &slow, "recipes {recipes:?}");
            if fast.is_empty() {
                break;
            }
            reject_on_both(&mut cursor, &mut spec, rng)?;
            let step = fast[rng.usize_in(0..fast.len())].clone();
            cursor.fire(&step).map_err(|e| e.to_string())?;
            spec.fire(&step).map_err(|e| e.to_string())?;
            prop_assert_eq!(cursor.state_key(), spec.state_key(), "recipes {recipes:?}");
        }
        Ok(())
    });
}

/// `restore` re-syncs the cached formulas exactly: winding a cursor
/// back to a snapshot yields the answers the oracle computed there and
/// the snapshot's own key — this exercises the memo-hit path
/// exploration depends on, and the restore of only the constraints
/// whose key segment changed.
#[test]
fn program_restore_matches_oracle_snapshots() {
    cases(CASES).run("program_restore_matches_oracle_snapshots", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let mut spec = build(&recipes);
        let mut cursor = Program::compile(&spec).cursor();
        let options = SolverOptions::default();
        let mut snapshots = vec![(cursor.state_key(), oracle_steps(&spec, &options))];
        for _ in 0..6 {
            let steps = cursor.acceptable_steps(&options);
            if steps.is_empty() {
                break;
            }
            let step = steps[rng.usize_in(0..steps.len())].clone();
            cursor.fire(&step).map_err(|e| e.to_string())?;
            spec.fire(&step).map_err(|e| e.to_string())?;
            prop_assert_eq!(cursor.state_key(), spec.state_key(), "recipes {recipes:?}");
            snapshots.push((cursor.state_key(), oracle_steps(&spec, &options)));
        }
        // revisit the snapshots in random order
        for _ in 0..snapshots.len() {
            let (key, expected) = &snapshots[rng.usize_in(0..snapshots.len())];
            cursor.restore(key).map_err(|e| e.to_string())?;
            spec.restore(key).map_err(|e| e.to_string())?;
            prop_assert_eq!(&cursor.state_key(), key, "recipes {recipes:?}");
            prop_assert_eq!(&spec.state_key(), key, "recipes {recipes:?}");
            prop_assert_eq!(
                &cursor.acceptable_steps(&options),
                expected,
                "recipes {recipes:?}"
            );
            reject_on_both(&mut cursor, &mut spec, rng)?;
        }
        Ok(())
    });
}

/// A second cursor of the same program — answering purely from the
/// memo the first cursor warmed — matches a fresh compile at every
/// visited state.
#[test]
fn shared_memo_cursor_matches_fresh_compile() {
    cases(CASES).run("shared_memo_cursor_matches_fresh_compile", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let options = SolverOptions::default();
        // warm the memo along a random run on the first cursor
        let mut warm = program.cursor();
        let mut keys = vec![warm.state_key()];
        for _ in 0..6 {
            let steps = warm.acceptable_steps(&options);
            if steps.is_empty() {
                break;
            }
            let step = steps[rng.usize_in(0..steps.len())].clone();
            warm.fire(&step).map_err(|e| e.to_string())?;
            keys.push(warm.state_key());
        }
        // a second cursor re-visits every state via the shared memo
        let mut second = program.cursor();
        for key in &keys {
            second.restore(key).map_err(|e| e.to_string())?;
            let mut fresh = Program::compile(&spec).cursor();
            fresh.restore(key).map_err(|e| e.to_string())?;
            prop_assert_eq!(
                second.acceptable_steps(&options),
                fresh.acceptable_steps(&options),
                "recipes {recipes:?}"
            );
        }
        Ok(())
    });
}

/// Every step the compiled path enumerates is genuinely accepted by the
/// specification, and `Cursor::accepts` agrees with the enumeration.
#[test]
fn program_steps_are_accepted() {
    cases(CASES).run("program_steps_are_accepted", |rng| {
        let recipes = rng.vec_of(1..6, random_recipe);
        let spec = build(&recipes);
        let cursor = Program::compile(&spec).cursor();
        for step in cursor.acceptable_steps(&SolverOptions::default()) {
            prop_assert!(spec.accepts(&step));
            prop_assert!(cursor.accepts(&step));
        }
        Ok(())
    });
}
